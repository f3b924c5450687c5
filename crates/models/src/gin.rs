//! Graph Isomorphism Network (Xu et al.), the paper's second benchmark
//! model: 5 layers, hidden dimension 64.
//!
//! Layer `k`: `H' = MLP( (1 + eps) * H + sum_{u in N(v)} H_u )`. The sum
//! *must* run at the current (full) dimensionality before the MLP reduces
//! it — the aggregate-then-update order of Section 4.2 that makes GIN far
//! more memory-hungry than GCN in its first layer and drives the paper's
//! GCN/GIN speedup asymmetry on Type I graphs.

use gnnadvisor_core::compute::Aggregation;
use gnnadvisor_core::Result;
use gnnadvisor_gpu::RunMetrics;
use gnnadvisor_tensor::ops::{axpy_inplace, relu_inplace};
use gnnadvisor_tensor::{Matrix, Mlp};

use crate::exec::{ForwardResult, ModelExec};

/// The paper's default GIN hidden dimension.
pub const GIN_HIDDEN: usize = 64;
/// The paper's default GIN depth ("GCN:2 vs. GIN:5", Section 8.7).
pub const GIN_LAYERS: usize = 5;

/// A GIN with configurable depth, hidden width, and epsilon.
pub struct Gin {
    mlps: Vec<Mlp>,
    eps: f32,
}

impl Gin {
    /// Builds the paper's 5-layer, hidden-64 GIN with `eps = 0`.
    pub fn paper_default(feat_dim: usize, num_classes: usize, seed: u64) -> Self {
        Self::new(feat_dim, GIN_HIDDEN, num_classes, GIN_LAYERS, 0.0, seed)
    }

    /// Builds a GIN: each layer aggregates then applies a 2-layer MLP.
    ///
    /// # Panics
    ///
    /// Panics if `num_layers == 0`.
    pub fn new(
        feat_dim: usize,
        hidden: usize,
        num_classes: usize,
        num_layers: usize,
        eps: f32,
        seed: u64,
    ) -> Self {
        assert!(num_layers > 0, "a GIN needs at least one layer");
        let mut mlps = Vec::with_capacity(num_layers);
        let mut in_dim = feat_dim;
        for l in 0..num_layers {
            let out_dim = if l + 1 == num_layers {
                num_classes
            } else {
                hidden
            };
            mlps.push(Mlp::new(
                &[in_dim, hidden, out_dim],
                seed.wrapping_add(l as u64 * 7),
            ));
            in_dim = out_dim;
        }
        Self { mlps, eps }
    }

    /// Number of GIN layers.
    pub fn num_layers(&self) -> usize {
        self.mlps.len()
    }

    /// Full forward pass: real embeddings + simulated metrics.
    pub fn forward(&self, exec: &ModelExec<'_>, features: &Matrix) -> Result<ForwardResult> {
        let mut metrics = RunMetrics::default();
        let mut h = features.clone();
        let n = h.rows();
        for (l, mlp) in self.mlps.iter().enumerate() {
            // Aggregate first, at the current (possibly full) dimension.
            let mut agg = exec.aggregate(&h, Aggregation::Sum, &mut metrics)?;
            // (1 + eps) self term.
            axpy_inplace(&mut agg, 1.0 + self.eps, &h);
            // MLP update: two GEMMs.
            exec.update_cost(
                n,
                mlp.in_dim(),
                GIN_HIDDEN.min(mlp.in_dim().max(1)),
                &mut metrics,
            );
            exec.update_cost(
                n,
                GIN_HIDDEN.min(mlp.in_dim().max(1)),
                mlp.out_dim(),
                &mut metrics,
            );
            let mut out = mlp.forward(&agg, exec.host_workers())?;
            if l + 1 < self.mlps.len() {
                relu_inplace(&mut out);
            }
            h = out;
        }
        Ok(ForwardResult { output: h, metrics })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnnadvisor_core::Framework;
    use gnnadvisor_gpu::{Engine, GpuSpec};
    use gnnadvisor_graph::generators::barabasi_albert;
    use gnnadvisor_tensor::init::random_features;

    #[test]
    fn forward_shapes() {
        let g = barabasi_albert(120, 3, 2).expect("valid");
        let engine = Engine::new(GpuSpec::quadro_p6000());
        let exec = ModelExec::new(&engine, &g, Framework::Dgl, None);
        let model = Gin::paper_default(50, 121, 0);
        let f = random_features(120, 50, 4);
        let r = model.forward(&exec, &f).expect("runs");
        assert_eq!(r.output.shape(), (120, 121));
        assert_eq!(model.num_layers(), 5);
    }

    #[test]
    fn first_layer_aggregates_at_full_dim() {
        let g = barabasi_albert(150, 4, 3).expect("valid");
        let engine = Engine::new(GpuSpec::quadro_p6000());
        let exec = ModelExec::new(&engine, &g, Framework::Pyg, None);
        let feat_dim = 700;
        let model = Gin::paper_default(feat_dim, 2, 0);
        let f = random_features(150, feat_dim, 5);
        let r = model.forward(&exec, &f).expect("runs");
        let first_gather = r
            .metrics
            .kernels
            .iter()
            .find(|k| k.name == "pyg_gather")
            .expect("present");
        // The first gather must move E x 700 floats — GIN cannot reduce
        // before aggregation.
        let expected = g.num_edges() as u64 * feat_dim as u64 * 4;
        assert!(
            first_gather.dram_write_bytes >= expected / 2,
            "{} vs expected ~{expected}",
            first_gather.dram_write_bytes
        );
    }

    #[test]
    fn eps_changes_output() {
        let g = barabasi_albert(80, 3, 1).expect("valid");
        let engine = Engine::new(GpuSpec::quadro_p6000());
        let exec = ModelExec::new(&engine, &g, Framework::Dgl, None);
        let f = random_features(80, 16, 6);
        let a = Gin::new(16, 32, 4, 2, 0.0, 3)
            .forward(&exec, &f)
            .expect("runs");
        let b = Gin::new(16, 32, 4, 2, 0.5, 3)
            .forward(&exec, &f)
            .expect("runs");
        assert!(a.output.max_abs_diff(&b.output) > 1e-6, "eps must matter");
    }

    #[test]
    fn gin_costs_more_than_gcn_on_high_dim_input() {
        use crate::gcn::Gcn;
        let g = barabasi_albert(200, 4, 8).expect("valid");
        let engine = Engine::new(GpuSpec::quadro_p6000());
        let exec = ModelExec::new(&engine, &g, Framework::Dgl, None);
        let feat_dim = 512;
        let f = random_features(200, feat_dim, 7);
        let gcn = Gcn::paper_default(feat_dim, 8, 0)
            .forward(&exec, &f)
            .expect("runs");
        let gin = Gin::paper_default(feat_dim, 8, 0)
            .forward(&exec, &f)
            .expect("runs");
        assert!(
            gin.metrics.compute_ms > gcn.metrics.compute_ms,
            "full-dim aggregation plus 5 layers must cost more: {} vs {}",
            gin.metrics.compute_ms,
            gcn.metrics.compute_ms
        );
    }
}
