//! Graph Convolutional Network (Kipf & Welling), the paper's first
//! benchmark model: 2 layers, hidden dimension 16.
//!
//! Layer `k`: `H' = ReLU( Â (H W) )` with the renormalized adjacency
//! `Â = D^-1/2 (A + I) D^-1/2`. The dense update runs *before* aggregation
//! ("node dimension reduction before the neighbor aggregation", Section
//! 4.2), so aggregation operates at the small hidden dimension — the
//! property that lets GNNAdvisor's locality optimizations shine on GCN.

use gnnadvisor_core::compute::Aggregation;
use gnnadvisor_core::Result;
use gnnadvisor_gpu::RunMetrics;
use gnnadvisor_tensor::ops::relu_inplace;
use gnnadvisor_tensor::{Linear, Matrix};

use crate::exec::{ForwardResult, ModelExec};

/// The paper's default GCN hidden dimension.
pub const GCN_HIDDEN: usize = 16;
/// The paper's default GCN depth.
pub const GCN_LAYERS: usize = 2;

/// A GCN with configurable depth and hidden width.
pub struct Gcn {
    layers: Vec<Linear>,
}

impl Gcn {
    /// Builds the paper's 2-layer, hidden-16 GCN.
    pub fn paper_default(feat_dim: usize, num_classes: usize, seed: u64) -> Self {
        Self::new(feat_dim, GCN_HIDDEN, num_classes, GCN_LAYERS, seed)
    }

    /// Builds a GCN: `feat_dim -> hidden -> ... -> num_classes` over
    /// `num_layers` graph convolutions.
    ///
    /// # Panics
    ///
    /// Panics if `num_layers == 0`.
    pub fn new(
        feat_dim: usize,
        hidden: usize,
        num_classes: usize,
        num_layers: usize,
        seed: u64,
    ) -> Self {
        assert!(num_layers > 0, "a GCN needs at least one layer");
        let mut layers = Vec::with_capacity(num_layers);
        let mut in_dim = feat_dim;
        for l in 0..num_layers {
            let out_dim = if l + 1 == num_layers {
                num_classes
            } else {
                hidden
            };
            layers.push(Linear::new(in_dim, out_dim, seed.wrapping_add(l as u64)));
            in_dim = out_dim;
        }
        Self { layers }
    }

    /// Number of graph-convolution layers.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Full forward pass: real embeddings + simulated metrics.
    ///
    /// `A_hat (H W) == (A_hat H) W`, so the reduce-before-aggregate
    /// ordering is purely a performance optimization — frameworks that lack
    /// it (Section 8.3) compute identical numbers but pay for aggregation
    /// at the full input dimensionality.
    ///
    /// The update-first path runs in the exec's row order: under a
    /// renumbering advisor, only the first GEMM's output is gathered into
    /// the renumbered order and only the logits are gathered back. The
    /// GEMMs, the aggregations and the ReLU each compute a row from that
    /// row's own inputs, so the output is bitwise that of the original
    /// order. Each hidden layer's ReLU is folded into its aggregation.
    pub fn forward(&self, exec: &ModelExec<'_>, features: &Matrix) -> Result<ForwardResult> {
        let mut metrics = RunMetrics::default();
        let last = self.layers.len() - 1;
        if exec.framework().reduces_before_aggregation() {
            // Update first: dimension reduction before aggregation.
            let reduced = exec.update(&self.layers[0], features, &mut metrics)?;
            let mut h = exec.to_row_order(reduced)?;
            for (l, layer) in self.layers.iter().enumerate() {
                if l > 0 {
                    h = exec.update(layer, &h, &mut metrics)?;
                }
                h = exec.aggregate_gcn(&h, l < last, &mut metrics)?;
            }
            let output = exec.to_node_order(h)?;
            return Ok(ForwardResult { output, metrics });
        }
        // Aggregate at the full input dimensionality, then update.
        // Layer 0 reads the input in place; later layers own their input.
        let mut h: Option<Matrix> = None;
        for (l, layer) in self.layers.iter().enumerate() {
            let input = h.as_ref().unwrap_or(features);
            let gathered = exec.aggregate(input, Aggregation::GcnNorm, &mut metrics)?;
            let mut updated = exec.update(layer, &gathered, &mut metrics)?;
            if l < last {
                relu_inplace(&mut updated);
            }
            h = Some(updated);
        }
        let output = h.expect("a GCN has at least one layer");
        Ok(ForwardResult { output, metrics })
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
    fn forward_shapes_and_metric_counts() {
        let g = barabasi_albert(150, 3, 4).expect("valid");
        let engine = Engine::new(GpuSpec::quadro_p6000());
        let exec = ModelExec::new(&engine, &g, Framework::Dgl, None);
        let model = Gcn::paper_default(32, 7, 0);
        let f = random_features(150, 32, 3);
        let r = model.forward(&exec, &f).expect("runs");
        assert_eq!(r.output.shape(), (150, 7));
        // 2 layers x (1 gemm + 2 DGL kernels) = 6 kernels.
        assert_eq!(r.metrics.kernels.len(), 6);
        assert!(r.metrics.total_ms() > 0.0);
    }

    #[test]
    fn reduce_first_shrinks_aggregation_traffic() {
        // With feat 512 and hidden 16, a reduce-first framework (DGL-like)
        // aggregates at dim 16 while PyG aggregates at the full 512 — the
        // Section 8.3 mechanism. Numerics are identical (linearity).
        let g = barabasi_albert(200, 4, 5).expect("valid");
        let engine = Engine::new(GpuSpec::quadro_p6000());
        let model = Gcn::paper_default(512, 7, 0);
        let f = random_features(200, 512, 1);

        let dgl = ModelExec::new(&engine, &g, Framework::Dgl, None);
        let pyg = ModelExec::new(&engine, &g, Framework::Pyg, None);
        let r_dgl = model.forward(&dgl, &f).expect("runs");
        let r_pyg = model.forward(&pyg, &f).expect("runs");
        assert!(r_dgl.output.max_abs_diff(&r_pyg.output) < 1e-3);

        let agg_bytes = |r: &crate::exec::ForwardResult| -> u64 {
            r.metrics
                .kernels
                .iter()
                .filter(|k| !k.name.starts_with("gemm"))
                .map(|k| k.dram_bytes())
                .sum()
        };
        assert!(
            agg_bytes(&r_dgl) * 4 < agg_bytes(&r_pyg),
            "full-dim aggregation must move far more data: {} vs {}",
            agg_bytes(&r_dgl),
            agg_bytes(&r_pyg)
        );
    }

    #[test]
    fn deterministic_outputs() {
        let g = barabasi_albert(100, 3, 6).expect("valid");
        let engine = Engine::new(GpuSpec::quadro_p6000());
        let exec = ModelExec::new(&engine, &g, Framework::Dgl, None);
        let f = random_features(100, 16, 2);
        let a = Gcn::paper_default(16, 4, 9)
            .forward(&exec, &f)
            .expect("runs");
        let b = Gcn::paper_default(16, 4, 9)
            .forward(&exec, &f)
            .expect("runs");
        assert_eq!(a.output, b.output);
        assert_eq!(a.metrics, b.metrics);
    }

    #[test]
    #[should_panic(expected = "at least one layer")]
    fn zero_layers_panics() {
        Gcn::new(8, 8, 2, 0, 0);
    }
}
