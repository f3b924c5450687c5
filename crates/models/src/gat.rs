//! Graph Attention Network (Veličković et al.) — the paper's exemplar of
//! the second GNN class (Section 4.2: aggregation "with special edge
//! features applied to each neighbor node, such as GIN, GAT").
//!
//! Single-head GAT layer:
//!
//! 1. `Z = H W` (dense update),
//! 2. per-edge raw score `e_ij = LeakyReLU(a_src . z_i + a_dst . z_j)`,
//! 3. per-destination softmax `alpha_ij = softmax_j(e_ij)`,
//! 4. weighted aggregation `h'_i = sum_j alpha_ij z_j`.
//!
//! Steps 2–3 run on the simulated GPU through the attention kernels; step
//! 4 reuses the framework's aggregation strategy (the weights ride along
//! with the neighbor reads). Because the edge scores depend on the layer's
//! *output-width* embeddings, GAT cannot fold the attention work away —
//! the extra per-edge passes are the architectural cost the paper's
//! second class carries.

use gnnadvisor_core::compute::aggregate_weighted;
use gnnadvisor_core::kernels::attention::{EdgeAttentionKernel, SegmentSoftmaxKernel};
use gnnadvisor_core::Result;
use gnnadvisor_gpu::{Engine, GpuSpec, RunMetrics, Workload};
use gnnadvisor_graph::Csr;
use gnnadvisor_tensor::init::xavier_uniform;
use gnnadvisor_tensor::ops::relu_inplace;
use gnnadvisor_tensor::{gemm_par, Matrix};

use crate::exec::{ForwardResult, ModelExec};

/// Default GAT hidden width (8 per head x 8 heads in the original paper;
/// we model one fused head of width 64).
pub const GAT_HIDDEN: usize = 64;
/// Default GAT depth.
pub const GAT_LAYERS: usize = 2;
/// LeakyReLU slope used by GAT.
pub const LEAKY_SLOPE: f32 = 0.2;

struct GatLayer {
    weight: Matrix,
    a_src: Vec<f32>,
    a_dst: Vec<f32>,
}

/// A single-head GAT.
pub struct Gat {
    layers: Vec<GatLayer>,
}

impl Gat {
    /// Builds the default 2-layer GAT.
    pub fn paper_default(feat_dim: usize, num_classes: usize, seed: u64) -> Self {
        Self::new(feat_dim, GAT_HIDDEN, num_classes, GAT_LAYERS, seed)
    }

    /// Builds a GAT with the given shape, deterministic per seed.
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
        assert!(num_layers > 0, "a GAT needs at least one layer");
        let mut layers = Vec::with_capacity(num_layers);
        let mut in_dim = feat_dim;
        for l in 0..num_layers {
            let out_dim = if l + 1 == num_layers {
                num_classes
            } else {
                hidden
            };
            let s = seed.wrapping_add(l as u64 * 31);
            layers.push(GatLayer {
                weight: xavier_uniform(in_dim, out_dim, s),
                a_src: xavier_uniform(1, out_dim, s ^ 1).into_vec(),
                a_dst: xavier_uniform(1, out_dim, s ^ 2).into_vec(),
            });
            in_dim = out_dim;
        }
        Self { layers }
    }

    /// Number of layers.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Computes the attention weights of one layer (numerics): raw scores
    /// per CSR edge, softmax-normalized per destination node.
    fn attention_weights(graph: &Csr, z: &Matrix, layer: &GatLayer) -> Vec<f32> {
        let n = graph.num_nodes();
        // Per-node endpoint dots.
        let dot = |row: &[f32], a: &[f32]| -> f32 { row.iter().zip(a).map(|(x, y)| x * y).sum() };
        let src_dots: Vec<f32> = (0..n).map(|v| dot(z.row(v), &layer.a_src)).collect();
        let dst_dots: Vec<f32> = (0..n).map(|v| dot(z.row(v), &layer.a_dst)).collect();
        // Raw scores + per-destination softmax.
        let row_ptr = graph.row_ptr();
        let col = graph.col_idx();
        let mut weights = vec![0.0f32; graph.num_edges()];
        for v in 0..n {
            let (s, e) = (row_ptr[v], row_ptr[v + 1]);
            if s == e {
                continue;
            }
            let mut max = f32::NEG_INFINITY;
            for i in s..e {
                let raw = dst_dots[v] + src_dots[col[i] as usize];
                let score = if raw > 0.0 { raw } else { LEAKY_SLOPE * raw };
                weights[i] = score;
                max = max.max(score);
            }
            let mut sum = 0.0;
            for w in &mut weights[s..e] {
                *w = (*w - max).exp();
                sum += *w;
            }
            if sum > 0.0 {
                for w in &mut weights[s..e] {
                    *w /= sum;
                }
            }
        }
        weights
    }

    /// Simulated cost of the attention passes (scores + softmax) on the
    /// *execution* graph.
    fn attention_cost(engine: &Engine, graph: &Csr, metrics: &mut RunMetrics) -> Result<()> {
        let mut ctx = engine.lock_context();
        metrics.push_kernel(
            engine
                .submit(&mut ctx, Workload::Kernel(&EdgeAttentionKernel::new(graph)))?
                .into_kernel(),
        );
        metrics.push_kernel(
            engine
                .submit(
                    &mut ctx,
                    Workload::Kernel(&SegmentSoftmaxKernel::new(graph)),
                )?
                .into_kernel(),
        );
        Ok(())
    }

    /// Full forward pass: real embeddings + simulated metrics.
    pub fn forward(&self, exec: &ModelExec<'_>, features: &Matrix) -> Result<ForwardResult> {
        let mut metrics = RunMetrics::default();
        let graph = exec.graph();
        let n = graph.num_nodes();
        // The attention kernels run on whichever engine the strategy uses;
        // a dedicated engine with the default spec prices them when the
        // strategy carries none (they are strategy-independent passes).
        let engine = Engine::new(GpuSpec::quadro_p6000());
        let mut h = features.clone();
        for (l, layer) in self.layers.iter().enumerate() {
            // Dense update.
            exec.update_cost(n, layer.weight.rows(), layer.weight.cols(), &mut metrics)?;
            let z = gemm_par(&h, &layer.weight, exec.host_workers())?;
            // Attention coefficients: numerics + simulated passes.
            let weights = Self::attention_weights(graph, &z, layer);
            Self::attention_cost(&engine, graph, &mut metrics)?;
            // Weighted aggregation: same data movement as an unweighted
            // pass at this dimensionality (weights ride in registers),
            // priced by the strategy; numerics use the real alphas.
            exec.aggregate_cost(z.cols(), &mut metrics)?;
            let mut out = aggregate_weighted(graph, &z, &weights, exec.host_workers());
            if l + 1 < self.layers.len() {
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
    use gnnadvisor_graph::generators::barabasi_albert;
    use gnnadvisor_tensor::init::random_features;

    #[test]
    fn forward_shapes_and_extra_kernels() {
        let g = barabasi_albert(150, 4, 14).expect("valid");
        let engine = Engine::new(GpuSpec::quadro_p6000());
        let exec = ModelExec::new(&engine, &g, Framework::Dgl, None);
        let model = Gat::paper_default(32, 7, 0);
        let f = random_features(150, 32, 4);
        let r = model.forward(&exec, &f).expect("runs");
        assert_eq!(r.output.shape(), (150, 7));
        // Per layer: 1 gemm + 2 attention kernels + 2 DGL aggregation
        // kernels = 5; 2 layers = 10.
        assert_eq!(r.metrics.kernels.len(), 10);
        assert!(r
            .metrics
            .kernels
            .iter()
            .any(|k| k.name == "gat_edge_attention"));
    }

    #[test]
    fn attention_weights_are_a_distribution() {
        let g = barabasi_albert(100, 3, 15).expect("valid");
        let z = random_features(100, 16, 5);
        let layer = GatLayer {
            weight: xavier_uniform(16, 16, 0),
            a_src: xavier_uniform(1, 16, 1).into_vec(),
            a_dst: xavier_uniform(1, 16, 2).into_vec(),
        };
        let w = Gat::attention_weights(&g, &z, &layer);
        assert_eq!(w.len(), g.num_edges());
        assert!(w.iter().all(|&x| (0.0..=1.0 + 1e-5).contains(&x)));
        for v in 0..g.num_nodes() {
            let (s, e) = (g.row_ptr()[v], g.row_ptr()[v + 1]);
            if s < e {
                let sum: f32 = w[s..e].iter().sum();
                assert!((sum - 1.0).abs() < 1e-4, "node {v} alphas sum to {sum}");
            }
        }
    }

    #[test]
    fn uniform_attention_reduces_to_mean() {
        // With a_src = a_dst = 0 every score ties, so softmax is uniform
        // and GAT's weighted sum equals the neighbor mean.
        let g = barabasi_albert(60, 3, 16).expect("valid");
        let z = random_features(60, 8, 6);
        let layer = GatLayer {
            weight: xavier_uniform(8, 8, 0),
            a_src: vec![0.0; 8],
            a_dst: vec![0.0; 8],
        };
        let w = Gat::attention_weights(&g, &z, &layer);
        let weighted = aggregate_weighted(&g, &z, &w, 1);
        let mean = gnnadvisor_core::compute::aggregate_reference(
            &g,
            &z,
            gnnadvisor_core::compute::Aggregation::Mean,
            1,
        );
        assert!(weighted.max_abs_diff(&mean) < 1e-4);
    }

    #[test]
    fn gat_costs_more_than_gcn_at_same_shape() {
        use crate::gcn::Gcn;
        let g = barabasi_albert(200, 4, 17).expect("valid");
        let engine = Engine::new(GpuSpec::quadro_p6000());
        let exec = ModelExec::new(&engine, &g, Framework::Dgl, None);
        let f = random_features(200, 64, 7);
        let gat = Gat::new(64, 64, 8, 2, 0).forward(&exec, &f).expect("runs");
        let gcn = Gcn::new(64, 64, 8, 2, 0).forward(&exec, &f).expect("runs");
        assert!(
            gat.metrics.compute_ms > gcn.metrics.compute_ms,
            "edge-feature passes must cost extra: {} vs {}",
            gat.metrics.compute_ms,
            gcn.metrics.compute_ms
        );
    }
}
