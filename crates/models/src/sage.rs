//! GraphSage (Hamilton et al.), the model of the GunRock comparison.
//!
//! Section 8.5: "GraphSage is the only GNN implementation officially
//! released by GunRock, and it is essentially a 2-layer GCN except for an
//! additional neighbor sampling, which has been disabled for a fair
//! comparison." We implement the mean-aggregator variant:
//! `H' = ReLU( W · [H_v || mean(H_u)] )`, without sampling.

use gnnadvisor_core::compute::Aggregation;
use gnnadvisor_core::Result;
use gnnadvisor_gpu::RunMetrics;
use gnnadvisor_tensor::ops::{hconcat, relu_inplace};
use gnnadvisor_tensor::{Linear, Matrix};

use crate::exec::{ForwardResult, ModelExec};

/// The default GraphSage hidden dimension (matching GCN's 16 for the
/// 2-layer-GCN equivalence of Section 8.5).
pub const SAGE_HIDDEN: usize = 16;
/// GraphSage depth in the GunRock release.
pub const SAGE_LAYERS: usize = 2;

/// A 2-layer mean-aggregator GraphSage without sampling.
pub struct GraphSage {
    layers: Vec<Linear>,
}

impl GraphSage {
    /// Builds the Section 8.5 configuration.
    pub fn paper_default(feat_dim: usize, num_classes: usize, seed: u64) -> Self {
        Self::new(feat_dim, SAGE_HIDDEN, num_classes, SAGE_LAYERS, seed)
    }

    /// Builds a GraphSage with the given shape. Each layer's weight takes
    /// the concatenated `[self || neighbor-mean]` input (2x width).
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
        assert!(num_layers > 0, "GraphSage needs at least one layer");
        let mut layers = Vec::with_capacity(num_layers);
        let mut in_dim = feat_dim;
        for l in 0..num_layers {
            let out_dim = if l + 1 == num_layers {
                num_classes
            } else {
                hidden
            };
            layers.push(Linear::new(
                2 * in_dim,
                out_dim,
                seed.wrapping_add(l as u64 * 13),
            ));
            in_dim = out_dim;
        }
        Self { layers }
    }

    /// Number of layers.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Full forward pass: real embeddings + simulated metrics.
    pub fn forward(&self, exec: &ModelExec<'_>, features: &Matrix) -> Result<ForwardResult> {
        let mut metrics = RunMetrics::default();
        let mut h = features.clone();
        for (l, layer) in self.layers.iter().enumerate() {
            // Mean-aggregate neighbors at the current dimension.
            let neigh = exec.aggregate(&h, Aggregation::Mean, &mut metrics)?;
            // `?` propagates a shape mismatch as CoreError::Tensor instead
            // of aborting the serving process.
            let cat = hconcat(&h, &neigh).map_err(gnnadvisor_core::CoreError::from)?;
            let mut out = exec.update(layer, &cat, &mut metrics)?;
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
    use gnnadvisor_gpu::{Engine, GpuSpec};
    use gnnadvisor_graph::generators::barabasi_albert;
    use gnnadvisor_tensor::init::random_features;

    #[test]
    fn forward_shapes() {
        let g = barabasi_albert(100, 3, 11).expect("valid");
        let engine = Engine::new(GpuSpec::quadro_p6000());
        let exec = ModelExec::new(&engine, &g, Framework::Gunrock, None);
        let model = GraphSage::paper_default(100, 12, 0);
        let f = random_features(100, 100, 8);
        let r = model.forward(&exec, &f).expect("runs");
        assert_eq!(r.output.shape(), (100, 12));
        assert_eq!(model.num_layers(), 2);
        assert!(r.metrics.total_ms() > 0.0);
    }

    #[test]
    fn shape_mismatch_surfaces_as_a_typed_error() {
        // The serving path hands models externally shaped features; a
        // mismatch must come back as CoreError::Tensor, not a panic.
        let g = barabasi_albert(50, 3, 1).expect("valid");
        let engine = Engine::new(GpuSpec::quadro_p6000());
        let exec = ModelExec::new(&engine, &g, Framework::Dgl, None);
        let model = GraphSage::paper_default(8, 4, 0);
        let wrong_rows = random_features(49, 8, 2);
        let err = model.forward(&exec, &wrong_rows).expect_err("mismatch");
        assert!(
            matches!(err, gnnadvisor_core::CoreError::Tensor(_)),
            "{err:?}"
        );
    }

    #[test]
    fn sampling_disabled_means_full_neighborhoods() {
        // Every edge's feature row must be touched: the aggregation kernel
        // reads at least E/8 cache lines (row >= 1 line at dim 32).
        let g = barabasi_albert(200, 5, 12).expect("valid");
        let engine = Engine::new(GpuSpec::quadro_p6000());
        let exec = ModelExec::new(&engine, &g, Framework::Dgl, None);
        let f = random_features(200, 32, 9);
        let r = GraphSage::paper_default(32, 4, 0)
            .forward(&exec, &f)
            .expect("runs");
        let touches: u64 = r
            .metrics
            .kernels
            .iter()
            .map(|k| k.l2_hits + k.l2_misses)
            .sum();
        assert!(touches > g.num_edges() as u64);
    }
}
