//! Dataset specifications and materialization.

use gnnadvisor_graph::generators::{
    batched_graph, community_graph, BatchedParams, CommunityParams,
};
use gnnadvisor_graph::{Csr, Result};
use serde::Serialize;

use crate::scale::scaled_counts;

/// The paper's three dataset classes (Section 8.1.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum DatasetType {
    /// Small graphs with high-dimensional features (GNN algorithm papers).
    TypeI,
    /// Batched sets of small dense graphs (graph-kernel benchmarks).
    TypeII,
    /// Large irregular graphs (SNAP-style).
    TypeIII,
}

impl DatasetType {
    /// Display label matching the paper.
    pub fn label(&self) -> &'static str {
        match self {
            DatasetType::TypeI => "I",
            DatasetType::TypeII => "II",
            DatasetType::TypeIII => "III",
        }
    }
}

/// Published statistics of one dataset (a Table 1 row).
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct DatasetSpec {
    /// Dataset name as printed in Table 1.
    pub name: &'static str,
    /// `#Vertex`.
    pub num_nodes: usize,
    /// `#Edge` (directed).
    pub num_edges: usize,
    /// `#Dim` — input feature dimensionality.
    pub feat_dim: usize,
    /// `#Cls` — output classes.
    pub num_classes: usize,
    /// Structural class.
    pub ty: DatasetType,
    /// Mean community (Type I/III) or component-graph (Type II) size used
    /// by the generator; chosen per class, documented in `table1`.
    pub mean_cluster: usize,
    /// Community-size spread; the paper singles out `artist` for its high
    /// community-size variance (Section 8.2), which this knob reproduces.
    pub cluster_cv: f64,
}

/// A materialized dataset: graph plus metadata (features are generated on
/// demand by callers via `gnnadvisor-tensor::init::random_features` so huge
/// feature matrices are only allocated when actually needed).
#[derive(Debug, Clone)]
pub struct Dataset {
    /// The spec this dataset was generated from.
    pub spec: DatasetSpec,
    /// Scale factor applied.
    pub scale: f64,
    /// The synthesized graph.
    pub graph: Csr,
    /// Effective feature dimension (unscaled — dimensionality is shape,
    /// not size).
    pub feat_dim: usize,
    /// Effective class count.
    pub num_classes: usize,
}

impl DatasetSpec {
    /// Materializes the dataset at `scale` in `(0, 1]`, deterministic per
    /// `(name, scale)`.
    pub fn generate(&self, scale: f64) -> Result<Dataset> {
        let (n, e) = scaled_counts(self.num_nodes, self.num_edges, scale);
        let seed = fxhash(self.name) ^ (scale * 1e6) as u64;
        let graph = match self.ty {
            DatasetType::TypeI | DatasetType::TypeIII => {
                let params = CommunityParams {
                    num_nodes: n,
                    num_edges: e,
                    mean_community: self.mean_cluster.min(n.max(2) / 2).max(2),
                    community_size_cv: self.cluster_cv,
                    inter_fraction: 0.1,
                    shuffle_ids: true,
                };
                community_graph(&params, seed)?.0
            }
            DatasetType::TypeII => {
                let params = BatchedParams {
                    num_nodes: n,
                    num_edges: e,
                    mean_graph_size: self.mean_cluster.min(n.max(2) / 2).max(2),
                    graph_size_cv: self.cluster_cv,
                };
                batched_graph(&params, seed)?.0
            }
        };
        Ok(Dataset {
            spec: *self,
            scale,
            graph,
            feat_dim: self.feat_dim,
            num_classes: self.num_classes,
        })
    }
}

/// Small deterministic string hash (FNV-1a) for per-dataset seeds.
fn fxhash(s: &str) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> DatasetSpec {
        DatasetSpec {
            name: "unit-test",
            num_nodes: 10_000,
            num_edges: 80_000,
            feat_dim: 96,
            num_classes: 22,
            ty: DatasetType::TypeIII,
            mean_cluster: 64,
            cluster_cv: 0.3,
        }
    }

    #[test]
    fn full_scale_matches_spec() {
        let d = spec().generate(1.0).expect("valid");
        assert_eq!(d.graph.num_nodes(), 10_000);
        let ratio = d.graph.num_edges() as f64 / 80_000.0;
        assert!((0.7..=1.1).contains(&ratio), "edge ratio {ratio}");
        assert_eq!(d.feat_dim, 96);
    }

    #[test]
    fn scaling_shrinks_proportionally() {
        let d = spec().generate(0.1).expect("valid");
        assert_eq!(d.graph.num_nodes(), 1_000);
        assert!(d.graph.num_edges() < 12_000);
        assert_eq!(d.feat_dim, 96, "dimensionality is never scaled");
    }

    #[test]
    fn deterministic_per_name_and_scale() {
        let a = spec().generate(0.5).expect("valid");
        let b = spec().generate(0.5).expect("valid");
        assert_eq!(a.graph, b.graph);
    }

    #[test]
    fn different_names_differ() {
        let mut other = spec();
        other.name = "unit-test-2";
        let a = spec().generate(0.5).expect("valid");
        let b = other.generate(0.5).expect("valid");
        assert_ne!(a.graph, b.graph);
    }

    #[test]
    fn type_ii_uses_batched_generator() {
        let s = DatasetSpec {
            ty: DatasetType::TypeII,
            mean_cluster: 40,
            ..spec()
        };
        let d = s.generate(0.2).expect("valid");
        // Batched graphs have tiny edge spans (block-diagonal).
        assert!(
            d.graph.mean_edge_span() < 80.0,
            "span = {}",
            d.graph.mean_edge_span()
        );
    }
}
