//! Extraction of graph-level and architecture-level input information.

use gnnadvisor_graph::stats::DegreeStats;
use gnnadvisor_graph::Csr;
use serde::Serialize;

/// Where the dense update sits relative to aggregation (Section 4.2).
///
/// GCN-class models reduce the embedding dimension *before* aggregating, so
/// aggregation runs at the small hidden dimension; GIN-class models must
/// aggregate at full dimension first because the edge/self weighting needs
/// the raw embeddings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum AggOrder {
    /// Update (dimension reduction) first, then aggregate — GCN.
    UpdateThenAggregate,
    /// Aggregate at full dimension, then update — GIN / GAT.
    AggregateThenUpdate,
}

/// The input-level information GNNAdvisor's extractor collects (Section 4).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct InputInfo {
    /// Number of nodes `N`.
    pub num_nodes: usize,
    /// Number of directed edges `E`.
    pub num_edges: usize,
    /// Mean node degree `E / N`.
    pub avg_degree: f64,
    /// Standard deviation of node degree — feeds the analytical model's
    /// `alpha` (Section 7.1).
    pub degree_stddev: f64,
    /// Maximum node degree.
    pub max_degree: usize,
    /// Input feature dimensionality (Table 1 "#Dim").
    pub feat_dim: usize,
    /// Hidden-layer embedding dimensionality of the GNN.
    pub hidden_dim: usize,
    /// Output classes (Table 1 "#Cls").
    pub num_classes: usize,
    /// Aggregation order of the architecture (Section 4.2).
    pub agg_order: AggOrder,
}

impl InputInfo {
    /// The dimensionality at which the *aggregation* kernel runs: GCN
    /// aggregates after dimension reduction, GIN before.
    pub fn aggregation_dim(&self) -> usize {
        match self.agg_order {
            AggOrder::UpdateThenAggregate => self.hidden_dim,
            AggOrder::AggregateThenUpdate => self.feat_dim,
        }
    }

    /// The `alpha` of Eq. 2, scaled within the paper's stated 0.15–0.3
    /// range by degree skew: `alpha = 0.15 + 0.15 * min(1, cv)` where `cv`
    /// is the coefficient of variation of node degree ("the larger
    /// stddev_degree is, the higher the value of alpha becomes").
    pub fn alpha(&self) -> f64 {
        let cv = if self.avg_degree > 0.0 {
            self.degree_stddev / self.avg_degree
        } else {
            0.0
        };
        0.15 + 0.15 * cv.min(1.0)
    }
}

/// Extracts input information from a graph plus architecture facts.
pub fn extract(
    graph: &Csr,
    feat_dim: usize,
    hidden_dim: usize,
    num_classes: usize,
    agg_order: AggOrder,
) -> InputInfo {
    let stats = DegreeStats::of(graph);
    InputInfo {
        num_nodes: graph.num_nodes(),
        num_edges: graph.num_edges(),
        avg_degree: stats.mean,
        degree_stddev: stats.stddev,
        max_degree: stats.max,
        feat_dim,
        hidden_dim,
        num_classes,
        agg_order,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnnadvisor_graph::GraphBuilder;

    fn star() -> Csr {
        GraphBuilder::new(9)
            .star(0, &[1, 2, 3, 4, 5, 6, 7, 8])
            .build()
            .expect("valid")
    }

    #[test]
    fn extracts_basic_stats() {
        let info = extract(&star(), 128, 16, 7, AggOrder::UpdateThenAggregate);
        assert_eq!(info.num_nodes, 9);
        assert_eq!(info.num_edges, 16);
        assert_eq!(info.max_degree, 8);
        assert!(info.degree_stddev > 1.0);
    }

    #[test]
    fn aggregation_dim_follows_order() {
        let gcn = extract(&star(), 128, 16, 7, AggOrder::UpdateThenAggregate);
        assert_eq!(gcn.aggregation_dim(), 16, "GCN aggregates at hidden dim");
        let gin = extract(&star(), 128, 64, 7, AggOrder::AggregateThenUpdate);
        assert_eq!(
            gin.aggregation_dim(),
            128,
            "GIN aggregates at full input dim"
        );
    }

    #[test]
    fn alpha_in_paper_range_and_monotone() {
        let skewed = extract(&star(), 8, 8, 2, AggOrder::UpdateThenAggregate);
        let regular_graph = GraphBuilder::new(4)
            .clique(&[0, 1, 2, 3])
            .build()
            .expect("valid");
        let regular = extract(&regular_graph, 8, 8, 2, AggOrder::UpdateThenAggregate);
        for a in [skewed.alpha(), regular.alpha()] {
            assert!(
                (0.15..=0.3).contains(&a),
                "alpha {a} outside the paper's band"
            );
        }
        assert!(
            skewed.alpha() > regular.alpha(),
            "higher stddev must raise alpha"
        );
        assert!(
            (regular.alpha() - 0.15).abs() < 1e-12,
            "zero stddev pins alpha at 0.15"
        );
    }
}
