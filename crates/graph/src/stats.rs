//! Graph statistics consumed by the input extractor (Section 4.1).
//!
//! The analytical model (Section 7.1, Eq. 2) keys its `alpha` parameter on
//! the standard deviation of node degree, and the renumbering analysis
//! (Section 8.6.2) explains the `artist` outlier by the standard deviation
//! of community sizes — both statistics are computed here.

use crate::csr::{Csr, NodeId};

/// Summary statistics over node out-degrees.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegreeStats {
    /// Smallest out-degree.
    pub min: usize,
    /// Largest out-degree.
    pub max: usize,
    /// Mean out-degree (`E / N`).
    pub mean: f64,
    /// Population standard deviation of out-degree.
    pub stddev: f64,
}

impl DegreeStats {
    /// Computes degree statistics for a graph.
    pub fn of(graph: &Csr) -> Self {
        let n = graph.num_nodes();
        if n == 0 {
            return Self {
                min: 0,
                max: 0,
                mean: 0.0,
                stddev: 0.0,
            };
        }
        let mut min = usize::MAX;
        let mut max = 0usize;
        let mut sum = 0u64;
        for v in 0..n as NodeId {
            let d = graph.degree(v);
            min = min.min(d);
            max = max.max(d);
            sum += d as u64;
        }
        let mean = sum as f64 / n as f64;
        let var = (0..n as NodeId)
            .map(|v| {
                let d = graph.degree(v) as f64 - mean;
                d * d
            })
            .sum::<f64>()
            / n as f64;
        Self {
            min,
            max,
            mean,
            stddev: var.sqrt(),
        }
    }

    /// Coefficient of variation (`stddev / mean`), a scale-free measure of
    /// degree skew. Power-law graphs score well above 1.
    pub fn coefficient_of_variation(&self) -> f64 {
        if self.mean == 0.0 {
            0.0
        } else {
            self.stddev / self.mean
        }
    }
}

/// Summary statistics over the sizes of a node partition (communities).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PartitionStats {
    /// Number of parts (communities).
    pub count: usize,
    /// Mean part size.
    pub mean_size: f64,
    /// Population standard deviation of part sizes.
    pub stddev_size: f64,
    /// Largest part size.
    pub max_size: usize,
}

impl PartitionStats {
    /// Computes partition statistics from a per-node community assignment.
    ///
    /// Community ids need not be dense; empty ids are ignored.
    pub fn of(assignment: &[u32]) -> Self {
        if assignment.is_empty() {
            return Self {
                count: 0,
                mean_size: 0.0,
                stddev_size: 0.0,
                max_size: 0,
            };
        }
        let max_id = assignment.iter().max().copied().unwrap_or(0) as usize;
        let mut sizes = vec![0usize; max_id + 1];
        for &c in assignment {
            sizes[c as usize] += 1;
        }
        sizes.retain(|&s| s > 0);
        let count = sizes.len();
        let mean = assignment.len() as f64 / count as f64;
        let var = sizes
            .iter()
            .map(|&s| (s as f64 - mean).powi(2))
            .sum::<f64>()
            / count as f64;
        Self {
            count,
            mean_size: mean,
            stddev_size: var.sqrt(),
            max_size: sizes.into_iter().max().unwrap_or(0),
        }
    }
}

/// Fraction of a node's edges whose endpoint lies within `window` ids of the
/// node, averaged over edges. A cheap proxy for the spatial locality the
/// renumbering pass (Section 6.1) tries to maximize.
///
/// An edgeless graph (including the empty and single-node graphs) scores
/// `1.0` by convention — nothing is non-local — instead of dividing by a
/// zero edge count.
pub fn locality_score(graph: &Csr, window: usize) -> f64 {
    let e = graph.num_edges();
    if e == 0 {
        return 1.0;
    }
    let near = graph
        .edges()
        .filter(|&(v, u)| (v as i64 - u as i64).unsigned_abs() as usize <= window)
        .count();
    near as f64 / e as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    #[test]
    fn degree_stats_of_star() {
        let g = GraphBuilder::new(5)
            .star(0, &[1, 2, 3, 4])
            .build()
            .expect("valid");
        let s = DegreeStats::of(&g);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 4);
        assert!((s.mean - 8.0 / 5.0).abs() < 1e-12);
        assert!(s.stddev > 1.0, "star is highly skewed");
        assert!(s.coefficient_of_variation() > 0.5);
    }

    #[test]
    fn degree_stats_of_regular_graph() {
        let g = GraphBuilder::new(4)
            .clique(&[0, 1, 2, 3])
            .build()
            .expect("valid");
        let s = DegreeStats::of(&g);
        assert_eq!(s.min, 3);
        assert_eq!(s.max, 3);
        assert_eq!(s.stddev, 0.0);
    }

    /// Regression pins (ISSUE 8): degree/locality summaries of the empty
    /// and single-node graphs are exact zeros/ones — finite, deterministic,
    /// and never the product of a 0/0 division.
    #[test]
    fn empty_graph_stats() {
        let s = DegreeStats::of(&crate::Csr::empty(0));
        assert_eq!(
            s,
            DegreeStats {
                min: 0,
                max: 0,
                mean: 0.0,
                stddev: 0.0
            }
        );
        assert_eq!(s.coefficient_of_variation(), 0.0);
    }

    #[test]
    fn single_node_graph_stats_are_exact_zeros() {
        let g = crate::Csr::empty(1);
        let s = DegreeStats::of(&g);
        assert_eq!(
            s,
            DegreeStats {
                min: 0,
                max: 0,
                mean: 0.0,
                stddev: 0.0
            }
        );
        assert_eq!(s.coefficient_of_variation(), 0.0);
    }

    #[test]
    fn locality_score_of_edgeless_graphs_is_one() {
        for n in [0usize, 1, 5] {
            let g = crate::Csr::empty(n);
            for window in [0usize, 1, 1024] {
                let l = locality_score(&g, window);
                assert_eq!(l, 1.0, "edgeless n={n} window={window}");
            }
        }
    }

    #[test]
    fn partition_stats_of_empty_and_singleton_assignments() {
        let empty = PartitionStats::of(&[]);
        assert_eq!(
            empty,
            PartitionStats {
                count: 0,
                mean_size: 0.0,
                stddev_size: 0.0,
                max_size: 0
            }
        );
        let one = PartitionStats::of(&[0]);
        assert_eq!(one.count, 1);
        assert_eq!(one.mean_size, 1.0);
        assert_eq!(one.stddev_size, 0.0);
        assert_eq!(one.max_size, 1);
    }

    #[test]
    fn partition_stats_counts_nonempty() {
        let s = PartitionStats::of(&[0, 0, 2, 2, 2, 5]);
        assert_eq!(s.count, 3);
        assert_eq!(s.max_size, 3);
        assert!((s.mean_size - 2.0).abs() < 1e-12);
    }

    #[test]
    fn locality_score_of_path_is_one() {
        let g = GraphBuilder::new(4)
            .path(&[0, 1, 2, 3])
            .build()
            .expect("valid");
        assert_eq!(locality_score(&g, 1), 1.0);
        let shuffled = GraphBuilder::new(4)
            .path(&[0, 2, 1, 3])
            .build()
            .expect("valid");
        assert!(locality_score(&shuffled, 1) < 1.0);
    }
}
