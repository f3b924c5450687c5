//! Numerical aggregation semantics.
//!
//! The kernels in [`crate::kernels`] are *cost emitters* for the simulated
//! GPU; this module computes the actual aggregation values, both as a
//! row-parallel reference and as a grouped execution that follows the
//! group partition + leader-node order exactly. Property tests assert the
//! two agree bit-for-bit modulo float associativity (we use the same
//! accumulation order per node, so they agree exactly).
//!
//! Like GNNAdvisor's workload partition, the reference treats each node's
//! output row as an independent unit: [`aggregate_reference`],
//! [`aggregate_weighted`] and [`aggregate_gcn_block`] split the output
//! into contiguous row chunks on `workers` threads
//! ([`gnnadvisor_tensor::par::for_each_row_chunk`]), and every row
//! accumulates its neighbours in CSR order, so results are bitwise equal
//! at any worker count.

use gnnadvisor_graph::{Csr, NodeId};
use gnnadvisor_tensor::par::for_each_row_chunk;
use gnnadvisor_tensor::Matrix;

use crate::workload::group::NeighborGroup;

/// Aggregation operator variants covering the paper's two GNN classes
/// (Section 4.2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Aggregation {
    /// Plain neighbor sum (GIN's aggregate; the self term is applied by the
    /// model layer as `(1 + eps) * h_v`).
    Sum,
    /// GCN symmetric normalization: each neighbor contribution is scaled by
    /// `1 / sqrt((deg(v) + 1) (deg(u) + 1))` and the self term by
    /// `1 / (deg(v) + 1)` (renormalization-trick self-loop).
    GcnNorm,
    /// Mean of neighbors (GraphSage's default aggregator).
    Mean,
}

/// Reference aggregation: `out[v] = op({ h_u : u in N(v) })`, over row
/// chunks of the output on up to `workers` threads. Each row sums its
/// neighbours in CSR order whatever chunk it lands in, so the result is
/// bitwise equal at any worker count.
///
/// # Panics
///
/// Panics if `features.rows() != graph.num_nodes()`.
pub fn aggregate_reference(
    graph: &Csr,
    features: &Matrix,
    op: Aggregation,
    workers: usize,
) -> Matrix {
    assert_eq!(
        features.rows(),
        graph.num_nodes(),
        "feature rows must match node count"
    );
    let mean = match op {
        Aggregation::GcnNorm => return gcn_rows(graph, features, workers, |v| graph.degree(v)),
        Aggregation::Sum => false,
        Aggregation::Mean => true,
    };
    per_row(graph, features.cols(), workers, |v, row_out| {
        for &u in graph.neighbors(v) {
            for (o, &x) in row_out.iter_mut().zip(features.row(u as usize)) {
                *o += x;
            }
        }
        let deg = graph.degree(v);
        if mean && deg > 0 {
            let inv = 1.0 / deg as f32;
            for o in row_out.iter_mut() {
                *o *= inv;
            }
        }
    })
}

/// Grouped aggregation: every group accumulates privately (one thread's
/// registers), then pushes into its node's row in group order (the
/// leader-node flush). Because groups of one node appear in CSR order and
/// are reduced in that order, the result is *identical* to
/// [`aggregate_reference`], which the property suite asserts.
pub fn aggregate_grouped(
    graph: &Csr,
    features: &Matrix,
    groups: &[NeighborGroup],
    op: Aggregation,
) -> Matrix {
    assert_eq!(
        features.rows(),
        graph.num_nodes(),
        "feature rows must match node count"
    );
    let d = features.cols();
    let col_idx = graph.col_idx();
    let mut out = Matrix::zeros(graph.num_nodes(), d);
    let mut acc = vec![0.0f32; d];
    for g in groups {
        acc.iter_mut().for_each(|a| *a = 0.0);
        for &u in &col_idx[g.start as usize..g.end as usize] {
            let w = edge_weight(graph, g.node, u, op);
            for (a, &x) in acc.iter_mut().zip(features.row(u as usize)) {
                *a += w * x;
            }
        }
        // Leader flush: atomic adds into the node row.
        for (o, &a) in out.row_mut(g.node as usize).iter_mut().zip(&acc) {
            *o += a;
        }
    }
    // Epilogues that need the full neighbor set.
    for v in 0..graph.num_nodes() {
        match op {
            Aggregation::GcnNorm => {
                let w = 1.0 / (graph.degree(v as NodeId) as f32 + 1.0);
                // Cannot hold two &mut rows; copy the self feature first.
                let self_row: Vec<f32> = features.row(v).to_vec();
                for (o, x) in out.row_mut(v).iter_mut().zip(self_row) {
                    *o += w * x;
                }
            }
            Aggregation::Mean => {
                let deg = graph.degree(v as NodeId);
                if deg > 0 {
                    let inv = 1.0 / deg as f32;
                    for o in out.row_mut(v).iter_mut() {
                        *o *= inv;
                    }
                }
            }
            Aggregation::Sum => {}
        }
    }
    out
}

/// Edge-weighted aggregation: `out[v] = sum_{e=(v,u)} w[e] * h_u`, with
/// `weights` indexed by CSR edge position — the numerical core of GAT's
/// attention-weighted neighbor sum.
///
/// # Panics
///
/// Panics if `weights.len() != graph.num_edges()` or the feature shape
/// mismatches.
pub fn aggregate_weighted(
    graph: &Csr,
    features: &Matrix,
    weights: &[f32],
    workers: usize,
) -> Matrix {
    assert_eq!(
        features.rows(),
        graph.num_nodes(),
        "feature rows must match node count"
    );
    assert_eq!(weights.len(), graph.num_edges(), "one weight per CSR edge");
    let row_ptr = graph.row_ptr();
    let col_idx = graph.col_idx();
    per_row(graph, features.cols(), workers, |v, row_out| {
        let v = v as usize;
        for e in row_ptr[v]..row_ptr[v + 1] {
            let u = col_idx[e] as usize;
            let w = weights[e];
            for (o, &x) in row_out.iter_mut().zip(features.row(u)) {
                *o += w * x;
            }
        }
    })
}

/// GCN-normalized aggregation over a sampled sub-block, with the
/// normalization degrees supplied explicitly:
///
/// `out[v] = Σ_{u ∈ N_graph(v)} x_u / sqrt((deg[v]+1)(deg[u]+1))
///           + x_v / (deg[v]+1)`
///
/// Sampled blocks are directed (node `v` keeps edge `v -> u` without `u`
/// necessarily keeping `u -> v`), so the renormalized adjacency `Â` is
/// asymmetric and its GCN weights must be recomputed from the *block's*
/// degrees, not the base graph's. Pass the block itself plus its row
/// degrees for the forward product `Â x`; pass the block's **transpose**
/// with the *same* forward degrees for the backward product `Âᵀ x` (the
/// weight formula is symmetric in `(v, u)`, so transposing the structure
/// while keeping the degrees yields exactly the transposed operator).
///
/// On an undirected graph with `degrees[v] == graph.degree(v)` this
/// reduces bit-for-bit to [`aggregate_reference`] with
/// [`Aggregation::GcnNorm`].
///
/// # Panics
///
/// Panics if `features.rows()` or `degrees.len()` mismatch the node
/// count.
pub fn aggregate_gcn_block(
    graph: &Csr,
    degrees: &[usize],
    features: &Matrix,
    workers: usize,
) -> Matrix {
    assert_eq!(
        features.rows(),
        graph.num_nodes(),
        "feature rows must match node count"
    );
    assert_eq!(
        degrees.len(),
        graph.num_nodes(),
        "one normalization degree per node"
    );
    gcn_rows(graph, features, workers, |v| degrees[v as usize])
}

/// Runs `row(v, out_v)` for every node over row chunks of a zeroed
/// `num_nodes x d` output on up to `workers` threads; a call's work is
/// `(edges + rows) · d` multiply-adds.
fn per_row(
    graph: &Csr,
    d: usize,
    workers: usize,
    row: impl Fn(NodeId, &mut [f32]) + Sync,
) -> Matrix {
    let n = graph.num_nodes();
    let mut out = Matrix::zeros(n, d);
    for_each_row_chunk(
        &mut out,
        workers,
        (graph.num_edges() + n) * d,
        |rows, chunk| {
            for (i, v) in rows.enumerate() {
                row(v as NodeId, &mut chunk[i * d..(i + 1) * d]);
            }
        },
    );
    out
}

/// GCN-normalized rows under the normalization degrees `degree(v)`: the
/// per-row terms (`dv`, the self weight) are computed once per row, the
/// neighbour weight `1 / sqrt(dv · du)` once per edge.
fn gcn_rows(
    graph: &Csr,
    features: &Matrix,
    workers: usize,
    degree: impl Fn(NodeId) -> usize + Sync,
) -> Matrix {
    per_row(graph, features.cols(), workers, |v, row_out| {
        let dv = degree(v) as f32 + 1.0;
        for &u in graph.neighbors(v) {
            let du = degree(u) as f32 + 1.0;
            let w = 1.0 / (dv * du).sqrt();
            for (o, &x) in row_out.iter_mut().zip(features.row(u as usize)) {
                *o += w * x;
            }
        }
        // Self-loop term of the renormalized adjacency (diagonal, so it
        // is its own transpose and appears identically in both passes).
        let w = 1.0 / dv;
        for (o, &x) in row_out.iter_mut().zip(features.row(v as usize)) {
            *o += w * x;
        }
    })
}

#[inline]
fn edge_weight(graph: &Csr, v: NodeId, u: NodeId, op: Aggregation) -> f32 {
    match op {
        Aggregation::Sum | Aggregation::Mean => 1.0,
        Aggregation::GcnNorm => {
            let dv = graph.degree(v) as f32 + 1.0;
            let du = graph.degree(u) as f32 + 1.0;
            1.0 / (dv * du).sqrt()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::group::partition_groups;
    use gnnadvisor_graph::generators::barabasi_albert;
    use gnnadvisor_graph::GraphBuilder;
    use gnnadvisor_tensor::init::random_features;
    use gnnadvisor_tensor::par::MIN_WORK_PER_WORKER;

    #[test]
    fn sum_on_path() {
        let g = GraphBuilder::new(3)
            .path(&[0, 1, 2])
            .build()
            .expect("valid");
        let f = Matrix::from_fn(3, 2, |r, _| r as f32 + 1.0);
        let out = aggregate_reference(&g, &f, Aggregation::Sum, 1);
        assert_eq!(out.row(0), &[2.0, 2.0], "node 0 sums node 1");
        assert_eq!(out.row(1), &[4.0, 4.0], "node 1 sums nodes 0 and 2");
    }

    #[test]
    fn mean_divides_by_degree() {
        let g = GraphBuilder::new(3)
            .star(0, &[1, 2])
            .build()
            .expect("valid");
        let f = Matrix::from_fn(3, 1, |r, _| r as f32);
        let out = aggregate_reference(&g, &f, Aggregation::Mean, 1);
        assert_eq!(out.get(0, 0), 1.5, "(1 + 2) / 2");
        assert_eq!(out.get(1, 0), 0.0, "only neighbor is node 0 with value 0");
    }

    #[test]
    fn gcn_norm_includes_self() {
        let g = GraphBuilder::new(2)
            .undirected_edge(0, 1)
            .build()
            .expect("valid");
        let f = Matrix::from_fn(2, 1, |r, _| (r + 1) as f32);
        let out = aggregate_reference(&g, &f, Aggregation::GcnNorm, 1);
        // deg+1 = 2 for both: neighbor weight 1/2, self weight 1/2.
        assert!((out.get(0, 0) - (0.5 * 2.0 + 0.5 * 1.0)).abs() < 1e-6);
    }

    #[test]
    fn grouped_equals_reference_all_ops() {
        let g = barabasi_albert(300, 4, 11).expect("valid");
        let f = random_features(300, 24, 5);
        for gs in [1, 3, 8, 64] {
            let groups = partition_groups(&g, gs).expect("valid");
            for op in [Aggregation::Sum, Aggregation::GcnNorm, Aggregation::Mean] {
                let a = aggregate_reference(&g, &f, op, 1);
                let b = aggregate_grouped(&g, &f, &groups, op);
                assert!(
                    a.max_abs_diff(&b) < 1e-4,
                    "grouped execution diverged for gs={gs}, op={op:?}"
                );
            }
        }
    }

    #[test]
    fn block_norm_reduces_to_reference_on_undirected_graphs() {
        let g = barabasi_albert(120, 3, 21).expect("valid");
        let f = random_features(120, 8, 2);
        let degrees: Vec<usize> = (0..120u32).map(|v| g.degree(v)).collect();
        let a = aggregate_reference(&g, &f, Aggregation::GcnNorm, 1);
        let b = aggregate_gcn_block(&g, &degrees, &f, 1);
        assert_eq!(a, b, "undirected full graph: block norm == GcnNorm");
    }

    #[test]
    fn block_norm_transpose_is_the_adjoint() {
        // <Â x, y> == <x, Âᵀ y> for the directed operator: the transpose
        // structure with forward degrees is exactly the adjoint — the
        // identity mini-batch backward relies on.
        let block = Csr::from_raw(4, vec![0, 2, 3, 3, 4], vec![1, 2, 2, 0]).expect("valid");
        let degrees: Vec<usize> = (0..4u32).map(|v| block.degree(v)).collect();
        let bt = block.transpose();
        let x = random_features(4, 3, 7);
        let y = random_features(4, 3, 8);
        let ax = aggregate_gcn_block(&block, &degrees, &x, 1);
        let aty = aggregate_gcn_block(&bt, &degrees, &y, 1);
        let dot = |a: &Matrix, b: &Matrix| -> f64 {
            a.as_slice()
                .iter()
                .zip(b.as_slice())
                .map(|(&p, &q)| p as f64 * q as f64)
                .sum()
        };
        assert!(
            (dot(&ax, &y) - dot(&x, &aty)).abs() < 1e-5,
            "adjoint identity violated"
        );
        // And the naive symmetric shortcut is genuinely wrong here.
        let forward_again = aggregate_gcn_block(&block, &degrees, &y, 1);
        assert!(forward_again != aty, "block is asymmetric, Â != Âᵀ");
    }

    #[test]
    fn every_worker_count_is_bitwise_one_worker() {
        // Big enough that five workers each get the per-worker minimum.
        let g = barabasi_albert(3_000, 10, 31).expect("valid");
        let d = 24;
        assert!((g.num_edges() + g.num_nodes()) * d >= 5 * MIN_WORK_PER_WORKER);
        // Exact zeros of both signs among values whose sums round
        // differently in another order.
        let f = Matrix::from_fn(g.num_nodes(), d, |r, c| match (r * 7 + c * 3) % 9 {
            0 => 0.0,
            1 => -0.0,
            v => (v as f32 - 4.5) * 0.1 + ((r * 31 + c * 17) % 23) as f32 * 1e-3,
        });
        let weights: Vec<f32> = (0..g.num_edges())
            .map(|e| match e % 7 {
                0 => -0.0,
                v => v as f32 * 0.13 - 0.4,
            })
            .collect();
        // Block-style degrees that differ from the graph's own.
        let degrees: Vec<usize> = (0..g.num_nodes() as NodeId)
            .map(|v| g.degree(v) + v as usize % 3)
            .collect();
        let run = |workers: usize| -> Vec<Matrix> {
            vec![
                aggregate_reference(&g, &f, Aggregation::Sum, workers),
                aggregate_reference(&g, &f, Aggregation::Mean, workers),
                aggregate_reference(&g, &f, Aggregation::GcnNorm, workers),
                aggregate_weighted(&g, &f, &weights, workers),
                aggregate_gcn_block(&g, &degrees, &f, workers),
            ]
        };
        let bits = |ms: &[Matrix]| -> Vec<Vec<u32>> {
            ms.iter()
                .map(|m| m.as_slice().iter().map(|x| x.to_bits()).collect())
                .collect()
        };
        let serial = bits(&run(1));
        for workers in 2..=5 {
            assert_eq!(bits(&run(workers)), serial, "{workers} workers");
        }
    }

    #[test]
    fn isolated_node_outputs_zero_for_sum() {
        let g = GraphBuilder::new(3)
            .undirected_edge(0, 1)
            .build()
            .expect("valid");
        let f = Matrix::from_fn(3, 2, |_, _| 7.0);
        let out = aggregate_reference(&g, &f, Aggregation::Sum, 1);
        assert_eq!(out.row(2), &[0.0, 0.0]);
        let out = aggregate_reference(&g, &f, Aggregation::Mean, 1);
        assert_eq!(out.row(2), &[0.0, 0.0], "mean of no neighbors stays zero");
    }
}
