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
//!
//! All three run through one row kernel, the host form of the paper's
//! dimension-based workload sharing: a row's partial sums stay in a local
//! fixed-width accumulator (registers, under optimization) while the
//! kernel sweeps the row's columns in strips, and each strip is written
//! to the output once. [`aggregate_gcn_relu`] folds the GCN's hidden-layer
//! ReLU into that one write, so the activation costs no second pass over
//! the output.
//!
//! The row kernel is one source compiled twice
//! ([`gnnadvisor_tensor::simd`]): for baseline x86-64 and for AVX2, where
//! a 16-wide strip is two 8-lane registers instead of four 4-lane ones.
//! A call picks its body once, on the calling thread, and every row chunk
//! runs it; each tail width's entry in the kernel table enters its body's
//! frame itself, so the whole kernel is compiled for that frame. The
//! bodies give the same bits, because each element's operations and their
//! order are fixed by the source; FMA stays disabled, since a fused
//! multiply-add rounds once where a weighted term rounds twice.

use std::ops::Range;

use gnnadvisor_graph::{Csr, NodeId};
use gnnadvisor_tensor::par::for_each_row_chunk;
use gnnadvisor_tensor::simd::{Body, Kernel};
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
    let table;
    let rule = match op {
        Aggregation::Sum => Rule::Sum { mean: false },
        Aggregation::Mean => Rule::Sum { mean: true },
        Aggregation::GcnNorm => {
            table = gcn_table(graph.num_nodes(), |v| graph.degree(v));
            Rule::Gcn {
                deg1: &table,
                relu: false,
            }
        }
    };
    aggregate_rows(graph, features, rule, workers)
}

/// [`aggregate_reference`] with [`Aggregation::GcnNorm`], then a ReLU, in
/// one pass: each strip's accumulator is clamped at zero just before its
/// one write. The clamp is `if a < 0.0 { a = 0.0 }`, the rule of
/// `gnnadvisor_tensor::ops::relu_inplace`, so NaN and `-0.0` pass
/// through and the output is bitwise that of the two calls in sequence.
///
/// # Panics
///
/// Panics if `features.rows() != graph.num_nodes()`.
pub fn aggregate_gcn_relu(graph: &Csr, features: &Matrix, workers: usize) -> Matrix {
    assert_eq!(
        features.rows(),
        graph.num_nodes(),
        "feature rows must match node count"
    );
    let table = gcn_table(graph.num_nodes(), |v| graph.degree(v));
    let rule = Rule::Gcn {
        deg1: &table,
        relu: true,
    };
    aggregate_rows(graph, features, rule, workers)
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
                for (o, &x) in out.row_mut(v).iter_mut().zip(features.row(v)) {
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
    aggregate_rows(graph, features, Rule::Weighted(weights), workers)
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
    let table = gcn_table(graph.num_nodes(), |v| degrees[v as usize]);
    let rule = Rule::Gcn {
        deg1: &table,
        relu: false,
    };
    aggregate_rows(graph, features, rule, workers)
}

/// Column-strip width of the row kernel. A `d`-wide output row is
/// computed as `d / STRIP` strips of `STRIP` columns plus one tail strip
/// of `d % STRIP` columns, each in one pass over the row's neighbours, so
/// every `d` up to `STRIP` takes a single pass.
const STRIP: usize = 32;

/// What every output row of one call adds up.
#[derive(Clone, Copy)]
enum Rule<'a> {
    /// `Σ x_u`; with `mean`, then times `1 / deg(v)` when `deg(v) > 0`.
    Sum { mean: bool },
    /// `Σ w[e] · x_u`, with the weights indexed by CSR edge position.
    Weighted(&'a [f32]),
    /// `Σ x_u / sqrt(dv · du) + x_v / dv`, with `dv = deg(v) + 1` read
    /// from the per-node table `deg1`; with `relu`, then clamped at zero.
    Gcn { deg1: &'a [f32], relu: bool },
}

/// The GCN table `deg(v) + 1` of every node under the normalization
/// degrees `degree(v)`, as `f32`.
fn gcn_table(n: usize, degree: impl Fn(NodeId) -> usize) -> Vec<f32> {
    (0..n as NodeId).map(|v| degree(v) as f32 + 1.0).collect()
}

/// A call's work for [`for_each_row_chunk`]: `(edges + rows) · d`
/// multiply-adds.
fn work(graph: &Csr, d: usize) -> usize {
    let work = (graph.num_edges() + graph.num_nodes()) * d;
    #[cfg(test)]
    let work = work.saturating_mul(tests::WORK_SCALE.with(std::cell::Cell::get));
    work
}

/// Computes `rule` for every row of a `num_nodes x d` output, over row
/// chunks on up to `workers` threads. Every row takes the row kernel
/// [`Rows`] for its tail width, whatever `d` is, in the body [`body`]
/// picks here, on the calling thread.
fn aggregate_rows(graph: &Csr, features: &Matrix, rule: Rule<'_>, workers: usize) -> Matrix {
    let d = features.cols();
    let mut out = Matrix::zeros(graph.num_nodes(), d);
    if d == 0 {
        return out;
    }
    let call = Call {
        graph,
        x: features.as_slice(),
        d,
        rule,
    };
    let (kernel, body) = (KERNELS[d % STRIP], body());
    for_each_row_chunk(&mut out, workers, work(graph, d), |rows, chunk| {
        kernel(body, &call, rows, chunk);
    });
    out
}

/// The body a call runs: [`Body::detect`], unless a test forces the
/// baseline on this thread.
fn body() -> Body {
    #[cfg(test)]
    if tests::BASELINE.with(std::cell::Cell::get) {
        return Body::baseline();
    }
    Body::detect()
}

/// One aggregation call's inputs.
struct Call<'a> {
    graph: &'a Csr,
    /// The row-major `num_nodes x d` features.
    x: &'a [f32],
    d: usize,
    rule: Rule<'a>,
}

/// The row kernel for one tail width, run in the given body.
type RowKernel = fn(Body, &Call<'_>, Range<usize>, &mut [f32]);

/// [`rows`] for every tail width `d % STRIP`. Each entry enters its
/// body's frame itself, so the frame holds the whole kernel for its
/// tail width.
const KERNELS: [RowKernel; STRIP] = [
    rows::<0>, rows::<1>, rows::<2>, rows::<3>, rows::<4>, rows::<5>, rows::<6>, rows::<7>,
    rows::<8>, rows::<9>, rows::<10>, rows::<11>, rows::<12>, rows::<13>, rows::<14>, rows::<15>,
    rows::<16>, rows::<17>, rows::<18>, rows::<19>, rows::<20>, rows::<21>, rows::<22>, rows::<23>,
    rows::<24>, rows::<25>, rows::<26>, rows::<27>, rows::<28>, rows::<29>, rows::<30>, rows::<31>,
];

/// Runs the row kernel [`Rows`] for tail width `TAIL` in `body`.
fn rows<const TAIL: usize>(body: Body, call: &Call<'_>, rows: Range<usize>, out: &mut [f32]) {
    body.run(Rows::<TAIL> { call, rows, out });
}

/// The row kernel: writes the output rows `rows` into `out` (those rows,
/// `d` columns each), where `d % STRIP == TAIL`. Each row is computed
/// strip by strip, each strip by [`Call::strip`].
struct Rows<'a, 'b, const TAIL: usize> {
    call: &'a Call<'a>,
    rows: Range<usize>,
    out: &'b mut [f32],
}

impl<const TAIL: usize> Kernel for Rows<'_, '_, TAIL> {
    type Output = ();

    #[inline(always)]
    fn compute(self) {
        let Rows { call, rows, out } = self;
        let full = call.d / STRIP * STRIP;
        for (v, out_row) in rows.zip(out.chunks_exact_mut(call.d)) {
            for c0 in (0..full).step_by(STRIP) {
                call.strip::<STRIP>(v, c0, &mut out_row[c0..]);
            }
            if TAIL > 0 {
                call.strip::<TAIL>(v, full, &mut out_row[full..]);
            }
        }
    }
}

impl Call<'_> {
    /// Columns `c0 .. c0 + W` of row `v`: accumulates in a local
    /// `[f32; W]` (registers, under optimization) and writes `out[..W]`
    /// once. Per element the order is fixed: the neighbours in CSR order,
    /// then the row's own term, each weighted term a multiply then an
    /// add.
    #[inline(always)]
    fn strip<const W: usize>(&self, v: usize, c0: usize, out: &mut [f32]) {
        let cols = |u: usize| -> &[f32; W] {
            self.x[u * self.d + c0..][..W]
                .try_into()
                .expect("a strip is W columns")
        };
        let row_ptr = self.graph.row_ptr();
        let edges = row_ptr[v]..row_ptr[v + 1];
        let neighbors = &self.graph.col_idx()[edges.clone()];
        let mut acc = [0.0f32; W];
        match self.rule {
            Rule::Sum { mean } => {
                for &u in neighbors {
                    for (a, &x) in acc.iter_mut().zip(cols(u as usize)) {
                        *a += x;
                    }
                }
                if mean && !neighbors.is_empty() {
                    let inv = 1.0 / neighbors.len() as f32;
                    for a in &mut acc {
                        *a *= inv;
                    }
                }
            }
            Rule::Weighted(weights) => {
                for (&u, &w) in neighbors.iter().zip(&weights[edges]) {
                    add_scaled(&mut acc, w, cols(u as usize));
                }
            }
            Rule::Gcn { deg1, relu } => {
                let dv = deg1[v];
                for &u in neighbors {
                    let w = 1.0 / (dv * deg1[u as usize]).sqrt();
                    add_scaled(&mut acc, w, cols(u as usize));
                }
                // Self-loop term of the renormalized adjacency (diagonal,
                // so it is its own transpose and appears identically in
                // both passes).
                add_scaled(&mut acc, 1.0 / dv, cols(v));
                if relu {
                    for a in &mut acc {
                        if *a < 0.0 {
                            *a = 0.0;
                        }
                    }
                }
            }
        }
        out[..W].copy_from_slice(&acc);
    }
}

/// `acc += w · x`, a multiply then an add per element.
#[inline(always)]
fn add_scaled<const W: usize>(acc: &mut [f32; W], w: f32, x: &[f32; W]) {
    for (a, &x) in acc.iter_mut().zip(x) {
        *a += w * x;
    }
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
    use gnnadvisor_tensor::ops::relu_inplace;
    use gnnadvisor_tensor::par::MIN_WORK_PER_WORKER;
    use std::cell::Cell;

    thread_local! {
        /// Factor on this thread's aggregation work, 1 unless a test
        /// raises it through [`split_every_row_chunk`].
        pub(super) static WORK_SCALE: Cell<usize> = const { Cell::new(1) };
    }

    thread_local! {
        /// Whether aggregations on this thread take the baseline body,
        /// false unless a test sets it through [`for_each_body`].
        pub(super) static BASELINE: Cell<bool> = const { Cell::new(false) };
    }

    /// Runs `f` once per body this CPU has, the detected one first, with
    /// every aggregation on this thread taking that body, and passes the
    /// body's name. The body is picked on the calling thread, so this
    /// covers the pool helpers the row chunks run on.
    fn for_each_body(mut f: impl FnMut(&str)) {
        let detected = Body::detect();
        f(detected.name());
        if detected != Body::baseline() {
            let previous = BASELINE.with(|b| b.replace(true));
            f(Body::baseline().name());
            BASELINE.with(|b| b.set(previous));
        }
    }

    /// Runs `f` with every aggregation's work scaled by
    /// [`MIN_WORK_PER_WORKER`] on this thread, which lowers the per-worker
    /// minimum to one multiply-add, so even tiny outputs split into one
    /// row chunk per worker.
    fn split_every_row_chunk<T>(f: impl FnOnce() -> T) -> T {
        let previous = WORK_SCALE.with(|s| s.replace(MIN_WORK_PER_WORKER));
        let out = f();
        WORK_SCALE.with(|s| s.set(previous));
        out
    }

    /// The oracle: a plain per-element triple loop (row, column, edge)
    /// that adds the neighbours in CSR order, each scaled by
    /// `weight(v, e, u)` (or not at all when `weight` is `None`), then
    /// the row's own term `own(v)` times `x_v` when it has one, then
    /// scales by `scale(v)` when it has one.
    fn oracle(
        graph: &Csr,
        x: &Matrix,
        weight: Option<&dyn Fn(usize, usize, usize) -> f32>,
        own: &dyn Fn(usize) -> Option<f32>,
        scale: &dyn Fn(usize) -> Option<f32>,
    ) -> Matrix {
        let (row_ptr, col_idx) = (graph.row_ptr(), graph.col_idx());
        let mut out = Matrix::zeros(graph.num_nodes(), x.cols());
        for v in 0..graph.num_nodes() {
            let edges = row_ptr[v]..row_ptr[v + 1];
            for c in 0..x.cols() {
                let mut acc = 0.0f32;
                for (e, &u) in edges.clone().zip(&col_idx[edges.clone()]) {
                    let u = u as usize;
                    acc += match weight {
                        Some(weight) => weight(v, e, u) * x.get(u, c),
                        None => x.get(u, c),
                    };
                }
                if let Some(w) = own(v) {
                    acc += w * x.get(v, c);
                }
                if let Some(s) = scale(v) {
                    acc *= s;
                }
                out.set(v, c, acc);
            }
        }
        out
    }

    /// Bit-for-bit equality, except that any NaN matches any NaN: Rust
    /// leaves a NaN result's sign and payload unspecified, so which NaN
    /// an operation returns may differ between two correct loops.
    fn assert_same_bits(got: &Matrix, want: &Matrix, what: &str) {
        assert_eq!(got.shape(), want.shape(), "{what}: shape");
        for (i, (&g, &w)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
            assert!(
                g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()),
                "{what}: element {i} is {g:?} ({:#x}), oracle {w:?} ({:#x})",
                g.to_bits(),
                w.to_bits()
            );
        }
    }

    /// Nodes of the oracle graph: at 2 and 4 workers the row chunks
    /// (multiples of 8 rows) give every worker one, the last one short.
    const ORACLE_NODES: usize = 90;

    /// A directed graph of `n` nodes with a hub (node 3, out-degree ~n/2
    /// and in-degree ~n/3), isolated nodes (5 and 40), and edges into the
    /// last node, from a fixed LCG.
    fn oracle_graph(n: usize) -> Csr {
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = |m: usize| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) as usize % m
        };
        let isolated = |v: usize| v == 5 || v == 40;
        let mut edges = vec![Vec::new(); n];
        for (v, list) in edges.iter_mut().enumerate() {
            if isolated(v) {
                continue;
            }
            let degree = if v == 3 { n / 2 } else { next(6) };
            for _ in 0..degree {
                let u = next(n);
                if !isolated(u) {
                    list.push(u as NodeId);
                }
            }
            if v % 3 == 0 && v != 3 {
                list.push(3);
            }
            if v % 4 == 1 {
                list.push((n - 1) as NodeId);
            }
        }
        let mut row_ptr = vec![0];
        let mut col_idx = Vec::new();
        for list in edges {
            col_idx.extend(list);
            row_ptr.push(col_idx.len());
        }
        Csr::from_raw(n, row_ptr, col_idx).expect("valid")
    }

    /// `n x d` features of varied magnitude and sign, with NaN, ±inf and
    /// -0.0 at scattered elements.
    fn oracle_features(n: usize, d: usize) -> Matrix {
        Matrix::from_fn(n, d, |r, c| match (r * 13 + c * 7) % 101 {
            0 => f32::NAN,
            1 => f32::INFINITY,
            2 => f32::NEG_INFINITY,
            3..=9 => -0.0,
            k => (k as f32 - 50.0) * 0.37 + ((r * 31 + c * 17) % 29) as f32 * 1e-3 * (r + 1) as f32,
        })
    }

    #[test]
    fn every_aggregation_is_bitwise_the_per_element_oracle() {
        let n = ORACLE_NODES;
        let g = oracle_graph(n);
        let gt = g.transpose();
        assert!(g.neighbors(5).is_empty() && g.neighbors(40).is_empty());
        assert!(g.neighbors(3).len() >= n / 3, "node 3 is a hub");
        assert!(gt.degree((n - 1) as NodeId) > 0, "edges into the last node");
        let weights: Vec<f32> = (0..g.num_edges())
            .map(|e| match e % 11 {
                0 => -0.0,
                1 => 0.0,
                k => k as f32 * 0.29 - 1.7,
            })
            .collect();
        // Block-style degrees that differ from the graph's own.
        let degrees: Vec<usize> = (0..n as NodeId)
            .map(|v| g.degree(v) + v as usize % 3)
            .collect();
        let gcn_own = |deg: &dyn Fn(usize) -> usize, v: usize| Some(1.0 / (deg(v) as f32 + 1.0));
        let gcn_edge = |deg: &dyn Fn(usize) -> usize, v: usize, u: usize| {
            let (dv, du) = (deg(v) as f32 + 1.0, deg(u) as f32 + 1.0);
            1.0 / (dv * du).sqrt()
        };
        let graph_deg = |v: usize| g.degree(v as NodeId);
        let block_deg = |v: usize| degrees[v];
        let none = |_: usize| None;
        for d in 1..=70 {
            let x = oracle_features(n, d);
            let gcn = oracle(
                &g,
                &x,
                Some(&|v, _, u| gcn_edge(&graph_deg, v, u)),
                &|v| gcn_own(&graph_deg, v),
                &none,
            );
            let mut gcn_relu = gcn.clone();
            relu_inplace(&mut gcn_relu);
            let cases = [
                ("sum", oracle(&g, &x, None, &none, &none)),
                (
                    "mean",
                    oracle(&g, &x, None, &none, &|v| {
                        let deg = g.degree(v as NodeId);
                        (deg > 0).then(|| 1.0 / deg as f32)
                    }),
                ),
                ("gcn", gcn),
                ("gcn relu", gcn_relu),
                (
                    "weighted",
                    oracle(&g, &x, Some(&|_, e, _| weights[e]), &none, &none),
                ),
                (
                    "block",
                    oracle(
                        &g,
                        &x,
                        Some(&|v, _, u| gcn_edge(&block_deg, v, u)),
                        &|v| gcn_own(&block_deg, v),
                        &none,
                    ),
                ),
                (
                    "block transposed",
                    oracle(
                        &gt,
                        &x,
                        Some(&|v, _, u| gcn_edge(&block_deg, v, u)),
                        &|v| gcn_own(&block_deg, v),
                        &none,
                    ),
                ),
            ];
            for_each_body(|body| {
                for workers in [1, 2, 4] {
                    let got = split_every_row_chunk(|| {
                        [
                            aggregate_reference(&g, &x, Aggregation::Sum, workers),
                            aggregate_reference(&g, &x, Aggregation::Mean, workers),
                            aggregate_reference(&g, &x, Aggregation::GcnNorm, workers),
                            aggregate_gcn_relu(&g, &x, workers),
                            aggregate_weighted(&g, &x, &weights, workers),
                            aggregate_gcn_block(&g, &degrees, &x, workers),
                            aggregate_gcn_block(&gt, &degrees, &x, workers),
                        ]
                    });
                    for ((what, want), got) in cases.iter().zip(&got) {
                        let at = format!("{what}, d={d}, {workers} workers, {body} body");
                        assert_same_bits(got, want, &at);
                    }
                }
            });
        }
    }

    #[test]
    fn lowered_threshold_gives_every_worker_a_chunk() {
        // The oracle test relies on its small outputs really splitting.
        let g = oracle_graph(ORACLE_NODES);
        for workers in [2, 4] {
            let chunks = std::sync::Mutex::new(0);
            let mut out = Matrix::zeros(ORACLE_NODES, 1);
            split_every_row_chunk(|| {
                for_each_row_chunk(&mut out, workers, work(&g, 1), |_, _| {
                    *chunks.lock().unwrap() += 1;
                })
            });
            assert_eq!(
                chunks.into_inner().unwrap(),
                workers,
                "one chunk per worker"
            );
        }
    }

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
                aggregate_gcn_relu(&g, &f, workers),
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
    fn both_bodies_give_identical_bits_on_a_four_worker_split() {
        // The forward's widths (16 and 12) and one with full strips and a
        // tail (45), each output split into 4 row chunks. The features are
        // finite (with signed zeros), so no NaN's unspecified bits show.
        let g = oracle_graph(ORACLE_NODES);
        let run = || -> Vec<Vec<u32>> {
            [16, 12, 45]
                .into_iter()
                .flat_map(|d| {
                    let x = Matrix::from_fn(ORACLE_NODES, d, |r, c| match (r * 13 + c * 7) % 17 {
                        0 => -0.0,
                        k => (k as f32 - 8.0) * 0.37 + (r * 31 + c * 17) as f32 * 1e-4,
                    });
                    split_every_row_chunk(|| {
                        [
                            aggregate_reference(&g, &x, Aggregation::GcnNorm, 4),
                            aggregate_gcn_relu(&g, &x, 4),
                        ]
                    })
                })
                .map(|m| m.as_slice().iter().map(|v| v.to_bits()).collect())
                .collect()
        };
        let mut outputs = Vec::new();
        for_each_body(|_| outputs.push(run()));
        assert!(outputs.windows(2).all(|w| w[0] == w[1]));
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
