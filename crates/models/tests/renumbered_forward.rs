//! The GNNAdvisor GCN forward runs its numerics in the advisor's
//! renumbered row order; this oracle holds it to the original-order
//! numerics bit for bit.
//!
//! The graph is symmetric but its rows are unsorted, and it carries a
//! duplicate edge, a self-loop and an isolated node; the features carry
//! NaN, ±inf and -0.0. A renumbered CSR whose rows were sorted would sum
//! each row's neighbours in another order and round differently, so the
//! oracle also catches a forward that aggregates over the advisor's own
//! (sorted) graph. Every GEMM and aggregation of the forward is at least
//! four times the per-worker work threshold, so at 2 and 4 workers every
//! worker computes a share of the rows; a test asserts that.

use gnnadvisor_core::compute::{aggregate_reference, Aggregation};
use gnnadvisor_core::input::AggOrder;
use gnnadvisor_core::runtime::{Advisor, AdvisorConfig};
use gnnadvisor_core::Framework;
use gnnadvisor_gpu::{Engine, GpuSpec};
use gnnadvisor_graph::{Csr, NodeId};
use gnnadvisor_models::{Gcn, ModelExec};
use gnnadvisor_tensor::ops::relu_inplace;
use gnnadvisor_tensor::par::MIN_WORK_PER_WORKER;
use gnnadvisor_tensor::{Linear, Matrix};

const NODES: usize = 6_000;
/// Random undirected pairs drawn per node.
const PAIRS_PER_NODE: usize = 7;
const FEAT_DIM: usize = 16;
const HIDDEN: usize = 16;
const CLASSES: usize = 12;
const SEED: u64 = 7;
/// The node no edge touches.
const ISOLATED: usize = NODES - 1;
/// The node with a self-loop.
const LOOPED: usize = 10;
/// The endpoints of the duplicated edge.
const DUPLICATE: (usize, usize) = (20, 21);

/// A fixed LCG.
struct Lcg(u64);

impl Lcg {
    fn below(&mut self, m: usize) -> usize {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (self.0 >> 33) as usize % m
    }
}

/// A symmetric graph, each row in insertion order (unsorted).
fn graph() -> Csr {
    let mut rng = Lcg(0x9e37_79b9_7f4a_7c15);
    let mut adj = vec![Vec::<NodeId>::new(); NODES];
    let mut link = |u: usize, v: usize| {
        adj[u].push(v as NodeId);
        if u != v {
            adj[v].push(u as NodeId);
        }
    };
    for v in 0..ISOLATED {
        for _ in 0..PAIRS_PER_NODE {
            let u = rng.below(ISOLATED);
            if u != v {
                link(v, u);
            }
        }
    }
    link(DUPLICATE.0, DUPLICATE.1);
    link(DUPLICATE.0, DUPLICATE.1);
    link(LOOPED, LOOPED);
    let mut row_ptr = vec![0];
    let mut col_idx = Vec::new();
    for row in adj {
        col_idx.extend(row);
        row_ptr.push(col_idx.len());
    }
    Csr::from_raw(NODES, row_ptr, col_idx).expect("valid")
}

/// Features of varied magnitude and sign: -0.0 at scattered elements,
/// and NaN, +inf and -inf in a few rows each (one of them the isolated
/// node), so most output rows stay finite.
fn features() -> Matrix {
    Matrix::from_fn(NODES, FEAT_DIM, |r, c| match (r, c) {
        (ISOLATED, 0) | (1_234, 3) => f32::NAN,
        (77, 5) | (4_321, 0) => f32::INFINITY,
        (999, 9) | (3_003, 15) => f32::NEG_INFINITY,
        _ if (r * 13 + c * 7) % 17 == 0 => -0.0,
        _ => ((r * 31 + c * 17) % 101) as f32 * 0.0173 - 0.87 + (r % 7) as f32 * 1e-4,
    })
}

/// The original-order numerics of `Gcn::new(FEAT_DIM, HIDDEN, CLASSES, 2,
/// SEED)`: each layer's GEMM, then its aggregation over `g`, then the
/// hidden layer's ReLU.
fn oracle(g: &Csr, x: &Matrix) -> Matrix {
    let layers = [
        Linear::new(FEAT_DIM, HIDDEN, SEED),
        Linear::new(HIDDEN, CLASSES, SEED + 1),
    ];
    let mut h = x.clone();
    for (l, layer) in layers.iter().enumerate() {
        h = layer.forward(&h, 1).expect("shapes match");
        h = aggregate_reference(g, &h, Aggregation::GcnNorm, 1);
        if l == 0 {
            relu_inplace(&mut h);
        }
    }
    h
}

/// Bit-for-bit equality, except that any NaN matches any NaN.
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

fn engine(workers: usize) -> Engine {
    Engine::builder(GpuSpec::quadro_p6000())
        .sim_threads(workers)
        .build()
        .expect("valid worker count")
}

#[test]
fn graph_and_features_carry_every_edge_case() {
    let g = graph();
    assert!(g.is_symmetric(), "symmetric");
    assert!(!g.is_sorted(), "rows are unsorted");
    assert!(g.neighbors(ISOLATED as NodeId).is_empty(), "isolated node");
    assert!(g.neighbors(LOOPED as NodeId).contains(&(LOOPED as NodeId)));
    let (a, b) = DUPLICATE;
    let twice = g
        .neighbors(a as NodeId)
        .iter()
        .filter(|&&u| u == b as NodeId);
    assert!(twice.count() >= 2, "duplicate edge");
    let x = features();
    let has = |p: fn(f32) -> bool| x.as_slice().iter().any(|&v| p(v));
    assert!(has(f32::is_nan) && has(|v| v == f32::INFINITY) && has(|v| v == f32::NEG_INFINITY));
    assert!(has(|v| v == 0.0 && v.is_sign_negative()), "-0.0");
    let out = oracle(&g, &x);
    let finite = out.as_slice().iter().filter(|v| v.is_finite()).count();
    assert!(finite * 4 > out.as_slice().len() * 3, "most outputs finite");
}

#[test]
fn inputs_put_every_worker_to_work() {
    let g = graph();
    let (n, e) = (g.num_nodes(), g.num_edges());
    let calls = [
        ("gemm 0", n * FEAT_DIM * HIDDEN),
        ("gemm 1", n * HIDDEN * CLASSES),
        ("aggregate 0", (e + n) * HIDDEN),
        ("aggregate 1", (e + n) * CLASSES),
    ];
    for (what, work) in calls {
        assert!(
            work >= 4 * MIN_WORK_PER_WORKER,
            "{what}: {work} multiply-adds is below 4x the per-worker threshold"
        );
    }
}

#[test]
fn renumbered_gcn_forward_is_bitwise_the_original_order() {
    let g = graph();
    let x = features();
    let want = oracle(&g, &x);
    let model = Gcn::new(FEAT_DIM, HIDDEN, CLASSES, 2, SEED);
    for workers in [1, 2, 4] {
        let e = engine(workers);
        let advisor = Advisor::new(
            &g,
            FEAT_DIM,
            HIDDEN,
            CLASSES,
            AggOrder::UpdateThenAggregate,
            AdvisorConfig {
                renumber: Some(true),
                engine: Some(e.clone()),
                ..Default::default()
            },
        )
        .expect("builds");
        let perm = advisor.permutation().expect("renumbers");
        assert!(!perm.is_identity(), "the advisor moves rows");
        for (fw, adv) in [
            (Framework::GnnAdvisor, Some(&advisor)),
            (Framework::Dgl, None),
        ] {
            let exec = ModelExec::new(&e, &g, fw, adv);
            // Twice: the advisor built its renumbered graph at set-up,
            // and a second forward on the same exec gives the same bits.
            for pass in 0..2 {
                let got = model.forward(&exec, &x).expect("forwards").output;
                let what = format!("{} at {workers} workers, pass {pass}", fw.name());
                assert_same_bits(&got, &want, &what);
            }
        }
    }
}
