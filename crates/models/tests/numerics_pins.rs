//! Byte-identity pins for the host numerics of every model.
//!
//! The dense updates (GEMMs) and host aggregations run over row chunks of
//! their output on the engine's worker count. These tests pin FNV-1a
//! hashes of the output bits of a GNNAdvisor and a DGL `Gcn::forward`, a
//! GIN, a GraphSage and a GAT forward, three full-batch
//! `GcnTrainer::step`s (loss, accuracy, weights) and two `step_block`s,
//! each at 1, 2 and 4 simulation workers. The inputs are sized so that
//! every GEMM and aggregation is at least four times the per-worker work
//! threshold, so all four workers take a share; a test asserts that.

use gnnadvisor_core::input::AggOrder;
use gnnadvisor_core::runtime::{Advisor, AdvisorConfig};
use gnnadvisor_core::Framework;
use gnnadvisor_gpu::{Engine, GpuSpec};
use gnnadvisor_graph::generators::{community_graph, CommunityParams};
use gnnadvisor_graph::sample::{sample_epoch, SampleConfig, SampleStrategy, SampledBlock};
use gnnadvisor_graph::Csr;
use gnnadvisor_models::{Gat, Gcn, GcnTrainer, Gin, GraphSage, ModelExec};
use gnnadvisor_tensor::par::MIN_WORK_PER_WORKER;
use gnnadvisor_tensor::Matrix;

/// Simulation worker counts every pin is checked at.
const THREADS: [usize; 3] = [1, 2, 4];

/// Input feature width: not a multiple of the GEMM block edge.
const FEAT_DIM: usize = 40;

/// Hidden width of every model.
const HIDDEN: usize = 32;

/// Output classes.
const CLASSES: usize = 16;

/// Layer widths of the trainers.
const DIMS: [usize; 3] = [FEAT_DIM, HIDDEN, CLASSES];

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn matrix(&mut self, m: &Matrix) {
        self.u64(m.rows() as u64);
        self.u64(m.cols() as u64);
        for v in m.as_slice() {
            self.bytes(&v.to_bits().to_le_bytes());
        }
    }
}

fn engine(threads: usize) -> Engine {
    Engine::builder(GpuSpec::quadro_p6000())
        .sim_threads(threads)
        .build()
        .expect("valid worker count")
}

/// A seeded community graph with one label per node and features that
/// mix exact zeros, negative zeros and values whose sums round
/// differently in another order.
fn task() -> (Csr, Matrix, Vec<usize>) {
    let params = CommunityParams {
        num_nodes: 2_600,
        num_edges: 88_000,
        mean_community: 50,
        community_size_cv: 0.4,
        inter_fraction: 0.06,
        shuffle_ids: true,
    };
    let (g, comm) = community_graph(&params, 41).expect("valid params");
    let labels: Vec<usize> = comm.iter().map(|&c| c as usize % CLASSES).collect();
    let features = Matrix::from_fn(g.num_nodes(), FEAT_DIM, |v, d| match (v * 7 + d * 3) % 11 {
        0 => 0.0,
        1 => -0.0,
        r if d == labels[v] % FEAT_DIM => 1.0 + r as f32 * 0.01,
        r => (r as f32 - 5.5) * 0.07 + ((v * 31 + d * 17) % 23) as f32 * 1e-3,
    });
    (g, features, labels)
}

/// The block every `step_block` pin trains on: the first batch of an
/// epoch whose seeds and fan-outs cover most of the graph.
fn block(g: &Csr) -> SampledBlock {
    let cfg = SampleConfig {
        batch_size: 2_000,
        fanouts: vec![40, 30],
        strategy: SampleStrategy::NeighborFanout,
        seed: 3,
    };
    sample_epoch(g, &cfg, 0).expect("samples").swap_remove(0)
}

fn gather(block: &SampledBlock, features: &Matrix, labels: &[usize]) -> (Matrix, Vec<usize>) {
    let bf = Matrix::from_fn(block.nodes.len(), FEAT_DIM, |r, c| {
        features.get(block.nodes[r] as usize, c)
    });
    let bl = block.nodes[..block.num_seeds]
        .iter()
        .map(|&v| labels[v as usize])
        .collect();
    (bf, bl)
}

/// Computes `pin` at every worker count and compares with `expected`,
/// reporting the computed value in paste-ready form.
fn check(name: &str, pin: impl Fn(&Engine) -> u64, expected: u64) {
    for threads in THREADS {
        let actual = pin(&engine(threads));
        assert!(
            actual == expected,
            "{name} moved at {threads} sim threads; computed pin: 0x{actual:016x}"
        );
    }
}

#[test]
fn inputs_put_every_worker_to_work() {
    let (g, _, _) = task();
    let (n, e) = (g.num_nodes(), g.num_edges());
    let b = block(&g);
    let (bn, be) = (b.block.num_nodes(), b.block.num_edges());
    // Multiply-adds of each GEMM (`rows·k·cols`) and aggregation
    // (`(edges + rows)·d`) the pinned calls run; the trainers' backward
    // GEMMs have the forward's shape, transposed.
    let gemm = |rows: usize, k: usize, cols: usize| rows * k * cols;
    let agg = |rows: usize, edges: usize, d: usize| (edges + rows) * d;
    let calls = [
        // GCN and the trainers: FEAT -> HIDDEN -> CLASSES.
        ("gemm 0", gemm(n, FEAT_DIM, HIDDEN)),
        ("gemm 1", gemm(n, HIDDEN, CLASSES)),
        ("aggregate 0", agg(n, e, HIDDEN)),
        ("aggregate 1", agg(n, e, CLASSES)),
        // GIN: aggregate at the input width, then FEAT -> HIDDEN -> HIDDEN
        // and HIDDEN -> HIDDEN -> CLASSES MLPs.
        ("gin aggregate 0", agg(n, e, FEAT_DIM)),
        ("gin gemm 0", gemm(n, FEAT_DIM, HIDDEN)),
        ("gin gemm 1", gemm(n, HIDDEN, CLASSES)),
        // GraphSage: `[self || mean]` doubles each GEMM's inner width.
        ("sage gemm 1", gemm(n, 2 * HIDDEN, CLASSES)),
        // Block steps.
        ("block gemm 0", gemm(bn, FEAT_DIM, HIDDEN)),
        ("block gemm 1", gemm(bn, HIDDEN, CLASSES)),
        ("block aggregate 1", agg(bn, be, CLASSES)),
    ];
    for (what, work) in calls {
        assert!(
            work >= 4 * MIN_WORK_PER_WORKER,
            "{what}: {work} multiply-adds is below 4x the per-worker threshold"
        );
    }
}

#[test]
fn gcn_forwards_are_byte_identical() {
    let (g, features, _) = task();
    check(
        "gcn forward",
        |e| {
            let advisor = Advisor::new(
                &g,
                FEAT_DIM,
                HIDDEN,
                CLASSES,
                AggOrder::UpdateThenAggregate,
                AdvisorConfig {
                    engine: Some(e.clone()),
                    ..Default::default()
                },
            )
            .expect("builds");
            let model = Gcn::new(FEAT_DIM, HIDDEN, CLASSES, 2, 5);
            let mut h = Fnv::new();
            for (fw, adv) in [
                (Framework::GnnAdvisor, Some(&advisor)),
                (Framework::Dgl, None),
            ] {
                let r = model
                    .forward(&ModelExec::new(e, &g, fw, adv), &features)
                    .expect("forwards");
                h.matrix(&r.output);
            }
            h.0
        },
        0x8b9c61865720e41d,
    );
}

#[test]
fn gin_sage_and_gat_forwards_are_byte_identical() {
    let (g, features, _) = task();
    check(
        "gin/sage/gat forward",
        |e| {
            let exec = ModelExec::new(e, &g, Framework::Dgl, None);
            let mut h = Fnv::new();
            let gin = Gin::new(FEAT_DIM, HIDDEN, CLASSES, 2, 0.25, 6);
            h.matrix(&gin.forward(&exec, &features).expect("gin").output);
            let sage = GraphSage::new(FEAT_DIM, HIDDEN, CLASSES, 2, 7);
            h.matrix(&sage.forward(&exec, &features).expect("sage").output);
            let gat = Gat::new(FEAT_DIM, HIDDEN, CLASSES, 2, 8);
            h.matrix(&gat.forward(&exec, &features).expect("gat").output);
            h.0
        },
        0x8386bbdbbc6caa1e,
    );
}

#[test]
fn full_batch_steps_are_byte_identical() {
    let (g, features, labels) = task();
    check(
        "full-batch step",
        |e| {
            let exec = ModelExec::new(e, &g, Framework::Dgl, None);
            let mut trainer = GcnTrainer::new(&DIMS, 0.3, 4);
            let mut h = Fnv::new();
            for _ in 0..3 {
                let step = trainer.step(&exec, &features, &labels).expect("steps");
                h.f64(step.loss);
                h.f64(step.accuracy);
                for w in trainer.weights() {
                    h.matrix(w);
                }
            }
            h.matrix(&trainer.predict(&exec, &features).expect("predicts"));
            h.0
        },
        0x714975144e5dab9f,
    );
}

#[test]
fn block_steps_are_byte_identical() {
    let (g, features, labels) = task();
    let b = block(&g);
    let (bf, bl) = gather(&b, &features, &labels);
    check(
        "step_block",
        |e| {
            let mut trainer = GcnTrainer::new(&DIMS, 0.3, 9);
            let mut h = Fnv::new();
            // Two steps: the second sees the first's weight update.
            for _ in 0..2 {
                let step = trainer.step_block(e, &b, &bf, &bl).expect("steps");
                h.f64(step.loss);
                h.f64(step.accuracy);
                for w in trainer.weights() {
                    h.matrix(w);
                }
            }
            h.0
        },
        0x5655a0495182b7e6,
    );
}
