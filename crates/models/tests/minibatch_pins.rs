//! Byte-identity pins for mini-batch training.
//!
//! `train_minibatch` prices every batch's device work on two stream
//! timelines and trains the batch for real; `GcnTrainer::step_block`
//! prices one block step and trains it. These tests pin FNV-1a hashes of
//! the bits of every [`EpochStats`] field (losses, accuracies and every
//! simulated millisecond) on two seeded community graphs, one per
//! sampling strategy, and of one block step's loss, accuracy and
//! [`RunMetrics`]. The full-batch `GcnTrainer::step` and `Gcn::forward`
//! share the dense-gradient helpers, so they are pinned too. Each pin is
//! checked at 1 and 4 simulation workers: any change to the numerics or
//! the pricing of the training path that moves one bit fails here.

use gnnadvisor_core::minibatch::HostCostModel;
use gnnadvisor_core::Framework;
use gnnadvisor_gpu::{Engine, GpuSpec, KernelMetrics, PhaseBreakdown, RunMetrics};
use gnnadvisor_graph::generators::{community_graph, CommunityParams};
use gnnadvisor_graph::sample::{sample_epoch, SampleConfig, SampleStrategy};
use gnnadvisor_graph::Csr;
use gnnadvisor_models::{train_minibatch, EpochStats, Gcn, GcnTrainer, MiniBatchConfig, ModelExec};
use gnnadvisor_tensor::Matrix;

/// Simulation worker counts every pin is checked at.
const THREADS: [usize; 2] = [1, 4];

/// Input feature width: not a multiple of the GEMM block edge.
const FEAT_DIM: usize = 24;

/// Output classes.
const CLASSES: usize = 5;

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

    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    fn matrix(&mut self, m: &Matrix) {
        self.u64(m.rows() as u64);
        self.u64(m.cols() as u64);
        for v in m.as_slice() {
            self.bytes(&v.to_bits().to_le_bytes());
        }
    }
}

/// Folds every field of `e` into `h`; the exhaustive destructuring makes
/// a new `EpochStats` field a compile error here until it is pinned.
fn hash_epoch(h: &mut Fnv, e: &EpochStats) {
    let EpochStats {
        epoch,
        loss,
        accuracy,
        num_batches,
        host_ms,
        device_ms,
        pipelined_ms,
        serialized_ms,
        overlap_ms,
    } = e;
    h.u64(*epoch as u64);
    h.u64(*num_batches as u64);
    for v in [
        loss,
        accuracy,
        host_ms,
        device_ms,
        pipelined_ms,
        serialized_ms,
        overlap_ms,
    ] {
        h.f64(*v);
    }
}

fn hash_phases(h: &mut Fnv, p: &PhaseBreakdown) {
    let PhaseBreakdown {
        compute_cycles,
        dram_cycles,
        atomic_cycles,
        launch_cycles,
    } = p;
    for v in [compute_cycles, dram_cycles, atomic_cycles, launch_cycles] {
        h.u64(*v);
    }
}

fn hash_kernel(h: &mut Fnv, m: &KernelMetrics) {
    let KernelMetrics {
        name,
        elapsed_cycles,
        time_ms,
        dram_read_bytes,
        dram_write_bytes,
        l2_hits,
        l2_misses,
        atomic_ops,
        atomic_serialization_cycles,
        shared_bytes,
        useful_cycles,
        num_blocks,
        sm_efficiency,
        achieved_occupancy,
        limiter,
        phases,
    } = m;
    h.str(name);
    for v in [
        elapsed_cycles,
        dram_read_bytes,
        dram_write_bytes,
        l2_hits,
        l2_misses,
        atomic_ops,
        atomic_serialization_cycles,
        shared_bytes,
        useful_cycles,
        num_blocks,
    ] {
        h.u64(*v);
    }
    h.f64(*time_ms);
    h.f64(*sm_efficiency);
    h.f64(*achieved_occupancy);
    h.str(limiter.label());
    hash_phases(h, phases);
}

fn hash_run(h: &mut Fnv, r: &RunMetrics) {
    let RunMetrics {
        compute_ms,
        transfer_ms,
        kernels,
        transfer_bytes,
        phases,
    } = r;
    h.f64(*compute_ms);
    h.f64(*transfer_ms);
    h.u64(kernels.len() as u64);
    for k in kernels {
        hash_kernel(h, k);
    }
    h.u64(*transfer_bytes);
    hash_phases(h, phases);
}

fn engine(threads: usize) -> Engine {
    Engine::builder(GpuSpec::quadro_p6000())
        .sim_threads(threads)
        .build()
        .expect("valid worker count")
}

/// A seeded node-classification task: community graph `which`, labels
/// from the planted communities, noisy one-hot features with some exact
/// zeros (the GEMMs' skip path).
fn task(which: usize) -> (Csr, Matrix, Vec<usize>) {
    let params = match which {
        0 => CommunityParams {
            num_nodes: 700,
            num_edges: 7_000,
            mean_community: 40,
            community_size_cv: 0.5,
            inter_fraction: 0.08,
            shuffle_ids: true,
        },
        _ => CommunityParams {
            num_nodes: 500,
            num_edges: 9_000,
            mean_community: 60,
            community_size_cv: 0.2,
            inter_fraction: 0.05,
            shuffle_ids: true,
        },
    };
    let (g, comm) = community_graph(&params, 23 + which as u64).expect("valid params");
    let labels: Vec<usize> = comm.iter().map(|&c| c as usize % CLASSES).collect();
    let features = Matrix::from_fn(g.num_nodes(), FEAT_DIM, |v, d| {
        let noise = ((v * 37 + d * 11) % 17) as f32 / 34.0;
        if d == labels[v] % FEAT_DIM {
            1.0 + noise
        } else if (v + d) % 5 == 0 {
            0.0
        } else {
            noise
        }
    });
    (g, features, labels)
}

fn config(strategy: SampleStrategy) -> MiniBatchConfig {
    MiniBatchConfig {
        dims: vec![FEAT_DIM, 16, CLASSES],
        lr: 0.3,
        epochs: 2,
        sample: SampleConfig {
            batch_size: 80,
            fanouts: vec![8, 4],
            strategy,
            seed: 5,
        },
        host: HostCostModel::default(),
        seed: 9,
    }
}

fn minibatch_pin(which: usize, strategy: SampleStrategy, threads: usize) -> Vec<(String, u64)> {
    let (g, features, labels) = task(which);
    let report = train_minibatch(&engine(threads), &g, &features, &labels, &config(strategy))
        .expect("trains");
    let mut h = Fnv::new();
    h.u64(report.epochs.len() as u64);
    for e in &report.epochs {
        hash_epoch(&mut h, e);
    }
    vec![("minibatch".to_string(), h.0)]
}

/// Compares computed pins against the expected table at every worker
/// count, reporting every mismatch in paste-ready form.
fn check(compute: impl Fn(usize) -> Vec<(String, u64)>, expected: &[(&str, u64)]) {
    for threads in THREADS {
        let actual = compute(threads);
        let want: Vec<(String, u64)> = expected
            .iter()
            .map(|&(name, pin)| (name.to_string(), pin))
            .collect();
        assert!(
            actual == want,
            "training moved at {threads} sim threads; computed pins:\n{}",
            actual
                .iter()
                .map(|(name, pin)| format!("(\"{name}\", 0x{pin:016x}),"))
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}

#[test]
fn neighbor_fanout_minibatch_trains_byte_identically() {
    check(
        |t| minibatch_pin(0, SampleStrategy::NeighborFanout, t),
        &[("minibatch", 0x35e2a239047ff589)],
    );
}

#[test]
fn layer_wise_minibatch_trains_byte_identically() {
    check(
        |t| minibatch_pin(1, SampleStrategy::LayerWise { budget: 120 }, t),
        &[("minibatch", 0x029306d984beb228)],
    );
}

#[test]
fn block_step_prices_and_trains_byte_identically() {
    check(
        |t| {
            let (g, features, labels) = task(0);
            let e = engine(t);
            let cfg = config(SampleStrategy::NeighborFanout);
            let blocks = sample_epoch(&g, &cfg.sample, 0).expect("samples");
            let block = &blocks[0];
            let bf = Matrix::from_fn(block.nodes.len(), FEAT_DIM, |r, c| {
                features.get(block.nodes[r] as usize, c)
            });
            let bl: Vec<usize> = block.nodes[..block.num_seeds]
                .iter()
                .map(|&v| labels[v as usize])
                .collect();
            let mut trainer = GcnTrainer::new(&cfg.dims, cfg.lr, cfg.seed);
            let mut h = Fnv::new();
            // Two steps: the second sees the first's weight update.
            for _ in 0..2 {
                let step = trainer.step_block(&e, block, &bf, &bl).expect("steps");
                h.f64(step.loss);
                h.f64(step.accuracy);
                hash_run(&mut h, &step.metrics);
            }
            vec![("step_block".to_string(), h.0)]
        },
        &[("step_block", 0x53d2f0ddb8dc3f3c)],
    );
}

#[test]
fn full_batch_step_and_forward_are_byte_identical() {
    check(
        |t| {
            let (g, features, labels) = task(1);
            let e = engine(t);
            let exec = ModelExec::new(&e, &g, Framework::Dgl, None);
            let mut trainer = GcnTrainer::new(&[FEAT_DIM, 16, CLASSES], 0.3, 4);
            let mut h = Fnv::new();
            for _ in 0..3 {
                let step = trainer.step(&exec, &features, &labels).expect("steps");
                h.f64(step.loss);
                h.f64(step.accuracy);
                hash_run(&mut h, &step.metrics);
            }
            h.matrix(&trainer.predict(&exec, &features).expect("predicts"));
            let step_pin = h.0;

            let mut h = Fnv::new();
            for fw in [Framework::Dgl, Framework::Pyg] {
                let exec = ModelExec::new(&e, &g, fw, None);
                let r = Gcn::paper_default(FEAT_DIM, CLASSES, 3)
                    .forward(&exec, &features)
                    .expect("forwards");
                h.matrix(&r.output);
                hash_run(&mut h, &r.metrics);
            }
            vec![("step".to_string(), step_pin), ("forward".to_string(), h.0)]
        },
        &[
            ("step", 0x4f749b591f06d976),
            ("forward", 0xf135f324ab8d4396),
        ],
    );
}
