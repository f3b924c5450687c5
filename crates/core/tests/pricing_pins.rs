//! Byte-identity pins for kernel pricing.
//!
//! Every simulated number the system prints derives from the engine's
//! per-launch pricing: the L2 model, the sharded block loop, the atomic
//! hotspot maps and the serial merge. These tests pin FNV-1a hashes of
//! every [`KernelMetrics`] field — counters, phases, elapsed cycles and the
//! bits of every float — for each framework's aggregation on two seeded
//! community graphs, a GEMM, a transfer, a two-stream schedule and one
//! traced launch's chrome trace. Each pin is checked at 1 and 4 simulation
//! workers, so any change to the simulator that moves one counter, one
//! cycle or one trace byte fails here.

use gnnadvisor_core::frameworks::aggregate_with;
use gnnadvisor_core::kernels::node_centric::NodeCentricKernel;
use gnnadvisor_core::kernels::spmm_dgl::SpmmKernel;
use gnnadvisor_core::{Advisor, AdvisorConfig, AggOrder, Framework};
use gnnadvisor_gpu::{
    Engine, GpuSpec, KernelMetrics, OpClass, OpSpan, PhaseBreakdown, StreamReport, StreamSim,
    TraceRecorder, TransferMetrics, Workload, WorkloadMetrics,
};
use gnnadvisor_graph::generators::{community_graph, CommunityParams};
use gnnadvisor_graph::Csr;
use std::sync::Arc;

/// Simulation worker counts every pin is checked at.
const THREADS: [usize; 2] = [1, 4];

/// Aggregation width of every pinned launch.
const DIM: usize = 16;

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

/// Folds every field of `m` into `h`; the exhaustive destructuring makes
/// a new `KernelMetrics` field a compile error here until it is pinned.
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

fn hash_transfer(h: &mut Fnv, t: &TransferMetrics) {
    let TransferMetrics { bytes, time_ms } = t;
    h.u64(*bytes);
    h.f64(*time_ms);
}

fn hash_workload(h: &mut Fnv, m: &WorkloadMetrics) {
    match m {
        WorkloadMetrics::Kernel(k) => hash_kernel(h, k),
        WorkloadMetrics::Transfer(t) => hash_transfer(h, t),
    }
}

fn hash_report(h: &mut Fnv, r: &StreamReport) {
    let StreamReport {
        spans,
        makespan_cycles,
        makespan_ms,
        kernel_busy_cycles,
        copy_busy_cycles,
        max_coresident_kernels_per_sm,
        peak_resident_warps,
    } = r;
    for span in spans {
        let OpSpan {
            stream,
            index,
            name,
            class,
            start_cycles,
            end_cycles,
            occupancy,
            fault,
        } = span;
        h.u64(stream.index() as u64);
        h.u64(*index as u64);
        h.str(name);
        h.u64(match class {
            OpClass::Kernel => 0,
            OpClass::Copy => 1,
            OpClass::Event => 2,
        });
        h.u64(*start_cycles);
        h.u64(*end_cycles);
        h.f64(*occupancy);
        h.str(&format!("{fault:?}"));
    }
    h.u64(*makespan_cycles);
    h.f64(*makespan_ms);
    h.u64(*kernel_busy_cycles);
    h.u64(*copy_busy_cycles);
    h.u64(u64::from(*max_coresident_kernels_per_sm));
    h.u64(*peak_resident_warps);
}

fn engine(threads: usize) -> Engine {
    Engine::builder(GpuSpec::quadro_p6000())
        .sim_threads(threads)
        .build()
        .expect("valid worker count")
}

/// Two seeded community graphs: a skewed-community shuffled graph and a
/// denser, more regular one. Large enough that most launches split into
/// several shards (the node-centric launch and DGL's stacking kernel stay
/// on one).
fn graph(which: usize) -> Csr {
    let params = match which {
        0 => CommunityParams {
            num_nodes: 2_000,
            num_edges: 30_000,
            mean_community: 60,
            community_size_cv: 0.9,
            inter_fraction: 0.1,
            shuffle_ids: true,
        },
        _ => CommunityParams {
            num_nodes: 1_500,
            num_edges: 36_000,
            mean_community: 40,
            community_size_cv: 0.3,
            inter_fraction: 0.05,
            shuffle_ids: true,
        },
    };
    community_graph(&params, 11 + which as u64)
        .expect("valid generator params")
        .0
}

fn advisor(g: &Csr, engine: &Engine, use_shared: Option<bool>) -> Advisor {
    Advisor::new(
        g,
        96,
        DIM,
        10,
        AggOrder::UpdateThenAggregate,
        AdvisorConfig {
            use_shared,
            engine: Some(engine.clone()),
            ..AdvisorConfig::default()
        },
    )
    .expect("advisor builds")
}

const FRAMEWORKS: [Framework; 7] = [
    Framework::GnnAdvisor,
    Framework::Dgl,
    Framework::Pyg,
    Framework::Gunrock,
    Framework::Neugraph,
    Framework::NodeCentric,
    Framework::EdgeCentric,
];

/// One pin per framework (plus GNNAdvisor without shared staging) over
/// graph `which`, at `threads` simulation workers.
fn aggregation_pins(which: usize, threads: usize) -> Vec<(String, u64)> {
    let g = graph(which);
    let e = engine(threads);
    let staged = advisor(&g, &e, None);
    let mut pins = Vec::new();
    for fw in FRAMEWORKS {
        let run = aggregate_with(fw, &e, &g, DIM, Some(&staged)).expect("aggregation runs");
        let mut h = Fnv::new();
        for k in &run.kernels {
            hash_kernel(&mut h, k);
        }
        h.f64(run.compute_ms);
        h.f64(run.transfer_ms);
        h.u64(run.transfer_bytes);
        hash_phases(&mut h, &run.phases);
        pins.push((fw.name().to_string(), h.0));
    }
    let direct = advisor(&g, &e, Some(false));
    let mut h = Fnv::new();
    hash_kernel(&mut h, &direct.aggregate(DIM).expect("aggregation runs"));
    pins.push(("GNNAdvisor/no-shared".to_string(), h.0));
    pins
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
            "pricing moved at {threads} sim threads; computed pins:\n{}",
            actual
                .iter()
                .map(|(name, pin)| format!("(\"{name}\", 0x{pin:016x}),"))
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}

#[test]
fn skewed_graph_aggregations_price_byte_identically() {
    check(
        |t| aggregation_pins(0, t),
        &[
            ("GNNAdvisor", 0xd8d9efa31120c042),
            ("DGL", 0x387f25048430e003),
            ("PyG", 0x5826cac4409a65b4),
            ("GunRock", 0xc0568092e6b9b662),
            ("NeuGraph", 0xf2f8631834680db5),
            ("node-centric", 0xc9e346985b9bb899),
            ("edge-centric", 0xeeba6b58878ec0b8),
            ("GNNAdvisor/no-shared", 0xb2692f23ed9c73c0),
        ],
    );
}

#[test]
fn regular_graph_aggregations_price_byte_identically() {
    check(
        |t| aggregation_pins(1, t),
        &[
            ("GNNAdvisor", 0x23d3087876431854),
            ("DGL", 0x676ef4626410efdd),
            ("PyG", 0x592833b05e450747),
            ("GunRock", 0x369df27b63072204),
            ("NeuGraph", 0x1531d578fdda8a82),
            ("node-centric", 0x5979b993e28045e9),
            ("edge-centric", 0xf6346ff7f76d13dd),
            ("GNNAdvisor/no-shared", 0xa7de946ae0513d30),
        ],
    );
}

#[test]
fn gemm_and_transfer_price_byte_identically() {
    check(
        |t| {
            let e = engine(t);
            let mut ctx = e.lock_context();
            let mut pins = Vec::new();
            for (name, workload) in [
                (
                    "gemm",
                    Workload::Gemm {
                        m: 2_000,
                        n: 16,
                        k: 96,
                    },
                ),
                ("transfer", Workload::Transfer { bytes: 3 << 20 }),
            ] {
                let mut h = Fnv::new();
                hash_workload(&mut h, &e.submit(&mut ctx, workload).expect("prices"));
                pins.push((name.to_string(), h.0));
            }
            pins
        },
        &[
            ("gemm", 0xa1b6ec12b35563bd),
            ("transfer", 0xd116313209f45453),
        ],
    );
}

#[test]
fn two_stream_schedule_prices_byte_identically() {
    check(
        |t| {
            let g = graph(0);
            let e = engine(t);
            let spmm = SpmmKernel::new(&g, DIM);
            let node = NodeCentricKernel::new(&g, DIM, 256);
            let mut sim = StreamSim::new(&e);
            let (s0, s1) = (sim.stream(), sim.stream());
            let ready = sim.event();
            let mut h = Fnv::new();
            let mut enqueued = Vec::new();
            enqueued.push(sim.enqueue(s0, Workload::Transfer { bytes: 1 << 20 }));
            enqueued.push(sim.enqueue(s0, Workload::Kernel(&spmm)));
            sim.record_event(s0, ready).expect("records");
            enqueued.push(sim.enqueue(
                s1,
                Workload::Gemm {
                    m: 2_000,
                    n: 16,
                    k: 96,
                },
            ));
            sim.wait_event(s1, ready).expect("waits");
            enqueued.push(sim.enqueue(s1, Workload::Kernel(&node)));
            enqueued.push(sim.enqueue_at(s0, Workload::Kernel(&spmm), 50_000));
            for op in enqueued {
                let (_, metrics) = op.expect("enqueues");
                hash_workload(&mut h, &metrics);
            }
            hash_report(&mut h, &sim.run().expect("schedule runs"));
            vec![("streams".to_string(), h.0)]
        },
        &[("streams", 0x5ef43d27eecd8d83)],
    );
}

#[test]
fn traced_launch_writes_byte_identical_chrome_trace() {
    check(
        |t| {
            let g = graph(1);
            let tracer = Arc::new(TraceRecorder::new());
            let e = Engine::builder(GpuSpec::quadro_p6000())
                .sim_threads(t)
                .tracer(Arc::clone(&tracer))
                .build()
                .expect("valid worker count");
            let staged = advisor(&g, &e, None);
            tracer.clear();
            staged.aggregate(DIM).expect("aggregation runs");
            let mut h = Fnv::new();
            h.bytes(tracer.to_chrome_json().as_bytes());
            vec![("chrome-trace".to_string(), h.0)]
        },
        &[("chrome-trace", 0x11e169e457375c21)],
    );
}
