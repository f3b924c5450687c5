//! `serve-cluster`: replicated GCN serving over a batched Type II graph.
//!
//! Two replicas of four streams behind the cost-aware router serve two
//! tenants (`online:1:<deadline>`, `batch:3`) under bursty MMPP arrivals
//! with injected faults and retries. The load is an open loop on the
//! simulated clock: every rung of a fixed offered-rate ladder is a
//! pre-generated arrival trace. One steady repetition replays the whole
//! ladder; one op is one simulated request.

use std::sync::Arc;
use std::time::Instant;

use gnnadvisor_core::cluster::{
    assign_tenants, plan_cluster_batches, simulate_cluster, ClusterConfig, ClusterReport,
    RouterPolicy, TenantSpec,
};
use gnnadvisor_core::serving::{
    generate_mmpp_arrivals, BatchExecutor, BatchPolicy, BatchWork, DeviceWork, DispatchedBatch,
    MmppConfig, QueuePolicy, Request, RetryPolicy,
};
use gnnadvisor_gpu::{Engine, FaultConfig, FaultPlan, GpuSpec, Workload};
use gnnadvisor_graph::generators::{batched_graph, BatchedParams};
use gnnadvisor_graph::Csr;
use gnnadvisor_models::GcnBatchExecutor;

use crate::fullgraph::{forward_pair, record_forward};
use crate::harness::{derive, err, median, Ctx, Fallible, Fingerprint, Rep, Size};
use crate::ladder;

const FEAT_DIM: usize = 96;
const HIDDEN: usize = 16;
const CLASSES: usize = 10;
const REPLICAS: usize = 2;
const STREAMS: usize = 4;
/// The online tenant's latency limit on the simulated clock.
const DEADLINE_MS: f64 = 5.0;
const FAULT_RATE: f64 = 0.02;
/// MMPP: the busy phase runs this many times faster than the mean rate,
/// the quiet phase as many times slower.
const BURST: f64 = 2.0;
const DWELL_MS: f64 = 0.2;
/// Offered rates of the ladder, requests per simulated second.
const LADDER: [f64; 5] = [200_000.0, 400_000.0, 500_000.0, 600_000.0, 800_000.0];
/// Index of the nominal rate in [`LADDER`].
const NOMINAL: usize = 0;

struct Shape {
    nodes: usize,
    /// Requests of the nominal rung, which the end-to-end metrics read.
    nominal_requests: usize,
    /// Requests of every other rung.
    requests: usize,
}

fn shape(size: Size) -> Shape {
    match size {
        Size::Full => Shape {
            nodes: 40_000,
            nominal_requests: 48_000,
            requests: 16_000,
        },
        Size::Tiny => Shape {
            nodes: 800,
            nominal_requests: 300,
            requests: 300,
        },
    }
}

fn tenants() -> Vec<TenantSpec> {
    vec![
        TenantSpec {
            name: "online".into(),
            weight: 1,
            deadline_ms: Some(DEADLINE_MS),
        },
        TenantSpec {
            name: "batch".into(),
            weight: 3,
            deadline_ms: None,
        },
    ]
}

fn config(seed: u64) -> ClusterConfig {
    ClusterConfig {
        replicas: REPLICAS,
        streams: STREAMS,
        queue: QueuePolicy { capacity: 256 },
        batch: BatchPolicy {
            max_batch: 32,
            max_delay_ms: 1.0,
        },
        retry: RetryPolicy {
            max_attempts: 3,
            // About 1% of batches retry twice, right at the online p99; a
            // short backoff keeps once- and twice-retried latencies close,
            // so that p99 does not jump between them from seed to seed.
            backoff_base_ms: 0.1,
            seed,
            ..RetryPolicy::default()
        },
        router: RouterPolicy::CostAware,
        autoscaler: None,
    }
}

/// Fresh replica engines: fault plans are consumed as ops run, so every
/// replay needs its own to repeat exactly.
fn engines(seed: u64, threads: usize) -> Fallible<Vec<Engine>> {
    (0..REPLICAS)
        .map(|r| {
            let plan = FaultPlan::new(FaultConfig::uniform(
                FAULT_RATE,
                derive(seed, 20 + r as u64),
            ))
            .map_err(err("fault plan"))?;
            Engine::builder(GpuSpec::quadro_p6000())
                .sim_threads(threads)
                .fault_plan(Arc::new(plan))
                .build()
                .map_err(err("engine"))
        })
        .collect()
}

/// One rung of the offered-rate ladder.
struct Rung {
    rate: f64,
    arrivals: Vec<Request>,
    tenant_of: Vec<usize>,
}

struct Prepared {
    graph: Csr,
    exec: GcnBatchExecutor,
    rungs: Vec<Rung>,
}

fn prepare(ctx: &mut Ctx) -> Fallible<Prepared> {
    let (seed, shape) = (ctx.seed, shape(ctx.size));
    let (generated, _) = ctx.timed("gen.graph", |_| {
        batched_graph(
            &BatchedParams {
                num_nodes: shape.nodes,
                num_edges: shape.nodes * 4,
                mean_graph_size: 40,
                graph_size_cv: 0.4,
            },
            derive(seed, 10),
        )
    });
    let (graph, components) = generated.map_err(err("batched_graph"))?;
    let exec = GcnBatchExecutor::new(&graph, &components, FEAT_DIM, HIDDEN, CLASSES);
    let tenants = tenants();
    let mut rungs = Vec::with_capacity(LADDER.len());
    for (i, &rate) in LADDER.iter().enumerate() {
        let mean = 1000.0 / rate;
        let arrivals = generate_mmpp_arrivals(&MmppConfig {
            num_requests: if i == NOMINAL {
                shape.nominal_requests
            } else {
                shape.requests
            },
            phase_interarrival_ms: vec![mean / BURST, mean * BURST],
            mean_dwell_ms: DWELL_MS,
            num_components: exec.num_components(),
            seed: derive(seed, 30 + i as u64),
        })
        .map_err(err("MMPP arrivals"))?;
        let tenant_of =
            assign_tenants(&arrivals, &tenants, derive(seed, 40)).map_err(err("assign_tenants"))?;
        rungs.push(Rung {
            rate,
            arrivals,
            tenant_of,
        });
    }
    Ok(Prepared { graph, exec, rungs })
}

/// Times every `plan` call of the wrapped executor.
struct TimedExec<'a, E: BatchExecutor> {
    inner: &'a mut E,
    calls: Vec<(Instant, Instant)>,
}

impl<E: BatchExecutor> BatchExecutor for TimedExec<'_, E> {
    fn plan(&mut self, batch: &DispatchedBatch) -> gnnadvisor_core::Result<BatchWork> {
        let start = Instant::now();
        let work = self.inner.plan(batch);
        self.calls.push((start, Instant::now()));
        work
    }
}

fn fingerprint(r: &ClusterReport) -> Fingerprint {
    let mut fp = vec![
        r.completed as u64,
        r.shed,
        r.failed as u64,
        r.deadline_missed as u64,
        r.retries,
        r.batches as u64,
        r.goodput_rps.to_bits(),
        r.makespan_ms.to_bits(),
    ];
    fp.extend(r.per_replica_batches.iter().map(|&b| b as u64));
    fp.extend(r.per_replica_occupancy.iter().map(|o| o.to_bits()));
    fp.extend(
        r.tenants
            .iter()
            .flat_map(|t| [t.p99_ms.to_bits(), t.completed as u64]),
    );
    fp
}

/// A rung's outcome on the capacity criterion, measured on the online
/// tenant.
fn outcome(r: &ClusterReport, rung: &Rung) -> ladder::Rung {
    let online = &r.tenants[0];
    let bad = online.shed as f64 + (online.failed + online.deadline_missed) as f64;
    let last_arrival = rung.arrivals.last().map_or(0.0, |a| a.arrival_ms);
    ladder::Rung {
        rate: rung.rate,
        p99_ms: online.p99_ms,
        bad_fraction: bad / online.arrivals.max(1) as f64,
        shed_fraction: r.shed as f64 / rung.arrivals.len() as f64,
        drain_ms: r.makespan_ms - last_arrival,
    }
}

/// Conservation per tenant and in total: every arrival is completed,
/// shed, failed or missed exactly once.
fn conserves(r: &ClusterReport, arrivals: usize) -> bool {
    let per_tenant = r.tenants.iter().all(|t| {
        t.completed as u64 + t.shed + t.failed as u64 + t.deadline_missed as u64
            == t.arrivals as u64
    });
    let total = r.completed as u64 + r.shed + r.failed as u64 + r.deadline_missed as u64;
    per_tenant && total == arrivals as u64
}

/// Replays every rung once; returns the reports in ladder order.
fn replay(ctx: &mut Ctx, p: &mut Prepared) -> Fallible<Vec<ClusterReport>> {
    let (seed, threads) = (ctx.seed, ctx.sim_threads);
    let cfg = config(derive(seed, 50));
    let tenants = tenants();
    let mut reports = Vec::with_capacity(p.rungs.len());
    for rung in &p.rungs {
        let engines = engines(seed, threads)?;
        let mut timed = TimedExec {
            inner: &mut p.exec,
            calls: Vec::new(),
        };
        let span = ctx.tracer.begin("serve.simulate");
        let report = simulate_cluster(
            &engines,
            &rung.arrivals,
            &rung.tenant_of,
            &tenants,
            &cfg,
            &mut timed,
        );
        for &(start, end) in &timed.calls {
            ctx.tracer.record("serve.plan", start, end);
        }
        ctx.tracer.end(span);
        let report = report.map_err(|e| format!("simulate_cluster at {} req/s: {e}", rung.rate))?;
        let ok = conserves(&report, rung.arrivals.len());
        ctx.check(ok, || format!("conservation broken at {} req/s", rung.rate));
        reports.push(report);
    }
    Ok(reports)
}

/// Tiny-size ladder fingerprint for the thread-count determinism check.
fn probe(seed: u64, threads: usize) -> Fallible<Fingerprint> {
    let mut ctx = Ctx::new(Size::Tiny, seed, 1.0, threads, false);
    let mut p = prepare(&mut ctx)?;
    let reports = replay(&mut ctx, &mut p)?;
    Ok(reports.iter().flat_map(fingerprint).collect())
}

pub fn run(ctx: &mut Ctx) -> Fallible<()> {
    let mut p = ctx.setup(prepare)?;
    let reports = ctx.steady(|ctx| {
        let reports = replay(ctx, &mut p)?;
        Ok(Rep {
            ops: p.rungs.iter().map(|r| r.arrivals.len() as u64).sum(),
            fingerprint: reports.iter().flat_map(fingerprint).collect(),
            data: reports,
        })
    })?;

    let nominal = &reports[NOMINAL];
    let online = &nominal.tenants[0];
    ctx.set("sim_p99_ms", online.p99_ms);
    ctx.set("sim_goodput_rps", nominal.goodput_rps);
    ctx.set("sim_epoch_ms", nominal.makespan_ms);
    let outcomes: Vec<ladder::Rung> = reports
        .iter()
        .zip(&p.rungs)
        .map(|(r, g)| outcome(r, g))
        .collect();
    ctx.set(
        "serve.capacity_rps",
        ladder::capacity(&outcomes, DEADLINE_MS),
    );
    for o in &outcomes {
        ctx.notes.push(format!(
            "rung {:>8.0} req/s: score {:.3}, online p99 {:.3} ms, bad {:.4}, drain {:.3} ms",
            o.rate,
            o.score(DEADLINE_MS),
            o.p99_ms,
            o.bad_fraction,
            o.drain_ms
        ));
    }

    let engine = crate::fullgraph::engine(ctx.sim_threads)?;
    let (ours, dgl) = forward_pair(&p.graph, FEAT_DIM, CLASSES, derive(ctx.seed, 60), &engine)?;
    record_forward(ctx, &ours, &dgl);

    let seed = ctx.seed;
    ctx.check_thread_invariance(|threads| probe(seed, threads));

    if ctx.tracer.enabled() {
        attribute(ctx, &mut p, nominal)?;
    }
    Ok(())
}

/// Per-layer metrics of the nominal rung: host time in `plan` and in the
/// serving loop itself (which includes `gpu::stream` until spans exist
/// inside the program), plus the simulated counters.
fn attribute(ctx: &mut Ctx, p: &mut Prepared, nominal: &ClusterReport) -> Fallible<()> {
    let gen = ctx.tracer.durations_ms("gen.graph");
    ctx.set_median("gen.graph_ms", &gen);
    // Spans of the nominal rung: every ladder replay visits the rungs in
    // order, so the nominal rung is every LADDER.len()-th simulate span.
    let nominal_spans =
        |v: Vec<f64>| -> Vec<f64> { v.into_iter().skip(NOMINAL).step_by(LADDER.len()).collect() };
    let loop_self = nominal_spans(ctx.tracer.self_ms("serve.simulate"));
    let totals = nominal_spans(ctx.tracer.durations_ms("serve.simulate"));
    let plan: Vec<f64> = totals.iter().zip(&loop_self).map(|(t, s)| t - s).collect();
    ctx.set_median("serve.loop_self_ms", &loop_self);
    ctx.set("serve.plan_ms", median(&plan));
    ctx.set("serve.batches", nominal.batches as f64);
    ctx.set(
        "serve.retry_ratio",
        nominal.retries as f64 / nominal.batches.max(1) as f64,
    );
    ctx.set(
        "serve.replica_submissions.r0",
        nominal.per_replica_batches[0] as f64,
    );
    ctx.set(
        "serve.replica_submissions.r1",
        nominal.per_replica_batches[1] as f64,
    );
    let occupancy = nominal.per_replica_occupancy.iter().sum::<f64>() / REPLICAS as f64;
    ctx.set("sim.kernel_occupancy", occupancy);

    // Service demand of the nominal rung's planned batches, each op
    // priced alone on a fault-free engine: SM-side and copy-engine cycles.
    let rung = &p.rungs[NOMINAL];
    let cfg = config(derive(ctx.seed, 50));
    let plan = plan_cluster_batches(
        &rung.arrivals,
        &rung.tenant_of,
        &tenants(),
        &cfg.queue,
        &cfg.batch,
    )
    .map_err(err("plan_cluster_batches"))?;
    let engine = crate::fullgraph::engine(ctx.sim_threads)?;
    let spec = engine.spec().clone();
    let (mut kernel_cycles, mut copy_cycles) = (0u64, 0u64);
    let mut context = engine.lock_context();
    for cb in &plan.batches {
        let work = p.exec.plan(&cb.batch).map_err(err("plan"))?;
        for op in &work.ops {
            let workload = match op {
                DeviceWork::Kernel(k) => Workload::Kernel(&**k),
                DeviceWork::Gemm { m, n, k } => Workload::Gemm {
                    m: *m,
                    n: *n,
                    k: *k,
                },
                DeviceWork::Transfer { bytes } => Workload::Transfer { bytes: *bytes },
            };
            let priced = engine
                .submit(&mut context, workload)
                .map_err(err("submit"))?;
            match priced.as_kernel() {
                Some(k) => kernel_cycles += k.elapsed_cycles,
                None => copy_cycles += spec.ms_to_cycles(priced.time_ms()),
            }
        }
    }
    ctx.set("sim.kernel_busy_cycles", kernel_cycles as f64);
    ctx.set("sim.copy_engine_cycles", copy_cycles as f64);
    Ok(())
}
