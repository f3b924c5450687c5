//! `serve-dynamic`: serving GCN inference while the graph changes.
//!
//! A renumbered community graph serves Poisson requests on two replicas
//! while a seeded stream of edge and node updates is applied beside the
//! reads; the locality policy rebuilds (re-renumbers) the layout when the
//! kernels' L2 hit rate decays. One op is one simulated request or one
//! applied update.

use std::time::Instant;

use gnnadvisor_core::dynamic::{
    generate_updates, simulate_dynamic, DynamicConfig, DynamicReport, RenumberPolicy,
    SnapshotExecutor, UpdateStreamConfig,
};
use gnnadvisor_core::serving::{
    generate_arrivals, ArrivalConfig, BatchPolicy, BatchWork, DeviceWork, DispatchedBatch,
    QueuePolicy, Request, RetryPolicy, ServingConfig,
};
use gnnadvisor_core::RuntimeParams;
use gnnadvisor_gpu::Engine;
use gnnadvisor_graph::dynamic::{DeltaCsr, UpdateEvent, UpdateKind};
use gnnadvisor_graph::generators::{community_graph, CommunityParams};
use gnnadvisor_graph::reorder::{renumber, RenumberConfig};
use gnnadvisor_graph::Csr;
use gnnadvisor_models::DynamicGcnExecutor;

use crate::fullgraph::{attribute_renumber, forward_pair, record_forward};
use crate::harness::{derive, err, median, Ctx, Fallible, Fingerprint, Rep, Size};

const FEAT_DIM: usize = 96;
/// Hidden width 32 keeps the advisor aggregation SM-time-limited, where
/// layout locality is what the simulated clock measures.
const HIDDEN: usize = 32;
const CLASSES: usize = 10;
const REPLICAS: usize = 2;
const STREAMS: usize = 4;
const COMPACT_EVERY: usize = 512;
/// Request deadline on the simulated clock.
const DEADLINE_MS: f64 = 5.0;

struct Shape {
    nodes: usize,
    requests: usize,
    rate: f64,
    updates: usize,
}

fn shape(size: Size) -> Shape {
    match size {
        Size::Full => Shape {
            nodes: 10_000,
            requests: 2_000,
            rate: 40_000.0,
            updates: 30_000,
        },
        Size::Tiny => Shape {
            nodes: 600,
            requests: 200,
            rate: 40_000.0,
            updates: 1_500,
        },
    }
}

fn config(seed: u64) -> DynamicConfig {
    DynamicConfig {
        serving: ServingConfig {
            streams: STREAMS,
            queue: QueuePolicy { capacity: 256 },
            batch: BatchPolicy {
                max_batch: 32,
                max_delay_ms: 1.0,
            },
            retry: RetryPolicy {
                max_attempts: 3,
                seed,
                ..RetryPolicy::default()
            },
            deadline_ms: Some(DEADLINE_MS),
        },
        policy: Some(RenumberPolicy {
            window: 4,
            watermark: 0.99,
            cooldown_batches: 8,
            rebuild_cost_us_per_edge: 0.0005,
        }),
        compact_every: COMPACT_EVERY,
    }
}

struct Prepared {
    shuffled: Csr,
    base: Csr,
    updates: Vec<UpdateEvent>,
    arrivals: Vec<Request>,
}

fn prepare(ctx: &mut Ctx) -> Fallible<Prepared> {
    let (seed, shape) = (ctx.seed, shape(ctx.size));
    let (generated, _) = ctx.timed("gen.graph", |_| {
        community_graph(
            &CommunityParams {
                num_nodes: shape.nodes,
                num_edges: shape.nodes * 8,
                mean_community: 40,
                community_size_cv: 0.3,
                inter_fraction: 0.08,
                shuffle_ids: true,
            },
            derive(seed, 10),
        )
    });
    let shuffled = generated.map_err(err("community_graph"))?.0;
    let (renumbered, _) = ctx.timed("renumber", |_| {
        renumber(&shuffled, &RenumberConfig::default())
            .and_then(|r| shuffled.permute(&r.permutation))
    });
    let base = renumbered.map_err(err("renumber"))?;
    let updates = generate_updates(
        &base,
        &UpdateStreamConfig {
            num_updates: shape.updates,
            mean_interarrival_ms: shape.requests as f64 / shape.rate * 1e3 / shape.updates as f64,
            delete_fraction: 0.15,
            node_fraction: 0.25,
            attach_degree: 6,
            seed: derive(seed, 11),
        },
    )
    .map_err(err("generate_updates"))?;
    let arrivals = generate_arrivals(&ArrivalConfig {
        num_requests: shape.requests,
        mean_interarrival_ms: 1e3 / shape.rate,
        num_components: 1,
        seed: derive(seed, 12),
    })
    .map_err(err("arrivals"))?;
    Ok(Prepared {
        shuffled,
        base,
        updates,
        arrivals,
    })
}

/// Times every `plan` call of the wrapped executor and counts the thread
/// blocks of the kernels it plans.
struct TimedExec {
    inner: DynamicGcnExecutor,
    calls: Vec<(Instant, Instant)>,
    blocks: u64,
}

impl SnapshotExecutor for TimedExec {
    fn plan(
        &mut self,
        batch: &DispatchedBatch,
        graph: &Csr,
        version: u64,
    ) -> gnnadvisor_core::Result<BatchWork> {
        let start = Instant::now();
        let work = self.inner.plan(batch, graph, version);
        self.calls.push((start, Instant::now()));
        if let Ok(w) = &work {
            for op in &w.ops {
                if let DeviceWork::Kernel(k) = op {
                    self.blocks += k.grid().num_blocks as u64;
                }
            }
        }
        work
    }
}

fn fingerprint(r: &DynamicReport) -> Fingerprint {
    let s = &r.serving;
    let mut fp = vec![
        s.completed as u64,
        s.shed,
        s.failed as u64,
        s.deadline_missed as u64,
        s.batches as u64,
        s.p99_ms.to_bits(),
        s.goodput_rps.to_bits(),
        s.makespan_ms.to_bits(),
        s.kernel_busy_cycles,
        s.copy_busy_cycles,
        r.updates_applied as u64,
        r.final_version,
        r.compactions as u64,
        r.renumbers.len() as u64,
    ];
    fp.extend(r.trajectory.iter().map(|row| row.hit_rate.to_bits()));
    fp
}

/// One serving run; returns its report and the thread blocks its kernels
/// launch (first attempts).
fn simulate(ctx: &mut Ctx, p: &Prepared, threads: usize) -> Fallible<(DynamicReport, u64)> {
    let engines: Vec<Engine> = (0..REPLICAS)
        .map(|_| crate::fullgraph::engine(threads))
        .collect::<Fallible<_>>()?;
    let mut exec = TimedExec {
        inner: DynamicGcnExecutor::new(FEAT_DIM, HIDDEN, CLASSES, RuntimeParams::default())
            .map_err(err("DynamicGcnExecutor"))?,
        calls: Vec::new(),
        blocks: 0,
    };
    let cfg = config(derive(ctx.seed, 13));
    let span = ctx.tracer.begin("dynamic.simulate");
    let report = simulate_dynamic(
        &engines,
        p.base.clone(),
        &p.updates,
        &p.arrivals,
        &cfg,
        &mut exec,
    );
    for &(start, end) in &exec.calls {
        ctx.tracer.record("dynamic.plan", start, end);
    }
    ctx.tracer.end(span);
    let report = report.map_err(err("simulate_dynamic"))?;

    // Conservation, and the version accounts for every applied update
    // plus one bump per rebuild.
    let s = &report.serving;
    let total = s.completed as u64 + s.shed + s.failed as u64 + s.deadline_missed as u64;
    ctx.check(total == p.arrivals.len() as u64, || {
        format!(
            "conservation broken: {total} of {} arrivals",
            p.arrivals.len()
        )
    });
    let expected = (report.updates_applied + report.renumbers.len()) as u64;
    ctx.check(report.final_version == expected, || {
        format!(
            "final version {} != {} applied updates + {} rebuilds",
            report.final_version,
            report.updates_applied,
            report.renumbers.len()
        )
    });
    Ok((report, exec.blocks))
}

/// Tiny-size fingerprint for the thread-count determinism check.
fn probe(seed: u64, threads: usize) -> Fallible<Fingerprint> {
    let mut ctx = Ctx::new(Size::Tiny, seed, 1.0, threads, false);
    let p = prepare(&mut ctx)?;
    Ok(fingerprint(&simulate(&mut ctx, &p, threads)?.0))
}

pub fn run(ctx: &mut Ctx) -> Fallible<()> {
    let p = ctx.setup(prepare)?;
    let threads = ctx.sim_threads;
    let (report, blocks) = ctx.steady(|ctx| {
        let (report, blocks) = simulate(ctx, &p, threads)?;
        let mut fp = fingerprint(&report);
        fp.push(blocks);
        Ok(Rep {
            ops: (p.arrivals.len() + report.updates_applied) as u64,
            fingerprint: fp,
            data: (report, blocks),
        })
    })?;
    let s = &report.serving;
    ctx.set("sim_p99_ms", s.p99_ms);
    ctx.set("sim_goodput_rps", s.goodput_rps);
    ctx.set("sim_epoch_ms", s.makespan_ms);
    ctx.notes.push(format!(
        "updates applied {}, rebuilds {}, compactions {}, hit-rate head {:.4} tail {:.4}, \
         batches {}, missed {}",
        report.updates_applied,
        report.renumbers.len(),
        report.compactions,
        report.head_hit_rate(8),
        report.tail_hit_rate(8),
        s.batches,
        s.deadline_missed,
    ));

    let engine = crate::fullgraph::engine(ctx.sim_threads)?;
    let (ours, dgl) = forward_pair(&p.base, FEAT_DIM, CLASSES, derive(ctx.seed, 60), &engine)?;
    record_forward(ctx, &ours, &dgl);

    let seed = ctx.seed;
    ctx.check_thread_invariance(|threads| probe(seed, threads));

    if ctx.tracer.enabled() {
        attribute(ctx, &p, &report, blocks)?;
    }
    Ok(())
}

fn attribute(ctx: &mut Ctx, p: &Prepared, report: &DynamicReport, blocks: u64) -> Fallible<()> {
    let gen = ctx.tracer.durations_ms("gen.graph");
    ctx.set_median("gen.graph_ms", &gen);
    attribute_renumber(ctx, &p.shuffled)?;

    let loop_self = ctx.tracer.self_ms("dynamic.simulate");
    let totals = ctx.tracer.durations_ms("dynamic.simulate");
    let plan: Vec<f64> = totals.iter().zip(&loop_self).map(|(t, s)| t - s).collect();
    ctx.set_median("dynamic.loop_self_ms", &loop_self);
    ctx.set("dynamic.plan_ms", median(&plan));
    // Simulated thread blocks per host second of the whole serving loop.
    ctx.set(
        "engine.sim_blocks_per_s",
        blocks as f64 / (median(&totals) / 1e3),
    );
    ctx.set("dynamic.compactions", report.compactions as f64);
    ctx.set("dynamic.renumbers", report.renumbers.len() as f64);
    ctx.set("sim.hit_rate_tail", report.tail_hit_rate(8));
    let s = &report.serving;
    ctx.set("serve.batches", s.batches as f64);
    ctx.set(
        "serve.retry_ratio",
        s.retries as f64 / s.batches.max(1) as f64,
    );
    ctx.set("sim.kernel_occupancy", s.mean_kernel_occupancy);
    ctx.set("sim.kernel_busy_cycles", s.kernel_busy_cycles as f64);
    ctx.set("sim.copy_engine_cycles", s.copy_busy_cycles as f64);

    // graph::dynamic: the update stream replayed through the public
    // DeltaCsr API, compacting as often as the serving loop does.
    let mut apply_us = Vec::new();
    for _ in 0..ctx.reps() {
        let (applied, ms) = ctx.timed("dynamic.apply", |_| replay_updates(&p.base, &p.updates));
        let applied = applied?;
        apply_us.push(ms * 1e3 / applied.max(1) as f64);
    }
    ctx.set_median("dynamic.apply_us", &apply_us);
    Ok(())
}

/// Applies `updates` (stream-space ids equal live ids without rebuilds)
/// to a fresh `DeltaCsr`; returns the count of effective mutations.
fn replay_updates(base: &Csr, updates: &[UpdateEvent]) -> Fallible<usize> {
    let mut delta = DeltaCsr::new(base.clone());
    let mut applied = 0usize;
    for ev in updates {
        let changed = match ev.kind {
            UpdateKind::InsertEdge { u, v } => {
                delta.insert_edge(u, v).map_err(err("insert_edge"))?
            }
            UpdateKind::DeleteEdge { u, v } => {
                delta.delete_edge(u, v).map_err(err("delete_edge"))?
            }
            UpdateKind::AddNode => {
                delta.add_node();
                true
            }
        };
        if changed {
            applied += 1;
            if applied.is_multiple_of(COMPACT_EVERY) {
                delta.compact();
            }
        }
    }
    Ok(applied)
}
