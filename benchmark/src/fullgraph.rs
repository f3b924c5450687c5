//! `fullgraph`: full-graph GCN inference on the artist Table-1 shape.
//!
//! Set-up generates the graph (the generator `DatasetSpec::generate`
//! uses, seeded from the benchmark seed) and builds the runtime with
//! two-tier tuning, so it is mostly renumbering and tuning. The steady
//! phase repeats `Gcn::forward` on the advisor: engine pricing plus real
//! numerics. One op is one forward.

use gnnadvisor_core::input::{extract, AggOrder};
use gnnadvisor_core::memory::organize::organize_shared;
use gnnadvisor_core::runtime::{Advisor, AdvisorConfig, TuneStrategy};
use gnnadvisor_core::tuning::{aggregation_metrics, tune_two_tier, TwoTierConfig};
use gnnadvisor_core::workload::group::partition_groups;
use gnnadvisor_core::Framework;
use gnnadvisor_datasets::scale::scaled_counts;
use gnnadvisor_datasets::{table1_by_name, DatasetSpec};
use gnnadvisor_gpu::{Engine, GpuSpec, RunMetrics};
use gnnadvisor_graph::community::{louvain, LouvainConfig};
use gnnadvisor_graph::generators::{community_graph, CommunityParams};
use gnnadvisor_graph::reorder::{rcm_order, renumber, RenumberConfig};
use gnnadvisor_graph::{Csr, NodeId};
use gnnadvisor_models::{Gcn, ModelExec};
use gnnadvisor_tensor::init::random_features;
use gnnadvisor_tensor::Matrix;

use crate::harness::{derive, err, median, Ctx, Fallible, Fingerprint, Rep, Size};

/// The paper's Type III GCN speedup over DGL (EXPERIMENTS.md, Figure 8).
pub const PAPER_TYPE_III_GCN_SPEEDUP: f64 = 2.10;

/// GCN hidden width (the paper's default).
const HIDDEN: usize = 16;

fn scale(size: Size) -> f64 {
    match size {
        Size::Full => 1.0,
        Size::Tiny => 0.02,
    }
}

fn artist() -> DatasetSpec {
    table1_by_name("artist").expect("artist is a Table 1 dataset")
}

/// The artist graph at `scale`, built like `DatasetSpec::generate` but
/// seeded from the benchmark seed.
pub fn generate(spec: &DatasetSpec, scale: f64, seed: u64) -> Fallible<Csr> {
    let (n, e) = scaled_counts(spec.num_nodes, spec.num_edges, scale);
    let params = CommunityParams {
        num_nodes: n,
        num_edges: e,
        mean_community: spec.mean_cluster.min(n.max(2) / 2).max(2),
        community_size_cv: spec.cluster_cv,
        inter_fraction: 0.1,
        shuffle_ids: true,
    };
    Ok(community_graph(&params, seed).map_err(err("generate"))?.0)
}

pub fn engine(threads: usize) -> Fallible<Engine> {
    Engine::builder(GpuSpec::quadro_p6000())
        .sim_threads(threads)
        .build()
        .map_err(err("engine"))
}

/// The advisor under two-tier tuning, pricing on `engine`.
pub fn advisor(graph: &Csr, feat_dim: usize, classes: usize, engine: &Engine) -> Fallible<Advisor> {
    Advisor::new(
        graph,
        feat_dim,
        HIDDEN,
        classes,
        AggOrder::UpdateThenAggregate,
        AdvisorConfig {
            spec: engine.spec().clone(),
            tune: TuneStrategy::TwoTier(TwoTierConfig::default()),
            engine: Some(engine.clone()),
            ..Default::default()
        },
    )
    .map_err(err("Advisor::new"))
}

/// Bitwise fingerprint of a forward's simulated metrics.
pub fn fingerprint(m: &RunMetrics) -> Fingerprint {
    let mut fp = vec![
        m.total_ms().to_bits(),
        m.total_cycles(),
        m.dram_bytes(),
        m.phases.compute_cycles,
        m.phases.dram_cycles,
        m.phases.atomic_cycles,
        m.phases.launch_cycles,
    ];
    fp.extend(
        m.kernels
            .iter()
            .flat_map(|k| [k.l2_hits, k.l2_misses, k.num_blocks]),
    );
    fp
}

/// Simulated forward of `graph` under GNNAdvisor and under DGL; returns
/// both metrics. Used by every workload for `sim_forward_ms` and
/// `sim_speedup_vs_dgl` on its own graph.
pub fn forward_pair(
    graph: &Csr,
    feat_dim: usize,
    classes: usize,
    seed: u64,
    engine: &Engine,
) -> Fallible<(RunMetrics, RunMetrics)> {
    let adv = advisor(graph, feat_dim, classes, engine)?;
    let features = random_features(graph.num_nodes(), feat_dim, seed);
    let model = Gcn::paper_default(feat_dim, classes, seed);
    let ours = model
        .forward(
            &ModelExec::new(engine, graph, Framework::GnnAdvisor, Some(&adv)),
            &features,
        )
        .map_err(err("GNNAdvisor forward"))?;
    let dgl = model
        .forward(
            &ModelExec::new(engine, graph, Framework::Dgl, None),
            &features,
        )
        .map_err(err("DGL forward"))?;
    Ok((ours.metrics, dgl.metrics))
}

/// Records `sim_forward_ms`, `sim_speedup_vs_dgl` and the simulated
/// per-layer counters of the forward behind them.
pub fn record_forward(ctx: &mut Ctx, ours: &RunMetrics, dgl: &RunMetrics) {
    let ms = ours.total_ms();
    ctx.set("sim_forward_ms", ms);
    ctx.set("sim_speedup_vs_dgl", dgl.total_ms() / ms);
    ctx.set("sim.l2_hit_rate", ours.cache_hit_rate());
    ctx.set("sim.dram_mb", ours.dram_bytes() as f64 / 1e6);
    ctx.set("sim.sm_efficiency", ours.mean_sm_efficiency());
    ctx.set(
        "sim.phase.compute_cycles",
        ours.phases.compute_cycles as f64,
    );
    ctx.set("sim.phase.dram_cycles", ours.phases.dram_cycles as f64);
    ctx.set("sim.phase.atomic_cycles", ours.phases.atomic_cycles as f64);
    ctx.set("sim.phase.launch_cycles", ours.phases.launch_cycles as f64);
    let exact = ours
        .kernels
        .iter()
        .all(|k| k.phases.total_cycles() == k.elapsed_cycles)
        && ours.phases.total_cycles() == ours.total_cycles();
    ctx.check(exact, || {
        "kernel phase cycles do not sum to elapsed cycles".into()
    });
}

struct Prepared {
    graph: Csr,
    features: Matrix,
    advisor: Advisor,
}

fn prepare(ctx: &mut Ctx, spec: &DatasetSpec, engine: &Engine) -> Fallible<Prepared> {
    let (seed, scale) = (ctx.seed, scale(ctx.size));
    let (graph, _) = ctx.timed("gen.graph", |_| generate(spec, scale, seed));
    let graph = graph?;
    let features = random_features(graph.num_nodes(), spec.feat_dim, derive(seed, 1));
    let (advisor, _) = ctx.timed("advisor.new", |_| {
        advisor(&graph, spec.feat_dim, spec.num_classes, engine)
    });
    Ok(Prepared {
        graph,
        features,
        advisor: advisor?,
    })
}

/// Tiny-size forward pair for the thread-count determinism check.
fn probe(seed: u64, threads: usize) -> Fallible<Fingerprint> {
    let spec = artist();
    let graph = generate(&spec, scale(Size::Tiny), seed)?;
    let (ours, dgl) = forward_pair(
        &graph,
        spec.feat_dim,
        spec.num_classes,
        seed,
        &engine(threads)?,
    )?;
    let mut fp = fingerprint(&ours);
    fp.extend(fingerprint(&dgl));
    Ok(fp)
}

pub fn run(ctx: &mut Ctx) -> Fallible<()> {
    let spec = artist();
    let engine = engine(ctx.sim_threads)?;
    let p = ctx.setup(|ctx| prepare(ctx, &spec, &engine))?;
    let model = Gcn::paper_default(spec.feat_dim, spec.num_classes, ctx.seed);
    let exec = ModelExec::new(&engine, &p.graph, Framework::GnnAdvisor, Some(&p.advisor));

    let forward = ctx.steady(|ctx| {
        let (r, _) = ctx.timed("forward", |_| model.forward(&exec, &p.features));
        let r = r.map_err(err("Gcn::forward"))?;
        Ok(Rep {
            ops: 1,
            fingerprint: fingerprint(&r.metrics),
            data: r,
        })
    })?;

    // Output checks: the renumbering is a bijection that keeps the graph,
    // and the forward produced finite numbers.
    let n = p.graph.num_nodes();
    if let Some(perm) = p.advisor.permutation() {
        let inverse = perm.inverse();
        let bijective =
            perm.len() == n && (0..n as NodeId).all(|v| inverse.new_of(perm.new_of(v)) == v);
        ctx.check(bijective, || {
            "renumber permutation is not a bijection".into()
        });
    }
    let g = p.advisor.graph();
    ctx.check(
        g.num_edges() == p.graph.num_edges() && g.is_symmetric(),
        || "the permuted graph lost edges or symmetry".into(),
    );
    ctx.check(
        forward.output.as_slice().iter().all(|x| x.is_finite()),
        || "forward output is not finite".into(),
    );

    // The same forward under DGL, for the speedup.
    let dgl = model
        .forward(
            &ModelExec::new(&engine, &p.graph, Framework::Dgl, None),
            &p.features,
        )
        .map_err(err("DGL forward"))?;
    ctx.check(dgl.output.max_abs_diff(&forward.output) < 1e-3, || {
        "GNNAdvisor and DGL forwards disagree numerically".into()
    });
    record_forward(ctx, &forward.metrics, &dgl.metrics);
    let ms = forward.metrics.total_ms();
    // One op is one forward: every op's latency is the forward, and a
    // closed loop completes one per forward.
    ctx.set("sim_p99_ms", ms);
    ctx.set("sim_epoch_ms", ms);
    ctx.set("sim_goodput_rps", 1e3 / ms);

    let seed = ctx.seed;
    ctx.check_thread_invariance(|threads| probe(seed, threads));

    if ctx.tracer.enabled() {
        attribute(ctx, &spec, &p, &forward.metrics)?;
    }
    Ok(())
}

/// The traced run's attribution: calls each constituent of set-up and of
/// the forward on the same inputs, so callers' remainders become self
/// times.
fn attribute(
    ctx: &mut Ctx,
    spec: &DatasetSpec,
    p: &Prepared,
    forward: &RunMetrics,
) -> Fallible<()> {
    let graph = &p.graph;
    let reps = ctx.reps();
    let gen = ctx.tracer.durations_ms("gen.graph");
    ctx.set_median("gen.graph_ms", &gen);

    // core::tuning: the tuner Advisor::new runs, on the same input.
    let input = extract(
        graph,
        spec.feat_dim,
        HIDDEN,
        spec.num_classes,
        AggOrder::UpdateThenAggregate,
    );
    let dim = input.aggregation_dim();
    let gpu = p.advisor.engine().spec().clone();
    let mut tune_ms = Vec::new();
    let mut outcome = None;
    for _ in 0..reps {
        let (o, ms) = ctx.timed("tuning.tune", |_| {
            tune_two_tier(&input, &gpu, &TwoTierConfig::default(), |params, e| {
                aggregation_metrics(graph, dim, params, e)
            })
        });
        tune_ms.push(ms);
        outcome = Some(o);
    }
    let outcome = outcome.expect("at least one repetition");
    ctx.set_median("tuning.tune_ms", &tune_ms);
    ctx.set("tuning.engine_evals", outcome.engine_evals as f64);
    let lookups = outcome.fast_evals + outcome.memo_hits;
    ctx.set(
        "tuning.memo_hit_ratio",
        outcome.memo_hits as f64 / lookups.max(1) as f64,
    );

    attribute_renumber(ctx, graph)?;

    // core::workload + core::memory on the renumbered graph.
    let params = *p.advisor.params();
    let mut partition_ms = Vec::new();
    for _ in 0..reps {
        let (groups, ms) = ctx.timed("partition", |_| {
            partition_groups(p.advisor.graph(), params.group_size)
                .map(|g| organize_shared(&g, params.groups_per_block()).shared_bytes(HIDDEN))
        });
        groups.map_err(err("partition_groups"))?;
        partition_ms.push(ms);
    }
    ctx.set_median("partition.ms", &partition_ms);

    // gpu::engine host side: the two aggregations and two GEMMs of the
    // forward, called directly.
    let (n, classes) = (graph.num_nodes(), spec.num_classes);
    let (mut agg_ms, mut gemm_ms, mut blocks_per_s) = (vec![], vec![], vec![]);
    for _ in 0..reps {
        let (aggs, a_ms) = ctx.timed("engine.aggregate", |_| {
            [HIDDEN, classes].map(|d| p.advisor.aggregate(d))
        });
        let mut blocks = 0u64;
        for a in aggs {
            blocks += a.map_err(err("Advisor::aggregate"))?.num_blocks;
        }
        let (_, g_ms) = ctx.timed("engine.gemm", |_| {
            (
                p.advisor.update(n, spec.feat_dim, HIDDEN),
                p.advisor.update(n, HIDDEN, classes),
            )
        });
        agg_ms.push(a_ms);
        gemm_ms.push(g_ms);
        blocks_per_s.push(blocks as f64 / (a_ms / 1e3));
    }
    let (agg, gemm) = (median(&agg_ms), median(&gemm_ms));
    ctx.set("engine.aggregate_ms", agg);
    ctx.set("engine.gemm_ms", gemm);
    ctx.set_median("engine.sim_blocks_per_s", &blocks_per_s);
    let forward_ms = median(&ctx.tracer.durations_ms("forward"));
    ctx.set("models.forward_self_ms", (forward_ms - agg - gemm).max(0.0));
    ctx.check(forward.kernels.len() == 4, || {
        format!(
            "expected 4 kernels per GCN forward, got {}",
            forward.kernels.len()
        )
    });
    Ok(())
}

/// `renumber` and its constituents on `graph`: Louvain, RCM per community
/// (bucketed the way `renumber` buckets), and applying the permutation;
/// the remainder of `renumber` is its self time.
pub fn attribute_renumber(ctx: &mut Ctx, graph: &Csr) -> Fallible<()> {
    let (mut louvain_ms, mut rcm_ms, mut permute_ms, mut self_ms) =
        (vec![], vec![], vec![], vec![]);
    for _ in 0..ctx.reps() {
        let (r, renumber_ms) =
            ctx.timed("renumber", |_| renumber(graph, &RenumberConfig::default()));
        let r = r.map_err(err("renumber"))?;
        let (detected, l_ms) = ctx.timed("louvain", |_| louvain(graph, &LouvainConfig::default()));
        let mut members: Vec<Vec<NodeId>> = vec![Vec::new(); detected.num_communities.max(1)];
        for v in 0..graph.num_nodes() as NodeId {
            members[detected.community_of[v as usize] as usize].push(v);
        }
        members.retain(|m| !m.is_empty());
        members.sort_unstable_by_key(|m| m[0]);
        let (order_len, r_ms) = ctx.timed("rcm", |_| {
            members
                .iter()
                .map(|c| rcm_order(graph, c).len())
                .sum::<usize>()
        });
        ctx.check(order_len == graph.num_nodes(), || {
            "RCM order is not total".into()
        });
        let (permuted, p_ms) = ctx.timed("permute", |_| graph.permute(&r.permutation));
        permuted.map_err(err("permute"))?;
        louvain_ms.push(l_ms);
        rcm_ms.push(r_ms);
        permute_ms.push(p_ms);
        self_ms.push((renumber_ms - l_ms - r_ms).max(0.0));
        ctx.set("louvain.levels", detected.levels as f64);
        ctx.set("louvain.modularity", detected.modularity);
    }
    ctx.set_median("louvain.ms", &louvain_ms);
    ctx.set_median("rcm.ms", &rcm_ms);
    ctx.set_median("permute.ms", &permute_ms);
    ctx.set_median("renumber.self_ms", &self_ms);
    Ok(())
}
