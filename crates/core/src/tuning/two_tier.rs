//! Two-tier tuning: explore on the calibrated analytical fast path,
//! verify only the finalists on the event-level engine.
//!
//! The full-simulation tuner prices every candidate with an event-level
//! launch, so tuning cost scales linearly with the search size even
//! though most candidates only need to be *ranked*, not timed precisely.
//! [`tune_two_tier`] splits the work:
//!
//! 1. **Probe** a handful of deterministic, feasible configurations on
//!    the engine and collect their measured [`PhaseBreakdown`]s.
//! 2. **Calibrate** the closed-form [`AnalyticModel`] against the probes
//!    (per-phase least squares; the model reports a relative-error band).
//! 3. **Explore** with the evolutionary [`Estimator`], scoring every
//!    candidate on the calibrated model — microseconds per candidate.
//! 4. **Verify** only the top-K finalists (by fast-path score) on the
//!    engine and return the engine-verified winner.
//!
//! Every stage is deterministic: the probe list is fixed, the search is
//! seeded, and the engine is bit-identical at any worker count — so the
//! whole tuner is too.

use std::collections::HashMap;

use gnnadvisor_gpu::{Engine, GpuSpec, KernelMetrics, PhaseBreakdown};
use gnnadvisor_graph::Csr;

use crate::input::InputInfo;
use crate::kernels::advisor::AdvisorKernel;
use crate::memory::organize::resolve_launch;
use crate::tuning::analytic::AnalyticModel;
use crate::tuning::estimator::{Estimator, EstimatorConfig};
use crate::tuning::model;
use crate::tuning::params::RuntimeParams;

/// Knobs of the two-tier tuner.
#[derive(Debug, Clone, Copy)]
pub struct TwoTierConfig {
    /// The fast-path evolutionary search (memoization recommended).
    pub estimator: EstimatorConfig,
    /// Finalists verified on the engine (the fast-path winner is always
    /// among them).
    pub top_k: usize,
    /// Calibration probes run on the engine before the search.
    pub probes: usize,
}

impl Default for TwoTierConfig {
    fn default() -> Self {
        Self {
            estimator: EstimatorConfig::default(),
            top_k: 4,
            probes: 3,
        }
    }
}

/// One engine-verified finalist.
#[derive(Debug, Clone, Copy)]
pub struct Finalist {
    pub params: RuntimeParams,
    /// Fast-path (calibrated analytical) score in microseconds.
    pub fast_us: f64,
    /// Engine-verified latency in milliseconds (infinite when the engine
    /// rejected the launch).
    pub engine_ms: f64,
}

/// Everything the two-tier tuner decided and measured.
#[derive(Debug, Clone)]
pub struct TwoTierOutcome {
    /// The engine-verified winner.
    pub best: RuntimeParams,
    /// The winner's engine latency in milliseconds.
    pub best_engine_ms: f64,
    /// The fast path's own top-1 before verification.
    pub fast_best: RuntimeParams,
    /// The verified finalists, in fast-path rank order.
    pub finalists: Vec<Finalist>,
    /// Every distinct feasible candidate the fast path scored, ranked by
    /// fast-path score ascending (the finalists are its prefix).
    pub pool: Vec<(RuntimeParams, f64)>,
    /// The calibrated model (exposes coefficients and error band).
    pub model: AnalyticModel,
    /// Distinct candidates the fast path scored.
    pub fast_evals: usize,
    /// Fast-path evaluations absorbed by the memo cache.
    pub memo_hits: usize,
    /// Event-level engine launches consumed (probes + verification).
    pub engine_evals: usize,
}

/// Deterministic, feasible probe candidates: the analytical decision, the
/// defaults, and fixed lattice points spanning the knob ranges.
fn probe_candidates(input: &InputInfo, spec: &GpuSpec, count: usize) -> Vec<RuntimeParams> {
    let lattice = [
        (16usize, 128u32, 8u32),
        (2, 512, 32),
        (64, 64, 4),
        (8, 1024, 16),
        (32, 256, 2),
        (4, 128, 4),
    ];
    let mut probes: Vec<RuntimeParams> = vec![model::decide(input, spec), RuntimeParams::default()];
    probes.extend(lattice.iter().map(|&(gs, tpb, dw)| RuntimeParams {
        group_size: gs,
        threads_per_block: tpb,
        dim_workers: dw,
        ..RuntimeParams::default()
    }));
    let mut out: Vec<RuntimeParams> = Vec::new();
    for p in probes {
        if out.len() >= count.max(2) {
            break;
        }
        let feasible = p.validate().is_ok()
            && model::respects_thread_capacity(&p, input, spec)
            && model::respects_shared_capacity(&p, input, spec);
        if feasible && !out.contains(&p) {
            out.push(p);
        }
    }
    out
}

/// Runs the two-tier tuner. `run` launches one candidate on the given
/// engine and returns its metrics, or `None` when the candidate cannot
/// launch at all (such candidates verify as infinitely slow). The same
/// closure serves calibration probes and finalist verification, so both
/// tiers measure exactly the same workload.
pub fn tune_two_tier(
    input: &InputInfo,
    spec: &GpuSpec,
    config: &TwoTierConfig,
    mut run: impl FnMut(&RuntimeParams, &Engine) -> Option<KernelMetrics>,
) -> TwoTierOutcome {
    let engine = Engine::new(spec.clone());
    let mut engine_evals = 0usize;
    // Engine results are memoized too: a finalist that served as a probe
    // is never re-simulated.
    let mut engine_cache: HashMap<RuntimeParams, (f64, Option<PhaseBreakdown>)> = HashMap::new();

    // Tier 0: calibration probes.
    let mut measured: Vec<(RuntimeParams, PhaseBreakdown)> = Vec::new();
    for p in probe_candidates(input, spec, config.probes) {
        engine_evals += 1;
        match run(&p, &engine) {
            Some(m) => {
                engine_cache.insert(p, (m.time_ms, Some(m.phases)));
                measured.push((p, m.phases));
            }
            None => {
                engine_cache.insert(p, (f64::INFINITY, None));
            }
        }
    }
    let model = if measured.is_empty() {
        AnalyticModel::uncalibrated(input.clone(), spec.clone())
    } else {
        AnalyticModel::calibrate(input.clone(), spec.clone(), &measured)
    };

    // Tier 1: explore on the calibrated closed form.
    let estimator = Estimator::new(input.clone(), spec.clone(), config.estimator);
    let search = estimator.search(|p| model.predict_us(p));
    let fast_best = search.best;

    // Rank every distinct candidate the search scored and keep the top-K
    // (the fast-path winner always makes the cut).
    let mut pool: Vec<(RuntimeParams, f64)> = search
        .evals
        .iter()
        .filter(|(_, s)| s.is_finite())
        .map(|(&p, &s)| (p, s))
        .collect();
    pool.sort_by(|a, b| {
        a.1.partial_cmp(&b.1)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| key(&a.0).cmp(&key(&b.0)))
    });
    let mut shortlist: Vec<(RuntimeParams, f64)> = Vec::new();
    if let Some(&s) = search.evals.get(&fast_best) {
        shortlist.push((fast_best, s));
    } else {
        shortlist.push((fast_best, model.predict_us(&fast_best)));
    }
    for &(p, s) in &pool {
        if shortlist.len() >= config.top_k.max(1) {
            break;
        }
        if !shortlist.iter().any(|(q, _)| *q == p) {
            shortlist.push((p, s));
        }
    }

    // Tier 2: verify the finalists on the engine.
    let mut finalists: Vec<Finalist> = Vec::new();
    for (p, fast_us) in shortlist {
        let engine_ms = if let Some(&(ms, _)) = engine_cache.get(&p) {
            ms
        } else {
            engine_evals += 1;
            let ms = run(&p, &engine).map_or(f64::INFINITY, |m| m.time_ms);
            engine_cache.insert(p, (ms, None));
            ms
        };
        finalists.push(Finalist {
            params: p,
            fast_us,
            engine_ms,
        });
    }

    let winner = finalists
        .iter()
        .filter(|f| f.engine_ms.is_finite())
        .min_by(|a, b| {
            a.engine_ms
                .partial_cmp(&b.engine_ms)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| key(&a.params).cmp(&key(&b.params)))
        })
        .copied();
    let (best, best_engine_ms) = match winner {
        Some(f) => (f.params, f.engine_ms),
        // Nothing launched: fall back to the fast-path winner.
        None => (fast_best, f64::INFINITY),
    };

    TwoTierOutcome {
        best,
        best_engine_ms,
        fast_best,
        finalists,
        pool,
        model,
        fast_evals: search.stats.unique_evals,
        memo_hits: search.stats.memo_hits,
        engine_evals,
    }
}

/// Deterministic tie-break ordering over candidates.
fn key(p: &RuntimeParams) -> (usize, u32, u32, bool, bool) {
    (
        p.group_size,
        p.threads_per_block,
        p.dim_workers,
        p.use_shared,
        p.renumber,
    )
}

/// Full-simulation fitness for one aggregation candidate: re-partitions
/// the graph at the candidate's group size, resolves its launch shape by
/// the rule `Advisor::aggregate` launches by
/// (`memory::organize::resolve_launch`), and launches the event-level
/// aggregation kernel. Returns `None` when the candidate cannot launch
/// (infeasible grid).
pub fn aggregation_metrics(
    graph: &Csr,
    dim: usize,
    params: &RuntimeParams,
    engine: &Engine,
) -> Option<KernelMetrics> {
    let groups = crate::workload::group::partition_groups(graph, params.group_size).ok()?;
    let launch = resolve_launch(&groups, *params, dim, engine.spec());
    let kernel = AdvisorKernel::new(graph, &groups, launch.layout.as_ref(), dim, launch.params);
    crate::submit::launch(engine, &kernel).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::input::{extract, AggOrder};
    use gnnadvisor_graph::generators::{community_graph, CommunityParams};

    fn graph() -> Csr {
        let params = CommunityParams {
            num_nodes: 2_000,
            num_edges: 40_000,
            mean_community: 50,
            community_size_cv: 0.3,
            inter_fraction: 0.1,
            shuffle_ids: true,
        };
        community_graph(&params, 33).expect("valid").0
    }

    fn small_config() -> TwoTierConfig {
        TwoTierConfig {
            estimator: EstimatorConfig {
                population: 12,
                iterations: 6,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    #[test]
    fn two_tier_returns_engine_verified_winner() {
        let g = graph();
        let spec = GpuSpec::quadro_p6000();
        let input = extract(&g, 96, 16, 10, AggOrder::UpdateThenAggregate);
        let dim = input.aggregation_dim();
        let out = tune_two_tier(&input, &spec, &small_config(), |p, e| {
            aggregation_metrics(&g, dim, p, e)
        });
        out.best.validate().expect("winner must validate");
        assert!(out.best_engine_ms.is_finite() && out.best_engine_ms > 0.0);
        assert!(out.model.error_band().is_finite());
        assert!(
            out.finalists.iter().any(|f| f.params == out.best),
            "winner must come from the verified finalists"
        );
        assert!(
            out.engine_evals <= 3 + out.finalists.len(),
            "engine runs must stay probes + finalists: {}",
            out.engine_evals
        );
        assert!(
            out.fast_evals > out.engine_evals,
            "exploration is fast-path"
        );
    }

    #[test]
    fn two_tier_is_deterministic() {
        let g = graph();
        let spec = GpuSpec::quadro_p6000();
        let input = extract(&g, 96, 16, 10, AggOrder::UpdateThenAggregate);
        let dim = input.aggregation_dim();
        let a = tune_two_tier(&input, &spec, &small_config(), |p, e| {
            aggregation_metrics(&g, dim, p, e)
        });
        let b = tune_two_tier(&input, &spec, &small_config(), |p, e| {
            aggregation_metrics(&g, dim, p, e)
        });
        assert_eq!(a.best, b.best);
        assert_eq!(a.best_engine_ms, b.best_engine_ms);
        assert_eq!(a.model.error_band(), b.model.error_band());
        assert_eq!(a.finalists.len(), b.finalists.len());
    }

    #[test]
    fn winner_latency_sits_within_the_error_band_of_the_full_sim_winner() {
        // The acceptance-criterion property: exhaustively engine-score the
        // same candidate pool the fast path explored and check the
        // two-tier winner's latency lands within the calibrated band of
        // the true (full-sim) winner's latency.
        let g = graph();
        let spec = GpuSpec::quadro_p6000();
        let input = extract(&g, 96, 16, 10, AggOrder::UpdateThenAggregate);
        let dim = input.aggregation_dim();
        let cfg = small_config();
        let out = tune_two_tier(&input, &spec, &cfg, |p, e| {
            aggregation_metrics(&g, dim, p, e)
        });

        // Full-sim baseline over the identical seeded search.
        let est = Estimator::new(input.clone(), spec.clone(), cfg.estimator);
        let engine = Engine::new(spec.clone());
        let full_best = est.tune_with(|p| {
            aggregation_metrics(&g, dim, p, &engine).map_or(f64::INFINITY, |m| m.time_ms)
        });
        let full_ms = aggregation_metrics(&g, dim, &full_best, &engine)
            .expect("full-sim winner launches")
            .time_ms;

        let band = out.model.error_band().max(0.05);
        assert!(
            out.best_engine_ms <= full_ms * (1.0 + band) + 1e-12,
            "two-tier winner {} ms vs full-sim winner {} ms exceeds band {}",
            out.best_engine_ms,
            full_ms,
            band
        );
    }

    #[test]
    #[ignore]
    fn debug_dump_ranking() {
        let g = graph();
        let spec = GpuSpec::quadro_p6000();
        let input = extract(&g, 96, 16, 10, AggOrder::UpdateThenAggregate);
        let dim = input.aggregation_dim();
        let cfg = small_config();
        let out = tune_two_tier(&input, &spec, &cfg, |p, e| {
            aggregation_metrics(&g, dim, p, e)
        });
        println!(
            "band={:.4} coeffs={:?}",
            out.model.error_band(),
            out.model.coeffs()
        );
        let est = Estimator::new(input.clone(), spec.clone(), cfg.estimator);
        let engine = Engine::new(spec.clone());
        let search = est.search(|p| out.model.predict_us(p));
        let mut rows: Vec<(RuntimeParams, f64, f64)> = search
            .evals
            .iter()
            .map(|(&p, &s)| {
                let ms =
                    aggregation_metrics(&g, dim, &p, &engine).map_or(f64::INFINITY, |m| m.time_ms);
                (p, s, ms)
            })
            .collect();
        rows.sort_by(|a, b| a.2.partial_cmp(&b.2).unwrap());
        for (p, fast_us, ms) in rows {
            println!(
                "gs={:3} tpb={:4} dw={:2} fast={:9.3}us engine={:9.3}us",
                p.group_size,
                p.threads_per_block,
                p.dim_workers,
                fast_us,
                ms * 1000.0
            );
        }
    }

    #[test]
    fn probe_candidates_are_feasible_and_deterministic() {
        let spec = GpuSpec::quadro_p6000();
        let input = extract(&graph(), 96, 16, 10, AggOrder::UpdateThenAggregate);
        let a = probe_candidates(&input, &spec, 3);
        let b = probe_candidates(&input, &spec, 3);
        assert_eq!(a, b);
        assert!(a.len() >= 2);
        for p in &a {
            p.validate().expect("probe must validate");
            assert!(model::respects_thread_capacity(p, &input, &spec));
            assert!(model::respects_shared_capacity(p, &input, &spec));
        }
    }
}
