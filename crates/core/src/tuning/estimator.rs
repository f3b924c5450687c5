//! The *Estimating* strategy (Section 7.2): evolutionary parameter search.
//!
//! Mirrors the paper's loop: (1) start from a set of randomly generated
//! settings; (2) score them and keep the settings that deliver high enough
//! performance; (3) crossover the kept settings (plus light mutation) to
//! generate the next population; repeat for 10–15 iterations.
//!
//! The fitness function is pluggable: by default it is the analytical
//! model of Eq. 2 (fast, zero simulation), but callers can pass a closure
//! that launches the real simulated kernel for profile-guided tuning —
//! this is the "optimization loop" of Figure 1 (kernel & runtime crafter →
//! GPU profiling → performance evaluator).

use std::collections::HashMap;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use gnnadvisor_gpu::{Engine, GpuSpec};

use crate::input::InputInfo;
use crate::tuning::model;
use crate::tuning::params::RuntimeParams;

/// Knobs of the evolutionary search.
#[derive(Debug, Clone, Copy)]
pub struct EstimatorConfig {
    /// Population size per generation.
    pub population: usize,
    /// Generations to run (the paper: "10 - 15 iterations ... would be
    /// enough").
    pub iterations: usize,
    /// Survivors kept per generation.
    pub survivors: usize,
    /// Per-field mutation probability during crossover.
    pub mutation_rate: f64,
    /// RNG seed (the search is fully deterministic given the seed).
    pub seed: u64,
}

impl Default for EstimatorConfig {
    fn default() -> Self {
        Self {
            population: 24,
            iterations: 12,
            survivors: 8,
            mutation_rate: 0.15,
            seed: 0xAD71,
        }
    }
}

/// Evaluation counters from one search run.
#[derive(Debug, Default, Clone, Copy)]
pub struct SearchStats {
    /// Distinct candidates the fitness function actually evaluated.
    pub unique_evals: usize,
    /// Evaluations answered from the memo cache instead of re-running.
    pub memo_hits: usize,
}

/// Full result of one evolutionary search: the winner, the evaluation
/// counters, and every distinct candidate's score (the memo cache) —
/// the two-tier tuner ranks finalists straight out of `evals`.
pub(crate) struct SearchOutcome {
    pub best: RuntimeParams,
    pub stats: SearchStats,
    pub evals: HashMap<RuntimeParams, f64>,
}

/// The evolutionary tuner.
pub struct Estimator {
    config: EstimatorConfig,
    input: InputInfo,
    spec: GpuSpec,
}

/// Candidate values per field, kept small so crossover explores a lattice.
const GS_CHOICES: &[usize] = &[1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 128];
const TPB_CHOICES: &[u32] = &[32, 64, 128, 256, 512, 1024];
const DW_CHOICES: &[u32] = &[1, 2, 4, 8, 16, 32];

impl Estimator {
    /// Creates a tuner for the given input and device.
    pub fn new(input: InputInfo, spec: GpuSpec, config: EstimatorConfig) -> Self {
        Self {
            config,
            input,
            spec,
        }
    }

    /// Runs the search with the analytical Eq. 2 fitness.
    pub fn tune(&self) -> RuntimeParams {
        self.tune_with(|p| model::estimated_latency(p, &self.input, &self.spec))
    }

    /// Runs the search with a simulation-backed fitness. The closure gets
    /// one [`Engine`] that is reused for every candidate evaluation, so
    /// the whole search shares a single
    /// [`gnnadvisor_gpu::RunContext`] — one set of cache arrays, hotspot
    /// maps, and warp accumulators — instead of allocating per candidate.
    /// Duplicate candidates drawn across generations are answered from the
    /// search's memo cache and never re-simulated.
    pub fn tune_profiled(
        &self,
        mut latency: impl FnMut(&RuntimeParams, &Engine) -> f64,
    ) -> RuntimeParams {
        self.tune_profiled_stats(&mut latency).0
    }

    /// [`Estimator::tune_profiled`] plus the evaluation counters: how many
    /// distinct candidates were simulated and how many evaluations the
    /// memo cache absorbed.
    pub fn tune_profiled_stats(
        &self,
        mut latency: impl FnMut(&RuntimeParams, &Engine) -> f64,
    ) -> (RuntimeParams, SearchStats) {
        let engine = Engine::new(self.spec.clone());
        let outcome = self.search(|p| latency(p, &engine));
        (outcome.best, outcome.stats)
    }

    /// Runs the search with a caller-provided latency function (lower is
    /// better), e.g. an actual simulated kernel launch.
    pub fn tune_with(&self, latency: impl FnMut(&RuntimeParams) -> f64) -> RuntimeParams {
        self.search(latency).best
    }

    /// The search loop proper. Survivors re-enter every generation and
    /// crossover re-draws lattice points, so duplicate candidates are
    /// common: each distinct candidate is scored at most once and its
    /// score memoized in a map keyed on the candidate itself. Scores are
    /// pure functions of the candidate (both the analytical model and the
    /// deterministic simulator), so the cache never changes the result.
    /// Infeasible candidates never reach the fitness function or the
    /// cache.
    pub(crate) fn search(&self, mut latency: impl FnMut(&RuntimeParams) -> f64) -> SearchOutcome {
        let mut rng = SmallRng::seed_from_u64(self.config.seed);
        let mut population: Vec<RuntimeParams> = (0..self.config.population)
            .map(|_| self.random_candidate(&mut rng))
            .collect();

        let mut best = population[0];
        let mut best_score = f64::INFINITY;
        let mut stats = SearchStats::default();
        let mut evals: HashMap<RuntimeParams, f64> = HashMap::new();

        for _gen in 0..self.config.iterations {
            // Score, keeping only feasible candidates.
            let mut scored: Vec<(f64, RuntimeParams)> = population
                .iter()
                .map(|&p| {
                    let feasible = p.validate().is_ok()
                        && model::respects_thread_capacity(&p, &self.input, &self.spec)
                        && model::respects_shared_capacity(&p, &self.input, &self.spec);
                    let s = if !feasible {
                        f64::INFINITY
                    } else if let Some(&cached) = evals.get(&p) {
                        stats.memo_hits += 1;
                        cached
                    } else {
                        let s = latency(&p);
                        stats.unique_evals += 1;
                        evals.insert(p, s);
                        s
                    };
                    (s, p)
                })
                .collect();
            scored.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
            if scored[0].0 < best_score {
                best_score = scored[0].0;
                best = scored[0].1;
            }
            // Survivors + crossover offspring. Infeasible candidates carry
            // an INFINITY score and must not breed: when feasibility
            // starves the pool, reseed with fresh random draws instead of
            // recycling candidates the device cannot even launch.
            let mut survivors: Vec<RuntimeParams> = scored
                .iter()
                .filter(|(s, _)| s.is_finite())
                .take(self.config.survivors.max(2))
                .map(|&(_, p)| p)
                .collect();
            while survivors.len() < 2 {
                survivors.push(self.random_candidate(&mut rng));
            }
            population.clear();
            population.extend_from_slice(&survivors);
            while population.len() < self.config.population {
                let a = survivors[rng.gen_range(0..survivors.len())];
                let b = survivors[rng.gen_range(0..survivors.len())];
                population.push(self.crossover(a, b, &mut rng));
            }
        }
        // Fall back to the analytical decision if the search never found a
        // feasible point (degenerate inputs).
        if best_score.is_infinite() {
            best = model::decide(&self.input, &self.spec);
        }
        SearchOutcome { best, stats, evals }
    }

    fn random_candidate(&self, rng: &mut SmallRng) -> RuntimeParams {
        RuntimeParams {
            group_size: GS_CHOICES[rng.gen_range(0..GS_CHOICES.len())],
            threads_per_block: TPB_CHOICES[rng.gen_range(0..TPB_CHOICES.len())],
            dim_workers: DW_CHOICES[rng.gen_range(0..DW_CHOICES.len())],
            ..RuntimeParams::default()
        }
    }

    fn crossover(&self, a: RuntimeParams, b: RuntimeParams, rng: &mut SmallRng) -> RuntimeParams {
        let mut child = RuntimeParams {
            group_size: if rng.gen_bool(0.5) {
                a.group_size
            } else {
                b.group_size
            },
            threads_per_block: if rng.gen_bool(0.5) {
                a.threads_per_block
            } else {
                b.threads_per_block
            },
            dim_workers: if rng.gen_bool(0.5) {
                a.dim_workers
            } else {
                b.dim_workers
            },
            ..RuntimeParams::default()
        };
        if rng.gen_bool(self.config.mutation_rate) {
            child.group_size = GS_CHOICES[rng.gen_range(0..GS_CHOICES.len())];
        }
        if rng.gen_bool(self.config.mutation_rate) {
            child.threads_per_block = TPB_CHOICES[rng.gen_range(0..TPB_CHOICES.len())];
        }
        if rng.gen_bool(self.config.mutation_rate) {
            child.dim_workers = DW_CHOICES[rng.gen_range(0..DW_CHOICES.len())];
        }
        child
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::input::AggOrder;
    use crate::submit::gemm;

    fn input() -> InputInfo {
        InputInfo {
            num_nodes: 100_000,
            num_edges: 1_200_000,
            avg_degree: 12.0,
            degree_stddev: 20.0,
            max_degree: 800,
            feat_dim: 96,
            hidden_dim: 16,
            num_classes: 22,
            agg_order: AggOrder::UpdateThenAggregate,
        }
    }

    #[test]
    fn finds_feasible_params() {
        let est = Estimator::new(input(), GpuSpec::quadro_p6000(), EstimatorConfig::default());
        let p = est.tune();
        p.validate().expect("tuned params must validate");
    }

    #[test]
    fn deterministic_given_seed() {
        let spec = GpuSpec::quadro_p6000();
        let a = Estimator::new(input(), spec.clone(), EstimatorConfig::default()).tune();
        let b = Estimator::new(input(), spec, EstimatorConfig::default()).tune();
        assert_eq!(a, b);
    }

    #[test]
    fn matches_or_beats_analytical_grid() {
        let spec = GpuSpec::quadro_p6000();
        let inp = input();
        let grid_best = model::decide(&inp, &spec);
        let grid_score = model::estimated_latency(&grid_best, &inp, &spec);
        let tuned = Estimator::new(inp.clone(), spec.clone(), EstimatorConfig::default()).tune();
        let tuned_score = model::estimated_latency(&tuned, &inp, &spec);
        // The evolutionary search explores a denser lattice, so it must be
        // at least as good as the coarse grid, with a small tolerance.
        assert!(
            tuned_score <= grid_score * 1.05,
            "tuned {tuned_score} vs grid {grid_score}"
        );
    }

    #[test]
    fn profiled_search_reuses_one_engine_and_is_deterministic() {
        let est = Estimator::new(input(), GpuSpec::quadro_p6000(), EstimatorConfig::default());
        // Simulation-backed fitness: price the update GEMM each candidate
        // implies. Every evaluation must see the same shared engine.
        let mut engines_seen: Vec<*const GpuSpec> = Vec::new();
        let fitness = |p: &RuntimeParams, e: &Engine| {
            engines_seen.push(e.spec() as *const GpuSpec);
            gemm(e, 1_000, p.threads_per_block as usize, 16).time_ms
        };
        let a = est.tune_profiled(fitness);
        assert!(
            engines_seen.windows(2).all(|w| w[0] == w[1]),
            "every candidate must be scored on the same engine"
        );
        let b = est.tune_profiled(|p, e| gemm(e, 1_000, p.threads_per_block as usize, 16).time_ms);
        assert_eq!(a, b, "profiled search is deterministic given the seed");
    }

    #[test]
    fn feasibility_starved_search_still_converges() {
        // A fitness needle: only tpb == 64 scores finite, everything else
        // is INFINITY (as if the device rejected every other launch). At
        // seed 3 the 4-candidate generation 0 contains no tpb == 64 draw,
        // and mutation is disabled — so when INFINITY scorers were
        // admitted to the survivor pool (the old behaviour), the gene
        // pool froze on infeasible parents and the search could provably
        // never reach the needle, falling back to the analytical
        // decision. The survivor filter + random reseeding keeps
        // exploring fresh draws each generation and must find it.
        let cfg = EstimatorConfig {
            population: 4,
            iterations: 15,
            survivors: 2,
            mutation_rate: 0.0,
            seed: 3,
        };
        let spec = GpuSpec::quadro_p6000();
        let inp = input();
        // The analytical fallback would pick a different tpb, so reaching
        // the needle proves the evolutionary loop itself recovered.
        assert_ne!(model::decide(&inp, &spec).threads_per_block, 64);
        let est = Estimator::new(inp, spec, cfg);
        let p = est.tune_with(|p| {
            if p.threads_per_block == 64 {
                1.0
            } else {
                f64::INFINITY
            }
        });
        assert_eq!(p.threads_per_block, 64);
    }

    #[test]
    fn memoization_never_reevaluates_and_preserves_the_result() {
        let spec = GpuSpec::quadro_p6000();
        let inp = input();
        let mut scores = std::collections::HashMap::new();
        let mut calls = 0usize;
        let est = Estimator::new(inp.clone(), spec.clone(), EstimatorConfig::default());
        let SearchOutcome {
            best: memoized,
            stats,
            ..
        } = est.search(|p| {
            calls += 1;
            let s = model::estimated_latency(p, &inp, &spec);
            assert!(
                scores.insert(*p, s).is_none(),
                "candidate {p:?} was re-evaluated"
            );
            s
        });
        assert_eq!(calls, stats.unique_evals);
        assert!(
            stats.memo_hits > 0,
            "survivors re-enter every generation, so the default search \
             must produce duplicate draws for the cache to absorb"
        );

        // Answering duplicates from the cache keeps the result: the winner
        // scores the minimum over every candidate the fitness scored.
        let best = scores.values().copied().fold(f64::INFINITY, f64::min);
        assert_eq!(
            scores.get(&memoized),
            Some(&best),
            "the winner must carry the lowest score the search saw"
        );
    }

    #[test]
    fn custom_fitness_is_respected() {
        let est = Estimator::new(input(), GpuSpec::quadro_p6000(), EstimatorConfig::default());
        // Fitness that only likes dw == 8.
        let p = est.tune_with(|p| if p.dim_workers == 8 { 1.0 } else { 1000.0 });
        assert_eq!(p.dim_workers, 8);
    }
}
