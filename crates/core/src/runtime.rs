//! The end-to-end GNNAdvisor runtime (Figure 1).
//!
//! [`Advisor::new`] wires the whole pipeline: extract input information,
//! then decide runtime parameters (user-supplied, analytical Modeling, or
//! the evolutionary Estimating search) while community-aware node
//! renumbering runs beside it on a scoped thread, then partition groups.
//! After that, [`Advisor::aggregate`] launches the aggregation kernel for
//! any embedding dimensionality, in the shape
//! `memory::organize::resolve_launch` gives it (the Algorithm 1 layout,
//! narrowed to fit), and [`Advisor::update`] prices the dense update.
//! Like the paper's runtime, the advisor decides each launch once: the
//! shape and the fault-free price of each width are kept and reused by
//! every later call.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, OnceLock};

use gnnadvisor_gpu::{CleanPrice, Engine, GpuSpec, KernelMetrics, Workload};
use gnnadvisor_graph::reorder::{renumber, RenumberConfig};
use gnnadvisor_graph::{Csr, Permutation};
use gnnadvisor_tensor::par::MIN_WORK_PER_WORKER;

use crate::input::{extract, AggOrder, InputInfo};
use crate::kernels::advisor::AdvisorKernel;
use crate::memory::organize::{resolve_launch, ResolvedLaunch};
use crate::tuning::model;
use crate::tuning::params::RuntimeParams;
use crate::tuning::two_tier::{aggregation_metrics, tune_two_tier, TwoTierConfig};
use crate::workload::group::{partition_groups, NeighborGroup};
use crate::Result;

/// How runtime parameters are chosen.
#[derive(Debug, Clone, Default)]
pub enum TuneStrategy {
    /// Analytical Modeling only (Section 7.1): grid search under Eq. 2–4.
    #[default]
    ModelOnly,
    /// Two-tier tuning: explore on the calibrated closed-form model,
    /// verify only the top-K finalists with event-level aggregation
    /// launches (see [`crate::tuning::two_tier`]).
    TwoTier(TwoTierConfig),
    /// Fixed user-provided parameters (the paper's manual-tuning interface).
    Manual(RuntimeParams),
}

/// Configuration of the runtime.
#[derive(Debug, Clone)]
pub struct AdvisorConfig {
    /// Target device.
    pub spec: GpuSpec,
    /// Parameter selection strategy.
    pub tune: TuneStrategy,
    /// Override: force renumbering on/off regardless of tuned params
    /// (`None` follows the tuned/default value).
    pub renumber: Option<bool>,
    /// Override: force block-level optimization on/off.
    pub use_shared: Option<bool>,
    /// Inject a pre-built engine instead of constructing one from `spec`.
    /// Engines share their [`gnnadvisor_gpu::RunContext`] when cloned, so a
    /// sweep that hands the same engine to many advisors reuses one set of
    /// simulation buffers. The injected engine's device is authoritative
    /// for kernel pricing; keep it consistent with `spec`, which still
    /// drives tuning.
    pub engine: Option<Engine>,
}

impl Default for AdvisorConfig {
    fn default() -> Self {
        Self {
            spec: GpuSpec::quadro_p6000(),
            tune: TuneStrategy::ModelOnly,
            renumber: None,
            use_shared: None,
            engine: None,
        }
    }
}

/// A prepared GNNAdvisor runtime bound to one graph and one GNN shape.
///
/// # Examples
///
/// ```
/// use gnnadvisor_core::input::AggOrder;
/// use gnnadvisor_core::runtime::{Advisor, AdvisorConfig};
/// use gnnadvisor_graph::generators::barabasi_albert;
///
/// let graph = barabasi_albert(500, 4, 7).unwrap();
/// let advisor = Advisor::new(
///     &graph,
///     96,                              // input feature dim
///     16,                              // hidden dim
///     10,                              // classes
///     AggOrder::UpdateThenAggregate,   // GCN-style ordering
///     AdvisorConfig::default(),        // auto-tune via Eq. 2-4
/// )
/// .unwrap();
/// let metrics = advisor.aggregate(16).unwrap();
/// assert!(metrics.time_ms > 0.0);
/// ```
pub struct Advisor {
    engine: Engine,
    graph: Csr,
    permutation: Option<Permutation>,
    params: RuntimeParams,
    groups: Vec<NeighborGroup>,
    resolved: Mutex<BTreeMap<usize, Arc<PreparedLaunch>>>,
}

/// One width's launch, decided once: the shape `aggregate` uses and, once
/// the first call has priced it, its fault-free price.
struct PreparedLaunch {
    launch: Arc<ResolvedLaunch>,
    clean: OnceLock<CleanPrice>,
}

impl Advisor {
    /// Builds the runtime: extract, then tune ∥ renumber, then partition.
    /// The Algorithm 1 layout is built per dimensionality at first launch
    /// (see [`Advisor::resolved_launch`]).
    ///
    /// Tuning prices its candidates on the input graph, and renumbering
    /// (Louvain, then RCM within each community) reads only that graph, so
    /// neither needs the other's output. On a graph of at least
    /// [`MIN_WORK_PER_WORKER`] adjacency entries, renumbering runs on one
    /// scoped thread while the calling thread tunes, so tuning's engine
    /// launches keep the host pool's workers. It runs unless
    /// `config.renumber` forces it off, and its result is dropped when the
    /// final parameters do not renumber. Below that size a helper costs
    /// more than it saves, and renumbering follows tuning, only when the
    /// parameters ask for it. Both stages are pure functions of the input,
    /// so the advisor is the same either way. The permutation is applied
    /// ([`Csr::relabel`]: each row in the input's order, only renamed) on
    /// the calling thread after the join, so the graph the advisor keeps is
    /// allocated there: memory a thread frees stays in that thread's malloc
    /// arena, where the caller cannot reuse it.
    ///
    /// # Errors
    ///
    /// A tuning error ([`crate::CoreError::InvalidParams`] for invalid
    /// manual parameters) wins over a renumbering error, which surfaces
    /// only when the renumbered graph is used. A panic on the renumbering
    /// thread is re-raised on the caller.
    pub fn new(
        graph: &Csr,
        feat_dim: usize,
        hidden_dim: usize,
        num_classes: usize,
        agg_order: AggOrder,
        config: AdvisorConfig,
    ) -> Result<Self> {
        let input = extract(graph, feat_dim, hidden_dim, num_classes, agg_order);

        let overlap = config.renumber != Some(false) && graph.num_edges() >= MIN_WORK_PER_WORKER;
        let (tuned, renumbered) = std::thread::scope(|scope| {
            let renumbering =
                overlap.then(|| scope.spawn(|| renumber(graph, &RenumberConfig::default())));
            let tuned = tune(&input, &config.tune, &config.spec, graph);
            let renumbered = renumbering.map(|handle| {
                handle
                    .join()
                    .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
            });
            (tuned, renumbered)
        });
        let mut params = tuned?;
        if let Some(r) = config.renumber {
            params.renumber = r;
        }
        if let Some(s) = config.use_shared {
            params.use_shared = s;
        }

        let (graph, permutation) = if params.renumber {
            let r = renumbered.unwrap_or_else(|| renumber(graph, &RenumberConfig::default()))?;
            (graph.relabel(&r.permutation)?, Some(r.permutation))
        } else {
            (graph.clone(), None)
        };

        let groups = partition_groups(&graph, params.group_size)?;
        let engine = config.engine.unwrap_or_else(|| Engine::new(config.spec));

        Ok(Self {
            engine,
            graph,
            permutation,
            params,
            groups,
            resolved: Mutex::new(BTreeMap::new()),
        })
    }

    /// Launches the aggregation kernel at dimensionality `dim`.
    ///
    /// Shared staging requires the Algorithm 1 layout to fit the device's
    /// per-block shared memory *for the worst block*. When it does not —
    /// e.g. after renumbering clusters many low-degree nodes into one
    /// block, inflating the slot count — the launch is re-shaped with a
    /// narrower block (halved `tpb`) until the layout fits, exactly as a
    /// CUDA runtime would re-tune the launch configuration; below 128
    /// threads the kernel falls back to direct atomic accumulation
    /// instead (`memory::organize::resolve_launch` holds the rule).
    ///
    /// The launch is simulated once per `dim`: the first call keeps its
    /// fault-free price, and every call submits that price with
    /// [`Engine::submit_price`]. Each call still draws its own fault
    /// verdict, so a fault plan sees the verdicts it would see if every
    /// call were priced afresh, and the kept price is never stretched. On
    /// a traced engine the price keeps the launch's trace rows, so every
    /// call records what a fresh submit would. A pricing error is not
    /// kept.
    pub fn aggregate(&self, dim: usize) -> Result<KernelMetrics> {
        let prepared = self.prepared(dim);
        let clean = match prepared.clean.get() {
            Some(clean) => clean,
            None => {
                let kernel = AdvisorKernel::new(
                    &self.graph,
                    &self.groups,
                    prepared.launch.layout.as_ref(),
                    dim,
                    prepared.launch.params,
                );
                let clean = self
                    .engine
                    .price(&mut self.engine.lock_context(), Workload::Kernel(&kernel))?;
                prepared.clean.get_or_init(|| clean)
            }
        };
        Ok(self.engine.submit_price(clean)?.into_kernel())
    }

    /// The launch shape `aggregate(dim)` actually uses, with the narrowing
    /// loop's outcome cached per dimensionality: repeated `aggregate`
    /// calls reuse the resolved shape instead of re-running Algorithm 1,
    /// and callers can inspect the parameters and layout that were really
    /// launched (which [`Advisor::params`] — the *tuned* shape — need not
    /// match after a reshape).
    pub fn resolved_launch(&self, dim: usize) -> Arc<ResolvedLaunch> {
        Arc::clone(&self.prepared(dim).launch)
    }

    /// The per-`dim` entry of the launch cache, resolved on first use.
    fn prepared(&self, dim: usize) -> Arc<PreparedLaunch> {
        let mut cache = self
            .resolved
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        let prepared = cache.entry(dim).or_insert_with(|| {
            Arc::new(PreparedLaunch {
                launch: Arc::new(resolve_launch(
                    &self.groups,
                    self.params,
                    dim,
                    self.engine.spec(),
                )),
                clean: OnceLock::new(),
            })
        });
        Arc::clone(prepared)
    }

    /// Prices the dense update `rows x in_dim · in_dim x out_dim`.
    ///
    /// # Errors
    ///
    /// [`crate::CoreError::Gpu`] when the engine's fault plan fails the GEMM.
    pub fn update(&self, rows: usize, in_dim: usize, out_dim: usize) -> Result<KernelMetrics> {
        Ok(crate::submit::gemm(&self.engine, rows, out_dim, in_dim)?)
    }

    /// The chosen runtime parameters.
    pub fn params(&self) -> &RuntimeParams {
        &self.params
    }

    /// The execution graph: the input, or under renumbering the input
    /// relabelled by [`Advisor::permutation`] ([`Csr::relabel`]), each row
    /// in the input's order.
    pub fn graph(&self) -> &Csr {
        &self.graph
    }

    /// The renumbering permutation, when applied — callers must permute
    /// node features and labels with it before interpreting outputs.
    pub fn permutation(&self) -> Option<&Permutation> {
        self.permutation.as_ref()
    }

    /// The group partition (for inspection and tests).
    pub fn groups(&self) -> &[NeighborGroup] {
        &self.groups
    }

    /// The simulated device engine.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }
}

/// Decides the runtime parameters under `strategy`, pricing on `graph`,
/// before any override.
fn tune(
    input: &InputInfo,
    strategy: &TuneStrategy,
    spec: &GpuSpec,
    graph: &Csr,
) -> Result<RuntimeParams> {
    Ok(match strategy {
        TuneStrategy::ModelOnly => model::decide(input, spec),
        TuneStrategy::TwoTier(cfg) => {
            let dim = input.aggregation_dim();
            tune_two_tier(input, spec, cfg, |p, e| {
                aggregation_metrics(graph, dim, p, e)
            })
            .best
        }
        TuneStrategy::Manual(p) => {
            p.validate()?;
            *p
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::organize::organize_shared;
    use gnnadvisor_gpu::{
        BlockResources, FaultConfig, FaultKind, FaultPlan, GpuError, SpanKind, TraceRecorder,
        WorkloadMetrics, DEFAULT_REGS_PER_THREAD,
    };
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

    /// Prices `adv`'s launch at `dim` afresh through `Engine::submit` on
    /// `engine`, in the shape `aggregate(dim)` uses.
    fn fresh_submit(
        adv: &Advisor,
        engine: &Engine,
        dim: usize,
    ) -> gnnadvisor_gpu::Result<KernelMetrics> {
        let resolved = adv.resolved_launch(dim);
        let kernel = AdvisorKernel::new(
            adv.graph(),
            adv.groups(),
            resolved.layout.as_ref(),
            dim,
            resolved.params,
        );
        engine
            .submit(&mut engine.lock_context(), Workload::Kernel(&kernel))
            .map(WorkloadMetrics::into_kernel)
    }

    #[test]
    fn auto_tuned_runtime_runs() {
        let g = graph();
        let adv = Advisor::new(
            &g,
            96,
            16,
            10,
            AggOrder::UpdateThenAggregate,
            AdvisorConfig::default(),
        )
        .expect("builds");
        adv.params().validate().expect("tuned params valid");
        let m = adv.aggregate(16).expect("aggregation runs");
        assert!(m.time_ms > 0.0);
        let u = adv.update(g.num_nodes(), 96, 16).expect("update runs");
        assert!(u.time_ms > 0.0);
    }

    #[test]
    fn renumbering_changes_graph_but_preserves_edges() {
        let g = graph();
        let adv = Advisor::new(
            &g,
            96,
            16,
            10,
            AggOrder::UpdateThenAggregate,
            AdvisorConfig::default(),
        )
        .expect("builds");
        assert!(adv.permutation().is_some(), "default tuned params renumber");
        assert_eq!(adv.graph().num_edges(), g.num_edges());
        assert_ne!(
            adv.graph(),
            &g,
            "shuffled community graph must actually be renumbered"
        );
    }

    #[test]
    fn renumbered_graph_keeps_each_row_in_input_order() {
        let g = graph();
        let adv = Advisor::new(
            &g,
            96,
            16,
            10,
            AggOrder::UpdateThenAggregate,
            AdvisorConfig {
                renumber: Some(true),
                ..Default::default()
            },
        )
        .expect("builds");
        let perm = adv.permutation().expect("renumbers");
        assert_eq!(adv.graph(), &g.relabel(perm).expect("valid"));
        // The input's rows are sorted and renaming unsorts them, so a
        // graph whose rows were sorted after renaming fails above.
        assert!(g.is_sorted() && !adv.graph().is_sorted());
    }

    #[test]
    fn renumber_override_disables() {
        let g = graph();
        let cfg = AdvisorConfig {
            renumber: Some(false),
            ..Default::default()
        };
        let adv = Advisor::new(&g, 96, 16, 10, AggOrder::UpdateThenAggregate, cfg).expect("builds");
        assert!(adv.permutation().is_none());
        assert_eq!(adv.graph(), &g);
    }

    #[test]
    fn renumbering_improves_cache_behaviour() {
        let g = graph();
        // A 2k-node feature matrix fits entirely in the P6000's 3 MB L2,
        // which would mask locality; shrink the cache so reuse distance
        // matters, as it does for the paper's Type III graphs.
        let mut spec = GpuSpec::quadro_p6000();
        spec.l2_bytes = 48 * 1024;
        let on = Advisor::new(
            &g,
            96,
            16,
            10,
            AggOrder::UpdateThenAggregate,
            AdvisorConfig {
                renumber: Some(true),
                spec: spec.clone(),
                ..Default::default()
            },
        )
        .expect("builds");
        let off = Advisor::new(
            &g,
            96,
            16,
            10,
            AggOrder::UpdateThenAggregate,
            AdvisorConfig {
                renumber: Some(false),
                spec,
                ..Default::default()
            },
        )
        .expect("builds");
        let m_on = on.aggregate(16).expect("runs");
        let m_off = off.aggregate(16).expect("runs");
        assert!(
            m_on.dram_read_bytes < m_off.dram_read_bytes,
            "renumbering must cut DRAM reads: {} vs {}",
            m_on.dram_read_bytes,
            m_off.dram_read_bytes
        );
        assert!(m_on.cache_hit_rate() > m_off.cache_hit_rate());
    }

    #[test]
    fn injected_engine_is_shared_and_thread_count_invariant() {
        let g = graph();
        // The full advisor pipeline (renumbering included) must price
        // identically at any simulation worker count, and an injected
        // shared engine must reproduce results run-to-run.
        let mut runs = Vec::new();
        for threads in [1, 2, 5] {
            let cfg = AdvisorConfig {
                engine: Some(
                    Engine::builder(GpuSpec::quadro_p6000())
                        .sim_threads(threads)
                        .build()
                        .expect("valid"),
                ),
                renumber: Some(true),
                ..Default::default()
            };
            let adv =
                Advisor::new(&g, 96, 16, 10, AggOrder::UpdateThenAggregate, cfg).expect("builds");
            runs.push(adv.aggregate(32).expect("runs"));
        }
        assert_eq!(runs[0], runs[1], "1 vs 2 workers");
        assert_eq!(runs[0], runs[2], "1 vs 5 workers");

        let shared = Engine::new(GpuSpec::quadro_p6000());
        let build = |engine: Engine| {
            Advisor::new(
                &g,
                96,
                16,
                10,
                AggOrder::UpdateThenAggregate,
                AdvisorConfig {
                    engine: Some(engine),
                    ..Default::default()
                },
            )
            .expect("builds")
        };
        let a = build(shared.clone()).aggregate(32).expect("runs");
        let b = build(shared).aggregate(32).expect("runs");
        assert_eq!(a, b, "shared context must not leak state across runs");
    }

    #[test]
    fn manual_params_respected() {
        let g = graph();
        let manual = RuntimeParams {
            group_size: 7,
            threads_per_block: 128,
            dim_workers: 4,
            use_shared: false,
            renumber: false,
        };
        let cfg = AdvisorConfig {
            tune: TuneStrategy::Manual(manual),
            ..Default::default()
        };
        let adv = Advisor::new(&g, 96, 16, 10, AggOrder::UpdateThenAggregate, cfg).expect("builds");
        assert_eq!(adv.params(), &manual);
        assert!(adv.groups().iter().all(|grp| grp.len() <= 7));
    }

    #[test]
    fn invalid_manual_params_rejected() {
        let g = graph();
        let bad = RuntimeParams {
            group_size: 0,
            ..Default::default()
        };
        let cfg = AdvisorConfig {
            tune: TuneStrategy::Manual(bad),
            ..Default::default()
        };
        assert!(Advisor::new(&g, 96, 16, 10, AggOrder::UpdateThenAggregate, cfg).is_err());
    }

    #[test]
    fn resolved_launch_reports_the_actually_used_shape() {
        let g = graph();
        let adv = Advisor::new(
            &g,
            96,
            16,
            10,
            AggOrder::UpdateThenAggregate,
            AdvisorConfig::default(),
        )
        .expect("builds");
        let spec = adv.engine().spec().clone();
        let mut narrowed_somewhere = false;
        for dim in [16usize, 64, 256, 512, 1024, 2048, 8192] {
            let resolved = adv.resolved_launch(dim);
            match &resolved.layout {
                Some(layout) => {
                    // The reported layout must be the one the launch
                    // really uses: built for the (possibly narrowed)
                    // params and admissible on the device.
                    let resources = BlockResources {
                        regs_per_thread: DEFAULT_REGS_PER_THREAD,
                        smem_bytes: layout.shared_bytes(dim),
                        threads: resolved.params.threads_per_block,
                    };
                    assert!(
                        spec.occupancy_limit(&resources).is_launchable(),
                        "dim {dim}"
                    );
                    assert_eq!(
                        layout,
                        &organize_shared(adv.groups(), resolved.params.groups_per_block()),
                        "dim {dim}: cached layout drifted from its params"
                    );
                    if resolved.params.threads_per_block < adv.params().threads_per_block {
                        narrowed_somewhere = true;
                    }
                }
                None => {
                    // Fallback: the un-narrowed tuned params are used.
                    assert_eq!(&resolved.params, adv.params(), "dim {dim}");
                }
            }
            // Repeated calls hit the cache (same Arc), and the second
            // call, which submits the kept price, equals pricing the same
            // kernel afresh.
            assert!(
                Arc::ptr_eq(&resolved, &adv.resolved_launch(dim)),
                "dim {dim}: resolution must be cached"
            );
            let first = adv.aggregate(dim).expect("runs");
            let second = adv.aggregate(dim).expect("runs");
            assert_eq!(first, second, "dim {dim}");
            assert_eq!(
                second,
                fresh_submit(&adv, adv.engine(), dim).expect("runs"),
                "dim {dim}: the kept price drifted from a fresh submit"
            );
        }
        assert!(
            narrowed_somewhere,
            "at least one dim must exercise the narrowing loop \
             (otherwise this test lost its subject)"
        );
    }

    #[test]
    fn shared_fallback_on_huge_dims() {
        let g = graph();
        let adv = Advisor::new(
            &g,
            8192,
            16,
            10,
            AggOrder::AggregateThenUpdate,
            AdvisorConfig::default(),
        )
        .expect("builds");
        // 8192-dim rows cannot fit the 48 KB shared budget with any slot
        // count > 1; the aggregate call must still succeed via fallback.
        let m = adv.aggregate(8192).expect("fallback path runs");
        assert!(m.time_ms > 0.0);
        assert!(
            adv.resolved_launch(8192).layout.is_none(),
            "dim 8192 must take the atomic fallback"
        );
        // The second call submits the kept price of the fallback launch.
        let again = adv.aggregate(8192).expect("fallback path runs");
        assert_eq!(again, m);
        assert_eq!(again, fresh_submit(&adv, adv.engine(), 8192).expect("runs"));
    }

    #[test]
    fn kept_prices_draw_the_same_faults_as_fresh_submits() {
        let g = graph();
        let spec = GpuSpec::quadro_p6000();
        let clean = Advisor::new(
            &g,
            96,
            16,
            10,
            AggOrder::UpdateThenAggregate,
            AdvisorConfig::default(),
        )
        .expect("builds");
        let clean_16 = clean.aggregate(16).expect("runs");
        let config = FaultConfig {
            kernel_slow_prob: 0.3,
            kernel_slow_factor: 1.5,
            kernel_timeout_prob: 0.15,
            // The reset lands mid-sequence and kills whichever op crosses it.
            device_reset_ms: Some(clean_16.time_ms * 20.0),
            seed: 11,
            ..FaultConfig::default()
        };
        let faulty = || {
            Engine::builder(spec.clone())
                .fault_plan(Arc::new(FaultPlan::new(config.clone()).expect("valid")))
                .build()
                .expect("valid")
        };
        // Engine A serves an advisor, which keeps one clean price per
        // width; engine B submits the same kernels afresh every time.
        let cached = Advisor::new(
            &g,
            96,
            16,
            10,
            AggOrder::UpdateThenAggregate,
            AdvisorConfig {
                engine: Some(faulty()),
                ..Default::default()
            },
        )
        .expect("builds");
        let fresh = faulty();
        let outcome = |r: Result<KernelMetrics>| {
            r.map_err(|e| match e {
                crate::CoreError::Gpu(GpuError::Fault { kind, op }) => (kind, op),
                other => panic!("unexpected error {other}"),
            })
        };
        let dims: Vec<usize> = [16, 7, 16, 16, 7].repeat(10);
        let mut slow_then_clean = 0;
        let mut slowed_dims = Vec::new();
        let mut kinds = Vec::new();
        for (call, &dim) in dims.iter().enumerate() {
            let a = outcome(cached.aggregate(dim));
            let b = outcome(fresh_submit(&cached, &fresh, dim).map_err(Into::into));
            assert_eq!(a, b, "call {call} at dim {dim}");
            match a {
                Ok(m) => {
                    let clean_m = clean.aggregate(dim).expect("runs");
                    if m.elapsed_cycles > clean_m.elapsed_cycles {
                        slowed_dims.push(dim);
                    } else {
                        assert_eq!(
                            m, clean_m,
                            "call {call}: an unslowed call is the clean price"
                        );
                        if slowed_dims.contains(&dim) {
                            slow_then_clean += 1;
                        }
                    }
                }
                Err((kind, op)) => {
                    assert_eq!(op, clean.aggregate(dim).expect("runs").name);
                    kinds.push(kind);
                }
            }
        }
        assert_eq!(
            cached.engine().fault_plan().expect("attached").op_count(),
            dims.len() as u64,
            "every call draws exactly one verdict"
        );
        assert!(!slowed_dims.is_empty(), "no call was slowed");
        assert!(
            slow_then_clean > 0,
            "a slowed call must be followed by a clean one at its width"
        );
        assert!(kinds.contains(&FaultKind::KernelTimeout), "{kinds:?}");
        assert!(kinds.contains(&FaultKind::DeviceReset), "{kinds:?}");
    }

    #[test]
    fn a_faulted_update_is_a_typed_error() {
        let g = graph();
        let engine = Engine::builder(GpuSpec::quadro_p6000())
            .fault_plan(Arc::new(
                FaultPlan::new(FaultConfig {
                    kernel_timeout_prob: 1.0,
                    seed: 5,
                    ..FaultConfig::default()
                })
                .expect("valid"),
            ))
            .build()
            .expect("valid");
        let adv = Advisor::new(
            &g,
            96,
            16,
            10,
            AggOrder::UpdateThenAggregate,
            AdvisorConfig {
                engine: Some(engine),
                ..Default::default()
            },
        )
        .expect("builds");
        match adv.update(g.num_nodes(), 96, 16) {
            Err(crate::CoreError::Gpu(GpuError::Fault { kind, .. })) => {
                assert_eq!(kind, FaultKind::KernelTimeout);
            }
            other => panic!("expected a kernel timeout, got {other:?}"),
        }
    }

    #[test]
    fn traced_advisor_traces_every_call() {
        let g = graph();
        let tracer = Arc::new(TraceRecorder::new());
        let engine = Engine::builder(GpuSpec::quadro_p6000())
            .tracer(Arc::clone(&tracer))
            .build()
            .expect("valid");
        let adv = Advisor::new(
            &g,
            96,
            16,
            10,
            AggOrder::UpdateThenAggregate,
            AdvisorConfig {
                engine: Some(engine),
                ..Default::default()
            },
        )
        .expect("builds");
        let kernel_spans = || {
            tracer
                .events()
                .iter()
                .filter(|e| e.kind == SpanKind::Kernel)
                .count()
        };
        tracer.clear();
        let first = adv.aggregate(16).expect("runs");
        let per_call = tracer.len();
        assert_eq!(kernel_spans(), 1);
        for call in 2..=3 {
            assert_eq!(adv.aggregate(16).expect("runs"), first);
            assert_eq!(tracer.len(), per_call * call, "call {call}");
            assert_eq!(kernel_spans(), call, "call {call}");
        }
    }
}
