//! The end-to-end GNNAdvisor runtime (Figure 1).
//!
//! [`Advisor::new`] wires the whole pipeline: extract input information,
//! decide runtime parameters (user-supplied, analytical Modeling, or the
//! evolutionary Estimating search), apply community-aware node renumbering,
//! partition groups, and build the Algorithm 1 shared layout. After that,
//! [`Advisor::aggregate`] launches the aggregation kernel for any embedding
//! dimensionality and [`Advisor::update`] prices the dense update.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use gnnadvisor_gpu::{BlockResources, Engine, GpuSpec, KernelMetrics, DEFAULT_REGS_PER_THREAD};
use gnnadvisor_graph::reorder::{renumber, RenumberConfig};
use gnnadvisor_graph::{Csr, Permutation};

use crate::input::{extract, AggOrder, InputInfo};
use crate::kernels::advisor::AdvisorKernel;
use crate::memory::organize::{organize_shared, SharedLayout};
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
/// The launch shape `aggregate` actually uses for one embedding
/// dimensionality: the (possibly narrowed) runtime parameters plus the
/// shared layout rebuilt for them, or `None` when the kernel falls back
/// to direct atomic accumulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResolvedLaunch {
    /// Parameters of the launch, after any block narrowing.
    pub params: RuntimeParams,
    /// The shared layout staged by the launch (`None` = atomic fallback).
    pub layout: Option<SharedLayout>,
}

pub struct Advisor {
    engine: Engine,
    graph: Csr,
    permutation: Option<Permutation>,
    params: RuntimeParams,
    input: InputInfo,
    groups: Vec<NeighborGroup>,
    layout: SharedLayout,
    resolved: Mutex<BTreeMap<usize, Arc<ResolvedLaunch>>>,
}

impl Advisor {
    /// Builds the runtime: extract → tune → renumber → partition → organize.
    pub fn new(
        graph: &Csr,
        feat_dim: usize,
        hidden_dim: usize,
        num_classes: usize,
        agg_order: AggOrder,
        config: AdvisorConfig,
    ) -> Result<Self> {
        let input = extract(graph, feat_dim, hidden_dim, num_classes, agg_order);

        let mut params = match &config.tune {
            TuneStrategy::ModelOnly => model::decide(&input, &config.spec),
            TuneStrategy::TwoTier(cfg) => {
                let dim = input.aggregation_dim();
                tune_two_tier(&input, &config.spec, cfg, |p, e| {
                    aggregation_metrics(graph, dim, p, e)
                })
                .best
            }
            TuneStrategy::Manual(p) => {
                p.validate()?;
                *p
            }
        };
        if let Some(r) = config.renumber {
            params.renumber = r;
        }
        if let Some(s) = config.use_shared {
            params.use_shared = s;
        }

        let (graph, permutation) = if params.renumber {
            let r = renumber(graph, &RenumberConfig::default())?;
            (graph.permute(&r.permutation)?, Some(r.permutation))
        } else {
            (graph.clone(), None)
        };

        let groups = partition_groups(&graph, params.group_size)?;
        let layout = organize_shared(&groups, params.groups_per_block());
        let engine = config.engine.unwrap_or_else(|| Engine::new(config.spec));

        Ok(Self {
            engine,
            graph,
            permutation,
            params,
            input,
            groups,
            layout,
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
    /// CUDA runtime would re-tune the launch configuration. Only if even a
    /// 32-thread block cannot host one row does the kernel fall back to
    /// direct atomic accumulation.
    pub fn aggregate(&self, dim: usize) -> Result<KernelMetrics> {
        let resolved = self.resolved_launch(dim);
        let kernel = AdvisorKernel::new(
            &self.graph,
            &self.groups,
            resolved.layout.as_ref(),
            dim,
            resolved.params,
        );
        Ok(crate::submit::launch(&self.engine, &kernel)?)
    }

    /// The launch shape `aggregate(dim)` actually uses, with the narrowing
    /// loop's outcome cached per dimensionality: repeated `aggregate`
    /// calls reuse the resolved shape instead of re-running Algorithm 1,
    /// and callers can inspect the parameters and layout that were really
    /// launched (which [`Advisor::params`]/[`Advisor::layout`] — the
    /// *tuned* shape — need not match after a reshape).
    pub fn resolved_launch(&self, dim: usize) -> Arc<ResolvedLaunch> {
        let mut cache = self
            .resolved
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        if let Some(hit) = cache.get(&dim) {
            return Arc::clone(hit);
        }
        let launch = Arc::new(self.resolve_launch(dim));
        cache.insert(dim, Arc::clone(&launch));
        launch
    }

    fn resolve_launch(&self, dim: usize) -> ResolvedLaunch {
        let spec = self.engine.spec();
        if self.params.use_shared {
            let mut params = self.params;
            loop {
                let layout = organize_shared(&self.groups, params.groups_per_block());
                let resources = BlockResources {
                    regs_per_thread: DEFAULT_REGS_PER_THREAD,
                    smem_bytes: layout.shared_bytes(dim),
                    threads: params.threads_per_block,
                };
                if spec.occupancy_limit(&resources).is_launchable() {
                    return ResolvedLaunch {
                        params,
                        layout: Some(layout),
                    };
                }
                let next = params.threads_per_block / 2;
                // Below 128 threads the extra block-dispatch overhead of
                // the narrower launch outweighs what staging saves, so
                // fall back to direct atomic accumulation instead.
                if next < 128 || next < params.dim_workers {
                    break;
                }
                params.threads_per_block = next;
            }
        }
        ResolvedLaunch {
            params: self.params,
            layout: None,
        }
    }

    /// Prices the dense update `rows x in_dim · in_dim x out_dim`.
    pub fn update(&self, rows: usize, in_dim: usize, out_dim: usize) -> KernelMetrics {
        crate::submit::gemm(&self.engine, rows, out_dim, in_dim)
    }

    /// The chosen runtime parameters.
    pub fn params(&self) -> &RuntimeParams {
        &self.params
    }

    /// The extracted input information.
    pub fn input(&self) -> &InputInfo {
        &self.input
    }

    /// The (possibly renumbered) execution graph.
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

    /// The Algorithm 1 shared-memory layout.
    pub fn layout(&self) -> &SharedLayout {
        &self.layout
    }

    /// The simulated device engine.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        let u = adv.update(g.num_nodes(), 96, 16);
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
            // Repeated calls hit the cache (same Arc) and price the same.
            assert!(
                Arc::ptr_eq(&resolved, &adv.resolved_launch(dim)),
                "dim {dim}: resolution must be cached"
            );
            assert_eq!(
                adv.aggregate(dim).expect("runs"),
                adv.aggregate(dim).expect("runs"),
                "dim {dim}"
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
    }
}
