//! Dynamic-graph serving: queries and graph updates on one clock.
//!
//! GNNAdvisor's locality story (Section 6.1, evaluated in §8.2's Type II
//! result) is a property of the *current* edge layout: community-aware
//! renumbering packs neighborhoods into consecutive ids, and the SpMM
//! aggregation's L2 hit-rate rides on that packing. Under a mutating
//! production graph the packing decays — uniformly random churn threads
//! long-span edges through the community blocks — and nothing in a
//! static pipeline notices. This module is the online version of that
//! result:
//!
//! - updates from a seeded stream ([`gnnadvisor_graph::dynamic`]) are
//!   interleaved with request arrivals on the simulated clock: every
//!   update with `at_ms <=` a batch's dispatch instant is applied to the
//!   live [`DeltaCsr`] before that batch plans;
//! - each batch executes against a copy-on-write [`GraphSnapshot`] taken
//!   at plan time, so in-flight work observes one consistent version
//!   while updates keep applying — the report tags every batch with the
//!   version it ran against;
//! - a [`RenumberPolicy`] watches the batches' kernel L2 hit-rate
//!   through a sliding [`HitRateWindow`]; when the windowed rate sinks
//!   below `watermark x` the baseline captured after the last rebuild,
//!   it triggers [`reorder::renumber`](renumber()) + compaction,
//!   charging a rebuild stall on the simulated clock that subsequent
//!   batches must wait out — amortizing the rebuild against the recovered
//!   kernel speed.
//!
//! The arrival, admission, batching, retry and deadline machinery is the
//! serving pipeline's: [`crate::serving`]'s round-robin loop runs every
//! batch, and this module adds one step before each batch (apply the due
//! updates, pin the snapshot) and one after it (the locality policy).
//! Batches may round-robin across several replica engines (the cluster
//! integration: replicated serving over one evolving graph). With one
//! engine, no updates and no policy the report equals
//! [`crate::serving::simulate`]'s bit for bit. Everything downstream of
//! the seeds is deterministic and byte-identical at any
//! `GNNADVISOR_SIM_THREADS`.

use std::sync::Arc;

use gnnadvisor_gpu::{BlockSink, Engine, GridConfig, HitRateWindow, Kernel};
use gnnadvisor_graph::dynamic::{DeltaCsr, UpdateEvent, UpdateKind};
use gnnadvisor_graph::reorder::{renumber, RenumberConfig};
use gnnadvisor_graph::{Csr, NodeId};

use crate::kernels::advisor::AdvisorKernel;
use crate::memory::organize::{organize_shared, SharedLayout};
use crate::serving::runner::BatchRun;
use crate::serving::{
    serve_round_robin, BatchSteps, BatchWork, DispatchedBatch, Request, ServingConfig,
    ServingReport,
};
use crate::tuning::params::RuntimeParams;
use crate::workload::group::{partition_groups, NeighborGroup};
use crate::{CoreError, Result};

pub use gnnadvisor_graph::dynamic::{generate_updates, GraphSnapshot, UpdateStreamConfig};

/// One graph snapshot prepared for the GNNAdvisor aggregation.
///
/// The static runtime borrows its graph and group partition for the
/// lifetime of a launch; dynamic serving cannot — a batch's device work
/// outlives the planning borrow while updates keep mutating the live
/// graph. This owns the materialized snapshot CSR together with the
/// Section 5.1 group partition and the Algorithm 1 shared layout built
/// from it. None of them depends on the embedding width, so executors
/// prepare one per graph version and share it, behind an [`Arc`], across
/// every layer of every batch pinned to that version.
pub struct PreparedSnapshot {
    graph: Csr,
    groups: Vec<NeighborGroup>,
    layout: Option<SharedLayout>,
    params: RuntimeParams,
}

impl PreparedSnapshot {
    /// Partitions `graph` into neighbor groups and (when
    /// `params.use_shared`) organizes the shared-memory layout.
    pub fn prepare(graph: &Csr, params: RuntimeParams) -> Result<Arc<Self>> {
        params.validate()?;
        let groups = partition_groups(graph, params.group_size)?;
        let layout = params
            .use_shared
            .then(|| organize_shared(&groups, params.groups_per_block()));
        Ok(Arc::new(Self {
            graph: graph.clone(),
            groups,
            layout,
            params,
        }))
    }
}

/// The GNNAdvisor aggregation kernel over a [`PreparedSnapshot`] at one
/// dimensionality. Cheap to clone: executors box one per batch and layer,
/// and it reconstructs the borrowing [`AdvisorKernel`] on demand.
#[derive(Clone)]
pub struct SnapshotAggregationKernel {
    snapshot: Arc<PreparedSnapshot>,
    dim: usize,
}

impl SnapshotAggregationKernel {
    /// The aggregation over `snapshot` at dimensionality `dim`.
    pub fn new(snapshot: Arc<PreparedSnapshot>, dim: usize) -> Result<Self> {
        if dim == 0 {
            return Err(CoreError::InvalidParams {
                reason: "aggregation dimensionality must be at least 1".into(),
            });
        }
        Ok(Self { snapshot, dim })
    }

    fn kernel(&self) -> AdvisorKernel<'_> {
        let s = &*self.snapshot;
        AdvisorKernel::new(&s.graph, &s.groups, s.layout.as_ref(), self.dim, s.params)
    }
}

impl Kernel for SnapshotAggregationKernel {
    fn name(&self) -> &str {
        "advisor_snapshot_aggregation"
    }

    fn grid(&self) -> GridConfig {
        self.kernel().grid()
    }

    fn emit_block(&self, block_id: usize, sink: &mut BlockSink<'_>) {
        self.kernel().emit_block(block_id, sink)
    }
}

/// The model-specific half of dynamic serving: turns a dispatched batch
/// *plus the graph snapshot it is pinned to* into device work. The
/// snapshot arrives materialized (the runtime caches one materialization
/// per version) together with its version tag, so an executor can model
/// resident-graph state (e.g. upload topology only when the version
/// changed).
pub trait SnapshotExecutor {
    /// Plans the device ops for `batch` against `graph` at `version`.
    fn plan(&mut self, batch: &DispatchedBatch, graph: &Csr, version: u64) -> Result<BatchWork>;
}

/// The locality-triggered re-renumbering policy.
///
/// Trigger math: after every rebuild (and at start) the first full
/// window's hit-count-weighted rate becomes the *baseline*. A rebuild
/// fires when the window is full, at least `cooldown_batches` batches
/// have executed since the last rebuild, and
///
/// ```text
/// windowed_rate < watermark x baseline_rate
/// ```
///
/// The rebuild runs `reorder::renumber` on the live graph, swaps the
/// [`DeltaCsr`] base for the permuted, compacted CSR (one version bump),
/// and stalls subsequent batches by `edges x rebuild_cost_us_per_edge`
/// on the simulated clock — the amortization cost the recovered kernel
/// speed has to pay back.
#[derive(Debug, Clone, PartialEq)]
pub struct RenumberPolicy {
    /// Sliding-window length in batches; the policy never fires before
    /// the window fills.
    pub window: usize,
    /// Fraction of the baseline rate below which a rebuild fires, in
    /// `(0, 1]`.
    pub watermark: f64,
    /// Minimum batches between rebuilds (and before the first), so a
    /// noisy window cannot thrash rebuilds.
    pub cooldown_batches: usize,
    /// Simulated rebuild stall per live directed edge, microseconds
    /// (Louvain + RCM + compaction are roughly linear in edges).
    pub rebuild_cost_us_per_edge: f64,
}

impl Default for RenumberPolicy {
    fn default() -> Self {
        Self {
            window: 8,
            watermark: 0.98,
            cooldown_batches: 16,
            rebuild_cost_us_per_edge: 0.02,
        }
    }
}

impl RenumberPolicy {
    fn validate(&self) -> Result<()> {
        if self.window == 0 {
            return Err(CoreError::Serving {
                reason: "policy window must be at least 1 batch".into(),
            });
        }
        if !(self.watermark.is_finite() && self.watermark > 0.0 && self.watermark <= 1.0) {
            return Err(CoreError::Serving {
                reason: format!("watermark must be in (0, 1], got {}", self.watermark),
            });
        }
        if !(self.rebuild_cost_us_per_edge.is_finite() && self.rebuild_cost_us_per_edge >= 0.0) {
            return Err(CoreError::Serving {
                reason: format!(
                    "rebuild_cost_us_per_edge must be non-negative and finite, got {}",
                    self.rebuild_cost_us_per_edge
                ),
            });
        }
        Ok(())
    }
}

/// Shape of a dynamic-graph serving run.
#[derive(Debug, Clone, PartialEq)]
pub struct DynamicConfig {
    /// The underlying serving shape (streams per replica, queue, batch,
    /// retry, deadline policies).
    pub serving: ServingConfig,
    /// The re-renumbering policy; `None` serves the decaying layout
    /// forever (the ablation arm of the bench).
    pub policy: Option<RenumberPolicy>,
    /// Fold the delta overlay into the base CSR after this many applied
    /// updates; `0` compacts only at rebuilds. Compaction never changes
    /// query results — it bounds overlay walk costs.
    pub compact_every: usize,
}

/// One batch's row in the version-tagged hit-rate trajectory.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SnapshotRow {
    /// Batch index in dispatch order.
    pub batch: usize,
    /// The batch's dispatch instant, ms.
    pub dispatch_ms: f64,
    /// Graph version the batch's snapshot was pinned to.
    pub version: u64,
    /// Hit-count-weighted L2 hit-rate of the batch's kernels (0 when the
    /// batch priced no cached traffic).
    pub hit_rate: f64,
    /// The policy window's rate after this batch, once the window is
    /// full and has seen traffic.
    pub windowed_rate: Option<f64>,
}

/// One locality-triggered rebuild.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RenumberEvent {
    /// Instant the rebuild started on the simulated clock, ms.
    pub at_ms: f64,
    /// Version of the rebuilt graph (one past the decayed layout).
    pub version: u64,
    /// The windowed rate that tripped the watermark.
    pub windowed_rate: f64,
    /// The baseline rate the watermark was relative to.
    pub baseline_rate: f64,
    /// Simulated rebuild stall charged to subsequent batches, ms.
    pub rebuild_ms: f64,
}

/// Aggregate report of one dynamic-graph serving run.
#[derive(Debug, Clone, PartialEq)]
pub struct DynamicReport {
    /// The serving-side statistics (latency, throughput, conservation
    /// buckets) over all replicas.
    pub serving: ServingReport,
    /// Replica engines the batches round-robinned across.
    pub replicas: usize,
    /// Updates applied to the live graph (effective mutations).
    pub updates_applied: usize,
    /// Updates that were no-ops against the live graph (stream-space
    /// collisions after renumbering never happen; this stays 0 for
    /// generator streams and is reported for trace replays).
    pub updates_noop: usize,
    /// Final graph version.
    pub final_version: u64,
    /// Final live node count.
    pub final_nodes: usize,
    /// Final live directed edge count.
    pub final_edges: usize,
    /// Periodic compactions performed (excluding rebuild compactions).
    pub compactions: usize,
    /// Locality-triggered rebuilds, in order.
    pub renumbers: Vec<RenumberEvent>,
    /// Per-batch version-tagged hit-rate trajectory, dispatch order.
    pub trajectory: Vec<SnapshotRow>,
}

impl DynamicReport {
    /// Mean per-batch kernel hit-rate over the first `k` batches with
    /// cache traffic — the "fresh layout" end of the trajectory.
    pub fn head_hit_rate(&self, k: usize) -> f64 {
        mean_rate(self.trajectory.iter().filter(|r| r.hit_rate > 0.0).take(k))
    }

    /// Mean per-batch kernel hit-rate over the last `k` batches with
    /// cache traffic — where decay (or recovery) shows.
    pub fn tail_hit_rate(&self, k: usize) -> f64 {
        let with_traffic: Vec<&SnapshotRow> = self
            .trajectory
            .iter()
            .filter(|r| r.hit_rate > 0.0)
            .collect();
        let skip = with_traffic.len().saturating_sub(k);
        mean_rate(with_traffic.into_iter().skip(skip))
    }

    /// Lowest full-window rate observed, if any window filled.
    pub fn min_windowed_rate(&self) -> Option<f64> {
        self.trajectory
            .iter()
            .filter_map(|r| r.windowed_rate)
            .min_by(|a, b| a.partial_cmp(b).expect("rates are finite"))
    }

    /// Renders the report as a deterministic fixed-precision table (the
    /// CLI prints this; CI diffs it byte-for-byte across runs and worker
    /// counts).
    pub fn render(&self) -> String {
        let mut out = self.serving.render();
        out.push_str("dynamic-graph report\n");
        out.push_str(&format!("  replicas             {}\n", self.replicas));
        out.push_str(&format!(
            "  updates applied      {}\n",
            self.updates_applied
        ));
        out.push_str(&format!("  update no-ops        {}\n", self.updates_noop));
        out.push_str(&format!("  final version        {}\n", self.final_version));
        out.push_str(&format!(
            "  final graph          {} nodes / {} edges\n",
            self.final_nodes, self.final_edges
        ));
        out.push_str(&format!("  compactions          {}\n", self.compactions));
        out.push_str(&format!(
            "  hit-rate head        {:.4}\n",
            self.head_hit_rate(8)
        ));
        out.push_str(&format!(
            "  hit-rate tail        {:.4}\n",
            self.tail_hit_rate(8)
        ));
        match self.min_windowed_rate() {
            Some(r) => out.push_str(&format!("  hit-rate low water   {r:.4}\n")),
            None => out.push_str("  hit-rate low water   n/a\n"),
        }
        out.push_str(&format!(
            "  re-renumber events   {}\n",
            self.renumbers.len()
        ));
        for e in &self.renumbers {
            out.push_str(&format!(
                "    at {:.3} ms -> v{}  window {:.4} < {:.4}  rebuild {:.3} ms\n",
                e.at_ms, e.version, e.windowed_rate, e.baseline_rate, e.rebuild_ms
            ));
        }
        out
    }
}

fn mean_rate<'a, I: Iterator<Item = &'a SnapshotRow>>(rows: I) -> f64 {
    let (mut sum, mut n) = (0.0f64, 0usize);
    for r in rows {
        sum += r.hit_rate;
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// The mutable graph side of the run: the live delta CSR plus the
/// stream-space → current-space id map that survives renumbering.
struct LiveGraph {
    delta: DeltaCsr,
    /// `id_map[stream_id] = current id`; updates reference stream-space
    /// ids so one generated stream drives renumbered and non-renumbered
    /// runs identically.
    id_map: Vec<NodeId>,
    /// One materialized CSR per version, rebuilt lazily.
    cache: Option<(u64, Csr)>,
}

impl LiveGraph {
    fn new(base: Csr) -> Self {
        let n = base.num_nodes();
        Self {
            delta: DeltaCsr::new(base),
            id_map: (0..n as NodeId).collect(),
            cache: None,
        }
    }

    fn map(&self, stream_id: NodeId) -> Result<NodeId> {
        self.id_map
            .get(stream_id as usize)
            .copied()
            .ok_or_else(|| CoreError::Serving {
                reason: format!(
                    "update references stream-space node {stream_id} but only {} exist",
                    self.id_map.len()
                ),
            })
    }

    /// Applies one update; returns whether it mutated the graph.
    fn apply(&mut self, ev: &UpdateEvent) -> Result<bool> {
        Ok(match ev.kind {
            UpdateKind::InsertEdge { u, v } => {
                let (u, v) = (self.map(u)?, self.map(v)?);
                self.delta.insert_edge(u, v)?
            }
            UpdateKind::DeleteEdge { u, v } => {
                let (u, v) = (self.map(u)?, self.map(v)?);
                self.delta.delete_edge(u, v)?
            }
            UpdateKind::AddNode => {
                let id = self.delta.add_node();
                self.id_map.push(id);
                true
            }
        })
    }

    /// The materialized CSR of the current version (cached per version).
    fn materialized(&mut self) -> (&Csr, u64) {
        let version = self.delta.version();
        if self.cache.as_ref().map(|(v, _)| *v) != Some(version) {
            self.cache = Some((version, self.delta.to_csr()));
        }
        let (v, csr) = self.cache.as_ref().expect("just filled");
        (csr, *v)
    }

    /// Renumbers + compacts the live graph, remapping the id map;
    /// returns the rebuilt edge count.
    fn rebuild(&mut self) -> Result<usize> {
        let live = self.delta.to_csr();
        let r = renumber(&live, &RenumberConfig::default())?;
        let permuted = live.permute(&r.permutation)?;
        let edges = permuted.num_edges();
        for id in &mut self.id_map {
            *id = r.permutation.new_of(*id);
        }
        self.delta = DeltaCsr::with_version(permuted, self.delta.version() + 1);
        self.cache = None;
        Ok(edges)
    }
}

/// Dynamic serving's steps around the shared round-robin loop: before a
/// batch plans, apply the updates due by its dispatch instant and pin it
/// to the live graph's snapshot; after it ran, feed its locality signal
/// to the policy, which may rebuild the layout.
struct DynamicSteps<'a> {
    exec: &'a mut dyn SnapshotExecutor,
    updates: &'a [UpdateEvent],
    compact_every: usize,
    policy: Option<&'a RenumberPolicy>,
    live: LiveGraph,
    next_update: usize,
    updates_applied: usize,
    updates_noop: usize,
    applied_since_compact: usize,
    compactions: usize,
    /// The policy's sliding window (present iff the policy is).
    window: Option<HitRateWindow>,
    baseline: Option<f64>,
    batches_since_rebuild: usize,
    /// A rebuild stall: no batch is released before this instant.
    maintenance_until_ms: f64,
    /// The version the batch in flight is pinned to.
    version: u64,
    trajectory: Vec<SnapshotRow>,
    renumbers: Vec<RenumberEvent>,
}

impl BatchSteps for DynamicSteps<'_> {
    fn plan(&mut self, _i: usize, batch: &DispatchedBatch) -> Result<(BatchWork, f64)> {
        while self.next_update < self.updates.len()
            && self.updates[self.next_update].at_ms <= batch.dispatch_ms
        {
            if self.live.apply(&self.updates[self.next_update])? {
                self.updates_applied += 1;
                self.applied_since_compact += 1;
            } else {
                self.updates_noop += 1;
            }
            self.next_update += 1;
            if self.compact_every > 0 && self.applied_since_compact >= self.compact_every {
                self.live.delta.compact();
                self.compactions += 1;
                self.applied_since_compact = 0;
            }
        }
        let (graph, version) = self.live.materialized();
        self.version = version;
        let work = self.exec.plan(batch, graph, version)?;
        Ok((work, batch.dispatch_ms.max(self.maintenance_until_ms)))
    }

    fn ran(&mut self, i: usize, batch: &DispatchedBatch, run: &BatchRun) -> Result<()> {
        let (hits, misses) = (run.l2_hits, run.l2_misses);
        let mut windowed_rate = None;
        if let (Some(p), Some(w)) = (self.policy, self.window.as_mut()) {
            w.push(hits, misses);
            self.batches_since_rebuild += 1;
            if let Some(rate) = w.rate().filter(|_| w.is_full()) {
                windowed_rate = Some(rate);
                match self.baseline {
                    None => self.baseline = Some(rate),
                    Some(b)
                        if rate < p.watermark * b
                            && self.batches_since_rebuild >= p.cooldown_batches =>
                    {
                        // The rebuild starts when the batch's last attempt
                        // was released.
                        let at_ms = run.last().release_ms;
                        let edges = self.live.rebuild()?;
                        let rebuild_ms = edges as f64 * p.rebuild_cost_us_per_edge / 1000.0;
                        self.maintenance_until_ms = at_ms + rebuild_ms;
                        self.renumbers.push(RenumberEvent {
                            at_ms,
                            version: self.live.delta.version(),
                            windowed_rate: rate,
                            baseline_rate: b,
                            rebuild_ms,
                        });
                        w.clear();
                        self.baseline = None;
                        self.batches_since_rebuild = 0;
                    }
                    Some(_) => {}
                }
            }
        }
        self.trajectory.push(SnapshotRow {
            batch: i,
            dispatch_ms: batch.dispatch_ms,
            version: self.version,
            hit_rate: if hits + misses == 0 {
                0.0
            } else {
                hits as f64 / (hits + misses) as f64
            },
            windowed_rate,
        });
        Ok(())
    }
}

/// Runs the dynamic-graph serving pipeline: batches planned from
/// `arrivals` round-robin across `engines x cfg.serving.streams`
/// simulated streams; updates due by each batch's dispatch instant are
/// applied first; the batch executes against a consistent snapshot of
/// the live graph; and the optional [`RenumberPolicy`] rebuilds the
/// layout when the measured locality signal sinks below its watermark.
///
/// `updates` must be sorted by `at_ms` (as [`generate_updates`]
/// produces) and reference stream-space node ids; `base` must be
/// symmetric (the renumbering pipeline's contract).
pub fn simulate_dynamic(
    engines: &[Engine],
    base: Csr,
    updates: &[UpdateEvent],
    arrivals: &[Request],
    cfg: &DynamicConfig,
    exec: &mut dyn SnapshotExecutor,
) -> Result<DynamicReport> {
    if let Some(p) = &cfg.policy {
        p.validate()?;
    }
    // NaN compares false both ways, so it would pass the ordering check.
    if let Some(u) = updates.iter().find(|u| !u.at_ms.is_finite()) {
        return Err(CoreError::Serving {
            reason: format!("update at non-finite {} ms", u.at_ms),
        });
    }
    if updates.windows(2).any(|w| w[0].at_ms > w[1].at_ms) {
        return Err(CoreError::Serving {
            reason: "updates must be sorted by at_ms".into(),
        });
    }
    if !base.is_symmetric() {
        return Err(CoreError::Serving {
            reason: "dynamic serving requires a symmetric base graph (renumbering contract)".into(),
        });
    }

    let policy = cfg.policy.as_ref();
    let mut steps = DynamicSteps {
        exec,
        updates,
        compact_every: cfg.compact_every,
        policy,
        live: LiveGraph::new(base),
        next_update: 0,
        updates_applied: 0,
        updates_noop: 0,
        applied_since_compact: 0,
        compactions: 0,
        window: policy.map(|p| HitRateWindow::new(p.window)),
        baseline: None,
        batches_since_rebuild: 0,
        maintenance_until_ms: 0.0,
        version: 0,
        trajectory: Vec::new(),
        renumbers: Vec::new(),
    };
    let serving = serve_round_robin(engines, arrivals, &cfg.serving, &mut steps)?;
    Ok(DynamicReport {
        serving,
        replicas: engines.len(),
        updates_applied: steps.updates_applied,
        updates_noop: steps.updates_noop,
        final_version: steps.live.delta.version(),
        final_nodes: steps.live.delta.num_nodes(),
        final_edges: steps.live.delta.num_edges(),
        compactions: steps.compactions,
        renumbers: steps.renumbers,
        trajectory: steps.trajectory,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serving::{
        generate_arrivals, ArrivalConfig, BatchPolicy, DeviceWork, QueuePolicy, RetryPolicy,
    };
    use gnnadvisor_gpu::GpuSpec;
    use gnnadvisor_graph::generators::{community_graph, CommunityParams};

    /// An aggregation-only executor: one GNNAdvisor aggregation over the
    /// snapshot per batch (plus a token transfer), so the batch hit-rate
    /// *is* the layout's locality. One prepared kernel per version.
    struct SpmmExecutor {
        dim: usize,
        prepared: Option<(u64, SnapshotAggregationKernel)>,
    }

    impl SpmmExecutor {
        fn new(dim: usize) -> Self {
            Self {
                dim,
                prepared: None,
            }
        }
    }

    impl SnapshotExecutor for SpmmExecutor {
        fn plan(
            &mut self,
            batch: &DispatchedBatch,
            graph: &Csr,
            version: u64,
        ) -> Result<BatchWork> {
            if batch.requests.is_empty() {
                return Ok(BatchWork::default());
            }
            if self.prepared.as_ref().map(|(v, _)| *v) != Some(version) {
                let snapshot = PreparedSnapshot::prepare(graph, RuntimeParams::default())?;
                let kernel = SnapshotAggregationKernel::new(snapshot, self.dim)?;
                self.prepared = Some((version, kernel));
            }
            let kernel = self.prepared.as_ref().expect("just prepared").1.clone();
            Ok(BatchWork {
                ops: vec![
                    DeviceWork::Transfer {
                        bytes: (batch.requests.len() * 64) as u64,
                    },
                    DeviceWork::Kernel(Box::new(kernel)),
                ],
            })
        }
    }

    fn renumbered_base_sized(nodes: usize, edges: usize, seed: u64) -> Csr {
        let (g, _) = community_graph(
            &CommunityParams {
                num_nodes: nodes,
                num_edges: edges,
                mean_community: 40,
                community_size_cv: 0.3,
                inter_fraction: 0.08,
                shuffle_ids: true,
            },
            seed,
        )
        .expect("valid");
        let r = renumber(&g, &RenumberConfig::default()).expect("valid");
        g.permute(&r.permutation).expect("valid")
    }

    fn renumbered_base(seed: u64) -> Csr {
        renumbered_base_sized(800, 9_600, seed)
    }

    fn updates_for(base: &Csr, n: usize, seed: u64) -> Vec<UpdateEvent> {
        // Attachment-heavy churn: arrivals wire into communities at the
        // id-space tail, the decay re-renumbering can undo.
        generate_updates(
            base,
            &UpdateStreamConfig {
                num_updates: n,
                mean_interarrival_ms: 0.008,
                delete_fraction: 0.15,
                node_fraction: 0.25,
                attach_degree: 6,
                seed,
            },
        )
        .expect("valid")
    }

    fn arrivals(n: usize, gap_ms: f64, seed: u64) -> Vec<Request> {
        generate_arrivals(&ArrivalConfig {
            num_requests: n,
            mean_interarrival_ms: gap_ms,
            num_components: 1,
            seed,
        })
        .expect("valid")
    }

    fn config(policy: Option<RenumberPolicy>) -> DynamicConfig {
        DynamicConfig {
            serving: ServingConfig {
                streams: 2,
                queue: QueuePolicy { capacity: 64 },
                batch: BatchPolicy {
                    max_batch: 4,
                    max_delay_ms: 0.2,
                },
                retry: RetryPolicy::default(),
                deadline_ms: None,
            },
            policy,
            compact_every: 64,
        }
    }

    fn engine(sim_threads: usize) -> Engine {
        Engine::builder(GpuSpec::quadro_p6000())
            .sim_threads(sim_threads)
            .build()
            .expect("valid")
    }

    #[test]
    fn hit_rate_decays_without_the_policy() {
        let base = renumbered_base_sized(2_000, 24_000, 1);
        let updates = generate_updates(
            &base,
            &UpdateStreamConfig {
                num_updates: 6_000,
                mean_interarrival_ms: 0.00015,
                delete_fraction: 0.15,
                node_fraction: 0.25,
                attach_degree: 6,
                seed: 7,
            },
        )
        .expect("valid");
        let trace = arrivals(320, 0.004, 3);
        let report = simulate_dynamic(
            &[engine(1)],
            base,
            &updates,
            &trace,
            &config(None),
            &mut SpmmExecutor::new(32),
        )
        .expect("runs");
        assert_eq!(
            report.serving.completed as u64 + report.serving.shed,
            320,
            "conservation"
        );
        assert!(report.updates_applied > 0);
        assert!(report.renumbers.is_empty());
        let head = report.head_hit_rate(8);
        let tail = report.tail_hit_rate(8);
        assert!(
            tail < head - 0.01,
            "churn must decay the measured hit-rate: head={head:.4} tail={tail:.4}"
        );
        // Version tags are monotone and advance with the updates.
        assert!(report
            .trajectory
            .windows(2)
            .all(|w| w[0].version <= w[1].version));
        assert!(report.final_version > 0);
    }

    #[test]
    fn policy_triggers_and_recovers_goodput() {
        // Saturating pacing: arrivals outrun the device, so the span is
        // service-dominated and kernel speed is what goodput measures.
        // Churn lands over the first ~half of the trace; the policy's
        // rebuild amortizes against the recovered-locality second half.
        let base = renumbered_base_sized(2_000, 24_000, 1);
        let updates = generate_updates(
            &base,
            &UpdateStreamConfig {
                num_updates: 10_000,
                mean_interarrival_ms: 0.0001,
                delete_fraction: 0.15,
                node_fraction: 0.25,
                attach_degree: 6,
                seed: 7,
            },
        )
        .expect("valid");
        let trace = arrivals(800, 0.002, 3);
        let policy = RenumberPolicy {
            window: 8,
            watermark: 0.95,
            cooldown_batches: 30,
            rebuild_cost_us_per_edge: 0.0005,
        };
        let mut cfg = config(None);
        cfg.serving.streams = 1;
        let without = simulate_dynamic(
            &[engine(1)],
            base.clone(),
            &updates,
            &trace,
            &cfg,
            &mut SpmmExecutor::new(32),
        )
        .expect("runs");
        cfg.policy = Some(policy);
        let with = simulate_dynamic(
            &[engine(1)],
            base,
            &updates,
            &trace,
            &cfg,
            &mut SpmmExecutor::new(32),
        )
        .expect("runs");
        assert!(
            !with.renumbers.is_empty(),
            "decay past the watermark must trigger a rebuild"
        );
        assert!(
            with.tail_hit_rate(8) > without.tail_hit_rate(8),
            "rebuild must recover the tail hit-rate: with={:.4} without={:.4}",
            with.tail_hit_rate(8),
            without.tail_hit_rate(8)
        );
        assert!(
            with.serving.goodput_rps > without.serving.goodput_rps,
            "recovered locality must beat the decayed layout: with={:.3} without={:.3}",
            with.serving.goodput_rps,
            without.serving.goodput_rps
        );
        // The rebuild bumps the version by exactly one beyond the updates.
        let e = &with.renumbers[0];
        assert!(e.rebuild_ms > 0.0);
        assert!(e.windowed_rate < e.baseline_rate);
    }

    #[test]
    fn reports_are_identical_across_runs_and_worker_counts() {
        let base = renumbered_base(2);
        let updates = updates_for(&base, 800, 11);
        let trace = arrivals(48, 0.3, 5);
        let cfg = config(Some(RenumberPolicy::default()));
        let render_at = |sim_threads: usize| {
            simulate_dynamic(
                &[engine(sim_threads), engine(sim_threads)],
                base.clone(),
                &updates,
                &trace,
                &cfg,
                &mut SpmmExecutor::new(16),
            )
            .expect("runs")
            .render()
        };
        let serial = render_at(1);
        assert_eq!(render_at(1), serial, "same seeds, same report");
        assert_eq!(render_at(4), serial, "worker count must not leak");
    }

    #[test]
    fn conservation_holds_under_faults_and_deadlines() {
        use gnnadvisor_gpu::{FaultConfig, FaultPlan};
        let base = renumbered_base(3);
        let updates = updates_for(&base, 400, 13);
        let trace = arrivals(40, 0.3, 9);
        let mut cfg = config(Some(RenumberPolicy::default()));
        cfg.serving.retry = RetryPolicy {
            max_attempts: 3,
            backoff_base_ms: 0.25,
            seed: 13,
            ..RetryPolicy::default()
        };
        cfg.serving.deadline_ms = Some(30.0);
        let chaotic = Engine::builder(GpuSpec::quadro_p6000())
            .fault_plan(std::sync::Arc::new(
                FaultPlan::new(FaultConfig::uniform(0.25, 13)).expect("valid"),
            ))
            .build()
            .expect("valid");
        let report = simulate_dynamic(
            &[chaotic],
            base,
            &updates,
            &trace,
            &cfg,
            &mut SpmmExecutor::new(16),
        )
        .expect("runs");
        assert_eq!(
            report.serving.completed as u64
                + report.serving.shed
                + report.serving.failed as u64
                + report.serving.deadline_missed as u64,
            40,
            "conservation"
        );
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let base = renumbered_base(4);
        let updates = updates_for(&base, 8, 1);
        let trace = arrivals(4, 1.0, 1);
        let mut exec = SpmmExecutor::new(16);
        let run = |engines: &[Engine], cfg: &DynamicConfig, updates: &[UpdateEvent]| {
            simulate_dynamic(
                engines,
                base.clone(),
                updates,
                &trace,
                cfg,
                &mut SpmmExecutor::new(16),
            )
        };
        assert!(matches!(
            run(&[], &config(None), &updates),
            Err(CoreError::Serving { .. })
        ));
        let mut bad = config(Some(RenumberPolicy {
            window: 0,
            ..Default::default()
        }));
        assert!(run(&[engine(1)], &bad, &updates).is_err());
        bad = config(Some(RenumberPolicy {
            watermark: 1.5,
            ..Default::default()
        }));
        assert!(run(&[engine(1)], &bad, &updates).is_err());
        // Unsorted updates are rejected.
        let mut shuffled = updates.clone();
        shuffled.reverse();
        assert!(run(&[engine(1)], &config(None), &shuffled).is_err());
        // Non-finite update instants are rejected: a NaN used to stall
        // the update cursor and silently drop every later update.
        for (at, bad) in [(1, f64::NAN), (7, f64::NAN), (7, f64::INFINITY)] {
            let mut broken = updates.clone();
            broken[at].at_ms = bad;
            assert!(
                matches!(
                    run(&[engine(1)], &config(None), &broken),
                    Err(CoreError::Serving { .. })
                ),
                "{bad} ms at update {at}"
            );
        }
        // So are non-finite arrivals.
        let mut late = trace.clone();
        late[1].arrival_ms = f64::NAN;
        assert!(matches!(
            simulate_dynamic(
                &[engine(1)],
                base.clone(),
                &updates,
                &late,
                &config(None),
                &mut exec
            ),
            Err(CoreError::Serving { .. })
        ));
        // Asymmetric base graphs are rejected.
        let asym = Csr::from_raw(2, vec![0, 1, 1], vec![1]).expect("valid csr");
        assert!(
            simulate_dynamic(&[engine(1)], asym, &[], &trace, &config(None), &mut exec).is_err()
        );
    }
}
