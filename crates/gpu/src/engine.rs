//! Kernel execution engine: block costing, SM scheduling, global bounds.
//!
//! The timing model follows the analytical-GPU-model tradition (Hong & Kim
//! style) at block granularity:
//!
//! - **Warp critical path**: each warp's time alone is `busy + stall /
//!   memory_parallelism` (outstanding requests overlap up to the device's
//!   memory-level parallelism).
//! - **Issue bound**: the SM's schedulers retire at most `warp_schedulers`
//!   warp-instructions per cycle, so a block needs at least
//!   `Σ busy / warp_schedulers` cycles.
//! - **Bandwidth bound**: a block's DRAM traffic cannot beat the SM's share
//!   of device bandwidth.
//!
//! The block costs the max of the three plus barrier overhead. Blocks are
//! then placed greedily on the earliest-free SM; kernel elapsed time is the
//! busiest SM plus launch overhead, floored by two device-wide bounds:
//! aggregate DRAM bandwidth and the hottest atomic line (atomics on one
//! address serialize globally).
//!
//! SM efficiency composes tail balance (how evenly SMs finish) with warp
//! issue utilization (how much of each issued cycle is useful lanes) — the
//! two wastes that group-based workload management eliminates.
//!
//! # Parallel, allocation-free execution
//!
//! The block loop runs sharded: `context::plan_shards` splits the
//! launch into contiguous chunks in dispatch order, each simulated against
//! a private partition of the L2's sets. Worker threads — the calling
//! thread plus up to `workers - 1` persistent helpers of the host pool
//! ([`gnnadvisor_tensor::par::run`]), so a launch starts no thread —
//! claim whole shards, so cross-block temporal locality (the paper's
//! Figure 12 signal) is preserved within each chunk, and the
//! decomposition depends only on the launch shape — results are
//! bit-identical for any worker count, including one, and however many
//! threads end up claiming. Per-chunk metrics merge with order-independent
//! sums; SM placement runs serially over the concatenated per-shard block
//! costs, in dispatch order, exactly as the serial loop would.
//!
//! [`Engine::price_list`] prices a whole op list the same way in one pool
//! job: its units are every `(kernel, shard)` pair of the list, each
//! kernel simulates into its own context, and the merges run serially in
//! list order. A single launch is the one-op list.
//!
//! All mutable state lives in a recycled [`RunContext`], so steady-state
//! launches allocate nothing on the hot path. The worker count comes from
//! `GNNADVISOR_SIM_THREADS` (or [`EngineBuilder::sim_threads`]); `0` means
//! one worker per available core. [`Engine::host_workers`] resolves it,
//! for the block loop and for the callers' row-parallel host numerics.
//!
//! # Submission API
//!
//! Work is priced once and submitted as a price. [`Engine::price`] and
//! [`Engine::price_list`] take [`Workload`]s — a kernel launch, a
//! roofline-priced GEMM, or a host↔device transfer — and return their
//! fault-free [`CleanPrice`]s. [`Engine::submit_price`] submits one on the
//! serial device stream: it draws the op's fault verdict, records its
//! trace spans and returns its [`WorkloadMetrics`], without simulating it
//! again. [`Engine::submit`] is the two in sequence. The other way to use
//! a price is to place it on simulated streams
//! ([`crate::stream::StreamSim::draw`]). [`Engine::builder`] is the
//! configuration surface.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use gnnadvisor_tensor::par;

use crate::context::{plan_shards, RunContext, ShardPlan, ShardSlot};
use crate::fault::{FaultKind, FaultPlan, OpVerdict};
use crate::kernel::{BlockSink, GridConfig, Kernel, WARP_SIZE};
use crate::metrics::{KernelMetrics, PhaseBreakdown};
use crate::spec::{BlockResources, GpuSpec};
use crate::trace::{HotBlock, ShardTrace, TraceRecorder, HOTSPOTS_PER_KERNEL};
use crate::transfer::{transfer, TransferMetrics};
use crate::{GpuError, Result};

/// Hard ceiling on configured simulation workers — far above any host's
/// core count, so anything bigger is a typo, not a configuration.
pub const MAX_SIM_THREADS: usize = 4096;

/// Block shape of the roofline GEMM's tiles: a cuBLAS-style 64×64 output
/// tile per 256-thread block, staging both operand panels in shared
/// memory. Two such blocks co-reside per SM (the smem limit binds), so a
/// device-filling GEMM still saturates the machine while small GEMMs
/// leave room for a concurrent kernel's blocks — the co-residency the
/// stream scheduler's admission path models.
pub const GEMM_BLOCK_RESOURCES: BlockResources = BlockResources {
    regs_per_thread: 32,
    smem_bytes: 48 * 1024,
    threads: 256,
};

/// Parses a `GNNADVISOR_SIM_THREADS` value: `0` (or an empty/whitespace
/// string) means one worker per available core. Rejects anything that is
/// not a small non-negative integer with a pointed message — a garbage
/// value silently falling back to all cores would hide the typo (matching
/// the `GNNADVISOR_SCALE` guard in the bench runner).
pub fn parse_sim_threads(raw: &str) -> core::result::Result<usize, String> {
    let trimmed = raw.trim();
    if trimmed.is_empty() {
        return Ok(0);
    }
    match trimmed.parse::<usize>() {
        Ok(n) if n <= MAX_SIM_THREADS => Ok(n),
        Ok(n) => Err(format!(
            "GNNADVISOR_SIM_THREADS={n} exceeds the {MAX_SIM_THREADS}-worker \
             ceiling; use 0 for one worker per core"
        )),
        Err(_) => Err(format!(
            "GNNADVISOR_SIM_THREADS must be a non-negative integer \
             (0 = one worker per core), got {raw:?}; unset it to use all cores"
        )),
    }
}

/// One unit of device work, priced by [`Engine::price`] or
/// [`Engine::price_list`] (or priced and submitted by [`Engine::submit`]).
#[derive(Clone, Copy)]
pub enum Workload<'a> {
    /// A kernel launch simulated at block granularity.
    Kernel(&'a dyn Kernel),
    /// A dense `m x k · k x n` GEMM priced by the roofline model.
    Gemm {
        /// Rows of the left operand (and the output).
        m: usize,
        /// Columns of the right operand (and the output).
        n: usize,
        /// Inner (contraction) dimension.
        k: usize,
    },
    /// A host↔device copy of `bytes` over the PCIe model.
    Transfer {
        /// Payload size in bytes.
        bytes: u64,
    },
}

impl core::fmt::Debug for Workload<'_> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Workload::Kernel(k) => f.debug_tuple("Kernel").field(&k.name()).finish(),
            Workload::Gemm { m, n, k } => f
                .debug_struct("Gemm")
                .field("m", m)
                .field("n", n)
                .field("k", k)
                .finish(),
            Workload::Transfer { bytes } => {
                f.debug_struct("Transfer").field("bytes", bytes).finish()
            }
        }
    }
}

/// The metrics produced by one submitted [`Workload`]: kernels and GEMMs
/// yield full [`KernelMetrics`], transfers yield [`TransferMetrics`].
#[derive(Debug, Clone, PartialEq)]
pub enum WorkloadMetrics {
    /// Metrics of a simulated kernel launch or roofline-priced GEMM.
    Kernel(KernelMetrics),
    /// Metrics of a host↔device transfer.
    Transfer(TransferMetrics),
}

impl WorkloadMetrics {
    /// Simulated wall time of the workload in milliseconds.
    pub fn time_ms(&self) -> f64 {
        match self {
            WorkloadMetrics::Kernel(m) => m.time_ms,
            WorkloadMetrics::Transfer(m) => m.time_ms,
        }
    }

    /// The kernel metrics, if this was a kernel or GEMM workload.
    pub fn as_kernel(&self) -> Option<&KernelMetrics> {
        match self {
            WorkloadMetrics::Kernel(m) => Some(m),
            WorkloadMetrics::Transfer(_) => None,
        }
    }

    /// Unwraps kernel/GEMM metrics.
    ///
    /// # Panics
    ///
    /// Panics if the workload was a transfer.
    pub fn into_kernel(self) -> KernelMetrics {
        match self {
            WorkloadMetrics::Kernel(m) => m,
            WorkloadMetrics::Transfer(_) => {
                panic!("expected kernel metrics, got transfer metrics")
            }
        }
    }

    /// Unwraps transfer metrics.
    ///
    /// # Panics
    ///
    /// Panics if the workload was a kernel or GEMM.
    pub fn into_transfer(self) -> TransferMetrics {
        match self {
            WorkloadMetrics::Kernel(_) => panic!("expected transfer metrics, got kernel metrics"),
            WorkloadMetrics::Transfer(m) => m,
        }
    }
}

/// A workload priced as if alone on a fault-free device: its standalone
/// metrics, which kind of workload it was and, for a kernel or GEMM, the
/// block shape the stream scheduler admits. A kernel priced on a traced
/// engine also keeps the shard and hotspot rows its trace records.
/// [`Engine::price`] and [`Engine::price_list`] return these; no fault
/// verdict has been drawn for one until [`Engine::submit_price`] submits
/// it or [`crate::StreamSim::draw`] places it, so one clean price serves
/// every attempt of an op on any engine with an equal [`GpuSpec`].
#[derive(Debug, Clone, PartialEq)]
pub struct CleanPrice {
    pub(crate) metrics: WorkloadMetrics,
    kind: PriceKind,
}

/// What a [`CleanPrice`] priced.
#[derive(Debug, Clone, PartialEq)]
enum PriceKind {
    /// A kernel launch: its per-block demand and, when priced on a traced
    /// engine, its trace rows (one per shard, and its hottest blocks;
    /// both empty otherwise).
    Kernel {
        resources: BlockResources,
        shards: Vec<ShardTrace>,
        hot_blocks: Vec<HotBlock>,
    },
    /// A roofline GEMM, in blocks of [`GEMM_BLOCK_RESOURCES`].
    Gemm,
    /// A host↔device transfer.
    Transfer,
}

impl CleanPrice {
    /// The op's standalone, fault-free metrics.
    pub fn metrics(&self) -> &WorkloadMetrics {
        &self.metrics
    }

    /// Per-block demand of a kernel or GEMM; `None` for a transfer.
    pub(crate) fn resources(&self) -> Option<BlockResources> {
        match self.kind {
            PriceKind::Kernel { resources, .. } => Some(resources),
            PriceKind::Gemm => Some(GEMM_BLOCK_RESOURCES),
            PriceKind::Transfer => None,
        }
    }
}

/// Validated construction of an [`Engine`]. Options accumulate on the
/// builder and are checked once, at [`EngineBuilder::build`] — unlike the
/// removed `with_*` setters, an invalid configuration is a typed error
/// instead of a panic or silent fallback.
///
/// # Examples
///
/// ```
/// use gnnadvisor_gpu::{Engine, GpuSpec};
///
/// let engine = Engine::builder(GpuSpec::quadro_p6000())
///     .sim_threads(2)
///     .build()
///     .expect("2 workers is a valid configuration");
/// assert_eq!(engine.sim_threads(), 2);
/// // Zero workers is rejected at build() — use `sim_threads_auto()`
/// // (or omit the option) for one worker per core.
/// assert!(Engine::builder(GpuSpec::quadro_p6000())
///     .sim_threads(0)
///     .build()
///     .is_err());
/// ```
#[derive(Debug, Clone)]
pub struct EngineBuilder {
    spec: GpuSpec,
    sim_threads: SimThreadsRequest,
    tracer: Option<Arc<TraceRecorder>>,
    fault_plan: Option<Arc<FaultPlan>>,
}

/// How the builder was asked to pick the worker count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SimThreadsRequest {
    /// No request: defer to `GNNADVISOR_SIM_THREADS` at `build()`.
    Env,
    /// `sim_threads(n)`: explicit count, validated at `build()`.
    Explicit(usize),
    /// `sim_threads_auto()`: one worker per available core.
    Auto,
}

impl EngineBuilder {
    /// Requests an explicit simulation worker count. `build()` rejects `0`
    /// (the old setters' "auto" sentinel) — say [`Self::sim_threads_auto`]
    /// when you mean one worker per core — and anything above
    /// [`MAX_SIM_THREADS`].
    pub fn sim_threads(mut self, threads: usize) -> Self {
        self.sim_threads = SimThreadsRequest::Explicit(threads);
        self
    }

    /// Requests one simulation worker per available core (the default when
    /// `GNNADVISOR_SIM_THREADS` is unset).
    pub fn sim_threads_auto(mut self) -> Self {
        self.sim_threads = SimThreadsRequest::Auto;
        self
    }

    /// Attaches a span recorder; every launch, GEMM, and transfer of the
    /// built engine is recorded on the simulated clock.
    pub fn tracer(mut self, tracer: Arc<TraceRecorder>) -> Self {
        self.tracer = Some(tracer);
        self
    }

    /// Attaches a chaos schedule: every subsequent submission consumes one
    /// op verdict from `plan` and may come back as [`GpuError::Fault`]
    /// after burning its priced time. Clones of the engine share the plan
    /// (like they share the run context), so a multi-stream simulation
    /// over one engine draws from a single deterministic fault sequence.
    pub fn fault_plan(mut self, plan: Arc<FaultPlan>) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Validates the options and constructs the engine. With no explicit
    /// worker count, `GNNADVISOR_SIM_THREADS` is consulted; a malformed
    /// value is returned as [`GpuError::InvalidConfig`] rather than the
    /// panic [`Engine::new`] raises.
    pub fn build(self) -> Result<Engine> {
        let sim_threads = match self.sim_threads {
            // `sim_threads(0)` is almost always a stale caller still
            // speaking the old setter's sentinel language; make the auto
            // request explicit instead of guessing.
            SimThreadsRequest::Explicit(0) => {
                return Err(GpuError::InvalidConfig {
                    reason: "sim_threads(0) is rejected; call sim_threads_auto() \
                             for one worker per core"
                        .into(),
                })
            }
            SimThreadsRequest::Explicit(n) if n > MAX_SIM_THREADS => {
                return Err(GpuError::InvalidConfig {
                    reason: format!(
                        "sim_threads({n}) exceeds the {MAX_SIM_THREADS}-worker ceiling"
                    ),
                })
            }
            SimThreadsRequest::Explicit(n) => n,
            SimThreadsRequest::Auto => 0,
            SimThreadsRequest::Env => match std::env::var("GNNADVISOR_SIM_THREADS") {
                Err(std::env::VarError::NotPresent) => 0,
                Err(std::env::VarError::NotUnicode(_)) => {
                    return Err(GpuError::InvalidConfig {
                        reason: "GNNADVISOR_SIM_THREADS is not valid unicode; \
                                 unset it to use all cores"
                            .into(),
                    })
                }
                Ok(raw) => {
                    parse_sim_threads(&raw).map_err(|reason| GpuError::InvalidConfig { reason })?
                }
            },
        };
        Ok(Engine {
            spec: self.spec,
            sim_threads,
            ctx: Arc::new(Mutex::new(RunContext::new())),
            tracer: self.tracer,
            fault_plan: self.fault_plan,
        })
    }
}

/// A simulated GPU ready to run kernels.
///
/// Cloning an engine is cheap and **shares** its [`RunContext`], so a sweep
/// that clones one engine per candidate still reuses a single set of
/// simulation buffers.
///
/// # Examples
///
/// ```
/// use gnnadvisor_gpu::{Engine, GpuSpec, Workload};
///
/// let engine = Engine::new(GpuSpec::quadro_p6000());
/// let mut ctx = engine.lock_context();
/// // Price the update phase of a 10k-node GCN layer (10k x 96 -> 16).
/// let gemm = engine
///     .submit(&mut ctx, Workload::Gemm { m: 10_000, n: 16, k: 96 })
///     .unwrap();
/// assert!(gemm.time_ms() > 0.0);
/// // Price a 4 MB host-to-device feature upload.
/// let copy = engine
///     .submit(&mut ctx, Workload::Transfer { bytes: 4_000_000 })
///     .unwrap();
/// assert!(copy.time_ms() > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct Engine {
    spec: GpuSpec,
    /// Worker threads for the sharded block loop; `0` = one per core.
    sim_threads: usize,
    ctx: Arc<Mutex<RunContext>>,
    /// Opt-in span recorder; `None` keeps the hot path untouched.
    tracer: Option<Arc<TraceRecorder>>,
    /// Opt-in chaos schedule; `None` keeps submissions infallible beyond
    /// launch validation.
    fault_plan: Option<Arc<FaultPlan>>,
}

impl Engine {
    /// Creates an engine for the given device: `Engine::builder(spec).build()`
    /// with no option set, so the worker count comes from the
    /// `GNNADVISOR_SIM_THREADS` environment variable (`0` or unset = one
    /// worker per available core).
    ///
    /// # Panics
    ///
    /// Panics with the builder's error, which names the variable and its
    /// value, when `GNNADVISOR_SIM_THREADS` is set to something that is
    /// not a non-negative integer at most [`MAX_SIM_THREADS`] — see
    /// [`parse_sim_threads`].
    pub fn new(spec: GpuSpec) -> Self {
        Self::builder(spec)
            .build()
            .unwrap_or_else(|err| panic!("{err}"))
    }

    /// Starts a validated [`EngineBuilder`] for the given device. This is
    /// the only way to configure tracing and worker counts (the `with_*`
    /// setters it replaced are gone).
    pub fn builder(spec: GpuSpec) -> EngineBuilder {
        EngineBuilder {
            spec,
            sim_threads: SimThreadsRequest::Env,
            tracer: None,
            fault_plan: None,
        }
    }

    /// The attached span recorder, if tracing is enabled.
    pub fn tracer(&self) -> Option<&Arc<TraceRecorder>> {
        self.tracer.as_ref()
    }

    /// The attached chaos schedule, if fault injection is enabled.
    pub fn fault_plan(&self) -> Option<&Arc<FaultPlan>> {
        self.fault_plan.as_ref()
    }

    /// The configured simulation worker count (`0` = one per core).
    pub fn sim_threads(&self) -> usize {
        self.sim_threads
    }

    /// The host threads this engine's callers may use: [`Self::sim_threads`]
    /// with `0` resolved to one per available core. The sharded block loop
    /// and the row-parallel host numerics both read it, so
    /// `GNNADVISOR_SIM_THREADS=1` keeps pricing and numerics on the calling
    /// thread.
    pub fn host_workers(&self) -> usize {
        static CORES: OnceLock<usize> = OnceLock::new();
        match self.sim_threads {
            0 => *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get())),
            n => n,
        }
    }

    /// The device specification.
    pub fn spec(&self) -> &GpuSpec {
        &self.spec
    }

    /// Locks and returns the engine's own (shared) [`RunContext`], for
    /// passing to [`Engine::price`] or [`Engine::submit`]. Clones of the
    /// engine share this context; holding the guard across submissions
    /// recycles its allocations without re-locking.
    pub fn lock_context(&self) -> std::sync::MutexGuard<'_, RunContext> {
        self.ctx.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Submits one typed [`Workload`] — kernel launch, GEMM, or transfer —
    /// and returns its [`WorkloadMetrics`]: [`Engine::price`] followed by
    /// [`Engine::submit_price`]. The context is fully re-prepared per
    /// submission, so any context yields identical results; reusing one
    /// across submissions just recycles allocations. Use
    /// [`Engine::lock_context`] for the engine's shared context, or an
    /// owned [`RunContext`] for isolation.
    ///
    /// Every call prices the workload afresh; a caller that submits one
    /// launch repeatedly can keep its [`CleanPrice`] and submit that.
    pub fn submit(&self, ctx: &mut RunContext, workload: Workload<'_>) -> Result<WorkloadMetrics> {
        self.submit_price(&self.price(ctx, workload)?)
    }

    /// Prices one workload as if alone on a fault-free device, in `ctx`:
    /// the one-op case of [`Engine::price_list`]. No fault verdict is
    /// drawn.
    pub fn price(&self, ctx: &mut RunContext, workload: Workload<'_>) -> Result<CleanPrice> {
        let mut clean = self.price_into(std::slice::from_mut(ctx), &[workload])?;
        Ok(clean.pop().expect("one op priced"))
    }

    /// Submits an op that is already priced on the serial device stream,
    /// without simulating it again. Draws its fault verdict from the
    /// engine's fault plan (if any) on a copy of `clean`, so a `Slow`
    /// stretch never reaches the caller's price, and returns the op's
    /// metrics or, on a `Fail` verdict, [`GpuError::Fault`] named after
    /// the op; the op still burned its priced time on the plan's simulated
    /// clock before failing. Each call consumes one verdict. On a traced
    /// engine a completed op is recorded at its (possibly stretched)
    /// timings, a kernel with the trace rows kept in `clean`; an op that
    /// its verdict kills never completes, so nothing is recorded and the
    /// trace stays a timeline of finished work. `clean` must have been
    /// priced by an engine with this engine's [`GpuSpec`].
    pub fn submit_price(&self, clean: &CleanPrice) -> Result<WorkloadMetrics> {
        let mut metrics = clean.metrics.clone();
        let (fault, completes) = self.draw_verdict(&mut metrics);
        if let (Some(tracer), true) = (&self.tracer, completes) {
            match (&metrics, &clean.kind) {
                (
                    WorkloadMetrics::Kernel(m),
                    PriceKind::Kernel {
                        shards, hot_blocks, ..
                    },
                ) => tracer.record_kernel(m, &self.spec, shards, hot_blocks),
                (WorkloadMetrics::Kernel(m), _) => tracer.record_gemm(m),
                (WorkloadMetrics::Transfer(m), _) => tracer.record_transfer(m, &self.spec),
            }
        }
        match fault {
            Some(kind) => Err(GpuError::Fault {
                kind,
                op: match &metrics {
                    WorkloadMetrics::Kernel(m) => m.name.clone(),
                    WorkloadMetrics::Transfer(_) => "transfer".to_string(),
                },
            }),
            None => Ok(metrics),
        }
    }

    /// Prices every workload of `list` as if alone on a fault-free device
    /// and returns their [`CleanPrice`]s in list order. No fault verdict
    /// is drawn and nothing is recorded: [`Engine::submit_price`] or
    /// [`crate::StreamSim::draw`] draws an op's verdict when it is used.
    ///
    /// Every kernel launch of the list is simulated in **one** host pool
    /// job whose units are the list's `(kernel, shard)` pairs, each kernel
    /// into its own context of `ctxs` (grown to the list's kernel count
    /// and recycled across calls); each kernel's merge then runs serially,
    /// in list order. GEMMs and transfers are closed-form. The result
    /// equals pricing each workload alone, at any worker count.
    ///
    /// # Errors
    ///
    /// A kernel whose grid is invalid fails the whole list before any of
    /// it is simulated.
    pub fn price_list(
        &self,
        ctxs: &mut Vec<RunContext>,
        list: &[Workload<'_>],
    ) -> Result<Vec<CleanPrice>> {
        let kernels = list
            .iter()
            .filter(|w| matches!(w, Workload::Kernel(_)))
            .count();
        if ctxs.len() < kernels {
            ctxs.resize_with(kernels, RunContext::new);
        }
        self.price_into(ctxs, list)
    }

    /// [`Engine::price_list`] over at least one context per kernel of
    /// `list`.
    fn price_into(
        &self,
        ctxs: &mut [RunContext],
        list: &[Workload<'_>],
    ) -> Result<Vec<CleanPrice>> {
        let kernels: Vec<&dyn Kernel> = list
            .iter()
            .filter_map(|w| match *w {
                Workload::Kernel(k) => Some(k),
                _ => None,
            })
            .collect();
        let mut launched = self.launch_kernels(ctxs, &kernels)?.into_iter();
        Ok(list
            .iter()
            .map(|w| match *w {
                Workload::Kernel(_) => launched.next().expect("one per kernel"),
                Workload::Gemm { m, n, k } => CleanPrice {
                    metrics: WorkloadMetrics::Kernel(self.price_gemm(m, n, k)),
                    kind: PriceKind::Gemm,
                },
                Workload::Transfer { bytes } => CleanPrice {
                    metrics: WorkloadMetrics::Transfer(transfer(&self.spec, bytes)),
                    kind: PriceKind::Transfer,
                },
            })
            .collect())
    }

    /// Draws one op's verdict from the engine's fault plan (if any) and
    /// applies it to the op's clean `metrics`: a `Slow` verdict stretches
    /// a kernel or GEMM (never a transfer), then the plan's clock absorbs
    /// the op's time, which may cross the device-reset instant. Returns
    /// the fault the op dies with and whether it completes its run (a
    /// `Fail` verdict kills it; a reset still lets it finish burning).
    /// Verdicts are drawn on this serial path — never inside the sharded
    /// block loop — so the fault sequence depends only on the order ops
    /// are drawn in, not on `GNNADVISOR_SIM_THREADS`.
    pub(crate) fn draw_verdict(&self, metrics: &mut WorkloadMetrics) -> (Option<FaultKind>, bool) {
        let Some(plan) = &self.fault_plan else {
            return (None, true);
        };
        let is_transfer = matches!(metrics, WorkloadMetrics::Transfer(_));
        let mut fault = match plan.next_verdict(is_transfer) {
            OpVerdict::Ok => None,
            OpVerdict::Slow { factor } => {
                if let WorkloadMetrics::Kernel(m) = metrics {
                    m.stretch(factor, &self.spec);
                }
                None
            }
            OpVerdict::Fail { kind } => Some(kind),
        };
        let completes = fault.is_none();
        if let Some(kind) = plan.absorb_time(metrics.time_ms()) {
            fault.get_or_insert(kind);
        }
        (fault, completes)
    }

    /// Simulates kernel launches `kernels[i]` into `ctxs[i]`, all in one
    /// pool job, and returns their prices in order. Each context is fully
    /// re-prepared first, so any contexts yield identical results; passing
    /// the same ones across calls just recycles their allocations.
    fn launch_kernels(
        &self,
        ctxs: &mut [RunContext],
        kernels: &[&dyn Kernel],
    ) -> Result<Vec<CleanPrice>> {
        let mut launches = Vec::with_capacity(kernels.len());
        let mut units = 0;
        for &kernel in kernels {
            let grid = kernel.grid();
            grid.validate(&self.spec)?;
            let plan = plan_shards(grid.num_blocks, self.spec.l2_sets());
            // Occupancy-limited latency hiding: big blocks co-reside less
            // on an SM, so fewer independent warps are available to cover
            // memory stalls. Shared-memory and register-file demand cap
            // residency the same way; `occupancy_limit` is the single
            // source of truth.
            let resources = kernel.block_resources();
            let resident = self.spec.occupancy_limit(&resources).get().max(1) as u64;
            // Roughly half the resident blocks have runnable warps at any
            // moment (the rest drain at barriers/tails), so effective
            // latency-hiding depth is resident/2 — a 1024-thread launch (2
            // resident) barely covers one outstanding miss, which is the
            // right-hand rise of the paper's Figure 11b.
            let hiding = self.spec.memory_parallelism.min((resident / 2).max(1));
            launches.push(Launch {
                kernel,
                grid,
                plan,
                resources,
                hiding,
                first_unit: units,
            });
            units += plan.num_shards;
        }
        let ctxs = &mut ctxs[..kernels.len()];
        for (ctx, launch) in ctxs.iter_mut().zip(&launches) {
            ctx.prepare(&self.spec, &launch.plan);
        }

        let sm_bw_cycles_per_byte =
            self.spec.num_sms as f64 / self.spec.dram_bytes_per_cycle().max(1e-9);

        // Workers claim `(kernel, shard)` units, kernel-major, from a
        // shared counter on the host pool (`tensor::par::run`): the
        // calling thread is one of them, and persistent helpers join it,
        // so a launch starts no thread. Claim order, and how many threads
        // end up claiming, are racy but irrelevant: each shard's result
        // depends only on its own chunk and its own kernel's context, and
        // each merge below is order-independent. With one worker the
        // calling thread claims every unit in order.
        let next = AtomicUsize::new(0);
        let shared: &[RunContext] = ctxs;
        par::run(self.host_workers().min(units.max(1)), &|| loop {
            let unit = next.fetch_add(1, Ordering::Relaxed);
            if unit >= units {
                break;
            }
            let op = launches.partition_point(|l| l.first_unit <= unit) - 1;
            let launch = &launches[op];
            let shard = unit - launch.first_unit;
            let mut slot = shared[op].shards[shard]
                .lock()
                .unwrap_or_else(|p| p.into_inner());
            self.simulate_chunk(
                launch.kernel,
                &launch.grid,
                launch.plan.range(shard, launch.grid.num_blocks),
                launch.hiding,
                sm_bw_cycles_per_byte,
                &mut slot,
            );
        });

        Ok(ctxs
            .iter_mut()
            .zip(&launches)
            .map(|(ctx, launch)| self.merge(ctx, launch))
            .collect())
    }

    /// Merges one launch's simulated shards into its price. Counter totals
    /// are plain sums and hotspot rounds add per line, so shard order
    /// cannot matter; SM placement walks the per-shard block costs in
    /// dispatch order, exactly like the serial loop.
    fn merge(&self, ctx: &mut RunContext, launch: &Launch<'_>) -> CleanPrice {
        let Launch {
            kernel,
            grid,
            plan,
            resources,
            ..
        } = launch;
        let RunContext {
            shards,
            merged_hotspots,
            sm_busy,
        } = ctx;
        let mut totals = KernelMetrics {
            name: kernel.name().to_string(),
            ..Default::default()
        };
        let mut useful_total = 0u64;
        let mut busy_issue_total = 0u64;
        let mut serialized_atomics_total = 0u64;
        // Per-shard spans and launch-wide hotspot blocks, gathered only
        // when tracing: both derive from per-shard state that is already
        // worker-count-invariant, so traced timelines are too.
        let gather_trace = self.tracer.is_some();
        let mut shard_traces = Vec::new();
        let mut hot_blocks: Vec<HotBlock> = Vec::new();
        for (shard_idx, slot) in shards[..plan.num_shards].iter_mut().enumerate() {
            let slot = slot.get_mut().unwrap_or_else(|p| p.into_inner());
            if gather_trace {
                let range = plan.range(shard_idx, grid.num_blocks);
                shard_traces.push(ShardTrace {
                    first_block: range.start,
                    num_blocks: range.len(),
                    cycles: slot.block_cycles.iter().sum(),
                    l2_hits: slot.totals.l2_hits,
                    l2_misses: slot.totals.l2_misses,
                    dram_bytes: slot.totals.dram_read_bytes + slot.totals.dram_write_bytes,
                });
                // Top-K most expensive blocks across the launch, ordered
                // by cycles descending then block id — the deterministic
                // warp-imbalance hotspot list.
                let mut offset = 0u64;
                for (i, &cycles) in slot.block_cycles.iter().enumerate() {
                    let candidate = HotBlock {
                        block_id: range.start + i,
                        shard: shard_idx,
                        offset_cycles: offset,
                        cycles,
                    };
                    offset += cycles;
                    let pos = hot_blocks.partition_point(|h| {
                        h.cycles > cycles || (h.cycles == cycles && h.block_id < candidate.block_id)
                    });
                    if pos < HOTSPOTS_PER_KERNEL {
                        hot_blocks.insert(pos, candidate);
                        hot_blocks.truncate(HOTSPOTS_PER_KERNEL);
                    }
                }
            }
            totals.dram_read_bytes += slot.totals.dram_read_bytes;
            totals.dram_write_bytes += slot.totals.dram_write_bytes;
            totals.l2_hits += slot.totals.l2_hits;
            totals.l2_misses += slot.totals.l2_misses;
            totals.atomic_ops += slot.totals.atomic_ops;
            totals.shared_bytes += slot.totals.shared_bytes;
            serialized_atomics_total += slot.totals.serialized_atomics;
            useful_total += slot.totals.useful_cycles;
            busy_issue_total += slot.totals.busy_issue_cycles;
            for (&line, &rounds) in &slot.hotspots {
                *merged_hotspots.entry(line).or_insert(0) += rounds;
            }
            // Earliest-finish-time greedy SM assignment.
            for &block_cycles in &slot.block_cycles {
                sm_busy.place(block_cycles);
            }
        }

        let busiest = sm_busy.busiest();
        // Device-wide floors.
        let device_bw_bound = ((totals.dram_read_bytes + totals.dram_write_bytes) as f64
            / self.spec.dram_bytes_per_cycle().max(1e-9)) as u64;
        // The hottest line's round count is the longest per-word atomic
        // serial chain in the kernel.
        let hotspot_rounds = merged_hotspots.values().copied().max().unwrap_or(0);
        let atomic_bound = hotspot_rounds.saturating_mul(self.spec.atomic_serialize_cycles);
        let body = busiest.max(device_bw_bound).max(atomic_bound);
        let elapsed = body + self.spec.kernel_launch_cycles;
        totals.limiter = if self.spec.kernel_launch_cycles >= body {
            crate::metrics::Limiter::LaunchOverhead
        } else if atomic_bound >= busiest && atomic_bound >= device_bw_bound {
            crate::metrics::Limiter::AtomicHotspot
        } else if device_bw_bound >= busiest {
            crate::metrics::Limiter::DeviceBandwidth
        } else {
            crate::metrics::Limiter::SmTime
        };

        totals.atomic_serialization_cycles =
            serialized_atomics_total * self.spec.atomic_serialize_cycles;
        totals.useful_cycles = useful_total;
        totals.num_blocks = grid.num_blocks as u64;
        totals.achieved_occupancy = self
            .spec
            .achieved_occupancy(resources, grid.num_blocks as u64);
        totals.elapsed_cycles = elapsed;
        totals.time_ms = self.spec.cycles_to_ms(elapsed);

        // Exact phase partition of the elapsed cycles: DRAM bandwidth
        // demand claims the body first, the atomic serial chain claims
        // what bandwidth cannot explain, and per-SM work absorbs the
        // rest. compute + dram + atomic + launch == elapsed, always.
        let dram_phase = device_bw_bound.min(body);
        let atomic_phase = atomic_bound.min(body - dram_phase);
        totals.phases = PhaseBreakdown {
            compute_cycles: body - dram_phase - atomic_phase,
            dram_cycles: dram_phase,
            atomic_cycles: atomic_phase,
            launch_cycles: elapsed - body,
        };

        // SM efficiency = issue-feed ratio x lane utilization: how much of
        // the device's total SM-time is spent issuing (busy / schedulers
        // over elapsed x SMs — intra-block critical-warp slack and cross-SM
        // tail imbalance both shrink it) times how useful the issued lanes
        // are (divergence and uncoalesced access shrink it).
        let feed_eff = if body == 0 {
            1.0
        } else {
            (busy_issue_total as f64 / self.spec.warp_schedulers as f64)
                / (body as f64 * self.spec.num_sms as f64)
        };
        let warp_eff = if busy_issue_total == 0 {
            1.0
        } else {
            (useful_total as f64 / (busy_issue_total as f64 * WARP_SIZE as f64)).min(1.0)
        };
        totals.sm_efficiency = (feed_eff.min(1.0) * warp_eff).clamp(0.0, 1.0);

        CleanPrice {
            metrics: WorkloadMetrics::Kernel(totals),
            kind: PriceKind::Kernel {
                resources: *resources,
                shards: shard_traces,
                hot_blocks,
            },
        }
    }

    /// Simulates one contiguous chunk of blocks against its shard's private
    /// cache and hotspot map, in dispatch order.
    fn simulate_chunk(
        &self,
        kernel: &dyn Kernel,
        grid: &GridConfig,
        blocks: std::ops::Range<usize>,
        hiding: u64,
        sm_bw_cycles_per_byte: f64,
        slot: &mut ShardSlot,
    ) {
        let ShardSlot {
            cache,
            hotspots,
            acc,
            block_cycles,
            totals,
        } = slot;
        for block_id in blocks {
            let mut sink = BlockSink::new(&self.spec, cache, hotspots, acc, grid.threads_per_block);
            kernel.emit_block(block_id, &mut sink);
            sink.finish();

            let busy_sum: u64 = acc.warp_busy.iter().sum();
            let useful_sum: u64 = acc.warp_useful.iter().sum();
            let critical: u64 = acc
                .warp_busy
                .iter()
                .zip(&acc.warp_stall)
                .map(|(&busy, &stall)| busy + stall / hiding)
                .max()
                .unwrap_or(0);
            let issue_bound = busy_sum / self.spec.warp_schedulers as u64;
            let block_dram = acc.dram_read_bytes + acc.dram_write_bytes;
            let bw_bound = (block_dram as f64 * sm_bw_cycles_per_byte) as u64;
            // Stall throughput: the SM can keep ~hiding x 8 memory
            // requests in flight across all the block's warps; below that
            // occupancy the block's aggregate stall time becomes the
            // bottleneck (the low-occupancy penalty of huge blocks).
            let stall_sum: u64 = acc.warp_stall.iter().sum();
            let stall_bound = stall_sum / (hiding * 8);
            let cycles = critical.max(issue_bound).max(bw_bound).max(stall_bound)
                + acc.syncs * self.spec.sync_cycles
                + self.spec.block_overhead_cycles;

            block_cycles.push(cycles);
            totals.add_block(acc, busy_sum, useful_sum);
        }
    }

    /// Prices a dense `m x k · k x n` GEMM (the update-phase DGEMM/MLP) with
    /// a cuBLAS-like roofline: compute at `gemm_efficiency` of peak FLOPs,
    /// memory as one pass over the three operand matrices.
    fn price_gemm(&self, m: usize, n: usize, k: usize) -> KernelMetrics {
        let flops = 2 * m as u64 * n as u64 * k as u64;
        let compute_cycles =
            (flops as f64 / (self.spec.flops_per_cycle() * self.spec.gemm_efficiency)) as u64;
        let bytes = 4 * (m * k + k * n + m * n) as u64;
        let bw_cycles = (bytes as f64 / self.spec.dram_bytes_per_cycle()) as u64;
        let body = compute_cycles.max(bw_cycles);
        let elapsed = body + self.spec.kernel_launch_cycles;
        let dram_phase = bw_cycles.min(body);
        KernelMetrics {
            name: format!("gemm_{m}x{k}x{n}"),
            elapsed_cycles: elapsed,
            time_ms: self.spec.cycles_to_ms(elapsed),
            dram_read_bytes: 4 * (m * k + k * n) as u64,
            dram_write_bytes: 4 * (m * n) as u64,
            // A tuned GEMM is heavily cache-blocked; model a high hit rate
            // by attributing ideal-reuse traffic only.
            l2_hits: (flops / 64).max(1),
            l2_misses: (bytes / self.spec.line_bytes as u64).max(1),
            sm_efficiency: self.spec.gemm_efficiency,
            achieved_occupancy: self
                .spec
                .achieved_occupancy(&GEMM_BLOCK_RESOURCES, m.div_ceil(64) as u64),
            useful_cycles: flops,
            num_blocks: m.div_ceil(64) as u64,
            limiter: if compute_cycles >= bw_cycles {
                crate::metrics::Limiter::SmTime
            } else {
                crate::metrics::Limiter::DeviceBandwidth
            },
            phases: PhaseBreakdown {
                compute_cycles: body - dram_phase,
                dram_cycles: dram_phase,
                atomic_cycles: 0,
                launch_cycles: self.spec.kernel_launch_cycles,
            },
            ..Default::default()
        }
    }
}

/// One kernel of a list priced by [`Engine::price_list`]: what its shards
/// and its merge need.
struct Launch<'k> {
    kernel: &'k dyn Kernel,
    grid: GridConfig,
    plan: ShardPlan,
    resources: BlockResources,
    /// Latency-hiding depth: how many outstanding misses a warp's stall
    /// time is divided over.
    hiding: u64,
    /// Index of the launch's first shard among the list's pool units.
    first_unit: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{ArrayId, GridConfig};

    /// A kernel whose blocks each run `warps` warps of `cycles` uniform
    /// compute and read `bytes` of global memory at a per-block offset.
    struct Uniform {
        blocks: usize,
        warps: usize,
        cycles: u64,
        bytes: u64,
    }

    impl Kernel for Uniform {
        fn name(&self) -> &str {
            "uniform"
        }
        fn grid(&self) -> GridConfig {
            GridConfig {
                num_blocks: self.blocks,
                threads_per_block: (self.warps as u32) * WARP_SIZE,
                shared_mem_bytes: 0,
            }
        }
        fn emit_block(&self, block_id: usize, sink: &mut BlockSink<'_>) {
            for w in 0..self.warps {
                sink.begin_warp();
                sink.compute(self.cycles, WARP_SIZE);
                if self.bytes > 0 {
                    let offset = (block_id * self.warps + w) as u64 * self.bytes;
                    sink.global_read(ArrayId(0), offset, self.bytes);
                }
            }
        }
    }

    /// One block does 100x the work of the others.
    struct Imbalanced {
        blocks: usize,
    }

    impl Kernel for Imbalanced {
        fn name(&self) -> &str {
            "imbalanced"
        }
        fn grid(&self) -> GridConfig {
            GridConfig {
                num_blocks: self.blocks,
                threads_per_block: WARP_SIZE,
                shared_mem_bytes: 0,
            }
        }
        fn emit_block(&self, block_id: usize, sink: &mut BlockSink<'_>) {
            sink.begin_warp();
            sink.compute(if block_id == 0 { 100_000 } else { 1_000 }, WARP_SIZE);
        }
    }

    /// Every block hammers the same atomic address.
    struct HotAtomic {
        blocks: usize,
        per_block: u64,
    }

    impl Kernel for HotAtomic {
        fn name(&self) -> &str {
            "hot_atomic"
        }
        fn grid(&self) -> GridConfig {
            GridConfig {
                num_blocks: self.blocks,
                threads_per_block: WARP_SIZE,
                shared_mem_bytes: 0,
            }
        }
        fn emit_block(&self, _block_id: usize, sink: &mut BlockSink<'_>) {
            sink.begin_warp();
            sink.atomic_rmw(ArrayId(9), 0, 4, self.per_block);
        }
    }

    /// Blocks read overlapping windows of a shared array and hit a small
    /// pool of atomic counters — sensitive to both cache state ordering and
    /// hotspot-map merge order, which is what makes it a good determinism
    /// probe across thread counts.
    struct Windowed {
        blocks: usize,
    }

    impl Kernel for Windowed {
        fn name(&self) -> &str {
            "windowed"
        }
        fn grid(&self) -> GridConfig {
            GridConfig {
                num_blocks: self.blocks,
                threads_per_block: 2 * WARP_SIZE,
                shared_mem_bytes: 0,
            }
        }
        fn emit_block(&self, block_id: usize, sink: &mut BlockSink<'_>) {
            sink.begin_warp();
            sink.compute(200, WARP_SIZE);
            // 1 KB window sliding 256 B per block: each block re-reads 3/4
            // of its predecessor's lines.
            sink.global_read(ArrayId(1), block_id as u64 * 256, 1024);
            sink.begin_warp();
            let offsets: Vec<u64> = (0..WARP_SIZE as u64)
                .map(|lane| (block_id as u64 * 31 + lane * 97) % 8192)
                .collect();
            sink.global_read_scattered(ArrayId(1), &offsets, 4);
            sink.atomic_rmw(ArrayId(2), (block_id % 7) as u64 * 4, 4, 32);
            sink.sync();
        }
    }

    fn engine() -> Engine {
        Engine::new(GpuSpec::quadro_p6000())
    }

    /// Submits a kernel launch through the engine's shared context.
    fn launch(e: &Engine, k: &dyn Kernel) -> Result<KernelMetrics> {
        e.submit(&mut e.lock_context(), Workload::Kernel(k))
            .map(WorkloadMetrics::into_kernel)
    }

    /// Submits a roofline GEMM through the engine's shared context.
    fn gemm(e: &Engine, m: usize, n: usize, k: usize) -> KernelMetrics {
        e.submit(&mut e.lock_context(), Workload::Gemm { m, n, k })
            .expect("gemm workloads are infallible")
            .into_kernel()
    }

    #[test]
    fn deterministic_runs() {
        let e = engine();
        let k = Uniform {
            blocks: 64,
            warps: 4,
            cycles: 500,
            bytes: 4096,
        };
        let a = launch(&e, &k).unwrap();
        let b = launch(&e, &k).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn identical_across_thread_counts() {
        // The sharded engine must be bit-identical for any worker count,
        // including the serial fast path, on a kernel whose cache hits and
        // atomic hotspots are renumbering/order sensitive.
        let k = Windowed { blocks: 320 };
        let spec = GpuSpec::quadro_p6000();
        let at = |b: EngineBuilder| launch(&b.build().unwrap(), &k).unwrap();
        let serial = at(Engine::builder(spec.clone()).sim_threads(1));
        assert!(serial.l2_hits > 0, "probe kernel must exercise the cache");
        assert!(serial.atomic_ops > 0, "probe kernel must exercise atomics");
        for threads in [2, 3, 8] {
            let m = at(Engine::builder(spec.clone()).sim_threads(threads));
            assert_eq!(m, serial, "thread count {threads} changed the result");
        }
        let auto = at(Engine::builder(spec.clone()).sim_threads_auto());
        assert_eq!(auto, serial, "auto worker count changed the result");
    }

    #[test]
    fn builder_validates_at_build() {
        let spec = GpuSpec::quadro_p6000();
        // Zero is the deprecated setters' auto sentinel, not a worker count.
        let err = Engine::builder(spec.clone()).sim_threads(0).build();
        assert!(
            matches!(err, Err(GpuError::InvalidConfig { ref reason })
                if reason.contains("sim_threads_auto")),
            "{err:?}"
        );
        let err = Engine::builder(spec.clone())
            .sim_threads(MAX_SIM_THREADS + 1)
            .build();
        assert!(
            matches!(err, Err(GpuError::InvalidConfig { ref reason })
                if reason.contains("ceiling")),
            "{err:?}"
        );
        // Valid explicit and auto configurations build.
        assert_eq!(
            Engine::builder(spec.clone())
                .sim_threads(3)
                .build()
                .unwrap()
                .sim_threads(),
            3
        );
        let auto = Engine::builder(spec.clone())
            .sim_threads_auto()
            .build()
            .unwrap();
        assert_eq!(auto.sim_threads(), 0);
        // Host workers resolve `0` to the core count and keep explicit
        // counts; one worker is the serial path.
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(auto.host_workers(), cores);
        for threads in [1, 3] {
            let e = Engine::builder(spec.clone())
                .sim_threads(threads)
                .build()
                .unwrap();
            assert_eq!(e.host_workers(), threads);
        }
    }

    #[test]
    fn submit_matches_specialized_paths() {
        // One typed entry point, three workload shapes: results must be
        // identical to what the per-shape internals produce.
        let e = engine();
        let k = Windowed { blocks: 96 };
        let mut ctx = RunContext::new();
        let via_submit = e
            .submit(&mut ctx, Workload::Kernel(&k))
            .unwrap()
            .into_kernel();
        assert_eq!(via_submit, launch(&e, &k).unwrap());

        let g = e
            .submit(
                &mut ctx,
                Workload::Gemm {
                    m: 256,
                    n: 32,
                    k: 64,
                },
            )
            .unwrap();
        assert!(g.as_kernel().is_some());
        assert!(g.time_ms() > 0.0);

        let t = e
            .submit(&mut ctx, Workload::Transfer { bytes: 1 << 20 })
            .unwrap()
            .into_transfer();
        assert_eq!(t.bytes, 1 << 20);
        assert!(t.time_ms > 0.0);
    }

    #[test]
    fn sim_threads_env_values_are_guarded() {
        assert_eq!(parse_sim_threads("0"), Ok(0));
        assert_eq!(parse_sim_threads(" 8 "), Ok(8));
        assert_eq!(parse_sim_threads(""), Ok(0));
        assert_eq!(parse_sim_threads("4096"), Ok(MAX_SIM_THREADS));
        for garbage in ["banana", "-1", "3.5", "0x4", ""] {
            if garbage.is_empty() {
                continue;
            }
            let err = parse_sim_threads(garbage).expect_err(garbage);
            assert!(err.contains("non-negative integer"), "{err}");
            assert!(err.contains(garbage), "error must echo the value: {err}");
        }
        let err = parse_sim_threads("1000000").expect_err("oversized");
        assert!(err.contains("ceiling"), "{err}");
    }

    #[test]
    fn phases_partition_elapsed_exactly() {
        // Every limiter regime: compute-bound, bandwidth-bound,
        // atomic-bound, launch-bound, plus the GEMM path — in each, the
        // four phases must sum to the kernel's elapsed cycles.
        let e = engine();
        let runs = [
            launch(
                &e,
                &Uniform {
                    blocks: 64,
                    warps: 4,
                    cycles: 50_000,
                    bytes: 64,
                },
            )
            .unwrap(),
            launch(
                &e,
                &Uniform {
                    blocks: 64,
                    warps: 1,
                    cycles: 1,
                    bytes: 1 << 20,
                },
            )
            .unwrap(),
            launch(
                &e,
                &HotAtomic {
                    blocks: 64,
                    per_block: 10_000,
                },
            )
            .unwrap(),
            launch(
                &e,
                &Uniform {
                    blocks: 1,
                    warps: 1,
                    cycles: 1,
                    bytes: 0,
                },
            )
            .unwrap(),
            gemm(&e, 512, 64, 128),
        ];
        for m in &runs {
            assert_eq!(
                m.phases.total_cycles(),
                m.elapsed_cycles,
                "{}: {:?} vs elapsed {}",
                m.name,
                m.phases,
                m.elapsed_cycles
            );
        }
        // And the dominant phase matches the limiter classification.
        assert!(runs[0].phases.compute_cycles > runs[0].phases.dram_cycles);
        assert!(runs[1].phases.dram_cycles > runs[1].phases.compute_cycles);
        assert!(runs[2].phases.atomic_cycles > 0);
        assert_eq!(runs[3].phases.launch_cycles, e.spec().kernel_launch_cycles);
    }

    #[test]
    fn traces_are_byte_identical_across_thread_counts() {
        let spec = GpuSpec::quadro_p6000();
        let trace_of = |threads: Option<usize>| {
            let tracer = std::sync::Arc::new(crate::trace::TraceRecorder::new());
            let b = Engine::builder(spec.clone()).tracer(std::sync::Arc::clone(&tracer));
            let b = match threads {
                Some(n) => b.sim_threads(n),
                None => b.sim_threads_auto(),
            };
            let e = b.build().unwrap();
            launch(&e, &Windowed { blocks: 320 }).unwrap();
            gemm(&e, 256, 32, 64);
            e.submit(&mut e.lock_context(), Workload::Transfer { bytes: 1 << 20 })
                .unwrap();
            (tracer.to_chrome_json(), tracer.flame_report())
        };
        let serial = trace_of(Some(1));
        assert!(serial.0.contains("\"traceEvents\""));
        for threads in [Some(2), Some(4), Some(8), None] {
            assert_eq!(trace_of(threads), serial, "threads {threads:?}");
        }
        // Run-to-run stability at a fixed thread count too.
        assert_eq!(trace_of(Some(4)), trace_of(Some(4)));
    }

    #[test]
    fn submitting_a_kept_price_traces_like_a_fresh_submit() {
        let traced = || {
            let tracer = std::sync::Arc::new(crate::trace::TraceRecorder::new());
            let e = Engine::builder(GpuSpec::quadro_p6000())
                .sim_threads(2)
                .tracer(std::sync::Arc::clone(&tracer))
                .build()
                .unwrap();
            (e, tracer)
        };
        let kernel = Windowed { blocks: 320 };
        let other = Windowed { blocks: 40 };
        for workload in [
            Workload::Kernel(&kernel),
            Workload::Gemm {
                m: 256,
                n: 32,
                k: 64,
            },
            Workload::Transfer { bytes: 1 << 20 },
        ] {
            let (fresh, fresh_trace) = traced();
            let (kept, kept_trace) = traced();
            let clean = kept.price(&mut kept.lock_context(), workload).unwrap();
            assert!(kept_trace.is_empty(), "pricing records nothing");
            for _ in 0..2 {
                // Another launch through the shared context between the
                // pricing and each submission.
                for e in [&fresh, &kept] {
                    e.submit(&mut e.lock_context(), Workload::Kernel(&other))
                        .unwrap();
                }
                let want = fresh.submit(&mut fresh.lock_context(), workload).unwrap();
                assert_eq!(kept.submit_price(&clean).unwrap(), want, "{workload:?}");
                assert_eq!(
                    kept_trace.to_chrome_json(),
                    fresh_trace.to_chrome_json(),
                    "{workload:?}"
                );
            }
        }
        // The kernel's rows were kept: one span per shard of its launch.
        let (e, tracer) = traced();
        let clean = e
            .price(&mut e.lock_context(), Workload::Kernel(&kernel))
            .unwrap();
        e.submit_price(&clean).unwrap();
        let shards = tracer
            .events()
            .iter()
            .filter(|ev| ev.kind == crate::trace::SpanKind::ShardChunk)
            .count();
        assert!(shards > 1, "{shards} shard spans");
    }

    #[test]
    fn untraced_engine_records_nothing() {
        let e = engine();
        assert!(e.tracer().is_none());
        let m = launch(&e, &Windowed { blocks: 32 }).unwrap();
        // Tracing off must not change metrics vs a traced engine.
        let tracer = std::sync::Arc::new(crate::trace::TraceRecorder::new());
        let traced = Engine::builder(GpuSpec::quadro_p6000())
            .tracer(std::sync::Arc::clone(&tracer))
            .build()
            .unwrap();
        let mt = launch(&traced, &Windowed { blocks: 32 }).unwrap();
        assert_eq!(m, mt, "tracing must be observation-only");
        assert!(!tracer.is_empty());
    }

    #[test]
    fn context_reuse_is_transparent() {
        // Interleaving other kernels through the same shared context must
        // not leak state into a repeated launch.
        let e = engine();
        let k = Windowed { blocks: 200 };
        let first = launch(&e, &k).unwrap();
        launch(
            &e,
            &Uniform {
                blocks: 70,
                warps: 3,
                cycles: 123,
                bytes: 512,
            },
        )
        .unwrap();
        launch(
            &e,
            &HotAtomic {
                blocks: 60,
                per_block: 50,
            },
        )
        .unwrap();
        let again = launch(&e, &k).unwrap();
        assert_eq!(first, again);
        // A clone shares the context and still reproduces the result.
        assert_eq!(launch(&e.clone(), &k).unwrap(), first);
    }

    #[test]
    fn explicit_context_matches_engine_context() {
        let e = engine();
        let k = Windowed { blocks: 128 };
        let mut ctx = RunContext::new();
        let via_fresh = e
            .submit(&mut ctx, Workload::Kernel(&k))
            .unwrap()
            .into_kernel();
        let via_engine = launch(&e, &k).unwrap();
        assert_eq!(via_fresh, via_engine);
        // Reusing the explicit context is also transparent.
        assert_eq!(
            e.submit(&mut ctx, Workload::Kernel(&k))
                .unwrap()
                .into_kernel(),
            via_fresh
        );
    }

    #[test]
    fn more_work_takes_longer() {
        let e = engine();
        let small = launch(
            &e,
            &Uniform {
                blocks: 30,
                warps: 2,
                cycles: 1_000,
                bytes: 0,
            },
        )
        .unwrap();
        let big = launch(
            &e,
            &Uniform {
                blocks: 300,
                warps: 2,
                cycles: 1_000,
                bytes: 0,
            },
        )
        .unwrap();
        assert!(big.elapsed_cycles > small.elapsed_cycles);
    }

    #[test]
    fn blocks_spread_across_sms() {
        let e = engine();
        // 30 identical blocks on 30 SMs should take about one block's time.
        let one = launch(
            &e,
            &Uniform {
                blocks: 1,
                warps: 1,
                cycles: 10_000,
                bytes: 0,
            },
        )
        .unwrap();
        let thirty = launch(
            &e,
            &Uniform {
                blocks: 30,
                warps: 1,
                cycles: 10_000,
                bytes: 0,
            },
        )
        .unwrap();
        assert!(
            thirty.elapsed_cycles < one.elapsed_cycles * 2,
            "30 blocks must run concurrently: {} vs {}",
            thirty.elapsed_cycles,
            one.elapsed_cycles
        );
    }

    #[test]
    fn imbalance_lowers_sm_efficiency() {
        let e = engine();
        let balanced = launch(
            &e,
            &Uniform {
                blocks: 60,
                warps: 1,
                cycles: 10_000,
                bytes: 0,
            },
        )
        .unwrap();
        let skewed = launch(&e, &Imbalanced { blocks: 60 }).unwrap();
        assert!(
            skewed.sm_efficiency < balanced.sm_efficiency * 0.5,
            "skewed {} vs balanced {}",
            skewed.sm_efficiency,
            balanced.sm_efficiency
        );
    }

    #[test]
    fn atomic_hotspot_bounds_kernel() {
        let e = engine();
        let cold = launch(
            &e,
            &HotAtomic {
                blocks: 1,
                per_block: 10,
            },
        )
        .unwrap();
        let hot = launch(
            &e,
            &HotAtomic {
                blocks: 60,
                per_block: 1_000,
            },
        )
        .unwrap();
        assert_eq!(hot.atomic_ops, 60_000);
        assert!(hot.atomic_serialization_cycles > 0);
        // 60k serialized atomics must dominate elapsed time.
        assert!(hot.elapsed_cycles > cold.elapsed_cycles * 50);
        let floor = 60_000 * e.spec().atomic_serialize_cycles;
        assert!(
            hot.elapsed_cycles >= floor,
            "{} < {floor}",
            hot.elapsed_cycles
        );
    }

    #[test]
    fn bandwidth_bound_applies() {
        let e = engine();
        // 1 block streaming 100 MB with trivial compute: elapsed must be at
        // least bytes / device bandwidth.
        let k = Uniform {
            blocks: 256,
            warps: 4,
            cycles: 1,
            bytes: 400_000,
        };
        let m = launch(&e, &k).unwrap();
        let min_cycles = (m.dram_bytes() as f64 / e.spec().dram_bytes_per_cycle()) as u64;
        assert!(m.elapsed_cycles >= min_cycles);
        assert!(m.dram_read_bytes >= 256 * 4 * 400_000 - e.spec().line_bytes as u64 * 1024);
    }

    #[test]
    fn v100_beats_p6000_on_same_kernel() {
        let k = Uniform {
            blocks: 320,
            warps: 8,
            cycles: 2_000,
            bytes: 65_536,
        };
        let p = launch(&Engine::new(GpuSpec::quadro_p6000()), &k).unwrap();
        let v = launch(&Engine::new(GpuSpec::tesla_v100()), &k).unwrap();
        assert!(
            v.time_ms < p.time_ms,
            "V100 ({} ms) must outrun P6000 ({} ms)",
            v.time_ms,
            p.time_ms
        );
    }

    #[test]
    fn gemm_costs_scale_with_flops() {
        let e = engine();
        let small = gemm(&e, 1000, 16, 16);
        let big = gemm(&e, 1000, 256, 256);
        // 256x the FLOPs; launch overhead damps the ratio at this size.
        assert!(big.time_ms > small.time_ms * 4.0);
        assert!(small.sm_efficiency > 0.5);
    }

    #[test]
    fn empty_grid_rejected() {
        let e = engine();
        let k = Uniform {
            blocks: 0,
            warps: 1,
            cycles: 1,
            bytes: 0,
        };
        assert!(launch(&e, &k).is_err());
    }

    #[test]
    fn limiter_classification() {
        let e = engine();
        // Tiny kernel: launch-bound.
        let tiny = launch(
            &e,
            &Uniform {
                blocks: 1,
                warps: 1,
                cycles: 10,
                bytes: 0,
            },
        )
        .unwrap();
        assert_eq!(tiny.limiter, crate::metrics::Limiter::LaunchOverhead);
        // Pure compute: SM-time-bound.
        let compute = launch(
            &e,
            &Uniform {
                blocks: 600,
                warps: 8,
                cycles: 50_000,
                bytes: 0,
            },
        )
        .unwrap();
        assert_eq!(compute.limiter, crate::metrics::Limiter::SmTime);
        // Atomic hammer: atomic-hotspot-bound.
        let hot = launch(
            &e,
            &HotAtomic {
                blocks: 60,
                per_block: 5_000,
            },
        )
        .unwrap();
        assert_eq!(hot.limiter, crate::metrics::Limiter::AtomicHotspot);
    }

    #[test]
    fn faulted_submissions_return_typed_errors() {
        use crate::fault::{FaultConfig, FaultKind, FaultPlan};
        let plan = Arc::new(
            FaultPlan::new(FaultConfig {
                transfer_fail_prob: 1.0,
                seed: 3,
                ..FaultConfig::default()
            })
            .unwrap(),
        );
        let e = Engine::builder(GpuSpec::quadro_p6000())
            .fault_plan(Arc::clone(&plan))
            .build()
            .unwrap();
        let mut ctx = RunContext::new();
        let err = e
            .submit(&mut ctx, Workload::Transfer { bytes: 1 << 20 })
            .unwrap_err();
        assert_eq!(
            err,
            GpuError::Fault {
                kind: FaultKind::TransferFailure,
                op: "transfer".into(),
            }
        );
        // Kernels sail through a transfer-only fault config.
        assert!(e
            .submit(
                &mut ctx,
                Workload::Gemm {
                    m: 256,
                    n: 32,
                    k: 64
                }
            )
            .is_ok());
        // The failed transfer still consumed an op index (burned time).
        assert_eq!(plan.op_count(), 2);
    }

    #[test]
    fn slowdown_stretches_metrics_and_keeps_phases_exact() {
        use crate::fault::{FaultConfig, FaultPlan};
        let spec = GpuSpec::quadro_p6000();
        let clean = launch(&Engine::new(spec.clone()), &Windowed { blocks: 96 }).unwrap();
        let plan = Arc::new(
            FaultPlan::new(FaultConfig {
                kernel_slow_prob: 1.0,
                kernel_slow_factor: 3.0,
                seed: 11,
                ..FaultConfig::default()
            })
            .unwrap(),
        );
        let e = Engine::builder(spec).fault_plan(plan).build().unwrap();
        let slow = launch(&e, &Windowed { blocks: 96 }).unwrap();
        assert_eq!(slow.elapsed_cycles, clean.elapsed_cycles * 3);
        assert_eq!(
            slow.phases.total_cycles(),
            slow.elapsed_cycles,
            "stretch must keep the phase partition exact"
        );
        assert!((slow.time_ms - clean.time_ms * 3.0).abs() < 1e-9);
        assert!((slow.sm_efficiency - clean.sm_efficiency / 3.0).abs() < 1e-12);
        // The slowdown changes only time attribution, not counted work.
        assert_eq!(slow.dram_read_bytes, clean.dram_read_bytes);
        assert_eq!(slow.l2_hits, clean.l2_hits);
        assert_eq!(slow.atomic_ops, clean.atomic_ops);
    }

    #[test]
    fn device_reset_kills_the_op_crossing_the_instant() {
        use crate::fault::{FaultConfig, FaultKind, FaultPlan};
        let e = Engine::new(GpuSpec::quadro_p6000());
        let mut ctx = RunContext::new();
        let one = e
            .submit(&mut ctx, Workload::Transfer { bytes: 8 << 20 })
            .unwrap()
            .time_ms();
        // Reset midway through the third transfer.
        let plan = Arc::new(
            FaultPlan::new(FaultConfig {
                device_reset_ms: Some(one * 2.5),
                ..FaultConfig::default()
            })
            .unwrap(),
        );
        let chaotic = Engine::builder(GpuSpec::quadro_p6000())
            .fault_plan(plan)
            .build()
            .unwrap();
        for i in 0..2 {
            assert!(
                chaotic
                    .submit(&mut ctx, Workload::Transfer { bytes: 8 << 20 })
                    .is_ok(),
                "transfer {i} precedes the reset"
            );
        }
        let err = chaotic
            .submit(&mut ctx, Workload::Transfer { bytes: 8 << 20 })
            .unwrap_err();
        assert_eq!(
            err,
            GpuError::Fault {
                kind: FaultKind::DeviceReset,
                op: "transfer".into(),
            }
        );
        // The device recovers: the reset fires once.
        assert!(chaotic
            .submit(&mut ctx, Workload::Transfer { bytes: 8 << 20 })
            .is_ok());
    }

    #[test]
    fn fault_sequences_are_identical_across_thread_counts() {
        use crate::fault::{FaultConfig, FaultPlan};
        let spec = GpuSpec::quadro_p6000();
        let cfg = FaultConfig {
            transfer_fail_prob: 0.4,
            kernel_slow_prob: 0.3,
            kernel_slow_factor: 2.0,
            kernel_timeout_prob: 0.3,
            seed: 77,
            ..FaultConfig::default()
        };
        let outcomes_at = |threads: usize| {
            let e = Engine::builder(spec.clone())
                .sim_threads(threads)
                .fault_plan(Arc::new(FaultPlan::new(cfg.clone()).unwrap()))
                .build()
                .unwrap();
            let mut ctx = RunContext::new();
            let k = Windowed { blocks: 160 };
            (0..40)
                .map(|i| {
                    let workload = match i % 3 {
                        0 => Workload::Kernel(&k),
                        1 => Workload::Gemm {
                            m: 128,
                            n: 16,
                            k: 32,
                        },
                        _ => Workload::Transfer { bytes: 1 << 18 },
                    };
                    match e.submit(&mut ctx, workload) {
                        Ok(m) => format!("ok {:.6}", m.time_ms()),
                        Err(err) => format!("err {err}"),
                    }
                })
                .collect::<Vec<String>>()
        };
        let serial = outcomes_at(1);
        assert!(serial.iter().any(|o| o.starts_with("err")));
        assert!(serial.iter().any(|o| o.starts_with("ok")));
        assert_eq!(
            outcomes_at(4),
            serial,
            "fault sequence must not depend on workers"
        );
    }

    #[test]
    fn launch_overhead_floor() {
        let e = engine();
        let m = launch(
            &e,
            &Uniform {
                blocks: 1,
                warps: 1,
                cycles: 1,
                bytes: 0,
            },
        )
        .unwrap();
        assert!(m.elapsed_cycles >= e.spec().kernel_launch_cycles);
    }
}
