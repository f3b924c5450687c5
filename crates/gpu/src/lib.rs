//! Deterministic event-level GPU execution simulator.
//!
//! This crate is the reproduction's substitute for physical CUDA hardware
//! (the paper evaluates on a Quadro P6000 and a Tesla V100). Kernels are
//! expressed as *op-stream emitters*: for every thread block they emit a
//! per-warp sequence of abstract operations (compute, global reads/writes,
//! shared-memory traffic, atomics, barriers). The [`engine::Engine`]
//! consumes the stream and produces [`metrics::KernelMetrics`] with the
//! same quantities the paper measures via NVProf:
//!
//! - elapsed cycles / milliseconds,
//! - DRAM read/write bytes (through a set-associative LRU cache),
//! - cache hit rate,
//! - atomic-operation counts and serialization stalls,
//! - SM efficiency (useful issue cycles over elapsed × #SMs).
//!
//! Everything architectural that the paper's optimizations exploit is
//! modeled: warp lockstep (divergence costs the max over lanes), memory
//! coalescing (uncoalesced warps issue per-lane transactions), per-block
//! shared memory with capacity limits, atomic contention hotspots, block →
//! SM scheduling with tail imbalance, and host↔device transfers for
//! streaming baselines. Nothing is sampled from a clock or an unseeded RNG:
//! identical inputs produce identical metrics.

#![deny(unsafe_code)]

pub mod cache;
pub mod context;
pub mod device;
pub mod engine;
pub mod fault;
pub mod kernel;
pub mod metrics;
pub mod spec;
pub mod stream;
pub mod trace;
pub mod transfer;

pub use context::RunContext;
pub use device::{BlockDemand, CommandProcessor, Retirement, RetirementQueue, SmUsage};
pub use engine::{
    parse_sim_threads, CleanPrice, Engine, EngineBuilder, Workload, WorkloadMetrics,
    MAX_SIM_THREADS,
};
pub use fault::{FaultConfig, FaultKind, FaultPlan};
pub use kernel::{ArrayId, BlockSink, GridConfig, Kernel};
pub use metrics::{HitRateWindow, KernelMetrics, Limiter, PhaseBreakdown, RunMetrics};
pub use spec::{BlockResources, BlocksPerSm, GpuSpec, DEFAULT_REGS_PER_THREAD};
pub use stream::{
    Enqueued, OpClass, OpHandle, OpSpan, PricedOp, StreamId, StreamReport, StreamSim,
};
pub use trace::{ArgValue, SpanKind, TraceEvent, TraceRecorder};
pub use transfer::TransferMetrics;

/// Errors produced by the simulated device: invalid launch configurations,
/// invalid engine configurations, and stream-scheduling faults.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GpuError {
    /// `threads_per_block` exceeds the device maximum or is zero.
    InvalidBlockSize {
        /// Requested threads per block.
        requested: u32,
        /// Device maximum.
        max: u32,
    },
    /// Requested per-block shared memory exceeds the device limit.
    SharedMemoryOverflow {
        /// Requested bytes per block.
        requested: usize,
        /// Device limit in bytes.
        limit: usize,
    },
    /// The grid is empty (zero blocks).
    EmptyGrid,
    /// An [`EngineBuilder`] option (or environment override) is invalid.
    InvalidConfig {
        /// What was wrong with the configuration.
        reason: String,
    },
    /// An operation referenced a stream id this simulator never issued.
    UnknownStream {
        /// The offending stream id.
        id: usize,
    },
    /// The stream schedule cannot make progress: ops remain, but none can
    /// ever start — for example a kernel whose block needs more of an SM
    /// than the simulator's spec has (a price drawn into a simulator over
    /// a smaller device), so no block is ever admitted.
    StreamDeadlock {
        /// One blocked stream id (the lowest, for determinism).
        stream: usize,
    },
    /// An injected fault from the engine's [`fault::FaultPlan`] killed an
    /// op. The op still burned its priced time on the simulated clock
    /// before failing.
    Fault {
        /// What kind of fault fired.
        kind: fault::FaultKind,
        /// Name of the op that died (kernel name, `"gemm"`, or
        /// `"transfer"`).
        op: String,
    },
}

impl core::fmt::Display for GpuError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            GpuError::InvalidBlockSize { requested, max } => {
                write!(f, "invalid block size {requested} (device max {max})")
            }
            GpuError::SharedMemoryOverflow { requested, limit } => {
                write!(
                    f,
                    "shared memory request {requested} B exceeds per-block limit {limit} B"
                )
            }
            GpuError::EmptyGrid => write!(f, "kernel launched with an empty grid"),
            GpuError::InvalidConfig { reason } => {
                write!(f, "invalid engine configuration: {reason}")
            }
            GpuError::UnknownStream { id } => write!(f, "unknown stream id {id}"),
            GpuError::StreamDeadlock { stream } => {
                write!(
                    f,
                    "stream schedule deadlocked: stream {stream} holds an op that can \
                     never start (a kernel block no SM of the device can admit)"
                )
            }
            GpuError::Fault { kind, op } => {
                write!(f, "injected {kind} fault killed op `{op}`")
            }
        }
    }
}

impl std::error::Error for GpuError {}

/// Crate-local result alias.
pub type Result<T> = core::result::Result<T, GpuError>;
