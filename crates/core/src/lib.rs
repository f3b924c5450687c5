//! The GNNAdvisor runtime (the paper's primary contribution).
//!
//! Pipeline, mirroring Figure 1 of the paper:
//!
//! 1. **Input extractor** ([`input`]) squeezes input-level information out
//!    of the graph and the GNN architecture: node count, edge count, degree
//!    mean/stddev, embedding dimensionality, aggregation order.
//! 2. **Performance evaluator** ([`tuning`]) turns that information into
//!    runtime parameters — group size `gs`, threads-per-block `tpb`,
//!    dimension workers `dw` — either analytically (Section 7.1, Eq. 2–4)
//!    or with the evolutionary *Estimating* search (Section 7.2).
//! 3. **Kernel & runtime crafter** ([`workload`], [`memory`], [`kernels`])
//!    builds the group-based workload (Section 5), the block-aware shared
//!    memory layout (Section 6.2, Algorithm 1), optionally applies
//!    community-aware node renumbering (Section 6.1), and launches the
//!    GNNAdvisor aggregation kernel on the simulated GPU.
//!
//! The same crate also implements every baseline execution strategy the
//! paper compares against ([`kernels`], [`frameworks`]): node-centric and
//! edge-centric aggregation (Figure 4), DGL-style fused SpMM, PyG-style
//! scatter–gather, GunRock-style frontier advance, and NeuGraph-style SAGA
//! chunk streaming — all running on the same simulator so comparisons are
//! apples-to-apples.
//!
//! Numerical semantics are implemented separately in [`compute`]: kernels
//! are cost emitters, while [`compute`] produces the actual aggregation
//! values; property tests assert the grouped execution order computes
//! exactly what the sequential reference does.

#![deny(unsafe_code)]

pub mod cluster;
pub mod compute;
pub mod dynamic;
pub mod frameworks;
pub mod input;
pub mod kernels;
pub mod memory;
pub mod minibatch;
pub mod multi_gpu;
pub mod runtime;
pub mod serving;
mod submit;
pub mod tuning;
pub mod workload;

pub use frameworks::Framework;
pub use input::{AggOrder, InputInfo};
pub use runtime::{Advisor, AdvisorConfig};
pub use tuning::params::RuntimeParams;
pub use workload::group::NeighborGroup;

/// SplitMix64 finalizer: the seeded draw behind tenant assignment, retry
/// jitter and the autoscaler's phase. It mirrors the fault plan's draw,
/// so every seeded choice comes from the same well-mixed family.
#[inline]
pub(crate) fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The unified error type of the runtime stack: one public enum with one
/// variant per layer (graph, tensor, gpu, runtime params, serving), so no
/// stringly-typed error crosses a crate boundary. The facade crate
/// re-exports this as its root error type.
#[derive(Debug)]
pub enum CoreError {
    /// Invalid runtime parameters (e.g. zero group size).
    InvalidParams {
        /// Human-readable description.
        reason: String,
    },
    /// Propagated graph-substrate error.
    Graph(gnnadvisor_graph::GraphError),
    /// Propagated simulator error.
    Gpu(gnnadvisor_gpu::GpuError),
    /// Propagated tensor error.
    Tensor(gnnadvisor_tensor::TensorError),
    /// Invalid serving configuration (queue, batcher, or arrival policy).
    Serving {
        /// Human-readable description.
        reason: String,
    },
}

impl core::fmt::Display for CoreError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CoreError::InvalidParams { reason } => write!(f, "invalid runtime params: {reason}"),
            CoreError::Graph(e) => write!(f, "graph error: {e}"),
            CoreError::Gpu(e) => write!(f, "gpu error: {e}"),
            CoreError::Tensor(e) => write!(f, "tensor error: {e}"),
            CoreError::Serving { reason } => write!(f, "serving error: {reason}"),
        }
    }
}

impl std::error::Error for CoreError {}

impl From<gnnadvisor_graph::GraphError> for CoreError {
    fn from(e: gnnadvisor_graph::GraphError) -> Self {
        CoreError::Graph(e)
    }
}

impl From<gnnadvisor_gpu::GpuError> for CoreError {
    fn from(e: gnnadvisor_gpu::GpuError) -> Self {
        CoreError::Gpu(e)
    }
}

impl From<gnnadvisor_tensor::TensorError> for CoreError {
    fn from(e: gnnadvisor_tensor::TensorError) -> Self {
        CoreError::Tensor(e)
    }
}

/// Crate-local result alias.
pub type Result<T> = core::result::Result<T, CoreError>;
