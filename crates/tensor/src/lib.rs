//! Dense linear-algebra substrate for the GNN **update** phase.
//!
//! GNN layers interleave sparse aggregation (handled by the GPU-simulated
//! kernels in `gnnadvisor-core`) with dense NN operations — the paper calls
//! these DGEMM / MLP updates and notes they are "well-suited for GPU-based
//! acceleration" via cuBLAS. This crate supplies the numerical side:
//! a row-major [`Matrix`], a register-tiled [`gemm`] (plus [`gemm_tn`] /
//! [`gemm_nt`] for transposed operands, through the same micro-kernel:
//! the right operand packed into zero-padded 16-wide column panels, a
//! 2 × 16 output tile kept in registers across k-blocks of up to 256
//! products), element-wise [`ops`],
//! [`linear::Linear`] layers and [`mlp::Mlp`] stacks with deterministic
//! Xavier initialization.
//!
//! The *timing* of the update phase on the simulated GPU is modeled by
//! `gnnadvisor-gpu`'s GEMM cost model; this crate computes the actual
//! numbers so that end-to-end model outputs are real and testable.
//!
//! The numbers are computed row-parallel: [`par::for_each_row_chunk`]
//! splits an output into contiguous chunks of whole rows over a caller's
//! worker count and runs them on [`par::run`], the process-wide pool of
//! persistent helper threads that `gnnadvisor-gpu`'s sharded block loop
//! shares ([`gemm_par`], [`gemm_tn`], [`gemm_nt`],
//! [`Linear::forward`], [`Mlp::forward`], and the host aggregations of
//! `gnnadvisor-core`). Each element keeps the plain triple loop's
//! accumulation order (ascending `k`, separate multiply and add, zero
//! entries of the left operand skipped) whatever tile, k-block or chunk it
//! lands in, so results are bitwise equal at any worker count;
//! calls below [`par::MIN_WORK_PER_WORKER`] per worker stay on the
//! calling thread. [`gemm()`] and [`gemm_into`] are the one-worker calls.

#![deny(unsafe_code)]

pub mod gemm;
pub mod init;
pub mod linear;
pub mod matrix;
pub mod mlp;
pub mod ops;
pub mod par;

pub use gemm::{gemm, gemm_into, gemm_nt, gemm_par, gemm_tn};
pub use linear::Linear;
pub use matrix::Matrix;
pub use mlp::Mlp;

/// Errors produced by shape-checked tensor operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TensorError {
    /// Operand shapes are incompatible for the requested operation.
    ShapeMismatch {
        /// Human-readable description including the offending shapes.
        context: String,
    },
}

impl core::fmt::Display for TensorError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            TensorError::ShapeMismatch { context } => write!(f, "shape mismatch: {context}"),
        }
    }
}

impl std::error::Error for TensorError {}

/// Crate-local result alias.
pub type Result<T> = core::result::Result<T, TensorError>;
