//! Crate-internal shorthands over the typed submission API.
//!
//! Every device interaction in this crate goes through
//! [`Engine::submit`], apart from the `Advisor`'s kept aggregation prices
//! ([`Engine::submit_price`]); these helpers only fold the recurring
//! lock-context / wrap-workload / unwrap-metrics dance into one call so
//! pricing sites stay readable.

use gnnadvisor_gpu::{Engine, Kernel, KernelMetrics, TransferMetrics, Workload, WorkloadMetrics};

/// Prices one kernel launch on the engine's shared context.
pub(crate) fn launch(
    engine: &Engine,
    kernel: &dyn Kernel,
) -> gnnadvisor_gpu::Result<KernelMetrics> {
    engine
        .submit(&mut engine.lock_context(), Workload::Kernel(kernel))
        .map(WorkloadMetrics::into_kernel)
}

/// Prices one roofline GEMM on the engine's shared context.
pub(crate) fn gemm(engine: &Engine, m: usize, n: usize, k: usize) -> KernelMetrics {
    engine
        .submit(&mut engine.lock_context(), Workload::Gemm { m, n, k })
        .expect("gemm workloads are infallible")
        .into_kernel()
}

/// Prices one host↔device copy on the engine's shared context.
pub(crate) fn transfer(engine: &Engine, bytes: u64) -> TransferMetrics {
    engine
        .submit(&mut engine.lock_context(), Workload::Transfer { bytes })
        .expect("transfer workloads are infallible")
        .into_transfer()
}
