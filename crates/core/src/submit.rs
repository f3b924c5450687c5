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

/// Prices one roofline GEMM on the engine's shared context. Under a
/// fault plan the GEMM can draw a fault, which comes back as the error.
pub(crate) fn gemm(
    engine: &Engine,
    m: usize,
    n: usize,
    k: usize,
) -> gnnadvisor_gpu::Result<KernelMetrics> {
    engine
        .submit(&mut engine.lock_context(), Workload::Gemm { m, n, k })
        .map(WorkloadMetrics::into_kernel)
}

/// Prices one host↔device copy on the engine's shared context. Under a
/// fault plan the copy can draw a fault, which comes back as the error.
pub(crate) fn transfer(engine: &Engine, bytes: u64) -> gnnadvisor_gpu::Result<TransferMetrics> {
    engine
        .submit(&mut engine.lock_context(), Workload::Transfer { bytes })
        .map(WorkloadMetrics::into_transfer)
}
