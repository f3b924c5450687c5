//! Two compiled bodies of the hot host kernels, from one source.
//!
//! The workspace builds for baseline x86-64, where LLVM vectorizes with
//! 4-lane SSE2. The GEMM micro-kernel ([`crate::gemm`](mod@crate::gemm)) and the host
//! aggregation row kernel (`gnnadvisor-core`'s `compute`) are written
//! once as a [`Kernel`] and compiled twice by [`Body::run`]: once at the
//! baseline and once inside a `#[target_feature(enable = "avx2")]`
//! frame, where the same loops use the 8-lane units. Each call picks its
//! body once, on the calling thread, with [`Body::detect`]; other
//! architectures compile only the baseline body.
//!
//! The two bodies give the same bits. A kernel's source fixes every
//! element's operations and their order (ascending `k`, or the CSR
//! neighbours then the self term, each a multiply then an add), and
//! vector width changes how many elements one instruction computes, not
//! what any element computes. FMA is deliberately not enabled: a fused
//! multiply-add rounds once where the contract rounds twice, so it would
//! change the bits.
//!
//! # Safety boundary
//!
//! Calling a `target_feature` function from code built without that
//! feature is `unsafe`: on a CPU without the feature its instructions
//! fault. The one such call is in [`Body::run`], and it is sound because
//! a [`Body`] that names AVX2 is only ever made by [`Body::detect`],
//! after `is_x86_feature_detected!("avx2")` held on this CPU.

/// A kernel body compiled once per [`Body`].
///
/// Implementations must mark [`Kernel::compute`] `#[inline(always)]`,
/// and everything it calls in the hot loop too, and reach no part of
/// the hot loop through a function pointer or a `dyn` call: only code
/// inlined into [`Body::run`]'s frame is compiled for that frame's
/// target features.
pub trait Kernel {
    /// What the kernel returns.
    type Output;

    /// Runs the kernel.
    fn compute(self) -> Self::Output;
}

/// Which compiled body of a [`Kernel`] a call runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Body(Level);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Level {
    Baseline,
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    Avx2,
}

impl Body {
    /// The widest body this CPU runs: AVX2 where it is detected, the
    /// baseline otherwise.
    pub fn detect() -> Self {
        #[cfg(test)]
        if tests::BASELINE.with(std::cell::Cell::get) {
            return Self::baseline();
        }
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        if std::arch::is_x86_feature_detected!("avx2") {
            return Body(Level::Avx2);
        }
        Self::baseline()
    }

    /// The baseline body, which runs on every CPU of the target.
    pub fn baseline() -> Self {
        Body(Level::Baseline)
    }

    /// The body's name: `"avx2"` or `"baseline"`.
    pub fn name(self) -> &'static str {
        match self.0 {
            Level::Baseline => "baseline",
            #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
            Level::Avx2 => "avx2",
        }
    }

    /// Runs `kernel` compiled for this body.
    #[inline(always)]
    #[allow(unsafe_code)]
    pub fn run<K: Kernel>(self, kernel: K) -> K::Output {
        match self.0 {
            Level::Baseline => kernel.compute(),
            // SAFETY: AVX2 was detected on this CPU: a `Body` holding
            // `Level::Avx2` is only made by `Body::detect`, after
            // `is_x86_feature_detected!("avx2")`.
            #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
            Level::Avx2 => unsafe { avx2(kernel) },
        }
    }
}

/// `kernel` compiled with AVX2: its `#[inline(always)]` body is inlined
/// into this frame and vectorized with the 8-lane units. Only a CPU with
/// AVX2 may call it.
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
#[target_feature(enable = "avx2")]
fn avx2<K: Kernel>(kernel: K) -> K::Output {
    kernel.compute()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::cell::Cell;

    thread_local! {
        /// Whether [`Body::detect`] returns the baseline body on this
        /// thread, false unless a test sets it through [`with_baseline`].
        pub(crate) static BASELINE: Cell<bool> = const { Cell::new(false) };
    }

    /// Runs `f` with every call on this thread taking the baseline body,
    /// so the exactness oracles cover it on a CPU with AVX2 too. A call
    /// picks its body on the calling thread, so this covers the pool
    /// helpers its row chunks run on.
    pub(crate) fn with_baseline<T>(f: impl FnOnce() -> T) -> T {
        let previous = BASELINE.with(|b| b.replace(true));
        let out = f();
        BASELINE.with(|b| b.set(previous));
        out
    }

    /// Runs `f` once per body this CPU has, the detected one first,
    /// passing the body's name.
    pub(crate) fn for_each_body(mut f: impl FnMut(&str)) {
        let detected = Body::detect();
        f(detected.name());
        if detected != Body::baseline() {
            with_baseline(|| f(Body::baseline().name()));
        }
    }

    /// Detection finds AVX2 where the CPU has it, so the default tests
    /// run the AVX2 body there, and the hook still forces the baseline.
    #[test]
    fn the_hook_forces_the_baseline_body() {
        with_baseline(|| assert_eq!(Body::detect(), Body::baseline()));
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            assert_eq!(Body::detect().name(), "avx2");
        }
    }
}
