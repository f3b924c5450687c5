//! Every metric the benchmark prints: name, unit, clock and direction.
//!
//! The end-to-end list is printed by the untraced run (`--trace 0`), the
//! per-layer list by the traced run (`--trace 1`). Each workload prints
//! every name of its list: a layer a workload never calls reads 0.

/// Which clock a metric is measured on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Wall time (or memory) of the Rust program on the host; noisy.
    Host,
    /// The modelled GPU or another deterministic count: repeats exactly
    /// for equal inputs.
    Sim,
}

impl Clock {
    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            Clock::Host => "host",
            Clock::Sim => "sim",
        }
    }
}

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric definition.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub clock: Clock,
    pub better: Better,
}

const fn def(name: &'static str, unit: &'static str, clock: Clock, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        clock,
        better,
    }
}

use Better::{Higher, Lower};
use Clock::{Host, Sim};

/// End-to-end metrics, printed by every workload's untraced run.
pub const END_TO_END: &[MetricDef] = &[
    def("setup_s", "s", Host, Lower),
    def("ops_per_s", "1/s", Host, Higher),
    def("peak_rss_mb", "MB", Host, Lower),
    def("sim_forward_ms", "ms", Sim, Lower),
    def("sim_speedup_vs_dgl", "x", Sim, Higher),
    def("sim_p99_ms", "ms", Sim, Lower),
    def("sim_goodput_rps", "1/s", Sim, Higher),
    def("sim_epoch_ms", "ms", Sim, Lower),
];

/// Per-layer metrics, printed by every workload's traced run.
pub const PER_LAYER: &[MetricDef] = &[
    // The traced run's own end-to-end numbers: the difference to the
    // untraced run is the tracing overhead.
    def("traced.setup_s", "s", Host, Lower),
    def("traced.ops_per_s", "1/s", Host, Higher),
    // datasets / graph::generators
    def("gen.graph_ms", "ms", Host, Lower),
    // core::tuning
    def("tuning.tune_ms", "ms", Host, Lower),
    def("tuning.engine_evals", "count", Sim, Lower),
    def("tuning.memo_hit_ratio", "ratio", Sim, Higher),
    // graph::community and graph::reorder
    def("louvain.ms", "ms", Host, Lower),
    def("louvain.levels", "count", Sim, Lower),
    def("louvain.modularity", "ratio", Sim, Higher),
    def("rcm.ms", "ms", Host, Lower),
    def("permute.ms", "ms", Host, Lower),
    def("renumber.self_ms", "ms", Host, Lower),
    // core::workload + core::memory
    def("partition.ms", "ms", Host, Lower),
    // gpu::engine, host side
    def("engine.aggregate_ms", "ms", Host, Lower),
    def("engine.gemm_ms", "ms", Host, Lower),
    def("engine.sim_blocks_per_s", "1/s", Host, Higher),
    // models / tensor numerics
    def("models.forward_self_ms", "ms", Host, Lower),
    // gpu::engine, simulated (the forward behind sim_forward_ms)
    def("sim.l2_hit_rate", "ratio", Sim, Higher),
    def("sim.dram_mb", "MB", Sim, Lower),
    def("sim.sm_efficiency", "ratio", Sim, Higher),
    def("sim.phase.compute_cycles", "cycles", Sim, Lower),
    def("sim.phase.dram_cycles", "cycles", Sim, Lower),
    def("sim.phase.atomic_cycles", "cycles", Sim, Lower),
    def("sim.phase.launch_cycles", "cycles", Sim, Lower),
    // core::serving / core::cluster
    def("serve.plan_ms", "ms", Host, Lower),
    def("serve.loop_self_ms", "ms", Host, Lower),
    def("serve.batches", "count", Sim, Lower),
    def("serve.retry_ratio", "ratio", Sim, Lower),
    def("serve.capacity_rps", "1/s", Sim, Higher),
    def("serve.replica_submissions.r0", "count", Sim, Higher),
    def("serve.replica_submissions.r1", "count", Sim, Higher),
    def("sim.kernel_occupancy", "ratio", Sim, Higher),
    def("sim.copy_engine_cycles", "cycles", Sim, Lower),
    def("sim.kernel_busy_cycles", "cycles", Sim, Lower),
    // graph::dynamic / core::dynamic
    def("dynamic.plan_ms", "ms", Host, Lower),
    def("dynamic.loop_self_ms", "ms", Host, Lower),
    def("dynamic.apply_us", "us", Host, Lower),
    def("dynamic.compactions", "count", Sim, Lower),
    def("dynamic.renumbers", "count", Sim, Lower),
    def("sim.hit_rate_tail", "ratio", Sim, Higher),
    // graph::sample
    def("sample.epoch_ms", "ms", Host, Lower),
    def("sample.useful_ratio", "ratio", Sim, Higher),
    // models::train
    def("train.step_ms", "ms", Host, Lower),
    def("train.accuracy", "ratio", Sim, Higher),
    // core::minibatch
    def("minibatch.loop_self_ms", "ms", Host, Lower),
    def("sim.overlap_ratio", "ratio", Sim, Higher),
    def("sim.host_ms", "ms", Sim, Lower),
    def("sim.device_ms", "ms", Sim, Lower),
];

/// Looks a metric up in both lists.
pub fn find(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}
