//! Chaos scenario: serving under injected device faults.
//!
//! The reliability layer's claim is that bounded retries with backoff
//! restore *goodput* (in-deadline completions per second) when the device
//! injects transfer failures, kernel slowdowns, and timeouts. This
//! experiment prices the exact same arrival trace, batching plan, and GCN
//! batch executor against the same seeded [`FaultPlan`] twice — once with
//! retries disabled (every faulted batch fails outright) and once with a
//! retry budget — and reports completions, failures, and goodput side by
//! side. Everything is seeded, so the chaos run replays bit-for-bit.

use gnnadvisor_core::serving::{
    generate_arrivals, simulate, ArrivalConfig, BatchPolicy, QueuePolicy, RetryPolicy,
    ServingConfig, ServingReport,
};
use gnnadvisor_gpu::{Engine, FaultConfig, FaultPlan};
use gnnadvisor_graph::generators::{batched_graph, BatchedParams};
use gnnadvisor_models::GcnBatchExecutor;
use std::sync::Arc;

use crate::runner::ExperimentConfig;

/// Injected fault rate of the scenario — high enough that several batches
/// fault, low enough that a small retry budget absorbs nearly all of them.
pub const FAULT_RATE: f64 = 0.2;

/// One retry policy's outcome under the shared fault plan.
#[derive(Debug, Clone)]
pub struct Row {
    /// Retries per faulted batch (attempts − 1).
    pub retries: usize,
    /// Requests whose batch completed.
    pub completed: usize,
    /// Requests whose batch exhausted every attempt.
    pub failed: usize,
    /// Batch re-submissions the retry layer issued.
    pub batch_retries: u64,
    /// Completions per simulated second.
    pub goodput_rps: f64,
}

/// Full scenario result.
#[derive(Debug, Clone)]
pub struct ChaosResult {
    /// Requests in the trace.
    pub requests: usize,
    /// Injected fault rate shared by every row.
    pub fault_rate: f64,
    /// No-retry and with-retry rows, ascending retry budget.
    pub rows: Vec<Row>,
    /// With-retry goodput over no-retry goodput.
    pub goodput_recovery: f64,
}

fn report_for(retries: usize, cfg: &ExperimentConfig) -> ServingReport {
    let nodes = ((8_000.0 * (cfg.scale / 0.05)) as usize).clamp(800, 80_000);
    let (graph, components) = batched_graph(
        &BatchedParams {
            num_nodes: nodes,
            num_edges: nodes * 4,
            mean_graph_size: 100,
            graph_size_cv: 0.4,
        },
        cfg.seed.wrapping_add(31),
    )
    .expect("valid batched dataset");
    let mut exec = GcnBatchExecutor::new(&graph, &components, 256, 64, 10);
    let arrivals = generate_arrivals(&ArrivalConfig {
        num_requests: 96,
        mean_interarrival_ms: 0.05,
        num_components: exec.num_components(),
        seed: cfg.seed.wrapping_add(7),
    })
    .expect("valid arrival config");
    let serving = ServingConfig {
        streams: 2,
        queue: QueuePolicy { capacity: 96 },
        batch: BatchPolicy {
            max_batch: 4,
            max_delay_ms: 1.0,
        },
        retry: RetryPolicy {
            max_attempts: retries + 1,
            backoff_base_ms: 0.25,
            seed: cfg.seed,
            ..RetryPolicy::default()
        },
        deadline_ms: None,
    };
    // A fresh engine per run: both rows see the identical fault sequence
    // (the plan's op counter restarts), so retries are the only variable.
    let engine = Engine::builder(cfg.spec.clone())
        .fault_plan(Arc::new(
            FaultPlan::new(FaultConfig::uniform(FAULT_RATE, cfg.seed)).expect("valid fault rate"),
        ))
        .build()
        .expect("valid engine configuration");
    simulate(&engine, &arrivals, &serving, &mut exec).expect("serving simulation runs")
}

/// Runs the no-retry vs retry comparison under the shared fault plan.
pub fn run(cfg: &ExperimentConfig) -> ChaosResult {
    let budgets = [0usize, 3];
    let reports: Vec<(usize, ServingReport)> =
        budgets.iter().map(|&r| (r, report_for(r, cfg))).collect();
    let no_retry = reports[0].1.goodput_rps;
    let with_retry = reports[1].1.goodput_rps;
    ChaosResult {
        requests: 96,
        fault_rate: FAULT_RATE,
        rows: reports
            .into_iter()
            .map(|(retries, r)| Row {
                retries,
                completed: r.completed,
                failed: r.failed,
                batch_retries: r.retries,
                goodput_rps: r.goodput_rps,
            })
            .collect(),
        goodput_recovery: with_retry / no_retry.max(1e-12),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retries_recover_goodput_and_are_deterministic() {
        let cfg = ExperimentConfig::at_scale(0.05);
        let a = run(&cfg);
        let b = run(&cfg);
        assert_eq!(
            format!("{a:?}"),
            format!("{b:?}"),
            "scenario must be deterministic"
        );
        let no_retry = &a.rows[0];
        let with_retry = &a.rows[1];
        assert!(
            no_retry.failed > 0,
            "a {FAULT_RATE} fault rate must fail batches without retries"
        );
        assert!(with_retry.batch_retries > 0);
        assert!(with_retry.completed > no_retry.completed);
        assert!(
            with_retry.goodput_rps > no_retry.goodput_rps,
            "retry goodput {} must beat no-retry goodput {}",
            with_retry.goodput_rps,
            no_retry.goodput_rps
        );
        assert!(a.goodput_recovery > 1.0);
    }
}
