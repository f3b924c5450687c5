//! Serving scenario: serialized vs. overlapped streams.
//!
//! The multi-stream runtime's claim is that copy/compute overlap and SM
//! co-residency shrink the *makespan* of a served request trace without
//! changing any per-batch cost. This experiment prices the exact same
//! arrival trace, batching plan, and GCN batch executor twice — once on a
//! single stream (fully serialized, the CUDA default-stream behaviour)
//! and once across several streams — and reports latency percentiles,
//! throughput, and the makespan ratio.

use gnnadvisor_core::serving::{
    generate_arrivals, simulate, ArrivalConfig, BatchPolicy, QueuePolicy, RetryPolicy,
    ServingConfig, ServingReport,
};
use gnnadvisor_gpu::Engine;
use gnnadvisor_graph::generators::{batched_graph, BatchedParams};
use gnnadvisor_models::GcnBatchExecutor;

use crate::runner::ExperimentConfig;

/// One serving configuration's outcome.
#[derive(Debug, Clone)]
pub struct Row {
    /// Stream count of this run.
    pub streams: usize,
    /// Median latency, ms.
    pub p50_ms: f64,
    /// Tail latency, ms.
    pub p99_ms: f64,
    /// Completed requests per simulated second.
    pub throughput_rps: f64,
    /// Schedule makespan, ms.
    pub makespan_ms: f64,
}

/// Full scenario result.
#[derive(Debug, Clone)]
pub struct ServingResult {
    /// Requests in the trace.
    pub requests: usize,
    /// Requests shed by the admission queue (identical on every row —
    /// shedding is a policy decision, not a scheduling one).
    pub shed: u64,
    /// Serialized (1 stream) and overlapped rows, ascending stream count.
    pub rows: Vec<Row>,
    /// Serialized makespan over the best overlapped makespan.
    pub overlap_speedup: f64,
}

fn report_for(streams: usize, cfg: &ExperimentConfig) -> ServingReport {
    // A Type II batched dataset: many small independent graphs, the
    // workload class the paper serves with mini-batching (Section 8.3).
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
    // Wide features: the h2d copies are heavy enough that hiding them
    // under compute (what extra streams buy) is visible in the makespan.
    let mut exec = GcnBatchExecutor::new(&graph, &components, 256, 64, 10);
    // An offered rate far above device capacity: batches pile up at the
    // batcher, so the schedule is device-limited, not arrival-limited.
    let arrivals = generate_arrivals(&ArrivalConfig {
        num_requests: 96,
        mean_interarrival_ms: 0.005,
        num_components: exec.num_components(),
        seed: cfg.seed.wrapping_add(7),
    })
    .expect("valid arrival config");
    let serving = ServingConfig {
        streams,
        queue: QueuePolicy { capacity: 96 },
        batch: BatchPolicy {
            max_batch: 4,
            max_delay_ms: 1.0,
        },
        retry: RetryPolicy::default(),
        deadline_ms: None,
    };
    let engine = Engine::builder(cfg.spec.clone())
        .build()
        .expect("valid engine configuration");
    simulate(&engine, &arrivals, &serving, &mut exec).expect("serving simulation runs")
}

/// Runs the serialized-vs-overlapped comparison.
pub fn run(cfg: &ExperimentConfig) -> ServingResult {
    let stream_counts = [1usize, 2, 4];
    let reports: Vec<(usize, ServingReport)> = stream_counts
        .iter()
        .map(|&s| (s, report_for(s, cfg)))
        .collect();
    let serialized = reports[0].1.makespan_ms;
    let best_overlapped = reports[1..]
        .iter()
        .map(|(_, r)| r.makespan_ms)
        .fold(f64::INFINITY, f64::min);
    ServingResult {
        requests: reports[0].1.completed + reports[0].1.shed as usize,
        shed: reports[0].1.shed,
        rows: reports
            .into_iter()
            .map(|(streams, r)| Row {
                streams,
                p50_ms: r.p50_ms,
                p99_ms: r.p99_ms,
                throughput_rps: r.throughput_rps,
                makespan_ms: r.makespan_ms,
            })
            .collect(),
        overlap_speedup: serialized / best_overlapped.max(1e-12),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overlap_beats_serialized_and_is_deterministic() {
        let cfg = ExperimentConfig::at_scale(0.05);
        let a = run(&cfg);
        let b = run(&cfg);
        assert_eq!(
            format!("{a:?}"),
            format!("{b:?}"),
            "scenario must be deterministic"
        );
        assert!(a.rows.len() == 3);
        assert!(
            a.overlap_speedup > 1.0,
            "overlapped streams must beat serialized: {:?}",
            a.rows
        );
        // Overlap may only help: every multi-stream makespan is bounded
        // by the serialized one.
        for row in &a.rows[1..] {
            assert!(row.makespan_ms <= a.rows[0].makespan_ms);
        }
    }
}
