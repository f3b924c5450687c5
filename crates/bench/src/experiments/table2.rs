//! Table 2: comparison with NeuGraph on reddit-full / enwiki / amazon.
//!
//! The paper reports both sides' Mem.IO and Comp. columns; NeuGraph pays
//! thousands of milliseconds of chunk-streaming I/O while GNNAdvisor loads
//! once and computes in place (1.3x–7.2x overall). Shape to reproduce:
//! NeuGraph's Mem.IO dominates and exceeds GNNAdvisor's on every dataset,
//! and total time favors GNNAdvisor.

use gnnadvisor_core::Framework;
use gnnadvisor_datasets::neugraph::table2_datasets;
use gnnadvisor_gpu::{Engine, Workload};
use serde::Serialize;

use crate::report::Table;
use crate::runner::{build_advisor, run_forward, ExperimentConfig, ModelKind};

/// One Table 2 row.
#[derive(Debug, Clone, Serialize)]
pub struct Row {
    /// Dataset name.
    pub dataset: String,
    /// NeuGraph Mem.IO, ms.
    pub neugraph_io_ms: f64,
    /// NeuGraph compute, ms.
    pub neugraph_comp_ms: f64,
    /// GNNAdvisor Mem.IO, ms.
    pub advisor_io_ms: f64,
    /// GNNAdvisor compute, ms.
    pub advisor_comp_ms: f64,
    /// Overall speedup (total / total).
    pub speedup: f64,
}

/// Full Table 2 result.
#[derive(Debug, Clone, Serialize)]
pub struct Table2Result {
    /// Dataset scale used (these graphs are huge; default far below 1).
    pub scale: f64,
    /// The three rows in paper order.
    pub rows: Vec<Row>,
}

/// Runs the Table 2 comparison. The three graphs carry hundreds of
/// millions of edges at full scale, so the configured scale is divided by
/// an extra factor of 10 relative to other experiments. NeuGraph's chunk
/// budget scales with the dataset so the chunk *count* — and therefore the
/// streaming amplification — matches the full-scale regime.
pub fn run(cfg: &ExperimentConfig) -> Table2Result {
    let scale = (cfg.scale / 10.0).max(2e-4);
    let mut rows = Vec::new();
    for spec in table2_datasets() {
        let ds = spec.generate(scale).expect("dataset generates");
        // NeuGraph: SAGA streaming, one pass per GCN layer at that layer's
        // *input* dimensionality — vertex data lives on the host, so the
        // framework cannot reduce dimensions before shipping chunks.
        let engine_neu = Engine::new(cfg.spec.clone());
        let budget = ((gnnadvisor_core::frameworks::NEUGRAPH_CHUNK_BUDGET as f64 * scale) as u64)
            .max(ds.feat_dim as u64 * 4 * 16);
        let layer_dims = [ds.feat_dim, ModelKind::Gcn.hidden_dim()];
        let mut neu = gnnadvisor_gpu::RunMetrics::default();
        for d in layer_dims {
            neu.merge(
                gnnadvisor_core::kernels::saga_neugraph::run_saga_layer(
                    &engine_neu,
                    &ds.graph,
                    d,
                    budget,
                )
                .expect("neugraph runs"),
            );
        }
        // GNNAdvisor: one up-front H2D of features + topology, then
        // in-device compute and one D2H of results.
        let advisor = build_advisor(&ds, ModelKind::Gcn, &cfg.spec).expect("advisor builds");
        let ours = run_forward(
            Framework::GnnAdvisor,
            ModelKind::Gcn,
            &ds,
            cfg,
            Some(&advisor),
        )
        .expect("advisor runs");
        let engine = Engine::new(cfg.spec.clone());
        let feat_bytes = ds.graph.num_nodes() as u64 * ds.feat_dim as u64 * 4;
        let topo_bytes = ds.graph.adjacency_bytes() as u64;
        let out_bytes = ds.graph.num_nodes() as u64 * ds.num_classes as u64 * 4;
        let mut ctx = engine.lock_context();
        let mut price_copy = |bytes: u64| {
            engine
                .submit(&mut ctx, Workload::Transfer { bytes })
                .expect("transfer workloads are infallible")
                .into_transfer()
                .time_ms
        };
        let advisor_io = price_copy(feat_bytes + topo_bytes) + price_copy(out_bytes);
        drop(ctx);

        let neu_total = neu.transfer_ms + neu.compute_ms;
        let our_total = advisor_io + ours.compute_ms;
        rows.push(Row {
            dataset: spec.name.to_string(),
            neugraph_io_ms: neu.transfer_ms,
            neugraph_comp_ms: neu.compute_ms,
            advisor_io_ms: advisor_io,
            advisor_comp_ms: ours.compute_ms,
            speedup: neu_total / our_total.max(1e-12),
        });
    }
    Table2Result { scale, rows }
}

/// Prints the paper-style table.
pub fn print(result: &Table2Result) {
    println!(
        "Table 2: comparison with NeuGraph (2-layer GCN, scale {}).\n\
         Paper reference: reddit-full 3840/2460 -> 263.78/599.69 ms,\n\
         overall 1.3x-7.2x in GNNAdvisor's favor.\n",
        result.scale
    );
    let mut t = Table::new(&[
        "Dataset",
        "NeuGraph Mem.IO (ms)",
        "NeuGraph Comp. (ms)",
        "GNNAdvisor Mem.IO (ms)",
        "GNNAdvisor Comp. (ms)",
        "Speedup",
    ]);
    for r in &result.rows {
        t.row(&[
            r.dataset.clone(),
            format!("{:.2}", r.neugraph_io_ms),
            format!("{:.2}", r.neugraph_comp_ms),
            format!("{:.2}", r.advisor_io_ms),
            format!("{:.2}", r.advisor_comp_ms),
            format!("{:.2}x", r.speedup),
        ]);
    }
    t.print();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn neugraph_streaming_loses() {
        let cfg = ExperimentConfig::at_scale(0.02);
        let r = run(&cfg);
        assert_eq!(r.rows.len(), 3);
        for row in &r.rows {
            assert!(
                row.neugraph_io_ms > row.advisor_io_ms,
                "{}: chunk streaming must cost more I/O ({} vs {})",
                row.dataset,
                row.neugraph_io_ms,
                row.advisor_io_ms
            );
            assert!(
                row.speedup > 1.0,
                "{}: speedup {}",
                row.dataset,
                row.speedup
            );
        }
    }
}
