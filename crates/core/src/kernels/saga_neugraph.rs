//! NeuGraph-style baseline: SAGA dataflow with chunked streaming.
//!
//! NeuGraph partitions the graph into vertex chunks sized to the device
//! memory budget and streams each chunk over PCIe per layer, running its
//! Scatter → ApplyEdge → Gather → ApplyVertex stages on device. Table 2
//! reports the two halves separately ("Mem.IO" vs "Comp."); this module
//! reproduces both: [`SagaChunkKernel`] prices one chunk's SAGA compute and
//! [`run_saga_layer`] adds the transfer schedule.

use gnnadvisor_gpu::kernel::WARP_SIZE;
use gnnadvisor_gpu::{BlockSink, Engine, GridConfig, Kernel, RunMetrics};
use gnnadvisor_graph::{Csr, NodeId};

use crate::kernels::arrays;
use crate::kernels::F32;
use crate::Result;

/// One chunk's SAGA compute: two edge passes (Scatter + Gather, with
/// ApplyEdge fused) and one vertex pass (ApplyVertex), row-per-warp without
/// input-aware sizing — NeuGraph "relies on general GPU kernel
/// optimizations and largely ignores the input information".
pub struct SagaChunkKernel<'a> {
    graph: &'a Csr,
    /// Node range `[start, end)` of this chunk.
    node_start: usize,
    node_end: usize,
    dim: usize,
}

impl<'a> SagaChunkKernel<'a> {
    /// SAGA over the chunk `[node_start, node_end)`.
    pub fn new(graph: &'a Csr, node_start: usize, node_end: usize, dim: usize) -> Self {
        Self {
            graph,
            node_start,
            node_end: node_end.min(graph.num_nodes()),
            dim,
        }
    }

    fn chunk_nodes(&self) -> usize {
        self.node_end.saturating_sub(self.node_start)
    }
}

/// Rows (warps) per block, matching the DGL-style generic mapping.
const WARPS_PER_BLOCK: usize = 8;

impl Kernel for SagaChunkKernel<'_> {
    fn name(&self) -> &str {
        "neugraph_saga_chunk"
    }

    fn grid(&self) -> GridConfig {
        GridConfig {
            num_blocks: self.chunk_nodes().div_ceil(WARPS_PER_BLOCK).max(1),
            threads_per_block: (WARPS_PER_BLOCK as u32) * WARP_SIZE,
            shared_mem_bytes: 0,
        }
    }

    fn emit_block(&self, block_id: usize, sink: &mut BlockSink<'_>) {
        let start = self.node_start + block_id * WARPS_PER_BLOCK;
        let end = (start + WARPS_PER_BLOCK).min(self.node_end);
        let row_bytes = self.dim as u64 * F32;
        let lanes_active = (self.dim as u32).min(WARP_SIZE);

        for v in start..end {
            let v = v as NodeId;
            sink.begin_warp();
            let deg = self.graph.degree(v);
            sink.global_read(arrays::ROW_PTR, v as u64 * 4, 8);
            if deg == 0 {
                continue;
            }
            let row_start = self.graph.row_ptr()[v as usize] as u64;
            sink.global_read(arrays::COL_IDX, row_start * 4, deg as u64 * 4);

            // Scatter pass: read each neighbor row, write an edge-value
            // buffer (SAGA materializes edge state between stages).
            sink.global_read_rows(
                arrays::FEAT_IN,
                self.graph.neighbors(v),
                row_bytes,
                row_bytes.div_ceil(128),
                lanes_active,
            );
            sink.global_write(
                arrays::MSG_BUF,
                row_start * row_bytes,
                deg as u64 * row_bytes,
            );

            // Gather pass: stream the edge buffer back, reduce into the row.
            sink.global_read(
                arrays::MSG_BUF,
                row_start * row_bytes,
                deg as u64 * row_bytes,
            );
            sink.compute(
                2 * deg as u64 * self.dim.div_ceil(WARP_SIZE as usize) as u64,
                lanes_active,
            );

            // ApplyVertex: write the result row.
            sink.global_write(arrays::FEAT_OUT, v as u64 * row_bytes, row_bytes);
        }
    }
}

/// Streams one GNN layer NeuGraph-style: node chunks sized to
/// `chunk_budget_bytes` of feature memory are copied host→device, SAGA runs
/// per chunk, and results are copied back. Returns combined transfer
/// ("Mem.IO") and kernel ("Comp.") metrics.
pub fn run_saga_layer(
    engine: &Engine,
    graph: &Csr,
    dim: usize,
    chunk_budget_bytes: u64,
) -> Result<RunMetrics> {
    let mut run = RunMetrics::default();
    let row_bytes = dim as u64 * F32;
    let nodes_per_chunk =
        ((chunk_budget_bytes / row_bytes.max(1)).max(1) as usize).min(graph.num_nodes().max(1));

    let mut start = 0usize;
    while start < graph.num_nodes() {
        let end = (start + nodes_per_chunk).min(graph.num_nodes());
        let chunk_edges = graph.row_ptr()[end] - graph.row_ptr()[start];
        // Host -> device: chunk target features, the *source* features its
        // edges reference (conservatively one row per edge — NeuGraph ships
        // whole source chunks, which is at least this much), and topology.
        let h2d = (end - start) as u64 * row_bytes
            + (chunk_edges as u64 * row_bytes).min(graph.num_nodes() as u64 * row_bytes)
            + chunk_edges as u64 * 4;
        run.push_transfer(crate::submit::transfer(engine, h2d)?);

        let kernel = SagaChunkKernel::new(graph, start, end, dim);
        run.push_kernel(crate::submit::launch(engine, &kernel)?);

        // Device -> host: chunk results.
        run.push_transfer(crate::submit::transfer(
            engine,
            (end - start) as u64 * row_bytes,
        )?);
        start = end;
    }
    Ok(run)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::submit::launch;
    use crate::CoreError;
    use gnnadvisor_gpu::{FaultConfig, FaultKind, FaultPlan, GpuError, GpuSpec};
    use gnnadvisor_graph::generators::barabasi_albert;
    use std::sync::Arc;

    #[test]
    fn chunking_covers_all_nodes() {
        let g = barabasi_albert(1000, 4, 8).expect("valid");
        let engine = Engine::new(GpuSpec::quadro_p6000());
        // Budget of 100 rows -> 10 chunks.
        let run = run_saga_layer(&engine, &g, 32, 100 * 32 * 4).expect("runs");
        assert_eq!(run.kernels.len(), 10);
        assert!(run.transfer_ms > 0.0);
        assert!(run.compute_ms > 0.0);
    }

    #[test]
    fn a_failed_transfer_is_a_typed_error() {
        let g = barabasi_albert(1000, 4, 8).expect("valid");
        let plan = FaultPlan::new(FaultConfig {
            transfer_fail_prob: 1.0,
            seed: 3,
            ..FaultConfig::default()
        })
        .expect("valid");
        let engine = Engine::builder(GpuSpec::quadro_p6000())
            .fault_plan(Arc::new(plan))
            .build()
            .expect("valid");
        match run_saga_layer(&engine, &g, 32, 100 * 32 * 4) {
            Err(CoreError::Gpu(GpuError::Fault { kind, .. })) => {
                assert_eq!(kind, FaultKind::TransferFailure);
            }
            other => panic!("expected a transfer failure, got {other:?}"),
        }
    }

    #[test]
    fn smaller_budget_more_io() {
        let g = barabasi_albert(1000, 4, 8).expect("valid");
        let engine = Engine::new(GpuSpec::quadro_p6000());
        let coarse = run_saga_layer(&engine, &g, 32, 1 << 30).expect("runs");
        let fine = run_saga_layer(&engine, &g, 32, 50 * 32 * 4).expect("runs");
        assert!(
            fine.transfer_ms > coarse.transfer_ms,
            "more chunks => more PCIe latency: {} vs {}",
            fine.transfer_ms,
            coarse.transfer_ms
        );
    }

    #[test]
    fn edge_buffer_doubles_traffic_vs_spmm() {
        use crate::kernels::spmm_dgl::SpmmKernel;
        let g = barabasi_albert(500, 5, 9).expect("valid");
        let engine = Engine::new(GpuSpec::quadro_p6000());
        let saga = launch(&engine, &SagaChunkKernel::new(&g, 0, 500, 64)).expect("runs");
        let spmm = launch(&engine, &SpmmKernel::new(&g, 64)).expect("runs");
        assert!(
            saga.dram_bytes() > spmm.dram_bytes(),
            "SAGA stages edge state in memory"
        );
    }
}
