//! DGL-style baseline: fused row-per-warp SpMM plus feature stacking.
//!
//! DGL's SUM-aggregation path fuses send/recv into a cuSparse-style SpMM:
//! one warp owns one output row, its 32 lanes sweep the embedding
//! dimensions, and neighbors stream through with coalesced row reads — a
//! solid generic kernel. What it lacks is exactly what the paper exploits:
//! no input-aware group sizing (warp workload is the node's full degree, so
//! power-law inputs imbalance the block), no shared-memory staging, no
//! renumbering, and a per-layer feature-stacking pass ("batch processing of
//! nodes/edges by stacking their features") that moves N x D twice.

use gnnadvisor_gpu::kernel::WARP_SIZE;
use gnnadvisor_gpu::{BlockSink, GridConfig, Kernel};
use gnnadvisor_graph::{Csr, NodeId};

use crate::kernels::arrays;
use crate::kernels::F32;

/// Warps (rows) per block in the SpMM kernel.
const WARPS_PER_BLOCK: usize = 8;

/// Row-per-warp CSR SpMM aggregation (the DGL kernel-fusion path).
pub struct SpmmKernel<'a> {
    graph: &'a Csr,
    dim: usize,
}

impl<'a> SpmmKernel<'a> {
    /// SpMM over the whole graph at dimensionality `dim`.
    pub fn new(graph: &'a Csr, dim: usize) -> Self {
        Self { graph, dim }
    }
}

impl Kernel for SpmmKernel<'_> {
    fn name(&self) -> &str {
        "dgl_spmm_aggregation"
    }

    fn grid(&self) -> GridConfig {
        GridConfig {
            num_blocks: self.graph.num_nodes().div_ceil(WARPS_PER_BLOCK).max(1),
            threads_per_block: (WARPS_PER_BLOCK as u32) * WARP_SIZE,
            shared_mem_bytes: 0,
        }
    }

    fn emit_block(&self, block_id: usize, sink: &mut BlockSink<'_>) {
        let n = self.graph.num_nodes();
        let start = block_id * WARPS_PER_BLOCK;
        let end = (start + WARPS_PER_BLOCK).min(n);
        let row_bytes = self.dim as u64 * F32;
        let lanes_active = (self.dim as u32).min(WARP_SIZE);

        for v in start..end {
            let v = v as NodeId;
            sink.begin_warp();
            let deg = self.graph.degree(v);
            if deg == 0 {
                continue;
            }
            // Row pointer + neighbor list, coalesced.
            sink.global_read(arrays::ROW_PTR, v as u64 * 4, 8);
            let row_start = self.graph.row_ptr()[v as usize] as u64;
            sink.global_read(arrays::COL_IDX, row_start * 4, deg as u64 * 4);

            // Stream neighbor rows: warp-wide coalesced reads, lanes sweep
            // dimensions. Lanes beyond D idle (useful = min(D, 32)).
            sink.global_read_rows(
                arrays::FEAT_IN,
                self.graph.neighbors(v),
                row_bytes,
                row_bytes.div_ceil(128),
                lanes_active,
            );
            // The warp's compute is its node's whole degree: no group
            // sizing, so the block's critical path is its max-degree row.
            sink.compute(
                deg as u64 * self.dim.div_ceil(WARP_SIZE as usize) as u64,
                lanes_active,
            );

            // One warp owns the row: plain coalesced write, no atomics.
            sink.global_write(arrays::FEAT_OUT, v as u64 * row_bytes, row_bytes);
        }
    }
}

/// The feature-stacking / batching pass DGL runs around aggregation: one
/// full copy of the N x D feature matrix (read + write).
pub struct StackingKernel {
    num_rows: usize,
    dim: usize,
}

impl StackingKernel {
    /// Copies `num_rows x dim` features.
    pub fn new(num_rows: usize, dim: usize) -> Self {
        Self { num_rows, dim }
    }
}

impl Kernel for StackingKernel {
    fn name(&self) -> &str {
        "dgl_feature_stacking"
    }

    fn grid(&self) -> GridConfig {
        // 256-thread blocks, one thread per element chunk.
        let elems = self.num_rows * self.dim;
        GridConfig {
            num_blocks: elems.div_ceil(256 * 4).max(1),
            threads_per_block: 256,
            shared_mem_bytes: 0,
        }
    }

    fn emit_block(&self, block_id: usize, sink: &mut BlockSink<'_>) {
        let total_bytes = (self.num_rows * self.dim) as u64 * F32;
        let chunk = 256 * 4 * F32;
        let offset = block_id as u64 * chunk;
        if offset >= total_bytes {
            return;
        }
        let bytes = chunk.min(total_bytes - offset);
        // 8 warps stream the chunk: perfectly coalesced copy.
        for w in 0..8u64 {
            sink.begin_warp();
            let wb = bytes / 8;
            sink.global_read(arrays::FEAT_IN, offset + w * wb, wb);
            sink.global_write(arrays::MSG_BUF, offset + w * wb, wb);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::submit::launch;
    use gnnadvisor_gpu::{Engine, GpuSpec};
    use gnnadvisor_graph::generators::{barabasi_albert, erdos_renyi};

    #[test]
    fn spmm_uses_no_atomics() {
        let g = barabasi_albert(400, 4, 2).expect("valid");
        let engine = Engine::new(GpuSpec::quadro_p6000());
        let m = launch(&engine, &SpmmKernel::new(&g, 32)).expect("runs");
        assert_eq!(m.atomic_ops, 0);
        assert!(m.dram_read_bytes > 0);
    }

    #[test]
    fn power_law_imbalance_shows_in_efficiency() {
        let engine = Engine::new(GpuSpec::quadro_p6000());
        let skewed = barabasi_albert(2000, 3, 7).expect("valid");
        let flat = erdos_renyi(2000, 6000, 7).expect("valid");
        let m_skew = launch(&engine, &SpmmKernel::new(&skewed, 32)).expect("runs");
        let m_flat = launch(&engine, &SpmmKernel::new(&flat, 32)).expect("runs");
        assert!(m_skew.sm_efficiency < m_flat.sm_efficiency);
    }

    #[test]
    fn stacking_moves_full_matrix() {
        let engine = Engine::new(GpuSpec::quadro_p6000());
        let m = launch(&engine, &StackingKernel::new(1000, 64)).expect("runs");
        let matrix_bytes = 1000 * 64 * 4;
        assert!(m.dram_read_bytes + m.dram_write_bytes >= matrix_bytes as u64);
    }
}
