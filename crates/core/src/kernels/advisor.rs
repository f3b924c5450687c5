//! The GNNAdvisor aggregation kernel (Sections 5.1–5.4, 6.2).
//!
//! Workload shape: each neighbor group is handled by a *team* of `dw`
//! adjacent lanes; `tpb / dw` groups share a thread block. Intra-group
//! accumulation happens in registers (atomic-free, Section 5.2); results
//! are staged in shared memory per Algorithm 1 and flushed to global memory
//! by each node-run's leader with element atomics (Section 6.2). With
//! block-level optimization disabled (the Figure 12c ablation), every group
//! flushes straight to global memory with atomics.

use gnnadvisor_gpu::{BlockSink, GridConfig, Kernel};
use gnnadvisor_graph::Csr;

use crate::kernels::arrays;
use crate::kernels::F32;
use crate::memory::organize::SharedLayout;
use crate::tuning::params::RuntimeParams;
use crate::workload::dimension::DimensionPlan;
use crate::workload::group::NeighborGroup;
use crate::workload::mapping::BlockMapping;

/// The GNNAdvisor aggregation kernel over a prepared group partition.
pub struct AdvisorKernel<'a> {
    graph: &'a Csr,
    groups: &'a [NeighborGroup],
    /// `Some` when block-level optimization (shared staging + leader flush)
    /// is enabled; the layout must have been built with this kernel's
    /// groups-per-block.
    layout: Option<&'a SharedLayout>,
    dim: usize,
    params: RuntimeParams,
    mapping: BlockMapping,
    plan: DimensionPlan,
}

impl<'a> AdvisorKernel<'a> {
    /// Builds the kernel. When `layout` is provided its `groups_per_block`
    /// must match `params.groups_per_block()`.
    ///
    /// # Panics
    ///
    /// Panics on a layout/params mismatch — that is a programming error in
    /// the runtime, not an input error.
    pub fn new(
        graph: &'a Csr,
        groups: &'a [NeighborGroup],
        layout: Option<&'a SharedLayout>,
        dim: usize,
        params: RuntimeParams,
    ) -> Self {
        if let Some(l) = layout {
            assert_eq!(
                l.groups_per_block,
                params.groups_per_block(),
                "shared layout built for a different block shape"
            );
        }
        let mapping = BlockMapping::new(params.threads_per_block, params.dim_workers, groups.len());
        let plan = DimensionPlan::new(params.dim_workers, dim);
        Self {
            graph,
            groups,
            layout,
            dim,
            params,
            mapping,
            plan,
        }
    }
}

impl Kernel for AdvisorKernel<'_> {
    fn name(&self) -> &str {
        "advisor_aggregation"
    }

    fn grid(&self) -> GridConfig {
        GridConfig {
            num_blocks: self.mapping.num_blocks(),
            threads_per_block: self.params.threads_per_block,
            shared_mem_bytes: self.layout.map_or(0, |l| l.shared_bytes(self.dim)),
        }
    }

    fn emit_block(&self, block_id: usize, sink: &mut BlockSink<'_>) {
        let (s, e) = self.mapping.block_range(block_id);
        if s == e {
            return;
        }
        let row_bytes = self.dim as u64 * F32;
        let teams_per_warp = self.plan.groups_per_warp() as usize;

        for (chunk_idx, warp_groups) in self.groups[s..e].chunks(teams_per_warp).enumerate() {
            let chunk_base = s + chunk_idx * teams_per_warp;
            sink.begin_warp();
            // Neighbor-id loads: each group's slice of col_idx is
            // contiguous, and consecutive groups are adjacent, so the load
            // coalesces.
            for g in warp_groups {
                sink.global_read(arrays::COL_IDX, g.start as u64 * 4, g.len() as u64 * 4);
            }
            // Feature-row loads: each team reads its neighbors' rows with
            // `dw`-wide transactions on adjacent dimensions (Figure 6b).
            for g in warp_groups {
                sink.global_read_rows(
                    arrays::FEAT_IN,
                    &self.graph.col_idx()[g.start as usize..g.end as usize],
                    row_bytes,
                    self.plan.transactions_per_row(),
                    self.plan.active_workers(),
                );
            }
            // Register accumulation: per-lane FMA work; lanes of one team
            // are balanced, teams differ only by group fill.
            let (max, sum) = team_charge(&self.plan, warp_groups);
            sink.compute_divergent(max, sum);

            match self.layout {
                Some(layout) => {
                    // Stage the team's partial into its node's shared slot.
                    for (t, g) in warp_groups.iter().enumerate() {
                        let idx = chunk_base + t;
                        sink.shared_access(row_bytes);
                        // Leaders flush shared -> global with element
                        // atomics once the block-wide barrier passes.
                        if layout.leader[idx] {
                            sink.atomic_rmw(
                                arrays::FEAT_OUT,
                                g.node as u64 * row_bytes,
                                row_bytes,
                                self.dim as u64,
                            );
                        }
                    }
                }
                None => {
                    // Ablation: every group goes straight to global memory.
                    for g in warp_groups {
                        sink.atomic_rmw(
                            arrays::FEAT_OUT,
                            g.node as u64 * row_bytes,
                            row_bytes,
                            self.dim as u64,
                        );
                    }
                }
            }
        }
        if self.layout.is_some() {
            // One barrier between accumulation and the leader flush phase.
            sink.sync();
        }
    }
}

/// The lane maximum and lane sum of one warp's register accumulation:
/// each team puts `plan.lane_cycles(len)` on each of its
/// `plan.active_workers()` lanes, so the warp is busy for its fullest
/// group and does `active_workers` times the groups' total work.
fn team_charge(plan: &DimensionPlan, warp_groups: &[NeighborGroup]) -> (u64, u64) {
    let mut max = 0;
    let mut sum = 0;
    for g in warp_groups {
        let work = plan.lane_cycles(g.len());
        max = max.max(work);
        sum += work;
    }
    (max, sum * plan.active_workers() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::organize::organize_shared;
    use crate::submit::launch;
    use crate::workload::group::partition_groups;
    use gnnadvisor_gpu::kernel::WARP_SIZE;
    use gnnadvisor_gpu::{Engine, GpuSpec};
    use gnnadvisor_graph::generators::barabasi_albert;

    fn setup(gs: usize) -> (Csr, Vec<NeighborGroup>) {
        let g = barabasi_albert(500, 6, 21).expect("valid");
        let groups = partition_groups(&g, gs).expect("valid");
        (g, groups)
    }

    fn params(gs: usize, tpb: u32, dw: u32) -> RuntimeParams {
        RuntimeParams {
            group_size: gs,
            threads_per_block: tpb,
            dim_workers: dw,
            ..Default::default()
        }
    }

    #[test]
    fn runs_and_reads_every_edge() {
        let (g, groups) = setup(4);
        let p = params(4, 256, 8);
        let layout = organize_shared(&groups, p.groups_per_block());
        let k = AdvisorKernel::new(&g, &groups, Some(&layout), 16, p);
        let engine = Engine::new(GpuSpec::quadro_p6000());
        let m = launch(&engine, &k).expect("runs");
        // Every edge loads one 64 B feature row: at least E/2 line touches.
        assert!(m.l2_hits + m.l2_misses > g.num_edges() as u64 / 2);
        assert!(m.elapsed_cycles > 0);
    }

    #[test]
    fn shared_staging_reduces_atomics() {
        let (g, groups) = setup(2);
        let p = params(2, 256, 8);
        let layout = organize_shared(&groups, p.groups_per_block());
        let engine = Engine::new(GpuSpec::quadro_p6000());
        let with = launch(
            &engine,
            &AdvisorKernel::new(&g, &groups, Some(&layout), 32, p),
        )
        .expect("runs");
        let without = launch(&engine, &AdvisorKernel::new(&g, &groups, None, 32, p)).expect("runs");
        assert!(
            with.atomic_ops < without.atomic_ops,
            "leader flush must issue fewer atomics: {} vs {}",
            with.atomic_ops,
            without.atomic_ops
        );
        assert_eq!(without.atomic_ops, groups.len() as u64 * 32);
        assert_eq!(with.atomic_ops, layout.num_leaders() as u64 * 32);
    }

    #[test]
    fn grid_reflects_params() {
        let (g, groups) = setup(4);
        let p = params(4, 128, 4);
        let k = AdvisorKernel::new(&g, &groups, None, 16, p);
        let grid = k.grid();
        assert_eq!(grid.threads_per_block, 128);
        assert_eq!(grid.num_blocks, groups.len().div_ceil(32));
        assert_eq!(grid.shared_mem_bytes, 0);
    }

    #[test]
    fn deterministic_metrics() {
        let (g, groups) = setup(8);
        let p = params(8, 256, 16);
        let engine = Engine::new(GpuSpec::quadro_p6000());
        let a = launch(&engine, &AdvisorKernel::new(&g, &groups, None, 64, p)).expect("runs");
        let b = launch(&engine, &AdvisorKernel::new(&g, &groups, None, 64, p)).expect("runs");
        assert_eq!(a, b);
    }

    #[test]
    fn team_charge_matches_the_lane_array() {
        // The charge the kernel once built lane by lane: team `t` fills
        // lanes `t * dw..` with its group's work, and the warp pays the
        // lane max for the lane sum.
        let lane_array = |plan: &DimensionPlan, warp_groups: &[NeighborGroup]| {
            let mut lanes = [0u64; WARP_SIZE as usize];
            let dw = plan.workers as usize;
            for (t, g) in warp_groups.iter().enumerate() {
                let work = plan.lane_cycles(g.len());
                let active = plan.active_workers() as usize;
                for lane in lanes.iter_mut().skip(t * dw).take(active) {
                    *lane = work;
                }
            }
            (lanes.iter().copied().max().unwrap_or(0), lanes.iter().sum())
        };
        let (_, groups) = setup(5);
        for dw in [1, 2, 4, 8, 16, 32] {
            // 7 dims leave lanes idle at wide teams; 130 is ragged at all.
            for dim in [7, 64, 130] {
                let plan = DimensionPlan::new(dw, dim);
                let teams = plan.groups_per_warp() as usize;
                // 101 groups: the last warp chunk is short unless a warp
                // holds exactly one team.
                let chunks = groups[..101].chunks(teams);
                assert!(dw == 32 || chunks.len() * teams > 101);
                for chunk in chunks {
                    assert_eq!(
                        team_charge(&plan, chunk),
                        lane_array(&plan, chunk),
                        "dw {dw}, dim {dim}, {} teams",
                        chunk.len()
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "different block shape")]
    fn layout_mismatch_panics() {
        let (g, groups) = setup(4);
        let layout = organize_shared(&groups, 7); // wrong gpb
        let p = params(4, 256, 8); // gpb = 32
        let _ = AdvisorKernel::new(&g, &groups, Some(&layout), 16, p);
    }
}
