//! Algorithm 1: block-aware memory organizing (Section 6.2).
//!
//! Each neighbor group mapped to a thread gets three properties:
//!
//! - `node_shared_addr` — the shared-memory slot holding the intra-group
//!   aggregation result of its target node,
//! - `node` — the target node (carried by the group itself),
//! - `group_leader` — whether this thread flushes the slot to global
//!   memory when the block finishes.
//!
//! The routine walks groups in block order: the first group of a block
//! always opens slot 0 and leads; a later group reuses its predecessor's
//! slot when both aggregate the same node, otherwise it opens the next slot
//! and leads. This is a line-by-line transcription of the paper's
//! Algorithm 1 with `thread_per_block` generalized to groups-per-block
//! (each group occupies `dw` threads under dimension sharing).

use gnnadvisor_gpu::{BlockResources, GpuSpec, DEFAULT_REGS_PER_THREAD};

use crate::runtime::ResolvedLaunch;
use crate::tuning::params::RuntimeParams;
use crate::workload::group::NeighborGroup;

/// The per-group shared-memory layout of one launch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SharedLayout {
    /// Shared-memory slot of each group (parallel to the group array).
    pub shared_addr: Vec<u32>,
    /// Leader flag of each group.
    pub leader: Vec<bool>,
    /// Maximum slots used by any block; shared bytes per block =
    /// `max_slots * D * 4`.
    pub max_slots: u32,
    /// Groups hosted per block (the walk's reset period).
    pub groups_per_block: usize,
}

impl SharedLayout {
    /// Shared-memory bytes per block for embedding dimensionality `dim`.
    pub fn shared_bytes(&self, dim: usize) -> usize {
        self.max_slots as usize * dim * core::mem::size_of::<f32>()
    }

    /// Number of leader groups (one flush each).
    pub fn num_leaders(&self) -> usize {
        self.leader.iter().filter(|&&l| l).count()
    }
}

/// Runs Algorithm 1 over a group partition.
///
/// # Examples
///
/// ```
/// use gnnadvisor_core::memory::organize::organize_shared;
/// use gnnadvisor_core::workload::group::partition_groups;
/// use gnnadvisor_graph::GraphBuilder;
///
/// let g = GraphBuilder::new(4).clique(&[0, 1, 2, 3]).build().unwrap();
/// let groups = partition_groups(&g, 2).unwrap();
/// let layout = organize_shared(&groups, 4);
/// // One leader per node-run per block flushes shared -> global.
/// assert!(layout.num_leaders() <= groups.len());
/// assert!(layout.shared_bytes(16) <= 4 * 16 * 4);
/// ```
///
/// # Panics
///
/// Panics if `groups_per_block` is zero.
pub fn organize_shared(groups: &[NeighborGroup], groups_per_block: usize) -> SharedLayout {
    assert!(groups_per_block > 0, "groups_per_block must be positive");
    let ngroups = groups.len();
    let mut shared_addr = vec![0u32; ngroups];
    let mut leader = vec![false; ngroups];
    let mut max_slots = 0u32;

    // Algorithm 1, lines 1–24.
    let mut cnt = 0usize;
    let mut local_cnt = 0u32;
    let mut last = 0u32;
    while cnt < ngroups {
        if cnt.is_multiple_of(groups_per_block) {
            // First thread of a block: open slot 0, lead.
            shared_addr[cnt] = local_cnt;
            last = groups[cnt].node;
            leader[cnt] = true;
        } else if groups[cnt].node == last {
            // Same target node as predecessor: share the slot.
            shared_addr[cnt] = local_cnt;
        } else {
            // New target node: open the next slot, lead.
            local_cnt += 1;
            shared_addr[cnt] = local_cnt;
            last = groups[cnt].node;
            leader[cnt] = true;
        }
        max_slots = max_slots.max(local_cnt + 1);
        cnt += 1;
        if cnt.is_multiple_of(groups_per_block) {
            local_cnt = 0;
        }
    }

    SharedLayout {
        shared_addr,
        leader,
        max_slots,
        groups_per_block,
    }
}

/// The launch shape of the GNNAdvisor aggregation over `groups` at
/// dimensionality `dim` on `spec`: the one rule both the runtime and the
/// tuner launch by.
///
/// Shared staging needs the Algorithm 1 layout of the worst block to fit
/// the device's per-block shared memory. When it does not, the block is
/// narrowed (`threads_per_block` halved, the layout rebuilt for the
/// fewer groups per block) until it does. Below 128 threads, or below
/// `dim_workers`, the extra block-dispatch overhead of the narrower
/// launch outweighs what staging saves, so the kernel falls back to
/// direct atomic accumulation with the original parameters instead.
pub(crate) fn resolve_launch(
    groups: &[NeighborGroup],
    params: RuntimeParams,
    dim: usize,
    spec: &GpuSpec,
) -> ResolvedLaunch {
    if params.use_shared {
        let mut narrowed = params;
        loop {
            let layout = organize_shared(groups, narrowed.groups_per_block());
            let resources = BlockResources {
                regs_per_thread: DEFAULT_REGS_PER_THREAD,
                smem_bytes: layout.shared_bytes(dim),
                threads: narrowed.threads_per_block,
            };
            if spec.occupancy_limit(&resources).is_launchable() {
                return ResolvedLaunch {
                    params: narrowed,
                    layout: Some(layout),
                };
            }
            let next = narrowed.threads_per_block / 2;
            if next < 128 || next < narrowed.dim_workers {
                break;
            }
            narrowed.threads_per_block = next;
        }
    }
    ResolvedLaunch {
        params,
        layout: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::group::partition_groups;
    use gnnadvisor_graph::generators::barabasi_albert;

    fn group(node: u32, start: u32, end: u32) -> NeighborGroup {
        NeighborGroup { node, start, end }
    }

    #[test]
    fn paper_walkthrough() {
        // Two blocks of 3 groups; node runs: [A, A, B | B, C, C].
        let groups = [
            group(0, 0, 4),
            group(0, 4, 8),
            group(1, 8, 12),
            group(1, 12, 16),
            group(2, 16, 20),
            group(2, 20, 24),
        ];
        let layout = organize_shared(&groups, 3);
        assert_eq!(layout.shared_addr, vec![0, 0, 1, 0, 1, 1]);
        assert_eq!(layout.leader, vec![true, false, true, true, true, false]);
        assert_eq!(layout.max_slots, 2);
        // Node 1 spans the block boundary: it legitimately has two leaders,
        // one per block (each flushes its block's partial result).
        assert_eq!(layout.num_leaders(), 4);
    }

    #[test]
    fn one_leader_per_node_run_within_block() {
        let g = barabasi_albert(300, 4, 7).expect("valid");
        let groups = partition_groups(&g, 3).expect("valid");
        let gpb = 16;
        let layout = organize_shared(&groups, gpb);
        for (b, chunk) in groups.chunks(gpb).enumerate() {
            let base = b * gpb;
            let mut prev_node = None;
            for (i, grp) in chunk.iter().enumerate() {
                let is_new_run = prev_node != Some(grp.node);
                assert_eq!(
                    layout.leader[base + i],
                    is_new_run,
                    "group {} in block {b}: leader iff first of its node run",
                    base + i
                );
                prev_node = Some(grp.node);
            }
        }
    }

    #[test]
    fn same_node_same_slot_within_block() {
        let g = barabasi_albert(300, 4, 8).expect("valid");
        let groups = partition_groups(&g, 2).expect("valid");
        let gpb = 32;
        let layout = organize_shared(&groups, gpb);
        for (b, chunk) in groups.chunks(gpb).enumerate() {
            let base = b * gpb;
            let mut slot_of_node: std::collections::HashMap<u32, u32> = Default::default();
            for (i, grp) in chunk.iter().enumerate() {
                let slot = layout.shared_addr[base + i];
                if let Some(&s) = slot_of_node.get(&grp.node) {
                    assert_eq!(s, slot, "node {} uses two slots in block {b}", grp.node);
                } else {
                    // Slots must also be exclusive to one node per block.
                    assert!(
                        !slot_of_node.values().any(|&s| s == slot),
                        "slot {slot} reused by a different node in block {b}"
                    );
                    slot_of_node.insert(grp.node, slot);
                }
            }
        }
    }

    #[test]
    fn slots_bounded_by_block_size() {
        let g = barabasi_albert(500, 3, 9).expect("valid");
        let groups = partition_groups(&g, 1).expect("valid");
        let layout = organize_shared(&groups, 8);
        assert!(
            layout.max_slots <= 8,
            "a block cannot need more slots than groups"
        );
        assert!(layout.max_slots >= 1);
    }

    #[test]
    fn shared_bytes_formula() {
        let groups = [group(0, 0, 1), group(1, 1, 2)];
        let layout = organize_shared(&groups, 2);
        assert_eq!(layout.max_slots, 2);
        assert_eq!(layout.shared_bytes(16), 2 * 16 * 4);
    }

    #[test]
    fn empty_partition() {
        let layout = organize_shared(&[], 4);
        assert_eq!(layout.max_slots, 0);
        assert_eq!(layout.num_leaders(), 0);
        assert_eq!(layout.shared_bytes(64), 0);
    }

    #[test]
    #[should_panic(expected = "groups_per_block must be positive")]
    fn zero_gpb_panics() {
        organize_shared(&[group(0, 0, 1)], 0);
    }
}
