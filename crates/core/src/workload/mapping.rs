//! Block-based workload mapping (Section 5.3).
//!
//! Groups are packed into thread blocks: with `tpb` threads per block and
//! `dw` lanes per group-team, each block hosts `tpb / dw` consecutive
//! groups. Consecutive groups belong to nearby nodes (group partitioning
//! preserves CSR order), so after renumbering, the nodes a block touches
//! are neighbors in id space — the locality the shared cache rewards.

/// How groups map to thread blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockMapping {
    /// Threads per block (`tpb`).
    pub threads_per_block: u32,
    /// Dimension workers per group (`dw`).
    pub dim_workers: u32,
    /// Total number of groups.
    pub num_groups: usize,
}

impl BlockMapping {
    /// Builds a mapping; both knobs are clamped to at least 1 and `dw` to
    /// at most `tpb`.
    pub fn new(threads_per_block: u32, dim_workers: u32, num_groups: usize) -> Self {
        let tpb = threads_per_block.max(1);
        Self {
            threads_per_block: tpb,
            dim_workers: dim_workers.clamp(1, tpb),
            num_groups,
        }
    }

    /// Groups hosted by each block (`tpb / dw`, at least 1).
    pub fn groups_per_block(&self) -> usize {
        ((self.threads_per_block / self.dim_workers) as usize).max(1)
    }

    /// Number of blocks in the launch.
    pub fn num_blocks(&self) -> usize {
        self.num_groups.div_ceil(self.groups_per_block()).max(1)
    }

    /// The group-index range `[start, end)` of `block`.
    pub fn block_range(&self, block: usize) -> (usize, usize) {
        let gpb = self.groups_per_block();
        let start = block * gpb;
        (
            start.min(self.num_groups),
            ((block + 1) * gpb).min(self.num_groups),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranges_tile_all_groups() {
        let m = BlockMapping::new(256, 8, 1000);
        assert_eq!(m.groups_per_block(), 32);
        assert_eq!(m.num_blocks(), 32);
        let mut covered = 0;
        for b in 0..m.num_blocks() {
            let (s, e) = m.block_range(b);
            assert_eq!(s, covered);
            covered = e;
        }
        assert_eq!(covered, 1000);
    }

    #[test]
    fn dw_reduces_groups_per_block() {
        let narrow = BlockMapping::new(256, 1, 100);
        let wide = BlockMapping::new(256, 32, 100);
        assert_eq!(narrow.groups_per_block(), 256);
        assert_eq!(wide.groups_per_block(), 8);
        assert!(wide.num_blocks() > narrow.num_blocks());
    }

    #[test]
    fn degenerate_inputs_clamped() {
        let m = BlockMapping::new(0, 0, 10);
        assert_eq!(m.threads_per_block, 1);
        assert_eq!(m.dim_workers, 1);
        assert_eq!(m.num_blocks(), 10);
        let empty = BlockMapping::new(128, 4, 0);
        assert_eq!(empty.num_blocks(), 1, "empty launches still get one block");
        assert_eq!(empty.block_range(0), (0, 0));
    }
}
