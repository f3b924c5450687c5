//! The runtime's performance-related parameters (Section 7.1).

use serde::Serialize;

use crate::{CoreError, Result};

/// The tunable knobs GNNAdvisor exposes to users and to its auto-tuner.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub struct RuntimeParams {
    /// Group size `gs`: neighbors per group (Section 5.1).
    pub group_size: usize,
    /// Threads per block `tpb` (Section 5.3).
    pub threads_per_block: u32,
    /// Dimension workers `dw`: lanes sharing one group's dimension work
    /// (Section 5.4).
    pub dim_workers: u32,
    /// Whether block-level optimizations (shared-memory staging + leader
    /// flush, Sections 5.3/6.2) are enabled. The Figure 12c ablation turns
    /// this off.
    pub use_shared: bool,
    /// Whether community-aware node renumbering (Section 6.1) is applied.
    /// The Figure 12a/b ablation turns this off.
    pub renumber: bool,
}

impl Default for RuntimeParams {
    fn default() -> Self {
        Self {
            group_size: 4,
            threads_per_block: 256,
            dim_workers: 16,
            use_shared: true,
            renumber: true,
        }
    }
}

impl RuntimeParams {
    /// Validates ranges: `gs >= 1`, `tpb` in `[32, 1024]` and a multiple of
    /// the warp width, `dw` in `[1, 32]` and dividing `tpb`.
    pub fn validate(&self) -> Result<()> {
        if self.group_size == 0 {
            return Err(CoreError::InvalidParams {
                reason: "group_size must be >= 1".into(),
            });
        }
        if !(32..=1024).contains(&self.threads_per_block)
            || !self.threads_per_block.is_multiple_of(32)
        {
            return Err(CoreError::InvalidParams {
                reason: format!(
                    "threads_per_block {} must be a multiple of 32 in [32, 1024]",
                    self.threads_per_block
                ),
            });
        }
        if !(1..=32).contains(&self.dim_workers) {
            return Err(CoreError::InvalidParams {
                reason: format!("dim_workers {} must lie in [1, 32]", self.dim_workers),
            });
        }
        if !self.threads_per_block.is_multiple_of(self.dim_workers) {
            return Err(CoreError::InvalidParams {
                reason: format!(
                    "dim_workers {} must divide threads_per_block {}",
                    self.dim_workers, self.threads_per_block
                ),
            });
        }
        Ok(())
    }

    /// Groups hosted per block under this configuration.
    pub fn groups_per_block(&self) -> usize {
        (self.threads_per_block / self.dim_workers) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        RuntimeParams::default()
            .validate()
            .expect("default params must validate");
    }

    #[test]
    fn rejects_out_of_range() {
        let bad_gs = RuntimeParams {
            group_size: 0,
            ..Default::default()
        };
        assert!(bad_gs.validate().is_err());
        let bad_tpb = RuntimeParams {
            threads_per_block: 48,
            ..Default::default()
        };
        assert!(bad_tpb.validate().is_err());
        let huge_tpb = RuntimeParams {
            threads_per_block: 2048,
            ..Default::default()
        };
        assert!(huge_tpb.validate().is_err());
        let bad_dw = RuntimeParams {
            dim_workers: 33,
            ..Default::default()
        };
        assert!(bad_dw.validate().is_err());
        let non_dividing = RuntimeParams {
            threads_per_block: 64,
            dim_workers: 24,
            ..Default::default()
        };
        assert!(non_dividing.validate().is_err());
    }

    #[test]
    fn groups_per_block_formula() {
        let p = RuntimeParams {
            threads_per_block: 256,
            dim_workers: 8,
            ..Default::default()
        };
        assert_eq!(p.groups_per_block(), 32);
    }
}
