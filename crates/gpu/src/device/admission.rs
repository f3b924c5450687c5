//! The command processor: per-SM slot state and block admission.

use std::collections::BTreeMap;

use crate::spec::{BlockResources, GpuSpec};

/// What one thread block pins on its SM for its whole residency, derived
/// from a launch's [`BlockResources`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockDemand {
    /// Register-file bytes.
    pub regfile_bytes: u64,
    /// Static shared-memory bytes.
    pub smem_bytes: u64,
    /// Warp slots (whole warps; ragged tails round up).
    pub warp_slots: u32,
}

impl BlockDemand {
    /// The demand of one block of a launch.
    pub fn of(resources: &BlockResources) -> Self {
        Self {
            regfile_bytes: resources.regfile_bytes(),
            smem_bytes: resources.smem_bytes as u64,
            warp_slots: resources.warps(),
        }
    }
}

/// A snapshot of one SM's committed resource usage, for audits.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SmUsage {
    /// Register-file bytes in use.
    pub regfile_bytes: u64,
    /// Shared-memory bytes in use.
    pub smem_bytes: u64,
    /// Warp slots in use.
    pub warp_slots: u32,
    /// Resident blocks.
    pub blocks: u32,
}

/// Per-SM live state: free capacity plus, per resident launch, how many
/// of its blocks this SM currently hosts (for co-residency accounting).
#[derive(Debug, Clone)]
struct SmSlot {
    used: SmUsage,
    /// Resident block count per launch id; deterministic iteration order.
    resident: BTreeMap<usize, u64>,
}

/// Admits thread blocks to per-SM slots against the spec's register-file,
/// shared-memory, warp-slot, and block-slot limits, and takes them back
/// at retirement. Purely spatial — the simulated clock lives in the
/// caller's event loop and [`super::RetirementQueue`].
#[derive(Debug, Clone)]
pub struct CommandProcessor {
    regfile_per_sm: u64,
    smem_per_sm: u64,
    warps_per_sm: u32,
    blocks_per_sm: u32,
    sms: Vec<SmSlot>,
    max_coresident: u32,
    /// Scratch of [`CommandProcessor::admit`]: blocks placed per SM.
    per_sm: Vec<u64>,
}

impl CommandProcessor {
    /// An empty device with `spec.num_sms` SMs at the spec's limits.
    pub fn new(spec: &GpuSpec) -> Self {
        Self {
            regfile_per_sm: spec.regfile_bytes_per_sm as u64,
            smem_per_sm: spec.shared_mem_per_sm as u64,
            warps_per_sm: spec.max_warps_per_sm(),
            blocks_per_sm: spec.max_blocks_per_sm,
            sms: vec![
                SmSlot {
                    used: SmUsage::default(),
                    resident: BTreeMap::new(),
                };
                spec.num_sms as usize
            ],
            max_coresident: 0,
            per_sm: Vec::new(),
        }
    }

    /// Number of SMs.
    pub fn num_sms(&self) -> usize {
        self.sms.len()
    }

    /// Whether one more block of `demand` fits on SM `sm` right now.
    pub fn fits(&self, sm: usize, demand: &BlockDemand) -> bool {
        let used = &self.sms[sm].used;
        used.regfile_bytes + demand.regfile_bytes <= self.regfile_per_sm
            && used.smem_bytes + demand.smem_bytes <= self.smem_per_sm
            && used.warp_slots + demand.warp_slots <= self.warps_per_sm
            && used.blocks < self.blocks_per_sm
    }

    /// Admits up to `max_blocks` blocks of `launch`, breadth-first: each
    /// pass places at most one block per SM in ascending SM order (the
    /// hardware block scheduler's round-robin shape — it is what lets two
    /// launches share an SM instead of the first launch stacking one SM
    /// full). Returns `(sm, count)` pairs for every SM that admitted at
    /// least one block, in ascending SM order; the total may be anything
    /// from `0` (device full for this shape) to `max_blocks`.
    pub fn admit_up_to(
        &mut self,
        launch: usize,
        demand: &BlockDemand,
        max_blocks: u64,
    ) -> Vec<(usize, u64)> {
        self.admit(launch, demand, max_blocks).collect()
    }

    /// [`CommandProcessor::admit_up_to`] over scratch the processor keeps,
    /// so the scheduler's per-instant admissions allocate nothing. Each
    /// SM's resident count for `launch` is updated once per call.
    pub(crate) fn admit(
        &mut self,
        launch: usize,
        demand: &BlockDemand,
        max_blocks: u64,
    ) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.per_sm.clear();
        self.per_sm.resize(self.sms.len(), 0);
        let mut remaining = max_blocks;
        while remaining > 0 {
            let mut placed_any = false;
            for sm in 0..self.sms.len() {
                if remaining == 0 {
                    break;
                }
                if self.fits(sm, demand) {
                    let used = &mut self.sms[sm].used;
                    used.regfile_bytes += demand.regfile_bytes;
                    used.smem_bytes += demand.smem_bytes;
                    used.warp_slots += demand.warp_slots;
                    used.blocks += 1;
                    self.per_sm[sm] += 1;
                    remaining -= 1;
                    placed_any = true;
                }
            }
            if !placed_any {
                break;
            }
        }
        for (sm, &count) in self.per_sm.iter().enumerate() {
            if count > 0 {
                let resident = &mut self.sms[sm].resident;
                *resident.entry(launch).or_insert(0) += count;
                self.max_coresident = self.max_coresident.max(resident.len() as u32);
            }
        }
        self.per_sm
            .iter()
            .enumerate()
            .filter(|&(_, &count)| count > 0)
            .map(|(sm, &count)| (sm, count))
    }

    /// Retires `count` blocks of `launch` from SM `sm`, returning every
    /// resource they pinned.
    ///
    /// # Panics
    ///
    /// Panics when the SM does not hold `count` blocks of `launch`, or
    /// when returning the resources would underflow any counter — a
    /// retirement that does not match its admission is a scheduler bug,
    /// never a recoverable condition.
    pub fn retire(&mut self, sm: usize, launch: usize, demand: &BlockDemand, count: u64) {
        let slot = &mut self.sms[sm];
        let resident = slot
            .resident
            .get_mut(&launch)
            .unwrap_or_else(|| panic!("launch {launch} has no blocks on SM {sm}"));
        assert!(
            *resident >= count,
            "retiring {count} blocks of launch {launch} from SM {sm}, only {resident} resident"
        );
        *resident -= count;
        if *resident == 0 {
            slot.resident.remove(&launch);
        }
        let sub = |used: &mut u64, freed: u64, what: &str| {
            *used = used
                .checked_sub(freed)
                .unwrap_or_else(|| panic!("retirement returned more {what} than admitted"));
        };
        sub(
            &mut slot.used.regfile_bytes,
            demand.regfile_bytes * count,
            "register-file bytes",
        );
        sub(
            &mut slot.used.smem_bytes,
            demand.smem_bytes * count,
            "shared-memory bytes",
        );
        slot.used.warp_slots = slot
            .used
            .warp_slots
            .checked_sub((demand.warp_slots as u64 * count) as u32)
            .expect("retirement returned more warp slots than admitted");
        slot.used.blocks = slot
            .used
            .blocks
            .checked_sub(count as u32)
            .expect("retirement returned more block slots than admitted");
    }

    /// The committed usage of SM `sm` right now, for audits.
    pub fn usage(&self, sm: usize) -> SmUsage {
        self.sms[sm].used
    }

    /// Highest number of distinct launches simultaneously resident on one
    /// SM so far — `>= 2` is proof of true kernel co-residency.
    pub fn max_coresident_launches(&self) -> u32 {
        self.max_coresident
    }

    /// Whether every SM is completely empty (every admission retired).
    pub fn is_idle(&self) -> bool {
        self.sms
            .iter()
            .all(|s| s.used == SmUsage::default() && s.resident.is_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::BlockResources;

    fn cp() -> CommandProcessor {
        CommandProcessor::new(&GpuSpec::quadro_p6000())
    }

    fn demand(threads: u32, smem: usize) -> BlockDemand {
        BlockDemand::of(&BlockResources {
            regs_per_thread: 32,
            smem_bytes: smem,
            threads,
        })
    }

    #[test]
    fn admission_is_breadth_first() {
        let mut cp = cp();
        // 256-thread blocks, 8 warps each: 8 fit per SM, but the first
        // pass spreads one per SM.
        let placed = cp.admit_up_to(0, &demand(256, 0), 30);
        assert_eq!(placed.len(), 30);
        assert!(placed.iter().all(|&(_, n)| n == 1));
        // A second launch lands on the same SMs: co-residency.
        let placed = cp.admit_up_to(1, &demand(256, 0), 30);
        assert_eq!(placed.len(), 30);
        assert_eq!(cp.max_coresident_launches(), 2);
        assert_eq!(cp.usage(0).blocks, 2);
        assert_eq!(cp.usage(0).warp_slots, 16);
    }

    #[test]
    fn full_smes_admit_nothing_until_retirement() {
        let mut cp = cp();
        // 48 KiB blocks: 2 per SM (96 KiB per SM), 60 device-wide.
        let d = demand(256, 48 * 1024);
        let placed = cp.admit_up_to(0, &d, 100);
        let total: u64 = placed.iter().map(|&(_, n)| n).sum();
        assert_eq!(total, 60, "the device holds exactly 60 such blocks");
        assert!(cp.admit_up_to(1, &d, 1).is_empty(), "device full");
        cp.retire(0, 0, &d, 1);
        let placed = cp.admit_up_to(1, &d, 10);
        assert_eq!(
            placed,
            vec![(0, 1)],
            "the freed slot admits the next launch"
        );
        assert_eq!(
            cp.max_coresident_launches(),
            2,
            "launch 0's surviving block and launch 1's new block share SM 0"
        );
    }

    #[test]
    fn retirement_returns_everything() {
        let mut cp = cp();
        let d = demand(512, 16 * 1024);
        let placed = cp.admit_up_to(7, &d, 45);
        assert!(!cp.is_idle());
        for (sm, n) in placed {
            cp.retire(sm, 7, &d, n);
        }
        assert!(cp.is_idle());
    }

    #[test]
    #[should_panic(expected = "has no blocks")]
    fn over_retirement_panics() {
        let mut cp = cp();
        let d = demand(256, 0);
        cp.admit_up_to(3, &d, 1);
        cp.retire(0, 4, &d, 1);
    }

    #[test]
    fn admission_respects_every_limit() {
        let spec = GpuSpec::quadro_p6000();
        let mut cp = CommandProcessor::new(&spec);
        // Tiny blocks: the 32-block-slot cap binds before warp slots.
        let tiny = demand(32, 0);
        let placed = cp.admit_up_to(0, &tiny, 10_000);
        let total: u64 = placed.iter().map(|&(_, n)| n).sum();
        assert_eq!(total, 32 * 30);
        assert_eq!(cp.usage(0).blocks, spec.max_blocks_per_sm);
    }
}
