//! Reusable, shardable simulation state for [`crate::engine::Engine`].
//!
//! A [`RunContext`] owns everything a kernel launch needs that is not the
//! kernel itself: the partitioned L2 model, atomic-hotspot maps, per-block
//! accumulators, per-shard block-cycle lists, and the SM occupancy table.
//! Contexts are recycled across launches — `prepare` reshapes the existing
//! allocations instead of reallocating — so sweeps that price thousands of
//! candidate configurations stop hammering the allocator.
//!
//! # Sharded simulation
//!
//! The block loop is divided into `num_shards` **contiguous chunks in
//! dispatch order**. Each shard simulates its chunk against a private
//! cache holding `l2_sets / num_shards` sets (same associativity and line
//! size, so total modelled capacity is preserved) and a private hotspot
//! map. The decomposition is a pure function of the launch shape and the
//! device — never of the worker-thread count — which is what makes results
//! bit-identical at any parallelism (see `DESIGN.md`, "Parallel simulation
//! model").

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::Range;
use std::sync::Mutex;

use crate::cache::SetAssocCache;
use crate::kernel::BlockAcc;
use crate::spec::GpuSpec;
use crate::trace::{HotBlock, ShardTrace};

/// Smallest chunk worth simulating in its own shard: below this, shard
/// caches fragment cross-block locality for no wall-clock win.
const MIN_BLOCKS_PER_SHARD: usize = 32;

/// Upper bound on shards; more buys no parallelism on realistic hosts and
/// shrinks each cache partition toward degeneracy.
const MAX_SHARDS: usize = 16;

/// A multiplicative hasher for line-address keys. Line addresses are
/// trusted simulator values, so SipHash's flooding resistance buys
/// nothing on the atomic-hotspot path; one multiply per key does. Only
/// the maximum over a map's values ever reaches an output, so the
/// iteration order this hasher induces is never observable.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct LineHasher(u64);

impl Hasher for LineHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0 ^ n).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }

    #[inline]
    fn finish(&self) -> u64 {
        // The product's high bits mix every key bit; rotate them into the
        // low bits the table indexes buckets with.
        self.0.rotate_left(26)
    }
}

/// Per-line atomic flush rounds, keyed by line address.
pub(crate) type HotspotMap = HashMap<u64, u64, BuildHasherDefault<LineHasher>>;

/// How one launch's block loop is split into shards. Depends only on the
/// launch shape and device geometry, never on the worker-thread count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ShardPlan {
    /// Number of contiguous block chunks (and private cache partitions).
    pub num_shards: usize,
    /// Sets in each shard's cache partition.
    pub sets_per_shard: usize,
    /// Blocks per chunk (last chunk may be shorter).
    pub chunk: usize,
}

/// Plans the shard decomposition for a launch of `num_blocks` blocks on a
/// device whose L2 has `l2_sets` sets.
pub(crate) fn plan_shards(num_blocks: usize, l2_sets: usize) -> ShardPlan {
    let num_shards = (num_blocks / MIN_BLOCKS_PER_SHARD)
        .clamp(1, MAX_SHARDS)
        .min(l2_sets);
    ShardPlan {
        num_shards,
        sets_per_shard: (l2_sets / num_shards).max(1),
        chunk: num_blocks.div_ceil(num_shards),
    }
}

impl ShardPlan {
    /// The contiguous block range owned by `shard`.
    pub fn range(&self, shard: usize, num_blocks: usize) -> Range<usize> {
        let start = (shard * self.chunk).min(num_blocks);
        let end = ((shard + 1) * self.chunk).min(num_blocks);
        start..end
    }
}

/// Running totals a shard accumulates over its chunk. All fields are
/// plain sums, so the cross-shard merge is order-independent.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct ShardTotals {
    pub dram_read_bytes: u64,
    pub dram_write_bytes: u64,
    pub l2_hits: u64,
    pub l2_misses: u64,
    pub atomic_ops: u64,
    pub serialized_atomics: u64,
    pub shared_bytes: u64,
    pub useful_cycles: u64,
    pub busy_issue_cycles: u64,
}

impl ShardTotals {
    /// Folds one block's accumulators into the shard totals.
    pub fn add_block(&mut self, acc: &BlockAcc, busy_sum: u64, useful_sum: u64) {
        self.dram_read_bytes += acc.dram_read_bytes;
        self.dram_write_bytes += acc.dram_write_bytes;
        self.l2_hits += acc.l2_hits;
        self.l2_misses += acc.l2_misses;
        self.atomic_ops += acc.atomic_ops;
        self.serialized_atomics += acc.serialized_atomics;
        self.shared_bytes += acc.shared_bytes;
        self.useful_cycles += useful_sum;
        self.busy_issue_cycles += busy_sum;
    }
}

/// One shard's private simulation state.
#[derive(Debug)]
pub(crate) struct ShardSlot {
    /// This shard's partition of the L2 (`sets_per_shard` sets).
    pub cache: SetAssocCache,
    /// Per-line atomic flush rounds observed within this chunk.
    pub hotspots: HotspotMap,
    /// Recycled per-block accumulator.
    pub acc: BlockAcc,
    /// Cycle cost of each block in the chunk, in dispatch order.
    pub block_cycles: Vec<u64>,
    /// Order-independent chunk totals.
    pub totals: ShardTotals,
}

impl ShardSlot {
    fn empty() -> Self {
        ShardSlot {
            // Placeholder geometry; `RunContext::prepare` reshapes it.
            cache: SetAssocCache::new(1, 1, 128),
            hotspots: HotspotMap::default(),
            acc: BlockAcc::default(),
            block_cycles: Vec::new(),
            totals: ShardTotals::default(),
        }
    }
}

/// Per-SM busy cycles, ordered for earliest-finish-time placement: each
/// block goes to the least-busy SM, the lowest-indexed one on ties.
#[derive(Debug, Default)]
pub(crate) struct SmQueue {
    /// Min-heap of `(busy cycles, SM index)`.
    heap: BinaryHeap<Reverse<(u64, u32)>>,
}

impl SmQueue {
    /// Empties the queue and adds `num_sms` idle SMs.
    pub(crate) fn reset(&mut self, num_sms: u32) {
        self.heap.clear();
        self.heap.extend((0..num_sms).map(|sm| Reverse((0, sm))));
    }

    /// Places a block of `cycles` on the least-busy SM; returns that SM.
    pub(crate) fn place(&mut self, cycles: u64) -> u32 {
        let mut least = self.heap.peek_mut().expect("num_sms > 0 by spec");
        least.0 .0 += cycles;
        least.0 .1
    }

    /// The busiest SM's cycles (0 with no SMs).
    pub(crate) fn busiest(&self) -> u64 {
        self.heap.iter().map(|r| r.0 .0).max().unwrap_or(0)
    }
}

/// Reusable simulation state for one engine. See the module docs.
#[derive(Debug, Default)]
pub struct RunContext {
    /// Shard slots; `prepare` guarantees at least `num_shards` of them.
    /// Each sits behind a `Mutex` so pool workers can claim slots while
    /// the context itself is shared immutably across the launch.
    pub(crate) shards: Vec<Mutex<ShardSlot>>,
    /// Scratch map the merge phase sums per-shard hotspot rounds into.
    pub(crate) merged_hotspots: HotspotMap,
    /// Per-SM busy cycles for the greedy placement pass.
    pub(crate) sm_busy: SmQueue,
    /// Arena for the per-shard trace rows assembled during the merge;
    /// recycled across launches so tracing never allocates per launch.
    pub(crate) shard_traces: Vec<ShardTrace>,
    /// Arena for the top-K hottest-block records, recycled like
    /// `shard_traces`.
    pub(crate) hot_blocks: Vec<HotBlock>,
}

impl RunContext {
    /// An empty context; the first `prepare` sizes it.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reshapes the context for one launch, recycling prior allocations.
    pub(crate) fn prepare(&mut self, spec: &GpuSpec, plan: &ShardPlan) {
        while self.shards.len() < plan.num_shards {
            self.shards.push(Mutex::new(ShardSlot::empty()));
        }
        for slot in &mut self.shards[..plan.num_shards] {
            let slot = slot.get_mut().unwrap_or_else(|p| p.into_inner());
            slot.cache
                .reset_geometry(plan.sets_per_shard, spec.l2_ways, spec.line_bytes);
            slot.hotspots.clear();
            slot.acc.reset();
            slot.block_cycles.clear();
            slot.totals = ShardTotals::default();
        }
        self.merged_hotspots.clear();
        self.sm_busy.reset(spec.num_sms);
        self.shard_traces.clear();
        self.hot_blocks.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn sm_queue_places_like_the_linear_scan() {
        let mut rng = SmallRng::seed_from_u64(5);
        let mut queue = SmQueue::default();
        for num_sms in [1u32, 2, 7, 30, 80] {
            queue.reset(num_sms);
            let mut busy = vec![0u64; num_sms as usize];
            for _ in 0..2_000 {
                // Few distinct costs, so busy times tie often.
                let cycles = rng.gen_range(0..4u64) * 100;
                let (sm, _) = busy
                    .iter()
                    .enumerate()
                    .min_by_key(|&(_, &t)| t)
                    .expect("num_sms > 0");
                busy[sm] += cycles;
                assert_eq!(queue.place(cycles), sm as u32, "{num_sms} SMs");
            }
            assert_eq!(queue.busiest(), busy.iter().copied().max().unwrap_or(0));
        }
    }

    #[test]
    fn plan_is_a_function_of_the_launch_only() {
        // Small launches never shard: cross-block locality stays whole.
        for blocks in [1, 31, 63] {
            assert_eq!(plan_shards(blocks, 1536).num_shards, 1);
        }
        assert_eq!(plan_shards(64, 1536).num_shards, 2);
        // Large launches cap at MAX_SHARDS with the capacity split evenly.
        let plan = plan_shards(100_000, 1536);
        assert_eq!(plan.num_shards, MAX_SHARDS);
        assert_eq!(plan.sets_per_shard, 1536 / MAX_SHARDS);
        // A tiny cache bounds the shard count.
        assert_eq!(plan_shards(100_000, 4).num_shards, 4);
    }

    #[test]
    fn ranges_tile_the_block_space() {
        for (blocks, sets) in [(1, 8), (64, 1536), (65, 1536), (1000, 24), (4096, 1536)] {
            let plan = plan_shards(blocks, sets);
            let mut cursor = 0;
            for shard in 0..plan.num_shards {
                let r = plan.range(shard, blocks);
                assert_eq!(r.start, cursor, "chunks are contiguous in dispatch order");
                assert!(!r.is_empty(), "every shard owns at least one block");
                cursor = r.end;
            }
            assert_eq!(cursor, blocks, "chunks cover every block exactly once");
        }
    }

    #[test]
    fn prepare_recycles_and_resets() {
        let spec = GpuSpec::quadro_p6000();
        let mut ctx = RunContext::new();
        let plan = plan_shards(4096, spec.l2_sets());
        ctx.prepare(&spec, &plan);
        assert_eq!(ctx.shards.len(), plan.num_shards);
        {
            let slot = ctx.shards[0].get_mut().expect("unpoisoned");
            slot.cache.access(0);
            slot.hotspots.insert(1, 2);
            slot.block_cycles.push(3);
            slot.totals.atomic_ops = 4;
        }
        ctx.prepare(&spec, &plan);
        let slot = ctx.shards[0].get_mut().expect("unpoisoned");
        assert_eq!(slot.cache.hits() + slot.cache.misses(), 0);
        assert!(slot.hotspots.is_empty());
        assert!(slot.block_cycles.is_empty());
        assert_eq!(slot.totals.atomic_ops, 0);
        assert_eq!(slot.cache.num_sets(), plan.sets_per_shard);
    }
}
