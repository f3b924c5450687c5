//! Kernel abstraction: grids, op streams, and the block sink.
//!
//! A [`Kernel`] describes a launch ([`GridConfig`]) and, per thread block,
//! emits warp-granularity operations into a [`BlockSink`]. The engine
//! provides the sink; kernels never materialize a trace, so multi-million
//! edge graphs stream through in O(1) memory.
//!
//! Divergence convention: ops are *warp-level*. An emitter that knows its
//! per-lane workloads calls [`BlockSink::compute_lanes`], which charges the
//! maximum over lanes — the SIMT lockstep cost — and records the sum as
//! useful work so SM-efficiency reflects the waste.

use crate::spec::{BlockResources, DEFAULT_REGS_PER_THREAD};
use crate::GpuError;

/// Identifies a simulated global-memory array (feature matrix, CSR arrays,
/// output buffer...). Each array owns a disjoint address range.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ArrayId(pub u32);

impl ArrayId {
    /// Byte-address base of this array in the flat simulated address space.
    /// 16 TiB per array keeps arrays disjoint without bookkeeping.
    pub(crate) fn base(self) -> u64 {
        (self.0 as u64) << 44
    }
}

/// Launch configuration of a kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GridConfig {
    /// Number of thread blocks.
    pub num_blocks: usize,
    /// Threads per block (multiple of the warp width for full warps;
    /// ragged tails are permitted and simply leave lanes idle).
    pub threads_per_block: u32,
    /// Shared memory requested per block, in bytes.
    pub shared_mem_bytes: usize,
}

impl GridConfig {
    /// Validates the launch against a device's limits.
    pub fn validate(&self, spec: &crate::GpuSpec) -> crate::Result<()> {
        if self.num_blocks == 0 {
            return Err(GpuError::EmptyGrid);
        }
        if self.threads_per_block == 0 || self.threads_per_block > spec.max_threads_per_block {
            return Err(GpuError::InvalidBlockSize {
                requested: self.threads_per_block,
                max: spec.max_threads_per_block,
            });
        }
        if self.shared_mem_bytes > spec.shared_mem_per_block {
            return Err(GpuError::SharedMemoryOverflow {
                requested: self.shared_mem_bytes,
                limit: spec.shared_mem_per_block,
            });
        }
        debug_assert!(
            spec.occupancy_limit(&self.resources()).is_launchable(),
            "a validated grid must be admissible on an empty SM"
        );
        Ok(())
    }

    /// The per-block resource demand this launch presents to the device
    /// core's admission check ([`crate::GpuSpec::occupancy_limit`]).
    /// Register demand defaults to [`DEFAULT_REGS_PER_THREAD`]; kernels
    /// with unusual register pressure override
    /// [`Kernel::block_resources`].
    pub fn resources(&self) -> BlockResources {
        BlockResources {
            regs_per_thread: DEFAULT_REGS_PER_THREAD,
            smem_bytes: self.shared_mem_bytes,
            threads: self.threads_per_block,
        }
    }
}

/// Warp width of every simulated device.
pub const WARP_SIZE: u32 = 32;

/// A kernel that can be launched on the simulated device.
///
/// `Sync` is required so the engine can shard one launch's block loop
/// across host pool threads; emitters are read-only descriptions of
/// the launch, so this is free in practice.
pub trait Kernel: Sync {
    /// Kernel name for reports.
    fn name(&self) -> &str;

    /// The launch configuration.
    fn grid(&self) -> GridConfig;

    /// The per-block resource demand the command processor admits this
    /// kernel's blocks against. Defaults to the grid's shape with
    /// [`DEFAULT_REGS_PER_THREAD`] registers per thread; override to
    /// declare real register pressure.
    fn block_resources(&self) -> BlockResources {
        self.grid().resources()
    }

    /// Emits the operations of one thread block. Call
    /// [`BlockSink::begin_warp`] before each warp's ops.
    fn emit_block(&self, block_id: usize, sink: &mut BlockSink<'_>);
}

/// Per-warp accumulators filled by the sink.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct WarpAcc {
    /// Issue-occupancy cycles (compute + transaction issue + atomics).
    pub busy: u64,
    /// Useful work in lane-cycles (sum over lanes, for SM efficiency).
    pub useful: u64,
    /// Memory stall cycles before latency hiding.
    pub stall: u64,
}

/// Per-block accumulators. Owned by the run context and recycled across
/// blocks: [`BlockAcc::reset`] zeroes the counters while keeping the warp
/// arrays' capacity, so steady-state block simulation allocates nothing.
///
/// Warp accumulators are stored struct-of-arrays: the engine's reductions
/// (busy/useful sums, critical-path max over `busy + stall / hiding`) each
/// stream over one or two homogeneous `u64` slices instead of striding
/// through interleaved records, and `flush_warp` appends to flat arrays.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub(crate) struct BlockAcc {
    /// Per-warp issue-occupancy cycles, indexed by warp emission order.
    pub warp_busy: Vec<u64>,
    /// Per-warp useful lane-cycles, parallel to `warp_busy`.
    pub warp_useful: Vec<u64>,
    /// Per-warp memory stall cycles, parallel to `warp_busy`.
    pub warp_stall: Vec<u64>,
    pub dram_read_bytes: u64,
    pub dram_write_bytes: u64,
    pub l2_hits: u64,
    pub l2_misses: u64,
    pub atomic_ops: u64,
    pub serialized_atomics: u64,
    pub shared_bytes: u64,
    pub syncs: u64,
}

impl BlockAcc {
    /// Clears the accumulators for the next block, keeping allocations.
    pub fn reset(&mut self) {
        self.warp_busy.clear();
        self.warp_useful.clear();
        self.warp_stall.clear();
        self.dram_read_bytes = 0;
        self.dram_write_bytes = 0;
        self.l2_hits = 0;
        self.l2_misses = 0;
        self.atomic_ops = 0;
        self.serialized_atomics = 0;
        self.shared_bytes = 0;
        self.syncs = 0;
    }
}

/// The lines a batch of read calls touched, and the latency exposures
/// they cost: each call that touches a line exposes one latency, a DRAM
/// one when any of its lines missed and an L2 one otherwise.
#[derive(Debug, Default, Clone, Copy)]
struct LineReads {
    hits: u64,
    misses: u64,
    /// Calls that touched at least one line.
    exposures: u64,
    /// Of those, calls that missed at least once.
    missed: u64,
}

impl LineReads {
    /// One read call that touched `hits + misses` lines.
    #[inline(always)]
    fn one(hits: u64, misses: u64) -> Self {
        Self {
            hits,
            misses,
            exposures: (hits + misses > 0) as u64,
            missed: (misses > 0) as u64,
        }
    }

    #[inline(always)]
    fn add(&mut self, other: Self) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.exposures += other.exposures;
        self.missed += other.missed;
    }
}

/// The engine-provided consumer of a block's op stream.
///
/// All cost arithmetic lives here so kernels stay declarative: they state
/// *what* each warp does and the sink prices it against the device spec and
/// the shared cache.
pub struct BlockSink<'a> {
    spec: &'a crate::GpuSpec,
    cache: &'a mut crate::cache::SetAssocCache,
    /// Global per-address atomic contention counters (line granularity),
    /// shared across the whole kernel.
    atomic_hotspots: &'a mut crate::context::HotspotMap,
    /// Intra-block contention factor: shared-memory banks and atomic units
    /// congest as more warps share one block ("the inter-thread contention
    /// in each block will become severer", Section 7.1) — the right-hand
    /// rise of Figure 11b.
    contention: u64,
    /// Borrowed from the run context so its buffers outlive the sink and
    /// are recycled across blocks. [`BlockSink::new`] resets it.
    pub(crate) acc: &'a mut BlockAcc,
    current: Option<WarpAcc>,
}

impl<'a> BlockSink<'a> {
    pub(crate) fn new(
        spec: &'a crate::GpuSpec,
        cache: &'a mut crate::cache::SetAssocCache,
        atomic_hotspots: &'a mut crate::context::HotspotMap,
        acc: &'a mut BlockAcc,
        threads_per_block: u32,
    ) -> Self {
        let contention = ((threads_per_block / WARP_SIZE) as u64 / 8).max(1);
        acc.reset();
        Self {
            spec,
            cache,
            atomic_hotspots,
            contention,
            acc,
            current: None,
        }
    }

    /// Starts a new warp; finalizes the previous one.
    #[inline(always)]
    pub fn begin_warp(&mut self) {
        self.flush_warp();
        self.current = Some(WarpAcc::default());
    }

    #[inline(always)]
    fn flush_warp(&mut self) {
        if let Some(w) = self.current.take() {
            self.acc.warp_busy.push(w.busy);
            self.acc.warp_useful.push(w.useful);
            self.acc.warp_stall.push(w.stall);
        }
    }

    pub(crate) fn finish(&mut self) {
        self.flush_warp();
    }

    /// The open warp's accumulator. Opens a warp if none is, so simple
    /// emitters can skip `begin_warp` for single-warp blocks.
    #[inline(always)]
    fn warp(&mut self) -> &mut WarpAcc {
        self.current.get_or_insert_with(WarpAcc::default)
    }

    /// Charges `cycles` of uniform compute across `active_lanes` lanes.
    #[inline(always)]
    pub fn compute(&mut self, cycles: u64, active_lanes: u32) {
        let w = self.warp();
        w.busy += cycles;
        w.useful += cycles * active_lanes.min(WARP_SIZE) as u64;
    }

    /// Charges divergent per-lane compute: the warp occupies the issue
    /// pipeline for `max(lanes)` cycles while only `sum(lanes)` lane-cycles
    /// are useful. This is the primitive behind the node-centric baseline's
    /// imbalance penalty (Figure 4b).
    #[inline]
    pub fn compute_lanes(&mut self, lane_cycles: &[u64]) {
        debug_assert!(
            lane_cycles.len() <= WARP_SIZE as usize,
            "a warp has at most 32 lanes"
        );
        let max = lane_cycles.iter().copied().max().unwrap_or(0);
        let sum: u64 = lane_cycles.iter().sum();
        self.compute_divergent(max, sum);
    }

    /// [`BlockSink::compute_lanes`] for an emitter that knows its lanes'
    /// maximum and sum without listing them: the warp is busy for
    /// `max_lane_cycles` and does `lane_cycle_sum` useful lane-cycles.
    #[inline(always)]
    pub fn compute_divergent(&mut self, max_lane_cycles: u64, lane_cycle_sum: u64) {
        let w = self.warp();
        w.busy += max_lane_cycles;
        w.useful += lane_cycle_sum;
    }

    /// Coalesced global read of `bytes` starting at `offset` within
    /// `array`: the warp touches `ceil(bytes / line)` transactions.
    #[inline(always)]
    pub fn global_read(&mut self, array: ArrayId, offset: u64, bytes: u64) {
        if bytes == 0 {
            return;
        }
        let (hits, misses) = self.cache.access_range(array.base() + offset, bytes);
        let reads = LineReads::one(hits, misses);
        self.note_reads(reads, hits + misses, WARP_SIZE as u64);
    }

    /// Coalesced global write.
    #[inline(always)]
    pub fn global_write(&mut self, array: ArrayId, offset: u64, bytes: u64) {
        if bytes == 0 {
            return;
        }
        let (hits, misses) = self.cache.access_range(array.base() + offset, bytes);
        let transactions = hits + misses;
        self.acc.dram_write_bytes += misses * self.cache.line_bytes();
        self.acc.l2_hits += hits;
        self.acc.l2_misses += misses;
        let issue = self.spec.transaction_issue_cycles;
        let l2 = self.spec.l2_latency_cycles;
        let w = self.warp();
        w.busy += transactions * issue;
        w.useful += transactions * issue * WARP_SIZE as u64;
        // Writes are fire-and-forget through the write buffer: one short
        // exposure, the rest drains behind it.
        w.stall += l2 / 2 + transactions.saturating_sub(1) * 2;
    }

    /// Uncoalesced global read: each lane touches its own address, issuing
    /// one transaction per lane (the GunRock-style scalar-operator cost).
    /// `lane_offsets` are byte offsets within `array`; `bytes_per_lane` is
    /// the access width.
    #[inline]
    pub fn global_read_scattered(
        &mut self,
        array: ArrayId,
        lane_offsets: &[u64],
        bytes_per_lane: u64,
    ) {
        debug_assert!(lane_offsets.len() <= WARP_SIZE as usize);
        let base = array.base();
        let mut hits = 0u64;
        let mut misses = 0u64;
        for &off in lane_offsets {
            let (h, m) = self.cache.access_range(base + off, bytes_per_lane);
            hits += h;
            misses += m;
        }
        // Every touched line is its own transaction (each lane walks its
        // own row), and each transaction keeps only one lane busy:
        // scattered access wastes 31/32 of every memory transaction, which
        // is exactly the coalescing penalty Section 5.4 optimizes away —
        // and it grows linearly with the embedding width.
        self.note_reads(LineReads::one(hits, misses), hits + misses, 1);
    }

    /// Reads the `row_bytes`-wide rows `rows` of `array` (row `r` starts
    /// at byte `r * row_bytes`) in a single call: a neighbour list's
    /// feature rows. Each row is read in `transactions` memory
    /// transactions, each of which keeps `useful_lanes` lanes busy. This
    /// models dimension-based workload sharing (Section 5.4): a team of
    /// `dw` adjacent lanes covering adjacent dimensions needs
    /// `ceil(D / dw)` transactions per embedding row and utilizes `dw`
    /// lanes per transaction — `dw = 32` is fully coalesced, `dw = 1`
    /// wastes 31/32 of each transaction.
    #[inline(always)]
    pub fn global_read_rows(
        &mut self,
        array: ArrayId,
        rows: &[u32],
        row_bytes: u64,
        transactions: u64,
        useful_lanes: u32,
    ) {
        let offsets = rows.iter().map(|&r| r as u64 * row_bytes);
        self.read_rows(array, offsets, row_bytes, transactions, useful_lanes);
    }

    /// Reads `bytes` at each of `offsets` within `array`, each read in
    /// `transactions` transactions keeping `useful_lanes` lanes busy. The
    /// cache walk is per row; the charge is summed over the rows.
    #[inline(always)]
    fn read_rows(
        &mut self,
        array: ArrayId,
        offsets: impl IntoIterator<Item = u64>,
        bytes: u64,
        transactions: u64,
        useful_lanes: u32,
    ) {
        if bytes == 0 {
            return;
        }
        let base = array.base();
        let mut reads = LineReads::default();
        for offset in offsets {
            let (hits, misses) = self.cache.access_range(base + offset, bytes);
            reads.add(LineReads::one(hits, misses));
        }
        if reads.exposures == 0 {
            return;
        }
        self.note_reads(
            reads,
            reads.exposures * transactions,
            useful_lanes.min(WARP_SIZE) as u64,
        );
    }

    /// Charges reads that touched `reads`' lines in `transactions`
    /// transactions, each keeping `useful_lanes` lanes busy.
    #[inline(always)]
    fn note_reads(&mut self, reads: LineReads, transactions: u64, useful_lanes: u64) {
        let line = self.cache.line_bytes();
        self.acc.dram_read_bytes += reads.misses * line;
        self.acc.l2_hits += reads.hits;
        self.acc.l2_misses += reads.misses;
        let issue = self.spec.transaction_issue_cycles;
        let l2 = self.spec.l2_latency_cycles;
        let dram = self.spec.dram_latency_cycles;
        let w = self.warp();
        w.busy += transactions * issue;
        w.useful += transactions * issue * useful_lanes;
        // One read call exposes one latency: the call's line fetches are
        // independent and pipeline behind the first (a short per-line
        // drain models the memory pipe). Misses dominate the exposure.
        w.stall += reads.missed * dram
            + (reads.exposures - reads.missed) * l2
            + (reads.hits + reads.misses - reads.exposures) * 4;
    }

    /// Shared-memory access of `bytes` (read or write cost identical).
    #[inline]
    pub fn shared_access(&mut self, bytes: u64) {
        if bytes == 0 {
            return;
        }
        self.acc.shared_bytes += bytes;
        // One shared transaction serves a warp-wide 128 B access.
        let transactions = bytes.div_ceil(128);
        let lat = self.spec.shared_latency_cycles * self.contention;
        let w = self.warp();
        w.busy += transactions;
        w.useful += transactions * WARP_SIZE as u64;
        w.stall += lat + transactions.saturating_sub(1) * 2;
    }

    /// `count` atomic read-modify-write operations landing on *distinct
    /// words* of the region `[offset, offset + span_bytes)` of `array` —
    /// one call models one flush of an embedding row (or one per-edge
    /// push). Atomics within a single call target different addresses and
    /// do not contend; contention arises between *calls* overlapping the
    /// same region (two leaders flushing the same node row, or many edges
    /// pushing to one destination). Each line records how many calls
    /// (rounds) touched it; a call on an already-touched line pays
    /// serialization for all its atomics there, and the hottest line's
    /// round count bounds the kernel's elapsed time (the engine applies
    /// that bound — the per-word serial chain is one op per round).
    pub fn atomic_rmw(&mut self, array: ArrayId, offset: u64, span_bytes: u64, count: u64) {
        if count == 0 {
            return;
        }
        self.acc.atomic_ops += count;
        let line_bytes = self.cache.line_bytes();
        let base = array.base() + offset;
        let first = base / line_bytes;
        let last = (base + span_bytes.max(1) - 1) / line_bytes;
        let lines = last - first + 1;
        let per_line = count / lines.max(1);
        let mut extra = count % lines.max(1);
        // Words available per line within the span (atomics are 4-byte).
        let span_words = (span_bytes.max(4) / 4).max(1);
        let words_per_line = (line_bytes / 4).min(span_words.div_ceil(lines));
        let mut serialized: u64 = 0;
        for line in first..=last {
            let c = per_line
                + if extra > 0 {
                    extra -= 1;
                    1
                } else {
                    0
                };
            if c == 0 {
                continue;
            }
            // This call lands `c` atomics on at most `words_per_line`
            // distinct words of the line: `rounds_here` is its own
            // per-word serial chain; anything beyond one op per word
            // self-serializes even on a cold line.
            let rounds_here = c.div_ceil(words_per_line.max(1));
            let rounds = self.atomic_hotspots.entry(line).or_insert(0);
            serialized += if *rounds > 0 {
                c
            } else {
                c - c.min(words_per_line)
            };
            *rounds += rounds_here;
        }
        // Atomics also traffic memory: charge reads through the cache so
        // the DRAM counters see them.
        let (hits, misses) = self.cache.access_range(base, span_bytes.max(1));
        self.acc.l2_hits += hits;
        self.acc.l2_misses += misses;
        self.acc.dram_read_bytes += misses * line_bytes;
        // Atomic RMWs resolve at the memory-side L2 and write through to
        // DRAM at line granularity, so every flush round produces write
        // traffic — this is the DRAM component the leader-node scheme and
        // shared-memory staging save (Figure 12c).
        self.acc.dram_write_bytes += lines * line_bytes;
        self.acc.serialized_atomics += serialized;
        let atomic_lat = self.spec.atomic_latency_cycles;
        let ser = self.spec.atomic_serialize_cycles;
        let w = self.warp();
        // A warp issues up to 32 atomics per instruction; atomics to
        // *different* lines proceed in parallel at the L2 atomic units, so
        // latency is charged per line touched while same-line conflicts pay
        // the serialization term.
        w.busy += count.div_ceil(WARP_SIZE as u64) * 2;
        // One atomic-latency exposure per call plus the serial chain.
        w.stall += atomic_lat + lines.saturating_sub(1) * 4 + serialized * ser;
        w.useful += count.div_ceil(WARP_SIZE as u64) * 2;
    }

    /// A `__syncthreads` barrier.
    #[inline]
    pub fn sync(&mut self) {
        self.acc.syncs += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::SetAssocCache;
    use crate::context::HotspotMap;
    use crate::GpuSpec;

    fn harness() -> (GpuSpec, SetAssocCache, HotspotMap, BlockAcc) {
        let spec = GpuSpec::quadro_p6000();
        let cache = SetAssocCache::new(spec.l2_sets(), spec.l2_ways, spec.line_bytes);
        (spec, cache, HotspotMap::default(), BlockAcc::default())
    }

    #[test]
    fn compute_lanes_charges_max_counts_sum() {
        let (spec, mut cache, mut hot, mut acc) = harness();
        let mut sink = BlockSink::new(&spec, &mut cache, &mut hot, &mut acc, 256);
        sink.begin_warp();
        sink.compute_lanes(&[10, 2, 2, 2]);
        sink.finish();
        assert_eq!(sink.acc.warp_busy.len(), 1);
        assert_eq!(sink.acc.warp_busy[0], 10, "lockstep pays the max lane");
        assert_eq!(sink.acc.warp_useful[0], 16, "useful work is the lane sum");
    }

    #[test]
    fn coalesced_read_uses_line_transactions() {
        let (spec, mut cache, mut hot, mut acc) = harness();
        let mut sink = BlockSink::new(&spec, &mut cache, &mut hot, &mut acc, 256);
        sink.begin_warp();
        sink.global_read(ArrayId(0), 0, 128); // exactly one line
        sink.finish();
        assert_eq!(sink.acc.l2_misses, 1);
        assert_eq!(sink.acc.dram_read_bytes, 128);
        assert_eq!(sink.acc.warp_busy[0], spec.transaction_issue_cycles);
        assert_eq!(sink.acc.warp_stall[0], spec.dram_latency_cycles);
    }

    /// One row's read, priced by the plain per-row formula: the reference
    /// the slice form is held to.
    fn strided_reference(
        sink: &mut BlockSink<'_>,
        offset: u64,
        bytes: u64,
        transactions: u64,
        useful_lanes: u32,
    ) {
        if bytes == 0 {
            return;
        }
        let (hits, misses) = sink.cache.access_range(ArrayId(3).base() + offset, bytes);
        sink.acc.dram_read_bytes += misses * sink.cache.line_bytes();
        sink.acc.l2_hits += hits;
        sink.acc.l2_misses += misses;
        let spec = sink.spec;
        let w = sink.warp();
        w.busy += transactions * spec.transaction_issue_cycles;
        w.useful += transactions * spec.transaction_issue_cycles * useful_lanes.min(32) as u64;
        let exposure = if misses > 0 {
            spec.dram_latency_cycles
        } else if hits > 0 {
            spec.l2_latency_cycles
        } else {
            0
        };
        w.stall += exposure + (hits + misses).saturating_sub(1) * 4;
    }

    #[test]
    fn row_slice_read_equals_per_row_strided_reads() {
        // Pseudo-random neighbour lists with repeats (so rows both hit and
        // miss), row widths from zero bytes to several lines, lane counts
        // past the warp width, lists read before any warp is open, and
        // empty lists: one slice call per list must leave the sink and
        // the cache exactly where the per-row loop of the reference
        // formula leaves them.
        #[derive(Clone, Copy)]
        enum Form {
            Reference,
            Slice,
        }
        let mut state = 0x5EED_u64;
        let mut next = move |bound: u64| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            (state >> 33) % bound
        };
        for row_bytes in [0u64, 4, 64, 128, 200, 512] {
            let lists: Vec<Vec<u32>> = (0..40)
                .map(|_| {
                    let len = next(12) as usize;
                    (0..len).map(|_| next(300) as u32).collect()
                })
                .collect();
            assert!(lists.iter().any(Vec::is_empty));
            let run = |form: Form| {
                let (spec, mut cache, mut hot, mut acc) = harness();
                let mut sink = BlockSink::new(&spec, &mut cache, &mut hot, &mut acc, 256);
                for (i, rows) in lists.iter().enumerate() {
                    // List 0 is read before any warp is open; a new warp
                    // starts every third list.
                    if i % 3 == 1 {
                        sink.begin_warp();
                    }
                    let transactions = 1 + i as u64 % 4;
                    let lanes = [1, 8, 32, 40][i % 4];
                    let offset = |r: u32| r as u64 * row_bytes;
                    match form {
                        Form::Reference => {
                            for &r in rows {
                                strided_reference(
                                    &mut sink,
                                    offset(r),
                                    row_bytes,
                                    transactions,
                                    lanes,
                                );
                            }
                        }
                        Form::Slice => {
                            sink.global_read_rows(ArrayId(3), rows, row_bytes, transactions, lanes)
                        }
                    }
                }
                sink.finish();
                (acc, cache.hits(), cache.misses())
            };
            let reference = run(Form::Reference);
            assert_eq!(run(Form::Slice), reference, "row width {row_bytes} B");
            if row_bytes > 0 {
                assert!(reference.1 > 0 && reference.2 > 0, "rows both hit and miss");
            }
        }
    }

    #[test]
    fn scattered_read_pays_per_lane() {
        let (spec, mut cache, mut hot, mut acc) = harness();
        let mut sink = BlockSink::new(&spec, &mut cache, &mut hot, &mut acc, 256);
        sink.begin_warp();
        // Four lanes touching four distinct lines.
        sink.global_read_scattered(ArrayId(0), &[0, 4096, 8192, 12288], 4);
        sink.finish();
        assert_eq!(sink.acc.l2_misses, 4, "each lane is its own transaction");

        // The same data read coalesced touches one line per 128 B.
        let (spec2, mut cache2, mut hot2, mut acc2) = harness();
        let mut sink2 = BlockSink::new(&spec2, &mut cache2, &mut hot2, &mut acc2, 256);
        sink2.begin_warp();
        sink2.global_read(ArrayId(0), 0, 16);
        sink2.finish();
        assert_eq!(sink2.acc.l2_misses, 1);
    }

    #[test]
    fn reuse_hits_cache() {
        let (spec, mut cache, mut hot, mut acc) = harness();
        let mut sink = BlockSink::new(&spec, &mut cache, &mut hot, &mut acc, 256);
        sink.begin_warp();
        sink.global_read(ArrayId(1), 0, 256);
        sink.global_read(ArrayId(1), 0, 256);
        sink.finish();
        assert_eq!(sink.acc.l2_misses, 2);
        assert_eq!(sink.acc.l2_hits, 2);
        assert_eq!(sink.acc.dram_read_bytes, 256, "only the misses reach DRAM");
    }

    #[test]
    fn arrays_do_not_alias() {
        let (spec, mut cache, mut hot, mut acc) = harness();
        let mut sink = BlockSink::new(&spec, &mut cache, &mut hot, &mut acc, 256);
        sink.begin_warp();
        sink.global_read(ArrayId(0), 0, 128);
        sink.global_read(ArrayId(1), 0, 128);
        sink.finish();
        assert_eq!(
            sink.acc.l2_misses, 2,
            "same offset in different arrays is distinct"
        );
    }

    #[test]
    fn atomic_contention_serializes() {
        let (spec, mut cache, mut hot, mut acc) = harness();
        let mut sink = BlockSink::new(&spec, &mut cache, &mut hot, &mut acc, 256);
        sink.begin_warp();
        sink.atomic_rmw(ArrayId(2), 0, 4, 1);
        sink.begin_warp();
        sink.atomic_rmw(ArrayId(2), 0, 4, 1);
        sink.finish();
        assert_eq!(sink.acc.atomic_ops, 2);
        assert_eq!(
            sink.acc.warp_stall[0], spec.atomic_latency_cycles,
            "first atomic unserialised"
        );
        assert_eq!(
            sink.acc.warp_stall[1],
            spec.atomic_latency_cycles + spec.atomic_serialize_cycles,
            "second atomic on the same line pays serialization"
        );
    }

    #[test]
    fn grid_validation() {
        let spec = GpuSpec::quadro_p6000();
        let ok = GridConfig {
            num_blocks: 1,
            threads_per_block: 256,
            shared_mem_bytes: 0,
        };
        assert!(ok.validate(&spec).is_ok());
        let empty = GridConfig {
            num_blocks: 0,
            ..ok
        };
        assert_eq!(empty.validate(&spec), Err(GpuError::EmptyGrid));
        let fat = GridConfig {
            threads_per_block: 2048,
            ..ok
        };
        assert!(matches!(
            fat.validate(&spec),
            Err(GpuError::InvalidBlockSize { .. })
        ));
        let hog = GridConfig {
            shared_mem_bytes: 1 << 20,
            ..ok
        };
        assert!(matches!(
            hog.validate(&spec),
            Err(GpuError::SharedMemoryOverflow { .. })
        ));
    }

    #[test]
    fn shared_access_is_cheap() {
        let (spec, mut cache, mut hot, mut acc) = harness();
        let mut sink = BlockSink::new(&spec, &mut cache, &mut hot, &mut acc, 256);
        sink.begin_warp();
        sink.shared_access(128);
        sink.finish();
        assert!(
            sink.acc.warp_stall[0] < spec.dram_latency_cycles / 4,
            "shared must be far cheaper than DRAM"
        );
        assert_eq!(sink.acc.shared_bytes, 128);
    }
}
