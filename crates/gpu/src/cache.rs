//! Set-associative LRU cache model.
//!
//! One shared cache level stands in for the L1 + L2 + texture hierarchy the
//! paper profiles ("Cache (L1 + L2 + Texture) Hit Rate", Figure 9b). Blocks
//! are simulated in dispatch order against this single cache, so temporal
//! locality across nearby blocks — precisely what community-aware node
//! renumbering creates — turns into hits, and the hit-rate / DRAM-byte
//! metrics respond to renumbering the way the paper's Figure 12 shows.
//!
//! Replacement is true LRU kept as a move-to-front list per set: the set's
//! live tags sit most-recent-first in one flat `tags` array, so a probe is
//! an early-exit scan from the MRU end, and a hit or fill shifts at most
//! `ways - 1` tags down one slot to put the line in front. Any exact LRU
//! yields the same hit/miss sequence, so this layout is purely a speed
//! choice. A cache can be re-geometried in place so run contexts recycle
//! the allocation across kernel launches.
//!
//! Invalidation is epoch-batched: each set records the cache-wide epoch at
//! which its live count was last written, and a set whose epoch is behind
//! the cache's is empty. Wiping the cache between launches is therefore a
//! single epoch bump instead of an O(sets × ways) refill. The epoch is a
//! `u16`; when it would wrap, every set's epoch is reset explicitly so a
//! stale set can never alias the current epoch.

/// Result of one cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// The line was resident.
    Hit,
    /// The line was fetched from DRAM (and inserted).
    Miss,
}

/// Occupancy of one set: its first `live` tags are valid when `epoch`
/// equals the cache's epoch, and the set is empty otherwise.
#[derive(Debug, Clone, Copy, Default)]
struct SetState {
    epoch: u16,
    live: u16,
}

/// A set-associative cache with true-LRU replacement over 64-bit line
/// addresses.
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    /// `tags[set * ways..][..live]` are the set's resident lines, most
    /// recently used first. Slots past `live` hold garbage.
    tags: Vec<u64>,
    /// Per-set live count and the epoch it was written at.
    sets: Vec<SetState>,
    /// Sets whose epoch differs are empty. Starts at 1 so freshly built
    /// sets (epoch 0) start empty.
    epoch: u16,
    num_sets: usize,
    ways: usize,
    line_bytes: u64,
    /// `log2(line_bytes)`; address→line is a shift, not a divide.
    line_shift: u32,
    /// Lemire magic `ceil(2^64 / num_sets)` for computing `line % num_sets`
    /// with two multiplies instead of a hardware divide — the divide
    /// dominates simulation wall-clock otherwise.
    fastmod_m: u64,
    /// Largest line index for which the fastmod identity is exact
    /// (`line * num_sets < 2^64`); larger lines fall back to `%`.
    fastmod_max: u64,
    hits: u64,
    misses: u64,
}

impl SetAssocCache {
    /// Builds a cache with the given geometry. `num_sets` and `ways` must
    /// be non-zero, `ways` at most `u16::MAX`; `line_bytes` must be a
    /// power of two.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate.
    pub fn new(num_sets: usize, ways: usize, line_bytes: usize) -> Self {
        let mut cache = Self {
            tags: Vec::new(),
            sets: Vec::new(),
            epoch: 1,
            num_sets: 0,
            ways: 0,
            line_bytes: 0,
            line_shift: 0,
            fastmod_m: 0,
            fastmod_max: 0,
            hits: 0,
            misses: 0,
        };
        cache.reset_geometry(num_sets, ways, line_bytes);
        cache
    }

    /// Reshapes the cache in place, invalidating all lines and zeroing the
    /// counters, while recycling the existing allocations. Only growth
    /// touches memory: a shrink or a same-shaped reset is an O(1) epoch
    /// bump, since every set written under the old geometry is stale
    /// after it. Same geometry validation as [`SetAssocCache::new`].
    pub fn reset_geometry(&mut self, num_sets: usize, ways: usize, line_bytes: usize) {
        assert!(num_sets > 0 && ways > 0, "cache geometry must be non-zero");
        assert!(
            ways <= u16::MAX as usize,
            "associativity must fit the u16 per-set live count"
        );
        assert!(
            line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        self.num_sets = num_sets;
        self.ways = ways;
        self.line_bytes = line_bytes as u64;
        self.line_shift = line_bytes.trailing_zeros();
        self.fastmod_m = (u64::MAX / num_sets as u64).wrapping_add(1);
        self.fastmod_max = u64::MAX / num_sets as u64;
        if self.tags.len() < num_sets * ways {
            self.tags.resize(num_sets * ways, 0);
        }
        if self.sets.len() < num_sets {
            self.sets.resize(num_sets, SetState::default());
        }
        self.clear();
    }

    /// Invalidates every line and zeroes the counters, keeping geometry.
    /// O(1) except once every `u16::MAX` calls, when the epoch wraps and
    /// every set's epoch is reset (see the module docs).
    pub fn clear(&mut self) {
        if self.epoch == u16::MAX {
            self.sets.fill(SetState::default());
            self.epoch = 1;
        } else {
            self.epoch += 1;
        }
        self.hits = 0;
        self.misses = 0;
    }

    /// `line % num_sets` without a hardware divide where exact (always,
    /// for realistic line addresses), with a `%` fallback otherwise.
    #[inline]
    fn set_of(&self, line: u64) -> usize {
        if line <= self.fastmod_max {
            let low = self.fastmod_m.wrapping_mul(line);
            ((low as u128 * self.num_sets as u128) >> 64) as usize
        } else {
            (line % self.num_sets as u64) as usize
        }
    }

    /// Accesses one byte address; the whole containing line is touched.
    pub fn access(&mut self, addr: u64) -> Access {
        let result = self.access_line(addr >> self.line_shift);
        match result {
            Access::Hit => self.hits += 1,
            Access::Miss => self.misses += 1,
        }
        result
    }

    /// Accesses one line index (an address divided by the line size).
    /// Leaves the hit/miss counters untouched so range accesses can batch
    /// the counter updates per call instead of per line.
    #[inline]
    fn access_line(&mut self, line: u64) -> Access {
        let set = self.set_of(line);
        let ways = self.ways;
        let state = &mut self.sets[set];
        if state.epoch != self.epoch {
            *state = SetState {
                epoch: self.epoch,
                live: 0,
            };
        }
        let live = state.live as usize;
        let tags = &mut self.tags[set * ways..(set + 1) * ways];
        // Most hits are on the MRU slot, which needs no reordering.
        if live > 0 && tags[0] == line {
            return Access::Hit;
        }
        match tags[..live].iter().position(|&t| t == line) {
            // Hit: move the line to the front. Hits sit near the front,
            // so a short element-wise shift beats a memmove call.
            Some(pos) => {
                for i in (0..pos).rev() {
                    tags[i + 1] = tags[i];
                }
                tags[0] = line;
                Access::Hit
            }
            // Miss: push the line on the front, dropping the LRU tag when
            // the set is full.
            None => {
                let keep = live.min(ways - 1);
                state.live = (keep + 1) as u16;
                tags.copy_within(..keep, 1);
                tags[0] = line;
                Access::Miss
            }
        }
    }

    /// Accesses every line overlapping `[addr, addr + bytes)`, returning the
    /// number of lines that hit and missed. The hit/miss counters are
    /// updated once per call, not once per line.
    #[inline]
    pub fn access_range(&mut self, addr: u64, bytes: u64) -> (u64, u64) {
        if bytes == 0 {
            return (0, 0);
        }
        let first = addr >> self.line_shift;
        let last = (addr + bytes - 1) >> self.line_shift;
        let mut hits = 0;
        let mut misses = 0;
        for line in first..=last {
            match self.access_line(line) {
                Access::Hit => hits += 1,
                Access::Miss => misses += 1,
            }
        }
        self.hits += hits;
        self.misses += misses;
        (hits, misses)
    }

    /// Number of sets.
    pub fn num_sets(&self) -> usize {
        self.num_sets
    }

    /// Associativity.
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Total hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Total misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Hit rate in `[0, 1]`; zero accesses count as 0.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Cache line size in bytes.
    pub fn line_bytes(&self) -> u64 {
        self.line_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeat_access_hits() {
        let mut c = SetAssocCache::new(4, 2, 64);
        assert_eq!(c.access(0), Access::Miss);
        assert_eq!(c.access(32), Access::Hit, "same line");
        assert_eq!(c.access(64), Access::Miss, "next line");
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 2);
    }

    #[test]
    fn lru_evicts_oldest() {
        // One set, two ways: lines 0 and 1 fit; touching 2 evicts LRU.
        let mut c = SetAssocCache::new(1, 2, 64);
        c.access(0); // miss, {0}
        c.access(64); // miss, {0, 1}
        c.access(0); // hit, line 0 becomes MRU
        assert_eq!(c.access(128), Access::Miss); // evicts line 1
        assert_eq!(c.access(0), Access::Hit, "line 0 was MRU and survives");
        assert_eq!(c.access(64), Access::Miss, "line 1 was evicted");
    }

    #[test]
    fn sets_isolate_addresses() {
        let mut c = SetAssocCache::new(2, 1, 64);
        c.access(0); // set 0
        c.access(64); // set 1
        assert_eq!(c.access(0), Access::Hit, "different sets don't conflict");
    }

    #[test]
    fn access_range_counts_lines() {
        let mut c = SetAssocCache::new(16, 4, 64);
        let (h, m) = c.access_range(0, 256);
        assert_eq!((h, m), (0, 4));
        let (h, m) = c.access_range(0, 256);
        assert_eq!((h, m), (4, 0));
        // A one-byte access at a line boundary touches one line.
        let (h, m) = c.access_range(1024, 1);
        assert_eq!((h, m), (0, 1));
        // Zero-byte access touches nothing.
        assert_eq!(c.access_range(0, 0), (0, 0));
    }

    #[test]
    fn hit_rate_accumulates() {
        let mut c = SetAssocCache::new(4, 4, 64);
        assert_eq!(c.hit_rate(), 0.0);
        c.access(0);
        c.access(0);
        assert!((c.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_pow2_line_rejected() {
        SetAssocCache::new(4, 4, 96);
    }

    #[test]
    fn clear_invalidates_lines() {
        let mut c = SetAssocCache::new(4, 2, 64);
        c.access(0);
        c.clear();
        assert_eq!(c.hits() + c.misses(), 0);
        assert_eq!(c.access(0), Access::Miss, "contents do not survive clear");
    }

    #[test]
    fn reset_geometry_reshapes_in_place() {
        let mut c = SetAssocCache::new(16, 4, 64);
        c.access_range(0, 4096);
        c.reset_geometry(2, 1, 128);
        assert_eq!((c.num_sets(), c.ways(), c.line_bytes()), (2, 1, 128));
        assert_eq!(c.hits() + c.misses(), 0);
        // Direct-mapped, two sets of 128 B lines: conflicting lines evict.
        assert_eq!(c.access(0), Access::Miss);
        assert_eq!(c.access(256), Access::Miss, "maps to set 0, evicts line 0");
        assert_eq!(c.access(0), Access::Miss, "line 0 was evicted");
        assert_eq!(c.access(128), Access::Miss, "set 1 untouched so far");
        assert_eq!(c.access(128 + 64), Access::Hit, "same 128 B line");
    }

    #[test]
    fn fastmod_set_mapping_matches_modulo() {
        // Cover awkward divisors (1, powers of two, odd, large) and line
        // indices on both sides of the exactness bound.
        for num_sets in [1usize, 2, 3, 96, 97, 1536, 3072, 49_152] {
            let c = SetAssocCache::new(num_sets, 2, 64);
            let mut state = 0xDEAD_BEEF_u64;
            for i in 0..2_000u64 {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1);
                for line in [
                    i,
                    state,
                    u64::MAX - i,
                    c.fastmod_max,
                    c.fastmod_max.saturating_add(i),
                ] {
                    assert_eq!(
                        c.set_of(line),
                        (line % num_sets as u64) as usize,
                        "line {line} sets {num_sets}"
                    );
                }
            }
        }
    }

    /// Straightforward recency-list LRU: `sets[s]` holds the set's lines,
    /// most recently used first.
    struct Reference {
        sets: Vec<Vec<u64>>,
        ways: usize,
        line_bytes: u64,
        hits: u64,
        misses: u64,
    }

    impl Reference {
        fn new(num_sets: usize, ways: usize, line_bytes: u64) -> Self {
            Self {
                sets: vec![Vec::new(); num_sets],
                ways,
                line_bytes,
                hits: 0,
                misses: 0,
            }
        }

        fn clear(&mut self) {
            self.sets.iter_mut().for_each(Vec::clear);
            self.hits = 0;
            self.misses = 0;
        }

        fn access_line(&mut self, line: u64) -> Access {
            let num_sets = self.sets.len() as u64;
            let set = &mut self.sets[(line % num_sets) as usize];
            let result = if let Some(pos) = set.iter().position(|&t| t == line) {
                set.remove(pos);
                self.hits += 1;
                Access::Hit
            } else {
                if set.len() == self.ways {
                    set.pop();
                }
                self.misses += 1;
                Access::Miss
            };
            set.insert(0, line);
            result
        }

        fn access_range(&mut self, addr: u64, bytes: u64) -> (u64, u64) {
            let (h0, m0) = (self.hits, self.misses);
            if bytes > 0 {
                for line in addr / self.line_bytes..=(addr + bytes - 1) / self.line_bytes {
                    self.access_line(line);
                }
            }
            (self.hits - h0, self.misses - m0)
        }
    }

    #[test]
    fn age_scheme_matches_reference_lru() {
        // Cross-check the move-to-front sets against the recency-list
        // model on pseudo-random streams that mix single-line accesses,
        // multi-line ranges, clears and same-shape resets, across
        // geometries that one recycled cache is reshaped into (growing
        // and shrinking). Each stream's footprint is 1.5x the capacity,
        // so every set both hits and evicts.
        let geometries = [
            (4, 3, 64),
            (1, 1, 64),
            (1, 2, 128),
            (3, 16, 64),
            (96, 2, 64),
            (1536, 16, 128),
            (3, 1, 64),
            (96, 16, 64),
            (1, 16, 64),
            (1536, 1, 128),
            (3, 2, 64),
        ];
        let mut state = 0x1234_5678_u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            state >> 33
        };
        let mut c = SetAssocCache::new(8, 4, 64);
        for (sets, ways, line_bytes) in geometries {
            c.reset_geometry(sets, ways, line_bytes);
            assert_eq!(c.hits() + c.misses(), 0, "reshape zeroes counters");
            let mut reference = Reference::new(sets, ways, line_bytes as u64);
            let footprint = (sets * ways * 3 / 2 + 1) as u64;
            let steps = (footprint as usize * 4).max(4_000);
            for step in 0..steps {
                let addr = (next() % footprint) * line_bytes as u64 + next() % line_bytes as u64;
                match next() % 256 {
                    0 => {
                        c.clear();
                        reference.clear();
                    }
                    1 => {
                        c.reset_geometry(sets, ways, line_bytes);
                        reference.clear();
                    }
                    2..=40 => {
                        let bytes = next() % (5 * line_bytes as u64);
                        assert_eq!(
                            c.access_range(addr, bytes),
                            reference.access_range(addr, bytes),
                            "range {addr}+{bytes} at step {step}, geometry {sets}x{ways}"
                        );
                    }
                    _ => assert_eq!(
                        c.access(addr),
                        reference.access_line(addr / line_bytes as u64),
                        "address {addr} at step {step}, geometry {sets}x{ways}"
                    ),
                }
                assert_eq!((c.hits(), c.misses()), (reference.hits, reference.misses));
            }
            assert!(reference.hits > 0 && reference.misses > 0);
        }
    }

    #[test]
    fn epoch_wrap_still_invalidates() {
        // A set stamped at one epoch and left alone for a whole epoch
        // cycle must not come back to life when the u16 epoch wraps.
        for clears in [65_534, 65_535, 65_536, 131_070, 131_071, 131_072] {
            let mut c = SetAssocCache::new(2, 2, 64);
            assert_eq!(c.access(0), Access::Miss);
            assert_eq!(c.access(0), Access::Hit);
            for _ in 0..clears {
                c.clear();
            }
            assert_eq!(c.access(0), Access::Miss, "after {clears} clears");
            assert_eq!(c.access(64), Access::Miss, "untouched set after {clears}");
            assert_eq!(c.access(0), Access::Hit, "refilled after {clears} clears");
        }
        // Lines stamped just before and at the wrap are invalidated by it.
        for pre in [65_533, 65_534] {
            let mut c = SetAssocCache::new(2, 2, 64);
            for _ in 0..pre {
                c.clear();
            }
            for _ in 0..2 {
                assert_eq!(c.access(0), Access::Miss, "{pre} clears");
                assert_eq!(c.access(0), Access::Hit, "{pre} clears");
                c.clear();
            }
            assert_eq!(c.access(0), Access::Miss, "{pre} clears, past the wrap");
        }
    }
}
