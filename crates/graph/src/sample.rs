//! Seeded neighbor fan-out and layer-wise sampling for mini-batch training.
//!
//! Sampling-based GNN training never touches the full graph per step:
//! each mini-batch picks a set of *seed* nodes, expands their receptive
//! field hop by hop under a sampling policy, and trains on the resulting
//! sub-block. This module produces those blocks over the synthetic
//! generators:
//!
//! - [`SampleStrategy::NeighborFanout`] — GraphSAGE-style per-node
//!   fan-out: every frontier node keeps at most `fanouts[hop]` of its
//!   neighbors, sampled without replacement.
//! - [`SampleStrategy::LayerWise`] — FastGCN-style per-layer budget: the
//!   union of all frontier neighbors is subsampled to at most `budget`
//!   nodes per hop, and each frontier node keeps its edges into the
//!   chosen set.
//!
//! A [`SampledBlock`] is a *directed* CSR over block-local ids: row `v`
//! lists the neighbors `v` sampled, so the adjacency is asymmetric in
//! general even over an undirected base graph (`v` may sample `u`
//! without `u` sampling `v`, and frontier-most nodes have empty rows).
//! Downstream normalization (GCN's symmetric norm) therefore has to be
//! recomputed from the block's own degrees — see
//! [`SampledBlock::degrees`] — and the backward pass has to aggregate
//! over the block's transpose; assuming forward/backward symmetry is
//! only valid on full undirected graphs.
//!
//! An epoch is sampled as a stream: [`EpochSampler`] yields one block per
//! step, so a trainer can consume block `k` while block `k + 1` is being
//! sampled, and [`sample_epoch`] is the stream collected. Between blocks
//! the sampler keeps only reusable scratch indexed by base-graph id (no
//! hash map, no per-row vectors), the id-remapping and metadata costs that
//! dominate sampling on the host.
//!
//! Everything is seeded and serial: the same `(graph, config, epoch)`
//! triple produces byte-identical blocks on every run and at any
//! `GNNADVISOR_SIM_THREADS` (the sampler never touches the simulator).

use std::ops::Range;

use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::csr::{Csr, NodeId};
use crate::{GraphError, Result};

/// How the receptive field is subsampled at each hop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SampleStrategy {
    /// Per-node fan-out: every frontier node keeps at most `fanouts[hop]`
    /// neighbors.
    NeighborFanout,
    /// Per-layer budget: at most `budget` distinct neighbor nodes survive
    /// per hop, shared across the whole frontier.
    LayerWise {
        /// Maximum distinct sampled nodes per hop.
        budget: usize,
    },
}

/// Parameters of one epoch's worth of mini-batch samples.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SampleConfig {
    /// Seed nodes per mini-batch (the last batch of an epoch may be
    /// smaller).
    pub batch_size: usize,
    /// Per-hop fan-outs, seed-adjacent hop first. The length is the
    /// number of sampled hops; under [`SampleStrategy::LayerWise`] the
    /// values still cap each node's kept edges into the chosen set.
    pub fanouts: Vec<usize>,
    /// Subsampling policy.
    pub strategy: SampleStrategy,
    /// Sampling seed; combined with the epoch index so every epoch draws
    /// a fresh (but replayable) permutation and sample.
    pub seed: u64,
}

impl Default for SampleConfig {
    fn default() -> Self {
        Self {
            batch_size: 256,
            fanouts: vec![10, 5],
            strategy: SampleStrategy::NeighborFanout,
            seed: 7,
        }
    }
}

impl SampleConfig {
    /// Validates the configuration (positive batch size, at least one
    /// non-zero fan-out, non-zero layer-wise budget).
    pub fn validate(&self) -> Result<()> {
        if self.batch_size == 0 {
            return Err(GraphError::InvalidParameters {
                reason: "sample batch_size must be > 0".into(),
            });
        }
        if self.fanouts.is_empty() {
            return Err(GraphError::InvalidParameters {
                reason: "sample fanouts must name at least one hop".into(),
            });
        }
        if self.fanouts.contains(&0) {
            return Err(GraphError::InvalidParameters {
                reason: "sample fanouts must all be > 0".into(),
            });
        }
        if let SampleStrategy::LayerWise { budget } = self.strategy {
            if budget == 0 {
                return Err(GraphError::InvalidParameters {
                    reason: "layer-wise budget must be > 0".into(),
                });
            }
        }
        Ok(())
    }
}

/// One mini-batch's sampled sub-block.
#[derive(Debug, Clone, PartialEq)]
pub struct SampledBlock {
    /// The sampled adjacency over block-local ids: row `v` lists the
    /// neighbors `v` sampled. Directed — asymmetric in general.
    pub block: Csr,
    /// Block-local id → base-graph id. The first [`Self::num_seeds`]
    /// entries are the batch's seed nodes in batch order.
    pub nodes: Vec<NodeId>,
    /// How many leading entries of [`Self::nodes`] are seeds (the nodes
    /// whose predictions the batch trains on).
    pub num_seeds: usize,
    /// Node-count prefix per hop: `hop_offsets[h]..hop_offsets[h + 1]`
    /// are the block-local ids first reached at hop `h` (hop 0 = seeds).
    pub hop_offsets: Vec<usize>,
    /// Base-graph adjacency entries examined while sampling — the
    /// candidate scan the host pays for before any edge is kept.
    pub scanned_edges: usize,
}

impl SampledBlock {
    /// The block's per-node sampled out-degrees (row lengths) — the
    /// degrees GCN normalization must be recomputed from, because base-
    /// graph degrees overcount what the block actually aggregates.
    pub fn degrees(&self) -> Vec<usize> {
        (0..self.block.num_nodes() as NodeId)
            .map(|v| self.block.degree(v))
            .collect()
    }

    /// Bytes of feature rows the host gathers for this block.
    pub fn gather_bytes(&self, feat_dim: usize) -> usize {
        self.block.num_nodes() * feat_dim * core::mem::size_of::<f32>()
    }
}

/// Samples one epoch: a seeded shuffle of all nodes, chunked into
/// batches of `cfg.batch_size` seeds, each expanded into a
/// [`SampledBlock`]. The epoch index is folded into the seed so epochs
/// draw distinct (but individually replayable) samples. This is
/// [`EpochSampler`] collected.
pub fn sample_epoch(graph: &Csr, cfg: &SampleConfig, epoch: u64) -> Result<Vec<SampledBlock>> {
    EpochSampler::new(graph, cfg, epoch)?.collect()
}

/// Marks no local id in [`EpochSampler`]'s dense id table.
const UNMAPPED: u32 = u32::MAX;

/// Streams one epoch's blocks in batch order, one [`SampledBlock`] per
/// [`Iterator::next`], exactly as [`sample_epoch`] returns them.
///
/// The shuffle is drawn up front, then each block's draws when it is
/// sampled, so the stream consumes the RNG in the same order as the
/// whole-epoch call. Everything but a block's own output is scratch
/// reused across blocks: a dense base-to-local id table (reset through
/// the block's node list when the block is done), a per-node layer-wise
/// membership mark (reset through the hop's candidate union), and the
/// candidate and union buffers the draws permute in place. The block CSR
/// is written row by row: each frontier node's row is complete before the
/// next node's starts, and frontiers run in local-id order.
#[derive(Debug)]
pub struct EpochSampler<'a> {
    graph: &'a Csr,
    cfg: &'a SampleConfig,
    rng: SmallRng,
    /// The epoch's shuffled seed order; batches are consecutive chunks.
    order: Vec<NodeId>,
    /// Start of the next batch in `order`.
    cursor: usize,
    /// Base id -> block-local id, [`UNMAPPED`] outside the current block.
    local_of: Vec<u32>,
    /// Base id -> layer-wise state of the current hop.
    mark: Vec<Mark>,
    /// A frontier node's sampling candidates.
    candidates: Vec<NodeId>,
    /// A layer-wise hop's distinct candidate union, first-seen order.
    union: Vec<NodeId>,
}

/// A node's layer-wise membership in the current hop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mark {
    Unseen,
    /// In the frontier's candidate union.
    Seen,
    /// Drawn into the hop's shared budget.
    Chosen,
}

impl<'a> EpochSampler<'a> {
    /// Validates the inputs and draws the epoch's shuffle.
    pub fn new(graph: &'a Csr, cfg: &'a SampleConfig, epoch: u64) -> Result<Self> {
        cfg.validate()?;
        let n = graph.num_nodes();
        if n == 0 {
            return Err(GraphError::InvalidParameters {
                reason: "cannot sample an empty graph".into(),
            });
        }
        // Golden-ratio stride decorrelates epochs without losing replay.
        let mut rng = SmallRng::seed_from_u64(
            cfg.seed ^ (epoch.wrapping_add(1)).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        );
        let mut order: Vec<NodeId> = (0..n as NodeId).collect();
        order.shuffle(&mut rng);
        Ok(Self {
            graph,
            cfg,
            rng,
            order,
            cursor: 0,
            local_of: vec![UNMAPPED; n],
            mark: match cfg.strategy {
                SampleStrategy::NeighborFanout => Vec::new(),
                SampleStrategy::LayerWise { .. } => vec![Mark::Unseen; n],
            },
            candidates: Vec::new(),
            union: Vec::new(),
        })
    }

    /// Expands `self.order[seeds]` into a block.
    fn sample(&mut self, seeds: Range<usize>) -> Result<SampledBlock> {
        let graph = self.graph;
        let num_seeds = seeds.len();
        let mut nodes: Vec<NodeId> = Vec::with_capacity(num_seeds * 4);
        nodes.extend_from_slice(&self.order[seeds]);
        for (local, &s) in nodes.iter().enumerate() {
            self.local_of[s as usize] = local as u32;
        }
        let mut row_ptr = Vec::with_capacity(num_seeds * 4);
        row_ptr.push(0);
        let mut col_idx: Vec<NodeId> = Vec::new();
        let mut hop_offsets = vec![0usize, num_seeds];
        let mut frontier = 0..num_seeds;
        let mut scanned_edges = 0usize;

        for &fanout in &self.cfg.fanouts {
            let hop_start = nodes.len();
            // Layer-wise: pick the hop's shared node budget up front from the
            // frontier's candidate union (first-seen order keeps it seeded).
            let layer_wise = match self.cfg.strategy {
                SampleStrategy::NeighborFanout => false,
                SampleStrategy::LayerWise { budget } => {
                    self.union.clear();
                    for &v in &nodes[frontier.clone()] {
                        for &u in graph.neighbors(v) {
                            if u != v && self.mark[u as usize] == Mark::Unseen {
                                self.mark[u as usize] = Mark::Seen;
                                self.union.push(u);
                            }
                        }
                    }
                    for &u in draw(&mut self.union, budget, &mut self.rng) {
                        self.mark[u as usize] = Mark::Chosen;
                    }
                    true
                }
            };
            for v_local in frontier.clone() {
                let v = nodes[v_local];
                let neigh = graph.neighbors(v);
                scanned_edges += neigh.len();
                self.candidates.clear();
                self.candidates.extend(
                    neigh.iter().copied().filter(|&u| {
                        u != v && (!layer_wise || self.mark[u as usize] == Mark::Chosen)
                    }),
                );
                let row_start = col_idx.len();
                for &u in draw(&mut self.candidates, fanout, &mut self.rng) {
                    let local = &mut self.local_of[u as usize];
                    if *local == UNMAPPED {
                        *local = nodes.len() as u32;
                        nodes.push(u);
                    }
                    col_idx.push(*local);
                }
                // Canonical CSR: columns ascending within a row.
                col_idx[row_start..].sort_unstable();
                row_ptr.push(col_idx.len());
            }
            if layer_wise {
                for &u in &self.union {
                    self.mark[u as usize] = Mark::Unseen;
                }
            }
            hop_offsets.push(nodes.len());
            frontier = hop_start..nodes.len();
        }
        // The last hop's nodes sample nothing: empty rows.
        row_ptr.resize(nodes.len() + 1, col_idx.len());
        for &u in &nodes {
            self.local_of[u as usize] = UNMAPPED;
        }
        let block = Csr::from_raw(nodes.len(), row_ptr, col_idx)?;
        Ok(SampledBlock {
            block,
            num_seeds,
            nodes,
            hop_offsets,
            scanned_edges,
        })
    }
}

impl Iterator for EpochSampler<'_> {
    type Item = Result<SampledBlock>;

    fn next(&mut self) -> Option<Self::Item> {
        let start = self.cursor;
        if start == self.order.len() {
            return None;
        }
        let end = (start + self.cfg.batch_size).min(self.order.len());
        self.cursor = end;
        Some(self.sample(start..end))
    }
}

/// Draws at most `k` distinct entries of `pool` and returns them sorted
/// ascending: all of `pool` when it is no larger than `k`, otherwise a
/// partial Fisher–Yates over `pool` itself (permuting it in place).
fn draw<'p>(pool: &'p mut [NodeId], k: usize, rng: &mut SmallRng) -> &'p [NodeId] {
    let kept = if pool.len() <= k {
        pool
    } else {
        for i in 0..k {
            let j = rng.gen_range(i..pool.len());
            pool.swap(i, j);
        }
        &mut pool[..k]
    };
    kept.sort_unstable();
    kept
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::barabasi_albert;

    fn base() -> Csr {
        barabasi_albert(400, 6, 3).expect("valid")
    }

    fn cfg() -> SampleConfig {
        SampleConfig {
            batch_size: 64,
            fanouts: vec![4, 3],
            strategy: SampleStrategy::NeighborFanout,
            seed: 11,
        }
    }

    #[test]
    fn epoch_covers_every_node_as_a_seed_once() {
        let g = base();
        let blocks = sample_epoch(&g, &cfg(), 0).expect("samples");
        let mut seeds: Vec<NodeId> = blocks
            .iter()
            .flat_map(|b| b.nodes[..b.num_seeds].iter().copied())
            .collect();
        seeds.sort_unstable();
        assert_eq!(seeds, (0..g.num_nodes() as NodeId).collect::<Vec<_>>());
    }

    #[test]
    fn fanout_bounds_block_degrees() {
        let g = base();
        let c = cfg();
        for b in sample_epoch(&g, &c, 1).expect("samples") {
            let max_fanout = *c.fanouts.iter().max().expect("non-empty");
            for v in 0..b.block.num_nodes() as NodeId {
                assert!(b.block.degree(v) <= max_fanout);
                // Never more than the base graph offers.
                assert!(b.block.degree(v) <= g.degree(b.nodes[v as usize]));
            }
        }
    }

    #[test]
    fn sampled_edges_exist_in_the_base_graph() {
        let g = base();
        for b in sample_epoch(&g, &cfg(), 2).expect("samples") {
            for v in 0..b.block.num_nodes() as NodeId {
                let base_v = b.nodes[v as usize];
                for &u in b.block.neighbors(v) {
                    let base_u = b.nodes[u as usize];
                    assert!(
                        g.neighbors(base_v).contains(&base_u),
                        "block edge {base_v}->{base_u} absent from base graph"
                    );
                }
            }
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let g = base();
        let a = sample_epoch(&g, &cfg(), 5).expect("samples");
        let b = sample_epoch(&g, &cfg(), 5).expect("samples");
        assert_eq!(a, b);
        // Distinct epochs draw distinct shuffles.
        let c = sample_epoch(&g, &cfg(), 6).expect("samples");
        assert_ne!(
            a.first().map(|b| b.nodes.clone()),
            c.first().map(|b| b.nodes.clone())
        );
    }

    #[test]
    fn blocks_are_asymmetric_in_general() {
        // Fan-out sampling keeps v -> u without necessarily keeping
        // u -> v; over many blocks of a dense-enough graph at small
        // fan-out, at least one block must be asymmetric. This is the
        // property that invalidates the symmetric-backward shortcut.
        let g = base();
        let c = SampleConfig {
            fanouts: vec![2, 2],
            ..cfg()
        };
        let any_asymmetric = sample_epoch(&g, &c, 0)
            .expect("samples")
            .iter()
            .any(|b| !b.block.is_symmetric());
        assert!(any_asymmetric);
    }

    #[test]
    fn layer_wise_budget_caps_hop_growth() {
        let g = base();
        let budget = 16;
        let c = SampleConfig {
            batch_size: 32,
            fanouts: vec![8, 8],
            strategy: SampleStrategy::LayerWise { budget },
            seed: 4,
        };
        for b in sample_epoch(&g, &c, 0).expect("samples") {
            for h in 1..b.hop_offsets.len() - 1 {
                let added = b.hop_offsets[h + 1] - b.hop_offsets[h];
                assert!(added <= budget, "hop {h} added {added} > budget {budget}");
            }
        }
    }

    #[test]
    fn rejects_bad_parameters() {
        let g = base();
        let mut c = cfg();
        c.batch_size = 0;
        assert!(sample_epoch(&g, &c, 0).is_err());
        let mut c = cfg();
        c.fanouts.clear();
        assert!(sample_epoch(&g, &c, 0).is_err());
        let mut c = cfg();
        c.strategy = SampleStrategy::LayerWise { budget: 0 };
        assert!(sample_epoch(&g, &c, 0).is_err());
        assert!(EpochSampler::new(&Csr::empty(0), &cfg(), 0).is_err());
    }

    #[test]
    fn hop_offsets_partition_the_block() {
        let g = base();
        for b in sample_epoch(&g, &cfg(), 3).expect("samples") {
            assert_eq!(b.hop_offsets[0], 0);
            assert_eq!(b.hop_offsets[1], b.num_seeds);
            assert_eq!(*b.hop_offsets.last().expect("non-empty"), b.nodes.len());
            assert!(b.hop_offsets.windows(2).all(|w| w[0] <= w[1]));
            assert!(b.scanned_edges >= b.block.num_edges());
        }
    }

    /// The map-based sampler the streaming one replaced, kept verbatim as
    /// the differential oracle: a `HashMap` id remap, a `Vec` per row and
    /// fresh candidate vectors per frontier node.
    mod oracle {
        use std::collections::{HashMap, HashSet};

        use rand::rngs::SmallRng;
        use rand::seq::SliceRandom;
        use rand::{Rng, SeedableRng};

        use super::super::{SampleConfig, SampleStrategy, SampledBlock};
        use crate::csr::{Csr, NodeId};

        pub fn sample_epoch(graph: &Csr, cfg: &SampleConfig, epoch: u64) -> Vec<SampledBlock> {
            let mut rng = SmallRng::seed_from_u64(
                cfg.seed ^ (epoch.wrapping_add(1)).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            );
            let mut order: Vec<NodeId> = (0..graph.num_nodes() as NodeId).collect();
            order.shuffle(&mut rng);
            order
                .chunks(cfg.batch_size)
                .map(|seeds| sample_block(graph, seeds, cfg, &mut rng))
                .collect()
        }

        fn sample_block(
            graph: &Csr,
            seeds: &[NodeId],
            cfg: &SampleConfig,
            rng: &mut SmallRng,
        ) -> SampledBlock {
            let mut local_of: HashMap<NodeId, u32> = HashMap::new();
            let mut nodes: Vec<NodeId> = Vec::new();
            for &s in seeds {
                local_of.insert(s, nodes.len() as u32);
                nodes.push(s);
            }
            let mut adj: Vec<Vec<u32>> = vec![Vec::new(); nodes.len()];
            let mut hop_offsets = vec![0usize, nodes.len()];
            let mut frontier = 0..nodes.len();
            let mut scanned_edges = 0usize;
            for &fanout in &cfg.fanouts {
                let hop_start = nodes.len();
                let chosen_pool: Option<HashSet<NodeId>> = match cfg.strategy {
                    SampleStrategy::NeighborFanout => None,
                    SampleStrategy::LayerWise { budget } => {
                        let mut union: Vec<NodeId> = Vec::new();
                        let mut seen: HashSet<NodeId> = HashSet::new();
                        for v_local in frontier.clone() {
                            let v = nodes[v_local];
                            for &u in graph.neighbors(v) {
                                if u != v && seen.insert(u) {
                                    union.push(u);
                                }
                            }
                        }
                        Some(
                            sample_without_replacement(&union, budget, rng)
                                .into_iter()
                                .collect(),
                        )
                    }
                };
                for v_local in frontier.clone() {
                    let v = nodes[v_local];
                    let neigh = graph.neighbors(v);
                    scanned_edges += neigh.len();
                    let kept: Vec<NodeId> = match &chosen_pool {
                        None => {
                            let candidates: Vec<NodeId> =
                                neigh.iter().copied().filter(|&u| u != v).collect();
                            sample_without_replacement(&candidates, fanout, rng)
                        }
                        Some(pool) => {
                            let candidates: Vec<NodeId> = neigh
                                .iter()
                                .copied()
                                .filter(|&u| u != v && pool.contains(&u))
                                .collect();
                            sample_without_replacement(&candidates, fanout, rng)
                        }
                    };
                    for u in kept {
                        let u_local = *local_of.entry(u).or_insert_with(|| {
                            nodes.push(u);
                            adj.push(Vec::new());
                            (nodes.len() - 1) as u32
                        });
                        adj[v_local].push(u_local);
                    }
                }
                hop_offsets.push(nodes.len());
                frontier = hop_start..nodes.len();
            }
            let mut row_ptr = vec![0];
            let mut col_idx = Vec::new();
            for row in &mut adj {
                row.sort_unstable();
                col_idx.extend_from_slice(row);
                row_ptr.push(col_idx.len());
            }
            SampledBlock {
                block: Csr::from_raw(nodes.len(), row_ptr, col_idx).expect("canonical CSR"),
                num_seeds: seeds.len(),
                nodes,
                hop_offsets,
                scanned_edges,
            }
        }

        fn sample_without_replacement(
            pool: &[NodeId],
            k: usize,
            rng: &mut SmallRng,
        ) -> Vec<NodeId> {
            if pool.len() <= k {
                let mut all = pool.to_vec();
                all.sort_unstable();
                return all;
            }
            let mut idx: Vec<usize> = (0..pool.len()).collect();
            for i in 0..k {
                let j = rng.gen_range(i..idx.len());
                idx.swap(i, j);
            }
            let mut kept: Vec<NodeId> = idx[..k].iter().map(|&i| pool[i]).collect();
            kept.sort_unstable();
            kept
        }
    }

    /// Holds the stream to the oracle block by block, and `sample_epoch`
    /// to the collected stream.
    fn assert_matches_oracle(g: &Csr, c: &SampleConfig, epoch: u64) {
        let expected = oracle::sample_epoch(g, c, epoch);
        let streamed: Vec<SampledBlock> = EpochSampler::new(g, c, epoch)
            .expect("valid inputs")
            .map(|b| b.expect("samples"))
            .collect();
        assert_eq!(streamed.len(), expected.len(), "{c:?} epoch {epoch}");
        for (k, (got, want)) in streamed.iter().zip(&expected).enumerate() {
            let at = format!("{c:?} epoch {epoch} block {k}");
            assert_eq!(got.num_seeds, want.num_seeds, "{at}: num_seeds");
            assert_eq!(got.nodes, want.nodes, "{at}: nodes");
            assert_eq!(got.hop_offsets, want.hop_offsets, "{at}: hop_offsets");
            assert_eq!(got.block, want.block, "{at}: block CSR");
            assert_eq!(got.scanned_edges, want.scanned_edges, "{at}: scanned_edges");
        }
        assert_eq!(
            sample_epoch(g, c, epoch).expect("samples"),
            streamed,
            "sample_epoch must be the collected stream"
        );
    }

    #[test]
    fn stream_matches_the_map_based_oracle() {
        let g = base();
        // 400 nodes: 64 and 96 leave a short last batch, 400 one batch.
        for batch_size in [1, 64, 96, 400] {
            for strategy in [
                SampleStrategy::NeighborFanout,
                SampleStrategy::LayerWise { budget: 1 },
                SampleStrategy::LayerWise { budget: 24 },
            ] {
                for seed in [0, 11, 0xDEAD_BEEF] {
                    let c = SampleConfig {
                        batch_size,
                        fanouts: vec![4, 3, 2],
                        strategy,
                        seed,
                    };
                    for epoch in 0..3 {
                        assert_matches_oracle(&g, &c, epoch);
                    }
                }
            }
        }
    }

    /// A raw CSR of `n` nodes from arbitrary (src, dst) pairs, keeping
    /// self-loops, duplicate edges and unsorted rows: the sampler must
    /// agree with the oracle on inputs a builder would have cleaned.
    fn raw_csr(n: usize, pairs: &[(u32, u32)]) -> Csr {
        let mut rows: Vec<Vec<NodeId>> = vec![Vec::new(); n];
        for &(u, v) in pairs {
            rows[u as usize % n].push(v % n as u32);
        }
        let mut row_ptr = vec![0];
        let mut col_idx = Vec::new();
        for row in rows {
            col_idx.extend(row);
            row_ptr.push(col_idx.len());
        }
        Csr::from_raw(n, row_ptr, col_idx).expect("ids reduced mod n")
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::Config::with_cases(64))]

        #[test]
        fn stream_matches_the_oracle_on_arbitrary_graphs(
            n in 1usize..=60,
            pairs in proptest::collection::vec((0u32..60, 0u32..60), 0..300),
            batch_size in 1usize..=70,
            fanouts in proptest::collection::vec(1usize..=6, 1..=3),
            budget in 0usize..=40,
            seed in 0u64..1_000,
            epoch in 0u64..4,
        ) {
            let g = raw_csr(n, &pairs);
            // A zero budget stands for fan-out sampling.
            let strategy = if budget == 0 {
                SampleStrategy::NeighborFanout
            } else {
                SampleStrategy::LayerWise { budget }
            };
            let c = SampleConfig { batch_size, fanouts, strategy, seed };
            assert_matches_oracle(&g, &c, epoch);
        }
    }
}
