//! Deterministic Louvain community detection.
//!
//! Two-phase iteration: (1) local moving — greedily move each node to the
//! neighboring community with the best modularity gain until no move helps;
//! (2) aggregation — collapse communities into super-nodes with weighted
//! edges and repeat. Terminates when a full pass yields no gain.
//!
//! The implementation is single-threaded and visits nodes in id order, so
//! the output is deterministic — a requirement for the reproducible
//! experiment tables downstream.
//!
//! The hot loops touch flat arrays only: the weighted graph is CSR-shaped,
//! and neighbour-community weights accumulate in a dense per-community
//! scratch array with a touched-list that is scanned in ascending
//! community id, so no lookup hashes.

use crate::csr::{Csr, NodeId};

/// Tuning knobs for [`louvain`].
#[derive(Debug, Clone, Copy)]
pub struct LouvainConfig {
    /// Minimum modularity gain for a node move to be applied. Guards
    /// against floating-point jitter cycles.
    pub min_gain: f64,
    /// Maximum local-moving sweeps per level.
    pub max_sweeps: usize,
    /// Maximum aggregation levels.
    pub max_levels: usize,
}

impl Default for LouvainConfig {
    fn default() -> Self {
        Self {
            min_gain: 1e-7,
            max_sweeps: 16,
            max_levels: 16,
        }
    }
}

/// Result of community detection.
#[derive(Debug, Clone)]
pub struct LouvainResult {
    /// Community id per node, densely renumbered `0..num_communities`.
    pub community_of: Vec<u32>,
    /// Number of communities.
    pub num_communities: usize,
    /// Final modularity of the partition.
    pub modularity: f64,
    /// Aggregation levels performed.
    pub levels: usize,
}

/// Weighted graph used internally for aggregated levels, stored CSR-shaped.
struct WeightedGraph {
    /// Row offsets into `nbr` and `w` (length `num_nodes + 1`).
    offsets: Vec<usize>,
    /// Neighbour ids per row; self loops live in `self_loop` instead.
    nbr: Vec<u32>,
    /// Weight per `nbr` entry. Every weight counts unit edges, so it is
    /// strictly positive.
    w: Vec<f64>,
    /// Self-loop weight per node (intra-community weight after aggregation).
    self_loop: Vec<f64>,
    /// Total edge weight counting both directions plus 2x self loops
    /// (`2m` in modularity formulas).
    total_weight: f64,
}

impl WeightedGraph {
    fn from_csr(graph: &Csr) -> Self {
        let n = graph.num_nodes();
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0);
        let mut nbr = Vec::with_capacity(graph.num_edges());
        let mut self_loop = vec![0.0; n];
        for v in 0..n as NodeId {
            for &u in graph.neighbors(v) {
                if u == v {
                    self_loop[v as usize] += 1.0;
                } else {
                    nbr.push(u);
                }
            }
            offsets.push(nbr.len());
        }
        let w = vec![1.0; nbr.len()];
        Self {
            offsets,
            nbr,
            w,
            self_loop,
            total_weight: graph.num_edges() as f64,
        }
    }

    fn num_nodes(&self) -> usize {
        self.self_loop.len()
    }

    /// `(neighbour, weight)` pairs of `v` in row order.
    fn edges(&self, v: usize) -> impl Iterator<Item = (u32, f64)> + '_ {
        let row = self.offsets[v]..self.offsets[v + 1];
        self.nbr[row.clone()]
            .iter()
            .copied()
            .zip(self.w[row].iter().copied())
    }

    /// Weighted degree per node (including self-loop both ways, matching
    /// `2m` bookkeeping).
    fn weighted_degrees(&self) -> Vec<f64> {
        (0..self.num_nodes())
            .map(|v| {
                self.w[self.offsets[v]..self.offsets[v + 1]]
                    .iter()
                    .sum::<f64>()
                    + 2.0 * self.self_loop[v]
            })
            .collect()
    }
}

/// Dense per-community weight accumulator plus the list of communities
/// touched since the last drain. Sized once for the finest level and
/// reused by every node and level. Edge weights are strictly positive, so
/// a zero slot means "untouched".
struct CommunityWeights {
    weight: Vec<f64>,
    touched: Vec<u32>,
}

impl CommunityWeights {
    fn new(num_communities: usize) -> Self {
        Self {
            weight: vec![0.0; num_communities],
            touched: Vec::new(),
        }
    }

    fn add(&mut self, c: u32, w: f64) {
        let slot = &mut self.weight[c as usize];
        if *slot == 0.0 {
            self.touched.push(c);
        }
        *slot += w;
    }

    fn get(&self, c: u32) -> f64 {
        self.weight[c as usize]
    }

    /// Visits the touched communities in ascending id with their summed
    /// weight, and resets them.
    fn drain_sorted(&mut self, mut visit: impl FnMut(u32, f64)) {
        self.touched.sort_unstable();
        for &c in &self.touched {
            visit(c, std::mem::take(&mut self.weight[c as usize]));
        }
        self.touched.clear();
    }
}

/// Runs Louvain on a symmetric graph.
pub fn louvain(graph: &Csr, config: &LouvainConfig) -> LouvainResult {
    let n = graph.num_nodes();
    if n == 0 {
        return LouvainResult {
            community_of: Vec::new(),
            num_communities: 0,
            modularity: 0.0,
            levels: 0,
        };
    }
    let mut wg = WeightedGraph::from_csr(graph);
    let mut scratch = CommunityWeights::new(n);
    // community_of maps original nodes to current-level communities.
    let mut community_of: Vec<u32> = (0..n as u32).collect();
    let mut levels = 0usize;

    for _level in 0..config.max_levels {
        let (level_assign, improved) = local_moving(&wg, config, &mut scratch);
        if !improved {
            break;
        }
        levels += 1;
        // Densify level ids so they double as next-level node ids, then
        // compose the mapping for original nodes.
        let (dense_assign, num_comm) = densify(&level_assign);
        for c in community_of.iter_mut() {
            *c = dense_assign[*c as usize];
        }
        wg = aggregate(&wg, &dense_assign, num_comm, &mut scratch);
        if wg.num_nodes() <= 1 {
            break;
        }
    }

    // Dense renumber of community ids.
    let (community_of, num_communities) = densify(&community_of);
    let q = super::modularity::modularity(graph, &community_of);
    LouvainResult {
        community_of,
        num_communities,
        modularity: q,
        levels,
    }
}

/// Phase 1: greedy local moving. Returns (assignment over current-level
/// nodes, whether any move happened).
fn local_moving(
    wg: &WeightedGraph,
    config: &LouvainConfig,
    scratch: &mut CommunityWeights,
) -> (Vec<u32>, bool) {
    let n = wg.num_nodes();
    let two_m = wg.total_weight.max(1.0);
    let mut assign: Vec<u32> = (0..n as u32).collect();
    let node_degree = wg.weighted_degrees();
    // Sum of weighted degrees per community.
    let mut sigma_tot = node_degree.clone();

    let mut improved_any = false;
    for _sweep in 0..config.max_sweeps {
        let mut moved = false;
        for v in 0..n {
            let current = assign[v];
            let k_v = node_degree[v];
            for (u, w) in wg.edges(v) {
                scratch.add(assign[u as usize], w);
            }
            // Remove v from its community.
            sigma_tot[current as usize] -= k_v;

            // Gain of joining community c: k_{v,c} - k_v * sigma_c / 2m
            // (constant factors dropped; comparisons are unaffected).
            let mut best = current;
            let mut best_gain = scratch.get(current) - k_v * sigma_tot[current as usize] / two_m;
            // Candidates in ascending community id, so ties resolve the
            // same way on every run.
            scratch.drain_sorted(|c, w| {
                if c == current {
                    return;
                }
                let gain = w - k_v * sigma_tot[c as usize] / two_m;
                if gain > best_gain + config.min_gain {
                    best_gain = gain;
                    best = c;
                }
            });
            sigma_tot[best as usize] += k_v;
            if best != current {
                assign[v] = best;
                moved = true;
                improved_any = true;
            }
        }
        if !moved {
            break;
        }
    }
    (assign, improved_any)
}

/// Phase 2: collapse communities into super-nodes. `assign` must already be
/// dense over `0..num_comm`.
fn aggregate(
    wg: &WeightedGraph,
    assign: &[u32],
    num_comm: usize,
    scratch: &mut CommunityWeights,
) -> WeightedGraph {
    let (start, members) = bucket_by_community(assign, num_comm);
    let mut offsets = Vec::with_capacity(num_comm + 1);
    offsets.push(0);
    let mut nbr = Vec::new();
    let mut w = Vec::new();
    let mut self_loop = vec![0.0; num_comm];
    for (c, own) in self_loop.iter_mut().enumerate() {
        for &v in &members[start[c]..start[c + 1]] {
            let v = v as usize;
            *own += wg.self_loop[v];
            for (u, wu) in wg.edges(v) {
                let cu = assign[u as usize];
                if cu as usize == c {
                    // Each intra edge appears twice (symmetric adj); self-loop
                    // weight counts each undirected edge once.
                    *own += wu / 2.0;
                } else {
                    scratch.add(cu, wu);
                }
            }
        }
        scratch.drain_sorted(|cu, wu| {
            nbr.push(cu);
            w.push(wu);
        });
        offsets.push(nbr.len());
    }
    // Summed in node order, one term at a time, so `2m` is the same
    // floating-point value whatever order the rows were built in.
    let total_weight = (0..wg.num_nodes()).fold(0.0, |total, v| {
        wg.edges(v)
            .fold(total + 2.0 * wg.self_loop[v], |total, (_, wu)| total + wu)
    });
    WeightedGraph {
        offsets,
        nbr,
        w,
        self_loop,
        total_weight,
    }
}

/// Counting sort of the nodes `0..assign.len()` by community: returns
/// `(start, members)` where `members[start[c]..start[c + 1]]` lists the
/// nodes of community `c` in ascending id. `assign` must be dense over
/// `0..num_comm`.
pub(crate) fn bucket_by_community(assign: &[u32], num_comm: usize) -> (Vec<usize>, Vec<NodeId>) {
    let mut start = vec![0usize; num_comm + 1];
    for &c in assign {
        start[c as usize + 1] += 1;
    }
    for c in 0..num_comm {
        start[c + 1] += start[c];
    }
    let mut next = start.clone();
    let mut members = vec![0; assign.len()];
    for (v, &c) in assign.iter().enumerate() {
        members[next[c as usize]] = v as NodeId;
        next[c as usize] += 1;
    }
    (start, members)
}

/// Renumbers ids to dense `0..k`, preserving first-appearance order.
/// Returns the dense assignment and `k`.
fn densify(assign: &[u32]) -> (Vec<u32>, usize) {
    let len = assign.iter().max().map_or(0, |&m| m as usize + 1);
    let mut map = vec![u32::MAX; len];
    let mut next = 0u32;
    let dense = assign
        .iter()
        .map(|&c| {
            let id = &mut map[c as usize];
            if *id == u32::MAX {
                *id = next;
                next += 1;
            }
            *id
        })
        .collect();
    (dense, next as usize)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{community_graph, CommunityParams};
    use crate::GraphBuilder;

    #[test]
    fn two_cliques_separate() {
        let g = GraphBuilder::new(8)
            .clique(&[0, 1, 2, 3])
            .clique(&[4, 5, 6, 7])
            .undirected_edge(3, 4)
            .build()
            .expect("valid");
        let r = louvain(&g, &LouvainConfig::default());
        assert_eq!(r.num_communities, 2);
        assert_eq!(r.community_of[0], r.community_of[3]);
        assert_eq!(r.community_of[4], r.community_of[7]);
        assert_ne!(r.community_of[0], r.community_of[4]);
        assert!(r.modularity > 0.3, "Q = {}", r.modularity);
    }

    #[test]
    fn recovers_planted_communities_well() {
        let params = CommunityParams {
            num_nodes: 1_500,
            num_edges: 30_000,
            mean_community: 50,
            community_size_cv: 0.2,
            inter_fraction: 0.05,
            shuffle_ids: true,
        };
        let (g, truth) = community_graph(&params, 17).expect("valid");
        let r = louvain(&g, &LouvainConfig::default());
        // Louvain may merge or split relative to ground truth; require a
        // community count in the right ballpark and strong modularity.
        assert!(r.modularity > 0.5, "Q = {}", r.modularity);
        let truth_count = crate::stats::PartitionStats::of(&truth).count;
        assert!(
            r.num_communities >= truth_count / 4 && r.num_communities <= truth_count * 4,
            "found {} communities vs planted {}",
            r.num_communities,
            truth_count
        );
    }

    #[test]
    fn louvain_beats_identity_partition() {
        let params = CommunityParams {
            num_nodes: 600,
            ..Default::default()
        };
        let (g, _) = community_graph(&params, 3).expect("valid");
        let r = louvain(&g, &LouvainConfig::default());
        let identity: Vec<u32> = (0..g.num_nodes() as u32).collect();
        let q_identity = super::super::modularity::modularity(&g, &identity);
        assert!(r.modularity > q_identity);
    }

    #[test]
    fn deterministic() {
        let params = CommunityParams {
            num_nodes: 400,
            ..Default::default()
        };
        let (g, _) = community_graph(&params, 5).expect("valid");
        let a = louvain(&g, &LouvainConfig::default());
        let b = louvain(&g, &LouvainConfig::default());
        assert_eq!(a.community_of, b.community_of);
    }

    /// Candidate communities whose gains tie (within `min_gain`) resolve
    /// to the lowest community id, not to neighbour order. On this graph
    /// the two orders give different partitions.
    #[test]
    fn gain_ties_resolve_to_the_lowest_community_id() {
        let edges = [
            (7, 9),
            (1, 9),
            (5, 8),
            (9, 5),
            (7, 2),
            (4, 0),
            (8, 4),
            (0, 2),
            (1, 7),
            (0, 8),
        ];
        let g = edges
            .iter()
            .fold(GraphBuilder::new(10), |b, &(u, v)| b.undirected_edge(u, v))
            .build()
            .expect("valid");
        let r = louvain(&g, &LouvainConfig::default());
        assert_eq!(r.community_of, vec![0, 1, 1, 2, 0, 0, 3, 1, 0, 1]);
    }

    #[test]
    fn empty_and_singleton() {
        let r = louvain(&Csr::empty(0), &LouvainConfig::default());
        assert_eq!(r.num_communities, 0);
        let r = louvain(&Csr::empty(1), &LouvainConfig::default());
        assert_eq!(r.num_communities, 1);
        assert_eq!(r.community_of, vec![0]);
    }

    #[test]
    fn community_ids_are_dense() {
        let params = CommunityParams {
            num_nodes: 300,
            ..Default::default()
        };
        let (g, _) = community_graph(&params, 8).expect("valid");
        let r = louvain(&g, &LouvainConfig::default());
        let max = r.community_of.iter().copied().max().unwrap_or(0) as usize;
        assert_eq!(max + 1, r.num_communities);
    }
}
