//! Community-aware node renumbering (Section 6.1, the full pipeline).
//!
//! Three steps, exactly as in the paper:
//!
//! 1. Identify communities that maximize modularity (Louvain).
//! 2. Traverse nodes inside each community with RCM "to maximize the
//!    neighbor sharing among nodes with consecutive IDs".
//! 3. Emit the one-to-one old-id → new-id mapping: communities receive
//!    consecutive id blocks, and within a block ids follow RCM order.
//!
//! The result is a [`Permutation`] the runtime applies to the graph *and*
//! to the node-feature matrix before building workloads, improving the
//! temporal and spatial locality of aggregation (evaluated in Figure 12).

use crate::community::louvain::bucket_by_community;
use crate::community::{louvain, LouvainConfig};
use crate::csr::{Csr, NodeId};
use crate::reorder::rcm::rcm_order_sorted;
use crate::{Permutation, Result};

/// Configuration for the renumbering pipeline.
#[derive(Debug, Clone, Default)]
pub struct RenumberConfig {
    /// Louvain settings for the community step.
    pub louvain: LouvainConfig,
}

/// Output of the renumbering pipeline.
#[derive(Debug, Clone)]
pub struct RenumberResult {
    /// The old-id → new-id mapping.
    pub permutation: Permutation,
    /// Community id per *old* node id (dense).
    pub community_of: Vec<u32>,
    /// Number of communities found.
    pub num_communities: usize,
    /// Modularity of the detected partition.
    pub modularity: f64,
}

/// Runs the Section 6.1 pipeline on a symmetric graph.
pub fn renumber(graph: &Csr, config: &RenumberConfig) -> Result<RenumberResult> {
    let detected = louvain(graph, &config.louvain);
    let order = rcm_by_community(graph, &detected.community_of, detected.num_communities);
    let permutation = Permutation::from_order(order)?;
    Ok(RenumberResult {
        permutation,
        community_of: detected.community_of,
        num_communities: detected.num_communities,
        modularity: detected.modularity,
    })
}

/// Steps 2 and 3 for a partition: the new-id order that lists the
/// communities in ascending id, each in RCM order ([`rcm_order`] of its
/// members). `community_of` must be dense over `0..num_communities`.
/// Louvain's dense ids follow first appearance, so for its partition the
/// communities come by their minimum original id.
///
/// [`rcm_order`]: crate::reorder::rcm_order
pub fn rcm_by_community(graph: &Csr, community_of: &[u32], num_communities: usize) -> Vec<NodeId> {
    // Each community's members in ascending id.
    let (start, members) = bucket_by_community(community_of, num_communities);
    // Each node's position in its community's member list, so RCM tests
    // membership and finds local indices without a search.
    let mut local = vec![0u32; graph.num_nodes()];
    for bounds in start.windows(2) {
        for (i, &v) in members[bounds[0]..bounds[1]].iter().enumerate() {
            local[v as usize] = i as u32;
        }
    }
    start
        .windows(2)
        .enumerate()
        .flat_map(|(c, bounds)| {
            rcm_order_sorted(graph, &members[bounds[0]..bounds[1]], |u| {
                (community_of[u as usize] as usize == c).then(|| local[u as usize] as usize)
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{community_graph, CommunityParams};
    use crate::stats::locality_score;
    use crate::NodeId;

    fn latent_community_graph(seed: u64) -> Csr {
        let params = CommunityParams {
            num_nodes: 1_200,
            num_edges: 24_000,
            mean_community: 40,
            community_size_cv: 0.3,
            inter_fraction: 0.08,
            shuffle_ids: true,
        };
        community_graph(&params, seed).expect("valid").0
    }

    #[test]
    fn produces_valid_permutation() {
        let g = latent_community_graph(1);
        let r = renumber(&g, &RenumberConfig::default()).expect("valid");
        assert_eq!(r.permutation.len(), g.num_nodes());
        // Permutation validity is enforced by construction; applying it must
        // preserve the edge count and symmetry.
        let p = g.permute(&r.permutation).expect("valid");
        assert_eq!(p.num_edges(), g.num_edges());
        assert!(p.is_symmetric());
    }

    #[test]
    fn improves_locality_on_shuffled_community_graph() {
        let g = latent_community_graph(2);
        let before = g.mean_edge_span();
        let r = renumber(&g, &RenumberConfig::default()).expect("valid");
        let after = g.permute(&r.permutation).expect("valid").mean_edge_span();
        assert!(
            after < before / 3.0,
            "renumbering should collapse edge spans: before={before:.1} after={after:.1}"
        );
    }

    #[test]
    fn rcm_step_tightens_within_community_order() {
        let g = latent_community_graph(3);
        let full = renumber(&g, &RenumberConfig::default()).expect("valid");
        // The same communities, each in ascending original id.
        let plain = bucket_by_community(&full.community_of, full.num_communities).1;
        let no_rcm = Permutation::from_order(plain).expect("valid");
        let g_full = g.permute(&full.permutation).expect("valid");
        let g_norcm = g.permute(&no_rcm).expect("valid");
        let w = 32;
        assert!(
            locality_score(&g_full, w) >= locality_score(&g_norcm, w) * 0.98,
            "RCM should not hurt near-window locality: rcm={} plain={}",
            locality_score(&g_full, w),
            locality_score(&g_norcm, w)
        );
    }

    /// The order is each community's `rcm_order`, communities by their
    /// minimum id: the per-node local index answers membership exactly as
    /// `rcm_order`'s search does.
    #[test]
    fn order_is_rcm_order_per_community() {
        let g = latent_community_graph(5);
        let r = renumber(&g, &RenumberConfig::default()).expect("valid");
        let mut members: Vec<Vec<NodeId>> = vec![Vec::new(); r.num_communities];
        for v in 0..g.num_nodes() as NodeId {
            members[r.community_of[v as usize] as usize].push(v);
        }
        let order: Vec<NodeId> = members
            .iter()
            .flat_map(|community| crate::reorder::rcm_order(&g, community))
            .collect();
        assert_eq!(
            r.permutation,
            Permutation::from_order(order).expect("valid")
        );
    }

    #[test]
    fn communities_get_consecutive_id_blocks() {
        let g = latent_community_graph(4);
        let r = renumber(&g, &RenumberConfig::default()).expect("valid");
        // Map each new id back to its community; ids within one community
        // must form one contiguous run.
        let n = g.num_nodes();
        let mut comm_of_new = vec![0u32; n];
        for old in 0..n as NodeId {
            comm_of_new[r.permutation.new_of(old) as usize] = r.community_of[old as usize];
        }
        let mut seen = std::collections::HashSet::new();
        let mut prev = u32::MAX;
        for &c in &comm_of_new {
            if c != prev {
                assert!(
                    seen.insert(c),
                    "community {c} appears in two separate id runs"
                );
                prev = c;
            }
        }
    }

    #[test]
    fn deterministic() {
        let g = latent_community_graph(5);
        let a = renumber(&g, &RenumberConfig::default()).expect("valid");
        let b = renumber(&g, &RenumberConfig::default()).expect("valid");
        assert_eq!(a.permutation, b.permutation);
    }

    /// Regression (ISSUE 8): isolated (zero-degree) nodes must appear in
    /// the permutation exactly once — Louvain leaves them as singleton
    /// communities and RCM must emit them — so renumber + inverse
    /// round-trips every node, including on graphs where isolated nodes
    /// are interleaved with real communities.
    #[test]
    fn isolated_nodes_keep_the_permutation_total() {
        use crate::GraphBuilder;
        // Nodes 6..10 never touch an edge; node 3 sits between two
        // communities.
        let g = GraphBuilder::new(10)
            .clique(&[0, 1, 2])
            .path(&[3, 4, 5])
            .build()
            .expect("valid");
        let r = renumber(&g, &RenumberConfig::default()).expect("isolated nodes must renumber");
        assert_eq!(r.permutation.len(), 10, "permutation must be total");
        assert_eq!(r.community_of.len(), 10);
        let inv = r.permutation.inverse();
        for v in 0..10 as NodeId {
            assert_eq!(
                inv.new_of(r.permutation.new_of(v)),
                v,
                "node {v} must round-trip"
            );
        }
        let p = g.permute(&r.permutation).expect("valid");
        assert_eq!(p.num_edges(), g.num_edges());
        assert!(p.is_symmetric());
    }

    /// Degenerate inputs stay total and finite: a fully edgeless graph
    /// (every node isolated) and the empty graph.
    #[test]
    fn edgeless_and_empty_graphs_renumber() {
        for n in [0usize, 1, 7] {
            let g = Csr::empty(n);
            let r = renumber(&g, &RenumberConfig::default()).expect("edgeless renumbers");
            assert_eq!(r.permutation.len(), n);
            assert!(r.modularity.is_finite(), "modularity must not be NaN");
            let inv = r.permutation.inverse();
            for v in 0..n as NodeId {
                assert_eq!(inv.new_of(r.permutation.new_of(v)), v);
            }
        }
    }

    /// Isolated nodes appended to a latent community graph (the shape a
    /// dynamic node-arrival stream produces) round-trip through the full
    /// multi-level Louvain pipeline.
    #[test]
    fn arrived_isolated_nodes_round_trip_through_the_full_pipeline() {
        use crate::GraphBuilder;
        let g = latent_community_graph(6);
        let n = g.num_nodes();
        let mut b = GraphBuilder::new(n + 32);
        for (v, u) in g.edges() {
            if v < u {
                b = b.undirected_edge(v, u);
            }
        }
        let g2 = b.build().expect("valid");
        let r = renumber(&g2, &RenumberConfig::default()).expect("valid");
        assert_eq!(r.permutation.len(), n + 32);
        let inv = r.permutation.inverse();
        for v in 0..(n + 32) as NodeId {
            assert_eq!(inv.new_of(r.permutation.new_of(v)), v);
        }
        assert_eq!(
            g2.permute(&r.permutation).expect("valid").num_edges(),
            g2.num_edges()
        );
    }
}
