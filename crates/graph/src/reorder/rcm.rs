//! Reverse Cuthill–McKee traversal (Section 6.1, step 2).
//!
//! Within each detected community, the paper traverses nodes with RCM "to
//! maximize the neighbor sharing among nodes with consecutive IDs". RCM is
//! a breadth-first traversal from a low-degree peripheral node with
//! neighbors visited in ascending-degree order, reversed at the end; it is
//! the classic bandwidth-reduction ordering for sparse matrices.

use crate::csr::{Csr, NodeId};

/// Computes the RCM ordering of a node subset.
///
/// `subset` lists the nodes to order (typically one community); edges to
/// nodes outside the subset are ignored. The returned vector is a
/// permutation of `subset`: position `i` holds the node that should receive
/// the `i`-th id. Disconnected parts of the subset are ordered one
/// component at a time, each started from its minimum-degree node. The
/// result depends on `subset` only as a set: listing order and repeated
/// entries do not change it, and each node is emitted once.
pub fn rcm_order(graph: &Csr, subset: &[NodeId]) -> Vec<NodeId> {
    // Sorted, deduplicated copy of the subset: membership is a binary
    // search, and a node's position here is its subset-local index.
    let mut members = subset.to_vec();
    members.sort_unstable();
    members.dedup();
    rcm_order_sorted(graph, &members, |u| members.binary_search(&u).ok())
}

/// [`rcm_order`] of `members`, which must be ascending and duplicate-free.
/// `local(u)` is `u`'s position in `members`, or `None` when `u` is not a
/// member, so a caller that already knows every node's position answers
/// membership without a search. Local indices ascend with node ids, so
/// `(degree, index)` keys sort exactly like `(degree, id)` keys.
pub(crate) fn rcm_order_sorted(
    graph: &Csr,
    members: &[NodeId],
    local: impl Fn(NodeId) -> Option<usize>,
) -> Vec<NodeId> {
    // Subset-local adjacency, CSR-shaped: one membership test per edge,
    // and a row's length is the node's within-subset degree.
    let mut offsets = Vec::with_capacity(members.len() + 1);
    offsets.push(0);
    let mut adj: Vec<usize> = Vec::new();
    for &v in members {
        adj.extend(graph.neighbors(v).iter().filter_map(|&u| local(u)));
        offsets.push(adj.len());
    }
    let key = |i: usize| (offsets[i + 1] - offsets[i], i);

    // Candidate start nodes sorted by (degree, id) for determinism.
    let mut starts: Vec<(usize, usize)> = (0..members.len()).map(key).collect();
    starts.sort_unstable();

    let mut visited = vec![false; members.len()];
    // Local indices in BFS visit order; doubles as the queue, since nodes
    // leave a FIFO queue in the order they enter it.
    let mut order: Vec<usize> = Vec::with_capacity(members.len());
    let mut head = 0;
    let mut next: Vec<(usize, usize)> = Vec::new();
    for &(_, start) in &starts {
        if visited[start] {
            continue;
        }
        visited[start] = true;
        order.push(start);
        while let Some(&i) = order.get(head) {
            head += 1;
            next.clear();
            for &j in &adj[offsets[i]..offsets[i + 1]] {
                if !visited[j] {
                    visited[j] = true;
                    next.push(key(j));
                }
            }
            next.sort_unstable();
            order.extend(next.iter().map(|&(_, j)| j));
        }
    }
    order.iter().rev().map(|&i| members[i]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GraphBuilder, Permutation};

    #[test]
    fn orders_every_subset_node_exactly_once() {
        let g = GraphBuilder::new(6)
            .path(&[0, 3, 1, 4, 2, 5])
            .build()
            .expect("valid");
        let subset: Vec<NodeId> = (0..6).collect();
        let mut order = rcm_order(&g, &subset);
        assert_eq!(order.len(), 6);
        order.sort_unstable();
        assert_eq!(order, subset);
    }

    #[test]
    fn reduces_bandwidth_of_scrambled_path() {
        // A path visited in scrambled id order has high bandwidth; RCM
        // restores bandwidth 1.
        let g = GraphBuilder::new(8)
            .path(&[0, 5, 2, 7, 1, 6, 3, 4])
            .build()
            .expect("valid");
        assert!(g.bandwidth() > 1);
        let order = rcm_order(&g, &(0..8).collect::<Vec<_>>());
        let perm = Permutation::from_order(order).expect("valid");
        let reordered = g.permute(&perm).expect("valid");
        assert_eq!(reordered.bandwidth(), 1, "RCM must linearize a path");
    }

    #[test]
    fn respects_subset_boundary() {
        let g = GraphBuilder::new(6)
            .clique(&[0, 1, 2])
            .clique(&[3, 4, 5])
            .undirected_edge(2, 3)
            .build()
            .expect("valid");
        let order = rcm_order(&g, &[3, 4, 5]);
        assert_eq!(order.len(), 3);
        assert!(order.iter().all(|&v| (3..6).contains(&v)));
    }

    #[test]
    fn handles_disconnected_subset() {
        let g = GraphBuilder::new(4)
            .undirected_edge(0, 1)
            .build()
            .expect("valid");
        let mut order = rcm_order(&g, &[0, 1, 2, 3]);
        order.sort_unstable();
        assert_eq!(order, vec![0, 1, 2, 3]);
    }

    #[test]
    fn empty_subset() {
        let g = GraphBuilder::new(2).build().expect("valid");
        assert!(rcm_order(&g, &[]).is_empty());
    }

    #[test]
    fn deterministic() {
        let g = GraphBuilder::new(5)
            .clique(&[0, 1, 2, 3, 4])
            .build()
            .expect("valid");
        let s: Vec<NodeId> = (0..5).collect();
        assert_eq!(rcm_order(&g, &s), rcm_order(&g, &s));
    }
}
