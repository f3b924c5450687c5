//! Cross-crate property-based tests (proptest) on the invariants the
//! runtime's correctness rests on.

use proptest::prelude::*;

use gnnadvisor_repro::core::compute::{aggregate_grouped, aggregate_reference, Aggregation};
use gnnadvisor_repro::core::memory::organize::organize_shared;
use gnnadvisor_repro::core::workload::group::partition_groups;
use gnnadvisor_repro::graph::generators::{community_graph, erdos_renyi, CommunityParams};
use gnnadvisor_repro::graph::reorder::{renumber, RenumberConfig};
use gnnadvisor_repro::graph::{Csr, EdgeList, Permutation};
use gnnadvisor_repro::tensor::init::random_features;

/// Strategy: a random symmetric graph with 2..=60 nodes.
fn arb_graph() -> impl Strategy<Value = Csr> {
    (
        2usize..=60,
        proptest::collection::vec((0u32..60, 0u32..60), 0..200),
    )
        .prop_map(|(n, edges)| {
            let mut el = EdgeList::new(n);
            for (u, v) in edges {
                let (u, v) = (u % n as u32, v % n as u32);
                if u != v {
                    el.push_undirected(u, v);
                }
            }
            el.dedup();
            el.into_csr().expect("bounded ids are valid")
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Group partitioning tiles `col_idx` exactly: every edge appears in
    /// exactly one group, in CSR order, and no group exceeds the size cap.
    #[test]
    fn groups_tile_every_edge(graph in arb_graph(), gs in 1usize..10) {
        let groups = partition_groups(&graph, gs).expect("gs > 0");
        let mut cursor = 0u32;
        for g in &groups {
            prop_assert_eq!(g.start, cursor);
            prop_assert!(!g.is_empty() && g.len() <= gs);
            // The group's node must own this col_idx range.
            let (s, e) = (graph.row_ptr()[g.node as usize], graph.row_ptr()[g.node as usize + 1]);
            prop_assert!(g.start as usize >= s && g.end as usize <= e);
            cursor = g.end;
        }
        prop_assert_eq!(cursor as usize, graph.num_edges());
    }

    /// The renumbering permutation is a bijection that preserves the edge
    /// multiset (checked via degree sequence and edge count).
    #[test]
    fn renumbering_is_a_bijection(seed in 0u64..50) {
        let params = CommunityParams {
            num_nodes: 120,
            num_edges: 1200,
            mean_community: 20,
            community_size_cv: 0.3,
            inter_fraction: 0.1,
            shuffle_ids: true,
        };
        let (graph, _) = community_graph(&params, seed).expect("valid params");
        let r = renumber(&graph, &RenumberConfig::default()).expect("renumber runs");
        // Bijection: inverse composes to identity.
        prop_assert!(r.permutation.then(&r.permutation.inverse()).expect("same length").is_identity());
        let p = graph.permute(&r.permutation).expect("valid");
        prop_assert_eq!(p.num_edges(), graph.num_edges());
        let mut before: Vec<usize> = (0..graph.num_nodes() as u32).map(|v| graph.degree(v)).collect();
        let mut after: Vec<usize> = (0..p.num_nodes() as u32).map(|v| p.degree(v)).collect();
        before.sort_unstable();
        after.sort_unstable();
        prop_assert_eq!(before, after);
    }

    /// Algorithm 1 invariants for any partition and block shape: one leader
    /// per node-run per block, slot shared exactly by one node per block,
    /// and slot count bounded by groups-per-block.
    #[test]
    fn algorithm1_invariants(graph in arb_graph(), gs in 1usize..6, gpb in 1usize..20) {
        let groups = partition_groups(&graph, gs).expect("gs > 0");
        let layout = organize_shared(&groups, gpb);
        prop_assert!(layout.max_slots as usize <= gpb.max(1));
        for (b, chunk) in groups.chunks(gpb).enumerate() {
            let base = b * gpb;
            let mut slot_owner: std::collections::HashMap<u32, u32> = Default::default();
            let mut prev = None;
            for (i, g) in chunk.iter().enumerate() {
                let idx = base + i;
                prop_assert_eq!(layout.leader[idx], prev != Some(g.node));
                let slot = layout.shared_addr[idx];
                match slot_owner.get(&slot) {
                    Some(&owner) => prop_assert_eq!(owner, g.node),
                    None => { slot_owner.insert(slot, g.node); }
                }
                prev = Some(g.node);
            }
        }
    }

    /// Grouped (leader-scheme) execution computes exactly the sequential
    /// reference for every aggregation operator.
    #[test]
    fn grouped_aggregation_matches_reference(graph in arb_graph(), gs in 1usize..8, dim in 1usize..12) {
        let features = random_features(graph.num_nodes(), dim, 99);
        let groups = partition_groups(&graph, gs).expect("gs > 0");
        for op in [Aggregation::Sum, Aggregation::GcnNorm, Aggregation::Mean] {
            let reference = aggregate_reference(&graph, &features, op, 1);
            let grouped = aggregate_grouped(&graph, &features, &groups, op);
            prop_assert!(reference.max_abs_diff(&grouped) < 1e-4);
        }
    }

    /// Aggregation is equivariant under renumbering: permute-then-aggregate
    /// equals aggregate-then-permute.
    #[test]
    fn aggregation_commutes_with_renumbering(seed in 0u64..30, dim in 1usize..8) {
        let graph = erdos_renyi(40, 120, seed).expect("valid");
        let features = random_features(40, dim, seed);
        let r = renumber(&graph, &RenumberConfig::default()).expect("runs");
        let pgraph = graph.permute(&r.permutation).expect("valid");
        let pfeat_vec = r.permutation.permute_rows(features.as_slice(), dim);
        let pfeat = gnnadvisor_repro::tensor::Matrix::from_vec(40, dim, pfeat_vec).expect("shape");

        let direct = aggregate_reference(&graph, &features, Aggregation::Sum, 1);
        let permuted = aggregate_reference(&pgraph, &pfeat, Aggregation::Sum, 1);
        // Map direct output through the permutation and compare.
        let mapped_vec = r.permutation.permute_rows(direct.as_slice(), dim);
        let mapped = gnnadvisor_repro::tensor::Matrix::from_vec(40, dim, mapped_vec).expect("shape");
        prop_assert!(mapped.max_abs_diff(&permuted) < 1e-4);
    }

    /// Permutation round-trip on matrices: applying a permutation then its
    /// inverse restores the original rows.
    #[test]
    fn permutation_roundtrip_on_rows(n in 1usize..40, dim in 1usize..6, seed in 0u64..20) {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.shuffle(&mut rand::rngs::SmallRng::seed_from_u64(seed));
        let perm = Permutation::from_order(order).expect("valid");
        let data: Vec<f32> = (0..n * dim).map(|i| i as f32).collect();
        let there = perm.permute_rows(&data, dim);
        let back = perm.inverse().permute_rows(&there, dim);
        prop_assert_eq!(back, data);
    }
}
