//! Property-based tests on the graph substrate's core data structures.

use proptest::prelude::*;

use gnnadvisor_graph::community::{louvain, modularity, LouvainConfig};
use gnnadvisor_graph::reorder::{rcm_order, renumber, RenumberConfig};
use gnnadvisor_graph::{Csr, EdgeList, Permutation};

fn arb_graph() -> impl Strategy<Value = Csr> {
    (
        2usize..=50,
        proptest::collection::vec((0u32..50, 0u32..50), 0..150),
    )
        .prop_map(|(n, raw)| {
            let mut el = EdgeList::new(n);
            for (u, v) in raw {
                let (u, v) = (u % n as u32, v % n as u32);
                if u != v {
                    el.push_undirected(u, v);
                }
            }
            el.dedup();
            el.into_csr().expect("bounded ids")
        })
}

/// A graph plus a duplicate-free node subset of it, in ascending order.
fn arb_graph_and_subset() -> impl Strategy<Value = (Csr, Vec<u32>)> {
    (arb_graph(), proptest::collection::vec(0u32..50, 0..60)).prop_map(|(g, raw)| {
        let n = g.num_nodes() as u32;
        let mut subset: Vec<u32> = raw.into_iter().map(|v| v % n).collect();
        subset.sort_unstable();
        subset.dedup();
        (g, subset)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// CSR invariants hold for anything the EdgeList builder produces.
    #[test]
    fn csr_invariants(g in arb_graph()) {
        prop_assert!(g.is_sorted());
        prop_assert!(g.is_symmetric());
        let degree_sum: usize = (0..g.num_nodes() as u32).map(|v| g.degree(v)).sum();
        prop_assert_eq!(degree_sum, g.num_edges());
    }

    /// Transpose is an involution, and on symmetric graphs the identity.
    #[test]
    fn transpose_involution(g in arb_graph()) {
        prop_assert_eq!(g.transpose().transpose(), g.clone());
        prop_assert_eq!(g.transpose(), g);
    }

    /// Permuting preserves degree multiset and symmetry; bandwidth of the
    /// identity permutation is unchanged.
    #[test]
    fn permute_preserves_structure(g in arb_graph(), seed in 0u64..100) {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let n = g.num_nodes();
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.shuffle(&mut rand::rngs::SmallRng::seed_from_u64(seed));
        let perm = Permutation::from_order(order).expect("valid");
        let p = g.permute(&perm).expect("valid");
        prop_assert_eq!(p.num_edges(), g.num_edges());
        prop_assert!(p.is_symmetric());
        let identity = Permutation::identity(n);
        prop_assert_eq!(g.permute(&identity).expect("valid"), g);
    }

    /// RCM over the whole node set emits a permutation of the nodes.
    #[test]
    fn rcm_is_permutation(g in arb_graph()) {
        let all: Vec<u32> = (0..g.num_nodes() as u32).collect();
        let mut order = rcm_order(&g, &all);
        prop_assert_eq!(order.len(), g.num_nodes());
        order.sort_unstable();
        prop_assert_eq!(order, all);
    }

    /// RCM depends on the subset as a set, not on the order it is listed in.
    #[test]
    fn rcm_ignores_subset_order(case in arb_graph_and_subset(), seed in 0u64..100) {
        let (g, subset) = case;
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let mut shuffled = subset.clone();
        shuffled.shuffle(&mut rand::rngs::SmallRng::seed_from_u64(seed));
        prop_assert_eq!(rcm_order(&g, &shuffled), rcm_order(&g, &subset));
    }

    /// Repeated subset entries change nothing, and every subset node is
    /// emitted exactly once.
    #[test]
    fn rcm_ignores_duplicates(
        case in arb_graph_and_subset(),
        picks in proptest::collection::vec(0usize..60, 0..20),
    ) {
        let (g, subset) = case;
        let order = rcm_order(&g, &subset);
        let mut with_dups = subset.clone();
        if !subset.is_empty() {
            with_dups.extend(picks.iter().map(|&i| subset[i % subset.len()]));
        }
        prop_assert_eq!(rcm_order(&g, &with_dups), order.clone());
        let mut sorted = order;
        sorted.sort_unstable();
        prop_assert_eq!(sorted, subset);
    }

    /// `renumber` reports Louvain's partition and gives every community one
    /// contiguous block of new ids.
    #[test]
    fn renumber_gives_each_community_one_id_block(g in arb_graph()) {
        let r = renumber(&g, &RenumberConfig::default()).expect("renumber");
        prop_assert_eq!(&r.community_of, &louvain(&g, &LouvainConfig::default()).community_of);
        let k = r.num_communities;
        let (mut lo, mut hi, mut size) = (vec![u32::MAX; k], vec![0u32; k], vec![0u32; k]);
        for old in 0..g.num_nodes() as u32 {
            let c = r.community_of[old as usize] as usize;
            let new = r.permutation.new_of(old);
            lo[c] = lo[c].min(new);
            hi[c] = hi[c].max(new);
            size[c] += 1;
        }
        for c in 0..k {
            prop_assert_eq!(hi[c] - lo[c] + 1, size[c], "community {} is split", c);
        }
    }

    /// Louvain output is a dense partition whose modularity is at least
    /// that of the all-singletons partition.
    #[test]
    fn louvain_output_is_valid_partition(g in arb_graph()) {
        let r = louvain(&g, &LouvainConfig::default());
        prop_assert_eq!(r.community_of.len(), g.num_nodes());
        if !r.community_of.is_empty() {
            let max = *r.community_of.iter().max().expect("non-empty") as usize;
            prop_assert_eq!(max + 1, r.num_communities);
        }
        let singletons: Vec<u32> = (0..g.num_nodes() as u32).collect();
        let q_singletons = modularity(&g, &singletons);
        prop_assert!(r.modularity >= q_singletons - 1e-9,
            "louvain ({}) must not underperform singletons ({})", r.modularity, q_singletons);
    }

    /// Edge-list round-trip through the text format preserves the graph up
    /// to id remapping (degree multiset).
    #[test]
    fn io_roundtrip(g in arb_graph()) {
        let mut buf = Vec::new();
        for (u, v) in g.edges() {
            use std::io::Write;
            writeln!(buf, "{u} {v}").expect("write to Vec");
        }
        let opts = gnnadvisor_graph::io::LoadOptions { symmetrize: false, drop_self_loops: false };
        let back = gnnadvisor_graph::io::read_edge_list(buf.as_slice(), &opts).expect("parses");
        prop_assert_eq!(back.num_edges(), g.num_edges());
        // Isolated trailing nodes are dropped by id interning; degree
        // multisets must match over non-isolated nodes.
        let degs = |g: &Csr| {
            let mut d: Vec<usize> =
                (0..g.num_nodes() as u32).map(|v| g.degree(v)).filter(|&d| d > 0).collect();
            d.sort_unstable();
            d
        };
        prop_assert_eq!(degs(&back), degs(&g));
    }
}
