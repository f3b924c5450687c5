//! Property tests for `DeltaCsr` snapshot semantics.
//!
//! The contract under test (ISSUE 8, satellite 3): for *any* interleaving
//! of updates, snapshot reads, and compactions,
//!
//! - a snapshot taken at version `v` observes exactly
//!   `base.edges ± applied deltas at v` — both the count and the full
//!   adjacency — no matter how many mutations follow;
//! - compaction is a no-op for query results (it only rebuilds the
//!   representation).
//!
//! A plain `BTreeSet<(u, v)>` edge-set model is stepped alongside the
//! `DeltaCsr`; frozen copies of the model at snapshot instants are the
//! oracle for late snapshot reads.

use std::collections::BTreeSet;

use proptest::prelude::*;

use gnnadvisor_graph::{Csr, DeltaCsr, GraphBuilder, GraphSnapshot, NodeId};

/// One scripted step of the interleaving.
#[derive(Debug, Clone)]
enum Step {
    Insert(u64, u64),
    Delete(u64, u64),
    AddNode,
    Snapshot,
    Compact,
}

fn arb_steps() -> impl Strategy<Value = Vec<Step>> {
    // The vendored proptest samples integer ranges; an op selector picks
    // the step kind (weighted by range width) and the endpoints are
    // reduced modulo the live node count at apply time.
    proptest::collection::vec(
        (0u8..11, 0u64..1000, 0u64..1000).prop_map(|(op, u, v)| match op {
            0..=3 => Step::Insert(u, v),
            4..=6 => Step::Delete(u, v),
            7 => Step::AddNode,
            8..=9 => Step::Snapshot,
            _ => Step::Compact,
        }),
        1..60,
    )
}

fn base_graph(n: usize, ring: bool) -> Csr {
    let mut b = GraphBuilder::new(n);
    if ring && n >= 3 {
        for v in 0..n as NodeId {
            b = b.undirected_edge(v, (v + 1) % n as NodeId);
        }
    }
    b.build().expect("valid")
}

/// Directed edge count of a model edge set (2 entries per undirected edge).
fn model_edges(model: &BTreeSet<(NodeId, NodeId)>) -> usize {
    model.len() * 2
}

/// Asserts a snapshot agrees with a frozen model byte-for-byte (plain
/// panicking asserts — the vendored proptest runs bodies as ordinary
/// tests without shrinking).
fn assert_snapshot_matches(
    snap: &GraphSnapshot,
    model: &BTreeSet<(NodeId, NodeId)>,
    nodes: usize,
    applied_adds: usize,
    applied_dels: usize,
    base_edges: usize,
) {
    assert_eq!(snap.num_nodes(), nodes);
    assert_eq!(snap.num_edges(), model_edges(model));
    // The invariant as stated in the issue: edges at version v equal the
    // base count plus applied inserts minus applied deletes (directed).
    assert_eq!(
        snap.num_edges(),
        base_edges + 2 * applied_adds - 2 * applied_dels
    );
    for v in 0..nodes as NodeId {
        let mut expected: Vec<NodeId> = model
            .iter()
            .filter_map(|&(a, b)| {
                if a == v {
                    Some(b)
                } else if b == v {
                    Some(a)
                } else {
                    None
                }
            })
            .collect();
        expected.sort_unstable();
        assert_eq!(snap.neighbors_of(v), expected, "row {v} diverged");
    }
    // Materialization agrees with the row-by-row view.
    let csr = snap.to_csr();
    assert_eq!(csr.num_nodes(), nodes);
    assert_eq!(csr.num_edges(), snap.num_edges());
    assert!(csr.is_symmetric());
    for v in 0..nodes as NodeId {
        assert_eq!(csr.neighbors(v), snap.neighbors_of(v), "csr row {v}");
        for u in 0..nodes as NodeId {
            let live = model.contains(&(u.min(v), u.max(v)));
            assert_eq!(snap.has_edge(v, u), live, "edge {{{v}, {u}}}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Any interleaving of updates, snapshots, and compactions preserves
    /// `snapshot(v).edges == base.edges ± applied deltas at version v`,
    /// snapshots stay frozen, and compaction never changes query results.
    #[test]
    fn snapshots_observe_exactly_their_version(
        n in 4usize..12,
        ring in 0u8..2,
        steps in arb_steps(),
    ) {
        let base = base_graph(n, ring == 1);
        let base_edges = base.num_edges();
        let mut delta = DeltaCsr::new(base.clone());

        // Live model state.
        let mut model: BTreeSet<(NodeId, NodeId)> = base
            .edges()
            .filter(|&(v, u)| v < u)
            .collect();
        let mut nodes = n;
        let mut applied_adds = 0usize;
        let mut applied_dels = 0usize;

        // Frozen (snapshot, model, counts) tuples, re-checked after every step.
        struct Frozen {
            snap: GraphSnapshot,
            model: BTreeSet<(NodeId, NodeId)>,
            nodes: usize,
            adds: usize,
            dels: usize,
        }
        let mut frozen: Vec<Frozen> = Vec::new();

        for step in steps {
            match step {
                Step::Insert(u, v) => {
                    let u = (u % nodes as u64) as NodeId;
                    let v = (v % nodes as u64) as NodeId;
                    if u == v {
                        prop_assert!(delta.insert_edge(u, v).is_err());
                        continue;
                    }
                    let key = (u.min(v), u.max(v));
                    let version = delta.version();
                    let effective = delta.insert_edge(u, v).expect("in range");
                    prop_assert_eq!(effective, model.insert(key));
                    if effective {
                        applied_adds += 1;
                        prop_assert_eq!(delta.version(), version + 1);
                    } else {
                        prop_assert_eq!(delta.version(), version, "no-op must not bump version");
                    }
                }
                Step::Delete(u, v) => {
                    let u = (u % nodes as u64) as NodeId;
                    let v = (v % nodes as u64) as NodeId;
                    if u == v {
                        continue;
                    }
                    let key = (u.min(v), u.max(v));
                    let version = delta.version();
                    let effective = delta.delete_edge(u, v).expect("in range");
                    prop_assert_eq!(effective, model.remove(&key));
                    if effective {
                        applied_dels += 1;
                        prop_assert_eq!(delta.version(), version + 1);
                    } else {
                        prop_assert_eq!(delta.version(), version);
                    }
                }
                Step::AddNode => {
                    let id = delta.add_node();
                    prop_assert_eq!(id as usize, nodes);
                    nodes += 1;
                }
                Step::Snapshot => {
                    frozen.push(Frozen {
                        snap: delta.snapshot(),
                        model: model.clone(),
                        nodes,
                        adds: applied_adds,
                        dels: applied_dels,
                    });
                }
                Step::Compact => {
                    let version = delta.version();
                    let live = delta.to_csr();
                    delta.compact();
                    prop_assert_eq!(delta.version(), version, "compaction keeps the version");
                    prop_assert_eq!(delta.delta_entries(), 0);
                    prop_assert_eq!(delta.to_csr(), live, "compaction is a query no-op");
                }
            }
            // The live view always matches the live model...
            prop_assert_eq!(delta.num_edges(), model_edges(&model));
            prop_assert_eq!(delta.num_nodes(), nodes);
            // ...and every frozen snapshot still matches its frozen model.
            for f in &frozen {
                assert_snapshot_matches(&f.snap, &f.model, f.nodes, f.adds, f.dels, base_edges);
            }
        }
    }
}
