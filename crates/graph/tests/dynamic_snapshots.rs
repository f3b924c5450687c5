//! Property tests for `DeltaCsr` version semantics.
//!
//! The contract under test: for *any* interleaving of updates and
//! compactions,
//!
//! - the live graph at version `v` — every row, every edge query and its
//!   materialized snapshot (`to_csr`, what dynamic serving plans against)
//!   — observes exactly `base.edges ± applied deltas at v`, both the count
//!   and the full adjacency;
//! - compaction is a no-op for query results (it only rebuilds the
//!   representation).
//!
//! A plain `BTreeSet<(u, v)>` edge-set model is stepped alongside the
//! `DeltaCsr` and is the oracle after every step.

use std::collections::BTreeSet;

use proptest::prelude::*;

use gnnadvisor_graph::{Csr, DeltaCsr, GraphBuilder, NodeId};

/// One scripted step of the interleaving.
#[derive(Debug, Clone)]
enum Step {
    Insert(u64, u64),
    Delete(u64, u64),
    AddNode,
    Compact,
}

fn arb_steps() -> impl Strategy<Value = Vec<Step>> {
    // The vendored proptest samples integer ranges; an op selector picks
    // the step kind (weighted by range width) and the endpoints are
    // reduced modulo the live node count at apply time.
    proptest::collection::vec(
        (0u8..9, 0u64..1000, 0u64..1000).prop_map(|(op, u, v)| match op {
            0..=3 => Step::Insert(u, v),
            4..=6 => Step::Delete(u, v),
            7 => Step::AddNode,
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

/// Asserts the live graph agrees with the model byte-for-byte (plain
/// panicking asserts — the vendored proptest runs bodies as ordinary
/// tests without shrinking).
fn assert_matches_model(
    delta: &DeltaCsr,
    model: &BTreeSet<(NodeId, NodeId)>,
    nodes: usize,
    applied_adds: usize,
    applied_dels: usize,
    base_edges: usize,
) {
    assert_eq!(delta.num_nodes(), nodes);
    assert_eq!(delta.num_edges(), model_edges(model));
    // Edges at version v equal the base count plus applied inserts minus
    // applied deletes (directed).
    assert_eq!(
        delta.num_edges(),
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
        assert_eq!(delta.neighbors_of(v), expected, "row {v} diverged");
    }
    // Materialization agrees with the row-by-row view.
    let csr = delta.to_csr();
    assert_eq!(csr.num_nodes(), nodes);
    assert_eq!(csr.num_edges(), delta.num_edges());
    assert!(csr.is_symmetric());
    for v in 0..nodes as NodeId {
        assert_eq!(csr.neighbors(v), delta.neighbors_of(v), "csr row {v}");
        for u in 0..nodes as NodeId {
            let live = model.contains(&(u.min(v), u.max(v)));
            assert_eq!(delta.has_edge(v, u), live, "edge {{{v}, {u}}}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Any interleaving of updates and compactions preserves
    /// `edges(v) == base.edges ± applied deltas at version v` in every
    /// row, edge query and materialization, and compaction never changes
    /// query results.
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
                Step::Compact => {
                    let version = delta.version();
                    let live = delta.to_csr();
                    delta.compact();
                    prop_assert_eq!(delta.version(), version, "compaction keeps the version");
                    prop_assert_eq!(delta.delta_entries(), 0);
                    prop_assert_eq!(delta.to_csr(), live, "compaction is a query no-op");
                }
            }
            // The live view matches the live model, row by row.
            assert_matches_model(&delta, &model, nodes, applied_adds, applied_dels, base_edges);
        }
    }
}
