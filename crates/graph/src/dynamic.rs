//! Dynamic-graph substrate: seeded update streams and an incrementally
//! maintained CSR.
//!
//! Production graph serving means the graph mutates while queries run:
//! edges arrive and vanish, new nodes appear. This module provides the
//! two graph-side pieces the dynamic serving runtime (`core::dynamic`)
//! builds on:
//!
//! - [`generate_updates`]: an open-loop, seeded stream of edge
//!   insert/delete and node-arrival events with a configurable churn
//!   mix, timestamped by a Poisson process — the update-side twin of the
//!   serving crate's arrival generators. Deterministic for a `(base
//!   graph, config)` pair, independent of any thread count.
//! - [`DeltaCsr`]: the base [`Csr`] plus an *overlay* of per-node
//!   added/deleted neighbor lists, so a mutation costs a sorted insert
//!   into one or two rows instead of a CSR rebuild.
//!   [`DeltaCsr::to_csr`] materializes the current version as a plain
//!   CSR, and [`DeltaCsr::compact`] folds the overlay back into a fresh
//!   base; compaction never changes query results (property-tested in
//!   `tests/dynamic_snapshots.rs`).
//!
//! Versioning: every *effective* mutation (one that changes the edge set
//! or node count) bumps the version by one; no-op updates (inserting a
//! present edge, deleting an absent one) leave it untouched. Serving
//! reports tag every batch with the version it executed against.

use std::collections::BTreeMap;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::csr::{Csr, NodeId};
use crate::{GraphError, Result};

/// One mutation of the evolving graph.
///
/// Edge endpoints are *stream-space* ids: the base graph's original ids
/// for seed nodes, then `base.num_nodes(), base.num_nodes()+1, ...` for
/// arrived nodes in arrival order. A consumer that renumbers the live
/// graph maps stream-space ids through its cumulative permutation at
/// apply time, so one generated stream drives renumbered and
/// non-renumbered runs identically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpdateKind {
    /// Insert the undirected edge `{u, v}` (a no-op if present).
    InsertEdge {
        /// First endpoint (stream-space id).
        u: NodeId,
        /// Second endpoint (stream-space id).
        v: NodeId,
    },
    /// Delete the undirected edge `{u, v}` (a no-op if absent).
    DeleteEdge {
        /// First endpoint (stream-space id).
        u: NodeId,
        /// Second endpoint (stream-space id).
        v: NodeId,
    },
    /// A new, initially isolated node arrives; later events may wire it.
    AddNode,
}

/// One timestamped update event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UpdateEvent {
    /// Instant of the update on the serving clock, milliseconds.
    pub at_ms: f64,
    /// The mutation.
    pub kind: UpdateKind,
}

/// Parameters of the seeded update stream.
#[derive(Debug, Clone, PartialEq)]
pub struct UpdateStreamConfig {
    /// Total update events; zero is rejected (an empty stream is a
    /// config bug — run the static pipeline instead).
    pub num_updates: usize,
    /// Mean gap between consecutive updates, milliseconds (exponential).
    pub mean_interarrival_ms: f64,
    /// Fraction of events that delete an existing edge, in `[0, 1]`.
    pub delete_fraction: f64,
    /// Fraction of events that are node arrivals, in `[0, 1]`;
    /// `delete_fraction + node_fraction <= 1` and the remainder inserts
    /// edges between uniformly drawn live nodes.
    pub node_fraction: f64,
    /// Edges each arriving node immediately wires up, emitted as
    /// [`UpdateKind::InsertEdge`] events right after its
    /// [`UpdateKind::AddNode`] (each with its own clock gap, all counted
    /// against `num_updates`). The first attachment picks a random
    /// endpoint of a random live edge (degree-proportional, i.e.
    /// preferential attachment); the rest close triangles with that
    /// anchor's neighbors (friend-of-friend). `0` (the default) leaves
    /// arrivals isolated until later uniform inserts happen to hit them.
    ///
    /// Attachment churn is community-structured in *graph* space but
    /// catastrophic in *id* space — the new node holds the maximum id
    /// while its neighbors sit in some community block — which is
    /// precisely the decay a re-renumbering policy can undo, unlike
    /// uniform insert noise.
    pub attach_degree: usize,
    /// RNG seed; equal seeds give equal streams.
    pub seed: u64,
}

impl Default for UpdateStreamConfig {
    fn default() -> Self {
        Self {
            num_updates: 256,
            mean_interarrival_ms: 0.05,
            delete_fraction: 0.2,
            node_fraction: 0.05,
            attach_degree: 0,
            seed: 0,
        }
    }
}

impl UpdateStreamConfig {
    fn validate(&self) -> Result<()> {
        if self.num_updates == 0 {
            return Err(GraphError::InvalidParameters {
                reason: "num_updates must be at least 1 (an empty stream is a config bug)".into(),
            });
        }
        if !(self.mean_interarrival_ms.is_finite() && self.mean_interarrival_ms > 0.0) {
            return Err(GraphError::InvalidParameters {
                reason: format!(
                    "mean_interarrival_ms must be positive and finite, got {}",
                    self.mean_interarrival_ms
                ),
            });
        }
        for (name, f) in [
            ("delete_fraction", self.delete_fraction),
            ("node_fraction", self.node_fraction),
        ] {
            if !(f.is_finite() && (0.0..=1.0).contains(&f)) {
                return Err(GraphError::InvalidParameters {
                    reason: format!("{name} must be in [0, 1], got {f}"),
                });
            }
        }
        if self.delete_fraction + self.node_fraction > 1.0 {
            return Err(GraphError::InvalidParameters {
                reason: format!(
                    "delete_fraction + node_fraction must not exceed 1, got {}",
                    self.delete_fraction + self.node_fraction
                ),
            });
        }
        Ok(())
    }
}

/// One exponential gap of the given mean, floored so consecutive
/// instants stay strictly increasing (same scheme as the arrival
/// generators in the serving crate).
fn exp_gap(rng: &mut SmallRng, mean_ms: f64) -> f64 {
    let u: f64 = rng.gen();
    (-mean_ms * (1.0 - u).ln()).max(mean_ms * 1e-12)
}

/// Draws a seeded update stream against `base`.
///
/// The generator tracks the live undirected edge set so deletes always
/// name a currently present edge and inserts always name a currently
/// absent pair; events are therefore never no-ops when applied in
/// order from the base graph. Plain inserted endpoints are drawn
/// uniformly over the *live* node set (including arrived nodes);
/// arrivals additionally wire themselves in when
/// [`UpdateStreamConfig::attach_degree`] is set, producing the
/// id-space-destroying (but renumber-fixable) churn the re-renumbering
/// policy exists for. Degenerate draws (full clique, no deletable edge)
/// fall back to another event kind rather than spinning.
pub fn generate_updates(base: &Csr, cfg: &UpdateStreamConfig) -> Result<Vec<UpdateEvent>> {
    cfg.validate()?;
    if base.num_nodes() < 2 && cfg.node_fraction < 1.0 {
        return Err(GraphError::InvalidParameters {
            reason: format!(
                "base graph needs at least 2 nodes to draw edge updates, got {}",
                base.num_nodes()
            ),
        });
    }
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    // Live undirected edge set, kept as a sorted-key set plus a dense
    // vector for uniform delete/anchor draws, plus per-node adjacency for
    // friend-of-friend attachment draws.
    let mut live: std::collections::HashSet<(NodeId, NodeId)> = std::collections::HashSet::new();
    let mut live_vec: Vec<(NodeId, NodeId)> = Vec::new();
    let mut adj: Vec<Vec<NodeId>> = vec![Vec::new(); base.num_nodes()];
    for (v, u) in base.edges() {
        if v < u && live.insert((v, u)) {
            live_vec.push((v, u));
            adj[v as usize].push(u);
            adj[u as usize].push(v);
        }
    }
    let mut clock_ms = 0.0f64;
    let mut out: Vec<UpdateEvent> = Vec::with_capacity(cfg.num_updates);
    let push =
        |out: &mut Vec<UpdateEvent>, clock_ms: &mut f64, rng: &mut SmallRng, kind: UpdateKind| {
            *clock_ms += exp_gap(rng, cfg.mean_interarrival_ms);
            out.push(UpdateEvent {
                at_ms: *clock_ms,
                kind,
            });
        };
    let insert = |live: &mut std::collections::HashSet<(NodeId, NodeId)>,
                  live_vec: &mut Vec<(NodeId, NodeId)>,
                  adj: &mut Vec<Vec<NodeId>>,
                  u: NodeId,
                  v: NodeId| {
        let key = (u.min(v), u.max(v));
        live.insert(key);
        live_vec.push(key);
        adj[u as usize].push(v);
        adj[v as usize].push(u);
    };
    while out.len() < cfg.num_updates {
        let roll: f64 = rng.gen();
        if roll < cfg.node_fraction {
            let fresh = adj.len() as NodeId;
            adj.push(Vec::new());
            push(&mut out, &mut clock_ms, &mut rng, UpdateKind::AddNode);
            // Wire the arrival: one preferential anchor (a random endpoint
            // of a random live edge), then triangles with the anchor's
            // neighbors; give up on duplicate draws rather than spinning.
            if cfg.attach_degree > 0 && !live_vec.is_empty() && out.len() < cfg.num_updates {
                let (a, b) = live_vec[rng.gen_range(0..live_vec.len())];
                let anchor = if rng.gen_range(0..2u8) == 0 { a } else { b };
                insert(&mut live, &mut live_vec, &mut adj, fresh, anchor);
                push(
                    &mut out,
                    &mut clock_ms,
                    &mut rng,
                    UpdateKind::InsertEdge {
                        u: fresh,
                        v: anchor,
                    },
                );
                for _ in 1..cfg.attach_degree {
                    if out.len() >= cfg.num_updates {
                        break;
                    }
                    let candidates = &adj[anchor as usize];
                    let w = candidates[rng.gen_range(0..candidates.len())];
                    if w == fresh || live.contains(&(w.min(fresh), w.max(fresh))) {
                        continue;
                    }
                    insert(&mut live, &mut live_vec, &mut adj, fresh, w);
                    push(
                        &mut out,
                        &mut clock_ms,
                        &mut rng,
                        UpdateKind::InsertEdge { u: fresh, v: w },
                    );
                }
            }
        } else if roll < cfg.node_fraction + cfg.delete_fraction && !live_vec.is_empty() {
            // Swap-remove keeps the draw uniform and O(1).
            let i = rng.gen_range(0..live_vec.len());
            let (u, v) = live_vec.swap_remove(i);
            live.remove(&(u, v));
            adj[u as usize].retain(|&x| x != v);
            adj[v as usize].retain(|&x| x != u);
            push(
                &mut out,
                &mut clock_ms,
                &mut rng,
                UpdateKind::DeleteEdge { u, v },
            );
        } else {
            // Rejection-sample an absent pair; bail to a node arrival on
            // pathological density so the stream always makes progress.
            let num_nodes = adj.len() as NodeId;
            let mut picked = None;
            for _ in 0..64 {
                let u = rng.gen_range(0..num_nodes);
                let v = rng.gen_range(0..num_nodes);
                if u == v {
                    continue;
                }
                let key = (u.min(v), u.max(v));
                if !live.contains(&key) {
                    picked = Some(key);
                    break;
                }
            }
            match picked {
                Some((u, v)) => {
                    insert(&mut live, &mut live_vec, &mut adj, u, v);
                    push(
                        &mut out,
                        &mut clock_ms,
                        &mut rng,
                        UpdateKind::InsertEdge { u, v },
                    );
                }
                None => {
                    adj.push(Vec::new());
                    push(&mut out, &mut clock_ms, &mut rng, UpdateKind::AddNode);
                }
            }
        }
    }
    Ok(out)
}

/// The overlay: per-node sorted neighbor additions and
/// deletions relative to the base CSR, plus appended (initially
/// isolated) nodes. Directed entry counts keep `num_edges` O(1).
#[derive(Debug, Clone, Default, PartialEq)]
struct Overlay {
    /// Nodes appended after the base was built.
    extra_nodes: usize,
    /// Sorted neighbor ids added per node (absent key = no additions).
    adds: BTreeMap<NodeId, Vec<NodeId>>,
    /// Sorted base neighbor ids deleted per node.
    dels: BTreeMap<NodeId, Vec<NodeId>>,
    /// Directed adjacency entries added (2 per undirected insert).
    added_entries: usize,
    /// Directed adjacency entries deleted.
    deleted_entries: usize,
}

impl Overlay {
    fn is_empty(&self) -> bool {
        self.extra_nodes == 0 && self.adds.is_empty() && self.dels.is_empty()
    }

    /// Directed overlay entries — the compaction policy's debt measure.
    fn len(&self) -> usize {
        self.added_entries + self.deleted_entries
    }

    /// `v`'s row of `base` (empty for appended nodes) and its sorted
    /// additions and deletions.
    fn parts<'a>(&'a self, base: &'a Csr, v: NodeId) -> (&'a [NodeId], &'a [NodeId], &'a [NodeId]) {
        let adds = self.adds.get(&v).map_or(&[][..], Vec::as_slice);
        let dels = self.dels.get(&v).map_or(&[][..], Vec::as_slice);
        (base_row(base, v), adds, dels)
    }

    /// Merged sorted neighbor list of `v` over `base`.
    fn neighbors_of(&self, base: &Csr, v: NodeId) -> Vec<NodeId> {
        let (base_row, adds, dels) = self.parts(base, v);
        let mut out = Vec::new();
        merge_row(base_row, adds, dels, &mut out);
        out
    }

    /// Whether `u` is in `v`'s merged row over `base`, by binary search
    /// of the row's parts in place.
    fn has_neighbor(&self, base: &Csr, v: NodeId, u: NodeId) -> bool {
        let (base_row, adds, dels) = self.parts(base, v);
        adds.binary_search(&u).is_ok()
            || (base_row.binary_search(&u).is_ok() && dels.binary_search(&u).is_err())
    }
}

/// `v`'s row of `base`, empty for appended nodes.
fn base_row(base: &Csr, v: NodeId) -> &[NodeId] {
    if (v as usize) < base.num_nodes() {
        base.neighbors(v)
    } else {
        &[]
    }
}

/// Appends the sorted merge of `base_row` and `adds`, without the entries
/// of `dels`, to `out`.
fn merge_row(base_row: &[NodeId], adds: &[NodeId], dels: &[NodeId], out: &mut Vec<NodeId>) {
    if adds.is_empty() && dels.is_empty() {
        out.extend_from_slice(base_row);
        return;
    }
    out.reserve(base_row.len() + adds.len() - dels.len().min(base_row.len()));
    // Merge two sorted runs, filtering deleted base entries.
    let (mut i, mut j) = (0usize, 0usize);
    while i < base_row.len() || j < adds.len() {
        let take_base = j >= adds.len() || (i < base_row.len() && base_row[i] <= adds[j]);
        if take_base {
            let u = base_row[i];
            i += 1;
            if dels.binary_search(&u).is_err() {
                out.push(u);
            }
        } else {
            out.push(adds[j]);
            j += 1;
        }
    }
}

/// A CSR graph under mutation: an immutable base plus a delta overlay,
/// with monotone versioning.
///
/// Undirected semantics throughout — one `insert_edge(u, v)` adds both
/// directed entries, matching the symmetric graphs the
/// community/renumbering pipeline assumes.
#[derive(Debug, Clone)]
pub struct DeltaCsr {
    base: Csr,
    overlay: Overlay,
    version: u64,
}

impl DeltaCsr {
    /// Wraps a base graph at version 0.
    pub fn new(base: Csr) -> Self {
        Self::with_version(base, 0)
    }

    /// Wraps a base graph at a caller-chosen version — used after a
    /// renumber/compaction rebuild to keep version tags monotone across
    /// the swap.
    pub fn with_version(base: Csr, version: u64) -> Self {
        Self {
            base,
            overlay: Overlay::default(),
            version,
        }
    }

    /// Current graph version: bumps by one per effective mutation.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Live node count (base plus arrivals).
    pub fn num_nodes(&self) -> usize {
        self.base.num_nodes() + self.overlay.extra_nodes
    }

    /// Live directed adjacency-entry count.
    pub fn num_edges(&self) -> usize {
        self.base.num_edges() + self.overlay.added_entries - self.overlay.deleted_entries
    }

    /// Directed overlay entries not yet folded into the base — the
    /// measure a compaction policy watches.
    pub fn delta_entries(&self) -> usize {
        self.overlay.len()
    }

    /// Merged sorted neighbor list of `v`.
    pub fn neighbors_of(&self, v: NodeId) -> Vec<NodeId> {
        self.overlay.neighbors_of(&self.base, v)
    }

    /// Whether the undirected edge `{u, v}` is live.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.overlay.has_neighbor(&self.base, u, v)
    }

    fn check_node(&self, v: NodeId) -> Result<()> {
        if (v as usize) < self.num_nodes() {
            Ok(())
        } else {
            Err(GraphError::NodeOutOfRange {
                node: v as u64,
                num_nodes: self.num_nodes() as u64,
            })
        }
    }

    /// Inserts the undirected edge `{u, v}`. Returns `true` (and bumps
    /// the version) if the edge was absent; a present edge is a no-op.
    /// Self-loops are rejected.
    pub fn insert_edge(&mut self, u: NodeId, v: NodeId) -> Result<bool> {
        self.check_node(u)?;
        self.check_node(v)?;
        if u == v {
            return Err(GraphError::InvalidParameters {
                reason: format!("self-loop insert on node {u}"),
            });
        }
        if self.has_edge(u, v) {
            return Ok(false);
        }
        let overlay = &mut self.overlay;
        for (a, b) in [(u, v), (v, u)] {
            // Undeleting a base edge and adding a new entry are distinct:
            // the former shrinks `dels`, the latter grows `adds`.
            let was_deleted = overlay
                .dels
                .get_mut(&a)
                .map(|d| {
                    if let Ok(i) = d.binary_search(&b) {
                        d.remove(i);
                        true
                    } else {
                        false
                    }
                })
                .unwrap_or(false);
            if was_deleted {
                if overlay.dels.get(&a).is_some_and(|d| d.is_empty()) {
                    overlay.dels.remove(&a);
                }
                overlay.deleted_entries -= 1;
            } else {
                let row = overlay.adds.entry(a).or_default();
                let at = row.binary_search(&b).expect_err("edge checked absent");
                row.insert(at, b);
                overlay.added_entries += 1;
            }
        }
        self.version += 1;
        Ok(true)
    }

    /// Deletes the undirected edge `{u, v}`. Returns `true` (and bumps
    /// the version) if the edge was live; an absent edge is a no-op.
    pub fn delete_edge(&mut self, u: NodeId, v: NodeId) -> Result<bool> {
        self.check_node(u)?;
        self.check_node(v)?;
        if !self.has_edge(u, v) {
            return Ok(false);
        }
        let overlay = &mut self.overlay;
        for (a, b) in [(u, v), (v, u)] {
            // An overlay-added edge is retracted from `adds`; a base edge
            // is masked via `dels`.
            let was_added = overlay
                .adds
                .get_mut(&a)
                .map(|r| {
                    if let Ok(i) = r.binary_search(&b) {
                        r.remove(i);
                        true
                    } else {
                        false
                    }
                })
                .unwrap_or(false);
            if was_added {
                if overlay.adds.get(&a).is_some_and(|r| r.is_empty()) {
                    overlay.adds.remove(&a);
                }
                overlay.added_entries -= 1;
            } else {
                let row = overlay.dels.entry(a).or_default();
                let at = row
                    .binary_search(&b)
                    .expect_err("edge is in base, not yet deleted");
                row.insert(at, b);
                overlay.deleted_entries += 1;
            }
        }
        self.version += 1;
        Ok(true)
    }

    /// Appends a new isolated node, returning its id; bumps the version.
    pub fn add_node(&mut self) -> NodeId {
        let id = self.num_nodes() as NodeId;
        self.overlay.extra_nodes += 1;
        self.version += 1;
        id
    }

    /// Folds the overlay into a fresh base CSR. Queries and the version
    /// are unaffected — compaction is pure representation maintenance.
    pub fn compact(&mut self) {
        if self.overlay.is_empty() {
            return;
        }
        self.base = self.to_csr();
        self.overlay = Overlay::default();
    }

    /// Materializes the current graph as a plain CSR (sorted rows).
    ///
    /// The overlay's maps are walked in key order beside the rows, so a
    /// row costs no map lookup.
    pub fn to_csr(&self) -> Csr {
        let n = self.num_nodes();
        let mut row_ptr = Vec::with_capacity(n + 1);
        let mut col_idx = Vec::with_capacity(self.num_edges());
        row_ptr.push(0usize);
        let mut adds = self.overlay.adds.iter().peekable();
        let mut dels = self.overlay.dels.iter().peekable();
        for v in 0..n as NodeId {
            let adds = adds.next_if(|&(&u, _)| u == v).map_or(&[][..], |(_, r)| r);
            let dels = dels.next_if(|&(&u, _)| u == v).map_or(&[][..], |(_, r)| r);
            merge_row(base_row(&self.base, v), adds, dels, &mut col_idx);
            row_ptr.push(col_idx.len());
        }
        Csr::from_raw(n, row_ptr, col_idx).expect("merged rows are sorted and in range")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{community_graph, CommunityParams};
    use crate::GraphBuilder;

    fn small_base() -> Csr {
        GraphBuilder::new(6)
            .clique(&[0, 1, 2])
            .path(&[3, 4, 5])
            .build()
            .expect("valid")
    }

    #[test]
    fn insert_and_delete_round_trip() {
        let mut d = DeltaCsr::new(small_base());
        let e0 = d.num_edges();
        assert!(d.insert_edge(0, 5).expect("in range"));
        assert!(d.has_edge(0, 5) && d.has_edge(5, 0));
        assert_eq!(d.num_edges(), e0 + 2);
        assert_eq!(d.version(), 1);
        // Re-insert is a no-op without a version bump.
        assert!(!d.insert_edge(5, 0).expect("in range"));
        assert_eq!(d.version(), 1);
        assert!(d.delete_edge(0, 5).expect("in range"));
        assert_eq!(d.num_edges(), e0);
        assert_eq!(d.version(), 2);
        assert!(!d.delete_edge(0, 5).expect("in range"));
        assert_eq!(d.version(), 2);
    }

    /// `to_csr` walks the overlay in key order beside the rows; edits on
    /// the first row, the last base row and appended rows (the last one
    /// included) land in the right rows.
    #[test]
    fn to_csr_merges_edits_on_the_first_last_and_appended_rows() {
        let mut d = DeltaCsr::new(small_base());
        let (a, b) = (d.add_node(), d.add_node());
        assert_eq!((a, b), (6, 7));
        assert!(d.insert_edge(0, b).expect("in range"));
        assert!(d.insert_edge(5, a).expect("in range"));
        assert!(d.insert_edge(0, 5).expect("in range"));
        assert!(d.delete_edge(0, 1).expect("in range"));
        assert!(d.delete_edge(4, 5).expect("in range"));
        assert!(d.insert_edge(a, b).expect("in range"));
        let expected = GraphBuilder::new(8)
            .undirected_edge(0, 2)
            .undirected_edge(1, 2)
            .undirected_edge(3, 4)
            .undirected_edge(0, 7)
            .undirected_edge(5, 6)
            .undirected_edge(0, 5)
            .undirected_edge(6, 7)
            .build()
            .expect("valid");
        let csr = d.to_csr();
        assert_eq!(csr, expected);
        for v in 0..8 {
            assert_eq!(csr.neighbors(v), d.neighbors_of(v).as_slice(), "row {v}");
        }
        assert_eq!(csr.neighbors(0), &[2, 5, 7]);
        assert_eq!(csr.neighbors(5), &[0, 6]);
        assert_eq!(csr.neighbors(7), &[0, 6]);
    }

    #[test]
    fn deleting_base_edges_masks_them() {
        let mut d = DeltaCsr::new(small_base());
        assert!(d.has_edge(0, 1));
        assert!(d.delete_edge(0, 1).expect("in range"));
        assert!(!d.has_edge(0, 1) && !d.has_edge(1, 0));
        // Undelete restores the base entry without growing `adds`.
        assert!(d.insert_edge(1, 0).expect("in range"));
        assert!(d.has_edge(0, 1));
        assert_eq!(
            d.delta_entries(),
            0,
            "masked-then-restored base edge leaves no overlay debt"
        );
    }

    #[test]
    fn node_arrivals_extend_the_graph() {
        let mut d = DeltaCsr::new(small_base());
        let v = d.add_node();
        assert_eq!(v, 6);
        assert_eq!(d.num_nodes(), 7);
        assert!(d.neighbors_of(v).is_empty());
        assert!(d.insert_edge(v, 0).expect("in range"));
        assert_eq!(d.neighbors_of(v), vec![0]);
        assert!(d.insert_edge(v, 3).expect("in range"));
        assert_eq!(d.neighbors_of(v), vec![0, 3]);
    }

    #[test]
    fn out_of_range_and_self_loops_are_rejected() {
        let mut d = DeltaCsr::new(small_base());
        assert!(matches!(
            d.insert_edge(0, 99),
            Err(GraphError::NodeOutOfRange { .. })
        ));
        assert!(matches!(
            d.insert_edge(2, 2),
            Err(GraphError::InvalidParameters { .. })
        ));
        assert_eq!(d.version(), 0, "rejected updates must not bump the version");
    }

    #[test]
    fn compaction_preserves_queries_and_version() {
        let mut d = DeltaCsr::new(small_base());
        d.insert_edge(0, 5).expect("in range");
        d.delete_edge(0, 1).expect("in range");
        let n = d.add_node();
        d.insert_edge(n, 2).expect("in range");
        let before = d.to_csr();
        let version = d.version();
        assert!(d.delta_entries() > 0);
        d.compact();
        assert_eq!(d.delta_entries(), 0);
        assert_eq!(d.version(), version);
        assert_eq!(d.to_csr(), before);
        // Compacting a clean delta is a no-op.
        d.compact();
        assert_eq!(d.to_csr(), before);
    }

    #[test]
    fn materialized_snapshot_is_a_valid_symmetric_csr() {
        let mut d = DeltaCsr::new(small_base());
        for (u, v) in [(0, 3), (1, 4), (2, 5)] {
            d.insert_edge(u, v).expect("in range");
        }
        d.delete_edge(3, 4).expect("in range");
        let csr = d.to_csr();
        assert!(csr.is_sorted());
        assert!(csr.is_symmetric());
        assert_eq!(csr.num_edges(), d.num_edges());
    }

    #[test]
    fn update_stream_is_deterministic_and_effective() {
        let (base, _) = community_graph(
            &CommunityParams {
                num_nodes: 300,
                num_edges: 2_400,
                mean_community: 30,
                community_size_cv: 0.3,
                inter_fraction: 0.08,
                shuffle_ids: false,
            },
            3,
        )
        .expect("valid");
        let cfg = UpdateStreamConfig {
            num_updates: 400,
            delete_fraction: 0.25,
            node_fraction: 0.05,
            seed: 9,
            ..Default::default()
        };
        let a = generate_updates(&base, &cfg).expect("valid");
        let b = generate_updates(&base, &cfg).expect("valid");
        assert_eq!(a, b, "same seed, same stream");
        assert!(
            a.windows(2).all(|w| w[0].at_ms < w[1].at_ms),
            "strictly increasing"
        );
        // Applying the stream in order never hits a no-op: the generator
        // tracks the live edge set.
        let mut d = DeltaCsr::new(base);
        let (mut ins, mut del, mut arr) = (0usize, 0usize, 0usize);
        for ev in &a {
            match ev.kind {
                UpdateKind::InsertEdge { u, v } => {
                    assert!(
                        d.insert_edge(u, v).expect("in range"),
                        "insert must be effective"
                    );
                    ins += 1;
                }
                UpdateKind::DeleteEdge { u, v } => {
                    assert!(
                        d.delete_edge(u, v).expect("in range"),
                        "delete must be effective"
                    );
                    del += 1;
                }
                UpdateKind::AddNode => {
                    d.add_node();
                    arr += 1;
                }
            }
        }
        assert_eq!(ins + del + arr, 400);
        assert!(
            ins > del && del > 0 && arr > 0,
            "churn mix respected: {ins}/{del}/{arr}"
        );
        assert_eq!(d.version(), 400);
    }

    #[test]
    fn attachment_churn_wires_arrivals_into_communities() {
        let (base, _) = community_graph(
            &CommunityParams {
                num_nodes: 300,
                num_edges: 2_400,
                mean_community: 30,
                community_size_cv: 0.3,
                inter_fraction: 0.08,
                shuffle_ids: false,
            },
            5,
        )
        .expect("valid");
        let cfg = UpdateStreamConfig {
            num_updates: 600,
            delete_fraction: 0.1,
            node_fraction: 0.3,
            attach_degree: 5,
            seed: 4,
            ..Default::default()
        };
        let stream = generate_updates(&base, &cfg).expect("valid");
        assert_eq!(stream, generate_updates(&base, &cfg).expect("valid"));
        assert_eq!(stream.len(), 600);
        let mut d = DeltaCsr::new(base.clone());
        let mut arrivals: Vec<NodeId> = Vec::new();
        for ev in &stream {
            match ev.kind {
                UpdateKind::InsertEdge { u, v } => {
                    assert!(d.insert_edge(u, v).expect("in range"), "effective insert");
                }
                UpdateKind::DeleteEdge { u, v } => {
                    assert!(d.delete_edge(u, v).expect("in range"), "effective delete");
                }
                UpdateKind::AddNode => arrivals.push(d.add_node()),
            }
        }
        assert!(
            arrivals.len() > 20,
            "node churn present: {}",
            arrivals.len()
        );
        // Most arrivals (ignoring the tail, whose attachments may be cut
        // off by the num_updates budget) end up wired, not isolated.
        let wired = arrivals
            .iter()
            .take(arrivals.len() - 2)
            .filter(|&&v| !d.neighbors_of(v).is_empty())
            .count();
        assert!(
            wired * 10 >= (arrivals.len() - 2) * 9,
            "attachment must wire arrivals: {wired}/{}",
            arrivals.len() - 2
        );
        // Attachment edges land far from the new node in id space — the
        // decay signal a re-renumbering policy later removes.
        let n0 = base.num_nodes() as i64;
        let long_span = stream
            .iter()
            .filter(|e| match e.kind {
                UpdateKind::InsertEdge { u, v } => {
                    (u as i64 - v as i64).abs() > 64 && (u as i64 >= n0 || v as i64 >= n0)
                }
                _ => false,
            })
            .count();
        assert!(
            long_span > 50,
            "arrival edges span the id space: {long_span}"
        );
    }

    #[test]
    fn update_stream_rejects_bad_configs() {
        let base = small_base();
        let bad = |mutate: fn(&mut UpdateStreamConfig)| {
            let mut cfg = UpdateStreamConfig::default();
            mutate(&mut cfg);
            generate_updates(&base, &cfg)
        };
        assert!(bad(|c| c.num_updates = 0).is_err());
        assert!(bad(|c| c.mean_interarrival_ms = 0.0).is_err());
        assert!(bad(|c| c.delete_fraction = 1.2).is_err());
        assert!(bad(|c| c.node_fraction = -0.1).is_err());
        assert!(bad(|c| {
            c.delete_fraction = 0.7;
            c.node_fraction = 0.4;
        })
        .is_err());
        assert!(generate_updates(&Csr::empty(1), &UpdateStreamConfig::default()).is_err());
    }
}
