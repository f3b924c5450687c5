//! Compressed-sparse-row adjacency structure.
//!
//! [`Csr`] is the canonical graph representation consumed by every
//! aggregation kernel in the runtime. Node ids are `u32` ([`NodeId`]) so
//! that multi-million-node graphs (Table 1, Type III) keep their adjacency
//! arrays compact, which also matters for the simulated memory traffic: the
//! kernels charge DRAM bytes proportional to these arrays' real sizes.

use crate::{GraphError, Permutation, Result};

/// Node identifier. `u32` bounds graphs at ~4.2 billion nodes, far beyond
/// the paper's largest input.
pub type NodeId = u32;

/// A directed graph in compressed-sparse-row form.
///
/// `row_ptr` has `num_nodes + 1` entries; the out-neighbors of node `v` are
/// `col_idx[row_ptr[v] .. row_ptr[v + 1]]`. GNN aggregation treats the
/// neighbor list of `v` as the set of messages flowing *into* `v`, matching
/// the paper's formulation `a_v = Aggregate(h_u | u in Neighbor(v))`.
///
/// # Examples
///
/// ```
/// use gnnadvisor_graph::{Csr, EdgeList};
///
/// let mut edges = EdgeList::new(3);
/// edges.push_undirected(0, 1);
/// edges.push_undirected(1, 2);
/// let graph: Csr = edges.into_csr().unwrap();
/// assert_eq!(graph.degree(1), 2);
/// assert_eq!(graph.neighbors(1), &[0, 2]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Csr {
    num_nodes: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<NodeId>,
}

impl Csr {
    /// Builds a CSR from raw arrays, validating the invariants.
    ///
    /// Returns an error if `row_ptr` is not monotone from `0` to
    /// `col_idx.len()`, or if any column index is out of range.
    pub fn from_raw(num_nodes: usize, row_ptr: Vec<usize>, col_idx: Vec<NodeId>) -> Result<Self> {
        if row_ptr.len() != num_nodes + 1 {
            return Err(GraphError::MalformedRowPtr {
                index: row_ptr.len(),
            });
        }
        if row_ptr[0] != 0 {
            return Err(GraphError::MalformedRowPtr { index: 0 });
        }
        for i in 1..row_ptr.len() {
            if row_ptr[i] < row_ptr[i - 1] {
                return Err(GraphError::MalformedRowPtr { index: i });
            }
        }
        if *row_ptr.last().expect("non-empty by construction") != col_idx.len() {
            return Err(GraphError::MalformedRowPtr { index: num_nodes });
        }
        for &c in &col_idx {
            if c as usize >= num_nodes {
                return Err(GraphError::NodeOutOfRange {
                    node: c as u64,
                    num_nodes: num_nodes as u64,
                });
            }
        }
        Ok(Self {
            num_nodes,
            row_ptr,
            col_idx,
        })
    }

    /// An empty graph with `num_nodes` isolated nodes.
    pub fn empty(num_nodes: usize) -> Self {
        Self {
            num_nodes,
            row_ptr: vec![0; num_nodes + 1],
            col_idx: Vec::new(),
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of directed edges (an undirected edge stored both ways counts
    /// twice, matching how the paper's Table 1 reports edge counts).
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.col_idx.len()
    }

    /// Out-degree of node `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        let v = v as usize;
        self.row_ptr[v + 1] - self.row_ptr[v]
    }

    /// Neighbor slice of node `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn neighbors(&self, v: NodeId) -> &[NodeId] {
        let v = v as usize;
        &self.col_idx[self.row_ptr[v]..self.row_ptr[v + 1]]
    }

    /// The raw row-pointer array (length `num_nodes + 1`).
    #[inline]
    pub fn row_ptr(&self) -> &[usize] {
        &self.row_ptr
    }

    /// The raw column-index array (length `num_edges`).
    #[inline]
    pub fn col_idx(&self) -> &[NodeId] {
        &self.col_idx
    }

    /// Iterates over all directed edges as `(src, dst)` pairs in CSR order.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        (0..self.num_nodes as NodeId)
            .flat_map(move |v| self.neighbors(v).iter().map(move |&u| (v, u)))
    }

    /// Average out-degree.
    pub fn avg_degree(&self) -> f64 {
        if self.num_nodes == 0 {
            0.0
        } else {
            self.num_edges() as f64 / self.num_nodes as f64
        }
    }

    /// Maximum out-degree.
    pub fn max_degree(&self) -> usize {
        (0..self.num_nodes as NodeId)
            .map(|v| self.degree(v))
            .max()
            .unwrap_or(0)
    }

    /// Whether each neighbor list is sorted ascending (generators guarantee
    /// this; some reorderings rely on it for determinism).
    pub fn is_sorted(&self) -> bool {
        (0..self.num_nodes as NodeId).all(|v| self.neighbors(v).windows(2).all(|w| w[0] <= w[1]))
    }

    /// Whether the graph is symmetric (for every edge `(u, v)` the reverse
    /// edge `(v, u)` exists). Aggregation semantics do not require symmetry,
    /// but the community/renumbering pipeline assumes it.
    pub fn is_symmetric(&self) -> bool {
        self.edges().all(|(u, v)| {
            self.neighbors(v).binary_search(&u).is_ok() || {
                // Fall back to a linear scan when neighbor lists are unsorted.
                !self.is_sorted_row(v) && self.neighbors(v).contains(&u)
            }
        })
    }

    fn is_sorted_row(&self, v: NodeId) -> bool {
        self.neighbors(v).windows(2).all(|w| w[0] <= w[1])
    }

    /// Returns the transpose graph (every edge reversed).
    pub fn transpose(&self) -> Csr {
        let mut deg = vec![0usize; self.num_nodes];
        for &c in &self.col_idx {
            deg[c as usize] += 1;
        }
        let mut row_ptr = vec![0usize; self.num_nodes + 1];
        for v in 0..self.num_nodes {
            row_ptr[v + 1] = row_ptr[v] + deg[v];
        }
        let mut cursor = row_ptr.clone();
        let mut col_idx = vec![0 as NodeId; self.col_idx.len()];
        for (src, dst) in self.edges() {
            let slot = cursor[dst as usize];
            col_idx[slot] = src;
            cursor[dst as usize] += 1;
        }
        Csr {
            num_nodes: self.num_nodes,
            row_ptr,
            col_idx,
        }
    }

    /// Applies a node permutation, producing the renumbered graph.
    ///
    /// `perm.new_of(v)` gives the new id of old node `v`. The result has the
    /// same edge multiset modulo renaming, with sorted neighbor lists: it is
    /// [`Csr::relabel`] with each row then sorted.
    pub fn permute(&self, perm: &Permutation) -> Result<Csr> {
        let mut out = self.relabel(perm)?;
        for bounds in out.row_ptr.windows(2) {
            out.col_idx[bounds[0]..bounds[1]].sort_unstable();
        }
        Ok(out)
    }

    /// Renames every node by `perm`, keeping each row's order: row
    /// `perm.new_of(v)` lists `perm.new_of(u)` for each `u` in row `v`, in
    /// that row's order. Unlike [`Csr::permute`] nothing is sorted, so a
    /// sum over a row of the result adds its terms in the original order.
    pub fn relabel(&self, perm: &Permutation) -> Result<Csr> {
        if perm.len() != self.num_nodes {
            return Err(GraphError::InvalidPermutation {
                reason: "length mismatch with graph",
            });
        }
        let mut row_ptr = Vec::with_capacity(self.num_nodes + 1);
        let mut col_idx = Vec::with_capacity(self.col_idx.len());
        row_ptr.push(0);
        for &v in perm.inverse().as_slice() {
            col_idx.extend(self.neighbors(v).iter().map(|&u| perm.new_of(u)));
            row_ptr.push(col_idx.len());
        }
        Ok(Csr {
            num_nodes: self.num_nodes,
            row_ptr,
            col_idx,
        })
    }

    /// RCM-style bandwidth: the maximum `|v - u|` over all edges `(v, u)`.
    /// Lower bandwidth after renumbering means neighbor embeddings live
    /// closer together in memory, which the cache model rewards.
    pub fn bandwidth(&self) -> usize {
        self.edges()
            .map(|(v, u)| (v as i64 - u as i64).unsigned_abs() as usize)
            .max()
            .unwrap_or(0)
    }

    /// Mean `|v - u|` over all edges: a smoother locality proxy than
    /// [`Csr::bandwidth`], used by tests to verify that renumbering
    /// improves locality on community graphs.
    pub fn mean_edge_span(&self) -> f64 {
        if self.num_edges() == 0 {
            return 0.0;
        }
        let total: u64 = self
            .edges()
            .map(|(v, u)| (v as i64 - u as i64).unsigned_abs())
            .sum();
        total as f64 / self.num_edges() as f64
    }

    /// Heap size of the adjacency arrays in bytes, as charged to the
    /// simulated GPU's global memory.
    pub fn adjacency_bytes(&self) -> usize {
        self.row_ptr.len() * core::mem::size_of::<usize>()
            + self.col_idx.len() * core::mem::size_of::<NodeId>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EdgeList;

    fn path3() -> Csr {
        // 0 - 1 - 2 stored symmetrically.
        let mut el = EdgeList::new(3);
        el.push(0, 1);
        el.push(1, 2);
        el.symmetrize();
        el.into_csr().expect("valid")
    }

    #[test]
    fn from_raw_validates_row_ptr() {
        assert!(
            Csr::from_raw(2, vec![0, 1], vec![0]).is_err(),
            "short row_ptr"
        );
        assert!(
            Csr::from_raw(2, vec![1, 1, 1], vec![0]).is_err(),
            "row_ptr[0] != 0"
        );
        assert!(
            Csr::from_raw(2, vec![0, 2, 1], vec![0]).is_err(),
            "non-monotone"
        );
        assert!(
            Csr::from_raw(2, vec![0, 0, 2], vec![0]).is_err(),
            "tail mismatch"
        );
        assert!(
            Csr::from_raw(2, vec![0, 1, 1], vec![5]).is_err(),
            "col out of range"
        );
        assert!(Csr::from_raw(2, vec![0, 1, 1], vec![1]).is_ok());
    }

    #[test]
    fn degrees_and_neighbors() {
        let g = path3();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.degree(1), 2);
        assert_eq!(g.neighbors(1), &[0, 2]);
        assert_eq!(g.max_degree(), 2);
        assert!((g.avg_degree() - 4.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn symmetry_and_transpose() {
        let g = path3();
        assert!(g.is_symmetric());
        assert_eq!(g.transpose(), g, "symmetric graph equals its transpose");

        let mut el = EdgeList::new(3);
        el.push(0, 1);
        let d = el.into_csr().expect("valid");
        assert!(!d.is_symmetric());
        let t = d.transpose();
        assert_eq!(t.neighbors(1), &[0]);
        assert_eq!(t.degree(0), 0);
    }

    #[test]
    fn permute_reverses_ids() {
        let g = path3();
        // Reverse node order: 0 <-> 2.
        let perm = Permutation::from_new_of_old(vec![2, 1, 0]).expect("valid");
        let p = g.permute(&perm).expect("valid");
        assert_eq!(p.neighbors(2), &[1]); // old node 0
        assert_eq!(p.neighbors(1), &[0, 2]);
        assert!(p.is_symmetric());
        assert_eq!(p.num_edges(), g.num_edges());
    }

    #[test]
    fn relabel_keeps_each_row_in_order() {
        // Unsorted rows with a duplicate edge and a self-loop.
        let g = Csr::from_raw(3, vec![0, 3, 5, 6], vec![2, 0, 2, 2, 0, 1]).expect("valid");
        let perm = Permutation::from_new_of_old(vec![1, 2, 0]).expect("valid");
        let r = g.relabel(&perm).expect("valid");
        assert_eq!(r.neighbors(1), &[0, 1, 0], "old row 0, renamed, unsorted");
        assert_eq!(r.neighbors(2), &[0, 1], "old row 1");
        assert_eq!(r.neighbors(0), &[2], "old row 2");
        // Sorting each row gives `permute`.
        let mut sorted = r.col_idx.clone();
        for v in 0..3 {
            sorted[r.row_ptr[v]..r.row_ptr[v + 1]].sort_unstable();
        }
        assert_eq!(sorted, g.permute(&perm).expect("valid").col_idx);
        let short = Permutation::identity(2);
        assert!(g.relabel(&short).is_err(), "length mismatch");
    }

    #[test]
    fn bandwidth_of_path_is_one() {
        let g = path3();
        assert_eq!(g.bandwidth(), 1);
        assert!((g.mean_edge_span() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_graph() {
        let g = Csr::empty(4);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.bandwidth(), 0);
        assert!(g.is_symmetric());
        assert!(g.is_sorted());
    }

    #[test]
    fn edges_iterator_matches_neighbor_lists() {
        let g = path3();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges, vec![(0, 1), (1, 0), (1, 2), (2, 1)]);
    }
}
