//! Component batches of batched Type II datasets.
//!
//! Type II inputs (Section 8.1.2) are unions of many small independent
//! graphs "generally used for batched training or inference". The serving
//! layer splits such a block-diagonal dataset into its component graphs
//! and stitches the components of one serving batch back together before
//! pricing a forward pass.
//!
//! Because components occupy contiguous id ranges with no cross edges,
//! extraction is a cheap CSR slice + index shift.

use gnnadvisor_graph::{Csr, NodeId};

/// Rebases the contiguous node slice `[start, end)` into a standalone
/// CSR (valid only when no edge crosses the slice boundary).
fn slice_range(graph: &Csr, start: usize, end: usize) -> Csr {
    let row_ptr_parent = graph.row_ptr();
    let base_edge = row_ptr_parent[start];
    let row_ptr: Vec<usize> = row_ptr_parent[start..=end]
        .iter()
        .map(|&e| e - base_edge)
        .collect();
    let col_idx: Vec<NodeId> = graph.col_idx()[base_edge..row_ptr_parent[end]]
        .iter()
        .map(|&u| {
            debug_assert!((start..end).contains(&(u as usize)), "cross-batch edge");
            u - start as NodeId
        })
        .collect();
    Csr::from_raw(end - start, row_ptr, col_idx).expect("slice preserves invariants")
}

/// Splits a block-diagonal graph into one standalone graph **per
/// component** (ids rebased to `0..len`). `component_of` must be
/// non-decreasing over node ids (the batched generator guarantees it).
/// The serving layer uses this to look up each request's input graph by
/// component id.
///
/// # Panics
///
/// Panics if `component_of.len() != graph.num_nodes()`.
pub fn component_batches(graph: &Csr, component_of: &[u32]) -> Vec<Csr> {
    assert_eq!(
        component_of.len(),
        graph.num_nodes(),
        "one component id per node"
    );
    let n = graph.num_nodes();
    let mut batches = Vec::new();
    let mut start = 0usize;
    while start < n {
        let c = component_of[start];
        let mut end = start;
        while end < n && component_of[end] == c {
            end += 1;
        }
        batches.push(slice_range(graph, start, end));
        start = end;
    }
    batches
}

/// Stitches independent graphs into one block-diagonal CSR (the inverse
/// of splitting): node ids of graph *i* shift by the total size of
/// graphs `0..i`. The dynamic batcher coalesces the graphs of one
/// serving batch this way before pricing a single forward pass.
pub fn concat_block_diagonal<'a>(graphs: impl IntoIterator<Item = &'a Csr>) -> Csr {
    let mut row_ptr = vec![0usize];
    let mut col_idx: Vec<NodeId> = Vec::new();
    let mut node_base = 0usize;
    let mut edge_base = 0usize;
    for g in graphs {
        row_ptr.extend(g.row_ptr()[1..].iter().map(|&e| e + edge_base));
        col_idx.extend(g.col_idx().iter().map(|&u| u + node_base as NodeId));
        node_base += g.num_nodes();
        edge_base += g.num_edges();
    }
    Csr::from_raw(node_base, row_ptr, col_idx).expect("offset blocks preserve invariants")
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnnadvisor_graph::generators::{batched_graph, BatchedParams};

    fn dataset() -> (Csr, Vec<u32>) {
        let params = BatchedParams {
            num_nodes: 2_000,
            num_edges: 8_000,
            mean_graph_size: 40,
            graph_size_cv: 0.4,
        };
        batched_graph(&params, 31).expect("valid")
    }

    #[test]
    fn batches_cover_components_exactly() {
        let (g, comp) = dataset();
        let batches = component_batches(&g, &comp);
        let components = comp.windows(2).filter(|w| w[0] != w[1]).count() + 1;
        assert_eq!(batches.len(), components, "one batch per component");
        let mut covered = 0usize;
        let mut edges = 0usize;
        for b in &batches {
            let ids = &comp[covered..covered + b.num_nodes()];
            assert!(ids.iter().all(|&c| c == ids[0]), "a batch is one component");
            assert!(b.is_symmetric());
            covered += b.num_nodes();
            edges += b.num_edges();
        }
        assert_eq!(covered, g.num_nodes());
        assert_eq!(edges, g.num_edges(), "no cross-batch edges exist to lose");
    }

    #[test]
    fn empty_graph_yields_no_batches() {
        let g = Csr::from_raw(0, vec![0], vec![]).expect("valid");
        assert!(component_batches(&g, &[]).is_empty());
        let none: [&Csr; 0] = [];
        let rejoined = concat_block_diagonal(none);
        assert_eq!(rejoined.num_nodes(), 0);
        assert_eq!(rejoined.num_edges(), 0);
    }

    #[test]
    fn all_one_component_is_a_single_batch() {
        // A path graph: one component spanning every node.
        let n = 64usize;
        let mut row_ptr = vec![0usize];
        let mut col_idx = Vec::new();
        for v in 0..n {
            if v > 0 {
                col_idx.push((v - 1) as u32);
            }
            if v + 1 < n {
                col_idx.push((v + 1) as u32);
            }
            row_ptr.push(col_idx.len());
        }
        let g = Csr::from_raw(n, row_ptr, col_idx).expect("valid");
        let comp = vec![0u32; n];
        let batches = component_batches(&g, &comp);
        assert_eq!(batches.len(), 1);
        assert_eq!(batches[0].num_nodes(), n);
        assert_eq!(batches[0].num_edges(), g.num_edges());
    }

    #[test]
    fn component_split_round_trips_through_concat() {
        let (g, comp) = dataset();
        let parts = component_batches(&g, &comp);
        assert!(parts.len() > 1);
        let rejoined = concat_block_diagonal(&parts);
        assert_eq!(rejoined.num_nodes(), g.num_nodes());
        assert_eq!(rejoined.row_ptr(), g.row_ptr());
        assert_eq!(rejoined.col_idx(), g.col_idx());
    }
}
