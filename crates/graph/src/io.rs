//! Edge-list file I/O.
//!
//! The reproduction synthesizes its datasets, but a downstream user will
//! want to feed real graphs in. This module reads the two formats the
//! paper's dataset sources use — SNAP-style whitespace-separated edge
//! lists (with `#` comments) and simple CSV pairs — so results can be
//! reproduced on the genuine inputs when available.

use std::io::{BufRead, BufReader};
use std::path::Path;

use crate::csr::{Csr, NodeId};
use crate::{EdgeList, GraphError, Result};

/// Options for [`load_edge_list`].
#[derive(Debug, Clone, Copy)]
pub struct LoadOptions {
    /// Add the reverse of every edge (GNN aggregation usually wants the
    /// symmetric closure).
    pub symmetrize: bool,
    /// Drop self-loops.
    pub drop_self_loops: bool,
}

impl Default for LoadOptions {
    fn default() -> Self {
        Self {
            symmetrize: true,
            drop_self_loops: true,
        }
    }
}

/// Reads an edge list from a reader: one `src dst` pair per line,
/// whitespace- or comma-separated; lines starting with `#` or `%` are
/// comments. Node ids may be arbitrary `u64` values — they are densely
/// remapped to `0..n` in first-appearance order.
pub fn read_edge_list<R: std::io::Read>(reader: R, options: &LoadOptions) -> Result<Csr> {
    let mut remap: std::collections::HashMap<u64, NodeId> = std::collections::HashMap::new();
    let mut edges: Vec<(NodeId, NodeId)> = Vec::new();
    let intern = |raw: u64, remap: &mut std::collections::HashMap<u64, NodeId>| -> NodeId {
        let next = remap.len() as NodeId;
        *remap.entry(raw).or_insert(next)
    };

    for (line_no, line) in BufReader::new(reader).lines().enumerate() {
        let line = line.map_err(|e| GraphError::InvalidParameters {
            reason: format!("I/O error on line {}: {e}", line_no + 1),
        })?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') || trimmed.starts_with('%') {
            continue;
        }
        let mut parts = trimmed
            .split(|c: char| c.is_whitespace() || c == ',')
            .filter(|s| !s.is_empty());
        let (a, b) = match (parts.next(), parts.next()) {
            (Some(a), Some(b)) => (a, b),
            _ => {
                return Err(GraphError::InvalidParameters {
                    reason: format!("line {} has fewer than two fields", line_no + 1),
                })
            }
        };
        let parse = |s: &str| -> Result<u64> {
            s.parse::<u64>().map_err(|_| GraphError::InvalidParameters {
                reason: format!("line {}: '{s}' is not a node id", line_no + 1),
            })
        };
        let u = intern(parse(a)?, &mut remap);
        let v = intern(parse(b)?, &mut remap);
        edges.push((u, v));
    }

    let mut el = EdgeList::with_capacity(remap.len(), edges.len() * 2);
    for (u, v) in edges {
        el.push(u, v);
    }
    if options.drop_self_loops {
        el.remove_self_loops();
    }
    if options.symmetrize {
        el.symmetrize();
    } else {
        el.dedup();
    }
    el.into_csr()
}

/// Reads an edge-list file; see [`read_edge_list`].
pub fn load_edge_list<P: AsRef<Path>>(path: P, options: &LoadOptions) -> Result<Csr> {
    let file = std::fs::File::open(path.as_ref()).map_err(|e| GraphError::InvalidParameters {
        reason: format!("cannot open {}: {e}", path.as_ref().display()),
    })?;
    read_edge_list(file, options)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_snap_format() {
        let input = "# comment\n% another\n0 1\n1\t2\n\n2,0\n";
        let g = read_edge_list(input.as_bytes(), &LoadOptions::default()).expect("parses");
        assert_eq!(g.num_nodes(), 3);
        // Triangle symmetrized: 6 directed edges.
        assert_eq!(g.num_edges(), 6);
        assert!(g.is_symmetric());
    }

    #[test]
    fn remaps_sparse_ids() {
        let input = "1000000 5\n5 70000\n";
        let g = read_edge_list(input.as_bytes(), &LoadOptions::default()).expect("parses");
        assert_eq!(g.num_nodes(), 3, "raw ids are densified");
    }

    #[test]
    fn directed_mode_and_self_loops() {
        let input = "0 1\n1 1\n";
        let opts = LoadOptions {
            symmetrize: false,
            drop_self_loops: false,
        };
        let g = read_edge_list(input.as_bytes(), &opts).expect("parses");
        assert_eq!(g.num_edges(), 2);
        assert!(!g.is_symmetric());
        let opts = LoadOptions {
            symmetrize: false,
            drop_self_loops: true,
        };
        let g = read_edge_list(input.as_bytes(), &opts).expect("parses");
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn rejects_garbage() {
        assert!(read_edge_list("0 x\n".as_bytes(), &LoadOptions::default()).is_err());
        assert!(read_edge_list("42\n".as_bytes(), &LoadOptions::default()).is_err());
    }

    #[test]
    fn roundtrip_through_file() {
        let g = crate::GraphBuilder::new(5)
            .clique(&[0, 1, 2])
            .undirected_edge(3, 4)
            .build()
            .expect("valid");
        let dir = std::env::temp_dir().join("gnnadvisor_io_test");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("roundtrip.el");
        let text: String = g.edges().map(|(u, v)| format!("{u}\t{v}\n")).collect();
        std::fs::write(&path, text).expect("writes");
        let back = load_edge_list(
            &path,
            &LoadOptions {
                symmetrize: false,
                drop_self_loops: false,
            },
        )
        .expect("loads");
        assert_eq!(back.num_edges(), g.num_edges());
        assert_eq!(back.num_nodes(), g.num_nodes());
        // Same degree sequence (ids may be remapped by first appearance).
        let degs = |g: &Csr| {
            let mut d: Vec<usize> = (0..g.num_nodes() as u32).map(|v| g.degree(v)).collect();
            d.sort_unstable();
            d
        };
        assert_eq!(degs(&back), degs(&g));
        std::fs::remove_file(path).ok();
    }
}
