//! Graph substrate for the GNNAdvisor reproduction.
//!
//! This crate provides everything the runtime needs to know about the *input
//! graph* side of a GNN workload:
//!
//! - [`Csr`]: a compressed-sparse-row adjacency structure, the canonical
//!   in-memory representation consumed by every aggregation kernel.
//! - [`coo::EdgeList`]: a mutable edge-list builder that is finalized into a
//!   [`Csr`].
//! - [`generators`]: seeded synthetic graph generators reproducing the
//!   structural classes of the paper's Table 1 datasets (power-law community
//!   graphs, batched small dense graphs, Erdős–Rényi, Barabási–Albert).
//! - [`community`]: Louvain modularity-maximizing community detection
//!   (Section 6.1, step 1 of node renumbering).
//! - [`reorder`]: Reverse Cuthill–McKee traversal and the full
//!   community-aware node-renumbering pipeline (Section 6.1).
//! - [`stats`]: degree and locality statistics used by the input extractor
//!   (Section 4.1) and by the analytical model's `alpha` parameter.
//! - [`sample`]: seeded neighbor fan-out and layer-wise sampling producing
//!   per-mini-batch [`SampledBlock`] sub-CSRs for sampling-based training.
//! - [`dynamic`]: seeded edge/node update streams and [`DeltaCsr`], an
//!   incrementally maintained CSR with copy-on-write snapshots for serving
//!   queries while the graph mutates.
//!
//! All generators and algorithms are deterministic: given the same seed and
//! input they produce byte-identical output, which the simulator upstream
//! relies on for reproducible experiment tables.

#![deny(unsafe_code)]

pub mod builder;
pub mod community;
pub mod coo;
pub mod csr;
pub mod dynamic;
pub mod generators;
pub mod io;
pub mod reorder;
pub mod sample;
pub mod stats;

pub use builder::GraphBuilder;
pub use coo::EdgeList;
pub use csr::{Csr, NodeId};
pub use dynamic::{
    generate_updates, DeltaCsr, GraphSnapshot, UpdateEvent, UpdateKind, UpdateStreamConfig,
};
pub use reorder::permutation::Permutation;
pub use sample::{sample_block, sample_epoch, SampleConfig, SampleStrategy, SampledBlock};

/// Errors produced while constructing or transforming graphs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// An edge endpoint referenced a node id `>= num_nodes`.
    NodeOutOfRange {
        /// The offending node id.
        node: u64,
        /// The number of nodes in the graph.
        num_nodes: u64,
    },
    /// A CSR row-pointer array was not monotonically non-decreasing or did
    /// not start at zero / end at `num_edges`.
    MalformedRowPtr {
        /// Index of the first offending entry.
        index: usize,
    },
    /// A permutation was not a bijection over `0..n`.
    InvalidPermutation {
        /// Human-readable description of the violation.
        reason: &'static str,
    },
    /// The requested generator parameters are inconsistent (e.g. more edges
    /// than the graph can hold).
    InvalidParameters {
        /// Human-readable description of the violation.
        reason: String,
    },
}

impl core::fmt::Display for GraphError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            GraphError::NodeOutOfRange { node, num_nodes } => {
                write!(
                    f,
                    "node id {node} out of range (graph has {num_nodes} nodes)"
                )
            }
            GraphError::MalformedRowPtr { index } => {
                write!(f, "malformed CSR row pointer at index {index}")
            }
            GraphError::InvalidPermutation { reason } => {
                write!(f, "invalid permutation: {reason}")
            }
            GraphError::InvalidParameters { reason } => {
                write!(f, "invalid generator parameters: {reason}")
            }
        }
    }
}

impl std::error::Error for GraphError {}

/// Crate-local result alias.
pub type Result<T> = core::result::Result<T, GraphError>;
