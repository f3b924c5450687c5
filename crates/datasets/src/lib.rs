//! Dataset registry matched to the paper's evaluation inputs.
//!
//! The paper evaluates on 15 real datasets (Table 1) in three structural
//! classes plus the three NeuGraph-comparison graphs (Table 2). We cannot
//! ship those files, so each dataset is *synthesized to its published
//! statistics* — node count, edge count, feature dimension, class count —
//! with the structural property its class contributes (see DESIGN.md):
//! Type I/III are latent-community power-law graphs, Type II are
//! block-diagonal batched small graphs.
//!
//! Every dataset accepts a `scale` in `(0, 1]` that shrinks node and edge
//! counts proportionally, so full sweeps finish quickly while preserving
//! shape (degree distribution, community structure, dimensionality).

#![deny(unsafe_code)]

pub mod neugraph;
pub mod registry;
pub mod scale;
pub mod table1;

pub use registry::{Dataset, DatasetSpec, DatasetType};
pub use table1::{all_table1, table1_by_name, TYPE_I, TYPE_II, TYPE_III};
