//! Facade crate for the GNNAdvisor reproduction.
//!
//! Re-exports every sub-crate of the workspace under one roof so that
//! examples and downstream users can depend on a single crate:
//!
//! - [`graph`] — CSR graphs, generators, Louvain, RCM, renumbering.
//! - [`tensor`] — dense matrices, SGEMM, MLPs for the update phase.
//! - [`gpu`] — the deterministic GPU execution simulator.
//! - [`core`] — the GNNAdvisor runtime itself (workload management, memory
//!   organizing, analytical model, auto-tuner, kernels, baselines).
//! - [`models`] — GCN / GIN / GraphSage architectures.
//! - [`datasets`] — the paper's Table 1 / Table 2 dataset registry.

#![deny(unsafe_code)]

pub mod cli;

/// The workspace's unified error enum (one variant per layer),
/// re-exported as the facade's root error type.
pub use gnnadvisor_core::CoreError as Error;
/// Result alias over [`Error`].
pub use gnnadvisor_core::Result;

pub use gnnadvisor_core as core;
pub use gnnadvisor_datasets as datasets;
pub use gnnadvisor_gpu as gpu;
pub use gnnadvisor_graph as graph;
pub use gnnadvisor_models as models;
pub use gnnadvisor_tensor as tensor;
