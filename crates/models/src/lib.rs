//! GNN model architectures executed on the simulated runtime.
//!
//! The paper benchmarks two representative models (Section 8.1.1) plus the
//! GunRock comparison model:
//!
//! - [`gcn::Gcn`] — 2-layer Graph Convolutional Network, hidden dim 16,
//!   update-then-aggregate order (dimension reduction before aggregation).
//! - [`gin::Gin`] — 5-layer Graph Isomorphism Network, hidden dim 64,
//!   aggregate-then-update order with `(1 + eps)` self-weighting and an MLP
//!   update.
//! - [`sage::GraphSage`] — 2-layer GraphSage ("essentially a 2-layer GCN
//!   except for an additional neighbor sampling, which has been disabled
//!   for a fair comparison", Section 8.5) with mean aggregation.
//!
//! Each model does two things at once: it computes *real embeddings* (via
//! `gnnadvisor-core::compute` and `gnnadvisor-tensor`) and it collects
//! *simulated GPU metrics* for every aggregation and update kernel through
//! the [`exec`] module, parameterized by execution [`Framework`].
//!
//! [`Framework`]: gnnadvisor_core::Framework

#![deny(unsafe_code)]

pub mod batch;
pub mod dynamic;
pub mod exec;
pub mod gat;
pub mod gcn;
pub mod gin;
pub mod minibatch;
pub mod sage;
pub mod serve;
pub mod train;

pub use dynamic::DynamicGcnExecutor;
pub use exec::{ForwardResult, ModelExec};
pub use gat::Gat;
pub use gcn::Gcn;
pub use gin::Gin;
pub use minibatch::{train_minibatch, EpochStats, MiniBatchConfig, MiniBatchReport};
pub use sage::GraphSage;
pub use serve::GcnBatchExecutor;
pub use train::GcnTrainer;

/// Bytes of one `f32` / one edge index: what every device transfer the
/// serving, dynamic and mini-batch executors plan is sized in.
pub(crate) const WORD: usize = 4;
