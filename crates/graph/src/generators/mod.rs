//! Seeded synthetic graph generators.
//!
//! The paper evaluates on three dataset classes (Table 1). Each class is
//! characterized by a structural property that GNNAdvisor's optimizations
//! key on, and each generator here reproduces that property:
//!
//! - **Type I / III** (citation networks, SNAP graphs): power-law degree
//!   distribution with community structure → [`community::community_graph`]
//!   (planted communities with preferential attachment inside each).
//! - **Type II** (graph-kernel benchmark sets): unions of many small dense
//!   graphs with block-diagonal adjacency and consecutive ids →
//!   [`batched::batched_graph`].
//! - Reference generators for tests and ablations:
//!   [`erdos_renyi()`] and [`barabasi_albert`].
//!
//! All generators take an explicit `u64` seed and are deterministic.

pub mod batched;
pub mod community;
pub mod erdos_renyi;
pub mod power_law;

pub use batched::{batched_graph, BatchedParams};
pub use community::{community_graph, CommunityParams};
pub use erdos_renyi::erdos_renyi;
pub use power_law::barabasi_albert;

use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Builds the deterministic RNG used by all generators in this module.
pub(crate) fn rng(seed: u64) -> SmallRng {
    SmallRng::seed_from_u64(seed)
}
