//! Node reordering: permutations, Reverse Cuthill–McKee, and the
//! community-aware renumbering pipeline of Section 6.1.

pub mod permutation;
pub mod rcm;
pub mod renumber;

pub use permutation::Permutation;
pub use rcm::rcm_order;
pub use renumber::{rcm_by_community, renumber, RenumberConfig, RenumberResult};
