//! The occupancy-accurate device core: block-level admission and
//! retirement.
//!
//! Structured after Cyclotron's composable modules, the core splits block
//! scheduling into two small, independently testable pieces:
//!
//! - [`CommandProcessor`] ([`admission`]): holds per-SM free-resource
//!   state (register-file bytes, shared-memory bytes, warp slots, block
//!   slots from [`crate::GpuSpec`]) and admits thread blocks
//!   breadth-first across SMs — one block per SM per pass, like the
//!   hardware's block scheduler — so concurrent launches interleave on
//!   the same SM when resources permit (true kernel co-residency).
//! - [`RetirementQueue`] ([`retire`]): a time-ordered queue of admitted
//!   block groups; popping an entry at its retirement instant returns
//!   every resource the group pinned. Under- or over-returning panics —
//!   the conservation invariant is enforced, not assumed.
//!
//! [`crate::stream::StreamSim::run`] drives both from its discrete-event
//! loop over the priced ops placed on its streams; tests and proptests
//! drive them directly to check the admission invariant
//! (at every instant, per-SM usage ≤ spec limits) without a scheduler in
//! the way.

pub mod admission;
pub mod retire;

pub use admission::{BlockDemand, CommandProcessor, SmUsage};
pub use retire::{Retirement, RetirementQueue};
