//! Deterministic execution engine.
//!
//! Consensus only orders transactions; this crate executes them. Execution
//! must be deterministic ("on identical inputs, execution of a transaction
//! must always produce identical outcomes", Section III-A) so that all
//! non-faulty replicas converge on the same state and produce identical
//! client replies. The engine executes ordered batches against the storage
//! substrate (`rcc-storage`), appends the resulting block to the ledger, and
//! produces the per-client replies that replicas send back.
//!
//! There is one executor: every released round runs in place, in the agreed
//! order ([`engine`]). [`conflict`] partitions a round into conflict groups;
//! the engine does not use it — the benchmark measures groups per round
//! with it.

#![warn(missing_docs)]
// Deterministic layer: no hash collections, no clocks (docs/LINTS.md).
#![deny(clippy::disallowed_types)]

pub mod conflict;
pub mod engine;
pub mod reply;

pub use conflict::{access_set, conflict_groups, AccessKey, AccessSet};
pub use engine::{ExecutionEngine, ExecutionSummary};
pub use reply::{ClientReply, ExecutionOutcome};
