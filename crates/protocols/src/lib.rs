//! Primary-backup Byzantine commit algorithms (BCAs).
//!
//! RCC is a *paradigm*: it turns any primary-backup consensus protocol into a
//! concurrent consensus protocol (design goal D3 of the paper). This crate
//! provides the one protocol this reproduction deploys, simulates and
//! benchmarks, implemented as a deterministic, I/O-free state machine:
//!
//! * [`pbft`] — PBFT's preprepare-prepare-commit algorithm with view changes
//!   and checkpoints (Example III.1; the default BCA of RCC and the
//!   strongest out-of-order baseline).
//!
//! Further BCAs (speculative, collector-based, chained) are deferred in
//! ROADMAP.md until a campaign or deployment calls for them.
//!
//! The [`bca`] module defines the [`bca::ByzantineCommitAlgorithm`] trait a
//! BCA implements, the [`bca::Action`] vocabulary it emits, and the
//! assumptions (A1–A4 in Section III-B of the paper) the RCC layer relies
//! on. The [`harness`] module is a deterministic in-memory cluster driver
//! shared by all protocol tests and by `rcc-core`; the `rcc-sim` crate
//! drives the same state machines through a performance-accurate
//! discrete-event simulation (latency, bandwidth, and CPU cost per
//! [`bca::WireMessage`]).

#![warn(missing_docs)]
// Deterministic layer: no hash collections, no clocks (docs/LINTS.md).
#![deny(clippy::disallowed_types)]

pub mod bca;
pub mod harness;
pub mod pbft;
pub mod quorum;

pub use bca::{Action, ByzantineCommitAlgorithm, CommittedSlot, FailureReason, TimerId};
pub use harness::Cluster;
pub use pbft::Pbft;
pub use quorum::QuorumTracker;
