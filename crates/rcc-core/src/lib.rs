//! RCC: the concurrent-consensus coordination layer.
//!
//! This crate is the paper's actual contribution (Sections III and IV): it
//! takes *any* primary-backup Byzantine commit algorithm (BCA) satisfying
//! assumptions A1–A4 of `rcc_protocols::bca` and runs `m` instances of it
//! concurrently, one per proposing replica, to saturate resources that a
//! single primary leaves idle.
//!
//! * [`message`] — the tagged envelope [`message::RccMessage`] that
//!   multiplexes per-instance BCA traffic plus the RCC-level state-sync
//!   messages over one channel per replica pair.
//! * [`orderer`] — the deterministic round-based execution orderer
//!   ([`orderer::ExecutionOrderer`]): round `ρ` is released for execution
//!   only once **every** instance has a committed slot for `ρ` (wait-free
//!   design goal D2), and the `m` batches of a round execute in the Section
//!   IV permutation of the round's certified digests, which no coordinator
//!   can predict before the round is fixed.
//! * [`replica`] — [`replica::RccReplica`], one replica's view of the whole
//!   RCC deployment. It owns the `m` BCA state machines, routes envelopes
//!   and timers to them, feeds their commits into the orderer, detects
//!   lagging/failed instances via the lag bound `σ`, recovers committed
//!   slots a replica missed (assumption A3) through weak-quorum state sync,
//!   and has primaries of lagging instances catch up with no-op proposals
//!   (Section III-E).
//!
//! [`replica::RccReplica`] itself implements
//! [`rcc_protocols::ByzantineCommitAlgorithm`], so the deterministic
//! [`rcc_protocols::harness::Cluster`] — with its partition, crash, and
//! timer tooling — drives an RCC cluster exactly like it drives a single
//! PBFT cluster. The commits it emits outward are the *execution order*:
//! one [`rcc_protocols::CommittedSlot`] per released batch, numbered by a
//! global execution sequence that is identical on all non-faulty replicas.

#![warn(missing_docs)]
// Deterministic layer: no hash collections, no clocks (docs/LINTS.md).
#![deny(clippy::disallowed_types)]

pub mod message;
pub mod orderer;
pub mod replica;

pub use message::RccMessage;
pub use orderer::{ExecutionOrderer, OrderedBatch, ReleasedRound};
pub use replica::{RccOverPbft, RccReplica};
