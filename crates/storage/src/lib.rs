//! Storage substrate for the RCC reproduction.
//!
//! Replicas in ResilientDB maintain three kinds of state, all reproduced
//! here:
//!
//! * [`table`] — the YCSB-style record table the workload operates on
//!   (half a million records in the paper's experiments).
//! * [`accounts`] — the bank-account state used by the ordering-attack
//!   illustration of Section IV (Example IV.1 / Fig. 6).
//! * [`ledger`] — the blockchain ledger (journal): a hash-chained, immutable
//!   record of every executed round together with proof-of-acceptance
//!   digests, providing the data-provenance property the paper highlights.
//! * [`checkpoint`] — checkpoint snapshots exchanged by the recovery and
//!   in-the-dark protocols.

#![warn(missing_docs)]
// Deterministic layer: no hash collections, no clocks (docs/LINTS.md).
#![deny(clippy::disallowed_types)]

pub mod accounts;
pub mod checkpoint;
pub mod ledger;
pub mod table;

pub use accounts::AccountStore;
pub use checkpoint::{Checkpoint, CheckpointStore};
pub use ledger::{Block, BlockEntry, Ledger};
pub use table::{Payload, Record, RecordTable};
