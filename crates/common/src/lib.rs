//! Shared foundation types for the RCC workspace.
//!
//! This crate contains the vocabulary used by every other crate in the
//! reproduction of *RCC: Resilient Concurrent Consensus for High-Throughput
//! Secure Transaction Processing* (ICDE 2021):
//!
//! * [`ids`] — replica, client, and consensus-instance identifiers, round and
//!   view numbers.
//! * [`time`] — a nanosecond-precision logical clock shared by the
//!   discrete-event simulator and the in-process deployments.
//! * [`transaction`] — client transactions (YCSB-style record operations,
//!   bank transfers, and no-ops) and client requests.
//! * [`batch`] — batches of client requests, the unit replicated by a single
//!   consensus slot: one shared allocation holding the batch's wire bytes,
//!   read in place, together with wire-size accounting.
//! * [`codec`] — the hand-rolled canonical binary wire codec
//!   ([`codec::Encode`]/[`codec::Decode`]) used by every message that
//!   crosses a deployment boundary (the vendored `serde` is a no-op facade).
//! * [`config`] — system-wide configuration: number of replicas, fault
//!   threshold, batching, pipelining, timeouts, and cryptography mode.
//! * [`pool`] — the fixed worker pool (std threads + bounded channels)
//!   the node's signature verification fans out to.
//! * [`rng`] — the SplitMix64 generator behind every piece of deterministic
//!   randomness in the workspace (simulated jitter, workload contents).
//! * [`status`] — the per-instance coordination status exposed by an RCC
//!   replica for the Section III-E client-assignment policy.
//! * [`digest`] — a fixed 32-byte digest newtype (hash values are produced by
//!   `rcc-crypto` but referenced everywhere).
//! * [`error`] — the shared error type.
//!
//! The crate is deliberately free of I/O and cryptography so that protocol
//! crates can be tested in isolation and the whole stack stays deterministic.

#![warn(missing_docs)]

pub mod batch;
pub mod codec;
pub mod config;
pub mod digest;
pub mod error;
pub mod ids;
pub mod pool;
pub mod rng;
pub mod status;
pub mod time;
pub mod transaction;

pub use batch::{Batch, BatchId};
pub use codec::{Decode, Encode, Reader, WireError};
pub use config::{CryptoMode, SystemConfig};
pub use digest::Digest;
pub use error::{Error, Result};
pub use ids::{ClientId, InstanceId, ReplicaId, Round, View};
pub use pool::WorkerPool;
pub use rng::SplitMix64;
pub use status::InstanceStatus;
pub use time::{Duration, Time};
pub use transaction::{ClientRequest, RequestId, RequestRef, Transaction, TransactionKind};
