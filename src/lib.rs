//! Reproduction of *RCC: Resilient Concurrent Consensus for High-Throughput
//! Secure Transaction Processing* (Gupta, Hellings, Sadoghi — ICDE 2021).
//!
//! This umbrella crate re-exports every workspace crate under one roof so
//! examples, integration tests, and downstream users can write
//! `rcc::core::RccReplica` instead of depending on each crate individually.
//! See `README.md` for the crate map and `docs/ARCHITECTURE.md` for how the
//! layers fit together.
//!
//! The quickest way in:
//!
//! ```
//! use rcc::common::{Batch, ClientId, ClientRequest, ReplicaId, SystemConfig, Transaction};
//! use rcc::core::RccReplica;
//! use rcc::protocols::harness::Cluster;
//! use rcc::protocols::ByzantineCommitAlgorithm;
//!
//! // A 4-replica deployment running 4 concurrent PBFT instances.
//! let config = SystemConfig::new(4);
//! let mut cluster = Cluster::new(
//!     (0..4).map(|r| RccReplica::over_pbft(config.clone(), ReplicaId(r))).collect(),
//! );
//! // Every replica coordinates one instance and proposes concurrently.
//! for r in 0..4u64 {
//!     let batch = Batch::new(vec![ClientRequest::new(
//!         ClientId(r),
//!         0,
//!         Transaction::transfer(0, 1, 10, 1),
//!     )]);
//!     cluster.propose(ReplicaId(r as u32), batch);
//! }
//! cluster.run_to_quiescence();
//! // All replicas release the same 4 batches in the same execution order.
//! assert_eq!(cluster.node(ReplicaId(0)).committed_prefix(), 4);
//! let order = cluster.node(ReplicaId(0)).execution_digests();
//! for r in 1..4 {
//!     assert_eq!(cluster.node(ReplicaId(r)).execution_digests(), order);
//! }
//! ```

#![warn(missing_docs)]

pub use rcc_bench as bench;
pub use rcc_common as common;
pub use rcc_core as core;
pub use rcc_crypto as crypto;
pub use rcc_execution as execution;
pub use rcc_network as network;
pub use rcc_protocols as protocols;
pub use rcc_sim as sim;
pub use rcc_storage as storage;
pub use rcc_telemetry as telemetry;
pub use rcc_workload as workload;
