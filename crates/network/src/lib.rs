//! The deployment transport of the RCC reproduction: the I/O boundary the
//! sans-io state machines of `rcc-protocols` and `rcc-core` are driven by
//! in a *real* deployment — the role ResilientDB's network layer plays in
//! the paper's experiments (Section V), scaled down to a localhost cluster.
//!
//! Layers, bottom up:
//!
//! * [`frame`] — the versioned wire format: magic + version header, one
//!   frame kind per traffic class (replica envelopes, client submissions,
//!   replies, rejects), payloads in the canonical `rcc_common::codec`
//!   binary encoding, and a [`rcc_crypto::AuthTag`] applied **at the frame
//!   boundary** per the deployment's [`rcc_common::CryptoMode`] (pairwise
//!   MACs between replicas, signatures in PK mode — Fig. 7's knob).
//! * [`run`] — length-prefixed frames packed end to end: the bytes on a
//!   peer socket, and the one thing that crosses a thread boundary between
//!   a mailbox thread and its peers (a burst's frames for one peer, or one
//!   socket read's, per hand-off).
//! * [`transport`] — the [`transport::Transport`] abstraction plus the
//!   bounded in-process channel implementation; [`tcp`] — real sockets:
//!   per-peer ordered framed connections with reconnect-on-drop and
//!   bounded outbound queues sized to keep a primary's whole
//!   `out_of_order_window` pipeline in flight.
//! * [`node`] — the `rcc-node` runner: a thread-free [`node::NodeCore`]
//!   that owns one [`rcc_core::RccReplica`], verifies/authenticates at the
//!   frame boundary, fires timers through the `TimerId` seam and sends every
//!   released batch's digest back to its submitting client (`f + 1`
//!   matching replies, §III-A), hosted by a mailbox thread and its clock.
//! * [`fleet`] — the client driver: `rcc_workload::DriverSession`s swept
//!   over nonblocking sockets or an in-process channel, one session or
//!   thousands per thread.
//! * [`cluster`] — launch an n-replica localhost cluster (either
//!   transport) with a client fleet, optionally kill-and-restart a
//!   replica mid-run, and verify identical release orders across the
//!   survivors; [`config`] — the TOML-ish deployment
//!   file the `rcc-node` binary reads.
//!
//! The binary target (`cargo run -p rcc-network --bin rcc-node`) exposes
//! all of this as `cluster` / `replica` / `client` subcommands; see
//! `README.md` ("Run a localhost cluster") and `docs/ARCHITECTURE.md` for
//! the frame diagram and thread model.

#![warn(missing_docs)]
// Deployment path: bytes from a peer must not be able to panic it (docs/LINTS.md).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable, clippy::todo))]
#![cfg_attr(not(test), deny(clippy::unimplemented, clippy::disallowed_macros))]

pub mod cluster;
pub mod config;
pub mod event_loop;
pub mod fleet;
pub mod frame;
pub mod mangle;
pub mod node;
pub mod run;
pub mod tcp;
pub mod telemetry;
pub mod transport;

pub use cluster::{run_local_cluster, ClusterOutcome, ClusterPlan, RestartPlan, TransportKind};
pub use config::{parse_deployment, DeploymentFile};
pub use event_loop::{ClientEdge, EdgeConfig, NbConn, DEFAULT_IO_THREADS, DEFAULT_MAX_CLIENTS};
pub use fleet::{run_fleet, Endpoints, FleetPlan};
pub use frame::{Frame, PeerKind, MAX_FRAME_BYTES, WIRE_VERSION};
pub use mangle::{ByteMangler, MangleConfig, MangleStats, MangledTransport};
pub use node::{
    spawn_node, verify_identical_ledgers, verify_identical_orders, NodeConfig, NodeCore, NodeError,
    NodeHandle, NodeReport, DEFAULT_EXECUTION_WORKERS,
};
pub use tcp::TcpTransport;
pub use telemetry::{EdgeTelemetry, NodeTelemetry, EDGE_FLIGHT_CAPACITY, NODE_FLIGHT_CAPACITY};
pub use transport::{queue_capacity, ClientChannel, InProcessNetwork, Transport, TransportStats};

/// Locks `mutex`, recovering the guard when a previous holder panicked.
///
/// Every mutex in this crate protects a plain registry (peer senders,
/// client reply routes, the mangler's RNG state) whose individual updates
/// are single inserts or removals — there is no multi-step invariant a
/// mid-update panic could have torn. Recovering from poison therefore
/// keeps the transport delivering frames, which strictly dominates the
/// alternative of cascading one thread's panic into every thread that
/// subsequently touches the registry.
pub(crate) fn lock_unpoisoned<T>(mutex: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}
