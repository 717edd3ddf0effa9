//! The client side of an RCC deployment: workload generation, client models,
//! and the Section III-E client-to-instance assignment policy.
//!
//! * [`ycsb`] — the deterministic YCSB-style generator of the Blockbench
//!   macro benchmark the paper evaluates with (Section V-A): a 500 k-record
//!   key space, 90 % writes, batches of
//!   [`rcc_common::SystemConfig::batch_size`] transactions, seeded per
//!   workload stream so runs are bit-reproducible.
//! * [`client`] — client nodes: **closed-loop** clients that keep at most a
//!   window of batches in flight and wait for `f + 1` *matching* replies per
//!   batch, and **open-loop** clients that submit on a fixed interval
//!   regardless of replies.
//! * [`session`] — the deployed-driver face of the same policy: a sans-io
//!   [`DriverSession`] that wraps one closed-loop client with candidate
//!   rotation, reply age-out, drain/probe failover, and connection-level
//!   admission rejects, clocked in caller-supplied milliseconds so the
//!   multiplexed fleet driver in `rcc-network` and a test can step it
//!   without a wall clock.
//! * [`assignment`] — the [`InstanceAssignment`] policy: each client is homed
//!   on one consensus instance, drains off it when the instance enters a view
//!   change, and hands back only after the replacement coordinator has
//!   demonstrated σ rounds of progress (the paper's σ-spaced hand-offs,
//!   Section III-E). This is what restores throughput after a coordinator
//!   crash instead of leaving the recovered instance on catch-up no-ops
//!   forever.
//!
//! The crate is sans-io and deterministic: replicas expose
//! [`rcc_common::InstanceStatus`] observations, the policy maps clients to
//! instances, and the embedding — the discrete-event simulator in
//! `rcc-sim`, or the deployed client drivers in `rcc-network` — moves the
//! batches. Deployed clients identify as `ClientId(stream)`; replicas
//! recover the stream from a batch's requests via [`stream_of_client`] to
//! route replies.

#![warn(missing_docs)]

pub mod assignment;
pub mod client;
pub mod session;
pub mod ycsb;

pub use assignment::{Handoff, InstanceAssignment};
pub use client::{Client, ClientMode, ReplyOutcome};
pub use session::{DriverSession, SessionStats, SubmitAction};
pub use ycsb::{stream_of_client, YcsbGenerator};
