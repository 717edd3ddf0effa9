//! Discrete-event simulator for RCC deployments.
//!
//! The performance-accurate counterpart of the test-oriented
//! `rcc_protocols::harness::Cluster`: it reproduces the *shape* of the
//! paper's large-scale experiments (Fig. 7/8: up to 91 replicas, global
//! deployments) without real hardware by simulating virtual time:
//!
//! * [`sim`] — the event loop: a virtual-time queue over
//!   [`rcc_common::Time`] driving any
//!   [`rcc_protocols::bca::ByzantineCommitAlgorithm`] (including
//!   [`rcc_core::RccReplica`]), with explicit client nodes (closed-loop
//!   saturated or open-loop, an [`rcc_workload::ClientMode`]) assigned to
//!   instances by the Section III-E policy, and CPU accounting per replica.
//!   Its private `inject` module applies faults: scripted ones, the
//!   adaptive adversary's (as the same [`FaultKind`]s) and per-message wire
//!   chaos. Outside the constructor it is the only writer of a replica's
//!   fault state.
//! * [`network`] — per-link latency/bandwidth models with the paper's LAN
//!   and multi-region WAN settings.
//! * [`cpu`] — non-crypto CPU costs and the sequential-consensus /
//!   parallel-verification split; crypto costs come from
//!   [`rcc_crypto::CryptoCostModel`], so signature-vs-MAC trade-offs (Fig. 7
//!   right) are measurable.
//! * [`fault`] — seed-replayable fault scripts: crashes, partitions (two-
//!   and one-way), Byzantine silent primaries, the Section-IV throttling
//!   attack, clock skew, slowloris links, and wire-level chaos.
//! * [`metrics`] — the virtual-time bucketed throughput series (Fig. 10
//!   timelines, windowed throughput) — the one quantity a telemetry
//!   registry cannot hold; everything else is measured in [`telemetry`].
//! * [`adversary`] — the adaptive coordinator-hunting adversary: observes
//!   [`rcc_common::InstanceStatus`] and concentrates its `f` corruptions on
//!   whichever replica coordinates the most instances, re-acquiring after
//!   every view change.
//!
//! Everything is deterministic: the same [`SimConfig`] produces a
//! bit-identical event trace (witnessed by [`SimReport::trace_fingerprint`])
//! and identical metrics. The campaign runner in `rcc-bench` sweeps
//! experiment matrices over this simulator; `docs/EVALUATION.md` explains
//! how the outputs map back to the paper's figures.

#![warn(missing_docs)]
// Deterministic layer: no hash collections, no clocks (docs/LINTS.md).
#![deny(clippy::disallowed_types)]

pub mod adversary;
pub mod cpu;
pub mod fault;
pub mod metrics;
pub mod network;
pub mod sim;
pub mod telemetry;

pub use adversary::{AdversaryAttack, AdversaryPolicy, AdversarySpec, Retarget};
pub use cpu::CpuModel;
pub use fault::{FaultEvent, FaultKind, FaultScript};
pub use metrics::ThroughputMeter;
pub use network::{LinkParams, NetworkModel};
pub use sim::{SimConfig, SimReport, Simulation};
pub use telemetry::{SimTelemetry, SIM_FLIGHT_CAPACITY};

use rcc_common::{Digest, Round};
use rcc_core::RccOverPbft;
use rcc_protocols::pbft::Pbft;
use std::collections::BTreeMap;

/// Simulates RCC running `config.system.instances` concurrent PBFT instances
/// — the configuration the paper evaluates as "RCC".
///
/// As an end-to-end safety check, the final execution orders of all replicas
/// are verified to be consistent on every *retained* round: replicas may
/// trail (crashed or partitioned ones legitimately do) and §III-D
/// checkpointing prunes each replica's window independently, but any round
/// retained by two replicas must carry identical batch digests in identical
/// execution order. Rounds below a replica's stable checkpoint are certified
/// instead by the `f + 1`-matching checkpoint digests the run exchanged.
///
/// # Panics
///
/// Panics when two replicas released divergent orders for the same round,
/// which would mean a consensus-safety violation in the protocol stack.
pub fn simulate_rcc_over_pbft(config: SimConfig) -> SimReport {
    let system = config.system.clone();
    let (report, nodes) = Simulation::new(config, |replica| {
        RccOverPbft::over_pbft(system.clone(), replica)
    })
    .run_full();
    let mut canonical: BTreeMap<Round, (usize, Vec<Digest>)> = BTreeMap::new();
    for (replica, node) in nodes.iter().enumerate() {
        for released in node.execution_log() {
            let digests: Vec<Digest> = released.batches.iter().map(|b| b.digest).collect();
            match canonical.entry(released.round) {
                std::collections::btree_map::Entry::Occupied(entry) => {
                    let (first_seen_by, reference) = entry.get();
                    assert!(
                        reference == &digests,
                        "SAFETY VIOLATION: replicas {first_seen_by} and {replica} \
                         released different execution orders for round {}",
                        released.round,
                    );
                }
                std::collections::btree_map::Entry::Vacant(entry) => {
                    entry.insert((replica, digests));
                }
            }
        }
    }
    report
}

/// Simulates the standalone PBFT baseline (a single primary-backup instance
/// with out-of-order processing, as in the paper's comparisons).
pub fn simulate_pbft(config: SimConfig) -> SimReport {
    let system = config.system.clone();
    Simulation::new(config, |replica| Pbft::standalone(system.clone(), replica)).run()
}
