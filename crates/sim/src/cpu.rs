//! The per-replica CPU cost model.
//!
//! Cryptographic costs come from [`rcc_crypto::CryptoCostModel`]; this module
//! adds the non-crypto costs of running a replica and decides what runs
//! sequentially on the consensus path versus what is spread over the cores.
//!
//! The model follows ResilientDB's architecture (Section II of the paper):
//! consensus message handling is a sequential pipeline (message parsing,
//! protocol state updates, and per-message authentication happen on the
//! consensus path), while batch verification of client signatures and
//! transaction execution are spread over the replica's 16 cores. That width
//! is a constant, not a knob: no measured deployment backs any other value
//! (`docs/EVALUATION.md`, "Why there is no worker sweep").

use rcc_common::Duration;

/// Cores of one of the paper's replicas, all of them given to batch
/// verification and execution.
const WORKER_CORES: u32 = 16;

/// Non-crypto CPU costs of one replica.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CpuModel {
    /// Sequential cost of ingesting any message (parsing, dispatch, protocol
    /// bookkeeping).
    pub message_overhead: Duration,
    /// Additional sequential cost of handling a proposal (batch bookkeeping,
    /// ordering).
    pub proposal_overhead: Duration,
    /// Cost of executing one client transaction once its batch commits.
    /// Charged through [`CpuModel::worker_share`].
    pub execute_per_transaction: Duration,
}

impl Default for CpuModel {
    fn default() -> Self {
        CpuModel {
            message_overhead: Duration::from_micros(2),
            proposal_overhead: Duration::from_micros(10),
            execute_per_transaction: Duration::from_nanos(500),
        }
    }
}

impl CpuModel {
    /// Spreads `work` across the replica's cores: the time one batched
    /// verify or execute job occupies the worker lane, which runs on its own
    /// timeline next to the sequential consensus path.
    pub fn worker_share(&self, work: Duration) -> Duration {
        work.mul_f64(1.0 / WORKER_CORES as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_share_divides_by_pool_width() {
        assert_eq!(
            CpuModel::default().worker_share(Duration::from_micros(1600)),
            Duration::from_micros(100)
        );
    }
}
