//! A calibrated CPU-cost model of the cryptographic primitives.
//!
//! The discrete-event simulator cannot afford to execute real cryptography
//! for every simulated message (a single Fig. 8 sweep simulates tens of
//! millions of messages), so it charges CPU time per operation instead. The
//! defaults are calibrated against the behaviour reported in Fig. 7 (right)
//! of the paper: switching PBFT from MACs to ED25519 signatures reduces
//! throughput by roughly 86 %, while MACs cost about 33 % relative to no
//! authentication, on 16-core replicas. The absolute values correspond to
//! single-core microsecond costs in the same ballpark as HMAC-SHA256 and
//! ED25519 on server CPUs.

use rcc_common::{CryptoMode, Duration};
use serde::{Deserialize, Serialize};

/// The cryptographic operations charged by the simulator.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum CryptoOp {
    /// Hashing a batch or message (per call).
    Digest,
    /// Creating a MAC tag.
    MacCreate,
    /// Verifying a MAC tag.
    MacVerify,
    /// Creating a digital signature.
    SignatureCreate,
    /// Verifying a digital signature.
    SignatureVerify,
}

/// Per-operation CPU costs.
#[derive(Clone, Copy, PartialEq, Debug, Serialize, Deserialize)]
pub struct CryptoCostModel {
    /// Cost of hashing one message or batch.
    pub digest: Duration,
    /// Cost of creating one MAC.
    pub mac_create: Duration,
    /// Cost of verifying one MAC.
    pub mac_verify: Duration,
    /// Cost of creating one signature.
    pub signature_create: Duration,
    /// Cost of verifying one signature.
    pub signature_verify: Duration,
}

impl Default for CryptoCostModel {
    fn default() -> Self {
        CryptoCostModel {
            digest: Duration::from_nanos(600),
            mac_create: Duration::from_nanos(900),
            mac_verify: Duration::from_nanos(900),
            // ED25519: ~20 µs sign, ~55 µs verify on a single Cascade Lake
            // core; the large verify cost is what collapses PBFT throughput
            // by ~86 % in Fig. 7 (right).
            signature_create: Duration::from_micros(21),
            signature_verify: Duration::from_micros(55),
        }
    }
}

impl CryptoCostModel {
    /// A model in which every operation is free; useful for isolating
    /// bandwidth effects in tests.
    pub fn free() -> Self {
        CryptoCostModel {
            digest: Duration::ZERO,
            mac_create: Duration::ZERO,
            mac_verify: Duration::ZERO,
            signature_create: Duration::ZERO,
            signature_verify: Duration::ZERO,
        }
    }

    /// The cost of one operation.
    pub fn cost(&self, op: CryptoOp) -> Duration {
        match op {
            CryptoOp::Digest => self.digest,
            CryptoOp::MacCreate => self.mac_create,
            CryptoOp::MacVerify => self.mac_verify,
            CryptoOp::SignatureCreate => self.signature_create,
            CryptoOp::SignatureVerify => self.signature_verify,
        }
    }

    /// CPU time to *authenticate* one outgoing message under `mode`.
    pub fn outgoing_message_cost(&self, mode: CryptoMode, recipients: usize) -> Duration {
        match mode {
            CryptoMode::None => Duration::ZERO,
            // A MAC must be computed per recipient (pairwise keys).
            CryptoMode::Mac => self.mac_create.saturating_mul(recipients as u64),
            // One signature covers all recipients.
            CryptoMode::PublicKey => self.signature_create,
        }
    }

    /// CPU time to *verify* one incoming message under `mode`.
    pub fn incoming_message_cost(&self, mode: CryptoMode) -> Duration {
        match mode {
            CryptoMode::None => Duration::ZERO,
            CryptoMode::Mac => self.mac_verify,
            CryptoMode::PublicKey => self.signature_verify,
        }
    }

    /// CPU time to verify the client signatures carried by a proposal of
    /// `batch_size` transactions. Client transactions are signed in both the
    /// MAC and public-key modes of Fig. 7 (right) — only the "None" baseline
    /// skips authentication entirely. The simulator divides this cost by the
    /// replica's core count, matching ResilientDB's parallelized batch
    /// verification.
    pub fn batch_verify_cost(&self, mode: CryptoMode, batch_size: usize) -> Duration {
        match mode {
            CryptoMode::None => Duration::ZERO,
            CryptoMode::Mac | CryptoMode::PublicKey => {
                self.signature_verify.saturating_mul(batch_size as u64)
            }
        }
    }

    /// A copy of this model with every cost multiplied by `factor` — a
    /// convenience for deriving cost models of slower or faster hardware
    /// than the default calibration (e.g. single-board replicas at 4× cost).
    /// Note: the simulator's per-replica Section-IV throttling is applied at
    /// charge time (`rcc_sim::FaultKind::Throttle`), not by swapping models.
    pub fn scaled(&self, factor: f64) -> Self {
        CryptoCostModel {
            digest: self.digest.mul_f64(factor),
            mac_create: self.mac_create.mul_f64(factor),
            mac_verify: self.mac_verify.mul_f64(factor),
            signature_create: self.signature_create.mul_f64(factor),
            signature_verify: self.signature_verify.mul_f64(factor),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_model_orders_primitives_realistically() {
        let m = CryptoCostModel::default();
        assert!(m.mac_create < m.signature_create);
        assert!(m.mac_verify < m.signature_verify);
        assert!(m.digest < m.mac_create);
    }

    #[test]
    fn outgoing_cost_reflects_mode() {
        let m = CryptoCostModel::default();
        assert_eq!(
            m.outgoing_message_cost(CryptoMode::None, 10),
            Duration::ZERO
        );
        assert_eq!(
            m.outgoing_message_cost(CryptoMode::Mac, 10),
            m.mac_create.saturating_mul(10)
        );
        // A signature amortizes over all recipients.
        assert_eq!(
            m.outgoing_message_cost(CryptoMode::PublicKey, 10),
            m.signature_create
        );
        assert!(
            m.outgoing_message_cost(CryptoMode::PublicKey, 90)
                > m.outgoing_message_cost(CryptoMode::Mac, 1)
        );
    }

    #[test]
    fn batch_verify_cost_follows_mode() {
        let m = CryptoCostModel::default();
        assert_eq!(m.batch_verify_cost(CryptoMode::None, 100), Duration::ZERO);
        assert_eq!(
            m.batch_verify_cost(CryptoMode::Mac, 100),
            m.signature_verify.saturating_mul(100)
        );
        assert_eq!(
            m.batch_verify_cost(CryptoMode::Mac, 100),
            m.batch_verify_cost(CryptoMode::PublicKey, 100),
            "client signatures are checked in both authenticated modes"
        );
    }

    #[test]
    fn scaled_model_multiplies_every_cost() {
        let m = CryptoCostModel::default().scaled(3.0);
        let base = CryptoCostModel::default();
        assert_eq!(m.mac_verify, base.mac_verify.mul_f64(3.0));
        assert_eq!(m.signature_verify, base.signature_verify.mul_f64(3.0));
        assert_eq!(m.digest, base.digest.mul_f64(3.0));
    }

    #[test]
    fn free_model_is_zero_cost() {
        let m = CryptoCostModel::free();
        for op in [
            CryptoOp::Digest,
            CryptoOp::MacCreate,
            CryptoOp::SignatureVerify,
            CryptoOp::SignatureCreate,
        ] {
            assert_eq!(m.cost(op), Duration::ZERO);
        }
    }

    #[test]
    fn cost_lookup_matches_fields() {
        let m = CryptoCostModel::default();
        assert_eq!(m.cost(CryptoOp::MacVerify), m.mac_verify);
        assert_eq!(m.cost(CryptoOp::SignatureCreate), m.signature_create);
        assert_eq!(m.cost(CryptoOp::Digest), m.digest);
    }
}
