//! System-wide configuration.
//!
//! A [`SystemConfig`] describes one deployment: the number of replicas `n`,
//! the tolerated faults `f` (with `n > 3f`), batching, the out-of-order
//! pipelining window, RCC-specific knobs (number of concurrent instances,
//! the lag bound `σ`, checkpointing), protocol timeouts, and the
//! authentication mode used for replica-to-replica messages.

use crate::error::{Error, Result};
use crate::ids::ReplicaId;
use crate::time::Duration;
use serde::{Deserialize, Serialize};

/// How messages exchanged between replicas are authenticated.
///
/// Figure 7 (right) of the paper measures PBFT under exactly these three
/// modes: no authentication, ED25519 digital signatures for all messages, and
/// CMAC-AES message authentication codes between replicas (with signatures
/// only on client transactions).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize, Default)]
pub enum CryptoMode {
    /// No message authentication (baseline "None" in Fig. 7).
    None,
    /// Digital signatures on every message ("PK" in Fig. 7).
    PublicKey,
    /// Message authentication codes between replicas, signatures only on
    /// client transactions ("MAC" in Fig. 7). This is the default used by all
    /// throughput experiments.
    #[default]
    Mac,
}

/// Configuration of a single deployment.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub struct SystemConfig {
    /// Total number of replicas `n`.
    pub n: usize,
    /// Number of Byzantine replicas tolerated, `f`, with `n > 3f`.
    pub f: usize,
    /// Number of client transactions grouped into one batch (one consensus
    /// slot). The paper's default is 100.
    pub batch_size: usize,
    /// Maximum number of consensus slots a primary may have in flight at
    /// once (out-of-order processing). `1` disables out-of-order processing
    /// as in Fig. 8 (g)/(h).
    pub out_of_order_window: usize,
    /// Number of concurrent consensus instances `m` used by RCC
    /// (`1 ≤ m ≤ n`). Ignored by the primary-backup baselines.
    pub instances: usize,
    /// The lag bound `σ`: an instance that falls more than `σ` rounds behind
    /// the most advanced instance is considered failed (throttling
    /// detection, Section IV) and client reassignment hand-offs are spaced
    /// `σ` rounds apart (Section III-E).
    pub sigma: u64,
    /// Rounds between periodic checkpoints: replicas snapshot their executed
    /// state at every multiple of this interval, exchange checkpoint votes,
    /// and garbage-collect all per-slot state below the highest checkpoint
    /// with `f + 1` matching votes (Section III-D). RCC additionally
    /// performs dynamic per-need checkpoints when `nf − f` failure claims
    /// arrive for rounds a replica has already finished. Must be at least
    /// 1.
    pub checkpoint_interval: u64,
    /// Timeout after which a replica that has not observed progress from a
    /// primary detects its failure.
    pub failure_detection_timeout: Duration,
    /// Timeout a replica waits for the recovery leader to propose a valid
    /// stop-operation before suspecting the leader itself.
    pub recovery_leader_timeout: Duration,
    /// Message authentication mode for replica-to-replica traffic.
    pub crypto: CryptoMode,
    /// Seed for all deterministic randomness derived from this configuration
    /// (workload generation, key material, simulated jitter and wire
    /// mangling).
    pub seed: u64,
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig::new(4)
    }
}

impl SystemConfig {
    /// Creates a configuration for `n` replicas tolerating the maximum
    /// `f = ⌊(n − 1)/3⌋` faults, with the paper's default parameters.
    pub fn new(n: usize) -> Self {
        let f = if n == 0 { 0 } else { (n - 1) / 3 };
        SystemConfig {
            n,
            f,
            batch_size: 100,
            out_of_order_window: 32,
            instances: n,
            sigma: 16,
            checkpoint_interval: 64,
            failure_detection_timeout: Duration::from_millis(500),
            recovery_leader_timeout: Duration::from_millis(500),
            crypto: CryptoMode::Mac,
            seed: DEFAULT_SEED,
        }
    }

    /// Validates the configuration, returning an error when the resilience
    /// requirement `n > 3f` or other invariants are violated.
    pub fn validate(&self) -> Result<()> {
        if self.n == 0 {
            return Err(Error::InvalidConfig("n must be positive".into()));
        }
        if self.n <= 3 * self.f {
            return Err(Error::InvalidConfig(format!(
                "n must exceed 3f (n = {}, f = {})",
                self.n, self.f
            )));
        }
        if self.instances == 0 || self.instances > self.n {
            return Err(Error::InvalidConfig(format!(
                "instances must satisfy 1 <= m <= n (m = {}, n = {})",
                self.instances, self.n
            )));
        }
        if self.batch_size == 0 {
            return Err(Error::InvalidConfig("batch_size must be positive".into()));
        }
        if self.out_of_order_window == 0 {
            return Err(Error::InvalidConfig(
                "out_of_order_window must be at least 1".into(),
            ));
        }
        if self.sigma == 0 {
            return Err(Error::InvalidConfig("sigma must be at least 1".into()));
        }
        if self.checkpoint_interval == 0 {
            return Err(Error::InvalidConfig(
                "checkpoint_interval must be at least 1".into(),
            ));
        }
        Ok(())
    }

    /// Number of non-faulty replicas `nf = n − f`.
    pub fn nf(&self) -> usize {
        self.n - self.f
    }

    /// Size of a commit quorum: `nf = n − f` matching messages from distinct
    /// replicas guarantee intersection in a non-faulty replica.
    pub fn quorum(&self) -> usize {
        self.nf()
    }

    /// Number of matching messages that guarantees at least one was sent by a
    /// non-faulty replica (`f + 1`).
    pub fn weak_quorum(&self) -> usize {
        self.f + 1
    }

    /// Number of replies a client must collect before accepting an execution
    /// outcome (`f + 1` identical replies).
    pub fn client_reply_quorum(&self) -> usize {
        self.f + 1
    }

    /// Sets the number of concurrent RCC instances (builder style).
    pub fn with_instances(mut self, m: usize) -> Self {
        self.instances = m;
        self
    }

    /// Sets the batch size (builder style).
    pub fn with_batch_size(mut self, batch: usize) -> Self {
        self.batch_size = batch;
        self
    }

    /// Sets the out-of-order window (builder style); `1` disables
    /// out-of-order processing.
    pub fn with_out_of_order_window(mut self, window: usize) -> Self {
        self.out_of_order_window = window;
        self
    }

    /// Sets the message authentication mode (builder style).
    pub fn with_crypto(mut self, crypto: CryptoMode) -> Self {
        self.crypto = crypto;
        self
    }

    /// Sets the periodic checkpoint interval in rounds (builder style).
    pub fn with_checkpoint_interval(mut self, interval: u64) -> Self {
        self.checkpoint_interval = interval;
        self
    }

    /// Sets the deterministic seed (builder style).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Iterator over all replica identifiers in the deployment.
    pub fn replicas(&self) -> impl Iterator<Item = ReplicaId> {
        ReplicaId::all(self.n)
    }
}

/// A stable arbitrary default seed so that configurations are reproducible
/// across runs unless explicitly overridden.
pub const DEFAULT_SEED: u64 = 0x5ecc_2021_1cde_0001;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid_and_uses_paper_defaults() {
        let c = SystemConfig::new(16);
        c.validate().expect("default config must validate");
        assert_eq!(c.f, 5);
        assert_eq!(c.nf(), 11);
        assert_eq!(c.quorum(), 11);
        assert_eq!(c.weak_quorum(), 6);
        assert_eq!(c.batch_size, 100);
        assert_eq!(c.instances, 16);
        assert_eq!(c.crypto, CryptoMode::Mac);
    }

    #[test]
    fn validation_rejects_too_many_faults() {
        let mut c = SystemConfig::new(4);
        c.f = 2; // 4 <= 3*2
        assert!(matches!(c.validate(), Err(Error::InvalidConfig(_))));
    }

    #[test]
    fn validation_rejects_zero_instances_and_oversized_instances() {
        let mut c = SystemConfig::new(4);
        c.instances = 0;
        assert!(c.validate().is_err());
        c.instances = 5;
        assert!(c.validate().is_err());
        c.instances = 3;
        assert!(c.validate().is_ok());
        c.checkpoint_interval = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn builder_methods_override_fields() {
        let c = SystemConfig::new(7)
            .with_instances(3)
            .with_batch_size(400)
            .with_out_of_order_window(1)
            .with_crypto(CryptoMode::PublicKey)
            .with_seed(42);
        assert_eq!(c.instances, 3);
        assert_eq!(c.batch_size, 400);
        assert_eq!(c.out_of_order_window, 1);
        assert_eq!(c.crypto, CryptoMode::PublicKey);
        assert_eq!(c.seed, 42);
        c.validate().unwrap();
    }

    #[test]
    fn quorum_sizes_for_paper_deployments() {
        // n = 4, 16, 32, 64, 91 are the deployment sizes used in Fig. 8.
        for (n, f) in [(4, 1), (16, 5), (32, 10), (64, 21), (91, 30)] {
            let c = SystemConfig::new(n);
            assert_eq!(c.f, f, "f for n = {n}");
            assert!(c.n > 3 * c.f);
        }
    }
}
