//! The batch-verification stage of the staged pipeline.
//!
//! [`VerifyPool`] checks a burst of inbound frames and hands the verdicts
//! back **in arrival order**, so the protocol observes exactly the sequence
//! it would have seen verifying one frame at a time. Where the checks run
//! depends on what a check costs, and that is decided by the
//! [`CryptoMode`], never by an option:
//!
//! * `None` and `Mac` bursts verify on the calling thread (the node's
//!   mailbox thread). Since the SHA-NI kernel a vote's HMAC costs 0.23 µs;
//!   32 of them through the pool measured 42.2 µs (one wake-and-join)
//!   against 32 × 0.233 ≈ 7.5 µs inline, and twelve alternating 24 s
//!   benchmark pairs could not tell the two apart end to end
//!   (`docs/EVALUATION.md`, "MAC bursts stay on the mailbox thread").
//! * `PublicKey` bursts fan out to the shared [`rcc_common::WorkerPool`]:
//!   [`WorkerPool::run_ordered`] wakes one runner per *worker* it can use,
//!   not one per check, and the calling thread verifies alongside them. A
//!   real ED25519 check costs 50–100 µs, which is what a hand-off is for.
//!   The offline `ed25519-dalek` stand-in is two SHA-256 passes, so today
//!   even this mode does not pay for the hand-off; it is kept for the real
//!   crate (ROADMAP "Carried debt") and CI's pk smoke keeps it exercised.

// Deployment path: bytes from a peer must not be able to panic it (docs/LINTS.md).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable, clippy::todo))]
#![cfg_attr(not(test), deny(clippy::unimplemented, clippy::disallowed_macros))]

use crate::authenticator::{AuthTag, Authenticator};
use rcc_common::{ClientId, CryptoMode, ReplicaId, WorkerPool};
use std::sync::Arc;

/// Who claims to have produced an inbound payload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VerifySource {
    /// A replica-to-replica consensus frame.
    Replica(ReplicaId),
    /// A client submission.
    Client(ClientId),
}

/// One authentication check: a payload, its tag, and the claimed source.
#[derive(Clone, Debug)]
pub struct VerifyJob {
    /// The claimed producer of the payload.
    pub source: VerifySource,
    /// The authenticated bytes.
    pub payload: Vec<u8>,
    /// The tag that came with them.
    pub tag: AuthTag,
}

/// Verifies bursts of [`VerifyJob`]s in arrival order: on the calling thread
/// for `None` and `Mac`, shared with a worker pool for `PublicKey`.
pub struct VerifyPool {
    auth: Arc<Authenticator>,
    pool: Arc<WorkerPool>,
}

/// Runs one job's check and pairs the job with its verdict.
fn check(auth: &Authenticator, job: VerifyJob) -> (VerifyJob, bool) {
    #[cfg(test)]
    tests::note_checking_thread(auth);
    let ok = match job.source {
        VerifySource::Replica(from) => auth
            .verify_from_replica(from, &job.payload, &job.tag)
            .is_ok(),
        VerifySource::Client(client) => auth
            .verify_from_client(client, &job.payload, &job.tag)
            .is_ok(),
    };
    (job, ok)
}

impl VerifyPool {
    /// Builds the stage over an existing pool (the execute stage shares it).
    pub fn new(auth: Authenticator, pool: Arc<WorkerPool>) -> Self {
        VerifyPool {
            auth: Arc::new(auth),
            pool,
        }
    }

    /// The authenticator driving the checks.
    pub fn authenticator(&self) -> &Authenticator {
        &self.auth
    }

    /// Verifies a burst of jobs and returns `(job, verdict)` pairs in the
    /// order the jobs were submitted (arrival order at the mailbox).
    ///
    /// Only `PublicKey` bursts are shared with the pool; a `None` or `Mac`
    /// check is cheaper than the hand-off (see the module docs).
    pub fn verify_batch(&self, jobs: Vec<VerifyJob>) -> Vec<(VerifyJob, bool)> {
        if self.auth.mode() != CryptoMode::PublicKey {
            return jobs.into_iter().map(|job| check(&self.auth, job)).collect();
        }
        let tasks: Vec<_> = jobs
            .into_iter()
            .map(|job| {
                let auth = Arc::clone(&self.auth);
                move || check(&auth, job)
            })
            .collect();
        self.pool.run_ordered(tasks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::DeploymentKeys;
    use rcc_common::SystemConfig;
    use std::collections::HashSet;
    use std::sync::Mutex;
    use std::thread::{self, ThreadId};

    /// Which thread ran each check, keyed by the authenticator it ran
    /// against (one per test, so tests running side by side do not mix).
    static CHECKED_ON: Mutex<Vec<(usize, ThreadId)>> = Mutex::new(Vec::new());

    fn probe_key(auth: &Authenticator) -> usize {
        auth as *const Authenticator as usize
    }

    /// The probe `check` calls under `#[cfg(test)]`.
    pub(super) fn note_checking_thread(auth: &Authenticator) {
        CHECKED_ON
            .lock()
            .expect("probe lock")
            .push((probe_key(auth), thread::current().id()));
    }

    /// Verifies 64 correctly tagged 256 kB frames (long enough checks that
    /// woken helpers find work left) and returns the threads that checked.
    fn threads_checking_a_burst(mode: CryptoMode) -> HashSet<ThreadId> {
        let (pool, keys) = pool_for(mode);
        let payload = vec![0x5A; 256 * 1024];
        let jobs = vec![replica_job(&keys, mode, 1, &payload); 64];
        // An earlier test's authenticator may have lived at this address.
        let key = probe_key(pool.authenticator());
        CHECKED_ON
            .lock()
            .expect("probe lock")
            .retain(|(auth, _)| *auth != key);
        assert!(pool.verify_batch(jobs).iter().all(|(_, ok)| *ok));
        let probe = CHECKED_ON.lock().expect("probe lock");
        let mine: Vec<ThreadId> = probe
            .iter()
            .filter(|(auth, _)| *auth == key)
            .map(|(_, thread)| *thread)
            .collect();
        assert_eq!(mine.len(), 64, "one probe entry per check");
        mine.into_iter().collect()
    }

    fn pool_for(mode: CryptoMode) -> (VerifyPool, DeploymentKeys) {
        let system = SystemConfig::new(4).with_crypto(mode);
        let keys = DeploymentKeys::generate(&system);
        let auth = Authenticator::new(mode, keys.replica_keys(ReplicaId(0)));
        let workers = Arc::new(WorkerPool::new(4));
        (VerifyPool::new(auth, workers), keys)
    }

    fn replica_job(
        keys: &DeploymentKeys,
        mode: CryptoMode,
        from: u32,
        payload: &[u8],
    ) -> VerifyJob {
        let sender = Authenticator::new(mode, keys.replica_keys(ReplicaId(from)));
        VerifyJob {
            source: VerifySource::Replica(ReplicaId(from)),
            payload: payload.to_vec(),
            tag: sender.tag_for_replica(ReplicaId(0), payload),
        }
    }

    #[test]
    fn verdicts_come_back_in_arrival_order() {
        let mode = CryptoMode::PublicKey;
        let (pool, keys) = pool_for(mode);
        let mut jobs = Vec::new();
        for i in 0..24u32 {
            let payload = vec![i as u8; 8 + (i as usize % 5)];
            let mut job = replica_job(&keys, mode, 1 + (i % 3), &payload);
            if i % 4 == 0 {
                // Corrupt every fourth payload after tagging.
                job.payload[0] ^= 0xFF;
            }
            jobs.push(job);
        }
        let verdicts = pool.verify_batch(jobs.clone());
        assert_eq!(verdicts.len(), jobs.len());
        for (i, ((job, ok), original)) in verdicts.iter().zip(&jobs).enumerate() {
            assert_eq!(job.payload, original.payload, "order preserved at {i}");
            assert_eq!(*ok, i % 4 != 0, "verdict at {i}");
        }
    }

    #[test]
    fn a_mac_burst_never_leaves_the_calling_thread() {
        let ran_on = threads_checking_a_burst(CryptoMode::Mac);
        assert_eq!(ran_on, HashSet::from([thread::current().id()]));
    }

    #[test]
    fn a_signature_burst_is_shared_with_the_pool() {
        let ran_on = threads_checking_a_burst(CryptoMode::PublicKey);
        assert!(ran_on.contains(&thread::current().id()));
        assert!(ran_on.len() > 1, "no pool worker took a check: {ran_on:?}");
    }

    #[test]
    fn signature_mode_verifies_on_the_pool() {
        let mode = CryptoMode::PublicKey;
        let (pool, keys) = pool_for(mode);
        let jobs: Vec<_> = (0..8u32)
            .map(|i| replica_job(&keys, mode, 1, format!("payload-{i}").as_bytes()))
            .collect();
        let verdicts = pool.verify_batch(jobs);
        assert!(verdicts.iter().all(|(_, ok)| *ok));
    }

    #[test]
    fn mode_none_accepts_inline() {
        let (pool, _keys) = pool_for(CryptoMode::None);
        let job = VerifyJob {
            source: VerifySource::Replica(ReplicaId(2)),
            payload: b"anything".to_vec(),
            tag: AuthTag::None,
        };
        let verdicts = pool.verify_batch(vec![job.clone(), job]);
        assert!(verdicts.iter().all(|(_, ok)| *ok));
    }
}
