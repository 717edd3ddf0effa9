//! The batch-verification stage of the staged pipeline.
//!
//! The deployed node's mailbox thread used to authenticate every inbound
//! frame inline, which put the whole crypto bill (the Fig. 7-right
//! bottleneck) on the sequential consensus path. [`VerifyPool`] fans a burst
//! of authentication checks out to a shared [`rcc_common::WorkerPool`] and
//! hands the verdicts back **in arrival order**, so the protocol observes
//! exactly the sequence it would have seen with inline verification — only
//! the wall-clock cost changes.
//!
//! A vote's MAC takes about a microsecond, far less than waking a thread, so
//! what a burst costs is decided by how it is handed off:
//! [`WorkerPool::run_ordered`] wakes one runner per *worker* it can use, not
//! one per check, and the mailbox thread verifies alongside them. A burst of
//! one frame never leaves the mailbox thread.

use crate::authenticator::{AuthTag, Authenticator};
use rcc_common::{ClientId, ReplicaId, WorkerPool};
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

/// Fans batches of [`VerifyJob`]s out to a worker pool, preserving order.
pub struct VerifyPool {
    auth: Arc<Authenticator>,
    pool: Arc<WorkerPool>,
}

fn check(auth: &Authenticator, job: &VerifyJob) -> bool {
    match job.source {
        VerifySource::Replica(from) => auth
            .verify_from_replica(from, &job.payload, &job.tag)
            .is_ok(),
        VerifySource::Client(client) => auth
            .verify_from_client(client, &job.payload, &job.tag)
            .is_ok(),
    }
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
    /// Mode `None` tags verify inline: there is no check to share out.
    pub fn verify_batch(&self, jobs: Vec<VerifyJob>) -> Vec<(VerifyJob, bool)> {
        if self.auth.mode() == rcc_common::CryptoMode::None {
            return jobs
                .into_iter()
                .map(|job| {
                    let ok = check(&self.auth, &job);
                    (job, ok)
                })
                .collect();
        }
        let tasks: Vec<_> = jobs
            .into_iter()
            .map(|job| {
                let auth = Arc::clone(&self.auth);
                move || {
                    let ok = check(&auth, &job);
                    (job, ok)
                }
            })
            .collect();
        self.pool.run_ordered(tasks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::DeploymentKeys;
    use rcc_common::{CryptoMode, SystemConfig};

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
        let mode = CryptoMode::Mac;
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
