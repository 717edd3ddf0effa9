//! The benchmark's own client session: submit → `ClientAccept` → `f + 1`
//! matching, MAC-verified `ClientReply`s.
//!
//! Sans-io and clocked in caller-supplied nanoseconds, so the due-time
//! accounting is unit-tested without a cluster. It is deliberately less
//! than `rcc_workload::DriverSession`: no rotation, no failover, no probes —
//! the benchmark's workloads are fault-free, and batch *content* is a
//! workload dimension that `DriverSession` hard-wires.

use crate::workload::{Arrival, BatchSource};
use rcc_common::{Batch, Digest, ReplicaId};
use rcc_crypto::digest_batch;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// A batch unconfirmed this long after it was sent has failed.
pub const REPLY_TIMEOUT_NS: u64 = 2_000_000_000;
/// An open-loop session with this many batches unconfirmed drops the next
/// due batch instead of sending it (the client edge stops reading a
/// connection at the same depth, so sending would only queue it unseen).
pub const MAX_UNCONFIRMED: usize = 64;

/// A coordinator that turns a submission away gets it again this much later.
pub const RETRY_AFTER_NS: u64 = 5_000_000;

/// One batch on its way through the cluster.
#[derive(Clone, Debug)]
struct Inflight {
    /// Kept until the batch is confirmed, in case it must be sent again.
    batch: Batch,
    due_ns: u64,
    sent_ns: u64,
    accept_ns: Option<u64>,
    first_reply_ns: Option<u64>,
    /// Bitmask of replicas whose reply matched.
    replied: u64,
}

/// A batch that collected its reply quorum.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Completion {
    /// When the batch was due: the schedule instant (open loop) or the
    /// instant its window slot freed (closed loop).
    pub due_ns: u64,
    /// When the driver put it on the wire.
    pub sent_ns: u64,
    /// When the coordinator's `ClientAccept` arrived, if it did.
    pub accept_ns: Option<u64>,
    /// When the first matching reply arrived.
    pub first_reply_ns: u64,
    /// When the `f + 1`-th matching reply arrived.
    pub done_ns: u64,
}

/// Why a batch failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Failure {
    /// No reply quorum within [`REPLY_TIMEOUT_NS`] of the send.
    TimedOut,
    /// The link to its coordinator would not take it.
    Unsent,
    /// Open loop: due while [`MAX_UNCONFIRMED`] batches were unconfirmed.
    Dropped,
}

/// A batch handed to the driver for sending.
pub struct Submission {
    /// The batch itself.
    pub batch: Batch,
    /// Its digest, by which replies find it.
    pub digest: Digest,
}

/// One client session, homed on one consensus instance.
pub struct Session {
    source: BatchSource,
    arrival: Arrival,
    quorum: usize,
    inflight: BTreeMap<Digest, Inflight>,
    /// Every digest this session ever submitted: replies keep arriving
    /// after the quorum, and each must still name a batch of this run.
    submitted: BTreeSet<Digest>,
    /// Closed loop: instants at which window slots freed, oldest first.
    free_slots: VecDeque<u64>,
    /// Batches a coordinator turned away, with the instant each is due to
    /// be sent again, oldest first.
    retries: VecDeque<(u64, Digest)>,
    /// Open loop: the next schedule instant.
    next_due_ns: u64,
    /// Batches that collected their quorum, in completion order.
    pub completions: Vec<Completion>,
    /// Due instant and cause of every batch that failed.
    pub failures: Vec<(u64, Failure)>,
    /// Verified replies naming a digest this session never submitted.
    pub foreign_replies: u64,
    /// `ClientReject`s received: submissions a coordinator had no proposal
    /// capacity for (it was behind on its own commits) and that were sent
    /// again.
    pub rejections: u64,
}

impl Session {
    /// A session that starts its schedule (or fills its window) at
    /// `start_ns`. `quorum` is `f + 1`.
    pub fn new(source: BatchSource, arrival: Arrival, quorum: usize, start_ns: u64) -> Session {
        let free_slots = match arrival {
            Arrival::Closed { window } => std::iter::repeat_n(start_ns, window).collect(),
            Arrival::Open { .. } => VecDeque::new(),
        };
        Session {
            source,
            arrival,
            quorum,
            inflight: BTreeMap::new(),
            submitted: BTreeSet::new(),
            free_slots,
            retries: VecDeque::new(),
            next_due_ns: start_ns,
            completions: Vec::new(),
            failures: Vec::new(),
            foreign_replies: 0,
            rejections: 0,
        }
    }

    /// The next batch to put on the wire at `now_ns`, if one is due. Call
    /// until it returns `None`.
    pub fn next_submission(&mut self, now_ns: u64) -> Option<Submission> {
        while self.retries.front().is_some_and(|&(at, _)| at <= now_ns) {
            let (_, digest) = self.retries.pop_front()?;
            // Unless it timed out in the meantime, the same batch goes out
            // again; its latency keeps running from the first send.
            if let Some(entry) = self.inflight.get(&digest) {
                let batch = entry.batch.clone();
                return Some(Submission { batch, digest });
            }
        }
        let due_ns = match self.arrival {
            Arrival::Closed { .. } => self.free_slots.pop_front()?,
            Arrival::Open { interval_ns } => loop {
                if self.next_due_ns > now_ns {
                    return None;
                }
                let due = self.next_due_ns;
                self.next_due_ns += interval_ns;
                if self.inflight.len() < MAX_UNCONFIRMED {
                    break due;
                }
                // The schedule moves on whether or not the batch was sent:
                // an open loop does not slow down for a slow system.
                self.failures.push((due, Failure::Dropped));
            },
        };
        let batch = self.source.next_batch();
        let digest = digest_batch(&batch);
        self.submitted.insert(digest);
        self.inflight.insert(
            digest,
            Inflight {
                batch: batch.clone(),
                due_ns,
                sent_ns: now_ns,
                accept_ns: None,
                first_reply_ns: None,
                replied: 0,
            },
        );
        Some(Submission { batch, digest })
    }

    /// When the session next has something to send without any reply
    /// arriving: the next schedule instant (open loop) or the next retry.
    pub fn next_due_ns(&self) -> Option<u64> {
        let scheduled = match self.arrival {
            Arrival::Open { .. } => Some(self.next_due_ns),
            Arrival::Closed { .. } => None,
        };
        let retry = self.retries.front().map(|&(at, _)| at);
        scheduled.into_iter().chain(retry).min()
    }

    /// Batches sent and not yet confirmed or failed.
    pub fn unconfirmed(&self) -> usize {
        self.inflight.len()
    }

    /// The coordinator accepted `digest` into its pipeline.
    pub fn on_accept(&mut self, now_ns: u64, digest: Digest) {
        if let Some(entry) = self.inflight.get_mut(&digest) {
            entry.accept_ns.get_or_insert(now_ns);
        }
    }

    /// A reply whose tag already verified. Returns `true` when it completed
    /// the batch's quorum.
    pub fn on_reply(&mut self, now_ns: u64, replica: ReplicaId, digest: Digest) -> bool {
        let Some(entry) = self.inflight.get_mut(&digest) else {
            if !self.submitted.contains(&digest) {
                self.foreign_replies += 1;
            }
            return false;
        };
        entry.replied |= 1 << replica.0;
        let first_reply_ns = *entry.first_reply_ns.get_or_insert(now_ns);
        if (entry.replied.count_ones() as usize) < self.quorum {
            return false;
        }
        let done = Completion {
            due_ns: entry.due_ns,
            sent_ns: entry.sent_ns,
            accept_ns: entry.accept_ns,
            first_reply_ns,
            done_ns: now_ns,
        };
        self.completions.push(done);
        self.release(now_ns, digest);
        true
    }

    /// The coordinator turned `digest` away: it had no proposal capacity
    /// left. That is back-pressure, not an outcome — the transactions still
    /// have to run — so the batch is queued to be sent again and fails only
    /// if that takes it past the reply timeout.
    pub fn on_reject(&mut self, now_ns: u64, digest: Digest) {
        if self.inflight.contains_key(&digest) {
            self.rejections += 1;
            self.retries.push_back((now_ns + RETRY_AFTER_NS, digest));
        }
    }

    /// `digest` failed for `why`; its window slot frees.
    pub fn fail(&mut self, now_ns: u64, digest: Digest, why: Failure) {
        if let Some(entry) = self.inflight.get(&digest) {
            self.failures.push((entry.due_ns, why));
            self.release(now_ns, digest);
        }
    }

    /// Fails every batch sent more than [`REPLY_TIMEOUT_NS`] ago.
    pub fn expire(&mut self, now_ns: u64) {
        let expired: Vec<Digest> = self
            .inflight
            .iter()
            .filter(|(_, entry)| entry.sent_ns + REPLY_TIMEOUT_NS <= now_ns)
            .map(|(digest, _)| *digest)
            .collect();
        for digest in expired {
            self.fail(now_ns, digest, Failure::TimedOut);
        }
    }

    fn release(&mut self, now_ns: u64, digest: Digest) {
        self.inflight.remove(&digest);
        if let Arrival::Closed { .. } = self.arrival {
            self.free_slots.push_back(now_ns);
        }
    }
}

impl Completion {
    /// The instant the client's wait is charged from: the due instant on
    /// an open loop (so a stall charges the batches queued behind it), the
    /// send on a closed one.
    pub fn charged_from_ns(&self, arrival: Arrival) -> u64 {
        match arrival {
            Arrival::Open { .. } => self.due_ns,
            Arrival::Closed { .. } => self.sent_ns,
        }
    }

    /// What the client waited for its reply quorum.
    pub fn latency_ns(&self, arrival: Arrival) -> u64 {
        self.done_ns.saturating_sub(self.charged_from_ns(arrival))
    }

    /// How long the batch waited for the driver itself.
    pub fn late_ns(&self) -> u64 {
        self.sent_ns.saturating_sub(self.due_ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{by_name, BatchSource};

    const MS: u64 = 1_000_000;

    fn session(name: &str, start_ns: u64) -> Session {
        let workload = by_name(name).unwrap();
        Session::new(
            BatchSource::new(workload, 1, 0),
            workload.arrival,
            2,
            start_ns,
        )
    }

    #[test]
    fn open_loop_charges_latency_from_the_due_instant() {
        let mut s = session("light", 100 * MS);
        assert!(s.next_submission(99 * MS).is_none(), "nothing due yet");
        let first = s.next_submission(100 * MS).expect("due at start");
        assert!(s.next_submission(100 * MS).is_none(), "one per interval");
        assert_eq!(s.next_due_ns(), Some(120 * MS));

        // The driver stalls until t = 150 ms: the batches due at 120 and 140
        // both go out now, late by 30 and 10 ms, and nothing else.
        let second = s.next_submission(150 * MS).expect("due at 120");
        let third = s.next_submission(150 * MS).expect("due at 140");
        assert!(s.next_submission(150 * MS).is_none());
        assert_eq!(s.next_due_ns(), Some(160 * MS));

        for (digest, at) in [
            (first.digest, 105),
            (second.digest, 155),
            (third.digest, 156),
        ] {
            assert!(!s.on_reply(at * MS, ReplicaId(0), digest));
            assert!(
                !s.on_reply(at * MS, ReplicaId(0), digest),
                "same replica twice"
            );
            assert!(s.on_reply((at + 1) * MS, ReplicaId(3), digest));
        }
        let arrival = by_name("light").unwrap().arrival;
        let lat: Vec<u64> = s
            .completions
            .iter()
            .map(|c| c.latency_ns(arrival))
            .collect();
        let late: Vec<u64> = s.completions.iter().map(Completion::late_ns).collect();
        // Latency runs from the due instant, so the stall is in it.
        assert_eq!(lat, vec![6 * MS, 36 * MS, 17 * MS]);
        assert_eq!(late, vec![0, 30 * MS, 10 * MS]);
        assert_eq!(s.unconfirmed(), 0);
        assert!(s.failures.is_empty());
    }

    #[test]
    fn open_loop_drops_due_batches_past_the_unconfirmed_cap() {
        let mut s = session("light", 0);
        // 70 intervals pass with no reply at all: 64 go out, 6 are dropped,
        // and the schedule still advanced past all 70.
        let mut sent = 0;
        while s.next_submission(69 * 20 * MS).is_some() {
            sent += 1;
        }
        assert_eq!(sent, MAX_UNCONFIRMED);
        assert_eq!(s.failures.len(), 6);
        assert_eq!(s.failures[0], (64 * 20 * MS, Failure::Dropped));
        assert_eq!(s.next_due_ns(), Some(70 * 20 * MS));
    }

    #[test]
    fn closed_loop_refills_a_slot_when_it_frees() {
        let mut s = session("steady", 0);
        let mut digests = Vec::new();
        while let Some(submission) = s.next_submission(MS) {
            digests.push(submission.digest);
        }
        assert_eq!(digests.len(), 8, "the window");
        assert_eq!(s.next_due_ns(), None);

        s.on_accept(2 * MS, digests[0]);
        assert!(!s.on_reply(5 * MS, ReplicaId(1), digests[0]));
        assert!(s.on_reply(7 * MS, ReplicaId(2), digests[0]));
        // Replies past the quorum are expected, not foreign.
        assert!(!s.on_reply(8 * MS, ReplicaId(3), digests[0]));
        assert_eq!(s.foreign_replies, 0);
        assert!(!s.on_reply(8 * MS, ReplicaId(3), Digest::from_bytes([9; 32])));
        assert_eq!(s.foreign_replies, 1);

        let done = s.completions[0];
        assert_eq!(
            (done.accept_ns, done.first_reply_ns, done.done_ns),
            (Some(2 * MS), 5 * MS, 7 * MS)
        );
        let arrival = by_name("steady").unwrap().arrival;
        assert_eq!(
            done.latency_ns(arrival),
            6 * MS,
            "closed loop: from the send"
        );

        // The freed slot is refilled 1 ms after it freed.
        assert!(s.next_submission(8 * MS).is_some());
        assert!(s.next_submission(8 * MS).is_none());
        s.fail(9 * MS, digests[1], Failure::Unsent);
        assert_eq!(s.failures, vec![(0, Failure::Unsent)]);
        assert!(
            s.next_submission(9 * MS).is_some(),
            "a failure frees its slot too"
        );
    }

    #[test]
    fn a_rejected_batch_is_sent_again_and_keeps_its_clock() {
        let mut s = session("steady", 0);
        let first = s.next_submission(MS).expect("window open").digest;
        while s.next_submission(MS).is_some() {}
        s.on_reject(3 * MS, first);
        s.on_reject(3 * MS, Digest::from_bytes([9; 32]));
        assert_eq!(s.rejections, 1, "a reject for an unknown digest is ignored");
        assert_eq!(s.next_due_ns(), Some(3 * MS + RETRY_AFTER_NS));
        assert!(s.next_submission(3 * MS + RETRY_AFTER_NS - 1).is_none());
        let again = s
            .next_submission(3 * MS + RETRY_AFTER_NS)
            .expect("retry due");
        assert_eq!(again.digest, first);
        assert_eq!(s.unconfirmed(), 8, "a retry takes no second window slot");
        assert!(!s.on_reply(20 * MS, ReplicaId(0), first));
        assert!(s.on_reply(21 * MS, ReplicaId(1), first));
        let arrival = by_name("steady").unwrap().arrival;
        assert_eq!(
            s.completions[0].latency_ns(arrival),
            20 * MS,
            "from the first send"
        );
        assert!(s.failures.is_empty());
    }

    #[test]
    fn unanswered_batches_time_out() {
        let mut s = session("steady", 0);
        while s.next_submission(0).is_some() {}
        s.expire(REPLY_TIMEOUT_NS - 1);
        assert!(s.failures.is_empty());
        s.expire(REPLY_TIMEOUT_NS);
        assert!(s.failures.len() == 8 && s.failures.iter().all(|f| f.1 == Failure::TimedOut));
        assert_eq!(s.unconfirmed(), 0);
    }
}
