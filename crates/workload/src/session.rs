//! Sans-io driver session: the §III-E client policy as a state machine.
//!
//! [`DriverSession`] wraps one closed-loop [`Client`] with everything a
//! deployed driver needs beyond reply counting: the per-instance believed
//! coordinator (rotated when a candidate proves unresponsive or rejects),
//! reply age-out, the drain-to-fallback / probe-home-later dance of
//! Section III-E, and connection-level admission rejects (a saturated
//! replica turning the whole connection away, which must fail the session
//! over to another replica rather than hang it).
//!
//! The session is sans-io and clocked in caller-supplied milliseconds, so
//! the same policy drives three embeddings without divergence:
//!
//! * the thread-per-client driver in `rcc-network`'s cluster harness,
//! * the fan-out fleet driver multiplexing thousands of sessions over a
//!   few nonblocking I/O threads, and
//! * deterministic unit tests (no wall clock, no sockets).
//!
//! Protocol recap, mirrored from the paper: batches that draw no reply
//! within the reply timeout are abandoned and the instance's candidate
//! coordinator rotates (PBFT view rotation is `base + view mod n`, so
//! rotation finds the live coordinator). After enough consecutive age-out
//! rounds on the *home* instance the session drains to the neighbouring
//! instance — keeping the deployment's frontier moving, which is what trips
//! the replicas' σ-lag detection — and probes home periodically until the
//! replacement coordinator serves it again.

// Deployment path: bytes from a peer must not be able to panic it (docs/LINTS.md).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable, clippy::todo))]
#![cfg_attr(not(test), deny(clippy::unimplemented, clippy::disallowed_macros))]

use crate::client::{Client, ClientMode, ReplyOutcome};
use rcc_common::{Batch, Digest, InstanceId, ReplicaId, SystemConfig, Time};
use rcc_telemetry::LocalHistogram;

/// How long a submitted batch may go without a reply before the session
/// abandons it and rotates coordinator candidates, in milliseconds of the
/// caller's clock.
const REPLY_TIMEOUT_MS: u64 = 700;
/// Consecutive age-out rounds on the home instance before the session
/// drains to a fallback instance.
const HOME_FAILURES_BEFORE_DRAIN: u32 = 2;
/// While drained, how often the home instance is probed again.
const HOME_PROBE_INTERVAL_MS: u64 = 1_500;
/// Pause after an explicit reject before refilling the window, so a
/// misrouted burst cannot hot-spin against a rejecting replica.
const REJECT_PAUSE_MS: u64 = 10;

/// One batch the session wants on the wire: hand it to `candidate`, tagged
/// for `instance`. The digest identifies the batch in later callbacks.
#[derive(Clone, Debug)]
pub struct SubmitAction {
    /// The replica believed to coordinate the batch's instance.
    pub candidate: ReplicaId,
    /// The instance the batch is assigned to.
    pub instance: InstanceId,
    /// Digest identifying the batch in replies and rejects.
    pub digest: Digest,
    /// The assembled batch payload.
    pub batch: Batch,
}

/// Final statistics of a session.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// The workload stream the session drove.
    pub stream: u64,
    /// Batches submitted (completed + abandoned + still in flight).
    pub submitted: u64,
    /// Batches that collected their `f + 1` matching replies.
    pub completed: u64,
    /// Batches abandoned (reply timeout, explicit reject, or failover).
    pub abandoned: u64,
    /// Median submit-to-quorum latency over completed batches, in
    /// milliseconds of the session clock. Zero when nothing completed.
    pub p50_latency_ms: u64,
    /// 99th-percentile submit-to-quorum latency, in milliseconds. With
    /// fewer than 100 completions this is the slowest observed batch.
    pub p99_latency_ms: u64,
}

/// In-flight bookkeeping: where a batch went, when, and whether the
/// coordinator acknowledged accepting it.
#[derive(Clone, Copy, Debug)]
struct PendingBatch {
    instance: InstanceId,
    candidate: ReplicaId,
    at_ms: u64,
    acked: bool,
}

/// One closed-loop client session with §III-E failover, sans-io.
///
/// Drive it with [`DriverSession::poll`] (returns the batches to submit)
/// and feed network events back through the `on_*` callbacks. The caller
/// owns authentication: tags are applied when encoding a [`SubmitAction`]
/// and verified before calling [`DriverSession::on_reply`].
#[derive(Clone, Debug)]
pub struct DriverSession {
    client: Client,
    n: usize,
    m: u32,
    home: InstanceId,
    active: InstanceId,
    /// Per-instance believed coordinator.
    candidates: Vec<ReplicaId>,
    pending: Vec<(Digest, PendingBatch)>,
    home_failures: u32,
    next_home_probe_ms: u64,
    paused_until_ms: u64,
    abandoned: u64,
    /// Submit-to-quorum latency of every completed batch, in session-clock
    /// milliseconds. Log-scale buckets, so a long-lived session stays O(1).
    latency_ms: LocalHistogram,
}

impl DriverSession {
    /// Creates a session driving workload stream `stream`, homed on
    /// `home`, with a closed-loop window of `window` batches.
    pub fn new(
        system: &SystemConfig,
        stream: u64,
        home: InstanceId,
        window: usize,
    ) -> DriverSession {
        let m = system.instances.max(1) as u32;
        DriverSession {
            client: Client::new(
                system.seed,
                stream,
                system.batch_size,
                system.client_reply_quorum(),
                ClientMode::Closed { window },
            ),
            n: system.n,
            m,
            home,
            active: home,
            candidates: (0..m).map(|i| InstanceId(i).primary()).collect(),
            pending: Vec::new(),
            home_failures: 0,
            next_home_probe_ms: 0,
            paused_until_ms: 0,
            abandoned: 0,
            latency_ms: LocalHistogram::default(),
        }
    }

    /// The workload stream this session drives.
    pub fn stream(&self) -> u64 {
        self.client.stream()
    }

    /// The replica currently believed to coordinate the active instance —
    /// where the next submission will go. Lets an embedding keep only the
    /// relevant connections open.
    pub fn active_candidate(&self) -> ReplicaId {
        self.candidates[self.active.index()]
    }

    /// Batches currently awaiting their reply quorum.
    pub fn in_flight(&self) -> usize {
        self.client.in_flight()
    }

    /// Advances the session clock to `now_ms`: ages out silent batches,
    /// applies drain/probe transitions, and returns the submissions that
    /// fill the freed window. Call regularly (at least once per reply
    /// timeout) and put every returned action on the wire.
    pub fn poll(&mut self, now_ms: u64) -> Vec<SubmitAction> {
        // Drained sessions periodically try their home instance again.
        if self.active != self.home && now_ms >= self.next_home_probe_ms {
            self.active = self.home;
        }
        self.age_out(now_ms);
        let mut actions = Vec::new();
        if now_ms < self.paused_until_ms {
            return actions;
        }
        while self.client.ready(Time::ZERO) {
            let (digest, batch) = self.client.submit(Time::ZERO);
            let candidate = self.candidates[self.active.index()];
            self.pending.push((
                digest,
                PendingBatch {
                    instance: self.active,
                    candidate,
                    at_ms: now_ms,
                    acked: false,
                },
            ));
            actions.push(SubmitAction {
                candidate,
                instance: self.active,
                digest,
                batch,
            });
        }
        actions
    }

    /// Records a *verified* reply from `from` reporting outcome `digest`,
    /// received at `now_ms` of the session clock. The caller must have
    /// checked the frame's tag against the deployment keys first. Returns
    /// what the reply contributed. A completing reply records the batch's
    /// submit-to-quorum latency.
    pub fn on_reply(&mut self, now_ms: u64, from: ReplicaId, digest: Digest) -> ReplyOutcome {
        let outcome = self.client.on_reply(from, digest);
        if outcome == ReplyOutcome::Completed {
            if let Some((_, entry)) = self.pending.iter().find(|(d, _)| *d == digest) {
                self.latency_ms.record(now_ms.saturating_sub(entry.at_ms));
            }
            self.pending.retain(|(d, _)| *d != digest);
            if self.active == self.home {
                self.home_failures = 0;
            }
        }
        outcome
    }

    /// The submit-to-quorum latency distribution of this session's
    /// completed batches, for merging into a shared registry histogram.
    pub fn latency_histogram(&self) -> &LocalHistogram {
        &self.latency_ms
    }

    /// Records a coordinator's acceptance ack for `digest`: the candidate is
    /// alive, so a later age-out frees the slot without rotating away from
    /// it.
    pub fn on_accept(&mut self, digest: Digest) {
        if let Some((_, entry)) = self.pending.iter_mut().find(|(d, _)| *d == digest) {
            entry.acked = true;
        }
    }

    /// Records an explicit per-batch reject ("not my instance / no
    /// capacity") from `replica`: frees the slot, rotates the candidate if
    /// it was the rejecting replica, and pauses resubmission briefly.
    ///
    /// A rejected *home* batch also counts toward the drain threshold:
    /// rejects abandon batches before they can age out, so without this a
    /// session whose home instance turns everything away (e.g. its
    /// coordinator is behind an admission cap) would rotate candidates
    /// forever instead of draining to an instance that serves it.
    pub fn on_reject(&mut self, now_ms: u64, replica: ReplicaId, digest: Digest) {
        if let Some(index) = self.pending.iter().position(|(d, _)| *d == digest) {
            let (_, entry) = self.pending.remove(index);
            self.client.forget(&digest);
            self.abandoned += 1;
            if entry.candidate == replica {
                self.rotate(entry.instance, replica);
            }
            if entry.instance == self.home {
                self.home_strike(now_ms);
            }
            self.paused_until_ms = now_ms + REJECT_PAUSE_MS;
        }
    }

    /// Records a connection-level refusal from `replica`: the connection was
    /// turned away at admission (the edge's zero-digest `ClientReject`
    /// sentinel), refused outright, or dropped. Every batch routed there is
    /// abandoned and every instance that believed in `replica` rotates to
    /// the next candidate, so the session fails over instead of hanging.
    pub fn on_connection_refused(&mut self, now_ms: u64, replica: ReplicaId) {
        // Losing the home instance's believed coordinator — or any home
        // batch routed through the refused replica — is one strike toward
        // draining, for the same reason as in [`DriverSession::on_reject`].
        let mut home_hit = self.candidates.get(self.home.index()).copied() == Some(replica);
        let mut index = 0;
        while index < self.pending.len() {
            if self.pending[index].1.candidate != replica {
                index += 1;
                continue;
            }
            let (digest, entry) = self.pending.remove(index);
            self.client.forget(&digest);
            self.abandoned += 1;
            home_hit |= entry.instance == self.home;
            self.rotate(entry.instance, replica);
        }
        for instance in 0..self.m {
            self.rotate(InstanceId(instance), replica);
        }
        if home_hit {
            self.home_strike(now_ms);
        }
        self.paused_until_ms = now_ms + REJECT_PAUSE_MS;
    }

    /// Final statistics. `Client::forget` nets rejected batches out of its
    /// submitted counter; the abandonments are added back so the reported
    /// total is actual submissions.
    pub fn stats(&self) -> SessionStats {
        SessionStats {
            stream: self.client.stream(),
            submitted: self.client.submitted_batches() + self.abandoned,
            completed: self.client.completed_batches(),
            abandoned: self.abandoned,
            p50_latency_ms: self.latency_ms.percentile(0.50),
            p99_latency_ms: self.latency_ms.percentile(0.99),
        }
    }

    /// One failure of the home instance (silent age-out, explicit reject,
    /// or connection refusal). At the configured threshold the session
    /// drains to the neighbouring instance and schedules a home probe.
    fn home_strike(&mut self, now_ms: u64) {
        if self.active != self.home || self.m <= 1 {
            return;
        }
        self.home_failures += 1;
        if self.home_failures >= HOME_FAILURES_BEFORE_DRAIN {
            self.active = InstanceId((self.home.0 + 1) % self.m);
            self.next_home_probe_ms = now_ms + HOME_PROBE_INTERVAL_MS;
            self.home_failures = 0;
        }
    }

    /// Rotates the believed coordinator of `instance` past `from` — only
    /// when `from` is still current, so stale verdicts about an already-
    /// replaced candidate cannot skip past the coordinator the rotation
    /// just found.
    fn rotate(&mut self, instance: InstanceId, from: ReplicaId) {
        let index = instance.index();
        if index < self.candidates.len() && self.candidates[index] == from {
            self.candidates[index] = ReplicaId((from.0 + 1) % self.n as u32);
        }
    }

    /// Ages out batches that drew neither reply nor ack within the reply
    /// timeout. An *acked* aged batch means a live coordinator with stalled
    /// releases: free the slot but keep the candidate. A never-acked batch
    /// means the candidate is dead or unreachable: rotate. Enough home
    /// age-outs in a row drain the session to the neighbouring instance.
    fn age_out(&mut self, now_ms: u64) {
        let mut home_aged = false;
        let mut index = 0;
        while index < self.pending.len() {
            let entry = self.pending[index].1;
            if now_ms.saturating_sub(entry.at_ms) <= REPLY_TIMEOUT_MS {
                index += 1;
                continue;
            }
            let (digest, entry) = self.pending.remove(index);
            self.client.forget(&digest);
            self.abandoned += 1;
            if !entry.acked {
                self.rotate(entry.instance, entry.candidate);
            }
            if entry.instance == self.home {
                home_aged = true;
            }
        }
        if home_aged {
            self.home_strike(now_ms);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn system() -> SystemConfig {
        SystemConfig::new(4).with_instances(2)
    }

    fn session(window: usize) -> DriverSession {
        DriverSession::new(&system(), 0, InstanceId(0), window)
    }

    #[test]
    fn poll_fills_the_window_toward_the_home_primary() {
        let mut s = session(3);
        let actions = s.poll(0);
        assert_eq!(actions.len(), 3);
        for action in &actions {
            assert_eq!(action.instance, InstanceId(0));
            assert_eq!(action.candidate, InstanceId(0).primary());
        }
        assert!(s.poll(1).is_empty(), "window is full");
    }

    #[test]
    fn quorum_replies_complete_batches_and_free_the_window() {
        let mut s = session(1);
        let actions = s.poll(0);
        let digest = actions[0].digest;
        assert_eq!(s.on_reply(3, ReplicaId(0), digest), ReplyOutcome::Pending);
        assert_eq!(s.on_reply(7, ReplicaId(1), digest), ReplyOutcome::Completed);
        assert_eq!(s.stats().completed, 1);
        assert_eq!(s.poll(8).len(), 1, "completed batch freed its slot");
    }

    #[test]
    fn completed_batches_record_submit_to_quorum_latency() {
        let mut s = session(1);
        // First batch: submitted at 0, quorum at 7 → 7 ms.
        let digest = s.poll(0)[0].digest;
        s.on_reply(3, ReplicaId(0), digest);
        s.on_reply(7, ReplicaId(1), digest);
        // Second batch: submitted at 10, quorum at 15 → 5 ms.
        let digest = s.poll(10)[0].digest;
        s.on_reply(12, ReplicaId(0), digest);
        s.on_reply(15, ReplicaId(1), digest);
        let stats = s.stats();
        assert_eq!(stats.p50_latency_ms, 5);
        assert_eq!(stats.p99_latency_ms, 7);
        assert_eq!(s.latency_histogram().count(), 2);
    }

    #[test]
    fn sessions_without_completions_report_zero_latency() {
        let s = session(1);
        let stats = s.stats();
        assert_eq!(stats.p50_latency_ms, 0);
        assert_eq!(stats.p99_latency_ms, 0);
        assert!(s.latency_histogram().is_empty());
    }

    #[test]
    fn unanswered_batches_age_out_and_rotate_the_candidate() {
        let mut s = session(1);
        let first = s.poll(0);
        assert_eq!(first[0].candidate, ReplicaId(0));
        let again = s.poll(REPLY_TIMEOUT_MS + 1);
        assert_eq!(again.len(), 1, "aged batch freed its slot");
        assert_eq!(
            again[0].candidate,
            ReplicaId(1),
            "never-acked age-out rotates past the dead candidate"
        );
        assert_eq!(s.stats().abandoned, 1);
    }

    #[test]
    fn acked_batches_age_out_without_rotating() {
        let mut s = session(1);
        let first = s.poll(0);
        s.on_accept(first[0].digest);
        let again = s.poll(REPLY_TIMEOUT_MS + 1);
        assert_eq!(
            again[0].candidate,
            ReplicaId(0),
            "an acked candidate is alive; keep it"
        );
    }

    #[test]
    fn repeated_home_age_outs_drain_to_the_neighbour_and_probe_back() {
        let mut s = session(1);
        let mut now = 0;
        // Two consecutive silent rounds on home drain the session.
        for _ in 0..HOME_FAILURES_BEFORE_DRAIN {
            let actions = s.poll(now);
            assert_eq!(actions[0].instance, InstanceId(0));
            now += REPLY_TIMEOUT_MS + 1;
        }
        let drained = s.poll(now);
        assert_eq!(
            drained[0].instance,
            InstanceId(1),
            "drained to the neighbouring instance"
        );
        // After the probe interval the session tries home again.
        now += HOME_PROBE_INTERVAL_MS + REPLY_TIMEOUT_MS + 1;
        let probed = s.poll(now);
        assert_eq!(probed[0].instance, InstanceId(0), "probed home");
    }

    #[test]
    fn an_explicit_reject_frees_the_slot_rotates_and_pauses() {
        let mut s = session(1);
        let actions = s.poll(0);
        s.on_reject(0, ReplicaId(0), actions[0].digest);
        assert!(
            s.poll(REJECT_PAUSE_MS - 1).is_empty(),
            "paused after a reject"
        );
        let retried = s.poll(REJECT_PAUSE_MS);
        assert_eq!(retried.len(), 1);
        assert_eq!(
            retried[0].candidate,
            ReplicaId(1),
            "rotated off the rejector"
        );
    }

    #[test]
    fn a_connection_refusal_fails_the_session_over() {
        let mut s = session(2);
        let actions = s.poll(0);
        assert!(actions.iter().all(|a| a.candidate == ReplicaId(0)));
        s.on_connection_refused(0, ReplicaId(0));
        assert_eq!(s.stats().abandoned, 2, "in-flight batches abandoned");
        let retried = s.poll(REJECT_PAUSE_MS);
        assert_eq!(retried.len(), 2);
        assert!(
            retried.iter().all(|a| a.candidate == ReplicaId(1)),
            "every instance rotated off the refused replica"
        );
    }

    #[test]
    fn repeated_home_rejects_drain_like_age_outs() {
        // A home instance that explicitly turns every batch away (its
        // coordinator is saturated or misrouted) must drain the session
        // just like silent timeouts would — rejects abandon batches before
        // they can age out, so they count toward the same threshold.
        let mut s = session(1);
        let mut now = 0;
        for _ in 0..HOME_FAILURES_BEFORE_DRAIN {
            let actions = s.poll(now);
            assert_eq!(actions[0].instance, InstanceId(0));
            now += REJECT_PAUSE_MS + 1;
            s.on_reject(now, actions[0].candidate, actions[0].digest);
            now += REJECT_PAUSE_MS + 1;
        }
        let drained = s.poll(now);
        assert_eq!(
            drained[0].instance,
            InstanceId(1),
            "rejected-out home drained to the neighbouring instance"
        );
    }

    #[test]
    fn a_connection_refusal_of_the_home_coordinator_counts_toward_draining() {
        let mut s = session(1);
        let mut now = 0;
        for _ in 0..HOME_FAILURES_BEFORE_DRAIN {
            let _ = s.poll(now);
            now += REJECT_PAUSE_MS + 1;
            // Refuse whichever replica currently fronts the home instance.
            s.on_connection_refused(now, s.active_candidate());
            now += REJECT_PAUSE_MS + 1;
        }
        let drained = s.poll(now);
        assert_eq!(
            drained[0].instance,
            InstanceId(1),
            "refusals drained the session"
        );
    }

    #[test]
    fn stale_verdicts_do_not_skip_the_rotation() {
        // Single instance so the drain transition cannot redirect the
        // session mid-test; only candidate rotation is in play.
        let mut s =
            DriverSession::new(&SystemConfig::new(4).with_instances(1), 0, InstanceId(0), 1);
        let first = s.poll(0);
        let timeout = REPLY_TIMEOUT_MS;
        // Age out rotates 0 → 1.
        let second = s.poll(timeout + 1);
        assert_eq!(second[0].candidate, ReplicaId(1));
        // A late reject blaming replica 0 must not advance 1 → anything.
        s.on_reject(timeout + 2, ReplicaId(0), first[0].digest);
        let third = s.poll(2 * (timeout + 1) + 20);
        assert_eq!(third[0].candidate, ReplicaId(2), "only the age-out rotated");
    }
}
