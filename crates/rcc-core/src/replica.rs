//! One replica of an RCC deployment.
//!
//! [`RccReplica`] owns the `m` concurrent BCA state machines of the
//! deployment (instance `i` is coordinated by replica `i mod n`, Section
//! III), multiplexes their messages and timers through the tagged
//! [`RccMessage`] envelope, and feeds every instance-level commit into the
//! deterministic [`ExecutionOrderer`]. It implements
//! [`ByzantineCommitAlgorithm`] itself, so the deterministic
//! `rcc_protocols::harness::Cluster` (and, later, the discrete-event
//! simulator) drives an RCC cluster through exactly the same interface as a
//! single PBFT cluster.
//!
//! # Failure handling (instance-local, wait-free)
//!
//! A faulty primary stalls only its own instance (design goals D4/D5):
//!
//! 1. Each instance's BCA detects its own primary failures (progress
//!    timeouts, equivocation) and runs an *instance-local* view change that
//!    replaces the coordinator without touching the other `m − 1` instances.
//! 2. The replica layer additionally watches per-instance *lag* against the
//!    bound `σ` ([`rcc_common::SystemConfig::sigma`]): an instance whose
//!    next needed round trails the frontier by `σ` or more is notified via
//!    [`ByzantineCommitAlgorithm::on_lag_detected`], which (for PBFT) votes
//!    for the instance's view change even when the dead primary left nothing
//!    outstanding to time out on.
//! 3. After the view change, the instance's *new* primary fills every round
//!    the old primary abandoned with no-op batches — inside the instance's
//!    own consensus, so all replicas agree on the substitution — and the
//!    replica layer keeps its primaries proposing catch-up no-ops while
//!    their instances trail the frontier (Section III-E).
//! 4. Independently, a replica that missed a slot other replicas committed
//!    (dropped links) recovers it via `SlotRequest`/`SlotReply` state sync:
//!    `f + 1` matching replies prove at least one non-faulty sender
//!    (assumption A3).
//!
//! # Checkpointing and garbage collection (Section III-D)
//!
//! Without checkpoints every map above grows with the age of the run. The
//! replica therefore snapshots its executed state at every
//! [`rcc_common::SystemConfig::checkpoint_interval`] release boundary (the
//! ledger-head digest chain over the released batches plus state
//! fingerprints), broadcasts a [`RccMessage::CheckpointVote`], and collects
//! peers' votes in a [`rcc_storage::CheckpointStore`]. Once `f + 1` distinct
//! replicas vote the same digest the checkpoint is *stable* and everything
//! below its round is pruned: the per-instance commit logs, the retained
//! execution window, outstanding sync state, and — via
//! [`ByzantineCommitAlgorithm::truncate_below`] — each instance BCA's slot
//! map. Dynamic *per-need* checkpoints (vote re-broadcasts) fire when
//! `nf − f` distinct replicas claim slots this replica already finished.
//! State sync gains a second path: a `SlotRequest` for a *pruned* round
//! (surfaced internally as [`rcc_common::Error::Pruned`]) is answered with a
//! [`RccMessage::CheckpointTransfer`]; `f + 1` matching transfers let the
//! laggard fast-forward its release frontier to the checkpoint instead of
//! replaying every slot.

use crate::message::RccMessage;
use crate::orderer::{ExecutionOrderer, OrderedBatch, ReleasedRound};
use rcc_common::{
    Batch, BatchId, Digest, Error, InstanceId, InstanceStatus, ReplicaId, Result, Round,
    SystemConfig, Time, View,
};
use rcc_crypto::hash::{digest_batch, digest_chain};
use rcc_protocols::bca::{Action, ByzantineCommitAlgorithm, CommittedSlot, TimerId, WireMessage};
use rcc_protocols::pbft::Pbft;
use rcc_storage::{Checkpoint, CheckpointStore};
use std::collections::{BTreeMap, BTreeSet};

/// Convenience alias: RCC running `m` concurrent PBFT instances (the
/// configuration the paper evaluates as "RCC").
pub type RccOverPbft = RccReplica<Pbft>;

/// Bits used for the per-instance timer namespace: the low 48 bits carry the
/// instance-local timer id, the high bits the instance index (offset by one
/// so instance tags are never zero).
const TIMER_INSTANCE_SHIFT: u32 = 48;

/// The replica-level lag watchdog timer. Lag handling is otherwise purely
/// event-driven (it piggybacks on messages, timeouts, and proposals), so a
/// deployment that stalls *completely* — every client blocked on a round the
/// failed instance will never release — would stop running it and never
/// escalate. The watchdog re-fires it at the next pending lag deadline. Id 0
/// lives in the untagged namespace: instance timers always carry a non-zero
/// tag.
const WATCHDOG_TIMER: TimerId = TimerId(0);

/// Encodes an instance-local timer into the replica-wide namespace. Returns
/// `None` when the encoding cannot represent the pair — an instance-local id
/// that needs 48 bits or more, or an instance tag that would not fit above
/// the shift. Neither occurs (see [`Action::SetTimer`] for the id bound;
/// `SystemConfig::validate` caps `instances` at `n`), and such a timer is
/// dropped, never masked: masking would alias it into *another instance's*
/// namespace and deliver the timeout to the wrong state machine.
fn encode_timer(instance: InstanceId, inner: TimerId) -> Option<TimerId> {
    let tag = instance.0 as u64 + 1;
    if inner.0 >= 1 << TIMER_INSTANCE_SHIFT || tag >= 1 << (64 - TIMER_INSTANCE_SHIFT) {
        return None;
    }
    Some(TimerId((tag << TIMER_INSTANCE_SHIFT) | inner.0))
}

fn decode_timer(timer: TimerId) -> Option<(InstanceId, TimerId)> {
    let tag = timer.0 >> TIMER_INSTANCE_SHIFT;
    if tag == 0 {
        return None;
    }
    Some((
        InstanceId(tag as u32 - 1),
        TimerId(timer.0 & ((1 << TIMER_INSTANCE_SHIFT) - 1)),
    ))
}

/// Collected votes for one missing slot during state sync.
#[derive(Clone, Debug, Default)]
struct SyncVotes {
    /// Replicas whose vote has been counted for this slot — one vote per
    /// replica, whatever digest it endorsed. Without this gate a Byzantine
    /// peer could vote for arbitrarily many *distinct* digests (any crafted
    /// batch matches its own digest) and grow `by_digest` without bound.
    voted: BTreeSet<ReplicaId>,
    by_digest: BTreeMap<Digest, (BTreeSet<ReplicaId>, Batch, View)>,
}

/// One replica's view of an RCC deployment over BCA `P`.
pub struct RccReplica<P: ByzantineCommitAlgorithm> {
    config: SystemConfig,
    replica: ReplicaId,
    instances: Vec<P>,
    orderer: ExecutionOrderer,
    /// Every slot this replica has seen commit, per instance, kept to serve
    /// state-sync requests. Pruned below [`RccReplica::stable_round`] once a
    /// checkpoint stabilizes; requests for pruned slots are answered with a
    /// checkpoint transfer instead.
    committed_log: Vec<BTreeMap<Round, OrderedBatch>>,
    /// The retained window of fully released rounds in execution order (what
    /// an execution engine consumes). Starts at the stable checkpoint round;
    /// earlier rounds are summarized by [`RccReplica::ledger_head`].
    execution_log: Vec<ReleasedRound>,
    /// Global execution sequence: number of batches released so far
    /// (including batches below the stable checkpoint).
    executed: u64,
    /// Chained digest over every released batch in execution order — the
    /// replica-level ledger head that checkpoints certify. Replicas with
    /// equal release histories have equal heads.
    ledger_head: Digest,
    /// Checkpoint vote exchange and the highest stable checkpoint.
    checkpoints: CheckpointStore,
    /// The round below which all per-slot state has been garbage-collected
    /// (0 until the first checkpoint stabilizes).
    stable_round: Round,
    /// The boundary of the most recent *local* checkpoint (one past its last
    /// covered round; 0 before the first).
    last_local_checkpoint: Round,
    /// Replicas that requested a slot this replica had already released —
    /// the Section III-D failure claims. `nf − f` distinct claimants trigger
    /// a dynamic per-need checkpoint; cleared on every local checkpoint.
    checkpoint_claims: BTreeSet<ReplicaId>,
    /// Lag-notification memo: the frontier round and time at which each
    /// instance was last notified, so notifications repeat only after σ
    /// further rounds of frontier progress *or* a further failure-detection
    /// timeout of wall-clock time (a linear back-off that still re-fires if
    /// the replacement primary fails too, and that cannot be frozen out by a
    /// frontier that stopped advancing).
    lag_notified: Vec<Option<(Round, Time)>>,
    /// Rounds each instance committed in its *current* view — the
    /// demonstrated progress of the current coordinator, reset on every view
    /// change. The Section III-E client-assignment policy reads this via
    /// [`ByzantineCommitAlgorithm::instance_statuses`] to decide when a
    /// recovered instance has earned its client load back.
    progress_in_view: Vec<u64>,
    /// Per-instance escalation hold-off after a completed view change. The
    /// lag escalation is paced in *frontier rounds*, but right after a view
    /// change the other instances can burst far ahead (reassigned clients
    /// refill them) in much less time than the replacement coordinator's
    /// first catch-up commits need on a WAN — escalating on that burst tears
    /// down a working new coordinator. So a fresh coordinator additionally
    /// gets [`SystemConfig::failure_detection_timeout`] of wall-clock grace.
    escalation_holdoff: Vec<Time>,
    /// Slots requested via state sync, mapped to the frontier round at the
    /// most recent request plus the time of the *first* request. Entries are
    /// pruned once the slot is recorded or released; while a slot stays
    /// missing the request is re-broadcast after every σ further rounds of
    /// frontier progress, so a *dropped* request broadcast does not leave the
    /// replica escalating a healthy instance into a view change. The first
    /// request time additionally paces escalation in wall-clock terms: a
    /// slot must stay missing for a full failure-detection timeout before
    /// the coordinator is presumed faulty, because frontier rounds alone can
    /// burst past σ (a reassigned client refilling another instance) in far
    /// less time than a healthy coordinator's catch-up commits need to
    /// round-trip the network.
    sync_requested: BTreeMap<(InstanceId, Round), (Round, Time)>,
    /// Outstanding state-sync replies.
    sync_votes: BTreeMap<(InstanceId, Round), SyncVotes>,
    /// Deadline the lag watchdog ([`WATCHDOG_TIMER`]) is currently armed
    /// for, if any — tracked so re-arms only happen when the next pending
    /// deadline moves earlier.
    watchdog_armed_until: Option<Time>,
}

impl<P: ByzantineCommitAlgorithm> RccReplica<P> {
    /// Creates the replica's view of a deployment with
    /// `config.instances` concurrent instances, building each instance's BCA
    /// state machine with `factory(instance)`.
    ///
    /// The factory must configure instance `i` with replica
    /// `i mod config.n` as its initial coordinator (use
    /// [`InstanceId::primary`]).
    ///
    /// # Panics
    ///
    /// Panics when `config` fails validation.
    pub fn new(
        config: SystemConfig,
        replica: ReplicaId,
        mut factory: impl FnMut(InstanceId) -> P,
    ) -> Self {
        config.validate().expect("invalid RCC configuration");
        let m = config.instances;
        let instances: Vec<P> = InstanceId::all(m).map(&mut factory).collect();
        RccReplica {
            replica,
            instances,
            orderer: ExecutionOrderer::new(m),
            committed_log: vec![BTreeMap::new(); m],
            execution_log: Vec::new(),
            executed: 0,
            ledger_head: Digest::ZERO,
            checkpoints: CheckpointStore::new(),
            stable_round: 0,
            last_local_checkpoint: 0,
            checkpoint_claims: BTreeSet::new(),
            config,
            lag_notified: vec![None; m],
            progress_in_view: vec![0; m],
            escalation_holdoff: vec![Time::ZERO; m],
            sync_requested: BTreeMap::new(),
            sync_votes: BTreeMap::new(),
            watchdog_armed_until: None,
        }
    }

    /// The deployment configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// Number of concurrent instances `m`.
    pub fn instance_count(&self) -> usize {
        self.instances.len()
    }

    /// Read access to one instance's BCA state machine.
    pub fn instance(&self, instance: InstanceId) -> &P {
        &self.instances[instance.index()]
    }

    /// The *retained* rounds released for execution, in execution order —
    /// the window `[execution_window_start, next_round)`. Each entry carries
    /// the `m` batches of one round in execution order with their full
    /// [`BatchId`]s — this is what an execution engine consumes. Rounds
    /// below the stable checkpoint have been garbage-collected and are
    /// summarized by [`RccReplica::ledger_head`].
    pub fn execution_log(&self) -> &[ReleasedRound] {
        &self.execution_log
    }

    /// First released round still retained in [`RccReplica::execution_log`]
    /// (the stable checkpoint round; 0 until one stabilizes). Two replicas'
    /// logs are comparable only on the overlap of their windows.
    pub fn execution_window_start(&self) -> Round {
        self.stable_round
    }

    /// Digest sequence of the *retained* execution order (convenient for
    /// comparing replicas in tests and examples — compare only on
    /// overlapping windows once checkpoints have pruned).
    pub fn execution_digests(&self) -> Vec<Digest> {
        self.execution_log
            .iter()
            .flat_map(|round| round.batches.iter().map(|b| b.digest))
            .collect()
    }

    /// Chained digest over every released batch in execution order,
    /// including pruned rounds — equal release histories have equal heads,
    /// which is what checkpoint votes certify.
    pub fn ledger_head(&self) -> Digest {
        self.ledger_head
    }

    /// The highest stable (quorum-certified) checkpoint, if any.
    pub fn stable_checkpoint(&self) -> Option<&Checkpoint> {
        self.checkpoints.stable()
    }

    /// The round-based orderer (read access, for tests and tooling).
    pub fn orderer(&self) -> &ExecutionOrderer {
        &self.orderer
    }

    /// Instances this replica currently coordinates.
    pub fn led_instances(&self) -> Vec<InstanceId> {
        InstanceId::all(self.instances.len())
            .filter(|i| self.instances[i.index()].is_primary())
            .collect()
    }

    /// Rounds `instance` committed in its current view — the demonstrated
    /// progress of its current coordinator, reset on every view change.
    pub fn progress_in_view(&self, instance: InstanceId) -> u64 {
        self.progress_in_view[instance.index()]
    }

    /// Every *retained* slot this replica has seen commit for `instance`, by
    /// round — what state-sync requests are served from. Exposed so tests
    /// and tools can distinguish real batches from no-op filler per instance
    /// (e.g. to verify a recovered instance carries client load again).
    /// Rounds below the stable checkpoint are pruned.
    pub fn instance_commit_log(&self, instance: InstanceId) -> &BTreeMap<Round, OrderedBatch> {
        &self.committed_log[instance.index()]
    }

    /// The committed slot of `instance` at `round`, for serving state sync:
    /// [`Error::Pruned`] when the round is below the stable checkpoint (the
    /// requester must adopt a checkpoint transfer instead),
    /// [`Error::KeyNotFound`] when this replica never saw it commit.
    pub fn committed_slot(&self, instance: InstanceId, round: Round) -> Result<&OrderedBatch> {
        if round < self.stable_round {
            return Err(Error::Pruned(format!(
                "slot {instance}@{round} is below the stable checkpoint at round {}",
                self.stable_round
            )));
        }
        self.committed_log[instance.index()]
            .get(&round)
            .ok_or_else(|| Error::KeyNotFound(format!("slot {instance}@{round}")))
    }

    /// Routes the actions emitted by instance `instance`'s BCA: wraps sends
    /// and timers in the instance namespace, absorbs commits into the
    /// orderer, and passes suspicions through to the embedding driver.
    fn absorb_instance_actions(
        &mut self,
        now: Time,
        instance: InstanceId,
        actions: Vec<Action<P::Message>>,
        out: &mut Vec<Action<RccMessage<P::Message>>>,
    ) {
        for action in actions {
            match action {
                Action::Send { to, message } => {
                    out.push(Action::Send {
                        to,
                        message: RccMessage::Instance { instance, message },
                    });
                }
                Action::Broadcast { message } => {
                    out.push(Action::Broadcast {
                        message: RccMessage::Instance { instance, message },
                    });
                }
                Action::SetTimer { timer, fires_at } => {
                    let encoded = encode_timer(instance, timer);
                    debug_assert!(encoded.is_some(), "{instance} armed {timer:?}");
                    if let Some(timer) = encoded {
                        out.push(Action::SetTimer { timer, fires_at });
                    }
                }
                Action::CancelTimer { timer } => {
                    if let Some(timer) = encode_timer(instance, timer) {
                        out.push(Action::CancelTimer { timer });
                    }
                }
                Action::Commit(slot) => {
                    self.absorb_commit(instance, slot, out);
                }
                Action::SuspectPrimary { primary, reason } => {
                    out.push(Action::SuspectPrimary { primary, reason });
                }
                Action::ViewChanged { view, new_primary } => {
                    // An instance-local view change: grant the replacement
                    // primary a fresh lag grace period before re-escalating,
                    // and restart its demonstrated-progress count — the
                    // Section III-E policy hands client load back only after
                    // σ rounds committed under the *new* coordinator.
                    self.lag_notified[instance.index()] =
                        self.orderer.max_committed_round().map(|f| (f, now));
                    self.progress_in_view[instance.index()] = 0;
                    self.escalation_holdoff[instance.index()] =
                        now + self.config.failure_detection_timeout;
                    out.push(Action::ViewChanged { view, new_primary });
                }
            }
        }
    }

    /// Records a commit of `instance`, then releases every newly completed
    /// round in execution order.
    fn absorb_commit(
        &mut self,
        instance: InstanceId,
        slot: CommittedSlot,
        out: &mut Vec<Action<RccMessage<P::Message>>>,
    ) {
        // Slots below the stable checkpoint are final and pruned; re-adding
        // them would regrow the logs GC just emptied.
        if slot.round < self.stable_round {
            return;
        }
        let ordered = OrderedBatch {
            id: BatchId {
                instance,
                round: slot.round,
            },
            digest: slot.digest,
            batch: slot.batch,
            speculative: slot.speculative,
            view: slot.view,
        };
        self.committed_log[instance.index()]
            .entry(ordered.id.round)
            .or_insert_with(|| ordered.clone());
        if !self.orderer.record(ordered) {
            return;
        }
        // Demonstrated progress counts only slots committed in the
        // instance's *current* view: state-synced adoptions of old-view
        // slots (pre-crash leftovers served by peers) are not the
        // replacement coordinator's work, and counting them would let the
        // σ hand-back gate pass for a coordinator that committed nothing.
        if slot.view == self.instances[instance.index()].view() {
            self.progress_in_view[instance.index()] += 1;
        }
        // The slot is no longer missing: drop its state-sync bookkeeping so
        // `sync_requested`/`sync_votes` stay bounded by the slots still
        // outstanding.
        self.sync_requested.remove(&(instance, slot.round));
        self.sync_votes.remove(&(instance, slot.round));
        for released in self.orderer.release_ready() {
            for batch in &released.batches {
                self.ledger_head = digest_chain(&self.ledger_head, &batch.digest);
                out.push(Action::Commit(CommittedSlot {
                    round: self.executed,
                    digest: batch.digest,
                    batch: batch.batch.clone(),
                    speculative: batch.speculative,
                    view: batch.view,
                }));
                self.executed += 1;
            }
            let round = released.round;
            self.execution_log.push(released);
            // Periodic checkpoint (Section III-D): snapshot at every
            // interval boundary, inside the release loop so the ledger head
            // is exactly the boundary's — a burst of releases must not skip
            // past it.
            if (round + 1) % self.config.checkpoint_interval == 0 {
                self.take_local_checkpoint(round + 1, out);
            }
        }
    }

    /// Estimated size in bytes of the bulk state snapshot behind this
    /// replica's next checkpoint — what a [`RccMessage::CheckpointTransfer`]
    /// ships to a rejoining replica. The replica layer does not own the
    /// executed tables (the execution engine does, in embeddings that run
    /// one), so the estimate models the paper's YCSB deployment: each
    /// executed write touches one of the table's 500 k records, so the
    /// snapshot covers `min(executed × batch_size, 500 000)` records at the
    /// consensus-visible bytes per transaction (ResilientDB's 5400 B proposal
    /// for 100 transactions, Section V-B). Deterministic in
    /// the executed history, so all non-faulty replicas attach the same
    /// figure to the same checkpoint.
    fn estimated_state_bytes(&self) -> u64 {
        const YCSB_TABLE_RECORDS: u64 = 500_000;
        const TRANSACTION_BYTES: u64 = 52;
        let touched = self
            .executed
            .saturating_mul(self.config.batch_size as u64)
            .min(YCSB_TABLE_RECORDS);
        touched.saturating_mul(TRANSACTION_BYTES)
    }

    /// Snapshots the executed state after every round below `boundary`,
    /// records it locally, votes for it, and broadcasts the vote.
    fn take_local_checkpoint(
        &mut self,
        boundary: Round,
        out: &mut Vec<Action<RccMessage<P::Message>>>,
    ) {
        let checkpoint = Checkpoint {
            round: boundary,
            ledger_head: self.ledger_head,
            table_fingerprint: self.executed,
            accounts_fingerprint: self.ledger_head.as_u64(),
            state_bytes: self.estimated_state_bytes(),
        };
        let digest = checkpoint.digest();
        self.checkpoints.record_local(checkpoint);
        self.checkpoints.add_vote(self.replica, boundary, digest);
        self.last_local_checkpoint = boundary;
        self.checkpoint_claims.clear();
        out.push(Action::Broadcast {
            message: RccMessage::CheckpointVote {
                round: boundary,
                digest,
            },
        });
        // Peers' votes may already be waiting (they released the boundary
        // first).
        self.try_stabilize_at(boundary);
    }

    /// The dynamic per-need checkpoint of Section III-D: `nf − f` distinct
    /// replicas claimed slots this replica already finished, so re-broadcast
    /// the latest (not yet stable) local checkpoint's vote — the claimants
    /// may have lost the original broadcasts, and stabilizing is what lets
    /// them be served a checkpoint transfer instead of slot-by-slot replay.
    fn per_need_checkpoint(&mut self, out: &mut Vec<Action<RccMessage<P::Message>>>) {
        self.checkpoint_claims.clear();
        let boundary = self.last_local_checkpoint;
        if boundary <= self.checkpoints.stable_round() {
            // Already stable: laggards are served transfers directly.
            return;
        }
        if let Some(checkpoint) = self.checkpoints.local(boundary) {
            let digest = checkpoint.digest();
            out.push(Action::Broadcast {
                message: RccMessage::CheckpointVote {
                    round: boundary,
                    digest,
                },
            });
        }
    }

    /// Ingests a peer's checkpoint vote and stabilizes/prunes when it
    /// completes an `f + 1` matching quorum for a locally held checkpoint.
    fn ingest_checkpoint_vote(&mut self, from: ReplicaId, round: Round, digest: Digest) {
        if from == self.replica {
            return;
        }
        self.checkpoints.add_vote(from, round, digest);
        self.try_stabilize_at(round);
    }

    /// Stabilizes the local checkpoint at `round` if its vote quorum is
    /// complete, garbage-collecting everything below it.
    fn try_stabilize_at(&mut self, round: Round) {
        let Some(checkpoint) = self.checkpoints.local(round).cloned() else {
            return;
        };
        if self
            .checkpoints
            .try_stabilize(&checkpoint, self.config.weak_quorum())
        {
            self.prune_below(round);
        }
    }

    /// A peer answered a state-sync request for a pruned round with its
    /// stable checkpoint. The transfer doubles as a vote; once `f + 1`
    /// distinct replicas transfer the same checkpoint *ahead* of this
    /// replica's release frontier, the frontier fast-forwards to it —
    /// at least one transfer came from a non-faulty replica (assumption A3),
    /// and the skipped rounds are certified by the checkpoint digest.
    fn absorb_checkpoint_transfer(&mut self, from: ReplicaId, checkpoint: Checkpoint) {
        if from == self.replica {
            return;
        }
        let digest = checkpoint.digest();
        let votes = self.checkpoints.add_vote(from, checkpoint.round, digest);
        if checkpoint.round > self.orderer.next_round() && votes >= self.config.weak_quorum() {
            self.adopt_checkpoint(checkpoint);
        } else {
            // Behind or not yet quorate: still useful as an ordinary vote.
            self.try_stabilize_at(checkpoint.round);
        }
    }

    /// Fast-forwards this replica to an adopted stable checkpoint: the
    /// release frontier jumps to the checkpoint round, the ledger head and
    /// execution sequence take the certified values, and everything below is
    /// pruned. Slots between the checkpoint and the deployment frontier
    /// still arrive through ordinary state sync.
    fn adopt_checkpoint(&mut self, checkpoint: Checkpoint) {
        let round = checkpoint.round;
        if round <= self.orderer.next_round() {
            return;
        }
        self.orderer.fast_forward(round);
        self.executed = round * self.instances.len() as u64;
        self.ledger_head = checkpoint.ledger_head;
        self.last_local_checkpoint = self.last_local_checkpoint.max(round);
        self.checkpoints.record_local(checkpoint.clone());
        self.checkpoints
            .try_stabilize(&checkpoint, self.config.weak_quorum());
        self.prune_below(round);
    }

    /// Garbage-collects every per-slot structure below the stable round:
    /// per-instance commit logs, the retained execution window, outstanding
    /// sync state, and each instance BCA's slots (via
    /// [`ByzantineCommitAlgorithm::truncate_below`]).
    fn prune_below(&mut self, stable: Round) {
        if stable <= self.stable_round {
            return;
        }
        self.stable_round = stable;
        for log in &mut self.committed_log {
            *log = log.split_off(&stable);
        }
        for instance in &mut self.instances {
            instance.truncate_below(stable);
        }
        self.sync_requested.retain(|&(_, round), _| round >= stable);
        self.sync_votes.retain(|&(_, round), _| round >= stable);
        let retained_from = self
            .execution_log
            .partition_point(|released| released.round < stable);
        self.execution_log.drain(..retained_from);
    }

    /// Lag handling, run after every externally triggered event: instances
    /// whose needed round trails the commit frontier by `σ` or more either
    /// catch up (if this replica coordinates them) or are recovered in two
    /// stages — state sync first (the slot may have committed elsewhere and
    /// merely been lost on the way here), then, if the slot is still missing
    /// after `σ` further rounds of frontier progress, escalation to the
    /// instance's own failure handling (the coordinator is presumed faulty).
    fn check_lag(&mut self, now: Time, out: &mut Vec<Action<RccMessage<P::Message>>>) {
        let Some(frontier) = self.orderer.max_committed_round() else {
            return;
        };
        // Sweep state-sync bookkeeping for rounds the release frontier has
        // passed (a slot can stop being needed without ever being recorded
        // here, e.g. when it was adopted under a different round key).
        let released = self.orderer.next_round();
        self.sync_requested
            .retain(|&(_, round), _| round >= released);
        self.sync_votes.retain(|&(_, round), _| round >= released);
        let sigma = self.config.sigma;
        let timeout = self.config.failure_detection_timeout;
        // The earliest future instant at which a gated decision below could
        // change; the watchdog timer is armed for it, because a fully
        // stalled deployment generates no other events to re-run this check.
        let mut wake: Option<Time> = None;
        let wake_at = |wake: &mut Option<Time>, at: Time| {
            *wake = Some(wake.map_or(at, |cur| cur.min(at)));
        };
        for instance in InstanceId::all(self.instances.len()) {
            if self.orderer.lag(instance) < sigma {
                continue;
            }
            let coordinated_here = self.instances[instance.index()].is_primary();
            if coordinated_here {
                self.catch_up_with_noops(instance, now, frontier, out);
                // Do NOT skip state sync: a replica that believes it
                // coordinates a lagging instance may be a *stale* primary —
                // deposed by a view change it missed while crashed or
                // partitioned away. Its catch-up proposals are stamped with
                // the old view and rejected everywhere, so its own consensus
                // can never fill the needed rounds; only state sync (slot
                // replies, or a checkpoint transfer once the slots are
                // pruned) unwedges the release frontier. For a *genuine*
                // primary the fall-through is harmless: rounds nobody
                // committed draw no replies, and rounds that did commit are
                // exactly what it must adopt anyway.
            }
            // Stage 1: request the missing slot from peers. Escalating
            // straight to a view-change vote would wedge a perfectly healthy
            // instance whenever *this* replica dropped a message — and so
            // would a *request broadcast* that got dropped, so the request is
            // re-broadcast after every σ further rounds of frontier progress
            // while the slot stays missing.
            let needed = self.orderer.needed_round(instance);
            let first_requested_at = match self.sync_requested.get(&(instance, needed)) {
                None => {
                    self.sync_requested
                        .insert((instance, needed), (frontier, now));
                    out.push(Action::Broadcast {
                        message: RccMessage::SlotRequest {
                            instance,
                            round: needed,
                        },
                    });
                    // Give state sync σ rounds of frontier progress and a
                    // failure-detection timeout of wall-clock time before
                    // presuming the coordinator faulty.
                    self.lag_notified[instance.index()] = Some((frontier, now));
                    wake_at(&mut wake, now + timeout);
                    continue;
                }
                Some(&(last_frontier, first_at)) => {
                    if frontier >= last_frontier + sigma {
                        self.sync_requested
                            .insert((instance, needed), (frontier, first_at));
                        out.push(Action::Broadcast {
                            message: RccMessage::SlotRequest {
                                instance,
                                round: needed,
                            },
                        });
                    }
                    first_at
                }
            };
            // Escalation is only ever aimed at *another* replica's
            // coordinatorship ([`ByzantineCommitAlgorithm::on_lag_detected`]
            // is for non-primaries); an instance this replica coordinates —
            // or believes it does — stops at state sync.
            if coordinated_here {
                continue;
            }
            // Stage 2: the slot was requested at least σ frontier-rounds and
            // one failure-detection timeout ago and is still missing —
            // presume the coordinator faulty and let the instance's failure
            // handling (PBFT: a view change) replace it. Re-escalates every
            // σ further rounds of frontier progress or failure-detection
            // timeout, so a faulty *replacement* coordinator is replaced
            // too. The wall-clock gate keeps a frontier burst (reassigned
            // clients refilling another instance in one pipeline flush) from
            // deposing a coordinator whose catch-up is still in flight.
            if now < first_requested_at + timeout {
                wake_at(&mut wake, first_requested_at + timeout);
                continue;
            }
            let due = match self.lag_notified[instance.index()] {
                None => true,
                Some((last_frontier, last_at)) => {
                    frontier >= last_frontier + sigma || now >= last_at + timeout
                }
            };
            if !due {
                if let Some((_, last_at)) = self.lag_notified[instance.index()] {
                    wake_at(&mut wake, last_at + timeout);
                }
                continue;
            }
            // While the instance is already running a view change another
            // escalation is pure noise: its BCA refuses to start a second
            // one, and the grace clock is reset when the view change
            // completes (`ViewChanged` above). Keep the watchdog running,
            // though — a wedged view change must not silence lag handling.
            if self.instances[instance.index()].in_view_change() {
                wake_at(&mut wake, now + timeout);
                continue;
            }
            // A freshly installed coordinator additionally gets a wall-clock
            // hold-off: frontier rounds can burst past σ long before its
            // first catch-up commits can physically round-trip the network.
            if now < self.escalation_holdoff[instance.index()] {
                wake_at(&mut wake, self.escalation_holdoff[instance.index()]);
                continue;
            }
            self.lag_notified[instance.index()] = Some((frontier, now));
            wake_at(&mut wake, now + timeout);
            let actions = self.instances[instance.index()].on_lag_detected(now);
            self.absorb_instance_actions(now, instance, actions, out);
        }
        if let Some(at) = wake {
            let rearm = match self.watchdog_armed_until {
                None => true,
                Some(current) => at < current || current <= now,
            };
            if rearm {
                self.watchdog_armed_until = Some(at);
                out.push(Action::SetTimer {
                    timer: WATCHDOG_TIMER,
                    fires_at: at,
                });
            }
        }
    }

    /// Has this replica — as the (possibly new) coordinator of a lagging
    /// instance — propose no-op batches until the instance's proposal
    /// frontier reaches the deployment's commit frontier (Section III-E).
    fn catch_up_with_noops(
        &mut self,
        instance: InstanceId,
        now: Time,
        frontier: Round,
        out: &mut Vec<Action<RccMessage<P::Message>>>,
    ) {
        loop {
            let bca = &self.instances[instance.index()];
            if !bca.is_primary()
                || bca.next_proposal_round() > frontier
                || bca.proposal_capacity() == 0
            {
                break;
            }
            // The no-op's pseudo-request sequence is the round it will be
            // proposed in — the same convention as the view-change gap fill —
            // so pseudo-client request ids stay unique per round.
            let round = bca.next_proposal_round();
            let batch = Batch::noop(instance, round);
            let actions = self.instances[instance.index()].propose(now, batch);
            if actions.is_empty() {
                break;
            }
            self.absorb_instance_actions(now, instance, actions, out);
        }
    }

    /// Serves a state-sync request: a [`RccMessage::SlotReply`] for a
    /// retained slot, a [`RccMessage::CheckpointTransfer`] for a pruned one.
    fn serve_slot_request(
        &mut self,
        from: ReplicaId,
        instance: InstanceId,
        round: Round,
        out: &mut Vec<Action<RccMessage<P::Message>>>,
    ) {
        if instance.index() >= self.instances.len() {
            return;
        }
        // Section III-D failure claims: a request for a slot this replica
        // already released means the requester is stuck behind us; `nf − f`
        // distinct claimants trigger a dynamic per-need checkpoint.
        if round < self.orderer.next_round() {
            self.checkpoint_claims.insert(from);
            if self.checkpoint_claims.len() >= self.config.nf() - self.config.f {
                self.per_need_checkpoint(out);
            }
        }
        match self.committed_slot(instance, round) {
            Ok(slot) => {
                let (digest, batch, view) = (slot.digest, slot.batch.clone(), slot.view);
                out.push(Action::Send {
                    to: from,
                    message: RccMessage::SlotReply {
                        instance,
                        round,
                        digest,
                        batch,
                        view,
                    },
                });
            }
            Err(Error::Pruned(_)) => {
                // The slot is gone; the requester must catch up from the
                // stable checkpoint that covers it.
                if let Some(stable) = self.checkpoints.stable() {
                    out.push(Action::Send {
                        to: from,
                        message: RccMessage::CheckpointTransfer {
                            checkpoint: stable.clone(),
                        },
                    });
                }
            }
            Err(_) => {}
        }
    }

    /// Accumulates a state-sync reply (as an [`OrderedBatch`] reported by
    /// `from`); once `f + 1` distinct replicas vouch for the same digest
    /// (and the digest matches the batch), the slot is adopted as committed.
    fn absorb_slot_reply(
        &mut self,
        from: ReplicaId,
        reply: OrderedBatch,
        out: &mut Vec<Action<RccMessage<P::Message>>>,
    ) {
        let BatchId { instance, round } = reply.id;
        if instance.index() >= self.instances.len() {
            return;
        }
        // Only solicited replies are counted: without this gate a single
        // peer could grow `sync_votes` without bound by streaming replies
        // for rounds nobody asked about.
        if !self.sync_requested.contains_key(&(instance, round)) {
            return;
        }
        // A reply whose digest does not match its payload is forged.
        if digest_batch(&reply.batch) != reply.digest {
            return;
        }
        if round < self.orderer.next_round() || self.orderer.has_pending(instance, round) {
            return;
        }
        let digest = reply.digest;
        let votes = self.sync_votes.entry((instance, round)).or_default();
        // One vote per replica per slot: a Byzantine peer could otherwise
        // vote for arbitrarily many *distinct* digests (any crafted batch
        // matches its own digest) and grow `by_digest` without bound. The
        // first vote counts; a replica cannot revise it.
        if !votes.voted.insert(from) {
            return;
        }
        let (voters, _, _) = votes
            .by_digest
            .entry(digest)
            .or_insert_with(|| (BTreeSet::new(), reply.batch, reply.view));
        voters.insert(from);
        if voters.len() < self.config.weak_quorum() {
            return;
        }
        let (_, adopted_batch, adopted_view) = votes
            .by_digest
            .remove(&digest)
            .expect("entry just inserted");
        self.sync_votes.remove(&(instance, round));
        self.absorb_commit(
            instance,
            CommittedSlot {
                round,
                digest,
                batch: adopted_batch,
                speculative: false,
                view: adopted_view,
            },
            out,
        );
    }
}

impl RccReplica<Pbft> {
    /// RCC over PBFT, the paper's default configuration: `config.instances`
    /// concurrent PBFT instances, instance `i` initially coordinated by
    /// replica `i mod n`, with instance-local view changes enabled so a
    /// failed coordinator is replaced without disturbing other instances.
    pub fn over_pbft(config: SystemConfig, replica: ReplicaId) -> Self {
        let cfg = config.clone();
        RccReplica::new(config, replica, |instance| {
            Pbft::new(cfg.clone(), replica, instance.primary())
        })
    }
}

impl<P: ByzantineCommitAlgorithm> ByzantineCommitAlgorithm for RccReplica<P> {
    type Message = RccMessage<P::Message>;

    fn name(&self) -> &'static str {
        "RCC"
    }

    fn replica(&self) -> ReplicaId {
        self.replica
    }

    fn primary(&self) -> ReplicaId {
        // In RCC every replica that coordinates an instance is "a primary".
        // Report this replica when it leads any instance, otherwise the
        // coordinator of the instance it maps to round-robin.
        if self.instances.iter().any(|i| i.is_primary()) {
            self.replica
        } else {
            let m = self.instances.len() as u32;
            self.instances[(self.replica.0 % m) as usize].primary()
        }
    }

    fn view(&self) -> View {
        // The maximum view across instances: 0 until some instance performed
        // a view change.
        self.instances.iter().map(|i| i.view()).max().unwrap_or(0)
    }

    fn in_view_change(&self) -> bool {
        self.instances.iter().any(|i| i.in_view_change())
    }

    fn instance_statuses(&self) -> Vec<InstanceStatus> {
        InstanceId::all(self.instances.len())
            .map(|instance| {
                let bca = &self.instances[instance.index()];
                InstanceStatus {
                    instance,
                    coordinator: bca.primary(),
                    view: bca.view(),
                    in_view_change: bca.in_view_change(),
                    progress_in_view: self.progress_in_view[instance.index()],
                }
            })
            .collect()
    }

    fn proposal_capacity(&self) -> usize {
        self.instances
            .iter()
            .filter(|i| i.is_primary())
            .map(|i| i.proposal_capacity())
            .sum()
    }

    fn proposal_capacity_for(&self, instance: InstanceId) -> usize {
        if instance.index() >= self.instances.len() {
            return 0;
        }
        let bca = &self.instances[instance.index()];
        if bca.is_primary() {
            bca.proposal_capacity()
        } else {
            0
        }
    }

    fn committed_prefix(&self) -> Round {
        // For RCC the contiguous prefix is the global execution sequence:
        // every batch below it has been released in an agreed order.
        self.executed
    }

    fn next_proposal_round(&self) -> Round {
        self.instances
            .iter()
            .map(|i| i.next_proposal_round())
            .max()
            .unwrap_or(0)
    }

    fn stable_round(&self) -> Round {
        self.stable_round
    }

    fn truncate_below(&mut self, round: Round) {
        self.prune_below(round);
    }

    fn retained_log_entries(&self) -> u64 {
        // Sampled after every simulation event: everything here must be
        // cheap. `BTreeMap::len` is O(1), a released round always carries
        // exactly `m` batches, and the orderer keeps a running count, so
        // the whole sum is O(m) with no per-entry iteration.
        let committed: u64 = self.committed_log.iter().map(|log| log.len() as u64).sum();
        let execution = self.execution_log.len() as u64 * self.instances.len() as u64;
        let instances: u64 = self
            .instances
            .iter()
            .map(|instance| instance.retained_log_entries())
            .sum();
        committed
            + execution
            + instances
            + self.orderer.pending_entries()
            + self.sync_votes.len() as u64
    }

    fn propose(&mut self, now: Time, batch: Batch) -> Vec<Action<Self::Message>> {
        let mut out = Vec::new();
        // Route the batch to this replica's *home* instance (instance id ==
        // replica id) when it still coordinates it, falling back to any other
        // instance it acquired through a view change. Taken-over instances
        // run on catch-up no-ops until clients are reassigned (Section
        // III-E), so routing client load to the home instance first keeps a
        // takeover from starving the home instance into a view change.
        let m = self.instances.len();
        let home = self.replica.0 as usize % m;
        let target = std::iter::once(InstanceId(home as u32))
            .chain(InstanceId::all(m))
            .find(|i| {
                let bca = &self.instances[i.index()];
                bca.is_primary() && bca.proposal_capacity() > 0
            });
        if let Some(instance) = target {
            let actions = self.instances[instance.index()].propose(now, batch);
            self.absorb_instance_actions(now, instance, actions, &mut out);
        }
        self.check_lag(now, &mut out);
        out
    }

    fn propose_for(
        &mut self,
        now: Time,
        instance: InstanceId,
        batch: Batch,
    ) -> Vec<Action<Self::Message>> {
        // Targeted proposals are how assigned client load reaches a specific
        // instance (Section III-E): the embedding routes each client's
        // batches to the instance the assignment policy mapped it to, and a
        // replica that does not (or no longer does) coordinate that instance
        // turns the batch away instead of silently proposing it elsewhere.
        let mut out = Vec::new();
        if self.proposal_capacity_for(instance) > 0 {
            let actions = self.instances[instance.index()].propose(now, batch);
            self.absorb_instance_actions(now, instance, actions, &mut out);
        }
        self.check_lag(now, &mut out);
        out
    }

    fn on_message(
        &mut self,
        now: Time,
        from: ReplicaId,
        message: Self::Message,
    ) -> Vec<Action<Self::Message>> {
        let mut out = Vec::new();
        match message {
            RccMessage::Instance { instance, message } => {
                if instance.index() < self.instances.len() {
                    let actions = self.instances[instance.index()].on_message(now, from, message);
                    self.absorb_instance_actions(now, instance, actions, &mut out);
                }
            }
            RccMessage::SlotRequest { instance, round } => {
                self.serve_slot_request(from, instance, round, &mut out);
            }
            RccMessage::SlotReply {
                instance,
                round,
                digest,
                batch,
                view,
            } => {
                let reply = OrderedBatch {
                    id: BatchId { instance, round },
                    digest,
                    batch,
                    speculative: false,
                    view,
                };
                self.absorb_slot_reply(from, reply, &mut out);
            }
            RccMessage::CheckpointVote { round, digest } => {
                self.ingest_checkpoint_vote(from, round, digest);
            }
            RccMessage::CheckpointTransfer { checkpoint } => {
                self.absorb_checkpoint_transfer(from, checkpoint);
            }
        }
        self.check_lag(now, &mut out);
        out
    }

    fn on_timeout(&mut self, now: Time, timer: TimerId) -> Vec<Action<Self::Message>> {
        let mut out = Vec::new();
        if timer == WATCHDOG_TIMER {
            // The lag watchdog: no instance routing, just the check_lag pass
            // below (which re-arms it if deadlines remain).
            self.watchdog_armed_until = None;
        } else if let Some((instance, inner)) = decode_timer(timer) {
            if instance.index() < self.instances.len() {
                let actions = self.instances[instance.index()].on_timeout(now, inner);
                self.absorb_instance_actions(now, instance, actions, &mut out);
            }
        }
        self.check_lag(now, &mut out);
        out
    }
}

// `WireMessage` is required of `Self::Message`; this bound is discharged in
// `message.rs`, but assert it here so a regression is caught at the
// definition site rather than at every use site.
const _: fn() = || {
    fn assert_wire<M: WireMessage>() {}
    fn check<P: ByzantineCommitAlgorithm>() {
        assert_wire::<RccMessage<P::Message>>();
    }
    let _ = check::<Pbft>;
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timer_namespace_round_trips() {
        for instance in [0u32, 1, 7, 90] {
            for inner in [0u64, 1, 42, (1 << 40) + 5] {
                let encoded = encode_timer(InstanceId(instance), TimerId(inner))
                    .expect("in-range ids must encode");
                assert_eq!(
                    decode_timer(encoded),
                    Some((InstanceId(instance), TimerId(inner))),
                    "instance {instance}, inner {inner}"
                );
            }
        }
    }

    #[test]
    fn instance_timers_never_collide_across_instances() {
        let a = encode_timer(InstanceId(0), TimerId(5)).unwrap();
        let b = encode_timer(InstanceId(1), TimerId(5)).unwrap();
        assert_ne!(a, b);
        assert_eq!(
            decode_timer(TimerId(3)),
            None,
            "untagged ids are not instance timers"
        );
    }

    #[test]
    fn out_of_range_timer_ids_are_rejected_not_misrouted() {
        // An instance-local id of 2^48 used to *silently corrupt* the
        // instance tag in release builds: (1 << 48) | tag bits aliased the
        // timer into the next instance's namespace.
        assert_eq!(encode_timer(InstanceId(0), TimerId(1 << 48)), None);
        assert_eq!(encode_timer(InstanceId(3), TimerId(u64::MAX)), None);
        // Instance tags that would not fit above the shift are rejected too.
        assert_eq!(encode_timer(InstanceId(u32::MAX), TimerId(0)), None);
    }

    #[test]
    fn over_pbft_assigns_round_robin_coordinators() {
        let config = SystemConfig::new(4);
        let replica = RccReplica::over_pbft(config, ReplicaId(2));
        assert_eq!(replica.instance_count(), 4);
        for i in 0..4u32 {
            assert_eq!(replica.instance(InstanceId(i)).primary(), ReplicaId(i));
        }
        assert_eq!(replica.led_instances(), vec![InstanceId(2)]);
        assert_eq!(replica.name(), "RCC");
        assert_eq!(replica.primary(), ReplicaId(2), "leads its own instance");
    }

    #[test]
    #[should_panic(expected = "invalid RCC configuration")]
    fn invalid_configs_are_rejected() {
        let mut config = SystemConfig::new(4);
        config.instances = 9;
        let _ = RccReplica::over_pbft(config, ReplicaId(0));
    }

    // ------------------------------------------------------------------
    // White-box tests of the state-sync and timer plumbing, driven via a
    // minimal scriptable BCA (full-protocol coverage lives in tests/ and in
    // the simulator's recovery tests).
    // ------------------------------------------------------------------

    use rcc_common::{ClientId, ClientRequest, Transaction};

    #[derive(Clone, Debug, PartialEq)]
    enum FakeMsg {
        /// Commit `round` with an arbitrary digest tag.
        Commit { round: Round, tag: u8 },
    }

    impl WireMessage for FakeMsg {
        fn wire_size(&self) -> usize {
            16
        }
        fn is_proposal(&self) -> bool {
            false
        }
    }

    /// A scriptable single-instance BCA: commits on command.
    struct FakeBca {
        replica: ReplicaId,
        primary: ReplicaId,
    }

    impl ByzantineCommitAlgorithm for FakeBca {
        type Message = FakeMsg;

        fn name(&self) -> &'static str {
            "FAKE"
        }
        fn replica(&self) -> ReplicaId {
            self.replica
        }
        fn primary(&self) -> ReplicaId {
            self.primary
        }
        fn view(&self) -> View {
            0
        }
        fn proposal_capacity(&self) -> usize {
            0
        }
        fn committed_prefix(&self) -> Round {
            0
        }
        fn next_proposal_round(&self) -> Round {
            0
        }
        fn propose(&mut self, _now: Time, _batch: Batch) -> Vec<Action<FakeMsg>> {
            Vec::new()
        }
        fn on_message(
            &mut self,
            _now: Time,
            _from: ReplicaId,
            message: FakeMsg,
        ) -> Vec<Action<FakeMsg>> {
            match message {
                FakeMsg::Commit { round, tag } => vec![Action::Commit(CommittedSlot {
                    round,
                    digest: Digest::from_bytes([tag; 32]),
                    batch: Batch::noop(InstanceId(0), round),
                    speculative: false,
                    view: 0,
                })],
            }
        }
        fn on_timeout(&mut self, _now: Time, _timer: TimerId) -> Vec<Action<FakeMsg>> {
            Vec::new()
        }
    }

    fn fake_deployment(sigma: u64) -> RccReplica<FakeBca> {
        fake_deployment_with_interval(sigma, 64)
    }

    fn fake_deployment_with_interval(sigma: u64, interval: u64) -> RccReplica<FakeBca> {
        // Replica 3 of n = 4 with m = 2 instances: it coordinates neither,
        // so lag handling goes through state sync and escalation.
        let mut config = SystemConfig::new(4)
            .with_instances(2)
            .with_checkpoint_interval(interval);
        config.sigma = sigma;
        RccReplica::new(config, ReplicaId(3), |instance| FakeBca {
            replica: ReplicaId(3),
            primary: instance.primary(),
        })
    }

    /// Feeds `rounds` commits into instance 0 so instance 1 trails the
    /// frontier, returning all emitted actions.
    fn advance_instance0(
        rcc: &mut RccReplica<FakeBca>,
        now: Time,
        rounds: std::ops::Range<Round>,
    ) -> Vec<Action<RccMessage<FakeMsg>>> {
        let mut out = Vec::new();
        for round in rounds {
            out.extend(rcc.on_message(
                now,
                ReplicaId(0),
                RccMessage::Instance {
                    instance: InstanceId(0),
                    message: FakeMsg::Commit {
                        round,
                        tag: round as u8,
                    },
                },
            ));
        }
        out
    }

    fn slot_requests(actions: &[Action<RccMessage<FakeMsg>>]) -> Vec<(InstanceId, Round)> {
        actions
            .iter()
            .filter_map(|a| match a {
                Action::Broadcast {
                    message: RccMessage::SlotRequest { instance, round },
                } => Some((*instance, *round)),
                _ => None,
            })
            .collect()
    }

    fn matching_reply(round: Round) -> (Digest, Batch) {
        let batch = Batch::new(vec![ClientRequest::new(
            ClientId(7),
            round,
            Transaction::noop(),
        )]);
        (digest_batch(&batch), batch)
    }

    #[test]
    fn dropped_slot_requests_are_rerequested_after_sigma_rounds() {
        let sigma = 2;
        let mut rcc = fake_deployment(sigma);
        let t0 = Time::from_millis(1);
        let first = advance_instance0(&mut rcc, t0, 0..3);
        assert_eq!(
            slot_requests(&first),
            vec![(InstanceId(1), 0)],
            "σ-lag triggers a state-sync request for the missing slot"
        );
        // The broadcast was dropped (nothing arrives). After σ further
        // rounds of frontier progress the request must be re-broadcast —
        // the old one-shot semantics escalated a healthy instance straight
        // to a view change instead.
        let later = advance_instance0(&mut rcc, t0, 3..3 + sigma);
        assert_eq!(
            slot_requests(&later),
            vec![(InstanceId(1), 0)],
            "the dropped request is retried after σ rounds of progress"
        );
    }

    #[test]
    fn sync_state_is_pruned_once_the_slot_is_recorded() {
        let mut rcc = fake_deployment(2);
        let t0 = Time::from_millis(1);
        advance_instance0(&mut rcc, t0, 0..3);
        assert!(rcc.sync_requested.contains_key(&(InstanceId(1), 0)));
        // f + 1 = 2 matching replies adopt the slot …
        let (digest, batch) = matching_reply(0);
        for from in [ReplicaId(0), ReplicaId(1)] {
            rcc.on_message(
                t0,
                from,
                RccMessage::SlotReply {
                    instance: InstanceId(1),
                    round: 0,
                    digest,
                    batch: batch.clone(),
                    view: 0,
                },
            );
        }
        assert!(
            rcc.orderer.has_pending(InstanceId(1), 0) || rcc.orderer.next_round() > 0,
            "the slot was adopted"
        );
        // … and every trace of the request is gone: the maps are bounded by
        // the slots still outstanding, not by the age of the run.
        assert!(!rcc.sync_requested.contains_key(&(InstanceId(1), 0)));
        assert!(!rcc.sync_votes.contains_key(&(InstanceId(1), 0)));
    }

    #[test]
    fn a_multi_digest_attacker_gets_one_vote_per_slot() {
        let mut rcc = fake_deployment(2);
        let t0 = Time::from_millis(1);
        advance_instance0(&mut rcc, t0, 0..3);
        // A Byzantine peer streams replies with arbitrarily many *distinct*
        // digests for the solicited slot (any crafted batch matches its own
        // digest). Only its first vote may count.
        for fake_round in 100..120 {
            let (digest, batch) = matching_reply(fake_round);
            rcc.on_message(
                t0,
                ReplicaId(2),
                RccMessage::SlotReply {
                    instance: InstanceId(1),
                    round: 0,
                    digest,
                    batch,
                    view: 0,
                },
            );
        }
        let votes = rcc
            .sync_votes
            .get(&(InstanceId(1), 0))
            .expect("solicited replies are tracked");
        assert_eq!(
            votes.by_digest.len(),
            1,
            "one vote per replica per slot: `by_digest` must not grow with \
             the attacker's message count"
        );
        assert!(
            !rcc.orderer.has_pending(InstanceId(1), 0),
            "a single replica never reaches the f + 1 quorum"
        );
        // Honest replies still win: two distinct replicas with one matching
        // digest adopt the slot despite the attacker's earlier noise.
        let (digest, batch) = matching_reply(0);
        for from in [ReplicaId(0), ReplicaId(1)] {
            rcc.on_message(
                t0,
                from,
                RccMessage::SlotReply {
                    instance: InstanceId(1),
                    round: 0,
                    digest,
                    batch: batch.clone(),
                    view: 0,
                },
            );
        }
        assert!(rcc.orderer.has_pending(InstanceId(1), 0) || rcc.orderer.next_round() > 0);
    }

    /// Commits `rounds` on both instances of a fake m = 2 deployment so the
    /// orderer releases them, returning every emitted action.
    fn release_rounds(
        rcc: &mut RccReplica<FakeBca>,
        now: Time,
        rounds: std::ops::Range<Round>,
    ) -> Vec<Action<RccMessage<FakeMsg>>> {
        let mut out = Vec::new();
        for round in rounds {
            for instance in [0u32, 1] {
                out.extend(rcc.on_message(
                    now,
                    ReplicaId(instance),
                    RccMessage::Instance {
                        instance: InstanceId(instance),
                        message: FakeMsg::Commit {
                            round,
                            tag: (round * 2 + instance as u64) as u8,
                        },
                    },
                ));
            }
        }
        out
    }

    #[test]
    fn conflicting_checkpoint_votes_never_stabilize_but_honest_ones_prune() {
        let mut rcc = fake_deployment_with_interval(16, 4);
        let t0 = Time::from_millis(1);
        // Releasing rounds 0..4 crosses the boundary: a local checkpoint is
        // taken and its vote broadcast.
        let actions = release_rounds(&mut rcc, t0, 0..4);
        let (boundary, digest) = actions
            .iter()
            .find_map(|a| match a {
                Action::Broadcast {
                    message: RccMessage::CheckpointVote { round, digest },
                } => Some((*round, *digest)),
                _ => None,
            })
            .expect("crossing the interval boundary broadcasts a vote");
        assert_eq!(boundary, 4);
        assert_eq!(rcc.stable_round(), 0, "the own vote alone is no quorum");
        // A Byzantine peer floods *conflicting* digests at the boundary:
        // nothing stabilizes, nothing is pruned, and the store holds at most
        // one vote for the flooder no matter how many it sends.
        for tag in 0..10u8 {
            rcc.on_message(
                t0,
                ReplicaId(2),
                RccMessage::CheckpointVote {
                    round: boundary,
                    digest: Digest::from_bytes([0xA0 + tag; 32]),
                },
            );
        }
        assert_eq!(rcc.stable_round(), 0);
        assert!(!rcc.instance_commit_log(InstanceId(0)).is_empty());
        // One honest matching vote completes the f + 1 = 2 quorum: the
        // checkpoint stabilizes and every layer below it is pruned.
        rcc.on_message(
            t0,
            ReplicaId(1),
            RccMessage::CheckpointVote {
                round: boundary,
                digest,
            },
        );
        assert_eq!(rcc.stable_round(), boundary);
        assert_eq!(rcc.execution_window_start(), boundary);
        assert!(rcc.instance_commit_log(InstanceId(0)).is_empty());
        assert!(rcc.instance_commit_log(InstanceId(1)).is_empty());
        assert!(rcc.execution_log().is_empty());
        assert_eq!(rcc.stable_checkpoint().expect("stable").round, boundary);
    }

    #[test]
    fn matching_checkpoint_transfers_fast_forward_a_trailing_replica() {
        let mut rcc = fake_deployment(16);
        let t0 = Time::from_millis(1);
        let checkpoint = Checkpoint {
            round: 128,
            ledger_head: Digest::from_bytes([7; 32]),
            table_fingerprint: 256,
            accounts_fingerprint: 0,
            state_bytes: 0,
        };
        // A single transfer is not enough: f + 1 = 2 distinct senders must
        // vouch for the same checkpoint (at least one is then non-faulty).
        rcc.on_message(
            t0,
            ReplicaId(0),
            RccMessage::CheckpointTransfer {
                checkpoint: checkpoint.clone(),
            },
        );
        assert_eq!(rcc.orderer().next_round(), 0, "one transfer is no quorum");
        // The matching second transfer adopts it: the release frontier
        // fast-forwards past the pruned rounds and the certified state
        // (ledger head, execution sequence) is taken over.
        rcc.on_message(
            t0,
            ReplicaId(1),
            RccMessage::CheckpointTransfer {
                checkpoint: checkpoint.clone(),
            },
        );
        assert_eq!(rcc.orderer().next_round(), 128);
        assert_eq!(rcc.stable_round(), 128);
        assert_eq!(rcc.committed_prefix(), 256, "128 rounds × m = 2 batches");
        assert_eq!(rcc.ledger_head(), checkpoint.ledger_head);
        // Commits below the adopted checkpoint are final and ignored.
        release_rounds(&mut rcc, t0, 0..2);
        assert!(rcc.instance_commit_log(InstanceId(0)).is_empty());
    }
}
