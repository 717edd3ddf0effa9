//! PBFT: the preprepare-prepare-commit Byzantine commit algorithm.
//!
//! This is the protocol of Example III.1 of the paper. The primary proposes a
//! batch via a `PrePrepare`; replicas exchange `Prepare` and `Commit`
//! messages (two all-to-all rounds); a slot is accepted once `nf = n − f`
//! matching `Commit` messages arrive. Replicas detect a faulty primary via a
//! progress timeout and replace it with a view change. The implementation
//! supports out-of-order processing: the primary may have up to
//! `out_of_order_window` slots in flight simultaneously, which is what lets
//! it saturate its outgoing bandwidth in ResilientDB.

use crate::bca::{
    Action, ByzantineCommitAlgorithm, CommittedSlot, FailureReason, TimerId, WireMessage,
};
use crate::quorum::QuorumTracker;
use rcc_common::codec::{Decode, Encode, Reader, WireError};
use rcc_common::ids::primary_of_view;
use rcc_common::{
    Batch, Digest, InstanceId, InstanceStatus, ReplicaId, Round, SystemConfig, Time, View,
};
use rcc_crypto::hash::digest_batch;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Messages exchanged by PBFT replicas.
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum PbftMessage {
    /// The primary's proposal of `batch` as the `round`-th slot of `view`.
    PrePrepare {
        /// View in which the proposal is made.
        view: View,
        /// Slot (sequence number) of the proposal.
        round: Round,
        /// Digest of the batch.
        digest: Digest,
        /// The proposed batch.
        batch: Batch,
    },
    /// A replica's announcement that it received the proposal for `round`.
    Prepare {
        /// View of the proposal.
        view: View,
        /// Slot being prepared.
        round: Round,
        /// Digest being prepared.
        digest: Digest,
    },
    /// A replica's announcement that `round` is prepared (recoverable from
    /// any quorum) and can be committed.
    Commit {
        /// View of the proposal.
        view: View,
        /// Slot being committed.
        round: Round,
        /// Digest being committed.
        digest: Digest,
    },
    /// A replica's vote to abandon the current view and move to `new_view`.
    ViewChange {
        /// The proposed new view.
        new_view: View,
        /// Rounds committed contiguously by the sender.
        committed_prefix: Round,
        /// Slots the sender has *prepared* but not yet committed, with their
        /// batches so the next primary can re-propose them.
        prepared: Vec<(Round, Digest, Batch)>,
    },
    /// The new primary's announcement of `view`, carrying the proposals that
    /// must be re-issued.
    NewView {
        /// The new view.
        view: View,
        /// Slots re-proposed in the new view.
        preprepares: Vec<(Round, Digest, Batch)>,
    },
}

impl WireMessage for PbftMessage {
    fn wire_size(&self) -> usize {
        match self {
            PbftMessage::PrePrepare { batch, .. } => 200 + batch.wire_size(),
            PbftMessage::Prepare { .. } | PbftMessage::Commit { .. } => 250,
            PbftMessage::ViewChange { prepared, .. } => {
                250 + prepared
                    .iter()
                    .map(|(_, _, b)| b.wire_size() + 48)
                    .sum::<usize>()
            }
            PbftMessage::NewView { preprepares, .. } => {
                250 + preprepares
                    .iter()
                    .map(|(_, _, b)| b.wire_size() + 48)
                    .sum::<usize>()
            }
        }
    }

    fn is_proposal(&self) -> bool {
        matches!(
            self,
            PbftMessage::PrePrepare { .. } | PbftMessage::NewView { .. }
        )
    }

    fn payload_transactions(&self) -> usize {
        match self {
            PbftMessage::PrePrepare { batch, .. } => batch.len(),
            PbftMessage::Prepare { .. } | PbftMessage::Commit { .. } => 0,
            PbftMessage::ViewChange { prepared, .. } => {
                prepared.iter().map(|(_, _, b)| b.len()).sum()
            }
            PbftMessage::NewView { preprepares, .. } => {
                preprepares.iter().map(|(_, _, b)| b.len()).sum()
            }
        }
    }
}

impl Encode for PbftMessage {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            PbftMessage::PrePrepare {
                view,
                round,
                digest,
                batch,
            } => {
                out.push(0);
                view.encode(out);
                round.encode(out);
                digest.encode(out);
                batch.encode(out);
            }
            PbftMessage::Prepare {
                view,
                round,
                digest,
            } => {
                out.push(1);
                view.encode(out);
                round.encode(out);
                digest.encode(out);
            }
            PbftMessage::Commit {
                view,
                round,
                digest,
            } => {
                out.push(2);
                view.encode(out);
                round.encode(out);
                digest.encode(out);
            }
            PbftMessage::ViewChange {
                new_view,
                committed_prefix,
                prepared,
            } => {
                out.push(3);
                new_view.encode(out);
                committed_prefix.encode(out);
                prepared.encode(out);
            }
            PbftMessage::NewView { view, preprepares } => {
                out.push(4);
                view.encode(out);
                preprepares.encode(out);
            }
        }
    }
}

impl Decode for PbftMessage {
    fn decode(input: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(match input.u8()? {
            0 => PbftMessage::PrePrepare {
                view: input.u64()?,
                round: input.u64()?,
                digest: Digest::decode(input)?,
                batch: Batch::decode(input)?,
            },
            1 => PbftMessage::Prepare {
                view: input.u64()?,
                round: input.u64()?,
                digest: Digest::decode(input)?,
            },
            2 => PbftMessage::Commit {
                view: input.u64()?,
                round: input.u64()?,
                digest: Digest::decode(input)?,
            },
            3 => PbftMessage::ViewChange {
                new_view: input.u64()?,
                committed_prefix: input.u64()?,
                prepared: Vec::decode(input)?,
            },
            4 => PbftMessage::NewView {
                view: input.u64()?,
                preprepares: Vec::decode(input)?,
            },
            tag => {
                return Err(WireError::InvalidTag {
                    context: "PbftMessage",
                    tag,
                })
            }
        })
    }
}

#[derive(Clone, Debug, Default)]
struct Slot {
    digest: Option<Digest>,
    batch: Option<Batch>,
    prepares: QuorumTracker,
    commits: QuorumTracker,
    sent_prepare: bool,
    sent_commit: bool,
    committed: bool,
    view: View,
}

/// A slot the sender had prepared but not committed when voting for a view
/// change, carried so the next primary can re-propose it.
type PreparedSlot = (Round, Digest, Batch);

/// One replica's view-change vote: its committed prefix plus its prepared
/// slots.
type ViewChangeVote = (Round, Vec<PreparedSlot>);

/// The PBFT state machine for one replica of one consensus instance.
#[derive(Clone, Debug)]
pub struct Pbft {
    config: SystemConfig,
    replica: ReplicaId,
    /// The replica that acts as primary in view 0. For standalone PBFT this
    /// is replica 0; inside RCC, instance `i` fixes replica `i` as its
    /// coordinator.
    base_primary: ReplicaId,
    view: View,
    next_proposal_round: Round,
    committed_prefix: Round,
    slots: BTreeMap<Round, Slot>,
    /// The low watermark: every round below it is covered by a stable
    /// checkpoint and its per-slot state has been discarded
    /// ([`ByzantineCommitAlgorithm::truncate_below`]). Consensus messages
    /// for rounds below the watermark are ignored — re-creating a pruned
    /// slot would re-vote on state that is already final.
    stable_round: Round,
    in_view_change: bool,
    view_change_votes: BTreeMap<View, BTreeMap<ReplicaId, ViewChangeVote>>,
    entered_new_view: BTreeMap<View, bool>,
    next_timer: u64,
    progress_timer: Option<(TimerId, Round)>,
    /// The view-change abort/retry timer: armed when this replica starts a
    /// view change, carrying the view it is trying to reach. If it fires
    /// while the view change is still incomplete — nobody else joined — the
    /// replica *aborts* the attempt (clearing `in_view_change`, which
    /// otherwise suppresses proposals and the RCC lag escalation forever)
    /// and re-broadcasts its vote so peers whose copy was lost can still
    /// accumulate evidence. Retries back off exponentially.
    view_change_timer: Option<(TimerId, View)>,
    view_change_attempts: u32,
    /// Slots committed under the *current* view — the demonstrated progress
    /// of the current primary, reset on every view change. Reported via
    /// [`ByzantineCommitAlgorithm::instance_statuses`] for the Section III-E
    /// client-assignment policy's σ-spaced hand-backs.
    committed_in_view: u64,
    /// Consensus messages that arrived *early*: stamped with a view this
    /// replica has not entered yet (or its current view while it is still
    /// mid view change). Dropping them — as this implementation originally
    /// did — loses them forever, because nothing retransmits: a new
    /// primary's gap-fill PrePrepares race its NEW-VIEW over jittered links,
    /// the losers are discarded, the affected slots can never reach their
    /// prepare quorum, and the progress timers escalate a *working* new
    /// coordinator into yet another view change. Buffered messages are
    /// replayed on entering the view they were stamped with. Bounded by
    /// [`Pbft::early_message_cap`]; overflow drops the incoming message.
    early_messages: Vec<(ReplicaId, PbftMessage)>,
    /// The NEW-VIEW that carried this replica into its current view (its
    /// view plus the re-proposals it listed), kept so the view's primary can
    /// *retransmit* it to a replica that provably never learned the view
    /// change completed — a deposed primary that was crashed while its
    /// peers moved on otherwise stays a permanently-behind backup, because
    /// nothing in base PBFT ever re-sends NEW-VIEW.
    last_new_view: Option<(View, Vec<PreparedSlot>)>,
    /// Per-replica rate limit for the catch-up hint: the highest view this
    /// replica has already hinted to each peer. One hint per (peer, view)
    /// is essential, not just polite — the hint is itself a `ViewChange`
    /// message, and a *trailing* vote from an up-to-date peer (the last
    /// replica's vote routinely arrives after the quorum entered the view)
    /// would otherwise elicit hint → counter-hint → … forever. It also
    /// caps the response to a stale coordinator draining a whole pipeline
    /// window of doomed proposals at once. Bounded at one entry per peer.
    catch_up_hinted: BTreeMap<ReplicaId, View>,
}

impl Pbft {
    /// Creates the PBFT state machine for `replica`, with `base_primary`
    /// acting as the view-0 primary.
    pub fn new(config: SystemConfig, replica: ReplicaId, base_primary: ReplicaId) -> Self {
        Pbft {
            config,
            replica,
            base_primary,
            view: 0,
            next_proposal_round: 0,
            committed_prefix: 0,
            slots: BTreeMap::new(),
            stable_round: 0,
            in_view_change: false,
            view_change_votes: BTreeMap::new(),
            entered_new_view: BTreeMap::new(),
            next_timer: 0,
            progress_timer: None,
            view_change_timer: None,
            view_change_attempts: 0,
            committed_in_view: 0,
            early_messages: Vec::new(),
            last_new_view: None,
            catch_up_hinted: BTreeMap::new(),
        }
    }

    /// Standalone PBFT with replica 0 as the initial primary.
    pub fn standalone(config: SystemConfig, replica: ReplicaId) -> Self {
        Pbft::new(config, replica, ReplicaId(0))
    }

    fn quorum(&self) -> usize {
        self.config.quorum()
    }

    fn primary_of(&self, view: View) -> ReplicaId {
        // Rotate starting from the base primary.
        let offset = (self.base_primary.0 as u64 + view) % self.config.n as u64;
        primary_of_view(offset, self.config.n)
    }

    fn alloc_timer(&mut self) -> TimerId {
        self.next_timer += 1;
        TimerId(self.next_timer)
    }

    /// Upper bound on buffered early messages: enough for every replica to
    /// have a full pipeline window of PrePrepare + Prepare + Commit in
    /// flight across a view boundary, with headroom. A Byzantine flood
    /// beyond the cap costs only the flooder's own messages.
    fn early_message_cap(&self) -> usize {
        (self.config.out_of_order_window + 4) * 3 * self.config.n
    }

    /// How far ahead of the current view a message may be and still be worth
    /// buffering. A legitimate race spans the view boundary being crossed
    /// (occasionally two, when this replica is catching up through
    /// back-to-back view changes); anything further cannot become valid
    /// before an `enter_view` that would drop it anyway, and without this
    /// bound a Byzantine peer could park messages stamped with an absurd
    /// view in the buffer *forever* — every replay re-buffers them, pinning
    /// the buffer at its cap and crowding out the real boundary traffic.
    fn bufferable(&self, view: View) -> bool {
        view <= self.view + 2
    }

    /// Buffers a message stamped with view `view`, which this replica has
    /// not entered yet, to be replayed by [`Pbft::enter_view`]. The cap is
    /// enforced per sender, so one flooding peer cannot evict the boundary
    /// traffic of the honest ones.
    fn buffer_early(&mut self, from: ReplicaId, view: View, message: PbftMessage) {
        if !self.bufferable(view) {
            return;
        }
        let per_sender = self.early_message_cap() / self.config.n.max(1);
        let from_sender = self
            .early_messages
            .iter()
            .filter(|(sender, _)| *sender == from)
            .count();
        if from_sender < per_sender.max(1) {
            self.early_messages.push((from, message));
        }
    }

    /// `true` when a consensus message stamped `view` arrived before this
    /// replica entered that view (including its current view while it is
    /// still completing the view change).
    fn is_early(&self, view: View) -> bool {
        view > self.view || (view == self.view && self.in_view_change)
    }

    /// Broadcasts this replica's Prepare + Commit votes for a slot it
    /// already committed, stamped with `view`. Used when a later view
    /// re-proposes the committed digest: this replica will never re-enter
    /// the prepare/commit phases for the slot, so without the explicit
    /// re-announcement the replicas that lost their votes across the view
    /// boundary can be one vote short of a quorum forever (with n = 4 the
    /// quorum is all three non-faulty replicas). Safe: a committed digest is
    /// final, and the callers verify the re-proposed digest matches it.
    fn reannounce_committed(
        &self,
        view: View,
        round: Round,
        digest: Digest,
        actions: &mut Vec<Action<PbftMessage>>,
    ) {
        actions.push(Action::Broadcast {
            message: PbftMessage::Prepare {
                view,
                round,
                digest,
            },
        });
        actions.push(Action::Broadcast {
            message: PbftMessage::Commit {
                view,
                round,
                digest,
            },
        });
    }

    fn slot(&mut self, round: Round) -> &mut Slot {
        self.slots.entry(round).or_default()
    }

    fn advance_committed_prefix(&mut self) {
        while self
            .slots
            .get(&self.committed_prefix)
            .map(|s| s.committed)
            .unwrap_or(false)
        {
            self.committed_prefix += 1;
        }
    }

    /// Re-arm the progress timer to watch the oldest uncommitted slot.
    fn rearm_progress_timer(&mut self, now: Time, actions: &mut Vec<Action<PbftMessage>>) {
        if let Some((timer, _)) = self.progress_timer.take() {
            actions.push(Action::CancelTimer { timer });
        }
        let has_outstanding = self.next_proposal_round > self.committed_prefix
            || self
                .slots
                .range(self.committed_prefix..)
                .any(|(_, s)| !s.committed);
        if has_outstanding {
            let timer = self.alloc_timer();
            self.progress_timer = Some((timer, self.committed_prefix));
            actions.push(Action::SetTimer {
                timer,
                fires_at: now + self.config.failure_detection_timeout,
            });
        }
    }

    fn try_prepare_and_commit(
        &mut self,
        now: Time,
        round: Round,
        actions: &mut Vec<Action<PbftMessage>>,
    ) {
        let view = self.view;
        let quorum = self.quorum();
        let replica = self.replica;
        let Some(slot) = self.slots.get_mut(&round) else {
            return;
        };
        let Some(digest) = slot.digest else { return };

        // Phase 2: once the proposal is known, announce a PREPARE (every
        // replica, including the primary, votes exactly once).
        if !slot.sent_prepare {
            slot.sent_prepare = true;
            slot.prepares.vote(replica, digest);
            actions.push(Action::Broadcast {
                message: PbftMessage::Prepare {
                    view,
                    round,
                    digest,
                },
            });
        }

        // Phase 3: prepared once nf distinct replicas announced PREPARE.
        if !slot.sent_commit && slot.prepares.has_quorum(&digest, quorum) {
            slot.sent_commit = true;
            slot.commits.vote(replica, digest);
            actions.push(Action::Broadcast {
                message: PbftMessage::Commit {
                    view,
                    round,
                    digest,
                },
            });
        }

        // Accept once nf distinct replicas announced COMMIT.
        if !slot.committed && slot.sent_commit && slot.commits.has_quorum(&digest, quorum) {
            slot.committed = true;
            self.committed_in_view += 1;
            let batch = slot.batch.clone().unwrap_or_else(|| Batch::new(vec![]));
            actions.push(Action::Commit(CommittedSlot {
                round,
                digest,
                batch,
                speculative: false,
                view,
            }));
            self.advance_committed_prefix();
            self.rearm_progress_timer(now, actions);
        }
    }

    /// The slots this replica has prepared (quorum of PREPAREs seen) but not
    /// committed — what a view-change vote carries so the next primary can
    /// re-propose them.
    fn prepared_slots(&self) -> Vec<PreparedSlot> {
        self.slots
            .iter()
            .filter(|(round, slot)| {
                **round >= self.committed_prefix
                    && !slot.committed
                    && slot
                        .digest
                        .map(|d| slot.prepares.has_quorum(&d, self.quorum()))
                        .unwrap_or(false)
                    && slot.batch.is_some()
            })
            .map(|(round, slot)| (*round, slot.digest.unwrap(), slot.batch.clone().unwrap()))
            .collect()
    }

    /// Sends `from` — a replica that just proved it never learned this
    /// replica's current view exists (it voted for, or proposed in, a view
    /// change that already completed here) — what it needs to catch up:
    ///
    /// * a *fresh* view-change vote endorsing the current view, truthful
    ///   because this replica did make that transition (the original votes
    ///   were pruned on entry), so the laggard can accumulate the `f + 1`
    ///   vote evidence its NEW-VIEW acceptance requires; and
    /// * from the current view's **primary**, a retransmission of the
    ///   NEW-VIEW itself (only the primary's copy passes the receiver's
    ///   sender check).
    ///
    /// Without this, a deposed primary that was crashed through its own
    /// replacement never learns the new view — nothing in base PBFT
    /// retransmits NEW-VIEW — and survives only as a permanently-behind
    /// backup. The laggard buffers an early NEW-VIEW and replays it as the
    /// votes arrive, so arrival order does not matter.
    ///
    /// `laggard_view` is the view the sender demonstrated it is still in.
    /// Hints reach at most two views ahead of it (the receiver's own
    /// anti-flooding bound drops anything further); deeper gaps are left to
    /// checkpoint-based state sync. Hints fire once per (peer, view) — see
    /// [`Pbft::catch_up_hinted`] for why the limit is load-bearing.
    fn hint_completed_view_change(
        &mut self,
        from: ReplicaId,
        laggard_view: View,
        actions: &mut Vec<Action<PbftMessage>>,
    ) {
        if self.view == 0 || self.in_view_change || self.view > laggard_view + 2 {
            return;
        }
        if self.catch_up_hinted.get(&from).copied().unwrap_or(0) >= self.view {
            return;
        }
        self.catch_up_hinted.insert(from, self.view);
        actions.push(Action::Send {
            to: from,
            message: PbftMessage::ViewChange {
                new_view: self.view,
                committed_prefix: self.committed_prefix,
                prepared: self.prepared_slots(),
            },
        });
        if self.is_primary() {
            if let Some((view, preprepares)) = self.last_new_view.clone() {
                if view == self.view {
                    actions.push(Action::Send {
                        to: from,
                        message: PbftMessage::NewView { view, preprepares },
                    });
                }
            }
        }
    }

    fn start_view_change(&mut self, now: Time, actions: &mut Vec<Action<PbftMessage>>) {
        let new_view = self.view + 1;
        self.in_view_change = true;
        let prepared: Vec<(Round, Digest, Batch)> = self.prepared_slots();
        let message = PbftMessage::ViewChange {
            new_view,
            committed_prefix: self.committed_prefix,
            prepared: prepared.clone(),
        };
        // Record our own vote.
        self.view_change_votes
            .entry(new_view)
            .or_default()
            .insert(self.replica, (self.committed_prefix, prepared));
        actions.push(Action::Broadcast { message });
        // Arm the abort/retry timer: if the view change does not complete
        // before it fires — this replica voted alone and nobody joined — the
        // attempt is abandoned instead of wedging the replica in
        // `in_view_change` forever. Exponential back-off keeps a persistently
        // lonely voter from spamming.
        if let Some((timer, _)) = self.view_change_timer.take() {
            actions.push(Action::CancelTimer { timer });
        }
        let timer = self.alloc_timer();
        let backoff = self
            .config
            .recovery_leader_timeout
            .saturating_mul(1u64 << self.view_change_attempts.min(6));
        self.view_change_timer = Some((timer, new_view));
        actions.push(Action::SetTimer {
            timer,
            fires_at: now + backoff,
        });
    }

    fn maybe_enter_new_view(&mut self, now: Time, actions: &mut Vec<Action<PbftMessage>>) {
        let candidate_view = self.view + 1;
        let votes = match self.view_change_votes.get(&candidate_view) {
            Some(v) => v,
            None => return,
        };
        if votes.len() < self.quorum() {
            return;
        }
        if self.primary_of(candidate_view) != self.replica {
            return;
        }
        if *self.entered_new_view.get(&candidate_view).unwrap_or(&false) {
            return;
        }
        self.entered_new_view.insert(candidate_view, true);
        // Collect the union of prepared-but-uncommitted slots reported by the
        // view-change quorum and re-propose them in the new view.
        let mut to_repropose: BTreeMap<Round, (Digest, Batch)> = BTreeMap::new();
        for (_, (_, prepared)) in votes.iter() {
            for (round, digest, batch) in prepared {
                to_repropose
                    .entry(*round)
                    .or_insert((*digest, batch.clone()));
            }
        }
        let preprepares: Vec<(Round, Digest, Batch)> = to_repropose
            .into_iter()
            .map(|(round, (digest, batch))| (round, digest, batch))
            .collect();
        let message = PbftMessage::NewView {
            view: candidate_view,
            preprepares: preprepares.clone(),
        };
        actions.push(Action::Broadcast { message });
        // Enter the view locally as the new primary.
        self.enter_view(now, candidate_view, preprepares, actions);
    }

    fn enter_view(
        &mut self,
        now: Time,
        view: View,
        preprepares: Vec<(Round, Digest, Batch)>,
        actions: &mut Vec<Action<PbftMessage>>,
    ) {
        self.view = view;
        self.in_view_change = false;
        self.committed_in_view = 0;
        // Keep the NEW-VIEW that carried us here: the view's primary
        // retransmits it to replicas that provably missed the view change
        // (see `hint_completed_view_change`).
        self.last_new_view = Some((view, preprepares.clone()));
        // The view change completed: the abort/retry machinery resets, and
        // vote bookkeeping for views at or below the one just entered is
        // garbage — prune it so the maps stay bounded by the views still
        // reachable instead of growing with the instance's lifetime.
        self.view_change_attempts = 0;
        if let Some((timer, _)) = self.view_change_timer.take() {
            actions.push(Action::CancelTimer { timer });
        }
        self.view_change_votes = self.view_change_votes.split_off(&(view + 1));
        self.entered_new_view = self.entered_new_view.split_off(&view);
        actions.push(Action::ViewChanged {
            view,
            new_primary: self.primary_of(view),
        });
        // Reset per-slot phase flags for uncommitted slots: votes from the
        // old view do not carry over.
        let committed_prefix = self.committed_prefix;
        for (_, slot) in self.slots.range_mut(committed_prefix..) {
            if !slot.committed {
                *slot = Slot::default();
            }
        }
        // Apply the re-proposals.
        let mut reproposals: Vec<Round> = Vec::with_capacity(preprepares.len());
        for (round, digest, batch) in preprepares {
            if round < self.stable_round {
                // The round is behind the stable checkpoint: already final
                // everywhere, nothing to re-propose.
                continue;
            }
            if let Some(slot) = self.slots.get(&round) {
                if slot.committed {
                    if slot.digest == Some(digest) {
                        // Already committed here in an earlier view: this
                        // replica will never re-enter the prepare/commit
                        // phases for the slot, so re-announce its votes in
                        // the new view instead — without this the replicas
                        // that lost their votes across the view boundary can
                        // be one vote short of a quorum forever.
                        self.reannounce_committed(view, round, digest, actions);
                    } else {
                        // The NEW-VIEW re-proposes a *different* (internally
                        // consistent) digest for a slot this replica already
                        // executed. Never overwrite a committed slot — doing
                        // so would later make this replica vote for a value
                        // it executed differently. A committed digest is
                        // backed by a quorum, so a conflicting re-proposal
                        // proves the new primary faulty.
                        actions.push(Action::SuspectPrimary {
                            primary: self.primary_of(view),
                            reason: FailureReason::InvalidProposal {
                                round,
                                description: "NEW-VIEW re-proposes a digest conflicting \
                                              with a committed slot"
                                    .into(),
                            },
                        });
                    }
                    continue;
                }
            }
            let slot = self.slot(round);
            slot.view = view;
            slot.digest = Some(digest);
            slot.batch = Some(batch);
            reproposals.push(round);
        }
        for round in reproposals {
            self.try_prepare_and_commit(now, round, actions);
        }
        // The new primary resumes proposing after the highest slot seen, and
        // fills every round the old primary left without a recoverable
        // proposal with a no-op batch. Without this, a round the faulty
        // primary proposed to fewer than a prepare-quorum of replicas would
        // never commit and would stall the contiguous prefix forever — and,
        // inside RCC, stall the round-based execution order (the "orderer
        // substitutes a no-op after the view change" behaviour of Section
        // III-C is realised by committing these no-ops through the instance).
        if self.is_primary() {
            let max_known = self
                .slots
                .keys()
                .next_back()
                .copied()
                .map(|r| r + 1)
                .unwrap_or(0);
            self.next_proposal_round = self.next_proposal_round.max(max_known);
            let gaps: Vec<Round> = (self.committed_prefix..self.next_proposal_round)
                .filter(|r| {
                    self.slots
                        .get(r)
                        .map(|s| s.digest.is_none())
                        .unwrap_or(true)
                })
                .collect();
            for round in gaps {
                let batch = Batch::noop(InstanceId(self.base_primary.0), round);
                let digest = digest_batch(&batch);
                {
                    let slot = self.slot(round);
                    slot.view = view;
                    slot.digest = Some(digest);
                    slot.batch = Some(batch.clone());
                }
                actions.push(Action::Broadcast {
                    message: PbftMessage::PrePrepare {
                        view,
                        round,
                        digest,
                        batch,
                    },
                });
                self.try_prepare_and_commit(now, round, actions);
            }
        }
        // Replay the consensus messages that raced ahead of this view's
        // NEW-VIEW: they were stamped with a view that now exists, and
        // without them slots proposed around the view boundary could never
        // assemble their quorums (messages still early for a later view are
        // re-buffered by the handler).
        let buffered = std::mem::take(&mut self.early_messages);
        for (from, message) in buffered {
            let replayed = self.on_message(now, from, message);
            actions.extend(replayed);
        }
        self.rearm_progress_timer(now, actions);
    }
}

impl ByzantineCommitAlgorithm for Pbft {
    type Message = PbftMessage;

    fn name(&self) -> &'static str {
        "PBFT"
    }

    fn replica(&self) -> ReplicaId {
        self.replica
    }

    fn primary(&self) -> ReplicaId {
        self.primary_of(self.view)
    }

    fn view(&self) -> View {
        self.view
    }

    fn in_view_change(&self) -> bool {
        self.in_view_change
    }

    fn instance_statuses(&self) -> Vec<InstanceStatus> {
        // A standalone Pbft is always "instance 0" per the trait contract;
        // it does not know which RCC instance it is embedded in (the RCC
        // replica layer overrides this method with real instance ids).
        vec![InstanceStatus {
            instance: InstanceId(0),
            coordinator: self.primary(),
            view: self.view,
            in_view_change: self.in_view_change,
            progress_in_view: self.committed_in_view,
        }]
    }

    fn proposal_capacity(&self) -> usize {
        if !self.is_primary() || self.in_view_change {
            return 0;
        }
        let in_flight = (self.next_proposal_round - self.committed_prefix) as usize;
        self.config.out_of_order_window.saturating_sub(in_flight)
    }

    fn committed_prefix(&self) -> Round {
        self.committed_prefix
    }

    fn next_proposal_round(&self) -> Round {
        self.next_proposal_round
    }

    fn stable_round(&self) -> Round {
        self.stable_round
    }

    fn truncate_below(&mut self, round: Round) {
        if round <= self.stable_round {
            return;
        }
        self.stable_round = round;
        // A stable checkpoint at `round` certifies the whole deployment's
        // state below it — including slots this instance never committed
        // locally (the embedding adopted them via state sync). The low
        // watermark therefore moves the committed prefix up too: those
        // rounds are final, this instance will never vote on them again.
        self.committed_prefix = self.committed_prefix.max(round);
        self.next_proposal_round = self.next_proposal_round.max(round);
        self.slots = self.slots.split_off(&round);
        self.advance_committed_prefix();
    }

    fn retained_log_entries(&self) -> u64 {
        self.slots.len() as u64
            + self.early_messages.len() as u64
            + self
                .view_change_votes
                .values()
                .map(|votes| votes.len() as u64)
                .sum::<u64>()
    }

    fn on_lag_detected(&mut self, now: Time) -> Vec<Action<PbftMessage>> {
        let mut actions = vec![Action::SuspectPrimary {
            primary: self.primary(),
            reason: FailureReason::ProgressTimeout {
                round: self.committed_prefix,
            },
        }];
        if !self.in_view_change {
            self.start_view_change(now, &mut actions);
        }
        actions
    }

    fn propose(&mut self, now: Time, batch: Batch) -> Vec<Action<PbftMessage>> {
        let mut actions = Vec::new();
        if self.proposal_capacity() == 0 {
            return actions;
        }
        let round = self.next_proposal_round;
        self.next_proposal_round += 1;
        let digest = digest_batch(&batch);
        let view = self.view;
        {
            let slot = self.slot(round);
            slot.view = view;
            slot.digest = Some(digest);
            slot.batch = Some(batch.clone());
        }
        actions.push(Action::Broadcast {
            message: PbftMessage::PrePrepare {
                view,
                round,
                digest,
                batch,
            },
        });
        self.try_prepare_and_commit(now, round, &mut actions);
        if self.progress_timer.is_none() {
            self.rearm_progress_timer(now, &mut actions);
        }
        actions
    }

    fn on_message(
        &mut self,
        now: Time,
        from: ReplicaId,
        message: PbftMessage,
    ) -> Vec<Action<PbftMessage>> {
        let mut actions = Vec::new();
        match message {
            PbftMessage::PrePrepare {
                view,
                round,
                digest,
                batch,
            } => {
                // A proposal stamped with an *old* view by that view's
                // primary: the sender is a deposed primary that never
                // learned its own replacement (it was crashed through the
                // view change and nothing retransmits NEW-VIEW). Its
                // proposals can never commit; teach it the completed view
                // change instead of silently dropping them. Checked before
                // the stable-round gate — a long-crashed primary's doomed
                // proposals are usually below the survivors' checkpoints.
                if view < self.view {
                    if from == self.primary_of(view) {
                        self.hint_completed_view_change(from, view, &mut actions);
                    }
                    return actions;
                }
                // Rounds below the stable checkpoint are final and their
                // slots pruned; re-creating one would re-vote settled state.
                if round < self.stable_round {
                    return actions;
                }
                if self.is_early(view) {
                    self.buffer_early(
                        from,
                        view,
                        PbftMessage::PrePrepare {
                            view,
                            round,
                            digest,
                            batch,
                        },
                    );
                    return actions;
                }
                if view != self.view {
                    return actions;
                }
                if from != self.primary() {
                    // Only the primary may propose.
                    return actions;
                }
                let existing = self.slots.get(&round).and_then(|s| s.digest);
                if let Some(existing) = existing {
                    if existing != digest {
                        actions.push(Action::SuspectPrimary {
                            primary: self.primary(),
                            reason: FailureReason::Equivocation {
                                round,
                                first: existing,
                                second: digest,
                            },
                        });
                        self.start_view_change(now, &mut actions);
                        return actions;
                    }
                } else {
                    if digest_batch(&batch) != digest {
                        actions.push(Action::SuspectPrimary {
                            primary: self.primary(),
                            reason: FailureReason::InvalidProposal {
                                round,
                                description: "digest does not match batch".into(),
                            },
                        });
                        return actions;
                    }
                    let slot = self.slot(round);
                    slot.view = view;
                    slot.digest = Some(digest);
                    slot.batch = Some(batch);
                }
                // The slot already committed here in an *earlier* view — the
                // proposer is re-issuing it because other replicas lost their
                // votes across the view boundary. This replica will never
                // re-enter the prepare/commit phases for a committed slot, so
                // without an explicit re-announcement the remaining replicas
                // can be one vote short of a quorum forever (with n = 4 the
                // quorum is all three non-faulty replicas). Re-announcing the
                // committed digest in the proposer's view is safe: a
                // committed digest is final, and the equivocation check above
                // rejects any other digest for the round.
                if self.slots.get(&round).map(|s| s.committed).unwrap_or(false) {
                    self.reannounce_committed(view, round, digest, &mut actions);
                    return actions;
                }
                if self.next_proposal_round <= round {
                    self.next_proposal_round = round + 1;
                }
                if self.progress_timer.is_none() {
                    self.rearm_progress_timer(now, &mut actions);
                }
                self.try_prepare_and_commit(now, round, &mut actions);
            }
            PbftMessage::Prepare {
                view,
                round,
                digest,
            } => {
                if round < self.stable_round {
                    return actions;
                }
                if self.is_early(view) {
                    self.buffer_early(
                        from,
                        view,
                        PbftMessage::Prepare {
                            view,
                            round,
                            digest,
                        },
                    );
                    return actions;
                }
                if view != self.view {
                    return actions;
                }
                self.slot(round).prepares.vote(from, digest);
                self.try_prepare_and_commit(now, round, &mut actions);
            }
            PbftMessage::Commit {
                view,
                round,
                digest,
            } => {
                if round < self.stable_round {
                    return actions;
                }
                if self.is_early(view) {
                    self.buffer_early(
                        from,
                        view,
                        PbftMessage::Commit {
                            view,
                            round,
                            digest,
                        },
                    );
                    return actions;
                }
                if view != self.view {
                    return actions;
                }
                self.slot(round).commits.vote(from, digest);
                self.try_prepare_and_commit(now, round, &mut actions);
            }
            PbftMessage::ViewChange {
                new_view,
                committed_prefix,
                prepared,
            } => {
                if new_view <= self.view {
                    // A vote for a view change that already completed here:
                    // the voter is behind — most importantly, a deposed
                    // primary that was crashed while everyone else moved on
                    // finally asking for a view it will never be granted.
                    // Answer with the completed outcome (fresh vote
                    // evidence, plus NEW-VIEW from the view's primary) so
                    // it re-joins as a backup instead of staying
                    // permanently behind. (A *trailing* vote from a peer
                    // that entered the view with us takes this path too —
                    // the per-(peer, view) rate limit keeps that from
                    // ping-ponging hints, at the cost of one redundant
                    // exchange per boundary.)
                    self.hint_completed_view_change(from, new_view.saturating_sub(1), &mut actions);
                    return actions;
                }
                // Bound the vote bookkeeping the same way early messages are
                // bounded: views more than two ahead cannot become current
                // before an `enter_view` prunes them, and without the bound a
                // Byzantine peer could grow `view_change_votes` one entry per
                // forged view number.
                if !self.bufferable(new_view) {
                    return actions;
                }
                self.view_change_votes
                    .entry(new_view)
                    .or_default()
                    .insert(from, (committed_prefix, prepared));
                let votes = self
                    .view_change_votes
                    .get(&new_view)
                    .map(|v| v.len())
                    .unwrap_or(0);
                // f + 1 view-change votes prove at least one non-faulty replica
                // timed out: join the view change.
                if votes >= self.config.weak_quorum()
                    && !self.in_view_change
                    && new_view == self.view + 1
                {
                    actions.push(Action::SuspectPrimary {
                        primary: self.primary(),
                        reason: FailureReason::LeaderTimeout { view: self.view },
                    });
                    self.start_view_change(now, &mut actions);
                }
                self.maybe_enter_new_view(now, &mut actions);
                // A NEW-VIEW that raced ahead of its vote evidence may have
                // been buffered; the vote just recorded could be the one that
                // makes it acceptable.
                if self
                    .early_messages
                    .iter()
                    .any(|(_, m)| matches!(m, PbftMessage::NewView { .. }))
                {
                    let buffered = std::mem::take(&mut self.early_messages);
                    for (sender, message) in buffered {
                        let replayed = self.on_message(now, sender, message);
                        actions.extend(replayed);
                    }
                }
            }
            PbftMessage::NewView { view, preprepares } => {
                if view <= self.view {
                    return actions;
                }
                if from != self.primary_of(view) {
                    return actions;
                }
                // Only follow a NEW-VIEW backed by evidence: at least f + 1
                // locally recorded VIEW-CHANGE votes for that view prove at
                // least one non-faulty replica abandoned the old primary.
                // Without this, a single Byzantine replica could depose a
                // healthy primary the moment its round-robin turn comes up.
                // (Carrying the full vote certificate inside NEW-VIEW, as
                // original PBFT does, is tracked in ROADMAP.md.)
                let evidence = self
                    .view_change_votes
                    .get(&view)
                    .map(|v| v.len())
                    .unwrap_or(0);
                if evidence < self.config.weak_quorum() {
                    // Not enough locally recorded votes *yet*: the NEW-VIEW
                    // may simply have raced ahead of the VIEW-CHANGE votes on
                    // jittered links, and nothing retransmits it. Buffer it;
                    // the vote handler replays it as evidence accumulates.
                    self.buffer_early(from, view, PbftMessage::NewView { view, preprepares });
                    return actions;
                }
                // Re-proposals must be internally consistent; a mismatched
                // digest proves the new primary is faulty.
                if preprepares
                    .iter()
                    .any(|(_, digest, batch)| digest_batch(batch) != *digest)
                {
                    actions.push(Action::SuspectPrimary {
                        primary: from,
                        reason: FailureReason::InvalidProposal {
                            round: self.committed_prefix,
                            description: "NEW-VIEW re-proposal digest does not match batch".into(),
                        },
                    });
                    return actions;
                }
                self.enter_view(now, view, preprepares, &mut actions);
            }
        }
        actions
    }

    fn on_timeout(&mut self, now: Time, timer: TimerId) -> Vec<Action<PbftMessage>> {
        let mut actions = Vec::new();
        if let Some((armed, target_view)) = self.view_change_timer {
            if armed == timer {
                self.view_change_timer = None;
                if self.in_view_change && self.view < target_view {
                    // The view change never completed — this replica's vote
                    // found no quorum. Abort the attempt so proposals and the
                    // RCC lag escalation resume (staying `in_view_change`
                    // forever suppresses both), and retry by re-broadcasting
                    // the vote: the original may simply have been lost.
                    self.in_view_change = false;
                    self.view_change_attempts += 1;
                    if let Some((committed_prefix, prepared)) = self
                        .view_change_votes
                        .get(&target_view)
                        .and_then(|votes| votes.get(&self.replica))
                        .cloned()
                    {
                        actions.push(Action::Broadcast {
                            message: PbftMessage::ViewChange {
                                new_view: target_view,
                                committed_prefix,
                                prepared,
                            },
                        });
                    }
                    self.rearm_progress_timer(now, &mut actions);
                }
                return actions;
            }
        }
        let Some((armed, watched_prefix)) = self.progress_timer else {
            return actions;
        };
        if armed != timer {
            return actions;
        }
        self.progress_timer = None;
        // Progress was made since the timer was armed: just re-arm.
        if self.committed_prefix > watched_prefix {
            self.rearm_progress_timer(now, &mut actions);
            return actions;
        }
        // No progress: the primary is suspected.
        actions.push(Action::SuspectPrimary {
            primary: self.primary(),
            reason: FailureReason::ProgressTimeout {
                round: self.committed_prefix,
            },
        });
        if !self.in_view_change {
            self.start_view_change(now, &mut actions);
        }
        actions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::Cluster;
    use rcc_common::Duration;

    fn config(n: usize) -> SystemConfig {
        SystemConfig::new(n)
    }

    fn cluster(n: usize) -> Cluster<Pbft> {
        Cluster::new(
            (0..n)
                .map(|i| Pbft::standalone(config(n), ReplicaId(i as u32)))
                .collect(),
        )
    }

    fn batch(tag: u8) -> Batch {
        use rcc_common::{ClientId, ClientRequest, Transaction};
        Batch::new(vec![ClientRequest::new(
            ClientId(tag as u64),
            0,
            Transaction::transfer(0, 1, 10, 1),
        )])
    }

    #[test]
    fn all_replicas_commit_a_proposal_from_a_correct_primary() {
        let mut cluster = cluster(4);
        cluster.propose(ReplicaId(0), batch(1));
        cluster.run_to_quiescence();
        // Assumption A4: with a correct primary, every replica accepts.
        for r in 0..4 {
            let commits = cluster.committed(ReplicaId(r));
            assert_eq!(commits.len(), 1, "replica {r} committed");
            assert_eq!(commits[0].round, 0);
        }
        // Assumption A2: all replicas accepted the same digest.
        let d0 = cluster.committed(ReplicaId(0))[0].digest;
        for r in 1..4 {
            assert_eq!(cluster.committed(ReplicaId(r))[0].digest, d0);
        }
    }

    #[test]
    fn a_slot_its_preprepare_and_its_commit_share_one_batch() {
        let mut cluster = cluster(4);
        let proposed = batch(1);
        let actions = cluster.propose(ReplicaId(0), proposed.clone());
        cluster.run_to_quiescence();
        let broadcast = actions
            .iter()
            .find_map(|action| match action {
                Action::Broadcast {
                    message: PbftMessage::PrePrepare { batch, .. },
                } => Some(batch),
                _ => None,
            })
            .expect("the primary broadcast a PrePrepare");
        assert!(broadcast.ptr_eq(&proposed));
        // The harness delivers messages as values, so the backups hold
        // handles on the primary's allocation too.
        for r in 0..4 {
            let replica = ReplicaId(r);
            let slot = cluster.node(replica).slots[&0].batch.as_ref();
            assert!(slot.expect("slot 0 keeps its batch").ptr_eq(&proposed));
            assert!(cluster.committed(replica)[0].batch.ptr_eq(&proposed));
        }
    }

    #[test]
    fn out_of_order_slots_commit_and_prefix_advances() {
        let mut cluster = cluster(4);
        for i in 0..5 {
            cluster.propose(ReplicaId(0), batch(i));
        }
        cluster.run_to_quiescence();
        for r in 0..4 {
            assert_eq!(cluster.committed(ReplicaId(r)).len(), 5);
            assert_eq!(cluster.node(ReplicaId(r)).committed_prefix(), 5);
        }
    }

    #[test]
    fn non_primary_cannot_propose() {
        let mut cluster = cluster(4);
        let actions = cluster.propose(ReplicaId(1), batch(1));
        assert!(actions.is_empty());
        cluster.run_to_quiescence();
        assert!(cluster.committed(ReplicaId(0)).is_empty());
    }

    #[test]
    fn proposal_capacity_respects_window() {
        let cfg = config(4).with_out_of_order_window(2);
        let mut primary = Pbft::standalone(cfg, ReplicaId(0));
        assert_eq!(primary.proposal_capacity(), 2);
        primary.propose(Time::ZERO, batch(0));
        assert_eq!(primary.proposal_capacity(), 1);
        primary.propose(Time::ZERO, batch(1));
        assert_eq!(primary.proposal_capacity(), 0);
        assert!(primary.propose(Time::ZERO, batch(2)).is_empty());
    }

    #[test]
    fn commit_requires_a_full_quorum() {
        // Drive a single replica manually: with messages from only f
        // other replicas the slot must not commit.
        let cfg = config(4);
        let mut replica = Pbft::standalone(cfg, ReplicaId(1));
        let b = batch(1);
        let digest = digest_batch(&b);
        let actions = replica.on_message(
            Time::ZERO,
            ReplicaId(0),
            PbftMessage::PrePrepare {
                view: 0,
                round: 0,
                digest,
                batch: b,
            },
        );
        assert!(actions.iter().all(|a| a.as_commit().is_none()));
        // Prepares from primary + self are implicit; add only one more (total 3 = nf).
        let actions = replica.on_message(
            Time::ZERO,
            ReplicaId(2),
            PbftMessage::Prepare {
                view: 0,
                round: 0,
                digest,
            },
        );
        // Now prepared (self + R0 implicit? R0 did not send Prepare here), so
        // count: self(R1) + R2 = 2 < 3: not yet prepared, no commit broadcast.
        assert!(actions.iter().all(|a| !matches!(
            a,
            Action::Broadcast {
                message: PbftMessage::Commit { .. }
            }
        )));
        let _ = replica.on_message(
            Time::ZERO,
            ReplicaId(3),
            PbftMessage::Prepare {
                view: 0,
                round: 0,
                digest,
            },
        );
        // Commits: self only. Two more needed.
        let actions = replica.on_message(
            Time::ZERO,
            ReplicaId(2),
            PbftMessage::Commit {
                view: 0,
                round: 0,
                digest,
            },
        );
        assert!(actions.iter().all(|a| a.as_commit().is_none()));
        let actions = replica.on_message(
            Time::ZERO,
            ReplicaId(3),
            PbftMessage::Commit {
                view: 0,
                round: 0,
                digest,
            },
        );
        assert_eq!(actions.iter().filter_map(|a| a.as_commit()).count(), 1);
    }

    #[test]
    fn equivocation_is_detected() {
        let cfg = config(4);
        let mut replica = Pbft::standalone(cfg, ReplicaId(1));
        let b1 = batch(1);
        let b2 = batch(2);
        replica.on_message(
            Time::ZERO,
            ReplicaId(0),
            PbftMessage::PrePrepare {
                view: 0,
                round: 0,
                digest: digest_batch(&b1),
                batch: b1,
            },
        );
        let actions = replica.on_message(
            Time::ZERO,
            ReplicaId(0),
            PbftMessage::PrePrepare {
                view: 0,
                round: 0,
                digest: digest_batch(&b2),
                batch: b2,
            },
        );
        assert!(actions.iter().any(|a| matches!(
            a,
            Action::SuspectPrimary {
                reason: FailureReason::Equivocation { .. },
                ..
            }
        )));
    }

    #[test]
    fn mismatched_digest_is_rejected_as_invalid_proposal() {
        let cfg = config(4);
        let mut replica = Pbft::standalone(cfg, ReplicaId(1));
        let b = batch(1);
        let actions = replica.on_message(
            Time::ZERO,
            ReplicaId(0),
            PbftMessage::PrePrepare {
                view: 0,
                round: 0,
                digest: Digest::ZERO,
                batch: b,
            },
        );
        assert!(actions.iter().any(|a| matches!(
            a,
            Action::SuspectPrimary {
                reason: FailureReason::InvalidProposal { .. },
                ..
            }
        )));
    }

    #[test]
    fn progress_timeout_triggers_view_change_and_new_primary_reproposes() {
        let n = 4;
        let mut cluster = cluster(n);
        // The primary's proposal reaches only replica 1: with f + 1 = 2
        // replicas (R2, R3) in the dark, no quorum of 3 prepares can form and
        // the slot cannot commit anywhere.
        cluster.set_drop_link(ReplicaId(0), ReplicaId(2), true);
        cluster.set_drop_link(ReplicaId(0), ReplicaId(3), true);
        cluster.propose(ReplicaId(0), batch(1));
        cluster.run_to_quiescence();
        for r in 0..n {
            assert!(
                cluster.committed(ReplicaId(r as u32)).is_empty(),
                "replica {r}"
            );
        }
        // Fire the progress timers (armed at R0 and R1): they suspect the
        // primary and broadcast VIEW-CHANGE votes; once R2/R3 see f + 1 such
        // votes they join, the quorum forms, and R1 becomes primary of view 1.
        cluster.set_drop_link(ReplicaId(0), ReplicaId(2), false);
        cluster.set_drop_link(ReplicaId(0), ReplicaId(3), false);
        cluster.fire_all_timers();
        for r in 1..n {
            assert_eq!(
                cluster.node(ReplicaId(r as u32)).view(),
                1,
                "replica {r} moved to view 1"
            );
            assert_eq!(cluster.node(ReplicaId(r as u32)).primary(), ReplicaId(1));
        }
        // The new primary can now propose and commit.
        cluster.propose(ReplicaId(1), batch(9));
        cluster.run_to_quiescence();
        for r in 1..n {
            assert!(
                !cluster.committed(ReplicaId(r as u32)).is_empty(),
                "replica {r} commits in the new view"
            );
        }
    }

    #[test]
    fn a_view_change_nobody_joins_aborts_and_retries() {
        let cfg = config(4);
        let mut replica = Pbft::standalone(cfg, ReplicaId(1));
        let t0 = Time::from_millis(1);
        let actions = replica.on_lag_detected(t0);
        assert!(replica.in_view_change(), "a lone vote starts a view change");
        let (timer, fires_at) = actions
            .iter()
            .find_map(|a| match a {
                Action::SetTimer { timer, fires_at } => Some((*timer, *fires_at)),
                _ => None,
            })
            .expect("the abort/retry timer is armed");
        // Nobody joins. Firing the timer abandons the attempt — previously
        // the replica stayed `in_view_change` forever, refusing proposals
        // and suppressing the RCC lag escalation — and re-broadcasts the
        // vote in case the original was lost.
        let actions = replica.on_timeout(fires_at, timer);
        assert!(!replica.in_view_change(), "the abort clears the wedge");
        assert_eq!(replica.view(), 0, "no quorum, no view change");
        assert!(
            actions.iter().any(|a| matches!(
                a,
                Action::Broadcast {
                    message: PbftMessage::ViewChange { new_view: 1, .. }
                }
            )),
            "the vote is retried"
        );
        // A later escalation starts a fresh attempt with a backed-off abort
        // deadline.
        let t1 = fires_at + Duration::from_millis(1);
        let actions = replica.on_lag_detected(t1);
        assert!(replica.in_view_change());
        let (_, refires_at) = actions
            .iter()
            .find_map(|a| match a {
                Action::SetTimer { timer, fires_at } => Some((*timer, *fires_at)),
                _ => None,
            })
            .expect("a fresh abort timer");
        assert!(
            refires_at.saturating_since(t1) > fires_at.saturating_since(t0),
            "retries back off exponentially"
        );
    }

    #[test]
    fn completed_view_changes_cancel_the_abort_timer() {
        // Replay the progress-timeout view change of the cluster test and
        // check no abort timer stays armed once the new view is entered —
        // firing one later must not abort a *completed* view change.
        let mut cluster = cluster(4);
        cluster.set_drop_link(ReplicaId(0), ReplicaId(2), true);
        cluster.set_drop_link(ReplicaId(0), ReplicaId(3), true);
        cluster.propose(ReplicaId(0), batch(1));
        cluster.run_to_quiescence();
        cluster.set_drop_link(ReplicaId(0), ReplicaId(2), false);
        cluster.set_drop_link(ReplicaId(0), ReplicaId(3), false);
        cluster.fire_all_timers();
        for r in 1..4 {
            assert_eq!(cluster.node(ReplicaId(r)).view(), 1, "replica {r}");
            assert!(!cluster.node(ReplicaId(r)).in_view_change());
        }
        // Any timer still armed fires as a no-op: views stay put.
        cluster.fire_all_timers();
        for r in 1..4 {
            assert_eq!(cluster.node(ReplicaId(r)).view(), 1, "replica {r}");
            assert!(!cluster.node(ReplicaId(r)).in_view_change());
        }
    }

    #[test]
    fn truncate_below_prunes_slots_and_refuses_pruned_rounds() {
        let mut cluster = cluster(4);
        for i in 0..5 {
            cluster.propose(ReplicaId(0), batch(i));
        }
        cluster.run_to_quiescence();
        let node = cluster.node_mut(ReplicaId(1));
        assert_eq!(node.retained_log_entries(), 5);
        node.truncate_below(3);
        assert_eq!(node.stable_round(), 3);
        assert_eq!(node.retained_log_entries(), 2, "slots below 3 pruned");
        assert_eq!(
            node.committed_prefix(),
            5,
            "prefix unaffected above the cut"
        );
        // A consensus message for a pruned round is ignored — re-creating
        // the slot would re-vote on checkpoint-certified state.
        let b = batch(9);
        let actions = node.on_message(
            Time::ZERO,
            ReplicaId(0),
            PbftMessage::PrePrepare {
                view: 0,
                round: 1,
                digest: digest_batch(&b),
                batch: b,
            },
        );
        assert!(actions.is_empty(), "pruned rounds draw no reaction");
        assert_eq!(node.retained_log_entries(), 2);
        // Truncation is idempotent and monotone.
        node.truncate_below(2);
        assert_eq!(node.stable_round(), 3);
    }

    #[test]
    fn prepare_before_preprepare_is_buffered() {
        let cfg = config(4);
        let mut replica = Pbft::standalone(cfg, ReplicaId(1));
        let b = batch(1);
        let digest = digest_batch(&b);
        // Prepares and commits arrive before the proposal.
        replica.on_message(
            Time::ZERO,
            ReplicaId(2),
            PbftMessage::Prepare {
                view: 0,
                round: 0,
                digest,
            },
        );
        replica.on_message(
            Time::ZERO,
            ReplicaId(3),
            PbftMessage::Prepare {
                view: 0,
                round: 0,
                digest,
            },
        );
        replica.on_message(
            Time::ZERO,
            ReplicaId(2),
            PbftMessage::Commit {
                view: 0,
                round: 0,
                digest,
            },
        );
        replica.on_message(
            Time::ZERO,
            ReplicaId(3),
            PbftMessage::Commit {
                view: 0,
                round: 0,
                digest,
            },
        );
        let actions = replica.on_message(
            Time::ZERO,
            ReplicaId(0),
            PbftMessage::PrePrepare {
                view: 0,
                round: 0,
                digest,
                batch: b,
            },
        );
        assert_eq!(
            actions.iter().filter_map(|a| a.as_commit()).count(),
            1,
            "buffered votes complete the slot as soon as the proposal arrives"
        );
    }

    /// Cuts both directions of every link between `replica` and the rest of
    /// the cluster (the harness's way to "crash" a replica while keeping its
    /// state machine around for a later rejoin).
    fn isolate(cluster: &mut Cluster<Pbft>, replica: ReplicaId, isolated: bool) {
        for r in ReplicaId::all(cluster.len()) {
            if r != replica {
                cluster.set_drop_link(replica, r, isolated);
                cluster.set_drop_link(r, replica, isolated);
            }
        }
    }

    #[test]
    fn deposed_primary_crashed_through_the_view_change_learns_the_new_view() {
        let n = 4;
        let mut cluster = cluster(n);
        cluster.propose(ReplicaId(0), batch(1));
        cluster.run_to_quiescence();
        // The primary goes dark mid-pipeline: its round-1 proposal reaches
        // nobody, and it sees nothing of what follows.
        isolate(&mut cluster, ReplicaId(0), true);
        cluster.propose(ReplicaId(0), batch(2));
        // The live replicas detect the stall (the embedding's lag signal)
        // and complete a view change among themselves.
        cluster.advance_time(Time::from_millis(600));
        for r in 1..n as u32 {
            let now = cluster.now();
            let actions = cluster.node_mut(ReplicaId(r)).on_lag_detected(now);
            for action in actions {
                if let Action::Broadcast { message } = action {
                    for to in 1..n as u32 {
                        if to != r {
                            cluster.inject(ReplicaId(r), ReplicaId(to), message.clone());
                        }
                    }
                }
            }
        }
        cluster.run_to_quiescence();
        for r in 1..n as u32 {
            assert_eq!(cluster.node(ReplicaId(r)).view(), 1, "survivors moved on");
        }
        assert_eq!(
            cluster.node(ReplicaId(0)).view(),
            0,
            "the deposed primary is still in the dark"
        );
        // The deposed primary recovers. Its own progress timeout makes it
        // vote for the view change it missed; the survivors answer a vote
        // for an already-completed view change with fresh vote evidence,
        // and the new primary retransmits its NEW-VIEW — so the laggard
        // finally *learns* the outcome instead of staying behind forever.
        isolate(&mut cluster, ReplicaId(0), false);
        cluster.fire_all_timers();
        let deposed = cluster.node(ReplicaId(0));
        assert_eq!(
            deposed.view(),
            1,
            "the deposed primary learned the new view"
        );
        assert!(!deposed.in_view_change());
        assert!(!deposed.is_primary());
        assert_eq!(deposed.primary(), ReplicaId(1));
    }

    #[test]
    fn stale_preprepares_from_a_deluded_old_primary_elicit_the_catch_up_hint() {
        let cfg = config(4);
        // A replica that completed a view change to view 1 (R1 is the new
        // primary and issued the NEW-VIEW).
        let mut helper = Pbft::standalone(cfg.clone(), ReplicaId(1));
        let t = Time::from_millis(1);
        for r in [2u32, 3] {
            helper.on_message(
                t,
                ReplicaId(r),
                PbftMessage::ViewChange {
                    new_view: 1,
                    committed_prefix: 0,
                    prepared: vec![],
                },
            );
        }
        // Votes from R2 and R3 plus its own joining vote entered view 1.
        assert_eq!(helper.view(), 1);
        assert!(helper.is_primary());
        // A PrePrepare stamped view 0 from the deposed view-0 primary.
        let b = batch(9);
        let stale = PbftMessage::PrePrepare {
            view: 0,
            round: 7,
            digest: digest_batch(&b),
            batch: b,
        };
        let actions = helper.on_message(t, ReplicaId(0), stale.clone());
        let sends: Vec<_> = actions
            .iter()
            .filter_map(|a| match a {
                Action::Send { to, message } => Some((*to, message.clone())),
                _ => None,
            })
            .collect();
        assert!(
            sends.iter().any(|(to, m)| *to == ReplicaId(0)
                && matches!(m, PbftMessage::ViewChange { new_view: 1, .. })),
            "a fresh vote for the completed transition is sent back"
        );
        assert!(
            sends
                .iter()
                .any(|(to, m)| *to == ReplicaId(0)
                    && matches!(m, PbftMessage::NewView { view: 1, .. })),
            "the new primary retransmits its NEW-VIEW"
        );
        // The hint is rate-limited per (peer, view): the rest of the stale
        // pipeline burst is dropped silently.
        let again = helper.on_message(t, ReplicaId(0), stale);
        assert!(
            again.is_empty(),
            "one hint answers the whole burst: {again:?}"
        );
    }
}
