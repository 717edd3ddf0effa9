//! The Byzantine commit algorithm (BCA) abstraction.
//!
//! Every protocol in this crate is a *sans-io state machine*: it never
//! touches sockets, threads, or clocks. The embedding driver (an RCC
//! instance manager, a baseline replica node, the discrete-event simulator,
//! or a unit test) feeds it events — proposals, incoming messages, timer
//! expirations — and the state machine returns a list of [`Action`]s to
//! perform. This style makes the protocols deterministic, directly
//! unit-testable, and reusable across deployment environments, and it is
//! what allows RCC to run `m` of them concurrently inside one process.
//!
//! The RCC paper requires four properties of the BCA (Section III-B):
//!
//! * **A1** — if a round succeeds, at least `nf − f` non-faulty replicas
//!   accepted a proposal;
//! * **A2** — any two non-faulty replicas that accept a proposal in a round
//!   accept the *same* proposal;
//! * **A3** — an accepted proposal can be recovered from any `nf − f`
//!   non-faulty replicas;
//! * **A4** — with a non-faulty primary and reliable communication, all
//!   non-faulty replicas accept a proposal in every round.
//!
//! The integration test-suite checks A1/A2/A4 behaviourally for each
//! implementation, and the recovery protocol of `rcc-core` exercises A3.

use rcc_common::{Batch, Digest, InstanceId, InstanceStatus, ReplicaId, Round, Time, View};
use serde::{Deserialize, Serialize};

/// Identifier of a timer requested by a protocol. Timer identities are only
/// meaningful to the protocol that created them; drivers treat them opaquely.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub struct TimerId(pub u64);

/// Why a protocol suspects its primary (or another replica) of failure.
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum FailureReason {
    /// A round did not complete before its progress timeout.
    ProgressTimeout {
        /// The round that failed to complete.
        round: Round,
    },
    /// The primary equivocated: two different proposals for the same round.
    Equivocation {
        /// The round in which conflicting proposals were observed.
        round: Round,
        /// Digest of the first proposal.
        first: Digest,
        /// Digest of the conflicting proposal.
        second: Digest,
    },
    /// The primary proposed a malformed or unverifiable message.
    InvalidProposal {
        /// The round of the offending proposal.
        round: Round,
        /// Human-readable description.
        description: String,
    },
    /// The view-change (or equivalent) logic gave up on the current leader.
    LeaderTimeout {
        /// The view that timed out.
        view: View,
    },
}

/// A slot (round) that the protocol has accepted.
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct CommittedSlot {
    /// The round (per-instance sequence number) of the slot.
    pub round: Round,
    /// The digest certified by the commit quorum.
    pub digest: Digest,
    /// The accepted batch.
    pub batch: Batch,
    /// `true` when the acceptance is speculative (a single-round fast path)
    /// and may still be rolled back by a view change; RCC and the baselines
    /// only execute speculative slots optimistically and reconcile on conflict.
    pub speculative: bool,
    /// The view in which the slot committed.
    pub view: View,
}

/// An action requested by a protocol state machine.
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum Action<M> {
    /// Send `message` to a single replica.
    Send {
        /// Destination replica.
        to: ReplicaId,
        /// The message to send.
        message: M,
    },
    /// Send `message` to every other replica.
    Broadcast {
        /// The message to send.
        message: M,
    },
    /// Arm (or re-arm) a timer that fires at `fires_at`.
    SetTimer {
        /// Timer identity, scoped to this protocol instance. It must stay
        /// below 2^48: `rcc-core` tags it with the instance index in the
        /// bits above and does not arm an id that would not fit. An
        /// algorithm that allocates ids from a counter (one per armed
        /// timer, as `Pbft` does) is nine years from the bound at 10^6
        /// timers a second.
        timer: TimerId,
        /// Absolute time at which the timer fires.
        fires_at: Time,
    },
    /// Cancel a previously armed timer.
    CancelTimer {
        /// Timer identity.
        timer: TimerId,
    },
    /// A slot has been accepted and can be handed to ordering/execution.
    Commit(CommittedSlot),
    /// The protocol suspects the primary of its instance has failed. In RCC
    /// this feeds the FAILURE/recovery machinery of Section III-C; in the
    /// standalone baselines it triggers a view change.
    SuspectPrimary {
        /// The suspected primary.
        primary: ReplicaId,
        /// Why it is suspected.
        reason: FailureReason,
    },
    /// The protocol changed view (baselines only); reported so drivers can
    /// track which replica is primary.
    ViewChanged {
        /// The new view.
        view: View,
        /// The primary of the new view.
        new_primary: ReplicaId,
    },
}

impl<M> Action<M> {
    /// Maps the message type of the action, leaving control actions intact.
    pub fn map_message<N>(self, f: impl FnOnce(M) -> N) -> Action<N> {
        match self {
            Action::Send { to, message } => Action::Send {
                to,
                message: f(message),
            },
            Action::Broadcast { message } => Action::Broadcast {
                message: f(message),
            },
            Action::SetTimer { timer, fires_at } => Action::SetTimer { timer, fires_at },
            Action::CancelTimer { timer } => Action::CancelTimer { timer },
            Action::Commit(slot) => Action::Commit(slot),
            Action::SuspectPrimary { primary, reason } => {
                Action::SuspectPrimary { primary, reason }
            }
            Action::ViewChanged { view, new_primary } => Action::ViewChanged { view, new_primary },
        }
    }

    /// Returns the committed slot when the action is a commit.
    pub fn as_commit(&self) -> Option<&CommittedSlot> {
        match self {
            Action::Commit(slot) => Some(slot),
            _ => None,
        }
    }
}

/// Messages exchanged by a BCA must report their wire size so that the
/// simulator can charge bandwidth, and whether they carry a full proposal
/// payload (large) or only state-exchange metadata (small).
pub trait WireMessage {
    /// Serialized size of the message in bytes.
    fn wire_size(&self) -> usize;
    /// `true` when the message carries a batch payload (a proposal).
    fn is_proposal(&self) -> bool;
    /// Number of client requests carried in the message's batch payload
    /// (0 for metadata-only messages). The discrete-event simulator uses this
    /// to charge per-transaction verification and execution CPU time.
    fn payload_transactions(&self) -> usize {
        0
    }
}

/// A primary-backup Byzantine commit algorithm as required by RCC.
pub trait ByzantineCommitAlgorithm {
    /// The protocol's message type.
    type Message: Clone + std::fmt::Debug + WireMessage;

    /// A short human-readable protocol name ("PBFT", "RCC", …).
    fn name(&self) -> &'static str;

    /// The replica running this state machine.
    fn replica(&self) -> ReplicaId;

    /// The replica currently acting as primary of this instance.
    fn primary(&self) -> ReplicaId;

    /// `true` when this replica is currently the primary.
    fn is_primary(&self) -> bool {
        self.replica() == self.primary()
    }

    /// The current view.
    fn view(&self) -> View;

    /// `true` while the protocol is mid view change: the old primary has been
    /// abandoned and the new one has not yet taken over, so proposals are
    /// refused. Protocols without a view-change mechanism report `false`.
    fn in_view_change(&self) -> bool {
        false
    }

    /// Number of additional proposals the primary may currently have in
    /// flight (out-of-order window minus outstanding slots). Drivers call
    /// [`ByzantineCommitAlgorithm::propose`] at most this many times before
    /// waiting for commits.
    fn proposal_capacity(&self) -> usize;

    /// Rounds committed contiguously from the start (i.e. all rounds
    /// `< committed_prefix()` have committed locally).
    fn committed_prefix(&self) -> Round;

    /// One past the highest round this replica has observed a proposal for
    /// (equivalently: the round the primary would propose in next). The RCC
    /// instance manager uses this to decide how many catch-up no-ops a
    /// lagging instance's primary must still propose.
    fn next_proposal_round(&self) -> Round;

    /// The round below which this state machine has discarded (garbage-
    /// collected) its per-slot state — the low watermark of its latest stable
    /// checkpoint (Section III-D). Rounds below it can no longer be served or
    /// re-processed; requests for them must be answered from a checkpoint
    /// instead. Protocols without checkpointing report 0.
    fn stable_round(&self) -> Round {
        0
    }

    /// Notification that a checkpoint covering every round below `round`
    /// became stable: the protocol must discard its per-slot state below
    /// `round` and may treat those rounds as finally agreed (the PBFT low
    /// watermark moves up). The default is a no-op for protocols without
    /// per-slot state to prune; implementations must be idempotent and
    /// ignore rounds at or below their current [`stable_round`].
    ///
    /// [`stable_round`]: ByzantineCommitAlgorithm::stable_round
    fn truncate_below(&mut self, _round: Round) {}

    /// Number of per-slot log entries this state machine currently retains
    /// (consensus slots, buffered commits, retained execution history,
    /// outstanding sync votes). The simulator samples this after every event
    /// to report peak memory pressure; checkpoint-based garbage collection is
    /// what keeps it bounded over long horizons. The default reports 0 (no
    /// retained log).
    fn retained_log_entries(&self) -> u64 {
        0
    }

    /// Notification from the embedding layer that this instance has fallen
    /// more than the lag bound `σ` behind the other instances of an RCC
    /// deployment (the throttling/lagging detection of Sections III-E and IV
    /// of the paper). Only called on replicas that are *not* the instance's
    /// current primary — a lagging primary catches up by proposing no-ops
    /// instead.
    ///
    /// The default reports a progress-timeout suspicion against the current
    /// primary; protocols with a view-change mechanism additionally start
    /// one.
    fn on_lag_detected(&mut self, _now: Time) -> Vec<Action<Self::Message>> {
        vec![Action::SuspectPrimary {
            primary: self.primary(),
            reason: FailureReason::ProgressTimeout {
                round: self.committed_prefix(),
            },
        }]
    }

    /// The coordination status of every consensus instance this state
    /// machine runs, for the Section III-E client-assignment policy: who
    /// coordinates each instance, whether it is mid view change, and how many
    /// rounds its current coordinator has committed since taking over.
    ///
    /// Single-instance protocols (the default) report one entry for instance
    /// 0; an RCC deployment reports one entry per concurrent instance. The
    /// default cannot observe per-view progress, so it reports the full
    /// committed prefix while in view 0 and `0` after any view change — the
    /// conservative direction for the policy's σ hand-back gate (clients
    /// are never handed to a replacement coordinator on the strength of
    /// progress it did not demonstrate). Protocols that track per-view
    /// progress (PBFT does) should override this.
    fn instance_statuses(&self) -> Vec<InstanceStatus> {
        let view = self.view();
        vec![InstanceStatus {
            instance: InstanceId(0),
            coordinator: self.primary(),
            view,
            in_view_change: self.in_view_change(),
            progress_in_view: if view == 0 {
                self.committed_prefix()
            } else {
                0
            },
        }]
    }

    /// Proposal capacity of one specific instance. Single-instance protocols
    /// (the default) ignore `instance`; an RCC deployment reports the window
    /// of the targeted instance only (0 when this replica does not coordinate
    /// it).
    fn proposal_capacity_for(&self, _instance: InstanceId) -> usize {
        self.proposal_capacity()
    }

    /// As the coordinator of `instance`, propose `batch` in its next round.
    /// This is how assigned client load reaches a specific instance; the
    /// default (for single-instance protocols) ignores the instance and
    /// delegates to [`ByzantineCommitAlgorithm::propose`]. Returns an empty
    /// vector when this replica does not coordinate `instance` or the
    /// instance has no capacity.
    fn propose_for(
        &mut self,
        now: Time,
        _instance: InstanceId,
        batch: Batch,
    ) -> Vec<Action<Self::Message>> {
        self.propose(now, batch)
    }

    /// As the primary, propose `batch` in the next round. Returns the
    /// actions to perform; on a non-primary replica or with no capacity this
    /// is a no-op returning an empty vector.
    fn propose(&mut self, now: Time, batch: Batch) -> Vec<Action<Self::Message>>;

    /// Handle a message received from `from`.
    fn on_message(
        &mut self,
        now: Time,
        from: ReplicaId,
        message: Self::Message,
    ) -> Vec<Action<Self::Message>>;

    /// Handle the expiration of a previously armed timer.
    fn on_timeout(&mut self, now: Time, timer: TimerId) -> Vec<Action<Self::Message>>;
}

/// Helper shared by the protocol implementations: collect the committed slots
/// out of a list of actions (used heavily in tests).
pub fn committed_slots<M>(actions: &[Action<M>]) -> Vec<&CommittedSlot> {
    actions.iter().filter_map(Action::as_commit).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_message_preserves_control_actions() {
        let action: Action<u32> = Action::SetTimer {
            timer: TimerId(1),
            fires_at: Time::ZERO,
        };
        match action.map_message(|m| m.to_string()) {
            Action::SetTimer { timer, .. } => assert_eq!(timer, TimerId(1)),
            other => panic!("unexpected action {other:?}"),
        }
        let action: Action<u32> = Action::Send {
            to: ReplicaId(2),
            message: 7,
        };
        match action.map_message(|m| m * 2) {
            Action::Send { to, message } => {
                assert_eq!(to, ReplicaId(2));
                assert_eq!(message, 14);
            }
            other => panic!("unexpected action {other:?}"),
        }
    }

    #[test]
    fn as_commit_extracts_only_commits() {
        let slot = CommittedSlot {
            round: 3,
            digest: Digest::ZERO,
            batch: Batch::new(vec![]),
            speculative: false,
            view: 0,
        };
        let commit: Action<u32> = Action::Commit(slot.clone());
        let other: Action<u32> = Action::CancelTimer { timer: TimerId(0) };
        assert_eq!(commit.as_commit(), Some(&slot));
        assert!(other.as_commit().is_none());
        let actions = vec![commit, other];
        assert_eq!(committed_slots(&actions).len(), 1);
    }
}
