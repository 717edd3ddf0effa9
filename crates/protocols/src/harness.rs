//! A deterministic in-memory cluster driver for protocol state machines.
//!
//! The harness delivers messages synchronously (FIFO per run-loop iteration),
//! supports dropping links to emulate partitions and crashed replicas, and
//! exposes armed timers so tests can force timeouts. It is used by the unit
//! tests of every protocol in this crate, by `rcc-core`'s tests, and by the
//! property-based integration tests at the workspace root. The discrete-event
//! simulator in `rcc-sim` is the performance-accurate counterpart; this
//! harness optimizes for test readability instead.

use crate::bca::{Action, ByzantineCommitAlgorithm, CommittedSlot, FailureReason, TimerId};
use rcc_common::{Batch, ReplicaId, Time};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// One in-flight message.
#[derive(Clone, Debug)]
struct Envelope<M> {
    from: ReplicaId,
    to: ReplicaId,
    message: M,
}

/// A deterministic, single-threaded cluster of protocol state machines.
pub struct Cluster<P: ByzantineCommitAlgorithm> {
    nodes: Vec<P>,
    queue: VecDeque<Envelope<P::Message>>,
    committed: Vec<Vec<CommittedSlot>>,
    suspicions: Vec<Vec<(ReplicaId, FailureReason)>>,
    timers: Vec<BTreeMap<TimerId, Time>>,
    dropped_links: BTreeSet<(ReplicaId, ReplicaId)>,
    crashed: BTreeSet<ReplicaId>,
    now: Time,
    delivered: u64,
}

impl<P: ByzantineCommitAlgorithm> Cluster<P> {
    /// Creates a cluster over the given state machines (index = replica id).
    pub fn new(nodes: Vec<P>) -> Self {
        let n = nodes.len();
        Cluster {
            nodes,
            queue: VecDeque::new(),
            committed: vec![Vec::new(); n],
            suspicions: vec![Vec::new(); n],
            timers: vec![BTreeMap::new(); n],
            dropped_links: BTreeSet::new(),
            crashed: BTreeSet::new(),
            now: Time::ZERO,
            delivered: 0,
        }
    }

    /// Number of replicas.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` when the cluster has no replicas.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The current logical time of the harness.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Advances the harness clock.
    pub fn advance_time(&mut self, to: Time) {
        if to > self.now {
            self.now = to;
        }
    }

    /// Immutable access to a node.
    pub fn node(&self, replica: ReplicaId) -> &P {
        &self.nodes[replica.index()]
    }

    /// Mutable access to a node (for direct white-box manipulation in tests).
    pub fn node_mut(&mut self, replica: ReplicaId) -> &mut P {
        &mut self.nodes[replica.index()]
    }

    /// The slots committed by `replica`, in commit order.
    pub fn committed(&self, replica: ReplicaId) -> &[CommittedSlot] {
        &self.committed[replica.index()]
    }

    /// Failure suspicions raised by `replica`.
    pub fn suspicions(&self, replica: ReplicaId) -> &[(ReplicaId, FailureReason)] {
        &self.suspicions[replica.index()]
    }

    /// Total messages delivered so far (for message-complexity assertions).
    pub fn delivered_messages(&self) -> u64 {
        self.delivered
    }

    /// Drops (or restores) the directed link `from → to`.
    pub fn set_drop_link(&mut self, from: ReplicaId, to: ReplicaId, drop: bool) {
        if drop {
            self.dropped_links.insert((from, to));
        } else {
            self.dropped_links.remove(&(from, to));
        }
    }

    /// Crashes a replica: it no longer sends or receives anything.
    pub fn crash(&mut self, replica: ReplicaId) {
        self.crashed.insert(replica);
    }

    fn link_up(&self, from: ReplicaId, to: ReplicaId) -> bool {
        !self.dropped_links.contains(&(from, to))
            && !self.crashed.contains(&from)
            && !self.crashed.contains(&to)
    }

    fn apply_actions(&mut self, replica: ReplicaId, actions: Vec<Action<P::Message>>) {
        for action in actions {
            match action {
                Action::Send { to, message } => {
                    if self.link_up(replica, to) && to.index() < self.nodes.len() && to != replica {
                        self.queue.push_back(Envelope {
                            from: replica,
                            to,
                            message,
                        });
                    }
                }
                Action::Broadcast { message } => {
                    for to in ReplicaId::all(self.nodes.len()) {
                        if to != replica && self.link_up(replica, to) {
                            self.queue.push_back(Envelope {
                                from: replica,
                                to,
                                message: message.clone(),
                            });
                        }
                    }
                }
                Action::SetTimer { timer, fires_at } => {
                    self.timers[replica.index()].insert(timer, fires_at);
                }
                Action::CancelTimer { timer } => {
                    self.timers[replica.index()].remove(&timer);
                }
                Action::Commit(slot) => {
                    self.committed[replica.index()].push(slot);
                }
                Action::SuspectPrimary { primary, reason } => {
                    self.suspicions[replica.index()].push((primary, reason));
                }
                Action::ViewChanged { .. } => {}
            }
        }
    }

    /// Has `replica` propose `batch` (if it is a primary with capacity) and
    /// processes the resulting actions. Returns a copy of the actions for
    /// white-box assertions.
    pub fn propose(&mut self, replica: ReplicaId, batch: Batch) -> Vec<Action<P::Message>>
    where
        P::Message: Clone,
    {
        if self.crashed.contains(&replica) {
            return Vec::new();
        }
        let now = self.now;
        let actions = self.nodes[replica.index()].propose(now, batch);
        self.apply_actions(replica, actions.clone());
        actions
    }

    /// Delivers a single message directly (useful for adversarial tests that
    /// inject forged or reordered traffic).
    pub fn inject(&mut self, from: ReplicaId, to: ReplicaId, message: P::Message) {
        self.queue.push_back(Envelope { from, to, message });
    }

    /// Delivers queued messages until no more are in flight. Returns the
    /// number of messages delivered.
    pub fn run_to_quiescence(&mut self) -> u64 {
        let mut delivered = 0;
        // A generous bound protects tests against livelock bugs.
        let bound = 1_000_000;
        while let Some(envelope) = self.queue.pop_front() {
            delivered += 1;
            assert!(
                delivered < bound,
                "message storm: protocol does not quiesce"
            );
            if self.crashed.contains(&envelope.to) {
                continue;
            }
            let now = self.now;
            let actions =
                self.nodes[envelope.to.index()].on_message(now, envelope.from, envelope.message);
            self.apply_actions(envelope.to, actions);
        }
        self.delivered += delivered;
        delivered
    }

    /// Fires every currently armed timer (advancing the clock past the latest
    /// deadline) and processes the resulting actions, then pumps messages to
    /// quiescence.
    pub fn fire_all_timers(&mut self) {
        let latest = self
            .timers
            .iter()
            .flat_map(|t| t.values())
            .copied()
            .max()
            .unwrap_or(self.now);
        self.advance_time(latest + rcc_common::Duration::from_millis(1));
        for replica in ReplicaId::all(self.nodes.len()) {
            if self.crashed.contains(&replica) {
                continue;
            }
            let armed: Vec<TimerId> = self.timers[replica.index()].keys().copied().collect();
            self.timers[replica.index()].clear();
            for timer in armed {
                let now = self.now;
                let actions = self.nodes[replica.index()].on_timeout(now, timer);
                self.apply_actions(replica, actions);
            }
        }
        self.run_to_quiescence();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pbft::Pbft;
    use rcc_common::{ClientId, ClientRequest, SystemConfig, Transaction};

    fn batch(tag: u8) -> Batch {
        Batch::new(vec![ClientRequest::new(
            ClientId(tag as u64),
            0,
            Transaction::noop(),
        )])
    }

    #[test]
    fn crashed_replicas_do_not_participate() {
        let n = 4;
        let nodes = (0..n)
            .map(|i| Pbft::standalone(SystemConfig::new(n), ReplicaId(i as u32)))
            .collect();
        let mut cluster: Cluster<Pbft> = Cluster::new(nodes);
        cluster.crash(ReplicaId(3));
        cluster.propose(ReplicaId(0), batch(1));
        cluster.run_to_quiescence();
        // The three remaining replicas form a quorum and still commit.
        for r in 0..3 {
            assert_eq!(cluster.committed(ReplicaId(r)).len(), 1);
        }
        assert!(cluster.committed(ReplicaId(3)).is_empty());
    }

    #[test]
    fn message_counting_and_link_drops() {
        let n = 4;
        let nodes = (0..n)
            .map(|i| Pbft::standalone(SystemConfig::new(n), ReplicaId(i as u32)))
            .collect();
        let mut cluster: Cluster<Pbft> = Cluster::new(nodes);
        cluster.set_drop_link(ReplicaId(0), ReplicaId(3), true);
        cluster.propose(ReplicaId(0), batch(1));
        cluster.run_to_quiescence();
        assert!(cluster.delivered_messages() > 0);
        // Replica 3 still commits: it learns the proposal is prepared via the
        // other replicas even though the primary's link to it is down? No —
        // it never receives the batch, so it cannot commit the payload, but
        // the remaining three replicas commit.
        for r in 0..3 {
            assert_eq!(cluster.committed(ReplicaId(r)).len(), 1, "replica {r}");
        }
    }
}
