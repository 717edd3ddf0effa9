//! The Section III-E client-to-instance assignment policy with σ-spaced
//! hand-offs.
//!
//! RCC recovers *safety* from a failed coordinator with an instance-local
//! view change, but throughput only recovers when client load follows: a
//! recovered instance whose clients never return runs on catch-up no-ops
//! forever, throttling the whole deployment to the no-op cadence (exactly the
//! post-recovery collapse the `faults` campaign measured before this policy
//! existed). [`InstanceAssignment`] closes that gap:
//!
//! * every client has a **home instance** (`client mod m`), the instance it
//!   serves under failure-free operation;
//! * when an instance **enters a view change** its clients drain off to the
//!   least-loaded healthy instance — submissions would be dropped anyway;
//! * clients **hand off back** to an instance only after its (new)
//!   coordinator has *demonstrated* `σ` rounds of committed progress in its
//!   current view ([`InstanceStatus::progress_in_view`]). This is the paper's
//!   σ-spaced hand-off: a flapping coordinator that keeps losing views never
//!   re-attracts load, because every view change resets the progress count
//!   and restarts the σ clock.
//!
//! The policy is a pure function of the observed [`InstanceStatus`]es, so it
//! is deterministic and can run at every client (or, in the simulator, once
//! globally) without coordination.

use rcc_common::{InstanceId, InstanceStatus};

/// One executed client migration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Handoff {
    /// Index of the migrating client.
    pub client: usize,
    /// The instance the client was assigned to.
    pub from: InstanceId,
    /// The instance the client is assigned to now.
    pub to: InstanceId,
}

/// The client-to-instance assignment of a deployment.
#[derive(Clone, Debug)]
pub struct InstanceAssignment {
    sigma: u64,
    home: Vec<InstanceId>,
    assigned: Vec<InstanceId>,
}

impl InstanceAssignment {
    /// Creates the initial assignment of `clients` client nodes over
    /// `instances` instances: client `c` is homed on (and assigned to)
    /// instance `c mod instances`. `sigma` is the hand-off spacing — the
    /// rounds of demonstrated progress required before load returns to a
    /// recovered instance (the deployment's lag bound σ).
    ///
    /// # Panics
    ///
    /// Panics when `instances` is zero.
    pub fn new(clients: usize, instances: usize, sigma: u64) -> Self {
        assert!(instances > 0, "a deployment needs at least one instance");
        let home: Vec<InstanceId> = (0..clients)
            .map(|c| InstanceId((c % instances) as u32))
            .collect();
        InstanceAssignment {
            sigma,
            assigned: home.clone(),
            home,
        }
    }

    /// The instance `client` is currently assigned to.
    pub fn assignment(&self, client: usize) -> InstanceId {
        self.assigned[client]
    }

    /// All current assignments, indexed by client.
    pub fn assignments(&self) -> &[InstanceId] {
        &self.assigned
    }

    /// `true` when every client is assigned to its home instance. While this
    /// holds, [`InstanceAssignment::update`] can only move a client in
    /// response to a view-change transition (an instance turning
    /// ineligible), never to progress alone — embeddings use this to skip
    /// polling updates between failure-handling events.
    pub fn fully_home(&self) -> bool {
        self.assigned == self.home
    }

    /// Whether `status` describes an instance that may carry client load: it
    /// is not mid view change, and a replacement coordinator (any view > 0)
    /// has demonstrated at least σ rounds of progress in its view.
    pub fn eligible(&self, status: &InstanceStatus) -> bool {
        !status.in_view_change && (status.view == 0 || status.progress_in_view >= self.sigma)
    }

    /// Applies the policy against the latest observations (`statuses[i]` must
    /// describe instance `i`) and returns the hand-offs performed.
    ///
    /// A client moves only when it has somewhere better to be: back to its
    /// home instance the moment the home is eligible again, or off an
    /// ineligible instance to the least-loaded eligible one (ties broken by
    /// lowest instance id). With no eligible instance at all — e.g. a
    /// single-instance deployment mid view change — clients stay put, so the
    /// deployment can never strand its entire load.
    pub fn update(&mut self, statuses: &[InstanceStatus]) -> Vec<Handoff> {
        let m = statuses.len();
        debug_assert!(statuses
            .iter()
            .enumerate()
            .all(|(i, s)| s.instance.index() == i));
        let eligible: Vec<bool> = statuses.iter().map(|s| self.eligible(s)).collect();
        let mut load = vec![0usize; m];
        for assigned in &self.assigned {
            load[assigned.index()] += 1;
        }
        let mut handoffs = Vec::new();
        for client in 0..self.assigned.len() {
            let current = self.assigned[client];
            let home = self.home[client];
            let target = if current != home && eligible[home.index()] {
                // σ-spaced hand-off back to the recovered home instance.
                Some(home)
            } else if !eligible[current.index()] {
                // Drain off a failed/recovering instance to the least-loaded
                // eligible one.
                (0..m)
                    .filter(|&i| eligible[i] && i != current.index())
                    .min_by_key(|&i| (load[i], i))
                    .map(|i| InstanceId(i as u32))
            } else {
                None
            };
            if let Some(to) = target {
                if to != current {
                    load[current.index()] -= 1;
                    load[to.index()] += 1;
                    self.assigned[client] = to;
                    handoffs.push(Handoff {
                        client,
                        from: current,
                        to,
                    });
                }
            }
        }
        handoffs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcc_common::{ReplicaId, View};

    fn status(instance: u32, view: View, in_view_change: bool, progress: u64) -> InstanceStatus {
        InstanceStatus {
            instance: InstanceId(instance),
            coordinator: ReplicaId(instance + view as u32),
            view,
            in_view_change,
            progress_in_view: progress,
        }
    }

    fn healthy(m: u32) -> Vec<InstanceStatus> {
        (0..m).map(|i| status(i, 0, false, 100)).collect()
    }

    #[test]
    fn initial_assignment_is_round_robin_home() {
        let a = InstanceAssignment::new(6, 4, 8);
        let homes: Vec<u32> = a.assignments().iter().map(|i| i.0).collect();
        assert_eq!(homes, vec![0, 1, 2, 3, 0, 1]);
    }

    #[test]
    fn healthy_instances_keep_their_clients() {
        let mut a = InstanceAssignment::new(4, 4, 8);
        assert!(a.update(&healthy(4)).is_empty());
    }

    #[test]
    fn clients_drain_off_an_instance_in_view_change() {
        let mut a = InstanceAssignment::new(4, 4, 8);
        let mut obs = healthy(4);
        obs[3] = status(3, 1, true, 0);
        let handoffs = a.update(&obs);
        assert_eq!(handoffs.len(), 1);
        assert_eq!(handoffs[0].from, InstanceId(3));
        // Least-loaded eligible instance (all tied) → lowest id wins.
        assert_eq!(handoffs[0].to, InstanceId(0));
        assert_eq!(a.assignment(3), InstanceId(0));
    }

    #[test]
    fn handoff_back_waits_for_sigma_rounds_of_progress() {
        let sigma = 8;
        let mut a = InstanceAssignment::new(4, 4, sigma);
        let mut obs = healthy(4);
        obs[3] = status(3, 1, true, 0);
        a.update(&obs);
        assert_eq!(a.assignment(3), InstanceId(0), "drained during view change");

        // The view change completed but the new coordinator has not yet
        // demonstrated σ rounds: clients must not return.
        obs[3] = status(3, 1, false, sigma - 1);
        assert!(a.update(&obs).is_empty());
        assert_eq!(a.assignment(3), InstanceId(0));

        // σ rounds of demonstrated progress: the client hands back off.
        obs[3] = status(3, 1, false, sigma);
        let handoffs = a.update(&obs);
        assert_eq!(
            handoffs,
            vec![Handoff {
                client: 3,
                from: InstanceId(0),
                to: InstanceId(3)
            }]
        );
        assert_eq!(a.assignment(3), InstanceId(3));
    }

    #[test]
    fn a_flapping_coordinator_restarts_the_sigma_clock() {
        let sigma = 8;
        let mut a = InstanceAssignment::new(4, 4, sigma);
        let mut obs = healthy(4);
        obs[3] = status(3, 1, true, 0);
        a.update(&obs);
        // The replacement also failed: a second view change resets progress.
        obs[3] = status(3, 2, false, sigma - 1);
        assert!(
            a.update(&obs).is_empty(),
            "σ not yet demonstrated in view 2"
        );
        obs[3] = status(3, 2, false, sigma);
        assert_eq!(a.update(&obs).len(), 1);
    }

    #[test]
    fn drained_clients_balance_across_eligible_instances() {
        // Two clients homed on instance 2 of three; instance 2 fails.
        let mut a = InstanceAssignment::new(6, 3, 8);
        let mut obs = healthy(3);
        obs[2] = status(2, 1, true, 0);
        let handoffs = a.update(&obs);
        assert_eq!(handoffs.len(), 2);
        let targets: Vec<u32> = handoffs.iter().map(|h| h.to.0).collect();
        assert_eq!(
            targets,
            vec![0, 1],
            "spread over the least-loaded instances"
        );
    }

    #[test]
    fn with_no_eligible_instance_clients_stay_put() {
        let mut a = InstanceAssignment::new(2, 1, 8);
        let obs = vec![status(0, 1, true, 0)];
        assert!(
            a.update(&obs).is_empty(),
            "a single-instance deployment mid view change keeps its clients"
        );
        assert_eq!(a.assignment(0), InstanceId(0));
        // Once the new coordinator proves itself, nothing needs to move —
        // the clients never left.
        let obs = vec![status(0, 1, false, 8)];
        assert!(a.update(&obs).is_empty());
    }
}
