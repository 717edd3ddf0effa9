//! The adaptive coordinator-hunting adversary.
//!
//! The scripted faults in [`crate::fault`] attack fixed replicas at fixed
//! times; a realistic adversary attacks *whoever holds power right now*.
//! This module models the strongest such adversary the paper's threat model
//! admits: one that observes the same per-instance coordinator information
//! clients see ([`InstanceStatus`]), concentrates its `f` corruptions on the
//! replica that currently coordinates the most instances, and re-acquires a
//! new target as soon as view changes depose the old one.
//!
//! The split of responsibilities mirrors the rest of the simulator:
//! [`AdversaryPolicy`] is a pure, deterministic targeting brain (observation
//! in, decision out — unit-testable without a simulation), and an
//! [`AdversaryAttack`] names the scripted [`FaultKind`] that strikes a
//! victim and the one that releases it. The simulator applies those faults
//! on virtual-time ticks through the same path as a [`crate::FaultScript`],
//! so the adversary has no fault mechanics of its own. With `f = 1` the
//! adversary may corrupt only one replica at a time, so every new strike
//! first releases the previous victim — a killed victim is not replaced
//! until it has revived.

use crate::fault::FaultKind;
use rcc_common::{Duration, InstanceStatus, ReplicaId, Time};

/// What the adversary does to each acquired target.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum AdversaryAttack {
    /// Crash the target and revive it after `down_for`. While the victim is
    /// down no new target is struck (the corruption budget is spent).
    Kill {
        /// How long each victim stays down.
        down_for: Duration,
    },
    /// Make the target a Byzantine silent primary: it keeps voting as a
    /// backup but withholds every proposal it should coordinate.
    Silence,
}

impl AdversaryAttack {
    /// The fault that strikes `target`.
    pub fn strike(&self, target: ReplicaId) -> FaultKind {
        match self {
            AdversaryAttack::Kill { .. } => FaultKind::Crash { replica: target },
            AdversaryAttack::Silence => FaultKind::SilencePrimary { replica: target },
        }
    }

    /// The fault that releases `old` when the adversary moves on, if any:
    /// a killed victim is released by its revive ([`FaultKind::Recover`])
    /// `down_for` after the strike instead.
    pub fn release(&self, old: ReplicaId) -> Option<FaultKind> {
        match self {
            AdversaryAttack::Kill { .. } => None,
            AdversaryAttack::Silence => Some(FaultKind::RestorePrimary { replica: old }),
        }
    }
}

/// Configuration of the adaptive adversary for one run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AdversarySpec {
    /// When the hunt starts.
    pub start: Time,
    /// Re-observation cadence: how often the adversary looks at the
    /// cluster and (re-)targets.
    pub interval: Duration,
    /// The attack applied to each acquired target.
    pub attack: AdversaryAttack,
    /// Maximum number of strikes (target acquisitions); `0` means
    /// unlimited. Once exhausted the current victim keeps suffering the
    /// standing attack (or revives, for [`AdversaryAttack::Kill`]) but no
    /// new target is acquired.
    pub max_strikes: u32,
}

impl AdversarySpec {
    /// An adversary that starts hunting at `start`, re-observing every
    /// `interval`, applying `attack` to at most `max_strikes` targets.
    pub fn new(start: Time, interval: Duration, attack: AdversaryAttack, max_strikes: u32) -> Self {
        AdversarySpec {
            start,
            interval,
            attack,
            max_strikes,
        }
    }
}

/// The decision of one adversary observation tick.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Retarget {
    /// The current victim still coordinates the most instances — keep the
    /// standing attack on it.
    Keep,
    /// Release the previous victim (if any) and strike `target`.
    Strike {
        /// The victim to release before the new strike (`None` on the
        /// first acquisition or after a kill-revive).
        released: Option<ReplicaId>,
        /// The newly acquired victim.
        target: ReplicaId,
    },
    /// Nothing to do: no strikes left, or every instance is mid
    /// view change so no coordinator is observable.
    Idle,
}

/// The deterministic targeting brain of the adaptive adversary.
///
/// Tracks the current victim and the number of strikes spent; the faults
/// themselves are applied by the simulator.
#[derive(Clone, Debug, Default)]
pub struct AdversaryPolicy {
    victim: Option<ReplicaId>,
    strikes: u32,
}

impl AdversaryPolicy {
    /// A fresh policy with no victim and no strikes spent.
    pub fn new() -> Self {
        AdversaryPolicy::default()
    }

    /// The replica currently under attack, if any.
    pub fn current_victim(&self) -> Option<ReplicaId> {
        self.victim
    }

    /// Target acquisitions performed so far.
    pub fn strikes(&self) -> u32 {
        self.strikes
    }

    /// Forgets the current victim without spending a strike (used when a
    /// killed victim revives: the next tick re-acquires from scratch).
    pub fn release(&mut self) {
        self.victim = None;
    }

    /// The highest-value target in `statuses`: the replica coordinating
    /// the most instances that are *not* mid view change, ties broken
    /// toward the lowest replica id. `None` when every instance is in a
    /// view change (power is in flux; there is nobody worth striking).
    pub fn choose_target(statuses: &[InstanceStatus]) -> Option<ReplicaId> {
        let mut counts: std::collections::BTreeMap<ReplicaId, usize> =
            std::collections::BTreeMap::new();
        for status in statuses {
            if !status.in_view_change {
                *counts.entry(status.coordinator).or_default() += 1;
            }
        }
        // Ascending iteration + strictly-greater keeps the lowest id on ties.
        let mut best: Option<(ReplicaId, usize)> = None;
        for (replica, count) in counts {
            if best.is_none_or(|(_, best_count)| count > best_count) {
                best = Some((replica, count));
            }
        }
        best.map(|(replica, _)| replica)
    }

    /// One observation tick: decides whether to keep the standing attack,
    /// re-target, or idle. `exhausted` is the strike budget check (the
    /// policy never acquires a new target once it is true, but keeps an
    /// existing victim).
    pub fn observe(&mut self, statuses: &[InstanceStatus], exhausted: bool) -> Retarget {
        let target = Self::choose_target(statuses);
        match (self.victim, target) {
            (Some(victim), Some(target)) if victim == target => Retarget::Keep,
            (Some(_), None) | (None, None) => Retarget::Idle,
            (released, Some(target)) => {
                if exhausted {
                    return Retarget::Idle;
                }
                self.victim = Some(target);
                self.strikes += 1;
                Retarget::Strike { released, target }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcc_common::InstanceId;

    fn status(instance: u32, coordinator: u32, in_view_change: bool) -> InstanceStatus {
        InstanceStatus {
            instance: InstanceId(instance),
            coordinator: ReplicaId(coordinator),
            view: 0,
            in_view_change,
            progress_in_view: 0,
        }
    }

    #[test]
    fn targets_the_replica_coordinating_the_most_instances() {
        let statuses = vec![
            status(0, 2, false),
            status(1, 2, false),
            status(2, 0, false),
        ];
        assert_eq!(
            AdversaryPolicy::choose_target(&statuses),
            Some(ReplicaId(2))
        );
    }

    #[test]
    fn ties_break_toward_the_lowest_replica_id() {
        let statuses = vec![status(0, 3, false), status(1, 1, false)];
        assert_eq!(
            AdversaryPolicy::choose_target(&statuses),
            Some(ReplicaId(1))
        );
    }

    #[test]
    fn instances_mid_view_change_carry_no_power() {
        let statuses = vec![status(0, 0, true), status(1, 1, false)];
        assert_eq!(
            AdversaryPolicy::choose_target(&statuses),
            Some(ReplicaId(1))
        );
        let all_changing = vec![status(0, 0, true), status(1, 1, true)];
        assert_eq!(AdversaryPolicy::choose_target(&all_changing), None);
    }

    #[test]
    fn observe_strikes_releases_and_respects_budget() {
        let mut policy = AdversaryPolicy::new();
        let round1 = vec![status(0, 0, false), status(1, 0, false)];
        assert_eq!(
            policy.observe(&round1, false),
            Retarget::Strike {
                released: None,
                target: ReplicaId(0)
            }
        );
        // Same observation: keep the standing attack, no extra strike.
        assert_eq!(policy.observe(&round1, false), Retarget::Keep);
        assert_eq!(policy.strikes(), 1);
        // The view change deposes replica 0: release it, strike replica 1.
        let round2 = vec![status(0, 1, false), status(1, 1, false)];
        assert_eq!(
            policy.observe(&round2, false),
            Retarget::Strike {
                released: Some(ReplicaId(0)),
                target: ReplicaId(1)
            }
        );
        assert_eq!(policy.strikes(), 2);
        // Budget exhausted: power shifted again but no new acquisition.
        let round3 = vec![status(0, 2, false), status(1, 2, false)];
        assert_eq!(policy.observe(&round3, true), Retarget::Idle);
        assert_eq!(policy.current_victim(), Some(ReplicaId(1)));
        // A kill-revive releases without spending a strike.
        policy.release();
        assert_eq!(policy.current_victim(), None);
    }
}
