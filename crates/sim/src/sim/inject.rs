//! Fault application: the one place a replica's fault state changes.
//!
//! Scripted [`FaultKind`]s and the adaptive adversary's strikes both end in
//! [`Simulation::apply`]. The adversary keeps only its own bookkeeping here
//! (strikes spent, a killed victim's downtime, the revive event); what it
//! does to a victim is the [`FaultKind`] its [`AdversaryAttack`] names.
//! Wire chaos, switched on by [`FaultKind::MangleWire`], acts per message in
//! [`Simulation::mangle_wire`].

use super::{EventKind, Simulation, Wire};
use crate::adversary::{AdversaryAttack, AdversaryPolicy, AdversarySpec, Retarget};
use crate::fault::FaultKind;
use crate::network::LinkParams;
use rcc_common::{Duration, ReplicaId, Time};
use rcc_protocols::bca::ByzantineCommitAlgorithm;
use std::collections::BTreeSet;

/// Live state of the adaptive adversary inside the event loop.
pub(super) struct AdversaryRuntime {
    spec: AdversarySpec,
    policy: AdversaryPolicy,
    /// A killed victim is down until this time; no new strike meanwhile
    /// (the corruption budget `f` is spent on the corpse).
    victim_down_until: Option<Time>,
}

impl AdversaryRuntime {
    pub(super) fn new(spec: AdversarySpec) -> AdversaryRuntime {
        AdversaryRuntime {
            spec,
            policy: AdversaryPolicy::new(),
            victim_down_until: None,
        }
    }
}

impl<P: ByzantineCommitAlgorithm> Simulation<P> {
    /// Applies one fault or repair, scripted or the adversary's. Outside
    /// [`Simulation::new`] nothing else writes a replica's fault state.
    pub(super) fn apply(&mut self, fault: FaultKind) {
        match fault {
            FaultKind::Crash { replica } => {
                self.nodes[replica.index()].crashed = true;
            }
            FaultKind::Recover { replica } => {
                self.nodes[replica.index()].crashed = false;
                self.maybe_pump(replica);
            }
            FaultKind::Partition { group } => {
                let members: BTreeSet<ReplicaId> = group.into_iter().collect();
                for a in ReplicaId::all(self.config.system.n) {
                    for b in ReplicaId::all(self.config.system.n) {
                        if members.contains(&a) != members.contains(&b) {
                            self.blocked.insert((a, b));
                        }
                    }
                }
            }
            FaultKind::Heal => {
                self.blocked.clear();
            }
            FaultKind::SilencePrimary { replica } => {
                self.nodes[replica.index()].silenced = true;
            }
            FaultKind::RestorePrimary { replica } => {
                self.nodes[replica.index()].silenced = false;
                self.maybe_pump(replica);
            }
            FaultKind::Throttle { replica, factor } => {
                // Clamp to a positive floor: factor 0 would make the replica
                // infinitely fast, the opposite of the modeled attack.
                self.nodes[replica.index()].throttle = factor.max(1e-3);
            }
            FaultKind::ClockSkew { replica, factor } => {
                self.nodes[replica.index()].clock_skew = factor.max(1e-3);
            }
            FaultKind::PartitionOneWay { from, to } => {
                for &a in &from {
                    for &b in &to {
                        if a != b {
                            self.blocked.insert((a, b));
                        }
                    }
                }
            }
            FaultKind::SlowLink { replica, factor } => {
                self.nodes[replica.index()].link_slow = factor.max(1e-3);
            }
            FaultKind::DelayEgress { replica, delay } => {
                self.nodes[replica.index()].egress_delay = delay;
            }
            FaultKind::MangleWire { rate_ppm } => {
                self.mangle_ppm = rate_ppm;
            }
        }
    }

    /// One observation tick of the adaptive adversary: look at the merged
    /// [`rcc_common::InstanceStatus`] picture (the same information clients
    /// act on), release-and-restrike if coordination power moved, and
    /// schedule the next tick.
    pub(super) fn adversary_tick(&mut self, at: Time) {
        let Some(mut runtime) = self.adversary.take() else {
            return;
        };
        // While a killed victim is down the corruption budget is spent —
        // no retargeting until it revives.
        let victim_down = runtime.victim_down_until.is_some_and(|until| until > at);
        if !victim_down {
            let exhausted = runtime.spec.max_strikes > 0
                && runtime.policy.strikes() >= runtime.spec.max_strikes;
            let statuses = self.observe_instances();
            match runtime.policy.observe(&statuses, exhausted) {
                Retarget::Keep | Retarget::Idle => {}
                Retarget::Strike { released, target } => {
                    // Undo the standing attack on the deposed victim so the
                    // single corruption can move on (`f = 1`).
                    let release = released.and_then(|old| runtime.spec.attack.release(old));
                    if let Some(fault) = release {
                        self.apply(fault);
                    }
                    self.strike_victim(target, at, &mut runtime);
                }
            }
        }
        self.push(at + runtime.spec.interval, EventKind::AdversaryTick);
        self.adversary = Some(runtime);
    }

    /// Strikes a freshly acquired victim; a killed one is revived by an
    /// event scheduled `down_for` later.
    fn strike_victim(&mut self, target: ReplicaId, at: Time, runtime: &mut AdversaryRuntime) {
        self.telemetry.adversary_strikes.inc();
        self.apply(runtime.spec.attack.strike(target));
        if let AdversaryAttack::Kill { down_for } = runtime.spec.attack {
            let until = at + down_for;
            runtime.victim_down_until = Some(until);
            self.push(until, EventKind::AdversaryRevive { replica: target });
        }
    }

    /// Revives a victim the adversary killed; the next tick re-acquires a
    /// target from scratch.
    pub(super) fn adversary_revive(&mut self, replica: ReplicaId) {
        if let Some(runtime) = &mut self.adversary {
            runtime.victim_down_until = None;
            runtime.policy.release();
        }
        self.apply(FaultKind::Recover { replica });
    }

    /// Wire chaos ([`FaultKind::MangleWire`]): rolls the mangle dice for one
    /// replica-to-replica message arriving at `arrival`. Returns `true` when
    /// the caller must *not* deliver the message normally (it was corrupted
    /// away or already pushed with altered timing). Corruption is modeled at
    /// the frame boundary: the receiver's codec rejects the damaged frame
    /// with a typed error (the behaviour `rcc-network`'s `ByteMangler` tests
    /// pin down), which on the simulator's abstraction level is a message
    /// loss.
    pub(super) fn mangle_wire(
        &mut self,
        wire: &Wire<P::Message>,
        arrival: Time,
        link: &LinkParams,
    ) -> bool {
        // Keep a small ring of live traffic as the replay source.
        const RING: usize = 8;
        if self.mangle_recent.len() < RING {
            self.mangle_recent.push(wire.clone());
        } else {
            self.mangle_recent[self.mangle_next_slot % RING] = wire.clone();
        }
        self.mangle_next_slot = (self.mangle_next_slot + 1) % RING;
        if self.mangle_rng.next_below(1_000_000) >= self.mangle_ppm as u64 {
            return false;
        }
        // Extra delays are drawn up to twice the link latency plus a
        // millisecond — enough to reorder against later traffic on the
        // same link without stalling the run.
        let spread = link.latency.as_nanos().saturating_mul(2) + 1_000_000;
        match self.mangle_rng.next_below(4) {
            0 => {
                // Corrupted: rejected at the receiver's frame boundary.
                true
            }
            1 => {
                // Duplicated: the original plus a delayed copy.
                let copy_at = arrival + Duration::from_nanos(self.mangle_rng.next_below(spread));
                self.push(copy_at, EventKind::Deliver(wire.clone()));
                false
            }
            2 => {
                // Delayed/reordered.
                let late = arrival + Duration::from_nanos(self.mangle_rng.next_below(spread));
                self.push(late, EventKind::Deliver(wire.clone()));
                true
            }
            _ => {
                // Replayed: the original goes through, plus a stale message
                // from the ring re-sent to its original destination.
                let pick = self.mangle_rng.next_below(self.mangle_recent.len() as u64) as usize;
                let stale = self.mangle_recent[pick].clone();
                let replay_at = arrival + Duration::from_nanos(self.mangle_rng.next_below(spread));
                self.push(replay_at, EventKind::Deliver(stale));
                false
            }
        }
    }
}
