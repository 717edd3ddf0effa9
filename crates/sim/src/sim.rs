//! The virtual-time discrete-event simulation loop.
//!
//! A [`Simulation`] owns `n` sans-io protocol state machines (any
//! [`ByzantineCommitAlgorithm`], including [`rcc_core::RccReplica`]) and
//! drives them through a single event queue ordered by virtual time:
//!
//! * **Deliver** events carry protocol messages; delivery time is the
//!   sender's CPU-completion time plus egress serialization (bytes ÷
//!   bandwidth), link propagation latency, and seeded jitter.
//! * **Timer** events fire the timers the protocols arm via
//!   [`Action::SetTimer`], with cancellation handled by an armed-timer map.
//! * **Pump** events drive the explicit client nodes: one
//!   [`rcc_workload::Client`] per consensus instance, assigned to instances
//!   by the Section III-E [`rcc_workload::InstanceAssignment`] policy and
//!   submitting to its instance's *current* coordinator. Closed-loop clients
//!   ([`ClientMode::Closed`], the paper's measurement setup) keep a
//!   window of batches in flight and wait for `f + 1` matching replies;
//!   open-loop clients submit on a fixed interval. When an instance's
//!   coordinator is replaced, its clients drain to a healthy instance and
//!   return only after the replacement has demonstrated `σ` rounds of
//!   progress — which is what restores post-recovery throughput instead of
//!   leaving the recovered instance on catch-up no-ops forever.
//! * **Fault** events replay the configured [`FaultScript`], and
//!   **adversary** events run the adaptive adversary; both are applied in
//!   the `inject` child module, the one place a replica's fault state
//!   changes.
//!
//! CPU time is charged per the [`CpuModel`] and
//! [`rcc_crypto::CryptoCostModel`]: per-message overhead and
//! replica-to-replica authentication are sequential on the consensus path,
//! while client-signature batch verification and execution parallelize over
//! the replica's cores. A replica is a single server: work queues behind
//! `busy_until`, which is what makes throughput saturate instead of growing
//! without bound.
//!
//! Determinism: events are ordered by `(virtual time, insertion sequence)`,
//! all collections iterate in deterministic order, and every random draw
//! (jitter, workload) comes from [`SplitMix64`] streams derived from
//! [`rcc_common::SystemConfig::seed`]. Two runs with the same configuration
//! produce bit-identical event traces; the running [`SimReport::trace_fingerprint`]
//! witnesses this.

use crate::adversary::AdversarySpec;
use crate::cpu::CpuModel;
use crate::fault::{FaultEvent, FaultScript};
use crate::metrics::ThroughputMeter;
use crate::network::NetworkModel;
use crate::telemetry::SimTelemetry;
use rcc_common::{
    Digest, Duration, InstanceStatus, ReplicaId, Round, SplitMix64, SystemConfig, Time,
};
use rcc_crypto::CryptoCostModel;
use rcc_protocols::bca::{Action, ByzantineCommitAlgorithm, TimerId, WireMessage};
use rcc_telemetry::{FlightEvent, FlightEventKind, Snapshot};
use rcc_workload::{Client, ClientMode, InstanceAssignment, ReplyOutcome};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap};

mod inject;

use inject::AdversaryRuntime;

/// Safety bound on processed events; exceeding it aborts the run (it
/// indicates a livelock, not a legitimate workload).
const MAX_EVENTS: u64 = 500_000_000;

/// Complete configuration of one simulation run.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// The deployment being simulated (n, f, m, batching, crypto mode, seed).
    pub system: SystemConfig,
    /// Link latency/bandwidth topology.
    pub network: NetworkModel,
    /// Non-crypto CPU costs.
    pub cpu: CpuModel,
    /// Cryptographic CPU costs.
    pub costs: CryptoCostModel,
    /// Virtual-time end of the run.
    pub horizon: Duration,
    /// Start of the measurement window (latency samples are restricted to
    /// batches submitted inside the window; throughput is recorded as a time
    /// series and can be evaluated over any window).
    pub measure_start: Time,
    /// End of the measurement window.
    pub measure_end: Time,
    /// Scripted fault injection.
    pub faults: FaultScript,
    /// The adaptive coordinator-hunting adversary, if any (runs on top of
    /// the scripted faults).
    pub adversary: Option<AdversarySpec>,
    /// The arrival model of every client node. `None` (what
    /// [`SimConfig::new`] sets) is closed-loop clients that keep the
    /// pipeline saturated with [`SystemConfig::out_of_order_window`] batches
    /// in flight each (the paper measures saturated throughput);
    /// `Some(interval)` is open-loop clients that submit one batch every
    /// `interval` of virtual time, regardless of replies
    /// ([`ClientMode::Open`]), decoupling arrival rate from service rate.
    pub open_loop_interval: Option<Duration>,
}

impl SimConfig {
    /// A configuration with the whole run as the measurement window, no
    /// faults and saturating closed-loop clients.
    pub fn new(system: SystemConfig, network: NetworkModel, horizon: Duration) -> Self {
        SimConfig {
            system,
            network,
            cpu: CpuModel::default(),
            costs: CryptoCostModel::default(),
            horizon,
            measure_start: Time::ZERO,
            measure_end: Time::ZERO + horizon,
            faults: FaultScript::none(),
            adversary: None,
            open_loop_interval: None,
        }
    }

    /// Sets the measurement window (builder style).
    pub fn with_measure_window(mut self, start: Time, end: Time) -> Self {
        self.measure_start = start;
        self.measure_end = end;
        self
    }

    /// Sets the fault script (builder style).
    pub fn with_faults(mut self, faults: FaultScript) -> Self {
        self.faults = faults;
        self
    }

    /// Arms the adaptive adversary (builder style).
    pub fn with_adversary(mut self, adversary: AdversarySpec) -> Self {
        self.adversary = Some(adversary);
        self
    }

    /// Makes every client node open-loop, submitting one batch per
    /// `interval` of virtual time (builder style).
    pub fn with_open_loop_clients(mut self, interval: Duration) -> Self {
        self.open_loop_interval = Some(interval);
        self
    }
}

/// Everything measured by one simulation run. Every count, peak and
/// distribution (commits, messages, failure handling, the retained-log peak,
/// client latency) is a `sim.*` metric of [`SimReport::telemetry`], read
/// from there ([`SimReport::count`]); the report copies none of them out.
#[derive(Clone, Debug)]
pub struct SimReport {
    /// Quorum-committed transaction throughput as a bucketed time series.
    pub throughput: ThroughputMeter,
    /// Events processed by the simulation loop.
    pub events_processed: u64,
    /// Chained fingerprint over every processed event; equal fingerprints ⇒
    /// identical event traces.
    pub trace_fingerprint: u64,
    /// End-of-run snapshot of the run's metric registry (the `sim.*`
    /// catalog in `docs/OBSERVABILITY.md`). All values derive from virtual
    /// time and seeded randomness, so two same-seed runs produce equal
    /// snapshots — the determinism test asserts exactly that.
    pub telemetry: Snapshot,
    /// The flight recorder's retained structured events (view changes,
    /// σ-lag detections, checkpoint stabilizations, client hand-offs),
    /// oldest first, timestamped in virtual nanoseconds.
    pub flight: Vec<FlightEvent>,
}

impl SimReport {
    /// Average quorum-committed throughput (txn/s) over `[start, end)`.
    pub fn throughput_over(&self, start: Time, end: Time) -> f64 {
        self.throughput.throughput_over(start, end)
    }

    /// The `sim.*` counter or gauge `name` of [`SimReport::telemetry`] (0
    /// when the run never registered it).
    pub fn count(&self, name: &str) -> u64 {
        let telemetry = &self.telemetry;
        telemetry
            .counter(name)
            .or_else(|| telemetry.gauge(name))
            .unwrap_or(0)
    }
}

/// An in-flight (submitted, not yet quorum-committed) batch.
#[derive(Clone, Debug)]
struct PendingBatch {
    submitted: Time,
    transactions: u64,
    /// Bitmask of replicas that committed the batch (n ≤ 128 everywhere in
    /// the paper's experiments).
    committers: u128,
    counted: bool,
    /// The client node that submitted the batch (its replies go there).
    client: usize,
}

/// Per-replica simulation state around the protocol state machine.
struct SimNode<P: ByzantineCommitAlgorithm> {
    bca: P,
    /// The consensus path is busy until this time.
    busy_until: Time,
    /// The verify/execute worker pool is busy until this time. Batch
    /// verification and round execution run on this lane, overlapping with
    /// the sequential consensus path.
    worker_busy: Time,
    /// The egress NIC is busy until this time.
    egress_busy: Time,
    /// CPU slow-down factor (Section-IV throttling; 1.0 = full speed).
    throttle: f64,
    /// Timer-delay distortion factor (clock skew; 1.0 = honest clock).
    clock_skew: f64,
    /// Serialization slow-down of traffic *toward* this replica
    /// (slowloris victim; 1.0 = full speed).
    link_slow: f64,
    /// Fixed extra delay on every message this replica sends (timing
    /// equivocation; `Duration::ZERO` = honest).
    egress_delay: Duration,
    crashed: bool,
    /// Byzantine silent primary: withholds proposals.
    silenced: bool,
    timers: BTreeMap<TimerId, Time>,
    pump_pending: bool,
}

/// One explicit client node: the workload/reply state machine from
/// `rcc-workload` plus the coordinator it currently submits to (the observed
/// coordinator of its assigned instance).
struct ClientNode {
    client: Client,
    attached: ReplicaId,
}

/// One replica-to-replica message in flight: what a delivery event carries
/// and what the wire-chaos replay ring keeps.
#[derive(Clone)]
struct Wire<M> {
    from: ReplicaId,
    to: ReplicaId,
    bytes: usize,
    proposal: bool,
    payload_transactions: usize,
    message: M,
}

enum EventKind<M> {
    Deliver(Wire<M>),
    Timer {
        node: ReplicaId,
        timer: TimerId,
        at: Time,
    },
    Pump {
        node: ReplicaId,
    },
    Fault {
        index: usize,
    },
    /// Adaptive-adversary observation tick: look at the cluster, retarget.
    AdversaryTick,
    /// Revive of a victim the adaptive adversary killed.
    AdversaryRevive {
        replica: ReplicaId,
    },
}

struct Event<M> {
    at: Time,
    seq: u64,
    kind: EventKind<M>,
}

impl<M> PartialEq for Event<M> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<M> Eq for Event<M> {}
impl<M> PartialOrd for Event<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for Event<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

fn mix(h: u64, v: u64) -> u64 {
    (h.rotate_left(5) ^ v).wrapping_mul(0x2545_F491_4F6C_DD1D)
}

/// A deterministic discrete-event simulation of one deployment.
pub struct Simulation<P: ByzantineCommitAlgorithm> {
    config: SimConfig,
    nodes: Vec<SimNode<P>>,
    /// Explicit client nodes, one per consensus instance.
    clients: Vec<ClientNode>,
    /// The Section III-E client-to-instance assignment.
    assignment: InstanceAssignment,
    /// Number of concurrent consensus instances of the simulated protocol.
    instance_count: usize,
    queue: BinaryHeap<Reverse<Event<P::Message>>>,
    next_seq: u64,
    faults: Vec<FaultEvent>,
    /// Directed links currently cut by a partition.
    blocked: BTreeSet<(ReplicaId, ReplicaId)>,
    /// The adaptive adversary, when configured.
    adversary: Option<AdversaryRuntime>,
    /// Wire-chaos rate in events per million messages (0 = clean wire).
    mangle_ppm: u32,
    /// Dedicated random stream for wire chaos; untouched (and therefore
    /// fingerprint-neutral) while `mangle_ppm == 0`.
    mangle_rng: SplitMix64,
    /// Ring of recently sent messages, the replay source for wire chaos.
    mangle_recent: Vec<Wire<P::Message>>,
    mangle_next_slot: usize,
    jitter_rng: SplitMix64,
    inflight: BTreeMap<Digest, PendingBatch>,
    throughput: ThroughputMeter,
    events_processed: u64,
    /// Set when an event surfaced a failure-handling transition (suspicion
    /// or view change): the client assignment is refreshed before the next
    /// event so drains and σ-spaced returns happen at failure boundaries,
    /// not only when a blocked client happens to pump.
    client_refresh_due: bool,
    trace: u64,
    /// Virtual time of the event currently being processed; new events are
    /// never scheduled before it.
    now: Time,
    /// Pre-registered metric handles plus the flight recorder; its virtual
    /// clock follows `now`. Everything the run counts is recorded here,
    /// once, and read back into the [`SimReport`] at the end.
    telemetry: SimTelemetry,
    /// Each replica's last observed stable checkpoint round, for edge-
    /// detecting `checkpoint-stabilized` flight events.
    last_stable: Vec<Round>,
    /// Primaries suspected since the last completed view change; the first
    /// suspicion of an empty set marks `view-change-entered`.
    suspected_since_change: BTreeSet<u32>,
}

impl<P: ByzantineCommitAlgorithm> Simulation<P> {
    /// Builds a simulation over `n` state machines created by
    /// `factory(replica)`.
    ///
    /// # Panics
    ///
    /// Panics when the system configuration fails validation.
    pub fn new(config: SimConfig, mut factory: impl FnMut(ReplicaId) -> P) -> Self {
        config.system.validate().expect("invalid simulation config");
        let n = config.system.n;
        // The commit-quorum tracker is a 128-bit mask; the paper's largest
        // deployment is 91 replicas.
        assert!(
            n <= 128,
            "the simulator supports at most 128 replicas (n = {n})"
        );
        let seed = config.system.seed;
        let batch_size = config.system.batch_size;
        let nodes: Vec<SimNode<P>> = ReplicaId::all(n)
            .map(|r| SimNode {
                bca: factory(r),
                busy_until: Time::ZERO,
                worker_busy: Time::ZERO,
                egress_busy: Time::ZERO,
                throttle: 1.0,
                clock_skew: 1.0,
                link_slow: 1.0,
                egress_delay: Duration::ZERO,
                crashed: false,
                silenced: false,
                timers: BTreeMap::new(),
                pump_pending: false,
            })
            .collect();
        // One explicit client node per consensus instance, homed on it by the
        // Section III-E assignment policy and initially attached to its view-0
        // coordinator.
        let statuses = nodes[0].bca.instance_statuses();
        let instance_count = statuses.len().max(1);
        let mode = match config.open_loop_interval {
            Some(interval) => ClientMode::Open { interval },
            None => ClientMode::Closed {
                window: config.system.out_of_order_window,
            },
        };
        let reply_quorum = config.system.client_reply_quorum();
        let clients: Vec<ClientNode> = (0..instance_count)
            .map(|stream| ClientNode {
                client: Client::new(seed, stream as u64, batch_size, reply_quorum, mode),
                attached: statuses[stream].coordinator,
            })
            .collect();
        let assignment =
            InstanceAssignment::new(instance_count, instance_count, config.system.sigma);
        let faults = config.faults.sorted();
        let adversary = config.adversary.map(AdversaryRuntime::new);
        let mut sim = Simulation {
            adversary,
            mangle_ppm: 0,
            mangle_rng: SplitMix64::new(seed).fork(0xC4A0),
            mangle_recent: Vec::new(),
            mangle_next_slot: 0,
            jitter_rng: SplitMix64::new(seed).fork(0xFACE),
            nodes,
            clients,
            assignment,
            instance_count,
            queue: BinaryHeap::new(),
            next_seq: 0,
            faults,
            blocked: BTreeSet::new(),
            inflight: BTreeMap::new(),
            throughput: ThroughputMeter::new(Duration::from_millis(50)),
            events_processed: 0,
            client_refresh_due: false,
            trace: 0x9E37_79B9_7F4A_7C15,
            now: Time::ZERO,
            telemetry: SimTelemetry::new(),
            last_stable: vec![0; n],
            suspected_since_change: BTreeSet::new(),
            config,
        };
        for index in 0..sim.faults.len() {
            let at = sim.faults[index].at;
            sim.push(at, EventKind::Fault { index });
        }
        if let Some(AdversarySpec { start, .. }) = sim.config.adversary {
            sim.push(start, EventKind::AdversaryTick);
        }
        for node in ReplicaId::all(n) {
            sim.nodes[node.index()].pump_pending = true;
            sim.push(Time::ZERO, EventKind::Pump { node });
        }
        sim
    }

    /// Runs the simulation to its virtual horizon and returns the report.
    pub fn run(self) -> SimReport {
        self.run_full().0
    }

    /// Like [`Simulation::run`], but additionally hands back the final
    /// protocol state machines (indexed by replica) so callers can make
    /// end-of-run safety assertions — e.g. that all replicas released the
    /// same execution order.
    pub fn run_full(mut self) -> (SimReport, Vec<P>) {
        let end = Time::ZERO + self.config.horizon;
        while let Some(Reverse(event)) = self.queue.pop() {
            if event.at > end {
                break;
            }
            self.events_processed += 1;
            assert!(
                self.events_processed <= MAX_EVENTS,
                "simulation exceeded {MAX_EVENTS} events — livelock?"
            );
            self.note_event(&event);
            self.now = event.at;
            self.telemetry.clock.advance_to(event.at.as_nanos());
            let touched = match event.kind {
                EventKind::Deliver(wire) => {
                    let to = wire.to;
                    self.deliver(event.at, wire);
                    Some(to)
                }
                EventKind::Timer { node, timer, at } => {
                    self.fire_timer(event.at, node, timer, at);
                    Some(node)
                }
                EventKind::Pump { node } => {
                    self.pump(event.at, node);
                    Some(node)
                }
                EventKind::Fault { index } => {
                    self.apply(self.faults[index].fault.clone());
                    None
                }
                EventKind::AdversaryTick => {
                    self.adversary_tick(event.at);
                    None
                }
                EventKind::AdversaryRevive { replica } => {
                    self.adversary_revive(replica);
                    Some(replica)
                }
            };
            // Sample the touched replica's retained log for the memory-peak
            // report (only that replica's state can have grown this event).
            if let Some(node) = touched {
                let retained = self.nodes[node.index()].bca.retained_log_entries();
                self.telemetry.peak_retained_log.set_max(retained);
                // Edge-detect §III-D checkpoint stabilization on the touched
                // replica for the flight recorder.
                let stable = self.nodes[node.index()].bca.stable_round();
                if stable > self.last_stable[node.index()] {
                    self.last_stable[node.index()] = stable;
                    self.telemetry.event(
                        node.0,
                        FlightEventKind::CheckpointStabilized { round: stable },
                    );
                }
            }
            if self.client_refresh_due {
                self.client_refresh_due = false;
                self.refresh_clients();
                for node in ReplicaId::all(self.config.system.n) {
                    self.maybe_pump(node);
                }
            }
        }
        let report = SimReport {
            throughput: self.throughput,
            events_processed: self.events_processed,
            trace_fingerprint: self.trace,
            telemetry: self.telemetry.snapshot(),
            flight: self.telemetry.flight_events(),
        };
        (report, self.nodes.into_iter().map(|n| n.bca).collect())
    }

    fn note_event(&mut self, event: &Event<P::Message>) {
        let (tag, a, b) = match &event.kind {
            EventKind::Deliver(Wire {
                from, to, bytes, ..
            }) => (1, ((from.0 as u64) << 32) | to.0 as u64, *bytes as u64),
            EventKind::Timer { node, timer, .. } => (2, node.0 as u64, timer.0),
            EventKind::Pump { node } => (3, node.0 as u64, 0),
            EventKind::Fault { index } => (4, *index as u64, 0),
            EventKind::AdversaryTick => (5, 0, 0),
            EventKind::AdversaryRevive { replica } => (6, replica.0 as u64, 0),
        };
        self.trace = mix(self.trace, event.at.as_nanos());
        self.trace = mix(self.trace, tag);
        self.trace = mix(self.trace, a);
        self.trace = mix(self.trace, b);
    }

    fn push(&mut self, at: Time, kind: EventKind<P::Message>) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.queue.push(Reverse(Event { at, seq, kind }));
    }

    fn scaled(&self, node: usize, cost: Duration) -> Duration {
        let throttle = self.nodes[node].throttle;
        if throttle == 1.0 {
            cost
        } else {
            cost.mul_f64(throttle)
        }
    }

    /// Queues `work` (spread over the node's cores) on its worker lane once
    /// `ready` has passed and the lane is free; returns when it finishes.
    fn on_worker_lane(&mut self, node: usize, ready: Time, work: Duration) -> Time {
        let cost = self.scaled(node, self.config.cpu.worker_share(work));
        let done = ready.max(self.nodes[node].worker_busy) + cost;
        self.nodes[node].worker_busy = done;
        done
    }

    fn deliver(&mut self, at: Time, wire: Wire<P::Message>) {
        let Wire {
            from,
            to,
            bytes,
            proposal,
            payload_transactions,
            message,
        } = wire;
        if self.nodes[to.index()].crashed || self.blocked.contains(&(from, to)) {
            return;
        }
        self.telemetry.messages.inc();
        self.telemetry.bytes.add(bytes as u64);
        let idx = to.index();
        let crypto_mode = self.config.system.crypto;
        // Sequential consensus-path work: parse, authenticate the frame,
        // protocol bookkeeping. Batch verification of the payload's client
        // signatures is handed to the worker pool, whose lane overlaps the
        // sequential path: the next message can start parsing while the
        // workers still verify this proposal's batch.
        let mut cost =
            self.config.cpu.message_overhead + self.config.costs.incoming_message_cost(crypto_mode);
        if proposal {
            cost = cost + self.config.cpu.proposal_overhead + self.config.costs.digest;
        }
        let cost = self.scaled(idx, cost);
        let start = at.max(self.nodes[idx].busy_until);
        let parsed = start + cost;
        self.nodes[idx].busy_until = parsed;
        let ready = if proposal {
            let verify = self
                .config
                .costs
                .batch_verify_cost(crypto_mode, payload_transactions);
            self.on_worker_lane(idx, parsed, verify)
        } else {
            parsed
        };
        let actions = self.nodes[idx].bca.on_message(ready, from, message);
        self.apply_actions(to, ready, actions);
        self.maybe_pump(to);
    }

    fn fire_timer(&mut self, at: Time, node: ReplicaId, timer: TimerId, armed_at: Time) {
        let idx = node.index();
        if self.nodes[idx].crashed {
            // A timer that pops while the replica is down is lost.
            self.nodes[idx].timers.remove(&timer);
            return;
        }
        // Only fire if the timer is still armed for exactly this deadline
        // (cancelled or re-armed timers leave stale heap entries behind).
        if self.nodes[idx].timers.get(&timer) != Some(&armed_at) {
            return;
        }
        self.nodes[idx].timers.remove(&timer);
        let cost = self.scaled(idx, self.config.cpu.message_overhead);
        let start = at.max(self.nodes[idx].busy_until);
        let ready = start + cost;
        self.nodes[idx].busy_until = ready;
        let actions = self.nodes[idx].bca.on_timeout(ready, timer);
        self.apply_actions(node, ready, actions);
        self.maybe_pump(node);
    }

    /// Merges every replica's view of the instances into one observation per
    /// instance. Crashed replicas are excluded (clients cannot hear from
    /// them); among the rest the most advanced view wins — views are monotone
    /// and a view's coordinator is a deterministic function of `(instance,
    /// view)`, so this models clients learning the new coordinator from
    /// NEW-VIEW-carrying replies without simulating the client links.
    fn observe_instances(&self) -> Vec<InstanceStatus> {
        let mut merged: Vec<Option<InstanceStatus>> = vec![None; self.instance_count];
        for node in &self.nodes {
            if node.crashed {
                continue;
            }
            for status in node.bca.instance_statuses() {
                let slot = &mut merged[status.instance.index()];
                match slot {
                    Some(existing) => existing.merge(&status),
                    None => *slot = Some(status),
                }
            }
        }
        // With every replica crashed (a legal scripted total outage) no live
        // observation exists; fall back to the crashed replicas' last known
        // state rather than panicking — the run then simply winds down with
        // nothing committing.
        for node in &self.nodes {
            if merged.iter().all(|slot| slot.is_some()) {
                break;
            }
            for status in node.bca.instance_statuses() {
                let slot = &mut merged[status.instance.index()];
                if slot.is_none() {
                    *slot = Some(status);
                }
            }
        }
        merged
            .into_iter()
            .enumerate()
            .map(|(i, status)| status.unwrap_or_else(|| panic!("no replica reports instance {i}")))
            .collect()
    }

    /// Re-runs the assignment policy against the latest observations:
    /// executes hand-offs (abandoning batches in flight through the old
    /// instance — the client re-issues fresh work at the new coordinator) and
    /// re-attaches every client to its assigned instance's current
    /// coordinator.
    fn refresh_clients(&mut self) {
        let observations = self.observe_instances();
        for handoff in self.assignment.update(&observations) {
            self.telemetry.client_handoffs.inc();
            self.telemetry.event(
                handoff.client as u32,
                FlightEventKind::ClientHandoff {
                    client: handoff.client as u64,
                },
            );
            self.clients[handoff.client].client.abandon_inflight();
        }
        for (index, client) in self.clients.iter_mut().enumerate() {
            let assigned = self.assignment.assignment(index);
            client.attached = observations[assigned.index()].coordinator;
        }
    }

    fn pump(&mut self, at: Time, node: ReplicaId) {
        let idx = node.index();
        self.nodes[idx].pump_pending = false;
        // Re-run the assignment policy only when it can actually move a
        // client: failure-handling transitions set `client_refresh_due`
        // (and are refreshed in the event loop), and a σ-spaced hand-back
        // requires some client to be off its home instance — polling on
        // every pump of a healthy steady state would recompute an identical
        // assignment hundreds of thousands of times per run.
        if self.client_refresh_due || !self.assignment.fully_home() {
            self.refresh_clients();
        }
        if self.nodes[idx].crashed || self.nodes[idx].silenced {
            return;
        }
        let crypto_mode = self.config.system.crypto;
        let mut t_cpu = at.max(self.nodes[idx].busy_until);
        // The client windows bound this loop; the extra guard protects
        // against a protocol whose propose() fails to consume capacity.
        let mut guard =
            (self.config.system.out_of_order_window + 4) * self.clients.len().max(1) + 4;
        for ci in 0..self.clients.len() {
            if self.clients[ci].attached != node {
                continue;
            }
            let instance = self.assignment.assignment(ci);
            while guard > 0
                && self.clients[ci].client.ready(at)
                && self.nodes[idx].bca.proposal_capacity_for(instance) > 0
            {
                guard -= 1;
                let (digest, batch) = self.clients[ci].client.submit(at);
                let transactions = batch.effective_transactions() as u64;
                // Client→replica link: the batch serializes on the client's
                // NIC and crosses the client link before the coordinator can
                // start verifying it (previously this hop was free).
                let link = self.config.network.client;
                let request_bytes = batch.wire_size();
                let jitter =
                    Duration::from_nanos(self.jitter_rng.next_below(link.jitter.as_nanos()));
                let arrival = at + link.serialization_delay(request_bytes) + link.latency + jitter;
                // Coordinator-side cost: assemble and digest the proposal on
                // the sequential path, then verify the clients' signatures on
                // the worker pool. The proposal cannot be broadcast before
                // the pool finishes, but the sequential path is free to start
                // on the next client batch meanwhile.
                let cost = self.scaled(
                    idx,
                    self.config.cpu.proposal_overhead + self.config.costs.digest,
                );
                t_cpu = t_cpu.max(arrival) + cost;
                let verify = self
                    .config
                    .costs
                    .batch_verify_cost(crypto_mode, batch.len());
                let verified = self.on_worker_lane(idx, t_cpu, verify);
                let actions = self.nodes[idx].bca.propose_for(verified, instance, batch);
                if actions.is_empty() {
                    // The coordinator turned the batch away (lost the
                    // instance, raced out of capacity): the client frees the
                    // window slot and will submit fresh work later.
                    self.clients[ci].client.forget(&digest);
                    break;
                }
                self.nodes[idx].busy_until = t_cpu;
                self.inflight.insert(
                    digest,
                    PendingBatch {
                        submitted: at,
                        transactions,
                        committers: 0,
                        counted: false,
                        client: ci,
                    },
                );
                // The broadcast itself waits for the pool to finish
                // verifying; the sequential path resumes from wherever the
                // send serialization leaves it.
                self.apply_actions(node, verified, actions);
                t_cpu = t_cpu.max(self.nodes[idx].busy_until);
            }
        }
        // Open-loop clients are paced by the clock, not by replies: schedule
        // the next submission this replica will serve.
        if !self.nodes[idx].pump_pending {
            let next = self
                .clients
                .iter()
                .filter(|c| c.attached == node)
                .filter_map(|c| c.client.next_ready_at())
                .filter(|&t| t > at)
                .min();
            if let Some(t) = next {
                self.nodes[idx].pump_pending = true;
                self.push(t.max(self.now), EventKind::Pump { node });
            }
        }
    }

    fn maybe_pump(&mut self, node: ReplicaId) {
        let idx = node.index();
        if self.nodes[idx].pump_pending || self.nodes[idx].crashed || self.nodes[idx].silenced {
            return;
        }
        // Only schedule a pump that can do work: some client attached to this
        // replica is ready and its assigned instance has capacity here.
        // (Attachments refresh inside pump, so a just-taken-over coordinator
        // is picked up one pump cycle later.)
        let now = self.now;
        let ready = self.clients.iter().enumerate().any(|(ci, c)| {
            c.attached == node
                && c.client.ready(now)
                && self.nodes[idx]
                    .bca
                    .proposal_capacity_for(self.assignment.assignment(ci))
                    > 0
        });
        if !ready {
            return;
        }
        self.nodes[idx].pump_pending = true;
        // Never schedule into the virtual past: a replica whose CPU went
        // idle (e.g. it just recovered from a crash) pumps from *now*.
        let at = self.nodes[idx].busy_until.max(self.now);
        self.push(at, EventKind::Pump { node });
    }

    fn apply_actions(&mut self, node: ReplicaId, t: Time, actions: Vec<Action<P::Message>>) {
        let idx = node.index();
        let crypto_mode = self.config.system.crypto;
        let mut t_cpu = t.max(self.nodes[idx].busy_until);
        for action in actions {
            match action {
                Action::Send { to, message } => {
                    let cost =
                        self.scaled(idx, self.config.costs.outgoing_message_cost(crypto_mode, 1));
                    t_cpu += cost;
                    self.enqueue_send(node, t_cpu, to, message);
                }
                Action::Broadcast { message } => {
                    let recipients = self.config.system.n.saturating_sub(1);
                    let cost = self.scaled(
                        idx,
                        self.config
                            .costs
                            .outgoing_message_cost(crypto_mode, recipients),
                    );
                    t_cpu += cost;
                    for to in ReplicaId::all(self.config.system.n) {
                        if to != node {
                            self.enqueue_send(node, t_cpu, to, message.clone());
                        }
                    }
                }
                Action::SetTimer { timer, fires_at } => {
                    let mut fires_at = fires_at.max(t_cpu);
                    // A skewed clock stretches (or shrinks) every timer
                    // delay this replica arms: fast clocks suspect healthy
                    // coordinators, slow clocks detect failures late.
                    let skew = self.nodes[idx].clock_skew;
                    if skew != 1.0 {
                        fires_at = t_cpu + fires_at.saturating_since(t_cpu).mul_f64(skew);
                    }
                    self.nodes[idx].timers.insert(timer, fires_at);
                    self.push(
                        fires_at,
                        EventKind::Timer {
                            node,
                            timer,
                            at: fires_at,
                        },
                    );
                }
                Action::CancelTimer { timer } => {
                    self.nodes[idx].timers.remove(&timer);
                }
                Action::Commit(slot) => {
                    // Execution runs on the worker pool: replies wait for the
                    // executor, but the consensus path moves on immediately —
                    // conflict-aware parallel execution is off the hot path.
                    let execute = self
                        .config
                        .cpu
                        .execute_per_transaction
                        .saturating_mul(slot.batch.len() as u64);
                    let executed = self.on_worker_lane(idx, t_cpu, execute);
                    self.record_commit(node, executed, slot.digest, &slot.batch);
                }
                Action::SuspectPrimary { primary, .. } => {
                    self.telemetry.suspicions.inc();
                    self.telemetry.event(
                        node.0,
                        FlightEventKind::SigmaLagDetected {
                            suspected: primary.0,
                        },
                    );
                    // The first suspicion against a not-yet-suspected
                    // coordinator marks the start of a view-change episode.
                    if self.suspected_since_change.insert(primary.0)
                        && self.suspected_since_change.len() == 1
                    {
                        self.telemetry.event(
                            node.0,
                            FlightEventKind::ViewChangeEntered {
                                suspected: primary.0,
                            },
                        );
                    }
                    self.client_refresh_due = true;
                }
                Action::ViewChanged { view, new_primary } => {
                    self.telemetry.view_changes.inc();
                    self.suspected_since_change.clear();
                    self.telemetry.event(
                        node.0,
                        FlightEventKind::ViewChangeCompleted {
                            view,
                            new_primary: new_primary.0,
                        },
                    );
                    self.client_refresh_due = true;
                }
            }
        }
        self.nodes[idx].busy_until = self.nodes[idx].busy_until.max(t_cpu);
    }

    fn enqueue_send(&mut self, from: ReplicaId, t: Time, to: ReplicaId, message: P::Message) {
        let idx = from.index();
        let proposal = message.is_proposal();
        if self.nodes[idx].crashed
            || (self.nodes[idx].silenced && proposal)
            || self.blocked.contains(&(from, to))
        {
            return;
        }
        let bytes = message.wire_size();
        let link = *self.config.network.link(from, to);
        let mut serialization = link.serialization_delay(bytes);
        // Slowloris: traffic toward a slow-linked receiver serializes
        // slower, occupying the sender's *shared* egress NIC for the whole
        // stretched transfer — one slow peer back-pressures everyone the
        // sender talks to.
        let slow = self.nodes[to.index()].link_slow;
        if slow != 1.0 {
            serialization = serialization.mul_f64(slow);
        }
        let egress = self.nodes[idx].egress_busy.max(t) + serialization;
        self.nodes[idx].egress_busy = egress;
        let jitter = Duration::from_nanos(self.jitter_rng.next_below(link.jitter.as_nanos()));
        let mut arrival = egress + link.latency + jitter;
        // Timing equivocation: the sender's messages are all just too late.
        let hold = self.nodes[idx].egress_delay;
        if hold > Duration::ZERO {
            arrival += hold;
        }
        let wire = Wire {
            from,
            to,
            bytes,
            proposal,
            payload_transactions: message.payload_transactions(),
            message,
        };
        if self.mangle_ppm > 0 && self.mangle_wire(&wire, arrival, &link) {
            return;
        }
        self.push(arrival, EventKind::Deliver(wire));
    }

    fn record_commit(
        &mut self,
        node: ReplicaId,
        t: Time,
        digest: Digest,
        batch: &rcc_common::Batch,
    ) {
        if batch.is_noop() {
            return;
        }
        let Some(pending) = self.inflight.get_mut(&digest) else {
            return;
        };
        let bit = 1u128 << (node.index() as u32 % 128);
        let new_committer = pending.committers & bit == 0;
        pending.committers |= bit;
        let commits = pending.committers.count_ones() as usize;
        let completed_quorum =
            !pending.counted && commits >= self.config.system.client_reply_quorum();
        if completed_quorum {
            pending.counted = true;
        }
        let transactions = pending.transactions;
        let submitted = pending.submitted;
        let client = pending.client;
        if commits >= self.config.system.n {
            self.inflight.remove(&digest);
        }
        // Replica→client reply link: the release doubles as the reply to
        // the submitting client, but the reply is not free — it occupies
        // the replica's shared egress NIC and crosses the client link
        // before the client sees it (previously this hop was free).
        let mut reply_at = t;
        if new_committer {
            // ResilientDB's reply to a client for a 100-transaction batch
            // (Section V-B).
            const CLIENT_REPLY_BYTES: usize = 1748;
            let idx = node.index();
            let link = self.config.network.client;
            let egress =
                self.nodes[idx].egress_busy.max(t) + link.serialization_delay(CLIENT_REPLY_BYTES);
            self.nodes[idx].egress_busy = egress;
            let jitter = Duration::from_nanos(self.jitter_rng.next_below(link.jitter.as_nanos()));
            reply_at = egress + link.latency + jitter;
        }
        if completed_quorum {
            self.telemetry.committed_txns.add(transactions);
            self.telemetry.committed_batches.inc();
            self.throughput.record(t, transactions);
            if submitted >= self.config.measure_start && submitted < self.config.measure_end {
                // Client-perceived latency: the quorum-completing *reply's*
                // arrival at the client, not the replica-side release.
                let latency = reply_at.saturating_since(submitted);
                self.telemetry.latency_us.record(latency.as_nanos() / 1_000);
            }
        }
        if new_committer {
            // A completed f + 1 matching quorum unblocks a closed-loop
            // window slot — but only once the reply has actually reached
            // the client, so the refill pump is scheduled at `reply_at`.
            let outcome = self.clients[client].client.on_reply(node, digest);
            if outcome == ReplyOutcome::Completed {
                let attached = self.clients[client].attached;
                self.schedule_pump_at(attached, reply_at);
            }
        }
    }

    /// Schedules a pump for `node` at `at` (used when a client's reply
    /// quorum completes: the freed window slot becomes usable only when the
    /// reply reaches the client). Unlike [`Simulation::maybe_pump`] this
    /// does not pre-check client readiness — the caller just freed a slot —
    /// and the pump itself handles a coordinator that lost capacity.
    fn schedule_pump_at(&mut self, node: ReplicaId, at: Time) {
        let idx = node.index();
        if self.nodes[idx].pump_pending || self.nodes[idx].crashed || self.nodes[idx].silenced {
            return;
        }
        self.nodes[idx].pump_pending = true;
        self.push(at.max(self.now), EventKind::Pump { node });
    }
}
