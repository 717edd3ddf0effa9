//! The `rcc-node` replica runner: a deployed host for the sans-io
//! [`RccReplica`] state machine.
//!
//! # Core and host
//!
//! [`NodeCore`] is the replica's whole per-burst path with no thread and no
//! clock: handed a burst of runs and `now`, it decodes, verifies, dispatches
//! and sends through the transport it is handed; handed `now` alone, it
//! fires the timers due by then. The host, the **mailbox thread**, owns one
//! core and only drains the inbox into bursts, reads the wall clock and
//! sleeps until the core's next deadline. No other thread touches the core,
//! so the replica needs no locks, and a test can drive a core call by call
//! (`tests/burst_handoff.rs` does):
//!
//! ```text
//!   listener ─► client edge ─────────┐                  ┌──► writer thread → R0
//!   (accept)    (T sweep threads for │  runs            │ one run per peer
//!                all client conns)   ├─► inbox ─► mailbox ──► writer thread → R1
//!                 └► peer readers ───┘   (mpsc)   thread  └──► … (bounded queues)
//!                    (one per replica link)       (host) │       per burst
//!                     NodeCore: bursts, timers, execution, client replies
//! ```
//!
//! Over TCP every accepted socket enters the readiness-driven
//! [`crate::event_loop::ClientEdge`]; a connection that announces itself as
//! a replica is handed back out to a blocking reader of its own (see
//! `tcp.rs`). In process there is no ingress stage: senders push straight
//! into the inbox.
//!
//! **The burst is the unit of hand-off.** What crosses a thread boundary on
//! the replica↔replica path is a *run* ([`crate::run`]): length-prefixed
//! frames packed end to end, the bytes a peer socket carries. Inbound, a
//! peer reader sends the inbox one run per socket read (one allocation, one
//! copy, one channel send for every vote the read completed) and the client
//! edge a run of one per submission. The host drains runs until the burst
//! holds `DRAIN_BURST` frames; the core walks their records by slice —
//! nothing is copied between the reader's buffer and `Frame::decode_frame`.
//! Outbound, the core keeps one run per peer: `send` MACs the payload for
//! its recipient and encodes the frame straight into that peer's run, and
//! when the burst ends (or the due timers have fired) each peer with
//! anything to receive is handed its run in one `send_to_replica` — `n − 1`
//! channel operations and writer wake-ups per burst, however many instances
//! voted in it. A run that passes 64 KiB mid-burst leaves at once, so a run
//! stays within what one socket write should carry; a burst of one leaves
//! the moment it ends, so an idle link waits on nothing. The run just handed
//! over is replaced by an empty one sized from what it held — no buffer is
//! reserved ahead of the traffic.
//!
//! The host alternates between draining inbound runs and firing due
//! wall-clock timers through the existing
//! [`rcc_protocols::bca::TimerId`] seam. Logical [`Time`] is nanoseconds
//! since the node started (`Instant`-derived), read once per burst and once
//! per timer sweep: a timer armed late in a long burst fires up to one burst
//! earlier than a clock read per frame would make it.
//!
//! # Staged verify/execute pipeline
//!
//! Each drained burst of frames is decoded, its authentication checks go
//! through [`VerifyPool`] in one batch (verdicts come back in arrival
//! order, so the protocol observes exactly the sequence frame-by-frame
//! verification would have produced), and only then are the verified
//! messages dispatched. Where the checks run follows from what one costs:
//! MAC bursts (and mode `none`) verify right here on the mailbox thread — a
//! vote's HMAC is 0.23 µs, 32 of them measured 42.2 µs through the pool
//! against ≈ 7.5 µs inline — and only signature bursts (`pk`) are shared
//! with a [`WorkerPool`] [`NodeConfig::execution_workers`] wide, the
//! mailbox thread checking alongside. The crypto mode decides; no option
//! does (`rcc_crypto::pipeline` has the numbers and why `pk` keeps the
//! fan-out), and outside `pk` the pool is one wide, which is no thread at
//! all. After every burst the mailbox thread executes newly released rounds
//! in place through [`ExecutionEngine::execute_round`].
//!
//! Replies implement §III-A: every replica sends the released batch's
//! certified digest to the client node that submitted it (recovered from
//! the batch's request ids via [`rcc_workload::stream_of_client`]); a
//! client accepts the outcome on `f + 1` matching replies.

use crate::frame::Frame;
use crate::run::{self, COALESCE_BYTES};
use crate::telemetry::{EdgeTelemetry, NodeTelemetry};
use crate::transport::{Transport, TransportStats};
use rcc_common::codec::{Decode, Encode};
use rcc_common::{
    Batch, BatchId, ClientId, CryptoMode, Digest, ReplicaId, Round, SystemConfig, Time, WorkerPool,
};
use rcc_core::{RccMessage, RccReplica};
use rcc_crypto::{Authenticator, DeploymentKeys, VerifyJob, VerifyPool, VerifySource};
use rcc_execution::ExecutionEngine;
use rcc_protocols::bca::{Action, ByzantineCommitAlgorithm, TimerId};
use rcc_protocols::pbft::{Pbft, PbftMessage};
use rcc_telemetry::{FlightEvent, FlightEventKind, Snapshot};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::mpsc::{Receiver, SyncSender, TryRecvError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The signature-verification pool width every launcher passes.
pub const DEFAULT_EXECUTION_WORKERS: usize = 4;

/// Configuration of one deployed replica node.
#[derive(Clone, Debug)]
pub struct NodeConfig {
    /// The deployment (n, f, m, batching, crypto mode, timeouts, seed).
    pub system: SystemConfig,
    /// Which replica this node is.
    pub replica: ReplicaId,
    /// Width of the node's signature-verification pool, the mailbox
    /// thread included (clamped to at least 1). Only `CryptoMode::PublicKey`
    /// uses it; in any other mode the node builds its pool one wide.
    pub execution_workers: usize,
}

/// What a node measured and held when it shut down.
#[derive(Clone, Debug, Default)]
pub struct NodeReport {
    /// The replica that produced the report.
    pub replica: ReplicaId,
    /// Concurrent instances of the deployment (digest alignment for
    /// [`NodeReport::execution_digests`]).
    pub instances: usize,
    /// Batches released for execution (the global execution sequence).
    pub executed_batches: u64,
    /// First round still retained in the execution window (the stable
    /// checkpoint round; earlier rounds were garbage-collected).
    pub execution_window_start: Round,
    /// Digest sequence of the retained execution window, `instances`
    /// digests per round — replicas agree on the overlap of their windows.
    pub execution_digests: Vec<Digest>,
    /// Chained digest over the *entire* release history (pruned included).
    pub ledger_head: Digest,
    /// `(round, content digest)` of every block the node's execution engine
    /// appended. Content digests exclude the chain position, so replicas
    /// whose engines started at different rounds (a restarted node begins
    /// at its adopted checkpoint) still compare equal on the overlap —
    /// see [`verify_identical_ledgers`].
    pub ledger_blocks: Vec<(Round, Digest)>,
    /// Combined fingerprint of the engine's post-execution state (record
    /// table ⊕ account store).
    pub state_fingerprint: u64,
    /// Client replies sent: `node.replies_sent`.
    pub replies_sent: u64,
    /// Frames that arrived but failed authentication: `node.auth_failures`.
    pub auth_failures: u64,
    /// Frames (or payloads) that arrived but failed to decode:
    /// `node.decode_failures`.
    pub decode_failures: u64,
    /// `SuspectPrimary` actions the replica raised: `node.suspicions`.
    pub suspicions: u64,
    /// `ViewChanged` actions the replica raised: `node.view_changes`.
    pub view_changes: u64,
    /// The transport's delivery-boundary counts: `transport.dropped_frames`,
    /// `transport.rejected_connections` and `transport.peak_clients`.
    pub transport: TransportStats,
    /// End-of-run snapshot of the node's and its transport's metric
    /// registries (the `node.*`, `transport.*` and `edge.*` catalog in
    /// `docs/OBSERVABILITY.md`). The count fields above are read out of it
    /// when the node stops (and again after a restart fold), never kept
    /// beside it.
    pub telemetry: Snapshot,
    /// The node's flight-recorder trace (σ-lag suspicions and completed
    /// view changes), oldest first, timestamped in wall nanoseconds since
    /// the node started.
    pub flight: Vec<FlightEvent>,
}

impl NodeReport {
    /// Re-reads every count field from [`NodeReport::telemetry`]: the one
    /// place they are filled, at shutdown and again after a restart fold.
    pub(crate) fn read_counts(&mut self) {
        let counter = |name: &str| self.telemetry.counter(name).unwrap_or(0);
        self.replies_sent = counter("node.replies_sent");
        self.auth_failures = counter("node.auth_failures");
        self.decode_failures = counter("node.decode_failures");
        self.suspicions = counter("node.suspicions");
        self.view_changes = counter("node.view_changes");
        self.transport = TransportStats {
            dropped_frames: counter("transport.dropped_frames"),
            rejected_connections: counter("transport.rejected_connections"),
            peak_clients: self.telemetry.gauge("transport.peak_clients").unwrap_or(0),
        };
    }
}

/// Why spawning or stopping a node failed.
#[derive(Debug)]
pub enum NodeError {
    /// The OS refused to spawn the node's mailbox thread.
    Spawn(std::io::Error),
    /// The node thread panicked; its report is lost.
    Panicked,
}

impl fmt::Display for NodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NodeError::Spawn(e) => write!(f, "could not spawn node thread: {e}"),
            NodeError::Panicked => write!(f, "node thread panicked"),
        }
    }
}

impl std::error::Error for NodeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NodeError::Spawn(e) => Some(e),
            NodeError::Panicked => None,
        }
    }
}

/// Handle to a running node; dropping it does **not** stop the node — call
/// [`NodeHandle::shutdown`].
pub struct NodeHandle {
    stop: SyncSender<()>,
    thread: JoinHandle<NodeReport>,
    telemetry: NodeTelemetry,
}

impl NodeHandle {
    /// Stops the node and returns its final report, or
    /// [`NodeError::Panicked`] when the node thread died before reporting.
    pub fn shutdown(self) -> Result<NodeReport, NodeError> {
        let _ = self.stop.send(());
        self.thread.join().map_err(|_| NodeError::Panicked)
    }

    /// A live handle onto the running node's telemetry: snapshots taken
    /// here observe the mailbox thread's recording without stopping it
    /// (clones share the registry). Used by the periodic snapshot emitter
    /// in `bin/rcc-node.rs`.
    pub fn telemetry(&self) -> &NodeTelemetry {
        &self.telemetry
    }
}

/// Spawns a replica node over `transport`. Key material is derived
/// deterministically from the deployment seed (the offline-crypto trusted
/// dealer every other layer already uses), so nodes need no key exchange.
pub fn spawn_node(
    config: NodeConfig,
    transport: impl Transport + 'static,
) -> Result<NodeHandle, NodeError> {
    // The stop channel carries at most one message over its whole life
    // (shutdown consumes the handle), so depth 1 is exactly its traffic.
    let (stop_tx, stop_rx) = std::sync::mpsc::sync_channel(1);
    // Created outside the thread so the handle can keep a live view of the
    // registry while the mailbox thread records into it.
    let telemetry = NodeTelemetry::new();
    let thread_telemetry = telemetry.clone();
    let thread = std::thread::Builder::new()
        .name(format!("rcc-node-{}", config.replica.0))
        .spawn(move || {
            let node = Node {
                core: NodeCore::new(config, thread_telemetry),
                transport,
                epoch: Instant::now(),
            };
            node.run(stop_rx)
        })
        .map_err(NodeError::Spawn)?;
    Ok(NodeHandle {
        stop: stop_tx,
        thread,
        telemetry,
    })
}

/// How many inbound frames the mailbox drains before giving timers a turn:
/// no further run is taken off the inbox once the burst holds this many (the
/// last run taken may carry it past).
const DRAIN_BURST: u64 = 256;

/// The longest the mailbox sleeps when idle with no armed timer.
const IDLE_WAIT: Duration = Duration::from_millis(20);

/// The host: the mailbox thread's loop, its wall clock and its transport.
struct Node<T: Transport> {
    core: NodeCore,
    transport: T,
    epoch: Instant,
}

impl<T: Transport> Node<T> {
    fn now(&self) -> Time {
        Time::from_nanos(self.epoch.elapsed().as_nanos() as u64)
    }

    fn run(mut self, stop: Receiver<()>) -> NodeReport {
        loop {
            match stop.try_recv() {
                Ok(()) | Err(TryRecvError::Disconnected) => break,
                Err(TryRecvError::Empty) => {}
            }
            let now = self.now();
            self.core.fire_due_timers(now, &self.transport);
            // Sleep until the next timer deadline (capped), unless frames
            // arrive first.
            let wait = self.core.next_deadline().map_or(IDLE_WAIT, |deadline| {
                Duration::from_nanos(deadline.saturating_since(now).as_nanos()).min(IDLE_WAIT)
            });
            let Some(first) = self.transport.recv_timeout(wait) else {
                self.core.execute_released();
                continue;
            };
            let telemetry = &self.core.telemetry;
            let drain_start = telemetry.now_nanos();
            let mut frames = run::frame_count(&first);
            let mut burst = vec![first];
            while frames < DRAIN_BURST {
                let Some(run) = self.transport.try_recv() else {
                    break;
                };
                frames += run::frame_count(&run);
                burst.push(run);
            }
            telemetry.queue_depth.set_max(frames);
            telemetry.burst_frames.record(frames);
            telemetry
                .drain_us
                .record(telemetry.now_nanos().saturating_sub(drain_start) / 1_000);
            let now = self.now();
            self.core.on_burst(now, burst, frames, &self.transport);
            self.core.execute_released();
        }
        self.core.execute_released();
        self.transport.shutdown();
        self.core.report(self.transport.telemetry())
    }
}

/// One replica's per-burst path, with no thread and no clock: what a burst
/// of runs, or the passing of time, does to the replica, and what it sends
/// through the transport it is handed. Every call takes the logical `now`
/// from its caller, so the same inputs give the same sends and the same
/// state.
pub struct NodeCore {
    config: NodeConfig,
    /// The run being built for each peer (indexed by replica id): every
    /// frame the current burst has produced for it so far. Handed to the
    /// transport by [`NodeCore::hand_over_runs`].
    outbound: Vec<Vec<u8>>,
    replica: RccReplica<Pbft>,
    /// Batch-verification stage: checks frame authentication (on its pool
    /// in `pk` mode), verdicts return in arrival order. Also owns the
    /// signing side.
    verify: VerifyPool,
    /// Deterministic execution engine fed by released rounds.
    engine: ExecutionEngine,
    /// Next released round the engine has not executed yet. Checkpoint
    /// adoption can jump the release frontier past pruned rounds; execution
    /// resumes from whatever the replica still retains.
    next_exec_round: Round,
    /// Armed timers: protocol `TimerId` → absolute logical time.
    timers: BTreeMap<TimerId, Time>,
    /// Pipeline stage timings, queue-depth high-water, what the node
    /// counted, and the consensus flight recorder (shared with the
    /// spawn-side [`NodeHandle`]).
    telemetry: NodeTelemetry,
}

impl NodeCore {
    /// Builds replica `config.replica` of `config.system`, its keys, its
    /// verify pool and its execution engine, recording into `telemetry`.
    pub fn new(config: NodeConfig, telemetry: NodeTelemetry) -> NodeCore {
        let keys = DeploymentKeys::generate(&config.system);
        let auth = Authenticator::new(config.system.crypto, keys.replica_keys(config.replica));
        // Only signature bursts leave the mailbox thread
        // (`rcc_crypto::pipeline`): a wider pool in any other mode would
        // be threads that never wake.
        let width = match config.system.crypto {
            CryptoMode::PublicKey => config.execution_workers,
            CryptoMode::None | CryptoMode::Mac => 1,
        };
        NodeCore {
            outbound: vec![Vec::new(); config.system.n],
            replica: RccReplica::over_pbft(config.system.clone(), config.replica),
            verify: VerifyPool::new(auth, Arc::new(WorkerPool::new(width))),
            engine: ExecutionEngine::new(config.replica),
            next_exec_round: 0,
            config,
            timers: BTreeMap::new(),
            telemetry,
        }
    }

    /// Fires every timer due at `now` (and any a fired one arms due by then),
    /// then hands every peer what the timers sent it.
    pub fn fire_due_timers(&mut self, now: Time, net: &impl Transport) {
        loop {
            let due: Vec<TimerId> = self
                .timers
                .iter()
                .filter(|(_, &at)| at <= now)
                .map(|(&id, _)| id)
                .collect();
            if due.is_empty() {
                break;
            }
            for timer in due {
                self.timers.remove(&timer);
                let actions = self.replica.on_timeout(now, timer);
                self.absorb(actions, net);
            }
        }
        // What the timers sent leaves before the mailbox sleeps.
        self.hand_over_runs(net);
    }

    /// When the earliest armed timer is due, if any is armed.
    pub fn next_deadline(&self) -> Option<Time> {
        self.timers.values().min().copied()
    }

    /// Decodes a drained burst (`count` frames in `burst`'s runs, walked by
    /// slice), verifies its authentication checks in one batch, and
    /// dispatches the frames **in arrival order** with their verdicts —
    /// observably identical to frame-by-frame verification — then hands
    /// every peer the run the burst produced for it. A run's malformed tail
    /// is one decode failure. Every frame of the burst is handled at `now`.
    pub fn on_burst(&mut self, now: Time, burst: Vec<Vec<u8>>, count: u64, net: &impl Transport) {
        let mut frames: Vec<Option<Frame>> = Vec::with_capacity(count as usize);
        let mut jobs: Vec<VerifyJob> = Vec::new();
        let mut job_slots: Vec<usize> = Vec::new();
        for bytes in burst.iter().flat_map(|run| run::frames(run)) {
            let mut frame = bytes.ok().and_then(|bytes| Frame::decode_frame(bytes).ok());
            // The payload moves into the verify job and back out of it below:
            // the check needs the bytes, dispatch needs them afterwards, and
            // nobody needs two copies.
            let job = match &mut frame {
                // A frame claiming to be from ourselves, or from a replica
                // outside the deployment, is rejected without wasting a
                // worker on it (dispatch counts it).
                Some(Frame::Replica { from, payload, tag })
                    if *from != self.config.replica && from.index() < self.config.system.n =>
                {
                    Some(VerifyJob {
                        source: VerifySource::Replica(*from),
                        payload: std::mem::take(payload),
                        tag: *tag,
                    })
                }
                Some(Frame::ClientSubmit {
                    client,
                    payload,
                    tag,
                    ..
                }) => Some(VerifyJob {
                    source: VerifySource::Client(*client),
                    payload: std::mem::take(payload),
                    tag: *tag,
                }),
                Some(_) => None,
                None => {
                    self.telemetry.decode_failures.inc();
                    None
                }
            };
            if let Some(job) = job {
                job_slots.push(frames.len());
                jobs.push(job);
            }
            frames.push(frame);
        }
        let verify_start = self.telemetry.now_nanos();
        let mut verdicts: Vec<Option<bool>> = vec![None; frames.len()];
        for (slot, (job, ok)) in job_slots.into_iter().zip(self.verify.verify_batch(jobs)) {
            verdicts[slot] = Some(ok);
            if let Some(Frame::Replica { payload, .. } | Frame::ClientSubmit { payload, .. }) =
                &mut frames[slot]
            {
                *payload = job.payload;
            }
        }
        let dispatch_start = self.telemetry.now_nanos();
        self.telemetry
            .verify_us
            .record(dispatch_start.saturating_sub(verify_start) / 1_000);
        for (frame, verdict) in frames.into_iter().zip(verdicts) {
            if let Some(frame) = frame {
                self.dispatch(now, frame, verdict, net);
            }
        }
        self.hand_over_runs(net);
        self.telemetry
            .dispatch_us
            .record(self.telemetry.now_nanos().saturating_sub(dispatch_start) / 1_000);
    }

    /// Handles one decoded frame whose authentication verdict (if the frame
    /// needed one) was already computed by the verify stage.
    fn dispatch(&mut self, now: Time, frame: Frame, verified: Option<bool>, net: &impl Transport) {
        match frame {
            Frame::Hello { .. } => {} // transport-level concern; nothing to do
            Frame::Replica { from, payload, .. } => {
                if from == self.config.replica || verified != Some(true) {
                    self.telemetry.auth_failures.inc();
                    return;
                }
                let message = match RccMessage::<PbftMessage>::decode_all(&payload) {
                    Ok(message) => message,
                    Err(_) => {
                        self.telemetry.decode_failures.inc();
                        return;
                    }
                };
                let actions = self.replica.on_message(now, from, message);
                self.absorb(actions, net);
            }
            Frame::ClientSubmit {
                client,
                instance,
                payload,
                ..
            } => {
                if verified != Some(true) {
                    self.telemetry.auth_failures.inc();
                    return;
                }
                let batch = match Batch::decode_all(&payload) {
                    Ok(batch) => batch,
                    Err(_) => {
                        self.telemetry.decode_failures.inc();
                        return;
                    }
                };
                let digest = rcc_crypto::digest_batch(&batch);
                let actions = if self.replica.proposal_capacity_for(instance) > 0 {
                    self.replica.propose_for(now, instance, batch)
                } else {
                    Vec::new()
                };
                if actions.is_empty() {
                    // Turned away: free the client's window slot explicitly.
                    let reject = Frame::ClientReject {
                        replica: self.config.replica,
                        digest,
                    };
                    net.send_to_client(client, reject.encode_frame());
                } else {
                    // Accepted into the pipeline: a liveness signal that
                    // keeps the client feeding this coordinator even while
                    // downstream releases are stalled (a blocked round must
                    // not starve the frontier the σ-lag detection needs).
                    let accept = Frame::ClientAccept {
                        replica: self.config.replica,
                        digest,
                    };
                    net.send_to_client(client, accept.encode_frame());
                    self.absorb(actions, net);
                }
            }
            // Replies/accepts/rejects are client-bound; a replica receiving
            // one (misrouted or malicious) ignores it.
            Frame::ClientReply { .. } | Frame::ClientReject { .. } | Frame::ClientAccept { .. } => {
            }
        }
    }

    fn absorb(&mut self, actions: Vec<Action<RccMessage<PbftMessage>>>, net: &impl Transport) {
        for action in actions {
            match action {
                Action::Send { to, message } => self.send(to, &message.encoded(), net),
                Action::Broadcast { message } => {
                    // One serialisation for the whole fan-out; only the tag
                    // differs per recipient.
                    let payload = message.encoded();
                    for to in ReplicaId::all(self.config.system.n) {
                        if to != self.config.replica {
                            self.send(to, &payload, net);
                        }
                    }
                }
                Action::SetTimer { timer, fires_at } => {
                    self.timers.insert(timer, fires_at);
                }
                Action::CancelTimer { timer } => {
                    self.timers.remove(&timer);
                }
                Action::Commit(slot) => self.reply(slot.digest, &slot.batch, net),
                Action::SuspectPrimary { primary, .. } => {
                    self.telemetry.suspicions.inc();
                    self.telemetry.event(
                        self.config.replica.0,
                        FlightEventKind::SigmaLagDetected {
                            suspected: primary.0,
                        },
                    );
                }
                Action::ViewChanged { view, new_primary } => {
                    self.telemetry.view_changes.inc();
                    self.telemetry.event(
                        self.config.replica.0,
                        FlightEventKind::ViewChangeCompleted {
                            view,
                            new_primary: new_primary.0,
                        },
                    );
                }
            }
        }
    }

    /// Executes every newly released round the replica retains, in place.
    /// Checkpoint adoption can jump the release frontier past rounds this
    /// node never saw (they were pruned cluster-wide); execution resumes at
    /// the first retained round, which is exactly what the restart-robust
    /// ledger comparison in [`verify_identical_ledgers`] accounts for.
    pub fn execute_released(&mut self) {
        // The retained log is ascending by round, so the unexecuted rounds
        // are its tail; the batches stay where they are and the engine
        // borrows them.
        let log = self.replica.execution_log();
        let executed = log.partition_point(|released| released.round < self.next_exec_round);
        // Idle calls (no newly released rounds) would flood the histogram's
        // zero bucket and drown the real execution timings.
        if executed == log.len() {
            return;
        }
        let execute_start = self.telemetry.now_nanos();
        for released in &log[executed..] {
            let ordered: Vec<(BatchId, &Batch)> =
                released.batches.iter().map(|b| (b.id, &b.batch)).collect();
            // Replies to clients travel via the §III-A digest protocol
            // (`Action::Commit` → `reply`); the engine's own reply records
            // are not re-sent here.
            let _ = self.engine.execute_round(released.round, &ordered);
            self.next_exec_round = released.round + 1;
        }
        self.telemetry
            .execute_us
            .record(self.telemetry.now_nanos().saturating_sub(execute_start) / 1_000);
    }

    /// Tags an encoded consensus envelope for `to` and encodes the frame
    /// straight into the run being built for that peer. The run leaves when
    /// the burst ends, or here once it passes [`COALESCE_BYTES`].
    fn send(&mut self, to: ReplicaId, payload: &[u8], net: &impl Transport) {
        let Some(run) = self.outbound.get_mut(to.index()) else {
            return;
        };
        let tag = self.verify.authenticator().tag_for_replica(to, payload);
        let from = self.config.replica;
        run::pack_with(run, |out| {
            Frame::encode_replica_into(out, from, payload, &tag)
        });
        if run.len() >= COALESCE_BYTES {
            net.send_to_replica(to, successor(run));
        }
    }

    /// Hands every peer the run built for it since the last hand-over: one
    /// `send_to_replica` per peer that has anything to receive.
    fn hand_over_runs(&mut self, net: &impl Transport) {
        for (index, run) in self.outbound.iter_mut().enumerate() {
            if !run.is_empty() {
                net.send_to_replica(ReplicaId(index as u32), successor(run));
            }
        }
    }

    /// Sends the released batch's certified digest back to the client node
    /// that submitted it (§III-A replies; `f + 1` matching replies convince
    /// the client). No-op filler has no client; its release is silent.
    fn reply(&mut self, digest: Digest, batch: &Batch, net: &impl Transport) {
        let mut last_stream = None;
        for request in &batch.requests {
            let Some(stream) = rcc_workload::stream_of_client(request.id.client) else {
                continue;
            };
            // Batches are assembled per client node: every request carries
            // the same stream. Dedup cheaply without a set.
            if last_stream == Some(stream) {
                continue;
            }
            last_stream = Some(stream);
            let client = ClientId(stream);
            let tag = self
                .verify
                .authenticator()
                .tag_for_client(client, digest.as_bytes());
            let frame = Frame::ClientReply {
                replica: self.config.replica,
                digest,
                tag,
            };
            net.send_to_client(client, frame.encode_frame());
            self.telemetry.replies_sent.inc();
        }
    }

    /// What the node holds now, with `transport`'s telemetry folded in.
    pub fn report(&self, transport: &EdgeTelemetry) -> NodeReport {
        // Fold the transport's telemetry into the node's own: one snapshot
        // per node covers the mailbox pipeline, the delivery boundary and
        // (over TCP) the readiness edge, and the flight trace interleaves
        // consensus events with admission rejections by wall timestamp. The
        // two clocks are anchored within the same spawn call, so the merge
        // order is faithful to within that setup window. Counter snapshots
        // stay readable after `shutdown` joined the I/O threads.
        let telemetry = self.telemetry.snapshot().merged(&transport.snapshot());
        let mut flight = self.telemetry.flight_events();
        flight.extend(transport.flight_events());
        flight.sort_by_key(|event| event.at_nanos);
        let mut report = NodeReport {
            replica: self.config.replica,
            instances: self.config.system.instances,
            executed_batches: self.replica.committed_prefix(),
            execution_window_start: self.replica.execution_window_start(),
            execution_digests: self.replica.execution_digests(),
            ledger_head: self.replica.ledger_head(),
            ledger_blocks: self
                .engine
                .ledger()
                .blocks()
                .map(|block| (block.round, block.content_digest()))
                .collect(),
            state_fingerprint: self.engine.state_fingerprint(),
            telemetry,
            flight,
            ..NodeReport::default()
        };
        report.read_counts();
        report
    }
}

/// Takes a finished run out of its slot, leaving an empty one sized from what
/// this one held: bursts on a link resemble their predecessors, and a buffer
/// sized for the largest run there could be would sit idle on a quiet one.
fn successor(run: &mut Vec<u8>) -> Vec<u8> {
    let next = Vec::with_capacity(run.len());
    std::mem::replace(run, next)
}

/// Compares the execution orders of a set of node reports on the overlap of
/// their retained windows: every pair must agree digest-for-digest wherever
/// both still hold the round. Returns a human-readable explanation of the
/// first divergence.
pub fn verify_identical_orders(reports: &[NodeReport]) -> Result<(), String> {
    for (i, a) in reports.iter().enumerate() {
        for b in reports.iter().skip(i + 1) {
            let m = a.instances.max(1);
            let start = a.execution_window_start.max(b.execution_window_start);
            let skip_a = ((start - a.execution_window_start) as usize).saturating_mul(m);
            let skip_b = ((start - b.execution_window_start) as usize).saturating_mul(m);
            let wa = a.execution_digests.get(skip_a..).unwrap_or(&[]);
            let wb = b.execution_digests.get(skip_b..).unwrap_or(&[]);
            let overlap = wa.len().min(wb.len());
            if wa[..overlap] != wb[..overlap] {
                let at = wa[..overlap]
                    .iter()
                    .zip(&wb[..overlap])
                    .position(|(x, y)| x != y)
                    .unwrap_or(0);
                return Err(format!(
                    "{} and {} diverge at overlap index {at} (window start round {start})",
                    a.replica, b.replica
                ));
            }
        }
    }
    Ok(())
}

/// Compares the executed ledgers of a set of node reports, keyed by round:
/// wherever two replicas both executed a round, their blocks' content
/// digests must match, and replicas that executed the *same* span of rounds
/// must also agree on the post-execution state fingerprint. Keying by round
/// (rather than chain position) makes the check robust to restarts: a
/// rejoined replica's engine starts empty at its adopted checkpoint round,
/// so its chain is shorter but its per-round content must still agree.
pub fn verify_identical_ledgers(reports: &[NodeReport]) -> Result<(), String> {
    for (i, a) in reports.iter().enumerate() {
        for b in reports.iter().skip(i + 1) {
            let by_round: BTreeMap<Round, Digest> = b.ledger_blocks.iter().copied().collect();
            for &(round, digest) in &a.ledger_blocks {
                if let Some(&other) = by_round.get(&round) {
                    if other != digest {
                        return Err(format!(
                            "{} and {} executed different ledger blocks for round {round}",
                            a.replica, b.replica
                        ));
                    }
                }
            }
            let rounds_a: Vec<Round> = a.ledger_blocks.iter().map(|&(r, _)| r).collect();
            let rounds_b: Vec<Round> = b.ledger_blocks.iter().map(|&(r, _)| r).collect();
            if rounds_a == rounds_b && a.state_fingerprint != b.state_fingerprint {
                return Err(format!(
                    "{} and {} executed identical rounds but diverge on state \
                     fingerprints ({:016x} vs {:016x})",
                    a.replica, b.replica, a.state_fingerprint, b.state_fingerprint
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(replica: u32, start: Round, digests: Vec<u8>) -> NodeReport {
        NodeReport {
            replica: ReplicaId(replica),
            instances: 1,
            executed_batches: digests.len() as u64,
            execution_window_start: start,
            execution_digests: digests
                .into_iter()
                .map(|b| Digest::from_bytes([b; 32]))
                .collect(),
            ..NodeReport::default()
        }
    }

    #[test]
    fn identical_orders_verify_on_overlapping_windows() {
        // Replica 1 pruned its first two rounds; the overlap agrees.
        let a = report(0, 0, vec![1, 2, 3, 4]);
        let b = report(1, 2, vec![3, 4]);
        verify_identical_orders(&[a, b]).expect("overlap agrees");
    }

    #[test]
    fn diverging_orders_are_reported() {
        let a = report(0, 0, vec![1, 2, 3]);
        let b = report(1, 0, vec![1, 9, 3]);
        let err = verify_identical_orders(&[a, b]).expect_err("divergence");
        assert!(err.contains("diverge"), "{err}");
    }

    fn ledgered(replica: u32, blocks: Vec<(Round, u8)>, fingerprint: u64) -> NodeReport {
        let mut r = report(replica, 0, vec![]);
        r.ledger_blocks = blocks
            .into_iter()
            .map(|(round, b)| (round, Digest::from_bytes([b; 32])))
            .collect();
        r.state_fingerprint = fingerprint;
        r
    }

    #[test]
    fn identical_ledgers_verify_across_offset_windows() {
        // Replica 1 restarted from a round-2 checkpoint: its engine holds a
        // shorter chain, but the per-round content agrees.
        let a = ledgered(0, vec![(0, 1), (1, 2), (2, 3), (3, 4)], 77);
        let b = ledgered(1, vec![(2, 3), (3, 4)], 99);
        verify_identical_ledgers(&[a, b]).expect("round overlap agrees");
    }

    #[test]
    fn diverging_ledger_content_is_reported() {
        let a = ledgered(0, vec![(0, 1), (1, 2)], 77);
        let b = ledgered(1, vec![(0, 1), (1, 9)], 77);
        let err = verify_identical_ledgers(&[a, b]).expect_err("divergence");
        assert!(err.contains("round 1"), "{err}");
    }

    #[test]
    fn equal_round_spans_must_agree_on_state() {
        let a = ledgered(0, vec![(0, 1), (1, 2)], 77);
        let b = ledgered(1, vec![(0, 1), (1, 2)], 78);
        let err = verify_identical_ledgers(&[a, b]).expect_err("fingerprints");
        assert!(err.contains("fingerprints"), "{err}");
    }
}
