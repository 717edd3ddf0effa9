//! The shadow trace: a single-threaded replay of a workload's seeded
//! batches through the same public calls, in the same order, that
//! `rcc_network::node` makes — with a span around each call.
//!
//! Nothing inside the program is edited. Four `RccReplica<Pbft>` state
//! machines, their authenticators and execution engines live on this one
//! thread; "the network" is a FIFO of encoded frames. Every frame delivery
//! opens a `network.node.deliver` span, every call it makes into a layer
//! is a child span, and every frame it emits remembers that delivery as
//! its *cause* — so any span can be walked back to the client submission
//! that set it off (they share a `trace` id). Self time is a span minus
//! its children; the per-layer metrics are self time summed by layer and
//! divided by the batches the shadow clients confirmed.
//!
//! What the replay cannot see is waiting: queues, wake-ups, the scheduler.
//! Those are what the observed deployment metrics are for.

use crate::workload::{
    self, session_client, BatchSource, Workload, EXECUTION_WORKERS, INSTANCES, REPLICAS,
};
use rcc_common::codec::{Decode, Encode};
use rcc_common::{
    Batch, BatchId, Digest, InstanceId, ReplicaId, Round, SystemConfig, Time, WorkerPool,
};
use rcc_core::{RccMessage, RccReplica};
use rcc_crypto::{digest_batch, AuthTag, Authenticator, ClientKeys, DeploymentKeys};
use rcc_execution::{access_set, conflict_groups, ExecutionEngine};
use rcc_network::Frame;
use rcc_protocols::bca::{Action, ByzantineCommitAlgorithm};
use rcc_protocols::pbft::{Pbft, PbftMessage};
use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;
use std::time::Instant;

/// Rounds (of m = 4 batches) a shadow trace replays.
pub const ROUNDS: usize = 300;
/// Rounds of the second, span-less replay whose wire counts must equal the
/// first's round for round.
pub const REPEAT_ROUNDS: usize = 100;

/// `replica` of a span recorded on the client side.
pub const CLIENT: u8 = u8::MAX;

/// One timed call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// Index of the span in recording order.
    pub id: u32,
    /// The client submission this span descends from.
    pub trace: u32,
    /// Layer the call belongs to (crate.module.operation).
    pub layer: &'static str,
    /// Replica the call ran for, or [`CLIENT`].
    pub replica: u8,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, same clock.
    pub end_ns: u64,
    /// The enclosing span (the frame delivery), if any.
    pub parent: Option<u32>,
    /// The delivery that emitted the frame this span's delivery consumed.
    pub cause: Option<u32>,
}

/// Collects spans in memory; nothing is written until the replay is over.
pub struct Recorder {
    clock: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    enabled: bool,
}

impl Recorder {
    fn new(enabled: bool) -> Recorder {
        Recorder {
            clock: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            enabled,
        }
    }

    fn now_ns(&self) -> u64 {
        self.clock.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one. Children inherit their
    /// parent's trace and cause.
    fn open(&mut self, layer: &'static str, replica: u8, trace: u32, cause: Option<u32>) -> u32 {
        let id = self.spans.len() as u32;
        if !self.enabled {
            return id;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            trace,
            layer,
            replica,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            cause,
        });
        self.open.push(id);
        id
    }

    fn close(&mut self, id: u32) {
        if !self.enabled {
            return;
        }
        let end_ns = self.now_ns();
        self.spans[id as usize].end_ns = end_ns;
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id), "spans close innermost first");
    }

    /// Opens a span under the innermost open one, inheriting its replica,
    /// trace and cause.
    fn child(&mut self, layer: &'static str) -> u32 {
        let (replica, trace, cause) = match self.open.last() {
            Some(&parent) => {
                let p = &self.spans[parent as usize];
                (p.replica, p.trace, p.cause)
            }
            None => (CLIENT, 0, None),
        };
        self.open(layer, replica, trace, cause)
    }

    /// Times `call` as a child of the innermost open span.
    fn leaf<T>(&mut self, layer: &'static str, call: impl FnOnce() -> T) -> T {
        let id = self.child(layer);
        let out = call();
        self.close(id);
        out
    }
}

/// Self time of every span: its duration minus the durations of its direct
/// children (which, on one thread, never overlap).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            let child = span.end_ns - span.start_ns;
            own[parent as usize] = own[parent as usize].saturating_sub(child);
        }
    }
    own
}

/// Self time summed by layer, nanoseconds.
pub fn self_time_by_layer(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut by_layer = BTreeMap::new();
    for (span, own) in spans.iter().zip(self_times(spans)) {
        *by_layer.entry(span.layer).or_insert(0) += own;
    }
    by_layer
}

/// One span per line, as `trace-<workload>.jsonl` holds them.
pub fn to_jsonl(spans: &[Span]) -> String {
    let id_or_null = |id: Option<u32>| id.map_or("null".to_string(), |id| id.to_string());
    let mut out = String::with_capacity(spans.len() * 120);
    for s in spans {
        let _ = writeln!(
            out,
            "{{\"id\":{},\"trace\":{},\"layer\":\"{}\",\"replica\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"cause\":{}}}",
            s.id,
            s.trace,
            s.layer,
            if s.replica == CLIENT { -1 } else { i32::from(s.replica) },
            s.start_ns,
            s.end_ns,
            id_or_null(s.parent),
            id_or_null(s.cause),
        );
    }
    out
}

/// An encoded frame in flight to a replica.
struct Wire {
    to: ReplicaId,
    bytes: Vec<u8>,
    trace: u32,
    cause: Option<u32>,
}

/// What one node owns, minus its threads and its transport.
struct Node {
    id: ReplicaId,
    core: RccReplica<Pbft>,
    auth: Authenticator,
    engine: ExecutionEngine,
    next_exec_round: Round,
}

/// Exact counts of one replay.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    /// Frames that crossed a node boundary: client submissions, accepts and
    /// replies included.
    pub frames: u64,
    /// Their encoded bytes.
    pub bytes: u64,
    /// Actions the replica state machines returned.
    pub actions: u64,
    /// Batches a shadow client saw `f + 1` matching, verified replies for.
    pub confirmed: u64,
    /// Cumulative `(frames, bytes)` after each round drained.
    pub per_round: Vec<(u64, u64)>,
}

/// A finished replay.
pub struct Replay {
    /// The spans, in recording order (empty when recording was off).
    pub spans: Vec<Span>,
    /// The exact counts.
    pub counts: Counts,
    /// Wall seconds the replay took.
    pub elapsed_s: f64,
    /// Everything the replay's own output check found wrong.
    pub violations: Vec<String>,
}

struct Shadow {
    system: SystemConfig,
    nodes: Vec<Node>,
    pool: WorkerPool,
    queue: VecDeque<Wire>,
    rec: Recorder,
    client_keys: Vec<ClientKeys>,
    /// Matching verified replies per submitted digest.
    replies: BTreeMap<Digest, u64>,
    counts: Counts,
    violations: Vec<String>,
    /// Virtual protocol time: one microsecond per delivery, so nothing a
    /// replica decides depends on how fast the host happens to be.
    ticks: u64,
}

impl Shadow {
    fn new(system: SystemConfig, record: bool) -> Shadow {
        let keys = DeploymentKeys::generate(&system);
        let nodes = ReplicaId::all(REPLICAS)
            .map(|id| Node {
                id,
                core: RccReplica::over_pbft(system.clone(), id),
                auth: Authenticator::new(system.crypto, keys.replica_keys(id)),
                engine: ExecutionEngine::new(id),
                next_exec_round: 0,
            })
            .collect();
        Shadow {
            client_keys: (0..INSTANCES)
                .map(|s| keys.client_keys(session_client(s)))
                .collect(),
            system,
            nodes,
            pool: WorkerPool::new(EXECUTION_WORKERS),
            queue: VecDeque::new(),
            rec: Recorder::new(record),
            replies: BTreeMap::new(),
            counts: Counts::default(),
            violations: Vec::new(),
            ticks: 0,
        }
    }

    fn on_wire(&mut self, bytes: &[u8]) {
        self.counts.frames += 1;
        self.counts.bytes += bytes.len() as u64;
    }

    /// The client side of a submission: generate, encode, tag, frame.
    fn submit(&mut self, session: usize, source: &mut BatchSource, trace: u32) {
        let root = self.rec.open("driver.submit", CLIENT, trace, None);
        let batch = self.rec.leaf("workload.ycsb.gen", || source.next_batch());
        let payload = self
            .rec
            .leaf("common.codec.batch_encode", || batch.encoded());
        let instance = InstanceId(session as u32);
        let key = &self.client_keys[session].mac_with_replicas[instance.primary().index()];
        let tag = self
            .rec
            .leaf("crypto.mac.tag", || AuthTag::Mac(key.tag(&payload)));
        let frame = Frame::ClientSubmit {
            client: session_client(session),
            instance,
            payload,
            tag,
        };
        let bytes = self
            .rec
            .leaf("network.frame.encode", || frame.encode_frame());
        self.replies.insert(digest_batch(&batch), 0);
        self.rec.close(root);
        self.on_wire(&bytes);
        self.queue.push_back(Wire {
            to: instance.primary(),
            bytes,
            trace,
            cause: Some(root),
        });
    }

    /// One frame delivery, as `Node::process_burst` → `dispatch` →
    /// `absorb` → `execute_released` handle a burst of one.
    fn deliver(&mut self, wire: Wire) {
        let at = wire.to.index();
        let me = wire.to;
        self.ticks += 1;
        let now = Time::from_micros(self.ticks);
        let span = self
            .rec
            .open("network.node.deliver", me.0 as u8, wire.trace, wire.cause);
        let frame = self
            .rec
            .leaf("network.frame.decode", || Frame::decode_frame(&wire.bytes));
        let actions = match frame {
            Ok(Frame::Replica { from, payload, tag }) => {
                let auth = &self.nodes[at].auth;
                let verified = self.rec.leaf("crypto.mac.verify", || {
                    auth.verify_from_replica(from, &payload, &tag).is_ok()
                });
                let message = self.rec.leaf("common.codec.msg_decode", || {
                    RccMessage::<PbftMessage>::decode_all(&payload)
                });
                match (verified, message) {
                    (true, Ok(message)) => {
                        let core = &mut self.nodes[at].core;
                        self.rec
                            .leaf("core.replica.step", || core.on_message(now, from, message))
                    }
                    _ => {
                        self.violations
                            .push(format!("{me}: bad replica frame from {from}"));
                        Vec::new()
                    }
                }
            }
            Ok(Frame::ClientSubmit {
                client,
                instance,
                payload,
                tag,
            }) => {
                let auth = &self.nodes[at].auth;
                let verified = self.rec.leaf("crypto.mac.verify", || {
                    auth.verify_from_client(client, &payload, &tag).is_ok()
                });
                let batch = self
                    .rec
                    .leaf("common.codec.batch_decode", || Batch::decode_all(&payload));
                match (verified, batch) {
                    (true, Ok(batch)) => {
                        let digest = self
                            .rec
                            .leaf("crypto.hash.digest_batch", || digest_batch(&batch));
                        let core = &mut self.nodes[at].core;
                        let actions = self.rec.leaf("core.replica.step", || {
                            core.propose_for(now, instance, batch)
                        });
                        if actions.is_empty() {
                            self.violations
                                .push(format!("{me}: turned a submission away"));
                        }
                        let accept = Frame::ClientAccept {
                            replica: me,
                            digest,
                        };
                        let bytes = self
                            .rec
                            .leaf("network.frame.encode", || accept.encode_frame());
                        self.on_wire(&bytes);
                        actions
                    }
                    _ => {
                        self.violations
                            .push(format!("{me}: bad submission from {client}"));
                        Vec::new()
                    }
                }
            }
            other => {
                self.violations
                    .push(format!("{me}: unexpected frame {other:?}"));
                Vec::new()
            }
        };
        self.absorb(at, span, wire.trace, actions);
        self.execute_released(at);
        self.rec.close(span);
    }

    fn absorb(
        &mut self,
        at: usize,
        span: u32,
        trace: u32,
        actions: Vec<Action<RccMessage<PbftMessage>>>,
    ) {
        self.counts.actions += actions.len() as u64;
        let me = self.nodes[at].id;
        for action in actions {
            match action {
                Action::Send { to, message } => self.send(at, span, trace, to, &message),
                Action::Broadcast { message } => {
                    for to in ReplicaId::all(REPLICAS).filter(|&to| to != me) {
                        self.send(at, span, trace, to, &message);
                    }
                }
                // No timer ever fires in a fault-free lockstep replay.
                Action::SetTimer { .. } | Action::CancelTimer { .. } => {}
                Action::Commit(slot) => self.reply(at, slot.digest, &slot.batch),
                Action::SuspectPrimary { primary, .. } => {
                    self.violations.push(format!("{me}: suspected {primary}"));
                }
                Action::ViewChanged { view, .. } => {
                    self.violations
                        .push(format!("{me}: changed to view {view}"));
                }
            }
        }
    }

    /// `Node::send`: the envelope is encoded and tagged once per recipient.
    fn send(
        &mut self,
        at: usize,
        span: u32,
        trace: u32,
        to: ReplicaId,
        message: &RccMessage<PbftMessage>,
    ) {
        let node = &self.nodes[at];
        let payload = self
            .rec
            .leaf("common.codec.msg_encode", || message.encoded());
        let tag = self
            .rec
            .leaf("crypto.mac.tag", || node.auth.tag_for_replica(to, &payload));
        let frame = Frame::Replica {
            from: node.id,
            payload,
            tag,
        };
        let bytes = self
            .rec
            .leaf("network.frame.encode", || frame.encode_frame());
        self.on_wire(&bytes);
        self.queue.push_back(Wire {
            to,
            bytes,
            trace,
            cause: Some(span),
        });
    }

    /// `Node::reply`, then the client's side of it: verify and count.
    fn reply(&mut self, at: usize, digest: Digest, batch: &Batch) {
        let replica = self.nodes[at].id;
        let span = self.rec.child("network.node.reply");
        let mut last_stream = None;
        for request in &batch.requests {
            let Some(stream) = rcc_workload::stream_of_client(request.id.client) else {
                continue;
            };
            if last_stream == Some(stream) {
                continue;
            }
            last_stream = Some(stream);
            let client = rcc_common::ClientId(stream);
            let auth = &self.nodes[at].auth;
            let tag = self.rec.leaf("crypto.mac.tag", || {
                auth.tag_for_client(client, digest.as_bytes())
            });
            let frame = Frame::ClientReply {
                replica,
                digest,
                tag,
            };
            let bytes = self
                .rec
                .leaf("network.frame.encode", || frame.encode_frame());
            self.on_wire(&bytes);
            let keys = &self.client_keys[stream as usize % INSTANCES];
            let verified = self.rec.leaf("driver.client", || {
                matches!(
                    Frame::decode_frame(&bytes),
                    Ok(Frame::ClientReply { replica: r, digest: d, tag: AuthTag::Mac(mac) })
                        if keys.mac_with_replicas[r.index()].verify(d.as_bytes(), &mac) && d == digest
                )
            });
            match self.replies.get_mut(&digest) {
                Some(count) if verified => {
                    *count += 1;
                    if *count as usize == self.system.client_reply_quorum() {
                        self.counts.confirmed += 1;
                    }
                }
                _ => self.violations.push(format!(
                    "{replica}: reply for {} is not ours",
                    digest.short_hex()
                )),
            }
        }
        self.rec.close(span);
    }

    /// `Node::execute_released`: clone the newly released rounds out of the
    /// replica (the clone is node glue, so it lands in the delivery's self
    /// time) and run them through the parallel engine.
    fn execute_released(&mut self, at: usize) {
        let node = &mut self.nodes[at];
        let rounds: Vec<(Round, Vec<(BatchId, Batch)>)> = node
            .core
            .execution_log()
            .iter()
            .filter(|released| released.round >= node.next_exec_round)
            .map(|released| {
                let ordered = released
                    .batches
                    .iter()
                    .map(|b| (b.id, b.batch.clone()))
                    .collect();
                (released.round, ordered)
            })
            .collect();
        for (round, ordered) in rounds {
            let (engine, pool) = (&mut node.engine, &self.pool);
            self.rec.leaf("execution.engine.round", || {
                engine.execute_round_parallel(round, &ordered, pool);
            });
            node.next_exec_round = round + 1;
        }
    }

    /// Final agreement check, the shadow's `verify_identical_*`.
    fn check_agreement(&mut self, rounds: usize) {
        let expected = (rounds * INSTANCES) as u64;
        if self.counts.confirmed != expected {
            self.violations.push(format!(
                "confirmed {} of {expected} batches",
                self.counts.confirmed
            ));
        }
        let first = &self.nodes[0];
        for node in &self.nodes[1..] {
            if node.core.ledger_head() != first.core.ledger_head()
                || node.engine.state_fingerprint() != first.engine.state_fingerprint()
                || node.next_exec_round != first.next_exec_round
            {
                self.violations
                    .push(format!("{} and {} diverged", first.id, node.id));
            }
        }
    }
}

/// Replays `rounds` rounds of `workload`'s inputs under `seed`.
pub fn replay(workload: &Workload, seed: u64, rounds: usize, record: bool) -> Replay {
    let mut shadow = Shadow::new(workload::system(workload, seed), record);
    let mut sources: Vec<BatchSource> = (0..INSTANCES)
        .map(|s| BatchSource::new(workload, seed, s))
        .collect();
    let started = Instant::now();
    for round in 0..rounds {
        for (session, source) in sources.iter_mut().enumerate() {
            shadow.submit(session, source, (round * INSTANCES + session) as u32);
        }
        while let Some(wire) = shadow.queue.pop_front() {
            shadow.deliver(wire);
        }
        shadow
            .counts
            .per_round
            .push((shadow.counts.frames, shadow.counts.bytes));
    }
    let elapsed_s = started.elapsed().as_secs_f64();
    shadow.check_agreement(rounds);
    Replay {
        spans: shadow.rec.spans,
        counts: shadow.counts,
        elapsed_s,
        violations: shadow.violations,
    }
}

/// Mean conflict groups per round of `workload`'s inputs: what
/// `execute_round_parallel` will split each round into. Computed from the
/// regenerated batches, outside the timed replay.
pub fn groups_per_round(workload: &Workload, seed: u64, rounds: usize) -> f64 {
    let mut sources: Vec<BatchSource> = (0..INSTANCES)
        .map(|s| BatchSource::new(workload, seed, s))
        .collect();
    let total: usize = (0..rounds)
        .map(|_| {
            let sets: Vec<_> = sources
                .iter_mut()
                .flat_map(|source| source.next_batch().requests)
                .map(|request| access_set(&request.transaction.kind))
                .collect();
            conflict_groups(&sets).len()
        })
        .sum();
    total as f64 / rounds.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::by_name;

    fn span(id: u32, layer: &'static str, start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span {
            id,
            trace: 0,
            layer,
            replica: 0,
            start_ns,
            end_ns,
            parent,
            cause: None,
        }
    }

    #[test]
    fn self_time_is_the_span_minus_its_direct_children() {
        // deliver [0, 100) ─ decode [5, 15) ─ step [20, 70) ─ reply [30, 50)
        //                                                  └ tag [35, 45)
        let spans = [
            span(0, "network.node.deliver", 0, 100, None),
            span(1, "network.frame.decode", 5, 15, Some(0)),
            span(2, "core.replica.step", 20, 70, Some(0)),
            span(3, "network.node.reply", 30, 50, Some(2)),
            span(4, "crypto.mac.tag", 35, 45, Some(3)),
        ];
        assert_eq!(self_times(&spans), vec![40, 10, 30, 10, 10]);
        // Self times partition the root: nothing counted twice or lost.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
        let by_layer = self_time_by_layer(&spans);
        assert_eq!(by_layer["core.replica.step"], 30);
        assert_eq!(by_layer["network.node.deliver"], 40);
    }

    #[test]
    fn recorder_nests_spans_and_inherits_trace_and_cause() {
        let mut rec = Recorder::new(true);
        let root = rec.open("network.node.deliver", 2, 7, Some(99));
        let inner = rec.leaf("crypto.mac.verify", || 5);
        assert_eq!(inner, 5);
        rec.close(root);
        let [outer, leaf] = rec.spans[..] else {
            panic!("two spans")
        };
        assert_eq!(
            (leaf.parent, leaf.trace, leaf.cause, leaf.replica),
            (Some(0), 7, Some(99), 2)
        );
        assert!(outer.start_ns <= leaf.start_ns && leaf.end_ns <= outer.end_ns);
        assert!(to_jsonl(&rec.spans).lines().count() == 2);
    }

    #[test]
    fn replay_confirms_every_batch_and_repeats_its_wire_counts() {
        let workload = by_name("light").unwrap();
        let a = replay(workload, 11, 70, true);
        let b = replay(workload, 11, 70, false);
        assert_eq!(a.violations, Vec::<String>::new());
        assert_eq!(a.counts.confirmed, 280);
        assert_eq!(a.counts, b.counts, "same seed, same wire");
        assert!(b.spans.is_empty());
        // Every delivery but the client's own submissions has a cause, and
        // causes point backwards.
        for s in a.spans.iter().filter(|s| s.layer == "network.node.deliver") {
            assert!(s.cause.is_some_and(|cause| cause < s.id));
        }
        let by_layer = self_time_by_layer(&a.spans);
        for layer in [
            "core.replica.step",
            "execution.engine.round",
            "crypto.mac.verify",
            "network.node.reply",
        ] {
            assert!(by_layer[layer] > 0, "{layer}");
        }
    }

    #[test]
    fn hot_keys_collapse_the_conflict_groups() {
        assert!(groups_per_round(by_name("steady").unwrap(), 5, 10) > 300.0);
        assert!(groups_per_round(by_name("hotkeys").unwrap(), 5, 10) <= 16.0);
    }
}
