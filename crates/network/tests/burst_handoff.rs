//! The burst is the unit of hand-off between a node's mailbox thread and its
//! peers: whatever one burst produces for a peer leaves in one run, and what
//! arrives packed into runs reaches the replica in the order frame-by-frame
//! delivery gave.
//!
//! The node under test is R1 of a 4-replica, 2-instance deployment, spawned
//! with `spawn_node` over a transport double that logs every call. Its
//! traffic comes from a lock-step model of the whole cluster (four
//! `RccReplica`s stepped in the test): the model records what R1 receives,
//! as authenticated frames, and what R1 sends, so the real node can be
//! handed the same frames and held to the same answers, byte for byte.

use rcc_common::codec::Encode;
use rcc_common::{Batch, ClientId, Duration, InstanceId, ReplicaId, SystemConfig, Time};
use rcc_core::{RccMessage, RccReplica};
use rcc_crypto::{AuthTag, Authenticator, DeploymentKeys};
use rcc_network::run::{frames, pack_frame};
use rcc_network::{
    run_local_cluster, spawn_node, verify_identical_ledgers, verify_identical_orders, ClusterPlan,
    EdgeTelemetry, Frame, NodeConfig, NodeHandle, NodeReport, Transport, TransportKind,
};
use rcc_protocols::bca::{Action, ByzantineCommitAlgorithm};
use rcc_protocols::pbft::{Pbft, PbftMessage};
use rcc_workload::YcsbGenerator;
use std::collections::VecDeque;
use std::sync::mpsc::{Receiver, SyncSender};
use std::sync::{Arc, Mutex};
use std::time::Instant;

const N: usize = 4;
const M: usize = 2;
/// The node under test: a backup of instance 0, the coordinator of instance 1.
const R1: ReplicaId = ReplicaId(1);
/// Where a run is handed over in the middle of a burst.
const COALESCE_BYTES: usize = 64 * 1024;

type Message = RccMessage<PbftMessage>;

/// A deployment whose protocol timers never fire within a test.
fn quiet_system() -> SystemConfig {
    let mut system = SystemConfig::new(N).with_instances(M);
    system.failure_detection_timeout = Duration::from_secs(120);
    system.recovery_leader_timeout = Duration::from_secs(120);
    system.validate().expect("valid deployment");
    system
}

/// One call the node made on its transport.
#[derive(Clone, Debug, PartialEq)]
enum Call {
    Replica(ReplicaId, Vec<u8>),
    Client,
}

/// The transport double: inbound runs come from a channel the test holds
/// the other end of, and every outbound call is logged in order.
struct Logged {
    inbox: Receiver<Vec<u8>>,
    log: Arc<Mutex<Vec<Call>>>,
    telemetry: EdgeTelemetry,
}

impl Transport for Logged {
    fn me(&self) -> ReplicaId {
        R1
    }
    fn send_to_replica(&self, to: ReplicaId, run: Vec<u8>) {
        self.log.lock().unwrap().push(Call::Replica(to, run));
    }
    fn send_to_client(&self, _to: ClientId, _frame: Vec<u8>) {
        self.log.lock().unwrap().push(Call::Client);
    }
    fn recv_timeout(&mut self, timeout: std::time::Duration) -> Option<Vec<u8>> {
        self.inbox.recv_timeout(timeout).ok()
    }
    fn try_recv(&mut self) -> Option<Vec<u8>> {
        self.inbox.try_recv().ok()
    }
    fn telemetry(&self) -> &EdgeTelemetry {
        &self.telemetry
    }
}

/// A running node R1 and the test's ends of its transport.
struct UnderTest {
    node: NodeHandle,
    inbox: SyncSender<Vec<u8>>,
    log: Arc<Mutex<Vec<Call>>>,
}

impl UnderTest {
    /// Spawns R1 with `queued` already waiting in its inbox.
    fn spawn(system: &SystemConfig, queued: Vec<Vec<u8>>) -> UnderTest {
        let (inbox, receiver) = std::sync::mpsc::sync_channel(4_096);
        for run in queued {
            inbox.send(run).expect("room in the inbox");
        }
        let log = Arc::new(Mutex::new(Vec::new()));
        let transport = Logged {
            inbox: receiver,
            log: Arc::clone(&log),
            telemetry: EdgeTelemetry::new(),
        };
        let config = NodeConfig {
            system: system.clone(),
            replica: R1,
            execution_workers: 2,
        };
        let node = spawn_node(config, transport).expect("spawn node");
        UnderTest { node, inbox, log }
    }

    fn deliver(&self, run: Vec<u8>) {
        self.inbox.send(run).expect("room in the inbox");
    }

    /// Frames the mailbox has drained so far.
    fn drained(&self) -> u64 {
        let snapshot = self.node.telemetry().snapshot();
        let bursts = snapshot.histogram("node.pipeline.burst_frames");
        bursts.expect("registered").sum
    }

    /// Delivers `runs` one at a time, each only once the mailbox has taken
    /// the one before, so that every run is a burst of its own.
    fn deliver_as_bursts(&self, runs: &[Vec<u8>]) {
        let give_up = Instant::now() + std::time::Duration::from_secs(30);
        let mut expected = self.drained();
        for run in runs {
            self.deliver(run.clone());
            expected += frames(run).count() as u64;
            while self.drained() < expected {
                assert!(Instant::now() < give_up, "the mailbox stopped draining");
                std::thread::yield_now();
            }
        }
    }

    /// Every `send_to_replica` call so far, in order.
    fn replica_calls(&self) -> Vec<(ReplicaId, Vec<u8>)> {
        let log = self.log.lock().unwrap();
        log.iter()
            .filter_map(|call| match call {
                Call::Replica(to, run) => Some((*to, run.clone())),
                Call::Client => None,
            })
            .collect()
    }

    /// Waits until the node has sent its peers `count` frames in all.
    fn await_peer_frames(&self, count: usize) {
        let give_up = Instant::now() + std::time::Duration::from_secs(30);
        loop {
            let sent: usize = self
                .replica_calls()
                .iter()
                .map(|(_, run)| frames(run).count())
                .sum();
            if sent >= count {
                return;
            }
            assert!(Instant::now() < give_up, "{sent} of {count} frames sent");
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
    }

    /// Stops the node; everything it was given has been processed by then
    /// only if the caller awaited it.
    fn stop(self) -> (Vec<(ReplicaId, Vec<u8>)>, NodeReport) {
        let calls = self.replica_calls();
        let report = self.node.shutdown().expect("the node never panicked");
        (calls, report)
    }
}

/// The frames of `calls` addressed to `to`, in order, whatever runs they
/// travelled in. Every run must be whole records.
fn frames_to(calls: &[(ReplicaId, Vec<u8>)], to: ReplicaId) -> Vec<Vec<u8>> {
    calls
        .iter()
        .filter(|(peer, _)| *peer == to)
        .flat_map(|(_, run)| frames(run))
        .map(|frame| frame.expect("a well-formed run").to_vec())
        .collect()
}

fn run_of(frames: &[Vec<u8>]) -> Vec<u8> {
    let mut run = Vec::new();
    for frame in frames {
        pack_frame(&mut run, frame);
    }
    run
}

fn peers() -> impl Iterator<Item = ReplicaId> {
    ReplicaId::all(N).filter(|&peer| peer != R1)
}

/// The whole cluster in lock step, with R1's traffic written down.
struct Model {
    replicas: Vec<RccReplica<Pbft>>,
    auths: Vec<Authenticator>,
    keys: DeploymentKeys,
    queue: VecDeque<(ReplicaId, ReplicaId, Message)>,
    generators: Vec<YcsbGenerator>,
    /// What R1 received, in order: authenticated frames.
    inbound: Vec<Vec<u8>>,
    /// What R1 sent each peer, in order: `outbound[peer]`.
    outbound: Vec<Vec<Vec<u8>>>,
}

impl Model {
    fn new(system: &SystemConfig) -> Model {
        let keys = DeploymentKeys::generate(system);
        Model {
            replicas: ReplicaId::all(N)
                .map(|r| RccReplica::over_pbft(system.clone(), r))
                .collect(),
            auths: ReplicaId::all(N)
                .map(|r| Authenticator::new(system.crypto, keys.replica_keys(r)))
                .collect(),
            keys,
            queue: VecDeque::new(),
            generators: (0..M)
                .map(|stream| YcsbGenerator::new(system.seed, stream as u64, system.batch_size))
                .collect(),
            inbound: Vec::new(),
            outbound: vec![Vec::new(); N],
        }
    }

    fn replica_frame(&self, from: ReplicaId, to: ReplicaId, message: &Message) -> Vec<u8> {
        let payload = message.encoded();
        let tag = self.auths[from.index()].tag_for_replica(to, &payload);
        Frame::Replica { from, payload, tag }.encode_frame()
    }

    fn post(&mut self, from: ReplicaId, to: ReplicaId, message: Message) {
        if from == R1 {
            let frame = self.replica_frame(from, to, &message);
            self.outbound[to.index()].push(frame);
        }
        self.queue.push_back((from, to, message));
    }

    fn absorb(&mut self, at: ReplicaId, actions: Vec<Action<Message>>) {
        for action in actions {
            match action {
                Action::Send { to, message } => self.post(at, to, message),
                Action::Broadcast { message } => {
                    for to in ReplicaId::all(N).filter(|&to| to != at) {
                        self.post(at, to, message.clone());
                    }
                }
                _ => {}
            }
        }
    }

    /// The client of `instance` submits its next batch to the coordinator.
    fn submit(&mut self, instance: InstanceId) {
        let batch: Batch = self.generators[instance.0 as usize].next_batch();
        let coordinator = instance.primary();
        if coordinator == R1 {
            let client = ClientId(instance.0 as u64);
            let payload = batch.encoded();
            let key = &self.keys.client_keys(client).mac_with_replicas[R1.index()];
            let frame = Frame::ClientSubmit {
                client,
                instance,
                tag: AuthTag::Mac(key.tag(&payload)),
                payload,
            };
            self.inbound.push(frame.encode_frame());
        }
        let actions = self.replicas[coordinator.index()].propose_for(Time::ZERO, instance, batch);
        assert!(!actions.is_empty(), "{instance} had no room for a proposal");
        self.absorb(coordinator, actions);
    }

    /// Delivers messages until `stop_at` of them have reached R1 (`None`:
    /// until nothing is in flight).
    fn deliver(&mut self, stop_at: Option<usize>) {
        while let Some((from, to, message)) = self.queue.pop_front() {
            if to == R1 {
                let frame = self.replica_frame(from, to, &message);
                self.inbound.push(frame);
            }
            let actions = self.replicas[to.index()].on_message(Time::ZERO, from, message);
            self.absorb(to, actions);
            if stop_at.is_some_and(|count| self.inbound.len() >= count) {
                return;
            }
        }
    }

    fn sent_by_r1(&self) -> usize {
        self.outbound.iter().map(Vec::len).sum()
    }
}

/// R0 proposes `k` batches on instance 0 and R1 is handed nothing but what
/// R0 sent it — `k` proposals, each with R0's own prepare vote behind it:
/// every proposal makes R1 broadcast a vote of its own, at the least.
fn k_proposals(system: &SystemConfig, k: usize) -> Model {
    let mut model = Model::new(system);
    for _ in 0..k {
        model.submit(InstanceId(0));
    }
    model.deliver(Some(2 * k));
    assert_eq!(model.inbound.len(), 2 * k);
    assert!(
        model.sent_by_r1() >= k * (N - 1),
        "a broadcast per proposal"
    );
    model
}

#[test]
fn a_burst_of_k_votes_leaves_as_one_run_per_peer() {
    const K: usize = 12;
    let system = quiet_system();
    let model = k_proposals(&system, K);
    // One run is one burst, whatever the scheduler does.
    let under_test = UnderTest::spawn(&system, vec![run_of(&model.inbound)]);
    under_test.await_peer_frames(model.sent_by_r1());
    let (calls, report) = under_test.stop();

    let expected: Vec<(ReplicaId, Vec<u8>)> = peers()
        .map(|peer| (peer, run_of(&model.outbound[peer.index()])))
        .collect();
    assert_eq!(calls.len(), N - 1, "one hand-over per peer, not per frame");
    assert_eq!(
        calls, expected,
        "every frame, in action order, byte for byte"
    );
    assert_eq!(report.auth_failures + report.decode_failures, 0);
    let bursts = report
        .telemetry
        .histogram("node.pipeline.burst_frames")
        .expect("registered");
    assert_eq!((bursts.count, bursts.sum), (1, 2 * K as u64));
    assert_eq!(
        report.telemetry.gauge("node.pipeline.queue_depth"),
        Some(2 * K as u64)
    );
}

#[test]
fn a_lone_frame_is_handed_over_without_waiting_for_company() {
    let system = quiet_system();
    let mut model = Model::new(&system);
    model.submit(InstanceId(0));
    model.deliver(Some(1));
    assert_eq!((model.inbound.len(), model.sent_by_r1()), (1, N - 1));
    let under_test = UnderTest::spawn(&system, Vec::new());
    // Nothing else will ever arrive: a node that waited for a fuller run
    // would never send.
    under_test.deliver(run_of(&model.inbound));
    under_test.await_peer_frames(N - 1);
    let (calls, _) = under_test.stop();
    let expected: Vec<(ReplicaId, Vec<u8>)> = peers()
        .map(|peer| (peer, run_of(&model.outbound[peer.index()])))
        .collect();
    assert_eq!(calls, expected);
    assert!(calls.iter().all(|(_, run)| frames(run).count() == 1));
}

#[test]
fn a_run_splits_at_64_kib() {
    // R1 coordinates instance 1: twenty submissions in one burst make it
    // broadcast twenty proposals of ≈ 5 kB (and as many votes), ≈ 110 kB
    // for each peer.
    const K: usize = 20;
    let system = quiet_system();
    let mut model = Model::new(&system);
    for _ in 0..K {
        model.submit(InstanceId(1));
    }
    assert_eq!(model.inbound.len(), K);
    assert_eq!(model.sent_by_r1(), 2 * K * (N - 1));
    let under_test = UnderTest::spawn(&system, vec![run_of(&model.inbound)]);
    under_test.await_peer_frames(model.sent_by_r1());
    let (calls, report) = under_test.stop();
    assert_eq!(report.auth_failures + report.decode_failures, 0);

    assert_eq!(calls.len(), 2 * (N - 1), "two runs for each peer");
    for peer in peers() {
        let runs: Vec<&Vec<u8>> = calls
            .iter()
            .filter(|(to, _)| *to == peer)
            .map(|(_, run)| run)
            .collect();
        let expected = run_of(&model.outbound[peer.index()]);
        assert!(expected.len() > COALESCE_BYTES && expected.len() < 2 * COALESCE_BYTES);
        assert_eq!(runs.len(), 2, "{peer}");
        // Split between records, nothing lost, nothing reordered.
        assert_eq!([runs[0].as_slice(), runs[1].as_slice()].concat(), expected);
        assert_eq!(frames_to(&calls, peer), model.outbound[peer.index()]);
        // The first run left the moment it passed the mark: it is past it,
        // and was not before its last frame went in.
        let last = frames(runs[0]).last().expect("frames").expect("whole");
        assert!(runs[0].len() >= COALESCE_BYTES, "{peer}");
        assert!(runs[0].len() - (4 + last.len()) < COALESCE_BYTES, "{peer}");
    }
    // The early hand-overs happened inside the burst, before its end.
    let order: Vec<ReplicaId> = calls.iter().map(|(to, _)| *to).collect();
    let once: Vec<ReplicaId> = peers().collect();
    assert_eq!(order, [once.clone(), once].concat());
}

#[test]
fn what_a_fired_timer_sends_leaves_before_the_mailbox_sleeps() {
    // Timers that do fire: R1 accepts a proposal nobody ever votes on.
    let mut system = quiet_system();
    system.failure_detection_timeout = Duration::from_millis(150);
    system.recovery_leader_timeout = Duration::from_millis(150);
    let model = k_proposals(&system, 1);
    let under_test = UnderTest::spawn(&system, vec![run_of(&model.inbound)]);
    under_test.await_peer_frames(model.sent_by_r1());
    let answered = under_test.replica_calls().len();
    assert_eq!(answered, N - 1);
    // No frame arrives from here on, so no burst ends: whatever is sent now
    // was sent by a timer and handed over by the timer path.
    let give_up = Instant::now() + std::time::Duration::from_secs(30);
    while under_test.replica_calls().len() == answered {
        assert!(Instant::now() < give_up, "no timer ever sent anything");
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    let (calls, report) = under_test.stop();
    assert!(report.suspicions > 0, "the failure detector fired");
    for (_, run) in &calls[answered..] {
        for frame in frames(run) {
            let frame = Frame::decode_frame(frame.expect("whole")).expect("a frame");
            assert!(matches!(frame, Frame::Replica { from, .. } if from == R1));
        }
    }
}

#[test]
fn packed_delivery_reaches_the_replica_in_frame_by_frame_order() {
    const ROUNDS: usize = 6;
    let system = quiet_system();
    let mut model = Model::new(&system);
    for _ in 0..ROUNDS {
        for instance in 0..M {
            model.submit(InstanceId(instance as u32));
        }
        model.deliver(None);
    }
    let expected_digests = model.replicas[R1.index()].execution_digests();
    assert_eq!(expected_digests.len(), ROUNDS * M, "the model released");

    // The same frames, one run each and then packed 1, 2, 3, … to a run.
    let singly: Vec<Vec<u8>> = model
        .inbound
        .iter()
        .map(|frame| run_of(std::slice::from_ref(frame)))
        .collect();
    let mut packed = Vec::new();
    let mut rest = &model.inbound[..];
    for size in (1..=9).cycle() {
        if rest.is_empty() {
            break;
        }
        let (now, later) = rest.split_at(size.min(rest.len()));
        rest = later;
        packed.push(run_of(now));
    }
    assert!(packed.len() * 3 < singly.len());

    let mut outcomes = Vec::new();
    for runs in [singly, packed] {
        let injected = runs.len();
        let under_test = UnderTest::spawn(&system, Vec::new());
        under_test.deliver_as_bursts(&runs);
        under_test.await_peer_frames(model.sent_by_r1());
        let (calls, report) = under_test.stop();
        for peer in peers() {
            assert_eq!(
                frames_to(&calls, peer),
                model.outbound[peer.index()],
                "what {peer} was sent, {injected} runs in"
            );
        }
        // Never more hand-overs than one per peer per run that came in.
        assert!(calls.len() <= injected * (N - 1));
        assert_eq!(report.auth_failures + report.decode_failures, 0);
        assert_eq!(report.execution_digests, expected_digests);
        assert_eq!(report.ledger_blocks.len(), ROUNDS);
        outcomes.push((calls.len(), report));
    }
    let (singly, packed) = (&outcomes[0], &outcomes[1]);
    assert!(packed.0 < singly.0, "fewer runs in, fewer runs out");
    // Same release order, same ledger, same state.
    assert_eq!(packed.1.ledger_head, singly.1.ledger_head);
    assert_eq!(packed.1.ledger_blocks, singly.1.ledger_blocks);
    assert_eq!(packed.1.state_fingerprint, singly.1.state_fingerprint);
    assert_eq!(packed.1.replies_sent, singly.1.replies_sent);
}

#[test]
fn a_malformed_tail_delivers_its_complete_records_and_counts_one_decode_failure() {
    const K: usize = 5;
    let system = quiet_system();
    let model = k_proposals(&system, K);
    // Ten good records, then one cut short inside its frame.
    let mut truncated = run_of(&model.inbound);
    pack_frame(&mut truncated, &model.inbound[0]);
    truncated.truncate(truncated.len() - 7);
    // A prefix beyond any frame, and bytes too few to be a prefix at all.
    let mut oversize = u32::MAX.to_be_bytes().to_vec();
    oversize.extend_from_slice(&[0xAB; 32]);
    let stub = vec![0, 0, 1];
    let under_test = UnderTest::spawn(&system, vec![oversize, truncated, stub]);
    under_test.await_peer_frames(model.sent_by_r1());
    let (calls, report) = under_test.stop();
    for peer in peers() {
        assert_eq!(frames_to(&calls, peer), model.outbound[peer.index()]);
    }
    assert_eq!(report.decode_failures, 3, "one per malformed tail");
    assert_eq!(report.auth_failures, 0);
}

#[test]
fn a_sender_outside_the_deployment_is_dropped_and_counted() {
    // A mangled sender id ahead of a valid frame: the node must neither
    // panic on it nor let it hold up the frame behind it.
    let system = quiet_system();
    let model = k_proposals(&system, 1);
    let Ok(Frame::Replica { payload, tag, .. }) = Frame::decode_frame(&model.inbound[0]) else {
        panic!("the model's first frame is a replica frame");
    };
    let forged = Frame::Replica {
        from: ReplicaId(59138),
        payload,
        tag,
    }
    .encode_frame();
    let queued = [vec![forged], model.inbound.clone()].concat();
    let under_test = UnderTest::spawn(&system, vec![run_of(&queued)]);
    under_test.await_peer_frames(model.sent_by_r1());
    let (calls, report) = under_test.stop();
    assert_eq!(report.auth_failures, 1);
    assert_eq!(report.decode_failures, 0);
    for peer in peers() {
        assert_eq!(frames_to(&calls, peer), model.outbound[peer.index()]);
    }
}

#[test]
fn a_burst_is_bounded_in_frames_not_runs() {
    // Ten runs of a hundred (undecodable) frames wait in the inbox before
    // the node first looks: the drain stops with the run that takes the
    // burst to 256 frames, so timers get their turn after 300, not 1 000.
    let system = quiet_system();
    let junk = run_of(&vec![b"not a frame".to_vec(); 100]);
    let under_test = UnderTest::spawn(&system, vec![junk; 10]);
    let give_up = Instant::now() + std::time::Duration::from_secs(30);
    let bursts = loop {
        let snapshot = under_test.node.telemetry().snapshot();
        let bursts = snapshot
            .histogram("node.pipeline.burst_frames")
            .expect("registered")
            .clone();
        if bursts.sum >= 1_000 {
            break bursts;
        }
        assert!(Instant::now() < give_up, "{} frames drained", bursts.sum);
        std::thread::sleep(std::time::Duration::from_millis(1));
    };
    let (calls, report) = under_test.stop();
    assert!(calls.is_empty());
    assert_eq!(report.decode_failures, 1_000);
    assert_eq!(
        (bursts.count, bursts.sum),
        (4, 1_000),
        "300 + 300 + 300 + 100"
    );
    assert_eq!(
        report.telemetry.gauge("node.pipeline.queue_depth"),
        Some(300),
        "a high-water mark in frames"
    );
}

#[test]
fn clusters_release_identically_over_both_transports() {
    for transport in [TransportKind::Tcp, TransportKind::InProcess] {
        let mut plan = ClusterPlan::smoke();
        plan.transport = transport;
        plan.run_for = std::time::Duration::from_millis(1_500);
        let outcome = run_local_cluster(&plan);
        verify_identical_orders(&outcome.reports).expect("identical release orders");
        verify_identical_ledgers(&outcome.reports).expect("identical ledgers");
        assert!(outcome.completed_batches() > 0, "{transport:?}");
        for report in &outcome.reports {
            let who = format!("{transport:?} {}", report.replica);
            assert!(report.executed_batches > 0, "{who}");
            assert_eq!(report.auth_failures, 0, "{who}");
            assert_eq!(report.decode_failures, 0, "{who}");
            assert_eq!(report.transport.dropped_frames, 0, "{who}");
            assert_eq!(report.view_changes, 0, "{who}");
            let telemetry = &report.telemetry;
            let bursts = telemetry
                .histogram("node.pipeline.burst_frames")
                .expect("registered");
            let drains = telemetry
                .histogram("node.pipeline.drain_us")
                .expect("registered");
            assert!(bursts.count > 0, "{who}");
            assert_eq!(bursts.count, drains.count, "{who}: one sample per burst");
            if transport == TransportKind::Tcp {
                let frames = telemetry.counter("transport.peer_frames").unwrap_or(0);
                let writes = telemetry.counter("transport.peer_writes").unwrap_or(0);
                assert!(
                    writes > 0 && frames >= writes,
                    "{who}: {frames} in {writes}"
                );
            }
        }
    }
}
