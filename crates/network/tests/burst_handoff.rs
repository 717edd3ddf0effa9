//! The burst is the unit of hand-off between a node and its peers: whatever
//! one burst produces for a peer leaves in one run, and what arrives packed
//! into runs reaches the replica in the order frame-by-frame delivery gave.
//!
//! The node under test is R1 of a 4-replica, 2-instance deployment. Its
//! traffic comes from a lock-step model of the whole cluster (four
//! `RccReplica`s stepped in the test): the model records what R1 receives,
//! as authenticated frames, and what R1 sends, so the real node can be
//! handed the same frames and held to the same answers, byte for byte. Most
//! tests drive R1's `NodeCore` burst by burst at explicit `now`s over a
//! transport double that logs every call; the host's drain loop and the two
//! transports run through `spawn_node`.

use rcc_common::codec::Encode;
use rcc_common::{Batch, ClientId, Duration, InstanceId, ReplicaId, SystemConfig, Time};
use rcc_core::{RccMessage, RccReplica};
use rcc_crypto::{AuthTag, Authenticator, DeploymentKeys};
use rcc_network::run::{frames, pack_frame};
use rcc_network::{
    run_local_cluster, spawn_node, verify_identical_ledgers, verify_identical_orders, ClusterPlan,
    EdgeTelemetry, Frame, NodeConfig, NodeCore, NodeReport, NodeTelemetry, Transport,
    TransportKind,
};
use rcc_protocols::bca::{Action, ByzantineCommitAlgorithm};
use rcc_protocols::pbft::{Pbft, PbftMessage};
use rcc_workload::YcsbGenerator;
use std::collections::VecDeque;
use std::sync::mpsc::Receiver;
use std::sync::{Arc, Mutex};
use std::time::Instant;

const N: usize = 4;
const M: usize = 2;
/// The node under test: a backup of instance 0, the coordinator of instance 1.
const R1: ReplicaId = ReplicaId(1);
/// Where a run is handed over in the middle of a burst.
const COALESCE_BYTES: usize = 64 * 1024;
/// Rounds [`released_rounds`] releases.
const ROUNDS: usize = 6;

type Message = RccMessage<PbftMessage>;

/// A deployment whose protocol timers never fire within a test.
fn quiet_system() -> SystemConfig {
    let mut system = SystemConfig::new(N).with_instances(M);
    system.failure_detection_timeout = Duration::from_secs(120);
    system.recovery_leader_timeout = Duration::from_secs(120);
    system.validate().expect("valid deployment");
    system
}

fn config(system: &SystemConfig) -> NodeConfig {
    NodeConfig {
        system: system.clone(),
        replica: R1,
        execution_workers: 2,
    }
}

/// One call the node made on its transport.
#[derive(Clone, Debug, PartialEq)]
enum Call {
    Replica(ReplicaId, Vec<u8>),
    Client(ClientId, Vec<u8>),
}

/// The transport double: inbound runs come from a channel the test holds
/// the other end of, and every outbound call is logged in order.
struct Logged {
    inbox: Receiver<Vec<u8>>,
    log: Arc<Mutex<Vec<Call>>>,
    telemetry: EdgeTelemetry,
}

impl Logged {
    fn new(inbox: Receiver<Vec<u8>>) -> Logged {
        Logged {
            inbox,
            log: Arc::new(Mutex::new(Vec::new())),
            telemetry: EdgeTelemetry::new(),
        }
    }
}

impl Transport for Logged {
    fn send_to_replica(&self, to: ReplicaId, run: Vec<u8>) {
        self.log.lock().unwrap().push(Call::Replica(to, run));
    }
    fn send_to_client(&self, to: ClientId, frame: Vec<u8>) {
        self.log.lock().unwrap().push(Call::Client(to, frame));
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

/// R1's node core over a logging transport, driven by hand.
struct UnderTest {
    core: NodeCore,
    transport: Logged,
}

impl UnderTest {
    fn new(system: &SystemConfig) -> UnderTest {
        let (_, inbox) = std::sync::mpsc::sync_channel(0);
        UnderTest {
            core: NodeCore::new(config(system), NodeTelemetry::new()),
            transport: Logged::new(inbox),
        }
    }

    /// Hands the core `runs` as one burst at `now`, then executes what it
    /// released, as the host does after every burst.
    fn burst(&mut self, now: Time, runs: Vec<Vec<u8>>) {
        let count = runs.iter().map(|run| frames(run).count() as u64).sum();
        self.core.on_burst(now, runs, count, &self.transport);
        self.core.execute_released();
    }

    /// Every `send_to_replica` call so far, in order.
    fn replica_calls(&self) -> Vec<(ReplicaId, Vec<u8>)> {
        let log = self.transport.log.lock().unwrap();
        log.iter()
            .filter_map(|call| match call {
                Call::Replica(to, run) => Some((*to, run.clone())),
                Call::Client(..) => None,
            })
            .collect()
    }

    fn report(&self) -> NodeReport {
        self.core.report(&self.transport.telemetry)
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

/// Each of `ROUNDS` rounds, both instances propose and the model runs to
/// quiescence: R1 releases `ROUNDS × M` batches.
fn released_rounds(system: &SystemConfig) -> Model {
    let mut model = Model::new(system);
    for _ in 0..ROUNDS {
        for instance in 0..M {
            model.submit(InstanceId(instance as u32));
        }
        model.deliver(None);
    }
    assert_eq!(
        model.replicas[R1.index()].execution_digests().len(),
        ROUNDS * M,
        "the model released"
    );
    model
}

/// The frames of `rest` packed 1, 2, 3, … 9, 1, 2, … to a run.
fn packed(mut rest: &[Vec<u8>]) -> Vec<Vec<u8>> {
    let mut runs = Vec::new();
    while !rest.is_empty() {
        let (now, later) = rest.split_at((runs.len() % 9 + 1).min(rest.len()));
        runs.push(run_of(now));
        rest = later;
    }
    runs
}

#[test]
fn a_burst_of_k_votes_leaves_as_one_run_per_peer() {
    const K: usize = 12;
    let system = quiet_system();
    let model = k_proposals(&system, K);
    let mut node = UnderTest::new(&system);
    node.burst(Time::ZERO, vec![run_of(&model.inbound)]);
    let (calls, report) = (node.replica_calls(), node.report());

    let expected: Vec<(ReplicaId, Vec<u8>)> = peers()
        .map(|peer| (peer, run_of(&model.outbound[peer.index()])))
        .collect();
    assert_eq!(calls.len(), N - 1, "one hand-over per peer, not per frame");
    assert_eq!(
        calls, expected,
        "every frame, in action order, byte for byte"
    );
    assert_eq!(report.auth_failures + report.decode_failures, 0);
}

#[test]
fn a_lone_frame_is_handed_over_without_waiting_for_company() {
    let system = quiet_system();
    let mut model = Model::new(&system);
    model.submit(InstanceId(0));
    model.deliver(Some(1));
    assert_eq!((model.inbound.len(), model.sent_by_r1()), (1, N - 1));
    let mut node = UnderTest::new(&system);
    // Nothing else will ever arrive: a core that waited for a fuller run
    // would not have sent by the time the burst returns.
    node.burst(Time::ZERO, vec![run_of(&model.inbound)]);
    let calls = node.replica_calls();
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
    let mut node = UnderTest::new(&system);
    node.burst(Time::ZERO, vec![run_of(&model.inbound)]);
    let (calls, report) = (node.replica_calls(), node.report());
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
    let mut node = UnderTest::new(&system);
    node.burst(Time::ZERO, vec![run_of(&model.inbound)]);
    let answered = node.replica_calls().len();
    assert_eq!(answered, N - 1);
    // Armed at the burst's `now` plus the timeout.
    assert_eq!(node.core.next_deadline(), Some(Time::from_millis(150)));
    // No frame arrives from here on, so no burst ends: whatever is sent now
    // was sent by a timer, and handed over by the sweep that fired it.
    node.core
        .fire_due_timers(Time::from_millis(149), &node.transport);
    assert_eq!(node.replica_calls().len(), answered, "nothing is due yet");
    node.core
        .fire_due_timers(Time::from_millis(151), &node.transport);
    let (calls, report) = (node.replica_calls(), node.report());
    assert!(report.suspicions > 0, "the failure detector fired");
    assert_eq!(calls.len() - answered, N - 1, "one run per peer per sweep");
    for (_, run) in &calls[answered..] {
        for frame in frames(run) {
            let frame = Frame::decode_frame(frame.expect("whole")).expect("a frame");
            assert!(matches!(frame, Frame::Replica { from, .. } if from == R1));
        }
    }
}

#[test]
fn packed_delivery_reaches_the_replica_in_frame_by_frame_order() {
    let system = quiet_system();
    let model = released_rounds(&system);
    let expected_digests = model.replicas[R1.index()].execution_digests();

    // The same frames, one run each and then packed 1, 2, 3, … to a run.
    let singly: Vec<Vec<u8>> = model
        .inbound
        .iter()
        .map(|frame| run_of(std::slice::from_ref(frame)))
        .collect();
    let packed = packed(&model.inbound);
    assert!(packed.len() * 3 < singly.len());

    let mut outcomes = Vec::new();
    for runs in [singly, packed] {
        let injected = runs.len();
        let mut node = UnderTest::new(&system);
        // Every run is a burst of its own.
        for run in runs {
            node.burst(Time::ZERO, vec![run]);
        }
        let (calls, report) = (node.replica_calls(), node.report());
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
fn a_node_core_is_a_deterministic_function_of_its_inputs() {
    // Two cores in one process: each engine's record table hashes with a
    // key of its own, so no iteration order may reach a send or the state.
    let system = quiet_system();
    let runs = packed(&released_rounds(&system).inbound);
    let run_once = || {
        let mut node = UnderTest::new(&system);
        for (at, run) in runs.iter().enumerate() {
            let now = Time::from_micros(250 * at as u64);
            node.burst(now, vec![run.clone()]);
            node.core.fire_due_timers(now, &node.transport);
        }
        // Every report field but the timings and their trace: the state
        // fingerprint, the ledger, the release order and every count.
        let (telemetry, flight) = (Default::default(), Vec::new());
        let report = NodeReport {
            telemetry,
            flight,
            ..node.report()
        };
        let log = node.transport.log.lock().unwrap().clone();
        (log, format!("{report:?}"))
    };
    let ((log_a, report_a), (log_b, report_b)) = (run_once(), run_once());
    assert!(log_a.iter().any(|call| matches!(call, Call::Client(..))));
    assert!(log_a == log_b, "the same calls, in order, byte for byte");
    assert_eq!(report_a, report_b);
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
    let mut node = UnderTest::new(&system);
    node.burst(Time::ZERO, vec![oversize, truncated, stub]);
    let (calls, report) = (node.replica_calls(), node.report());
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
    let mut node = UnderTest::new(&system);
    node.burst(Time::ZERO, vec![run_of(&queued)]);
    let (calls, report) = (node.replica_calls(), node.report());
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
    // The drain loop is the host's, so this one runs a real mailbox thread.
    let (inbox, receiver) = std::sync::mpsc::sync_channel(16);
    let junk = run_of(&vec![b"not a frame".to_vec(); 100]);
    for _ in 0..10 {
        inbox.send(junk.clone()).expect("room in the inbox");
    }
    let transport = Logged::new(receiver);
    let log = Arc::clone(&transport.log);
    let node = spawn_node(config(&quiet_system()), transport).expect("spawn node");
    let give_up = Instant::now() + std::time::Duration::from_secs(30);
    let bursts = loop {
        let snapshot = node.telemetry().snapshot();
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
    let report = node.shutdown().expect("the node never panicked");
    assert!(
        log.lock().unwrap().is_empty(),
        "nothing decoded, nothing sent"
    );
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
