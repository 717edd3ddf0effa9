//! Each replica hashes each batch once between admission and ledger append.
//!
//! A test binary of its own with one `#[test]`: the count of computed batch
//! digests (`rcc_crypto::hash::computed_batch_digests`) is process-wide, and
//! nothing else may hash a batch while this runs.
//!
//! The four nodes run in this process over the in-process transport, and the
//! test is their only client: it hashes every batch *before* it reads the
//! counter, so everything counted afterwards was computed by a node from
//! bytes it decoded. A coordinator asks for a batch's digest at admission, at
//! propose and at ledger append; a backup at the proposal check and at ledger
//! append. Exactly one of those may compute.

use rcc_common::codec::Encode;
use rcc_common::{Batch, ClientId, Digest, Duration, InstanceId, ReplicaId, SystemConfig};
use rcc_crypto::hash::computed_batch_digests;
use rcc_crypto::{digest_batch, AuthTag, DeploymentKeys};
use rcc_network::{
    queue_capacity, spawn_node, ClientChannel, Frame, InProcessNetwork, NodeConfig, NodeReport,
};
use rcc_workload::YcsbGenerator;
use std::collections::BTreeMap;
use std::time::Instant;

const REPLICAS: usize = 4;
const INSTANCES: usize = 4;
const ROUNDS: usize = 12;

#[test]
fn no_replica_computes_the_digest_of_a_batch_twice() {
    let mut system = SystemConfig::new(REPLICAS)
        .with_instances(INSTANCES)
        .with_batch_size(10);
    // A stalled host must not start a view change: its no-op fill and
    // re-proposals are batches of their own and would blur the count.
    system.failure_detection_timeout = Duration::from_secs(120);
    system.recovery_leader_timeout = Duration::from_secs(120);
    system.validate().expect("valid deployment");

    // One client per instance; round `r` holds one batch of each.
    let mut generators: Vec<YcsbGenerator> = (0..INSTANCES)
        .map(|stream| YcsbGenerator::new(system.seed, stream as u64, system.batch_size))
        .collect();
    let rounds: Vec<Vec<Batch>> = (0..ROUNDS)
        .map(|_| generators.iter_mut().map(|g| g.next_batch()).collect())
        .collect();
    let digests: Vec<Vec<Digest>> = rounds
        .iter()
        .map(|round| round.iter().map(digest_batch).collect())
        .collect();
    let before = computed_batch_digests();

    let keys = DeploymentKeys::generate(&system);
    let hub = InProcessNetwork::new(REPLICAS, queue_capacity(&system));
    let nodes: Vec<_> = ReplicaId::all(REPLICAS)
        .map(|replica| {
            let config = NodeConfig {
                system: system.clone(),
                replica,
                execution_workers: 2,
            };
            spawn_node(config, hub.transport(replica)).expect("spawn node")
        })
        .collect();
    let mut clients: Vec<_> = (0..INSTANCES)
        .map(|stream| hub.client(ClientId(stream as u64)))
        .collect();

    // A round at a time, so that no instance ever lags the others by the σ
    // rounds that make its coordinator fill in no-ops.
    for (round, batches) in rounds.iter().enumerate() {
        for (stream, batch) in batches.iter().enumerate() {
            let instance = InstanceId(stream as u32);
            let coordinator = instance.primary();
            let client = ClientId(stream as u64);
            let payload = batch.encoded();
            let key = &keys.client_keys(client).mac_with_replicas[coordinator.index()];
            let frame = Frame::ClientSubmit {
                client,
                instance,
                tag: AuthTag::Mac(key.tag(&payload)),
                payload,
            };
            clients[stream].submit(coordinator, frame.encode_frame());
        }
        // Every replica answers every batch once it released the round.
        let mut replies: BTreeMap<Digest, usize> = BTreeMap::new();
        let give_up = Instant::now() + std::time::Duration::from_secs(60);
        while replies.len() < INSTANCES || replies.values().any(|&count| count < REPLICAS) {
            assert!(Instant::now() < give_up, "round {round} was never released");
            for client in &mut clients {
                let wait = std::time::Duration::from_millis(5);
                let Some(bytes) = client.recv_timeout(wait) else {
                    continue;
                };
                match Frame::decode_frame(&bytes).expect("a frame") {
                    Frame::ClientReply { digest, .. } => {
                        assert!(digests[round].contains(&digest), "reply to a stranger");
                        *replies.entry(digest).or_default() += 1;
                    }
                    Frame::ClientAccept { .. } => {}
                    other => panic!("round {round}: {other:?}"),
                }
            }
        }
    }

    let reports: Vec<NodeReport> = nodes
        .into_iter()
        .map(|node| node.shutdown().expect("node report"))
        .collect();
    let batches = (ROUNDS * INSTANCES) as u64;
    for report in &reports {
        assert_eq!(report.executed_batches, batches, "{}", report.replica);
        assert_eq!(report.ledger_blocks.len(), ROUNDS, "{}", report.replica);
        assert_eq!(report.view_changes, 0, "{}", report.replica);
    }
    // Not fewer either: a digest is never taken from the wire on trust.
    assert_eq!(
        computed_batch_digests() - before,
        REPLICAS as u64 * batches,
        "computed digests, for {batches} batches on {REPLICAS} replicas"
    );
}
