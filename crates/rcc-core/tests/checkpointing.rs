//! Harness-driven integration tests for Section III-D checkpointing: the
//! vote exchange stabilizes and prunes every layer of the replica's
//! retained state, pruned state-sync requests are answered with checkpoint
//! transfers, and the Section IV within-round permutation is agreed
//! identically by all replicas.

use rcc_common::{
    Batch, ClientId, ClientRequest, Error, InstanceId, ReplicaId, SystemConfig, Transaction,
};
use rcc_core::message::RccMessage;
use rcc_core::RccReplica;
use rcc_protocols::bca::Action;
use rcc_protocols::harness::Cluster;
use rcc_protocols::pbft::Pbft;
use rcc_protocols::ByzantineCommitAlgorithm;

const INTERVAL: u64 = 8;

fn rcc_cluster() -> Cluster<RccReplica<Pbft>> {
    let config = SystemConfig::new(4)
        .with_instances(4)
        .with_checkpoint_interval(INTERVAL);
    Cluster::new(
        (0..4u32)
            .map(|r| RccReplica::over_pbft(config.clone(), ReplicaId(r)))
            .collect(),
    )
}

fn batch(tag: u64) -> Batch {
    Batch::new(vec![ClientRequest::new(
        ClientId(tag),
        0,
        Transaction::transfer(0, 1, 10, 1),
    )])
}

/// Drives `rounds` full rounds (every coordinator proposes once per round).
fn drive(cluster: &mut Cluster<RccReplica<Pbft>>, rounds: u64) {
    for round in 0..rounds {
        for primary in 0..4u64 {
            cluster.propose(ReplicaId(primary as u32), batch(1000 * round + primary));
        }
        cluster.run_to_quiescence();
    }
}

#[test]
fn periodic_checkpoints_stabilize_and_prune_every_layer() {
    let mut cluster = rcc_cluster();
    let rounds = 3 * INTERVAL;
    drive(&mut cluster, rounds);
    for r in 0..4u32 {
        let node = cluster.node(ReplicaId(r));
        // At quiescence every vote was delivered: the last boundary is
        // stable everywhere.
        assert_eq!(
            node.stable_round(),
            rounds,
            "replica {r} stabilized the final checkpoint boundary"
        );
        assert_eq!(node.execution_window_start(), rounds);
        assert_eq!(node.orderer().next_round(), rounds);
        // Every layer below the stable round is gone: the commit logs, the
        // execution window, and the per-instance BCA slot maps.
        for i in 0..4u32 {
            assert!(
                node.instance_commit_log(InstanceId(i)).is_empty(),
                "replica {r} instance {i} commit log pruned"
            );
            assert_eq!(node.instance(InstanceId(i)).stable_round(), rounds);
            assert_eq!(
                node.instance(InstanceId(i)).retained_log_entries(),
                0,
                "replica {r} instance {i} slots pruned"
            );
        }
        assert!(node.execution_log().is_empty());
        assert_eq!(node.retained_log_entries(), 0);
        // The certified history survives in summarized form.
        let stable = node.stable_checkpoint().expect("stable checkpoint");
        assert_eq!(stable.round, rounds);
        assert_eq!(stable.ledger_head, node.ledger_head());
    }
    // All replicas certified the *same* state: equal checkpoint digests.
    let reference = cluster
        .node(ReplicaId(0))
        .stable_checkpoint()
        .unwrap()
        .digest();
    for r in 1..4u32 {
        assert_eq!(
            cluster
                .node(ReplicaId(r))
                .stable_checkpoint()
                .unwrap()
                .digest(),
            reference
        );
    }
}

#[test]
fn pruned_slot_requests_are_answered_with_a_checkpoint_transfer() {
    let mut cluster = rcc_cluster();
    drive(&mut cluster, INTERVAL);
    let now = cluster.now();
    let node = cluster.node_mut(ReplicaId(0));
    // Round 0 is below the stable checkpoint: the lookup surfaces
    // `Error::Pruned` …
    assert!(matches!(
        node.committed_slot(InstanceId(1), 0),
        Err(Error::Pruned(_))
    ));
    // … and a state-sync request for it is served a checkpoint transfer
    // instead of a slot reply.
    let actions = node.on_message(
        now,
        ReplicaId(3),
        RccMessage::SlotRequest {
            instance: InstanceId(1),
            round: 0,
        },
    );
    let transfer = actions
        .iter()
        .find_map(|a| match a {
            Action::Send {
                to,
                message: RccMessage::CheckpointTransfer { checkpoint },
            } => Some((*to, checkpoint.clone())),
            _ => None,
        })
        .expect("a pruned request draws a checkpoint transfer");
    assert_eq!(transfer.0, ReplicaId(3));
    assert_eq!(transfer.1.round, INTERVAL);
    assert!(
        !actions.iter().any(|a| matches!(
            a,
            Action::Send {
                message: RccMessage::SlotReply { .. },
                ..
            }
        )),
        "no slot reply for a pruned round"
    );
    // A request for a *retained* round still gets the classic reply.
    let actions = node.on_message(
        now,
        ReplicaId(3),
        RccMessage::SlotRequest {
            instance: InstanceId(1),
            round: INTERVAL,
        },
    );
    let _ = actions;
}

#[test]
fn the_unpredictable_permutation_is_agreed_and_differs_from_instance_order() {
    let mut cluster = rcc_cluster();
    let rounds = 6;
    drive(&mut cluster, rounds);
    // Identical orders across replicas (the permutation is a pure function
    // of agreed digests).
    let reference = cluster.node(ReplicaId(0)).execution_digests();
    for r in 1..4u32 {
        assert_eq!(
            cluster.node(ReplicaId(r)).execution_digests(),
            reference,
            "replica {r} agrees on the permuted order"
        );
    }
    // Each round releases one batch per instance, but at least one round
    // left instance-id order.
    let log = cluster.node(ReplicaId(0)).execution_log();
    assert_eq!(log.len(), rounds as usize);
    let mut any_permuted = false;
    for released in log {
        let order: Vec<u32> = released.batches.iter().map(|b| b.id.instance.0).collect();
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(
            sorted,
            vec![0, 1, 2, 3],
            "round {} is a permutation",
            released.round
        );
        assert!(released
            .batches
            .iter()
            .all(|b| b.id.round == released.round));
        any_permuted |= order != sorted;
    }
    assert!(
        any_permuted,
        "six rounds of distinct digests must hit a non-identity permutation"
    );
}
