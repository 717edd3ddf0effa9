//! Harness-driven integration tests for RCC's cross-instance ordering:
//! buffering of out-of-round-order commits, instance-local failure recovery,
//! and execution-order agreement under link drops.

use rcc_common::{
    Batch, ClientId, ClientRequest, InstanceId, ReplicaId, SystemConfig, Time, Transaction,
};
use rcc_core::RccReplica;
use rcc_protocols::harness::Cluster;
use rcc_protocols::pbft::Pbft;
use rcc_protocols::ByzantineCommitAlgorithm;

fn rcc_cluster(n: usize, m: usize, sigma: u64) -> Cluster<RccReplica<Pbft>> {
    let config = SystemConfig::new(n).with_instances(m);
    let config = SystemConfig { sigma, ..config };
    Cluster::new(
        (0..n as u32)
            .map(|r| RccReplica::over_pbft(config.clone(), ReplicaId(r)))
            .collect(),
    )
}

/// A recognisable single-transaction batch (client id doubles as a tag).
fn batch(tag: u64) -> Batch {
    Batch::new(vec![ClientRequest::new(
        ClientId(tag),
        0,
        Transaction::transfer(0, 1, 10, 1),
    )])
}

#[test]
fn four_instances_release_identical_execution_orders() {
    let mut cluster = rcc_cluster(4, 4, 16);
    for round in 0..3u64 {
        for primary in 0..4u64 {
            cluster.propose(ReplicaId(primary as u32), batch(100 * round + primary));
        }
        cluster.run_to_quiescence();
    }
    let reference = cluster.node(ReplicaId(0)).execution_digests();
    assert_eq!(reference.len(), 12, "3 rounds × 4 instances released");
    for r in 1..4 {
        assert_eq!(
            cluster.node(ReplicaId(r)).execution_digests(),
            reference,
            "replica {r} must agree on the execution order"
        );
        assert_eq!(cluster.node(ReplicaId(r)).committed_prefix(), 12);
        // The harness records the outer commits in execution order too.
        assert_eq!(cluster.committed(ReplicaId(r)).len(), 12);
    }
    // Each round executes one batch of every instance.
    for round in cluster.node(ReplicaId(0)).execution_log() {
        let mut instances: Vec<u32> = round.batches.iter().map(|b| b.id.instance.0).collect();
        instances.sort_unstable();
        assert_eq!(instances, vec![0, 1, 2, 3]);
    }
}

#[test]
fn commits_are_buffered_until_every_instance_contributes_to_the_round() {
    let mut cluster = rcc_cluster(4, 4, 16);
    // Only instances 0 and 1 propose: their slots commit inside their BCAs,
    // but no round is complete, so nothing is released anywhere.
    cluster.propose(ReplicaId(0), batch(1));
    cluster.propose(ReplicaId(1), batch(2));
    cluster.run_to_quiescence();
    for r in 0..4 {
        let node = cluster.node(ReplicaId(r));
        assert!(
            cluster.committed(ReplicaId(r)).is_empty(),
            "replica {r} must not release an incomplete round"
        );
        assert_eq!(
            node.instance(InstanceId(0)).committed_prefix(),
            1,
            "instance 0 committed"
        );
        assert_eq!(
            node.instance(InstanceId(1)).committed_prefix(),
            1,
            "instance 1 committed"
        );
    }
    // The remaining instances contribute: the round releases everywhere, in
    // one agreed order.
    cluster.propose(ReplicaId(2), batch(3));
    cluster.propose(ReplicaId(3), batch(4));
    cluster.run_to_quiescence();
    let reference = cluster.node(ReplicaId(0)).execution_digests();
    assert_eq!(reference.len(), 4);
    for r in 0..4 {
        assert_eq!(cluster.node(ReplicaId(r)).execution_digests(), reference);
        assert_eq!(cluster.committed(ReplicaId(r)).len(), 4);
    }
}

#[test]
fn crashed_instance_primary_stalls_only_its_instance_until_recovery() {
    let n = 4;
    let mut cluster = rcc_cluster(n, 4, 2);
    // Round 0 completes with all four coordinators alive.
    for primary in 0..4u64 {
        cluster.propose(ReplicaId(primary as u32), batch(primary));
    }
    cluster.run_to_quiescence();
    assert_eq!(cluster.node(ReplicaId(0)).execution_digests().len(), 4);

    // The coordinator of instance 1 crashes.
    cluster.crash(ReplicaId(1));

    // The remaining coordinators keep proposing. Their instances keep
    // committing (no global stall), and once instance 1 trails the frontier
    // by σ = 2 rounds — and the stall has lasted a full failure-detection
    // timeout — the lag detector drives an instance-local view change; the
    // replacement coordinator fills the missed rounds with no-ops.
    for round in 1..=5u64 {
        // Virtual time passes between rounds: escalation to a view change
        // requires the missing slot to stay missing for a failure-detection
        // timeout, not just σ frontier rounds.
        cluster.advance_time(Time::from_millis(300 * round));
        for primary in [0u32, 2, 3] {
            cluster.propose(ReplicaId(primary), batch(100 * round + primary as u64));
        }
        cluster.run_to_quiescence();
    }

    let correct = [ReplicaId(0), ReplicaId(2), ReplicaId(3)];
    // The other instances were never stalled: every slot their coordinators
    // proposed committed inside the BCAs.
    for &r in &correct {
        let node = cluster.node(r);
        assert_eq!(
            node.instance(InstanceId(0)).committed_prefix(),
            6,
            "instance 0 at {r}"
        );
        assert!(
            node.instance(InstanceId(2)).committed_prefix() >= 5,
            "instance 2 kept committing at {r}"
        );
        assert!(
            node.instance(InstanceId(3)).committed_prefix() >= 5,
            "instance 3 kept committing at {r}"
        );
    }
    // Instance 1 was recovered: a new coordinator took over and the
    // execution order advanced past the crash point with no-op substitutes.
    let reference = cluster.node(ReplicaId(0)).execution_digests();
    assert!(
        cluster.node(ReplicaId(0)).orderer().next_round() >= 4,
        "execution order advanced past the stalled rounds, got {}",
        cluster.node(ReplicaId(0)).orderer().next_round()
    );
    for &r in &correct {
        let node = cluster.node(r);
        assert_eq!(
            node.execution_digests(),
            reference,
            "identical orders at {r}"
        );
        assert_ne!(
            node.instance(InstanceId(1)).primary(),
            ReplicaId(1),
            "instance 1 replaced its crashed coordinator at {r}"
        );
        assert!(
            node.instance(InstanceId(1)).view() >= 1,
            "instance 1 went through a view change at {r}"
        );
        // Instance-local recovery: the other instances never changed view.
        for other in [0u32, 2, 3] {
            assert_eq!(
                node.instance(InstanceId(other)).view(),
                0,
                "instance {other} at {r}"
            );
        }
    }
    // The released rounds after the crash substitute no-ops for instance 1.
    let log = cluster.node(ReplicaId(0)).execution_log();
    let recovered_round = log
        .iter()
        .find(|round| round.round == 2)
        .expect("round 2 released");
    let instance1 = recovered_round
        .batches
        .iter()
        .find(|b| b.id.instance == InstanceId(1))
        .expect("instance 1 contributes to round 2");
    assert!(
        instance1.batch.is_noop(),
        "instance 1's missed round is a no-op substitute"
    );
    // The failure was reported to the embedding layer.
    assert!(correct.iter().any(|&r| cluster
        .suspicions(r)
        .iter()
        .any(|(suspect, _)| *suspect == ReplicaId(1))));
}

#[test]
fn link_drops_are_recovered_by_state_sync_with_identical_orders() {
    let n = 4;
    let mut cluster = rcc_cluster(n, 4, 2);
    // Replica 3 misses everything replica 0 sends during round 0 — including
    // instance 0's proposal, which only the coordinator can supply.
    cluster.set_drop_link(ReplicaId(0), ReplicaId(3), true);
    for primary in 0..4u64 {
        cluster.propose(ReplicaId(primary as u32), batch(primary));
    }
    cluster.run_to_quiescence();
    // Replica 3 cannot complete round 0: instance 0's batch never arrived.
    assert!(cluster.committed(ReplicaId(3)).is_empty());
    assert_eq!(cluster.committed(ReplicaId(0)).len(), 4);

    // The link heals; later rounds flow normally. Once replica 3's missing
    // slot trails the frontier by σ it asks its peers, who serve the
    // committed slot; f + 1 matching replies let replica 3 adopt it.
    cluster.set_drop_link(ReplicaId(0), ReplicaId(3), false);
    for round in 1..=2u64 {
        for primary in 0..4u64 {
            cluster.propose(ReplicaId(primary as u32), batch(100 * round + primary));
        }
        cluster.run_to_quiescence();
    }

    let reference = cluster.node(ReplicaId(0)).execution_digests();
    assert_eq!(reference.len(), 12, "3 rounds × 4 instances");
    for r in 0..4 {
        assert_eq!(
            cluster.node(ReplicaId(r)).execution_digests(),
            reference,
            "replica {r} agrees on the execution order despite the dropped link"
        );
    }
    // And no instance had to change view for it: the coordinator was never
    // faulty, a replica merely missed messages.
    for i in 0..4u32 {
        assert_eq!(cluster.node(ReplicaId(0)).instance(InstanceId(i)).view(), 0);
    }
}

#[test]
fn fewer_instances_than_replicas_is_supported() {
    // m = 2 < n = 4: only replicas 0 and 1 coordinate instances; 2 and 3
    // participate in consensus without proposing.
    let mut cluster = rcc_cluster(4, 2, 16);
    assert_eq!(cluster.node(ReplicaId(2)).led_instances(), vec![]);
    cluster.propose(ReplicaId(0), batch(1));
    cluster.propose(ReplicaId(1), batch(2));
    cluster.propose(ReplicaId(2), batch(3)); // no instance to propose to: ignored
    cluster.run_to_quiescence();
    let reference = cluster.node(ReplicaId(0)).execution_digests();
    assert_eq!(reference.len(), 2, "one round of two instances");
    for r in 1..4 {
        assert_eq!(cluster.node(ReplicaId(r)).execution_digests(), reference);
    }
}
