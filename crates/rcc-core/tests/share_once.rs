//! A node materialises each batch once. Every store of a committed batch on
//! a replica — the instance's commit log, the execution log, the commit
//! released to the embedding — is a handle on one allocation, which on the
//! coordinator is the allocation that was proposed. Pinned by identity
//! ([`Batch::ptr_eq`]), not by timing.

use rcc_common::{
    Batch, ClientId, ClientRequest, Decode, Encode, ReplicaId, SystemConfig, Transaction,
    TransactionKind,
};
use rcc_core::RccReplica;
use rcc_crypto::digest_batch;
use rcc_protocols::harness::Cluster;
use rcc_protocols::pbft::Pbft;

// `&Batch` crosses `WorkerPool` threads.
const _: fn() = || {
    fn s<T: Send + Sync>() {}
    s::<Batch>();
};

const ROUNDS: usize = 8;
const M: usize = 4;

/// 100 YCSB writes from one client (the client id doubles as a tag).
fn batch_of_100(tag: u64) -> Batch {
    Batch::new(
        (0..100)
            .map(|sequence| {
                let write = TransactionKind::YcsbWrite {
                    key: sequence,
                    value: vec![tag as u8; 16],
                };
                ClientRequest::new(ClientId(tag), sequence, Transaction::new(write))
            })
            .collect(),
    )
}

#[test]
fn every_store_of_a_committed_batch_is_one_allocation() {
    let config = SystemConfig::new(4).with_instances(M);
    let mut cluster: Cluster<RccReplica<Pbft>> = Cluster::new(
        ReplicaId::all(4)
            .map(|r| RccReplica::over_pbft(config.clone(), r))
            .collect(),
    );
    // proposed[round][instance]: the handle the test kept of what it gave
    // that instance's coordinator in that round.
    let mut proposed = Vec::new();
    for round in 0..ROUNDS {
        let batches: Vec<Batch> = (0..M)
            .map(|instance| batch_of_100((100 * round + instance) as u64))
            .collect();
        for (coordinator, batch) in ReplicaId::all(M).zip(&batches) {
            cluster.propose(coordinator, batch.clone());
        }
        cluster.run_to_quiescence();
        proposed.push(batches);
    }

    for replica in ReplicaId::all(4) {
        let node = cluster.node(replica);
        let released = cluster.committed(replica);
        let log = node.execution_log();
        assert_eq!(log.len(), ROUNDS, "{replica} released every round");
        assert_eq!(released.len(), ROUNDS * M);
        for (round, executed) in log.iter().enumerate() {
            let mut instances: Vec<usize> = executed
                .batches
                .iter()
                .map(|b| b.id.instance.index())
                .collect();
            instances.sort_unstable();
            assert_eq!(instances, (0..M).collect::<Vec<_>>());
            for (position, in_execution_log) in executed.batches.iter().enumerate() {
                let instance = in_execution_log.id.instance;
                let i = instance.index();
                let slot = format!("{replica}, instance {i}, round {round}");
                let in_commit_log = &node.instance_commit_log(instance)[&(round as u64)];
                let in_action = &released[round * M + position];
                assert_eq!(in_execution_log.id.round, round as u64);
                assert!(
                    in_commit_log.batch.ptr_eq(&in_execution_log.batch),
                    "{slot}: the commit log and the execution log share the batch"
                );
                assert!(
                    in_action.batch.ptr_eq(&in_execution_log.batch),
                    "{slot}: Action::Commit carries a handle, not a copy"
                );
                if replica == instance.primary() {
                    assert!(
                        proposed[round][i].ptr_eq(&in_execution_log.batch),
                        "{slot}: the coordinator kept the batch it was given"
                    );
                }
                assert_eq!(in_execution_log.batch, proposed[round][i], "{slot}");
            }
        }
    }
}

#[test]
fn a_clone_shares_and_a_decoded_copy_does_not() {
    let batch = batch_of_100(7);
    let digest = digest_batch(&batch);

    let clone = batch.clone();
    assert!(clone.ptr_eq(&batch));
    assert_eq!(clone.digest_memo().get(), Some(&digest));

    let decoded = Batch::decode_all(&batch.encoded()).expect("decodes");
    assert_eq!(decoded, batch);
    assert!(!decoded.ptr_eq(&batch));
    assert_eq!(decoded.digest_memo().get(), None);
}
