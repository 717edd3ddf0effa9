//! Isolated loops: what one call into one layer costs with nothing else
//! running. Each figure is the median of [`SAMPLES`] timed samples, so a
//! preempted sample does not move it.
//!
//! These are the numbers an optimisation of a single layer moves first;
//! `README.md` says which end-to-end metric each should then move, and on
//! which workload.

use crate::host;
use crate::stats::median;
use crate::workload::{by_name, BatchSource, Workload, EXECUTION_WORKERS, INSTANCES, REPLICAS};
use rcc_common::{
    Batch, BatchId, CryptoMode, Digest, InstanceId, ReplicaId, SystemConfig, WorkerPool,
};
use rcc_core::{ExecutionOrderer, OrderedBatch, RccReplica};
use rcc_crypto::{
    digest_batch, digest_bytes, Authenticator, DeploymentKeys, MacKey, VerifyJob, VerifyPool,
    VerifySource,
};
use rcc_execution::{access_set, conflict_groups, AccessSet, ExecutionEngine};
use rcc_protocols::harness::Cluster;
use rcc_protocols::pbft::Pbft;
use rcc_sim::{simulate_rcc_over_pbft, NetworkModel, SimConfig};
use rcc_storage::ledger::{BlockEntry, Ledger};
use rcc_storage::table::RecordTable;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Timed samples per figure.
const SAMPLES: usize = 5;
/// Seed of every input made here; the micro loops are not workload inputs.
const SEED: u64 = 0x5eed;

/// Median over [`SAMPLES`] samples of the nanoseconds one of `ops` calls
/// took.
fn ns_per_op(ops: usize, mut call: impl FnMut(usize)) -> f64 {
    let samples: Vec<f64> = (0..SAMPLES)
        .map(|sample| {
            let start = Instant::now();
            for op in 0..ops {
                call(sample * ops + op);
            }
            start.elapsed().as_nanos() as f64 / ops as f64
        })
        .collect();
    median(&samples)
}

/// One round's worth of batches (one per instance) of `workload`'s inputs,
/// `rounds` times over.
fn rounds_of(workload: &Workload, rounds: usize) -> Vec<Vec<(BatchId, Batch)>> {
    let mut sources: Vec<BatchSource> = (0..INSTANCES)
        .map(|s| BatchSource::new(workload, SEED, s))
        .collect();
    (0..rounds as u64)
        .map(|round| {
            sources
                .iter_mut()
                .enumerate()
                .map(|(i, source)| {
                    let id = BatchId {
                        instance: InstanceId(i as u32),
                        round,
                    };
                    (id, source.next_batch())
                })
                .collect()
        })
        .collect()
}

fn access_sets(round: &[(BatchId, Batch)]) -> Vec<AccessSet> {
    round
        .iter()
        .flat_map(|(_, batch)| &batch.requests)
        .map(|request| access_set(&request.transaction.kind))
        .collect()
}

fn deployment() -> SystemConfig {
    SystemConfig::new(REPLICAS)
        .with_instances(INSTANCES)
        .with_crypto(CryptoMode::Mac)
        .with_seed(SEED)
}

/// Runs every isolated loop; `(metric name, value)` in catalogue order.
pub fn run() -> Vec<(&'static str, f64)> {
    let steady = by_name("steady").expect("catalogue");
    let hotkeys = by_name("hotkeys").expect("catalogue");
    let mut out = vec![("host.calib_mops", host::calib_mops())];

    // crypto: bulk hashing, and a MAC at the two message sizes the wire
    // carries (a 5.4 kB proposal, a ~100 B vote).
    let megabyte = vec![0xA5u8; 1 << 20];
    let hash_ns = ns_per_op(8, |_| {
        black_box(digest_bytes(black_box(&megabyte)));
    });
    out.push(("crypto.hash.sha256_mb_s", 1e9 / hash_ns));
    let key = MacKey::from_bytes([7; 32]);
    for (name, size, ops) in [
        ("crypto.mac.tag_5k_ns", 5400, 400),
        ("crypto.mac.tag_100b_ns", 100, 8000),
    ] {
        let message = vec![0x3Cu8; size];
        out.push((
            name,
            ns_per_op(ops, |_| {
                black_box(key.tag(black_box(&message)));
            }),
        ));
    }

    // crypto.pipeline: a burst of 32 vote-sized frames through the
    // two-worker verify stage, hand-off included.
    let system = deployment();
    let keys = DeploymentKeys::generate(&system);
    let pool = Arc::new(WorkerPool::new(EXECUTION_WORKERS));
    let verify = VerifyPool::new(
        Authenticator::new(system.crypto, keys.replica_keys(ReplicaId(0))),
        Arc::clone(&pool),
    );
    let sender = Authenticator::new(system.crypto, keys.replica_keys(ReplicaId(1)));
    let payload = vec![0x11u8; 250];
    let jobs: Vec<VerifyJob> = (0..32)
        .map(|_| VerifyJob {
            source: VerifySource::Replica(ReplicaId(1)),
            payload: payload.clone(),
            tag: sender.tag_for_replica(ReplicaId(0), &payload),
        })
        .collect();
    let verify_ns = ns_per_op(60, |_| {
        let verdicts = verify.verify_batch(jobs.clone());
        assert!(verdicts.iter().all(|(_, ok)| *ok));
    });
    out.push(("crypto.pipeline.verify_batch32_us", verify_ns / 1e3));

    // common.pool: what fanning 400 jobs out and back costs when the jobs
    // themselves are free — the floor under a 400-group round.
    let handoff_ns = ns_per_op(40, |_| {
        let jobs: Vec<_> = (0..400).map(|i| move || i).collect();
        black_box(pool.run_ordered(jobs));
    });
    out.push(("common.pool.handoff_us", handoff_ns / 1e3));

    // protocols.pbft / core.replica: one slot, one m = 4 round, on the
    // synchronous harness (no crypto, no codec, no threads).
    let rounds = rounds_of(steady, SAMPLES * 40);
    let mut pbft = Cluster::new(
        ReplicaId::all(REPLICAS)
            .map(|r| Pbft::standalone(system.clone().with_instances(1), r))
            .collect(),
    );
    let slot_ns = ns_per_op(40, |i| {
        pbft.propose(ReplicaId(0), rounds[i][0].1.clone());
        pbft.run_to_quiescence();
    });
    assert_eq!(pbft.committed(ReplicaId(3)).len(), SAMPLES * 40);
    out.push(("protocols.pbft.slot_us", slot_ns / 1e3));
    let mut rcc = Cluster::new(
        ReplicaId::all(REPLICAS)
            .map(|r| RccReplica::over_pbft(system.clone(), r))
            .collect(),
    );
    let round_ns = ns_per_op(40, |i| {
        for (id, batch) in &rounds[i] {
            rcc.propose(id.instance.primary(), batch.clone());
        }
        rcc.run_to_quiescence();
    });
    assert_eq!(rcc.committed(ReplicaId(3)).len(), SAMPLES * 40 * INSTANCES);
    out.push(("core.replica.round_us", round_ns / 1e3));

    // core.orderer: record m commits and release the round they complete.
    let mut orderer = ExecutionOrderer::new(INSTANCES);
    let release_ns = ns_per_op(4000, |i| {
        for instance in InstanceId::all(INSTANCES) {
            let id = BatchId {
                instance,
                round: i as u64,
            };
            orderer.record(OrderedBatch {
                id,
                digest: Digest::ZERO,
                batch: Batch::noop(instance, id.round),
                speculative: false,
                view: 0,
            });
        }
        assert_eq!(orderer.release_ready().len(), 1);
    });
    out.push(("core.orderer.release_ns", release_ns));

    // execution: conflict analysis alone, then whole rounds three ways.
    let hot_rounds = rounds_of(hotkeys, SAMPLES * 40);
    for (name, inputs) in [
        ("execution.conflict.groups_uniform_us", &rounds),
        ("execution.conflict.groups_hot_us", &hot_rounds),
    ] {
        let sets: Vec<Vec<AccessSet>> = inputs.iter().map(|round| access_sets(round)).collect();
        out.push((
            name,
            ns_per_op(40, |i| {
                black_box(conflict_groups(&sets[i]));
            }) / 1e3,
        ));
    }
    let mut sequential = ExecutionEngine::new(ReplicaId(0));
    let seq_ns = ns_per_op(40, |i| {
        black_box(sequential.execute_round(i as u64, &rounds[i]));
    });
    out.push(("execution.engine.round_seq_us", seq_ns / 1e3));
    for (name, inputs) in [
        ("execution.engine.round_par2_uniform_us", &rounds),
        ("execution.engine.round_par2_hot_us", &hot_rounds),
    ] {
        let mut engine = ExecutionEngine::new(ReplicaId(0));
        out.push((
            name,
            ns_per_op(40, |i| {
                black_box(engine.execute_round_parallel(i as u64, &inputs[i], &pool));
            }) / 1e3,
        ));
    }

    // storage: one block appended, one record written.
    let entries: Vec<BlockEntry> = rounds[0]
        .iter()
        .map(|(id, batch)| BlockEntry {
            batch: *id,
            digest: digest_batch(batch),
            transactions: batch.len(),
        })
        .collect();
    let mut ledger = Ledger::new();
    let append_ns = ns_per_op(4000, |i| {
        black_box(ledger.append(i as u64, entries.clone()));
    });
    out.push(("storage.ledger.append_us", append_ns / 1e3));
    let mut table = RecordTable::new();
    let mut rng = rcc_common::SplitMix64::new(SEED);
    let write_ns = ns_per_op(100_000, |_| {
        table.write(rng.next_below(500_000), vec![0u8; 8]);
    });
    out.push(("storage.table.write_ns", write_ns));

    // sim: events per wall second of the discrete-event simulator on the
    // benchmark's own shape (LAN, one virtual second).
    let horizon = rcc_common::Duration::from_secs(1);
    let started = Instant::now();
    let report = simulate_rcc_over_pbft(SimConfig::new(system, NetworkModel::lan(), horizon));
    out.push((
        "sim.events_per_s",
        report.events_processed as f64 / started.elapsed().as_secs_f64(),
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ns_per_op_is_a_median_over_samples() {
        let mut calls = 0;
        let ns = ns_per_op(10, |i| {
            assert_eq!(i, calls, "indices run on across samples");
            calls += 1;
        });
        assert_eq!(calls, SAMPLES * 10);
        assert!(ns >= 0.0);
    }
}
