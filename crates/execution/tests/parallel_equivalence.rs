//! The determinism-equivalence harness for the parallel execution stage.
//!
//! Property: for seeded random workloads — hot-key skew, bank traffic,
//! scans, and no-op filler included — `execute_round_parallel` with worker
//! counts {1, 2, 4, 8} produces **bit-identical** results to the sequential
//! `execute_round`: the same ledger (head digest and every block), the same
//! record-table and account fingerprints, the same access counters, the
//! same `ExecutionSummary`, and the same client replies in the same order.
//! This is the safety argument that lets RCC run non-conflicting
//! transactions of a released round concurrently.
//!
//! `execute_round_parallel` decides per round whether to fan out (the work
//! test in the `engine` module docs), so the workloads come in four
//! [`Shape`]s built to sit on both sides of that decision. Which side a
//! round lands on is not observable from here — that is the property under
//! test — so the engine's own unit tests pin the decision itself.

use rcc_common::pool::WorkerPool;
use rcc_common::rng::SplitMix64;
use rcc_common::{
    Batch, BatchId, ClientId, ClientRequest, InstanceId, ReplicaId, Round, Transaction,
    TransactionKind,
};
use rcc_execution::ExecutionEngine;

/// Keys 0..HOT_KEYS soak up a large share of record traffic so rounds are
/// full of genuine read/write conflicts, not just disjoint singletons.
const HOT_KEYS: u64 = 4;
const TABLE_KEYS: u64 = 64;
const HOT_ACCOUNTS: u32 = 3;
const ACCOUNTS: u32 = 16;

/// The scan-bearing shapes write into the first [`REGION_KEYS`] keys of a
/// region and scan thousands of keys from there on (the work test weighs a
/// scan by the range it walks); regions lie 100 000 apart.
const REGION_KEYS: u64 = 64;
const REGIONS: u64 = 5;
const LONG_SCAN: u32 = 4_096;

/// What a workload's rounds look like to the work test.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Shape {
    /// Every kind of transaction over a small hot key space, short scans
    /// included: barely more work than it has transactions, runs in place.
    Mixed,
    /// Point accesses only (records and accounts): `W = n`, runs in place.
    Points,
    /// Mostly long scans, each confined with the writes around it to one
    /// of [`REGIONS`] regions, plus bank traffic: passes the work test and
    /// splits into several groups, so it fans out whenever the pool has
    /// more than one worker.
    Scans,
    /// Long scans that all cover one span of keys, and writes into that
    /// span: passes the work test but is a single conflict group.
    Giant,
}

const SHAPES: [Shape; 4] = [Shape::Mixed, Shape::Points, Shape::Scans, Shape::Giant];

fn bank_kind(rng: &mut SplitMix64, account: u32) -> TransactionKind {
    match rng.next_below(26) {
        0..=11 => TransactionKind::Transfer {
            from: account,
            to: rng.next_below(ACCOUNTS as u64) as u32,
            min_balance: rng.next_below(120) as i64 - 20,
            amount: 1 + rng.next_below(50) as i64,
        },
        12..=19 => TransactionKind::Deposit {
            account,
            amount: 1 + rng.next_below(40) as i64,
        },
        _ => TransactionKind::BalanceQuery { account },
    }
}

fn point_kind(rng: &mut SplitMix64, key: u64) -> TransactionKind {
    match rng.next_below(65) {
        0..=34 => TransactionKind::YcsbWrite {
            key,
            value: vec![rng.next_below(251) as u8; 8 + rng.next_below(9) as usize],
        },
        35..=54 => TransactionKind::YcsbRead { key },
        _ => TransactionKind::YcsbReadModifyWrite {
            key,
            delta: vec![rng.next_below(251) as u8; 1 + rng.next_below(4) as usize],
        },
    }
}

fn random_kind(rng: &mut SplitMix64, shape: Shape) -> TransactionKind {
    let hot = rng.next_below(10) < 4;
    let record_key = if hot {
        rng.next_below(HOT_KEYS)
    } else {
        rng.next_below(TABLE_KEYS)
    };
    let account = if hot {
        rng.next_below(HOT_ACCOUNTS as u64) as u32
    } else {
        rng.next_below(ACCOUNTS as u64) as u32
    };
    let roll = rng.next_below(100);
    match shape {
        Shape::Mixed => match roll {
            0..=64 => point_kind(rng, record_key),
            65..=72 => TransactionKind::YcsbScan {
                start: rng.next_below(TABLE_KEYS),
                count: 1 + rng.next_below(12) as u32,
            },
            73..=97 => bank_kind(rng, account),
            _ => TransactionKind::NoOp,
        },
        Shape::Points => match roll {
            0..=69 => point_kind(rng, record_key),
            70..=97 => bank_kind(rng, account),
            _ => TransactionKind::NoOp,
        },
        Shape::Scans => {
            // Region 0 overlaps the pre-populated keys; the others start
            // empty, so their scans count records created mid-run.
            let base = rng.next_below(REGIONS) * 100_000;
            let key = base + rng.next_below(REGION_KEYS);
            match roll {
                0..=59 => TransactionKind::YcsbScan {
                    start: base + rng.next_below(REGION_KEYS / 2),
                    count: LONG_SCAN + rng.next_below(LONG_SCAN as u64) as u32,
                },
                60..=84 => point_kind(rng, key),
                85..=97 => bank_kind(rng, account),
                _ => TransactionKind::NoOp,
            }
        }
        Shape::Giant => match roll {
            // Every scan covers keys 8..48 and every write lands there.
            0..=69 => TransactionKind::YcsbScan {
                start: rng.next_below(8),
                count: LONG_SCAN + rng.next_below(16) as u32,
            },
            _ => TransactionKind::YcsbWrite {
                key: 8 + rng.next_below(40),
                value: vec![rng.next_below(251) as u8; 8],
            },
        },
    }
}

/// One seeded workload: `rounds` rounds of `m` batches each, mixing real
/// traffic with whole no-op filler batches (an idle instance's filler).
fn workload(shape: Shape, seed: u64, rounds: u64, m: u32) -> Vec<(Round, Vec<(BatchId, Batch)>)> {
    let mut rng = SplitMix64::new(seed);
    let mut sequence = 0u64;
    (0..rounds)
        .map(|round| {
            let batches = (0..m)
                .map(|instance| {
                    let id = BatchId {
                        instance: InstanceId(instance),
                        round,
                    };
                    if rng.next_below(8) == 0 {
                        return (id, Batch::noop(InstanceId(instance), round));
                    }
                    let requests = (0..4 + rng.next_below(9))
                        .map(|_| {
                            sequence += 1;
                            ClientRequest::new(
                                ClientId(rng.next_below(6)),
                                sequence,
                                Transaction::new(random_kind(&mut rng, shape)),
                            )
                        })
                        .collect();
                    (id, Batch::new(requests))
                })
                .collect();
            (round, batches)
        })
        .collect()
}

fn fresh_engine() -> ExecutionEngine {
    // Only half the key space pre-exists, so writes regularly create records
    // (version 0 vs version bumps) and scans observe those creations; the
    // bank side starts empty, so deposits create entries mid-run.
    ExecutionEngine::with_ycsb_table(ReplicaId(0), TABLE_KEYS / 2, 8)
}

fn assert_equivalent(shape: Shape, seed: u64, workers: usize) {
    let pool = WorkerPool::new(workers);
    let mut sequential = fresh_engine();
    let mut parallel = fresh_engine();
    for (round, ordered) in workload(shape, seed, 6, 3) {
        let expected = sequential.execute_round(round, &ordered);
        // Borrowed batches, as the node passes them.
        let borrowed: Vec<(BatchId, &Batch)> = ordered.iter().map(|(id, b)| (*id, b)).collect();
        let actual = parallel.execute_round_parallel(round, &borrowed, &pool);
        assert_eq!(
            expected, actual,
            "replies diverged ({shape:?}, seed {seed}, workers {workers}, round {round})"
        );
    }
    assert_eq!(
        sequential.table().fingerprint(),
        parallel.table().fingerprint(),
        "table fingerprint diverged ({shape:?}, seed {seed}, workers {workers})"
    );
    assert_eq!(
        sequential.accounts().fingerprint(),
        parallel.accounts().fingerprint(),
        "account fingerprint diverged ({shape:?}, seed {seed}, workers {workers})"
    );
    assert_eq!(
        sequential.state_fingerprint(),
        parallel.state_fingerprint(),
        "combined state fingerprint diverged ({shape:?}, seed {seed}, workers {workers})"
    );
    assert_eq!(
        (
            sequential.table().read_count(),
            sequential.table().write_count()
        ),
        (
            parallel.table().read_count(),
            parallel.table().write_count()
        ),
        "access counters diverged ({shape:?}, seed {seed}, workers {workers})"
    );
    assert_eq!(
        sequential.summary(),
        parallel.summary(),
        "summary diverged ({shape:?}, seed {seed}, workers {workers})"
    );
    assert_eq!(
        sequential.ledger().head_digest(),
        parallel.ledger().head_digest(),
        "ledger head diverged ({shape:?}, seed {seed}, workers {workers})"
    );
    assert_eq!(sequential.ledger().height(), parallel.ledger().height());
    for height in 0..sequential.ledger().height() {
        assert_eq!(
            sequential.ledger().block(height),
            parallel.ledger().block(height),
            "ledger block {height} diverged ({shape:?}, seed {seed}, workers {workers})"
        );
    }
    // Checkpoints are derived from ledger head + fingerprints; pin them too.
    assert_eq!(sequential.checkpoint(5), parallel.checkpoint(5));
}

#[test]
fn parallel_execution_is_bit_identical_across_seeds_and_worker_counts() {
    // ≥16 seeds × worker counts {1, 2, 4, 8}, on every shape.
    for shape in SHAPES {
        for seed in 0..16u64 {
            for workers in [1usize, 2, 4, 8] {
                assert_equivalent(shape, 0x9e37_79b9_0000_0000 ^ seed, workers);
            }
        }
    }
}

#[test]
fn worker_counts_agree_with_each_other_not_just_with_sequential() {
    // Transitivity sanity check on one seed per shape: run all worker
    // counts over the same workload and compare their states pairwise.
    let seed = 0xdead_beef_u64;
    for shape in SHAPES {
        let mut fingerprints = Vec::new();
        for workers in [1usize, 2, 4, 8] {
            let pool = WorkerPool::new(workers);
            let mut engine = fresh_engine();
            for (round, ordered) in workload(shape, seed, 6, 3) {
                engine.execute_round_parallel(round, &ordered, &pool);
            }
            fingerprints.push((
                engine.state_fingerprint(),
                engine.ledger().head_digest(),
                engine.summary(),
            ));
        }
        for pair in fingerprints.windows(2) {
            assert_eq!(pair[0], pair[1], "{shape:?}");
        }
    }
}

#[test]
fn empty_and_all_noop_rounds_are_equivalent_too() {
    let noops: Vec<(BatchId, Batch)> = (0..3u32)
        .map(|i| {
            (
                BatchId {
                    instance: InstanceId(i),
                    round: 0,
                },
                Batch::noop(InstanceId(i), 0),
            )
        })
        .collect();
    for ordered in [Vec::new(), noops] {
        for workers in [1usize, 2, 4, 8] {
            let pool = WorkerPool::new(workers);
            let mut sequential = fresh_engine();
            let mut parallel = fresh_engine();
            let expected = sequential.execute_round(0, &ordered);
            let actual = parallel.execute_round_parallel(0, &ordered, &pool);
            assert_eq!(expected, actual);
            assert!(actual.is_empty());
            assert_eq!(sequential.summary(), parallel.summary());
            assert_eq!(sequential.state_fingerprint(), parallel.state_fingerprint());
            assert_eq!(
                sequential.ledger().head_digest(),
                parallel.ledger().head_digest(),
                "even an empty round appends an identical block"
            );
        }
    }
}
