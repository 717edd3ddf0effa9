//! Work-test probe: is a round that `execute_round_parallel` sends to the
//! pool really faster there than in place?
//!
//! Times 400-transaction rounds (4 batches × 100) of point writes and scans
//! over the paper's 500 000-key table, once through `execute_round` and once
//! through `execute_round_parallel`, best of five passes of 300 rounds each.
//! Rounds that fail the engine's work test run in place on both sides (ratio
//! ≈ 1.00); every round that passes it should show a ratio below 1.00. The
//! figures behind `SCAN_RECORDS_PER_ACCESS` in `rcc-execution` come from
//! this loop. Wall-clock, so not deterministic; give it an idle machine.
//!
//! Run with: `cargo run --release --example work_test_probe [workers]`

use rcc::common::pool::WorkerPool;
use rcc::common::rng::SplitMix64;
use rcc::common::{
    Batch, BatchId, ClientId, ClientRequest, InstanceId, ReplicaId, Transaction, TransactionKind,
};
use rcc::execution::ExecutionEngine;
use std::time::Instant;

const KEYS: u64 = 500_000;
const ROUNDS: u64 = 300;

/// Four batches of 100 requests: `scans` scans of `count` records each at
/// random starts, the rest writes to random keys.
fn round(rng: &mut SplitMix64, round: u64, scans: u64, count: u32) -> Vec<(BatchId, Batch)> {
    (0..4u32)
        .map(|instance| {
            let requests = (0..100u64)
                .map(|i| {
                    let kind = if i < scans {
                        let start = rng.next_below(KEYS - u64::from(count));
                        TransactionKind::YcsbScan { start, count }
                    } else {
                        let key = rng.next_below(KEYS);
                        let value = vec![i as u8; 16];
                        TransactionKind::YcsbWrite { key, value }
                    };
                    ClientRequest::new(
                        ClientId(u64::from(instance)),
                        round * 100 + i,
                        Transaction::new(kind),
                    )
                })
                .collect();
            let id = BatchId {
                instance: InstanceId(instance),
                round,
            };
            (id, Batch::new(requests))
        })
        .collect()
}

/// Microseconds per round of one pass over [`ROUNDS`] fresh rounds.
fn pass(scans: u64, count: u32, pool: Option<&WorkerPool>) -> f64 {
    let mut rng = SplitMix64::new(42);
    let mut engine = ExecutionEngine::with_ycsb_table(ReplicaId(0), KEYS, 16);
    let rounds: Vec<_> = (0..ROUNDS)
        .map(|r| round(&mut rng, r, scans, count))
        .collect();
    let started = Instant::now();
    for (r, ordered) in rounds.iter().enumerate() {
        let replies = match pool {
            None => engine.execute_round(r as u64, ordered),
            Some(pool) => engine.execute_round_parallel(r as u64, ordered, pool),
        };
        std::hint::black_box(replies);
    }
    started.elapsed().as_secs_f64() * 1e6 / ROUNDS as f64
}

fn main() {
    let workers = std::env::args()
        .nth(1)
        .and_then(|arg| arg.parse().ok())
        .unwrap_or(2);
    let pool = WorkerPool::new(workers);
    println!("{workers} workers; scans per batch × records per scan");
    println!("scans  count | in place µs | parallel µs | ratio");
    let shapes = [
        (0, 0),
        (10, 100),
        (10, 4_000),
        (10, 10_000),
        (50, 100),
        (50, 800),
        (50, 1_600),
        (100, 100),
        (100, 400),
        (100, 600),
        (100, 1_000),
    ];
    for (scans, count) in shapes {
        // Alternate the two sides so a slow minute of the host hits both.
        let (mut in_place, mut parallel) = (f64::MAX, f64::MAX);
        for _ in 0..5 {
            in_place = in_place.min(pass(scans, count, None));
            parallel = parallel.min(pass(scans, count, Some(&pool)));
        }
        println!(
            "{scans:5} {count:6} | {in_place:11.1} | {parallel:11.1} | {:.2}",
            parallel / in_place
        );
    }
    println!("OK: probe finished (ratios are wall-clock; compare within one run)");
}
