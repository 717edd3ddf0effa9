//! A pool never spawns a thread it cannot use: `run_ordered` always runs
//! jobs on the submitting thread too, so a pool `n` wide needs `n − 1`
//! threads of its own. This test counts the process's threads, so it lives
//! in a binary of its own where no other test's pool is alive.

#![cfg(target_os = "linux")]

use rcc_common::WorkerPool;
use std::time::{Duration, Instant};

const WORKER: &str = "rcc-worker-";

/// Threads of this process whose name starts with `prefix`.
fn threads(prefix: &str) -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("list /proc/self/task")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .filter(|name| name.starts_with(prefix))
        .count()
}

/// `probe()` once it reads `expected`, or its last reading after 5 s: a
/// spawned thread is listed at once but names itself only when it starts
/// running, and a joined one may be listed a moment longer.
fn settled(probe: impl Fn() -> usize, expected: usize) -> usize {
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut now = probe();
    while now != expected && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
        now = probe();
    }
    now
}

#[test]
fn a_pool_spawns_one_thread_fewer_than_its_width() {
    let before = threads("");
    assert_eq!(threads(WORKER), 0);
    let pool = WorkerPool::new(3);
    assert_eq!((pool.workers(), threads("")), (3, before + 2));
    assert_eq!(settled(|| threads(WORKER), 2), 2);
    drop(pool);
    assert_eq!(
        settled(|| threads(""), before),
        before,
        "dropping joins them"
    );
    // A thread is listed as soon as `spawn` returns, so these readings are
    // final: a pool of one is the submitting thread alone.
    let narrow = WorkerPool::new(1);
    assert_eq!(narrow.workers(), 1);
    assert_eq!((threads(""), threads(WORKER)), (before, 0));
}
