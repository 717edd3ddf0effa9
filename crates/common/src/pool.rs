//! A fixed-size worker pool over std threads and bounded channels.
//!
//! The node's batch-verification stage (`rcc_crypto::pipeline`) shares
//! signature bursts with this pool; nothing else in a node runs on it. The
//! pool is deliberately tiny — plain `std::thread` workers pulling boxed jobs
//! from one bounded `sync_channel` — because the workspace vendors no async
//! runtime and the pipeline's determinism argument is easiest to audit when
//! scheduling is this simple.
//!
//! Hand-off is per *worker*, never per *item*: [`WorkerPool::run_ordered`]
//! puts the whole job list behind one shared cursor, wakes at most one
//! runner per other worker it can use, and then runs jobs itself. The
//! submitting thread is always one of the workers, so a pool `n` wide spawns
//! `n − 1` threads: a pool of one is no thread at all, and a list of one job
//! never leaves the submitting thread either. A list of hundreds costs one
//! boxed message per worker instead of one per job.
//!
//! Determinism: every result travels with its submission index and is
//! reassembled in that order, so callers observe submission order regardless
//! of which thread ran which job or finished first.

// Deployment path: bytes from a peer must not be able to panic it (docs/LINTS.md).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable, clippy::todo))]
#![cfg_attr(not(test), deny(clippy::unimplemented, clippy::disallowed_macros))]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// How many jobs may queue per worker before submission back-pressures.
const QUEUE_PER_WORKER: usize = 4;

/// A fixed pool of worker threads executing boxed jobs from a bounded queue.
pub struct WorkerPool {
    injector: Option<SyncSender<Job>>,
    /// The workers beside the submitting thread: one fewer than the width.
    threads: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// A pool `workers` wide (clamped to at least one — a zero-width
    /// pipeline is a configuration error, not a mode). The submitting thread
    /// is one of the workers, so this spawns `workers − 1` threads.
    pub fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        let (injector, source) = sync_channel::<Job>(workers * QUEUE_PER_WORKER);
        let source = Arc::new(Mutex::new(source));
        #[expect(
            clippy::expect_used,
            reason = "pool construction happens at node boot; an OS that cannot spawn a thread \
                      leaves no degraded mode to fall back to"
        )]
        let threads = (1..workers)
            .map(|i| {
                let source: Arc<Mutex<Receiver<Job>>> = Arc::clone(&source);
                std::thread::Builder::new()
                    .name(format!("rcc-worker-{i}"))
                    .spawn(move || loop {
                        // Take the lock only to *pull*; run the job unlocked
                        // so the other workers keep draining the queue.
                        let job = match source.lock() {
                            Ok(receiver) => receiver.recv(),
                            Err(_) => return,
                        };
                        match job {
                            Ok(job) => job(),
                            Err(_) => return, // pool dropped: drain and exit
                        }
                    })
                    .expect("spawn worker thread")
            })
            .collect();
        WorkerPool {
            injector: Some(injector),
            threads,
        }
    }

    /// The pool's width: its threads plus the submitting thread.
    pub fn workers(&self) -> usize {
        self.threads.len() + 1
    }

    /// Runs every job and returns the results **in submission order**,
    /// blocking until all jobs finished. Up to [`WorkerPool::workers`]
    /// threads run jobs concurrently, the calling thread among them: it
    /// enqueues at most `min(workers, jobs) − 1` runners (one boxed message
    /// each, whatever the number of jobs), then claims jobs from the same
    /// cursor as they do. A panic inside a job re-raises on the caller.
    #[expect(
        clippy::expect_used,
        reason = "each `expect` below states an invariant of a live pool; the one that can \
                  fail on purpose re-raises a job's panic on the submitting thread"
    )]
    pub fn run_ordered<T, F>(&self, jobs: Vec<F>) -> Vec<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let total = jobs.len();
        let helpers = self.workers().min(total).saturating_sub(1);
        if helpers == 0 {
            // Nobody to share with: no cursor, no channel, no hand-off.
            return jobs.into_iter().map(|job| job()).collect();
        }
        let claims = Arc::new(Claims {
            next: AtomicUsize::new(0),
            jobs: jobs.into_iter().map(|job| Mutex::new(Some(job))).collect(),
        });
        // Each runner enqueued below sends at most one message, so `send`
        // never blocks.
        let (results_tx, results_rx) = sync_channel::<Vec<(usize, T)>>(helpers);
        // The injector `Option` exists solely so `Drop` can hang up the
        // channel; a live pool always holds it.
        let injector = self.injector.as_ref().expect("pool is live");
        for _ in 0..helpers {
            let claims = Arc::clone(&claims);
            let results_tx = results_tx.clone();
            injector
                .send(Box::new(move || {
                    let done = claims.run();
                    // A runner that woke after the cursor ran out has nothing
                    // to say, and nobody waits for it. A disconnected channel
                    // means the caller already panicked; dropping the results
                    // is the right response.
                    if !done.is_empty() {
                        let _ = results_tx.send(done);
                    }
                }))
                // Workers only exit after the injector is dropped; a send
                // failing on a live pool means a worker thread died, which
                // propagates that panic.
                .expect("worker pool hung up");
        }
        drop(results_tx);
        let mut slots: Vec<Option<T>> = (0..total).map(|_| None).collect();
        let mut missing = total;
        let mut done = claims.run();
        loop {
            missing -= done.len();
            for (index, value) in done {
                slots[index] = Some(value);
            }
            if missing == 0 {
                break;
            }
            // Results are missing and every runner has hung up, so one of
            // them panicked mid-job and dropped its results; re-raising the
            // panic on the submitting thread is deliberate (silently
            // returning fewer results would corrupt the ordered pipeline
            // downstream).
            done = results_rx.recv().expect("a worker panicked mid-job");
        }
        slots
            .into_iter()
            // Every index below `total` is claimed exactly once and the loop
            // above counted `total` results in, so each slot is filled by
            // construction.
            .map(|slot| slot.expect("every index reported"))
            .collect()
    }
}

/// One `run_ordered` call's jobs behind a shared cursor. Each runner — the
/// submitting thread and the pool workers it woke — claims the next index
/// until none is left, so an uneven job list balances itself.
struct Claims<F> {
    next: AtomicUsize,
    jobs: Vec<Mutex<Option<F>>>,
}

impl<F> Claims<F> {
    /// Runs jobs until the cursor runs out; `(submission index, result)` of
    /// each job this thread ran.
    fn run<T>(&self) -> Vec<(usize, T)>
    where
        F: FnOnce() -> T,
    {
        let mut done = Vec::new();
        loop {
            // Relaxed: the cursor only hands out indices. The jobs were
            // published by the hand-off that shared `self`, and each is
            // taken under its own lock.
            let index = self.next.fetch_add(1, Ordering::Relaxed);
            let Some(slot) = self.jobs.get(index) else {
                return done;
            };
            // A slot lock is held only for this `take`, which cannot panic,
            // so it is never poisoned; recover the guard rather than unwind.
            let job = match slot.lock() {
                Ok(mut job) => job.take(),
                Err(poisoned) => poisoned.into_inner().take(),
            };
            if let Some(job) = job {
                done.push((index, job()));
            }
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Closing the injector ends every worker's recv loop.
        self.injector.take();
        for worker in self.threads.drain(..) {
            let _ = worker.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_submission_order() {
        let pool = WorkerPool::new(4);
        let jobs: Vec<_> = (0..64u64)
            .map(|i| {
                move || {
                    // Stagger finishing times so out-of-order completion is
                    // actually exercised.
                    if i % 3 == 0 {
                        std::thread::sleep(std::time::Duration::from_micros(200));
                    }
                    i * i
                }
            })
            .collect();
        let results = pool.run_ordered(jobs);
        let expected: Vec<u64> = (0..64).map(|i| i * i).collect();
        assert_eq!(results, expected);
    }

    #[test]
    fn zero_width_pools_clamp_to_one_worker() {
        let pool = WorkerPool::new(0);
        assert_eq!(pool.workers(), 1);
        assert_eq!(pool.run_ordered(vec![|| 7]), vec![7]);
    }

    #[test]
    fn zero_jobs_return_no_results() {
        let pool = WorkerPool::new(4);
        let none: Vec<fn() -> u8> = Vec::new();
        assert_eq!(pool.run_ordered(none), Vec::<u8>::new());
    }

    #[test]
    fn many_uneven_jobs_all_run_once_and_come_back_in_order() {
        // 50 jobs per worker, every seventh one slow: whichever thread is
        // stuck in a slow job, the others keep claiming from the cursor.
        let pool = WorkerPool::new(4);
        let ran = Arc::new(AtomicUsize::new(0));
        let jobs: Vec<_> = (0..200usize)
            .map(|i| {
                let ran = Arc::clone(&ran);
                move || {
                    if i % 7 == 0 {
                        std::thread::sleep(std::time::Duration::from_micros(300));
                    }
                    ran.fetch_add(1, Ordering::SeqCst);
                    i
                }
            })
            .collect();
        assert_eq!(pool.run_ordered(jobs), (0..200).collect::<Vec<_>>());
        assert_eq!(ran.load(Ordering::SeqCst), 200);
    }

    #[test]
    fn the_submitting_thread_runs_jobs_itself() {
        // Two jobs on a two-worker pool wake exactly one runner. Both jobs
        // meet at a barrier, so they run on two threads at once — and the
        // second thread can only be the submitter.
        let pool = WorkerPool::new(2);
        let barrier = Arc::new(std::sync::Barrier::new(2));
        let jobs: Vec<_> = (0..2)
            .map(|_| {
                let barrier = Arc::clone(&barrier);
                move || {
                    barrier.wait();
                    std::thread::current().id()
                }
            })
            .collect();
        let ran_on = pool.run_ordered(jobs);
        let me = std::thread::current().id();
        assert_eq!(ran_on.iter().filter(|&&id| id == me).count(), 1);

        // A single job, and any job list on a one-worker pool, never leaves
        // the submitting thread at all.
        assert_eq!(pool.run_ordered(vec![|| std::thread::current().id()]), [me]);
        let narrow = WorkerPool::new(1);
        let jobs: Vec<_> = (0..8).map(|_| || std::thread::current().id()).collect();
        assert!(narrow.run_ordered(jobs).iter().all(|&id| id == me));
    }

    /// Two jobs that meet at a barrier (so each runs on its own thread), of
    /// which the one on the submitting thread — or the other one — panics.
    fn panic_on(submitter: bool) {
        let pool = WorkerPool::new(2);
        let barrier = Arc::new(std::sync::Barrier::new(2));
        let me = std::thread::current().id();
        let jobs: Vec<_> = (0..2)
            .map(|_| {
                let barrier = Arc::clone(&barrier);
                move || {
                    barrier.wait();
                    if (std::thread::current().id() == me) == submitter {
                        panic!("job failed");
                    }
                }
            })
            .collect();
        let outcome =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| pool.run_ordered(jobs)));
        assert!(outcome.is_err(), "the panic must reach the submitter");
    }

    #[test]
    fn a_job_panicking_on_a_worker_re_raises_on_the_submitter() {
        panic_on(false);
    }

    #[test]
    fn a_job_panicking_on_the_submitter_unwinds_it() {
        panic_on(true);
    }

    #[test]
    fn a_pool_survives_many_batches() {
        let pool = WorkerPool::new(2);
        for round in 0..50u32 {
            let jobs: Vec<_> = (0..8u32).map(|i| move || round + i).collect();
            let results = pool.run_ordered(jobs);
            assert_eq!(results, (0..8).map(|i| round + i).collect::<Vec<_>>());
        }
    }
}
