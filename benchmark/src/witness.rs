//! The host-supply witness: how much processor the host actually delivered
//! while a run measured.
//!
//! This sandbox is a guest on an oversubscribed host. Its two virtual
//! processors are descheduled for milliseconds at a time and the guest is
//! never told (`steal` in `/proc/stat` stays at zero): a two-thread
//! register-only loop sampled every 100 ms for five minutes delivered
//! anywhere from 35 % to 100 % of its quiet-host rate, 70 % at the median,
//! with stretches of tens of seconds near either end. A processor-bound
//! cluster inherits every one of those swings — `inproc` confirmed 50.5 k
//! txn/s as the median of ten runs and 37.0 k as the median of the next ten,
//! same binary, five minutes apart — so a capacity figure taken on the wall
//! clock alone says as much about the neighbours as about the code.
//!
//! The witness runs beside the measurement: [`THREADS`] threads that each
//! wake every [`PERIOD`], run a fixed chunk of [`host::spin`] (no memory, no
//! repository code) and go back to sleep — 4 % of one processor each. A
//! chunk is charged in the thread's *own processor time* as the guest
//! accounts it (`/proc/thread-self/schedstat`), not in wall time: being
//! preempted by a cluster thread does not count, being descheduled by the
//! host does, because the guest cannot tell that from running. Work done ÷
//! processor time charged is the speed a thread of this guest really ran
//! at, in Mop/s.
//!
//! How the cluster's rate follows that reading was measured, not assumed.
//! Over six sweeps of 12 to 16 runs with 12 s windows (all three closed-loop
//! workloads, readings from 325 to 415 Mop/s) the logarithm of the raw rate
//! regressed on the logarithm of the reading with slope 1.55, 1.65, 1.71,
//! 1.84 and once 2.3, correlation 0.83 to 0.98; over two ten-seed sweeps
//! with 24 s windows taken 35 minutes apart and pooled (readings from 338
//! to 405, raw `steady` medians of 44.3 k and 33.9 k txn/s) with slope 2.32
//! (`steady`), 2.16 (`hotkeys`) and 1.92 (`inproc`), correlation 0.88 to
//! 0.97. More than 1, because a round needs threads on *both* processors to
//! make progress: when the host takes either one away the other soon waits,
//! and if it takes each away independently both are there for the square of
//! the share. [`COUPLING`] is therefore 2. Scaling each run of the pooled
//! sweeps by (quiet ÷ reading)² shrank the interquartile spread of the rate
//! from 29.5 to 5.8 % (`steady`), 8.2 to 5.6 % (`hotkeys`) and 22.1 to
//! 6.3 % (`inproc`). A pointer-chasing witness over 32 MB was tried beside
//! this one and explained nothing more (correlation 0.65, −0.04, 0.59).

use crate::host;
use std::fs::File;
use std::os::unix::fs::FileExt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Witness threads: one per processor of the sandbox.
const THREADS: usize = 2;
/// Iterations of [`host::spin`] per chunk: about 1 ms on a quiet host.
const CHUNK_OPS: u64 = 400_000;
/// Sleep between chunks.
const PERIOD: Duration = Duration::from_millis(25);

/// What the witness reads on this sandbox's processor when the host is
/// quiet, in millions of iterations per second. Scaled metrics are quoted at
/// this speed, so on a quiet host they equal the raw ones.
pub const QUIET_MOPS: f64 = 420.0;
/// Below this reading the host is not slowing the guest down but starving
/// it, and the power law no longer holds: in one such minute the witness
/// read 270 and 282 Mop/s while `inproc` confirmed 14.8 k and 18.2 k txn/s,
/// a third of its usual rate where the law predicts half. The lowest
/// reading of any run the law did fit was 326, and `light`, which is not
/// scaled at all, answered in 25 ms instead of 9 at a reading of 250. A run
/// that read less is measured again, once (`main.rs`).
pub const STARVED_MOPS: f64 = 300.0;
/// The power of the witness's reading that a closed loop's rate follows
/// (see the module text).
pub const COUPLING: f64 = 2.0;

/// One chunk: when it ended and what it was charged.
#[derive(Clone, Copy, Debug)]
struct Sample {
    ended: Instant,
    cpu_ns: u64,
}

/// Nanoseconds the calling thread has spent on a processor, as the guest
/// accounts them. The figure is brought up to date when the thread is
/// switched out, so it is exact when read first thing after a sleep.
fn thread_cpu_ns(schedstat: &File) -> Option<u64> {
    let mut text = [0u8; 64];
    let read = schedstat.read_at(&mut text, 0).ok()?;
    std::str::from_utf8(&text[..read])
        .ok()?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

fn sample_until(stop: &AtomicBool) -> Vec<Sample> {
    let Ok(schedstat) = File::open("/proc/thread-self/schedstat") else {
        return Vec::new();
    };
    let mut samples = Vec::new();
    let mut charged_before = None;
    while !stop.load(Ordering::Relaxed) {
        // Read right after waking: the charge then covers exactly one chunk
        // and one trip through the sleep.
        let charged = thread_cpu_ns(&schedstat);
        if let (Some(before), Some(now)) = (charged_before, charged) {
            samples.push(Sample {
                ended: Instant::now(),
                cpu_ns: now.saturating_sub(before),
            });
        }
        charged_before = charged;
        host::spin(CHUNK_OPS);
        std::thread::sleep(PERIOD);
    }
    samples
}

/// A running witness.
pub struct Witness {
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<Vec<Sample>>>,
}

impl Witness {
    /// Starts the witness threads.
    pub fn start() -> Witness {
        let stop = Arc::new(AtomicBool::new(false));
        let threads = (0..THREADS)
            .map(|_| {
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || sample_until(&stop))
            })
            .collect();
        Witness { stop, threads }
    }

    /// Stops the threads and hands back what they saw.
    pub fn stop(self) -> Supply {
        self.stop.store(true, Ordering::Relaxed);
        let mut samples: Vec<Sample> = self
            .threads
            .into_iter()
            .flat_map(|thread| thread.join().unwrap_or_default())
            .collect();
        samples.sort_by_key(|s| s.ended);
        Supply { samples }
    }
}

/// What the host delivered over the life of a [`Witness`].
#[derive(Default)]
pub struct Supply {
    samples: Vec<Sample>,
}

impl Supply {
    /// Millions of witness iterations per second of processor time charged,
    /// over the chunks that ended in `[from, to)`. `None` when there were
    /// fewer than four — too few to scale anything by.
    pub fn mops_between(&self, from: Instant, to: Instant) -> Option<f64> {
        let first = self.samples.partition_point(|s| s.ended < from);
        let last = self.samples.partition_point(|s| s.ended < to);
        let chunks = &self.samples[first..last];
        let cpu_ns: u64 = chunks.iter().map(|s| s.cpu_ns).sum();
        (chunks.len() >= 4 && cpu_ns > 0)
            .then(|| (chunks.len() as u64 * CHUNK_OPS) as f64 * 1e3 / cpu_ns as f64)
    }

    /// What the duration of sequential work done in `[from, to)` is divided
    /// by to quote it at the quiet-host speed: quiet ÷ reading. `1.0` when
    /// the witness saw nothing.
    pub fn to_quiet(&self, from: Instant, to: Instant) -> f64 {
        self.mops_between(from, to)
            .map_or(1.0, |mops| QUIET_MOPS / mops)
    }

    /// What a closed loop's rate measured in `[from, to)` is multiplied by
    /// (and its latency divided by) to quote it at the quiet-host speed.
    pub fn capacity_to_quiet(&self, from: Instant, to: Instant) -> f64 {
        self.to_quiet(from, to).powf(COUPLING)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn supply(charges_ns: &[u64], epoch: Instant) -> Supply {
        let samples = charges_ns
            .iter()
            .enumerate()
            .map(|(i, &cpu_ns)| Sample {
                ended: epoch + Duration::from_millis(10 * i as u64),
                cpu_ns,
            })
            .collect();
        Supply { samples }
    }

    #[test]
    fn supply_is_work_over_processor_time_charged_in_the_interval() {
        let epoch = Instant::now();
        let at = |ms: u64| epoch + Duration::from_millis(ms);
        // Four chunks charged 1 ms each, then four charged 2 ms each: the
        // host delivered half the speed in the second 40 ms.
        let s = supply(
            &[
                1_000_000, 1_000_000, 1_000_000, 1_000_000, 2_000_000, 2_000_000, 2_000_000,
                2_000_000,
            ],
            epoch,
        );
        assert_eq!(s.mops_between(at(0), at(40)), Some(400.0));
        assert_eq!(s.mops_between(at(40), at(80)), Some(200.0));
        // The whole span weighs processor time, not chunks.
        let whole = s.mops_between(at(0), at(80)).unwrap();
        assert!((whole - 8.0 * 400_000.0 * 1e3 / 12e6).abs() < 1e-9);
        // Work done while the host delivered 200 would have taken less time
        // at the quiet speed, and a closed loop would have confirmed more
        // than in proportion.
        let linear = QUIET_MOPS / 200.0;
        assert!((s.to_quiet(at(40), at(80)) - linear).abs() < 1e-12);
        assert!((s.capacity_to_quiet(at(40), at(80)) - linear.powf(COUPLING)).abs() < 1e-12);
        // Too few chunks: nothing to scale by.
        assert_eq!(s.mops_between(at(0), at(30)), None);
        assert_eq!(s.capacity_to_quiet(at(0), at(30)), 1.0);
    }

    #[test]
    fn a_live_witness_reads_a_plausible_speed() {
        let witness = Witness::start();
        let started = Instant::now();
        std::thread::sleep(Duration::from_millis(400));
        let supply = witness.stop();
        let mops = supply
            .mops_between(started, Instant::now())
            .expect("a dozen chunks in 400 ms");
        assert!((20.0..5_000.0).contains(&mops), "{mops}");
    }
}
