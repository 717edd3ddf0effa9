//! `rcc-telemetry` — the deterministic metrics and flight-recorder layer of
//! the RCC reproduction.
//!
//! Every layer of the workspace measures itself through the same three
//! primitives, pre-registered in a [`Registry`] at setup time:
//!
//! * [`Counter`] — a monotonic count: one cache-line-padded atomic, so two
//!   counters never share a line. Its writers are few and mostly alone —
//!   the single-threaded simulator, a node's mailbox thread (about one
//!   increment per reply), the peer writers (one per socket write), the
//!   edge threads (only on rejects and drops) — so a cell is not sharded.
//! * [`Gauge`] — a level or high-water mark (queue depth, peak
//!   connections), the same padded atomic; [`Gauge::set_max`] is the
//!   fetch-max behind `transport.peak_clients`.
//! * [`Histogram`] — a fixed-bucket log-scale distribution (8 sub-buckets
//!   per power of two, ≤ ~6% relative bucket error) for stage timings and
//!   latencies. [`LocalHistogram`] is the same bucket layout without
//!   atomics, for single-threaded recorders like a driver session.
//!
//! The hot path — `inc`/`add`/`set`/`record` — performs **no allocation and
//! takes no lock**: handles are `Arc`s onto fixed-size atomic cells created
//! at registration. Locking happens only at registration and scrape, both
//! off the measured paths. Handles only write: a value is read back through
//! a [`Snapshot`], the one view every report and renderer shares.
//!
//! Determinism: metric values are exact integer counts, so any
//! interleaving of the same multiset of operations scrapes the same
//! [`Snapshot`] — and under a fixed seed the single-threaded simulator
//! performs the identical operation sequence, making snapshots
//! bit-comparable across runs (`Snapshot: PartialEq`; the sim's
//! determinism test asserts it). Timestamps flow through the
//! [`TelemetryClock`] seam in [`clock`], the only place this crate touches
//! `std::time`. The attributes below deny clocks and hash collections in
//! every other file here, and panics in the whole crate outside tests.
//!
//! The [`FlightRecorder`] rides alongside the registry: a bounded ring of
//! structured failure-handling events (view changes, σ-lag detections,
//! checkpoints, hand-offs, admission rejects, reconnects) dumped when a
//! run diverges, trips a floor, or is asked with `--dump-events`. See
//! `docs/OBSERVABILITY.md` for the metric catalog and dump formats.

#![warn(missing_docs)]
// Deterministic layer: no hash collections, no clocks (docs/LINTS.md).
#![deny(clippy::disallowed_types)]
// Recording a metric must never crash the layer it measures.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable, clippy::todo))]
#![cfg_attr(not(test), deny(clippy::unimplemented, clippy::disallowed_macros))]

pub mod clock;
pub mod flight;
pub mod snapshot;

pub use clock::{TelemetryClock, VirtualClock, WallClock};
pub use flight::{dump_jsonl, dump_text, FlightEvent, FlightEventKind, FlightRecorder};
pub use snapshot::{HistogramSnapshot, Snapshot};

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Log-scale bucket layout: values `0..8` get exact buckets, then 8 linear
/// sub-buckets per power of two up to `u64::MAX` — 496 buckets, ≤ ~6%
/// relative error at the bucket upper bound.
const SUB_BUCKETS: u64 = 8;
/// Total bucket count of the fixed layout.
pub const HISTOGRAM_BUCKETS: usize = 496;

/// The bucket holding `value`.
fn bucket_index(value: u64) -> usize {
    if value < SUB_BUCKETS {
        return value as usize;
    }
    let top = 63 - value.leading_zeros() as u64;
    let sub = (value >> (top - 3)) & (SUB_BUCKETS - 1);
    ((top - 3) * SUB_BUCKETS + SUB_BUCKETS + sub) as usize
}

/// The inclusive upper bound of bucket `index`.
fn bucket_upper(index: usize) -> u64 {
    let index = index as u64;
    if index < SUB_BUCKETS {
        return index;
    }
    let i = index - SUB_BUCKETS;
    let top = i / SUB_BUCKETS + 3;
    let sub = i % SUB_BUCKETS;
    let lower = (SUB_BUCKETS + sub) << (top - 3);
    lower + ((1u64 << (top - 3)) - 1)
}

/// One atomic on a cache line of its own.
#[repr(align(64))]
#[derive(Default)]
struct PaddedAtomic(AtomicU64);

/// A monotonic counter handle. Cloning shares the cell.
#[derive(Clone)]
pub struct Counter {
    cell: Arc<PaddedAtomic>,
}

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.cell.0.fetch_add(n, Ordering::Relaxed);
    }
}

/// A gauge handle: a level ([`Gauge::set`]) or a high-water mark
/// ([`Gauge::set_max`]). Cloning shares the cell.
#[derive(Clone)]
pub struct Gauge {
    cell: Arc<PaddedAtomic>,
}

impl Gauge {
    /// Stores `value`.
    pub fn set(&self, value: u64) {
        self.cell.0.store(value, Ordering::Relaxed);
    }

    /// Raises the gauge to `value` if it is higher (high-water mark).
    pub fn set_max(&self, value: u64) {
        self.cell.0.fetch_max(value, Ordering::Relaxed);
    }
}

struct HistogramCell {
    buckets: Vec<AtomicU64>,
    sum: AtomicU64,
}

impl HistogramCell {
    fn new() -> HistogramCell {
        let mut buckets = Vec::with_capacity(HISTOGRAM_BUCKETS);
        for _ in 0..HISTOGRAM_BUCKETS {
            buckets.push(AtomicU64::new(0));
        }
        HistogramCell {
            buckets,
            sum: AtomicU64::new(0),
        }
    }

    fn record(&self, value: u64) {
        if let Some(bucket) = self.buckets.get(bucket_index(value)) {
            bucket.fetch_add(1, Ordering::Relaxed);
        }
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    fn snapshot(&self) -> HistogramSnapshot {
        let mut pairs = Vec::new();
        let mut count = 0u64;
        for (index, bucket) in self.buckets.iter().enumerate() {
            let samples = bucket.load(Ordering::Relaxed);
            if samples > 0 {
                count = count.saturating_add(samples);
                pairs.push((bucket_upper(index), samples));
            }
        }
        HistogramSnapshot {
            count,
            sum: self.sum.load(Ordering::Relaxed),
            buckets: pairs,
        }
    }
}

/// A histogram handle over the fixed log-scale bucket layout. Cloning
/// shares the cell.
#[derive(Clone)]
pub struct Histogram {
    cell: Arc<HistogramCell>,
}

impl Histogram {
    /// Records one sample.
    pub fn record(&self, value: u64) {
        self.cell.record(value);
    }

    /// The histogram's frozen state.
    pub fn snapshot(&self) -> HistogramSnapshot {
        self.cell.snapshot()
    }
}

/// The same bucket layout as [`Histogram`] without atomics: for recorders
/// owned by a single thread (a driver session, a sim component) where even
/// relaxed atomics are overhead.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LocalHistogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
}

impl Default for LocalHistogram {
    fn default() -> LocalHistogram {
        LocalHistogram::new()
    }
}

impl LocalHistogram {
    /// An empty histogram.
    pub fn new() -> LocalHistogram {
        LocalHistogram {
            buckets: vec![0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        if let Some(bucket) = self.buckets.get_mut(bucket_index(value)) {
            *bucket += 1;
        }
        self.count = self.count.saturating_add(1);
        self.sum = self.sum.saturating_add(value);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The value at quantile `p` (bucket upper bound; 0 when empty).
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((p.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (index, &samples) in self.buckets.iter().enumerate() {
            seen = seen.saturating_add(samples);
            if samples > 0 && seen >= rank {
                return bucket_upper(index);
            }
        }
        bucket_upper(HISTOGRAM_BUCKETS - 1)
    }

    /// Folds `other` in (bucket-wise add).
    pub fn merge(&mut self, other: &LocalHistogram) {
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *mine = mine.saturating_add(*theirs);
        }
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
    }

    /// The histogram's frozen state.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut pairs = Vec::new();
        for (index, &samples) in self.buckets.iter().enumerate() {
            if samples > 0 {
                pairs.push((bucket_upper(index), samples));
            }
        }
        HistogramSnapshot {
            count: self.count,
            sum: self.sum,
            buckets: pairs,
        }
    }
}

#[derive(Clone)]
enum Metric {
    Counter(Arc<PaddedAtomic>),
    Gauge(Arc<PaddedAtomic>),
    Histogram(Arc<HistogramCell>),
}

/// A registry of named metrics. Cloning shares the underlying map, so one
/// registry can be handed to every component of a node (or one per replica
/// to a whole cluster, merged at scrape with [`Snapshot::merged`]).
///
/// Handles are meant to be resolved once at setup; `counter`/`gauge`/
/// `histogram` take the registration lock, the handles they return never
/// do. Asking for an existing name returns a handle onto the same cell;
/// asking with a *different kind* than the name was registered with
/// returns a detached cell (recorded values go nowhere) rather than
/// panicking — the deployment path must not crash over a telemetry name
/// collision.
#[derive(Clone, Default)]
pub struct Registry {
    metrics: Arc<Mutex<BTreeMap<String, Metric>>>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry")
            .field("metrics", &lock_unpoisoned(&self.metrics).len())
            .finish()
    }
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// The counter registered as `name` (registering it on first use).
    pub fn counter(&self, name: &str) -> Counter {
        let mut metrics = lock_unpoisoned(&self.metrics);
        let metric = metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Arc::default()));
        match metric {
            Metric::Counter(cell) => Counter { cell: cell.clone() },
            _ => Counter {
                cell: Arc::default(),
            },
        }
    }

    /// The gauge registered as `name` (registering it on first use).
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut metrics = lock_unpoisoned(&self.metrics);
        let metric = metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::Gauge(Arc::default()));
        match metric {
            Metric::Gauge(cell) => Gauge { cell: cell.clone() },
            _ => Gauge {
                cell: Arc::default(),
            },
        }
    }

    /// The histogram registered as `name` (registering it on first use).
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut metrics = lock_unpoisoned(&self.metrics);
        let metric = metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(Arc::new(HistogramCell::new())));
        match metric {
            Metric::Histogram(cell) => Histogram { cell: cell.clone() },
            _ => Histogram {
                cell: Arc::new(HistogramCell::new()),
            },
        }
    }

    /// Scrapes every metric into a name-sorted [`Snapshot`].
    pub fn snapshot(&self) -> Snapshot {
        let metrics = lock_unpoisoned(&self.metrics);
        let mut snapshot = Snapshot::default();
        for (name, metric) in metrics.iter() {
            match metric {
                Metric::Counter(cell) => snapshot
                    .counters
                    .push((name.clone(), cell.0.load(Ordering::Relaxed))),
                Metric::Gauge(cell) => snapshot
                    .gauges
                    .push((name.clone(), cell.0.load(Ordering::Relaxed))),
                Metric::Histogram(cell) => {
                    snapshot.histograms.push((name.clone(), cell.snapshot()))
                }
            }
        }
        snapshot
    }
}

/// Locks `mutex`, recovering the guard when a previous holder panicked.
/// The registry map's updates are single inserts — no multi-step invariant
/// a mid-update panic could tear — and telemetry must stay scrapeable on
/// the panic path (that is when the flight recorder is dumped).
fn lock_unpoisoned<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_layout_is_exact_then_log_scale() {
        for value in 0..8u64 {
            assert_eq!(bucket_index(value), value as usize);
            assert_eq!(bucket_upper(value as usize), value);
        }
        // Every bucket's upper bound maps back to the same bucket, and
        // upper bounds are strictly increasing.
        let mut previous = 0u64;
        for index in 0..HISTOGRAM_BUCKETS {
            let upper = bucket_upper(index);
            assert_eq!(bucket_index(upper), index, "round-trip of bucket {index}");
            if index > 0 {
                assert!(upper > previous, "bucket {index} upper not increasing");
            }
            previous = upper;
        }
        assert_eq!(bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
        // Relative bucket width stays within ~12.5% of the lower bound
        // (8 sub-buckets per power of two).
        let idx = bucket_index(1_000_000);
        let upper = bucket_upper(idx);
        let lower = if idx == 0 {
            0
        } else {
            bucket_upper(idx - 1) + 1
        };
        assert!((upper - lower) as f64 / lower as f64 <= 0.125 + 1e-9);
    }

    #[test]
    fn counters_sum_across_threads() {
        let registry = Registry::new();
        let counter = registry.counter("ops");
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let counter = counter.clone();
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        counter.inc();
                    }
                })
            })
            .collect();
        for thread in threads {
            thread.join().expect("counter thread");
        }
        assert_eq!(registry.snapshot().counter("ops"), Some(4000));
    }

    #[test]
    fn gauges_track_levels_and_high_water_marks() {
        let registry = Registry::new();
        let gauge = registry.gauge("depth");
        gauge.set(5);
        gauge.set_max(3);
        assert_eq!(registry.snapshot().gauge("depth"), Some(5), "never lowers");
        gauge.set_max(9);
        assert_eq!(registry.snapshot().gauge("depth"), Some(9));
    }

    #[test]
    fn histograms_and_local_histograms_agree() {
        let registry = Registry::new();
        let shared = registry.histogram("lat");
        let mut local = LocalHistogram::new();
        for value in [1u64, 7, 100, 100, 5_000, 1_000_000] {
            shared.record(value);
            local.record(value);
        }
        assert_eq!(shared.snapshot(), local.snapshot());
        assert_eq!(local.percentile(0.5), bucket_upper(bucket_index(100)));
    }

    #[test]
    fn same_operations_scrape_identical_snapshots() {
        let run = || {
            let registry = Registry::new();
            let committed = registry.counter("sim.committed");
            let peak = registry.gauge("sim.peak");
            let latency = registry.histogram("sim.latency_us");
            for i in 0..100u64 {
                committed.add(i % 7);
                peak.set_max(i);
                latency.record(i * 31);
            }
            registry.snapshot()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn kind_collisions_return_detached_handles_not_panics() {
        let registry = Registry::new();
        let counter = registry.counter("name");
        counter.inc();
        // Same name, wrong kind: a detached cell, original unharmed.
        let gauge = registry.gauge("name");
        gauge.set(99);
        let snapshot = registry.snapshot();
        assert_eq!(snapshot.counter("name"), Some(1));
        assert_eq!(snapshot.gauge("name"), None);
    }

    #[test]
    fn registered_names_scrape_sorted() {
        let registry = Registry::new();
        registry.counter("zeta");
        registry.counter("alpha");
        registry.counter("mid");
        let snapshot = registry.snapshot();
        let names: Vec<&str> = snapshot.counters.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["alpha", "mid", "zeta"]);
    }
}
