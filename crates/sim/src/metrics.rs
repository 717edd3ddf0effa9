//! The virtual-time throughput series of a simulation run.
//!
//! Every other quantity a run measures lives in its `rcc-telemetry`
//! registry (see [`crate::telemetry`]); the one thing a registry cannot
//! express is *when* in virtual time the commits happened. Figure 10 of the
//! paper plots exactly that — throughput over time across a failure — and
//! the recovery gates evaluate throughput over arbitrary windows, so the
//! simulator keeps this one bucketed series beside the registry.

use rcc_common::{Duration, Time};

/// Counts quorum-committed transactions into fixed-width buckets of virtual
/// time and reports throughput over any window of whole buckets.
#[derive(Clone, Debug)]
pub struct ThroughputMeter {
    bucket_width: Duration,
    buckets: Vec<u64>,
}

impl ThroughputMeter {
    /// Creates a meter that aggregates events into buckets of `bucket_width`.
    pub fn new(bucket_width: Duration) -> Self {
        ThroughputMeter {
            bucket_width,
            buckets: Vec::new(),
        }
    }

    fn bucket_of(&self, at: Time) -> usize {
        (at.as_nanos() / self.bucket_width.as_nanos().max(1)) as usize
    }

    /// Records `count` committed transactions at time `now`.
    pub fn record(&mut self, now: Time, count: u64) {
        if count == 0 {
            return;
        }
        let bucket = self.bucket_of(now);
        if bucket >= self.buckets.len() {
            self.buckets.resize(bucket + 1, 0);
        }
        self.buckets[bucket] += count;
    }

    /// Average throughput in transactions per second over the window between
    /// `start` and `end`.
    pub fn throughput_over(&self, start: Time, end: Time) -> f64 {
        let window = end.saturating_since(start).as_secs_f64();
        if window <= 0.0 {
            return 0.0;
        }
        let s = self.bucket_of(start);
        let e = self.bucket_of(end).max(s + 1);
        let count: u64 = self.buckets.iter().take(e).skip(s).sum();
        count as f64 / window
    }

    /// The throughput time series: one `(bucket start time, txn/s)` point per
    /// bucket, suitable for plotting Fig. 10-style timelines.
    pub fn time_series(&self) -> Vec<(Time, f64)> {
        let width_s = self.bucket_width.as_secs_f64();
        self.buckets
            .iter()
            .enumerate()
            .map(|(i, &count)| {
                let t = Time::from_nanos(i as u64 * self.bucket_width.as_nanos());
                (t, count as f64 / width_s)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_meter_averages_over_active_window() {
        let mut m = ThroughputMeter::new(Duration::from_secs(1));
        m.record(Time::from_secs(1), 100);
        m.record(Time::from_secs(2), 100);
        m.record(Time::from_secs(3), 100);
        let windowed = m.throughput_over(Time::from_secs(0), Time::from_secs(4));
        assert!(
            (windowed - 75.0).abs() < 1.0,
            "expected 75 txn/s over 4 s, got {windowed}"
        );
        let active = m.throughput_over(Time::from_secs(1), Time::from_secs(3));
        assert!(
            (active - 100.0).abs() < 1.0,
            "expected 100 txn/s over [1 s, 3 s), got {active}"
        );
    }

    #[test]
    fn throughput_time_series_has_one_point_per_bucket() {
        let mut m = ThroughputMeter::new(Duration::from_secs(1));
        m.record(Time::from_millis(500), 10);
        m.record(Time::from_millis(2500), 30);
        let series = m.time_series();
        assert_eq!(series.len(), 3);
        assert!((series[0].1 - 10.0).abs() < 1e-9);
        assert!((series[1].1 - 0.0).abs() < 1e-9);
        assert!((series[2].1 - 30.0).abs() < 1e-9);
    }

    #[test]
    fn empty_collectors_report_zero() {
        let m = ThroughputMeter::new(Duration::from_secs(1));
        assert_eq!(m.throughput_over(Time::ZERO, Time::from_secs(1)), 0.0);
        assert_eq!(m.throughput_over(Time::from_secs(1), Time::ZERO), 0.0);
        assert!(m.time_series().is_empty());
    }
}
