//! The observed-deployment metrics of a traced run: what the driver stamped
//! on each batch, what `/proc/self` said at the window's edges, and what
//! each node reported about itself when it stopped. No edit inside the
//! program: everything here is read from outside.

use crate::driver::{observed_slice, Driven};
use crate::session::Completion;
use crate::stats::{median, percentile};
use rcc_network::NodeReport;

/// Sum over all replicas of a `*_us` histogram, as busy milliseconds per
/// second the deployment lived.
fn busy_ms_per_s(reports: &[NodeReport], histogram: &str, lived_s: f64) -> f64 {
    let total_us: u64 = reports
        .iter()
        .filter_map(|r| r.telemetry.histogram(histogram))
        .map(|h| h.sum)
        .sum();
    total_us as f64 / 1e3 / lived_s
}

fn gauge_max(reports: &[NodeReport], gauge: &str) -> f64 {
    reports
        .iter()
        .filter_map(|r| r.telemetry.gauge(gauge))
        .max()
        .unwrap_or(0) as f64
}

/// `(metric name, value)` for every observed-deployment metric.
pub fn metrics(driven: &Driven, reports: &[NodeReport], lived_s: f64) -> Vec<(&'static str, f64)> {
    let arrival = driven.workload.arrival;
    let window = driven.measure_start_ns..driven.measure_end_ns();
    let confirmed: Vec<&Completion> = driven
        .completions()
        .filter(|c| window.contains(&c.done_ns))
        .collect();
    // Legs of a batch's latency, each from the instant latency is charged
    // from (the due instant on an open loop, the send on a closed one).
    let base = |c: &Completion| c.charged_from_ns(arrival);
    let ms = |ns: u64| ns as f64 / 1e6;
    let accept: Vec<f64> = confirmed
        .iter()
        .filter_map(|c| c.accept_ns.map(|at| ms(at.saturating_sub(base(c)))))
        .collect();
    let first: Vec<f64> = confirmed
        .iter()
        .map(|c| ms(c.first_reply_ns.saturating_sub(base(c))))
        .collect();
    let gap: Vec<f64> = confirmed
        .iter()
        .map(|c| ms(c.done_ns - c.first_reply_ns))
        .collect();
    let late: Vec<f64> = confirmed.iter().map(|c| c.late_ns() as f64 / 1e3).collect();

    // Both edges of the window, or nothing at all for an untraced run.
    let [(start, switches_start, txns_start), (end, switches_end, txns_end)] =
        <[_; 2]>::try_from(driven.proc_edges.as_slice()).unwrap_or_default();
    let ktxn = ((txns_end - txns_start) as f64 / 1000.0).max(f64::MIN_POSITIVE);

    let rates = driven.slice_rates();
    let rate_of = |observed: bool| {
        let picked: Vec<f64> = rates
            .iter()
            .enumerate()
            .filter(|(slice, _)| observed_slice(*slice) == observed)
            .map(|(_, rate)| *rate)
            .collect();
        median(&picked)
    };
    let (plain, observed) = (rate_of(false), rate_of(true));

    let executed = || reports.iter().map(|r| r.executed_batches);
    let exec_lag = executed().max().unwrap_or(0) - executed().min().unwrap_or(0);
    let sum = |field: fn(&NodeReport) -> u64| reports.iter().map(field).sum::<u64>() as f64;

    vec![
        ("client.accept_p50_ms", percentile(&accept, 0.5)),
        ("client.first_reply_p50_ms", percentile(&first, 0.5)),
        ("client.quorum_gap_p50_ms", percentile(&gap, 0.5)),
        ("driver.late_p95_us", percentile(&late, 0.95)),
        (
            "node.pipeline.drain_busy_ms_per_s",
            busy_ms_per_s(reports, "node.pipeline.drain_us", lived_s),
        ),
        (
            "node.pipeline.verify_busy_ms_per_s",
            busy_ms_per_s(reports, "node.pipeline.verify_us", lived_s),
        ),
        (
            "node.pipeline.dispatch_busy_ms_per_s",
            busy_ms_per_s(reports, "node.pipeline.dispatch_us", lived_s),
        ),
        (
            "node.pipeline.execute_busy_ms_per_s",
            busy_ms_per_s(reports, "node.pipeline.execute_us", lived_s),
        ),
        (
            "node.pipeline.queue_depth_max",
            gauge_max(reports, "node.pipeline.queue_depth"),
        ),
        (
            "network.edge.sweep_busy_ms_per_s",
            busy_ms_per_s(reports, "edge.sweep_us", lived_s),
        ),
        (
            "network.edge.conn_queue_peak",
            gauge_max(reports, "edge.conn_queue_peak"),
        ),
        (
            "network.transport.dropped_frames",
            sum(|r| r.transport.dropped_frames),
        ),
        (
            "network.transport.rejected_connections",
            sum(|r| r.transport.rejected_connections),
        ),
        ("node.replies_sent", sum(|r| r.replies_sent)),
        ("node.auth_failures", sum(|r| r.auth_failures)),
        ("node.decode_failures", sum(|r| r.decode_failures)),
        ("node.suspicions", sum(|r| r.suspicions)),
        ("node.view_changes", sum(|r| r.view_changes)),
        ("core.exec_lag_batches", exec_lag as f64),
        (
            "proc.cpu_user_ms_per_ktxn",
            (end.cpu_user_ms - start.cpu_user_ms) / ktxn,
        ),
        (
            "proc.cpu_sys_ms_per_ktxn",
            (end.cpu_sys_ms - start.cpu_sys_ms) / ktxn,
        ),
        (
            "proc.ctx_switches_per_ktxn",
            switches_end.saturating_sub(switches_start) as f64 / ktxn,
        ),
        ("proc.threads", end.threads as f64),
        ("proc.rss_start_mb", start.rss_kb as f64 / 1024.0),
        ("proc.rss_end_mb", end.rss_kb as f64 / 1024.0),
        (
            "trace.overhead_pct",
            (plain - observed) / plain.max(f64::MIN_POSITIVE) * 100.0,
        ),
    ]
}

/// The per-second `/proc/self` series of the observed slices, one JSON
/// object per line.
pub fn proc_series_jsonl(driven: &Driven) -> String {
    driven
        .proc_series
        .iter()
        .map(|(at_ns, s)| {
            format!(
                "{{\"at_ns\":{at_ns},\"rss_kb\":{},\"threads\":{},\"cpu_user_ms\":{},\"cpu_sys_ms\":{}}}\n",
                s.rss_kb, s.threads, s.cpu_user_ms, s.cpu_sys_ms
            )
        })
        .collect()
}
