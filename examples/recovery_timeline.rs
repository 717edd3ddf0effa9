//! The Fig. 10-style recovery timeline: what happens to throughput when a
//! coordinator crashes, and how the Section III-E client assignment brings
//! it back.
//!
//! Runs RCC (n = 4, m = 4, WAN, MACs) twice — failure-free and with the
//! coordinator of instance 3 crashing at t = 250 ms — and prints the
//! throughput time series side by side, plus the recovery milestones
//! (suspicions, view change, client hand-offs) and the post-recovery tail
//! comparison. Deterministic: the output is byte-identical across runs.
//!
//! ```sh
//! cargo run --release --example recovery_timeline
//! ```

use rcc_common::{Duration, InstanceId, ReplicaId, SystemConfig, Time};
use rcc_core::RccOverPbft;
use rcc_protocols::ByzantineCommitAlgorithm;
use rcc_sim::{FaultScript, NetworkModel, SimConfig, SimReport, Simulation};

const HORIZON_MS: u64 = 2500;
const CRASH_AT_MS: u64 = 250;
const TAIL_FROM_MS: u64 = 1700;

fn run(faults: FaultScript) -> (SimReport, Vec<RccOverPbft>) {
    let system = SystemConfig::new(4).with_instances(4).with_batch_size(100);
    let config = SimConfig::new(
        system.clone(),
        NetworkModel::wan(),
        Duration::from_millis(HORIZON_MS),
    )
    .with_measure_window(Time::from_millis(200), Time::from_millis(HORIZON_MS))
    .with_faults(faults);
    Simulation::new(config, |replica| {
        RccOverPbft::over_pbft(system.clone(), replica)
    })
    .run_full()
}

fn main() {
    let crashed = ReplicaId(3);
    let (healthy, _) = run(FaultScript::none());
    let (report, nodes) = run(FaultScript::crash_at(
        Time::from_millis(CRASH_AT_MS),
        crashed,
    ));

    println!("# Recovery timeline: coordinator of instance 3 crashes at {CRASH_AT_MS} ms\n");
    println!(
        "{:>8}  {:>16}  {:>16}",
        "t (ms)", "healthy (tps)", "crash (tps)"
    );
    let healthy_series = healthy.throughput.time_series();
    let crash_series = report.throughput.time_series();
    // 100 ms buckets out of the 50 ms meter: average pairs for readability.
    let mut t = 0;
    while t + 1 < crash_series.len() {
        let avg = |series: &[(Time, f64)]| {
            let a = series.get(t).map(|p| p.1).unwrap_or(0.0);
            let b = series.get(t + 1).map(|p| p.1).unwrap_or(0.0);
            (a + b) / 2.0
        };
        println!(
            "{:>8}  {:>16.0}  {:>16.0}",
            crash_series[t].0.as_nanos() / 1_000_000,
            avg(&healthy_series),
            avg(&crash_series),
        );
        t += 2;
    }

    let tail = |r: &SimReport| {
        r.throughput_over(
            Time::from_millis(TAIL_FROM_MS),
            Time::from_millis(HORIZON_MS),
        )
    };
    println!("\n## Milestones");
    println!("suspicions raised:   {}", report.count("sim.suspicions"));
    println!("view changes:        {}", report.count("sim.view_changes"));
    let handoffs = report.count("sim.client_handoffs");
    println!("client hand-offs:    {handoffs}");
    let observer = &nodes[0];
    println!(
        "instance 3:          view {} under {} ({} rounds of progress demonstrated)",
        observer.instance(InstanceId(3)).view(),
        observer.instance(InstanceId(3)).primary(),
        observer.progress_in_view(InstanceId(3)),
    );
    let log = observer.instance_commit_log(InstanceId(3));
    let noops = log.values().filter(|s| s.batch.is_noop()).count();
    println!(
        "instance 3 slots:    {} committed, {} no-op filler, {} client batches",
        log.len(),
        noops,
        log.len() - noops
    );

    println!("\n## Post-recovery steady state (t ≥ {TAIL_FROM_MS} ms)");
    let recovered = tail(&report);
    let baseline = tail(&healthy);
    println!("healthy baseline:    {baseline:>9.0} tps");
    println!("after recovery:      {recovered:>9.0} tps");
    println!(
        "recovered fraction:  {:>8.1}%",
        100.0 * recovered / baseline
    );

    // This example doubles as an executable regression check for the
    // Section III-E client assignment: before it existed, the recovered
    // fraction sat below 10 % (the catch-up no-op cadence).
    assert!(
        recovered > baseline / 2.0,
        "post-recovery throughput collapsed: {recovered:.0} vs baseline {baseline:.0} tps"
    );
    assert!(handoffs >= 2, "σ-spaced hand-offs missing");
    println!("\nOK: post-recovery throughput is within 2x of the failure-free baseline.");
}
