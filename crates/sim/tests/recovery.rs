//! Integration tests of the recovery path: a crashed coordinator must cost
//! one instance-local view change, after which the Section III-E client
//! assignment returns load to the recovered instance — post-recovery
//! throughput must approach the failure-free baseline instead of collapsing
//! to the catch-up no-op cadence.

use rcc_common::{Duration, InstanceId, ReplicaId, SystemConfig, Time};
use rcc_core::RccOverPbft;
use rcc_protocols::ByzantineCommitAlgorithm;
use rcc_sim::{FaultScript, NetworkModel, SimConfig, Simulation};

const CRASH_AT_MS: u64 = 250;
const HORIZON_MS: u64 = 2500;
/// Start of the post-recovery window: generous slack after crash (250 ms) +
/// detection (one failure-detection timeout after the lag-bound trips) +
/// view change + no-op catch-up + σ-spaced hand-back.
const RECOVERED_FROM_MS: u64 = 1700;

fn run_crash(system: SystemConfig, faults: FaultScript) -> (rcc_sim::SimReport, Vec<RccOverPbft>) {
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

fn system() -> SystemConfig {
    SystemConfig::new(4).with_instances(4).with_batch_size(100)
}

#[test]
fn crashed_coordinator_recovers_throughput_via_client_reassignment() {
    let crashed = ReplicaId(3);
    let (healthy, _) = run_crash(system(), FaultScript::none());
    let (report, nodes) = run_crash(
        system(),
        FaultScript::crash_at(Time::from_millis(CRASH_AT_MS), crashed),
    );

    // The failure was handled with an instance-local view change …
    assert!(
        report.count("sim.view_changes") > 0,
        "the crashed coordinator must be replaced"
    );
    // … and the assignment policy moved client load: off the failing
    // instance while it recovered, and back after σ rounds of demonstrated
    // progress.
    assert!(
        report.count("sim.client_handoffs") >= 2,
        "expected a drain + a σ-spaced hand-back, saw {} hand-offs",
        report.count("sim.client_handoffs")
    );

    // Post-recovery steady state: the tail window must be within 2× of the
    // failure-free baseline over the same window — the pre-III-E behaviour
    // (catch-up no-ops forever) sat at ~1/11 of baseline and fails this by
    // a wide margin.
    let from = Time::from_millis(RECOVERED_FROM_MS);
    let to = Time::from_millis(HORIZON_MS);
    let recovered = report.throughput_over(from, to);
    let baseline = healthy.throughput_over(from, to);
    assert!(
        recovered > baseline / 2.0,
        "post-recovery throughput must approach the failure-free baseline \
         (recovered = {recovered:.0} tps, baseline = {baseline:.0} tps)"
    );

    // The recovered instance carries *client* load again, not an unbounded
    // tail of no-op filler: on a surviving replica, real batches committed
    // by instance 3 after the view change outnumber the catch-up no-ops.
    let observer = &nodes[0];
    assert!(
        observer.instance(InstanceId(3)).view() >= 1,
        "instance 3 went through its view change"
    );
    assert_ne!(
        observer.instance(InstanceId(3)).primary(),
        crashed,
        "instance 3 has a new coordinator"
    );
    let log = observer.instance_commit_log(InstanceId(3));
    let (real, noops) = log.values().fold((0u64, 0u64), |(real, noops), slot| {
        if slot.batch.is_noop() {
            (real, noops + 1)
        } else {
            (real + 1, noops)
        }
    });
    assert!(
        real > noops,
        "the recovered instance must run on reassigned client batches, not \
         no-ops forever (real = {real}, noops = {noops})"
    );
    assert!(
        observer.progress_in_view(InstanceId(3)) >= observer.config().sigma,
        "the new coordinator demonstrated at least σ rounds of progress"
    );
}

#[test]
fn recovery_is_bit_deterministic() {
    let crash = || {
        run_crash(
            system(),
            FaultScript::crash_at(Time::from_millis(CRASH_AT_MS), ReplicaId(3)),
        )
        .0
    };
    let a = crash();
    let b = crash();
    assert_eq!(a.trace_fingerprint, b.trace_fingerprint);
    assert_eq!(a.telemetry, b.telemetry, "hand-offs and commits, too");
}

#[test]
fn open_loop_clients_pace_submissions_by_the_clock() {
    // An open-loop client submits one batch per interval per client node —
    // 4 nodes × 100 txn per 10 ms ⇒ an offered load of 40 k txn/s, far
    // below saturation; committed throughput must track the offered load,
    // not the pipeline capacity.
    let sys = system();
    let config = SimConfig::new(sys.clone(), NetworkModel::wan(), Duration::from_secs(2))
        .with_measure_window(Time::from_millis(500), Time::from_millis(1900))
        .with_open_loop_clients(Duration::from_millis(10));
    let report = Simulation::new(config, |replica| {
        RccOverPbft::over_pbft(sys.clone(), replica)
    })
    .run();
    let tps = report.throughput_over(Time::from_millis(500), Time::from_millis(1900));
    assert!(
        (20_000.0..=44_000.0).contains(&tps),
        "open-loop throughput must track the ~40 k txn/s offered load, got {tps:.0}"
    );
}
