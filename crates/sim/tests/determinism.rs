//! Integration tests of the discrete-event simulator: bit-for-bit
//! determinism, known answers, and the paper's headline scaling claim
//! (throughput grows with the number of concurrent instances `m`).
//!
//! Most tests compare two runs of one build, so they cannot see a behaviour
//! change across commits. The `known_answer_*` tests can: they pin four
//! runs' snapshots to fixed values. A change that moves the simulator on
//! purpose updates them and says why.

use rcc_common::{Duration, ReplicaId, SystemConfig, Time};
use rcc_sim::{
    simulate_pbft, simulate_rcc_over_pbft, AdversaryAttack, AdversarySpec, FaultKind, FaultScript,
    NetworkModel, SimConfig, SimReport,
};

/// A deliberately small deployment (10-txn batches, an 8-slot pipeline
/// window) so the whole suite stays fast in unoptimized builds; the bench
/// crate and the examples exercise paper-sized configurations.
fn wan_config(n: usize, m: usize, seed: u64, horizon_ms: u64) -> SimConfig {
    let mut system = SystemConfig::new(n)
        .with_instances(m)
        .with_batch_size(10)
        .with_out_of_order_window(8)
        .with_seed(seed);
    system.sigma = 8;
    SimConfig::new(
        system,
        NetworkModel::wan(),
        Duration::from_millis(horizon_ms),
    )
    .with_measure_window(Time::from_millis(200), Time::from_millis(horizon_ms - 100))
}

fn measured_throughput(report: &SimReport) -> f64 {
    report.throughput_over(Time::from_millis(200), Time::from_millis(900))
}

/// Everything a trace comparison needs beside the snapshot: the event
/// fingerprint, the derived metrics (formatted, so float formatting is part
/// of the contract) and the headline counts.
fn snapshot(report: &SimReport) -> String {
    format!(
        "fp={:016x} tput={:.3} events={} committed={} view_changes={} strikes={}",
        report.trace_fingerprint,
        measured_throughput(report),
        report.events_processed,
        report.count("sim.committed_txns"),
        report.count("sim.view_changes"),
        report.count("sim.adversary_strikes"),
    )
}

#[test]
fn same_seed_same_config_is_bit_identical() {
    let a = simulate_rcc_over_pbft(wan_config(4, 4, 42, 1_000));
    let b = simulate_rcc_over_pbft(wan_config(4, 4, 42, 1_000));
    assert!(
        a.count("sim.committed_txns") > 0,
        "simulation must make progress"
    );
    assert_eq!(snapshot(&a), snapshot(&b));
    // Every counter, gauge and histogram bucket is part of the trace too.
    assert_eq!(a.telemetry, b.telemetry);
}

#[test]
fn report_latency_is_the_registry_histogram() {
    // The report has no latency collector of its own: percentiles and mean
    // are the `sim.latency_us` histogram's, in virtual microseconds.
    let report = simulate_rcc_over_pbft(wan_config(4, 4, 42, 1_000));
    let latency = report.telemetry.histogram("sim.latency_us").unwrap();
    assert!(latency.count > 0, "the run must complete batches");
    // WAN round trips put every sample well above a millisecond, and a
    // bucket upper bound can exceed its sample by at most 12.5 %.
    let p50 = latency.percentile(0.5);
    let p99 = latency.percentile(0.99);
    assert!(1_000 < p50 && p50 <= p99);
    assert!(latency.mean() <= p99 as f64);
}

#[test]
fn same_seed_produces_identical_telemetry_snapshots_and_flight() {
    // The registry snapshot and the flight-recorder trace are part of the
    // determinism contract: both derive only from virtual time and seeded
    // randomness, so two same-seed runs must agree bit for bit — including
    // under a fault script that exercises view changes and hand-offs.
    let faults = FaultScript::none().with(
        Time::from_millis(300),
        FaultKind::SilencePrimary {
            replica: ReplicaId(1),
        },
    );
    let a = simulate_rcc_over_pbft(wan_config(4, 4, 5, 1_800).with_faults(faults.clone()));
    let b = simulate_rcc_over_pbft(wan_config(4, 4, 5, 1_800).with_faults(faults));
    assert!(
        a.count("sim.committed_txns") > 0,
        "the run must commit transactions for the comparison to mean anything"
    );
    assert_eq!(a.telemetry, b.telemetry, "registry snapshots must be equal");
    assert_eq!(a.flight, b.flight, "flight-recorder traces must be equal");
    // The flight trace of a silenced coordinator must show the recovery
    // sequence: a σ-lag detection followed by a completed view change.
    assert!(a.flight.iter().any(|e| matches!(
        e.kind,
        rcc_telemetry::FlightEventKind::SigmaLagDetected { .. }
    )));
    assert!(a.flight.iter().any(|e| matches!(
        e.kind,
        rcc_telemetry::FlightEventKind::ViewChangeCompleted { .. }
    )));
}

#[test]
fn different_seeds_produce_different_traces() {
    let a = simulate_rcc_over_pbft(wan_config(4, 4, 1, 1_000));
    let b = simulate_rcc_over_pbft(wan_config(4, 4, 2, 1_000));
    assert_ne!(
        a.trace_fingerprint, b.trace_fingerprint,
        "different seeds must change jitter and workload, hence the trace"
    );
}

#[test]
fn more_instances_mean_strictly_higher_wan_throughput() {
    // Fig. 7's premise: with WAN latencies, a single primary cannot saturate
    // the deployment; m concurrent instances multiply the proposal rate.
    let m1 = simulate_rcc_over_pbft(wan_config(4, 1, 7, 1_000));
    let m4 = simulate_rcc_over_pbft(wan_config(4, 4, 7, 1_000));
    let t1 = measured_throughput(&m1);
    let t4 = measured_throughput(&m4);
    assert!(t1 > 0.0, "m=1 must commit transactions");
    assert!(
        t4 > t1,
        "m=4 must outperform m=1 under the WAN link model (t1 = {t1:.0}, t4 = {t4:.0})"
    );
    // The scaling should be substantial, not a rounding artifact.
    assert!(
        t4 > 2.0 * t1,
        "expected ≥2× scaling from m=1 to m=4 (t1 = {t1:.0}, t4 = {t4:.0})"
    );
}

#[test]
fn standalone_pbft_matches_rcc_with_one_instance_in_spirit() {
    // Both run a single primary; RCC-with-m=1 adds only the envelope, so the
    // two should land in the same throughput ballpark.
    let pbft = simulate_pbft(wan_config(4, 1, 7, 1_000));
    let rcc1 = simulate_rcc_over_pbft(wan_config(4, 1, 7, 1_000));
    let tp = measured_throughput(&pbft);
    let tr = measured_throughput(&rcc1);
    assert!(tp > 0.0 && tr > 0.0);
    let ratio = tp / tr;
    assert!(
        (0.5..=2.0).contains(&ratio),
        "PBFT ({tp:.0} tps) and RCC m=1 ({tr:.0} tps) diverge unexpectedly"
    );
}

#[test]
fn crashed_backup_does_not_stop_commits() {
    // Crashing one backup of a 4-replica deployment (f = 1) leaves a quorum.
    let faults = FaultScript::crash_at(Time::from_millis(300), ReplicaId(3));
    let config = wan_config(4, 1, 11, 1_000).with_faults(faults);
    let healthy = simulate_rcc_over_pbft(wan_config(4, 1, 11, 1_000));
    let report = simulate_rcc_over_pbft(config);
    assert!(
        report.count("sim.committed_txns") > healthy.count("sim.committed_txns") / 2,
        "one crashed backup must not halve throughput: {} vs {}",
        report.count("sim.committed_txns"),
        healthy.count("sim.committed_txns")
    );
}

#[test]
fn silenced_coordinator_triggers_failure_handling() {
    // A Byzantine-silent coordinator of one instance stalls that instance;
    // RCC's lag detection must notice and raise suspicions/view changes.
    let faults = FaultScript::none().with(
        Time::from_millis(300),
        FaultKind::SilencePrimary {
            replica: ReplicaId(1),
        },
    );
    let report = simulate_rcc_over_pbft(wan_config(4, 4, 5, 1_800).with_faults(faults));
    assert!(
        report.count("sim.suspicions") > 0 || report.count("sim.view_changes") > 0,
        "a silent coordinator must be detected (suspicions = {}, view changes = {})",
        report.count("sim.suspicions"),
        report.count("sim.view_changes")
    );
    assert!(report.count("sim.committed_txns") > 0);
}

#[test]
fn known_answer_fault_free_rcc() {
    let report = simulate_rcc_over_pbft(wan_config(4, 4, 42, 1_000));
    assert_eq!(
        snapshot(&report),
        "fp=c1fca88a913d4335 tput=2742.857 events=7668 committed=2560 view_changes=0 strikes=0"
    );
}

#[test]
fn known_answer_standalone_pbft() {
    let report = simulate_pbft(wan_config(4, 1, 7, 1_000));
    assert_eq!(
        snapshot(&report),
        "fp=4d2057d3de7b0a6e tput=685.714 events=1908 committed=640 view_changes=0 strikes=0"
    );
}

#[test]
fn known_answer_silenced_primary_on_a_mangled_wire() {
    let faults = FaultScript::none()
        .with(
            Time::from_millis(300),
            FaultKind::SilencePrimary {
                replica: ReplicaId(1),
            },
        )
        .with(
            Time::from_millis(300),
            FaultKind::MangleWire { rate_ppm: 20_000 },
        );
    let report = simulate_rcc_over_pbft(wan_config(4, 4, 5, 1_800).with_faults(faults));
    assert_eq!(
        snapshot(&report),
        "fp=52ade845e1ed39a9 tput=914.286 events=7566 committed=1370 view_changes=8 strikes=0"
    );
}

#[test]
fn known_answer_adaptive_kills_beside_a_throttled_replica() {
    // `chaos.rs`'s `kill_adversary()`: three strikes 300 ms apart, each
    // victim down for 250 ms.
    let adversary = AdversarySpec::new(
        Time::from_millis(250),
        Duration::from_millis(300),
        AdversaryAttack::Kill {
            down_for: Duration::from_millis(250),
        },
        3,
    );
    let faults = FaultScript::throttle_at(Time::from_millis(300), ReplicaId(2), 4.0);
    let report = simulate_rcc_over_pbft(
        wan_config(4, 4, 3, 1_800)
            .with_faults(faults)
            .with_adversary(adversary),
    );
    assert_eq!(
        snapshot(&report),
        "fp=e1ad06cdffd7103f tput=914.286 events=6736 committed=1850 view_changes=4 strikes=3"
    );
}
