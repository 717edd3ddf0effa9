//! Chaos-campaign property tests: the adaptive adversary and the new
//! chaos fault kinds must never violate safety (identical release orders —
//! `simulate_rcc_over_pbft` panics on divergence) and must leave the
//! cluster committing once the strike budget is spent. Every scenario is
//! bit-deterministic per seed: the trace fingerprint is the witness.

use rcc_common::{Duration, ReplicaId, SystemConfig, Time};
use rcc_sim::{
    simulate_rcc_over_pbft, AdversaryAttack, AdversarySpec, FaultKind, FaultScript, NetworkModel,
    SimConfig,
};

/// The same deliberately small deployment as the other sim suites: 10-txn
/// batches and an 8-slot window keep debug-mode digesting cheap.
fn system(seed: u64) -> SystemConfig {
    let mut system = SystemConfig::new(4)
        .with_instances(4)
        .with_batch_size(10)
        .with_out_of_order_window(8)
        .with_seed(seed);
    system.sigma = 8;
    system
}

fn config(seed: u64) -> SimConfig {
    SimConfig::new(system(seed), NetworkModel::wan(), Duration::from_secs(3))
        .with_measure_window(Time::from_millis(200), Time::from_millis(2_900))
}

/// Three strikes, 300 ms apart, starting shortly after the measurement
/// window opens; each victim is down for 250 ms, so the budgeted `f = 1`
/// concurrent corruptions are respected (a new strike waits for a revival).
fn kill_adversary() -> AdversarySpec {
    AdversarySpec::new(
        Time::from_millis(250),
        Duration::from_millis(300),
        AdversaryAttack::Kill {
            down_for: Duration::from_millis(250),
        },
        3,
    )
}

/// The satellite property: k ≥ 3 consecutive adaptive coordinator kills —
/// the adversary re-acquires whichever replica coordinates the most
/// instances after every view change — always end with identical orders on
/// every replica (asserted inside `simulate_rcc_over_pbft`) and a cluster
/// that is still committing in the tail of the run.
#[test]
fn three_adaptive_coordinator_kills_preserve_safety_and_liveness() {
    for seed in [3u64, 17, 1789] {
        let report = simulate_rcc_over_pbft(config(seed).with_adversary(kill_adversary()));
        assert!(
            report.count("sim.adversary_strikes") >= 3,
            "seed {seed}: only {} strikes landed",
            report.count("sim.adversary_strikes")
        );
        assert!(
            report.count("sim.view_changes") >= 3,
            "seed {seed}: {} view changes for {} coordinator kills",
            report.count("sim.view_changes"),
            report.count("sim.adversary_strikes")
        );
        // Liveness after the campaign: the final second of the run — long
        // after the third (final) strike's victim revived — still commits.
        let tail = report.throughput_over(Time::from_millis(2_000), Time::from_millis(2_900));
        assert!(
            tail > 0.0,
            "seed {seed}: the cluster never recommitted after the strikes"
        );
    }
}

/// Byzantine-silent strikes exercise the same adaptive loop without
/// revivals: each re-target releases the previous victim, so at most one
/// replica is ever silent (the `f` budget). Safety must hold and the
/// cluster must keep committing even though the final victim stays silent.
#[test]
fn adaptive_silence_respects_the_corruption_budget_and_keeps_committing() {
    let adversary = AdversarySpec::new(
        Time::from_millis(250),
        Duration::from_millis(400),
        AdversaryAttack::Silence,
        3,
    );
    // A longer horizon than the kill tests: the final victim never recovers,
    // so the cluster must *depose* it from every instance it coordinates —
    // deposition churn (view changes rotating coordinatorship, no-op
    // catch-up) takes several σ-lag rounds to settle before releases resume.
    // The pipeline window must also exceed σ here: σ-lag detection needs the
    // healthy instances to run σ rounds ahead of the silenced one, and a
    // window of exactly σ caps their lead at the detection threshold —
    // with a permanently silent coordinator that configuration wedges.
    let mut system = system(11).with_out_of_order_window(16);
    system.sigma = 8;
    let config = SimConfig::new(system, NetworkModel::wan(), Duration::from_secs(6))
        .with_measure_window(Time::from_millis(200), Time::from_millis(5_900))
        .with_adversary(adversary);
    let report = simulate_rcc_over_pbft(config);
    assert!(
        report.count("sim.adversary_strikes") >= 2,
        "the adversary never re-targeted"
    );
    let tail = report.throughput_over(Time::from_millis(4_000), Time::from_millis(5_900));
    assert!(tail > 0.0, "a single silent replica must not halt n = 4");
}

/// Every chaos ingredient at once — adaptive kills, a 4×-slow clock, a
/// slowloris link, one-way partition pressure, and 1% wire mangling — and
/// the release orders still agree (the simulate harness would panic
/// otherwise) while the cluster still commits work.
#[test]
fn kitchen_sink_chaos_holds_safety() {
    let faults = FaultScript::none()
        .with(
            Time::from_millis(300),
            FaultKind::ClockSkew {
                replica: ReplicaId(2),
                factor: 4.0,
            },
        )
        .with(
            Time::from_millis(300),
            FaultKind::SlowLink {
                replica: ReplicaId(3),
                factor: 100.0,
            },
        )
        .with(
            Time::from_millis(400),
            FaultKind::PartitionOneWay {
                from: vec![ReplicaId(3)],
                to: vec![ReplicaId(0)],
            },
        )
        .with(
            Time::from_millis(300),
            FaultKind::MangleWire { rate_ppm: 10_000 },
        )
        .with(Time::from_millis(1_800), FaultKind::Heal)
        .with(
            Time::from_millis(1_800),
            FaultKind::MangleWire { rate_ppm: 0 },
        );
    let report = simulate_rcc_over_pbft(
        config(23)
            .with_faults(faults)
            .with_adversary(kill_adversary()),
    );
    assert!(
        report.count("sim.committed_txns") > 0,
        "chaos halted the cluster"
    );
    let strikes = report.count("sim.adversary_strikes");
    assert!(strikes > 0, "the adversary never engaged");
}

/// Chaos runs are bit-deterministic: the same seed replays the identical
/// event trace (fingerprints equal), and a different seed diverges — the
/// property that makes every chaos failure reproducible from its CSV row.
#[test]
fn chaos_runs_are_bit_deterministic_per_seed() {
    let run = |seed: u64| {
        let faults = FaultScript::none()
            .with(
                Time::from_millis(300),
                FaultKind::MangleWire { rate_ppm: 20_000 },
            )
            .with(
                Time::from_millis(350),
                FaultKind::SlowLink {
                    replica: ReplicaId(1),
                    factor: 50.0,
                },
            );
        simulate_rcc_over_pbft(
            config(seed)
                .with_faults(faults)
                .with_adversary(kill_adversary()),
        )
    };
    let a = run(5);
    let b = run(5);
    assert_eq!(
        a.trace_fingerprint, b.trace_fingerprint,
        "same seed, different trace"
    );
    assert_eq!(a.telemetry, b.telemetry, "every count and strike, too");
    let c = run(6);
    assert_ne!(
        a.trace_fingerprint, c.trace_fingerprint,
        "different seeds should explore different traces"
    );
}
