//! Long-horizon integration tests of Section III-D checkpointing and
//! garbage collection: total committed work grows with the virtual horizon
//! while the peak retained per-slot log stays bounded by a constant multiple
//! of `checkpoint_interval × m` — and a replica that rejoins after a long
//! crash catches up through a checkpoint transfer instead of replaying every
//! pruned slot.

use rcc_common::{Duration, ReplicaId, SystemConfig, Time};
use rcc_core::RccOverPbft;
use rcc_protocols::ByzantineCommitAlgorithm;
use rcc_sim::{
    simulate_rcc_over_pbft, FaultKind, FaultScript, NetworkModel, SimConfig, Simulation,
};

const INTERVAL: u64 = 16;

/// Small batches and windows keep debug-mode SHA-256 cheap; the bench crate
/// exercises paper-sized configurations.
fn system(seed: u64) -> SystemConfig {
    let mut system = SystemConfig::new(4)
        .with_instances(4)
        .with_batch_size(10)
        .with_out_of_order_window(8)
        .with_checkpoint_interval(INTERVAL)
        .with_seed(seed);
    system.sigma = 8;
    system
}

fn config(seed: u64, horizon: Duration) -> SimConfig {
    SimConfig::new(system(seed), NetworkModel::wan(), horizon)
        .with_measure_window(Time::from_millis(200), Time::ZERO + horizon)
}

#[test]
fn retained_log_is_bounded_by_the_checkpoint_interval_not_the_horizon() {
    let short = simulate_rcc_over_pbft(config(9, Duration::from_secs(2)));
    let long = simulate_rcc_over_pbft(config(9, Duration::from_secs(6)));
    // The long run does proportionally more work …
    assert!(
        long.count("sim.committed_batches") > 2 * short.count("sim.committed_batches"),
        "the long horizon must commit more ({} vs {})",
        long.count("sim.committed_batches"),
        short.count("sim.committed_batches")
    );
    // … but the peak retained log does not grow with the horizon: it is
    // bounded by a constant multiple of `checkpoint_interval × m` (retained
    // window of up to ~2 intervals across commit log + execution log +
    // instance slots + pipeline slack), where without GC it would track
    // `committed_batches` (thousands here).
    let m = 4u64;
    let bound = 12 * INTERVAL * m;
    assert!(
        long.count("sim.peak_retained_log") <= bound,
        "peak retained log {} exceeds the O(checkpoint_interval × m) bound {}",
        long.count("sim.peak_retained_log"),
        bound
    );
    assert!(
        long.count("sim.peak_retained_log")
            <= short.count("sim.peak_retained_log") + 2 * INTERVAL * m,
        "the peak must not scale with the horizon ({} short vs {} long)",
        short.count("sim.peak_retained_log"),
        long.count("sim.peak_retained_log")
    );
    // Checkpointing actually engaged (the bound above is not vacuous).
    assert!(
        long.count("sim.committed_batches") > bound,
        "the run must be long enough that an unpruned log would violate the bound"
    );
}

#[test]
fn a_long_crashed_replica_catches_up_from_a_checkpoint_transfer() {
    // Replica 3 (coordinator of instance 3) crashes early and rejoins after
    // the survivors have stabilized checkpoints far past its frontier: its
    // pre-crash state-sync requests now target pruned rounds, so recovery
    // must go through the CheckpointTransfer fast-forward path.
    let faults = FaultScript::none()
        .with(
            Time::from_millis(400),
            FaultKind::Crash {
                replica: ReplicaId(3),
            },
        )
        .with(
            Time::from_millis(2600),
            FaultKind::Recover {
                replica: ReplicaId(3),
            },
        );
    let horizon = Duration::from_secs(4);
    let sim_config = config(11, horizon).with_faults(faults);
    let sys = system(11);
    let (report, nodes) = Simulation::new(sim_config, |replica| {
        RccOverPbft::over_pbft(sys.clone(), replica)
    })
    .run_full();
    // The survivors pruned while replica 3 was down.
    let survivor = &nodes[0];
    assert!(
        survivor.stable_round() > 0,
        "survivors must have stabilized checkpoints"
    );
    // The rejoined replica fast-forwarded: its release frontier jumped over
    // the pruned rounds (which slot-by-slot sync could never replay) and its
    // own log was pruned up to an adopted checkpoint.
    let rejoined = &nodes[3];
    assert!(
        rejoined.stable_round() > 0,
        "the rejoined replica must have adopted a stable checkpoint"
    );
    assert_eq!(
        rejoined.stable_round(),
        rejoined.execution_window_start(),
        "its retained window starts at the adopted checkpoint"
    );
    assert!(
        rejoined.orderer().next_round() >= rejoined.stable_round(),
        "the release frontier is at or past the adopted checkpoint"
    );
    // Safety: every round retained by both the rejoined replica and a
    // survivor was released identically (simulate_rcc_over_pbft asserts the
    // same; here we check the overlap is real when it exists).
    for released in rejoined.execution_log() {
        if let Some(reference) = survivor
            .execution_log()
            .iter()
            .find(|r| r.round == released.round)
        {
            assert_eq!(reference, released, "round {} diverged", released.round);
        }
    }
    assert!(report.count("sim.committed_txns") > 0);
}
