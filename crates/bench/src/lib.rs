//! Reproducible experiment campaigns over the `rcc-sim` discrete-event
//! simulator, mirroring the paper's evaluation (Section V).
//!
//! A campaign is an experiment matrix — protocol × deployment size `n` ×
//! concurrent instances `m` × batch size × authentication mode × network ×
//! fault scenario — run with warm-up/measure/cool-down phasing: metrics are
//! evaluated only over the measurement window, so pipeline fill and drain do
//! not distort throughput, and latency samples are restricted to batches
//! submitted inside the window.
//!
//! Results are emitted as CSV (one row per experiment, machine-readable, the
//! format CI archives) and as a Markdown table (human-readable). Every count
//! and latency column is read from the run's `sim.*` telemetry snapshot when
//! the row is rendered; a [`RunResult`] copies nothing out of its
//! [`SimReport`]. Both outputs are deterministic: the same seed and matrix
//! produce byte-identical output, which is what makes regression comparison
//! across PRs meaningful.
//! `docs/EVALUATION.md` documents every knob and how the output columns map
//! onto the axes of Fig. 7 and Fig. 8 of the paper.

#![warn(missing_docs)]

use rcc_common::{CryptoMode, Duration, ReplicaId, SystemConfig, Time};
use rcc_sim::{
    simulate_pbft, simulate_rcc_over_pbft, AdversaryAttack, AdversarySpec, FaultKind, FaultScript,
    NetworkModel, SimConfig, SimReport,
};
use std::fmt::Write as _;

/// Which consensus system a row measures.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ProtocolKind {
    /// RCC running `m` concurrent PBFT instances (the paper's "RCC").
    RccPbft,
    /// Standalone PBFT with out-of-order processing (the paper's strongest
    /// primary-backup baseline).
    Pbft,
}

impl ProtocolKind {
    /// Stable name used in CSV/Markdown output.
    pub fn name(self) -> &'static str {
        match self {
            ProtocolKind::RccPbft => "rcc-pbft",
            ProtocolKind::Pbft => "pbft",
        }
    }
}

/// Which link model a row uses.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum NetworkKind {
    /// Single-cluster LAN (Fig. 7-left / Fig. 8 LAN rows).
    Lan,
    /// Four-region WAN (Fig. 8 WAN rows).
    Wan,
}

impl NetworkKind {
    /// Stable name used in CSV/Markdown output.
    pub fn name(self) -> &'static str {
        match self {
            NetworkKind::Lan => "lan",
            NetworkKind::Wan => "wan",
        }
    }

    /// The simulator link model.
    pub fn model(self) -> NetworkModel {
        match self {
            NetworkKind::Lan => NetworkModel::lan(),
            NetworkKind::Wan => NetworkModel::wan(),
        }
    }
}

/// Scripted fault scenarios, injected shortly after the warm-up phase so the
/// measurement window observes the system under the fault.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FaultScenario {
    /// Failure-free run.
    None,
    /// The highest-numbered replica crashes — a backup of every instance
    /// when `m < n`, the coordinator of instance `n − 1` when `m = n` (in
    /// which case RCC must replace it with an instance-local view change).
    CrashReplica,
    /// Replica 1 — coordinator of instance 1 when `m > 1` — turns into a
    /// Byzantine silent primary and withholds its proposals.
    SilenceCoordinator,
    /// Replica 1 throttles its own CPU by 8× (the Section-IV attack).
    ThrottleCoordinator,
    /// The highest-numbered replica crashes at the start of measurement and
    /// *recovers* a third of the way into the window. By then the survivors
    /// have checkpointed and pruned far past its frontier, so the rejoining
    /// replica must catch up through the §III-D checkpoint-transfer path —
    /// the scenario the `long-horizon` preset measures.
    CrashRecoverReplica,
    /// An *adaptive* adversary that repeatedly crash-faults whichever
    /// replica currently coordinates the most instances, re-acquiring its
    /// target from observed [`rcc_common::InstanceStatus`] after every view
    /// change. Budgeted at `f` concurrent corruptions (one at n = 4), three
    /// strikes total — the strongest crash schedule the paper's fault model
    /// admits.
    AdaptiveKill,
    /// The same adaptive targeting, but the victim turns Byzantine-silent
    /// (withholds its proposals) instead of crashing. The previous victim is
    /// released on each re-target so the corruption budget stays at `f`.
    AdaptiveSilence,
    /// Instance 1's coordinator crashes while two of the three survivors
    /// run 4×-slow clocks: their σ-lag detectors fire late, so the `f + 1`
    /// suspicion quorum — and with it the view change — is reached at the
    /// skewed cadence, stretching the outage. This is the failure mode
    /// clock skew actually causes in a partially synchronous system (a
    /// skewed clock in a *healthy* cluster is harmless: progress keeps
    /// re-arming the detectors before they fire). The skew is repaired two
    /// thirds into the window.
    ClockSkew,
    /// A one-way partition: replica 1 hears everyone, but nothing replica 1
    /// sends is delivered — the asymmetric failure that makes a coordinator
    /// look alive to itself while the rest of the cluster deposes it. Healed
    /// two thirds into the window.
    AsymmetricPartition,
    /// Slowloris: every link *into* replica 1 serializes 400× slower
    /// (10 Gbit/s down to ~25 Mbit/s), so frames bound for it occupy each
    /// sender's shared egress NIC long enough to back-pressure *all* of
    /// that sender's traffic. Restored two thirds into the window.
    Slowloris,
    /// Wire-level corruption: 1% of replica-to-replica messages are
    /// mangled in flight (corrupted frames are rejected at the decode
    /// boundary, others are duplicated, delayed, or replayed stale). Stops
    /// two thirds into the window.
    WireMangle,
}

impl FaultScenario {
    /// Stable name used in CSV/Markdown output.
    pub fn name(self) -> &'static str {
        match self {
            FaultScenario::None => "none",
            FaultScenario::CrashReplica => "crash-replica",
            FaultScenario::SilenceCoordinator => "silence-coordinator",
            FaultScenario::ThrottleCoordinator => "throttle-coordinator",
            FaultScenario::CrashRecoverReplica => "crash-recover",
            FaultScenario::AdaptiveKill => "adaptive-kill",
            FaultScenario::AdaptiveSilence => "adaptive-silence",
            FaultScenario::ClockSkew => "clock-skew",
            FaultScenario::AsymmetricPartition => "asymmetric-partition",
            FaultScenario::Slowloris => "slowloris",
            FaultScenario::WireMangle => "wire-mangle",
        }
    }

    /// The adaptive-adversary schedule of this scenario, if any. Adaptive
    /// scenarios have no static [`FaultScript`]: the victim is chosen at
    /// run time from observed coordinator assignments, so the schedule is a
    /// policy ([`AdversarySpec`]) rather than a timeline.
    pub fn adversary(self, measure_start: Time) -> Option<AdversarySpec> {
        // Same injection offset as `script`; strikes every 400 ms leave the
        // cluster time to view-change between blows, and a 3-strike budget
        // ends the campaign before the tail window so the floor measures
        // the *recovered* steady state.
        let start = measure_start + Duration::from_millis(50);
        let interval = Duration::from_millis(400);
        match self {
            FaultScenario::AdaptiveKill => Some(AdversarySpec::new(
                start,
                interval,
                AdversaryAttack::Kill {
                    down_for: Duration::from_millis(350),
                },
                3,
            )),
            FaultScenario::AdaptiveSilence => Some(AdversarySpec::new(
                start,
                interval,
                AdversaryAttack::Silence,
                3,
            )),
            _ => None,
        }
    }

    /// Scenario-specific scaling of the `--floor` liveness gate. Failure-free
    /// and single-fault scenarios keep the full floor (factor 1.0); chaos
    /// scenarios accept a degraded-but-alive tail, so the gate asserts
    /// "liveness degrades gracefully" rather than "nothing happened".
    pub fn liveness_floor_factor(self) -> f64 {
        match self {
            FaultScenario::None
            | FaultScenario::CrashReplica
            | FaultScenario::SilenceCoordinator
            | FaultScenario::ThrottleCoordinator
            | FaultScenario::CrashRecoverReplica => 1.0,
            // Three coordinator kills leave the last view change barely
            // ahead of the tail window; the floor only asserts recovery is
            // under way.
            FaultScenario::AdaptiveKill => 0.25,
            // The final silenced victim stays Byzantine-silent through the
            // tail, so the deposition churn it causes never fully settles —
            // the heaviest sustained degradation in the preset. The floor
            // asserts the cluster keeps committing, not that it recovers.
            FaultScenario::AdaptiveSilence => 0.1,
            // Spurious view changes from the fast clock churn coordinators
            // until the skew is repaired at the 2/3 mark.
            FaultScenario::ClockSkew => 0.25,
            // One replica's output is blackholed for 2/3 of the window.
            FaultScenario::AsymmetricPartition => 0.25,
            // Back-pressure on every peer's egress throttles the whole
            // cluster while the slow link persists; the tail starts just
            // after the repair, mid-drain of the backlog.
            FaultScenario::Slowloris => 0.25,
            // 1% message mangling costs retransmissions and the odd view
            // change but must not halt the pipeline.
            FaultScenario::WireMangle => 0.25,
        }
    }

    /// The concrete fault script for a deployment of `n` replicas whose
    /// measurement window starts at `measure_start` and lasts `measure`.
    pub fn script(self, n: usize, measure_start: Time, measure: Duration) -> FaultScript {
        // Inject just after measurement begins so the fault's effect is
        // inside the measured window.
        let at = measure_start + Duration::from_millis(50);
        match self {
            FaultScenario::None => FaultScript::none(),
            FaultScenario::CrashReplica => FaultScript::crash_at(at, ReplicaId(n as u32 - 1)),
            FaultScenario::SilenceCoordinator => FaultScript::silence_at(at, ReplicaId(1)),
            FaultScenario::ThrottleCoordinator => FaultScript::none().with(
                at,
                FaultKind::Throttle {
                    replica: ReplicaId(1),
                    factor: 8.0,
                },
            ),
            FaultScenario::CrashRecoverReplica => {
                let replica = ReplicaId(n as u32 - 1);
                FaultScript::crash_at(at, replica).with(
                    measure_start + Duration::from_nanos(measure.as_nanos() / 3),
                    FaultKind::Recover { replica },
                )
            }
            // The adaptive scenarios carry no static script — see
            // [`FaultScenario::adversary`].
            FaultScenario::AdaptiveKill | FaultScenario::AdaptiveSilence => FaultScript::none(),
            FaultScenario::ClockSkew => {
                let repair = Self::repair_at(measure_start, measure);
                let mut script = FaultScript::crash_at(at, ReplicaId(1));
                for replica in [ReplicaId(2), ReplicaId(3)] {
                    script = script
                        .with(
                            at,
                            FaultKind::ClockSkew {
                                replica,
                                factor: 4.0,
                            },
                        )
                        .with(
                            repair,
                            FaultKind::ClockSkew {
                                replica,
                                factor: 1.0,
                            },
                        );
                }
                script
            }
            FaultScenario::AsymmetricPartition => {
                let others: Vec<ReplicaId> =
                    (0..n as u32).filter(|&r| r != 1).map(ReplicaId).collect();
                FaultScript::none()
                    .with(
                        at,
                        FaultKind::PartitionOneWay {
                            from: vec![ReplicaId(1)],
                            to: others,
                        },
                    )
                    .with(Self::repair_at(measure_start, measure), FaultKind::Heal)
            }
            FaultScenario::Slowloris => FaultScript::none()
                .with(
                    at,
                    FaultKind::SlowLink {
                        replica: ReplicaId(1),
                        factor: 400.0,
                    },
                )
                .with(
                    Self::repair_at(measure_start, measure),
                    FaultKind::SlowLink {
                        replica: ReplicaId(1),
                        factor: 1.0,
                    },
                ),
            FaultScenario::WireMangle => FaultScript::none()
                .with(at, FaultKind::MangleWire { rate_ppm: 10_000 })
                .with(
                    Self::repair_at(measure_start, measure),
                    FaultKind::MangleWire { rate_ppm: 0 },
                ),
        }
    }

    /// Two thirds into the measurement window: where the repairable chaos
    /// scenarios undo their fault, so the tail third measures recovery.
    fn repair_at(measure_start: Time, measure: Duration) -> Time {
        measure_start + Duration::from_nanos(measure.as_nanos() * 2 / 3)
    }
}

/// Warm-up / measurement / cool-down phasing of every run in a campaign.
#[derive(Clone, Copy, Debug)]
pub struct Phases {
    /// Virtual time before measurement starts (pipeline fill).
    pub warmup: Duration,
    /// Virtual length of the measurement window.
    pub measure: Duration,
    /// Virtual time after measurement (lets in-flight batches drain).
    pub cooldown: Duration,
}

impl Phases {
    /// The phasing used by the full campaigns: 0.2 s warm-up, 0.7 s
    /// measurement, 0.1 s cool-down of virtual time.
    pub fn standard() -> Self {
        Phases {
            warmup: Duration::from_millis(200),
            measure: Duration::from_millis(700),
            cooldown: Duration::from_millis(100),
        }
    }

    /// Longer phasing for small deployments (CI smoke): the runs are cheap,
    /// so a longer window tightens the estimates.
    pub fn smoke() -> Self {
        Phases {
            warmup: Duration::from_millis(500),
            measure: Duration::from_secs(3),
            cooldown: Duration::from_millis(500),
        }
    }

    /// The phasing used by the `recovery` campaign: a long measurement
    /// window, so a fault injected at its start has fully played out —
    /// detection, view change, σ-spaced client reassignment — well before
    /// the trailing third over which the recovered steady state is measured.
    pub fn recovery() -> Self {
        Phases {
            warmup: Duration::from_millis(200),
            measure: Duration::from_millis(3000),
            cooldown: Duration::from_millis(100),
        }
    }

    /// Total virtual horizon of one run.
    pub fn total(&self) -> Duration {
        self.warmup + self.measure + self.cooldown
    }

    /// Start of the measurement window.
    pub fn measure_start(&self) -> Time {
        Time::ZERO + self.warmup
    }

    /// End of the measurement window.
    pub fn measure_end(&self) -> Time {
        Time::ZERO + self.warmup + self.measure
    }

    /// Start of the *tail* window: the final third of the measurement
    /// window. In fault runs this is the post-recovery steady state (the
    /// fault is injected at the start of measurement); in failure-free runs
    /// it is simply a late slice of the same steady state.
    pub fn tail_start(&self) -> Time {
        Time::from_nanos(
            self.measure_end()
                .as_nanos()
                .saturating_sub(self.measure.as_nanos() / 3),
        )
    }
}

/// One cell of an experiment matrix.
#[derive(Clone, Debug)]
pub struct ExperimentSpec {
    /// The measured system.
    pub protocol: ProtocolKind,
    /// The link model.
    pub network: NetworkKind,
    /// The fault scenario.
    pub fault: FaultScenario,
    /// Number of replicas `n`.
    pub n: usize,
    /// Concurrent instances `m` (forced to 1 for [`ProtocolKind::Pbft`]).
    pub m: usize,
    /// Transactions per batch.
    pub batch_size: usize,
    /// Replica-to-replica authentication mode.
    pub crypto: CryptoMode,
    /// Deterministic seed of the run.
    pub seed: u64,
}

impl ExperimentSpec {
    fn crypto_name(&self) -> &'static str {
        match self.crypto {
            CryptoMode::None => "none",
            CryptoMode::Mac => "mac",
            CryptoMode::PublicKey => "pk",
        }
    }

    /// The [`SystemConfig`] this spec describes.
    pub fn system(&self) -> SystemConfig {
        SystemConfig::new(self.n)
            .with_instances(self.m)
            .with_batch_size(self.batch_size)
            .with_crypto(self.crypto)
            .with_seed(self.seed)
    }
}

/// Measurements of one experiment: the two windowed throughputs the runner
/// computes, and the simulator's report every other column is read from.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// The experiment that was run.
    pub spec: ExperimentSpec,
    /// Quorum-committed throughput (txn/s) over the measurement window.
    pub throughput_tps: f64,
    /// Quorum-committed throughput (txn/s) over the *tail* window — the
    /// final third of the measurement window ([`Phases::tail_start`]). In
    /// fault runs this isolates the post-recovery steady state from the
    /// outage; the `recovery` preset's sanity floor checks this column.
    pub tail_tps: f64,
    /// The run's report: `sim.*` snapshot, event count, trace fingerprint
    /// (equal ⇒ identical run) and flight trace.
    pub report: SimReport,
}

impl RunResult {
    /// Client latency in milliseconds: the mean, p50 and p99 of the
    /// `sim.latency_us` histogram (virtual microseconds).
    fn latency_ms(&self) -> (f64, f64, f64) {
        let latency = self
            .report
            .telemetry
            .histogram("sim.latency_us")
            .cloned()
            .unwrap_or_default();
        (
            latency.mean() / 1e3,
            latency.percentile(0.5) as f64 / 1e3,
            latency.percentile(0.99) as f64 / 1e3,
        )
    }
}

/// Runs one experiment with the given phasing.
pub fn run_spec(spec: &ExperimentSpec, phases: &Phases) -> RunResult {
    let mut spec = spec.clone();
    if spec.protocol == ProtocolKind::Pbft {
        // Standalone PBFT has exactly one primary; `m` is not meaningful.
        spec.m = 1;
    }
    let mut config = SimConfig::new(spec.system(), spec.network.model(), phases.total())
        .with_measure_window(phases.measure_start(), phases.measure_end())
        .with_faults(
            spec.fault
                .script(spec.n, phases.measure_start(), phases.measure),
        );
    if let Some(adversary) = spec.fault.adversary(phases.measure_start()) {
        config = config.with_adversary(adversary);
    }
    let report = match spec.protocol {
        ProtocolKind::RccPbft => simulate_rcc_over_pbft(config),
        ProtocolKind::Pbft => simulate_pbft(config),
    };
    RunResult {
        throughput_tps: report.throughput_over(phases.measure_start(), phases.measure_end()),
        tail_tps: report.throughput_over(phases.tail_start(), phases.measure_end()),
        report,
        spec,
    }
}

/// A named experiment matrix.
#[derive(Clone, Debug)]
pub struct Campaign {
    /// Campaign name (used for output file names).
    pub name: String,
    /// The experiments, in execution order.
    pub specs: Vec<ExperimentSpec>,
    /// Phasing applied to every run.
    pub phases: Phases,
}

impl Campaign {
    /// Runs every experiment in order.
    pub fn run(&self) -> CampaignResults {
        self.run_with(|_, _| {})
    }

    /// Runs every experiment, reporting `(index, spec)` to `progress` before
    /// each run (for CLI progress output on stderr).
    pub fn run_with(&self, mut progress: impl FnMut(usize, &ExperimentSpec)) -> CampaignResults {
        let rows = self
            .specs
            .iter()
            .enumerate()
            .map(|(i, spec)| {
                progress(i, spec);
                run_spec(spec, &self.phases)
            })
            .collect();
        CampaignResults {
            name: self.name.clone(),
            rows,
        }
    }
}

/// The collected rows of a campaign.
#[derive(Clone, Debug)]
pub struct CampaignResults {
    /// The campaign's name.
    pub name: String,
    /// One result per experiment, in execution order.
    pub rows: Vec<RunResult>,
}

impl CampaignResults {
    /// CSV emission: a header row plus one row per experiment. Deterministic
    /// byte-for-byte for a fixed campaign and seed.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        out.push_str(
            "protocol,network,fault,n,f,m,batch_size,crypto,seed,throughput_tps,tail_tps,\
             latency_mean_ms,latency_p50_ms,latency_p99_ms,committed_txns,committed_batches,\
             messages,bytes,events,suspicions,view_changes,handoffs,peak_retained,\
             adversary_strikes,trace_fingerprint\n",
        );
        for row in &self.rows {
            let s = &row.spec;
            let (mean, p50, p99) = row.latency_ms();
            let count = |name| row.report.count(name);
            let _ = writeln!(
                out,
                "{},{},{},{},{},{},{},{},{},{:.1},{:.1},{:.3},{:.3},{:.3},{},{},{},{},{},{},{},{},{},{},{:016x}",
                s.protocol.name(),
                s.network.name(),
                s.fault.name(),
                s.n,
                s.system().f,
                s.m,
                s.batch_size,
                s.crypto_name(),
                s.seed,
                row.throughput_tps,
                row.tail_tps,
                mean,
                p50,
                p99,
                count("sim.committed_txns"),
                count("sim.committed_batches"),
                count("sim.messages"),
                count("sim.bytes"),
                row.report.events_processed,
                count("sim.suspicions"),
                count("sim.view_changes"),
                count("sim.client_handoffs"),
                count("sim.peak_retained_log"),
                count("sim.adversary_strikes"),
                row.report.trace_fingerprint,
            );
        }
        out
    }

    /// The stable row key used to label telemetry/flight JSONL lines.
    fn row_label(spec: &ExperimentSpec) -> String {
        format!(
            "{}/{}/{}/n{}/m{}/seed{}",
            spec.protocol.name(),
            spec.network.name(),
            spec.fault.name(),
            spec.n,
            spec.m,
            spec.seed,
        )
    }

    /// JSONL emission of every row's registry snapshot: one line per metric,
    /// each labeled with the row key. Deterministic for a fixed campaign and
    /// seed (`docs/OBSERVABILITY.md` documents the schema).
    pub fn to_telemetry_jsonl(&self) -> String {
        let mut out = String::new();
        for row in &self.rows {
            out.push_str(&row.report.telemetry.to_jsonl(&Self::row_label(&row.spec)));
        }
        out
    }

    /// JSONL emission of every row's flight-recorder trace: one line per
    /// structured event, each labeled with the row key and timestamped in
    /// virtual nanoseconds.
    pub fn to_flight_jsonl(&self) -> String {
        let mut out = String::new();
        for row in &self.rows {
            out.push_str(&rcc_telemetry::dump_jsonl(
                &row.report.flight,
                &Self::row_label(&row.spec),
            ));
        }
        out
    }

    /// Markdown emission: a compact table with the headline columns.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "### Campaign `{}`\n", self.name);
        out.push_str(
            "| protocol | network | fault | n | m | batch | crypto | throughput (txn/s) | tail (txn/s) | p50 (ms) | p99 (ms) | view changes | hand-offs | peak log |\n\
             |---|---|---|---:|---:|---:|---|---:|---:|---:|---:|---:|---:|---:|\n",
        );
        for row in &self.rows {
            let s = &row.spec;
            let (_, p50, p99) = row.latency_ms();
            let _ = writeln!(
                out,
                "| {} | {} | {} | {} | {} | {} | {} | {:.0} | {:.0} | {:.1} | {:.1} | {} | {} | {} |",
                s.protocol.name(),
                s.network.name(),
                s.fault.name(),
                s.n,
                s.m,
                s.batch_size,
                s.crypto_name(),
                row.throughput_tps,
                row.tail_tps,
                p50,
                p99,
                row.report.count("sim.view_changes"),
                row.report.count("sim.client_handoffs"),
                row.report.count("sim.peak_retained_log"),
            );
        }
        out
    }
}

/// The cell every preset starts from: RCC-over-PBFT on the WAN model,
/// failure-free, n = 4, m = 4, batches of 100, MAC authentication. A preset
/// names only what it changes.
fn base_spec(seed: u64) -> ExperimentSpec {
    ExperimentSpec {
        protocol: ProtocolKind::RccPbft,
        network: NetworkKind::Wan,
        fault: FaultScenario::None,
        n: 4,
        m: 4,
        batch_size: 100,
        crypto: CryptoMode::Mac,
        seed,
    }
}

/// One base-spec row per fault scenario, in the order given.
fn one_row_per_fault(seed: u64, faults: &[FaultScenario]) -> Vec<ExperimentSpec> {
    faults
        .iter()
        .map(|&fault| ExperimentSpec {
            fault,
            ..base_spec(seed)
        })
        .collect()
}

/// The CI smoke campaign: a 4-replica deployment, a handful of rows, a few
/// virtual seconds each — seconds of wall-clock time, enough to catch "the
/// simulator broke" and gross performance regressions.
pub fn smoke_campaign(seed: u64) -> Campaign {
    let row = |protocol, m, fault| ExperimentSpec {
        protocol,
        m,
        fault,
        ..base_spec(seed)
    };
    Campaign {
        name: "smoke".into(),
        specs: vec![
            row(ProtocolKind::Pbft, 1, FaultScenario::None),
            row(ProtocolKind::RccPbft, 1, FaultScenario::None),
            row(ProtocolKind::RccPbft, 4, FaultScenario::None),
            row(ProtocolKind::RccPbft, 4, FaultScenario::CrashReplica),
        ],
        phases: Phases::smoke(),
    }
}

/// The Fig. 7-shaped sweep: RCC-over-PBFT under the WAN model, m ∈ {1, 2, 4}
/// × n ∈ {4, 16, 32}, MAC authentication, failure-free. Columns `m` and
/// `throughput_tps` correspond to Fig. 7-left's x- and y-axes.
pub fn fig7_campaign(seed: u64) -> Campaign {
    let mut specs = Vec::new();
    for n in [4usize, 16, 32] {
        for m in [1usize, 2, 4] {
            specs.push(ExperimentSpec {
                n,
                m,
                ..base_spec(seed)
            });
        }
    }
    Campaign {
        name: "fig7".into(),
        specs,
        phases: Phases::standard(),
    }
}

/// The Fig. 7-right-shaped comparison: standalone PBFT, n = 16, on a LAN
/// under the three authentication modes (no authentication, MACs, ED25519
/// signatures) — the paper's three bars. Column `crypto` is Fig. 7-right's
/// x-axis.
pub fn fig7_auth_campaign(seed: u64) -> Campaign {
    let specs = [CryptoMode::None, CryptoMode::Mac, CryptoMode::PublicKey]
        .into_iter()
        .map(|crypto| ExperimentSpec {
            protocol: ProtocolKind::Pbft,
            network: NetworkKind::Lan,
            n: 16,
            m: 1,
            crypto,
            ..base_spec(seed)
        })
        .collect();
    Campaign {
        name: "fig7-auth".into(),
        specs,
        phases: Phases::standard(),
    }
}

/// The Fig. 8-shaped scalability sweep: RCC with `m = n` against standalone
/// PBFT, WAN, n ∈ {4, 16, 32, 64, 91} (the paper's deployment sizes).
/// Expensive: the n = 91 rows simulate tens of millions of events.
pub fn fig8_campaign(seed: u64) -> Campaign {
    let mut specs = Vec::new();
    for n in [4usize, 16, 32, 64, 91] {
        specs.push(ExperimentSpec {
            n,
            m: n,
            ..base_spec(seed)
        });
        specs.push(ExperimentSpec {
            protocol: ProtocolKind::Pbft,
            n,
            m: 1,
            ..base_spec(seed)
        });
    }
    Campaign {
        name: "fig8".into(),
        specs,
        phases: Phases::standard(),
    }
}

/// The fault-tolerance sweep (Fig. 10's spirit): RCC n = 4, m = 4 under each
/// fault scenario, so throughput under failures has a tracked baseline.
pub fn faults_campaign(seed: u64) -> Campaign {
    Campaign {
        name: "faults".into(),
        specs: one_row_per_fault(
            seed,
            &[
                FaultScenario::None,
                FaultScenario::CrashReplica,
                FaultScenario::SilenceCoordinator,
                FaultScenario::ThrottleCoordinator,
            ],
        ),
        phases: Phases {
            warmup: Duration::from_millis(200),
            measure: Duration::from_millis(1500),
            cooldown: Duration::from_millis(100),
        },
    }
}

/// The recovery campaign: the crash → view-change → reassignment →
/// recovered-throughput timeline (Section III-E made measurable). RCC n = 4,
/// m = 4 with a failure-free baseline, a crashed coordinator, and a
/// Byzantine-silent coordinator, each run with a measurement window long
/// enough that the tail third is pure post-recovery steady state. Before the
/// §III-E client assignment landed, the crash row's tail sat at the catch-up
/// no-op cadence (~9 k tps vs a ~102 k baseline — the worst number in the
/// PR 2 baseline table); the `tail_tps` column is where the fix shows, and
/// CI holds it above a sanity floor via `rcc-bench --floor`.
pub fn recovery_campaign(seed: u64) -> Campaign {
    Campaign {
        name: "recovery".into(),
        specs: one_row_per_fault(
            seed,
            &[
                FaultScenario::None,
                FaultScenario::CrashReplica,
                FaultScenario::SilenceCoordinator,
            ],
        ),
        phases: Phases::recovery(),
    }
}

/// The long-horizon campaign: §III-D checkpointing/GC made measurable. RCC
/// n = 4, m = 4 (WAN, MACs) over a **60 s** measurement window — ~40× the
/// `recovery` preset, a horizon that was documented as unusable before
/// checkpointing landed ("keep horizons in the seconds") — with a
/// failure-free row and a crash-*and-recovery* row: the crashed coordinator
/// rejoins 20 s in, long after the survivors pruned its missing rounds, and
/// must catch up through a checkpoint transfer. Read `peak_retained` against
/// `committed_batches`: bounded by O(`checkpoint_interval` × m) versus
/// hundreds of thousands of batches committed. CI gates both directions:
/// `--floor` on the tail throughput (the recovered steady state must match
/// the short `recovery` preset) and `--max-retained` on the memory column.
pub fn long_horizon_campaign(seed: u64) -> Campaign {
    Campaign {
        name: "long-horizon".into(),
        specs: one_row_per_fault(
            seed,
            &[FaultScenario::None, FaultScenario::CrashRecoverReplica],
        ),
        phases: Phases {
            warmup: Duration::from_millis(500),
            measure: Duration::from_secs(60),
            cooldown: Duration::from_millis(500),
        },
    }
}

/// The adversarial chaos campaign: RCC n = 4, m = 4 (WAN, MACs) under the
/// six chaos scenario classes plus a failure-free baseline, each with the
/// long `recovery` phasing so the fault (or the adversary's strike budget)
/// has played out before the tail third is measured. Safety is asserted
/// unconditionally — `simulate_rcc_over_pbft` panics on divergent release
/// orders — and liveness is gated per scenario class: CI runs
/// `rcc-bench --preset chaos --floor TPS`, and each row's gate is
/// `TPS × fault.liveness_floor_factor()` ("degrades gracefully", not
/// "unaffected"). Every row is bit-deterministic per seed: the
/// `trace_fingerprint` column is the witness.
pub fn chaos_campaign(seed: u64) -> Campaign {
    Campaign {
        name: "chaos".into(),
        specs: one_row_per_fault(
            seed,
            &[
                FaultScenario::None,
                FaultScenario::AdaptiveKill,
                FaultScenario::AdaptiveSilence,
                FaultScenario::ClockSkew,
                FaultScenario::AsymmetricPartition,
                FaultScenario::Slowloris,
                FaultScenario::WireMangle,
            ],
        ),
        phases: Phases::recovery(),
    }
}

/// A campaign preset: its name and the function that builds it for a seed.
pub type Preset = (&'static str, fn(u64) -> Campaign);

/// Every campaign preset. The one list `rcc-bench --preset` resolves
/// against and prints.
pub const PRESETS: [Preset; 8] = [
    ("smoke", smoke_campaign),
    ("fig7", fig7_campaign),
    ("fig7-auth", fig7_auth_campaign),
    ("fig8", fig8_campaign),
    ("faults", faults_campaign),
    ("recovery", recovery_campaign),
    ("long-horizon", long_horizon_campaign),
    ("chaos", chaos_campaign),
];

/// Looks a campaign preset up by name in [`PRESETS`].
pub fn campaign_by_name(name: &str, seed: u64) -> Option<Campaign> {
    PRESETS
        .iter()
        .find(|(preset, _)| *preset == name)
        .map(|(_, build)| build(seed))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_campaign(seed: u64) -> Campaign {
        let spec = |m| ExperimentSpec {
            protocol: ProtocolKind::RccPbft,
            network: NetworkKind::Wan,
            fault: FaultScenario::None,
            n: 4,
            m,
            batch_size: 10,
            crypto: CryptoMode::Mac,
            seed,
        };
        Campaign {
            name: "tiny".into(),
            specs: vec![spec(1), spec(4)],
            phases: Phases {
                warmup: Duration::from_millis(150),
                measure: Duration::from_millis(500),
                cooldown: Duration::from_millis(50),
            },
        }
    }

    #[test]
    fn campaign_output_is_deterministic() {
        let a = tiny_campaign(3).run();
        let b = tiny_campaign(3).run();
        assert_eq!(a.to_csv(), b.to_csv());
        assert_eq!(a.to_markdown(), b.to_markdown());
    }

    #[test]
    fn csv_has_header_plus_one_row_per_spec() {
        let results = tiny_campaign(3).run();
        let csv = results.to_csv();
        assert_eq!(csv.lines().count(), 1 + results.rows.len());
        assert!(csv.starts_with("protocol,network,fault,n,f,m,"));
        for row in &results.rows {
            assert!(
                row.report.count("sim.committed_txns") > 0,
                "rows must make progress"
            );
        }
    }

    #[test]
    fn markdown_table_contains_every_protocol_row() {
        let md = tiny_campaign(3).run().to_markdown();
        assert!(md.contains("| rcc-pbft | wan |"));
        assert!(md.starts_with("### Campaign `tiny`"));
    }

    #[test]
    fn pbft_rows_force_single_instance() {
        let spec = ExperimentSpec {
            protocol: ProtocolKind::Pbft,
            network: NetworkKind::Wan,
            fault: FaultScenario::None,
            n: 4,
            m: 4,
            batch_size: 10,
            crypto: CryptoMode::Mac,
            seed: 1,
        };
        let phases = Phases {
            warmup: Duration::from_millis(100),
            measure: Duration::from_millis(300),
            cooldown: Duration::from_millis(50),
        };
        let row = run_spec(&spec, &phases);
        assert_eq!(row.spec.m, 1);
        assert!(row.report.count("sim.committed_txns") > 0);
    }

    #[test]
    fn chaos_preset_covers_every_scenario_class() {
        let campaign = chaos_campaign(1);
        let names: Vec<&str> = campaign.specs.iter().map(|s| s.fault.name()).collect();
        for required in [
            "adaptive-kill",
            "adaptive-silence",
            "clock-skew",
            "asymmetric-partition",
            "slowloris",
            "wire-mangle",
        ] {
            assert!(names.contains(&required), "chaos preset missing {required}");
        }
    }

    #[test]
    fn adaptive_scenarios_carry_an_adversary_schedule() {
        let start = Time::ZERO + Duration::from_millis(200);
        assert!(FaultScenario::AdaptiveKill.adversary(start).is_some());
        assert!(FaultScenario::AdaptiveSilence.adversary(start).is_some());
        assert!(FaultScenario::WireMangle.adversary(start).is_none());
        assert!(FaultScenario::None.adversary(start).is_none());
    }

    #[test]
    fn liveness_floor_factors_scale_down_only() {
        let scenarios = [
            FaultScenario::None,
            FaultScenario::CrashReplica,
            FaultScenario::SilenceCoordinator,
            FaultScenario::ThrottleCoordinator,
            FaultScenario::CrashRecoverReplica,
            FaultScenario::AdaptiveKill,
            FaultScenario::AdaptiveSilence,
            FaultScenario::ClockSkew,
            FaultScenario::AsymmetricPartition,
            FaultScenario::Slowloris,
            FaultScenario::WireMangle,
        ];
        for fault in scenarios {
            let factor = fault.liveness_floor_factor();
            assert!(
                factor > 0.0 && factor <= 1.0,
                "{}: factor {factor} outside (0, 1]",
                fault.name()
            );
        }
        // The classic scenarios keep the full floor — the chaos factors
        // must never weaken the existing CI gates.
        assert_eq!(FaultScenario::None.liveness_floor_factor(), 1.0);
        assert_eq!(
            FaultScenario::CrashRecoverReplica.liveness_floor_factor(),
            1.0
        );
    }

    #[test]
    fn adaptive_kill_lands_strikes_and_keeps_committing() {
        let spec = ExperimentSpec {
            protocol: ProtocolKind::RccPbft,
            network: NetworkKind::Wan,
            fault: FaultScenario::AdaptiveKill,
            n: 4,
            m: 4,
            batch_size: 10,
            crypto: CryptoMode::Mac,
            seed: 7,
        };
        let phases = Phases {
            warmup: Duration::from_millis(150),
            measure: Duration::from_millis(1_000),
            cooldown: Duration::from_millis(50),
        };
        let row = run_spec(&spec, &phases);
        assert!(
            row.report.count("sim.adversary_strikes") > 0,
            "the adversary never struck"
        );
        assert!(
            row.report.count("sim.committed_txns") > 0,
            "chaos run stopped committing"
        );
    }

    #[test]
    fn fig7_auth_keeps_the_papers_none_mac_pk_order() {
        // Fig. 7-right at unit-test scale: the preset's three rows on a
        // short window. Authentication only ever costs throughput, and
        // signatures cost several times what MACs do.
        let campaign = fig7_auth_campaign(1);
        let modes: Vec<CryptoMode> = campaign.specs.iter().map(|s| s.crypto).collect();
        assert_eq!(
            modes,
            [CryptoMode::None, CryptoMode::Mac, CryptoMode::PublicKey]
        );
        let phases = Phases {
            warmup: Duration::from_millis(150),
            measure: Duration::from_millis(400),
            cooldown: Duration::from_millis(50),
        };
        let tps: Vec<f64> = campaign
            .specs
            .iter()
            .map(|spec| run_spec(spec, &phases).throughput_tps)
            .collect();
        let (none, mac, pk) = (tps[0], tps[1], tps[2]);
        assert!(
            none > mac && mac > pk,
            "none {none:.0}, mac {mac:.0}, pk {pk:.0}"
        );
        assert!(mac / pk >= 3.0, "mac {mac:.0} ÷ pk {pk:.0} < 3");
    }

    #[test]
    fn presets_resolve_by_name() {
        for (name, _) in PRESETS {
            let campaign = campaign_by_name(name, 1).expect(name);
            assert!(!campaign.specs.is_empty());
            assert_eq!(campaign.name, name);
        }
        assert!(campaign_by_name("nope", 1).is_none());
    }
}
