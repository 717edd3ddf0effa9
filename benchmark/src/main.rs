//! Wall-clock benchmark of the deployed RCC cluster. See `README.md`.
//!
//! ```text
//! rcc-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! rcc-benchmark run    [--seed <n>] [--seconds <s>]
//! rcc-benchmark trace  [--seed <n>] [--seconds <s>]
//! rcc-benchmark repeat [--sets <k>] [--runs <r>] [--seed <n>] [--seconds <s>]
//! rcc-benchmark manifest
//! ```
//!
//! The first form measures one workload in this process and ends with one
//! JSON line; `run`, `trace` and `repeat` start one such process per
//! measurement, because resident-set growth means nothing in a process whose
//! allocator already holds an earlier run's freed memory. For the same
//! reason a measurement the host disturbed (`check.rs`) is repeated in a
//! fresh child process, which then prints the result; `--attempt` and
//! `--spent` are what a process tells its repeat.

#![forbid(unsafe_code)]

mod catalogue;
mod check;
mod cluster;
mod driver;
mod host;
mod micro;
mod observe;
mod repeat;
mod session;
mod shadow;
mod stats;
mod witness;
mod workload;

use catalogue::{Metric, END_TO_END, PER_LAYER, RUN_SECONDS};
use driver::Driver;
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;
use witness::Witness;
use workload::{Workload, WORKLOADS};

/// A plain run keeps setting up (and at once tearing down) rehearsal
/// deployments for this long before the set-up it measures on; `setup_s` is
/// the median of them all. A time budget rather than a count, because an
/// in-process set-up and teardown take 8 ms and a TCP one 220 ms.
const SETUP_BUDGET_S: f64 = 2.5;
/// Fewest and most set-ups timed per run, whatever the budget says.
const MIN_SETUPS: usize = 5;
const MAX_SETUPS: usize = 201;

/// Most measurements one invocation makes: the first and two repeats.
const MAX_ATTEMPTS: u32 = 3;
/// Seconds one invocation may take in all (the benchmark contract allows 180).
const WALL_BUDGET_S: f64 = 175.0;
/// Seconds a measurement may still need once its deployment has stopped.
const TAIL_S: f64 = 30.0;

/// Where a traced run writes its span and `/proc` files.
const OUT_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");

/// Parsed command line.
struct Args {
    command: Option<String>,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    sets: usize,
    runs: usize,
    attempt: Attempt,
}

/// Which measurement of an invocation this process makes.
struct Attempt {
    /// 1 for the process the user started, then 2, 3 for its repeats.
    number: u32,
    /// Seconds the earlier attempts took.
    spent_s: f64,
    /// When this one started.
    started: Instant,
}

impl Attempt {
    /// Seconds since the invocation began.
    fn elapsed_s(&self) -> f64 {
        self.spent_s + self.started.elapsed().as_secs_f64()
    }

    /// Whether a repeat as long as this attempt still fits the invocation.
    fn may_repeat(&self) -> bool {
        let this_s = self.started.elapsed().as_secs_f64();
        self.number < MAX_ATTEMPTS && self.elapsed_s() + this_s + TAIL_S < WALL_BUDGET_S
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        command: None,
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS as f64,
        trace: false,
        sets: 2,
        runs: 5,
        attempt: Attempt {
            number: 1,
            spent_s: 0.0,
            started: Instant::now(),
        },
    };
    let mut words = std::env::args().skip(1);
    while let Some(word) = words.next() {
        let mut value = |what: &str| words.next().ok_or(format!("{what} needs a value"));
        let number = |text: String| {
            text.parse::<f64>()
                .map_err(|_| format!("not a number: {text}"))
        };
        match word.as_str() {
            "--workload" => args.workload = Some(value("--workload")?),
            "--seed" => args.seed = number(value("--seed")?)? as u64,
            "--seconds" => args.seconds = number(value("--seconds")?)?,
            "--trace" => args.trace = number(value("--trace")?)? != 0.0,
            "--sets" => args.sets = number(value("--sets")?)? as usize,
            "--runs" => args.runs = number(value("--runs")?)? as usize,
            "--attempt" => args.attempt.number = number(value("--attempt")?)? as u32,
            "--spent" => args.attempt.spent_s = number(value("--spent")?)?,
            command if !command.starts_with('-') && args.command.is_none() => {
                args.command = Some(command.to_string())
            }
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".to_string());
    }
    Ok(args)
}

/// What one measurement produced.
struct Measured {
    metrics: BTreeMap<&'static str, f64>,
    attempted: u64,
    failed: u64,
    violations: Vec<String>,
}

fn print_metric(name: &str, value: f64, unit: &str) {
    println!("{name:<42} {value:>16.4} {unit}");
}

/// Prints why batches failed, if any did, and returns how many.
fn count_failures(e2e: &driver::EndToEnd) -> u64 {
    let mut causes = e2e.failures.clone();
    causes.sort();
    for cause in causes.chunk_by(|a, b| a == b) {
        println!("# {} batches failed: {:?}", cause.len(), cause[0]);
    }
    if e2e.rejections > 0 {
        println!(
            "# {} submissions were turned away by a coordinator and sent again",
            e2e.rejections
        );
    }
    e2e.failures.len() as u64
}

/// Whether the attempt that produced `e2e` should be thrown away and made
/// again: the protocol's failure handling fired in a fault-free run
/// (`disturbances`), or — on the first attempt only, so that an hour-long
/// famine cannot triple every run — the host starved the guest. Prints why.
fn measure_again(attempt: &Attempt, e2e: &driver::EndToEnd, disturbances: &[String]) -> bool {
    let starved =
        attempt.number == 1 && e2e.supply_mops > 0.0 && e2e.supply_mops < witness::STARVED_MOPS;
    if starved {
        println!(
            "# attempt 1: the host delivered {:.1} Mop/s, under the {} that count as starved",
            e2e.supply_mops,
            witness::STARVED_MOPS
        );
    }
    for disturbance in disturbances {
        println!("# attempt {} disturbed: {disturbance}", attempt.number);
    }
    (starved || !disturbances.is_empty()) && attempt.may_repeat()
}

/// The plain run: repeated set-up, warm-up, the measure window, the output
/// check. Produces the end-to-end metrics, or `None` when the host disturbed
/// the run and there is time to measure again.
fn measure_plain(
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    attempt: &Attempt,
) -> Result<Option<Measured>, String> {
    print_metric("host.calib_mops.before", host::calib_mops(), "Mop/s");
    let witness = Witness::start();
    let rehearsing = Instant::now();
    let mut setups = Vec::new();
    // One more set-up follows the rehearsals: the one the run measures on.
    while setups.len() + 1 < MIN_SETUPS
        || (setups.len() + 1 < MAX_SETUPS && rehearsing.elapsed().as_secs_f64() < SETUP_BUDGET_S)
    {
        let rehearsal = Driver::start(workload, seed)?;
        setups.push(rehearsal.setup_s);
        rehearsal.shutdown()?;
    }
    let mut driver = Driver::start(workload, seed)?;
    setups.push(driver.setup_s);
    let rehearsed = Instant::now();
    let driven = driver.run(seconds, false);
    let (reports, _) = driver.shutdown()?;
    let supply = witness.stop();
    print_metric("host.calib_mops.after", host::calib_mops(), "Mop/s");

    let e2e = driven.end_to_end(&supply);
    let failed = count_failures(&e2e);
    let disturbances = check::disturbances(&reports, failed);
    if measure_again(attempt, &e2e, &disturbances) {
        return Ok(None);
    }
    let rates: Vec<String> = driven
        .slice_rates()
        .iter()
        .map(|r| format!("{r:.0}"))
        .collect();
    println!("# txn/s by slice, as measured: {}", rates.join(" "));
    println!(
        "# as measured {:.1} txn/s while the host delivered {:.1} Mop/s (quiet: {})",
        e2e.raw_txn_per_s,
        e2e.supply_mops,
        witness::QUIET_MOPS
    );
    println!(
        "# {} set-ups timed; {} latency samples beyond the 95th percentile in the thinnest slice",
        setups.len(),
        e2e.min_tail_samples
    );
    // Set-up is processor-bound on every workload, so it is quoted at the
    // quiet-host speed like the capacity figures.
    let setup_s = stats::median(&setups) / supply.to_quiet(rehearsing, rehearsed);
    let mut violations = check::wrong_outputs(&driven, &reports);
    violations.extend(disturbances);
    Ok(Some(Measured {
        metrics: BTreeMap::from([
            ("setup_s", setup_s),
            ("txn_per_s", e2e.txn_per_s),
            ("lat_p50_ms", e2e.lat_p50_ms),
            ("lat_p95_ms", e2e.lat_p95_ms),
            ("mem_kb_per_ktxn", e2e.mem_kb_per_ktxn),
        ]),
        attempted: e2e.attempted,
        failed,
        violations,
    }))
}

/// The traced run: the observed deployment, then the shadow trace of the
/// same inputs, then the isolated loops. Produces the per-layer metrics, or
/// `None` as [`measure_plain`] does.
fn measure_traced(
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    attempt: &Attempt,
) -> Result<Option<Measured>, String> {
    let witness = Witness::start();
    let mut driver = Driver::start(workload, seed)?;
    let driven = driver.run(seconds, true);
    let (reports, lived_s) = driver.shutdown()?;
    let e2e = driven.end_to_end(&witness.stop());
    let failed = count_failures(&e2e);
    let disturbances = check::disturbances(&reports, failed);
    if measure_again(attempt, &e2e, &disturbances) {
        return Ok(None);
    }
    let mut violations = check::wrong_outputs(&driven, &reports);
    violations.extend(disturbances);
    let mut metrics: BTreeMap<&'static str, f64> = observe::metrics(&driven, &reports, lived_s)
        .into_iter()
        .collect();
    metrics.extend([
        ("host.supply_mops", e2e.supply_mops),
        ("client.raw_txn_per_s", e2e.raw_txn_per_s),
    ]);

    let replay = shadow::replay(workload, seed, shadow::ROUNDS, true);
    let again = shadow::replay(workload, seed, shadow::REPEAT_ROUNDS, false);
    violations.extend(replay.violations.iter().map(|v| format!("shadow: {v}")));
    if replay.counts.per_round[..again.counts.per_round.len()] != again.counts.per_round[..] {
        violations
            .push("shadow: two replays of one seed put different frames on the wire".to_string());
    }
    let batches = replay.counts.confirmed.max(1) as f64;
    for (layer, self_ns) in shadow::self_time_by_layer(&replay.spans) {
        // Layers without a catalogue entry (the delivery and client-side
        // spans) stay in the span file only.
        if let Some(metric) = PER_LAYER
            .iter()
            .find(|m| m.name.strip_suffix("_us") == Some(layer))
        {
            metrics.insert(metric.name, self_ns as f64 / 1e3 / batches);
        }
    }
    let txns = batches * workload.batch_size as f64;
    metrics.extend([
        ("shadow.txn_per_s", txns / replay.elapsed_s),
        (
            "wire.frames_per_batch",
            replay.counts.frames as f64 / batches,
        ),
        ("wire.bytes_per_batch", replay.counts.bytes as f64 / batches),
        (
            "core.actions_per_batch",
            replay.counts.actions as f64 / batches,
        ),
        (
            "execution.groups_per_round",
            shadow::groups_per_round(workload, seed, shadow::ROUNDS),
        ),
    ]);
    metrics.extend(micro::run());

    let write = |file: String, contents: String| {
        std::fs::create_dir_all(OUT_DIR)
            .and_then(|()| std::fs::write(format!("{OUT_DIR}/{file}"), contents))
            .map_err(|e| format!("could not write {OUT_DIR}/{file}: {e}"))
    };
    write(
        format!("trace-{}.jsonl", workload.name),
        shadow::to_jsonl(&replay.spans),
    )?;
    write(
        format!("proc-{}.jsonl", workload.name),
        observe::proc_series_jsonl(&driven),
    )?;
    println!(
        "# {} spans in {OUT_DIR}/trace-{}.jsonl",
        replay.spans.len(),
        workload.name
    );
    Ok(Some(Measured {
        metrics,
        attempted: e2e.attempted,
        failed,
        violations,
    }))
}

/// The contract's last line.
fn result_json(measured: &Measured, listed: &[Metric]) -> String {
    let metrics: Vec<String> = listed
        .iter()
        .map(|m| {
            let value = measured
                .metrics
                .get(m.name)
                .copied()
                .filter(|v| v.is_finite());
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                value.unwrap_or(0.0),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        measured.violations.is_empty(),
        measured.attempted.max(1),
        measured.failed,
        metrics.join(", ")
    )
}

/// Measures one workload and prints its result: in this process, or — when
/// the host disturbed the measurement — in a fresh child process that
/// measures again.
fn measure(
    name: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    attempt: &Attempt,
) -> Result<bool, String> {
    let workload = workload::by_name(name).ok_or(format!(
        "unknown workload {name}; one of: {}",
        WORKLOADS.map(|w| w.name).join(", ")
    ))?;
    println!(
        "# workload {name}  seed {seed}  seconds {seconds}  trace {}  attempt {}",
        u8::from(trace),
        attempt.number
    );
    let (measured, listed) = if trace {
        let measured = measure_traced(workload, seed, seconds, attempt)?;
        (measured, &PER_LAYER[..])
    } else {
        let measured = measure_plain(workload, seed, seconds, attempt)?;
        (measured, &END_TO_END[..])
    };
    let Some(mut measured) = measured else {
        println!("# measuring again in a fresh process");
        let status = repeat::child(name, seed, seconds, trace)?
            .args(["--attempt", &(attempt.number + 1).to_string()])
            .args(["--spent", &attempt.elapsed_s().to_string()])
            .status()
            .map_err(|e| format!("could not start the repeat: {e}"))?;
        return Ok(status.success());
    };
    for m in listed {
        match measured.metrics.get(m.name) {
            Some(&value) => print_metric(m.name, value, m.unit),
            None => measured
                .violations
                .push(format!("metric {} was not measured", m.name)),
        }
    }
    println!(
        "# batches attempted {}  failed {}",
        measured.attempted, measured.failed
    );
    for violation in &measured.violations {
        println!("# OUTPUT CHECK FAILED: {violation}");
    }
    if measured.violations.is_empty() {
        println!("# output check passed");
    }
    println!("{}", result_json(&measured, listed));
    Ok(measured.violations.is_empty())
}

fn main() -> ExitCode {
    let outcome = parse_args().and_then(|args| match (args.command.as_deref(), &args.workload) {
        (None, Some(name)) => measure(name, args.seed, args.seconds, args.trace, &args.attempt),
        (Some("run"), _) => repeat::each_workload(args.seed, args.seconds, false),
        (Some("trace"), _) => repeat::each_workload(args.seed, args.seconds, true),
        (Some("repeat"), _) => repeat::sets(args.sets, args.runs, args.seed, args.seconds),
        (Some("manifest"), _) => {
            print!("{}", catalogue::manifest());
            Ok(true)
        }
        _ => Err(
            "usage: rcc-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> \
                  | run | trace | repeat [--sets <k>] [--runs <r>] | manifest"
                .to_string(),
        ),
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("rcc-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
