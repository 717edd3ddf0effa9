//! `rcc-bench` — the campaign runner CLI.
//!
//! Runs a named experiment campaign over the discrete-event simulator and
//! writes `<out>/<campaign>.csv` (machine-readable, archived by CI) and
//! `<out>/<campaign>.md` (human-readable). The Markdown table is also
//! printed to stdout; progress goes to stderr so stdout stays deterministic.
//!
//! ```text
//! rcc-bench [--preset smoke|fig7|fig7-auth|fig8|faults|recovery|long-horizon|chaos]
//!           [--seed N] [--out DIR] [--floor TPS] [--max-retained N]
//!           [--dump-events] [--quiet]
//! ```
//!
//! `--floor TPS` turns the run into a regression gate: the process exits
//! non-zero when any row's tail-window throughput (`tail_tps`, the final
//! third of the measurement window — the post-recovery steady state in
//! fault runs) falls below the floor. CI runs the `recovery` preset this
//! way so a regression in client reassignment (Section III-E) fails the
//! build instead of silently shipping a post-crash throughput collapse.
//! Each row's effective gate is the floor scaled by its scenario's
//! `liveness_floor_factor` — 1.0 for the classic scenarios, fractional for
//! the `chaos` preset's scenario classes, where the assertion is that
//! liveness *degrades gracefully* under an adaptive adversary rather than
//! being unaffected.
//!
//! `--max-retained N` is the memory-side gate: exit non-zero when any row's
//! peak retained per-slot log (`peak_retained`) exceeds `N` entries. CI runs
//! the `long-horizon` preset this way so a regression in §III-D
//! checkpointing/garbage collection — logs quietly growing with the horizon
//! again — fails the build.
//!
//! See `docs/EVALUATION.md` for what each campaign measures and how the
//! output columns map back to the paper's figures.

use rcc_bench::{campaign_by_name, PRESETS};
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    preset: String,
    seed: u64,
    out: PathBuf,
    floor: Option<f64>,
    max_retained: Option<u64>,
    dump_events: bool,
    quiet: bool,
}

fn preset_names() -> String {
    PRESETS.map(|(name, _)| name).join(", ")
}

fn usage() -> String {
    format!(
        "usage: rcc-bench [--preset NAME] [--seed N] [--out DIR] [--floor TPS] \
         [--max-retained N] [--dump-events] [--quiet]\n\
         presets: {}\n\
         defaults: --preset smoke --seed {} --out bench-results\n\
         --floor TPS: exit non-zero when any row's tail-window throughput falls below TPS\n\
         --max-retained N: exit non-zero when any row's peak retained log exceeds N entries\n\
         --dump-events: print every row's flight-recorder trace to stderr \
         (a floor violation dumps the offending row's trace regardless)",
        preset_names(),
        rcc_common::config::DEFAULT_SEED,
    )
}

/// A parsed invocation: either "show the usage text" or a run request.
enum Cli {
    Help,
    Run(Args),
}

fn parse_args() -> Result<Cli, String> {
    let mut args = Args {
        preset: "smoke".into(),
        seed: rcc_common::config::DEFAULT_SEED,
        out: PathBuf::from("bench-results"),
        floor: None,
        max_retained: None,
        dump_events: false,
        quiet: false,
    };
    let mut iter = std::env::args().skip(1);
    while let Some(flag) = iter.next() {
        match flag.as_str() {
            "--preset" => {
                args.preset = iter.next().ok_or("--preset needs a value")?;
            }
            "--seed" => {
                let v = iter.next().ok_or("--seed needs a value")?;
                args.seed = v.parse().map_err(|_| format!("invalid seed: {v}"))?;
            }
            "--out" => {
                args.out = PathBuf::from(iter.next().ok_or("--out needs a value")?);
            }
            "--floor" => {
                let v = iter.next().ok_or("--floor needs a value")?;
                args.floor = Some(v.parse().map_err(|_| format!("invalid floor: {v}"))?);
            }
            "--max-retained" => {
                let v = iter.next().ok_or("--max-retained needs a value")?;
                args.max_retained = Some(
                    v.parse()
                        .map_err(|_| format!("invalid max-retained: {v}"))?,
                );
            }
            "--dump-events" => args.dump_events = true,
            "--quiet" => args.quiet = true,
            "--help" | "-h" => return Ok(Cli::Help),
            other => return Err(format!("unknown argument: {other}\n{}", usage())),
        }
    }
    Ok(Cli::Run(args))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Cli::Run(args)) => args,
        Ok(Cli::Help) => {
            println!("{}", usage());
            return ExitCode::SUCCESS;
        }
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };
    let Some(campaign) = campaign_by_name(&args.preset, args.seed) else {
        eprintln!(
            "unknown preset `{}` (expected one of: {})",
            args.preset,
            preset_names()
        );
        return ExitCode::FAILURE;
    };
    let total = campaign.specs.len();
    let quiet = args.quiet;
    let results = campaign.run_with(|i, spec| {
        if !quiet {
            eprintln!(
                "[{}/{total}] {} {} n={} m={} batch={} fault={} …",
                i + 1,
                spec.protocol.name(),
                spec.network.name(),
                spec.n,
                spec.m,
                spec.batch_size,
                spec.fault.name(),
            );
        }
    });
    if results
        .rows
        .iter()
        .any(|r| r.report.count("sim.committed_txns") == 0)
    {
        eprintln!("error: a run committed zero transactions — the simulator is broken");
        return ExitCode::FAILURE;
    }
    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!("error: cannot create {}: {e}", args.out.display());
        return ExitCode::FAILURE;
    }
    let csv_path = args.out.join(format!("{}.csv", results.name));
    let md_path = args.out.join(format!("{}.md", results.name));
    if let Err(e) = std::fs::write(&csv_path, results.to_csv()) {
        eprintln!("error: cannot write {}: {e}", csv_path.display());
        return ExitCode::FAILURE;
    }
    if let Err(e) = std::fs::write(&md_path, results.to_markdown()) {
        eprintln!("error: cannot write {}: {e}", md_path.display());
        return ExitCode::FAILURE;
    }
    let telemetry_path = args.out.join(format!("{}-telemetry.jsonl", results.name));
    let flight_path = args.out.join(format!("{}-flight.jsonl", results.name));
    if let Err(e) = std::fs::write(&telemetry_path, results.to_telemetry_jsonl()) {
        eprintln!("error: cannot write {}: {e}", telemetry_path.display());
        return ExitCode::FAILURE;
    }
    if let Err(e) = std::fs::write(&flight_path, results.to_flight_jsonl()) {
        eprintln!("error: cannot write {}: {e}", flight_path.display());
        return ExitCode::FAILURE;
    }
    print!("{}", results.to_markdown());
    if args.dump_events {
        for row in &results.rows {
            eprintln!(
                "--- flight: {} {} fault={} seed={} ---",
                row.spec.protocol.name(),
                row.spec.network.name(),
                row.spec.fault.name(),
                row.spec.seed,
            );
            eprint!("{}", rcc_telemetry::dump_text(&row.report.flight));
        }
    }
    // The floor gate runs *after* the results are on disk and stdout, so a
    // failing run still leaves its CSV/Markdown evidence for debugging.
    if let Some(floor) = args.floor {
        let mut failed = false;
        for row in &results.rows {
            // Chaos scenario classes accept a degraded-but-alive tail: the
            // gate is the floor scaled by the scenario's liveness factor
            // (1.0 for classic scenarios, fractional for chaos — see
            // `FaultScenario::liveness_floor_factor`).
            let gate = floor * row.spec.fault.liveness_floor_factor();
            if row.tail_tps < gate {
                failed = true;
                eprintln!(
                    "error: tail-window throughput below the floor: {} {} fault={} \
                     tail_tps={:.0} < {gate:.0} (floor {floor:.0} × factor {:.2}; \
                     post-recovery steady state regressed?)",
                    row.spec.protocol.name(),
                    row.spec.network.name(),
                    row.spec.fault.name(),
                    row.tail_tps,
                    row.spec.fault.liveness_floor_factor(),
                );
                // Dump the offending row's flight trace — with the violation
                // stamped onto its tail — so the failure mode (missed
                // detection? view-change loop? hand-off storm?) is visible in
                // the CI log without a re-run.
                let violation = rcc_telemetry::FlightEvent {
                    at_nanos: row.report.flight.last().map_or(0, |event| event.at_nanos),
                    source: 0,
                    kind: rcc_telemetry::FlightEventKind::FloorViolation {
                        observed: row.tail_tps as u64,
                        floor: gate as u64,
                    },
                };
                if args.dump_events {
                    eprint!("{}", rcc_telemetry::dump_text(&[violation]));
                } else {
                    let mut trace = row.report.flight.clone();
                    trace.push(violation);
                    eprint!("{}", rcc_telemetry::dump_text(&trace));
                }
            }
        }
        if failed {
            return ExitCode::FAILURE;
        }
    }
    if let Some(cap) = args.max_retained {
        let mut failed = false;
        for row in &results.rows {
            let peak = row.report.count("sim.peak_retained_log");
            if peak > cap {
                failed = true;
                eprintln!(
                    "error: peak retained log above the cap: {} {} fault={} \
                     peak_retained={} > {cap} (checkpointing/GC regressed?)",
                    row.spec.protocol.name(),
                    row.spec.network.name(),
                    row.spec.fault.name(),
                    peak,
                );
                // Same rationale as the floor gate: the flight trace shows
                // whether checkpoints stabilized at all (and how far apart)
                // without a re-run.
                if !args.dump_events {
                    eprint!("{}", rcc_telemetry::dump_text(&row.report.flight));
                }
            }
        }
        if failed {
            return ExitCode::FAILURE;
        }
    }
    if !quiet {
        eprintln!("wrote {} and {}", csv_path.display(), md_path.display());
    }
    ExitCode::SUCCESS
}
