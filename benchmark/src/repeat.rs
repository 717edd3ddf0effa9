//! Running the benchmark more than once: all four workloads in a row, and
//! alternating sets of runs of one binary compared against the bounds.
//!
//! Every measurement is a child process of this same executable in its
//! one-workload form, so each starts from a clean allocator and thread
//! table.

use crate::catalogue::{Better, END_TO_END};
use crate::stats::{median, quartiles, relative_spread};
use crate::workload::WORKLOADS;
use std::process::{Command, Stdio};

/// A run whose calibration is further than this from its set's median ran
/// on a disturbed host. It is flagged, never dropped.
const CALIB_TOLERANCE: f64 = 0.10;

/// This executable again, in its one-workload form.
pub fn child(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<Command, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut command = Command::new(exe);
    command.args(["--workload", workload, "--seed", &seed.to_string()]);
    command.args([
        "--seconds",
        &seconds.to_string(),
        "--trace",
        if trace { "1" } else { "0" },
    ]);
    Ok(command)
}

/// `run` and `trace`: every workload once, output passed through.
pub fn each_workload(seed: u64, seconds: f64, trace: bool) -> Result<bool, String> {
    let mut all_correct = true;
    for workload in &WORKLOADS {
        let status = child(workload.name, seed, seconds, trace)?
            .status()
            .map_err(|e| format!("could not start the {} run: {e}", workload.name))?;
        all_correct &= status.success();
        println!();
    }
    Ok(all_correct)
}

/// The number after `"<name>": {"value": ` in a result line.
pub fn value_in(result_line: &str, name: &str) -> Option<f64> {
    let after = result_line
        .split(&format!("\"{name}\": {{\"value\": "))
        .nth(1)?;
    after.split([',', '}']).next()?.trim().parse().ok()
}

/// One child run: its end-to-end metrics in catalogue order and the
/// calibration it printed before measuring.
fn one_run(workload: &str, seed: u64, seconds: f64) -> Result<(Vec<f64>, f64), String> {
    let output = child(workload, seed, seconds, false)?
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("could not start the {workload} run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let result = stdout.lines().last().unwrap_or_default();
    if !output.status.success() || !result.contains("\"correct\": true") {
        return Err(format!(
            "the {workload} run with seed {seed} failed:\n{stdout}"
        ));
    }
    let values = END_TO_END
        .iter()
        .map(|m| value_in(result, m.name).ok_or(format!("no {} in: {result}", m.name)))
        .collect::<Result<Vec<f64>, String>>()?;
    let calib = stdout
        .lines()
        .find_map(|line| line.strip_prefix("host.calib_mops.before"))
        .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
        .unwrap_or(0.0);
    Ok((values, calib))
}

/// `repeat`: `sets` interleaved sets of `runs` runs each (run `r` of every
/// set uses seed `seed + r`), then per workload × metric each set's median
/// and quartiles, its spread, and how much worse each later set's median
/// is than the first's, against the metric's bound. `Ok(false)` when a
/// later set's median is worse than the first's by more than the bound. The
/// spread is printed for the reader only: over five runs the quartiles are
/// nearly the extremes, so it overstates what ten runs would show.
pub fn sets(sets: usize, runs: usize, seed: u64, seconds: f64) -> Result<bool, String> {
    let (sets, runs) = (sets.max(1), runs.max(1));
    // values[workload][set][metric][run], calib[workload][set][run]
    let mut values = vec![vec![vec![Vec::new(); END_TO_END.len()]; sets]; WORKLOADS.len()];
    let mut calib = vec![vec![Vec::new(); sets]; WORKLOADS.len()];
    for run in 0..runs {
        for set in 0..sets {
            for (w, workload) in WORKLOADS.iter().enumerate() {
                let (metrics, mops) = one_run(workload.name, seed + run as u64, seconds)?;
                println!(
                    "# set {set} run {run} {:<8} calib {mops:>7.1} Mop/s  {metrics:?}",
                    workload.name
                );
                for (m, value) in metrics.into_iter().enumerate() {
                    values[w][set][m].push(value);
                }
                calib[w][set].push(mops);
            }
        }
    }
    let mut within = true;
    println!("\nworkload  metric            set      median          q1          q3  spread   worse-than-set-0  bound");
    for (w, workload) in WORKLOADS.iter().enumerate() {
        for (m, metric) in END_TO_END.iter().enumerate() {
            let first = median(&values[w][0][m]);
            for (set, of_set) in values[w].iter().enumerate() {
                let samples = &of_set[m];
                let (q1, q2, q3) = quartiles(samples);
                let spread = relative_spread(samples);
                // How much worse this set's median is than the first's, in
                // the metric's own bad direction.
                let worse = match metric.better {
                    Better::Lower => (q2 - first) / first,
                    Better::Higher => (first - q2) / first,
                };
                let exceeded = worse > metric.bound;
                within &= !exceeded;
                println!(
                    "{:<9} {:<17} {set:>3} {q2:>11.4} {q1:>11.4} {q3:>11.4} {:>6.1}% {:>17.1}% {:>5.0}%{}",
                    workload.name,
                    metric.name,
                    spread * 100.0,
                    worse * 100.0,
                    metric.bound * 100.0,
                    if exceeded { "  EXCEEDED" } else { "" }
                );
            }
        }
        for (set, mops) in calib[w].iter().enumerate() {
            let centre = median(mops);
            let disturbed: Vec<usize> = (0..runs)
                .filter(|&run| (mops[run] - centre).abs() > CALIB_TOLERANCE * centre)
                .collect();
            println!(
                "{:<9} host.calib_mops   {set:>3} {centre:>11.1}  runs on a disturbed host: {disturbed:?}",
                workload.name
            );
        }
    }
    Ok(within)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_are_read_back_from_a_result_line() {
        let line = "{\"correct\": true, \"attempted\": 12, \"failed\": 0, \"metrics\": {\"setup_s\": \
                    {\"value\": 0.0102, \"unit\": \"s\"}, \"txn_per_s\": {\"value\": 53600, \"unit\": \"1/s\"}}}";
        assert_eq!(value_in(line, "setup_s"), Some(0.0102));
        assert_eq!(value_in(line, "txn_per_s"), Some(53600.0));
        assert_eq!(value_in(line, "lat_p50_ms"), None);
    }
}
