//! What the host tells us about this process and about itself: `/proc/self`
//! readings and the machine-speed calibration loop.
//!
//! The cluster's nodes are threads of the benchmark process, so process-wide
//! readings cover the whole deployment plus the (single-threaded) driver.

use std::fs;
use std::hint::black_box;
use std::time::Instant;

/// Kernel clock ticks per second in `/proc/self/stat` (`USER_HZ`, fixed at
/// 100 on Linux whatever the scheduler tick is).
const USER_HZ: f64 = 100.0;

/// One reading of `/proc/self`.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ProcSample {
    /// Resident set size in kB (`VmRSS`).
    pub rss_kb: u64,
    /// Live threads.
    pub threads: u64,
    /// CPU milliseconds in user mode, all threads, since process start.
    pub cpu_user_ms: f64,
    /// CPU milliseconds in kernel mode, all threads, since process start.
    pub cpu_sys_ms: f64,
}

/// Reads `VmRSS` alone — the one reading the plain (untraced) run takes.
pub fn rss_kb() -> u64 {
    status_field(
        &fs::read_to_string("/proc/self/status").unwrap_or_default(),
        "VmRSS:",
    )
}

fn status_field(status: &str, key: &str) -> u64 {
    status
        .lines()
        .find_map(|line| line.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|value| value.parse().ok())
        .unwrap_or(0)
}

/// Samples memory, thread count and CPU time of the whole process.
pub fn sample() -> ProcSample {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    let stat = fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name, which may hold spaces;
    // `utime` and `stime` are fields 14 and 15 of the whole line, so 11 and
    // 12 (0-based) after the closing parenthesis.
    let after_comm: Vec<&str> = stat
        .rsplit_once(')')
        .map(|(_, rest)| rest.split_whitespace().collect())
        .unwrap_or_default();
    let ticks = |index: usize| -> f64 {
        after_comm
            .get(index)
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    ProcSample {
        rss_kb: status_field(&status, "VmRSS:"),
        threads: status_field(&status, "Threads:"),
        cpu_user_ms: ticks(11) * 1000.0 / USER_HZ,
        cpu_sys_ms: ticks(12) * 1000.0 / USER_HZ,
    }
}

/// Voluntary plus involuntary context switches summed over every live
/// thread (`/proc/self/status` alone reports the main thread only).
pub fn context_switches() -> u64 {
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .flatten()
        .filter_map(|task| fs::read_to_string(task.path().join("status")).ok())
        .map(|status| {
            status_field(&status, "voluntary_ctxt_switches:")
                + status_field(&status, "nonvoluntary_ctxt_switches:")
        })
        .sum()
}

/// Iterations of the calibration loop.
const CALIB_OPS: u64 = 40_000_000;

/// `ops` iterations of the machine-speed kernel: four independent chains of
/// integer multiplies and xor-shifts that touch no memory and no repository
/// code. Four chains rather than one, so that the loop keeps the
/// processor's ports about as busy as ordinary code does and slows down
/// with it when a neighbour shares the core.
pub fn spin(ops: u64) -> u64 {
    let mut x: [u64; 4] = black_box([
        0x9E37_79B9_7F4A_7C15,
        0xBF58_476D_1CE4_E5B9,
        0x94D0_49BB_1331_11EB,
        0x2545_F491_4F6C_DD1D,
    ]);
    for i in 0..ops {
        for chain in &mut x {
            *chain = (*chain ^ (*chain >> 29))
                .wrapping_mul(0xBF58_476D_1CE4_E5B9)
                .wrapping_add(i);
        }
    }
    black_box(x[0] ^ x[1] ^ x[2] ^ x[3])
}

/// The machine-speed witness run alone on the calling thread: millions of
/// [`spin`] iterations per wall second. Two runs whose calibration differs
/// ran on a differently loaded host, whatever their other numbers say.
pub fn calib_mops() -> f64 {
    let start = Instant::now();
    spin(CALIB_OPS);
    CALIB_OPS as f64 / start.elapsed().as_secs_f64() / 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readings_are_live() {
        let sample = sample();
        assert!(sample.rss_kb > 0);
        assert!(sample.threads >= 1);
        assert!(rss_kb() > 0);
        // Yield a few times so the count is certainly non-zero.
        for _ in 0..3 {
            std::thread::yield_now();
        }
        assert!(context_switches() > 0);
    }

    #[test]
    fn status_fields_parse_by_key() {
        let status = "Name:\tx\nVmRSS:\t    1256 kB\nThreads:\t7\n";
        assert_eq!(status_field(status, "VmRSS:"), 1256);
        assert_eq!(status_field(status, "Threads:"), 7);
        assert_eq!(status_field(status, "Missing:"), 0);
    }
}
