//! The load driver: every session multiplexed on the calling thread, timed
//! on one nanosecond clock.
//!
//! A run is set-up, a warm-up, then a measure window cut into
//! [`SLICES`] equal slices. Throughput and tail latency are reported as
//! the *median over slices*, so one slice a noisy neighbour disturbed
//! cannot move them; the window's length comes from `--seconds`. What the
//! neighbours do to whole runs is taken out by quoting each slice of a
//! closed loop at the quiet-host speed (`witness.rs`).

use crate::cluster::Cluster;
use crate::host::{self, ProcSample};
use crate::session::{Completion, Failure, Session, REPLY_TIMEOUT_NS};
use crate::stats::{by_slice, median, percentile, slope, Slice};
use crate::witness::Supply;
use crate::workload::{Arrival, BatchSource, Workload, INSTANCES};
use rcc_common::Digest;
use rcc_crypto::AuthTag;
use rcc_network::{Frame, NodeReport};
use std::time::{Duration, Instant};

/// Slices the measure window is cut into.
pub const SLICES: usize = 8;
/// Warm-up before the measure window: long enough for every node to have
/// passed its first checkpoint (64 rounds: 1.3 s on `light`, 0.5 s on the
/// others) and for allocator arenas to settle.
pub const WARMUP_NS: u64 = 2_000_000_000;
/// Longest park of the driver when nothing moved in a pass. Sockets have
/// no readiness notification here (no `libc`), so this bounds how stale a
/// reply's timestamp can be.
const IDLE_PARK_NS: u64 = 200_000;
/// How often timed-out batches are looked for.
const EXPIRE_EVERY_NS: u64 = 50_000_000;
/// Seconds between `/proc/self` samples of a traced run.
const SAMPLE_EVERY_NS: u64 = 1_000_000_000;
/// Memory readings between a workload's two memory marks, both included.
const MEM_READINGS: u64 = 17;
/// Longest the first round may take before set-up is declared failed.
const SETUP_TIMEOUT_NS: u64 = 10_000_000_000;

/// Everything one pass over the deployment produced, before any statistic.
pub struct Driven {
    /// The workload that was driven.
    pub workload: &'static Workload,
    /// The sessions with their completions and failures.
    pub sessions: Vec<Session>,
    /// Zero of the driver clock.
    pub clock: Instant,
    /// Start of the measure window on the driver clock.
    pub measure_start_ns: u64,
    /// Length of one slice.
    pub slice_ns: u64,
    /// `(transactions confirmed so far, VmRSS in kB)` read when the run's
    /// confirmed count passed each of [`MEM_READINGS`] evenly spaced counts
    /// from the workload's first memory mark to its second, and once more
    /// at the end of a run too short to reach them all.
    pub mem: Vec<(u64, u64)>,
    /// Traced runs: `/proc/self`, the context switches of every thread and
    /// the transactions confirmed so far, at the two edges of the window.
    pub proc_edges: Vec<(ProcSample, u64, u64)>,
    /// Traced runs: `(driver ns, sample)` every second of the odd slices.
    pub proc_series: Vec<(u64, ProcSample)>,
    /// Frames that failed to decode, replies whose MAC did not verify, and
    /// connection-level refusals: each a violation of the output check.
    pub bad_frames: u64,
    /// Client sockets that died during the run.
    pub dead_links: usize,
}

/// Whether slice `index` of a traced run is an observed one. Observation
/// alternates slice by slice so that its cost is a within-run comparison
/// (`trace.overhead_pct`) and a drift over the run cancels.
pub fn observed_slice(index: usize) -> bool {
    index % 2 == 1
}

/// A started deployment with its sessions, on one clock that began when
/// set-up did.
pub struct Driver {
    cluster: Cluster,
    workload: &'static Workload,
    sessions: Vec<Session>,
    /// Zero of the driver clock: the instant set-up began.
    pub clock: Instant,
    inbound: Vec<Vec<u8>>,
    bad_frames: u64,
    /// Transactions confirmed since set-up began.
    confirmed_txns: u64,
    /// Seconds from the start of set-up until the cluster had confirmed
    /// one batch of every session — one full round through every layer.
    /// Link-up alone takes 3 ms and says nothing about the nodes, which
    /// boot on their own threads; a confirmed round does.
    pub setup_s: f64,
}

impl Driver {
    /// Sets the deployment up: keys, nodes, links, and one confirmed batch
    /// per session.
    pub fn start(workload: &'static Workload, seed: u64) -> Result<Driver, String> {
        let clock = Instant::now();
        let cluster = Cluster::start(workload, seed)?;
        let quorum = cluster.system.client_reply_quorum();
        let linked_ns = clock.elapsed().as_nanos() as u64;
        let sessions = (0..INSTANCES)
            .map(|s| {
                let source = BatchSource::new(workload, seed, s);
                Session::new(source, workload.arrival, quorum, linked_ns)
            })
            .collect();
        let mut driver = Driver {
            cluster,
            workload,
            sessions,
            clock,
            inbound: Vec::new(),
            bad_frames: 0,
            confirmed_txns: 0,
            setup_s: 0.0,
        };
        for index in 0..INSTANCES {
            driver.submit_next(index);
        }
        while driver.sessions.iter().any(|s| s.completions.is_empty()) {
            if driver.now_ns() > SETUP_TIMEOUT_NS {
                return Err("set-up: the first round was not confirmed within 10 s".to_string());
            }
            if !(0..INSTANCES).fold(false, |moved, index| driver.receive(index) | moved) {
                std::thread::sleep(Duration::from_nanos(IDLE_PARK_NS / 4));
            }
        }
        driver.setup_s = driver.clock.elapsed().as_secs_f64();
        Ok(driver)
    }

    fn now_ns(&self) -> u64 {
        self.clock.elapsed().as_nanos() as u64
    }

    /// Sends `session`'s next due batch, if it has one.
    fn submit_next(&mut self, session: usize) -> bool {
        let sent_ns = self.now_ns();
        let Some(submission) = self.sessions[session].next_submission(sent_ns) else {
            return false;
        };
        let (coordinator, frame) = self.cluster.submit_frame(session, &submission.batch);
        if !self.cluster.links.send(session, coordinator, frame) {
            self.sessions[session].fail(sent_ns, submission.digest, Failure::Unsent);
        }
        true
    }

    /// Hands `session` whatever its links have ready. `true` when anything
    /// arrived.
    fn receive(&mut self, index: usize) -> bool {
        self.cluster.links.poll(index, &mut self.inbound);
        // One timestamp for everything this poll surfaced: it all became
        // visible to the client at this instant.
        let seen_ns = self.now_ns();
        let moved = !self.inbound.is_empty();
        let session = &mut self.sessions[index];
        let replica_keys = &self.cluster.keys[index].mac_with_replicas;
        for bytes in self.inbound.drain(..) {
            match Frame::decode_frame(&bytes) {
                Ok(Frame::ClientReply {
                    replica,
                    digest,
                    tag: AuthTag::Mac(mac),
                }) if replica_keys
                    .get(replica.index())
                    .is_some_and(|key| key.verify(digest.as_bytes(), &mac)) =>
                {
                    if session.on_reply(seen_ns, replica, digest) {
                        self.confirmed_txns += self.workload.batch_size as u64;
                    }
                }
                Ok(Frame::ClientAccept { digest, .. }) => session.on_accept(seen_ns, digest),
                Ok(Frame::ClientReject { digest, .. }) if digest != Digest::ZERO => {
                    session.on_reject(seen_ns, digest)
                }
                // Undecodable bytes, a reply that fails its MAC, or the
                // edge's zero-digest admission refusal.
                _ => self.bad_frames += 1,
            }
        }
        moved
    }

    /// Drives the deployment through warm-up, the measure window of
    /// `seconds`, and the drain of what is still in flight after it.
    pub fn run(&mut self, seconds: f64, trace: bool) -> Driven {
        let window_ns = (seconds * 1e9) as u64;
        let slice_ns = window_ns / SLICES as u64;
        let measure_start_ns = self.now_ns() + WARMUP_NS.min(window_ns);
        let measure_end_ns = measure_start_ns + slice_ns * SLICES as u64;
        let drain_deadline_ns = measure_end_ns + REPLY_TIMEOUT_NS + 500_000_000;

        let [first_mark, last_mark] = self.workload.mem_marks_ktxn.map(|ktxn| ktxn * 1000);
        let mem_step = (last_mark - first_mark) / (MEM_READINGS - 1);
        let mut mem = Vec::with_capacity(MEM_READINGS as usize);
        let window_edges = [measure_start_ns, measure_end_ns];
        let mut proc_edges = Vec::with_capacity(2);
        let mut proc_series = Vec::new();
        let mut next_sample_ns = measure_start_ns;
        let mut next_expire_ns = 0;

        loop {
            let pass_ns = self.now_ns();
            let readings = mem.len() as u64;
            if readings < MEM_READINGS && self.confirmed_txns >= first_mark + readings * mem_step {
                mem.push((self.confirmed_txns, host::rss_kb()));
            }
            // Traced: sample /proc/self the first time a pass starts past
            // each edge of the window.
            if trace && proc_edges.len() < 2 && pass_ns >= window_edges[proc_edges.len()] {
                proc_edges.push((
                    host::sample(),
                    host::context_switches(),
                    self.confirmed_txns,
                ));
            }
            let submitting = pass_ns < measure_end_ns;
            let drained = || self.sessions.iter().all(|s| s.unconfirmed() == 0);
            if !submitting && (drained() || pass_ns >= drain_deadline_ns) {
                break;
            }
            if trace && submitting && pass_ns >= next_sample_ns {
                let slice = ((pass_ns - measure_start_ns) / slice_ns.max(1)) as usize;
                if observed_slice(slice) {
                    proc_series.push((pass_ns, host::sample()));
                }
                next_sample_ns += SAMPLE_EVERY_NS;
            }

            let mut moved = false;
            for index in 0..INSTANCES {
                moved |= self.receive(index);
                while submitting && self.submit_next(index) {
                    moved = true;
                }
            }
            let after_ns = self.now_ns();
            if after_ns >= next_expire_ns {
                self.sessions.iter_mut().for_each(|s| s.expire(after_ns));
                next_expire_ns = after_ns + EXPIRE_EVERY_NS;
            }
            if !moved {
                // Nothing is sent during the drain, so nothing is due.
                let next_due_ns = self.sessions.iter().filter_map(Session::next_due_ns).min();
                let until_due_ns = next_due_ns
                    .filter(|_| submitting)
                    .map_or(u64::MAX, |due| due.saturating_sub(after_ns));
                let park_ns = IDLE_PARK_NS.min(until_due_ns);
                std::thread::sleep(Duration::from_nanos(park_ns));
            }
        }
        if (mem.len() as u64) < MEM_READINGS {
            mem.push((self.confirmed_txns, host::rss_kb()));
        }
        Driven {
            workload: self.workload,
            sessions: std::mem::take(&mut self.sessions),
            clock: self.clock,
            measure_start_ns,
            slice_ns,
            mem,
            proc_edges,
            proc_series,
            bad_frames: self.bad_frames,
            dead_links: self.cluster.links.dead(),
        }
    }

    /// Stops the nodes and returns their reports with the seconds the
    /// deployment lived, from the start of set-up to the stop request.
    pub fn shutdown(self) -> Result<(Vec<NodeReport>, f64), String> {
        let lived_s = self.clock.elapsed().as_secs_f64();
        Ok((self.cluster.shutdown()?, lived_s))
    }
}

/// The five end-to-end metrics of one run, plus the counts the contract
/// wants beside them.
#[derive(Clone, Debug, Default)]
pub struct EndToEnd {
    /// Median over slices of transactions confirmed per second; on a closed
    /// loop each slice is quoted at the quiet-host speed.
    pub txn_per_s: f64,
    /// Median latency over every batch confirmed in the window, ms; on a
    /// closed loop each batch is quoted at the quiet-host speed.
    pub lat_p50_ms: f64,
    /// Median over slices of the per-slice 95th-percentile latency, ms,
    /// quoted likewise.
    pub lat_p95_ms: f64,
    /// Median over slices of transactions confirmed per wall second, as
    /// measured.
    pub raw_txn_per_s: f64,
    /// What the witness read over the window, Mop/s (0 when it saw nothing).
    pub supply_mops: f64,
    /// Resident-set growth per thousand transactions confirmed, kB: the
    /// least-squares slope over the readings between the workload's two
    /// memory marks.
    pub mem_kb_per_ktxn: f64,
    /// Batches due inside the window.
    pub attempted: u64,
    /// Of those, the ones that failed, by cause.
    pub failures: Vec<Failure>,
    /// Fewest latency samples beyond the 95th percentile in any slice.
    pub min_tail_samples: usize,
    /// `ClientReject`s over the whole run; each was answered by a retry.
    pub rejections: u64,
}

impl Driven {
    /// End of the measure window on the driver clock.
    pub fn measure_end_ns(&self) -> u64 {
        self.measure_start_ns + self.slice_ns * SLICES as u64
    }

    /// Every completion of every session.
    pub fn completions(&self) -> impl Iterator<Item = &Completion> {
        self.sessions.iter().flat_map(|s| s.completions.iter())
    }

    /// The measure window's slices: the latencies (ms) of the batches
    /// confirmed in each, and each one's length.
    pub fn slices(&self) -> Vec<Slice> {
        let arrival = self.workload.arrival;
        let events: Vec<(u64, f64)> = self
            .completions()
            .map(|c| (c.done_ns, c.latency_ns(arrival) as f64 / 1e6))
            .collect();
        by_slice(&events, self.measure_start_ns, self.slice_ns, SLICES)
    }

    /// Transactions confirmed per second in each slice.
    pub fn slice_rates(&self) -> Vec<f64> {
        self.slices()
            .iter()
            .map(|s| {
                (s.values.len() * self.workload.batch_size) as f64 / (s.span_ns.max(1) as f64 / 1e9)
            })
            .collect()
    }

    /// The instant `ns` on the driver clock.
    fn at(&self, ns: u64) -> Instant {
        self.clock + Duration::from_nanos(ns)
    }

    /// Reduces the run to its end-to-end metrics.
    ///
    /// A closed loop is capacity-bound: its rate is whatever the processors
    /// the host delivered could confirm, and by Little's law its latency is
    /// the window divided by that rate. Both are therefore quoted at the
    /// quiet-host speed, slice by slice, by what the witness read in the
    /// slice (`witness.rs`). On an open loop the rate is the schedule's and
    /// the latency is mostly timer and wake-up waits, which a faster
    /// processor does not shorten; those are quoted as measured.
    pub fn end_to_end(&self, supply: &Supply) -> EndToEnd {
        let slices = self.slices();
        let capacity_bound = matches!(self.workload.arrival, Arrival::Closed { .. });
        let to_quiet: Vec<f64> = slices
            .iter()
            .map(|s| match capacity_bound {
                true => {
                    supply.capacity_to_quiet(self.at(s.start_ns), self.at(s.start_ns + s.span_ns))
                }
                false => 1.0,
            })
            .collect();
        let scaled = || slices.iter().zip(&to_quiet);
        let rates = self.slice_rates();
        let quiet_rates: Vec<f64> = rates.iter().zip(&to_quiet).map(|(r, k)| r * k).collect();
        let all: Vec<f64> = scaled()
            .flat_map(|(s, k)| s.values.iter().map(move |v| v / k))
            .collect();
        let tails: Vec<f64> = scaled()
            .map(|(s, k)| percentile(&s.values, 0.95) / k)
            .collect();
        let window = self.measure_start_ns..self.measure_end_ns();
        let due_in_window = |due: &u64| window.contains(due);
        let failures: Vec<Failure> = self
            .sessions
            .iter()
            .flat_map(|s| s.failures.iter())
            .filter(|(due, _)| due_in_window(due))
            .map(|&(_, why)| why)
            .collect();
        let confirmed = self
            .completions()
            .filter(|c| due_in_window(&c.due_ns))
            .count() as u64;
        let mem: Vec<(f64, f64)> = self
            .mem
            .iter()
            .map(|&(txns, rss_kb)| (txns as f64 / 1000.0, rss_kb as f64))
            .collect();
        EndToEnd {
            txn_per_s: median(&quiet_rates),
            lat_p50_ms: percentile(&all, 0.5),
            lat_p95_ms: median(&tails),
            raw_txn_per_s: median(&rates),
            supply_mops: supply
                .mops_between(self.at(window.start), self.at(window.end))
                .unwrap_or(0.0),
            mem_kb_per_ktxn: slope(&mem),
            attempted: confirmed + failures.len() as u64,
            failures,
            min_tail_samples: slices
                .iter()
                .map(|s| s.values.len() / 20)
                .min()
                .unwrap_or(0),
            rejections: self.sessions.iter().map(|s| s.rejections).sum(),
        }
    }
}
