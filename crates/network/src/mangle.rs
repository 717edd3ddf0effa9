//! Wire-level fuzzing: the [`ByteMangler`] and its transport interposer.
//!
//! The simulator's `MangleWire` fault models a hostile network at the
//! message level; this module is the byte-level counterpart for the real
//! deployment stack, so the TCP cluster can be attacked the same way the
//! sim is. A [`ByteMangler`] takes each outbound frame (the interposer
//! unpacks every outbound run, and packs what the mangler emits for its
//! frames into the one run it passes on) and — with a seeded,
//! reproducible probability — corrupts a multi-byte run, truncates it,
//! splices in bytes from a previously seen frame, duplicates it, replays an
//! old frame alongside it, or holds it back to reorder it behind the next
//! one. [`MangledTransport`] plugs the mangler into any
//! [`crate::transport::Transport`] as an optional interposer on the
//! replica-to-replica links.
//!
//! The safety contract being exercised: every mangled frame must be either
//! rejected by the codec with a typed [`rcc_common::codec::WireError`] (and
//! therefore dropped at the frame boundary — a message loss consensus
//! already tolerates) or decoded into a well-formed message that
//! re-encodes canonically. Never a panic, never a silent
//! half-interpretation; `verify_identical_orders` holding across a
//! manglered cluster is the end-to-end witness.

use crate::run;
use crate::transport::Transport;
use rcc_common::rng::SplitMix64;
use rcc_common::{ClientId, ReplicaId};
use std::collections::VecDeque;
use std::sync::Mutex;
use std::time::Duration;

/// Configuration of one wire-fuzzing interposer.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MangleConfig {
    /// Seed of the mangler's private random stream (derive it from the
    /// run's seed for reproducible chaos).
    pub seed: u64,
    /// Mangling probability in events per million frames.
    pub rate_ppm: u32,
}

impl MangleConfig {
    /// A mangler hitting ~`rate_ppm` frames per million, seeded with `seed`.
    pub fn new(seed: u64, rate_ppm: u32) -> Self {
        MangleConfig { seed, rate_ppm }
    }
}

/// Counters of what the mangler actually did (useful when asserting that a
/// chaos run exercised anything at all).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct MangleStats {
    /// Frames passed through untouched.
    pub passed: u64,
    /// Frames with one or more corrupted byte runs.
    pub corrupted: u64,
    /// Frames cut short.
    pub truncated: u64,
    /// Frames with a window overwritten by bytes of an earlier frame.
    pub spliced: u64,
    /// Frames emitted twice.
    pub duplicated: u64,
    /// Old frames re-emitted alongside a current one.
    pub replayed: u64,
    /// Frames held back and emitted after their successor.
    pub reordered: u64,
}

impl MangleStats {
    /// Total frames the mangler altered in any way.
    pub fn mangled(&self) -> u64 {
        self.corrupted
            + self.truncated
            + self.spliced
            + self.duplicated
            + self.replayed
            + self.reordered
    }
}

/// How many recently seen frames the mangler keeps as splice/replay donors.
const DONOR_RING: usize = 16;
/// Longest corrupted byte run.
const MAX_CORRUPT_RUN: usize = 16;

/// A seeded byte-level frame fuzzer.
///
/// `mangle` maps one outbound frame to zero or more frames to actually put
/// on the wire. All randomness comes from the private [`SplitMix64`]
/// stream, so a given `(seed, frame sequence)` always produces the same
/// chaos.
pub struct ByteMangler {
    rng: SplitMix64,
    rate_ppm: u32,
    /// Recently seen frames: donors for splices and replays.
    recent: VecDeque<Vec<u8>>,
    /// A frame held back for reordering (emitted behind the next one).
    held: Option<Vec<u8>>,
    stats: MangleStats,
}

impl ByteMangler {
    /// Builds a mangler from its configuration.
    pub fn new(config: MangleConfig) -> Self {
        ByteMangler {
            rng: SplitMix64::new(config.seed),
            rate_ppm: config.rate_ppm,
            recent: VecDeque::new(),
            held: None,
            stats: MangleStats::default(),
        }
    }

    /// What the mangler has done so far.
    pub fn stats(&self) -> MangleStats {
        self.stats
    }

    /// Remembers `frame` as a future splice/replay donor.
    fn remember(&mut self, frame: &[u8]) {
        if self.recent.len() == DONOR_RING {
            self.recent.pop_front();
        }
        self.recent.push_back(frame.to_vec());
    }

    /// XORs 1–3 random runs of 1–[`MAX_CORRUPT_RUN`] bytes each.
    fn corrupt(&mut self, frame: &mut [u8]) {
        if frame.is_empty() {
            return;
        }
        let runs = 1 + self.rng.next_below(3) as usize;
        for _ in 0..runs {
            let start = self.rng.next_below(frame.len() as u64) as usize;
            let len =
                (1 + self.rng.next_below(MAX_CORRUPT_RUN as u64) as usize).min(frame.len() - start);
            for byte in &mut frame[start..start + len] {
                // Never a zero mask: every touched byte really changes.
                *byte ^= 1 + self.rng.next_below(255) as u8;
            }
        }
    }

    /// Overwrites a window of `frame` with bytes taken from a donor frame.
    fn splice(&mut self, frame: &mut [u8]) {
        let Some(donor_index) = (!self.recent.is_empty())
            .then(|| self.rng.next_below(self.recent.len() as u64) as usize)
        else {
            return;
        };
        let donor = self.recent[donor_index].clone();
        if frame.is_empty() || donor.is_empty() {
            return;
        }
        let dst = self.rng.next_below(frame.len() as u64) as usize;
        let src = self.rng.next_below(donor.len() as u64) as usize;
        let len = (1 + self.rng.next_below(64) as usize)
            .min(frame.len() - dst)
            .min(donor.len() - src);
        frame[dst..dst + len].copy_from_slice(&donor[src..src + len]);
    }

    /// Maps one outbound frame to the frames actually put on the wire
    /// (possibly none — dropped/held — or several — duplicates/replays).
    pub fn mangle(&mut self, frame: Vec<u8>) -> Vec<Vec<u8>> {
        let mut out: Vec<Vec<u8>> = Vec::with_capacity(2);
        let selected = self.rng.next_below(1_000_000) < self.rate_ppm as u64;
        if !selected {
            self.stats.passed += 1;
            out.push(frame);
        } else {
            match self.rng.next_below(6) {
                0 => {
                    self.stats.corrupted += 1;
                    let mut damaged = frame;
                    self.corrupt(&mut damaged);
                    out.push(damaged);
                }
                1 => {
                    self.stats.truncated += 1;
                    let mut cut = frame;
                    let keep = self.rng.next_below(cut.len().max(1) as u64) as usize;
                    cut.truncate(keep);
                    out.push(cut);
                }
                2 => {
                    self.stats.spliced += 1;
                    let mut patched = frame;
                    self.splice(&mut patched);
                    out.push(patched);
                }
                3 => {
                    self.stats.duplicated += 1;
                    out.push(frame.clone());
                    out.push(frame);
                }
                4 => {
                    self.stats.replayed += 1;
                    if let Some(old) = (!self.recent.is_empty())
                        .then(|| self.rng.next_below(self.recent.len() as u64) as usize)
                        .map(|index| self.recent[index].clone())
                    {
                        out.push(old);
                    }
                    out.push(frame);
                }
                _ => {
                    self.stats.reordered += 1;
                    if let Some(previous) = self.held.replace(frame) {
                        out.push(previous);
                    }
                }
            }
        }
        // A held frame rides out *behind* whatever goes now — that is the
        // reorder. (If nothing goes now it simply waits for the next call.)
        if !out.is_empty() {
            if let Some(held) = self.held.take() {
                out.push(held);
            }
        }
        for emitted in &out {
            self.remember(emitted);
        }
        out
    }
}

/// Mangles `run` frame by frame — the mangler sees exactly the frame
/// sequence it would have seen had each frame been sent on its own — and
/// packs everything it emits, in order, into one well-formed run (possibly
/// empty: every frame dropped or held back). The damage stays inside the
/// records, as it did when each mangled frame travelled on its own: the
/// length prefix was never among the bytes the mangler saw.
fn mangle_run(mangler: &mut ByteMangler, run: &[u8]) -> Vec<u8> {
    let mut mangled = Vec::with_capacity(run.len());
    for frame in run::frames(run).flatten() {
        for emitted in mangler.mangle(frame.to_vec()) {
            run::pack_frame(&mut mangled, &emitted);
        }
    }
    mangled
}

/// A [`Transport`] interposer that runs every outbound replica-to-replica
/// frame through a [`ByteMangler`]. Client traffic and the receive path
/// pass through untouched: the attack surface under test is the consensus
/// wire, mirroring the simulator's `MangleWire` fault.
pub struct MangledTransport<T: Transport> {
    inner: T,
    mangler: Mutex<ByteMangler>,
}

impl<T: Transport> MangledTransport<T> {
    /// Wraps `inner`, mangling its outbound replica frames per `config`.
    pub fn new(inner: T, config: MangleConfig) -> Self {
        MangledTransport {
            inner,
            mangler: Mutex::new(ByteMangler::new(config)),
        }
    }

    /// What the interposer's mangler has done so far.
    pub fn stats(&self) -> MangleStats {
        crate::lock_unpoisoned(&self.mangler).stats()
    }
}

impl<T: Transport> Transport for MangledTransport<T> {
    fn send_to_replica(&self, to: ReplicaId, run: Vec<u8>) {
        let mangled = mangle_run(&mut crate::lock_unpoisoned(&self.mangler), &run);
        if !mangled.is_empty() {
            self.inner.send_to_replica(to, mangled);
        }
    }

    fn send_to_client(&self, to: ClientId, frame: Vec<u8>) {
        self.inner.send_to_client(to, frame);
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Option<Vec<u8>> {
        self.inner.recv_timeout(timeout)
    }

    fn try_recv(&mut self) -> Option<Vec<u8>> {
        self.inner.try_recv()
    }

    fn shutdown(&mut self) {
        self.inner.shutdown()
    }

    fn telemetry(&self) -> &crate::telemetry::EdgeTelemetry {
        self.inner.telemetry()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frames(count: usize) -> Vec<Vec<u8>> {
        (0..count)
            .map(|i| {
                (0..64)
                    .map(|b| (b as u8).wrapping_mul(i as u8 + 1))
                    .collect()
            })
            .collect()
    }

    #[test]
    fn zero_rate_passes_everything_through_untouched() {
        let mut mangler = ByteMangler::new(MangleConfig::new(7, 0));
        for frame in frames(50) {
            let out = mangler.mangle(frame.clone());
            assert_eq!(out, vec![frame]);
        }
        assert_eq!(mangler.stats().mangled(), 0);
        assert_eq!(mangler.stats().passed, 50);
    }

    #[test]
    fn full_rate_mangles_and_is_deterministic_per_seed() {
        let run = |seed: u64| {
            let mut mangler = ByteMangler::new(MangleConfig::new(seed, 1_000_000));
            let outputs: Vec<Vec<Vec<u8>>> =
                frames(200).into_iter().map(|f| mangler.mangle(f)).collect();
            (outputs, mangler.stats())
        };
        let (a, stats_a) = run(42);
        let (b, stats_b) = run(42);
        assert_eq!(a, b, "same seed must produce identical chaos");
        assert_eq!(stats_a, stats_b);
        assert_eq!(stats_a.passed, 0);
        assert_eq!(stats_a.mangled(), 200);
        // Every mutation class fires over 200 frames at full rate.
        assert!(stats_a.corrupted > 0);
        assert!(stats_a.truncated > 0);
        assert!(stats_a.spliced > 0);
        assert!(stats_a.duplicated > 0);
        assert!(stats_a.replayed > 0);
        assert!(stats_a.reordered > 0);
        let (c, _) = run(43);
        assert_ne!(a, c, "different seeds must diverge");
    }

    #[test]
    fn reordered_frames_are_emitted_not_lost() {
        // Frame conservation at full mangle rate: at most one frame is ever
        // held back for reordering, and only duplicates/replays add frames.
        let mut mangler = ByteMangler::new(MangleConfig::new(3, 1_000_000));
        let mut emitted = 0usize;
        for frame in frames(100) {
            emitted += mangler.mangle(frame).len();
        }
        let stats = mangler.stats();
        let held_now = usize::from(mangler.held.is_some());
        assert!(emitted + held_now >= 100);
        assert!(emitted <= 100 + stats.duplicated as usize + stats.replayed as usize);
    }

    #[test]
    fn a_mangled_run_holds_exactly_what_the_per_frame_mangler_emits() {
        // One mangler is fed frame by frame, its twin the same frames packed
        // into runs of 1, 2, 3, … frames: same emitted frames, same order,
        // same count, same counters — and every run it passes on is well
        // formed, however its frames were damaged.
        for rate_ppm in [0, 50_000, 1_000_000] {
            let sent = frames(250);
            let mut single = ByteMangler::new(MangleConfig::new(11, rate_ppm));
            let expected: Vec<Vec<u8>> = sent
                .iter()
                .flat_map(|frame| single.mangle(frame.clone()))
                .collect();

            let mut packed = ByteMangler::new(MangleConfig::new(11, rate_ppm));
            let mut emitted: Vec<Vec<u8>> = Vec::new();
            let mut rest = &sent[..];
            for size in (1..=24).cycle() {
                if rest.is_empty() {
                    break;
                }
                let (now, later) = rest.split_at(size.min(rest.len()));
                rest = later;
                let mut run = Vec::new();
                for frame in now {
                    run::pack_frame(&mut run, frame);
                }
                let mangled = mangle_run(&mut packed, &run);
                for frame in run::frames(&mangled) {
                    emitted.push(frame.expect("a well-formed run").to_vec());
                }
            }
            assert_eq!(emitted.len(), expected.len(), "{rate_ppm} ppm");
            assert_eq!(emitted, expected, "{rate_ppm} ppm");
            assert_eq!(packed.stats(), single.stats());
            assert_eq!(packed.stats().mangled() > 0, rate_ppm > 0);
        }
    }
}
