//! The clock seam of the telemetry layer — **the only file in this crate
//! (and in any crate instrumented through it) that may touch `std::time`**.
//!
//! Metrics and flight-recorder events are timestamped, but the layers being
//! instrumented disagree about what "now" means:
//!
//! * the deterministic layers (`rcc-sim`, and through it `rcc-core`) run on
//!   *virtual* time — reading a wall clock there would break bit-for-bit
//!   reproducibility, so clippy's `disallowed_types` denies it;
//! * the deployment layers (`rcc-node`, the client edge, the fleet driver)
//!   run on *wall* time.
//!
//! [`TelemetryClock`] abstracts the difference: the simulator injects a
//! [`VirtualClock`] it advances from its event loop, while `rcc-node`
//! injects a [`WallClock`] anchored at process start. Instrumented code
//! never names `Instant` — it asks the clock for nanoseconds.
//!
//! The crate root denies `disallowed_types`, so `Instant` / `SystemTime`
//! anywhere else under `crates/telemetry/src` fails clippy; the expectation
//! below lifts it for this file alone.

#![expect(
    clippy::disallowed_types,
    reason = "the clock seam: the one sanctioned `std::time` site of the telemetry layer"
)]

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A monotonic nanosecond clock, injected by the layer being instrumented.
pub trait TelemetryClock: Send + Sync {
    /// Nanoseconds since the clock's epoch (run start).
    fn now_nanos(&self) -> u64;
}

/// Virtual time, advanced explicitly by a deterministic event loop.
///
/// Clones share the same underlying time cell, so a single simulation can
/// hand the clock to many instrumented components and advance them all at
/// once. [`VirtualClock::advance_to`] is monotone (`fetch_max`), which keeps
/// the clock well-behaved even if a caller replays an earlier timestamp.
#[derive(Clone, Debug, Default)]
pub struct VirtualClock {
    nanos: Arc<AtomicU64>,
}

impl VirtualClock {
    /// A virtual clock at nanosecond zero.
    pub fn new() -> VirtualClock {
        VirtualClock::default()
    }

    /// Advances the clock to `nanos` (no-op when time already passed it).
    pub fn advance_to(&self, nanos: u64) {
        self.nanos.fetch_max(nanos, Ordering::Relaxed);
    }
}

impl TelemetryClock for VirtualClock {
    fn now_nanos(&self) -> u64 {
        self.nanos.load(Ordering::Relaxed)
    }
}

/// Wall time, anchored at construction — the deployment-side clock.
#[derive(Clone, Debug)]
pub struct WallClock {
    epoch: Instant,
}

impl WallClock {
    /// A wall clock whose epoch is "now".
    pub fn new() -> WallClock {
        WallClock {
            epoch: Instant::now(),
        }
    }
}

impl Default for WallClock {
    fn default() -> WallClock {
        WallClock::new()
    }
}

impl TelemetryClock for WallClock {
    fn now_nanos(&self) -> u64 {
        // Saturate rather than wrap: a u64 of nanoseconds covers ~584 years
        // of run time, but the cast from u128 must still be total.
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn virtual_clock_is_shared_and_monotone() {
        let clock = VirtualClock::new();
        let alias = clock.clone();
        assert_eq!(clock.now_nanos(), 0);
        clock.advance_to(500);
        assert_eq!(alias.now_nanos(), 500);
        // Replaying an earlier time never moves the clock backwards.
        alias.advance_to(100);
        assert_eq!(clock.now_nanos(), 500);
    }

    #[test]
    fn wall_clock_advances() {
        let clock = WallClock::new();
        let a = clock.now_nanos();
        std::thread::sleep(std::time::Duration::from_millis(2));
        let b = clock.now_nanos();
        assert!(b > a, "wall clock did not advance ({a} -> {b})");
    }
}
