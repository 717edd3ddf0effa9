//! The simulator's pre-registered telemetry handles.
//!
//! One [`SimTelemetry`] bundle is created per [`crate::Simulation`]: every
//! metric the event loop records is resolved to a handle here, once, so the
//! hot path never touches the registry's name map. The clock is a
//! [`VirtualClock`] advanced to each event's virtual time, which keeps every
//! flight-recorder timestamp — and therefore the whole telemetry output —
//! bit-deterministic under a fixed seed (the property
//! `crates/sim/tests/determinism.rs` pins down and clippy's
//! `disallowed_types` denial of wall clocks in this crate enforces
//! statically).

use rcc_telemetry::{
    Counter, FlightEvent, FlightEventKind, FlightRecorder, Gauge, Histogram, Registry, Snapshot,
    TelemetryClock, VirtualClock,
};

/// Capacity of the simulator's flight-recorder ring. A recovery scenario
/// emits a few dozen structured events; 4096 keeps several consecutive
/// view-change storms without eviction while bounding memory.
pub const SIM_FLIGHT_CAPACITY: usize = 4096;

/// Pre-registered handles for everything the simulation loop measures.
///
/// Metric names (all prefixed `sim.`) are part of the documented catalog in
/// `docs/OBSERVABILITY.md`; renaming one is an observable schema change.
pub struct SimTelemetry {
    registry: Registry,
    /// Virtual time source for flight-event timestamps; the event loop
    /// advances it to each processed event's time.
    pub(crate) clock: VirtualClock,
    flight: FlightRecorder,
    /// Client transactions that completed their `f + 1` reply quorum.
    pub(crate) committed_txns: Counter,
    /// Batches that completed their reply quorum.
    pub(crate) committed_batches: Counter,
    /// Replica-to-replica messages delivered.
    pub(crate) messages: Counter,
    /// Replica-to-replica bytes delivered.
    pub(crate) bytes: Counter,
    /// `SuspectPrimary` actions (σ-lag detections) across all replicas.
    pub(crate) suspicions: Counter,
    /// `ViewChanged` actions across all replicas.
    pub(crate) view_changes: Counter,
    /// §III-E client hand-offs (drains plus σ-spaced returns).
    pub(crate) client_handoffs: Counter,
    /// Target acquisitions by the adaptive adversary.
    pub(crate) adversary_strikes: Counter,
    /// High-water mark of any replica's retained per-slot log entries,
    /// sampled after every event. With §III-D checkpointing it stays bounded
    /// by O(`checkpoint_interval` × m) whatever the horizon.
    pub(crate) peak_retained_log: Gauge,
    /// Client-perceived submit-to-quorum latency of batches submitted inside
    /// the measurement window, in virtual microseconds. Percentiles are
    /// bucket upper bounds (at most 12.5 % above the sample); the mean is
    /// exact.
    pub(crate) latency_us: Histogram,
}

impl SimTelemetry {
    /// Builds a fresh registry and resolves every handle the loop needs.
    pub(crate) fn new() -> SimTelemetry {
        let registry = Registry::default();
        SimTelemetry {
            clock: VirtualClock::new(),
            flight: FlightRecorder::new(SIM_FLIGHT_CAPACITY),
            committed_txns: registry.counter("sim.committed_txns"),
            committed_batches: registry.counter("sim.committed_batches"),
            messages: registry.counter("sim.messages"),
            bytes: registry.counter("sim.bytes"),
            suspicions: registry.counter("sim.suspicions"),
            view_changes: registry.counter("sim.view_changes"),
            client_handoffs: registry.counter("sim.client_handoffs"),
            adversary_strikes: registry.counter("sim.adversary_strikes"),
            peak_retained_log: registry.gauge("sim.peak_retained_log"),
            latency_us: registry.histogram("sim.latency_us"),
            registry,
        }
    }

    /// Records one structured flight event at the current virtual time.
    pub(crate) fn event(&self, source: u32, kind: FlightEventKind) {
        self.flight.record(self.clock.now_nanos(), source, kind);
    }

    /// A point-in-time snapshot of every registered metric.
    pub(crate) fn snapshot(&self) -> Snapshot {
        self.registry.snapshot()
    }

    /// The flight-recorder ring's retained events, oldest first.
    pub(crate) fn flight_events(&self) -> Vec<FlightEvent> {
        self.flight.events()
    }
}
