//! Deployment-side telemetry bundles: the wall-clock counterparts of the
//! simulator's `SimTelemetry`.
//!
//! Two bundles live here, one per deployment layer:
//!
//! * [`NodeTelemetry`] — owned by each `rcc-node` mailbox thread. Times the
//!   staged pipeline (drain → verify → dispatch → execute) per burst,
//!   tracks the drained-burst high-water mark, counts what the node did
//!   (`node.replies_sent`, `node.auth_failures`, `node.decode_failures`,
//!   `node.suspicions`, `node.view_changes`), and flight-records consensus
//!   events (σ-lag suspicions, completed view changes).
//! * [`EdgeTelemetry`] — owned by every [`crate::Transport`] (and by the
//!   client fleet). Counts drops and admission (`transport.*`); over TCP
//!   the [`crate::event_loop::ClientEdge`] also times its sweeps, tracks
//!   per-connection outbound-queue occupancy, and flight-records admission
//!   rejections into it.
//!
//! These registries are the only place a deployment counts anything.
//!
//! Both bundles stamp flight events with a [`WallClock`] anchored at
//! construction — the sanctioned `std::time` seam of the telemetry layer —
//! and both are cheap to clone: clones share the underlying registry and
//! ring, so a handle can be kept outside the owning thread (e.g. by the
//! periodic snapshot emitter in `bin/rcc-node.rs`) while the hot path
//! records lock-free. Metric names are part of the documented catalog in
//! `docs/OBSERVABILITY.md`.

use rcc_telemetry::{
    Counter, FlightEvent, FlightEventKind, FlightRecorder, Gauge, Histogram, Registry, Snapshot,
    TelemetryClock, WallClock,
};

/// Capacity of a node's flight-recorder ring. Consensus events are rare
/// (a handful per view change); 1024 retains many consecutive recovery
/// episodes while bounding memory.
pub const NODE_FLIGHT_CAPACITY: usize = 1024;

/// Capacity of the client edge's flight-recorder ring. Admission rejections
/// and reconnects can burst with fleet churn, so the edge keeps a larger
/// ring than a node.
pub const EDGE_FLIGHT_CAPACITY: usize = 4096;

/// Pre-registered handles for everything a replica node's mailbox thread
/// measures.
#[derive(Clone)]
pub struct NodeTelemetry {
    registry: Registry,
    clock: WallClock,
    flight: FlightRecorder,
    /// Per-burst time spent draining and decoding inbound frames, in µs.
    pub(crate) drain_us: Histogram,
    /// Per-burst time spent in batched authentication, in µs.
    pub(crate) verify_us: Histogram,
    /// Per-burst time spent dispatching verified frames into the protocol,
    /// in µs.
    pub(crate) dispatch_us: Histogram,
    /// Per-burst time spent executing newly released rounds, in µs.
    pub(crate) execute_us: Histogram,
    /// High-water mark of the drained burst length in frames — how deep the
    /// inbound queue got between mailbox turns.
    pub(crate) queue_depth: Gauge,
    /// Frames in each drained burst: what one mailbox turn verifies together
    /// and, per peer, sends together.
    pub(crate) burst_frames: Histogram,
    /// Client replies sent.
    pub(crate) replies_sent: Counter,
    /// Frames that arrived but failed authentication.
    pub(crate) auth_failures: Counter,
    /// Frames (or payloads) that arrived but failed to decode.
    pub(crate) decode_failures: Counter,
    /// `SuspectPrimary` actions the replica raised.
    pub(crate) suspicions: Counter,
    /// `ViewChanged` actions the replica raised.
    pub(crate) view_changes: Counter,
}

impl NodeTelemetry {
    /// Builds a fresh registry with the node's metric catalog and a wall
    /// clock anchored at "now".
    pub fn new() -> NodeTelemetry {
        let registry = Registry::default();
        NodeTelemetry {
            clock: WallClock::new(),
            flight: FlightRecorder::new(NODE_FLIGHT_CAPACITY),
            drain_us: registry.histogram("node.pipeline.drain_us"),
            verify_us: registry.histogram("node.pipeline.verify_us"),
            dispatch_us: registry.histogram("node.pipeline.dispatch_us"),
            execute_us: registry.histogram("node.pipeline.execute_us"),
            queue_depth: registry.gauge("node.pipeline.queue_depth"),
            burst_frames: registry.histogram("node.pipeline.burst_frames"),
            replies_sent: registry.counter("node.replies_sent"),
            auth_failures: registry.counter("node.auth_failures"),
            decode_failures: registry.counter("node.decode_failures"),
            suspicions: registry.counter("node.suspicions"),
            view_changes: registry.counter("node.view_changes"),
            registry,
        }
    }

    /// Nanoseconds since the node's telemetry epoch (for stage timing).
    pub(crate) fn now_nanos(&self) -> u64 {
        self.clock.now_nanos()
    }

    /// Records one structured flight event at the current wall time.
    pub(crate) fn event(&self, source: u32, kind: FlightEventKind) {
        self.flight.record(self.clock.now_nanos(), source, kind);
    }

    /// A point-in-time snapshot of every registered metric.
    pub fn snapshot(&self) -> Snapshot {
        self.registry.snapshot()
    }

    /// The flight-recorder ring's retained events, oldest first.
    pub fn flight_events(&self) -> Vec<FlightEvent> {
        self.flight.events()
    }
}

impl Default for NodeTelemetry {
    fn default() -> NodeTelemetry {
        NodeTelemetry::new()
    }
}

/// Pre-registered handles for everything a transport counts at its delivery
/// boundary and its client edge's I/O threads measure.
#[derive(Clone)]
pub struct EdgeTelemetry {
    registry: Registry,
    clock: WallClock,
    flight: FlightRecorder,
    /// Per-sweep event-loop latency (one poll + service pass over every
    /// ready connection), in µs.
    pub(crate) sweep_us: Histogram,
    /// High-water mark of any single connection's outbound-queue occupancy.
    pub(crate) conn_queue_peak: Gauge,
    /// Frames dropped because a bounded queue was full, in either direction:
    /// outbound (a peer writer's queue, a connection's queue, an edge
    /// mailbox, an in-process channel) and inbound (a peer reader finding
    /// the node inbox full). A dropped run counts every frame it held.
    pub(crate) dropped_frames: Counter,
    /// Client connections turned away at the admission cap (or because the
    /// edge was too overloaded to even register them).
    pub(crate) rejected_connections: Counter,
    /// Most simultaneously-live client connections observed.
    pub(crate) peak_clients: Gauge,
}

impl EdgeTelemetry {
    /// Builds a fresh registry with the edge's metric catalog and a wall
    /// clock anchored at "now".
    pub fn new() -> EdgeTelemetry {
        let registry = Registry::default();
        EdgeTelemetry {
            clock: WallClock::new(),
            flight: FlightRecorder::new(EDGE_FLIGHT_CAPACITY),
            sweep_us: registry.histogram("edge.sweep_us"),
            conn_queue_peak: registry.gauge("edge.conn_queue_peak"),
            dropped_frames: registry.counter("transport.dropped_frames"),
            rejected_connections: registry.counter("transport.rejected_connections"),
            peak_clients: registry.gauge("transport.peak_clients"),
            registry,
        }
    }

    /// Nanoseconds since the edge's telemetry epoch (for sweep timing).
    pub(crate) fn now_nanos(&self) -> u64 {
        self.clock.now_nanos()
    }

    /// A counter in this bundle's registry, for what the owning transport
    /// counts beside the edge (its peer writers).
    pub(crate) fn counter(&self, name: &str) -> Counter {
        self.registry.counter(name)
    }

    /// Records one structured flight event at the current wall time.
    pub(crate) fn event(&self, source: u32, kind: FlightEventKind) {
        self.flight.record(self.clock.now_nanos(), source, kind);
    }

    /// A point-in-time snapshot of every registered metric.
    pub fn snapshot(&self) -> Snapshot {
        self.registry.snapshot()
    }

    /// The flight-recorder ring's retained events, oldest first.
    pub fn flight_events(&self) -> Vec<FlightEvent> {
        self.flight.events()
    }
}

impl Default for EdgeTelemetry {
    fn default() -> EdgeTelemetry {
        EdgeTelemetry::new()
    }
}
