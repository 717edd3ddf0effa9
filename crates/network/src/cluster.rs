//! Localhost cluster orchestration: launch `n` replica nodes and the
//! client fleet over either transport, optionally kill-and-restart one
//! replica mid-run, and collect verifiable reports.
//!
//! This is what the `rcc-node cluster` subcommand, the loopback integration
//! test, and the CI smoke step share. The clients are one
//! [`crate::fleet`]: every client is a sans-io
//! [`rcc_workload::DriverSession`] (closed loop, `f + 1` matching replies,
//! the §III-E failover policy) whose links the fleet sweeps — sockets over
//! TCP, a polled channel in process.
//!
//! A replica killed and restarted mid-run reports once, its counts read
//! from both incarnations' merged snapshot ([`ClusterOutcome::reports`]).

use crate::event_loop::EdgeConfig;
use crate::fleet::{run_fleet_observed, Endpoints, FleetPlan};
use crate::mangle::{MangleConfig, MangledTransport};
use crate::node::{spawn_node, NodeConfig, NodeHandle, NodeReport, DEFAULT_EXECUTION_WORKERS};
use crate::tcp::TcpTransport;
use crate::telemetry::{EdgeTelemetry, NodeTelemetry};
use crate::transport::{queue_capacity, InProcessNetwork, Transport};
use rcc_common::{ClientId, ReplicaId, SystemConfig};
use rcc_telemetry::{FlightEvent, Snapshot};
use rcc_workload::SessionStats;
use std::net::{SocketAddr, TcpListener};
use std::time::{Duration, Instant};

/// Which transport a local cluster runs over.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TransportKind {
    /// Bounded in-process channels (one process, no sockets).
    InProcess,
    /// Real TCP over localhost.
    Tcp,
}

/// Kill-and-restart schedule for one replica.
#[derive(Clone, Copy, Debug)]
pub struct RestartPlan {
    /// The replica to kill.
    pub replica: ReplicaId,
    /// How long after the run starts the replica is killed.
    pub kill_after: Duration,
    /// How long the replica stays down before a fresh node (empty state,
    /// same identity and address) rejoins and catches up via state
    /// sync/checkpoint transfer.
    pub down_for: Duration,
}

/// Everything needed to run a localhost cluster.
#[derive(Clone, Debug)]
pub struct ClusterPlan {
    /// The deployment (n, f, m, batching, crypto mode, seed).
    pub system: SystemConfig,
    /// Transport to run over.
    pub transport: TransportKind,
    /// Number of client sessions; client `c` drives workload stream `c`
    /// and is homed on instance `c mod m`. Over TCP each session opens one
    /// connection per replica, all multiplexed onto the fleet's sweep
    /// threads — this is how the ≥ 1,000-connection edge smoke is
    /// generated without a thousand driver threads.
    pub clients: usize,
    /// Closed-loop window of each client node (batches in flight).
    pub client_window: usize,
    /// Wall-clock run time.
    pub run_for: Duration,
    /// Optional kill-and-restart of one replica mid-run.
    pub restart: Option<RestartPlan>,
    /// Optional wire-level fuzzing: every replica's outbound consensus
    /// frames pass through a seeded [`crate::mangle::ByteMangler`] (each
    /// replica gets its own stream derived from the configured seed).
    pub mangle: Option<MangleConfig>,
    /// Width of each node's client-edge I/O thread pool (TCP only;
    /// `--io-threads` on the CLI).
    pub io_threads: usize,
    /// Each node's client-edge admission cap (TCP only; `--max-clients`
    /// on the CLI). Connections past the cap are rejected with the
    /// zero-digest `ClientReject` sentinel so clients fail over.
    pub max_clients: usize,
    /// Periodic telemetry emission (`--telemetry-interval` on the CLI):
    /// every interval until the run ends, each node's live metric table is
    /// printed to stderr. `None` disables the emitter. A node restarted
    /// mid-run re-enters the final report with a merged snapshot, but the
    /// live emitter keeps following the first incarnation's (now idle)
    /// registry — the emitter is a progress view, not the record.
    pub telemetry_interval: Option<Duration>,
}

impl ClusterPlan {
    /// A 4-replica, 2-instance TCP smoke plan (the ISSUE's acceptance
    /// scenario, sans restart — add one via [`ClusterPlan::restart`]).
    pub fn smoke() -> ClusterPlan {
        ClusterPlan {
            system: SystemConfig::new(4).with_instances(2),
            transport: TransportKind::Tcp,
            clients: 2,
            client_window: 4,
            run_for: Duration::from_millis(2_000),
            restart: None,
            mangle: None,
            io_threads: crate::event_loop::DEFAULT_IO_THREADS,
            max_clients: crate::event_loop::DEFAULT_MAX_CLIENTS,
            telemetry_interval: None,
        }
    }

    /// The client-edge acceptance scenario: a 4-replica loopback cluster
    /// under 256 client sessions × 4 replicas = 1,024 concurrent client
    /// connections, all multiplexed through each node's 2-thread
    /// readiness edge (no per-client threads on either side). Small
    /// batches keep the load about connection *count*, not payload bytes.
    pub fn client_edge_smoke() -> ClusterPlan {
        let mut plan = ClusterPlan::smoke();
        plan.system = plan.system.with_batch_size(10);
        plan.clients = 256;
        plan.client_window = 2;
        plan.run_for = Duration::from_millis(10_000);
        plan
    }
}

/// What `replica` runs with, first incarnation or restart.
fn node_config(plan: &ClusterPlan, replica: ReplicaId) -> NodeConfig {
    NodeConfig {
        system: plan.system.clone(),
        replica,
        execution_workers: DEFAULT_EXECUTION_WORKERS,
    }
}

/// Wraps a replica's transport in the plan's optional wire mangler, deriving
/// a per-replica seed so the replicas' chaos streams are independent.
fn maybe_mangled(
    transport: impl Transport + 'static,
    mangle: Option<MangleConfig>,
    replica: ReplicaId,
) -> Box<dyn Transport> {
    match mangle {
        Some(config) => {
            let seed = config
                .seed
                .wrapping_add(replica.0 as u64)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15);
            Box::new(MangledTransport::new(
                transport,
                MangleConfig::new(seed, config.rate_ppm),
            ))
        }
        None => Box::new(transport),
    }
}

/// Outcome of a whole cluster run.
#[derive(Clone, Debug)]
pub struct ClusterOutcome {
    /// Final report of every replica. A restarted node reports its
    /// post-rejoin consensus state, but its *observability* — the metric
    /// snapshot, the flight trace, and every count field read from the
    /// snapshot (the node's `replies_sent` … `view_changes` as well as its
    /// `transport` counts) — covers both incarnations: counters add, and
    /// gauges such as `transport.peak_clients` take the maximum.
    pub reports: Vec<NodeReport>,
    /// Per-client statistics, in stream order.
    pub clients: Vec<SessionStats>,
    /// Metric snapshot of the client fleet: driver-side sweep latency under
    /// the `edge.sweep_us` catalog name.
    pub fleet_telemetry: Snapshot,
    /// The fleet driver's flight trace (link reconnects), oldest first.
    pub fleet_flight: Vec<FlightEvent>,
}

impl ClusterOutcome {
    /// Total batches completed across all clients.
    pub fn completed_batches(&self) -> u64 {
        self.clients.iter().map(|c| c.completed).sum()
    }
}

/// Runs a complete localhost cluster per `plan` and returns every report.
///
/// # Panics
///
/// Panics when the plan's system configuration is invalid or (TCP) when
/// localhost sockets cannot be bound.
pub fn run_local_cluster(plan: &ClusterPlan) -> ClusterOutcome {
    #[expect(
        clippy::expect_used,
        reason = "orchestration harness (see `# Panics`): an invalid plan is a caller bug, not \
                  a runtime condition to recover"
    )]
    plan.system.validate().expect("invalid cluster plan");
    match plan.transport {
        TransportKind::InProcess => run_in_process(plan),
        TransportKind::Tcp => run_tcp(plan),
    }
}

/// Drives the optional kill-and-restart timeline, then waits out the run.
/// `respawn` builds a fresh transport for the restarted replica.
///
/// Returns the killed node's final report, if the plan killed one. The
/// crash loses *consensus* state by design — the replacement starts empty
/// and catches up — but the first incarnation's telemetry describes load
/// the cluster really absorbed, so [`finish`] folds it into the
/// replacement's report instead of under-counting the run. (Discarding this
/// report was the bug that made `peak_clients` report only the post-restart
/// high-water mark.)
fn run_timeline<R>(
    plan: &ClusterPlan,
    started: Instant,
    nodes: &mut [Option<NodeHandle>],
    mut respawn: R,
) -> Option<NodeReport>
where
    R: FnMut(ReplicaId) -> Box<dyn Transport>,
{
    let deadline = started + plan.run_for;
    let mut killed = None;
    if let Some(restart) = plan.restart {
        let kill_at = started + restart.kill_after;
        sleep_until(kill_at.min(deadline));
        let index = restart.replica.index();
        if let Some(handle) = nodes[index].take() {
            killed = handle.shutdown().ok();
        }
        sleep_until((kill_at + restart.down_for).min(deadline));
        let transport = respawn(restart.replica);
        #[expect(
            clippy::expect_used,
            reason = "orchestration harness: a restart the host refuses is a scenario failure, \
                      reported by process exit"
        )]
        let node = spawn_node(
            node_config(plan, restart.replica),
            BoxedTransport(transport),
        )
        .expect("respawn restarted node");
        nodes[index] = Some(node);
    }
    sleep_until(deadline);
    killed
}

fn sleep_until(at: Instant) {
    let now = Instant::now();
    if at > now {
        std::thread::sleep(at - now);
    }
}

/// Spawns the plan's periodic telemetry emitter, if it asks for one: every
/// `telemetry_interval` until `deadline`, each node's live metric table
/// and the client fleet's is printed to stderr. The
/// bundles are cheap clones sharing the live registries, so the emitter
/// reads what the hot paths record without touching the node threads.
fn spawn_telemetry_emitter(
    plan: &ClusterPlan,
    nodes: &[Option<NodeHandle>],
    fleet: EdgeTelemetry,
    started: Instant,
    deadline: Instant,
) -> Option<std::thread::JoinHandle<()>> {
    let interval = plan.telemetry_interval?;
    let tracked: Vec<(usize, NodeTelemetry)> = nodes
        .iter()
        .enumerate()
        .filter_map(|(index, node)| node.as_ref().map(|n| (index, n.telemetry().clone())))
        .collect();
    std::thread::Builder::new()
        .name("rcc-telemetry".to_string())
        .spawn(move || loop {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            std::thread::sleep(interval.min(deadline - now));
            let elapsed = started.elapsed().as_millis();
            for (index, telemetry) in &tracked {
                eprintln!(
                    "telemetry @ {elapsed} ms — replica {index}:\n{}",
                    telemetry.snapshot().to_table()
                );
            }
            eprintln!(
                "telemetry @ {elapsed} ms — fleet:\n{}",
                fleet.snapshot().to_table()
            );
        })
        // An emitter the host cannot spawn only costs the progress view;
        // the run itself proceeds and still reports final snapshots.
        .ok()
}

/// Newtype making `Box<dyn Transport>` itself a [`Transport`], so nodes can
/// be spawned over either concrete transport from one code path.
struct BoxedTransport(Box<dyn Transport>);

impl Transport for BoxedTransport {
    fn send_to_replica(&self, to: ReplicaId, run: Vec<u8>) {
        self.0.send_to_replica(to, run)
    }
    fn send_to_client(&self, to: ClientId, frame: Vec<u8>) {
        self.0.send_to_client(to, frame)
    }
    fn recv_timeout(&mut self, timeout: Duration) -> Option<Vec<u8>> {
        self.0.recv_timeout(timeout)
    }
    fn try_recv(&mut self) -> Option<Vec<u8>> {
        self.0.try_recv()
    }
    fn shutdown(&mut self) {
        self.0.shutdown()
    }
    fn telemetry(&self) -> &EdgeTelemetry {
        self.0.telemetry()
    }
}

fn run_in_process(plan: &ClusterPlan) -> ClusterOutcome {
    let n = plan.system.n;
    let hub = InProcessNetwork::new(n, queue_capacity(&plan.system));
    let nodes: Vec<Option<NodeHandle>> = ReplicaId::all(n)
        .map(|replica| {
            #[expect(
                clippy::expect_used,
                reason = "orchestration harness: no nodes, no scenario"
            )]
            let node = spawn_node(
                node_config(plan, replica),
                BoxedTransport(maybe_mangled(hub.transport(replica), plan.mangle, replica)),
            )
            .expect("spawn in-process node");
            Some(node)
        })
        .collect();
    let mangle = plan.mangle;
    let endpoints = Endpoints::InProcess(hub.clone());
    run_with_clients(plan, nodes, endpoints, move |replica| {
        maybe_mangled(hub.transport(replica), mangle, replica)
    })
}

fn run_tcp(plan: &ClusterPlan) -> ClusterOutcome {
    let n = plan.system.n;
    // Bind every listener first (ephemeral ports) so all addresses are
    // known before any node starts dialing.
    #[expect(
        clippy::expect_used,
        reason = "orchestration harness: localhost that cannot bind ephemeral ports cannot host \
                  the cluster"
    )]
    let listeners: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind localhost listener"))
        .collect();
    #[expect(clippy::expect_used, reason = "orchestration harness, same as above")]
    let addrs: Vec<SocketAddr> = listeners
        .iter()
        .map(|l| l.local_addr().expect("listener address"))
        .collect();
    let capacity = queue_capacity(&plan.system);
    let edge_config = EdgeConfig {
        io_threads: plan.io_threads,
        max_clients: plan.max_clients,
    };
    let nodes: Vec<Option<NodeHandle>> = listeners
        .into_iter()
        .enumerate()
        .map(|(index, listener)| {
            let replica = ReplicaId(index as u32);
            #[expect(
                clippy::expect_used,
                reason = "orchestration harness: no nodes, no scenario"
            )]
            let node = spawn_node(
                node_config(plan, replica),
                BoxedTransport(maybe_mangled(
                    TcpTransport::with_listener_and_edge(
                        replica,
                        listener,
                        addrs.clone(),
                        capacity,
                        edge_config,
                    ),
                    plan.mangle,
                    replica,
                )),
            )
            .expect("spawn TCP node");
            Some(node)
        })
        .collect();
    let endpoints = Endpoints::Tcp(addrs.clone());
    run_with_clients(plan, nodes, endpoints, move |replica| {
        // Re-bind the replica's fixed address. Closing leaves connections
        // in TIME_WAIT briefly, so retry with backoff.
        let addr = addrs[replica.index()];
        let rebind_deadline = Instant::now() + Duration::from_secs(10);
        let listener = loop {
            match TcpListener::bind(addr) {
                Ok(listener) => break listener,
                #[expect(
                    clippy::disallowed_macros,
                    reason = "orchestration harness: a restart address stuck in TIME_WAIT past \
                              the deadline fails the scenario loudly"
                )]
                Err(e) => {
                    assert!(
                        Instant::now() < rebind_deadline,
                        "could not re-bind {addr} for restart: {e}"
                    );
                    std::thread::sleep(Duration::from_millis(50));
                }
            }
        };
        maybe_mangled(
            TcpTransport::with_listener_and_edge(
                replica,
                listener,
                addrs.clone(),
                capacity,
                edge_config,
            ),
            plan.mangle,
            replica,
        )
    })
}

/// Runs the plan's clients and timeline against the spawned `nodes`, then
/// shuts everything down. `respawn` builds a fresh transport for a
/// restarted replica.
fn run_with_clients<R>(
    plan: &ClusterPlan,
    mut nodes: Vec<Option<NodeHandle>>,
    endpoints: Endpoints,
    respawn: R,
) -> ClusterOutcome
where
    R: FnMut(ReplicaId) -> Box<dyn Transport>,
{
    let started = Instant::now();
    let deadline = started + plan.run_for;
    let fleet_plan = FleetPlan::new(
        plan.system.clone(),
        endpoints,
        plan.clients,
        plan.client_window,
        plan.run_for,
    );
    let fleet_telemetry = EdgeTelemetry::new();
    #[expect(
        clippy::expect_used,
        reason = "orchestration harness: a fleet the host cannot spawn ends the scenario"
    )]
    let fleet = {
        let telemetry = fleet_telemetry.clone();
        std::thread::Builder::new()
            .name("rcc-fleet".to_string())
            .spawn(move || run_fleet_observed(&fleet_plan, &telemetry))
            .expect("spawn fleet driver")
    };
    let emitter = spawn_telemetry_emitter(plan, &nodes, fleet_telemetry.clone(), started, deadline);
    let killed = run_timeline(plan, started, &mut nodes, respawn);
    if let Some(thread) = emitter {
        let _ = thread.join();
    }
    #[expect(
        clippy::expect_used,
        reason = "orchestration harness: re-raise a fleet driver's panic instead of reporting a \
                  partial outcome"
    )]
    let clients = fleet.join().expect("fleet driver panicked");
    let reports = finish(nodes, killed);
    ClusterOutcome {
        reports,
        clients,
        fleet_telemetry: fleet_telemetry.snapshot(),
        fleet_flight: fleet_telemetry.flight_events(),
    }
}

/// Shuts every node down and collects the final reports.
fn finish(nodes: Vec<Option<NodeHandle>>, killed: Option<NodeReport>) -> Vec<NodeReport> {
    #[expect(
        clippy::expect_used,
        reason = "orchestration harness: every node is live here by construction (run_timeline \
                  respawns what it kills), and a node that panicked mid-run must fail the \
                  scenario rather than vanish from the safety comparison"
    )]
    let mut reports: Vec<NodeReport> = nodes
        .into_iter()
        .map(|handle| {
            let node = handle.expect("every node live at run end");
            node.shutdown().expect("node thread panicked")
        })
        .collect();
    if let Some(killed) = killed {
        if let Some(report) = reports
            .iter_mut()
            .find(|report| report.replica == killed.replica)
        {
            fold_restart(report, killed);
        }
    }
    reports
}

/// Folds the killed incarnation's observability into its replacement's
/// report: the metric snapshots merge name-wise ([`Snapshot::merged`]:
/// counters add, gauges max-merge), the pre-kill flight trace precedes the
/// replacement's, and every count field is read again from the merged
/// snapshot. Consensus state (digests, ledger, fingerprints) stays the
/// replacement's alone — the crash really did lose it.
fn fold_restart(report: &mut NodeReport, killed: NodeReport) {
    report.telemetry = killed.telemetry.merged(&report.telemetry);
    let mut flight = killed.flight;
    flight.append(&mut report.flight);
    report.flight = flight;
    report.read_counts();
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A report whose only content is its snapshot.
    fn report_of(counters: &[(&str, u64)], peak_clients: u64) -> NodeReport {
        let mut report = NodeReport {
            telemetry: Snapshot {
                counters: counters.iter().map(|&(n, v)| (n.to_string(), v)).collect(),
                gauges: vec![("transport.peak_clients".to_string(), peak_clients)],
                histograms: Vec::new(),
            },
            ..NodeReport::default()
        };
        report.read_counts();
        report
    }

    #[test]
    fn a_restart_fold_adds_counts_and_keeps_the_highest_peak() {
        let killed = report_of(&[("node.replies_sent", 70), ("node.view_changes", 1)], 40);
        let mut replacement = report_of(
            &[("node.replies_sent", 30), ("transport.dropped_frames", 9)],
            25,
        );
        fold_restart(&mut replacement, killed);
        assert_eq!(replacement.replies_sent, 100);
        assert_eq!(replacement.view_changes, 1);
        assert_eq!(replacement.transport.dropped_frames, 9);
        // Two incarnations that peaked at 40 and 25 clients peaked at 40.
        assert_eq!(replacement.transport.peak_clients, 40);
    }
}
