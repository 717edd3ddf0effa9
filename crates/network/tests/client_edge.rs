//! Client-edge integration tests: the readiness-driven event loop must
//! multiplex hundreds of concurrent client connections over a handful of
//! I/O threads (no thread per connection on either side), and its
//! admission control must turn a saturated replica into a §III-E client
//! failover rather than a stall.
//!
//! The ≥ 1,000-connection acceptance run lives in the release-build CI
//! `client-edge` job (`rcc-node cluster --clients 256`); these
//! debug-build tests exercise the same machinery at a scale that stays
//! honest on a single-core test runner.

use rcc_common::{ClientId, ReplicaId, SystemConfig};
use rcc_network::tcp::write_frame;
use rcc_network::transport::queue_capacity;
use rcc_network::{
    run_fleet, run_local_cluster, spawn_node, verify_identical_orders, ClusterPlan, EdgeConfig,
    Endpoints, FleetPlan, Frame, NodeConfig, NodeReport, PeerKind, TcpTransport,
};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Serializes the two cluster tests: each spins up a full 4-node cluster,
/// and the thread-count sample below must not see the other test's nodes.
static CLUSTER_GATE: Mutex<()> = Mutex::new(());

/// Reads this process's live thread count from `/proc/self/status`.
#[cfg(target_os = "linux")]
fn current_thread_count() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status.lines().find_map(|line| {
        line.strip_prefix("Threads:")
            .and_then(|rest| rest.trim().parse().ok())
    })
}

/// A scaled-down [`ClusterPlan::client_edge_smoke`]: 64 client sessions
/// × 4 replicas = 256 concurrent client connections against a loopback
/// cluster whose nodes each serve them from a 2-thread readiness edge.
/// While the run is live, a sampler thread records the process's peak
/// thread count — with a thread per connection it would exceed 256;
/// multiplexed, the whole cluster (nodes, fleet, clients, harness) stays
/// far below the connection count.
#[test]
fn fleet_connections_multiplex_over_a_fixed_thread_pool() {
    let _gate = CLUSTER_GATE.lock().unwrap_or_else(|e| e.into_inner());
    let mut plan = ClusterPlan::client_edge_smoke();
    plan.clients = 64;
    plan.run_for = Duration::from_millis(4_000);

    let stop = Arc::new(AtomicBool::new(false));
    let peak_threads = Arc::new(AtomicUsize::new(0));
    #[cfg(target_os = "linux")]
    let sampler = {
        let stop = Arc::clone(&stop);
        let peak = Arc::clone(&peak_threads);
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                if let Some(count) = current_thread_count() {
                    peak.fetch_max(count, Ordering::Relaxed);
                }
                std::thread::sleep(Duration::from_millis(100));
            }
        })
    };

    let outcome = run_local_cluster(&plan);
    stop.store(true, Ordering::Relaxed);
    #[cfg(target_os = "linux")]
    sampler.join().expect("sampler thread");

    verify_identical_orders(&outcome.reports).expect("identical release orders");
    assert_eq!(outcome.clients.len(), 64, "one outcome per client session");
    assert!(
        outcome.completed_batches() > 0,
        "no fleet session completed a reply quorum"
    );
    for report in &outcome.reports {
        // Every session holds one connection per replica for the whole
        // run, so each node's edge must have seen most of the 64
        // concurrently (not serially through accept-close churn).
        assert!(
            report.transport.peak_clients >= 32,
            "{} peaked at only {} concurrent clients",
            report.replica,
            report.transport.peak_clients
        );
    }
    let peak = peak_threads.load(Ordering::Relaxed);
    if peak > 0 {
        // 256 connections served: thread-per-connection would need > 256
        // threads; the multiplexed cluster (4 nodes × ~a dozen threads,
        // one fleet sweeper, harness) stays under half that.
        assert!(
            peak < 128,
            "{peak} threads for 256 connections — the edge is not multiplexing"
        );
    }
}

/// §III-E failover through admission control: replica 0's edge is capped
/// at a single client, and that slot is occupied by a dummy connection.
/// A real client homed on instance 0 (whose coordinator *is* replica 0)
/// is answered with the zero-digest `ClientReject`, rotates off the
/// saturated replica, drains to the healthy instance after its home ages
/// out, and still commits batches.
#[test]
fn a_client_rejected_at_the_cap_fails_over_and_still_commits() {
    let _gate = CLUSTER_GATE.lock().unwrap_or_else(|e| e.into_inner());
    let mut system = SystemConfig::new(4).with_instances(2).with_batch_size(5);
    // The rejected client is instance 0's only traffic source, so once it
    // drains, instance 0 idles and the release frontier depends on R0's
    // σ-lag no-op catch-up. A small σ keeps that trip point (and thus the
    // first released batch) inside the test's deadline on a slow runner.
    system.sigma = 4;
    let listeners: Vec<TcpListener> = (0..system.n)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind localhost listener"))
        .collect();
    let addrs: Vec<SocketAddr> = listeners
        .iter()
        .map(|l| l.local_addr().expect("listener address"))
        .collect();
    let capacity = queue_capacity(&system);
    let nodes: Vec<_> = listeners
        .into_iter()
        .enumerate()
        .map(|(index, listener)| {
            let replica = ReplicaId(index as u32);
            let edge = if index == 0 {
                EdgeConfig {
                    max_clients: 1,
                    ..EdgeConfig::default()
                }
            } else {
                EdgeConfig::default()
            };
            spawn_node(
                NodeConfig {
                    system: system.clone(),
                    replica,
                    execution_workers: 2,
                },
                TcpTransport::with_listener_and_edge(
                    replica,
                    listener,
                    addrs.clone(),
                    capacity,
                    edge,
                ),
            )
            .expect("spawn node")
        })
        .collect();

    // Occupy replica 0's only admission slot and keep the socket open for
    // the whole run, so every later client hello there is rejected.
    let mut dummy = TcpStream::connect(addrs[0]).expect("dial replica 0");
    let hello = Frame::Hello {
        peer: PeerKind::Client(ClientId(999)),
    }
    .encode_frame();
    write_frame(&mut dummy, &hello).expect("send dummy hello");
    // Let an edge sweep admit the dummy before the real client dials.
    std::thread::sleep(Duration::from_millis(500));

    // A one-session fleet: stream 0, homed on instance 0.
    let outcome = run_fleet(&FleetPlan::new(
        system,
        Endpoints::Tcp(addrs),
        1,
        2,
        Duration::from_secs(10),
    ))[0];
    drop(dummy);
    let reports: Vec<NodeReport> = nodes
        .into_iter()
        .map(|node| node.shutdown().expect("node thread panicked"))
        .collect();
    assert!(
        outcome.completed > 0,
        "the rejected client never committed through the healthy replicas \
         (submitted {}, abandoned {})",
        outcome.submitted,
        outcome.abandoned
    );
    verify_identical_orders(&reports).expect("identical release orders");
    assert!(
        reports[0].transport.rejected_connections >= 1,
        "replica 0 never exercised the admission reject (counter {})",
        reports[0].transport.rejected_connections
    );
}
