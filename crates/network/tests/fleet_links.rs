//! The fleet's TCP links under replica failure, against stand-in replicas
//! the test controls: a session whose replica goes away and comes back must
//! re-dial with capped backoff, re-announce itself and resume completing
//! batches (a client that marks a link dead and never dials again writes
//! into the void for the rest of its life — exactly the long-running-client
//! scenario a kill-and-restart chaos run exercises); replicas that are down
//! must cost a session a fraction of a second, not an OS connect timeout
//! each; and a cluster that never answers must end the run on time.

use rcc_common::codec::Decode;
use rcc_common::{Batch, CryptoMode, ReplicaId, SystemConfig};
use rcc_crypto::{digest_batch, AuthTag};
use rcc_network::event_loop::DEFAULT_CONN_QUEUE;
use rcc_network::fleet::run_fleet_observed;
use rcc_network::{run_fleet, EdgeTelemetry, Endpoints, FleetPlan, Frame, NbConn};
use rcc_telemetry::FlightEventKind;
use std::net::{SocketAddr, TcpListener};
use std::time::{Duration, Instant};

/// An address that refuses connections: bind an ephemeral port, then close
/// the listener.
fn refused_addr() -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind throwaway port");
    let addr = listener.local_addr().expect("local addr");
    drop(listener);
    addr
}

/// An unauthenticated deployment, so a stand-in replica needs no keys.
fn system(n: usize) -> SystemConfig {
    let mut system = SystemConfig::new(n).with_instances(1).with_batch_size(5);
    system.crypto = CryptoMode::None;
    system
}

/// Stand-in replicas for a one-session fleet: every `ClientSubmit` that
/// reaches any of them is answered by all of them, each on its own
/// connection from the session — what a cluster that committed the batch
/// would send. Dropping the value closes listeners and connections alike.
struct StubReplicas {
    listeners: Vec<(ReplicaId, TcpListener)>,
    conns: Vec<(ReplicaId, NbConn)>,
    answered: u64,
}

impl StubReplicas {
    fn bind(replicas: &[(ReplicaId, SocketAddr)]) -> StubReplicas {
        let listeners = replicas
            .iter()
            .map(|&(replica, addr)| {
                let listener = TcpListener::bind(addr).expect("bind stand-in replica");
                listener
                    .set_nonblocking(true)
                    .expect("nonblocking listener");
                (replica, listener)
            })
            .collect();
        StubReplicas {
            listeners,
            conns: Vec::new(),
            answered: 0,
        }
    }

    fn addr(&self, index: usize) -> SocketAddr {
        self.listeners[index].1.local_addr().expect("local addr")
    }

    /// Accepts, reads and answers until `done` says so.
    fn serve_until(&mut self, mut done: impl FnMut(&StubReplicas) -> bool) {
        let give_up = Instant::now() + Duration::from_secs(30);
        while !done(self) {
            assert!(Instant::now() < give_up, "the stand-in replicas sat idle");
            for (replica, listener) in &self.listeners {
                while let Ok((stream, _)) = listener.accept() {
                    let conn = NbConn::new(stream, DEFAULT_CONN_QUEUE).expect("wrap socket");
                    self.conns.push((*replica, conn));
                }
            }
            let mut digests = Vec::new();
            for (_, conn) in &mut self.conns {
                conn.fill(64 * 1024);
                while let Some(bytes) = conn.next_frame() {
                    if let Ok(Frame::ClientSubmit { payload, .. }) = Frame::decode_frame(&bytes) {
                        let batch = Batch::decode_all(&payload).expect("submitted batch");
                        digests.push(digest_batch(&batch));
                    }
                }
            }
            self.answered += digests.len() as u64;
            for (replica, conn) in &mut self.conns {
                for &digest in &digests {
                    let reply = Frame::ClientReply {
                        replica: *replica,
                        digest,
                        tag: AuthTag::None,
                    };
                    conn.enqueue(&reply.encode_frame());
                }
                conn.flush();
            }
            self.conns.retain(|(_, conn)| !conn.is_dead());
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}

#[test]
fn a_session_redials_a_restarted_replica_and_resumes() {
    let mut stub = StubReplicas::bind(&[(ReplicaId(0), "127.0.0.1:0".parse().unwrap())]);
    let addr = stub.addr(0);
    let plan = FleetPlan::new(
        system(1),
        Endpoints::Tcp(vec![addr]),
        1,
        2,
        Duration::from_millis(3_000),
    );
    let telemetry = EdgeTelemetry::new();
    let fleet = {
        let telemetry = telemetry.clone();
        std::thread::spawn(move || run_fleet_observed(&plan, &telemetry))
    };

    // Session established: batches complete.
    stub.serve_until(|stub| stub.answered >= 3);
    let answered_before = stub.answered;
    // Kill the replica — listener *and* connection — so the link dies and
    // re-dials are refused while it is down; then restart it on the same
    // address and serve until the run ends.
    drop(stub);
    std::thread::sleep(Duration::from_millis(300));
    let mut stub = StubReplicas::bind(&[(ReplicaId(0), addr)]);
    stub.serve_until(|_| fleet.is_finished());

    let stats = fleet.join().expect("fleet driver")[0];
    assert!(
        stub.answered > 0,
        "the session never re-dialed the restarted replica"
    );
    assert!(
        stats.completed > answered_before,
        "no batch completed over the re-dialed link ({} completed, {answered_before} \
         answered before the restart)",
        stats.completed
    );
    assert!(
        telemetry
            .flight_events()
            .iter()
            .any(|e| matches!(e.kind, FlightEventKind::Reconnect { peer: 0 })),
        "the re-dial was not flight-recorded"
    );
}

#[test]
fn a_run_against_refusing_addresses_ends_on_time_with_nothing_completed() {
    let addrs = (0..4).map(|_| refused_addr()).collect();
    let plan = FleetPlan::new(
        SystemConfig::new(4),
        Endpoints::Tcp(addrs),
        2,
        2,
        Duration::from_millis(600),
    );
    let started = Instant::now();
    let stats = run_fleet(&plan);
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_secs(3),
        "the fleet overshot its 600 ms run by far: {elapsed:?}"
    );
    assert_eq!(stats.len(), 2, "one outcome per session");
    assert!(stats.iter().all(|s| s.completed == 0));
}

#[test]
fn a_session_completes_past_a_down_replica_within_a_second() {
    // Replica 0 — the home instance's coordinator, where the session
    // submits first — is down; the other three answer.
    let any: SocketAddr = "127.0.0.1:0".parse().unwrap();
    let mut stub = StubReplicas::bind(&[
        (ReplicaId(1), any),
        (ReplicaId(2), any),
        (ReplicaId(3), any),
    ]);
    let addrs = vec![refused_addr(), stub.addr(0), stub.addr(1), stub.addr(2)];
    let plan = FleetPlan::new(
        system(4),
        Endpoints::Tcp(addrs),
        1,
        2,
        Duration::from_millis(1_000),
    );
    let fleet = std::thread::spawn(move || run_fleet(&plan));
    stub.serve_until(|_| fleet.is_finished());
    let stats = fleet.join().expect("fleet driver")[0];
    assert!(
        stats.completed > 0,
        "the down replica stalled the session ({} submitted, {} abandoned)",
        stats.submitted,
        stats.abandoned
    );
}
