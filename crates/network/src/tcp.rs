//! The TCP transport: real sockets for multi-process localhost (or
//! multi-machine) clusters.
//!
//! Design, mirroring the role ResilientDB's network layer plays in the
//! paper's deployments (std `TcpStream` + threads — the build environment
//! has no async runtime, and consensus at this scale does not need one):
//!
//! * **Per-peer ordered framed connections.** Each replica owns one
//!   outbound connection per peer, driven by a writer thread that drains a
//!   **bounded** queue of runs ([`crate::transport::queue_capacity`]-sized,
//!   so a primary can keep its full `out_of_order_window` pipeline in
//!   flight). Frames on one connection are delivered in order; a full queue
//!   drops the run, every frame of it counted (consensus recovers via state
//!   sync/retransmission).
//! * **The run is the unit, out and in.** The mailbox thread builds one run
//!   per peer per burst ([`crate::run`]: the `[len][frame]` records exactly
//!   as they go on the socket) and hands it over when the burst ends. The
//!   writer copies nothing in the common case: it takes a run off its queue
//!   and issues one `write_all` for it — on a `TCP_NODELAY` socket each
//!   write is a syscall and a segment, and under load that is most of what
//!   a vote costs. Only when it wakes to a backlog does it append the runs
//!   queued behind the first (until the write passes 64 KiB) so they share
//!   the syscall. There is no timer: an idle link writes a lone frame the
//!   moment its burst of one ends. The reader copies once per `read`: every
//!   complete record the read finished leaves for the node inbox as one
//!   run, one allocation and one channel send however many votes it holds;
//!   a partial record waits in the reader's buffer for the rest of itself.
//!   Frames share runs and writes, never bytes — the mailbox parses the
//!   same `[len][frame]` records either way.
//! * **Reconnect-on-drop.** A writer that loses its connection reconnects
//!   with capped backoff and resumes draining its queue. A run being
//!   written at the moment of failure is lost — exactly the loss model the
//!   protocols already tolerate — and the next connection starts on a frame
//!   boundary, behind a fresh `Hello`.
//! * **Ingress.** One acceptor thread blocks in `accept` on the listener
//!   and hands every socket, the moment it arrives, to the
//!   readiness-driven [`crate::event_loop::ClientEdge`]: a small fixed
//!   pool of I/O threads multiplexing all client connections (no thread
//!   per client — see `event_loop.rs` for the sweep model and admission
//!   control). The acceptor sleeps only after a failed `accept`. Shutdown
//!   and drop wake it by connecting to the listener's own address (an
//!   unspecified IP maps to the loopback of its family) and join it, so
//!   the port is free once they return. A connection whose first frame is
//!   `Hello{Replica}` is handed back out of the edge to a dedicated
//!   blocking reader thread, keeping the deep, narrow replica links on
//!   the ordered thread-per-peer path.
//!
//! Stream framing: `[u32 big-endian length][frame bytes]`, length capped at
//! [`crate::frame::MAX_FRAME_BYTES`]; the frame bytes themselves carry the magic/version
//! header of [`crate::frame`].

use crate::event_loop::{ClientEdge, EdgeConfig, FrameReader, ReplicaHandoff};
use crate::frame::{Frame, PeerKind};
use crate::run::{frame_count, pack_frame, OversizeFrame, COALESCE_BYTES};
use crate::telemetry::EdgeTelemetry;
use crate::transport::Transport;
use rcc_common::{ClientId, ReplicaId};
use rcc_telemetry::Counter;
use std::io::{Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Writes one length-prefixed frame to a stream, in one write.
pub fn write_frame(stream: &mut TcpStream, frame: &[u8]) -> std::io::Result<()> {
    let mut buf = Vec::with_capacity(4 + frame.len());
    pack_frame(&mut buf, frame);
    stream.write_all(&buf)
}

fn configure(stream: &TcpStream) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(200)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(2)));
}

/// How long the acceptor waits after a failed `accept` (EMFILE under fd
/// pressure, ECONNABORTED from a half-open reconnect) before it tries again.
const ACCEPT_ERROR_BACKOFF: Duration = Duration::from_millis(5);
/// Bound of the connection that wakes the acceptor at shutdown.
const WAKE_TIMEOUT: Duration = Duration::from_millis(500);

/// The ingress thread, blocked in `accept`, and the address that reaches
/// its listener (`None` if the listener could not report its own).
struct Acceptor {
    thread: JoinHandle<()>,
    wake: Option<SocketAddr>,
}

/// The address that reaches a listener bound to `local`: the same, except
/// that an unspecified IP (`0.0.0.0`, `::`) becomes the loopback of its
/// family.
fn wake_address(mut local: SocketAddr) -> SocketAddr {
    match local.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => local.set_ip(Ipv4Addr::LOCALHOST.into()),
        IpAddr::V6(ip) if ip.is_unspecified() => local.set_ip(Ipv6Addr::LOCALHOST.into()),
        _ => {}
    }
    local
}

/// A replica's TCP endpoint.
pub struct TcpTransport {
    inbox: Receiver<Vec<u8>>,
    peers: Vec<Option<SyncSender<Vec<u8>>>>,
    edge: ClientEdge,
    shutdown: Arc<AtomicBool>,
    /// Taken (stopped) by the first of `shutdown` and `Drop`.
    acceptor: Option<Acceptor>,
    /// The peer writers.
    threads: Vec<JoinHandle<()>>,
    /// Blocking readers of replica peer links, spawned when the edge hands
    /// a `Hello{Replica}` socket back out of the sweep pool.
    replica_readers: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl TcpTransport {
    /// Binds a listener on `listen` and connects to `peer_addrs` (indexed
    /// by replica id; the entry at `me` is ignored). `capacity` bounds each
    /// per-peer outbound queue; `edge` is the client-edge configuration
    /// (I/O thread pool width, admission cap).
    pub fn bind_with_edge(
        me: ReplicaId,
        listen: SocketAddr,
        peer_addrs: Vec<SocketAddr>,
        capacity: usize,
        edge: EdgeConfig,
    ) -> std::io::Result<TcpTransport> {
        let listener = TcpListener::bind(listen)?;
        Ok(Self::with_listener_and_edge(
            me, listener, peer_addrs, capacity, edge,
        ))
    }

    /// Builds the transport around an already-bound listener (the cluster
    /// launcher binds all listeners first so every peer address is known
    /// before any node starts).
    pub fn with_listener_and_edge(
        me: ReplicaId,
        listener: TcpListener,
        peer_addrs: Vec<SocketAddr>,
        capacity: usize,
        edge_config: EdgeConfig,
    ) -> TcpTransport {
        let shutdown = Arc::new(AtomicBool::new(false));
        // Bounded inbox, matching the in-process transport's loss model: a
        // sender that outruns the mailbox thread has its frames dropped at
        // the boundary instead of growing node memory without limit.
        let (inbox_tx, inbox_rx) =
            std::sync::mpsc::sync_channel::<Vec<u8>>(capacity.max(1) * (peer_addrs.len() + 4));
        let mut threads = Vec::new();
        let replica_readers: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        // One registry for the whole transport: the edge, the peer readers
        // and writers, and the sends below all count into it.
        let telemetry = EdgeTelemetry::new();

        // Replica peer links leave the edge's sweep pool for a dedicated
        // blocking reader each: n - 1 inbound links at most, and their
        // strict arrival order is worth a thread apiece.
        let on_replica: ReplicaHandoff = {
            let shutdown = Arc::clone(&shutdown);
            let inbox_tx = inbox_tx.clone();
            let readers = Arc::clone(&replica_readers);
            let dropped = telemetry.dropped_frames.clone();
            Arc::new(move |stream: TcpStream, residue: Vec<u8>| {
                let shutdown = Arc::clone(&shutdown);
                let inbox_tx = inbox_tx.clone();
                let dropped = dropped.clone();
                let spawned = std::thread::Builder::new()
                    .name("rcc-peer-reader".to_string())
                    .spawn(move || {
                        read_replica_runs(stream, residue, &shutdown, &inbox_tx, &dropped)
                    });
                if let Ok(handle) = spawned {
                    let mut guard = crate::lock_unpoisoned(&readers);
                    // Reap finished readers so reconnect-heavy lifetimes do
                    // not accumulate a handle per connect cycle.
                    guard.retain(|reader| !reader.is_finished());
                    guard.push(handle);
                }
            })
        };
        #[expect(
            clippy::expect_used,
            reason = "transport construction at node boot: a host that cannot spawn the edge's I/O \
                      threads cannot run the node, so failing loudly is the only honest mode"
        )]
        let edge = ClientEdge::spawn(
            me,
            edge_config,
            inbox_tx.clone(),
            on_replica,
            Arc::clone(&shutdown),
            telemetry.clone(),
        )
        .expect("spawn client-edge I/O threads");

        // Ingress: one blocking accept loop handing every socket to the
        // edge as it arrives. It sees the shutdown flag only when `accept`
        // returns, which is why `stop_acceptor` connects once after
        // raising it.
        let acceptor = {
            let shutdown = Arc::clone(&shutdown);
            let wake = listener.local_addr().ok().map(wake_address);
            let registrar = edge.registrar();
            let thread = spawn_named("rcc-accept", move || loop {
                let accepted = listener.accept();
                // Whatever arrives once the flag is up (the wake, or a late
                // dialer) is dropped together with the listener.
                if shutdown.load(Ordering::Relaxed) {
                    return;
                }
                match accepted {
                    Ok((stream, _)) => registrar.register(stream),
                    // Transient accept errors must not kill ingress for
                    // the node's whole life: back off and keep accepting.
                    Err(_) => std::thread::sleep(ACCEPT_ERROR_BACKOFF),
                }
            });
            Some(Acceptor { thread, wake })
        };

        // Egress: one bounded queue + writer thread per peer.
        let written = PeerWrites {
            writes: telemetry.counter("transport.peer_writes"),
            frames: telemetry.counter("transport.peer_frames"),
        };
        let mut peers = Vec::with_capacity(peer_addrs.len());
        for (index, addr) in peer_addrs.iter().enumerate() {
            if index == me.index() {
                peers.push(None);
                continue;
            }
            let (tx, rx) = std::sync::mpsc::sync_channel::<Vec<u8>>(capacity.max(1));
            let addr = *addr;
            let shutdown = Arc::clone(&shutdown);
            let written = written.clone();
            threads.push(spawn_named("rcc-peer-writer", move || {
                write_connection(me, addr, rx, &shutdown, &written);
            }));
            peers.push(Some(tx));
        }

        TcpTransport {
            inbox: inbox_rx,
            peers,
            edge,
            shutdown,
            acceptor,
            threads,
            replica_readers,
        }
    }

    /// Raises the shutdown flag, wakes the acceptor out of `accept` with a
    /// connection to its own listener, and joins it: once this returns the
    /// listener is closed and its port can be bound again.
    fn stop_acceptor(&mut self) {
        self.shutdown.store(true, Ordering::Relaxed);
        let Some(acceptor) = self.acceptor.take() else {
            return;
        };
        let wake = acceptor
            .wake
            .and_then(|addr| TcpStream::connect_timeout(&addr, WAKE_TIMEOUT).ok());
        // Without the wake connection the acceptor stays in `accept` until
        // some other dialer arrives, so a join could hang shutdown for
        // good. It is left detached instead, and exits, closing the
        // listener, on the next connection.
        if wake.is_some() {
            let _ = acceptor.thread.join();
        }
    }
}

/// Spawns one of the transport's own threads under a name `/proc` and a
/// debugger can show.
#[expect(
    clippy::expect_used,
    reason = "transport construction at node boot: a host that cannot spawn the acceptor or a \
              peer writer cannot run the node, so failing loudly is the only honest mode"
)]
fn spawn_named(name: &str, body: impl FnOnce() + Send + 'static) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name(name.to_string())
        .spawn(body)
        .expect("spawn transport thread")
}

/// Blocking reader of one replica peer link, taking over a socket the edge
/// identified via its `Hello{Replica}` first frame. `residue` holds bytes
/// the edge had already read past the hello; they are parsed first so no
/// frame is lost in the handoff. Every complete record one `read` finished
/// goes to the inbox as one run.
fn read_replica_runs(
    stream: TcpStream,
    residue: Vec<u8>,
    shutdown: &AtomicBool,
    inbox: &SyncSender<Vec<u8>>,
    dropped: &Counter,
) {
    // The edge ran this socket nonblocking; restore blocking mode with the
    // short read timeout every blocking reader uses to observe shutdown.
    if stream.set_nonblocking(false).is_err() {
        return;
    }
    configure(&stream);
    let mut stream = stream;
    let mut buf = FrameReader::new(residue);
    let mut scratch = [0u8; 16 * 1024];
    loop {
        match buf.take_run() {
            Ok(Some(run)) => match inbox.try_send(run) {
                Ok(()) => {}
                // A full inbox drops the run (bounded back-pressure) and
                // counts what it held; consensus recovers lost messages via
                // state sync.
                Err(TrySendError::Full(run)) => dropped.add(frame_count(&run)),
                Err(TrySendError::Disconnected(_)) => return,
            },
            Ok(None) => {}
            // Oversized length prefix: the stream is poisoned.
            Err(OversizeFrame) => return,
        }
        if shutdown.load(Ordering::Relaxed) {
            return;
        }
        match stream.read(&mut scratch) {
            Ok(0) => return,
            Ok(n) => buf.extend(&scratch[..n]),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut
                    || e.kind() == std::io::ErrorKind::Interrupted =>
            {
                continue;
            }
            Err(_) => return,
        }
    }
}

/// What the peer writers of one transport put on their sockets: `frames`
/// over `writes` is how many frames shared a write.
#[derive(Clone)]
struct PeerWrites {
    writes: Counter,
    frames: Counter,
}

/// Writer side of one outbound peer link: connect (with capped backoff),
/// announce ourselves, then wait for a run and write it as it is — with
/// whatever else the queue holds by then appended, so a backlog shares the
/// write; on any write failure, reconnect and keep draining. Runs passed to a
/// dead connection are lost by design.
fn write_connection(
    me: ReplicaId,
    addr: SocketAddr,
    queue: Receiver<Vec<u8>>,
    shutdown: &AtomicBool,
    written: &PeerWrites,
) {
    let mut backoff = Duration::from_millis(10);
    while !shutdown.load(Ordering::Relaxed) {
        let Ok(stream) = TcpStream::connect_timeout(&addr, Duration::from_millis(500)) else {
            std::thread::sleep(backoff);
            backoff = (backoff * 2).min(Duration::from_millis(200));
            continue;
        };
        backoff = Duration::from_millis(10);
        let mut stream = stream;
        configure(&stream);
        let hello = Frame::Hello {
            peer: PeerKind::Replica(me),
        }
        .encode_frame();
        if write_frame(&mut stream, &hello).is_err() {
            continue;
        }
        loop {
            if shutdown.load(Ordering::Relaxed) {
                return;
            }
            match queue.recv_timeout(Duration::from_millis(200)) {
                Ok(mut run) => {
                    while run.len() < COALESCE_BYTES {
                        let Ok(next) = queue.try_recv() else { break };
                        run.extend_from_slice(&next);
                    }
                    if stream.write_all(&run).is_err() {
                        break; // reconnect
                    }
                    written.writes.inc();
                    written.frames.add(frame_count(&run));
                }
                Err(std::sync::mpsc::RecvTimeoutError::Timeout) => continue,
                Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => return,
            }
        }
    }
}

impl Transport for TcpTransport {
    fn send_to_replica(&self, to: ReplicaId, run: Vec<u8>) {
        if let Some(Some(tx)) = self.peers.get(to.index()) {
            if let Err(TrySendError::Full(run)) = tx.try_send(run) {
                self.edge.telemetry().dropped_frames.add(frame_count(&run));
            }
        }
    }

    fn send_to_client(&self, to: ClientId, frame: Vec<u8>) {
        // Non-blocking hand-off to the edge: the consensus mailbox thread
        // must never wait on a client socket. A full queue or mailbox
        // drops the frame (counted); an unknown client means the
        // connection already closed.
        self.edge.send_to_client(to, frame);
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Option<Vec<u8>> {
        self.inbox.recv_timeout(timeout).ok()
    }

    fn try_recv(&mut self) -> Option<Vec<u8>> {
        self.inbox.try_recv().ok()
    }

    fn shutdown(&mut self) {
        self.stop_acceptor();
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
        self.edge.join();
        let readers: Vec<JoinHandle<()>> = crate::lock_unpoisoned(&self.replica_readers)
            .drain(..)
            .collect();
        for reader in readers {
            let _ = reader.join();
        }
    }

    fn telemetry(&self) -> &EdgeTelemetry {
        self.edge.telemetry()
    }
}

impl Drop for TcpTransport {
    fn drop(&mut self) {
        // The acceptor is woken and joined here too, so a dropped
        // transport frees its port at once. The other threads see the flag
        // within their own waits (a 1 ms edge park, a 200 ms peer read or
        // queue timeout); `shutdown` joins them as well.
        self.stop_acceptor();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    /// A transport around a listener bound on `addr`, and the address the
    /// listener got. Nothing dials it.
    fn idle_transport(addr: &str) -> (TcpTransport, SocketAddr) {
        let listener = TcpListener::bind(addr).unwrap();
        let local = listener.local_addr().unwrap();
        let transport = TcpTransport::with_listener_and_edge(
            ReplicaId(0),
            listener,
            vec![local],
            4,
            EdgeConfig::default(),
        );
        // Let the acceptor reach `accept`.
        std::thread::sleep(Duration::from_millis(50));
        (transport, local)
    }

    /// Runs `stop` on a thread of its own and fails unless it returns
    /// within a second, so a stop that hangs fails the test instead.
    fn returns_within_a_second(what: &str, stop: impl FnOnce() + Send + 'static) {
        let (done_tx, done_rx) = std::sync::mpsc::sync_channel(1);
        std::thread::spawn(move || {
            stop();
            let _ = done_tx.send(());
        });
        assert!(
            done_rx.recv_timeout(Duration::from_secs(1)).is_ok(),
            "{what} did not return within 1 s"
        );
    }

    #[test]
    fn the_wake_address_is_the_listener_s_own_with_loopback_for_unspecified() {
        for (bound, wake) in [
            ("0.0.0.0:7000", "127.0.0.1:7000"),
            ("[::]:7000", "[::1]:7000"),
            ("127.0.0.1:7000", "127.0.0.1:7000"),
            ("10.1.2.3:7000", "10.1.2.3:7000"),
        ] {
            assert_eq!(
                wake_address(bound.parse().unwrap()),
                wake.parse::<SocketAddr>().unwrap()
            );
        }
    }

    #[test]
    fn shutdown_returns_promptly_and_releases_the_listener() {
        for addr in ["127.0.0.1:0", "0.0.0.0:0"] {
            let (mut transport, local) = idle_transport(addr);
            returns_within_a_second(&format!("shutdown on {addr}"), move || transport.shutdown());
            if let Err(e) = TcpListener::bind(local) {
                panic!("{local} is still bound after shutdown: {e}");
            }
        }
    }

    #[test]
    fn a_dropped_transport_frees_its_port_within_a_second() {
        let (transport, local) = idle_transport("127.0.0.1:0");
        let dropped = Instant::now();
        returns_within_a_second("drop", move || drop(transport));
        while let Err(e) = TcpListener::bind(local) {
            assert!(
                dropped.elapsed() < Duration::from_secs(1),
                "{local} is still bound 1 s after the drop: {e}"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}
