//! The readiness-driven client edge: every inbound connection multiplexed
//! onto a small fixed pool of I/O threads — no thread per client.
//!
//! # Why this exists
//!
//! The paper's headline scenario is many concurrent clients feeding `m`
//! consensus instances. A thread-per-connection edge (a reader thread per
//! accepted socket plus a writer thread per registered client) exhausts
//! the host's thread budget at a few hundred clients, long before
//! consensus is the bottleneck. This module is the *client* side of the
//! edge; replica↔replica links (`tcp.rs`) keep their ordered
//! thread-per-peer path, which is deep and narrow (`n - 1` links).
//!
//! # Readiness model
//!
//! The workspace forbids `unsafe` everywhere but the SHA-NI call in
//! `third_party/sha2` (`unsafe_code = "forbid"` in `[workspace.lints]`
//! covers every other crate, this one included) and vendors no FFI
//! bindings, so `epoll(7)`/`poll(2)` cannot be called directly. The edge
//! is therefore a **level-triggered readiness sweep in safe Rust**: every
//! connection's socket is nonblocking, and each I/O thread repeatedly
//! sweeps its connections — one nonblocking `read`/`write` per connection
//! per wake, `WouldBlock` meaning "not ready" — then, when a sweep makes
//! no progress, parks on its bounded command mailbox for one fixed
//! `PARK` (1 ms). A command (a registration or a reply) ends the park at
//! once; a socket that turns readable meanwhile waits at most the rest of
//! it. The park does not grow while the thread idles: a backoff would put
//! its longest wait on every submission that arrives after a quiet spell,
//! and a client below saturation submits after nothing else. Semantically
//! this is a level-triggered poller with a 1 ms timeout; a real `epoll`
//! backend would slot into the sweeper's park step without touching the
//! connection state machines. What the design guarantees either way: the
//! thread count is `1 + io_threads` (acceptor + sweepers) regardless of
//! how many thousand clients connect.
//!
//! # Connection lifecycle and admission control
//!
//! ```text
//!              accept()                 first frame?
//!   listener ───────────► io thread ──┬── Hello{Replica} → hand socket
//!   (acceptor,            (sweep, no  │     back to the blocking
//!    round-robin)          thread per │     thread-per-peer reader
//!                          conn)      ├── Hello{Client} ──┬─ under cap:
//!                                     │                   │  register
//!                                     │                   │  reply route
//!                                     │                   └─ at cap:
//!                                     │                      ClientReject
//!                                     │                      (zero digest)
//!                                     │                      + close
//!                                     └── anything else → close
//!                                          (nothing forwarded, no slot)
//! ```
//!
//! Admission control is two-layered, per the paper's §III-E client
//! failover: a **hard cap** ([`EdgeConfig::max_clients`]) answers new
//! client hellos beyond it with a [`Frame::ClientReject`] carrying
//! [`Digest::ZERO`] — no submission carries the zero digest, so the
//! sentinel unambiguously means "connection refused, fail over to another
//! replica" — and **backpressure**: a connection with more than
//! [`DEFAULT_MAX_INFLIGHT`] unanswered submissions, or a frame parked
//! on a full node inbox, simply stops being read until the node catches
//! up. TCP's own flow control then pushes back to the client; nothing is
//! buffered without bound and nothing is silently dropped on the read
//! path. On the write path every connection has a bounded outbound queue;
//! overflow drops the frame and increments `transport.dropped_frames` in the
//! edge's [`EdgeTelemetry`], the transport's registry.

use crate::frame::{
    peek_kind, Frame, PeerKind, KIND_CLIENT_REJECT, KIND_CLIENT_REPLY, KIND_CLIENT_SUBMIT,
};
use crate::run::{pack_frame, record_len, OversizeFrame, PREFIX};
use crate::telemetry::EdgeTelemetry;
use rcc_common::{ClientId, Digest, ReplicaId};
use rcc_telemetry::{Counter, FlightEventKind};
use std::collections::BTreeMap;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, SyncSender, TryRecvError, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Default number of edge I/O threads.
pub const DEFAULT_IO_THREADS: usize = 2;
/// Default hard cap on simultaneously-connected clients.
pub const DEFAULT_MAX_CLIENTS: usize = 4096;
/// Bound of one connection's outbound frame queue.
pub const DEFAULT_CONN_QUEUE: usize = 64;
/// Unanswered submissions a connection may have in flight before the edge
/// stops reading it (read-side backpressure).
pub const DEFAULT_MAX_INFLIGHT: usize = 64;

/// How long a sweep thread waits after a pass that moved nothing: the
/// edge's I/O threads on their mailbox, the fleet's driver threads in a
/// sleep. The longest a readable socket waits for its next sweep.
pub(crate) const PARK: Duration = Duration::from_millis(1);
/// How long a connection may sit silent before its first frame.
const HELLO_TIMEOUT: Duration = Duration::from_secs(5);
/// Most bytes one connection may read per sweep (fairness bound).
const SWEEP_READ_BUDGET: usize = 64 * 1024;
/// Bound of each I/O thread's command mailbox (registrations + replies).
const EDGE_MAILBOX_CAPACITY: usize = 16 * 1024;

/// Tuning of one replica's client edge.
#[derive(Clone, Copy, Debug)]
pub struct EdgeConfig {
    /// I/O threads sweeping client connections (clamped to ≥ 1).
    pub io_threads: usize,
    /// Hard cap on simultaneously-connected clients; beyond it new
    /// connections are answered with a zero-digest `ClientReject` and
    /// closed so the client fails over (§III-E).
    pub max_clients: usize,
}

impl Default for EdgeConfig {
    fn default() -> EdgeConfig {
        EdgeConfig {
            io_threads: DEFAULT_IO_THREADS,
            max_clients: DEFAULT_MAX_CLIENTS,
        }
    }
}

/// The bytes read off one stream that are not yet parsed into frames.
///
/// Frames are parsed with a cursor, and the parsed prefix is dropped once
/// per read ([`FrameReader::extend`]) rather than once per frame: a read
/// that carries a hundred votes moves the buffer's tail once, not a hundred
/// times.
#[derive(Default)]
pub(crate) struct FrameReader {
    buf: Vec<u8>,
    parsed: usize,
}

impl FrameReader {
    /// Starts from bytes somebody else already read off the stream.
    pub(crate) fn new(residue: Vec<u8>) -> FrameReader {
        FrameReader {
            buf: residue,
            parsed: 0,
        }
    }

    /// Appends freshly read bytes behind the unparsed ones.
    pub(crate) fn extend(&mut self, bytes: &[u8]) {
        self.buf.drain(..self.parsed);
        self.parsed = 0;
        self.buf.extend_from_slice(bytes);
    }

    /// Splits the next `[u32 BE length][frame]` record off, prefix and all
    /// (a run of one). `Ok(None)` means only a partial record is left;
    /// [`OversizeFrame`] means the caller must drop the connection.
    pub(crate) fn next_record(&mut self) -> Result<Option<&[u8]>, OversizeFrame> {
        let rest = &self.buf[self.parsed..];
        let Some(len) = record_len(rest)? else {
            return Ok(None);
        };
        self.parsed += len;
        Ok(Some(&rest[..len]))
    }

    /// The next record's frame, copied out without its prefix.
    pub(crate) fn next_frame(&mut self) -> Result<Option<Vec<u8>>, OversizeFrame> {
        Ok(self.next_record()?.map(|record| record[PREFIX..].to_vec()))
    }

    /// Every complete record buffered, copied out as one run: one
    /// allocation however many frames the last read carried. `Ok(None)`
    /// means no record is complete yet. Records in front of an oversize
    /// prefix are handed out first; the call after that reports it.
    pub(crate) fn take_run(&mut self) -> Result<Option<Vec<u8>>, OversizeFrame> {
        let start = self.parsed;
        loop {
            match record_len(&self.buf[self.parsed..]) {
                Ok(Some(len)) => self.parsed += len,
                Ok(None) => break,
                Err(OversizeFrame) if self.parsed == start => return Err(OversizeFrame),
                Err(OversizeFrame) => break,
            }
        }
        Ok((self.parsed > start).then(|| self.buf[start..self.parsed].to_vec()))
    }

    /// The bytes no frame was parsed from yet.
    pub(crate) fn into_unparsed(mut self) -> Vec<u8> {
        self.buf.drain(..self.parsed);
        self.buf
    }
}

/// A nonblocking framed connection: the per-connection read/write state
/// machine both the server edge and the fan-out client driver
/// (`crate::fleet`) run. Reads accumulate into a `FrameReader` that
/// [`NbConn::next_frame`] parses with the `tcp.rs` length-prefix framing;
/// writes pack a bounded number of pre-encoded frames into one buffer, which
/// `flush` hands to the socket whole (one `write` for everything queued, not
/// one per frame), surviving partial writes via an offset cursor.
pub struct NbConn {
    stream: TcpStream,
    rbuf: FrameReader,
    /// Queued frames, packed, waiting for `wpending` to drain.
    wqueued: Vec<u8>,
    wqueued_frames: usize,
    /// The buffer being written; `woffset` bytes of it already were.
    wpending: Vec<u8>,
    woffset: usize,
    queue_limit: usize,
    dead: bool,
}

impl NbConn {
    /// Wraps `stream`, switching it to nonblocking mode. `queue_limit`
    /// bounds the outbound frame queue (clamped to ≥ 1).
    pub fn new(stream: TcpStream, queue_limit: usize) -> std::io::Result<NbConn> {
        stream.set_nonblocking(true)?;
        let _ = stream.set_nodelay(true);
        Ok(NbConn {
            stream,
            rbuf: FrameReader::default(),
            wqueued: Vec::new(),
            wqueued_frames: 0,
            wpending: Vec::new(),
            woffset: 0,
            queue_limit: queue_limit.max(1),
            dead: false,
        })
    }

    /// Whether the connection hit EOF, an I/O error, or a framing
    /// violation. A dead connection never transmits again.
    pub fn is_dead(&self) -> bool {
        self.dead
    }

    /// Queues one frame (length prefix added here). Returns `false` — the
    /// frame is dropped — when the connection is dead or the bounded
    /// queue is full; the caller owns counting that drop.
    pub fn enqueue(&mut self, frame: &[u8]) -> bool {
        if self.dead || self.wqueued_frames >= self.queue_limit {
            return false;
        }
        pack_frame(&mut self.wqueued, frame);
        self.wqueued_frames += 1;
        true
    }

    /// Writes as much queued output as the socket accepts right now.
    /// Returns whether any bytes moved.
    pub fn flush(&mut self) -> bool {
        if self.dead {
            return false;
        }
        let mut progressed = false;
        loop {
            if self.woffset >= self.wpending.len() {
                if self.wqueued.is_empty() {
                    break;
                }
                self.wpending.clear();
                std::mem::swap(&mut self.wpending, &mut self.wqueued);
                self.woffset = 0;
                self.wqueued_frames = 0;
            }
            match self.stream.write(&self.wpending[self.woffset..]) {
                Ok(0) => {
                    self.dead = true;
                    break;
                }
                Ok(n) => {
                    self.woffset += n;
                    progressed = true;
                }
                Err(e)
                    if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::Interrupted =>
                {
                    break
                }
                Err(_) => {
                    self.dead = true;
                    break;
                }
            }
        }
        progressed
    }

    /// Whether everything queued has reached the socket.
    pub fn write_idle(&self) -> bool {
        self.woffset >= self.wpending.len() && self.wqueued.is_empty()
    }

    /// Frames currently waiting in the outbound queue (the edge telemetry's
    /// per-connection occupancy gauge reads this during sweeps).
    pub fn queued_frames(&self) -> usize {
        self.wqueued_frames
    }

    /// Reads whatever the socket has ready, up to `budget` bytes (the
    /// fairness bound keeping one firehose connection from starving its
    /// sweep siblings). Returns the bytes consumed; EOF or error marks
    /// the connection dead.
    pub fn fill(&mut self, budget: usize) -> usize {
        if self.dead {
            return 0;
        }
        let mut total = 0;
        let mut scratch = [0u8; 16 * 1024];
        while total < budget {
            match self.stream.read(&mut scratch) {
                Ok(0) => {
                    self.dead = true;
                    break;
                }
                Ok(n) => {
                    self.rbuf.extend(&scratch[..n]);
                    total += n;
                    if n < scratch.len() {
                        break;
                    }
                }
                Err(e)
                    if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::Interrupted =>
                {
                    break
                }
                Err(_) => {
                    self.dead = true;
                    break;
                }
            }
        }
        total
    }

    /// Parses the next complete frame out of the read buffer, if one
    /// accumulated. An oversized length prefix poisons the connection.
    pub fn next_frame(&mut self) -> Option<Vec<u8>> {
        match self.rbuf.next_frame() {
            Ok(frame) => frame,
            Err(OversizeFrame) => {
                self.dead = true;
                None
            }
        }
    }

    /// The next complete record with its length prefix — a run of one, which
    /// is what the node inbox takes — if one accumulated.
    pub(crate) fn next_record(&mut self) -> Option<Vec<u8>> {
        match self.rbuf.next_record() {
            Ok(record) => record.map(<[u8]>::to_vec),
            Err(OversizeFrame) => {
                self.dead = true;
                None
            }
        }
    }

    /// Dismantles the connection into its socket and the read bytes not
    /// yet parsed — how a `Hello{Replica}` connection is handed back to
    /// the blocking thread-per-peer reader without losing data that
    /// arrived behind the hello.
    pub fn into_parts(self) -> (TcpStream, Vec<u8>) {
        (self.stream, self.rbuf.into_unparsed())
    }
}

/// Where a socket that announced `Hello{Replica}` is handed, together with
/// any already-read residue bytes (the transport spawns its blocking
/// per-peer reader there).
pub type ReplicaHandoff = Arc<dyn Fn(TcpStream, Vec<u8>) + Send + Sync>;

/// What one registered connection is, after its first frame.
enum Peer {
    /// No frame yet; timed out after [`HELLO_TIMEOUT`].
    AwaitingHello,
    /// Announced `Hello{Client}`: replies route back here.
    Client(u64),
}

/// One connection under edge management.
struct EdgeConn {
    conn: NbConn,
    peer: Peer,
    since: Instant,
    /// Submissions read off this connection not yet answered by a reply
    /// or reject (read-side backpressure gauge).
    inflight: u32,
    /// A record (a run of one) extracted from the socket that the node inbox
    /// had no room for: delivery retries next sweep, and the connection is
    /// not read past it (backpressure instead of loss).
    parked: Option<Vec<u8>>,
    /// Flushing its last frames (e.g. an admission reject), then closed.
    doomed: bool,
}

/// Commands an I/O thread's mailbox carries.
enum EdgeCommand {
    /// A freshly accepted socket to take over.
    Register(TcpStream),
    /// A frame for one of this thread's connections (conn id, frame).
    Deliver(u64, Vec<u8>),
}

/// Reply route of a registered client: which thread, which connection.
#[derive(Clone, Copy)]
struct Route {
    thread: usize,
    conn: u64,
}

type Routes = Arc<Mutex<BTreeMap<u64, Route>>>;

/// The client edge of one replica: an acceptor hands sockets to
/// [`EdgeConfig::io_threads`] sweep threads; client frames funnel into the
/// node inbox; replies route back through [`ClientEdge::send_to_client`].
pub struct ClientEdge {
    mailboxes: Vec<SyncSender<EdgeCommand>>,
    routes: Routes,
    /// Admission-control state, not a metric: the clients registered now.
    active: Arc<AtomicUsize>,
    next: Arc<AtomicUsize>,
    threads: Vec<JoinHandle<()>>,
    telemetry: EdgeTelemetry,
}

/// The acceptor's cheap cloneable view of a [`ClientEdge`]: registration
/// only. Lets the accept loop live on its own thread while the transport
/// keeps ownership of the edge itself.
#[derive(Clone)]
pub struct EdgeRegistrar {
    mailboxes: Vec<SyncSender<EdgeCommand>>,
    rejected: Counter,
    next: Arc<AtomicUsize>,
}

impl EdgeRegistrar {
    /// Hands a freshly accepted socket to the next I/O thread in round
    /// robin. An edge too overloaded to even enqueue the registration
    /// drops the socket (the client observes a closed connection and
    /// fails over per §III-E) and counts it as rejected.
    pub fn register(&self, stream: TcpStream) {
        let turn = self.next.fetch_add(1, Ordering::Relaxed);
        let slot = turn % self.mailboxes.len().max(1);
        match self.mailboxes.get(slot) {
            Some(mailbox) if mailbox.try_send(EdgeCommand::Register(stream)).is_ok() => {}
            _ => self.rejected.inc(),
        }
    }
}

impl ClientEdge {
    /// Spawns the edge's I/O threads for replica `me`. Client frames are
    /// forwarded into `inbox`, each as a run of one (the record as it was
    /// read, prefix included); sockets that turn out to be replica peer
    /// links are passed to `on_replica`. Every sweep thread counts and
    /// records into `telemetry`, the owning transport's bundle. The edge
    /// observes `shutdown` and stops sweeping once it is raised (join via
    /// [`ClientEdge::join`]).
    pub fn spawn(
        me: ReplicaId,
        config: EdgeConfig,
        inbox: SyncSender<Vec<u8>>,
        on_replica: ReplicaHandoff,
        shutdown: Arc<AtomicBool>,
        telemetry: EdgeTelemetry,
    ) -> std::io::Result<ClientEdge> {
        let routes: Routes = Arc::new(Mutex::new(BTreeMap::new()));
        let active = Arc::new(AtomicUsize::new(0));
        let mut mailboxes = Vec::new();
        let mut threads = Vec::new();
        for index in 0..config.io_threads.max(1) {
            let (tx, rx) = std::sync::mpsc::sync_channel::<EdgeCommand>(EDGE_MAILBOX_CAPACITY);
            let worker = IoThread {
                index,
                me,
                config,
                inbox: inbox.clone(),
                routes: Arc::clone(&routes),
                active: Arc::clone(&active),
                shutdown: Arc::clone(&shutdown),
                on_replica: Arc::clone(&on_replica),
                telemetry: telemetry.clone(),
            };
            let thread = std::thread::Builder::new()
                .name(format!("rcc-edge-{}-{index}", me.0))
                .spawn(move || worker.run(rx))
                .map_err(std::io::Error::other)?;
            mailboxes.push(tx);
            threads.push(thread);
        }
        Ok(ClientEdge {
            mailboxes,
            routes,
            active,
            next: Arc::new(AtomicUsize::new(0)),
            threads,
            telemetry,
        })
    }

    /// The edge's telemetry bundle: the `transport.*` counters,
    /// sweep-latency histogram, per-connection queue-occupancy gauge, and
    /// the admission flight recorder. Clones share the underlying registry,
    /// so snapshots here observe the sweep threads live.
    pub fn telemetry(&self) -> &EdgeTelemetry {
        &self.telemetry
    }

    /// A cloneable registration-only handle for the accept loop.
    pub fn registrar(&self) -> EdgeRegistrar {
        EdgeRegistrar {
            mailboxes: self.mailboxes.clone(),
            rejected: self.telemetry.rejected_connections.clone(),
            next: Arc::clone(&self.next),
        }
    }

    /// Hands a freshly accepted socket to the next I/O thread in round
    /// robin (see [`EdgeRegistrar::register`]).
    pub fn register(&self, stream: TcpStream) {
        self.registrar().register(stream);
    }

    /// Routes a frame to the connection `to` registered over. Dropped
    /// (and counted) when the owning thread's mailbox is full; silently
    /// ignored when the client is not connected — exactly the old
    /// registry semantics, so the consensus mailbox thread never blocks
    /// on a client.
    pub fn send_to_client(&self, to: ClientId, frame: Vec<u8>) {
        let route = crate::lock_unpoisoned(&self.routes).get(&to.0).copied();
        let Some(route) = route else { return };
        let Some(mailbox) = self.mailboxes.get(route.thread) else {
            return;
        };
        match mailbox.try_send(EdgeCommand::Deliver(route.conn, frame)) {
            Ok(()) => {}
            Err(TrySendError::Full(_)) => self.telemetry.dropped_frames.inc(),
            Err(TrySendError::Disconnected(_)) => {}
        }
    }

    /// Clients currently registered.
    pub fn active_clients(&self) -> usize {
        self.active.load(Ordering::Relaxed)
    }

    /// Number of sweep threads serving the edge.
    pub fn io_threads(&self) -> usize {
        self.threads.len()
    }

    /// Joins the I/O threads. The shared shutdown flag must already be
    /// raised, or this blocks for the threads' lifetime.
    pub fn join(&mut self) {
        self.mailboxes.clear();
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
    }
}

/// One sweep thread: owns a set of connections, alternates between
/// draining its command mailbox, sweeping every connection's socket, and
/// parking on the mailbox for one [`PARK`] when nothing moved.
struct IoThread {
    index: usize,
    me: ReplicaId,
    config: EdgeConfig,
    inbox: SyncSender<Vec<u8>>,
    routes: Routes,
    active: Arc<AtomicUsize>,
    shutdown: Arc<AtomicBool>,
    on_replica: ReplicaHandoff,
    telemetry: EdgeTelemetry,
}

impl IoThread {
    fn run(self, mailbox: Receiver<EdgeCommand>) {
        let mut conns: BTreeMap<u64, EdgeConn> = BTreeMap::new();
        let mut next_conn: u64 = 0;
        while !self.shutdown.load(Ordering::Relaxed) {
            let mut progressed = false;
            loop {
                match mailbox.try_recv() {
                    Ok(command) => {
                        self.handle(command, &mut conns, &mut next_conn);
                        progressed = true;
                    }
                    Err(TryRecvError::Empty) => break,
                    Err(TryRecvError::Disconnected) => {
                        self.retire_all(conns);
                        return;
                    }
                }
            }
            progressed |= self.sweep(&mut conns);
            if progressed {
                continue;
            }
            // Idle: park on the mailbox so a reply or a registration
            // wakes the thread instantly, with a timeout so newly
            // readable sockets are swept within `PARK`. This wait is the
            // seam a real `epoll_wait` would replace.
            match mailbox.recv_timeout(PARK) {
                Ok(command) => self.handle(command, &mut conns, &mut next_conn),
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => break,
            }
        }
        self.retire_all(conns);
    }

    fn handle(
        &self,
        command: EdgeCommand,
        conns: &mut BTreeMap<u64, EdgeConn>,
        next_conn: &mut u64,
    ) {
        match command {
            EdgeCommand::Register(stream) => {
                // A socket that cannot be switched to nonblocking mode
                // (already reset by the peer, usually) is simply dropped;
                // the client sees a closed connection and fails over.
                if let Ok(conn) = NbConn::new(stream, DEFAULT_CONN_QUEUE) {
                    let id = *next_conn;
                    *next_conn += 1;
                    conns.insert(
                        id,
                        EdgeConn {
                            conn,
                            peer: Peer::AwaitingHello,
                            since: Instant::now(),
                            inflight: 0,
                            parked: None,
                            doomed: false,
                        },
                    );
                }
            }
            EdgeCommand::Deliver(conn, frame) => {
                let Some(entry) = conns.get_mut(&conn) else {
                    // The connection died with replies in flight; nothing
                    // to do (same as the old registry race on disconnect).
                    return;
                };
                // A reply or reject answers one submission: release the
                // read-side backpressure slot whether or not the frame
                // fits the outbound queue (the gauge tracks consensus
                // progress, not queue occupancy).
                if matches!(
                    peek_kind(&frame),
                    Some(KIND_CLIENT_REPLY | KIND_CLIENT_REJECT)
                ) {
                    entry.inflight = entry.inflight.saturating_sub(1);
                }
                if !entry.conn.enqueue(&frame) {
                    self.telemetry.dropped_frames.inc();
                }
            }
        }
    }

    /// One pass over every connection: flush writes, deliver parked
    /// frames, read what is ready, classify first frames. Returns whether
    /// anything moved.
    fn sweep(&self, conns: &mut BTreeMap<u64, EdgeConn>) -> bool {
        let mut progressed = false;
        let mut closed: Vec<u64> = Vec::new();
        let mut handoffs: Vec<u64> = Vec::new();
        // Empty sweeps are not timed: an idle thread spinning over zero
        // connections would drown the latency histogram's zero bucket.
        let sweep_start = if conns.is_empty() {
            None
        } else {
            Some(self.telemetry.now_nanos())
        };
        for (&id, entry) in conns.iter_mut() {
            self.telemetry
                .conn_queue_peak
                .set_max(entry.conn.queued_frames() as u64);
            progressed |= entry.conn.flush();
            if entry.conn.is_dead() || (entry.doomed && entry.conn.write_idle()) {
                closed.push(id);
                continue;
            }
            if entry.doomed {
                continue; // still draining its final frames
            }
            if let Some(record) = entry.parked.take() {
                match self.inbox.try_send(record) {
                    Ok(()) => progressed = true,
                    Err(TrySendError::Full(record)) => {
                        entry.parked = Some(record);
                        continue; // inbox still full: do not read past it
                    }
                    Err(TrySendError::Disconnected(_)) => {
                        closed.push(id);
                        continue;
                    }
                }
            }
            if matches!(entry.peer, Peer::AwaitingHello) && entry.since.elapsed() > HELLO_TIMEOUT {
                closed.push(id);
                continue;
            }
            if (entry.inflight as usize) >= DEFAULT_MAX_INFLIGHT {
                continue; // backpressure: stop reading this connection
            }
            progressed |= entry.conn.fill(SWEEP_READ_BUDGET) > 0;
            if self.drain_frames(id, entry, &mut handoffs) {
                progressed = true;
            }
            if entry.conn.is_dead() {
                closed.push(id);
            }
        }
        for id in handoffs {
            if let Some(entry) = conns.remove(&id) {
                let (stream, residue) = entry.conn.into_parts();
                (self.on_replica)(stream, residue);
            }
        }
        for id in closed {
            if let Some(entry) = conns.remove(&id) {
                self.retire(id, entry);
            }
        }
        if let Some(start) = sweep_start {
            self.telemetry
                .sweep_us
                .record(self.telemetry.now_nanos().saturating_sub(start) / 1_000);
        }
        progressed
    }

    /// Parses and routes every complete frame buffered on one connection.
    /// Returns whether any frame was consumed; pushes the connection onto
    /// `handoffs` when it announced itself as a replica peer link.
    fn drain_frames(&self, id: u64, entry: &mut EdgeConn, handoffs: &mut Vec<u64>) -> bool {
        let mut any = false;
        loop {
            if entry.doomed || entry.parked.is_some() {
                return any;
            }
            if (entry.inflight as usize) >= DEFAULT_MAX_INFLIGHT {
                return any;
            }
            let Some(record) = entry.conn.next_record() else {
                return any;
            };
            any = true;
            let frame = &record[PREFIX..];
            match entry.peer {
                Peer::AwaitingHello => match Frame::decode_frame(frame) {
                    Ok(Frame::Hello {
                        peer: PeerKind::Replica(_),
                    }) => {
                        // Replica link: forward the hello for parity with
                        // the old reader path, then hand the socket (and
                        // any residue) back to the blocking per-peer
                        // reader. The connection leaves this thread.
                        self.forward(entry, record);
                        handoffs.push(id);
                        return true;
                    }
                    Ok(Frame::Hello {
                        peer: PeerKind::Client(client),
                    }) => {
                        if self.admit() {
                            entry.peer = Peer::Client(client.0);
                            crate::lock_unpoisoned(&self.routes).insert(
                                client.0,
                                Route {
                                    thread: self.index,
                                    conn: id,
                                },
                            );
                            self.forward(entry, record);
                        } else {
                            self.reject(entry);
                        }
                    }
                    _ => {
                        // No hello: not a peer that speaks this protocol
                        // (a stray scanner, a corrupted stream). Nothing of
                        // it reaches the node and it takes no admission
                        // slot; the next sweep closes the connection.
                        entry.doomed = true;
                    }
                },
                Peer::Client(_) => {
                    if peek_kind(frame) == Some(KIND_CLIENT_SUBMIT) {
                        entry.inflight = entry.inflight.saturating_add(1);
                    }
                    self.forward(entry, record);
                }
            }
        }
    }

    /// Claims one admission slot; `false` means the cap is reached. The
    /// check-and-claim is atomic, so concurrent sweeps on other threads
    /// cannot jointly exceed the cap.
    fn admit(&self) -> bool {
        let prior = self.active.fetch_add(1, Ordering::Relaxed);
        if prior >= self.config.max_clients.max(1) {
            self.active.fetch_sub(1, Ordering::Relaxed);
            return false;
        }
        self.telemetry.peak_clients.set_max(prior as u64 + 1);
        true
    }

    /// Admission rejection: answer with the zero-digest `ClientReject`
    /// sentinel (no submission hashes to zero, so the client reads it as
    /// "connection refused — fail over") and doom the connection, which
    /// closes once the reject flushes.
    fn reject(&self, entry: &mut EdgeConn) {
        self.telemetry.rejected_connections.inc();
        self.telemetry.event(
            self.me.0,
            FlightEventKind::AdmissionReject {
                connections: self.active.load(Ordering::Relaxed) as u64,
            },
        );
        let reject = Frame::ClientReject {
            replica: self.me,
            digest: Digest::ZERO,
        };
        let _ = entry.conn.enqueue(&reject.encode_frame());
        entry.conn.flush();
        entry.doomed = true;
    }

    /// Pushes one record toward the node inbox; a full inbox parks it on
    /// the connection (read backpressure) instead of dropping it.
    fn forward(&self, entry: &mut EdgeConn, record: Vec<u8>) {
        match self.inbox.try_send(record) {
            Ok(()) => {}
            Err(TrySendError::Full(record)) => entry.parked = Some(record),
            Err(TrySendError::Disconnected(_)) => entry.doomed = true,
        }
    }

    /// Releases a closed connection's admission slot and reply route.
    fn retire(&self, id: u64, entry: EdgeConn) {
        match entry.peer {
            Peer::AwaitingHello => {}
            Peer::Client(client) => {
                self.active.fetch_sub(1, Ordering::Relaxed);
                // Only unhook the route while it still points at this very
                // connection; a client that reconnected (same id, new
                // socket, possibly another thread) owns the route now.
                let mut routes = crate::lock_unpoisoned(&self.routes);
                if routes
                    .get(&client)
                    .is_some_and(|route| route.thread == self.index && route.conn == id)
                {
                    routes.remove(&client);
                }
            }
        }
    }

    fn retire_all(&self, conns: BTreeMap<u64, EdgeConn>) {
        for (id, entry) in conns {
            self.retire(id, entry);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::MAX_FRAME_BYTES;
    use crate::run::into_run;
    use std::net::TcpListener;

    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let a = TcpStream::connect(addr).unwrap();
        let (b, _) = listener.accept().unwrap();
        (a, b)
    }

    fn read_one_frame(stream: &mut TcpStream) -> Vec<u8> {
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut len = [0u8; 4];
        stream.read_exact(&mut len).unwrap();
        let mut frame = vec![0u8; u32::from_be_bytes(len) as usize];
        stream.read_exact(&mut frame).unwrap();
        frame
    }

    #[test]
    fn the_frame_reader_splits_records_however_the_reads_fall() {
        let frames: Vec<Vec<u8>> = (0..200usize).map(|i| vec![i as u8; (i * 7) % 90]).collect();
        let mut stream = Vec::new();
        for frame in &frames {
            pack_frame(&mut stream, frame);
        }
        // Whole stream in one read, then in reads of every awkward size.
        for chunk in [stream.len(), 1, 3, 4, 5, 64, 1_000] {
            let mut reader = FrameReader::default();
            let mut got = Vec::new();
            for bytes in stream.chunks(chunk) {
                reader.extend(bytes);
                while let Some(frame) = reader.next_frame().expect("well-formed") {
                    got.push(frame);
                }
            }
            assert_eq!(got, frames, "reads of {chunk} bytes");
            assert!(reader.into_unparsed().is_empty());
        }
        // What was read past the last whole record is handed on untouched.
        let mut reader = FrameReader::new(stream[..10].to_vec());
        assert_eq!(reader.next_frame(), Ok(Some(frames[0].clone())));
        assert_eq!(reader.next_frame(), Ok(None));
        assert_eq!(reader.into_unparsed(), stream[4..10]);
    }

    #[test]
    fn each_read_s_complete_records_leave_as_one_run() {
        let frames: Vec<Vec<u8>> = (0..200usize).map(|i| vec![i as u8; (i * 7) % 90]).collect();
        let mut stream = Vec::new();
        for frame in &frames {
            pack_frame(&mut stream, frame);
        }
        for chunk in [stream.len(), 1, 3, 4, 5, 64, 1_000] {
            let mut reader = FrameReader::default();
            let mut runs = 0;
            let mut joined = Vec::new();
            for bytes in stream.chunks(chunk) {
                reader.extend(bytes);
                // At most one run per read, holding whole records only; the
                // partial record behind them waits for the next read.
                if let Some(run) = reader.take_run().expect("well-formed") {
                    assert!(crate::run::frames(&run).all(|frame| frame.is_ok()));
                    joined.extend(run);
                    runs += 1;
                }
                assert_eq!(reader.take_run(), Ok(None));
            }
            assert_eq!(joined, stream, "reads of {chunk} bytes");
            assert!(runs <= stream.len().div_ceil(chunk));
            assert!(reader.into_unparsed().is_empty());
        }
        // Records in front of an oversize prefix are delivered; the prefix
        // is reported by the call after, and every call from then on.
        let whole: usize = frames[..10].iter().map(|frame| 4 + frame.len()).sum();
        let mut poisoned = stream[..whole].to_vec();
        poisoned.extend_from_slice(&(MAX_FRAME_BYTES as u32 + 1).to_be_bytes());
        let mut reader = FrameReader::new(poisoned);
        assert_eq!(reader.take_run(), Ok(Some(stream[..whole].to_vec())));
        assert_eq!(reader.take_run(), Err(OversizeFrame));
        assert_eq!(reader.take_run(), Err(OversizeFrame));
    }

    #[test]
    fn one_flush_hands_the_socket_everything_queued() {
        let (client, mut server) = pair();
        let mut conn = NbConn::new(client, 8).unwrap();
        for frame in [&b"accept"[..], b"reply-0", b"reply-1", b"reply-2"] {
            assert!(conn.enqueue(frame));
        }
        assert_eq!(conn.queued_frames(), 4);
        assert!(conn.flush());
        assert!(conn.write_idle());
        assert_eq!(conn.queued_frames(), 0);
        for frame in [&b"accept"[..], b"reply-0", b"reply-1", b"reply-2"] {
            assert_eq!(read_one_frame(&mut server), frame);
        }
    }

    #[test]
    fn nb_conn_round_trips_frames_across_partial_reads() {
        let (client, server) = pair();
        let mut tx = NbConn::new(client, 8).unwrap();
        let mut rx = NbConn::new(server, 8).unwrap();
        let big = vec![7u8; 300 * 1024]; // larger than any socket buffer
        assert!(tx.enqueue(&big));
        assert!(tx.enqueue(b"tail"));
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut got: Vec<Vec<u8>> = Vec::new();
        while got.len() < 2 && Instant::now() < deadline {
            tx.flush();
            rx.fill(usize::MAX);
            while let Some(frame) = rx.next_frame() {
                got.push(frame);
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(got.len(), 2);
        assert_eq!(got[0], big);
        assert_eq!(got[1], b"tail");
        assert!(tx.write_idle());
        assert!(!rx.is_dead());
    }

    #[test]
    fn enqueue_respects_the_queue_bound() {
        let (client, _server) = pair();
        let mut conn = NbConn::new(client, 2).unwrap();
        assert!(conn.enqueue(b"a"));
        assert!(conn.enqueue(b"b"));
        assert!(!conn.enqueue(b"dropped"));
        conn.flush();
        // Flushing drains the queue, freeing slots again.
        assert!(conn.enqueue(b"c"));
    }

    #[test]
    fn an_oversized_length_prefix_poisons_the_connection() {
        let (mut client, server) = pair();
        let mut rx = NbConn::new(server, 4).unwrap();
        let huge = (MAX_FRAME_BYTES as u32 + 1).to_be_bytes();
        client.write_all(&huge).unwrap();
        client.write_all(&[0u8; 64]).unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        while rx.fill(usize::MAX) == 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(rx.next_frame(), None);
        assert!(rx.is_dead());
    }

    /// Everything a test needs from a freshly spun-up edge: the edge
    /// itself, its inbox, the replica-handoff channel, the shutdown flag,
    /// and the listener whose address clients dial.
    type EdgeFixture = (
        ClientEdge,
        Receiver<Vec<u8>>,
        Receiver<(TcpStream, Vec<u8>)>,
        Arc<AtomicBool>,
        TcpListener,
    );

    fn edge_fixture(config: EdgeConfig) -> EdgeFixture {
        let (inbox_tx, inbox_rx) = std::sync::mpsc::sync_channel::<Vec<u8>>(1024);
        let (handoff_tx, handoff_rx) = std::sync::mpsc::sync_channel(8);
        let shutdown = Arc::new(AtomicBool::new(false));
        let on_replica: ReplicaHandoff = Arc::new(move |stream, residue| {
            let _ = handoff_tx.try_send((stream, residue));
        });
        let edge = ClientEdge::spawn(
            ReplicaId(0),
            config,
            inbox_tx,
            on_replica,
            Arc::clone(&shutdown),
            EdgeTelemetry::new(),
        )
        .unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        (edge, inbox_rx, handoff_rx, shutdown, listener)
    }

    fn connect_registered(edge: &ClientEdge, listener: &TcpListener) -> TcpStream {
        let stream = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (accepted, _) = listener.accept().unwrap();
        edge.register(accepted);
        stream
    }

    #[test]
    fn client_frames_flow_in_and_replies_route_back() {
        let (edge, inbox, _handoffs, shutdown, listener) = edge_fixture(EdgeConfig::default());
        let mut client = connect_registered(&edge, &listener);
        let hello = Frame::Hello {
            peer: PeerKind::Client(ClientId(7)),
        }
        .encode_frame();
        crate::tcp::write_frame(&mut client, &hello).unwrap();
        // The inbox takes runs: a client frame arrives as a run of one.
        let first = inbox.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(first, into_run(hello));
        // Replies route back over the registered connection.
        let deadline = Instant::now() + Duration::from_secs(5);
        while edge.active_clients() == 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        let reply = Frame::ClientReject {
            replica: ReplicaId(0),
            digest: Digest::from_bytes([9; 32]),
        }
        .encode_frame();
        edge.send_to_client(ClientId(7), reply.clone());
        assert_eq!(read_one_frame(&mut client), reply);
        shutdown.store(true, Ordering::Relaxed);
    }

    /// A client below saturation submits after a quiet spell, every time.
    /// An edge whose park grew while it idled (doubling from 1 ms to
    /// 10 ms, say) would leave each such frame on its socket for up to the
    /// grown park, ≈ 5 ms in the median; a fixed 1 ms park picks it up
    /// within about a millisecond.
    #[test]
    fn an_idle_edge_picks_up_a_submission_promptly() {
        let (edge, inbox, _handoffs, shutdown, listener) = edge_fixture(EdgeConfig::default());
        let mut client = connect_registered(&edge, &listener);
        let hello = Frame::Hello {
            peer: PeerKind::Client(ClientId(7)),
        }
        .encode_frame();
        crate::tcp::write_frame(&mut client, &hello).unwrap();
        assert_eq!(
            inbox.recv_timeout(Duration::from_secs(5)).unwrap(),
            into_run(hello)
        );
        let submit = Frame::ClientSubmit {
            client: ClientId(7),
            instance: rcc_common::InstanceId(0),
            payload: vec![9; 100],
            tag: rcc_crypto::AuthTag::Mac(rcc_crypto::MacTag([5; 32])),
        }
        .encode_frame();
        let mut waits: Vec<Duration> = (0..16u32)
            .map(|trial| {
                // Long enough for a doubling park to reach 10 ms. The edge
                // restarts its schedule at every frame, so the quiet spells
                // step through one such park, or every frame would land at
                // the same phase of it.
                std::thread::sleep(Duration::from_micros(40_000 + 625 * u64::from(trial)));
                let sent = Instant::now();
                crate::tcp::write_frame(&mut client, &submit).unwrap();
                let got = inbox.recv_timeout(Duration::from_secs(5)).unwrap();
                let waited = sent.elapsed();
                assert_eq!(got, into_run(submit.clone()));
                waited
            })
            .collect();
        waits.sort();
        let median = waits[waits.len() / 2];
        assert!(
            median <= Duration::from_millis(3),
            "an idle edge took {median:?} in the median to pick up a submission: {waits:?}"
        );
        shutdown.store(true, Ordering::Relaxed);
    }

    #[test]
    fn the_admission_cap_rejects_with_the_zero_digest_sentinel() {
        let config = EdgeConfig {
            max_clients: 1,
            ..EdgeConfig::default()
        };
        let (edge, inbox, _handoffs, shutdown, listener) = edge_fixture(config);
        let mut first = connect_registered(&edge, &listener);
        let hello_first = Frame::Hello {
            peer: PeerKind::Client(ClientId(1)),
        }
        .encode_frame();
        crate::tcp::write_frame(&mut first, &hello_first).unwrap();
        assert_eq!(
            inbox.recv_timeout(Duration::from_secs(5)).unwrap(),
            into_run(hello_first)
        );

        let mut second = connect_registered(&edge, &listener);
        let hello_second = Frame::Hello {
            peer: PeerKind::Client(ClientId(2)),
        }
        .encode_frame();
        crate::tcp::write_frame(&mut second, &hello_second).unwrap();
        let frame = read_one_frame(&mut second);
        assert_eq!(
            Frame::decode_frame(&frame).unwrap(),
            Frame::ClientReject {
                replica: ReplicaId(0),
                digest: Digest::ZERO,
            }
        );
        // The rejected connection is closed once the reject flushed.
        second
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut scratch = [0u8; 8];
        assert_eq!(second.read(&mut scratch).unwrap_or(0), 0);
        let snapshot = edge.telemetry().snapshot();
        assert_eq!(snapshot.counter("transport.rejected_connections"), Some(1));
        assert_eq!(snapshot.gauge("transport.peak_clients"), Some(1));
        shutdown.store(true, Ordering::Relaxed);
    }

    #[test]
    fn a_connection_that_skips_hello_is_closed_and_forwards_nothing() {
        let (edge, inbox, _handoffs, shutdown, listener) = edge_fixture(EdgeConfig::default());
        let mut stranger = connect_registered(&edge, &listener);
        // Two well-formed frames, neither a hello, in one burst.
        let not_a_hello = Frame::ClientReject {
            replica: ReplicaId(2),
            digest: Digest::from_bytes([4; 32]),
        }
        .encode_frame();
        crate::tcp::write_frame(&mut stranger, &not_a_hello).unwrap();
        crate::tcp::write_frame(&mut stranger, &not_a_hello).unwrap();
        // The edge hangs up without a word (a reset counts: it closed with
        // the second frame unread)…
        stranger
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        match stranger.read(&mut [0u8; 8]) {
            Ok(0) => {}
            Err(e) if !matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            other => panic!("the connection is still open: {other:?}"),
        }
        // …nothing reached the node, and no admission slot was taken.
        assert!(inbox.try_recv().is_err());
        assert_eq!(edge.active_clients(), 0);
        let snapshot = edge.telemetry().snapshot();
        assert_eq!(snapshot.gauge("transport.peak_clients"), Some(0));
        assert_eq!(snapshot.counter("transport.rejected_connections"), Some(0));
        shutdown.store(true, Ordering::Relaxed);
    }

    #[test]
    fn replica_hellos_hand_the_socket_back_with_residue() {
        let (edge, inbox, handoffs, shutdown, listener) = edge_fixture(EdgeConfig::default());
        let mut peer = connect_registered(&edge, &listener);
        let hello = Frame::Hello {
            peer: PeerKind::Replica(ReplicaId(3)),
        }
        .encode_frame();
        // Write the hello and a trailing frame in one burst so the sweep
        // reads both; the trailing frame must survive as residue.
        let trailing = Frame::ClientReject {
            replica: ReplicaId(3),
            digest: Digest::from_bytes([1; 32]),
        }
        .encode_frame();
        crate::tcp::write_frame(&mut peer, &hello).unwrap();
        crate::tcp::write_frame(&mut peer, &trailing).unwrap();
        assert_eq!(
            inbox.recv_timeout(Duration::from_secs(5)).unwrap(),
            into_run(hello)
        );
        let (_stream, residue) = handoffs.recv_timeout(Duration::from_secs(5)).unwrap();
        // The residue may hold the trailing frame (if the sweep's read
        // grabbed both) or be empty (if the hello arrived alone); when
        // present it must parse exactly.
        if !residue.is_empty() {
            let mut residue = FrameReader::new(residue);
            assert_eq!(residue.next_frame(), Ok(Some(trailing)));
            assert!(residue.into_unparsed().is_empty());
        }
        assert_eq!(edge.active_clients(), 0, "peer links hold no client slot");
        shutdown.store(true, Ordering::Relaxed);
    }

    #[test]
    fn edge_threads_join_on_shutdown() {
        let (mut edge, _inbox, _handoffs, shutdown, listener) = edge_fixture(EdgeConfig {
            io_threads: 3,
            ..EdgeConfig::default()
        });
        let _conn = connect_registered(&edge, &listener);
        assert_eq!(edge.io_threads(), 3);
        shutdown.store(true, Ordering::Relaxed);
        edge.join();
    }
}
