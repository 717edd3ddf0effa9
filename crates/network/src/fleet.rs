//! The client driver: one client session or thousands, over a handful of
//! threads.
//!
//! Every client this crate runs — `rcc-node cluster --clients N`, `rcc-node
//! client`, in-process clusters, the 1,024-connection edge smoke — is a
//! sans-io [`DriverSession`] (the §III-E policy from `rcc-workload`) swept
//! here. A thousand closed-loop clients as a thousand OS threads would
//! exhaust on the driving side the very thread budget the readiness-driven
//! edge saves on the serving side, so this module is the mirror image of
//! [`crate::event_loop`]: each driver thread owns a chunk of sessions and
//! sweeps their links the way the edge sweeps its accepted sockets. Over
//! TCP a session holds one nonblocking connection ([`NbConn`]) per replica
//! — `sessions × n` connections, `ceil(sessions / SESSIONS_PER_THREAD)`
//! threads; in process it polls one [`InProcessClientChannel`].
//!
//! Failure handling is delegated to the session: dead or refused
//! connections surface as [`DriverSession::on_connection_refused`] (the
//! edge's zero-digest `ClientReject` admission sentinel takes the same
//! path), so a session turned away by a saturated replica fails over to
//! another replica and still completes its batches — the property the
//! admission-control regression test pins down.

use crate::event_loop::{NbConn, DEFAULT_CONN_QUEUE, PARK};
use crate::frame::{Frame, PeerKind};
use crate::telemetry::EdgeTelemetry;
use crate::transport::{ClientChannel, InProcessClientChannel, InProcessNetwork};
use rcc_common::codec::Encode;
use rcc_common::{ClientId, CryptoMode, Digest, InstanceId, ReplicaId, SystemConfig};
use rcc_crypto::{AuthTag, ClientKeys, DeploymentKeys};
use rcc_telemetry::FlightEventKind;
use rcc_workload::{DriverSession, SessionStats};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Sessions one driver thread multiplexes.
const SESSIONS_PER_THREAD: usize = 512;

/// Connect timeout of one (re-)dial attempt. Short: a down replica costs a
/// session a fraction of a second, and the capped backoff below keeps it
/// from being probed hot.
const DIAL_TIMEOUT: Duration = Duration::from_millis(100);
/// First re-dial delay after a connection dies or is refused.
const DIAL_BACKOFF_FLOOR_MS: u64 = 50;
/// Re-dial backoff cap.
const DIAL_BACKOFF_CAP_MS: u64 = 500;
/// At most this many blocking dial attempts per sweep pass, so a pass over
/// thousands of links toward a dead replica stays bounded.
const DIALS_PER_PASS: usize = 256;
/// Read budget per connection per sweep pass.
const SWEEP_READ_BUDGET: usize = 16 * 1024;

/// How a fleet's sessions reach the replicas.
#[derive(Clone, Debug)]
pub enum Endpoints {
    /// Replica listener addresses, indexed by replica id: every session
    /// dials one nonblocking socket per replica.
    Tcp(Vec<SocketAddr>),
    /// The hub of an in-process deployment: every session polls one
    /// channel that merges all replicas' replies.
    InProcess(InProcessNetwork),
}

/// Everything needed to drive a fleet of client sessions at a cluster.
#[derive(Clone, Debug)]
pub struct FleetPlan {
    /// The deployment (n, f, m, batching, crypto mode, seed) — must match
    /// the replicas'.
    pub system: SystemConfig,
    /// Where the replicas are.
    pub endpoints: Endpoints,
    /// Number of client sessions; session `s` drives workload stream
    /// `first_stream + s` and is homed on instance `stream mod m`. Over
    /// TCP each session holds one connection per replica, so the
    /// cluster-wide connection count is `sessions × n`.
    pub sessions: usize,
    /// First workload stream id (offset past any other driver process
    /// sharing the cluster, so stream ids — and thus reply routes — never
    /// collide).
    pub first_stream: u64,
    /// Closed-loop window of each session (batches in flight).
    pub window: usize,
    /// Wall-clock run time.
    pub run_for: Duration,
}

impl FleetPlan {
    /// A fleet plan starting at workload stream 0.
    pub fn new(
        system: SystemConfig,
        endpoints: Endpoints,
        sessions: usize,
        window: usize,
        run_for: Duration,
    ) -> FleetPlan {
        FleetPlan {
            system,
            endpoints,
            sessions,
            first_stream: 0,
            window,
            run_for,
        }
    }
}

/// One session's nonblocking connection to one replica, with re-dial state.
struct Link {
    addr: SocketAddr,
    conn: Option<NbConn>,
    next_dial_ms: u64,
    backoff_ms: u64,
    /// Whether this link has ever carried a live connection — a successful
    /// dial on a link that has is a *re*connect, which the fleet's flight
    /// recorder logs as [`FlightEventKind::Reconnect`].
    ever_connected: bool,
}

impl Link {
    fn down(addr: SocketAddr) -> Link {
        Link {
            addr,
            conn: None,
            next_dial_ms: 0,
            backoff_ms: DIAL_BACKOFF_FLOOR_MS,
            ever_connected: false,
        }
    }

    /// Drops the connection (if any) and schedules the next dial attempt.
    fn fail(&mut self, now_ms: u64) {
        self.conn = None;
        self.next_dial_ms = now_ms + self.backoff_ms;
        self.backoff_ms = (self.backoff_ms * 2).min(DIAL_BACKOFF_CAP_MS);
    }
}

/// A session's way to the replicas.
enum Links {
    /// One socket per replica, indexed by replica id.
    Tcp(Vec<Link>),
    /// One channel into the hub; there is no connection to lose or re-dial.
    InProcess(InProcessClientChannel),
}

impl Links {
    /// Puts `frame` on the link to `to`. `false` when there is no live
    /// link: the batch ages out and the session rotates, the same recovery
    /// as a submission lost on the wire.
    fn send(&mut self, to: ReplicaId, frame: Vec<u8>) -> bool {
        match self {
            Links::Tcp(links) => match links.get_mut(to.index()).and_then(|l| l.conn.as_mut()) {
                Some(conn) => {
                    // A full outbound queue drops the submission; the
                    // session ages it out and regenerates fresh work, same
                    // as any lost frame.
                    let _ = conn.enqueue(&frame);
                    true
                }
                None => false,
            },
            Links::InProcess(channel) => {
                channel.submit(to, frame);
                true
            }
        }
    }
}

/// One fleet session: the sans-io policy plus its links.
struct FleetSession {
    session: DriverSession,
    keys: ClientKeys,
    links: Links,
}

/// Runs the whole fleet and returns every session's final statistics.
///
/// # Panics
///
/// Panics when a driver thread cannot be spawned or itself panicked —
/// harness semantics, matching the cluster orchestrator: a load generator
/// that silently lost part of its fleet would report a throughput floor
/// that nobody actually measured.
pub fn run_fleet(plan: &FleetPlan) -> Vec<SessionStats> {
    run_fleet_observed(plan, &EdgeTelemetry::new())
}

/// [`run_fleet`] with an external telemetry bundle: every driver thread
/// records its sweep latency into `telemetry`'s registry and logs link
/// reconnects (`FlightEventKind::Reconnect`, `source` = driver thread,
/// `peer` = replica) into its flight recorder. The caller keeps the handle
/// and scrapes/dumps after (or during) the run.
///
/// # Panics
///
/// Same harness semantics as [`run_fleet`].
#[expect(
    clippy::expect_used,
    reason = "load-generation harness: a host that cannot spawn the driver threads cannot run \
              the scenario, and a driver thread's panic re-raises instead of reporting a \
              partial fleet"
)]
pub fn run_fleet_observed(plan: &FleetPlan, telemetry: &EdgeTelemetry) -> Vec<SessionStats> {
    let keys = DeploymentKeys::generate(&plan.system);
    let started = Instant::now();
    let deadline = started + plan.run_for;
    let threads: Vec<std::thread::JoinHandle<Vec<SessionStats>>> = (0..plan.sessions)
        .step_by(SESSIONS_PER_THREAD)
        .enumerate()
        .map(|(index, first)| {
            let sessions: Vec<FleetSession> = (first
                ..(first + SESSIONS_PER_THREAD).min(plan.sessions))
                .map(|index| {
                    let stream = plan.first_stream + index as u64;
                    let m = plan.system.instances.max(1) as u64;
                    FleetSession {
                        session: DriverSession::new(
                            &plan.system,
                            stream,
                            InstanceId((stream % m) as u32),
                            plan.window,
                        ),
                        keys: keys.client_keys(ClientId(stream)),
                        links: match &plan.endpoints {
                            Endpoints::Tcp(addrs) => {
                                Links::Tcp(addrs.iter().map(|&addr| Link::down(addr)).collect())
                            }
                            Endpoints::InProcess(hub) => {
                                Links::InProcess(hub.client(ClientId(stream)))
                            }
                        },
                    }
                })
                .collect();
            let system = plan.system.clone();
            let telemetry = telemetry.clone();
            std::thread::Builder::new()
                .name(format!("rcc-fleet-{index}"))
                .spawn(move || {
                    drive_chunk(system, sessions, started, deadline, index as u32, telemetry)
                })
                .expect("spawn fleet driver thread")
        })
        .collect();
    threads
        .into_iter()
        .flat_map(|thread| thread.join().expect("fleet driver thread panicked"))
        .collect()
}

/// Sweeps one chunk of sessions until `deadline`: move whatever is ready on
/// every session's links into the session, then put the session's fresh
/// submissions on the wire.
fn drive_chunk(
    system: SystemConfig,
    mut sessions: Vec<FleetSession>,
    started: Instant,
    deadline: Instant,
    thread_index: u32,
    telemetry: EdgeTelemetry,
) -> Vec<SessionStats> {
    while Instant::now() < deadline {
        let now_ms = started.elapsed().as_millis() as u64;
        let sweep_start = telemetry.now_nanos();
        let mut progressed = false;
        let mut dials = 0usize;
        for entry in &mut sessions {
            progressed |= match &mut entry.links {
                Links::Tcp(links) => sweep_sockets(
                    &system,
                    links,
                    &mut entry.session,
                    &entry.keys,
                    now_ms,
                    &mut dials,
                    thread_index,
                    &telemetry,
                ),
                Links::InProcess(channel) => {
                    let mut received = false;
                    while let Some(bytes) = channel.recv_timeout(Duration::ZERO) {
                        // Only the TCP edge sends the connection-level
                        // reject, so there is no refusal to act on here.
                        dispatch(&system, &mut entry.session, &entry.keys, &bytes, now_ms);
                        received = true;
                    }
                    received
                }
            };
            let stream = entry.session.stream();
            for action in entry.session.poll(now_ms) {
                let frame = encode_submit(&system, &entry.keys, stream, &action);
                progressed |= entry.links.send(action.candidate, frame);
            }
        }
        if progressed {
            // Idle passes park below instead of polluting the low buckets.
            telemetry
                .sweep_us
                .record(telemetry.now_nanos().saturating_sub(sweep_start) / 1_000);
        } else {
            std::thread::sleep(PARK);
        }
    }
    sessions.iter().map(|s| s.session.stats()).collect()
}

/// One sweep pass over one session's sockets: re-dial down links
/// (budgeted), flush/fill every connection, dispatch decoded frames into
/// the session. Returns `true` when anything moved.
#[expect(
    clippy::too_many_arguments,
    reason = "one sweep pass threads the chunk's shared state through by reference"
)]
fn sweep_sockets(
    system: &SystemConfig,
    links: &mut [Link],
    session: &mut DriverSession,
    keys: &ClientKeys,
    now_ms: u64,
    dials: &mut usize,
    thread_index: u32,
    telemetry: &EdgeTelemetry,
) -> bool {
    let mut progressed = false;
    for (replica, link) in links.iter_mut().enumerate() {
        // Re-dial down links, bounded per pass so a dead replica cannot
        // stall the whole chunk behind serial connect timeouts.
        if link.conn.is_none() {
            if now_ms < link.next_dial_ms || *dials >= DIALS_PER_PASS {
                continue;
            }
            *dials += 1;
            match dial(session.stream(), link.addr) {
                Ok(conn) => {
                    if link.ever_connected {
                        telemetry.event(
                            thread_index,
                            FlightEventKind::Reconnect {
                                peer: replica as u64,
                            },
                        );
                    }
                    link.conn = Some(conn);
                    link.backoff_ms = DIAL_BACKOFF_FLOOR_MS;
                    link.ever_connected = true;
                    progressed = true;
                }
                Err(_) => {
                    link.fail(now_ms);
                    session.on_connection_refused(now_ms, ReplicaId(replica as u32));
                    continue;
                }
            }
        }
        let mut refused = false;
        if let Some(conn) = link.conn.as_mut() {
            progressed |= conn.flush();
            if conn.fill(SWEEP_READ_BUDGET) > 0 {
                progressed = true;
            }
            while let Some(bytes) = conn.next_frame() {
                refused |= dispatch(system, session, keys, &bytes, now_ms);
            }
            refused |= conn.is_dead();
        }
        if refused {
            // Either the edge turned the connection away at admission (the
            // zero-digest reject sentinel) or the link died: the session
            // rotates off this replica and the link re-dials with backoff.
            link.fail(now_ms);
            session.on_connection_refused(now_ms, ReplicaId(replica as u32));
            progressed = true;
        }
    }
    progressed
}

/// Decodes and applies one client-bound frame. Returns `true` when it was
/// the edge's connection-level admission reject.
fn dispatch(
    system: &SystemConfig,
    session: &mut DriverSession,
    keys: &ClientKeys,
    bytes: &[u8],
    now_ms: u64,
) -> bool {
    match Frame::decode_frame(bytes) {
        // Replies from out-of-range replicas or with bad tags fall through
        // to the ignore arm.
        Ok(Frame::ClientReply {
            replica,
            digest,
            tag,
        }) if replica.index() < system.n
            && verify_reply(keys, system.crypto, replica, &digest, &tag) =>
        {
            let _ = session.on_reply(now_ms, replica, digest);
        }
        Ok(Frame::ClientAccept { digest, .. }) => session.on_accept(digest),
        Ok(Frame::ClientReject { replica, digest }) => {
            if digest == Digest::ZERO {
                // Connection-level admission reject: the edge closes this
                // connection right after; fail the whole link over now
                // rather than waiting for the EOF.
                return true;
            }
            session.on_reject(now_ms, replica, digest);
        }
        _ => {}
    }
    false
}

/// Verifies a reply frame's tag against the deployment keys.
fn verify_reply(
    keys: &ClientKeys,
    mode: CryptoMode,
    replica: ReplicaId,
    digest: &Digest,
    tag: &AuthTag,
) -> bool {
    match (mode, tag) {
        (CryptoMode::None, _) => true,
        (CryptoMode::Mac, AuthTag::Mac(mac)) => {
            keys.mac_with_replicas[replica.index()].verify(digest.as_bytes(), mac)
        }
        (CryptoMode::PublicKey, AuthTag::Signature(sig)) => {
            keys.replica_public[replica.index()].verify(digest.as_bytes(), sig)
        }
        _ => false,
    }
}

/// Encodes one submission as an authenticated `ClientSubmit` frame for
/// workload stream `stream`.
fn encode_submit(
    system: &SystemConfig,
    keys: &ClientKeys,
    stream: u64,
    action: &rcc_workload::SubmitAction,
) -> Vec<u8> {
    let payload = action.batch.encoded();
    let tag = match system.crypto {
        CryptoMode::None => AuthTag::None,
        CryptoMode::Mac => {
            AuthTag::Mac(keys.mac_with_replicas[action.candidate.index()].tag(&payload))
        }
        CryptoMode::PublicKey => AuthTag::Signature(keys.signing.sign(&payload)),
    };
    Frame::ClientSubmit {
        client: ClientId(stream),
        instance: action.instance,
        payload,
        tag,
    }
    .encode_frame()
}

/// Dials one replica, announces the session as a client, and wraps the
/// socket in a nonblocking connection.
fn dial(stream_id: u64, addr: SocketAddr) -> std::io::Result<NbConn> {
    let stream = TcpStream::connect_timeout(&addr, DIAL_TIMEOUT)?;
    let mut conn = NbConn::new(stream, DEFAULT_CONN_QUEUE)?;
    let hello = Frame::Hello {
        peer: PeerKind::Client(ClientId(stream_id)),
    }
    .encode_frame();
    if !conn.enqueue(&hello) {
        return Err(std::io::ErrorKind::WouldBlock.into());
    }
    conn.flush();
    Ok(conn)
}
