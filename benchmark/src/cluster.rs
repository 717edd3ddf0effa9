//! Starting and stopping the real deployment, and the client links into it.
//!
//! `start` is the first leg of what `setup_s` times: key generation, four
//! `rcc_network::spawn_node` calls (over loopback TCP with listeners bound
//! first, or over one `InProcessNetwork` hub), and every client link up —
//! 16 sockets on TCP, each with its `Hello` flushed. When it returns the
//! first submission is allowed; the driver then waits for one confirmed
//! round before it calls the deployment set up.

use crate::workload::{
    self, session_client, Transport, Workload, EXECUTION_WORKERS, INSTANCES, IO_THREADS, REPLICAS,
};
use rcc_common::codec::Encode;
use rcc_common::{Batch, InstanceId, ReplicaId, SystemConfig};
use rcc_crypto::{AuthTag, ClientKeys, DeploymentKeys};
use rcc_network::event_loop::DEFAULT_CONN_QUEUE;
use rcc_network::transport::InProcessClientChannel;
use rcc_network::{
    queue_capacity, spawn_node, ClientChannel, EdgeConfig, Frame, InProcessNetwork, NbConn,
    NodeConfig, NodeHandle, NodeReport, PeerKind, TcpTransport,
};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::Duration;

/// Most bytes read from one socket per sweep.
const READ_BUDGET: usize = 256 * 1024;

/// The client side of every session's connections, all owned by the one
/// driver thread.
pub enum Links {
    /// `links[session][replica]`: nonblocking sockets.
    Tcp(Vec<Vec<NbConn>>),
    /// One polled channel per session.
    InProcess(Vec<InProcessClientChannel>),
}

impl Links {
    /// Puts `frame` on the wire from `session` to `replica`. `false` when
    /// the link refused it (dead socket or full queue).
    pub fn send(&mut self, session: usize, replica: ReplicaId, frame: Vec<u8>) -> bool {
        match self {
            Links::Tcp(links) => {
                let conn = &mut links[session][replica.index()];
                let queued = conn.enqueue(&frame);
                conn.flush();
                queued
            }
            Links::InProcess(channels) => {
                channels[session].submit(replica, frame);
                true
            }
        }
    }

    /// Moves whatever is ready on `session`'s links: flushes pending
    /// writes and appends every complete inbound frame to `into`.
    pub fn poll(&mut self, session: usize, into: &mut Vec<Vec<u8>>) {
        match self {
            Links::Tcp(links) => {
                for conn in &mut links[session] {
                    conn.flush();
                    conn.fill(READ_BUDGET);
                    while let Some(frame) = conn.next_frame() {
                        into.push(frame);
                    }
                }
            }
            Links::InProcess(channels) => {
                while let Some(frame) = channels[session].recv_timeout(Duration::ZERO) {
                    into.push(frame);
                }
            }
        }
    }

    /// Client sockets that hit EOF or an I/O error (always 0 in process).
    pub fn dead(&self) -> usize {
        match self {
            Links::Tcp(links) => links.iter().flatten().filter(|c| c.is_dead()).count(),
            Links::InProcess(_) => 0,
        }
    }
}

/// A running deployment with its client links and keys.
pub struct Cluster {
    /// The deployment configuration every node runs.
    pub system: SystemConfig,
    /// The nodes, indexed by replica id.
    pub nodes: Vec<NodeHandle>,
    /// The driver's end of every client connection.
    pub links: Links,
    /// Key bundle of each session's client.
    pub keys: Vec<ClientKeys>,
}

fn node_config(system: &SystemConfig, replica: ReplicaId) -> NodeConfig {
    NodeConfig {
        system: system.clone(),
        replica,
        execution_workers: EXECUTION_WORKERS,
    }
}

fn dial(session: usize, addr: SocketAddr) -> Result<NbConn, String> {
    let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5))
        .map_err(|e| format!("session {session} could not reach {addr}: {e}"))?;
    let mut conn = NbConn::new(stream, DEFAULT_CONN_QUEUE)
        .map_err(|e| format!("session {session} socket to {addr}: {e}"))?;
    let hello = Frame::Hello {
        peer: PeerKind::Client(session_client(session)),
    };
    conn.enqueue(&hello.encode_frame());
    conn.flush();
    if !conn.write_idle() || conn.is_dead() {
        return Err(format!(
            "session {session} could not announce itself to {addr}"
        ));
    }
    Ok(conn)
}

impl Cluster {
    /// Starts the deployment of `workload` and connects every session.
    pub fn start(workload: &Workload, seed: u64) -> Result<Cluster, String> {
        let system = workload::system(workload, seed);
        system
            .validate()
            .map_err(|e| format!("invalid deployment: {e}"))?;
        let deployment_keys = DeploymentKeys::generate(&system);
        let keys = (0..INSTANCES)
            .map(|s| deployment_keys.client_keys(session_client(s)))
            .collect();
        let spawn_error = |e| format!("could not spawn node: {e}");
        let (nodes, links) = match workload.transport {
            Transport::Tcp => {
                // Bind every listener first so all addresses are known
                // before any node starts dialing its peers.
                let listeners: Vec<TcpListener> = (0..REPLICAS)
                    .map(|_| TcpListener::bind("127.0.0.1:0"))
                    .collect::<Result<_, _>>()
                    .map_err(|e| format!("could not bind a loopback listener: {e}"))?;
                let addrs: Vec<SocketAddr> = listeners
                    .iter()
                    .map(TcpListener::local_addr)
                    .collect::<Result<_, _>>()
                    .map_err(|e| format!("listener without an address: {e}"))?;
                let edge = EdgeConfig {
                    io_threads: IO_THREADS,
                    ..EdgeConfig::default()
                };
                let nodes = listeners
                    .into_iter()
                    .zip(ReplicaId::all(REPLICAS))
                    .map(|(listener, replica)| {
                        let transport = TcpTransport::with_listener_and_edge(
                            replica,
                            listener,
                            addrs.clone(),
                            queue_capacity(&system),
                            edge,
                        );
                        spawn_node(node_config(&system, replica), transport).map_err(spawn_error)
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                let links = (0..INSTANCES)
                    .map(|s| addrs.iter().map(|&addr| dial(s, addr)).collect())
                    .collect::<Result<Vec<Vec<NbConn>>, _>>()?;
                (nodes, Links::Tcp(links))
            }
            Transport::InProcess => {
                let hub = InProcessNetwork::new(REPLICAS, queue_capacity(&system));
                let nodes = ReplicaId::all(REPLICAS)
                    .map(|replica| {
                        spawn_node(node_config(&system, replica), hub.transport(replica))
                            .map_err(spawn_error)
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                let channels = (0..INSTANCES)
                    .map(|s| hub.client(session_client(s)))
                    .collect();
                (nodes, Links::InProcess(channels))
            }
        };
        Ok(Cluster {
            system,
            nodes,
            links,
            keys,
        })
    }

    /// Encodes `batch` as the authenticated `ClientSubmit` frame session
    /// `session` sends to the coordinator of its home instance, and names
    /// that coordinator.
    pub fn submit_frame(&self, session: usize, batch: &Batch) -> (ReplicaId, Vec<u8>) {
        let instance = InstanceId(session as u32);
        let coordinator = instance.primary();
        let payload = batch.encoded();
        let tag =
            AuthTag::Mac(self.keys[session].mac_with_replicas[coordinator.index()].tag(&payload));
        let frame = Frame::ClientSubmit {
            client: session_client(session),
            instance,
            payload,
            tag,
        };
        (coordinator, frame.encode_frame())
    }

    /// Stops every node and returns their reports, indexed by replica id.
    /// The nodes stop side by side: each TCP transport joins reader threads
    /// that sit in 200 ms read timeouts, and four of those in a row would
    /// add most of a second to every set-up sample.
    pub fn shutdown(self) -> Result<Vec<NodeReport>, String> {
        let reports = std::thread::scope(|scope| {
            let stops: Vec<_> = self
                .nodes
                .into_iter()
                .map(|node| scope.spawn(move || node.shutdown().map_err(|e| e.to_string())))
                .collect();
            stops
                .into_iter()
                .map(|stop| {
                    stop.join()
                        .unwrap_or_else(|_| Err("shutdown panicked".to_string()))
                })
                .collect()
        });
        // The client ends close only now, so no node sees an EOF mid-run.
        drop(self.links);
        reports
    }
}
