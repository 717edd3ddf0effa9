//! The transport abstraction and the in-process channel transport.
//!
//! A [`Transport`] moves encoded frames between the processes (or threads)
//! of a deployment; it knows nothing about their contents beyond "bytes".
//! Between replicas, and into a replica's inbox, the unit it moves is the
//! **run** of [`crate::run`]: the length-prefixed frames one mailbox burst
//! produced for one peer, or one socket read delivered, packed end to end —
//! one queue slot and one wake-up for all of them. Replies to clients
//! travel frame by frame. Two implementations exist:
//!
//! * [`InProcessNetwork`] (here) — bounded channels between threads of one
//!   process. No sockets, no reconnects; per-link ordered and lossless
//!   except when a bounded queue overflows. This is the transport unit
//!   tests and single-process clusters use.
//! * [`crate::tcp::TcpTransport`] — real sockets with per-peer ordered
//!   framed connections, reconnect-on-drop, and the same bounded-queue
//!   back-pressure behaviour.
//!
//! Both share one delivery contract: sends are **best effort**. A full
//! queue drops the run and counts every frame in it (the
//! `transport.dropped_frames` counter of the transport's
//! [`Transport::telemetry`]); a dead connection loses it silently — exactly the assumption the consensus layer is built for
//! (state sync and retransmission recover lost messages; TCP merely makes
//! loss rare).
//!
//! What the queue capacities bound: [`queue_capacity`] counts *runs*. An
//! outbound queue slot holds at most 64 KiB plus one frame (the mark at
//! which the mailbox hands a run over mid-burst; a burst's worth is
//! usually far less), an inbox slot at most one 16 KiB socket read plus the
//! frame that read completed — or, from a client or an in-process peer,
//! whatever one submission or one burst packed. A frame is bounded by
//! [`crate::frame::MAX_FRAME_BYTES`].

use crate::run;
use crate::telemetry::EdgeTelemetry;
use rcc_common::{ClientId, ReplicaId, SystemConfig};
use std::collections::BTreeMap;
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// A transport's delivery-boundary counts, as `NodeReport` carries them: a
/// view of the `transport.*` metrics in the node's telemetry snapshot,
/// never counted on its own.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct TransportStats {
    /// `transport.dropped_frames`: frames dropped on a full bounded queue.
    pub dropped_frames: u64,
    /// `transport.rejected_connections`: client connections turned away.
    pub rejected_connections: u64,
    /// `transport.peak_clients`: most simultaneously-live client connections.
    pub peak_clients: u64,
}

/// The I/O boundary a deployed replica node runs against.
pub trait Transport: Send {
    /// Queues `run` — one or more length-prefixed frames, see [`crate::run`]
    /// — for ordered delivery to a peer replica. Best effort: the whole run
    /// is dropped when the peer's bounded outbound queue is full or its
    /// connection is down.
    fn send_to_replica(&self, to: ReplicaId, run: Vec<u8>);

    /// Queues `frame` for delivery to a client over the connection that
    /// client opened. Dropped when the client is not connected.
    fn send_to_client(&self, to: ClientId, frame: Vec<u8>);

    /// Receives the next inbound run, waiting at most `timeout`.
    fn recv_timeout(&mut self, timeout: Duration) -> Option<Vec<u8>>;

    /// Receives an inbound run if one is already queued.
    fn try_recv(&mut self) -> Option<Vec<u8>>;

    /// Tears the transport down (closes sockets, stops worker threads).
    /// Called once when the owning node shuts down.
    fn shutdown(&mut self) {}

    /// The transport's telemetry bundle: its delivery-boundary counters
    /// (`transport.*`) and, over TCP, the client edge's sweep metrics and
    /// admission flight events. The owning node folds it into its report.
    fn telemetry(&self) -> &EdgeTelemetry;
}

/// A client's connection bundle: a way to submit frames to each replica and
/// a single merged stream of replies. Mirrors [`Transport`] for the client
/// side of the deployment.
pub trait ClientChannel: Send {
    /// The client node this channel belongs to.
    fn id(&self) -> ClientId;

    /// Number of replicas this channel is connected to.
    fn replica_count(&self) -> usize;

    /// Sends `frame` to one replica (best effort).
    fn submit(&mut self, to: ReplicaId, frame: Vec<u8>);

    /// Receives the next reply frame from any replica.
    fn recv_timeout(&mut self, timeout: Duration) -> Option<Vec<u8>>;
}

/// Sizes a per-peer outbound queue so a primary can keep its full
/// out-of-order pipeline in flight to every peer: for each of the `m`
/// instances it may coordinate, `out_of_order_window` proposals plus the
/// matching prepare/commit votes (≈ 3 consensus messages per slot), with
/// headroom for state sync and checkpoint traffic. The unit is runs, each
/// of which holds at least one of those messages.
pub fn queue_capacity(config: &SystemConfig) -> usize {
    ((config.out_of_order_window + 4) * config.instances.max(1) * 3 + 32).max(64)
}

type SharedSenders = Arc<Mutex<Vec<Option<SyncSender<Vec<u8>>>>>>;
type SharedClients = Arc<Mutex<BTreeMap<u64, SyncSender<Vec<u8>>>>>;

/// The hub of an in-process deployment: hands out one [`InProcessTransport`]
/// per replica and one [`InProcessClientChannel`] per client node. Kept by
/// the launcher; a replica can be "restarted" by asking for a fresh
/// transport under the same id (the stale inbox is unhooked atomically).
#[derive(Clone, Debug)]
pub struct InProcessNetwork {
    n: usize,
    capacity: usize,
    replicas: SharedSenders,
    clients: SharedClients,
}

impl InProcessNetwork {
    /// Creates the hub of an `n`-replica deployment with the given per-link
    /// queue capacity (see [`queue_capacity`]).
    pub fn new(n: usize, capacity: usize) -> Self {
        InProcessNetwork {
            n,
            capacity: capacity.max(1),
            replicas: Arc::new(Mutex::new(vec![None; n])),
            clients: Arc::new(Mutex::new(BTreeMap::new())),
        }
    }

    /// Creates (or re-creates, on restart) the transport of `replica`,
    /// wiring its fresh inbox into the hub.
    pub fn transport(&self, replica: ReplicaId) -> InProcessTransport {
        let (tx, rx) = std::sync::mpsc::sync_channel(self.capacity * self.n.max(1));
        crate::lock_unpoisoned(&self.replicas)[replica.index()] = Some(tx);
        InProcessTransport {
            me: replica,
            replicas: Arc::clone(&self.replicas),
            clients: Arc::clone(&self.clients),
            inbox: rx,
            telemetry: EdgeTelemetry::new(),
        }
    }

    /// Connects a client node to every replica of the hub.
    pub fn client(&self, client: ClientId) -> InProcessClientChannel {
        let (tx, rx) = std::sync::mpsc::sync_channel(self.capacity);
        crate::lock_unpoisoned(&self.clients).insert(client.0, tx);
        InProcessClientChannel {
            id: client,
            n: self.n,
            replicas: Arc::clone(&self.replicas),
            inbox: rx,
        }
    }
}

/// One replica's endpoint of an [`InProcessNetwork`].
pub struct InProcessTransport {
    me: ReplicaId,
    replicas: SharedSenders,
    clients: SharedClients,
    inbox: Receiver<Vec<u8>>,
    /// Counts the frames this endpoint dropped on full bounded queues.
    telemetry: EdgeTelemetry,
}

/// `try_send` of a run to a hub slot; returns how many frames were dropped
/// on a full queue (a missing or disconnected receiver is not a drop —
/// there is no backlogged queue, just no peer).
fn shared_send(senders: &SharedSenders, index: usize, run: Vec<u8>) -> u64 {
    let guard = crate::lock_unpoisoned(senders);
    if let Some(Some(tx)) = guard.get(index) {
        if let Err(TrySendError::Full(run)) = tx.try_send(run) {
            return run::frame_count(&run);
        }
    }
    0
}

impl Transport for InProcessTransport {
    fn send_to_replica(&self, to: ReplicaId, run: Vec<u8>) {
        if to != self.me {
            let dropped = shared_send(&self.replicas, to.index(), run);
            self.telemetry.dropped_frames.add(dropped);
        }
    }

    fn send_to_client(&self, to: ClientId, frame: Vec<u8>) {
        let guard = crate::lock_unpoisoned(&self.clients);
        if let Some(tx) = guard.get(&to.0) {
            if let Err(TrySendError::Full(_)) = tx.try_send(frame) {
                self.telemetry.dropped_frames.inc();
            }
        }
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Option<Vec<u8>> {
        self.inbox.recv_timeout(timeout).ok()
    }

    fn try_recv(&mut self) -> Option<Vec<u8>> {
        self.inbox.try_recv().ok()
    }

    fn telemetry(&self) -> &EdgeTelemetry {
        &self.telemetry
    }
}

/// A client node's endpoint of an [`InProcessNetwork`].
pub struct InProcessClientChannel {
    id: ClientId,
    n: usize,
    replicas: SharedSenders,
    inbox: Receiver<Vec<u8>>,
}

impl ClientChannel for InProcessClientChannel {
    fn id(&self) -> ClientId {
        self.id
    }

    fn replica_count(&self) -> usize {
        self.n
    }

    fn submit(&mut self, to: ReplicaId, frame: Vec<u8>) {
        // A replica's inbox takes runs: this is a run of one.
        shared_send(&self.replicas, to.index(), run::into_run(frame));
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Option<Vec<u8>> {
        self.inbox.recv_timeout(timeout).ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{Frame, PeerKind};

    /// Packs `frames` into one run.
    fn run_of(frames: &[&[u8]]) -> Vec<u8> {
        let mut run = Vec::new();
        for frame in frames {
            run::pack_frame(&mut run, frame);
        }
        run
    }

    /// The endpoint's `transport.dropped_frames`, as its snapshot reads.
    fn dropped(transport: &InProcessTransport) -> Option<u64> {
        transport
            .telemetry()
            .snapshot()
            .counter("transport.dropped_frames")
    }

    #[test]
    fn in_process_frames_flow_between_replicas_and_clients() {
        let hub = InProcessNetwork::new(2, 16);
        let t0 = hub.transport(ReplicaId(0));
        let mut t1 = hub.transport(ReplicaId(1));
        let mut c = hub.client(ClientId(9));

        // Replica to replica: the run arrives as it was sent, one channel
        // operation for both of its frames.
        let hello = Frame::Hello {
            peer: PeerKind::Replica(ReplicaId(0)),
        };
        let sent = run_of(&[&hello.encode_frame(), b"second"]);
        t0.send_to_replica(ReplicaId(1), sent.clone());
        let got = t1.recv_timeout(Duration::from_millis(100)).expect("run");
        assert_eq!(got, sent);
        let mut frames = run::frames(&got);
        let first = frames.next().expect("first record").expect("whole");
        assert_eq!(Frame::decode_frame(first).unwrap(), hello);
        assert_eq!(frames.next(), Some(Ok(&b"second"[..])));
        assert_eq!(frames.next(), None);
        assert!(t1.try_recv().is_none());

        // A client submits a frame; the replica's inbox gets a run of one.
        c.submit(ReplicaId(1), b"submission".to_vec());
        assert_eq!(
            t1.recv_timeout(Duration::from_millis(100)),
            Some(run_of(&[b"submission"]))
        );

        // Replies travel frame by frame.
        t0.send_to_client(ClientId(9), b"reply".to_vec());
        assert_eq!(
            c.recv_timeout(Duration::from_millis(100)).as_deref(),
            Some(&b"reply"[..])
        );
        // Sends to the hub's own replica or unknown clients vanish quietly.
        t0.send_to_replica(ReplicaId(0), run_of(&[b"self"]));
        t0.send_to_client(ClientId(404), b"nobody".to_vec());
        assert_eq!(dropped(&t0), Some(0));
    }

    #[test]
    fn a_dropped_run_counts_every_frame_it_held() {
        // Inbox capacity: 1 × n = 2 runs.
        let hub = InProcessNetwork::new(2, 1);
        let t0 = hub.transport(ReplicaId(0));
        let mut t1 = hub.transport(ReplicaId(1));
        t0.send_to_replica(ReplicaId(1), run_of(&[b"a", b"b"]));
        t0.send_to_replica(ReplicaId(1), run_of(&[b"c"]));
        assert_eq!(dropped(&t0), Some(0));
        t0.send_to_replica(ReplicaId(1), run_of(&[b"d", b"e", b"f", b"g", b"h"]));
        assert_eq!(dropped(&t0), Some(5));
        t0.send_to_replica(ReplicaId(1), run_of(&[b"i"]));
        assert_eq!(dropped(&t0), Some(6));
        // What was queued is intact and in order; room frees as it drains.
        assert_eq!(t1.try_recv(), Some(run_of(&[b"a", b"b"])));
        assert_eq!(t1.try_recv(), Some(run_of(&[b"c"])));
        assert_eq!(t1.try_recv(), None);
        t0.send_to_replica(ReplicaId(1), run_of(&[b"j"]));
        assert_eq!(t1.try_recv(), Some(run_of(&[b"j"])));
        assert_eq!(dropped(&t0), Some(6));
    }

    #[test]
    fn restart_swaps_in_a_fresh_inbox() {
        let hub = InProcessNetwork::new(2, 4);
        let t0 = hub.transport(ReplicaId(0));
        let old = hub.transport(ReplicaId(1));
        drop(old); // the "crashed" replica's inbox dies with it
        t0.send_to_replica(ReplicaId(1), run_of(&[b"lost"]));
        let mut reborn = hub.transport(ReplicaId(1));
        t0.send_to_replica(ReplicaId(1), run_of(&[b"delivered"]));
        assert_eq!(
            reborn.recv_timeout(Duration::from_millis(100)),
            Some(run_of(&[b"delivered"]))
        );
        // No receiver is no backlog: nothing was dropped on a full queue.
        assert_eq!(dropped(&t0), Some(0));
    }

    #[test]
    fn queue_capacity_scales_with_pipeline_and_instances() {
        let small = queue_capacity(&SystemConfig::new(4).with_out_of_order_window(1));
        let big = queue_capacity(&SystemConfig::new(4).with_out_of_order_window(64));
        assert!(small >= 64);
        assert!(big > small);
    }
}
