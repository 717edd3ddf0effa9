//! Frames reach the peer writer packed into runs, queued runs share writes,
//! and the peer reader cuts what each read completed into runs again.
//! Whatever shares a run or a write, each frame must arrive as itself: in
//! order, byte for byte, never split and never merged — and a link that died
//! must start its next connection on a frame boundary.

use rcc_common::{ReplicaId, SplitMix64};
use rcc_network::run::{frames, pack_frame};
use rcc_network::{EdgeConfig, Frame, PeerKind, TcpTransport, Transport};
use std::collections::VecDeque;
use std::net::{SocketAddr, TcpListener};
use std::time::{Duration, Instant};

const FRAMES: usize = 2_000;
/// Deep enough for the sender's queue, and (× 6) the receiver's inbox, to
/// hold every run at once: nothing here may be dropped for want of room.
const CAPACITY: usize = 2_048;
/// What one socket read of the peer reader holds at most.
const READ_BYTES: usize = 16 * 1024;
/// What the edge may have read behind a peer's hello before it hands the
/// socket to the peer reader.
const HANDOFF_BYTES: usize = 64 * 1024;

/// Binds `addr`, waiting out a predecessor that has only just closed it.
fn bind(addr: SocketAddr) -> TcpListener {
    let give_up = Instant::now() + Duration::from_secs(10);
    loop {
        match TcpListener::bind(addr) {
            Ok(listener) => return listener,
            Err(e) => assert!(Instant::now() < give_up, "cannot bind {addr}: {e}"),
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

fn transport(me: ReplicaId, listener: TcpListener, peers: Vec<SocketAddr>) -> TcpTransport {
    TcpTransport::with_listener_and_edge(me, listener, peers, CAPACITY, EdgeConfig::default())
}

/// The transport's `transport.dropped_frames`, as its snapshot reads.
fn dropped(transport: &TcpTransport) -> u64 {
    let snapshot = transport.telemetry().snapshot();
    snapshot
        .counter("transport.dropped_frames")
        .expect("registered")
}

/// 1 B to 200 kB: mostly vote-sized, some proposal-sized, a few larger than
/// the 64 KiB at which the writer stops draining, and both extremes.
fn seeded_frames() -> Vec<Vec<u8>> {
    let mut rng = SplitMix64::new(0xC0A1_E5CE);
    (0..FRAMES)
        .map(|index| {
            let len = match (index, rng.next_below(200)) {
                (700, _) => 1,
                (1_300, _) => 200_000,
                (_, 0) => 65_537 + rng.next_below(134_464),
                (_, 1..=20) => 1 + rng.next_below(8_192),
                _ => 1 + rng.next_below(300),
            };
            (0..len).map(|_| rng.next_u64() as u8).collect()
        })
        .collect()
}

/// Packs `sent` into runs of 1, 2, … 40 frames, sizes drawn from a seed.
fn seeded_runs(sent: &[Vec<u8>]) -> Vec<Vec<u8>> {
    let mut rng = SplitMix64::new(0x0B0E);
    let mut runs = Vec::new();
    let mut rest = sent;
    while !rest.is_empty() {
        let size = (1 + rng.next_below(40) as usize).min(rest.len());
        let (now, later) = rest.split_at(size);
        rest = later;
        let mut run = Vec::new();
        for frame in now {
            pack_frame(&mut run, frame);
        }
        runs.push(run);
    }
    runs
}

/// The receiving end of a link, frame by frame: takes runs off the transport
/// and checks each is whole records within the size a run may have.
struct Inbound {
    transport: TcpTransport,
    pending: VecDeque<Vec<u8>>,
    runs: usize,
}

impl Inbound {
    fn new(transport: TcpTransport) -> Inbound {
        Inbound {
            transport,
            pending: VecDeque::new(),
            runs: 0,
        }
    }

    fn take_run(&mut self, wait: Duration) -> bool {
        let Some(run) = self.transport.recv_timeout(wait) else {
            return false;
        };
        assert!(!run.is_empty(), "an empty run");
        let mut first = None;
        for frame in frames(&run) {
            let frame = frame.expect("a run of whole records");
            first.get_or_insert(4 + frame.len());
            self.pending.push_back(frame.to_vec());
        }
        // Run 0 is the hello (from the edge), run 1 may hold what the edge
        // read behind it; from then on a run is one read's worth and the
        // record that read completed.
        let allowance = if self.runs <= 1 {
            HANDOFF_BYTES
        } else {
            READ_BYTES
        };
        let first = first.expect("at least one record");
        assert!(
            run.len() < allowance + first,
            "run {} holds {} bytes, its first record {first}",
            self.runs,
            run.len()
        );
        self.runs += 1;
        true
    }

    fn next_frame(&mut self) -> Vec<u8> {
        while self.pending.is_empty() {
            assert!(
                self.take_run(Duration::from_secs(20)),
                "no frame within 20 s"
            );
        }
        self.pending.pop_front().expect("just filled")
    }
}

#[test]
fn coalesced_frames_arrive_whole_in_order_and_links_resume_on_a_frame_boundary() {
    let listener_a = TcpListener::bind("127.0.0.1:0").expect("bind sender");
    // The receiver's address is known but nothing listens on it yet.
    let addr_b = {
        let reserved = TcpListener::bind("127.0.0.1:0").expect("reserve receiver");
        reserved.local_addr().expect("receiver address")
    };
    let peers = vec![listener_a.local_addr().expect("sender address"), addr_b];
    let a = transport(ReplicaId(0), listener_a, peers.clone());
    let hello = Frame::Hello {
        peer: PeerKind::Replica(ReplicaId(0)),
    }
    .encode_frame();

    // Everything is queued while the receiver does not even exist, so the
    // writer wakes to the whole backlog once it can connect.
    let sent = seeded_frames();
    assert!(sent.iter().any(|frame| frame.len() > 64 * 1024));
    let runs = seeded_runs(&sent);
    assert!(runs.len() < FRAMES / 10, "runs of many frames");
    assert!(runs.iter().any(|run| frames(run).count() == 1));
    for run in &runs {
        a.send_to_replica(ReplicaId(1), run.clone());
    }
    let mut b = Inbound::new(transport(ReplicaId(1), bind(addr_b), peers.clone()));
    assert_eq!(b.next_frame(), hello);
    for (index, frame) in sent.iter().enumerate() {
        let got = b.next_frame();
        assert!(
            got == *frame,
            "frame {index}: sent {} bytes, received {}",
            frame.len(),
            got.len()
        );
    }
    assert!(b.pending.is_empty(), "more frames arrived than were sent");
    assert_eq!(dropped(&a), 0);
    assert_eq!(dropped(&b.transport), 0);
    // The writer counts a write once it returned, which the last frame's
    // arrival can beat. It counts frames, not runs.
    let telemetry = a.telemetry();
    let give_up = Instant::now() + Duration::from_secs(5);
    let counters = loop {
        let counters = telemetry.snapshot();
        if counters.counter("transport.peer_frames") == Some(FRAMES as u64) {
            break counters;
        }
        assert!(Instant::now() < give_up, "not every frame was counted");
        std::thread::sleep(Duration::from_millis(1));
    };
    let writes = counters
        .counter("transport.peer_writes")
        .expect("registered");
    let bytes: usize = sent.iter().map(|frame| 4 + frame.len()).sum();
    // A write leaves once it passes 64 KiB, so there are at most this many
    // (and never more than there were runs).
    assert!(
        (1..=(bytes as u64 / (64 * 1024) + 1).min(runs.len() as u64)).contains(&writes),
        "{writes} writes for {bytes} bytes in {} runs",
        runs.len()
    );

    // The receiver goes away, listener and all, and comes back on the same
    // address. Runs handed to the dead link are lost by design; those sent
    // once the writer has re-dialled arrive, whole and in order, behind a
    // fresh hello.
    b.transport.shutdown();
    drop(b);
    let mut b = Inbound::new(transport(ReplicaId(1), bind(addr_b), peers));
    let numbered = |number: u64| -> Vec<u8> {
        let mut frame = number.to_be_bytes().to_vec();
        frame.resize(8 + (number as usize * 37) % 3_000, number as u8);
        frame
    };
    let mut received: Vec<u64> = Vec::new();
    let mut greeted = false;
    let give_up = Instant::now() + Duration::from_secs(20);
    let mut number = 0u64;
    while received.len() < 12 {
        assert!(Instant::now() < give_up, "the link never resumed");
        // Runs of one, two and three numbered frames.
        let mut run = Vec::new();
        for _ in 0..1 + number % 3 {
            pack_frame(&mut run, &numbered(number));
            number += 1;
        }
        a.send_to_replica(ReplicaId(1), run);
        while b.take_run(Duration::from_millis(10)) {}
        for got in b.pending.drain(..) {
            if got == hello {
                assert!(received.is_empty(), "a hello amid the frames");
                greeted = true;
                continue;
            }
            let head: [u8; 8] = got[..8].try_into().expect("a numbered frame");
            let got_number = u64::from_be_bytes(head);
            assert_eq!(got, numbered(got_number), "frame {got_number} arrived torn");
            assert!(received.last() < Some(&got_number), "out of order");
            received.push(got_number);
        }
    }
    assert!(greeted, "frames arrived on a link that never said hello");
}

#[test]
fn a_full_inbox_drops_whole_runs_and_counts_every_frame_in_them() {
    const SENT: u64 = 1_500;
    let listener_a = TcpListener::bind("127.0.0.1:0").expect("bind sender");
    let listener_b = TcpListener::bind("127.0.0.1:0").expect("bind receiver");
    let peers = vec![
        listener_a.local_addr().expect("sender address"),
        listener_b.local_addr().expect("receiver address"),
    ];
    let a = transport(ReplicaId(0), listener_a, peers.clone());
    // An inbox of 1 × (2 + 4) runs, and nobody draining it.
    let mut b = TcpTransport::with_listener_and_edge(
        ReplicaId(1),
        listener_b,
        peers,
        1,
        EdgeConfig::default(),
    );
    // ≈ 1.5 MB in all: a hundred reads' worth, against room for six runs.
    let numbered = |number: u64| -> Vec<u8> {
        let mut frame = number.to_be_bytes().to_vec();
        frame.resize(1_024, number as u8);
        frame
    };
    let mut number = 0u64;
    while number < SENT {
        let mut run = Vec::new();
        for _ in 0..3 {
            pack_frame(&mut run, &numbered(number));
            number += 1;
        }
        a.send_to_replica(ReplicaId(1), run);
    }
    assert_eq!(dropped(&a), 0, "the sender's queue had room");

    // Nothing is taken off the inbox until its reader has run into it full.
    let give_up = Instant::now() + Duration::from_secs(20);
    while dropped(&b) == 0 {
        assert!(Instant::now() < give_up, "the inbox never filled");
        std::thread::sleep(Duration::from_millis(1));
    }
    // Every frame that was written either reached the inbox or was counted
    // as dropped by the reader that found it full — none vanished, and what
    // did arrive is whole and in order.
    let mut arrived: Vec<u64> = Vec::new();
    while arrived.len() as u64 + dropped(&b) < SENT {
        assert!(
            Instant::now() < give_up,
            "{} arrived, {} dropped",
            arrived.len(),
            dropped(&b)
        );
        let Some(run) = b.recv_timeout(Duration::from_millis(10)) else {
            continue;
        };
        for frame in frames(&run) {
            let frame = frame.expect("a run of whole records");
            if frame.len() == 1_024 {
                let head: [u8; 8] = frame[..8].try_into().expect("a numbered frame");
                let number = u64::from_be_bytes(head);
                assert_eq!(frame, numbered(number), "frame {number} arrived torn");
                arrived.push(number);
            }
        }
    }
    assert_eq!(arrived.len() as u64 + dropped(&b), SENT);
    assert!(!arrived.is_empty(), "what fitted was delivered");
    assert!(arrived.windows(2).all(|pair| pair[0] < pair[1]), "in order");
}
