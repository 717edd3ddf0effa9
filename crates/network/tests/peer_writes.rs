//! The peer writer packs queued frames into shared writes; the peer reader
//! takes them apart again. Whatever shares a write, each frame must arrive
//! as itself: in order, byte for byte, never split and never merged — and a
//! link that died must start its next connection on a frame boundary.

use rcc_common::{ReplicaId, SplitMix64};
use rcc_network::{EdgeConfig, Frame, PeerKind, TcpTransport, Transport};
use std::net::{SocketAddr, TcpListener};
use std::time::{Duration, Instant};

const FRAMES: usize = 2_000;
/// Deep enough for the sender's queue, and (× 6) the receiver's inbox, to
/// hold every frame at once: nothing here may be dropped for want of room.
const CAPACITY: usize = 2_048;

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

fn next_frame(transport: &mut TcpTransport) -> Vec<u8> {
    transport
        .recv_timeout(Duration::from_secs(20))
        .expect("a frame within 20 s")
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
    for frame in &sent {
        a.send_to_replica(ReplicaId(1), frame.clone());
    }
    let mut b = transport(ReplicaId(1), bind(addr_b), peers.clone());
    assert_eq!(next_frame(&mut b), hello);
    for (index, frame) in sent.iter().enumerate() {
        let got = next_frame(&mut b);
        assert!(
            got == *frame,
            "frame {index}: sent {} bytes, received {}",
            frame.len(),
            got.len()
        );
    }
    assert_eq!(a.stats().dropped_frames, 0);
    // The writer counts a write once it returned, which the last frame's
    // arrival can beat.
    let telemetry = a.edge_telemetry().expect("a TCP transport");
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
    // A write leaves once it passes 64 KiB, so there are at most this many.
    assert!(
        (1..=bytes as u64 / (64 * 1024) + 1).contains(&writes),
        "{writes} writes for {bytes} bytes"
    );

    // The receiver goes away, listener and all, and comes back on the same
    // address. Frames handed to the dead link are lost by design; those
    // sent once the writer has re-dialled arrive, whole and in order,
    // behind a fresh hello.
    b.shutdown();
    drop(b);
    let mut b = transport(ReplicaId(1), bind(addr_b), peers);
    let numbered = |number: u64| -> Vec<u8> {
        let mut frame = number.to_be_bytes().to_vec();
        frame.resize(8 + (number as usize * 37) % 3_000, number as u8);
        frame
    };
    let mut received: Vec<u64> = Vec::new();
    let mut greeted = false;
    let give_up = Instant::now() + Duration::from_secs(20);
    for number in 0u64.. {
        assert!(Instant::now() < give_up, "the link never resumed");
        a.send_to_replica(ReplicaId(1), numbered(number));
        while let Some(got) = b.recv_timeout(Duration::from_millis(10)) {
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
        if received.len() >= 5 {
            break;
        }
    }
    assert!(greeted, "frames arrived on a link that never said hello");
}
