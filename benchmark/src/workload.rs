//! The four workloads and the inputs they feed the cluster.
//!
//! Every workload runs the same deployment shape ([`system`]): n = 4,
//! f = 1, m = 4 concurrent instances, MAC authentication, two execution
//! workers and one client-edge I/O thread per node. They differ in exactly
//! the three properties the stack's behaviour depends on — transport, batch
//! content, and how load arrives — so that a change to one layer moves one
//! workload and leaves its twin alone (see `README.md`, "How the metrics
//! interact").

use rcc_common::rng::SplitMix64;
use rcc_common::{Batch, ClientId, ClientRequest, CryptoMode, Duration, SystemConfig};
use rcc_common::{Transaction, TransactionKind};
use rcc_workload::YcsbGenerator;

/// Replicas in the deployment.
pub const REPLICAS: usize = 4;
/// Concurrent consensus instances — and client sessions, one homed on each:
/// an instance without a homed client gates every round, so m sessions is
/// the protocol's minimum.
pub const INSTANCES: usize = 4;
/// Width of each node's verify/execute pool (= `nproc` of the sandbox).
pub const EXECUTION_WORKERS: usize = 2;
/// Width of each node's client-edge sweep pool (TCP workloads).
pub const IO_THREADS: usize = 1;
/// How long a replica waits before it presumes a primary faulty (see
/// [`system`]).
pub const FAILURE_TIMEOUT: Duration = Duration::from_secs(4);
/// Distinct keys the `hotkeys` workload writes.
const HOT_KEYS: u64 = 16;
/// Pseudo-clients per session, as in [`YcsbGenerator`].
const CLIENTS_PER_STREAM: u64 = 64;

/// Which transport the deployment runs over.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Transport {
    /// Loopback TCP: client edge, per-peer reader/writer threads, sockets.
    Tcp,
    /// `InProcessNetwork`: bounded channels, no sockets, no edge.
    InProcess,
}

/// What a batch's transactions touch.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Content {
    /// The stock YCSB mix: 500 k uniform keys, 90 % 8-byte writes.
    Ycsb,
    /// Every transaction overwrites one of [`HOT_KEYS`] keys, so a round's
    /// 400 transactions fall into at most that many conflict groups.
    HotKeys,
}

/// How load arrives.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Arrival {
    /// A session submits its next batch when a window slot frees.
    Closed {
        /// Batches in flight per session.
        window: usize,
    },
    /// A session is due one batch every `interval_ns`, whatever came back.
    Open {
        /// Nanoseconds between due instants of one session.
        interval_ns: u64,
    },
}

/// One benchmark workload.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// One-line reason the workload exists (goes into `BENCHMARK.json`).
    pub why: &'static str,
    /// Transport under the nodes.
    pub transport: Transport,
    /// Batch content.
    pub content: Content,
    /// Transactions per batch.
    pub batch_size: usize,
    /// Closed or open loop.
    pub arrival: Arrival,
    /// Memory is read as the run's count of confirmed transactions passes
    /// evenly spaced counts from the first of these two marks to the second
    /// (in thousands), and `mem_kb_per_ktxn` is the slope of a line through
    /// the readings. The executed state — above all the record table
    /// filling toward its 500 k keys — is a function of how many
    /// transactions ran, not of how long they took, so growth between two
    /// *counts* does not move when throughput does; growth over a fixed
    /// *time* rose 17 % in a run a noisy neighbour slowed by 10 %. The marks
    /// sit at about 15 % and 60 % of what this container confirms in a run,
    /// so a cluster 40 % slower still reaches the second one.
    pub mem_marks_ktxn: [u64; 2],
}

/// The catalogue, in reporting order.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "steady",
        why: "Fig. 7 shape: loopback TCP, batch 100, stock YCSB mix, closed loop; both cores saturated, payload-proportional work on every layer",
        transport: Transport::Tcp,
        content: Content::Ycsb,
        batch_size: 100,
        arrival: Arrival::Closed { window: 8 },
        mem_marks_ktxn: [200, 800],
    },
    Workload {
        name: "hotkeys",
        why: "as steady but every write hits one of 16 keys: a round collapses from ~400 conflict groups to 16, so execution does least and consensus, crypto, codec and network most",
        transport: Transport::Tcp,
        content: Content::HotKeys,
        batch_size: 100,
        arrival: Arrival::Closed { window: 8 },
        mem_marks_ktxn: [400, 1600],
    },
    Workload {
        name: "light",
        why: "open loop, batch 10, 200 batch/s, far below saturation: latency is the wake-up, poll and timer path plus fixed per-message cost",
        transport: Transport::Tcp,
        content: Content::Ycsb,
        batch_size: 10,
        arrival: Arrival::Open {
            interval_ns: 20_000_000,
        },
        mem_marks_ktxn: [8, 40],
    },
    Workload {
        name: "inproc",
        why: "as steady but over InProcessNetwork: bypasses sockets, client edge and per-peer threads, so a network-layer gain must not show here",
        transport: Transport::InProcess,
        content: Content::Ycsb,
        batch_size: 100,
        arrival: Arrival::Closed { window: 8 },
        mem_marks_ktxn: [200, 800],
    },
];

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The deployment every workload runs on; only the batch size varies.
///
/// The two failure timeouts are raised from their 500 ms defaults. No
/// workload injects a fault, so no timer should ever fire and their length
/// costs nothing — but this sandbox's host now and then freezes the whole
/// guest for longer than half a second, and every replica then wakes up to
/// find its timers overdue, suspects a healthy primary and changes view.
/// [`FAILURE_TIMEOUT`] outlasts any freeze short enough for the sessions'
/// own reply timeout to survive.
pub fn system(workload: &Workload, seed: u64) -> SystemConfig {
    SystemConfig {
        failure_detection_timeout: FAILURE_TIMEOUT,
        recovery_leader_timeout: FAILURE_TIMEOUT,
        ..SystemConfig::new(REPLICAS)
            .with_instances(INSTANCES)
            .with_batch_size(workload.batch_size)
            .with_crypto(CryptoMode::Mac)
            .with_seed(seed)
    }
}

/// The `ClientId` session `s` announces and replicas reply to.
pub fn session_client(session: usize) -> ClientId {
    ClientId(session as u64)
}

/// The seeded batch source of one session. Request ids are tagged
/// `(session + 1) << 32` either way, which is what
/// `rcc_workload::stream_of_client` inverts to route replies.
pub enum BatchSource {
    /// The repository's own generator, untouched.
    Ycsb(YcsbGenerator),
    /// Overwrites of a handful of keys.
    HotKeys {
        /// Seeded per session.
        rng: SplitMix64,
        /// `(session + 1) << 32`.
        client_base: u64,
        /// Next request sequence number.
        next_sequence: u64,
        /// Transactions per batch.
        batch_size: usize,
    },
}

impl BatchSource {
    /// The source of `session` under `workload`, forked from `seed`.
    pub fn new(workload: &Workload, seed: u64, session: usize) -> BatchSource {
        let stream = session as u64;
        match workload.content {
            Content::Ycsb => {
                BatchSource::Ycsb(YcsbGenerator::new(seed, stream, workload.batch_size))
            }
            Content::HotKeys => BatchSource::HotKeys {
                rng: SplitMix64::new(seed).fork(stream + 1),
                client_base: (stream + 1) << 32,
                next_sequence: 0,
                batch_size: workload.batch_size,
            },
        }
    }

    /// The next batch; never repeats a request id, so never a digest.
    pub fn next_batch(&mut self) -> Batch {
        match self {
            BatchSource::Ycsb(generator) => generator.next_batch(),
            BatchSource::HotKeys {
                rng,
                client_base,
                next_sequence,
                batch_size,
            } => {
                let requests = (0..*batch_size)
                    .map(|_| {
                        let sequence = *next_sequence;
                        *next_sequence += 1;
                        let client = ClientId(*client_base + sequence % CLIENTS_PER_STREAM);
                        // A plain overwrite: a read-modify-write appends,
                        // and sixteen records would grow without bound.
                        let kind = TransactionKind::YcsbWrite {
                            key: rng.next_below(HOT_KEYS),
                            value: rng.next_u64().to_be_bytes().to_vec(),
                        };
                        ClientRequest::new(client, sequence, Transaction::new(kind))
                    })
                    .collect();
                Batch::new(requests)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcc_workload::stream_of_client;

    #[test]
    fn sources_are_seeded_and_route_replies_to_their_session() {
        for workload in &WORKLOADS {
            let mut a = BatchSource::new(workload, 7, 2);
            let mut b = BatchSource::new(workload, 7, 2);
            let mut other_seed = BatchSource::new(workload, 8, 2);
            let batch = a.next_batch();
            assert_eq!(batch, b.next_batch(), "{}: same seed", workload.name);
            assert_ne!(
                batch,
                other_seed.next_batch(),
                "{}: other seed",
                workload.name
            );
            assert_ne!(batch, a.next_batch(), "{}: no repeats", workload.name);
            assert_eq!(batch.len(), workload.batch_size);
            for request in &batch.requests {
                assert_eq!(stream_of_client(request.id.client), Some(2));
            }
        }
    }

    #[test]
    fn hotkeys_rounds_are_one_conflict_group_and_steady_rounds_are_not() {
        let groups_of = |workload: &Workload| {
            let sets: Vec<_> = (0..INSTANCES)
                .flat_map(|s| BatchSource::new(workload, 3, s).next_batch().requests)
                .map(|r| rcc_execution::access_set(&r.transaction.kind))
                .collect();
            rcc_execution::conflict_groups(&sets).len()
        };
        assert!(groups_of(by_name("hotkeys").unwrap()) <= HOT_KEYS as usize);
        assert!(groups_of(by_name("steady").unwrap()) > 300);
    }
}
