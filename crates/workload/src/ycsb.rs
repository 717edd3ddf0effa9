//! Deterministic YCSB-style batch generation.
//!
//! Follows the paper's evaluation setup (Section V-A, the Blockbench YCSB
//! macro benchmark): a large key space of small records with a 90 % write
//! mix, grouped into batches of [`rcc_common::SystemConfig::batch_size`]
//! transactions. Each workload stream owns an independent random sequence
//! forked from the run seed, so batch contents do not depend on
//! event-processing order and two runs with the same seed produce identical
//! batches.
//!
//! Fidelity caveat: the paper's clients issue 512 B signed transactions; the
//! simulator charges their *wire* and *verification* costs through
//! [`rcc_common::Batch::wire_size`] and `rcc_crypto::CryptoCostModel`, while the
//! in-memory record payloads generated here are kept small (`value_bytes`)
//! so that digesting millions of simulated transactions stays cheap.

use rcc_common::rng::SplitMix64;
use rcc_common::{Batch, ClientId, ClientRequest, Transaction, TransactionKind};

/// Number of distinct pseudo-clients attributed to each workload stream.
const CLIENTS_PER_STREAM: u64 = 64;

/// Recovers the workload *stream* a generated request belongs to from its
/// pseudo-client id (the inverse of the `client_base = (stream + 1) << 32`
/// tagging below). Returns `None` for ids outside the tagged namespace —
/// notably the `u64::MAX - instance` pseudo-clients of no-op filler
/// requests. Deployed replicas use this to route a released batch's reply
/// back to the client node that submitted it.
pub fn stream_of_client(client: rcc_common::ClientId) -> Option<u64> {
    let tag = client.0 >> 32;
    // No-op pseudo-clients live at the top of the id space.
    if tag == 0 || tag == u32::MAX as u64 {
        return None;
    }
    Some(tag - 1)
}

/// A deterministic YCSB-style batch generator for one workload stream.
///
/// A *stream* is a group of co-located clients whose requests are assembled
/// into batches together: the simulator runs one stream per client node, and
/// real deployments would run one per client machine. Streams are identified
/// by a tag so that distinct streams draw from uncorrelated random sequences
/// and never produce colliding request ids (hence never colliding batch
/// digests).
#[derive(Clone, Debug)]
pub struct YcsbGenerator {
    rng: SplitMix64,
    client_base: u64,
    next_sequence: u64,
    batch_size: usize,
    /// Size of generated record payloads in bytes.
    value_bytes: usize,
    /// Fraction of write transactions (the paper's YCSB mix uses 0.9).
    write_fraction: f64,
    /// Number of distinct record keys (the paper loads 500 k records).
    keyspace: u64,
}

impl YcsbGenerator {
    /// Creates the generator for workload stream `stream`, forked from the
    /// run-wide `seed`.
    pub fn new(seed: u64, stream: u64, batch_size: usize) -> Self {
        YcsbGenerator {
            rng: SplitMix64::new(seed).fork(stream + 1),
            client_base: (stream + 1) << 32,
            next_sequence: 0,
            batch_size: batch_size.max(1),
            value_bytes: 8,
            write_fraction: 0.9,
            keyspace: 500_000,
        }
    }

    /// The next batch of client requests. Every request is unique across the
    /// whole run (clients are partitioned per stream, sequence numbers
    /// increase monotonically), so batch digests never collide.
    pub fn next_batch(&mut self) -> Batch {
        let mut requests = Vec::with_capacity(self.batch_size);
        for _ in 0..self.batch_size {
            let sequence = self.next_sequence;
            self.next_sequence += 1;
            let client = ClientId(self.client_base + sequence % CLIENTS_PER_STREAM);
            let key = self.rng.next_below(self.keyspace);
            let kind = if self.rng.next_f64() < self.write_fraction {
                let mut value = vec![0u8; self.value_bytes];
                let fill = self.rng.next_u64().to_be_bytes();
                for (i, byte) in value.iter_mut().enumerate() {
                    *byte = fill[i % fill.len()];
                }
                TransactionKind::YcsbWrite { key, value }
            } else {
                TransactionKind::YcsbRead { key }
            };
            requests.push(ClientRequest::new(client, sequence, Transaction::new(kind)));
        }
        Batch::new(requests)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batches_are_deterministic_per_seed_and_stream() {
        let mut a = YcsbGenerator::new(7, 1, 10);
        let mut b = YcsbGenerator::new(7, 1, 10);
        assert_eq!(a.next_batch(), b.next_batch());
        assert_eq!(a.next_batch(), b.next_batch());
    }

    #[test]
    fn different_streams_generate_different_batches() {
        let mut a = YcsbGenerator::new(7, 0, 10);
        let mut b = YcsbGenerator::new(7, 1, 10);
        assert_ne!(a.next_batch(), b.next_batch());
    }

    #[test]
    fn batches_have_the_requested_size_and_are_real_transactions() {
        let mut g = YcsbGenerator::new(7, 0, 100);
        let batch = g.next_batch();
        assert_eq!(batch.len(), 100);
        assert_eq!(batch.effective_transactions(), 100);
        assert!(!batch.is_noop());
    }

    #[test]
    fn successive_batches_never_repeat_requests() {
        let mut g = YcsbGenerator::new(7, 0, 50);
        let a = g.next_batch();
        let b = g.next_batch();
        for ra in &a.requests {
            for rb in &b.requests {
                assert_ne!(ra.id, rb.id);
            }
        }
    }

    #[test]
    fn write_mix_is_roughly_ninety_percent() {
        let mut g = YcsbGenerator::new(7, 0, 1000);
        let batch = g.next_batch();
        let writes = batch
            .requests
            .iter()
            .filter(|r| r.transaction.kind.is_write())
            .count();
        assert!((850..=950).contains(&writes), "writes = {writes}");
    }
}
