//! Batches of client requests — the unit of replication.
//!
//! ResilientDB (and therefore this reproduction) groups client transactions
//! into batches before proposing them: a single consensus slot replicates one
//! batch. With the paper's default of 100 transactions per batch, a proposal
//! is about 5400 B on the wire and a client reply about 1748 B; the remaining
//! consensus messages are about 250 B (Section V-B).

use crate::digest::Digest;
use crate::ids::{InstanceId, Round};
use crate::transaction::ClientRequest;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::OnceLock;

/// Identifies a batch by the instance that proposed it and the round
/// (per-instance sequence number) it was proposed in.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct BatchId {
    /// The consensus instance that proposed the batch.
    pub instance: InstanceId,
    /// The round within that instance.
    pub round: Round,
}

impl fmt::Debug for BatchId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{}", self.instance, self.round)
    }
}

impl fmt::Display for BatchId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// A batch of client requests proposed in a single consensus slot.
///
/// Besides its requests a batch carries a private memo of its own digest,
/// which `rcc_crypto::digest_batch` fills on first use so that a node hashes
/// a payload once however many layers ask for the digest. The memo is local
/// state, never input: the codec neither writes nor reads it (a decoded
/// batch starts without one, so a digest is never trusted from the wire),
/// `==` ignores it, and `Clone` carries it along. It is a [`OnceLock`]
/// because `&Batch` crosses worker-pool threads.
///
/// `requests` is public, so nothing stops a caller from changing a batch
/// after it was hashed; don't. Debug builds recompute and compare on every
/// memo hit to catch it.
#[derive(Clone, Serialize, Deserialize)]
pub struct Batch {
    /// The requests contained in the batch, in proposal order.
    pub requests: Vec<ClientRequest>,
    digest: OnceLock<Digest>,
}

impl PartialEq for Batch {
    fn eq(&self, other: &Self) -> bool {
        self.requests == other.requests
    }
}

impl Eq for Batch {}

impl fmt::Debug for Batch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // The memo is not part of the value: two equal batches print alike.
        f.debug_struct("Batch")
            .field("requests", &self.requests)
            .finish()
    }
}

impl Batch {
    /// Creates a batch from a list of requests.
    pub fn new(requests: Vec<ClientRequest>) -> Self {
        Batch {
            requests,
            digest: OnceLock::new(),
        }
    }

    /// Creates a batch containing a single no-op request for `instance` in
    /// `round`.
    pub fn noop(instance: InstanceId, round: Round) -> Self {
        Batch::new(vec![ClientRequest::noop(instance, round)])
    }

    /// The digest memo, for `rcc_crypto::digest_batch` (which owns the hash
    /// function) to fill and read; every other caller wants that function.
    pub fn digest_memo(&self) -> &OnceLock<Digest> {
        &self.digest
    }

    /// Number of requests in the batch.
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// `true` when the batch contains no requests.
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }

    /// `true` when the batch consists solely of no-op filler.
    pub fn is_noop(&self) -> bool {
        !self.requests.is_empty() && self.requests.iter().all(ClientRequest::is_noop)
    }

    /// Number of real (non-no-op) client transactions in the batch; this is
    /// what throughput measurements count.
    pub fn effective_transactions(&self) -> usize {
        self.requests.iter().filter(|r| !r.is_noop()).count()
    }

    /// Estimated serialized size of the batch in bytes (per-request payloads
    /// plus batch framing). With 100 × 512 B-class YCSB transactions this is
    /// in the same ballpark as ResilientDB's 5400 B proposals once the
    /// workload generator sizes the record payloads.
    pub fn wire_size(&self) -> usize {
        32 + self
            .requests
            .iter()
            .map(ClientRequest::wire_size)
            .sum::<usize>()
    }

    /// The canonical bytes hashed when computing the batch digest: the
    /// request count, then each request's canonical bytes behind their
    /// length, appended in place.
    pub fn canonical_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.wire_size());
        out.extend_from_slice(&(self.requests.len() as u64).to_be_bytes());
        for request in &self.requests {
            let length_at = out.len();
            out.extend_from_slice(&[0u8; 8]);
            request.write_canonical_bytes(&mut out);
            let length = (out.len() - length_at - 8) as u64;
            out[length_at..length_at + 8].copy_from_slice(&length.to_be_bytes());
        }
        out
    }
}

/// A batch that has been accepted (committed) by a consensus instance in a
/// particular round, together with the digest certified by the protocol.
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct CertifiedBatch {
    /// Which instance and round accepted the batch.
    pub id: BatchId,
    /// The digest certified by the commit quorum.
    pub digest: Digest,
    /// The batch payload.
    pub batch: Batch,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::ClientId;
    use crate::transaction::Transaction;

    fn request(client: u64, seq: u64) -> ClientRequest {
        ClientRequest::new(ClientId(client), seq, Transaction::transfer(0, 1, 10, 5))
    }

    #[test]
    fn batch_counts_real_transactions_only() {
        let mut requests = vec![request(1, 0), request(2, 0)];
        requests.push(ClientRequest::noop(InstanceId(0), 3));
        let batch = Batch::new(requests);
        assert_eq!(batch.len(), 3);
        assert_eq!(batch.effective_transactions(), 2);
        assert!(!batch.is_noop());
    }

    #[test]
    fn noop_batch_is_detected() {
        let batch = Batch::noop(InstanceId(2), 9);
        assert!(batch.is_noop());
        assert_eq!(batch.effective_transactions(), 0);
        assert_eq!(batch.len(), 1);
    }

    #[test]
    fn wire_size_grows_with_requests() {
        let small = Batch::new(vec![request(1, 0)]);
        let large = Batch::new((0..100).map(|i| request(i, 0)).collect());
        assert!(large.wire_size() > 50 * small.wire_size());
    }

    #[test]
    fn canonical_bytes_are_order_sensitive() {
        let a = Batch::new(vec![request(1, 0), request(2, 0)]);
        let b = Batch::new(vec![request(2, 0), request(1, 0)]);
        assert_ne!(a.canonical_bytes(), b.canonical_bytes());
    }

    #[test]
    fn canonical_bytes_known_answer() {
        // Captured from the encoder that allocated per request: the count,
        // then each request as [length][client][sequence][kind][fields].
        use crate::transaction::TransactionKind;
        let write = Transaction::new(TransactionKind::YcsbWrite {
            key: 3,
            value: vec![0xaa, 0xbb],
        });
        let batch = Batch::new(vec![
            ClientRequest::new(ClientId(1), 2, write),
            ClientRequest::noop(InstanceId(1), 5),
        ]);
        let hex: String = batch
            .canonical_bytes()
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect();
        assert_eq!(
            hex,
            "0000000000000002\
             000000000000001b\
             0000000000000001000000000000000202\
             0000000000000003aabb\
             0000000000000011\
             fffffffffffffffe000000000000000500"
        );
        // One allocation: the size estimate covers the real bytes.
        assert!(batch.canonical_bytes().len() <= batch.wire_size());
        for request in &batch.requests {
            let mut appended = vec![0xff];
            request.write_canonical_bytes(&mut appended);
            assert_eq!(appended[1..], request.canonical_bytes()[..]);
        }
    }

    #[test]
    fn the_digest_memo_is_not_part_of_the_value() {
        use crate::codec::{Decode, Encode};
        let memo = Digest::from_bytes([9; 32]);
        let hashed = Batch::new(vec![request(1, 0)]);
        assert_eq!(hashed.digest_memo().get(), None);
        assert_eq!(hashed.digest_memo().set(memo), Ok(()));

        // Clone carries it, `==` and `Debug` ignore it, the codec drops it.
        assert_eq!(hashed.clone().digest_memo().get(), Some(&memo));
        let fresh = Batch::new(vec![request(1, 0)]);
        assert_eq!(hashed, fresh);
        assert_eq!(format!("{hashed:?}"), format!("{fresh:?}"));
        assert_eq!(hashed.encoded(), fresh.encoded());
        let decoded = Batch::decode_all(&hashed.encoded()).expect("decodes");
        assert_eq!(decoded, hashed);
        assert_eq!(decoded.digest_memo().get(), None);
    }

    #[test]
    fn batch_id_display_is_compact() {
        let id = BatchId {
            instance: InstanceId(3),
            round: 17,
        };
        assert_eq!(id.to_string(), "I3@17");
    }
}
