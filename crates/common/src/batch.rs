//! Batches of client requests — the unit of replication.
//!
//! ResilientDB (and therefore this reproduction) groups client transactions
//! into batches before proposing them: a single consensus slot replicates one
//! batch. With the paper's default of 100 transactions per batch, a proposal
//! is about 5400 B on the wire and a client reply about 1748 B; the remaining
//! consensus messages are about 250 B (Section V-B).
//!
//! A [`Batch`] is an immutable value whose clones share one allocation, and
//! what that allocation holds is the batch's canonical wire encoding. A node
//! makes a batch once, from the bytes it arrived as: a coordinator keeps a
//! client submission's payload as it is, a backup copies the batch's range
//! out of a proposal after one validating pass. The consensus slot, the
//! commit handed up to the replica, the state-sync log, the orderer, the
//! execution log, a view-change vote and every message that carries the
//! batch then hold a handle on those bytes, not a copy of them. Encoding
//! copies them, `rcc_crypto::digest_batch` hashes them, and execution and
//! replies read each request in place through [`Batch::views`]
//! ([`RequestRef`], its payload a slice of the bytes). The allocation is
//! freed when the last handle goes, which on a replica is the checkpoint
//! pruning its logs.
//!
//! [`Batch::new`] (tests, generators, no-op filler) starts from a list of
//! [`ClientRequest`]s instead and encodes it the first time the bytes are
//! asked for. The other way round, `&batch.requests` still reads as a slice
//! of owned requests: that list is built from the bytes on first use, which
//! is for the simulator, tests and tools, never for a node's path. Two
//! process-wide counts, [`batch_encodes`] and [`request_lists_built`], let
//! tests pin that.

use crate::codec::{Encode, RequestViews};
use crate::digest::Digest;
use crate::ids::{InstanceId, Round};
use crate::transaction::{ClientRequest, RequestRef};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Request lists this process encoded into batch bytes. A statistic for
/// tests that pin "a node never re-encodes a batch"; it publishes nothing.
static BATCH_ENCODES: AtomicU64 = AtomicU64::new(0);

/// Owned request lists this process built from batch bytes. A statistic for
/// tests that pin "a node reads requests in place"; it publishes nothing.
static REQUEST_LISTS_BUILT: AtomicU64 = AtomicU64::new(0);

/// How many batches' request lists this process has encoded so far.
pub fn batch_encodes() -> u64 {
    BATCH_ENCODES.load(Ordering::Relaxed)
}

/// How many owned request lists this process has built from batch bytes.
pub fn request_lists_built() -> u64 {
    REQUEST_LISTS_BUILT.load(Ordering::Relaxed)
}

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

/// The requests of a [`Batch`], in proposal order: immutable, and shared by
/// every clone of the batch.
///
/// It reads as the slice of owned requests it dereferences to — indexing,
/// `len`, `iter`, `for request in &batch.requests`, `Debug` — and it offers
/// no `&mut` access and no constructor outside [`Batch::new`] and the
/// decoders, so what a batch holds when it is built is what every holder of
/// a handle sees for as long as the batch lives. `==` compares the
/// encodings, which the canonical codec makes the same thing.
#[derive(Clone)]
pub struct Requests(Arc<Shared>);

/// What the handles of one batch share: the encoding, the owned list when
/// something built it, and the memos of the digest and the shape, so a memo
/// can never sit with other requests than the ones it was computed from. At
/// least one of `bytes` and `list` is set from the start.
#[derive(Clone)]
struct Shared {
    bytes: OnceLock<Vec<u8>>,
    list: OnceLock<Vec<ClientRequest>>,
    digest: OnceLock<Digest>,
    shape: OnceLock<Shape>,
}

/// What a batch's size queries answer from: counted by the validating pass
/// of a decode, or in one pass over the requests the first time a query is
/// asked of a batch built by [`Batch::new`] (the simulator sizes every
/// proposal it sends with [`Batch::wire_size`]).
#[derive(Clone, Copy)]
pub(crate) struct Shape {
    noops: usize,
    wire_size: usize,
}

impl Shape {
    /// The shape of no requests: the batch framing alone.
    pub(crate) const EMPTY: Shape = Shape {
        noops: 0,
        wire_size: 32,
    };

    /// Counts one more request.
    pub(crate) fn add(&mut self, request: &RequestRef<'_>) {
        self.noops += usize::from(request.is_noop());
        self.wire_size += request.wire_size();
    }
}

impl Requests {
    /// The canonical encoding, made from the list on first use.
    fn bytes(&self) -> &[u8] {
        self.0.bytes.get_or_init(|| {
            BATCH_ENCODES.fetch_add(1, Ordering::Relaxed);
            let list = self.0.list.get().map_or(&[][..], Vec::as_slice);
            let mut out =
                Vec::with_capacity(32 + list.iter().map(ClientRequest::wire_size).sum::<usize>());
            list.encode(&mut out);
            out
        })
    }

    /// The shape, read from the bytes on first use.
    fn shape(&self) -> Shape {
        *self.0.shape.get_or_init(|| {
            let mut shape = Shape::EMPTY;
            for request in RequestViews::new(self.bytes()) {
                shape.add(&request);
            }
            shape
        })
    }

    /// The owned list, built from the bytes on first use.
    fn list(&self) -> &[ClientRequest] {
        self.0.list.get_or_init(|| {
            REQUEST_LISTS_BUILT.fetch_add(1, Ordering::Relaxed);
            RequestViews::new(self.bytes())
                .map(RequestRef::to_owned)
                .collect()
        })
    }
}

impl Deref for Requests {
    type Target = [ClientRequest];

    fn deref(&self) -> &[ClientRequest] {
        self.list()
    }
}

impl<'a> IntoIterator for &'a Requests {
    type Item = &'a ClientRequest;
    type IntoIter = std::slice::Iter<'a, ClientRequest>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// Takes the requests out by value. Unless this is the last handle on the
/// list, that copies every request: it is for set-up code (a generator
/// flattening batches into requests), not for anything that runs per batch.
impl IntoIterator for Requests {
    type Item = ClientRequest;
    type IntoIter = std::vec::IntoIter<ClientRequest>;

    fn into_iter(self) -> Self::IntoIter {
        self.list();
        match Arc::try_unwrap(self.0) {
            Ok(shared) => shared.list.into_inner().unwrap_or_default(),
            Err(shared) => Requests(shared).list().to_vec(),
        }
        .into_iter()
    }
}

impl PartialEq for Requests {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.0, &other.0) || self.bytes() == other.bytes()
    }
}

impl Eq for Requests {}

impl fmt::Debug for Requests {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

/// A batch of client requests proposed in a single consensus slot.
///
/// A batch is immutable and its clones share one allocation: `clone()` takes
/// a reference count, allocates nothing and copies no request, whatever the
/// batch size. That is what lets every layer of a node keep "its" batch by
/// value.
///
/// Beside its bytes a batch carries a private memo of its own digest,
/// which `rcc_crypto::digest_batch` fills on first use so that a node hashes
/// a payload once however many layers ask for the digest. The memo is local
/// state, never input: the codec neither writes nor reads it (a decoded
/// batch starts without one, so a digest is never trusted from the wire),
/// `==` ignores it, and a clone sees it because it lives with the bytes in
/// the shared allocation. It is a [`OnceLock`] because `&Batch` crosses
/// worker-pool threads.
///
/// A filled memo is the digest of the batch's bytes for as long as the
/// batch lives, because nothing can change them. `requests` is public for
/// reading:
///
/// ```
/// use rcc_common::{Batch, ClientRequest, InstanceId};
/// let batch = Batch::new(vec![ClientRequest::noop(InstanceId(0), 0)]);
/// assert_eq!(batch.requests.len(), 1);
/// assert!(batch.requests.iter().all(ClientRequest::is_noop));
/// ```
///
/// but [`Requests`] gives out no `&mut`, so neither of these compiles:
///
/// ```compile_fail,E0596
/// use rcc_common::{Batch, ClientRequest, InstanceId};
/// let mut batch = Batch::new(vec![ClientRequest::noop(InstanceId(0), 0)]);
/// batch.requests.reverse();
/// ```
///
/// ```compile_fail,E0599
/// use rcc_common::{Batch, ClientRequest, InstanceId};
/// let mut batch = Batch::new(vec![ClientRequest::noop(InstanceId(0), 0)]);
/// batch.requests.push(ClientRequest::noop(InstanceId(0), 1));
/// batch.requests.pop();
/// ```
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct Batch {
    /// The requests contained in the batch, in proposal order.
    pub requests: Requests,
}

impl Batch {
    /// Creates a batch from a list of requests; it is encoded the first
    /// time its bytes are asked for.
    pub fn new(requests: Vec<ClientRequest>) -> Self {
        Batch {
            requests: Requests(Arc::new(Shared {
                bytes: OnceLock::new(),
                list: OnceLock::from(requests),
                digest: OnceLock::new(),
                shape: OnceLock::new(),
            })),
        }
    }

    /// A batch whose encoding is `bytes`, which the codec has validated
    /// as one request list of this `shape`.
    pub(crate) fn from_validated(bytes: Vec<u8>, shape: Shape) -> Self {
        Batch {
            requests: Requests(Arc::new(Shared {
                bytes: OnceLock::from(bytes),
                list: OnceLock::new(),
                digest: OnceLock::new(),
                shape: OnceLock::from(shape),
            })),
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
        &self.requests.0.digest
    }

    /// `true` when both handles are on the same requests list: one is a
    /// clone of the other, so nothing was copied between them. Equal batches
    /// built separately (two decodes of the same bytes) are `==` but not
    /// `ptr_eq`.
    pub fn ptr_eq(&self, other: &Batch) -> bool {
        Arc::ptr_eq(&self.requests.0, &other.requests.0)
    }

    /// The batch's canonical wire encoding (what `rcc_crypto::digest_batch`
    /// hashes and `Encode` copies).
    pub fn bytes(&self) -> &[u8] {
        self.requests.bytes()
    }

    /// The requests, in proposal order, each read in place from the bytes.
    pub fn views(&self) -> impl ExactSizeIterator<Item = RequestRef<'_>> {
        RequestViews::new(self.bytes())
    }

    /// Number of requests in the batch.
    pub fn len(&self) -> usize {
        self.views().len()
    }

    /// `true` when the batch contains no requests.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `true` when the batch consists solely of no-op filler.
    pub fn is_noop(&self) -> bool {
        !self.is_empty() && self.requests.shape().noops == self.len()
    }

    /// Number of real (non-no-op) client transactions in the batch; this is
    /// what throughput measurements count.
    pub fn effective_transactions(&self) -> usize {
        self.len() - self.requests.shape().noops
    }

    /// Estimated serialized size of the batch in bytes (per-request payloads
    /// plus batch framing). With 100 × 512 B-class YCSB transactions this is
    /// in the same ballpark as ResilientDB's 5400 B proposals once the
    /// workload generator sizes the record payloads.
    pub fn wire_size(&self) -> usize {
        self.requests.shape().wire_size
    }
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
        use crate::codec::Encode;
        let small = Batch::new(vec![request(1, 0)]);
        let large = Batch::new((0..100).map(|i| request(i, 0)).collect());
        assert!(large.wire_size() > 50 * small.wire_size());
        // The estimate covers the encoding, so `encode` reserves once.
        assert!(large.encoded().len() <= large.wire_size());
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
    fn requests_read_as_the_slice_and_iterate_by_value() {
        let list = vec![request(1, 0), request(2, 0)];
        let batch = Batch::new(list.clone());
        assert_eq!(batch.requests[..], list[..]);
        assert_eq!(format!("{:?}", batch.requests), format!("{list:?}"));
        assert_ne!(Batch::new(vec![request(1, 0)]), batch);

        // By value: a shared list is copied out, the last handle is moved out.
        let clone = batch.clone();
        assert_eq!(clone.requests.into_iter().collect::<Vec<_>>(), list);
        assert_eq!(batch.requests.into_iter().collect::<Vec<_>>(), list);
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
