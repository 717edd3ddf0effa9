//! SHA-256 digests over the workspace's wire encodings.

use rcc_common::codec::Encode;
use rcc_common::{Batch, Digest};
use sha2::{Digest as _, Sha256};
use std::sync::atomic::{AtomicU64, Ordering};

/// Batch digests this process computed (memo hits excluded). A statistic
/// for tests that pin "one hash per node per batch"; it publishes nothing.
static COMPUTED_BATCH_DIGESTS: AtomicU64 = AtomicU64::new(0);

/// Hashes arbitrary bytes into a [`Digest`].
pub fn digest_bytes(bytes: &[u8]) -> Digest {
    let mut hasher = Sha256::new();
    hasher.update(bytes);
    Digest::from_bytes(hasher.finalize().into())
}

/// Hashes a batch of client requests (the digest carried by proposals and
/// certified by commit quorums): SHA-256 of the batch's wire encoding, so
/// the digest covers every byte of the batch that a message carries and a
/// request field cannot travel without being vouched for. The codec is
/// injective (fixed-width integers, length prefixes, decoders that reject
/// any re-encoding but the canonical one), so equal digests mean equal
/// batches.
///
/// The first call on a batch computes the digest and memoises it on the
/// batch; later calls on that batch or its clones are served from the memo,
/// which cannot go stale because a batch is immutable. A decoded batch
/// carries no memo, so what arrives on the wire is always hashed once by
/// its receiver.
pub fn digest_batch(batch: &Batch) -> Digest {
    *batch.digest_memo().get_or_init(|| {
        COMPUTED_BATCH_DIGESTS.fetch_add(1, Ordering::Relaxed);
        digest_bytes(&batch.encoded())
    })
}

/// How many batch digests this process has computed so far, not counting
/// the calls [`digest_batch`] served from a batch's memo.
pub fn computed_batch_digests() -> u64 {
    COMPUTED_BATCH_DIGESTS.load(Ordering::Relaxed)
}

/// Hashes the concatenation of a parent digest and a payload digest; used for
/// the hash-chained ledger and for deriving round-set digests in the
/// ordering-attack mitigation.
pub fn digest_chain(parent: &Digest, payload: &Digest) -> Digest {
    let mut hasher = Sha256::new();
    hasher.update(parent.as_bytes());
    hasher.update(payload.as_bytes());
    Digest::from_bytes(hasher.finalize().into())
}

/// Hashes a sequence of digests into one digest. RCC uses this to derive the
/// unpredictable permutation seed `h = digest(S) mod (k! − 1)` over the set
/// of batches accepted in a round (Section IV).
pub fn digest_sequence(digests: &[Digest]) -> Digest {
    let mut hasher = Sha256::new();
    hasher.update((digests.len() as u64).to_be_bytes());
    for d in digests {
        hasher.update(d.as_bytes());
    }
    Digest::from_bytes(hasher.finalize().into())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcc_common::codec::Decode;
    use rcc_common::{ClientId, ClientRequest, InstanceId, Transaction};

    #[test]
    fn digests_are_deterministic_and_distinct() {
        let a = digest_bytes(b"hello");
        let b = digest_bytes(b"hello");
        let c = digest_bytes(b"world");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, Digest::ZERO);
    }

    #[test]
    fn batch_digest_depends_on_request_order() {
        let r1 = ClientRequest::new(ClientId(1), 0, Transaction::transfer(0, 1, 10, 5));
        let r2 = ClientRequest::new(ClientId(2), 0, Transaction::transfer(1, 2, 10, 5));
        let b1 = Batch::new(vec![r1.clone(), r2.clone()]);
        let b2 = Batch::new(vec![r2, r1]);
        assert_ne!(digest_batch(&b1), digest_batch(&b2));
    }

    /// 102 requests of every YCSB kind plus a transfer and a no-op, from
    /// one `SplitMix64` stream.
    fn seeded_batch(seed: u64) -> Batch {
        use rcc_common::{SplitMix64, TransactionKind};
        let mut rng = SplitMix64::new(seed);
        let bytes = |rng: &mut SplitMix64, most: u64| -> Vec<u8> {
            (0..rng.next_below(most))
                .map(|_| rng.next_u64() as u8)
                .collect()
        };
        let mut requests: Vec<ClientRequest> = (0..100u64)
            .map(|sequence| {
                let key = rng.next_below(500_000);
                let kind = match rng.next_below(4) {
                    0 => TransactionKind::YcsbRead { key },
                    1 => TransactionKind::YcsbWrite {
                        key,
                        value: bytes(&mut rng, 48),
                    },
                    2 => TransactionKind::YcsbReadModifyWrite {
                        key,
                        delta: bytes(&mut rng, 16),
                    },
                    _ => TransactionKind::YcsbScan {
                        start: key,
                        count: rng.next_below(64) as u32,
                    },
                };
                ClientRequest::new(
                    ClientId(rng.next_below(8)),
                    sequence,
                    Transaction::new(kind),
                )
            })
            .collect();
        requests.push(ClientRequest::new(
            ClientId(9),
            100,
            Transaction::transfer(3, 4, 10, 5),
        ));
        requests.push(ClientRequest::noop(InstanceId(2), 17));
        Batch::new(requests)
    }

    #[test]
    fn a_seeded_batch_digest_is_the_hash_of_its_wire_encoding() {
        let batch = seeded_batch(7);
        let encoded = batch.encoded();
        assert_eq!(encoded.len(), 3876);
        assert_eq!(digest_batch(&batch), digest_bytes(&encoded));
        assert_eq!(
            digest_batch(&batch).to_string(),
            "8ce2060324ca3bbc17ce01b6938c8b288be1bcaccc849466473a556b45530652"
        );
    }

    #[test]
    fn the_digest_covers_a_request_s_assigned_instance() {
        let routed = |instance| {
            let mut request = ClientRequest::new(ClientId(1), 0, Transaction::noop());
            request.assigned_instance = instance;
            Batch::new(vec![request])
        };
        let (unrouted, first, second) = (
            routed(None),
            routed(Some(InstanceId(0))),
            routed(Some(InstanceId(1))),
        );
        assert_ne!(unrouted, first);
        assert_ne!(digest_batch(&unrouted), digest_batch(&first));
        assert_ne!(digest_batch(&first), digest_batch(&second));
    }

    #[test]
    fn the_digest_is_computed_once_and_travels_with_clones_only() {
        let batch = seeded_batch(11);
        assert_eq!(batch.digest_memo().get(), None);
        let digest = digest_batch(&batch);
        assert_eq!(digest, digest_bytes(&batch.encoded()));
        assert_eq!(batch.digest_memo().get(), Some(&digest));
        assert_eq!(batch.clone().digest_memo().get(), Some(&digest));
        assert_eq!(digest_batch(&batch.clone()), digest);
        // What comes off the wire is hashed by whoever received it.
        let decoded = Batch::decode_all(&batch.encoded()).expect("decodes");
        assert_eq!(decoded.digest_memo().get(), None);
        assert_eq!(digest_batch(&decoded), digest);
        assert!(computed_batch_digests() >= 2);
    }

    #[test]
    fn chained_digest_depends_on_both_inputs() {
        let p = digest_bytes(b"parent");
        let x = digest_bytes(b"x");
        let y = digest_bytes(b"y");
        assert_ne!(digest_chain(&p, &x), digest_chain(&p, &y));
        assert_ne!(digest_chain(&x, &p), digest_chain(&p, &x));
    }

    #[test]
    fn sequence_digest_is_length_prefixed() {
        let d = digest_bytes(b"d");
        assert_ne!(digest_sequence(&[d]), digest_sequence(&[d, d]));
        assert_ne!(digest_sequence(&[]), digest_sequence(&[d]));
    }
}
