//! The hand-rolled binary wire codec.
//!
//! The workspace's `serde` dependency is an offline no-op facade (see
//! `third_party/README.md`), so real serialization cannot go through derive
//! macros. Instead, every type that crosses a deployment boundary implements
//! the two small traits here:
//!
//! * [`Encode`] appends a canonical binary form to a byte vector;
//! * [`Decode`] parses it back from a [`Reader`] cursor, returning a typed
//!   [`WireError`] instead of panicking on malformed input.
//!
//! The encoding is deliberately boring: fixed-width big-endian integers,
//! `u32` length prefixes for sequences, and one tag byte per enum variant.
//! It is **canonical** — a value has exactly one encoding — which is what
//! lets the round-trip property tests assert `encode(decode(bytes)) ==
//! bytes` for any accepted input, and lets digests/MACs be computed over
//! encoded payloads without re-serialization ambiguity.
//!
//! Framing (length prefixes on a stream, version headers, authentication
//! tags) lives in `rcc-network`; this module only defines how individual
//! values become bytes.

// Deployment path: bytes from a peer must not be able to panic it (docs/LINTS.md).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable, clippy::todo))]
#![cfg_attr(not(test), deny(clippy::unimplemented, clippy::disallowed_macros))]

use crate::batch::{Batch, BatchId, Shape};
use crate::digest::Digest;
use crate::ids::{ClientId, InstanceId, ReplicaId};
use crate::transaction::{ClientRequest, RequestId, RequestRef, Transaction, TransactionKind};
use std::fmt;

/// Errors raised while decoding wire bytes.
///
/// Every constructor corresponds to a distinct malformation; decoders must
/// return these instead of panicking, truncating silently, or accepting
/// trailing garbage.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum WireError {
    /// The input ended before the value was complete.
    Truncated {
        /// Bytes the decoder needed next.
        needed: usize,
        /// Bytes actually remaining.
        available: usize,
    },
    /// The value decoded cleanly but bytes were left over (only raised by
    /// [`Decode::decode_all`]; streaming decoders may legitimately leave a
    /// suffix for the next value).
    TrailingBytes {
        /// Bytes left unconsumed.
        remaining: usize,
    },
    /// An enum tag byte did not name any variant.
    InvalidTag {
        /// The type being decoded.
        context: &'static str,
        /// The offending tag.
        tag: u8,
    },
    /// A length prefix exceeded what the remaining input could possibly
    /// hold (or an explicit cap).
    TooLong {
        /// The field being decoded.
        context: &'static str,
        /// The claimed length.
        length: u64,
        /// The maximum acceptable length.
        max: u64,
    },
    /// A frame carried a protocol version this build does not speak.
    UnsupportedVersion {
        /// The version received.
        got: u8,
        /// The version this build implements.
        expected: u8,
    },
    /// A frame did not start with the expected magic bytes.
    BadMagic,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated { needed, available } => {
                write!(
                    f,
                    "truncated input: needed {needed} bytes, {available} available"
                )
            }
            WireError::TrailingBytes { remaining } => {
                write!(f, "{remaining} trailing bytes after a complete value")
            }
            WireError::InvalidTag { context, tag } => {
                write!(f, "invalid tag {tag} while decoding {context}")
            }
            WireError::TooLong {
                context,
                length,
                max,
            } => write!(f, "length {length} of {context} exceeds limit {max}"),
            WireError::UnsupportedVersion { got, expected } => {
                write!(
                    f,
                    "unsupported wire version {got} (this build speaks {expected})"
                )
            }
            WireError::BadMagic => write!(f, "bad frame magic"),
        }
    }
}

impl std::error::Error for WireError {}

/// A cursor over input bytes, consumed front to back.
#[derive(Clone, Debug)]
pub struct Reader<'a> {
    bytes: &'a [u8],
}

impl<'a> Reader<'a> {
    /// Creates a reader over `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len()
    }

    /// Consumes exactly `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.bytes.len() < n {
            return Err(WireError::Truncated {
                needed: n,
                available: self.bytes.len(),
            });
        }
        let (head, tail) = self.bytes.split_at(n);
        self.bytes = tail;
        Ok(head)
    }

    /// Consumes exactly `N` bytes as a fixed-width array. This is the
    /// panic-free counterpart of `take(N)?.try_into().unwrap()`: the length
    /// is correct by construction ([`Reader::take`] returns exactly `N`
    /// bytes or a typed error), so no fallible conversion remains.
    pub fn array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        let bytes = self.take(N)?;
        let mut out = [0u8; N];
        out.copy_from_slice(bytes);
        Ok(out)
    }

    /// Consumes one byte.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Consumes a big-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_be_bytes(self.array()?))
    }

    /// Consumes a big-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_be_bytes(self.array()?))
    }

    /// Consumes a big-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_be_bytes(self.array()?))
    }

    /// Consumes a big-endian `i64`.
    pub fn i64(&mut self) -> Result<i64, WireError> {
        Ok(i64::from_be_bytes(self.array()?))
    }

    /// Consumes a `u32` sequence-length prefix, rejecting lengths that the
    /// remaining input cannot possibly satisfy (every element of every
    /// sequence in this codec occupies at least one byte, so a claimed
    /// length beyond `remaining()` is malformed, not merely truncated).
    pub fn seq_len(&mut self, context: &'static str) -> Result<usize, WireError> {
        let len = self.u32()? as usize;
        if len > self.remaining() {
            return Err(WireError::TooLong {
                context,
                length: len as u64,
                max: self.remaining() as u64,
            });
        }
        Ok(len)
    }

    /// Fails unless the input has been fully consumed.
    pub fn finish(&self) -> Result<(), WireError> {
        if self.bytes.is_empty() {
            Ok(())
        } else {
            Err(WireError::TrailingBytes {
                remaining: self.bytes.len(),
            })
        }
    }
}

/// A value with a canonical binary wire form.
pub trait Encode {
    /// Appends the canonical encoding of `self` to `out`.
    fn encode(&self, out: &mut Vec<u8>);

    /// The canonical encoding as a fresh vector.
    fn encoded(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode(&mut out);
        out
    }
}

/// A value parseable from its canonical binary wire form.
pub trait Decode: Sized {
    /// Parses one value from the front of `input`.
    fn decode(input: &mut Reader<'_>) -> Result<Self, WireError>;

    /// Parses a value that must span the whole input: trailing bytes are an
    /// error. This is what message-level decoders use — a frame carries
    /// exactly one value.
    fn decode_all(bytes: &[u8]) -> Result<Self, WireError> {
        let mut reader = Reader::new(bytes);
        let value = Self::decode(&mut reader)?;
        reader.finish()?;
        Ok(value)
    }
}

/// Encodes a `u32`-length-prefixed byte blob in one copy. Byte-identical
/// to the generic `Vec<u8>` encoding (which walks element by element), so
/// canonicity is preserved; payload-sized fields should prefer this.
pub fn write_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    (bytes.len() as u32).encode(out);
    out.extend_from_slice(bytes);
}

/// Decodes a `u32`-length-prefixed byte blob in one copy (the counterpart
/// of [`write_bytes`]; the generic `Vec<u8>` decode walks byte by byte).
pub fn read_bytes(input: &mut Reader<'_>) -> Result<Vec<u8>, WireError> {
    Ok(read_slice(input)?.to_vec())
}

/// Reads a `u32`-length-prefixed byte blob in place.
fn read_slice<'a>(input: &mut Reader<'a>) -> Result<&'a [u8], WireError> {
    let len = input.seq_len("bytes")?;
    input.take(len)
}

macro_rules! int_codec {
    ($ty:ty, $read:ident) => {
        impl Encode for $ty {
            fn encode(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_be_bytes());
            }
        }
        impl Decode for $ty {
            fn decode(input: &mut Reader<'_>) -> Result<Self, WireError> {
                input.$read()
            }
        }
    };
}

int_codec!(u8, u8);
int_codec!(u16, u16);
int_codec!(u32, u32);
int_codec!(u64, u64);
int_codec!(i64, i64);

impl Encode for bool {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(*self as u8);
    }
}

impl Decode for bool {
    fn decode(input: &mut Reader<'_>) -> Result<Self, WireError> {
        match input.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(WireError::InvalidTag {
                context: "bool",
                tag,
            }),
        }
    }
}

impl<T: Encode> Encode for [T] {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.len() as u32).encode(out);
        for item in self {
            item.encode(out);
        }
    }
}

impl<T: Encode> Encode for Vec<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.as_slice().encode(out);
    }
}

impl<T: Decode> Decode for Vec<T> {
    fn decode(input: &mut Reader<'_>) -> Result<Self, WireError> {
        let len = input.seq_len("Vec")?;
        let mut items = Vec::with_capacity(len.min(1024));
        for _ in 0..len {
            items.push(T::decode(input)?);
        }
        Ok(items)
    }
}

impl<T: Encode> Encode for Option<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(value) => {
                out.push(1);
                value.encode(out);
            }
        }
    }
}

impl<T: Decode> Decode for Option<T> {
    fn decode(input: &mut Reader<'_>) -> Result<Self, WireError> {
        match input.u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(input)?)),
            tag => Err(WireError::InvalidTag {
                context: "Option",
                tag,
            }),
        }
    }
}

impl<A: Encode, B: Encode> Encode for (A, B) {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
    }
}

impl<A: Decode, B: Decode> Decode for (A, B) {
    fn decode(input: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok((A::decode(input)?, B::decode(input)?))
    }
}

impl<A: Encode, B: Encode, C: Encode> Encode for (A, B, C) {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
        self.2.encode(out);
    }
}

impl<A: Decode, B: Decode, C: Decode> Decode for (A, B, C) {
    fn decode(input: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok((A::decode(input)?, B::decode(input)?, C::decode(input)?))
    }
}

impl Encode for Digest {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(self.as_bytes());
    }
}

impl Decode for Digest {
    fn decode(input: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Digest::from_bytes(input.array()?))
    }
}

impl Encode for ReplicaId {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
    }
}

impl Decode for ReplicaId {
    fn decode(input: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(ReplicaId(input.u32()?))
    }
}

impl Encode for ClientId {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
    }
}

impl Decode for ClientId {
    fn decode(input: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(ClientId(input.u64()?))
    }
}

impl Encode for InstanceId {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
    }
}

impl Decode for InstanceId {
    fn decode(input: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(InstanceId(input.u32()?))
    }
}

impl Encode for TransactionKind {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            TransactionKind::NoOp => out.push(0),
            TransactionKind::YcsbRead { key } => {
                out.push(1);
                key.encode(out);
            }
            TransactionKind::YcsbWrite { key, value } => {
                out.push(2);
                key.encode(out);
                write_bytes(out, value);
            }
            TransactionKind::YcsbReadModifyWrite { key, delta } => {
                out.push(3);
                key.encode(out);
                write_bytes(out, delta);
            }
            TransactionKind::YcsbScan { start, count } => {
                out.push(4);
                start.encode(out);
                count.encode(out);
            }
            TransactionKind::Transfer {
                from,
                to,
                min_balance,
                amount,
            } => {
                out.push(5);
                from.encode(out);
                to.encode(out);
                min_balance.encode(out);
                amount.encode(out);
            }
            TransactionKind::Deposit { account, amount } => {
                out.push(6);
                account.encode(out);
                amount.encode(out);
            }
            TransactionKind::BalanceQuery { account } => {
                out.push(7);
                account.encode(out);
            }
        }
    }
}

impl Decode for TransactionKind {
    fn decode(input: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(decode_kind(input)?.to_owned())
    }
}

/// Reads an operation in place: the one decoder of [`TransactionKind`].
fn decode_kind<'a>(input: &mut Reader<'a>) -> Result<TransactionKind<&'a [u8]>, WireError> {
    Ok(match input.u8()? {
        0 => TransactionKind::NoOp,
        1 => TransactionKind::YcsbRead { key: input.u64()? },
        2 => TransactionKind::YcsbWrite {
            key: input.u64()?,
            value: read_slice(input)?,
        },
        3 => TransactionKind::YcsbReadModifyWrite {
            key: input.u64()?,
            delta: read_slice(input)?,
        },
        4 => TransactionKind::YcsbScan {
            start: input.u64()?,
            count: input.u32()?,
        },
        5 => TransactionKind::Transfer {
            from: input.u32()?,
            to: input.u32()?,
            min_balance: input.i64()?,
            amount: input.i64()?,
        },
        6 => TransactionKind::Deposit {
            account: input.u32()?,
            amount: input.i64()?,
        },
        7 => TransactionKind::BalanceQuery {
            account: input.u32()?,
        },
        tag => {
            return Err(WireError::InvalidTag {
                context: "TransactionKind",
                tag,
            })
        }
    })
}

impl Encode for Transaction {
    fn encode(&self, out: &mut Vec<u8>) {
        self.kind.encode(out);
    }
}

impl Decode for Transaction {
    fn decode(input: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Transaction {
            kind: TransactionKind::decode(input)?,
        })
    }
}

impl Encode for RequestId {
    fn encode(&self, out: &mut Vec<u8>) {
        self.client.encode(out);
        self.sequence.encode(out);
    }
}

impl Decode for RequestId {
    fn decode(input: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(RequestId {
            client: ClientId::decode(input)?,
            sequence: input.u64()?,
        })
    }
}

impl Encode for ClientRequest {
    fn encode(&self, out: &mut Vec<u8>) {
        self.id.encode(out);
        self.transaction.encode(out);
        self.assigned_instance.encode(out);
    }
}

impl Decode for ClientRequest {
    fn decode(input: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(RequestRef::decode(input)?.to_owned())
    }
}

impl<'a> RequestRef<'a> {
    /// Reads one request in place: the workspace's one request decoder.
    /// Owned requests are this plus [`RequestRef::to_owned`], and a batch
    /// validates its bytes with it.
    pub(crate) fn decode(input: &mut Reader<'a>) -> Result<Self, WireError> {
        Ok(RequestRef {
            id: RequestId::decode(input)?,
            kind: decode_kind(input)?,
            assigned_instance: Option::decode(input)?,
        })
    }
}

/// A batch's bytes are its encoding: `encode` copies them.
impl Encode for Batch {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(self.bytes());
    }
}

/// One validating pass over the batch's byte range, with the checks an
/// owned `Vec<ClientRequest>` decode makes, then one copy of the range.
impl Decode for Batch {
    fn decode(input: &mut Reader<'_>) -> Result<Self, WireError> {
        let mut range = input.clone();
        let shape = validate_requests(input)?;
        let bytes = range.take(range.remaining() - input.remaining())?;
        Ok(Batch::from_validated(bytes.to_vec(), shape))
    }
}

impl Batch {
    /// Decodes a batch that spans all of `bytes`, keeping `bytes` as its
    /// encoding: nothing is copied. This is how a coordinator takes in a
    /// client's submission.
    pub fn from_bytes(bytes: Vec<u8>) -> Result<Batch, WireError> {
        let mut input = Reader::new(&bytes);
        let shape = validate_requests(&mut input)?;
        input.finish()?;
        Ok(Batch::from_validated(bytes, shape))
    }
}

/// Reads a request list's length prefix and every request after it, and
/// counts the list's shape on the way.
fn validate_requests(input: &mut Reader<'_>) -> Result<Shape, WireError> {
    let mut shape = Shape::EMPTY;
    for _ in 0..input.seq_len("Vec")? {
        shape.add(&RequestRef::decode(input)?);
    }
    Ok(shape)
}

/// The requests of a validated request-list encoding, read in place.
pub(crate) struct RequestViews<'a> {
    input: Reader<'a>,
    left: usize,
}

impl<'a> RequestViews<'a> {
    /// Views over `bytes`, which [`validate_requests`] accepted whole.
    pub(crate) fn new(bytes: &'a [u8]) -> Self {
        let mut input = Reader::new(bytes);
        let left = input.u32().map_or(0, |len| len as usize);
        RequestViews { input, left }
    }
}

impl<'a> Iterator for RequestViews<'a> {
    type Item = RequestRef<'a>;

    fn next(&mut self) -> Option<RequestRef<'a>> {
        self.left = self.left.checked_sub(1)?;
        // Validated bytes always decode; an error would end the list.
        RequestRef::decode(&mut self.input).ok()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for RequestViews<'_> {}

impl Encode for BatchId {
    fn encode(&self, out: &mut Vec<u8>) {
        self.instance.encode(out);
        self.round.encode(out);
    }
}

impl Decode for BatchId {
    fn decode(input: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(BatchId {
            instance: InstanceId::decode(input)?,
            round: input.u64()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::ClientId;

    fn round_trip<T: Encode + Decode + PartialEq + std::fmt::Debug>(value: T) {
        let bytes = value.encoded();
        let back = T::decode_all(&bytes).expect("decode");
        assert_eq!(back, value);
        // Canonical: re-encoding reproduces the input bytes.
        assert_eq!(back.encoded(), bytes);
    }

    #[test]
    fn primitives_round_trip() {
        round_trip(0u8);
        round_trip(0xBEEFu16);
        round_trip(0xDEAD_BEEFu32);
        round_trip(u64::MAX);
        round_trip(-42i64);
        round_trip(true);
        round_trip(Some(7u64));
        round_trip(Option::<u64>::None);
        round_trip(vec![1u32, 2, 3]);
        round_trip((ReplicaId(3), 9u64, Digest::from_bytes([7; 32])));
    }

    #[test]
    fn requests_and_batches_round_trip() {
        let request = ClientRequest::new(ClientId(5), 3, Transaction::transfer(1, 2, 100, 40));
        round_trip(request.clone());
        round_trip(Batch::new(vec![request]));
        round_trip(Batch::noop(InstanceId(2), 9));
        round_trip(BatchId {
            instance: InstanceId(1),
            round: 77,
        });
    }

    #[test]
    fn every_transaction_kind_round_trips() {
        for kind in [
            TransactionKind::NoOp,
            TransactionKind::YcsbRead { key: 9 },
            TransactionKind::YcsbWrite {
                key: 1,
                value: vec![1, 2, 3],
            },
            TransactionKind::YcsbReadModifyWrite {
                key: 2,
                delta: vec![],
            },
            TransactionKind::YcsbScan { start: 5, count: 3 },
            TransactionKind::Transfer {
                from: 1,
                to: 2,
                min_balance: -5,
                amount: 10,
            },
            TransactionKind::Deposit {
                account: 4,
                amount: 12,
            },
            TransactionKind::BalanceQuery { account: 8 },
        ] {
            round_trip(kind);
        }
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let bytes = Batch::noop(InstanceId(0), 3).encoded();
        for cut in 0..bytes.len() {
            let err = Batch::decode_all(&bytes[..cut]).expect_err("prefix must not decode");
            assert!(
                matches!(err, WireError::Truncated { .. } | WireError::TooLong { .. }),
                "unexpected error at cut {cut}: {err:?}"
            );
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = 7u64.encoded();
        bytes.push(0);
        assert_eq!(
            u64::decode_all(&bytes),
            Err(WireError::TrailingBytes { remaining: 1 })
        );
    }

    #[test]
    fn invalid_tags_are_rejected() {
        assert!(matches!(
            TransactionKind::decode_all(&[200]),
            Err(WireError::InvalidTag {
                context: "TransactionKind",
                tag: 200
            })
        ));
        assert!(matches!(
            bool::decode_all(&[9]),
            Err(WireError::InvalidTag {
                context: "bool",
                ..
            })
        ));
    }

    #[test]
    fn absurd_length_prefixes_are_rejected_without_allocation() {
        // Claims 4 billion elements with 4 bytes of input behind the prefix.
        let mut bytes = Vec::new();
        (u32::MAX).encode(&mut bytes);
        bytes.extend_from_slice(&[0, 0, 0, 0]);
        assert!(matches!(
            Vec::<u64>::decode_all(&bytes),
            Err(WireError::TooLong { .. })
        ));
    }
}
