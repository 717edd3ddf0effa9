//! The deployment frame format.
//!
//! Every unit of traffic between two processes of a deployed RCC cluster —
//! replica↔replica consensus envelopes, client→replica submissions, and
//! replica→client replies — travels as one **frame**:
//!
//! ```text
//! ┌──────┬─────────┬──────┬───────────────────────────────┐
//! │ "RC" │ version │ kind │ kind-specific body            │
//! │ 2 B  │   1 B   │ 1 B  │  (canonical rcc-common codec) │
//! └──────┴─────────┴──────┴───────────────────────────────┘
//! ```
//!
//! The body of a payload-carrying frame ends with an authentication tag
//! ([`rcc_crypto::AuthTag`]) computed over the payload bytes under the
//! deployment's [`rcc_common::CryptoMode`]: pairwise MACs per link in the
//! `Mac` configuration, ED25519 signatures in `PublicKey`, nothing in
//! `None`. Authentication therefore happens **at the frame boundary** —
//! the sans-io state machines inside never see keys or tags.
//!
//! Decoding is strict: wrong magic, an unknown version, an unknown kind,
//! truncation, and trailing bytes are all typed [`WireError`]s, never
//! panics. Between threads and on a TCP stream, frames are additionally
//! length-prefixed (a big-endian `u32`, capped at [`MAX_FRAME_BYTES`]) and
//! packed into runs by `crate::run`.

use rcc_common::codec::{read_bytes, write_bytes, Decode, Encode, Reader, WireError};
use rcc_common::{ClientId, Digest, InstanceId, ReplicaId};
use rcc_crypto::AuthTag;

/// The two magic bytes every frame starts with.
pub const FRAME_MAGIC: [u8; 2] = *b"RC";

/// The wire-format version this build speaks. Decoders reject every other
/// version with [`WireError::UnsupportedVersion`] — there is exactly one
/// deployed format, and skew must fail loudly rather than mis-parse.
/// Version 2 has version 1's grammar; what changed is what a batch digest
/// is computed over (the batch's encoding), so a version-1 peer would fail
/// every proposal check and must be turned away here instead.
pub const WIRE_VERSION: u8 = 2;

/// Upper bound on the body of a single frame. A 100-transaction proposal is
/// a few kilobytes; the bound exists so a malformed or malicious length
/// prefix on a TCP stream cannot make a receiver allocate gigabytes.
pub const MAX_FRAME_BYTES: usize = 16 * 1024 * 1024;

/// Kind byte of [`Frame::Replica`], which has a second encoder
/// ([`Frame::encode_replica_into`]).
const KIND_REPLICA: u8 = 1;

/// Kind bytes of the frames the client edge routes on. The edge peeks them
/// with [`peek_kind`] instead of decoding reply traffic a second time;
/// [`Frame::encode_frame`] and [`Frame::decode_frame`] use the same names.
pub(crate) const KIND_CLIENT_SUBMIT: u8 = 2;
pub(crate) const KIND_CLIENT_REPLY: u8 = 3;
pub(crate) const KIND_CLIENT_REJECT: u8 = 4;

/// The kind byte of an encoded frame (it follows the magic and the
/// version), or `None` when `frame` is too short to carry one.
pub(crate) fn peek_kind(frame: &[u8]) -> Option<u8> {
    frame.get(FRAME_MAGIC.len() + 1).copied()
}

/// The identity a connection announces in its [`Frame::Hello`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PeerKind {
    /// A replica of the deployment.
    Replica(ReplicaId),
    /// A client node (identified by its workload stream id).
    Client(ClientId),
}

/// One unit of deployment traffic.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Frame {
    /// The first frame on every connection: who is calling. Transports use
    /// it to route replies back over inbound client connections; it carries
    /// no payload and is not authenticated (authentication lives on the
    /// payload frames — a forged Hello gains an attacker nothing, since
    /// replies to the wrong client fail that client's tag verification).
    Hello {
        /// The connecting peer.
        peer: PeerKind,
    },
    /// A replica-to-replica consensus message: the canonical encoding of an
    /// `rcc_core::RccMessage` envelope, authenticated per link.
    Replica {
        /// The sending replica. Trust derives from `tag`, not this field:
        /// in MAC mode the pairwise key, in PK mode the sender's public
        /// key — a forged `from` fails verification.
        from: ReplicaId,
        /// The encoded `RccMessage` envelope.
        payload: Vec<u8>,
        /// Authentication over `payload`.
        tag: AuthTag,
    },
    /// A client's pre-assembled batch, submitted to the coordinator of its
    /// assigned consensus instance.
    ClientSubmit {
        /// The submitting client node.
        client: ClientId,
        /// The instance the client is assigned to (§III-E).
        instance: InstanceId,
        /// The encoded `rcc_common::Batch`.
        payload: Vec<u8>,
        /// Authentication over `payload` (clients MAC toward each replica,
        /// or sign, per the deployment mode).
        tag: AuthTag,
    },
    /// A replica's reply to a released batch: the certified digest. A client
    /// accepts an outcome once `f + 1` distinct replicas reply with the
    /// same digest (§III-A).
    ClientReply {
        /// The replying replica.
        replica: ReplicaId,
        /// The digest certified by the commit quorum.
        digest: Digest,
        /// Authentication over the digest bytes.
        tag: AuthTag,
    },
    /// A coordinator turned a submission away (no capacity, or it no longer
    /// coordinates the instance): the client frees the window slot and
    /// generates fresh work rather than waiting for replies that will never
    /// come. Unauthenticated and purely advisory — a forged reject can only
    /// make a client resubmit elsewhere, which the reply quorum tolerates.
    ClientReject {
        /// The rejecting replica.
        replica: ReplicaId,
        /// Digest of the turned-away batch.
        digest: Digest,
    },
    /// A coordinator accepted a submission into its proposal pipeline. Not
    /// an outcome — only the `f + 1` matching [`Frame::ClientReply`]s are —
    /// but a liveness signal: a batch that is *accepted* yet never replied
    /// to means the stall is downstream of a live coordinator (a blocked
    /// release round), so the client keeps feeding it instead of rotating
    /// away; a batch that is never even accepted means the coordinator is
    /// dead or deposed. Advisory and unauthenticated, like the reject.
    ClientAccept {
        /// The accepting replica.
        replica: ReplicaId,
        /// Digest of the accepted batch.
        digest: Digest,
    },
}

impl Frame {
    fn kind_tag(&self) -> u8 {
        match self {
            Frame::Hello { .. } => 0,
            Frame::Replica { .. } => KIND_REPLICA,
            Frame::ClientSubmit { .. } => KIND_CLIENT_SUBMIT,
            Frame::ClientReply { .. } => KIND_CLIENT_REPLY,
            Frame::ClientReject { .. } => KIND_CLIENT_REJECT,
            Frame::ClientAccept { .. } => 5,
        }
    }

    /// Encodes the frame, including the magic/version header.
    pub fn encode_frame(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        out.extend_from_slice(&FRAME_MAGIC);
        out.push(WIRE_VERSION);
        out.push(self.kind_tag());
        match self {
            Frame::Hello { peer } => match peer {
                PeerKind::Replica(replica) => {
                    out.push(0);
                    replica.encode(&mut out);
                }
                PeerKind::Client(client) => {
                    out.push(1);
                    client.encode(&mut out);
                }
            },
            Frame::Replica { from, payload, tag } => {
                from.encode(&mut out);
                write_bytes(&mut out, payload);
                tag.encode(&mut out);
            }
            Frame::ClientSubmit {
                client,
                instance,
                payload,
                tag,
            } => {
                client.encode(&mut out);
                instance.encode(&mut out);
                write_bytes(&mut out, payload);
                tag.encode(&mut out);
            }
            Frame::ClientReply {
                replica,
                digest,
                tag,
            } => {
                replica.encode(&mut out);
                digest.encode(&mut out);
                tag.encode(&mut out);
            }
            Frame::ClientReject { replica, digest } | Frame::ClientAccept { replica, digest } => {
                replica.encode(&mut out);
                digest.encode(&mut out);
            }
        }
        out
    }

    /// Appends the bytes `Frame::Replica { from, payload, tag }.encode_frame()`
    /// would produce to `out`, from a borrowed payload: what a broadcast calls
    /// per recipient with that recipient's outbound run, so the payload is
    /// copied into each run and nowhere else — no `Vec` per frame.
    pub fn encode_replica_into(out: &mut Vec<u8>, from: ReplicaId, payload: &[u8], tag: &AuthTag) {
        // Header, sender, length prefix, payload, tag: exactly what is
        // written, so a run sized from the one before it is not regrown for
        // slack it will never use.
        out.reserve(4 + 4 + 4 + payload.len() + tag.encoded_len());
        out.extend_from_slice(&FRAME_MAGIC);
        out.push(WIRE_VERSION);
        out.push(KIND_REPLICA);
        from.encode(out);
        write_bytes(out, payload);
        tag.encode(out);
    }

    /// Decodes a frame, rejecting bad magic, version skew, unknown kinds,
    /// truncation, and trailing bytes.
    pub fn decode_frame(bytes: &[u8]) -> Result<Frame, WireError> {
        let mut input = Reader::new(bytes);
        if input.take(2)? != FRAME_MAGIC {
            return Err(WireError::BadMagic);
        }
        let version = input.u8()?;
        if version != WIRE_VERSION {
            return Err(WireError::UnsupportedVersion {
                got: version,
                expected: WIRE_VERSION,
            });
        }
        let frame = match input.u8()? {
            0 => Frame::Hello {
                peer: match input.u8()? {
                    0 => PeerKind::Replica(ReplicaId::decode(&mut input)?),
                    1 => PeerKind::Client(ClientId::decode(&mut input)?),
                    tag => {
                        return Err(WireError::InvalidTag {
                            context: "PeerKind",
                            tag,
                        })
                    }
                },
            },
            KIND_REPLICA => Frame::Replica {
                from: ReplicaId::decode(&mut input)?,
                payload: read_bytes(&mut input)?,
                tag: AuthTag::decode(&mut input)?,
            },
            KIND_CLIENT_SUBMIT => Frame::ClientSubmit {
                client: ClientId::decode(&mut input)?,
                instance: InstanceId::decode(&mut input)?,
                payload: read_bytes(&mut input)?,
                tag: AuthTag::decode(&mut input)?,
            },
            KIND_CLIENT_REPLY => Frame::ClientReply {
                replica: ReplicaId::decode(&mut input)?,
                digest: Digest::decode(&mut input)?,
                tag: AuthTag::decode(&mut input)?,
            },
            KIND_CLIENT_REJECT => Frame::ClientReject {
                replica: ReplicaId::decode(&mut input)?,
                digest: Digest::decode(&mut input)?,
            },
            5 => Frame::ClientAccept {
                replica: ReplicaId::decode(&mut input)?,
                digest: Digest::decode(&mut input)?,
            },
            tag => {
                return Err(WireError::InvalidTag {
                    context: "Frame",
                    tag,
                })
            }
        };
        input.finish()?;
        Ok(frame)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frames() -> Vec<Frame> {
        vec![
            Frame::Hello {
                peer: PeerKind::Replica(ReplicaId(2)),
            },
            Frame::Hello {
                peer: PeerKind::Client(ClientId(7)),
            },
            Frame::Replica {
                from: ReplicaId(1),
                payload: vec![1, 2, 3, 4],
                tag: AuthTag::None,
            },
            Frame::ClientSubmit {
                client: ClientId(3),
                instance: InstanceId(1),
                payload: vec![9; 100],
                tag: AuthTag::Mac(rcc_crypto::MacTag([5; 32])),
            },
            Frame::ClientReply {
                replica: ReplicaId(0),
                digest: Digest::from_bytes([8; 32]),
                tag: AuthTag::None,
            },
            Frame::ClientReject {
                replica: ReplicaId(3),
                digest: Digest::from_bytes([1; 32]),
            },
            Frame::ClientAccept {
                replica: ReplicaId(2),
                digest: Digest::from_bytes([4; 32]),
            },
        ]
    }

    #[test]
    fn frames_round_trip() {
        for frame in frames() {
            let bytes = frame.encode_frame();
            let back = Frame::decode_frame(&bytes).expect("decode");
            assert_eq!(back, frame);
            assert_eq!(back.encode_frame(), bytes, "canonical");
        }
    }

    #[test]
    fn the_borrowed_replica_encoder_writes_the_same_bytes_in_one_allocation() {
        let tags = [
            AuthTag::None,
            AuthTag::Mac(rcc_crypto::MacTag([5; 32])),
            AuthTag::Signature(rcc_crypto::KeyPair::from_seed([3; 32]).sign(b"m")),
        ];
        for tag in tags {
            for payload in [vec![], vec![7u8; 3], vec![9u8; 5_400]] {
                let mut bytes = Vec::new();
                Frame::encode_replica_into(&mut bytes, ReplicaId(2), &payload, &tag);
                assert!(
                    bytes.len() <= 4 + 4 + 4 + payload.len() + 65,
                    "never regrown"
                );
                assert_eq!(bytes.capacity(), bytes.len(), "reserved to the byte");
                // Behind bytes already there, which stay as they were.
                let mut behind = b"earlier records".to_vec();
                Frame::encode_replica_into(&mut behind, ReplicaId(2), &payload, &tag);
                assert_eq!(&behind[..15], b"earlier records");
                assert_eq!(&behind[15..], bytes);
                let owned = Frame::Replica {
                    from: ReplicaId(2),
                    payload,
                    tag,
                };
                assert_eq!(bytes, owned.encode_frame());
            }
        }
    }

    #[test]
    fn bad_magic_and_versions_are_rejected() {
        let mut bytes = frames()[0].encode_frame();
        bytes[0] = b'X';
        assert_eq!(Frame::decode_frame(&bytes), Err(WireError::BadMagic));
        let mut bytes = frames()[0].encode_frame();
        bytes[2] = WIRE_VERSION + 1;
        assert_eq!(
            Frame::decode_frame(&bytes),
            Err(WireError::UnsupportedVersion {
                got: WIRE_VERSION + 1,
                expected: WIRE_VERSION
            })
        );
    }

    #[test]
    fn truncated_frames_are_typed_errors() {
        for frame in frames() {
            let bytes = frame.encode_frame();
            for cut in 0..bytes.len() {
                let err = Frame::decode_frame(&bytes[..cut]).expect_err("prefix decodes");
                assert!(
                    matches!(
                        err,
                        WireError::Truncated { .. }
                            | WireError::TooLong { .. }
                            | WireError::BadMagic
                    ),
                    "cut {cut}: {err:?}"
                );
            }
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = frames()[5].encode_frame();
        bytes.push(0);
        assert_eq!(
            Frame::decode_frame(&bytes),
            Err(WireError::TrailingBytes { remaining: 1 })
        );
    }
}
