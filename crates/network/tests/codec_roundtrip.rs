//! Property tests for the wire codec, driven by `SplitMix64`-generated
//! messages: every variant of every deployed message type round-trips
//! canonically, and malformed inputs — truncations, corruptions, version
//! skew — are rejected with typed errors, never panics or silent
//! mis-parses. The same generators pin the tag byte of every variant, and
//! the frame constants, to `docs/WIRE_FORMAT.md`.

use rcc_common::codec::{Decode, Encode, WireError};
use rcc_common::{
    Batch, ClientId, ClientRequest, Digest, InstanceId, ReplicaId, SplitMix64, Transaction,
    TransactionKind,
};
use rcc_core::RccMessage;
use rcc_crypto::{AuthTag, MacTag, Signature};
use rcc_network::{ByteMangler, Frame, MangleConfig, PeerKind, MAX_FRAME_BYTES, WIRE_VERSION};
use rcc_protocols::pbft::PbftMessage;
use rcc_storage::Checkpoint;

fn digest(rng: &mut SplitMix64) -> Digest {
    let mut bytes = [0u8; 32];
    for chunk in bytes.chunks_mut(8) {
        chunk.copy_from_slice(&rng.next_u64().to_be_bytes());
    }
    Digest::from_bytes(bytes)
}

fn blob(rng: &mut SplitMix64, max: usize) -> Vec<u8> {
    let len = rng.next_below(max as u64) as usize;
    (0..len).map(|_| rng.next_u64() as u8).collect()
}

/// A transaction of every kind, cycled deterministically so each run covers
/// all variants many times.
fn transaction_kind(rng: &mut SplitMix64, variant: u64) -> TransactionKind {
    match variant % 8 {
        0 => TransactionKind::NoOp,
        1 => TransactionKind::YcsbRead {
            key: rng.next_u64(),
        },
        2 => TransactionKind::YcsbWrite {
            key: rng.next_u64(),
            value: blob(rng, 32),
        },
        3 => TransactionKind::YcsbReadModifyWrite {
            key: rng.next_u64(),
            delta: blob(rng, 16),
        },
        4 => TransactionKind::YcsbScan {
            start: rng.next_u64(),
            count: rng.next_u64() as u32,
        },
        5 => TransactionKind::Transfer {
            from: rng.next_u64() as u32,
            to: rng.next_u64() as u32,
            min_balance: rng.next_u64() as i64,
            amount: rng.next_u64() as i64,
        },
        6 => TransactionKind::Deposit {
            account: rng.next_u64() as u32,
            amount: rng.next_u64() as i64,
        },
        _ => TransactionKind::BalanceQuery {
            account: rng.next_u64() as u32,
        },
    }
}

fn batch(rng: &mut SplitMix64) -> Batch {
    let len = 1 + rng.next_below(5);
    let mut requests = Vec::with_capacity(len as usize);
    for _ in 0..len {
        let (client, sequence, variant) = (rng.next_u64(), rng.next_u64(), rng.next_u64());
        let transaction = Transaction::new(transaction_kind(rng, variant));
        let mut request = ClientRequest::new(ClientId(client), sequence, transaction);
        if rng.next_below(2) == 0 {
            request.assigned_instance = Some(InstanceId(rng.next_u64() as u32));
        }
        requests.push(request);
    }
    Batch::new(requests)
}

fn prepared(rng: &mut SplitMix64) -> Vec<(u64, Digest, Batch)> {
    (0..rng.next_below(3))
        .map(|_| (rng.next_u64(), digest(rng), batch(rng)))
        .collect()
}

/// One PBFT message per variant index.
fn pbft_message(rng: &mut SplitMix64, variant: u64) -> PbftMessage {
    match variant % 5 {
        0 => PbftMessage::PrePrepare {
            view: rng.next_u64(),
            round: rng.next_u64(),
            digest: digest(rng),
            batch: batch(rng),
        },
        1 => PbftMessage::Prepare {
            view: rng.next_u64(),
            round: rng.next_u64(),
            digest: digest(rng),
        },
        2 => PbftMessage::Commit {
            view: rng.next_u64(),
            round: rng.next_u64(),
            digest: digest(rng),
        },
        3 => PbftMessage::ViewChange {
            new_view: rng.next_u64(),
            committed_prefix: rng.next_u64(),
            prepared: prepared(rng),
        },
        _ => PbftMessage::NewView {
            view: rng.next_u64(),
            preprepares: prepared(rng),
        },
    }
}

fn rcc_message(rng: &mut SplitMix64, variant: u64) -> RccMessage<PbftMessage> {
    match variant % 5 {
        0 => {
            let inner = rng.next_u64();
            RccMessage::Instance {
                instance: InstanceId(rng.next_u64() as u32),
                message: pbft_message(rng, inner),
            }
        }
        1 => RccMessage::SlotRequest {
            instance: InstanceId(rng.next_u64() as u32),
            round: rng.next_u64(),
        },
        2 => RccMessage::SlotReply {
            instance: InstanceId(rng.next_u64() as u32),
            round: rng.next_u64(),
            digest: digest(rng),
            batch: batch(rng),
            view: rng.next_u64(),
        },
        3 => RccMessage::CheckpointVote {
            round: rng.next_u64(),
            digest: digest(rng),
        },
        _ => RccMessage::CheckpointTransfer {
            checkpoint: Checkpoint {
                round: rng.next_u64(),
                ledger_head: digest(rng),
                table_fingerprint: rng.next_u64(),
                accounts_fingerprint: rng.next_u64(),
                state_bytes: rng.next_u64() >> 32,
            },
        },
    }
}

fn auth_tag(rng: &mut SplitMix64, variant: u64) -> AuthTag {
    match variant % 3 {
        0 => AuthTag::None,
        1 => {
            let mut bytes = [0u8; 32];
            for chunk in bytes.chunks_mut(8) {
                chunk.copy_from_slice(&rng.next_u64().to_be_bytes());
            }
            AuthTag::Mac(MacTag(bytes))
        }
        _ => {
            let mut bytes = [0u8; 64];
            for chunk in bytes.chunks_mut(8) {
                chunk.copy_from_slice(&rng.next_u64().to_be_bytes());
            }
            AuthTag::Signature(Signature::from_bytes(bytes))
        }
    }
}

fn peer_kind(rng: &mut SplitMix64, variant: u64) -> PeerKind {
    match variant % 2 {
        0 => PeerKind::Replica(ReplicaId(rng.next_u64() as u32)),
        _ => PeerKind::Client(ClientId(rng.next_u64())),
    }
}

fn frame(rng: &mut SplitMix64, variant: u64) -> Frame {
    match variant % 6 {
        0 => {
            let peer_variant = rng.next_below(2);
            Frame::Hello {
                peer: peer_kind(rng, peer_variant),
            }
        }
        1 => {
            let (inner, tag_variant) = (rng.next_u64(), rng.next_u64());
            Frame::Replica {
                from: ReplicaId(rng.next_u64() as u32),
                payload: rcc_message(rng, inner).encoded(),
                tag: auth_tag(rng, tag_variant),
            }
        }
        2 => {
            let tag_variant = rng.next_u64();
            Frame::ClientSubmit {
                client: ClientId(rng.next_u64()),
                instance: InstanceId(rng.next_u64() as u32),
                payload: batch(rng).encoded(),
                tag: auth_tag(rng, tag_variant),
            }
        }
        3 => {
            let tag_variant = rng.next_u64();
            Frame::ClientReply {
                replica: ReplicaId(rng.next_u64() as u32),
                digest: digest(rng),
                tag: auth_tag(rng, tag_variant),
            }
        }
        4 => Frame::ClientReject {
            replica: ReplicaId(rng.next_u64() as u32),
            digest: digest(rng),
        },
        _ => Frame::ClientAccept {
            replica: ReplicaId(rng.next_u64() as u32),
            digest: digest(rng),
        },
    }
}

/// Round-trip + canonicity + truncation + corruption for one encoding.
fn check_value_bytes<T, D, E>(bytes: Vec<u8>, decode: D, encode: E, context: &str)
where
    T: PartialEq + std::fmt::Debug,
    D: Fn(&[u8]) -> Result<T, WireError>,
    E: Fn(&T) -> Vec<u8>,
{
    let value = decode(&bytes).unwrap_or_else(|e| panic!("{context}: decode own bytes: {e}"));
    assert_eq!(encode(&value), bytes, "{context}: canonical re-encode");
    // Every strict prefix fails with a typed error (no panic, no partial
    // accept) — decode_all rejects trailing bytes, so a shorter valid value
    // would surface as TrailingBytes… which the closure's decode forbids.
    for cut in 0..bytes.len() {
        assert!(
            decode(&bytes[..cut]).is_err(),
            "{context}: truncation at {cut} accepted"
        );
    }
    // Single-byte corruption: either rejected, or decodes to a value whose
    // canonical encoding is exactly the corrupted input (the codec has no
    // two encodings of one value, so "accepted" must mean "a different,
    // self-consistent value").
    let mut rng = SplitMix64::new(bytes.len() as u64 ^ 0xC0FFEE);
    for _ in 0..8 {
        let index = rng.next_below(bytes.len() as u64) as usize;
        let mut corrupted = bytes.clone();
        corrupted[index] ^= 1 << rng.next_below(8);
        if let Ok(reparsed) = decode(&corrupted) {
            assert_eq!(
                encode(&reparsed),
                corrupted,
                "{context}: corrupted byte {index} accepted non-canonically"
            );
        }
    }
}

const SAMPLES: u64 = 40;

#[test]
fn pbft_messages_round_trip_under_fuzzing() {
    let mut rng = SplitMix64::new(1);
    for variant in 0..SAMPLES {
        let message = pbft_message(&mut rng, variant);
        check_value_bytes(
            message.encoded(),
            PbftMessage::decode_all,
            |m: &PbftMessage| m.encoded(),
            "PbftMessage",
        );
    }
}

#[test]
fn rcc_envelopes_round_trip_under_fuzzing() {
    let mut rng = SplitMix64::new(3);
    for variant in 0..SAMPLES {
        let message = rcc_message(&mut rng, variant);
        check_value_bytes(
            message.encoded(),
            RccMessage::<PbftMessage>::decode_all,
            |m: &RccMessage<PbftMessage>| m.encoded(),
            "RccMessage",
        );
    }
}

#[test]
fn frames_round_trip_under_fuzzing() {
    let mut rng = SplitMix64::new(4);
    for variant in 0..SAMPLES {
        let sample = frame(&mut rng, variant);
        check_value_bytes(
            sample.encode_frame(),
            Frame::decode_frame,
            Frame::encode_frame,
            "Frame",
        );
    }
}

#[test]
fn batches_and_checkpoints_round_trip_under_fuzzing() {
    let mut rng = SplitMix64::new(5);
    for _ in 0..SAMPLES {
        check_value_bytes(
            batch(&mut rng).encoded(),
            Batch::decode_all,
            |b: &Batch| b.encoded(),
            "Batch",
        );
        let checkpoint = Checkpoint {
            round: rng.next_u64(),
            ledger_head: digest(&mut rng),
            table_fingerprint: rng.next_u64(),
            accounts_fingerprint: rng.next_u64(),
            state_bytes: rng.next_u64(),
        };
        check_value_bytes(
            checkpoint.encoded(),
            Checkpoint::decode_all,
            |c: &Checkpoint| c.encoded(),
            "Checkpoint",
        );
    }
}

/// The two decoders of a batch's bytes, held to each other: the batch path
/// (`Batch::decode_all`, and `Batch::from_bytes`, which keeps the buffer; one
/// validating pass, then every request read in place) and the owned decode
/// of the same bytes as a `Vec<ClientRequest>`. They accept exactly the same
/// inputs with the same error, and on an accepted input they read the same
/// requests from bytes that re-encode to the input.
fn assert_batch_decoders_agree(bytes: &[u8], context: &str) {
    let owned = Vec::<ClientRequest>::decode_all(bytes);
    let decoded = Batch::decode_all(bytes);
    let kept = Batch::from_bytes(bytes.to_vec());
    assert_eq!(decoded.as_ref().err(), owned.as_ref().err(), "{context}");
    assert_eq!(kept.as_ref().err(), owned.as_ref().err(), "{context}");
    let (Ok(owned), Ok(decoded), Ok(kept)) = (owned, decoded, kept) else {
        return;
    };
    for batch in [&decoded, &kept] {
        assert_eq!(batch.len(), owned.len(), "{context}");
        let viewed: Vec<ClientRequest> = batch.views().map(|r| r.to_owned()).collect();
        assert_eq!(viewed, owned, "{context}: views");
        assert_eq!(batch.requests[..], owned[..], "{context}: owned list");
        assert_eq!(batch.encoded(), bytes, "{context}: canonical re-encode");
    }
    assert_eq!(
        owned.encoded(),
        bytes,
        "{context}: canonical owned re-encode"
    );
}

/// The batch decoders on fuzzed batches and on everything the frame tests
/// do to bytes — single-bit corruption, the 100% mangler, splices from
/// another batch, truncation at every cut, trailing garbage.
#[test]
fn borrowed_and_owned_batch_decoders_accept_the_same_bytes() {
    let mut rng = SplitMix64::new(10);
    let mut mangler = ByteMangler::new(MangleConfig::new(10, 1_000_000));
    for _ in 0..SAMPLES {
        let bytes = batch(&mut rng).encoded();
        let donor = batch(&mut rng).encoded();
        assert_batch_decoders_agree(&bytes, "fuzzed batch");
        for _ in 0..8 {
            let mut corrupted = bytes.clone();
            let index = rng.next_below(bytes.len() as u64) as usize;
            corrupted[index] ^= 1 << rng.next_below(8);
            assert_batch_decoders_agree(&corrupted, "corrupted batch");
        }
        for out in mangler.mangle(bytes.clone()) {
            assert_batch_decoders_agree(&out, "mangled batch");
        }
        for _ in 0..4 {
            let start = rng.next_below(bytes.len() as u64) as usize;
            let len = 1 + rng.next_below(64.min(bytes.len() as u64)) as usize;
            let mut spliced = bytes.clone();
            for offset in 0..len.min(bytes.len() - start) {
                spliced[start + offset] = donor[(start + offset) % donor.len()];
            }
            assert_batch_decoders_agree(&spliced, "spliced batch");
        }
        for cut in 0..bytes.len() {
            assert_batch_decoders_agree(&bytes[..cut], "truncated batch");
        }
        let mut extended = bytes.clone();
        extended.extend((0..1 + rng.next_below(16)).map(|_| rng.next_u64() as u8));
        assert_batch_decoders_agree(&extended, "extended batch");
    }
    assert!(
        mangler.stats().mangled() > 0,
        "the 100% mangler never fired"
    );
}

/// The invariant every mangled buffer must satisfy at the decode boundary:
/// either a typed [`WireError`], or a value whose canonical re-encoding is
/// exactly the input (the codec has one encoding per value, so "accepted"
/// must mean "a different, self-consistent frame"). Never a panic.
fn assert_reject_or_canonical(bytes: &[u8], context: &str) {
    if let Ok(reparsed) = Frame::decode_frame(bytes) {
        assert_eq!(
            reparsed.encode_frame(),
            bytes,
            "{context}: accepted non-canonically"
        );
    }
}

/// Wire fuzzing beyond single-byte XOR: every frame the [`ByteMangler`]
/// emits at 100% mangle rate — multi-byte corruption runs, truncations,
/// splices from other frames, duplicates, stale replays, reorders — hits
/// the decode boundary as a typed error or a canonical re-encode.
#[test]
fn mangled_frames_are_rejected_or_reparse_canonically() {
    for seed in 0..4u64 {
        let mut rng = SplitMix64::new(100 + seed);
        let mut mangler = ByteMangler::new(MangleConfig::new(seed, 1_000_000));
        for variant in 0..SAMPLES {
            let encoded = frame(&mut rng, variant).encode_frame();
            for out in mangler.mangle(encoded) {
                assert_reject_or_canonical(&out, "mangled frame");
            }
        }
        assert!(
            mangler.stats().mangled() > 0,
            "the 100% mangler never fired"
        );
    }
}

/// Multi-byte splices: a window of one frame overwritten with bytes taken
/// from a *different* valid frame — the cross-stream corruption a buggy
/// buffer reuse would produce.
#[test]
fn spliced_frames_are_rejected_or_reparse_canonically() {
    let mut rng = SplitMix64::new(7);
    for variant in 0..SAMPLES {
        let victim = frame(&mut rng, variant).encode_frame();
        let donor = frame(&mut rng, variant + 1).encode_frame();
        for _ in 0..4 {
            let start = rng.next_below(victim.len() as u64) as usize;
            let len = 1 + rng.next_below(64.min(victim.len() as u64)) as usize;
            let mut spliced = victim.clone();
            for offset in 0..len.min(victim.len() - start) {
                spliced[start + offset] = donor[(start + offset) % donor.len()];
            }
            assert_reject_or_canonical(&spliced, "spliced frame");
        }
    }
}

/// Mid-frame truncation at arbitrary interior cuts plus appended garbage:
/// a frame cut inside a payload decodes as a typed error, and a frame with
/// trailing bytes — the shape a duplicated/interleaved frame boundary
/// produces after re-framing — must never silently drop the tail.
#[test]
fn truncated_and_extended_frames_are_typed_errors() {
    let mut rng = SplitMix64::new(8);
    for variant in 0..SAMPLES {
        let bytes = frame(&mut rng, variant).encode_frame();
        // Interior truncations (prefix truncation at every index is already
        // covered by `check_value_bytes`; sample a few here against the
        // frame header survivorship case specifically).
        for _ in 0..4 {
            let cut = 1 + rng.next_below(bytes.len() as u64 - 1) as usize;
            assert!(
                Frame::decode_frame(&bytes[..cut]).is_err(),
                "mid-frame truncation at {cut}/{} accepted",
                bytes.len()
            );
        }
        // Trailing garbage after a complete frame.
        let mut extended = bytes.clone();
        extended.extend((0..1 + rng.next_below(16)).map(|_| rng.next_u64() as u8));
        assert!(
            Frame::decode_frame(&extended).is_err(),
            "trailing bytes accepted"
        );
    }
}

/// Duplicated and interleaved frames inside one buffer: a frame
/// concatenated with itself, with a different frame, or cut over with the
/// head of another — none may decode as a single valid frame that isn't
/// canonical for those exact bytes.
#[test]
fn duplicated_and_interleaved_frames_do_not_parse_as_one() {
    let mut rng = SplitMix64::new(9);
    for variant in 0..SAMPLES {
        let first = frame(&mut rng, variant).encode_frame();
        let second = frame(&mut rng, variant + 3).encode_frame();
        // Self-duplication and cross-concatenation: decode must reject the
        // trailing frame rather than silently consuming only the first.
        let mut doubled = first.clone();
        doubled.extend_from_slice(&first);
        assert!(
            Frame::decode_frame(&doubled).is_err(),
            "a duplicated frame parsed as one"
        );
        let mut concat = first.clone();
        concat.extend_from_slice(&second);
        assert!(
            Frame::decode_frame(&concat).is_err(),
            "two concatenated frames parsed as one"
        );
        // Interleave: the head of `second` overwrites the middle of
        // `first` — a torn read across two in-flight frames.
        let mut torn = first.clone();
        let start = torn.len() / 2;
        for (offset, byte) in second.iter().take(torn.len() - start).enumerate() {
            torn[start + offset] = *byte;
        }
        assert_reject_or_canonical(&torn, "torn frame");
    }
}

#[test]
fn cross_version_frames_are_rejected() {
    let mut rng = SplitMix64::new(6);
    for variant in 0..12 {
        let mut bytes = frame(&mut rng, variant).encode_frame();
        for version in [0, WIRE_VERSION + 1, 0xFF] {
            bytes[2] = version;
            assert_eq!(
                Frame::decode_frame(&bytes),
                Err(WireError::UnsupportedVersion {
                    got: version,
                    expected: WIRE_VERSION
                }),
                "version {version} accepted"
            );
        }
    }
}

/// `(tag, variant)` for one value of each variant `generate` makes, sorted
/// by tag: the tag is byte `at` of `encode`'s output and the variant is the
/// name `Debug` prints. `generate(rng, i)` makes variant `i` modulo the
/// variant count, so the first name seen twice ends the cycle.
fn encoded_tags<T: std::fmt::Debug>(
    generate: fn(&mut SplitMix64, u64) -> T,
    encode: fn(&T) -> Vec<u8>,
    at: usize,
) -> Vec<(u8, String)> {
    let mut rng = SplitMix64::new(10);
    let mut rows: Vec<(u8, String)> = Vec::new();
    for variant in 0.. {
        let value = generate(&mut rng, variant);
        let name: String = format!("{value:?}")
            .chars()
            .take_while(|c| c.is_alphanumeric() || *c == '_')
            .collect();
        if rows.iter().any(|(_, seen)| *seen == name) {
            break;
        }
        rows.push((encode(&value)[at], name));
    }
    rows.sort();
    rows
}

/// The two cells of a two-column Markdown table row (`| a | b |`).
fn table_row(line: &str) -> Option<(&str, &str)> {
    match line.split('|').map(str::trim).collect::<Vec<_>>()[..] {
        ["", left, right, ""] => Some((left, right)),
        _ => None,
    }
}

/// The `(tag, variant)` rows of `ty`'s table in the wire-format doc.
fn documented_tags(doc: &str, ty: &str) -> Vec<(u8, String)> {
    let heading = format!("### `{ty}`");
    doc.lines()
        .skip_while(|line| *line != heading)
        .skip(1)
        .take_while(|line| !line.starts_with("### "))
        .filter_map(table_row)
        .filter_map(|(tag, variant)| Some((tag.parse().ok()?, variant.trim_matches('`').into())))
        .collect()
}

/// The value cell of constant `name` in the doc's frame-header table.
fn documented_constant<'a>(doc: &'a str, name: &str) -> &'a str {
    let key = format!("`{name}`");
    doc.lines()
        .filter_map(table_row)
        .find_map(|(constant, value)| (constant == key).then(|| value.trim_matches('`')))
        .unwrap_or_else(|| panic!("docs/WIRE_FORMAT.md has no `{name}` row"))
}

/// The tag tables and frame constants of `docs/WIRE_FORMAT.md` are what the
/// codec puts on the wire. The tags are read off encoded bytes, one value per
/// variant of each tagged type, so a renumbered tag fails here even when
/// encode and decode were changed together and every round trip still
/// passes. On a mismatch the message is the table to paste into the doc.
#[test]
fn wire_tags_match_the_wire_format_doc() {
    let doc = include_str!("../../../docs/WIRE_FORMAT.md");
    // A frame is magic (2 B), version, then its kind tag; a `Hello`'s body
    // opens with its `PeerKind` tag.
    let hello = |&peer: &PeerKind| Frame::Hello { peer }.encode_frame();
    let encoded = [
        ("AuthTag", encoded_tags(auth_tag, AuthTag::encoded, 0)),
        ("Frame", encoded_tags(frame, Frame::encode_frame, 3)),
        (
            "PbftMessage",
            encoded_tags(pbft_message, PbftMessage::encoded, 0),
        ),
        ("PeerKind", encoded_tags(peer_kind, hello, 4)),
        ("RccMessage", encoded_tags(rcc_message, |m| m.encoded(), 0)),
        (
            "TransactionKind",
            encoded_tags(transaction_kind, TransactionKind::encoded, 0),
        ),
    ];

    let documented: Vec<&str> = doc
        .lines()
        .filter_map(|line| line.strip_prefix("### `")?.strip_suffix('`'))
        .collect();
    let checked: Vec<&str> = encoded.iter().map(|(ty, _)| *ty).collect();
    assert_eq!(documented, checked, "docs/WIRE_FORMAT.md's tagged types");

    let stale: Vec<String> = encoded
        .iter()
        .filter(|(ty, rows)| documented_tags(doc, ty) != *rows)
        .map(|(ty, rows)| {
            let table: String = rows
                .iter()
                .map(|(tag, variant)| format!("| {tag} | `{variant}` |\n"))
                .collect();
            format!("### `{ty}` should read:\n\n| tag | variant |\n|---|---|\n{table}")
        })
        .collect();
    assert!(
        stale.is_empty(),
        "docs/WIRE_FORMAT.md disagrees with the encoded tags\n\n{}",
        stale.join("\n")
    );

    assert_eq!(
        documented_constant(doc, "WIRE_VERSION"),
        WIRE_VERSION.to_string(),
        "docs/WIRE_FORMAT.md's WIRE_VERSION"
    );
    let max_frame_bytes: Option<usize> = documented_constant(doc, "MAX_FRAME_BYTES")
        .split(" * ")
        .map(|factor| factor.parse::<usize>().ok())
        .product();
    assert_eq!(
        max_frame_bytes,
        Some(MAX_FRAME_BYTES),
        "docs/WIRE_FORMAT.md's MAX_FRAME_BYTES"
    );
}
