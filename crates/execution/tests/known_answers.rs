//! Known answers for the execution engine. A replica executes each released
//! round in place, in the agreed order (paper §III-A/B), and every
//! non-faulty replica must reach the same state and send the same replies.
//! This pins what `execute_round` produces on seeded workloads — hot-key
//! skew, bank traffic, scans over created records and no-op filler — to
//! values captured before the engine lost its conflict-group fan-out, where
//! the fan-out was proven to produce them too at pool widths 1, 2, 4 and 8.
//! Every workload runs on owned and on borrowed batches (the node passes
//! borrowed ones); both must give the same answers.

use rcc_common::rng::SplitMix64;
use rcc_common::{
    Batch, BatchId, ClientId, ClientRequest, Digest, InstanceId, ReplicaId, Round, Transaction,
    TransactionKind,
};
use rcc_crypto::hash::{digest_bytes, digest_sequence};
use rcc_execution::{ClientReply, ExecutionEngine, ExecutionOutcome};
use std::borrow::Borrow;

/// Keys 0..HOT_KEYS soak up a large share of record traffic so rounds are
/// full of genuine read/write conflicts, not just disjoint singletons.
const HOT_KEYS: u64 = 4;
const TABLE_KEYS: u64 = 64;
const HOT_ACCOUNTS: u32 = 3;
const ACCOUNTS: u32 = 16;
/// `Scans` writes into the first `REGION_KEYS` keys of one of `REGIONS`
/// regions 100 000 apart and scans thousands of keys from there on.
const REGION_KEYS: u64 = 64;
const REGIONS: u64 = 5;
const LONG_SCAN: u32 = 4_096;

#[derive(Clone, Copy, Debug)]
enum Shape {
    /// Every kind of transaction over a small hot key space, short scans
    /// included.
    Mixed,
    /// Point accesses only, records and accounts.
    Points,
    /// Mostly long scans plus bank traffic. Only region 0 is pre-populated,
    /// so the other regions' scans count records created mid-run.
    Scans,
    /// Long scans that all cover keys 8..48, and writes into that span.
    Giant,
}

fn bank_kind(rng: &mut SplitMix64, account: u32) -> TransactionKind {
    match rng.next_below(26) {
        0..=11 => TransactionKind::Transfer {
            from: account,
            to: rng.next_below(ACCOUNTS as u64) as u32,
            min_balance: rng.next_below(120) as i64 - 20,
            amount: 1 + rng.next_below(50) as i64,
        },
        12..=19 => TransactionKind::Deposit {
            account,
            amount: 1 + rng.next_below(40) as i64,
        },
        _ => TransactionKind::BalanceQuery { account },
    }
}

fn point_kind(rng: &mut SplitMix64, key: u64) -> TransactionKind {
    match rng.next_below(65) {
        0..=34 => TransactionKind::YcsbWrite {
            key,
            value: vec![rng.next_below(251) as u8; 8 + rng.next_below(9) as usize],
        },
        35..=54 => TransactionKind::YcsbRead { key },
        _ => TransactionKind::YcsbReadModifyWrite {
            key,
            delta: vec![rng.next_below(251) as u8; 1 + rng.next_below(4) as usize],
        },
    }
}

fn random_kind(rng: &mut SplitMix64, shape: Shape) -> TransactionKind {
    let hot = rng.next_below(10) < 4;
    let record_key = rng.next_below(if hot { HOT_KEYS } else { TABLE_KEYS });
    let account = rng.next_below(u64::from(if hot { HOT_ACCOUNTS } else { ACCOUNTS })) as u32;
    let roll = rng.next_below(100);
    match shape {
        Shape::Mixed => match roll {
            0..=64 => point_kind(rng, record_key),
            65..=72 => TransactionKind::YcsbScan {
                start: rng.next_below(TABLE_KEYS),
                count: 1 + rng.next_below(12) as u32,
            },
            73..=97 => bank_kind(rng, account),
            _ => TransactionKind::NoOp,
        },
        Shape::Points => match roll {
            0..=69 => point_kind(rng, record_key),
            70..=97 => bank_kind(rng, account),
            _ => TransactionKind::NoOp,
        },
        Shape::Scans => {
            let base = rng.next_below(REGIONS) * 100_000;
            let key = base + rng.next_below(REGION_KEYS);
            match roll {
                0..=59 => TransactionKind::YcsbScan {
                    start: base + rng.next_below(REGION_KEYS / 2),
                    count: LONG_SCAN + rng.next_below(LONG_SCAN as u64) as u32,
                },
                60..=84 => point_kind(rng, key),
                85..=97 => bank_kind(rng, account),
                _ => TransactionKind::NoOp,
            }
        }
        Shape::Giant => match roll {
            0..=69 => TransactionKind::YcsbScan {
                start: rng.next_below(8),
                count: LONG_SCAN + rng.next_below(16) as u32,
            },
            _ => TransactionKind::YcsbWrite {
                key: 8 + rng.next_below(40),
                value: vec![rng.next_below(251) as u8; 8],
            },
        },
    }
}

fn batch_id(instance: u32, round: Round) -> BatchId {
    BatchId {
        instance: InstanceId(instance),
        round,
    }
}

/// 12 rounds of 4 batches each, one in eight of them a whole no-op filler
/// batch (an idle instance's filler).
fn workload(shape: Shape) -> Vec<(Round, Vec<(BatchId, Batch)>)> {
    let mut rng = SplitMix64::new(0x9e37_79b9_0000_0000);
    let mut sequence = 0u64;
    (0..12)
        .map(|round| {
            let batches = (0..4)
                .map(|instance| {
                    if rng.next_below(8) == 0 {
                        let filler = Batch::noop(InstanceId(instance), round);
                        return (batch_id(instance, round), filler);
                    }
                    let requests = (0..4 + rng.next_below(9))
                        .map(|_| {
                            sequence += 1;
                            let client = ClientId(rng.next_below(6));
                            let kind = random_kind(&mut rng, shape);
                            ClientRequest::new(client, sequence, Transaction::new(kind))
                        })
                        .collect();
                    (batch_id(instance, round), Batch::new(requests))
                })
                .collect();
            (round, batches)
        })
        .collect()
}

/// One reply's fields as bytes: the outcome as a tag and up to three
/// integers.
fn encode_reply(out: &mut Vec<u8>, reply: &ClientReply) {
    use ExecutionOutcome::*;
    let (tag, fields) = match reply.outcome {
        ReadResult { bytes, found } => (0u8, [bytes as i64, found as i64, 0]),
        WriteApplied { version } => (1, [version as i64, 0, 0]),
        ScanResult { records } => (2, [records as i64, 0, 0]),
        TransferResult {
            applied,
            from_balance,
            to_balance,
        } => (3, [applied as i64, from_balance, to_balance]),
        Balance { balance } => (4, [balance, 0, 0]),
        NoOp => (5, [0; 3]),
    };
    out.extend_from_slice(&reply.request.client.0.to_be_bytes());
    out.extend_from_slice(&reply.request.sequence.to_be_bytes());
    out.extend_from_slice(&reply.replica.0.to_be_bytes());
    out.extend_from_slice(&reply.executed_in_round.to_be_bytes());
    out.extend_from_slice(&reply.position_in_round.to_be_bytes());
    out.push(tag);
    for field in fields {
        out.extend_from_slice(&field.to_be_bytes());
    }
    out.extend_from_slice(reply.block_digest.as_bytes());
}

/// Executes `rounds` through `execute_round` on an engine whose table holds
/// half the key space (so writes create records and scans see them) and no
/// accounts (so deposits create them), then reads back everything the
/// engine exposes, one fact a line.
fn answers<B: Borrow<Batch>>(rounds: &[(Round, Vec<(BatchId, B)>)]) -> String {
    let mut engine = ExecutionEngine::with_ycsb_table(ReplicaId(0), TABLE_KEYS / 2, 8);
    let mut replies = Vec::new();
    for (round, ordered) in rounds {
        for reply in engine.execute_round(*round, ordered) {
            encode_reply(&mut replies, &reply);
        }
    }
    let ledger = engine.ledger();
    ledger.verify().expect("the ledger's hash chain holds");
    let blocks: Vec<Digest> = ledger.blocks().map(|b| b.content_digest()).collect();
    let (table, summary) = (engine.table(), engine.summary());
    format!(
        "ledger head {}\nblocks {}\ntable {}\naccounts {}\nstate {}\n\
         reads {} writes {}\nrounds {} batches {} transactions {} noops {}\nreplies {}",
        ledger.head_digest(),
        digest_sequence(&blocks),
        table.fingerprint(),
        engine.accounts().fingerprint(),
        engine.state_fingerprint(),
        table.read_count(),
        table.write_count(),
        summary.rounds,
        summary.batches,
        summary.transactions,
        summary.noops,
        digest_bytes(&replies),
    )
}

/// Checks `rounds` against `expected` on owned and on borrowed batches.
fn assert_answers(rounds: &[(Round, Vec<(BatchId, Batch)>)], expected: &str) {
    assert_eq!(answers(rounds), expected, "owned batches");
    let borrowed: Vec<(Round, Vec<(BatchId, &Batch)>)> = rounds
        .iter()
        .map(|(round, ordered)| (*round, ordered.iter().map(|(id, b)| (*id, b)).collect()))
        .collect();
    assert_eq!(answers(&borrowed), expected, "borrowed batches");
}

#[test]
fn seeded_workloads_execute_to_their_known_answers() {
    assert_answers(&workload(Shape::Mixed), MIXED);
    assert_answers(&workload(Shape::Points), POINTS);
    assert_answers(&workload(Shape::Scans), SCANS);
    assert_answers(&workload(Shape::Giant), GIANT);
}

#[test]
fn empty_and_all_noop_rounds_append_blocks_and_reply_nothing() {
    let noops = (0..4)
        .map(|i| (batch_id(i, 1), Batch::noop(InstanceId(i), 1)))
        .collect();
    assert_answers(&[(0, Vec::new()), (1, noops)], NOOPS);
}

// Captured at PR 24, where `execute_round` and the conflict-group fan-out
// produced these at pool widths 1, 2, 4 and 8 alike.
const MIXED: &str = "ledger head ea9c747d6ab63e7d43fb9b7f8e3bab6ead1253dc8b7f99942681ecda8cb5bef0
blocks 8c5b0e8533d58149ec05ea4a639d95128ee1816f44893ac0e8d044489a52af02
table 12772247408652414954
accounts 12601673276029577958
state 17827448359605776942
reads 276 writes 159
rounds 12 batches 48 transactions 325 noops 18
replies d4f0855de73cb258ba5df2448f4531d5991a29a3b18e8cffbf2fa032ffcd7640";
const POINTS: &str = "ledger head cfc70a2e03e83b5b4d5538995862536993f4a98dbc19c90643ba80e2c622c719
blocks 7cbacf05d56b87ee77d79a625344c1f6fd80225e34d9a57b04781dcb705f3c3d
table 11504445224030657035
accounts 3677343902108324418
state 9669417246468684826
reads 104 writes 161
rounds 12 batches 48 transactions 330 noops 15
replies d342910c012967a84ec24accffd06b7a00763f0a29681c58cfd00f73a2453e3f";
const SCANS: &str = "ledger head 7e3e26198a662694bd06e7db9318038c0b06a63c9e2fec546ba28a8871b2d90c
blocks 6bd1a10d7a5fb06b5523d887ea3470a487b6272083c3c9c31116387b9f10824e
table 3649455649324694778
accounts 16241396670664929613
state 2509682501536038448
reads 1189929 writes 60
rounds 12 batches 48 transactions 307 noops 19
replies a133d5c85c88496269c7b87fd3704273137e7cc3f9f58c0dbe1f929a2ff39aad";
const GIANT: &str = "ledger head 654f7f3a1f351206fe6ff92c40b077af842e0b614cde68ec75e20901777c7065
blocks 9555261d62dcd0653e9304b2c2e81a182d2bc28bbece6e0175b601c77ed504f2
table 9075523001575483660
accounts 0
state 9075523001575483660
reads 919160 writes 100
rounds 12 batches 48 transactions 324 noops 6
replies c26530c2f7c01825bef6718fd8187f8fb81833a883fc8f3a3d5370fad83484c1";
// The table fingerprint is the pre-populated half of the key space; the
// reply digest is SHA-256 of nothing.
const NOOPS: &str = "ledger head fed439161ec1ebfbdd4deeda0934ed45575fc41e8b683e65afbdf38bd6c6cbb8
blocks 0ea821495179da69b372d55f95ca15de2440143925d28711ef20449360bea5e5
table 9412854718585405462
accounts 0
state 9412854718585405462
reads 0 writes 0
rounds 2 batches 4 transactions 0 noops 4
replies e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855";
