//! The deterministic execution engine.
//!
//! Two entry points produce byte-identical results:
//!
//! * [`ExecutionEngine::execute_round`] — the sequential reference: every
//!   transaction of the round applied in place, in the agreed order.
//! * [`ExecutionEngine::execute_round_parallel`] — the pipelined path. It
//!   first asks whether splitting the round can pay at all (the *work test*
//!   below) and, when it cannot, runs the round through `execute_round`.
//!   Otherwise the round's transactions are partitioned into independent
//!   conflict groups (see [`crate::conflict`]), groups execute concurrently
//!   on a [`WorkerPool`] with their writes buffered in per-group overlays,
//!   and the overlays merge back in deterministic group order. Groups touch
//!   provably disjoint written state and the storage fingerprints compose
//!   by XOR over final records, so the merged state, ledger, summary, and
//!   replies are bit-identical to the sequential path — the property the
//!   `parallel_equivalence` harness pins across seeds and worker counts.
//!
//! # The work test
//!
//! Buffered-write concurrency only pays when analysis plus install cost less
//! than the work they overlap. Count in point accesses: a round of `n`
//! transactions doing `W` accesses' worth of work, `w` of them writes, on a
//! pool `L` wide costs `W` in place; fanned out it costs `n` (one access set,
//! one union-find step and one request clone per transaction), then at best
//! `W / L` (perfectly balanced), then `w` (every buffered write installed a
//! second time). The round fans out only if `n + W/L + w < W`. A point read
//! or write is one access and a transfer two, so a round of those has
//! `W ≤ 2n` and never passes; only scans carry more work than bookkeeping.
//!
//! A scan is *not* one access per record: walking a range costs about 7 ns
//! a record against 1.1–1.4 µs for a point transaction (500 000-key table,
//! `examples/work_test_probe.rs`), and on a two-worker pool fan-out broke
//! even at 115–230 scanned records per access of the model. A scan therefore
//! weighs one access plus one per `SCAN_RECORDS_PER_ACCESS` (256) records, set
//! past the slowest measured break-even so that every round the test sends
//! to the pool was measured faster there than in place.

use crate::conflict::{access_set, conflict_groups};
use crate::reply::{ClientReply, ExecutionOutcome};
use rcc_common::pool::WorkerPool;
use rcc_common::BatchId;
use rcc_common::{Batch, ClientRequest, Digest, ReplicaId, Round, TransactionKind};
use rcc_crypto::hash::digest_batch;
use rcc_storage::ledger::BlockEntry;
use rcc_storage::table::Record;
use rcc_storage::{AccountStore, Checkpoint, Ledger, RecordTable};
use std::borrow::Borrow;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Summary statistics of everything the engine has executed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExecutionSummary {
    /// Rounds (blocks) executed.
    pub rounds: u64,
    /// Batches executed.
    pub batches: u64,
    /// Client transactions executed (excluding no-ops).
    pub transactions: u64,
    /// No-op filler requests skipped.
    pub noops: u64,
}

/// Executes ordered batches deterministically against replica state.
pub struct ExecutionEngine {
    replica: ReplicaId,
    table: RecordTable,
    accounts: AccountStore,
    ledger: Ledger,
    summary: ExecutionSummary,
}

impl ExecutionEngine {
    /// Creates an engine for `replica` with an empty table and empty
    /// accounts.
    pub fn new(replica: ReplicaId) -> Self {
        ExecutionEngine {
            replica,
            table: RecordTable::new(),
            accounts: AccountStore::new(),
            ledger: Ledger::new(),
            summary: ExecutionSummary::default(),
        }
    }

    /// Creates an engine whose record table is pre-populated with `records`
    /// keys of `payload_size` bytes each — the experiment initialization of
    /// Section V-A (500 000 records in the paper).
    pub fn with_ycsb_table(replica: ReplicaId, records: u64, payload_size: usize) -> Self {
        ExecutionEngine {
            replica,
            table: RecordTable::initialize(records, payload_size),
            accounts: AccountStore::new(),
            ledger: Ledger::new(),
            summary: ExecutionSummary::default(),
        }
    }

    /// Creates an engine with initial account balances (for bank scenarios).
    pub fn with_accounts(replica: ReplicaId, balances: &[(u32, i64)]) -> Self {
        ExecutionEngine {
            replica,
            table: RecordTable::new(),
            accounts: AccountStore::with_balances(balances),
            ledger: Ledger::new(),
            summary: ExecutionSummary::default(),
        }
    }

    /// The replica this engine belongs to.
    pub fn replica(&self) -> ReplicaId {
        self.replica
    }

    /// Read access to the ledger.
    pub fn ledger(&self) -> &Ledger {
        &self.ledger
    }

    /// Read access to the record table.
    pub fn table(&self) -> &RecordTable {
        &self.table
    }

    /// Read access to the account store.
    pub fn accounts(&self) -> &AccountStore {
        &self.accounts
    }

    /// Execution statistics so far.
    pub fn summary(&self) -> ExecutionSummary {
        self.summary
    }

    /// A combined fingerprint of the mutable state (table + accounts);
    /// replicas that executed the same ordered transactions have equal
    /// fingerprints.
    pub fn state_fingerprint(&self) -> u64 {
        self.table.fingerprint() ^ self.accounts.fingerprint().rotate_left(17)
    }

    /// Takes a checkpoint of the current state after `round`.
    pub fn checkpoint(&self, round: Round) -> Checkpoint {
        Checkpoint {
            round,
            ledger_head: self.ledger.head_digest(),
            table_fingerprint: self.table.fingerprint(),
            accounts_fingerprint: self.accounts.fingerprint(),
            state_bytes: self.table.snapshot_bytes() + self.accounts.snapshot_bytes(),
        }
    }

    fn execute_kind(&mut self, kind: &TransactionKind) -> ExecutionOutcome {
        match kind {
            TransactionKind::YcsbRead { key } => match self.table.read(*key) {
                Some(record) => ExecutionOutcome::ReadResult {
                    bytes: record.payload.len(),
                    found: true,
                },
                None => ExecutionOutcome::ReadResult {
                    bytes: 0,
                    found: false,
                },
            },
            TransactionKind::YcsbWrite { key, value } => {
                self.table.write(*key, value.clone());
                let version = self.table.peek(*key).map(|r| r.version).unwrap_or(0);
                ExecutionOutcome::WriteApplied { version }
            }
            TransactionKind::YcsbReadModifyWrite { key, delta } => {
                self.table.read_modify_write(*key, delta);
                let version = self.table.peek(*key).map(|r| r.version).unwrap_or(0);
                ExecutionOutcome::WriteApplied { version }
            }
            TransactionKind::YcsbScan { start, count } => {
                let records = self.table.scan(*start, *count);
                ExecutionOutcome::ScanResult { records }
            }
            TransactionKind::Transfer {
                from,
                to,
                min_balance,
                amount,
            } => {
                let applied = self.accounts.transfer(*from, *to, *min_balance, *amount);
                ExecutionOutcome::TransferResult {
                    applied,
                    from_balance: self.accounts.balance(*from),
                    to_balance: self.accounts.balance(*to),
                }
            }
            TransactionKind::Deposit { account, amount } => {
                self.accounts.deposit(*account, *amount);
                ExecutionOutcome::Balance {
                    balance: self.accounts.balance(*account),
                }
            }
            TransactionKind::BalanceQuery { account } => ExecutionOutcome::Balance {
                balance: self.accounts.balance(*account),
            },
            TransactionKind::NoOp => ExecutionOutcome::NoOp,
        }
    }

    /// Appends the round's block to the ledger — the part of a round that
    /// depends only on the agreed order, not on any outcome.
    fn append_block<B: Borrow<Batch>>(&mut self, round: Round, ordered: &[(BatchId, B)]) -> Digest {
        let entries: Vec<BlockEntry> = ordered
            .iter()
            .map(|(id, batch)| BlockEntry {
                batch: *id,
                digest: digest_batch(batch.borrow()),
                transactions: batch.borrow().effective_transactions(),
            })
            .collect();
        self.ledger.append(round, entries).digest
    }

    /// Executes one ordered round: the given `(batch id, batch)` pairs are
    /// executed in the order provided, a block is appended to the ledger, and
    /// one reply per client request is returned. Batches may be owned or
    /// borrowed (`B` is `Batch` or `&Batch`).
    ///
    /// The `round` is the RCC round (or the baseline's sequence number); the
    /// caller is responsible for having agreed on the order (Section III-B
    /// step 2 / the Section IV permutation).
    pub fn execute_round<B: Borrow<Batch>>(
        &mut self,
        round: Round,
        ordered: &[(BatchId, B)],
    ) -> Vec<ClientReply> {
        let block_digest = self.append_block(round, ordered);
        let mut replies = Vec::new();
        let mut position: u32 = 0;
        for (_, batch) in ordered {
            self.summary.batches += 1;
            for request in &batch.borrow().requests {
                if request.is_noop() {
                    self.summary.noops += 1;
                    continue;
                }
                let outcome = self.execute_kind(&request.transaction.kind);
                self.summary.transactions += 1;
                replies.push(ClientReply {
                    request: request.id,
                    replica: self.replica,
                    executed_in_round: round,
                    position_in_round: position,
                    outcome,
                    block_digest,
                });
                position += 1;
            }
        }
        self.summary.rounds += 1;
        replies
    }

    /// Executes one ordered round, with non-conflicting transactions running
    /// concurrently on `pool` when that can pay, producing results
    /// byte-identical to [`ExecutionEngine::execute_round`] — same state
    /// fingerprints, same ledger blocks, same summary, same replies in the
    /// same order.
    ///
    /// A round that fails the work test (see the module docs) runs in place
    /// through `execute_round`. Otherwise the ledger append, reply positions,
    /// and summary counters are computed sequentially (they depend only on
    /// the agreed order, not on outcomes); the transactions themselves
    /// execute in conflict groups buffered against the shared pre-round
    /// state, and each group's final writes and access counts merge back in
    /// deterministic group order.
    pub fn execute_round_parallel<B: Borrow<Batch>>(
        &mut self,
        round: Round,
        ordered: &[(BatchId, B)],
        pool: &WorkerPool,
    ) -> Vec<ClientReply> {
        if !fan_out_pays(ordered, pool.workers()) {
            return self.execute_round(round, ordered);
        }
        let block_digest = self.append_block(round, ordered);

        // Flatten the round into its deterministic execution order: batches
        // in instance-id order, requests in batch order, no-ops skipped.
        // Positions are assigned here, before anything runs.
        let mut txns: Vec<(u32, ClientRequest)> = Vec::new();
        let mut sets = Vec::new();
        let mut position: u32 = 0;
        for (_, batch) in ordered {
            self.summary.batches += 1;
            for request in &batch.borrow().requests {
                if request.is_noop() {
                    self.summary.noops += 1;
                    continue;
                }
                sets.push(access_set(&request.transaction.kind));
                txns.push((position, request.clone()));
                self.summary.transactions += 1;
                position += 1;
            }
        }
        self.summary.rounds += 1;

        let groups = conflict_groups(&sets);
        // Workers read the pre-round state concurrently; shared ownership
        // is temporary and reclaimed below once every job has finished.
        let base_table = Arc::new(std::mem::take(&mut self.table));
        let base_accounts = Arc::new(std::mem::take(&mut self.accounts));
        let mut slots: Vec<Option<(u32, ClientRequest)>> = txns.into_iter().map(Some).collect();
        let replica = self.replica;
        let jobs: Vec<_> = groups
            .into_iter()
            .map(|members| {
                let members: Vec<(u32, ClientRequest)> = members
                    .into_iter()
                    .map(|i| slots[i].take().expect("each txn is in exactly one group"))
                    .collect();
                let table = Arc::clone(&base_table);
                let accounts = Arc::clone(&base_accounts);
                move || {
                    let mut group = GroupExecution::new(&table, &accounts);
                    let outcomes: Vec<(u32, ClientReply)> = members
                        .into_iter()
                        .map(|(pos, request)| {
                            let outcome = group.execute(&request.transaction.kind);
                            (
                                pos,
                                ClientReply {
                                    request: request.id,
                                    replica,
                                    executed_in_round: round,
                                    position_in_round: pos,
                                    outcome,
                                    block_digest,
                                },
                            )
                        })
                        .collect();
                    group.finish(outcomes)
                }
            })
            .collect();
        let results = pool.run_ordered(jobs);

        // Every job has returned, so the temporary shared ownership is back
        // to exactly one reference each.
        self.table = Arc::try_unwrap(base_table).expect("workers released the table");
        self.accounts = Arc::try_unwrap(base_accounts).expect("workers released the accounts");

        // Merge in deterministic group order. Groups write disjoint keys, so
        // the order provably cannot matter — it is fixed anyway so that any
        // future invariant violation shows up as a deterministic divergence,
        // not a heisenbug.
        let mut replies: Vec<(u32, ClientReply)> = Vec::with_capacity(position as usize);
        for result in results {
            for (key, record) in result.records {
                self.table.install(key, record.payload, record.version);
            }
            for (account, balance) in result.balances {
                self.accounts.set_balance(account, balance);
            }
            self.table.note_accesses(result.reads, result.writes);
            replies.extend(result.outcomes);
        }
        replies.sort_by_key(|(pos, _)| *pos);
        replies.into_iter().map(|(_, reply)| reply).collect()
    }
}

/// Records of a range a scan walks in the time one point access takes, for
/// the work test: the break-evens measured on a two-worker pool sat at 115
/// to 230 (see the module docs), and erring high errs towards in place.
const SCAN_RECORDS_PER_ACCESS: u64 = 256;

/// The work test (see the module docs): with `n` transactions doing `W`
/// point accesses' worth of work, `w` of them writes, on a pool `L` wide —
/// analysis, the best-case share and the install together must cost less
/// than executing in place: `n + W/L + w < W`.
fn fan_out_pays<B: Borrow<Batch>>(ordered: &[(BatchId, B)], workers: usize) -> bool {
    let (mut transactions, mut work, mut written) = (0u64, 0u64, 0u64);
    for request in ordered.iter().flat_map(|(_, b)| &b.borrow().requests) {
        let (accesses, writes) = match &request.transaction.kind {
            TransactionKind::NoOp => continue,
            TransactionKind::YcsbRead { .. } | TransactionKind::BalanceQuery { .. } => (1, 0),
            TransactionKind::YcsbWrite { .. }
            | TransactionKind::YcsbReadModifyWrite { .. }
            | TransactionKind::Deposit { .. } => (1, 1),
            TransactionKind::YcsbScan { count, .. } => {
                (1 + u64::from(*count) / SCAN_RECORDS_PER_ACCESS, 0)
            }
            TransactionKind::Transfer { .. } => (2, 2),
        };
        transactions += 1;
        work += accesses;
        written += writes;
    }
    let width = workers as u64;
    width > 1 && transactions + work.div_ceil(width) + written < work
}

/// What one conflict group produced: its buffered writes and statistics.
struct GroupResult {
    records: BTreeMap<u64, Record>,
    balances: BTreeMap<u32, i64>,
    reads: u64,
    writes: u64,
    outcomes: Vec<(u32, ClientReply)>,
}

/// Executes one conflict group against the shared pre-round state, buffering
/// all writes in overlays. The semantics of every operation mirror
/// [`ExecutionEngine`]'s sequential `execute_kind` exactly — versions,
/// access-counter increments, entry creation, and outcome payloads included.
/// Other groups cannot observe or disturb this group's keys (that is what
/// the conflict partition guarantees), so overlay-over-base reads see
/// precisely the state the sequential schedule would have seen.
struct GroupExecution<'a> {
    table: &'a RecordTable,
    accounts: &'a AccountStore,
    records: BTreeMap<u64, Record>,
    balances: BTreeMap<u32, i64>,
    reads: u64,
    writes: u64,
}

impl<'a> GroupExecution<'a> {
    fn new(table: &'a RecordTable, accounts: &'a AccountStore) -> Self {
        GroupExecution {
            table,
            accounts,
            records: BTreeMap::new(),
            balances: BTreeMap::new(),
            reads: 0,
            writes: 0,
        }
    }

    fn record(&self, key: u64) -> Option<&Record> {
        self.records.get(&key).or_else(|| self.table.peek(key))
    }

    fn balance(&self, account: u32) -> i64 {
        self.balances
            .get(&account)
            .copied()
            .unwrap_or_else(|| self.accounts.balance(account))
    }

    fn write(&mut self, key: u64, payload: Vec<u8>) -> u64 {
        self.writes += 1;
        let version = self.record(key).map(|r| r.version + 1).unwrap_or(0);
        self.records.insert(key, Record { payload, version });
        version
    }

    fn execute(&mut self, kind: &TransactionKind) -> ExecutionOutcome {
        match kind {
            TransactionKind::YcsbRead { key } => {
                self.reads += 1;
                match self.record(*key) {
                    Some(record) => ExecutionOutcome::ReadResult {
                        bytes: record.payload.len(),
                        found: true,
                    },
                    None => ExecutionOutcome::ReadResult {
                        bytes: 0,
                        found: false,
                    },
                }
            }
            TransactionKind::YcsbWrite { key, value } => {
                let version = self.write(*key, value.clone());
                ExecutionOutcome::WriteApplied { version }
            }
            TransactionKind::YcsbReadModifyWrite { key, delta } => {
                self.reads += 1;
                let mut payload = self
                    .record(*key)
                    .map(|r| r.payload.clone())
                    .unwrap_or_default();
                payload.extend_from_slice(delta);
                let version = self.write(*key, payload);
                ExecutionOutcome::WriteApplied { version }
            }
            TransactionKind::YcsbScan { start, count } => {
                self.reads += *count as u64;
                // Base records in range, plus overlay-created keys the base
                // does not know. Writers inside the range are necessarily in
                // this group, so the overlay is the only delta to consider.
                let end = start.saturating_add(*count as u64);
                let created = self
                    .records
                    .range(*start..end)
                    .filter(|(key, _)| self.table.peek(**key).is_none())
                    .count();
                ExecutionOutcome::ScanResult {
                    records: self.table.count_range(*start, *count) + created,
                }
            }
            TransactionKind::Transfer {
                from,
                to,
                min_balance,
                amount,
            } => {
                let applied = self.balance(*from) > *min_balance;
                if applied {
                    let debited = self.balance(*from) - amount;
                    self.balances.insert(*from, debited);
                    let credited = self.balance(*to) + amount;
                    self.balances.insert(*to, credited);
                }
                ExecutionOutcome::TransferResult {
                    applied,
                    from_balance: self.balance(*from),
                    to_balance: self.balance(*to),
                }
            }
            TransactionKind::Deposit { account, amount } => {
                let balance = self.balance(*account) + amount;
                self.balances.insert(*account, balance);
                ExecutionOutcome::Balance { balance }
            }
            TransactionKind::BalanceQuery { account } => ExecutionOutcome::Balance {
                balance: self.balance(*account),
            },
            TransactionKind::NoOp => ExecutionOutcome::NoOp,
        }
    }

    fn finish(self, outcomes: Vec<(u32, ClientReply)>) -> GroupResult {
        GroupResult {
            records: self.records,
            balances: self.balances,
            reads: self.reads,
            writes: self.writes,
            outcomes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcc_common::{ClientId, ClientRequest, InstanceId, Transaction};

    fn write_request(client: u64, seq: u64, key: u64) -> ClientRequest {
        ClientRequest::new(
            ClientId(client),
            seq,
            Transaction::new(TransactionKind::YcsbWrite {
                key,
                value: vec![(client + seq) as u8; 16],
            }),
        )
    }

    fn batch_id(instance: u32, round: Round) -> BatchId {
        BatchId {
            instance: InstanceId(instance),
            round,
        }
    }

    /// `batches` batches of `scans` scans of `count` records each, every
    /// scan followed by a write into the range it walked: each pair is its
    /// own conflict group, 100 000 keys from the next.
    fn scan_round(batches: u64, scans: u64, count: u32) -> Vec<(BatchId, Batch)> {
        (0..batches)
            .map(|b| {
                let requests = (0..scans)
                    .flat_map(|s| {
                        let start = (b * scans + s) * 100_000;
                        let scan = TransactionKind::YcsbScan { start, count };
                        [
                            ClientRequest::new(ClientId(b), 2 * s, Transaction::new(scan)),
                            write_request(b, 2 * s + 1, start + 5),
                        ]
                    })
                    .collect();
                (batch_id(b as u32, 0), Batch::new(requests))
            })
            .collect()
    }

    fn point_round() -> Vec<(BatchId, Batch)> {
        (0..4)
            .map(|i| {
                let writes = (0..100).map(|k| write_request(i, k, i * 100 + k)).collect();
                (batch_id(i as u32, 0), Batch::new(writes))
            })
            .collect()
    }

    #[test]
    fn the_work_test_sends_only_scan_heavy_rounds_to_the_pool() {
        // Point accesses: W = n, so no pool width makes fan-out pay.
        assert!(!fan_out_pays(&point_round(), 2));
        assert!(!fan_out_pays(&point_round(), 64));
        // Transfers do two accesses and install both.
        let transfer = ClientRequest::new(ClientId(1), 0, Transaction::transfer(0, 1, 0, 5));
        let transfers = vec![(batch_id(0, 0), Batch::new(vec![transfer; 100]))];
        assert!(!fan_out_pays(&transfers, 8));
        // Scan + write pairs: n = 2, w = 1, W = 2 + count / 256 per pair,
        // so two workers need count / 256 > 4 and eight need > 10 / 7.
        assert!(!fan_out_pays(&scan_round(4, 10, 1_024), 2));
        assert!(fan_out_pays(&scan_round(4, 10, 1_280), 2));
        assert!(!fan_out_pays(&scan_round(4, 10, 256), 8));
        assert!(fan_out_pays(&scan_round(4, 10, 512), 8));
        // A one-worker pool has nobody to share with; neither has an empty
        // round or one of no-op filler.
        assert!(!fan_out_pays(&scan_round(4, 10, 100_000), 1));
        assert!(!fan_out_pays::<Batch>(&[], 8));
        let filler = vec![(batch_id(0, 0), Batch::noop(InstanceId(0), 0))];
        assert!(!fan_out_pays(&filler, 8));
    }

    #[test]
    fn both_sides_of_the_work_test_match_the_sequential_engine() {
        for ordered in [point_round(), scan_round(4, 10, 4_096)] {
            let mut sequential = ExecutionEngine::with_ycsb_table(ReplicaId(0), 1_000, 8);
            let expected = sequential.execute_round(0, &ordered);
            for workers in [1, 2, 4] {
                let pool = WorkerPool::new(workers);
                let mut parallel = ExecutionEngine::with_ycsb_table(ReplicaId(0), 1_000, 8);
                let replies = parallel.execute_round_parallel(0, &ordered, &pool);
                assert_eq!(replies, expected, "{workers} workers");
                assert_eq!(parallel.state_fingerprint(), sequential.state_fingerprint());
                assert_eq!(
                    parallel.table().read_count(),
                    sequential.table().read_count()
                );
                assert_eq!(
                    parallel.table().write_count(),
                    sequential.table().write_count()
                );
                assert_eq!(parallel.summary(), sequential.summary());
                assert_eq!(
                    parallel.ledger().head_digest(),
                    sequential.ledger().head_digest()
                );
            }
        }
    }

    #[test]
    fn identical_ordered_input_produces_identical_state_and_replies() {
        let ordered = vec![
            (
                batch_id(0, 0),
                Batch::new(vec![write_request(1, 0, 10), write_request(2, 0, 11)]),
            ),
            (batch_id(1, 0), Batch::new(vec![write_request(3, 0, 10)])),
        ];
        let mut a = ExecutionEngine::with_ycsb_table(ReplicaId(0), 100, 8);
        let mut b = ExecutionEngine::with_ycsb_table(ReplicaId(1), 100, 8);
        let ra = a.execute_round(0, &ordered);
        let rb = b.execute_round(0, &ordered);
        assert_eq!(a.state_fingerprint(), b.state_fingerprint());
        assert_eq!(a.ledger().head_digest(), b.ledger().head_digest());
        assert_eq!(ra.len(), rb.len());
        for (x, y) in ra.iter().zip(rb.iter()) {
            assert!(x.matches(y), "replies from two replicas must match");
        }
    }

    #[test]
    fn different_order_produces_different_state_when_transactions_conflict() {
        // Two writes to the same key in different orders leave different
        // final payloads.
        let b0 = Batch::new(vec![write_request(1, 0, 5)]);
        let b1 = Batch::new(vec![write_request(2, 0, 5)]);
        let mut x = ExecutionEngine::new(ReplicaId(0));
        let mut y = ExecutionEngine::new(ReplicaId(1));
        x.execute_round(
            0,
            &[(batch_id(0, 0), b0.clone()), (batch_id(1, 0), b1.clone())],
        );
        y.execute_round(0, &[(batch_id(1, 0), b1), (batch_id(0, 0), b0)]);
        assert_ne!(
            x.table().peek(5).unwrap().payload,
            y.table().peek(5).unwrap().payload,
            "conflicting writes applied in different orders must differ"
        );
    }

    #[test]
    fn fig6_ordering_attack_outcomes() {
        // Reproduces the table of Fig. 6: initial balances Alice 800, Bob 300,
        // Eve 100; T1 = transfer(Alice, Bob, 500, 200), T2 = transfer(Bob, Eve, 400, 300).
        let t1 = ClientRequest::new(ClientId(1), 0, Transaction::transfer(0, 1, 500, 200));
        let t2 = ClientRequest::new(ClientId(2), 0, Transaction::transfer(1, 2, 400, 300));
        let balances = [(0, 800), (1, 300), (2, 100)];

        let mut first = ExecutionEngine::with_accounts(ReplicaId(0), &balances);
        first.execute_round(
            0,
            &[
                (batch_id(0, 0), Batch::new(vec![t1.clone()])),
                (batch_id(1, 0), Batch::new(vec![t2.clone()])),
            ],
        );
        assert_eq!(
            (
                first.accounts().balance(0),
                first.accounts().balance(1),
                first.accounts().balance(2)
            ),
            (600, 200, 400),
            "T1 then T2 column of Fig. 6"
        );

        let mut second = ExecutionEngine::with_accounts(ReplicaId(0), &balances);
        second.execute_round(
            0,
            &[
                (batch_id(1, 0), Batch::new(vec![t2])),
                (batch_id(0, 0), Batch::new(vec![t1])),
            ],
        );
        assert_eq!(
            (
                second.accounts().balance(0),
                second.accounts().balance(1),
                second.accounts().balance(2)
            ),
            (600, 500, 100),
            "T2 then T1 column of Fig. 6"
        );
    }

    #[test]
    fn noops_are_not_counted_as_transactions() {
        let mut engine = ExecutionEngine::new(ReplicaId(0));
        let replies = engine.execute_round(0, &[(batch_id(0, 0), Batch::noop(InstanceId(0), 0))]);
        assert!(replies.is_empty(), "no replies for no-op filler");
        assert_eq!(engine.summary().transactions, 0);
        assert_eq!(engine.summary().noops, 1);
        assert_eq!(engine.summary().rounds, 1);
    }

    #[test]
    fn ledger_records_every_round_with_transaction_counts() {
        let mut engine = ExecutionEngine::new(ReplicaId(0));
        for round in 0..3u64 {
            let batch = Batch::new(vec![write_request(1, round, round)]);
            engine.execute_round(round, &[(batch_id(0, round), batch)]);
        }
        assert_eq!(engine.ledger().height(), 3);
        assert_eq!(engine.ledger().total_transactions(), 3);
        engine.ledger().verify().unwrap();
    }

    #[test]
    fn reads_and_scans_report_results() {
        let mut engine = ExecutionEngine::with_ycsb_table(ReplicaId(0), 50, 16);
        let read = ClientRequest::new(
            ClientId(1),
            0,
            Transaction::new(TransactionKind::YcsbRead { key: 7 }),
        );
        let miss = ClientRequest::new(
            ClientId(1),
            1,
            Transaction::new(TransactionKind::YcsbRead { key: 999 }),
        );
        let scan = ClientRequest::new(
            ClientId(1),
            2,
            Transaction::new(TransactionKind::YcsbScan {
                start: 45,
                count: 10,
            }),
        );
        let replies =
            engine.execute_round(0, &[(batch_id(0, 0), Batch::new(vec![read, miss, scan]))]);
        assert_eq!(replies.len(), 3);
        assert_eq!(
            replies[0].outcome,
            ExecutionOutcome::ReadResult {
                bytes: 16,
                found: true
            }
        );
        assert_eq!(
            replies[1].outcome,
            ExecutionOutcome::ReadResult {
                bytes: 0,
                found: false
            }
        );
        assert_eq!(
            replies[2].outcome,
            ExecutionOutcome::ScanResult { records: 5 }
        );
    }
}
