//! The deterministic execution engine.
//!
//! [`ExecutionEngine::execute_round`] is the one executor: it appends the
//! released round's block to the ledger and applies every transaction in
//! place, batches in the agreed (§IV-permuted) order they were released in
//! and requests in batch order (§III-A/B), on the calling thread. The results — state fingerprints,
//! ledger, summary and replies — are pinned by
//! `crates/execution/tests/known_answers.rs`.

use crate::reply::{ClientReply, ExecutionOutcome};
use rcc_common::{Batch, BatchId, ReplicaId, Round, TransactionKind, WorkerPool};
use rcc_crypto::hash::digest_batch;
use rcc_storage::ledger::BlockEntry;
use rcc_storage::{AccountStore, Ledger, RecordTable};
use std::borrow::Borrow;

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

    fn execute_kind(&mut self, kind: TransactionKind<&[u8]>) -> ExecutionOutcome {
        match kind {
            TransactionKind::YcsbRead { key } => match self.table.read(key) {
                Some(record) => ExecutionOutcome::ReadResult {
                    bytes: record.payload.len(),
                    found: true,
                },
                None => ExecutionOutcome::ReadResult {
                    bytes: 0,
                    found: false,
                },
            },
            TransactionKind::YcsbWrite { key, value } => ExecutionOutcome::WriteApplied {
                version: self.table.write(key, value),
            },
            TransactionKind::YcsbReadModifyWrite { key, delta } => ExecutionOutcome::WriteApplied {
                version: self.table.read_modify_write(key, delta),
            },
            TransactionKind::YcsbScan { start, count } => {
                let records = self.table.scan(start, count);
                ExecutionOutcome::ScanResult { records }
            }
            TransactionKind::Transfer {
                from,
                to,
                min_balance,
                amount,
            } => {
                let applied = self.accounts.transfer(from, to, min_balance, amount);
                ExecutionOutcome::TransferResult {
                    applied,
                    from_balance: self.accounts.balance(from),
                    to_balance: self.accounts.balance(to),
                }
            }
            TransactionKind::Deposit { account, amount } => {
                self.accounts.deposit(account, amount);
                ExecutionOutcome::Balance {
                    balance: self.accounts.balance(account),
                }
            }
            TransactionKind::BalanceQuery { account } => ExecutionOutcome::Balance {
                balance: self.accounts.balance(account),
            },
            TransactionKind::NoOp => ExecutionOutcome::NoOp,
        }
    }

    /// Executes one ordered round: a block recording the given `(batch id,
    /// batch)` pairs is appended to the ledger, the batches are executed in
    /// place in the order provided, and one reply per client request is
    /// returned. Batches may be owned or borrowed (`B` is `Batch` or
    /// `&Batch`); each request is read in place from its batch's bytes.
    ///
    /// The `round` is the RCC round (or the baseline's sequence number); the
    /// caller is responsible for having agreed on the order (Section III-B
    /// step 2 / the Section IV permutation).
    pub fn execute_round<B: Borrow<Batch>>(
        &mut self,
        round: Round,
        ordered: &[(BatchId, B)],
    ) -> Vec<ClientReply> {
        let entries: Vec<BlockEntry> = ordered
            .iter()
            .map(|(id, batch)| BlockEntry {
                batch: *id,
                digest: digest_batch(batch.borrow()),
                transactions: batch.borrow().effective_transactions(),
            })
            .collect();
        // One reply per transaction that is not a no-op.
        let mut replies = Vec::with_capacity(entries.iter().map(|e| e.transactions).sum());
        let block_digest = self.ledger.append(round, entries).digest;
        let mut position: u32 = 0;
        for (_, batch) in ordered {
            self.summary.batches += 1;
            for request in batch.borrow().views() {
                if request.is_noop() {
                    self.summary.noops += 1;
                    continue;
                }
                let outcome = self.execute_kind(request.kind);
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

    /// The name the benchmark's `round_par2_*` micro loops and shadow trace
    /// still call (`benchmark/src/{micro,shadow}.rs`): a forward to
    /// [`ExecutionEngine::execute_round`] that ignores `pool`. The
    /// benchmark-only PR that retires those loops deletes it.
    pub fn execute_round_parallel<B: Borrow<Batch>>(
        &mut self,
        round: Round,
        ordered: &[(BatchId, B)],
        _pool: &WorkerPool,
    ) -> Vec<ClientReply> {
        self.execute_round(round, ordered)
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
