//! Client transactions and client requests.
//!
//! The paper evaluates RCC on a YCSB workload (Blockbench macro benchmark):
//! a table of half a million records in which 90 % of the transactions write
//! or modify records. Section IV additionally motivates the ordering-attack
//! discussion with financial `transfer` transactions. Both kinds — plus the
//! `no-op` requests primaries propose when they have nothing to do — are
//! represented here.

use crate::ids::{ClientId, InstanceId};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A key in the YCSB-style record table.
pub type RecordKey = u64;

/// An account name in the bank workload used to illustrate ordering attacks.
pub type AccountId = u32;

/// The operation a transaction performs when executed.
#[derive(Clone, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum TransactionKind {
    /// Read the record stored under `key`.
    YcsbRead {
        /// The record key to read.
        key: RecordKey,
    },
    /// Overwrite the record stored under `key` with `value`.
    YcsbWrite {
        /// The record key to write.
        key: RecordKey,
        /// The new field payload of the record.
        value: Vec<u8>,
    },
    /// Read the record under `key`, append `delta` to its payload, and write
    /// it back (a read-modify-write).
    YcsbReadModifyWrite {
        /// The record key to update.
        key: RecordKey,
        /// Bytes appended to the record payload.
        delta: Vec<u8>,
    },
    /// Scan `count` consecutive records starting at `start`.
    YcsbScan {
        /// First key of the scan.
        start: RecordKey,
        /// Number of consecutive keys read.
        count: u32,
    },
    /// The conditional transfer of Example IV.1 of the paper:
    /// `if amount(from) > min_balance then withdraw(from, amount); deposit(to, amount)`.
    Transfer {
        /// Account withdrawn from.
        from: AccountId,
        /// Account deposited to.
        to: AccountId,
        /// Minimum balance `from` must exceed for the transfer to happen.
        min_balance: i64,
        /// Amount moved when the condition holds.
        amount: i64,
    },
    /// Deposit `amount` into `account` unconditionally (used to set up bank
    /// scenarios).
    Deposit {
        /// Account credited.
        account: AccountId,
        /// Amount credited.
        amount: i64,
    },
    /// Read the balance of `account`.
    BalanceQuery {
        /// Account queried.
        account: AccountId,
    },
    /// The small no-op request a primary proposes when it has no client
    /// transactions but other instances are proposing for the round
    /// (Section III-E of the paper).
    NoOp,
}

impl TransactionKind {
    /// `true` when execution of the transaction may modify state.
    pub fn is_write(&self) -> bool {
        matches!(
            self,
            TransactionKind::YcsbWrite { .. }
                | TransactionKind::YcsbReadModifyWrite { .. }
                | TransactionKind::Transfer { .. }
                | TransactionKind::Deposit { .. }
        )
    }

    /// `true` for the no-op filler request.
    pub fn is_noop(&self) -> bool {
        matches!(self, TransactionKind::NoOp)
    }

    /// An estimate of the serialized size of the operation in bytes, used for
    /// wire-size accounting. Individual client transactions in the paper's
    /// workload are 512 B; YCSB payloads are sized accordingly by the
    /// workload generator, and the estimate here covers the framing.
    pub fn payload_size(&self) -> usize {
        match self {
            TransactionKind::YcsbRead { .. } => 16,
            TransactionKind::YcsbWrite { value, .. } => 16 + value.len(),
            TransactionKind::YcsbReadModifyWrite { delta, .. } => 16 + delta.len(),
            TransactionKind::YcsbScan { .. } => 20,
            TransactionKind::Transfer { .. } => 32,
            TransactionKind::Deposit { .. } => 20,
            TransactionKind::BalanceQuery { .. } => 12,
            TransactionKind::NoOp => 1,
        }
    }
}

/// A transaction: an operation together with bookkeeping identity.
#[derive(Clone, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub struct Transaction {
    /// The operation performed when the transaction executes.
    pub kind: TransactionKind,
}

impl Transaction {
    /// Creates a transaction from its operation.
    pub fn new(kind: TransactionKind) -> Self {
        Transaction { kind }
    }

    /// Convenience constructor for the no-op request.
    pub fn noop() -> Self {
        Transaction {
            kind: TransactionKind::NoOp,
        }
    }

    /// Convenience constructor for the conditional transfer of Example IV.1.
    pub fn transfer(from: AccountId, to: AccountId, min_balance: i64, amount: i64) -> Self {
        Transaction {
            kind: TransactionKind::Transfer {
                from,
                to,
                min_balance,
                amount,
            },
        }
    }

    /// Estimated serialized size of the transaction in bytes.
    pub fn payload_size(&self) -> usize {
        self.kind.payload_size()
    }
}

/// Uniquely identifies a client request: the requesting client plus that
/// client's monotonically increasing request sequence number.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct RequestId {
    /// Client that issued the request.
    pub client: ClientId,
    /// Per-client sequence number, starting at 0.
    pub sequence: u64,
}

impl fmt::Debug for RequestId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}#{}", self.client, self.sequence)
    }
}

impl fmt::Display for RequestId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// A client request `⟨T⟩_c`: a transaction `T` requested by a client `c`.
///
/// Authentication of the request (the client signature) is handled by
/// `rcc-crypto`; the request itself only records the identity needed for
/// routing and duplicate suppression.
#[derive(Clone, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub struct ClientRequest {
    /// Identity of the request (client plus per-client sequence number).
    pub id: RequestId,
    /// The requested transaction.
    pub transaction: Transaction,
    /// The consensus instance the client is currently assigned to; `None`
    /// before the assignment policy of Section III-E has routed the request.
    pub assigned_instance: Option<InstanceId>,
}

impl ClientRequest {
    /// Creates a new client request.
    pub fn new(client: ClientId, sequence: u64, transaction: Transaction) -> Self {
        ClientRequest {
            id: RequestId { client, sequence },
            transaction,
            assigned_instance: None,
        }
    }

    /// Creates a no-op request attributed to the "system" pseudo-client of an
    /// instance. No-ops are proposed by a primary when it has no client
    /// transactions available but must participate in a round.
    pub fn noop(instance: InstanceId, round: u64) -> Self {
        ClientRequest {
            id: RequestId {
                client: ClientId(u64::MAX - instance.0 as u64),
                sequence: round,
            },
            transaction: Transaction::noop(),
            assigned_instance: Some(instance),
        }
    }

    /// `true` when this is a no-op filler request.
    pub fn is_noop(&self) -> bool {
        self.transaction.kind.is_noop()
    }

    /// Estimated serialized size of the request in bytes (identity framing
    /// plus transaction payload).
    pub fn wire_size(&self) -> usize {
        24 + self.transaction.payload_size()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_classification() {
        assert!(TransactionKind::YcsbWrite {
            key: 1,
            value: vec![0; 8]
        }
        .is_write());
        assert!(TransactionKind::Transfer {
            from: 0,
            to: 1,
            min_balance: 5,
            amount: 3
        }
        .is_write());
        assert!(!TransactionKind::YcsbRead { key: 1 }.is_write());
        assert!(!TransactionKind::NoOp.is_write());
        assert!(TransactionKind::NoOp.is_noop());
    }

    #[test]
    fn payload_size_tracks_value_length() {
        let small = TransactionKind::YcsbWrite {
            key: 1,
            value: vec![0; 10],
        };
        let large = TransactionKind::YcsbWrite {
            key: 1,
            value: vec![0; 500],
        };
        assert!(large.payload_size() > small.payload_size());
        assert_eq!(large.payload_size() - small.payload_size(), 490);
    }

    #[test]
    fn noop_requests_are_attributed_to_instance_pseudo_clients() {
        let a = ClientRequest::noop(InstanceId(0), 7);
        let b = ClientRequest::noop(InstanceId(1), 7);
        assert!(a.is_noop() && b.is_noop());
        assert_ne!(a.id, b.id, "no-ops of different instances must not collide");
        assert_eq!(a.assigned_instance, Some(InstanceId(0)));
    }

    #[test]
    fn request_ids_order_by_client_then_sequence() {
        let a = RequestId {
            client: ClientId(1),
            sequence: 5,
        };
        let b = RequestId {
            client: ClientId(1),
            sequence: 6,
        };
        let c = RequestId {
            client: ClientId(2),
            sequence: 0,
        };
        assert!(a < b && b < c);
        assert_eq!(a.to_string(), "C1#5");
    }
}
