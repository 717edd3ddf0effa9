//! Read/write-set conflict analysis for parallel round execution.
//!
//! RCC's deterministic order only constrains *conflicting* transactions
//! (Section III-A): two transactions that touch disjoint state commute, so a
//! released round may execute its non-conflicting transactions concurrently
//! as long as conflicting ones keep their agreed order. This module extracts
//! per-transaction access sets from [`TransactionKind`], builds the round's
//! conflict graph, and partitions it into independent groups:
//!
//! * two transactions **conflict** when they access the same key and at
//!   least one of them writes it (read/write or write/write);
//! * conflicting transactions land in the same group, transitively;
//! * within a group, transactions keep their global round order — the
//!   agreed order of the batches they arrived in;
//! * groups are disjoint by construction, so they may execute in any
//!   interleaving and merge in any order without changing the result.
//!
//! Scans read a whole key *range*; they conflict with any write landing in
//! that range, but scans never conflict with each other (read/read).

use rcc_common::TransactionKind;

/// A state key a transaction can touch: a YCSB record or a bank account.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum AccessKey {
    /// A record of the YCSB table.
    Record(u64),
    /// A bank account.
    Account(u32),
}

/// The state footprint of one transaction.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AccessSet {
    /// Keys the transaction reads.
    pub reads: Vec<AccessKey>,
    /// Keys the transaction writes (or may write — a conditional transfer
    /// is treated as a write to both accounts regardless of whether the
    /// balance condition will hold, because whether it holds depends on the
    /// order).
    pub writes: Vec<AccessKey>,
    /// Record ranges `[start, end)` the transaction scans (reads).
    pub scans: Vec<(u64, u64)>,
}

impl AccessSet {
    /// `true` when the transaction touches no state at all (no-ops).
    pub fn is_empty(&self) -> bool {
        self.reads.is_empty() && self.writes.is_empty() && self.scans.is_empty()
    }
}

/// Extracts the access set of one transaction kind.
pub fn access_set(kind: &TransactionKind) -> AccessSet {
    let mut set = AccessSet::default();
    match kind {
        TransactionKind::YcsbRead { key } => set.reads.push(AccessKey::Record(*key)),
        TransactionKind::YcsbWrite { key, .. } => set.writes.push(AccessKey::Record(*key)),
        TransactionKind::YcsbReadModifyWrite { key, .. } => {
            set.reads.push(AccessKey::Record(*key));
            set.writes.push(AccessKey::Record(*key));
        }
        TransactionKind::YcsbScan { start, count } => set
            .scans
            .push((*start, start.saturating_add(*count as u64))),
        TransactionKind::Transfer { from, to, .. } => {
            // The balance condition is a read of `from`; both balances are
            // conditionally written *and* reported in the outcome.
            set.reads.push(AccessKey::Account(*from));
            set.reads.push(AccessKey::Account(*to));
            set.writes.push(AccessKey::Account(*from));
            set.writes.push(AccessKey::Account(*to));
        }
        TransactionKind::Deposit { account, .. } => {
            set.reads.push(AccessKey::Account(*account));
            set.writes.push(AccessKey::Account(*account));
        }
        TransactionKind::BalanceQuery { account } => {
            set.reads.push(AccessKey::Account(*account));
        }
        TransactionKind::NoOp => {}
    }
    set
}

/// Union-find over transaction indices.
struct Groups {
    parent: Vec<usize>,
}

impl Groups {
    fn new(len: usize) -> Self {
        Groups {
            parent: (0..len).collect(),
        }
    }

    fn find(&mut self, i: usize) -> usize {
        let mut root = i;
        while self.parent[root] != root {
            root = self.parent[root];
        }
        // Path compression.
        let mut walk = i;
        while self.parent[walk] != root {
            let next = self.parent[walk];
            self.parent[walk] = root;
            walk = next;
        }
        root
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            // Anchor on the smaller root so group identity is the smallest
            // member index — deterministic regardless of union order.
            let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
            self.parent[hi] = lo;
        }
    }
}

/// Partitions a round's transactions into independent conflict groups.
///
/// Input: one [`AccessSet`] per transaction, **in the round's deterministic
/// execution order** (the released order of the batches, request order within
/// each batch). Output: groups of transaction indices; each group's members
/// are ascending (preserving that execution order), and groups are sorted by
/// their smallest member. Transactions in different groups touch provably
/// disjoint *written* state and never read anything another group writes.
pub fn conflict_groups(sets: &[AccessSet]) -> Vec<Vec<usize>> {
    use std::collections::BTreeMap;
    let mut groups = Groups::new(sets.len());
    // Key → (first writer seen, first reader seen). Chaining every later
    // toucher to the first is enough: union is transitive.
    let mut writers: BTreeMap<AccessKey, usize> = BTreeMap::new();
    let mut readers: BTreeMap<AccessKey, Vec<usize>> = BTreeMap::new();
    for (i, set) in sets.iter().enumerate() {
        for key in &set.writes {
            match writers.get(key) {
                Some(&w) => groups.union(i, w),
                None => {
                    writers.insert(*key, i);
                    // Earlier readers of a key now being written conflict
                    // with the writer (they must observe pre-write state).
                    if let Some(early) = readers.get(key) {
                        for &r in early {
                            groups.union(i, r);
                        }
                    }
                }
            }
        }
        for key in &set.reads {
            match writers.get(key) {
                Some(&w) => groups.union(i, w),
                None => readers.entry(*key).or_default().push(i),
            }
        }
    }
    // Scans conflict with any write of a record inside their range. Written
    // record keys are few per round (bounded by the round's batch sizes), so
    // a range query over the writer map suffices.
    for (i, set) in sets.iter().enumerate() {
        for &(start, end) in &set.scans {
            let range = AccessKey::Record(start)..AccessKey::Record(end);
            // Collect first: `groups.union` needs `&mut`.
            let hits: Vec<usize> = writers.range(range).map(|(_, &w)| w).collect();
            for w in hits {
                groups.union(i, w);
            }
        }
    }
    let mut by_root: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for i in 0..sets.len() {
        let root = groups.find(i);
        by_root.entry(root).or_default().push(i);
    }
    // BTreeMap iteration gives groups by smallest member; pushes above give
    // ascending members within each group.
    by_root.into_values().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read(key: u64) -> AccessSet {
        access_set(&TransactionKind::YcsbRead { key })
    }

    fn write(key: u64) -> AccessSet {
        access_set(&TransactionKind::YcsbWrite {
            key,
            value: vec![1],
        })
    }

    #[test]
    fn extraction_covers_every_transaction_kind() {
        assert_eq!(read(5).reads, vec![AccessKey::Record(5)]);
        assert!(read(5).writes.is_empty());
        assert_eq!(write(9).writes, vec![AccessKey::Record(9)]);
        assert!(write(9).reads.is_empty());

        let rmw = access_set(&TransactionKind::YcsbReadModifyWrite {
            key: 3,
            delta: vec![2],
        });
        assert_eq!(rmw.reads, vec![AccessKey::Record(3)]);
        assert_eq!(rmw.writes, vec![AccessKey::Record(3)]);

        let scan = access_set(&TransactionKind::YcsbScan {
            start: 10,
            count: 5,
        });
        assert_eq!(scan.scans, vec![(10, 15)]);
        assert!(scan.reads.is_empty() && scan.writes.is_empty());

        let transfer = access_set(&TransactionKind::Transfer {
            from: 1,
            to: 2,
            min_balance: 0,
            amount: 10,
        });
        assert_eq!(
            transfer.writes,
            vec![AccessKey::Account(1), AccessKey::Account(2)]
        );
        assert_eq!(
            transfer.reads,
            vec![AccessKey::Account(1), AccessKey::Account(2)]
        );

        let deposit = access_set(&TransactionKind::Deposit {
            account: 7,
            amount: 1,
        });
        assert_eq!(deposit.writes, vec![AccessKey::Account(7)]);

        let query = access_set(&TransactionKind::BalanceQuery { account: 7 });
        assert_eq!(query.reads, vec![AccessKey::Account(7)]);
        assert!(query.writes.is_empty());

        assert!(access_set(&TransactionKind::NoOp).is_empty());
    }

    #[test]
    fn records_and_accounts_never_collide() {
        // Record 7 and account 7 are different keys: no conflict.
        let sets = vec![
            write(7),
            access_set(&TransactionKind::Deposit {
                account: 7,
                amount: 1,
            }),
        ];
        assert_eq!(conflict_groups(&sets), vec![vec![0], vec![1]]);
    }

    #[test]
    fn disjoint_groups_never_share_a_written_key() {
        let sets = vec![write(1), write(2), read(1), write(3), read(2), read(9)];
        let groups = conflict_groups(&sets);
        assert_eq!(groups, vec![vec![0, 2], vec![1, 4], vec![3], vec![5]]);
        // Cross-check the invariant mechanically: no written key appears in
        // two groups, and no group reads another group's written key.
        for (gi, group) in groups.iter().enumerate() {
            for (gj, other) in groups.iter().enumerate() {
                if gi == gj {
                    continue;
                }
                for &a in group {
                    for &b in other {
                        for w in &sets[a].writes {
                            assert!(!sets[b].writes.contains(w), "shared write {w:?}");
                            assert!(!sets[b].reads.contains(w), "cross-group read {w:?}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn transitive_conflicts_land_in_one_group() {
        // 0 writes k1; 1 reads k1 and writes k2; 2 reads k2 — all chained.
        let mut t1 = read(1);
        t1.writes.push(AccessKey::Record(2));
        let sets = vec![write(1), t1, read(2)];
        assert_eq!(conflict_groups(&sets), vec![vec![0, 1, 2]]);
    }

    #[test]
    fn read_only_transactions_on_the_same_key_stay_parallel() {
        let sets = vec![read(4), read(4), read(4)];
        assert_eq!(conflict_groups(&sets), vec![vec![0], vec![1], vec![2]]);
    }

    #[test]
    fn a_later_writer_captures_earlier_readers() {
        // Readers of k before any writer appeared must still join the
        // writer's group: they are ordered *before* the write.
        let sets = vec![read(4), read(4), write(4)];
        assert_eq!(conflict_groups(&sets), vec![vec![0, 1, 2]]);
    }

    #[test]
    fn scans_conflict_with_writes_in_range_only() {
        let scan = access_set(&TransactionKind::YcsbScan {
            start: 10,
            count: 10,
        });
        // Writes at 15 (inside) and 20 (outside — range end is exclusive).
        let sets = vec![scan.clone(), write(15), write(20), scan];
        let groups = conflict_groups(&sets);
        assert_eq!(groups, vec![vec![0, 1, 3], vec![2]]);
    }

    #[test]
    fn regression_intra_group_order_is_the_deterministic_round_order() {
        // The round order (the released order of batches) is the index
        // order of the input sets; a group must preserve it even when the
        // conflict edges are discovered "backwards" (last write first seen
        // via union with earlier indices).
        let sets = vec![write(1), write(2), write(1), write(2), write(1)];
        let groups = conflict_groups(&sets);
        assert_eq!(groups, vec![vec![0, 2, 4], vec![1, 3]]);
        for group in groups {
            assert!(
                group.windows(2).all(|w| w[0] < w[1]),
                "group members must stay in ascending round order"
            );
        }
    }
}
