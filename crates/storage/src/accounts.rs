//! Bank-account state used by the ordering-attack illustration.
//!
//! Example IV.1 of the paper uses conditional `transfer` transactions over
//! accounts (Alice, Bob, Eve) to show that the execution order chosen by a
//! malicious primary changes outcomes. This module stores the balances those
//! transactions operate on.

use std::collections::BTreeMap;

/// A simple account/balance store.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AccountStore {
    balances: BTreeMap<u32, i64>,
}

impl AccountStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        AccountStore::default()
    }

    /// Creates a store with the given initial balances.
    pub fn with_balances(balances: &[(u32, i64)]) -> Self {
        AccountStore {
            balances: balances.iter().copied().collect(),
        }
    }

    /// The balance of `account` (0 when the account has never been used).
    pub fn balance(&self, account: u32) -> i64 {
        self.balances.get(&account).copied().unwrap_or(0)
    }

    /// Unconditionally credits `amount` to `account`.
    pub fn deposit(&mut self, account: u32, amount: i64) {
        *self.balances.entry(account).or_insert(0) += amount;
    }

    /// Unconditionally debits `amount` from `account`.
    pub fn withdraw(&mut self, account: u32, amount: i64) {
        *self.balances.entry(account).or_insert(0) -= amount;
    }

    /// The conditional transfer of Example IV.1:
    /// `if amount(from) > min_balance then withdraw(from, amount); deposit(to, amount)`.
    /// Returns `true` when the transfer happened.
    pub fn transfer(&mut self, from: u32, to: u32, min_balance: i64, amount: i64) -> bool {
        if self.balance(from) > min_balance {
            self.withdraw(from, amount);
            self.deposit(to, amount);
            true
        } else {
            false
        }
    }

    /// Number of accounts with a recorded balance.
    pub fn len(&self) -> usize {
        self.balances.len()
    }

    /// `true` when no account has a recorded balance.
    pub fn is_empty(&self) -> bool {
        self.balances.is_empty()
    }

    /// Order-independent fingerprint of all balances, used in state
    /// comparison across replicas.
    pub fn fingerprint(&self) -> u64 {
        self.balances
            .iter()
            .fold(0u64, |acc, (&account, &balance)| {
                let mut x = (account as u64)
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add((balance as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F));
                x ^= x >> 29;
                acc ^ x.wrapping_mul(0x1656_67B1_9E37_79F9)
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The exact scenario of Fig. 6 of the paper.
    fn fig6_initial() -> AccountStore {
        // Alice = 0, Bob = 1, Eve = 2.
        AccountStore::with_balances(&[(0, 800), (1, 300), (2, 100)])
    }

    #[test]
    fn fig6_order_t1_then_t2() {
        let mut s = fig6_initial();
        // T1 = transfer(Alice, Bob, 500, 200); T2 = transfer(Bob, Eve, 400, 300).
        assert!(s.transfer(0, 1, 500, 200));
        assert!(s.transfer(1, 2, 400, 300));
        assert_eq!((s.balance(0), s.balance(1), s.balance(2)), (600, 200, 400));
    }

    #[test]
    fn fig6_order_t2_then_t1() {
        let mut s = fig6_initial();
        assert!(
            !s.transfer(1, 2, 400, 300),
            "Bob has only 300 > 400 is false: no transfer"
        );
        assert!(s.transfer(0, 1, 500, 200));
        assert_eq!((s.balance(0), s.balance(1), s.balance(2)), (600, 500, 100));
    }

    #[test]
    fn conditional_transfer_requires_strictly_greater_balance() {
        let mut s = AccountStore::with_balances(&[(0, 100)]);
        assert!(!s.transfer(0, 1, 100, 10), "condition is strict >");
        assert!(s.transfer(0, 1, 99, 10));
        assert_eq!(s.balance(0), 90);
        assert_eq!(s.balance(1), 10);
    }

    #[test]
    fn fingerprint_reflects_balances_not_access_order() {
        let mut a = AccountStore::new();
        let mut b = AccountStore::new();
        a.deposit(1, 10);
        a.deposit(2, 20);
        b.deposit(2, 20);
        b.deposit(1, 10);
        assert_eq!(a.fingerprint(), b.fingerprint());
        b.deposit(1, 1);
        assert_ne!(a.fingerprint(), b.fingerprint());
    }
}
