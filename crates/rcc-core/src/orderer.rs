//! The deterministic round-based execution orderer.
//!
//! Step 2 of the RCC paradigm (Section III-B): after the `m` concurrent
//! instances accept their proposals for round `ρ`, every replica executes the
//! `m` accepted batches in a deterministic order. This module implements the
//! bookkeeping: commits arrive per `(instance, round)` in arbitrary order
//! (instances run independently and BCAs commit out of order), are buffered,
//! and a round is *released* only once all `m` instances have contributed
//! their slot.
//!
//! The orderer also exposes the per-instance *lag*: how far an instance's
//! first missing round trails the most advanced committed round across all
//! instances. The replica layer compares this against the lag bound `σ` to
//! drive failure handling (Sections III-E and IV).
//!
//! # Unpredictable cross-instance ordering (Section IV)
//!
//! A fixed within-round order, such as instance-id order, tells the
//! coordinator of one instance *in advance* where its batch will land inside
//! every round, so it can front-run the other instances' transactions
//! (Example IV.1). A released round's batches therefore execute in the
//! `h`-th permutation of the `m` batches, where `h = digest(S) mod (m! − 1)`
//! and `S` is the sequence of the round's certified batch digests: a value
//! no coordinator can predict before the whole round is fixed, yet every
//! replica computes identically.
//!
//! `h` is unpredictable only to a coordinator that must commit to its batch
//! before it sees the others'. The last proposer of a round sees the other
//! `m − 1` certified digests first and can grind: try candidate batches
//! until `h` places its own first (`tests/section_iv_order.rs` measures it).

use rcc_common::rng::SplitMix64;
use rcc_common::{Batch, BatchId, Digest, InstanceId, Round, View};
use rcc_crypto::hash::digest_sequence;

/// A batch accepted by one instance in one round, as buffered and released by
/// the orderer.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct OrderedBatch {
    /// Which instance and round accepted the batch.
    pub id: BatchId,
    /// The digest certified by the instance's commit quorum.
    pub digest: Digest,
    /// The batch payload.
    pub batch: Batch,
    /// `true` when the acceptance was speculative (a BCA's single-round
    /// fast path).
    pub speculative: bool,
    /// The view the slot committed in.
    pub view: View,
}

/// One fully released round: the `m` accepted batches in execution order.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ReleasedRound {
    /// The round released.
    pub round: Round,
    /// The round's batches in the Section IV permutation of the round's
    /// certified digests.
    pub batches: Vec<OrderedBatch>,
}

/// Buffers per-instance commits and releases rounds in order once complete.
#[derive(Clone, Debug)]
pub struct ExecutionOrderer {
    m: usize,
    next_round: Round,
    pending:
        std::collections::BTreeMap<Round, std::collections::BTreeMap<InstanceId, OrderedBatch>>,
    max_committed: Option<Round>,
    /// Running count of buffered slots across `pending` (kept so
    /// [`ExecutionOrderer::pending_entries`] is O(1) — it is sampled after
    /// every simulation event).
    pending_count: u64,
}

impl ExecutionOrderer {
    /// Creates an orderer for `m` concurrent instances.
    pub fn new(m: usize) -> Self {
        assert!(m > 0, "an RCC deployment needs at least one instance");
        ExecutionOrderer {
            m,
            next_round: 0,
            pending: std::collections::BTreeMap::new(),
            max_committed: None,
            pending_count: 0,
        }
    }

    /// Number of concurrent instances.
    pub fn instances(&self) -> usize {
        self.m
    }

    /// The next round awaiting release (all rounds below have been
    /// released).
    pub fn next_round(&self) -> Round {
        self.next_round
    }

    /// The highest round any instance has a recorded commit for, if any.
    pub fn max_committed_round(&self) -> Option<Round> {
        self.max_committed
    }

    /// Records a committed slot. Returns `true` when the slot was newly
    /// recorded, `false` when it duplicates an already recorded or already
    /// released slot (duplicates arrive when state sync races the instance's
    /// own commit).
    pub fn record(&mut self, slot: OrderedBatch) -> bool {
        assert!(slot.id.instance.index() < self.m, "instance out of range");
        let round = slot.id.round;
        if round < self.next_round {
            return false;
        }
        let per_round = self.pending.entry(round).or_default();
        if per_round.contains_key(&slot.id.instance) {
            return false;
        }
        per_round.insert(slot.id.instance, slot);
        self.pending_count += 1;
        self.max_committed = Some(self.max_committed.map_or(round, |m| m.max(round)));
        true
    }

    /// Releases every complete round starting at [`ExecutionOrderer::next_round`],
    /// in round order, each with its batches in the Section IV permutation.
    pub fn release_ready(&mut self) -> Vec<ReleasedRound> {
        let mut released = Vec::new();
        while self
            .pending
            .get(&self.next_round)
            .map(|r| r.len())
            .unwrap_or(0)
            == self.m
        {
            let per_round = self
                .pending
                .remove(&self.next_round)
                .expect("checked above");
            self.pending_count -= per_round.len() as u64;
            // BTreeMap iteration yields instance-id order, the permutation's
            // input.
            let mut batches: Vec<OrderedBatch> = per_round.into_values().collect();
            permute_round(&mut batches);
            released.push(ReleasedRound {
                round: self.next_round,
                batches,
            });
            self.next_round += 1;
        }
        released
    }

    /// Fast-forwards the release frontier to `round` on the strength of an
    /// adopted stable checkpoint: every round below it is covered by the
    /// checkpoint's certified state, so buffered commits below it are
    /// dropped and will never be released locally. No-op when `round` is not
    /// ahead of the frontier.
    pub fn fast_forward(&mut self, round: Round) {
        if round <= self.next_round {
            return;
        }
        self.next_round = round;
        self.pending = self.pending.split_off(&round);
        self.pending_count = self.pending.values().map(|r| r.len() as u64).sum();
        // The checkpoint proves the deployment committed everything below
        // `round`; reflect that in the frontier so lag accounting does not
        // restart from scratch.
        let covered = round - 1;
        self.max_committed = Some(self.max_committed.map_or(covered, |m| m.max(covered)));
    }

    /// Total buffered (recorded but not yet released) slots across all
    /// rounds — the orderer's contribution to the replica's retained log.
    pub fn pending_entries(&self) -> u64 {
        self.pending_count
    }

    /// The first round at or above the release frontier for which `instance`
    /// has no recorded commit — the slot the execution order needs from it
    /// next.
    pub fn needed_round(&self, instance: InstanceId) -> Round {
        let mut round = self.next_round;
        while self
            .pending
            .get(&round)
            .map(|r| r.contains_key(&instance))
            .unwrap_or(false)
        {
            round += 1;
        }
        round
    }

    /// How far `instance`'s first missing round trails the most advanced
    /// committed round across all instances (0 when the instance is at the
    /// frontier). The replica layer compares this against the lag bound `σ`.
    pub fn lag(&self, instance: InstanceId) -> u64 {
        match self.max_committed {
            Some(max) => (max + 1).saturating_sub(self.needed_round(instance)),
            None => 0,
        }
    }

    /// `true` when `instance` has a recorded (not yet released) commit for
    /// `round`.
    pub fn has_pending(&self, instance: InstanceId, round: Round) -> bool {
        self.pending
            .get(&round)
            .map(|r| r.contains_key(&instance))
            .unwrap_or(false)
    }
}

/// Applies the Section IV unpredictable permutation to one round's batches
/// (given in instance-id order).
///
/// The permutation index is `h = digest(S) mod (k! − 1)` — the paper's
/// formula — over the sequence `S` of the round's certified batch digests,
/// decoded as the `h`-th permutation in lexicographic (Lehmer) order. `h`
/// depends on *every* instance's certified digest, so no single coordinator
/// can predict its batch's position before the whole round is fixed, yet the
/// result is a pure function of agreed values and identical on every
/// replica. `k!` fits a `u128` up to `k = 34`; wider deployments fall back
/// to a Fisher–Yates shuffle driven by a digest-seeded [`SplitMix64`] stream
/// (the same agreed-input purity, without the factorial).
fn permute_round(batches: &mut Vec<OrderedBatch>) {
    let k = batches.len();
    if k < 2 {
        return;
    }
    let digests: Vec<Digest> = batches.iter().map(|b| b.digest).collect();
    let seed = digest_sequence(&digests);
    match factorial_u128(k) {
        Some(fact) => {
            // The paper's modulus is k! − 1, which merely makes the
            // lexicographically-last permutation unreachable — except at
            // k = 2, where it degenerates to 1 and would pin every round to
            // the identity order, silently disabling the protection for
            // two-instance deployments. Use the full k! there instead.
            let modulus = if k == 2 { fact } else { fact - 1 };
            let h = seed.as_u128() % modulus;
            let order = lehmer_order(k, h);
            let mut taken: Vec<Option<OrderedBatch>> = batches.drain(..).map(Some).collect();
            batches.extend(
                order
                    .into_iter()
                    .map(|i| taken[i].take().expect("each source index used once")),
            );
        }
        None => {
            let mut rng = SplitMix64::new(seed.as_u64());
            for i in (1..k).rev() {
                let j = rng.next_below(i as u64 + 1) as usize;
                batches.swap(i, j);
            }
        }
    }
}

/// `k!` when it fits a `u128` (`k ≤ 34`).
fn factorial_u128(k: usize) -> Option<u128> {
    let mut fact: u128 = 1;
    for i in 2..=(k as u128) {
        fact = fact.checked_mul(i)?;
    }
    Some(fact)
}

/// The `h`-th permutation of `0..k` in lexicographic order (Lehmer
/// decoding): position by position, `h` selects which of the remaining
/// source indices comes next.
fn lehmer_order(k: usize, mut h: u128) -> Vec<usize> {
    let mut remaining: Vec<usize> = (0..k).collect();
    let mut order = Vec::with_capacity(k);
    for placed in 0..k {
        let fact = factorial_u128(k - 1 - placed).expect("k! fits, so (k-1)! does too");
        let idx = ((h / fact) as usize).min(remaining.len() - 1);
        h %= fact;
        order.push(remaining.remove(idx));
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    fn slot(instance: u32, round: Round, tag: u8) -> OrderedBatch {
        OrderedBatch {
            id: BatchId {
                instance: InstanceId(instance),
                round,
            },
            digest: Digest::from_bytes([tag; 32]),
            batch: Batch::noop(InstanceId(instance), round),
            speculative: false,
            view: 0,
        }
    }

    #[test]
    fn rounds_release_only_when_all_instances_committed() {
        let mut orderer = ExecutionOrderer::new(3);
        assert!(orderer.record(slot(0, 0, 1)));
        assert!(orderer.record(slot(2, 0, 2)));
        assert!(
            orderer.release_ready().is_empty(),
            "instance 1 still missing"
        );
        assert!(orderer.record(slot(1, 0, 3)));
        let released = orderer.release_ready();
        assert_eq!(released.len(), 1);
        assert_eq!(released[0].round, 0);
        let mut instances: Vec<u32> = released[0]
            .batches
            .iter()
            .map(|b| b.id.instance.0)
            .collect();
        instances.sort_unstable();
        assert_eq!(instances, vec![0, 1, 2], "one batch per instance");
    }

    #[test]
    fn out_of_round_order_commits_are_buffered() {
        let mut orderer = ExecutionOrderer::new(2);
        // Both instances commit round 1 before round 0 (out-of-order BCAs).
        orderer.record(slot(0, 1, 1));
        orderer.record(slot(1, 1, 2));
        assert!(
            orderer.release_ready().is_empty(),
            "round 0 must release first"
        );
        orderer.record(slot(0, 0, 3));
        orderer.record(slot(1, 0, 4));
        let released = orderer.release_ready();
        assert_eq!(released.len(), 2);
        assert_eq!(released[0].round, 0);
        assert_eq!(released[1].round, 1);
    }

    #[test]
    fn duplicates_and_released_rounds_are_rejected() {
        let mut orderer = ExecutionOrderer::new(1);
        assert!(orderer.record(slot(0, 0, 1)));
        assert!(
            !orderer.record(slot(0, 0, 9)),
            "duplicate (instance, round)"
        );
        orderer.release_ready();
        assert!(!orderer.record(slot(0, 0, 9)), "round already released");
        assert_eq!(orderer.next_round(), 1);
    }

    #[test]
    fn lag_tracks_distance_to_frontier() {
        let mut orderer = ExecutionOrderer::new(2);
        assert_eq!(orderer.lag(InstanceId(0)), 0, "no commits, no lag");
        for round in 0..5 {
            orderer.record(slot(0, round, round as u8));
        }
        assert_eq!(orderer.max_committed_round(), Some(4));
        assert_eq!(orderer.needed_round(InstanceId(1)), 0);
        assert_eq!(orderer.lag(InstanceId(1)), 5);
        assert_eq!(orderer.lag(InstanceId(0)), 0, "instance 0 is the frontier");
        orderer.record(slot(1, 0, 9));
        orderer.release_ready();
        assert_eq!(orderer.lag(InstanceId(1)), 4);
    }

    #[test]
    fn fast_forward_skips_to_the_checkpoint_round() {
        let mut orderer = ExecutionOrderer::new(2);
        orderer.record(slot(0, 0, 1));
        orderer.record(slot(0, 12, 2));
        orderer.fast_forward(10);
        assert_eq!(orderer.next_round(), 10);
        assert!(
            !orderer.has_pending(InstanceId(0), 0),
            "buffered commits below the checkpoint are dropped"
        );
        assert!(orderer.has_pending(InstanceId(0), 12), "later ones survive");
        assert_eq!(orderer.max_committed_round(), Some(12));
        assert_eq!(
            orderer.lag(InstanceId(1)),
            3,
            "lag restarts at the frontier"
        );
        // Not ahead of the frontier: a no-op.
        orderer.fast_forward(5);
        assert_eq!(orderer.next_round(), 10);
    }

    #[test]
    fn pending_entries_counts_buffered_slots() {
        let mut orderer = ExecutionOrderer::new(2);
        assert_eq!(orderer.pending_entries(), 0);
        orderer.record(slot(0, 0, 1));
        orderer.record(slot(0, 1, 2));
        orderer.record(slot(1, 0, 3));
        assert_eq!(orderer.pending_entries(), 3);
        orderer.release_ready();
        assert_eq!(orderer.pending_entries(), 1);
    }

    #[test]
    fn lehmer_orders_are_permutations_in_lexicographic_order() {
        assert_eq!(lehmer_order(3, 0), vec![0, 1, 2]);
        assert_eq!(lehmer_order(3, 1), vec![0, 2, 1]);
        assert_eq!(lehmer_order(3, 5), vec![2, 1, 0]);
        for h in 0..24u128 {
            let mut order = lehmer_order(4, h);
            order.sort_unstable();
            assert_eq!(order, vec![0, 1, 2, 3], "h = {h} is a permutation");
        }
    }

    #[test]
    fn two_instance_deployments_are_permuted_too() {
        // The paper's `mod (k! − 1)` degenerates to modulus 1 at k = 2,
        // which would pin every two-instance round to the identity order;
        // the implementation must still reach both orders.
        let mut orderer = ExecutionOrderer::new(2);
        let mut swapped = 0;
        for round in 0..32 {
            for instance in 0..2 {
                orderer.record(slot(instance, round, (round * 2 + instance as u64) as u8));
            }
            for released in orderer.release_ready() {
                if released.batches[0].id.instance != InstanceId(0) {
                    swapped += 1;
                }
            }
        }
        assert!(
            swapped > 0,
            "32 rounds of distinct digests must swap a two-instance round"
        );
    }

    #[test]
    fn rounds_are_permuted_identically_and_completely() {
        let release_all = || -> Vec<ReleasedRound> {
            let mut orderer = ExecutionOrderer::new(4);
            let mut out = Vec::new();
            for round in 0..16 {
                for instance in 0..4 {
                    orderer.record(slot(instance, round, (round * 4 + instance as u64) as u8));
                }
                out.extend(orderer.release_ready());
            }
            out
        };
        let a = release_all();
        assert_eq!(
            a,
            release_all(),
            "the permutation is a pure function of the digests"
        );
        let mut permuted_rounds = 0;
        for released in &a {
            let order: Vec<BatchId> = released.batches.iter().map(|s| s.id).collect();
            let mut sorted = order.clone();
            sorted.sort_unstable();
            if order != sorted {
                permuted_rounds += 1;
            }
            // Same batches per round…
            let expected: Vec<BatchId> = (0..4)
                .map(|i| BatchId {
                    instance: InstanceId(i),
                    round: released.round,
                })
                .collect();
            assert_eq!(
                sorted, expected,
                "round {} is a permutation",
                released.round
            );
        }
        // …but not always in instance-id order.
        assert!(
            permuted_rounds > 0,
            "16 rounds of distinct digests must hit a non-identity permutation"
        );
    }

    #[test]
    fn needed_round_skips_recorded_rounds() {
        let mut orderer = ExecutionOrderer::new(2);
        orderer.record(slot(0, 0, 1));
        orderer.record(slot(0, 2, 2));
        // Round 1 missing: needed is 1 even though round 2 is recorded.
        assert_eq!(orderer.needed_round(InstanceId(0)), 1);
        assert!(orderer.has_pending(InstanceId(0), 2));
        assert!(!orderer.has_pending(InstanceId(0), 1));
    }
}
