//! What the Section IV order buys, and where it stops: over seeded
//! digests, every instance leads a round about equally often, and a last
//! proposer that grinds its batch leads far more often than that.

use rcc_common::rng::SplitMix64;
use rcc_common::{Batch, BatchId, Digest, InstanceId, Round};
use rcc_core::{ExecutionOrderer, OrderedBatch};

/// A slot of `instance` in `round` whose certified digest is drawn from
/// `rng`.
fn random_slot(instance: u32, round: Round, rng: &mut SplitMix64) -> OrderedBatch {
    let mut bytes = [0u8; 32];
    for chunk in bytes.chunks_mut(8) {
        chunk.copy_from_slice(&rng.next_u64().to_be_bytes());
    }
    OrderedBatch {
        id: BatchId {
            instance: InstanceId(instance),
            round,
        },
        digest: Digest::from_bytes(bytes),
        batch: Batch::noop(InstanceId(instance), round),
        speculative: false,
        view: 0,
    }
}

/// Records `slots` and returns the instance whose batch the released round
/// executes first.
fn release_first(orderer: &mut ExecutionOrderer, slots: Vec<OrderedBatch>) -> InstanceId {
    for slot in slots {
        orderer.record(slot);
    }
    let released = orderer.release_ready();
    assert_eq!(released.len(), 1, "each round releases once complete");
    released[0].batches[0].id.instance
}

#[test]
fn each_instance_is_first_in_a_fair_share_of_rounds() {
    // `h = digest(S) mod (4! − 1)` never reaches the last of the 24
    // lexicographic permutations, so instances 0–2 lead 6 of the 23
    // reachable ones and instance 3 leads 5: shares 0.261 and 0.217.
    const ROUNDS: u64 = 4_096;
    let mut rng = SplitMix64::new(0x5ec7_1017);
    let mut orderer = ExecutionOrderer::new(4);
    let mut first = [0u64; 4];
    for round in 0..ROUNDS {
        let slots = (0..4).map(|i| random_slot(i, round, &mut rng)).collect();
        first[release_first(&mut orderer, slots).index()] += 1;
    }
    for (instance, &count) in first.iter().enumerate() {
        let share = count as f64 / ROUNDS as f64;
        assert!(
            (0.20..=0.30).contains(&share),
            "instance {instance} is first in {share:.3} of rounds"
        );
    }
}

#[test]
fn a_grinding_last_proposer_wins_first_place() {
    // Instance 0 proposes last: it sees the other three certified digests
    // (every replica takes part in every instance) and picks, among `g`
    // candidate batches, one whose round puts it first. A candidate wins
    // with probability 6/23, so `g` tries win with probability
    // 1 − (17/23)^g. Nothing bounds `g` but time: one try costs one batch
    // digest.
    const ROUNDS: u64 = 2_048;
    let mut rng = SplitMix64::new(0x9a1d_0044);
    for g in [1u32, 4, 16] {
        let mut orderer = ExecutionOrderer::new(4);
        let mut won = 0u64;
        for round in 0..ROUNDS {
            let others: Vec<OrderedBatch> =
                (1..4).map(|i| random_slot(i, round, &mut rng)).collect();
            let candidates: Vec<OrderedBatch> =
                (0..g).map(|_| random_slot(0, round, &mut rng)).collect();
            // The attacker runs the public release on a copy of the orderer.
            let wins = |candidate: &OrderedBatch| {
                let mut slots = others.clone();
                slots.push(candidate.clone());
                release_first(&mut orderer.clone(), slots) == InstanceId(0)
            };
            let chosen = candidates
                .iter()
                .find(|c| wins(c))
                .unwrap_or(&candidates[0]);
            let mut slots = others;
            slots.push(chosen.clone());
            if release_first(&mut orderer, slots) == InstanceId(0) {
                won += 1;
            }
        }
        let share = won as f64 / ROUNDS as f64;
        let expected = 1.0 - (17.0f64 / 23.0).powi(g as i32);
        assert!(
            (share - expected).abs() <= 0.04,
            "g = {g}: first in {share:.3} of rounds, expected {expected:.3}"
        );
    }
}
