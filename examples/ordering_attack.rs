//! The ordering attack of Section IV (Example IV.1 / Fig. 6), and how RCC's
//! agreed, unpredictable cross-instance order answers it.
//!
//! Two conditional transfers — T1 = transfer(Alice → Bob, if > 500, 200) and
//! T2 = transfer(Bob → Eve, if > 400, 300) — produce different final
//! balances depending on execution order. A malicious single primary can
//! pick whichever order benefits it. This example first shows the divergent
//! outcomes, then runs both transactions through an RCC cluster: every
//! replica executes the round in the Section-IV permutation
//! `h = digest(S) mod (m! − 1)` of the round's certified digests, so the
//! order is identical on every replica, yet unknowable to any coordinator
//! before the whole round is fixed.
//!
//! Run with: `cargo run --example ordering_attack`

use rcc::common::{Batch, ClientId, ClientRequest, ReplicaId, SystemConfig, Transaction};
use rcc::core::RccReplica;
use rcc::execution::ExecutionEngine;
use rcc::protocols::harness::Cluster;

const ALICE: u32 = 0;
const BOB: u32 = 1;
const EVE: u32 = 2;

fn t1() -> ClientRequest {
    ClientRequest::new(ClientId(1), 0, Transaction::transfer(ALICE, BOB, 500, 200))
}

fn t2() -> ClientRequest {
    ClientRequest::new(ClientId(2), 0, Transaction::transfer(BOB, EVE, 400, 300))
}

fn balances(engine: &ExecutionEngine) -> (i64, i64, i64) {
    (
        engine.accounts().balance(ALICE),
        engine.accounts().balance(BOB),
        engine.accounts().balance(EVE),
    )
}

fn main() {
    let initial = [(ALICE, 800i64), (BOB, 300), (EVE, 100)];
    println!("initial balances: Alice 800, Bob 300, Eve 100 (Fig. 6)\n");

    // A single malicious primary can choose either order.
    use rcc::common::{BatchId, InstanceId};
    let id = |i: u32| BatchId {
        instance: InstanceId(i),
        round: 0,
    };
    let mut first = ExecutionEngine::with_accounts(ReplicaId(0), &initial);
    first.execute_round(
        0,
        &[
            (id(0), Batch::new(vec![t1()])),
            (id(1), Batch::new(vec![t2()])),
        ],
    );
    let mut second = ExecutionEngine::with_accounts(ReplicaId(0), &initial);
    second.execute_round(
        0,
        &[
            (id(1), Batch::new(vec![t2()])),
            (id(0), Batch::new(vec![t1()])),
        ],
    );
    println!("T1 before T2 → Alice/Bob/Eve = {:?}", balances(&first));
    println!("T2 before T1 → Alice/Bob/Eve = {:?}", balances(&second));
    assert_ne!(
        balances(&first),
        balances(&second),
        "order changes the outcome"
    );

    // Under RCC, T1 and T2 go through different concurrent instances and
    // every replica applies the round's agreed permutation.
    let n = 4;
    let config = SystemConfig::new(n);
    let mut cluster = Cluster::new(
        (0..n as u32)
            .map(|r| RccReplica::over_pbft(config.clone(), ReplicaId(r)))
            .collect(),
    );
    cluster.propose(ReplicaId(0), Batch::new(vec![t1()]));
    cluster.propose(ReplicaId(1), Batch::new(vec![t2()]));
    // Instances 2 and 3 have no client load this round and contribute no-op
    // filler so the round can release (Section III-E).
    cluster.propose(ReplicaId(2), Batch::noop(InstanceId(2), 0));
    cluster.propose(ReplicaId(3), Batch::noop(InstanceId(3), 0));
    cluster.run_to_quiescence();

    let mut orders = Vec::new();
    let mut outcomes = Vec::new();
    for r in 0..n as u32 {
        let mut engine = ExecutionEngine::with_accounts(ReplicaId(r), &initial);
        let mut order = Vec::new();
        for released in cluster.node(ReplicaId(r)).execution_log() {
            let ordered: Vec<_> = released
                .batches
                .iter()
                .map(|b| (b.id, b.batch.clone()))
                .collect();
            order.extend(ordered.iter().map(|(id, _)| id.instance.0));
            engine.execute_round(released.round, &ordered);
        }
        orders.push(order);
        outcomes.push(balances(&engine));
    }
    assert!(
        orders.windows(2).all(|w| w[0] == w[1]),
        "replicas must agree on the order"
    );
    assert!(
        outcomes.windows(2).all(|w| w[0] == w[1]),
        "replicas must agree on the balances"
    );
    println!(
        "\n§IV permutation → round 0 executes instances {:?} on every replica",
        orders[0]
    );
    println!("RCC replicas all applied that order → {:?}", outcomes[0]);
    println!("OK: no replica-side divergence under the §IV permutation.");
}
