//! The output check every run ends with. A run whose outputs are wrong has
//! no performance worth reporting, so any violation turns into a non-zero
//! exit.
//!
//! Two kinds of finding are kept apart. A *wrong output* is the program's:
//! replicas that disagree, a frame that does not verify, a reply nobody asked
//! for. A *disturbance* is a fault-free run in which the protocol's failure
//! handling fired all the same or a batch went unanswered — which on this
//! sandbox is what a host that freezes the guest for longer than a timeout
//! looks like from inside (stopping the process for 0.6 s in mid-run
//! reproduces it exactly: every replica suspects, views change, the sessions
//! keep submitting to coordinators that no longer coordinate). Such a run
//! measured the host, so `main.rs` measures again; only when the repeats are
//! disturbed too does it count as a violation.

use crate::driver::Driven;
use rcc_network::{verify_identical_ledgers, verify_identical_orders, NodeReport};

/// Everything wrong with the outputs of a finished run; empty when they are
/// correct.
///
/// * all replicas released identical orders and executed identical ledgers
///   (`verify_identical_orders`, `verify_identical_ledgers`);
/// * no replica counted an authentication or decode failure;
/// * every frame the clients received decoded and verified, every reply
///   named the digest (`digest_batch`) of a batch this run submitted, and
///   no client socket died;
/// * at least one batch was confirmed.
pub fn wrong_outputs(driven: &Driven, reports: &[NodeReport]) -> Vec<String> {
    let mut found = Vec::new();
    if let Err(divergence) = verify_identical_orders(reports) {
        found.push(format!("orders: {divergence}"));
    }
    if let Err(divergence) = verify_identical_ledgers(reports) {
        found.push(format!("ledgers: {divergence}"));
    }
    for report in reports {
        for (what, count) in [
            ("authentication failures", report.auth_failures),
            ("decode failures", report.decode_failures),
        ] {
            if count > 0 {
                found.push(format!("{}: {count} {what}", report.replica));
            }
        }
    }
    let foreign: u64 = driven.sessions.iter().map(|s| s.foreign_replies).sum();
    if foreign > 0 {
        found.push(format!(
            "{foreign} replies named a digest this run never submitted"
        ));
    }
    if driven.bad_frames > 0 {
        found.push(format!(
            "{} client frames failed to decode or verify",
            driven.bad_frames
        ));
    }
    if driven.dead_links > 0 {
        found.push(format!("{} client sockets died", driven.dead_links));
    }
    if driven.completions().next().is_none() {
        found.push("no batch was confirmed".to_string());
    }
    found
}

/// Signs that a fault-free run did not stay fault-free: a replica suspected
/// a primary or changed view, or batches failed (`failed` of them). The
/// workloads inject no fault, so none of this should ever happen.
pub fn disturbances(reports: &[NodeReport], failed: u64) -> Vec<String> {
    let mut found = Vec::new();
    for report in reports {
        for (what, count) in [
            ("suspicions", report.suspicions),
            ("view changes", report.view_changes),
        ] {
            if count > 0 {
                found.push(format!("{}: {count} {what}", report.replica));
            }
        }
    }
    if failed > 0 {
        found.push(format!("{failed} batches failed"));
    }
    found
}
