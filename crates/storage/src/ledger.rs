//! The blockchain ledger (journal).
//!
//! "In ResilientDB, each replica maintains a blockchain ledger (a journal)
//! that holds an ordered copy of all executed transactions. The ledger not
//! only stores all transactions, but also proofs of their acceptance by a
//! consensus protocol." (Section V-B.) Each block here records one executed
//! RCC round (or one committed slot of a baseline protocol): the identities
//! and digests of the accepted batches, the execution order that was applied,
//! and the digest of the parent block, forming an immutable hash chain.

use rcc_common::{BatchId, Digest, Error, Result, Round};
use rcc_crypto::hash::{digest_bytes, digest_chain};
use serde::{Deserialize, Serialize};

/// One accepted batch recorded inside a block.
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct BlockEntry {
    /// The instance/round that accepted the batch.
    pub batch: BatchId,
    /// The digest certified by the commit quorum.
    pub digest: Digest,
    /// Number of client transactions in the batch.
    pub transactions: usize,
}

/// One block of the ledger: the outcome of executing one consensus round.
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct Block {
    /// Height of the block in the chain (genesis = 0 is implicit and empty).
    pub height: u64,
    /// The RCC round (or baseline sequence number) this block executes.
    pub round: Round,
    /// Digest of the previous block.
    pub parent: Digest,
    /// The accepted batches, in the order they were executed.
    pub entries: Vec<BlockEntry>,
    /// Digest of this block (over parent and entries).
    pub digest: Digest,
}

fn block_digest(height: u64, round: Round, parent: &Digest, entries: &[BlockEntry]) -> Digest {
    let mut bytes = Vec::with_capacity(48 + entries.len() * 56);
    bytes.extend_from_slice(&height.to_be_bytes());
    bytes.extend_from_slice(&round.to_be_bytes());
    for entry in entries {
        bytes.extend_from_slice(&entry.batch.instance.0.to_be_bytes());
        bytes.extend_from_slice(&entry.batch.round.to_be_bytes());
        bytes.extend_from_slice(entry.digest.as_bytes());
        bytes.extend_from_slice(&(entry.transactions as u64).to_be_bytes());
    }
    digest_chain(parent, &digest_bytes(&bytes))
}

impl Block {
    /// Digest over the block's round and ordered entries **without** the
    /// chain position (height and parent). Two replicas that executed the
    /// same round with the same ordered entries produce the same content
    /// digest even when their ledgers start at different rounds — e.g. a
    /// replica that rejoined from a checkpoint mid-history — which is what
    /// cross-replica ledger comparison needs.
    pub fn content_digest(&self) -> Digest {
        block_digest(0, self.round, &Digest::ZERO, &self.entries)
    }
}

/// An append-only hash-chained ledger.
#[derive(Clone, Debug, Default)]
pub struct Ledger {
    blocks: Vec<Block>,
}

impl Ledger {
    /// Creates an empty ledger.
    pub fn new() -> Self {
        Ledger::default()
    }

    /// Number of blocks in the ledger.
    pub fn height(&self) -> u64 {
        self.blocks.len() as u64
    }

    /// Digest of the latest block, or the zero digest for an empty ledger.
    pub fn head_digest(&self) -> Digest {
        self.blocks.last().map(|b| b.digest).unwrap_or(Digest::ZERO)
    }

    /// Appends a block executing `round` with the given ordered entries.
    pub fn append(&mut self, round: Round, entries: Vec<BlockEntry>) -> &Block {
        let height = self.height();
        let parent = self.head_digest();
        let digest = block_digest(height, round, &parent, &entries);
        self.blocks.push(Block {
            height,
            round,
            parent,
            entries,
            digest,
        });
        self.blocks.last().expect("just pushed")
    }

    /// The block at `height`, if present.
    pub fn block(&self, height: u64) -> Option<&Block> {
        self.blocks.get(height as usize)
    }

    /// Iterator over all blocks in order.
    pub fn blocks(&self) -> impl Iterator<Item = &Block> {
        self.blocks.iter()
    }

    /// Total number of client transactions recorded in the ledger.
    pub fn total_transactions(&self) -> u64 {
        self.blocks
            .iter()
            .flat_map(|b| b.entries.iter())
            .map(|e| e.transactions as u64)
            .sum()
    }

    /// Verifies the hash chain and per-block digests, returning an error at
    /// the first inconsistency. An attacker that tampers with any block
    /// breaks every later digest, which is the immutability argument of the
    /// paper.
    pub fn verify(&self) -> Result<()> {
        let mut parent = Digest::ZERO;
        for (i, block) in self.blocks.iter().enumerate() {
            if block.height != i as u64 {
                return Err(Error::LedgerMismatch(format!(
                    "block at position {i} claims height {}",
                    block.height
                )));
            }
            if block.parent != parent {
                return Err(Error::LedgerMismatch(format!(
                    "block {i} parent digest mismatch"
                )));
            }
            let expected = block_digest(block.height, block.round, &block.parent, &block.entries);
            if expected != block.digest {
                return Err(Error::LedgerMismatch(format!("block {i} digest mismatch")));
            }
            parent = block.digest;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcc_common::InstanceId;

    fn entry(instance: u32, round: Round, txns: usize) -> BlockEntry {
        BlockEntry {
            batch: BatchId {
                instance: InstanceId(instance),
                round,
            },
            digest: digest_bytes(&[instance as u8, round as u8]),
            transactions: txns,
        }
    }

    /// The journal is the one per-batch state a node never prunes, so these
    /// two sizes are the floor of `mem_kb_per_ktxn` (ROADMAP, carried debt):
    /// a round of `m` batches keeps `104 + 56 m` bytes per node.
    #[test]
    fn a_block_keeps_104_bytes_and_56_per_batch() {
        assert_eq!(std::mem::size_of::<Block>(), 104);
        assert_eq!(std::mem::size_of::<BlockEntry>(), 56);
    }

    #[test]
    fn appended_blocks_chain_and_verify() {
        let mut ledger = Ledger::new();
        ledger.append(0, vec![entry(0, 0, 100), entry(1, 0, 100)]);
        ledger.append(1, vec![entry(0, 1, 100)]);
        assert_eq!(ledger.height(), 2);
        assert_eq!(ledger.total_transactions(), 300);
        ledger.verify().expect("untampered ledger verifies");
        assert_eq!(
            ledger.block(1).unwrap().parent,
            ledger.block(0).unwrap().digest
        );
    }

    #[test]
    fn tampering_with_an_entry_is_detected() {
        let mut ledger = Ledger::new();
        ledger.append(0, vec![entry(0, 0, 100)]);
        ledger.append(1, vec![entry(0, 1, 100)]);
        // Tamper with the first block's entry count.
        ledger.blocks[0].entries[0].transactions = 1;
        assert!(ledger.verify().is_err());
    }

    #[test]
    fn tampering_with_the_chain_is_detected() {
        let mut ledger = Ledger::new();
        ledger.append(0, vec![entry(0, 0, 100)]);
        ledger.append(1, vec![entry(0, 1, 100)]);
        ledger.blocks[1].parent = Digest::ZERO;
        assert!(ledger.verify().is_err());
    }

    #[test]
    fn identical_histories_produce_identical_heads() {
        let mut a = Ledger::new();
        let mut b = Ledger::new();
        for round in 0..5 {
            a.append(round, vec![entry(0, round, 10), entry(1, round, 10)]);
            b.append(round, vec![entry(0, round, 10), entry(1, round, 10)]);
        }
        assert_eq!(a.head_digest(), b.head_digest());
    }

    #[test]
    fn different_entry_order_produces_different_heads() {
        let mut a = Ledger::new();
        let mut b = Ledger::new();
        a.append(0, vec![entry(0, 0, 10), entry(1, 0, 10)]);
        b.append(0, vec![entry(1, 0, 10), entry(0, 0, 10)]);
        assert_ne!(a.head_digest(), b.head_digest());
    }

    #[test]
    fn empty_ledger_verifies() {
        assert!(Ledger::new().verify().is_ok());
        assert_eq!(Ledger::new().head_digest(), Digest::ZERO);
    }
}
