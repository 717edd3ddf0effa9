//! The YCSB-style record table.
//!
//! The paper's workload queries "a YCSB table with half a million active
//! records" where 90 % of transactions write. The table here is an in-memory
//! map from numeric keys to byte payloads with an incrementally maintained
//! state fingerprint so that replicas can cheaply compare their state during
//! checkpoints and tests can assert replica convergence.

use rcc_common::Digest;
use std::collections::BTreeMap;

/// One record of the table.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Record {
    /// The record payload (YCSB field bytes).
    pub payload: Vec<u8>,
    /// Number of times the record has been written.
    pub version: u64,
}

/// An in-memory record table with an incrementally maintained state
/// fingerprint.
#[derive(Clone, Debug, Default)]
pub struct RecordTable {
    records: BTreeMap<u64, Record>,
    writes: u64,
    reads: u64,
    fingerprint: u64,
}

fn mix(key: u64, version: u64, payload: &[u8]) -> u64 {
    // A fast 64-bit mixing function (splitmix64-style) over the record
    // identity; incremental XOR-composition over records keeps the
    // fingerprint order-independent and updatable in O(1) per write.
    let mut x = key
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(version.wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .wrapping_add(
            payload
                .iter()
                .fold(0u64, |acc, &b| acc.wrapping_mul(131).wrapping_add(b as u64)),
        );
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl RecordTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        RecordTable::default()
    }

    /// Creates a table pre-populated with `records` keys (`0..records`), each
    /// holding a payload of `payload_size` bytes derived from the key. This
    /// mirrors the experiment setup: "prior to the experiments, each replica
    /// is initialized with an identical copy of the YCSB table".
    pub fn initialize(records: u64, payload_size: usize) -> Self {
        let mut table = RecordTable::new();
        for key in 0..records {
            let byte = (key % 251) as u8;
            table.write(key, vec![byte; payload_size]);
        }
        // Initialization is not part of the measured workload.
        table.writes = 0;
        table.reads = 0;
        table
    }

    /// Number of records currently stored.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// `true` when the table holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Reads the record stored under `key`.
    pub fn read(&mut self, key: u64) -> Option<&Record> {
        self.reads += 1;
        self.records.get(&key)
    }

    /// Reads without updating access statistics (state inspection).
    pub fn peek(&self, key: u64) -> Option<&Record> {
        self.records.get(&key)
    }

    /// Writes `payload` under `key`, replacing any previous record.
    pub fn write(&mut self, key: u64, payload: Vec<u8>) {
        self.writes += 1;
        let version = self.records.get(&key).map(|r| r.version + 1).unwrap_or(0);
        if let Some(old) = self.records.get(&key) {
            self.fingerprint ^= mix(key, old.version, &old.payload);
        }
        self.fingerprint ^= mix(key, version, &payload);
        self.records.insert(key, Record { payload, version });
    }

    /// Appends `delta` to the record under `key` (creating it when missing)
    /// and returns the new length — the read-modify-write operation of YCSB.
    pub fn read_modify_write(&mut self, key: u64, delta: &[u8]) -> usize {
        self.reads += 1;
        let mut payload = self
            .records
            .get(&key)
            .map(|r| r.payload.clone())
            .unwrap_or_default();
        payload.extend_from_slice(delta);
        let len = payload.len();
        self.write(key, payload);
        len
    }

    /// Scans `count` consecutive keys starting at `start`, returning the
    /// number of existing records touched.
    pub fn scan(&mut self, start: u64, count: u32) -> usize {
        self.reads += count as u64;
        self.records
            .range(start..start.saturating_add(count as u64))
            .count()
    }

    /// Number of write operations applied (excluding initialization).
    pub fn write_count(&self) -> u64 {
        self.writes
    }

    /// Number of read operations served (excluding initialization).
    pub fn read_count(&self) -> u64 {
        self.reads
    }

    /// The incrementally maintained state fingerprint. Two replicas that
    /// applied the same writes in the same order have the same fingerprint.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Estimated size in bytes of a serialized snapshot of the table (what a
    /// checkpoint transfer would ship to a rejoining replica): per record,
    /// an 8-byte key, an 8-byte version, and the payload.
    pub fn snapshot_bytes(&self) -> u64 {
        self.records
            .values()
            .map(|r| 16 + r.payload.len() as u64)
            .sum()
    }

    /// A digest form of the fingerprint, convenient for embedding in
    /// checkpoint messages.
    pub fn state_digest(&self) -> Digest {
        let mut bytes = [0u8; 32];
        bytes[..8].copy_from_slice(&self.fingerprint.to_be_bytes());
        bytes[8..16].copy_from_slice(&(self.records.len() as u64).to_be_bytes());
        Digest::from_bytes(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initialize_creates_identical_tables() {
        let a = RecordTable::initialize(1000, 64);
        let b = RecordTable::initialize(1000, 64);
        assert_eq!(a.len(), 1000);
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.state_digest(), b.state_digest());
        assert_eq!(a.write_count(), 0, "initialization is not counted");
    }

    #[test]
    fn writes_change_the_fingerprint_reads_do_not() {
        let mut t = RecordTable::initialize(100, 8);
        let before = t.fingerprint();
        t.read(5);
        t.scan(0, 10);
        assert_eq!(t.fingerprint(), before);
        t.write(5, vec![1, 2, 3]);
        assert_ne!(t.fingerprint(), before);
    }

    #[test]
    fn same_writes_same_fingerprint() {
        let mut a = RecordTable::initialize(100, 8);
        let mut b = RecordTable::initialize(100, 8);
        a.write(1, vec![9]);
        a.write(2, vec![8]);
        b.write(1, vec![9]);
        b.write(2, vec![8]);
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn divergent_writes_diverge_fingerprint() {
        let mut a = RecordTable::initialize(100, 8);
        let mut b = RecordTable::initialize(100, 8);
        a.write(1, vec![9]);
        b.write(1, vec![7]);
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn read_modify_write_appends() {
        let mut t = RecordTable::new();
        t.write(1, vec![1, 2]);
        let len = t.read_modify_write(1, &[3, 4, 5]);
        assert_eq!(len, 5);
        assert_eq!(t.peek(1).unwrap().payload, vec![1, 2, 3, 4, 5]);
        assert_eq!(t.peek(1).unwrap().version, 1);
    }

    #[test]
    fn scan_counts_existing_records() {
        let mut t = RecordTable::initialize(50, 4);
        assert_eq!(t.scan(40, 20), 10);
        assert_eq!(t.scan(0, 5), 5);
    }

    #[test]
    fn versions_increment_per_key() {
        let mut t = RecordTable::new();
        t.write(7, vec![0]);
        t.write(7, vec![1]);
        t.write(7, vec![2]);
        assert_eq!(t.peek(7).unwrap().version, 2);
    }
}
