//! The YCSB-style record table.
//!
//! The paper's workload queries "a YCSB table with half a million active
//! records" where 90 % of transactions write. The table here is an in-memory
//! map from numeric keys to byte payloads with an incrementally maintained
//! state fingerprint so that replicas can cheaply compare their state during
//! checkpoints and tests can assert replica convergence.
//!
//! A write is one hash and one probe: [`RecordTable::write`] and
//! [`RecordTable::read_modify_write`] update the record in place through
//! `HashMap::entry` and return the version they wrote. A payload of up to
//! [`Payload::INLINE`] bytes (a YCSB value is 8) lives inline in the
//! record, so such a write allocates nothing; a longer one is a `Vec`.
//!
//! The map is std's `HashMap` with its default `RandomState`, whose keys
//! differ per process. That is safe here because no result reads the map's
//! order: the fingerprint is an XOR of per-record terms, [`RecordTable::scan`]
//! returns a count, and every other operation goes by key. The keyed hasher
//! is what keeps client-chosen keys from colliding on purpose.

use std::collections::hash_map::Entry;
use std::fmt;
use std::ops::Deref;

/// A record payload: short payloads inline, longer ones on the heap. It
/// derefs to the payload bytes, whichever form holds them.
#[derive(Clone)]
pub enum Payload {
    /// Up to [`Payload::INLINE`] bytes, the first `len` of `bytes`.
    Inline {
        /// Number of payload bytes.
        len: u8,
        /// The bytes; only the first `len` are payload.
        bytes: [u8; Payload::INLINE],
    },
    /// More than [`Payload::INLINE`] bytes.
    Heap(Vec<u8>),
}

impl Payload {
    /// The longest payload kept inline: the length byte and the bytes fit
    /// in the 16 bytes of a `Vec` beside its capacity, whose spare values
    /// the compiler uses as the tag, so a `Payload` is no larger than a
    /// `Vec`.
    pub const INLINE: usize = 15;

    /// Replaces the payload with `new`, reusing a heap buffer when `new`
    /// still needs one.
    fn set(&mut self, new: &[u8]) {
        match self {
            Payload::Heap(vec) if new.len() > Payload::INLINE => {
                vec.clear();
                vec.extend_from_slice(new);
            }
            _ if new.len() > Payload::INLINE => *self = Payload::Heap(new.to_vec()),
            _ => {
                *self = Payload::default();
                self.extend(new);
            }
        }
    }

    /// Appends `delta`, moving the payload to the heap once it outgrows
    /// the inline capacity.
    fn extend(&mut self, delta: &[u8]) {
        match self {
            Payload::Inline { len, bytes } if *len as usize + delta.len() <= Payload::INLINE => {
                let start = *len as usize;
                bytes[start..start + delta.len()].copy_from_slice(delta);
                *len += delta.len() as u8;
            }
            Payload::Inline { .. } => {
                let mut vec = Vec::with_capacity(self.len() + delta.len());
                vec.extend_from_slice(self);
                vec.extend_from_slice(delta);
                *self = Payload::Heap(vec);
            }
            Payload::Heap(vec) => vec.extend_from_slice(delta),
        }
    }
}

impl Default for Payload {
    fn default() -> Self {
        Payload::Inline {
            len: 0,
            bytes: [0; Payload::INLINE],
        }
    }
}

impl Deref for Payload {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        match self {
            Payload::Inline { len, bytes } => &bytes[..*len as usize],
            Payload::Heap(vec) => vec,
        }
    }
}

impl PartialEq for Payload {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for Payload {}

impl fmt::Debug for Payload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

/// One record of the table.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Record {
    /// The record payload (YCSB field bytes).
    pub payload: Payload,
    /// Number of times the record has been written.
    pub version: u64,
}

/// An in-memory record table with an incrementally maintained state
/// fingerprint.
#[derive(Clone, Default)]
pub struct RecordTable {
    #[expect(
        clippy::disallowed_types,
        reason = "iteration order never reaches state, replies or messages: the fingerprint is an XOR, scan is a count, the rest goes by key"
    )]
    records: std::collections::HashMap<u64, Record>,
    writes: u64,
    reads: u64,
    fingerprint: u64,
}

/// Prints the counts and the fingerprint, not the records, so that no output
/// of the table depends on the hasher's per-process keys.
impl fmt::Debug for RecordTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RecordTable")
            .field("len", &self.len())
            .field("writes", &self.writes)
            .field("reads", &self.reads)
            .field("fingerprint", &self.fingerprint)
            .finish()
    }
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
        let mut payload = vec![0u8; payload_size];
        for key in 0..records {
            payload.fill((key % 251) as u8);
            table.write(key, &payload);
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

    /// Writes `payload` under `key`, replacing any previous record, and
    /// returns the version written (0 for a new key).
    pub fn write(&mut self, key: u64, payload: impl AsRef<[u8]>) -> u64 {
        self.update(key, |stored| stored.set(payload.as_ref()))
    }

    /// Appends `delta` to the record under `key` (creating it when missing)
    /// and returns the version written — the read-modify-write operation of
    /// YCSB.
    pub fn read_modify_write(&mut self, key: u64, delta: &[u8]) -> u64 {
        self.reads += 1;
        self.update(key, |stored| stored.extend(delta))
    }

    /// The one write path: a single probe for `key`'s slot, where `edit`
    /// rewrites the payload in place (starting from an empty one for a new
    /// key) and the version steps on. The fingerprint trades the old
    /// record's term for the new one's.
    fn update(&mut self, key: u64, edit: impl FnOnce(&mut Payload)) -> u64 {
        self.writes += 1;
        let record = match self.records.entry(key) {
            Entry::Vacant(slot) => slot.insert(Record {
                payload: Payload::default(),
                version: 0,
            }),
            Entry::Occupied(slot) => {
                let record = slot.into_mut();
                self.fingerprint ^= mix(key, record.version, &record.payload);
                record.version += 1;
                record
            }
        };
        edit(&mut record.payload);
        self.fingerprint ^= mix(key, record.version, &record.payload);
        record.version
    }

    /// Scans `count` consecutive keys starting at `start`, returning the
    /// number of existing records touched. It costs O(min(`count`, `len`)):
    /// a probe per key of the range, or one pass over the table when the
    /// range is the wider of the two.
    pub fn scan(&mut self, start: u64, count: u32) -> usize {
        self.reads += count as u64;
        let range = start..start.saturating_add(count as u64);
        if count as usize <= self.records.len() {
            range.filter(|key| self.records.contains_key(key)).count()
        } else {
            self.records
                .keys()
                .filter(|key| range.contains(key))
                .count()
        }
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn initialize_creates_identical_tables() {
        let a = RecordTable::initialize(1000, 64);
        let b = RecordTable::initialize(1000, 64);
        assert_eq!(a.len(), 1000);
        assert_eq!(a.fingerprint(), b.fingerprint());
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
        assert_eq!(t.read_modify_write(1, &[3, 4, 5]), 1);
        assert_eq!(*t.peek(1).unwrap().payload, [1, 2, 3, 4, 5]);
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

    /// A reference model: a plain map of owned payloads that looks a key
    /// up, then inserts, and composes the same `mix` terms the same way, so
    /// its fingerprints must equal the table's.
    #[derive(Default)]
    struct Model {
        records: BTreeMap<u64, (Vec<u8>, u64)>,
        fingerprint: u64,
    }

    impl Model {
        fn write(&mut self, key: u64, payload: Vec<u8>) -> u64 {
            let version = match self.records.get(&key) {
                Some((old, version)) => {
                    self.fingerprint ^= mix(key, *version, old);
                    version + 1
                }
                None => 0,
            };
            self.fingerprint ^= mix(key, version, &payload);
            self.records.insert(key, (payload, version));
            version
        }

        fn read_modify_write(&mut self, key: u64, delta: &[u8]) -> u64 {
            let mut payload = self
                .records
                .get(&key)
                .map(|(p, _)| p.clone())
                .unwrap_or_default();
            payload.extend_from_slice(delta);
            self.write(key, payload)
        }

        fn scan(&self, start: u64, count: u32) -> usize {
            self.records
                .range(start..start.saturating_add(count as u64))
                .count()
        }
    }

    fn bytes(rng: &mut rcc_common::SplitMix64, len: usize) -> Vec<u8> {
        (0..len).map(|_| rng.next_below(256) as u8).collect()
    }

    #[test]
    fn the_table_agrees_with_a_plain_map_step_by_step() {
        const KEYS: u64 = 24;
        let lengths = [0, Payload::INLINE, Payload::INLINE + 1, 8, 40];
        let mut rng = rcc_common::SplitMix64::new(28);
        let mut table = RecordTable::new();
        let mut model = Model::default();
        // A record one byte short of the boundary that an RMW grows across it.
        let edge = bytes(&mut rng, Payload::INLINE - 1);
        assert_eq!(table.write(KEYS, &edge), model.write(KEYS, edge.clone()));
        assert_eq!(
            table.read_modify_write(KEYS, &[1, 2]),
            model.read_modify_write(KEYS, &[1, 2])
        );
        assert!(matches!(
            table.peek(KEYS).unwrap().payload,
            Payload::Heap(_)
        ));
        // Two keys at the top of the key space, for scans that saturate.
        for key in [u64::MAX - 1, u64::MAX] {
            assert_eq!(table.write(key, [7]), model.write(key, vec![7]));
        }
        for step in 0..4000 {
            let key = rng.next_below(KEYS);
            let version = if rng.next_below(3) == 0 {
                let len = rng.next_below(6) as usize;
                let delta = bytes(&mut rng, len);
                let version = table.read_modify_write(key, &delta);
                assert_eq!(version, model.read_modify_write(key, &delta), "step {step}");
                version
            } else {
                let len = lengths[rng.next_below(lengths.len() as u64) as usize];
                let payload = bytes(&mut rng, len);
                let version = table.write(key, &payload);
                assert_eq!(version, model.write(key, payload), "step {step}");
                version
            };
            let record = table.peek(key).unwrap();
            let (payload, model_version) = &model.records[&key];
            assert_eq!(version, record.version, "step {step}");
            assert_eq!(record.version, *model_version, "step {step}");
            assert_eq!(*record.payload, **payload, "step {step}");
            assert_eq!(
                matches!(record.payload, Payload::Inline { .. }),
                payload.len() <= Payload::INLINE,
                "step {step}: short payloads stay inline"
            );
            assert_eq!(table.fingerprint(), model.fingerprint, "step {step}");
            // Up to twice the table's width: a probe per key when the range
            // is the narrower, a pass over the table when it is the wider.
            let start = rng.next_below(KEYS + 4);
            let count = rng.next_below(2 * KEYS) as u32;
            for (start, count) in [
                (start, count),
                (key, 0),
                (u64::MAX - 3, 10),
                (u64::MAX - 3, u32::MAX),
            ] {
                assert_eq!(
                    table.scan(start, count),
                    model.scan(start, count),
                    "step {step}: scan({start}, {count})"
                );
            }
        }
        assert_eq!(table.len(), model.records.len());
    }

    #[test]
    fn tables_with_their_own_hasher_keys_agree() {
        // Every `RandomState` draws fresh keys, and a new thread fresh
        // per-thread seeds, so the two maps lay the same records out in
        // different buckets. Nothing the table reports may show that.
        let mut a = RecordTable::new();
        let mut b = std::thread::spawn(RecordTable::new).join().unwrap();
        let mut rng = rcc_common::SplitMix64::new(29);
        for _ in 0..5000 {
            let key = rng.next_below(3000);
            let len = rng.next_below(24) as usize;
            let payload = bytes(&mut rng, len);
            if rng.next_below(4) == 0 {
                assert_eq!(
                    a.read_modify_write(key, &payload),
                    b.read_modify_write(key, &payload)
                );
            } else {
                assert_eq!(a.write(key, &payload), b.write(key, &payload));
            }
        }
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.len(), b.len());
        for key in 0..3001 {
            assert_eq!(a.peek(key), b.peek(key), "key {key}");
        }
        for start in (0..3000).step_by(97) {
            for count in [0, 1, 50, 2000, 4000, u32::MAX] {
                assert_eq!(a.scan(start, count), b.scan(start, count));
            }
        }
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        assert_eq!(
            format!("{a:?}"),
            format!(
                "RecordTable {{ len: {}, writes: 5000, reads: {}, fingerprint: {} }}",
                a.len(),
                a.read_count(),
                a.fingerprint()
            )
        );
    }

    #[test]
    fn a_record_fits_in_forty_bytes() {
        // The map stores records by value in its buckets: a larger `Record`
        // is a larger bucket for every key of the table.
        assert!(std::mem::size_of::<Record>() <= 40);
        assert_eq!(
            std::mem::size_of::<Payload>(),
            std::mem::size_of::<Vec<u8>>()
        );
    }
}
