//! Property-based tests for the slate store substrate.

use std::sync::Arc;

use muppet_slatestore::bloom::BloomFilter;
use muppet_slatestore::compress::{compress, decompress};
use muppet_slatestore::device::StorageDevice;
use muppet_slatestore::memtable::Memtable;
use muppet_slatestore::ring::ConsistentRing;
use muppet_slatestore::sstable::{SSTable, SSTableWriter};
use muppet_slatestore::types::{Cell, CellKey};
use muppet_slatestore::util::TempDir;
use muppet_slatestore::wal::{replay, WalWriter};
use proptest::prelude::*;

/// Rows that share prefixes (and some that are empty or binary), a few
/// columns, tombstones, every TTL shape, and timestamps that jump both
/// ways and reach the ends of the range.
fn arb_cell() -> impl Strategy<Value = (CellKey, Cell)> {
    let row = prop_oneof![
        (0u32..300).prop_map(|i| format!("user-{i}").into_bytes()),
        proptest::collection::vec(any::<u8>(), 0..6),
    ];
    let column = prop_oneof![Just("zipf-counter"), Just("U1"), Just(""), Just("ünï")];
    let ts = prop_oneof![1_000u64..1_010, any::<u64>(), Just(0), Just(u64::MAX)];
    let ttl = prop_oneof![Just(None), Just(Some(0)), any::<u64>().prop_map(Some)];
    let value = proptest::collection::vec(any::<u8>(), 0..40);
    (row, column, ts, ttl, value, 0u8..4).prop_map(|(row, column, ts, ttl, value, kind)| {
        let cell = match kind {
            0 => Cell::tombstone(ts),
            1 => Cell::live_in(value, muppet_core::Codec::Mbf, ts, ttl),
            _ => Cell::live(value, ts, ttl),
        };
        (CellKey::new(row, column), cell)
    })
}

proptest! {
    // ---------- compression ----------

    #[test]
    fn compress_roundtrips_arbitrary_bytes(data in proptest::collection::vec(any::<u8>(), 0..4096)) {
        let packed = compress(&data);
        prop_assert_eq!(decompress(&packed).unwrap(), data);
    }

    #[test]
    fn compress_roundtrips_repetitive_data(unit in proptest::collection::vec(any::<u8>(), 1..32),
                                           reps in 1usize..200) {
        let data: Vec<u8> = unit.iter().copied().cycle().take(unit.len() * reps).collect();
        let packed = compress(&data);
        prop_assert_eq!(decompress(&packed).unwrap(), data);
    }

    #[test]
    fn compressed_size_is_bounded(data in proptest::collection::vec(any::<u8>(), 0..2048)) {
        let packed = compress(&data);
        // Raw fallback bounds expansion: the header is one mode byte.
        prop_assert!(packed.len() <= data.len() + 1);
    }

    #[test]
    fn decompress_never_panics(data in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = decompress(&data);
    }

    /// Arbitrary bytes behind a valid mode and any declared length: `Ok` or
    /// `Err`, never a panic or an allocation the bytes cannot fill.
    #[test]
    fn decompress_of_any_declared_length_returns(mode in 0u8..3, len in any::<u64>(),
                                                 tokens in proptest::collection::vec(any::<u8>(), 0..64)) {
        let mut data = vec![mode];
        muppet_core::codec::put_varint(&mut data, len);
        data.extend_from_slice(&tokens);
        if let Ok(out) = decompress(&data) {
            prop_assert!(out.len() <= data.len() * 87);
        }
    }

    // ---------- bloom ----------

    #[test]
    fn bloom_has_no_false_negatives(items in proptest::collection::hash_set("[a-z0-9]{1,16}", 1..200)) {
        let mut bf = BloomFilter::with_capacity(items.len(), 0.01);
        for item in &items {
            bf.insert(item.as_bytes());
        }
        for item in &items {
            prop_assert!(bf.may_contain(item.as_bytes()));
        }
        let back = BloomFilter::from_bytes(&bf.to_bytes()).unwrap();
        for item in &items {
            prop_assert!(back.may_contain(item.as_bytes()));
        }
    }

    // ---------- memtable vs model ----------

    #[test]
    fn memtable_equals_hashmap_model(ops in proptest::collection::vec(
        ("[a-d]", "[a-b]", any::<bool>(), 0u64..100), 0..100)) {
        let mut mt = Memtable::new();
        let mut model: std::collections::HashMap<(String, String), Cell> = Default::default();
        for (i, (row, col, tombstone, _)) in ops.iter().enumerate() {
            let cell = if *tombstone {
                Cell::tombstone(i as u64)
            } else {
                Cell::live(format!("v{i}"), i as u64, None)
            };
            mt.put(CellKey::new(row.as_str(), col.as_str()), cell.clone());
            model.insert((row.clone(), col.clone()), cell);
        }
        prop_assert_eq!(mt.len(), model.len());
        for ((row, col), cell) in &model {
            prop_assert_eq!(mt.get(&CellKey::new(row.as_str(), col.as_str())), Some(cell));
        }
        // Drain is sorted.
        let drained = mt.drain_sorted();
        for w in drained.windows(2) {
            prop_assert!(w[0].0 < w[1].0);
        }
    }

    // ---------- ring ----------

    #[test]
    fn ring_owner_survives_unrelated_removal(nodes in 3usize..10, dead in 0usize..10,
                                             hashes in proptest::collection::vec(any::<u64>(), 1..50)) {
        let dead = dead % nodes;
        let mut ring = ConsistentRing::new(nodes, 16);
        let before: Vec<usize> = hashes.iter().map(|&h| ring.owner(h).unwrap()).collect();
        ring.remove(dead);
        for (h, owner) in hashes.iter().zip(before) {
            let now = ring.owner(*h).unwrap();
            if owner != dead {
                prop_assert_eq!(now, owner, "only the dead node's keys may move");
            } else {
                prop_assert_ne!(now, dead);
            }
        }
    }

    #[test]
    fn ring_replica_sets_are_distinct(nodes in 1usize..8, rf in 1usize..8, h in any::<u64>()) {
        let ring = ConsistentRing::new(nodes, 16);
        let owners = ring.owners(h, rf);
        prop_assert_eq!(owners.len(), rf.min(nodes));
        let mut dedup = owners.clone();
        dedup.sort_unstable();
        dedup.dedup();
        prop_assert_eq!(dedup.len(), owners.len());
    }
}

// SSTable write→read equivalence gets fewer cases (touches the filesystem).
proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn runs_round_trip_through_wal_replay(runs in proptest::collection::vec(
        proptest::collection::vec(arb_cell(), 0..40), 1..6,
    )) {
        let dir = TempDir::new("prop-wal").unwrap();
        let path = dir.file("wal-0.log");
        let mut w = WalWriter::create(&path, false).unwrap();
        for run in &runs {
            w.append_many(run).unwrap();
        }
        w.flush().unwrap();
        let replayed = replay(&path).unwrap();
        prop_assert!(!replayed.truncated);
        prop_assert_eq!(replayed.runs, runs.iter().filter(|run| !run.is_empty()).count() as u64);
        prop_assert_eq!(replayed.records, runs.concat());
    }

    #[test]
    fn runs_round_trip_through_sstable_get_and_scan(
        cells in proptest::collection::btree_map(
            arb_cell().prop_map(|(key, _)| key), arb_cell().prop_map(|(_, cell)| cell), 1..400,
        )
    ) {
        let dir = TempDir::new("prop-sst-run").unwrap();
        let mut w = SSTableWriter::create(dir.file("t.sst"), Arc::new(StorageDevice::default()), cells.len()).unwrap();
        for (key, cell) in &cells {
            w.add(key, cell).unwrap();
        }
        let table = w.finish().unwrap();
        for (key, cell) in &cells {
            prop_assert_eq!(table.get(key).unwrap().as_ref(), Some(cell));
        }
        let absent = CellKey::new("user-", "zipf-counter");
        prop_assert_eq!(table.get(&absent).unwrap().as_ref(), cells.get(&absent));
        prop_assert_eq!(table.scan().unwrap(), cells.into_iter().collect::<Vec<_>>());
    }

    #[test]
    fn sstable_read_equals_written(entries in proptest::collection::btree_map(
        ("[a-z]{1,12}", "[A-Z]{1,4}"),
        (proptest::collection::vec(any::<u8>(), 0..256), 0u64..1000, proptest::option::of(0u64..100)),
        1..100,
    )) {
        let dir = TempDir::new("prop-sst").unwrap();
        let device = Arc::new(StorageDevice::default());
        let mut w = SSTableWriter::create(dir.file("t.sst"), Arc::clone(&device), entries.len()).unwrap();
        let mut expected = Vec::new();
        for ((row, col), (value, ts, ttl)) in &entries {
            let key = CellKey::new(row.as_str(), col.as_str());
            let cell = Cell::live(value.clone(), *ts, *ttl);
            w.add(&key, &cell).unwrap();
            expected.push((key, cell));
        }
        let table = w.finish().unwrap();
        // Point reads find every entry.
        for (key, cell) in &expected {
            let got = table.get(key).unwrap().unwrap();
            prop_assert_eq!(&got, cell);
        }
        // Scan returns exactly the written set in order.
        let scanned = table.scan().unwrap();
        prop_assert_eq!(scanned, expected);
        // Reopen from disk and spot-check.
        let reopened = SSTable::open(dir.file("t.sst"), device).unwrap();
        prop_assert_eq!(reopened.entry_count() as usize, entries.len());
    }
}
