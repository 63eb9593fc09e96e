//! The memo store — the real `MemoStore` under the checker.
//!
//! Each bucket is one `RwLock<Vec<Entry>>`: a lookup scans under the read
//! lock and clones the hit's outputs `Arc`; an insert replaces or pushes
//! under the write lock; a budget eviction reads a sample of buckets, then
//! write-locks each victim's bucket in turn. No path holds two bucket locks
//! at once, and a hit's producer and outputs come from one entry read under
//! one lock, so there is no protocol of the store's own to replicate: the
//! model drives the shipped store. In an ordinary build each store call is
//! one atomic slice; under `RUSTFLAGS='--cfg atm_check'` the checker
//! interleaves every lock and atomic of `store.rs` itself.
//!
//! The scenario: a writer replaces one key under a byte budget of one and
//! a half entries, inserts a second key (a budget eviction that reads both
//! entries' hit counts as priorities and raises the floor) and brings the
//! first key back; a reader looks the first key up meanwhile, so its hit
//! bumps race the eviction's sample. Every entry has the same credit, so the
//! first eviction takes the first key only if it had no hit when sampled
//! (the stamp breaks the tie) and the second key otherwise; either way the
//! first key, back with a base above the raised floor, is the one resident
//! at the end. Every hit's payload must belong to its `producer`, no
//! schedule may deadlock or close a lock-order cycle (the checker reports
//! both), and at quiescence the entry count, the byte gauge and the export
//! must agree.

use atm_runtime::{RegionData, RegionId, TaskId, TaskTypeId};
use atm_store::{entry_charge_bytes, EntryKey, MemoStore, OutputSnapshot, StoreConfig};
use atm_sync::check::{thread, Checker};
use std::sync::Arc;

/// A payload that names its producer in every element.
fn outputs(producer: u64) -> Arc<Vec<OutputSnapshot>> {
    Arc::new(vec![OutputSnapshot {
        region: RegionId::from_raw(0),
        elem_range: 0..4,
        data: RegionData::F32(vec![producer as f32; 4]),
    }])
}

fn key(hash: u64) -> EntryKey {
    EntryKey::new(TaskTypeId::from_raw(0), hash, 1.0)
}

fn hit_bump_races_budget_eviction() {
    let entry = entry_charge_bytes(&outputs(0));
    let store = Arc::new(MemoStore::new(
        StoreConfig::paper(1, 4).with_byte_budget(entry + entry / 2),
    ));
    store.insert(key(0), TaskId::from_raw(1), outputs(1), 0);
    let reader = {
        let store = Arc::clone(&store);
        thread::spawn(move || {
            let mut seen = Vec::new();
            for _ in 0..2 {
                if let Some(hit) = store.lookup(&key(0)) {
                    let producer = hit.producer.raw();
                    assert!(
                        hit.outputs[0]
                            .data
                            .as_f32()
                            .iter()
                            .all(|v| *v == producer as f32),
                        "a hit's payload belongs to another producer"
                    );
                    seen.push(producer);
                }
            }
            seen
        })
    };
    // Replace key 0, insert key 1 (the other bucket) over the budget, bring
    // key 0 back.
    store.insert(key(0), TaskId::from_raw(2), outputs(2), 0);
    store.insert(key(1), TaskId::from_raw(3), outputs(3), 0);
    store.insert(key(0), TaskId::from_raw(4), outputs(4), 0);
    let seen = reader.join();

    let exported = store.export();
    let counters = store.counters();
    // Two evictions: key 0 went first, then key 1 for its return. One: key 0
    // had a hit when sampled, key 1 went and key 0's return replaced it.
    assert!(
        counters.evictions == 2 || seen.contains(&2),
        "the replaced key outlived an equal-credit newcomer without a hit"
    );
    assert!((1..=2).contains(&counters.evictions));
    assert_eq!(exported.len(), 1);
    assert_eq!((exported[0].key, exported[0].producer.raw()), (key(0), 4));
    assert_eq!(counters.entries, exported.len() as u64);
    let charged: usize = exported
        .iter()
        .map(|e| entry_charge_bytes(&e.outputs))
        .sum();
    assert_eq!(store.memory_bytes(), charged);
}

#[test]
fn the_shipped_store_serves_whole_entries_under_budget_eviction() {
    Checker::exhaustive()
        .max_schedules(2_000)
        .check(hit_bump_races_budget_eviction)
        .assert_passed();
    Checker::random(0x3E30_5702, 200)
        .check(hit_bump_races_budget_eviction)
        .assert_passed();
}
