//! Task History Table and In-flight Key Table operation costs: lookup hits,
//! lookup misses, inserts with FIFO eviction, IKT producer/waiter traffic.
//!
//! Run with: `cargo bench --bench tht_ops`

use atm_core::{EntryKey, InFlightKeyTable, MemoStore, OutputSnapshot, ThtConfig, Waiter};
use atm_eval::bench;
use atm_runtime::{Access, DataStore, TaskId, TaskTypeId};
use std::sync::Arc;

fn snapshot(store: &DataStore, len: usize, tag: &str) -> Arc<Vec<OutputSnapshot>> {
    let region = store.register_typed(tag, vec![1.0f32; len]).unwrap();
    Arc::new(vec![OutputSnapshot::capture(
        store,
        &Access::write(&region),
    )])
}

fn key(hash: u64) -> EntryKey {
    EntryKey::new(TaskTypeId::from_raw(0), hash, 1.0)
}

fn tht_operations() {
    let store = DataStore::new();
    let outputs = snapshot(&store, 1024, "out");

    // Pre-populated table for hit/miss lookups.
    let tht = MemoStore::new(ThtConfig::default().store_config());
    for i in 0..4096u64 {
        tht.insert(
            key(i.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            TaskId::from_raw(i),
            Arc::clone(&outputs),
            0,
        );
    }
    let hit_key = key(5u64.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    bench("tht", "lookup_hit", || {
        let _ = tht.lookup(&hit_key);
    });
    let miss_key = key(0xDEAD_BEEF_0000_0001);
    bench("tht", "lookup_miss", || {
        let _ = tht.lookup(&miss_key);
    });

    let evicting = MemoStore::new(
        ThtConfig {
            bucket_bits: 4,
            ways: 16,
        }
        .store_config(),
    );
    let mut i = 0u64;
    bench("tht", "insert_with_fifo_eviction", || {
        evicting.insert(key(i), TaskId::from_raw(i), Arc::clone(&outputs), 0);
        i = i.wrapping_add(1);
    });

    let ikt = InFlightKeyTable::new();
    let mut j = 0u64;
    bench("ikt", "register_then_retire", || {
        let k = key(j);
        ikt.register_producer(k, TaskId::from_raw(j));
        ikt.register_waiter(
            &k,
            Waiter {
                task: TaskId::from_raw(j + 1),
                accesses: vec![],
            },
        );
        let _ = ikt.retire(&k, TaskId::from_raw(j));
        j = j.wrapping_add(2);
    });
}

fn main() {
    tht_operations();
}
