//! The Task History Table (THT) geometry.
//!
//! The THT is the central memoization structure of ATM (§III-A, Figure 1):
//! a table of `2^N` buckets, each holding up to `M` entries. An entry stores
//! the 8-byte hash key of a completed task's (sampled) inputs, the
//! percentage `p` the key was computed with, and a full copy of the task's
//! outputs; when a bucket is full the oldest entry is evicted
//! first-in-first-out.
//!
//! The table itself is [`atm_store::MemoStore`]: the paper's `(N, M)`
//! geometry with FIFO eviction and no byte budget is one configuration of
//! the store ([`ThtConfig::store_config`]), and that configuration
//! reproduces the original table bit for bit. The engine holds the store
//! directly, with whatever byte budget the [`crate::AtmConfig`] asks for
//! (the `ways` cap stays FIFO; the budget evicts by benefit density, see
//! [`atm_store::store`]); this module keeps the paper-facing `(N, M)`
//! vocabulary.

use atm_store::StoreConfig;

pub use atm_store::EntryKey;

/// Sizing of the THT: `N` (bucket bits) and `M` (ways per bucket).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThtConfig {
    /// Number of index bits: the table has `2^bucket_bits` buckets. The
    /// paper reports that N = 8 avoids lock contention (§IV-B).
    pub bucket_bits: u32,
    /// Maximum number of entries per bucket. The paper uses M = 128 (Kmeans
    /// needs it; the other benchmarks saturate at M = 16).
    pub ways: usize,
}

impl Default for ThtConfig {
    fn default() -> Self {
        ThtConfig {
            bucket_bits: 8,
            ways: 128,
        }
    }
}

impl ThtConfig {
    /// The equivalent paper-faithful store configuration (FIFO, no budget).
    pub fn store_config(self) -> StoreConfig {
        StoreConfig::paper(self.bucket_bits, self.ways)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atm_runtime::{Access, DataStore, TaskId, TaskTypeId};
    use atm_store::MemoStore;
    use atm_store::OutputSnapshot;
    use std::sync::Arc;

    /// The paper's table: the store under [`ThtConfig::store_config`].
    fn paper_table(config: ThtConfig) -> MemoStore {
        MemoStore::new(config.store_config())
    }

    fn snapshot(store: &DataStore, values: &[f32]) -> Arc<Vec<OutputSnapshot>> {
        // Region names are unique per store; derive one from the slot count.
        let r = store
            .register_typed(format!("out{}", store.len()), values.to_vec())
            .unwrap();
        Arc::new(vec![OutputSnapshot::capture(store, &Access::write(&r))])
    }

    fn key(hash: u64) -> EntryKey {
        EntryKey::new(TaskTypeId::from_raw(0), hash, 1.0)
    }

    fn producer() -> TaskId {
        TaskId::from_raw(0)
    }

    #[test]
    fn insert_then_lookup_hits() {
        let store = DataStore::new();
        let tht = paper_table(ThtConfig::default());
        let outputs = snapshot(&store, &[1.0, 2.0]);
        tht.insert(key(42), producer(), outputs, 0);
        let entry = tht.lookup(&key(42)).expect("entry must be found");
        assert_eq!(entry.outputs[0].data.as_f32(), &[1.0, 2.0]);
        assert!(tht.lookup(&key(43)).is_none());
        let c = tht.counters();
        assert_eq!((c.hits, c.misses, c.insertions, c.evictions), (1, 1, 1, 0));
    }

    #[test]
    fn different_p_or_type_does_not_match() {
        let store = DataStore::new();
        let tht = paper_table(ThtConfig::default());
        tht.insert(
            EntryKey::new(TaskTypeId::from_raw(0), 7, 1.0),
            producer(),
            snapshot(&store, &[1.0]),
            0,
        );
        assert!(tht
            .lookup(&EntryKey::new(TaskTypeId::from_raw(0), 7, 0.5))
            .is_none());
        assert!(tht
            .lookup(&EntryKey::new(TaskTypeId::from_raw(1), 7, 1.0))
            .is_none());
        assert!(tht
            .lookup(&EntryKey::new(TaskTypeId::from_raw(0), 7, 1.0))
            .is_some());
    }

    #[test]
    fn fifo_eviction_keeps_the_newest_m_entries() {
        let store = DataStore::new();
        let tht = paper_table(ThtConfig {
            bucket_bits: 0,
            ways: 2,
        });
        for hash_high in 0..4u64 {
            // Same bucket (bucket_bits = 0 means a single bucket).
            tht.insert(
                key(hash_high << 32),
                producer(),
                snapshot(&store, &[hash_high as f32]),
                0,
            );
        }
        assert_eq!(tht.len(), 2);
        let counters = tht.counters();
        assert_eq!(counters.insertions, 4);
        assert_eq!(counters.evictions, 2);
        // The two most recent entries survive.
        assert!(tht.lookup(&key(2 << 32)).is_some());
        assert!(tht.lookup(&key(3 << 32)).is_some());
        assert!(tht.lookup(&key(0)).is_none());
    }

    #[test]
    fn memory_accounting_grows_and_shrinks() {
        let store = DataStore::new();
        let tht = paper_table(ThtConfig {
            bucket_bits: 0,
            ways: 1,
        });
        assert_eq!(tht.memory_bytes(), 0);
        tht.insert(key(1), producer(), snapshot(&store, &[1.0; 100]), 0);
        let after_one = tht.memory_bytes();
        assert!(
            after_one >= 400,
            "at least the 400 output bytes must be accounted"
        );
        // Inserting a second entry evicts the first; memory should not double.
        tht.insert(key(1 << 40), producer(), snapshot(&store, &[1.0; 100]), 0);
        assert_eq!(tht.memory_bytes(), after_one);
    }

    #[test]
    fn keys_with_same_low_bits_land_in_same_bucket_but_do_not_collide() {
        let store = DataStore::new();
        let tht = paper_table(ThtConfig {
            bucket_bits: 4,
            ways: 8,
        });
        let a = key(0x10);
        let b = key(0xA0_0010); // same low 4 bits
        tht.insert(a, producer(), snapshot(&store, &[1.0]), 0);
        tht.insert(b, producer(), snapshot(&store, &[2.0]), 0);
        assert_eq!(tht.lookup(&a).unwrap().outputs[0].data.as_f32(), &[1.0]);
        assert_eq!(tht.lookup(&b).unwrap().outputs[0].data.as_f32(), &[2.0]);
    }

    #[test]
    fn bucket_count_is_power_of_two() {
        assert_eq!(
            paper_table(ThtConfig {
                bucket_bits: 0,
                ways: 1
            })
            .bucket_count(),
            1
        );
        assert_eq!(
            paper_table(ThtConfig {
                bucket_bits: 8,
                ways: 1
            })
            .bucket_count(),
            256
        );
    }

    #[test]
    #[should_panic(expected = "at least one way")]
    fn zero_ways_is_rejected() {
        let _ = paper_table(ThtConfig {
            bucket_bits: 1,
            ways: 0,
        });
    }
}
