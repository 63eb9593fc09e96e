//! Observational equivalence of the seqlock set-associative store against a
//! reference model of the old mutex-guarded deque-bucket store.
//!
//! The lock-free rebuild of `MemoStore` (CONCURRENCY.md, protocol 6) is only
//! a performance change: single-threaded, every program must produce exactly
//! the hit/miss/outcome sequence, the same counters, the same export order
//! and a byte-identical persistence snapshot as the old implementation. The
//! reference model below *is* the old implementation's semantics — one
//! `VecDeque` per bucket, replace-in-place keeping the queue position, the
//! incoming entry pushed last and the entry with the smallest insertion stamp
//! evicted while the bucket overflows, a logical clock ticked on every
//! insertion.

use atm_hash::prng::Xoshiro256StarStar;
use atm_runtime::{RegionData, RegionId, TaskId, TaskTypeId};
use atm_store::snapshot::OutputSnapshot;
use atm_store::{EntryKey, InsertOutcome, MemoStore, StoreConfig};
use std::collections::VecDeque;
use std::sync::Arc;

struct RefEntry {
    key: EntryKey,
    producer: TaskId,
    values: Vec<f32>,
    inserted_seq: u64,
    benefit_ns: u64,
}

/// The old store, as a single-threaded model.
struct RefStore {
    buckets: Vec<VecDeque<RefEntry>>,
    ways: usize,
    clock: u64,
    hits: u64,
    misses: u64,
    insertions: u64,
    evictions: u64,
}

impl RefStore {
    fn new(config: StoreConfig) -> Self {
        RefStore {
            buckets: (0..(1usize << config.bucket_bits))
                .map(|_| VecDeque::new())
                .collect(),
            ways: config.ways,
            clock: 0,
            hits: 0,
            misses: 0,
            insertions: 0,
            evictions: 0,
        }
    }

    fn tick(&mut self) -> u64 {
        let t = self.clock;
        self.clock += 1;
        t
    }

    fn bucket_of(&self, key: &EntryKey) -> usize {
        (key.hash as usize) & (self.buckets.len() - 1)
    }

    fn lookup(&mut self, key: &EntryKey) -> Option<(TaskId, Vec<f32>, u64)> {
        let b = self.bucket_of(key);
        // Newest-entry-wins, as the old `.iter().rev().find(..)`.
        let Some(pos) = self.buckets[b].iter().rposition(|e| e.key == *key) else {
            self.misses += 1;
            return None;
        };
        let e = &self.buckets[b][pos];
        self.hits += 1;
        Some((e.producer, e.values.clone(), e.benefit_ns))
    }

    fn insert(
        &mut self,
        key: EntryKey,
        producer: TaskId,
        values: Vec<f32>,
        benefit_ns: u64,
    ) -> InsertOutcome {
        let seq = self.tick();
        let b = self.bucket_of(&key);
        let ways = self.ways;
        let entry = RefEntry {
            key,
            producer,
            values,
            inserted_seq: seq,
            benefit_ns,
        };
        let bucket = &mut self.buckets[b];
        let replaced = if let Some(pos) = bucket.iter().position(|e| e.key == key) {
            bucket[pos] = entry;
            true
        } else {
            bucket.push_back(entry);
            while bucket.len() > ways {
                let victim = (0..bucket.len())
                    .min_by_key(|&i| bucket[i].inserted_seq)
                    .unwrap();
                bucket.remove(victim);
                self.evictions += 1;
            }
            false
        };
        self.insertions += 1;
        if replaced {
            InsertOutcome::Replaced
        } else {
            InsertOutcome::Inserted
        }
    }

    /// Bucket order then queue order — the old `export()` view.
    fn export(&self) -> Vec<(EntryKey, TaskId, u64, Vec<f32>)> {
        self.buckets
            .iter()
            .flat_map(|b| {
                b.iter()
                    .map(|e| (e.key, e.producer, e.benefit_ns, e.values.clone()))
            })
            .collect()
    }

    fn len(&self) -> usize {
        self.buckets.iter().map(VecDeque::len).sum()
    }
}

fn snapshot(values: &[f32]) -> Arc<Vec<OutputSnapshot>> {
    Arc::new(vec![OutputSnapshot {
        region: RegionId::from_raw(0),
        elem_range: 0..values.len(),
        data: RegionData::F32(values.to_vec()),
    }])
}

/// Runs one random program against the real store and the reference model,
/// asserting per-operation equivalence and final-state equality.
fn run_program(config: StoreConfig, seed: u64) {
    let store = MemoStore::new(config);
    let mut reference = RefStore::new(config);
    let mut rng = Xoshiro256StarStar::new(seed);

    for op in 0..400 {
        // A small keyspace so lookups hit and buckets overflow.
        let task_type = TaskTypeId::from_raw((rng.next_u64() % 3) as u32);
        let hash = rng.next_u64() % 24;
        let p = if rng.next_u64().is_multiple_of(2) {
            1.0
        } else {
            0.5
        };
        let key = EntryKey::new(task_type, hash, p);

        if rng.next_u64() % 5 < 3 {
            let len = 1 + (rng.next_u64() % 8) as usize;
            let fill = (rng.next_u64() % 1024) as f32;
            let values = vec![fill; len];
            let producer = TaskId::from_raw(rng.next_u64() % 1024);
            let benefit_ns = rng.next_u64() % 1_000;
            let real = store.insert(key, producer, snapshot(&values), benefit_ns);
            let model = reference.insert(key, producer, values, benefit_ns);
            assert_eq!(
                real, model,
                "insert outcome diverged at op {op} (seed {seed})"
            );
        } else {
            let real = store.lookup(&key);
            let model = reference.lookup(&key);
            match (&real, &model) {
                (None, None) => {}
                (Some(hit), Some((producer, values, benefit_ns))) => {
                    assert_eq!(hit.producer, *producer, "producer diverged at op {op}");
                    assert_eq!(hit.benefit_ns, *benefit_ns, "benefit diverged at op {op}");
                    assert_eq!(
                        hit.outputs[0].data.as_f32(),
                        values.as_slice(),
                        "outputs diverged at op {op} (seed {seed})"
                    );
                }
                _ => panic!(
                    "hit/miss diverged at op {op} (seed {seed}): real={} model={}",
                    real.is_some(),
                    model.is_some()
                ),
            }
        }
    }

    // Final state: counters…
    let counters = store.counters();
    assert_eq!(counters.hits, reference.hits, "hits (seed {seed})");
    assert_eq!(counters.misses, reference.misses, "misses (seed {seed})");
    assert_eq!(
        counters.insertions, reference.insertions,
        "insertions (seed {seed})"
    );
    assert_eq!(
        counters.evictions, reference.evictions,
        "evictions (seed {seed})"
    );
    assert_eq!(
        counters.entries,
        reference.len() as u64,
        "entries (seed {seed})"
    );

    // …export view, in the old store's bucket-then-queue order…
    let exported = store.export();
    let model_export = reference.export();
    assert_eq!(
        exported.len(),
        model_export.len(),
        "export len (seed {seed})"
    );
    for (i, (real, model)) in exported.iter().zip(&model_export).enumerate() {
        assert_eq!(real.key, model.0, "export key order at {i} (seed {seed})");
        assert_eq!(real.producer, model.1, "export producer at {i}");
        assert_eq!(real.benefit_ns, model.2, "export benefit at {i}");
        assert_eq!(real.outputs[0].data.as_f32(), model.3.as_slice());
    }

    // …and a persistence snapshot that depends only on that view: a store
    // rebuilt by inserting the reference model's entries in its export order
    // reproduces the same per-bucket arrival order, so its snapshot must be
    // byte-identical to the real store's. (The format itself is unchanged —
    // `encode_entries` is a pure function of the export sequence.)
    let bytes = store.to_snapshot_bytes();
    let rebuilt = MemoStore::new(config);
    for (key, producer, benefit_ns, values) in &model_export {
        rebuilt.insert(*key, *producer, snapshot(values), *benefit_ns);
    }
    assert_eq!(
        rebuilt.to_snapshot_bytes(),
        bytes,
        "snapshot bytes must match a store rebuilt from the model (seed {seed})"
    );
}

#[test]
fn seqlock_store_is_observationally_equivalent_to_the_deque_store() {
    let mut seed = 0x5E01_0C4A_u64;
    for ways in [1usize, 2, 4] {
        for bucket_bits in [0u32, 2] {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            run_program(StoreConfig::paper(bucket_bits, ways), seed);
        }
    }
}
