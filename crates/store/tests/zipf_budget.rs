//! The byte budget under a skewed stream: a deterministic, single-threaded
//! replay of the request pattern `serve-zipf` puts on the store.
//!
//! A Zipf(0.99) stream over four times as many distinct keys as the budget
//! holds (the same shape as `serve-zipf`: 256 buckets, ~2 000 resident
//! entries, 8 192 keys, every entry equally large and equally costly)
//! looks each key up and inserts it on a miss. After a warm-up the hit
//! ratio must be at least 0.78; the benefit-density rule reads 0.799.
//! Evicting the oldest sampled entries instead (FIFO by insertion stamp,
//! the store's earlier budget rule) reads 0.745 on this exact stream,
//! because the hot head keeps being evicted and refilled.

use atm_hash::prng::Xoshiro256StarStar;
use atm_runtime::{RegionData, RegionId, TaskId, TaskTypeId};
use atm_store::{entry_charge_bytes, EntryKey, MemoStore, OutputSnapshot, StoreConfig};
use std::sync::Arc;

const RESIDENT: usize = 2_048;
const KEYS: usize = 4 * RESIDENT;
const EXPONENT: f64 = 0.99;
const WARM_UP: usize = 100_000;
const MEASURED: usize = 200_000;

fn outputs(index: usize) -> Arc<Vec<OutputSnapshot>> {
    Arc::new(vec![OutputSnapshot {
        region: RegionId::from_raw(0),
        elem_range: 0..4,
        data: RegionData::F32(vec![index as f32; 4]),
    }])
}

/// Spreads key indices over the buckets, like the lookup3 keys of real
/// payloads.
fn key(index: usize) -> EntryKey {
    let hash = (index as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    EntryKey::new(TaskTypeId::from_raw(0), hash, 1.0)
}

/// Inverse-CDF sampling of Zipf(`EXPONENT`) over `KEYS` ranks.
struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    fn new() -> Self {
        let mut total = 0.0;
        let mut cdf: Vec<f64> = (1..=KEYS)
            .map(|rank| {
                total += (rank as f64).powf(-EXPONENT);
                total
            })
            .collect();
        cdf.iter_mut().for_each(|c| *c /= total);
        Zipf { cdf }
    }

    fn sample(&self, rng: &mut Xoshiro256StarStar) -> usize {
        let u = rng.next_f64();
        self.cdf.partition_point(|&c| c < u).min(KEYS - 1)
    }
}

#[test]
fn zipf_stream_keeps_its_hot_head_under_the_budget() {
    let budget = RESIDENT * entry_charge_bytes(&outputs(0));
    let store = MemoStore::new(StoreConfig::paper(8, 128).with_byte_budget(budget));
    let zipf = Zipf::new();
    let mut rng = Xoshiro256StarStar::new(0x5EED_0099);
    let mut hits = 0usize;
    for request in 0..WARM_UP + MEASURED {
        let index = zipf.sample(&mut rng);
        let hit = store.lookup(&key(index)).is_some();
        if !hit {
            store.insert(
                key(index),
                TaskId::from_raw(index as u64),
                outputs(index),
                150_000,
            );
        }
        if request >= WARM_UP && hit {
            hits += 1;
        }
    }
    let ratio = hits as f64 / MEASURED as f64;
    assert!(store.memory_bytes() <= budget);
    assert!(
        store.counters().evictions > 0,
        "the stream must overflow the budget"
    );
    assert!(
        ratio >= 0.78,
        "hit ratio {ratio:.3} after warm-up, want >= 0.78"
    );
}
