//! The budgeted, FIFO-evicting memo store.
//!
//! [`MemoStore`] generalises the paper's Task History Table (§III-A,
//! Figure 1): a power-of-two array of buckets, each holding at most `ways`
//! entries behind its own lock. On top of the paper's geometry it adds what
//! a production memo table needs:
//!
//! * a **global byte budget** enforced across all buckets — the THT could
//!   only bound memory per bucket, which bounds nothing when the key
//!   distribution is skewed;
//! * **FIFO eviction** for both bounds: a full bucket drops its oldest entry
//!   (the THT's rule) and the budget drops the oldest entries of a sample of
//!   buckets, "oldest" being the smallest insertion stamp of one global
//!   logical clock;
//! * **admission control** — an entry whose charge exceeds the whole budget
//!   is refused outright, so one huge output cannot flush the whole table;
//! * **persistence** — see [`crate::persist`] for the versioned, checksummed
//!   snapshot format behind [`MemoStore::save_to`] / [`MemoStore::load_from`].
//!
//! # Buckets: one lock each, entries in queue order
//!
//! A bucket is one `RwLock<Vec<Entry>>` whose entries sit in the THT's queue
//! order: a new entry is pushed at the back, a same-key replacement keeps
//! its position, and a full bucket first removes the entry with the
//! smallest insertion stamp. A lookup takes the read lock, compares the key
//! against the resident entries only and clones the hit's outputs `Arc`;
//! inserts and evictions take the write lock, and no path holds two bucket
//! locks at once. With the paper's 2⁸ buckets (§IV-B) threads rarely meet
//! on one lock. Nothing is preallocated: an empty bucket is an empty `Vec`,
//! so a miss there compares nothing. Replaced and evicted outputs are
//! dropped after the lock is released, so freeing a large payload never
//! holds up a bucket.
//!
//! # Counters
//!
//! Hot-path statistics never touch a shared cache line: hits, misses and
//! saved-nanoseconds are striped over cache-padded shards indexed by thread
//! ordinal; insertions, evictions, rejections and the entry count live in a
//! padded per-bucket block owned by the writer path. [`MemoStore::counters`]
//! sums them in one pass — see its documentation for the exact consistency
//! model.
//!
//! With no budget the store behaves bit for bit like the original THT: same
//! bucket indexing (low `N` bits of the hash), same per-bucket FIFO queue
//! and eviction.

use crate::snapshot::OutputSnapshot;
use atm_obs::{DecisionRecord, LatencyMetric, MemoDecision, Observability};
use atm_runtime::{TaskId, TaskTypeId};
use atm_sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use atm_sync::{thread_ordinal, RwLock};
use std::sync::Arc;

/// The lookup key of a memo entry.
///
/// Besides the Jenkins hash of the sampled inputs, an entry is only valid
/// for the same task type and the same selection percentage (the paper
/// extends the THT to store `p` together with the hash key because `p`
/// affects key generation, §III-D). `p` is stored as its raw bit pattern so
/// the struct stays `Eq`/hashable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EntryKey {
    /// The task type that produced the entry.
    pub task_type: TaskTypeId,
    /// The Jenkins hash of the sampled inputs.
    pub hash: u64,
    /// Bit pattern of the selection percentage used for the hash.
    pub p_bits: u64,
}

impl EntryKey {
    /// Builds a key from a task type, hash and percentage fraction.
    pub fn new(task_type: TaskTypeId, hash: u64, p: f64) -> Self {
        EntryKey {
            task_type,
            hash,
            p_bits: p.to_bits(),
        }
    }
}

/// Sizing of a [`MemoStore`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StoreConfig {
    /// Number of index bits: the store has `2^bucket_bits` buckets. The
    /// paper reports that N = 8 avoids lock contention (§IV-B).
    pub bucket_bits: u32,
    /// Maximum number of entries per bucket (the paper's associativity `M`).
    pub ways: usize,
    /// Global budget on resident bytes across all buckets. `None` disables
    /// budget enforcement (the paper's configuration).
    pub byte_budget: Option<usize>,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            bucket_bits: 8,
            ways: 128,
            byte_budget: None,
        }
    }
}

impl StoreConfig {
    /// Paper-faithful configuration from the THT geometry alone.
    pub fn paper(bucket_bits: u32, ways: usize) -> Self {
        StoreConfig {
            bucket_bits,
            ways,
            ..Default::default()
        }
    }

    /// Sets the global byte budget.
    #[must_use]
    pub fn with_byte_budget(mut self, budget: usize) -> Self {
        self.byte_budget = Some(budget);
        self
    }
}

/// One resident entry of a bucket.
#[derive(Debug)]
struct Entry {
    key: EntryKey,
    producer: TaskId,
    benefit_ns: u64,
    charged_bytes: usize,
    /// Logical clock at insertion: the eviction order (smallest goes first)
    /// and, being unique, the identity of a sampled budget victim.
    inserted_seq: u64,
    outputs: Arc<Vec<OutputSnapshot>>,
}

/// Writer-path statistics of one bucket, on their own cache line so bucket
/// writers never contend with neighbours (or with readers) over counters.
#[repr(align(128))]
#[derive(Debug, Default)]
struct BucketStats {
    insertions: AtomicU64,
    evictions: AtomicU64,
    rejected_admissions: AtomicU64,
    /// Resident entries; exact, maintained under the bucket's write lock.
    entries: AtomicU64,
}

/// One bucket: its entries in queue order, behind one lock.
#[derive(Debug, Default)]
struct Bucket {
    entries: RwLock<Vec<Entry>>,
    stats: BucketStats,
}

/// Read-path statistics stripe: one cache line per shard, indexed by thread
/// ordinal, so concurrent readers hitting the same bucket (or even the same
/// entry) never write the same line.
#[repr(align(128))]
#[derive(Debug, Default)]
struct ReaderShard {
    hits: AtomicU64,
    misses: AtomicU64,
    saved_ns: AtomicU64,
}

/// Number of reader stripes. More than any sane worker count; collisions
/// merely share a line, they do not miscount.
const READER_SHARDS: usize = 64;

/// A cache-padded `AtomicU64` (the global logical clock).
#[repr(align(128))]
#[derive(Debug, Default)]
struct PaddedU64(AtomicU64);

/// A cache-padded `AtomicUsize` (resident bytes, eviction cursor).
#[repr(align(128))]
#[derive(Debug, Default)]
struct PaddedUsize(AtomicUsize);

/// A successful lookup.
#[derive(Debug, Clone)]
pub struct MemoHit {
    /// The task that produced the stored outputs.
    pub producer: TaskId,
    /// The stored outputs.
    pub outputs: Arc<Vec<OutputSnapshot>>,
    /// The benefit estimate the entry was stored with.
    pub benefit_ns: u64,
}

/// One entry as exported for persistence or diagnostics.
#[derive(Debug, Clone)]
pub struct ExportedEntry {
    /// The lookup key.
    pub key: EntryKey,
    /// The task that produced the outputs.
    pub producer: TaskId,
    /// The benefit estimate.
    pub benefit_ns: u64,
    /// The stored outputs.
    pub outputs: Arc<Vec<OutputSnapshot>>,
}

/// What [`MemoStore::insert`] did with the offered entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InsertOutcome {
    /// Stored as a new entry. The byte budget may still evict it before the
    /// call returns, when evicting everything older in the sampled buckets
    /// is not enough; that case is not distinguished.
    Inserted,
    /// An entry with the same key existed and was replaced in place (the
    /// old entry's bytes were released first — no double counting).
    Replaced,
    /// Refused by admission control (charge above the byte budget).
    Rejected,
}

impl InsertOutcome {
    /// True when the entry is resident after the call (a lookup can hit).
    pub fn is_resident(self) -> bool {
        matches!(self, InsertOutcome::Inserted | InsertOutcome::Replaced)
    }
}

/// Point-in-time copy of the store counters: the cross-layer
/// [`atm_obs::StoreObservation`] under the name this crate has always used.
pub use atm_obs::StoreObservation as StoreCountersSnapshot;

/// How many non-empty buckets a budget eviction samples before evicting
/// their oldest entries. Sampling (rather than scanning every bucket) keeps
/// eviction cost independent of the table size, the same trade-off
/// production caches make.
const EVICTION_SAMPLE_BUCKETS: usize = 8;

/// Bytes an entry is charged for, including the container overhead the THT
/// of the paper under-counted: the `Arc` pointer and reference counts, the
/// `Vec` header, and one `OutputSnapshot` struct (region id, element range,
/// `RegionData` header) per output — not just the payload bytes.
pub fn entry_charge_bytes(outputs: &[OutputSnapshot]) -> usize {
    use std::mem::size_of;
    // Entry metadata: key, producer, charge, sequence numbers, benefit.
    let meta = size_of::<EntryKey>() + size_of::<TaskId>() + 4 * size_of::<u64>();
    // The shared container: the Arc pointer held by the entry, the strong
    // and weak reference counts in the Arc allocation, and the Vec header.
    let container = 3 * size_of::<usize>() + size_of::<Vec<OutputSnapshot>>();
    let payload: usize = outputs
        .iter()
        .map(|s| size_of::<OutputSnapshot>() + s.size_bytes())
        .sum();
    meta + container + payload
}

/// The set-associative, budgeted memo store.
#[derive(Debug)]
pub struct MemoStore {
    buckets: Vec<Bucket>,
    config: StoreConfig,
    /// Logical clock ticked on every insertion. Deliberately one global
    /// padded cell rather than per-bucket:
    /// budget eviction compares `inserted_seq` *across* buckets, which needs
    /// one totally ordered clock domain.
    clock: PaddedU64,
    /// Rotating start bucket for budget evictions.
    evict_cursor: PaddedUsize,
    resident_bytes: PaddedUsize,
    reader_stats: Box<[ReaderShard]>,
    /// Observability handle (attached post-construction, see
    /// [`MemoStore::set_observability`]); store-side events are stamped on
    /// its clock, the same one the runtime and the engine stamp on.
    obs: Option<Arc<Observability>>,
}

impl MemoStore {
    /// Creates an empty store of the geometry and budget in `config`.
    pub fn new(config: StoreConfig) -> Self {
        assert!(
            config.bucket_bits <= 20,
            "more than 2^20 buckets is never useful"
        );
        assert!(config.ways >= 1, "each bucket needs at least one way");
        let buckets = (0..(1usize << config.bucket_bits))
            .map(|_| Bucket::default())
            .collect();
        MemoStore {
            buckets,
            config,
            clock: PaddedU64::default(),
            evict_cursor: PaddedUsize::default(),
            resident_bytes: PaddedUsize::default(),
            reader_stats: (0..READER_SHARDS).map(|_| ReaderShard::default()).collect(),
            obs: None,
        }
    }

    /// Attaches an observability handle: insert/evict latencies land in its
    /// histograms, admission-denied/eviction decisions in its decision
    /// stream and (capture handles) the byte occupancy after each insert in
    /// its store-bytes track — all sharded by bucket index, since the store
    /// does not know which worker is calling.
    pub fn set_observability(&mut self, obs: Arc<Observability>) {
        self.obs = Some(obs);
    }

    /// Records a store-side decision (admission denial, eviction) about the
    /// `bytes`-sized entry `key` produced by `producer`.
    fn record_decision(
        obs: &Observability,
        shard: usize,
        decision: MemoDecision,
        key: &EntryKey,
        producer: TaskId,
        bytes: usize,
    ) {
        obs.record_decision(
            shard,
            DecisionRecord {
                task_type: key.task_type.index() as u32,
                task_id: producer.raw(),
                decision,
                metric_value: bytes as f64,
                tau: 0.0,
                p: f64::from_bits(key.p_bits),
                producer: None,
                t_ns: obs.now_ns(),
            },
        );
    }

    /// The store configuration.
    pub fn config(&self) -> StoreConfig {
        self.config
    }

    /// Number of buckets (`2^bucket_bits`).
    pub fn bucket_count(&self) -> usize {
        self.buckets.len()
    }

    #[inline]
    fn bucket_of(&self, key: &EntryKey) -> usize {
        // Index with the lower N bits of the hash, as in Figure 1.
        (key.hash as usize) & (self.buckets.len() - 1)
    }

    fn tick(&self) -> u64 {
        self.clock.0.fetch_add(1, Ordering::Relaxed)
    }

    #[inline]
    fn reader_shard(&self) -> &ReaderShard {
        &self.reader_stats[thread_ordinal() % READER_SHARDS]
    }

    /// Looks up an entry with exactly this key, under its bucket's read
    /// lock: concurrent lookups share the lock, an insert or eviction on the
    /// same bucket excludes them.
    ///
    /// A hit does *not* accrue `saved_ns`: the caller may still execute the
    /// task (dynamic-ATM training, output-shape mismatch), so it reports
    /// genuinely avoided work separately via [`MemoStore::note_saved`].
    pub fn lookup(&self, key: &EntryKey) -> Option<MemoHit> {
        let found = self.buckets[self.bucket_of(key)]
            .entries
            .read()
            .iter()
            .find(|e| e.key == *key)
            .map(|e| MemoHit {
                producer: e.producer,
                outputs: Arc::clone(&e.outputs),
                benefit_ns: e.benefit_ns,
            });
        let shard = self.reader_shard();
        if found.is_some() {
            shard.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            shard.misses.fetch_add(1, Ordering::Relaxed);
        }
        found
    }

    /// Records that a hit actually replaced an execution, crediting the
    /// entry's benefit estimate to the `saved_ns` counter. Called by the
    /// engine only when the kernel was genuinely skipped — a training-phase
    /// or shape-mismatched hit executes anyway and saves nothing.
    pub fn note_saved(&self, benefit_ns: u64) {
        self.reader_shard()
            .saved_ns
            .fetch_add(benefit_ns, Ordering::Relaxed);
    }

    /// Stores the outputs of a completed task.
    ///
    /// `benefit_ns` is the caller's estimate of the kernel nanoseconds one
    /// hit on this entry saves (the ATM engine feeds its measured per-type
    /// kernel time); it feeds the `saved_ns` counter and the warm-start
    /// order of [`MemoStore::load_from`].
    ///
    /// An entry with the same key is replaced in place (its bytes are
    /// released first, so nothing is double-counted; the entry keeps its
    /// queue position). When the bucket is full or the store exceeds its
    /// byte budget, the oldest entries go until both bounds hold again.
    pub fn insert(
        &self,
        key: EntryKey,
        producer: TaskId,
        outputs: Arc<Vec<OutputSnapshot>>,
        benefit_ns: u64,
    ) -> InsertOutcome {
        let obs = self.obs.as_deref();
        let insert_start = obs.map(Observability::now_ns);
        let shard = self.bucket_of(&key);
        let bucket = &self.buckets[shard];
        let charged = entry_charge_bytes(&outputs);
        if let Some(budget) = self.config.byte_budget {
            if charged > budget {
                bucket
                    .stats
                    .rejected_admissions
                    .fetch_add(1, Ordering::Relaxed);
                if let (Some(obs), Some(start)) = (obs, insert_start) {
                    let denied = MemoDecision::AdmissionDenied;
                    Self::record_decision(obs, shard, denied, &key, producer, charged);
                    obs.record_latency(LatencyMetric::StoreInsert, shard, obs.now_ns() - start);
                }
                return InsertOutcome::Rejected;
            }
        }
        let entry = Entry {
            key,
            producer,
            benefit_ns,
            charged_bytes: charged,
            inserted_seq: self.tick(),
            outputs,
        };

        // Count the bytes *before* the entry becomes visible: a concurrent
        // budget eviction may remove the entry (and subtract its charge)
        // the moment the write lock drops, and the counter must never see
        // a subtraction for bytes that were not yet added (usize
        // wrap-around would read as "over budget" and flush the store).
        self.resident_bytes.0.fetch_add(charged, Ordering::Relaxed);

        let mut entries = bucket.entries.write();
        let mut evicted = None;
        let replaced = if let Some(i) = entries.iter().position(|e| e.key == key) {
            // Same key: replace in place, keeping the queue position.
            Some(std::mem::replace(&mut entries[i], entry))
        } else {
            if entries.len() >= self.config.ways {
                // Full bucket: the oldest resident goes (the incoming entry
                // is never its own victim).
                let oldest = (0..entries.len())
                    .min_by_key(|&i| entries[i].inserted_seq)
                    .expect("a full bucket holds at least one entry");
                evicted = Some(entries.remove(oldest));
            } else {
                bucket.stats.entries.fetch_add(1, Ordering::Relaxed);
            }
            entries.push(entry);
            None
        };
        drop(entries);

        bucket.stats.insertions.fetch_add(1, Ordering::Relaxed);
        if evicted.is_some() {
            bucket.stats.evictions.fetch_add(1, Ordering::Relaxed);
        }
        // The released entry was visible in the bucket, so its charge is
        // already in the counter.
        if let Some(old) = replaced.as_ref().or(evicted.as_ref()) {
            self.resident_bytes
                .0
                .fetch_sub(old.charged_bytes, Ordering::Relaxed);
        }
        self.enforce_budget();
        if let (Some(obs), Some(start)) = (obs, insert_start) {
            if let Some(victim) = &evicted {
                let (decision, bytes) = (MemoDecision::Eviction, victim.charged_bytes);
                Self::record_decision(obs, shard, decision, &victim.key, victim.producer, bytes);
            }
            obs.sample_store_bytes(shard, self.memory_bytes() as u64);
            obs.record_latency(LatencyMetric::StoreInsert, shard, obs.now_ns() - start);
        }
        if replaced.is_some() {
            InsertOutcome::Replaced
        } else {
            InsertOutcome::Inserted
        }
    }

    /// Evicts entries (oldest first, sampled across buckets) until the
    /// resident bytes fit the budget again.
    fn enforce_budget(&self) {
        let Some(budget) = self.config.byte_budget else {
            return;
        };
        // Each round gathers one candidate sample and evicts as many
        // victims from it as the deficit needs, so reclaiming N entries
        // costs O(N + sample) instead of N full re-samples. Bounded
        // fruitless rounds guard against pathological races (e.g. the
        // counter transiently includes an entry another thread has charged
        // but not yet published).
        let mut fruitless = 0;
        while self.resident_bytes.0.load(Ordering::Relaxed) > budget && fruitless < 8 {
            let round_start = self.obs.as_deref().map(Observability::now_ns);
            if self.evict_round(budget) {
                fruitless = 0;
                if let (Some(obs), Some(start)) = (self.obs.as_deref(), round_start) {
                    obs.record_latency(LatencyMetric::StoreEvict, 0, obs.now_ns() - start);
                }
            } else {
                fruitless += 1;
            }
        }
    }

    /// Samples up to [`EVICTION_SAMPLE_BUCKETS`] non-empty buckets starting
    /// at a rotating cursor, then evicts the sample's entries oldest first
    /// until the budget holds or the sample is exhausted. Returns true when
    /// at least one entry was removed.
    fn evict_round(&self, budget: usize) -> bool {
        let n = self.buckets.len();
        let start = self.evict_cursor.0.fetch_add(1, Ordering::Relaxed) % n;
        // (inserted_seq, bucket): the stamp orders and identifies.
        let mut gathered: Vec<(u64, usize)> = Vec::new();
        let mut sampled = 0usize;
        for step in 0..n {
            let b = (start + step) % n;
            let before = gathered.len();
            gathered.extend(
                self.buckets[b]
                    .entries
                    .read()
                    .iter()
                    .map(|e| (e.inserted_seq, b)),
            );
            if gathered.len() > before {
                sampled += 1;
                if sampled >= EVICTION_SAMPLE_BUCKETS {
                    break;
                }
            }
        }
        // Stamps are unique (one global clock), so this is a total order.
        gathered.sort_unstable_by_key(|g| g.0);

        let mut evicted_any = false;
        for (seq, b) in gathered {
            if self.resident_bytes.0.load(Ordering::Relaxed) <= budget {
                break;
            }
            let bucket = &self.buckets[b];
            let mut entries = bucket.entries.write();
            // A raced-away victim (evicted, or replaced under a newer
            // stamp) just drops out of the sample.
            let Some(i) = entries.iter().position(|e| e.inserted_seq == seq) else {
                continue;
            };
            let victim = entries.remove(i);
            bucket.stats.entries.fetch_sub(1, Ordering::Relaxed);
            bucket.stats.evictions.fetch_add(1, Ordering::Relaxed);
            drop(entries);
            self.resident_bytes
                .0
                .fetch_sub(victim.charged_bytes, Ordering::Relaxed);
            evicted_any = true;
            if let Some(obs) = &self.obs {
                let (decision, bytes) = (MemoDecision::Eviction, victim.charged_bytes);
                Self::record_decision(obs, b, decision, &victim.key, victim.producer, bytes);
            }
        }
        evicted_any
    }

    /// Total number of stored entries (from the per-bucket entry counters,
    /// no locks).
    pub fn len(&self) -> usize {
        self.buckets
            .iter()
            .map(|b| b.stats.entries.load(Ordering::Relaxed) as usize)
            .sum()
    }

    /// True when the store holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes currently charged against the budget (keys, container overhead
    /// and outputs), the main contributor to the ATM memory overhead of
    /// Table III.
    pub fn memory_bytes(&self) -> usize {
        self.resident_bytes.0.load(Ordering::Relaxed)
    }

    /// Counter snapshot: one pass over the per-bucket writer blocks plus one
    /// pass over the reader stripes.
    ///
    /// **Consistency model.** Every individual counter is exact and
    /// monotone (gauges — `entries`, `resident_bytes` — are exact values,
    /// not monotone). The snapshot as a whole is *not* linearizable across
    /// counters: it is assembled while other threads run, so transient
    /// cross-counter skew (e.g. an insertion counted whose entry is not yet
    /// in `entries`) is possible. Quiescent snapshots — taken while no
    /// lookup or insert is in flight, which is how every report in this
    /// workspace reads them — are exact in all fields.
    pub fn counters(&self) -> StoreCountersSnapshot {
        let mut snap = StoreCountersSnapshot {
            resident_bytes: self.memory_bytes() as u64,
            ..Default::default()
        };
        for bucket in &self.buckets {
            snap.insertions += bucket.stats.insertions.load(Ordering::Relaxed);
            snap.evictions += bucket.stats.evictions.load(Ordering::Relaxed);
            snap.rejected_admissions += bucket.stats.rejected_admissions.load(Ordering::Relaxed);
            snap.entries += bucket.stats.entries.load(Ordering::Relaxed);
        }
        for shard in self.reader_stats.iter() {
            snap.hits += shard.hits.load(Ordering::Relaxed);
            snap.misses += shard.misses.load(Ordering::Relaxed);
            snap.saved_ns += shard.saved_ns.load(Ordering::Relaxed);
        }
        snap
    }

    /// All resident entries, in bucket order then queue order — the THT's
    /// per-bucket queues, read one bucket at a time. This is the view the
    /// persistence layer serialises.
    pub fn export(&self) -> Vec<ExportedEntry> {
        let mut out = Vec::new();
        for bucket in &self.buckets {
            out.extend(bucket.entries.read().iter().map(|e| ExportedEntry {
                key: e.key,
                producer: e.producer,
                benefit_ns: e.benefit_ns,
                outputs: Arc::clone(&e.outputs),
            }));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atm_runtime::{RegionData, RegionId};

    /// Builds the stored outputs directly. The previous helper registered a
    /// fresh `DataStore` region per call and then had
    /// `OutputSnapshot::capture` copy the values back out of it — two
    /// allocations and a full clone of every value slice per stored entry,
    /// for regions the store never dereferences.
    fn snapshot(values: &[f32]) -> Arc<Vec<OutputSnapshot>> {
        Arc::new(vec![OutputSnapshot {
            region: RegionId::from_raw(0),
            elem_range: 0..values.len(),
            data: RegionData::F32(values.to_vec()),
        }])
    }

    fn key(hash: u64) -> EntryKey {
        EntryKey::new(TaskTypeId::from_raw(0), hash, 1.0)
    }

    fn producer(id: u64) -> TaskId {
        TaskId::from_raw(id)
    }

    fn one_bucket(ways: usize) -> StoreConfig {
        StoreConfig::paper(0, ways)
    }

    #[test]
    fn same_key_insert_replaces_without_double_counting() {
        let store = MemoStore::new(one_bucket(8));
        store.insert(key(1), producer(0), snapshot(&[1.0; 64]), 0);
        let after_first = store.memory_bytes();
        assert!(after_first > 0);
        // Same key again: the entry is replaced in place, the old bytes are
        // released, and nothing is evicted.
        let outcome = store.insert(key(1), producer(1), snapshot(&[2.0; 64]), 0);
        assert_eq!(outcome, InsertOutcome::Replaced);
        assert_eq!(store.len(), 1);
        assert_eq!(
            store.memory_bytes(),
            after_first,
            "replacing an equal-sized entry must not change the accounting"
        );
        let counters = store.counters();
        assert_eq!(counters.insertions, 2);
        assert_eq!(counters.evictions, 0);
        // The replacement's outputs win.
        let hit = store.lookup(&key(1)).unwrap();
        assert_eq!(hit.outputs[0].data.as_f32(), &[2.0; 64]);
        assert_eq!(hit.producer, producer(1));
    }

    #[test]
    fn charge_includes_container_overhead() {
        let outputs = snapshot(&[0.0; 100]);
        let charge = entry_charge_bytes(&outputs);
        let payload = 400; // 100 f32
        assert!(
            charge > payload + std::mem::size_of::<OutputSnapshot>(),
            "charge {charge} must cover the payload plus per-output and container overhead"
        );
    }

    #[test]
    fn global_budget_is_enforced_across_shards() {
        // Generous ways: only the global budget can evict. With 16 buckets
        // the eviction sample is part of the store, so only the byte bound
        // is exact; with 4 the sample is the whole store and the budget
        // evicts in global FIFO order.
        let budget = 8 * 1024;
        let fits = (budget / entry_charge_bytes(&snapshot(&[0.0; 256]))) as u64;
        let n = 64u64;
        for bucket_bits in [4, 2] {
            let store =
                MemoStore::new(StoreConfig::paper(bucket_bits, 1024).with_byte_budget(budget));
            for i in 0..n {
                // Distinct buckets (low bits vary).
                store.insert(key(i), producer(i), snapshot(&[i as f32; 256]), 0);
            }
            assert!(
                store.memory_bytes() <= budget,
                "resident bytes {} exceed the budget",
                store.memory_bytes()
            );
            let counters = store.counters();
            assert!(counters.evictions > 0, "the budget must have evicted");
            assert_eq!(counters.entries, store.len() as u64);
            if store.bucket_count() <= EVICTION_SAMPLE_BUCKETS {
                assert_eq!(counters.evictions, n - fits);
                for i in 0..n {
                    let newest = i >= n - fits;
                    assert_eq!(store.lookup(&key(i)).is_some(), newest, "key {i}");
                }
            }
        }
    }

    /// Three inserters on overlapping keys and a reader, against a budget a
    /// few entries wide. A charge is added before its entry is visible and
    /// subtracted only for entries that were, so at quiescence the byte
    /// gauge is exactly the charge of what is resident, within the budget.
    #[test]
    fn concurrent_inserts_keep_the_budget_accounting_exact() {
        let entry = entry_charge_bytes(&snapshot(&[0.0; 16]));
        let budget = 6 * entry + entry / 2;
        let store = MemoStore::new(StoreConfig::paper(2, 4).with_byte_budget(budget));
        std::thread::scope(|scope| {
            for t in 0..3u64 {
                let store = &store;
                scope.spawn(move || {
                    for i in 0..3_000u64 {
                        let k = (i * 7 + t * 5) % 24;
                        // Sizes vary, so a replacement changes the charge.
                        let len = 16 * (1 + ((i + t) % 3) as usize);
                        store.insert(key(k), producer(t), snapshot(&vec![k as f32; len]), 0);
                    }
                });
            }
            scope.spawn(|| {
                for i in 0..6_000u64 {
                    if let Some(hit) = store.lookup(&key(i % 24)) {
                        let values = hit.outputs[0].data.as_f32();
                        assert!(values.iter().all(|v| *v == (i % 24) as f32), "wrong entry");
                    }
                }
            });
        });
        let exported = store.export();
        let charged: usize = exported
            .iter()
            .map(|e| entry_charge_bytes(&e.outputs))
            .sum();
        assert!(
            store.memory_bytes() <= budget,
            "resident bytes {} exceed the budget {budget}",
            store.memory_bytes()
        );
        assert_eq!(store.memory_bytes(), charged);
        let counters = store.counters();
        assert_eq!(counters.entries, exported.len() as u64);
        assert!(counters.evictions > 0, "the budget must have evicted");
    }

    #[test]
    fn admission_control_rejects_oversized_entries() {
        let outputs = snapshot(&[1.0; 512]);
        let charge = entry_charge_bytes(&outputs);
        // One byte short of the entry's charge: refused, nothing evicted.
        let store = MemoStore::new(StoreConfig::default().with_byte_budget(charge - 1));
        store.insert(key(2), producer(0), snapshot(&[1.0; 8]), 0);
        let outcome = store.insert(key(1), producer(0), Arc::clone(&outputs), 0);
        assert_eq!(outcome, InsertOutcome::Rejected);
        assert_eq!(store.counters().rejected_admissions, 1);
        assert_eq!(store.counters().evictions, 0);
        assert!(store.lookup(&key(2)).is_some(), "a refusal flushes nothing");
        // An entry exactly as large as the budget is admitted.
        let store = MemoStore::new(StoreConfig::default().with_byte_budget(charge));
        let outcome = store.insert(key(1), producer(0), outputs, 0);
        assert_eq!(outcome, InsertOutcome::Inserted);
        assert_eq!(store.counters().rejected_admissions, 0);
        assert_eq!(store.memory_bytes(), charge);
    }

    #[test]
    fn fifo_with_unlimited_budget_matches_the_paper_tht() {
        let store = MemoStore::new(one_bucket(2));
        for hash_high in 0..4u64 {
            store.insert(
                key(hash_high << 32),
                producer(hash_high),
                snapshot(&[hash_high as f32]),
                0,
            );
        }
        assert_eq!(store.len(), 2);
        let counters = store.counters();
        assert_eq!(counters.insertions, 4);
        assert_eq!(counters.evictions, 2);
        assert!(store.lookup(&key(2 << 32)).is_some());
        assert!(store.lookup(&key(3 << 32)).is_some());
        assert!(store.lookup(&key(0)).is_none());
    }

    #[test]
    fn saved_ns_counts_only_reported_bypasses() {
        let store = MemoStore::new(StoreConfig::default());
        store.insert(key(9), producer(0), snapshot(&[1.0]), 750);
        // A lookup alone saves nothing — the caller may execute anyway.
        let hit = store.lookup(&key(9)).unwrap();
        assert_eq!(store.counters().saved_ns, 0);
        // The caller reports the hits that genuinely replaced an execution.
        store.note_saved(hit.benefit_ns);
        store.note_saved(hit.benefit_ns);
        assert!(store.lookup(&key(10)).is_none());
        let counters = store.counters();
        assert_eq!(counters.hits, 1);
        assert_eq!(counters.misses, 1);
        assert_eq!(counters.saved_ns, 1500);
    }

    #[test]
    #[should_panic(expected = "at least one way")]
    fn zero_ways_is_rejected() {
        let _ = MemoStore::new(StoreConfig {
            ways: 0,
            ..Default::default()
        });
    }

    #[test]
    fn concurrent_readers_survive_replacement_storms() {
        // Hammer one key with concurrent replacements while readers look it
        // up: every hit must observe one whole entry (uniform payload,
        // matching producer).
        let store = MemoStore::new(one_bucket(2));
        store.insert(key(7), producer(0), snapshot(&[0.0; 32]), 0);
        std::thread::scope(|scope| {
            for _ in 0..3 {
                scope.spawn(|| {
                    for _ in 0..20_000 {
                        if let Some(hit) = store.lookup(&key(7)) {
                            let values = hit.outputs[0].data.as_f32();
                            let first = values[0];
                            assert!(values.iter().all(|v| *v == first), "torn payload");
                            assert_eq!(
                                hit.producer,
                                producer(first as u64),
                                "producer and payload must publish atomically"
                            );
                        }
                    }
                });
            }
            scope.spawn(|| {
                for i in 1..=2_000u64 {
                    store.insert(key(7), producer(i), snapshot(&[i as f32; 32]), 0);
                }
            });
        });
        let hit = store.lookup(&key(7)).unwrap();
        assert_eq!(hit.producer, producer(2_000));
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn observability_records_latencies_and_store_decisions() {
        let obs = Arc::new(Observability::enabled());
        let mut store = MemoStore::new(one_bucket(1));
        store.set_observability(Arc::clone(&obs));

        // Two distinct keys into a 1-way bucket: the second insert evicts
        // the first (FIFO).
        store.insert(key(1), producer(0), snapshot(&[1.0; 8]), 0);
        store.insert(key(2), producer(1), snapshot(&[2.0; 8]), 0);

        let decisions = obs.decisions();
        assert_eq!(decisions.count(0, MemoDecision::Eviction), 1);
        let evicted = &decisions.records_for(0)[0];
        assert_eq!(evicted.decision, MemoDecision::Eviction);
        assert_eq!(evicted.task_id, 0, "the FIFO victim is the first producer");
        assert!(evicted.metric_value > 0.0, "eviction reports freed bytes");
        let metrics = obs.metrics();
        assert_eq!(metrics.get(LatencyMetric::StoreInsert).count, 2);

        // A budget smaller than the entry refuses it and says so.
        let mut capped = MemoStore::new(StoreConfig {
            byte_budget: Some(64),
            ..one_bucket(8)
        });
        capped.set_observability(Arc::clone(&obs));
        let outcome = capped.insert(key(3), producer(7), snapshot(&[3.0; 64]), 0);
        assert_eq!(outcome, InsertOutcome::Rejected);
        assert_eq!(obs.decisions().count(0, MemoDecision::AdmissionDenied), 1);
        // A bounded handle keeps no per-insert byte samples.
        assert!(obs.store_bytes_samples().is_empty());
    }

    /// The store's events land on the handle's timeline, not on a clock of
    /// the store's own: a store built (well) before the handle still stamps
    /// its budget evictions and byte samples between two readings of the
    /// handle's clock taken around the insert.
    #[test]
    fn store_events_are_stamped_on_the_handles_clock() {
        let entry = entry_charge_bytes(&snapshot(&[0.0; 64]));
        let mut store = MemoStore::new(StoreConfig {
            byte_budget: Some(2 * entry),
            ..one_bucket(8)
        });
        std::thread::sleep(std::time::Duration::from_millis(5));
        let obs = Arc::new(Observability::capture());
        store.set_observability(Arc::clone(&obs));
        store.insert(key(1), producer(1), snapshot(&[1.0; 64]), 0);
        store.insert(key(2), producer(2), snapshot(&[2.0; 64]), 0);

        let before = obs.now_ns();
        store.insert(key(3), producer(3), snapshot(&[3.0; 64]), 0);
        let after = obs.now_ns();

        let decisions = obs.decisions();
        assert_eq!(decisions.count(0, MemoDecision::Eviction), 1);
        let eviction = decisions.records.last().unwrap();
        assert_eq!(eviction.decision, MemoDecision::Eviction);
        assert!(
            (before..=after).contains(&eviction.t_ns),
            "eviction at {} outside [{before}, {after}]",
            eviction.t_ns
        );
        let samples = obs.store_bytes_samples();
        assert_eq!(samples.len(), 3, "one byte sample per insert");
        let last = samples.last().unwrap();
        assert!((before..=after).contains(&last.t_ns));
        assert_eq!(last.value, store.memory_bytes() as u64);
        assert!(last.value <= 2 * entry as u64);
    }
}
