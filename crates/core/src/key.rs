//! Hash-key generation for task instances.
//!
//! Combines the runtime's view of a task (its read accesses over typed
//! regions) with the `atm-hash` machinery (§III-B/§III-C of the paper) into
//! the 8-byte lookup3 key stored in the THT/IKT. A key costs one word-wide
//! pass over the bytes that *changed*:
//!
//! * **Exact arguments** (`p` = 100 %) contribute a *digest*: the four-lane
//!   [`atm_hash::digest`] of the argument's bytes under the fixed
//!   [`DIGEST_SEED`], fed 64-bit words straight from the typed storage. An
//!   argument is always a whole region, and its digest is cached in the
//!   region's digest slot, tagged with the region's write version
//!   ([`RegionRead::digest_or_fill`]): a region nobody wrote since it was
//!   last hashed is identified by its version, not re-read. The key is
//!   lookup3, under the task type's seed, over the arguments'
//!   contributions `d₀‖…‖dₙ`.
//! * **Sampled arguments** (the non-exact arguments of a type that pins
//!   others with `arg_exact(i)`) contribute the lookup3 of their selected
//!   bytes.
//! * **Uniformly sampled instances** (one `p` < 100 % for every argument —
//!   Dynamic ATM's shape) hash the selected bytes of the whole input in the
//!   order of the per-type shuffled index vector, as the paper describes,
//!   bit-identical to the original single-`p` pipeline. The shuffle is
//!   resolved once per (shape, `p`) into a plan of (segment, element, byte
//!   lane) triples cached beside it, so each selected byte costs one
//!   indexed load and a shift: the cost of a key stays proportional to the
//!   number of *selected* bytes, which is what makes Dynamic ATM's small
//!   `p` values reduce the hashing overhead (the gap between "Static ATM"
//!   and "Oracle (100%)" in Figure 3).
//!
//! The engine keys a task through the region handles it carries from its
//! submission ([`KeyGenerator::compute_resolved`]); the store-taking
//! [`compute`](KeyGenerator::compute) and
//! [`compute_uniform`](KeyGenerator::compute_uniform) resolve first and
//! produce the same keys.

use atm_hash::shuffle::InputSpec;
use atm_hash::{ByteLayout, DigestStream, InputSampler, JenkinsStream, Percentage, PlannedByte};
use atm_runtime::{Access, DataStore, ElemWindow, RegionData, RegionRead, RegionRef, WordSink};
use atm_sync::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

#[cfg(debug_assertions)]
use atm_sync::atomic::{AtomicU64, Ordering};

/// Seed of the per-argument digests of exact arguments. One constant for
/// every task type, engine and key seed: a region has a single digest slot,
/// and what it caches must not depend on who asks. The task type's own seed
/// enters where the digests are combined into the key.
pub const DIGEST_SEED: u64 = 0xD16E_57ED_0A7B_5EED;

/// Read accesses held in a fixed stack array on the sampled key path; more
/// than this many read arguments falls back to heap-allocated guard vectors.
const INLINE_READS: usize = 8;

/// Reusable scratch for [`KeyGenerator::compute_resolved`]: the one
/// heap-backed temporary the key pipeline needs, owned by the caller (the
/// engine keeps one per worker) so the steady-state lookup path performs no
/// allocation — it reaches its high-water capacity during warm-up and is
/// only cleared afterwards.
#[derive(Debug, Default)]
pub struct KeyScratch {
    /// `(elements, elem_width)` of each read access (the sampled shape
    /// looks its plan up by it).
    signature: LayoutSignature,
}

impl KeyScratch {
    /// Creates an empty scratch; capacity grows on first use.
    pub fn new() -> Self {
        KeyScratch::default()
    }
}

/// Shape of a task instance's inputs: `(elements, elem_width)` per read
/// access. Task types normally have a fixed shape, but the paper explicitly
/// supports input sizes that vary at execution time, so samplers are cached
/// per shape.
pub type LayoutSignature = Vec<(usize, usize)>;

/// Cache of per-argument samplers, keyed by the read-argument index and its
/// `(elements, elem_width)` shape.
type ArgSamplerCache = HashMap<(usize, (usize, usize)), CachedSampler>;

/// A cached shuffle and, beside it, the plans derived from it: one per
/// selection size requested so far (a training run climbs at most the 16
/// rungs of the precision ladder).
#[derive(Debug)]
struct CachedSampler {
    sampler: InputSampler,
    plans: Vec<Arc<[PlannedByte]>>,
}

impl CachedSampler {
    fn new(specs: Vec<InputSpec>, type_aware: bool, seed: u64) -> Self {
        CachedSampler {
            sampler: InputSampler::new(ByteLayout::new(specs), type_aware, seed),
            plans: Vec::new(),
        }
    }

    /// The plan selecting `p` of the input (a prefix of the shuffle, so its
    /// length identifies it), built on first use.
    fn plan(&mut self, p: Percentage) -> Arc<[PlannedByte]> {
        let selected = p.bytes_of(self.sampler.total_bytes());
        if let Some(plan) = self.plans.iter().find(|plan| plan.len() == selected) {
            return Arc::clone(plan);
        }
        let plan: Arc<[PlannedByte]> = self.sampler.plan(p).into();
        self.plans.push(Arc::clone(&plan));
        plan
    }

    fn memory_bytes(&self) -> usize {
        let plans: usize = self.plans.iter().map(|plan| plan.len()).sum();
        self.sampler.memory_bytes() + plans * std::mem::size_of::<PlannedByte>()
    }
}

/// Feeds a region's words into a digest stream.
struct DigestSink(DigestStream);

impl WordSink for DigestSink {
    #[inline]
    fn words(&mut self, words: impl Iterator<Item = u64>) {
        self.0.push_words(words);
    }

    #[inline]
    fn bytes(&mut self, bytes: &[u8]) {
        self.0.push_slice(bytes);
    }
}

/// The read accesses of a task paired with their resolved regions, in
/// declaration order.
fn reads<'a>(
    accesses: &'a [Access],
    regions: &'a [RegionRef],
) -> impl Iterator<Item = (&'a Access, &'a RegionRef)> {
    accesses
        .iter()
        .zip(regions)
        .filter(|(a, _)| a.mode.is_read())
}

/// The digest of the little-endian bytes of `window`, a word at a time from
/// the typed storage: [`atm_hash::digest64`] of [`RegionData::to_bytes`],
/// without the serialisation.
fn digest_of(window: ElemWindow<'_>) -> u64 {
    let mut sink = DigestSink(DigestStream::new(DIGEST_SEED));
    window.le_words(&mut sink);
    sink.0.finish()
}

/// lookup3 over the bytes `plan` selects, in plan order; `segments[i]` is
/// the window of the plan's segment `i`. The scattered bytes are gathered a
/// few blocks at a time so the hasher takes them as whole blocks.
fn hash_planned(plan: &[PlannedByte], segments: &[ElemWindow<'_>], seed: u64) -> u64 {
    const GATHER: usize = 32 * 12;
    let mut stream = JenkinsStream::new(seed, plan.len());
    let mut gathered = [0u8; GATHER];
    for chunk in plan.chunks(GATHER) {
        for (byte, planned) in gathered.iter_mut().zip(chunk) {
            *byte =
                segments[usize::from(planned.segment)].lane(planned.elem as usize, planned.lane);
        }
        stream.push_slice(&gathered[..chunk.len()]);
    }
    stream.finish()
}

/// Per-task-type hash-key generator with cached shuffled index vectors.
///
/// Precision is a *vector*: every read access carries its own selection
/// percentage, which is how a [`MemoSpec`](atm_runtime::MemoSpec)'s
/// per-argument overrides reach the key pipeline (a small control argument
/// hashed exactly, a large field argument hashed at the trained `p`). When
/// every entry of the vector is the same `p` < 100 % — Dynamic ATM's
/// default, override-free case — the generator walks the exact same
/// whole-layout shuffle as the original single-`p` implementation, so those
/// keys are bit-identical to the paper reproduction's.
#[derive(Debug)]
pub struct KeyGenerator {
    samplers: Mutex<HashMap<LayoutSignature, CachedSampler>>,
    /// Per-argument samplers for mixed-precision instances.
    arg_samplers: Mutex<ArgSamplerCache>,
    type_aware: bool,
    seed: u64,
    /// Debug-build odometers of the key path. See
    /// [`alloc_events`](Self::alloc_events),
    /// [`digest_hits`](Self::digest_hits).
    #[cfg(debug_assertions)]
    counters: DebugCounters,
}

#[cfg(debug_assertions)]
#[derive(Debug, Default)]
struct DebugCounters {
    alloc_events: AtomicU64,
    digest_hits: AtomicU64,
    digest_fills: AtomicU64,
}

impl KeyGenerator {
    /// Creates a generator for one task type. `seed` makes the index
    /// shuffle (and therefore the keys) reproducible; `type_aware` selects
    /// the significance-ordered byte selection of §III-C.
    pub fn new(seed: u64, type_aware: bool) -> Self {
        KeyGenerator {
            samplers: Mutex::new(HashMap::new()),
            arg_samplers: Mutex::new(HashMap::new()),
            type_aware,
            seed,
            #[cfg(debug_assertions)]
            counters: DebugCounters::default(),
        }
    }

    /// Number of allocation events the key path has recorded (debug builds
    /// only): sampler and plan builds, scratch growth, inline-guard spills.
    /// A warm generator computing keys over known shapes keeps this flat —
    /// asserted by the `lookup_path_allocations_go_flat_after_warmup` test.
    #[cfg(debug_assertions)]
    pub fn alloc_events(&self) -> u64 {
        self.counters.alloc_events.load(Ordering::Relaxed)
    }

    /// Whole-region exact arguments this generator keyed from a region's
    /// cached digest, without reading the region (debug builds only).
    #[cfg(debug_assertions)]
    pub fn digest_hits(&self) -> u64 {
        self.counters.digest_hits.load(Ordering::Relaxed)
    }

    /// Whole-region exact arguments this generator hashed and published
    /// because the region was written since its slot was last filled (debug
    /// builds only).
    #[cfg(debug_assertions)]
    pub fn digest_fills(&self) -> u64 {
        self.counters.digest_fills.load(Ordering::Relaxed)
    }

    #[cfg(debug_assertions)]
    fn note_alloc(&self) {
        self.counters.alloc_events.fetch_add(1, Ordering::Relaxed);
    }

    #[cfg(not(debug_assertions))]
    #[inline(always)]
    fn note_alloc(&self) {}

    #[cfg(debug_assertions)]
    fn note_digest(&self, filled: bool) {
        let counter = if filled {
            &self.counters.digest_fills
        } else {
            &self.counters.digest_hits
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    #[cfg(not(debug_assertions))]
    #[inline(always)]
    fn note_digest(&self, _filled: bool) {}

    /// Whether type-aware selection is enabled.
    pub fn is_type_aware(&self) -> bool {
        self.type_aware
    }

    /// Computes the hash key of a task instance with one selection
    /// percentage per read access (in access-declaration order), resolving
    /// the accesses' regions through `store` first.
    ///
    /// # Panics
    /// Panics if `precisions` does not have exactly one entry per read
    /// access.
    pub fn compute(
        &self,
        store: &DataStore,
        accesses: &[Access],
        precisions: &[Percentage],
    ) -> KeyResult {
        let regions = store.resolve(accesses);
        self.compute_resolved(accesses, &regions, precisions, &mut KeyScratch::new())
    }

    /// [`compute`](Self::compute) over resolved regions (`regions[i]` is
    /// `accesses[i]`'s) with caller-owned scratch: the hot-path variant the
    /// engine calls with the task's own handles and its per-worker scratch,
    /// so the steady-state lookup reads no registry and performs no heap
    /// allocation. Results are bit-identical to `compute` — handles and
    /// scratch only change *how* the bytes are reached, never what is
    /// hashed.
    ///
    /// # Panics
    /// Panics if `precisions` does not have exactly one entry per read
    /// access.
    pub fn compute_resolved(
        &self,
        accesses: &[Access],
        regions: &[RegionRef],
        precisions: &[Percentage],
        scratch: &mut KeyScratch,
    ) -> KeyResult {
        debug_assert_eq!(accesses.len(), regions.len(), "one region per access");
        let reads = accesses.iter().filter(|a| a.mode.is_read()).count();
        assert_eq!(
            precisions.len(),
            reads,
            "one precision per read access: got {} precisions for {} reads",
            precisions.len(),
            reads
        );
        // One p < 100 % for every argument (no per-argument overrides) goes
        // through the whole-layout shuffle, bit-identical to the single-`p`
        // pipeline; every other vector composes per-argument contributions.
        let uniformly_sampled = precisions.first().is_some_and(|p| !p.is_full())
            && precisions.windows(2).all(|w| w[0] == w[1]);
        if uniformly_sampled {
            self.compute_sampled(accesses, regions, precisions[0], scratch)
        } else {
            self.compute_composed(accesses, regions, precisions)
        }
    }

    /// Exact and mixed-precision keys: lookup3, under the type's seed, over
    /// one 8-byte contribution per read argument — the digest of an exact
    /// argument (served from the region's slot when nobody wrote the region
    /// since it was last digested), the lookup3 of its selected bytes for a
    /// sampled one. One region is locked at a time.
    fn compute_composed(
        &self,
        accesses: &[Access],
        regions: &[RegionRef],
        precisions: &[Percentage],
    ) -> KeyResult {
        let mut key = JenkinsStream::new(self.seed, 8 * precisions.len());
        let (mut selected_bytes, mut total_bytes) = (0usize, 0usize);
        for (arg, ((access, region), &p)) in reads(accesses, regions).zip(precisions).enumerate() {
            let data = region.read();
            let width = access.elem.width();
            let bytes = data.len() * width;
            total_bytes += bytes;
            let contribution = if !p.is_full() {
                let plan = self.arg_plan(arg, (data.len(), width), p);
                selected_bytes += plan.len();
                hash_planned(&plan, &[data.window()], self.seed)
            } else {
                selected_bytes += bytes;
                let mut filled = false;
                let digest = data.digest_or_fill(|whole| {
                    filled = true;
                    digest_of(whole.window())
                });
                self.note_digest(filled);
                digest
            };
            key.push_slice(&contribution.to_le_bytes());
        }
        KeyResult {
            key: key.finish(),
            selected_bytes,
            total_bytes,
        }
    }

    /// Computes the hash key with one uniform selection percentage over all
    /// read accesses (the override-free fast path; also convenient for
    /// benchmarks and tests).
    pub fn compute_uniform(
        &self,
        store: &DataStore,
        accesses: &[Access],
        p: Percentage,
    ) -> KeyResult {
        let reads = accesses.iter().filter(|a| a.mode.is_read()).count();
        self.compute(store, accesses, &vec![p; reads])
    }

    /// Uniformly sampled key: the selected bytes of the whole input, in
    /// shuffle order, through one lookup3 stream.
    fn compute_sampled(
        &self,
        accesses: &[Access],
        regions: &[RegionRef],
        p: Percentage,
        scratch: &mut KeyScratch,
    ) -> KeyResult {
        // The shuffle visits bytes across *all* segments in selection order,
        // so every read region must be locked at once. Up to INLINE_READS
        // regions the guards and windows live on the stack; beyond that we
        // spill to vectors (a counted allocation event).
        let reads_len = reads(accesses, regions).count();
        if reads_len <= INLINE_READS {
            let mut guards: [Option<RegionRead<'_>>; INLINE_READS] = Default::default();
            for (guard, (_, region)) in guards.iter_mut().zip(reads(accesses, regions)) {
                *guard = Some(region.read());
            }
            let mut segments = [ElemWindow::U8(&[]); INLINE_READS];
            let locked = guards.iter().flatten().map(|guard| &**guard);
            let read_accesses = reads(accesses, regions).map(|(access, _)| access);
            self.hash_sampled(read_accesses.zip(locked), &mut segments, p, scratch)
        } else {
            self.note_alloc();
            let guards: Vec<_> = reads(accesses, regions)
                .map(|(_, region)| region.read())
                .collect();
            let mut segments = vec![ElemWindow::U8(&[]); reads_len];
            let locked = guards.iter().map(|guard| &**guard);
            let read_accesses = reads(accesses, regions).map(|(access, _)| access);
            self.hash_sampled(read_accesses.zip(locked), &mut segments, p, scratch)
        }
    }

    /// The body of [`compute_sampled`](Self::compute_sampled) once every
    /// read region is locked: resolves each access's window into
    /// `segments`, looks the plan up by the resulting shape and walks it.
    fn hash_sampled<'a>(
        &self,
        locked: impl Iterator<Item = (&'a Access, &'a RegionData)>,
        segments: &mut [ElemWindow<'a>],
        p: Percentage,
        scratch: &mut KeyScratch,
    ) -> KeyResult {
        let capacity = scratch.signature.capacity();
        scratch.signature.clear();
        let mut total_bytes = 0usize;
        for (segment, (access, data)) in segments.iter_mut().zip(locked) {
            let width = access.elem.width();
            total_bytes += data.len() * width;
            scratch.signature.push((data.len(), width));
            *segment = data.window();
        }
        if scratch.signature.capacity() != capacity {
            self.note_alloc();
        }
        let plan = self.plan(&scratch.signature, p);
        KeyResult {
            key: hash_planned(&plan, segments, self.seed),
            selected_bytes: plan.len(),
            total_bytes,
        }
    }

    /// Memory held by the cached index vectors and the plans derived from
    /// them (Table III accounting).
    pub fn memory_bytes(&self) -> usize {
        let whole: usize = self
            .samplers
            .lock()
            .values()
            .map(CachedSampler::memory_bytes)
            .sum();
        let per_arg: usize = self
            .arg_samplers
            .lock()
            .values()
            .map(CachedSampler::memory_bytes)
            .sum();
        whole + per_arg
    }

    /// The whole-layout plan for `signature` at `p`.
    fn plan(&self, signature: &LayoutSignature, p: Percentage) -> Arc<[PlannedByte]> {
        let mut samplers = self.samplers.lock();
        if !samplers.contains_key(signature) {
            let specs = signature
                .iter()
                .map(|&(elements, elem_width)| InputSpec {
                    elements,
                    elem_width,
                })
                .collect();
            let sampler = CachedSampler::new(specs, self.type_aware, self.seed);
            samplers.insert(signature.clone(), sampler);
        }
        let sampler = samplers.get_mut(signature).expect("inserted above");
        self.plan_of(sampler, p)
    }

    /// The plan over a single argument's bytes, for mixed-precision
    /// instances. The shuffle seed mixes in the argument index so two
    /// same-shaped arguments do not share a selection pattern.
    fn arg_plan(&self, arg: usize, shape: (usize, usize), p: Percentage) -> Arc<[PlannedByte]> {
        let mut samplers = self.arg_samplers.lock();
        let sampler = samplers.entry((arg, shape)).or_insert_with(|| {
            let spec = InputSpec {
                elements: shape.0,
                elem_width: shape.1,
            };
            let seed = self.seed ^ (arg as u64 + 1).wrapping_mul(0xD6E8_FEB8_6659_FD93);
            CachedSampler::new(vec![spec], self.type_aware, seed)
        });
        self.plan_of(sampler, p)
    }

    /// `sampler`'s plan at `p`, counting the build (of the plan, and with
    /// it of a sampler that had none yet) as an allocation event.
    fn plan_of(&self, sampler: &mut CachedSampler, p: Percentage) -> Arc<[PlannedByte]> {
        let plans = sampler.plans.len();
        let plan = sampler.plan(p);
        if sampler.plans.len() != plans {
            self.note_alloc();
        }
        plan
    }
}

/// Result of one key computation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeyResult {
    /// The 8-byte Jenkins key.
    pub key: u64,
    /// Number of input bytes selected and hashed.
    pub selected_bytes: usize,
    /// Total number of input bytes of the task.
    pub total_bytes: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use atm_runtime::Region;

    fn store_with_f32(values: &[f32]) -> (DataStore, Region<f32>) {
        let store = DataStore::new();
        let id = store.register_typed("in", values.to_vec()).unwrap();
        (store, id)
    }

    #[test]
    fn identical_inputs_give_identical_keys_and_changed_inputs_differ() {
        let (store, region) = store_with_f32(&[1.0, 2.0, 3.0, 4.0]);
        let keygen = KeyGenerator::new(1, true);
        let accesses = vec![Access::read(&region)];
        let k1 = keygen.compute_uniform(&store, &accesses, Percentage::FULL);
        let k2 = keygen.compute_uniform(&store, &accesses, Percentage::FULL);
        assert_eq!(k1, k2);
        assert_eq!(k1.total_bytes, 16);
        assert_eq!(k1.selected_bytes, 16);

        store.write(region).lock().as_f32_mut()[2] = 3.5;
        let k3 = keygen.compute_uniform(&store, &accesses, Percentage::FULL);
        assert_ne!(k1.key, k3.key);
    }

    #[test]
    fn sampled_key_matches_between_instances_with_equal_selected_bytes() {
        // Two different regions with data that agrees on the high-order
        // bytes but differs in the low mantissa bits: a small p with
        // type-aware selection must produce the same key for both.
        let store = DataStore::new();
        let a = store
            .register_typed("a", (0..64).map(|i| 1.0 + i as f32).collect::<Vec<_>>())
            .unwrap();
        let b_data: Vec<f32> = (0..64)
            .map(|i| f32::from_bits((1.0f32 + i as f32).to_bits() ^ 0x1))
            .collect();
        let b = store.register_typed("b", b_data).unwrap();
        let keygen = KeyGenerator::new(3, true);
        let p = Percentage::from_fraction(0.25);
        let ka = keygen.compute_uniform(&store, &[Access::read(&a)], p);
        let kb = keygen.compute_uniform(&store, &[Access::read(&b)], p);
        assert_eq!(ka.key, kb.key);
        assert_eq!(ka.selected_bytes, 64);
    }

    #[test]
    fn write_only_accesses_do_not_contribute_to_the_key() {
        let store = DataStore::new();
        let input = store.register_typed("in", vec![1.0f32, 2.0]).unwrap();
        let output = store.register_zeros::<f32>("out", 2).unwrap();
        let keygen = KeyGenerator::new(5, true);
        let accesses = vec![Access::read(&input), Access::write(&output)];
        let k1 = keygen.compute_uniform(&store, &accesses, Percentage::FULL);
        store.write(output).lock().as_f32_mut()[0] = 7.0;
        let k2 = keygen.compute_uniform(&store, &accesses, Percentage::FULL);
        assert_eq!(k1.key, k2.key, "outputs must not affect the key");
    }

    #[test]
    fn sampled_and_full_keys_use_the_same_generator_consistently() {
        let (store, region) = store_with_f32(&[5.0; 1024]);
        let keygen = KeyGenerator::new(11, true);
        let accesses = vec![Access::read(&region)];
        let p = Percentage::from_training_step(3);
        let k_small = keygen.compute_uniform(&store, &accesses, p);
        assert_eq!(k_small.selected_bytes, p.bytes_of(4096));
        assert!(k_small.selected_bytes < k_small.total_bytes);
        // Deterministic across calls.
        assert_eq!(keygen.compute_uniform(&store, &accesses, p), k_small);
    }

    #[test]
    fn different_shapes_get_their_own_samplers() {
        let store = DataStore::new();
        let big = store.register_zeros::<f32>("big", 128).unwrap();
        let small = store.register_zeros::<f32>("small", 16).unwrap();
        let keygen = KeyGenerator::new(2, true);
        let p = Percentage::from_fraction(0.5);
        let _ = keygen.compute_uniform(&store, &[Access::read(&big)], p);
        let _ = keygen.compute_uniform(&store, &[Access::read(&small)], p);
        assert_eq!(keygen.samplers.lock().len(), 2);
        // Per shape: the shuffle (4 B per input byte) and, beside it, the
        // one plan built so far (8 B per byte selected at p = 50 %).
        let input_bytes = 128 * 4 + 16 * 4;
        assert_eq!(
            keygen.memory_bytes(),
            input_bytes * 4 + input_bytes / 2 * std::mem::size_of::<PlannedByte>()
        );
        assert_eq!(std::mem::size_of::<PlannedByte>(), 8);
    }

    #[test]
    fn mixed_precision_hashes_exact_arguments_fully() {
        // Argument 0 is a tiny control argument hashed exactly; argument 1
        // is a large field argument hashed at a small p. Changing any byte
        // of the control argument must change the key, even though the
        // type-wide p would almost never select its bytes.
        let store = DataStore::new();
        let control = store.register_typed("control", vec![7i32, 9]).unwrap();
        let field = store.register_typed("field", vec![1.0f32; 4096]).unwrap();
        let out = store.register_zeros::<f32>("out", 1).unwrap();
        let accesses = vec![
            Access::read(&control),
            Access::read(&field),
            Access::write(&out),
        ];
        let keygen = KeyGenerator::new(21, true);
        let precisions = [Percentage::FULL, Percentage::MIN];
        let k1 = keygen.compute(&store, &accesses, &precisions);
        assert_eq!(keygen.compute(&store, &accesses, &precisions), k1);
        // 8 control bytes + MIN of 16 KiB (at least 1 byte).
        assert_eq!(
            k1.selected_bytes,
            8 + Percentage::MIN.bytes_of(4096 * 4),
            "the exact argument contributes every byte"
        );

        // A low-significance flip in the control argument flips the key…
        store.write(control).lock().as_i32_mut()[1] = 10;
        let k2 = keygen.compute(&store, &accesses, &precisions);
        assert_ne!(k1.key, k2.key, "exact argument must be fully sensitive");

        // …while a low-mantissa flip in the field argument does not (those
        // bytes are the last the significance-ordered shuffle would select).
        store.write(field).lock().as_f32_mut()[17] = f32::from_bits(1.0f32.to_bits() ^ 0x1);
        let k3 = keygen.compute(&store, &accesses, &precisions);
        assert_eq!(
            k2.key, k3.key,
            "approximate argument tolerates low-significance noise"
        );
    }

    #[test]
    fn uniform_vector_matches_the_single_p_pipeline_bit_for_bit() {
        let store = DataStore::new();
        let a = store.register_typed("a", vec![3.5f64; 512]).unwrap();
        let b = store.register_typed("b", vec![-1.25f64; 64]).unwrap();
        let accesses = vec![Access::read(&a), Access::read(&b)];
        let keygen = KeyGenerator::new(13, true);
        for step in [0usize, 4, 9, 15] {
            let p = Percentage::from_training_step(step);
            let uniform = keygen.compute_uniform(&store, &accesses, p);
            let vector = keygen.compute(&store, &accesses, &[p, p]);
            assert_eq!(uniform, vector, "step {step}");
        }
    }

    #[test]
    #[should_panic(expected = "one precision per read access")]
    fn precision_vector_arity_is_checked() {
        let (store, region) = store_with_f32(&[1.0, 2.0]);
        let keygen = KeyGenerator::new(1, true);
        let _ = keygen.compute(
            &store,
            &[Access::read(&region)],
            &[Percentage::FULL, Percentage::FULL],
        );
    }

    /// Property (satellite of the MemoSpec redesign): key selection is
    /// *monotone in precision*. The selected byte set at precision `p` is a
    /// superset of the set at any `p' < p` (a prefix of the same shuffled
    /// index vector), so two inputs whose keys collide at `p` must also
    /// collide at every smaller `p'`.
    #[test]
    fn key_collisions_are_monotone_in_precision() {
        use atm_hash::Xoshiro256StarStar;
        const CASES: usize = 24;
        const ELEMS: usize = 256;
        let mut rng = Xoshiro256StarStar::new(0xC0111D);
        for case in 0..CASES {
            let store = DataStore::new();
            // Input `a` is random; input `b` agrees with `a` except for a
            // random set of low-mantissa bit flips, so the pair collides at
            // small p and (usually) separates as p grows.
            let a_data: Vec<f32> = (0..ELEMS)
                .map(|_| (rng.next_f32() - 0.5) * 1000.0)
                .collect();
            let b_data: Vec<f32> = a_data
                .iter()
                .map(|&v| {
                    if rng.below(4) == 0 {
                        f32::from_bits(v.to_bits() ^ (1u32 << rng.below(10)))
                    } else {
                        v
                    }
                })
                .collect();
            let a = store.register_typed(format!("a{case}"), a_data).unwrap();
            let b = store.register_typed(format!("b{case}"), b_data).unwrap();
            let keygen = KeyGenerator::new(rng.next_u64(), true);

            let keys_at = |accesses: &[Access], step: usize| {
                keygen
                    .compute_uniform(&store, accesses, Percentage::from_training_step(step))
                    .key
            };
            let acc_a = vec![Access::read(&a)];
            let acc_b = vec![Access::read(&b)];
            let collides: Vec<bool> = (0..=Percentage::STEPS)
                .map(|step| keys_at(&acc_a, step) == keys_at(&acc_b, step))
                .collect();
            for hi in 0..collides.len() {
                if collides[hi] {
                    for (lo, &collides_lo) in collides.iter().enumerate().take(hi) {
                        assert!(
                            collides_lo,
                            "case {case}: keys collide at step {hi} but not at \
                             smaller step {lo} — selection is not monotone"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn scratch_and_plain_compute_agree_on_every_path() {
        // `compute_resolved` must be bit-identical to `compute` on the
        // uniform-full, uniform-sampled and mixed-precision paths alike.
        let store = DataStore::new();
        let a = store.register_typed("a", vec![1.5f32; 300]).unwrap();
        let b = store.register_typed("b", vec![9i64; 40]).unwrap();
        let accesses = vec![Access::read(&a), Access::read(&b)];
        let regions = store.resolve(&accesses);
        let keygen = KeyGenerator::new(77, true);
        let mut scratch = KeyScratch::new();
        let cases: Vec<Vec<Percentage>> = vec![
            vec![Percentage::FULL, Percentage::FULL],
            vec![
                Percentage::from_fraction(0.25),
                Percentage::from_fraction(0.25),
            ],
            vec![Percentage::MIN, Percentage::MIN],
            vec![Percentage::FULL, Percentage::MIN],
            vec![Percentage::from_fraction(0.5), Percentage::FULL],
        ];
        for precisions in &cases {
            let plain = keygen.compute(&store, &accesses, precisions);
            let scratched = keygen.compute_resolved(&accesses, &regions, precisions, &mut scratch);
            assert_eq!(plain, scratched, "precisions {precisions:?}");
        }
    }

    #[cfg(debug_assertions)]
    #[test]
    fn lookup_path_allocations_go_flat_after_warmup() {
        // The zero-steady-state-allocation claim: once the samplers are
        // built and the per-worker scratch has reached its high-water
        // capacity, repeated key computations record no further allocation
        // events — on the uniform paths and the mixed gather path alike.
        let store = DataStore::new();
        let a = store.register_typed("a", vec![2.5f32; 512]).unwrap();
        let b = store.register_typed("b", vec![3i32; 128]).unwrap();
        let accesses = vec![Access::read(&a), Access::read(&b)];
        let regions = store.resolve(&accesses);
        let keygen = KeyGenerator::new(5, true);
        let mut scratch = KeyScratch::new();
        let uniform = [Percentage::from_fraction(0.25); 2];
        let full = [Percentage::FULL; 2];
        let mixed = [Percentage::FULL, Percentage::MIN];
        let compute_all = |scratch: &mut KeyScratch| {
            for precisions in [&uniform, &full, &mixed] {
                let _ = keygen.compute_resolved(&accesses, &regions, precisions, scratch);
            }
        };
        for _ in 0..3 {
            compute_all(&mut scratch);
        }
        let warmed = keygen.alloc_events();
        for _ in 0..1_000 {
            compute_all(&mut scratch);
        }
        assert_eq!(
            keygen.alloc_events(),
            warmed,
            "steady-state lookups must not allocate"
        );
    }

    #[test]
    fn empty_inputs_produce_a_stable_key() {
        let store = DataStore::new();
        let out = store.register_zeros::<f32>("out", 1).unwrap();
        let keygen = KeyGenerator::new(1, true);
        let accesses = vec![Access::write(&out)];
        let k1 = keygen.compute_uniform(&store, &accesses, Percentage::FULL);
        let k2 = keygen.compute_uniform(&store, &accesses, Percentage::MIN);
        assert_eq!(k1.key, k2.key);
        assert_eq!(k1.total_bytes, 0);
    }
}
