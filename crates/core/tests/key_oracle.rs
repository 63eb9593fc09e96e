//! The key cache may never lie: differential tests of the key generator —
//! word-wide hashing, sampling plans, version-tagged region digests —
//! against a from-scratch reference.
//!
//! The reference ([`reference_key`]) is deliberately the slow, obvious way:
//! serialise each argument ([`RegionData::to_bytes`]), digest an
//! exact one in one shot ([`digest64`]) and hash everything else in one
//! shot ([`jenkins_hash64`]); for sampled shapes walk the shuffle with
//! [`ByteLayout::locate`] and [`RegionData::byte_at`], a byte at a time —
//! the production walk before sampling plans, kept here as the oracle. It
//! never looks at a version or a digest slot, so any key served from a
//! stale digest, any plan entry that names the wrong byte and any word the
//! streaming hasher mis-steps shows up as a mismatch.
//!
//! The generator is driven the way the engine drives it — through the
//! region handles a task carries from its submission
//! ([`KeyGenerator::compute_resolved`]) — while the programs write their
//! regions through every entry point there is: the store
//! ([`DataStore::write`], [`DataStore::restore`]) and a resolved
//! [`RegionRef`] alike. Two ways in, one version counter: no served key may
//! tell them apart.
//!
//! Cases come from the repo's own PRNG, so a failure reproduces from the
//! step number it prints.

use atm_core::key::{KeyScratch, DIGEST_SEED};
use atm_core::{AtmConfig, AtmEngine, KeyGenerator, OutputSnapshot, Percentage};
use atm_hash::shuffle::InputSpec;
use atm_hash::{
    digest64, jenkins_hash64, ByteLayout, InputSampler, JenkinsStream, Xoshiro256StarStar,
};
use atm_runtime::{
    Access, AccessMode, DataStore, Decision, Elem, ElemType, MemoSpec, Region, RegionData,
    RegionId, RegionRef, TaskContext, TaskId, TaskInterceptor, TaskTypeBuilder, TaskTypeId,
    TaskTypeInfo, TaskView, Tracer,
};
use std::ops::Range;

/// The key `KeyGenerator::new(seed, type_aware)` must serve for these
/// accesses and precisions, recomputed from the bytes alone.
fn reference_key(
    store: &DataStore,
    accesses: &[Access],
    precisions: &[Percentage],
    seed: u64,
    type_aware: bool,
) -> u64 {
    let reads: Vec<&Access> = accesses.iter().filter(|a| a.mode.is_read()).collect();
    assert_eq!(reads.len(), precisions.len());
    let contents: Vec<RegionData> = reads.iter().map(|a| store.snapshot(a.region)).collect();
    let spec_of = |(access, data): (&&Access, &RegionData)| InputSpec {
        elements: data.len(),
        elem_width: access.elem.width(),
    };

    // One p < 100 % for every argument: the paper's pipeline — the selected
    // bytes of the concatenated input, in shuffle order, one hash.
    let uniformly_sampled = precisions.first().is_some_and(|p| !p.is_full())
        && precisions.windows(2).all(|w| w[0] == w[1]);
    if uniformly_sampled {
        let layout = ByteLayout::new(reads.iter().zip(&contents).map(spec_of).collect());
        let sampler = InputSampler::new(layout.clone(), type_aware, seed);
        let selected = sampler.selected_indices(precisions[0]);
        let mut stream = JenkinsStream::new(seed, selected.len());
        for &flat in selected {
            let (segment, offset) = layout.locate(flat as usize);
            stream.push(contents[segment].byte_at(offset));
        }
        return stream.finish();
    }

    // Otherwise: one 8-byte contribution per argument, hashed under the
    // generator's seed.
    let mut contributions = Vec::new();
    for (arg, ((access, data), &p)) in reads.iter().zip(&contents).zip(precisions).enumerate() {
        let contribution = if p.is_full() {
            digest64(&data.to_bytes(), DIGEST_SEED)
        } else {
            let layout = ByteLayout::new(vec![spec_of((access, data))]);
            let arg_seed = seed ^ (arg as u64 + 1).wrapping_mul(0xD6E8_FEB8_6659_FD93);
            let sampler = InputSampler::new(layout, type_aware, arg_seed);
            let bytes: Vec<u8> = sampler
                .selected_indices(p)
                .iter()
                .map(|&flat| data.byte_at(flat as usize))
                .collect();
            jenkins_hash64(&bytes, seed)
        };
        contributions.extend_from_slice(&contribution.to_le_bytes());
    }
    jenkins_hash64(&contributions, seed)
}

/// Asserts the key the generator serves through the accesses' resolved
/// regions equals the reference.
fn assert_key_matches(
    context: &str,
    keygen: &KeyGenerator,
    (seed, type_aware): (u64, bool),
    store: &DataStore,
    accesses: &[Access],
    precisions: &[Percentage],
    scratch: &mut KeyScratch,
) {
    let expected = reference_key(store, accesses, precisions, seed, type_aware);
    let regions = store.resolve(accesses);
    let served = keygen.compute_resolved(accesses, &regions, precisions, scratch);
    assert_eq!(
        served.key, expected,
        "{context}: served key differs from the from-scratch reference \
         (accesses {accesses:?}, precisions {precisions:?})"
    );
}

// ---------------------------------------------------------------------------
// Sampled-plan keys equal the locate + byte_at walk on every (signature, p)
// the KeyGenerator unit suites use.
// ---------------------------------------------------------------------------

#[test]
fn planned_keys_equal_the_locate_and_byte_at_walk_on_the_unit_suites_shapes() {
    let ladder: Vec<Percentage> = (0..=Percentage::STEPS)
        .map(Percentage::from_training_step)
        .collect();
    let quarter = Percentage::from_fraction(0.25);
    let half = Percentage::from_fraction(0.5);
    let store = DataStore::new();
    let mut cases: Vec<(Vec<Access>, Vec<Percentage>, u64, bool)> = Vec::new();
    let uniform = |accesses: &[Access], p: Percentage| {
        let reads = accesses.iter().filter(|a| a.mode.is_read()).count();
        vec![p; reads]
    };

    // identical_inputs… / scratch_and_plain… / precision_vector_arity…
    let four = store
        .register_typed("four", vec![1.0f32, 2.0, 3.0, 4.0])
        .unwrap();
    cases.push((vec![Access::read(&four)], vec![Percentage::FULL], 1, true));
    // sampled_key_matches_between_instances…
    let a64 = store
        .register_typed("a64", (0..64).map(|i| 1.0 + i as f32).collect::<Vec<_>>())
        .unwrap();
    cases.push((vec![Access::read(&a64)], vec![quarter], 3, true));
    // write_only_accesses_do_not_contribute… / empty_inputs…
    let out = store.register_zeros::<f32>("out", 2).unwrap();
    let with_output = vec![Access::read(&four), Access::write(&out)];
    cases.push((with_output.clone(), vec![Percentage::FULL], 5, true));
    cases.push((vec![Access::write(&out)], vec![], 1, true));
    // sampled_and_full_keys_use_the_same_generator…
    let fives = store.register_typed("fives", vec![5.0f32; 1024]).unwrap();
    cases.push((vec![Access::read(&fives)], vec![ladder[3]], 11, true));
    // different_shapes_get_their_own_samplers
    let big = store.register_zeros::<f32>("big", 128).unwrap();
    let small = store.register_zeros::<f32>("small", 16).unwrap();
    cases.push((vec![Access::read(&big)], vec![half], 2, true));
    cases.push((vec![Access::read(&small)], vec![half], 2, true));
    // mixed_precision_hashes_exact_arguments_fully
    let control = store.register_typed("control", vec![7i32, 9]).unwrap();
    let field = store.register_typed("field", vec![1.0f32; 4096]).unwrap();
    let mixed = vec![
        Access::read(&control),
        Access::read(&field),
        Access::write(&out),
    ];
    cases.push((mixed, vec![Percentage::FULL, Percentage::MIN], 21, true));
    // uniform_vector_matches_the_single_p_pipeline…
    let wide = store.register_typed("wide", vec![3.5f64; 512]).unwrap();
    let narrow = store.register_typed("narrow", vec![-1.25f64; 64]).unwrap();
    let pair = vec![Access::read(&wide), Access::read(&narrow)];
    for step in [0usize, 4, 9, 15] {
        cases.push((pair.clone(), uniform(&pair, ladder[step]), 13, true));
    }
    // key_collisions_are_monotone_in_precision: 256 f32 at every rung.
    let mut rng = Xoshiro256StarStar::new(0xC0111D);
    let noisy: Vec<f32> = (0..256).map(|_| (rng.next_f32() - 0.5) * 1000.0).collect();
    let noisy = store.register_typed("noisy", noisy).unwrap();
    for &p in &ladder {
        cases.push((vec![Access::read(&noisy)], vec![p], 0xC0111D, true));
    }
    // scratch_and_plain_compute_agree… / lookup_path_allocations…
    let a300 = store.register_typed("a300", vec![1.5f32; 300]).unwrap();
    let b40 = store.register_typed("b40", vec![9i64; 40]).unwrap();
    let two = vec![Access::read(&a300), Access::read(&b40)];
    for precisions in [
        vec![Percentage::FULL, Percentage::FULL],
        vec![quarter, quarter],
        vec![Percentage::MIN, Percentage::MIN],
        vec![Percentage::FULL, Percentage::MIN],
        vec![half, Percentage::FULL],
    ] {
        cases.push((two.clone(), precisions, 77, true));
    }
    let a512 = store.register_typed("a512", vec![2.5f32; 512]).unwrap();
    let b128 = store.register_typed("b128", vec![3i32; 128]).unwrap();
    let warm = vec![Access::read(&a512), Access::read(&b128)];
    for precisions in [
        vec![quarter, quarter],
        vec![Percentage::FULL, Percentage::FULL],
        vec![Percentage::FULL, Percentage::MIN],
    ] {
        cases.push((warm.clone(), precisions, 5, true));
    }

    let mut scratch = KeyScratch::new();
    for (case, (accesses, precisions, seed, type_aware)) in cases.iter().enumerate() {
        let keygen = KeyGenerator::new(*seed, *type_aware);
        // Twice: a cold generator (plans and digests built) and a warm one
        // (plans and digests served) must both agree with the walk.
        for pass in ["cold", "warm"] {
            assert_key_matches(
                &format!("case {case} ({pass})"),
                &keygen,
                (*seed, *type_aware),
                &store,
                accesses,
                precisions,
                &mut scratch,
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Random programs over all five element types.
// ---------------------------------------------------------------------------

/// A typed handle to one region of the random program's store.
#[derive(Clone, Copy)]
enum Handle {
    F32(Region<f32>),
    F64(Region<f64>),
    I32(Region<i32>),
    I64(Region<i64>),
    U8(Region<u8>),
}

/// Runs `$body` with `$region` bound to the typed handle inside `$handle`.
macro_rules! typed {
    ($handle:expr, $region:ident => $body:expr) => {
        match $handle {
            Handle::F32($region) => $body,
            Handle::F64($region) => $body,
            Handle::I32($region) => $body,
            Handle::I64($region) => $body,
            Handle::U8($region) => $body,
        }
    };
}

/// Elements made from random bits (any bit pattern: NaNs, negative zero and
/// denormals hash like everything else).
trait FromBits: Elem {
    fn from_bits64(bits: u64) -> Self;
}

impl FromBits for f32 {
    fn from_bits64(bits: u64) -> Self {
        f32::from_bits(bits as u32)
    }
}
impl FromBits for f64 {
    fn from_bits64(bits: u64) -> Self {
        f64::from_bits(bits)
    }
}
impl FromBits for i32 {
    fn from_bits64(bits: u64) -> Self {
        bits as i32
    }
}
impl FromBits for i64 {
    fn from_bits64(bits: u64) -> Self {
        bits as i64
    }
}
impl FromBits for u8 {
    fn from_bits64(bits: u64) -> Self {
        bits as u8
    }
}

fn random_elems<T: FromBits>(rng: &mut Xoshiro256StarStar, len: usize) -> Vec<T> {
    // A small alphabet half the time, so equal contents recur.
    let small = rng.below(2) == 0;
    (0..len)
        .map(|_| {
            let bits = rng.next_u64();
            T::from_bits64(if small { bits % 3 } else { bits })
        })
        .collect()
}

struct World {
    store: DataStore,
    /// `(name, handle)`; two regions per element type.
    regions: Vec<(String, Handle)>,
    /// The outputs the last copy-out step snapshotted, and their slot: what
    /// the next one copies back, as a later THT hit on the same blocks does.
    stash: Option<(usize, OutputSnapshot)>,
}

impl World {
    fn new(rng: &mut Xoshiro256StarStar) -> Self {
        let mut world = World {
            store: DataStore::new(),
            regions: Vec::new(),
            stash: None,
        };
        for slot in 0..10 {
            let name = format!("r{slot}");
            let handle = world.register(&name, slot, rng);
            world.regions.push((name, handle));
        }
        world
    }

    /// Registers `name` with fresh random contents; the slot number fixes
    /// the element type (so each type always has two regions).
    fn register(&self, name: &str, slot: usize, rng: &mut Xoshiro256StarStar) -> Handle {
        let len = rng.below(40);
        let store = &self.store;
        match slot % 5 {
            0 => Handle::F32(store.register_typed(name, random_elems(rng, len)).unwrap()),
            1 => Handle::F64(store.register_typed(name, random_elems(rng, len)).unwrap()),
            2 => Handle::I32(store.register_typed(name, random_elems(rng, len)).unwrap()),
            3 => Handle::I64(store.register_typed(name, random_elems(rng, len)).unwrap()),
            _ => Handle::U8(store.register_typed(name, random_elems(rng, len)).unwrap()),
        }
    }

    fn id(&self, slot: usize) -> RegionId {
        typed!(self.regions[slot].1, region => region.id())
    }

    fn len(&self, slot: usize) -> usize {
        self.store.read(self.id(slot)).lock().len()
    }

    fn elem(&self, slot: usize) -> ElemType {
        self.store.elem_type(self.id(slot))
    }

    /// A random element sub-range of `slot`'s region (possibly empty).
    fn sub_range(&self, slot: usize, rng: &mut Xoshiro256StarStar) -> Range<usize> {
        let len = self.len(slot);
        let start = rng.below(len + 1);
        start..start + rng.below(len - start + 1)
    }

    /// One random mutation of the store; returns what it did.
    fn step(&mut self, rng: &mut Xoshiro256StarStar) -> String {
        let slot = rng.below(self.regions.len());
        let handle = self.regions[slot].1;
        match rng.below(8) {
            0 => typed!(handle, region => self.host_write(region, rng)),
            7 => typed!(handle, region => self.handle_write(region, rng)),
            1 => typed!(handle, region => self.kernel_write(region, rng)),
            2 => {
                let range = self.sub_range(slot, rng);
                typed!(handle, region => self.sub_slice_write(region, range, rng))
            }
            3 => typed!(handle, region => self.restore(region, rng)),
            4 => self.copy_out(slot),
            5 => {
                // Deregister and re-register under the same name: a new
                // region — new id, new length, version and digest slot of
                // its own — behind an old name.
                let name = self.regions[slot].0.clone();
                self.store.deregister(self.id(slot)).unwrap();
                self.regions[slot].1 = self.register(&name, slot, rng);
                format!("re-registered {name}")
            }
            _ => "nothing (every region keeps its version)".to_string(),
        }
    }

    /// Host write through the typed `Region<T>` handle.
    fn host_write<T: FromBits>(&self, region: Region<T>, rng: &mut Xoshiro256StarStar) -> String {
        let handle = self.store.write(region);
        let mut data = handle.lock();
        let elems = data.as_elems_mut::<T>();
        for _ in 0..rng.below(3) {
            if !elems.is_empty() {
                elems[rng.below(elems.len())] = T::from_bits64(rng.next_u64() % 3);
            }
        }
        format!("host write to {region:?}")
    }

    /// Host write through a resolved [`RegionRef`] — the handle a submitted
    /// task carries — instead of the store.
    fn handle_write<T: FromBits>(&self, region: Region<T>, rng: &mut Xoshiro256StarStar) -> String {
        let handle: RegionRef = self.store.region_ref(region);
        let mut data = handle.write();
        let elems = data.as_elems_mut::<T>();
        if !elems.is_empty() {
            elems[rng.below(elems.len())] = T::from_bits64(rng.next_u64() % 3);
        }
        format!("handle write to {region:?}")
    }

    /// Kernel write: `TaskContext::out` over the whole region.
    fn kernel_write<T: FromBits>(&self, region: Region<T>, rng: &mut Xoshiro256StarStar) -> String {
        let len = self.store.read(region).lock().len();
        let accesses = [Access::write(&region)];
        TaskContext::new(&self.store, &accesses).out(0, &random_elems::<T>(rng, len));
        format!("kernel write to {region:?}")
    }

    /// Partial write: a random sub-slice (possibly empty) rewritten through
    /// the store's write guard.
    fn sub_slice_write<T: FromBits>(
        &self,
        region: Region<T>,
        range: Range<usize>,
        rng: &mut Xoshiro256StarStar,
    ) -> String {
        let fresh = random_elems::<T>(rng, range.len());
        self.store.write(region).lock().as_elems_mut::<T>()[range.clone()].copy_from_slice(&fresh);
        format!("sub-slice write to {region:?} {range:?}")
    }

    fn restore<T: FromBits>(&self, region: Region<T>, rng: &mut Xoshiro256StarStar) -> String {
        let len = self.store.read(region).lock().len();
        self.store
            .restore(region, &T::into_region(random_elems(rng, len)));
        format!("restored {region:?}")
    }

    /// The memoized copy-out: apply the outputs an earlier copy-out step
    /// snapshotted back into their region, as a THT hit on the same blocks
    /// does, then snapshot `slot`'s region for the next one.
    fn copy_out(&mut self, slot: usize) -> String {
        let output = |world: &World, slot: usize| Access {
            region: world.id(slot),
            mode: AccessMode::Out,
            elem: world.elem(slot),
        };
        let mut did = String::from("nothing to copy back");
        if let Some((from, snapshot)) = self.stash.take() {
            // A re-registered slot is a new region: the stash died with the
            // old one.
            if snapshot.region == self.id(from) {
                snapshot.apply_to(&self.store, &output(self, from));
                did = format!("copied r{from} back");
            }
        }
        let snapshot = OutputSnapshot::capture(&self.store, &output(self, slot));
        self.stash = Some((slot, snapshot));
        format!("{did}, snapshotted r{slot}")
    }

    /// A random access list: one to three reads (the same region may recur)
    /// and sometimes a write in between, which no key may depend on.
    fn random_accesses(&self, rng: &mut Xoshiro256StarStar) -> Vec<Access> {
        let mut accesses = Vec::new();
        for _ in 0..1 + rng.below(3) {
            let slot = rng.below(self.regions.len());
            let mode = if rng.below(5) == 0 {
                AccessMode::InOut
            } else {
                AccessMode::In
            };
            accesses.push(Access {
                region: self.id(slot),
                mode,
                elem: self.elem(slot),
            });
            if rng.below(4) == 0 {
                let out = rng.below(self.regions.len());
                accesses.push(Access {
                    region: self.id(out),
                    mode: AccessMode::Out,
                    elem: self.elem(out),
                });
            }
        }
        accesses
    }
}

fn random_precisions(reads: usize, rng: &mut Xoshiro256StarStar) -> Vec<Percentage> {
    let sampled =
        |rng: &mut Xoshiro256StarStar| Percentage::from_training_step(rng.below(Percentage::STEPS));
    match rng.below(4) {
        // Exact: the digest path (two draws in four).
        0 | 1 => vec![Percentage::FULL; reads],
        // Uniformly sampled: the whole-layout plan.
        2 => vec![sampled(rng); reads],
        // Mixed: exact and sampled arguments side by side.
        _ => (0..reads)
            .map(|_| match rng.below(2) {
                0 => Percentage::FULL,
                _ => sampled(rng),
            })
            .collect(),
    }
}

#[test]
fn served_keys_equal_the_reference_after_every_step_of_random_programs() {
    const PROGRAMS: u64 = 6;
    const STEPS: usize = 250;
    for program in 0..PROGRAMS {
        let mut rng = Xoshiro256StarStar::new(0x0DD1_6E57 ^ program);
        let mut world = World::new(&mut rng);
        // Two generators on one store — two task types reading the same
        // regions, with different seeds and selection orders. They share
        // every region's one digest slot.
        let generators = [(0x5EED_0001u64, true), (0xA11C_E5EE_D002, false)];
        let keygens = generators.map(|(seed, type_aware)| KeyGenerator::new(seed, type_aware));
        let mut scratch = KeyScratch::new();
        for step in 0..STEPS {
            let did = world.step(&mut rng);
            for _ in 0..3 {
                let accesses = world.random_accesses(&mut rng);
                let reads = accesses.iter().filter(|a| a.mode.is_read()).count();
                let precisions = random_precisions(reads, &mut rng);
                for (keygen, generator) in keygens.iter().zip(generators) {
                    assert_key_matches(
                        &format!("program {program} step {step} (after: {did})"),
                        keygen,
                        generator,
                        &world.store,
                        &accesses,
                        &precisions,
                        &mut scratch,
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The digest slot is actually used — and refilled by every kind of write.
// ---------------------------------------------------------------------------

#[cfg(debug_assertions)]
#[test]
fn unwritten_regions_are_keyed_from_their_digest_and_every_write_refills_it() {
    let store = DataStore::new();
    let a = store.register_typed("a", vec![1.0f32; 64]).unwrap();
    let b = store.register_typed("b", vec![2i64; 8]).unwrap();
    let accesses = [Access::read(&a), Access::read(&b)];
    let exact = [Percentage::FULL; 2];
    let first = KeyGenerator::new(1, true);
    let second = KeyGenerator::new(2, false);
    let counts = |keygen: &KeyGenerator| (keygen.digest_hits(), keygen.digest_fills());

    let cold = first.compute(&store, &accesses, &exact);
    assert_eq!(counts(&first), (0, 2), "both slots start empty");
    assert_eq!(first.compute(&store, &accesses, &exact), cold);
    assert_eq!(counts(&first), (2, 2), "nothing was written: both served");
    // Another task type's generator is served from the same slots.
    let _ = second.compute(&store, &accesses, &exact);
    assert_eq!(counts(&second), (2, 0));

    // Every way of writing `a` costs exactly one refill — of `a` alone.
    let ctx_accesses = [Access::write(&a)];
    let a_ref = store.region_ref(a);
    let writes: [(&str, &dyn Fn()); 5] = [
        ("host write", &|| {
            store.write(a).lock().as_f32_mut()[3] = 9.0
        }),
        ("handle write", &|| a_ref.write().as_f32_mut()[4] = 8.0),
        ("kernel write", &|| {
            TaskContext::new(&store, &ctx_accesses).out(0, &[4.0f32; 64]);
        }),
        ("restore", &|| {
            store.restore(a, &RegionData::F32(vec![5.0; 64]))
        }),
        ("copy-out", &|| {
            OutputSnapshot::capture(&store, &ctx_accesses[0]).apply_to(&store, &ctx_accesses[0]);
        }),
    ];
    for (round, (what, write)) in writes.iter().enumerate() {
        write();
        let _ = first.compute(&store, &accesses, &exact);
        let round = round as u64;
        assert_eq!(counts(&first), (3 + 3 * round, 3 + round), "{what}: refill");
        let _ = first.compute(&store, &accesses, &exact);
        assert_eq!(counts(&first), (5 + 3 * round, 3 + round), "{what}: served");
    }

    // Sampled arguments never touch a slot: only the exact `b` is served.
    let before = counts(&first);
    let _ = first.compute(&store, &accesses, &[Percentage::MIN; 2]);
    let _ = first.compute(&store, &accesses, &[Percentage::MIN, Percentage::FULL]);
    assert_eq!(counts(&first), (before.0 + 1, before.1));
}

// ---------------------------------------------------------------------------
// End to end: an engine fed from digests never serves a stale output.
// ---------------------------------------------------------------------------

/// Writes `factor` × the sum of its input over all `out_len` elements of
/// its output.
fn scaled_sum(factor: f64, out_len: usize) -> TaskTypeInfo {
    TaskTypeBuilder::new("scaled_sum", move |ctx| {
        let total: f64 = ctx.arg::<f64>(0).iter().sum();
        ctx.out(1, &vec![total * factor; out_len]);
    })
    .arg::<f64>()
    .out::<f64>()
    .memo(MemoSpec::exact())
    .build()
}

/// Runs one task the way a worker does — its regions resolved once, as at
/// submission, and reached only through those handles; returns whether it
/// executed.
fn run_task(
    engine: &AtmEngine,
    store: &DataStore,
    id: u64,
    type_id: u32,
    info: &TaskTypeInfo,
    accesses: &[Access],
) -> bool {
    let tracer = Tracer::new(None);
    let regions = store.resolve(accesses);
    let view = TaskView {
        id: TaskId::from_raw(id),
        type_id: TaskTypeId::from_raw(type_id),
        info,
        accesses,
        regions: &regions,
    };
    let decision = engine.before_execute(view, store, &tracer, 0);
    let executed = decision == Decision::Execute;
    if executed {
        (info.kernel)(&TaskContext::resolved(store, accesses, &regions));
    }
    engine.after_execute(view, store, &tracer, 0, executed);
    executed
}

#[test]
fn memoized_outputs_track_host_writes_restores_and_copy_outs() {
    // Two task types read one input region; the second also reads what the
    // first wrote — through a memoized copy-out whenever the first one hit.
    let mut rng = Xoshiro256StarStar::new(0x0E2E);
    let engine = AtmEngine::new(AtmConfig::static_atm());
    let store = DataStore::new();
    let doubled = scaled_sum(2.0, 3);
    let negated = scaled_sum(-1.0, 2);
    let input = store.register_typed("input", vec![1.0f64; 6]).unwrap();
    let mid = store.register_zeros::<f64>("mid", 3).unwrap();
    let end = store.register_zeros::<f64>("end", 2).unwrap();
    let saved = store.snapshot(input);
    // Host writes alternate between the store and resolved handles — the
    // tasks' own way in — so a version bump through either is checked.
    let (input_ref, mid_ref) = (store.region_ref(input), store.region_ref(mid));
    let (mut executed, mut tasks) = (0u64, 0u64);
    for round in 0..300u64 {
        let through_handle = round % 2 == 1;
        match rng.below(4) {
            0 if through_handle => {
                input_ref.write().as_f64_mut()[rng.below(6)] = rng.below(3) as f64
            }
            0 => store.write(input).lock().as_f64_mut()[rng.below(6)] = rng.below(3) as f64,
            1 => store.restore(input, &saved),
            2 if through_handle => mid_ref.write().as_f64_mut().fill(-7.0),
            2 => store.write(mid).lock().as_f64_mut().fill(-7.0),
            _ => {}
        }
        let sum: f64 = store.contents(&input).iter().sum();
        let first = [Access::read(&input), Access::write(&mid)];
        executed += u64::from(run_task(&engine, &store, 3 * round, 0, &doubled, &first));
        assert_eq!(store.contents(&mid), vec![2.0 * sum; 3], "round {round}");
        let second = [Access::read(&mid), Access::write(&end)];
        executed += u64::from(run_task(
            &engine,
            &store,
            3 * round + 1,
            1,
            &negated,
            &second,
        ));
        assert_eq!(store.contents(&end), vec![-6.0 * sum; 2], "round {round}");
        let third = [Access::read(&input), Access::write(&end)];
        executed += u64::from(run_task(
            &engine,
            &store,
            3 * round + 2,
            1,
            &negated,
            &third,
        ));
        assert_eq!(store.contents(&end), vec![-sum; 2], "round {round}");
        tasks += 3;
    }
    // The inputs take few distinct values, so most tasks must have been
    // served from the table — the test is about hits, not about misses.
    assert!(
        executed * 4 < tasks,
        "expected mostly hits, {executed} of {tasks} executed"
    );
}
