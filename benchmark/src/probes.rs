//! Layer probes: after the timed rounds the benchmark calls each layer's
//! public functions directly, single-threaded, on the *workload's own
//! shape* — its task-input and output sizes, its final selection
//! percentage, the store occupancy its run ended with. A probe reports
//! nanoseconds per call as the median of five equal slices of its time.

use crate::outcome::{Metrics, RunCtx};
use crate::stats::Measured;
use crate::trace::Tracer;
use atm_core::{
    evaluate_metric_data, InFlightKeyTable, KeyGenerator, MemoSpec, Percentage, ThtConfig, Waiter,
};
use atm_hash::{jenkins_hash64, ByteLayout, InputSampler, JenkinsStream, SplitMix64};
use atm_obs::{LatencyMetric, Observability};
use atm_runtime::{Access, DataStore, RegionData, RegionId, TaskId, TaskTypeId};
use atm_store::{entry_charge_bytes, EntryKey, MemoStore, OutputSnapshot, StoreConfig};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// The shape a workload hands its probes.
#[derive(Debug, Clone, Copy)]
pub struct ProbeShape {
    /// Input bytes of one memoizable task.
    pub input_bytes: usize,
    /// Output bytes of one memoizable task.
    pub output_bytes: usize,
    /// Selection percentage the run ended with (1.0 = exact).
    pub p: f64,
    /// Entries resident in the memo store when the run ended.
    pub entries: usize,
}

const SLICES: usize = 5;
/// Store occupancy is probed up to this many entries (the default table
/// holds 32 768; past a few thousand the per-bucket cost no longer grows
/// with occupancy faster than the probe can resolve).
const MAX_PROBE_ENTRIES: usize = 16_384;

/// Runs `op` in batches for about `seconds` and reports ns per call.
fn time_ns_per_call(seconds: f64, batch: usize, mut op: impl FnMut(usize)) -> Measured {
    let mut samples = Vec::with_capacity(SLICES);
    let mut call = 0usize;
    for _ in 0..SLICES {
        let slice_start = Instant::now();
        let mut calls = 0usize;
        loop {
            for _ in 0..batch {
                op(call);
                call += 1;
            }
            calls += batch;
            if slice_start.elapsed().as_secs_f64() >= seconds / SLICES as f64 {
                break;
            }
        }
        samples.push(slice_start.elapsed().as_nanos() as f64 / calls as f64);
    }
    Measured::of(&samples)
}

fn probe_outputs(output_bytes: usize) -> Arc<Vec<OutputSnapshot>> {
    let elems = (output_bytes / 4).max(1);
    Arc::new(vec![OutputSnapshot {
        region: RegionId::from_raw(0),
        elem_range: 0..elems,
        data: RegionData::F32(vec![1.0; elems]),
    }])
}

fn probe_key(hash: u64) -> EntryKey {
    EntryKey::new(TaskTypeId::from_raw(0), hash, 1.0)
}

/// Fills `store` with `entries` distinct keys drawn from `keys`.
fn fill(
    store: &MemoStore,
    keys: &mut SplitMix64,
    entries: usize,
    outputs: &Arc<Vec<OutputSnapshot>>,
) -> Vec<u64> {
    (0..entries)
        .map(|i| {
            let hash = keys.next_u64();
            store.insert(
                probe_key(hash),
                TaskId::from_raw(i as u64),
                Arc::clone(outputs),
                1_000,
            );
            hash
        })
        .collect()
}

/// Runs every probe and records its metric; each probe is also one span of
/// the traced pass.
pub fn run(ctx: &RunCtx, shape: ProbeShape, tracer: &Tracer, out: &mut Metrics) {
    let seconds = ctx.probe_seconds();
    let seed = crate::gen::derive_seed(ctx.seed, "probes");
    let p = Percentage::from_fraction(shape.p.clamp(Percentage::MIN.fraction(), 1.0));
    let in_elems = (shape.input_bytes / 4).max(1);
    let in_bytes = in_elems * 4;
    let mut rng = SplitMix64::new(seed);
    let input: Vec<f32> = (0..in_elems)
        .map(|_| (rng.next_u64() >> 40) as f32 / 1024.0)
        .collect();
    let input_bytes: Vec<u8> = input.iter().flat_map(|v| v.to_le_bytes()).collect();
    let per_byte = 1.0 / in_bytes as f64;
    // Hashing is cheap relative to the probe's time slice at every shape
    // the workloads have; one call per batch keeps large inputs honest.
    let batch = (65_536 / in_bytes).clamp(1, 256);

    let probe = |name: &'static str, layer: &'static str, f: &mut dyn FnMut() -> Measured| {
        tracer.span(name, layer, "", 0, f)
    };

    // hash
    let m = probe("probe.hash.jenkins", "hash", &mut || {
        time_ns_per_call(seconds, batch, |i| {
            black_box(jenkins_hash64(black_box(&input_bytes), i as u64));
        })
    });
    out.set("hash.jenkins_ns_per_byte", m.scaled(per_byte));
    let m = probe("probe.hash.stream", "hash", &mut || {
        time_ns_per_call(seconds, batch, |i| {
            let mut stream = JenkinsStream::new(i as u64, in_bytes);
            stream.push_slice(black_box(&input_bytes));
            black_box(stream.finish());
        })
    });
    out.set("hash.stream_ns_per_byte", m.scaled(per_byte));
    let sampler = InputSampler::new(ByteLayout::from_pairs(&[(in_elems, 4)]), true, seed);
    let m = probe("probe.hash.sampler", "hash", &mut || {
        time_ns_per_call(seconds, batch, |_| {
            black_box(sampler.key(&[black_box(&input_bytes)], p));
        })
    });
    out.set("hash.sampler_key_ns", m);

    // core.key
    let store = DataStore::new();
    let region = store
        .register_typed("probe/in", input.clone())
        .expect("fresh probe store");
    let accesses = [Access::read(&region)];
    let keygen = KeyGenerator::new(seed, true);
    let m = probe("probe.core.key", "core.key", &mut || {
        time_ns_per_call(seconds, batch, |_| {
            black_box(keygen.compute_uniform(&store, black_box(&accesses), p));
        })
    });
    out.set("core.key.compute_ns", m);
    out.set("core.key.ns_per_byte", m.scaled(per_byte));

    // core.ikt
    let ikt = InFlightKeyTable::new();
    let m = probe("probe.core.ikt", "core.ikt", &mut || {
        time_ns_per_call(seconds, 256, |i| {
            let key = probe_key(i as u64);
            let producer = TaskId::from_raw(i as u64);
            black_box(ikt.register_producer(key, producer));
            black_box(ikt.register_waiter(
                &key,
                Waiter {
                    task: TaskId::from_raw(i as u64 + 1),
                    accesses: Vec::new(),
                },
            ));
            black_box(ikt.retire(&key, producer));
        })
    });
    out.set("core.ikt.cycle_ns", m);

    // core.training
    let out_elems = (shape.output_bytes / 4).max(1);
    let correct = RegionData::F32(vec![1.0; out_elems]);
    let approx = RegionData::F32(vec![1.0 + 1e-6; out_elems]);
    let metric = MemoSpec::approximate().error_metric();
    let m = probe("probe.core.training", "core.training", &mut || {
        time_ns_per_call(seconds, batch, |_| {
            black_box(evaluate_metric_data(
                metric,
                black_box(&correct),
                black_box(&approx),
            ));
        })
    });
    out.set("core.training.compare_ns", m);

    // store: default THT geometry at the run's final occupancy.
    let entries = shape.entries.clamp(1, MAX_PROBE_ENTRIES);
    let outputs = probe_outputs(shape.output_bytes);
    let geometry = ThtConfig::default().store_config();
    let mut keys = SplitMix64::new(seed ^ 0x5707E);
    let resident = MemoStore::new(geometry);
    let present = fill(&resident, &mut keys, entries, &outputs);
    let m = probe("probe.store.lookup_hit", "store", &mut || {
        time_ns_per_call(seconds, 256, |i| {
            black_box(resident.lookup(&probe_key(present[i % present.len()])));
        })
    });
    out.set("store.lookup_hit_ns", m);
    let m = probe("probe.store.lookup_miss", "store", &mut || {
        time_ns_per_call(seconds, 256, |_| {
            black_box(resident.lookup(&probe_key(keys.next_u64())));
        })
    });
    out.set("store.lookup_miss_ns", m);
    // Inserts without a budget grow the table; a fresh table at the run's
    // occupancy per slice keeps the ways cap out of the number.
    let m = probe("probe.store.insert", "store", &mut || {
        let mut samples = Vec::with_capacity(SLICES);
        for _ in 0..SLICES {
            let table = MemoStore::new(geometry);
            fill(&table, &mut keys, entries, &outputs);
            let new_keys = 2_048.min(entries.max(64));
            let start = Instant::now();
            for i in 0..new_keys {
                black_box(table.insert(
                    probe_key(keys.next_u64()),
                    TaskId::from_raw(i as u64),
                    Arc::clone(&outputs),
                    1_000,
                ));
            }
            samples.push(start.elapsed().as_nanos() as f64 / new_keys as f64);
        }
        Measured::of(&samples)
    });
    out.set("store.insert_ns", m);
    // A budget exactly as large as the occupancy: every insert evicts.
    let charge = entry_charge_bytes(&outputs);
    let full = MemoStore::new(StoreConfig {
        byte_budget: Some(charge * entries.max(64)),
        ..geometry
    });
    fill(&full, &mut keys, entries.max(64), &outputs);
    let m = probe("probe.store.insert_evict", "store", &mut || {
        time_ns_per_call(seconds, 64, |i| {
            black_box(full.insert(
                probe_key(keys.next_u64()),
                TaskId::from_raw(i as u64),
                Arc::clone(&outputs),
                1_000,
            ));
        })
    });
    out.set("store.insert_evict_ns", m);

    // obs
    let obs = Observability::enabled();
    let m = probe("probe.obs.record", "obs", &mut || {
        time_ns_per_call(seconds, 1024, |i| {
            obs.record_latency(LatencyMetric::Kernel, 0, black_box(i as u64 & 0xFFFF));
        })
    });
    out.set("obs.record_ns", m);
}
