//! Hash-key generation cost as a function of the selection percentage `p`
//! and of the task-input size (§III-B: the hashing overhead is what Dynamic
//! ATM reduces by selecting a small `p`).
//!
//! Run with: `cargo bench --bench hash_keygen`

use atm_core::{KeyGenerator, Percentage};
use atm_eval::bench;
use atm_hash::{digest64, jenkins_hash64};
use atm_runtime::{Access, DataStore};
use std::hint::black_box;

/// The exact-argument digest against lookup3, one-shot over the same bytes,
/// from a control argument (8 B) and a halo (256 B) to a stencil block
/// (64 KiB) and beyond. Panics — failing CI's smoke run — if the digest is
/// slower than lookup3 at any size, or less than 2.5× faster at 64 KiB.
fn digest_vs_lookup3() {
    for bytes in [8usize, 256, 4 << 10, 64 << 10, 1 << 20] {
        let input: Vec<u8> = (0..bytes / 4)
            .flat_map(|i| (i as f32 * 0.37).to_le_bytes())
            .collect();
        let size = format!("{bytes}B");
        let lookup3 = bench("digest_vs_lookup3", &format!("lookup3 {size}"), || {
            black_box(jenkins_hash64(black_box(&input), 7));
        });
        let digest = bench("digest_vs_lookup3", &format!("digest {size}"), || {
            black_box(digest64(black_box(&input), 7));
        });
        let speedup = lookup3.median_ns / digest.median_ns;
        println!(
            "  -> lookup3 {:.3} ns/B, digest {:.3} ns/B: {speedup:.2}x",
            lookup3.median_ns / bytes as f64,
            digest.median_ns / bytes as f64
        );
        assert!(
            speedup >= 1.0,
            "the digest is slower than lookup3 at {size} ({speedup:.2}x)"
        );
        if bytes == 64 << 10 {
            assert!(
                speedup >= 2.5,
                "the digest is only {speedup:.2}x faster than lookup3 at 64 KiB (floor 2.5x)"
            );
        }
    }
}

fn keygen_vs_percentage() {
    let store = DataStore::new();
    // 1 MiB of f32 input, comparable to a mid-sized stencil block.
    let elems = 256 * 1024;
    let region = store
        .register_typed("input", (0..elems).map(|i| i as f32).collect::<Vec<f32>>())
        .unwrap();
    let accesses = vec![Access::read(&region)];
    let keygen = KeyGenerator::new(7, true);

    for (label, p) in [
        ("p=2^-15", Percentage::MIN),
        ("p=0.1%", Percentage::from_fraction(0.001)),
        ("p=1%", Percentage::from_fraction(0.01)),
        ("p=25%", Percentage::from_fraction(0.25)),
        ("p=100%", Percentage::FULL),
    ] {
        let result = bench("hash_keygen_vs_p", label, || {
            let _ = keygen.compute_uniform(&store, &accesses, p);
        });
        println!(
            "  -> {:.1} MiB/s over the selected bytes",
            result.mib_per_second(p.bytes_of(elems * 4))
        );
    }
}

fn keygen_vs_input_size() {
    let store = DataStore::new();
    let keygen = KeyGenerator::new(9, true);
    for kib in [4usize, 64, 1024] {
        let elems = kib * 1024 / 4;
        let region = store
            .register_typed(
                format!("in_{kib}k"),
                (0..elems).map(|i| i as f32).collect::<Vec<f32>>(),
            )
            .unwrap();
        let accesses = vec![Access::read(&region)];
        let result = bench(
            "hash_keygen_vs_input_size",
            &format!("full_p/{kib}KiB"),
            || {
                let _ = keygen.compute_uniform(&store, &accesses, Percentage::FULL);
            },
        );
        println!("  -> {:.1} MiB/s", result.mib_per_second(elems * 4));
    }
}

/// The three key shapes at the stencils' task shape — a 128 × 128 `f32`
/// block and its four 128-element halos, 66 KiB — with the regions left
/// alone between keys (*clean*: exact arguments are served from their
/// digest slots) and opened for writing before every key (*dirty*: every
/// exact argument is re-hashed, as in a sweep that rewrites its inputs).
/// A regression in one shape shows here without a benchmark pass.
fn key_path_shapes() {
    let store = DataStore::new();
    let block = store
        .register_typed(
            "block",
            (0..128 * 128).map(|i| i as f32).collect::<Vec<f32>>(),
        )
        .unwrap();
    let halos: Vec<_> = (0..4)
        .map(|h| {
            let halo = (0..128).map(|i| (h * 128 + i) as f32).collect::<Vec<f32>>();
            store.register_typed(format!("halo{h}"), halo).unwrap()
        })
        .collect();
    let mut accesses = vec![Access::read(&block)];
    accesses.extend(halos.iter().map(Access::read));
    let total_bytes = (128 * 128 + 4 * 128) * 4;
    let keygen = KeyGenerator::new(11, true);
    let half = Percentage::from_fraction(0.5);

    let shapes: [(&str, Vec<Percentage>); 5] = [
        ("full p=100%", vec![Percentage::FULL; 5]),
        ("sampled p=50%", vec![half; 5]),
        ("sampled p=2^-15", vec![Percentage::MIN; 5]),
        // The block sampled, the halos pinned exact (`MemoSpec::arg_exact`).
        ("mixed p=50%", {
            let mut v = vec![Percentage::FULL; 5];
            v[0] = half;
            v
        }),
        ("mixed p=2^-15", {
            let mut v = vec![Percentage::FULL; 5];
            v[0] = Percentage::MIN;
            v
        }),
    ];
    for (label, precisions) in &shapes {
        for dirty in [false, true] {
            let state = if dirty { "dirty" } else { "clean" };
            let mut selected = 0;
            let result = bench("key_path_66KiB", &format!("{label} {state}"), || {
                if dirty {
                    for access in &accesses {
                        drop(store.write(access.region).lock());
                    }
                }
                selected = keygen.compute(&store, &accesses, precisions).selected_bytes;
            });
            println!(
                "  -> {:.3} ns per selected byte ({selected} of {total_bytes})",
                result.median_ns / selected as f64
            );
        }
    }
}

fn main() {
    digest_vs_lookup3();
    keygen_vs_percentage();
    keygen_vs_input_size();
    key_path_shapes();
}
