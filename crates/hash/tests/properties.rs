//! Property-based tests for the hashing and sampling substrate.
//!
//! Cases are generated with the crate's own deterministic PRNG
//! ([`Xoshiro256StarStar`]) instead of an external property-testing
//! framework: each property runs over a fixed number of seeded random
//! cases, so failures are reproducible from the case index alone.

use atm_hash::shuffle::InputSpec;
use atm_hash::{
    digest64, fisher_yates, jenkins_hash64, significance_ordered_indices, ByteLayout, DigestStream,
    InputSampler, Percentage, Xoshiro256StarStar,
};
use std::collections::HashSet;

const CASES: usize = 128;

fn random_bytes(rng: &mut Xoshiro256StarStar, max_len: usize, min_len: usize) -> Vec<u8> {
    let len = min_len + rng.below(max_len.saturating_sub(min_len).max(1));
    (0..len).map(|_| rng.next_u64() as u8).collect()
}

/// The hash is a pure function of (bytes, seed).
#[test]
fn hash_is_deterministic() {
    let mut rng = Xoshiro256StarStar::new(0xA11CE);
    for case in 0..CASES {
        let data = random_bytes(&mut rng, 512, 0);
        let seed = rng.next_u64();
        assert_eq!(
            jenkins_hash64(&data, seed),
            jenkins_hash64(&data, seed),
            "case {case}: hash must be deterministic"
        );
    }
}

/// Appending a byte changes the hash (no trivial prefix collisions).
#[test]
fn hash_changes_when_extended() {
    let mut rng = Xoshiro256StarStar::new(0xB0B);
    for case in 0..CASES {
        let data = random_bytes(&mut rng, 256, 0);
        let extra = rng.next_u64() as u8;
        let base = jenkins_hash64(&data, 0);
        let mut longer = data.clone();
        longer.push(extra);
        assert_ne!(
            base,
            jenkins_hash64(&longer, 0),
            "case {case}: prefix collision"
        );
    }
}

/// The little-endian 64-bit words of `bytes` (a multiple of eight long).
fn words_of(bytes: &[u8]) -> Vec<u64> {
    bytes
        .chunks_exact(8)
        .map(|w| u64::from_le_bytes(w.try_into().unwrap()))
        .collect()
}

/// The digest stream equals the one-shot digest for every length up to 200
/// and every split point, whether the pieces arrive as byte runs or as
/// whole words beside byte runs (the way typed region storage feeds it).
#[test]
fn digest_stream_matches_the_one_shot_at_every_length_and_split() {
    let mut rng = Xoshiro256StarStar::new(0xD16E);
    let data: Vec<u8> = (0..200).map(|_| rng.next_u64() as u8).collect();
    let seed = rng.next_u64();
    for len in 0..=data.len() {
        let one_shot = digest64(&data[..len], seed);
        for split in 0..=len {
            let (head, rest) = data[..len].split_at(split);
            let mut slices = DigestStream::new(seed);
            slices.push_slice(head);
            slices.push_slice(rest);
            assert_eq!(
                slices.finish(),
                one_shot,
                "len {len}: slices split at {split}"
            );

            // `split` bytes as a run (leaving the stream at every
            // alignment), then as many whole words as fit, then the tail.
            let whole = rest.len() / 8 * 8;
            let mut bytes_then_words = DigestStream::new(seed);
            bytes_then_words.push_slice(head);
            bytes_then_words.push_words(words_of(&rest[..whole]));
            bytes_then_words.push_slice(&rest[whole..]);
            assert_eq!(
                bytes_then_words.finish(),
                one_shot,
                "len {len}: {split} bytes then words"
            );

            // Words first, then bytes from `split` on.
            let whole = head.len() / 8 * 8;
            let mut words_then_bytes = DigestStream::new(seed);
            words_then_bytes.push_words(words_of(&head[..whole]));
            words_then_bytes.push_slice(&head[whole..]);
            words_then_bytes.push_slice(rest);
            assert_eq!(
                words_then_bytes.finish(),
                one_shot,
                "len {len}: words then bytes from {split}"
            );
        }
    }
}

/// Every single-bit flip of a 4 KiB `f32` block gives its own digest: a
/// flip changes one 8-byte word, and each lane step is a bijection of its
/// word.
#[test]
fn every_single_bit_flip_of_a_4_kib_block_has_a_distinct_digest() {
    let mut rng = Xoshiro256StarStar::new(0xF1195);
    let block: Vec<u8> = (0..1024)
        .flat_map(|_| ((rng.next_f32() - 0.5) * 1000.0).to_le_bytes())
        .collect();
    let mut seen = HashSet::with_capacity(block.len() * 8 + 1);
    seen.insert(digest64(&block, 0));
    let mut flipped = block.clone();
    for bit in 0..block.len() * 8 {
        flipped[bit / 8] ^= 1 << (bit % 8);
        assert!(
            seen.insert(digest64(&flipped, 0)),
            "flipping bit {bit} collides"
        );
        flipped[bit / 8] ^= 1 << (bit % 8);
    }
    assert_eq!(seen.len(), 32_768 + 1);
}

/// Swapping two distinct 8-byte words — within a lane or across lanes —
/// changes the digest: word order matters.
#[test]
fn swapping_two_distinct_words_changes_the_digest() {
    let mut rng = Xoshiro256StarStar::new(0x5A4B);
    let input: Vec<u8> = (0..1024).map(|_| rng.next_u64() as u8).collect();
    let base = digest64(&input, 0);
    let words = input.len() / 8;
    let (mut same_lane, mut cross_lane) = (0, 0);
    for i in 0..words {
        for j in i + 1..words {
            let (a, b) = (i * 8..i * 8 + 8, j * 8..j * 8 + 8);
            if input[a.clone()] == input[b.clone()] {
                continue;
            }
            let mut swapped = input.clone();
            swapped[a.clone()].copy_from_slice(&input[b.clone()]);
            swapped[b].copy_from_slice(&input[a]);
            assert_ne!(digest64(&swapped, 0), base, "swapping words {i} and {j}");
            if i % 4 == j % 4 {
                same_lane += 1;
            } else {
                cross_lane += 1;
            }
        }
    }
    assert!(same_lane > 0 && cross_lane > 0);
}

/// Appending one to eight zero bytes changes the digest (the zero-padded
/// partial word is told apart from the shorter input by the length).
#[test]
fn appending_zero_bytes_changes_the_digest() {
    let mut rng = Xoshiro256StarStar::new(0x2E60);
    for case in 0..CASES {
        let data = random_bytes(&mut rng, 64, 0);
        let seed = rng.next_u64();
        let mut seen = HashSet::new();
        let mut padded = data.clone();
        assert!(seen.insert(digest64(&padded, seed)));
        for zeros in 1..=8 {
            padded.push(0);
            assert!(
                seen.insert(digest64(&padded, seed)),
                "case {case}: {} bytes + {zeros} zero bytes collides",
                data.len()
            );
        }
    }
}

/// Fisher–Yates always produces a permutation of its input.
#[test]
fn shuffle_is_permutation() {
    let mut rng = Xoshiro256StarStar::new(0x5_u64);
    for case in 0..CASES {
        let len = rng.below(2000);
        let seed = rng.next_u64();
        let mut v: Vec<u32> = (0..len as u32).collect();
        fisher_yates(&mut v, &mut Xoshiro256StarStar::new(seed));
        let mut sorted = v.clone();
        sorted.sort_unstable();
        let expected: Vec<u32> = (0..len as u32).collect();
        assert_eq!(
            sorted, expected,
            "case {case}: shuffle is not a permutation"
        );
    }
}

/// The significance-ordered index vector is always a permutation of all
/// byte positions, for any mix of input element widths.
#[test]
fn significance_order_is_permutation() {
    let mut rng = Xoshiro256StarStar::new(0x516);
    let widths = [1usize, 4, 8];
    for case in 0..CASES {
        let inputs = 1 + rng.below(4);
        let specs: Vec<InputSpec> = (0..inputs)
            .map(|_| InputSpec {
                elements: 1 + rng.below(63),
                elem_width: widths[rng.below(widths.len())],
            })
            .collect();
        let type_aware = rng.below(2) == 0;
        let seed = rng.next_u64();
        let total: usize = specs.iter().map(InputSpec::bytes).sum();
        let idx =
            significance_ordered_indices(&specs, type_aware, &mut Xoshiro256StarStar::new(seed));
        assert_eq!(idx.len(), total, "case {case}: wrong index count");
        let mut seen = vec![false; total];
        for &i in &idx {
            assert!(
                !std::mem::replace(&mut seen[i as usize], true),
                "case {case}: duplicate index {i}"
            );
        }
    }
}

/// Equal inputs hash equal and the selected byte count respects p, for
/// any p on the training ladder.
#[test]
fn sampler_key_is_stable_for_equal_inputs() {
    let mut rng = Xoshiro256StarStar::new(0x7EA);
    for case in 0..CASES {
        let elements = 1 + rng.below(255);
        let step = rng.below(16);
        let type_aware = rng.below(2) == 0;
        let fill = rng.next_u32();
        let layout = ByteLayout::from_pairs(&[(elements, 4)]);
        let sampler = InputSampler::new(layout, type_aware, 99);
        let data: Vec<u8> = std::iter::repeat_n(fill.to_le_bytes(), elements)
            .flatten()
            .collect();
        let p = Percentage::from_training_step(step);
        let k1 = sampler.key(&[&data], p);
        let k2 = sampler.key(&[&data], p);
        assert_eq!(k1.key, k2.key, "case {case}: key not stable");
        assert_eq!(
            k1.selected_bytes,
            p.bytes_of(elements * 4),
            "case {case}: wrong byte count"
        );
    }
}

/// At p = 100 % any single-byte difference must change the key
/// (this is the exactness guarantee behind Static ATM's 100 % correctness).
#[test]
fn full_p_detects_any_single_byte_change() {
    let mut rng = Xoshiro256StarStar::new(0xF11);
    for case in 0..CASES {
        let data = random_bytes(&mut rng, 512, 1);
        let pos = rng.below(data.len());
        let flip = 1 + (rng.next_u64() % 255) as u8;
        let layout = ByteLayout::from_pairs(&[(data.len(), 1)]);
        let sampler = InputSampler::new(layout, false, 5);
        let mut other = data.clone();
        other[pos] ^= flip;
        let ka = sampler.key(&[&data], Percentage::FULL);
        let kb = sampler.key(&[&other], Percentage::FULL);
        assert_ne!(
            ka.key, kb.key,
            "case {case}: single-byte change missed at full p"
        );
    }
}

/// Doubling p never decreases the number of selected bytes, and the
/// selected index set grows monotonically (prefix property).
#[test]
fn selection_grows_monotonically_with_p() {
    let mut rng = Xoshiro256StarStar::new(0x6_u64);
    for case in 0..CASES {
        let elements = 1 + rng.below(199);
        let type_aware = rng.below(2) == 0;
        let layout = ByteLayout::from_pairs(&[(elements, 8)]);
        let sampler = InputSampler::new(layout, type_aware, 17);
        let mut prev_len = 0usize;
        let mut p = Percentage::MIN;
        for _ in 0..=Percentage::STEPS {
            let sel = sampler.selected_indices(p);
            assert!(sel.len() >= prev_len, "case {case}: selection shrank");
            prev_len = sel.len();
            p = p.doubled();
        }
        assert_eq!(
            prev_len,
            elements * 8,
            "case {case}: full p must select everything"
        );
    }
}
