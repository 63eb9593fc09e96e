//! The per-argument digest of exact task inputs.
//!
//! An exact (`p` = 100 %) argument enters the ATM key as an 8-byte digest
//! of all its bytes; the key itself is lookup3 over those digests
//! ([`crate::jenkins`]). lookup3 is a serial 12-byte mix: about 0.39 ns/B
//! even in cache on a 2-core Xeon, against 0.08 ns/B for this digest
//! (`cargo bench --bench hash_keygen`, `digest_vs_lookup3`), so a digest
//! that is lookup3 makes the key the costliest part of a memoized task.
//! This digest is built for bulk bytes:
//!
//! * the input is read as little-endian 64-bit words (a zero-padded partial
//!   word ends it), and word `j` goes to lane `j mod 4` of four independent
//!   `u64` lanes, each absorbing its word as `h = (rotl(h, 29) ^ w·K1)·K2`
//!   — four multiply chains in flight instead of one mix chain;
//! * the finish runs each lane that absorbed a word through `fmix64` and
//!   folds them, in lane order, into a state seeded with the seed and the
//!   byte length, with the same absorb step, then `fmix64`s the state.
//!
//! `K1` and `K2` are odd, so for a fixed state every absorb is a bijection
//! of the incoming word, and for a fixed word a bijection of the state: two
//! equal-length inputs that differ in a single 8-byte word can never
//! collide, and word order matters. Like lookup3, it fingerprints
//! non-adversarial data; it is not a keyed hash.
//!
//! [`DigestStream`] takes the input in any chunking — byte runs
//! ([`push_slice`](DigestStream::push_slice)) and runs of whole words
//! ([`push_words`](DigestStream::push_words), the entry typed region
//! storage feeds) — and [`finish`](DigestStream::finish)es bit-identical to
//! the one-shot [`digest64`] over the concatenated bytes.

/// Multiplier applied to each incoming word (odd).
const K1: u64 = 0x9E37_79B9_7F4A_7C15;
/// Multiplier applied to each lane after the word is mixed in (odd).
const K2: u64 = 0xC2B2_AE3D_27D4_EB4F;
/// The lanes' starting states, before the seed is mixed in.
const LANE_INIT: [u64; 4] = [
    0x243F_6A88_85A3_08D3,
    0x1319_8A2E_0370_7344,
    0xA409_3822_299F_31D0,
    0x082E_FA98_EC4E_6C89,
];

/// One lane step: a bijection of `word` for a fixed `lane`, and of `lane`
/// for a fixed `word`.
#[inline(always)]
fn absorb(lane: u64, word: u64) -> u64 {
    (lane.rotate_left(29) ^ word.wrapping_mul(K1)).wrapping_mul(K2)
}

/// MurmurHash3's 64-bit finaliser: a bijection with full avalanche.
#[inline(always)]
fn fmix64(mut k: u64) -> u64 {
    k ^= k >> 33;
    k = k.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    k ^= k >> 33;
    k = k.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    k ^= k >> 33;
    k
}

/// The digest of `data` under `seed`.
#[inline]
pub fn digest64(data: &[u8], seed: u64) -> u64 {
    let mut stream = DigestStream::new(seed);
    stream.push_slice(data);
    stream.finish()
}

/// Incremental [`digest64`], in constant space and without knowing the
/// length upfront.
#[derive(Debug, Clone)]
pub struct DigestStream {
    lanes: [u64; 4],
    /// Whole words absorbed so far; word `j` went to lane `j % 4`.
    words: u64,
    /// The bytes of a word begun and not yet completed, little-endian from
    /// bit 0.
    partial: u64,
    /// Valid bytes in `partial`, `0..8`.
    partial_len: u32,
    seed: u64,
}

impl DigestStream {
    /// Creates an empty stream under `seed`.
    #[inline]
    pub fn new(seed: u64) -> Self {
        DigestStream {
            lanes: LANE_INIT.map(|init| init ^ seed),
            words: 0,
            partial: 0,
            partial_len: 0,
            seed,
        }
    }

    /// Appends a byte run.
    #[inline]
    pub fn push_slice(&mut self, mut bytes: &[u8]) {
        // Complete a word an earlier push left partial.
        if self.partial_len > 0 {
            while let Some((&byte, rest)) = bytes.split_first() {
                self.partial |= u64::from(byte) << (8 * self.partial_len);
                self.partial_len += 1;
                bytes = rest;
                if self.partial_len == 8 {
                    let word = std::mem::take(&mut self.partial);
                    self.partial_len = 0;
                    self.absorb_words(std::iter::once(word));
                    break;
                }
            }
            if self.partial_len > 0 {
                return;
            }
        }
        let mut words = bytes.chunks_exact(8);
        self.absorb_words(
            words
                .by_ref()
                .map(|word| u64::from_le_bytes(word.try_into().expect("8-byte chunk"))),
        );
        for (at, &byte) in words.remainder().iter().enumerate() {
            self.partial |= u64::from(byte) << (8 * at);
        }
        self.partial_len = words.remainder().len() as u32;
    }

    /// Appends 64-bit words, each as its eight little-endian bytes. This is
    /// the entry typed region storage is hashed through (`to_bits`, no
    /// serialisation buffer).
    #[inline]
    pub fn push_words(&mut self, words: impl IntoIterator<Item = u64>) {
        if self.partial_len == 0 {
            self.absorb_words(words.into_iter());
        } else {
            // Off word alignment after an odd byte run: every word
            // straddles two.
            for word in words {
                self.push_slice(&word.to_le_bytes());
            }
        }
    }

    /// Absorbs whole words at word alignment: lane by lane up to a lane-0
    /// boundary, then four lanes a step from registers.
    #[inline(always)]
    fn absorb_words(&mut self, mut words: impl Iterator<Item = u64>) {
        debug_assert_eq!(self.partial_len, 0, "words absorbed off alignment");
        while !self.words.is_multiple_of(4) {
            let Some(word) = words.next() else { return };
            let lane = (self.words % 4) as usize;
            self.lanes[lane] = absorb(self.lanes[lane], word);
            self.words += 1;
        }
        let [mut a, mut b, mut c, mut d] = self.lanes;
        let mut absorbed = 0u64;
        while let Some(w) = words.next() {
            a = absorb(a, w);
            absorbed += 1;
            let Some(w) = words.next() else { break };
            b = absorb(b, w);
            absorbed += 1;
            let Some(w) = words.next() else { break };
            c = absorb(c, w);
            absorbed += 1;
            let Some(w) = words.next() else { break };
            d = absorb(d, w);
            absorbed += 1;
        }
        self.lanes = [a, b, c, d];
        self.words += absorbed;
    }

    /// The digest of everything pushed; the stream may keep growing.
    #[inline]
    pub fn finish(&self) -> u64 {
        let bytes = self.words * 8 + u64::from(self.partial_len);
        let mut lanes = self.lanes;
        let mut words = self.words;
        if self.partial_len > 0 {
            let lane = (words % 4) as usize;
            lanes[lane] = absorb(lanes[lane], self.partial);
            words += 1;
        }
        let mut state = self.seed ^ bytes.wrapping_mul(K2);
        for &lane in &lanes[..words.min(4) as usize] {
            state = absorb(state, fmix64(lane));
        }
        fmix64(state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_deterministic_and_seed_sensitive() {
        let data = b"approximate task memoization";
        assert_eq!(digest64(data, 7), digest64(data, 7));
        assert_ne!(digest64(data, 7), digest64(data, 8));
        assert_ne!(digest64(&[], 7), digest64(&[], 8));
    }

    #[test]
    fn finishing_does_not_end_the_stream() {
        let data: Vec<u8> = (0..100u8).collect();
        let mut stream = DigestStream::new(3);
        stream.push_slice(&data[..41]);
        assert_eq!(stream.finish(), digest64(&data[..41], 3));
        stream.push_slice(&data[41..]);
        assert_eq!(stream.finish(), digest64(&data, 3));
    }
}
