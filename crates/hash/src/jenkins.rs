//! Bob Jenkins hash functions.
//!
//! The ATM paper cites Bob Jenkins' hash ("A hash function for hash table
//! lookup") as its key generator and notes that it "is known to give a
//! collision once in 2³²", which exceeds the task counts of all evaluated
//! benchmarks. We implement the `lookup3` variant (`hashlittle2`), which
//! produces two 32-bit words that we combine into the 64-bit key stored in
//! the Task History Table (the paper stores 8 bytes per key). The bulk
//! bytes of exact arguments are fingerprinted by [`crate::digest`] first;
//! lookup3 hashes those fingerprints and the bytes a sampling plan selects.

/// Rotate-left helper used by the lookup3 mixing functions.
#[inline(always)]
fn rot(x: u32, k: u32) -> u32 {
    x.rotate_left(k)
}

/// The `mix` step of lookup3: reversibly mixes three 32-bit values.
#[inline(always)]
fn mix(a: &mut u32, b: &mut u32, c: &mut u32) {
    *a = a.wrapping_sub(*c);
    *a ^= rot(*c, 4);
    *c = c.wrapping_add(*b);
    *b = b.wrapping_sub(*a);
    *b ^= rot(*a, 6);
    *a = a.wrapping_add(*c);
    *c = c.wrapping_sub(*b);
    *c ^= rot(*b, 8);
    *b = b.wrapping_add(*a);
    *a = a.wrapping_sub(*c);
    *a ^= rot(*c, 16);
    *c = c.wrapping_add(*b);
    *b = b.wrapping_sub(*a);
    *b ^= rot(*a, 19);
    *a = a.wrapping_add(*c);
    *c = c.wrapping_sub(*b);
    *c ^= rot(*b, 4);
    *b = b.wrapping_add(*a);
}

/// The `final` step of lookup3: irreversibly mixes three 32-bit values.
#[inline(always)]
fn final_mix(a: &mut u32, b: &mut u32, c: &mut u32) {
    *c ^= *b;
    *c = c.wrapping_sub(rot(*b, 14));
    *a ^= *c;
    *a = a.wrapping_sub(rot(*c, 11));
    *b ^= *a;
    *b = b.wrapping_sub(rot(*a, 25));
    *c ^= *b;
    *c = c.wrapping_sub(rot(*b, 16));
    *a ^= *c;
    *a = a.wrapping_sub(rot(*c, 4));
    *b ^= *a;
    *b = b.wrapping_sub(rot(*a, 14));
    *c ^= *b;
    *c = c.wrapping_sub(rot(*b, 24));
}

/// Reads the little-endian `u32` at `at` of a whole 12-byte block.
#[inline(always)]
fn le_word(block: &[u8], at: usize) -> u32 {
    u32::from_le_bytes([block[at], block[at + 1], block[at + 2], block[at + 3]])
}

/// Adds one whole 12-byte block to the state (the `a += k[0]; b += k[1];
/// c += k[2]` of the reference loop, before `mix` or `final`).
#[inline(always)]
fn add_block(a: &mut u32, b: &mut u32, c: &mut u32, block: &[u8]) {
    *a = a.wrapping_add(le_word(block, 0));
    *b = b.wrapping_add(le_word(block, 4));
    *c = c.wrapping_add(le_word(block, 8));
}

/// The last step of lookup3 over the stream's final 1..=12 bytes: the
/// partial block is zero-padded to three words and sent through `final`.
/// Empty input skips the final mix entirely.
#[inline(always)]
fn finish_tail(mut a: u32, mut b: u32, mut c: u32, tail: &[u8]) -> (u32, u32) {
    if !tail.is_empty() {
        let mut last = [0u8; 12];
        last[..tail.len()].copy_from_slice(tail);
        add_block(&mut a, &mut b, &mut c, &last);
        final_mix(&mut a, &mut b, &mut c);
    }
    (c, b)
}

/// Jenkins `hashlittle2`: hashes `data` and returns two 32-bit results.
///
/// `pc` and `pb` are the two seed values ("primary" and "secondary" initval
/// in Jenkins' reference code). Both returned words are good hash values;
/// together they form a 64-bit key with the collision behaviour the paper
/// relies on.
pub fn hashlittle2(data: &[u8], pc: u32, pb: u32) -> (u32, u32) {
    let mut a: u32 = 0xdead_beef_u32
        .wrapping_add(data.len() as u32)
        .wrapping_add(pc);
    let mut b: u32 = a;
    let mut c: u32 = a.wrapping_add(pb);

    // All but the last (possibly partial) 12-byte block: `> 12`, not `>=`,
    // because lookup3 routes a trailing full block through `final`.
    let mut rest = data;
    while rest.len() > 12 {
        let (block, tail) = rest.split_at(12);
        add_block(&mut a, &mut b, &mut c, block);
        mix(&mut a, &mut b, &mut c);
        rest = tail;
    }
    finish_tail(a, b, c, rest)
}

/// 64-bit Jenkins key: `hashlittle2` with both words combined.
///
/// This is the key stored in the Task History Table and the In-flight Key
/// Table (8 bytes per entry, as in the paper).
pub fn jenkins_hash64(data: &[u8], seed: u64) -> u64 {
    let (c, b) = hashlittle2(data, seed as u32, (seed >> 32) as u32);
    (u64::from(c) << 32) | u64::from(b)
}

/// Incremental 64-bit Jenkins hashing, in constant space.
///
/// The ATM key generator feeds it the per-argument contributions of a key
/// and the gathered bytes of a sampling plan as slices
/// ([`push_slice`](Self::push_slice)); single bytes go through
/// [`push`](Self::push). lookup3 folds the *total* input length into the
/// initial state, so the stream must be constructed with the final byte
/// count upfront — key generation always knows it. Whole 12-byte blocks are
/// `mix`ed straight from the caller's slice; only a block that straddles
/// two pushes, and the stream's last block (which lookup3 routes through
/// `final`), pass through the 12-byte buffer. The result is bit-identical
/// to [`jenkins_hash64`] over the concatenation of everything pushed.
#[derive(Debug, Clone)]
pub struct JenkinsStream {
    a: u32,
    b: u32,
    c: u32,
    /// A block begun by one push and not yet completed, or the stream's
    /// last block awaiting [`finish`](Self::finish).
    block: [u8; 12],
    /// Valid bytes in `block`.
    filled: usize,
    /// Total bytes pushed so far; never exceeds `total`.
    pushed: usize,
    /// The exact number of bytes that will be pushed, declared upfront.
    total: usize,
}

impl JenkinsStream {
    /// Creates a stream that will hash exactly `total_len` bytes with `seed`.
    ///
    /// # Panics
    /// [`finish`](Self::finish) panics if fewer than `total_len` bytes were
    /// pushed; pushing past it panics in debug builds.
    pub fn new(seed: u64, total_len: usize) -> Self {
        let pc = seed as u32;
        let pb = (seed >> 32) as u32;
        let a = 0xdead_beef_u32
            .wrapping_add(total_len as u32)
            .wrapping_add(pc);
        JenkinsStream {
            a,
            b: a,
            c: a.wrapping_add(pb),
            block: [0; 12],
            filled: 0,
            pushed: 0,
            total: total_len,
        }
    }

    /// True while more than one block's worth of input is still to come, so
    /// the next whole block is an inner one (`mix`) and not the stream's
    /// last (`final`).
    #[inline(always)]
    fn next_block_is_inner(&self) -> bool {
        self.total.saturating_sub(self.pushed) > 12
    }

    /// Mixes three words that form a whole inner block.
    #[inline(always)]
    fn mix_words(&mut self, w0: u32, w1: u32, w2: u32) {
        self.a = self.a.wrapping_add(w0);
        self.b = self.b.wrapping_add(w1);
        self.c = self.c.wrapping_add(w2);
        mix(&mut self.a, &mut self.b, &mut self.c);
        self.pushed += 12;
    }

    /// Mixes the buffered block once it is whole — unless it is the
    /// stream's last, which waits for [`finish`](Self::finish).
    #[inline(always)]
    fn mix_buffered_if_inner(&mut self) {
        if self.filled == 12 && self.pushed < self.total {
            let block = self.block;
            add_block(&mut self.a, &mut self.b, &mut self.c, &block);
            mix(&mut self.a, &mut self.b, &mut self.c);
            self.filled = 0;
        }
    }

    /// Appends one byte to the stream.
    #[inline]
    pub fn push(&mut self, byte: u8) {
        debug_assert!(
            self.pushed < self.total,
            "pushed more bytes than the declared total {}",
            self.total
        );
        self.block[self.filled] = byte;
        self.filled += 1;
        self.pushed += 1;
        self.mix_buffered_if_inner();
    }

    /// Appends a slice of bytes to the stream.
    #[inline]
    pub fn push_slice(&mut self, mut bytes: &[u8]) {
        debug_assert!(
            self.pushed + bytes.len() <= self.total,
            "pushed more bytes than the declared total {}",
            self.total
        );
        // Complete a block an earlier push left partial.
        if self.filled > 0 {
            let take = bytes.len().min(12 - self.filled);
            self.block[self.filled..self.filled + take].copy_from_slice(&bytes[..take]);
            self.filled += take;
            self.pushed += take;
            bytes = &bytes[take..];
            self.mix_buffered_if_inner();
            if bytes.is_empty() {
                return;
            }
        }
        // Whole inner blocks, straight from the slice.
        while bytes.len() >= 12 && self.next_block_is_inner() {
            let (block, rest) = bytes.split_at(12);
            self.mix_words(le_word(block, 0), le_word(block, 4), le_word(block, 8));
            bytes = rest;
        }
        // What is left starts a new block: fewer than 12 bytes, or exactly
        // the stream's last block.
        self.block[..bytes.len()].copy_from_slice(bytes);
        self.filled = bytes.len();
        self.pushed += bytes.len();
    }

    /// Number of bytes accumulated so far.
    pub fn len(&self) -> usize {
        self.pushed
    }

    /// True when no bytes have been pushed.
    pub fn is_empty(&self) -> bool {
        self.pushed == 0
    }

    /// Finalises the stream into a 64-bit key.
    ///
    /// # Panics
    /// Panics if the stream received fewer bytes than the total declared at
    /// construction — the length is already folded into the hash state, so
    /// finishing early would silently produce a key no oneshot hash of any
    /// byte string matches.
    pub fn finish(&self) -> u64 {
        assert_eq!(
            self.pushed, self.total,
            "stream finished after {} of {} declared bytes",
            self.pushed, self.total
        );
        let (c, b) = finish_tail(self.a, self.b, self.c, &self.block[..self.filled]);
        (u64::from(c) << 32) | u64::from(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_input_matches_lookup3_reference() {
        // Reference values from Bob Jenkins' lookup3.c driver: hashing ""
        // with both initvals zero yields c = 0xdeadbeef, b = 0xdeadbeef.
        let (c, b) = hashlittle2(b"", 0, 0);
        assert_eq!(c, 0xdead_beef);
        assert_eq!(b, 0xdead_beef);
    }

    #[test]
    fn empty_input_with_seeds_matches_lookup3_reference() {
        // From lookup3.c: hashlittle2("", pc=0, pb=0xdeadbeef) -> c=0xbd5b7dde
        // and hashlittle2("", pc=0xdeadbeef, pb=0xdeadbeef) -> c=0x9c093ccd.
        let (c1, _) = hashlittle2(b"", 0, 0xdead_beef);
        assert_eq!(c1, 0xbd5b_7dde);
        let (c2, _) = hashlittle2(b"", 0xdead_beef, 0xdead_beef);
        assert_eq!(c2, 0x9c09_3ccd);
    }

    #[test]
    fn four_score_matches_lookup3_reference() {
        // From lookup3.c driver: "Four score and seven years ago" with both
        // initvals zero gives c = 0x17770551.
        let (c, _) = hashlittle2(b"Four score and seven years ago", 0, 0);
        assert_eq!(c, 0x1777_0551);
    }

    #[test]
    fn four_score_with_seed_matches_lookup3_reference() {
        // From lookup3.c driver: initval 1 gives 0xcd628161. hashlittle with
        // initval maps to hashlittle2 with pc = initval, pb = 0.
        let (c, _) = hashlittle2(b"Four score and seven years ago", 1, 0);
        assert_eq!(c, 0xcd62_8161);
    }

    #[test]
    fn hash_is_deterministic_and_seed_sensitive() {
        let data = b"approximate task memoization";
        assert_eq!(jenkins_hash64(data, 7), jenkins_hash64(data, 7));
        assert_ne!(jenkins_hash64(data, 7), jenkins_hash64(data, 8));
    }

    #[test]
    fn single_byte_flip_changes_key() {
        let mut data = vec![0u8; 1024];
        let base = jenkins_hash64(&data, 0);
        data[512] ^= 0x01;
        assert_ne!(base, jenkins_hash64(&data, 0));
    }

    #[test]
    fn stream_matches_oneshot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        let mut stream = JenkinsStream::new(42, data.len());
        for chunk in data.chunks(7) {
            stream.push_slice(chunk);
        }
        assert_eq!(stream.finish(), jenkins_hash64(&data, 42));
        assert_eq!(stream.len(), data.len());
        assert!(!stream.is_empty());
    }

    #[test]
    fn stream_matches_oneshot_at_every_block_boundary_and_chunking() {
        // Bit-identity across the 12-byte block machinery: every length
        // around the mix/final boundaries, pushed through every chunk size,
        // must reproduce the oneshot hash exactly.
        let data: Vec<u8> = (0..48u8)
            .map(|i| i.wrapping_mul(37).wrapping_add(11))
            .collect();
        for len in 0..=data.len() {
            let oneshot = jenkins_hash64(&data[..len], 0xA5A5_5A5A_DEAD_BEEF);
            for chunk in 1..=13 {
                let mut stream = JenkinsStream::new(0xA5A5_5A5A_DEAD_BEEF, len);
                for piece in data[..len].chunks(chunk) {
                    stream.push_slice(piece);
                }
                assert_eq!(
                    stream.finish(),
                    oneshot,
                    "len {len} chunk {chunk} diverged from oneshot"
                );
            }
            // Byte-at-a-time, the path the sampled key generator takes.
            let mut stream = JenkinsStream::new(0xA5A5_5A5A_DEAD_BEEF, len);
            for &byte in &data[..len] {
                stream.push(byte);
            }
            assert_eq!(stream.finish(), oneshot, "len {len} byte-wise diverged");
            // Two slices split at every point (two contributions back to
            // back, at every alignment).
            for split in 0..=len {
                let (head, rest) = data[..len].split_at(split);
                let mut stream = JenkinsStream::new(0xA5A5_5A5A_DEAD_BEEF, len);
                stream.push_slice(head);
                stream.push_slice(rest);
                assert_eq!(stream.finish(), oneshot, "len {len}: split at {split}");
            }
        }
    }

    #[test]
    fn empty_stream_matches_empty_oneshot() {
        let stream = JenkinsStream::new(7, 0);
        assert!(stream.is_empty());
        assert_eq!(stream.finish(), jenkins_hash64(&[], 7));
    }

    #[test]
    #[should_panic(expected = "declared bytes")]
    fn finishing_short_of_the_declared_total_panics() {
        let mut stream = JenkinsStream::new(0, 3);
        stream.push(1);
        let _ = stream.finish();
    }

    #[test]
    fn block_boundary_lengths_are_all_distinct() {
        // Exercise the 12-byte block boundary handling: hash prefixes of
        // lengths 0..=40 of the same buffer and check they are all distinct.
        let data: Vec<u8> = (1..=40u8).collect();
        let mut seen = std::collections::HashSet::new();
        for len in 0..=data.len() {
            assert!(
                seen.insert(jenkins_hash64(&data[..len], 0)),
                "collision at prefix length {len}"
            );
        }
    }
}
