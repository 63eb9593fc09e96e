//! Per-task-type input sampling and hash-key generation.
//!
//! An [`InputSampler`] is created the first time a task type executes and is
//! cached by the runtime (exactly as the paper describes: "we shuffle the
//! vector of indexes the first time a task type is executed and store it in
//! the runtime system"). From then on, every task instance of that type can
//! compute its key by selecting the first `N·p` shuffled byte positions of
//! its concatenated inputs and feeding them to the Jenkins hash.

use crate::jenkins::jenkins_hash64;
use crate::prng::Xoshiro256StarStar;
use crate::shuffle::{significance_ordered_indices, InputSpec};
use crate::Percentage;

/// Byte-level layout of a task type's data inputs.
///
/// Holds one [`InputSpec`] per data input, in the order the inputs are
/// declared. Task instances must present their input segments in this same
/// order and with these exact sizes (the paper's benchmarks have fixed task
/// input shapes per task type; the sampler checks this at run time).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ByteLayout {
    specs: Vec<InputSpec>,
    /// Exclusive prefix sums of segment byte sizes, ending with the total.
    offsets: Vec<usize>,
}

impl ByteLayout {
    /// Builds a layout from per-input element counts and widths.
    pub fn new(specs: Vec<InputSpec>) -> Self {
        let mut offsets = Vec::with_capacity(specs.len() + 1);
        let mut acc = 0usize;
        offsets.push(0);
        for s in &specs {
            acc += s.bytes();
            offsets.push(acc);
        }
        ByteLayout { specs, offsets }
    }

    /// Convenience constructor for inputs described as `(elements, elem_width)` pairs.
    pub fn from_pairs(pairs: &[(usize, usize)]) -> Self {
        Self::new(
            pairs
                .iter()
                .map(|&(elements, elem_width)| InputSpec {
                    elements,
                    elem_width,
                })
                .collect(),
        )
    }

    /// Total number of input bytes described by the layout.
    pub fn total_bytes(&self) -> usize {
        *self.offsets.last().unwrap_or(&0)
    }

    /// Number of data inputs.
    pub fn inputs(&self) -> usize {
        self.specs.len()
    }

    /// The per-input specifications.
    pub fn specs(&self) -> &[InputSpec] {
        &self.specs
    }

    /// Maps a flat byte index into `(segment, offset-within-segment)`.
    #[inline]
    pub fn locate(&self, flat: usize) -> (usize, usize) {
        debug_assert!(flat < self.total_bytes());
        // Binary search over the prefix sums; the number of inputs per task
        // is tiny (1-4 in all benchmarks) so partition_point is plenty fast.
        let seg = self.offsets.partition_point(|&o| o <= flat) - 1;
        (seg, flat - self.offsets[seg])
    }
}

/// One selected byte of a sampling plan, resolved to where it lives: which
/// input segment, which element of that segment, and which byte lane of the
/// element (lane 0 is the least significant byte, as in little-endian
/// storage).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlannedByte {
    /// Element index within the segment.
    pub elem: u32,
    /// Index of the input segment, in declaration order.
    pub segment: u16,
    /// Byte lane within the element, `0..elem_width`.
    pub lane: u8,
}

/// The result of sampling and hashing one task instance's inputs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SampledKey {
    /// The 64-bit Jenkins key over the selected bytes.
    pub key: u64,
    /// How many input bytes were selected.
    pub selected_bytes: usize,
    /// The percentage used for the selection.
    pub p: Percentage,
}

/// Per-task-type sampler: cached shuffled index vector + key computation.
#[derive(Debug, Clone)]
pub struct InputSampler {
    layout: ByteLayout,
    /// Shuffled flat byte indexes (plain or significance-ordered).
    indices: Vec<u32>,
    type_aware: bool,
    seed: u64,
}

impl InputSampler {
    /// Builds the sampler for a task type.
    ///
    /// `type_aware` selects the §III-C significance-ordered shuffle; `seed`
    /// makes the permutation reproducible (one fixed seed per task type).
    pub fn new(layout: ByteLayout, type_aware: bool, seed: u64) -> Self {
        let mut rng = Xoshiro256StarStar::new(seed ^ 0xA7A7_5E1E_C7ED_1D0F);
        let indices = significance_ordered_indices(layout.specs(), type_aware, &mut rng);
        InputSampler {
            layout,
            indices,
            type_aware,
            seed,
        }
    }

    /// Total bytes the sampler expects per task instance.
    pub fn total_bytes(&self) -> usize {
        self.layout.total_bytes()
    }

    /// Whether the significance-ordered (type-aware) shuffle is in use.
    pub fn is_type_aware(&self) -> bool {
        self.type_aware
    }

    /// The layout this sampler was built for.
    pub fn layout(&self) -> &ByteLayout {
        &self.layout
    }

    /// Approximate memory footprint of the cached index vector, in bytes.
    ///
    /// Accounted as ATM runtime-system overhead in Table III.
    pub fn memory_bytes(&self) -> usize {
        self.indices.len() * std::mem::size_of::<u32>()
    }

    /// Computes the hash key of one task instance.
    ///
    /// `segments` are the task's data inputs as byte slices, in declaration
    /// order; their sizes must match the layout exactly.
    ///
    /// # Panics
    /// Panics if the number or sizes of the segments do not match the layout.
    pub fn key(&self, segments: &[&[u8]], p: Percentage) -> SampledKey {
        self.check_segments(segments);
        let total = self.total_bytes();
        if total == 0 {
            return SampledKey {
                key: jenkins_hash64(&[], self.seed),
                selected_bytes: 0,
                p,
            };
        }
        let selected = p.bytes_of(total);

        // Static ATM (p = 100 %): every byte is selected, so the selection
        // set is the full input and we can hash the segments contiguously —
        // this is the fast path the paper relies on for exact memoization.
        if selected == total {
            let mut buf = Vec::with_capacity(total);
            for seg in segments {
                buf.extend_from_slice(seg);
            }
            return SampledKey {
                key: jenkins_hash64(&buf, self.seed),
                selected_bytes: total,
                p,
            };
        }

        let mut buf = Vec::with_capacity(selected);
        for &flat in &self.indices[..selected] {
            let (seg, off) = self.layout.locate(flat as usize);
            buf.push(segments[seg][off]);
        }
        SampledKey {
            key: jenkins_hash64(&buf, self.seed),
            selected_bytes: selected,
            p,
        }
    }

    /// The flat byte indexes that would be selected for a given `p`
    /// (exposed for tests and for the evaluation harness).
    pub fn selected_indices(&self, p: Percentage) -> &[u32] {
        let selected = p.bytes_of(self.total_bytes());
        &self.indices[..selected]
    }

    /// Resolves the selection at `p` into `(segment, element, lane)`
    /// coordinates, in selection order: the flat-index arithmetic
    /// ([`ByteLayout::locate`], then the split into element and lane) done
    /// once, so a key generator that caches the plan beside this sampler
    /// reads each selected byte with one indexed load and a shift.
    ///
    /// # Panics
    /// Panics if the layout has more than `u16::MAX` segments or an element
    /// wider than 255 bytes.
    pub fn plan(&self, p: Percentage) -> Vec<PlannedByte> {
        self.selected_indices(p)
            .iter()
            .map(|&flat| {
                let (segment, offset) = self.layout.locate(flat as usize);
                let width = self.layout.specs[segment].elem_width.max(1);
                PlannedByte {
                    elem: (offset / width) as u32,
                    segment: u16::try_from(segment).expect("at most u16::MAX input segments"),
                    lane: u8::try_from(offset % width).expect("element width fits a byte"),
                }
            })
            .collect()
    }

    fn check_segments(&self, segments: &[&[u8]]) {
        assert_eq!(
            segments.len(),
            self.layout.inputs(),
            "task instance presented {} input segments, layout declares {}",
            segments.len(),
            self.layout.inputs()
        );
        for (i, (seg, spec)) in segments.iter().zip(self.layout.specs()).enumerate() {
            assert_eq!(
                seg.len(),
                spec.bytes(),
                "input segment {i} has {} bytes, layout declares {}",
                seg.len(),
                spec.bytes()
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f32_bytes(values: &[f32]) -> Vec<u8> {
        values.iter().flat_map(|v| v.to_le_bytes()).collect()
    }

    #[test]
    fn identical_inputs_produce_identical_keys() {
        let layout = ByteLayout::from_pairs(&[(64, 4)]);
        let sampler = InputSampler::new(layout, false, 1);
        let data = f32_bytes(&vec![1.5f32; 64]);
        let k1 = sampler.key(&[&data], Percentage::FULL);
        let k2 = sampler.key(&[&data], Percentage::FULL);
        assert_eq!(k1.key, k2.key);
        assert_eq!(k1.selected_bytes, 256);
    }

    #[test]
    fn different_inputs_produce_different_keys_at_full_p() {
        let layout = ByteLayout::from_pairs(&[(64, 4)]);
        let sampler = InputSampler::new(layout, false, 1);
        let a = f32_bytes(&vec![1.5f32; 64]);
        let mut b_vals = vec![1.5f32; 64];
        b_vals[10] = 1.5000001;
        let b = f32_bytes(&b_vals);
        assert_ne!(
            sampler.key(&[&a], Percentage::FULL).key,
            sampler.key(&[&b], Percentage::FULL).key
        );
    }

    #[test]
    fn small_p_ignores_low_order_mantissa_changes_with_type_awareness() {
        // With the type-aware shuffle and a small p, only the most
        // significant bytes are hashed, so a tiny perturbation in the low
        // mantissa bytes must not change the key — this is exactly the
        // approximation mechanism of Dynamic ATM.
        let layout = ByteLayout::from_pairs(&[(256, 4)]);
        let sampler = InputSampler::new(layout, true, 7);
        let a: Vec<f32> = (0..256).map(|i| 1.0 + i as f32).collect();
        let mut b = a.clone();
        for v in &mut b {
            // Perturb only the lowest mantissa bits.
            *v = f32::from_bits(v.to_bits() ^ 0x1);
        }
        let pa = Percentage::from_fraction(0.25);
        let ka = sampler.key(&[&f32_bytes(&a)], pa);
        let kb = sampler.key(&[&f32_bytes(&b)], pa);
        assert_eq!(
            ka.key, kb.key,
            "low-mantissa perturbation should be invisible at p=25% with type-aware selection"
        );

        // But a sign flip must always be visible, even at the smallest p,
        // because MSBs are selected first.
        let mut c = a.clone();
        for v in &mut c {
            *v = -*v;
        }
        let kc = sampler.key(&[&f32_bytes(&c)], Percentage::MIN);
        let ka_min = sampler.key(&[&f32_bytes(&a)], Percentage::MIN);
        assert_ne!(
            ka_min.key, kc.key,
            "sign flips must change the key even at p=2^-15"
        );
    }

    #[test]
    fn selected_byte_count_follows_percentage() {
        let layout = ByteLayout::from_pairs(&[(1000, 4)]);
        let sampler = InputSampler::new(layout, false, 3);
        let data = vec![0u8; 4000];
        assert_eq!(
            sampler
                .key(&[&data], Percentage::from_fraction(0.5))
                .selected_bytes,
            2000
        );
        assert_eq!(sampler.key(&[&data], Percentage::MIN).selected_bytes, 1);
        assert_eq!(sampler.key(&[&data], Percentage::FULL).selected_bytes, 4000);
    }

    #[test]
    fn multiple_segments_are_concatenated_in_order() {
        // The same bytes split differently across segments must hash
        // identically at p = 100 % (the flat concatenation is what matters).
        let layout_a = ByteLayout::from_pairs(&[(8, 1), (8, 1)]);
        let layout_b = ByteLayout::from_pairs(&[(16, 1)]);
        let sampler_a = InputSampler::new(layout_a, false, 5);
        let sampler_b = InputSampler::new(layout_b, false, 5);
        let bytes: Vec<u8> = (0..16).collect();
        let ka = sampler_a.key(&[&bytes[..8], &bytes[8..]], Percentage::FULL);
        let kb = sampler_b.key(&[&bytes], Percentage::FULL);
        assert_eq!(ka.key, kb.key);
    }

    #[test]
    #[should_panic(expected = "input segments")]
    fn wrong_segment_count_panics() {
        let layout = ByteLayout::from_pairs(&[(4, 4), (4, 4)]);
        let sampler = InputSampler::new(layout, false, 1);
        let data = vec![0u8; 16];
        let _ = sampler.key(&[&data], Percentage::FULL);
    }

    #[test]
    #[should_panic(expected = "bytes")]
    fn wrong_segment_size_panics() {
        let layout = ByteLayout::from_pairs(&[(4, 4)]);
        let sampler = InputSampler::new(layout, false, 1);
        let data = vec![0u8; 15];
        let _ = sampler.key(&[&data], Percentage::FULL);
    }

    #[test]
    fn empty_layout_is_supported() {
        let layout = ByteLayout::from_pairs(&[]);
        let sampler = InputSampler::new(layout, true, 1);
        let k = sampler.key(&[], Percentage::FULL);
        assert_eq!(k.selected_bytes, 0);
    }

    #[test]
    fn selected_indices_are_prefix_of_permutation() {
        let layout = ByteLayout::from_pairs(&[(32, 8)]);
        let sampler = InputSampler::new(layout, true, 11);
        let half = sampler.selected_indices(Percentage::from_fraction(0.5));
        assert_eq!(half.len(), 128);
        let full = sampler.selected_indices(Percentage::FULL);
        assert_eq!(full.len(), 256);
        assert_eq!(&full[..128], half);
    }

    #[test]
    fn plan_addresses_the_selected_bytes_in_selection_order() {
        // Mixed widths, an empty segment in the middle: every planned byte
        // must name the same byte its flat index does.
        let layout = ByteLayout::from_pairs(&[(5, 4), (0, 8), (3, 8), (7, 1)]);
        let offsets = [0usize, 20, 20, 44];
        for type_aware in [false, true] {
            let sampler = InputSampler::new(layout.clone(), type_aware, 23);
            for p in [
                Percentage::MIN,
                Percentage::from_fraction(0.3),
                Percentage::FULL,
            ] {
                let plan = sampler.plan(p);
                let selected = sampler.selected_indices(p);
                assert_eq!(plan.len(), selected.len());
                for (planned, &flat) in plan.iter().zip(selected) {
                    let segment = planned.segment as usize;
                    let width = layout.specs()[segment].elem_width;
                    assert!((planned.lane as usize) < width);
                    assert_eq!(
                        offsets[segment] + planned.elem as usize * width + planned.lane as usize,
                        flat as usize
                    );
                }
            }
        }
    }

    #[test]
    fn memory_accounting_matches_index_vector() {
        let layout = ByteLayout::from_pairs(&[(100, 4)]);
        let sampler = InputSampler::new(layout, false, 2);
        assert_eq!(sampler.memory_bytes(), 400 * 4);
    }
}
