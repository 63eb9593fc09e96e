//! Task data-access annotations.
//!
//! These are the runtime-level equivalent of the `in(...)`, `out(...)` and
//! `inout(...)` clauses of OmpSs / OpenMP 4.0 task pragmas. Every submitted
//! task carries a list of [`Access`]es; the dependence tracker derives the
//! task dependence graph from overlaps between them, and the ATM engine uses
//! the `In`/`InOut` accesses as the bytes to hash and the `Out`/`InOut`
//! accesses as the outputs to memoize.
//!
//! Accesses are declared through typed [`Region<T>`] handles
//! ([`Access::read`], [`Access::write`], [`Access::read_write`]), so the
//! element type is derived from the handle instead of being restated by the
//! caller — the class of hash/copy-width mismatches the untyped constructors
//! allowed is ruled out by construction, and the submission validator
//! double-checks the derived type against the store.

use crate::region::{Elem, ElemType, Region, RegionId};
use std::ops::Range;

/// Direction of a data access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessMode {
    /// The task only reads the data (`in` clause).
    In,
    /// The task only produces the data (`out` clause).
    Out,
    /// The task reads and updates the data (`inout` clause).
    InOut,
}

impl AccessMode {
    /// True for `In` and `InOut`: the bytes participate in the hash key.
    pub fn is_read(self) -> bool {
        matches!(self, AccessMode::In | AccessMode::InOut)
    }

    /// True for `Out` and `InOut`: the bytes are produced by the task and
    /// stored in the Task History Table when it is memoizable.
    pub fn is_write(self) -> bool {
        matches!(self, AccessMode::Out | AccessMode::InOut)
    }
}

impl std::fmt::Display for AccessMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            AccessMode::In => "in",
            AccessMode::Out => "out",
            AccessMode::InOut => "inout",
        };
        f.write_str(name)
    }
}

/// One data access of a task: a byte range of a region, with a direction and
/// the element type of the accessed data (the paper extends the runtime API
/// with element types to enable type-aware input selection, §III-C).
#[derive(Debug, Clone, PartialEq)]
pub struct Access {
    /// The region being accessed.
    pub region: RegionId,
    /// Byte range inside the region. `None` means the whole region.
    pub range: Option<Range<usize>>,
    /// Access direction.
    pub mode: AccessMode,
    /// Element type of the accessed data, derived from the [`Region<T>`]
    /// handle the access was declared through.
    pub elem: ElemType,
}

impl Access {
    /// Whole-region read access through a typed handle (`in` clause).
    pub fn read<T: Elem>(region: &Region<T>) -> Self {
        Access {
            region: region.id(),
            range: None,
            mode: AccessMode::In,
            elem: T::ELEM,
        }
    }

    /// Whole-region write access through a typed handle (`out` clause).
    pub fn write<T: Elem>(region: &Region<T>) -> Self {
        Access {
            region: region.id(),
            range: None,
            mode: AccessMode::Out,
            elem: T::ELEM,
        }
    }

    /// Whole-region read-write access through a typed handle (`inout` clause).
    pub fn read_write<T: Elem>(region: &Region<T>) -> Self {
        Access {
            region: region.id(),
            range: None,
            mode: AccessMode::InOut,
            elem: T::ELEM,
        }
    }

    /// Restricts the access to a byte range of the region.
    #[must_use]
    pub fn with_range(mut self, range: Range<usize>) -> Self {
        self.range = Some(range);
        self
    }

    /// True when this access byte-overlaps `other` (same region and
    /// intersecting ranges; `None` ranges cover the whole region).
    pub fn overlaps(&self, other: &Access) -> bool {
        self.region == other.region && ranges_overlap(&self.range, &other.range)
    }

    /// True when the pair of accesses creates a dependence (at least one of
    /// the two writes and the ranges overlap).
    pub fn conflicts_with(&self, other: &Access) -> bool {
        (self.mode.is_write() || other.mode.is_write()) && self.overlaps(other)
    }
}

/// True when two byte ranges of one region intersect (`None` is the whole
/// region; an empty range intersects nothing).
pub(crate) fn ranges_overlap(a: &Option<Range<usize>>, b: &Option<Range<usize>>) -> bool {
    match (a, b) {
        (None, _) | (_, None) => true,
        (Some(a), Some(b)) => a.start.max(b.start) < a.end.min(b.end),
    }
}

/// True when `outer` is known to contain every byte of `inner`, which
/// makes everything that overlaps `inner` overlap `outer` too. A ranged
/// `outer` never covers a whole-region `inner` (the dependence tracker does
/// not know region sizes) nor an empty one (which [`ranges_overlap`] still
/// lets a whole-region access overlap): "not covered" is always the safe
/// answer.
pub(crate) fn range_covers(outer: &Option<Range<usize>>, inner: &Option<Range<usize>>) -> bool {
    match (outer, inner) {
        (None, _) => true,
        (Some(_), None) => false,
        (Some(outer), Some(inner)) => {
            !inner.is_empty() && outer.start <= inner.start && inner.end <= outer.end
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::region::DataStore;

    fn regions(n: usize) -> (DataStore, Vec<Region<f32>>) {
        let store = DataStore::new();
        let handles = (0..n)
            .map(|i| store.register_zeros::<f32>(format!("r{i}"), 256).unwrap())
            .collect();
        (store, handles)
    }

    #[test]
    fn mode_classification() {
        assert!(AccessMode::In.is_read());
        assert!(!AccessMode::In.is_write());
        assert!(!AccessMode::Out.is_read());
        assert!(AccessMode::Out.is_write());
        assert!(AccessMode::InOut.is_read());
        assert!(AccessMode::InOut.is_write());
    }

    #[test]
    fn typed_constructors_derive_the_element_type() {
        let store = DataStore::new();
        let floats = store.register_zeros::<f64>("floats", 4).unwrap();
        let ints = store.register_zeros::<i32>("ints", 4).unwrap();
        assert_eq!(Access::read(&floats).elem, ElemType::F64);
        assert_eq!(Access::write(&floats).mode, AccessMode::Out);
        let rw = Access::read_write(&ints);
        assert_eq!(rw.elem, ElemType::I32);
        assert_eq!(rw.mode, AccessMode::InOut);
        assert_eq!(rw.region, ints.id());
    }

    #[test]
    fn whole_region_accesses_always_overlap_same_region() {
        let (_store, r) = regions(2);
        let a = Access::read(&r[0]);
        let b = Access::write(&r[0]);
        let c = Access::write(&r[1]);
        assert!(a.overlaps(&b));
        assert!(!a.overlaps(&c));
    }

    #[test]
    fn ranged_overlap_detection() {
        let (_store, r) = regions(1);
        let a = Access::write(&r[0]).with_range(0..10);
        let b = Access::read(&r[0]).with_range(10..20);
        let c = Access::read(&r[0]).with_range(5..15);
        assert!(
            !a.overlaps(&b),
            "touching but disjoint ranges do not overlap"
        );
        assert!(a.overlaps(&c));
        assert!(b.overlaps(&c));
    }

    #[test]
    fn conflicts_require_a_writer() {
        let (_store, r) = regions(1);
        let read_a = Access::read(&r[0]);
        let read_b = Access::read(&r[0]);
        let write = Access::write(&r[0]);
        assert!(!read_a.conflicts_with(&read_b), "two reads never conflict");
        assert!(read_a.conflicts_with(&write));
        assert!(write.conflicts_with(&read_a));
        assert!(write.conflicts_with(&write.clone()));
    }

    #[test]
    fn ranged_whole_region_mix_overlaps() {
        let (_store, r) = regions(1);
        let whole = Access::read_write(&r[0]);
        let part = Access::read(&r[0]).with_range(100..200);
        assert!(whole.overlaps(&part));
        assert!(part.conflicts_with(&whole));
    }

    #[test]
    fn covering_is_containment_and_never_assumed_for_a_whole_region() {
        assert!(range_covers(&None, &None));
        assert!(range_covers(&None, &Some(3..9)));
        assert!(range_covers(&Some(0..16), &Some(0..16)));
        assert!(range_covers(&Some(0..16), &Some(4..8)));
        assert!(!range_covers(&Some(0..16), &Some(8..17)));
        assert!(!range_covers(&Some(0..usize::MAX), &None));
        // An empty range overlaps a whole-region access and nothing else, so
        // only a whole-region access may stand in for it.
        assert!(ranges_overlap(&None, &Some(5..5)));
        assert!(!range_covers(&Some(0..16), &Some(5..5)));
        assert!(range_covers(&None, &Some(5..5)));
    }

    #[test]
    fn empty_range_never_overlaps() {
        let (_store, r) = regions(1);
        let empty = Access::read(&r[0]).with_range(5..5);
        let other = Access::write(&r[0]).with_range(0..10);
        assert!(!empty.overlaps(&other));
    }
}
