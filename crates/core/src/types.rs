//! The engine's per-task-type state and the table that holds it.
//!
//! A type is resolved once, when its first instance reaches the engine, and
//! never removed; [`TaskTypeId::index`] is dense (registration order). So
//! the table is append-only and indexed directly: segments of doubling size
//! behind `OnceLock`s, which makes the lookup every memoizable task pays
//! two dependent loads and no lock.

use crate::key::KeyGenerator;
use crate::policy::TypePolicy;
use crate::stats::TypeSummary;
use atm_runtime::TaskTypeId;
use std::sync::OnceLock;

/// Everything the engine keeps for one task type.
pub(crate) struct TypeEntry {
    /// The type's name, captured once when the type is resolved.
    pub name: String,
    pub keygen: KeyGenerator,
    /// What to do with the type's tasks, and the counters that say how it
    /// went.
    pub policy: TypePolicy,
}

impl TypeEntry {
    /// The type's counters joined with its policy's current state.
    pub fn summary(&self) -> TypeSummary {
        let counts = self.policy.counters.snapshot();
        let status = self.policy.status();
        TypeSummary {
            name: self.name.clone(),
            seen: counts.seen,
            tht_bypassed: counts.tht_bypassed,
            ikt_deferred: counts.ikt_deferred,
            training_hits: counts.training_hits,
            final_p: status.p.fraction(),
            steady: status.steady,
            unstable_outputs: status.unstable_outputs,
            down_shifts: status.down_shifts,
            gated: counts.gated,
            probe_ns: counts.probe_ns,
            kernel_ns: counts.kernel_ns,
            saved_ns: counts.saved_ns,
            gate_closures: status.gate_closures,
            open: status.open,
        }
    }
}

/// Slots in segment 0; segment `k` holds `FIRST_SEGMENT << k`.
const FIRST_SEGMENT: usize = 16;
/// Enough segments for every `u32` type index.
const SEGMENTS: usize = 29;

type Segment = Box<[OnceLock<TypeEntry>]>;

/// Dense append-only table of [`TypeEntry`], indexed by
/// [`TaskTypeId::index`].
pub(crate) struct TypeTable {
    segments: [OnceLock<Segment>; SEGMENTS],
}

impl TypeTable {
    pub fn new() -> Self {
        TypeTable {
            segments: std::array::from_fn(|_| OnceLock::new()),
        }
    }

    /// `(segment, offset)` of a type index.
    fn locate(index: usize) -> (usize, usize) {
        let shifted = index + FIRST_SEGMENT;
        let segment = (shifted.ilog2() - FIRST_SEGMENT.ilog2()) as usize;
        (segment, shifted - (FIRST_SEGMENT << segment))
    }

    /// The entry of a resolved type.
    pub fn get(&self, type_id: TaskTypeId) -> Option<&TypeEntry> {
        let (segment, offset) = Self::locate(type_id.index());
        self.segments[segment].get()?[offset].get()
    }

    /// The entry of `type_id`, resolved by `resolve` if this is the first
    /// task of the type to get here (concurrent first tasks race; one
    /// `resolve` wins and all see its entry).
    pub fn get_or_resolve(
        &self,
        type_id: TaskTypeId,
        resolve: impl FnOnce() -> TypeEntry,
    ) -> &TypeEntry {
        let (segment, offset) = Self::locate(type_id.index());
        let slots = self.segments[segment].get_or_init(|| {
            (0..FIRST_SEGMENT << segment)
                .map(|_| OnceLock::new())
                .collect()
        });
        slots[offset].get_or_init(resolve)
    }

    /// Every resolved type with its id, in index order.
    pub fn iter(&self) -> impl Iterator<Item = (TaskTypeId, &TypeEntry)> {
        self.segments
            .iter()
            .enumerate()
            .filter_map(|(segment, slots)| Some((segment, slots.get()?)))
            .flat_map(|(segment, slots)| {
                let first = (FIRST_SEGMENT << segment) - FIRST_SEGMENT;
                slots.iter().enumerate().filter_map(move |(offset, slot)| {
                    Some((TaskTypeId::from_raw((first + offset) as u32), slot.get()?))
                })
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AtmMode;
    use atm_runtime::MemoSpec;

    fn entry(name: &str) -> TypeEntry {
        TypeEntry {
            name: name.to_owned(),
            keygen: KeyGenerator::new(0, true),
            policy: TypePolicy::resolve(AtmMode::Static, MemoSpec::exact()),
        }
    }

    #[test]
    fn locate_tiles_the_index_space_without_gaps() {
        let mut expected = (0usize, 0usize);
        for index in 0..10_000 {
            assert_eq!(TypeTable::locate(index), expected, "index {index}");
            expected.1 += 1;
            if expected.1 == FIRST_SEGMENT << expected.0 {
                expected = (expected.0 + 1, 0);
            }
        }
        let (segment, offset) = TypeTable::locate(u32::MAX as usize);
        assert!(segment < SEGMENTS && offset < FIRST_SEGMENT << segment);
    }

    #[test]
    fn entries_resolve_once_and_iterate_in_index_order() {
        let table = TypeTable::new();
        assert!(table.get(TaskTypeId::from_raw(3)).is_none());
        for index in [40u32, 3, 17] {
            let id = TaskTypeId::from_raw(index);
            table.get_or_resolve(id, || entry(&format!("t{index}")));
            // A second resolution of the same type keeps the first.
            let kept = table.get_or_resolve(id, || entry("late"));
            assert_eq!(kept.name, format!("t{index}"));
        }
        assert_eq!(table.get(TaskTypeId::from_raw(17)).unwrap().name, "t17");
        assert!(table.get(TaskTypeId::from_raw(16)).is_none());
        let seen: Vec<_> = table
            .iter()
            .map(|(id, e)| (id.index(), e.name.clone()))
            .collect();
        assert_eq!(
            seen,
            vec![
                (3, "t3".to_owned()),
                (17, "t17".to_owned()),
                (40, "t40".to_owned())
            ]
        );
    }
}
