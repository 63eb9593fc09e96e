//! Output snapshots: the task outputs stored in the Task History Table.
//!
//! The paper stores a *compressed* (hashed) representation of the task
//! inputs but has to keep the **full outputs** in the THT so that a future
//! task with a matching key can have its outputs provided without executing
//! (`copyOuts()` in Figure 1). An [`OutputSnapshot`] is one write access of a
//! completed task: which region, which element range, and a copy of the data.
//!
//! Capture and copy-out work on *resolved* regions — the [`RegionRef`]s a
//! task carries from its submission — taking one lock per output and no
//! registry lookup: [`OutputSnapshot::capture_all_resolved`],
//! [`apply_snapshots_to_resolved`]. The store-taking functions are thin
//! adapters that resolve first, for host-side callers and tests.

use atm_runtime::{Access, DataStore, RegionData, RegionId, RegionRef};
use std::ops::Range;

/// A copy of one task output (one `Out`/`InOut` access) at task completion.
#[derive(Debug, Clone, PartialEq)]
pub struct OutputSnapshot {
    /// The region the output lives in.
    pub region: RegionId,
    /// Element range covered by the access.
    pub elem_range: Range<usize>,
    /// The copied data (exactly `elem_range.len()` elements).
    pub data: RegionData,
}

impl OutputSnapshot {
    /// Captures the current contents of the output covered by `access`.
    ///
    /// # Panics
    /// Panics if `access` is not a write access.
    pub fn capture(store: &DataStore, access: &Access) -> Self {
        Self::capture_resolved(access, &store.region_ref(access.region))
    }

    /// [`capture`](Self::capture) from `access`'s resolved region: one read
    /// lock.
    fn capture_resolved(access: &Access, region: &RegionRef) -> Self {
        assert!(
            access.mode.is_write(),
            "output snapshots are only taken of write accesses"
        );
        let elem_range = elem_range_within(access, region.len());
        OutputSnapshot {
            region: access.region,
            data: region.read().slice_elems(elem_range.clone()),
            elem_range,
        }
    }

    /// Captures all write accesses of a task, in declaration order.
    pub fn capture_all(store: &DataStore, accesses: &[Access]) -> Vec<OutputSnapshot> {
        Self::capture_all_resolved(accesses, &store.resolve(accesses))
    }

    /// [`capture_all`](Self::capture_all) over resolved regions
    /// (`regions[i]` is `accesses[i]`'s): one read lock per output.
    pub fn capture_all_resolved(accesses: &[Access], regions: &[RegionRef]) -> Vec<OutputSnapshot> {
        resolved_writes(accesses, regions)
            .map(|(access, region)| Self::capture_resolved(access, region))
            .collect()
    }

    /// Writes the snapshot back into its own region/range. This is how a
    /// THT hit provides the outputs of the *same* blocks again.
    pub fn apply(&self, store: &DataStore) {
        let region = store.write(self.region);
        let mut guard = region.lock();
        guard.write_elems(self.elem_range.clone(), &self.data);
    }

    /// Writes the snapshot into *another* task's output access (same task
    /// type, so same shape). This is the `copyOuts()` used when the matching
    /// THT entry was produced by a task operating on different regions, and
    /// the postponed copy-out of the In-flight Key Table.
    ///
    /// # Panics
    /// Panics if the destination access covers a different number of elements.
    pub fn apply_to(&self, store: &DataStore, access: &Access) {
        self.apply_to_resolved(access, &store.region_ref(access.region));
    }

    /// [`apply_to`](Self::apply_to) into `access`'s resolved region: the
    /// destination range comes from the handle's cached length, so the copy
    /// takes the one write lock and nothing else.
    fn apply_to_resolved(&self, access: &Access, region: &RegionRef) {
        assert!(
            access.mode.is_write(),
            "cannot copy outputs into a read-only access"
        );
        let dst_range = elem_range_within(access, region.len());
        assert_eq!(
            dst_range.len(),
            self.elem_range.len(),
            "output shape mismatch: snapshot has {} elements, destination access covers {}",
            self.elem_range.len(),
            dst_range.len()
        );
        region.write().write_elems(dst_range, &self.data);
    }

    /// Size of the stored data in bytes (THT memory accounting, Table III).
    pub fn size_bytes(&self) -> usize {
        self.data.size_bytes()
    }

    /// The stored output as `f64` values (for the Chebyshev comparison of
    /// the Dynamic ATM training phase).
    pub fn as_f64_vec(&self) -> Vec<f64> {
        self.data.to_f64_vec()
    }
}

/// Applies a set of snapshots to the corresponding write accesses of another
/// task (pairing snapshots and write accesses in declaration order).
///
/// # Panics
/// Panics if the number of write accesses differs from the number of snapshots.
pub fn apply_snapshots_to(store: &DataStore, snapshots: &[OutputSnapshot], accesses: &[Access]) {
    apply_snapshots_to_resolved(snapshots, accesses, &store.resolve(accesses));
}

/// [`apply_snapshots_to`] over resolved regions (`regions[i]` is
/// `accesses[i]`'s): the memoized copy-out, one write lock per output.
///
/// # Panics
/// Panics if the number of write accesses differs from the number of snapshots.
pub fn apply_snapshots_to_resolved(
    snapshots: &[OutputSnapshot],
    accesses: &[Access],
    regions: &[RegionRef],
) {
    let writes = accesses.iter().filter(|a| a.mode.is_write()).count();
    assert_eq!(
        writes,
        snapshots.len(),
        "task declares {writes} outputs but the history entry holds {}",
        snapshots.len()
    );
    for (snapshot, (access, region)) in snapshots.iter().zip(resolved_writes(accesses, regions)) {
        snapshot.apply_to_resolved(access, region);
    }
}

/// The write accesses of a task paired with their resolved regions, in
/// declaration order.
pub fn resolved_writes<'a>(
    accesses: &'a [Access],
    regions: &'a [RegionRef],
) -> impl Iterator<Item = (&'a Access, &'a RegionRef)> {
    debug_assert_eq!(accesses.len(), regions.len(), "one region per access");
    accesses
        .iter()
        .zip(regions)
        .filter(|(a, _)| a.mode.is_write())
}

/// Captures the current contents of a task's outputs as flat `f64` values
/// (concatenating all write accesses). Used as the "correct" side of the
/// training-phase Chebyshev comparison.
pub fn outputs_as_f64(store: &DataStore, accesses: &[Access]) -> Vec<f64> {
    OutputSnapshot::capture_all(store, accesses)
        .iter()
        .flat_map(OutputSnapshot::as_f64_vec)
        .collect()
}

/// Element range covered by an access (whole region when unranged).
pub fn elem_range_of(store: &DataStore, access: &Access) -> Range<usize> {
    match &access.range {
        Some(_) => elem_range_within(access, 0),
        None => elem_range_within(access, store.region_ref(access.region).len()),
    }
}

/// [`elem_range_of`] for a caller that knows the region's length (a
/// [`RegionRef::len`], or a region it holds locked): `region_len` is what
/// an unranged access covers.
pub fn elem_range_within(access: &Access, region_len: usize) -> Range<usize> {
    match &access.range {
        Some(bytes) => {
            let width = access.elem.width();
            (bytes.start / width)..(bytes.end / width)
        }
        None => 0..region_len,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capture_and_apply_round_trip() {
        let store = DataStore::new();
        let r = store
            .register_typed("r", vec![1.0f32, 2.0, 3.0, 4.0])
            .unwrap();
        let access = Access::write(&r).with_range(4..12);
        let snap = OutputSnapshot::capture(&store, &access);
        assert_eq!(snap.elem_range, 1..3);
        assert_eq!(snap.data.as_f32(), &[2.0, 3.0]);
        assert_eq!(snap.size_bytes(), 8);

        // Clobber the region, then re-apply the snapshot.
        store
            .write(r)
            .lock()
            .as_f32_mut()
            .copy_from_slice(&[9.0; 4]);
        snap.apply(&store);
        assert_eq!(store.read(r).lock().as_f32(), &[9.0, 2.0, 3.0, 9.0]);
    }

    #[test]
    fn apply_to_copies_into_a_different_region() {
        let store = DataStore::new();
        let src = store.register_typed("src", vec![1.0f64, 2.0]).unwrap();
        let dst = store.register_zeros::<f64>("dst", 2).unwrap();
        let snap = OutputSnapshot::capture(&store, &Access::write(&src));
        snap.apply_to(&store, &Access::write(&dst));
        assert_eq!(store.read(dst).lock().as_f64(), &[1.0, 2.0]);
    }

    #[test]
    fn capture_all_and_apply_snapshots_to_pair_by_order() {
        let store = DataStore::new();
        let in_r = store.register_typed("in", vec![5.0f32]).unwrap();
        let out_a = store.register_typed("a", vec![1.0f32, 2.0]).unwrap();
        let out_b = store.register_typed("b", vec![7i32]).unwrap();
        let accesses = vec![
            Access::read(&in_r),
            Access::write(&out_a),
            Access::write(&out_b),
        ];
        let snaps = OutputSnapshot::capture_all(&store, &accesses);
        assert_eq!(snaps.len(), 2);

        let dst_a = store.register_zeros::<f32>("da", 2).unwrap();
        let dst_b = store.register_zeros::<i32>("db", 1).unwrap();
        let dst_accesses = vec![
            Access::read(&in_r),
            Access::write(&dst_a),
            Access::write(&dst_b),
        ];
        apply_snapshots_to(&store, &snaps, &dst_accesses);
        assert_eq!(store.read(dst_a).lock().as_f32(), &[1.0, 2.0]);
        assert_eq!(store.read(dst_b).lock().as_i32(), &[7]);
    }

    #[test]
    fn resolved_capture_and_copy_out_never_go_back_to_the_store() {
        let store = DataStore::new();
        let src = store.register_typed("src", vec![1.0f32, 2.0, 3.0]).unwrap();
        let dst = store.register_zeros::<f32>("dst", 4).unwrap();
        let produced = vec![Access::read(&dst), Access::write(&src)];
        let consumer = vec![Access::write(&dst).with_range(4..16)];
        let (src_regions, dst_regions) = (store.resolve(&produced), store.resolve(&consumer));
        // With both ids retired, only the handles still reach the buffers.
        store.deregister(src).unwrap();
        store.deregister(dst).unwrap();
        let snaps = OutputSnapshot::capture_all_resolved(&produced, &src_regions);
        assert_eq!(snaps.len(), 1);
        assert_eq!(snaps[0].elem_range, 0..3);
        apply_snapshots_to_resolved(&snaps, &consumer, &dst_regions);
        assert_eq!(dst_regions[0].read().as_f32(), &[0.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn outputs_as_f64_concatenates_write_accesses() {
        let store = DataStore::new();
        let a = store.register_typed("a", vec![1.0f32, 2.0]).unwrap();
        let b = store.register_typed("b", vec![3i32]).unwrap();
        let accesses = vec![Access::write(&a), Access::read(&a), Access::read_write(&b)];
        assert_eq!(outputs_as_f64(&store, &accesses), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "output shape mismatch")]
    fn apply_to_with_wrong_shape_panics() {
        let store = DataStore::new();
        let src = store.register_typed("src", vec![1.0f64, 2.0]).unwrap();
        let dst = store.register_zeros::<f64>("dst", 1).unwrap();
        let snap = OutputSnapshot::capture(&store, &Access::write(&src));
        snap.apply_to(&store, &Access::write(&dst));
    }

    #[test]
    #[should_panic(expected = "write accesses")]
    fn capturing_a_read_access_panics() {
        let store = DataStore::new();
        let r = store.register_typed("r", vec![1.0f32]).unwrap();
        let _ = OutputSnapshot::capture(&store, &Access::read(&r));
    }
}
