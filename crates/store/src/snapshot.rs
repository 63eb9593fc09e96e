//! Output snapshots: the task outputs stored in the Task History Table.
//!
//! The paper stores a *compressed* (hashed) representation of the task
//! inputs but has to keep the **full outputs** in the THT so that a future
//! task with a matching key can have its outputs provided without executing
//! (`copyOuts()` in Figure 1). An [`OutputSnapshot`] is one write access of a
//! completed task: which region, and a copy of all of its data — an access
//! always covers its whole region.
//!
//! Capture and copy-out work on *resolved* regions — the [`RegionRef`]s a
//! task carries from its submission — taking one lock per output and no
//! registry lookup: [`OutputSnapshot::capture_all_resolved`],
//! [`apply_snapshots_to_resolved`]. [`OutputSnapshot::capture`] and
//! [`OutputSnapshot::apply_to`] are thin adapters that resolve first, for
//! host-side callers and tests.

use atm_runtime::{Access, DataStore, RegionData, RegionId, RegionRef};
use std::ops::Range;

/// A copy of one task output (one `Out`/`InOut` access) at task completion.
#[derive(Debug, Clone, PartialEq)]
pub struct OutputSnapshot {
    /// The region the output lives in.
    pub region: RegionId,
    /// Element range of the copied data: always `0..data.len()`, since an
    /// access covers its whole region. Kept for the snapshot file format
    /// and the struct's literal users.
    pub elem_range: Range<usize>,
    /// The copied data: the region's every element.
    pub data: RegionData,
}

impl OutputSnapshot {
    /// Captures the current contents of the output region of `access`.
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
        let data = RegionData::clone(&region.read());
        OutputSnapshot {
            region: access.region,
            elem_range: 0..data.len(),
            data,
        }
    }

    /// Captures every write access of a task, in declaration order, from
    /// the resolved regions (`regions[i]` is `accesses[i]`'s): one read
    /// lock per output.
    pub fn capture_all_resolved(accesses: &[Access], regions: &[RegionRef]) -> Vec<OutputSnapshot> {
        resolved_writes(accesses, regions)
            .map(|(access, region)| Self::capture_resolved(access, region))
            .collect()
    }

    /// Writes the snapshot into a task's output access — its own region
    /// again, or another task's of the same type and shape. This is the
    /// `copyOuts()` of a THT hit and the postponed copy-out of the
    /// In-flight Key Table.
    ///
    /// # Panics
    /// Panics if the destination region holds a different number of
    /// elements.
    pub fn apply_to(&self, store: &DataStore, access: &Access) {
        self.apply_to_resolved(access, &store.region_ref(access.region));
    }

    /// [`apply_to`](Self::apply_to) into `access`'s resolved region: the
    /// length check reads the handle's cached length, so the copy takes
    /// the one write lock and nothing else.
    fn apply_to_resolved(&self, access: &Access, region: &RegionRef) {
        assert!(
            access.mode.is_write(),
            "cannot copy outputs into a read-only access"
        );
        assert_eq!(
            region.len(),
            self.data.len(),
            "output shape mismatch: snapshot has {} elements, destination region holds {}",
            self.data.len(),
            region.len()
        );
        region.write().copy_from(&self.data);
    }

    /// Size of the stored data in bytes (THT memory accounting, Table III).
    pub fn size_bytes(&self) -> usize {
        self.data.size_bytes()
    }
}

/// Applies a set of snapshots to the write accesses of a task over its
/// resolved regions (`regions[i]` is `accesses[i]`'s), pairing snapshots
/// and write accesses in declaration order: the memoized copy-out, one
/// write lock per output.
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capture_and_apply_round_trip() {
        let store = DataStore::new();
        let r = store.register_typed("r", vec![2.0f32, 3.0]).unwrap();
        let access = Access::write(&r);
        let snap = OutputSnapshot::capture(&store, &access);
        assert_eq!(snap.elem_range, 0..2);
        assert_eq!(snap.data.as_f32(), &[2.0, 3.0]);
        assert_eq!(snap.size_bytes(), 8);

        // Clobber the region, then re-apply the snapshot.
        store
            .write(r)
            .lock()
            .as_f32_mut()
            .copy_from_slice(&[9.0; 2]);
        snap.apply_to(&store, &access);
        assert_eq!(store.read(r).lock().as_f32(), &[2.0, 3.0]);
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
        let snaps = OutputSnapshot::capture_all_resolved(&accesses, &store.resolve(&accesses));
        assert_eq!(snaps.len(), 2);

        let dst_a = store.register_zeros::<f32>("da", 2).unwrap();
        let dst_b = store.register_zeros::<i32>("db", 1).unwrap();
        let dst_accesses = vec![
            Access::read(&in_r),
            Access::write(&dst_a),
            Access::write(&dst_b),
        ];
        apply_snapshots_to_resolved(&snaps, &dst_accesses, &store.resolve(&dst_accesses));
        assert_eq!(store.read(dst_a).lock().as_f32(), &[1.0, 2.0]);
        assert_eq!(store.read(dst_b).lock().as_i32(), &[7]);
    }

    #[test]
    fn resolved_capture_and_copy_out_never_go_back_to_the_store() {
        let store = DataStore::new();
        let src = store.register_typed("src", vec![1.0f32, 2.0, 3.0]).unwrap();
        let dst = store.register_zeros::<f32>("dst", 3).unwrap();
        let produced = vec![Access::read(&dst), Access::write(&src)];
        let consumer = vec![Access::write(&dst)];
        let (src_regions, dst_regions) = (store.resolve(&produced), store.resolve(&consumer));
        // With both ids retired, only the handles still reach the buffers.
        store.deregister(src).unwrap();
        store.deregister(dst).unwrap();
        let snaps = OutputSnapshot::capture_all_resolved(&produced, &src_regions);
        assert_eq!(snaps.len(), 1);
        assert_eq!(snaps[0].elem_range, 0..3);
        apply_snapshots_to_resolved(&snaps, &consumer, &dst_regions);
        assert_eq!(dst_regions[0].read().as_f32(), &[1.0, 2.0, 3.0]);
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
