//! The region byte-path audit suite, written to run under Miri.
//!
//! The workspace forbids `unsafe_code`: the region store keeps
//! typed, locked buffers where the original runtime tracked raw address
//! ranges, so there is no `unsafe` block to audit line by line. What CAN
//! still go wrong without `unsafe` is logic on the byte views — element
//! widths, lengths, cross-type restores — so this suite drives
//! exactly those paths (read, write, copy, restore, the word and lane
//! views the ATM key generator hashes through, and the write version and
//! digest slot that let it skip unwritten regions, reached through the store
//! or a resolved `RegionRef` alike) and the nightly Miri job
//! replays it to certify the absence of UB end to end.

use atm_runtime::{DataStore, ElemType, RegionData, WordSink};

/// Collects what a window feeds its sink, as bytes.
#[derive(Default)]
struct Collect(Vec<u8>);

impl WordSink for Collect {
    fn words(&mut self, words: impl Iterator<Item = u64>) {
        for word in words {
            self.0.extend_from_slice(&word.to_le_bytes());
        }
    }

    fn bytes(&mut self, bytes: &[u8]) {
        self.0.extend_from_slice(bytes);
    }
}

fn one_of_each() -> Vec<RegionData> {
    vec![
        RegionData::F32(vec![1.5, -2.5, 3.25, 0.0, f32::MAX]),
        RegionData::F64(vec![1.5, -0.0, f64::MIN_POSITIVE, 1e300]),
        RegionData::I32(vec![0x0102_0304, -5, i32::MIN]),
        RegionData::I64(vec![-1, i64::MAX, 0x0102_0304_0506_0708]),
        RegionData::U8(vec![0xAB, 0xCD, 0xEF, 0x01, 0x23, 0x45, 0x67]),
    ]
}

#[test]
fn typed_views_round_trip_through_bytes() {
    let store = DataStore::new();
    let r = store
        .register_typed::<f32>("f", vec![1.0, -2.5, 3.25, 0.0])
        .unwrap();

    {
        let guard = store.read(r);
        let data = guard.lock();
        assert_eq!(data.elem_type(), ElemType::F32);
        assert_eq!(data.len(), 4);
        assert_eq!(data.size_bytes(), 16);
        assert_eq!(data.as_f32(), &[1.0, -2.5, 3.25, 0.0]);
        // Byte-level views agree with the typed view.
        let bytes = data.to_bytes();
        assert_eq!(bytes.len(), 16);
        assert_eq!(&bytes[4..8], (-2.5f32).to_le_bytes());
        assert_eq!(data.byte_at(4), (-2.5f32).to_le_bytes()[0]);
    }

    // Write through the typed mutable view; the byte view follows.
    store.write(r).lock().as_f32_mut()[1] = 7.5;
    assert_eq!(store.read(r).lock().to_bytes()[4..8], 7.5f32.to_le_bytes());
}

#[test]
fn slice_write_and_restore_preserve_shape() {
    let store = DataStore::new();
    let r = store.register_typed::<i32>("i", (0..8).collect()).unwrap();

    // Copy the region out, double it, write it back whole.
    let copy = store.snapshot(r);
    assert_eq!(copy.as_i32(), &[0, 1, 2, 3, 4, 5, 6, 7]);
    let doubled = RegionData::I32(copy.as_i32().iter().map(|v| v * 2).collect());
    store.write(r).lock().copy_from(&doubled);
    assert_eq!(store.contents(&r), vec![0, 2, 4, 6, 8, 10, 12, 14]);

    // Snapshot / mutate / restore: the checkpointing path the ATM engine
    // uses for deferred copy-outs.
    let checkpoint = store.snapshot(r);
    store.write(r).lock().as_i32_mut().fill(-1);
    assert_eq!(store.contents(&r), vec![-1; 8]);
    store.restore(r, &checkpoint);
    assert_eq!(store.contents(&r), vec![0, 2, 4, 6, 8, 10, 12, 14]);
}

#[test]
fn every_element_type_exposes_consistent_bytes() {
    let store = DataStore::new();
    let f64s = store.register_typed::<f64>("f64", vec![1.5, 2.5]).unwrap();
    let i64s = store
        .register_typed::<i64>("i64", vec![-1, i64::MAX])
        .unwrap();
    let u8s = store.register_typed::<u8>("u8", vec![0xAB, 0xCD]).unwrap();

    assert_eq!(store.read(f64s).lock().size_bytes(), 16);
    assert_eq!(store.read(i64s).lock().size_bytes(), 16);
    assert_eq!(store.read(u8s).lock().size_bytes(), 2);
    assert_eq!(
        store.read(f64s).lock().to_bytes()[0..8],
        1.5f64.to_le_bytes()
    );
    assert_eq!(
        store.read(i64s).lock().to_bytes()[0..8],
        (-1i64).to_le_bytes()
    );
    assert_eq!(store.read(u8s).lock().to_bytes(), vec![0xAB, 0xCD]);
    assert_eq!(store.read(u8s).lock().byte_at(1), 0xCD);
}

/// The first `len` elements of `data`, as a region of their own.
fn prefix(data: &RegionData, len: usize) -> RegionData {
    match data {
        RegionData::F32(v) => RegionData::F32(v[..len].to_vec()),
        RegionData::F64(v) => RegionData::F64(v[..len].to_vec()),
        RegionData::I32(v) => RegionData::I32(v[..len].to_vec()),
        RegionData::I64(v) => RegionData::I64(v[..len].to_vec()),
        RegionData::U8(v) => RegionData::U8(v[..len].to_vec()),
    }
}

#[test]
fn word_and_lane_views_agree_with_the_serialisation_on_every_window() {
    for full in one_of_each() {
        let width = full.elem_type().width();
        // Every length, so the word view meets an odd last 4-byte element
        // and the empty region too.
        for len in 0..=full.len() {
            let data = prefix(&full, len);
            let bytes = data.to_bytes();
            let window = data.window();
            // The word view: same bytes, same order, nothing else.
            let mut fed = Collect::default();
            window.le_words(&mut fed);
            assert_eq!(fed.0, bytes, "{:?} of {len}", data.elem_type());
            // The lane view and `byte_at`: byte `lane` of element `elem`.
            for (offset, &byte) in bytes.iter().enumerate() {
                assert_eq!(window.lane(offset / width, (offset % width) as u8), byte);
                assert_eq!(data.byte_at(offset), byte);
            }
        }
    }
}

#[test]
fn both_write_funnels_bump_the_version_and_reads_do_not() {
    let store = DataStore::new();
    let r = store.register_typed::<i64>("v", vec![1, 2, 3]).unwrap();
    let v0 = store.read(r).lock().version();
    // Reading — through the handle or the store's own accessors — is not a
    // write.
    let _ = store.snapshot(r);
    let _ = store.contents(&r);
    assert_eq!(store.size_bytes(r), 24);
    assert_eq!(store.read(r).lock().version(), v0);

    // Funnel one: the write guard, whether or not anything is stored.
    store.write(r).lock().as_elems_mut::<i64>()[0] = 9;
    let v1 = store.read(r).lock().version();
    assert!(v1 > v0);
    drop(store.write(r).lock());
    let v2 = store.read(r).lock().version();
    assert!(v2 > v1, "opening for writing counts as a write");

    // Funnel two: restore.
    store.restore(r, &RegionData::I64(vec![7, 7, 7]));
    assert!(store.read(r).lock().version() > v2);

    // Versions belong to the region, not to the name.
    store.deregister(r).unwrap();
    let again = store.register_typed::<i64>("v", vec![7, 7, 7]).unwrap();
    assert_eq!(store.read(again).lock().version(), v0);
}

#[test]
fn a_resolved_handle_writes_through_the_same_funnel() {
    let store = DataStore::new();
    let r = store.register_typed::<i32>("h", vec![1, 2, 3, 4]).unwrap();
    let handle = store.region_ref(r);
    // The shape is cached on the handle; reading it takes no lock.
    assert_eq!((handle.len(), handle.elem_type()), (4, ElemType::I32));
    let v0 = handle.read().version();
    assert_eq!(store.read(r).lock().version(), v0, "one slot, one version");

    // A write through the handle bumps the version the store reads, and a
    // write through the store the one the handle reads.
    handle.write().as_elems_mut::<i32>()[2] = 30;
    let v1 = store.read(r).lock().version();
    assert!(v1 > v0);
    assert_eq!(store.contents(&r), vec![1, 2, 30, 4]);
    store.write(r).lock().as_elems_mut::<i32>()[3] = 40;
    assert!(handle.read().version() > v1);
    assert_eq!(handle.read().as_i32(), &[1, 2, 30, 40]);

    // The digest slot is shared too: filled through one, served through
    // the other, invalidated by a write through either.
    let sum = |data: &RegionData| data.as_i32().iter().map(|&v| v as u64).sum::<u64>();
    assert_eq!(handle.read().digest_or_fill(sum), 73);
    assert_eq!(store.read(r).lock().digest_or_fill(|_| unreachable!()), 73);
    drop(handle.write());
    assert_eq!(store.read(r).lock().digest_or_fill(|_| 1), 1, "refilled");
}

#[test]
fn digest_slot_is_served_until_the_region_is_written() {
    let store = DataStore::new();
    let r = store.register_typed::<u8>("d", vec![1, 2, 3]).unwrap();
    let sum = |data: &RegionData| data.to_bytes().iter().map(|&b| u64::from(b)).sum::<u64>();
    let never = |_: &RegionData| -> u64 { panic!("the slot holds this version's digest") };

    let handle = store.read(r);
    assert_eq!(handle.lock().digest_or_fill(sum), 6, "empty slot: filled");
    assert_eq!(
        handle.lock().digest_or_fill(never),
        6,
        "served from the slot"
    );
    // Two read locks at once see the same slot.
    let (a, b) = (handle.lock(), handle.lock());
    assert_eq!(a.digest_or_fill(never), b.digest_or_fill(never));
    drop((a, b));

    // Either funnel invalidates it, even when the bytes end up the same.
    drop(store.write(r).lock());
    assert_eq!(handle.lock().digest_or_fill(|_| 60), 60, "refilled");
    store.restore(r, &RegionData::U8(vec![4, 4, 4]));
    assert_eq!(handle.lock().digest_or_fill(sum), 12);
    assert_eq!(handle.lock().digest_or_fill(never), 12);

    // The slot lives and dies with the region: a handle that outlives the
    // deregistration keeps its own, the re-registered name starts empty.
    store.deregister(r).unwrap();
    assert_eq!(handle.lock().digest_or_fill(never), 12);
    let again = store.register_typed::<u8>("d", vec![4, 4, 4]).unwrap();
    assert_eq!(store.read(again).lock().digest_or_fill(|_| 1), 1);
}
