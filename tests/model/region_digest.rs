//! Protocol 7 — version-tagged region digests (the key path's "hash each
//! byte once per write").
//!
//! A region carries a write version and one digest slot (a version tag and
//! a digest, two atomics). A **writer** takes the write lock, bumps the
//! version, writes; a **reader** takes the read lock, reads the version,
//! probes the slot — tag equal to the version: serve the cached digest —
//! and otherwise hashes the bytes it holds locked and publishes digest then
//! tag *before it lets go of the read lock*. The model is
//! `crates/runtime/src/region.rs` (`RegionSlot::write`,
//! `RegionRead::digest_or_fill`) with the bytes shrunk to one word.
//!
//! *Invariant: no reader ever serves — or leaves published for the current
//! version — a digest of bytes other than the ones that version names.*
//! Two disciplines carry it, and each has a negative model that drops it:
//!
//! * **The bump sits inside the write lock.** Bumped before the lock is
//!   taken, a reader can see the new version over the old bytes, publish
//!   their digest under the new version, and hand it to the next reader
//!   after the bytes changed.
//! * **The publication sits inside the read lock.** Readers that fill the
//!   slot together hold the lock together, hence hash the same version. A
//!   reader that publishes after dropping its guard can land its digest
//!   store between a newer reader's publication and the tag that reader
//!   wrote — the slot then pairs the new tag with the old digest.
//!
//! Both negatives must be found as a stale digest (the model's assert, a
//! [`FailureKind::Panic`]) and replay deterministically. The positive side
//! is a proof — every interleaving of a reader against a thread that
//! writes and then reads itself, so write-against-read and read-against-read
//! are both covered — plus seeded-random exploration of the fully threaded
//! shape (one writer, readers that come back, repeated writes), which is
//! too large to enumerate. The last test runs the proof's shape on the
//! *real* `DataStore` — written through a resolved `RegionRef`, read through
//! the store: one atomic slice per call in an ordinary build, interleaved at
//! every lock and atomic of `region.rs` under `RUSTFLAGS='--cfg atm_check'`.

use atm_runtime::{DataStore, RegionData, RegionRead};
use atm_sync::atomic::Ordering;
use atm_sync::check::sync::{AtomicU64, RwLock};
use atm_sync::check::{thread, Checker, FailureKind};
use std::sync::Arc;

const NO_DIGEST: u64 = u64::MAX;

/// Stands in for the argument digest: any injective function of the bytes
/// will do.
fn hash(bytes: u64) -> u64 {
    bytes.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xD16E
}

struct RegionModel {
    bytes: RwLock<u64>,
    version: AtomicU64,
    digest_version: AtomicU64,
    digest: AtomicU64,
}

impl RegionModel {
    fn new() -> Self {
        RegionModel {
            bytes: RwLock::new(1),
            version: AtomicU64::new(0),
            digest_version: AtomicU64::new(NO_DIGEST),
            digest: AtomicU64::new(0),
        }
    }

    /// `RegionSlot::write` plus the store that follows it. The seeded bug
    /// bumps the version, *then* takes the write lock.
    fn write(&self, value: u64, bump_outside_lock: bool) {
        if bump_outside_lock {
            self.version.fetch_add(1, Ordering::Release);
        }
        let mut bytes = self.bytes.write();
        if !bump_outside_lock {
            self.version.fetch_add(1, Ordering::Release);
        }
        *bytes = value;
    }

    /// The reader's work up to the publication, on the bytes it holds
    /// locked: serves the cached digest — checking it describes those bytes
    /// — or returns the `(digest, version)` to publish.
    fn probe(&self, locked: u64) -> Option<(u64, u64)> {
        let version = self.version.load(Ordering::Acquire);
        if self.digest_version.load(Ordering::Acquire) == version {
            assert_eq!(
                self.digest.load(Ordering::Relaxed),
                hash(locked),
                "stale digest: served for version {version}, whose bytes it does not describe"
            );
            return None;
        }
        Some((hash(locked), version))
    }

    fn publish(&self, (digest, version): (u64, u64)) {
        self.digest.store(digest, Ordering::Relaxed);
        self.digest_version.store(version, Ordering::Release);
    }

    /// `RegionReadGuard::lock` + `RegionRead::digest_or_fill`: publish
    /// while the read guard is still held.
    fn read(&self) {
        let bytes = self.bytes.read();
        if let Some(fill) = self.probe(*bytes) {
            self.publish(fill);
        }
    }

    /// At quiescence the slot either names an older version or holds the
    /// current bytes' digest.
    fn assert_slot_is_not_stale(&self) {
        let bytes = self.bytes.read();
        if self.digest_version.load(Ordering::Acquire) == self.version.load(Ordering::Acquire) {
            assert_eq!(
                self.digest.load(Ordering::Relaxed),
                hash(*bytes),
                "stale digest left published for the current version"
            );
        }
    }
}

/// One writer (`writes` writes) against `readers` readers of `reads` reads
/// each, every role on a thread of its own.
fn threaded_model(bump_outside_lock: bool, readers: usize, reads: usize, writes: u64) {
    let region = Arc::new(RegionModel::new());
    let handles: Vec<_> = (0..readers)
        .map(|_| {
            let region = Arc::clone(&region);
            thread::spawn(move || {
                for _ in 0..reads {
                    region.read();
                }
            })
        })
        .collect();
    for value in 0..writes {
        region.write(2 + value, bump_outside_lock);
    }
    for handle in handles {
        handle.join();
    }
    assert_eq!(region.version.load(Ordering::SeqCst), writes);
    region.assert_slot_is_not_stale();
}

#[test]
fn no_reader_serves_or_publishes_a_stale_digest_exhaustively() {
    // A reader against a thread that writes and then reads: the first
    // reader meets the write on either side of its critical section, the
    // two readers meet each other filling, serving, or both filling at once.
    let report = Checker::exhaustive().max_schedules(100_000).check(|| {
        let region = Arc::new(RegionModel::new());
        let reader = {
            let region = Arc::clone(&region);
            thread::spawn(move || region.read())
        };
        region.write(2, false);
        region.read();
        reader.join();
        region.assert_slot_is_not_stale();
    });
    report.assert_passed();
    assert!(
        report.complete,
        "the digest model should be exhaustively explorable, ran {}",
        report.schedules
    );
    assert!(report.schedules > 100, "expected a real exploration");
}

#[test]
fn digest_slot_survives_randomized_exploration_of_repeated_reads_and_writes() {
    // Fill, serve, invalidate, refill: two writes against readers that come
    // back — too many interleavings to enumerate, so sampled.
    Checker::random(0x00D1_6E57, 400)
        .check(|| threaded_model(false, 2, 2, 2))
        .assert_passed();
    Checker::random(0x07A6_0F07, 200)
        .check(|| threaded_model(false, 3, 1, 1))
        .assert_passed();
}

/// Asserts the checker found `model`'s stale digest, and replays the find.
fn assert_found_as_stale_digest(
    report: atm_sync::check::Report,
    model: impl Fn() + Send + Sync + 'static,
) {
    assert_eq!(
        report.failure_kind(),
        Some(FailureKind::Panic),
        "expected the stale-digest assert, got {:?}",
        report.failure
    );
    let failure = report.failure.unwrap();
    assert!(
        failure.message.contains("stale digest"),
        "unexpected failure: {}",
        failure.message
    );
    let replayed = Checker::exhaustive().replay(model, &failure.schedule);
    assert_eq!(replayed.failure_kind(), Some(FailureKind::Panic));
}

#[test]
fn bumping_outside_the_write_lock_serves_a_stale_digest() {
    // Reader A sees the bumped version over the old bytes and publishes
    // their digest under it; the writer then writes; reader B is served A's
    // digest for bytes it no longer describes.
    let model = || threaded_model(true, 2, 1, 1);
    assert_found_as_stale_digest(Checker::random(0x57A1E, 2_000).check(model), model);
}

#[test]
fn publishing_after_the_read_guard_is_dropped_serves_a_stale_digest() {
    // Reader A has hashed version 0 and — the seeded bug — let go of the
    // read lock with its publication still to come (scripted: that much is
    // the bug, not the race). The publication then runs against a thread
    // that writes, fills the slot for version 1 and reads again: when A's
    // digest store lands between that thread's publication and its second
    // read, the slot pairs version 1's tag with version 0's digest.
    let model = || {
        let region = Arc::new(RegionModel::new());
        let late = {
            let bytes = region.bytes.read();
            region.probe(*bytes).expect("the slot starts empty")
        };
        let publisher = {
            let region = Arc::clone(&region);
            thread::spawn(move || region.publish(late))
        };
        region.write(2, false);
        region.read();
        region.read();
        publisher.join();
    };
    assert_found_as_stale_digest(
        Checker::exhaustive().max_schedules(10_000).check(model),
        model,
    );
}

#[test]
fn the_shipped_region_slot_never_serves_a_stale_digest() {
    let byte_of = |data: &RegionData| u64::from(data.as_elems::<u8>()[0]);
    let check = move |data: &RegionRead<'_>| {
        assert_eq!(
            data.digest_or_fill(|data| hash(byte_of(data))),
            hash(byte_of(data)),
            "stale digest served by the real region slot"
        );
    };
    // The writer goes through a resolved `RegionRef` — the handle a
    // submitted task carries — and the reader through the store: two ways
    // into one slot, one version counter.
    let model = move || {
        let store = Arc::new(DataStore::new());
        let region = store.register_typed("r", vec![1u8]).unwrap();
        let handle = store.region_ref(region);
        let reader = {
            let store = Arc::clone(&store);
            thread::spawn(move || check(&store.read(region).lock()))
        };
        handle.write().as_elems_mut::<u8>()[0] = 2;
        check(&handle.read());
        reader.join();
    };
    Checker::exhaustive()
        .max_schedules(2_000)
        .check(model)
        .assert_passed();
    Checker::random(0x5107, 200).check(model).assert_passed();
}
