//! Versioned, checksummed binary snapshots of a [`MemoStore`].
//!
//! A run that starts with an empty memo table pays the full execution cost
//! of every task at least once; at production scale the table's contents are
//! the product, so they must survive the process. [`MemoStore::save_to`]
//! serialises every resident entry into a self-describing, dependency-free
//! binary file and [`MemoStore::load_from`] / [`MemoStore::absorb_from`]
//! rebuild them, letting a run *warm-start* from a previous run's table.
//!
//! ## Format (version 3, all integers little-endian)
//!
//! ```text
//! [0..8)   magic  b"ATMSTORE"
//! [8..12)  format version (u32)
//! [12..20) entry count (u64)
//! then per entry:
//!   task_type (u32)  hash (u64)  p_bits (u64)  producer (u64)
//!   benefit_ns (u64)  output count (u32)
//!   then per output:
//!     region (u32)  range_start (u64)  elem count (u64)  elem tag (u8)
//!     payload (elem count × elem width bytes, little-endian)
//! trailer:
//!   checksum (u64): FNV-1a 64 over every preceding byte
//! ```
//!
//! Decoding validates the magic, the version, every length against the
//! remaining buffer and finally the checksum; any mismatch is a
//! [`PersistError`], never a panic or a silently wrong table.
//!
//! The format version doubles as the **key-space version**: the `hash` of
//! an entry is only worth storing if the loading run computes the same hash
//! for the same inputs. Version 1 keyed an exact task by lookup3 over its
//! concatenated input bytes; version 2 by lookup3 over per-argument
//! digests that were themselves lookup3; version 3 keys it by lookup3 over
//! per-argument four-lane digests (`atm_hash::digest`, `atm_core::key`).
//! An older file holds exact entries no version-3 run can ever hit — it is
//! refused with [`PersistError::UnsupportedVersion`] instead of being
//! loaded as dead weight, and a warm start that finds one degrades to a
//! cold start. The byte layout itself did not change.
//!
//! Warm-start caveat: hash keys embed the task-type id, so a snapshot is only
//! meaningful to a run that registers its task types in the same order — the
//! natural situation for repeated runs of one application.

use crate::snapshot::OutputSnapshot;
use crate::store::{ExportedEntry, MemoStore, StoreConfig};
use atm_runtime::{ElemType, RegionData, RegionId, TaskId, TaskTypeId};
use atm_sync::atomic::{AtomicU64, Ordering};
use std::path::{Path, PathBuf};
use std::sync::Arc;

const MAGIC: &[u8; 8] = b"ATMSTORE";
const VERSION: u32 = 3;

/// Error decoding or transferring a store snapshot.
#[derive(Debug)]
pub enum PersistError {
    /// File could not be read or written.
    Io(std::io::Error),
    /// The file does not start with the snapshot magic.
    BadMagic,
    /// The file uses a format version this build does not understand.
    UnsupportedVersion(u32),
    /// The file ends before the declared contents.
    Truncated,
    /// The checksum over the contents does not match the trailer.
    ChecksumMismatch {
        /// Checksum recomputed over the file contents.
        computed: u64,
        /// Checksum stored in the trailer.
        stored: u64,
    },
    /// A structurally invalid field (bad element tag, impossible length…).
    Corrupt(&'static str),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Io(err) => write!(f, "snapshot I/O error: {err}"),
            PersistError::BadMagic => write!(f, "not a memo-store snapshot (bad magic)"),
            PersistError::UnsupportedVersion(v) => {
                write!(f, "unsupported snapshot format version {v}")
            }
            PersistError::Truncated => write!(f, "snapshot is truncated"),
            PersistError::ChecksumMismatch { computed, stored } => write!(
                f,
                "snapshot checksum mismatch (computed {computed:#018x}, stored {stored:#018x})"
            ),
            PersistError::Corrupt(what) => write!(f, "corrupt snapshot: {what}"),
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::Io(err) => Some(err),
            _ => None,
        }
    }
}

impl From<std::io::Error> for PersistError {
    fn from(err: std::io::Error) -> Self {
        PersistError::Io(err)
    }
}

/// Incremental FNV-1a 64 state — tiny, dependency-free, and plenty for
/// integrity checking (this guards against corruption, not adversaries).
/// Feeding bytes in any chunking produces the same digest, which is what
/// lets [`MemoStore::save_to`] stream a checkpoint while computing the same
/// trailer as the in-memory encoder.
struct Fnv1a64(u64);

impl Fnv1a64 {
    fn new() -> Self {
        Fnv1a64(0xcbf2_9ce4_8422_2325)
    }

    fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

/// FNV-1a 64 over a byte slice.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut state = Fnv1a64::new();
    state.update(bytes);
    state.0
}

/// Writer adapter folding every written byte into a running FNV-1a
/// checksum, so the streamed and the in-memory serialisations produce
/// byte-identical snapshots.
struct ChecksumWriter<W: std::io::Write> {
    inner: W,
    hash: Fnv1a64,
}

impl<W: std::io::Write> ChecksumWriter<W> {
    fn new(inner: W) -> Self {
        ChecksumWriter {
            inner,
            hash: Fnv1a64::new(),
        }
    }

    fn write_all(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.hash.update(bytes);
        self.inner.write_all(bytes)
    }

    /// Appends the checksum trailer (not itself checksummed) and returns
    /// the underlying writer for flushing.
    fn finish(mut self) -> std::io::Result<W> {
        let checksum = self.hash.0;
        self.inner.write_all(&checksum.to_le_bytes())?;
        Ok(self.inner)
    }
}

fn elem_tag(elem: ElemType) -> u8 {
    match elem {
        ElemType::F32 => 0,
        ElemType::F64 => 1,
        ElemType::I32 => 2,
        ElemType::I64 => 3,
        ElemType::U8 => 4,
    }
}

fn elem_from_tag(tag: u8) -> Option<ElemType> {
    match tag {
        0 => Some(ElemType::F32),
        1 => Some(ElemType::F64),
        2 => Some(ElemType::I32),
        3 => Some(ElemType::I64),
        4 => Some(ElemType::U8),
        _ => None,
    }
}

fn decode_region_data(elem: ElemType, bytes: &[u8]) -> RegionData {
    fn chunks<const W: usize>(bytes: &[u8]) -> impl Iterator<Item = [u8; W]> + '_ {
        bytes.chunks_exact(W).map(|c| c.try_into().expect("exact"))
    }
    match elem {
        ElemType::F32 => RegionData::F32(chunks::<4>(bytes).map(f32::from_le_bytes).collect()),
        ElemType::F64 => RegionData::F64(chunks::<8>(bytes).map(f64::from_le_bytes).collect()),
        ElemType::I32 => RegionData::I32(chunks::<4>(bytes).map(i32::from_le_bytes).collect()),
        ElemType::I64 => RegionData::I64(chunks::<8>(bytes).map(i64::from_le_bytes).collect()),
        ElemType::U8 => RegionData::U8(bytes.to_vec()),
    }
}

/// Sequential reader with explicit truncation checks.
struct Reader<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], PersistError> {
        let end = self.at.checked_add(n).ok_or(PersistError::Truncated)?;
        if end > self.bytes.len() {
            return Err(PersistError::Truncated);
        }
        let slice = &self.bytes[self.at..end];
        self.at = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, PersistError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, PersistError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    fn u64(&mut self) -> Result<u64, PersistError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }
}

/// Writes the snapshot body (everything but the checksum
/// trailer) through a checksumming writer. One output's payload is
/// materialised at a time, so a streamed checkpoint never holds the whole
/// table as bytes.
fn write_snapshot<W: std::io::Write>(
    w: &mut ChecksumWriter<W>,
    entries: &[ExportedEntry],
) -> std::io::Result<()> {
    w.write_all(MAGIC)?;
    w.write_all(&VERSION.to_le_bytes())?;
    w.write_all(&(entries.len() as u64).to_le_bytes())?;
    for entry in entries {
        w.write_all(&(entry.key.task_type.index() as u32).to_le_bytes())?;
        w.write_all(&entry.key.hash.to_le_bytes())?;
        w.write_all(&entry.key.p_bits.to_le_bytes())?;
        w.write_all(&(entry.producer.raw()).to_le_bytes())?;
        w.write_all(&entry.benefit_ns.to_le_bytes())?;
        w.write_all(&(entry.outputs.len() as u32).to_le_bytes())?;
        for snapshot in entry.outputs.iter() {
            w.write_all(&(snapshot.region.index() as u32).to_le_bytes())?;
            w.write_all(&(snapshot.elem_range.start as u64).to_le_bytes())?;
            w.write_all(&(snapshot.data.len() as u64).to_le_bytes())?;
            w.write_all(&[elem_tag(snapshot.data.elem_type())])?;
            w.write_all(&snapshot.data.to_bytes())?;
        }
    }
    Ok(())
}

/// Encodes entries into the snapshot byte layout.
fn encode_entries(entries: &[ExportedEntry]) -> Vec<u8> {
    let mut w = ChecksumWriter::new(Vec::new());
    write_snapshot(&mut w, entries).expect("writing to a Vec cannot fail");
    w.finish().expect("writing to a Vec cannot fail")
}

/// Decodes a snapshot, validating structure, version and checksum.
fn decode_entries(bytes: &[u8]) -> Result<Vec<ExportedEntry>, PersistError> {
    if bytes.len() < MAGIC.len() + 4 + 8 + 8 {
        return Err(PersistError::Truncated);
    }
    if &bytes[..MAGIC.len()] != MAGIC {
        return Err(PersistError::BadMagic);
    }
    let (body, trailer) = bytes.split_at(bytes.len() - 8);
    let stored = u64::from_le_bytes(trailer.try_into().expect("8-byte trailer"));
    let computed = fnv1a64(body);
    if computed != stored {
        return Err(PersistError::ChecksumMismatch { computed, stored });
    }

    let mut r = Reader {
        bytes: body,
        at: MAGIC.len(),
    };
    let version = r.u32()?;
    if version != VERSION {
        return Err(PersistError::UnsupportedVersion(version));
    }
    let count = r.u64()?;
    let mut entries = Vec::new();
    for _ in 0..count {
        let task_type = TaskTypeId::from_raw(r.u32()?);
        let hash = r.u64()?;
        let p_bits = r.u64()?;
        let producer = TaskId::from_raw(r.u64()?);
        let benefit_ns = r.u64()?;
        let n_outputs = r.u32()?;
        let mut outputs = Vec::new();
        for _ in 0..n_outputs {
            let region = RegionId::from_raw(r.u32()?);
            let range_start = usize::try_from(r.u64()?)
                .map_err(|_| PersistError::Corrupt("output range start overflows usize"))?;
            let n_elems = usize::try_from(r.u64()?)
                .map_err(|_| PersistError::Corrupt("output length overflows usize"))?;
            let elem =
                elem_from_tag(r.u8()?).ok_or(PersistError::Corrupt("unknown element-type tag"))?;
            let payload_len = n_elems
                .checked_mul(elem.width())
                .ok_or(PersistError::Corrupt("output payload overflows usize"))?;
            let payload = r.take(payload_len)?;
            let range_end = range_start
                .checked_add(n_elems)
                .ok_or(PersistError::Corrupt("output range end overflows usize"))?;
            outputs.push(OutputSnapshot {
                region,
                elem_range: range_start..range_end,
                data: decode_region_data(elem, payload),
            });
        }
        entries.push(ExportedEntry {
            key: crate::EntryKey {
                task_type,
                hash,
                p_bits,
            },
            producer,
            benefit_ns,
            outputs: Arc::new(outputs),
        });
    }
    if r.at != body.len() {
        return Err(PersistError::Corrupt("trailing bytes after the last entry"));
    }
    Ok(entries)
}

/// A temp-file name next to `path`, unique across the processes and threads
/// that may checkpoint into one directory.
fn temp_path_beside(path: &Path) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(format!(
        ".{}.{}.tmp",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    path.with_file_name(name)
}

/// Streams the snapshot of `entries` into a new file at `path` and syncs it.
fn write_synced(path: &Path, entries: &[ExportedEntry]) -> std::io::Result<()> {
    let file = std::fs::File::create(path)?;
    let mut w = ChecksumWriter::new(std::io::BufWriter::new(file));
    write_snapshot(&mut w, entries)?;
    let file = w.finish()?.into_inner().map_err(|e| e.into_error())?;
    file.sync_all()
}

/// Syncs the directory holding `path`, so a rename into it is durable.
fn sync_parent_dir(path: &Path) -> std::io::Result<()> {
    let dir = match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => Path::new("."),
    };
    std::fs::File::open(dir)?.sync_all()
}

impl MemoStore {
    /// Serialises every resident entry into the snapshot byte format.
    pub fn to_snapshot_bytes(&self) -> Vec<u8> {
        encode_entries(&self.export())
    }

    /// Writes the snapshot to `path` (see the module docs for the format).
    ///
    /// Checkpointing is safe under traffic: the snapshot point is
    /// [`MemoStore::export`], which clones each bucket's view (entry
    /// metadata plus `Arc`-shared outputs) under that bucket's read lock
    /// alone and releases it before moving on — no bucket lock is held
    /// while bytes are produced. The entries then *stream* through a
    /// buffered writer with an incremental checksum, so the process never
    /// materialises the whole table as a second byte buffer the way
    /// [`MemoStore::to_snapshot_bytes`] does. Inserts and evictions that
    /// land mid-export appear in the next checkpoint.
    ///
    /// The save is atomic: the bytes go to a uniquely named temp file next
    /// to `path`, which is synced and then renamed over `path`, and the
    /// directory is synced after the rename. A save that fails at any step
    /// removes its temp file and leaves the previous snapshot as it was.
    pub fn save_to(&self, path: impl AsRef<Path>) -> Result<(), PersistError> {
        let path = path.as_ref();
        let entries = self.export();
        let tmp = temp_path_beside(path);
        let saved = write_synced(&tmp, &entries)
            .and_then(|()| std::fs::rename(&tmp, path))
            .and_then(|()| sync_parent_dir(path));
        if saved.is_err() {
            let _ = std::fs::remove_file(&tmp);
        }
        Ok(saved?)
    }

    /// Inserts every entry of an in-memory snapshot into this store, in
    /// file order, going through the normal admission/eviction path.
    /// Returns the number of entries admitted. Under a tight byte budget the
    /// eviction rule keeps the densest entries (see [`crate::store`]), so
    /// the file's order does not decide what survives.
    pub fn absorb_snapshot_bytes(&self, bytes: &[u8]) -> Result<usize, PersistError> {
        let mut admitted = 0usize;
        for entry in decode_entries(bytes)? {
            let outcome = self.insert(entry.key, entry.producer, entry.outputs, entry.benefit_ns);
            if outcome.is_resident() {
                admitted += 1;
            }
        }
        Ok(admitted)
    }

    /// Reads a snapshot file and inserts its entries into this store.
    /// Returns the number of entries admitted.
    pub fn absorb_from(&self, path: impl AsRef<Path>) -> Result<usize, PersistError> {
        let bytes = std::fs::read(path)?;
        self.absorb_snapshot_bytes(&bytes)
    }

    /// Builds a fresh store with `config` warm-started from a snapshot file.
    pub fn load_from(
        path: impl AsRef<Path>,
        config: StoreConfig,
    ) -> Result<MemoStore, PersistError> {
        let store = MemoStore::new(config);
        store.absorb_from(path)?;
        Ok(store)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atm_runtime::{Access, AccessMode, DataStore};

    // The loop below spans all five element types, which the typed access
    // constructors cannot do generically; build the accesses literally.
    fn untyped_write(id: RegionId, elem: ElemType) -> Access {
        Access {
            region: id,
            mode: AccessMode::Out,
            elem,
        }
    }

    fn sample_store() -> (DataStore, MemoStore) {
        let data = DataStore::new();
        let store = MemoStore::new(StoreConfig::default());
        let regions: Vec<RegionData> = vec![
            RegionData::F32(vec![1.5, -2.5, 3.0]),
            RegionData::F64(vec![0.25; 8]),
            RegionData::I32(vec![7, -9]),
            RegionData::I64(vec![1 << 40]),
            RegionData::U8(vec![0xAB, 0xCD]),
        ];
        for (i, contents) in regions.into_iter().enumerate() {
            let elem = contents.elem_type();
            let id = data.try_register(format!("r{i}"), contents).unwrap();
            let snap = OutputSnapshot::capture(&data, &untyped_write(id, elem));
            store.insert(
                crate::EntryKey::new(TaskTypeId::from_raw(i as u32), 0x1000 + i as u64, 1.0),
                TaskId::from_raw(i as u64),
                Arc::new(vec![snap]),
                i as u64 * 100,
            );
        }
        (data, store)
    }

    #[test]
    fn snapshot_round_trips_every_entry() {
        let (_data, store) = sample_store();
        let bytes = store.to_snapshot_bytes();
        let loaded = MemoStore::new(StoreConfig::default());
        let admitted = loaded.absorb_snapshot_bytes(&bytes).unwrap();
        assert_eq!(admitted, store.len());
        for entry in store.export() {
            let hit = loaded
                .lookup(&entry.key)
                .expect("every saved key must hit after a reload");
            assert_eq!(hit.producer, entry.producer);
            assert_eq!(hit.benefit_ns, entry.benefit_ns);
            assert_eq!(*hit.outputs, *entry.outputs);
        }
    }

    #[test]
    fn bad_magic_and_version_are_rejected() {
        let (_data, store) = sample_store();
        let mut bytes = store.to_snapshot_bytes();
        bytes[0] ^= 0xFF;
        assert!(matches!(
            decode_entries(&bytes),
            Err(PersistError::BadMagic)
        ));

        let mut versioned = store.to_snapshot_bytes();
        versioned[8] = 99; // version field
                           // Recompute the checksum so the version check (not the checksum)
                           // fires.
        let body_len = versioned.len() - 8;
        let checksum = fnv1a64(&versioned[..body_len]);
        versioned[body_len..].copy_from_slice(&checksum.to_le_bytes());
        assert!(matches!(
            decode_entries(&versioned),
            Err(PersistError::UnsupportedVersion(99))
        ));
    }

    /// Version-1 and version-2 files are structurally sound but from old
    /// key spaces (exact keys over concatenated input bytes, then over
    /// lookup3 digests): every way in refuses them, and a refused warm
    /// start leaves the store empty — a cold start.
    #[test]
    fn version_1_snapshots_are_refused_by_every_loader() {
        let (_data, store) = sample_store();
        for old in [1u32, 2] {
            let mut bytes = store.to_snapshot_bytes();
            bytes[MAGIC.len()..MAGIC.len() + 4].copy_from_slice(&old.to_le_bytes());
            let body_len = bytes.len() - 8;
            let checksum = fnv1a64(&bytes[..body_len]);
            bytes[body_len..].copy_from_slice(&checksum.to_le_bytes());
            let refused = |result: Result<_, PersistError>| matches!(result, Err(PersistError::UnsupportedVersion(v)) if v == old);

            let cold = MemoStore::new(StoreConfig::default());
            assert!(refused(cold.absorb_snapshot_bytes(&bytes)), "v{old}");
            let path = std::env::temp_dir()
                .join(format!("atm-store-v{old}-test-{}.bin", std::process::id()));
            std::fs::write(&path, &bytes).unwrap();
            assert!(refused(cold.absorb_from(&path)), "v{old}");
            assert!(
                refused(MemoStore::load_from(&path, StoreConfig::default()).map(|_| 0)),
                "v{old}"
            );
            std::fs::remove_file(&path).unwrap();
            assert!(cold.is_empty(), "a refused snapshot must admit nothing");
        }
    }

    #[test]
    fn truncation_is_rejected() {
        let (_data, store) = sample_store();
        let bytes = store.to_snapshot_bytes();
        for cut in [0, 4, MAGIC.len() + 4, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                decode_entries(&bytes[..cut]).is_err(),
                "truncation at {cut} must be rejected"
            );
        }
    }

    #[test]
    fn save_and_load_via_the_filesystem() {
        let (_data, store) = sample_store();
        let path = std::env::temp_dir().join(format!("atm-store-test-{}.bin", std::process::id()));
        store.save_to(&path).unwrap();
        let loaded = MemoStore::load_from(&path, StoreConfig::default()).unwrap();
        assert_eq!(loaded.len(), store.len());
        std::fs::remove_file(&path).unwrap();
        assert!(matches!(
            MemoStore::load_from(&path, StoreConfig::default()),
            Err(PersistError::Io(_))
        ));
    }

    /// A scratch directory of its own for one test.
    fn scratch_dir(test: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("atm-store-{test}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// The save renames a new file over the snapshot instead of truncating
    /// it: a reader that opened the previous snapshot still reads all of it.
    #[cfg(unix)]
    #[test]
    fn a_save_never_rewrites_the_previous_snapshot_in_place() {
        use std::io::Read as _;
        let dir = scratch_dir("replace");
        let path = dir.join("memo.bin");
        let (_data, old) = sample_store();
        old.save_to(&path).unwrap();
        let mut reader = std::fs::File::open(&path).unwrap();

        let data = DataStore::new();
        let new = MemoStore::new(StoreConfig::default());
        let r = data.register_typed("new", vec![9.0f64; 4]).unwrap();
        let snap = Arc::new(vec![OutputSnapshot::capture(&data, &Access::write(&r))]);
        new.insert(
            crate::EntryKey::new(TaskTypeId::from_raw(9), 0x9999, 1.0),
            TaskId::from_raw(99),
            snap,
            5,
        );
        new.save_to(&path).unwrap();

        let mut previous = Vec::new();
        reader.read_to_end(&mut previous).unwrap();
        assert_eq!(previous, old.to_snapshot_bytes());
        assert_eq!(decode_entries(&previous).unwrap().len(), old.len());
        let loaded = MemoStore::load_from(&path, StoreConfig::default()).unwrap();
        assert_eq!(loaded.len(), 1);
        assert!(loaded
            .lookup(&crate::EntryKey::new(TaskTypeId::from_raw(9), 0x9999, 1.0))
            .is_some());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_successful_save_leaves_no_temp_file() {
        let dir = scratch_dir("no-tmp");
        let (_data, store) = sample_store();
        store.save_to(dir.join("memo.bin")).unwrap();
        store.save_to(dir.join("memo.bin")).unwrap();
        let names: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(names, vec![std::ffi::OsString::from("memo.bin")]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_save_into_a_missing_directory_is_an_io_error() {
        let dir = scratch_dir("missing");
        let (_data, store) = sample_store();
        assert!(matches!(
            store.save_to(dir.join("absent").join("memo.bin")),
            Err(PersistError::Io(_))
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn streamed_checkpoint_matches_the_in_memory_encoding_byte_for_byte() {
        let (_data, store) = sample_store();
        let path =
            std::env::temp_dir().join(format!("atm-store-stream-test-{}.bin", std::process::id()));
        store.save_to(&path).unwrap();
        let streamed = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(streamed, store.to_snapshot_bytes());
    }

    #[test]
    fn checkpoint_under_concurrent_inserts_stays_consistent() {
        // A writer thread keeps inserting while the main thread checkpoints
        // repeatedly. Every checkpoint must load back cleanly (structure and
        // checksum intact) with a plausible entry count — entries that land
        // mid-export simply appear in a later checkpoint.
        let data = DataStore::new();
        let store = MemoStore::new(StoreConfig::default());
        let r = data.register_zeros::<f32>("traffic", 4).unwrap();
        let snap = Arc::new(vec![OutputSnapshot::capture(&data, &Access::write(&r))]);
        let path =
            std::env::temp_dir().join(format!("atm-store-traffic-test-{}.bin", std::process::id()));
        let total = 400usize;
        std::thread::scope(|scope| {
            let store = &store;
            let writer = scope.spawn(move || {
                for i in 0..total {
                    store.insert(
                        crate::EntryKey::new(TaskTypeId::from_raw(0), i as u64, 1.0),
                        TaskId::from_raw(i as u64),
                        Arc::clone(&snap),
                        100,
                    );
                }
            });
            let mut last_seen = 0usize;
            while !writer.is_finished() {
                store.save_to(&path).unwrap();
                let loaded = MemoStore::load_from(&path, StoreConfig::default()).unwrap();
                assert!(
                    loaded.len() >= last_seen && loaded.len() <= total,
                    "checkpoint count went backwards or overshot: {} then {}",
                    last_seen,
                    loaded.len()
                );
                last_seen = loaded.len();
            }
            writer.join().unwrap();
        });
        // The final quiescent checkpoint carries everything.
        store.save_to(&path).unwrap();
        let loaded = MemoStore::load_from(&path, StoreConfig::default()).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(loaded.len(), total);
    }

    #[test]
    fn loading_through_a_tight_budget_respects_admission() {
        let (_data, store) = sample_store();
        let bytes = store.to_snapshot_bytes();
        let tight = MemoStore::new(StoreConfig::default().with_byte_budget(1));
        let admitted = tight.absorb_snapshot_bytes(&bytes).unwrap();
        assert_eq!(admitted, 0, "nothing fits a 1-byte budget");
        assert_eq!(tight.counters().rejected_admissions as usize, store.len());
    }

    /// Budget-aware warm start: the eviction rule keeps the most valuable
    /// entries of a tight budget no matter how unfavourably the snapshot
    /// file orders them.
    #[test]
    fn tight_budget_warm_start_keeps_the_best_entries() {
        let data = DataStore::new();
        let source = MemoStore::new(StoreConfig::default());
        // One high-benefit entry inserted FIRST (worst case for FIFO under
        // a budget), followed by several same-sized low-benefit entries.
        let payload = |tag: usize| {
            let id = data
                .try_register(format!("p{tag}"), RegionData::F32(vec![tag as f32; 64]))
                .unwrap();
            Arc::new(vec![OutputSnapshot::capture(
                &data,
                &untyped_write(id, ElemType::F32),
            )])
        };
        let key = |hash: u64| crate::EntryKey::new(TaskTypeId::from_raw(0), hash, 1.0);
        source.insert(key(0), TaskId::from_raw(0), payload(0), 1_000_000);
        for i in 1..8u64 {
            source.insert(key(i), TaskId::from_raw(i), payload(i as usize), 10);
        }
        let bytes = source.to_snapshot_bytes();

        // A budget that holds only a couple of entries.
        let one_entry_bytes = crate::store::entry_charge_bytes(&payload(100));
        let budget = one_entry_bytes * 2 + one_entry_bytes / 2;
        let tight = MemoStore::new(StoreConfig::default().with_byte_budget(budget));
        tight.absorb_snapshot_bytes(&bytes).unwrap();
        assert!(
            tight.lookup(&key(0)).is_some(),
            "the high-benefit entry must survive a tight-budget warm start"
        );
        assert!(
            tight.memory_bytes() <= budget,
            "the budget must hold after the warm start"
        );
    }
}
