//! Data regions: the memory the runtime tracks dependences on.
//!
//! Task-based dataflow programming models (OmpSs, OpenMP 4.0 tasks) require
//! the programmer to annotate, for every task, which data it reads and which
//! data it produces. In the original system those annotations are raw
//! address ranges; in this Rust reproduction application data lives in
//! *regions* registered with the runtime's [`DataStore`]. A region is a
//! typed, contiguous buffer (a block of a matrix, a vector of option
//! records, a set of cluster centres, …). Tasks declare `In`/`Out`/`InOut`
//! accesses to whole regions and the runtime derives dependences from the
//! regions they share: a region is the unit of dependence, hashing and
//! copy-out.
//!
//! Registration returns a phantom-typed [`Region<T>`] handle. The handle
//! carries the element type at the type level, so access declarations and
//! kernel reads derive the element width from the handle instead of
//! restating it — the store remains the single source of truth for the
//! stored [`ElemType`], and the submission validator checks every declared
//! access against it.
//!
//! Regions are protected by [`atm_sync::RwLock`]. The dependence tracker
//! already serialises conflicting tasks, so in a correct execution there is
//! never lock contention on a region; the lock is a cheap safety net that
//! keeps the whole crate free of `unsafe`.
//!
//! The store's registry (id → region) sits behind one lock of its own. A
//! [`RegionRef`] is a region *resolved*: a handle straight to its slot, so
//! locking through it never goes back to the registry. The runtime resolves
//! every task's regions once, when it validates the submission, and the
//! task carries the handles — kernels ([`crate::TaskContext`]) and the
//! interceptor ([`crate::TaskView::regions`]) lock regions through them, and
//! nothing between a task's pop and its retirement reads the registry.

use crate::access::Access;
use atm_sync::atomic::{AtomicU64, Ordering};
use atm_sync::{RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::collections::HashMap;
use std::marker::PhantomData;
use std::sync::Arc;

/// Identifier of a region inside a [`DataStore`].
///
/// This is the untyped, internal representation; user code normally holds a
/// typed [`Region<T>`] handle instead and converts implicitly where an id is
/// needed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RegionId(pub(crate) u32);

impl RegionId {
    /// The raw index of the region.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds a region id from a raw index. Intended for tests and tooling;
    /// ids obtained this way are only meaningful against the store that
    /// assigned them.
    pub fn from_raw(index: u32) -> Self {
        RegionId(index)
    }
}

/// Element type stored in a region.
///
/// The paper extends the runtime API so the compiler can communicate the
/// element types of each data input (§III-C); the type-aware input selection
/// of the hash-key generator needs the element width.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ElemType {
    /// 32-bit IEEE-754 floating point.
    F32,
    /// 64-bit IEEE-754 floating point.
    F64,
    /// 32-bit signed integer.
    I32,
    /// 64-bit signed integer.
    I64,
    /// Raw bytes.
    U8,
}

impl ElemType {
    /// Width of one element in bytes.
    pub fn width(self) -> usize {
        match self {
            ElemType::F32 | ElemType::I32 => 4,
            ElemType::F64 | ElemType::I64 => 8,
            ElemType::U8 => 1,
        }
    }
}

impl std::fmt::Display for ElemType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            ElemType::F32 => "f32",
            ElemType::F64 => "f64",
            ElemType::I32 => "i32",
            ElemType::I64 => "i64",
            ElemType::U8 => "u8",
        };
        f.write_str(name)
    }
}

mod sealed {
    pub trait Sealed {}
    impl Sealed for f32 {}
    impl Sealed for f64 {}
    impl Sealed for i32 {}
    impl Sealed for i64 {}
    impl Sealed for u8 {}
}

/// A Rust element type storable in a region: `f32`, `f64`, `i32`, `i64` or
/// `u8`.
///
/// The trait is sealed — the set of implementors mirrors the [`ElemType`]
/// and [`RegionData`] variants exactly, which is what lets the typed API
/// ([`Region<T>`], [`crate::Access::read`], [`crate::TaskContext::arg`])
/// guarantee at compile time that a handle's type always matches a real
/// storage variant.
pub trait Elem: sealed::Sealed + Copy + Send + Sync + 'static {
    /// The runtime tag of this element type.
    const ELEM: ElemType;
    /// The additive identity, used to register zero-filled regions.
    const ZERO: Self;

    /// Views the region's contents as a slice of `Self`, when the variant
    /// matches.
    fn slice(data: &RegionData) -> Option<&[Self]>;

    /// Mutable variant of [`Elem::slice`].
    fn slice_mut(data: &mut RegionData) -> Option<&mut [Self]>;

    /// Wraps a vector of `Self` into the matching [`RegionData`] variant.
    fn into_region(data: Vec<Self>) -> RegionData;
}

macro_rules! impl_elem {
    ($ty:ty, $variant:ident, $zero:expr) => {
        impl Elem for $ty {
            const ELEM: ElemType = ElemType::$variant;
            const ZERO: Self = $zero;

            fn slice(data: &RegionData) -> Option<&[Self]> {
                match data {
                    RegionData::$variant(v) => Some(v),
                    _ => None,
                }
            }

            fn slice_mut(data: &mut RegionData) -> Option<&mut [Self]> {
                match data {
                    RegionData::$variant(v) => Some(v),
                    _ => None,
                }
            }

            fn into_region(data: Vec<Self>) -> RegionData {
                RegionData::$variant(data)
            }
        }
    };
}

impl_elem!(f32, F32, 0.0);
impl_elem!(f64, F64, 0.0);
impl_elem!(i32, I32, 0);
impl_elem!(i64, I64, 0);
impl_elem!(u8, U8, 0);

/// A phantom-typed handle to a registered region holding elements of `T`.
///
/// Obtained from [`DataStore::register_typed`] (or
/// [`DataStore::register_zeros`]); the type parameter records the element
/// type the store assigned at registration, so APIs taking the handle —
/// [`crate::Access::read`], [`crate::TaskBuilder::reads`], … — can derive
/// the [`ElemType`] instead of asking the caller to restate it.
pub struct Region<T: Elem> {
    id: RegionId,
    _elem: PhantomData<fn() -> T>,
}

impl<T: Elem> Region<T> {
    pub(crate) fn new(id: RegionId) -> Self {
        Region {
            id,
            _elem: PhantomData,
        }
    }

    /// The untyped id of the region.
    pub fn id(self) -> RegionId {
        self.id
    }

    /// The element type carried by the handle.
    pub fn elem_type(self) -> ElemType {
        T::ELEM
    }
}

impl<T: Elem> Clone for Region<T> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<T: Elem> Copy for Region<T> {}

impl<T: Elem> PartialEq for Region<T> {
    fn eq(&self, other: &Self) -> bool {
        self.id == other.id
    }
}

impl<T: Elem> Eq for Region<T> {}

impl<T: Elem> std::hash::Hash for Region<T> {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.id.hash(state);
    }
}

impl<T: Elem> std::fmt::Debug for Region<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Region<{}>({})", T::ELEM, self.id.0)
    }
}

impl<T: Elem> From<Region<T>> for RegionId {
    fn from(region: Region<T>) -> RegionId {
        region.id
    }
}

impl<T: Elem> From<&Region<T>> for RegionId {
    fn from(region: &Region<T>) -> RegionId {
        region.id
    }
}

/// Error returned when a region cannot be registered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegisterError {
    /// A region with the same name already exists in the store. Names are
    /// unique identifiers: silently registering a second region under an
    /// existing name would shadow it in name lookups and hide bugs.
    DuplicateName(String),
}

impl std::fmt::Display for RegisterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegisterError::DuplicateName(name) => {
                write!(f, "a region named {name:?} is already registered")
            }
        }
    }
}

impl std::error::Error for RegisterError {}

/// Error returned when a region cannot be deregistered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeregisterError {
    /// The id was never assigned by this store.
    UnknownRegion(RegionId),
    /// The region was already deregistered.
    AlreadyRetired(RegionId),
    /// Unfinished tasks still declare accesses on the region. Reported by
    /// [`crate::Runtime::deregister_region`], which consults the dependence
    /// graph's live-accessor index before touching the store.
    LiveAccessors(RegionId),
}

impl std::fmt::Display for DeregisterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeregisterError::UnknownRegion(id) => {
                write!(f, "region {id:?} was never registered with this store")
            }
            DeregisterError::AlreadyRetired(id) => {
                write!(f, "region {id:?} was already deregistered")
            }
            DeregisterError::LiveAccessors(id) => {
                write!(f, "region {id:?} still has unfinished tasks accessing it")
            }
        }
    }
}

impl std::error::Error for DeregisterError {}

/// Lifecycle of a region id inside a [`DataStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegionStatus {
    /// The id maps to a registered region.
    Live,
    /// The id was assigned once and later deregistered. The distinction from
    /// [`RegionStatus::Unknown`] costs no tombstone memory: ids are assigned
    /// monotonically, so any absent id below the high-water mark must have
    /// been retired.
    Retired,
    /// The id was never assigned by this store.
    Unknown,
}

/// Receiver of [`ElemWindow::le_words`]: a consumer of a region's
/// little-endian serialisation that takes it a word at a time (a streaming
/// hasher, in practice).
pub trait WordSink {
    /// A run of 64-bit words, each standing for its eight little-endian
    /// bytes.
    fn words(&mut self, words: impl Iterator<Item = u64>);
    /// A run of raw bytes.
    fn bytes(&mut self, bytes: &[u8]);
}

/// A borrowed window of a region's elements ([`RegionData::window`]),
/// readable as the little-endian serialisation the ATM hash keys are
/// defined over without producing it: whole, a 64-bit word at a time
/// ([`le_words`](ElemWindow::le_words)), or one byte of one element
/// ([`lane`](ElemWindow::lane)).
#[derive(Debug, Clone, Copy)]
pub enum ElemWindow<'a> {
    /// 32-bit floats.
    F32(&'a [f32]),
    /// 64-bit floats.
    F64(&'a [f64]),
    /// 32-bit signed integers.
    I32(&'a [i32]),
    /// 64-bit signed integers.
    I64(&'a [i64]),
    /// Raw bytes.
    U8(&'a [u8]),
}

impl ElemWindow<'_> {
    /// Byte `lane` (0 = least significant, the little-endian order) of
    /// element `elem` of the window: one indexed load and a shift of the
    /// element's bits. This is how the key generator reads the bytes a
    /// sampling plan selected, so key generation stays proportional to the
    /// number of *selected* bytes.
    #[inline(always)]
    pub fn lane(&self, elem: usize, lane: u8) -> u8 {
        let shift = 8 * u32::from(lane);
        match self {
            ElemWindow::F32(v) => (v[elem].to_bits() >> shift) as u8,
            ElemWindow::F64(v) => (v[elem].to_bits() >> shift) as u8,
            ElemWindow::I32(v) => (v[elem] >> shift) as u8,
            ElemWindow::I64(v) => (v[elem] >> shift) as u8,
            ElemWindow::U8(v) => v[elem],
        }
    }

    /// Feeds the window to `sink` as little-endian 64-bit words, straight
    /// from the typed storage: an 8-byte element is its `to_bits`, two
    /// 4-byte elements are one word (first element low) and an odd last one
    /// goes through as a 4-byte run, and a `U8` window — whose storage
    /// already *is* its serialisation — goes through as one byte run. The
    /// bytes the sink receives, in order, equal [`RegionData::to_bytes`] of
    /// the region; nothing is allocated or copied on the way. This is the
    /// path the key generator digests whole arguments through.
    #[inline]
    pub fn le_words(&self, sink: &mut impl WordSink) {
        fn pairs<T: Copy>(v: &[T], bits: impl Fn(T) -> u32, sink: &mut impl WordSink) {
            let mut pairs = v.chunks_exact(2);
            sink.words(
                pairs
                    .by_ref()
                    .map(|pair| u64::from(bits(pair[0])) | u64::from(bits(pair[1])) << 32),
            );
            if let [last] = pairs.remainder() {
                sink.bytes(&bits(*last).to_le_bytes());
            }
        }
        match self {
            ElemWindow::F32(v) => pairs(v, f32::to_bits, sink),
            ElemWindow::F64(v) => sink.words(v.iter().map(|x| x.to_bits())),
            ElemWindow::I32(v) => pairs(v, |x| x as u32, sink),
            ElemWindow::I64(v) => sink.words(v.iter().map(|&x| x as u64)),
            ElemWindow::U8(v) => sink.bytes(v),
        }
    }
}

/// Typed storage of one region.
#[derive(Debug, Clone, PartialEq)]
pub enum RegionData {
    /// 32-bit floats.
    F32(Vec<f32>),
    /// 64-bit floats.
    F64(Vec<f64>),
    /// 32-bit signed integers.
    I32(Vec<i32>),
    /// 64-bit signed integers.
    I64(Vec<i64>),
    /// Raw bytes.
    U8(Vec<u8>),
}

impl RegionData {
    /// The element type of the stored data.
    pub fn elem_type(&self) -> ElemType {
        match self {
            RegionData::F32(_) => ElemType::F32,
            RegionData::F64(_) => ElemType::F64,
            RegionData::I32(_) => ElemType::I32,
            RegionData::I64(_) => ElemType::I64,
            RegionData::U8(_) => ElemType::U8,
        }
    }

    /// Number of elements stored.
    pub fn len(&self) -> usize {
        match self {
            RegionData::F32(v) => v.len(),
            RegionData::F64(v) => v.len(),
            RegionData::I32(v) => v.len(),
            RegionData::I64(v) => v.len(),
            RegionData::U8(v) => v.len(),
        }
    }

    /// True when the region holds no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Size of the stored data in bytes.
    pub fn size_bytes(&self) -> usize {
        self.len() * self.elem_type().width()
    }

    /// Views the contents as a typed slice.
    ///
    /// # Panics
    /// Panics if the region does not hold `T` elements.
    pub fn as_elems<T: Elem>(&self) -> &[T] {
        T::slice(self)
            .unwrap_or_else(|| panic!("region holds {}, expected {}", self.elem_type(), T::ELEM))
    }

    /// Mutable variant of [`RegionData::as_elems`].
    ///
    /// # Panics
    /// Panics if the region does not hold `T` elements.
    pub fn as_elems_mut<T: Elem>(&mut self) -> &mut [T] {
        let elem = self.elem_type();
        T::slice_mut(self).unwrap_or_else(|| panic!("region holds {}, expected {}", elem, T::ELEM))
    }

    /// Copies the raw little-endian byte representation of the data into a
    /// new vector. Used by the ATM key generator and output snapshots.
    pub fn to_bytes(&self) -> Vec<u8> {
        match self {
            RegionData::F32(v) => v.iter().flat_map(|x| x.to_le_bytes()).collect(),
            RegionData::F64(v) => v.iter().flat_map(|x| x.to_le_bytes()).collect(),
            RegionData::I32(v) => v.iter().flat_map(|x| x.to_le_bytes()).collect(),
            RegionData::I64(v) => v.iter().flat_map(|x| x.to_le_bytes()).collect(),
            RegionData::U8(v) => v.clone(),
        }
    }

    /// Returns the byte at `offset` of the little-endian serialisation of
    /// the data, without materialising the whole byte vector. The
    /// flat-offset reference the sampled key plans are checked against; the
    /// key path itself addresses bytes by [`ElemWindow::lane`].
    #[inline]
    pub fn byte_at(&self, offset: usize) -> u8 {
        let width = self.elem_type().width();
        self.window().lane(offset / width, (offset % width) as u8)
    }

    /// Borrows the elements as a typed window — the view the ATM key
    /// generator reads through (no copy, no serialisation).
    #[inline]
    pub fn window(&self) -> ElemWindow<'_> {
        match self {
            RegionData::F32(v) => ElemWindow::F32(v),
            RegionData::F64(v) => ElemWindow::F64(v),
            RegionData::I32(v) => ElemWindow::I32(v),
            RegionData::I64(v) => ElemWindow::I64(v),
            RegionData::U8(v) => ElemWindow::U8(v),
        }
    }

    /// Overwrites this region's contents from another region of the same
    /// type and length. This is the runtime's `copyOuts()` primitive: it is
    /// how a memoized task's stored outputs are written into the bypassed
    /// task's output regions.
    ///
    /// # Panics
    /// Panics if the types or lengths differ.
    pub fn copy_from(&mut self, other: &RegionData) {
        match (self, other) {
            (RegionData::F32(dst), RegionData::F32(src)) => dst.copy_from_slice(src),
            (RegionData::F64(dst), RegionData::F64(src)) => dst.copy_from_slice(src),
            (RegionData::I32(dst), RegionData::I32(src)) => dst.copy_from_slice(src),
            (RegionData::I64(dst), RegionData::I64(src)) => dst.copy_from_slice(src),
            (RegionData::U8(dst), RegionData::U8(src)) => dst.copy_from_slice(src),
            (dst, src) => panic!(
                "copy_from between incompatible region types ({:?} <- {:?})",
                dst.elem_type(),
                src.elem_type()
            ),
        }
    }

    /// View of the data as `f64` values regardless of the stored type
    /// (integers are converted). Used by the correctness metrics, which are
    /// defined on real-valued vectors.
    pub fn to_f64_vec(&self) -> Vec<f64> {
        match self {
            RegionData::F32(v) => v.iter().map(|&x| f64::from(x)).collect(),
            RegionData::F64(v) => v.clone(),
            RegionData::I32(v) => v.iter().map(|&x| f64::from(x)).collect(),
            RegionData::I64(v) => v.iter().map(|&x| x as f64).collect(),
            RegionData::U8(v) => v.iter().map(|&x| f64::from(x)).collect(),
        }
    }

    /// Immutable access to `f32` contents.
    ///
    /// # Panics
    /// Panics if the region does not hold `f32` data.
    pub fn as_f32(&self) -> &[f32] {
        self.as_elems()
    }

    /// Mutable access to `f32` contents.
    ///
    /// # Panics
    /// Panics if the region does not hold `f32` data.
    pub fn as_f32_mut(&mut self) -> &mut [f32] {
        self.as_elems_mut()
    }

    /// Immutable access to `f64` contents.
    ///
    /// # Panics
    /// Panics if the region does not hold `f64` data.
    pub fn as_f64(&self) -> &[f64] {
        self.as_elems()
    }

    /// Mutable access to `f64` contents.
    ///
    /// # Panics
    /// Panics if the region does not hold `f64` data.
    pub fn as_f64_mut(&mut self) -> &mut [f64] {
        self.as_elems_mut()
    }

    /// Immutable access to `i32` contents.
    ///
    /// # Panics
    /// Panics if the region does not hold `i32` data.
    pub fn as_i32(&self) -> &[i32] {
        self.as_elems()
    }

    /// Mutable access to `i32` contents.
    ///
    /// # Panics
    /// Panics if the region does not hold `i32` data.
    pub fn as_i32_mut(&mut self) -> &mut [i32] {
        self.as_elems_mut()
    }
}

/// One registered region: its data plus bookkeeping.
#[derive(Debug)]
struct RegionSlot {
    data: RwLock<RegionData>,
    name: String,
    /// Cached element type and element count. Regions are fixed-shape once
    /// registered ([`DataStore::restore`] panics on a type or length
    /// change), so these never go stale — they let submission validation
    /// and every element-range computation read the shape without touching
    /// the data lock.
    elem: ElemType,
    len: usize,
    /// Write version: how many times the region was opened for writing.
    /// Bumped *under the write lock* by [`RegionSlot::write`], the body of
    /// every way into the data ([`RegionRef::write`],
    /// [`RegionWriteGuard::lock`], [`DataStore::restore`]), and read under
    /// the read lock, so between two bumps the bytes cannot have changed —
    /// the version identifies the contents (CONCURRENCY.md, protocol 7).
    version: AtomicU64,
    /// The version `digest` was computed at, or [`NO_DIGEST`].
    digest_version: AtomicU64,
    /// One cached digest of the whole region (see
    /// [`RegionRead::digest_or_fill`]). It lives and dies with the region:
    /// ids are never reused, so a re-registered name starts from an empty
    /// slot.
    digest: AtomicU64,
}

/// `digest_version` of a slot nothing was published to yet; no region is
/// ever written `u64::MAX` times.
const NO_DIGEST: u64 = u64::MAX;

impl RegionSlot {
    fn new(name: String, data: RegionData) -> Self {
        RegionSlot {
            elem: data.elem_type(),
            len: data.len(),
            data: RwLock::new(data),
            name,
            version: AtomicU64::new(0),
            digest_version: AtomicU64::new(NO_DIGEST),
            digest: AtomicU64::new(0),
        }
    }

    /// Locks the data for writing and bumps the write version. The bump
    /// sits inside the critical section: a reader that holds the read lock
    /// sees either the version before the writer got in, with the bytes of
    /// that version, or — after the writer is done — a later one.
    fn write(&self) -> RwLockWriteGuard<'_, RegionData> {
        let guard = self.data.write();
        // Ordered by the lock, like the data it describes; `Release` so the
        // pairing with `RegionRead::version` does not lean on that alone.
        self.version.fetch_add(1, Ordering::Release);
        guard
    }

    fn size_bytes(&self) -> usize {
        self.len * self.elem.width()
    }
}

/// A resolved region: a cheap-to-clone handle straight to one registered
/// region, obtained from [`DataStore::region_ref`] or
/// [`DataStore::resolve`] — and, for every task the runtime runs, resolved
/// once at submission and carried by the task (see the module docs).
///
/// Locking through the handle never touches the store's registry. Its
/// shape ([`len`](Self::len), [`elem_type`](Self::elem_type)) is read
/// without any lock; the write version and the digest slot are reachable
/// only through the read guard [`read`](Self::read) returns, and
/// [`write`](Self::write) bumps the version inside the write lock like
/// every other way into the data. Like an in-flight guard, a handle keeps
/// the region's buffer alive past deregistration until it is dropped.
#[derive(Clone)]
pub struct RegionRef(Arc<RegionSlot>);

impl RegionRef {
    /// Locks the region for reading.
    pub fn read(&self) -> RegionRead<'_> {
        RegionRead {
            data: self.0.data.read(),
            slot: &self.0,
        }
    }

    /// Locks the region for writing and bumps its write version.
    pub fn write(&self) -> RwLockWriteGuard<'_, RegionData> {
        self.0.write()
    }

    /// Number of elements in the region (no lock: regions are fixed-shape).
    pub fn len(&self) -> usize {
        self.0.len
    }

    /// True when the region holds no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Element type of the region (no lock).
    pub fn elem_type(&self) -> ElemType {
        self.0.elem
    }

    /// The name the region was registered under.
    pub fn name(&self) -> &str {
        &self.0.name
    }

    /// How many handles (and in-flight guards) share this region, the
    /// store's own included while it is registered.
    #[cfg(test)]
    pub(crate) fn owners(&self) -> usize {
        Arc::strong_count(&self.0)
    }
}

impl std::fmt::Debug for RegionRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "RegionRef({:?}: {} × {})",
            self.0.name, self.0.elem, self.0.len
        )
    }
}

/// Registration state: the region slots plus the name index used to reject
/// duplicate names. Kept under a single lock so the existence check and the
/// insertion are atomic.
///
/// Slots live in a map keyed by the raw id, not a `Vec`: deregistering a
/// region removes its entry outright, so the registry's footprint follows
/// the *live* region set of a long-running service, not every region ever
/// registered. Ids are handed out monotonically from `next_id` and never
/// reused — a stale handle to a retired region can therefore never alias a
/// newer region.
#[derive(Debug, Default)]
pub(crate) struct Registry {
    slots: HashMap<u32, Arc<RegionSlot>>,
    by_name: HashMap<String, RegionId>,
    next_id: u32,
}

impl Registry {
    /// The handle of `id`, or — when there is none — whether the id was
    /// retired or never assigned.
    pub(crate) fn get(&self, id: RegionId) -> Result<RegionRef, RegionStatus> {
        match self.slots.get(&id.0) {
            Some(slot) => Ok(RegionRef(Arc::clone(slot))),
            None if id.0 < self.next_id => Err(RegionStatus::Retired),
            None => Err(RegionStatus::Unknown),
        }
    }
}

/// The registry of all regions an application has handed to the runtime.
///
/// Shared (via `Arc`) between the application, the scheduler's worker
/// threads and the ATM engine.
#[derive(Debug, Default)]
pub struct DataStore {
    registry: RwLock<Registry>,
    /// Debug-build odometer of registry read locks (see
    /// [`DataStore::registry_reads`]).
    #[cfg(debug_assertions)]
    registry_reads: AtomicU64,
}

impl DataStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Takes the registry's read lock, counting it in debug builds.
    fn registry(&self) -> RwLockReadGuard<'_, Registry> {
        #[cfg(debug_assertions)]
        self.registry_reads.fetch_add(1, Ordering::Relaxed);
        self.registry.read()
    }

    /// Registry read locks taken so far (debug builds only): every id →
    /// region lookup, whatever asked for it. The runtime takes one per
    /// submitted batch and none while it runs tasks — the regression guard
    /// of resolving regions at submission.
    #[cfg(debug_assertions)]
    pub fn registry_reads(&self) -> u64 {
        self.registry_reads.load(Ordering::Relaxed)
    }

    /// Holds the registry read lock for a batch of lookups
    /// ([`Registry::get`]).
    pub(crate) fn resolver(&self) -> RwLockReadGuard<'_, Registry> {
        self.registry()
    }

    /// Resolves a region id to its handle.
    ///
    /// # Panics
    /// Panics if the id does not name a registered region.
    pub fn region_ref(&self, id: impl Into<RegionId>) -> RegionRef {
        let id = id.into();
        self.registry()
            .get(id)
            .unwrap_or_else(|_| panic!("unknown region id {id:?}"))
    }

    /// Resolves the region of every access, in order, under one registry
    /// lock: `resolve(accesses)[i]` is `accesses[i]`'s region. This is
    /// what the store-taking conveniences (`TaskContext::new`, the key and
    /// snapshot adapters of the ATM crates, hand-built task views) call;
    /// the runtime resolves submitted tasks itself.
    ///
    /// # Panics
    /// Panics if an access names a region that is not registered.
    pub fn resolve(&self, accesses: &[Access]) -> Vec<RegionRef> {
        let registry = self.registry();
        accesses
            .iter()
            .map(|access| {
                registry
                    .get(access.region)
                    .unwrap_or_else(|_| panic!("unknown region id {:?}", access.region))
            })
            .collect()
    }

    /// Registers a new region under a unique name and returns a typed
    /// handle. The element type of the region is taken from the data, so it
    /// never needs to be restated at access-declaration or kernel-read time.
    pub fn register_typed<T: Elem>(
        &self,
        name: impl Into<String>,
        data: Vec<T>,
    ) -> Result<Region<T>, RegisterError> {
        self.try_register(name, T::into_region(data))
            .map(Region::new)
    }

    /// Registers a region of `len` zeros of type `T`.
    pub fn register_zeros<T: Elem>(
        &self,
        name: impl Into<String>,
        len: usize,
    ) -> Result<Region<T>, RegisterError> {
        self.register_typed(name, vec![T::ZERO; len])
    }

    /// Registers a new region from untyped [`RegionData`] and returns its
    /// untyped id. Prefer [`DataStore::register_typed`], which returns a
    /// typed handle.
    pub fn try_register(
        &self,
        name: impl Into<String>,
        data: RegionData,
    ) -> Result<RegionId, RegisterError> {
        let name = name.into();
        let mut registry = self.registry.write();
        if registry.by_name.contains_key(&name) {
            return Err(RegisterError::DuplicateName(name));
        }
        let id = RegionId(registry.next_id);
        registry.next_id = registry
            .next_id
            .checked_add(1)
            .expect("more than u32::MAX regions");
        registry.by_name.insert(name.clone(), id);
        registry
            .slots
            .insert(id.0, Arc::new(RegionSlot::new(name, data)));
        Ok(id)
    }

    /// Deregisters a region, dropping its data and index entries, and
    /// returns the number of data bytes freed. In-flight readers holding a
    /// guard keep the buffer alive until they drop it (the slot is
    /// `Arc`-shared), but the store forgets the region immediately: its id
    /// reports [`RegionStatus::Retired`], its name becomes reusable, and its
    /// bytes leave [`DataStore::total_bytes`].
    ///
    /// This is the store-level primitive; it does **not** check the
    /// dependence graph for unfinished accessors. Go through
    /// [`crate::Runtime::deregister_region`], which does.
    pub fn deregister(&self, id: impl Into<RegionId>) -> Result<usize, DeregisterError> {
        let id = id.into();
        let mut registry = self.registry.write();
        let Some(slot) = registry.slots.remove(&id.0) else {
            return Err(if id.0 < registry.next_id {
                DeregisterError::AlreadyRetired(id)
            } else {
                DeregisterError::UnknownRegion(id)
            });
        };
        registry.by_name.remove(&slot.name);
        Ok(slot.size_bytes())
    }

    /// Whether an id currently maps to a region, used to be one, or was
    /// never assigned by this store.
    pub fn region_status(&self, id: impl Into<RegionId>) -> RegionStatus {
        match self.registry().get(id.into()) {
            Ok(_) => RegionStatus::Live,
            Err(status) => status,
        }
    }

    /// Number of registered regions.
    pub fn len(&self) -> usize {
        self.registry().slots.len()
    }

    /// True when no regions are registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Looks a region up by its registration name.
    pub fn lookup(&self, name: &str) -> Option<RegionId> {
        self.registry().by_name.get(name).copied()
    }

    /// The human-readable name given at registration.
    pub fn name(&self, id: impl Into<RegionId>) -> String {
        self.region_ref(id).name().to_owned()
    }

    /// Size of a region in bytes.
    pub fn size_bytes(&self, id: impl Into<RegionId>) -> usize {
        self.region_ref(id).0.size_bytes()
    }

    /// Element type of a region.
    pub fn elem_type(&self, id: impl Into<RegionId>) -> ElemType {
        self.region_ref(id).elem_type()
    }

    /// Total application footprint: the sum of all region sizes in bytes.
    /// Used as the denominator of the Table III memory-overhead figures.
    pub fn total_bytes(&self) -> usize {
        self.registry()
            .slots
            .values()
            .map(|slot| slot.size_bytes())
            .sum()
    }

    /// Read access to a region's data.
    pub fn read(&self, id: impl Into<RegionId>) -> RegionReadGuard<'_> {
        RegionReadGuard {
            region: self.region_ref(id),
            _marker: std::marker::PhantomData,
        }
    }

    /// Write access to a region's data.
    pub fn write(&self, id: impl Into<RegionId>) -> RegionWriteGuard<'_> {
        RegionWriteGuard {
            region: self.region_ref(id),
            _marker: std::marker::PhantomData,
        }
    }

    /// Clones a region's current contents (used for output snapshots and for
    /// the sequential references in tests).
    pub fn snapshot(&self, id: impl Into<RegionId>) -> RegionData {
        self.region_ref(id).read().clone()
    }

    /// Clones the typed contents of a region.
    pub fn contents<T: Elem>(&self, region: &Region<T>) -> Vec<T> {
        self.read(region).lock().as_elems::<T>().to_vec()
    }

    /// Replaces a region's contents.
    ///
    /// # Panics
    /// Panics if the new data has a different type or length than the
    /// current contents (regions are fixed-shape once registered).
    pub fn restore(&self, id: impl Into<RegionId>, data: &RegionData) {
        self.region_ref(id).write().copy_from(data);
    }
}

/// RAII read guard over a region.
pub struct RegionReadGuard<'a> {
    region: RegionRef,
    _marker: std::marker::PhantomData<&'a ()>,
}

impl RegionReadGuard<'_> {
    /// Locks the region for reading and returns the guard.
    pub fn lock(&self) -> RegionRead<'_> {
        self.region.read()
    }
}

/// A region locked for reading: its data (through `Deref`) together with
/// the write version that identifies those bytes and the region's digest
/// slot. Holding the lock is what makes the three agree — no writer can
/// bump the version or change a byte while this guard lives — which is why
/// the version and the slot are only reachable through it.
pub struct RegionRead<'a> {
    data: RwLockReadGuard<'a, RegionData>,
    slot: &'a RegionSlot,
}

impl std::ops::Deref for RegionRead<'_> {
    type Target = RegionData;

    fn deref(&self) -> &RegionData {
        &self.data
    }
}

impl RegionRead<'_> {
    /// The region's write version: it changes whenever the region is opened
    /// for writing ([`RegionRef::write`], [`RegionWriteGuard::lock`],
    /// [`DataStore::restore`]) and never otherwise, so equal versions of one
    /// region mean equal bytes.
    pub fn version(&self) -> u64 {
        self.slot.version.load(Ordering::Acquire)
    }

    /// The digest of the whole region cached for its current version, or —
    /// when the region was written since the slot was last filled —
    /// `fill(data)`, computed now and published for the next reader while
    /// this read lock is still held.
    ///
    /// A region has **one** slot, so every caller must pass the same pure
    /// function of the region's bytes (the ATM key generator's fixed-seed
    /// argument digest, whatever the task type or engine). Two readers
    /// that race to fill the slot hold the read lock together, therefore
    /// hash the same version and publish the same value.
    pub fn digest_or_fill(&self, fill: impl FnOnce(&RegionData) -> u64) -> u64 {
        let version = self.version();
        // Acquire pairs with the Release publication below: a reader that
        // sees this version's tag also sees this version's digest.
        if self.slot.digest_version.load(Ordering::Acquire) == version {
            return self.slot.digest.load(Ordering::Relaxed);
        }
        let digest = fill(&self.data);
        self.slot.digest.store(digest, Ordering::Relaxed);
        self.slot.digest_version.store(version, Ordering::Release);
        digest
    }
}

/// RAII write guard over a region.
pub struct RegionWriteGuard<'a> {
    region: RegionRef,
    _marker: std::marker::PhantomData<&'a ()>,
}

impl RegionWriteGuard<'_> {
    /// Locks the region for writing and returns the guard.
    pub fn lock(&self) -> RwLockWriteGuard<'_, RegionData> {
        self.region.write()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_and_read_back() {
        let store = DataStore::new();
        let id = store
            .register_typed("prices", vec![1.0f32, 2.0, 3.0])
            .unwrap();
        assert_eq!(store.len(), 1);
        assert_eq!(store.name(id), "prices");
        assert_eq!(store.size_bytes(id), 12);
        assert_eq!(store.elem_type(id), ElemType::F32);
        assert_eq!(id.elem_type(), ElemType::F32);
        assert_eq!(store.read(id).lock().as_f32(), &[1.0, 2.0, 3.0]);
        assert_eq!(store.contents(&id), vec![1.0, 2.0, 3.0]);
        assert_eq!(store.lookup("prices"), Some(id.id()));
        assert_eq!(store.lookup("missing"), None);
    }

    #[test]
    fn duplicate_names_are_rejected() {
        let store = DataStore::new();
        let first = store.register_typed("block", vec![0.0f64; 2]);
        assert!(first.is_ok());
        let second = store.register_typed("block", vec![0.0f64; 2]);
        assert_eq!(
            second.unwrap_err(),
            RegisterError::DuplicateName("block".to_string())
        );
        let untyped = store.try_register("block", RegionData::U8(vec![1]));
        assert!(matches!(untyped, Err(RegisterError::DuplicateName(_))));
        assert_eq!(
            store.len(),
            1,
            "rejected registrations must not allocate a slot"
        );
    }

    #[test]
    fn write_then_snapshot_then_restore() {
        let store = DataStore::new();
        let id = store.register_zeros::<f64>("block", 4).unwrap();
        store
            .write(id)
            .lock()
            .as_f64_mut()
            .copy_from_slice(&[1.0, 2.0, 3.0, 4.0]);
        let snap = store.snapshot(id);
        store
            .write(id)
            .lock()
            .as_f64_mut()
            .copy_from_slice(&[9.0, 9.0, 9.0, 9.0]);
        store.restore(id, &snap);
        assert_eq!(store.read(id).lock().as_f64(), &[1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn total_bytes_sums_all_regions() {
        let store = DataStore::new();
        store.register_zeros::<f32>("a", 10).unwrap();
        store.register_zeros::<f64>("b", 10).unwrap();
        store.register_typed("c", vec![0u8; 7]).unwrap();
        assert_eq!(store.total_bytes(), 40 + 80 + 7);
    }

    #[test]
    fn typed_handles_are_copy_and_comparable() {
        let store = DataStore::new();
        let a = store.register_zeros::<i32>("a", 1).unwrap();
        let b = store.register_zeros::<i32>("b", 1).unwrap();
        let a2 = a;
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(format!("{a:?}"), "Region<i32>(0)");
        assert_eq!(RegionId::from(a), a.id());
        assert_eq!(RegionId::from(&b), b.id());
    }

    #[test]
    fn to_bytes_round_trips_f32_layout() {
        let data = RegionData::F32(vec![1.5, -2.5]);
        let bytes = data.to_bytes();
        assert_eq!(bytes.len(), 8);
        assert_eq!(&bytes[0..4], &1.5f32.to_le_bytes());
        assert_eq!(&bytes[4..8], &(-2.5f32).to_le_bytes());
    }

    #[test]
    fn byte_at_matches_full_serialisation() {
        let data = RegionData::F64(vec![3.25, -7.5, 1e-9]);
        let bytes = data.to_bytes();
        for (i, &b) in bytes.iter().enumerate() {
            assert_eq!(data.byte_at(i), b, "byte_at({i}) mismatch");
        }
        let ints = RegionData::I32(vec![0x01020304, -5]);
        let int_bytes = ints.to_bytes();
        for (i, &b) in int_bytes.iter().enumerate() {
            assert_eq!(ints.byte_at(i), b);
        }
    }

    #[test]
    fn to_f64_vec_converts_integer_regions() {
        assert_eq!(RegionData::I32(vec![1, -2]).to_f64_vec(), vec![1.0, -2.0]);
        assert_eq!(RegionData::U8(vec![3, 4]).to_f64_vec(), vec![3.0, 4.0]);
        assert_eq!(RegionData::I64(vec![5]).to_f64_vec(), vec![5.0]);
    }

    #[test]
    #[should_panic(expected = "incompatible region types")]
    fn copy_from_type_mismatch_panics() {
        let mut a = RegionData::F32(vec![0.0]);
        a.copy_from(&RegionData::F64(vec![0.0]));
    }

    #[test]
    #[should_panic(expected = "unknown region id")]
    fn unknown_region_panics() {
        let store = DataStore::new();
        let _ = store.read(RegionId(3));
    }

    #[test]
    fn deregister_frees_bytes_and_retires_the_id() {
        let store = DataStore::new();
        let a = store.register_zeros::<f64>("a", 8).unwrap();
        let b = store.register_zeros::<f32>("b", 4).unwrap();
        assert_eq!(store.total_bytes(), 64 + 16);
        assert_eq!(store.region_status(a), RegionStatus::Live);

        assert_eq!(store.deregister(a), Ok(64));
        assert_eq!(store.len(), 1);
        assert_eq!(store.total_bytes(), 16);
        assert_eq!(store.region_status(a), RegionStatus::Retired);
        assert_eq!(store.region_status(b), RegionStatus::Live);
        assert_eq!(
            store.region_status(RegionId::from_raw(9)),
            RegionStatus::Unknown
        );
        assert_eq!(store.lookup("a"), None, "the name index entry must go too");

        // Double deregistration and never-registered ids are distinguished.
        assert_eq!(
            store.deregister(a),
            Err(DeregisterError::AlreadyRetired(a.id()))
        );
        assert_eq!(
            store.deregister(RegionId::from_raw(9)),
            Err(DeregisterError::UnknownRegion(RegionId::from_raw(9)))
        );
    }

    #[test]
    fn deregistered_ids_are_never_reused() {
        let store = DataStore::new();
        let a = store.register_zeros::<u8>("a", 1).unwrap();
        store.deregister(a).unwrap();
        let c = store.register_zeros::<u8>("c", 1).unwrap();
        assert_ne!(a.id(), c.id(), "ids are monotonic, never recycled");
        // The freed name is reusable; the old id stays retired.
        let a2 = store.register_zeros::<f64>("a", 2).unwrap();
        assert_eq!(store.region_status(a), RegionStatus::Retired);
        assert_eq!(store.region_status(a2), RegionStatus::Live);
    }

    #[test]
    fn in_flight_guards_survive_deregistration() {
        let store = DataStore::new();
        let a = store.register_typed("a", vec![7.0f64]).unwrap();
        let guard = store.read(a);
        store.deregister(a).unwrap();
        // The Arc-shared slot keeps the data alive for the extant guard.
        assert_eq!(guard.lock().as_f64(), &[7.0]);
    }

    #[test]
    fn region_refs_and_the_store_share_one_slot_and_one_version() {
        let store = DataStore::new();
        let a = store.register_typed("a", vec![1.0f32, 2.0, 3.0]).unwrap();
        let b = store.register_zeros::<i64>("b", 2).unwrap();
        let handles = store.resolve(&[Access::read(&b), Access::write(&a)]);
        let (b_ref, a_ref) = (&handles[0], &handles[1]);
        assert_eq!(
            (a_ref.len(), a_ref.elem_type(), a_ref.name()),
            (3, ElemType::F32, "a")
        );
        assert_eq!((b_ref.len(), b_ref.elem_type()), (2, ElemType::I64));

        // A write through the handle and one through the store bump the one
        // version, and each sees the other's bytes.
        let v0 = a_ref.read().version();
        a_ref.write().as_f32_mut()[0] = 9.0;
        assert_eq!(store.read(a).lock().as_f32(), &[9.0, 2.0, 3.0]);
        store.write(a).lock().as_f32_mut()[1] = 8.0;
        store.restore(a, &RegionData::F32(vec![7.0, 8.0, 9.0]));
        let read = a_ref.read();
        assert_eq!(&*read, &RegionData::F32(vec![7.0, 8.0, 9.0]));
        assert_eq!(read.version(), v0 + 3);
        drop(read);

        // The handle outlives deregistration, like an in-flight guard.
        store.deregister(a).unwrap();
        assert_eq!(a_ref.read().as_f32(), &[7.0, 8.0, 9.0]);
        assert_eq!(a_ref.owners(), 1, "the store let go of its share");
    }

    #[test]
    #[should_panic(expected = "unknown region id")]
    fn resolving_an_unknown_region_panics() {
        let store = DataStore::new();
        let _ = store.resolve(&[Access::read(&Region::<u8>::new(RegionId(4)))]);
    }

    #[test]
    fn typed_views_check_the_variant() {
        let data = RegionData::I64(vec![1, 2]);
        assert_eq!(i64::slice(&data), Some(&[1i64, 2][..]));
        assert!(f64::slice(&data).is_none());
        assert_eq!(data.as_elems::<i64>(), &[1, 2]);
    }

    #[test]
    fn elem_type_widths() {
        assert_eq!(ElemType::F32.width(), 4);
        assert_eq!(ElemType::F64.width(), 8);
        assert_eq!(ElemType::I32.width(), 4);
        assert_eq!(ElemType::I64.width(), 8);
        assert_eq!(ElemType::U8.width(), 1);
    }
}
