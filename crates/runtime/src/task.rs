//! Task types, task descriptors and the execution context handed to kernels.
//!
//! A *task type* corresponds to one annotated function in the OmpSs/OpenMP
//! source program (e.g. `bs_thread`, `stencilComputation`, `bmod`, …): it
//! carries the kernel code, the type's approximation policy
//! ([`MemoSpec`], when the programmer opted the type into memoization) and
//! the declared *access signature* — the modes and element types of the data
//! parameters the kernel expects, in order. The signature is what
//! [`crate::Runtime::task`] validates every submission against, so a task
//! can never reach a worker with the wrong arity, access direction or
//! element width.
//!
//! A *task instance* ([`TaskDesc`]) is one submission of that type with a
//! concrete list of data accesses. When the runtime accepts a submission it
//! resolves the task's type and the region of every access once and keeps
//! them in the descriptor, so the worker that runs the task — its kernel's
//! [`TaskContext`], the interceptor's [`TaskView`] — reaches both without
//! going back to a registry.

use crate::access::{Access, AccessMode};
use crate::memo::{MemoSpec, MemoSpecError};
use crate::region::{DataStore, Elem, ElemType, RegionRef};
use std::borrow::Cow;
use std::fmt;
use std::sync::Arc;

/// Identifier of a registered task type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskTypeId(pub(crate) u32);

impl TaskTypeId {
    /// Raw index of the task type in the registry.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds a task type id from a raw index. Intended for tests and
    /// tooling; ids obtained this way are only meaningful against the
    /// runtime that assigned them.
    pub fn from_raw(index: u32) -> Self {
        TaskTypeId(index)
    }
}

/// Identifier of a submitted task instance.
///
/// The `u64` is a **generational slot id**, packed as
/// `(generation << 36) | (slot << 4) | shard`:
///
/// * bits `[0, 4)` — the node-slab **shard** the task's node lives in;
/// * bits `[4, 36)` — the **slot index** inside that shard;
/// * bits `[36, 64)` — the slot's **generation** at insertion time.
///
/// Looking a task up is therefore a bounds check plus a generation compare
/// — no hash probe. When a node retires its slot is recycled with a bumped
/// generation, so a stale id of a retired task fails the generation compare
/// and resolves as "gone = finished" instead of aliasing the slot's new
/// occupant (no ABA). Ids are *dense in neither value nor order*: treat
/// them as opaque unique keys (the creation-order rank of Figure 9 comes
/// from the runtime's own sequence counter, not from the id bits).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskId(pub(crate) u64);

impl TaskId {
    /// Bits devoted to the node-slab shard (low bits).
    pub(crate) const SHARD_BITS: u32 = 4;
    /// Bits devoted to the slot index within a shard.
    pub(crate) const SLOT_BITS: u32 = 32;
    /// Bits devoted to the slot generation (high bits).
    pub(crate) const GEN_BITS: u32 = 64 - Self::SHARD_BITS - Self::SLOT_BITS;
    /// Number of node-slab shards addressable by the shard field. Public
    /// because tests and diagnostics need to know how many consecutive
    /// submissions revisit the same shard (submissions rotate round-robin).
    pub const SHARD_COUNT: usize = 1 << Self::SHARD_BITS;
    /// Crate-internal alias for [`TaskId::SHARD_COUNT`].
    pub(crate) const SHARDS: usize = Self::SHARD_COUNT;
    /// Wrap-around mask for slot generations.
    pub(crate) const GEN_MASK: u32 = (1 << Self::GEN_BITS) - 1;

    /// Packs a (shard, slot, generation) triple into an id.
    pub(crate) fn pack(shard: usize, slot: u32, generation: u32) -> TaskId {
        debug_assert!(shard < Self::SHARDS, "shard {shard} out of range");
        debug_assert_eq!(generation & !Self::GEN_MASK, 0, "generation overflow");
        TaskId(
            ((generation as u64) << (Self::SHARD_BITS + Self::SLOT_BITS))
                | ((slot as u64) << Self::SHARD_BITS)
                | shard as u64,
        )
    }

    /// The node-slab shard the task's node lives in.
    pub(crate) fn shard(self) -> usize {
        (self.0 & (Self::SHARDS as u64 - 1)) as usize
    }

    /// The slot index inside the shard.
    pub(crate) fn slot(self) -> u32 {
        (self.0 >> Self::SHARD_BITS) as u32
    }

    /// The slot generation the id was minted against.
    pub(crate) fn generation(self) -> u32 {
        (self.0 >> (Self::SHARD_BITS + Self::SLOT_BITS)) as u32
    }

    /// The raw packed id. A stable, process-unique join key (trace spans,
    /// decision-log records, persisted reuse events) — **not** a dense
    /// creation-order index; see the type docs for the bit layout.
    pub fn raw(self) -> u64 {
        self.0
    }

    /// Rebuilds a task id from its raw packed value (the inverse of
    /// [`TaskId::raw`]). Intended for tests and tooling; ids obtained this
    /// way are only meaningful against the runtime that assigned them.
    pub fn from_raw(raw: u64) -> Self {
        TaskId(raw)
    }
}

impl fmt::Display for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "task#{}", self.0)
    }
}

/// The kernel of a task type: a deterministic function of its declared data
/// inputs that writes its declared data outputs through the [`TaskContext`].
pub type TaskKernel = Arc<dyn Fn(&TaskContext<'_>) + Send + Sync>;

/// One fixed parameter of a task type's declared signature: an access
/// direction plus the element type of the region the kernel expects at that
/// position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SigParam {
    /// Expected access direction.
    pub mode: AccessMode,
    /// Expected element type.
    pub elem: ElemType,
}

/// The variadic tail of a signature: any number (at least `min`) of trailing
/// accesses of one element type, optionally constrained to one direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VariadicSig {
    /// Required direction of the trailing accesses; `None` accepts any.
    pub mode: Option<AccessMode>,
    /// Required element type of the trailing accesses.
    pub elem: ElemType,
    /// Minimum number of trailing accesses.
    pub min: usize,
}

/// The declared access signature of a task type: a fixed list of positional
/// parameters, optionally followed by a variadic tail (reductions take a
/// run-time-determined number of inputs).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TaskSignature {
    /// The fixed leading parameters, in the order the kernel indexes them.
    pub fixed: Vec<SigParam>,
    /// The optional variadic tail.
    pub variadic: Option<VariadicSig>,
}

impl TaskSignature {
    /// Smallest number of accesses a submission may declare.
    pub fn min_arity(&self) -> usize {
        self.fixed.len() + self.variadic.map_or(0, |v| v.min)
    }

    /// Largest number of accesses a submission may declare, `None` when the
    /// signature has a variadic tail.
    pub fn max_arity(&self) -> Option<usize> {
        if self.variadic.is_some() {
            None
        } else {
            Some(self.fixed.len())
        }
    }
}

/// A registered task type.
#[derive(Clone)]
pub struct TaskTypeInfo {
    /// Human-readable name (matches the paper's task-type names).
    pub name: String,
    /// The kernel to execute.
    pub kernel: TaskKernel,
    /// The approximation policy of the type. `Some` means the programmer
    /// opted the type into memoization; the spec carries everything the ATM
    /// engine needs (policy, `τ_max`, training window, error metric,
    /// per-argument precision overrides).
    pub memo: Option<MemoSpec>,
    /// The declared access signature, when the builder declared one.
    /// Submissions of types without a signature skip the arity/mode checks
    /// (the element types of their accesses are still validated against the
    /// store).
    pub signature: Option<TaskSignature>,
}

impl TaskTypeInfo {
    /// Whether the programmer marked the type as suitable for ATM.
    pub fn memoizable(&self) -> bool {
        self.memo.is_some()
    }
}

impl fmt::Debug for TaskTypeInfo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TaskTypeInfo")
            .field("name", &self.name)
            .field("memo", &self.memo)
            .field("signature", &self.signature)
            .finish_non_exhaustive()
    }
}

/// Builder for registering a task type with the runtime.
///
/// The typed parameter declarations ([`TaskTypeBuilder::arg`],
/// [`TaskTypeBuilder::out`], [`TaskTypeBuilder::inout`],
/// [`TaskTypeBuilder::variadic_args`], [`TaskTypeBuilder::variadic`]) build
/// the access signature the submission validator enforces. Declare them in
/// the order the kernel indexes its accesses, and attach the type's
/// approximation policy with [`TaskTypeBuilder::memo`]:
///
/// ```
/// use atm_runtime::prelude::*;
///
/// let info = TaskTypeBuilder::new("axpy", |ctx| {
///     let x = ctx.arg::<f64>(0);
///     let y: Vec<f64> = x.iter().map(|v| 2.0 * v).collect();
///     ctx.out(1, &y);
/// })
/// .arg::<f64>()
/// .out::<f64>()
/// .memo(MemoSpec::approximate().tau(1e-3).training_window(32))
/// .build();
/// assert_eq!(info.signature.as_ref().unwrap().fixed.len(), 2);
/// assert!(info.memoizable());
/// ```
pub struct TaskTypeBuilder {
    name: String,
    kernel: TaskKernel,
    signature: Option<TaskSignature>,
    spec: Option<MemoSpec>,
}

impl TaskTypeBuilder {
    /// Starts building a task type with the given name and kernel.
    pub fn new(
        name: impl Into<String>,
        kernel: impl Fn(&TaskContext<'_>) + Send + Sync + 'static,
    ) -> Self {
        TaskTypeBuilder {
            name: name.into(),
            kernel: Arc::new(kernel),
            signature: None,
            spec: None,
        }
    }

    /// Marks the task type as suitable for ATM with the default policy
    /// ([`MemoSpec::default`]: adaptive approximation with the paper's
    /// Table II defaults). Use [`TaskTypeBuilder::memo`] to declare a
    /// non-default policy.
    #[must_use]
    pub fn memoizable(mut self) -> Self {
        self.spec.get_or_insert_with(MemoSpec::default);
        self
    }

    /// Opts the task type into ATM with an explicit approximation policy,
    /// declared where the kernel is registered. The spec is validated
    /// against the declared access signature by [`TaskTypeBuilder::build`].
    #[must_use]
    pub fn memo(mut self, spec: MemoSpec) -> Self {
        self.spec = Some(spec);
        self
    }

    fn push_fixed(mut self, mode: AccessMode, elem: ElemType) -> Self {
        let signature = self.signature.get_or_insert_with(TaskSignature::default);
        assert!(
            signature.variadic.is_none(),
            "fixed parameters cannot be declared after a variadic tail"
        );
        signature.fixed.push(SigParam { mode, elem });
        self
    }

    fn set_variadic(mut self, mode: Option<AccessMode>, elem: ElemType, min: usize) -> Self {
        let signature = self.signature.get_or_insert_with(TaskSignature::default);
        assert!(
            signature.variadic.is_none(),
            "a signature can declare at most one variadic tail"
        );
        signature.variadic = Some(VariadicSig { mode, elem, min });
        self
    }

    /// Declares the next positional parameter as a read (`in`) access of
    /// element type `T`.
    #[must_use]
    pub fn arg<T: Elem>(self) -> Self {
        self.push_fixed(AccessMode::In, T::ELEM)
    }

    /// Declares the next positional parameter as a write (`out`) access of
    /// element type `T`.
    #[must_use]
    pub fn out<T: Elem>(self) -> Self {
        self.push_fixed(AccessMode::Out, T::ELEM)
    }

    /// Declares the next positional parameter as a read-write (`inout`)
    /// access of element type `T`.
    #[must_use]
    pub fn inout<T: Elem>(self) -> Self {
        self.push_fixed(AccessMode::InOut, T::ELEM)
    }

    /// Declares a variadic tail: at least `min` trailing read accesses of
    /// element type `T` (reductions over a run-time number of inputs).
    #[must_use]
    pub fn variadic_args<T: Elem>(self, min: usize) -> Self {
        self.set_variadic(Some(AccessMode::In), T::ELEM, min)
    }

    /// Declares a variadic tail of at least `min` trailing accesses of
    /// element type `T` in any direction (for fully generic task shapes).
    #[must_use]
    pub fn variadic<T: Elem>(self, min: usize) -> Self {
        self.set_variadic(None, T::ELEM, min)
    }

    /// Finishes the builder, validating the memoization spec (when one was
    /// declared) against the declared access signature.
    ///
    /// # Panics
    /// Panics when the spec is invalid; use [`TaskTypeBuilder::try_build`]
    /// to handle the error.
    pub fn build(self) -> TaskTypeInfo {
        self.try_build()
            .unwrap_or_else(|err| panic!("invalid memoization spec: {err}"))
    }

    /// Finishes the builder, reporting an invalid memoization spec as a
    /// [`MemoSpecError`] instead of panicking.
    pub fn try_build(self) -> Result<TaskTypeInfo, MemoSpecError> {
        if let Some(spec) = &self.spec {
            spec.validate(self.signature.as_ref())?;
        }
        Ok(TaskTypeInfo {
            name: self.name,
            kernel: self.kernel,
            memo: self.spec,
            signature: self.signature,
        })
    }
}

/// Observer of one task's completion, attached per submission through
/// [`TaskDesc::with_notify`].
///
/// The runtime invokes [`TaskNotify::task_finished`] exactly once per task
/// — after the task's successors were released and the outstanding count
/// decremented, on whichever worker performed the completion (memoized
/// bypasses and producer-completed deferred tasks included). This is the
/// hook a serving tier uses to learn that a request's last task finished
/// without polling or a global taskwait. Implementations must be cheap and
/// must not submit tasks or block: they run on the worker's hot path.
pub trait TaskNotify: Send + Sync {
    /// Called once when the task completes, on the completing worker.
    fn task_finished(&self, worker: usize, task: TaskId);
}

/// One task instance to submit: a task type plus its data accesses. How
/// (and whether) the instance is memoized is its type's declaration
/// ([`TaskTypeBuilder::memo`]), never the instance's.
#[derive(Clone)]
pub struct TaskDesc {
    /// The task type.
    pub task_type: TaskTypeId,
    /// The declared data accesses, in the order the kernel expects them.
    pub accesses: Vec<Access>,
    /// Submission timestamp on the runtime's trace clock, stamped by
    /// [`crate::Runtime::try_submit`] / [`crate::Runtime::try_submit_all`]
    /// (0 until then). Feeds the end-to-end task-latency histogram of the
    /// observability layer.
    pub submitted_at_ns: u64,
    /// Completion observer, when the submitter wants one (see
    /// [`TaskNotify`]).
    pub notify: Option<Arc<dyn TaskNotify>>,
    /// The registered type behind `task_type`, resolved once when
    /// [`crate::Runtime`] validates the submission, so the worker that runs
    /// the task reads it from the node instead of going back to the
    /// registry. `None` on a descriptor that never passed through a runtime.
    pub(crate) info: Option<Arc<TaskTypeInfo>>,
    /// The region of every access, parallel to `accesses`, resolved in the
    /// same validation pass: kernels and the interceptor lock regions
    /// through these handles, never through the store's registry. Empty on
    /// a descriptor that never passed through a runtime.
    pub(crate) regions: Vec<RegionRef>,
}

impl fmt::Debug for TaskDesc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TaskDesc")
            .field("task_type", &self.task_type)
            .field("accesses", &self.accesses)
            .field("submitted_at_ns", &self.submitted_at_ns)
            .field(
                "notify",
                &self.notify.as_ref().map(|_| "Arc<dyn TaskNotify>"),
            )
            .finish()
    }
}

impl TaskDesc {
    /// Creates a descriptor of one instance of `task_type`.
    pub fn new(task_type: TaskTypeId, accesses: Vec<Access>) -> Self {
        TaskDesc {
            task_type,
            accesses,
            submitted_at_ns: 0,
            notify: None,
            info: None,
            regions: Vec::new(),
        }
    }

    /// Attaches a completion observer (see [`TaskNotify`]).
    #[must_use]
    pub fn with_notify(mut self, notify: Arc<dyn TaskNotify>) -> Self {
        self.notify = Some(notify);
        self
    }
}

/// Read-only view of a task handed to interceptors (the ATM engine).
#[derive(Clone, Copy)]
pub struct TaskView<'a> {
    /// The task instance id (an opaque generational slot id).
    pub id: TaskId,
    /// The task type id.
    pub type_id: TaskTypeId,
    /// The registered task type information.
    pub info: &'a TaskTypeInfo,
    /// The task's data accesses.
    pub accesses: &'a [Access],
    /// The region of every access, resolved at submission: `regions[i]` is
    /// the region `accesses[i]` names. A view built by hand resolves them
    /// with [`DataStore::resolve`].
    pub regions: &'a [RegionRef],
}

impl TaskView<'_> {
    /// Whether this task may be memoized: its type opted in at registration
    /// ([`TaskTypeBuilder::memo`]).
    pub fn memoizable(&self) -> bool {
        self.info.memoizable()
    }
}

impl fmt::Debug for TaskView<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TaskView")
            .field("id", &self.id)
            .field("type", &self.info.name)
            .field("accesses", &self.accesses.len())
            .finish()
    }
}

/// Execution context handed to a task kernel.
///
/// Gives the kernel access to the data store and to its own declared
/// accesses; kernels must only touch regions they declared (the dependence
/// tracker and, transitively, the soundness of ATM rely on it — §III-E of
/// the paper lists under-declared outputs as the main source-code hazard).
///
/// Data flows through the typed positional accessors: [`TaskContext::arg`]
/// clones the region of a read access, [`TaskContext::out`] overwrites the
/// region of a write access, each locking it once through the handle the
/// submission resolved. Both check the declared element width once per call
/// against the `T` the kernel asks for — and because submission already
/// validated every access against the store, a type mismatch can only come
/// from the kernel disagreeing with its own declared signature.
pub struct TaskContext<'a> {
    store: &'a DataStore,
    accesses: &'a [Access],
    /// `regions[i]` is the region of `accesses[i]`.
    regions: Cow<'a, [RegionRef]>,
}

impl<'a> TaskContext<'a> {
    /// Creates a context over `accesses`, resolving their regions through
    /// `store` first (unit tests and host-side callers).
    pub fn new(store: &'a DataStore, accesses: &'a [Access]) -> Self {
        TaskContext {
            store,
            accesses,
            regions: Cow::Owned(store.resolve(accesses)),
        }
    }

    /// Creates a context over accesses whose regions are already resolved —
    /// `regions[i]` is `accesses[i]`'s — as a submitted task carries them.
    /// This is the scheduler's constructor: the kernel never reads the
    /// store's registry.
    pub fn resolved(
        store: &'a DataStore,
        accesses: &'a [Access],
        regions: &'a [RegionRef],
    ) -> Self {
        debug_assert_eq!(accesses.len(), regions.len(), "one region per access");
        TaskContext {
            store,
            accesses,
            regions: Cow::Borrowed(regions),
        }
    }

    /// The data store.
    pub fn store(&self) -> &DataStore {
        self.store
    }

    /// The task's declared accesses.
    pub fn accesses(&self) -> &[Access] {
        self.accesses
    }

    /// The `idx`-th declared access.
    pub fn access(&self, idx: usize) -> &Access {
        &self.accesses[idx]
    }

    /// Clones the `T` elements of the `idx`-th access's region.
    ///
    /// # Panics
    /// Panics if the access is not a read access or was not declared with
    /// element type `T`.
    pub fn arg<T: Elem>(&self, idx: usize) -> Vec<T> {
        let access = self.access(idx);
        let region = &self.regions[idx];
        assert!(
            access.mode.is_read(),
            "arg::<{}>({idx}) on a write-only access of {}",
            T::ELEM,
            region.name()
        );
        assert_eq!(
            access.elem,
            T::ELEM,
            "arg::<{}>({idx}) on an access declared as {}",
            T::ELEM,
            access.elem
        );
        region.read().as_elems::<T>().to_vec()
    }

    /// Writes `values` over the `T` elements of the `idx`-th access's region.
    ///
    /// # Panics
    /// Panics if the access is not a write access, was not declared with
    /// element type `T`, or the lengths differ.
    pub fn out<T: Elem>(&self, idx: usize, values: &[T]) {
        let access = self.access(idx);
        let region = &self.regions[idx];
        assert!(
            access.mode.is_write(),
            "out::<{}>({idx}) on a read-only access of {}",
            T::ELEM,
            region.name()
        );
        assert_eq!(
            access.elem,
            T::ELEM,
            "out::<{}>({idx}) on an access declared as {}",
            T::ELEM,
            access.elem
        );
        region.write().as_elems_mut::<T>().copy_from_slice(values);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_attaches_the_memo_spec() {
        let info = TaskTypeBuilder::new("bs_thread", |_ctx| {})
            .memo(MemoSpec::approximate().tau(0.2).training_window(100))
            .build();
        assert_eq!(info.name, "bs_thread");
        assert!(info.memoizable());
        let spec = info.memo.as_ref().unwrap();
        assert_eq!(spec.training_window_len(), 100);
        assert!((spec.tau_max() - 0.2).abs() < 1e-12);
        assert!(
            info.signature.is_none(),
            "no parameters declared, no signature enforced"
        );
    }

    #[test]
    fn memoizable_without_a_spec_gets_the_default_policy() {
        let info = TaskTypeBuilder::new("t", |_| {}).memoizable().build();
        assert_eq!(info.memo, Some(MemoSpec::default()));
        let plain = TaskTypeBuilder::new("t", |_| {}).build();
        assert!(plain.memo.is_none());
        assert!(!plain.memoizable());
    }

    #[test]
    fn build_validates_the_spec_against_the_signature() {
        let result = TaskTypeBuilder::new("t", |_| {})
            .arg::<f64>()
            .out::<f64>()
            .memo(MemoSpec::approximate().arg_exact(1))
            .try_build();
        assert_eq!(result.unwrap_err(), MemoSpecError::ArgNotRead { index: 1 });
        // A valid override builds fine.
        let info = TaskTypeBuilder::new("t", |_| {})
            .arg::<f64>()
            .out::<f64>()
            .memo(MemoSpec::approximate().arg_exact(0))
            .build();
        assert!(info.memoizable());
    }

    #[test]
    #[should_panic(expected = "invalid memoization spec")]
    fn build_panics_on_an_invalid_spec() {
        let _ = TaskTypeBuilder::new("t", |_| {})
            .memo(MemoSpec::approximate().training_window(0))
            .build();
    }

    #[test]
    fn builder_collects_the_declared_signature() {
        let info = TaskTypeBuilder::new("reduce", |_ctx| {})
            .inout::<f32>()
            .variadic_args::<f32>(1)
            .build();
        let signature = info.signature.unwrap();
        assert_eq!(
            signature.fixed,
            vec![SigParam {
                mode: AccessMode::InOut,
                elem: ElemType::F32
            }]
        );
        assert_eq!(
            signature.variadic,
            Some(VariadicSig {
                mode: Some(AccessMode::In),
                elem: ElemType::F32,
                min: 1
            })
        );
        assert_eq!(signature.min_arity(), 2);
        assert_eq!(signature.max_arity(), None);
    }

    #[test]
    fn fixed_signature_reports_exact_arity() {
        let info = TaskTypeBuilder::new("t", |_| {})
            .arg::<f64>()
            .out::<f64>()
            .build();
        let signature = info.signature.unwrap();
        assert_eq!(signature.min_arity(), 2);
        assert_eq!(signature.max_arity(), Some(2));
    }

    #[test]
    #[should_panic(expected = "variadic tail")]
    fn fixed_after_variadic_panics() {
        let _ = TaskTypeBuilder::new("t", |_| {})
            .variadic::<f32>(0)
            .arg::<f32>();
    }

    #[test]
    fn task_id_packs_shard_slot_and_generation() {
        let id = TaskId::pack(13, 0xDEAD_BEEF, 0x00AB_CDEF);
        assert_eq!(id.shard(), 13);
        assert_eq!(id.slot(), 0xDEAD_BEEF);
        assert_eq!(id.generation(), 0x00AB_CDEF);
        assert_eq!(TaskId::from_raw(id.raw()), id);
        // The fields are disjoint: bumping the generation of the same slot
        // yields a different id (this is what defeats ABA on slot reuse).
        let stale = TaskId::pack(13, 0xDEAD_BEEF, 0x00AB_CDEE);
        assert_ne!(stale, id);
        assert_eq!(stale.shard(), id.shard());
        assert_eq!(stale.slot(), id.slot());
        // Generations wrap within their 28-bit field instead of bleeding
        // into the slot bits.
        let wrapped = (TaskId::GEN_MASK + 1) & TaskId::GEN_MASK;
        assert_eq!(wrapped, 0);
        let max_gen = TaskId::pack(0, 7, TaskId::GEN_MASK);
        assert_eq!(max_gen.generation(), TaskId::GEN_MASK);
        assert_eq!(max_gen.slot(), 7);
    }

    #[test]
    fn task_view_merges_instance_and_type_memoization() {
        let plain = TaskTypeBuilder::new("plain", |_| {}).build();
        let view = TaskView {
            id: TaskId(0),
            type_id: TaskTypeId(0),
            info: &plain,
            accesses: &[],
            regions: &[],
        };
        assert!(!view.memoizable());

        // The type-level declaration is the only one there is.
        let typed = TaskTypeBuilder::new("typed", |_| {})
            .memo(MemoSpec::exact())
            .build();
        let type_only = TaskView {
            info: &typed,
            ..view
        };
        assert!(type_only.memoizable());
        assert_eq!(type_only.info.memo, Some(MemoSpec::exact()));
    }

    #[test]
    fn context_whole_region_access_covers_everything() {
        let store = DataStore::new();
        let region = store.register_typed("v", vec![1.0f64, 2.0]).unwrap();
        let accesses = vec![Access::read_write(&region)];
        let ctx = TaskContext::new(&store, &accesses);
        assert_eq!(ctx.arg::<f64>(0), vec![1.0, 2.0]);
        ctx.out(0, &[3.0f64, 4.0]);
        assert_eq!(store.read(region).lock().as_f64(), &[3.0, 4.0]);
    }

    #[test]
    fn a_resolved_context_never_goes_back_to_the_store() {
        let store = DataStore::new();
        let region = store.register_typed("v", vec![1.0f64, 2.0]).unwrap();
        let accesses = vec![Access::read_write(&region)];
        let regions = store.resolve(&accesses);
        // With the id retired, only the handles can still reach the buffer.
        store.deregister(region).unwrap();
        let ctx = TaskContext::resolved(&store, &accesses, &regions);
        assert_eq!(ctx.arg::<f64>(0), vec![1.0, 2.0]);
        ctx.out(0, &[3.0f64, 4.0]);
        assert_eq!(regions[0].read().as_f64(), &[3.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "read-only access")]
    fn writing_through_input_access_panics() {
        let store = DataStore::new();
        let region = store.register_typed("v", vec![1.0f32]).unwrap();
        let accesses = vec![Access::read(&region)];
        let ctx = TaskContext::new(&store, &accesses);
        ctx.out(0, &[2.0f32]);
    }

    #[test]
    #[should_panic(expected = "write-only access")]
    fn reading_through_output_access_panics() {
        let store = DataStore::new();
        let region = store.register_typed("v", vec![1.0f32]).unwrap();
        let accesses = vec![Access::write(&region)];
        let ctx = TaskContext::new(&store, &accesses);
        let _ = ctx.arg::<f32>(0);
    }

    #[test]
    #[should_panic(expected = "declared as f32")]
    fn typed_accessor_checks_the_declared_width() {
        let store = DataStore::new();
        let region = store.register_typed("v", vec![1.0f32]).unwrap();
        let accesses = vec![Access::read(&region)];
        let ctx = TaskContext::new(&store, &accesses);
        let _ = ctx.arg::<f64>(0);
    }

    #[test]
    fn task_desc_splits_reads_and_writes() {
        let store = DataStore::new();
        let a = store.register_zeros::<f32>("a", 1).unwrap();
        let b = store.register_zeros::<f32>("b", 1).unwrap();
        let c = store.register_zeros::<f32>("c", 1).unwrap();
        let desc = TaskDesc::new(
            TaskTypeId(0),
            vec![Access::read(&a), Access::read_write(&b), Access::write(&c)],
        );
        let reads = desc.accesses.iter().filter(|a| a.mode.is_read()).count();
        assert_eq!(reads, 2);
    }
}
