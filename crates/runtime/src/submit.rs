//! Validated task submission: the fluent [`TaskBuilder`] and the
//! [`SubmitError`] taxonomy.
//!
//! The untyped API accepted any `TaskDesc` and let mismatches between the
//! declared accesses and the task type's expectations surface as panics deep
//! inside a worker thread (or worse, as silently wrong hash keys or copy
//! widths inside the ATM engine). The fluent builder returned by
//! [`crate::Runtime::task`] keeps submissions well-formed *by construction*
//! — accesses are declared through typed [`Region<T>`] handles
//! (`reads` / `writes` / `reads_writes`, the only way to declare one), and
//! each names its whole region, so there is no sub-range to get wrong — and
//! [`crate::Runtime::try_submit_all`] validates every descriptor against the
//! task type's declared [`TaskSignature`] and against the store before the
//! task enters the dependence graph:
//!
//! * the task type must be registered ([`SubmitError::UnknownTaskType`]);
//! * every region must exist in this runtime's store
//!   ([`SubmitError::UnknownRegion`]);
//! * every access's derived element type must match what the store actually
//!   holds ([`SubmitError::RegionTypeMismatch`] — catches handles smuggled
//!   in from another runtime's store);
//! * when the type declared a signature: the number of accesses must fit it
//!   ([`SubmitError::ArityMismatch`]), and each position must match the
//!   declared direction ([`SubmitError::ModeMismatch`]) and element type
//!   ([`SubmitError::TypeMismatch`]).
//!
//! Validation is also resolution: the pass that checks every access against
//! the store — one registry read lock per batch, under the submission
//! permit — keeps each region's [`crate::RegionRef`] in the descriptor, as
//! the type check keeps the resolved task type. From there on the task
//! reaches its regions through those handles alone.

use crate::access::{Access, AccessMode};
use crate::region::{DataStore, Elem, ElemType, Region, RegionId, RegionStatus};
use crate::scheduler::Runtime;
use crate::task::{TaskDesc, TaskId, TaskSignature, TaskTypeId};

/// Why a task submission was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The task type was never registered with this runtime.
    UnknownTaskType {
        /// The offending task type id.
        task_type: TaskTypeId,
    },
    /// An access names a region this runtime's store does not know.
    UnknownRegion {
        /// Position of the offending access.
        index: usize,
        /// The offending region id.
        region: RegionId,
    },
    /// An access names a region that was deregistered (e.g. a request
    /// arriving after its session closed). Distinguished from
    /// [`SubmitError::UnknownRegion`] so serving tiers can report a dead
    /// session instead of a malformed request.
    RegionRetired {
        /// Position of the offending access.
        index: usize,
        /// The offending region id.
        region: RegionId,
    },
    /// The runtime's live-task admission window is full
    /// (see [`crate::RuntimeBuilder::max_live_tasks`]). Nothing was
    /// submitted; the caller should back off and retry once in-flight work
    /// drains — the runtime never queues beyond the window.
    Overloaded {
        /// Live (submitted but unfinished) tasks at rejection time.
        live: u64,
        /// The configured window.
        capacity: u64,
    },
    /// An access's declared element type disagrees with what the store
    /// holds for that region (e.g. a handle forged from a raw id, or taken
    /// from a different runtime's store).
    RegionTypeMismatch {
        /// Position of the offending access.
        index: usize,
        /// The element type the access declared.
        declared: ElemType,
        /// The element type the store actually holds.
        stored: ElemType,
    },
    /// The number of accesses does not fit the task type's signature.
    ArityMismatch {
        /// Smallest accepted number of accesses.
        min: usize,
        /// Largest accepted number of accesses (`None` = unbounded).
        max: Option<usize>,
        /// The number of accesses the submission declared.
        got: usize,
    },
    /// An access's direction disagrees with the signature at its position.
    ModeMismatch {
        /// Position of the offending access.
        index: usize,
        /// The direction the signature declares.
        expected: AccessMode,
        /// The direction the submission declared.
        got: AccessMode,
    },
    /// An access's element type disagrees with the signature at its position.
    TypeMismatch {
        /// Position of the offending access.
        index: usize,
        /// The element type the signature declares.
        expected: ElemType,
        /// The element type the submission declared.
        got: ElemType,
    },
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::UnknownTaskType { task_type } => {
                write!(f, "task type {task_type:?} was not registered with this runtime")
            }
            SubmitError::UnknownRegion { index, region } => {
                write!(f, "access #{index} names {region:?}, which this store does not know")
            }
            SubmitError::RegionRetired { index, region } => {
                write!(f, "access #{index} names {region:?}, which was deregistered")
            }
            SubmitError::Overloaded { live, capacity } => write!(
                f,
                "the live-task window is full ({live} of {capacity}); retry after in-flight work drains"
            ),
            SubmitError::RegionTypeMismatch { index, declared, stored } => write!(
                f,
                "access #{index} is declared as {declared} but the region holds {stored}"
            ),
            SubmitError::ArityMismatch { min, max, got } => match max {
                Some(max) if max == min => {
                    write!(f, "the task type expects {min} accesses, the submission has {got}")
                }
                Some(max) => write!(
                    f,
                    "the task type expects between {min} and {max} accesses, the submission has {got}"
                ),
                None => write!(
                    f,
                    "the task type expects at least {min} accesses, the submission has {got}"
                ),
            },
            SubmitError::ModeMismatch { index, expected, got } => write!(
                f,
                "access #{index} is declared `{got}` but the task type's signature expects `{expected}`"
            ),
            SubmitError::TypeMismatch { index, expected, got } => write!(
                f,
                "access #{index} has element type {got} but the task type's signature expects {expected}"
            ),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Validates a descriptor's accesses against a declared signature.
pub(crate) fn check_signature(
    signature: &TaskSignature,
    accesses: &[Access],
) -> Result<(), SubmitError> {
    let min = signature.min_arity();
    let max = signature.max_arity();
    if accesses.len() < min || max.is_some_and(|max| accesses.len() > max) {
        return Err(SubmitError::ArityMismatch {
            min,
            max,
            got: accesses.len(),
        });
    }
    for (index, access) in accesses.iter().enumerate() {
        let (expected_mode, expected_elem) = match signature.fixed.get(index) {
            Some(param) => (Some(param.mode), param.elem),
            None => {
                let tail = signature
                    .variadic
                    .expect("arity check guarantees extra accesses imply a variadic tail");
                (tail.mode, tail.elem)
            }
        };
        if let Some(expected) = expected_mode {
            if access.mode != expected {
                return Err(SubmitError::ModeMismatch {
                    index,
                    expected,
                    got: access.mode,
                });
            }
        }
        if access.elem != expected_elem {
            return Err(SubmitError::TypeMismatch {
                index,
                expected: expected_elem,
                got: access.elem,
            });
        }
    }
    Ok(())
}

/// Validates every access of a batch against the store and resolves it: the
/// region must exist (and not have been deregistered) and hold the element
/// type the access declares. Each descriptor keeps its regions' handles, so
/// the worker that runs it never reads the registry.
///
/// One registry lock for the whole batch, descriptors checked in staging
/// order (the first offending one's error is returned); the shape cached on
/// each handle keeps this off every region's data lock.
pub(crate) fn resolve_regions(
    store: &DataStore,
    descs: &mut [TaskDesc],
) -> Result<(), SubmitError> {
    let resolver = store.resolver();
    for desc in descs {
        let mut regions = Vec::with_capacity(desc.accesses.len());
        for (index, access) in desc.accesses.iter().enumerate() {
            let region = resolver.get(access.region).map_err(|status| match status {
                RegionStatus::Retired => SubmitError::RegionRetired {
                    index,
                    region: access.region,
                },
                _ => SubmitError::UnknownRegion {
                    index,
                    region: access.region,
                },
            })?;
            if region.elem_type() != access.elem {
                return Err(SubmitError::RegionTypeMismatch {
                    index,
                    declared: access.elem,
                    stored: region.elem_type(),
                });
            }
            regions.push(region);
        }
        desc.regions = regions;
    }
    Ok(())
}

/// Fluent, validating builder for one task submission, obtained from
/// [`Runtime::task`]. The task is submitted as a batch of one.
///
/// ```
/// use atm_runtime::prelude::*;
///
/// let rt = RuntimeBuilder::new().build();
/// let x = rt.store().register_typed("x", vec![1.0f64, 2.0]).unwrap();
/// let y = rt.store().register_zeros::<f64>("y", 2).unwrap();
/// let double = rt.register_task_type(
///     TaskTypeBuilder::new("double", |ctx| {
///         let x = ctx.arg::<f64>(0);
///         let y: Vec<f64> = x.iter().map(|v| 2.0 * v).collect();
///         ctx.out(1, &y);
///     })
///     .arg::<f64>()
///     .out::<f64>()
///     .build(),
/// );
/// let id = rt.task(double).reads(&x).writes(&y).submit().unwrap();
/// rt.taskwait();
/// println!("finished {id}");
/// assert_eq!(rt.store().read(y).lock().as_f64(), &[2.0, 4.0]);
/// ```
#[must_use = "a task builder does nothing until `submit()` is called"]
pub struct TaskBuilder<'rt> {
    runtime: &'rt Runtime,
    desc: TaskDesc,
}

impl<'rt> TaskBuilder<'rt> {
    pub(crate) fn new(runtime: &'rt Runtime, task_type: TaskTypeId) -> Self {
        TaskBuilder {
            runtime,
            desc: TaskDesc::new(task_type, Vec::new()),
        }
    }

    /// Declares the next access as a whole-region read (`in` clause).
    pub fn reads<T: Elem>(mut self, region: &Region<T>) -> Self {
        self.desc.accesses.push(Access::read(region));
        self
    }

    /// Declares the next access as a whole-region write (`out` clause).
    pub fn writes<T: Elem>(mut self, region: &Region<T>) -> Self {
        self.desc.accesses.push(Access::write(region));
        self
    }

    /// Declares the next access as a whole-region read-write (`inout`
    /// clause).
    pub fn reads_writes<T: Elem>(mut self, region: &Region<T>) -> Self {
        self.desc.accesses.push(Access::read_write(region));
        self
    }

    /// Validates the accumulated descriptor and submits it.
    pub fn submit(self) -> Result<TaskId, SubmitError> {
        self.runtime.try_submit(self.desc)
    }
}

/// Fluent, validating builder for a **batch** of task submissions, obtained
/// from [`Runtime::batch`] (heterogeneous types) or
/// [`crate::Runtime::tasks`] (one pinned type).
///
/// Each staged task is opened with [`BatchBuilder::task`] (or
/// [`BatchBuilder::next`] when the batch was pinned to a type) and described
/// with the same access vocabulary as the single-task [`TaskBuilder`].
/// [`BatchBuilder::submit_all`] validates every staged descriptor — nothing
/// is submitted on error — and hands the batch to the dependence graph in
/// one pass: each touched region shard's lock and each touched slab shard's
/// write lock are taken **once per batch**, which is what removes the
/// per-task locking cost from the master thread's creation path (the
/// paper's Figure-8 bottleneck).
///
/// ```
/// use atm_runtime::prelude::*;
///
/// let rt = RuntimeBuilder::new().build();
/// let cell = rt.store().register_zeros::<f64>("cell", 1).unwrap();
/// let incr = rt.register_task_type(
///     TaskTypeBuilder::new("incr", |ctx| {
///         let v = ctx.arg::<f64>(0)[0];
///         ctx.out(0, &[v + 1.0]);
///     })
///     .inout::<f64>()
///     .build(),
/// );
/// let mut batch = rt.tasks(incr);
/// for _ in 0..3 {
///     batch = batch.next().reads_writes(&cell);
/// }
/// let ids = batch.submit_all().unwrap();
/// assert_eq!(ids.len(), 3);
/// rt.taskwait();
/// assert_eq!(rt.store().read(cell).lock().as_f64(), &[3.0]);
/// ```
#[must_use = "a batch builder does nothing until `submit_all()` is called"]
pub struct BatchBuilder<'rt> {
    runtime: &'rt Runtime,
    default_type: Option<TaskTypeId>,
    staged: Vec<TaskDesc>,
    current: Option<TaskDesc>,
}

impl<'rt> BatchBuilder<'rt> {
    pub(crate) fn new(runtime: &'rt Runtime, default_type: Option<TaskTypeId>) -> Self {
        BatchBuilder {
            runtime,
            default_type,
            staged: Vec::new(),
            current: None,
        }
    }

    fn seal_current(&mut self) {
        if let Some(desc) = self.current.take() {
            self.staged.push(desc);
        }
    }

    fn current_mut(&mut self) -> &mut TaskDesc {
        self.current
            .as_mut()
            .expect("open a task with `task(tt)` (or `next()`) before declaring accesses")
    }

    /// Opens the next staged task as an instance of `task_type`; the
    /// previously open task (if any) is sealed as staged.
    pub fn task(mut self, task_type: TaskTypeId) -> Self {
        self.seal_current();
        self.current = Some(TaskDesc::new(task_type, Vec::new()));
        self
    }

    /// Opens the next staged task as an instance of the batch's pinned type
    /// (see [`crate::Runtime::tasks`]).
    ///
    /// # Panics
    /// Panics when the batch was created with [`Runtime::batch`] and no
    /// type was pinned; use [`BatchBuilder::task`] there instead.
    pub fn next(self) -> Self {
        let task_type = self
            .default_type
            .expect("`next()` needs the pinned task type of `Runtime::tasks`; use `task(tt)`");
        self.task(task_type)
    }

    /// Declares the next access of the open task as a whole-region read
    /// (`in` clause).
    pub fn reads<T: Elem>(mut self, region: &Region<T>) -> Self {
        self.current_mut().accesses.push(Access::read(region));
        self
    }

    /// Declares the next access of the open task as a whole-region write
    /// (`out` clause).
    pub fn writes<T: Elem>(mut self, region: &Region<T>) -> Self {
        self.current_mut().accesses.push(Access::write(region));
        self
    }

    /// Declares the next access of the open task as a whole-region
    /// read-write (`inout` clause).
    pub fn reads_writes<T: Elem>(mut self, region: &Region<T>) -> Self {
        self.current_mut().accesses.push(Access::read_write(region));
        self
    }

    /// Number of tasks staged so far (including the open one).
    pub fn len(&self) -> usize {
        self.staged.len() + usize::from(self.current.is_some())
    }

    /// True when nothing has been staged.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Validates all staged descriptors and submits them as one batch,
    /// returning their ids in staging order. On error nothing was
    /// submitted. An empty batch is a no-op returning no ids.
    pub fn submit_all(mut self) -> Result<Vec<TaskId>, SubmitError> {
        self.seal_current();
        self.runtime.try_submit_all(self.staged)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The full submit-validation behaviour is covered by the runtime-level
    // tests in `scheduler.rs` and the integration suite; these unit tests
    // exercise the pure checking helpers directly.
    use crate::task::{SigParam, VariadicSig};

    fn store_with_f32(n: usize) -> (DataStore, Vec<Region<f32>>) {
        let store = DataStore::new();
        let regions = (0..n)
            .map(|i| store.register_zeros::<f32>(format!("r{i}"), 4).unwrap())
            .collect();
        (store, regions)
    }

    fn fixed_sig(params: &[(AccessMode, ElemType)]) -> TaskSignature {
        TaskSignature {
            fixed: params
                .iter()
                .map(|&(mode, elem)| SigParam { mode, elem })
                .collect(),
            variadic: None,
        }
    }

    #[test]
    fn signature_accepts_matching_accesses() {
        let (_store, r) = store_with_f32(2);
        let sig = fixed_sig(&[
            (AccessMode::In, ElemType::F32),
            (AccessMode::Out, ElemType::F32),
        ]);
        let accesses = vec![Access::read(&r[0]), Access::write(&r[1])];
        assert_eq!(check_signature(&sig, &accesses), Ok(()));
    }

    #[test]
    fn signature_rejects_wrong_arity() {
        let (_store, r) = store_with_f32(1);
        let sig = fixed_sig(&[
            (AccessMode::In, ElemType::F32),
            (AccessMode::Out, ElemType::F32),
        ]);
        let err = check_signature(&sig, &[Access::read(&r[0])]).unwrap_err();
        assert_eq!(
            err,
            SubmitError::ArityMismatch {
                min: 2,
                max: Some(2),
                got: 1
            }
        );
    }

    #[test]
    fn signature_rejects_wrong_mode_and_type() {
        let (store, r) = store_with_f32(2);
        let sig = fixed_sig(&[
            (AccessMode::In, ElemType::F32),
            (AccessMode::Out, ElemType::F32),
        ]);
        let err = check_signature(&sig, &[Access::write(&r[0]), Access::write(&r[1])]).unwrap_err();
        assert_eq!(
            err,
            SubmitError::ModeMismatch {
                index: 0,
                expected: AccessMode::In,
                got: AccessMode::Out
            }
        );

        let doubles = store.register_zeros::<f64>("d", 4).unwrap();
        let err =
            check_signature(&sig, &[Access::read(&r[0]), Access::write(&doubles)]).unwrap_err();
        assert_eq!(
            err,
            SubmitError::TypeMismatch {
                index: 1,
                expected: ElemType::F32,
                got: ElemType::F64
            }
        );
    }

    #[test]
    fn variadic_tail_validates_count_mode_and_type() {
        let (_store, r) = store_with_f32(4);
        let sig = TaskSignature {
            fixed: vec![SigParam {
                mode: AccessMode::InOut,
                elem: ElemType::F32,
            }],
            variadic: Some(VariadicSig {
                mode: Some(AccessMode::In),
                elem: ElemType::F32,
                min: 2,
            }),
        };
        let ok = vec![
            Access::read_write(&r[0]),
            Access::read(&r[1]),
            Access::read(&r[2]),
        ];
        assert_eq!(check_signature(&sig, &ok), Ok(()));

        let too_few = vec![Access::read_write(&r[0]), Access::read(&r[1])];
        assert_eq!(
            check_signature(&sig, &too_few),
            Err(SubmitError::ArityMismatch {
                min: 3,
                max: None,
                got: 2
            })
        );

        let wrong_tail_mode = vec![
            Access::read_write(&r[0]),
            Access::read(&r[1]),
            Access::write(&r[2]),
        ];
        assert_eq!(
            check_signature(&sig, &wrong_tail_mode),
            Err(SubmitError::ModeMismatch {
                index: 2,
                expected: AccessMode::In,
                got: AccessMode::Out
            })
        );
    }

    #[test]
    fn store_check_rejects_unknown_and_mistyped_regions() {
        let (store, r) = store_with_f32(2);
        let check = |accesses: Vec<Access>| {
            let mut descs = [TaskDesc::new(TaskTypeId::from_raw(0), accesses)];
            resolve_regions(&store, &mut descs).map(|()| descs)
        };
        // A valid descriptor leaves with one handle per access, in order.
        let [resolved] = check(vec![Access::read(&r[1]), Access::write(&r[0])]).unwrap();
        let names: Vec<&str> = resolved.regions.iter().map(|h| h.name()).collect();
        assert_eq!(names, ["r1", "r0"]);

        // A handle from a different store: index 3 does not exist here.
        let other = DataStore::new();
        for i in 0..4 {
            other.register_zeros::<f32>(format!("o{i}"), 1).unwrap();
        }
        let foreign = other.register_zeros::<f32>("o4", 1).unwrap();
        assert_eq!(
            check(vec![Access::read(&r[0]), Access::read(&foreign)]).unwrap_err(),
            SubmitError::UnknownRegion {
                index: 1,
                region: foreign.id()
            }
        );

        // A handle whose slot exists in this store but holds another type
        // (forged through the crate-private constructor; user code cannot
        // build one, which is the point of the check).
        let mistyped = Region::<f64>::new(r[0].id());
        assert_eq!(
            check(vec![Access::read(&mistyped)]).unwrap_err(),
            SubmitError::RegionTypeMismatch {
                index: 0,
                declared: ElemType::F64,
                stored: ElemType::F32
            }
        );

        // A deregistered region is reported as retired, not unknown.
        store.deregister(r[1]).unwrap();
        assert_eq!(
            check(vec![Access::read(&r[1])]).unwrap_err(),
            SubmitError::RegionRetired {
                index: 0,
                region: r[1].id()
            }
        );
    }

    #[test]
    fn submit_errors_render_readable_messages() {
        let messages = [
            SubmitError::UnknownTaskType {
                task_type: TaskTypeId::from_raw(3),
            }
            .to_string(),
            SubmitError::UnknownRegion {
                index: 1,
                region: RegionId::from_raw(9),
            }
            .to_string(),
            SubmitError::RegionTypeMismatch {
                index: 0,
                declared: ElemType::F32,
                stored: ElemType::F64,
            }
            .to_string(),
            SubmitError::ArityMismatch {
                min: 2,
                max: Some(2),
                got: 3,
            }
            .to_string(),
            SubmitError::ArityMismatch {
                min: 1,
                max: Some(4),
                got: 5,
            }
            .to_string(),
            SubmitError::ArityMismatch {
                min: 2,
                max: None,
                got: 0,
            }
            .to_string(),
            SubmitError::ModeMismatch {
                index: 0,
                expected: AccessMode::In,
                got: AccessMode::Out,
            }
            .to_string(),
            SubmitError::TypeMismatch {
                index: 2,
                expected: ElemType::I32,
                got: ElemType::U8,
            }
            .to_string(),
        ];
        for message in messages {
            assert!(!message.is_empty());
        }
    }
}
