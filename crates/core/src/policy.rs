//! Per-task-type memoization policy: what `p`, train or not, keyed or gated,
//! retained or not.
//!
//! The engine ([`crate::engine`]) is mechanism — key → probe → IKT →
//! copy-out → snapshot → insert. Everything that *decides* lives here, one
//! [`TypePolicy`] per task type, a state machine with no runtime, data
//! store or memo store in it:
//!
//! * **Mode resolution.** [`TypePolicy::resolve`] turns the engine-wide
//!   [`AtmMode`] and the type's [`MemoSpec`] into one of two kinds. A
//!   *pinned* policy (`AtmMode::{Static, FixedP}`, `MemoSpec::{exact,
//!   fixed_precision}`) keys every task at a constant `p`: it has no
//!   controller, and its ledger prices only what its misses retain. An
//!   *adaptive* policy (`AtmMode::Dynamic` × `MemoSpec::approximate`) owns
//!   the [`TrainingController`], its output black-list and a ledger that
//!   prices keying itself.
//! * **The ledger** compares, per opening, what memoizing the type has
//!   *spent* with what it has *earned* (the kernel ns of every steady-state
//!   hit and IKT deferral) plus an *allowance* (ε of the kernel ns of the
//!   executions it keyed, and a grant of G mean kernel executions so that a
//!   one-off investment — a training window, a first sweep that fills the
//!   region digests — fits). It reads the type's one [`TypeCounters`] block
//!   and keeps no counts of its own. When `spent > earned + allowance`, and
//!   the opening has keyed at least G tasks (one slow key is not a verdict),
//!   the type **closes** for a back-off number of tasks; the back-off doubles
//!   per consecutive closure and a profitable stretch resets it. Then the
//!   type re-opens on a smaller grant. "Closed" means one of two things:
//!   - an *adaptive* type's closed tasks are **gated**: they execute without
//!     key, probe, IKT, ticket, snapshot or insert. Its spent is the ns of
//!     hashing, probing, capture/copy-out and training comparisons, and it
//!     re-opens with controller state, `p` and black-list as they were.
//!     Training is thereby bounded by what it costs, not by a count: cheap
//!     training is never cut, dear training that buys nothing is.
//!   - a *pinned* type's closed tasks are keyed and probe the store as
//!     always — a hit is served from an entry retained earlier — but a miss
//!     is **not retained**: it executes without output snapshot or insert
//!     (it still registers in the IKT, and snapshots only for a waiter). Its
//!     spent is the store charge of the entries it retained times a price
//!     per byte (`RETAIN_PS_PER_BYTE`, ½ ns). Keying a pinned type is the
//!     programmer's decision; keeping what it never reuses is not.
//! * **The policy word.** `(open | closed-remaining, training, black-list,
//!   p)` is published as one atomic word, so the task path reads the policy
//!   with one load and a closed type's task costs one load and one
//!   decrement. All structural transitions (close, re-open, a controller
//!   step — `p` only doubles, so the word's ladder step only rises) are
//!   serialised by the policy's mutex; the run-down of a closure is
//!   lock-free (CONCURRENCY.md protocol 8, `tests/model/policy_word.rs`).
//!
//! **Bounded regret.** An opening loses at most the larger of its
//! allowance — ε of the kernel time it keyed plus G kernels — and what G
//! keyed tasks cost; openings of a type that never pays are 256, 512, …
//! 65 536 tasks apart, so over N tasks such a type pays for
//! `64 + 16·log₂(N/256)` openings' worth, and a type that turns profitable
//! is noticed within one back-off.

use crate::config::AtmMode;
use crate::stats::AtmStatsSnapshot;
use crate::training::TrainingController;
use atm_hash::Percentage;
use atm_runtime::{Access, MemoPolicy, MemoSpec, RegionId};
use atm_sync::atomic::{AtomicU64, Ordering};
use atm_sync::Mutex;

/// ε: the share of the kernel time of keyed executions an opening may spend
/// without earning it back (`>> 4` = 1/16).
const EPSILON_SHIFT: u32 = 4;
/// G on a type's first opening, in mean kernel executions. It has to hold a
/// type's one-off investments: at 32, kmeans' first sweep — ≈ 110 µs a block,
/// once, to fill its 256 KiB points digest — tripped the gate and its reuse
/// fell from 82 % to 66 %.
const GRANT_FIRST: u64 = 64;
/// G on a re-probe: the digests are warm and the controller is where it
/// was, so a re-opening has less to invest.
const GRANT_REPROBE: u64 = 16;
/// Tasks a type stays closed after its first closure …
const BACKOFF_MIN: u64 = 256;
/// … doubling per consecutive closure up to this.
const BACKOFF_MAX: u64 = 65_536;
/// What a pinned type's ledger charges per byte of store charge its misses
/// retain, in picoseconds (½ ns/B). Retention is not paid where it happens:
/// the snapshot copy is cheap, but the allocator hands the kernel's
/// just-freed output buffer to the retained snapshot, so the *next*
/// kernel's allocation lands on fresh pages and takes their first-touch
/// faults. The cost shows in kernel time, not `copy_ns`. On a 2-core x86-64
/// box, static ATM retaining everything against retaining nothing (a 1-byte
/// store budget) on the benchmark's stencils (64 KiB outputs, 9 rounds a
/// side) costs 0.1–0.3 ns of kernel time per retained byte, and up to
/// 0.5 ns of worker wall time; the price sits at the top of that noisy
/// range. The verdicts do not hang on it: on the benchmark's apps the
/// stencils stay open at 0.2 ns/B and close from 0.25 ns/B, while
/// Blackscholes, kmeans, swaptions and Sparse LU stay open through 2 ns/B
/// (LU first closes at 3 ns/B).
const RETAIN_PS_PER_BYTE: u64 = 500;

/// Low bits of the policy word: closed tasks left in the current closure
/// (0 = open).
const CLOSED_MASK: u64 = 0xFFFF_FFFF;
const TRAINING_BIT: u64 = 1 << 32;
/// Some output region is black-listed: until then
/// [`TypePolicy::writes_unstable`] answers from the word alone.
const BLACKLIST_BIT: u64 = 1 << 33;
/// Step on the training ladder (`p = 2^(step − 15)`), adaptive types only:
/// the controller's `doublings()`, so it only ever rises.
const STEP_SHIFT: u32 = 40;

/// The engine's one always-on counter block, kept per task type (the
/// aggregate [`crate::AtmEngine::stats`] is the sum over the types). The
/// ledger reads it; nothing else counts these events. Aligned
/// to its own cache lines: every worker writes it on every task, and the
/// policy word beside it is read on every task.
#[repr(align(128))]
#[derive(Default)]
pub struct TypeCounters {
    /// Tasks of this type handled by the engine.
    pub seen: AtomicU64,
    /// Tasks bypassed with outputs copied from the THT.
    pub tht_bypassed: AtomicU64,
    /// Tasks deferred to an in-flight producer.
    pub ikt_deferred: AtomicU64,
    /// THT hits that were verified by execution during training.
    pub training_hits: AtomicU64,
    /// Tasks executed, gated ones included.
    pub executed: AtomicU64,
    /// Tasks executed unkeyed because the (adaptive) type was closed.
    pub gated: AtomicU64,
    /// Nanoseconds spent computing hash keys.
    pub hash_ns: AtomicU64,
    /// Nanoseconds spent probing the THT and the IKT.
    pub probe_ns: AtomicU64,
    /// Nanoseconds spent copying outputs (THT hits, IKT copy-outs, THT updates).
    pub copy_ns: AtomicU64,
    /// Nanoseconds spent comparing training hits with the executed outputs.
    pub compare_ns: AtomicU64,
    /// Kernel nanoseconds of the executions the engine keyed (and timed).
    pub kernel_ns: AtomicU64,
    /// Kernel nanoseconds avoided: the stored benefit of every steady-state
    /// THT hit and the producer's kernel time of every served IKT deferral.
    pub saved_ns: AtomicU64,
    /// Store charge (`atm_store::entry_charge_bytes`) of the entries the
    /// type's misses put in the store: a pinned type's ledger prices it. Not
    /// part of [`TypeCounters::snapshot`].
    pub retained_bytes: AtomicU64,
    /// Misses executed while a pinned type's retention was closed: no entry
    /// inserted, and no snapshot taken unless an IKT waiter needed one. Not
    /// part of [`TypeCounters::snapshot`]; [`crate::TypeSummary`] reports it.
    pub unretained: AtomicU64,
}

impl TypeCounters {
    /// Adds `value` to one counter of a block.
    pub fn add(counter: &AtomicU64, value: u64) {
        counter.fetch_add(value, Ordering::Relaxed);
    }

    /// Point-in-time copy of the counters the engine aggregates.
    pub fn snapshot(&self) -> AtmStatsSnapshot {
        let read = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
        AtmStatsSnapshot {
            seen: read(&self.seen),
            tht_bypassed: read(&self.tht_bypassed),
            ikt_deferred: read(&self.ikt_deferred),
            training_hits: read(&self.training_hits),
            executed: read(&self.executed),
            gated: read(&self.gated),
            hash_ns: read(&self.hash_ns),
            probe_ns: read(&self.probe_ns),
            copy_ns: read(&self.copy_ns),
            compare_ns: read(&self.compare_ns),
            kernel_ns: read(&self.kernel_ns),
            saved_ns: read(&self.saved_ns),
        }
    }
}

/// The ledger's view of a counter snapshot.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Totals {
    spent: u64,
    earned: u64,
    /// Kernel ns of keyed executions.
    kernel: u64,
    /// Tasks that were keyed.
    keyed: u64,
    /// Keyed tasks that executed: what `kernel` is the sum over.
    keyed_executions: u64,
}

impl Totals {
    /// The ledger's reading of a type's counters: a pinned type spends what
    /// its retained entries cost, an adaptive one what keying costs.
    fn of(counters: &TypeCounters, pinned: bool) -> Totals {
        let counts = counters.snapshot();
        let keyed = counts.seen.saturating_sub(counts.gated);
        let spent = if pinned {
            counters.retained_bytes.load(Ordering::Relaxed) * RETAIN_PS_PER_BYTE / 1_000
        } else {
            counts.hash_ns + counts.probe_ns + counts.copy_ns + counts.compare_ns
        };
        Totals {
            spent,
            earned: counts.saved_ns,
            kernel: counts.kernel_ns,
            keyed,
            keyed_executions: keyed.saturating_sub(counts.reused()),
        }
    }

    fn mean_kernel(&self) -> u64 {
        self.kernel / self.keyed_executions.max(1)
    }
}

/// The ledger of one type: the counter totals at the current opening and
/// the closure history. The running totals are the type's
/// [`TypeCounters`].
#[derive(Debug)]
struct Ledger {
    opened_at: Totals,
    /// Mean kernel executions granted to the current opening.
    grant: u64,
    consecutive_closures: u32,
    closures: u64,
}

/// What the policy's mutex guards.
struct State {
    ledger: Ledger,
    /// An adaptive type's training controller; `None` when pinned.
    controller: Option<TrainingController>,
}

/// A closure or re-opening of a type (for a pinned type: of its
/// retention), with the ledger reading behind it; the engine files it as a
/// `GateClose` / `GateReopen` decision record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GateEvent {
    /// True for a closure, false for a re-opening.
    pub closed: bool,
    /// Nanoseconds the opening spent on memoization (closure), or the type
    /// has spent in its lifetime (re-opening).
    pub spent_ns: u64,
    /// Kernel nanoseconds the same interval earned back.
    pub earned_ns: u64,
    /// The allowance the closure overran, or the grant the re-opening
    /// starts with.
    pub allowance_ns: u64,
    /// Tasks the closure lasts (closure only).
    pub backoff: u64,
}

/// How the next task of a type is to be handled, read from the policy word.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Admission {
    /// An adaptive type is closed: execute, and do nothing else.
    Gated,
    /// Key the task.
    Keyed(KeyPlan),
}

/// The policy one keyed task runs under.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KeyPlan {
    /// The selection percentage to sample the key at.
    pub p: Percentage,
    /// Training: a THT hit executes anyway and is compared.
    pub training: bool,
    /// A miss puts its outputs in the store; false while a pinned type's
    /// retention is closed.
    pub retain: bool,
}

/// The read side of a policy, for [`crate::TypeSummary`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PolicyStatus {
    /// The selection percentage in effect.
    pub p: Percentage,
    /// Not (or no longer) training.
    pub steady: bool,
    /// Output regions black-listed as unstable.
    pub unstable_outputs: usize,
    /// Times the ledger closed the type (a pinned type: its retention).
    pub gate_closures: u64,
    /// Whether the type is open right now: an adaptive type is keyed, a
    /// pinned type retains its misses.
    pub open: bool,
}

/// The memoization policy of one task type. See the module docs.
pub struct TypePolicy {
    /// The type's counter block: written by the engine, read by the ledger.
    pub counters: TypeCounters,
    word: AtomicU64,
    /// `Some(p)`: pinned, keyed at `p` for ever. `None`: adaptive, keyed at
    /// the ladder step the word carries.
    pinned: Option<Percentage>,
    state: Mutex<State>,
    /// The spec whose exact arguments the key honours; `None` when the
    /// engine mode overrode the spec wholesale (`Static` / `FixedP` sweeps
    /// hash every argument uniformly).
    overrides: Option<MemoSpec>,
    tau_max: f64,
}

impl TypePolicy {
    /// The policy of a type whose first instance reached an engine running
    /// in `mode` with effective spec `spec`: the engine-wide overrides and
    /// the pinned specs are keyed at a constant `p` and never gate,
    /// `Dynamic` × `approximate` adapts.
    pub fn resolve(mode: AtmMode, spec: MemoSpec) -> Self {
        match mode {
            AtmMode::Static => Self::new(Some(Percentage::FULL), None, None),
            AtmMode::FixedP(p) => Self::new(Some(Percentage::from_fraction(p)), None, None),
            AtmMode::Dynamic => match spec.policy() {
                MemoPolicy::Exact => Self::new(Some(Percentage::FULL), None, Some(spec)),
                MemoPolicy::FixedPrecision(p) => {
                    Self::new(Some(Percentage::from_fraction(p)), None, Some(spec))
                }
                MemoPolicy::Approximate => {
                    let controller =
                        TrainingController::new(spec.training_window_len(), spec.tau_max());
                    Self::new(None, Some(controller), Some(spec))
                }
            },
        }
    }

    /// Pinned at `pinned`, steady from the first task, or training its own
    /// `p` against the spec's `τ_max` with `controller`; open, either way.
    fn new(
        pinned: Option<Percentage>,
        controller: Option<TrainingController>,
        overrides: Option<MemoSpec>,
    ) -> Self {
        TypePolicy {
            counters: TypeCounters::default(),
            word: AtomicU64::new(controller.as_ref().map_or(0, word_of)),
            pinned,
            tau_max: controller
                .as_ref()
                .map_or(f64::INFINITY, TrainingController::tau_max),
            state: Mutex::new(State {
                ledger: Ledger {
                    opened_at: Totals::default(),
                    grant: GRANT_FIRST,
                    consecutive_closures: 0,
                    closures: 0,
                },
                controller,
            }),
            overrides,
        }
    }

    /// The τ_max training comparisons are judged against (∞ when pinned).
    pub fn tau_max(&self) -> f64 {
        self.tau_max
    }

    fn plan(&self, word: u64, retain: bool) -> KeyPlan {
        KeyPlan {
            p: self
                .pinned
                .unwrap_or_else(|| Percentage::from_training_step((word >> STEP_SHIFT) as usize)),
            training: word & TRAINING_BIT != 0,
            retain,
        }
    }

    fn totals(&self) -> Totals {
        Totals::of(&self.counters, self.pinned.is_some())
    }

    /// Decides how the next task of the type is handled: one load of the
    /// policy word when the type is open, one load and one decrement when
    /// it is closed. A closed adaptive type gates the task; a closed pinned
    /// type keys it but retains nothing. The closure's last task re-opens
    /// the type, and the re-opening comes back with it.
    pub fn admit(&self) -> (Admission, Option<GateEvent>) {
        let mut word = self.word.load(Ordering::Acquire);
        let reopened = loop {
            match word & CLOSED_MASK {
                0 => return (Admission::Keyed(self.plan(word, true)), None),
                1 => match self.reopen() {
                    Ok(event) => break Some(event),
                    // Another worker got there first (or re-opened and
                    // closed again): read the word it left.
                    Err(current) => word = current,
                },
                _ => match self.word.compare_exchange_weak(
                    word,
                    word - 1,
                    Ordering::AcqRel,
                    Ordering::Acquire,
                ) {
                    Ok(_) => break None,
                    Err(current) => word = current,
                },
            }
        };
        let admission = match self.pinned {
            Some(_) => Admission::Keyed(self.plan(word, false)),
            None => Admission::Gated,
        };
        (admission, reopened)
    }

    /// Takes the closure's last task: under the state lock, re-bases the
    /// ledger and only then publishes the open word, so no task is keyed
    /// (or retained) against the previous opening's books.
    fn reopen(&self) -> Result<GateEvent, u64> {
        let mut state = self.state.lock();
        let word = self.word.load(Ordering::Acquire);
        if word & CLOSED_MASK != 1 {
            return Err(word);
        }
        let now = self.totals();
        state.ledger.opened_at = now;
        state.ledger.grant = GRANT_REPROBE;
        // Every other writer of the word holds this lock; lock-free
        // decrements stop at 1.
        self.word.store(word & !CLOSED_MASK, Ordering::Release);
        Ok(GateEvent {
            closed: false,
            spent_ns: now.spent,
            earned_ns: now.earned,
            allowance_ns: GRANT_REPROBE * now.mean_kernel(),
            backoff: 0,
        })
    }

    /// Settles the ledger once a keyed task's costs and earnings are on the
    /// counters; returns the closure when the opening has overrun its
    /// allowance. `retained`: the task just put an entry in the store. Only
    /// that moves a pinned type's spent — a hit earns and spends nothing —
    /// so for a pinned type anything else returns at once, without the lock.
    pub fn settle(&self, retained: bool) -> Option<GateEvent> {
        if self.pinned.is_some() && !retained {
            return None;
        }
        let mut state = self.state.lock();
        let word = self.word.load(Ordering::Acquire);
        let now = self.totals();
        // Nothing to decide for a task keyed before a closure and settling
        // after it, nor before a first kernel has given the grant its unit.
        if word & CLOSED_MASK != 0 || now.keyed_executions == 0 {
            return None;
        }
        let ledger = &mut state.ledger;
        let spent = now.spent.saturating_sub(ledger.opened_at.spent);
        let earned = now.earned.saturating_sub(ledger.opened_at.earned);
        let kernel = now.kernel.saturating_sub(ledger.opened_at.kernel);
        let keyed = now.keyed.saturating_sub(ledger.opened_at.keyed);
        let allowance = (kernel >> EPSILON_SHIFT) + ledger.grant * now.mean_kernel();
        // An opening is judged once it has keyed as many tasks as its grant
        // counts kernels: one slow key — a page fault, the type's first
        // sampling plan — is not a verdict on the type.
        if keyed < ledger.grant {
            return None;
        }
        if spent <= earned.saturating_add(allowance) {
            if earned >= spent {
                // A profitable stretch: the next closure starts over.
                ledger.consecutive_closures = 0;
            }
            return None;
        }
        let backoff = (BACKOFF_MIN << ledger.consecutive_closures.min(16)).min(BACKOFF_MAX);
        ledger.consecutive_closures += 1;
        ledger.closures += 1;
        self.word.store(word | backoff, Ordering::Release);
        Some(GateEvent {
            closed: true,
            spent_ns: spent,
            earned_ns: earned,
            allowance_ns: allowance,
            backoff,
        })
    }

    /// Feeds one training comparison (observed error `tau`, the output
    /// regions that individually failed) to the controller and republishes
    /// `p`, phase and black-list. A comparison that arrives after training
    /// ended — its task was keyed while the type still trained — is dropped.
    pub fn record_comparison(&self, tau: f64, failing: &[RegionId]) {
        let mut state = self.state.lock();
        let controller = state
            .controller
            .as_mut()
            .expect("a pinned policy never trains");
        if controller.is_training() {
            controller.record_comparison(tau, failing);
        }
        // The closure run-down decrements concurrently: keep its bits.
        let published = word_of(controller);
        let mut word = self.word.load(Ordering::Acquire);
        while let Err(current) = self.word.compare_exchange_weak(
            word,
            published | (word & CLOSED_MASK),
            Ordering::AcqRel,
            Ordering::Acquire,
        ) {
            word = current;
        }
    }

    /// True when a task with these accesses writes a region black-listed
    /// during training: it is never memoized in the steady state (§III-D).
    /// Answered from the word alone until a region is black-listed, which
    /// only an adaptive type's training does.
    pub fn writes_unstable(&self, accesses: &[Access]) -> bool {
        if self.word.load(Ordering::Acquire) & BLACKLIST_BIT == 0 {
            return false;
        }
        let state = self.state.lock();
        let Some(controller) = &state.controller else {
            return false;
        };
        accesses
            .iter()
            .filter(|a| a.mode.is_write())
            .any(|a| controller.is_unstable(a.region))
    }

    /// One selection percentage per read access of `accesses`, in
    /// declaration order, written into the reused `out` vector: 100 % for an
    /// argument the spec declares exact (when the spec is honoured), the
    /// type-wide `p` otherwise.
    pub fn precisions_into(&self, accesses: &[Access], p: Percentage, out: &mut Vec<Percentage>) {
        out.clear();
        out.extend(
            accesses
                .iter()
                .enumerate()
                .filter(|(_, a)| a.mode.is_read())
                .map(|(index, _)| {
                    if self
                        .overrides
                        .as_ref()
                        .is_some_and(|spec| spec.is_arg_exact(index))
                    {
                        Percentage::FULL
                    } else {
                        p
                    }
                }),
        );
    }

    /// The policy's current state, for summaries and diagnostics.
    pub fn status(&self) -> PolicyStatus {
        let word = self.word.load(Ordering::Acquire);
        let plan = self.plan(word, true);
        let state = self.state.lock();
        PolicyStatus {
            p: plan.p,
            steady: !plan.training,
            unstable_outputs: state
                .controller
                .as_ref()
                .map_or(0, |c| c.unstable_outputs().len()),
            gate_closures: state.ledger.closures,
            open: word & CLOSED_MASK == 0,
        }
    }
}

/// The controller's share of the policy word: phase, black-list, ladder step.
fn word_of(controller: &TrainingController) -> u64 {
    let step = controller.doublings();
    debug_assert_eq!(Percentage::from_training_step(step), controller.current_p());
    let mut word = (step as u64) << STEP_SHIFT;
    if controller.is_training() {
        word |= TRAINING_BIT;
    }
    if !controller.unstable_outputs().is_empty() {
        word |= BLACKLIST_BIT;
    }
    word
}

#[cfg(test)]
mod tests {
    //! The policy as a table of traces: synthetic (cost, kernel, hit,
    //! retained bytes) streams fed through `admit` → counters → `settle`,
    //! the way the engine drives it, with no runtime, data store or memo
    //! store.

    use super::*;
    use atm_runtime::{AccessMode, ElemType};

    const US: u64 = 1_000;
    const KIB: u64 = 1_024;

    /// What one keyed task of a synthetic stream costs and yields.
    #[derive(Clone, Copy)]
    struct Shape {
        /// Hash + probe + copy ns the engine would spend on the task.
        cost_ns: u64,
        /// The task's kernel time.
        kernel_ns: u64,
        /// A steady-state hit (earns `kernel_ns`) instead of an execution.
        hit: bool,
        /// Store charge of the entry a retained miss inserts.
        out_bytes: u64,
    }

    /// The tally of one stream.
    #[derive(Default)]
    struct Tally {
        keyed: u64,
        gated: u64,
        /// Misses that inserted an entry.
        retained: u64,
        events: Vec<GateEvent>,
    }

    impl Tally {
        fn closures(&self) -> Vec<GateEvent> {
            self.events.iter().copied().filter(|e| e.closed).collect()
        }
    }

    /// Runs one task through the policy as the engine would.
    fn feed(policy: &TypePolicy, shape: Shape, tally: &mut Tally) {
        let counters = &policy.counters;
        TypeCounters::add(&counters.seen, 1);
        let (admission, reopened) = policy.admit();
        tally.events.extend(reopened);
        let Admission::Keyed(plan) = admission else {
            TypeCounters::add(&counters.gated, 1);
            TypeCounters::add(&counters.executed, 1);
            tally.gated += 1;
            return;
        };
        tally.keyed += 1;
        TypeCounters::add(&counters.hash_ns, shape.cost_ns);
        let retained = !shape.hit && plan.retain;
        if shape.hit {
            TypeCounters::add(&counters.tht_bypassed, 1);
            TypeCounters::add(&counters.saved_ns, shape.kernel_ns);
        } else {
            TypeCounters::add(&counters.executed, 1);
            TypeCounters::add(&counters.kernel_ns, shape.kernel_ns);
            if retained {
                TypeCounters::add(&counters.retained_bytes, shape.out_bytes);
                tally.retained += 1;
            } else {
                TypeCounters::add(&counters.unretained, 1);
            }
        }
        tally.events.extend(policy.settle(retained));
    }

    fn run(policy: &TypePolicy, tasks: u64, shape: impl Fn(u64) -> Shape) -> Tally {
        let mut tally = Tally::default();
        for i in 0..tasks {
            feed(policy, shape(i), &mut tally);
        }
        tally
    }

    fn adaptive() -> TypePolicy {
        TypePolicy::resolve(AtmMode::Dynamic, MemoSpec::approximate())
    }

    fn access(region: RegionId, mode: AccessMode) -> Access {
        Access {
            region,
            mode,
            elem: ElemType::F64,
        }
    }

    /// A stencil-shaped loser: a 30 µs key against a 100 µs kernel, never a
    /// hit.
    const LOSER: Shape = Shape {
        cost_ns: 30 * US,
        kernel_ns: 100 * US,
        hit: false,
        out_bytes: 66 * KIB,
    };

    #[test]
    fn a_type_that_never_hits_closes_soon_and_is_rarely_keyed() {
        let policy = adaptive();
        let tally = run(&policy, 100_000, |_| LOSER);
        let closures = tally.closures();
        // First closure: the grant of 64 kernels burns at (30 − 100/16) µs a
        // task, ≈ 270 tasks in.
        let first_closed_after = tally
            .events
            .first()
            .map(|e| (e.closed, e.spent_ns / LOSER.cost_ns));
        assert!(
            matches!(first_closed_after, Some((true, 200..=400))),
            "{first_closed_after:?}"
        );
        assert!(
            tally.keyed * 20 <= 100_000,
            "keyed {} of 100 000",
            tally.keyed
        );
        assert_eq!(tally.keyed + tally.gated, 100_000);
        // Every closure overran its allowance, and the back-off doubles.
        for (n, closure) in closures.iter().enumerate() {
            assert!(closure.spent_ns > closure.earned_ns + closure.allowance_ns);
            assert_eq!(closure.backoff, (BACKOFF_MIN << n).min(BACKOFF_MAX));
        }
        // Each closure is re-opened exactly once, in order.
        for pair in tally.events.chunks(2) {
            assert!(pair[0].closed && pair.get(1).is_none_or(|e| !e.closed));
        }
        let status = policy.status();
        assert_eq!(status.gate_closures, closures.len() as u64);
        assert!(closures.len() >= 8, "{} closures", closures.len());
    }

    #[test]
    fn the_back_off_is_capped() {
        let policy = adaptive();
        let tally = run(&policy, 600_000, |_| LOSER);
        let longest = tally.closures().iter().map(|c| c.backoff).max();
        assert_eq!(longest, Some(BACKOFF_MAX));
    }

    #[test]
    fn reuse_at_or_above_break_even_never_closes() {
        // One hit in three earns 100 µs against 3 × 30 µs spent.
        let policy = adaptive();
        let tally = run(&policy, 100_000, |i| Shape {
            hit: i % 3 == 2,
            ..LOSER
        });
        assert!(tally.events.is_empty(), "{:?}", tally.events.first());
        assert_eq!(tally.gated, 0);
        assert!(policy.status().open);
    }

    #[test]
    fn cheap_training_is_never_cut() {
        // Blackscholes-shaped: 17 cheap training tasks, then everything hits.
        let blackscholes = run(&adaptive(), 10_000, |i| Shape {
            cost_ns: 4 * US,
            kernel_ns: 500 * US,
            hit: i >= 17,
            ..LOSER
        });
        // kmeans-shaped: one expensive first sweep (128 blocks pay 110 µs
        // each to fill their digests), a further 144 cheap training tasks,
        // then four hits in five.
        let kmeans = run(&adaptive(), 10_000, |i| Shape {
            cost_ns: if i < 128 { 110 * US } else { 12 * US },
            kernel_ns: 270 * US,
            hit: i >= 272 && i % 5 != 0,
            ..LOSER
        });
        // LU-shaped: training never ends, and costs 1 µs against 300 µs.
        let lu = run(&adaptive(), 100_000, |_| Shape {
            cost_ns: US,
            kernel_ns: 300 * US,
            ..LOSER
        });
        for (name, tally) in [
            ("blackscholes", blackscholes),
            ("kmeans", kmeans),
            ("lu", lu),
        ] {
            assert!(
                tally.events.is_empty(),
                "{name}: {:?}",
                tally.events.first()
            );
            assert_eq!(tally.gated, 0, "{name}");
        }
    }

    #[test]
    fn a_phase_change_is_caught_within_one_back_off_and_resets_it() {
        let policy = adaptive();
        // No reuse until the type has closed three times (back-off 1 024).
        let mut tally = Tally::default();
        while tally.closures().len() < 3 {
            feed(&policy, LOSER, &mut tally);
        }
        let backoff = tally.closures()[2].backoff;
        assert_eq!(backoff, 4 * BACKOFF_MIN);
        // From here every keyed task would hit.
        let winner = Shape { hit: true, ..LOSER };
        let after = run(&policy, 20_000, |_| winner);
        assert_eq!(after.gated, backoff, "caught when the back-off runs out");
        assert_eq!(after.events.len(), 1, "re-opened once, never closed again");
        assert!(!after.events[0].closed);
        assert!(policy.status().open);
        // The profitable stretch reset the back-off: a relapse closes for
        // the minimum again, however long it takes to burn what was earned.
        let relapse = run(&policy, 200_000, |_| LOSER);
        assert_eq!(relapse.closures()[0].backoff, BACKOFF_MIN);
    }

    #[test]
    fn training_state_survives_a_closure() {
        let policy = adaptive();
        let region = RegionId::from_raw(7);
        // Two rejections double p twice and black-list a region.
        policy.record_comparison(1.0, &[region]);
        policy.record_comparison(1.0, &[]);
        let before = policy.status();
        assert_eq!(before.p, Percentage::from_training_step(2));
        assert!(!before.steady);
        assert_eq!(before.unstable_outputs, 1);

        let mut tally = Tally::default();
        while tally.closures().is_empty() {
            feed(&policy, LOSER, &mut tally);
        }
        let closed = policy.status();
        assert!(!closed.open);
        assert_eq!((closed.p, closed.steady), (before.p, before.steady));
        // A comparison whose task was keyed before the closure still counts,
        // and does not disturb the run-down.
        policy.record_comparison(1.0, &[]);
        assert_eq!(policy.status().p, Percentage::from_training_step(3));
        assert!(!policy.status().open);

        let mut rundown = Tally::default();
        while rundown.events.is_empty() {
            feed(&policy, LOSER, &mut rundown);
        }
        assert_eq!(rundown.gated, BACKOFF_MIN);
        let (Admission::Keyed(plan), None) = policy.admit() else {
            panic!("re-opened");
        };
        assert_eq!(plan.p, Percentage::from_training_step(3));
        assert!(plan.training);
        assert!(policy.writes_unstable(&[access(region, AccessMode::Out)]));
        assert!(!policy.writes_unstable(&[access(region, AccessMode::In)]));
    }

    #[test]
    fn status_p_is_the_controllers_ladder_step() {
        let policy = adaptive();
        assert!(policy.pinned.is_none(), "approximate × Dynamic adapts");
        // Rejections climb the ladder; acceptances hold p until it freezes.
        for tau in [1.0, 0.0, 1.0, 1.0, 0.0, 0.5, 1.0] {
            policy.record_comparison(tau, &[]);
            let step = policy.state.lock().controller.as_ref().unwrap().doublings();
            assert_eq!(policy.status().p, Percentage::from_training_step(step));
        }
        assert_eq!(policy.status().p, Percentage::from_training_step(5));
    }

    #[test]
    fn pinned_policies_never_gate_and_close_only_retention() {
        let approximate = MemoSpec::approximate;
        let pinned = [
            TypePolicy::resolve(AtmMode::Static, approximate()),
            TypePolicy::resolve(AtmMode::FixedP(0.25), approximate()),
            TypePolicy::resolve(AtmMode::Dynamic, MemoSpec::exact()),
            TypePolicy::resolve(AtmMode::Dynamic, MemoSpec::fixed_precision(0.25)),
        ];
        let expected_p = [1.0, 0.25, 1.0, 0.25];
        for (policy, p) in pinned.iter().zip(expected_p) {
            assert!(policy.pinned.is_some());
            // Ten times dearer to key than the loser that closes an adaptive
            // type: keying is the programmer's call, so nothing is gated.
            // Only the 66 KiB each miss retains is priced, and that closes
            // retention while every task stays keyed.
            let tally = run(policy, 20_000, |_| Shape {
                cost_ns: 300 * US,
                ..LOSER
            });
            assert_eq!((tally.keyed, tally.gated), (20_000, 0));
            let closures = tally.closures();
            assert!(!closures.is_empty());
            let status = policy.status();
            assert!(status.steady);
            assert_eq!(status.gate_closures, closures.len() as u64);
            assert_eq!(status.p.fraction(), p);
            assert!(policy.tau_max().is_infinite());
        }

        // The retention ledger over the shapes the benchmark runs. A
        // stencil: 66 KiB out of a 100 µs kernel, 5 % hits.
        let policy = TypePolicy::resolve(AtmMode::Static, MemoSpec::exact());
        let stencil = |i: u64| Shape {
            hit: i.is_multiple_of(20),
            ..LOSER
        };
        let mut tally = Tally::default();
        let mut fed = 0;
        while tally.closures().is_empty() {
            feed(&policy, stencil(fed), &mut tally);
            fed += 1;
        }
        assert!(fed <= 500, "closed after {fed} tasks");
        for i in fed..100_000 {
            feed(&policy, stencil(i), &mut tally);
        }
        assert_eq!((tally.keyed, tally.gated), (100_000, 0));
        assert!(
            tally.retained * 100 < 15 * 100_000,
            "retained {} of 100 000",
            tally.retained
        );
        // Closures and re-openings alternate, and the type is re-opened
        // with its unretained misses on the counters.
        for pair in tally.events.chunks(2) {
            assert!(pair[0].closed && pair.get(1).is_none_or(|e| !e.closed));
        }
        let unretained = policy.counters.unretained.load(Ordering::Relaxed);
        assert_eq!(tally.retained + unretained, 95_000);

        // The types that pay keep every miss.
        type Stream = fn(u64) -> Shape;
        let paying: [(&str, Stream); 4] = [
            // serve-zipf's `transform`: 4 KiB out of a 150 µs kernel, 74 % hits.
            ("transform", |i| Shape {
                cost_ns: US,
                kernel_ns: 150 * US,
                hit: i % 50 < 37,
                out_bytes: 4 * KIB + 200,
            }),
            // Swaptions: two prices out of a 1 ms kernel, 80 % hits.
            ("swaptions", |i| Shape {
                cost_ns: US,
                kernel_ns: 1_000 * US,
                hit: i % 5 != 0,
                out_bytes: 256,
            }),
            // Sparse LU: a 64 KiB block out of a 300 µs kernel, 5 % hits.
            ("lu", |i| Shape {
                cost_ns: US,
                kernel_ns: 300 * US,
                hit: i.is_multiple_of(20),
                out_bytes: 64 * KIB + 200,
            }),
            // flood: a 256 B cell (424 B charged) out of a 300 ns kernel. A
            // worker drains its first segment chain by chain — each chain
            // misses twice, then hits fourteen times — and everything after
            // it hits.
            ("flood", |i| Shape {
                cost_ns: US / 2,
                kernel_ns: 300,
                hit: i >= 128 * 16 || i % 16 >= 2,
                out_bytes: 424,
            }),
        ];
        for (name, shape) in paying {
            let policy = TypePolicy::resolve(AtmMode::Static, MemoSpec::exact());
            let tally = run(&policy, 100_000, shape);
            assert!(
                tally.events.is_empty(),
                "{name}: {:?}",
                tally.events.first()
            );
            assert_eq!(
                policy.counters.unretained.load(Ordering::Relaxed),
                0,
                "{name}"
            );
        }
    }

    #[test]
    fn mode_overrides_ignore_per_argument_precisions() {
        let spec = MemoSpec::fixed_precision(0.25).arg_exact(0);
        let accesses = [
            access(RegionId::from_raw(0), AccessMode::In),
            access(RegionId::from_raw(1), AccessMode::In),
            access(RegionId::from_raw(2), AccessMode::Out),
        ];
        let p = Percentage::from_fraction(0.25);
        let mut out = Vec::new();
        TypePolicy::resolve(AtmMode::Dynamic, spec.clone()).precisions_into(&accesses, p, &mut out);
        assert_eq!(out, vec![Percentage::FULL, p]);
        TypePolicy::resolve(AtmMode::FixedP(0.25), spec).precisions_into(&accesses, p, &mut out);
        assert_eq!(out, vec![p, p]);
    }
}
