//! Protocol 8 — the per-type policy word (the ledger of
//! `crates/core/src/policy.rs`).
//!
//! One atomic word publishes a task type's policy: the low bits count the
//! closed tasks left in the current closure (0 = open), the bits above carry
//! the controller's phase and `p`. A **worker** admitting a task loads the
//! word; open → the task is keyed; count ≥ 2 → it CAS-decrements and the task
//! is closed (an adaptive type's is gated, a pinned type's keyed but not
//! retained); count = 1 → it takes the policy's state lock, re-bases the
//! ledger and only then stores the open word (the closure's last task). A worker **settling** a keyed task takes the same lock and, if the
//! ledger says so and the word is still open, stores the closed word. The
//! model is `TypePolicy::{admit, reopen, settle}` with the ledger shrunk to
//! "is there a closure on the books".
//!
//! *Invariants: the closed count never underflows (it would borrow from the
//! phase bits above it); a closure gates exactly its back-off and is
//! re-opened exactly once — the word and the ledger agree on whether the
//! type is open whenever the lock is free; a task that was told "gated"
//! holds no ticket.*
//!
//! The discipline that carries them is that **every decrement is a CAS on
//! the word it read** and the 1 → 0 step happens under the lock. The
//! negative model decrements with a load and a store: a stale store lands
//! after another worker's re-opening, the word says "closed, one left"
//! while the ledger says open, and the next task re-opens a type that is
//! not closed. The last test runs the run-down race on the *real*
//! `TypePolicy`, adaptive and pinned: one atomic slice per call in an
//! ordinary build, interleaved at every lock and atomic of `policy.rs` under
//! `RUSTFLAGS='--cfg atm_check'`.

use atm_core::policy::{Admission, TypeCounters, TypePolicy};
use atm_core::{AtmMode, MemoSpec};
use atm_sync::atomic::Ordering;
use atm_sync::check::sync::{AtomicU64, Mutex};
use atm_sync::check::{thread, Checker, FailureKind};
use std::sync::Arc;

const CLOSED_MASK: u64 = 0xFFFF_FFFF;
/// Stands for the controller bits above the count: set once, never to change.
const PHASE: u64 = 1 << 32;

#[derive(Default)]
struct Books {
    /// The ledger's view: a closure is running down.
    closed: bool,
    closures: u64,
    reopenings: u64,
}

struct GateModel {
    word: AtomicU64,
    books: Mutex<Books>,
}

impl GateModel {
    /// A type closed with `remaining` gated tasks to go (0 = open).
    fn new(remaining: u64) -> Self {
        GateModel {
            word: AtomicU64::new(PHASE | remaining),
            books: Mutex::new(Books {
                closed: remaining > 0,
                closures: u64::from(remaining > 0),
                reopenings: 0,
            }),
        }
    }

    /// `TypePolicy::settle` reaching its closing store.
    fn close(&self, backoff: u64) {
        let mut books = self.books.lock();
        let word = self.word.load(Ordering::Acquire);
        if word & CLOSED_MASK != 0 {
            return; // keyed before a closure, settling after it
        }
        books.closed = true;
        books.closures += 1;
        self.word.store(word | backoff, Ordering::Release);
    }

    /// `TypePolicy::reopen`: the closure's last gated task.
    fn reopen(&self) -> Result<(), u64> {
        let mut books = self.books.lock();
        let word = self.word.load(Ordering::Acquire);
        if word & CLOSED_MASK != 1 {
            return Err(word);
        }
        assert!(books.closed, "re-opened a type that is not closed");
        books.closed = false;
        books.reopenings += 1;
        self.word.store(word & !CLOSED_MASK, Ordering::Release);
        Ok(())
    }

    /// `TypePolicy::admit`: true when the task is gated (it executes and
    /// holds no ticket), false when it is keyed. The seeded bug decrements
    /// with a load and a store.
    fn admit(&self, atomic_decrement: bool) -> bool {
        let mut word = self.word.load(Ordering::Acquire);
        loop {
            assert_eq!(word & !CLOSED_MASK, PHASE, "the closed count underflowed");
            match word & CLOSED_MASK {
                0 => return false,
                1 => match self.reopen() {
                    Ok(()) => return true,
                    Err(current) => word = current,
                },
                _ if atomic_decrement => match self.word.compare_exchange_weak(
                    word,
                    word - 1,
                    Ordering::AcqRel,
                    Ordering::Acquire,
                ) {
                    Ok(_) => return true,
                    Err(current) => word = current,
                },
                _ => {
                    self.word.store(word - 1, Ordering::Release);
                    return true;
                }
            }
        }
    }

    /// `admits` admissions in a row; how many were gated.
    fn admit_many(&self, admits: u64, atomic_decrement: bool) -> u64 {
        (0..admits)
            .map(|_| u64::from(self.admit(atomic_decrement)))
            .sum()
    }

    /// With the lock free, the word and the books agree: every closure that
    /// ran down was re-opened once.
    fn assert_quiescent(&self) {
        let books = self.books.lock();
        let word = self.word.load(Ordering::SeqCst);
        assert_eq!(word & !CLOSED_MASK, PHASE, "the closed count underflowed");
        assert_eq!(
            word & CLOSED_MASK != 0,
            books.closed,
            "lost re-open: word {:#x}, books closed = {}",
            word,
            books.closed
        );
        assert_eq!(
            books.reopenings + u64::from(books.closed),
            books.closures,
            "a closure is re-opened exactly once"
        );
    }
}

/// Two workers run a closure of `remaining` down and out: one admits a task,
/// the other `admits`.
fn run_down(remaining: u64, admits: u64, atomic_decrement: bool) {
    let gate = Arc::new(GateModel::new(remaining));
    let other = {
        let gate = Arc::clone(&gate);
        thread::spawn(move || gate.admit_many(1, atomic_decrement))
    };
    let gated = gate.admit_many(admits, atomic_decrement) + other.join();
    gate.assert_quiescent();
    if atomic_decrement {
        // The closure gated exactly its back-off, then the type was keyed.
        assert_eq!(gated, remaining.min(admits + 1));
        assert_eq!(
            gate.books.lock().reopenings,
            u64::from(admits + 1 >= remaining)
        );
    }
}

#[test]
fn a_closure_runs_down_and_reopens_exactly_once_exhaustively() {
    // Count 2 against 1 + 2 admissions: the decrements race each other, the
    // loser races the winner for the re-opening, and one task is keyed.
    let report = Checker::exhaustive()
        .max_schedules(100_000)
        .check(|| run_down(2, 2, true));
    report.assert_passed();
    assert!(
        report.complete,
        "the policy-word model should be exhaustively explorable, ran {}",
        report.schedules
    );
    assert!(report.schedules > 100, "expected a real exploration");
}

#[test]
fn the_closing_store_races_admissions_exhaustively() {
    // An open type; one worker's settlement closes it for two tasks while
    // the other admits three: each is keyed before the closure or gated
    // after it, and once both gated tasks have passed the type is open again.
    let report = Checker::exhaustive().max_schedules(100_000).check(|| {
        let gate = Arc::new(GateModel::new(0));
        let settler = {
            let gate = Arc::clone(&gate);
            thread::spawn(move || gate.close(2))
        };
        let gated = gate.admit_many(3, true);
        settler.join();
        gate.assert_quiescent();
        assert!(gated <= 2, "a closure of 2 gated {gated}");
        assert_eq!(gate.books.lock().closed, gated < 2);
    });
    report.assert_passed();
    assert!(report.complete, "ran {}", report.schedules);
    assert!(report.schedules > 50, "expected a real exploration");
}

#[test]
fn policy_word_survives_randomized_exploration_of_repeated_closures() {
    // Close, run down, re-open, close again — too many interleavings to
    // enumerate, so sampled.
    Checker::random(0x6A7E, 400)
        .check(|| {
            let gate = Arc::new(GateModel::new(0));
            let workers: Vec<_> = (0..2)
                .map(|_| {
                    let gate = Arc::clone(&gate);
                    thread::spawn(move || {
                        for _ in 0..3 {
                            gate.admit(true);
                            gate.close(2);
                        }
                    })
                })
                .collect();
            for worker in workers {
                worker.join();
            }
            gate.assert_quiescent();
        })
        .assert_passed();
}

#[test]
fn a_load_store_decrement_loses_a_reopening() {
    // Worker A reads "2 left"; worker B decrements, re-opens (2 → 1 → open);
    // A's stale store puts "1 left" back on a type whose books say open.
    let model = || run_down(2, 2, false);
    let report = Checker::exhaustive().max_schedules(50_000).check(model);
    assert_eq!(
        report.failure_kind(),
        Some(FailureKind::Panic),
        "expected the lost re-open, got {:?}",
        report.failure
    );
    let failure = report.failure.unwrap();
    assert!(
        failure.message.contains("lost re-open")
            || failure
                .message
                .contains("re-opened a type that is not closed"),
        "unexpected failure: {}",
        failure.message
    );
    let replayed = Checker::exhaustive().replay(model, &failure.schedule);
    assert_eq!(replayed.failure_kind(), Some(FailureKind::Panic));
}

/// True when the real policy admits a closed task: gated, or keyed but not
/// retained.
fn admit_closed(policy: &TypePolicy) -> bool {
    let (admission, reopened) = policy.admit();
    if let Some(event) = reopened {
        assert!(!event.closed);
    }
    match admission {
        Admission::Gated => true,
        Admission::Keyed(plan) => !plan.retain,
    }
}

/// A real policy, adaptive or pinned, closed by its own ledger, run down to
/// its last three tasks and then raced.
fn shipped_run_down(pinned: bool) {
    let spec = if pinned {
        MemoSpec::exact()
    } else {
        MemoSpec::approximate()
    };
    let policy = Arc::new(TypePolicy::resolve(AtmMode::Dynamic, spec));
    // 64 keyed executions that cost a hundred times their kernels — an
    // adaptive type's keys, a pinned type's retained bytes: the settlement
    // closes the type for 256 tasks.
    let counters = &policy.counters;
    TypeCounters::add(&counters.seen, 64);
    TypeCounters::add(&counters.executed, 64);
    TypeCounters::add(&counters.kernel_ns, 64 * 1_000);
    TypeCounters::add(&counters.hash_ns, 64 * 100_000);
    TypeCounters::add(&counters.retained_bytes, 64 * 200_000);
    let closure = policy.settle(true).expect("the ledger closes the type");
    assert!(closure.closed);
    for _ in 3..closure.backoff {
        assert!(admit_closed(&policy), "closed while the closure runs");
    }
    let other = {
        let policy = Arc::clone(&policy);
        thread::spawn(move || u64::from(admit_closed(&policy)) + u64::from(admit_closed(&policy)))
    };
    let closed = u64::from(admit_closed(&policy)) + u64::from(admit_closed(&policy)) + other.join();
    assert_eq!(closed, 3, "the closure lasts exactly its back-off");
    let status = policy.status();
    assert!(status.open, "and is then open");
    assert_eq!(status.gate_closures, 1);
    assert!(
        policy.settle(true).is_none(),
        "a fresh opening is not judged yet"
    );
}

#[test]
fn the_shipped_policy_word_reopens_a_closure_exactly_once() {
    for pinned in [false, true] {
        let model = move || shipped_run_down(pinned);
        Checker::exhaustive()
            .max_schedules(2_000)
            .check(model)
            .assert_passed();
        Checker::random(0x90_11C7, 200).check(model).assert_passed();
    }
}
