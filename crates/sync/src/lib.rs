//! Minimal synchronisation primitives with a `parking_lot`-style API, plus
//! `atm-check`, an in-tree deterministic concurrency model checker.
//!
//! The runtime and the ATM engine were written against `parking_lot`'s
//! ergonomic locking API (`lock()` returns the guard directly, no poisoning
//! to unwrap, `Condvar::wait` takes the guard by `&mut`). This crate provides
//! the same surface on top of `std::sync` so the workspace has no external
//! dependencies.
//!
//! # Two builds, one API
//!
//! * **Production** (`cfg(not(atm_check))`, the default): [`Mutex`],
//!   [`RwLock`], [`Condvar`], [`Event`] and the [`atomic`] re-exports are
//!   thin zero-cost wrappers over `std::sync` — exactly the types in
//!   [`raw`].
//! * **Checking** (`RUSTFLAGS='--cfg atm_check'`): the same names resolve to
//!   the *instrumented* types in [`check::sync`]. Every lock, atomic and
//!   [`Event`] operation becomes a scheduling point of the cooperative
//!   model scheduler in [`check`], which explores thread interleavings
//!   deterministically, tracks happens-before with vector clocks to flag
//!   data races from too-weak `Ordering`s, and builds a lock-order graph to
//!   flag potential deadlocks.
//!
//! The checker module itself ([`check`]) is compiled in **both** builds, so
//! the model-based protocol tests under `tests/model/` run as part of the
//! ordinary test suite; `--cfg atm_check` is only needed to run *production*
//! code (e.g. the real `TaskGraph`) under the instrumented scheduler.
//! See `CONCURRENCY.md` at the repository root for the protocol inventory
//! and a guide to writing models.

#![warn(missing_docs)]

pub mod atomic;
pub mod check;
pub mod raw;
pub mod thread_id;

pub use thread_id::thread_ordinal;

#[cfg(not(atm_check))]
pub use raw::{Condvar, Event, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};

#[cfg(atm_check)]
pub use check::sync::{
    Condvar, Event, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard,
};
