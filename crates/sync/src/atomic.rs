//! Atomic integer and boolean types, routed through the model checker.
//!
//! Production code imports atomics from here instead of `std::sync::atomic`
//! (the repository lint `cargo run -p xtask -- lint-sync` enforces this).
//! In a normal build these are *re-exports* of the `std` types — zero cost,
//! zero behavioural difference. Under `--cfg atm_check` the same names
//! resolve to the instrumented atomics in [`crate::check::sync`], whose
//! every operation is a scheduling point of the model checker and feeds the
//! vector-clock happens-before analysis.
//!
//! [`Ordering`] is always the `std` enum: the instrumented types interpret
//! it for happens-before tracking rather than defining their own.

#[cfg(not(atm_check))]
pub use std::sync::atomic::{
    fence, AtomicBool, AtomicU32, AtomicU64, AtomicU8, AtomicUsize, Ordering,
};

#[cfg(atm_check)]
pub use crate::check::sync::{AtomicBool, AtomicU32, AtomicU64, AtomicU8, AtomicUsize};
#[cfg(atm_check)]
pub use std::sync::atomic::{fence, Ordering};
