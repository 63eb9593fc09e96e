//! Small, dense, process-wide thread ordinals.
//!
//! Several hot paths want to spread per-thread state across a fixed array of
//! cache-padded shards (striped statistics counters)
//! without threading a worker index through every call site. [`thread_ordinal`]
//! gives each OS thread a small integer, assigned on first use from a global
//! counter and cached in a thread-local, so `ordinal % SHARDS` is a stable,
//! collision-light shard index for the lifetime of the thread.
//!
//! The counter deliberately uses `std` atomics even under `--cfg atm_check`:
//! ordinal assignment is not part of any checked protocol, it is an identity,
//! and instrumenting it would only add meaningless scheduling points.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

static NEXT_ORDINAL: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static ORDINAL: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// Returns this thread's process-wide ordinal: `0` for the first thread that
/// asks, `1` for the second, and so on. Stable for the thread's lifetime;
/// ordinals of dead threads are not recycled.
pub fn thread_ordinal() -> usize {
    ORDINAL.with(|slot| {
        let mut ordinal = slot.get();
        if ordinal == usize::MAX {
            ordinal = NEXT_ORDINAL.fetch_add(1, Ordering::Relaxed);
            slot.set(ordinal);
        }
        ordinal
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordinal_is_stable_within_a_thread() {
        assert_eq!(thread_ordinal(), thread_ordinal());
    }

    #[test]
    fn ordinals_differ_across_threads() {
        let mine = thread_ordinal();
        let theirs = std::thread::spawn(thread_ordinal).join().unwrap();
        assert_ne!(mine, theirs);
    }
}
