//! Spawning and joining model threads.
//!
//! Model closures create concurrency with [`spawn`], which mirrors
//! `std::thread::spawn` but registers the child with the model scheduler:
//! the child becomes schedulable at the next decision point, runs only when
//! granted the token, and propagates its vector clock to whoever joins it
//! (so everything the child did happens-before the join's return).
//!
//! [`spawn`] may only be called from inside a model (a closure being run by
//! [`crate::check::Checker`]); production code keeps using real
//! `std::thread` — the checker models *protocols*, not thread pools.

use std::sync::Arc;

use super::exec::{current, enter_model_thread, BlockedOn, Cancelled, Phase};
use crate::raw;

/// Handle to a spawned model thread; join it to recover the closure's
/// return value.
pub struct JoinHandle<T> {
    child: usize,
    result: Arc<raw::Mutex<Option<T>>>,
}

impl<T> JoinHandle<T> {
    /// Blocks (in the model) until the child finishes and returns its
    /// result. A child panic aborts the whole execution and is reported by
    /// the checker, so `join` only returns for cleanly-finished children.
    pub fn join(self) -> T {
        let ctx = current().expect("JoinHandle::join called outside a model execution");
        ctx.op_point();
        let finished = {
            let ctl = ctx.exec.ctl.lock();
            ctl.phases[self.child] == Phase::Finished
        };
        if !finished {
            ctx.block_on(BlockedOn::Join(self.child));
        } else {
            // Child already finished: still join its final clock.
            let mut ctl = ctx.exec.ctl.lock();
            let child_clock = ctl.clocks[self.child].clone();
            let me = ctx.index;
            ctl.clocks[me].join(&child_clock);
        }
        match self.result.lock().take() {
            Some(value) => value,
            // The child unwound (panic or cancellation): this execution is
            // being torn down, so unwind the joiner too.
            None => std::panic::panic_any(Cancelled),
        }
    }
}

impl<T> std::fmt::Debug for JoinHandle<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JoinHandle")
            .field("child", &self.child)
            .finish()
    }
}

/// Cedes the processor. Inside a model this parks the caller until no other
/// thread is runnable — the correct encoding of a spin-retry loop (a model
/// that spins without yielding exhausts the checker's step budget).
/// Outside a model it is a plain `std::thread::yield_now`.
pub fn yield_now() {
    match current() {
        Some(ctx) => ctx.yield_now(),
        None => std::thread::yield_now(),
    }
}

/// Spawns a model thread running `f`. Must be called from inside a model
/// execution; the spawn itself is a scheduling point, so the checker
/// explores both "child runs first" and "parent continues" orders.
pub fn spawn<T, F>(f: F) -> JoinHandle<T>
where
    T: Send + 'static,
    F: FnOnce() -> T + Send + 'static,
{
    let ctx = current().expect("check::thread::spawn called outside a model execution");
    let at_limit = ctx.exec.ctl.lock().phases.len() >= super::exec::MAX_THREADS;
    if at_limit {
        ctx.fail(
            super::exec::FailureKind::TooManyThreads,
            format!(
                "model tried to exceed the {} model-thread limit",
                super::exec::MAX_THREADS
            ),
        );
    }
    let child = ctx.exec.register_thread(Some(ctx.index));
    let result = Arc::new(raw::Mutex::new(None));
    let result_slot = Arc::clone(&result);
    let exec = Arc::clone(&ctx.exec);
    std::thread::Builder::new()
        .name(format!("atm-check-{child}"))
        .spawn(move || {
            enter_model_thread(Arc::clone(&exec), child, move || {
                let value = f();
                *result_slot.lock() = Some(value);
            });
        })
        .expect("failed to spawn model thread");
    // Make the new child visible as a scheduling alternative immediately.
    ctx.op_point();
    JoinHandle { child, result }
}
