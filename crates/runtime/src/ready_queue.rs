//! The Ready Queue (RQ).
//!
//! Tasks whose dependences are satisfied are moved here; idle worker threads
//! pull from it. The paper's runtime uses a single ready queue and identifies
//! the task-creation throughput of the master thread as a bottleneck once ATM
//! makes tasks extremely cheap (Figure 8); this queue exists to remove that
//! bottleneck: per-worker deques plus a global injector with work stealing.
//! Workers push the tasks they release into their own deque (popped LIFO for
//! locality), the master thread submits into the injector, and an idle worker
//! steals *half* of a victim's deque. In steady state a worker that keeps
//! releasing its own successors never touches a shared lock, which is what
//! lets fine-grained (memoized) task floods scale with the core count.
//!
//! Pushes and pops sample the queue depth through the tracer (kept by a
//! capture handle only), which is the data behind Figure 8(b)/(d).

use crate::task::TaskId;
use crate::trace::Tracer;
use atm_sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use atm_sync::{Event, Mutex};
use std::collections::VecDeque;
use std::sync::Arc;

/// Outcome of a blocking pop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Popped {
    /// A task was obtained.
    Task(TaskId),
    /// The queue was closed and drained; the worker should exit.
    Closed,
}

/// Largest number of tasks moved by one steal (half the victim's deque,
/// capped so a thief cannot hoard a huge release burst).
const MAX_STEAL_BATCH: usize = 32;

/// Ready-depth sample lane used for pushes from outside the worker pool
/// (the master thread). Any consistent lane works — the sharding is purely
/// anti-contention; samples are merged and time-sorted on read.
const MASTER_LANE: usize = usize::MAX;

/// A blocking MPMC queue of ready tasks: per-worker deques + injector with
/// steal-half.
///
/// # Sleep/wake protocol (per-worker parking, eventcount-style)
///
/// Each worker owns one sticky [`Event`]; parked workers publish themselves
/// on a shared *sleeper stack*. A pusher that enqueues `n` tasks pops up to
/// `n` workers off the stack and signals **their** events directly — no
/// global condvar, no thundering herd, and the most recently parked (cache-
/// warm) workers wake first.
///
/// The lost-wakeup invariants mirror the previous global-condvar protocol:
///
/// * `pending` is incremented **before** a task becomes visible and
///   decremented **after** one is taken, so `pending > 0` eventually implies
///   a findable task;
/// * a worker parks in three steps — reset its event and push itself on the
///   stack (one critical section), **then** re-check `pending`/`closed`,
///   then wait. A pusher increments `pending` before popping the stack, so
///   either the parking worker sees the new `pending` and rescans, or the
///   pusher sees the worker on the stack and signals its event;
/// * the event is sticky: a signal delivered between the re-check and the
///   wait is consumed by the wait, and a stale signal left by a withdrawn
///   park is cleared by the reset of the next park.
#[derive(Debug)]
pub struct ReadyQueue {
    tracer: Arc<Tracer>,
    /// Master-thread submissions (and pushes from non-worker threads).
    injector: Mutex<VecDeque<TaskId>>,
    /// One deque per worker: the owner pushes/pops at the back (LIFO,
    /// cache-warm), thieves steal from the front (oldest first).
    locals: Vec<Mutex<VecDeque<TaskId>>>,
    /// Total tasks across all deques. Maintained *after* an enqueue and
    /// *after* a dequeue, so `pending > 0` eventually implies a findable
    /// task and a zero observed after parking is trustworthy.
    pending: AtomicUsize,
    /// One parking event per worker, signalled individually by pushers.
    parkers: Vec<Event>,
    /// Stack of currently parked workers (most recent on top). `sleepers`
    /// mirrors its length so pushers can skip the lock when nobody sleeps.
    sleeper_stack: Mutex<Vec<usize>>,
    sleepers: AtomicUsize,
    closed: AtomicBool,
}

impl ReadyQueue {
    /// Creates an empty, open queue for `workers` worker threads. Depth
    /// samples are forwarded through `tracer`.
    pub fn new(workers: usize, tracer: Arc<Tracer>) -> Self {
        ReadyQueue {
            tracer,
            injector: Mutex::new(VecDeque::new()),
            locals: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            pending: AtomicUsize::new(0),
            parkers: (0..workers).map(|_| Event::new()).collect(),
            sleeper_stack: Mutex::new(Vec::with_capacity(workers)),
            sleepers: AtomicUsize::new(0),
            closed: AtomicBool::new(false),
        }
    }

    /// Accounts for `count` pushed tasks *before* they become visible in a
    /// deque, so a racing consumer can never decrement `pending` below the
    /// number of visible tasks (no underflow).
    fn note_pushing(&self, count: usize, worker: usize) {
        let depth = self.pending.fetch_add(count, Ordering::SeqCst) + count;
        self.tracer.sample_ready_depth(worker, depth);
    }

    /// Wakes up to `count` parked workers, each through its own event.
    fn wake_after_push(&self, count: usize) {
        if self.sleepers.load(Ordering::SeqCst) == 0 {
            return;
        }
        let woken: Vec<usize> = {
            let mut stack = self.sleeper_stack.lock();
            let keep = stack.len().saturating_sub(count);
            let woken = stack.split_off(keep);
            self.sleepers.store(stack.len(), Ordering::SeqCst);
            woken
        };
        for worker in woken {
            self.parkers[worker].signal();
        }
    }

    /// Adds a batch of ready tasks from outside the worker pool (the master
    /// thread) and wakes as many waiting workers.
    pub fn push_all(&self, ids: &[TaskId]) {
        if ids.is_empty() {
            return;
        }
        self.note_pushing(ids.len(), MASTER_LANE);
        self.injector.lock().extend(ids.iter().copied());
        self.wake_after_push(ids.len());
    }

    /// Adds a batch of tasks released by `worker` (a finishing task's newly
    /// ready successors). They land in the worker's own deque — the
    /// no-shared-lock fast path.
    pub fn push_from(&self, worker: usize, ids: &[TaskId]) {
        if ids.is_empty() {
            return;
        }
        self.note_pushing(ids.len(), worker);
        match self.locals.get(worker) {
            Some(local) => local.lock().extend(ids.iter().copied()),
            // Not a worker thread (e.g. the engine finishing deferred tasks
            // from a test harness): fall back to the injector.
            None => self.injector.lock().extend(ids.iter().copied()),
        }
        self.wake_after_push(ids.len());
    }

    fn note_popped(&self, worker: usize) {
        let depth = self.pending.fetch_sub(1, Ordering::SeqCst) - 1;
        self.tracer.sample_ready_depth(worker, depth);
    }

    /// One full scan: own deque, injector, then steal-half round-robin.
    fn scan(&self, worker: usize) -> Option<TaskId> {
        if let Some(local) = self.locals.get(worker) {
            if let Some(id) = local.lock().pop_back() {
                return Some(id);
            }
        }
        if let Some(id) = self.injector.lock().pop_front() {
            return Some(id);
        }
        let n = self.locals.len();
        for offset in 1..n.max(1) {
            let victim = (worker + offset) % n;
            // Drain the batch and release the victim's lock *before*
            // touching our own deque: holding both would let a cycle of
            // thieves deadlock.
            let mut taken: VecDeque<TaskId> = {
                let mut victim_deque = self.locals[victim].lock();
                let available = victim_deque.len();
                if available == 0 {
                    continue;
                }
                // Steal the oldest half (keep the victim's hot LIFO end).
                let batch = (available / 2).clamp(1, MAX_STEAL_BATCH);
                victim_deque.drain(..batch).collect()
            };
            let stolen = taken.pop_front();
            if !taken.is_empty() {
                if let Some(local) = self.locals.get(worker) {
                    local.lock().extend(taken);
                } else {
                    self.injector.lock().extend(taken);
                }
            }
            return stolen;
        }
        None
    }

    /// Blocks until a task is available for `worker` or the queue is closed
    /// and drained.
    pub fn pop(&self, worker: usize) -> Popped {
        loop {
            if let Some(id) = self.scan(worker) {
                self.note_popped(worker);
                return Popped::Task(id);
            }
            let Some(event) = self.parkers.get(worker) else {
                // Not a pool worker (tests popping with an out-of-range
                // index): no parker to publish, so poll cooperatively.
                if self.closed.load(Ordering::SeqCst) && self.pending.load(Ordering::SeqCst) == 0 {
                    return Popped::Closed;
                }
                std::thread::yield_now();
                continue;
            };
            // Announce the park: clear any stale signal and publish
            // ourselves on the sleeper stack in one critical section, so a
            // pusher popping us afterwards signals a reset event.
            {
                let mut stack = self.sleeper_stack.lock();
                event.reset();
                stack.push(worker);
                self.sleepers.store(stack.len(), Ordering::SeqCst);
            }
            // Re-check after the announcement. A pusher increments `pending`
            // before popping the stack: either we see its task here, or it
            // sees us on the stack and signals our event.
            if self.pending.load(Ordering::SeqCst) > 0 || self.closed.load(Ordering::SeqCst) {
                // Withdraw the park. If we are no longer on the stack, a
                // pusher already claimed us and its (sticky) signal will be
                // cleared by the reset of our next park.
                {
                    let mut stack = self.sleeper_stack.lock();
                    if let Some(at) = stack.iter().position(|&w| w == worker) {
                        stack.remove(at);
                    }
                    self.sleepers.store(stack.len(), Ordering::SeqCst);
                }
                if self.closed.load(Ordering::SeqCst) && self.pending.load(Ordering::SeqCst) == 0 {
                    return Popped::Closed;
                }
                // The task may still be in flight between the pending
                // increment and the enqueue: yield so the pusher can land it.
                std::thread::yield_now();
                continue;
            }
            event.wait();
            // Normally the signaler already popped us off the stack, but a
            // *delayed* signal from a previous (withdrawn) park can satisfy
            // the wait while this park's stack entry is still live — clean
            // it up so stale entries never accumulate and wakeup budget is
            // never spent on an already-awake worker.
            {
                let mut stack = self.sleeper_stack.lock();
                if let Some(at) = stack.iter().position(|&w| w == worker) {
                    stack.remove(at);
                }
                self.sleepers.store(stack.len(), Ordering::SeqCst);
            }
        }
    }

    /// Current number of queued ready tasks.
    pub fn depth(&self) -> usize {
        self.pending.load(Ordering::SeqCst)
    }

    /// Closes the queue: workers drain the remaining tasks and then receive
    /// [`Popped::Closed`].
    pub fn close(&self) {
        self.closed.store(true, Ordering::SeqCst);
        {
            let mut stack = self.sleeper_stack.lock();
            stack.clear();
            self.sleepers.store(0, Ordering::SeqCst);
        }
        // Signal every worker's event: parked workers wake and observe
        // `closed`; awake workers consume (or reset) the stale signal at
        // their next park.
        for event in &self.parkers {
            event.signal();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;
    use std::time::Duration;

    fn queue(workers: usize) -> ReadyQueue {
        ReadyQueue::new(workers, Arc::new(Tracer::new(None)))
    }

    /// Master submissions go through the injector, which hands them out
    /// oldest first whichever worker asks.
    #[test]
    fn fifo_order_is_preserved() {
        let q = queue(2);
        q.push_all(&[TaskId(1)]);
        q.push_all(&[TaskId(2)]);
        q.push_all(&[TaskId(3), TaskId(4)]);
        assert_eq!(q.depth(), 4);
        assert_eq!(q.pop(0), Popped::Task(TaskId(1)));
        assert_eq!(q.pop(0), Popped::Task(TaskId(2)));
        assert_eq!(q.pop(1), Popped::Task(TaskId(3)));
        assert_eq!(q.pop(1), Popped::Task(TaskId(4)));
        assert_eq!(q.depth(), 0);
    }

    #[test]
    fn close_drains_then_signals_closed() {
        let q = queue(1);
        q.push_all(&[TaskId(7)]);
        q.close();
        assert_eq!(q.pop(0), Popped::Task(TaskId(7)));
        assert_eq!(q.pop(0), Popped::Closed);
    }

    #[test]
    fn blocking_pop_wakes_on_push() {
        let q = Arc::new(queue(1));
        let q2 = Arc::clone(&q);
        let handle = thread::spawn(move || q2.pop(0));
        thread::sleep(Duration::from_millis(20));
        q.push_all(&[TaskId(9)]);
        assert_eq!(handle.join().unwrap(), Popped::Task(TaskId(9)));
    }

    #[test]
    fn blocking_pop_wakes_on_close() {
        let q = Arc::new(queue(3));
        let handles: Vec<_> = (0..3)
            .map(|w| {
                let q = Arc::clone(&q);
                thread::spawn(move || q.pop(w))
            })
            .collect();
        thread::sleep(Duration::from_millis(20));
        q.close();
        for h in handles {
            assert_eq!(h.join().unwrap(), Popped::Closed);
        }
    }

    #[test]
    fn depth_samples_are_recorded_when_tracing() {
        let obs = Arc::new(atm_obs::Observability::capture());
        let tracer = Arc::new(Tracer::new(Some(Arc::clone(&obs))));
        let q = ReadyQueue::new(1, tracer);
        q.push_all(&[TaskId(1)]);
        q.push_all(&[TaskId(2)]);
        let _ = q.pop(0);
        let samples = obs.ready_depth_samples();
        assert_eq!(samples.len(), 3);
        assert_eq!(samples[0].value, 1);
        assert_eq!(samples[1].value, 2);
        assert_eq!(samples[2].value, 1);
    }

    #[test]
    fn stealing_mode_also_samples_depth() {
        let obs = Arc::new(atm_obs::Observability::capture());
        let tracer = Arc::new(Tracer::new(Some(Arc::clone(&obs))));
        let q = ReadyQueue::new(2, tracer);
        q.push_all(&[TaskId(1)]);
        q.push_from(0, &[TaskId(2), TaskId(3)]);
        let _ = q.pop(0);
        let samples = obs.ready_depth_samples();
        assert!(samples.len() >= 3);
        assert_eq!(samples.last().unwrap().value, 2);
    }

    #[test]
    fn push_all_empty_is_a_noop() {
        let q = queue(1);
        q.push_all(&[]);
        q.push_from(0, &[]);
        assert_eq!(q.depth(), 0);
    }

    #[test]
    fn owner_pops_lifo_from_its_own_deque() {
        let q = queue(2);
        q.push_from(0, &[TaskId(1), TaskId(2), TaskId(3)]);
        // The owner pops its most recent release first (locality).
        assert_eq!(q.pop(0), Popped::Task(TaskId(3)));
        assert_eq!(q.pop(0), Popped::Task(TaskId(2)));
        assert_eq!(q.pop(0), Popped::Task(TaskId(1)));
    }

    #[test]
    fn thief_steals_oldest_half_of_the_victim() {
        let q = queue(2);
        q.push_from(0, &[TaskId(1), TaskId(2), TaskId(3), TaskId(4)]);
        // Worker 1 steals the front half (oldest tasks) of worker 0.
        assert_eq!(q.pop(1), Popped::Task(TaskId(1)));
        // The second stolen task landed in worker 1's own deque.
        assert_eq!(q.pop(1), Popped::Task(TaskId(2)));
        // The victim keeps its hot end.
        assert_eq!(q.pop(0), Popped::Task(TaskId(4)));
        assert_eq!(q.pop(0), Popped::Task(TaskId(3)));
        assert_eq!(q.depth(), 0);
    }

    /// Per-worker parking: pushing `n` tasks wakes at most `n` of the parked
    /// workers (each through its own event); the rest keep sleeping until
    /// close. Every pushed task is delivered exactly once.
    #[test]
    fn pushes_wake_only_as_many_parked_workers_as_tasks() {
        let q = Arc::new(queue(3));
        let handles: Vec<_> = (0..3)
            .map(|w| {
                let q = Arc::clone(&q);
                thread::spawn(move || {
                    let mut got = 0usize;
                    while let Popped::Task(_) = q.pop(w) {
                        got += 1;
                    }
                    got
                })
            })
            .collect();
        // Wait until all three workers are parked.
        while q.sleepers.load(Ordering::SeqCst) < 3 {
            thread::yield_now();
        }
        q.push_all(&[TaskId(1), TaskId(2)]);
        while q.depth() > 0 {
            thread::yield_now();
        }
        q.close();
        let total: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(total, 2, "each pushed task is delivered exactly once");
    }

    #[test]
    fn stealing_mode_delivers_every_task_under_contention() {
        let q = Arc::new(queue(4));
        const N: u64 = 4_000;
        let handles: Vec<_> = (0..4)
            .map(|w| {
                let q = Arc::clone(&q);
                thread::spawn(move || {
                    let mut got = Vec::new();
                    while let Popped::Task(id) = q.pop(w) {
                        got.push(id.raw());
                    }
                    got
                })
            })
            .collect();
        for i in 0..N {
            q.push_all(&[TaskId(i)]);
        }
        // Give the workers a moment to drain, then close.
        while q.depth() > 0 {
            thread::yield_now();
        }
        q.close();
        let mut all: Vec<u64> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        all.sort_unstable();
        assert_eq!(all, (0..N).collect::<Vec<u64>>());
    }
}
