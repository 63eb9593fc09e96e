//! The In-flight Key Table (IKT).
//!
//! In a parallel execution a task A may become ready while a task B with the
//! same hash key is *currently executing*: B's outputs are not yet in the
//! THT, so A would miss and redundantly execute. The IKT (§III-A, Figure 1)
//! fixes this: it maps the keys of in-flight tasks to the executing task, so
//! A can register a *postponed copy-out* request; when B finishes it copies
//! its outputs into A's output regions and A completes without executing.
//!
//! The table holds at most as many keys as there are worker threads (only
//! in-flight tasks appear in it) and accesses never copy outputs, so — as in
//! the paper — a single lock protects it.

use crate::tht::EntryKey;
use atm_runtime::{Access, TaskId};
use atm_sync::Mutex;
use std::collections::HashMap;

/// A task waiting for an in-flight producer to provide its outputs.
#[derive(Debug, Clone)]
pub struct Waiter {
    /// The deferred task.
    pub task: TaskId,
    /// The deferred task's accesses (its write accesses receive the copies).
    pub accesses: Vec<Access>,
}

#[derive(Debug)]
struct InFlightEntry {
    producer: TaskId,
    waiters: Vec<Waiter>,
}

/// The In-flight Key Table.
#[derive(Debug, Default)]
pub struct InFlightKeyTable {
    inner: Mutex<HashMap<EntryKey, InFlightEntry>>,
}

impl InFlightKeyTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers `producer` as the in-flight task for `key`, if no other
    /// task already claims it. Returns true when this task is now the
    /// registered producer.
    pub fn register_producer(&self, key: EntryKey, producer: TaskId) -> bool {
        let mut inner = self.inner.lock();
        match inner.entry(key) {
            std::collections::hash_map::Entry::Occupied(_) => false,
            std::collections::hash_map::Entry::Vacant(slot) => {
                slot.insert(InFlightEntry {
                    producer,
                    waiters: Vec::new(),
                });
                true
            }
        }
    }

    /// The miss path's one table access: if a task with this key is in
    /// flight, registers the postponed copy-out `waiter()` builds and returns
    /// the producer's id; otherwise registers `task` as the key's producer
    /// and returns `None`. Both outcomes are decided under a single lock
    /// acquisition, and the waiter — which owns a copy of the task's
    /// accesses — is only built when the task actually joins.
    pub fn join_or_produce(
        &self,
        key: EntryKey,
        task: TaskId,
        waiter: impl FnOnce() -> Waiter,
    ) -> Option<TaskId> {
        let mut inner = self.inner.lock();
        match inner.entry(key) {
            std::collections::hash_map::Entry::Occupied(mut in_flight) => {
                let entry = in_flight.get_mut();
                entry.waiters.push(waiter());
                Some(entry.producer)
            }
            std::collections::hash_map::Entry::Vacant(slot) => {
                slot.insert(InFlightEntry {
                    producer: task,
                    waiters: Vec::new(),
                });
                None
            }
        }
    }

    /// If a task with this key is in flight, registers a postponed copy-out
    /// for `waiter` and returns the producer's id. Otherwise returns `None`.
    pub fn register_waiter(&self, key: &EntryKey, waiter: Waiter) -> Option<TaskId> {
        let mut inner = self.inner.lock();
        inner.get_mut(key).map(|entry| {
            entry.waiters.push(waiter);
            entry.producer
        })
    }

    /// Removes the in-flight entry of `producer` for `key` and returns the
    /// postponed copy-out requests registered against it.
    ///
    /// Returns an empty list if the entry does not exist or belongs to a
    /// different producer (which can only happen if `register_producer`
    /// returned false and the caller retires anyway — a logic error that is
    /// tolerated to keep retirement idempotent).
    pub fn retire(&self, key: &EntryKey, producer: TaskId) -> Vec<Waiter> {
        let mut inner = self.inner.lock();
        match inner.get(key) {
            Some(entry) if entry.producer == producer => {
                inner.remove(key).map(|e| e.waiters).unwrap_or_default()
            }
            _ => Vec::new(),
        }
    }

    /// Number of keys currently in flight.
    pub fn len(&self) -> usize {
        self.inner.lock().len()
    }

    /// True when no key is in flight.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Approximate memory footprint in bytes (keys + waiter bookkeeping).
    pub fn memory_bytes(&self) -> usize {
        let inner = self.inner.lock();
        inner
            .values()
            .map(|entry| {
                std::mem::size_of::<EntryKey>()
                    + std::mem::size_of::<InFlightEntry>()
                    + entry.waiters.len() * std::mem::size_of::<Waiter>()
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atm_runtime::TaskTypeId;

    fn key(hash: u64) -> EntryKey {
        EntryKey::new(TaskTypeId::from_raw(0), hash, 1.0)
    }

    fn waiter(id: u64) -> Waiter {
        Waiter {
            task: TaskId::from_raw(id),
            accesses: vec![],
        }
    }

    #[test]
    fn producer_registration_is_exclusive_per_key() {
        let ikt = InFlightKeyTable::new();
        assert!(ikt.register_producer(key(1), TaskId::from_raw(10)));
        assert!(
            !ikt.register_producer(key(1), TaskId::from_raw(11)),
            "second producer for the same key is rejected"
        );
        assert!(
            ikt.register_producer(key(2), TaskId::from_raw(11)),
            "a different key is fine"
        );
        assert_eq!(ikt.len(), 2);
    }

    #[test]
    fn waiters_are_returned_to_the_right_producer_on_retire() {
        let ikt = InFlightKeyTable::new();
        ikt.register_producer(key(7), TaskId::from_raw(1));
        assert_eq!(
            ikt.register_waiter(&key(7), waiter(2)),
            Some(TaskId::from_raw(1))
        );
        assert_eq!(
            ikt.register_waiter(&key(7), waiter(3)),
            Some(TaskId::from_raw(1))
        );
        assert!(
            ikt.register_waiter(&key(8), waiter(4)).is_none(),
            "no producer in flight for key 8"
        );

        let waiters = ikt.retire(&key(7), TaskId::from_raw(1));
        assert_eq!(waiters.len(), 2);
        assert_eq!(waiters[0].task, TaskId::from_raw(2));
        assert_eq!(waiters[1].task, TaskId::from_raw(3));
        assert!(ikt.is_empty());
    }

    #[test]
    fn join_or_produce_builds_the_waiter_only_when_it_joins() {
        let ikt = InFlightKeyTable::new();
        // Nothing in flight: the task becomes the producer, no waiter built.
        let joined = ikt.join_or_produce(key(3), TaskId::from_raw(1), || {
            unreachable!("no producer in flight, so nothing to wait for")
        });
        assert_eq!(joined, None);
        assert!(
            !ikt.register_producer(key(3), TaskId::from_raw(9)),
            "task 1 holds the key"
        );
        // A twin arrives while task 1 is in flight: it joins as a waiter.
        assert_eq!(
            ikt.join_or_produce(key(3), TaskId::from_raw(2), || waiter(2)),
            Some(TaskId::from_raw(1))
        );
        let waiters = ikt.retire(&key(3), TaskId::from_raw(1));
        assert_eq!(waiters.len(), 1);
        assert_eq!(waiters[0].task, TaskId::from_raw(2));
        assert!(ikt.is_empty());
    }

    #[test]
    fn retire_by_wrong_producer_is_a_noop() {
        let ikt = InFlightKeyTable::new();
        ikt.register_producer(key(5), TaskId::from_raw(1));
        assert!(ikt.retire(&key(5), TaskId::from_raw(99)).is_empty());
        assert_eq!(ikt.len(), 1, "the real producer's entry must survive");
        assert!(ikt.retire(&key(5), TaskId::from_raw(1)).is_empty());
        assert!(ikt.is_empty());
    }

    #[test]
    fn retire_unknown_key_is_a_noop() {
        let ikt = InFlightKeyTable::new();
        assert!(ikt.retire(&key(1), TaskId::from_raw(0)).is_empty());
    }

    #[test]
    fn memory_accounting_counts_entries_and_waiters() {
        let ikt = InFlightKeyTable::new();
        assert_eq!(ikt.memory_bytes(), 0);
        ikt.register_producer(key(1), TaskId::from_raw(1));
        let base = ikt.memory_bytes();
        assert!(base > 0);
        ikt.register_waiter(&key(1), waiter(2));
        assert!(ikt.memory_bytes() > base);
    }
}
