//! # atm-store — the memo store behind the ATM Task History Table
//!
//! The paper's THT (§III-A, Figure 1) is an in-memory `2^N`-bucket, `M`-way
//! FIFO cache that is rebuilt from scratch on every run and can only bound
//! memory per bucket. This crate turns that benchmark-harness structure into
//! a managed subsystem the rest of the workspace builds on:
//!
//! * [`MemoStore`] — `2^N` buckets of at most `M` entries, one `RwLock`
//!   each, with a **global byte budget** enforced across buckets (the
//!   paper's `(N, M)` geometry is one configuration of [`StoreConfig`]);
//! * **FIFO eviction** — the paper's rule, for the per-bucket `ways` cap
//!   and the global budget alike;
//! * **admission control** — an entry whose charge exceeds the whole budget
//!   is refused;
//! * **persistence** ([`persist`]) — a versioned, checksummed,
//!   dependency-free binary snapshot format ([`MemoStore::save_to`] /
//!   [`MemoStore::load_from`]) so a run can warm-start from a previous
//!   run's table;
//! * [`snapshot::OutputSnapshot`] — the copied task outputs the store
//!   holds (moved here from `atm-core` so the store owns its value type).
//!
//! ```
//! use atm_store::{EntryKey, MemoStore, StoreConfig};
//! use atm_store::snapshot::OutputSnapshot;
//! use atm_runtime::{Access, DataStore, TaskId, TaskTypeId};
//! use std::sync::Arc;
//!
//! let data = DataStore::new();
//! let region = data.register_typed("out", vec![1.0f64, 2.0]).unwrap();
//! let outputs = Arc::new(vec![OutputSnapshot::capture(&data, &Access::write(&region))]);
//!
//! let store = MemoStore::new(StoreConfig::default().with_byte_budget(64 * 1024));
//! let key = EntryKey::new(TaskTypeId::from_raw(0), 0xFEED, 1.0);
//! store.insert(key, TaskId::from_raw(0), outputs, 12_000);
//! assert!(store.lookup(&key).is_some());
//! assert_eq!(store.counters().hits, 1);
//! ```

#![warn(missing_docs)]

pub mod persist;
pub mod snapshot;
pub mod store;

pub use persist::PersistError;
pub use snapshot::OutputSnapshot;
pub use store::{
    entry_charge_bytes, EntryKey, ExportedEntry, InsertOutcome, MemoHit, MemoStore, StoreConfig,
    StoreCountersSnapshot,
};
