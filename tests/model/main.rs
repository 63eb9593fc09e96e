//! `atm-check` model suite: the workspace's load-bearing hand-rolled
//! protocols (seven live ones, at last count — see CONCURRENCY.md's inventory),
//! encoded as small models and explored by the deterministic model
//! checker in `atm_sync::check`.
//!
//! Each protocol gets (at least) a *positive* model — the shipped
//! discipline, asserted quiescent and race-free across the explored
//! schedule space — and a *negative* model that reintroduces the bug the
//! discipline exists to prevent, asserting the checker actually finds it.
//! The negative halves are what make the positive halves trustworthy: a
//! checker that cannot rediscover a seeded bug proves nothing by passing.
//!
//! The models run in the ordinary test suite (no special `cfg`): they are
//! written directly against the instrumented types in
//! `atm_sync::check::sync`. Building the whole workspace with
//! `RUSTFLAGS='--cfg atm_check'` additionally instruments *production*
//! code, which `ikt_regression` and `memo_store` use to drive the real
//! `TaskGraph` and `MemoStore` under the checker. See `CONCURRENCY.md` for the protocol inventory and the
//! modelling guide.

mod event_reset;
mod frontier_shards;
mod ikt_regression;
mod memo_store;
mod policy_word;
mod region_digest;
mod release;
mod release_packet;
mod sleepers;
mod slot_reuse;
