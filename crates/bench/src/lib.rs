//! Evaluation harness for the ATM reproduction.
//!
//! This crate regenerates every table and figure of the paper's evaluation
//! section (§IV-B, §V, Tables I–III, Figures 3–9) from the Rust
//! implementation. Each experiment is a function returning a [`Report`]
//! (a human-readable text block plus machine-readable CSV rows); the
//! `atm-eval` binary selects experiments from the command line and can dump
//! the CSVs next to the textual output.
//!
//! Absolute numbers are not expected to match the paper (different machine,
//! scaled-down inputs, a from-scratch runtime); the *shape* of each result —
//! which configuration wins, by roughly what factor, where the cliffs are —
//! is what the harness is meant to reproduce. See `EXPERIMENTS.md` at the
//! repository root for a paper-vs-measured discussion.

#![warn(missing_docs)]

pub mod experiments;
pub mod measure;
pub mod microbench;
pub mod report;
pub mod trace_capture;

pub use experiments::{all_experiments, run_experiment, Experiment};
pub use measure::{EvalContext, Measurement, OracleTable, PSweepEntry};
pub use microbench::{bench, BenchResult};
pub use report::Report;
