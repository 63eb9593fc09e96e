//! End-to-end memoization benchmark: the same (tiny) application run with
//! the baseline runtime, Static ATM and Dynamic ATM. The relative ordering
//! of these three bars is the headline result of the paper (Figure 3) in
//! miniature. Blackscholes is the app where memoization always pays; Jacobi
//! is its never-profitable counterpart (1–3 % reuse): static ATM keys every
//! task of it and loses, dynamic ATM's profitability ledger closes the type
//! and must land beside the baseline.
//!
//! Run with: `cargo bench --bench memoization_e2e`

use atm_apps::blackscholes::{Blackscholes, BlackscholesConfig};
use atm_apps::stencil::{Stencil, StencilConfig, StencilVariant};
use atm_apps::{BenchmarkApp, RunOptions, Scale};
use atm_core::AtmConfig;
use atm_eval::bench;

fn three_bars(group: &str, app: &dyn BenchmarkApp) {
    bench(group, "baseline", || {
        let _ = app.run_tasked(&RunOptions::baseline(2));
    });
    bench(group, "static_atm", || {
        let _ = app.run_tasked(&RunOptions::with_atm(2, AtmConfig::static_atm()));
    });
    bench(group, "dynamic_atm", || {
        let _ = app.run_tasked(&RunOptions::with_atm(2, AtmConfig::dynamic_atm()));
    });
}

fn main() {
    three_bars(
        "blackscholes_e2e",
        &Blackscholes::new(BlackscholesConfig::for_scale(Scale::Tiny)),
    );
    three_bars(
        "stencil_e2e",
        &Stencil::new(
            StencilVariant::Jacobi,
            StencilConfig::for_scale(Scale::Small),
        ),
    );
}
