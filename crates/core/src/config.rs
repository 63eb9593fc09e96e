//! The engine's configuration: the engine-wide operating mode and the
//! sizing and byte budget of the memo store behind the THT.

use crate::tht::ThtConfig;
use atm_store::StoreConfig;

/// Engine-wide operating mode: the paper's three evaluation modes.
///
/// Approximation policy lives on the task type: each memoizable type
/// declares whether it is exact, adaptive or fixed-precision, with its own
/// `τ_max`, training window and exact arguments
/// ([`MemoSpec`](atm_runtime::MemoSpec)). `AtmMode` says how an
/// engine treats those declarations:
///
/// * [`AtmMode::Dynamic`] — **respect the per-type specs** (the normal
///   production mode). A type whose spec is
///   [`MemoSpec::approximate`](atm_runtime::MemoSpec::approximate) trains exactly as the paper's Dynamic ATM
///   did, so `AtmConfig::dynamic_atm()` with default specs reproduces the
///   pre-redesign behaviour bit for bit.
/// * [`AtmMode::Static`] — force exact memoization (`p = 100 %`) on every
///   memoizable type, ignoring the specs (the paper's Static ATM bars).
/// * [`AtmMode::FixedP`] — force one constant `p` on every memoizable
///   type, ignoring the specs (the evaluation's Oracle sweeps).
///
/// The paper's no-ATM baseline is no engine at all: a runtime without an
/// interceptor executes every task.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AtmMode {
    /// Override: exact memoization with `p = 100 %` for every memoizable
    /// type (§III-B). Guarantees bit-identical results.
    Static,
    /// Respect each task type's [`MemoSpec`](atm_runtime::MemoSpec) (approximate specs train their
    /// own `p` against their own `τ_max`, §III-D). The default specs make
    /// this the paper's Dynamic ATM.
    Dynamic,
    /// Override: a fixed selection percentage for every memoizable type —
    /// the "Oracle" configurations of the evaluation (Figures 3–6) are
    /// produced by sweeping this mode over the 16 values of the training
    /// ladder.
    FixedP(f64),
}

/// Engine configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AtmConfig {
    /// Operating mode.
    pub mode: AtmMode,
    /// Whether the In-flight Key Table is used (Figure 3 separates THT-only
    /// from THT+IKT configurations).
    pub use_ikt: bool,
    /// Task History Table sizing.
    pub tht: ThtConfig,
    /// Global byte budget of the memo store, enforced across all buckets.
    /// `None` (the default) disables budget enforcement, and the store is
    /// then the paper's table bit for bit.
    pub byte_budget: Option<usize>,
}

impl Default for AtmConfig {
    fn default() -> Self {
        AtmConfig {
            mode: AtmMode::Static,
            use_ikt: true,
            tht: ThtConfig::default(),
            byte_budget: None,
        }
    }
}

impl AtmConfig {
    /// Static ATM (exact memoization).
    pub fn static_atm() -> Self {
        AtmConfig {
            mode: AtmMode::Static,
            ..Default::default()
        }
    }

    /// Dynamic ATM (adaptive approximation).
    pub fn dynamic_atm() -> Self {
        AtmConfig {
            mode: AtmMode::Dynamic,
            ..Default::default()
        }
    }

    /// Oracle-style fixed selection percentage.
    pub fn fixed_p(p: f64) -> Self {
        AtmConfig {
            mode: AtmMode::FixedP(p),
            ..Default::default()
        }
    }

    /// Disables the IKT (THT-only configurations of Figure 3).
    #[must_use]
    pub fn without_ikt(mut self) -> Self {
        self.use_ikt = false;
        self
    }

    /// Overrides the THT sizing.
    #[must_use]
    pub fn with_tht(mut self, tht: ThtConfig) -> Self {
        self.tht = tht;
        self
    }

    /// Caps the memo store at a global byte budget.
    #[must_use]
    pub fn with_byte_budget(mut self, budget: usize) -> Self {
        self.byte_budget = Some(budget);
        self
    }

    /// The memo-store configuration this engine configuration describes.
    pub fn store_config(&self) -> StoreConfig {
        StoreConfig {
            bucket_bits: self.tht.bucket_bits,
            ways: self.tht.ways,
            byte_budget: self.byte_budget,
        }
    }
}
