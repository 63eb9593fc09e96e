//! Eviction policies for the [`MemoStore`](crate::MemoStore).
//!
//! The paper's THT evicts first-in-first-out inside each bucket — the right
//! baseline for a benchmark harness, but at production scale the memo table
//! is a managed cache and *what* gets evicted is a policy decision. The
//! store therefore asks an [`EvictionPolicy`] to pick the victim whenever an
//! entry must go, both for the per-bucket associativity cap and for the
//! global byte budget. Two policies ship with the crate:
//!
//! * [`Fifo`] — evict the oldest entry (the paper-faithful default; with an
//!   unlimited budget this reproduces the THT of §III-A bit for bit);
//! * [`CostAware`] — evict the entry with the lowest benefit density, where
//!   benefit is the measured kernel nanoseconds a hit saves and density is
//!   benefit per resident byte. Fed from the engine's per-type kernel
//!   timing, this keeps expensive-to-recompute, cheap-to-store entries
//!   under memory pressure.

/// Everything a policy may consider about one eviction candidate.
///
/// `inserted_seq` comes from the store's logical clock, which every insertion
/// ticks, so it orders entries by age.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Candidate {
    /// Bytes the entry is charged against the budget.
    pub bytes: usize,
    /// Logical clock value at insertion.
    pub inserted_seq: u64,
    /// Estimated kernel nanoseconds one hit on this entry saves.
    pub benefit_ns: u64,
}

impl Candidate {
    /// Benefit density: saved kernel nanoseconds per resident byte.
    pub fn benefit_per_byte(&self) -> f64 {
        self.benefit_ns as f64 / self.bytes.max(1) as f64
    }
}

/// Picks which entry to evict when the store must free space.
///
/// `victim` receives a non-empty candidate list and returns the index of the
/// entry to evict. Out-of-range indices are clamped by the store.
pub trait EvictionPolicy: Send + Sync + std::fmt::Debug {
    /// Short policy name used in reports and diagnostics.
    fn name(&self) -> &'static str;

    /// Index of the candidate to evict. `candidates` is never empty.
    fn victim(&self, candidates: &[Candidate]) -> usize;
}

/// Selects the candidate minimising `key(c)`; ties go to the oldest entry.
fn argmin_by<K: PartialOrd>(candidates: &[Candidate], key: impl Fn(&Candidate) -> K) -> usize {
    let mut best = 0usize;
    for (i, c) in candidates.iter().enumerate().skip(1) {
        let kb = key(&candidates[best]);
        let kc = key(c);
        if kc < kb || (kc == kb && c.inserted_seq < candidates[best].inserted_seq) {
            best = i;
        }
    }
    best
}

/// First-in-first-out: evict the entry inserted longest ago.
#[derive(Debug, Default, Clone, Copy)]
pub struct Fifo;

impl EvictionPolicy for Fifo {
    fn name(&self) -> &'static str {
        "fifo"
    }

    fn victim(&self, candidates: &[Candidate]) -> usize {
        argmin_by(candidates, |c| c.inserted_seq)
    }
}

/// Cost-aware: evict the entry with the lowest saved-nanoseconds-per-byte.
#[derive(Debug, Default, Clone, Copy)]
pub struct CostAware;

impl EvictionPolicy for CostAware {
    fn name(&self) -> &'static str {
        "cost-aware"
    }

    fn victim(&self, candidates: &[Candidate]) -> usize {
        argmin_by(candidates, |c| c.benefit_per_byte())
    }
}

/// The built-in policies, as a plain-data configuration value.
///
/// [`crate::StoreConfig`] (and the engine's `AtmConfig` above it) stay
/// `Copy`-able plain data; the store instantiates the boxed
/// [`EvictionPolicy`] from this tag at construction time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PolicyKind {
    /// [`Fifo`] (the paper-faithful default).
    #[default]
    Fifo,
    /// [`CostAware`].
    CostAware,
}

impl PolicyKind {
    /// Instantiates the policy.
    pub fn build(self) -> Box<dyn EvictionPolicy> {
        match self {
            PolicyKind::Fifo => Box::new(Fifo),
            PolicyKind::CostAware => Box::new(CostAware),
        }
    }

    /// Short name, matching [`EvictionPolicy::name`].
    pub fn name(self) -> &'static str {
        match self {
            PolicyKind::Fifo => "fifo",
            PolicyKind::CostAware => "cost-aware",
        }
    }

    /// All built-in policies (for sweeps in the evaluation harness).
    pub const ALL: [PolicyKind; 2] = [PolicyKind::Fifo, PolicyKind::CostAware];
}

impl std::fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn candidate(bytes: usize, inserted: u64, benefit: u64) -> Candidate {
        Candidate {
            bytes,
            inserted_seq: inserted,
            benefit_ns: benefit,
        }
    }

    #[test]
    fn fifo_picks_the_oldest() {
        let c = [
            candidate(10, 5, 100),
            candidate(10, 2, 100),
            candidate(10, 7, 100),
        ];
        assert_eq!(Fifo.victim(&c), 1);
    }

    #[test]
    fn cost_aware_picks_the_lowest_benefit_density() {
        let c = [
            candidate(10, 0, 1_000),    // 100 ns/byte
            candidate(1_000, 1, 1_000), // 1 ns/byte  <- victim
            candidate(10, 2, 10_000),   // 1000 ns/byte
        ];
        assert_eq!(CostAware.victim(&c), 1);
    }

    #[test]
    fn ties_break_towards_the_oldest_entry() {
        let c = [candidate(10, 9, 50), candidate(10, 1, 50)];
        assert_eq!(CostAware.victim(&c), 1);
    }

    #[test]
    fn kinds_build_matching_policies() {
        for kind in PolicyKind::ALL {
            assert_eq!(kind.build().name(), kind.name());
            assert_eq!(format!("{kind}"), kind.name());
        }
        assert_eq!(PolicyKind::default(), PolicyKind::Fifo);
    }
}
