//! Swaptions: Monte-Carlo pricing of a portfolio of European swaptions under
//! a simplified Heath–Jarrow–Morton (HJM) framework.
//!
//! One `HJM_Swaption_Blocking` task prices one swaption: it simulates many
//! forward-curve paths, computes the swap value at the option maturity on
//! each path and averages the discounted payoff. The Monte-Carlo random
//! stream is seeded deterministically from the swaption's own parameters, so
//! a task is a pure function of its declared inputs — the prerequisite for
//! memoization the paper spells out in §III-E.
//!
//! Redundancy source (§V-D): the portfolio replicates a small pool of
//! distinct swaption records (the PARSEC native input does the same); half
//! of the copies carry tiny perturbations in the low-order mantissa bits,
//! which exact memoization cannot exploit but Dynamic ATM's approximate keys
//! can (the paper reports 7 % reuse for Static ATM vs 20 % for Dynamic ATM).

use crate::common::{AppRun, BenchmarkApp, RunOptions, Scale, TableInfo, TaskedRun};
use atm_hash::{jenkins_hash64, Xoshiro256StarStar};
use atm_runtime::{MemoSpec, Region, TaskTypeBuilder};
use std::sync::OnceLock;

/// Number of points on the initial forward-rate curve carried by every
/// swaption record (the PARSEC task input is ~376 bytes of doubles; 5 scalar
/// parameters + 42 curve points ≈ the same footprint).
pub const CURVE_POINTS: usize = 42;
/// Scalar parameters preceding the curve: strike, maturity, tenor,
/// volatility, number of Monte-Carlo trials.
pub const SCALARS: usize = 5;
/// Total `f64` values in one swaption record.
pub const RECORD_LEN: usize = SCALARS + CURVE_POINTS;

/// Configuration of a Swaptions instance.
#[derive(Debug, Clone, PartialEq)]
pub struct SwaptionsConfig {
    /// Number of swaptions in the portfolio.
    pub swaptions: usize,
    /// Number of distinct swaption records in the generator pool.
    pub distinct: usize,
    /// Monte-Carlo trials per swaption.
    pub trials: usize,
    /// Time steps per simulated path.
    pub steps: usize,
    /// Workload generator seed.
    pub seed: u64,
}

impl SwaptionsConfig {
    /// Configuration for a given scale.
    pub fn for_scale(scale: Scale) -> Self {
        match scale {
            Scale::Tiny => SwaptionsConfig {
                swaptions: 96,
                distinct: 12,
                trials: 128,
                steps: 16,
                seed: 0x5A,
            },
            Scale::Small => SwaptionsConfig {
                swaptions: 256,
                distinct: 48,
                trials: 512,
                steps: 24,
                seed: 0x5A,
            },
            // The paper: the native input enlarged to 512 swaptions, 376
            // bytes of (double) task inputs, 512 HJM_Swaption_Blocking tasks.
            Scale::Paper => SwaptionsConfig {
                swaptions: 512,
                distinct: 64,
                trials: 20_000,
                steps: 50,
                seed: 0x5A,
            },
        }
    }
}

impl Default for SwaptionsConfig {
    fn default() -> Self {
        Self::for_scale(Scale::Small)
    }
}

/// Prices one swaption record with Monte-Carlo simulation of the forward
/// curve. Returns `(price, standard_error)`.
///
/// The record layout is `[strike, maturity, tenor, volatility, trials,
/// curve...]`. The simulation is deterministic: its random stream is seeded
/// from the record's own bytes.
pub fn price_swaption(record: &[f64], steps: usize) -> (f64, f64) {
    assert_eq!(record.len(), RECORD_LEN, "malformed swaption record");
    let strike = record[0];
    let maturity = record[1];
    let tenor = record[2];
    let volatility = record[3];
    let trials = record[4] as usize;
    let curve = &record[SCALARS..];

    // Deterministic per-record seed: the task output must be a pure function
    // of the task inputs for memoization to be sound (§III-E).
    let seed_bytes: Vec<u8> = record.iter().flat_map(|x| x.to_le_bytes()).collect();
    let mut rng = Xoshiro256StarStar::new(jenkins_hash64(&seed_bytes, 0x5AA5));

    let dt = maturity / steps as f64;
    let tenor_points = (tenor.round() as usize).clamp(1, CURVE_POINTS - 1);

    let mut sum = 0.0f64;
    let mut sum_sq = 0.0f64;
    for _ in 0..trials.max(1) {
        // Evolve a flat short-rate factor driving the whole curve
        // (one-factor HJM with constant volatility and drift adjustment).
        let mut shift = 0.0f64;
        let mut discount = 1.0f64;
        for _ in 0..steps {
            let base_rate = curve[0] + shift;
            discount *= (-base_rate.max(0.0) * dt).exp();
            let dz = rng.next_gaussian();
            shift += (-0.5 * volatility * volatility) * dt + volatility * dt.sqrt() * dz;
        }
        // Swap rate at maturity: average of the shifted forward curve over
        // the swap tenor.
        let swap_rate: f64 = curve[..tenor_points]
            .iter()
            .map(|f| (f + shift).max(0.0))
            .sum::<f64>()
            / tenor_points as f64;
        // Annuity of the fixed leg (yearly payments over the tenor).
        let mut annuity = 0.0f64;
        let mut df = discount;
        for rate in curve.iter().take(tenor_points) {
            df *= (-(rate + shift).max(0.0)).exp();
            annuity += df;
        }
        let payoff = (swap_rate - strike).max(0.0) * annuity;
        let discounted = payoff * discount;
        sum += discounted;
        sum_sq += discounted * discounted;
    }
    let n = trials.max(1) as f64;
    let mean = sum / n;
    let variance = (sum_sq / n - mean * mean).max(0.0);
    (mean, (variance / n).sqrt())
}

/// A generated Swaptions problem instance.
pub struct Swaptions {
    config: SwaptionsConfig,
    /// All swaption records, `RECORD_LEN` doubles per swaption.
    portfolio: Vec<f64>,
    reference: OnceLock<Vec<f64>>,
}

impl Swaptions {
    /// Generates the portfolio by cycling a pool of distinct records;
    /// every second replica carries a tiny low-mantissa perturbation.
    pub fn new(config: SwaptionsConfig) -> Self {
        assert!(config.swaptions > 0 && config.distinct > 0);
        let mut rng = Xoshiro256StarStar::new(config.seed);

        // Shared base yield curve, gently upward sloping.
        let base_curve: Vec<f64> = (0..CURVE_POINTS)
            .map(|i| 0.02 + 0.0005 * i as f64 + rng.next_f64() * 1e-4)
            .collect();

        let mut pool = Vec::with_capacity(config.distinct * RECORD_LEN);
        for _ in 0..config.distinct {
            let strike = rng.range_f64(0.015, 0.045);
            let maturity = rng.range_f64(1.0, 5.0).round();
            let tenor = rng.range_f64(2.0, 10.0).round();
            let volatility = rng.range_f64(0.05, 0.25);
            pool.extend_from_slice(&[strike, maturity, tenor, volatility, config.trials as f64]);
            pool.extend_from_slice(&base_curve);
        }

        let mut portfolio = Vec::with_capacity(config.swaptions * RECORD_LEN);
        for i in 0..config.swaptions {
            let j = i % config.distinct;
            let mut record = pool[j * RECORD_LEN..(j + 1) * RECORD_LEN].to_vec();
            let replica = (i / config.distinct) as u64;
            if replica % 2 == 1 {
                // Low-order mantissa perturbation of the strike and the
                // curve, different for every odd replica: invisible to a
                // most-significant-byte hash, but it breaks exact (Static
                // ATM) matching.
                let wobble = replica & 0x7;
                record[0] = f64::from_bits(record[0].to_bits() ^ wobble ^ 0x1);
                for point in record[SCALARS..].iter_mut() {
                    *point = f64::from_bits(point.to_bits() ^ wobble);
                }
            }
            portfolio.extend_from_slice(&record);
        }
        Swaptions {
            config,
            portfolio,
            reference: OnceLock::new(),
        }
    }

    /// Builds the default instance for a scale.
    pub fn at_scale(scale: Scale) -> Self {
        Self::new(SwaptionsConfig::for_scale(scale))
    }

    /// The configuration of this instance.
    pub fn config(&self) -> &SwaptionsConfig {
        &self.config
    }

    fn record(&self, i: usize) -> &[f64] {
        &self.portfolio[i * RECORD_LEN..(i + 1) * RECORD_LEN]
    }
}

impl BenchmarkApp for Swaptions {
    fn name(&self) -> &'static str {
        "Swaptions"
    }

    fn table_info(&self) -> TableInfo {
        TableInfo {
            program_inputs: format!(
                "{} swaptions ({} distinct), {} trials",
                self.config.swaptions, self.config.distinct, self.config.trials
            ),
            task_input_bytes: RECORD_LEN * 8,
            task_input_types: "double".to_string(),
            memoized_task_type: "HJM_Swaption_Blocking".to_string(),
            num_tasks: self.config.swaptions as u64,
            correctness_on: "Prices Vector".to_string(),
        }
    }

    fn memo_spec(&self) -> MemoSpec {
        // Table II: L_training = 15, τ_max = 20 %.
        MemoSpec::approximate().tau(0.20).training_window(15)
    }

    fn run_sequential(&self) -> Vec<f64> {
        let mut prices = Vec::with_capacity(self.config.swaptions);
        for i in 0..self.config.swaptions {
            let (price, _stderr) = price_swaption(self.record(i), self.config.steps);
            prices.push(price);
        }
        prices
    }

    fn run_tasked(&self, options: &RunOptions) -> AppRun {
        let steps = self.config.steps;
        let mut harness = TaskedRun::new(options);
        let rt = harness.runtime();

        let record_regions: Vec<Region<f64>> = (0..self.config.swaptions)
            .map(|i| {
                rt.store()
                    .register_typed(format!("swaption[{i}]"), self.record(i).to_vec())
                    .expect("unique name")
            })
            .collect();
        let result_regions: Vec<Region<f64>> = (0..self.config.swaptions)
            .map(|i| {
                rt.store()
                    .register_zeros(format!("price[{i}]"), 2)
                    .expect("unique name")
            })
            .collect();

        // The approximation policy is declared on the task type, where the
        // kernel is registered.
        let hjm_type = rt.register_task_type(
            TaskTypeBuilder::new("HJM_Swaption_Blocking", move |ctx| {
                let record = ctx.arg::<f64>(0);
                let (price, stderr) = price_swaption(&record, steps);
                ctx.out(1, &[price, stderr]);
            })
            .arg::<f64>()
            .out::<f64>()
            .memo(self.memo_spec())
            .build(),
        );

        harness.start_timer();
        // All swaption pricings are independent: one batch for the whole run.
        let mut wave = harness.runtime().tasks(hjm_type);
        for (record, result) in record_regions.iter().zip(&result_regions) {
            wave = wave.next().reads(record).writes(result);
        }
        wave.submit_all()
            .expect("HJM submissions match the declared signature");

        harness.finish(move |store| {
            result_regions
                .iter()
                .map(|r| store.read(*r).lock().as_f64()[0])
                .collect()
        })
    }

    fn reference(&self) -> &[f64] {
        self.reference.get_or_init(|| self.run_sequential())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atm_core::AtmConfig;
    use atm_metrics::euclidean_relative_error;

    fn test_record(strike: f64, vol: f64) -> Vec<f64> {
        let mut record = vec![strike, 3.0, 5.0, vol, 256.0];
        record.extend((0..CURVE_POINTS).map(|i| 0.03 + 0.0004 * i as f64));
        record
    }

    #[test]
    fn pricing_is_deterministic_for_identical_records() {
        let record = test_record(0.03, 0.15);
        let (p1, e1) = price_swaption(&record, 16);
        let (p2, e2) = price_swaption(&record, 16);
        assert_eq!(p1, p2);
        assert_eq!(e1, e2);
        assert!(p1 >= 0.0, "a payer swaption payoff is never negative");
        assert!(e1 >= 0.0);
    }

    #[test]
    fn deeper_in_the_money_swaptions_are_worth_more() {
        let expensive = price_swaption(&test_record(0.01, 0.15), 16).0;
        let cheap = price_swaption(&test_record(0.05, 0.15), 16).0;
        assert!(
            expensive > cheap,
            "lower strike must give a higher payer swaption price ({expensive} vs {cheap})"
        );
    }

    #[test]
    fn portfolio_replicates_the_pool() {
        let app = Swaptions::at_scale(Scale::Tiny);
        let d = app.config.distinct;
        // The first replica of the pool is exact.
        assert_eq!(app.record(0), app.record(0));
        // Records one pool-cycle apart are perturbed copies: equal in their
        // high-order bytes but not bit-identical.
        let a = app.record(0);
        let b = app.record(d);
        assert_ne!(a, b, "odd replicas carry a low-mantissa perturbation");
        assert!((a[0] - b[0]).abs() < 1e-12, "the perturbation must be tiny");
    }

    #[test]
    fn tasked_matches_sequential_without_atm() {
        let app = Swaptions::at_scale(Scale::Tiny);
        let run = app.run_tasked(&RunOptions::baseline(2));
        let err = euclidean_relative_error(app.reference(), &run.output);
        assert!(err < 1e-12, "taskified Swaptions output mismatch: {err}");
    }

    #[test]
    fn static_atm_is_exact_and_reuses_only_exact_duplicates() {
        let app = Swaptions::at_scale(Scale::Tiny);
        let run = app.run_tasked(&RunOptions::with_atm(1, AtmConfig::static_atm()));
        assert_eq!(
            app.output_error(&run.output),
            0.0,
            "static ATM must be exact"
        );
        // Tiny scale: 96 swaptions, 12 distinct; the even replicas of each
        // pool entry are exact copies, the odd replicas carry distinct
        // perturbations — so exact matching can find at most the even ones.
        let reuse = run.reuse_percent();
        assert!(
            reuse > 5.0 && reuse < 60.0,
            "static reuse should be modest, got {reuse:.1}%"
        );
    }

    #[test]
    fn dynamic_atm_trains_reuses_and_stays_accurate() {
        let app = Swaptions::at_scale(Scale::Tiny);
        let run = app.run_tasked(&RunOptions::with_atm(1, AtmConfig::dynamic_atm()));
        assert!(
            run.atm_stats.training_hits > 0,
            "the training phase must verify some approximations"
        );
        assert!(
            run.reuse_percent() > 0.0,
            "dynamic ATM must bypass some swaptions after training"
        );
        let correctness = app.correctness_percent(&run.output);
        assert!(
            correctness > 90.0,
            "dynamic Swaptions correctness too low: {correctness:.2}%"
        );
        assert_eq!(run.atm_stats.gated, 0, "a type that pays is never gated");
    }

    #[test]
    fn table_info_matches_the_paper_record_shape() {
        let app = Swaptions::at_scale(Scale::Tiny);
        let info = app.table_info();
        assert_eq!(info.task_input_bytes, RECORD_LEN * 8);
        assert_eq!(info.memoized_task_type, "HJM_Swaption_Blocking");
        assert_eq!(info.correctness_on, "Prices Vector");
    }
}
