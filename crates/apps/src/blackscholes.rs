//! Blackscholes: analytic pricing of a portfolio of European options.
//!
//! The PARSEC/PARSECSs benchmark computes the Black–Scholes closed-form
//! price of every option in a portfolio, repeating the whole computation for
//! a number of outer iterations. Its redundancy lives in the program input:
//! the native input file replicates a small pool of distinct option records
//! millions of times, so whole blocks of the portfolio are identical — and
//! every iteration after the first recomputes exactly the same prices
//! (§V-D: "Blackscholes repeats the same algorithm multiple times, the last
//! iterations being redundant"; reuse is 50 % even with a single iteration).
//!
//! Task decomposition: the portfolio is split into blocks; one `bs_thread`
//! task prices one block per iteration (inputs: the block's option records;
//! outputs: the block's prices). `bs_thread` is the memoized task type.

use crate::common::{AppRun, BenchmarkApp, RunOptions, Scale, TableInfo, TaskedRun};
use atm_hash::Xoshiro256StarStar;
use atm_runtime::{MemoSpec, Region, TaskTypeBuilder};
use std::sync::OnceLock;

/// Number of `f32` fields per option record.
pub const FIELDS: usize = 6;
const F_SPOT: usize = 0;
const F_STRIKE: usize = 1;
const F_RATE: usize = 2;
const F_VOLATILITY: usize = 3;
const F_TIME: usize = 4;
const F_TYPE: usize = 5; // 0.0 = call, 1.0 = put

/// Configuration of a Blackscholes instance.
#[derive(Debug, Clone, PartialEq)]
pub struct BlackscholesConfig {
    /// Total number of options in the portfolio.
    pub options: usize,
    /// Options per block (one task prices one block).
    pub block_size: usize,
    /// Number of distinct option records in the generator pool; the
    /// portfolio cycles through the pool, which is what makes whole blocks
    /// repeat (the PARSEC native input behaves the same way).
    pub distinct_options: usize,
    /// Number of outer iterations over the portfolio (PARSEC's `NUM_RUNS`).
    pub iterations: usize,
    /// Seed of the workload generator.
    pub seed: u64,
}

impl BlackscholesConfig {
    /// Configuration for a given scale.
    pub fn for_scale(scale: Scale) -> Self {
        match scale {
            Scale::Tiny => BlackscholesConfig {
                options: 1_024,
                block_size: 128,
                distinct_options: 256,
                iterations: 3,
                seed: 0xB5,
            },
            Scale::Small => BlackscholesConfig {
                options: 65_536,
                block_size: 2_048,
                distinct_options: 8_192,
                iterations: 4,
                seed: 0xB5,
            },
            // The paper uses the PARSEC native input: 10 million options,
            // 393,216 bytes of task input, 6,109 bs_thread tasks.
            Scale::Paper => BlackscholesConfig {
                options: 10_000_000,
                block_size: 16_384,
                distinct_options: 1_000,
                iterations: 100,
                seed: 0xB5,
            },
        }
    }

    /// Number of blocks (tasks per iteration).
    pub fn blocks(&self) -> usize {
        self.options.div_ceil(self.block_size)
    }
}

impl Default for BlackscholesConfig {
    fn default() -> Self {
        Self::for_scale(Scale::Small)
    }
}

/// The cumulative distribution function of the standard normal distribution,
/// implemented with the same polynomial approximation PARSEC uses.
fn cndf(x: f32) -> f32 {
    let sign = x < 0.0;
    let x_abs = x.abs();
    let exp_term = (-0.5 * x_abs * x_abs).exp() * 0.398_942_3_f32;
    let k = 1.0 / (1.0 + 0.231_641_9 * x_abs);
    let poly = k
        * (0.319_381_53
            + k * (-0.356_563_78 + k * (1.781_477_9 + k * (-1.821_255_9 + k * 1.330_274_5))));
    let value = 1.0 - exp_term * poly;
    if sign {
        1.0 - value
    } else {
        value
    }
}

/// Prices one option with the Black–Scholes closed form.
pub fn price_option(record: &[f32]) -> f32 {
    let s = record[F_SPOT];
    let k = record[F_STRIKE];
    let r = record[F_RATE];
    let v = record[F_VOLATILITY];
    let t = record[F_TIME];
    let is_put = record[F_TYPE] > 0.5;

    let sqrt_t = t.sqrt();
    let d1 = ((s / k).ln() + (r + 0.5 * v * v) * t) / (v * sqrt_t);
    let d2 = d1 - v * sqrt_t;
    let n_d1 = cndf(d1);
    let n_d2 = cndf(d2);
    let discounted_k = k * (-r * t).exp();
    if is_put {
        discounted_k * (1.0 - n_d2) - s * (1.0 - n_d1)
    } else {
        s * n_d1 - discounted_k * n_d2
    }
}

/// Prices a block of options (the `bs_thread` kernel body).
pub fn price_block(options: &[f32], prices: &mut [f32]) {
    debug_assert_eq!(options.len(), prices.len() * FIELDS);
    for (i, price) in prices.iter_mut().enumerate() {
        *price = price_option(&options[i * FIELDS..(i + 1) * FIELDS]);
    }
}

/// A generated Blackscholes problem instance.
pub struct Blackscholes {
    config: BlackscholesConfig,
    /// Option records, `FIELDS` floats per option.
    portfolio: Vec<f32>,
    reference: OnceLock<Vec<f64>>,
}

impl Blackscholes {
    /// Generates the portfolio for the given configuration.
    pub fn new(config: BlackscholesConfig) -> Self {
        assert!(config.options > 0 && config.block_size > 0 && config.iterations > 0);
        let mut rng = Xoshiro256StarStar::new(config.seed);
        let distinct = config.distinct_options.max(1);

        // The pool of distinct option records.
        let mut pool = Vec::with_capacity(distinct * FIELDS);
        for _ in 0..distinct {
            let spot = rng.range_f64(10.0, 200.0) as f32;
            let strike = rng.range_f64(10.0, 200.0) as f32;
            let rate = rng.range_f64(0.01, 0.1) as f32;
            let volatility = rng.range_f64(0.05, 0.65) as f32;
            let time = rng.range_f64(0.25, 10.0) as f32;
            let kind = if rng.next_f64() < 0.5 { 0.0 } else { 1.0 };
            pool.extend_from_slice(&[spot, strike, rate, volatility, time, kind]);
        }

        // The portfolio cycles through the pool (repetitive program input).
        let mut portfolio = Vec::with_capacity(config.options * FIELDS);
        for i in 0..config.options {
            let j = i % distinct;
            portfolio.extend_from_slice(&pool[j * FIELDS..(j + 1) * FIELDS]);
        }

        Blackscholes {
            config,
            portfolio,
            reference: OnceLock::new(),
        }
    }

    /// Builds the default instance for a scale.
    pub fn at_scale(scale: Scale) -> Self {
        Self::new(BlackscholesConfig::for_scale(scale))
    }

    /// The configuration of this instance.
    pub fn config(&self) -> &BlackscholesConfig {
        &self.config
    }

    fn block_ranges(&self) -> Vec<std::ops::Range<usize>> {
        let n = self.config.options;
        let bs = self.config.block_size;
        (0..self.config.blocks())
            .map(|b| (b * bs)..(((b + 1) * bs).min(n)))
            .collect()
    }
}

impl BenchmarkApp for Blackscholes {
    fn name(&self) -> &'static str {
        "Blackscholes"
    }

    fn table_info(&self) -> TableInfo {
        TableInfo {
            program_inputs: format!(
                "{} options ({} distinct), {} iterations",
                self.config.options, self.config.distinct_options, self.config.iterations
            ),
            task_input_bytes: self.config.block_size * FIELDS * 4,
            task_input_types: "float".to_string(),
            memoized_task_type: "bs_thread".to_string(),
            num_tasks: (self.config.blocks() * self.config.iterations) as u64,
            correctness_on: "Prices Vector".to_string(),
        }
    }

    fn memo_spec(&self) -> MemoSpec {
        // Table II: L_training = 15, τ_max = 1 %.
        MemoSpec::approximate().tau(0.01).training_window(15)
    }

    fn run_sequential(&self) -> Vec<f64> {
        let mut prices = vec![0.0f32; self.config.options];
        for _ in 0..self.config.iterations {
            for range in self.block_ranges() {
                let opt_range = range.start * FIELDS..range.end * FIELDS;
                price_block(&self.portfolio[opt_range], &mut prices[range]);
            }
        }
        prices.iter().map(|&p| f64::from(p)).collect()
    }

    fn run_tasked(&self, options: &RunOptions) -> AppRun {
        let mut harness = TaskedRun::new(options);
        let rt = harness.runtime();
        let ranges = self.block_ranges();

        // One input region per block of option records, one output region
        // per block of prices.
        let option_regions: Vec<Region<f32>> = ranges
            .iter()
            .enumerate()
            .map(|(b, range)| {
                let data = self.portfolio[range.start * FIELDS..range.end * FIELDS].to_vec();
                rt.store()
                    .register_typed(format!("options[{b}]"), data)
                    .expect("unique name")
            })
            .collect();
        let price_regions: Vec<Region<f32>> = ranges
            .iter()
            .enumerate()
            .map(|(b, range)| {
                rt.store()
                    .register_zeros(format!("prices[{b}]"), range.len())
                    .expect("unique name")
            })
            .collect();

        // The pricing task: the approximation policy travels with the task
        // type, declared next to the kernel and the access signature.
        let bs_thread = rt.register_task_type(
            TaskTypeBuilder::new("bs_thread", |ctx| {
                let options = ctx.arg::<f32>(0);
                let mut prices = vec![0.0f32; options.len() / FIELDS];
                price_block(&options, &mut prices);
                ctx.out(1, &prices);
            })
            .arg::<f32>()
            .out::<f32>()
            .memo(self.memo_spec())
            .build(),
        );

        harness.start_timer();
        for _iter in 0..self.config.iterations {
            // One batched submission per sweep over the portfolio: the
            // runtime validates and wires the whole wave with its internal
            // locks taken once.
            let mut wave = harness.runtime().tasks(bs_thread);
            for (opt_region, price_region) in option_regions.iter().zip(&price_regions) {
                wave = wave.next().reads(opt_region).writes(price_region);
            }
            wave.submit_all()
                .expect("bs_thread submissions match the declared signature");
        }

        harness.finish(move |store| {
            let mut out = Vec::new();
            for region in &price_regions {
                out.extend(store.read(*region).lock().to_f64_vec());
            }
            out
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

    #[test]
    fn cndf_is_a_cdf() {
        assert!((cndf(0.0) - 0.5).abs() < 1e-3);
        assert!(cndf(5.0) > 0.999);
        assert!(cndf(-5.0) < 0.001);
        assert!((cndf(1.0) - 0.8413).abs() < 1e-3);
        assert!((cndf(-1.0) - 0.1587).abs() < 1e-3);
    }

    #[test]
    fn call_put_parity_holds() {
        // C - P = S - K·e^(-rT) for the same parameters.
        let base = [100.0f32, 95.0, 0.05, 0.3, 1.0, 0.0];
        let mut put = base;
        put[F_TYPE] = 1.0;
        let call_price = price_option(&base);
        let put_price = price_option(&put);
        let parity = 100.0f32 - 95.0 * (-0.05f32 * 1.0).exp();
        assert!(
            (call_price - put_price - parity).abs() < 1e-3,
            "put-call parity violated: C={call_price} P={put_price} expected diff {parity}"
        );
    }

    #[test]
    fn deep_in_the_money_call_approaches_intrinsic_value() {
        let record = [200.0f32, 10.0, 0.01, 0.1, 0.5, 0.0];
        let price = price_option(&record);
        let intrinsic = 200.0 - 10.0 * (-0.01f32 * 0.5).exp();
        assert!((price - intrinsic).abs() < 0.5);
    }

    #[test]
    fn generator_is_deterministic_and_repetitive() {
        let a = Blackscholes::at_scale(Scale::Tiny);
        let b = Blackscholes::at_scale(Scale::Tiny);
        assert_eq!(a.portfolio, b.portfolio);
        // The portfolio cycles through the pool: option 0 equals option `distinct`.
        let d = a.config.distinct_options;
        assert_eq!(
            a.portfolio[0..FIELDS],
            a.portfolio[d * FIELDS..(d + 1) * FIELDS]
        );
    }

    #[test]
    fn tasked_matches_sequential_without_atm() {
        let app = Blackscholes::at_scale(Scale::Tiny);
        let run = app.run_tasked(&RunOptions::baseline(2));
        let err = euclidean_relative_error(app.reference(), &run.output);
        assert!(
            err < 1e-12,
            "taskified output must equal the sequential reference, err={err}"
        );
        assert_eq!(run.runtime_stats.executed, run.runtime_stats.submitted);
    }

    #[test]
    fn static_atm_is_exact_and_finds_reuse() {
        let app = Blackscholes::at_scale(Scale::Tiny);
        let run = app.run_tasked(&RunOptions::with_atm(2, AtmConfig::static_atm()));
        assert_eq!(
            app.output_error(&run.output),
            0.0,
            "static ATM must be bit-exact"
        );
        assert!(
            run.reuse_percent() > 50.0,
            "repetitive portfolio + iterations must produce >50% reuse, got {:.1}%",
            run.reuse_percent()
        );
        assert!(run.atm_memory_bytes > 0);
    }

    #[test]
    fn dynamic_atm_trains_and_keeps_correctness_high() {
        let app = Blackscholes::at_scale(Scale::Tiny);
        let run = app.run_tasked(&RunOptions::with_atm(1, AtmConfig::dynamic_atm()));
        let correctness = app.correctness_percent(&run.output);
        assert!(
            correctness > 90.0,
            "dynamic ATM correctness too low: {correctness:.2}%"
        );
        assert!(
            run.atm_stats.training_hits > 0,
            "the training phase must have verified some hits"
        );
        assert_eq!(run.atm_stats.gated, 0, "a type that pays is never gated");
    }

    #[test]
    fn table_info_matches_configuration() {
        let app = Blackscholes::at_scale(Scale::Tiny);
        let info = app.table_info();
        assert_eq!(info.memoized_task_type, "bs_thread");
        assert_eq!(
            info.num_tasks,
            (app.config.blocks() * app.config.iterations) as u64
        );
        assert_eq!(info.task_input_bytes, app.config.block_size * FIELDS * 4);
    }
}
