//! Kmeans: unsupervised clustering of N d-dimensional points into k groups.
//!
//! Each iteration, one `kmeans_calculate` task assigns a block of points to
//! their closest centres and accumulates per-cluster partial sums; a second,
//! non-memoized task type reduces the partial sums into the new centres.
//!
//! Redundancy source (§V-D): the centres change every iteration, so *exact*
//! memoization finds nothing (the paper shows Static ATM slowing Kmeans
//! down). But clusters converge at different speeds: once a centre has
//! (almost) stopped moving, the distance computations of the blocks it
//! dominates are redundant — redundancy that only *approximate* memoization
//! with a small selection percentage `p` can exploit. Kmeans is also the
//! benchmark that needs the larger THT associativity (M = 128) and the
//! relaxed τ_max = 20 % of Table II.

use crate::common::{AppRun, BenchmarkApp, RunOptions, Scale, TableInfo, TaskedRun};
use atm_hash::Xoshiro256StarStar;
use atm_runtime::{MemoSpec, Region, TaskTypeBuilder};
use std::sync::OnceLock;

/// Configuration of a Kmeans instance.
#[derive(Debug, Clone, PartialEq)]
pub struct KmeansConfig {
    /// Number of points.
    pub points: usize,
    /// Dimensionality of each point.
    pub dims: usize,
    /// Number of clusters.
    pub clusters: usize,
    /// Points per `kmeans_calculate` task.
    pub block_size: usize,
    /// Number of Lloyd iterations.
    pub iterations: usize,
    /// Workload generator seed.
    pub seed: u64,
}

impl KmeansConfig {
    /// Configuration for a given scale.
    pub fn for_scale(scale: Scale) -> Self {
        match scale {
            Scale::Tiny => KmeansConfig {
                points: 2_048,
                dims: 8,
                clusters: 4,
                block_size: 256,
                iterations: 5,
                seed: 0x4B,
            },
            Scale::Small => KmeansConfig {
                points: 16_384,
                dims: 16,
                clusters: 8,
                block_size: 1_024,
                iterations: 10,
                seed: 0x4B,
            },
            // The paper: 2·10⁶ points, 16 centres, 100 dimensions, 39,063
            // kmeans_calculate tasks, 219,716 bytes of task input.
            Scale::Paper => KmeansConfig {
                points: 2_000_000,
                dims: 100,
                clusters: 16,
                block_size: 512,
                iterations: 20,
                seed: 0x4B,
            },
        }
    }

    /// Number of point blocks (= `kmeans_calculate` tasks per iteration).
    pub fn blocks(&self) -> usize {
        self.points.div_ceil(self.block_size)
    }
}

impl Default for KmeansConfig {
    fn default() -> Self {
        Self::for_scale(Scale::Small)
    }
}

/// Computes the per-cluster partial sums and counts of one block of points.
///
/// The output layout is `clusters × dims` sums followed by `clusters` counts.
pub fn assign_block(points: &[f32], centers: &[f32], dims: usize, clusters: usize) -> Vec<f32> {
    debug_assert_eq!(centers.len(), clusters * dims);
    let mut partial = vec![0.0f32; clusters * dims + clusters];
    for point in points.chunks_exact(dims) {
        let mut best = 0usize;
        let mut best_dist = f32::INFINITY;
        for c in 0..clusters {
            let center = &centers[c * dims..(c + 1) * dims];
            let mut dist = 0.0f32;
            for (p, q) in point.iter().zip(center) {
                let d = p - q;
                dist += d * d;
            }
            if dist < best_dist {
                best_dist = dist;
                best = c;
            }
        }
        for (j, &p) in point.iter().enumerate() {
            partial[best * dims + j] += p;
        }
        partial[clusters * dims + best] += 1.0;
    }
    partial
}

/// Reduces per-block partial sums into new centres. Clusters that received
/// no points keep their previous centre.
pub fn reduce_centers(
    partials: &[Vec<f32>],
    old_centers: &[f32],
    dims: usize,
    clusters: usize,
) -> Vec<f32> {
    let mut sums = vec![0.0f32; clusters * dims];
    let mut counts = vec![0.0f32; clusters];
    for partial in partials {
        for c in 0..clusters {
            for j in 0..dims {
                sums[c * dims + j] += partial[c * dims + j];
            }
            counts[c] += partial[clusters * dims + c];
        }
    }
    let mut new_centers = old_centers.to_vec();
    for c in 0..clusters {
        if counts[c] > 0.0 {
            for j in 0..dims {
                new_centers[c * dims + j] = sums[c * dims + j] / counts[c];
            }
        }
    }
    new_centers
}

/// A generated Kmeans problem instance.
pub struct Kmeans {
    config: KmeansConfig,
    /// All points, `dims` floats per point.
    points: Vec<f32>,
    /// Initial centres.
    initial_centers: Vec<f32>,
    reference: OnceLock<Vec<f64>>,
}

impl Kmeans {
    /// Generates points around `clusters` well-separated true centres.
    pub fn new(config: KmeansConfig) -> Self {
        assert!(config.points > 0 && config.dims > 0 && config.clusters > 0);
        let mut rng = Xoshiro256StarStar::new(config.seed);
        // True cluster centres on a coarse grid, clearly separated.
        let true_centers: Vec<Vec<f32>> = (0..config.clusters)
            .map(|c| {
                (0..config.dims)
                    .map(|j| ((c * 7 + j * 3) % 13) as f32 * 2.0)
                    .collect()
            })
            .collect();
        // The clusters overlap substantially (σ = 2.5 against a grid spacing
        // of 2): boundary points keep switching clusters for many Lloyd
        // iterations, so the centres never become bit-identical between
        // iterations — which is why exact memoization cannot help Kmeans and
        // only approximate memoization can (the paper's observation).
        let mut points = Vec::with_capacity(config.points * config.dims);
        for i in 0..config.points {
            let center = &true_centers[i % config.clusters];
            for &coord in center {
                points.push(coord + rng.next_gaussian() as f32 * 2.5);
            }
        }
        // Initial centres: `clusters` points drawn from the *same* true
        // cluster (indices 0, k, 2k, … all fall on cluster 0 because the
        // generator cycles through the true centres). This is a deliberately
        // poor initialisation: Lloyd's algorithm needs many iterations to
        // spread the centres out, so the centres keep changing throughout
        // the run and exact memoization finds nothing — matching the paper's
        // observation that only approximation helps Kmeans.
        let mut initial_centers = Vec::with_capacity(config.clusters * config.dims);
        for c in 0..config.clusters {
            let idx = c * config.clusters;
            initial_centers.extend_from_slice(&points[idx * config.dims..(idx + 1) * config.dims]);
        }
        Kmeans {
            config,
            points,
            initial_centers,
            reference: OnceLock::new(),
        }
    }

    /// Builds the default instance for a scale.
    pub fn at_scale(scale: Scale) -> Self {
        Self::new(KmeansConfig::for_scale(scale))
    }

    /// The configuration of this instance.
    pub fn config(&self) -> &KmeansConfig {
        &self.config
    }

    fn block_ranges(&self) -> Vec<std::ops::Range<usize>> {
        let n = self.config.points;
        let bs = self.config.block_size;
        (0..self.config.blocks())
            .map(|b| (b * bs)..((b + 1) * bs).min(n))
            .collect()
    }

    fn partial_len(&self) -> usize {
        self.config.clusters * self.config.dims + self.config.clusters
    }
}

impl BenchmarkApp for Kmeans {
    fn name(&self) -> &'static str {
        "Kmeans"
    }

    fn table_info(&self) -> TableInfo {
        // Task inputs: the block of points plus the centres.
        let bytes = (self.config.block_size * self.config.dims
            + self.config.clusters * self.config.dims)
            * 4;
        TableInfo {
            program_inputs: format!(
                "{} points, {} centers, {} dimensions, {} iterations",
                self.config.points, self.config.clusters, self.config.dims, self.config.iterations
            ),
            task_input_bytes: bytes,
            task_input_types: "float, int".to_string(),
            memoized_task_type: "kmeans_calculate".to_string(),
            num_tasks: (self.config.blocks() * self.config.iterations) as u64,
            correctness_on: "Centers Vector".to_string(),
        }
    }

    fn memo_spec(&self) -> MemoSpec {
        // Table II: L_training = 15, τ_max = 20 %. The points block
        // (argument 0) is a repeated, never-changing program input whose
        // identity must be preserved exactly; only the converging centres
        // (argument 1) benefit from approximate hashing, so the spec pins
        // the points argument to exact precision.
        MemoSpec::approximate()
            .tau(0.20)
            .training_window(15)
            .arg_exact(0)
    }

    fn run_sequential(&self) -> Vec<f64> {
        let d = self.config.dims;
        let k = self.config.clusters;
        let mut centers = self.initial_centers.clone();
        for _ in 0..self.config.iterations {
            let partials: Vec<Vec<f32>> = self
                .block_ranges()
                .iter()
                .map(|r| assign_block(&self.points[r.start * d..r.end * d], &centers, d, k))
                .collect();
            centers = reduce_centers(&partials, &centers, d, k);
        }
        centers.iter().map(|&c| f64::from(c)).collect()
    }

    fn run_tasked(&self, options: &RunOptions) -> AppRun {
        let d = self.config.dims;
        let k = self.config.clusters;
        let mut harness = TaskedRun::new(options);
        let rt = harness.runtime();
        let ranges = self.block_ranges();

        let point_regions: Vec<Region<f32>> = ranges
            .iter()
            .enumerate()
            .map(|(b, r)| {
                rt.store()
                    .register_typed(
                        format!("points[{b}]"),
                        self.points[r.start * d..r.end * d].to_vec(),
                    )
                    .expect("unique name")
            })
            .collect();
        let centers_region = rt
            .store()
            .register_typed("centers", self.initial_centers.clone())
            .expect("unique name");
        let partial_regions: Vec<Region<f32>> = (0..ranges.len())
            .map(|b| {
                rt.store()
                    .register_zeros(format!("partials[{b}]"), self.partial_len())
                    .expect("unique name")
            })
            .collect();

        let calculate = rt.register_task_type(
            TaskTypeBuilder::new("kmeans_calculate", move |ctx| {
                let points = ctx.arg::<f32>(0);
                let centers = ctx.arg::<f32>(1);
                let partial = assign_block(&points, &centers, d, k);
                ctx.out(2, &partial);
            })
            .arg::<f32>()
            .arg::<f32>()
            .out::<f32>()
            .memo(self.memo_spec())
            .build(),
        );
        let reduce = rt.register_task_type(
            TaskTypeBuilder::new("kmeans_reduce", move |ctx| {
                // Accesses: 0 = centres (inout), 1.. = partial blocks (in).
                let old_centers = ctx.arg::<f32>(0);
                let partials: Vec<Vec<f32>> = (1..ctx.accesses().len())
                    .map(|i| ctx.arg::<f32>(i))
                    .collect();
                let new_centers = reduce_centers(&partials, &old_centers, d, k);
                ctx.out(0, &new_centers);
            })
            .inout::<f32>()
            .variadic_args::<f32>(1)
            .build(),
        );

        harness.start_timer();
        for _iter in 0..self.config.iterations {
            // One batch per iteration: all calculate tasks plus the fan-in
            // reduce task, submitted with one validation/dependence pass.
            let mut wave = harness.runtime().batch();
            for (points, partial) in point_regions.iter().zip(&partial_regions) {
                wave = wave
                    .task(calculate)
                    .reads(points)
                    .reads(&centers_region)
                    .writes(partial);
            }
            wave = wave.task(reduce).reads_writes(&centers_region);
            for partial in &partial_regions {
                wave = wave.reads(partial);
            }
            wave.submit_all()
                .expect("kmeans submissions match the declared signatures");
        }

        harness.finish(move |store| store.read(centers_region).lock().to_f64_vec())
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
    fn assign_block_matches_hand_computation() {
        // Two 2-d points, two centres at (0,0) and (10,10).
        let points = vec![1.0, 1.0, 9.0, 9.0];
        let centers = vec![0.0, 0.0, 10.0, 10.0];
        let partial = assign_block(&points, &centers, 2, 2);
        // Point (1,1) -> cluster 0, point (9,9) -> cluster 1.
        assert_eq!(partial, vec![1.0, 1.0, 9.0, 9.0, 1.0, 1.0]);
    }

    #[test]
    fn reduce_centers_averages_assigned_points() {
        let partials = vec![
            vec![2.0, 4.0, 0.0, 0.0, 2.0, 0.0],
            vec![4.0, 8.0, 0.0, 0.0, 2.0, 0.0],
        ];
        let old = vec![9.0, 9.0, 5.0, 5.0];
        let new = reduce_centers(&partials, &old, 2, 2);
        // Cluster 0: sums (6, 12) over 4 points -> (1.5, 3). Cluster 1 kept.
        assert_eq!(new, vec![1.5, 3.0, 5.0, 5.0]);
    }

    #[test]
    fn sequential_kmeans_produces_distinct_in_range_centres() {
        let app = Kmeans::at_scale(Scale::Tiny);
        let centers = app.run_sequential();
        let d = app.config.dims;
        let k = app.config.clusters;
        // Centres must stay inside the data range (the grid spans 0..26 plus noise).
        assert!(
            centers.iter().all(|&x| (-10.0..36.0).contains(&x)),
            "centres escaped the data range"
        );
        // And the k centres must be pairwise distinct (no cluster collapse).
        for a in 0..k {
            for b in a + 1..k {
                let dist: f64 = (0..d)
                    .map(|j| (centers[a * d + j] - centers[b * d + j]).powi(2))
                    .sum::<f64>();
                assert!(dist > 1e-3, "centres {a} and {b} collapsed onto each other");
            }
        }
    }

    #[test]
    fn tasked_matches_sequential_without_atm() {
        let app = Kmeans::at_scale(Scale::Tiny);
        let run = app.run_tasked(&RunOptions::baseline(2));
        let err = euclidean_relative_error(app.reference(), &run.output);
        assert!(err < 1e-12, "taskified Kmeans output mismatch: {err}");
    }

    #[test]
    fn static_atm_is_exact_but_finds_little_reuse() {
        let app = Kmeans::at_scale(Scale::Tiny);
        let run = app.run_tasked(&RunOptions::with_atm(2, AtmConfig::static_atm()));
        assert_eq!(
            app.output_error(&run.output),
            0.0,
            "static ATM must be exact"
        );
        // The centres change every iteration, so exact memoization finds
        // much less than approximate memoization could — the paper's
        // observation for Kmeans.
        assert!(
            run.reuse_percent() < 50.0,
            "exact reuse should be scarce for Kmeans, got {:.1}%",
            run.reuse_percent()
        );
    }

    #[test]
    fn dynamic_atm_stays_within_the_relaxed_error_budget() {
        let app = Kmeans::at_scale(Scale::Tiny);
        let run = app.run_tasked(&RunOptions::with_atm(1, AtmConfig::dynamic_atm()));
        let correctness = app.correctness_percent(&run.output);
        assert!(
            correctness > 80.0,
            "Kmeans dynamic correctness too low: {correctness:.2}%"
        );
        assert_eq!(run.atm_stats.gated, 0, "a type that pays is never gated");
    }

    #[test]
    fn table_info_counts_only_calculate_tasks() {
        let app = Kmeans::at_scale(Scale::Tiny);
        let info = app.table_info();
        assert_eq!(
            info.num_tasks,
            (app.config.blocks() * app.config.iterations) as u64
        );
        assert_eq!(info.memoized_task_type, "kmeans_calculate");
    }
}
