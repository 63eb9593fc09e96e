//! Gauss-Seidel and Jacobi: 2D five-point stencil heat-diffusion solvers.
//!
//! The matrix is decomposed into square blocks; one `stencilComputation`
//! task updates one block per iteration. As in the paper, the rows/columns a
//! block needs from its neighbours are obtained through separate *copy
//! tasks* that fill per-block halo regions; only the heat-diffusion task
//! type is memoized, not the copy tasks (§IV-A). The walls around the matrix
//! emit heat at a fixed temperature.
//!
//! * **Gauss-Seidel** updates the matrix in place: through the dataflow
//!   dependences of the halo copies, a block consumes the left/upper
//!   neighbours as already updated in the current iteration and the
//!   right/lower neighbours from the previous one (the classic wavefront).
//! * **Jacobi** reads from an "old" copy of the matrix and writes a "new"
//!   copy, with a synchronisation at the end of every iteration and no
//!   dependences between tasks of the same iteration.
//!
//! Redundancy sources (§V-D): the heat front advances only one cell per
//! sweep, so blocks (and the halos they receive) far from the walls remain
//! unchanged for many iterations; and the initialisation is saturated to a
//! few discrete levels, which makes many block neighbourhoods identical to
//! each other from the start.

use crate::common::{AppRun, BenchmarkApp, RunOptions, Scale, TableInfo, TaskedRun};
use atm_hash::Xoshiro256StarStar;
use atm_runtime::{MemoSpec, Region, Runtime, TaskTypeBuilder, TaskTypeId};
use std::sync::OnceLock;

/// Which stencil solver to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StencilVariant {
    /// In-place Gauss-Seidel sweep.
    GaussSeidel,
    /// Two-buffer Jacobi sweep with per-iteration synchronisation.
    Jacobi,
}

/// Configuration of a stencil instance.
#[derive(Debug, Clone, PartialEq)]
pub struct StencilConfig {
    /// Blocks per side (the matrix is `blocks × blocks` blocks).
    pub blocks: usize,
    /// Elements per block side (each block is `block_size × block_size`).
    pub block_size: usize,
    /// Number of sweeps over the matrix.
    pub iterations: usize,
    /// Temperature of the walls surrounding the matrix.
    pub wall_temperature: f32,
    /// Number of discrete levels the random initialisation saturates to
    /// (1 = the whole room starts at the same temperature).
    pub init_levels: usize,
    /// Workload generator seed.
    pub seed: u64,
}

impl StencilConfig {
    /// Configuration for a given scale.
    pub fn for_scale(scale: Scale) -> Self {
        match scale {
            Scale::Tiny => StencilConfig {
                blocks: 4,
                block_size: 16,
                iterations: 4,
                wall_temperature: 1.0,
                init_levels: 1,
                seed: 0x57E,
            },
            Scale::Small => StencilConfig {
                blocks: 8,
                block_size: 48,
                iterations: 8,
                wall_temperature: 1.0,
                init_levels: 2,
                seed: 0x57E,
            },
            // The paper: 32×32 blocks of 1024×1024 elements (≈4 GiB), 20,480
            // stencilComputation tasks, 4,210,688 bytes of task input.
            Scale::Paper => StencilConfig {
                blocks: 32,
                block_size: 1024,
                iterations: 20,
                wall_temperature: 1.0,
                init_levels: 3,
                seed: 0x57E,
            },
        }
    }

    /// Elements per block.
    pub fn block_elems(&self) -> usize {
        self.block_size * self.block_size
    }
}

impl Default for StencilConfig {
    fn default() -> Self {
        Self::for_scale(Scale::Small)
    }
}

/// Jacobi block update. The halo slices hold, in order, the row the block
/// sees above itself, below itself, to its left and to its right (each
/// `block_size` elements).
pub fn jacobi_block(
    old_center: &[f32],
    halo_up: &[f32],
    halo_down: &[f32],
    halo_left: &[f32],
    halo_right: &[f32],
    bs: usize,
) -> Vec<f32> {
    let mut new = vec![0.0f32; bs * bs];
    for r in 0..bs {
        for c in 0..bs {
            let v_up = if r > 0 {
                old_center[(r - 1) * bs + c]
            } else {
                halo_up[c]
            };
            let v_down = if r + 1 < bs {
                old_center[(r + 1) * bs + c]
            } else {
                halo_down[c]
            };
            let v_left = if c > 0 {
                old_center[r * bs + c - 1]
            } else {
                halo_left[r]
            };
            let v_right = if c + 1 < bs {
                old_center[r * bs + c + 1]
            } else {
                halo_right[r]
            };
            new[r * bs + c] = 0.25 * (v_up + v_down + v_left + v_right);
        }
    }
    new
}

/// Gauss-Seidel block update: updates the block in place (cells consume the
/// already-updated values of cells above / to the left of them).
pub fn gauss_seidel_block(
    center: &mut [f32],
    halo_up: &[f32],
    halo_down: &[f32],
    halo_left: &[f32],
    halo_right: &[f32],
    bs: usize,
) {
    for r in 0..bs {
        for c in 0..bs {
            let v_up = if r > 0 {
                center[(r - 1) * bs + c]
            } else {
                halo_up[c]
            };
            let v_down = if r + 1 < bs {
                center[(r + 1) * bs + c]
            } else {
                halo_down[c]
            };
            let v_left = if c > 0 {
                center[r * bs + c - 1]
            } else {
                halo_left[r]
            };
            let v_right = if c + 1 < bs {
                center[r * bs + c + 1]
            } else {
                halo_right[r]
            };
            center[r * bs + c] = 0.25 * (v_up + v_down + v_left + v_right);
        }
    }
}

/// Extracts the halo a block receives from one of its neighbours: the
/// neighbour's row/column adjacent to the block. `direction` is which side
/// of the *receiving* block the halo covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HaloSide {
    /// The row above the block = the bottom row of the upper neighbour.
    Up,
    /// The row below the block = the top row of the lower neighbour.
    Down,
    /// The column left of the block = the rightmost column of the left neighbour.
    Left,
    /// The column right of the block = the leftmost column of the right neighbour.
    Right,
}

impl HaloSide {
    /// All four sides.
    pub const ALL: [HaloSide; 4] = [
        HaloSide::Up,
        HaloSide::Down,
        HaloSide::Left,
        HaloSide::Right,
    ];

    /// Extracts the halo values from the neighbour block's contents.
    pub fn extract(self, neighbour: &[f32], bs: usize) -> Vec<f32> {
        match self {
            HaloSide::Up => neighbour[(bs - 1) * bs..bs * bs].to_vec(),
            HaloSide::Down => neighbour[0..bs].to_vec(),
            HaloSide::Left => (0..bs).map(|r| neighbour[r * bs + bs - 1]).collect(),
            HaloSide::Right => (0..bs).map(|r| neighbour[r * bs]).collect(),
        }
    }
}

/// A generated stencil problem instance.
pub struct Stencil {
    variant: StencilVariant,
    config: StencilConfig,
    /// Initial per-block contents, row-major by block.
    initial_blocks: Vec<Vec<f32>>,
    reference: OnceLock<Vec<f64>>,
}

impl Stencil {
    /// Generates an instance of the given variant and configuration.
    pub fn new(variant: StencilVariant, config: StencilConfig) -> Self {
        assert!(config.blocks >= 1 && config.block_size >= 2 && config.iterations >= 1);
        let mut rng = Xoshiro256StarStar::new(config.seed);
        let levels = config.init_levels.max(1);
        // Saturated random initialisation: each block starts at a constant
        // temperature drawn from a small set of discrete levels.
        let initial_blocks = (0..config.blocks * config.blocks)
            .map(|_| {
                let level = rng.below(levels) as f32 / levels as f32;
                vec![level * config.wall_temperature * 0.5; config.block_elems()]
            })
            .collect();
        Stencil {
            variant,
            config,
            initial_blocks,
            reference: OnceLock::new(),
        }
    }

    /// Builds the default instance for a scale.
    pub fn at_scale(variant: StencilVariant, scale: Scale) -> Self {
        Self::new(variant, StencilConfig::for_scale(scale))
    }

    /// The configuration of this instance.
    pub fn config(&self) -> &StencilConfig {
        &self.config
    }

    /// The solver variant.
    pub fn variant(&self) -> StencilVariant {
        self.variant
    }

    fn block_index(&self, bi: usize, bj: usize) -> usize {
        bi * self.config.blocks + bj
    }

    fn wall_halo(&self) -> Vec<f32> {
        vec![self.config.wall_temperature; self.config.block_size]
    }

    fn flatten(blocks: &[Vec<f32>]) -> Vec<f64> {
        blocks
            .iter()
            .flat_map(|b| b.iter().map(|&x| f64::from(x)))
            .collect()
    }

    /// Gathers the four halos of block `(bi, bj)` from the given block
    /// contents (used by the sequential reference).
    fn halos_from(&self, blocks: &[Vec<f32>], bi: usize, bj: usize) -> [Vec<f32>; 4] {
        let nb = self.config.blocks;
        let bs = self.config.block_size;
        let up = if bi > 0 {
            HaloSide::Up.extract(&blocks[self.block_index(bi - 1, bj)], bs)
        } else {
            self.wall_halo()
        };
        let down = if bi + 1 < nb {
            HaloSide::Down.extract(&blocks[self.block_index(bi + 1, bj)], bs)
        } else {
            self.wall_halo()
        };
        let left = if bj > 0 {
            HaloSide::Left.extract(&blocks[self.block_index(bi, bj - 1)], bs)
        } else {
            self.wall_halo()
        };
        let right = if bj + 1 < nb {
            HaloSide::Right.extract(&blocks[self.block_index(bi, bj + 1)], bs)
        } else {
            self.wall_halo()
        };
        [up, down, left, right]
    }
}

impl BenchmarkApp for Stencil {
    fn name(&self) -> &'static str {
        match self.variant {
            StencilVariant::GaussSeidel => "Gauss-Seidel",
            StencilVariant::Jacobi => "Jacobi",
        }
    }

    fn table_info(&self) -> TableInfo {
        // Task inputs of one stencilComputation task: the block plus the
        // four halos (matches the paper's "block + neighbouring rows/cols").
        let bytes = (self.config.block_elems() + 4 * self.config.block_size) * 4;
        TableInfo {
            program_inputs: format!(
                "{0}x{0} blocks of {1}x{1} elements, {2} iterations",
                self.config.blocks, self.config.block_size, self.config.iterations
            ),
            task_input_bytes: bytes,
            task_input_types: "float".to_string(),
            memoized_task_type: "stencilComputation".to_string(),
            num_tasks: (self.config.blocks * self.config.blocks * self.config.iterations) as u64,
            correctness_on: "Stencil Matrix".to_string(),
        }
    }

    fn memo_spec(&self) -> MemoSpec {
        // Table II: Gauss-Seidel L_training = 100, Jacobi L_training = 150;
        // τ_max = 1 % for both. At reduced scales the training budget is
        // capped to roughly 5 % of the task count (the paper's empirical
        // upper bound for the training-set size).
        let tasks = self.config.blocks * self.config.blocks * self.config.iterations;
        let cap = (tasks / 20).max(15);
        let l_training = match self.variant {
            StencilVariant::GaussSeidel => 100.min(cap),
            StencilVariant::Jacobi => 150.min(cap),
        };
        MemoSpec::approximate()
            .tau(0.01)
            .training_window(l_training)
    }

    fn run_sequential(&self) -> Vec<f64> {
        let nb = self.config.blocks;
        let bs = self.config.block_size;
        let mut blocks = self.initial_blocks.clone();
        match self.variant {
            StencilVariant::GaussSeidel => {
                for _ in 0..self.config.iterations {
                    for bi in 0..nb {
                        for bj in 0..nb {
                            let [up, down, left, right] = self.halos_from(&blocks, bi, bj);
                            let idx = self.block_index(bi, bj);
                            gauss_seidel_block(&mut blocks[idx], &up, &down, &left, &right, bs);
                        }
                    }
                }
            }
            StencilVariant::Jacobi => {
                for _ in 0..self.config.iterations {
                    let old = blocks.clone();
                    for bi in 0..nb {
                        for bj in 0..nb {
                            let [up, down, left, right] = self.halos_from(&old, bi, bj);
                            let idx = self.block_index(bi, bj);
                            blocks[idx] = jacobi_block(&old[idx], &up, &down, &left, &right, bs);
                        }
                    }
                }
            }
        }
        Self::flatten(&blocks)
    }

    fn run_tasked(&self, options: &RunOptions) -> AppRun {
        let bs = self.config.block_size;
        let nb = self.config.blocks;
        let jacobi = self.variant == StencilVariant::Jacobi;
        let mut harness = TaskedRun::new(options);
        let rt = harness.runtime();

        // Block regions: one buffer for Gauss-Seidel, two (old/new) for Jacobi.
        let register_blocks = |rt: &Runtime, tag: &str| -> Vec<Region<f32>> {
            self.initial_blocks
                .iter()
                .enumerate()
                .map(|(i, b)| {
                    rt.store()
                        .register_typed(format!("{tag}[{i}]"), b.clone())
                        .expect("unique name")
                })
                .collect()
        };
        let buffers: Vec<Vec<Region<f32>>> = if jacobi {
            vec![register_blocks(rt, "old"), register_blocks(rt, "new")]
        } else {
            vec![register_blocks(rt, "block")]
        };

        // Halo regions: 4 per block, plus one shared wall halo.
        let register_halo = |name: String| -> Region<f32> {
            rt.store().register_zeros(name, bs).expect("unique name")
        };
        let halos: Vec<[Region<f32>; 4]> = (0..nb * nb)
            .map(|i| {
                [
                    register_halo(format!("halo_up[{i}]")),
                    register_halo(format!("halo_down[{i}]")),
                    register_halo(format!("halo_left[{i}]")),
                    register_halo(format!("halo_right[{i}]")),
                ]
            })
            .collect();
        let wall_halo = rt
            .store()
            .register_typed("wall_halo", self.wall_halo())
            .expect("unique name");

        // Copy tasks (not memoized): extract one row/column of a neighbour
        // block into a halo region.
        let copy_types: Vec<TaskTypeId> = HaloSide::ALL
            .iter()
            .map(|&side| {
                rt.register_task_type(
                    TaskTypeBuilder::new(
                        match side {
                            HaloSide::Up => "copy_halo_up",
                            HaloSide::Down => "copy_halo_down",
                            HaloSide::Left => "copy_halo_left",
                            HaloSide::Right => "copy_halo_right",
                        },
                        move |ctx| {
                            let neighbour = ctx.arg::<f32>(0);
                            let bs = (neighbour.len() as f64).sqrt() as usize;
                            ctx.out(1, &side.extract(&neighbour, bs));
                        },
                    )
                    .arg::<f32>()
                    .out::<f32>()
                    .build(),
                )
            })
            .collect();

        // The memoized heat-diffusion task type. The declared signature
        // follows the variant's access layout.
        let stencil_builder = TaskTypeBuilder::new("stencilComputation", move |ctx| {
            if jacobi {
                // Accesses: 0 = new centre (out), 1 = old centre (in), 2..=5 halos (in).
                let old_center = ctx.arg::<f32>(1);
                let new = jacobi_block(
                    &old_center,
                    &ctx.arg::<f32>(2),
                    &ctx.arg::<f32>(3),
                    &ctx.arg::<f32>(4),
                    &ctx.arg::<f32>(5),
                    bs,
                );
                ctx.out(0, &new);
            } else {
                // Accesses: 0 = centre (inout), 1..=4 halos (in).
                let mut center = ctx.arg::<f32>(0);
                gauss_seidel_block(
                    &mut center,
                    &ctx.arg::<f32>(1),
                    &ctx.arg::<f32>(2),
                    &ctx.arg::<f32>(3),
                    &ctx.arg::<f32>(4),
                    bs,
                );
                ctx.out(0, &center);
            }
        });
        let stencil_builder = if jacobi {
            stencil_builder.out::<f32>().arg::<f32>()
        } else {
            stencil_builder.inout::<f32>()
        };
        let stencil_type = rt.register_task_type(
            stencil_builder
                .arg::<f32>()
                .arg::<f32>()
                .arg::<f32>()
                .arg::<f32>()
                .memo(self.memo_spec())
                .build(),
        );

        harness.start_timer();
        for iter in 0..self.config.iterations {
            let (read_buf, write_buf) = if jacobi {
                (&buffers[iter % 2], &buffers[(iter + 1) % 2])
            } else {
                (&buffers[0], &buffers[0])
            };
            // One batch per sweep: every block's halo copies and stencil
            // task, staged in the same order as the singleton submissions.
            let mut wave = harness.runtime().batch();
            for bi in 0..nb {
                for bj in 0..nb {
                    let idx = self.block_index(bi, bj);
                    // Stage the four halo copies for this block.
                    let neighbour_of = |side: HaloSide| -> Option<usize> {
                        match side {
                            HaloSide::Up => (bi > 0).then(|| self.block_index(bi - 1, bj)),
                            HaloSide::Down => (bi + 1 < nb).then(|| self.block_index(bi + 1, bj)),
                            HaloSide::Left => (bj > 0).then(|| self.block_index(bi, bj - 1)),
                            HaloSide::Right => (bj + 1 < nb).then(|| self.block_index(bi, bj + 1)),
                        }
                    };
                    let mut halo_inputs = [wall_halo; 4];
                    for (s, &side) in HaloSide::ALL.iter().enumerate() {
                        if let Some(n_idx) = neighbour_of(side) {
                            wave = wave
                                .task(copy_types[s])
                                .reads(&read_buf[n_idx])
                                .writes(&halos[idx][s]);
                            halo_inputs[s] = halos[idx][s];
                        }
                    }

                    // The heat-diffusion task itself.
                    wave = wave.task(stencil_type);
                    if jacobi {
                        wave = wave.writes(&write_buf[idx]).reads(&read_buf[idx]);
                    } else {
                        wave = wave.reads_writes(&read_buf[idx]);
                    }
                    for halo in &halo_inputs {
                        wave = wave.reads(halo);
                    }
                }
            }
            wave.submit_all()
                .expect("stencil submissions match the declared signatures");
            if jacobi {
                // The algorithm synchronises at the end of each iteration (§IV-A).
                harness.runtime().taskwait();
            }
        }

        let final_buffer = if jacobi {
            buffers[self.config.iterations % 2].clone()
        } else {
            buffers[0].clone()
        };
        harness.finish(move |store| {
            let mut out = Vec::new();
            for region in &final_buffer {
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
    fn jacobi_block_averages_its_neighbours() {
        let bs = 2;
        let center = vec![0.0; 4];
        let hot = vec![1.0; 2];
        let new = jacobi_block(&center, &hot, &hot, &hot, &hot, bs);
        // Each cell sees two wall cells (1.0) and two centre cells (0.0).
        assert_eq!(new, vec![0.5; 4]);
    }

    #[test]
    fn gauss_seidel_block_uses_updated_values_in_sweep_order() {
        let bs = 2;
        let mut center = vec![0.0; 4];
        let hot = vec![1.0; 2];
        gauss_seidel_block(&mut center, &hot, &hot, &hot, &hot, bs);
        // Cell (0,0): up=1, down=0, left=1, right=0 -> 0.5.
        // Cell (0,1): up=1, down=0, left=0.5 (already updated), right=1 -> 0.625.
        assert!((center[0] - 0.5).abs() < 1e-6);
        assert!((center[1] - 0.625).abs() < 1e-6);
    }

    #[test]
    fn halo_extraction_picks_the_adjacent_row_or_column() {
        let bs = 3;
        #[rustfmt::skip]
        let block = vec![
            1.0, 2.0, 3.0,
            4.0, 5.0, 6.0,
            7.0, 8.0, 9.0,
        ];
        assert_eq!(HaloSide::Up.extract(&block, bs), vec![7.0, 8.0, 9.0]);
        assert_eq!(HaloSide::Down.extract(&block, bs), vec![1.0, 2.0, 3.0]);
        assert_eq!(HaloSide::Left.extract(&block, bs), vec![3.0, 6.0, 9.0]);
        assert_eq!(HaloSide::Right.extract(&block, bs), vec![1.0, 4.0, 7.0]);
    }

    #[test]
    fn stencil_heat_stays_bounded_by_wall_temperature() {
        for variant in [StencilVariant::GaussSeidel, StencilVariant::Jacobi] {
            let app = Stencil::at_scale(variant, Scale::Tiny);
            let result = app.run_sequential();
            assert!(
                result.iter().all(|&x| (0.0..=1.0 + 1e-6).contains(&x)),
                "{variant:?} produced out-of-range temperatures"
            );
            assert!(
                result.iter().any(|&x| x > 0.0),
                "heat must have entered the matrix"
            );
        }
    }

    #[test]
    fn gauss_seidel_converges_faster_than_jacobi() {
        // After the same number of sweeps the Gauss-Seidel room must be
        // globally warmer (its sweeps propagate heat across the whole matrix).
        let gs: f64 = Stencil::at_scale(StencilVariant::GaussSeidel, Scale::Tiny)
            .run_sequential()
            .iter()
            .sum();
        let ja: f64 = Stencil::at_scale(StencilVariant::Jacobi, Scale::Tiny)
            .run_sequential()
            .iter()
            .sum();
        assert!(
            gs > ja,
            "Gauss-Seidel should be ahead of Jacobi after equal sweeps (GS={gs:.3}, J={ja:.3})"
        );
    }

    #[test]
    fn tasked_gauss_seidel_matches_sequential_without_atm() {
        let app = Stencil::at_scale(StencilVariant::GaussSeidel, Scale::Tiny);
        let run = app.run_tasked(&RunOptions::baseline(2));
        let err = euclidean_relative_error(app.reference(), &run.output);
        assert!(err < 1e-12, "Gauss-Seidel taskified output mismatch: {err}");
    }

    #[test]
    fn tasked_jacobi_matches_sequential_without_atm() {
        let app = Stencil::at_scale(StencilVariant::Jacobi, Scale::Tiny);
        let run = app.run_tasked(&RunOptions::baseline(2));
        let err = euclidean_relative_error(app.reference(), &run.output);
        assert!(err < 1e-12, "Jacobi taskified output mismatch: {err}");
    }

    #[test]
    fn static_atm_is_exact_on_both_stencils() {
        for variant in [StencilVariant::GaussSeidel, StencilVariant::Jacobi] {
            let app = Stencil::at_scale(variant, Scale::Tiny);
            let run = app.run_tasked(&RunOptions::with_atm(2, AtmConfig::static_atm()));
            assert_eq!(
                app.output_error(&run.output),
                0.0,
                "{variant:?}: static ATM must be exact"
            );
        }
    }

    #[test]
    fn static_atm_finds_reuse_in_jacobi() {
        let app = Stencil::at_scale(StencilVariant::Jacobi, Scale::Tiny);
        let run = app.run_tasked(&RunOptions::with_atm(1, AtmConfig::static_atm()));
        assert!(
            run.reuse_percent() > 20.0,
            "identical interior neighbourhoods must produce exact reuse, got {:.1}%",
            run.reuse_percent()
        );
        // Only stencilComputation tasks count as memoizable: 16 blocks × 4 iterations.
        assert_eq!(run.atm_stats.seen, 64);
    }

    /// The stencils never pay back what keying them costs (1–3 % reuse at
    /// p = 0.5): the profitability ledger closes the type, and a gated task
    /// simply executes, so the result is exact.
    #[test]
    fn dynamic_atm_gates_the_stencils_and_stays_exact() {
        for variant in [StencilVariant::GaussSeidel, StencilVariant::Jacobi] {
            let app = Stencil::new(variant, StencilConfig::for_scale(Scale::Small));
            let run = app.run_tasked(&RunOptions::with_atm(2, AtmConfig::dynamic_atm()));
            assert_eq!(app.correctness_percent(&run.output), 100.0, "{variant:?}");
            let stats = run.atm_stats;
            assert!(stats.gated > 0, "{variant:?}: {stats:?}");
            assert_eq!(stats.seen, stats.reused() + stats.executed);
            let lookups = run.store_counters.hits + run.store_counters.misses;
            assert!(lookups <= stats.seen - stats.gated, "{variant:?}");
        }
    }

    #[test]
    fn table_info_reports_block_plus_halo_inputs() {
        let app = Stencil::at_scale(StencilVariant::Jacobi, Scale::Tiny);
        let info = app.table_info();
        assert_eq!(info.task_input_bytes, (16 * 16 + 4 * 16) * 4);
        assert_eq!(info.memoized_task_type, "stencilComputation");
        assert_eq!(info.num_tasks, 64);
    }
}
