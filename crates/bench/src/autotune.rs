//! The machine autotuner behind `make calibrate`: sweeps the kernel
//! tunables **together** on two fixed layer shapes and persists the
//! winner as a versioned per-machine profile (`RADIX_PROFILE.json`) that
//! the kernels load at startup.
//!
//! Four knobs interact — the column-tile width shapes what stays
//! cache-resident, the row-block grain shapes how long a tile's entry
//! stream is amortized, the fusion depth decides how many layers share
//! each block, and the activation-sparsity threshold flips blocks between
//! the gather and scatter schedules — so per-knob sweeps (the old
//! calibrate printout) routinely miss the jointly-best point. This module
//! sweeps the full cross product.
//!
//! A candidate is a [`KernelPlan`] value: [`measure_workload`] builds its
//! network and its prepared matrix under the candidate plan, so the sweep
//! is a plain loop in one process and scores are measured exactly the way
//! the winning profile will run.
//!
//! The workload is each shape's fused Challenge forward pass (dense and
//! 90%-sparse activations — the two regimes the activation dispatch
//! separates) plus the tiled transposed product (the training
//! orientation), each timed as the minimum over repeats.

use radix_challenge::{ChallengeNetwork, InferWorkspace};
use radix_sparse::kernel::TuningProfile;
use radix_sparse::{
    Bias, CsrMatrix, CyclicShift, DenseMatrix, Epilogue, KernelPlan, Par, PreparedWeights,
};

/// `plan` as a persisted profile run keyed at `threads` (the four knobs
/// the profile carries, all concrete — the grid never leaves one unset).
#[must_use]
pub fn to_profile(plan: &KernelPlan, threads: usize) -> TuningProfile {
    TuningProfile {
        threads,
        tile_cols: Some(plan.tile_cols),
        block_rows: Some(plan.block_rows),
        fuse_layers: Some(plan.fuse_layers),
        act_sparse_percent: Some(plan.act_sparse_percent),
    }
}

/// The candidate cross product. Entry 0 is always [`KernelPlan::default`]
/// — the baked-in defaults, so the tuned profile is never worse than them
/// by construction (a min with strict `<` can never pick a non-default
/// tie) — and the rest is the full grid minus the duplicate default
/// entry. `par_threshold` is not swept (the profile does not carry it).
///
/// * full (`quick == false`): tile {512, 1024, 2048} × block {16, 32, 64}
///   × fuse {1, 2, 4} × act {0, 10, 25} — 81 combos;
/// * quick (smoke/CI): tile {512, 1024} × block {16, 32} × fuse {1, 2}
///   × act {0, 10} — 16 combos, tiny shapes, 3-iteration timings. Proves
///   the plumbing; numbers are not meaningful.
#[must_use]
pub fn candidate_grid(quick: bool) -> Vec<KernelPlan> {
    let (tiles, blocks, fuses, acts): (&[usize], &[usize], &[usize], &[usize]) = if quick {
        (&[512, 1024], &[16, 32], &[1, 2], &[0, 10])
    } else {
        (&[512, 1024, 2048], &[16, 32, 64], &[1, 2, 4], &[0, 10, 25])
    };
    let mut grid = vec![KernelPlan::default()];
    for &tile_cols in tiles {
        for &block_rows in blocks {
            for &fuse_layers in fuses {
                for &act_sparse_percent in acts {
                    let c = KernelPlan {
                        tile_cols,
                        block_rows,
                        fuse_layers,
                        act_sparse_percent,
                        ..KernelPlan::default()
                    };
                    if !grid.contains(&c) {
                        grid.push(c);
                    }
                }
            }
        }
    }
    grid
}

fn layer(n: usize, degree: usize) -> CsrMatrix<f32> {
    CyclicShift::radix_submatrix::<u64>(n, degree, 1).map(|_| 1.0 / degree as f32)
}

fn activations(rows: usize, cols: usize) -> DenseMatrix<f32> {
    let mut m = DenseMatrix::zeros(rows, cols);
    for i in 0..rows {
        let r: &mut [f32] = m.row_mut(i);
        for (j, v) in r.iter_mut().enumerate() {
            *v = ((i * 31 + j * 17) % 13) as f32 * 0.07;
        }
    }
    m
}

/// A 90%-sparse activation batch — the post-ReLU deep-layer regime the
/// activation-sparsity dispatch targets.
fn sparse_activations(rows: usize, cols: usize) -> DenseMatrix<f32> {
    let mut m = DenseMatrix::zeros(rows, cols);
    for i in 0..rows {
        let r: &mut [f32] = m.row_mut(i);
        for (j, v) in r.iter_mut().enumerate() {
            if (i * 31 + j * 17) % 10 == 0 {
                *v = ((i + j) % 13) as f32 * 0.07 + 0.05;
            }
        }
    }
    m
}

/// Times `f` (after one warm-up call) and returns the **minimum**
/// observed seconds per iteration: the min approximates the cost of the
/// code, while a mean absorbs scheduler noise and frequency ramps.
///
/// * `quick == false` — min over as many iterations as fit in
///   `budget_secs` (at most `max_iters`),
/// * `quick == true` — min of three iterations (the CI smoke sweep).
fn time_kernel<F: FnMut()>(quick: bool, budget_secs: f64, max_iters: u32, mut f: F) -> f64 {
    f(); // warm-up: drives buffers to their high-water mark
    let (budget, iters) = if quick {
        (f64::INFINITY, 3)
    } else {
        (budget_secs, max_iters.max(1))
    };
    let all = std::time::Instant::now();
    let mut best = f64::INFINITY;
    for _ in 0..iters {
        let start = std::time::Instant::now();
        f();
        best = best.min(start.elapsed().as_secs_f64());
        if all.elapsed().as_secs_f64() > budget {
            break;
        }
    }
    best
}

/// The autotune shapes `(n, degree, batch)`: two acceptance-size layers
/// in full mode, one tiny shape in quick mode.
#[must_use]
pub fn workload_shapes(quick: bool) -> &'static [(usize, usize, usize)] {
    if quick {
        &[(512, 4, 8)]
    } else {
        &[(16384, 8, 32), (4096, 16, 64)]
    }
}

/// Runs the autotune workload **under `plan`** and returns the total
/// score in seconds (lower is better): for each shape, the
/// fused 4-layer Challenge forward on dense and on 90%-sparse
/// activations, plus the tiled transposed product.
#[must_use]
pub fn measure_workload(quick: bool, plan: KernelPlan) -> f64 {
    use std::hint::black_box;
    let mut total = 0.0;
    for &(n, degree, batch) in workload_shapes(quick) {
        let w = layer(n, degree);
        // Fused multi-layer forward: 4 layers so fuse depths 1/2/4 all
        // differ; dense + sparse inputs so the activation dispatch and
        // the scatter threshold both matter.
        let net = ChallengeNetwork::from_layers_with_plan(vec![w.clone(); 4], -0.3, 32.0, plan);
        let mut ws = InferWorkspace::for_network(&net, batch);
        for x in [activations(batch, n), sparse_activations(batch, n)] {
            total += time_kernel(quick, 0.25, 200, || {
                net.forward_with(&x, false, &mut ws);
                black_box(ws.output().as_slice().len());
            });
        }
        // Tiled transposed product — the training orientation, zero-copy
        // over the forward storage.
        let p = PreparedWeights::with_plan(w, plan);
        let epi = Epilogue::new(Bias::Uniform(-0.3f32), |v: f32| v.clamp(0.0, 32.0));
        let xt = activations(batch, n);
        let mut out = DenseMatrix::<f32>::default();
        total += time_kernel(quick, 0.25, 200, || {
            p.spmm_transposed(&xt, &mut out, &epi, Par::Serial).unwrap();
            black_box(out.as_slice().len());
        });
    }
    total
}

/// Merges a freshly measured run into an existing profile's runs:
/// replaces the run at the same thread count, keeps every other width's
/// result, and returns the runs sorted by thread count — so calibrating
/// on a 2-core box never clobbers the 8-core result in a shared profile.
#[must_use]
pub fn merge_profile_runs(
    mut existing: Vec<TuningProfile>,
    new: TuningProfile,
) -> Vec<TuningProfile> {
    if let Some(slot) = existing.iter_mut().find(|r| r.threads == new.threads) {
        *slot = new;
    } else {
        existing.push(new);
    }
    existing.sort_by_key(|r| r.threads);
    existing
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_leads_with_defaults_and_has_no_duplicates() {
        for quick in [false, true] {
            let grid = candidate_grid(quick);
            assert_eq!(grid[0], KernelPlan::default(), "quick={quick}");
            for (i, a) in grid.iter().enumerate() {
                assert!(
                    !grid[i + 1..].contains(a),
                    "duplicate candidate {a:?} (quick={quick})"
                );
            }
        }
        // Both grids contain the default point, so the cross product is
        // the whole grid: 3^4 full, 2^4 quick.
        assert_eq!(candidate_grid(false).len(), 81);
        assert_eq!(candidate_grid(true).len(), 16);
    }

    #[test]
    fn time_kernel_counts_calls() {
        use std::cell::Cell;
        let calls = Cell::new(0u32);
        // Quick mode: 1 warm-up + 3 timed iterations, min returned.
        let t = time_kernel(true, 1.0, 100, || calls.set(calls.get() + 1));
        assert_eq!(calls.get(), 4);
        assert!(t.is_finite() && t >= 0.0);
        // Normal mode with a zero budget: warm-up + exactly one iteration.
        calls.set(0);
        let t = time_kernel(false, 0.0, 100, || calls.set(calls.get() + 1));
        assert_eq!(calls.get(), 2);
        assert!(t.is_finite() && t >= 0.0);
        // Normal mode with a huge budget: capped by max_iters.
        calls.set(0);
        let t = time_kernel(false, 1e9, 5, || calls.set(calls.get() + 1));
        assert_eq!(calls.get(), 6);
        assert!(t.is_finite() && t >= 0.0);
    }

    #[test]
    fn merge_replaces_same_width_and_keeps_others() {
        let c = KernelPlan::default();
        let existing = vec![to_profile(&c, 1), to_profile(&c, 8)];
        let tuned = KernelPlan {
            tile_cols: 2048,
            act_sparse_percent: 0,
            ..c
        };
        let merged = merge_profile_runs(existing, to_profile(&tuned, 8));
        assert_eq!(merged.len(), 2);
        assert_eq!(merged[0].threads, 1);
        assert_eq!(merged[0].tile_cols, Some(c.tile_cols));
        assert_eq!(merged[1].threads, 8);
        assert_eq!(merged[1].tile_cols, Some(2048));
        assert_eq!(merged[1].act_sparse_percent, Some(0));
        // A new width inserts, sorted.
        let merged = merge_profile_runs(merged, to_profile(&tuned, 2));
        assert_eq!(
            merged.iter().map(|r| r.threads).collect::<Vec<_>>(),
            vec![1, 2, 8]
        );
    }

    #[test]
    fn quick_workload_runs_and_scores_positive() {
        // Two plans in one process: a plan is a value, not process state.
        for plan in &candidate_grid(true)[..2] {
            let secs = measure_workload(true, *plan);
            assert!(secs.is_finite() && secs > 0.0, "{plan:?}");
        }
    }
}
