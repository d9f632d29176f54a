//! Machine autotuning: sweeps the kernel tunables **together** on two
//! fixed layer shapes and persists the winner as a per-machine
//! tuning profile (`RADIX_PROFILE.json`) that `radix-sparse` and
//! `radix-challenge` load at startup (see `make calibrate`).
//!
//! The defaults baked into the kernels (`DEFAULT_TILE_COLS`,
//! `DEFAULT_BLOCK_ROWS`, `DEFAULT_FUSE_LAYERS`,
//! `DEFAULT_ACT_SPARSE_PERCENT`) were measured on one machine; cache
//! sizes and core counts vary, so deployments run this once per machine:
//!
//! ```text
//! make calibrate          # full sweep, writes ./RADIX_PROFILE.json
//! make calibrate-smoke    # budgeted CI smoke (quick grid, tiny shapes)
//! ```
//!
//! Every knob resolves with precedence **env > profile > default**, so
//! exported `RADIX_*` variables still outrank the written profile, and a
//! machine without a profile behaves exactly as before.
//!
//! Each candidate is a `KernelPlan` value the workload is built under
//! (see [`radix_bench::autotune`]), so the sweep is one loop in this
//! process. The profile is keyed by worker-pool width
//! (`rayon::current_num_threads()`): run under `RADIX_POOL_THREADS=N` to
//! calibrate width `N`; runs at other widths in an existing profile are
//! preserved.
//!
//! Environment:
//! * `RADIX_CALIBRATE_QUICK=1` — quick grid and 3-iteration timings
//!   (smoke mode: proves the plumbing end to end; numbers are noise),
//! * `RADIX_PROFILE` — where to write/merge the profile (default
//!   `./RADIX_PROFILE.json`).

use radix_bench::autotune;
use radix_sparse::kernel::{emit_profile, load_profile, profile_path, ProfileError};
use radix_sparse::KernelPlan;

fn main() {
    let quick = std::env::var("RADIX_CALIBRATE_QUICK").is_ok_and(|v| v == "1");
    let threads = rayon::current_num_threads();
    let grid = autotune::candidate_grid(quick);
    println!(
        "calibrate: autotuning {} candidates at {threads} pool thread(s), quick={quick}",
        grid.len()
    );
    println!(
        "{:>10} {:>10} {:>10} {:>8} {:>12}",
        "tile_cols", "block_rows", "fuse", "act_pct", "score_us"
    );

    let mut best: Option<(KernelPlan, f64)> = None;
    let mut default_score = 0.0;
    for (i, c) in grid.iter().enumerate() {
        let secs = autotune::measure_workload(quick, *c);
        // Entry 0 is the baked-in defaults; strict `<` means the tuned
        // pick is never worse than the defaults by construction.
        if i == 0 {
            default_score = secs;
        }
        let is_best = best.is_none_or(|(_, b)| secs < b);
        println!(
            "{:>10} {:>10} {:>10} {:>8} {:>12.2}{}{}",
            c.tile_cols,
            c.block_rows,
            c.fuse_layers,
            c.act_sparse_percent,
            secs * 1e6,
            if i == 0 { "  (defaults)" } else { "" },
            if is_best && i > 0 {
                "  <- best so far"
            } else {
                ""
            },
        );
        if is_best {
            best = Some((*c, secs));
        }
    }

    let (winner, score) = best.expect("calibrate: the grid is never empty");
    println!(
        "\ncalibrate: best tile_cols={} block_rows={} fuse_layers={} act_pct={} \
         at {:.2} us (defaults {:.2} us, {:+.1}%)",
        winner.tile_cols,
        winner.block_rows,
        winner.fuse_layers,
        winner.act_sparse_percent,
        score * 1e6,
        default_score * 1e6,
        (score / default_score - 1.0) * 100.0,
    );

    // Merge the winner into the profile at this thread count, preserving
    // runs calibrated at other widths.
    let path_str = profile_path();
    let path = std::path::Path::new(&path_str);
    let existing = match load_profile(path) {
        Ok(runs) => runs,
        Err(ProfileError::Io {
            kind: std::io::ErrorKind::NotFound,
            ..
        }) => Vec::new(),
        Err(e) => {
            eprintln!("calibrate: existing profile {path_str} unusable ({e}); rewriting");
            Vec::new()
        }
    };
    let merged = autotune::merge_profile_runs(existing, autotune::to_profile(&winner, threads));
    std::fs::write(path, emit_profile(&merged))
        .unwrap_or_else(|e| panic!("calibrate: cannot write {path_str}: {e}"));

    // Round-trip: what we wrote must load back through the same loader
    // the kernels use, and must contain this width's run.
    let back = load_profile(path)
        .unwrap_or_else(|e| panic!("calibrate: written profile {path_str} fails to load: {e}"));
    assert!(
        back.iter().any(|r| r.threads == threads),
        "calibrate: written profile {path_str} lost the run at threads={threads}"
    );
    println!(
        "calibrate: wrote {path_str} ({} run(s): threads {})",
        back.len(),
        back.iter()
            .map(|r| r.threads.to_string())
            .collect::<Vec<_>>()
            .join(", ")
    );
}
