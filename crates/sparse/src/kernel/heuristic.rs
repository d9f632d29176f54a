//! The kernel tunables as one value: [`KernelPlan`].
//!
//! Three knobs shape how the prepared kernels run — column-tile width,
//! row-block grain, and the serial-vs-pool work threshold. They travel
//! together as a [`KernelPlan`], stored in every
//! [`crate::kernel::PreparedWeights`] (and in `radix-challenge`'s
//! network), so two matrices in one process can run under different
//! plans and a sweep is a plain loop over plan values.
//!
//! The process-wide plan, [`KernelPlan::process`], is resolved **once**:
//! each knob from its `RADIX_*` environment variable, else the built-in
//! default. Constructors
//! that take no plan (`PreparedWeights::from_csr`, `SparseLinear::new`,
//! `ChallengeNetwork::from_layers`) use it; [`crate::kernel::tile_cols`]
//! and [`crate::kernel::block_rows`] are one-line views of it.

use std::ops::RangeInclusive;
use std::sync::OnceLock;

use crate::kernel::tiled::{DEFAULT_BLOCK_ROWS, DEFAULT_TILE_COLS};

/// Default work threshold (rows × nnz multiply-adds) above which kernels
/// switch to their Rayon-parallel variants. Chosen so that a product
/// cheaper than roughly one thread-spawn round trip stays serial.
pub const DEFAULT_PAR_THRESHOLD: usize = 1 << 15;

/// Largest `tile_cols` / `block_rows` the environment may ask for: far
/// above any useful tile or block (layers are at most a few 10⁴ wide), far
/// below where `block rows × layer width` could overflow. Out-of-range
/// values are ignored like unparseable ones.
pub const MAX_TILE_OR_BLOCK: usize = 1 << 20;

/// How a product is dispatched.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Par {
    /// On the calling thread.
    Serial,
    /// Row blocks claimed dynamically by the persistent worker pool
    /// (allocation-free dispatch).
    Pool,
    /// [`Par::Pool`] when the product's multiply-add count reaches the
    /// plan's `par_threshold`, else [`Par::Serial`].
    Auto,
}

/// The kernel tunables, as a value. All fields are plain data; consumers
/// assert the positivity they need where they store a plan
/// (`PreparedWeights::with_plan`, `ChallengeNetwork::from_layers_with_plan`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelPlan {
    /// Output-column tile width of the cache-blocked schedules
    /// (`RADIX_TILE_COLS`): matrices wider than this are tiled.
    pub tile_cols: usize,
    /// Batch rows per tile-major block (`RADIX_BLOCK_ROWS`).
    pub block_rows: usize,
    /// Multiply-add count (`rows × nnz`) at which [`Par::Auto`] goes to
    /// the pool (`RADIX_PAR_THRESHOLD`).
    pub par_threshold: usize,
}

impl Default for KernelPlan {
    /// The built-in defaults, ignoring the environment.
    fn default() -> Self {
        KernelPlan {
            tile_cols: DEFAULT_TILE_COLS,
            block_rows: DEFAULT_BLOCK_ROWS,
            par_threshold: DEFAULT_PAR_THRESHOLD,
        }
    }
}

impl KernelPlan {
    /// The process-wide plan: resolved on first call from the environment
    /// ([`KernelPlan::resolve`]) and cached for the process lifetime — the
    /// only knob cache there is.
    #[must_use]
    pub fn process() -> KernelPlan {
        static PLAN: OnceLock<KernelPlan> = OnceLock::new();
        *PLAN.get_or_init(|| KernelPlan::resolve(|name| std::env::var(name).ok()))
    }

    /// Resolves every knob with the precedence **environment > default**.
    /// `env` looks a variable up by name (tests pass a closure instead of
    /// mutating the process environment). A value that does not parse, or
    /// lies outside its knob's range, is ignored — the default decides.
    #[must_use]
    pub fn resolve(env: impl Fn(&str) -> Option<String>) -> KernelPlan {
        let knob = |name: &str, range: RangeInclusive<usize>, default: usize| {
            env(name)
                .and_then(|v| v.parse::<usize>().ok())
                .filter(|v| range.contains(v))
                .unwrap_or(default)
        };
        let d = KernelPlan::default();
        KernelPlan {
            tile_cols: knob("RADIX_TILE_COLS", 1..=MAX_TILE_OR_BLOCK, d.tile_cols),
            block_rows: knob("RADIX_BLOCK_ROWS", 1..=MAX_TILE_OR_BLOCK, d.block_rows),
            par_threshold: knob("RADIX_PAR_THRESHOLD", 1..=usize::MAX, d.par_threshold),
        }
    }

    /// Whether a product of `work` multiply-adds (typically `rows × nnz`)
    /// dispatched as `par` runs on the pool.
    #[inline]
    #[must_use]
    pub fn pool(&self, par: Par, work: usize) -> bool {
        match par {
            Par::Serial => false,
            Par::Pool => true,
            Par::Auto => work >= self.par_threshold,
        }
    }
}

/// Reads a positive `usize` setting from the environment, falling back to
/// `default` when the variable is unset, unparseable, or zero (the serve
/// engine's `RADIX_SERVE_*` settings; the kernel knobs go through
/// [`KernelPlan::process`]).
#[must_use]
pub fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or(default)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env_of<'a>(vars: &'a [(&'a str, &'a str)]) -> impl Fn(&str) -> Option<String> + 'a {
        move |name| {
            vars.iter()
                .find(|(k, _)| *k == name)
                .map(|(_, v)| (*v).to_string())
        }
    }

    #[test]
    fn threshold_is_stable_across_calls() {
        assert_eq!(
            KernelPlan::process().par_threshold,
            KernelPlan::process().par_threshold
        );
        assert_eq!(KernelPlan::process(), KernelPlan::process());
    }

    #[test]
    fn env_usize_falls_back_on_unset_or_bad_values() {
        // Unset (name chosen to never exist) → default. Set values: this
        // test cannot mutate the process environment safely (other tests
        // run concurrently); the parse/filter arms are covered through
        // `KernelPlan::resolve`'s injected lookup below.
        assert_eq!(env_usize("RADIX_TEST_DEFINITELY_UNSET", 42), 42);
    }

    #[test]
    fn use_parallel_compares_against_threshold() {
        let plan = KernelPlan::default();
        let t = plan.par_threshold;
        assert!(!plan.pool(Par::Auto, t - 1));
        assert!(plan.pool(Par::Auto, t));
        assert!(plan.pool(Par::Auto, t + 1));
        assert!(!plan.pool(Par::Serial, usize::MAX));
        assert!(plan.pool(Par::Pool, 0));
    }

    #[test]
    fn resolve_takes_env_over_default() {
        let env = [("RADIX_TILE_COLS", "8"), ("RADIX_PAR_THRESHOLD", "1")];
        assert_eq!(
            KernelPlan::resolve(env_of(&env)),
            KernelPlan {
                tile_cols: 8,
                block_rows: DEFAULT_BLOCK_ROWS, // unset: the default
                par_threshold: 1,
            }
        );
        assert_eq!(KernelPlan::resolve(|_| None), KernelPlan::default());
    }

    #[test]
    fn resolve_ignores_unparseable_zero_and_out_of_range_env_values() {
        // RADIX_BLOCK_ROWS=2^62 must never reach a pool path:
        // `block_rows × width` would wrap to a zero chunk size and panic
        // the first pool-parallel block.
        let env = [
            ("RADIX_BLOCK_ROWS", "4611686018427387904"),
            ("RADIX_TILE_COLS", "1048577"),
            ("RADIX_PAR_THRESHOLD", "lots"),
        ];
        assert_eq!(KernelPlan::resolve(env_of(&env)), KernelPlan::default());
        // The bound itself is in range.
        let env = [("RADIX_BLOCK_ROWS", "1048576")];
        assert_eq!(
            KernelPlan::resolve(env_of(&env)).block_rows,
            MAX_TILE_OR_BLOCK
        );
    }
}
