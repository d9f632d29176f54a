//! Prepared-kernel execution engine: index-free diagonal and
//! fixed-degree (ELLPACK-style) weight storage, caller-provided output
//! buffers, and fused bias/activation epilogues.
//!
//! The generic [`crate::ops`] kernels treat every CSR matrix as irregular:
//! each row access chases `indptr`, every product allocates a fresh output,
//! and consumers make a second full pass over that output for bias +
//! activation + clamp. RadiX-Net layer matrices are better than that —
//! each is a sum of cyclic shifts, so every index is implied by three
//! numbers — and this module exploits it:
//!
//! * [`PreparedWeights`] — a weight matrix analyzed once: a sum of cyclic
//!   shifts `Σ P^(t·ν)` (paper eq. 2 — every square RadiX-Net layer) is
//!   stored as its value diagonals and nothing else
//!   ([`PreparedWeights::cyclic`]); any other matrix keeps its CSR,
//!   constant-degree ones with unit-stride ELL row addressing, irregular
//!   ones with CSR row slicing,
//! * **three products and a gradient** — [`PreparedWeights::spmm`]
//!   (`X · W`), [`PreparedWeights::spmm_transposed`] (`X · Wᵀ`, the
//!   backward/training orientation) and
//!   [`PreparedWeights::weight_grads`] (`Σ_b x[b, i]·δ[b, j]` per stored
//!   entry). Each writes into a reusable buffer instead of allocating and
//!   takes a [`Par`] — serial, pool, or decided by the work threshold —
//!   dispatching through the rayon shim's persistent worker pool with
//!   zero heap allocation. On the diagonals all of them run as
//!   unit-stride shift-adds,
//! * [`KernelPlan`] — the three tunables (tile width, block rows, pool
//!   threshold) as one value stored in each
//!   [`PreparedWeights`]. [`KernelPlan::process`] resolves the
//!   process-wide plan once (environment > default);
//!   [`PreparedWeights::with_plan`] takes any other,
//! * **column tiling** — the diagonal storage is tile-major at every
//!   width; [`PreparedWeights::tile`] gives a CSR-stored matrix a
//!   tile-contiguous CSC copy of its entries (one-time pass at the plan's
//!   `tile_cols`), after which its forward product runs a tile-major,
//!   cache-blocked gather — bitwise identical to the untiled row walk.
//!   The transposed product needs no such pass: the transpose's rows are
//!   the storage's own (diagonals or CSR/ELL), so it tiles **zero-copy**
//!   whenever `W` has more rows than one tile,
//! * [`Epilogue`] / [`Bias`] — bias + elementwise map fused into the
//!   kernel's per-row (per-tile, when tiled) finish, eliminating the
//!   separate output pass,
//! * [`PingPong`] — the two-buffer driver every layered forward pass
//!   alternates through.
//!
//! Everything is bitwise-equivalent to the naive path; see
//! `tests/prepared_kernels.rs`.

mod epilogue;
mod heuristic;
mod lanes;
mod pingpong;
mod prepared;
mod tiled;

pub use epilogue::{Bias, Epilogue};
pub use heuristic::{env_usize, KernelPlan, Par, DEFAULT_PAR_THRESHOLD, MAX_TILE_OR_BLOCK};
pub use lanes::LANE_WIDTH;
pub use pingpong::PingPong;
pub use prepared::PreparedWeights;
pub use tiled::{block_rows, tile_cols, DEFAULT_BLOCK_ROWS, DEFAULT_TILE_COLS};
