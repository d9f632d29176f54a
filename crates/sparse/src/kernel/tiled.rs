//! Column tiling: cache-blocked, gather-formulated layout for the
//! prepared product kernels.
//!
//! The untiled kernel computes `out ← X · W` as a **scatter**: for each
//! batch row it walks the weight rows and read-modify-writes `degree`
//! output positions per input, touching every output element `degree`
//! times and streaming the full `usize` index array once per batch row.
//! The tiled layout turns the product into a **gather** over column tiles:
//!
//! * entries are reordered — once, at preparation time — into CSC order
//!   (by output column, ascending source row within a column) with source
//!   rows narrowed to `u32`, halving the index bandwidth;
//! * each output element is then one register-accumulated dot product,
//!   written exactly once — no read-modify-write traffic;
//! * the kernel loops **tile-major over a block of batch rows** (tile of
//!   `tile_cols` columns outer, row inner), so a tile's entry list —
//!   small enough to stay cache-resident — is reused across the whole row
//!   block, and the epilogue runs on each freshly-written, cache-hot tile
//!   segment.
//!
//! Within a column, entries keep ascending source-row order, so every
//! output element accumulates its contributions in exactly the same order
//! as the untiled kernel and tiled results equal the untiled path (pinned
//! by the property suite in `tests/prepared_kernels.rs`). One deliberate
//! deviation: the untiled scatter *skips* zero activations, while the
//! gather multiplies through — the per-entry branch mispredicts on
//! realistic activation patterns and costs ~30% on the wide configs this
//! module exists for. For finite weights the extra `x·w` terms with
//! `x == ±0.0` are `±0.0`, an additive identity (up to the sign of an
//! all-zero sum, which IEEE equality cannot distinguish), so results are
//! equal everywhere it matters; matrices storing non-finite weights
//! (`0 · ∞ = NaN`) should simply not be tiled.
//!
//! Multiplying zeros through is the right call for *dense* activations,
//! but deep ReLU networks routinely produce blocks that are > 90% zeros,
//! where the gather burns its bandwidth on additive identities. The
//! activation-sparsity dispatch restores the zero-skip selectively: a
//! cheap per-row-block nonzero count on the input activations picks the
//! gather (dense blocks) or the zero-skipping scatter (sparse blocks) —
//! the untiled ELL/CSR row walk, at the cost of read-modify-write output
//! traffic. Accumulation order is ascending source row under **both**
//! schedules, so results are equal whichever is picked (up to the sign of
//! an all-zero sum). The crossover is the plan's `act_sparse_percent`
//! ([`crate::kernel::KernelPlan`], `RADIX_ACT_SPARSE_THRESHOLD`, measured
//! by `make calibrate`): `0` always gathers, `100` always scatters.
//!
//! The same tile-major treatment also serves the **transposed** products
//! of the backward/training pass: `X · Wᵀ` gathers over the columns of
//! `Wᵀ`, whose CSC layout *is* `W`'s CSR (= ELL) layout — so the tiled
//! transposed kernels in [`crate::kernel::PreparedWeights`] tile over
//! blocks of `W` rows zero-copy, via `gather_t_block_ell` /
//! `gather_t_block_csr` below, and need no prebuilt `ColumnTiles`.

use crate::csr::CsrMatrix;
#[cfg(test)]
use crate::dense::DenseMatrix;
use crate::dense::DenseView;
use crate::kernel::epilogue::Epilogue;
use crate::kernel::heuristic::KernelPlan;
use crate::kernel::lanes;
use crate::scalar::Scalar;

/// Default output-column tile width (elements). Chosen by measuring the
/// `n=16384, deg=8` Graph-Challenge config with `make calibrate` (which
/// re-measures on the current machine): 1024-column tiles keep a tile's
/// entry list and output segment cache-resident while the per-tile column
/// loop stays long enough to amortize the row-block setup; 512–2048 all
/// measure within a few percent.
pub const DEFAULT_TILE_COLS: usize = 1024;

/// The process plan's `tile_cols` ([`KernelPlan::process`]).
#[must_use]
pub fn tile_cols() -> usize {
    KernelPlan::process().tile_cols
}

/// Default rows per block in the tile-major loops ("chunk grain"): one
/// pass over a tile's entries serves this many batch rows, so the
/// reordered weight data is re-read from cache `block / block_rows` times
/// less often than the untiled per-row stream.
pub const DEFAULT_BLOCK_ROWS: usize = 32;

/// The process plan's `block_rows` ([`KernelPlan::process`]).
#[must_use]
pub fn block_rows() -> usize {
    KernelPlan::process().block_rows
}

/// The one-time column-tiling pass over a prepared weight matrix: the CSC
/// (gather) layout with `u32` source rows, consumed tile-major by
/// [`ColumnTiles::gather_block`].
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ColumnTiles<T> {
    /// Tile width in output columns.
    tile_cols: usize,
    /// Total output columns (cached from the matrix).
    ncols: usize,
    /// Column `j`'s entries occupy `src/vals[col_ptr[j]..col_ptr[j + 1]]`,
    /// in ascending source-row order.
    col_ptr: Vec<usize>,
    /// Source (input) row of each entry.
    src: Vec<u32>,
    /// Weight value of each entry.
    vals: Vec<T>,
}

impl<T: Scalar> ColumnTiles<T> {
    /// Builds the column-major (CSC) entry layout from a CSR matrix: one
    /// counting pass plus one placement pass, both `O(nnz)`. Iterating CSR
    /// rows in order makes each column's entries ascend in source row,
    /// which is what keeps the gather bitwise-equal to the scatter.
    ///
    /// # Panics
    /// Panics if `tile_cols == 0` or the row count overflows `u32`
    /// (RadiX-Net layer sizes are far below that).
    pub(crate) fn build(csr: &CsrMatrix<T>, tile_cols: usize) -> Self {
        assert!(tile_cols > 0, "tile width must be positive");
        assert!(
            csr.nrows() <= u32::MAX as usize,
            "matrix row count exceeds the tiled kernel's u32 index range"
        );
        let ncols = csr.ncols();
        let nnz = csr.nnz();

        let mut col_ptr = vec![0usize; ncols + 1];
        for &j in csr.indices() {
            col_ptr[j + 1] += 1;
        }
        for j in 0..ncols {
            col_ptr[j + 1] += col_ptr[j];
        }

        let mut cursor = col_ptr[..ncols].to_vec();
        let mut src = vec![0u32; nnz];
        let mut vals = vec![T::ZERO; nnz];
        for i in 0..csr.nrows() {
            let (cols, ws) = csr.row(i);
            for (&j, &w) in cols.iter().zip(ws) {
                let pos = cursor[j];
                cursor[j] += 1;
                src[pos] = i as u32;
                vals[pos] = w;
            }
        }

        ColumnTiles {
            tile_cols,
            ncols,
            col_ptr,
            src,
            vals,
        }
    }

    /// Tile width in output columns.
    pub(crate) fn tile_cols(&self) -> usize {
        self.tile_cols
    }

    /// Number of column tiles.
    pub(crate) fn ntiles(&self) -> usize {
        self.ncols.div_ceil(self.tile_cols).max(1)
    }

    /// Computes rows `[x_start, x_start + rows)` of `epi(X · W)` into
    /// `out` (row-major, `rows × ncols`), tile-major: for each column
    /// tile, every row of the block gathers its tile segment (one dot
    /// product per output element, written exactly once — stale `out`
    /// contents don't matter), then the epilogue runs on that cache-hot
    /// segment.
    ///
    /// Per output element, contributions accumulate in ascending source
    /// row — exactly the untiled scatter's order. Zero activations are
    /// multiplied through rather than branch-skipped (see the module docs
    /// for why that is both faster and value-preserving for finite
    /// weights).
    pub(crate) fn gather_block<F: Fn(T) -> T + Sync>(
        &self,
        x: DenseView<'_, T>,
        x_start: usize,
        rows: usize,
        out: &mut [T],
        epi: &Epilogue<'_, T, F>,
    ) {
        let ncols = self.ncols;
        debug_assert_eq!(out.len(), rows * ncols, "output block size");
        // Same contract as the per-row kernels: a mis-sized per-output
        // bias is an error even though the tiled loop only sees segments.
        epi.assert_width(ncols);
        if ncols == 0 {
            return;
        }
        for t in 0..self.ntiles() {
            let base = t * self.tile_cols;
            let width = self.tile_cols.min(ncols - base);
            let col_ptr = &self.col_ptr[base..base + width + 1];
            for b in 0..rows {
                let xrow = x.row(x_start + b);
                let oseg = &mut out[b * ncols + base..b * ncols + base + width];
                gather_tile_row(col_ptr, &self.src, &self.vals, xrow, oseg);
                epi.apply_cols(oseg, base);
            }
        }
    }
}

/// One (tile, batch row) pass of the gather: `oseg[jl] = Σ x[src[e]]·w[e]`
/// over each column's entry range, through the lane-chunked dot
/// ([`lanes::dot_src_u32`]: `[T; 8]` product blocks folded in ascending
/// entry order + scalar remainder — bitwise identical to the plain scalar
/// loop). Deliberately `#[inline(never)]` and free of the epilogue type
/// parameter: the loop is tight enough that its code placement measurably
/// affects throughput, and keeping it a standalone symbol gives every
/// consumer crate the same layout instead of whatever inlining context
/// the call site happens to have.
#[inline(never)]
fn gather_tile_row<T: Scalar>(
    col_ptr: &[usize],
    src: &[u32],
    vals: &[T],
    xrow: &[T],
    oseg: &mut [T],
) {
    for (jl, o) in oseg.iter_mut().enumerate() {
        let lo = col_ptr[jl];
        let hi = col_ptr[jl + 1];
        *o = lanes::dot_src_u32(&src[lo..hi], &vals[lo..hi], xrow);
    }
}

/// Computes rows `[x_start, x_start + rows)` of `epi(X · Wᵀ)` into `out`
/// (row-major, `rows × nout` with `nout = W.nrows()`), tile-major over
/// `tile_width`-wide blocks of transpose output columns — which are rows
/// of `W`, so a tile's entries are the **contiguous** ELL range
/// `[base·d, (base+width)·d)`: no reordered copy exists or is needed. One
/// pass over that range serves the whole row block from cache, instead of
/// re-streaming the full `indices`/`values` arrays once per batch row as
/// the untiled per-row gather does.
///
/// Per output element, contributions accumulate in ascending entry order
/// within the `W` row — exactly the untiled transposed gather's order, so
/// results are bitwise equal whatever the tile width.
#[allow(clippy::too_many_arguments)]
pub(crate) fn gather_t_block_ell<T: Scalar, F: Fn(T) -> T + Sync>(
    inds: &[usize],
    vals: &[T],
    d: usize,
    nout: usize,
    tile_width: usize,
    x: DenseView<'_, T>,
    x_start: usize,
    rows: usize,
    out: &mut [T],
    epi: &Epilogue<'_, T, F>,
) {
    debug_assert_eq!(out.len(), rows * nout, "output block size");
    if nout == 0 {
        return;
    }
    for t in 0..nout.div_ceil(tile_width) {
        let base = t * tile_width;
        let width = tile_width.min(nout - base);
        let tinds = &inds[base * d..(base + width) * d];
        let tvals = &vals[base * d..(base + width) * d];
        for b in 0..rows {
            let xrow = x.row(x_start + b);
            let oseg = &mut out[b * nout + base..b * nout + base + width];
            gather_t_tile_row_ell(tinds, tvals, d, xrow, oseg);
            epi.apply_cols(oseg, base);
        }
    }
}

/// One (tile, batch row) pass of the transposed gather in the ELL layout:
/// `oseg[il] = Σ_e x[cols(e)]·w(e)` over local row `il`'s fixed-length
/// entry slice, through the degree-specialized lane-chunked row loop
/// ([`lanes::gather_rows_ell`] — bitwise identical to the plain scalar
/// loop, with monomorphized bodies for whole-chunk degrees 8 and 16).
#[inline]
fn gather_t_tile_row_ell<T: Scalar>(
    tinds: &[usize],
    tvals: &[T],
    d: usize,
    xrow: &[T],
    oseg: &mut [T],
) {
    lanes::gather_rows_ell(tinds, tvals, d, xrow, oseg);
}

/// [`gather_t_block_ell`] for irregular matrices: same tile-major loop,
/// rows addressed through CSR `indptr` slicing instead of the unit-stride
/// ELL ranges.
pub(crate) fn gather_t_block_csr<T: Scalar, F: Fn(T) -> T + Sync>(
    csr: &CsrMatrix<T>,
    tile_width: usize,
    x: DenseView<'_, T>,
    x_start: usize,
    rows: usize,
    out: &mut [T],
    epi: &Epilogue<'_, T, F>,
) {
    let nout = csr.nrows();
    debug_assert_eq!(out.len(), rows * nout, "output block size");
    if nout == 0 {
        return;
    }
    for t in 0..nout.div_ceil(tile_width) {
        let base = t * tile_width;
        let width = tile_width.min(nout - base);
        for b in 0..rows {
            let xrow = x.row(x_start + b);
            let oseg = &mut out[b * nout + base..b * nout + base + width];
            for (il, o) in oseg.iter_mut().enumerate() {
                let (cols, ws) = csr.row(base + il);
                *o = lanes::dot_idx(cols, ws, xrow);
            }
            epi.apply_cols(oseg, base);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::epilogue::Bias;
    use crate::ops::dense_spmm;
    use crate::perm::CyclicShift;

    fn weights(n: usize, degree: usize) -> CsrMatrix<f64> {
        let mut k = 0u64;
        CyclicShift::radix_submatrix::<u64>(n, degree, 1).map(|_| {
            k += 1;
            (k % 7) as f64 * 0.5 - 1.0
        })
    }

    fn batch(rows: usize, cols: usize) -> DenseMatrix<f64> {
        let mut m = DenseMatrix::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                if (i + j) % 3 != 0 {
                    m.set(i, j, (i * cols + j) as f64 * 0.25 - 3.0);
                }
            }
        }
        m
    }

    #[test]
    fn build_partitions_every_entry() {
        let w = weights(24, 3);
        let tiles = ColumnTiles::build(&w, 7);
        assert_eq!(tiles.ntiles(), 24usize.div_ceil(7));
        assert_eq!(*tiles.col_ptr.last().unwrap(), w.nnz());
        let dense = w.to_dense();
        for j in 0..24 {
            let lo = tiles.col_ptr[j];
            let hi = tiles.col_ptr[j + 1];
            // Ascending source rows within a column (the bitwise-order
            // invariant), and every entry matches the dense matrix.
            let rows: Vec<u32> = tiles.src[lo..hi].to_vec();
            assert!(rows.windows(2).all(|w| w[0] < w[1]), "column {j} order");
            for e in lo..hi {
                let i = tiles.src[e] as usize;
                assert_eq!(dense.get(i, j), tiles.vals[e], "entry ({i},{j})");
            }
        }
    }

    #[test]
    fn gather_block_matches_naive_bitwise() {
        let w = weights(24, 3);
        let x = batch(5, 24);
        let expect = dense_spmm(&x, &w).unwrap();
        for tile_cols in [1, 3, 8, 24, 100] {
            let tiles = ColumnTiles::build(&w, tile_cols);
            let mut out = vec![9.0f64; 5 * 24]; // stale contents must not matter
            tiles.gather_block(x.view(), 0, 5, &mut out, &Epilogue::identity());
            assert_eq!(out, expect.as_slice(), "tile_cols = {tile_cols}");
        }
    }

    #[test]
    fn gather_block_offsets_and_epilogue() {
        let w = weights(12, 2);
        let x = batch(6, 12);
        let bias: Vec<f64> = (0..12).map(|j| j as f64 * 0.1).collect();
        let epi = Epilogue::new(Bias::PerOutput(&bias), |v: f64| v.max(0.0));
        // Reference: full product + bias + relu.
        let mut expect = dense_spmm(&x, &w).unwrap();
        for i in 0..6 {
            let row: &mut [f64] = expect.row_mut(i);
            for (v, &b) in row.iter_mut().zip(&bias) {
                *v = (*v + b).max(0.0);
            }
        }
        // Tiled, rows [2, 5) only.
        let tiles = ColumnTiles::build(&w, 5);
        let mut out = vec![7.0f64; 3 * 12];
        tiles.gather_block(x.view(), 2, 3, &mut out, &epi);
        for (b, row) in out.chunks(12).enumerate() {
            assert_eq!(row, expect.row(b + 2), "block row {b}");
        }
    }

    #[test]
    fn transposed_block_loops_match_naive() {
        use crate::ops::dense_spmm_transposed;
        // `weights` can drop zero-mapped values (irregular → CSR path);
        // the ELL loop needs a genuinely constant-degree matrix, so use
        // values that never map to zero.
        let mut k = 0u64;
        let ell: CsrMatrix<f64> = CyclicShift::radix_submatrix::<u64>(24, 3, 1).map(|_| {
            k += 1;
            (k % 6) as f64 * 0.5 - 1.3
        });
        assert_eq!(ell.nnz(), 24 * 3, "constant degree required");
        let csr = weights(24, 3);
        let x = batch(5, 24);
        let bias: Vec<f64> = (0..24).map(|i| i as f64 * 0.05 - 0.3).collect();
        let epi = Epilogue::new(Bias::PerOutput(&bias), |v: f64| v.max(0.0));
        let expect_ell = dense_spmm_transposed(&x, &ell).unwrap();
        let mut expect_csr = dense_spmm_transposed(&x, &csr).unwrap();
        for i in 0..5 {
            let row: &mut [f64] = expect_csr.row_mut(i);
            for (v, &b) in row.iter_mut().zip(&bias) {
                *v = (*v + b).max(0.0);
            }
        }
        for width in [1usize, 5, 24, 100] {
            // ELL: identity epilogue, full row range, stale output.
            let mut out = vec![9.0f64; 5 * 24];
            gather_t_block_ell(
                ell.indices(),
                ell.data(),
                3,
                24,
                width,
                x.view(),
                0,
                5,
                &mut out,
                &Epilogue::identity(),
            );
            assert_eq!(out, expect_ell.as_slice(), "ell width {width}");
            // CSR: fused epilogue, partial row block [2, 5).
            let mut out = vec![7.0f64; 3 * 24];
            gather_t_block_csr(&csr, width, x.view(), 2, 3, &mut out, &epi);
            for (b, row) in out.chunks(24).enumerate() {
                assert_eq!(row, expect_csr.row(b + 2), "csr width {width} row {b}");
            }
        }
    }

    #[test]
    fn tile_cols_env_default() {
        assert!(tile_cols() > 0);
        assert_eq!(tile_cols(), tile_cols());
    }

    #[test]
    fn block_rows_is_positive_and_stable() {
        assert!(block_rows() > 0);
        assert_eq!(block_rows(), block_rows());
    }
}
