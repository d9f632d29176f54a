//! Column tiling and the diagonal storage: the cache-blocked,
//! gather-formulated layouts behind the prepared product kernels.
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
//! equal everywhere it matters; a matrix storing a non-finite weight
//! (`0 · ∞ = NaN`) is never tiled — `PreparedWeights::tile` refuses it —
//! nor stored as diagonals.
//!
//! A matrix that is exactly a sum of cyclic shifts — every square
//! RadiX-Net layer — is never tiled this way: [`CyclicDiagonals`] is its
//! whole storage, at every width, and runs the same tile-major loop in
//! the same order with no `src` or `col_ptr` arrays. It also carries the
//! transposed product and the weight gradient, all three as unit-stride
//! shift-adds over the diagonals, each compiled twice — baseline x86-64
//! and AVX2 — and picked from the CPU at run time ([`avx2_available`]).
//! Both layouts gather on every row block, however sparse its
//! activations: on the Graph Challenge forward pass the gather outruns a
//! zero-skipping scatter even on dying rows at ≤ 10% nonzero, whose
//! read-modify-write output traffic costs more than the zeros it skips.
//!
//! The same tile-major treatment also serves the **transposed** products
//! of the backward/training pass: `X · Wᵀ` gathers over the columns of
//! `Wᵀ`, whose CSC layout *is* `W`'s CSR (= ELL) layout — so the tiled
//! transposed kernels in [`crate::kernel::PreparedWeights`] tile over
//! blocks of `W` rows zero-copy, via `gather_t_block_ell` /
//! `gather_t_block_csr` below, and need no prebuilt `ColumnTiles`. The
//! diagonal layout gets its own transposed shift-add
//! ([`CyclicDiagonals::gather_t_block`]).

use crate::csr::CsrMatrix;
#[cfg(test)]
use crate::dense::DenseMatrix;
use crate::dense::DenseView;
use crate::error::SparseError;
use crate::kernel::epilogue::Epilogue;
use crate::kernel::heuristic::KernelPlan;
use crate::kernel::lanes;
use crate::scalar::Scalar;

/// Default output-column tile width (elements). Chosen by measuring the
/// `n=16384, deg=8` Graph-Challenge config: 1024-column tiles keep a tile's
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

    /// Number of column tiles.
    #[cfg(test)]
    pub(crate) fn ntiles(&self) -> usize {
        self.ncols.div_ceil(self.tile_cols).max(1)
    }

    /// Computes rows `[x_start, x_start + rows)` of `epi(X · W)` into
    /// `out` on the tile-major schedule ([`gather_block_tiles`]).
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
        gather_block_tiles(
            self.tile_cols,
            self.ncols,
            x,
            x_start,
            rows,
            out,
            epi,
            |base, xrow, oseg| {
                let col_ptr = &self.col_ptr[base..base + oseg.len() + 1];
                gather_tile_row(col_ptr, &self.src, &self.vals, xrow, oseg);
            },
        );
    }
}

/// The tile-major block loop both tile layouts run: computes rows
/// `[x_start, x_start + rows)` of `epi(X · W)` into `out` (row-major,
/// `rows × ncols`). For each `tile_cols`-wide column tile, every row of
/// the block gathers its tile segment through `tile_row(first_column,
/// xrow, segment)` (each output element written exactly once — stale
/// `out` contents don't matter), then the epilogue runs on that cache-hot
/// segment.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn gather_block_tiles<T: Scalar, F: Fn(T) -> T + Sync>(
    tile_cols: usize,
    ncols: usize,
    x: DenseView<'_, T>,
    x_start: usize,
    rows: usize,
    out: &mut [T],
    epi: &Epilogue<'_, T, F>,
    tile_row: impl Fn(usize, &[T], &mut [T]),
) {
    debug_assert_eq!(out.len(), rows * ncols, "output block size");
    // Same contract as the per-row kernels: a mis-sized per-output
    // bias is an error even though the tiled loop only sees segments.
    epi.assert_width(ncols);
    for base in (0..ncols).step_by(tile_cols) {
        let width = tile_cols.min(ncols - base);
        for b in 0..rows {
            let xrow = x.row(x_start + b);
            let oseg = &mut out[b * ncols + base..b * ncols + base + width];
            tile_row(base, xrow, oseg);
            epi.apply_cols(oseg, base);
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

/// Output columns per register block of the shift-add gather and its
/// transpose. The lanes of a block are independent accumulation chains,
/// so a wider block hides the add latency a narrow one exposes. Each
/// segment runs down the cascade 64 → 32 → [`lanes::LANE_WIDTH`] → 1
/// columns, all in the same term order, in both compiled copies
/// ([`avx2_available`]). In the AVX2 copy 64 `f32` columns are 8 `ymm`
/// accumulators; the 32-wide step runs a `ν = 32` segment (the
/// `train_sparse` net) as one 32-wide block, not four 8-wide ones.
/// Measured on a 2-vCPU AVX2 box against the single 32-wide SSE2 copy
/// this replaced, ten alternating 25 s pairs: `infer_batch` 39.0 → 53.0 G
/// edges/s and `train_sparse` 9.10 → 10.03 G. The SSE2 copy alone, with
/// this cascade, read 41–44 G against 37–38 G on `infer_batch` (three
/// 6 s pairs).
const CYCLIC_BLOCK: usize = 8 * lanes::LANE_WIDTH;

/// Whether the diagonal kernels run their AVX2 copy: decided from the
/// CPU at run time (the detection is cached by `std`), so one binary
/// uses the whole vector width where it exists and baseline x86-64
/// elsewhere. Both copies compile the same `#[inline(always)]` bodies,
/// which add the same products in the same order — Rust never contracts
/// `mul` + `add` into an FMA — so their results are the same bits.
#[cfg(target_arch = "x86_64")]
#[inline]
fn avx2_available() -> bool {
    std::arch::is_x86_feature_detected!("avx2")
}

/// The storage of a RadiX-Net layer. Paper eq. (2) builds every layer as
/// `W = Σ_{t<r} P^(t·ν)` (`P` the unit cyclic shift on `n` nodes, `r` the
/// radix, `ν` the place value, `r·ν ≤ n`): row `i` holds columns
/// `{(i + t·ν) mod n}`, so column `j` gathers from sources
/// `{(j − t·ν) mod n}` and every index is implied by `(n, r, ν)`. Only
/// the `r` value diagonals are stored — 4 bytes per edge, where CSR/ELL
/// keeps 12 (an 8-byte column index beside each value) — and all three
/// training products run from them as unit-stride shift-adds:
///
/// * **forward** `X · W` ([`CyclicDiagonals::gather_block`]): cut the
///   columns into segments `[kν, (k+1)ν)` for `k < r − 1` and a last
///   segment `[(r−1)ν, n)`. For a column `j` of segment `k`, terms `t ≤ k`
///   read the unwrapped source `j − tν ≤ j` and terms `t > k` the wrapped
///   source `j − tν + n > j`, so ascending source row — the order every
///   other kernel accumulates in — is the fixed term order
///   `t = k, k−1, …, 0, r−1, r−2, …, k+1`, the same for every column of
///   the segment. A run of adjacent columns therefore accumulates
///   lane-wise from contiguous slices of `x` and of the diagonals, each
///   lane bitwise equal to [`lanes::dot_src_u32`] over the column's CSC
///   entries;
/// * **transposed** `X · Wᵀ` ([`CyclicDiagonals::gather_t_block`]): row
///   `i` of `W` reads `diag[t][(i + tν) mod n]`. Its first
///   `u = min(⌈(n−i)/ν⌉, r)` terms land on `i + tν < n`, the rest wrap to
///   `i + tν − n < i` and so come first in the row's ascending-column
///   order: `t = u, …, r−1, 0, …, u−1`. `u` is constant over the row runs
///   `[n − uν, n − (u−1)ν)` (and `[0, n − (r−1)ν)` for `u = r`), so a run
///   of adjacent rows again accumulates lane-wise from contiguous slices,
///   bitwise equal to the ELL row gather;
/// * **weight gradient** `G = Xᵀ · Δ` on the pattern
///   ([`CyclicDiagonals::weight_grads`]): `g[t·n + j] += x[b, (j − tν) mod
///   n] · δ[b, j]` is, per `(b, t)`, one contiguous multiply-add split at
///   the wrap `j = tν`. Every element still sums over `b` ascending, the
///   order of the per-edge loop.
///
/// Storage order is `diags[t·n + j] = W[(j − t·ν) mod n, j]`;
/// [`CyclicDiagonals::for_each_csr_entry`] maps it to CSR order.
///
/// A layer whose every value is one finite, nonzero `w` (a Graph Challenge
/// layer) is marked as such, and its forward product multiplies by `w`
/// held in a register instead of loading the diagonals: the same products
/// in the same order, so the same bits, with half the loads.
#[derive(Debug, Clone)]
pub(crate) struct CyclicDiagonals<T> {
    /// Nodes per side (the matrix is `n × n`).
    n: usize,
    /// Terms in the sum (`r`, every row's and column's degree).
    radix: usize,
    /// Shift between consecutive terms (`ν`).
    stride: usize,
    /// `diags[t·n + j] = W[(j − t·ν) mod n, j]`.
    diags: Vec<T>,
    /// `Some(w)` while every value in `diags` is the finite, nonzero `w`
    /// (equal such values have equal bits); set where the diagonals are
    /// built, cleared by [`CyclicDiagonals::values_mut`].
    uniform: Option<T>,
}

/// The matrix, not how its forward product reads it: `uniform` follows
/// from `diags` or is cleared, so it does not take part.
impl<T: PartialEq> PartialEq for CyclicDiagonals<T> {
    fn eq(&self, other: &Self) -> bool {
        (self.n, self.radix, self.stride) == (other.n, other.radix, other.stride)
            && self.diags == other.diags
    }
}

/// Whether `w · 0 == 0` for every value — the law multiplying zero
/// activations through relies on; it fails for ±∞ and NaN only.
pub(crate) fn all_finite<T: Scalar>(values: &[T]) -> bool {
    values.iter().all(|w| w.mul(T::ZERO).is_zero())
}

/// The one finite, nonzero value every element of `values` equals, if
/// there is one.
fn uniform_value<T: Scalar>(values: &[T]) -> Option<T> {
    let &w = values.first()?;
    (!w.is_zero() && all_finite(&[w]) && values.iter().all(|&v| v == w)).then_some(w)
}

impl<T: Scalar> CyclicDiagonals<T> {
    /// The storage of `Σ_{t<radix} P^(t·stride)` on `n` nodes from its
    /// diagonals in storage order, under the rules [`CyclicDiagonals::detect`]
    /// checks of a CSR plus the finite values the diagonal kernels need:
    /// `radix ≥ 2`, `stride ≥ 1`, `radix · stride ≤ n`, `radix · n`
    /// values, all finite.
    pub(crate) fn from_parts(
        n: usize,
        radix: usize,
        stride: usize,
        diags: Vec<T>,
    ) -> Result<Self, SparseError> {
        let invalid = |why: String| {
            Err(SparseError::InvalidStructure(format!(
                "diagonals of Σ P^(t·ν) with n = {n}, r = {radix}, ν = {stride}: {why}"
            )))
        };
        if radix < 2 {
            return invalid("r < 2".into());
        }
        if stride == 0 {
            return invalid("ν = 0".into());
        }
        if radix.checked_mul(stride).is_none_or(|span| span > n) {
            return invalid("r·ν > n".into());
        }
        if Some(diags.len()) != radix.checked_mul(n) {
            return invalid(format!("{} values, r·n required", diags.len()));
        }
        if !all_finite(&diags) {
            return invalid("a value is not finite".into());
        }
        Ok(Self::assemble(n, radix, stride, diags))
    }

    /// The storage over checked parts, with its uniform value recorded.
    fn assemble(n: usize, radix: usize, stride: usize, diags: Vec<T>) -> Self {
        CyclicDiagonals {
            n,
            radix,
            stride,
            uniform: uniform_value(&diags),
            diags,
        }
    }

    /// Checks, in one `O(nnz)` pass, that `csr` is exactly
    /// `Σ_{t<r} P^(t·ν)` for some `r ≥ 2`, `ν ≥ 1`, `r·ν ≤ n` — row 0
    /// fixes `r` and `ν`, and every row `i` must then hold the columns
    /// `{(i + t·ν) mod n}` in CSR's ascending order — filling the value
    /// diagonals as it goes. Any mismatch returns `None` (the caller keeps
    /// the CSR); nothing about the matrix's provenance is assumed.
    pub(crate) fn detect(csr: &CsrMatrix<T>) -> Option<Self> {
        let n = csr.nrows();
        if n != csr.ncols() || n == 0 {
            return None;
        }
        let (row0, _) = csr.row(0);
        let radix = row0.len();
        if radix < 2 || row0[0] != 0 {
            return None;
        }
        let stride = row0[1];
        // `r·ν ≤ n` keeps the `r` sources of a column distinct; the
        // entry count bounds the diagonal allocation by what the matrix
        // already stores.
        if stride == 0 || radix.checked_mul(stride)? > n || Some(csr.nnz()) != radix.checked_mul(n)
        {
            return None;
        }
        let mut diags = vec![T::ZERO; radix * n];
        for i in 0..n {
            let (cols, ws) = csr.row(i);
            if cols.len() != radix {
                return None;
            }
            // Terms `t < unwrapped` land on `i + tν < n`; the rest wrap
            // to `i + tν − n < i`, so they come first in the sorted row.
            let unwrapped = (n - i).div_ceil(stride).min(radix);
            let mut t = unwrapped % radix;
            for (&j, &w) in cols.iter().zip(ws) {
                let shifted = i + t * stride;
                if j != if shifted < n { shifted } else { shifted - n } {
                    return None;
                }
                diags[t * n + j] = w;
                t = if t + 1 < radix { t + 1 } else { 0 };
            }
        }
        Some(Self::assemble(n, radix, stride, diags))
    }

    /// Nodes per side.
    pub(crate) fn n(&self) -> usize {
        self.n
    }

    /// `(radix, stride)`: the `r` and `ν` of `Σ_{t<r} P^(t·ν)`.
    pub(crate) fn radix_stride(&self) -> (usize, usize) {
        (self.radix, self.stride)
    }

    /// The diagonals, in storage order `t·n + j`.
    pub(crate) fn values(&self) -> &[T] {
        &self.diags
    }

    /// Mutable diagonals: the pattern is implied, so any values are valid.
    /// A non-finite value reaches every row of the gathers, zero rows
    /// included ([`crate::PreparedWeights::values_mut`]). The forward
    /// product reads the diagonals from here on, not one broadcast value.
    pub(crate) fn values_mut(&mut self) -> &mut [T] {
        self.uniform = None;
        &mut self.diags
    }

    /// How many of row `i`'s terms land on `i + tν < n` without wrapping
    /// (the `u` of the transposed order).
    #[inline]
    fn unwrapped(&self, i: usize) -> usize {
        (self.n - i).div_ceil(self.stride).min(self.radix)
    }

    /// Visits every entry in CSR order — rows ascending, columns ascending
    /// within a row — as `f(column, storage index)`.
    pub(crate) fn for_each_csr_entry(&self, mut f: impl FnMut(usize, usize)) {
        let (n, nu) = (self.n, self.stride);
        for i in 0..n {
            let u = self.unwrapped(i);
            for t in u..self.radix {
                let j = i + t * nu - n;
                f(j, t * n + j);
            }
            for t in 0..u {
                let j = i + t * nu;
                f(j, t * n + j);
            }
        }
    }

    /// The matrix as CSR: every entry stored, explicit zeros included.
    pub(crate) fn to_csr(&self) -> CsrMatrix<T> {
        let (n, nnz) = (self.n, self.diags.len());
        let indptr = (0..=n).map(|i| i * self.radix).collect();
        let mut indices = Vec::with_capacity(nnz);
        let mut data = Vec::with_capacity(nnz);
        self.for_each_csr_entry(|j, s| {
            indices.push(j);
            data.push(self.diags[s]);
        });
        CsrMatrix::from_parts_unchecked(n, n, indptr, indices, data)
    }

    /// One row block of `epi(X · W)` on the tile-major schedule
    /// ([`ColumnTiles::gather_block`]'s loop), each (tile, row) pass a
    /// shift-add over the diagonals; the AVX2 copy where the CPU has it
    /// ([`avx2_available`]).
    pub(crate) fn gather_block<F: Fn(T) -> T + Sync>(
        &self,
        tile_cols: usize,
        x: DenseView<'_, T>,
        x_start: usize,
        rows: usize,
        out: &mut [T],
        epi: &Epilogue<'_, T, F>,
    ) {
        #[cfg(target_arch = "x86_64")]
        if avx2_available() {
            // SAFETY: `is_x86_feature_detected!("avx2")` (`avx2_available`)
            // found AVX2 on this CPU.
            #[allow(unsafe_code)]
            unsafe {
                self.gather_block_avx2(tile_cols, x, x_start, rows, out, epi);
            }
            return;
        }
        self.gather_block_body(tile_cols, x, x_start, rows, out, epi);
    }

    /// [`CyclicDiagonals::gather_block_body`] compiled for AVX2.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    fn gather_block_avx2<F: Fn(T) -> T + Sync>(
        &self,
        tile_cols: usize,
        x: DenseView<'_, T>,
        x_start: usize,
        rows: usize,
        out: &mut [T],
        epi: &Epilogue<'_, T, F>,
    ) {
        self.gather_block_body(tile_cols, x, x_start, rows, out, epi);
    }

    /// The forward tile loop with its fused epilogue, inlined whole into
    /// each copy — twice, once per weight source: the broadcast value of
    /// a uniform layer, or the stored diagonals.
    #[inline(always)]
    fn gather_block_body<F: Fn(T) -> T + Sync>(
        &self,
        tile_cols: usize,
        x: DenseView<'_, T>,
        x_start: usize,
        rows: usize,
        out: &mut [T],
        epi: &Epilogue<'_, T, F>,
    ) {
        match self.uniform {
            Some(w) => self.gather_tiles(Broadcast(w), tile_cols, x, x_start, rows, out, epi),
            None => self.gather_tiles(&self.diags[..], tile_cols, x, x_start, rows, out, epi),
        }
    }

    /// [`CyclicDiagonals::gather_block_body`] reading its weights from `w`.
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    fn gather_tiles<S: TermWeights<T>, F: Fn(T) -> T + Sync>(
        &self,
        w: S,
        tile_cols: usize,
        x: DenseView<'_, T>,
        x_start: usize,
        rows: usize,
        out: &mut [T],
        epi: &Epilogue<'_, T, F>,
    ) {
        gather_block_tiles(
            tile_cols,
            self.n,
            x,
            x_start,
            rows,
            out,
            epi,
            #[inline(always)]
            |base, xrow, oseg| self.gather_tile_row(w, base, xrow, oseg),
        );
    }

    /// One (tile, batch row) pass: `oseg` is output columns `[base, base
    /// + oseg.len())`, cut at the segment boundaries it spans, each piece
    /// down the [`CYCLIC_BLOCK`] cascade.
    #[inline(always)]
    fn gather_tile_row<S: TermWeights<T>>(&self, w: S, base: usize, xrow: &[T], oseg: &mut [T]) {
        debug_assert_eq!(xrow.len(), self.n, "activation row width");
        let end = base + oseg.len();
        let mut lo = base;
        while lo < end {
            let k = (lo / self.stride).min(self.radix - 1);
            let hi = if k + 1 < self.radix {
                end.min((k + 1) * self.stride)
            } else {
                end
            };
            let piece = &mut oseg[lo - base..hi - base];
            let mut done = self.blocks::<CYCLIC_BLOCK, S>(w, k, lo, xrow, piece);
            done +=
                self.blocks::<{ CYCLIC_BLOCK / 2 }, S>(w, k, lo + done, xrow, &mut piece[done..]);
            done +=
                self.blocks::<{ lanes::LANE_WIDTH }, S>(w, k, lo + done, xrow, &mut piece[done..]);
            self.blocks::<1, S>(w, k, lo + done, xrow, &mut piece[done..]);
            lo = hi;
        }
    }

    /// Computes the whole `W`-column blocks of `out` (output columns
    /// `[lo, lo + out.len())`, all inside segment `k`), returning how
    /// many columns that covered. Each block starts at zero and adds its
    /// `r` terms in the segment's ascending-source order, lane-wise, the
    /// weights of term `t` read from `w` at storage index `t·n + j`.
    /// Within each of the two runs (unwrapped `t = k, …, 0`, wrapped
    /// `t = r−1, …, k+1`) the activation offset `s` rises by `ν` per
    /// term, so it is stepped rather than recomputed: one bounds check on
    /// `x` and no multiply for it per term (the 64-wide broadcast block
    /// read 78 → 91 G `infer_batch` edges/s for it, two 8 s runs on a
    /// 2-vCPU AVX2 box).
    #[inline(always)]
    fn blocks<const W: usize, S: TermWeights<T>>(
        &self,
        w: S,
        k: usize,
        lo: usize,
        xrow: &[T],
        out: &mut [T],
    ) -> usize {
        let (n, nu) = (self.n, self.stride);
        let mut j = lo;
        for o in out.chunks_exact_mut(W) {
            let mut acc = [T::ZERO; W];
            let mut s = j - k * nu;
            for t in (0..k + 1).rev() {
                w.add_term(&mut acc, &xrow[s..s + W], t * n + j);
                s += nu;
            }
            let mut s = j + n - (self.radix - 1) * nu;
            for t in (k + 1..self.radix).rev() {
                w.add_term(&mut acc, &xrow[s..s + W], t * n + j);
                s += nu;
            }
            o.copy_from_slice(&acc);
            j += W;
        }
        j - lo
    }

    /// Rows `[x_start, x_start + rows)` of `epi(X · Wᵀ)` into `out`
    /// (`rows × n`), on the forward product's tile-major loop over
    /// `tile_cols`-wide blocks of `W` rows; the AVX2 copy where the CPU
    /// has it ([`avx2_available`]).
    pub(crate) fn gather_t_block<F: Fn(T) -> T + Sync>(
        &self,
        tile_cols: usize,
        x: DenseView<'_, T>,
        x_start: usize,
        rows: usize,
        out: &mut [T],
        epi: &Epilogue<'_, T, F>,
    ) {
        #[cfg(target_arch = "x86_64")]
        if avx2_available() {
            // SAFETY: `is_x86_feature_detected!("avx2")` (`avx2_available`)
            // found AVX2 on this CPU.
            #[allow(unsafe_code)]
            unsafe {
                self.gather_t_block_avx2(tile_cols, x, x_start, rows, out, epi);
            }
            return;
        }
        self.gather_t_block_body(tile_cols, x, x_start, rows, out, epi);
    }

    /// [`CyclicDiagonals::gather_t_block_body`] compiled for AVX2.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    fn gather_t_block_avx2<F: Fn(T) -> T + Sync>(
        &self,
        tile_cols: usize,
        x: DenseView<'_, T>,
        x_start: usize,
        rows: usize,
        out: &mut [T],
        epi: &Epilogue<'_, T, F>,
    ) {
        self.gather_t_block_body(tile_cols, x, x_start, rows, out, epi);
    }

    /// The transposed tile loop with its fused epilogue, inlined whole
    /// into each copy.
    #[inline(always)]
    fn gather_t_block_body<F: Fn(T) -> T + Sync>(
        &self,
        tile_cols: usize,
        x: DenseView<'_, T>,
        x_start: usize,
        rows: usize,
        out: &mut [T],
        epi: &Epilogue<'_, T, F>,
    ) {
        gather_block_tiles(
            tile_cols,
            self.n,
            x,
            x_start,
            rows,
            out,
            epi,
            #[inline(always)]
            |base, xrow, oseg| self.gather_t_tile_row(base, xrow, oseg),
        );
    }

    /// One (tile, batch row) pass of the transposed product: `oseg` is
    /// `W` rows `[base, base + oseg.len())`, cut where `u` changes.
    #[inline(always)]
    fn gather_t_tile_row(&self, base: usize, xrow: &[T], oseg: &mut [T]) {
        debug_assert_eq!(xrow.len(), self.n, "gradient row width");
        let end = base + oseg.len();
        let mut lo = base;
        while lo < end {
            // `u ≥ 1` (row `lo < n` always has its `t = 0` term), and the
            // rows sharing it end at `n − (u−1)ν`.
            let u = self.unwrapped(lo);
            let hi = end.min(self.n - (u - 1) * self.stride);
            let piece = &mut oseg[lo - base..hi - base];
            let mut done = self.t_blocks::<CYCLIC_BLOCK>(u, lo, xrow, piece);
            done += self.t_blocks::<{ CYCLIC_BLOCK / 2 }>(u, lo + done, xrow, &mut piece[done..]);
            done += self.t_blocks::<{ lanes::LANE_WIDTH }>(u, lo + done, xrow, &mut piece[done..]);
            self.t_blocks::<1>(u, lo + done, xrow, &mut piece[done..]);
            lo = hi;
        }
    }

    /// [`CyclicDiagonals::blocks`] for the transposed product: whole
    /// `W`-row blocks of `out` (rows `[lo, lo + out.len())`, all with `u`
    /// unwrapped terms), each adding its `r` terms in the rows'
    /// ascending-column order `t = u, …, r−1, 0, …, u−1`.
    #[inline(always)]
    fn t_blocks<const W: usize>(&self, u: usize, lo: usize, xrow: &[T], out: &mut [T]) -> usize {
        let (n, nu) = (self.n, self.stride);
        let mut i = lo;
        for o in out.chunks_exact_mut(W) {
            let mut acc = [T::ZERO; W];
            for t in u..self.radix {
                let c = i + t * nu - n;
                add_term(&mut acc, &xrow[c..], &self.diags[t * n + c..]);
            }
            for t in 0..u {
                let c = i + t * nu;
                add_term(&mut acc, &xrow[c..], &self.diags[t * n + c..]);
            }
            o.copy_from_slice(&acc);
            i += W;
        }
        i - lo
    }

    /// Accumulates the weight gradient `Σ_b x[b, src] · δ[b, j]` of every
    /// edge into `out` (storage order, `nnz` long): term `t` owns the
    /// contiguous slice `out[t·n .. (t+1)·n]`, which takes one
    /// multiply-add per batch row, rows ascending. On the pool, terms are
    /// the tasks; every element's sum order is the same either way. Each
    /// term runs the AVX2 copy where the CPU has it ([`avx2_available`]).
    pub(crate) fn weight_grads(
        &self,
        x: DenseView<'_, T>,
        delta: DenseView<'_, T>,
        out: &mut [T],
        pool: bool,
    ) {
        debug_assert_eq!(out.len(), self.diags.len(), "gradient buffer length");
        #[cfg(target_arch = "x86_64")]
        let wide = avx2_available();
        let term = |t: usize, g: &mut [T]| {
            #[cfg(target_arch = "x86_64")]
            if wide {
                // SAFETY: `is_x86_feature_detected!("avx2")`
                // (`avx2_available`) found AVX2 on this CPU.
                #[allow(unsafe_code)]
                unsafe {
                    self.grad_term_avx2(x, delta, t, g);
                }
                return;
            }
            self.grad_term(x, delta, t, g);
        };
        if pool {
            rayon::for_each_chunk_mut(out, self.n, term);
        } else {
            for (t, g) in out.chunks_mut(self.n).enumerate() {
                term(t, g);
            }
        }
    }

    /// [`CyclicDiagonals::grad_term`] compiled for AVX2.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    fn grad_term_avx2(&self, x: DenseView<'_, T>, delta: DenseView<'_, T>, t: usize, g: &mut [T]) {
        self.grad_term(x, delta, t, g);
    }

    /// Term `t`'s slice `g` of [`CyclicDiagonals::weight_grads`], inlined
    /// whole into each copy.
    #[inline(always)]
    fn grad_term(&self, x: DenseView<'_, T>, delta: DenseView<'_, T>, t: usize, g: &mut [T]) {
        let n = self.n;
        // `tν < n`: columns `j < tν` read the wrapped source `j − tν + n`.
        let s = t * self.stride;
        let (g_wrapped, g_rest) = g.split_at_mut(s);
        // Four rows per sweep quarter the passes over `g`; each element
        // still adds row `b`'s term before row `b + 1`'s.
        let rows = x.nrows();
        let mut b = 0;
        while b + 4 <= rows {
            let xr = [x.row(b), x.row(b + 1), x.row(b + 2), x.row(b + 3)];
            let dr = [
                delta.row(b),
                delta.row(b + 1),
                delta.row(b + 2),
                delta.row(b + 3),
            ];
            multiply_add_rows(g_wrapped, xr.map(|r| &r[n - s..]), dr.map(|r| &r[..s]));
            multiply_add_rows(g_rest, xr.map(|r| &r[..n - s]), dr.map(|r| &r[s..]));
            b += 4;
        }
        for b in b..rows {
            let (xrow, drow) = (x.row(b), delta.row(b));
            multiply_add_rows(g_wrapped, [&xrow[n - s..]], [&drow[..s]]);
            multiply_add_rows(g_rest, [&xrow[..n - s]], [&drow[s..]]);
        }
    }
}

/// `acc[l] += xs[l] · ds[l]` over the first `W` elements of each slice.
#[inline(always)]
fn add_term<T: Scalar, const W: usize>(acc: &mut [T; W], xs: &[T], ds: &[T]) {
    for ((a, &x), &d) in acc.iter_mut().zip(&xs[..W]).zip(&ds[..W]) {
        *a = a.add(x.mul(d));
    }
}

/// Where the forward shift-add reads a term's weights: the stored
/// diagonals (`&[T]`, every layer), or one value held in a register
/// ([`Broadcast`], a uniform layer). Both multiply each activation by the
/// same weight bits, so they give the same sums.
trait TermWeights<T>: Copy {
    /// `acc[l] += xs[l] · w[at + l]` over the first `W` activations.
    fn add_term<const W: usize>(self, acc: &mut [T; W], xs: &[T], at: usize);
}

impl<T: Scalar> TermWeights<T> for &[T] {
    #[inline(always)]
    fn add_term<const W: usize>(self, acc: &mut [T; W], xs: &[T], at: usize) {
        add_term(acc, xs, &self[at..at + W]);
    }
}

/// Every weight is this one value.
#[derive(Clone, Copy)]
struct Broadcast<T>(T);

impl<T: Scalar> TermWeights<T> for Broadcast<T> {
    #[inline(always)]
    fn add_term<const W: usize>(self, acc: &mut [T; W], xs: &[T], _at: usize) {
        for (a, &x) in acc.iter_mut().zip(&xs[..W]) {
            *a = a.add(x.mul(self.0));
        }
    }
}

/// `g[j] += Σ_k xs[k][j] · ds[k][j]`, the `R` terms added to each element
/// in ascending `k`.
#[inline(always)]
fn multiply_add_rows<T: Scalar, const R: usize>(g: &mut [T], xs: [&[T]; R], ds: [&[T]; R]) {
    let n = g.len();
    let xs = xs.map(|r| &r[..n]);
    let ds = ds.map(|r| &r[..n]);
    for (j, g) in g.iter_mut().enumerate() {
        let mut acc = *g;
        for k in 0..R {
            acc = acc.add(xs[k][j].mul(ds[k][j]));
        }
        *g = acc;
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

    /// `Σ_{t<r} P^(t·ν)` on `n` nodes with a distinct, never-zero weight
    /// per edge.
    fn cyclic(n: usize, r: usize, nu: usize) -> CsrMatrix<f64> {
        let mut k = 0u64;
        CyclicShift::radix_submatrix::<u64>(n, r, nu).map(|_| {
            k += 1;
            k as f64 * 0.125 - 3.3
        })
    }

    #[test]
    fn detect_stores_each_diagonal() {
        // r·ν = n, r·ν < n (the divisor-last-system case), ν = 1.
        for (n, r, nu) in [(12, 3, 4), (12, 3, 2), (9, 4, 1), (5, 2, 2)] {
            let w = cyclic(n, r, nu);
            let d = CyclicDiagonals::detect(&w).expect("a sum of shifts");
            assert_eq!((d.radix, d.stride), (r, nu));
            assert_eq!(d.diags.len(), w.nnz());
            for t in 0..r {
                for j in 0..n {
                    let i = (j + n - t * nu) % n;
                    assert_eq!(d.diags[t * n + j], w.get(i, j), "diag {t} col {j}");
                }
            }
        }
    }

    #[test]
    fn detect_rejects_everything_else() {
        let none = |w: &CsrMatrix<f64>| CyclicDiagonals::detect(w).is_none();
        // Degree 1 (row 0 cannot fix ν), a pure shift, the empty matrix.
        assert!(none(&CsrMatrix::identity(6)));
        assert!(none(&CyclicShift::new(6, 2).to_csr()));
        assert!(none(&CsrMatrix::zeros(0, 0)));
        // r·ν > n: the columns are distinct but the term order is not
        // the segment order.
        assert!(none(&cyclic(10, 4, 3)));
        // Non-square.
        assert!(none(&crate::kron_ones_left(2, 1, &cyclic(6, 2, 1))));
        // Right row 0, one later row off by a column.
        let mut coo = crate::CooMatrix::new(6, 6);
        for (i, j, v) in cyclic(6, 2, 2).iter() {
            coo.push(i, if (i, j) == (3, 5) { 4 } else { j }, v);
        }
        assert!(none(&coo.to_csr()));
    }

    #[test]
    fn cyclic_gather_matches_column_tiles_bitwise() {
        // Widths where the 32-lane blocks, the 8-lane blocks, the
        // single-column tail and every wrap segment all run.
        for (n, r, nu) in [(100, 3, 1), (100, 3, 33), (100, 4, 9), (67, 2, 20)] {
            let w = cyclic(n, r, nu);
            let x = batch(5, n);
            let expect = dense_spmm(&x, &w).unwrap();
            for tile_cols in [1, 7, 40, 64, 1000] {
                let d = CyclicDiagonals::detect(&w).expect("a sum of shifts");
                let mut out = vec![9.0f64; 5 * n]; // stale contents must not matter
                d.gather_block(tile_cols, x.view(), 0, 5, &mut out, &Epilogue::identity());
                assert_eq!(out, expect.as_slice(), "({n},{r},{nu}) tile {tile_cols}");
                let mut cols = vec![7.0f64; 5 * n];
                ColumnTiles::build(&w, tile_cols).gather_block(
                    x.view(),
                    0,
                    5,
                    &mut cols,
                    &Epilogue::identity(),
                );
                assert_eq!(out, cols, "({n},{r},{nu}) tile {tile_cols} vs CSC");
            }
        }
    }

    proptest::proptest! {
        /// Whenever detection accepts, `(n, r, ν, diags)` is the matrix:
        /// rebuilding CSR from them reproduces indices and value bits
        /// exactly. And it accepts every unbroken `Σ P^(t·ν)` with
        /// `r ≥ 2`, `ν ≥ 1`, `r·ν ≤ n`.
        #[test]
        fn accepted_diagonals_rebuild_the_csr(
            n in 1usize..40,
            r in 1usize..6,
            nu in 0usize..9,
            moved in (0usize..40, 0usize..6, 0usize..40),
            break_it in 0usize..2,
        ) {
            let mut coo = crate::CooMatrix::new(n, n);
            let (row, term, to) = moved;
            let mut k = 0u64;
            for (i, j, _) in CyclicShift::radix_submatrix::<u64>(n, r.min(n), nu).iter() {
                k += 1;
                let hit = break_it == 1 && i == row % n && j == (i + term * nu) % n;
                coo.push(i, if hit { to % n } else { j }, k as f64 * 0.375 - 4.0);
            }
            let w: CsrMatrix<f64> = coo.to_csr();
            let r = r.min(n);
            let Some(d) = CyclicDiagonals::detect(&w) else {
                proptest::prop_assert!(
                    break_it == 1 || r < 2 || nu == 0 || r * nu > n,
                    "({}, {}, {}) must be accepted", n, r, nu
                );
                return Ok(());
            };
            let (dr, dnu) = (d.radix, d.stride);
            proptest::prop_assert!(dr >= 2 && dnu >= 1 && dr * dnu <= n);
            let mut rebuilt = crate::CooMatrix::new(n, n);
            for t in 0..dr {
                for j in 0..n {
                    rebuilt.push((j + n - t * dnu) % n, j, d.diags[t * n + j]);
                }
            }
            let rebuilt: CsrMatrix<f64> = rebuilt.to_csr();
            let bits = |m: &CsrMatrix<f64>| m.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            // Both the COO rebuild and the storage's own CSR walk.
            for rebuilt in [rebuilt, d.to_csr()] {
                proptest::prop_assert_eq!(rebuilt.indptr(), w.indptr());
                proptest::prop_assert_eq!(rebuilt.indices(), w.indices());
                proptest::prop_assert_eq!(bits(&rebuilt), bits(&w));
            }
        }
    }

    /// A float the copy tests run on: made from an `f64`, compared by its
    /// bits.
    trait Float: Scalar + PartialOrd {
        fn of(v: f64) -> Self;
        fn bits(self) -> u64;
    }

    impl Float for f32 {
        fn of(v: f64) -> Self {
            v as f32
        }
        fn bits(self) -> u64 {
            u64::from(self.to_bits())
        }
    }

    impl Float for f64 {
        fn of(v: f64) -> Self {
            v
        }
        fn bits(self) -> u64 {
            self.to_bits()
        }
    }

    /// `len` values in `±[1/16, 32)` with full mantissas, so that adding the
    /// same terms in another order changes the rounded bits.
    fn mixed<T: Float>(len: usize, seed: u64) -> Vec<T> {
        let mut h = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..len)
            .map(|_| {
                h ^= h << 13;
                h ^= h >> 7;
                h ^= h << 17;
                let unit = (h >> 11) as f64 / (1u64 << 53) as f64;
                let sign = if h & 1 == 0 { 1.0 } else { -1.0 };
                T::of(sign * (1.0 + unit) * f64::from(1u32 << ((h >> 4) % 10)) / 16.0)
            })
            .collect()
    }

    fn diagonals<T: Float>(n: usize, radix: usize, stride: usize) -> CyclicDiagonals<T> {
        CyclicDiagonals::assemble(
            n,
            radix,
            stride,
            mixed(radix * n, (n * 31 + radix * 7 + stride) as u64),
        )
    }

    fn bits<T: Float>(v: &[T]) -> Vec<u64> {
        v.iter().map(|&x| x.bits()).collect()
    }

    /// `(n, r, ν)` shapes whose segments run every step of the block
    /// cascade and cross the wrap.
    const SHAPES: [(usize, usize, &[usize]); 3] = [
        (4096, 16, &[1, 16, 256]),
        (1024, 32, &[1, 32]),
        (100, 3, &[7]),
    ];

    /// `(rows, tile_cols)`: one row to a partial 32-row block, at tile
    /// widths that divide no `n`.
    const ROWS_TILES: [(usize, usize); 4] = [(1, 1000), (3, 37), (33, 1000), (33, 4099)];

    /// The Graph Challenge's `clamp(·, 0, 32)`.
    fn challenge_clamp<T: Float>(v: T) -> T {
        let top = T::of(32.0);
        if v < T::ZERO {
            T::ZERO
        } else if v > top {
            top
        } else {
            v
        }
    }

    /// Each diagonal kernel, run through its `#[inline(always)]` body from
    /// this (baseline-compiled) test and through the dispatched entry
    /// point, gives the same bits: on an AVX2 CPU that compares the AVX2
    /// copy with the baseline one, on any other CPU the baseline with
    /// itself. The shapes put segments under every step of the block
    /// cascade and across the wrap; the tile widths divide no `n`. A debug
    /// build vectorizes neither copy, so this test has teeth in release
    /// (`make verify-mt` runs this crate's suite there).
    fn copies_agree<T: Float>() {
        for (n, radix, strides) in SHAPES {
            for &stride in strides {
                let d = diagonals::<T>(n, radix, stride);
                let bias = mixed::<T>(n, 5);
                let per_output = Epilogue::bias(Bias::PerOutput(&bias));
                let challenge = Epilogue::new(Bias::Uniform(T::of(-0.3)), challenge_clamp);
                for (rows, tile_cols) in ROWS_TILES {
                    let case = format!("n={n} r={radix} nu={stride} rows={rows} tile={tile_cols}");
                    let x = DenseMatrix::from_vec(rows + 1, n, mixed(n * (rows + 1), 11)).unwrap();
                    let delta = DenseMatrix::from_vec(rows, n, mixed(n * rows, 13)).unwrap();
                    let (x, xs) = (x.view(), 1);
                    let fresh = || vec![T::of(9.0); rows * n];
                    let (mut body, mut dispatched) = (fresh(), fresh());
                    d.gather_block_body(tile_cols, x, xs, rows, &mut body, &challenge);
                    d.gather_block(tile_cols, x, xs, rows, &mut dispatched, &challenge);
                    assert_eq!(bits(&body), bits(&dispatched), "forward clamp {case}");
                    d.gather_block_body(tile_cols, x, xs, rows, &mut body, &per_output);
                    d.gather_block(tile_cols, x, xs, rows, &mut dispatched, &per_output);
                    assert_eq!(bits(&body), bits(&dispatched), "forward bias {case}");
                    d.gather_t_block_body(tile_cols, x, xs, rows, &mut body, &per_output);
                    d.gather_t_block(tile_cols, x, xs, rows, &mut dispatched, &per_output);
                    assert_eq!(bits(&body), bits(&dispatched), "transposed {case}");
                    let x = x.rows_view(xs..rows + 1);
                    let start = mixed::<T>(radix * n, 17);
                    let mut body = start.clone();
                    for (t, g) in body.chunks_mut(n).enumerate() {
                        d.grad_term(x, delta.view(), t, g);
                    }
                    for pool in [false, true] {
                        let mut dispatched = start.clone();
                        d.weight_grads(x, delta.view(), &mut dispatched, pool);
                        assert_eq!(
                            bits(&body),
                            bits(&dispatched),
                            "gradient pool={pool} {case}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn wide_copy_matches_baseline_bitwise_f32() {
        copies_agree::<f32>();
    }

    #[test]
    fn wide_copy_matches_baseline_bitwise_f64() {
        copies_agree::<f64>();
    }

    /// The forward block through the baseline body and through the
    /// dispatched entry (the AVX2 copy where the CPU has it), as bits.
    fn forward_bits<T: Float, F: Fn(T) -> T + Sync>(
        d: &CyclicDiagonals<T>,
        tile_cols: usize,
        x: DenseView<'_, T>,
        rows: usize,
        epi: &Epilogue<'_, T, F>,
    ) -> [Vec<u64>; 2] {
        let n = d.n;
        let (mut body, mut dispatched) = (vec![T::of(9.0); rows * n], vec![T::of(7.0); rows * n]);
        d.gather_block_body(tile_cols, x, 1, rows, &mut body, epi);
        d.gather_block(tile_cols, x, 1, rows, &mut dispatched, epi);
        [bits(&body), bits(&dispatched)]
    }

    /// A layer whose every value is one `w` runs its forward product on
    /// the broadcast `w` and gives the bits of the per-edge path over the
    /// same diagonals, on both copies. Writing one value through
    /// `values_mut` drops it to the per-edge path: its result is then the
    /// CSC gather's over the edited matrix. `w` has a full mantissa, so a
    /// change of term order changes the rounded sums.
    fn broadcast_matches_per_edge<T: Float>() {
        for (n, radix, strides) in SHAPES {
            for &stride in strides {
                let w = mixed::<T>(1, 23)[0];
                let uniform = CyclicDiagonals::from_parts(n, radix, stride, vec![w; radix * n])
                    .expect("valid parameters");
                assert_eq!(uniform.uniform.map(Float::bits), Some(w.bits()));
                let mut per_edge = uniform.clone();
                per_edge.values_mut();
                assert!(per_edge.uniform.is_none(), "values_mut clears the mark");
                assert_eq!(per_edge, uniform, "the mark is not part of the matrix");
                let mut edited = uniform.clone();
                let at = (radix / 2) * n + n / 3;
                edited.values_mut()[at] = T::of(1.5);
                let bias = mixed::<T>(n, 5);
                let per_output = Epilogue::bias(Bias::PerOutput(&bias));
                let challenge = Epilogue::new(Bias::Uniform(T::of(-0.3)), challenge_clamp);
                for (rows, tile_cols) in ROWS_TILES {
                    let case = format!("n={n} r={radix} nu={stride} rows={rows} tile={tile_cols}");
                    let x = DenseMatrix::from_vec(rows + 1, n, mixed(n * (rows + 1), 11)).unwrap();
                    let x = x.view();
                    let [body, dispatched] = forward_bits(&uniform, tile_cols, x, rows, &challenge);
                    let expect = forward_bits(&per_edge, tile_cols, x, rows, &challenge);
                    assert_eq!(
                        [&body, &dispatched],
                        [&expect[0], &expect[1]],
                        "clamp {case}"
                    );
                    assert_eq!(body, dispatched, "clamp copies {case}");
                    let broadcast = forward_bits(&uniform, tile_cols, x, rows, &per_output);
                    let expect = forward_bits(&per_edge, tile_cols, x, rows, &per_output);
                    assert_eq!(broadcast, expect, "bias {case}");
                    assert_eq!(broadcast[0], broadcast[1], "bias copies {case}");
                    let mut csc = vec![T::of(5.0); rows * n];
                    ColumnTiles::build(&edited.to_csr(), tile_cols).gather_block(
                        x,
                        1,
                        rows,
                        &mut csc,
                        &per_output,
                    );
                    let [body, dispatched] = forward_bits(&edited, tile_cols, x, rows, &per_output);
                    assert_eq!([&body, &dispatched], [&bits(&csc); 2], "edited {case}");
                    assert_ne!(body, broadcast[0], "the edit shows {case}");
                }
            }
        }
    }

    #[test]
    fn broadcast_weight_matches_per_edge_bitwise_f32() {
        broadcast_matches_per_edge::<f32>();
    }

    #[test]
    fn broadcast_weight_matches_per_edge_bitwise_f64() {
        broadcast_matches_per_edge::<f64>();
    }

    #[test]
    fn uniform_value_is_recorded_where_diagonals_are_built() {
        let (n, r, nu) = (24, 3, 4);
        let same = |v: f64| CyclicShift::radix_submatrix::<u64>(n, r, nu).map(|_| v);
        // `detect` and `from_parts` both record it; the two are one matrix.
        let detected = CyclicDiagonals::detect(&same(-0.375)).expect("a sum of shifts");
        let built = CyclicDiagonals::from_parts(n, r, nu, vec![-0.375; r * n]).unwrap();
        assert_eq!(
            (detected.uniform, built.uniform),
            (Some(-0.375), Some(-0.375))
        );
        assert_eq!(detected, built);
        // Distinct values, zeros and non-finite values are never one
        // broadcast weight.
        assert_eq!(
            CyclicDiagonals::detect(&cyclic(n, r, nu)).unwrap().uniform,
            None
        );
        for bad in [0.0, -0.0, f64::INFINITY, f64::NAN] {
            assert_eq!(uniform_value(&[bad; 6]), None, "{bad}");
        }
        let mut values = vec![2.5; r * n];
        values[r * n - 1] = 2.25;
        assert_eq!(
            CyclicDiagonals::from_parts(n, r, nu, values)
                .unwrap()
                .uniform,
            None
        );
    }

    #[test]
    fn from_parts_checks_what_detect_checks() {
        let err = |n, r, nu, len: usize, v: f64| {
            let got = CyclicDiagonals::from_parts(n, r, nu, vec![v; len]);
            assert!(
                matches!(got, Err(SparseError::InvalidStructure(_))),
                "{n} {r} {nu} {len} {v}"
            );
        };
        err(12, 1, 1, 12, 1.0); // r < 2
        err(12, 3, 0, 36, 1.0); // ν = 0
        err(12, 4, 4, 48, 1.0); // r·ν > n
        err(12, usize::MAX, 2, 12, 1.0); // r·ν overflows
        err(12, 3, 4, 35, 1.0); // not r·n values
        err(12, 3, 4, 36, f64::NAN);
        err(12, 3, 4, 36, f64::NEG_INFINITY);
        // r·ν = n is the largest place value a system has.
        let d = CyclicDiagonals::from_parts(12, 3, 4, vec![1.0; 36]).unwrap();
        assert_eq!(CyclicDiagonals::detect(&d.to_csr()), Some(d));
    }

    /// The diagonals multiply zero activations through: a non-finite value
    /// written through `values_mut` turns an all-zero activation row's
    /// output `NaN` (`0 · NaN`, `0 · ±∞`) in exactly that weight's column
    /// (`X · W`) and row (`X · Wᵀ`), on both copies.
    #[test]
    fn non_finite_weight_poisons_exactly_its_column() {
        let (n, radix, stride) = (256, 4, 8);
        let (t, j) = (2, 70);
        let i = (j + n - t * stride) % n; // W[i, j] is diag[t][j]
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let mut d = diagonals::<f32>(n, radix, stride);
            d.values_mut()[t * n + j] = bad;
            let zero = DenseMatrix::<f32>::zeros(1, n);
            let epi = Epilogue::identity();
            let mut body = vec![1.0f32; n];
            let mut dispatched = vec![1.0f32; n];
            for (col, transposed) in [(j, false), (i, true)] {
                if transposed {
                    d.gather_t_block_body(100, zero.view(), 0, 1, &mut body, &epi);
                    d.gather_t_block(100, zero.view(), 0, 1, &mut dispatched, &epi);
                } else {
                    d.gather_block_body(100, zero.view(), 0, 1, &mut body, &epi);
                    d.gather_block(100, zero.view(), 0, 1, &mut dispatched, &epi);
                }
                for out in [&body, &dispatched] {
                    for (c, &v) in out.iter().enumerate() {
                        if c == col {
                            assert!(
                                v.is_nan(),
                                "{bad} transposed={transposed}: column {c} is {v}"
                            );
                        } else {
                            assert_eq!(v, 0.0, "{bad} transposed={transposed}: column {c}");
                        }
                    }
                }
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
