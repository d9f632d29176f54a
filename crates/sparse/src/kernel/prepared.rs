//! Prepared weights: one storage per matrix, chosen once, and the
//! products that run on it.
//!
//! A RadiX-Net layer matrix is a sum of cyclic-shift permutation matrices
//! (paper eq. 2), `W = Σ_{t<r} P^(t·ν)`. [`PreparedWeights`] checks every
//! matrix for that structure when it is built, at every width, and when
//! it holds stores **only** the `r` value diagonals — no column indices,
//! no row pointers, 4 bytes per edge. Forward, transposed and
//! weight-gradient products then run as unit-stride shift-adds over the
//! diagonals (`kernel::tiled`'s `CyclicDiagonals`). Every other matrix —
//! X-Nets, random nets, a RadiX layer under a column permutation — keeps
//! its CSR: constant-degree ones switch the kernels to an ELLPACK-style
//! unit-stride walk (`degree × nrows`, no per-row pointer chasing),
//! irregular ones fall back to ordinary CSR row slicing, and
//! [`PreparedWeights::tile`] can add a CSC copy for the cache-blocked
//! forward gather. Same API, same results.
//!
//! There is one product per orientation — [`PreparedWeights::spmm`]
//! (`X · W`) and [`PreparedWeights::spmm_transposed`] (`X · Wᵀ`) — plus
//! the weight gradient [`PreparedWeights::weight_grads`]. Each writes into a
//! caller-provided buffer (resized in place, reusing its allocation); the
//! products take an [`Epilogue`] fused into the loop, so a layer step is
//! one pass over the output instead of "allocate, product, second pass
//! for bias+activation". How a product runs — cache-tiled or not, which
//! row-block grain, gather or scatter — follows from the storage, from
//! the [`KernelPlan`] the matrix carries and from what the code observes
//! (output no wider than one tile), never from which method was called.
//!
//! Accumulation order is identical to the un-prepared kernels
//! ([`crate::ops::dense_spmm`] and friends) on every path, so results are
//! bitwise equal to the naive path — the property suite in
//! `tests/prepared_kernels.rs` pins that down across the plan cross
//! product and both storages.

use std::borrow::Cow;

use rayon::prelude::*;

use crate::csr::CsrMatrix;
use crate::dense::{AsDenseView, DenseMatrix, DenseView};
use crate::error::SparseError;
use crate::kernel::epilogue::Epilogue;
use crate::kernel::heuristic::{KernelPlan, Par};
use crate::kernel::tiled::{
    all_finite, gather_t_block_csr, gather_t_block_ell, ColumnTiles, CyclicDiagonals,
};
use crate::scalar::Scalar;

/// A weight matrix prepared for repeated products under a [`KernelPlan`].
///
/// A matrix that verifies as `Σ_{t<r} P^(t·ν)` is stored as its `r` value
/// diagonals and nothing else ([`PreparedWeights::cyclic`] reports
/// `(r, ν)`); its values, and every gradient and optimizer-state vector
/// laid out like them, are in **storage order** `t·n + j`, and
/// [`PreparedWeights::to_csr_order`] / [`PreparedWeights::from_csr_order`]
/// translate. Any other matrix keeps its CSR, whose storage order is CSR
/// order: the arrays of a constant-degree matrix *are* the ELLPACK layout
/// (row `i` occupies `[i·d, (i+1)·d)`, unit stride), so that preparation
/// costs one `O(nrows)` scan and zero extra memory, plus an optional
/// column-tiling pass ([`PreparedWeights::tile`]) for the cache-blocked
/// forward schedule of wide layers.
///
/// [`PreparedWeights::values_mut`] trains values on the frozen pattern;
/// the diagonal storage survives every update.
///
/// # Example: prepare → tile → forward → backward
///
/// ```
/// use radix_sparse::{CsrMatrix, DenseMatrix, Epilogue, KernelPlan, Par, PreparedWeights};
///
/// // A 4×4 constant-degree matrix (every row stores exactly 2 entries)
/// // that is not a sum of cyclic shifts, so it keeps its CSR.
/// let dense = DenseMatrix::from_rows(&[
///     &[1.0f32, 2.0, 0.0, 0.0],
///     &[0.0, 1.0, 0.0, 2.0],
///     &[0.0, 0.0, 1.0, 2.0],
///     &[2.0, 0.0, 1.0, 0.0],
/// ]);
/// // 2-column tiles; `from_csr` would take the process-wide plan instead.
/// let plan = KernelPlan { tile_cols: 2, ..KernelPlan::default() };
/// let mut w = PreparedWeights::with_plan(CsrMatrix::from_dense(&dense), plan);
/// assert_eq!(w.degree(), Some(2)); // the ELL fast path is active
/// assert_eq!(w.cyclic(), None);
/// assert!(w.tile()); // cache-blocked forward schedule
///
/// // Forward: y ← X · W into a reused buffer, no allocation in steady
/// // state. (Epilogue::identity() = bare product; fuse bias/activation
/// // with Epilogue::new.)
/// let x = DenseMatrix::from_rows(&[&[1.0f32, 0.0, 1.0, 0.0]]);
/// let mut y = DenseMatrix::default();
/// w.spmm(&x, &mut y, &Epilogue::identity(), Par::Serial)?;
/// assert_eq!(y.row(0), &[1.0, 2.0, 1.0, 2.0]);
///
/// // Backward orientation: g ← X · Wᵀ on the tile-major schedule —
/// // zero-copy over the ELL layout, no tile() call required.
/// let mut g = DenseMatrix::default();
/// w.spmm_transposed(&x, &mut g, &Epilogue::identity(), Par::Serial)?;
/// assert_eq!(g.row(0), &[1.0, 0.0, 1.0, 3.0]);
///
/// // A sum of cyclic shifts (P⁰ + P¹ on 4 nodes) is stored as its two
/// // diagonals, and its products need no tiling call at all.
/// let shifts = DenseMatrix::from_rows(&[
///     &[1.0f32, 2.0, 0.0, 0.0],
///     &[0.0, 1.0, 2.0, 0.0],
///     &[0.0, 0.0, 1.0, 2.0],
///     &[2.0, 0.0, 0.0, 1.0],
/// ]);
/// let c = PreparedWeights::with_plan(CsrMatrix::from_dense(&shifts), plan);
/// assert_eq!(c.cyclic(), Some((2, 1)));
/// c.spmm(&x, &mut y, &Epilogue::identity(), Par::Serial)?;
/// assert_eq!(y.row(0), &[1.0, 2.0, 1.0, 2.0]);
/// # Ok::<(), radix_sparse::SparseError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PreparedWeights<T> {
    storage: Storage<T>,
    plan: KernelPlan,
}

/// What a [`PreparedWeights`] keeps of its matrix.
#[derive(Debug, Clone, PartialEq)]
enum Storage<T> {
    /// `Σ_{t<r} P^(t·ν)`: the value diagonals, nothing else.
    Cyclic(CyclicDiagonals<T>),
    /// Everything else.
    Csr {
        csr: CsrMatrix<T>,
        /// `Some(d)` when every row stores exactly `d` entries (the ELL
        /// fast path is valid); `None` for irregular matrices.
        degree: Option<usize>,
        /// The CSC entry list [`PreparedWeights::tile`] builds; `None`
        /// means the forward product runs the untiled row walk.
        tiles: Option<ColumnTiles<T>>,
    },
}

/// The plan fields every product divides by.
fn check_plan(plan: KernelPlan) {
    assert!(plan.tile_cols > 0, "tile width must be positive");
    assert!(plan.block_rows > 0, "block rows must be positive");
}

/// Detects whether every row of `csr` has the same number of entries.
fn constant_degree<T: Scalar>(csr: &CsrMatrix<T>) -> Option<usize> {
    if csr.nrows() == 0 {
        return None;
    }
    let d = csr.row_nnz(0);
    let indptr = csr.indptr();
    indptr.windows(2).all(|w| w[1] - w[0] == d).then_some(d)
}

impl<T: Scalar> PreparedWeights<T> {
    /// Prepares a CSR matrix for repeated products (one `O(nnz)` pass)
    /// under the process-wide plan ([`KernelPlan::process`]). No column
    /// tiles are built; call [`PreparedWeights::tile`] to enable the
    /// cache-blocked forward schedule of a CSR-stored matrix.
    #[must_use]
    pub fn from_csr(csr: CsrMatrix<T>) -> Self {
        PreparedWeights::with_plan(csr, KernelPlan::process())
    }

    /// Like [`PreparedWeights::from_csr`] under an explicit plan. A
    /// matrix that verifies as `Σ_{t<r} P^(t·ν)` and stores only finite
    /// values is kept as its diagonals and `csr` is dropped (see
    /// [`PreparedWeights::cyclic`]); any other keeps `csr`.
    ///
    /// # Panics
    /// Panics if `plan.tile_cols` or `plan.block_rows` is zero.
    #[must_use]
    pub fn with_plan(csr: CsrMatrix<T>, plan: KernelPlan) -> Self {
        check_plan(plan);
        // The diagonal kernels multiply zero activations through, so a
        // non-finite weight keeps the CSR and its zero-skipping scatter.
        let storage = match all_finite(csr.data())
            .then(|| CyclicDiagonals::detect(&csr))
            .flatten()
        {
            Some(diags) => Storage::Cyclic(diags),
            None => Storage::Csr {
                degree: constant_degree(&csr),
                csr,
                tiles: None,
            },
        };
        PreparedWeights { storage, plan }
    }

    /// The diagonal storage of `W = Σ_{t<radix} P^(t·stride)` on `n`
    /// nodes (paper eq. (2)) built from those parameters, with no CSR and
    /// no detection pass: `values` holds the `radix` diagonals in storage
    /// order, `values[t·n + j] = W[(j − t·stride) mod n, j]`
    /// ([`PreparedWeights::values`]). It is the storage
    /// [`PreparedWeights::with_plan`] keeps for that matrix in CSR form.
    ///
    /// # Errors
    /// Returns [`SparseError::InvalidStructure`] unless `radix ≥ 2`,
    /// `stride ≥ 1`, `radix · stride ≤ n`, `values.len() == radix · n` and
    /// every value is finite — what `with_plan` requires of a CSR before it
    /// stores the diagonals.
    ///
    /// # Panics
    /// Panics if `plan.tile_cols` or `plan.block_rows` is zero.
    pub fn from_diagonals(
        n: usize,
        radix: usize,
        stride: usize,
        values: Vec<T>,
        plan: KernelPlan,
    ) -> Result<Self, SparseError> {
        check_plan(plan);
        let diags = CyclicDiagonals::from_parts(n, radix, stride, values)?;
        Ok(PreparedWeights {
            storage: Storage::Cyclic(diags),
            plan,
        })
    }

    /// The plan every product on this matrix runs under.
    #[must_use]
    pub fn plan(&self) -> KernelPlan {
        self.plan
    }

    /// Readies the column-tiled forward schedule at the plan's tile width.
    /// Returns whether the forward product now cuts more than one column
    /// tile ([`PreparedWeights::is_tiled`]); idempotent. Two kinds of
    /// matrix keep the untiled schedule:
    ///
    /// * one no wider than a tile (tiling it would only add overhead);
    /// * one storing a non-finite weight: the tiled gather multiplies zero
    ///   activations through where the scatter skips them, and `0 · ∞` is
    ///   `NaN`, not an additive identity.
    ///
    /// The diagonal storage needs no pass — its gather is tile-major at
    /// every width. A CSR-stored matrix gets a CSC copy of its entries.
    /// Results are bitwise equal either way.
    pub fn tile(&mut self) -> bool {
        if self.ncols() <= self.plan.tile_cols {
            return false;
        }
        match &mut self.storage {
            Storage::Cyclic(_) => true,
            Storage::Csr { csr, tiles, .. } => {
                if tiles.is_none() {
                    if !all_finite(csr.data()) {
                        return false;
                    }
                    *tiles = Some(ColumnTiles::build(csr, self.plan.tile_cols));
                }
                true
            }
        }
    }

    /// Whether the forward product cuts more than one column tile: the
    /// diagonal storage wider than the plan's `tile_cols`, or a CSR whose
    /// tiles [`PreparedWeights::tile`] built.
    #[must_use]
    pub fn is_tiled(&self) -> bool {
        match &self.storage {
            Storage::Cyclic(d) => d.n() > self.plan.tile_cols,
            Storage::Csr { tiles, .. } => tiles.is_some(),
        }
    }

    /// The active tile width in output columns, if tiled.
    #[must_use]
    pub fn tile_width(&self) -> Option<usize> {
        self.is_tiled().then_some(self.plan.tile_cols)
    }

    /// `Some((radix, stride))` when the storage is the value diagonals:
    /// the matrix verified as exactly `Σ_{t<radix} P^(t·stride)` (`P` the
    /// unit cyclic shift, `radix ≥ 2`, `radix · stride ≤ n`), and every
    /// product runs as `radix` unit-stride shift-adds. `None` for CSR
    /// storage.
    #[must_use]
    pub fn cyclic(&self) -> Option<(usize, usize)> {
        match &self.storage {
            Storage::Cyclic(d) => Some(d.radix_stride()),
            Storage::Csr { .. } => None,
        }
    }

    /// The matrix as CSR: a copy of the CSR storage, or rebuilt from the
    /// diagonals (every entry stored, explicit zeros included). Products
    /// never need it.
    #[must_use]
    pub fn to_csr(&self) -> CsrMatrix<T> {
        match &self.storage {
            Storage::Cyclic(d) => d.to_csr(),
            Storage::Csr { csr, .. } => csr.clone(),
        }
    }

    /// Consumes `self`, returning the matrix as CSR (see
    /// [`PreparedWeights::to_csr`]).
    #[must_use]
    pub fn into_csr(self) -> CsrMatrix<T> {
        match self.storage {
            Storage::Cyclic(d) => d.to_csr(),
            Storage::Csr { csr, .. } => csr,
        }
    }

    /// `Some(d)` when every row stores exactly `d` entries — the ELL fast
    /// path, or the diagonal storage (`d = r`) — `None` when kernels fall
    /// back to CSR.
    #[must_use]
    pub fn degree(&self) -> Option<usize> {
        match &self.storage {
            Storage::Cyclic(d) => Some(d.radix_stride().0),
            Storage::Csr { degree, .. } => *degree,
        }
    }

    /// Whether every row stores the same number of entries.
    #[must_use]
    pub fn is_ell(&self) -> bool {
        self.degree().is_some()
    }

    /// Number of rows (the kernel's input width).
    #[must_use]
    pub fn nrows(&self) -> usize {
        self.shape().0
    }

    /// Number of columns (the kernel's output width).
    #[must_use]
    pub fn ncols(&self) -> usize {
        self.shape().1
    }

    /// Shape as `(rows, cols)`.
    #[must_use]
    pub fn shape(&self) -> (usize, usize) {
        match &self.storage {
            Storage::Cyclic(d) => (d.n(), d.n()),
            Storage::Csr { csr, .. } => csr.shape(),
        }
    }

    /// Number of stored entries.
    #[must_use]
    pub fn nnz(&self) -> usize {
        self.values().len()
    }

    /// The stored values in storage order: `diags[t·n + j] = W[(j − tν)
    /// mod n, j]` for the diagonal storage, CSR (= ELL, for constant
    /// degree) order otherwise.
    #[must_use]
    pub fn values(&self) -> &[T] {
        match &self.storage {
            Storage::Cyclic(d) => d.values(),
            Storage::Csr { csr, .. } => csr.data(),
        }
    }

    /// Mutable access to the stored values, in storage order; the pattern
    /// stays fixed, which is exactly the "train values on a frozen
    /// topology" regime of the paper. The diagonal storage is unaffected,
    /// except that a layer whose values were all one value stops
    /// multiplying by that value alone and reads its diagonals again (the
    /// same bits). CSC tiles of a CSR-stored matrix hold a reordered
    /// **copy** of the values, so they are dropped here; call
    /// [`PreparedWeights::tile`] again after the update if tiled inference
    /// is still wanted.
    ///
    /// **Non-finite values.** [`PreparedWeights::with_plan`] keeps a
    /// matrix that holds a `NaN` or `±∞` in CSR, but a value written here
    /// stays in the storage it is written to. Say it is `W[i, j]`; `0 · NaN`
    /// and `0 · ±∞` are `NaN`.
    ///
    /// * **Diagonal storage.** The gathers multiply zero activations
    ///   through, so column `j` of `X · W` and column `i` of `X · Wᵀ` are
    ///   non-finite in every batch row, `NaN` in all-zero rows.
    /// * **CSR storage.** The forward product scatters and skips zero
    ///   activations (the tiles are dropped here, and `tile` refuses a
    ///   non-finite value), so column `j` of `X · W` is non-finite exactly
    ///   in the rows where `x[b, i] ≠ 0`, and an all-zero row's output
    ///   stays finite. The transposed product gathers through zeros, so
    ///   column `i` of `X · Wᵀ` is non-finite in every row, `NaN` in
    ///   all-zero rows.
    ///
    /// On either storage the weight gradient does not read the values, and
    /// no other column changes.
    pub fn values_mut(&mut self) -> &mut [T] {
        match &mut self.storage {
            Storage::Cyclic(d) => d.values_mut(),
            Storage::Csr { csr, tiles, .. } => {
                *tiles = None;
                csr.data_mut()
            }
        }
    }

    /// `v`, one entry per stored value in storage order, permuted into
    /// CSR order (borrowed when the two coincide).
    ///
    /// # Panics
    /// Panics if `v.len() != self.nnz()`.
    #[must_use]
    pub fn to_csr_order<'a, U: Copy>(&self, v: &'a [U]) -> Cow<'a, [U]> {
        assert_eq!(v.len(), self.nnz(), "one entry per stored value");
        match &self.storage {
            Storage::Cyclic(d) => {
                let mut out = Vec::with_capacity(v.len());
                d.for_each_csr_entry(|_, s| out.push(v[s]));
                Cow::Owned(out)
            }
            Storage::Csr { .. } => Cow::Borrowed(v),
        }
    }

    /// The inverse of [`PreparedWeights::to_csr_order`]: `v` in CSR order,
    /// permuted into storage order.
    ///
    /// # Panics
    /// Panics if `v.len() != self.nnz()`.
    #[must_use]
    pub fn from_csr_order<U: Copy>(&self, v: Vec<U>) -> Vec<U> {
        assert_eq!(v.len(), self.nnz(), "one entry per stored value");
        match &self.storage {
            Storage::Cyclic(d) => {
                let mut out = v.clone();
                let mut k = 0;
                d.for_each_csr_entry(|_, s| {
                    out[s] = v[k];
                    k += 1;
                });
                out
            }
            Storage::Csr { .. } => v,
        }
    }

    /// The multiply-add work of one product against a `rows`-row batch,
    /// the quantity [`Par::Auto`] thresholds on.
    #[must_use]
    pub fn work(&self, batch_rows: usize) -> usize {
        batch_rows.saturating_mul(self.nnz())
    }

    fn check_spmm(&self, x: DenseView<'_, T>, op: &'static str) -> Result<(), SparseError> {
        if x.ncols() != self.nrows() {
            return Err(SparseError::ShapeMismatch {
                op,
                lhs: x.shape(),
                rhs: self.shape(),
            });
        }
        Ok(())
    }

    /// Rows per block of a whole-batch product. A **blocked** product
    /// (tile-major: each tile's entries are re-read from cache across the
    /// block) runs at the plan's `block_rows`, shrunk on the pool so every
    /// worker gets a couple of blocks; an unblocked one (per-row walks
    /// over the full entry stream, nothing to amortize) runs whole on one
    /// thread and per row on the pool.
    fn rows_per_block(&self, blocked: bool, pool: bool, batch: usize) -> usize {
        match (blocked, pool) {
            (true, false) => self.plan.block_rows,
            (true, true) => batch
                .div_ceil(rayon::current_num_threads().saturating_mul(2).max(1))
                .clamp(1, self.plan.block_rows),
            (false, false) => batch.max(1),
            (false, true) => 1,
        }
    }

    /// `out ← epi(X · W)`: each output element accumulates its
    /// contributions in ascending source row, epilogue fused onto each
    /// completed row (or tile segment).
    ///
    /// `out` is resized in place (its allocation is reused when large
    /// enough), so steady-state calls perform no heap allocation — on the
    /// pool too, whose chunk dispatch materializes nothing. `x` may be an
    /// owned [`DenseMatrix`] or a zero-copy [`DenseView`] row range.
    ///
    /// The diagonal storage and a tiled CSR ([`PreparedWeights::tile`])
    /// run the tile-major gather, in `block_rows`-row blocks when wider
    /// than a tile; an untiled CSR runs the zero-skipping scatter row
    /// walk. Results are equal on every path (see `kernel::tiled` for the
    /// zero-activation fine print).
    ///
    /// # Errors
    /// Returns [`SparseError::ShapeMismatch`] if `x.ncols() != self.nrows()`.
    pub fn spmm<F: Fn(T) -> T + Sync>(
        &self,
        x: &impl AsDenseView<T>,
        out: &mut DenseMatrix<T>,
        epi: &Epilogue<'_, T, F>,
        par: Par,
    ) -> Result<(), SparseError> {
        let x = x.as_view();
        self.check_spmm(x, "prepared spmm")?;
        let (batch, ncols) = (x.nrows(), self.ncols());
        // Every block writes its whole chunk, so skip zeroing.
        out.resize_for_overwrite(batch, ncols);
        let pool = self.plan.pool(par, self.work(batch));
        let brows = self.rows_per_block(self.is_tiled(), pool, batch);
        for_each_block(
            out.as_mut_slice(),
            brows,
            ncols,
            pool,
            |start, rows, block| {
                self.forward_block(x, start, rows, block, epi);
            },
        );
        Ok(())
    }

    /// One row block of the forward product: the tile-major gather when
    /// the storage has one, else the zero-skipping scatter.
    fn forward_block<F: Fn(T) -> T + Sync>(
        &self,
        x: DenseView<'_, T>,
        x_start: usize,
        rows: usize,
        out: &mut [T],
        epi: &Epilogue<'_, T, F>,
    ) {
        match &self.storage {
            Storage::Cyclic(d) => d.gather_block(self.plan.tile_cols, x, x_start, rows, out, epi),
            Storage::Csr {
                tiles: Some(tiles), ..
            } => tiles.gather_block(x, x_start, rows, out, epi),
            Storage::Csr { csr, degree, .. } => {
                scatter_rows(csr, *degree, x, x_start, rows, out, epi);
            }
        }
    }

    /// `out ← epi(X · Wᵀ)` without materializing the transpose:
    /// `out[b, i] = Σ_j X[b, j] · W[i, j]`, the backward-pass orientation.
    /// A gather — each output element is a dot product over row `i` of
    /// `W` in ascending column order, the epilogue applied at the final
    /// store — with the same buffer-reuse and allocation guarantees as
    /// [`PreparedWeights::spmm`].
    ///
    /// The transpose's output columns are `W`'s rows. The diagonal
    /// storage reads row `i` as `diag[t][(i + tν) mod n]` — contiguous in
    /// `i` — and shift-adds; a CSR's rows are already contiguous in its
    /// ELL/CSR arrays (the CSC layout of `Wᵀ` *is* the CSR layout of `W`).
    /// Either way the tile-major schedule runs zero-copy over the storage,
    /// no [`PreparedWeights::tile`] call required: when `W` has more rows
    /// than the plan's `tile_cols`, a tile's entries are re-read from
    /// cache across each `block_rows`-row block instead of streaming the
    /// whole storage once per batch row. Accumulation order per output
    /// element is the same either way, so results are bitwise equal.
    ///
    /// # Errors
    /// Returns [`SparseError::ShapeMismatch`] if `x.ncols() != self.ncols()`.
    pub fn spmm_transposed<F: Fn(T) -> T + Sync>(
        &self,
        x: &impl AsDenseView<T>,
        out: &mut DenseMatrix<T>,
        epi: &Epilogue<'_, T, F>,
        par: Par,
    ) -> Result<(), SparseError> {
        let x = x.as_view();
        if x.ncols() != self.ncols() {
            return Err(SparseError::ShapeMismatch {
                op: "prepared spmm_transposed",
                lhs: x.shape(),
                rhs: self.shape(),
            });
        }
        let (batch, nout) = (x.nrows(), self.nrows());
        // The gather assigns every output element, so skip zeroing.
        out.resize_for_overwrite(batch, nout);
        if batch > 0 {
            // The block loop only ever applies tile segments.
            epi.assert_width(nout);
        }
        let pool = self.plan.pool(par, self.work(batch));
        let brows = self.rows_per_block(nout > self.plan.tile_cols, pool, batch);
        for_each_block(
            out.as_mut_slice(),
            brows,
            nout,
            pool,
            |start, rows, block| {
                self.gather_t_block(x, start, rows, block, epi);
            },
        );
        Ok(())
    }

    /// One batch-row block of the tile-major transposed gather at the
    /// plan's tile width (a matrix no wider than that is one tile: the
    /// plain per-row gather).
    fn gather_t_block<F: Fn(T) -> T + Sync>(
        &self,
        x: DenseView<'_, T>,
        x_start: usize,
        rows: usize,
        out: &mut [T],
        epi: &Epilogue<'_, T, F>,
    ) {
        let width = self.plan.tile_cols;
        match &self.storage {
            Storage::Cyclic(d) => d.gather_t_block(width, x, x_start, rows, out, epi),
            Storage::Csr {
                csr,
                degree: Some(d),
                ..
            } => gather_t_block_ell(
                csr.indices(),
                csr.data(),
                *d,
                csr.nrows(),
                width,
                x,
                x_start,
                rows,
                out,
                epi,
            ),
            Storage::Csr { csr, .. } => {
                gather_t_block_csr(csr, width, x, x_start, rows, out, epi);
            }
        }
    }

    /// `out += ∂/∂W` of `Σ X·W ⊙ Δ` on the stored pattern: every stored
    /// entry `(i, j)` gains `Σ_b x[b, i] · δ[b, j]`, rows `b` ascending,
    /// in storage order ([`PreparedWeights::values`]). The caller zeroes
    /// `out` for a plain gradient.
    ///
    /// The diagonal storage runs one contiguous multiply-add per
    /// `(b, t)`; a CSR walks each weight row's entries per batch row,
    /// skipping zero activations (their terms are `±0`, which leave a sum
    /// started at `+0` unchanged — so both agree with the per-edge loop
    /// bit for bit whenever `Δ` is finite). On the pool the diagonal
    /// terms or the weight rows are the tasks; no task list is
    /// materialized except for irregular CSR rows.
    ///
    /// # Errors
    /// Returns [`SparseError::ShapeMismatch`] unless `x` is `batch ×
    /// nrows` and `delta` is `batch × ncols`.
    ///
    /// # Panics
    /// Panics if `out.len() != self.nnz()`.
    pub fn weight_grads(
        &self,
        x: &impl AsDenseView<T>,
        delta: &impl AsDenseView<T>,
        out: &mut [T],
        par: Par,
    ) -> Result<(), SparseError> {
        let (x, delta) = (x.as_view(), delta.as_view());
        self.check_spmm(x, "prepared weight_grads")?;
        if delta.shape() != (x.nrows(), self.ncols()) {
            return Err(SparseError::ShapeMismatch {
                op: "prepared weight_grads",
                lhs: delta.shape(),
                rhs: (x.nrows(), self.ncols()),
            });
        }
        assert_eq!(out.len(), self.nnz(), "gradient buffer length");
        if out.is_empty() {
            return Ok(());
        }
        let pool = self.plan.pool(par, self.work(x.nrows()));
        match &self.storage {
            Storage::Cyclic(d) => d.weight_grads(x, delta, out, pool),
            Storage::Csr { csr, degree, .. } => csr_weight_grads(csr, *degree, x, delta, out, pool),
        }
        Ok(())
    }
}

/// Runs `f(first_row, rows, block)` over `out` cut into blocks of `brows`
/// rows of `ncols` elements (the last block may be shorter): in order on
/// the calling thread, or claimed dynamically by the worker pool.
fn for_each_block<T: Send>(
    out: &mut [T],
    brows: usize,
    ncols: usize,
    pool: bool,
    f: impl Fn(usize, usize, &mut [T]) + Sync,
) {
    if out.is_empty() {
        return;
    }
    // No block is longer than the batch, so `brows · ncols` cannot
    // overflow whatever grain the plan asks for.
    let brows = brows.min(out.len() / ncols);
    let run = |blk: usize, block: &mut [T]| f(blk * brows, block.len() / ncols, block);
    if pool {
        rayon::for_each_chunk_mut(out, brows * ncols, run);
    } else {
        for (blk, block) in out.chunks_mut(brows * ncols).enumerate() {
            run(blk, block);
        }
    }
}

impl<T: Scalar> From<CsrMatrix<T>> for PreparedWeights<T> {
    fn from(csr: CsrMatrix<T>) -> Self {
        PreparedWeights::from_csr(csr)
    }
}

/// One row block of `epi(X · W)` on the CSR scatter schedule: zero-fill,
/// then scatter each row's **nonzero** activations through the ELL/CSR
/// layout (the `x == 0` skip the tiled gather deliberately gave up),
/// epilogue per completed row.
fn scatter_rows<T: Scalar, F: Fn(T) -> T + Sync>(
    csr: &CsrMatrix<T>,
    degree: Option<usize>,
    x: DenseView<'_, T>,
    x_start: usize,
    rows: usize,
    out: &mut [T],
    epi: &Epilogue<'_, T, F>,
) {
    out.fill(T::ZERO);
    let ncols = csr.ncols();
    debug_assert_eq!(out.len(), rows * ncols, "output block size");
    if ncols == 0 {
        return;
    }
    for (b, orow) in out.chunks_mut(ncols).enumerate() {
        let xrow = x.row(x_start + b);
        match degree {
            Some(d) => scatter_row_ell(xrow, csr.indices(), csr.data(), d, orow),
            None => scatter_row_csr(xrow, csr, orow),
        }
        epi.apply_row(orow);
    }
}

/// One output row of `X · W` in the ELL layout: for each nonzero `x[i]`,
/// scatter `x[i] · W[i, :]` into `orow` through the unit-stride slices
/// `[i·d, (i+1)·d)` — no `indptr` loads.
#[inline]
fn scatter_row_ell<T: Scalar>(xrow: &[T], inds: &[usize], vals: &[T], d: usize, orow: &mut [T]) {
    for (i, &xv) in xrow.iter().enumerate() {
        if xv.is_zero() {
            continue;
        }
        let base = i * d;
        let cols = &inds[base..base + d];
        let ws = &vals[base..base + d];
        for (&j, &wv) in cols.iter().zip(ws) {
            orow[j] = orow[j].add(xv.mul(wv));
        }
    }
}

/// One output row of `X · W` through CSR row slicing (irregular fallback).
#[inline]
fn scatter_row_csr<T: Scalar>(xrow: &[T], w: &CsrMatrix<T>, orow: &mut [T]) {
    for (i, &xv) in xrow.iter().enumerate() {
        if xv.is_zero() {
            continue;
        }
        let (cols, ws) = w.row(i);
        for (&j, &wv) in cols.iter().zip(ws) {
            orow[j] = orow[j].add(xv.mul(wv));
        }
    }
}

/// [`PreparedWeights::weight_grads`] on CSR storage, in CSR value order.
/// At constant degree the flat gradient vector partitions into
/// `degree`-sized per-row segments, so the pool path runs on the
/// allocation-free chunk dispatch (chunk index = weight row); irregular
/// rows materialize a per-row segment list first.
fn csr_weight_grads<T: Scalar>(
    csr: &CsrMatrix<T>,
    degree: Option<usize>,
    x: DenseView<'_, T>,
    delta: DenseView<'_, T>,
    out: &mut [T],
    pool: bool,
) {
    let row_grads = |i: usize, seg: &mut [T]| {
        let (cols, _) = csr.row(i);
        for b in 0..x.nrows() {
            let xv = x.get(b, i);
            if xv.is_zero() {
                continue;
            }
            let drow = delta.row(b);
            for (g, &j) in seg.iter_mut().zip(cols) {
                *g = g.add(xv.mul(drow[j]));
            }
        }
    };
    match degree {
        Some(d) if d > 0 && pool => rayon::for_each_chunk_mut(out, d, row_grads),
        None if pool => {
            // Irregular rows: split the flat vector into per-row segments
            // (CSR rows partition the value array) and fan out.
            let mut segments: Vec<(usize, &mut [T])> = Vec::with_capacity(csr.nrows());
            let mut rest = out;
            for i in 0..csr.nrows() {
                let (seg, tail) = rest.split_at_mut(csr.row_nnz(i));
                segments.push((i, seg));
                rest = tail;
            }
            segments
                .into_par_iter()
                .for_each(|(i, seg)| row_grads(i, seg));
        }
        _ => {
            let indptr = csr.indptr();
            for i in 0..csr.nrows() {
                row_grads(i, &mut out[indptr[i]..indptr[i + 1]]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::epilogue::Bias;
    use crate::ops::{dense_spmm, dense_spmm_transposed};
    use crate::perm::CyclicShift;

    fn regular() -> CsrMatrix<f64> {
        CyclicShift::radix_submatrix::<u64>(12, 3, 1).map(|v| v as f64 * 0.5)
    }

    fn irregular() -> CsrMatrix<f64> {
        CsrMatrix::from_dense(&DenseMatrix::from_rows(&[
            &[1.0, 0.0, 2.0],
            &[0.0, 0.0, 0.0],
            &[3.0, 4.0, 5.0],
        ]))
    }

    fn batch(rows: usize, cols: usize) -> DenseMatrix<f64> {
        let mut m = DenseMatrix::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                // A mix of zeros and varied values.
                if (i + j) % 3 != 0 {
                    m.set(i, j, (i * cols + j) as f64 * 0.25 - 1.0);
                }
            }
        }
        m
    }

    /// The plans every equivalence test below sweeps: tile widths under,
    /// at and over the test matrices' 3 and 12 columns × block grains from
    /// one row to far past any batch.
    fn plans() -> Vec<KernelPlan> {
        let mut plans = Vec::new();
        for tile_cols in [1, 4, 5, 11, 12] {
            for block_rows in [1, 5, 32, usize::MAX] {
                plans.push(KernelPlan {
                    tile_cols,
                    block_rows,
                    ..KernelPlan::default()
                });
            }
        }
        plans
    }

    /// `w` prepared under `plan`, tiled wherever the plan's width allows.
    fn prepared(w: &CsrMatrix<f64>, plan: KernelPlan) -> PreparedWeights<f64> {
        let mut p = PreparedWeights::with_plan(w.clone(), plan);
        assert_eq!(p.tile(), w.ncols() > plan.tile_cols);
        assert_eq!(p.tile_width(), p.is_tiled().then_some(plan.tile_cols));
        p
    }

    const PARS: [Par; 3] = [Par::Serial, Par::Pool, Par::Auto];

    /// `epi(X · W)` equals `expect` under every plan and dispatch.
    fn assert_forward_eq<F: Fn(f64) -> f64 + Sync>(
        w: &CsrMatrix<f64>,
        x: &DenseMatrix<f64>,
        epi: &Epilogue<'_, f64, F>,
        expect: &DenseMatrix<f64>,
    ) {
        let mut out = DenseMatrix::default();
        for plan in plans() {
            let p = prepared(w, plan);
            for par in PARS {
                p.spmm(x, &mut out, epi, par).unwrap();
                assert_eq!(&out, expect, "{plan:?} {par:?}");
            }
        }
    }

    /// `epi(X · Wᵀ)` equals `expect` under every plan and dispatch.
    fn assert_transposed_eq<F: Fn(f64) -> f64 + Sync>(
        w: &CsrMatrix<f64>,
        x: &DenseMatrix<f64>,
        epi: &Epilogue<'_, f64, F>,
        expect: &DenseMatrix<f64>,
    ) {
        let mut out = DenseMatrix::default();
        for plan in plans() {
            let p = prepared(w, plan);
            for par in PARS {
                p.spmm_transposed(x, &mut out, epi, par).unwrap();
                assert_eq!(&out, expect, "{plan:?} {par:?}");
            }
        }
    }

    #[test]
    fn degree_detection() {
        assert_eq!(PreparedWeights::from_csr(regular()).degree(), Some(3));
        assert_eq!(PreparedWeights::from_csr(irregular()).degree(), None);
        assert!(PreparedWeights::from_csr(CsrMatrix::<f64>::identity(4)).is_ell());
        // Zero matrix: constant degree 0.
        assert_eq!(
            PreparedWeights::from_csr(CsrMatrix::<f64>::zeros(3, 3)).degree(),
            Some(0)
        );
        // Empty matrix: no rows to be constant over.
        assert_eq!(
            PreparedWeights::from_csr(CsrMatrix::<f64>::zeros(0, 3)).degree(),
            None
        );
    }

    #[test]
    fn from_csr_takes_the_process_plan() {
        let p = PreparedWeights::from_csr(regular());
        assert_eq!(p.plan(), KernelPlan::process());
    }

    #[test]
    fn ell_spmm_matches_naive_bitwise() {
        let w = regular();
        assert!(PreparedWeights::from_csr(w.clone()).is_ell());
        let x = batch(5, 12);
        let naive = dense_spmm(&x, &w).unwrap();
        assert_forward_eq(&w, &x, &Epilogue::identity(), &naive);
    }

    #[test]
    fn csr_fallback_matches_naive_bitwise() {
        let w = irregular();
        assert!(!PreparedWeights::from_csr(w.clone()).is_ell());
        let x = batch(4, 3);
        let naive = dense_spmm(&x, &w).unwrap();
        assert_forward_eq(&w, &x, &Epilogue::identity(), &naive);
    }

    #[test]
    fn transposed_matches_naive_bitwise() {
        for w in [regular(), irregular()] {
            let x = batch(4, w.ncols());
            let naive = dense_spmm_transposed(&x, &w).unwrap();
            assert_transposed_eq(&w, &x, &Epilogue::identity(), &naive);
        }
    }

    #[test]
    fn fused_epilogue_matches_two_pass() {
        let w = regular();
        let x = batch(6, 12);
        let bias: Vec<f64> = (0..12).map(|j| j as f64 * 0.1 - 0.5).collect();
        // Naive: product, then a separate bias pass, then a separate map.
        let mut naive = dense_spmm(&x, &w).unwrap();
        for b in 0..naive.nrows() {
            let row: &mut [f64] = naive.row_mut(b);
            for (v, &bv) in row.iter_mut().zip(&bias) {
                *v += bv;
            }
            for v in row.iter_mut() {
                *v = v.max(0.0);
            }
        }
        let epi = Epilogue::new(Bias::PerOutput(&bias), |v: f64| v.max(0.0));
        assert_forward_eq(&w, &x, &epi, &naive);
    }

    #[test]
    fn output_buffer_is_reused() {
        let p = PreparedWeights::from_csr(regular());
        let x = batch(8, 12);
        let mut out = DenseMatrix::zeros(0, 0);
        p.spmm(&x, &mut out, &Epilogue::identity(), Par::Serial)
            .unwrap();
        let ptr = out.as_slice().as_ptr();
        // Same-size reuse must not reallocate.
        p.spmm(&x, &mut out, &Epilogue::identity(), Par::Serial)
            .unwrap();
        assert_eq!(
            ptr,
            out.as_slice().as_ptr(),
            "steady-state call must reuse the buffer"
        );
    }

    #[test]
    fn shape_mismatches_error() {
        let p = PreparedWeights::from_csr(regular());
        let bad = DenseMatrix::<f64>::zeros(2, 5);
        let mut out = DenseMatrix::zeros(0, 0);
        let epi = Epilogue::identity();
        for par in PARS {
            assert!(p.spmm(&bad, &mut out, &epi, par).is_err());
            assert!(p.spmm_transposed(&bad, &mut out, &epi, par).is_err());
        }
    }

    #[test]
    fn degenerate_shapes() {
        // 0-row batch.
        let p = PreparedWeights::from_csr(regular());
        let x = DenseMatrix::<f64>::zeros(0, 12);
        let mut out = DenseMatrix::zeros(3, 3);
        for par in PARS {
            p.spmm(&x, &mut out, &Epilogue::identity(), par).unwrap();
            assert_eq!(out.shape(), (0, 12));
        }
        // 1-column weight.
        let w1 = CsrMatrix::from_dense(&DenseMatrix::from_rows(&[&[2.0f64], &[3.0]]));
        let p1 = PreparedWeights::from_csr(w1);
        let x1 = DenseMatrix::from_rows(&[&[1.0f64, 1.0]]);
        p1.spmm(&x1, &mut out, &Epilogue::identity(), Par::Serial)
            .unwrap();
        assert_eq!(out.get(0, 0), 5.0);
    }

    #[test]
    fn tiled_kernels_match_untiled_bitwise() {
        let w = regular();
        let x = batch(40, 12); // spans several blocks at every swept grain
        let untiled = PreparedWeights::from_csr(w.clone());
        assert!(!untiled.is_tiled());
        let epi = Epilogue::new(Bias::Uniform(0.25), |v: f64| v.max(0.0));
        let mut expect = DenseMatrix::default();
        untiled.spmm(&x, &mut expect, &epi, Par::Serial).unwrap();
        assert_forward_eq(&w, &x, &epi, &expect);
    }

    #[test]
    fn tile_skips_narrow_matrices_and_falls_back() {
        let plan = KernelPlan {
            tile_cols: 12,
            ..KernelPlan::default()
        };
        let mut p = PreparedWeights::with_plan(regular(), plan);
        assert!(!p.tile(), "12 cols fit one 12-wide tile");
        assert!(!p.is_tiled());
        // The untiled product still computes correctly.
        let x = batch(3, 12);
        let mut out = DenseMatrix::default();
        p.spmm(&x, &mut out, &Epilogue::identity(), Par::Serial)
            .unwrap();
        assert_eq!(out, dense_spmm(&x, &regular()).unwrap());
    }

    /// A plan whose 4-column tiles split the 12-column test matrix.
    fn tiled_plan() -> KernelPlan {
        KernelPlan {
            tile_cols: 4,
            ..KernelPlan::default()
        }
    }

    #[test]
    #[should_panic(expected = "bias length mismatch")]
    fn tiled_kernels_reject_mis_sized_bias() {
        // The tiled gather must enforce the same per-output bias contract
        // as the whole-row kernels, even though it only applies segments.
        let p = prepared(&regular(), tiled_plan());
        let x = batch(2, 12);
        let long_bias = vec![0.0f64; 20]; // 12 columns, 20 biases
        let epi = Epilogue::new(Bias::PerOutput(&long_bias), |v: f64| v);
        let mut out = DenseMatrix::default();
        let _ = p.spmm(&x, &mut out, &epi, Par::Serial);
    }

    #[test]
    fn values_mut_drops_tiles() {
        // CSC tiles hold a reordered copy of a CSR's values: an update
        // drops them.
        let mut p = prepared(
            &irregular(),
            KernelPlan {
                tile_cols: 1,
                ..KernelPlan::default()
            },
        );
        assert!(p.is_tiled());
        p.values_mut()[0] *= 2.0;
        assert!(!p.is_tiled(), "stale tile values must not survive");
        // The diagonals are the storage: nothing to drop, and the update
        // is what the next product reads. Storage slot 0 and CSR slot 0
        // are both entry (0, 0).
        let mut c = prepared(&regular(), tiled_plan());
        assert!(c.is_tiled());
        c.values_mut()[0] *= 2.0;
        assert!(c.is_tiled(), "the diagonal layout survives an update");
        let mut w = regular();
        w.data_mut()[0] *= 2.0;
        assert_eq!(c.to_csr(), w);
        let x = batch(5, 12);
        let mut out = DenseMatrix::default();
        c.spmm(&x, &mut out, &Epilogue::identity(), Par::Serial)
            .unwrap();
        assert_eq!(out, dense_spmm(&x, &w).unwrap());
    }

    #[test]
    fn cyclic_layout_accessors_stay_coherent() {
        // `regular()` is Σ_{t<3} P^t on 12 nodes: stored as its diagonals
        // under every plan, tiled exactly when wider than a tile.
        for plan in plans() {
            let p = prepared(&regular(), plan);
            assert_eq!(p.cyclic(), Some((3, 1)), "{plan:?}");
            assert_eq!((p.degree(), p.nnz(), p.shape()), (Some(3), 36, (12, 12)));
            assert_eq!(p.is_tiled(), 12 > plan.tile_cols, "{plan:?}");
            assert_eq!(p.to_csr(), regular());
        }
        let mut p = prepared(&regular(), tiled_plan());
        assert!(p.tile(), "idempotent");
        p.values_mut()[0] *= 2.0;
        assert_eq!(p.cyclic(), Some((3, 1)));
        assert_eq!(p.tile_width(), Some(4));
        // CSR-stored matrices report no structure, tiled or not.
        assert_eq!(PreparedWeights::from_csr(irregular()).cyclic(), None);
        let p = prepared(
            &irregular(),
            KernelPlan {
                tile_cols: 1,
                ..KernelPlan::default()
            },
        );
        assert!(p.is_tiled());
        assert_eq!(p.cyclic(), None);
    }

    #[test]
    fn non_finite_weights_are_never_tiled() {
        let x = batch(5, 12); // zeros wherever (i + j) % 3 == 0
        for bad in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
            let mut w = regular();
            w.data_mut()[7] = bad;
            let mut p = PreparedWeights::with_plan(w.clone(), tiled_plan());
            assert!(!p.tile(), "{bad} must keep the untiled schedule");
            assert!(!p.is_tiled());
            assert_eq!((p.tile_width(), p.cyclic()), (None, None));
            // Either tile layout would multiply a zero activation by the
            // bad weight (NaN); the scatter skips it, as the oracle does.
            let expect = dense_spmm(&x, &w).unwrap();
            let mut out = DenseMatrix::default();
            for par in PARS {
                p.spmm(&x, &mut out, &Epilogue::identity(), par).unwrap();
                let bits = |m: &DenseMatrix<f64>| {
                    m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>()
                };
                assert_eq!(bits(&out), bits(&expect), "{bad} {par:?}");
            }
        }
    }

    #[test]
    fn from_diagonals_is_the_detected_storage() {
        // `regular()` is Σ_{t<3} P^t on 12 nodes.
        let detected = PreparedWeights::with_plan(regular(), tiled_plan());
        let values = detected.values().to_vec();
        let built = PreparedWeights::from_diagonals(12, 3, 1, values, tiled_plan()).unwrap();
        assert_eq!(built, detected);
        assert_eq!((built.cyclic(), built.plan()), (Some((3, 1)), tiled_plan()));
        assert_eq!(built.to_csr(), regular());
        let x = batch(5, 12);
        let (mut a, mut b) = (DenseMatrix::default(), DenseMatrix::default());
        for par in PARS {
            built.spmm(&x, &mut a, &Epilogue::identity(), par).unwrap();
            detected
                .spmm(&x, &mut b, &Epilogue::identity(), par)
                .unwrap();
            assert_eq!(a, b, "{par:?}");
        }
        // What `with_plan` requires before it stores diagonals: r ≥ 2,
        // ν ≥ 1, r·ν ≤ n, r·n values, all finite.
        for (r, nu, len, v) in [
            (1, 1, 12, 1.0),
            (3, 0, 36, 1.0),
            (3, 5, 36, 1.0),
            (3, 1, 35, 1.0),
            (3, 1, 36, f64::INFINITY),
            (3, 1, 36, f64::NAN),
        ] {
            let got = PreparedWeights::from_diagonals(12, r, nu, vec![v; len], tiled_plan());
            assert!(
                matches!(got, Err(SparseError::InvalidStructure(_))),
                "r={r} nu={nu} len={len} v={v}"
            );
        }
    }

    /// The CSR storage's side of the non-finite contract
    /// ([`PreparedWeights::values_mut`]): a `NaN` or `±∞` written into
    /// `W[i, j]` of a CSR-stored matrix. The forward product (a scatter:
    /// the update drops the tiles and `tile` refuses to rebuild them) is
    /// non-finite in column `j` of exactly the rows with `x[b, i] ≠ 0`,
    /// an all-zero row stays `+0.0`; the transposed product is non-finite
    /// in column `i` of every row, `NaN` in the all-zero row; the weight
    /// gradient does not change. Both products equal the naive oracles
    /// (`NaN` payloads aside).
    #[test]
    fn non_finite_value_in_csr_storage() {
        // Constant degree 3, but row 0's columns {0, 5, 10} would need
        // r·ν = 15 > 12: CSR/ELL. And the irregular CSR.
        let mut coo = crate::CooMatrix::new(12, 12);
        for (i, j, _) in CyclicShift::radix_submatrix::<u64>(12, 3, 1).iter() {
            coo.push(i, 5 * j % 12, (i * 3 + j) as f64 * 0.25 - 1.1);
        }
        let ell: CsrMatrix<f64> = coo.to_csr();
        let canon = |m: &DenseMatrix<f64>| -> Vec<u64> {
            let nan = f64::NAN.to_bits();
            m.as_slice()
                .iter()
                .map(|v| if v.is_nan() { nan } else { v.to_bits() })
                .collect()
        };
        for w in [ell, irregular()] {
            let e = w.nnz() / 2;
            let i = (0..w.nrows()).find(|&r| w.indptr()[r + 1] > e).unwrap();
            let j = w.indices()[e];
            // Rows: all zero; all nonzero; nonzero except `x[i]`.
            let n = w.nrows();
            let mut x = DenseMatrix::zeros(3, n);
            for c in 0..n {
                x.set(1, c, c as f64 * 0.5 + 0.75);
                if c != i {
                    x.set(2, c, 1.25 - c as f64 * 0.5);
                }
            }
            let plan = KernelPlan {
                tile_cols: 1,
                ..KernelPlan::default()
            };
            let mut p = PreparedWeights::with_plan(w.clone(), plan);
            assert_eq!(p.cyclic(), None);
            let mut grads = vec![0.0; w.nnz()];
            p.weight_grads(&x, &x, &mut grads, Par::Serial).unwrap();
            assert!(p.tile());
            for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                p.values_mut()[e] = bad;
                assert!(!p.tile() && !p.is_tiled(), "{bad}");
                let mut bad_w = w.clone();
                bad_w.data_mut()[e] = bad;
                let mut out = DenseMatrix::default();
                for par in PARS {
                    let case = format!("{bad} W[{i}, {j}] {par:?}");
                    p.spmm(&x, &mut out, &Epilogue::identity(), par).unwrap();
                    assert_eq!(
                        canon(&out),
                        canon(&dense_spmm(&x, &bad_w).unwrap()),
                        "{case}"
                    );
                    for b in 0..3 {
                        for c in 0..n {
                            let hit = c == j && x.get(b, i) != 0.0;
                            assert_eq!(!out.get(b, c).is_finite(), hit, "{case} X·W ({b}, {c})");
                        }
                    }
                    assert!(out.row(0).iter().all(|v| v.to_bits() == 0), "{case}");
                    p.spmm_transposed(&x, &mut out, &Epilogue::identity(), par)
                        .unwrap();
                    let oracle = dense_spmm_transposed(&x, &bad_w).unwrap();
                    assert_eq!(canon(&out), canon(&oracle), "{case}");
                    for b in 0..3 {
                        for c in 0..n {
                            let v = out.get(b, c);
                            assert_eq!(!v.is_finite(), c == i, "{case} X·Wᵀ ({b}, {c})");
                        }
                    }
                    assert!(out.get(0, i).is_nan(), "{case}");
                    let mut g = vec![0.0; w.nnz()];
                    p.weight_grads(&x, &x, &mut g, par).unwrap();
                    assert_eq!(g, grads, "{case}");
                }
            }
        }
    }

    /// The diagonal storage's side of the non-finite contract
    /// ([`PreparedWeights::values_mut`]): a `NaN` or `±∞` written into
    /// `W[i, j]` of a sum of cyclic shifts. The forward product gathers
    /// through zero activations on every row block, however sparse, so
    /// column `j` of `X · W` is non-finite in every row and `NaN` in the
    /// all-zero one; every other column is the naive product's.
    #[test]
    fn non_finite_value_in_diagonal_storage() {
        // Σ_{t<3} P^(4t) on 64 nodes; storage slot t·n + j is W[(j − 4t)
        // mod n, j].
        let n = 64;
        let w = CyclicShift::radix_submatrix::<u64>(n, 3, 4).map(|v| v as f64 * 0.5);
        let (t, j) = (2, 10);
        let i = (j + n - 4 * t) % n;
        // At most one nonzero per row (≤ 10% of every block at any grain):
        // row 0 all zero, row 1 nonzero at `x[i]`, the rest elsewhere.
        let mut x = DenseMatrix::zeros(12, n);
        x.set(1, i, 1.5);
        for b in 2..12 {
            x.set(b, (5 * b) % n, 0.25 * b as f64 - 0.75);
        }
        let naive = dense_spmm(&x, &w).unwrap();
        for plan in [KernelPlan::default(), tiled_plan()] {
            for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                let mut p = PreparedWeights::with_plan(w.clone(), plan);
                p.values_mut()[t * n + j] = bad;
                assert_eq!(p.cyclic(), Some((3, 4)));
                let mut out = DenseMatrix::default();
                for par in PARS {
                    let case = format!("{bad} W[{i}, {j}] {par:?} tile {}", plan.tile_cols);
                    p.spmm(&x, &mut out, &Epilogue::identity(), par).unwrap();
                    for b in 0..x.nrows() {
                        for c in 0..n {
                            let v = out.get(b, c);
                            if c == j {
                                assert!(!v.is_finite(), "{case} ({b}, {c})");
                            } else {
                                assert_eq!(v, naive.get(b, c), "{case} ({b}, {c})");
                            }
                        }
                    }
                    assert!(out.get(0, j).is_nan(), "{case}");
                }
            }
        }
    }

    #[test]
    fn tiled_degenerate_shapes() {
        // Zero-row batch through the tiled path.
        let p = prepared(&regular(), tiled_plan());
        let x = DenseMatrix::<f64>::zeros(0, 12);
        let mut out = DenseMatrix::zeros(3, 3);
        for par in PARS {
            p.spmm(&x, &mut out, &Epilogue::identity(), par).unwrap();
            assert_eq!(out.shape(), (0, 12));
        }
        // Shape mismatch still errors.
        let bad = DenseMatrix::<f64>::zeros(2, 5);
        assert!(p
            .spmm(&bad, &mut out, &Epilogue::identity(), Par::Serial)
            .is_err());
    }

    #[test]
    fn transposed_tiled_matches_untiled_bitwise() {
        for w in [regular(), irregular()] {
            let p = PreparedWeights::from_csr(w.clone());
            let x = batch(40, w.ncols()); // spans several blocks at every swept grain
            let epi = Epilogue::new(Bias::Uniform(0.1), |v: f64| v.max(-1.0));
            let mut expect = DenseMatrix::default();
            p.spmm_transposed(&x, &mut expect, &epi, Par::Serial)
                .unwrap();
            assert_transposed_eq(&w, &x, &epi, &expect);
        }
    }

    #[test]
    fn transposed_tiled_shape_checks_and_degenerates() {
        let p = PreparedWeights::with_plan(regular(), tiled_plan());
        let mut out = DenseMatrix::default();
        let bad = DenseMatrix::<f64>::zeros(2, 5);
        assert!(p
            .spmm_transposed(&bad, &mut out, &Epilogue::identity(), Par::Serial)
            .is_err());
        // Zero-row batch.
        let empty = DenseMatrix::<f64>::zeros(0, 12);
        for par in PARS {
            p.spmm_transposed(&empty, &mut out, &Epilogue::identity(), par)
                .unwrap();
            assert_eq!(out.shape(), (0, 12));
        }
    }

    #[test]
    #[should_panic(expected = "bias length mismatch")]
    fn transposed_tiled_rejects_mis_sized_bias() {
        let p = PreparedWeights::with_plan(regular(), tiled_plan());
        let x = batch(2, 12);
        let long_bias = vec![0.0f64; 20]; // 12 outputs, 20 biases
        let epi = Epilogue::new(Bias::PerOutput(&long_bias), |v: f64| v);
        let mut out = DenseMatrix::default();
        let _ = p.spmm_transposed(&x, &mut out, &epi, Par::Serial);
    }

    #[test]
    fn forced_activation_schedules_match_untiled() {
        let w = regular();
        // A batch whose every row block is far below 10% nonzero, with
        // all-zero rows: the gather multiplies those zeros through under
        // every plan and must equal the naive row walk, a scatter that
        // skips them.
        let mut x = DenseMatrix::zeros(40, 12);
        for i in 0..40 {
            if i % 4 == 0 {
                x.set(i, i % 12, 1.5 - i as f64 * 0.1);
            }
        }
        let epi = Epilogue::new(Bias::Uniform(0.25), |v: f64| v.max(0.0));
        let mut expect = dense_spmm(&x, &w).unwrap();
        for b in 0..expect.nrows() {
            for v in expect.row_mut(b) {
                *v = (*v + 0.25).max(0.0);
            }
        }
        assert_forward_eq(&w, &x, &epi, &expect);
    }

    #[test]
    fn values_mut_feeds_kernels() {
        let mut p = PreparedWeights::from_csr(regular());
        let x = batch(2, 12);
        let mut before = DenseMatrix::zeros(0, 0);
        p.spmm(&x, &mut before, &Epilogue::identity(), Par::Serial)
            .unwrap();
        for v in p.values_mut() {
            *v *= 2.0;
        }
        let mut after = DenseMatrix::zeros(0, 0);
        p.spmm(&x, &mut after, &Epilogue::identity(), Par::Serial)
            .unwrap();
        for (a, b) in after.as_slice().iter().zip(before.as_slice()) {
            assert!((a - 2.0 * b).abs() < 1e-12);
        }
    }
}
