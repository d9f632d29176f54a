//! Property-based equivalence suite for the prepared-kernel engine
//! (`radix_sparse::kernel`): on random inputs, the two prepared products
//! — `spmm` and `spmm_transposed` — and the weight gradient
//! `weight_grads`; diagonal storage, ELL fast path and CSR fallback;
//! serial and on the pool; with and without an epilogue — must produce
//! **bitwise-identical** output to the naive path (`dense_spmm` /
//! `dense_spmm_transposed` followed by separate bias and activation
//! passes, and the per-edge gradient loop) under **every** `KernelPlan`
//! of a cross product of tile widths, block grains and
//! activation-dispatch thresholds. Bitwise, not approximate: the prepared
//! kernels accumulate in the same order as the naive ones on every path,
//! so even floating-point results must match exactly. One oracle,
//! [`check_plans`], carries every property — for both storages: it also
//! pins which matrices are stored as the index-free cyclic diagonals
//! ([`expected_cyclic`]), and a deterministic structure axis at the
//! bottom runs it over `Σ P^(t·ν)` layers and their near misses in `f32`
//! and `f64`.

use proptest::prelude::*;
use proptest::Just;

use radix_sparse::kernel::MAX_TILE_OR_BLOCK;
use radix_sparse::ops::{dense_spmm, dense_spmm_transposed};
use radix_sparse::{
    kron_ones_left, Bias, CooMatrix, CsrMatrix, CyclicShift, DenseMatrix, Epilogue, KernelPlan,
    Par, PreparedWeights, Scalar,
};

/// The element types the oracle runs in.
trait Float: Scalar + std::fmt::Display {
    fn of(v: f64) -> Self;
    fn bits(self) -> u64;
    fn relu(self) -> Self;
}

impl Float for f64 {
    fn of(v: f64) -> Self {
        v
    }
    fn bits(self) -> u64 {
        self.to_bits()
    }
    fn relu(self) -> Self {
        self.max(0.0)
    }
}

impl Float for f32 {
    fn of(v: f64) -> Self {
        v as f32
    }
    fn bits(self) -> u64 {
        u64::from(self.to_bits())
    }
    fn relu(self) -> Self {
        self.max(0.0)
    }
}

/// Strategy: an irregular random sparse f64 matrix of bounded shape
/// (row degrees vary, so the prepared kernels take the CSR fallback —
/// except when the dice land on a constant-degree pattern, which then
/// exercises the ELL path on irregular-looking data).
fn irregular_matrix(max_dim: usize) -> impl Strategy<Value = CsrMatrix<f64>> {
    (1..=max_dim, 1..=max_dim).prop_flat_map(|(r, c)| {
        proptest::collection::vec((0..r, 0..c, 0.25f64..4.0), 0..(r * c).min(40)).prop_map(
            move |triplets| {
                let mut coo = CooMatrix::new(r, c);
                for (i, j, v) in triplets {
                    coo.push(i, j, v);
                }
                coo.to_csr()
            },
        )
    })
}

/// Strategy: a constant-row-degree RadiX-style matrix (the ELL fast path),
/// `n` nodes with `degree` cyclic-shift edges each, non-uniform values.
fn regular_matrix() -> impl Strategy<Value = CsrMatrix<f64>> {
    (2usize..24, 1usize..5, 0usize..7).prop_map(|(n, degree, offset)| {
        let degree = degree.min(n);
        let mut k = 0u64;
        CyclicShift::radix_submatrix::<u64>(n, degree, offset % n.max(1)).map(|_| {
            k += 1;
            (k % 13) as f64 * 0.375 - 2.0
        })
    })
}

/// Strategy: a dense batch conformable with `rows`-row weight matrices,
/// with a mix of zeros (exercising the x==0 skip) and varied values.
fn batch_for(rows: usize) -> impl Strategy<Value = DenseMatrix<f64>> {
    (1usize..6).prop_flat_map(move |b| {
        proptest::collection::vec(-2.0f64..2.0, b * rows).prop_map(move |mut vals| {
            for (k, v) in vals.iter_mut().enumerate() {
                if k % 3 == 0 {
                    *v = 0.0;
                }
            }
            DenseMatrix::from_vec(b, rows, vals).unwrap()
        })
    })
}

fn relu<T: Float>(v: T) -> T {
    v.relu()
}

/// Which product the oracle checks.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// `X · W`: `spmm`, into a buffer holding stale values.
    Forward,
    /// `X · Wᵀ`: `spmm_transposed`.
    Transposed,
    /// `Σ_b x[b, i] · δ[b, j]` per stored entry: `weight_grads`, with `δ`
    /// from [`delta_for`].
    WeightGrads,
}

/// The naive reference: allocate-and-return product, then a separate
/// full pass for bias, then another for the activation map.
fn naive<T: Float>(
    op: Op,
    x: &DenseMatrix<T>,
    w: &CsrMatrix<T>,
    bias: Option<&[T]>,
) -> DenseMatrix<T> {
    let mut out = match op {
        Op::Forward => dense_spmm(x, w),
        Op::Transposed => dense_spmm_transposed(x, w),
        Op::WeightGrads => unreachable!("the gradient has its own oracle"),
    }
    .unwrap();
    if let Some(bs) = bias {
        for i in 0..out.nrows() {
            let row: &mut [T] = out.row_mut(i);
            for (v, &b) in row.iter_mut().zip(bs) {
                *v = v.add(b);
            }
        }
        out.map_inplace(relu);
    }
    out
}

/// The per-edge weight-gradient loop, as a `1 × nnz` row in CSR order:
/// entry `k = (i, j)` gets `Σ_b x[b, i] · δ[b, j]`, rows `b` ascending,
/// from `+0`, no term skipped.
fn naive_weight_grads<T: Float>(
    x: &DenseMatrix<T>,
    delta: &DenseMatrix<T>,
    w: &CsrMatrix<T>,
) -> DenseMatrix<T> {
    let g = w
        .iter()
        .map(|(i, j, _)| {
            (0..x.nrows()).fold(T::ZERO, |g, b| g.add(x.get(b, i).mul(delta.get(b, j))))
        })
        .collect();
    DenseMatrix::from_vec(1, w.nnz(), g).unwrap()
}

/// The `δ` [`Op::WeightGrads`] pairs with `x`: `x.nrows() × ncols`,
/// deterministic, a mix of `+0.0`, `-0.0` and nonzero values.
fn delta_for<T: Float>(x: &DenseMatrix<T>, ncols: usize) -> DenseMatrix<T> {
    let mut d = DenseMatrix::zeros(x.nrows(), ncols);
    for b in 0..x.nrows() {
        for j in 0..ncols {
            let v = match (b * 5 + j * 3) % 7 {
                0 => -0.0,
                1 => 0.0,
                // Not dyadic: products round, so term order shows.
                k => (k as f64 - 2.5) / 3.0 + (j % 11) as f64 / 7.0,
            };
            d.set(b, j, T::of(v));
        }
    }
    d
}

/// Element-by-element equality on `to_bits`, with the one exemption the
/// engine documents (`kernel::tiled`): the gather multiplies zero
/// activations through where the scatter skips them, which can only ever
/// show as the sign of an all-zero sum — so `0.0` and `-0.0` compare
/// equal, and nothing else that differs does.
fn assert_bits_eq<T: Float>(
    got: &DenseMatrix<T>,
    want: &DenseMatrix<T>,
    what: &dyn Fn() -> String,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(got.shape(), want.shape(), "{}: shape", what());
    for (k, (g, w)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
        prop_assert!(
            g.bits() == w.bits() || (g.is_zero() && w.is_zero()),
            "{}: element {} differs ({} vs {})",
            what(),
            k,
            g,
            w
        );
    }
    Ok(())
}

/// The one oracle. Computes `op` on `(x, w)` — bare, or with a fused
/// per-output bias (scaled by `bias_scale`) + ReLU epilogue; the gradient
/// takes neither — under every plan of
///
/// * `tile_cols` ∈ {1, 3, 8, one tile spanning everything} ∪ `extra_tile`,
/// * `block_rows` ∈ {1, 5, 32},
///
/// serially and on the pool, on the storage [`expected_cyclic`] says —
/// the index-free cyclic diagonals at every width, or the CSR with CSC
/// tiles built wherever the plan's width allows — and compares each
/// result on `to_bits` against the naive two-pass reference (the
/// gradient, in CSR order, against [`naive_weight_grads`] with no zero
/// exemption). `Op::Forward` writes into a buffer pre-filled with a
/// sentinel, so a block the product leaves unwritten shows; the block
/// grains leave a short last block at most batch sizes.
fn check_plans<T: Float>(
    op: Op,
    w: &CsrMatrix<T>,
    x: &DenseMatrix<T>,
    bias_scale: Option<f64>,
    extra_tile: Option<usize>,
) -> Result<(), TestCaseError> {
    let nout = match op {
        Op::Forward => w.ncols(),
        Op::Transposed | Op::WeightGrads => w.nrows(),
    };
    let bias: Option<Vec<T>> = bias_scale.map(|s| {
        (0..nout)
            .map(|j| T::of(s * (j as f64 * 0.3 - 1.0)))
            .collect()
    });
    let delta = delta_for(x, w.ncols());
    let expect = match op {
        Op::WeightGrads => naive_weight_grads(x, &delta, w),
        _ => naive(op, x, w, bias.as_deref()),
    };
    let cyclic = expected_cyclic(w);
    let epi: Epilogue<'_, T, fn(T) -> T> = match &bias {
        Some(bs) => Epilogue::new(Bias::PerOutput(bs), relu),
        None => Epilogue::identity(),
    };
    let tiles = [1, 3, 8, MAX_TILE_OR_BLOCK].into_iter().chain(extra_tile);
    let mut out = DenseMatrix::default();
    for tile_cols in tiles {
        for block_rows in [1, 5, 32] {
            let plan = KernelPlan {
                tile_cols,
                block_rows,
                ..KernelPlan::default()
            };
            let mut p = PreparedWeights::with_plan(w.clone(), plan);
            prop_assert_eq!(p.tile(), w.ncols() > tile_cols, "tile() under {:?}", plan);
            prop_assert_eq!(p.cyclic(), cyclic, "cyclic() under {:?}", plan);
            for par in [Par::Serial, Par::Pool] {
                let what = |call: &str| format!("{call} {par:?} under {plan:?}");
                match op {
                    Op::Forward => {
                        // Stale contents must not matter: every block is
                        // fully written.
                        out = DenseMatrix::from_vec(
                            x.nrows(),
                            w.ncols(),
                            vec![T::of(9.0); x.nrows() * w.ncols()],
                        )
                        .unwrap();
                        p.spmm(x, &mut out, &epi, par).unwrap();
                        assert_bits_eq(&out, &expect, &|| what("spmm"))?;
                    }
                    Op::Transposed => {
                        p.spmm_transposed(x, &mut out, &epi, par).unwrap();
                        assert_bits_eq(&out, &expect, &|| what("spmm_transposed"))?;
                    }
                    Op::WeightGrads => {
                        let mut g = vec![T::ZERO; p.nnz()];
                        p.weight_grads(x, &delta, &mut g, par).unwrap();
                        for (k, (a, b)) in
                            p.to_csr_order(&g).iter().zip(expect.as_slice()).enumerate()
                        {
                            prop_assert!(
                                a.bits() == b.bits(),
                                "{}: gradient {} differs ({} vs {})",
                                what("weight_grads"),
                                k,
                                a,
                                b
                            );
                        }
                    }
                }
            }
        }
    }
    Ok(())
}

/// What `cyclic()` must report wherever tiles are built, read straight
/// off paper eq. (2): take `r` and `ν` from row 0, regenerate
/// `Σ_{t<r} P^(t·ν)` and compare patterns.
fn expected_cyclic<T: Float>(w: &CsrMatrix<T>) -> Option<(usize, usize)> {
    let n = w.nrows();
    if n == 0 || w.ncols() != n {
        return None;
    }
    let (r, nu) = match w.row(0).0 {
        row0 @ [0, nu, ..] => (row0.len(), *nu),
        _ => return None,
    };
    let shifts = CyclicShift::radix_submatrix::<u64>(n, r, nu);
    (r * nu <= n && w.same_pattern(&shifts)).then_some((r, nu))
}

/// Strategy: an irregular matrix with a batch conformable for `op`.
fn irregular_case(op: Op) -> impl Strategy<Value = (CsrMatrix<f64>, DenseMatrix<f64>)> {
    irregular_matrix(8).prop_flat_map(move |w| {
        let width = match op {
            Op::Forward | Op::WeightGrads => w.nrows(),
            Op::Transposed => w.ncols(),
        };
        (Just(w), batch_for(width))
    })
}

proptest! {
    /// ELL fast path, no epilogue: bitwise equal to `dense_spmm`.
    #[test]
    fn ell_bare_product_matches_naive(w in regular_matrix(), seed in 0u64..1000) {
        let x = batch_deterministic(w.nrows(), seed);
        prop_assert!(PreparedWeights::from_csr(w.clone()).is_ell());
        check_plans(Op::Forward, &w, &x, None, None)?;
    }

    /// CSR fallback (irregular matrices), no epilogue.
    #[test]
    fn irregular_bare_product_matches_naive((w, x) in irregular_case(Op::Forward)) {
        check_plans(Op::Forward, &w, &x, None, None)?;
    }

    /// Fused bias + activation epilogue vs the two-extra-passes naive
    /// path, on the ELL fast path.
    #[test]
    fn ell_fused_epilogue_matches_two_pass(
        w in regular_matrix(),
        seed in 0u64..1000,
        bias_scale in -1.0f64..1.0,
    ) {
        let x = batch_deterministic(w.nrows(), seed);
        check_plans(Op::Forward, &w, &x, Some(bias_scale), None)?;
    }

    /// Fused bias + activation epilogue vs the two-extra-passes naive
    /// path, on the CSR fallback.
    #[test]
    fn irregular_fused_epilogue_matches_two_pass(
        (w, x) in irregular_case(Op::Forward),
        bias_scale in -1.0f64..1.0,
    ) {
        check_plans(Op::Forward, &w, &x, Some(bias_scale), None)?;
    }

    /// Transposed product (the backward-pass orientation) vs
    /// `dense_spmm_transposed`, ELL layout.
    #[test]
    fn ell_transposed_matches_naive(w in regular_matrix(), seed in 0u64..1000) {
        let x = batch_deterministic(w.ncols(), seed);
        check_plans(Op::Transposed, &w, &x, None, None)?;
    }

    /// Transposed product vs `dense_spmm_transposed`, CSR fallback.
    #[test]
    fn irregular_transposed_matches_naive((w, x) in irregular_case(Op::Transposed)) {
        check_plans(Op::Transposed, &w, &x, None, None)?;
    }

    /// A reused output buffer never changes results: run twice through the
    /// same buffer, then through a fresh one.
    #[test]
    fn buffer_reuse_is_idempotent(w in regular_matrix(), seed in 0u64..1000) {
        let x = batch_deterministic(w.nrows(), seed);
        let p = PreparedWeights::from_csr(w);
        let epi: Epilogue<'_, f64, fn(f64) -> f64> = Epilogue::map(relu::<f64>);
        let mut reused = DenseMatrix::default();
        p.spmm(&x, &mut reused, &epi, Par::Serial).unwrap();
        let first = reused.clone();
        p.spmm(&x, &mut reused, &epi, Par::Serial).unwrap();
        prop_assert_eq!(&reused, &first);
        let mut fresh = DenseMatrix::default();
        p.spmm(&x, &mut fresh, &epi, Par::Serial).unwrap();
        prop_assert_eq!(&fresh, &first);
    }

    /// Cache-tiled forward product on the ELL fast path at a random extra
    /// tile width, with a fused bias + ReLU epilogue: every plan — tiled
    /// or one tile spanning the matrix, i.e. untiled — agrees with the
    /// naive path, so tiled equals untiled.
    #[test]
    fn ell_tiled_matches_untiled(
        w in regular_matrix(),
        seed in 0u64..1000,
        tile_width in 1usize..16,
        bias_scale in -1.0f64..1.0,
    ) {
        let x = batch_deterministic(w.nrows(), seed);
        check_plans(Op::Forward, &w, &x, Some(bias_scale), Some(tile_width))?;
    }

    /// Cache-tiled forward product on the CSR fallback (irregular
    /// matrices), bare product.
    #[test]
    fn irregular_tiled_matches_untiled(
        (w, x) in irregular_case(Op::Forward),
        tile_width in 1usize..10,
    ) {
        check_plans(Op::Forward, &w, &x, None, Some(tile_width))?;
    }

    /// Tiled transposed product (the backward-pass orientation) on the
    /// ELL fast path at a random extra tile width, with a fused epilogue.
    #[test]
    fn ell_transposed_tiled_matches_untiled(
        w in regular_matrix(),
        seed in 0u64..1000,
        tile_width in 1usize..16,
        bias_scale in -1.0f64..1.0,
    ) {
        let x = batch_deterministic(w.ncols(), seed);
        check_plans(Op::Transposed, &w, &x, Some(bias_scale), Some(tile_width))?;
    }

    /// Tiled transposed product on the CSR fallback (irregular matrices).
    #[test]
    fn irregular_transposed_tiled_matches_untiled(
        (w, x) in irregular_case(Op::Transposed),
        tile_width in 1usize..10,
        bias_scale in -1.0f64..1.0,
    ) {
        check_plans(Op::Transposed, &w, &x, Some(bias_scale), Some(tile_width))?;
    }

    /// Weight gradient on constant-degree matrices (the diagonal storage
    /// whenever the pattern is `Σ P^(t·ν)`, ELL otherwise) vs the
    /// per-edge loop.
    #[test]
    fn ell_weight_grads_match_per_edge_loop(w in regular_matrix(), seed in 0u64..1000) {
        let x = batch_deterministic(w.nrows(), seed);
        check_plans(Op::WeightGrads, &w, &x, None, None)?;
    }

    /// Weight gradient on the CSR fallback vs the per-edge loop.
    #[test]
    fn irregular_weight_grads_match_per_edge_loop((w, x) in irregular_case(Op::WeightGrads)) {
        check_plans(Op::WeightGrads, &w, &x, None, None)?;
    }

    /// `to_csr` / `into_csr` give back exactly the matrix prepared —
    /// indices and value bits — whichever storage it took, and the
    /// storage-order permutation round-trips.
    #[test]
    fn to_csr_reproduces_regular_matrices(w in regular_matrix()) {
        check_to_csr(&w)?;
    }

    /// [`to_csr_reproduces_regular_matrices`] on the CSR fallback.
    #[test]
    fn to_csr_reproduces_irregular_matrices(w in irregular_matrix(8)) {
        check_to_csr(&w)?;
    }

    /// The activation-sparsity dispatch: forced gather, forced scatter,
    /// and the per-block count all produce the naive result, on dense-ish
    /// batches.
    #[test]
    fn activation_schedules_match_untiled(
        w in regular_matrix(),
        seed in 0u64..1000,
        tile_width in 1usize..16,
    ) {
        let x = batch_deterministic(w.nrows(), seed);
        check_plans(Op::Forward, &w, &x, Some(0.0), Some(tile_width))?;
    }

    /// The activation-sparsity dispatch on ~95%-zero batches (the regime
    /// the scatter path exists for), where the count actually takes the
    /// scatter branch.
    #[test]
    fn activation_schedules_match_untiled_on_sparse_batches(
        w in regular_matrix(),
        seed in 0u64..1000,
        tile_width in 1usize..16,
    ) {
        let x = batch_deterministic_sparse(w.nrows(), seed);
        check_plans(Op::Forward, &w, &x, Some(0.0), Some(tile_width))?;
    }
}

/// `to_csr(with_plan(w))` and `into_csr` reproduce `w`'s structure and
/// value bits; `to_csr_order` maps `values()` onto CSR order and
/// `from_csr_order` inverts it.
fn check_to_csr(w: &CsrMatrix<f64>) -> Result<(), TestCaseError> {
    let bits = |m: &CsrMatrix<f64>| m.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    let p = PreparedWeights::with_plan(w.clone(), KernelPlan::default());
    prop_assert_eq!(p.cyclic(), expected_cyclic(w));
    for got in [p.to_csr(), p.clone().into_csr()] {
        prop_assert_eq!(got.shape(), w.shape());
        prop_assert_eq!(got.indptr(), w.indptr());
        prop_assert_eq!(got.indices(), w.indices());
        prop_assert_eq!(bits(&got), bits(w));
    }
    let in_csr_order = p.to_csr_order(p.values()).into_owned();
    prop_assert_eq!(in_csr_order.as_slice(), w.data());
    let positions: Vec<usize> = (0..p.nnz()).collect();
    let back = p.from_csr_order(p.to_csr_order(&positions).into_owned());
    prop_assert_eq!(back, positions);
    Ok(())
}

/// A deterministic pseudo-random batch (keeps `regular_matrix` cases fast
/// while still varying with the proptest seed).
fn batch_deterministic<T: Float>(rows: usize, seed: u64) -> DenseMatrix<T> {
    let b = (seed % 4 + 1) as usize;
    let mut m = DenseMatrix::zeros(b, rows);
    let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
    for i in 0..b {
        for j in 0..rows {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            if !state.is_multiple_of(3) {
                m.set(i, j, T::of(((state >> 33) % 1000) as f64 * 0.004 - 2.0));
            }
        }
    }
    m
}

/// Like [`batch_deterministic`], but ~95% zeros — the post-ReLU
/// deep-layer regime the scatter schedule targets.
fn batch_deterministic_sparse<T: Float>(rows: usize, seed: u64) -> DenseMatrix<T> {
    let b = (seed % 4 + 1) as usize;
    let mut m = DenseMatrix::zeros(b, rows);
    let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(99);
    for i in 0..b {
        for j in 0..rows {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            if (state >> 33).is_multiple_of(20) {
                m.set(i, j, T::of(((state >> 13) % 1000) as f64 * 0.004 - 2.0));
            }
        }
    }
    m
}

#[test]
fn degenerate_shapes_are_handled() {
    // 0-row batch × regular weights.
    let w: CsrMatrix<f64> = CyclicShift::radix_submatrix::<u64>(6, 2, 1).map(|v| v as f64);
    let p = PreparedWeights::from_csr(w);
    let x = DenseMatrix::<f64>::zeros(0, 6);
    let mut out = DenseMatrix::default();
    let epi: Epilogue<'_, f64, fn(f64) -> f64> = Epilogue::identity();
    p.spmm(&x, &mut out, &epi, Par::Serial).unwrap();
    assert_eq!(out.shape(), (0, 6));
    p.spmm(&x, &mut out, &epi, Par::Pool).unwrap();
    assert_eq!(out.shape(), (0, 6));

    // Single-column weight matrix.
    let w1 = CsrMatrix::from_dense(&DenseMatrix::from_rows(&[&[1.5f64], &[0.0], &[2.5]]));
    let p1 = PreparedWeights::from_csr(w1.clone());
    assert!(!p1.is_ell(), "row degrees 1,0,1 are irregular");
    let x1 = DenseMatrix::from_rows(&[&[1.0f64, 5.0, 2.0]]);
    p1.spmm(&x1, &mut out, &epi, Par::Serial).unwrap();
    assert_eq!(out, dense_spmm(&x1, &w1).unwrap());

    // Matrix with zero columns in the pattern sense but nonzero shape.
    let empty = CsrMatrix::<f64>::zeros(4, 4);
    let pe = PreparedWeights::from_csr(empty);
    let xe = DenseMatrix::from_rows(&[&[1.0f64, 2.0, 3.0, 4.0]]);
    pe.spmm(&xe, &mut out, &epi, Par::Serial).unwrap();
    assert!(out.all_equal_to(0.0));

    // 0×n matrix: transposed product gives a (batch × 0) output.
    let z = CsrMatrix::<f64>::zeros(0, 3);
    let pz = PreparedWeights::from_csr(z);
    let xz = DenseMatrix::from_rows(&[&[1.0f64, 2.0, 3.0]]);
    pz.spmm_transposed(&xz, &mut out, &epi, Par::Serial)
        .unwrap();
    assert_eq!(out.shape(), (1, 0));
}

/// `pattern` with a distinct, never-zero weight on every edge (distinct
/// in `f32` too at these sizes), so a diagonal stored under the wrong
/// term or column cannot cancel out.
fn weigh<T: Float>(pattern: &CsrMatrix<u64>) -> CsrMatrix<T> {
    let mut k = 0u32;
    pattern.map(|_| {
        k += 1;
        T::of(f64::from(k) / 1024.0 + 0.25)
    })
}

/// Forward products of `w` under every plan (plus `extra_tile`): with the
/// fused epilogue on a dense-ish batch, bare on a ~95%-zero one (where
/// the activation count takes the scatter). Two rows each — the 4096-wide
/// cases run unoptimized under `cargo test`.
fn check_forward<T: Float>(w: &CsrMatrix<T>, extra_tile: usize, what: &str) {
    let dense = batch_deterministic::<T>(w.nrows(), 1);
    let sparse = batch_deterministic_sparse::<T>(w.nrows(), 5);
    for (x, bias_scale) in [(&dense, Some(0.5)), (&sparse, None)] {
        check_plans(Op::Forward, w, x, bias_scale, Some(extra_tile))
            .unwrap_or_else(|e| panic!("{what}: {e:?}"));
    }
}

/// The structure axis, positive side: `Σ_{t<r} P^(t·ν)` layers at sizes
/// where the wide and 8-lane blocks, the single-column tail and every
/// wrap segment all run — the benchmark's three 4096×16 layers at the
/// default tile width, `ν` from 1 to `n/r` on 256 nodes at a tile width
/// that straddles segments, and `r·ν < n` (a last system whose product
/// strictly divides `N'`). `check_plans` pins `cyclic()` through
/// [`expected_cyclic`]; this pins `expected_cyclic` itself.
fn cyclic_layers_match_naive<T: Float>() {
    for (n, r, nu, extra_tile) in [
        (4096, 16, 1, 1024),
        (4096, 16, 16, 1024),
        (4096, 16, 256, 1024),
        (256, 4, 1, 100),
        (256, 4, 4, 100),
        (256, 4, 16, 100),
        (256, 4, 64, 100),
        (96, 4, 8, 40),
    ] {
        let w: CsrMatrix<T> = weigh(&CyclicShift::radix_submatrix(n, r, nu));
        assert_eq!(expected_cyclic(&w), Some((r, nu)), "({n}, {r}, {nu})");
        check_forward(&w, extra_tile, &format!("({n}, {r}, {nu})"));
    }
}

/// The diagonal storage at every width: all three products — forward,
/// transposed, weight gradient — ± the fused epilogue, at
/// tile widths below and above `n` (`check_plans` sweeps 1, 3, 8 and one
/// spanning everything, plus a width that straddles segments), on a
/// batch holding `+0.0`, `-0.0` and nonzero values (and so does `δ`). The sizes run the
/// 32-, 8- and 1-lane blocks and every wrap segment of both orders.
fn cyclic_storage_runs_every_product<T: Float>() {
    for (n, r, nu) in [
        (100, 3, 33),
        (100, 4, 9),
        (67, 2, 20),
        (96, 4, 8),
        (40, 5, 8),
    ] {
        let w: CsrMatrix<T> = weigh(&CyclicShift::radix_submatrix(n, r, nu));
        assert_eq!(expected_cyclic(&w), Some((r, nu)), "({n}, {r}, {nu})");
        // Seven rows: whole four-row gradient sweeps plus a remainder. The
        // values are not dyadic, so every sum rounds and a term added out
        // of order changes bits.
        let mut x = DenseMatrix::zeros(7, n);
        for b in 0..7 {
            for j in 0..n {
                let v = match (b * 3 + j) % 7 {
                    0 => -0.0,
                    1 => 0.0,
                    k => ((b * n + j) % 17) as f64 / 7.0 - k as f64 / 3.0,
                };
                x.set(b, j, T::of(v));
            }
        }
        // Square: one batch is conformable for every op.
        for op in [Op::Forward, Op::Transposed, Op::WeightGrads] {
            for bias_scale in [None, Some(0.5)] {
                check_plans(op, &w, &x, bias_scale, Some(n / 2 + 1))
                    .unwrap_or_else(|e| panic!("({n}, {r}, {nu}) {op:?}: {e:?}"));
            }
        }
    }
}

#[test]
fn cyclic_storage_runs_every_product_f64() {
    cyclic_storage_runs_every_product::<f64>();
}

#[test]
fn cyclic_storage_runs_every_product_f32() {
    cyclic_storage_runs_every_product::<f32>();
}

#[test]
fn cyclic_layers_match_naive_f64() {
    cyclic_layers_match_naive::<f64>();
}

#[test]
fn cyclic_layers_match_naive_f32() {
    cyclic_layers_match_naive::<f32>();
}

/// The structure axis, negative side: near misses that must keep the CSC
/// tiles (`cyclic() == None` under every tiling plan, via `check_plans`)
/// and still match the oracle there.
fn near_misses_keep_column_tiles<T: Float>() {
    let shifts = |n, r, nu| CyclicShift::radix_submatrix::<u64>(n, r, nu);
    // `pattern` with each entry's position rewritten by `f`.
    let rewired = |pattern: &CsrMatrix<u64>, f: &dyn Fn(usize, usize) -> (usize, usize)| {
        let mut coo = CooMatrix::new(pattern.nrows(), pattern.ncols());
        for (i, j, v) in pattern.iter() {
            let (i, j) = f(i, j);
            coo.push(i, j, v);
        }
        coo.to_csr()
    };
    let base = shifts(256, 4, 16);
    let cases: [(&str, CsrMatrix<u64>); 6] = [
        (
            "one edge moved",
            rewired(&base, &|i, j| {
                if (i, j) == (5, 53) {
                    (5, 54)
                } else {
                    (i, j)
                }
            }),
        ),
        (
            "two rows swapped",
            rewired(&base, &|i, j| match i {
                3 => (100, j),
                100 => (3, j),
                _ => (i, j),
            }),
        ),
        ("r·ν > n", shifts(24, 4, 7)),
        ("ν = 0, duplicates summed", shifts(24, 3, 0)),
        ("non-square", kron_ones_left(2, 1, &shifts(24, 3, 2))),
        (
            "Kronecker-expanded",
            kron_ones_left(2, 2, &shifts(96, 4, 8)),
        ),
    ];
    for (what, pattern) in cases {
        let w: CsrMatrix<T> = weigh(&pattern);
        assert_eq!(expected_cyclic(&w), None, "{what}");
        assert!(w.ncols() > 8, "{what}: must tile under check_plans' widths");
        check_forward(&w, 40, what);
    }
}

#[test]
fn near_misses_keep_column_tiles_f64() {
    near_misses_keep_column_tiles::<f64>();
}

#[test]
fn near_misses_keep_column_tiles_f32() {
    near_misses_keep_column_tiles::<f32>();
}
