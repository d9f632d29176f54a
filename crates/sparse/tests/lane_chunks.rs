//! Bitwise pinning suite for the lane-chunked gather kernels.
//!
//! The gather inner loops (forward tiled, transposed tiled, untiled
//! transposed — ELL fast path and CSR fallback) were restructured into
//! fixed [`radix_sparse::kernel::LANE_WIDTH`]-entry chunks: each chunk's
//! products are computed into an independent block, then folded into the
//! scalar accumulator **in ascending entry order** — the same additions
//! in the same order as the pre-chunk scalar loops, so results must be
//! **bitwise identical**, not approximately equal. This suite pins that
//! against in-test scalar reference loops that replicate the pre-change
//! kernels exactly:
//!
//! * every constant degree 1..=16 — covering both monomorphized whole-row
//!   specializations (8 and 16), degrees that are *not* lane multiples
//!   (the scalar remainder epilogue), and sub-lane degrees,
//! * the CSR irregular fallback (rows of varying length),
//! * with and without a fused bias + activation epilogue,
//! * at randomized tile widths (tiled and untiled paths share the
//!   per-element order, so one reference serves both).
//!
//! Comparison is on `f64::to_bits`, stricter than `==` (it distinguishes
//! `0.0` from `-0.0`).

use proptest::prelude::*;
use proptest::Just;

use radix_sparse::{
    Bias, CooMatrix, CsrMatrix, CyclicShift, DenseMatrix, Epilogue, KernelPlan, Par,
    PreparedWeights,
};

/// The pre-change transposed gather, replicated: `out[r][i] =
/// map(bias_i + Σ_e x[r][cols(i,e)] · vals(i,e))` with the dot
/// accumulated entry by entry in ascending order — exactly the loop the
/// lane-chunked kernels replaced.
fn scalar_transposed_ref(
    w: &CsrMatrix<f64>,
    x: &DenseMatrix<f64>,
    bias: Option<&[f64]>,
    map: Option<fn(f64) -> f64>,
) -> DenseMatrix<f64> {
    let mut out = DenseMatrix::zeros(x.nrows(), w.nrows());
    for r in 0..x.nrows() {
        let xrow = x.row(r);
        for i in 0..w.nrows() {
            let (cols, vals) = w.row(i);
            let mut acc = 0.0f64;
            for (&j, &wv) in cols.iter().zip(vals) {
                acc += xrow[j] * wv;
            }
            if let Some(bs) = bias {
                acc += bs[i];
            }
            if let Some(f) = map {
                acc = f(acc);
            }
            out.row_mut(r)[i] = acc;
        }
    }
    out
}

fn relu(v: f64) -> f64 {
    v.max(0.0)
}

/// The fused-epilogue type every check in this suite shares.
type FnEpilogue<'a> = Epilogue<'a, f64, fn(f64) -> f64>;

/// Bitwise equality, element by element — stricter than `PartialEq`
/// (distinguishes `-0.0` from `0.0`).
fn assert_bitwise_eq(
    got: &DenseMatrix<f64>,
    want: &DenseMatrix<f64>,
    what: &str,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(got.nrows(), want.nrows(), "{}: row count", what);
    prop_assert_eq!(got.ncols(), want.ncols(), "{}: col count", what);
    for (k, (g, w)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
        prop_assert_eq!(
            g.to_bits(),
            w.to_bits(),
            "{}: element {} differs ({} vs {})",
            what,
            k,
            g,
            w
        );
    }
    Ok(())
}

/// A constant-degree RadiX-style matrix with the exact degree requested
/// (the ELL fast path), non-uniform values.
fn ell_matrix(n: usize, degree: usize, offset: usize) -> CsrMatrix<f64> {
    let mut k = 0u64;
    CyclicShift::radix_submatrix::<u64>(n, degree, offset % n).map(|_| {
        k += 1;
        (k % 17) as f64 * 0.31 - 2.3
    })
}

/// A deterministic batch with zeros sprinkled in (the `x == 0` skip).
fn batch(rows: usize, cols: usize, seed: u64) -> DenseMatrix<f64> {
    let mut m = DenseMatrix::zeros(rows, cols);
    for i in 0..rows {
        let row: &mut [f64] = m.row_mut(i);
        for (j, v) in row.iter_mut().enumerate() {
            let k = seed as usize + i * 31 + j * 7;
            *v = if k.is_multiple_of(4) {
                0.0
            } else {
                (k % 23) as f64 * 0.17 - 1.9
            };
        }
    }
    m
}

/// Strategy: an irregular sparse matrix whose row lengths vary from 0 to
/// past two lane widths — the CSR fallback, remainder loops included.
fn irregular_matrix() -> impl Strategy<Value = CsrMatrix<f64>> {
    (2usize..14, 2usize..14).prop_flat_map(|(r, c)| {
        proptest::collection::vec((0..r, 0..c, 0.25f64..4.0), 0..(r * c).min(60)).prop_map(
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

/// `w` prepared (not yet tiled) under a plan with `tile_cols`-wide tiles.
fn prepared_at(w: &CsrMatrix<f64>, tile_cols: usize) -> PreparedWeights<f64> {
    let plan = KernelPlan {
        tile_cols,
        ..KernelPlan::default()
    };
    PreparedWeights::with_plan(w.clone(), plan)
}

/// Shared body: every transposed kernel variant (untiled serial/parallel,
/// tiled at an explicit width) against the scalar reference, bitwise.
fn check_transposed_all(
    w: &CsrMatrix<f64>,
    x: &DenseMatrix<f64>,
    tile_width: usize,
    with_epilogue: bool,
) -> Result<(), TestCaseError> {
    let bias: Vec<f64> = (0..w.nrows()).map(|i| i as f64 * 0.21 - 0.8).collect();
    let (expect, epi): (_, FnEpilogue<'_>) = if with_epilogue {
        (
            scalar_transposed_ref(w, x, Some(&bias), Some(relu)),
            Epilogue::new(Bias::PerOutput(&bias), relu),
        )
    } else {
        (
            scalar_transposed_ref(w, x, None, None),
            Epilogue::identity(),
        )
    };
    // Untiled: one tile spanning every row of `w`.
    let p = prepared_at(w, w.nrows().max(1));
    let mut out = DenseMatrix::default();
    p.spmm_transposed(x, &mut out, &epi, Par::Serial).unwrap();
    assert_bitwise_eq(&out, &expect, "untiled serial")?;
    p.spmm_transposed(x, &mut out, &epi, Par::Pool).unwrap();
    assert_bitwise_eq(&out, &expect, "untiled parallel")?;
    let p = prepared_at(w, tile_width);
    p.spmm_transposed(x, &mut out, &epi, Par::Serial).unwrap();
    assert_bitwise_eq(&out, &expect, "tiled")?;
    p.spmm_transposed(x, &mut out, &epi, Par::Pool).unwrap();
    assert_bitwise_eq(&out, &expect, "tiled parallel")?;
    Ok(())
}

/// Shared body: the forward tiled gather (forced, so the lane-chunked
/// per-column dot always runs) against the untiled forward kernel, whose
/// scatter inner loop is unchanged by the lane restructuring — i.e.
/// against pre-change code.
fn check_forward_gather(
    w: &CsrMatrix<f64>,
    x: &DenseMatrix<f64>,
    tile_width: usize,
    with_epilogue: bool,
) -> Result<(), TestCaseError> {
    let bias: Vec<f64> = (0..w.ncols()).map(|j| j as f64 * 0.13 - 0.5).collect();
    let epi: FnEpilogue<'_> = if with_epilogue {
        Epilogue::new(Bias::PerOutput(&bias), relu)
    } else {
        Epilogue::identity()
    };
    let mut p = prepared_at(w, tile_width);
    let mut expect = DenseMatrix::default();
    p.spmm(x, &mut expect, &epi, Par::Serial).unwrap();
    p.tile();
    let mut out = DenseMatrix::default();
    p.spmm(x, &mut out, &epi, Par::Serial).unwrap();
    assert_bitwise_eq(&out, &expect, "forward tiled gather")?;
    p.spmm(x, &mut out, &epi, Par::Pool).unwrap();
    assert_bitwise_eq(&out, &expect, "forward tiled gather parallel")?;
    Ok(())
}

/// Exhaustive degree sweep — every constant degree 1..=16, so both
/// monomorphized specializations (8, 16), every remainder length, and
/// the sub-lane degrees are all guaranteed covered regardless of proptest
/// case budgets.
#[test]
fn every_degree_1_to_16_matches_the_scalar_reference() {
    for degree in 1..=16usize {
        let n = (degree * 2).max(24);
        let w = ell_matrix(n, degree, degree / 2 + 1);
        assert!(
            PreparedWeights::from_csr(w.clone()).is_ell(),
            "degree {degree} must take the ELL path"
        );
        let x = batch(5, n, degree as u64);
        for with_epilogue in [false, true] {
            check_transposed_all(&w, &x, 7, with_epilogue)
                .unwrap_or_else(|e| panic!("transposed degree {degree}: {e:?}"));
            check_forward_gather(&w, &x, 7, with_epilogue)
                .unwrap_or_else(|e| panic!("forward degree {degree}: {e:?}"));
        }
    }
}

proptest! {
    /// ELL path, random degree/shape/width: transposed kernels vs the
    /// scalar reference, bitwise, ± epilogue.
    #[test]
    fn ell_transposed_matches_scalar_reference(
        degree in 1usize..=16,
        extra in 0usize..24,
        offset in 0usize..7,
        seed in 0u64..1000,
        tile_width in 1usize..12,
        epi_flag in 0usize..2,
    ) {
        let n = (degree + 1).max(4) + extra;
        let w = ell_matrix(n, degree, offset);
        let x = batch(4, n, seed);
        check_transposed_all(&w, &x, tile_width, epi_flag == 1)?;
    }

    /// CSR irregular fallback: transposed kernels vs the scalar
    /// reference, bitwise, ± epilogue.
    #[test]
    fn irregular_transposed_matches_scalar_reference(
        w in irregular_matrix(),
        seed in 0u64..1000,
        tile_width in 1usize..12,
        epi_flag in 0usize..2,
    ) {
        let x = batch(3, w.ncols(), seed);
        check_transposed_all(&w, &x, tile_width, epi_flag == 1)?;
    }

    /// ELL path: the forced forward tiled gather vs the untiled forward
    /// kernel (pre-change inner loop), bitwise, ± epilogue.
    #[test]
    fn ell_forward_gather_matches_untiled(
        degree in 1usize..=16,
        extra in 0usize..24,
        seed in 0u64..1000,
        tile_width in 1usize..12,
        epi_flag in 0usize..2,
    ) {
        let n = (degree + 1).max(4) + extra;
        let w = ell_matrix(n, degree, 1);
        let x = batch(4, n, seed);
        check_forward_gather(&w, &x, tile_width, epi_flag == 1)?;
    }

    /// CSR irregular fallback: forward tiled gather vs untiled, bitwise.
    #[test]
    fn irregular_forward_gather_matches_untiled(
        (w, seed) in irregular_matrix().prop_flat_map(|w| (Just(w), 0u64..1000)),
        tile_width in 1usize..12,
        epi_flag in 0usize..2,
    ) {
        let x = batch(3, w.nrows(), seed);
        check_forward_gather(&w, &x, tile_width, epi_flag == 1)?;
    }
}
