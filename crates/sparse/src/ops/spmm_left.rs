//! Dense × sparse products: `C = X · W` with dense `X` and CSR `W`.
//!
//! This is the orientation the neural-network substrate uses on every
//! forward pass (activations `X` are batch-major dense, weights `W` are a
//! sparse layer) and, with the roles of the factors' indices exchanged, on
//! the backward pass (`grad_in = delta · Wᵀ`, computed without forming
//! `Wᵀ`). Both kernels iterate `W` rows so CSR needs no transpose. They
//! are the serial, allocate-per-call references the prepared kernels'
//! bitwise suites compare against.

use crate::csr::CsrMatrix;
use crate::dense::DenseMatrix;
use crate::error::SparseError;
use crate::scalar::Scalar;

/// Serial dense × CSR: `C[b, j] = Σ_i X[b, i] · W[i, j]`.
///
/// # Errors
/// Returns [`SparseError::ShapeMismatch`] if `X.ncols() != W.nrows()`.
pub fn dense_spmm<T: Scalar>(
    x: &DenseMatrix<T>,
    w: &CsrMatrix<T>,
) -> Result<DenseMatrix<T>, SparseError> {
    if x.ncols() != w.nrows() {
        return Err(SparseError::ShapeMismatch {
            op: "dense_spmm",
            lhs: x.shape(),
            rhs: w.shape(),
        });
    }
    let mut c: DenseMatrix<T> = DenseMatrix::zeros(x.nrows(), w.ncols());
    for b in 0..x.nrows() {
        let xrow = x.row(b);
        let crow: &mut [T] = c.row_mut(b);
        for (i, &xv) in xrow.iter().enumerate() {
            if xv.is_zero() {
                continue;
            }
            let (cols, vals) = w.row(i);
            for (&j, &wv) in cols.iter().zip(vals) {
                crow[j] = crow[j].add(xv.mul(wv));
            }
        }
    }
    Ok(c)
}

/// Serial dense × CSRᵀ without materializing the transpose:
/// `C[b, i] = Σ_j X[b, j] · W[i, j]` (i.e. `C = X · Wᵀ`).
///
/// # Errors
/// Returns [`SparseError::ShapeMismatch`] if `X.ncols() != W.ncols()`.
pub fn dense_spmm_transposed<T: Scalar>(
    x: &DenseMatrix<T>,
    w: &CsrMatrix<T>,
) -> Result<DenseMatrix<T>, SparseError> {
    if x.ncols() != w.ncols() {
        return Err(SparseError::ShapeMismatch {
            op: "dense_spmm_transposed",
            lhs: x.shape(),
            rhs: w.shape(),
        });
    }
    let mut c: DenseMatrix<T> = DenseMatrix::zeros(x.nrows(), w.nrows());
    for b in 0..x.nrows() {
        let xrow = x.row(b);
        let crow: &mut [T] = c.row_mut(b);
        for (i, ci) in crow.iter_mut().enumerate() {
            let (cols, vals) = w.row(i);
            let mut acc = T::ZERO;
            for (&j, &wv) in cols.iter().zip(vals) {
                acc = acc.add(xrow[j].mul(wv));
            }
            *ci = acc;
        }
    }
    Ok(c)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::perm::CyclicShift;

    fn sample() -> (DenseMatrix<f64>, CsrMatrix<f64>) {
        let x = DenseMatrix::from_rows(&[&[1.0, 2.0, 0.0], &[0.5, 0.0, 3.0]]);
        let w = CsrMatrix::from_dense(&DenseMatrix::from_rows(&[
            &[1.0, 0.0],
            &[0.0, 2.0],
            &[3.0, 1.0],
        ]));
        (x, w)
    }

    #[test]
    fn dense_spmm_matches_reference() {
        let (x, w) = sample();
        let c = dense_spmm(&x, &w).unwrap();
        assert_eq!(c, x.matmul(&w.to_dense()).unwrap());
    }

    #[test]
    fn transposed_matches_explicit_transpose() {
        let (x, _) = sample();
        let w: CsrMatrix<f64> =
            CyclicShift::radix_submatrix::<u64>(3, 2, 1).map(|v| v as f64 * 1.5);
        let via_kernel = dense_spmm_transposed(&x, &w).unwrap();
        let via_transpose = dense_spmm(&x, &w.transpose()).unwrap();
        assert_eq!(via_kernel, via_transpose);
    }

    #[test]
    fn shape_mismatches_error() {
        let (x, w) = sample();
        let bad = DenseMatrix::<f64>::zeros(2, 5);
        assert!(dense_spmm(&bad, &w).is_err());
        assert!(dense_spmm_transposed(&x, &w).is_err()); // 3 vs ncols 2
    }

    #[test]
    fn identity_weight_is_noop() {
        let x = DenseMatrix::from_rows(&[&[1.0f64, 2.0], &[3.0, 4.0]]);
        let i = CsrMatrix::identity(2);
        assert_eq!(dense_spmm(&x, &i).unwrap(), x);
        assert_eq!(dense_spmm_transposed(&x, &i).unwrap(), x);
    }
}
