//! Sparse matrix–matrix products: CSR × dense and CSR × CSR.
//!
//! These are the general, allocating kernels. [`spmm`] (Gustavson's
//! algorithm with a dense "sparse accumulator" workspace per row) is what
//! [`crate::ops::matpow`] and [`crate::ops::chain_product`] — and so the
//! Theorem-1 path counts — run on; it and [`spmm_dense`] also serve as
//! test references. Network layers run on the prepared engine in
//! [`crate::kernel`] instead.

use crate::csr::CsrMatrix;
use crate::dense::DenseMatrix;
use crate::error::SparseError;
use crate::scalar::Scalar;

/// Serial CSR × dense → dense: `C = A · B`.
///
/// # Errors
/// Returns [`SparseError::ShapeMismatch`] if `A.ncols() != B.nrows()`.
pub fn spmm_dense<T: Scalar>(
    a: &CsrMatrix<T>,
    b: &DenseMatrix<T>,
) -> Result<DenseMatrix<T>, SparseError> {
    if a.ncols() != b.nrows() {
        return Err(SparseError::ShapeMismatch {
            op: "spmm_dense",
            lhs: a.shape(),
            rhs: b.shape(),
        });
    }
    let mut c: DenseMatrix<T> = DenseMatrix::zeros(a.nrows(), b.ncols());
    for i in 0..a.nrows() {
        let (cols, vals) = a.row(i);
        let crow = c.row_mut(i);
        for (&k, &v) in cols.iter().zip(vals) {
            let brow = b.row(k);
            for (cij, &bkj) in crow.iter_mut().zip(brow) {
                *cij = cij.add(v.mul(bkj));
            }
        }
    }
    Ok(c)
}

/// One row of a Gustavson SPA product: accumulate `A[i,:] · B` into the
/// workspace, then harvest sorted nonzeros.
fn spa_row<T: Scalar>(
    acols: &[usize],
    avals: &[T],
    b: &CsrMatrix<T>,
    workspace: &mut [T],
    touched: &mut Vec<usize>,
    out_cols: &mut Vec<usize>,
    out_vals: &mut Vec<T>,
) {
    for (&k, &v) in acols.iter().zip(avals) {
        let (bcols, bvals) = b.row(k);
        for (&j, &bv) in bcols.iter().zip(bvals) {
            if workspace[j].is_zero() {
                touched.push(j);
            }
            workspace[j] = workspace[j].add(v.mul(bv));
        }
    }
    touched.sort_unstable();
    for &j in touched.iter() {
        let val = workspace[j];
        workspace[j] = T::ZERO;
        if !val.is_zero() {
            out_cols.push(j);
            out_vals.push(val);
        }
    }
    touched.clear();
}

/// Serial CSR × CSR → CSR (Gustavson SPA).
///
/// # Errors
/// Returns [`SparseError::ShapeMismatch`] if `A.ncols() != B.nrows()`.
pub fn spmm<T: Scalar>(a: &CsrMatrix<T>, b: &CsrMatrix<T>) -> Result<CsrMatrix<T>, SparseError> {
    if a.ncols() != b.nrows() {
        return Err(SparseError::ShapeMismatch {
            op: "spmm",
            lhs: a.shape(),
            rhs: b.shape(),
        });
    }
    let mut workspace = vec![T::ZERO; b.ncols()];
    let mut touched = Vec::new();
    let mut indptr = Vec::with_capacity(a.nrows() + 1);
    let mut indices = Vec::new();
    let mut data = Vec::new();
    indptr.push(0);
    for i in 0..a.nrows() {
        let (acols, avals) = a.row(i);
        spa_row(
            acols,
            avals,
            b,
            &mut workspace,
            &mut touched,
            &mut indices,
            &mut data,
        );
        indptr.push(indices.len());
    }
    Ok(CsrMatrix::from_parts_unchecked(
        a.nrows(),
        b.ncols(),
        indptr,
        indices,
        data,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::perm::CyclicShift;

    fn dense(vals: &[&[f64]]) -> DenseMatrix<f64> {
        DenseMatrix::from_rows(vals)
    }

    #[test]
    fn spmm_dense_matches_reference() {
        let a = CsrMatrix::from_dense(&dense(&[&[1.0, 0.0], &[2.0, 3.0]]));
        let b = dense(&[&[4.0, 5.0], &[6.0, 7.0]]);
        let c = spmm_dense(&a, &b).unwrap();
        assert_eq!(c, a.to_dense().matmul(&b).unwrap());
    }

    #[test]
    fn spmm_matches_dense_product() {
        let a = CsrMatrix::from_dense(&dense(&[&[1.0, 0.0, 2.0], &[0.0, 3.0, 0.0]]));
        let b = CsrMatrix::from_dense(&dense(&[&[1.0, 1.0], &[0.0, 2.0], &[4.0, 0.0]]));
        let c = spmm(&a, &b).unwrap();
        let dref = a.to_dense().matmul(&b.to_dense()).unwrap();
        assert_eq!(c.to_dense(), dref);
    }

    #[test]
    fn spmm_identity_is_noop() {
        let a: CsrMatrix<u64> = CyclicShift::radix_submatrix(8, 2, 2);
        let i = CsrMatrix::identity(8);
        assert_eq!(spmm(&a, &i).unwrap(), a);
        assert_eq!(spmm(&i, &a).unwrap(), a);
    }

    #[test]
    fn spmm_shape_mismatch_errors() {
        let a = CsrMatrix::<f64>::zeros(2, 3);
        let b = CsrMatrix::<f64>::zeros(2, 3);
        assert!(spmm(&a, &b).is_err());
        assert!(spmm_dense(&a, &DenseMatrix::zeros(2, 2)).is_err());
    }

    #[test]
    fn spmm_numeric_cancellation_drops_entry() {
        let a = CsrMatrix::from_dense(&dense(&[&[1.0, 1.0]]));
        let b = CsrMatrix::from_dense(&dense(&[&[1.0], &[-1.0]]));
        let c = spmm(&a, &b).unwrap();
        assert_eq!(c.nnz(), 0, "exact cancellation must not store a zero");
    }

    #[test]
    fn spmm_output_columns_sorted() {
        let a: CsrMatrix<u64> = CyclicShift::radix_submatrix(16, 4, 1);
        let b: CsrMatrix<u64> = CyclicShift::radix_submatrix(16, 4, 4);
        let c = spmm(&a, &b).unwrap();
        for i in 0..c.nrows() {
            let (cols, _) = c.row(i);
            assert!(cols.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn spmm_zero_rows_propagate() {
        let a = CsrMatrix::<f64>::zeros(3, 3);
        let b = CsrMatrix::<f64>::identity(3);
        let c = spmm(&a, &b).unwrap();
        assert_eq!(c.nnz(), 0);
        assert_eq!(c.shape(), (3, 3));
    }

    #[test]
    fn empty_dimension_products() {
        let a = CsrMatrix::<f64>::zeros(0, 4);
        let b = CsrMatrix::<f64>::zeros(4, 0);
        let c = spmm(&a, &b).unwrap();
        assert_eq!(c.shape(), (0, 0));
        let d = spmm_dense(&a, &DenseMatrix::zeros(4, 2)).unwrap();
        assert_eq!(d.shape(), (0, 2));
    }
}
