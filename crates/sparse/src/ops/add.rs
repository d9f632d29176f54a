//! Element-wise CSR addition.

use crate::csr::CsrMatrix;
use crate::error::SparseError;
use crate::scalar::Scalar;

/// Computes `A + B` by merging sorted rows. `O(nnz(A) + nnz(B))`.
///
/// Entries that cancel exactly to zero are dropped.
///
/// # Errors
/// Returns [`SparseError::ShapeMismatch`] if the shapes differ.
pub fn add<T: Scalar>(a: &CsrMatrix<T>, b: &CsrMatrix<T>) -> Result<CsrMatrix<T>, SparseError> {
    if a.shape() != b.shape() {
        return Err(SparseError::ShapeMismatch {
            op: "add",
            lhs: a.shape(),
            rhs: b.shape(),
        });
    }
    let mut indptr = Vec::with_capacity(a.nrows() + 1);
    let mut indices = Vec::with_capacity(a.nnz() + b.nnz());
    let mut data = Vec::with_capacity(a.nnz() + b.nnz());
    indptr.push(0);
    for i in 0..a.nrows() {
        let (ac, av) = a.row(i);
        let (bc, bv) = b.row(i);
        let (mut p, mut q) = (0, 0);
        while p < ac.len() || q < bc.len() {
            let (col, val) = if q >= bc.len() || (p < ac.len() && ac[p] < bc[q]) {
                let out = (ac[p], av[p]);
                p += 1;
                out
            } else if p >= ac.len() || bc[q] < ac[p] {
                let out = (bc[q], bv[q]);
                q += 1;
                out
            } else {
                let out = (ac[p], av[p].add(bv[q]));
                p += 1;
                q += 1;
                out
            };
            if !val.is_zero() {
                indices.push(col);
                data.push(val);
            }
        }
        indptr.push(indices.len());
    }
    Ok(CsrMatrix::from_parts_unchecked(
        a.nrows(),
        a.ncols(),
        indptr,
        indices,
        data,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::DenseMatrix;

    fn csr(vals: &[&[f64]]) -> CsrMatrix<f64> {
        CsrMatrix::from_dense(&DenseMatrix::from_rows(vals))
    }

    #[test]
    fn add_disjoint_patterns() {
        let a = csr(&[&[1.0, 0.0], &[0.0, 0.0]]);
        let b = csr(&[&[0.0, 2.0], &[3.0, 0.0]]);
        let c = add(&a, &b).unwrap();
        assert_eq!(
            c.to_dense(),
            DenseMatrix::from_rows(&[&[1.0, 2.0], &[3.0, 0.0]])
        );
    }

    #[test]
    fn add_overlapping_patterns_sums() {
        let a = csr(&[&[1.0, 5.0]]);
        let b = csr(&[&[2.0, 0.0]]);
        let c = add(&a, &b).unwrap();
        assert_eq!(c.get(0, 0), 3.0);
        assert_eq!(c.get(0, 1), 5.0);
    }

    #[test]
    fn add_cancellation_drops_entries() {
        let a = csr(&[&[1.0, -4.0]]);
        let b = csr(&[&[-1.0, 4.0]]);
        let c = add(&a, &b).unwrap();
        assert_eq!(c.nnz(), 0);
    }

    #[test]
    fn add_is_commutative() {
        let a = csr(&[&[1.0, 0.0, 3.0], &[0.0, 2.0, 0.0]]);
        let b = csr(&[&[0.0, 7.0, 1.0], &[5.0, 2.0, 0.0]]);
        assert_eq!(add(&a, &b).unwrap(), add(&b, &a).unwrap());
    }

    #[test]
    fn add_shape_mismatch_errors() {
        let a = CsrMatrix::<f64>::zeros(2, 2);
        let b = CsrMatrix::<f64>::zeros(2, 3);
        assert!(add(&a, &b).is_err());
    }
}
