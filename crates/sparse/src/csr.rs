//! Compressed sparse row matrices — the workhorse format.
//!
//! Every adjacency submatrix `W_i` of a mixed-radix or RadiX-Net topology is
//! stored as a `CsrMatrix`. CSR gives `O(1)` row slicing, which is what the
//! SpMM kernels, the Kronecker product, and the layer-by-layer path-count
//! chain all iterate over.

use crate::dense::DenseMatrix;
use crate::error::SparseError;
use crate::scalar::Scalar;

/// A compressed-sparse-row matrix over a [`Scalar`] semiring.
///
/// Invariants (enforced by [`CsrMatrix::try_from_parts`], assumed by
/// [`CsrMatrix::from_parts_unchecked`]):
///
/// * `indptr.len() == nrows + 1`, `indptr[0] == 0`,
///   `indptr[nrows] == indices.len() == data.len()`,
/// * `indptr` is non-decreasing,
/// * within each row, column indices are strictly increasing and `< ncols`,
/// * no stored value equals `T::ZERO` (explicit zeros are dropped upstream).
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix<T> {
    nrows: usize,
    ncols: usize,
    indptr: Vec<usize>,
    indices: Vec<usize>,
    data: Vec<T>,
}

impl<T: Scalar> CsrMatrix<T> {
    /// Builds a CSR matrix from raw parts without validating invariants.
    ///
    /// Intended for internal constructors that produce canonical output
    /// (e.g. [`crate::CooMatrix::to_csr`]). Use [`CsrMatrix::try_from_parts`]
    /// for externally sourced data.
    #[must_use]
    pub fn from_parts_unchecked(
        nrows: usize,
        ncols: usize,
        indptr: Vec<usize>,
        indices: Vec<usize>,
        data: Vec<T>,
    ) -> Self {
        debug_assert_eq!(indptr.len(), nrows + 1);
        debug_assert_eq!(indices.len(), data.len());
        CsrMatrix {
            nrows,
            ncols,
            indptr,
            indices,
            data,
        }
    }

    /// Builds a CSR matrix from raw parts, validating every invariant.
    ///
    /// # Errors
    /// Returns [`SparseError::InvalidStructure`] describing the first
    /// violated invariant.
    pub fn try_from_parts(
        nrows: usize,
        ncols: usize,
        indptr: Vec<usize>,
        indices: Vec<usize>,
        data: Vec<T>,
    ) -> Result<Self, SparseError> {
        if indptr.len() != nrows + 1 {
            return Err(SparseError::InvalidStructure(format!(
                "indptr length {} != nrows + 1 = {}",
                indptr.len(),
                nrows + 1
            )));
        }
        if indptr[0] != 0 {
            return Err(SparseError::InvalidStructure(
                "indptr must start at 0".into(),
            ));
        }
        if *indptr.last().unwrap() != indices.len() || indices.len() != data.len() {
            return Err(SparseError::InvalidStructure(format!(
                "indptr end {} must equal indices.len() {} and data.len() {}",
                indptr.last().unwrap(),
                indices.len(),
                data.len()
            )));
        }
        for w in indptr.windows(2) {
            if w[1] < w[0] {
                return Err(SparseError::InvalidStructure(
                    "indptr must be non-decreasing".into(),
                ));
            }
        }
        for r in 0..nrows {
            let row = &indices[indptr[r]..indptr[r + 1]];
            for w in row.windows(2) {
                if w[1] <= w[0] {
                    return Err(SparseError::InvalidStructure(format!(
                        "row {r}: column indices must be strictly increasing"
                    )));
                }
            }
            if let Some(&last) = row.last() {
                if last >= ncols {
                    return Err(SparseError::InvalidStructure(format!(
                        "row {r}: column index {last} >= ncols {ncols}"
                    )));
                }
            }
        }
        if data.iter().any(Scalar::is_zero) {
            return Err(SparseError::InvalidStructure(
                "explicit zero stored in data".into(),
            ));
        }
        Ok(CsrMatrix {
            nrows,
            ncols,
            indptr,
            indices,
            data,
        })
    }

    /// The `n × n` identity matrix.
    #[must_use]
    pub fn identity(n: usize) -> Self {
        CsrMatrix {
            nrows: n,
            ncols: n,
            indptr: (0..=n).collect(),
            indices: (0..n).collect(),
            data: vec![T::ONE; n],
        }
    }

    /// An all-zero matrix of the given shape.
    #[must_use]
    pub fn zeros(nrows: usize, ncols: usize) -> Self {
        CsrMatrix {
            nrows,
            ncols,
            indptr: vec![0; nrows + 1],
            indices: Vec::new(),
            data: Vec::new(),
        }
    }

    /// Converts a dense matrix, dropping zeros.
    #[must_use]
    pub fn from_dense(d: &DenseMatrix<T>) -> Self {
        let mut indptr = Vec::with_capacity(d.nrows() + 1);
        let mut indices = Vec::new();
        let mut data = Vec::new();
        indptr.push(0);
        for i in 0..d.nrows() {
            for (j, &v) in d.row(i).iter().enumerate() {
                if !v.is_zero() {
                    indices.push(j);
                    data.push(v);
                }
            }
            indptr.push(indices.len());
        }
        CsrMatrix::from_parts_unchecked(d.nrows(), d.ncols(), indptr, indices, data)
    }

    /// Number of rows.
    #[must_use]
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    #[must_use]
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Shape as `(rows, cols)`.
    #[must_use]
    pub fn shape(&self) -> (usize, usize) {
        (self.nrows, self.ncols)
    }

    /// Number of stored (nonzero) entries.
    #[must_use]
    pub fn nnz(&self) -> usize {
        self.data.len()
    }

    /// The row-pointer array (`nrows + 1` entries).
    #[must_use]
    pub fn indptr(&self) -> &[usize] {
        &self.indptr
    }

    /// The column-index array.
    #[must_use]
    pub fn indices(&self) -> &[usize] {
        &self.indices
    }

    /// The value array, parallel to [`CsrMatrix::indices`].
    #[must_use]
    pub fn data(&self) -> &[T] {
        &self.data
    }

    /// Mutable access to the value array (structure stays fixed).
    pub fn data_mut(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// The column indices and values of row `i`.
    ///
    /// # Panics
    /// Panics if `i >= nrows`.
    #[inline]
    #[must_use]
    pub fn row(&self, i: usize) -> (&[usize], &[T]) {
        assert!(i < self.nrows, "row index out of bounds");
        let span = self.indptr[i]..self.indptr[i + 1];
        (&self.indices[span.clone()], &self.data[span])
    }

    /// Number of stored entries in row `i` (the node's out-degree when this
    /// is an adjacency submatrix).
    ///
    /// # Panics
    /// Panics if `i >= nrows`.
    #[inline]
    #[must_use]
    pub fn row_nnz(&self, i: usize) -> usize {
        assert!(i < self.nrows, "row index out of bounds");
        self.indptr[i + 1] - self.indptr[i]
    }

    /// Value at `(i, j)`, `T::ZERO` if not stored. `O(log row_nnz)`.
    ///
    /// # Panics
    /// Panics if out of bounds.
    #[must_use]
    pub fn get(&self, i: usize, j: usize) -> T {
        assert!(j < self.ncols, "column index out of bounds");
        let (cols, vals) = self.row(i);
        match cols.binary_search(&j) {
            Ok(k) => vals[k],
            Err(_) => T::ZERO,
        }
    }

    /// Iterates over `(row, col, value)` triplets in row-major order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, T)> + '_ {
        (0..self.nrows).flat_map(move |i| {
            let (cols, vals) = self.row(i);
            cols.iter().zip(vals).map(move |(&c, &v)| (i, c, v))
        })
    }

    /// Out-degree of every row.
    #[must_use]
    pub fn row_degrees(&self) -> Vec<usize> {
        (0..self.nrows).map(|i| self.row_nnz(i)).collect()
    }

    /// In-degree of every column.
    #[must_use]
    pub fn col_degrees(&self) -> Vec<usize> {
        let mut deg = vec![0usize; self.ncols];
        for &c in &self.indices {
            deg[c] += 1;
        }
        deg
    }

    /// Whether any column is entirely zero. The FNNT definition (paper §II)
    /// forbids zero *columns* in adjacency submatrices (every node has an
    /// incoming edge), and the FNNT out-degree condition forbids zero rows.
    #[must_use]
    pub fn has_zero_column(&self) -> bool {
        self.col_degrees().contains(&0)
    }

    /// Whether any row is entirely zero.
    #[must_use]
    pub fn has_zero_row(&self) -> bool {
        (0..self.nrows).any(|i| self.row_nnz(i) == 0)
    }

    /// Whether all stored values equal `T::ONE` — i.e. this is a 0/1
    /// adjacency submatrix in the paper's sense.
    #[must_use]
    pub fn is_binary(&self) -> bool {
        self.data.iter().all(|&v| v == T::ONE)
    }

    /// Density relative to the dense matrix of the same shape:
    /// `nnz / (nrows · ncols)`.
    #[must_use]
    pub fn density(&self) -> f64 {
        if self.nrows == 0 || self.ncols == 0 {
            return 0.0;
        }
        self.nnz() as f64 / (self.nrows as f64 * self.ncols as f64)
    }

    /// Transposed copy in CSR form. `O(nnz + ncols)`.
    #[must_use]
    pub fn transpose(&self) -> CsrMatrix<T> {
        let mut indptr = vec![0usize; self.ncols + 1];
        for &c in &self.indices {
            indptr[c + 1] += 1;
        }
        for i in 0..self.ncols {
            indptr[i + 1] += indptr[i];
        }
        let mut indices = vec![0usize; self.nnz()];
        let mut data = vec![T::ZERO; self.nnz()];
        let mut next = indptr.clone();
        for r in 0..self.nrows {
            let (cols, vals) = self.row(r);
            for (&c, &v) in cols.iter().zip(vals) {
                indices[next[c]] = r;
                data[next[c]] = v;
                next[c] += 1;
            }
        }
        CsrMatrix::from_parts_unchecked(self.ncols, self.nrows, indptr, indices, data)
    }

    /// Expands to a dense matrix.
    #[must_use]
    pub fn to_dense(&self) -> DenseMatrix<T> {
        let mut d = DenseMatrix::zeros(self.nrows, self.ncols);
        for (i, j, v) in self.iter() {
            d.set(i, j, v);
        }
        d
    }

    /// Maps stored values into another scalar type with the same pattern.
    /// Values mapping to zero are dropped to preserve the no-explicit-zero
    /// invariant.
    #[must_use]
    pub fn map<U: Scalar>(&self, mut f: impl FnMut(T) -> U) -> CsrMatrix<U> {
        let mut indptr = Vec::with_capacity(self.nrows + 1);
        let mut indices = Vec::with_capacity(self.nnz());
        let mut data = Vec::with_capacity(self.nnz());
        indptr.push(0);
        for i in 0..self.nrows {
            let (cols, vals) = self.row(i);
            for (&c, &v) in cols.iter().zip(vals) {
                let u = f(v);
                if !u.is_zero() {
                    indices.push(c);
                    data.push(u);
                }
            }
            indptr.push(indices.len());
        }
        CsrMatrix::from_parts_unchecked(self.nrows, self.ncols, indptr, indices, data)
    }

    /// The structural pattern as a binary matrix (every stored value → 1).
    #[must_use]
    pub fn pattern<U: Scalar>(&self) -> CsrMatrix<U> {
        self.map(|_| U::ONE)
    }

    /// Whether `self` and `other` have the same sparsity pattern
    /// (shape, indptr, indices), ignoring values.
    #[must_use]
    pub fn same_pattern<U: Scalar>(&self, other: &CsrMatrix<U>) -> bool {
        self.shape() == other.shape()
            && self.indptr == other.indptr
            && self.indices == other.indices
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::CooMatrix;

    fn sample() -> CsrMatrix<f64> {
        // [1 0 2]
        // [0 0 0]
        // [3 4 0]
        let mut coo = CooMatrix::new(3, 3);
        coo.push(0, 0, 1.0);
        coo.push(0, 2, 2.0);
        coo.push(2, 0, 3.0);
        coo.push(2, 1, 4.0);
        coo.to_csr()
    }

    #[test]
    fn basic_accessors() {
        let m = sample();
        assert_eq!(m.shape(), (3, 3));
        assert_eq!(m.nnz(), 4);
        assert_eq!(m.get(0, 2), 2.0);
        assert_eq!(m.get(1, 1), 0.0);
        assert_eq!(m.row_nnz(1), 0);
        assert_eq!(m.row_degrees(), vec![2, 0, 2]);
        assert_eq!(m.col_degrees(), vec![2, 1, 1]);
    }

    #[test]
    fn zero_row_column_detection() {
        let m = sample();
        assert!(m.has_zero_row());
        assert!(!m.has_zero_column());
        let t = m.transpose();
        assert!(t.has_zero_column());
    }

    #[test]
    fn identity_properties() {
        let i = CsrMatrix::<u64>::identity(4);
        assert_eq!(i.nnz(), 4);
        assert!(i.is_binary());
        assert!((i.density() - 0.25).abs() < 1e-12);
        for k in 0..4 {
            assert_eq!(i.get(k, k), 1);
        }
    }

    #[test]
    fn transpose_involution_and_values() {
        let m = sample();
        let t = m.transpose();
        assert_eq!(t.get(0, 2), 3.0);
        assert_eq!(t.get(1, 2), 4.0);
        assert_eq!(t.get(2, 0), 2.0);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn dense_roundtrip() {
        let m = sample();
        let d = m.to_dense();
        assert_eq!(d.get(2, 1), 4.0);
        let back = CsrMatrix::from_dense(&d);
        assert_eq!(back, m);
    }

    #[test]
    fn map_and_pattern() {
        let m = sample();
        let p: CsrMatrix<u64> = m.pattern();
        assert!(p.is_binary());
        assert!(p.same_pattern(&m));
        // Map that kills one value drops it from the pattern.
        let m2 = m.map(|v| if v == 2.0 { 0.0 } else { v });
        assert_eq!(m2.nnz(), 3);
        assert!(!m2.same_pattern(&m));
    }

    #[test]
    fn try_from_parts_accepts_valid() {
        let m = sample();
        let ok = CsrMatrix::try_from_parts(
            3,
            3,
            m.indptr().to_vec(),
            m.indices().to_vec(),
            m.data().to_vec(),
        );
        assert!(ok.is_ok());
    }

    #[test]
    fn try_from_parts_rejects_bad_indptr_len() {
        let e = CsrMatrix::<f64>::try_from_parts(2, 2, vec![0, 0], vec![], vec![]);
        assert!(matches!(e, Err(SparseError::InvalidStructure(_))));
    }

    #[test]
    fn try_from_parts_rejects_nonzero_start() {
        let e = CsrMatrix::<f64>::try_from_parts(1, 2, vec![1, 1], vec![], vec![]);
        assert!(e.is_err());
    }

    #[test]
    fn try_from_parts_rejects_decreasing_indptr() {
        let e = CsrMatrix::<f64>::try_from_parts(2, 2, vec![0, 1, 0], vec![0], vec![1.0]);
        assert!(e.is_err());
    }

    #[test]
    fn try_from_parts_rejects_unsorted_columns() {
        let e = CsrMatrix::<f64>::try_from_parts(1, 3, vec![0, 2], vec![2, 0], vec![1.0, 1.0]);
        assert!(e.is_err());
    }

    #[test]
    fn try_from_parts_rejects_duplicate_columns() {
        let e = CsrMatrix::<f64>::try_from_parts(1, 3, vec![0, 2], vec![1, 1], vec![1.0, 1.0]);
        assert!(e.is_err());
    }

    #[test]
    fn try_from_parts_rejects_col_out_of_range() {
        let e = CsrMatrix::<f64>::try_from_parts(1, 2, vec![0, 1], vec![5], vec![1.0]);
        assert!(e.is_err());
    }

    #[test]
    fn try_from_parts_rejects_explicit_zero() {
        let e = CsrMatrix::<f64>::try_from_parts(1, 2, vec![0, 1], vec![0], vec![0.0]);
        assert!(e.is_err());
    }

    #[test]
    fn iter_yields_row_major_triplets() {
        let m = sample();
        let got: Vec<_> = m.iter().collect();
        assert_eq!(
            got,
            vec![(0, 0, 1.0), (0, 2, 2.0), (2, 0, 3.0), (2, 1, 4.0)]
        );
    }

    #[test]
    fn zeros_has_no_entries() {
        let z = CsrMatrix::<f32>::zeros(3, 2);
        assert_eq!(z.nnz(), 0);
        assert!(z.has_zero_row());
        assert!(z.has_zero_column());
        assert_eq!(z.density(), 0.0);
    }

    #[test]
    fn density_of_empty_shape_is_zero() {
        let z = CsrMatrix::<f32>::zeros(0, 0);
        assert_eq!(z.density(), 0.0);
    }
}
