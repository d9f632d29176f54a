//! Weight initialization over sparse structure.
//!
//! For a sparse layer, the effective fan-in of an output unit is its
//! *in-degree*, not the full input width — initializing by full-width
//! Xavier/He systematically under-scales sparse nets and is one of the
//! classic pitfalls when comparing sparse to dense training (companion work
//! \[15\] normalizes the same way).

use rand::Rng;

use radix_sparse::CsrMatrix;

/// Initialization scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Init {
    /// Uniform in `±sqrt(6 / (fan_in + fan_out))` (Glorot/Xavier) — paired
    /// with sigmoid/tanh.
    Xavier,
    /// Normal with std `sqrt(2 / fan_in)` (He) — paired with ReLU.
    He,
    /// All weights set to a constant (degenerate; for tests).
    Constant(i32),
}

impl Init {
    fn sample<R: Rng>(self, fan_in: usize, fan_out: usize, rng: &mut R) -> f32 {
        match self {
            Init::Xavier => {
                let bound = (6.0 / (fan_in + fan_out) as f64).sqrt() as f32;
                rng.gen_range(-bound..=bound)
            }
            Init::He => {
                let std = (2.0 / fan_in.max(1) as f64).sqrt() as f32;
                // Box–Muller from two uniforms; rand's StandardNormal lives
                // in rand_distr, which we avoid pulling in for one sampler.
                let u1: f32 = rng.gen_range(1e-7f32..1.0);
                let u2: f32 = rng.gen_range(0.0f32..1.0);
                let z = (-2.0 * u1.ln()).sqrt() * (std::f32::consts::TAU * u2).cos();
                z * std
            }
            Init::Constant(milli) => milli as f32 / 1000.0,
        }
    }
}

/// Initializes weights on a sparse pattern: the weight of edge `(i, j)` is
/// drawn with `fan_in = in-degree(j)` and `fan_out = out-degree(i)` — the
/// *structural* fan computed from the pattern itself.
///
/// Returns a matrix with the same pattern and fresh values. Weights of
/// exactly zero are nudged to a small epsilon so the sparsity pattern is
/// preserved (a stored zero would be dropped by the CSR invariant).
#[must_use]
pub fn init_sparse<R: Rng>(pattern: &CsrMatrix<u64>, scheme: Init, rng: &mut R) -> CsrMatrix<f32> {
    let col_deg = pattern.col_degrees();
    let mut indptr = Vec::with_capacity(pattern.nrows() + 1);
    let mut indices = Vec::with_capacity(pattern.nnz());
    let mut data = Vec::with_capacity(pattern.nnz());
    indptr.push(0);
    for i in 0..pattern.nrows() {
        let (cols, _) = pattern.row(i);
        let fan_out = cols.len();
        for &j in cols {
            let mut w = scheme.sample(col_deg[j], fan_out, rng);
            if w == 0.0 {
                w = 1e-6;
            }
            indices.push(j);
            data.push(w);
        }
        indptr.push(indices.len());
    }
    CsrMatrix::from_parts_unchecked(pattern.nrows(), pattern.ncols(), indptr, indices, data)
}

/// Initializes a dense weight matrix with the given scheme
/// (`fan_in = nrows`, `fan_out = ncols`).
#[must_use]
pub fn init_dense<R: Rng>(
    nrows: usize,
    ncols: usize,
    scheme: Init,
    rng: &mut R,
) -> radix_sparse::DenseMatrix<f32> {
    let mut m = radix_sparse::DenseMatrix::zeros(nrows, ncols);
    for i in 0..nrows {
        let row: &mut [f32] = m.row_mut(i);
        for v in row.iter_mut() {
            *v = scheme.sample(nrows, ncols, rng);
        }
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use radix_sparse::CyclicShift;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn pattern_preserved() {
        let pattern: CsrMatrix<u64> = CyclicShift::radix_submatrix(16, 4, 1);
        let mut rng = StdRng::seed_from_u64(0);
        let w = init_sparse(&pattern, Init::Xavier, &mut rng);
        assert!(w.same_pattern(&pattern));
    }

    #[test]
    fn xavier_within_bounds() {
        let pattern: CsrMatrix<u64> = CyclicShift::radix_submatrix(32, 4, 1);
        let mut rng = StdRng::seed_from_u64(1);
        let w = init_sparse(&pattern, Init::Xavier, &mut rng);
        // fan_in = fan_out = 4 → bound = sqrt(6/8) ≈ 0.866.
        let bound = (6.0f32 / 8.0).sqrt() + 1e-6;
        assert!(w.data().iter().all(|v| v.abs() <= bound));
    }

    #[test]
    fn he_std_scales_with_fan_in() {
        // Empirical std over many samples ≈ sqrt(2/fan_in).
        let pattern: CsrMatrix<u64> = CyclicShift::radix_submatrix(512, 8, 1);
        let mut rng = StdRng::seed_from_u64(2);
        let w = init_sparse(&pattern, Init::He, &mut rng);
        let n = w.nnz() as f32;
        let mean: f32 = w.data().iter().sum::<f32>() / n;
        let var: f32 = w.data().iter().map(|v| (v - mean).powi(2)).sum::<f32>() / n;
        let expect = 2.0 / 8.0;
        assert!(
            (var - expect).abs() < 0.05,
            "sample var {var} vs expected {expect}"
        );
    }

    #[test]
    fn seeded_init_deterministic() {
        let pattern: CsrMatrix<u64> = CyclicShift::radix_submatrix(8, 2, 1);
        let a = init_sparse(&pattern, Init::Xavier, &mut StdRng::seed_from_u64(7));
        let b = init_sparse(&pattern, Init::Xavier, &mut StdRng::seed_from_u64(7));
        assert_eq!(a, b);
    }

    #[test]
    fn constant_init() {
        let pattern: CsrMatrix<u64> = CyclicShift::radix_submatrix(4, 2, 1);
        let mut rng = StdRng::seed_from_u64(0);
        let w = init_sparse(&pattern, Init::Constant(500), &mut rng);
        assert!(w.data().iter().all(|&v| v == 0.5));
    }

    #[test]
    fn dense_init_shape_and_spread() {
        let mut rng = StdRng::seed_from_u64(3);
        let m = init_dense(10, 20, Init::Xavier, &mut rng);
        assert_eq!(m.shape(), (10, 20));
        assert!(m.count_nonzero() > 150, "almost all entries nonzero");
    }
}
