//! Synthetic inputs for the Graph-Challenge-style inference harness.
//!
//! The real Sparse DNN Graph Challenge feeds MNIST images thresholded to
//! sparse binary feature vectors into RadiX-Net-generated networks. We
//! generate the same *statistical* object directly: batches of binary
//! feature vectors with a controlled fraction of active features.

use rand::rngs::StdRng;
use rand::SeedableRng;

use radix_sparse::DenseMatrix;

/// A batch of sparse binary feature vectors as a dense batch-major matrix
/// (`batch × features`), each row having `ceil(features · active_fraction)`
/// ones at random positions.
///
/// # Panics
/// Panics if `active_fraction` is outside `(0, 1]` or `features == 0`.
#[must_use]
pub fn sparse_binary_batch(
    batch: usize,
    features: usize,
    active_fraction: f64,
    seed: u64,
) -> DenseMatrix<f32> {
    assert!(features > 0, "need at least one feature");
    assert!(
        active_fraction > 0.0 && active_fraction <= 1.0,
        "active fraction must be in (0, 1]"
    );
    let active = ((features as f64 * active_fraction).ceil() as usize).max(1);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut x = DenseMatrix::zeros(batch, features);
    let mut positions: Vec<usize> = (0..features).collect();
    for i in 0..batch {
        use rand::seq::SliceRandom;
        let (chosen, _) = positions.partial_shuffle(&mut rng, active);
        let on: Vec<usize> = chosen.to_vec();
        let row: &mut [f32] = x.row_mut(i);
        for j in on {
            row[j] = 1.0;
        }
    }
    x
}

/// Per-row count of active (nonzero) features.
#[must_use]
pub fn active_counts(x: &DenseMatrix<f32>) -> Vec<usize> {
    (0..x.nrows())
        .map(|i| x.row(i).iter().filter(|v| **v != 0.0).count())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn activation_counts_exact() {
        let x = sparse_binary_batch(16, 64, 0.25, 0);
        for &c in &active_counts(&x) {
            assert_eq!(c, 16); // 64 · 0.25
        }
    }

    #[test]
    fn values_are_binary() {
        let x = sparse_binary_batch(8, 32, 0.1, 1);
        for &v in x.as_slice() {
            assert!(v == 0.0 || v == 1.0);
        }
    }

    #[test]
    fn full_fraction_gives_all_ones() {
        let x = sparse_binary_batch(2, 10, 1.0, 2);
        assert!(x.as_slice().iter().all(|&v| v == 1.0));
    }

    #[test]
    fn tiny_fraction_gives_at_least_one() {
        let x = sparse_binary_batch(4, 100, 0.001, 3);
        for &c in &active_counts(&x) {
            assert_eq!(c, 1);
        }
    }

    #[test]
    fn deterministic_by_seed() {
        assert_eq!(
            sparse_binary_batch(4, 16, 0.5, 9),
            sparse_binary_batch(4, 16, 0.5, 9)
        );
    }

    #[test]
    #[should_panic(expected = "active fraction")]
    fn zero_fraction_panics() {
        let _ = sparse_binary_batch(1, 4, 0.0, 0);
    }
}
