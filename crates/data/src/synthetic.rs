//! Synthetic classification datasets.
//!
//! These stand in for the image benchmarks (MNIST/CIFAR) of the companion
//! training study. The claim under test is *relative*
//! (sparse-topology nets reach dense-net accuracy on the same data), so any
//! non-trivial classification task exercises the same code path.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use radix_sparse::DenseMatrix;

/// A labelled classification dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    /// Features, one sample per row.
    pub x: DenseMatrix<f32>,
    /// Class labels, one per row of `x`.
    pub labels: Vec<usize>,
    /// Number of classes.
    pub num_classes: usize,
}

impl Dataset {
    /// Number of samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether the dataset is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Feature dimensionality.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.x.ncols()
    }

    /// Splits into `(train, test)` with the first `train_fraction` of a
    /// seeded shuffle going to train.
    ///
    /// # Panics
    /// Panics if `train_fraction` is outside `(0, 1)`.
    #[must_use]
    pub fn split(&self, train_fraction: f64, seed: u64) -> (Dataset, Dataset) {
        assert!(
            train_fraction > 0.0 && train_fraction < 1.0,
            "train fraction must be in (0,1)"
        );
        use rand::seq::SliceRandom;
        let mut idx: Vec<usize> = (0..self.len()).collect();
        idx.shuffle(&mut StdRng::seed_from_u64(seed));
        let cut = ((self.len() as f64) * train_fraction).round() as usize;
        let take = |ids: &[usize]| {
            let mut x = DenseMatrix::zeros(ids.len(), self.dim());
            let mut labels = Vec::with_capacity(ids.len());
            for (local, &global) in ids.iter().enumerate() {
                let dst: &mut [f32] = x.row_mut(local);
                dst.copy_from_slice(self.x.row(global));
                labels.push(self.labels[global]);
            }
            Dataset {
                x,
                labels,
                num_classes: self.num_classes,
            }
        };
        (take(&idx[..cut]), take(&idx[cut..]))
    }
}

/// Isotropic Gaussian blobs: `num_classes` random centers in `dim`
/// dimensions, `per_class` samples each with the given noise std.
#[must_use]
pub fn gaussian_blobs(
    num_classes: usize,
    per_class: usize,
    dim: usize,
    noise: f32,
    seed: u64,
) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let centers: Vec<Vec<f32>> = (0..num_classes)
        .map(|_| (0..dim).map(|_| rng.gen_range(-2.0..2.0)).collect())
        .collect();
    let n = num_classes * per_class;
    let mut x = DenseMatrix::zeros(n, dim);
    let mut labels = Vec::with_capacity(n);
    for (class, center) in centers.iter().enumerate() {
        for s in 0..per_class {
            let i = class * per_class + s;
            let row: &mut [f32] = x.row_mut(i);
            for (v, &c) in row.iter_mut().zip(center) {
                // Box–Muller gaussian noise.
                let u1: f32 = rng.gen_range(1e-7f32..1.0);
                let u2: f32 = rng.gen_range(0.0f32..1.0);
                let z = (-2.0 * u1.ln()).sqrt() * (std::f32::consts::TAU * u2).cos();
                *v = c + z * noise;
            }
            labels.push(class);
        }
    }
    Dataset {
        x,
        labels,
        num_classes,
    }
}

/// The classic two-spirals task (2 classes, 2 native dimensions), embedded
/// into `dim ≥ 2` dimensions by zero-padding plus small noise so sparse
/// input layers see realistic widths.
///
/// # Panics
/// Panics if `dim < 2`.
#[must_use]
pub fn two_spirals(per_class: usize, dim: usize, noise: f32, seed: u64) -> Dataset {
    assert!(dim >= 2, "spirals need at least 2 dimensions");
    let mut rng = StdRng::seed_from_u64(seed);
    let n = 2 * per_class;
    let mut x = DenseMatrix::zeros(n, dim);
    let mut labels = Vec::with_capacity(n);
    for class in 0..2 {
        for s in 0..per_class {
            let i = class * per_class + s;
            let t = 0.25 + 3.5 * (s as f32 / per_class as f32); // radians-ish
            let r = t / 4.0;
            let phase = if class == 0 {
                0.0
            } else {
                std::f32::consts::PI
            };
            let row: &mut [f32] = x.row_mut(i);
            row[0] = r * (t * std::f32::consts::PI + phase).cos() + rng.gen_range(-noise..=noise);
            row[1] = r * (t * std::f32::consts::PI + phase).sin() + rng.gen_range(-noise..=noise);
            for v in row.iter_mut().skip(2) {
                *v = rng.gen_range(-noise..=noise);
            }
            labels.push(class);
        }
    }
    Dataset {
        x,
        labels,
        num_classes: 2,
    }
}

/// A `k × k` checkerboard over `[−1, 1]²` (2 classes by parity of cell),
/// embedded into `dim ≥ 2` dimensions like [`two_spirals`].
///
/// # Panics
/// Panics if `dim < 2` or `k == 0`.
#[must_use]
pub fn checkerboard(samples: usize, k: usize, dim: usize, seed: u64) -> Dataset {
    assert!(dim >= 2, "checkerboard needs at least 2 dimensions");
    assert!(k > 0, "checkerboard needs at least one cell");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut x = DenseMatrix::zeros(samples, dim);
    let mut labels = Vec::with_capacity(samples);
    for i in 0..samples {
        let a: f32 = rng.gen_range(-1.0..1.0);
        let b: f32 = rng.gen_range(-1.0..1.0);
        let cell = (((a + 1.0) / 2.0 * k as f32) as usize).min(k - 1)
            + (((b + 1.0) / 2.0 * k as f32) as usize).min(k - 1);
        let row: &mut [f32] = x.row_mut(i);
        row[0] = a;
        row[1] = b;
        for v in row.iter_mut().skip(2) {
            *v = rng.gen_range(-0.05..0.05);
        }
        labels.push(cell % 2);
    }
    Dataset {
        x,
        labels,
        num_classes: 2,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blobs_shapes_and_labels() {
        let d = gaussian_blobs(4, 25, 8, 0.2, 0);
        assert_eq!(d.len(), 100);
        assert_eq!(d.dim(), 8);
        assert_eq!(d.num_classes, 4);
        assert!(d.labels.iter().all(|&l| l < 4));
        for class in 0..4 {
            assert_eq!(d.labels.iter().filter(|&&l| l == class).count(), 25);
        }
    }

    #[test]
    fn blobs_deterministic_by_seed() {
        let a = gaussian_blobs(2, 10, 4, 0.1, 7);
        let b = gaussian_blobs(2, 10, 4, 0.1, 7);
        assert_eq!(a, b);
        let c = gaussian_blobs(2, 10, 4, 0.1, 8);
        assert_ne!(a, c);
    }

    #[test]
    fn blobs_classes_are_separated_at_low_noise() {
        // At tiny noise, same-class points cluster far tighter than the
        // typical inter-center distance.
        let d = gaussian_blobs(2, 30, 4, 0.01, 3);
        let mean = |class: usize| -> Vec<f32> {
            let rows: Vec<usize> = (0..d.len()).filter(|&i| d.labels[i] == class).collect();
            let mut m = vec![0.0f32; d.dim()];
            for &i in &rows {
                for (mm, &v) in m.iter_mut().zip(d.x.row(i)) {
                    *mm += v / rows.len() as f32;
                }
            }
            m
        };
        let m0 = mean(0);
        let m1 = mean(1);
        let dist: f32 = m0
            .iter()
            .zip(&m1)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f32>()
            .sqrt();
        assert!(dist > 0.5, "centers too close: {dist}");
    }

    #[test]
    fn spirals_balanced_and_bounded() {
        let d = two_spirals(50, 6, 0.01, 1);
        assert_eq!(d.len(), 100);
        assert_eq!(d.dim(), 6);
        assert_eq!(d.labels.iter().filter(|&&l| l == 0).count(), 50);
        // Spiral radii stay within ~1.
        for i in 0..d.len() {
            assert!(d.x.get(i, 0).abs() < 1.5);
            assert!(d.x.get(i, 1).abs() < 1.5);
        }
    }

    #[test]
    fn checkerboard_labels_match_parity() {
        let d = checkerboard(200, 4, 2, 5);
        for i in 0..d.len() {
            let a = d.x.get(i, 0);
            let b = d.x.get(i, 1);
            let cell = (((a + 1.0) / 2.0 * 4.0) as usize).min(3)
                + (((b + 1.0) / 2.0 * 4.0) as usize).min(3);
            assert_eq!(d.labels[i], cell % 2);
        }
    }

    #[test]
    fn split_partitions_without_loss() {
        let d = gaussian_blobs(3, 20, 4, 0.3, 2);
        let (train, test) = d.split(0.75, 0);
        assert_eq!(train.len() + test.len(), d.len());
        assert_eq!(train.len(), 45);
        assert_eq!(train.num_classes, 3);
        assert_eq!(train.dim(), 4);
    }

    #[test]
    #[should_panic(expected = "train fraction")]
    fn bad_split_fraction_panics() {
        let d = gaussian_blobs(2, 5, 2, 0.1, 0);
        let _ = d.split(1.5, 0);
    }
}
