//! Procedural digit-raster dataset — the MNIST stand-in.
//!
//! Each sample is an 8×8 grayscale raster of one of the glyphs 0–9, drawn
//! from a fixed seven-segment-style bitmap font and perturbed by a random
//! sub-pixel shift and additive noise. Classes are visually distinct but
//! non-trivially overlapping at high noise, which is all the training
//! comparison needs: the same 64-dimensional raster task MNIST poses,
//! at laptop scale and with no external data dependency.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use radix_sparse::DenseMatrix;

use crate::synthetic::Dataset;

/// Raster side length (images are `SIDE × SIDE`).
pub const SIDE: usize = 8;

/// Feature dimension (`SIDE²`).
pub const DIM: usize = SIDE * SIDE;

/// 8×8 bitmap glyphs for the ten digits (1 bit per pixel, row-major,
/// MSB = leftmost pixel).
const GLYPHS: [[u8; 8]; 10] = [
    // 0
    [0x3C, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x3C],
    // 1
    [0x18, 0x38, 0x18, 0x18, 0x18, 0x18, 0x18, 0x3C],
    // 2
    [0x3C, 0x66, 0x06, 0x0C, 0x18, 0x30, 0x60, 0x7E],
    // 3
    [0x3C, 0x66, 0x06, 0x1C, 0x06, 0x06, 0x66, 0x3C],
    // 4
    [0x0C, 0x1C, 0x2C, 0x4C, 0x7E, 0x0C, 0x0C, 0x0C],
    // 5
    [0x7E, 0x60, 0x60, 0x7C, 0x06, 0x06, 0x66, 0x3C],
    // 6
    [0x3C, 0x66, 0x60, 0x7C, 0x66, 0x66, 0x66, 0x3C],
    // 7
    [0x7E, 0x06, 0x0C, 0x0C, 0x18, 0x18, 0x30, 0x30],
    // 8
    [0x3C, 0x66, 0x66, 0x3C, 0x66, 0x66, 0x66, 0x3C],
    // 9
    [0x3C, 0x66, 0x66, 0x66, 0x3E, 0x06, 0x66, 0x3C],
];

/// Renders the clean glyph for `digit` as a `DIM`-length intensity vector
/// in `[0, 1]`.
///
/// # Panics
/// Panics if `digit > 9`.
#[must_use]
pub fn clean_glyph(digit: usize) -> Vec<f32> {
    assert!(digit <= 9, "digit out of range");
    let mut out = vec![0.0f32; DIM];
    for (r, bits) in GLYPHS[digit].iter().enumerate() {
        for c in 0..SIDE {
            if bits & (0x80 >> c) != 0 {
                out[r * SIDE + c] = 1.0;
            }
        }
    }
    out
}

/// Generates `per_class` noisy samples of each digit: each sample is the
/// glyph shifted by up to ±1 pixel in each axis, with Gaussian pixel noise
/// of the given std, clamped to `[0, 1]`.
#[must_use]
pub fn digits(per_class: usize, noise: f32, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = 10 * per_class;
    let mut x = DenseMatrix::zeros(n, DIM);
    let mut labels = Vec::with_capacity(n);
    for digit in 0..10 {
        let glyph = clean_glyph(digit);
        for s in 0..per_class {
            let i = digit * per_class + s;
            let dr: isize = rng.gen_range(-1..=1);
            let dc: isize = rng.gen_range(-1..=1);
            let row: &mut [f32] = x.row_mut(i);
            for r in 0..SIDE {
                for c in 0..SIDE {
                    let sr = r as isize - dr;
                    let sc = c as isize - dc;
                    let base =
                        if (0..SIDE as isize).contains(&sr) && (0..SIDE as isize).contains(&sc) {
                            glyph[sr as usize * SIDE + sc as usize]
                        } else {
                            0.0
                        };
                    let u1: f32 = rng.gen_range(1e-7f32..1.0);
                    let u2: f32 = rng.gen_range(0.0f32..1.0);
                    let z = (-2.0 * u1.ln()).sqrt() * (std::f32::consts::TAU * u2).cos();
                    row[r * SIDE + c] = (base + z * noise).clamp(0.0, 1.0);
                }
            }
            labels.push(digit);
        }
    }
    Dataset {
        x,
        labels,
        num_classes: 10,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn glyphs_are_distinct() {
        for a in 0..10 {
            for b in (a + 1)..10 {
                assert_ne!(clean_glyph(a), clean_glyph(b), "glyphs {a} and {b}");
            }
        }
    }

    #[test]
    fn glyph_pixels_binary() {
        for d in 0..10 {
            for &p in &clean_glyph(d) {
                assert!(p == 0.0 || p == 1.0);
            }
        }
    }

    #[test]
    fn dataset_shape_and_balance() {
        let d = digits(12, 0.1, 0);
        assert_eq!(d.len(), 120);
        assert_eq!(d.dim(), 64);
        assert_eq!(d.num_classes, 10);
        for digit in 0..10 {
            assert_eq!(d.labels.iter().filter(|&&l| l == digit).count(), 12);
        }
    }

    #[test]
    fn pixels_stay_in_unit_interval() {
        let d = digits(5, 0.5, 1);
        for &v in d.x.as_slice() {
            assert!((0.0..=1.0).contains(&v));
        }
    }

    #[test]
    fn zero_noise_zero_shift_recovers_glyph_sometimes() {
        // With noise 0, every sample is a shifted clean glyph; at least one
        // sample per class should be the unshifted glyph for enough draws.
        let d = digits(30, 0.0, 2);
        let mut found_exact = 0;
        for digit in 0..10 {
            let glyph = clean_glyph(digit);
            for i in 0..d.len() {
                if d.labels[i] == digit && d.x.row(i) == glyph.as_slice() {
                    found_exact += 1;
                    break;
                }
            }
        }
        assert!(found_exact >= 8, "only {found_exact} exact glyphs found");
    }

    #[test]
    fn deterministic_by_seed() {
        assert_eq!(digits(3, 0.2, 9), digits(3, 0.2, 9));
        assert_ne!(digits(3, 0.2, 9), digits(3, 0.2, 10));
    }

    #[test]
    #[should_panic(expected = "digit out of range")]
    fn bad_digit_panics() {
        let _ = clean_glyph(10);
    }
}
