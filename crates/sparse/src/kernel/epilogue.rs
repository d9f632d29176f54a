//! Fused epilogues: bias + elementwise nonlinearity applied while the
//! output row is still hot in cache.
//!
//! Every layer of every consumer in this workspace follows its product with
//! the same shape of postprocessing: add a bias (per output neuron or one
//! uniform scalar) and push the result through an elementwise map (an
//! activation, the Graph Challenge's `clamp(·, 0, YMAX)`, or nothing). Done
//! as a separate pass this re-reads and re-writes the whole output matrix;
//! done as an [`Epilogue`] it runs on each freshly-accumulated row inside
//! the kernel loop, immediately after that row's final store.
//!
//! The epilogue applies operations in the same order as the naive two-pass
//! code (`accumulate`, then `+ bias`, then `map`), so fused results are
//! bitwise identical to the unfused path — the equivalence suite in
//! `tests/prepared_kernels.rs` asserts exactly that.

use crate::scalar::Scalar;

/// The bias term of an epilogue.
#[derive(Debug, Clone, Copy)]
pub enum Bias<'a, T> {
    /// No bias.
    None,
    /// One scalar added to every output (the Graph Challenge convention).
    Uniform(T),
    /// One value per output column (the neural-network convention);
    /// the slice length must equal the kernel's output width.
    PerOutput(&'a [T]),
}

/// A fused postprocessing step: `out[b, j] ← map(out[b, j] + bias(j))`,
/// applied row-by-row inside the kernel instead of as a second full pass
/// over the output matrix.
///
/// `F` is the elementwise map (activation/clamp); use
/// [`Epilogue::identity`] when only a bias — or nothing at all — is needed.
#[derive(Debug, Clone, Copy)]
pub struct Epilogue<'a, T, F = fn(T) -> T> {
    bias: Bias<'a, T>,
    map: Option<F>,
}

impl<T: Scalar> Epilogue<'_, T> {
    /// The no-op epilogue: no bias, no map. The kernel then computes the
    /// bare product, exactly like the un-fused `dense_spmm`.
    #[must_use]
    pub fn identity() -> Self {
        Epilogue {
            bias: Bias::None,
            map: None,
        }
    }
}

impl<'a, T: Scalar> Epilogue<'a, T> {
    /// A bias-only epilogue (no elementwise map).
    #[must_use]
    pub fn bias(bias: Bias<'a, T>) -> Self {
        Epilogue { bias, map: None }
    }
}

impl<'a, T: Scalar, F: Fn(T) -> T + Sync> Epilogue<'a, T, F> {
    /// An epilogue applying `bias` then the elementwise `map`.
    ///
    /// # Panics
    /// Does not panic itself; kernels panic if a
    /// [`Bias::PerOutput`] slice length mismatches the output width.
    #[must_use]
    pub fn new(bias: Bias<'a, T>, map: F) -> Self {
        Epilogue {
            bias,
            map: Some(map),
        }
    }

    /// An epilogue applying only the elementwise `map`.
    #[must_use]
    pub fn map(map: F) -> Self {
        Epilogue {
            bias: Bias::None,
            map: Some(map),
        }
    }

    /// Applies the epilogue to one freshly-computed output row.
    #[inline]
    pub(crate) fn apply_row(&self, row: &mut [T]) {
        self.assert_width(row.len());
        self.apply_cols(row, 0);
    }

    /// Asserts a [`Bias::PerOutput`] vector matches the kernel's output
    /// width exactly. The whole-row path checks this implicitly per row;
    /// the tiled path (which only ever sees segments) calls it once per
    /// kernel invocation so that a mis-sized bias is an error regardless
    /// of which schedule runs.
    ///
    /// # Panics
    /// Panics if a per-output bias length differs from `ncols`.
    #[inline]
    pub(crate) fn assert_width(&self, ncols: usize) {
        if let Bias::PerOutput(bs) = self.bias {
            assert_eq!(bs.len(), ncols, "bias length mismatch");
        }
    }

    /// Applies the epilogue to a contiguous column segment of an output
    /// row starting at `col_offset` — the tiled kernels' per-tile finish.
    /// Elementwise, so segment-at-a-time application is bitwise identical
    /// to a whole-row [`Epilogue::apply_row`].
    #[inline(always)]
    pub(crate) fn apply_cols(&self, seg: &mut [T], col_offset: usize) {
        match (&self.map, self.bias) {
            (None, Bias::None) => {}
            (None, Bias::Uniform(b)) => {
                for v in seg.iter_mut() {
                    *v = v.add(b);
                }
            }
            (None, Bias::PerOutput(bs)) => {
                let bs = bias_segment(bs, col_offset, seg.len());
                for (v, &b) in seg.iter_mut().zip(bs) {
                    *v = v.add(b);
                }
            }
            (Some(f), Bias::None) => {
                for v in seg.iter_mut() {
                    *v = f(*v);
                }
            }
            (Some(f), Bias::Uniform(b)) => {
                for v in seg.iter_mut() {
                    *v = f(v.add(b));
                }
            }
            (Some(f), Bias::PerOutput(bs)) => {
                let bs = bias_segment(bs, col_offset, seg.len());
                for (v, &b) in seg.iter_mut().zip(bs) {
                    *v = f(v.add(b));
                }
            }
        }
    }
}

/// The per-output bias slice covering columns `[col_offset, col_offset +
/// len)`.
///
/// # Panics
/// Panics if the segment extends past the bias vector (the kernel's output
/// width exceeds the bias length).
#[inline]
fn bias_segment<T>(bs: &[T], col_offset: usize, len: usize) -> &[T] {
    assert!(col_offset + len <= bs.len(), "bias length mismatch");
    &bs[col_offset..col_offset + len]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_leaves_row_untouched() {
        let mut row = [1.0f64, -2.0, 3.0];
        Epilogue::<f64>::identity().apply_row(&mut row);
        assert_eq!(row, [1.0, -2.0, 3.0]);
    }

    #[test]
    fn uniform_bias_adds_everywhere() {
        let mut row = [1.0f64, 2.0];
        Epilogue::<f64>::bias(Bias::Uniform(0.5)).apply_row(&mut row);
        assert_eq!(row, [1.5, 2.5]);
    }

    #[test]
    fn per_output_bias_then_map() {
        let bias = [1.0f64, -10.0];
        let mut row = [1.0f64, 2.0];
        let epi = Epilogue::new(Bias::PerOutput(&bias), |v: f64| v.max(0.0));
        epi.apply_row(&mut row);
        assert_eq!(row, [2.0, 0.0]);
    }

    #[test]
    fn map_only_applies() {
        let mut row = [-1.0f64, 4.0];
        Epilogue::map(|v: f64| v * 2.0).apply_row(&mut row);
        assert_eq!(row, [-2.0, 8.0]);
    }

    #[test]
    fn segment_application_matches_whole_row() {
        let bias = [1.0f64, -10.0, 0.5, 2.0];
        let epi = Epilogue::new(Bias::PerOutput(&bias), |v: f64| v.max(0.0));
        let mut whole = [1.0f64, 2.0, -3.0, 4.0];
        epi.apply_row(&mut whole);
        let mut pieces = [1.0f64, 2.0, -3.0, 4.0];
        epi.apply_cols(&mut pieces[0..1], 0);
        epi.apply_cols(&mut pieces[1..4], 1);
        assert_eq!(whole, pieces);
    }

    #[test]
    #[should_panic(expected = "bias length mismatch")]
    fn segment_past_bias_end_panics() {
        let bias = [1.0f64, 2.0];
        let mut seg = [0.0f64, 0.0];
        Epilogue::<f64>::bias(Bias::PerOutput(&bias)).apply_cols(&mut seg, 1);
    }

    #[test]
    #[should_panic(expected = "bias length mismatch")]
    fn per_output_bias_length_checked() {
        let bias = [1.0f64];
        let mut row = [1.0f64, 2.0];
        Epilogue::<f64>::bias(Bias::PerOutput(&bias)).apply_row(&mut row);
    }
}
