//! The shared ping-pong buffer driver behind every layered forward pass.
//!
//! A chain of `_into` kernels needs exactly two buffers regardless of
//! depth: step `l` reads the buffer step `l-1` wrote and writes the other
//! one. The swap-and-borrow choreography (loaning the buffers out of the
//! workspace so the source can be borrowed while the destination is
//! written, then restoring them) is easy to get subtly wrong, so it lives
//! here once; `radix-nn`'s `ForwardWorkspace`, `radix-challenge`'s
//! `InferWorkspace`, and the Challenge stream runner all drive their
//! layers through [`PingPong::run`].

use crate::dense::DenseMatrix;
use crate::scalar::Scalar;

/// Two activation buffers alternated across the steps of a layered
/// computation. Buffers are resized in place by the kernels, so after the
/// first pass (the high-water mark) every subsequent [`PingPong::run`] is
/// allocation-free.
#[derive(Debug, Clone)]
pub struct PingPong<T> {
    ping: DenseMatrix<T>,
    pong: DenseMatrix<T>,
}

impl<T: Scalar> Default for PingPong<T> {
    fn default() -> Self {
        PingPong::new()
    }
}

impl<T: Scalar> PingPong<T> {
    /// An empty workspace; buffers grow to their high-water mark on first
    /// use.
    #[must_use]
    pub fn new() -> Self {
        PingPong {
            ping: DenseMatrix::zeros(0, 0),
            pong: DenseMatrix::zeros(0, 0),
        }
    }

    /// A workspace with both buffers pre-sized to `rows × cols` (the
    /// widest step), so even the first pass allocates nothing.
    #[must_use]
    pub fn with_capacity(rows: usize, cols: usize) -> Self {
        PingPong {
            ping: DenseMatrix::zeros(rows, cols),
            pong: DenseMatrix::zeros(rows, cols),
        }
    }

    /// Drives `steps` kernel applications through the two buffers:
    /// `step(l, src, dst)` must fill `dst` from `src` (resizing it as
    /// needed); `src` is `x` for the first step and the previous step's
    /// output afterwards. Returns the final output, which lives inside
    /// the workspace (also available via [`PingPong::output`]).
    ///
    /// With `steps == 0` the input is never read and the returned buffer
    /// holds whatever the workspace last held — callers are expected to
    /// guarantee at least one step (networks assert non-empty layers).
    pub fn run<'w>(
        &'w mut self,
        x: &DenseMatrix<T>,
        steps: usize,
        mut step: impl FnMut(usize, &DenseMatrix<T>, &mut DenseMatrix<T>),
    ) -> &'w DenseMatrix<T> {
        let mut cur = std::mem::take(&mut self.ping);
        let mut next = std::mem::take(&mut self.pong);
        for l in 0..steps {
            {
                let src: &DenseMatrix<T> = if l == 0 { x } else { &cur };
                step(l, src, &mut next);
            }
            std::mem::swap(&mut cur, &mut next);
        }
        self.ping = cur;
        self.pong = next;
        &self.ping
    }

    /// The output of the most recent [`PingPong::run`].
    #[must_use]
    pub fn output(&self) -> &DenseMatrix<T> {
        &self.ping
    }

    /// Takes the most recent output out of the workspace (leaving an
    /// empty buffer that will regrow on next use).
    #[must_use]
    pub fn take_output(&mut self) -> DenseMatrix<T> {
        std::mem::take(&mut self.ping)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// step: dst = src with every element + 1, one column wider each time.
    fn bump(src: &DenseMatrix<f64>, dst: &mut DenseMatrix<f64>) {
        dst.resize_for_overwrite(src.nrows(), src.ncols());
        for i in 0..src.nrows() {
            for (j, &v) in src.row(i).iter().enumerate() {
                dst.set(i, j, v + 1.0);
            }
        }
    }

    #[test]
    fn chains_steps_through_both_buffers() {
        let x = DenseMatrix::from_rows(&[&[0.0f64, 10.0]]);
        let mut pp = PingPong::new();
        let y = pp.run(&x, 5, |_, src, dst| bump(src, dst));
        assert_eq!(y.row(0), &[5.0, 15.0]);
        assert_eq!(pp.output().row(0), &[5.0, 15.0]);
        // Input untouched; rerun gives the same answer through the same
        // buffers.
        let y2 = pp.run(&x, 5, |_, src, dst| bump(src, dst));
        assert_eq!(y2.row(0), &[5.0, 15.0]);
    }

    #[test]
    fn single_step_reads_input_directly() {
        let x = DenseMatrix::from_rows(&[&[7.0f64]]);
        let mut pp = PingPong::with_capacity(1, 1);
        let y = pp.run(&x, 1, |l, src, dst| {
            assert_eq!(l, 0);
            bump(src, dst);
        });
        assert_eq!(y.get(0, 0), 8.0);
    }

    #[test]
    fn take_output_leaves_reusable_workspace() {
        let x = DenseMatrix::from_rows(&[&[1.0f64]]);
        let mut pp = PingPong::new();
        pp.run(&x, 2, |_, src, dst| bump(src, dst));
        let owned = pp.take_output();
        assert_eq!(owned.get(0, 0), 3.0);
        let y = pp.run(&x, 2, |_, src, dst| bump(src, dst));
        assert_eq!(y.get(0, 0), 3.0);
    }
}
