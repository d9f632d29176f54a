//! Sparse and dense linear layers with activations: forward and backward.
//!
//! A sparse layer's weights live on a fixed topology (a RadiX-Net or X-Net
//! adjacency pattern); training updates the values but never the pattern —
//! the "de novo sparse" regime of the paper (§I), as opposed to pruning.

use radix_sparse::{AsDenseView, Bias, CsrMatrix, DenseMatrix, Epilogue, Par, PreparedWeights};

use crate::activation::Activation;

/// Gradients of one layer's parameters, laid out to match the layer's own
/// parameter storage (`w` parallel to the weight values, `b` to the bias).
#[derive(Debug, Clone, PartialEq)]
pub struct LayerGrads {
    /// Weight gradients, in the layer's storage order: the order of
    /// `PreparedWeights::values` for sparse layers (diagonal order `t·n + j`
    /// for a sum of cyclic shifts, CSR order otherwise), row-major for
    /// dense ones.
    pub w: Vec<f32>,
    /// Bias gradients.
    pub b: Vec<f32>,
}

impl LayerGrads {
    /// Creates zero gradients with the given sizes.
    #[must_use]
    pub fn zeros(w_len: usize, b_len: usize) -> Self {
        LayerGrads {
            w: vec![0.0; w_len],
            b: vec![0.0; b_len],
        }
    }

    /// Resizes to the given lengths and zero-fills, reusing allocations —
    /// the gradient analogue of `DenseMatrix::resize_zeroed`.
    pub fn resize_zeroed(&mut self, w_len: usize, b_len: usize) {
        self.w.clear();
        self.w.resize(w_len, 0.0);
        self.b.clear();
        self.b.resize(b_len, 0.0);
    }

    /// Resizes **without** clearing: retained elements keep stale values
    /// (newly grown ones are zero) — the gradient analogue of
    /// `DenseMatrix::resize_for_overwrite`, for buffers whose every
    /// element is about to be assigned (the data-parallel reduction
    /// target). Callers must write every element before reading any.
    pub fn resize_for_overwrite(&mut self, w_len: usize, b_len: usize) {
        self.w.resize(w_len, 0.0);
        self.b.resize(b_len, 0.0);
    }
}

/// A linear layer with a sparse weight matrix and per-output bias. The
/// weights are held as [`PreparedWeights`]: a RadiX-Net layer is stored
/// as its value diagonals and trains forward, backward and weight
/// gradient as shift-adds over them; X-Net and other constant-degree
/// patterns run the ELL fast path. Either way the bias + activation
/// epilogue is fused into the kernel.
#[derive(Debug, Clone, PartialEq)]
pub struct SparseLinear {
    w: PreparedWeights<f32>,
    b: Vec<f32>,
    act: Activation,
}

/// A conventional dense linear layer (the baseline the paper's sparse nets
/// are compared against).
#[derive(Debug, Clone, PartialEq)]
pub struct DenseLinear {
    w: DenseMatrix<f32>,
    b: Vec<f32>,
    act: Activation,
}

/// Either kind of layer; networks hold a `Vec<Layer>` so sparse and dense
/// topologies train through identical code.
///
/// # Example: forward and backward through one sparse layer
///
/// ```
/// use radix_nn::{Activation, Layer, SparseLinear};
/// use radix_sparse::{CsrMatrix, DenseMatrix};
///
/// let w = CsrMatrix::from_dense(&DenseMatrix::from_rows(&[
///     &[0.5f32, 0.0],
///     &[0.0, 0.25],
/// ]));
/// let layer = Layer::Sparse(SparseLinear::new(w, Activation::Relu));
/// let x = DenseMatrix::from_rows(&[&[2.0f32, -4.0]]);
/// let mut y = DenseMatrix::default();
/// layer.forward_into(&x, &mut y); // act(X · W + b), fused epilogue
/// assert_eq!(y.row(0), &[1.0, 0.0]);
/// // Backward: parameter grads + input grads via the tiled transposed
/// // kernel (hot loops pass reused buffers to backward_into instead).
/// let (grads, grad_in) = layer.backward(&x, &y, &y);
/// assert_eq!(grads.b.len(), 2);
/// assert_eq!(grad_in.shape(), (1, 2));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum Layer {
    /// Sparse-topology linear layer.
    Sparse(SparseLinear),
    /// Fully-connected linear layer.
    Dense(DenseLinear),
}

impl SparseLinear {
    /// Creates a sparse layer from weights and activation; bias starts at
    /// 0. The weight matrix is prepared once here (its storage chosen:
    /// diagonals for a sum of cyclic shifts, else CSR/ELL).
    #[must_use]
    pub fn new(w: CsrMatrix<f32>, act: Activation) -> Self {
        let b = vec![0.0; w.ncols()];
        SparseLinear {
            w: PreparedWeights::from_csr(w),
            b,
            act,
        }
    }

    /// Creates a sparse layer with an explicit bias vector (checkpoint
    /// restore; [`SparseLinear::new`] zero-initializes instead).
    ///
    /// # Panics
    /// Panics if `b.len() != w.ncols()`.
    #[must_use]
    pub fn with_bias(w: CsrMatrix<f32>, b: Vec<f32>, act: Activation) -> Self {
        assert_eq!(b.len(), w.ncols(), "bias length must match output width");
        SparseLinear {
            w: PreparedWeights::from_csr(w),
            b,
            act,
        }
    }

    /// The weight matrix in CSR form, rebuilt from the prepared storage
    /// ([`PreparedWeights::to_csr`]); training and inference never need
    /// it.
    #[must_use]
    pub fn weights(&self) -> CsrMatrix<f32> {
        self.w.to_csr()
    }

    /// The per-output bias vector.
    #[must_use]
    pub fn bias(&self) -> &[f32] {
        &self.b
    }

    /// The layer's activation function.
    #[must_use]
    pub fn activation(&self) -> Activation {
        self.act
    }

    /// The prepared weight matrix the kernels actually run on.
    #[must_use]
    pub fn prepared(&self) -> &PreparedWeights<f32> {
        &self.w
    }

    /// Readies the column-tiled forward schedule (tiles as wide as the
    /// weight's `KernelPlan` says — the process plan's `RADIX_TILE_COLS`;
    /// narrow layers stay untiled). A diagonal-stored layer needs nothing
    /// built; a CSR-stored one gets a CSC copy of its values, which an
    /// update (`apply_update`) drops again — so call this on a frozen
    /// network before inference-heavy use.
    pub fn tile(&mut self) -> bool {
        self.w.tile()
    }

    /// Number of trainable parameters (weights + biases).
    #[must_use]
    pub fn num_params(&self) -> usize {
        self.w.nnz() + self.b.len()
    }
}

impl DenseLinear {
    /// Creates a dense layer from weights and activation; bias starts at 0.
    #[must_use]
    pub fn new(w: DenseMatrix<f32>, act: Activation) -> Self {
        let b = vec![0.0; w.ncols()];
        DenseLinear { w, b, act }
    }

    /// Creates a dense layer with an explicit bias vector (checkpoint
    /// restore; [`DenseLinear::new`] zero-initializes instead).
    ///
    /// # Panics
    /// Panics if `b.len() != w.ncols()`.
    #[must_use]
    pub fn with_bias(w: DenseMatrix<f32>, b: Vec<f32>, act: Activation) -> Self {
        assert_eq!(b.len(), w.ncols(), "bias length must match output width");
        DenseLinear { w, b, act }
    }

    /// The weight matrix.
    #[must_use]
    pub fn weights(&self) -> &DenseMatrix<f32> {
        &self.w
    }

    /// The per-output bias vector.
    #[must_use]
    pub fn bias(&self) -> &[f32] {
        &self.b
    }

    /// The layer's activation function.
    #[must_use]
    pub fn activation(&self) -> Activation {
        self.act
    }

    /// Number of trainable parameters (weights + biases).
    #[must_use]
    pub fn num_params(&self) -> usize {
        self.w.nrows() * self.w.ncols() + self.b.len()
    }
}

impl Layer {
    /// Input width.
    #[must_use]
    pub fn n_in(&self) -> usize {
        match self {
            Layer::Sparse(l) => l.w.nrows(),
            Layer::Dense(l) => l.w.nrows(),
        }
    }

    /// Output width.
    #[must_use]
    pub fn n_out(&self) -> usize {
        match self {
            Layer::Sparse(l) => l.w.ncols(),
            Layer::Dense(l) => l.w.ncols(),
        }
    }

    /// The layer's activation function.
    #[must_use]
    pub fn activation(&self) -> Activation {
        match self {
            Layer::Sparse(l) => l.act,
            Layer::Dense(l) => l.act,
        }
    }

    /// Number of trainable parameters.
    #[must_use]
    pub fn num_params(&self) -> usize {
        match self {
            Layer::Sparse(l) => l.num_params(),
            Layer::Dense(l) => l.num_params(),
        }
    }

    /// Forward pass: `act(X · W + b)` for batch-major `X`.
    ///
    /// Allocates a fresh output; hot loops should use
    /// [`Layer::forward_into`] with a reused buffer instead.
    ///
    /// # Panics
    /// Panics if `x.ncols() != n_in()`.
    #[must_use]
    pub fn forward(&self, x: &DenseMatrix<f32>) -> DenseMatrix<f32> {
        let mut out = DenseMatrix::zeros(0, 0);
        self.forward_into(x, &mut out);
        out
    }

    /// Forward pass into a caller-provided buffer: `out ← act(X · W + b)`.
    ///
    /// `out` is resized in place (reusing its allocation when possible).
    /// Sparse layers run the prepared kernel with the bias + activation
    /// epilogue fused into the product; serial vs pool is `Par::Auto`, the
    /// weight's `KernelPlan` work threshold. `x` may be an owned
    /// matrix or a zero-copy row-range view — the data-parallel training
    /// path feeds each worker its batch chunk as a `DenseView`.
    ///
    /// # Panics
    /// Panics if `x.ncols() != n_in()`.
    pub fn forward_into(&self, x: &impl AsDenseView<f32>, out: &mut DenseMatrix<f32>) {
        self.forward_into_par(x, out, Par::Auto);
    }

    /// [`Layer::forward_into`] with the kernels' serial-vs-pool choice
    /// made by the caller (a data-parallel chunk, already on the pool,
    /// passes `Par::Serial`).
    pub(crate) fn forward_into_par(
        &self,
        x: &impl AsDenseView<f32>,
        out: &mut DenseMatrix<f32>,
        par: Par,
    ) {
        match self {
            Layer::Sparse(l) => {
                let act = l.act;
                let epi = Epilogue::new(Bias::PerOutput(&l.b), move |v: f32| act.apply(v));
                l.w.spmm(x, out, &epi, par).expect("layer width mismatch");
            }
            Layer::Dense(l) => {
                x.as_view()
                    .matmul_into(&l.w, out)
                    .expect("layer width mismatch");
                for i in 0..out.nrows() {
                    let row: &mut [f32] = out.row_mut(i);
                    for (v, &bias) in row.iter_mut().zip(&l.b) {
                        *v += bias;
                    }
                    l.act.apply_slice(row);
                }
            }
        }
    }

    /// Backward pass. Given the layer input `x`, its forward output `out`
    /// (post-activation), and the loss gradient `grad_out` w.r.t. `out`,
    /// returns the parameter gradients and the loss gradient w.r.t. `x`.
    ///
    /// # Panics
    /// Panics on shape mismatches between `x`, `out`, and `grad_out`.
    #[must_use]
    pub fn backward(
        &self,
        x: &DenseMatrix<f32>,
        out: &DenseMatrix<f32>,
        grad_out: &DenseMatrix<f32>,
    ) -> (LayerGrads, DenseMatrix<f32>) {
        let mut delta = grad_out.clone();
        let mut grads = LayerGrads::zeros(0, 0);
        let mut grad_in = DenseMatrix::zeros(0, 0);
        self.backward_into(x, out, &mut delta, &mut grads, &mut grad_in);
        (grads, grad_in)
    }

    /// Backward pass into caller-provided buffers. On entry `delta` must
    /// hold the loss gradient w.r.t. `out`; it is scaled by `act'(out)` in
    /// place (becoming scratch). `grads` and `grad_in` are resized
    /// (reusing allocations) and filled.
    ///
    /// Sparse layers run entirely on the prepared storage: the weight
    /// gradients come from `PreparedWeights::weight_grads` and the input
    /// gradient `delta · Wᵀ` from `PreparedWeights::spmm_transposed`,
    /// both tile-major over the storage itself — shift-adds over the
    /// diagonals of a RadiX layer, the ELL rows of any other — so no
    /// [`SparseLinear::tile`] call is involved, the weight gradient is in
    /// the layer's storage order, and a steady-state train step performs
    /// no heap allocation (`tests/zero_alloc.rs` pins this down). Serial
    /// vs pool is `Par::Auto`, the weight's `KernelPlan` work threshold.
    ///
    /// # Panics
    /// Panics on shape mismatches between `x`, `out`, and `delta`.
    pub fn backward_into(
        &self,
        x: &impl AsDenseView<f32>,
        out: &DenseMatrix<f32>,
        delta: &mut DenseMatrix<f32>,
        grads: &mut LayerGrads,
        grad_in: &mut DenseMatrix<f32>,
    ) {
        self.backward_into_par(x, out, delta, grads, grad_in, Par::Auto);
    }

    /// [`Layer::backward_into`] with the kernels' serial-vs-pool choice
    /// made by the caller.
    pub(crate) fn backward_into_par(
        &self,
        x: &impl AsDenseView<f32>,
        out: &DenseMatrix<f32>,
        delta: &mut DenseMatrix<f32>,
        grads: &mut LayerGrads,
        grad_in: &mut DenseMatrix<f32>,
        par: Par,
    ) {
        let x = x.as_view();
        assert_eq!(out.shape(), delta.shape(), "output/grad shape mismatch");
        assert_eq!(x.nrows(), out.nrows(), "batch size mismatch");
        let act = self.activation();
        // delta ← delta ⊙ act'(out), in place.
        for i in 0..delta.nrows() {
            let drow: &mut [f32] = delta.row_mut(i);
            let orow = out.row(i);
            for (d, &o) in drow.iter_mut().zip(orow) {
                *d *= act.derivative_from_output(o);
            }
        }

        let (w_len, b_len) = self.param_lens();
        grads.resize_zeroed(w_len, b_len);
        for i in 0..delta.nrows() {
            for (a, &d) in grads.b.iter_mut().zip(delta.row(i)) {
                *a += d;
            }
        }

        match self {
            Layer::Sparse(l) => {
                l.w.weight_grads(&x, delta, &mut grads.w, par)
                    .expect("layer shapes match the weights");
                l.w.spmm_transposed(delta, grad_in, &Epilogue::identity(), par)
                    .expect("delta width matches weight columns");
            }
            Layer::Dense(l) => {
                // grad_w[i, j] = Σ_b x[b, i] · delta[b, j], accumulated
                // straight into the (zeroed) workspace buffer — no
                // transpose temp, no allocate-then-copy.
                let n_out = l.w.ncols();
                for b in 0..x.nrows() {
                    let xrow = x.row(b);
                    let drow = delta.row(b);
                    for (i, &xv) in xrow.iter().enumerate() {
                        if xv == 0.0 {
                            continue;
                        }
                        let seg = &mut grads.w[i * n_out..(i + 1) * n_out];
                        for (g, &d) in seg.iter_mut().zip(drow) {
                            *g += xv * d;
                        }
                    }
                }
                delta
                    .matmul_transposed_into(&l.w, grad_in)
                    .expect("delta width matches weight columns");
            }
        }
    }

    /// Applies a scaled update `param -= delta` elementwise, where `delta`
    /// is laid out like [`LayerGrads`] (optimizers compute `delta` from raw
    /// gradients and call this).
    ///
    /// # Panics
    /// Panics if the update lengths do not match the parameter counts.
    pub fn apply_update(&mut self, w_delta: &[f32], b_delta: &[f32]) {
        match self {
            Layer::Sparse(l) => {
                assert_eq!(w_delta.len(), l.w.nnz(), "weight update length");
                for (w, &d) in l.w.values_mut().iter_mut().zip(w_delta) {
                    *w -= d;
                }
                assert_eq!(b_delta.len(), l.b.len(), "bias update length");
                for (b, &d) in l.b.iter_mut().zip(b_delta) {
                    *b -= d;
                }
            }
            Layer::Dense(l) => {
                assert_eq!(
                    w_delta.len(),
                    l.w.nrows() * l.w.ncols(),
                    "weight update length"
                );
                for (w, &d) in l.w.as_mut_slice().iter_mut().zip(w_delta) {
                    *w -= d;
                }
                assert_eq!(b_delta.len(), l.b.len(), "bias update length");
                for (b, &d) in l.b.iter_mut().zip(b_delta) {
                    *b -= d;
                }
            }
        }
    }

    /// Lengths of the parameter vectors as `(weights, biases)` — the shape
    /// optimizers size their state with.
    #[must_use]
    pub fn param_lens(&self) -> (usize, usize) {
        match self {
            Layer::Sparse(l) => (l.w.nnz(), l.b.len()),
            Layer::Dense(l) => (l.w.nrows() * l.w.ncols(), l.b.len()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::{init_sparse, Init};
    use radix_sparse::CyclicShift;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sparse_layer(act: Activation) -> Layer {
        let pattern: CsrMatrix<u64> = CyclicShift::radix_submatrix(6, 3, 1);
        let mut rng = StdRng::seed_from_u64(5);
        Layer::Sparse(SparseLinear::new(
            init_sparse(&pattern, Init::Xavier, &mut rng),
            act,
        ))
    }

    fn dense_layer(act: Activation) -> Layer {
        let mut rng = StdRng::seed_from_u64(5);
        Layer::Dense(DenseLinear::new(
            crate::init::init_dense(6, 6, Init::Xavier, &mut rng),
            act,
        ))
    }

    fn random_batch(rows: usize, cols: usize, seed: u64) -> DenseMatrix<f32> {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut x = DenseMatrix::zeros(rows, cols);
        for i in 0..rows {
            let row: &mut [f32] = x.row_mut(i);
            for v in row.iter_mut() {
                *v = rng.gen_range(-1.0..1.0);
            }
        }
        x
    }

    #[test]
    fn forward_shapes() {
        let l = sparse_layer(Activation::Relu);
        let x = random_batch(4, 6, 0);
        let y = l.forward(&x);
        assert_eq!(y.shape(), (4, 6));
    }

    #[test]
    fn sparse_forward_matches_dense_equivalent() {
        // A sparse layer must compute exactly what a dense layer with the
        // same (mostly-zero) weight matrix computes.
        let l = sparse_layer(Activation::Sigmoid);
        let Layer::Sparse(ref sl) = l else {
            unreachable!()
        };
        let dense_w = sl.weights().to_dense();
        let ld = Layer::Dense(DenseLinear::new(dense_w, Activation::Sigmoid));
        let x = random_batch(5, 6, 1);
        let ys = l.forward(&x);
        let yd = ld.forward(&x);
        for i in 0..5 {
            for j in 0..6 {
                assert!((ys.get(i, j) - yd.get(i, j)).abs() < 1e-6);
            }
        }
    }

    /// Finite-difference check of all gradients of a layer.
    fn check_gradients(layer: &Layer, tol: f32) {
        let x = random_batch(3, layer.n_in(), 2);
        let out = layer.forward(&x);
        // Loss = sum of outputs (grad_out = 1 everywhere) — simple and
        // exercises every path.
        let grad_out = DenseMatrix::from_vec(
            out.nrows(),
            out.ncols(),
            vec![1.0; out.nrows() * out.ncols()],
        )
        .unwrap();
        let (grads, grad_in) = layer.backward(&x, &out, &grad_out);

        let loss =
            |l: &Layer, xx: &DenseMatrix<f32>| -> f32 { l.forward(xx).as_slice().iter().sum() };
        let h = 1e-2f32;

        // Weight gradients.
        let (w_len, _) = layer.param_lens();
        for k in (0..w_len).step_by((w_len / 8).max(1)) {
            let mut lp = layer.clone();
            let mut lm = layer.clone();
            let mut dw = vec![0.0; w_len];
            dw[k] = -h; // apply_update subtracts
            lp.apply_update(&dw, &vec![0.0; layer.param_lens().1]);
            dw[k] = h;
            lm.apply_update(&dw, &vec![0.0; layer.param_lens().1]);
            let numeric = (loss(&lp, &x) - loss(&lm, &x)) / (2.0 * h);
            assert!(
                (numeric - grads.w[k]).abs() < tol,
                "weight {k}: numeric {numeric} vs analytic {}",
                grads.w[k]
            );
        }

        // Bias gradients.
        for k in 0..layer.param_lens().1 {
            let mut lp = layer.clone();
            let mut lm = layer.clone();
            let mut db = vec![0.0; layer.param_lens().1];
            db[k] = -h;
            lp.apply_update(&vec![0.0; w_len], &db);
            db[k] = h;
            lm.apply_update(&vec![0.0; w_len], &db);
            let numeric = (loss(&lp, &x) - loss(&lm, &x)) / (2.0 * h);
            assert!(
                (numeric - grads.b[k]).abs() < tol,
                "bias {k}: numeric {numeric} vs analytic {}",
                grads.b[k]
            );
        }

        // Input gradients.
        for (i, j) in [(0, 0), (1, 3), (2, 5)] {
            let mut xp = x.clone();
            xp.set(i, j, x.get(i, j) + h);
            let mut xm = x.clone();
            xm.set(i, j, x.get(i, j) - h);
            let numeric = (loss(layer, &xp) - loss(layer, &xm)) / (2.0 * h);
            assert!(
                (numeric - grad_in.get(i, j)).abs() < tol,
                "input ({i},{j}): numeric {numeric} vs analytic {}",
                grad_in.get(i, j)
            );
        }
    }

    #[test]
    fn sparse_gradients_match_finite_differences_sigmoid() {
        check_gradients(&sparse_layer(Activation::Sigmoid), 2e-2);
    }

    #[test]
    fn sparse_gradients_match_finite_differences_tanh() {
        check_gradients(&sparse_layer(Activation::Tanh), 2e-2);
    }

    #[test]
    fn sparse_gradients_match_finite_differences_identity() {
        check_gradients(&sparse_layer(Activation::Identity), 2e-2);
    }

    #[test]
    fn dense_gradients_match_finite_differences() {
        check_gradients(&dense_layer(Activation::Sigmoid), 2e-2);
        check_gradients(&dense_layer(Activation::Identity), 2e-2);
    }

    #[test]
    fn sparse_backward_matches_dense_backward() {
        // Same weights (sparse vs densified) → identical gradients on the
        // shared nonzero positions and identical input gradients.
        let l = sparse_layer(Activation::Tanh);
        let Layer::Sparse(ref sl) = l else {
            unreachable!()
        };
        let w_csr = sl.weights().clone();
        let ld = Layer::Dense(DenseLinear::new(w_csr.to_dense(), Activation::Tanh));

        let x = random_batch(4, 6, 3);
        let out_s = l.forward(&x);
        let out_d = ld.forward(&x);
        let grad_out = random_batch(4, 6, 4);
        let (gs, gin_s) = l.backward(&x, &out_s, &grad_out);
        let (gd, gin_d) = ld.backward(&x, &out_d, &grad_out);
        // The sparse gradient is in storage order; read it in CSR order.
        let gs_w = sl.prepared().to_csr_order(&gs.w);

        // Input grads equal.
        for i in 0..4 {
            for j in 0..6 {
                assert!((gin_s.get(i, j) - gin_d.get(i, j)).abs() < 1e-5);
            }
        }
        // Sparse weight grads equal the dense grads at stored positions.
        for (k, (i, j, _)) in w_csr.iter().enumerate() {
            let dense_grad = gd.w[i * 6 + j];
            assert!(
                (gs_w[k] - dense_grad).abs() < 1e-5,
                "entry ({i},{j}): {} vs {}",
                gs_w[k],
                dense_grad
            );
        }
        // Biases equal.
        for (a, b) in gs.b.iter().zip(&gd.b) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn apply_update_moves_parameters() {
        let mut l = sparse_layer(Activation::Identity);
        let (wl, bl) = l.param_lens();
        let before = match &l {
            Layer::Sparse(s) => s.weights().data().to_vec(),
            Layer::Dense(_) => unreachable!(),
        };
        l.apply_update(&vec![0.1; wl], &vec![0.2; bl]);
        match &l {
            Layer::Sparse(s) => {
                for (b, a) in before.iter().zip(s.weights().data()) {
                    assert!((b - a - 0.1).abs() < 1e-6);
                }
            }
            Layer::Dense(_) => unreachable!(),
        }
    }

    #[test]
    fn num_params_counts() {
        let l = sparse_layer(Activation::Relu);
        // 6 nodes × degree 3 + 6 biases.
        assert_eq!(l.num_params(), 18 + 6);
        let d = dense_layer(Activation::Relu);
        assert_eq!(d.num_params(), 36 + 6);
    }
}
