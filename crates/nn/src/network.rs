//! Feedforward networks over sparse or dense layers.
//!
//! A [`Network`] is the paper's FNN (Figure 8): an FNNT together with
//! weights and biases, inducing a function `φ : R^{|U_0|} → R^{|U_m|}`.
//! Networks are built from RadiX-Net/X-Net topologies
//! ([`Network::from_fnnt`]) or dense layer sizes ([`Network::dense`]), and
//! expose forward inference, backpropagation, and Rayon data-parallel
//! gradient computation.

use rand::rngs::StdRng;
use rand::SeedableRng;

use radix_net::Fnnt;
use radix_sparse::{AsDenseView, DenseMatrix, DenseView, Par};

use crate::activation::Activation;
use crate::init::{init_dense, init_sparse, Init};
use crate::layer::{DenseLinear, Layer, LayerGrads, SparseLinear};
use crate::loss::Loss;
use crate::workspace::{ForwardWorkspace, GradWorkspace, GradWorkspacePool};

/// Training targets: class labels or regression values.
///
/// Regression values are held as a zero-copy [`DenseView`] so a row range
/// of the targets can be sliced for each data-parallel chunk without
/// copying ([`Targets::slice`]); build one from an owned matrix with
/// [`Targets::values`] (or `Targets::Values(y.view())`).
#[derive(Debug, Clone, Copy)]
pub enum Targets<'a> {
    /// Class indices (softmax cross-entropy).
    Labels(&'a [usize]),
    /// Regression targets, same shape as the network output (MSE).
    Values(DenseView<'a, f32>),
}

impl<'a> Targets<'a> {
    /// Regression targets from an owned matrix (a zero-copy view of it).
    #[must_use]
    pub fn values(y: &'a DenseMatrix<f32>) -> Self {
        Targets::Values(y.view())
    }

    /// Number of target rows (must equal the batch size).
    #[must_use]
    pub fn len(&self) -> usize {
        match self {
            Targets::Labels(l) => l.len(),
            Targets::Values(v) => v.nrows(),
        }
    }

    /// Whether there are no targets.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The targets of batch rows `range`, zero-copy — how the
    /// data-parallel gradient path hands each chunk its slice of the
    /// batch targets.
    ///
    /// # Panics
    /// Panics if the range exceeds the target rows or is decreasing.
    #[must_use]
    pub fn slice(self, range: std::ops::Range<usize>) -> Targets<'a> {
        match self {
            Targets::Labels(l) => Targets::Labels(&l[range]),
            Targets::Values(v) => Targets::Values(v.rows_view(range)),
        }
    }
}

/// A feedforward neural network.
#[derive(Debug, Clone, PartialEq)]
pub struct Network {
    layers: Vec<Layer>,
    loss: Loss,
}

impl Network {
    /// Builds a network from explicit layers.
    ///
    /// # Panics
    /// Panics if consecutive layer widths do not chain or `layers` is empty.
    #[must_use]
    pub fn new(layers: Vec<Layer>, loss: Loss) -> Self {
        assert!(!layers.is_empty(), "network needs at least one layer");
        for pair in layers.windows(2) {
            assert_eq!(pair[0].n_out(), pair[1].n_in(), "layer widths must chain");
        }
        Network { layers, loss }
    }

    /// Builds a sparse network on an FNNT's topology: hidden layers get
    /// `hidden_act`, the final layer is linear (logits). Weights are
    /// initialized on the sparse pattern with structural fan-in.
    #[must_use]
    pub fn from_fnnt(
        fnnt: &Fnnt,
        hidden_act: Activation,
        init: Init,
        loss: Loss,
        seed: u64,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = fnnt.num_edge_layers();
        let layers = fnnt
            .submatrices()
            .iter()
            .enumerate()
            .map(|(i, pattern)| {
                let act = if i + 1 == n {
                    Activation::Identity
                } else {
                    hidden_act
                };
                let w = init_sparse(pattern, init, &mut rng);
                Layer::Sparse(SparseLinear::new(w, act))
            })
            .collect();
        Network { layers, loss }
    }

    /// Builds a dense baseline network on the given layer sizes.
    ///
    /// # Panics
    /// Panics if fewer than two sizes are given.
    #[must_use]
    pub fn dense(
        sizes: &[usize],
        hidden_act: Activation,
        init: Init,
        loss: Loss,
        seed: u64,
    ) -> Self {
        assert!(sizes.len() >= 2, "need at least input and output sizes");
        let mut rng = StdRng::seed_from_u64(seed);
        let n = sizes.len() - 1;
        let layers = sizes
            .windows(2)
            .enumerate()
            .map(|(i, w)| {
                let act = if i + 1 == n {
                    Activation::Identity
                } else {
                    hidden_act
                };
                Layer::Dense(DenseLinear::new(
                    init_dense(w[0], w[1], init, &mut rng),
                    act,
                ))
            })
            .collect();
        Network { layers, loss }
    }

    /// The layers.
    #[must_use]
    pub fn layers(&self) -> &[Layer] {
        &self.layers
    }

    /// The loss function.
    #[must_use]
    pub fn loss(&self) -> Loss {
        self.loss
    }

    /// Input width.
    #[must_use]
    pub fn n_in(&self) -> usize {
        self.layers[0].n_in()
    }

    /// Output width.
    #[must_use]
    pub fn n_out(&self) -> usize {
        self.layers.last().unwrap().n_out()
    }

    /// Total trainable parameters — the storage-cost metric the paper's
    /// sparsity argument is about.
    #[must_use]
    pub fn num_params(&self) -> usize {
        self.layers.iter().map(Layer::num_params).sum()
    }

    /// Forward pass returning the final output (logits).
    ///
    /// Allocates a transient workspace; repeated callers should hold a
    /// [`ForwardWorkspace`] and use [`Network::forward_with`] instead.
    #[must_use]
    pub fn forward(&self, x: &DenseMatrix<f32>) -> DenseMatrix<f32> {
        let mut ws = ForwardWorkspace::new();
        self.forward_with(x, &mut ws);
        ws.take_output()
    }

    /// Forward pass through ping-pong workspace buffers: layer `l` reads
    /// one buffer and writes the other, so the whole pass performs no heap
    /// allocation once the workspace has reached its high-water mark.
    /// Returns the final output, which lives inside the workspace.
    ///
    /// # Panics
    /// Panics if `x.ncols() != n_in()`.
    pub fn forward_with<'w>(
        &self,
        x: &DenseMatrix<f32>,
        ws: &'w mut ForwardWorkspace,
    ) -> &'w DenseMatrix<f32> {
        ws.buffers.run(x, self.layers.len(), |l, src, dst| {
            self.layers[l].forward_into(src, dst);
        })
    }

    /// Forward pass retaining every intermediate activation (input
    /// excluded; `result[i]` is the output of layer `i`).
    #[must_use]
    pub fn forward_trace(&self, x: &DenseMatrix<f32>) -> Vec<DenseMatrix<f32>> {
        let mut outs = Vec::new();
        self.forward_trace_into(x, &mut outs);
        outs
    }

    /// Forward pass writing every intermediate activation into reusable
    /// buffers: `trace[i]` becomes the output of layer `i`. The vector is
    /// resized to the layer count; existing buffers are reused in place.
    /// `x` may be an owned matrix or a zero-copy row-range view.
    ///
    /// # Panics
    /// Panics if `x.ncols() != n_in()`.
    pub fn forward_trace_into(&self, x: &impl AsDenseView<f32>, trace: &mut Vec<DenseMatrix<f32>>) {
        self.forward_trace_par(x.as_view(), trace, Par::Auto);
    }

    /// [`Network::forward_trace_into`] with the layers' serial-vs-pool
    /// choice made by the caller.
    fn forward_trace_par(
        &self,
        x: DenseView<'_, f32>,
        trace: &mut Vec<DenseMatrix<f32>>,
        par: Par,
    ) {
        let n = self.layers.len();
        trace.resize_with(n, || DenseMatrix::zeros(0, 0));
        for (i, layer) in self.layers.iter().enumerate() {
            let (head, tail) = trace.split_at_mut(i);
            if i == 0 {
                layer.forward_into_par(&x, &mut tail[0], par);
            } else {
                layer.forward_into_par(&head[i - 1], &mut tail[0], par);
            }
        }
    }

    /// Computes the mean loss and parameter gradients on one batch
    /// (serial).
    ///
    /// Allocates a transient workspace; the training loops hold a
    /// [`GradWorkspace`] and call [`Network::grad_batch_with`] so buffers
    /// persist across mini-batches.
    ///
    /// # Panics
    /// Panics on target/batch shape mismatches.
    #[must_use]
    pub fn grad_batch(&self, x: &DenseMatrix<f32>, targets: Targets<'_>) -> (f32, Vec<LayerGrads>) {
        let mut ws = GradWorkspace::new();
        let loss = self.grad_batch_with(x, targets, &mut ws);
        (loss, std::mem::take(&mut ws.grads))
    }

    /// Computes the mean loss and parameter gradients on one batch using
    /// workspace buffers: the activation trace, the backpropagated
    /// gradient ping-pong pair, and the per-layer gradients all live in
    /// `ws` and are reused across calls (gradients are readable afterwards
    /// via [`GradWorkspace::grads`]).
    ///
    /// # Panics
    /// Panics on target/batch shape mismatches.
    pub fn grad_batch_with(
        &self,
        x: &impl AsDenseView<f32>,
        targets: Targets<'_>,
        ws: &mut GradWorkspace,
    ) -> f32 {
        ws.ensure(self);
        let GradWorkspace {
            trace,
            delta,
            grad_in,
            grads,
            ..
        } = ws;
        self.grad_batch_core(
            x.as_view(),
            targets,
            Par::Auto,
            trace,
            delta,
            grad_in,
            grads,
        )
    }

    /// One full forward + backward over `x` through caller-provided
    /// buffers — the shared core of the serial ([`Network::grad_batch_with`])
    /// and pool-native data-parallel ([`Network::par_grad_batch_with`])
    /// paths. The data-parallel dispatch hands each worker its slot's
    /// trace/delta scratch plus the **chunk's own** gradient buffers, so a
    /// chunk's result survives until the fixed-order reduction, and runs
    /// the chunk's kernels with `par = Par::Serial`: the chunk already is
    /// a pool task, and the kernels are bitwise equal on every `Par`.
    #[allow(clippy::too_many_arguments)]
    fn grad_batch_core(
        &self,
        x: DenseView<'_, f32>,
        targets: Targets<'_>,
        par: Par,
        trace: &mut Vec<DenseMatrix<f32>>,
        delta: &mut DenseMatrix<f32>,
        grad_in: &mut DenseMatrix<f32>,
        grads: &mut [LayerGrads],
    ) -> f32 {
        assert_eq!(grads.len(), self.layers.len(), "gradient layer count");
        self.forward_trace_par(x, trace, par);
        let logits = trace.last().expect("at least one layer");
        // The loss gradient is written straight into the workspace delta
        // buffer — the last per-batch allocation the training loop used to
        // make.
        let loss = match targets {
            Targets::Labels(labels) => self.loss.eval_classification_into(logits, labels, delta),
            Targets::Values(values) => self.loss.eval_regression_into(logits, &values, delta),
        };
        for i in (0..self.layers.len()).rev() {
            if i == 0 {
                self.layers[0].backward_into_par(&x, &trace[0], delta, &mut grads[0], grad_in, par);
            } else {
                self.layers[i].backward_into_par(
                    &trace[i - 1],
                    &trace[i],
                    delta,
                    &mut grads[i],
                    grad_in,
                    par,
                );
            }
            // The gradient w.r.t. this layer's input is the next (earlier)
            // layer's upstream gradient; delta's buffer becomes scratch.
            std::mem::swap(delta, grad_in);
        }
        loss
    }

    /// Data-parallel gradient computation: splits the batch into
    /// `num_chunks` row ranges, evaluates each on the persistent worker
    /// pool, and combines the per-chunk mean gradients weighted by chunk
    /// size (`rows / batch` — so when chunks divide the batch evenly the
    /// weighting matches [`Network::grad_batch`]'s uniform mean exactly,
    /// and ragged splits still weight every row equally).
    ///
    /// Allocates a transient workspace pool per call; the training loops
    /// hold a [`GradWorkspacePool`] and call
    /// [`Network::par_grad_batch_with`] so every buffer persists across
    /// mini-batches.
    ///
    /// # Panics
    /// Panics on target/batch shape mismatches.
    #[must_use]
    pub fn par_grad_batch(
        &self,
        x: &impl AsDenseView<f32>,
        targets: Targets<'_>,
        num_chunks: usize,
    ) -> (f32, Vec<LayerGrads>) {
        let mut pool = GradWorkspacePool::for_network(self, x.as_view().nrows(), num_chunks);
        let mut ws = GradWorkspace::new();
        let loss = self.par_grad_batch_with(x, targets, num_chunks, &mut pool, &mut ws);
        (loss, std::mem::take(&mut ws.grads))
    }

    /// Pool-native data-parallel gradient computation through persistent
    /// per-worker workspaces — the allocation-free replacement for the old
    /// copy-per-chunk `into_par_iter` path.
    ///
    /// The batch splits into `num_chunks` row ranges. Each chunk is a
    /// **zero-copy view** of `x` ([`DenseMatrix::rows_view`]) and of the
    /// targets ([`Targets::slice`]); chunks are claimed dynamically by the
    /// persistent worker pool (`rayon::for_each_item_with`), each worker
    /// evaluating into its own slot's scratch workspace and the chunk's
    /// own gradient buffers. A **fixed-order weighted tree reduction**
    /// over the chunk index then combines the per-chunk gradients into
    /// `ws.grads` (readable via [`GradWorkspace::grads`]) — so for a given
    /// chunk count the result is **bitwise identical regardless of thread
    /// count or schedule**, and agrees with [`Network::grad_batch`] to
    /// floating-point tolerance (summation order differs).
    ///
    /// With `pool` and `ws` pre-sized ([`GradWorkspacePool::for_network`],
    /// [`GradWorkspace::for_network`]), a multi-chunk gradient batch
    /// performs **zero** heap allocations — `crates/nn/tests/zero_alloc.rs`
    /// proves it over a multi-epoch training run on a forced 4-thread
    /// pool. With `num_chunks <= 1` (or a single-row batch) this is
    /// exactly [`Network::grad_batch_with`].
    ///
    /// # Panics
    /// Panics on target/batch shape mismatches.
    pub fn par_grad_batch_with(
        &self,
        x: &impl AsDenseView<f32>,
        targets: Targets<'_>,
        num_chunks: usize,
        pool: &mut GradWorkspacePool,
        ws: &mut GradWorkspace,
    ) -> f32 {
        let x = x.as_view();
        let batch = x.nrows();
        let chunks = num_chunks.clamp(1, batch.max(1));
        if chunks <= 1 || batch <= 1 {
            return self.grad_batch_with(&x, targets, ws);
        }
        self.par_grad_batch_core(&x, targets, chunks, None, pool, ws)
    }

    /// Shared dispatch + reduction behind [`Network::par_grad_batch_with`]
    /// (`fuse = None`) and [`Network::par_grad_batch_fused_with`]
    /// (`fuse = Some(wd)`: folds `wd·w` into each weight segment after its
    /// reduction tree and records per-segment Σv² into `ws.seg_sumsq`).
    fn par_grad_batch_core(
        &self,
        x: &DenseView<'_, f32>,
        targets: Targets<'_>,
        chunks: usize,
        fuse: Option<f32>,
        pool: &mut GradWorkspacePool,
        ws: &mut GradWorkspace,
    ) -> f32 {
        let batch = x.nrows();
        assert_eq!(targets.len(), batch, "target/batch row mismatch");
        let chunk_size = batch.div_ceil(chunks);
        // Rounding can make the final range(s) empty; dispatch only real
        // ones so every chunk weight is positive.
        let n_chunks = batch.div_ceil(chunk_size);

        pool.ensure_chunks(self, n_chunks);
        if pool.scratch.is_empty() {
            pool.scratch
                .resize_with(rayon::current_num_threads().max(1), GradWorkspace::new);
        }
        let GradWorkspacePool { scratch, chunks } = pool;
        rayon::for_each_item_with(&mut chunks[..n_chunks], scratch, |cws, k, slot| {
            let range = k * chunk_size..(k * chunk_size + chunk_size).min(batch);
            slot.rows = range.len();
            cws.ensure(self);
            let GradWorkspace {
                trace,
                delta,
                grad_in,
                ..
            } = cws;
            // Zero-copy chunk inputs: row-range views of the shared batch.
            slot.loss = self.grad_batch_core(
                x.rows_view(range.clone()),
                targets.slice(range),
                Par::Serial,
                trace,
                delta,
                grad_in,
                &mut slot.grads,
            );
        });

        // Combine in fixed chunk order: a pairwise tree per output element,
        // parallel over parameter ranges (element trees are independent, so
        // the parameter chunking cannot change any element's sum order).
        ws.ensure(self);
        let done = &pool.chunks[..n_chunks];
        let inv_batch = 1.0 / batch as f32;
        match fuse {
            None => {
                for (l, layer) in self.layers.iter().enumerate() {
                    let (w_len, b_len) = layer.param_lens();
                    // Every element is assigned by the reduction's tree
                    // leaves, so skip the zero-fill sweep.
                    ws.grads[l].resize_for_overwrite(w_len, b_len);
                    reduce_weighted_into(&mut ws.grads[l].w, done, inv_batch, |c| &c.grads[l].w);
                    reduce_weighted_into(&mut ws.grads[l].b, done, inv_batch, |c| &c.grads[l].b);
                }
            }
            Some(wd) => {
                let total_segs: usize = self
                    .layers
                    .iter()
                    .map(|l| {
                        let (w_len, b_len) = l.param_lens();
                        w_len.div_ceil(REDUCE_PARAM_CHUNK) + b_len.div_ceil(REDUCE_PARAM_CHUNK)
                    })
                    .sum();
                let GradWorkspace {
                    grads, seg_sumsq, ..
                } = ws;
                seg_sumsq.clear();
                seg_sumsq.resize(total_segs, 0.0);
                let mut off = 0usize;
                for (l, layer) in self.layers.iter().enumerate() {
                    let (w_len, b_len) = layer.param_lens();
                    grads[l].resize_for_overwrite(w_len, b_len);
                    let w_segs = w_len.div_ceil(REDUCE_PARAM_CHUNK);
                    let b_segs = b_len.div_ceil(REDUCE_PARAM_CHUNK);
                    let decay = (wd > 0.0).then(|| {
                        let w: &[f32] = match layer {
                            Layer::Sparse(s) => s.prepared().values(),
                            Layer::Dense(d) => d.weights().as_slice(),
                        };
                        (w, wd)
                    });
                    reduce_weighted_fused_into(
                        &mut grads[l].w,
                        done,
                        inv_batch,
                        |c| &c.grads[l].w,
                        decay,
                        &mut seg_sumsq[off..off + w_segs],
                    );
                    off += w_segs;
                    reduce_weighted_fused_into(
                        &mut grads[l].b,
                        done,
                        inv_batch,
                        |c| &c.grads[l].b,
                        None,
                        &mut seg_sumsq[off..off + b_segs],
                    );
                    off += b_segs;
                }
            }
        }
        tree_sum(0, n_chunks, &|k| {
            done[k].rows as f32 * inv_batch * done[k].loss
        })
    }

    /// [`Network::par_grad_batch_with`] with L2 weight decay and the
    /// global gradient norm **folded into the tree-reduction sweep**:
    /// each parameter segment gets `wd·w` added and its Σv² recorded while
    /// it is still hot in cache, eliminating the separate
    /// [`Network::add_weight_decay`] pass and the norm pass of
    /// [`crate::train::clip_gradients`] — two fewer full sweeps over the
    /// parameters per step. Returns `(loss, grad_norm)` where `grad_norm`
    /// is the global L2 norm of the decayed gradients (the pre-clip norm);
    /// the caller decides whether to scale.
    ///
    /// The decayed gradients are **bitwise identical** to running
    /// [`Network::par_grad_batch_with`] followed by
    /// [`Network::add_weight_decay`]: the fold adds `wd·w` to each
    /// element after its reduction tree completes, exactly where the
    /// separate pass would. The norm is combined from fixed parameter
    /// segments by a fixed-order pairwise tree, so it too is bitwise
    /// reproducible across thread counts and steal schedules for a given
    /// chunk count (its segment-wise association differs from the
    /// separate-pass serial sum, so the two norms agree only to
    /// floating-point tolerance).
    ///
    /// Steady-state zero-alloc like the unfused path: the per-segment
    /// Σv² cells live in `ws` ([`GradWorkspace::for_network`] pre-sizes
    /// them).
    ///
    /// # Panics
    /// Panics on target/batch shape mismatches.
    pub fn par_grad_batch_fused_with(
        &self,
        x: &impl AsDenseView<f32>,
        targets: Targets<'_>,
        num_chunks: usize,
        wd: f32,
        pool: &mut GradWorkspacePool,
        ws: &mut GradWorkspace,
    ) -> (f32, f32) {
        let x = x.as_view();
        let batch = x.nrows();
        let chunks = num_chunks.clamp(1, batch.max(1));
        if chunks <= 1 || batch <= 1 {
            let loss = self.grad_batch_with(&x, targets, ws);
            if wd > 0.0 {
                self.add_weight_decay(&mut ws.grads, wd);
            }
            let norm = fixed_order_grad_norm(ws);
            return (loss, norm);
        }
        let loss = self.par_grad_batch_core(&x, targets, chunks, Some(wd), pool, ws);
        let norm = norm_from_segs(&ws.seg_sumsq);
        (loss, norm)
    }

    /// Adds L2 weight-decay terms `wd·w` to the weight gradients (biases
    /// untouched), in place.
    ///
    /// # Panics
    /// Panics if `grads` does not match the network's layer structure.
    pub fn add_weight_decay(&self, grads: &mut [LayerGrads], wd: f32) {
        assert_eq!(grads.len(), self.layers.len(), "gradient layer count");
        for (layer, g) in self.layers.iter().zip(grads) {
            match layer {
                Layer::Sparse(s) => {
                    let w = s.prepared().values();
                    assert_eq!(g.w.len(), w.len(), "weight grad length");
                    for (gw, &w) in g.w.iter_mut().zip(w) {
                        *gw += wd * w;
                    }
                }
                Layer::Dense(d) => {
                    for (gw, &w) in g.w.iter_mut().zip(d.weights().as_slice()) {
                        *gw += wd * w;
                    }
                }
            }
        }
    }

    /// Applies one optimizer step given computed gradients.
    ///
    /// Allocates transient update vectors; the training loops call
    /// [`Network::apply_gradients_with`], which routes the updates through
    /// the workspace's reused scratch buffers instead.
    pub fn apply_gradients(&mut self, grads: &[LayerGrads], opt: &mut crate::Optimizer) {
        opt.begin_step();
        for (i, (layer, g)) in self.layers.iter_mut().zip(grads).enumerate() {
            let w_delta = opt.compute_update(2 * i, &g.w);
            let b_delta = opt.compute_update(2 * i + 1, &g.b);
            layer.apply_update(&w_delta, &b_delta);
        }
    }

    /// Applies one optimizer step to the gradients held in `ws`
    /// (`ws.grads()`), computing each layer's update into the workspace's
    /// reused scratch buffers — so a steady-state optimizer step performs
    /// no heap allocation (first-touch optimizer state is a warm-up cost).
    ///
    /// # Panics
    /// Panics if `ws` does not hold gradients matching the layer structure.
    pub fn apply_gradients_with(&mut self, ws: &mut GradWorkspace, opt: &mut crate::Optimizer) {
        let GradWorkspace {
            grads,
            w_update,
            b_update,
            ..
        } = ws;
        assert_eq!(grads.len(), self.layers.len(), "gradient layer count");
        opt.begin_step();
        for (i, (layer, g)) in self.layers.iter_mut().zip(grads.iter()).enumerate() {
            opt.compute_update_into(2 * i, &g.w, w_update);
            opt.compute_update_into(2 * i + 1, &g.b, b_update);
            layer.apply_update(w_update, b_update);
        }
    }

    /// Density of the network's weight structure relative to a dense net of
    /// the same layer sizes (1.0 for dense layers).
    #[must_use]
    pub fn density(&self) -> f64 {
        let mut nnz = 0usize;
        let mut full = 0usize;
        for layer in &self.layers {
            full += layer.n_in() * layer.n_out();
            nnz += match layer {
                Layer::Sparse(s) => s.prepared().nnz(),
                Layer::Dense(_) => layer.n_in() * layer.n_out(),
            };
        }
        nnz as f64 / full as f64
    }
}

/// Fixed-shape pairwise tree sum over leaves `[lo, hi)`: split at the
/// midpoint, add left and right. The shape depends only on the leaf count,
/// never on thread count or schedule — this is what makes the
/// data-parallel gradient reduction bitwise-reproducible for a given chunk
/// count.
fn tree_sum<F: Fn(usize) -> f32>(lo: usize, hi: usize, leaf: &F) -> f32 {
    debug_assert!(lo < hi, "tree_sum needs at least one leaf");
    if hi - lo == 1 {
        leaf(lo)
    } else {
        let mid = lo + (hi - lo) / 2;
        tree_sum(lo, mid, leaf) + tree_sum(mid, hi, leaf)
    }
}

/// Parameters per reduction dispatch task (and per stack scratch buffer):
/// coarse enough to amortize the chunk claim and keep the inner loops
/// vectorizable, fine enough to load-balance wide layers across the pool
/// and keep the recursion's stack scratch small (2 KiB per tree level).
pub(crate) const REDUCE_PARAM_CHUNK: usize = 512;

/// One parameter segment of the fixed-shape tree: evaluates
/// `seg[j] = Σ_{k ∈ [lo, hi)} (rows_k / batch) · get(chunk_k)[base + j]`
/// with the sum associated exactly like [`tree_sum`] — leaves scale into
/// `seg`, internal nodes evaluate their right subtree into a stack scratch
/// and add it element-wise, so every pass is a straight-line vectorizable
/// loop and no heap is touched.
fn tree_reduce_seg<'a>(
    chunks: &'a [crate::workspace::ChunkGrads],
    lo: usize,
    hi: usize,
    base: usize,
    seg: &mut [f32],
    inv_batch: f32,
    get: &(impl Fn(&'a crate::workspace::ChunkGrads) -> &'a [f32] + Sync),
) {
    if hi - lo == 1 {
        let c = &chunks[lo];
        let weight = c.rows as f32 * inv_batch;
        let src = &get(c)[base..base + seg.len()];
        for (o, &s) in seg.iter_mut().zip(src) {
            *o = weight * s;
        }
    } else if hi - lo == 2 {
        // A two-leaf node in one fused pass (same association:
        // `w·gₗ + w·gᵣ` per element), halving the sweep count for the
        // common power-of-two chunk configurations.
        let (cl, cr) = (&chunks[lo], &chunks[lo + 1]);
        let (wl, wr) = (cl.rows as f32 * inv_batch, cr.rows as f32 * inv_batch);
        let sl = &get(cl)[base..base + seg.len()];
        let sr = &get(cr)[base..base + seg.len()];
        for ((o, &l), &r) in seg.iter_mut().zip(sl).zip(sr) {
            *o = wl * l + wr * r;
        }
    } else {
        let mid = lo + (hi - lo) / 2;
        tree_reduce_seg(chunks, lo, mid, base, seg, inv_batch, get);
        let mut right = [0.0f32; REDUCE_PARAM_CHUNK];
        let right = &mut right[..seg.len()];
        tree_reduce_seg(chunks, mid, hi, base, right, inv_batch, get);
        for (o, &r) in seg.iter_mut().zip(right.iter()) {
            *o += r;
        }
    }
}

/// Writes `out[p] = Σ_k (rows_k / batch) · get(chunk_k)[p]` with the sum
/// evaluated as [`tree_sum`]'s fixed pairwise tree over the chunk index —
/// parallel over parameter ranges on the worker pool (allocation-free:
/// each element's tree is independent, so the range chunking cannot change
/// any element's summation order, and no task list is materialized).
fn reduce_weighted_into<'a>(
    out: &mut [f32],
    chunks: &'a [crate::workspace::ChunkGrads],
    inv_batch: f32,
    get: impl Fn(&'a crate::workspace::ChunkGrads) -> &'a [f32] + Sync,
) {
    if out.is_empty() {
        return;
    }
    let n = chunks.len();
    rayon::for_each_chunk_mut(out, REDUCE_PARAM_CHUNK, |ci, seg| {
        tree_reduce_seg(chunks, 0, n, ci * REDUCE_PARAM_CHUNK, seg, inv_batch, &get);
    });
}

/// [`reduce_weighted_into`] with the fused epilogue of
/// [`Network::par_grad_batch_fused_with`]: after a segment's reduction
/// tree completes (while it is hot in cache), optionally adds `wd·w` from
/// the matching weight segment, then records the segment's Σv² into its
/// own cell of `sumsq` — one cell per segment, so no accumulator is
/// shared across threads and the caller's fixed-order combine over the
/// cells is schedule-independent.
fn reduce_weighted_fused_into<'a>(
    out: &mut [f32],
    chunks: &'a [crate::workspace::ChunkGrads],
    inv_batch: f32,
    get: impl Fn(&'a crate::workspace::ChunkGrads) -> &'a [f32] + Sync,
    decay: Option<(&[f32], f32)>,
    sumsq: &mut [f32],
) {
    if out.is_empty() {
        return;
    }
    let n = chunks.len();
    rayon::for_each_chunk_mut_paired(out, REDUCE_PARAM_CHUNK, sumsq, |ci, seg, ss| {
        let base = ci * REDUCE_PARAM_CHUNK;
        tree_reduce_seg(chunks, 0, n, base, seg, inv_batch, &get);
        if let Some((w, wd)) = decay {
            let slen = seg.len();
            for (o, &wv) in seg.iter_mut().zip(&w[base..base + slen]) {
                *o += wd * wv;
            }
        }
        *ss = seg.iter().fold(0.0f32, |acc, &v| acc + v * v);
    });
}

/// Global L2 norm from per-segment Σv² cells, combined by the fixed
/// pairwise tree over the segment index — bitwise-reproducible across
/// thread counts and steal schedules for a given segment layout.
fn norm_from_segs(segs: &[f32]) -> f32 {
    if segs.is_empty() {
        return 0.0;
    }
    tree_sum(0, segs.len(), &|s| segs[s]).max(0.0).sqrt()
}

/// Serial-fallback norm with the **same segment layout and combine order**
/// as the fused parallel path: per-layer weight segments then bias
/// segments, each summed left-to-right, combined by the fixed tree. Keeps
/// `par_grad_batch_fused_with` deterministic regardless of which path ran.
fn fixed_order_grad_norm(ws: &mut GradWorkspace) -> f32 {
    let GradWorkspace {
        grads, seg_sumsq, ..
    } = ws;
    seg_sumsq.clear();
    for g in grads.iter() {
        for seg in g.w.chunks(REDUCE_PARAM_CHUNK) {
            seg_sumsq.push(seg.iter().fold(0.0f32, |acc, &v| acc + v * v));
        }
        for seg in g.b.chunks(REDUCE_PARAM_CHUNK) {
            seg_sumsq.push(seg.iter().fold(0.0f32, |acc, &v| acc + v * v));
        }
    }
    norm_from_segs(seg_sumsq)
}

/// Convenience: a sparse network and its dense twin with identical layer
/// sizes, loss, and init scheme — the matched pair every training
/// comparison uses.
#[must_use]
pub fn matched_dense_twin(sparse: &Network, seed: u64) -> Network {
    let mut sizes = Vec::with_capacity(sparse.layers().len() + 1);
    sizes.push(sparse.n_in());
    for l in sparse.layers() {
        sizes.push(l.n_out());
    }
    let hidden_act = sparse.layers()[0].activation();
    Network::dense(&sizes, hidden_act, Init::Xavier, sparse.loss(), seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use radix_net::{MixedRadixSystem, MixedRadixTopology};

    fn radix_fnnt() -> Fnnt {
        MixedRadixTopology::new(MixedRadixSystem::new([2, 2, 2]).unwrap()).into_fnnt()
    }

    fn batch(rows: usize, cols: usize, seed: u64) -> DenseMatrix<f32> {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut x = DenseMatrix::zeros(rows, cols);
        for i in 0..rows {
            let r: &mut [f32] = x.row_mut(i);
            for v in r.iter_mut() {
                *v = rng.gen_range(-1.0..1.0);
            }
        }
        x
    }

    #[test]
    fn from_fnnt_shapes() {
        let net = Network::from_fnnt(
            &radix_fnnt(),
            Activation::Relu,
            Init::He,
            Loss::SoftmaxCrossEntropy,
            0,
        );
        assert_eq!(net.n_in(), 8);
        assert_eq!(net.n_out(), 8);
        assert_eq!(net.layers().len(), 3);
        // 3 layers × 16 edges + 3 × 8 biases.
        assert_eq!(net.num_params(), 48 + 24);
        // Last layer must be linear.
        assert_eq!(net.layers()[2].activation(), Activation::Identity);
    }

    #[test]
    fn density_reflects_topology() {
        let sparse = Network::from_fnnt(
            &radix_fnnt(),
            Activation::Relu,
            Init::He,
            Loss::SoftmaxCrossEntropy,
            0,
        );
        assert!((sparse.density() - 0.25).abs() < 1e-9); // degree 2 of 8
        let dense = matched_dense_twin(&sparse, 1);
        assert_eq!(dense.density(), 1.0);
        assert_eq!(dense.n_in(), sparse.n_in());
        assert!(dense.num_params() > sparse.num_params());
    }

    #[test]
    fn forward_trace_consistent_with_forward() {
        let net = Network::from_fnnt(
            &radix_fnnt(),
            Activation::Sigmoid,
            Init::Xavier,
            Loss::Mse,
            3,
        );
        let x = batch(4, 8, 0);
        let trace = net.forward_trace(&x);
        assert_eq!(trace.len(), 3);
        assert_eq!(trace.last().unwrap(), &net.forward(&x));
    }

    #[test]
    fn par_grad_matches_serial() {
        let net = Network::from_fnnt(
            &radix_fnnt(),
            Activation::Tanh,
            Init::Xavier,
            Loss::SoftmaxCrossEntropy,
            5,
        );
        let x = batch(16, 8, 1);
        let labels: Vec<usize> = (0..16).map(|i| i % 8).collect();
        let (l1, g1) = net.grad_batch(&x, Targets::Labels(&labels));
        let (l4, g4) = net.par_grad_batch(&x, Targets::Labels(&labels), 4);
        assert!((l1 - l4).abs() < 1e-5, "{l1} vs {l4}");
        for (a, b) in g1.iter().zip(&g4) {
            for (x, y) in a.w.iter().zip(&b.w) {
                assert!((x - y).abs() < 1e-5);
            }
            for (x, y) in a.b.iter().zip(&b.b) {
                assert!((x - y).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn par_grad_regression_matches_serial() {
        let net = Network::dense(&[4, 6, 2], Activation::Tanh, Init::Xavier, Loss::Mse, 2);
        let x = batch(10, 4, 2);
        let y = batch(10, 2, 3);
        let (l1, g1) = net.grad_batch(&x, Targets::values(&y));
        let (l3, g3) = net.par_grad_batch(&x, Targets::values(&y), 3);
        assert!((l1 - l3).abs() < 1e-5);
        for (a, b) in g1.iter().zip(&g3) {
            for (x, y) in a.w.iter().zip(&b.w) {
                assert!((x - y).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn chunk_weighting_matches_serial_for_even_and_ragged_splits() {
        // Regression test for the documented combine semantics: chunk
        // gradients and losses are weighted by `rows / batch`, so an even
        // split (every chunk the same size) reproduces grad_batch's
        // uniform mean up to float tolerance, and a ragged split (last
        // chunk shorter) still weights every *row* equally — the clamp on
        // num_chunks must never skew the weighting.
        let net = Network::from_fnnt(
            &radix_fnnt(),
            Activation::Sigmoid,
            Init::Xavier,
            Loss::SoftmaxCrossEntropy,
            9,
        );
        // batch 16: chunks ∈ {2, 4, 16} split evenly; chunks=3 is ragged
        // (ceil(16/3)=6 → 6,6,4), as are 5 and 7; 64 clamps to one row per
        // chunk. The weighting must hold across all of them.
        let x = batch(16, 8, 6);
        let labels: Vec<usize> = (0..16).map(|i| (i * 5) % 8).collect();
        let (serial_loss, serial_grads) = net.grad_batch(&x, Targets::Labels(&labels));
        for chunks in [2usize, 3, 4, 5, 7, 16, 64] {
            let (loss, grads) = net.par_grad_batch(&x, Targets::Labels(&labels), chunks);
            assert!(
                (loss - serial_loss).abs() < 1e-5,
                "chunks={chunks}: weighted loss {loss} vs serial {serial_loss}"
            );
            for (a, b) in serial_grads.iter().zip(&grads) {
                for (p, q) in a.w.iter().zip(&b.w) {
                    assert!((p - q).abs() < 1e-5, "chunks={chunks}");
                }
                for (p, q) in a.b.iter().zip(&b.b) {
                    assert!((p - q).abs() < 1e-5, "chunks={chunks}");
                }
            }
        }
    }

    #[test]
    fn targets_slice_is_zero_copy_and_consistent() {
        let y = batch(6, 3, 11);
        let t = Targets::values(&y);
        assert_eq!(t.len(), 6);
        assert!(!t.is_empty());
        let s = t.slice(2..5);
        assert_eq!(s.len(), 3);
        let Targets::Values(v) = s else {
            unreachable!()
        };
        assert_eq!(v.row(0), y.row(2));
        assert_eq!(v.as_slice().as_ptr(), y.row(2).as_ptr(), "must not copy");
        let labels = [1usize, 2, 3, 4];
        let ls = Targets::Labels(&labels).slice(1..3);
        let Targets::Labels(l) = ls else {
            unreachable!()
        };
        assert_eq!(l, &[2, 3]);
    }

    #[test]
    fn gradient_step_reduces_loss() {
        let mut net = Network::from_fnnt(
            &radix_fnnt(),
            Activation::Sigmoid,
            Init::Xavier,
            Loss::SoftmaxCrossEntropy,
            7,
        );
        let x = batch(32, 8, 4);
        let labels: Vec<usize> = (0..32).map(|i| (i * 3) % 8).collect();
        let (loss0, grads) = net.grad_batch(&x, Targets::Labels(&labels));
        let mut opt = crate::Optimizer::sgd(0.5);
        net.apply_gradients(&grads, &mut opt);
        let (loss1, _) = net.grad_batch(&x, Targets::Labels(&labels));
        assert!(
            loss1 < loss0,
            "one SGD step must descend: {loss0} → {loss1}"
        );
    }

    #[test]
    #[should_panic(expected = "layer widths must chain")]
    fn mismatched_layers_panic() {
        let a = Layer::Dense(DenseLinear::new(DenseMatrix::zeros(3, 4), Activation::Relu));
        let b = Layer::Dense(DenseLinear::new(DenseMatrix::zeros(5, 2), Activation::Relu));
        let _ = Network::new(vec![a, b], Loss::Mse);
    }

    #[test]
    fn sparse_and_dense_twin_agree_when_sparse_pattern_is_full() {
        // A "sparse" layer whose pattern is fully dense must behave like a
        // dense layer with the same weights.
        let full = Fnnt::dense(&[4, 4, 4]);
        let net = Network::from_fnnt(&full, Activation::Tanh, Init::Xavier, Loss::Mse, 11);
        assert_eq!(net.density(), 1.0);
        let x = batch(3, 4, 9);
        let out = net.forward(&x);
        assert_eq!(out.shape(), (3, 4));
    }
}
