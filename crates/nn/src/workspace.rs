//! Reusable forward/backward buffers: size once per network, reuse across
//! batches and epochs.
//!
//! Every buffer here is resized with
//! [`DenseMatrix::resize_zeroed`], which reuses the
//! existing allocation whenever capacity suffices — so after the first
//! batch (the high-water mark) a training epoch or inference loop performs
//! no per-layer heap allocation. This is the network-level half of the
//! prepared-kernel engine in `radix_sparse::kernel`; the layer-level half
//! (ELL layouts, fused epilogues) lives there.

use radix_sparse::kernel::PingPong;
use radix_sparse::DenseMatrix;

use crate::layer::LayerGrads;
use crate::network::Network;

/// Ping-pong activation buffers for allocation-free forward passes.
///
/// [`Network::forward_with`] alternates the two buffers layer by layer:
/// layer `l` reads from one and writes into the other, so a network of any
/// depth needs exactly two buffers, each as large as the widest layer ×
/// batch. The alternation itself is `radix_sparse::kernel`'s [`PingPong`]
/// driver, shared with the Challenge inference workspace.
#[derive(Debug, Clone, Default)]
pub struct ForwardWorkspace {
    pub(crate) buffers: PingPong<f32>,
}

impl ForwardWorkspace {
    /// An empty workspace; buffers grow to their high-water mark on first
    /// use.
    #[must_use]
    pub fn new() -> Self {
        ForwardWorkspace {
            buffers: PingPong::new(),
        }
    }

    /// A workspace pre-sized for `net` at the given batch size, so even the
    /// first forward pass allocates nothing.
    #[must_use]
    pub fn for_network(net: &Network, batch: usize) -> Self {
        let widest = net
            .layers()
            .iter()
            .map(crate::layer::Layer::n_out)
            .max()
            .unwrap_or(0);
        ForwardWorkspace {
            buffers: PingPong::with_capacity(batch, widest),
        }
    }

    /// The output of the most recent [`Network::forward_with`] call.
    #[must_use]
    pub fn output(&self) -> &DenseMatrix<f32> {
        self.buffers.output()
    }

    /// Takes the most recent output out of the workspace (leaving an empty
    /// buffer that will regrow on next use).
    #[must_use]
    pub fn take_output(&mut self) -> DenseMatrix<f32> {
        self.buffers.take_output()
    }
}

/// Buffers for a full forward + backward pass, reused across mini-batches:
/// the per-layer activation trace, the backpropagated gradient ping-pong
/// pair, and the per-layer parameter gradients. With the loss gradient
/// written directly into `delta` by `Loss::eval_*_into` and the input
/// gradients running the tiled transposed kernels, a steady-state
/// training batch performs **no** heap allocation
/// (`crates/nn/tests/zero_alloc.rs` proves it with a counting global
/// allocator).
///
/// # Example: an allocation-free train step
///
/// ```
/// use radix_net::{MixedRadixSystem, MixedRadixTopology};
/// use radix_nn::{Activation, GradWorkspace, Init, Loss, Network, Targets};
/// use radix_sparse::DenseMatrix;
///
/// let fnnt = MixedRadixTopology::new(MixedRadixSystem::new([2, 2])?).into_fnnt();
/// let net = Network::from_fnnt(&fnnt, Activation::Tanh, Init::Xavier,
///                              Loss::SoftmaxCrossEntropy, 0);
/// let x = DenseMatrix::ones(8, net.n_in());
/// let labels = vec![0usize; 8];
/// // Pre-sized: even the first batch allocates nothing.
/// let mut ws = GradWorkspace::for_network(&net, 8);
/// // Forward trace + loss gradient (written straight into the workspace
/// // delta buffer) + tiled transposed backward, all through reused buffers.
/// let loss = net.grad_batch_with(&x, Targets::Labels(&labels), &mut ws);
/// assert!(loss.is_finite());
/// assert_eq!(ws.grads().len(), net.layers().len());
/// # Ok::<(), radix_net::RadixError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct GradWorkspace {
    /// `trace[i]` holds the (post-activation) output of layer `i`.
    pub(crate) trace: Vec<DenseMatrix<f32>>,
    /// Upstream gradient flowing into the current layer. Seeded in place
    /// by the loss epilogue (`Loss::eval_*_into`), then becomes the
    /// activation-scaled delta during each layer's backward.
    pub(crate) delta: DenseMatrix<f32>,
    /// Gradient w.r.t. the current layer's input, swapped with `delta`
    /// after each layer.
    pub(crate) grad_in: DenseMatrix<f32>,
    /// Per-layer parameter gradients, laid out like the layers' parameters.
    pub(crate) grads: Vec<LayerGrads>,
    /// Optimizer update scratch (weights), reused across
    /// `Network::apply_gradients_with` steps.
    pub(crate) w_update: Vec<f32>,
    /// Optimizer update scratch (biases).
    pub(crate) b_update: Vec<f32>,
    /// Per-parameter-segment squared-norm cells for the fused
    /// decay-and-norm reduction (`Network::par_grad_batch_fused_with`):
    /// each reduction task writes its segment's Σv² here, and a fixed-order
    /// tree over the cells yields a schedule-independent global norm.
    pub(crate) seg_sumsq: Vec<f32>,
}

impl GradWorkspace {
    /// An empty workspace; buffers grow to their high-water mark on first
    /// use.
    #[must_use]
    pub fn new() -> Self {
        GradWorkspace::default()
    }

    /// A workspace pre-sized for `net` at the given batch size, so even
    /// the **first** training batch allocates nothing: the activation
    /// trace, the delta/grad-in ping-pong pair (sized to the widest layer
    /// boundary, input included), and every per-layer gradient buffer are
    /// all at their high-water mark up front. The training loops use this
    /// with their configured batch size.
    #[must_use]
    pub fn for_network(net: &Network, batch: usize) -> Self {
        let mut ws = GradWorkspace::default();
        ws.ensure(net);
        let widest = net
            .layers()
            .iter()
            .map(crate::layer::Layer::n_out)
            .max()
            .unwrap_or(0)
            .max(net.n_in());
        for (t, layer) in ws.trace.iter_mut().zip(net.layers()) {
            t.resize_zeroed(batch, layer.n_out());
        }
        let mut w_max = 0usize;
        let mut b_max = 0usize;
        for (g, layer) in ws.grads.iter_mut().zip(net.layers()) {
            let (w_len, b_len) = layer.param_lens();
            g.resize_zeroed(w_len, b_len);
            w_max = w_max.max(w_len);
            b_max = b_max.max(b_len);
        }
        ws.delta.resize_zeroed(batch, widest);
        ws.grad_in.resize_zeroed(batch, widest);
        ws.w_update.reserve_exact(w_max);
        ws.b_update.reserve_exact(b_max);
        let segs: usize = net
            .layers()
            .iter()
            .map(|l| {
                let (w_len, b_len) = l.param_lens();
                w_len.div_ceil(crate::network::REDUCE_PARAM_CHUNK)
                    + b_len.div_ceil(crate::network::REDUCE_PARAM_CHUNK)
            })
            .sum();
        ws.seg_sumsq.reserve_exact(segs);
        ws
    }

    /// Ensures the per-layer vectors match `net`'s layer count.
    pub(crate) fn ensure(&mut self, net: &Network) {
        let n = net.layers().len();
        self.trace.resize_with(n, || DenseMatrix::zeros(0, 0));
        self.grads.resize_with(n, || LayerGrads::zeros(0, 0));
    }

    /// The parameter gradients of the most recent backward pass.
    #[must_use]
    pub fn grads(&self) -> &[LayerGrads] {
        &self.grads
    }

    /// Mutable access to the parameter gradients (for weight decay and
    /// gradient clipping between backward and the optimizer step).
    pub fn grads_mut(&mut self) -> &mut [LayerGrads] {
        &mut self.grads
    }
}

/// One data-parallel chunk's results: the per-layer gradients of that row
/// range, the chunk's mean loss, and its row count (the combine weight's
/// numerator). Stored **per chunk** — not per worker — so the reduction
/// can run in fixed chunk order no matter which worker computed what.
#[derive(Debug, Clone, Default)]
pub(crate) struct ChunkGrads {
    /// Per-layer parameter gradients of this chunk.
    pub(crate) grads: Vec<LayerGrads>,
    /// Mean loss over the chunk's rows.
    pub(crate) loss: f32,
    /// Rows in the chunk (`weight = rows / batch`).
    pub(crate) rows: usize,
}

/// Per-worker workspaces for pool-native data-parallel training
/// ([`Network::par_grad_batch_with`]), reused across batches and epochs.
///
/// Two kinds of state live here, sized once and reused forever:
///
/// * **per pool slot** — one [`GradWorkspace`] per participating thread
///   (`rayon::current_num_threads()` of them), holding the activation
///   trace and delta ping-pong buffers a worker needs while it evaluates
///   whichever chunks it claims;
/// * **per chunk** — one gradient buffer set per data-parallel chunk, so
///   each chunk's result survives until the fixed-order weighted tree
///   reduction combines them (per-*worker* accumulators would make the
///   sum order depend on the dynamic schedule and thread count; per-chunk
///   storage is what makes the path bitwise-reproducible for a given
///   chunk count, regardless of threads).
///
/// With both pools at their high-water mark, a multi-chunk gradient batch
/// performs **zero** heap allocations (`crates/nn/tests/zero_alloc.rs`).
#[derive(Debug, Clone, Default)]
pub struct GradWorkspacePool {
    /// One scratch workspace per pool slot (their `grads` fields stay
    /// empty — chunk gradients go to `chunks` instead).
    pub(crate) scratch: Vec<GradWorkspace>,
    /// One gradient slot per data-parallel chunk.
    pub(crate) chunks: Vec<ChunkGrads>,
}

impl GradWorkspacePool {
    /// An empty pool; buffers grow to their high-water mark on first use.
    #[must_use]
    pub fn new() -> Self {
        GradWorkspacePool::default()
    }

    /// A pool pre-sized for `net` so even the **first** multi-chunk
    /// gradient batch allocates nothing: one scratch workspace per pool
    /// slot (each sized for the largest chunk a `batch`-row mini-batch
    /// splits into) and one gradient buffer set per chunk.
    #[must_use]
    pub fn for_network(net: &Network, batch: usize, num_chunks: usize) -> Self {
        Self::with_slots(net, batch, num_chunks, rayon::current_num_threads())
    }

    /// [`GradWorkspacePool::for_network`] with an explicit worker-slot
    /// count. At most `slots` threads participate in the chunk dispatch
    /// (one forces serial execution) — results are **bitwise identical**
    /// for any slot count, which the determinism property suite pins by
    /// comparing slot counts 1, 2, and 4.
    #[must_use]
    pub fn with_slots(net: &Network, batch: usize, num_chunks: usize, slots: usize) -> Self {
        let chunks = num_chunks.clamp(1, batch.max(1));
        let chunk_rows = batch.div_ceil(chunks).max(1);
        let mut pool = GradWorkspacePool::default();
        pool.scratch
            .resize_with(slots.max(1), || GradWorkspace::for_network(net, chunk_rows));
        pool.ensure_chunks(net, chunks);
        pool
    }

    /// Ensures at least `n` chunk gradient slots exist, each laid out for
    /// `net`'s parameters (reusing allocations; only a first call at a
    /// larger chunk count allocates). The pool never shrinks: a ragged
    /// final mini-batch can momentarily need fewer chunks, and freeing
    /// the spares would make the next full batch reallocate them — heap
    /// churn every epoch instead of the documented zero-alloc steady
    /// state. Already-sized gradient buffers are left untouched (the
    /// backward pass zeroes them itself before accumulating).
    pub(crate) fn ensure_chunks(&mut self, net: &Network, n: usize) {
        if self.chunks.len() < n {
            self.chunks.resize_with(n, ChunkGrads::default);
        }
        let layers = net.layers();
        for chunk in &mut self.chunks[..n] {
            chunk
                .grads
                .resize_with(layers.len(), || LayerGrads::zeros(0, 0));
            for (g, layer) in chunk.grads.iter_mut().zip(layers) {
                let (w_len, b_len) = layer.param_lens();
                if g.w.len() != w_len || g.b.len() != b_len {
                    g.resize_zeroed(w_len, b_len);
                }
            }
        }
    }

    /// Number of worker slots (the dispatch's maximum parallelism).
    #[must_use]
    pub fn slots(&self) -> usize {
        self.scratch.len()
    }
}
