//! Batch-synchronous sparse DNN inference — the Graph Challenge kernel.
//!
//! The Challenge kernel is, per layer, `Y ← clamp(ReLU(Y·W + b), 0, YMAX)`
//! with `Y` the batch-major dense activations and `W` a sparse layer. The
//! reported metric is the edge-processing rate: `batch · Σ nnz(W_l)`
//! divided by wall time ("input-edges per second").
//!
//! The layers are held as [`PreparedWeights`]: every Challenge layer is a
//! square RadiX-Net layer, a sum of cyclic shifts, so it is stored as its
//! value diagonals and every product runs as index-free shift-adds over
//! them, with the bias + ReLU + `YMAX` clamp fused into the kernel as an
//! [`Epilogue`]. Every row block gathers, however sparse its post-ReLU
//! activations.
//!
//! The forward pass runs **one layer at a time**: each layer is one
//! [`PreparedWeights::spmm`] over the whole (live) batch, its output
//! ping-ponging between the two [`InferWorkspace`] buffers. Tile width,
//! block rows and the pool threshold are the network's [`KernelPlan`]:
//! the process-wide one ([`KernelPlan::process`] — `RADIX_*`
//! environment > default) unless
//! [`ChallengeNetwork::from_layers_with_plan`] is given another.
//!
//! The forward pass also keeps a **live-row set**. Paper eq. (2) gives
//! every column of a RadiX layer exactly `r` sources, and a Challenge
//! layer gives them all one weight `w`, so a row whose elements all hold
//! one value `c` maps to a row whose elements all hold `epi(Σ_r c·w)`:
//! one scalar per layer. Rows reach such a **constant** fast — a dying
//! row all zero within a layer or two, a saturating one all `YMAX` a few
//! layers later — and then only that scalar is left to compute.
//!
//! After each layer but the last, a row leaves the batch when
//! every element has the bits of one finite `c` (an all-`±0` row counts
//! as `+0`) and `c` can be folded through every remaining layer by the
//! kernels' own operations: through a layer whose values are all finite,
//! a zero `c` gives `epi(+0)` (the gather starts each sum at `+0` and
//! adds `±0` terms; the scatter skips zero activations and keeps its
//! `+0` fill); through a layer stored as `r` value diagonals whose values
//! all have the bits of one finite `w`, any `c` gives
//! `epi(+0 + c·w + … + c·w)` with `r` terms. Any other layer may not keep
//! the row constant, so the row stays. The live rows move, in ascending
//! order, to the front of the layer output, and the next layer runs on
//! them alone. After the last layer each departed row is written back as
//! its folded value, so every output bit equals the uncompacted
//! schedule's. A NaN or ±∞ element is never a finite constant, so its row
//! always stays. What a layer offers the fold (all values finite; one
//! uniform `(w, r)`) is read off its stored values once, at construction.
//!
//! After the workspace warm-up the timed region performs **zero heap
//! allocation**, for the serial *and* the pool-parallel schedule
//! (`tests/zero_alloc.rs` pins both down with a counting allocator).

use std::time::Instant;

use radix_sparse::kernel::PingPong;
use radix_sparse::{
    Bias, CsrMatrix, CyclicShift, DenseMatrix, Epilogue, KernelPlan, Par, PreparedWeights, Scalar,
};

use crate::config::ChallengeConfig;

/// Layers per step of the forward pass: always 1. Kept only for the
/// benchmark's header line, which prints it, until that line drops the
/// call (ROADMAP item 3).
#[must_use]
pub fn fuse_layers() -> usize {
    1
}

/// A Challenge network instance: prepared sparse weight layers plus the
/// scalar bias/clamp parameters applied uniformly (as in the official
/// benchmark).
#[derive(Debug, Clone, PartialEq)]
pub struct ChallengeNetwork {
    layers: Vec<PreparedWeights<f32>>,
    bias: f32,
    ymax: f32,
    /// The plan every layer was prepared under; each layer's product
    /// reads its `block_rows` and `par_threshold`.
    plan: KernelPlan,
    /// What each layer offers the constant-row fold (see the module
    /// docs), one per layer.
    facts: Vec<LayerFacts>,
}

/// What one layer does to a row whose elements all hold one value, read
/// off its stored values — not off the kernel's broadcast record, which
/// `values_mut` clears, so equal networks drop the same rows.
#[derive(Debug, Clone, Copy, PartialEq)]
struct LayerFacts {
    /// Every stored value is finite, so a zero row's products are `±0`.
    finite: bool,
    /// `Some((w, r))` when the layer is stored as `r` value diagonals
    /// and every value has the bits of the finite `w`: each output column
    /// adds `r` products `c·w` of a constant row.
    uniform: Option<(f32, usize)>,
}

impl LayerFacts {
    fn of(w: &PreparedWeights<f32>) -> Self {
        let values = w.values();
        let uniform = match (w.cyclic(), values.first()) {
            (Some((r, _)), Some(&v)) if v.is_finite() && same_bits(values, v, u32::MAX) => {
                Some((v, r))
            }
            _ => None,
        };
        LayerFacts {
            finite: uniform.is_some() || values.iter().all(|v| v.is_finite()),
            uniform,
        }
    }
}

/// Ping-pong activation buffers for allocation-free Challenge inference.
/// Size once (or let the first pass grow them to the high-water mark),
/// then every subsequent forward pass is allocation-free. The buffer
/// alternation is `radix_sparse::kernel`'s [`PingPong`] driver, shared
/// with the `radix-nn` forward workspace; `live` holds the batch index of
/// each row still computed, `settled[b]` the output value of batch row `b`
/// once it has left, and `row_layers` the rows every layer has computed.
#[derive(Debug, Clone, Default)]
pub struct InferWorkspace {
    buffers: PingPong<f32>,
    live: Vec<usize>,
    settled: Vec<f32>,
    row_layers: usize,
}

impl InferWorkspace {
    /// An empty workspace; buffers grow on first use.
    #[must_use]
    pub fn new() -> Self {
        InferWorkspace::default()
    }

    /// A workspace pre-sized for `net` at the given batch size, so even
    /// the first forward pass allocates nothing (serial or parallel).
    #[must_use]
    pub fn for_network(net: &ChallengeNetwork, batch: usize) -> Self {
        let widest = net
            .layers
            .iter()
            .map(PreparedWeights::ncols)
            .max()
            .unwrap_or(0);
        InferWorkspace {
            buffers: PingPong::with_capacity(batch, widest),
            live: Vec::with_capacity(batch),
            settled: Vec::with_capacity(batch),
            row_layers: 0,
        }
    }

    /// How many rows of the most recent forward pass entered its last
    /// layer: the batch minus the rows that left as constant rows after
    /// an earlier layer. The output is the same either way, so this
    /// count is the only trace of the compaction.
    #[must_use]
    pub fn live_rows(&self) -> usize {
        self.live.len()
    }

    /// Rows computed, summed over every layer of every forward pass
    /// through this workspace: each layer adds the rows it took as input,
    /// so a pass adds its batch times the depth less the layers its
    /// constant rows skipped.
    #[must_use]
    pub fn row_layers(&self) -> usize {
        self.row_layers
    }

    /// The output of the most recent forward pass.
    #[must_use]
    pub fn output(&self) -> &DenseMatrix<f32> {
        self.buffers.output()
    }

    /// Takes the most recent output out of the workspace (leaving an
    /// empty buffer that will regrow on next use).
    #[must_use]
    pub fn take_output(&mut self) -> DenseMatrix<f32> {
        self.buffers.take_output()
    }
}

/// Result of one timed inference run.
#[derive(Debug, Clone, PartialEq)]
pub struct InferenceStats {
    /// Wall-clock seconds for the full forward pass.
    pub seconds: f64,
    /// Total input edges processed (`batch · Σ nnz(W_l)`), the Challenge
    /// count: every row is charged every layer, including the layers a
    /// constant row skipped.
    pub edges_processed: u64,
    /// Edge-processing rate (edges / second), the Challenge metric.
    pub rate: f64,
    /// Number of nonzero activations in the final layer output.
    pub final_active: usize,
}

impl ChallengeNetwork {
    /// Builds the network from a configuration, every edge weighted
    /// `config.weight`, under the process-wide plan.
    ///
    /// The spec is validated as [`ChallengeConfig::spec`] does, and then
    /// not built: paper eq. (2) makes the layer of radix `r` and place
    /// value `ν` on `N'` nodes `Σ_{t<r} P^(t·ν)`, so each layer's diagonal
    /// storage is filled straight from `(N', r, ν)` and the weight
    /// ([`PreparedWeights::from_diagonals`]) — no topology, no CSR, no
    /// structure detection. The result equals
    /// [`ChallengeNetwork::from_layers`] over the built spec's layers
    /// mapped to the weight, storage and value bits included. A weight of
    /// zero (the mapped layer stores no entries) or a non-finite one (kept
    /// in CSR) takes that CSR route, one layer at a time.
    ///
    /// # Errors
    /// Propagates the spec's validation errors.
    pub fn from_config(config: &ChallengeConfig) -> Result<Self, radix_net::RadixError> {
        let spec = config.spec()?;
        let (n, weight, plan) = (spec.n_prime(), config.weight, KernelPlan::process());
        let layers = spec
            .systems()
            .iter()
            .flat_map(|s| s.radices().iter().zip(s.place_values()))
            .map(move |(&radix, &stride)| {
                if weight != 0.0 && weight.is_finite() {
                    let values = vec![weight; radix * n];
                    PreparedWeights::from_diagonals(n, radix, stride, values, plan)
                        .expect("a valid spec's layers have r ≥ 2 and r·ν ≤ N'")
                } else {
                    let csr = CyclicShift::radix_submatrix::<f32>(n, radix, stride);
                    PreparedWeights::with_plan(csr.map(|_| weight), plan)
                }
            });
        Ok(Self::prepare(layers, config.bias, config.ymax, plan))
    }

    /// Builds directly from explicit weight layers (for tests and for
    /// non-RadiX-Net comparisons), under the process-wide plan.
    ///
    /// # Panics
    /// Panics if layers are empty or do not chain.
    #[must_use]
    pub fn from_layers(layers: Vec<CsrMatrix<f32>>, bias: f32, ymax: f32) -> Self {
        Self::from_layers_with_plan(layers, bias, ymax, KernelPlan::process())
    }

    /// [`ChallengeNetwork::from_layers`] under an explicit plan: every
    /// layer is prepared (and, when wider than `plan.tile_cols`, tiled)
    /// under it, and each layer's product runs in `plan.block_rows`-row
    /// blocks.
    ///
    /// # Panics
    /// Panics if layers are empty or do not chain, or if the plan's
    /// `tile_cols` or `block_rows` is zero.
    #[must_use]
    pub fn from_layers_with_plan(
        layers: Vec<CsrMatrix<f32>>,
        bias: f32,
        ymax: f32,
        plan: KernelPlan,
    ) -> Self {
        let layers = layers
            .into_iter()
            .map(|w| PreparedWeights::with_plan(w, plan));
        Self::prepare(layers, bias, ymax, plan)
    }

    /// Builds from layers already prepared — a trained `radix_nn`
    /// network's, say — keeping their storage: a diagonal-stored layer is
    /// taken over as is. A layer prepared under another plan is prepared
    /// again under `plan` from its CSR.
    ///
    /// # Panics
    /// As [`ChallengeNetwork::from_layers_with_plan`].
    #[must_use]
    pub fn from_prepared(
        layers: Vec<PreparedWeights<f32>>,
        bias: f32,
        ymax: f32,
        plan: KernelPlan,
    ) -> Self {
        let layers = layers.into_iter().map(|p| {
            if p.plan() == plan {
                p
            } else {
                PreparedWeights::with_plan(p.into_csr(), plan)
            }
        });
        Self::prepare(layers, bias, ymax, plan)
    }

    /// Tiles each layer as the iterator yields it — a layer built lazily
    /// (as `from_config` does) is tiled while still cache-hot — then
    /// checks the invariants every other method relies on.
    fn prepare(
        layers: impl Iterator<Item = PreparedWeights<f32>>,
        bias: f32,
        ymax: f32,
        plan: KernelPlan,
    ) -> Self {
        let layers: Vec<_> = layers
            .map(|mut p| {
                // One-time column-tiling pass; narrow layers stay untiled.
                p.tile();
                p
            })
            .collect();
        assert!(!layers.is_empty(), "need at least one layer");
        for pair in layers.windows(2) {
            assert_eq!(pair[0].ncols(), pair[1].nrows(), "layers must chain");
        }
        let facts = layers.iter().map(LayerFacts::of).collect();
        ChallengeNetwork {
            layers,
            bias,
            ymax,
            plan,
            facts,
        }
    }

    /// The plan the network was built under.
    #[must_use]
    pub fn plan(&self) -> KernelPlan {
        self.plan
    }

    /// The prepared weight layers.
    #[must_use]
    pub fn layers(&self) -> &[PreparedWeights<f32>] {
        &self.layers
    }

    /// Neurons in the input layer.
    #[must_use]
    pub fn n_in(&self) -> usize {
        self.layers[0].nrows()
    }

    /// Total stored edges.
    #[must_use]
    pub fn total_nnz(&self) -> usize {
        self.layers.iter().map(PreparedWeights::nnz).sum()
    }

    /// The uniform bias applied before ReLU at every layer.
    #[must_use]
    pub fn bias(&self) -> f32 {
        self.bias
    }

    /// The activation clamp `YMAX`.
    #[must_use]
    pub fn ymax(&self) -> f32 {
        self.ymax
    }

    /// The Challenge nonlinearity `v ↦ clamp(v + bias, 0, YMAX)` as a
    /// fused epilogue (the ReLU is the lower clamp bound).
    pub(crate) fn epilogue(&self) -> Epilogue<'static, f32, impl Fn(f32) -> f32 + Sync + Copy> {
        Epilogue::new(Bias::Uniform(self.bias), clamp_to(self.ymax))
    }

    /// Runs the full forward pass, returning final activations.
    ///
    /// Allocates a transient workspace; hot loops should hold an
    /// [`InferWorkspace`] and call [`ChallengeNetwork::forward_with`].
    ///
    /// # Panics
    /// Panics if `x.ncols() != n_in()`.
    #[must_use]
    pub fn forward(&self, x: &DenseMatrix<f32>, parallel: bool) -> DenseMatrix<f32> {
        let mut ws = InferWorkspace::new();
        self.forward_with(x, parallel, &mut ws);
        ws.take_output()
    }

    /// Forward pass through ping-pong workspace buffers, so a warmed-up
    /// pass performs no heap allocation: each layer is one
    /// [`PreparedWeights::spmm`] from one workspace buffer into the other.
    /// Returns the final output, which lives inside the workspace.
    ///
    /// Constant rows leave the batch after each layer but the last (see
    /// the module docs): a row whose elements all hold one finite value,
    /// when that value folds through every remaining layer, has its output
    /// value kept in the workspace; the survivors are compacted, in
    /// ascending order, to the front of the layer output, their batch
    /// indices kept in the workspace, and the next layer (with its pool
    /// threshold) sees only them. The last layer's output is expanded back
    /// to the full batch with each departed row filled with its value, so
    /// the result is bitwise the uncompacted one.
    /// [`InferWorkspace::live_rows`] reports how many rows reached the last
    /// layer, [`InferWorkspace::row_layers`] how many rows all layers
    /// computed.
    ///
    /// # Panics
    /// Panics if `x.ncols() != n_in()`.
    pub fn forward_with<'w>(
        &self,
        x: &DenseMatrix<f32>,
        parallel: bool,
        ws: &'w mut InferWorkspace,
    ) -> &'w DenseMatrix<f32> {
        let par = if parallel { Par::Pool } else { Par::Serial };
        let nlayers = self.layers.len();
        let batch = x.nrows();
        let InferWorkspace {
            buffers,
            live,
            settled,
            row_layers,
        } = ws;
        live.clear();
        live.extend(0..batch);
        // Only a departed row's entry is read, and it is written when the
        // row leaves.
        settled.resize(batch, 0.0);
        let epi = self.epilogue();
        buffers.run(x, nlayers, |l, src, dst| {
            *row_layers += src.nrows();
            self.layers[l]
                .spmm(src, dst, &epi, par)
                .expect("layer widths chain");
            // After the last layer there is nothing left to skip: the
            // output goes back to the full batch.
            if l + 1 < nlayers {
                self.drop_constant_rows(dst, live, settled, l + 1);
            } else {
                restore_constant_rows(dst, live, settled);
            }
        })
    }

    /// Timed forward pass with Challenge-style statistics.
    ///
    /// The workspace is sized before the clock starts, so the timed
    /// region is the pure compute kernel: shift-add products over the
    /// prepared diagonals with the fused nonlinearity, zero heap
    /// allocation.
    ///
    /// # Panics
    /// Panics if `x.ncols() != n_in()`.
    #[must_use]
    pub fn run(&self, x: &DenseMatrix<f32>, parallel: bool) -> (DenseMatrix<f32>, InferenceStats) {
        let mut ws = InferWorkspace::for_network(self, x.nrows());
        let start = Instant::now();
        self.forward_with(x, parallel, &mut ws);
        let seconds = start.elapsed().as_secs_f64().max(1e-12);
        let y = ws.take_output();
        let edges_processed = x.nrows() as u64 * self.total_nnz() as u64;
        let final_active = y.count_nonzero();
        (
            y,
            InferenceStats {
                seconds,
                edges_processed,
                rate: edges_processed as f64 / seconds,
                final_active,
            },
        )
    }
}

/// The Challenge clamp `v ↦ clamp(v, 0, YMAX)`, the epilogue's map.
fn clamp_to(ymax: f32) -> impl Fn(f32) -> f32 + Sync + Copy {
    move |v: f32| v.clamp(0.0, ymax)
}

/// Whether every element of `values` has the bits of `c` wherever `mask`
/// has a one: differences OR-reduced a chunk at a time, so the scan
/// vectorizes and a mismatch exits early.
fn same_bits(values: &[f32], c: f32, mask: u32) -> bool {
    let c = c.to_bits();
    values
        .chunks(64)
        .all(|ch| ch.iter().fold(0, |acc, v| acc | (v.to_bits() ^ c)) & mask == 0)
}

/// The one finite value every element of `row` holds, if there is one:
/// every element with the bits of one finite `c`, or every element `±0`
/// (read as `+0`, as is an empty row). NaN and ±∞ are never constants.
fn constant_of(row: &[f32]) -> Option<f32> {
    let Some(&first) = row.first() else {
        return Some(0.0);
    };
    if first == 0.0 {
        // Without the sign bit: `+0` and `-0` mix.
        same_bits(row, 0.0, !(1 << 31)).then_some(0.0)
    } else {
        (first.is_finite() && same_bits(row, first, u32::MAX)).then_some(first)
    }
}

impl ChallengeNetwork {
    /// The value every output element of a row takes when every element
    /// of its input to layer `from` holds `c`, folded through layers
    /// `from..` by the kernels' own operations (see the module docs);
    /// `None` when a layer may not keep the row constant.
    fn settle(&self, c: f32, from: usize) -> Option<f32> {
        let clamp = clamp_to(self.ymax);
        self.facts[from..].iter().try_fold(c, |c, f| {
            let acc = if c == 0.0 && f.finite {
                0.0
            } else {
                let (w, r) = f.uniform?;
                (0..r).fold(0.0, |acc: f32, _| Scalar::add(acc, Scalar::mul(c, w)))
            };
            Some(clamp(Scalar::add(acc, self.bias)))
        })
    }

    /// Drops the constant rows of a layer output whose row `k` is batch
    /// row `live[k]` and whose next layer is `from`: each leaving row's
    /// output value goes to `settled`, the survivors move, in order, to
    /// the front of `m`, `live` keeps their batch indices, and `m` shrinks
    /// to them (capacity kept). Rows tend to share their constant, so the
    /// last fold is reused when the next row holds the same bits.
    fn drop_constant_rows(
        &self,
        m: &mut DenseMatrix<f32>,
        live: &mut Vec<usize>,
        settled: &mut [f32],
        from: usize,
    ) {
        let cols = m.ncols();
        let mut last: Option<(u32, Option<f32>)> = None;
        let mut kept = 0;
        for k in 0..live.len() {
            let value = constant_of(m.row(k)).and_then(|c| match last {
                Some((bits, v)) if bits == c.to_bits() => v,
                _ => {
                    let v = self.settle(c, from);
                    last = Some((c.to_bits(), v));
                    v
                }
            });
            if let Some(v) = value {
                settled[live[k]] = v;
                continue;
            }
            if kept != k {
                m.as_mut_slice()
                    .copy_within(k * cols..(k + 1) * cols, kept * cols);
                live[kept] = live[k];
            }
            kept += 1;
        }
        live.truncate(kept);
        m.resize_for_overwrite(kept, cols);
    }
}

/// Expands a compacted last-layer output (row `k` is batch row
/// `live[k]`) back to all `settled.len()` batch rows, each departed row
/// `b` filled with `settled[b]`. Rows move back to their batch index
/// last-first (`live[k] ≥ k`, so no row is overwritten before it moves),
/// filling each gap above the moved row on the way.
fn restore_constant_rows(m: &mut DenseMatrix<f32>, live: &[usize], settled: &[f32]) {
    let batch = settled.len();
    if live.len() == batch {
        return;
    }
    let cols = m.ncols();
    m.resize_for_overwrite(batch, cols);
    if cols == 0 {
        return;
    }
    let data = m.as_mut_slice();
    let fill = |data: &mut [f32], rows: std::ops::Range<usize>| {
        let block = &mut data[rows.start * cols..rows.end * cols];
        for (row, &v) in block.chunks_exact_mut(cols).zip(&settled[rows]) {
            row.fill(v);
        }
    };
    let mut end = batch;
    for (k, &to) in live.iter().enumerate().rev() {
        fill(data, to + 1..end);
        if to != k {
            data.copy_within(k * cols..(k + 1) * cols, to * cols);
        }
        end = to;
    }
    fill(data, 0..end);
}

#[cfg(test)]
mod tests {
    use super::*;
    use radix_data::sparse_binary_batch;

    fn small_net() -> ChallengeNetwork {
        ChallengeNetwork::from_config(&ChallengeConfig::preset(2, 4, 2)).unwrap()
    }

    #[test]
    fn zero_input_stays_zero() {
        // bias is negative → ReLU(0 + b) = 0 everywhere.
        let net = small_net();
        let x = DenseMatrix::zeros(4, net.n_in());
        let y = net.forward(&x, false);
        assert!(y.all_equal_to(0.0));
    }

    #[test]
    fn ones_input_stays_bounded_and_active() {
        // weight = 1/r keeps the row sums at ~1 per layer; with the small
        // negative bias activations persist but never exceed YMAX.
        let net = small_net();
        let x = DenseMatrix::from_vec(2, net.n_in(), vec![1.0; 2 * net.n_in()]).unwrap();
        let (y, stats) = net.run(&x, false);
        assert!(y.as_slice().iter().all(|&v| (0.0..=32.0).contains(&v)));
        assert!(stats.final_active > 0, "signal must survive the network");
    }

    #[test]
    fn layers_are_stored_as_cyclic_diagonals() {
        // Every Challenge layer is a square RadiX-Net layer, a sum of
        // cyclic shifts, so each is stored as its value diagonals.
        let net = small_net();
        assert!(net.layers().iter().all(|w| w.cyclic().is_some()));
    }

    #[test]
    fn parallel_matches_serial() {
        let net = small_net();
        let x = sparse_binary_batch(8, net.n_in(), 0.3, 0);
        let ys = net.forward(&x, false);
        let yp = net.forward(&x, true);
        assert_eq!(ys, yp);
    }

    /// Shape plus every element's bit pattern (stricter than `==`, which
    /// cannot tell `-0.0` from `0.0`).
    fn bits(m: &DenseMatrix<f32>) -> (usize, Vec<u32>) {
        (
            m.nrows(),
            m.as_slice().iter().map(|v| v.to_bits()).collect(),
        )
    }

    #[test]
    fn forward_matches_layer_by_layer() {
        // The forward pass must be bitwise identical to the plain
        // one-layer-at-a-time reference at every block grain — one row,
        // an odd grain, the default, and one so large that `block_rows ×
        // width` would wrap if it were not clamped to the batch — serial
        // and on the pool, at batch sizes that
        // exercise a partial block, exactly one block, and several blocks
        // (including a trailing partial one).
        let base = ChallengeNetwork::from_config(&ChallengeConfig::preset(2, 5, 3)).unwrap();
        let csrs: Vec<CsrMatrix<f32>> = base.layers().iter().map(|l| l.to_csr()).collect();
        let epi = base.epilogue();
        for batch in [1usize, 7, 31, 32, 33, 64, 80] {
            let x = sparse_binary_batch(batch, base.n_in(), 0.4, batch as u64);
            // Reference: whole-batch barrier between layers (the kernels
            // themselves are bitwise-equal under every plan, pinned by the
            // radix-sparse proptest suite).
            let mut cur = x.clone();
            let mut nxt = DenseMatrix::default();
            for w in base.layers() {
                w.spmm(&cur, &mut nxt, &epi, Par::Serial).unwrap();
                std::mem::swap(&mut cur, &mut nxt);
            }
            for block_rows in [1usize, 7, 32, 1 << 62] {
                let plan = KernelPlan {
                    block_rows,
                    // 8-column tiles split the 32-wide layers.
                    tile_cols: 8,
                    ..KernelPlan::default()
                };
                let net = ChallengeNetwork::from_layers_with_plan(
                    csrs.clone(),
                    base.bias(),
                    base.ymax(),
                    plan,
                );
                assert_eq!(net.plan(), plan);
                assert!(net.layers().iter().all(PreparedWeights::is_tiled));
                for parallel in [false, true] {
                    assert_eq!(
                        bits(&net.forward(&x, parallel)),
                        bits(&cur),
                        "batch {batch}, parallel {parallel}, {plan:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn radix_layers_tile_index_free_and_permuted_ones_do_not() {
        // The benchmark's `infer_batch` layers: 4096 wide, radix 16, place
        // values 1, 16, 256 — each Σ_t P^(t·ν), wider than a default tile.
        let config = ChallengeConfig::preset(16, 3, 1);
        let base = ChallengeNetwork::from_config(&config).unwrap();
        let radix: Vec<CsrMatrix<f32>> = base.layers().iter().map(|l| l.to_csr()).collect();
        // The same layers under one seeded column permutation: still
        // constant-degree, no longer sums of shifts.
        let n = base.n_in();
        let mut perm: Vec<usize> = (0..n).collect();
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        for i in (1..n).rev() {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            perm.swap(i, (state >> 33) as usize % (i + 1));
        }
        let permuted: Vec<CsrMatrix<f32>> = radix
            .iter()
            .map(|w| {
                let mut coo = radix_sparse::CooMatrix::new(n, n);
                for (i, j, v) in w.iter() {
                    coo.push(i, perm[j], v);
                }
                coo.to_csr()
            })
            .collect();

        let tiled = KernelPlan::default();
        let untiled = KernelPlan {
            tile_cols: radix_sparse::kernel::MAX_TILE_OR_BLOCK,
            ..tiled
        };
        let x = sparse_binary_batch(8, n, 0.4, 9);
        for (layers, structure) in [
            (radix, [Some((16, 1)), Some((16, 16)), Some((16, 256))]),
            (permuted, [None; 3]),
        ] {
            let build = |plan| {
                ChallengeNetwork::from_layers_with_plan(
                    layers.clone(),
                    base.bias(),
                    base.ymax(),
                    plan,
                )
            };
            let net = build(tiled);
            assert!(net.layers().iter().all(PreparedWeights::is_tiled));
            let found: Vec<_> = net.layers().iter().map(PreparedWeights::cyclic).collect();
            assert_eq!(found, structure);
            let reference = build(untiled);
            assert!(!reference.layers().iter().any(PreparedWeights::is_tiled));
            let expect = bits(&reference.forward(&x, false));
            for parallel in [false, true] {
                assert_eq!(bits(&net.forward(&x, parallel)), expect, "{structure:?}");
            }
        }
    }

    /// `from_config`'s network by the CSR route: the built topology as
    /// CSR, every edge mapped to the weight, each layer's structure
    /// detected. Taking each
    /// layer's values mutably (and writing none) makes its forward product
    /// read the stored diagonals instead of the broadcast weight.
    fn csr_built(config: &ChallengeConfig) -> ChallengeNetwork {
        let net = config.spec().unwrap().build();
        let layers = net
            .fnnt()
            .submatrices()
            .iter()
            .map(|w| w.map(|_| config.weight))
            .collect();
        let mut net = ChallengeNetwork::from_layers_with_plan(
            layers,
            config.bias,
            config.ymax,
            KernelPlan::process(),
        );
        for w in &mut net.layers {
            let _ = w.values_mut();
        }
        net
    }

    #[test]
    fn from_config_equals_the_csr_built_network() {
        let mut configs: Vec<ChallengeConfig> = [(2, 4, 2), (3, 3, 2), (2, 5, 3), (4, 3, 2)]
            .into_iter()
            .map(|(r, k, s)| ChallengeConfig::preset(r, k, s))
            .collect();
        // 4096 wide: the benchmark's `infer_batch` layers.
        configs.push(ChallengeConfig::preset(16, 3, 1));
        // A full-mantissa weight; weights that take the CSR route (zero
        // stores no entries, a non-finite one stays CSR).
        for weight in [0.3, 0.0, -0.0, f32::INFINITY, f32::NAN] {
            configs.push(ChallengeConfig {
                weight,
                ..ChallengeConfig::preset(3, 3, 2)
            });
        }
        let mut dropped = false;
        for config in &configs {
            let case = format!("{config:?}");
            let net = ChallengeNetwork::from_config(config).unwrap();
            let oracle = csr_built(config);
            // `NaN != NaN`: value bits below.
            if !config.weight.is_nan() {
                assert_eq!(net, oracle, "{case}");
            }
            assert_eq!(net.facts, oracle.facts, "{case}");
            for (a, b) in net.layers().iter().zip(oracle.layers()) {
                assert_eq!(a.cyclic(), b.cyclic(), "{case}");
                let value_bits = |w: &PreparedWeights<f32>| -> Vec<u32> {
                    w.values().iter().map(|v| v.to_bits()).collect()
                };
                assert_eq!(value_bits(a), value_bits(b), "{case}");
            }
            let finite = config.weight.is_finite() && config.weight != 0.0;
            assert_eq!(net.layers()[0].cyclic().is_some(), finite, "{case}");
            let uniform = finite.then_some((config.weight, config.radix));
            for f in &net.facts {
                assert_eq!(f.finite, config.weight.is_finite(), "{case}");
                assert_eq!(f.uniform, uniform, "{case}");
            }
            // Saturating and dying rows, so compaction drops some.
            let x = sparse_binary_batch(40, net.n_in(), 0.4, 7);
            for parallel in [false, true] {
                let mut ws = InferWorkspace::new();
                let got = bits(net.forward_with(&x, parallel, &mut ws));
                let live = ws.live_rows();
                let want = bits(oracle.forward_with(&x, parallel, &mut ws));
                assert_eq!(got, want, "{case} parallel {parallel}");
                assert_eq!(live, ws.live_rows(), "{case} parallel {parallel}");
                dropped |= live < x.nrows();
            }
        }
        assert!(dropped, "some batch must lose rows to compaction");
    }

    /// The activations entering each layer and the output (`acts[l]` is
    /// layer `l`'s input), one whole-batch product at a time: a schedule
    /// that never drops a row.
    fn layer_by_layer(net: &ChallengeNetwork, x: &DenseMatrix<f32>) -> Vec<DenseMatrix<f32>> {
        let epi = net.epilogue();
        let mut acts = vec![x.clone()];
        for w in net.layers() {
            let mut next = DenseMatrix::default();
            w.spmm(acts.last().unwrap(), &mut next, &epi, Par::Serial)
                .unwrap();
            acts.push(next);
        }
        acts
    }

    /// Whether `row` is all `±0`, and whether it is all `±0` or all one
    /// finite value's bits.
    fn zero_or_finite_constant(row: &[f32]) -> (bool, bool) {
        let zero = row.iter().all(|&v| v == 0.0);
        let constant = row[0].is_finite() && row.iter().all(|v| v.to_bits() == row[0].to_bits());
        (zero, zero || constant)
    }

    /// 4096 wide, 12 layers, gain 2 against a −0.30 bias: a 0.4-dense
    /// binary row saturates at `YMAX` within a few layers, a sparser one
    /// dies. Saturating, dying and constant rows, an all-`-0.0` row, a
    /// `±0` row, a row with one NaN (it spreads to every element, so the
    /// row stays), an all-NaN row and a saturating row with one `+∞`.
    fn constant_row_batch() -> (ChallengeConfig, DenseMatrix<f32>) {
        let config = ChallengeConfig::preset(16, 3, 4);
        let n = config.neurons();
        let saturating = sparse_binary_batch(4, n, 0.4, 11);
        let dying = sparse_binary_batch(3, n, 0.0005, 12);
        let mut rows: Vec<Vec<f32>> = (0..3)
            .flat_map(|i| [saturating.row(i).to_vec(), dying.row(i).to_vec()])
            .collect();
        let mut signed_zero = vec![0.0f32; n];
        signed_zero[n / 3] = -0.0;
        let mut nan = vec![0.5f32; n];
        nan[n / 2] = f32::NAN;
        let mut inf = saturating.row(3).to_vec();
        inf[7] = f32::INFINITY;
        rows.extend([
            vec![0.5; n],
            vec![-0.0; n],
            signed_zero,
            nan,
            vec![f32::NAN; n],
            inf,
        ]);
        let batch = rows.len();
        (
            config,
            DenseMatrix::from_vec(batch, n, rows.concat()).unwrap(),
        )
    }

    #[test]
    fn constant_rows_leave_and_the_bits_match_layer_by_layer() {
        // Every layer of the Challenge net is uniform, so a row leaves
        // once it is zero or one finite constant after a layer but the
        // last; the output is the uncompacted one, bit for bit, and the
        // CSR-built network (per-edge forward) drops the same rows.
        let (config, x) = constant_row_batch();
        let net = ChallengeNetwork::from_config(&config).unwrap();
        let oracle = csr_built(&config);
        let acts = layer_by_layer(&net, &x);
        let expect = bits(acts.last().unwrap());
        let last_in = &acts[net.layers().len() - 1];
        let live = (0..x.nrows())
            .filter(|&b| !zero_or_finite_constant(last_in.row(b)).1)
            .count();
        // The batch's point: some rows leave, NaN rows stay.
        assert!(0 < live && live < x.nrows(), "live {live}");
        for parallel in [false, true] {
            let mut ws = InferWorkspace::new();
            assert_eq!(bits(net.forward_with(&x, parallel, &mut ws)), expect);
            assert_eq!(ws.live_rows(), live, "parallel {parallel}");
            assert_eq!(bits(oracle.forward_with(&x, parallel, &mut ws)), expect);
            assert_eq!(ws.live_rows(), live, "oracle, parallel {parallel}");
        }
    }

    #[test]
    fn a_non_uniform_last_layer_keeps_constant_rows_live() {
        // One edited value in the last layer: a constant row no longer
        // folds through it, so the saturated rows are computed to the
        // end. A finite edit still lets the zero rows leave; a NaN, which
        // the gather multiplies into zero rows too, keeps them as well.
        // The bits match either way.
        let (config, x) = constant_row_batch();
        let base = ChallengeNetwork::from_config(&config).unwrap();
        for (edit, finite) in [(0.0625, true), (f32::NAN, false)] {
            let mut layers = base.layers().to_vec();
            layers.last_mut().unwrap().values_mut()[5] = edit;
            let net =
                ChallengeNetwork::from_prepared(layers, base.bias(), base.ymax(), base.plan());
            let (last_facts, rest) = net.facts.split_last().unwrap();
            assert!(rest.iter().all(|f| f.uniform.is_some()));
            let uniform = None;
            assert_eq!(*last_facts, LayerFacts { finite, uniform });
            let acts = layer_by_layer(&net, &x);
            let expect = bits(acts.last().unwrap());
            let last_in = &acts[net.layers().len() - 1];
            let (zero, constant): (Vec<bool>, Vec<bool>) = (0..x.nrows())
                .map(|b| zero_or_finite_constant(last_in.row(b)))
                .unzip();
            let live = if finite {
                zero.iter().filter(|&&z| !z).count()
            } else {
                x.nrows()
            };
            // Constant-32 rows, and zero rows, are in the batch.
            assert!((0..x.nrows()).any(|b| constant[b] && !zero[b]));
            assert!(zero.iter().any(|&z| z));
            for parallel in [false, true] {
                let mut ws = InferWorkspace::new();
                let y = bits(net.forward_with(&x, parallel, &mut ws));
                assert_eq!(y, expect, "edit {edit}, parallel {parallel}");
                assert_eq!(ws.live_rows(), live, "edit {edit}, parallel {parallel}");
            }
        }
    }

    #[test]
    fn invalid_configs_fail_as_their_spec_does() {
        for (radix, depth) in [(1, 3), (0, 2), (4, 0), (usize::MAX, 2)] {
            let config = ChallengeConfig::preset(radix, depth, 2);
            let want = config.spec().unwrap_err();
            assert_eq!(ChallengeNetwork::from_config(&config).unwrap_err(), want);
        }
    }

    #[test]
    fn fuse_layers_is_stable_and_positive() {
        assert_eq!(fuse_layers(), 1);
    }

    #[test]
    fn workspace_reuse_is_consistent() {
        // Repeated passes through one workspace give identical results.
        let net = small_net();
        let x = sparse_binary_batch(5, net.n_in(), 0.4, 1);
        let reference = net.forward(&x, false);
        let mut ws = InferWorkspace::for_network(&net, 5);
        assert_eq!(ws.row_layers(), 0);
        for _ in 0..3 {
            assert_eq!(net.forward_with(&x, false, &mut ws), &reference);
        }
        // Every pass computes the same rows, and the count accumulates.
        let mut once = InferWorkspace::new();
        let _ = net.forward_with(&x, false, &mut once);
        assert!(once.row_layers() >= x.nrows());
        assert_eq!(ws.row_layers(), 3 * once.row_layers());
    }

    #[test]
    fn stats_account_edges() {
        let net = small_net();
        let x = sparse_binary_batch(3, net.n_in(), 0.5, 1);
        let (_, stats) = net.run(&x, false);
        // 8 layers × 16 neurons × degree 2 = 256 edges; × batch 3.
        assert_eq!(stats.edges_processed, 3 * 256);
        assert!(stats.rate > 0.0);
        assert!(stats.seconds > 0.0);
    }

    #[test]
    fn clamp_enforced() {
        // A single layer with huge positive weights must clamp at ymax.
        let w = CsrMatrix::from_dense(&DenseMatrix::from_rows(&[&[100.0f32]]));
        let net = ChallengeNetwork::from_layers(vec![w], 0.0, 32.0);
        let x = DenseMatrix::from_rows(&[&[10.0f32]]);
        let y = net.forward(&x, false);
        assert_eq!(y.get(0, 0), 32.0);
    }

    #[test]
    fn deterministic_topology() {
        let a = ChallengeNetwork::from_config(&ChallengeConfig::preset(2, 3, 2)).unwrap();
        let b = ChallengeNetwork::from_config(&ChallengeConfig::preset(2, 3, 2)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "layers must chain")]
    fn mismatched_layers_panic() {
        let a = CsrMatrix::<f32>::identity(2);
        let b = CsrMatrix::<f32>::identity(3);
        let _ = ChallengeNetwork::from_layers(vec![a, b], 0.0, 32.0);
    }
}
