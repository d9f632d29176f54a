//! Verifies the training-side acceptance criterion of the tiled execution
//! engine: after workspace warm-up, a **full train step's gradient
//! computation** — forward trace, loss gradient via `Loss::eval_*_into`
//! straight into the workspace delta buffer, activation-scaled delta,
//! allocation-free weight-gradient accumulation, and the **tiled
//! transposed** input-gradient products — performs **no heap allocation**,
//! on the serial and the pool-parallel path alike.
//!
//! The counting-allocator methodology is shared with
//! `crates/challenge/tests/zero_alloc.rs` (the inference-side twin); each
//! lives in its own test binary because the counter is process-global.
//! The pool is forced to 4 threads and the parallelism threshold to 1 so
//! every kernel takes the pool path even on a 1-core CI box, and the tile
//! width is forced low enough that this test's 16-wide layers actually
//! run the tiled transposed schedule.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use radix_net::{MixedRadixSystem, RadixNetSpec};
use radix_nn::{Activation, GradWorkspace, Init, Loss, Network, Targets};
use radix_sparse::DenseMatrix;

/// Counts every allocation (alloc + realloc) made through the global
/// allocator, delegating the actual memory management to [`System`].
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates every operation verbatim to the system allocator; the
// only added behavior is a relaxed atomic counter bump.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// A deterministic mixed-sparsity batch (some exact zeros, which the
/// gathers multiply through and the CSR scatter skips).
fn batch(rows: usize, cols: usize) -> DenseMatrix<f32> {
    let mut x = DenseMatrix::zeros(rows, cols);
    for i in 0..rows {
        let row: &mut [f32] = x.row_mut(i);
        for (j, v) in row.iter_mut().enumerate() {
            if (i * 7 + j * 3) % 4 != 0 {
                *v = ((i * cols + j) % 11) as f32 * 0.2 - 1.0;
            }
        }
    }
    x
}

// One test function on purpose: the counter is process-global, so two
// tests measuring "no allocations happened in my window" concurrently
// would see each other's setup allocations and fail spuriously under the
// default parallel test harness.
#[test]
fn train_step_timed_region_is_allocation_free() {
    // Force a real multi-thread pool (even on 1-core CI), a parallelism
    // threshold of 1 so every product and gradient accumulation takes the
    // pool path, and a tile width small enough that the 16-wide hidden
    // layers run the tiled transposed schedule. Must happen before the
    // first pool / tunable use; all are cached process-wide after that.
    // RADIX_POOL_THREADS has highest precedence, so set it too — the CI
    // multi-thread matrix exports it process-wide and must not override
    // this test's forced width.
    std::env::set_var("RADIX_POOL_THREADS", "4");
    std::env::set_var("RAYON_NUM_THREADS", "4");
    std::env::set_var("RADIX_TILE_COLS", "8");
    std::env::set_var("RADIX_PAR_THRESHOLD", "1");

    // RadiX-Net (2,2,2) × widths (1,2,2,1): 8 → 16 → 16 → 8, all sparse.
    let spec = RadixNetSpec::new(
        vec![MixedRadixSystem::new([2, 2, 2]).unwrap()],
        vec![1, 2, 2, 1],
    )
    .unwrap();
    let mut net = Network::from_fnnt(
        &spec.build().into_fnnt(),
        Activation::Tanh,
        Init::Xavier,
        Loss::SoftmaxCrossEntropy,
        7,
    );
    let batch_rows = 48usize; // spans a partial second 32-row tile block
    let x = batch(batch_rows, net.n_in());
    let labels: Vec<usize> = (0..batch_rows).map(|i| (i * 3) % net.n_out()).collect();

    // Part 1: a workspace pre-sized with for_network makes even the first
    // gradient batch allocation-free (pool spawn is paid by the warm-up
    // forward below, before the measured window).
    let mut ws = GradWorkspace::for_network(&net, batch_rows);
    let warmup = net.forward(&x); // spawns the pool, sizes nothing persistent
    assert_eq!(warmup.shape(), (batch_rows, net.n_out()));
    // Prime the process-wide plan: its knobs are read from the environment
    // exactly once (an allocation), cached in a OnceLock thereafter — a
    // one-time process setup cost, not part of any train step.
    let _ = radix_sparse::KernelPlan::process();

    // The counter is process-global, and libtest's harness thread lazily
    // allocates its channel-parking context the first time it gets
    // scheduled — which, on a single-core machine, can land in the middle
    // of a measured window. Yield long enough for the harness thread to
    // finish that one-time setup before any measurement starts.
    std::thread::sleep(std::time::Duration::from_millis(100));

    let before = allocations();
    let first_loss = net.grad_batch_with(&x, Targets::Labels(&labels), &mut ws);
    let after = allocations();
    assert!(first_loss.is_finite());
    assert_eq!(
        after - before,
        0,
        "first gradient batch through a pre-sized workspace must be allocation-free"
    );

    // Part 2: steady state — repeated full gradient batches (forward +
    // loss epilogue + tiled transposed backward) allocate nothing, and
    // keep producing the same loss on the same inputs.
    let before = allocations();
    for _ in 0..3 {
        let loss = net.grad_batch_with(&x, Targets::Labels(&labels), &mut ws);
        assert_eq!(loss, first_loss, "same inputs, same loss");
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "steady-state train-step gradients must be allocation-free"
    );

    // Part 3: regression targets drive the other loss epilogue
    // (eval_regression_into) through the same buffers; after one warm-up
    // for the new target shape the step must again be allocation-free.
    let reg_net = Network::from_fnnt(
        &spec.build().into_fnnt(),
        Activation::Sigmoid,
        Init::Xavier,
        Loss::Mse,
        11,
    );
    let targets = batch(batch_rows, reg_net.n_out());
    let mut reg_ws = GradWorkspace::for_network(&reg_net, batch_rows);
    let warm = reg_net.grad_batch_with(&x, Targets::values(&targets), &mut reg_ws);
    std::thread::sleep(std::time::Duration::from_millis(50));
    let before = allocations();
    let again = reg_net.grad_batch_with(&x, Targets::values(&targets), &mut reg_ws);
    let after = allocations();
    assert_eq!(warm, again);
    assert_eq!(
        after - before,
        0,
        "regression train-step gradients must be allocation-free"
    );

    // And the gradients actually descend: one SGD step lowers the loss.
    let mut opt = radix_nn::Optimizer::sgd(0.5);
    net.apply_gradients(ws.grads(), &mut opt);
    let descended = net.grad_batch_with(&x, Targets::Labels(&labels), &mut ws);
    assert!(
        descended < first_loss,
        "one SGD step must descend: {first_loss} → {descended}"
    );

    // Part 4: the pool-native data-parallel training path. A full
    // multi-chunk (4 chunks), multi-epoch training run — zero-copy chunk
    // views, per-worker workspaces, the fixed-order gradient reduction,
    // weight decay, gradient clipping, and Adam steps through the reused
    // optimizer scratch — allocates nothing after one warm-up step, on
    // the forced 4-thread pool.
    let mut par_net = Network::from_fnnt(
        &spec.build().into_fnnt(),
        Activation::Tanh,
        Init::Xavier,
        Loss::SoftmaxCrossEntropy,
        13,
    );
    let num_chunks = 4usize;
    let mut pool = radix_nn::GradWorkspacePool::for_network(&par_net, batch_rows, num_chunks);
    let mut par_ws = GradWorkspace::for_network(&par_net, batch_rows);
    let mut adam = radix_nn::Optimizer::adam(0.01);
    // Warm-up: first-touch Adam state per parameter id, scratch
    // high-water marks. One full step covers every code path.
    let warm_loss = par_net.par_grad_batch_with(
        &x,
        Targets::Labels(&labels),
        num_chunks,
        &mut pool,
        &mut par_ws,
    );
    assert!(warm_loss.is_finite());
    par_net.add_weight_decay(par_ws.grads_mut(), 1e-4);
    radix_nn::clip_gradients(par_ws.grads_mut(), 5.0);
    par_net.apply_gradients_with(&mut par_ws, &mut adam);
    std::thread::sleep(std::time::Duration::from_millis(50));

    let before = allocations();
    let mut last_loss = f32::INFINITY;
    for _epoch in 0..3 {
        for _batch in 0..2 {
            let loss = par_net.par_grad_batch_with(
                &x,
                Targets::Labels(&labels),
                num_chunks,
                &mut pool,
                &mut par_ws,
            );
            assert!(loss.is_finite());
            last_loss = loss;
            par_net.add_weight_decay(par_ws.grads_mut(), 1e-4);
            radix_nn::clip_gradients(par_ws.grads_mut(), 5.0);
            par_net.apply_gradients_with(&mut par_ws, &mut adam);
        }
        // An epoch's ragged final mini-batch: 9 rows across 4 requested
        // chunks dispatches only 3 (ceil(9/3) after rounding). The chunk
        // pool must not shrink-and-regrow across this — that churn was a
        // real bug — and the step stays allocation-free on batch views.
        let tail = par_net.par_grad_batch_with(
            &x.rows_view(0..9),
            Targets::Labels(&labels[..9]),
            num_chunks,
            &mut pool,
            &mut par_ws,
        );
        assert!(tail.is_finite());
        par_net.apply_gradients_with(&mut par_ws, &mut adam);
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "multi-chunk multi-epoch pool-native training must be allocation-free"
    );
    assert!(
        last_loss < warm_loss,
        "training must descend: {warm_loss} → {last_loss}"
    );
}
