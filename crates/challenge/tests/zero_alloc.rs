//! Verifies the acceptance criterion of the prepared-kernel engine: after
//! workspace warm-up, the Challenge inference timed region performs **no
//! heap allocation** — on the serial path *and* on the pool-parallel
//! cache-tiled path. A counting global allocator wraps the system
//! allocator; a forward pass through a warmed [`InferWorkspace`] must
//! leave the allocation counter untouched. (The training-side twin of
//! this test — a full gradient step through the tiled transposed kernels
//! — lives in `crates/nn/tests/zero_alloc.rs`; each needs its own test
//! binary because the counter is process-global.)
//!
//! The parallel guarantee is what the persistent worker pool in the rayon
//! shim buys: thread stacks and join handles are paid once at pool
//! creation (part of warm-up), and the steady-state dispatch — condvar
//! wake, atomic chunk cursor, per-worker scratch reuse — touches the heap
//! not at all. The test forces a 4-thread pool and a small tile width via
//! environment variables set before anything touches the pool or the tile
//! configuration (both are read once, at first use, and this test binary
//! is its own process).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use radix_challenge::{ChallengeConfig, ChallengeNetwork, InferWorkspace};
use radix_data::sparse_binary_batch;
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

// One test function on purpose: the counter is process-global, so two
// tests measuring "no allocations happened in my window" concurrently
// would see each other's setup allocations and fail spuriously under the
// default parallel test harness.
#[test]
fn inference_timed_region_is_allocation_free() {
    // Force a real multi-thread pool (even on 1-core CI) and a tile width
    // small enough that this test's layers actually take the tiled path.
    // Must happen before the first pool / tile_cols use; both are cached
    // process-wide after that.
    // RADIX_POOL_THREADS has highest precedence (the CI multi-thread
    // matrix sets it process-wide), so force it too.
    std::env::set_var("RADIX_POOL_THREADS", "4");
    std::env::set_var("RAYON_NUM_THREADS", "4");
    std::env::set_var("RADIX_TILE_COLS", "8");

    // Part 1: warmed-up workspace — repeated passes allocate nothing.
    let net = ChallengeNetwork::from_config(&ChallengeConfig::preset(2, 5, 3)).unwrap();
    let batch = 16usize;
    let x = sparse_binary_batch(batch, net.n_in(), 0.5, 7);
    let mut ws = InferWorkspace::for_network(&net, batch);

    // Warm-up: drives every buffer to its high-water mark.
    let reference = net.forward_with(&x, false, &mut ws).clone();

    // The counter is process-global, and libtest's harness thread lazily
    // allocates its channel-parking context the first time it gets
    // scheduled — which, on a single-core machine, can land in the middle
    // of a measured window. Yield long enough for the harness thread to
    // finish that one-time setup before any measurement starts.
    std::thread::sleep(std::time::Duration::from_millis(100));

    // Timed-region equivalent: repeated serial passes through the warmed
    // workspace must not allocate at all.
    let before = allocations();
    for _ in 0..3 {
        let y = net.forward_with(&x, false, &mut ws);
        assert_eq!(y.shape(), reference.shape());
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "warmed-up serial inference must be allocation-free"
    );

    // And the results are still correct.
    assert_eq!(net.forward_with(&x, false, &mut ws), &reference);

    // Part 2: a workspace pre-sized with for_network makes even the
    // *first* pass allocation-free.
    let net2 = ChallengeNetwork::from_config(&ChallengeConfig::preset(2, 4, 2)).unwrap();
    let batch2 = 8usize;
    let x2 = sparse_binary_batch(batch2, net2.n_in(), 0.4, 3);
    let mut ws2 = InferWorkspace::for_network(&net2, batch2);

    let before = allocations();
    let _ = net2.forward_with(&x2, false, &mut ws2);
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "a workspace pre-sized with for_network must never allocate"
    );

    // Part 3: the pool-parallel cache-tiled path. The layers are tiled
    // (RADIX_TILE_COLS=8 < 32 columns); the batch spans several row
    // blocks, so every layer dispatches its blocks to the 4-thread pool
    // through the pool-parallel tiled product. Warm-up pays for pool
    // spawn; after that, repeated parallel passes must allocate nothing.
    assert!(
        net.layers().iter().all(|w| w.is_tiled()),
        "test layers must take the tiled path"
    );
    assert!(
        net.layers().iter().all(|w| w.cyclic().is_some()),
        "radix-2 layers must tile index-free: that gather is what part 3 proves allocation-free"
    );
    let batch3 = 80usize; // > 2 row blocks of 32 rows
    let x3 = sparse_binary_batch(batch3, net.n_in(), 0.5, 11);
    let serial_reference = net.forward(&x3, false);
    let mut ws3 = InferWorkspace::for_network(&net, batch3);
    let par_reference = net.forward_with(&x3, true, &mut ws3).clone();
    assert_eq!(
        par_reference, serial_reference,
        "parallel must match serial"
    );

    let before = allocations();
    for _ in 0..3 {
        let y = net.forward_with(&x3, true, &mut ws3);
        assert_eq!(y.shape(), par_reference.shape());
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "warmed-up pool-parallel tiled inference must be allocation-free"
    );
    assert_eq!(net.forward_with(&x3, true, &mut ws3), &par_reference);

    // Part 4: live-row compaction. Three batches of one size through one
    // warmed workspace: half the rows stay to the last group, every row
    // leaves, no row leaves. Dropping rows shrinks the buffers and
    // expanding back only refills capacity they already have, so no pass
    // — serial or pool, in any order of the three — may allocate.
    let n = net.n_in();
    // Saturates at `YMAX`: leaves as that constant a few groups in.
    let saturating = vec![1.0f32; n];
    // Gain 2 on 0.01 stays far below the −0.30 bias: zero after layer 0.
    let dying = vec![0.01f32; n];
    // Never a finite constant: stays to the last group.
    let nan = vec![f32::NAN; n];
    let batch_of = |staying: usize| {
        let data: Vec<f32> = (0..batch3)
            .flat_map(|i| {
                if i % 2 == 0 && i / 2 < staying {
                    nan.clone()
                } else if i % 3 == 0 {
                    saturating.clone()
                } else {
                    dying.clone()
                }
            })
            .collect();
        DenseMatrix::from_vec(batch3, n, data).unwrap()
    };
    let batches = [
        (batch_of(batch3 / 2), batch3 / 2),
        (batch_of(0), 0),
        (
            DenseMatrix::from_vec(batch3, n, nan.repeat(batch3)).unwrap(),
            batch3,
        ),
    ];
    let mut ws4 = InferWorkspace::for_network(&net, batch3);
    for parallel in [false, true] {
        for (x, _) in &batches {
            let _ = net.forward_with(x, parallel, &mut ws4);
        }
    }
    let before = allocations();
    for _ in 0..3 {
        for parallel in [false, true] {
            for (x, live) in &batches {
                let y = net.forward_with(x, parallel, &mut ws4);
                assert_eq!(y.shape(), (batch3, n));
                assert_eq!(ws4.live_rows(), *live);
            }
        }
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "warmed-up inference that drops dead rows must be allocation-free"
    );
}
