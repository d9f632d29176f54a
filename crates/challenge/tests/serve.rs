//! Integration and property tests for the async serving engine: many
//! concurrent clients against one engine, bitwise identity with the
//! serial schedule, micro-batcher invariants, the work-conserving and
//! event-driven behaviour of the engine loop, and shutdown semantics.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use proptest::prelude::*;

use radix_challenge::{
    ChallengeConfig, ChallengeNetwork, FaultInjector, FaultPlan, InferWorkspace, MicroBatcher,
    ServeConfig, ServeEngine, ServeError,
};
use radix_data::sparse_binary_batch;
use radix_nn::{checkpoint, Activation, Init, Loss, Network, Optimizer, TrainProgress};
use radix_sparse::DenseMatrix;

fn small_net() -> ChallengeNetwork {
    ChallengeNetwork::from_config(&ChallengeConfig::preset(3, 3, 2)).unwrap()
}

fn serve_config() -> ServeConfig {
    ServeConfig {
        max_batch: 8,
        deadline_us: 5_000,
        slots: 16,
        queue: 16,
        parallel: true,
    }
}

/// N concurrent client threads, each issuing a stream of requests; every
/// response must be bitwise-identical to the serial reference for *that*
/// request's row — results must never be cross-wired between clients, no
/// matter how the engine interleaves them into blocks.
#[test]
fn concurrent_clients_get_their_own_answers() {
    const CLIENTS: usize = 6;
    const PER_CLIENT: usize = 20;
    let net = small_net();
    let x = sparse_binary_batch(CLIENTS * PER_CLIENT, net.n_in(), 0.4, 42);
    let reference = net.forward(&x, false);

    let handle = ServeEngine::start(net, &serve_config());
    std::thread::scope(|s| {
        for c in 0..CLIENTS {
            let client = handle.client();
            let x = &x;
            let reference = &reference;
            s.spawn(move || {
                let mut out = Vec::new();
                for j in 0..PER_CLIENT {
                    let i = c * PER_CLIENT + j;
                    client.infer_into(x.row(i), &mut out).unwrap();
                    assert_eq!(out.as_slice(), reference.row(i), "client {c} request {j}");
                }
            });
        }
    });
    let stats = handle.shutdown().unwrap();
    assert_eq!(stats.rows, (CLIENTS * PER_CLIENT) as u64);
    assert!(stats.max_rows <= 8, "block exceeded max_batch");
    assert_eq!(stats.batches, stats.full_flushes + stats.deadline_flushes);
}

/// In-order demux within one client: a single submitter's responses come
/// back in submission order by construction (infer is synchronous), and
/// each equals the serial run of the same rows in the same order.
#[test]
fn single_client_in_order_bitwise_vs_serial() {
    let net = small_net();
    let x = sparse_binary_batch(24, net.n_in(), 0.6, 7);
    let mut ws = InferWorkspace::for_network(&net, x.nrows());
    let serial = net.forward_with(&x, false, &mut ws).clone();

    let handle = ServeEngine::start(net, &serve_config());
    let client = handle.client();
    let mut out = Vec::new();
    for i in 0..x.nrows() {
        client.infer_into(x.row(i), &mut out).unwrap();
        assert_eq!(out.as_slice(), serial.row(i), "row {i}");
    }
    let _ = handle.shutdown().unwrap();
}

/// Backpressure soak: more concurrent clients than slots, tiny queue. No
/// deadlock, no lost or cross-wired responses.
#[test]
fn oversubscribed_clients_block_and_complete() {
    const CLIENTS: usize = 12;
    let net = small_net();
    let x = sparse_binary_batch(CLIENTS, net.n_in(), 0.5, 99);
    let reference = net.forward(&x, false);
    let config = ServeConfig {
        max_batch: 4,
        deadline_us: 2_000,
        slots: 3, // fewer slots than clients: some must park on the free list
        queue: 2,
        parallel: false,
    };
    let handle = ServeEngine::start(net, &config);
    let served = Arc::new(AtomicUsize::new(0));
    std::thread::scope(|s| {
        for c in 0..CLIENTS {
            let client = handle.client();
            let x = &x;
            let reference = &reference;
            let served = Arc::clone(&served);
            s.spawn(move || {
                let y = client.infer(x.row(c)).unwrap();
                assert_eq!(y.as_slice(), reference.row(c), "client {c}");
                served.fetch_add(1, Ordering::Relaxed);
            });
        }
    });
    assert_eq!(served.load(Ordering::Relaxed), CLIENTS);
    let stats = handle.shutdown().unwrap();
    assert_eq!(stats.rows, CLIENTS as u64);
    assert!(stats.max_rows <= 4);
}

/// Shutdown drains in-flight work, then rejects; clients racing shutdown
/// either complete correctly or get a clean `Shutdown` error — never a
/// hang, never a wrong answer.
#[test]
fn shutdown_during_traffic_is_clean() {
    let net = small_net();
    let x = sparse_binary_batch(8, net.n_in(), 0.5, 5);
    let reference = net.forward(&x, false);
    let handle = ServeEngine::start(net, &serve_config());
    let racing = handle.client();
    let x2 = x.clone();
    let reference2 = reference.clone();
    let racer = std::thread::spawn(move || {
        let mut ok = 0usize;
        let mut out = Vec::new();
        for i in 0..x2.nrows() {
            match racing.infer_into(x2.row(i), &mut out) {
                Ok(()) => {
                    assert_eq!(out.as_slice(), reference2.row(i), "racing row {i}");
                    ok += 1;
                }
                Err(ServeError::Shutdown) => break,
                Err(e) => panic!("unexpected error racing shutdown: {e}"),
            }
        }
        ok
    });
    // Let the racer get some work through, then pull the plug.
    std::thread::sleep(std::time::Duration::from_millis(5));
    let stats = handle.shutdown().unwrap();
    let ok = racer.join().unwrap();
    assert_eq!(stats.rows as usize, ok, "every Ok response was counted");
}

/// The engine survives being restarted many times in one process (pool
/// and workspace reuse must not leak state across engines).
#[test]
fn repeated_start_shutdown_cycles() {
    let net = small_net();
    let row = vec![1.0f32; net.n_in()];
    let reference = {
        let mut x = DenseMatrix::zeros(1, net.n_in());
        x.row_mut(0).copy_from_slice(&row);
        net.forward(&x, false)
    };
    for cycle in 0..5 {
        let handle = ServeEngine::start(net.clone(), &serve_config());
        let y = handle.client().infer(&row).unwrap();
        assert_eq!(y.as_slice(), reference.row(0), "cycle {cycle}");
        let stats = handle.shutdown().unwrap();
        assert_eq!(stats.rows, 1);
    }
}

/// Work conservation: a lone request to an idle engine is executed at
/// once, whatever latency target the engine was configured with — a
/// timed hold keyed to `deadline_us` would sit on it for about a second.
#[test]
fn lone_request_is_not_held_for_the_latency_target() {
    let net = small_net();
    let row = vec![1.0f32; net.n_in()];
    let config = ServeConfig {
        deadline_us: 2_000_000,
        ..serve_config()
    };
    let handle = ServeEngine::start(net, &config);
    assert_eq!(handle.batch_wait_us(), 0);
    let client = handle.client();
    let t = Instant::now();
    client.infer(&row).unwrap();
    let took = t.elapsed();
    assert!(
        took < Duration::from_millis(250),
        "lone request took {took:?} on an idle engine"
    );
    let stats = handle.shutdown().unwrap();
    assert_eq!(
        (stats.rows, stats.batches, stats.deadline_flushes),
        (1, 1, 1)
    );
}

/// Natural batching: rows coalesce by arriving while a block executes.
/// An injected compute delay holds one request's block open; the `K`
/// requests submitted meanwhile are all answered by the single next
/// block.
#[test]
fn rows_arriving_during_a_block_share_the_next_block() {
    const K: usize = 5;
    const HOLD: Duration = Duration::from_millis(200);
    let net = small_net();
    let x = sparse_binary_batch(K + 1, net.n_in(), 0.5, 17);
    let reference = net.forward(&x, false);
    let handle = ServeEngine::start_with_faults(
        net,
        &ServeConfig {
            parallel: false,
            ..serve_config()
        },
        FaultInjector::new(FaultPlan {
            compute_delay_us: HOLD.as_micros() as u64,
            ..FaultPlan::default()
        }),
    );
    let idle = handle.stats();
    let open = std::thread::scope(|s| {
        let submit = |i: usize| {
            let client = handle.client();
            let (x, reference) = (&x, &reference);
            s.spawn(move || {
                let y = client.infer(x.row(i)).unwrap();
                assert_eq!(y.as_slice(), reference.row(i), "row {i}");
            })
        };
        submit(0);
        // `batches` is bumped as a block opens, before its compute delay:
        // once it moves, the engine is inside the holder's block.
        while handle.stats().batches == idle.batches {
            std::thread::yield_now();
        }
        let open = handle.stats();
        for i in 1..=K {
            submit(i);
        }
        open
    });
    let done = handle.shutdown().unwrap();
    assert_eq!((open.batches - idle.batches, open.rows), (1, idle.rows));
    assert_eq!(
        done.batches - open.batches,
        1,
        "{K} rows queued behind an open block must ride one block"
    );
    assert_eq!(done.rows - idle.rows, (K + 1) as u64);
    assert!(done.max_rows >= K as u64);
}

/// The idle engine is parked, not polling: `reload()` and `shutdown()`
/// wake it themselves, so neither waits out a re-check interval — not
/// even with `ServeClient` clones still alive (the channel never
/// disconnects) and a latency target that used to mean a 50 ms cadence.
#[test]
fn parked_engine_wakes_for_reload_and_shutdown() {
    const CYCLES: u32 = 8;
    let cfg = ChallengeConfig::preset(3, 3, 2);
    let net = ChallengeNetwork::from_config(&cfg).unwrap();
    let row = vec![1.0f32; net.n_in()];
    // Other weights on the serving topology, as a training checkpoint.
    let retrained = Network::from_fnnt(
        cfg.spec().unwrap().build().fnnt(),
        Activation::Relu,
        Init::He,
        Loss::Mse,
        41,
    );
    let dir = std::env::temp_dir().join(format!("radix-serve-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("reload.radix");
    checkpoint::save(
        &path,
        &retrained,
        &Optimizer::sgd(0.1),
        &TrainProgress::default(),
    )
    .unwrap();
    let config = ServeConfig {
        deadline_us: 2_000_000,
        ..serve_config()
    };

    let mut call = Duration::ZERO;
    let mut shutdowns = Duration::ZERO;
    for cycle in 0..CYCLES {
        let handle = ServeEngine::start(net.clone(), &config);
        let client = handle.client();
        let _outstanding = handle.client();
        let before = client.infer(&row).unwrap();
        let t = Instant::now();
        client.infer(&row).unwrap();
        call += t.elapsed();
        if cycle % 2 == 1 {
            // Staged on an idle engine; the wake token it sends must be
            // consumed as a token, never as a slot id, and the swap lands
            // at a batch boundary — the next request or the one after.
            handle.reload(&path).unwrap();
            assert!(
                (0..10).any(|_| client.infer(&row).unwrap() != before),
                "cycle {cycle}: reloaded weights never served"
            );
        }
        let t = Instant::now();
        let stats = handle.shutdown().expect("engine exits cleanly");
        shutdowns += t.elapsed();
        assert!(stats.rows >= 2);
        assert_eq!(client.infer(&row), Err(ServeError::Shutdown));
    }
    let _ = std::fs::remove_dir_all(&dir);
    let bound = (10 * call / CYCLES).max(Duration::from_millis(10));
    assert!(
        shutdowns / CYCLES < bound,
        "mean shutdown {:?} vs bound {bound:?} (one-row call {:?})",
        shutdowns / CYCLES,
        call / CYCLES
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Blocks never exceed the row limit, and no id outstays the drain
    /// that picked it up. Drives the pure batcher the way the engine loop
    /// does — each round, drain the queue into the block until it is full
    /// or the queue is empty, then flush at once — over random arrival
    /// bursts (a burst is what queued up while the previous block ran).
    #[test]
    fn batcher_never_overfills_and_never_overwaits(
        max_rows in 1usize..40,
        bursts in proptest::collection::vec(0usize..100, 1..40),
    ) {
        let mut mb = MicroBatcher::new(max_rows);
        let mut queue = std::collections::VecDeque::new();
        let mut next_id = 0usize;
        let mut seen = 0usize;
        let mut bursts = bursts.into_iter();
        loop {
            if let Some(n) = bursts.next() {
                queue.extend(next_id..next_id + n);
                next_id += n;
            } else if queue.is_empty() {
                break;
            }
            while !mb.is_full() {
                let Some(id) = queue.pop_front() else { break };
                mb.push(id);
            }
            prop_assert!(mb.len() <= max_rows, "block of {} exceeds {}", mb.len(), max_rows);
            prop_assert_eq!(mb.is_empty(), mb.pending().is_empty());
            for id in mb.pending() {
                // Submission order is preserved across flushes.
                prop_assert_eq!(*id, seen);
                seen += 1;
            }
            mb.clear();
            prop_assert!(mb.is_empty(), "nothing is carried over to the next drain");
        }
        prop_assert_eq!(seen, next_id, "every request flushed exactly once");
    }

    /// Natural batching keeps open-loop capacity: a backlog drains into
    /// whole blocks — every block but the last is exactly `max_rows`.
    #[test]
    fn batcher_backlog_fills_whole_blocks(max_rows in 1usize..32, backlog in 1usize..200) {
        let mut mb = MicroBatcher::new(max_rows);
        let mut blocks = Vec::new();
        for id in 0..backlog {
            if mb.push(id) {
                prop_assert!(mb.is_full());
                blocks.push(mb.pending().to_vec());
                mb.clear();
            }
        }
        if !mb.is_empty() {
            blocks.push(mb.pending().to_vec());
        }
        prop_assert_eq!(blocks.len(), backlog.div_ceil(max_rows));
        prop_assert!(blocks[..blocks.len() - 1].iter().all(|b| b.len() == max_rows));
        prop_assert_eq!(blocks.concat(), (0..backlog).collect::<Vec<_>>());
    }

    /// End-to-end demux identity: random rows served through the engine
    /// (random batch/deadline geometry) are bitwise-identical to a serial
    /// `forward_with` over the same rows in the same order.
    #[test]
    fn served_outputs_bitwise_match_serial(
        rows in 1usize..14,
        max_batch in 1usize..6,
        deadline_us in 1u64..2000,
        seed in any::<u64>(),
    ) {
        let net = small_net();
        let x = sparse_binary_batch(rows, net.n_in(), 0.5, seed);
        let mut ws = InferWorkspace::for_network(&net, rows);
        let serial = net.forward_with(&x, false, &mut ws).clone();
        let config = ServeConfig {
            max_batch,
            deadline_us,
            slots: 2 * max_batch,
            queue: 2 * max_batch,
            parallel: false,
        };
        let handle = ServeEngine::start(net, &config);
        let client = handle.client();
        let mut out = Vec::new();
        for i in 0..rows {
            client.infer_into(x.row(i), &mut out).unwrap();
            prop_assert_eq!(out.as_slice(), serial.row(i), "row {}", i);
        }
        let stats = handle.shutdown().unwrap();
        prop_assert_eq!(stats.rows, rows as u64);
        prop_assert!(stats.max_rows <= max_batch as u64);
    }
}
