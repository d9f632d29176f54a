//! Train-while-serve chaos suite: one pool, two workloads, injected
//! failures in both.
//!
//! The [`OnlineSession`] claims that serving traffic and checkpointed
//! fine-tuning can share the single process-wide worker pool without
//! weakening either failure model. These tests pin both directions at
//! once, under live concurrency:
//!
//! * **serving**: every request submitted while training grinds on the
//!   same pool resolves to exactly one typed outcome — a result or a
//!   [`ServeError`] — and the engine's books balance (`rows` = Ok
//!   responses, sheds = typed shed errors), even with injected compute
//!   delays slowing every flush,
//! * **training**: an injected mid-run training crash restarts, resumes
//!   from the last committed checkpoint, and finishes **bitwise
//!   identical** to an offline, fault-free reference run — traffic
//!   hammering the pool the whole time changes nothing,
//! * **publishing**: committed checkpoint generations reach the live
//!   engine, and after the run the served outputs are exactly the
//!   trained weights' outputs, bit for bit.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

use radix_challenge::{
    ChallengeNetwork, FaultInjector, FaultPlan, OnlineConfig, OnlineSession, ServeClient,
    ServeConfig, ServeError,
};
use radix_data::sparse_binary_batch;
use radix_net::{MixedRadixSystem, RadixNetSpec};
use radix_nn::{
    train_regressor, Activation, Checkpointer, Init, Layer, Loss, Network, Optimizer,
    RestartPolicy, TrainConfig,
};
use radix_sparse::{CsrMatrix, DenseMatrix};

mod support;
use support::with_watchdog;

const WATCHDOG: Duration = Duration::from_secs(120);

/// Per-test scratch directory under the OS temp dir, cleared up front.
fn scratch_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("radix-online-test-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A small all-sparse RadiX-Net regression network (8 → 16 → 16 → 8).
fn radix_network(seed: u64) -> Network {
    let sys = MixedRadixSystem::new([2, 2, 2]).unwrap();
    let spec = RadixNetSpec::new(vec![sys], vec![1, 2, 2, 1]).unwrap();
    Network::from_fnnt(
        spec.build().fnnt(),
        Activation::Relu,
        Init::He,
        Loss::Mse,
        seed,
    )
}

/// Deterministic pseudo-data (no RNG): 32 samples of a fixed map on the
/// network's 8-wide input/output.
fn toy_regression() -> (DenseMatrix<f32>, DenseMatrix<f32>) {
    let n = 32;
    let mut x = DenseMatrix::zeros(n, 8);
    let mut y = DenseMatrix::zeros(n, 8);
    for i in 0..n {
        for j in 0..8 {
            let v = ((i * 7 + j * 3) % 13) as f32 / 13.0 - 0.5;
            x.set(i, j, v);
        }
        for j in 0..8 {
            y.set(i, j, 0.5 * x.get(i, j) - 0.25 * x.get(i, (j + 1) % 8));
        }
    }
    (x, y)
}

/// A configuration that exercises the interesting paths: pool-parallel
/// training chunks (shares the worker pool with serve flushes), the
/// fused decay+clip reduction, and a publish every 2 batches.
fn online_config() -> OnlineConfig {
    OnlineConfig {
        serve: ServeConfig {
            max_batch: 4,
            deadline_us: 5_000,
            slots: 8,
            queue: 8,
            parallel: true,
        },
        bias: 0.2,
        ymax: 4.0,
        train: TrainConfig {
            epochs: 4,
            batch_size: 8, // 32 samples → 4 batches/epoch, 16 global batches
            seed: 5,
            parallel_chunks: 4,
            weight_decay: 1e-3,
            grad_clip: Some(0.5),
            ..TrainConfig::default()
        },
        publish_every: 2,
        keep: 3,
        restarts: RestartPolicy {
            max_restarts: 3,
            backoff: Duration::from_millis(1),
        },
        publish_poll: Duration::from_millis(1),
    }
}

/// The sparse weight matrices of an all-sparse network.
fn sparse_csrs(net: &Network) -> Vec<CsrMatrix<f32>> {
    net.layers()
        .iter()
        .map(|l| match l {
            Layer::Sparse(sl) => sl.weights().clone(),
            Layer::Dense(_) => panic!("radix_network builds sparse layers only"),
        })
        .collect()
}

/// Typed-outcome tally from one traffic thread: every call accounted,
/// by kind.
#[derive(Default)]
struct Tally {
    ok: u64,
    shed: u64,
    rejected_width: u64,
    other_err: u64,
}

/// Hammers the client until `stop` — but never returns before at least 8
/// real outcomes, so a training run that finishes before the thread even
/// warms up still leaves evidence that traffic was served. Valid rows
/// are counted Ok / typed shed; a deliberately wrong-width row every
/// 16th call must be rejected typed at admission, never submitted.
fn traffic_loop(client: &ServeClient, rows: &DenseMatrix<f32>, stop: &AtomicBool) -> Tally {
    let mut tally = Tally::default();
    let mut i = 0usize;
    let bad = vec![0.25f32; 3];
    while !stop.load(Ordering::Acquire) || tally.ok + tally.shed < 8 {
        if i % 16 == 15 {
            match client.infer(&bad) {
                Err(ServeError::WidthMismatch { .. }) => tally.rejected_width += 1,
                other => panic!("wrong-width row must fail typed at admission, got {other:?}"),
            }
        } else {
            match client.infer(rows.row(i % rows.nrows())) {
                Ok(out) => {
                    assert_eq!(out.len(), client.n_out(), "torn response");
                    tally.ok += 1;
                }
                Err(ServeError::DeadlineExceeded) | Err(ServeError::Overloaded) => tally.shed += 1,
                Err(e) => panic!("unexpected serve outcome under live training: {e:?}"),
            }
        }
        i += 1;
    }
    tally
}

/// Baseline live run: no faults. Training shares the pool with real
/// traffic; the run must publish, the history must equal an offline
/// fault-free reference bitwise, the books must balance, and the served
/// outputs must land on the trained weights exactly.
#[test]
fn fine_tune_publishes_and_books_balance_under_live_traffic() {
    with_watchdog("online-baseline", WATCHDOG, || {
        let config = online_config();
        let (x, y) = toy_regression();

        // Offline fault-free reference: same net, optimizer, config.
        let mut ref_net = radix_network(11);
        let mut ref_opt = Optimizer::sgd(0.05);
        let ref_history = train_regressor(&mut ref_net, &x, &y, &mut ref_opt, &config.train);

        let mut net = radix_network(11);
        let mut opt = Optimizer::sgd(0.05);
        let dir = scratch_dir("baseline");
        let mut session =
            OnlineSession::start(&net, &config, &dir).expect("sparse net must start serving");
        let client = session.client();
        let rows = sparse_binary_batch(6, client.n_in(), 0.5, 7);

        let stop = AtomicBool::new(false);
        let (report, tally) = std::thread::scope(|s| {
            let traffic = s.spawn(|| traffic_loop(&client, &rows, &stop));
            let report = session
                .fine_tune_regressor(&mut net, &x, &y, &mut opt, &config)
                .expect("fault-free fine-tune succeeds");
            stop.store(true, Ordering::Release);
            (
                report,
                traffic.join().expect("traffic thread must not panic"),
            )
        });

        assert_eq!(report.restarts, 0);
        assert!(
            report.publish.published >= 1,
            "at least the final checkpoint must publish, got {:?}",
            report.publish
        );
        assert_eq!(
            report.publish.errors, 0,
            "no reload may fail in a fault-free run"
        );
        // Traffic on the shared pool cannot perturb training: bitwise
        // equal history and weights vs. the offline reference.
        assert_eq!(
            report.history, ref_history,
            "live traffic perturbed training"
        );
        for (a, b) in sparse_csrs(&net).iter().zip(sparse_csrs(&ref_net).iter()) {
            assert_eq!(a.data(), b.data(), "live traffic perturbed trained weights");
        }

        // Malformed traffic fails typed at admission even now, with a
        // staged reload possibly pending.
        match client.infer(&[0.25f32; 3]) {
            Err(ServeError::WidthMismatch { .. }) => {}
            other => panic!("wrong-width row must fail typed, got {other:?}"),
        }

        // The engine converges onto the trained weights (the final
        // publish is staged; the engine applies it at a batch boundary).
        let reference = ChallengeNetwork::from_layers(sparse_csrs(&net), config.bias, config.ymax);
        let expected = reference.forward(&rows, false);
        let mut swapped = false;
        for _ in 0..5_000 {
            match client.infer(rows.row(0)) {
                Ok(out) if out == expected.row(0) => {
                    swapped = true;
                    break;
                }
                Ok(_) | Err(ServeError::DeadlineExceeded) | Err(ServeError::Overloaded) => {}
                Err(e) => panic!("unexpected outcome while awaiting swap: {e:?}"),
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        assert!(
            swapped,
            "engine never picked up the final published weights"
        );
        for i in 0..rows.nrows() {
            assert_eq!(
                client.infer(rows.row(i)).unwrap(),
                expected.row(i),
                "served row {i} is not the trained weights' output"
            );
        }

        drop(client);
        let stats = session.finish().expect("clean shutdown");
        // Books balance: what traffic saw is what the engine counted.
        // (The swap-wait loop above also served rows, so `rows` is a
        // lower bound by the tally and an exact match on sheds' side
        // being typed.)
        assert!(
            stats.rows >= tally.ok,
            "engine answered {} rows but traffic got {} Oks",
            stats.rows,
            tally.ok
        );
        assert!(
            stats.shed_deadline + stats.shed_overload >= tally.shed,
            "typed sheds under-counted"
        );
        assert!(tally.ok > 0, "traffic must actually have been served");
        let _ = tally.rejected_width + tally.other_err; // tallied for completeness
    });
}

/// The chaos run: an injected training panic mid-run *and* injected
/// serve compute delays, with traffic live throughout. Training must
/// restart, resume from the last committed checkpoint, and finish
/// bitwise identical to the offline fault-free reference; every request
/// still resolves typed.
#[test]
fn training_resumes_bitwise_under_faults_while_traffic_continues() {
    with_watchdog("online-chaos", WATCHDOG, || {
        let config = online_config();
        let (x, y) = toy_regression();

        let mut ref_net = radix_network(23);
        let mut ref_opt = Optimizer::sgd(0.05);
        let ref_history = train_regressor(&mut ref_net, &x, &y, &mut ref_opt, &config.train);

        let mut net = radix_network(23);
        let mut opt = Optimizer::sgd(0.05);
        let dir = scratch_dir("chaos");

        // One plan for both paths, handed to the trainer and the engine
        // through the checkpointer: training crashes at global batch 6
        // (mid-epoch 2, past committed generations); the engine pays
        // 200 µs extra per flush.
        let faults = FaultInjector::new(FaultPlan {
            train_panic_at_batch: Some(6),
            train_panic_budget: 1,
            compute_delay_us: 200,
            ..FaultPlan::default()
        });
        let ckpt = Checkpointer::new(&dir)
            .expect("checkpoint dir")
            .with_every(config.publish_every)
            .with_keep(config.keep)
            .with_faults(faults);
        let mut session =
            OnlineSession::start_with(&net, &config, ckpt).expect("sparse net must start serving");
        let client = session.client();
        let rows = sparse_binary_batch(6, client.n_in(), 0.5, 9);

        let stop = AtomicBool::new(false);
        let served_during_crash = AtomicU64::new(0);
        let (report, tally) = std::thread::scope(|s| {
            let traffic = s.spawn(|| {
                let t = traffic_loop(&client, &rows, &stop);
                served_during_crash.store(t.ok, Ordering::Relaxed);
                t
            });
            let report = session
                .fine_tune_regressor(&mut net, &x, &y, &mut opt, &config)
                .expect("supervisor absorbs the injected crash");
            stop.store(true, Ordering::Release);
            (
                report,
                traffic.join().expect("traffic thread must not panic"),
            )
        });

        assert_eq!(report.restarts, 1, "exactly the injected crash restarts");
        // The recovery contract survives the shared pool: bitwise equal
        // to the offline fault-free run.
        assert_eq!(
            report.history, ref_history,
            "crash-resumed history diverged from the fault-free reference"
        );
        for (i, (a, b)) in sparse_csrs(&net)
            .iter()
            .zip(sparse_csrs(&ref_net).iter())
            .enumerate()
        {
            assert_eq!(
                a.data(),
                b.data(),
                "layer {i} weights diverged after crash-resume under traffic"
            );
        }
        assert!(
            report.publish.published >= 1,
            "publishing must survive the crash, got {:?}",
            report.publish
        );
        assert!(
            tally.ok > 0,
            "traffic must keep being served across the training crash"
        );

        drop(client);
        let stats = session.finish().expect("clean shutdown after chaos");
        assert!(stats.rows >= tally.ok);
    });
}
