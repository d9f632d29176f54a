//! End-to-end crash-and-recovery suite spanning training and serving:
//! a supervised training run killed by injected faults (panic, torn
//! checkpoint write, bit-flipped generation) must recover from the last
//! good checkpoint and finish **bitwise identical** to an uninterrupted
//! run, and a serving engine must hot-reload a training checkpoint
//! without dropping requests or ever exposing torn weights.
//!
//! Every scenario runs under the shared watchdog (`tests/support`): the
//! failure mode this suite exists to rule out is a recovery path that
//! wedges, and a wedged test must fail, not hang the harness.

mod support;

use std::time::Duration;

use radix_challenge::{ChallengeNetwork, ReloadError, ServeConfig, ServeEngine};
use radix_data::sparse_binary_batch;
use radix_net::{MixedRadixSystem, RadixNetSpec};
use radix_nn::{
    checkpoint, train_regressor, train_regressor_checkpointed, Activation, CheckpointError,
    Checkpointer, Init, Layer, Loss, Network, Optimizer, TrainConfig, TrainFaultInjector,
    TrainFaultPlan, TrainProgress, TrainRestartPolicy, TrainSupervisor,
};
use radix_sparse::{CsrMatrix, DenseMatrix, KernelPlan};
use support::with_watchdog;

const WATCHDOG: Duration = Duration::from_secs(120);

/// Per-test scratch directory under the OS temp dir, cleared up front so
/// a previous crashed run cannot leak generations into this one.
fn scratch_dir(name: &str) -> std::path::PathBuf {
    let dir =
        std::env::temp_dir().join(format!("radix-recovery-test-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Deterministic pseudo-data (no RNG): 32 samples of a fixed linear map.
fn toy_regression() -> (DenseMatrix<f32>, DenseMatrix<f32>) {
    let n = 32;
    let mut x = DenseMatrix::zeros(n, 4);
    let mut y = DenseMatrix::zeros(n, 2);
    for i in 0..n {
        for j in 0..4 {
            let v = ((i * 7 + j * 3) % 13) as f32 / 13.0 - 0.5;
            x.set(i, j, v);
        }
        y.set(i, 0, x.get(i, 0) - 0.5 * x.get(i, 1));
        y.set(i, 1, 0.25 * x.get(i, 2) + x.get(i, 3));
    }
    (x, y)
}

fn train_config() -> TrainConfig {
    TrainConfig {
        epochs: 4,
        batch_size: 8, // 32 samples → 4 batches/epoch, 16 global batches
        seed: 5,
        ..TrainConfig::default()
    }
}

/// Runs the reference (uninterrupted, checkpoint-free) training and the
/// supervised run under `plan` side by side, and asserts the recovered
/// result is bitwise identical to the reference.
fn assert_recovers_bitwise(name: &str, plan: TrainFaultPlan, expected_restarts: u32) {
    let (x, y) = toy_regression();
    let config = train_config();

    let mut ref_net = Network::dense(&[4, 6, 2], Activation::Tanh, Init::Xavier, Loss::Mse, 3);
    let mut ref_opt = Optimizer::momentum(0.05, 0.9);
    let pristine_net = ref_net.clone();
    let pristine_opt = ref_opt.clone();
    let ref_history = train_regressor(&mut ref_net, &x, &y, &mut ref_opt, &config);

    let dir = scratch_dir(name);
    let mut ckpt = Checkpointer::new(&dir)
        .expect("create checkpoint dir")
        .with_every(2)
        .with_keep(2)
        .with_faults(TrainFaultInjector::new(plan));

    let mut net = pristine_net;
    let mut opt = pristine_opt;
    let report = TrainSupervisor::new(TrainRestartPolicy::default())
        .run(&mut net, &mut opt, &mut ckpt, |net, opt, ckpt| {
            train_regressor_checkpointed(net, &x, &y, opt, &config, ckpt)
        })
        .expect("supervised run must recover within the restart budget");

    assert_eq!(
        report.restarts, expected_restarts,
        "every injected fault costs exactly one restart"
    );
    assert_eq!(
        report.history, ref_history,
        "recovered history must be bitwise identical to the uninterrupted run"
    );
    assert_eq!(
        net, ref_net,
        "recovered network must be bitwise identical to the uninterrupted run"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// A torn checkpoint write (the simulated crash mid-`write`, before the
/// atomic rename) kills the training "process"; the supervisor restarts
/// it, resume skips the stale `.tmp`, recovers from the previous good
/// generation, and finishes bitwise identical.
#[test]
fn supervised_training_rides_through_a_torn_checkpoint_write() {
    with_watchdog("torn-write", WATCHDOG, || {
        assert_recovers_bitwise(
            "torn-write",
            TrainFaultPlan {
                torn_write_gen: Some(2),
                ..TrainFaultPlan::default()
            },
            1,
        );
    });
}

/// A bit flip corrupts a fully-committed generation, then a later panic
/// kills training: resume must *skip* the newest (corrupt) generation,
/// fall back to the previous good one, and still finish bitwise
/// identical — the per-section CRC turns silent corruption into a clean
/// fallback.
#[test]
fn resume_falls_back_past_a_bit_flipped_generation() {
    with_watchdog("bit-flip", WATCHDOG, || {
        assert_recovers_bitwise(
            "bit-flip",
            TrainFaultPlan {
                // Gen 2 (the epoch-0 end save) commits with one bit
                // flipped; the panic fires two batches later, so recovery
                // has to reject gen 2 and resume from gen 1.
                bit_flip_gen: Some(2),
                panic_at_batch: Some(6),
                panic_budget: 1,
                ..TrainFaultPlan::default()
            },
            1,
        );
    });
}

/// An all-sparse network on the Figure-1 RadiX-Net topology
/// (8 → 16 → 16 → 8), initialized from `seed`.
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

const SERVE_BIAS: f32 = 0.2;
const SERVE_YMAX: f32 = 4.0;

fn serve_config() -> ServeConfig {
    ServeConfig {
        max_batch: 4,
        deadline_us: 200,
        slots: 8,
        queue: 8,
        parallel: false,
    }
}

/// Hot reload end to end: serve on weights A, save a checkpoint of
/// weights B (same topology, different values), `reload`, and watch the
/// served outputs switch from the A-reference to the B-reference — with
/// every intermediate response exactly one or the other, never torn.
#[test]
fn hot_reload_swaps_serving_weights_without_dropping_requests() {
    with_watchdog("hot-reload", WATCHDOG, || {
        let net_a = radix_network(11);
        let net_b = radix_network(77);
        let serve_net = ChallengeNetwork::from_layers(sparse_csrs(&net_a), SERVE_BIAS, SERVE_YMAX);
        let ref_a = ChallengeNetwork::from_layers(sparse_csrs(&net_a), SERVE_BIAS, SERVE_YMAX);
        let ref_b = ChallengeNetwork::from_layers(sparse_csrs(&net_b), SERVE_BIAS, SERVE_YMAX);

        let rows = sparse_binary_batch(4, serve_net.n_in(), 0.5, 7);
        let out_a = ref_a.forward(&rows, false);
        let out_b = ref_b.forward(&rows, false);
        assert_ne!(
            out_a.row(0),
            out_b.row(0),
            "references must be distinguishable for the swap to be observable"
        );

        let dir = scratch_dir("hot-reload");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("reload.radix");
        checkpoint::save(
            &path,
            &net_b,
            &Optimizer::adam(0.01),
            &TrainProgress::default(),
        )
        .unwrap();

        let handle = ServeEngine::start(serve_net, &serve_config());
        let client = handle.client();

        // Pre-reload traffic serves the A weights exactly.
        for i in 0..rows.nrows() {
            assert_eq!(client.infer(rows.row(i)).unwrap(), out_a.row(i));
        }

        handle
            .reload(&path)
            .expect("compatible checkpoint must stage");

        // The engine applies the staged swap at its next batch boundary
        // (an idle engine is woken for it at once). Until then each response
        // is the old weights, bit for bit; afterwards the new ones.
        let mut swapped = false;
        for _ in 0..5_000 {
            let out = client.infer(rows.row(0)).unwrap();
            if out == out_b.row(0) {
                swapped = true;
                break;
            }
            assert_eq!(
                out,
                out_a.row(0),
                "a response must be old weights or new weights, never torn"
            );
            std::thread::sleep(Duration::from_millis(2));
        }
        assert!(swapped, "engine never picked up the staged reload");

        // Steady state on the new weights: every row matches the
        // B-reference exactly.
        for i in 0..rows.nrows() {
            assert_eq!(client.infer(rows.row(i)).unwrap(), out_b.row(i));
        }

        drop(client);
        handle
            .shutdown()
            .expect("engine shuts down cleanly after reload");
        let _ = std::fs::remove_dir_all(&dir);
    });
}

/// A reload keeps the engine's kernel plan: an engine started on a
/// network built under a non-default plan prepares the replacement under
/// that same plan (not the process-wide one), so the block grain its
/// workspace was sized for survives the swap — and its replies stay
/// bitwise equal to `ChallengeNetwork::forward`, before and after.
#[test]
fn reload_keeps_the_engines_kernel_plan() {
    with_watchdog("reload-plan", WATCHDOG, || {
        let plan = KernelPlan {
            tile_cols: 4, // splits the 16-wide hidden layers
            block_rows: 3,
            ..KernelPlan::default()
        };
        assert_ne!(plan, KernelPlan::process());
        let net_a = radix_network(11);
        let net_b = radix_network(77);
        let serve_net = ChallengeNetwork::from_layers_with_plan(
            sparse_csrs(&net_a),
            SERVE_BIAS,
            SERVE_YMAX,
            plan,
        );
        assert_eq!(serve_net.plan(), plan);
        assert!(serve_net.layers().iter().any(|l| l.is_tiled()));
        let ref_a = ChallengeNetwork::from_layers(sparse_csrs(&net_a), SERVE_BIAS, SERVE_YMAX);
        let ref_b = ChallengeNetwork::from_layers(sparse_csrs(&net_b), SERVE_BIAS, SERVE_YMAX);
        let rows = sparse_binary_batch(4, serve_net.n_in(), 0.5, 7);
        let out_a = ref_a.forward(&rows, false);
        let out_b = ref_b.forward(&rows, false);
        assert_ne!(out_a.row(0), out_b.row(0));

        let dir = scratch_dir("reload-plan");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("reload.radix");
        checkpoint::save(
            &path,
            &net_b,
            &Optimizer::adam(0.01),
            &TrainProgress::default(),
        )
        .unwrap();

        let handle = ServeEngine::start(serve_net, &serve_config());
        assert_eq!(handle.plan(), plan);
        let client = handle.client();
        for i in 0..rows.nrows() {
            assert_eq!(client.infer(rows.row(i)).unwrap(), out_a.row(i));
        }

        handle.reload(&path).expect("compatible checkpoint stages");
        let mut swapped = false;
        for _ in 0..5_000 {
            if client.infer(rows.row(0)).unwrap() == out_b.row(0) {
                swapped = true;
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        assert!(swapped, "engine never picked up the staged reload");
        assert_eq!(handle.plan(), plan, "the plan survives the reload");
        for i in 0..rows.nrows() {
            assert_eq!(client.infer(rows.row(i)).unwrap(), out_b.row(i));
        }

        drop(client);
        // The engine checks the swapped-in network's plan against its own
        // (debug builds); a clean shutdown means that held.
        handle
            .shutdown()
            .expect("engine shuts down cleanly after reload");
        let _ = std::fs::remove_dir_all(&dir);
    });
}

/// Every way a reload can be refused — missing file, garbage bytes,
/// dense layers, wrong shapes, wrong layer count — is a typed error and
/// a no-op: the engine keeps serving its current weights exactly.
#[test]
fn reload_rejects_incompatible_checkpoints_and_keeps_serving() {
    with_watchdog("reload-reject", WATCHDOG, || {
        let net_a = radix_network(11);
        let serve_net = ChallengeNetwork::from_layers(sparse_csrs(&net_a), SERVE_BIAS, SERVE_YMAX);
        let ref_a = ChallengeNetwork::from_layers(sparse_csrs(&net_a), SERVE_BIAS, SERVE_YMAX);
        let rows = sparse_binary_batch(4, serve_net.n_in(), 0.5, 7);
        let out_a = ref_a.forward(&rows, false);

        let dir = scratch_dir("reload-reject");
        std::fs::create_dir_all(&dir).unwrap();
        let opt = Optimizer::sgd(0.1);
        let progress = TrainProgress::default();

        let handle = ServeEngine::start(serve_net, &serve_config());
        let client = handle.client();

        // Missing file.
        let missing = dir.join("does-not-exist.radix");
        assert!(matches!(
            handle.reload(&missing),
            Err(ReloadError::Checkpoint(CheckpointError::Io(_)))
        ));

        // Garbage bytes (wrong magic).
        let garbage = dir.join("garbage.radix");
        std::fs::write(&garbage, [0x5A; 64]).unwrap();
        assert!(matches!(
            handle.reload(&garbage),
            Err(ReloadError::Checkpoint(CheckpointError::BadMagic))
        ));

        // A dense network of the right sizes: the engine serves prepared
        // sparse layers only.
        let dense = dir.join("dense.radix");
        let dense_net = Network::dense(&[8, 16, 16, 8], Activation::Relu, Init::He, Loss::Mse, 1);
        checkpoint::save(&dense, &dense_net, &opt, &progress).unwrap();
        assert!(matches!(
            handle.reload(&dense),
            Err(ReloadError::NotSparse { layer: 0 })
        ));

        // Same layer count, different shapes (widths all 1 → 8×8 layers).
        let thin = dir.join("thin.radix");
        let sys = MixedRadixSystem::new([2, 2, 2]).unwrap();
        let thin_spec = RadixNetSpec::new(vec![sys], vec![1, 1, 1, 1]).unwrap();
        let thin_net = Network::from_fnnt(
            thin_spec.build().fnnt(),
            Activation::Relu,
            Init::He,
            Loss::Mse,
            1,
        );
        checkpoint::save(&thin, &thin_net, &opt, &progress).unwrap();
        assert!(matches!(
            handle.reload(&thin),
            Err(ReloadError::ShapeMismatch {
                layer: 0,
                expected: (8, 16),
                got: (8, 8),
            })
        ));

        // Wrong layer count entirely.
        let short = dir.join("short.radix");
        let short_sys = MixedRadixSystem::new([2, 2]).unwrap();
        let short_spec = RadixNetSpec::new(vec![short_sys], vec![1, 2, 1]).unwrap();
        let short_net = Network::from_fnnt(
            short_spec.build().fnnt(),
            Activation::Relu,
            Init::He,
            Loss::Mse,
            1,
        );
        checkpoint::save(&short, &short_net, &opt, &progress).unwrap();
        assert!(matches!(
            handle.reload(&short),
            Err(ReloadError::LayerCountMismatch {
                expected: 3,
                got: 2
            })
        ));

        // Every rejection was a no-op: the engine still serves the
        // original weights, bit for bit.
        for i in 0..rows.nrows() {
            assert_eq!(client.infer(rows.row(i)).unwrap(), out_a.row(i));
        }

        drop(client);
        handle
            .shutdown()
            .expect("engine unaffected by rejected reloads");
        let _ = std::fs::remove_dir_all(&dir);
    });
}
