//! Checkpoint subsystem integration suite.
//!
//! Pins the three acceptance-critical properties:
//!
//! 1. **Kill-at-batch-N-and-resume is bitwise identical** to an
//!    uninterrupted run (proptest over kill points, cadences, optimizers,
//!    and seeds) — the PR 5 fixed-order reduction plus shuffle-replay
//!    resume make this provable, not approximate.
//! 2. **Round-trip exactness**: encode→decode reproduces the network,
//!    optimizer, and progress bit-for-bit (proptest over architectures
//!    and training states).
//! 3. **Hostile bytes never panic**: every truncation and byte flip of a
//!    valid checkpoint resolves to a typed `CheckpointError` (fuzz), and
//!    recovery falls back to the last good generation — including past
//!    stale `.tmp` files from torn writes.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;

use proptest::prelude::*;

use radix_net::{MixedRadixSystem, MixedRadixTopology, RadixNetSpec};
use radix_nn::checkpoint::{decode, encode, load, save};
use radix_nn::{
    train_classifier, train_classifier_checkpointed, train_regressor, Activation, CheckpointError,
    Checkpointer, FaultInjector, FaultPlan, Init, Layer, Loss, Network, Optimizer, TrainConfig,
    TrainProgress, INJECTED_PANIC_MSG,
};
use radix_sparse::DenseMatrix;

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("radix-ckpt-it-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Deterministic 2-class toy data (no RNG: reproducible across runs).
fn toy_problem(n: usize) -> (DenseMatrix<f32>, Vec<usize>) {
    let mut x = DenseMatrix::zeros(n, 8);
    let mut labels = Vec::with_capacity(n);
    for i in 0..n {
        let class = i % 2;
        let center: f32 = if class == 0 { 1.0 } else { -1.0 };
        for j in 0..8 {
            let jitter = (((i * 31 + j * 17) % 41) as f32 / 41.0 - 0.5) * 0.8;
            x.set(i, j, center + jitter);
        }
        labels.push(class);
    }
    (x, labels)
}

fn radix_classifier(seed: u64) -> Network {
    let spec = RadixNetSpec::new(
        vec![MixedRadixSystem::new([2, 2, 2]).unwrap()],
        vec![1, 2, 2, 1],
    )
    .unwrap();
    Network::from_fnnt(
        &spec.build().into_fnnt(),
        Activation::Tanh,
        Init::Xavier,
        Loss::SoftmaxCrossEntropy,
        seed,
    )
}

fn make_optimizer(kind: u8) -> Optimizer {
    match kind % 3 {
        0 => Optimizer::sgd(0.05),
        1 => Optimizer::momentum(0.05, 0.9),
        _ => Optimizer::adam(0.01),
    }
}

/// A mid-training state with populated optimizer tables and history —
/// the representative encode/decode subject.
fn trained_state(opt_kind: u8, seed: u64) -> (Network, Optimizer, TrainProgress) {
    let (x, labels) = toy_problem(48);
    let mut net = radix_classifier(seed);
    let mut opt = make_optimizer(opt_kind);
    let config = TrainConfig {
        epochs: 2,
        batch_size: 16,
        seed,
        ..TrainConfig::default()
    };
    let history = train_classifier(&mut net, &x, &labels, &mut opt, &config);
    let progress = TrainProgress {
        epoch: 2,
        batch: 0,
        seed,
        epoch_loss: 0.0,
        history,
    };
    (net, opt, progress)
}

#[test]
fn save_then_load_roundtrips_exactly() {
    let (net, opt, progress) = trained_state(2, 7);
    let dir = scratch_dir("roundtrip-file");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("state.radix");
    save(&path, &net, &opt, &progress).unwrap();
    let ck = load(&path).unwrap();
    assert_eq!(ck.net, net);
    assert_eq!(ck.progress, progress);
    // Optimizer equality via canonical re-encode (HashMap lacks Eq here).
    assert_eq!(
        encode(&ck.net, &ck.opt, &ck.progress),
        encode(&net, &opt, &progress)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn momentum_state_of_a_cyclic_net_is_stored_in_csr_order() {
    // Mixed radix (2, 4, 2) on 16 nodes: three Σ P^(t·ν) layers, each
    // stored as its diagonals, so weights and velocity live in storage
    // order `t·n + j` in memory.
    let fnnt = MixedRadixTopology::new(MixedRadixSystem::new([2, 4, 2]).unwrap()).into_fnnt();
    let mut net = Network::from_fnnt(&fnnt, Activation::Tanh, Init::Xavier, Loss::Mse, 5);
    let n = net.n_in();
    let mut x = DenseMatrix::zeros(24, n);
    let mut y = DenseMatrix::zeros(24, n);
    for b in 0..24 {
        for j in 0..n {
            x.set(b, j, ((b * 7 + j * 3) % 13) as f32 * 0.1 - 0.6);
            y.set(b, j, ((b + j * 5) % 11) as f32 * 0.05);
        }
    }
    let mut opt = Optimizer::momentum(0.05, 0.9);
    let config = TrainConfig {
        epochs: 2,
        batch_size: 8,
        seed: 3,
        ..TrainConfig::default()
    };
    train_regressor(&mut net, &x, &y, &mut opt, &config);

    // encode → decode → encode is byte-identical, and decoding restores
    // the same network.
    let progress = TrainProgress::default();
    let bytes = encode(&net, &opt, &progress);
    let ck = decode(&bytes).unwrap();
    assert_eq!(ck.net, net);
    assert_eq!(encode(&ck.net, &ck.opt, &ck.progress), bytes);

    // The file holds layer 1's velocity (parameter 2) in CSR order. The
    // oracle maps CSR entry (i, j) of Σ P^(t·ν) to its storage slot
    // t·n + j directly, with t = ((j − i) mod n) / ν.
    let Layer::Sparse(layer) = &net.layers()[1] else {
        unreachable!("RadiX layers are sparse")
    };
    let Some((_, nu)) = layer.prepared().cyclic() else {
        panic!("a RadiX layer is stored as its diagonals")
    };
    let Optimizer::Momentum { velocity, .. } = &opt else {
        unreachable!()
    };
    let v = &velocity[&2];
    let le_bytes =
        |vals: Vec<f32>| -> Vec<u8> { vals.into_iter().flat_map(f32::to_le_bytes).collect() };
    let csr_order = le_bytes(
        layer
            .weights()
            .iter()
            .map(|(i, j, _)| v[(j + n - i) % n / nu * n + j])
            .collect(),
    );
    let storage_order = le_bytes(v.clone());
    let holds = |seq: &[u8]| bytes.windows(seq.len()).any(|w| w == seq);
    assert!(holds(&csr_order), "velocity must be written in CSR order");
    assert!(
        !holds(&storage_order),
        "storage order must not reach the file"
    );
}

#[test]
fn stale_tmp_file_is_invisible_to_recovery() {
    let (net, opt, progress) = trained_state(0, 9);
    let dir = scratch_dir("stale-tmp");
    let mut ck = Checkpointer::new(&dir).unwrap();
    let mut opt2 = opt.clone();
    let g = ck.save(&net, &mut opt2, &progress).unwrap();
    // A torn write's leftover: a half-written temp for the *next*
    // generation that never got renamed.
    let bytes = encode(&net, &opt, &progress);
    std::fs::write(
        dir.join(format!("ckpt-{:08}.tmp", g + 1)),
        &bytes[..bytes.len() / 2],
    )
    .unwrap();
    let (loaded_gen, loaded) = ck.load_latest().unwrap().expect("good generation exists");
    assert_eq!(loaded_gen, g);
    assert_eq!(loaded.net, net);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_newest_generation_falls_back_to_previous() {
    let (net, opt, progress) = trained_state(1, 10);
    let dir = scratch_dir("fallback");
    let mut ck = Checkpointer::new(&dir).unwrap().with_keep(2);
    let mut opt2 = opt.clone();
    let g1 = ck.save(&net, &mut opt2, &progress).unwrap();
    let mut progress2 = progress.clone();
    progress2.epoch += 1;
    let g2 = ck.save(&net, &mut opt2, &progress2).unwrap();
    assert_eq!(g2, g1 + 1);
    // Flip one bit in the newest generation on disk.
    let path = ck.generation_path(g2);
    let mut bytes = std::fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x10;
    std::fs::write(&path, &bytes).unwrap();
    // Direct load reports the checksum failure...
    assert!(matches!(
        load(&path),
        Err(CheckpointError::ChecksumMismatch { .. }) | Err(CheckpointError::Malformed { .. })
    ));
    // ...and recovery silently falls back to the previous generation.
    let (loaded_gen, loaded) = ck
        .load_latest()
        .unwrap()
        .expect("previous generation valid");
    assert_eq!(loaded_gen, g1);
    assert_eq!(loaded.progress, progress);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_write_fault_leaves_last_good_generation_standing() {
    let (net, opt, progress) = trained_state(2, 11);
    let dir = scratch_dir("torn");
    let plan = FaultPlan {
        torn_write_gen: Some(2),
        ..FaultPlan::default()
    };
    let mut ck = Checkpointer::new(&dir)
        .unwrap()
        .with_faults(FaultInjector::new(plan));
    let mut opt2 = opt.clone();
    let g1 = ck.save(&net, &mut opt2, &progress).unwrap();
    // Generation 2's write is torn: the save panics mid-write (simulated
    // crash before the atomic rename).
    let result = catch_unwind(AssertUnwindSafe(|| {
        let mut p2 = progress.clone();
        p2.epoch += 1;
        ck.save(&net, &mut opt2, &p2)
    }));
    let payload = result.expect_err("torn write must panic (simulated crash)");
    let msg = payload
        .downcast_ref::<String>()
        .cloned()
        .unwrap_or_default();
    assert!(msg.contains(INJECTED_PANIC_MSG), "{msg}");
    // Recovery: the torn temp never became a generation; g1 still loads.
    let ck2 = Checkpointer::new(&dir).unwrap();
    let (loaded_gen, loaded) = ck2.load_latest().unwrap().expect("last good generation");
    assert_eq!(loaded_gen, g1);
    assert_eq!(loaded.progress, progress);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn retention_prunes_old_generations() {
    let (net, opt, progress) = trained_state(0, 12);
    let dir = scratch_dir("prune");
    let mut ck = Checkpointer::new(&dir).unwrap().with_keep(2);
    let mut opt2 = opt.clone();
    for i in 0..5 {
        let mut p = progress.clone();
        p.epoch = i;
        ck.save(&net, &mut opt2, &p).unwrap();
    }
    assert_eq!(ck.generations().unwrap(), vec![4, 5]);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn decoder_rejects_bad_magic_and_version() {
    let (net, opt, progress) = trained_state(0, 13);
    let mut bytes = encode(&net, &opt, &progress);
    assert!(matches!(
        decode(b"not a checkpoint"),
        Err(CheckpointError::BadMagic)
    ));
    assert!(matches!(decode(&[]), Err(CheckpointError::BadMagic)));
    // Bump the version field (bytes 8..12) and fix nothing else: version
    // gate fires before any checksum work.
    bytes[8] = 0xFF;
    assert!(matches!(
        decode(&bytes),
        Err(CheckpointError::UnsupportedVersion {
            got: _,
            supported: 1
        })
    ));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Encode→decode is the identity on (network, optimizer, progress),
    /// bit for bit, across optimizer kinds and init seeds — and the
    /// encoding itself is deterministic (state tables are sorted).
    #[test]
    fn encode_decode_roundtrip_is_bitwise_identity(opt_kind in 0u8..3, seed in 0u64..1000) {
        let (net, opt, progress) = trained_state(opt_kind, seed);
        let bytes = encode(&net, &opt, &progress);
        let ck = decode(&bytes).expect("valid bytes decode");
        prop_assert_eq!(&ck.net, &net);
        prop_assert_eq!(&ck.progress, &progress);
        let reencoded = encode(&ck.net, &ck.opt, &ck.progress);
        prop_assert_eq!(reencoded, bytes);
    }

    /// The acceptance-criterion proptest: kill training at a random batch
    /// (injected panic), resume from the last good checkpoint, and the
    /// final network + history are **bitwise identical** to an
    /// uninterrupted run — across kill points, checkpoint cadences, and
    /// optimizer kinds.
    #[test]
    fn kill_at_batch_n_then_resume_is_bitwise_identical(
        kill_batch in 1u64..24,
        every in 1usize..5,
        opt_kind in 0u8..3,
        seed in 0u64..100,
    ) {
        let (x, labels) = toy_problem(64);
        // 64 samples / bs 16 = 4 batches × 6 epochs = 24 global batches.
        let config = TrainConfig {
            epochs: 6,
            batch_size: 16,
            seed,
            ..TrainConfig::default()
        };

        // Reference: uninterrupted, unsupervised, no checkpointing.
        let mut ref_net = radix_classifier(seed.wrapping_add(1));
        let mut ref_opt = make_optimizer(opt_kind);
        let ref_history = train_classifier(&mut ref_net, &x, &labels, &mut ref_opt, &config);

        // Victim: same run, checkpointed, killed at `kill_batch`.
        let dir = scratch_dir(&format!("kill-{kill_batch}-{every}-{opt_kind}-{seed}"));
        let plan = FaultPlan {
            train_panic_at_batch: Some(kill_batch),
            train_panic_budget: 1,
            ..FaultPlan::default()
        };
        {
            let mut ck = Checkpointer::new(&dir)
                .unwrap()
                .with_every(every)
                .with_faults(FaultInjector::new(plan));
            let mut net = radix_classifier(seed.wrapping_add(1));
            let mut opt = make_optimizer(opt_kind);
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                train_classifier_checkpointed(&mut net, &x, &labels, &mut opt, &config, &mut ck)
            }));
            prop_assert!(outcome.is_err(), "kill at batch {} must panic", kill_batch);
        }

        // Resume: fresh state, same directory, no faults.
        let mut ck = Checkpointer::new(&dir).unwrap().with_every(every);
        let mut net = radix_classifier(seed.wrapping_add(1));
        let mut opt = make_optimizer(opt_kind);
        let history =
            train_classifier_checkpointed(&mut net, &x, &labels, &mut opt, &config, &mut ck)
                .expect("resume succeeds");

        prop_assert_eq!(&history, &ref_history);
        prop_assert_eq!(&net, &ref_net);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Hostile-bytes fuzz: every truncation of a valid checkpoint yields
    /// a typed `CheckpointError`, never a panic.
    #[test]
    fn truncations_never_panic(cut_permille in 0u32..1000) {
        let (net, opt, progress) = trained_state(2, 5);
        let bytes = encode(&net, &opt, &progress);
        let cut = (bytes.len() as u64 * u64::from(cut_permille) / 1000) as usize;
        let truncated = &bytes[..cut];
        let outcome = catch_unwind(AssertUnwindSafe(|| decode(truncated)));
        let decoded = outcome.expect("decode must not panic on truncated bytes");
        prop_assert!(decoded.is_err(), "a {cut}-byte prefix must not decode");
    }

    /// Hostile-bytes fuzz: every single-byte corruption yields a typed
    /// `CheckpointError` — never a panic, never silently wrong weights.
    #[test]
    fn byte_flips_never_panic_or_pass(pos_permille in 0u32..1000, flip in 1u8..=255) {
        let (net, opt, progress) = trained_state(1, 6);
        let mut bytes = encode(&net, &opt, &progress);
        let pos = ((bytes.len() as u64 - 1) * u64::from(pos_permille) / 1000) as usize;
        bytes[pos] ^= flip;
        let outcome = catch_unwind(AssertUnwindSafe(|| decode(&bytes)));
        let decoded = outcome.expect("decode must not panic on flipped bytes");
        // The per-section CRCs + footer make any single-byte flip
        // detectable: silently accepting corrupted weights is the one
        // outcome the format exists to rule out.
        prop_assert!(decoded.is_err(), "flip {flip:#04x} at byte {pos} must not decode");
    }
}
