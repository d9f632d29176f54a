//! Property tests for the Graph-Challenge harness: schedule equivalence,
//! live-row compaction against an uncompacted reference,
//! conservation/monotonicity of the kernel, and configuration arithmetic
//! on random parameters.

use proptest::prelude::*;

use radix_challenge::{ChallengeConfig, ChallengeNetwork, InferWorkspace};
use radix_data::sparse_binary_batch;
use radix_sparse::{Bias, CsrMatrix, DenseMatrix, Epilogue, KernelPlan, Par};

fn small_config() -> impl Strategy<Value = ChallengeConfig> {
    (2usize..5, 2usize..4, 1usize..4)
        .prop_filter("bounded size", |(r, k, s)| {
            r.pow(*k as u32) <= 256 && k * s <= 12
        })
        .prop_map(|(r, k, s)| ChallengeConfig::preset(r, k, s))
}

/// Every element's bit pattern (stricter than `==`, which cannot tell
/// `-0.0` from `0.0`), with the shape.
fn bits(m: &DenseMatrix<f32>) -> (usize, usize, Vec<u32>) {
    (
        m.nrows(),
        m.ncols(),
        m.as_slice().iter().map(|v| v.to_bits()).collect(),
    )
}

/// Rows that are neither all `±0` nor all one finite value's bits (a
/// NaN or ±∞ element makes a row count).
fn non_constant_rows(m: &DenseMatrix<f32>) -> usize {
    (0..m.nrows())
        .filter(|&i| {
            let row = m.row(i);
            let zero = row.iter().all(|&v| v == 0.0);
            let constant =
                row[0].is_finite() && row.iter().all(|v| v.to_bits() == row[0].to_bits());
            !(zero || constant)
        })
        .count()
}

/// A `-0.0` row and a negative row, then a row holding one NaN and a
/// row holding one +∞. The first compares equal to zero everywhere; the
/// first layer clamps the second to zero, which a positive bias then
/// lifts to the constant `bias`; the last two never compare equal to
/// zero.
fn special_rows(n: usize) -> Vec<Vec<f32>> {
    let mut nan = vec![0.0; n];
    nan[n / 2] = f32::NAN;
    let mut inf = vec![0.0; n];
    inf[n - 1] = f32::INFINITY;
    vec![vec![-0.0; n], vec![-1.0; n], nan, inf]
}

/// One row per `(saturating, level)`: a saturating row holds `0.5 +
/// level / 2` everywhere (gain 2 drives it to `YMAX` under a −0.30 bias);
/// a dying row holds `0.3 · level` on two columns in three, below the
/// −0.30 fixed point, so it dies after a level-dependent number of
/// layers. In order, saturating rows come first, then dying rows, then
/// `extra`; `shuffle` permutes all of them (Fisher–Yates on a seeded LCG).
fn mixed_rows(
    n: usize,
    rows: &[(bool, f32)],
    extra: Vec<Vec<f32>>,
    shuffle: Option<u64>,
) -> DenseMatrix<f32> {
    let row = |k: usize, &(saturating, level): &(bool, f32)| -> Vec<f32> {
        (0..n)
            .map(|i| match (saturating, (i + k) % 3) {
                (true, _) => 0.5 + level / 2.0,
                (false, 0) => 0.0,
                (false, _) => 0.3 * level,
            })
            .collect()
    };
    let mut all: Vec<Vec<f32>> = rows
        .iter()
        .enumerate()
        .filter(|(_, r)| r.0)
        .chain(rows.iter().enumerate().filter(|(_, r)| !r.0))
        .map(|(k, r)| row(k, r))
        .chain(extra)
        .collect();
    if let Some(mut state) = shuffle {
        for i in (1..all.len()).rev() {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            all.swap(i, (state >> 33) as usize % (i + 1));
        }
    }
    let batch = all.len();
    DenseMatrix::from_vec(batch, n, all.concat()).unwrap()
}

/// Runs `x` through `config`'s layers at every block grain × bias
/// (negative, `-0.0`, `+0.0`, positive), serial and on the pool, and
/// checks each against a layer-by-layer reference that never drops a
/// row: the output bit for bit, `live_rows()` against the rows that are
/// neither zero nor one finite constant in the reference's input to the
/// last layer (every layer is uniform, so any such row folds through the
/// rest; the whole batch when there is one layer), and `row_layers()`
/// against the batch plus, for every later layer, those rows of its
/// input. Returns the `(bias, live_rows, row_layers)` triples seen.
fn assert_compaction_exact(
    config: &ChallengeConfig,
    x: &DenseMatrix<f32>,
) -> Vec<(f32, usize, usize)> {
    let base = ChallengeNetwork::from_config(config).unwrap();
    let csrs: Vec<CsrMatrix<f32>> = base.layers().iter().map(|l| l.to_csr()).collect();
    let ymax = config.ymax;
    let mut seen = Vec::new();
    for bias in [-0.30f32, -0.0, 0.0, 0.1] {
        let epi = Epilogue::new(Bias::Uniform(bias), move |v: f32| v.clamp(0.0, ymax));
        let mut acts = vec![x.clone()];
        for w in base.layers() {
            let mut next = DenseMatrix::default();
            w.spmm(acts.last().unwrap(), &mut next, &epi, Par::Serial)
                .unwrap();
            acts.push(next);
        }
        let expect = bits(acts.last().unwrap());
        let nlayers = csrs.len();
        let live = if nlayers > 1 {
            non_constant_rows(&acts[nlayers - 1])
        } else {
            x.nrows()
        };
        let row_layers = x.nrows()
            + (1..nlayers)
                .map(|l| non_constant_rows(&acts[l]))
                .sum::<usize>();
        for block_rows in [1usize, 7, 32] {
            let plan = KernelPlan {
                block_rows,
                tile_cols: 8,
                ..KernelPlan::default()
            };
            let net = ChallengeNetwork::from_layers_with_plan(csrs.clone(), bias, ymax, plan);
            for parallel in [false, true] {
                let mut ws = InferWorkspace::new();
                let y = net.forward_with(x, parallel, &mut ws);
                let what = format!("bias {bias}, parallel {parallel}, {plan:?}");
                assert_eq!(bits(y), expect, "{what}");
                assert_eq!(ws.live_rows(), live, "{what}");
                assert_eq!(ws.row_layers(), row_layers, "{what}");
            }
        }
        seen.push((bias, live, row_layers));
    }
    seen
}

#[test]
fn compaction_edge_batches_match_reference() {
    // 16 neurons, 8 layers: the last layer's input is layer 7's output.
    let config = ChallengeConfig::preset(2, 4, 2);
    let n = config.neurons();
    let at = |seen: &[(f32, usize, usize)], bias: f32| {
        seen.iter()
            .find(|&&(b, _, _)| b.to_bits() == bias.to_bits())
            .map(|&(_, live, row_layers)| (live, row_layers))
            .unwrap()
    };

    // No rows at all.
    let seen = assert_compaction_exact(&config, &DenseMatrix::zeros(0, n));
    assert!(seen
        .iter()
        .all(|&(_, live, row_layers)| live == 0 && row_layers == 0));

    // Every row dies in the first layer under the −0.30 bias. Under
    // every bias each row is zero or one finite constant (a positive
    // bias lifts a zero row to the constant `bias`) by the last layer's
    // input, and every layer is uniform, so every row leaves.
    let dying = [(false, 0.0), (false, 0.05), (false, 0.1)];
    let mut specials = special_rows(n);
    let never_zero = specials.split_off(2);
    let x = mixed_rows(n, &dying, specials, Some(7));
    let seen = assert_compaction_exact(&config, &x);
    // Under −0.30 the five rows are computed by the first layer only.
    assert_eq!(at(&seen, -0.30), (0, 5));
    assert_eq!(at(&seen, 0.0).0, 0);
    assert_eq!(at(&seen, 0.1).0, 0);

    // No row dies: saturating rows and a +∞ row leave as the constant
    // `YMAX`; a NaN row is never a finite constant and stays, through
    // all 8 layers, against 6 row-layers for the other three rows.
    let x = mixed_rows(n, &[(true, 0.0), (true, 1.0)], never_zero, Some(3));
    let seen = assert_compaction_exact(&config, &x);
    assert!(seen
        .iter()
        .all(|&(_, live, row_layers)| live == 1 && row_layers == 14));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn compaction_matches_uncompacted_reference(
        config in small_config(),
        rows in proptest::collection::vec((any::<bool>(), 0.0f32..1.0), 0..12),
        specials in any::<bool>(),
        shuffle in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let n = config.neurons();
        let extra = if specials { special_rows(n) } else { Vec::new() };
        let x = mixed_rows(n, &rows, extra, shuffle.then_some(seed));
        assert_compaction_exact(&config, &x);
    }

    #[test]
    fn serial_and_pool_schedules_agree(config in small_config(), batch in 1usize..12, seed in any::<u64>()) {
        let net = ChallengeNetwork::from_config(&config).unwrap();
        let x = sparse_binary_batch(batch, net.n_in(), 0.5, seed);
        let serial = net.forward(&x, false);
        prop_assert_eq!(&net.forward(&x, true), &serial);
    }

    #[test]
    fn outputs_always_within_clamp(config in small_config(), seed in any::<u64>()) {
        let net = ChallengeNetwork::from_config(&config).unwrap();
        let x = sparse_binary_batch(4, net.n_in(), 0.9, seed);
        let y = net.forward(&x, false);
        for &v in y.as_slice() {
            prop_assert!((0.0..=config.ymax).contains(&v));
        }
    }

    #[test]
    fn config_arithmetic_consistent(config in small_config()) {
        let net = ChallengeNetwork::from_config(&config).unwrap();
        prop_assert_eq!(net.n_in(), config.neurons());
        prop_assert_eq!(net.layers().len(), config.num_layers());
        prop_assert_eq!(net.total_nnz(), config.total_edges());
    }

    #[test]
    fn zero_input_always_dies(config in small_config()) {
        // Negative bias + ReLU: zero in, zero out, at any depth.
        let net = ChallengeNetwork::from_config(&config).unwrap();
        let x = DenseMatrix::zeros(2, net.n_in());
        prop_assert!(net.forward(&x, false).all_equal_to(0.0));
    }
}
