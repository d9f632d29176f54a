//! Property tests for the Graph-Challenge harness: schedule equivalence,
//! conservation/monotonicity of the kernel, and configuration arithmetic
//! on random parameters.

use proptest::prelude::*;

use radix_challenge::{ChallengeConfig, ChallengeNetwork};
use radix_data::sparse_binary_batch;
use radix_sparse::DenseMatrix;

fn small_config() -> impl Strategy<Value = ChallengeConfig> {
    (2usize..5, 2usize..4, 1usize..4)
        .prop_filter("bounded size", |(r, k, s)| {
            r.pow(*k as u32) <= 256 && k * s <= 12
        })
        .prop_map(|(r, k, s)| ChallengeConfig::preset(r, k, s))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

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
