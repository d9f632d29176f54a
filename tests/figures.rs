//! Integration tests pinning the quantitative content of every figure the
//! bench harness regenerates.

use radixnet::challenge::{ChallengeConfig, ChallengeNetwork};
use radixnet::data::sparse_binary_batch;
use radixnet::net::{density, MixedRadixSystem, RadixNetSpec};

/// Figure 7's exact surface: on the uniform grid `N' = µ^d`, density is
/// µ^{1−d} exactly; eq. (5) and eq. (6) coincide; measured edge counts of
/// built nets agree.
#[test]
fn fig7_grid_values() {
    for mu in 2..=8usize {
        for d in 1..=4usize {
            let (exact, eq5, eq6) = density::figure7_point(mu, d).unwrap();
            let analytic = (mu as f64).powf(1.0 - d as f64);
            assert!((exact - analytic).abs() < 1e-9, "µ={mu} d={d}");
            assert!((eq5 - eq6).abs() < 1e-9, "µ={mu} d={d}");
            // Measured on the built topology.
            let sys = MixedRadixSystem::uniform(mu, d).unwrap();
            let spec = RadixNetSpec::extended_mixed_radix(vec![sys]).unwrap();
            if spec.n_prime() <= 4096 {
                let measured = spec.build().fnnt().density();
                assert!(
                    (measured - exact).abs() < 1e-12,
                    "µ={mu} d={d}: measured {measured} vs exact {exact}"
                );
            }
        }
    }
}

/// Figure 7, monotonicity of the surface: density falls along both axes
/// (for d ≥ 2), spanning several orders of magnitude across the plotted
/// range — the "structured sparsity on demand" message of §III.B.
#[test]
fn fig7_surface_shape() {
    let (top_left, _, _) = density::figure7_point(2, 1).unwrap();
    let (bottom_right, _, _) = density::figure7_point(16, 5).unwrap();
    assert!((top_left - 1.0).abs() < 1e-12);
    assert!(bottom_right < 1e-4);
    assert!(top_left / bottom_right > 1e3);
}

/// Eq. (5)'s premise: with small radix variance the widths D barely move
/// the density; with large variance they can.
#[test]
fn eq5_width_sensitivity() {
    // Zero variance: exactly width-independent.
    let sys = MixedRadixSystem::uniform(3, 3).unwrap();
    let narrow = RadixNetSpec::new(vec![sys.clone()], vec![1, 1, 1, 1]).unwrap();
    let wide = RadixNetSpec::new(vec![sys], vec![7, 2, 9, 4]).unwrap();
    assert!((density::density_exact(&narrow) - density::density_exact(&wide)).abs() < 1e-15);

    // High variance (radices 2 and 12): asymmetric widths shift the
    // density (the weighted mean of eq. (4) tilts toward one radix).
    let skewed = MixedRadixSystem::new([2, 12]).unwrap();
    let a = RadixNetSpec::new(vec![skewed.clone()], vec![1, 1, 1]).unwrap();
    let b = RadixNetSpec::new(vec![skewed], vec![9, 1, 1]).unwrap();
    assert!(
        (density::density_exact(&a) - density::density_exact(&b)).abs() > 0.05,
        "high-variance density should move with widths: {} vs {}",
        density::density_exact(&a),
        density::density_exact(&b)
    );
}

/// The Graph-Challenge network family end to end: build, infer, account.
#[test]
fn challenge_end_to_end() {
    let config = ChallengeConfig::preset(4, 3, 4); // 64 neurons × 12 layers
    let net = ChallengeNetwork::from_config(&config).unwrap();
    assert_eq!(net.total_nnz(), config.total_edges());

    // Active fraction 0.5 puts the mean input activation above the 0.3
    // gain-2 fixed point, so signal persists to the output (the Challenge
    // regime; below 0.3 activations die out by design).
    let x = sparse_binary_batch(32, net.n_in(), 0.5, 0);
    let (y, stats) = net.run(&x, true);
    assert_eq!(y.shape(), (32, 64));
    assert_eq!(stats.edges_processed, 32 * config.total_edges() as u64);
    assert!(stats.rate > 0.0);
    // Signal survives 12 layers of ReLU with the Challenge bias.
    assert!(stats.final_active > 0);
    // And the serial schedule agrees with the pool one run() used.
    assert_eq!(net.forward(&x, false), y);
}

/// Topology-diversity counts: ordered factorizations of `N'`, explicit
/// X-Net layers, and two-system RadiX-Net specifications.
#[test]
fn diversity_counts_quoted() {
    use radixnet::net::diversity::*;
    // 1024 = 2^10: ordered factorizations = compositions of 10 = 2^9.
    assert_eq!(count_ordered_factorizations(1024), 512);
    assert_eq!(count_explicit_xnet_layers(1024), 1023);
    // 2-system specs over N' = 64.
    let h64 = count_ordered_factorizations(64);
    assert_eq!(h64, 32);
    let last: u128 = [2usize, 4, 8, 16, 32, 64]
        .iter()
        .map(|&d| count_ordered_factorizations(d))
        .sum();
    assert_eq!(count_radixnet_specs(64, 2), h64 * last);
}
