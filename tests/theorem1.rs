//! Integration test: Theorem 1 (and Lemmas 1–2) verified end-to-end across
//! a systematic family of RadiX-Net specifications, including the
//! divisor-last-system cases where the generalized count (see the
//! `radix_net::verify` module docs) differs from the paper's literal
//! formula.

use radixnet::net::{
    diversity, paper_path_count, predicted_path_count, verify_spec, MixedRadixSystem, RadixNetSpec,
    Symmetry,
};
use radixnet::sparse::PathCount;

#[test]
fn lemma1_exhaustive_small_systems() {
    // Every mixed-radix topology with N' ≤ 24: symmetric, one path.
    for n_prime in 2..=24usize {
        for radices in diversity::ordered_factorizations(n_prime) {
            if radices.is_empty() {
                continue;
            }
            let sys = MixedRadixSystem::new(radices.clone()).unwrap();
            let spec = RadixNetSpec::extended_mixed_radix(vec![sys]).unwrap();
            let report = verify_spec(&spec);
            assert_eq!(
                report.observed,
                Symmetry::Symmetric(PathCount(1)),
                "N = {radices:?}"
            );
        }
    }
}

#[test]
fn lemma2_emr_topologies() {
    // Extended mixed-radix nets over N' = 12 with 2 and 3 full systems.
    let systems_12 = diversity::systems_with_product(12);
    for a in &systems_12 {
        for b in &systems_12 {
            let spec = RadixNetSpec::extended_mixed_radix(vec![a.clone(), b.clone()]).unwrap();
            let report = verify_spec(&spec);
            assert!(report.matches, "{a} + {b}: {:?}", report.observed);
            assert_eq!(report.predicted, PathCount(12)); // (N')^{M-1} = 12
        }
    }
    // Three systems: path count 12² = 144.
    let spec = RadixNetSpec::extended_mixed_radix(vec![
        systems_12[0].clone(),
        systems_12[1 % systems_12.len()].clone(),
        systems_12[2 % systems_12.len()].clone(),
    ])
    .unwrap();
    let report = verify_spec(&spec);
    assert!(report.matches);
    assert_eq!(report.predicted, PathCount(144));
}

#[test]
fn theorem1_width_grid() {
    // Fixed topology, grid of widths: count scales as ∏ interior widths.
    let sys = MixedRadixSystem::new([2, 3]).unwrap();
    for d0 in 1..=2usize {
        for d1 in 1..=3usize {
            for d2 in 1..=2usize {
                let spec = RadixNetSpec::new(vec![sys.clone()], vec![d0, d1, d2]).unwrap();
                let report = verify_spec(&spec);
                assert!(report.matches, "D = ({d0},{d1},{d2})");
                assert_eq!(report.predicted, PathCount(d1 as u128));
            }
        }
    }
}

#[test]
fn divisor_last_system_family() {
    // N' = 16, last systems over each divisor: the generalized formula
    // (N')^{M−2}·s holds; the paper's literal (N')^{M−1} over-counts
    // whenever s < N'.
    let first = MixedRadixSystem::new([4, 4]).unwrap();
    for s in [2usize, 4, 8, 16] {
        for last_radices in diversity::ordered_factorizations(s) {
            if last_radices.is_empty() {
                continue;
            }
            let last = MixedRadixSystem::new(last_radices.clone()).unwrap();
            let spec = RadixNetSpec::extended_mixed_radix(vec![first.clone(), last]).unwrap();
            let report = verify_spec(&spec);
            assert!(
                report.matches,
                "last {last_radices:?}: {:?}",
                report.observed
            );
            assert_eq!(report.predicted, PathCount(s as u128));
            if s == 16 {
                assert_eq!(predicted_path_count(&spec), paper_path_count(&spec));
            } else {
                assert_ne!(predicted_path_count(&spec), paper_path_count(&spec));
            }
        }
    }
}

#[test]
fn symmetry_implies_path_connectedness() {
    // §II: "If G is symmetric, it is path-connected."
    let spec = RadixNetSpec::new(
        vec![
            MixedRadixSystem::new([3, 3]).unwrap(),
            MixedRadixSystem::new([9]).unwrap(),
        ],
        vec![2, 1, 3, 1],
    )
    .unwrap();
    let net = spec.build();
    assert!(net.fnnt().check_symmetry().is_symmetric());
    assert!(net.fnnt().is_path_connected());
}

#[test]
fn xnet_baseline_fails_symmetry_radixnet_passes() {
    // The paper's comparative point in one test: at the same density, the
    // random X-Net lacks the deterministic symmetry guarantee.
    use radixnet::xnet::{XNetKind, XNetSpec};
    let radix =
        RadixNetSpec::extended_mixed_radix(vec![MixedRadixSystem::new([2, 2, 2, 2]).unwrap()])
            .unwrap();
    assert!(verify_spec(&radix).matches);

    let x = XNetSpec {
        layer_sizes: vec![16; 5],
        degree: 2,
        kind: XNetKind::Random { seed: 3 },
    }
    .build()
    .unwrap();
    assert!(!x.check_symmetry().is_symmetric());
}
