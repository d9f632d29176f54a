//! Computational verification of Lemma 1, Lemma 2, and Theorem 1.
//!
//! The paper proves that mixed-radix, extended mixed-radix, and RadiX-Net
//! topologies satisfy *symmetry* — the same number of paths between every
//! input/output pair — and derives closed forms for that count. This module
//! computes the predicted counts and checks them against the actual chained
//! path-count matrix of a generated net.
//!
//! ## A note on Theorem 1's constant
//!
//! Theorem 1 states the path count as `(N')^{M−1} · ∏_{i=1}^{M̄−1} D_i`
//! (`M` = number of systems, `M̄` = total radices). Its proof invokes
//! Lemma 2, whose induction assumes each constituent mixed-radix topology
//! joins *every* input/output pair — true only when the system's product is
//! the full `N'`. When the **last** system's product `s` strictly divides
//! `N'` (allowed by constraint 2), the final block contributes a factor `s`
//! rather than `N'`, so the exact count is
//!
//! ```text
//! m = (N')^{M−2} · s · ∏_{i=1}^{M̄−1} D_i        (M ≥ 2)
//! m = ∏ D_i                                       (M = 1, full product)
//! ```
//!
//! which reduces to the paper's formula when `s = N'`. Symmetry itself
//! still holds in all cases. [`predicted_path_count`] implements the exact
//! generalized form; the test suite and `tests/theorem1.rs` verify it
//! against actual chain products, and [`paper_path_count`] keeps the
//! paper's literal formula so the two can be compared.

use radix_sparse::PathCount;

use crate::builder::RadixNetSpec;
use crate::fnnt::{Fnnt, Symmetry};

/// Report of a symmetry verification run.
#[derive(Debug, Clone, PartialEq)]
pub struct VerificationReport {
    /// What the symmetry check actually observed.
    pub observed: Symmetry,
    /// The path count predicted by (generalized) Theorem 1.
    pub predicted: PathCount,
    /// Whether observed and predicted agree.
    pub matches: bool,
}

/// The exact path count predicted by the generalized Theorem 1 for a
/// RadiX-Net spec (see module docs). Saturates on overflow.
#[must_use]
pub fn predicted_path_count(spec: &RadixNetSpec) -> PathCount {
    let n_prime = spec.n_prime() as u128;
    let m = spec.systems().len();
    let last_product = spec.systems()[m - 1].product() as u128;

    let mut count = PathCount(1);
    // Contribution of the mixed-radix chain:
    // (N')^{M−1} when the last product is full, else (N')^{M−2}·s.
    if m >= 2 {
        for _ in 0..(m - 2) {
            count = radix_sparse::Scalar::mul(count, PathCount(n_prime));
        }
        count = radix_sparse::Scalar::mul(count, PathCount(n_prime));
        // The (m−1) factors above assume every system is full; correct the
        // final one to the last system's actual product.
        if last_product != n_prime {
            // count currently holds (N')^{m−1}; rescale the last factor.
            // Recompute from scratch to avoid division on saturated values.
            count = PathCount(1);
            for _ in 0..(m - 2) {
                count = radix_sparse::Scalar::mul(count, PathCount(n_prime));
            }
            count = radix_sparse::Scalar::mul(count, PathCount(last_product));
        }
    }
    // Contribution of the dense widths: ∏_{i=1}^{M̄−1} D_i (interior only).
    let widths = spec.widths();
    for &d in &widths[1..widths.len() - 1] {
        count = radix_sparse::Scalar::mul(count, PathCount(d as u128));
    }
    count
}

/// The path count the *paper's literal* Theorem 1 formula gives,
/// `(N')^{M−1} · ∏_{i=1}^{M̄−1} D_i` — exact whenever the last system's
/// product equals `N'`. Kept separate so experiments can report
/// paper-vs-generalized.
#[must_use]
pub fn paper_path_count(spec: &RadixNetSpec) -> PathCount {
    let n_prime = spec.n_prime() as u128;
    let m = spec.systems().len();
    let mut count = PathCount(1);
    for _ in 0..(m - 1) {
        count = radix_sparse::Scalar::mul(count, PathCount(n_prime));
    }
    let widths = spec.widths();
    for &d in &widths[1..widths.len() - 1] {
        count = radix_sparse::Scalar::mul(count, PathCount(d as u128));
    }
    count
}

/// Builds the net from `spec`, runs the symmetry checker, and compares with
/// the generalized Theorem-1 prediction.
#[must_use]
pub fn verify_spec(spec: &RadixNetSpec) -> VerificationReport {
    let net = spec.build();
    verify_fnnt(net.fnnt(), predicted_path_count(spec))
}

/// Compares an already-built FNNT against a predicted uniform path count.
#[must_use]
pub fn verify_fnnt(fnnt: &Fnnt, predicted: PathCount) -> VerificationReport {
    let observed = fnnt.check_symmetry();
    let matches = matches!(&observed, Symmetry::Symmetric(m) if *m == predicted);
    VerificationReport {
        observed,
        predicted,
        matches,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::numeral::MixedRadixSystem;

    fn sys(radices: &[usize]) -> MixedRadixSystem {
        MixedRadixSystem::new(radices.to_vec()).unwrap()
    }

    #[test]
    fn lemma1_single_system_one_path() {
        // M = 1, widths all 1: a plain mixed-radix topology. Lemma 1: m = 1.
        let spec = RadixNetSpec::extended_mixed_radix(vec![sys(&[2, 3, 2])]).unwrap();
        let report = verify_spec(&spec);
        assert_eq!(report.predicted, PathCount(1));
        assert!(report.matches, "observed {:?}", report.observed);
    }

    #[test]
    fn lemma2_emr_path_count() {
        // M = 3 full systems, widths 1: m = (N')^{M−1} = 12² = 144.
        let spec = RadixNetSpec::extended_mixed_radix(vec![sys(&[3, 4]), sys(&[2, 6]), sys(&[12])])
            .unwrap();
        let report = verify_spec(&spec);
        assert_eq!(report.predicted, PathCount(144));
        assert!(report.matches, "observed {:?}", report.observed);
        assert_eq!(report.predicted, paper_path_count(&spec));
    }

    #[test]
    fn theorem1_with_widths() {
        // M = 2 systems over N' = 6, D = (2,3,2,1,2):
        // m = (N')^{1} · D_1·D_2·D_3 = 6 · 3·2·1 = 36.
        let spec =
            RadixNetSpec::new(vec![sys(&[2, 3]), sys(&[3, 2])], vec![2, 3, 2, 1, 2]).unwrap();
        let report = verify_spec(&spec);
        assert_eq!(report.predicted, PathCount(6 * 3 * 2));
        assert!(report.matches, "observed {:?}", report.observed);
    }

    #[test]
    fn divisor_last_system_generalized_count() {
        // N' = 8, last system (2,2) with product 4 | 8. M = 2 systems.
        // Generalized: (N')^{0} · 4 · ∏ interior D (all 1) = 4.
        // Paper's literal formula would claim 8.
        let spec = RadixNetSpec::extended_mixed_radix(vec![sys(&[2, 2, 2]), sys(&[2, 2])]).unwrap();
        let report = verify_spec(&spec);
        assert_eq!(report.predicted, PathCount(4));
        assert!(report.matches, "observed {:?}", report.observed);
        assert_eq!(paper_path_count(&spec), PathCount(8));
    }

    #[test]
    fn three_systems_divisor_last() {
        // N' = 12, systems (3,4), (4,3) full, then (6) with 6 | 12.
        // Generalized: (12)^{1} · 6 = 72.
        let spec = RadixNetSpec::extended_mixed_radix(vec![sys(&[3, 4]), sys(&[4, 3]), sys(&[6])])
            .unwrap();
        let report = verify_spec(&spec);
        assert_eq!(report.predicted, PathCount(72));
        assert!(report.matches, "observed {:?}", report.observed);
    }

    #[test]
    fn widths_scale_path_count_multiplicatively() {
        let base = RadixNetSpec::new(vec![sys(&[2, 2])], vec![1, 1, 1]).unwrap();
        let wide = RadixNetSpec::new(vec![sys(&[2, 2])], vec![1, 5, 1]).unwrap();
        let r_base = verify_spec(&base);
        let r_wide = verify_spec(&wide);
        assert!(r_base.matches && r_wide.matches);
        assert_eq!(
            r_wide.predicted.exact().unwrap(),
            5 * r_base.predicted.exact().unwrap()
        );
    }

    #[test]
    fn input_output_widths_do_not_affect_count() {
        // D_0 and D_M̄ multiply node counts, not path counts.
        let a = RadixNetSpec::new(vec![sys(&[2, 2])], vec![1, 2, 1]).unwrap();
        let b = RadixNetSpec::new(vec![sys(&[2, 2])], vec![7, 2, 9]).unwrap();
        assert_eq!(predicted_path_count(&a), predicted_path_count(&b));
        assert!(verify_spec(&b).matches);
    }

    #[test]
    fn prediction_saturates_gracefully() {
        // Deep chain of systems over a large N' would overflow u128; the
        // prediction must saturate, not panic. N' = 2^40, 5 systems.
        let big = sys(&[1 << 20, 1 << 20]);
        let systems = vec![big.clone(), big.clone(), big.clone(), big.clone(), big];
        let total: usize = systems.iter().map(MixedRadixSystem::len).sum();
        let spec = RadixNetSpec::new(systems, vec![1; total + 1]).unwrap();
        // (2^40)^4 = 2^160 > u128::MAX → saturated.
        assert!(predicted_path_count(&spec).is_saturated());
    }
}
