//! Property-based tests for the sparse substrate: every kernel is checked
//! against the dense reference implementation on random matrices, and the
//! algebraic identities the RadiX-Net proofs rely on (mixed-product
//! property, transpose duality, semiring laws at the matrix level) are
//! verified on random inputs.

use proptest::prelude::*;

use radix_sparse::ops;
use radix_sparse::{kron, kron_ones_left, CooMatrix, CsrMatrix, CyclicShift, DenseMatrix};

/// Strategy: a random sparse u64 matrix of bounded shape with small values
/// (small values keep every intermediate exact in both u64 and f64 checks).
fn sparse_matrix(max_dim: usize) -> impl Strategy<Value = CsrMatrix<u64>> {
    (1..=max_dim, 1..=max_dim).prop_flat_map(|(r, c)| {
        proptest::collection::vec((0..r, 0..c, 1u64..5), 0..(r * c).min(40)).prop_map(
            move |triplets| {
                let mut coo = CooMatrix::new(r, c);
                for (i, j, v) in triplets {
                    coo.push(i, j, v);
                }
                coo.to_csr()
            },
        )
    })
}

/// Strategy: a pair of matrices with conformable inner dimension.
fn conformable_pair() -> impl Strategy<Value = (CsrMatrix<u64>, CsrMatrix<u64>)> {
    (1usize..8, 1usize..8, 1usize..8).prop_flat_map(|(m, k, n)| {
        let a = proptest::collection::vec((0..m, 0..k, 1u64..5), 0..(m * k).min(30)).prop_map(
            move |ts| {
                let mut coo = CooMatrix::new(m, k);
                for (i, j, v) in ts {
                    coo.push(i, j, v);
                }
                coo.to_csr()
            },
        );
        let b = proptest::collection::vec((0..k, 0..n, 1u64..5), 0..(k * n).min(30)).prop_map(
            move |ts| {
                let mut coo = CooMatrix::new(k, n);
                for (i, j, v) in ts {
                    coo.push(i, j, v);
                }
                coo.to_csr()
            },
        );
        (a, b)
    })
}

proptest! {
    #[test]
    fn coo_csr_roundtrip_preserves_values((m, _) in conformable_pair()) {
        let d = m.to_dense();
        let back = CsrMatrix::from_dense(&d);
        prop_assert_eq!(back, m);
    }

    #[test]
    fn csr_invariants_always_hold(m in sparse_matrix(10)) {
        let validated = CsrMatrix::try_from_parts(
            m.nrows(), m.ncols(),
            m.indptr().to_vec(), m.indices().to_vec(), m.data().to_vec(),
        );
        prop_assert!(validated.is_ok());
    }

    #[test]
    fn transpose_is_involution(m in sparse_matrix(10)) {
        prop_assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn transpose_swaps_degrees(m in sparse_matrix(10)) {
        let t = m.transpose();
        prop_assert_eq!(m.row_degrees(), t.col_degrees());
        prop_assert_eq!(m.col_degrees(), t.row_degrees());
    }

    #[test]
    fn spmm_matches_dense_reference((a, b) in conformable_pair()) {
        let sparse = ops::spmm(&a, &b).unwrap();
        let dense = a.to_dense().matmul(&b.to_dense()).unwrap();
        prop_assert_eq!(sparse.to_dense(), dense);
    }

    #[test]
    fn spmm_dense_matches_sparse((a, b) in conformable_pair()) {
        let via_dense = ops::spmm_dense(&a, &b.to_dense()).unwrap();
        let via_sparse = ops::spmm(&a, &b).unwrap().to_dense();
        prop_assert_eq!(via_dense, via_sparse);
    }

    #[test]
    fn add_matches_dense((a, _) in conformable_pair(), seed in 0u64..1000) {
        // Build b with the same shape as a from the seed.
        let mut coo = CooMatrix::new(a.nrows(), a.ncols());
        let mut s = seed;
        for _ in 0..seed % 17 {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let i = (s >> 33) as usize % a.nrows();
            let j = (s >> 13) as usize % a.ncols();
            coo.push(i, j, s % 5 + 1);
        }
        let b = coo.to_csr();
        let sum = ops::add(&a, &b).unwrap();
        let mut expect = a.to_dense();
        for (i, j, v) in b.iter() {
            expect.set(i, j, expect.get(i, j) + v);
        }
        prop_assert_eq!(sum.to_dense(), expect);
    }

    #[test]
    fn kron_matches_dense((a, b) in conformable_pair()) {
        let k = kron(&a, &b);
        let dref = a.to_dense().kron(&b.to_dense());
        prop_assert_eq!(k.to_dense(), dref);
    }

    #[test]
    fn kron_ones_fast_path_matches_general(
        m in sparse_matrix(6), a in 1usize..4, b in 1usize..4
    ) {
        let ones = CsrMatrix::from_dense(&DenseMatrix::<u64>::ones(a, b));
        prop_assert_eq!(kron_ones_left(a, b, &m), kron(&ones, &m));
    }

    #[test]
    fn mixed_product_property(
        (a, c) in conformable_pair(), (b, d) in conformable_pair()
    ) {
        // (A⊗B)(C⊗D) = (AC)⊗(BD)
        let lhs = ops::spmm(&kron(&a, &b), &kron(&c, &d)).unwrap();
        let rhs = kron(&ops::spmm(&a, &c).unwrap(), &ops::spmm(&b, &d).unwrap());
        prop_assert_eq!(lhs, rhs);
    }

    #[test]
    fn cyclic_shift_pow_is_matrix_power(n in 1usize..12, off in 0usize..12, e in 0usize..6) {
        let p = CyclicShift::new(n, off);
        let sym: CsrMatrix<u64> = p.pow(e).to_csr();
        let explicit = ops::matpow(&p.to_csr::<u64>(), e).unwrap();
        prop_assert_eq!(sym, explicit);
    }

    #[test]
    fn radix_submatrix_row_degree_is_radix(
        n in 2usize..32, radix in 2usize..6
    ) {
        // With place value coprime-ish small, each row has `radix` targets
        // unless offsets collide mod n; with pv=1 and radix<=n they never do.
        prop_assume!(radix <= n);
        let w: CsrMatrix<u64> = CyclicShift::radix_submatrix(n, radix, 1);
        for i in 0..n {
            prop_assert_eq!(w.row_nnz(i), radix);
        }
    }

    #[test]
    fn tsv_roundtrip(m in sparse_matrix(10)) {
        let mut buf = Vec::new();
        radix_sparse::io::write_tsv(&m, &mut buf).unwrap();
        let back: CsrMatrix<u64> =
            radix_sparse::io::read_tsv(&buf[..], m.nrows(), m.ncols()).unwrap();
        prop_assert_eq!(back, m);
    }

    #[test]
    fn matpow_addition_law(
        n in 1usize..6,
        triplets in proptest::collection::vec((0usize..6, 0usize..6, 1u64..4), 0..20),
        i in 0usize..4,
        j in 0usize..4,
    ) {
        // A^i · A^j == A^(i+j) for square A.
        let mut coo = CooMatrix::new(n, n);
        for (r, c, v) in triplets {
            if r < n && c < n {
                coo.push(r, c, v);
            }
        }
        let m = coo.to_csr();
        let ai = ops::matpow(&m, i).unwrap();
        let aj = ops::matpow(&m, j).unwrap();
        let prod = ops::spmm(&ai, &aj).unwrap();
        prop_assert_eq!(prod, ops::matpow(&m, i + j).unwrap());
    }
}
