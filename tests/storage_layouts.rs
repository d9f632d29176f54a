//! Which storage a sparse training layer takes, and that every storage
//! trains the same: a RadiX-Net layer (`Σ_{t<r} P^(t·ν)`, paper eq. (2))
//! is stored as its value diagonals, while the same layer under a column
//! permutation and a random X-Net layer keep their CSR — and all three
//! give the per-edge weight gradient `Σ_b x[b, i] · δ[b, j]` bit for bit.

use rand::rngs::StdRng;
use rand::SeedableRng;

use radixnet::nn::{Activation, Layer, SparseLinear};
use radixnet::sparse::{CooMatrix, CsrMatrix, CyclicShift, DenseMatrix};
use radixnet::xnet::random_xlinear;

/// `pattern` with a distinct, never-zero weight on every edge.
fn weighted(pattern: &CsrMatrix<u64>) -> CsrMatrix<f32> {
    let mut k = 0u32;
    pattern.map(|_| {
        k += 1;
        (k % 29) as f32 * 0.0625 + 0.125
    })
}

/// A deterministic `rows × cols` batch holding `+0.0`, `-0.0` and
/// nonzero values.
fn batch(rows: usize, cols: usize, salt: usize) -> DenseMatrix<f32> {
    let mut m = DenseMatrix::zeros(rows, cols);
    for b in 0..rows {
        for j in 0..cols {
            let v = match (b * 5 + j * 3 + salt) % 6 {
                0 => -0.0,
                1 => 0.0,
                k => ((b * cols + j + salt) % 23) as f32 * 0.25 - k as f32,
            };
            m.set(b, j, v);
        }
    }
    m
}

/// The per-edge loop, in CSR order, rows ascending from `+0`.
fn per_edge(w: &CsrMatrix<f32>, x: &DenseMatrix<f32>, delta: &DenseMatrix<f32>) -> Vec<u32> {
    w.iter()
        .map(|(i, j, _)| {
            (0..x.nrows())
                .fold(0.0f32, |g, b| g + x.get(b, i) * delta.get(b, j))
                .to_bits()
        })
        .collect()
}

/// Backpropagates one batch through `w` as an identity-activation layer
/// and compares its weight gradient (read in CSR order) with the
/// per-edge loop.
fn check(w: &CsrMatrix<f32>, cyclic: Option<(usize, usize)>, what: &str) {
    let sparse = SparseLinear::new(w.clone(), Activation::Identity);
    assert_eq!(sparse.prepared().cyclic(), cyclic, "{what}: storage");
    let layer = Layer::Sparse(sparse.clone());
    let x = batch(7, w.nrows(), 1);
    let delta = batch(7, w.ncols(), 4);
    let out = layer.forward(&x);
    let (grads, _) = layer.backward(&x, &out, &delta);
    let got: Vec<u32> = sparse
        .prepared()
        .to_csr_order(&grads.w)
        .iter()
        .map(|g| g.to_bits())
        .collect();
    assert_eq!(got, per_edge(w, &x, &delta), "{what}: weight gradient");
    assert_eq!(sparse.weights(), *w, "{what}: CSR round trip");
}

#[test]
fn permuted_radix_and_xnet_layers_keep_csr_and_match_the_per_edge_loop() {
    let n = 64;
    let radix = weighted(&CyclicShift::radix_submatrix(n, 4, 4));
    check(&radix, Some((4, 4)), "RadiX layer");

    // One seeded column permutation: still constant-degree, no longer a
    // sum of shifts.
    let mut perm: Vec<usize> = (0..n).collect();
    let mut state = 0x2545_f491_4f6c_dd1du64;
    for i in (1..n).rev() {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        perm.swap(i, (state >> 33) as usize % (i + 1));
    }
    let mut coo = CooMatrix::new(n, n);
    for (i, j, v) in radix.iter() {
        coo.push(i, perm[j], v);
    }
    check(&coo.to_csr(), None, "column-permuted RadiX layer");

    let xnet = random_xlinear(n, n, 4, &mut StdRng::seed_from_u64(7)).expect("valid X-Linear");
    check(&weighted(&xnet), None, "random X-Net layer");
}
