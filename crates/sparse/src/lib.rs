//! # radix-sparse
//!
//! Sparse-matrix substrate for the RadiX-Net reproduction
//! (Robinett & Kepner, *RadiX-Net: Structured Sparse Matrices for Deep
//! Neural Networks*, 2019).
//!
//! The RadiX-Net construction is stated entirely in the language of sparse
//! matrices: adjacency submatrices of layered graphs (eq. 1), cyclic-shift
//! permutation matrices (eq. 2), and Kronecker products with all-ones
//! matrices (eq. 3). Verifying the paper's Theorem 1 requires taking matrix
//! powers / chained products whose entries are *path counts*, and the
//! downstream Graph-Challenge use case requires fast sparse × dense products.
//! This crate provides all of those building blocks:
//!
//! * [`CooMatrix`] — triplet builder format,
//! * [`CsrMatrix`] — compressed sparse row, the workhorse format,
//! * [`DenseMatrix`] — row-major dense matrices (activations, small checks),
//! * [`CyclicShift`] — the permutation matrix `P` of eq. (2) and its powers,
//! * [`mod@kron`] — Kronecker products, including the all-ones ⊗ sparse fast
//!   path used by the RadiX-Net builder,
//! * [`ops`] — the serial reference products (CSR × dense, dense × CSR,
//!   CSR × CSR), CSR addition, chained products and matrix powers over an
//!   abstract [`Scalar`] semiring,
//! * [`kernel`] — the prepared-kernel engine: [`PreparedWeights`] stores a
//!   sum of cyclic shifts (every square RadiX-Net layer) as its value
//!   diagonals and runs every product on them as index-free shift-adds;
//!   any other matrix keeps its CSR, with an ELLPACK walk when its row
//!   degree is constant. Products are allocation-free into reusable
//!   buffers, configured by a [`KernelPlan`] value, with fused
//!   bias/activation [`Epilogue`]s,
//! * [`PathCount`] — a saturating `u128` scalar so Theorem-1 verification
//!   cannot silently overflow,
//! * [`io`] — Graph-Challenge-style TSV reading/writing.
//!
//! Everything is generic over a minimal [`Scalar`] trait (a commutative
//! semiring with equality) so the same kernels serve `f32`/`f64` weights,
//! `u64`/[`PathCount`] path counting, and boolean-like structural algebra.
//!
//! ## Quick example
//!
//! ```
//! use radix_sparse::{CooMatrix, CsrMatrix, DenseMatrix, ops};
//!
//! // The adjacency submatrix W of a 2-radix layer on 4 nodes:
//! // W = P^0 + P^2  (two offset "decision tree" edges per node).
//! let mut coo = CooMatrix::<f64>::new(4, 4);
//! for j in 0..4 {
//!     coo.push(j, j, 1.0);
//!     coo.push(j, (j + 2) % 4, 1.0);
//! }
//! let w: CsrMatrix<f64> = coo.to_csr();
//! assert_eq!(w.nnz(), 8);
//! let ones = DenseMatrix::from_rows(&[&[1.0; 4]]);
//! let y = ops::dense_spmm(&ones, &w).unwrap();
//! assert_eq!(y.row(0), &[2.0; 4]); // column sums: every node has in-degree 2
//! ```

#![deny(missing_docs)]
// The only `unsafe` is the call into the AVX2 copy of each diagonal
// kernel (`kernel/tiled.rs`), allowed site by site after the CPU check.
#![deny(unsafe_code)]
#![deny(clippy::undocumented_unsafe_blocks)]

pub mod coo;
pub mod csr;
pub mod dense;
pub mod error;
pub mod io;
pub mod kernel;
pub mod kron;
pub mod ops;
pub mod perm;
pub mod scalar;

pub use coo::CooMatrix;
pub use csr::CsrMatrix;
pub use dense::{AsDenseView, DenseMatrix, DenseView};
pub use error::SparseError;
pub use kernel::{Bias, Epilogue, KernelPlan, Par, PreparedWeights};
pub use kron::{kron, kron_ones_left};
pub use perm::CyclicShift;
pub use scalar::{PathCount, Scalar};
