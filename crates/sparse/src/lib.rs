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
//! * [`CscMatrix`] — compressed sparse column (for column-major access),
//! * [`DenseMatrix`] — row-major dense matrices (activations, small checks),
//! * [`CyclicShift`] — the permutation matrix `P` of eq. (2) and its powers,
//! * [`mod@kron`] — Kronecker products, including the all-ones ⊗ sparse fast
//!   path used by the RadiX-Net builder,
//! * [`ops`] — SpMV, SpMM (serial and Rayon-parallel), chained products,
//!   matrix powers over an abstract [`Scalar`] semiring,
//! * [`kernel`] — the prepared-kernel engine: [`PreparedWeights`] with an
//!   ELLPACK fast path for the constant-row-degree matrices RadiX-Net
//!   produces, allocation-free products into reusable buffers configured
//!   by a [`KernelPlan`] value, and fused bias/activation [`Epilogue`]s,
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
//! use radix_sparse::{CooMatrix, CsrMatrix, ops};
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
//! let x = vec![1.0; 4];
//! let y = ops::spmv(&w, &x);
//! assert_eq!(y, vec![2.0; 4]); // row sums: every node has out-degree 2
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod coo;
pub mod csc;
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
pub use csc::CscMatrix;
pub use csr::CsrMatrix;
pub use dense::{AsDenseView, DenseMatrix, DenseView};
pub use error::SparseError;
pub use kernel::{Bias, Epilogue, KernelPlan, Par, PreparedWeights};
pub use kron::{kron, kron_ones_left};
pub use perm::CyclicShift;
pub use scalar::{PathCount, Scalar};
