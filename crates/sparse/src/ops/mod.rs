//! Sparse linear-algebra kernels over an abstract [`crate::Scalar`] semiring.
//!
//! * [`spmv`] — sparse matrix × dense vector,
//! * [`spmm_dense`] — CSR × dense → dense,
//! * [`spmm`] — CSR × CSR → CSR via sparse accumulators,
//! * [`add`] — CSR + CSR,
//! * [`scale`] — scalar multiple,
//! * [`matpow`] — `A^k` for square `A`,
//! * [`chain_product`] — `W_1 · W_2 ⋯ W_M`, the layer-chained product used
//!   to verify Theorem 1 without materializing the full `(ΣD_iN')²`
//!   adjacency matrix.

mod add;
mod elementwise;
mod matpow;
mod spmm;
mod spmm_left;
mod spmv;
mod stack;

pub use add::{add, scale};
pub use elementwise::{hadamard, mask_to_pattern, pattern_overlap};
pub use matpow::{chain_product, matpow};
pub use spmm::{spmm, spmm_dense};
pub use spmm_left::{dense_spmm, dense_spmm_transposed};
pub use spmv::{spmv, spmv_into};
pub use stack::{block_diag, hstack, vstack};
