//! Sparse linear-algebra kernels over an abstract [`crate::Scalar`] semiring.
//!
//! * [`spmm_dense`] — CSR × dense → dense,
//! * [`dense_spmm`] / [`dense_spmm_transposed`] — dense × CSR (and × CSRᵀ)
//!   → dense, the references the prepared kernels are pinned against,
//! * [`spmm`] — CSR × CSR → CSR via sparse accumulators,
//! * [`add`] — CSR + CSR,
//! * [`matpow`] — `A^k` for square `A`,
//! * [`chain_product`] — `W_1 · W_2 ⋯ W_M`, the layer-chained product used
//!   to verify Theorem 1 without materializing the full `(ΣD_iN')²`
//!   adjacency matrix.

mod add;
mod matpow;
mod spmm;
mod spmm_left;

pub use add::add;
pub use matpow::{chain_product, matpow};
pub use spmm::{spmm, spmm_dense};
pub use spmm_left::{dense_spmm, dense_spmm_transposed};
