//! # radixnet
//!
//! Umbrella crate of the RadiX-Net reproduction (Robinett & Kepner, 2019):
//! re-exports the workspace crates under one roof and hosts the runnable
//! examples, CLI binaries, and cross-crate integration tests.
//!
//! | Module | Crate | Contents |
//! |--------|-------|----------|
//! | [`sparse`] | `radix-sparse` | COO/CSR/dense matrices, Kronecker products, the prepared-kernel engine, path-count semirings, TSV I/O |
//! | [`net`] | `radix-net` | Mixed-radix systems & topologies, the Figure-6 RadiX-Net builder, density formulas, Theorem-1 verification |
//! | [`xnet`] | `radix-xnet` | Random and Cayley X-Linear baseline layers |
//! | [`nn`] | `radix-nn` | Sparse/dense layers, backprop, optimizers, training loops |
//! | [`data`] | `radix-data` | Synthetic datasets (blobs, spirals, digit rasters, teacher nets, Challenge inputs) |
//! | [`challenge`] | `radix-challenge` | Graph-Challenge-style timed inference harness |
//!
//! ## Quickstart
//!
//! ```
//! use radixnet::net::{MixedRadixSystem, RadixNetSpec};
//!
//! // Build the RadiX-Net of Figure 5's shape: one (2,2,2) system,
//! // dense widths (3,5,4,2).
//! let sys = MixedRadixSystem::new([2, 2, 2])?;
//! let spec = RadixNetSpec::new(vec![sys], vec![3, 5, 4, 2])?;
//! let net = spec.build();
//! assert_eq!(net.fnnt().layer_sizes(), vec![24, 40, 32, 16]);
//! assert!(net.fnnt().check_symmetry().is_symmetric());
//! # Ok::<(), radixnet::net::RadixError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

/// Sparse matrix substrate (`radix-sparse`).
pub mod sparse {
    pub use radix_sparse::*;
}

/// Core RadiX-Net library (`radix-net`).
pub mod net {
    pub use radix_net::*;
}

/// X-Net baselines (`radix-xnet`).
pub mod xnet {
    pub use radix_xnet::*;
}

/// Neural-network substrate (`radix-nn`).
pub mod nn {
    pub use radix_nn::*;
}

/// Synthetic datasets (`radix-data`).
pub mod data {
    pub use radix_data::*;
}

/// Graph-Challenge harness (`radix-challenge`).
pub mod challenge {
    pub use radix_challenge::*;
}
