//! # radix-nn
//!
//! Sparse/dense feedforward neural-network substrate for the RadiX-Net
//! reproduction. The paper's abstract rests on the empirical claim that
//! "certain sparse DNNs can train to the same precision as dense DNNs at
//! lower runtime and storage cost" (demonstrated for RadiX-Nets in the
//! companion work of Alford & Kepner); this crate provides the trainer that
//! lets the benchmark suite re-test that claim with RadiX-Net, X-Net, and
//! dense topologies flowing through *identical* code — the topology is the
//! only variable.
//!
//! * [`Layer`] — sparse (CSR-weighted) and dense linear layers with
//!   activations; backpropagation touches only structural nonzeros,
//! * [`Network`] — stacks layers, computes gradients serially or with
//!   Rayon data parallelism ([`Network::par_grad_batch`]),
//! * [`Optimizer`] — SGD / momentum / Adam,
//! * [`train_classifier`] / [`train_regressor`] — mini-batch loops,
//! * [`Init`] — structural-fan-in-aware initialization (a sparse layer's
//!   fan-in is its column degree, not the layer width),
//! * [`ForwardWorkspace`] / [`GradWorkspace`] — reusable activation and
//!   gradient buffers: forward passes ping-pong two buffers, training
//!   reuses its trace/delta/gradient storage across mini-batches, and the
//!   sparse layers run `radix_sparse::kernel`'s prepared kernels (index-free
//!   shift-adds over the diagonals of a RadiX layer, CSR/ELL walks for any
//!   other pattern) with the bias + activation epilogue fused in.
//!
//! ## Quick example
//!
//! ```
//! use radix_net::{MixedRadixSystem, MixedRadixTopology};
//! use radix_nn::{Activation, Init, Loss, Network};
//! use radix_sparse::DenseMatrix;
//!
//! let fnnt = MixedRadixTopology::new(MixedRadixSystem::new([2, 2, 2])?).into_fnnt();
//! let net = Network::from_fnnt(&fnnt, Activation::Relu, Init::He,
//!                              Loss::SoftmaxCrossEntropy, 42);
//! assert_eq!(net.n_in(), 8);
//! let x = DenseMatrix::zeros(4, 8);
//! assert_eq!(net.forward(&x).shape(), (4, 8));
//! # Ok::<(), radix_net::RadixError>(())
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod activation;
pub mod checkpoint;
pub mod fault;
pub mod init;
pub mod layer;
pub mod loss;
pub mod network;
pub mod optimizer;
pub mod supervise;
pub mod train;
pub mod workspace;

pub use activation::Activation;
pub use checkpoint::{Checkpoint, CheckpointError, Checkpointer, TrainProgress};
pub use fault::{TrainFaultInjector, TrainFaultPlan, WriteFault, INJECTED_TRAIN_PANIC_MSG};
pub use init::{init_dense, init_sparse, Init};
pub use layer::{DenseLinear, Layer, LayerGrads, SparseLinear};
pub use loss::{accuracy, softmax_row, Loss};
pub use network::{matched_dense_twin, Network, Targets};
pub use optimizer::Optimizer;
pub use supervise::{TrainReport, TrainRestartPolicy, TrainSuperviseError, TrainSupervisor};
pub use train::{
    clip_gradients, scale_to_max_norm, train_classifier, train_classifier_checkpointed,
    train_regressor, train_regressor_checkpointed, History, TrainConfig,
};
pub use workspace::{ForwardWorkspace, GradWorkspace, GradWorkspacePool};
