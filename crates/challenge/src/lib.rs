//! # radix-challenge
//!
//! A Sparse DNN Graph-Challenge-style inference harness over RadiX-Net
//! generated networks — the paper's most visible downstream use (§IV
//! mentions the companion efforts; the MIT/IEEE/Amazon Sparse DNN Graph
//! Challenge generates its synthetic benchmark networks with RadiX-Net).
//!
//! * [`ChallengeConfig`] — `r^k` neurons × `k·S` layers at `r` connections
//!   per neuron, constant weight `1/r`, small negative bias, `YMAX` clamp —
//!   the Challenge generator's recipe at laptop scale,
//! * [`ChallengeNetwork`] — the timed inference kernel
//!   `Y ← clamp(ReLU(Y·W + b), 0, YMAX)` with Rayon row parallelism and
//!   edges/second reporting (the Challenge metric). Layers are prepared
//!   weights (`radix_sparse::kernel`) stored as their cyclic-shift value
//!   diagonals, with the nonlinearity fused in; the forward pass runs one
//!   layer at a time under its `radix_sparse::KernelPlan` (the
//!   process-wide one unless [`ChallengeNetwork::from_layers_with_plan`]
//!   is given another), and layer outputs ping-pong through an
//!   [`InferWorkspace`] so the timed region performs zero heap allocation
//!   after warm-up (serial and pool-parallel),
//! * [`ServeEngine`] — an async serving front-end: concurrent clients
//!   submit single rows, the engine executes whatever is queued at once
//!   (a [`MicroBatcher`] block of at most one tile block; rows coalesce
//!   only while a block is executing), and a demux stage routes
//!   results back — zero-alloc in steady state (`serve`). Failure is part
//!   of the API: every request resolves to exactly one typed
//!   [`ServeError`] outcome (width/finiteness validation, deadline sheds,
//!   overload rejection, engine death), [`ServeSupervisor`] restarts a
//!   crashed engine with bounded backoff, and the `fault` module injects
//!   deterministic faults (engine panics, compute delays, release stalls)
//!   for the chaos suites,
//! * [`OnlineSession`] — live train-while-serve on the one process-wide
//!   pool: crash-supervised checkpointed fine-tuning on the submitter
//!   thread, serve flushes on the scheduler's high-priority lane, and a
//!   publisher that hot-reloads every committed checkpoint generation
//!   into the engine at batch boundaries.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod catalog;
pub mod config;
pub mod fault;
pub mod infer;
pub mod online;
pub mod serve;
pub mod supervise;

pub use catalog::{challenge_ladder, CatalogEntry};
pub use config::ChallengeConfig;
pub use fault::{FaultInjector, FaultPlan};
pub use infer::{fuse_layers, ChallengeNetwork, InferWorkspace, InferenceStats};
pub use online::{OnlineConfig, OnlineError, OnlineReport, OnlineSession, PublishStats};
pub use serve::{
    MicroBatcher, ReloadError, ServeClient, ServeConfig, ServeEngine, ServeError, ServeHandle,
    ServeStats,
};
pub use supervise::{RestartPolicy, ServeSupervisor, SupervisorClient, SupervisorHandle};
