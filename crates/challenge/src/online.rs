//! Live train-while-serve: one pool, two workloads.
//!
//! The Graph Challenge networks this crate serves are not frozen
//! artifacts — the companion training work (PR 5/7) fine-tunes the same
//! sparse topologies. This module runs both at once on the *single*
//! process-wide worker pool: a [`ServeEngine`] keeps answering traffic
//! (its flush tiles ride the scheduler's high-priority lane, so they
//! preempt training chunks) while a crash-supervised, checkpointed
//! training loop improves the weights on the submitter thread. Every
//! committed checkpoint generation is *published* — staged into the
//! engine via [`ServeHandle::reload`], picked up at the engine's next
//! batch boundary — so served results march forward with training
//! without the engine ever stopping or a response ever being torn.
//!
//! Division of labour:
//!
//! * training = [`TrainSupervisor`] over the checkpointed mini-batch
//!   loop (`radix_nn::train_*_checkpointed`): crashes restart from the
//!   last committed generation, bitwise-identically (PR 7's contract —
//!   unchanged by the serve traffic sharing the pool, which the chaos
//!   suite pins),
//! * publishing = a small poller thread that watches the checkpoint
//!   directory for new committed generations and stages each into the
//!   engine; a failed reload (e.g. the engine died under fault
//!   injection) is counted, never fatal to training,
//! * serving = the caller's own threads holding [`ServeClient`] clones;
//!   the engine's typed-outcome guarantee (exactly one [`ServeError`]
//!   or a result per request) is unchanged.
//!
//! ```no_run
//! use radix_challenge::online::{OnlineConfig, OnlineSession};
//! # fn demo(net: radix_nn::Network,
//! #         x: radix_sparse::DenseMatrix<f32>,
//! #         y: radix_sparse::DenseMatrix<f32>) {
//! let config = OnlineConfig::default();
//! let mut session = OnlineSession::start(&net, &config, "ckpts".as_ref()).unwrap();
//! let client = session.client(); // hand clones to traffic threads
//! let mut net = net;
//! let mut opt = radix_nn::Optimizer::sgd(0.05);
//! let report = session
//!     .fine_tune_regressor(&mut net, &x, &y, &mut opt, &config)
//!     .unwrap();
//! assert!(report.publish.published > 0);
//! # let _ = client;
//! # session.finish().unwrap();
//! # }
//! ```

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use radix_nn::{
    train_regressor_checkpointed, CheckpointError, Checkpointer, History, Network, Optimizer,
    TrainConfig, TrainRestartPolicy, TrainSuperviseError, TrainSupervisor,
};
use radix_sparse::{DenseMatrix, KernelPlan, PreparedWeights};

use crate::infer::ChallengeNetwork;
use crate::serve::{ServeClient, ServeConfig, ServeEngine, ServeError, ServeHandle, ServeStats};

/// Default cadence at which the publisher re-scans the checkpoint
/// directory for a new committed generation.
pub const DEFAULT_PUBLISH_POLL: Duration = Duration::from_millis(2);

/// Everything a train-while-serve session needs to know.
#[derive(Debug, Clone)]
pub struct OnlineConfig {
    /// Serving front-end configuration (batching, deadline, slots).
    pub serve: ServeConfig,
    /// Output-layer bias the Challenge recipe fixes for serving
    /// (training checkpoints carry weights only into the engine).
    pub bias: f32,
    /// `YMAX` activation clamp for serving.
    pub ymax: f32,
    /// The fine-tuning loop's configuration (epochs, batch size,
    /// parallel chunks, decay/clip).
    pub train: TrainConfig,
    /// Checkpoint — and therefore publish — cadence in batches; `0`
    /// saves (and publishes) at epoch boundaries only.
    pub publish_every: usize,
    /// Checkpoint generations retained on disk.
    pub keep: usize,
    /// Restart budget for crashed training attempts.
    pub restarts: TrainRestartPolicy,
    /// How often the publisher re-scans for new generations.
    pub publish_poll: Duration,
}

impl Default for OnlineConfig {
    fn default() -> Self {
        OnlineConfig {
            serve: ServeConfig::default(),
            bias: 0.0,
            ymax: 32.0,
            train: TrainConfig::default(),
            publish_every: 0,
            keep: 2,
            restarts: TrainRestartPolicy::default(),
            publish_poll: DEFAULT_PUBLISH_POLL,
        }
    }
}

/// Why an online session could not start or a fine-tune run failed.
#[derive(Debug)]
pub enum OnlineError {
    /// The training network has a dense layer at this index; the serving
    /// engine requires fully sparse (prepared-ELL) weights.
    NotSparse {
        /// Offending layer index.
        layer: usize,
    },
    /// The checkpoint store could not be created or read.
    Checkpoint(CheckpointError),
    /// Training failed (deterministic checkpoint error, or the crash
    /// restart budget ran out).
    Train(TrainSuperviseError),
}

impl std::fmt::Display for OnlineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OnlineError::NotSparse { layer } => {
                write!(f, "layer {layer} is dense; serving requires sparse layers")
            }
            OnlineError::Checkpoint(e) => write!(f, "checkpoint store: {e}"),
            OnlineError::Train(e) => write!(f, "fine-tune failed: {e}"),
        }
    }
}

impl std::error::Error for OnlineError {}

impl From<CheckpointError> for OnlineError {
    fn from(e: CheckpointError) -> Self {
        OnlineError::Checkpoint(e)
    }
}

/// What the publisher accomplished during one fine-tune run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PublishStats {
    /// Generations successfully staged into the engine.
    pub published: u64,
    /// Reload attempts that failed (counted, never fatal — e.g. the
    /// engine died under fault injection while training carried on).
    pub errors: u64,
    /// The newest generation staged, if any.
    pub latest: Option<u64>,
}

/// The result of a completed fine-tune run.
#[derive(Debug, Clone)]
pub struct OnlineReport {
    /// Training history — identical to an offline run's (the serve
    /// traffic sharing the pool cannot perturb it; the chaos suite pins
    /// this bitwise).
    pub history: History,
    /// Crash-triggered training restarts along the way.
    pub restarts: u32,
    /// Weight publications staged into the live engine.
    pub publish: PublishStats,
}

/// A live serving engine paired with a checkpoint store, ready to
/// fine-tune the served weights in place.
pub struct OnlineSession {
    handle: ServeHandle,
    ckpt: Checkpointer,
    poll: Duration,
}

/// The prepared sparse weights of a fully sparse training network, or
/// the index of the first dense layer.
fn sparse_layers(net: &Network) -> Result<Vec<PreparedWeights<f32>>, OnlineError> {
    net.layers()
        .iter()
        .enumerate()
        .map(|(i, l)| match l {
            radix_nn::Layer::Sparse(sl) => Ok(sl.prepared().clone()),
            radix_nn::Layer::Dense(_) => Err(OnlineError::NotSparse { layer: i }),
        })
        .collect()
}

/// The newest committed generation in `dir`, by the checkpoint store's
/// canonical naming (`ckpt-NNNNNNNN.radix`; torn `.tmp` files are
/// invisible by construction).
fn latest_generation(dir: &Path) -> Option<(u64, PathBuf)> {
    let mut newest: Option<u64> = None;
    for entry in std::fs::read_dir(dir).ok()?.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(num) = name
            .strip_prefix("ckpt-")
            .and_then(|r| r.strip_suffix(".radix"))
        {
            if num.len() == 8 {
                if let Ok(g) = num.parse::<u64>() {
                    newest = Some(newest.map_or(g, |n: u64| n.max(g)));
                }
            }
        }
    }
    newest.map(|g| (g, dir.join(format!("ckpt-{g:08}.radix"))))
}

/// Watches the checkpoint directory and stages every new committed
/// generation into the engine. Reads the stop flag *before* scanning, so
/// the final checkpoint (written before the trainer raises the flag) is
/// always seen on the last pass. A failed reload leaves the cursor in
/// place — the next poll retries.
fn publisher_loop(
    handle: &ServeHandle,
    dir: &Path,
    stop: &AtomicBool,
    poll: Duration,
) -> PublishStats {
    let mut stats = PublishStats::default();
    let mut last: Option<u64> = None;
    loop {
        let stopping = stop.load(Ordering::Acquire);
        if let Some((g, path)) = latest_generation(dir) {
            if last.is_none_or(|l| g > l) {
                match handle.reload(&path) {
                    Ok(()) => {
                        stats.published += 1;
                        stats.latest = Some(g);
                        last = Some(g);
                    }
                    Err(_) => stats.errors += 1,
                }
            }
        }
        if stopping {
            return stats;
        }
        std::thread::sleep(poll);
    }
}

impl OnlineSession {
    /// Starts serving `net`'s current weights and opens (or reopens — the
    /// store resumes) a checkpoint directory at `ckpt_dir` with the
    /// config's cadence and retention.
    ///
    /// # Errors
    /// [`OnlineError::NotSparse`] if the network has a dense layer;
    /// [`OnlineError::Checkpoint`] if the store cannot be created.
    pub fn start(
        net: &Network,
        config: &OnlineConfig,
        ckpt_dir: &Path,
    ) -> Result<Self, OnlineError> {
        let ckpt = Checkpointer::new(ckpt_dir)?
            .with_every(config.publish_every)
            .with_keep(config.keep);
        Self::start_with(net, config, ckpt)
    }

    /// [`OnlineSession::start`] with a caller-built [`Checkpointer`] —
    /// the entry point the chaos suites use to thread a
    /// `TrainFaultInjector` into the training loop. The checkpointer's
    /// own cadence and retention are honored as-is.
    ///
    /// # Errors
    /// [`OnlineError::NotSparse`] if the network has a dense layer.
    pub fn start_with(
        net: &Network,
        config: &OnlineConfig,
        ckpt: Checkpointer,
    ) -> Result<Self, OnlineError> {
        Self::start_faulted(net, config, ckpt, crate::fault::FaultInjector::from_env())
    }

    /// [`OnlineSession::start_with`] with an explicit *serving* fault
    /// injector as well — the full chaos entry point: training faults
    /// ride the checkpointer, serving faults ride the engine, and the
    /// suite asserts both failure models hold at once.
    ///
    /// # Errors
    /// [`OnlineError::NotSparse`] if the network has a dense layer.
    pub fn start_faulted(
        net: &Network,
        config: &OnlineConfig,
        ckpt: Checkpointer,
        serve_faults: crate::fault::FaultInjector,
    ) -> Result<Self, OnlineError> {
        let serve_net = ChallengeNetwork::from_prepared(
            sparse_layers(net)?,
            config.bias,
            config.ymax,
            KernelPlan::process(),
        );
        let handle = ServeEngine::start_with_faults(serve_net, &config.serve, serve_faults);
        Ok(OnlineSession {
            handle,
            ckpt,
            poll: config.publish_poll,
        })
    }

    /// A client for the live engine; clone freely into traffic threads.
    #[must_use]
    pub fn client(&self) -> ServeClient {
        self.handle.client()
    }

    /// The serving handle, for stats and ad-hoc reloads.
    #[must_use]
    pub fn handle(&self) -> &ServeHandle {
        &self.handle
    }

    /// Fine-tunes `net` on a regression problem while the engine keeps
    /// serving, publishing every committed checkpoint into the engine.
    /// Blocks until training completes; drive traffic from other threads
    /// holding [`ServeClient`] clones. Resume is automatic: if the
    /// checkpoint directory already holds generations from an interrupted
    /// run, training fast-forwards past them bitwise-identically.
    ///
    /// # Errors
    /// [`OnlineError::Train`] when training fails deterministically or
    /// exhausts its crash-restart budget.
    ///
    /// # Panics
    /// Panics if sample counts mismatch or the batch size is zero.
    pub fn fine_tune_regressor(
        &mut self,
        net: &mut Network,
        x: &DenseMatrix<f32>,
        y: &DenseMatrix<f32>,
        opt: &mut Optimizer,
        config: &OnlineConfig,
    ) -> Result<OnlineReport, OnlineError> {
        // Supervised training on the calling thread (the pool submitter),
        // the publisher poller alongside it.
        let stop = AtomicBool::new(false);
        let handle = &self.handle;
        let dir = self.ckpt.dir().to_path_buf();
        let poll = self.poll;
        let ckpt = &mut self.ckpt;
        let (result, publish) = std::thread::scope(|s| {
            let stop = &stop;
            let publisher = s.spawn({
                let dir = dir.clone();
                move || publisher_loop(handle, &dir, stop, poll)
            });
            let result =
                TrainSupervisor::new(config.restarts).run(net, opt, ckpt, |net, opt, ck| {
                    train_regressor_checkpointed(net, x, y, opt, &config.train, ck)
                });
            stop.store(true, Ordering::Release);
            let publish = publisher
                .join()
                .unwrap_or_else(|_| unreachable!("publisher thread never panics"));
            (result, publish)
        });
        let report = result.map_err(OnlineError::Train)?;
        Ok(OnlineReport {
            history: report.history,
            restarts: report.restarts,
            publish,
        })
    }

    /// Graceful shutdown of the serving engine; returns its final
    /// counters. The checkpoint directory stays on disk for resume.
    ///
    /// # Errors
    /// [`ServeError::EngineFailed`] if the engine thread had already died.
    pub fn finish(self) -> Result<ServeStats, ServeError> {
        self.handle.shutdown()
    }
}
