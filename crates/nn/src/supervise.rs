//! Supervised training: automatic restart from the last good checkpoint.
//!
//! [`TrainSupervisor`] mirrors the serving-side `ServeSupervisor` for the
//! training path: it runs a checkpointed training attempt under
//! `catch_unwind`, and when the attempt dies — an injected fault, an
//! engine panic, a simulated crash mid-checkpoint — it restores pristine
//! starting state, waits out a linear backoff, and retries. The retry
//! *resumes* rather than restarts: the next attempt's
//! `train_*_checkpointed` call finds the newest valid generation in the
//! [`Checkpointer`]'s directory and continues bitwise identically from
//! its cursor (see [`crate::train`]), and when the newest generation is
//! itself damaged — torn by a crash mid-write, bit-flipped on disk — the
//! loader falls back to the previous good generation automatically.
//!
//! Restarts are bounded by [`RestartPolicy::max_restarts`]; once the
//! budget is spent the supervisor returns
//! [`TrainSuperviseError::RestartsExhausted`] carrying the last panic
//! message. Because the [`Checkpointer`]'s fault injector shares its
//! cumulative counters across the whole supervision run, a schedule like
//! "panic at batch 40, budget 1" fires exactly once no matter how many
//! attempts observe batch 40.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

use crate::checkpoint::{CheckpointError, Checkpointer};
use crate::network::Network;
use crate::optimizer::Optimizer;
use crate::train::History;

/// How aggressively a supervisor restarts what crashed: a crashed
/// training attempt here, a dead serving engine in `radix-challenge`'s
/// `ServeSupervisor`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RestartPolicy {
    /// Maximum restarts over the supervised run; once exhausted the run
    /// fails (here with [`TrainSuperviseError::RestartsExhausted`]).
    pub max_restarts: u32,
    /// Base backoff slept before restart `n` is `backoff * n` (linear):
    /// a crash loop decelerates instead of spinning.
    pub backoff: Duration,
}

impl Default for RestartPolicy {
    fn default() -> Self {
        RestartPolicy {
            max_restarts: 3,
            backoff: Duration::from_millis(10),
        }
    }
}

impl RestartPolicy {
    /// Admits restart number `done + 1` after `done` restarts: `false`
    /// when the budget is spent; otherwise sleeps that restart's linear
    /// backoff (`backoff * (done + 1)`) and returns `true`.
    #[must_use]
    pub fn admit_restart(&self, done: u32) -> bool {
        if done >= self.max_restarts {
            return false;
        }
        let pause = self.backoff.saturating_mul(done + 1);
        if !pause.is_zero() {
            std::thread::sleep(pause);
        }
        true
    }
}

/// Why a supervised training run failed for good.
#[derive(Debug)]
pub enum TrainSuperviseError {
    /// An attempt returned a checkpoint error (I/O failure, incompatible
    /// resume state) — not a crash, so not retried.
    Checkpoint(CheckpointError),
    /// Every restart in the budget was consumed by panics.
    RestartsExhausted {
        /// Restarts performed before giving up.
        restarts: u32,
        /// Panic message of the final crash.
        last_panic: String,
    },
}

impl std::fmt::Display for TrainSuperviseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrainSuperviseError::Checkpoint(e) => write!(f, "supervised training failed: {e}"),
            TrainSuperviseError::RestartsExhausted {
                restarts,
                last_panic,
            } => write!(
                f,
                "training restart budget exhausted after {restarts} restarts (last panic: {last_panic})"
            ),
        }
    }
}

impl std::error::Error for TrainSuperviseError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TrainSuperviseError::Checkpoint(e) => Some(e),
            TrainSuperviseError::RestartsExhausted { .. } => None,
        }
    }
}

impl From<CheckpointError> for TrainSuperviseError {
    fn from(e: CheckpointError) -> Self {
        TrainSuperviseError::Checkpoint(e)
    }
}

/// Outcome of a supervised training run.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainReport {
    /// The completed run's history (identical to an unsupervised run's).
    pub history: History,
    /// Crash-triggered restarts performed along the way.
    pub restarts: u32,
}

/// Extracts the human-readable message from a panic payload (the
/// `Box<dyn Any>` a `JoinHandle::join` error or `catch_unwind` hands back).
#[must_use]
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The training supervisor: a restart loop around a checkpointed
/// training attempt.
pub struct TrainSupervisor {
    policy: RestartPolicy,
}

impl TrainSupervisor {
    /// A supervisor with the given restart policy.
    #[must_use]
    pub fn new(policy: RestartPolicy) -> Self {
        TrainSupervisor { policy }
    }

    /// Runs `attempt` (typically a closure calling
    /// [`crate::train_classifier_checkpointed`]) under the restart loop.
    ///
    /// Each attempt starts from a fresh clone of the *pristine* `net` and
    /// `opt` the caller passed in — the checkpoint resume path inside the
    /// attempt then fast-forwards them to the last good cursor, so a
    /// crashed attempt can never leak torn in-memory state into the next
    /// one. On success the trained state is written back into `net` /
    /// `opt`.
    ///
    /// # Errors
    /// [`TrainSuperviseError::Checkpoint`] when an attempt returns a
    /// checkpoint error (these are deterministic, so never retried);
    /// [`TrainSuperviseError::RestartsExhausted`] when panics consume the
    /// whole restart budget.
    pub fn run<F>(
        &self,
        net: &mut Network,
        opt: &mut Optimizer,
        ckpt: &mut Checkpointer,
        mut attempt: F,
    ) -> Result<TrainReport, TrainSuperviseError>
    where
        F: FnMut(
            &mut Network,
            &mut Optimizer,
            &mut Checkpointer,
        ) -> Result<History, CheckpointError>,
    {
        let pristine_net = net.clone();
        let pristine_opt = opt.clone();
        let mut restarts = 0u32;
        loop {
            let mut attempt_net = pristine_net.clone();
            let mut attempt_opt = pristine_opt.clone();
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                attempt(&mut attempt_net, &mut attempt_opt, ckpt)
            }));
            match outcome {
                Ok(Ok(history)) => {
                    *net = attempt_net;
                    *opt = attempt_opt;
                    return Ok(TrainReport { history, restarts });
                }
                Ok(Err(e)) => return Err(TrainSuperviseError::Checkpoint(e)),
                Err(payload) => {
                    let last_panic = panic_message(payload.as_ref());
                    if !self.policy.admit_restart(restarts) {
                        return Err(TrainSuperviseError::RestartsExhausted {
                            restarts,
                            last_panic,
                        });
                    }
                    restarts += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::Activation;
    use crate::fault::{FaultInjector, FaultPlan, INJECTED_PANIC_MSG};
    use crate::init::Init;
    use crate::loss::Loss;
    use crate::train::{train_regressor, train_regressor_checkpointed, TrainConfig};
    use radix_sparse::DenseMatrix;

    fn toy_regression(n: usize) -> (DenseMatrix<f32>, DenseMatrix<f32>) {
        let mut x = DenseMatrix::zeros(n, 4);
        let mut y = DenseMatrix::zeros(n, 2);
        for i in 0..n {
            for j in 0..4 {
                // Deterministic pseudo-data; no RNG needed.
                let v = ((i * 7 + j * 3) % 13) as f32 / 13.0 - 0.5;
                x.set(i, j, v);
            }
            y.set(i, 0, x.get(i, 0) - 0.5 * x.get(i, 1));
            y.set(i, 1, 0.25 * x.get(i, 2) + x.get(i, 3));
        }
        (x, y)
    }

    fn scratch_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "radix-supervise-test-{}-{name}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn supervisor_recovers_from_injected_panic_bitwise_identically() {
        let (x, y) = toy_regression(64);
        let config = TrainConfig {
            epochs: 4,
            batch_size: 16,
            seed: 9,
            ..TrainConfig::default()
        };

        // Reference: uninterrupted, unsupervised run.
        let mut ref_net = Network::dense(&[4, 8, 2], Activation::Tanh, Init::Xavier, Loss::Mse, 3);
        let mut ref_opt = Optimizer::adam(0.01);
        let ref_history = train_regressor(&mut ref_net, &x, &y, &mut ref_opt, &config);

        // Supervised run with a panic injected mid-epoch 2.
        let dir = scratch_dir("recovers");
        let plan = FaultPlan {
            train_panic_at_batch: Some(9),
            train_panic_budget: 1,
            ..FaultPlan::default()
        };
        let mut ck = Checkpointer::new(&dir)
            .unwrap()
            .with_every(2)
            .with_faults(FaultInjector::new(plan));
        let mut net = Network::dense(&[4, 8, 2], Activation::Tanh, Init::Xavier, Loss::Mse, 3);
        let mut opt = Optimizer::adam(0.01);
        let report = TrainSupervisor::new(RestartPolicy {
            backoff: Duration::from_millis(1),
            ..RestartPolicy::default()
        })
        .run(&mut net, &mut opt, &mut ck, |n, o, c| {
            train_regressor_checkpointed(n, &x, &y, o, &config, c)
        })
        .unwrap();

        assert_eq!(report.restarts, 1);
        assert_eq!(report.history, ref_history);
        assert_eq!(net, ref_net);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn exhausted_budget_surfaces_last_panic() {
        let (x, y) = toy_regression(32);
        let config = TrainConfig {
            epochs: 2,
            batch_size: 16,
            seed: 1,
            ..TrainConfig::default()
        };
        let dir = scratch_dir("exhausted");
        // More panics scheduled than the restart budget tolerates.
        let plan = FaultPlan {
            train_panic_at_batch: Some(1),
            train_panic_budget: 100,
            ..FaultPlan::default()
        };
        let mut ck = Checkpointer::new(&dir)
            .unwrap()
            .with_faults(FaultInjector::new(plan));
        let mut net = Network::dense(&[4, 8, 2], Activation::Tanh, Init::Xavier, Loss::Mse, 3);
        let mut opt = Optimizer::sgd(0.1);
        let err = TrainSupervisor::new(RestartPolicy {
            max_restarts: 2,
            backoff: Duration::ZERO,
        })
        .run(&mut net, &mut opt, &mut ck, |n, o, c| {
            train_regressor_checkpointed(n, &x, &y, o, &config, c)
        })
        .unwrap_err();
        match err {
            TrainSuperviseError::RestartsExhausted {
                restarts,
                last_panic,
            } => {
                assert_eq!(restarts, 2);
                assert!(last_panic.contains(INJECTED_PANIC_MSG), "{last_panic}");
            }
            other => panic!("expected RestartsExhausted, got {other}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn incompatible_checkpoint_is_not_retried() {
        let (x, y) = toy_regression(32);
        let config = TrainConfig {
            epochs: 2,
            batch_size: 16,
            seed: 5,
            ..TrainConfig::default()
        };
        let dir = scratch_dir("not-retried");
        let mut ck = Checkpointer::new(&dir).unwrap();
        let mut net = Network::dense(&[4, 8, 2], Activation::Tanh, Init::Xavier, Loss::Mse, 3);
        let mut opt = Optimizer::sgd(0.1);
        train_regressor_checkpointed(&mut net, &x, &y, &mut opt, &config, &mut ck).unwrap();

        // Same directory, different seed → deterministic Incompatible, no
        // restarts burned.
        let other = TrainConfig {
            seed: 6,
            ..config.clone()
        };
        let mut ck2 = Checkpointer::new(&dir).unwrap();
        let err = TrainSupervisor::new(RestartPolicy::default())
            .run(&mut net, &mut opt, &mut ck2, |n, o, c| {
                train_regressor_checkpointed(n, &x, &y, o, &other, c)
            })
            .unwrap_err();
        assert!(
            matches!(
                err,
                TrainSuperviseError::Checkpoint(CheckpointError::Incompatible { .. })
            ),
            "{err}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
