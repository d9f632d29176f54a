//! Deterministic fault injection for the training and checkpoint paths.
//!
//! The training-side twin of `radix-challenge`'s serving fault injector,
//! and built to the same rules: compiled unconditionally (no feature
//! flag), inactive by default at the cost of a single branch per hook,
//! and sequenced by `Arc`-shared counters so a supervisor restart
//! continues the old schedule instead of re-firing an exhausted fault.
//!
//! Three failure shapes cover the persistence fault surface:
//!
//! * **train-loop panic at the Nth batch**
//!   ([`TrainFaultPlan::panic_at_batch`]) — kills the training run
//!   mid-epoch, driving the `TrainSupervisor` restart-from-checkpoint
//!   path; bounded by [`TrainFaultPlan::panic_budget`],
//! * **torn checkpoint write** ([`TrainFaultPlan::torn_write_gen`]) —
//!   the process "crashes" (panics) after writing only half of a
//!   checkpoint generation's temp file: the atomic-rename protocol must
//!   leave the last good generation untouched and recovery must ignore
//!   the stale temp file,
//! * **checkpoint bit flip** ([`TrainFaultPlan::bit_flip_gen`]) — one
//!   bit of a generation's encoded bytes is flipped before the (fully
//!   committed) write: validation on load must reject the generation
//!   with a checksum error and fall back to the previous one.
//!
//! Activation routes: construct a [`TrainFaultPlan`] and hand the
//! injector to a `Checkpointer`, or set the environment variables (read
//! by [`TrainFaultInjector::from_env`]):
//!
//! | variable | meaning |
//! |---|---|
//! | `RADIX_FAULT_TRAIN_PANIC_BATCH` | panic the training loop at this (1-based, cumulative) batch |
//! | `RADIX_FAULT_TRAIN_PANIC_BUDGET` | how many injected train panics may fire in total (default 1) |
//! | `RADIX_FAULT_CKPT_TORN_WRITE` | tear (half-write, then crash) the write of this checkpoint generation (1-based) |
//! | `RADIX_FAULT_CKPT_BIT_FLIP` | flip one bit in the encoded bytes of this checkpoint generation (1-based) |

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

/// Message prefix of every injected training-path panic — recovery tests
/// match on it to distinguish injected faults from genuine bugs.
pub const INJECTED_TRAIN_PANIC_MSG: &str = "injected train fault";

/// Reads fault variable `name` through the lookup `vars` as a positive
/// `u64`: `None` when it is unset, `0` or does not parse. The one parse
/// behind [`TrainFaultInjector::from_env`] and the serving stack's fault
/// injector.
#[doc(hidden)]
#[must_use]
pub fn positive_var(vars: &impl Fn(&str) -> Option<String>, name: &str) -> Option<u64> {
    vars(name).and_then(|v| v.parse().ok()).filter(|&n| n > 0)
}

/// What the checkpoint writer must do with the bytes it was about to
/// commit, as decided by [`TrainFaultInjector::checkpoint_fault`]. Bit
/// flips are applied to the byte buffer directly (the write then commits
/// normally); a torn write is a *protocol* fault, so it is returned for
/// the writer to act out.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WriteFault {
    /// Commit normally.
    #[default]
    None,
    /// Write only the first `keep` bytes of the temp file, fsync, then
    /// panic — simulating a crash mid-write, before the atomic rename.
    TornCrash {
        /// Bytes that reach the temp file before the "crash".
        keep: usize,
    },
}

/// A declarative schedule of training/persistence faults. Plain data
/// (`Copy`, comparable) so tests can generate, shrink, and print plans.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TrainFaultPlan {
    /// Panic the training loop when the cumulative batch count (1-based,
    /// shared across supervisor restarts) reaches this value; `None`
    /// injects no panics.
    pub panic_at_batch: Option<u64>,
    /// Total injected train panics allowed. Ignored when
    /// `panic_at_batch` is `None`.
    pub panic_budget: u32,
    /// Tear the write of this checkpoint generation (1-based): half the
    /// temp file is written, then the "process" crashes (panics) before
    /// the atomic rename. Fires at most once.
    pub torn_write_gen: Option<u64>,
    /// Flip one bit in the encoded bytes of this checkpoint generation
    /// (1-based) before a fully-committed write. Fires at most once.
    pub bit_flip_gen: Option<u64>,
}

impl TrainFaultPlan {
    /// Whether this plan injects anything at all.
    #[must_use]
    pub fn is_active(&self) -> bool {
        self.panic_at_batch.is_some()
            || self.torn_write_gen.is_some()
            || self.bit_flip_gen.is_some()
    }
}

/// A [`TrainFaultPlan`] plus the shared mutable state that sequences it.
/// Clones share the counters (`Arc`), which is what makes the plan
/// meaningful across supervisor restarts — a resumed training run
/// continues the old batch count and cannot re-fire an exhausted fault.
#[derive(Debug, Clone)]
pub struct TrainFaultInjector {
    plan: TrainFaultPlan,
    /// Batches executed so far, across every training generation.
    batches: Arc<AtomicU64>,
    /// Injected train panics still allowed.
    panics_left: Arc<AtomicU32>,
    /// Torn writes still allowed (0 or 1).
    torn_left: Arc<AtomicU32>,
    /// Bit flips still allowed (0 or 1).
    flips_left: Arc<AtomicU32>,
    /// Cached `plan.is_active()` — the only thing the happy path reads.
    active: bool,
}

impl Default for TrainFaultInjector {
    fn default() -> Self {
        Self::inactive()
    }
}

impl TrainFaultInjector {
    /// An injector that never fires; every hook is a single branch.
    #[must_use]
    pub fn inactive() -> Self {
        Self::new(TrainFaultPlan::default())
    }

    /// An injector executing `plan` from a zero batch count.
    #[must_use]
    pub fn new(plan: TrainFaultPlan) -> Self {
        TrainFaultInjector {
            active: plan.is_active(),
            batches: Arc::new(AtomicU64::new(0)),
            panics_left: Arc::new(AtomicU32::new(if plan.panic_at_batch.is_some() {
                plan.panic_budget.max(1)
            } else {
                0
            })),
            torn_left: Arc::new(AtomicU32::new(u32::from(plan.torn_write_gen.is_some()))),
            flips_left: Arc::new(AtomicU32::new(u32::from(plan.bit_flip_gen.is_some()))),
            plan,
        }
    }

    /// Builds the plan from the `RADIX_FAULT_TRAIN_*` / `RADIX_FAULT_CKPT_*`
    /// environment (all unset → inactive). See the module docs for the
    /// variable table.
    #[must_use]
    pub fn from_env() -> Self {
        Self::from_vars(|name| std::env::var(name).ok())
    }

    /// [`TrainFaultInjector::from_env`] over any variable lookup (tests
    /// pass a closure instead of mutating the process environment). A
    /// value that is `0` or does not parse counts as unset.
    fn from_vars(vars: impl Fn(&str) -> Option<String>) -> Self {
        let var = |name| positive_var(&vars, name);
        Self::new(TrainFaultPlan {
            panic_at_batch: var("RADIX_FAULT_TRAIN_PANIC_BATCH"),
            panic_budget: var("RADIX_FAULT_TRAIN_PANIC_BUDGET")
                .map_or(1, |n| n.min(u64::from(u32::MAX)) as u32),
            torn_write_gen: var("RADIX_FAULT_CKPT_TORN_WRITE"),
            bit_flip_gen: var("RADIX_FAULT_CKPT_BIT_FLIP"),
        })
    }

    /// The plan this injector executes.
    #[must_use]
    pub fn plan(&self) -> TrainFaultPlan {
        self.plan
    }

    /// Batches executed so far across every training generation sharing
    /// this injector.
    #[must_use]
    pub fn batches_seen(&self) -> u64 {
        self.batches.load(Ordering::Relaxed)
    }

    /// Training-loop hook, called at the top of every mini-batch step
    /// (before any parameter is touched, so a panic here loses at most
    /// the work since the last checkpoint). Counts the batch; panics
    /// when the schedule says so.
    ///
    /// # Panics
    /// Panics (message prefixed [`INJECTED_TRAIN_PANIC_MSG`]) when the
    /// cumulative batch count reaches [`TrainFaultPlan::panic_at_batch`]
    /// and the panic budget is not exhausted.
    pub fn before_batch(&self) {
        if !self.active {
            return;
        }
        let seq = self.batches.fetch_add(1, Ordering::Relaxed) + 1;
        if let Some(at) = self.plan.panic_at_batch {
            if seq >= at {
                let fired = self
                    .panics_left
                    .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |p| p.checked_sub(1))
                    .is_ok();
                if fired {
                    panic!("{INJECTED_TRAIN_PANIC_MSG} at batch {seq}");
                }
            }
        }
    }

    /// Checkpoint-writer hook, called with a generation's encoded bytes
    /// just before they hit disk. A scheduled bit flip mutates `bytes`
    /// in place (the write then commits normally, carrying the
    /// corruption); a scheduled torn write is returned as
    /// [`WriteFault::TornCrash`] for the writer to act out. Each file
    /// fault fires at most once across every clone of this injector.
    pub fn checkpoint_fault(&self, generation: u64, bytes: &mut [u8]) -> WriteFault {
        if !self.active {
            return WriteFault::None;
        }
        if self.plan.bit_flip_gen == Some(generation)
            && self
                .flips_left
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |p| p.checked_sub(1))
                .is_ok()
            && !bytes.is_empty()
        {
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0x10;
        }
        if self.plan.torn_write_gen == Some(generation)
            && self
                .torn_left
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |p| p.checked_sub(1))
                .is_ok()
        {
            return WriteFault::TornCrash {
                keep: bytes.len() / 2,
            };
        }
        WriteFault::None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inactive_injector_never_fires() {
        let f = TrainFaultInjector::inactive();
        assert!(!f.plan().is_active());
        let mut bytes = vec![0xAAu8; 64];
        for _ in 0..100 {
            f.before_batch(); // must not panic
            assert_eq!(f.checkpoint_fault(1, &mut bytes), WriteFault::None);
        }
        assert_eq!(bytes, vec![0xAAu8; 64], "inactive hooks do not mutate");
        assert_eq!(f.batches_seen(), 0, "inactive hooks do not even count");
    }

    #[test]
    fn panic_fires_at_scheduled_batch_and_respects_budget() {
        let f = TrainFaultInjector::new(TrainFaultPlan {
            panic_at_batch: Some(3),
            panic_budget: 1,
            ..TrainFaultPlan::default()
        });
        f.before_batch();
        f.before_batch();
        let caught = std::panic::catch_unwind(|| f.before_batch());
        assert!(caught.is_err(), "third batch must panic");
        for _ in 0..10 {
            f.before_batch(); // budget spent: runs clean forever
        }
        assert_eq!(f.batches_seen(), 13);
    }

    #[test]
    fn clones_share_the_schedule_across_generations() {
        let f = TrainFaultInjector::new(TrainFaultPlan {
            panic_at_batch: Some(2),
            panic_budget: 2,
            ..TrainFaultPlan::default()
        });
        let gen2 = f.clone();
        f.before_batch();
        assert!(std::panic::catch_unwind(|| f.before_batch()).is_err());
        assert!(std::panic::catch_unwind(|| gen2.before_batch()).is_err());
        gen2.before_batch();
        assert_eq!(f.batches_seen(), gen2.batches_seen());
    }

    #[test]
    fn bit_flip_mutates_scheduled_generation_once() {
        let f = TrainFaultInjector::new(TrainFaultPlan {
            bit_flip_gen: Some(2),
            ..TrainFaultPlan::default()
        });
        let clean = vec![0u8; 32];
        let mut bytes = clean.clone();
        assert_eq!(f.checkpoint_fault(1, &mut bytes), WriteFault::None);
        assert_eq!(bytes, clean, "unscheduled generation untouched");
        assert_eq!(f.checkpoint_fault(2, &mut bytes), WriteFault::None);
        assert_ne!(bytes, clean, "scheduled generation flipped");
        let mut again = clean.clone();
        assert_eq!(f.checkpoint_fault(2, &mut again), WriteFault::None);
        assert_eq!(again, clean, "a file fault fires at most once");
    }

    #[test]
    fn torn_write_returns_half_length_once() {
        let f = TrainFaultInjector::new(TrainFaultPlan {
            torn_write_gen: Some(1),
            ..TrainFaultPlan::default()
        });
        let mut bytes = vec![0u8; 100];
        assert_eq!(
            f.checkpoint_fault(1, &mut bytes),
            WriteFault::TornCrash { keep: 50 }
        );
        assert_eq!(f.checkpoint_fault(1, &mut bytes), WriteFault::None);
    }

    #[test]
    fn env_parsing_defaults_to_inactive() {
        let f = TrainFaultInjector::from_env();
        assert!(!f.plan().is_active());
    }

    const BATCH: &str = "RADIX_FAULT_TRAIN_PANIC_BATCH";
    const BUDGET: &str = "RADIX_FAULT_TRAIN_PANIC_BUDGET";
    const TORN: &str = "RADIX_FAULT_CKPT_TORN_WRITE";
    const FLIP: &str = "RADIX_FAULT_CKPT_BIT_FLIP";

    fn plan_of(vars: &[(&str, &str)]) -> TrainFaultPlan {
        TrainFaultInjector::from_vars(|name| {
            vars.iter()
                .find(|(k, _)| *k == name)
                .map(|(_, v)| (*v).to_string())
        })
        .plan()
    }

    #[test]
    fn from_vars_reads_every_variable() {
        let plan = plan_of(&[(BATCH, "7"), (BUDGET, "3"), (TORN, "2"), (FLIP, "4")]);
        assert_eq!(
            plan,
            TrainFaultPlan {
                panic_at_batch: Some(7),
                panic_budget: 3,
                torn_write_gen: Some(2),
                bit_flip_gen: Some(4),
            }
        );
        assert!(plan.is_active());
    }

    #[test]
    fn from_vars_unset_zero_or_unparseable_is_inactive() {
        let inactive = TrainFaultPlan {
            panic_budget: 1,
            ..TrainFaultPlan::default()
        };
        assert_eq!(plan_of(&[]), inactive);
        for name in [BATCH, TORN, FLIP] {
            for value in ["0", "x", "-1", "", "1.5"] {
                assert_eq!(plan_of(&[(name, value)]), inactive, "{name}={value:?}");
            }
        }
        assert_eq!(plan_of(&[(TORN, "5")]).torn_write_gen, Some(5));
        assert_eq!(plan_of(&[(FLIP, "6")]).bit_flip_gen, Some(6));
    }

    #[test]
    fn from_vars_budget_alone_is_inactive_and_defaults_to_one() {
        // A budget without a batch schedules nothing.
        let plan = plan_of(&[(BUDGET, "5")]);
        assert_eq!(plan.panic_budget, 5);
        assert!(!plan.is_active());
        // Unset, `0` or unparseable: one panic.
        assert_eq!(plan_of(&[(BATCH, "2")]).panic_budget, 1);
        assert_eq!(plan_of(&[(BATCH, "2"), (BUDGET, "0")]).panic_budget, 1);
        assert_eq!(plan_of(&[(BATCH, "2"), (BUDGET, "x")]).panic_budget, 1);
        // Out of u32 range: clamped.
        let huge = u64::MAX.to_string();
        assert_eq!(plan_of(&[(BUDGET, &huge)]).panic_budget, u32::MAX);
    }
}
