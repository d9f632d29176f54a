//! Deterministic fault injection for serving, training and checkpoints.
//!
//! One [`FaultPlan`], built in code, names every injection point of the
//! serving engine (`radix-challenge`) and of the training and checkpoint
//! paths (this crate). A [`FaultInjector`] executes it. The code is
//! compiled unconditionally (no feature flag, no cfg), so the code under
//! test is the code that ships, and an inactive injector (the default)
//! costs one branch per hook and allocates nothing.
//!
//! The injection points:
//!
//! * **engine panic at the Nth batch** ([`FaultPlan::engine_panic_at_batch`],
//!   bounded by [`FaultPlan::engine_panic_budget`]) — drives the engine's
//!   `EngineFailed` path, the exit-guard wake-ups and the serve
//!   supervisor's restarts,
//! * **per-batch compute delay** ([`FaultPlan::compute_delay_us`]) —
//!   deadline pressure: queued requests expire and are shed, never served
//!   late,
//! * **slot-release stall** ([`FaultPlan::release_stall_us`]) — admission
//!   pressure: slots return to the free list slowly, so non-blocking and
//!   bounded-wait submits hit the `Overloaded` paths,
//! * **train panic at the Nth batch** ([`FaultPlan::train_panic_at_batch`],
//!   bounded by [`FaultPlan::train_panic_budget`]) — kills a training run
//!   mid-epoch, driving the `TrainSupervisor` restart-from-checkpoint path,
//! * **torn checkpoint write** ([`FaultPlan::torn_write_gen`]) — the
//!   process "crashes" (panics) after writing half of a generation's temp
//!   file: the atomic-rename protocol must leave the last good generation
//!   untouched and recovery must ignore the stale temp file,
//! * **checkpoint bit flip** ([`FaultPlan::bit_flip_gen`]) — one bit of a
//!   generation's encoded bytes is flipped before a fully committed write:
//!   validation on load must reject it and fall back to the previous one.
//!
//! Each point keeps its own counters, shared (`Arc`) by every clone of the
//! injector. A restarted engine or training attempt therefore continues
//! the old schedule and cannot re-fire a spent fault, and one injector can
//! ride a `Checkpointer` into the trainer and the serving engine at once
//! without one path advancing the other's schedule.
//!
//! Faults are injected only through an explicit injector:
//! `ServeEngine::start_with_faults`, `ServeSupervisor::start_with_faults`
//! or [`crate::Checkpointer::with_faults`].

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Message prefix of every injected panic — the suites match on it to
/// tell injected faults from genuine bugs. The rest of the message names
/// the injection point.
pub const INJECTED_PANIC_MSG: &str = "injected fault";

/// What the checkpoint writer must do with the bytes it was about to
/// commit, as decided by [`FaultInjector::checkpoint_fault`]. Bit flips
/// are applied to the byte buffer directly (the write then commits
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

/// A declarative schedule of faults, one field per injection point. Plain
/// data (`Copy`, comparable) so tests can generate, shrink and print
/// plans. The default injects nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultPlan {
    /// Panic the serving engine thread when its cumulative batch count
    /// (1-based, shared across engine generations) reaches this value;
    /// `None` injects no engine panics.
    pub engine_panic_at_batch: Option<u64>,
    /// Total injected engine panics allowed (at least 1). With a
    /// supervisor restarting the engine, a budget of `n` produces exactly
    /// `n` engine deaths before the pipeline runs clean. Ignored when
    /// `engine_panic_at_batch` is `None`.
    pub engine_panic_budget: u32,
    /// Sleep before each batch's forward pass, in microseconds — makes
    /// queued requests miss their deadlines (shed pressure).
    pub compute_delay_us: u64,
    /// Sleep inside each client's slot release, in microseconds — holds
    /// slots out of the free list (admission pressure).
    pub release_stall_us: u64,
    /// Panic the training loop when its cumulative batch count (1-based,
    /// shared across supervisor restarts) reaches this value; `None`
    /// injects no train panics.
    pub train_panic_at_batch: Option<u64>,
    /// Total injected train panics allowed (at least 1). Ignored when
    /// `train_panic_at_batch` is `None`.
    pub train_panic_budget: u32,
    /// Tear the write of this checkpoint generation (1-based): half the
    /// temp file is written, then the "process" crashes (panics) before
    /// the atomic rename. Fires at most once.
    pub torn_write_gen: Option<u64>,
    /// Flip one bit in the encoded bytes of this checkpoint generation
    /// (1-based) before a fully committed write. Fires at most once.
    pub bit_flip_gen: Option<u64>,
}

impl FaultPlan {
    /// Whether this plan injects anything at all.
    #[must_use]
    pub fn is_active(&self) -> bool {
        self.engine_panic_at_batch.is_some()
            || self.compute_delay_us > 0
            || self.release_stall_us > 0
            || self.train_panic_at_batch.is_some()
            || self.torn_write_gen.is_some()
            || self.bit_flip_gen.is_some()
    }
}

/// Takes one from a shared "fires left" count; `false` once it is spent.
fn take_one(left: &AtomicU32) -> bool {
    left.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1))
        .is_ok()
}

/// "Panic at the Nth event, within a budget": one panic point's schedule
/// and the shared counters that sequence it.
#[derive(Debug, Clone)]
struct PanicSchedule {
    /// Which point this is, for the panic message.
    point: &'static str,
    /// The 1-based event at which panics start; `None` never fires.
    at: Option<u64>,
    /// Events counted so far, across every clone.
    seen: Arc<AtomicU64>,
    /// Injected panics still allowed.
    left: Arc<AtomicU32>,
}

impl PanicSchedule {
    fn new(point: &'static str, at: Option<u64>, budget: u32) -> Self {
        PanicSchedule {
            point,
            at,
            seen: Arc::new(AtomicU64::new(0)),
            left: Arc::new(AtomicU32::new(if at.is_some() { budget.max(1) } else { 0 })),
        }
    }

    /// Counts one event; panics when the count has reached `at` and the
    /// budget is not spent. An unscheduled point does not even count.
    fn tick(&self) {
        let Some(at) = self.at else {
            return;
        };
        let seq = self.seen.fetch_add(1, Ordering::Relaxed) + 1;
        if seq >= at && take_one(&self.left) {
            panic!("{INJECTED_PANIC_MSG}: {} panic at batch {seq}", self.point);
        }
    }
}

/// A [`FaultPlan`] plus the shared mutable state that sequences it.
/// Clones share every counter (`Arc`), which is what makes the plan
/// meaningful across restarts: a fresh engine generation or training
/// attempt continues the old batch counts and cannot re-fire a spent
/// fault.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    plan: FaultPlan,
    engine_panic: PanicSchedule,
    train_panic: PanicSchedule,
    /// Torn writes still allowed (0 or 1).
    torn_left: Arc<AtomicU32>,
    /// Bit flips still allowed (0 or 1).
    flips_left: Arc<AtomicU32>,
}

impl Default for FaultInjector {
    fn default() -> Self {
        Self::inactive()
    }
}

impl FaultInjector {
    /// An injector that never fires; every hook is a single branch.
    #[must_use]
    pub fn inactive() -> Self {
        Self::new(FaultPlan::default())
    }

    /// An injector executing `plan` from zero batch counts.
    #[must_use]
    pub fn new(plan: FaultPlan) -> Self {
        FaultInjector {
            engine_panic: PanicSchedule::new(
                "engine",
                plan.engine_panic_at_batch,
                plan.engine_panic_budget,
            ),
            train_panic: PanicSchedule::new(
                "train",
                plan.train_panic_at_batch,
                plan.train_panic_budget,
            ),
            torn_left: Arc::new(AtomicU32::new(u32::from(plan.torn_write_gen.is_some()))),
            flips_left: Arc::new(AtomicU32::new(u32::from(plan.bit_flip_gen.is_some()))),
            plan,
        }
    }

    /// The plan this injector executes.
    #[must_use]
    pub fn plan(&self) -> FaultPlan {
        self.plan
    }

    /// Engine hook, called at the top of every flush (before any slot is
    /// touched). Counts the engine batch; panics when the schedule says so.
    ///
    /// # Panics
    /// Panics (message prefixed [`INJECTED_PANIC_MSG`]) when the engine's
    /// cumulative batch count reaches [`FaultPlan::engine_panic_at_batch`]
    /// and its budget is not spent.
    pub fn before_execute(&self) {
        self.engine_panic.tick();
    }

    /// Engine hook, called between gather and the forward pass: injects
    /// the configured compute delay.
    pub fn compute_delay(&self) {
        if self.plan.compute_delay_us > 0 {
            std::thread::sleep(Duration::from_micros(self.plan.compute_delay_us));
        }
    }

    /// Client hook, called in the slot-release path: injects the
    /// configured stall before the slot returns to the free list.
    pub fn release_stall(&self) {
        if self.plan.release_stall_us > 0 {
            std::thread::sleep(Duration::from_micros(self.plan.release_stall_us));
        }
    }

    /// Training-loop hook, called at the top of every mini-batch step
    /// (before any parameter is touched, so a panic here loses at most
    /// the work since the last checkpoint). Counts the training batch;
    /// panics when the schedule says so.
    ///
    /// # Panics
    /// Panics (message prefixed [`INJECTED_PANIC_MSG`]) when the training
    /// loop's cumulative batch count reaches
    /// [`FaultPlan::train_panic_at_batch`] and its budget is not spent.
    pub fn before_batch(&self) {
        self.train_panic.tick();
    }

    /// Checkpoint-writer hook, called with a generation's encoded bytes
    /// just before they hit disk. A scheduled bit flip mutates `bytes`
    /// in place (the write then commits normally, carrying the
    /// corruption); a scheduled torn write is returned as
    /// [`WriteFault::TornCrash`] for the writer to act out. Each file
    /// fault fires at most once across every clone of this injector.
    pub fn checkpoint_fault(&self, generation: u64, bytes: &mut [u8]) -> WriteFault {
        if self.plan.bit_flip_gen == Some(generation)
            && take_one(&self.flips_left)
            && !bytes.is_empty()
        {
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0x10;
        }
        if self.plan.torn_write_gen == Some(generation) && take_one(&self.torn_left) {
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
    use std::panic::catch_unwind;

    /// One panic point as the tests drive it.
    struct Point {
        name: &'static str,
        /// A plan scheduling only this point.
        plan: fn(u64, u32) -> FaultPlan,
        /// The point's hook.
        hook: fn(&FaultInjector),
        /// The point's schedule, for its event count.
        schedule: fn(&FaultInjector) -> &PanicSchedule,
    }

    fn points() -> [Point; 2] {
        [
            Point {
                name: "engine",
                plan: |at, budget| FaultPlan {
                    engine_panic_at_batch: Some(at),
                    engine_panic_budget: budget,
                    ..FaultPlan::default()
                },
                hook: FaultInjector::before_execute,
                schedule: |f| &f.engine_panic,
            },
            Point {
                name: "train",
                plan: |at, budget| FaultPlan {
                    train_panic_at_batch: Some(at),
                    train_panic_budget: budget,
                    ..FaultPlan::default()
                },
                hook: FaultInjector::before_batch,
                schedule: |f| &f.train_panic,
            },
        ]
    }

    fn seen(s: &PanicSchedule) -> u64 {
        s.seen.load(Ordering::Relaxed)
    }

    #[test]
    fn inactive_injector_never_fires() {
        let f = FaultInjector::inactive();
        assert!(!f.plan().is_active());
        let mut bytes = vec![0xAAu8; 64];
        for p in points() {
            for _ in 0..100 {
                (p.hook)(&f); // must not panic
                f.compute_delay();
                f.release_stall();
                assert_eq!(f.checkpoint_fault(1, &mut bytes), WriteFault::None);
            }
            assert_eq!(
                seen((p.schedule)(&f)),
                0,
                "{}: inactive hooks do not even count",
                p.name
            );
        }
        assert_eq!(bytes, vec![0xAAu8; 64], "inactive hooks do not mutate");
    }

    #[test]
    fn panic_fires_at_scheduled_batch_and_respects_budget() {
        for p in points() {
            let f = FaultInjector::new((p.plan)(3, 1));
            (p.hook)(&f);
            (p.hook)(&f);
            let caught = catch_unwind(|| (p.hook)(&f));
            assert!(caught.is_err(), "{}: third batch must panic", p.name);
            // Budget spent: later batches run clean, forever.
            for _ in 0..10 {
                (p.hook)(&f);
            }
            assert_eq!(seen((p.schedule)(&f)), 13, "{}", p.name);
        }
    }

    #[test]
    fn clones_share_the_schedule_across_generations() {
        for p in points() {
            let f = FaultInjector::new((p.plan)(2, 2));
            let gen2 = f.clone();
            (p.hook)(&f);
            assert!(catch_unwind(|| (p.hook)(&f)).is_err(), "{}", p.name);
            // The "restarted" generation sees the cumulative count (already
            // past the trigger) and the decremented budget: one more fire.
            assert!(catch_unwind(|| (p.hook)(&gen2)).is_err(), "{}", p.name);
            (p.hook)(&gen2);
            (p.hook)(&gen2);
            assert_eq!(
                seen((p.schedule)(&f)),
                seen((p.schedule)(&gen2)),
                "{}",
                p.name
            );
        }
    }

    #[test]
    fn each_panic_point_keeps_its_own_count_and_budget() {
        let f = FaultInjector::new(FaultPlan {
            engine_panic_at_batch: Some(2),
            engine_panic_budget: 1,
            compute_delay_us: 1,
            train_panic_at_batch: Some(4),
            train_panic_budget: 2,
            ..FaultPlan::default()
        });
        // Engine batch 1 and its delay: the train schedule does not move.
        f.before_execute();
        f.compute_delay();
        assert_eq!((seen(&f.engine_panic), seen(&f.train_panic)), (1, 0));
        // Train batches 1..=3 run clean although the engine's trigger (2)
        // is behind them: only the train count moves.
        for _ in 0..3 {
            f.before_batch();
        }
        assert_eq!((seen(&f.engine_panic), seen(&f.train_panic)), (1, 3));
        // Engine batch 2 fires the engine's one panic; the train budget
        // is untouched.
        let engine = catch_unwind(|| f.before_execute()).expect_err("engine batch 2 panics");
        let msg = engine.downcast_ref::<String>().expect("formatted message");
        assert!(msg.starts_with(INJECTED_PANIC_MSG), "{msg}");
        assert!(msg.contains("engine"), "{msg}");
        assert_eq!(f.train_panic.left.load(Ordering::Relaxed), 2);
        // Train batches 4 and 5 fire the train point's two panics.
        for _ in 0..2 {
            let train = catch_unwind(|| f.before_batch()).expect_err("train panics");
            let msg = train.downcast_ref::<String>().expect("formatted message");
            assert!(msg.contains("train"), "{msg}");
        }
        // Both budgets spent: each point runs clean, and counts only its
        // own hook.
        for _ in 0..5 {
            f.before_execute();
            f.compute_delay();
        }
        f.before_batch();
        assert_eq!((seen(&f.engine_panic), seen(&f.train_panic)), (7, 6));
        assert_eq!(f.engine_panic.left.load(Ordering::Relaxed), 0);
        assert_eq!(f.train_panic.left.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn bit_flip_mutates_scheduled_generation_once() {
        let f = FaultInjector::new(FaultPlan {
            bit_flip_gen: Some(2),
            ..FaultPlan::default()
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
        let f = FaultInjector::new(FaultPlan {
            torn_write_gen: Some(1),
            ..FaultPlan::default()
        });
        let mut bytes = vec![0u8; 100];
        assert_eq!(
            f.checkpoint_fault(1, &mut bytes),
            WriteFault::TornCrash { keep: 50 }
        );
        assert_eq!(f.checkpoint_fault(1, &mut bytes), WriteFault::None);
    }
}
