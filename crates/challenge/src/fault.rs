//! Deterministic fault injection for the serving stack.
//!
//! Compiled unconditionally — no feature flag, no cfg — so the exact code
//! under test is the code that ships; activation is purely a matter of
//! data. An inactive [`FaultInjector`] (the default) costs one branch per
//! hook and allocates nothing, so the serving engine's zero-allocation
//! steady state is preserved.
//!
//! Three failure shapes cover the engine's fault surface:
//!
//! * **engine panic at the Nth batch** ([`FaultPlan::panic_at_batch`]) —
//!   drives the `EngineFailed` path, the exit-guard wake-ups, and the
//!   supervisor's restart logic; bounded by [`FaultPlan::panic_budget`] so
//!   a restarted engine eventually runs clean (the injector's counters are
//!   shared across engine generations),
//! * **per-batch compute delay** ([`FaultPlan::compute_delay_us`]) —
//!   deadline pressure: queued requests expire and must be shed with
//!   `DeadlineExceeded`, never served late,
//! * **slot-release stall** ([`FaultPlan::release_stall_us`]) — admission
//!   pressure: slots return to the free list slowly, so non-blocking and
//!   bounded-wait submits hit the `Overloaded` paths.
//!
//! Activation routes: construct a [`FaultPlan`] and pass it through
//! `ServeEngine::start_with_faults` / `ServeSupervisor::start_with_faults`
//! (what the chaos suites do), or set the `RADIX_FAULT_*` environment
//! variables (read by `ServeEngine::start`) to inject faults into an
//! unmodified binary:
//!
//! | variable | meaning |
//! |---|---|
//! | `RADIX_FAULT_PANIC_BATCH` | panic the engine thread at this (1-based, cumulative) batch |
//! | `RADIX_FAULT_PANIC_BUDGET` | how many injected panics may fire in total (default 1) |
//! | `RADIX_FAULT_COMPUTE_DELAY_US` | sleep this long before each batch's forward pass |
//! | `RADIX_FAULT_RELEASE_STALL_US` | sleep this long in each client's slot release |

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use radix_nn::fault::positive_var;

/// Message prefix of every injected engine panic — chaos tests match on it
/// to distinguish injected faults from genuine bugs.
pub const INJECTED_PANIC_MSG: &str = "injected engine fault";

/// A declarative schedule of faults to inject. Plain data (`Copy`,
/// comparable) so proptests can generate, shrink, and print schedules.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultPlan {
    /// Panic the engine thread when the cumulative batch count (1-based,
    /// shared across engine generations) reaches this value; `None`
    /// injects no panics.
    pub panic_at_batch: Option<u64>,
    /// Total injected panics allowed. With a supervisor restarting the
    /// engine, a budget of `n` produces exactly `n` engine deaths before
    /// the pipeline runs clean. Ignored when `panic_at_batch` is `None`.
    pub panic_budget: u32,
    /// Sleep before each batch's forward pass, in microseconds — makes
    /// queued requests miss their deadlines (shed pressure).
    pub compute_delay_us: u64,
    /// Sleep inside each client's slot release, in microseconds — holds
    /// slots out of the free list (admission pressure).
    pub release_stall_us: u64,
}

impl FaultPlan {
    /// Whether this plan injects anything at all.
    #[must_use]
    pub fn is_active(&self) -> bool {
        self.panic_at_batch.is_some() || self.compute_delay_us > 0 || self.release_stall_us > 0
    }
}

/// A [`FaultPlan`] plus the shared mutable state that sequences it: a
/// cumulative batch counter and a remaining-panic budget. Clones share
/// the counters (`Arc`), which is what makes the plan meaningful across
/// supervisor restarts — a fresh engine generation continues the old
/// batch count and cannot re-fire an exhausted panic.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    plan: FaultPlan,
    /// Batches executed so far, across every engine generation.
    batches: Arc<AtomicU64>,
    /// Injected panics still allowed.
    panics_left: Arc<AtomicU32>,
    /// Cached `plan.is_active()` — the only thing the happy path reads.
    active: bool,
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

    /// An injector executing `plan` from a zero batch count.
    #[must_use]
    pub fn new(plan: FaultPlan) -> Self {
        FaultInjector {
            active: plan.is_active(),
            batches: Arc::new(AtomicU64::new(0)),
            panics_left: Arc::new(AtomicU32::new(if plan.panic_at_batch.is_some() {
                plan.panic_budget.max(1)
            } else {
                0
            })),
            plan,
        }
    }

    /// Builds the plan from the `RADIX_FAULT_*` environment (all unset →
    /// inactive). See the module docs for the variable table.
    #[must_use]
    pub fn from_env() -> Self {
        Self::from_vars(|name| std::env::var(name).ok())
    }

    /// [`FaultInjector::from_env`] over any variable lookup (tests pass a
    /// closure instead of mutating the process environment). A value that
    /// is `0` or does not parse counts as unset.
    fn from_vars(vars: impl Fn(&str) -> Option<String>) -> Self {
        let var = |name| positive_var(&vars, name);
        Self::new(FaultPlan {
            panic_at_batch: var("RADIX_FAULT_PANIC_BATCH"),
            panic_budget: var("RADIX_FAULT_PANIC_BUDGET")
                .map_or(1, |n| n.min(u64::from(u32::MAX)) as u32),
            compute_delay_us: var("RADIX_FAULT_COMPUTE_DELAY_US").unwrap_or(0),
            release_stall_us: var("RADIX_FAULT_RELEASE_STALL_US").unwrap_or(0),
        })
    }

    /// The plan this injector executes.
    #[must_use]
    pub fn plan(&self) -> FaultPlan {
        self.plan
    }

    /// Batches executed so far across every engine generation sharing
    /// this injector.
    #[must_use]
    pub fn batches_seen(&self) -> u64 {
        self.batches.load(Ordering::Relaxed)
    }

    /// Engine hook, called at the top of every flush (before any slot is
    /// touched). Counts the batch; panics when the schedule says so.
    ///
    /// # Panics
    /// Panics (message prefixed [`INJECTED_PANIC_MSG`]) when the
    /// cumulative batch count reaches [`FaultPlan::panic_at_batch`] and
    /// the panic budget is not exhausted.
    pub fn before_execute(&self) {
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
                    panic!("{INJECTED_PANIC_MSG} at batch {seq}");
                }
            }
        }
    }

    /// Engine hook, called between gather and the forward pass: injects
    /// the configured compute delay.
    pub fn compute_delay(&self) {
        if self.active && self.plan.compute_delay_us > 0 {
            std::thread::sleep(Duration::from_micros(self.plan.compute_delay_us));
        }
    }

    /// Client hook, called in the slot-release path: injects the
    /// configured stall before the slot returns to the free list.
    pub fn release_stall(&self) {
        if self.active && self.plan.release_stall_us > 0 {
            std::thread::sleep(Duration::from_micros(self.plan.release_stall_us));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inactive_injector_never_fires() {
        let f = FaultInjector::inactive();
        assert!(!f.plan().is_active());
        for _ in 0..100 {
            f.before_execute(); // must not panic
            f.compute_delay();
            f.release_stall();
        }
        assert_eq!(f.batches_seen(), 0, "inactive hooks do not even count");
    }

    #[test]
    fn panic_fires_at_scheduled_batch_and_respects_budget() {
        let f = FaultInjector::new(FaultPlan {
            panic_at_batch: Some(3),
            panic_budget: 1,
            ..FaultPlan::default()
        });
        f.before_execute();
        f.before_execute();
        let caught = std::panic::catch_unwind(|| f.before_execute());
        assert!(caught.is_err(), "third batch must panic");
        // Budget exhausted: later batches run clean, forever.
        for _ in 0..10 {
            f.before_execute();
        }
        assert_eq!(f.batches_seen(), 13);
    }

    #[test]
    fn clones_share_the_schedule_across_generations() {
        let f = FaultInjector::new(FaultPlan {
            panic_at_batch: Some(2),
            panic_budget: 2,
            ..FaultPlan::default()
        });
        let gen2 = f.clone();
        f.before_execute();
        assert!(std::panic::catch_unwind(|| f.before_execute()).is_err());
        // The "restarted" generation sees the cumulative count (already
        // past the trigger) and the decremented budget: one more fire.
        assert!(std::panic::catch_unwind(|| gen2.before_execute()).is_err());
        gen2.before_execute();
        gen2.before_execute();
        assert_eq!(f.batches_seen(), gen2.batches_seen());
    }

    #[test]
    fn env_parsing_defaults_to_inactive() {
        // The test environment does not set RADIX_FAULT_*; from_env must
        // yield an inactive injector (this is what production start() sees).
        let f = FaultInjector::from_env();
        assert!(!f.plan().is_active());
    }

    const BATCH: &str = "RADIX_FAULT_PANIC_BATCH";
    const BUDGET: &str = "RADIX_FAULT_PANIC_BUDGET";
    const DELAY: &str = "RADIX_FAULT_COMPUTE_DELAY_US";
    const STALL: &str = "RADIX_FAULT_RELEASE_STALL_US";

    fn plan_of(vars: &[(&str, &str)]) -> FaultPlan {
        FaultInjector::from_vars(|name| {
            vars.iter()
                .find(|(k, _)| *k == name)
                .map(|(_, v)| (*v).to_string())
        })
        .plan()
    }

    #[test]
    fn from_vars_reads_every_variable() {
        let plan = plan_of(&[(BATCH, "7"), (BUDGET, "3"), (DELAY, "250"), (STALL, "40")]);
        assert_eq!(
            plan,
            FaultPlan {
                panic_at_batch: Some(7),
                panic_budget: 3,
                compute_delay_us: 250,
                release_stall_us: 40,
            }
        );
        assert!(plan.is_active());
    }

    #[test]
    fn from_vars_unset_zero_or_unparseable_is_inactive() {
        let inactive = FaultPlan {
            panic_budget: 1,
            ..FaultPlan::default()
        };
        assert_eq!(plan_of(&[]), inactive);
        for name in [BATCH, DELAY, STALL] {
            for value in ["0", "x", "-1", "", "1.5"] {
                assert_eq!(plan_of(&[(name, value)]), inactive, "{name}={value:?}");
            }
        }
        assert_eq!(plan_of(&[(DELAY, "5")]).compute_delay_us, 5);
        assert_eq!(plan_of(&[(STALL, "6")]).release_stall_us, 6);
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
