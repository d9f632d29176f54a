//! Chaos suite: deterministic fault injection against the serving stack.
//!
//! Every test here drives the engine (or the supervisor) through injected
//! failures — engine-thread panics at a scheduled batch, per-batch compute
//! delays, slot-release stalls — and asserts the failure-model invariant:
//! **every submitted request resolves to exactly one typed outcome** — a
//! result or a [`ServeError`] — never a hang, never a panic across the API
//! boundary, with `ServeStats` accounting that balances the submitted
//! count.
//!
//! Scenarios that could hang if the invariant broke run under a watchdog
//! (scenario on its own thread, bounded `recv_timeout` on the result), so
//! a regression fails fast instead of wedging the suite.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::time::Duration;

use proptest::prelude::*;

use radix_challenge::{
    ChallengeConfig, ChallengeNetwork, FaultInjector, FaultPlan, RestartPolicy, ServeConfig,
    ServeEngine, ServeError, ServeStats, ServeSupervisor,
};
use radix_nn::fault::INJECTED_PANIC_MSG;

mod support;
use support::with_watchdog;

fn small_net() -> ChallengeNetwork {
    ChallengeNetwork::from_config(&ChallengeConfig::preset(2, 4, 2)).unwrap()
}

fn chaos_config() -> ServeConfig {
    ServeConfig {
        max_batch: 4,
        deadline_us: 2_000,
        slots: 8,
        queue: 8,
        parallel: true,
    }
}

/// An injected engine panic resolves the in-flight request to
/// `EngineFailed` (not a hang, not a client-side panic), and `shutdown`
/// reports the injected panic's message as a typed error.
#[test]
fn injected_panic_fails_in_flight_and_shutdown_reports_it() {
    with_watchdog("panic-shutdown", Duration::from_secs(30), || {
        let fault = FaultInjector::new(FaultPlan {
            engine_panic_at_batch: Some(1),
            engine_panic_budget: 1,
            ..FaultPlan::default()
        });
        let handle = ServeEngine::start_with_faults(small_net(), &chaos_config(), fault);
        let client = handle.client();
        let row = vec![0.5f32; client.n_in()];
        // The very first flush panics, so this request must fail typed.
        match client.infer(&row) {
            Err(ServeError::EngineFailed(_)) | Err(ServeError::Shutdown) => {}
            other => panic!("expected engine failure, got {other:?}"),
        }
        // Shutdown surfaces the original injected panic message.
        match handle.shutdown() {
            Err(ServeError::EngineFailed(msg)) => {
                assert!(
                    msg.contains(INJECTED_PANIC_MSG),
                    "shutdown error should carry the injected panic message, got {msg:?}"
                );
            }
            other => panic!("expected EngineFailed from shutdown, got {other:?}"),
        }
    });
}

/// After an injected engine death, the supervisor restarts the engine and
/// subsequent requests are served correctly; stats carry the restart.
#[test]
fn supervisor_restarts_after_injected_panic() {
    with_watchdog("restart", Duration::from_secs(30), || {
        let net = small_net();
        let row = vec![0.5f32; net.n_in()];
        let reference = {
            let mut x = radix_sparse::DenseMatrix::zeros(1, net.n_in());
            x.row_mut(0).copy_from_slice(&row);
            net.forward(&x, false)
        };
        let fault = FaultInjector::new(FaultPlan {
            engine_panic_at_batch: Some(1),
            engine_panic_budget: 1,
            ..FaultPlan::default()
        });
        let sup = ServeSupervisor::start_with_faults(
            net,
            &chaos_config(),
            RestartPolicy::default(),
            fault,
        );
        let client = sup.client();
        // First request rides the doomed first batch: typed failure.
        match client.infer(&row) {
            Err(ServeError::EngineFailed(_)) => {}
            other => panic!("expected EngineFailed on the doomed batch, got {other:?}"),
        }
        // The failure triggered a restart; the fresh engine serves.
        let y = client.infer(&row).expect("restarted engine must serve");
        assert_eq!(y.as_slice(), reference.row(0));
        assert!(sup
            .last_error()
            .is_some_and(|m| m.contains(INJECTED_PANIC_MSG)));
        let stats = sup.shutdown();
        assert_eq!(stats.restarts, 1, "exactly one restart");
        assert_eq!(stats.rows, 1, "one request was actually computed");
    });
}

/// A panic budget larger than the restart budget exhausts the supervisor:
/// it stops restarting and fails fast, rather than crash-looping.
#[test]
fn restart_budget_exhausts_to_fast_failure() {
    with_watchdog("exhaust", Duration::from_secs(60), || {
        let fault = FaultInjector::new(FaultPlan {
            // Panic on every batch, far more times than the restart budget.
            engine_panic_at_batch: Some(1),
            engine_panic_budget: 100,
            ..FaultPlan::default()
        });
        let policy = RestartPolicy {
            max_restarts: 2,
            backoff: Duration::from_millis(1),
        };
        let sup = ServeSupervisor::start_with_faults(small_net(), &chaos_config(), policy, fault);
        let client = sup.client();
        let row = vec![0.5f32; client.n_in()];
        // Keep submitting until the supervisor gives up; every outcome
        // along the way must be a typed error (every engine dies on its
        // first batch, so nothing is ever served).
        let mut attempts = 0u32;
        loop {
            attempts += 1;
            assert!(attempts < 50, "supervisor failed to reach exhaustion");
            match client.infer(&row) {
                Err(ServeError::EngineFailed(_)) | Err(ServeError::Shutdown) => {}
                Ok(_) => panic!("nothing can be served — every batch panics"),
                Err(e) => panic!("unexpected error {e:?}"),
            }
            if sup.exhausted() {
                break;
            }
        }
        // Exhausted: requests fail fast with the last failure's message.
        match client.infer(&row) {
            Err(ServeError::EngineFailed(msg)) => {
                assert!(msg.contains(INJECTED_PANIC_MSG), "got {msg:?}");
            }
            other => panic!("expected fail-fast EngineFailed, got {other:?}"),
        }
        let stats = sup.shutdown();
        assert_eq!(stats.restarts, 2, "restart budget fully spent");
        assert_eq!(stats.rows, 0);
    });
}

/// Compute delays push queued `infer_within` requests past their
/// deadlines: they must be shed with `DeadlineExceeded` (never served
/// late into the void, never hung), while generous-deadline traffic still
/// completes.
#[test]
fn compute_delay_sheds_expired_requests() {
    with_watchdog("shed", Duration::from_secs(60), || {
        let fault = FaultInjector::new(FaultPlan {
            compute_delay_us: 20_000, // 20 ms per batch
            ..FaultPlan::default()
        });
        let config = ServeConfig {
            max_batch: 2,
            deadline_us: 1_000,
            slots: 8,
            queue: 8,
            parallel: false,
        };
        let handle = ServeEngine::start_with_faults(small_net(), &config, fault);
        let client = handle.client();
        let row = vec![0.5f32; client.n_in()];
        std::thread::scope(|s| {
            for _ in 0..4 {
                let client = client.clone();
                let row = &row;
                s.spawn(move || {
                    let mut out = Vec::new();
                    for _ in 0..6 {
                        match client.infer_within_into(row, &mut out, Duration::from_millis(2)) {
                            // A late Ok is documented and possible; sheds
                            // are typed; nothing else may surface.
                            Ok(()) | Err(ServeError::DeadlineExceeded | ServeError::Overloaded) => {
                            }
                            Err(e) => panic!("unexpected error {e:?}"),
                        }
                    }
                });
            }
        });
        // Tally via the engine's stats: its books must account for every
        // one of the 4 × 6 submissions.
        let stats = handle.shutdown().unwrap();
        assert_eq!(
            stats.rows + stats.shed_deadline + stats.shed_overload,
            24,
            "every submitted request accounted: {stats:?}"
        );
        assert!(
            stats.shed_deadline + stats.shed_overload > 0,
            "20 ms batches against 2 ms deadlines must shed something: {stats:?}"
        );
    });
}

/// The shutdown-under-chaos stress from the issue: concurrent mixed
/// traffic (blocking, non-blocking, deadline-bounded), an injected engine
/// panic mid-stream, supervisor restart, then a clean shutdown — with
/// `ServeStats` accounting balancing the client-observed outcome counts.
/// Pool width is forced by the harness (`RADIX_POOL_THREADS`, see the
/// `verify-chaos` make target which runs this suite at 2 and 4 threads).
#[test]
fn shutdown_under_chaos_accounting_balances() {
    with_watchdog("stress", Duration::from_secs(120), || {
        const CLIENTS: usize = 4;
        const PER_CLIENT: usize = 40;
        let fault = FaultInjector::new(FaultPlan {
            engine_panic_at_batch: Some(5),
            engine_panic_budget: 2,
            compute_delay_us: 200,
            release_stall_us: 50,
            ..FaultPlan::default()
        });
        let policy = RestartPolicy {
            max_restarts: 4,
            backoff: Duration::from_millis(1),
        };
        let sup = ServeSupervisor::start_with_faults(small_net(), &chaos_config(), policy, fault);
        let ok = AtomicU64::new(0);
        let deadline = AtomicU64::new(0);
        let overload = AtomicU64::new(0);
        let failed = AtomicU64::new(0);
        std::thread::scope(|s| {
            for c in 0..CLIENTS {
                let client = sup.client();
                let (ok, deadline, overload, failed) = (&ok, &deadline, &overload, &failed);
                s.spawn(move || {
                    let mut out = Vec::new();
                    let row = vec![0.25f32; client.n_in()];
                    for i in 0..PER_CLIENT {
                        let result = match (c + i) % 3 {
                            0 => client.infer_into(&row, &mut out),
                            1 => client.try_infer_into(&row, &mut out),
                            _ => {
                                client.infer_within_into(&row, &mut out, Duration::from_millis(50))
                            }
                        };
                        match result {
                            Ok(()) => ok.fetch_add(1, Ordering::Relaxed),
                            Err(ServeError::DeadlineExceeded) => {
                                deadline.fetch_add(1, Ordering::Relaxed)
                            }
                            Err(ServeError::Overloaded) => overload.fetch_add(1, Ordering::Relaxed),
                            Err(ServeError::EngineFailed(_)) | Err(ServeError::Shutdown) => {
                                failed.fetch_add(1, Ordering::Relaxed)
                            }
                            Err(e) => panic!("malformed-input error for a well-formed row: {e:?}"),
                        };
                    }
                });
            }
        });
        let stats = sup.shutdown();
        let (ok, deadline, overload, failed) = (
            ok.into_inner(),
            deadline.into_inner(),
            overload.into_inner(),
            failed.into_inner(),
        );
        let submitted = (CLIENTS * PER_CLIENT) as u64;
        // Exactly one outcome per submitted request.
        assert_eq!(
            ok + deadline + overload + failed,
            submitted,
            "outcome counts must partition the submitted requests"
        );
        // The engine's books agree with the clients' tallies.
        assert_eq!(stats.rows, ok, "served rows == client Ok count: {stats:?}");
        assert_eq!(
            stats.shed_deadline, deadline,
            "deadline sheds == client DeadlineExceeded count: {stats:?}"
        );
        assert_eq!(
            stats.shed_overload, overload,
            "overload sheds == client Overloaded count: {stats:?}"
        );
        assert!(
            stats.restarts >= 1,
            "the injected panics must have caused at least one restart: {stats:?}"
        );
        assert_eq!(stats.batches, stats.full_flushes + stats.deadline_flushes);
    });
}

/// Clean supervised shutdown with zero faults active behaves exactly like
/// the bare engine: all rows served, no sheds, no restarts.
#[test]
fn supervisor_clean_path_matches_bare_engine() {
    with_watchdog("clean", Duration::from_secs(30), || {
        let sup = ServeSupervisor::start_with_faults(
            small_net(),
            &chaos_config(),
            RestartPolicy::default(),
            FaultInjector::inactive(),
        );
        let client = sup.client();
        let row = vec![0.5f32; client.n_in()];
        for _ in 0..10 {
            client.infer(&row).unwrap();
        }
        let stats = sup.shutdown();
        assert_eq!(stats.rows, 10);
        assert_eq!(stats.restarts, 0);
        assert_eq!(stats.shed_deadline + stats.shed_overload, 0);
    });
}

/// Start → traffic → panic → restart → clean shutdown, cycled repeatedly
/// in one process: no generation leaks state into the next, and the pool
/// absorbs every injected death.
#[test]
fn repeated_chaos_cycles_stay_clean() {
    with_watchdog("cycles", Duration::from_secs(120), || {
        for cycle in 0..3 {
            let fault = FaultInjector::new(FaultPlan {
                engine_panic_at_batch: Some(2),
                engine_panic_budget: 1,
                ..FaultPlan::default()
            });
            let sup = ServeSupervisor::start_with_faults(
                small_net(),
                &chaos_config(),
                RestartPolicy::default(),
                fault,
            );
            let client = sup.client();
            let row = vec![0.5f32; client.n_in()];
            let mut served = 0u64;
            for _ in 0..8 {
                match client.infer(&row) {
                    Ok(_) => served += 1,
                    Err(ServeError::EngineFailed(_)) => {}
                    Err(e) => panic!("cycle {cycle}: unexpected {e:?}"),
                }
            }
            let stats = sup.shutdown();
            assert_eq!(stats.rows, served, "cycle {cycle}: books balance");
            assert!(stats.restarts <= 1, "cycle {cycle}: one panic, one restart");
        }
    });
}

/// Accounting helper shared by the proptest: run a full chaos scenario
/// and return (client tallies, final stats).
fn run_chaos_schedule(
    plan: FaultPlan,
    clients: usize,
    per_client: usize,
    timeout_ms: u64,
) -> ([u64; 4], ServeStats) {
    let policy = RestartPolicy {
        max_restarts: 3,
        backoff: Duration::from_millis(1),
    };
    let sup = ServeSupervisor::start_with_faults(
        small_net(),
        &chaos_config(),
        policy,
        FaultInjector::new(plan),
    );
    let ok = AtomicU64::new(0);
    let shed = AtomicU64::new(0);
    let over = AtomicU64::new(0);
    let failed = AtomicU64::new(0);
    std::thread::scope(|s| {
        for c in 0..clients {
            let client = sup.client();
            let (ok, shed, over, failed) = (&ok, &shed, &over, &failed);
            s.spawn(move || {
                let mut out = Vec::new();
                let row = vec![0.25f32; client.n_in()];
                for i in 0..per_client {
                    let result = match (c + i) % 3 {
                        0 => client.infer_into(&row, &mut out),
                        1 => client.try_infer_into(&row, &mut out),
                        _ => client.infer_within_into(
                            &row,
                            &mut out,
                            Duration::from_millis(timeout_ms),
                        ),
                    };
                    match result {
                        Ok(()) => ok.fetch_add(1, Ordering::Relaxed),
                        Err(ServeError::DeadlineExceeded) => shed.fetch_add(1, Ordering::Relaxed),
                        Err(ServeError::Overloaded) => over.fetch_add(1, Ordering::Relaxed),
                        Err(ServeError::EngineFailed(_)) | Err(ServeError::Shutdown) => {
                            failed.fetch_add(1, Ordering::Relaxed)
                        }
                        Err(e) => panic!("unexpected validation error {e:?}"),
                    };
                }
            });
        }
    });
    let stats = sup.shutdown();
    (
        [
            ok.into_inner(),
            shed.into_inner(),
            over.into_inner(),
            failed.into_inner(),
        ],
        stats,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The failure-model invariant under *random* fault schedules: for any
    /// combination of scheduled engine panics, compute delays, and release
    /// stalls, every submitted request resolves to exactly one typed
    /// outcome, and the engine's accounting balances the clients' tallies.
    #[test]
    fn random_fault_schedules_preserve_exactly_one_outcome(
        // 0 disables the corresponding fault, so the sweep covers every
        // subset of {panic, delay, stall} including the all-off baseline.
        panic_at_raw in 0u64..8,
        panic_budget in 1u32..3,
        compute_delay_raw in 0u64..3_000,
        release_stall_raw in 0u64..300,
        timeout_ms in 1u64..40,
    ) {
        let plan = FaultPlan {
            engine_panic_at_batch: (panic_at_raw > 0).then_some(panic_at_raw),
            engine_panic_budget: panic_budget,
            compute_delay_us: if compute_delay_raw >= 100 { compute_delay_raw } else { 0 },
            release_stall_us: if release_stall_raw >= 10 { release_stall_raw } else { 0 },
            ..FaultPlan::default()
        };
        let (tx, rx) = mpsc::channel();
        std::thread::Builder::new()
            .name("chaos-prop".into())
            .spawn(move || {
                let _ = tx.send(run_chaos_schedule(plan, 3, 12, timeout_ms));
            })
            .expect("spawn chaos proptest scenario");
        let (tallies, stats) = rx
            .recv_timeout(Duration::from_secs(120))
            .unwrap_or_else(|_| panic!("schedule {plan:?} hung — a request never resolved"));
        let [ok, shed, over, failed] = tallies;
        prop_assert_eq!(
            ok + shed + over + failed,
            36,
            "outcomes must partition submissions under {:?} (stats {:?})", plan, stats
        );
        prop_assert_eq!(stats.rows, ok, "rows == Ok under {:?}", plan);
        prop_assert_eq!(stats.shed_deadline, shed, "sheds == DeadlineExceeded under {:?}", plan);
        prop_assert_eq!(stats.shed_overload, over, "overloads match under {:?}", plan);
        prop_assert_eq!(stats.batches, stats.full_flushes + stats.deadline_flushes);
    }
}
