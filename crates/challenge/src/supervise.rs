//! Supervised serving: automatic engine restart after a panic.
//!
//! A [`ServeSupervisor`] owns the network and wraps a serving engine in a
//! restart loop: when the engine thread dies abnormally, the supervisor
//! retires the dead generation (its in-flight requests have already
//! resolved to [`ServeError::EngineFailed`] via the engine's exit guard),
//! waits out a linear backoff, and starts a fresh engine from its own
//! copy of the network — new requests transparently hit the fresh engine.
//! Restarts are bounded by [`RestartPolicy::max_restarts`]; once the
//! budget is exhausted the supervisor stops restarting and every further
//! request fails fast with [`ServeError::EngineFailed`].
//!
//! The restart is *reactive*: the failure is detected by the first
//! request that observes the dead engine (or by an explicit
//! [`SupervisorClient`] call finding `engine_live()` false). That
//! request — genuinely in flight on the dead engine — still gets its
//! `EngineFailed`; it is not silently retried, because the supervisor
//! cannot know whether the dead engine computed it. Requests arriving
//! during the restart window block briefly on the supervisor's state
//! lock and then proceed against the new generation.
//!
//! Accounting survives failure: each generation's counters live in shared
//! atomics that outlive the engine thread, and the supervisor keeps every
//! retired generation's state alive (bounded by the restart budget), so
//! [`SupervisorHandle::shutdown`] returns lifetime totals — rows, sheds,
//! flushes, restarts — that balance the submitted request count even when
//! engines died mid-stream.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use radix_nn::fault::FaultInjector;
use radix_nn::RestartPolicy;

use crate::infer::ChallengeNetwork;
use crate::serve::{ServeClient, ServeConfig, ServeEngine, ServeError, ServeHandle, ServeStats};

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Mutable supervisor state, serialized by one mutex: requests snapshot
/// the current generation under it, and failure handling (retire +
/// restart) runs entirely inside it, so concurrent failure observers
/// trigger exactly one restart.
struct SupState {
    /// The live engine; `None` only after shutdown or budget exhaustion.
    handle: Option<ServeHandle>,
    /// Clone source for request snapshots (kept outside `handle` so
    /// cloning does not borrow through the `Option`).
    client: Option<ServeClient>,
    /// Bumped on every restart; lets a failure observer detect that
    /// someone else already replaced the generation it saw fail.
    generation: u64,
    /// Restarts performed so far.
    restarts: u32,
    /// Retired generations' shared state — kept alive (bounded by the
    /// restart budget) so a straggling client's late counter bump is
    /// still visible to the final accounting.
    retired: Vec<Arc<crate::serve::Shared>>,
    /// Message of the most recent engine failure.
    last_error: Option<String>,
    /// Set when the restart budget is exhausted: no engine will run again.
    exhausted: bool,
}

/// Everything the supervisor's clients share.
struct SupShared {
    config: ServeConfig,
    policy: RestartPolicy,
    /// The supervisor's own copy of the network — each restart clones it
    /// for the fresh engine.
    net: ChallengeNetwork,
    /// Fault injector handed to every generation; its counters are shared,
    /// so an exhausted panic budget stays exhausted across restarts.
    fault: FaultInjector,
    /// Set by [`SupervisorHandle::shutdown`]: failures stop triggering
    /// restarts and requests fail fast.
    stopping: AtomicBool,
    state: Mutex<SupState>,
}

impl SupShared {
    /// Handles an observed engine failure: if the failed generation is
    /// still current (first observer wins), retire it and start a fresh
    /// engine — or mark the supervisor exhausted when the restart budget
    /// is spent. Returns with the state lock released.
    fn handle_failure(&self, observed_generation: u64) {
        let mut st = lock(&self.state);
        if st.generation != observed_generation
            || st.exhausted
            || self.stopping.load(Ordering::Acquire)
        {
            return;
        }
        let Some(old) = st.handle.take() else {
            return;
        };
        st.client = None;
        // Keep the dead generation's counters reachable, then join its
        // thread to capture the real panic message.
        st.retired.push(old.shared_arc());
        match old.shutdown() {
            Ok(_) => {
                // The engine exited cleanly after all (a graceful-exit
                // race, not a crash); still restart — callers saw errors.
            }
            Err(ServeError::EngineFailed(msg)) => st.last_error = Some(msg),
            Err(_) => {}
        }
        // Linear backoff, slept while holding the state lock: requests
        // arriving mid-restart block here and then see the new engine —
        // that blocking *is* the "transparently hit the fresh engine"
        // behavior (they never observe the dead generation).
        if !self.policy.admit_restart(st.restarts) {
            st.exhausted = true;
            return;
        }
        st.restarts += 1;
        let handle =
            ServeEngine::start_with_faults(self.net.clone(), &self.config, self.fault.clone());
        st.client = Some(handle.client());
        st.handle = Some(handle);
        st.generation += 1;
    }
}

/// The supervisor: constructor only — interaction goes through the
/// [`SupervisorHandle`] it returns.
pub struct ServeSupervisor;

impl ServeSupervisor {
    /// Starts a supervised engine serving `net` under `config`, restarting
    /// it per `policy` when it dies. No fault is injected, exactly as
    /// [`ServeEngine::start`].
    ///
    /// # Panics
    /// As [`ServeEngine::start`] (invalid config, thread spawn failure).
    #[must_use]
    pub fn start(
        net: ChallengeNetwork,
        config: &ServeConfig,
        policy: RestartPolicy,
    ) -> SupervisorHandle {
        Self::start_with_faults(net, config, policy, FaultInjector::inactive())
    }

    /// [`ServeSupervisor::start`] with an explicit fault injector. The
    /// injector is shared across every engine generation this supervisor
    /// starts, so cumulative schedules (panic at batch N, budget M)
    /// behave deterministically through restarts.
    ///
    /// # Panics
    /// As [`ServeEngine::start`].
    #[must_use]
    pub fn start_with_faults(
        net: ChallengeNetwork,
        config: &ServeConfig,
        policy: RestartPolicy,
        fault: FaultInjector,
    ) -> SupervisorHandle {
        let handle = ServeEngine::start_with_faults(net.clone(), config, fault.clone());
        let client = handle.client();
        SupervisorHandle {
            shared: Arc::new(SupShared {
                config: config.clone(),
                policy,
                net,
                fault,
                stopping: AtomicBool::new(false),
                state: Mutex::new(SupState {
                    handle: Some(handle),
                    client: Some(client),
                    generation: 0,
                    restarts: 0,
                    retired: Vec::new(),
                    last_error: None,
                    exhausted: false,
                }),
            }),
        }
    }
}

/// Control handle for a supervised engine: hands out clients, reports
/// accumulated stats, shuts the whole supervision tree down.
pub struct SupervisorHandle {
    shared: Arc<SupShared>,
}

impl SupervisorHandle {
    /// A new request handle onto the supervised engine.
    #[must_use]
    pub fn client(&self) -> SupervisorClient {
        SupervisorClient {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Lifetime stats so far: every retired generation plus the live one,
    /// with [`ServeStats::restarts`] set to the restarts performed.
    #[must_use]
    pub fn stats(&self) -> ServeStats {
        let st = lock(&self.shared.state);
        let mut total = ServeStats::default();
        for shared in &st.retired {
            total.absorb(&shared.stats.snapshot());
        }
        if let Some(handle) = &st.handle {
            total.absorb(&handle.stats());
        }
        total.restarts = u64::from(st.restarts);
        total
    }

    /// The most recent engine failure's panic message, if any engine has
    /// died under this supervisor.
    #[must_use]
    pub fn last_error(&self) -> Option<String> {
        lock(&self.shared.state).last_error.clone()
    }

    /// Whether the restart budget is exhausted (no engine is running and
    /// none will be started).
    #[must_use]
    pub fn exhausted(&self) -> bool {
        lock(&self.shared.state).exhausted
    }

    /// Shuts the supervision tree down and returns lifetime stats across
    /// every generation. Infallible by design: a final engine panic is
    /// absorbed into [`Self::last_error`] accounting rather than
    /// propagated — the supervisor's whole job is that engine death is a
    /// counted event, not an escaping panic.
    #[must_use]
    pub fn shutdown(self) -> ServeStats {
        self.shared.stopping.store(true, Ordering::Release);
        let mut st = lock(&self.shared.state);
        let mut total = ServeStats::default();
        if let Some(handle) = st.handle.take() {
            st.client = None;
            // Grab the shared state first: if the final join reports a
            // panic, the counters are still there to be read.
            let shared = handle.shared_arc();
            match handle.shutdown() {
                Ok(stats) => total.absorb(&stats),
                Err(e) => {
                    if let ServeError::EngineFailed(msg) = e {
                        st.last_error = Some(msg);
                    }
                    total.absorb(&shared.stats.snapshot());
                }
            }
        }
        for shared in &st.retired {
            total.absorb(&shared.stats.snapshot());
        }
        total.restarts = u64::from(st.restarts);
        total
    }
}

/// A clonable request handle that survives engine restarts: each call
/// snapshots the current generation's [`ServeClient`], and an observed
/// engine failure triggers the supervisor's restart path.
#[derive(Clone)]
pub struct SupervisorClient {
    shared: Arc<SupShared>,
}

impl SupervisorClient {
    /// Input width the engine's network expects.
    #[must_use]
    pub fn n_in(&self) -> usize {
        self.shared.net.n_in()
    }

    /// Output width of a served result row.
    #[must_use]
    pub fn n_out(&self) -> usize {
        self.shared.net.layers().last().map_or(0, |l| l.ncols())
    }

    /// Snapshots the current generation. A detectably-dead engine is
    /// restarted *before* the request is issued, so requests arriving
    /// after a crash (but before any other observer) still hit a live
    /// engine instead of burning their one attempt on a corpse.
    fn snapshot(&self) -> Result<(u64, ServeClient), ServeError> {
        loop {
            let (generation, client) = {
                let st = lock(&self.shared.state);
                if st.exhausted || self.shared.stopping.load(Ordering::Acquire) {
                    return Err(self.terminal_error(&st));
                }
                let Some(client) = st.client.as_ref() else {
                    return Err(self.terminal_error(&st));
                };
                (st.generation, client.clone())
            };
            if client.engine_live() {
                return Ok((generation, client));
            }
            self.shared.handle_failure(generation);
        }
    }

    /// The error for a supervisor that will never serve again.
    fn terminal_error(&self, st: &SupState) -> ServeError {
        if self.shared.stopping.load(Ordering::Acquire) && !st.exhausted {
            ServeError::Shutdown
        } else {
            ServeError::EngineFailed(
                st.last_error
                    .clone()
                    .unwrap_or_else(|| "engine restart budget exhausted".to_string()),
            )
        }
    }

    /// Runs one request against the current generation; on an engine
    /// failure, triggers the restart path and propagates the error (the
    /// request was in flight on the dead engine — the supervisor cannot
    /// know whether it was computed, so it is not retried).
    fn drive<R>(
        &self,
        f: impl FnOnce(&ServeClient) -> Result<R, ServeError>,
    ) -> Result<R, ServeError> {
        let (generation, client) = self.snapshot()?;
        match f(&client) {
            Err(e @ ServeError::EngineFailed(_)) => {
                self.shared.handle_failure(generation);
                Err(e)
            }
            other => other,
        }
    }

    /// Supervised [`ServeClient::infer_into`].
    ///
    /// # Errors
    /// As [`ServeClient::infer_into`]; additionally fails fast with
    /// [`ServeError::EngineFailed`] once the restart budget is exhausted.
    pub fn infer_into(&self, row: &[f32], out: &mut Vec<f32>) -> Result<(), ServeError> {
        self.drive(|c| c.infer_into(row, out))
    }

    /// Supervised [`ServeClient::infer`].
    ///
    /// # Errors
    /// As [`Self::infer_into`].
    pub fn infer(&self, row: &[f32]) -> Result<Vec<f32>, ServeError> {
        self.drive(|c| c.infer(row))
    }

    /// Supervised [`ServeClient::try_infer_into`].
    ///
    /// # Errors
    /// As [`ServeClient::try_infer_into`], plus exhausted-budget fail-fast.
    pub fn try_infer_into(&self, row: &[f32], out: &mut Vec<f32>) -> Result<(), ServeError> {
        self.drive(|c| c.try_infer_into(row, out))
    }

    /// Supervised [`ServeClient::try_infer`].
    ///
    /// # Errors
    /// As [`Self::try_infer_into`].
    pub fn try_infer(&self, row: &[f32]) -> Result<Vec<f32>, ServeError> {
        self.drive(|c| c.try_infer(row))
    }

    /// Supervised [`ServeClient::infer_within_into`].
    ///
    /// # Errors
    /// As [`ServeClient::infer_within_into`], plus exhausted-budget
    /// fail-fast.
    pub fn infer_within_into(
        &self,
        row: &[f32],
        out: &mut Vec<f32>,
        timeout: Duration,
    ) -> Result<(), ServeError> {
        self.drive(|c| c.infer_within_into(row, out, timeout))
    }

    /// Supervised [`ServeClient::infer_within`].
    ///
    /// # Errors
    /// As [`Self::infer_within_into`].
    pub fn infer_within(&self, row: &[f32], timeout: Duration) -> Result<Vec<f32>, ServeError> {
        self.drive(|c| c.infer_within(row, timeout))
    }
}
