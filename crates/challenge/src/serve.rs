//! Asynchronous inference serving: many concurrent clients, one engine,
//! work-conserving micro-batching onto the tiled kernels.
//!
//! This turns the batch pipeline into a *service*. Clients submit
//! single-row inference requests from any number of threads through a
//! clonable [`ServeClient`]; a dedicated engine thread coalesces them into
//! row blocks of at most [`ServeConfig::max_batch`] rows (the kernels'
//! row-block height), runs each block through
//! [`ChallengeNetwork::forward_with`] on the persistent worker pool, and
//! demuxes every row's result back to its requester in submission order.
//! The engine never holds a request back hoping for company: whatever is
//! queued when it looks is executed at once, and rows coalesce only by
//! arriving while a block is executing (natural batching) — a lone request
//! costs its compute plus two hand-offs, a backlog still fills blocks to
//! `max_batch`. "Async" here is channel-and-thread asynchrony — the
//! offline build image has no async runtime, and none is needed: the
//! request path is two bounded hand-offs and a condvar.
//!
//! # Request lifecycle
//!
//! ```text
//! client                       engine thread                    pool
//!   │ validate row               │                                │
//!   │ check out slot             │                                │
//!   │ write row into slot        │                                │
//!   │ send slot id ──bounded──▶  │ MicroBatcher: drain queued ids │
//!   │ wait on slot condvar       │   up to one full block, flush  │
//!   │                            │   at once; park when idle      │
//!   │                            │ shed rows past their deadline  │
//!   │                            │ gather live rows → batch       │
//!   │                            │ forward_with ───────────────▶  │ per-layer
//!   │                            │                 ◀───────────── │ tiled
//!   │ ◀─ result + notify ─────── │ demux rows → slots, in order   │
//!   │ return slot to free list   │                                │
//! ```
//!
//! # Allocation discipline
//!
//! Every buffer a request touches is pre-allocated at engine start: the
//! slot pool (one input row + one output row per in-flight request), the
//! batch gather matrix, the [`InferWorkspace`], and the micro-batcher's id
//! buffer. The bounded channel carries bare slot indices (`usize`). After
//! warm-up traffic has driven the channel/condvar parking structures to
//! their high-water marks, the steady-state serving loop — validate,
//! submit, batch, execute, demux, respond — performs **zero heap
//! allocation** on either side (`tests/zero_alloc_serve.rs` pins this down
//! with a counting allocator on a forced 4-thread pool). Error paths may
//! allocate (the [`ServeError::EngineFailed`] message), but the happy path
//! never does.
//!
//! # Failure model
//!
//! Every fallible outcome on the request path is a typed [`ServeError`] —
//! the library never panics across the API boundary for a malformed or
//! unlucky request, and every submitted request resolves to exactly one
//! outcome (a result or an error, never a hang):
//!
//! * malformed rows are rejected at admission ([`ServeError::WidthMismatch`],
//!   [`ServeError::NonFiniteInput`] — the latter gated by
//!   `RADIX_SERVE_VALIDATE`, default on),
//! * overload is shed at admission ([`ServeClient::try_infer`] returns
//!   [`ServeError::Overloaded`] instead of blocking;
//!   [`ServeClient::infer_within`] predicts a deadline miss from queue
//!   depth and sheds before queueing),
//! * requests that expire while queued are completed with
//!   [`ServeError::DeadlineExceeded`] at flush time *without* being
//!   computed — shed work, don't burn pool time on answers nobody reads,
//! * an engine-thread panic wakes every waiter with
//!   [`ServeError::EngineFailed`] (and [`ServeHandle::shutdown`] returns
//!   the panic message as an error instead of re-panicking); the
//!   `supervise` module layers bounded-restart recovery on top.
//!
//! A [`FaultInjector`] passed to [`ServeEngine::start_with_faults`]
//! injects deterministic faults (engine panics, compute delays,
//! slot-release stalls), driving the chaos suites that pin these
//! guarantees down.
//!
//! # Backpressure and shutdown
//!
//! Two bounded stages push back on producers: clients block checking out a
//! slot when all [`ServeConfig::slots`] are in flight, and block again on
//! the bounded request channel when the engine is behind. Graceful
//! shutdown ([`ServeHandle::shutdown`]) stops admission first (new
//! requests fail fast with [`ServeError::Shutdown`]), then drains: the
//! engine keeps flushing until every queued request has been answered and
//! every slot returned, and only then exits. An idle engine parks in a
//! blocking receive and makes no periodic wake-ups: shutdown, reload, and
//! the last slot release of a draining engine each push a control token
//! through the request channel to wake it.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use radix_nn::fault::FaultInjector;
use radix_nn::supervise::panic_message;
use radix_sparse::{DenseMatrix, KernelPlan};

use crate::infer::{ChallengeNetwork, InferWorkspace};

/// Default end-to-end latency target in microseconds
/// (`RADIX_SERVE_DEADLINE_US`).
pub const DEFAULT_DEADLINE_US: usize = 10_000;

/// Default number of pre-allocated in-flight request slots
/// (`RADIX_SERVE_SLOTS`), as a multiple of [`ServeConfig::max_batch`].
const DEFAULT_SLOT_BLOCKS: usize = 4;

/// Serving engine configuration. [`ServeConfig::default`] reads the
/// `RADIX_SERVE_*` environment knobs (each field documents its variable),
/// so a deployment can be tuned without code changes; explicit fields win
/// over the environment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeConfig {
    /// Rows per coalesced block — flush threshold of the micro-batcher.
    /// Defaults to `RADIX_SERVE_BATCH` or 32, the kernels' default row
    /// block, so a full micro-batch is exactly one tile block.
    pub max_batch: usize,
    /// End-to-end latency target per request, in microseconds
    /// (`RADIX_SERVE_DEADLINE_US`, default [`DEFAULT_DEADLINE_US`]): the
    /// bound callers and benches judge response latency against. It no
    /// longer buys a hold — the engine is work-conserving and never keeps
    /// a queued row waiting for its block to fill, so nothing in the
    /// engine reads it; per-request shedding is governed by the timeout
    /// passed to [`ServeClient::infer_within`].
    pub deadline_us: u64,
    /// Pre-allocated in-flight request slots (`RADIX_SERVE_SLOTS`, default
    /// `4 * max_batch`). This bounds memory *and* is the first
    /// backpressure stage: clients block when all slots are checked out.
    pub slots: usize,
    /// Bound of the request channel (`RADIX_SERVE_QUEUE`, default
    /// `slots`) — the second backpressure stage.
    pub queue: usize,
    /// Whether block execution runs each layer's product on the pool
    /// (default) or on the engine thread. Results are bitwise identical
    /// either way; serial avoids pool contention when the caller runs
    /// several engines.
    pub parallel: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        let max_batch = radix_sparse::kernel::env_usize("RADIX_SERVE_BATCH", 32).max(1);
        let slots = radix_sparse::kernel::env_usize("RADIX_SERVE_SLOTS", 0);
        let slots = if slots == 0 {
            DEFAULT_SLOT_BLOCKS * max_batch
        } else {
            slots
        };
        ServeConfig {
            max_batch,
            deadline_us: radix_sparse::kernel::env_usize(
                "RADIX_SERVE_DEADLINE_US",
                DEFAULT_DEADLINE_US,
            ) as u64,
            slots,
            queue: radix_sparse::kernel::env_usize("RADIX_SERVE_QUEUE", slots).max(1),
            parallel: true,
        }
    }
}

/// Whether admission-time row validation is enabled: `RADIX_SERVE_VALIDATE`
/// unset or anything but `"0"` means on. Trusted callers that generate
/// rows programmatically can set `RADIX_SERVE_VALIDATE=0` to skip the
/// finiteness scan entirely (width is always checked — it is one integer
/// compare and a wrong width would corrupt the shared batch layout).
fn validate_enabled() -> bool {
    std::env::var("RADIX_SERVE_VALIDATE").map_or(true, |v| v != "0")
}

/// Why a request could not be served. Every variant is a *typed* outcome:
/// the serving stack never panics across the API boundary for a malformed
/// or unlucky request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The engine is shutting down gracefully (or has already drained and
    /// exited); the request was not executed.
    Shutdown,
    /// The request row's length does not match the network's input width.
    /// Rejected at admission, before any shared state is touched.
    WidthMismatch {
        /// Length of the submitted row.
        got: usize,
        /// Input width the engine's network expects.
        want: usize,
    },
    /// The request row contains a `NaN` or `±inf` at the given index.
    /// Rejected at admission (gated by `RADIX_SERVE_VALIDATE`, default on)
    /// so a corrupted row cannot silently poison a shared batch.
    NonFiniteInput {
        /// Index of the first non-finite element.
        index: usize,
    },
    /// The request's deadline passed (or was predicted unreachable) before
    /// its block was computed; the engine shed it without burning pool
    /// time. Only [`ServeClient::infer_within`] requests carry deadlines.
    DeadlineExceeded,
    /// The engine's admission stages are saturated: no free slot / queue
    /// space for a non-blocking submit, or the queue depth predicts a
    /// deadline miss for a bounded-wait submit. The request was never
    /// queued — retry later or shed upstream.
    Overloaded,
    /// The engine thread died abnormally (panicked); the payload's message
    /// is carried verbatim. In-flight requests on the dead engine resolve
    /// to this error rather than hanging.
    EngineFailed(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Shutdown => write!(f, "serving engine is shut down"),
            ServeError::WidthMismatch { got, want } => {
                write!(f, "request row width mismatch: got {got}, want {want}")
            }
            ServeError::NonFiniteInput { index } => {
                write!(f, "request row has a non-finite value at index {index}")
            }
            ServeError::DeadlineExceeded => write!(f, "request deadline exceeded; shed unserved"),
            ServeError::Overloaded => write!(f, "serving engine overloaded; request rejected"),
            ServeError::EngineFailed(msg) => write!(f, "serve engine thread failed: {msg}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// Counters the engine accumulates over its lifetime, returned by
/// [`ServeHandle::shutdown`] (and snapshotted live by
/// [`ServeHandle::stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServeStats {
    /// Total rows (requests) actually computed and answered.
    pub rows: u64,
    /// Total coalesced blocks flushed (including blocks whose every row
    /// was shed — `batches == full_flushes + deadline_flushes` always).
    pub batches: u64,
    /// Blocks flushed because they reached [`ServeConfig::max_batch`] rows.
    pub full_flushes: u64,
    /// Blocks flushed short of full because the engine was idle and
    /// nothing else was queued (the name predates the work-conserving
    /// engine, which has no wait deadline).
    pub deadline_flushes: u64,
    /// Largest block executed — never exceeds [`ServeConfig::max_batch`].
    pub max_rows: u64,
    /// Requests completed with [`ServeError::DeadlineExceeded`] at flush
    /// time: queued, expired, shed without compute.
    pub shed_deadline: u64,
    /// Requests rejected with [`ServeError::Overloaded`] at admission:
    /// never queued at all.
    pub shed_overload: u64,
    /// Engine restarts performed by a supervisor (always 0 for a bare
    /// [`ServeEngine`]; populated by `ServeSupervisor`).
    pub restarts: u64,
}

impl ServeStats {
    /// Folds another stats snapshot into this one (summing counters,
    /// taking the max of `max_rows`) — how a supervisor accumulates
    /// per-generation engine stats into one lifetime view.
    pub(crate) fn absorb(&mut self, other: &ServeStats) {
        self.rows += other.rows;
        self.batches += other.batches;
        self.full_flushes += other.full_flushes;
        self.deadline_flushes += other.deadline_flushes;
        self.max_rows = self.max_rows.max(other.max_rows);
        self.shed_deadline += other.shed_deadline;
        self.shed_overload += other.shed_overload;
        self.restarts += other.restarts;
    }
}

/// The engine's live counters, shared so they survive an engine-thread
/// panic (a dead engine's work is still accounted — the supervisor's
/// books must balance). Relaxed ordering throughout: these are statistics,
/// sequenced by the locks and joins around them, not synchronization.
#[derive(Default)]
pub(crate) struct SharedStats {
    rows: AtomicU64,
    batches: AtomicU64,
    full_flushes: AtomicU64,
    deadline_flushes: AtomicU64,
    max_rows: AtomicU64,
    shed_deadline: AtomicU64,
    shed_overload: AtomicU64,
}

impl SharedStats {
    pub(crate) fn snapshot(&self) -> ServeStats {
        ServeStats {
            rows: self.rows.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            full_flushes: self.full_flushes.load(Ordering::Relaxed),
            deadline_flushes: self.deadline_flushes.load(Ordering::Relaxed),
            max_rows: self.max_rows.load(Ordering::Relaxed),
            shed_deadline: self.shed_deadline.load(Ordering::Relaxed),
            shed_overload: self.shed_overload.load(Ordering::Relaxed),
            restarts: 0,
        }
    }
}

/// The engine's block accumulator: a pure, pre-allocated buffer of
/// request ids, at most `max_rows` of them, in submission order. The
/// engine loop pushes whatever is queued and flushes at once; it holds no
/// clock and no policy, so property tests drive it without threads.
#[derive(Debug, Clone)]
pub struct MicroBatcher {
    max_rows: usize,
    ids: Vec<usize>,
}

impl MicroBatcher {
    /// A batcher coalescing up to `max_rows` requests. Pre-allocates its
    /// id buffer — pushes never allocate.
    ///
    /// # Panics
    /// Panics if `max_rows == 0`.
    #[must_use]
    pub fn new(max_rows: usize) -> Self {
        assert!(max_rows > 0, "micro-batch size must be positive");
        MicroBatcher {
            max_rows,
            ids: Vec::with_capacity(max_rows),
        }
    }

    /// Pending request count.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether no requests are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Whether the block has reached its row limit and must be flushed
    /// before the next push.
    #[must_use]
    pub fn is_full(&self) -> bool {
        self.ids.len() == self.max_rows
    }

    /// Adds a request (by id); returns whether the block is now full.
    ///
    /// # Panics
    /// Panics if the block is already full — the caller must flush first.
    pub fn push(&mut self, id: usize) -> bool {
        assert!(!self.is_full(), "push into a full micro-batch");
        self.ids.push(id);
        self.is_full()
    }

    /// The pending request ids, oldest first (submission order).
    #[must_use]
    pub fn pending(&self) -> &[usize] {
        &self.ids
    }

    /// Empties the block (after the caller has taken [`Self::pending`]).
    pub fn clear(&mut self) {
        self.ids.clear();
    }
}

/// Terminal state of a slot's current request, written by the engine's
/// flush stage; the client's condvar predicate is "no longer pending".
#[derive(Clone, Copy, PartialEq, Eq)]
enum SlotOutcome {
    /// Submitted (or idle); no outcome yet.
    Pending,
    /// Result row written into `output`.
    Ready,
    /// Expired in the queue; shed without compute.
    Shed,
}

/// One in-flight request's pre-allocated state.
struct SlotData {
    /// The request row, written by the client before submission.
    input: Vec<f32>,
    /// The result row, written by the engine's demux stage.
    output: Vec<f32>,
    /// Written by the engine's flush stage; `Pending` while queued.
    outcome: SlotOutcome,
    /// Absolute completion deadline for [`ServeClient::infer_within`]
    /// requests; `None` for plain submits (never shed once queued).
    deadline: Option<Instant>,
}

struct Slot {
    data: Mutex<SlotData>,
    ready: Condvar,
}

/// State shared between clients, the engine thread, the handle, and (via
/// `pub(crate)`) the supervisor.
pub(crate) struct Shared {
    slots: Vec<Slot>,
    /// Indices of currently free slots; capacity `slots.len()`, so pushes
    /// never allocate.
    free: Mutex<Vec<usize>>,
    /// Signals a slot returning to the free list (and shutdown).
    free_ready: Condvar,
    /// Cleared by [`ServeHandle::shutdown`]; new requests fail fast.
    accepting: AtomicBool,
    /// Cleared when the engine thread exits (normally or by panic) so
    /// waiting clients never hang on a dead engine.
    engine_live: AtomicBool,
    /// Set (before `engine_live` clears) when the engine thread exits *by
    /// panic* — distinguishes [`ServeError::EngineFailed`] from a plain
    /// [`ServeError::Shutdown`] for clients waking off a dead engine.
    failed: AtomicBool,
    /// Lifetime counters; shared so they survive an engine panic.
    pub(crate) stats: SharedStats,
    /// Full-block compute cost measured at start-up, in microseconds —
    /// the queue-depth admission predictor's unit of work.
    compute_us: u64,
    /// Block size, for the admission predictor.
    max_batch: usize,
    /// Deterministic fault hooks (inactive by default; a single branch).
    fault: FaultInjector,
    /// Staged replacement network from [`ServeHandle::reload`], awaiting
    /// pickup by the engine loop at its next batch boundary.
    reload_slot: Mutex<Option<Box<ChallengeNetwork>>>,
    /// Set after staging a reload — the engine's single steady-state
    /// check (one atomic load per loop iteration keeps the hot path
    /// allocation-free).
    reload_pending: AtomicBool,
    /// Per-layer `(nrows, ncols)` of the serving network, snapshotted at
    /// start: a reload must match them exactly so the engine's
    /// pre-allocated workspace stays valid.
    layer_shapes: Vec<(usize, usize)>,
    /// The serving network's output bias / cap — the Challenge recipe
    /// fixes them, so a reload swaps weights only and keeps these.
    net_bias: f32,
    net_ymax: f32,
    /// The serving network's kernel plan: a reload prepares the
    /// replacement under it, so the block grain the workspace was sized
    /// for (and every other knob the engine was started with) stays.
    net_plan: KernelPlan,
}

/// Control token on the request channel: not a slot id (no pool has
/// `usize::MAX` slots), it only wakes a parked engine so it re-checks its
/// reload and shutdown flags.
const WAKE: usize = usize::MAX;

/// Wakes a parked engine. A full channel needs no token — the engine is
/// awake with work queued and re-checks its flags once that is flushed —
/// and a disconnected one has no engine left to wake.
fn wake_engine(tx: &crossbeam::channel::Sender<usize>) {
    let _ = tx.try_send(WAKE);
}

fn lock<'a, T>(m: &'a Mutex<T>) -> MutexGuard<'a, T> {
    // Engine/client panics must not wedge the other side; the protocol
    // only ever publishes fully-written rows, so continuing past a poison
    // is sound.
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// How a submit waits for admission (slot checkout + queue space).
enum Admission {
    /// Block indefinitely (plain [`ServeClient::infer_into`]).
    Block,
    /// Never block; saturated stages reject with
    /// [`ServeError::Overloaded`].
    NonBlock,
    /// Block up to the absolute deadline; on admission, the engine owns
    /// the deadline and sheds the request at flush time if it expires.
    Within(Instant),
}

/// A clonable handle for submitting inference requests to a running
/// engine. Cheap to clone (an `Arc` and a channel sender); every thread
/// that issues requests should own a clone.
pub struct ServeClient {
    shared: Arc<Shared>,
    tx: crossbeam::channel::Sender<usize>,
    n_in: usize,
    n_out: usize,
    /// Admission-time finiteness validation (`RADIX_SERVE_VALIDATE`),
    /// resolved once at engine start.
    validate: bool,
}

impl Clone for ServeClient {
    fn clone(&self) -> Self {
        ServeClient {
            shared: Arc::clone(&self.shared),
            tx: self.tx.clone(),
            n_in: self.n_in,
            n_out: self.n_out,
            validate: self.validate,
        }
    }
}

impl ServeClient {
    /// Input width the engine's network expects.
    #[must_use]
    pub fn n_in(&self) -> usize {
        self.n_in
    }

    /// Output width of a served result row.
    #[must_use]
    pub fn n_out(&self) -> usize {
        self.n_out
    }

    /// Whether the engine thread is currently alive (false once it has
    /// exited, gracefully or by panic). Advisory — it can change between
    /// the check and a subsequent call — but a `false` is final.
    #[must_use]
    pub fn engine_live(&self) -> bool {
        self.shared.engine_live.load(Ordering::Acquire)
    }

    /// The error a dead engine resolves to: [`ServeError::EngineFailed`]
    /// if the engine thread panicked, [`ServeError::Shutdown`] if it
    /// exited gracefully.
    fn engine_error(&self) -> ServeError {
        if self.shared.failed.load(Ordering::Acquire) {
            ServeError::EngineFailed("serve engine thread panicked".to_string())
        } else {
            ServeError::Shutdown
        }
    }

    /// Admission-time validation: width always, finiteness when enabled.
    fn validate_row(&self, row: &[f32]) -> Result<(), ServeError> {
        if row.len() != self.n_in {
            return Err(ServeError::WidthMismatch {
                got: row.len(),
                want: self.n_in,
            });
        }
        if self.validate {
            if let Some(index) = row.iter().position(|v| !v.is_finite()) {
                return Err(ServeError::NonFiniteInput { index });
            }
        }
        Ok(())
    }

    /// Submits one row and blocks until its result is written into `out`
    /// (resized to [`Self::n_out`]). With `out`'s capacity warmed, the
    /// whole round trip performs no heap allocation on the client thread.
    ///
    /// # Errors
    /// [`ServeError::WidthMismatch`] / [`ServeError::NonFiniteInput`] for
    /// a malformed row (validated at admission); [`ServeError::Shutdown`]
    /// if the engine is no longer accepting requests;
    /// [`ServeError::EngineFailed`] if the engine thread died abnormally.
    pub fn infer_into(&self, row: &[f32], out: &mut Vec<f32>) -> Result<(), ServeError> {
        self.submit(row, out, Admission::Block)
    }

    /// Convenience wrapper around [`Self::infer_into`] that allocates the
    /// result row. Hot clients should hold a reusable buffer and call
    /// `infer_into` instead.
    ///
    /// # Errors
    /// As [`Self::infer_into`].
    pub fn infer(&self, row: &[f32]) -> Result<Vec<f32>, ServeError> {
        let mut out = Vec::new();
        self.infer_into(row, &mut out)?;
        Ok(out)
    }

    /// Non-blocking submit: if every slot is checked out or the request
    /// queue is full *right now*, rejects with [`ServeError::Overloaded`]
    /// instead of blocking (the request is never queued). Once admitted,
    /// blocks for the result like [`Self::infer_into`].
    ///
    /// # Errors
    /// As [`Self::infer_into`], plus [`ServeError::Overloaded`] when an
    /// admission stage is saturated.
    pub fn try_infer_into(&self, row: &[f32], out: &mut Vec<f32>) -> Result<(), ServeError> {
        self.submit(row, out, Admission::NonBlock)
    }

    /// Allocating wrapper around [`Self::try_infer_into`].
    ///
    /// # Errors
    /// As [`Self::try_infer_into`].
    pub fn try_infer(&self, row: &[f32]) -> Result<Vec<f32>, ServeError> {
        let mut out = Vec::new();
        self.try_infer_into(row, &mut out)?;
        Ok(out)
    }

    /// Deadline-bounded submit: the request must complete within `timeout`
    /// of this call. Admission first *predicts* whether the deadline is
    /// reachable from the current queue depth (checked-out slots imply
    /// `ceil(queued / max_batch)` blocks ahead, each costing the measured
    /// block compute time) and sheds with [`ServeError::Overloaded`] when
    /// it is not — without queueing. Once admitted, the engine owns the
    /// deadline: a request still queued when it expires is completed with
    /// [`ServeError::DeadlineExceeded`] at flush time instead of being
    /// computed. The wait for a free slot is likewise bounded by the
    /// deadline.
    ///
    /// The deadline governs *shedding*, not the client's wait: an admitted
    /// request always resolves (the engine answers or sheds it; a dead
    /// engine fails it), so in pathological cases the result may arrive
    /// slightly after the deadline rather than being abandoned — a late
    /// `Ok` is possible, a hang is not.
    ///
    /// # Errors
    /// As [`Self::infer_into`], plus [`ServeError::Overloaded`] (predicted
    /// miss or no slot within the deadline) and
    /// [`ServeError::DeadlineExceeded`] (expired while queued).
    pub fn infer_within_into(
        &self,
        row: &[f32],
        out: &mut Vec<f32>,
        timeout: Duration,
    ) -> Result<(), ServeError> {
        self.submit(row, out, Admission::Within(Instant::now() + timeout))
    }

    /// Allocating wrapper around [`Self::infer_within_into`].
    ///
    /// # Errors
    /// As [`Self::infer_within_into`].
    pub fn infer_within(&self, row: &[f32], timeout: Duration) -> Result<Vec<f32>, ServeError> {
        let mut out = Vec::new();
        self.infer_within_into(row, &mut out, timeout)?;
        Ok(out)
    }

    /// The shared submit path: validate, check out a slot (per the
    /// admission mode), publish the request, wait for its one typed
    /// outcome.
    fn submit(
        &self,
        row: &[f32],
        out: &mut Vec<f32>,
        admission: Admission,
    ) -> Result<(), ServeError> {
        self.validate_row(row)?;
        if !self.shared.accepting.load(Ordering::Acquire) {
            return Err(ServeError::Shutdown);
        }
        let deadline = match admission {
            Admission::Within(d) => Some(d),
            _ => None,
        };
        // Stage 1 (backpressure): check out a free slot.
        let k = {
            let mut free = lock(&self.shared.free);
            if let Some(d) = deadline {
                // Queue-depth admission predictor: every checked-out slot
                // is a queued row; the engine clears them a block at a
                // time, each block costing the measured compute time, and
                // ours rides in the block after those. A predicted miss is
                // shed here, before any shared state is consumed.
                let queued = (self.shared.slots.len() - free.len()) as u64;
                let blocks_ahead = queued.div_ceil(self.shared.max_batch.max(1) as u64) + 1;
                let predicted =
                    Duration::from_micros(self.shared.compute_us.saturating_mul(blocks_ahead));
                if Instant::now() + predicted > d {
                    drop(free);
                    self.shared
                        .stats
                        .shed_overload
                        .fetch_add(1, Ordering::Relaxed);
                    return Err(ServeError::Overloaded);
                }
            }
            loop {
                if let Some(k) = free.pop() {
                    break k;
                }
                if !self.shared.accepting.load(Ordering::Acquire) {
                    return Err(ServeError::Shutdown);
                }
                match admission {
                    Admission::Block => {
                        free = self
                            .shared
                            .free_ready
                            .wait(free)
                            .unwrap_or_else(PoisonError::into_inner);
                    }
                    Admission::NonBlock => {
                        drop(free);
                        self.shared
                            .stats
                            .shed_overload
                            .fetch_add(1, Ordering::Relaxed);
                        return Err(ServeError::Overloaded);
                    }
                    Admission::Within(d) => {
                        let now = Instant::now();
                        if now >= d {
                            drop(free);
                            self.shared
                                .stats
                                .shed_overload
                                .fetch_add(1, Ordering::Relaxed);
                            return Err(ServeError::Overloaded);
                        }
                        let (guard, _timeout) = self
                            .shared
                            .free_ready
                            .wait_timeout(free, d - now)
                            .unwrap_or_else(PoisonError::into_inner);
                        free = guard;
                    }
                }
            }
        };
        // Write the request row into the slot, then publish its id.
        {
            let mut d = lock(&self.shared.slots[k].data);
            d.input.copy_from_slice(row);
            d.outcome = SlotOutcome::Pending;
            d.deadline = deadline;
        }
        // Stage 2 (backpressure): the bounded request channel.
        match admission {
            Admission::NonBlock => {
                use crossbeam::channel::TrySendError;
                match self.tx.try_send(k) {
                    Ok(()) => {}
                    Err(TrySendError::Full(_)) => {
                        self.release(k);
                        self.shared
                            .stats
                            .shed_overload
                            .fetch_add(1, Ordering::Relaxed);
                        return Err(ServeError::Overloaded);
                    }
                    Err(TrySendError::Disconnected(_)) => {
                        self.release(k);
                        return Err(self.engine_error());
                    }
                }
            }
            _ => {
                // A live engine always drains the queue, so a blocking
                // send is bounded by the engine's consumption rate; a
                // send error means the engine thread is gone.
                if self.tx.send(k).is_err() {
                    self.release(k);
                    return Err(self.engine_error());
                }
            }
        }
        // Wait for the flush stage to resolve the request. The timeout is
        // purely defensive: a live engine always answers (it cannot exit
        // with our slot outstanding), so the predicate loop only breaks
        // out early if the engine thread died.
        let result = {
            let slot = &self.shared.slots[k];
            let mut d = lock(&slot.data);
            loop {
                match d.outcome {
                    SlotOutcome::Ready => {
                        out.resize(self.n_out, 0.0);
                        out.copy_from_slice(&d.output);
                        d.outcome = SlotOutcome::Pending;
                        d.deadline = None;
                        break Ok(());
                    }
                    SlotOutcome::Shed => {
                        d.outcome = SlotOutcome::Pending;
                        d.deadline = None;
                        break Err(ServeError::DeadlineExceeded);
                    }
                    SlotOutcome::Pending => {
                        if !self.shared.engine_live.load(Ordering::Acquire) {
                            d.deadline = None;
                            break Err(self.engine_error());
                        }
                        let (guard, _timeout) = slot
                            .ready
                            .wait_timeout(d, Duration::from_millis(50))
                            .unwrap_or_else(PoisonError::into_inner);
                        d = guard;
                    }
                }
            }
        };
        self.release(k);
        result
    }

    /// Returns slot `k` to the free list and wakes one waiting client —
    /// and, when this was the last slot out of a draining engine, the
    /// engine parked waiting for exactly that.
    fn release(&self, k: usize) {
        self.shared.fault.release_stall();
        let mut free = lock(&self.shared.free);
        free.push(k);
        self.shared.free_ready.notify_one();
        // Read under the free-list lock, the same lock the engine's
        // drained-for-shutdown test holds: either that test sees this
        // slot back, or this load sees `accepting` already cleared.
        if free.len() == self.shared.slots.len() && !self.shared.accepting.load(Ordering::Acquire) {
            drop(free);
            wake_engine(&self.tx);
        }
    }
}

/// Why a [`ServeHandle::reload`] was refused. Every variant leaves the
/// engine serving its current weights — a failed reload is a no-op.
#[derive(Debug)]
pub enum ReloadError {
    /// The checkpoint file failed to load or validate.
    Checkpoint(radix_nn::CheckpointError),
    /// The checkpoint's network has a dense layer; the serving engine
    /// runs prepared sparse layers only.
    NotSparse {
        /// Zero-based index of the offending layer.
        layer: usize,
    },
    /// The checkpoint's layer count differs from the serving network's.
    LayerCountMismatch {
        /// Layers the engine serves.
        expected: usize,
        /// Layers in the checkpoint.
        got: usize,
    },
    /// A layer's shape differs from the serving network's — the engine's
    /// pre-allocated workspace would no longer fit.
    ShapeMismatch {
        /// Zero-based layer index.
        layer: usize,
        /// `(nrows, ncols)` the engine serves.
        expected: (usize, usize),
        /// `(nrows, ncols)` in the checkpoint.
        got: (usize, usize),
    },
    /// The engine thread has already exited; there is nothing to reload
    /// into.
    EngineDown,
}

impl std::fmt::Display for ReloadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReloadError::Checkpoint(e) => write!(f, "reload rejected: {e}"),
            ReloadError::NotSparse { layer } => {
                write!(
                    f,
                    "reload rejected: layer {layer} is dense, engine serves sparse layers"
                )
            }
            ReloadError::LayerCountMismatch { expected, got } => {
                write!(
                    f,
                    "reload rejected: {got} layers in checkpoint, engine serves {expected}"
                )
            }
            ReloadError::ShapeMismatch {
                layer,
                expected,
                got,
            } => write!(
                f,
                "reload rejected: layer {layer} is {}×{}, engine serves {}×{}",
                got.0, got.1, expected.0, expected.1
            ),
            ReloadError::EngineDown => write!(f, "reload rejected: engine is down"),
        }
    }
}

impl std::error::Error for ReloadError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ReloadError::Checkpoint(e) => Some(e),
            _ => None,
        }
    }
}

impl From<radix_nn::CheckpointError> for ReloadError {
    fn from(e: radix_nn::CheckpointError) -> Self {
        ReloadError::Checkpoint(e)
    }
}

/// The running engine's control handle: hands out clients, shuts the
/// engine down, and reports its stats.
pub struct ServeHandle {
    client: ServeClient,
    shared: Arc<Shared>,
    thread: std::thread::JoinHandle<()>,
}

impl ServeHandle {
    /// A new request handle onto this engine.
    #[must_use]
    pub fn client(&self) -> ServeClient {
        self.client.clone()
    }

    /// How long an idle engine holds a lone request back before
    /// executing it, in microseconds: always 0 — the engine is
    /// work-conserving, and rows coalesce only by arriving while a block
    /// is executing.
    #[must_use]
    pub fn batch_wait_us(&self) -> u64 {
        0
    }

    /// The kernel plan the engine's network runs under — the one it was
    /// started with, across every [`ServeHandle::reload`].
    #[must_use]
    pub fn plan(&self) -> KernelPlan {
        self.shared.net_plan
    }

    /// A live snapshot of the engine's counters (restarts always 0 — a
    /// bare engine never restarts itself).
    #[must_use]
    pub fn stats(&self) -> ServeStats {
        self.shared.stats.snapshot()
    }

    /// The shared state, for the supervisor's cross-generation stats
    /// accounting (a retired generation's counters can still be bumped by
    /// a straggling client, so the supervisor keeps the live handle, not
    /// a snapshot).
    pub(crate) fn shared_arc(&self) -> Arc<Shared> {
        Arc::clone(&self.shared)
    }

    /// Hot-reloads the engine's weights from a training checkpoint
    /// written by `radix_nn::checkpoint` (e.g. by a supervised training
    /// run), without stopping the engine or dropping requests.
    ///
    /// The checkpoint is loaded, validated (fully sparse, same layer
    /// count, every shape identical to the serving network's — the
    /// engine's pre-allocated workspace must stay valid), taken over in
    /// the storage decoding prepared (a RadiX layer's diagonals, tiled ELL
    /// otherwise) under the running network's kernel plan, and
    /// *staged*; the engine thread swaps it in at its next batch
    /// boundary (an idle engine is woken for it at once). In-flight requests complete on the old weights;
    /// subsequent flushes use the new ones. The engine keeps its
    /// configured output bias/cap — the Challenge recipe fixes them, so
    /// a reload swaps weights only. This call allocates (decode +
    /// prepare); the engine's steady-state loop stays allocation-free —
    /// its only new cost is one atomic load per iteration, and the swap
    /// itself is a pointer-sized move (`tests/zero_alloc_serve.rs` pins
    /// the post-reload steady state).
    ///
    /// Staging a second reload before the engine picks up the first
    /// replaces the staged network — last writer wins.
    ///
    /// # Errors
    /// [`ReloadError::Checkpoint`] when the file is missing, corrupt, or
    /// malformed; the shape variants when the checkpoint disagrees with
    /// the serving network; [`ReloadError::EngineDown`] when the engine
    /// thread has exited. Every error leaves current weights serving.
    pub fn reload(&self, path: &std::path::Path) -> Result<(), ReloadError> {
        let ck = radix_nn::checkpoint::load(path)?;
        let expected = &self.shared.layer_shapes;
        let layers = ck.net.layers();
        if layers.len() != expected.len() {
            return Err(ReloadError::LayerCountMismatch {
                expected: expected.len(),
                got: layers.len(),
            });
        }
        let mut prepared = Vec::with_capacity(layers.len());
        for (i, l) in layers.iter().enumerate() {
            let radix_nn::Layer::Sparse(sl) = l else {
                return Err(ReloadError::NotSparse { layer: i });
            };
            let got = sl.prepared().shape();
            if got != expected[i] {
                return Err(ReloadError::ShapeMismatch {
                    layer: i,
                    expected: expected[i],
                    got,
                });
            }
            prepared.push(sl.prepared().clone());
        }
        let new_net = ChallengeNetwork::from_prepared(
            prepared,
            self.shared.net_bias,
            self.shared.net_ymax,
            self.shared.net_plan,
        );
        if !self.shared.engine_live.load(Ordering::Acquire) {
            return Err(ReloadError::EngineDown);
        }
        *lock(&self.shared.reload_slot) = Some(Box::new(new_net));
        self.shared.reload_pending.store(true, Ordering::Release);
        wake_engine(&self.client.tx);
        Ok(())
    }

    /// Graceful shutdown: stops admitting new requests (they fail fast
    /// with [`ServeError::Shutdown`]), lets every in-flight request finish
    /// and demux, then joins the engine thread and returns its counters.
    /// Outstanding [`ServeClient`] clones stay valid as error-returning
    /// stubs.
    ///
    /// # Errors
    /// [`ServeError::EngineFailed`] carrying the panic message if the
    /// engine thread panicked (its partial stats remain readable via a
    /// supervisor; the error is the signal to restart or escalate).
    pub fn shutdown(self) -> Result<ServeStats, ServeError> {
        self.shared.accepting.store(false, Ordering::Release);
        // Wake clients parked on the free list so they observe shutdown,
        // and the engine if it is parked idle.
        self.shared.free_ready.notify_all();
        wake_engine(&self.client.tx);
        drop(self.client);
        match self.thread.join() {
            Ok(()) => Ok(self.shared.stats.snapshot()),
            Err(payload) => Err(ServeError::EngineFailed(panic_message(payload.as_ref()))),
        }
    }
}

/// Clears liveness flags and wakes every waiter when the engine thread
/// exits — including by panic — so no client blocks on a dead engine.
/// A panicking exit sets `failed` *before* clearing `engine_live` (release
/// ordering), so any client that observes the dead engine also observes
/// how it died.
struct EngineExitGuard(Arc<Shared>);

impl Drop for EngineExitGuard {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.failed.store(true, Ordering::Release);
        }
        self.0.accepting.store(false, Ordering::Release);
        self.0.engine_live.store(false, Ordering::Release);
        self.0.free_ready.notify_all();
        for slot in &self.0.slots {
            // Touch the mutex so a client between its predicate check and
            // its wait cannot miss the wake-up.
            drop(lock(&slot.data));
            slot.ready.notify_all();
        }
    }
}

/// The serving engine: constructor only — all further interaction goes
/// through the [`ServeHandle`] that [`ServeEngine::start`] returns.
pub struct ServeEngine;

impl ServeEngine {
    /// Starts an engine serving `net` with `config`, returning its control
    /// handle. Pre-allocates every steady-state buffer (slots, batch
    /// matrix, workspace), warms the kernels with one full block to
    /// both reach the workspace high-water mark and *measure* block
    /// compute cost — the unit of work of the deadline-admission predictor
    /// and the flush-time shed pass.
    ///
    /// No fault is injected: the hooks run [`FaultInjector::inactive`],
    /// one branch each.
    ///
    /// # Panics
    /// Panics if `config.max_batch`, `config.slots`, or `config.queue` is
    /// zero, or if the engine thread cannot be spawned.
    #[must_use]
    pub fn start(net: ChallengeNetwork, config: &ServeConfig) -> ServeHandle {
        Self::start_with_faults(net, config, FaultInjector::inactive())
    }

    /// [`ServeEngine::start`] with an explicit fault injector — the one
    /// way to inject serving faults (the chaos suites build theirs from a
    /// `FaultPlan`).
    ///
    /// # Panics
    /// As [`ServeEngine::start`].
    #[must_use]
    pub fn start_with_faults(
        net: ChallengeNetwork,
        config: &ServeConfig,
        fault: FaultInjector,
    ) -> ServeHandle {
        assert!(config.max_batch > 0, "max_batch must be positive");
        assert!(config.slots > 0, "need at least one request slot");
        assert!(config.queue > 0, "request queue bound must be positive");
        let n_in = net.n_in();
        let n_out = net.layers().last().expect("non-empty network").ncols();

        let (ws, compute_us) = warm_up(&net, config, &fault);

        let shared = Arc::new(Shared {
            slots: (0..config.slots)
                .map(|_| Slot {
                    data: Mutex::new(SlotData {
                        input: vec![0.0; n_in],
                        output: vec![0.0; n_out],
                        outcome: SlotOutcome::Pending,
                        deadline: None,
                    }),
                    ready: Condvar::new(),
                })
                .collect(),
            free: Mutex::new((0..config.slots).rev().collect()),
            free_ready: Condvar::new(),
            accepting: AtomicBool::new(true),
            engine_live: AtomicBool::new(true),
            failed: AtomicBool::new(false),
            stats: SharedStats::default(),
            compute_us,
            max_batch: config.max_batch,
            fault,
            reload_slot: Mutex::new(None),
            reload_pending: AtomicBool::new(false),
            layer_shapes: net
                .layers()
                .iter()
                .map(|l| (l.nrows(), l.ncols()))
                .collect(),
            net_bias: net.bias(),
            net_ymax: net.ymax(),
            net_plan: net.plan(),
        });
        let (tx, rx) = crossbeam::channel::bounded::<usize>(config.queue);

        let engine = EngineLoop {
            net,
            ws,
            x: DenseMatrix::zeros(config.max_batch, n_in),
            batch: Vec::with_capacity(config.max_batch),
            live: Vec::with_capacity(config.max_batch),
            mb: MicroBatcher::new(config.max_batch),
            rx,
            shared: Arc::clone(&shared),
            parallel: config.parallel,
        };
        let thread = std::thread::Builder::new()
            .name("radix-serve".to_string())
            .spawn(move || {
                let guard = EngineExitGuard(Arc::clone(&engine.shared));
                // Serve flushes ride the scheduler's preferred lane: their
                // inference tiles are claimed ahead of any Normal-priority
                // work (a concurrent training job's gradient chunks) at
                // every claim boundary, keeping flush latency flat while
                // the pool is shared.
                rayon::with_priority(rayon::Priority::High, || engine.run());
                drop(guard);
            })
            .expect("spawn serve engine thread");

        let validate = validate_enabled();
        ServeHandle {
            client: ServeClient {
                shared: Arc::clone(&shared),
                tx,
                n_in,
                n_out,
                validate,
            },
            shared,
            thread,
        }
    }
}

/// The warm-up block: drives a fresh workspace to its high-water mark and
/// measures what a full block costs, in microseconds.
///
/// The block is all-NaN rows. A NaN is never a finite constant, so these
/// rows stay in the forward pass through every layer on every network and
/// cost what any other row costs there. A block of zero or saturating
/// rows would leave the forward pass as constant rows after a layer or a
/// few and time short, and the admission predictor would then admit
/// requests that are served late.
fn warm_up(
    net: &ChallengeNetwork,
    config: &ServeConfig,
    fault: &FaultInjector,
) -> (InferWorkspace, u64) {
    let mut ws = InferWorkspace::for_network(net, config.max_batch);
    let (rows, cols) = (config.max_batch, net.n_in());
    let warm = DenseMatrix::from_vec(rows, cols, vec![f32::NAN; rows * cols])
        .expect("rows × cols elements");
    let t = Instant::now();
    let _ = net.forward_with(&warm, config.parallel, &mut ws);
    // An injected compute delay slows every engine-loop block, so the
    // measurement must pay it too — otherwise the admission predictor
    // would plan around a block cost the engine never achieves, and
    // "admitted" requests would be served late.
    fault.compute_delay();
    (ws, t.elapsed().as_micros() as u64)
}

/// Everything the engine thread owns.
struct EngineLoop {
    net: ChallengeNetwork,
    ws: InferWorkspace,
    /// Gather target: the coalesced block's rows, contiguous.
    x: DenseMatrix<f32>,
    /// Slot ids of the block being flushed (copied out of the batcher).
    batch: Vec<usize>,
    /// The flush's surviving (non-shed) slot ids, in submission order.
    live: Vec<usize>,
    mb: MicroBatcher,
    rx: crossbeam::channel::Receiver<usize>,
    shared: Arc<Shared>,
    parallel: bool,
}

impl EngineLoop {
    /// The batching loop: drain what is queued (up to one block), execute
    /// it at once, park when there is nothing. Exits when the channel
    /// disconnects (every sender, handle included, dropped) or when
    /// shutdown has been requested and every request is drained and
    /// answered.
    fn run(mut self) {
        use crossbeam::channel::TryRecvError;
        loop {
            // Batch-boundary weight swap: one relaxed-path atomic load in
            // steady state; requests gathered after this point run on the
            // new weights, anything already flushed completed on the old.
            if self.shared.reload_pending.load(Ordering::Acquire) {
                self.apply_reload();
            }
            // Greedy drain: coalesce everything already queued, up to one
            // full block, without blocking. Rows that arrive while the
            // block executes are the next drain's block.
            let mut disconnected = false;
            while !self.mb.is_full() {
                match self.rx.try_recv() {
                    Ok(WAKE) => {}
                    Ok(k) => {
                        self.mb.push(k);
                    }
                    Err(TryRecvError::Empty) => break,
                    Err(TryRecvError::Disconnected) => {
                        disconnected = true;
                        break;
                    }
                }
            }
            if !self.mb.is_empty() {
                self.execute();
                continue;
            }
            if disconnected || self.drained_for_shutdown() {
                break;
            }
            // Idle: park until a request or a control token arrives.
            match self.rx.recv() {
                Ok(WAKE) => {}
                Ok(k) => {
                    self.mb.push(k);
                }
                Err(_) => break,
            }
        }
    }

    /// Swaps a staged replacement network in (reload path — allocation
    /// and deallocation are fine here, this is not the steady state).
    /// Shapes were validated at staging time and the replacement was
    /// prepared under the running network's plan, so the pre-sized
    /// workspace and gather matrix remain valid.
    fn apply_reload(&mut self) {
        if let Some(new_net) = lock(&self.shared.reload_slot).take() {
            debug_assert_eq!(new_net.plan(), self.net.plan(), "reload keeps the plan");
            self.net = *new_net;
        }
        self.shared.reload_pending.store(false, Ordering::Release);
    }

    /// Graceful-shutdown exit test, only meaningful with no rows pending:
    /// admission stopped and every slot back on the free list (so no
    /// client is mid-request — anything submitted later fails fast).
    fn drained_for_shutdown(&self) -> bool {
        !self.shared.accepting.load(Ordering::Acquire)
            && lock(&self.shared.free).len() == self.shared.slots.len()
    }

    /// Flush: shed expired requests, gather the survivors' rows, run the
    /// forward pass, demux results back to their slots in
    /// submission order.
    fn execute(&mut self) {
        // Injected faults fire before any slot is touched, so a panic
        // here leaves every gathered request Pending — resolved to
        // `EngineFailed` by the exit guard, never half-answered.
        self.shared.fault.before_execute();
        let stats = &self.shared.stats;
        if self.mb.is_full() {
            stats.full_flushes.fetch_add(1, Ordering::Relaxed);
        } else {
            stats.deadline_flushes.fetch_add(1, Ordering::Relaxed);
        }
        stats.batches.fetch_add(1, Ordering::Relaxed);
        self.batch.clear();
        self.batch.extend_from_slice(self.mb.pending());
        self.mb.clear();
        // Shed pass: a request that cannot finish by its deadline even if
        // computed right now (compute cost is known) is completed with
        // `Shed` instead of burning pool time on an answer nobody reads.
        let now = Instant::now();
        let compute = Duration::from_micros(self.shared.compute_us);
        self.live.clear();
        for &k in &self.batch {
            let slot = &self.shared.slots[k];
            let mut d = lock(&slot.data);
            if d.deadline.is_some_and(|dl| now + compute >= dl) {
                d.outcome = SlotOutcome::Shed;
                drop(d);
                slot.ready.notify_one();
                stats.shed_deadline.fetch_add(1, Ordering::Relaxed);
            } else {
                drop(d);
                self.live.push(k);
            }
        }
        let n = self.live.len();
        if n == 0 {
            return;
        }
        self.x.resize_for_overwrite(n, self.net.n_in());
        for (i, &k) in self.live.iter().enumerate() {
            let d = lock(&self.shared.slots[k].data);
            self.x.row_mut(i).copy_from_slice(&d.input);
        }
        self.shared.fault.compute_delay();
        let y = self.net.forward_with(&self.x, self.parallel, &mut self.ws);
        // Counted before the first wake-up, so a client holding its reply
        // always finds itself in the live stats.
        stats.rows.fetch_add(n as u64, Ordering::Relaxed);
        stats.max_rows.fetch_max(n as u64, Ordering::Relaxed);
        for (i, &k) in self.live.iter().enumerate() {
            let slot = &self.shared.slots[k];
            let mut d = lock(&slot.data);
            d.output.copy_from_slice(y.row(i));
            d.outcome = SlotOutcome::Ready;
            drop(d);
            slot.ready.notify_one();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ChallengeConfig;
    use radix_data::sparse_binary_batch;

    fn small_net() -> ChallengeNetwork {
        ChallengeNetwork::from_config(&ChallengeConfig::preset(2, 4, 2)).unwrap()
    }

    fn quick_config() -> ServeConfig {
        ServeConfig {
            max_batch: 4,
            deadline_us: 2_000,
            slots: 8,
            queue: 8,
            parallel: false,
        }
    }

    #[test]
    fn warm_up_block_stays_live() {
        // The measured block must compute every layer on every row, or
        // `compute_us` undercounts a real block.
        let config = quick_config();
        for net in [
            small_net(),
            ChallengeNetwork::from_config(&ChallengeConfig::preset(3, 3, 2)).unwrap(),
        ] {
            let (ws, _) = warm_up(&net, &config, &FaultInjector::inactive());
            assert_eq!(ws.live_rows(), config.max_batch);
        }
    }

    #[test]
    fn batcher_flushes_on_full() {
        let mut mb = MicroBatcher::new(3);
        assert!(mb.is_empty());
        assert!(!mb.push(0));
        assert!(!mb.push(1));
        assert!(!mb.is_full());
        assert!(mb.push(2));
        assert!(mb.is_full());
        assert_eq!(mb.pending(), &[0, 1, 2]);
        mb.clear();
        assert!(mb.is_empty());
        assert_eq!(mb.len(), 0);
    }

    #[test]
    #[should_panic(expected = "push into a full micro-batch")]
    fn batcher_rejects_push_past_capacity() {
        let mut mb = MicroBatcher::new(1);
        mb.push(0);
        mb.push(1);
    }

    #[test]
    fn serve_roundtrip_matches_forward() {
        let net = small_net();
        let x = sparse_binary_batch(6, net.n_in(), 0.5, 3);
        let reference = net.forward(&x, false);
        let handle = ServeEngine::start(net, &quick_config());
        let client = handle.client();
        assert_eq!(client.n_in(), x.ncols());
        for i in 0..x.nrows() {
            let y = client.infer(x.row(i)).unwrap();
            assert_eq!(y.as_slice(), reference.row(i), "row {i}");
        }
        let stats = handle.shutdown().unwrap();
        assert_eq!(stats.rows, 6);
        assert!(stats.max_rows <= 4);
        assert!(stats.batches >= 2, "6 rows cannot fit one 4-row block");
        assert_eq!(stats.shed_deadline, 0);
        assert_eq!(stats.shed_overload, 0);
        assert_eq!(stats.restarts, 0);
    }

    #[test]
    fn shutdown_rejects_new_requests_and_reports_stats() {
        let net = small_net();
        let n_in = net.n_in();
        let handle = ServeEngine::start(net, &quick_config());
        let client = handle.client();
        let row = vec![1.0f32; n_in];
        client.infer(&row).unwrap();
        let stats = handle.shutdown().unwrap();
        assert_eq!(stats.rows, 1);
        assert_eq!(
            stats.deadline_flushes, 1,
            "lone request flushes short of full"
        );
        assert_eq!(client.infer(&row), Err(ServeError::Shutdown));
        let mut out = Vec::new();
        assert_eq!(client.infer_into(&row, &mut out), Err(ServeError::Shutdown));
    }

    #[test]
    fn immediate_shutdown_of_idle_engine() {
        let stats = ServeEngine::start(small_net(), &quick_config())
            .shutdown()
            .unwrap();
        assert_eq!(stats.rows, 0);
        assert_eq!(stats.batches, 0);
    }

    #[test]
    fn wrong_width_is_typed_error() {
        let net = small_net();
        let handle = ServeEngine::start(net, &quick_config());
        let client = handle.client();
        let want = client.n_in();
        assert_eq!(
            client.infer(&[1.0]),
            Err(ServeError::WidthMismatch { got: 1, want })
        );
        // A typed rejection consumes nothing: the engine still serves.
        let ok = client.infer(&vec![0.5; want]).unwrap();
        assert_eq!(ok.len(), client.n_out());
        let stats = handle.shutdown().unwrap();
        assert_eq!(stats.rows, 1, "rejected request never reached the engine");
    }

    #[test]
    fn non_finite_input_is_typed_error() {
        let net = small_net();
        let handle = ServeEngine::start(net, &quick_config());
        let client = handle.client();
        let mut row = vec![0.5f32; client.n_in()];
        row[2] = f32::NAN;
        assert_eq!(
            client.infer(&row),
            Err(ServeError::NonFiniteInput { index: 2 })
        );
        row[2] = f32::INFINITY;
        assert_eq!(
            client.infer(&row),
            Err(ServeError::NonFiniteInput { index: 2 })
        );
        row[2] = 0.0;
        client.infer(&row).unwrap();
        let stats = handle.shutdown().unwrap();
        assert_eq!(stats.rows, 1);
    }

    #[test]
    fn try_infer_serves_when_unloaded() {
        let net = small_net();
        let handle = ServeEngine::start(net, &quick_config());
        let client = handle.client();
        let row = vec![0.25f32; client.n_in()];
        let y = client.try_infer(&row).unwrap();
        assert_eq!(y.len(), client.n_out());
        let stats = handle.shutdown().unwrap();
        assert_eq!(stats.rows, 1);
        assert_eq!(stats.shed_overload, 0);
    }

    #[test]
    fn infer_within_generous_deadline_serves() {
        let net = small_net();
        let handle = ServeEngine::start(net, &quick_config());
        let client = handle.client();
        let row = vec![0.25f32; client.n_in()];
        let y = client.infer_within(&row, Duration::from_secs(5)).unwrap();
        assert_eq!(y.len(), client.n_out());
        let stats = handle.shutdown().unwrap();
        assert_eq!(stats.rows, 1);
        assert_eq!(stats.shed_deadline, 0);
        assert_eq!(stats.shed_overload, 0);
    }

    #[test]
    fn error_display_is_informative() {
        let e = ServeError::WidthMismatch { got: 3, want: 20 };
        assert_eq!(e.to_string(), "request row width mismatch: got 3, want 20");
        assert!(ServeError::NonFiniteInput { index: 7 }
            .to_string()
            .contains("index 7"));
        assert!(ServeError::EngineFailed("boom".into())
            .to_string()
            .contains("boom"));
        assert!(!ServeError::Overloaded.to_string().is_empty());
        assert!(!ServeError::DeadlineExceeded.to_string().is_empty());
    }

    #[test]
    fn live_stats_snapshot_tracks_served_rows() {
        let net = small_net();
        let handle = ServeEngine::start(net, &quick_config());
        let client = handle.client();
        let row = vec![0.5f32; client.n_in()];
        client.infer(&row).unwrap();
        let live = handle.stats();
        assert_eq!(live.rows, 1);
        let final_stats = handle.shutdown().unwrap();
        assert_eq!(final_stats.rows, 1);
    }

    #[test]
    fn default_config_reads_env_shape() {
        let cfg = ServeConfig::default();
        assert!(cfg.max_batch >= 1);
        assert!(cfg.slots >= cfg.max_batch);
        assert!(cfg.queue >= 1);
    }
}
