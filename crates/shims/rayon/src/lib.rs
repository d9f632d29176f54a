//! Offline, API-compatible stand-in for the parts of `rayon` this workspace
//! uses.
//!
//! The build environment has no network access, so the real `rayon` cannot
//! be fetched. Unlike most shims this one is **not** a sequential fake: work
//! is fanned out over a **persistent worker pool** — `num_threads() - 1`
//! detached threads spawned once per process — through a **deque-based
//! work-stealing scheduler**. Each worker owns a fixed-capacity chunk deque
//! (LIFO local pop, FIFO steal); a parallel call claims one of a fixed set
//! of job slots, pushes a root index range onto the submitter's deque, and
//! participates until every leaf index has executed exactly once. Ranges
//! split binarily as they are claimed, so thieves always steal the largest
//! outstanding half. A steady-state parallel call performs **zero heap
//! allocation** on the dispatch path: the deques, job slots, and condvars
//! are all built once, at pool construction.
//!
//! Unlike the previous one-job-at-a-time broadcast protocol, **independent
//! jobs interleave on the same workers**: a serving flush and a training
//! gradient batch submitted from different threads share the pool
//! concurrently, and a two-level [`Priority`] lane lets latency-sensitive
//! work (inference tiles) preempt throughput work (training chunks) at
//! every claim boundary — see [`with_priority`]. Nested `par_*` calls
//! **enqueue** onto the nesting worker's own deque instead of inlining, so
//! idle peers can steal the inner work; the nesting thread helps only with
//! the job it is waiting on, which is what makes per-slot scratch states
//! safe from re-entrant aliasing.
//!
//! The steal order is deterministic given the **steal seed**
//! ([`set_steal_seed`], or `RADIX_STEAL_SEED` at pool build): victims are
//! visited in a seed-derived rotation, which is the injectable hook the
//! scheduler-torture suite uses to force different interleavings.
//! Schedules never affect results: the primitives guarantee exactly-once
//! execution per index, and the deterministic kernels built on them
//! (fixed-order tree reductions) are schedule-independent by construction.
//!
//! Supported surface: `into_par_iter()` on ranges and vectors,
//! `par_chunks_mut` on slices, the adaptors `enumerate`, `map`, `map_init`,
//! `for_each`, and `collect`, plus the shim-specific zero-allocation
//! primitives the prepared kernels build on: [`for_each_chunk_mut`],
//! [`for_each_chunk_mut_with`], [`for_each_chunk_mut_paired`], and
//! [`for_each_item_with`].
//!
//! This crate contains `unsafe` in two tightly-scoped places: handing the
//! borrowed job closure to the persistent workers (a job slot's closure
//! pointer is dereferenced only between claiming one of its tasks and
//! retiring it, and the submitter does not return until every task has
//! retired) and splitting slices/vectors into disjoint per-task pieces
//! across threads (leaf indices are executed exactly once; scratch state
//! slots are never held by two threads at once, and a thread never
//! re-enters a job it is already executing). Each unsafe block carries its
//! own safety argument. Outside this crate, only `radix-sparse` holds
//! `unsafe`: under the same `#![deny(unsafe_code)]` pattern, it allows it
//! at the call into each diagonal kernel's AVX2 copy, made after the run-time
//! CPU check. Every other crate is `#![forbid(unsafe_code)]`.

#![deny(unsafe_code)]
#![warn(missing_docs)]

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicU64, Ordering};

/// Everything call sites need: `use rayon::prelude::*;`.
pub mod prelude {
    pub use crate::{IntoParallelIterator, ParIter, ParallelSliceMut};
}

/// Number of worker threads to fan out over. `RADIX_POOL_THREADS` (the
/// project-native knob, used by the CI multi-thread matrix) takes
/// precedence, then `RAYON_NUM_THREADS` (the name real rayon honours), then
/// the hardware default. Read once, when the pool is built.
fn num_threads() -> usize {
    let hardware = || {
        std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1)
    };
    // As in real rayon, 0 (and anything unparseable) means "choose
    // automatically", not "run serially".
    let parse = |v: String| v.parse::<usize>().ok().filter(|&n| n > 0);
    std::env::var("RADIX_POOL_THREADS")
        .ok()
        .and_then(parse)
        .or_else(|| std::env::var("RAYON_NUM_THREADS").ok().and_then(parse))
        .unwrap_or_else(hardware)
}

/// Total number of threads that participate in a parallel job: the
/// persistent pool workers plus the calling thread (rayon's
/// `current_num_threads`). Callers sizing per-worker scratch state (see
/// [`for_each_chunk_mut_with`]) should size it to this value.
#[must_use]
pub fn current_num_threads() -> usize {
    pool::get().workers + 1
}

/// Scheduling lane for a parallel job. Workers look for [`Priority::High`]
/// tasks (across every deque) before considering [`Priority::Normal`] ones,
/// so latency-sensitive work — a serving flush's inference tiles — runs
/// ahead of throughput work — training gradient chunks — at every claim
/// boundary. Tasks already executing are never interrupted; preemption
/// happens between chunks, which is why latency-sensitive callers keep
/// their chunk sizes small.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Priority {
    /// Default lane: throughput work (training, batch analytics).
    Normal,
    /// Preferred lane: claimed before any `Normal` task, across all deques.
    High,
}

/// Runs `f` with this thread's ambient scheduling priority set to `p`;
/// every parallel job submitted inside `f` — including jobs nested inside
/// those jobs, on whichever worker executes them — is tagged with that
/// lane. The previous ambient priority is restored on exit (also on
/// unwind).
pub fn with_priority<R>(p: Priority, f: impl FnOnce() -> R) -> R {
    struct Restore(Priority);
    impl Drop for Restore {
        fn drop(&mut self) {
            pool::set_ambient_priority(self.0);
        }
    }
    let _restore = Restore(pool::ambient_priority());
    pool::set_ambient_priority(p);
    f()
}

/// This thread's current ambient scheduling priority (the lane new jobs
/// submitted from this thread will be tagged with).
#[must_use]
pub fn thread_priority() -> Priority {
    pool::ambient_priority()
}

/// The process-wide steal seed: mixes into every worker's victim-visit
/// rotation. Defaults to `RADIX_STEAL_SEED` (if set when the pool is
/// built), else 0.
static STEAL_SEED: AtomicU64 = AtomicU64::new(0);

/// Sets the steal seed, the injectable steal-order hook: workers derive
/// their victim-visit rotation from `(seed, thread, attempt)`, so different
/// seeds force different steal interleavings — the property the
/// scheduler-torture suite sweeps. Takes effect on the next claim; results
/// of the shim's primitives are schedule-independent, so this can never
/// change what a parallel call computes, only the interleaving.
pub fn set_steal_seed(seed: u64) {
    STEAL_SEED.store(seed, Ordering::Relaxed);
}

/// The current process-wide steal seed (see [`set_steal_seed`]).
#[must_use]
pub fn steal_seed() -> u64 {
    STEAL_SEED.load(Ordering::Relaxed)
}

mod pool {
    //! The persistent worker pool and its work-stealing scheduler.
    //!
    //! One mutex guards the whole scheduler state — every deque and job
    //! slot. Tasks are coarse by construction (a task is a kernel *chunk*:
    //! rows of a batch, a parameter range), so claims are rare relative to
    //! the work they hand out and the lock stays cold; in exchange, steals
    //! can inspect every queued task (not just deque ends), which is what
    //! makes the priority lane and the submitter's filtered helping exact,
    //! and the seeded victim rotation fully deterministic under the lock.
    //!
    //! Invariants the safety arguments lean on:
    //!
    //! * **Exactly-once**: a task (an index range) is removed from a deque
    //!   by exactly one thread; splitting pushes disjoint halves. A job's
    //!   `remaining` counts unretired leaves; it reaches zero exactly when
    //!   every leaf has executed (or been drained by a poisoned job).
    //! * **Closure lifetime**: a submitter returns only after `remaining`
    //!   hits zero, and every dereference of the job's closure pointer
    //!   happens between claiming one of its tasks and retiring it.
    //! * **State-slot uniqueness**: for one job, the submitting thread uses
    //!   state slot 0 and pool worker `w` uses slot `w` (eligible only when
    //!   `w < n_states`) — distinct threads, distinct slots. A thread
    //!   waiting on a nested job helps **only** with that job's tasks, so
    //!   it can never re-enter an outer job and alias its own slot.

    use std::any::Any;
    use std::cell::Cell;
    use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

    use crate::Priority;

    /// Maximum concurrently active jobs; submissions past this run inline.
    const MAX_JOBS: usize = 16;
    /// Per-deque task capacity. Binary splitting keeps a deque's occupancy
    /// at O(log n_tasks) per job, so 64 never fills in practice; if it
    /// does, the claimer just keeps the unsplit remainder as one task.
    const DEQUE_CAP: usize = 64;
    /// Thread tokens: workers use `1..=workers`; external (non-pool)
    /// threads draw unique tokens starting here.
    const EXTERNAL_TOKEN_BASE: u64 = 1 << 32;

    /// A unit of queued work: leaf indices `lo..hi` of job slot `job`.
    #[derive(Clone, Copy, Default)]
    struct Task {
        job: usize,
        lo: usize,
        hi: usize,
    }

    /// Fixed-capacity task queue. Newest entries sit at `len - 1` (the
    /// "bottom", popped LIFO by the owner); oldest at 0 (the "top", stolen
    /// FIFO by thieves). Middle removal is allowed — the scheduler lock
    /// makes it trivially safe, and priority steals use it.
    struct Deque {
        buf: [Task; DEQUE_CAP],
        len: usize,
    }

    impl Deque {
        const fn new() -> Self {
            Deque {
                buf: [Task {
                    job: 0,
                    lo: 0,
                    hi: 0,
                }; DEQUE_CAP],
                len: 0,
            }
        }

        fn push(&mut self, t: Task) -> bool {
            if self.len == DEQUE_CAP {
                return false;
            }
            self.buf[self.len] = t;
            self.len += 1;
            true
        }

        fn remove(&mut self, i: usize) -> Task {
            debug_assert!(i < self.len);
            let t = self.buf[i];
            self.buf.copy_within(i + 1..self.len, i);
            self.len -= 1;
            t
        }
    }

    /// Type-erased pointer to a job's closure: `f(leaf_index, state_slot)`.
    #[derive(Clone, Copy)]
    struct JobFn(*const (dyn Fn(usize, usize) + Sync));

    // SAFETY: the pointee is `Sync` (callable from any thread through a
    // shared reference), and the scheduler guarantees the pointer is only
    // dereferenced while the job it belongs to has unretired tasks — the
    // submitter, who owns the closure, does not return before then.
    #[allow(unsafe_code)]
    unsafe impl Send for JobFn {}

    /// One of the fixed job slots.
    struct JobSlot {
        active: bool,
        f: Option<JobFn>,
        /// Scratch-state count: worker `w` participates iff `w < n_states`.
        n_states: usize,
        priority: Priority,
        /// Thread token of the submitter (state slot 0 for this job).
        submitter: u64,
        /// Unretired leaf count; 0 ⇒ job finished, submitter may return.
        remaining: usize,
        /// Set on the first panic: remaining tasks are drained, not run.
        poisoned: bool,
        /// First panic payload, re-raised on the submitting thread.
        panic: Option<Box<dyn Any + Send>>,
    }

    impl JobSlot {
        const fn idle() -> Self {
            JobSlot {
                active: false,
                f: None,
                n_states: 0,
                priority: Priority::Normal,
                submitter: 0,
                remaining: 0,
                poisoned: false,
                panic: None,
            }
        }
    }

    /// Everything the scheduler mutex guards.
    struct Sched {
        /// `workers` worker deques (index `w - 1` for worker `w`) followed
        /// by `MAX_JOBS` job-slot deques for external submitters.
        deques: Box<[Deque]>,
        jobs: [JobSlot; MAX_JOBS],
        /// Workers parked on `work_cv`; pushes notify only when > 0.
        sleepers: usize,
    }

    /// A claimed task plus everything needed to execute it lock-free.
    struct Claim {
        task: Task,
        f: JobFn,
        state_idx: usize,
        priority: Priority,
    }

    pub(crate) struct Pool {
        sched: Mutex<Sched>,
        /// Wakes parked workers when stealable work appears.
        work_cv: Condvar,
        /// Per-job-slot completion condvars (submitters park here).
        done_cv: Box<[Condvar]>,
        pub(crate) workers: usize,
    }

    thread_local! {
        /// This thread's scheduler identity: workers get `1..=workers` at
        /// spawn, other threads draw a unique token lazily on first submit.
        static THREAD_TOKEN: Cell<u64> = const { Cell::new(0) };
        /// Ambient lane for jobs submitted from this thread.
        static AMBIENT_PRIORITY: Cell<Priority> = const { Cell::new(Priority::Normal) };
        /// Per-thread claim counter; mixes into the steal rotation.
        static STEAL_ATTEMPT: Cell<u64> = const { Cell::new(0) };
    }

    static NEXT_EXTERNAL_TOKEN: AtomicU64 = AtomicU64::new(EXTERNAL_TOKEN_BASE);

    fn thread_token() -> u64 {
        let t = THREAD_TOKEN.with(Cell::get);
        if t != 0 {
            return t;
        }
        let t = NEXT_EXTERNAL_TOKEN.fetch_add(1, Ordering::Relaxed);
        THREAD_TOKEN.with(|c| c.set(t));
        t
    }

    pub(crate) fn ambient_priority() -> Priority {
        AMBIENT_PRIORITY.with(Cell::get)
    }

    pub(crate) fn set_ambient_priority(p: Priority) {
        AMBIENT_PRIORITY.with(|c| c.set(p));
    }

    /// SplitMix64: full-avalanche mixer for the steal rotation.
    fn mix(mut z: u64) -> u64 {
        z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn lock_sched(p: &Pool) -> MutexGuard<'_, Sched> {
        p.sched.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The pool, built (and its workers spawned) on first use.
    pub(crate) fn get() -> &'static Pool {
        static POOL: OnceLock<Pool> = OnceLock::new();
        POOL.get_or_init(|| {
            if let Some(seed) = std::env::var("RADIX_STEAL_SEED")
                .ok()
                .and_then(|v| v.parse::<u64>().ok())
            {
                crate::STEAL_SEED.store(seed, Ordering::Relaxed);
            }
            let workers = super::num_threads().saturating_sub(1);
            let pool = Pool {
                sched: Mutex::new(Sched {
                    deques: (0..workers + MAX_JOBS).map(|_| Deque::new()).collect(),
                    jobs: [const { JobSlot::idle() }; MAX_JOBS],
                    sleepers: 0,
                }),
                work_cv: Condvar::new(),
                done_cv: (0..MAX_JOBS).map(|_| Condvar::new()).collect(),
                workers,
            };
            // Worker start-up (TLS setup, runtime bookkeeping) may
            // allocate on the worker threads; block until every worker has
            // parked so that cost is charged to pool construction, not to
            // whatever the caller measures afterwards.
            static READY: Mutex<usize> = Mutex::new(0);
            static READY_CV: Condvar = Condvar::new();
            for w in 1..=workers {
                std::thread::Builder::new()
                    .name(format!("radix-steal-{w}"))
                    .spawn(move || {
                        THREAD_TOKEN.with(|c| c.set(w as u64));
                        {
                            let mut r = READY.lock().unwrap_or_else(PoisonError::into_inner);
                            *r += 1;
                            READY_CV.notify_all();
                        }
                        // Blocks until the OnceLock is initialized.
                        worker_loop(get(), w);
                    })
                    .expect("spawn rayon-shim pool worker");
            }
            {
                let mut r = READY.lock().unwrap_or_else(PoisonError::into_inner);
                while *r < workers {
                    r = READY_CV.wait(r).unwrap_or_else(PoisonError::into_inner);
                }
            }
            pool
        })
    }

    /// The deque a thread pushes to and pops from: workers own
    /// `deques[w - 1]`; an external submitter uses its job's slot deque.
    fn own_deque_idx(token: u64, job: usize, workers: usize) -> usize {
        if token >= 1 && token <= workers as u64 {
            (token - 1) as usize
        } else {
            workers + job
        }
    }

    /// The scratch-state slot `token` uses for `job`, or `None` if this
    /// thread does not participate in it. Submitter ⇒ slot 0; worker `w` ⇒
    /// slot `w` when `w < n_states` (mirroring the old broadcast protocol,
    /// where the caller ran slot 0 and workers ran `1..=W`).
    fn state_index(job: &JobSlot, token: u64, workers: usize) -> Option<usize> {
        if token == job.submitter {
            Some(0)
        } else if token >= 1 && token <= workers as u64 && (token as usize) < job.n_states {
            Some(token as usize)
        } else {
            None
        }
    }

    impl Sched {
        /// Retires `count` leaves of `job`; notifies the submitter on
        /// completion. Call with the scheduler lock held.
        fn retire(&mut self, p: &Pool, job: usize, count: usize) {
            let j = &mut self.jobs[job];
            debug_assert!(j.remaining >= count);
            j.remaining -= count;
            if j.remaining == 0 {
                p.done_cv[job].notify_all();
            }
        }

        /// Removes task `i` from deque `dq` and prepares it for execution:
        /// drains it instead if its job is poisoned (returning `None`),
        /// otherwise splits it down to one leaf — pushing the upper halves
        /// onto `own_dq` for peers to steal — and returns the claim.
        fn claim_at(
            &mut self,
            p: &Pool,
            dq: usize,
            i: usize,
            own_dq: usize,
            state_idx: usize,
        ) -> Option<Claim> {
            let mut t = self.deques[dq].remove(i);
            if self.jobs[t.job].poisoned {
                self.retire(p, t.job, t.hi - t.lo);
                return None;
            }
            let mut pushed = false;
            while t.hi - t.lo > 1 {
                let mid = t.lo + (t.hi - t.lo) / 2;
                if !self.deques[own_dq].push(Task {
                    job: t.job,
                    lo: mid,
                    hi: t.hi,
                }) {
                    break; // Deque full: keep the remainder as one task.
                }
                t.hi = mid;
                pushed = true;
            }
            if pushed && self.sleepers > 0 {
                p.work_cv.notify_all();
            }
            let j = &self.jobs[t.job];
            Some(Claim {
                task: t,
                f: j.f.expect("active job has a closure"),
                state_idx,
                priority: j.priority,
            })
        }

        /// A worker's general claim: for each lane (High first), LIFO from
        /// its own deque, then FIFO steals across every other deque in the
        /// seed-derived victim rotation. Poisoned tasks encountered along
        /// the way are drained in place.
        fn find_general(&mut self, p: &Pool, token: u64) -> Option<Claim> {
            let own = own_deque_idx(token, 0, p.workers);
            debug_assert!(own < p.workers, "only workers run the general scan");
            let n_deques = self.deques.len();
            let h = mix(crate::STEAL_SEED.load(Ordering::Relaxed) ^ token.rotate_left(17))
                ^ mix(STEAL_ATTEMPT.with(|c| {
                    let a = c.get();
                    c.set(a.wrapping_add(1));
                    a
                }));
            let start = (h % n_deques as u64) as usize;
            let backwards = (h >> 32) & 1 == 1;
            for lane in [Priority::High, Priority::Normal] {
                // Own deque, newest-first (LIFO): cache-warm continuation
                // of whatever this worker just split.
                let mut i = self.deques[own].len;
                while i > 0 {
                    i -= 1;
                    let t = self.deques[own].buf[i];
                    if self.jobs[t.job].poisoned {
                        self.deques[own].remove(i);
                        self.retire(p, t.job, t.hi - t.lo);
                        continue;
                    }
                    if self.jobs[t.job].priority != lane {
                        continue;
                    }
                    // Own-deque tasks are always jobs this worker may run:
                    // it only ever claims eligible tasks, and splits stay
                    // within the same job.
                    let state_idx = state_index(&self.jobs[t.job], token, p.workers)
                        .expect("own-deque task must be eligible");
                    if let Some(c) = self.claim_at(p, own, i, own, state_idx) {
                        return Some(c);
                    }
                    i = i.min(self.deques[own].len); // Restart after drain.
                }
                // Steals, oldest-first (FIFO) per victim, victims in the
                // seeded rotation — the injectable steal-order hook.
                for step in 0..n_deques {
                    let dq = if backwards {
                        (start + n_deques - step % n_deques) % n_deques
                    } else {
                        (start + step) % n_deques
                    };
                    if dq == own {
                        continue;
                    }
                    let mut i = 0;
                    while i < self.deques[dq].len {
                        let t = self.deques[dq].buf[i];
                        if self.jobs[t.job].poisoned {
                            self.deques[dq].remove(i);
                            self.retire(p, t.job, t.hi - t.lo);
                            continue;
                        }
                        if self.jobs[t.job].priority == lane {
                            if let Some(state_idx) =
                                state_index(&self.jobs[t.job], token, p.workers)
                            {
                                if let Some(c) = self.claim_at(p, dq, i, own, state_idx) {
                                    return Some(c);
                                }
                                continue;
                            }
                        }
                        i += 1;
                    }
                }
            }
            None
        }

        /// A submitter's claim while waiting on `job`: **only** that job's
        /// tasks — own deque newest-first, then any other deque
        /// oldest-first. The filter is what prevents a nested submitter
        /// from re-entering the outer job it is already inside (which
        /// would alias its scratch-state slot).
        fn find_for_job(&mut self, p: &Pool, token: u64, job: usize) -> Option<Claim> {
            let own = own_deque_idx(token, job, p.workers);
            let state_idx =
                state_index(&self.jobs[job], token, p.workers).expect("submitter has slot 0");
            let mut i = self.deques[own].len;
            while i > 0 {
                i -= 1;
                let t = self.deques[own].buf[i];
                if self.jobs[t.job].poisoned {
                    self.deques[own].remove(i);
                    self.retire(p, t.job, t.hi - t.lo);
                    i = i.min(self.deques[own].len);
                    continue;
                }
                if t.job == job {
                    if let Some(c) = self.claim_at(p, own, i, own, state_idx) {
                        return Some(c);
                    }
                    i = i.min(self.deques[own].len);
                }
            }
            for dq in 0..self.deques.len() {
                if dq == own {
                    continue;
                }
                let mut i = 0;
                while i < self.deques[dq].len {
                    let t = self.deques[dq].buf[i];
                    if t.job == job {
                        if let Some(c) = self.claim_at(p, dq, i, own, state_idx) {
                            return Some(c);
                        }
                        continue; // Drained in place; index unchanged.
                    }
                    i += 1;
                }
            }
            None
        }
    }

    /// Executes a claim outside the lock, then retires it. Panics are
    /// caught here: the first payload is stored on the job (re-raised by
    /// the submitter), the job is poisoned so its queued tasks drain, and
    /// the executing thread — worker or submitter — survives.
    fn execute(p: &Pool, claim: Claim) {
        let prev = ambient_priority();
        set_ambient_priority(claim.priority);
        // SAFETY: the claim was taken while its job had `remaining > 0`,
        // and this task is not retired until after the call returns — the
        // submitter (who owns the closure) blocks until `remaining == 0`,
        // so the pointer is live for the whole call.
        #[allow(unsafe_code)]
        let f = unsafe { &*claim.f.0 };
        let result = catch_unwind(AssertUnwindSafe(|| {
            for k in claim.task.lo..claim.task.hi {
                f(k, claim.state_idx);
            }
        }));
        set_ambient_priority(prev);
        let mut s = lock_sched(p);
        if let Err(payload) = result {
            let j = &mut s.jobs[claim.task.job];
            j.poisoned = true;
            j.panic.get_or_insert(payload);
        }
        s.retire(p, claim.task.job, claim.task.hi - claim.task.lo);
    }

    fn worker_loop(p: &'static Pool, w: usize) {
        let token = w as u64;
        loop {
            let claim = {
                let mut s = lock_sched(p);
                loop {
                    if let Some(c) = s.find_general(p, token) {
                        break c;
                    }
                    s.sleepers += 1;
                    s = p.work_cv.wait(s).unwrap_or_else(PoisonError::into_inner);
                    s.sleepers -= 1;
                }
            };
            execute(p, claim);
        }
    }

    /// Runs `f(k, state_slot)` exactly once for every `k in 0..n_tasks`
    /// across the pool, returning once all have finished. `state_slot` is
    /// 0 on the submitting thread and `w` on pool worker `w`; a slot is
    /// never held by two threads at once, and only workers with
    /// `w < n_states` participate. Falls back to an inline ascending loop
    /// (slot 0) when the pool has no workers, all job slots are busy, or
    /// the root push overflows.
    ///
    /// # Panics
    /// Re-raises the first panicking task's original payload on the
    /// calling thread after every task has retired; queued tasks of the
    /// poisoned job are drained, and the pool survives.
    pub(crate) fn run_job(n_tasks: usize, n_states: usize, f: &(dyn Fn(usize, usize) + Sync)) {
        debug_assert!(n_tasks > 0);
        let p = get();
        if p.workers == 0 || n_states <= 1 {
            for k in 0..n_tasks {
                f(k, 0);
            }
            return;
        }
        let token = thread_token();
        // SAFETY: lifetime erasure only — the fat-pointer layout is
        // unchanged, and this function does not return until `remaining`
        // reaches zero, after which no thread dereferences the pointer.
        #[allow(unsafe_code)]
        let erased: *const (dyn Fn(usize, usize) + Sync) = unsafe {
            std::mem::transmute::<
                &(dyn Fn(usize, usize) + Sync),
                &'static (dyn Fn(usize, usize) + Sync),
            >(f)
        };
        let job = {
            let mut s = lock_sched(p);
            let Some(job) = s.jobs.iter().position(|j| !j.active) else {
                drop(s);
                for k in 0..n_tasks {
                    f(k, 0);
                }
                return;
            };
            s.jobs[job] = JobSlot {
                active: true,
                f: Some(JobFn(erased)),
                n_states,
                priority: ambient_priority(),
                submitter: token,
                remaining: n_tasks,
                poisoned: false,
                panic: None,
            };
            let own = own_deque_idx(token, job, p.workers);
            if !s.deques[own].push(Task {
                job,
                lo: 0,
                hi: n_tasks,
            }) {
                s.jobs[job].active = false;
                drop(s);
                for k in 0..n_tasks {
                    f(k, 0);
                }
                return;
            }
            if s.sleepers > 0 {
                p.work_cv.notify_all();
            }
            job
        };
        // Participate until done: claim own-job tasks (helping is
        // restricted to this job — see `find_for_job`), park on the job's
        // condvar when none are claimable (they are executing elsewhere).
        let mut s = lock_sched(p);
        loop {
            if s.jobs[job].remaining == 0 {
                let payload = s.jobs[job].panic.take();
                s.jobs[job].f = None;
                s.jobs[job].active = false;
                drop(s);
                if let Some(payload) = payload {
                    resume_unwind(payload);
                }
                return;
            }
            if let Some(claim) = s.find_for_job(p, token, job) {
                drop(s);
                execute(p, claim);
                s = lock_sched(p);
                continue;
            }
            // Re-check before parking, in the same lock hold: `find_for_job`
            // can itself retire the job's last leaves (draining a poisoned
            // job), and that zero-transition notify fired while *this*
            // thread was the one scanning — waiting on it now would sleep
            // forever. The loop re-runs the completion check instead.
            if s.jobs[job].remaining > 0 {
                s = p.done_cv[job]
                    .wait(s)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }
    }
}

/// A raw mutable pointer that may be dereferenced from any pool thread.
/// Each use site carves out disjoint regions per task/slot index, so no two
/// threads ever touch the same element.
struct SharedMutPtr<T>(*mut T);

// SAFETY: the pointer is only used to derive references to *disjoint*
// regions (distinct chunk indices, distinct state slots), each claimed
// exactly once / held by one thread at a time; the data it points into
// outlives the job.
#[allow(unsafe_code)]
unsafe impl<T: Send> Sync for SharedMutPtr<T> {}

impl<T> SharedMutPtr<T> {
    /// The wrapped pointer. Closures must go through this method (not the
    /// field) so they capture the `Sync` wrapper, not the raw pointer.
    fn ptr(&self) -> *mut T {
        self.0
    }
}

/// Pool-parallel loop over `chunk_size`-sized mutable chunks of `data`
/// (the last chunk may be shorter), with one caller-provided scratch state
/// per participating thread. `f(state, chunk_index, chunk)` is called once
/// per chunk; chunks are claimed through the work-stealing scheduler, so
/// the schedule load-balances (and interleaves with other jobs on the
/// pool). At most `states.len()` threads participate — size the slice with
/// [`current_num_threads`] for full parallelism (a single state forces
/// serial execution).
///
/// Unlike [`ParallelSliceMut::par_chunks_mut`], this performs **no heap
/// allocation**: no chunk list is materialized and the pool threads are
/// persistent, which is what keeps warmed-up parallel inference inside an
/// allocation-free timed region.
///
/// # Panics
/// Panics if `chunk_size == 0`, or if `data` is non-empty and `states` is
/// empty, or if `f` panics on any thread.
pub fn for_each_chunk_mut_with<T, S, F>(data: &mut [T], chunk_size: usize, states: &mut [S], f: F)
where
    T: Send,
    S: Send,
    F: Fn(&mut S, usize, &mut [T]) + Sync,
{
    assert!(chunk_size > 0, "chunk size must be positive");
    let len = data.len();
    let n_tasks = len.div_ceil(chunk_size);
    if n_tasks == 0 {
        return;
    }
    assert!(!states.is_empty(), "need at least one scratch state");
    if n_tasks == 1 || states.len() == 1 || pool::get().workers == 0 {
        let state = &mut states[0];
        for k in 0..n_tasks {
            let start = k * chunk_size;
            let end = (start + chunk_size).min(len);
            f(state, k, &mut data[start..end]);
        }
        return;
    }
    let data_ptr = SharedMutPtr(data.as_mut_ptr());
    let states_ptr = SharedMutPtr(states.as_mut_ptr());
    let n_states = states.len();
    pool::run_job(n_tasks, n_states, &|k, slot| {
        debug_assert!(slot < n_states);
        // SAFETY: the scheduler guarantees `slot` is held by at most one
        // thread at a time for this job, and a thread never re-enters this
        // job while inside `f` (helping is restricted to the job being
        // waited on), so this is the only live reference to
        // `states[slot]`; the slice outlives the job.
        #[allow(unsafe_code)]
        let state = unsafe { &mut *states_ptr.ptr().add(slot) };
        let start = k * chunk_size;
        let clen = chunk_size.min(len - start);
        // SAFETY: `k` is executed exactly once, chunks `[start,
        // start+clen)` are pairwise disjoint across `k`, and `data`
        // outlives the job.
        #[allow(unsafe_code)]
        let chunk = unsafe { std::slice::from_raw_parts_mut(data_ptr.ptr().add(start), clen) };
        f(state, k, chunk);
    });
}

/// Stateless variant of [`for_each_chunk_mut_with`]: pool-parallel,
/// allocation-free loop over `chunk_size`-sized mutable chunks, `f(chunk_index,
/// chunk)` once per chunk.
///
/// # Panics
/// Panics if `chunk_size == 0` or if `f` panics on any thread.
pub fn for_each_chunk_mut<T, F>(data: &mut [T], chunk_size: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    /// Upper bound on participating threads for the stateless entry point
    /// (the unit states live on the stack).
    const MAX_SLOTS: usize = 128;
    let mut states = [(); MAX_SLOTS];
    let slots = current_num_threads().min(MAX_SLOTS);
    for_each_chunk_mut_with(data, chunk_size, &mut states[..slots.max(1)], |(), k, c| {
        f(k, c);
    });
}

/// Like [`for_each_chunk_mut`], but every chunk additionally gets exclusive
/// access to its own cell of `per_chunk`: `f(chunk_index, chunk, &mut
/// per_chunk[chunk_index])` once per chunk. This is the shape of a fused
/// sweep that computes a per-chunk summary (a partial norm, say) while the
/// chunk is hot in cache, without sharing an accumulator across threads —
/// the caller combines the cells afterwards in a fixed order, keeping the
/// result schedule-independent. Allocation-free, like the other primitives.
///
/// # Panics
/// Panics if `chunk_size == 0`, if `per_chunk` is shorter than the number
/// of chunks, or if `f` panics on any thread.
pub fn for_each_chunk_mut_paired<T, U, F>(
    data: &mut [T],
    chunk_size: usize,
    per_chunk: &mut [U],
    f: F,
) where
    T: Send,
    U: Send,
    F: Fn(usize, &mut [T], &mut U) + Sync,
{
    assert!(chunk_size > 0, "chunk_size must be positive");
    let len = data.len();
    if len == 0 {
        return;
    }
    let n_tasks = len.div_ceil(chunk_size);
    assert!(
        per_chunk.len() >= n_tasks,
        "per_chunk holds {} cells for {} chunks",
        per_chunk.len(),
        n_tasks
    );
    let data_ptr = SharedMutPtr(data.as_mut_ptr());
    let cell_ptr = SharedMutPtr(per_chunk.as_mut_ptr());
    pool::run_job(n_tasks, current_num_threads(), &|k, _slot| {
        let start = k * chunk_size;
        let clen = chunk_size.min(len - start);
        // SAFETY: `k` is executed exactly once; chunks `[start,
        // start+clen)` and cells `per_chunk[k]` are pairwise disjoint
        // across `k`, and both buffers outlive the job.
        #[allow(unsafe_code)]
        let chunk = unsafe { std::slice::from_raw_parts_mut(data_ptr.ptr().add(start), clen) };
        #[allow(unsafe_code)]
        let cell = unsafe { &mut *cell_ptr.ptr().add(k) };
        f(k, chunk, cell);
    });
}

/// Pool-parallel loop over the **elements** of a slice with one
/// caller-provided scratch state per participating thread:
/// `f(state, index, &mut items[index])` is called exactly once per element,
/// elements claimed through the work-stealing scheduler. At most
/// `states.len()` threads participate — size the slice with
/// [`current_num_threads`] for full parallelism (a single state forces
/// serial execution, in ascending index order).
///
/// This is [`for_each_chunk_mut_with`] for work items that are **not**
/// contiguous `&mut [T]` chunks of one buffer: each element can describe an
/// arbitrary unit of work (a row *range* of a shared batch plus its own
/// result buffers, say — the shape the pool-native data-parallel gradient
/// path dispatches on). Like the chunk primitives it performs **no heap
/// allocation**: no task list is materialized and the pool threads are
/// persistent.
///
/// # Panics
/// Panics if `items` is non-empty and `states` is empty, or if `f` panics
/// on any thread.
pub fn for_each_item_with<T, S, F>(items: &mut [T], states: &mut [S], f: F)
where
    T: Send,
    S: Send,
    F: Fn(&mut S, usize, &mut T) + Sync,
{
    for_each_chunk_mut_with(items, 1, states, |state, k, chunk| {
        f(state, k, &mut chunk[0]);
    });
}

/// A lazily-initialized per-state-slot scratch cell for [`ParIter::map_init`].
struct StateCell<S>(std::cell::UnsafeCell<Option<S>>);

// SAFETY: the scheduler guarantees a state slot index is held by at most
// one thread at a time for a given job, and a thread never re-enters the
// job while inside its closure, so the cell is never accessed concurrently.
#[allow(unsafe_code)]
unsafe impl<S: Send> Sync for StateCell<S> {}

/// An eager "parallel iterator": the items are already materialized, and
/// every consuming adaptor fans them out over the persistent worker pool.
pub struct ParIter<I> {
    items: Vec<I>,
}

impl<I: Send> ParIter<I> {
    /// Pairs every item with its index, like [`Iterator::enumerate`].
    #[must_use]
    pub fn enumerate(self) -> ParIter<(usize, I)> {
        ParIter {
            items: self.items.into_iter().enumerate().collect(),
        }
    }

    /// Applies `f` to every item across the pool threads.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn(I) + Sync,
    {
        let n = self.items.len();
        if n <= 1 || pool::get().workers == 0 {
            self.items.into_iter().for_each(f);
            return;
        }
        // Hand ownership of the buffer to the scheduler: items are moved
        // out one by one via `ptr::read`, each index executed exactly
        // once, then the (now logically empty) buffer is freed.
        let mut items = std::mem::ManuallyDrop::new(self.items);
        let base = SharedMutPtr(items.as_mut_ptr());
        pool::run_job(n, current_num_threads(), &|k, _slot| {
            // SAFETY: each index is executed exactly once, so every item
            // is read (moved out) exactly once; the buffer outlives the
            // job and its elements are never touched again below.
            #[allow(unsafe_code)]
            let item = unsafe { std::ptr::read(base.ptr().add(k)) };
            f(item);
        });
        // SAFETY: all `n` items were moved out above (the job only
        // finishes after every index has executed), so the buffer must be
        // freed without dropping any element. On panic the `ManuallyDrop`
        // leaks instead — safe, never a double drop.
        #[allow(unsafe_code)]
        unsafe {
            items.set_len(0);
        }
        drop(std::mem::ManuallyDrop::into_inner(items));
    }

    /// Maps every item through `f` across the pool threads, preserving
    /// order.
    pub fn map<F, R>(self, f: F) -> ParIter<R>
    where
        F: Fn(I) -> R + Sync,
        R: Send,
    {
        self.map_init(|| (), |_state: &mut (), item| f(item))
    }

    /// Like [`ParIter::map`], but each participating thread first builds a
    /// scratch state with `init` and threads it through the items it claims
    /// (rayon's `map_init`). Order-preserving.
    pub fn map_init<INIT, S, F, R>(self, init: INIT, f: F) -> ParIter<R>
    where
        INIT: Fn() -> S + Sync,
        F: Fn(&mut S, I) -> R + Sync,
        R: Send,
        S: Send,
    {
        let n = self.items.len();
        if n <= 1 || pool::get().workers == 0 {
            let mut state = init();
            return ParIter {
                items: self.items.into_iter().map(|i| f(&mut state, i)).collect(),
            };
        }
        let slots = current_num_threads();
        // States are built lazily so idle slots never pay for `init`.
        let states: Vec<StateCell<S>> = (0..slots)
            .map(|_| StateCell(std::cell::UnsafeCell::new(None)))
            .collect();
        let mut items = std::mem::ManuallyDrop::new(self.items);
        let in_ptr = SharedMutPtr(items.as_mut_ptr());
        let mut out: Vec<std::mem::MaybeUninit<R>> = Vec::with_capacity(n);
        let out_ptr = SharedMutPtr(out.as_mut_ptr());
        let init = &init;
        pool::run_job(n, slots, &|k, slot| {
            // SAFETY: the scheduler guarantees `slot` is held by one
            // thread at a time and never re-entered on the same thread
            // (helping is restricted to the awaited nested job), so this
            // is the only live reference into the cell.
            #[allow(unsafe_code)]
            let state = unsafe { &mut *states[slot].0.get() };
            let st = state.get_or_insert_with(init);
            // SAFETY: index `k` is executed exactly once: the input item
            // is moved out once, and the output slot is written once; both
            // buffers outlive the job.
            #[allow(unsafe_code)]
            let item = unsafe { std::ptr::read(in_ptr.ptr().add(k)) };
            let r = f(st, item);
            #[allow(unsafe_code)]
            unsafe {
                out_ptr.ptr().add(k).write(std::mem::MaybeUninit::new(r));
            }
        });
        drop(states);
        // SAFETY: as in `for_each`, every input item was moved out, so the
        // buffer is freed empty (leaked on panic, never double-dropped).
        #[allow(unsafe_code)]
        unsafe {
            items.set_len(0);
        }
        drop(std::mem::ManuallyDrop::into_inner(items));
        // SAFETY: every slot in `0..n` was written exactly once above, and
        // `MaybeUninit<R>` has the same layout as `R`, so the buffer can be
        // reinterpreted as an initialized `Vec<R>`.
        #[allow(unsafe_code)]
        let results = {
            let ptr = out.as_mut_ptr().cast::<R>();
            let cap = out.capacity();
            std::mem::forget(out);
            unsafe { Vec::from_raw_parts(ptr, n, cap) }
        };
        ParIter { items: results }
    }

    /// Gathers the (already computed, order-preserved) items.
    #[must_use]
    pub fn collect<C: From<Vec<I>>>(self) -> C {
        C::from(self.items)
    }
}

/// Conversion into a [`ParIter`] (rayon's `IntoParallelIterator`).
pub trait IntoParallelIterator {
    /// Item type produced by the parallel iterator.
    type Item: Send;

    /// Materializes `self` as a parallel iterator.
    fn into_par_iter(self) -> ParIter<Self::Item>;
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;

    fn into_par_iter(self) -> ParIter<T> {
        ParIter { items: self }
    }
}

impl IntoParallelIterator for std::ops::Range<usize> {
    type Item = usize;

    fn into_par_iter(self) -> ParIter<usize> {
        ParIter {
            items: self.collect(),
        }
    }
}

/// Parallel mutable-chunk views of slices (rayon's `ParallelSliceMut`).
pub trait ParallelSliceMut<T: Send> {
    /// Splits the slice into non-overlapping mutable chunks of `chunk_size`
    /// (the last chunk may be shorter) as a parallel iterator.
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ParIter<&mut [T]>;
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ParIter<&mut [T]> {
        assert!(chunk_size > 0, "chunk size must be positive");
        ParIter {
            items: self.chunks_mut(chunk_size).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn map_preserves_order() {
        let squares: Vec<usize> = (0..1000).into_par_iter().map(|i| i * i).collect();
        let expect: Vec<usize> = (0..1000).map(|i| i * i).collect();
        assert_eq!(squares, expect);
    }

    #[test]
    fn map_init_reuses_state_per_worker() {
        // Each slot's scratch buffer grows once per item it handles; the
        // output stays order-preserved and independent of the schedule.
        let out: Vec<u64> = (0..64usize)
            .into_par_iter()
            .map_init(Vec::<usize>::new, |scratch, i| {
                scratch.push(i);
                debug_assert!(!scratch.is_empty());
                i as u64
            })
            .collect();
        assert_eq!(out, (0..64).collect::<Vec<u64>>());
    }

    #[test]
    fn par_chunks_mut_writes_every_chunk() {
        let mut data = vec![0u32; 103];
        data.as_mut_slice()
            .par_chunks_mut(10)
            .enumerate()
            .for_each(|(i, chunk)| {
                for v in chunk.iter_mut() {
                    *v = i as u32 + 1;
                }
            });
        assert!(data.iter().all(|&v| v > 0));
        assert_eq!(data[0], 1);
        assert_eq!(data[102], 11);
    }

    #[test]
    fn for_each_visits_all_items() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let sum = AtomicUsize::new(0);
        (0..100usize).into_par_iter().for_each(|i| {
            sum.fetch_add(i, Ordering::Relaxed);
        });
        assert_eq!(sum.into_inner(), 99 * 100 / 2);
    }

    #[test]
    fn for_each_drops_owned_items_exactly_once() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        let drops = Arc::new(AtomicUsize::new(0));
        struct Counted(Arc<AtomicUsize>);
        impl Drop for Counted {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }
        let items: Vec<Counted> = (0..50).map(|_| Counted(Arc::clone(&drops))).collect();
        items.into_par_iter().for_each(|item| {
            std::hint::black_box(&item);
        });
        assert_eq!(drops.load(Ordering::Relaxed), 50);
    }

    #[test]
    fn empty_inputs_are_fine() {
        let v: Vec<usize> = (0..0).into_par_iter().map(|i| i).collect();
        assert!(v.is_empty());
        let mut empty: Vec<u8> = Vec::new();
        empty.as_mut_slice().par_chunks_mut(4).for_each(|_| {});
        crate::for_each_chunk_mut(&mut empty, 4, |_, _| {});
    }

    #[test]
    fn chunk_primitive_covers_every_chunk() {
        let mut data = vec![0u32; 103];
        crate::for_each_chunk_mut(&mut data, 10, |k, chunk| {
            for v in chunk.iter_mut() {
                *v = k as u32 + 1;
            }
        });
        assert!(data.iter().all(|&v| v > 0));
        assert_eq!(data[0], 1);
        assert_eq!(data[102], 11);
    }

    #[test]
    fn chunk_primitive_with_state_uses_disjoint_states() {
        // Every chunk records which state processed it; states count their
        // own chunks, and the totals must add up.
        let mut data = vec![0u8; 64];
        let mut states = vec![0usize; crate::current_num_threads()];
        crate::for_each_chunk_mut_with(&mut data, 3, &mut states, |st, _, chunk| {
            *st += 1;
            for v in chunk.iter_mut() {
                *v = 1;
            }
        });
        assert!(data.iter().all(|&v| v == 1));
        assert_eq!(states.iter().sum::<usize>(), 64usize.div_ceil(3));
    }

    #[test]
    fn item_primitive_visits_every_item_once() {
        // Items carry their own payloads (not chunks of one buffer); each
        // must be visited exactly once, states must count their items.
        let mut items: Vec<(usize, u32)> = (0..37).map(|i| (i, 0u32)).collect();
        let mut states = vec![0usize; crate::current_num_threads()];
        crate::for_each_item_with(&mut items, &mut states, |st, k, item| {
            assert_eq!(item.0, k, "index must match the item's position");
            *st += 1;
            item.1 += 1;
        });
        assert!(items.iter().all(|&(_, v)| v == 1));
        assert_eq!(states.iter().sum::<usize>(), 37);
        // Empty input needs no state at all.
        let mut none: Vec<(usize, u32)> = Vec::new();
        crate::for_each_item_with(&mut none, &mut states, |_, _, _| unreachable!());
    }

    #[test]
    fn item_primitive_single_state_runs_in_order() {
        // One state forces the serial fallback, which must claim items in
        // ascending index order (the property the deterministic gradient
        // reduction's tests lean on when they force serial execution).
        let mut items = vec![0usize; 16];
        let order = std::sync::Mutex::new(Vec::new());
        let mut states = [()];
        crate::for_each_item_with(&mut items, &mut states, |(), k, _| {
            order.lock().unwrap().push(k);
        });
        assert_eq!(order.into_inner().unwrap(), (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn nested_parallel_calls_complete() {
        // A parallel job that itself issues parallel calls must complete
        // with correct, ordered results (inner calls enqueue onto the
        // scheduler as child jobs instead of inlining; the nesting thread
        // helps only with the inner job while it waits).
        let out: Vec<usize> = (0..8usize)
            .into_par_iter()
            .map(|i| {
                let inner: Vec<usize> = (0..4usize).into_par_iter().map(|j| i * 10 + j).collect();
                inner.iter().sum()
            })
            .collect();
        let expect: Vec<usize> = (0..8).map(|i| (0..4).map(|j| i * 10 + j).sum()).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn current_num_threads_is_positive() {
        assert!(crate::current_num_threads() >= 1);
    }

    #[test]
    fn priority_is_scoped_and_restored() {
        assert_eq!(crate::thread_priority(), crate::Priority::Normal);
        let out = crate::with_priority(crate::Priority::High, || {
            assert_eq!(crate::thread_priority(), crate::Priority::High);
            // Jobs submitted here are tagged High; results are unchanged.
            let v: Vec<usize> = (0..32usize).into_par_iter().map(|i| i + 1).collect();
            v.iter().sum::<usize>()
        });
        assert_eq!(out, (1..=32).sum::<usize>());
        assert_eq!(crate::thread_priority(), crate::Priority::Normal);
    }

    #[test]
    fn steal_seed_roundtrips_and_never_changes_results() {
        let before = crate::steal_seed();
        for seed in [0u64, 1, 0xDEAD_BEEF, u64::MAX] {
            crate::set_steal_seed(seed);
            assert_eq!(crate::steal_seed(), seed);
            let out: Vec<usize> = (0..64usize).into_par_iter().map(|i| i * 7).collect();
            assert_eq!(out, (0..64).map(|i| i * 7).collect::<Vec<_>>());
        }
        crate::set_steal_seed(before);
    }

    #[test]
    fn panic_in_job_carries_original_payload() {
        // A panic inside a parallel region must surface on the calling
        // thread with its *original* payload — downstream supervision code
        // classifies failures by that message — whether it fired on a pool
        // worker or on the caller's own claims (with many items every
        // participant claims some).
        let caught = std::panic::catch_unwind(|| {
            (0..64usize).into_par_iter().for_each(|i| {
                if i == 33 {
                    panic!("injected kernel fault 33");
                }
            });
        })
        .expect_err("the injected panic must propagate to the caller");
        let msg = caught
            .downcast_ref::<&'static str>()
            .copied()
            .map(String::from)
            .or_else(|| caught.downcast_ref::<String>().cloned())
            .expect("payload should be the original panic message");
        assert!(
            msg.contains("injected kernel fault 33"),
            "got payload {msg:?}"
        );
    }

    #[test]
    fn pool_survives_a_panicked_job() {
        // A task panic poisons only the job that raised it: the very next
        // job on the same pool must run to completion on every thread and
        // produce correct results. This is the property the serving
        // supervisor relies on — an engine restart reuses the
        // process-wide pool that just absorbed the fault.
        for round in 0..3 {
            let caught = std::panic::catch_unwind(|| {
                (0..32usize).into_par_iter().for_each(|i| {
                    if i % 8 == round % 8 {
                        panic!("round {round} fault");
                    }
                });
            });
            assert!(caught.is_err(), "round {round}: panic must propagate");
            // Pool still healthy: a full map over the same range works.
            let out: Vec<usize> = (0..32usize).into_par_iter().map(|i| i * 2).collect();
            assert_eq!(out, (0..32).map(|i| i * 2).collect::<Vec<_>>());
        }
    }
}
