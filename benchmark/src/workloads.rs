//! The four workloads. Each is a type with three steps: `inputs` makes
//! everything from the seed (not timed), `setup` goes from a spec to the
//! first correct result (timed as `setup_s`), `run` is the timed phase.
//!
//! Only entry points the planned refactors keep are called here (see
//! README.md): a later change to the program must not have to edit this.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use radix_challenge::{
    ChallengeConfig, ChallengeNetwork, InferWorkspace, OnlineConfig, OnlineSession, ServeClient,
    ServeConfig, ServeEngine, ServeHandle, ServeStats,
};
use radix_data::{sparse_binary_batch, Teacher};
use radix_net::{MixedRadixSystem, RadixNetSpec};
use radix_nn::{train_regressor, Activation, Init, Loss, Network, Optimizer, TrainConfig};
use radix_sparse::DenseMatrix;

use crate::procfs::{usage, Usage};
use crate::reference::{Reference, Scaler};
use crate::stats::{
    due_time, median_or_zero, nearest_rank, traced_window, Clock, OpenOp, Phase, Windower,
};
use crate::trace::{Span, Spans};

/// How long the timed phase runs and how it is cut into windows.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub window: Duration,
    /// Warm-up windows run first and left out.
    pub discard: usize,
    pub measured: usize,
}

impl Plan {
    pub fn total(&self) -> Duration {
        self.window * (self.discard + self.measured) as u32
    }
}

/// What one timed phase produced.
#[derive(Default)]
pub struct Run {
    pub phase: Phase,
    /// Useful edges per second, one sample per window (per training round
    /// on `online_mixed`); `edges_per_s` is their median.
    pub rates: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Whole-run output checks that did not hold.
    pub errors: Vec<String>,
    pub spans: Vec<Span>,
    /// Facts about single layers that only this phase can observe.
    pub layer: BTreeMap<&'static str, f64>,
    /// Lines for the human reader (digests, counts).
    pub notes: Vec<String>,
    /// CPU seconds and context switches the timed loop cost, and its length.
    pub usage: Usage,
    pub wall_s: f64,
    /// The machine's speed around every op that was put on the reference
    /// clock; empty where the wall clock is reported.
    pub speeds: Vec<f64>,
    /// Seconds of `wall_s` spent on reference samples, on both cores.
    pub reference_s: f64,
    /// Useful edges of the whole loop, warm-up included.
    pub work: f64,
}

impl Run {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }

    /// Closes the timed loop that started at `epoch` with `before` on the meter.
    fn stop_clock(&mut self, epoch: Instant, before: &Usage) {
        self.wall_s = epoch.elapsed().as_secs_f64();
        self.usage = usage().since(before);
    }

    fn off_the_reference_clock(&mut self, scaler: Scaler) {
        self.speeds = scaler.speeds;
        self.reference_s = scaler.spent.as_secs_f64();
    }

    pub fn edges_per_s(&self) -> f64 {
        median_or_zero(&self.rates)
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty() && self.attempted > 0
    }
}

pub trait Workload {
    const NAME: &'static str;
    type Inputs;
    type Live;
    fn inputs(seed: u64) -> Self::Inputs;
    /// Spec to first correct result. Panics if that result is wrong.
    fn setup(inputs: &Self::Inputs) -> Self::Live;
    /// Ends an instance nothing was run on: when this returns, none of its
    /// threads is left to run beside the next set-up.
    fn teardown(live: Self::Live) {
        drop(live);
    }
    /// The timed phase. With `trace`, spans are recorded in every second
    /// window. Compute-bound ops are reported on the reference clock.
    fn run(
        inputs: &Self::Inputs,
        live: Self::Live,
        plan: &Plan,
        reference: &Reference,
        trace: bool,
    ) -> Run;
}

// ---------------------------------------------------------------- infer_batch

/// 4096 neurons x 60 layers x degree 16: 3.9 M edges per row.
pub fn infer_config() -> ChallengeConfig {
    ChallengeConfig::preset(16, 3, 20)
}
pub const INFER_ALIVE_ROWS: usize = 64;
pub const INFER_DYING_ROWS: usize = 192;

/// Rows that saturate at `YMAX` (0.6 active) followed by rows that die
/// out after a few layers (0.05 active): the first block keeps the tiled
/// gather busy, the rest goes down the activation-sparse path.
pub fn infer_batch_rows(seed: u64, alive: usize, dying: usize) -> DenseMatrix<f32> {
    let n = infer_config().neurons();
    let mut data = sparse_binary_batch(alive, n, 0.6, seed).into_vec();
    data.extend(sparse_binary_batch(dying, n, 0.05, seed ^ 0x9e37_79b9).into_vec());
    DenseMatrix::from_vec(alive + dying, n, data).expect("row-major batch")
}

pub struct InferBatch;

impl InferBatch {
    fn alive_outputs() -> usize {
        INFER_ALIVE_ROWS * infer_config().neurons()
    }
}

impl Workload for InferBatch {
    const NAME: &'static str = "infer_batch";
    type Inputs = DenseMatrix<f32>;
    type Live = (ChallengeNetwork, InferWorkspace);

    fn inputs(seed: u64) -> Self::Inputs {
        infer_batch_rows(seed, INFER_ALIVE_ROWS, INFER_DYING_ROWS)
    }

    fn setup(x: &Self::Inputs) -> Self::Live {
        let net = ChallengeNetwork::from_config(&infer_config()).expect("preset is a valid spec");
        let mut ws = InferWorkspace::for_network(&net, x.nrows());
        let active = net.forward_with(x, true, &mut ws).count_nonzero();
        assert_eq!(active, Self::alive_outputs(), "warm forward pass");
        (net, ws)
    }

    fn run(
        x: &Self::Inputs,
        (net, mut ws): Self::Live,
        plan: &Plan,
        reference: &Reference,
        trace: bool,
    ) -> Run {
        let expected = net.forward(x, false);
        let work = (x.nrows() * net.total_nnz()) as f64;
        let mut run = Run::default();
        let mut scaler = Scaler::new(reference);
        let (epoch, before) = (Instant::now(), usage());
        let mut spans = Spans::new(false, epoch, 0);
        let mut windows = Windower::new(plan.window, plan.discard, Clock::Calls);
        while epoch.elapsed() < plan.total() {
            let (op, at) = (run.attempted, epoch.elapsed());
            spans.enable(trace && traced_window(windows.index(at)));
            let root = spans.begin("op", None, op);
            let start = Instant::now();
            let y = spans.within("radix_challenge.infer.forward_with", root, op, || {
                net.forward_with(x, true, &mut ws)
            });
            let wall = start.elapsed();
            let ok = spans.within("harness.check", root, op, || {
                // Bitwise against the serial schedule once, the cheap
                // count on every op.
                y.count_nonzero() == Self::alive_outputs() && (op > 0 || *y == expected)
            });
            spans.end(root);
            let scaled = spans.within("harness.reference", None, op, || scaler.scale(wall));
            run.attempted += 1;
            run.failed += u64::from(!ok);
            windows.record(at, scaled, scaled, work);
        }
        run.stop_clock(epoch, &before);
        run.phase = windows.finish(epoch.elapsed());
        run.rates = run.phase.rates();
        run.spans = spans.into_vec();
        run.work = work * run.attempted as f64;
        run.off_the_reference_clock(scaler);
        run
    }
}

// ---------------------------------------------------------------- serve_paced

/// gc-1024: 1024 neurons x 30 layers x degree 32, 0.98 M edges per row.
pub fn serve_config() -> ChallengeConfig {
    ChallengeConfig::preset(32, 2, 15)
}

/// Explicit, so no `RADIX_SERVE_*` default can move the workload.
pub fn serve_engine_config() -> ServeConfig {
    ServeConfig {
        max_batch: 8,
        deadline_us: 10_000,
        slots: 32,
        queue: 32,
        parallel: true,
    }
}

pub const CLIENTS: usize = 2;
/// Each client sends every 20 ms, the two half an interval apart: 100
/// requests per second in all. The 10 ms gap is deliberately far from the
/// batcher's ~4.9 ms wait; at 200 requests per second the two resonated
/// and coalescing flipped from run to run.
pub const CLIENT_INTERVAL: Duration = Duration::from_millis(20);
pub const REQUEST_ROWS: usize = 64;

/// The open loop's clock: when it started and the flag that ends it.
struct OpenLoop<'a> {
    epoch: Instant,
    stop: &'a AtomicBool,
    /// Request `n` asks for row `n % n_rows`.
    n_rows: usize,
    /// When tracing: the window length. Spans are recorded for the
    /// requests due in every second window.
    traced: Option<Duration>,
}

impl OpenLoop<'_> {
    /// Client `c`'s side: request `i` is due at an absolute time, whatever
    /// happened to request `i - 1`. `send` makes the call and says whether
    /// it succeeded, `check` judges the reply.
    fn client(
        &self,
        c: usize,
        spans: &mut Spans,
        mut send: impl FnMut(usize, &mut Vec<f32>) -> bool,
        check: impl Fn(usize, &[f32]) -> bool,
    ) -> Vec<(OpenOp, bool)> {
        let offset = CLIENT_INTERVAL / CLIENTS as u32 * c as u32;
        let mut out = Vec::new();
        let mut ops = Vec::new();
        for i in 0u64.. {
            let due = due_time(offset, CLIENT_INTERVAL, i);
            if self.stop.load(Ordering::Relaxed) {
                break;
            }
            let op = i * CLIENTS as u64 + c as u64;
            let row = op as usize % self.n_rows;
            spans.enable(self.traced.is_some_and(|window| {
                traced_window((due.as_nanos() / window.as_nanos().max(1)) as usize)
            }));
            let root = spans.begin("op", None, op);
            spans.within("generator.sleep", root, op, || {
                std::thread::sleep(due.saturating_sub(self.epoch.elapsed()));
            });
            let sent = self.epoch.elapsed();
            let answered = spans.within("radix_challenge.serve.infer_into", root, op, || {
                send(row, &mut out)
            });
            let done = self.epoch.elapsed();
            let ok = spans.within("harness.check", root, op, || answered && check(row, &out));
            spans.end(root);
            ops.push((OpenOp { due, sent, done }, ok));
        }
        ops
    }
}

/// The engine's counters and the process's meter at one instant.
struct Meter {
    stats: ServeStats,
    usage: Usage,
}

impl Meter {
    fn read(handle: &ServeHandle) -> Self {
        Meter {
            stats: handle.stats(),
            usage: usage(),
        }
    }
}

struct Traffic {
    per_client: Vec<ClientLog>,
    elapsed: Duration,
}

/// What one client thread recorded: its requests and its spans.
type ClientLog = (Vec<(OpenOp, bool)>, Vec<Span>);

/// Runs the clients until `alongside`, which runs on the calling thread,
/// raises the stop flag it is given.
fn drive_traffic(
    client: &ServeClient,
    clients: usize,
    rows: &DenseMatrix<f32>,
    epoch: Instant,
    traced: Option<Duration>,
    check: impl Fn(usize, &[f32]) -> bool + Sync,
    alongside: impl FnOnce(&AtomicBool),
) -> Traffic {
    let stop = AtomicBool::new(false);
    let open = OpenLoop {
        epoch,
        stop: &stop,
        n_rows: rows.nrows(),
        traced,
    };
    let per_client = std::thread::scope(|s| {
        let threads: Vec<_> = (0..clients)
            .map(|c| {
                let (client, open, check) = (client.clone(), &open, &check);
                s.spawn(move || {
                    let mut spans = Spans::new(false, epoch, c as u64 + 1);
                    let send = |row: usize, out: &mut Vec<f32>| {
                        client.infer_into(rows.row(row), out).is_ok()
                    };
                    let ops = open.client(c, &mut spans, send, check);
                    (ops, spans.into_vec())
                })
            })
            .collect();
        alongside(&stop);
        threads
            .into_iter()
            .map(|t| t.join().expect("client thread"))
            .collect()
    });
    Traffic {
        per_client,
        elapsed: epoch.elapsed(),
    }
}

/// Folds the requests of a traffic phase into `run`: latencies from due times,
/// and what the phase showed of the serving layer.
fn fold_traffic(
    run: &mut Run,
    traffic: Traffic,
    plan: &Plan,
    edges_per_row: f64,
    before: &Meter,
    after: &Meter,
) {
    let budget = Duration::from_micros(serve_engine_config().deadline_us);
    let mut windows = Windower::new(plan.window, plan.discard, Clock::Completions);
    let (mut lags, mut calls, mut late) = (Vec::new(), Vec::new(), 0u64);
    for (ops, spans) in traffic.per_client {
        run.spans.extend(spans);
        for (op, ok) in ops {
            run.attempted += 1;
            run.failed += u64::from(!ok);
            let work = if ok { edges_per_row } else { 0.0 };
            windows.record(op.done, op.latency(), op.call(), work);
            lags.push(op.sched_lag().as_secs_f64() * 1e3);
            calls.push(op.call().as_secs_f64() * 1e3);
            late += u64::from(!ok || op.latency() > budget);
        }
    }
    run.wall_s = traffic.elapsed.as_secs_f64();
    run.work = (run.attempted - run.failed) as f64 * edges_per_row;
    run.usage = after.usage.since(&before.usage);
    run.phase = windows.finish(traffic.elapsed);
    lags.sort_by(f64::total_cmp);
    let pooled = run.phase.pooled_sorted();
    let (a, b) = (&after.stats, &before.stats);
    let rows_done = (a.rows - b.rows) as f64;
    let batches = (a.batches - b.batches).max(1) as f64;
    let tail = |v: &[f64], p: f64| {
        if v.is_empty() {
            0.0
        } else {
            nearest_rank(v, p)
        }
    };
    run.layer.extend([
        ("call_ms_p50", median_or_zero(&calls)),
        ("sched_lag_ms_p95", tail(&lags, 95.0)),
        ("lat_p99_ms", tail(&pooled, 99.0)),
        ("lat_max_ms", tail(&pooled, 100.0)),
        ("slo_miss_share", late as f64 / run.attempted.max(1) as f64),
        ("rows_per_batch", rows_done / batches),
        (
            "flush_full_share",
            (a.full_flushes - b.full_flushes) as f64 / batches,
        ),
        ("shed_deadline", (a.shed_deadline - b.shed_deadline) as f64),
        ("shed_overload", (a.shed_overload - b.shed_overload) as f64),
        (
            "cpu_s_per_krow",
            run.usage.cpu_s / (rows_done / 1e3).max(1e-9),
        ),
    ]);
}

/// `ServeStats.rows` at shutdown against the requests this run saw answered.
fn check_rows_served(
    run: &mut Run,
    stats: Result<ServeStats, radix_challenge::ServeError>,
    warm: u64,
) {
    match stats {
        Ok(s) => {
            let answered = run.attempted - run.failed + warm;
            run.check(s.rows == answered, || {
                format!("engine counted {} rows, clients saw {answered}", s.rows)
            });
        }
        Err(e) => run.errors.push(format!("engine shutdown: {e}")),
    }
}

pub struct ServePaced;

pub struct ServeInputs {
    pub rows: DenseMatrix<f32>,
    /// `ChallengeNetwork::forward` of every row, the oracle for replies.
    pub expected: DenseMatrix<f32>,
    pub edges_per_row: f64,
}

impl Workload for ServePaced {
    const NAME: &'static str = "serve_paced";
    type Inputs = ServeInputs;
    type Live = ServeHandle;

    fn inputs(seed: u64) -> ServeInputs {
        let net = ChallengeNetwork::from_config(&serve_config()).expect("preset is a valid spec");
        let rows = sparse_binary_batch(REQUEST_ROWS, net.n_in(), 0.5, seed);
        ServeInputs {
            expected: net.forward(&rows, false),
            edges_per_row: net.total_nnz() as f64,
            rows,
        }
    }

    fn setup(inputs: &ServeInputs) -> ServeHandle {
        let net = ChallengeNetwork::from_config(&serve_config()).expect("preset is a valid spec");
        let handle = ServeEngine::start(net, &serve_engine_config());
        let mut out = Vec::new();
        handle
            .client()
            .infer_into(inputs.rows.row(0), &mut out)
            .expect("warm request");
        assert_eq!(out, inputs.expected.row(0), "warm request's reply");
        handle
    }

    fn teardown(handle: ServeHandle) {
        // Dropping the handle would only detach the engine's thread.
        handle.shutdown().expect("engine shutdown");
    }

    /// Latency here is the batcher's timer, not compute: wall clock.
    fn run(
        inputs: &ServeInputs,
        handle: ServeHandle,
        plan: &Plan,
        _reference: &Reference,
        trace: bool,
    ) -> Run {
        let mut run = Run::default();
        let check = |row: usize, out: &[f32]| out == inputs.expected.row(row);
        let before = Meter::read(&handle);
        let epoch = Instant::now();
        let traffic = drive_traffic(
            &handle.client(),
            CLIENTS,
            &inputs.rows,
            epoch,
            trace.then_some(plan.window),
            check,
            |stop| {
                std::thread::sleep(plan.total().saturating_sub(epoch.elapsed()));
                stop.store(true, Ordering::Relaxed);
            },
        );
        let after = Meter::read(&handle);
        fold_traffic(
            &mut run,
            traffic,
            plan,
            inputs.edges_per_row,
            &before,
            &after,
        );
        run.rates = run.phase.rates();
        run.layer
            .insert("batch_wait_us", handle.batch_wait_us() as f64);
        check_rows_served(&mut run, handle.shutdown(), 1);
        run
    }
}

// --------------------------------------------------------------- train_sparse

pub const TRAIN_SAMPLES: usize = 512;
const TRAIN_LR: f32 = 0.01;
const TRAIN_BATCH: usize = 128;
/// Ops replayed from a fresh set-up after the phase: two runs of one seed
/// must give the same losses bit for bit.
const REPLAY_OPS: usize = 100;

/// 1024 wide, 4 sparse layers of degree 32, 135 k parameters.
pub fn train_spec() -> RadixNetSpec {
    let system = MixedRadixSystem::uniform(32, 2).expect("32^2");
    RadixNetSpec::extended_mixed_radix(vec![system; 2]).expect("two 32x32 systems")
}

pub fn train_network(seed: u64) -> Network {
    let net = train_spec().build();
    Network::from_fnnt(net.fnnt(), Activation::Relu, Init::He, Loss::Mse, seed)
}

pub fn train_config(epochs: usize, seed: u64) -> TrainConfig {
    TrainConfig {
        epochs,
        batch_size: TRAIN_BATCH,
        seed,
        parallel_chunks: 4,
        weight_decay: 1e-4,
        grad_clip: Some(1.0),
        lr_decay: 1.0,
    }
}

/// Forward, backward and weight-gradient each touch every edge once.
pub fn train_edges(samples: usize, net: &Network) -> f64 {
    3.0 * samples as f64 * net.num_params() as f64
}

pub struct TrainInputs {
    pub seed: u64,
    pub x: DenseMatrix<f32>,
    pub y: DenseMatrix<f32>,
}

pub fn train_inputs(seed: u64, samples: usize) -> TrainInputs {
    let width = train_spec().n_prime();
    let (x, y) = Teacher::new(width, 64, width, seed).dataset(samples, seed ^ 0x5851_f42d);
    TrainInputs { seed, x, y }
}

pub struct TrainSparse;

impl TrainSparse {
    /// Op `k` of a run: one epoch over the set, its shuffle seed moving on.
    fn op(inputs: &TrainInputs, net: &mut Network, opt: &mut Optimizer, k: u64) -> f32 {
        let config = train_config(1, inputs.seed.wrapping_add(k));
        train_regressor(net, &inputs.x, &inputs.y, opt, &config).final_loss()
    }
}

impl Workload for TrainSparse {
    const NAME: &'static str = "train_sparse";
    type Inputs = TrainInputs;
    type Live = (Network, Optimizer);

    fn inputs(seed: u64) -> TrainInputs {
        train_inputs(seed, TRAIN_SAMPLES)
    }

    fn setup(inputs: &TrainInputs) -> Self::Live {
        let mut net = train_network(inputs.seed);
        let mut opt = Optimizer::sgd(TRAIN_LR);
        let loss = Self::op(inputs, &mut net, &mut opt, 0);
        assert!(loss.is_finite(), "warm epoch's loss");
        (net, opt)
    }

    fn run(
        inputs: &TrainInputs,
        (mut net, mut opt): Self::Live,
        plan: &Plan,
        reference: &Reference,
        trace: bool,
    ) -> Run {
        let work = train_edges(inputs.x.nrows(), &net);
        let mut run = Run::default();
        let mut losses: Vec<f32> = Vec::new();
        let mut scaler = Scaler::new(reference);
        let (epoch, before) = (Instant::now(), usage());
        let mut spans = Spans::new(false, epoch, 0);
        let mut windows = Windower::new(plan.window, plan.discard, Clock::Calls);
        while epoch.elapsed() < plan.total() {
            let (op, at) = (run.attempted, epoch.elapsed());
            spans.enable(trace && traced_window(windows.index(at)));
            let root = spans.begin("op", None, op);
            let start = Instant::now();
            let loss = spans.within("radix_nn.train_regressor", root, op, || {
                Self::op(inputs, &mut net, &mut opt, op + 1)
            });
            let wall = start.elapsed();
            spans.end(root);
            let scaled = spans.within("harness.reference", None, op, || scaler.scale(wall));
            run.attempted += 1;
            run.failed += u64::from(!loss.is_finite());
            losses.push(loss);
            windows.record(at, scaled, scaled, work);
        }
        run.stop_clock(epoch, &before);
        run.phase = windows.finish(epoch.elapsed());
        run.rates = run.phase.rates();
        run.spans = spans.into_vec();
        run.work = work * run.attempted as f64;
        run.off_the_reference_clock(scaler);

        let quarter = (losses.len() / 4).max(1);
        let mean = |v: &[f32]| v.iter().sum::<f32>() / v.len() as f32;
        let (first, last) = (
            mean(&losses[..quarter]),
            mean(&losses[losses.len() - quarter..]),
        );
        run.check(losses.len() < 2 || last < first, || {
            format!("loss did not fall: first quarter {first}, last quarter {last}")
        });

        let (mut net2, mut opt2) = Self::setup(inputs);
        let replayed = losses
            .iter()
            .take(REPLAY_OPS)
            .zip(1..)
            .position(|(seen, k)| {
                Self::op(inputs, &mut net2, &mut opt2, k).to_bits() != seen.to_bits()
            });
        run.check(replayed.is_none(), || {
            format!("op {replayed:?} gave another loss when replayed")
        });
        // For comparing two processes (aa.sh does): FNV-1a over the same losses.
        let digest = losses
            .iter()
            .take(REPLAY_OPS)
            .fold(0xcbf2_9ce4_8422_2325u64, |h, l| {
                (h ^ u64::from(l.to_bits())).wrapping_mul(0x0100_0000_01b3)
            });
        run.notes.push(format!(
            "loss_digest {digest:016x} over the first {} ops",
            losses.len().min(REPLAY_OPS)
        ));
        run
    }
}

// --------------------------------------------------------------- online_mixed

pub const ONLINE_SAMPLES: usize = 2048;
/// A checkpoint, and so a publication into the live engine, every 4 steps:
/// four per epoch of 16 batches, some twelve a second. A request that meets
/// a reload, or finds both cores training, waits 1 to 5 ms longer; this
/// often, that is 12 to 17 % of the requests, so the 95th percentile lies
/// well inside the slow kind. At every 8 steps the share was 6 to 11 %, the
/// percentile sat on the edge between the two kinds, and it did not repeat.
const PUBLISH_EVERY: usize = 4;
const BATCHES_PER_EPOCH: usize = ONLINE_SAMPLES / TRAIN_BATCH;
/// Epochs per `fine_tune_regressor` call. Each call resumes from the last
/// generation on disk and trains this many more, so the phase can stop
/// on the clock and training throughput gets one sample per call.
const ROUND_EPOCHS: usize = 3;

const ONLINE_YMAX: f32 = 32.0;

pub fn online_config(train: TrainConfig) -> OnlineConfig {
    OnlineConfig {
        serve: serve_engine_config(),
        bias: 0.0,
        ymax: ONLINE_YMAX,
        train,
        publish_every: PUBLISH_EVERY,
        keep: 2,
        publish_poll: Duration::from_millis(2),
        ..OnlineConfig::default()
    }
}

pub struct OnlineLive {
    net: Network,
    opt: Optimizer,
    session: Option<OnlineSession>,
    ckpt_dir: PathBuf,
}

impl OnlineLive {
    pub fn handle(&self) -> &ServeHandle {
        self.session.as_ref().expect("a live session").handle()
    }
}

impl Drop for OnlineLive {
    fn drop(&mut self) {
        if let Some(s) = self.session.take() {
            let _ = s.finish();
        }
        let _ = std::fs::remove_dir_all(&self.ckpt_dir);
    }
}

/// A reply of the live engine: the right width, finite, inside the clamp.
fn online_reply_ok(out: &[f32], n_out: usize) -> bool {
    out.len() == n_out && out.iter().all(|v| (0.0..=ONLINE_YMAX).contains(v))
}

pub struct OnlineMixed;

impl Workload for OnlineMixed {
    const NAME: &'static str = "online_mixed";
    type Inputs = TrainInputs;
    type Live = OnlineLive;

    fn inputs(seed: u64) -> TrainInputs {
        train_inputs(seed, ONLINE_SAMPLES)
    }

    fn setup(inputs: &TrainInputs) -> OnlineLive {
        static NEXT_DIR: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let ckpt_dir = PathBuf::from(format!("ckpt-{}", NEXT_DIR.fetch_add(1, Ordering::Relaxed)));
        let net = train_network(inputs.seed);
        let config = online_config(train_config(0, inputs.seed));
        let session = OnlineSession::start(&net, &config, &ckpt_dir).expect("sparse network");
        let mut out = Vec::new();
        session
            .client()
            .infer_into(inputs.x.row(0), &mut out)
            .expect("warm request");
        assert!(online_reply_ok(&out, net.n_out()), "warm request's reply");
        OnlineLive {
            net,
            opt: Optimizer::sgd(TRAIN_LR),
            session: Some(session),
            ckpt_dir,
        }
    }

    /// Served requests on the wall clock (the batcher's timer again),
    /// training rounds on the reference clock.
    fn run(
        inputs: &TrainInputs,
        live: OnlineLive,
        plan: &Plan,
        reference: &Reference,
        trace: bool,
    ) -> Run {
        Self::phase(inputs, live, plan, reference, trace, CLIENTS)
    }
}

impl OnlineMixed {
    /// The timed phase with `clients` traffic threads; none gives the
    /// training rate with the engine idle, for `train_share`.
    pub fn phase(
        inputs: &TrainInputs,
        mut live: OnlineLive,
        plan: &Plan,
        reference: &Reference,
        trace: bool,
        clients: usize,
    ) -> Run {
        let mut run = Run::default();
        let mut scaler = Scaler::new(reference);
        let mut session = live.session.take().expect("a live session");
        let (n_out, params) = (live.net.n_out(), live.net.num_params() as f64);
        let round_work = train_edges(ROUND_EPOCHS * inputs.x.nrows(), &live.net);
        // The engine is asked for the first REQUEST_ROWS samples over and over.
        let rows = DenseMatrix::from_vec(
            REQUEST_ROWS,
            inputs.x.ncols(),
            inputs.x.as_slice()[..REQUEST_ROWS * inputs.x.ncols()].to_vec(),
        )
        .expect("row-major rows");
        let check = |_row: usize, out: &[f32]| online_reply_ok(out, n_out);

        let epoch = Instant::now();
        let mut spans = Spans::new(trace, epoch, 0);
        let mut rounds: Vec<(Duration, f64)> = Vec::new();
        let (mut published, mut publish_errors, mut restarts) = (0u64, 0u64, 0u64);
        let before = Meter::read(session.handle());
        let client = session.client();
        // Training rounds on this thread until the clock runs out; the
        // clients keep their schedule until the last round ends.
        let train = |stop: &AtomicBool| {
            for k in 1.. {
                if epoch.elapsed() >= plan.total() {
                    break;
                }
                let config = online_config(train_config(k * ROUND_EPOCHS, inputs.seed));
                let start = epoch.elapsed();
                let name = "radix_challenge.online.fine_tune_regressor";
                let report = spans.within(name, None, k as u64, || {
                    session.fine_tune_regressor(
                        &mut live.net,
                        &inputs.x,
                        &inputs.y,
                        &mut live.opt,
                        &config,
                    )
                });
                let scaled = scaler.scale(epoch.elapsed() - start);
                rounds.push((start, round_work / scaled.as_secs_f64()));
                match report {
                    Ok(r) => {
                        // Every new generation must reach the engine; a
                        // round after the first may also republish the one
                        // it resumed from.
                        let want = (ROUND_EPOCHS * BATCHES_PER_EPOCH / PUBLISH_EVERY) as u64;
                        let got = r.publish.published;
                        let finite = r.history.losses.iter().all(|l| l.is_finite());
                        let clean = r.publish.errors == 0 && r.restarts == 0 && finite;
                        if !clean || got < want || got > want + 1 {
                            run.errors.push(format!(
                                "round {k}: published {got} of {want}, {} publish errors, \
                                 {} restarts, losses finite: {finite}",
                                r.publish.errors, r.restarts
                            ));
                        }
                        published += got;
                        publish_errors += r.publish.errors;
                        restarts += u64::from(r.restarts);
                    }
                    Err(e) => run.errors.push(format!("round {k}: {e}")),
                }
            }
            stop.store(true, Ordering::Relaxed);
        };
        let traced = trace.then_some(plan.window);
        let traffic = drive_traffic(&client, clients, &rows, epoch, traced, check, train);
        let after = Meter::read(session.handle());
        fold_traffic(&mut run, traffic, plan, params, &before, &after);
        run.spans.extend(spans.into_vec());
        // The rounds that started after warm-up; on a phase too short to
        // have one, the last round.
        let warm_up = plan.window * plan.discard as u32;
        run.rates = rounds
            .iter()
            .filter_map(|(start, rate)| (*start >= warm_up).then_some(*rate))
            .collect();
        if run.rates.is_empty() {
            run.rates.extend(rounds.last().map(|(_, rate)| *rate));
        }
        run.layer.extend([
            ("published", published as f64),
            ("publish_errors", publish_errors as f64),
            ("restarts", restarts as f64),
            ("train_samples_per_s", run.edges_per_s() / (3.0 * params)),
        ]);
        run.notes.push(format!(
            "{} training rounds of {ROUND_EPOCHS} epochs measured, {published} generations published",
            run.rates.len()
        ));
        check_rows_served(&mut run, session.finish(), 1);
        run.work = round_work * rounds.len() as f64;
        run.off_the_reference_clock(scaler);
        run
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: Duration = Duration::from_millis(1);

    fn open_loop(stop: &AtomicBool) -> OpenLoop<'_> {
        OpenLoop {
            epoch: Instant::now(),
            stop,
            n_rows: REQUEST_ROWS,
            traced: None,
        }
    }

    #[test]
    fn a_stalled_reply_lengthens_the_next_request_and_the_lag_says_so() {
        // Every 20 ms; a call takes 2 ms, but call 3 stalls for 45 ms.
        let stop = AtomicBool::new(false);
        let mut calls = 0;
        let send = |_row: usize, _out: &mut Vec<f32>| {
            std::thread::sleep(if calls == 3 { MS * 45 } else { MS * 2 });
            calls += 1;
            stop.store(calls == 8, Ordering::Relaxed);
            true
        };
        let ops = open_loop(&stop).client(0, &mut Spans::off(), send, |_, _| true);
        let ops: Vec<OpenOp> = ops.into_iter().map(|(op, _)| op).collect();
        assert_eq!(ops.len(), 8);
        for (i, op) in ops.iter().enumerate() {
            assert_eq!(op.due, CLIENT_INTERVAL * i as u32, "an absolute schedule");
        }
        // Only what a busy test machine cannot break is asserted: delays
        // lengthen, they never shorten.
        assert!(ops[2].latency() < ops[3].latency() && ops[3].latency() >= MS * 45);
        // Request 4 was due at 80 ms but could not go before 105 ms: its
        // call was quick, yet its user waited for the stall, and the lag
        // reports how late the generator ran.
        assert!(ops[4].sched_lag() >= MS * 25, "{:?}", ops[4]);
        assert_eq!(ops[4].latency(), ops[4].sched_lag() + ops[4].call());
        assert!(ops[4].call() >= MS * 2);
        // Request 5 still queues behind it; by request 7 the loop has
        // caught up with its schedule.
        assert!(ops[5].sched_lag() >= MS * 5);
        assert!(ops[7].sched_lag() < ops[4].sched_lag(), "{:?}", ops[7]);
    }

    #[test]
    fn one_wrong_reply_makes_the_run_incorrect() {
        let expected = sparse_binary_batch(REQUEST_ROWS, 16, 0.5, 7);
        let stop = AtomicBool::new(false);
        let send = |row: usize, out: &mut Vec<f32>| {
            out.clear();
            out.extend_from_slice(expected.row(row));
            if row == 2 {
                out[5] = f32::from_bits(out[5].to_bits() ^ 1);
            }
            stop.store(row == 8, Ordering::Relaxed);
            true
        };
        let check = |row: usize, out: &[f32]| out == expected.row(row);
        let open = open_loop(&stop);
        let ops = open.client(0, &mut Spans::off(), send, check);
        let traffic = Traffic {
            per_client: vec![(ops, Vec::new())],
            elapsed: open.epoch.elapsed(),
        };
        let plan = Plan {
            window: CLIENT_INTERVAL * 5,
            discard: 0,
            measured: 1,
        };
        let idle = || Meter {
            stats: ServeStats::default(),
            usage: Usage::default(),
        };
        let mut run = Run::default();
        fold_traffic(&mut run, traffic, &plan, 1.0, &idle(), &idle());
        assert_eq!((run.attempted, run.failed), (5, 1));
        assert!(!run.correct(), "the command exits nonzero on this");
        assert!(run.layer["slo_miss_share"] >= 0.2);
    }
}
