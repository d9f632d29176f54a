//! Serving-latency benchmark → `serve_*` points for `BENCH_kernels.json`.
//!
//! Measures the async serving engine (`radix_challenge::serve`) as a live
//! system, not a kernel: a closed-loop throughput point (twice as many
//! concurrent clients as the micro-batch holds rows, submitting
//! back-to-back, so a full block is always queued behind the one
//! executing), then p50/p99 response latency at three offered loads —
//! 10%, 30%, and 60% of the measured closed-loop capacity, each the
//! minimum over three 1000-sample windows. Relative loads
//! keep the points meaningful across machines: 150 rows/s is "low load"
//! on the 1-core container and on a fast runner alike.
//!
//! The emitted JSON is the same line-oriented single-run shape as
//! `bench_kernels` (a `"threads"` key, one config, a `kernels` array), so
//! `bench_baseline` merges it point-wise into the committed baseline and
//! `bench_gate` diffs it — `seconds_per_iter` carries the latency
//! percentile (or seconds-per-row for the closed-loop point), and
//! `edges_per_sec` the corresponding edge throughput of the offered load.
//! Latency points are thread-keyed like the pool kernels (blocks execute
//! on the worker pool) and gate under the wider
//! `RADIX_BENCH_SERVE_TOLERANCE`; only the `serve_p99_*` tail points gate.
//!
//! After the latency loads, an **overload phase** measures graceful
//! degradation: a deliberately slowed engine (injected compute delay of a
//! quarter of the budget, so block cost is commensurate with the
//! deadline) takes 150% of its own closed-loop capacity through
//! `infer_within`. The accepted-request p99 gates as
//! `serve_shed_p99_rel150`; the shed fraction rides along report-only as
//! `serve_shed_rate_rel150` (its `seconds_per_iter` carries the
//! dimensionless shed rate).
//!
//! A final **train-while-serve phase** measures the scheduler sharing
//! story: an `OnlineSession` serves a trainable sparse net while
//! checkpointed fine-tuning runs on the same worker pool, publishing
//! committed checkpoints into the live engine. Accepted-request p99
//! under live training gates as `serve_p99_train_rel30` (offered load =
//! 30% of that engine's own closed-loop capacity); the during-training
//! shed fraction rides along as `serve_train_shed_rate_rel30`.
//!
//! The run also **enforces the serving acceptance criteria**: at the low
//! (10%) load, p99 must come in at or under the configured end-to-end
//! deadline budget, and in the overload phase the accepted p99 must stay
//! inside the budget while a non-zero share of the excess is shed typed
//! (`Overloaded` / `DeadlineExceeded`) — exit code 1 otherwise.
//!
//! Invocation (see `make bench-serve`):
//!
//! ```text
//! cargo run --release -p radix-bench --bin bench_serve
//! ```
//!
//! Environment:
//! * `RADIX_BENCH_QUICK=1` — fewer samples per point (CI smoke/gate),
//! * `RADIX_BENCH_OUT` — output path (default
//!   `target/BENCH_serve_fresh.json`),
//! * `RADIX_SERVE_DEADLINE_US` — end-to-end latency budget the engine is
//!   configured with; also the p99 acceptance bound. The bench defaults
//!   it to 20000 (2× the engine default): on shared CI runners and 1-core
//!   containers, absolute scheduler jitter of several milliseconds is
//!   routine.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use radix_bench::{format_json_f64, percentile};
use radix_challenge::{
    ChallengeNetwork, FaultInjector, FaultPlan, OnlineConfig, OnlineSession, ServeConfig,
    ServeEngine, ServeError, ServeHandle,
};
use radix_nn::{
    Activation, Layer, Loss, Network, Optimizer, SparseLinear, TrainConfig, TrainRestartPolicy,
};
use radix_sparse::{CsrMatrix, CyclicShift, DenseMatrix};

/// The pinned serving config: `n=4096, deg=16` × 2 layers (one of the two
/// kernel acceptance configs), 8-row micro-batches.
const N: usize = 4096;
const DEGREE: usize = 16;
const MAX_BATCH: usize = 8;

/// Back-to-back callers of every closed-loop capacity measurement. With
/// exactly `MAX_BATCH` of them a work-conserving engine de-synchronises
/// the callers into alternating short blocks and the point reads
/// coalescing luck; with twice that, a full block is always waiting when
/// one finishes, so the point reads the saturated engine — which is also
/// what keeps 150 % of it a real overload in the shed phase.
const CLOSED_CLIENTS: usize = 2 * MAX_BATCH;

/// Offered loads as percent of measured closed-loop capacity.
const REL_LOADS: [usize; 3] = [10, 30, 60];

/// Offered load of the overload phase, percent of the *slowed* engine's
/// measured closed-loop capacity.
const SHED_REL: usize = 150;

fn layer(n: usize, degree: usize) -> CsrMatrix<f32> {
    CyclicShift::radix_submatrix::<u64>(n, degree, 1).map(|_| 1.0 / degree as f32)
}

/// Deterministic dense request rows (same generator as `bench_kernels`).
fn request_rows(rows: usize, cols: usize) -> DenseMatrix<f32> {
    let mut m = DenseMatrix::zeros(rows, cols);
    for i in 0..rows {
        let r: &mut [f32] = m.row_mut(i);
        for (j, v) in r.iter_mut().enumerate() {
            *v = ((i * 31 + j * 17) % 13) as f32 * 0.07;
        }
    }
    m
}

/// Closed-loop throughput: `clients` threads submit `per_client` rows
/// back-to-back; returns rows/second.
fn closed_loop(
    handle: &ServeHandle,
    x: &DenseMatrix<f32>,
    clients: usize,
    per_client: usize,
) -> f64 {
    let start_line = Barrier::new(clients + 1);
    let mut elapsed = Duration::ZERO;
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let client = handle.client();
                let start_line = &start_line;
                s.spawn(move || {
                    let mut out = Vec::new();
                    // Per-thread warm-up: lazy parking state, output capacity.
                    for i in 0..4 {
                        client
                            .infer_into(x.row((c + i) % x.nrows()), &mut out)
                            .unwrap();
                    }
                    start_line.wait();
                    for i in 0..per_client {
                        client
                            .infer_into(x.row((c + i) % x.nrows()), &mut out)
                            .unwrap();
                    }
                })
            })
            .collect();
        start_line.wait();
        let t = Instant::now();
        for h in handles {
            h.join().expect("closed-loop client panicked");
        }
        elapsed = t.elapsed();
    });
    (clients * per_client) as f64 / elapsed.as_secs_f64().max(1e-9)
}

/// Paced open-ish loop at `offered` rows/second across `threads`
/// submitters (each pacing at `offered / threads`); returns every
/// response latency in seconds.
fn latency_at(
    handle: &ServeHandle,
    x: &DenseMatrix<f32>,
    threads: usize,
    per_thread: usize,
    offered: f64,
) -> Vec<f64> {
    let interval = Duration::from_secs_f64(threads as f64 / offered.max(1e-9));
    let start_line = Barrier::new(threads);
    let mut all = Vec::with_capacity(threads * per_thread);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|c| {
                let client = handle.client();
                let start_line = &start_line;
                s.spawn(move || {
                    let mut out = Vec::new();
                    let mut latencies = Vec::with_capacity(per_thread);
                    for i in 0..2 {
                        client
                            .infer_into(x.row((c + i) % x.nrows()), &mut out)
                            .unwrap();
                    }
                    start_line.wait();
                    // Pace against an absolute schedule so one slow
                    // response does not shift every later arrival.
                    let t0 = Instant::now();
                    for i in 0..per_thread {
                        let due = interval * i as u32;
                        if let Some(wait) = due.checked_sub(t0.elapsed()) {
                            std::thread::sleep(wait);
                        }
                        let t = Instant::now();
                        client
                            .infer_into(x.row((c + i) % x.nrows()), &mut out)
                            .unwrap();
                        latencies.push(t.elapsed().as_secs_f64());
                    }
                    latencies
                })
            })
            .collect();
        for h in handles {
            all.extend(h.join().expect("latency client panicked"));
        }
    });
    all
}

/// Outcome tally of the overload phase: latencies of the requests the
/// engine accepted and served, and the count it shed (typed
/// `Overloaded` / `DeadlineExceeded`).
struct ShedRun {
    accepted: Vec<f64>,
    shed: usize,
    elapsed: Duration,
}

/// Paced overload loop: `threads` submitters offer `offered` rows/second
/// in aggregate through `infer_within(timeout)`. Excess load must come
/// back as a typed shed, never as a late response and never as a hang —
/// any other error fails the bench.
fn shed_at(
    handle: &ServeHandle,
    x: &DenseMatrix<f32>,
    threads: usize,
    per_thread: usize,
    offered: f64,
    timeout: Duration,
) -> ShedRun {
    let interval = Duration::from_secs_f64(threads as f64 / offered.max(1e-9));
    let start_line = Barrier::new(threads + 1);
    let mut accepted = Vec::with_capacity(threads * per_thread);
    let mut shed = 0usize;
    let mut elapsed = Duration::ZERO;
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|c| {
                let client = handle.client();
                let start_line = &start_line;
                s.spawn(move || {
                    let mut out = Vec::new();
                    let mut latencies = Vec::with_capacity(per_thread);
                    let mut shed = 0usize;
                    // Per-thread warm-up (blocking, unbounded): lazy
                    // parking state and output capacity, off the clock.
                    client.infer_into(x.row(c % x.nrows()), &mut out).unwrap();
                    start_line.wait();
                    let t0 = Instant::now();
                    for i in 0..per_thread {
                        let due = interval * i as u32;
                        if let Some(wait) = due.checked_sub(t0.elapsed()) {
                            std::thread::sleep(wait);
                        }
                        let t = Instant::now();
                        match client.infer_within_into(
                            x.row((c + i) % x.nrows()),
                            &mut out,
                            timeout,
                        ) {
                            Ok(()) => latencies.push(t.elapsed().as_secs_f64()),
                            Err(ServeError::Overloaded | ServeError::DeadlineExceeded) => shed += 1,
                            Err(e) => panic!("overload phase hit a non-shed error: {e}"),
                        }
                    }
                    (latencies, shed)
                })
            })
            .collect();
        start_line.wait();
        let t = Instant::now();
        for h in handles {
            let (lat, sh) = h.join().expect("shed client panicked");
            accepted.extend(lat);
            shed += sh;
        }
        elapsed = t.elapsed();
    });
    ShedRun {
        accepted,
        shed,
        elapsed,
    }
}

fn main() {
    let quick = std::env::var("RADIX_BENCH_QUICK").is_ok_and(|v| v == "1");
    let out_path = std::env::var("RADIX_BENCH_OUT")
        .unwrap_or_else(|_| "target/BENCH_serve_fresh.json".to_string());

    let w = layer(N, DEGREE);
    let net = ChallengeNetwork::from_layers(vec![w.clone(), w], -0.3, 32.0);
    let edges_per_row = net.total_nnz() as f64;
    let x = request_rows(MAX_BATCH * 2, net.n_in());

    let config = ServeConfig {
        max_batch: MAX_BATCH,
        deadline_us: radix_sparse::kernel::env_usize("RADIX_SERVE_DEADLINE_US", 20_000) as u64,
        slots: 4 * MAX_BATCH,
        queue: 4 * MAX_BATCH,
        parallel: true,
    };
    let handle = ServeEngine::start(net.clone(), &config);
    eprintln!(
        "bench_serve: n={N} deg={DEGREE} max_batch={MAX_BATCH} deadline={}us threads={} \
         quick={quick}",
        config.deadline_us,
        rayon::current_num_threads(),
    );

    // Closed-loop capacity first: the relative load points hang off it.
    let per_client = if quick { 20 } else { 100 };
    let capacity = closed_loop(&handle, &x, CLOSED_CLIENTS, per_client);
    println!(
        "{:>22}  {:>10.1} rows/s  {:>12.3e} edges/s  ({CLOSED_CLIENTS} clients closed loop)",
        "serve_row_closed_loop",
        capacity,
        capacity * edges_per_row
    );

    struct ServePoint {
        name: String,
        seconds: f64,
        edges_per_sec: f64,
    }
    let mut points = vec![ServePoint {
        name: "serve_row_closed_loop".to_string(),
        seconds: 1.0 / capacity.max(1e-9),
        edges_per_sec: capacity * edges_per_row,
    }];

    // Latency vs offered load, low to high. A served row costs well
    // under a millisecond, so each percentile is the minimum over three
    // windows of 1000 samples (ten beyond the p99), in quick mode too:
    // the tail of a sub-millisecond response on a shared box is the
    // co-tenants' unless some window ran undisturbed — the same one-sided
    // noise the kernel points take a minimum over.
    const WINDOWS: usize = 3;
    let (lat_threads, per_thread) = (4, 250);
    let mut low_load_p99 = f64::INFINITY;
    for rel in REL_LOADS {
        let offered = capacity * rel as f64 / 100.0;
        let (mut p50, mut p99) = (f64::INFINITY, f64::INFINITY);
        for _ in 0..WINDOWS {
            let samples = latency_at(&handle, &x, lat_threads, per_thread, offered);
            p50 = p50.min(percentile(&samples, 0.50));
            p99 = p99.min(percentile(&samples, 0.99));
        }
        if rel == REL_LOADS[0] {
            low_load_p99 = p99;
        }
        println!(
            "{:>22}  p50 {:>9.3} ms  p99 {:>9.3} ms  ({:>8.1} rows/s offered, best of {WINDOWS} x {} samples)",
            format!("serve_rel{rel}"),
            p50 * 1e3,
            p99 * 1e3,
            offered,
            lat_threads * per_thread
        );
        points.push(ServePoint {
            name: format!("serve_p50_rel{rel}"),
            seconds: p50,
            edges_per_sec: offered * edges_per_row,
        });
        points.push(ServePoint {
            name: format!("serve_p99_rel{rel}"),
            seconds: p99,
            edges_per_sec: offered * edges_per_row,
        });
    }

    let stats = handle
        .shutdown()
        .expect("serve engine panicked during bench");
    println!(
        "serve stats: {} rows in {} batches (max {} rows; {} full / {} deadline flushes)",
        stats.rows, stats.batches, stats.max_rows, stats.full_flushes, stats.deadline_flushes
    );

    // Overload phase: a deliberately slowed engine (injected compute
    // delay of a quarter of the budget) makes 150% of closed-loop
    // capacity a *real* overload at laptop scale — block cost is
    // commensurate with the deadline, so excess demand has to be shed.
    // The fast engine above never gets there: its blocks cost far less
    // than the budget, and bounded client concurrency can't queue enough
    // work to threaten any deadline.
    let shed_delay_us = config.deadline_us / 4;
    let shed_config = ServeConfig {
        max_batch: MAX_BATCH,
        deadline_us: config.deadline_us,
        // Deep slot pool: admission must be decided by the deadline
        // predictor, not by running out of slots.
        slots: 8 * MAX_BATCH,
        queue: 8 * MAX_BATCH,
        parallel: true,
    };
    let shed_handle = ServeEngine::start_with_faults(
        net,
        &shed_config,
        FaultInjector::new(FaultPlan {
            compute_delay_us: shed_delay_us,
            ..FaultPlan::default()
        }),
    );
    let shed_per_client = if quick { 5 } else { 12 };
    let shed_capacity = closed_loop(&shed_handle, &x, CLOSED_CLIENTS, shed_per_client);
    let shed_offered = shed_capacity * SHED_REL as f64 / 100.0;
    // Per-request deadline at 80% of the budget: the engine guarantees
    // accepted work completes by *its* deadline, and the remaining 20%
    // absorbs wake-up and scheduler jitter before the p99-vs-budget gate.
    let shed_timeout = Duration::from_micros(config.deadline_us * 4 / 5);
    let (shed_threads, shed_per_thread) = if quick { (32, 20) } else { (32, 40) };
    let run = shed_at(
        &shed_handle,
        &x,
        shed_threads,
        shed_per_thread,
        shed_offered,
        shed_timeout,
    );
    let shed_stats = shed_handle
        .shutdown()
        .expect("slowed serve engine panicked during bench");
    let submitted = shed_threads * shed_per_thread;
    let shed_rate = run.shed as f64 / submitted as f64;
    let shed_p99 = percentile(&run.accepted, 0.99);
    let accepted_per_sec = run.accepted.len() as f64 / run.elapsed.as_secs_f64().max(1e-9);
    println!(
        "{:>22}  p99 {:>9.3} ms  shed {:>5.1}%  ({:>8.1} rows/s offered, {} accepted / {} shed)",
        format!("serve_shed_rel{SHED_REL}"),
        shed_p99 * 1e3,
        shed_rate * 100.0,
        shed_offered,
        run.accepted.len(),
        run.shed,
    );
    println!(
        "shed engine stats: {} rows served, {} shed at deadline, {} shed at admission",
        shed_stats.rows, shed_stats.shed_deadline, shed_stats.shed_overload
    );
    points.push(ServePoint {
        name: format!("serve_shed_p99_rel{SHED_REL}"),
        seconds: shed_p99,
        edges_per_sec: accepted_per_sec * edges_per_row,
    });
    // Report-only companion point: seconds_per_iter carries the shed
    // *fraction* (dimensionless) so overload behavior shows up in the
    // gate log next to the tail it protects.
    points.push(ServePoint {
        name: format!("serve_shed_rate_rel{SHED_REL}"),
        seconds: shed_rate,
        edges_per_sec: shed_offered * edges_per_row,
    });

    // Train-while-serve phase: an OnlineSession serves a trainable
    // sparse net while checkpointed fine-tuning runs on the submitter
    // thread of the *same* worker pool (serve flushes ride the
    // scheduler's high-priority lane) and publishes every committed
    // checkpoint into the engine. The accepted-request p99 measured
    // while training is live gates as `serve_p99_train_rel30`; the
    // during-training shed fraction rides along report-only.
    const TRAIN_N: usize = 256;
    const TRAIN_DEG: usize = 8;
    const TRAIN_LAYERS: usize = 3;
    let train_net_layers = (0..TRAIN_LAYERS)
        .map(|l| {
            let w =
                CyclicShift::radix_submatrix::<u64>(TRAIN_N, TRAIN_DEG, TRAIN_DEG.pow(l as u32))
                    .map(|_| 1.0 / TRAIN_DEG as f32);
            Layer::Sparse(SparseLinear::new(w, Activation::Relu))
        })
        .collect();
    let mut train_net = Network::new(train_net_layers, Loss::Mse);
    let train_edges_per_row = (TRAIN_N * TRAIN_DEG * TRAIN_LAYERS) as f64;
    let tx = request_rows(2048, TRAIN_N);
    let mut ty = DenseMatrix::zeros(tx.nrows(), TRAIN_N);
    for i in 0..tx.nrows() {
        for j in 0..TRAIN_N {
            ty.set(i, j, 0.5 * tx.get(i, j));
        }
    }
    let online_cfg = OnlineConfig {
        serve: ServeConfig {
            max_batch: MAX_BATCH,
            deadline_us: config.deadline_us,
            slots: 4 * MAX_BATCH,
            queue: 4 * MAX_BATCH,
            parallel: true,
        },
        bias: -0.3,
        ymax: 32.0,
        train: TrainConfig {
            epochs: if quick { 4 } else { 16 },
            batch_size: 128,
            seed: 7,
            parallel_chunks: 4,
            weight_decay: 1e-3,
            grad_clip: Some(1.0),
            ..TrainConfig::default()
        },
        publish_every: 4,
        keep: 2,
        restarts: TrainRestartPolicy::default(),
        publish_poll: Duration::from_millis(2),
    };
    let ckpt_dir = std::path::PathBuf::from("target/bench-online-ckpts");
    let _ = std::fs::remove_dir_all(&ckpt_dir);
    let mut session = OnlineSession::start(&train_net, &online_cfg, &ckpt_dir)
        .expect("sparse training net must start serving");
    let ox = request_rows(MAX_BATCH * 2, TRAIN_N);
    let online_capacity = closed_loop(
        session.handle(),
        &ox,
        CLOSED_CLIENTS,
        if quick { 20 } else { 60 },
    );
    let train_offered = online_capacity * 0.30;
    let min_per_thread = if quick { 20 } else { 50 };
    let mut opt = Optimizer::sgd(0.01);
    let stop = AtomicBool::new(false);
    let train_clients: Vec<_> = (0..lat_threads).map(|_| session.client()).collect();
    let t_train = Instant::now();
    let (train_report, train_samples, train_shed) = std::thread::scope(|s| {
        let stop = &stop;
        let ox = &ox;
        let traffic: Vec<_> = train_clients
            .into_iter()
            .enumerate()
            .map(|(c, client)| {
                s.spawn(move || {
                    let interval =
                        Duration::from_secs_f64(lat_threads as f64 / train_offered.max(1e-9));
                    let mut out = Vec::new();
                    let mut lat = Vec::with_capacity(min_per_thread * 2);
                    let mut shed = 0u64;
                    for i in 0..2 {
                        let _ = client.infer_into(ox.row((c + i) % ox.nrows()), &mut out);
                    }
                    let t0 = Instant::now() + interval.mul_f64(c as f64 / lat_threads as f64);
                    let mut k = 0u32;
                    // Paced open-ish loop until training finishes (with a
                    // floor of samples so quick runs still gate on real
                    // data — the floor's tail may land just after
                    // training completes).
                    while !stop.load(Ordering::Acquire) || lat.len() < min_per_thread {
                        let target = t0 + interval.mul_f64(f64::from(k));
                        let now = Instant::now();
                        if now < target {
                            std::thread::sleep(target - now);
                        }
                        let t = Instant::now();
                        match client.infer_into(ox.row((k as usize + c) % ox.nrows()), &mut out) {
                            Ok(()) => lat.push(t.elapsed().as_secs_f64()),
                            Err(_) => shed += 1,
                        }
                        k += 1;
                    }
                    (lat, shed)
                })
            })
            .collect();
        let report = session
            .fine_tune_regressor(&mut train_net, &tx, &ty, &mut opt, &online_cfg)
            .expect("bench fine-tune must succeed");
        stop.store(true, Ordering::Release);
        let mut samples = Vec::new();
        let mut shed = 0u64;
        for h in traffic {
            let (l, sh) = h.join().expect("train-traffic client panicked");
            samples.extend(l);
            shed += sh;
        }
        (report, samples, shed)
    });
    let train_elapsed = t_train.elapsed();
    let train_p99 = percentile(&train_samples, 0.99);
    let train_shed_rate = train_shed as f64 / (train_samples.len() as u64 + train_shed) as f64;
    println!(
        "{:>22}  p99 {:>9.3} ms  shed {:>5.1}%  ({:>8.1} rows/s offered, {} samples)",
        "serve_train_rel30",
        train_p99 * 1e3,
        train_shed_rate * 100.0,
        train_offered,
        train_samples.len()
    );
    println!(
        "train-while-serve: {} epochs in {:.2}s, {} generations published ({} reload errors), \
         {} restarts",
        online_cfg.train.epochs,
        train_elapsed.as_secs_f64(),
        train_report.publish.published,
        train_report.publish.errors,
        train_report.restarts,
    );
    let train_stats = session
        .finish()
        .expect("online serve engine panicked during bench");
    println!(
        "online engine stats: {} rows in {} batches ({} deadline sheds, {} overload sheds)",
        train_stats.rows, train_stats.batches, train_stats.shed_deadline, train_stats.shed_overload
    );
    points.push(ServePoint {
        name: "serve_p99_train_rel30".to_string(),
        seconds: train_p99,
        edges_per_sec: train_offered * train_edges_per_row,
    });
    points.push(ServePoint {
        name: "serve_train_shed_rate_rel30".to_string(),
        seconds: train_shed_rate,
        edges_per_sec: train_offered * train_edges_per_row,
    });

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"schema\": \"radix-bench-serve/v1\",");
    let _ = writeln!(json, "  \"quick\": {quick},");
    let _ = writeln!(json, "  \"threads\": {},", rayon::current_num_threads());
    let _ = writeln!(json, "  \"deadline_us\": {},", config.deadline_us);
    json.push_str(
        "  \"note\": \"serving-engine latency points: seconds_per_iter is a response-latency \
         percentile (or seconds/row for the closed-loop point) and edges_per_sec the offered \
         edge throughput; merged into BENCH_kernels.json by `make bench-baseline`\",\n",
    );
    json.push_str("  \"configs\": [\n    {\n");
    let _ = writeln!(
        json,
        "      \"name\": \"serve_n{N}_deg{DEGREE}_b{MAX_BATCH}\","
    );
    let _ = writeln!(json, "      \"kernels\": [");
    for (ki, p) in points.iter().enumerate() {
        let _ = writeln!(
            json,
            "        {{\"name\": \"{}\", \"seconds_per_iter\": {}, \"edges_per_sec\": {}}}{}",
            p.name,
            format_json_f64(p.seconds),
            format_json_f64(p.edges_per_sec),
            if ki + 1 == points.len() { "" } else { "," }
        );
    }
    json.push_str("      ]\n    }\n  ]\n}\n");
    if let Some(dir) = std::path::Path::new(&out_path).parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    std::fs::write(&out_path, &json).expect("write serve benchmark JSON");
    println!("wrote {out_path}");

    // Acceptance criterion: at low load the tail must fit the budget.
    let budget = config.deadline_us as f64 * 1e-6;
    if low_load_p99 > budget {
        eprintln!(
            "bench_serve: FAIL low-load p99 {:.3} ms exceeds deadline budget {:.3} ms",
            low_load_p99 * 1e3,
            budget * 1e3
        );
        std::process::exit(1);
    }
    println!(
        "bench_serve: low-load p99 {:.3} ms within deadline budget {:.3} ms",
        low_load_p99 * 1e3,
        budget * 1e3
    );

    // Overload acceptance: at 150% offered load the engine must degrade
    // gracefully — excess demand shed typed (never silently absorbed,
    // never served late), accepted tail still inside the budget.
    if run.accepted.is_empty() {
        eprintln!("bench_serve: FAIL overload phase accepted nothing ({submitted} submitted)");
        std::process::exit(1);
    }
    if run.shed == 0 {
        eprintln!(
            "bench_serve: FAIL {SHED_REL}% offered load shed nothing — overload never engaged"
        );
        std::process::exit(1);
    }
    if shed_p99 > budget {
        eprintln!(
            "bench_serve: FAIL overload accepted p99 {:.3} ms exceeds deadline budget {:.3} ms",
            shed_p99 * 1e3,
            budget * 1e3
        );
        std::process::exit(1);
    }
    println!(
        "bench_serve: overload accepted p99 {:.3} ms within budget {:.3} ms, {:.1}% shed typed",
        shed_p99 * 1e3,
        budget * 1e3,
        shed_rate * 100.0
    );
}
