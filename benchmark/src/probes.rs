//! Per-layer probes for the traced pass: each times calls into one layer's
//! public functions from outside, in the same process and on the same
//! machine as the workload, so a change to a layer shows here before it
//! shows end to end. README.md says which end-to-end metric each should
//! move. Probes are short; they place a layer, they are not gated.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use radix_challenge::{ChallengeNetwork, InferWorkspace, ServeConfig, ServeEngine};
use radix_data::sparse_binary_batch;
use radix_net::verify_spec;
use radix_nn::checkpoint::{self, Checkpointer, TrainProgress};
use radix_nn::{ForwardWorkspace, GradWorkspace, GradWorkspacePool, Optimizer, Targets};
use radix_sparse::{CsrMatrix, DenseMatrix};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::reference::Reference;
use crate::stats::median;
use crate::workloads::{
    infer_batch_rows, infer_config, serve_config, serve_engine_config, train_config, train_network,
    train_spec, InferBatch, OnlineMixed, Plan, Run, ServePaced, TrainSparse, Workload,
    INFER_ALIVE_ROWS, INFER_DYING_ROWS, TRAIN_SAMPLES,
};

pub type Metrics = BTreeMap<String, f64>;

/// Median seconds per call of `f` after one warm call, over at least two
/// calls and `budget`.
fn time_median(budget: Duration, mut f: impl FnMut()) -> f64 {
    f();
    let start = Instant::now();
    let mut times = Vec::new();
    while times.len() < 2 || start.elapsed() < budget {
        let t = Instant::now();
        f();
        times.push(t.elapsed().as_secs_f64());
    }
    median(&times)
}

fn time_once<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64())
}

const SHORT: Duration = Duration::from_millis(200);

const MINI: Plan = Plan {
    window: Duration::from_millis(400),
    discard: 1,
    measured: 4,
};

/// What the probes found wrong: a probe's output checks count like the
/// traced workload's own.
pub type Problems = Vec<String>;

/// Notes the failed checks of a short phase.
fn judge(what: &str, run: &Run, problems: &mut Problems) {
    if run.failed > 0 {
        problems.push(format!(
            "{what}: {} of {} ops failed",
            run.failed, run.attempted
        ));
    }
    problems.extend(run.errors.iter().map(|e| format!("{what}: {e}")));
}

/// A short run of a workload, for the layer facts only a phase shows.
fn mini_run<W: Workload>(seed: u64, reference: &Reference, problems: &mut Problems) -> Run {
    let inputs = W::inputs(seed);
    let run = W::run(&inputs, W::setup(&inputs), &MINI, reference, false);
    judge(W::NAME, &run, problems);
    run
}

fn put(m: &mut Metrics, layer: &str, facts: impl IntoIterator<Item = (&'static str, f64)>) {
    m.extend(facts.into_iter().map(|(k, v)| (format!("{layer}.{k}"), v)));
}

/// Single-thread memory bandwidth (triad over three 64 MiB arrays) and
/// multiply-add rate (eight independent 4-lane chains) of this machine
/// with this build's code generation: the two roofs.
fn machine(m: &mut Metrics) -> (f64, f64) {
    const N: usize = 16 << 20;
    let (mut a, b, c) = (vec![0.0f32; N], vec![1.0f32; N], vec![2.0f32; N]);
    let triad_s = time_median(SHORT, || {
        let s = black_box(3.0f32);
        for ((a, b), c) in a.iter_mut().zip(&b).zip(&c) {
            *a = b + s * c;
        }
        black_box(&mut a);
    });
    let stream = (3 * N * 4) as f64 / triad_s / 1e9;

    const LANES: usize = 32;
    const ITERS: usize = 4_000_000;
    let fma_s = time_median(SHORT, || {
        let (mul, add) = (
            black_box([0.999_999f32; LANES]),
            black_box([1e-7f32; LANES]),
        );
        let mut acc = [1.0f32; LANES];
        for _ in 0..ITERS {
            for j in 0..LANES {
                acc[j] = acc[j] * mul[j] + add[j];
            }
        }
        black_box(acc);
    });
    let fma = (2 * LANES * ITERS) as f64 / fma_s / 1e9;
    put(
        m,
        "machine",
        [("stream_gbytes_per_s", stream), ("fma_gflops", fma)],
    );
    (stream, fma)
}

/// Bytes one edge moves in the gather, computed from the types, not
/// measured: an f32 weight, a u32 column index and an f32 activation.
const GATHER_BYTES_PER_EDGE: f64 = 12.0;

fn topology_and_kernels(seed: u64, m: &mut Metrics) -> ChallengeNetwork {
    let cfg = infer_config();
    let spec = cfg.spec().expect("preset is a valid spec");
    let (net, build_s) = time_once(|| spec.build());
    let (report, verify_s) = time_once(|| verify_spec(&train_spec()));
    assert!(report.matches, "Theorem 1 path count on the training spec");
    put(
        m,
        "radix_net",
        [
            ("build_s", build_s),
            ("build_edges_per_s", cfg.total_edges() as f64 / build_s),
            ("verify_s", verify_s),
        ],
    );

    let layers: Vec<CsrMatrix<f32>> = net
        .fnnt()
        .submatrices()
        .iter()
        .map(|w| w.map(|_| cfg.weight))
        .collect();
    let one_layer = ChallengeNetwork::from_layers(vec![layers[0].clone()], cfg.bias, cfg.ymax);
    let (full, prepare_s) = time_once(|| ChallengeNetwork::from_layers(layers, cfg.bias, cfg.ymax));

    // One 4096 x 16 layer on 64 rows: dense enough for the gather, then
    // sparse enough for the zero-skipping scatter.
    let rows = INFER_ALIVE_ROWS;
    let dense = sparse_binary_batch(rows, cfg.neurons(), 0.6, seed);
    let sparse = sparse_binary_batch(rows, cfg.neurons(), 0.05, seed);
    let mut ws = InferWorkspace::for_network(&one_layer, rows);
    let edges = (rows * one_layer.total_nnz()) as f64;
    let mut rate = |x: &DenseMatrix<f32>, parallel: bool| {
        edges
            / time_median(SHORT, || {
                black_box(one_layer.forward_with(x, parallel, &mut ws));
            })
    };
    let (gather, gather_par, scatter) = (
        rate(&dense, false),
        rate(&dense, true),
        rate(&sparse, false),
    );
    let (stream, fma) = machine(m);
    let flops_per_byte = 2.0 / GATHER_BYTES_PER_EDGE;
    let roof_gflops = fma.min(stream * flops_per_byte);
    put(
        m,
        "radix_sparse",
        [
            ("prepare_s", prepare_s),
            ("gather_edges_per_s", gather),
            ("gather_par_edges_per_s", gather_par),
            ("scatter_edges_per_s", scatter),
            ("gather_gbytes_per_s", gather * GATHER_BYTES_PER_EDGE / 1e9),
            ("gather_roofline_share", 2.0 * gather / 1e9 / roof_gflops),
        ],
    );
    full
}

/// The rows in a seeded shuffle.
fn shuffled_rows(x: &DenseMatrix<f32>, seed: u64) -> DenseMatrix<f32> {
    let mut order: Vec<usize> = (0..x.nrows()).collect();
    order.shuffle(&mut StdRng::seed_from_u64(seed));
    let data = order
        .iter()
        .flat_map(|&r| x.row(r).iter().copied())
        .collect();
    DenseMatrix::from_vec(x.nrows(), x.ncols(), data).expect("same shape")
}

fn infer(seed: u64, net: &ChallengeNetwork, m: &mut Metrics) {
    let full = InferBatch::inputs(seed);
    let (mut ws, workspace_s) = time_once(|| InferWorkspace::for_network(net, full.nrows()));
    let mut rate = |x: &DenseMatrix<f32>, parallel: bool| {
        (x.nrows() * net.total_nnz()) as f64
            / time_median(Duration::ZERO, || {
                black_box(net.forward_with(x, parallel, &mut ws));
            })
    };
    let par = rate(&full, true);
    let serial = rate(&full, false);
    put(
        m,
        "radix_challenge.infer",
        [
            (
                "alive_edges_per_s",
                rate(&infer_batch_rows(seed, INFER_ALIVE_ROWS, 0), true),
            ),
            (
                "dying_edges_per_s",
                rate(&infer_batch_rows(seed, 0, INFER_DYING_ROWS), true),
            ),
            ("serial_edges_per_s", serial),
            ("par_speedup", par / serial),
            (
                "shuffled_edges_per_s",
                rate(&shuffled_rows(&full, seed), true),
            ),
            ("workspace_s", workspace_s),
        ],
    );
}

/// What the paced phase cannot show: engine start, the cost of a row
/// computed directly, and capacity with two callers sending back to back.
fn serve(seed: u64, reference: &Reference, m: &mut Metrics, problems: &mut Problems) {
    let paced = mini_run::<ServePaced>(seed, reference, problems);
    let paced_p50_ms = median(&paced.phase.percentiles(50.0));
    let inputs = ServePaced::inputs(seed);
    let net = ChallengeNetwork::from_config(&serve_config()).expect("preset is a valid spec");
    let row = DenseMatrix::from_vec(1, net.n_in(), inputs.rows.row(0).to_vec()).expect("one row");
    let mut ws = InferWorkspace::for_network(&net, 1);
    let row_compute_ms = 1e3
        * time_median(SHORT, || {
            black_box(net.forward_with(&row, true, &mut ws));
        });

    let closed_config = ServeConfig {
        max_batch: 2,
        ..serve_engine_config()
    };
    let (handle, engine_start_s) = time_once(|| ServeEngine::start(net, &closed_config));
    let span = Duration::from_secs(1);
    let before = handle.stats();
    let start = Instant::now();
    std::thread::scope(|s| {
        for c in 0..2 {
            let (client, rows) = (handle.client(), &inputs.rows);
            s.spawn(move || {
                let mut out = Vec::new();
                for i in (c..).step_by(2) {
                    if start.elapsed() >= span {
                        break;
                    }
                    client
                        .infer_into(rows.row(i % rows.nrows()), &mut out)
                        .expect("closed-loop request");
                }
            });
        }
    });
    let seconds = start.elapsed().as_secs_f64();
    let after = handle.stats();
    handle.shutdown().expect("engine shutdown");
    let rows = (after.rows - before.rows) as f64;

    put(
        m,
        "radix_challenge.serve",
        paced.layer.iter().map(|(k, v)| (*k, *v)),
    );
    put(
        m,
        "radix_challenge.serve",
        [
            ("engine_start_s", engine_start_s),
            ("row_compute_ms", row_compute_ms),
            ("wait_share", 1.0 - row_compute_ms / paced_p50_ms),
            ("closed_rows_per_s", rows / seconds),
            (
                "closed_rows_per_batch",
                rows / (after.batches - before.batches).max(1) as f64,
            ),
        ],
    );
}

fn nn(seed: u64, m: &mut Metrics) {
    let inputs = TrainSparse::inputs(seed);
    let (mut net, network_init_s) = time_once(|| train_network(seed));
    let config = train_config(1, seed);
    let batch = config.batch_size;
    let x = inputs.x.rows_view(0..batch).to_owned();
    let y = inputs.y.rows_view(0..batch).to_owned();

    let mut fws = ForwardWorkspace::for_network(&net, batch);
    let forward_ms = 1e3
        * time_median(SHORT, || {
            black_box(net.forward_with(&x, &mut fws));
        });
    let mut ws = GradWorkspace::for_network(&net, batch);
    let grad_ms = 1e3
        * time_median(SHORT, || {
            black_box(net.grad_batch_with(&x, Targets::values(&y), &mut ws));
        });
    let chunks = config.parallel_chunks;
    let mut pool = GradWorkspacePool::for_network(&net, batch, chunks);
    let par_grad_ms = 1e3
        * time_median(SHORT, || {
            black_box(net.par_grad_batch_with(&x, Targets::values(&y), chunks, &mut pool, &mut ws));
        });
    let mut opt = Optimizer::sgd(0.0);
    let apply_ms = 1e3 * time_median(SHORT, || net.apply_gradients_with(&mut ws, &mut opt));

    // The workload's op is TRAIN_SAMPLES / batch steps; what a step costs
    // beyond gradient and update is shuffle, row gather and workspaces.
    let (mut net, mut opt) = TrainSparse::setup(&inputs);
    let mut k = 0;
    let mut last_loss = 0.0;
    let op_ms = 1e3
        * time_median(SHORT, || {
            k += 1;
            let config = train_config(1, seed.wrapping_add(k));
            last_loss =
                radix_nn::train_regressor(&mut net, &inputs.x, &inputs.y, &mut opt, &config)
                    .final_loss();
        });
    let steps = (TRAIN_SAMPLES / batch) as f64;

    let progress = TrainProgress::default();
    let mut bytes = 0;
    let encode_ms = 1e3
        * time_median(SHORT, || {
            bytes = checkpoint::encode(&net, &opt, &progress).len()
        });
    let dir = std::path::PathBuf::from("probe-ckpt");
    let mut ck = Checkpointer::new(&dir)
        .expect("checkpoint directory")
        .with_keep(2);
    let save_ms = 1e3
        * time_median(SHORT, || {
            ck.save(&net, &mut opt, &progress).expect("checkpoint save");
        });
    let load_ms = 1e3
        * time_median(SHORT, || {
            black_box(ck.load_latest().expect("checkpoint load"));
        });

    // Hot reload of that generation into a live engine on the same network.
    let online_inputs = OnlineMixed::inputs(seed);
    let live = OnlineMixed::setup(&online_inputs);
    let newest = *ck
        .generations()
        .expect("generations")
        .last()
        .expect("a generation");
    let path = ck.generation_path(newest);
    let reload_ms = 1e3 * time_median(SHORT, || live.handle().reload(&path).expect("hot reload"));
    drop(live);
    let _ = std::fs::remove_dir_all(&dir);

    put(
        m,
        "radix_nn",
        [
            ("network_init_s", network_init_s),
            ("forward_ms", forward_ms),
            ("grad_ms", grad_ms),
            ("par_grad_ms", par_grad_ms),
            ("par_speedup", grad_ms / par_grad_ms),
            ("apply_ms", apply_ms),
            ("step_overhead_ms", op_ms / steps - par_grad_ms - apply_ms),
            ("checkpoint_bytes", bytes as f64),
            ("checkpoint_encode_ms", encode_ms),
            ("checkpoint_save_ms", save_ms),
            ("checkpoint_load_ms", load_ms),
            ("final_loss", f64::from(last_loss)),
        ],
    );
    put(m, "radix_challenge.online", [("reload_ms", reload_ms)]);
}

/// Training throughput with the engine idle, then what the mixed phase
/// shows of serving and publishing.
fn online(seed: u64, reference: &Reference, m: &mut Metrics, problems: &mut Problems) {
    let mixed = mini_run::<OnlineMixed>(seed, reference, problems);
    let inputs = OnlineMixed::inputs(seed);
    let live = OnlineMixed::setup(&inputs);
    let alone = OnlineMixed::phase(&inputs, live, &MINI, reference, false, 0);
    judge("training alone", &alone, problems);
    let alone_rate = alone.layer["train_samples_per_s"];
    let fact = |k: &str| mixed.layer[k];
    put(
        m,
        "radix_challenge.online",
        [
            ("published", fact("published")),
            ("publish_errors", fact("publish_errors")),
            ("restarts", fact("restarts")),
            ("train_alone_samples_per_s", alone_rate),
            ("train_share", fact("train_samples_per_s") / alone_rate),
            ("serve_lat_p99_ms", fact("lat_p99_ms")),
            ("rows_per_batch", fact("rows_per_batch")),
        ],
    );
}

/// Every per-layer probe. The contract has every traced run report every
/// per-layer metric, so every workload's traced pass runs them all, the
/// same way: none looks at the traced workload's own phase.
pub fn all(seed: u64, reference: &Reference) -> (Metrics, Problems) {
    let (mut m, mut problems) = (Metrics::new(), Problems::new());
    let mut clock = Instant::now();
    let mut lap = |what: &str| {
        eprintln!(
            "# probes: {what} took {:.2} s",
            clock.elapsed().as_secs_f64()
        );
        clock = Instant::now();
    };
    let net = topology_and_kernels(seed, &mut m);
    lap("topology, kernels, machine");
    infer(seed, &net, &mut m);
    drop(net);
    lap("infer");
    serve(seed, reference, &mut m, &mut problems);
    lap("serve");
    nn(seed, &mut m);
    lap("nn, checkpoint, reload");
    online(seed, reference, &mut m, &mut problems);
    lap("online");
    m.insert(
        "rayon.pool_width".into(),
        rayon::current_num_threads() as f64,
    );
    (m, problems)
}

/// The cache hierarchy of cpu0, for reading the roofline share.
pub fn cache_sizes() -> String {
    let mut out = Vec::new();
    for i in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
        let read =
            |f: &str| std::fs::read_to_string(format!("{dir}/{f}")).map(|s| s.trim().to_string());
        if let (Ok(level), Ok(kind), Ok(size)) = (read("level"), read("type"), read("size")) {
            out.push(format!("L{level} {kind} {size}"));
        }
    }
    if out.is_empty() {
        "unknown".into()
    } else {
        out.join(", ")
    }
}
