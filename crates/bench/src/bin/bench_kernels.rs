//! Pinned kernel benchmark → `BENCH_kernels.json`.
//!
//! Runs a fixed subset of the SpMM kernel matrix — the two acceptance
//! layer configs (`n=16384, deg=8` and `n=4096, deg=16`) × {generic CSR
//! unfused, prepared ELL, prepared ELL fused, cache-tiled, **transposed**
//! (untiled vs tiled — the backward/training orientation), the
//! activation-sparsity schedules at 90% sparse input, serial and Rayon,
//! plus the multi-layer fused Challenge forward pass} — each the same
//! three `PreparedWeights` products under a `KernelPlan` with at most one
//! knob moved off the process plan — and writes
//! edges/second per kernel as JSON, so successive PRs have a
//! machine-readable perf baseline to diff against (`make bench-gate`
//! compares a fresh run to the committed baseline).
//!
//! The JSON records the worker-pool width as a top-level `"threads"` key
//! (the machine key): pool-dispatch (`*rayon*`) numbers measured on a
//! 1-core container are degenerate, so the gate only compares them
//! between runs at the same thread count.
//!
//! Invocation (see `make bench-json`):
//!
//! ```text
//! cargo run --release -p radix-bench --bin bench_kernels
//! ```
//!
//! Environment:
//! * `RADIX_BENCH_QUICK=1` — min-of-three timed iterations per kernel
//!   (CI smoke and the perf gate: fast, and the min statistic resists
//!   shared-runner scheduler noise; full-budget means remain the
//!   committed-baseline methodology),
//! * `RADIX_BENCH_OUT` — output path (default `BENCH_kernels.json`).

use std::fmt::Write as _;
use std::hint::black_box;

use radix_bench::format_json_f64;
use radix_challenge::{ChallengeNetwork, InferWorkspace};
use radix_nn::{
    Activation, GradWorkspace, GradWorkspacePool, Layer, Loss, Network, SparseLinear, Targets,
};
use radix_sparse::ops;
use radix_sparse::{
    Bias, CsrMatrix, CyclicShift, DenseMatrix, Epilogue, KernelPlan, Par, PreparedWeights,
};

/// Wall-clock budget per kernel point in normal mode.
const TIME_BUDGET_SECS: f64 = 0.25;
/// Iteration cap per kernel point in normal mode.
const MAX_ITERS: u32 = 200;

struct KernelResult {
    name: &'static str,
    seconds_per_iter: f64,
    edges_per_sec: f64,
}

/// [`radix_bench::time_kernel`] at this binary's budget.
fn time_kernel<F: FnMut()>(quick: bool, f: F) -> f64 {
    radix_bench::time_kernel(quick, TIME_BUDGET_SECS, MAX_ITERS, f)
}

fn layer(n: usize, degree: usize) -> CsrMatrix<f32> {
    CyclicShift::radix_submatrix::<u64>(n, degree, 1).map(|_| 1.0 / degree as f32)
}

fn activations(rows: usize, cols: usize) -> DenseMatrix<f32> {
    let mut m = DenseMatrix::zeros(rows, cols);
    for i in 0..rows {
        let r: &mut [f32] = m.row_mut(i);
        for (j, v) in r.iter_mut().enumerate() {
            *v = ((i * 31 + j * 17) % 13) as f32 * 0.07;
        }
    }
    m
}

/// A 90%-sparse activation batch (exactly one in ten entries nonzero) —
/// the post-ReLU deep-layer regime the scatter schedule targets.
fn sparse_activations(rows: usize, cols: usize) -> DenseMatrix<f32> {
    let mut m = DenseMatrix::zeros(rows, cols);
    for i in 0..rows {
        let r: &mut [f32] = m.row_mut(i);
        for (j, v) in r.iter_mut().enumerate() {
            if (i * 31 + j * 17) % 10 == 0 {
                *v = ((i + j) % 13) as f32 * 0.07 + 0.05;
            }
        }
    }
    m
}

fn bench_config(n: usize, degree: usize, batch: usize, quick: bool) -> (u64, Vec<KernelResult>) {
    let w = layer(n, degree);
    // Every point is the process plan with at most one knob moved.
    let plan = KernelPlan::process();
    let prepared = PreparedWeights::from_csr(w.clone());
    let tiled_under = |plan: KernelPlan| {
        let mut p = PreparedWeights::with_plan(w.clone(), plan);
        p.tile();
        p
    };
    let tiled = tiled_under(plan);
    assert!(prepared.is_ell(), "RadiX layers have constant degree");
    let x = activations(batch, n);
    let edges = (batch * w.nnz()) as u64;
    let epi_identity = Epilogue::<f32>::identity();
    let epi_fused = Epilogue::new(Bias::Uniform(-0.3f32), |v: f32| v.clamp(0.0, 32.0));
    let mut out = DenseMatrix::<f32>::zeros(batch, n);

    // The unfused baselines replicate the pre-prepared-kernel layer step:
    // allocate-per-call product, then a second pass for bias + clamp.
    let mut results = Vec::new();
    let mut push = |name: &'static str, secs: f64| {
        results.push(KernelResult {
            name,
            seconds_per_iter: secs,
            edges_per_sec: edges as f64 / secs.max(1e-12),
        });
    };

    push(
        "csr_serial_unfused",
        time_kernel(quick, || {
            let mut y = ops::dense_spmm(&x, &w).unwrap();
            y.map_inplace(|v| (v - 0.3).clamp(0.0, 32.0));
            black_box(y.as_slice().len());
        }),
    );
    push(
        "prepared_serial",
        time_kernel(quick, || {
            prepared
                .spmm(&x, &mut out, &epi_identity, Par::Serial)
                .unwrap();
            black_box(out.as_slice().len());
        }),
    );
    push(
        "prepared_serial_fused",
        time_kernel(quick, || {
            prepared
                .spmm(&x, &mut out, &epi_fused, Par::Serial)
                .unwrap();
            black_box(out.as_slice().len());
        }),
    );
    push(
        "prepared_rayon_fused",
        time_kernel(quick, || {
            prepared.spmm(&x, &mut out, &epi_fused, Par::Pool).unwrap();
            black_box(out.as_slice().len());
        }),
    );

    // Cache-tiled variants: the same products on the column-tiled,
    // tile-major schedule (the plan's tile width; the tiled copy was
    // built next to `prepared` above).
    push(
        "prepared_tiled_fused",
        time_kernel(quick, || {
            tiled.spmm(&x, &mut out, &epi_fused, Par::Serial).unwrap();
            black_box(out.as_slice().len());
        }),
    );
    push(
        "prepared_tiled_rayon_fused",
        time_kernel(quick, || {
            tiled.spmm(&x, &mut out, &epi_fused, Par::Pool).unwrap();
            black_box(out.as_slice().len());
        }),
    );

    // Transposed (backward/training) orientation: untiled per-row gather
    // (one tile spanning every row of `W`) vs the tile-major schedule
    // (zero-copy over the ELL layout — the `prepared` copy is untiled,
    // proving no forward tiles are needed). Identity epilogue, as in the
    // backward pass.
    let one_tile = PreparedWeights::with_plan(
        w.clone(),
        KernelPlan {
            tile_cols: n,
            ..plan
        },
    );
    push(
        "transposed_serial",
        time_kernel(quick, || {
            one_tile
                .spmm_transposed(&x, &mut out, &epi_identity, Par::Serial)
                .unwrap();
            black_box(out.as_slice().len());
        }),
    );
    push(
        "transposed_tiled",
        time_kernel(quick, || {
            prepared
                .spmm_transposed(&x, &mut out, &epi_identity, Par::Serial)
                .unwrap();
            black_box(out.as_slice().len());
        }),
    );
    push(
        "transposed_tiled_rayon",
        time_kernel(quick, || {
            prepared
                .spmm_transposed(&x, &mut out, &epi_identity, Par::Pool)
                .unwrap();
            black_box(out.as_slice().len());
        }),
    );

    // Activation-sparsity schedules at 90% sparse input (the deep
    // post-ReLU regime): the branch-free gather that multiplies zeros
    // through (`act_sparse_percent` 0) vs the zero-skipping scatter the
    // per-block count switches to (forced: 100).
    {
        let x90 = sparse_activations(batch, n);
        for (name, act_sparse_percent) in [("tiled_act90_gather", 0), ("tiled_act90_scatter", 100)]
        {
            let forced = tiled_under(KernelPlan {
                act_sparse_percent,
                ..plan
            });
            push(
                name,
                time_kernel(quick, || {
                    forced
                        .spmm(&x90, &mut out, &epi_fused, Par::Serial)
                        .unwrap();
                    black_box(out.as_slice().len());
                }),
            );
        }
    }

    // Multi-layer tile fusion: a 2-layer Challenge network at this width,
    // timed per layer so the number is comparable to the single-product
    // kernels above (same batch·nnz edge budget per layer).
    {
        let net = ChallengeNetwork::from_layers(vec![w.clone(), w.clone()], -0.3, 32.0);
        let mut ws = InferWorkspace::for_network(&net, batch);
        let secs = time_kernel(quick, || {
            net.forward_with(&x, false, &mut ws);
            black_box(ws.output().as_slice().len());
        });
        push("fused_2layer_serial_per_layer", secs / 2.0);
    }

    // Training: a full 2-layer gradient batch (forward trace + loss
    // gradient + backward) at this width — serial, and the pool-native
    // path with zero-copy chunk views and the fixed-order reduction.
    {
        const TRAIN_CHUNKS: usize = 4;
        let net = Network::new(
            vec![
                Layer::Sparse(SparseLinear::new(w.clone(), Activation::Tanh)),
                Layer::Sparse(SparseLinear::new(w.clone(), Activation::Identity)),
            ],
            Loss::Mse,
        );
        let y = activations(batch, net.n_out());
        let mut ws = GradWorkspace::for_network(&net, batch);
        push(
            "train_step_serial",
            time_kernel(quick, || {
                black_box(net.grad_batch_with(&x, Targets::values(&y), &mut ws));
            }),
        );
        let mut pool = GradWorkspacePool::for_network(&net, batch, TRAIN_CHUNKS);
        push(
            "train_step_pool_rayon",
            time_kernel(quick, || {
                black_box(net.par_grad_batch_with(
                    &x,
                    Targets::values(&y),
                    TRAIN_CHUNKS,
                    &mut pool,
                    &mut ws,
                ));
            }),
        );
    }

    // SpGEMM (CSR × CSR) points so the two-pass par_spmm stitch has a
    // tracked baseline too; "edges" here is the same batch·nnz budget for
    // comparability of the JSON schema, not a flop count.
    push(
        "spgemm_serial",
        time_kernel(quick, || {
            black_box(ops::spmm(&w, &w).unwrap().nnz());
        }),
    );
    push(
        "spgemm_rayon",
        time_kernel(quick, || {
            black_box(ops::par_spmm(&w, &w).unwrap().nnz());
        }),
    );

    (edges, results)
}

fn main() {
    let quick = std::env::var("RADIX_BENCH_QUICK").is_ok_and(|v| v == "1");
    let out_path =
        std::env::var("RADIX_BENCH_OUT").unwrap_or_else(|_| "BENCH_kernels.json".to_string());

    // The pinned subset: the two acceptance-criteria layer configs.
    let configs = [(16384usize, 8usize, 32usize), (4096, 16, 64)];

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"schema\": \"radix-bench-kernels/v2\",");
    let _ = writeln!(json, "  \"quick\": {quick},");
    let _ = writeln!(json, "  \"threads\": {},", rayon::current_num_threads());
    json.push_str(
        "  \"note\": \"edges/sec per kernel on the pinned layer configs; \
         quick=true means min-of-3-iteration CI smoke/gate numbers; pool \
         (*rayon*) kernels gate only against baselines at equal threads\",\n",
    );
    json.push_str("  \"configs\": [\n");
    for (ci, &(n, degree, batch)) in configs.iter().enumerate() {
        eprintln!("bench_kernels: n={n} deg={degree} batch={batch} (quick={quick})");
        let (edges, results) = bench_config(n, degree, batch, quick);
        let _ = writeln!(json, "    {{");
        let _ = writeln!(json, "      \"name\": \"n{n}_deg{degree}_b{batch}\",");
        let _ = writeln!(json, "      \"n\": {n},");
        let _ = writeln!(json, "      \"degree\": {degree},");
        let _ = writeln!(json, "      \"batch\": {batch},");
        let _ = writeln!(json, "      \"edges_per_iter\": {edges},");
        let _ = writeln!(json, "      \"kernels\": [");
        for (ki, k) in results.iter().enumerate() {
            let _ = writeln!(
                json,
                "        {{\"name\": \"{}\", \"seconds_per_iter\": {}, \"edges_per_sec\": {}}}{}",
                k.name,
                format_json_f64(k.seconds_per_iter),
                format_json_f64(k.edges_per_sec),
                if ki + 1 == results.len() { "" } else { "," }
            );
            println!(
                "{:>22}  n{n}_deg{degree}_b{batch}  {:>12.3} us/iter  {:>12.3e} edges/s",
                k.name,
                k.seconds_per_iter * 1e6,
                k.edges_per_sec
            );
        }
        let _ = writeln!(json, "      ]");
        let _ = writeln!(
            json,
            "    }}{}",
            if ci + 1 == configs.len() { "" } else { "," }
        );
    }
    json.push_str("  ]\n}\n");

    std::fs::write(&out_path, &json).expect("write benchmark JSON");
    println!("wrote {out_path}");
}
