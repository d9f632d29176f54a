//! The repository's benchmark: four workloads, five end-to-end metrics on
//! each, and a traced pass with per-layer metrics. README.md has the
//! tables; `BENCHMARK.json` at the root of the repository is the contract.
//!
//! `radix-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1]`
//! prints one JSON object as the last line of standard output. Without
//! `--workload` all four run one after the other; `--smoke` shortens each
//! to two half-second windows with every output check on.

mod probes;
mod procfs;
mod reference;
mod stats;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use probes::Metrics;
use reference::{speed, Reference, NOMINAL};
use stats::{enough_setups, iqr_rel, least, median, median_or_zero};
use workloads::{InferBatch, OnlineMixed, Plan, Run, ServePaced, TrainSparse, Workload};

const WORKLOADS: [&str; 4] = [
    InferBatch::NAME,
    ServePaced::NAME,
    TrainSparse::NAME,
    OnlineMixed::NAME,
];

/// The contract a driver checks this program against. It is the one place
/// that lists the metrics and their units: a run that produces a metric the
/// contract does not list, or misses one it lists, is not correct.
const CONTRACT: &str = include_str!("../../BENCHMARK.json");

/// The `field` strings of the objects in the contract's list `key`.
fn listed(key: &str, field: &str) -> Vec<String> {
    let from = CONTRACT.find(&format!("\"{key}\"")).expect(key);
    let body = &CONTRACT[from..from + CONTRACT[from..].find(']').expect("a list")];
    let objects = body.split('{').skip(1);
    objects
        .map(|object| {
            let at = object.find(&format!("\"{field}\"")).expect(field) + field.len() + 2;
            let open = at + object[at..].find('"').expect("a string") + 1;
            object[open..open + object[open..].find('"').expect("its end")].to_string()
        })
        .collect()
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    /// Set by the launcher: run the workload in this process and write the
    /// span file into this directory.
    child_out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 25.0,
        trace: false,
        smoke: false,
        child_out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                if !WORKLOADS.contains(&w.as_str()) {
                    return Err(format!("unknown workload {w}; one of {WORKLOADS:?}"));
                }
                args.workload = Some(w);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds >= 1.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be between 1 and 600".into());
                }
            }
            "--trace" => args.trace = value()? == "1",
            "--smoke" => args.smoke = true,
            "--child-out" => args.child_out = Some(value()?.into()),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let ok = match (&args.child_out, &args.workload) {
        (Some(out), Some(w)) => run_here(w, &args, out),
        _ => launch(&args),
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

// ------------------------------------------------------------------ launcher

/// Runs each workload as a child of its own, so that no workload inherits
/// another's heap, pool or page cache state, and none inherits the caller's
/// tuning: the child starts in a fresh empty directory (no stray
/// `RADIX_PROFILE.json`), with every `RADIX_*`/`RAYON_*` variable removed
/// and the pool fixed at two threads.
fn launch(args: &Args) -> bool {
    let out = std::env::current_dir()
        .expect("a working directory")
        .join("target/benchmark");
    let exe = std::env::current_exe().expect("the path of this program");
    let names: Vec<&str> = match &args.workload {
        Some(w) => vec![w.as_str()],
        None => WORKLOADS.to_vec(),
    };
    let mut all_ok = true;
    for name in &names {
        let cwd = out.join(format!("cwd-{name}-{}", std::process::id()));
        std::fs::create_dir_all(&cwd).expect("a fresh working directory");
        let mut cmd = Command::new(&exe);
        for (key, _) in std::env::vars_os() {
            if key
                .to_str()
                .is_some_and(|k| k.starts_with("RADIX_") || k.starts_with("RAYON_"))
            {
                cmd.env_remove(key);
            }
        }
        cmd.env("RADIX_POOL_THREADS", "2")
            .current_dir(&cwd)
            .args(["--workload", name, "--child-out"])
            .arg(&out)
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }]);
        if args.smoke {
            cmd.arg("--smoke");
        }
        if names.len() > 1 {
            println!("workload {name}");
        }
        // The child writes its result line straight to this standard output.
        let status = cmd.status().expect("starting the workload's process");
        let _ = std::fs::remove_dir_all(&cwd);
        all_ok &= status.success();
    }
    all_ok
}

// --------------------------------------------------------------- one workload

fn run_here(name: &str, args: &Args, out: &Path) -> bool {
    match name {
        InferBatch::NAME => measure::<InferBatch>(args, out),
        ServePaced::NAME => measure::<ServePaced>(args, out),
        TrainSparse::NAME => measure::<TrainSparse>(args, out),
        _ => measure::<OnlineMixed>(args, out),
    }
}

/// The timed phase: `--seconds` long, the first eleventh of it a warm-up
/// window that is left out, then ten windows. The traced pass takes half
/// the time (the probes need the rest) with windows half as long.
fn plan(args: &Args) -> Plan {
    if args.smoke {
        return Plan {
            window: Duration::from_millis(500),
            discard: 0,
            measured: 2,
        };
    }
    let windows = if args.trace { 22.0 } else { 11.0 };
    Plan {
        window: Duration::from_secs_f64(args.seconds / windows),
        discard: 1,
        measured: 10,
    }
}

/// What timing set-up again and again gave.
struct Setups {
    /// Wall-clock seconds of each repeat, the discarded first one included.
    walls: Vec<f64>,
    /// The reference samples taken before, between and after the repeats.
    samples: Vec<Duration>,
}

impl Setups {
    /// `statistic` of the repeats, on the reference clock by the same
    /// statistic of the samples. For the least of each: a disturbance only
    /// ever lengthens a set-up or a sample, so the quickest set-up and the
    /// quickest sample both show the machine undisturbed at the best level
    /// it had while the repeats ran.
    fn on_the_reference_clock(&self, statistic: fn(&[f64]) -> f64) -> f64 {
        let samples: Vec<f64> = self.samples.iter().map(Duration::as_secs_f64).collect();
        statistic(&self.walls[1..]) * NOMINAL.as_secs_f64() / statistic(&samples)
    }
}

/// Times set-up again and again, each instance ended before the next is
/// made, with a reference sample between each two. This runs right after
/// the timed phase, never at process start: on this kind of virtual machine
/// the second core takes more than a second of activity to wake quickly
/// after idling, and until then a set-up whose warm op is parallel reads
/// twice as long (0.145 s, then 0.082 s).
fn repeat_setup<W: Workload>(inputs: &W::Inputs, reference: &Reference, smoke: bool) -> Setups {
    let mut setups = Setups {
        walls: Vec::new(),
        samples: vec![reference.sample()],
    };
    let began = Instant::now();
    while !(enough_setups(setups.walls.len(), began.elapsed().as_secs_f64())
        || smoke && setups.walls.len() == 2)
    {
        let t = Instant::now();
        let live = W::setup(inputs);
        setups.walls.push(t.elapsed().as_secs_f64());
        W::teardown(live);
        setups.samples.push(reference.sample());
    }
    setups
}

fn measure<W: Workload>(args: &Args, out: &Path) -> bool {
    eprintln!(
        "# {} seed {}: pool of {} threads on {} cpus, tile_cols {}, block_rows {}, fuse_layers {} \
         (RADIX_*/RAYON_* scrubbed, no profile in the working directory)",
        W::NAME,
        args.seed,
        rayon::current_num_threads(),
        std::thread::available_parallelism().map_or(0, usize::from),
        radix_sparse::kernel::tile_cols(),
        radix_sparse::kernel::block_rows(),
        radix_challenge::fuse_layers(),
    );
    let t = Instant::now();
    let inputs = W::inputs(args.seed);
    let input_gen_s = t.elapsed().as_secs_f64();
    let reference = Reference::new();
    let plan = plan(args);
    let mut run = W::run(&inputs, W::setup(&inputs), &plan, &reference, args.trace);
    let setups = repeat_setup::<W>(&inputs, &reference, args.smoke);
    if run.rates.is_empty() || run.phase.windows.is_empty() {
        run.errors
            .push("the phase was too short for one complete window".into());
    }
    let mut speeds = run.speeds.clone();
    speeds.extend(setups.samples.iter().map(|s| speed(*s, *s)));
    eprintln!(
        "# machine speed {:.3} (median of {} reference samples; 1 is nominal)",
        median(&speeds),
        speeds.len()
    );
    let metrics = if args.trace {
        let mut m = per_layer::<W>(&mut run, args.seed, &reference, out);
        m.extend([
            ("radix_data.input_gen_s".to_string(), input_gen_s),
            (
                "setup.median_s".to_string(),
                setups.on_the_reference_clock(median),
            ),
            ("machine.speed".to_string(), median(&speeds)),
        ]);
        m
    } else {
        end_to_end(&run, &setups)
    };
    report(metrics, &mut run, args.trace)
}

fn end_to_end(run: &Run, setups: &Setups) -> Metrics {
    eprintln!(
        "# set-up repeats {:.4?} s beside reference samples {:.4?}; {} latencies in {} windows",
        setups.walls,
        setups.samples,
        run.phase.samples(),
        run.phase.windows.len()
    );
    let rates: Vec<String> = run.rates.iter().map(|r| format!("{r:.4e}")).collect();
    eprintln!("# edges/s samples [{}]", rates.join(", "));
    eprintln!("# window p50 ms {:.3?}", run.phase.percentiles(50.0));
    eprintln!("# window p95 ms {:.3?}", run.phase.percentiles(95.0));
    let pooled = run.phase.pooled_sorted();
    if !pooled.is_empty() {
        let at = [50.0, 75.0, 85.0, 90.0, 92.5, 95.0, 97.5, 99.0, 100.0];
        let tail = at.map(|p| format!("p{p} {:.3}", stats::nearest_rank(&pooled, p)));
        eprintln!("# all windows together, ms: {}", tail.join(", "));
    }
    let metrics = [
        ("setup_s", setups.on_the_reference_clock(least)),
        ("edges_per_s", run.edges_per_s()),
        ("lat_p50_ms", median_or_zero(&run.phase.percentiles(50.0))),
        ("lat_p95_ms", median_or_zero(&run.phase.percentiles(95.0))),
        ("peak_rss_mb", procfs::peak_rss_mb().unwrap_or(0.0)),
    ];
    metrics.map(|(k, v)| (k.to_string(), v)).into()
}

/// The traced pass: the phase recorded spans in every second window. They
/// are written out, checked, and the difference between the two kinds of
/// window is what tracing costs; then the probes run.
fn per_layer<W: Workload>(run: &mut Run, seed: u64, reference: &Reference, out: &Path) -> Metrics {
    let path = out.join(format!("trace-{}.jsonl", W::NAME));
    trace::write_jsonl(&path, &run.spans).expect("writing the span file");
    eprintln!("# {} spans in {}", run.spans.len(), path.display());
    for (name, t) in trace::totals_by_name(&run.spans) {
        eprintln!(
            "#   {name}: {} spans, {:.3} s, self {:.3} s",
            t.count,
            t.total_ns as f64 / 1e9,
            t.self_ns as f64 / 1e9
        );
    }
    let cover = trace::child_cover(&run.spans, "op");
    run.check(cover >= 0.98, || {
        format!("the child spans cover {cover:.4} of the op spans, less than 0.98")
    });
    let (on, off) = (run.phase.with_tracing(true), run.phase.with_tracing(false));
    let overhead = match (on.calls(), off.calls()) {
        (on, off) if !on.is_empty() && !off.is_empty() => median(&on) / median(&off) - 1.0,
        _ => 0.0,
    };
    eprintln!("# cpu0 caches: {}", probes::cache_sizes());

    let (mut metrics, problems) = probes::all(seed, reference);
    run.errors.extend(problems);
    // The reference samples are the harness's own work, on both cores.
    let busy_s = run.wall_s - run.reference_s;
    let cpu_s = run.usage.cpu_s - 2.0 * run.reference_s;
    let phase = &run.phase;
    let of_the_workload = [
        ("proc.cpu_s_per_gedge", cpu_s / (run.work / 1e9)),
        ("proc.cpu_util", cpu_s / busy_s),
        (
            "proc.vol_ctx_per_op",
            run.usage.vol_ctx as f64 / run.attempted as f64,
        ),
        ("window.edges_per_s.iqr_rel", iqr_rel(&run.rates)),
        (
            "window.lat_p50_ms.iqr_rel",
            iqr_rel(&phase.percentiles(50.0)),
        ),
        (
            "window.lat_p95_ms.iqr_rel",
            iqr_rel(&phase.percentiles(95.0)),
        ),
        ("window.samples", phase.samples() as f64),
        ("trace.overhead_rel", overhead),
        ("trace.op_child_cover", cover),
        ("trace.spans", run.spans.len() as f64),
    ];
    metrics.extend(of_the_workload.map(|(k, v)| (k.to_string(), v)));
    metrics
}

/// Prints every metric the contract lists by name with its unit for the
/// reader, then the result object. False if the run was not correct.
fn report(mut metrics: Metrics, run: &mut Run, trace: bool) -> bool {
    let list = if trace { "per_layer" } else { "end_to_end" };
    let mut fields = Vec::new();
    for (name, unit) in listed(list, "name").into_iter().zip(listed(list, "unit")) {
        let value = metrics.remove(&name).unwrap_or(f64::NAN);
        run.check(value.is_finite(), || format!("metric {name} is {value}"));
        let value = if value.is_finite() { value } else { 0.0 };
        eprintln!("{name:<48} {value:>16.6} {unit}");
        fields.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    for name in metrics.keys() {
        run.errors
            .push(format!("metric {name} is not in BENCHMARK.json"));
    }
    for note in &run.notes {
        eprintln!("# {note}");
    }
    for e in &run.errors {
        eprintln!("# CHECK FAILED: {e}");
    }
    println!(
        "{}",
        result_line(run.correct(), run.attempted.max(1), run.failed, &fields)
    );
    run.correct()
}

fn result_line(correct: bool, attempted: u64, failed: u64, fields: &[String]) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        fields.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_contract_lists_these_workloads_and_five_end_to_end_metrics() {
        assert_eq!(listed("workloads", "name"), WORKLOADS);
        let names = listed("end_to_end", "name");
        assert_eq!(names.len(), 5);
        assert_eq!(listed("end_to_end", "unit").len(), 5);
        assert!(names.contains(&"setup_s".to_string()));
        assert!(listed("per_layer", "name").contains(&"trace.op_child_cover".to_string()));
    }

    #[test]
    fn set_up_is_the_least_repeat_over_the_least_sample() {
        // A machine at half speed: the quickest set-up took 31 ms beside a
        // quickest sample of twice the nominal time.
        let setups = Setups {
            walls: vec![0.020, 0.060, 0.031, 0.090],
            samples: [5, 2, 4, 3, 2].map(|k| NOMINAL * k).to_vec(),
        };
        let least = setups.on_the_reference_clock(least);
        assert!((least - 0.0155).abs() < 1e-12, "{least}");
        let median = setups.on_the_reference_clock(median);
        assert!((median - 0.02).abs() < 1e-12, "{median}");
    }

    #[test]
    fn the_result_line_has_exactly_the_contract_keys() {
        let field = "\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}".to_string();
        assert_eq!(
            result_line(false, 1000, 1, &[field]),
            "{\"correct\": false, \"attempted\": 1000, \"failed\": 1, \
             \"metrics\": {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }
}
