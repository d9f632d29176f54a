//! Support library for the `radix-bench` benchmark crate: the criterion
//! benches live under `benches/`, the pinned JSON baseline emitter under
//! `src/bin/bench_kernels.rs`, the baseline comparator (perf regression
//! gate) under `src/bin/bench_gate.rs`, and the machine calibration run
//! under `src/bin/calibrate.rs`. This library holds the small shared
//! pieces: JSON float formatting and a minimal parser for the
//! `radix-bench-kernels/v1` schema (no serde in the offline build image —
//! we emit the format, so we can parse it with line scanning).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod autotune;

/// Formats an `f64` for embedding in JSON: finite values print with enough
/// precision to round-trip usefully; non-finite values (which raw JSON
/// cannot represent) degrade to `0`.
#[must_use]
pub fn format_json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.6e}")
    } else {
        "0".to_string()
    }
}

/// Times `f` (after one warm-up call) and returns the **minimum**
/// observed seconds per iteration — the standard robust estimator for
/// perf tracking: the min approximates the true cost of the code, while
/// means absorb scheduler noise, background load, and frequency ramps
/// (which on shared runners routinely exceed any reasonable regression
/// tolerance).
///
/// * `quick == false` — min over as many iterations as fit in
///   `budget_secs` (at most `max_iters`): the baseline-quality number.
/// * `quick == true` — min of three iterations: fast enough for CI
///   smoke/gate runs.
///
/// Shared by `bench_kernels` (the JSON baseline emitter the perf gate
/// diffs against) and `calibrate`, so both measure with one methodology.
pub fn time_kernel<F: FnMut()>(quick: bool, budget_secs: f64, max_iters: u32, mut f: F) -> f64 {
    f(); // warm-up: drives buffers to their high-water mark
    let (budget, iters) = if quick {
        (f64::INFINITY, 3)
    } else {
        (budget_secs, max_iters.max(1))
    };
    let all = std::time::Instant::now();
    let mut best = f64::INFINITY;
    for _ in 0..iters {
        let start = std::time::Instant::now();
        f();
        best = best.min(start.elapsed().as_secs_f64());
        if all.elapsed().as_secs_f64() > budget {
            break;
        }
    }
    best
}

/// One timed kernel point from a `BENCH_kernels.json` file.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchPoint {
    /// The layer config the kernel ran on (e.g. `n16384_deg8_b32`).
    pub config: String,
    /// Kernel name (e.g. `prepared_tiled_fused`).
    pub kernel: String,
    /// **Minimum** observed wall-clock seconds per iteration (see
    /// [`time_kernel`] for why the min estimator, not the mean).
    pub seconds_per_iter: f64,
    /// Throughput in edges/second (0 when the file predates the field) —
    /// carried so `bench_baseline` can re-emit merged baselines losslessly.
    pub edges_per_sec: f64,
}

/// One measured run within a baseline file: its worker-pool width and its
/// kernel points. A v1/v2 file holds exactly one run; the merged v3
/// baselines that `make bench-baseline` writes hold one run **per thread
/// count**, so pool kernels can gate like-for-like on both 1-core
/// containers and multi-core CI runners.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRun {
    /// Worker-pool width the run was measured at (`None` for files
    /// predating the `threads` key).
    pub threads: Option<usize>,
    /// The run's kernel timing points.
    pub points: Vec<BenchPoint>,
}

/// Extracts the string value of a `"key": "value"` pair from a JSON line,
/// if present.
fn string_field(line: &str, key: &str) -> Option<String> {
    let tag = format!("\"{key}\":");
    let rest = &line[line.find(&tag)? + tag.len()..];
    let start = rest.find('"')? + 1;
    let end = start + rest[start..].find('"')?;
    Some(rest[start..end].to_string())
}

/// Extracts the numeric value of a `"key": 1.23e-4` pair from a JSON
/// line, if present.
fn number_field(line: &str, key: &str) -> Option<f64> {
    let tag = format!("\"{key}\":");
    let rest = line[line.find(&tag)? + tag.len()..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E')))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Extracts the `"threads"` count a `BENCH_kernels.json` run was measured
/// with (the machine key the perf gate uses): `bench_kernels` records the
/// worker-pool width — effectively `nproc`, unless `RAYON_NUM_THREADS`
/// overrode it — so baselines measured on 1-core containers can be
/// recognized and their degenerate `par_*`/pool numbers excluded from
/// gating a multi-core run (and vice versa). Returns `None` for baselines
/// predating the field.
#[must_use]
pub fn parse_bench_threads(text: &str) -> Option<usize> {
    text.lines()
        .find_map(|line| number_field(line, "threads"))
        .map(|v| v as usize)
}

/// Whether a kernel point runs on the worker pool (its timing depends on
/// the machine's core count): the pinned subset names every pool-dispatch
/// variant with `rayon`, and every serving-latency point (`serve_*` from
/// `bench_serve`) runs blocks on the pool too. The perf gate compares
/// these points only between runs measured at the same thread count.
#[must_use]
pub fn is_parallel_kernel(name: &str) -> bool {
    name.contains("rayon") || is_serve_point(name)
}

/// Whether a point is a serving-engine measurement from `bench_serve`
/// (latency percentiles and the closed-loop throughput point). These gate
/// under their own, wider tolerance (`RADIX_BENCH_SERVE_TOLERANCE`):
/// end-to-end latency through threads, channels, and timers is far
/// noisier on shared CI runners than a pinned single-kernel min.
#[must_use]
pub fn is_serve_point(name: &str) -> bool {
    name.starts_with("serve_")
}

/// Whether a serving point is *gated* (fails the gate on regression)
/// rather than report-only. Per the latency-gate policy, the p99 points
/// gate — tail latency is the serving SLO, and the overload phase's
/// accepted-tail point (`serve_shed_p99_*`) gates for the same reason —
/// while p50, the closed-loop throughput point, and the shed-rate point
/// ride along informationally (their regressions always show in the gate
/// log, and coverage is still enforced for all of them).
#[must_use]
pub fn serve_point_gates(name: &str) -> bool {
    name.starts_with("serve_p99") || name.starts_with("serve_shed_p99")
}

/// The `q`-th percentile (0.0–1.0) of a sample set by nearest-rank on a
/// sorted copy — the estimator `bench_serve` reports p50/p99 latency
/// with. Returns 0.0 for an empty sample set.
#[must_use]
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite latency samples"));
    let rank = ((q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Parses a `radix-bench-kernels/v1..v4` JSON file (as written by
/// `bench_kernels` or merged by `bench_baseline`) into its kernel timing
/// points, flattened across runs. The format is line-oriented by
/// construction: every kernel object sits on one line carrying both `name`
/// and `seconds_per_iter`; config objects carry a `name` on its own line.
/// Unknown lines are ignored, so the parser tolerates added fields.
#[must_use]
pub fn parse_bench_json(text: &str) -> Vec<BenchPoint> {
    parse_bench_runs(text)
        .into_iter()
        .flat_map(|r| r.points)
        .collect()
}

/// Parses a baseline file into its per-thread-count runs. Every `"threads"`
/// line starts a new run (merged baselines carry several); a v1 file with
/// no `threads` key yields one run with `threads: None`. Kernel points
/// encountered before any `threads` line also land in a `None` run (no
/// emitter writes that shape, but truncated files stay parseable).
#[must_use]
pub fn parse_bench_runs(text: &str) -> Vec<BenchRun> {
    let mut runs: Vec<BenchRun> = Vec::new();
    let mut config = String::new();
    for line in text.lines() {
        if let Some(secs) = number_field(line, "seconds_per_iter") {
            if let Some(kernel) = string_field(line, "name") {
                if runs.is_empty() {
                    runs.push(BenchRun {
                        threads: None,
                        points: Vec::new(),
                    });
                }
                runs.last_mut()
                    .expect("pushed above")
                    .points
                    .push(BenchPoint {
                        config: config.clone(),
                        kernel,
                        seconds_per_iter: secs,
                        edges_per_sec: number_field(line, "edges_per_sec").unwrap_or(0.0),
                    });
            }
        } else if let Some(t) = number_field(line, "threads") {
            runs.push(BenchRun {
                // 0 is the emitter's encoding of "unknown width".
                threads: Some(t as usize).filter(|&t| t > 0),
                points: Vec::new(),
            });
        } else if let Some(name) = string_field(line, "name") {
            config = name;
        }
    }
    // A file with a threads key but no points still reports its one run.
    runs
}

/// Serializes runs as a `radix-bench-kernels/v4` baseline: one entry per
/// thread count, each holding its configs and kernel points — the format
/// `make bench-baseline` writes and [`parse_bench_runs`] reads back.
/// v4 adds serving-latency points (`serve_*` from `bench_serve`, where
/// `seconds_per_iter` is a latency percentile rather than a kernel time)
/// merged point-wise into the same per-width runs; the line format is
/// unchanged, so v3 readers still parse v4 files. Config metadata beyond
/// the name (n/degree/batch) is not carried; the config name
/// (`n16384_deg8_b32`) encodes it.
#[must_use]
pub fn emit_bench_runs(runs: &[BenchRun]) -> String {
    use std::fmt::Write as _;
    let mut json = String::new();
    json.push_str("{\n  \"schema\": \"radix-bench-kernels/v4\",\n");
    json.push_str(
        "  \"note\": \"edges/sec per kernel on the pinned layer configs plus serve_* \
         latency points (seconds_per_iter = latency percentile), one run per \
         worker-pool width; written by `make bench-baseline` (full-budget min-statistic \
         numbers); the perf gate compares a candidate against the run measured at the \
         candidate's own width\",\n",
    );
    json.push_str("  \"runs\": [\n");
    for (ri, run) in runs.iter().enumerate() {
        let _ = writeln!(json, "    {{");
        let _ = writeln!(json, "      \"threads\": {},", run.threads.unwrap_or(0));
        let _ = writeln!(json, "      \"configs\": [");
        // Group points by config, preserving first-appearance order.
        let mut configs: Vec<&str> = Vec::new();
        for p in &run.points {
            if !configs.contains(&p.config.as_str()) {
                configs.push(&p.config);
            }
        }
        for (ci, cfg) in configs.iter().enumerate() {
            let _ = writeln!(json, "        {{");
            let _ = writeln!(json, "          \"name\": \"{cfg}\",");
            let _ = writeln!(json, "          \"kernels\": [");
            let points: Vec<&BenchPoint> = run.points.iter().filter(|p| p.config == *cfg).collect();
            for (ki, p) in points.iter().enumerate() {
                let _ = writeln!(
                    json,
                    "            {{\"name\": \"{}\", \"seconds_per_iter\": {}, \"edges_per_sec\": {}}}{}",
                    p.kernel,
                    format_json_f64(p.seconds_per_iter),
                    format_json_f64(p.edges_per_sec),
                    if ki + 1 == points.len() { "" } else { "," }
                );
            }
            let _ = writeln!(json, "          ]");
            let _ = writeln!(
                json,
                "        }}{}",
                if ci + 1 == configs.len() { "" } else { "," }
            );
        }
        let _ = writeln!(json, "      ]");
        let _ = writeln!(
            json,
            "    }}{}",
            if ri + 1 == runs.len() { "" } else { "," }
        );
    }
    json.push_str("  ]\n}\n");
    json
}

/// Unions the perf gate's candidate scratch files (each given as
/// `(path, contents)`) into one run. Every file must hold **exactly one
/// run with at least one kernel point** — a scratch file that parses to
/// zero points means the bench emitter crashed mid-write or emitted an
/// incompatible shape, and gating against it would silently pass with no
/// coverage — and all files must agree on the thread count they were
/// measured at.
///
/// # Errors
/// A gate-fatal message naming the offending file: zero or multiple runs,
/// zero points, or a thread-count mismatch across files.
pub fn merge_candidate_runs(files: &[(String, String)]) -> Result<BenchRun, String> {
    let mut candidate = BenchRun {
        threads: None,
        points: Vec::new(),
    };
    if files.is_empty() {
        return Err("candidate list is empty (no scratch files to gate)".to_string());
    }
    for (path, text) in files {
        let runs = parse_bench_runs(text);
        if runs.len() != 1 {
            return Err(format!(
                "candidate {path} must hold exactly one run, found {}",
                runs.len()
            ));
        }
        let run = runs.into_iter().next().expect("checked above");
        if run.points.is_empty() {
            return Err(format!(
                "candidate {path} lists zero kernel points for its run \
                 (threads {}) — refusing to gate with no coverage; was the \
                 bench emitter interrupted?",
                run.threads
                    .map_or_else(|| "unknown".to_string(), |t| t.to_string())
            ));
        }
        let threads = run.threads.or_else(|| parse_bench_threads(text));
        match (candidate.threads, threads) {
            (Some(a), Some(b)) if a != b => {
                return Err(format!(
                    "candidate files measured at different thread counts \
                     ({a} vs {b} in {path})"
                ));
            }
            (None, t) => candidate.threads = t,
            _ => {}
        }
        candidate.points.extend(run.points);
    }
    Ok(candidate)
}

/// Picks the baseline run the perf gate compares against: the run
/// measured at the candidate's thread count when one exists (pool
/// kernels gate like-for-like), else the first run (serial kernels only
/// — the returned flag is `false`). The selected run must have at least
/// one point: a merged baseline can legitimately carry runs at widths
/// the current machine doesn't have, but an **empty selected run** would
/// make the gate loop vacuous and pass with zero kernels checked.
///
/// # Errors
/// A gate-fatal message when the baseline has no runs at all, or when
/// the selected run lists zero kernel points for this thread count.
pub fn select_baseline_run(
    runs: &[BenchRun],
    cand_threads: Option<usize>,
) -> Result<(&BenchRun, bool), String> {
    let matched = runs
        .iter()
        .find(|r| r.threads.is_some() && r.threads == cand_threads);
    let threads_match = matched.is_some();
    let Some(baseline) = matched.or_else(|| runs.first()) else {
        return Err("baseline contains no runs".to_string());
    };
    if baseline.points.is_empty() {
        return Err(format!(
            "baseline run selected for candidate threads {} lists zero \
             kernel points — the gate would pass vacuously; re-run \
             `make bench-baseline` at this width or fix the baseline file",
            cand_threads.map_or_else(|| "unknown".to_string(), |t| t.to_string())
        ));
    }
    Ok((baseline, threads_match))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finite_values_roundtrip() {
        let s = format_json_f64(12345.678);
        let back: f64 = s.parse().unwrap();
        assert!((back - 12345.678).abs() < 1e-2);
    }

    #[test]
    fn non_finite_degrades_to_zero() {
        assert_eq!(format_json_f64(f64::NAN), "0");
        assert_eq!(format_json_f64(f64::INFINITY), "0");
    }

    #[test]
    fn time_kernel_counts_calls() {
        use std::cell::Cell;
        let calls = Cell::new(0u32);
        // Quick mode: 1 warm-up + 3 timed iterations, min returned.
        let t = time_kernel(true, 1.0, 100, || calls.set(calls.get() + 1));
        assert_eq!(calls.get(), 4);
        assert!(t.is_finite() && t >= 0.0);
        // Normal mode with a zero budget: warm-up + exactly one iteration.
        calls.set(0);
        let t = time_kernel(false, 0.0, 100, || calls.set(calls.get() + 1));
        assert_eq!(calls.get(), 2);
        assert!(t.is_finite() && t >= 0.0);
        // Normal mode with a huge budget: capped by max_iters.
        calls.set(0);
        let t = time_kernel(false, 1e9, 5, || calls.set(calls.get() + 1));
        assert_eq!(calls.get(), 6);
        assert!(t.is_finite() && t >= 0.0);
    }

    #[test]
    fn parses_emitter_format() {
        let text = r#"{
  "schema": "radix-bench-kernels/v1",
  "quick": false,
  "configs": [
    {
      "name": "n16_deg2_b4",
      "n": 16,
      "kernels": [
        {"name": "csr_serial_unfused", "seconds_per_iter": 4.089235e-3, "edges_per_sec": 1.025694e9},
        {"name": "prepared_tiled_fused", "seconds_per_iter": 1.5e-3, "edges_per_sec": 2.0e9}
      ]
    },
    {
      "name": "n32_deg4_b8",
      "kernels": [
        {"name": "csr_serial_unfused", "seconds_per_iter": 2.0e-3, "edges_per_sec": 1.0e9}
      ]
    }
  ]
}"#;
        let points = parse_bench_json(text);
        assert_eq!(points.len(), 3);
        assert_eq!(points[0].config, "n16_deg2_b4");
        assert_eq!(points[0].kernel, "csr_serial_unfused");
        assert!((points[0].seconds_per_iter - 4.089235e-3).abs() < 1e-12);
        assert_eq!(points[1].kernel, "prepared_tiled_fused");
        assert_eq!(points[2].config, "n32_deg4_b8");
    }

    #[test]
    fn parses_the_committed_baseline_shape() {
        // The committed baseline must stay parseable; mirror one real line.
        let line = r#"        {"name": "prepared_serial_fused", "seconds_per_iter": 3.602354e-3, "edges_per_sec": 1.164323e9},"#;
        let points = parse_bench_json(line);
        assert_eq!(points.len(), 1);
        assert_eq!(points[0].kernel, "prepared_serial_fused");
    }

    #[test]
    fn ignores_malformed_lines() {
        assert!(parse_bench_json("not json at all\n{}\n").is_empty());
    }

    #[test]
    fn parses_thread_count_when_present() {
        let text = "{\n  \"schema\": \"radix-bench-kernels/v2\",\n  \"threads\": 4,\n}";
        assert_eq!(parse_bench_threads(text), Some(4));
        // Baselines predating the field have no thread key.
        assert_eq!(parse_bench_threads("{\n  \"quick\": false\n}"), None);
    }

    #[test]
    fn parses_single_run_files_as_one_run() {
        let text = "{\n  \"schema\": \"radix-bench-kernels/v2\",\n  \"threads\": 2,\n  \"configs\": [\n    {\n      \"name\": \"n16_deg2_b4\",\n      \"kernels\": [\n        {\"name\": \"a\", \"seconds_per_iter\": 1.0e-3, \"edges_per_sec\": 2.0e9}\n      ]\n    }\n  ]\n}";
        let runs = parse_bench_runs(text);
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].threads, Some(2));
        assert_eq!(runs[0].points.len(), 1);
        assert_eq!(runs[0].points[0].edges_per_sec, 2.0e9);
        // v1 shape (no threads key): one run, unknown width.
        let v1 = "{\n  \"configs\": [\n    {\"name\": \"c\"},\n        {\"name\": \"k\", \"seconds_per_iter\": 2.0e-3, \"edges_per_sec\": 1.0e9}\n  ]\n}";
        let runs = parse_bench_runs(v1);
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].threads, None);
    }

    #[test]
    fn merged_baselines_roundtrip_through_emit_and_parse() {
        let runs = vec![
            BenchRun {
                threads: Some(1),
                points: vec![
                    BenchPoint {
                        config: "n16_deg2_b4".into(),
                        kernel: "serial".into(),
                        seconds_per_iter: 1.5e-3,
                        edges_per_sec: 2.0e9,
                    },
                    BenchPoint {
                        config: "n32_deg4_b8".into(),
                        kernel: "serial".into(),
                        seconds_per_iter: 2.5e-3,
                        edges_per_sec: 1.0e9,
                    },
                ],
            },
            BenchRun {
                threads: Some(2),
                points: vec![BenchPoint {
                    config: "n16_deg2_b4".into(),
                    kernel: "pool_rayon".into(),
                    seconds_per_iter: 0.9e-3,
                    edges_per_sec: 3.0e9,
                }],
            },
        ];
        let text = emit_bench_runs(&runs);
        let back = parse_bench_runs(&text);
        assert_eq!(back.len(), 2);
        assert_eq!(back[0].threads, Some(1));
        assert_eq!(back[1].threads, Some(2));
        assert_eq!(back[0].points.len(), 2);
        assert_eq!(back[0].points[1].config, "n32_deg4_b8");
        assert_eq!(back[1].points[0].kernel, "pool_rayon");
        assert!((back[1].points[0].seconds_per_iter - 0.9e-3).abs() < 1e-9);
        // Flattening matches the per-run view.
        assert_eq!(parse_bench_json(&text).len(), 3);
    }

    #[test]
    fn classifies_pool_kernels() {
        for name in [
            "train_step_pool_rayon",
            "prepared_rayon_fused",
            "prepared_tiled_rayon_fused",
            "transposed_tiled_rayon",
            "spgemm_rayon",
            "serve_p99_rel10",
            "serve_row_closed_loop",
        ] {
            assert!(is_parallel_kernel(name), "{name}");
        }
        for name in [
            "csr_serial_unfused",
            "prepared_tiled_fused",
            "transposed_serial",
            "transposed_tiled",
            "tiled_act90_gather",
            "tiled_act90_scatter",
            "fused_2layer_serial_per_layer",
            "spgemm_serial",
        ] {
            assert!(!is_parallel_kernel(name), "{name}");
        }
    }

    #[test]
    fn classifies_serve_points_and_gating() {
        assert!(is_serve_point("serve_p50_rel10"));
        assert!(is_serve_point("serve_row_closed_loop"));
        assert!(!is_serve_point("prepared_tiled_fused"));
        // Only tail-latency points gate; p50, throughput, and the shed
        // rate ride along.
        assert!(serve_point_gates("serve_p99_rel10"));
        assert!(serve_point_gates("serve_p99_rel60"));
        assert!(serve_point_gates("serve_shed_p99_rel150"));
        assert!(!serve_point_gates("serve_shed_rate_rel150"));
        assert!(!serve_point_gates("serve_p50_rel10"));
        assert!(!serve_point_gates("serve_row_closed_loop"));
        assert!(!serve_point_gates("prepared_rayon_fused"));
    }

    fn run_text(threads: usize, kernels: &[&str]) -> String {
        let runs = vec![BenchRun {
            threads: Some(threads),
            points: kernels
                .iter()
                .map(|k| BenchPoint {
                    config: "n16_deg2_b4".into(),
                    kernel: (*k).to_string(),
                    seconds_per_iter: 1.0e-3,
                    edges_per_sec: 1.0e9,
                })
                .collect(),
        }];
        emit_bench_runs(&runs)
    }

    #[test]
    fn candidate_merge_unions_points_and_threads() {
        let files = vec![
            ("a.json".to_string(), run_text(2, &["serial", "rayon"])),
            ("b.json".to_string(), run_text(2, &["serve_p99_rel10"])),
        ];
        let run = merge_candidate_runs(&files).unwrap();
        assert_eq!(run.threads, Some(2));
        assert_eq!(run.points.len(), 3);
    }

    #[test]
    fn candidate_with_zero_points_is_a_hard_failure() {
        // A headers-only scratch file (threads key, no kernel lines): the
        // shape an interrupted emitter leaves behind. It must fail loudly,
        // even alongside a healthy file.
        let empty = "{\n  \"schema\": \"radix-bench-kernels/v4\",\n  \"threads\": 2,\n}\n";
        let files = vec![
            ("good.json".to_string(), run_text(2, &["serial"])),
            ("empty.json".to_string(), empty.to_string()),
        ];
        let err = merge_candidate_runs(&files).unwrap_err();
        assert!(err.contains("empty.json"), "{err}");
        assert!(err.contains("zero kernel points"), "{err}");
        // Same for a candidate list that is empty or holds several runs.
        assert!(merge_candidate_runs(&[]).is_err());
        let two_runs = emit_bench_runs(&[
            parse_bench_runs(&run_text(1, &["a"])).remove(0),
            parse_bench_runs(&run_text(2, &["b"])).remove(0),
        ]);
        let err = merge_candidate_runs(&[("multi.json".to_string(), two_runs)]).unwrap_err();
        assert!(err.contains("exactly one run"), "{err}");
    }

    #[test]
    fn candidate_thread_mismatch_is_a_hard_failure() {
        let files = vec![
            ("a.json".to_string(), run_text(1, &["serial"])),
            ("b.json".to_string(), run_text(4, &["rayon"])),
        ];
        let err = merge_candidate_runs(&files).unwrap_err();
        assert!(err.contains("different thread counts"), "{err}");
    }

    #[test]
    fn baseline_selection_matches_width_and_rejects_empty_runs() {
        let full = parse_bench_runs(&run_text(2, &["serial"])).remove(0);
        let empty = BenchRun {
            threads: Some(4),
            points: Vec::new(),
        };
        let runs = vec![full.clone(), empty];
        // Matched width with points: gates.
        let (run, matched) = select_baseline_run(&runs, Some(2)).unwrap();
        assert!(matched);
        assert_eq!(run.threads, Some(2));
        // Unmatched width: falls back to the first run, report-only pools.
        let (run, matched) = select_baseline_run(&runs, Some(8)).unwrap();
        assert!(!matched);
        assert_eq!(run.threads, Some(2));
        // Matched width whose run has zero points: the silent-pass bug —
        // must now be a hard failure, not a vacuous success.
        let err = select_baseline_run(&runs, Some(4)).unwrap_err();
        assert!(err.contains("zero"), "{err}");
        assert!(err.contains('4'), "{err}");
        // No runs at all.
        assert!(select_baseline_run(&[], Some(1)).is_err());
    }

    #[test]
    fn percentile_nearest_rank() {
        let samples = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(percentile(&samples, 0.5), 3.0);
        assert_eq!(percentile(&samples, 0.99), 5.0);
        assert_eq!(percentile(&samples, 0.0), 1.0);
        assert_eq!(percentile(&samples, 1.0), 5.0);
        assert_eq!(percentile(&[7.5], 0.99), 7.5);
        assert_eq!(percentile(&[], 0.5), 0.0);
        // q past 1.0 clamps instead of indexing out of range.
        assert_eq!(percentile(&samples, 2.0), 5.0);
    }

    #[test]
    fn v4_header_roundtrips() {
        let runs = vec![BenchRun {
            threads: Some(2),
            points: vec![BenchPoint {
                config: "serve_n4096_deg16_b8".into(),
                kernel: "serve_p99_rel10".into(),
                seconds_per_iter: 2.0e-3,
                edges_per_sec: 0.0,
            }],
        }];
        let text = emit_bench_runs(&runs);
        assert!(text.contains("radix-bench-kernels/v4"));
        let back = parse_bench_runs(&text);
        assert_eq!(back, runs);
    }
}
