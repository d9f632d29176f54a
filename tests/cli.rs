//! Integration tests of the CLI binaries, run as real subprocesses.

use std::process::Command;

fn run(bin: &str, args: &[&str]) -> (String, String, bool) {
    let out = Command::new(bin)
        .args(args)
        .output()
        .expect("binary should execute");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

#[test]
fn fig7_sweep_emits_grid() {
    let (stdout, _, ok) = run(env!("CARGO_BIN_EXE_fig7_density_sweep"), &["4", "3"]);
    assert!(ok);
    // Header plus µ ∈ {2,3,4} × d ∈ {1,2,3} rows.
    assert!(stdout.contains("exact_eq4"));
    let data_lines = stdout
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty() && !l.contains("mu"))
        .count();
    assert_eq!(data_lines, 9);
    // d = 1 rows are density 1.
    assert!(stdout.contains("1.000000e0"));
}

#[test]
fn generate_writes_layers_and_meta() {
    let dir = std::env::temp_dir().join(format!("radixnet_gen_{}", std::process::id()));
    let dir_str = dir.to_str().unwrap().to_owned();
    let (stdout, stderr, ok) = run(
        env!("CARGO_BIN_EXE_generate"),
        &[&dir_str, "1,2,2,1", "2,2,2"],
    );
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("n_prime: 8"));
    for i in 0..3 {
        let layer = dir.join(format!("layer_{i}.tsv"));
        assert!(layer.exists(), "missing {layer:?}");
        let text = std::fs::read_to_string(&layer).unwrap();
        assert!(text.lines().all(|l| l.split_whitespace().count() == 3));
    }
    let meta = std::fs::read_to_string(dir.join("meta.txt")).unwrap();
    assert!(meta.contains("paths_per_io_pair: 4"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn generate_rejects_bad_args() {
    let (_, stderr, ok) = run(env!("CARGO_BIN_EXE_generate"), &[]);
    assert!(!ok);
    assert!(stderr.contains("usage"));

    let dir = std::env::temp_dir().join("radixnet_gen_bad");
    let (_, stderr, ok) = run(
        env!("CARGO_BIN_EXE_generate"),
        &[dir.to_str().unwrap(), "1,1", "2,2"], // wrong width count
    );
    assert!(!ok);
    assert!(stderr.contains("width"));
}

#[test]
fn challenge_inference_prints_ladder() {
    let (stdout, _, ok) = run(env!("CARGO_BIN_EXE_challenge_inference"), &["8"]);
    assert!(ok);
    assert!(stdout.contains("edges"));
    // Five ladder rows: the lines that start with a neuron count.
    let rows = stdout
        .lines()
        .filter(|l| {
            l.split_whitespace()
                .next()
                .is_some_and(|f| f.parse::<usize>().is_ok())
        })
        .count();
    assert_eq!(rows, 5);
}
