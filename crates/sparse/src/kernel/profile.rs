//! Persisted per-machine tuning profile: `RADIX_PROFILE.json`.
//!
//! The kernel tunables (column-tile width, row-block grain, fusion depth,
//! activation-sparsity crossover) default to values hand-picked on one
//! machine. `make calibrate` (the `radix-bench` autotuner) sweeps them
//! *jointly* on two fixed layer shapes and persists the winner here — a
//! versioned JSON profile (line-oriented, hand-rolled — no serde in the
//! offline build), with one run per worker-pool width, because the best
//! schedule at 1 thread is not the best at 8.
//!
//! Consumers never read this file directly: [`crate::kernel::KernelPlan::process`]
//! resolves each knob, once per process, with the precedence
//!
//! ```text
//! environment variable  >  profile run at this thread count  >  default
//! ```
//!
//! via [`active_profile`] + [`resolve_knob`]. A missing or corrupt
//! profile is **never** fatal: [`load_profile`] returns a typed
//! [`ProfileError`], the plan falls back to the built-in defaults, and
//! the process warns once on stderr (silently ignoring a genuinely absent
//! optional file).
//!
//! File shape (each run on one line, so truncation is detectable):
//!
//! ```json
//! {
//!   "schema": "radix-tuning-profile/v1",
//!   "note": "...",
//!   "runs": [
//!     {"threads": 2, "tile_cols": 1024, "fuse_layers": 2,
//!      "act_sparse_threshold": 10, "block_rows": 32}
//!   ]
//! }
//! ```
//!
//! Every knob inside a run is optional (an absent key means "no opinion,
//! use the next precedence level"), but a *present* key must parse to a
//! sane value — garbage where a number should be is corruption, not a
//! default.

use std::fmt;
use std::ops::RangeInclusive;
use std::path::Path;

use crate::kernel::heuristic::MAX_TILE_OR_BLOCK;

/// Schema tag the profile file must carry on its `"schema"` line.
pub const PROFILE_SCHEMA: &str = "radix-tuning-profile/v1";

/// Default profile path, relative to the working directory; override with
/// the `RADIX_PROFILE` environment variable (see [`profile_path`]).
pub const DEFAULT_PROFILE_PATH: &str = "RADIX_PROFILE.json";

/// One per-thread-count run of the tuning profile: the knob values the
/// autotuner measured best at this worker-pool width. `None` means the
/// profile has no opinion on that knob (fall through to the default).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TuningProfile {
    /// Worker-pool width this run was calibrated at.
    pub threads: usize,
    /// Column-tile width (`RADIX_TILE_COLS`).
    pub tile_cols: Option<usize>,
    /// Fused-schedule group depth (`RADIX_FUSE_LAYERS`).
    pub fuse_layers: Option<usize>,
    /// Activation-sparsity crossover percent (`RADIX_ACT_SPARSE_THRESHOLD`;
    /// `0` is meaningful — it disables the scatter path).
    pub act_sparse_percent: Option<usize>,
    /// Rows per tile-major block (`RADIX_BLOCK_ROWS`).
    pub block_rows: Option<usize>,
}

/// Why a tuning profile failed to load. Never panics the process: the
/// tunable getters catch every variant and fall back to defaults.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProfileError {
    /// The file could not be read (missing, permissions, …).
    Io {
        /// Path that failed to read.
        path: String,
        /// The I/O failure kind.
        kind: std::io::ErrorKind,
    },
    /// The file does not carry the expected `"schema"` tag — wrong file,
    /// future major version, or truncated before the header.
    BadSchema {
        /// The schema string found, if any.
        found: Option<String>,
    },
    /// The file ends before its closing brace — a torn or truncated write.
    Truncated,
    /// A run line carries a knob key whose value does not parse to a sane
    /// number (zero where a positive value is required, a tile width or
    /// block grain past [`MAX_TILE_OR_BLOCK`], or garbage bytes).
    Malformed {
        /// The offending knob key.
        key: &'static str,
    },
    /// The file parsed but holds no runs at all.
    NoRuns,
}

impl fmt::Display for ProfileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProfileError::Io { path, kind } => write!(f, "cannot read {path}: {kind:?}"),
            ProfileError::BadSchema { found: Some(s) } => {
                write!(f, "unexpected schema {s:?} (expected {PROFILE_SCHEMA:?})")
            }
            ProfileError::BadSchema { found: None } => {
                write!(f, "missing schema tag (expected {PROFILE_SCHEMA:?})")
            }
            ProfileError::Truncated => write!(f, "file is truncated (no closing brace)"),
            ProfileError::Malformed { key } => write!(f, "unparseable value for {key:?}"),
            ProfileError::NoRuns => write!(f, "profile holds no runs"),
        }
    }
}

impl std::error::Error for ProfileError {}

/// Extracts the string value of a `"key": "value"` pair from a line.
/// (Hand-rolled here: the offline build has no JSON crate, and the
/// profile's own line-oriented format is all this has to read.)
fn string_field(line: &str, key: &str) -> Option<String> {
    let tag = format!("\"{key}\":");
    let rest = &line[line.find(&tag)? + tag.len()..];
    let start = rest.find('"')? + 1;
    let end = start + rest[start..].find('"')?;
    Some(rest[start..end].to_string())
}

/// Extracts the numeric value of a `"key": 123` pair from a line.
fn number_field(line: &str, key: &str) -> Option<u64> {
    let tag = format!("\"{key}\":");
    let rest = line[line.find(&tag)? + tag.len()..].trim_start();
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Parses one knob off a run line: absent key → `Ok(None)`; present key
/// with an unparseable value, or one outside `range` → corruption.
fn knob(
    line: &str,
    key: &'static str,
    range: RangeInclusive<usize>,
) -> Result<Option<usize>, ProfileError> {
    if !line.contains(&format!("\"{key}\":")) {
        return Ok(None);
    }
    number_field(line, key)
        .and_then(|v| usize::try_from(v).ok())
        .filter(|v| range.contains(v))
        .map(Some)
        .ok_or(ProfileError::Malformed { key })
}

/// Parses profile text into its per-thread-count runs.
///
/// # Errors
/// Returns a typed [`ProfileError`] on a missing/mismatched schema tag, a
/// truncated file (the last non-blank line must be the closing `}` the
/// emitter writes), an unparseable knob value, or an empty run list.
pub fn parse_profile(text: &str) -> Result<Vec<TuningProfile>, ProfileError> {
    match text.lines().find_map(|l| string_field(l, "schema")) {
        Some(s) if s == PROFILE_SCHEMA => {}
        found => return Err(ProfileError::BadSchema { found }),
    }
    // The emitter puts the closing brace on its own final line; anything
    // else means the write was torn mid-file (run lines end in `}` too,
    // but never alone on a line).
    if text.lines().rev().find(|l| !l.trim().is_empty()) != Some("}") {
        return Err(ProfileError::Truncated);
    }
    let mut runs = Vec::new();
    for line in text.lines() {
        let Some(threads) = number_field(line, "threads") else {
            continue;
        };
        if threads == 0 {
            return Err(ProfileError::Malformed { key: "threads" });
        }
        runs.push(TuningProfile {
            threads: threads as usize,
            tile_cols: knob(line, "tile_cols", 1..=MAX_TILE_OR_BLOCK)?,
            fuse_layers: knob(line, "fuse_layers", 1..=usize::MAX)?,
            // Zero is meaningful here: it disables the scatter path.
            act_sparse_percent: knob(line, "act_sparse_threshold", 0..=usize::MAX)?,
            block_rows: knob(line, "block_rows", 1..=MAX_TILE_OR_BLOCK)?,
        });
    }
    if runs.is_empty() {
        return Err(ProfileError::NoRuns);
    }
    Ok(runs)
}

/// Reads and parses a profile file.
///
/// # Errors
/// [`ProfileError::Io`] when the file cannot be read; otherwise whatever
/// [`parse_profile`] reports.
pub fn load_profile(path: &Path) -> Result<Vec<TuningProfile>, ProfileError> {
    let text = std::fs::read_to_string(path).map_err(|e| ProfileError::Io {
        path: path.display().to_string(),
        kind: e.kind(),
    })?;
    parse_profile(&text)
}

/// Serializes runs in the profile schema — what `make calibrate` writes
/// and [`parse_profile`] reads back (round-trip pinned in tests). Absent
/// knobs are omitted from their run line.
#[must_use]
pub fn emit_profile(runs: &[TuningProfile]) -> String {
    use std::fmt::Write as _;
    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"schema\": \"{PROFILE_SCHEMA}\",");
    json.push_str(
        "  \"note\": \"per-machine kernel tuning profile written by `make calibrate` \
         (joint sweep of tile width x fuse depth x activation-sparsity threshold x \
         block rows on the committed bench shapes), one run per worker-pool width; \
         RADIX_* environment variables override, deleting the file restores the \
         built-in defaults\",\n",
    );
    json.push_str("  \"runs\": [\n");
    for (ri, run) in runs.iter().enumerate() {
        let mut fields = vec![format!("\"threads\": {}", run.threads)];
        if let Some(v) = run.tile_cols {
            fields.push(format!("\"tile_cols\": {v}"));
        }
        if let Some(v) = run.fuse_layers {
            fields.push(format!("\"fuse_layers\": {v}"));
        }
        if let Some(v) = run.act_sparse_percent {
            fields.push(format!("\"act_sparse_threshold\": {v}"));
        }
        if let Some(v) = run.block_rows {
            fields.push(format!("\"block_rows\": {v}"));
        }
        let _ = writeln!(
            json,
            "    {{{}}}{}",
            fields.join(", "),
            if ri + 1 == runs.len() { "" } else { "," }
        );
    }
    json.push_str("  ]\n}\n");
    json
}

/// The profile path this process reads: the `RADIX_PROFILE` environment
/// variable when set and non-empty, else [`DEFAULT_PROFILE_PATH`].
#[must_use]
pub fn profile_path() -> String {
    std::env::var("RADIX_PROFILE")
        .ok()
        .filter(|p| !p.is_empty())
        .unwrap_or_else(|| DEFAULT_PROFILE_PATH.to_string())
}

/// The run of the persisted profile matching this process's worker-pool
/// width, read from disk on every call — [`crate::kernel::KernelPlan::process`]
/// calls it once and caches the plan it resolves. `None` when no profile
/// file exists, it fails to parse (a stderr warning, typed error
/// swallowed — never a panic), or it has no run at this width.
#[must_use]
pub fn active_profile() -> Option<TuningProfile> {
    let path = profile_path();
    match load_profile(Path::new(&path)) {
        Ok(runs) => {
            let threads = rayon::current_num_threads();
            runs.into_iter().find(|r| r.threads == threads)
        }
        // An absent optional file is the normal uncalibrated state.
        Err(ProfileError::Io {
            kind: std::io::ErrorKind::NotFound,
            ..
        }) => None,
        Err(e) => {
            eprintln!(
                "radix-sparse: ignoring tuning profile {path}: {e}; \
                 using built-in defaults"
            );
            None
        }
    }
}

/// Resolves one tunable with the documented precedence: explicit
/// environment value, else the profile's opinion, else the built-in
/// default. Pure — [`crate::kernel::KernelPlan::resolve`] feeds it each
/// knob's parsed environment value and profile opinion.
#[inline]
#[must_use]
pub fn resolve_knob(env: Option<usize>, profile: Option<usize>, default: usize) -> usize {
    env.or(profile).unwrap_or(default)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<TuningProfile> {
        vec![
            TuningProfile {
                threads: 1,
                tile_cols: Some(2048),
                fuse_layers: Some(2),
                act_sparse_percent: Some(0),
                block_rows: Some(16),
            },
            TuningProfile {
                threads: 2,
                tile_cols: Some(1024),
                fuse_layers: None,
                act_sparse_percent: Some(10),
                block_rows: Some(32),
            },
        ]
    }

    #[test]
    fn emit_parse_roundtrip() {
        let runs = sample();
        let text = emit_profile(&runs);
        assert_eq!(parse_profile(&text).unwrap(), runs);
    }

    #[test]
    fn missing_schema_is_typed() {
        assert_eq!(
            parse_profile("{\n}\n"),
            Err(ProfileError::BadSchema { found: None })
        );
        let wrong = "{\n  \"schema\": \"radix-bench-kernels/v4\",\n}\n";
        assert!(matches!(
            parse_profile(wrong),
            Err(ProfileError::BadSchema { found: Some(_) })
        ));
    }

    #[test]
    fn truncation_is_typed() {
        let text = emit_profile(&sample());
        // Chop the closing brace line off.
        let cut = text.trim_end().rfind('\n').unwrap();
        assert_eq!(parse_profile(&text[..cut]), Err(ProfileError::Truncated));
    }

    #[test]
    fn corrupt_knob_is_typed() {
        let text = emit_profile(&sample()).replace("\"tile_cols\": 2048", "\"tile_cols\": x8");
        assert_eq!(
            parse_profile(&text),
            Err(ProfileError::Malformed { key: "tile_cols" })
        );
        // Zero is corruption for positive-only knobs…
        let text = emit_profile(&sample()).replace("\"block_rows\": 16", "\"block_rows\": 0");
        assert_eq!(
            parse_profile(&text),
            Err(ProfileError::Malformed { key: "block_rows" })
        );
        // …but meaningful for the sparsity threshold.
        let text = emit_profile(&sample()).replace(
            "\"act_sparse_threshold\": 10",
            "\"act_sparse_threshold\": 0",
        );
        let runs = parse_profile(&text).unwrap();
        assert_eq!(runs[1].act_sparse_percent, Some(0));
    }

    #[test]
    fn empty_runs_is_typed() {
        let text = format!("{{\n  \"schema\": \"{PROFILE_SCHEMA}\",\n  \"runs\": [\n  ]\n}}\n");
        assert_eq!(parse_profile(&text), Err(ProfileError::NoRuns));
    }

    #[test]
    fn missing_file_is_io_not_found() {
        let err = load_profile(Path::new("definitely/not/a/real/profile.json")).unwrap_err();
        assert!(matches!(
            err,
            ProfileError::Io { kind, .. } if kind == std::io::ErrorKind::NotFound
        ));
    }

    #[test]
    fn resolve_knob_precedence() {
        // env > profile > default
        assert_eq!(resolve_knob(Some(7), Some(5), 3), 7);
        assert_eq!(resolve_knob(None, Some(5), 3), 5);
        assert_eq!(resolve_knob(None, None, 3), 3);
    }

    #[test]
    fn out_of_range_tile_or_block_is_typed() {
        // A well-formed profile must not carry a block_rows that makes
        // `block_rows × width` wrap to a zero chunk size in the fused
        // pool path (a panic on the first pool-parallel block).
        let text = format!(
            "{{\n  \"schema\": \"{PROFILE_SCHEMA}\",\n  \"runs\": [\n    \
             {{\"threads\": 2, \"block_rows\": 4611686018427387904}}\n  ]\n}}\n"
        );
        assert_eq!(
            parse_profile(&text),
            Err(ProfileError::Malformed { key: "block_rows" })
        );
        let text = text.replace(
            "\"block_rows\": 4611686018427387904",
            "\"tile_cols\": 1048577",
        );
        assert_eq!(
            parse_profile(&text),
            Err(ProfileError::Malformed { key: "tile_cols" })
        );
        // The bound itself is in range.
        let text = text.replace("1048577", "1048576");
        assert_eq!(parse_profile(&text).unwrap()[0].tile_cols, Some(1 << 20));
    }

    #[test]
    fn active_profile_is_stable() {
        // Cannot control the environment here (process-global); pin that
        // repeated reads agree.
        assert_eq!(active_profile(), active_profile());
    }
}
