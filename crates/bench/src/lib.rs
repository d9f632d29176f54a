//! The machine autotuner behind `make calibrate` ([`autotune`], driven by
//! `src/bin/calibrate.rs`) and the profile round-trip check behind
//! `make profile-check` (`src/bin/profile_check.rs`). Performance is
//! measured by the end-to-end benchmark under `benchmark/` and judged by
//! `scripts/ab.sh`; nothing here gates a change.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod autotune;
