//! # radix-data
//!
//! Synthetic datasets for the RadiX-Net reproduction. The companion
//! training study and the Graph Challenge use MNIST-derived data we cannot
//! ship; these generators produce statistically equivalent laptop-scale
//! substitutes:
//!
//! * [`gaussian_blobs`], [`two_spirals`], [`checkerboard`] — classification
//!   tasks of graded difficulty,
//! * [`fn@digits`] — a procedural 8×8 digit-raster task standing in for MNIST,
//! * [`Teacher`] — teacher–student regression targets with known required
//!   expressiveness,
//! * [`sparse_binary_batch`] — sparse binary feature batches matching the
//!   Graph Challenge's thresholded-image inputs.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod challenge_input;
pub mod digits;
pub mod synthetic;
pub mod teacher;

pub use challenge_input::{active_counts, sparse_binary_batch};
pub use digits::{clean_glyph, digits, DIM as DIGIT_DIM, SIDE as DIGIT_SIDE};
pub use synthetic::{checkerboard, gaussian_blobs, two_spirals, Dataset};
pub use teacher::Teacher;
