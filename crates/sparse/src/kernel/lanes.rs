//! Vector-width-shaped dot-product primitives for the gather kernels.
//!
//! Every hot loop in this crate's tiled engine bottoms out in the same
//! operation: a sparse dot product `Σ_e x[idx(e)] · w(e)` accumulated in
//! ascending entry order (the bitwise-reproducibility invariant every
//! kernel in the workspace is pinned against). The straightforward scalar
//! loop leaves vectorization entirely to the autovectorizer, which has to
//! *prove* the reduction is profitable and regularly gives up on the
//! gather-indexed form. This module restructures the dot so codegen is
//! vector-width-shaped **by construction**, in safe code:
//!
//! * entries are processed in fixed chunks of [`LANE_WIDTH`] (= 8, one
//!   AVX2 register of `f32` lanes, two SSE/NEON registers);
//! * each chunk computes its 8 products into a `[T; LANE_WIDTH]` block —
//!   the products are independent, so the compiler is free to emit one
//!   gather-multiply per lane with no reduction-order proof needed;
//! * the product block is then folded into the scalar accumulator
//!   **sequentially, in ascending entry order** — multiplication results
//!   are identical wherever they are computed, and the adds happen in
//!   exactly the order the scalar loop performed them, so results are
//!   bitwise identical to the pre-chunk kernels (pinned by
//!   `tests/lane_chunks.rs`);
//! * a scalar remainder loop covers the `len % LANE_WIDTH` tail.
//!
//! The constant-degree ELL layout gets one step further: the degree of a
//! CSR-stored matrix with constant row degree (an X-Net, a random net, a
//! RadiX layer under a column permutation) is fixed per matrix, so
//! [`gather_rows_ell`] dispatches degrees 8 and 16 (1 and 2 whole chunks,
//! no remainder) to monomorphized whole-row loops ([`rows_fixed_chunks`])
//! whose trip counts are compile-time constants. RadiX layers stored as
//! diagonals never reach this path.

use crate::scalar::Scalar;

/// Entries per lane chunk in the vector-width-shaped dot products: 8
/// `f32` lanes is one AVX2 register (two SSE/NEON registers), and `f64`
/// halves cleanly. The remainder of a non-multiple length runs a scalar
/// epilogue loop.
pub const LANE_WIDTH: usize = 8;

/// `Σ_e xrow[src[e] as usize] · vals[e]` over ascending `e` — the forward
/// tiled gather's per-column dot, with `u32` source rows. Lane-chunked;
/// bitwise identical to the plain scalar loop (see the module docs).
#[inline(always)]
pub(crate) fn dot_src_u32<T: Scalar>(src: &[u32], vals: &[T], xrow: &[T]) -> T {
    debug_assert_eq!(src.len(), vals.len());
    let n = src.len();
    let chunks = n / LANE_WIDTH;
    let mut acc = T::ZERO;
    for c in 0..chunks {
        let base = c * LANE_WIDTH;
        let mut prod = [T::ZERO; LANE_WIDTH];
        for ((p, &i), &wv) in prod
            .iter_mut()
            .zip(&src[base..base + LANE_WIDTH])
            .zip(&vals[base..base + LANE_WIDTH])
        {
            *p = xrow[i as usize].mul(wv);
        }
        for &p in &prod {
            acc = acc.add(p);
        }
    }
    for (&i, &wv) in src[chunks * LANE_WIDTH..n]
        .iter()
        .zip(&vals[chunks * LANE_WIDTH..n])
    {
        acc = acc.add(xrow[i as usize].mul(wv));
    }
    acc
}

/// `Σ_e xrow[inds[e]] · vals[e]` over ascending `e` — the transposed
/// gather's per-row dot (ELL slices and CSR row slices both land here).
/// Lane-chunked; bitwise identical to the plain scalar loop.
#[inline(always)]
pub(crate) fn dot_idx<T: Scalar>(inds: &[usize], vals: &[T], xrow: &[T]) -> T {
    debug_assert_eq!(inds.len(), vals.len());
    let n = inds.len();
    let chunks = n / LANE_WIDTH;
    let mut acc = T::ZERO;
    for c in 0..chunks {
        let base = c * LANE_WIDTH;
        acc = fold_chunk(
            acc,
            &inds[base..base + LANE_WIDTH],
            &vals[base..base + LANE_WIDTH],
            xrow,
        );
    }
    for (&j, &wv) in inds[chunks * LANE_WIDTH..n]
        .iter()
        .zip(&vals[chunks * LANE_WIDTH..n])
    {
        acc = acc.add(xrow[j].mul(wv));
    }
    acc
}

/// One lane chunk: compute [`LANE_WIDTH`] independent products into a
/// register block, then fold them into `acc` in ascending entry order.
#[inline(always)]
fn fold_chunk<T: Scalar>(mut acc: T, inds: &[usize], vals: &[T], xrow: &[T]) -> T {
    let mut prod = [T::ZERO; LANE_WIDTH];
    for ((p, &j), &wv) in prod.iter_mut().zip(inds).zip(vals) {
        *p = xrow[j].mul(wv);
    }
    for &p in &prod {
        acc = acc.add(p);
    }
    acc
}

/// One block of transposed-gather output rows in the ELL layout:
/// `oseg[il] = Σ_e xrow[inds[il·d + e]] · vals[il·d + e]`, `e` ascending
/// within each fixed-degree row. Shared by the tiled transposed kernel
/// (pre-sliced tile ranges) and the untiled per-row gather (full arrays) —
/// local row `il` always starts at offset `il · d`.
///
/// Degrees that are whole chunk multiples (8 and 16 — the committed RadiX
/// bench shapes) dispatch to monomorphized row loops whose chunk counts
/// are compile-time constants; everything else runs the generic
/// chunk-plus-remainder dot.
#[inline(never)]
pub(crate) fn gather_rows_ell<T: Scalar>(
    inds: &[usize],
    vals: &[T],
    d: usize,
    xrow: &[T],
    oseg: &mut [T],
) {
    match (d / LANE_WIDTH, d % LANE_WIDTH) {
        (1, 0) => rows_fixed_chunks::<T, 1>(inds, vals, xrow, oseg),
        (2, 0) => rows_fixed_chunks::<T, 2>(inds, vals, xrow, oseg),
        _ => {
            for (il, o) in oseg.iter_mut().enumerate() {
                let lo = il * d;
                *o = dot_idx(&inds[lo..lo + d], &vals[lo..lo + d], xrow);
            }
        }
    }
}

/// [`gather_rows_ell`] monomorphized for a degree of exactly `CHUNKS`
/// whole lane chunks: the per-row loop has a compile-time trip count and
/// no remainder epilogue.
#[inline(never)]
fn rows_fixed_chunks<T: Scalar, const CHUNKS: usize>(
    inds: &[usize],
    vals: &[T],
    xrow: &[T],
    oseg: &mut [T],
) {
    let d = CHUNKS * LANE_WIDTH;
    for (il, o) in oseg.iter_mut().enumerate() {
        let mut acc = T::ZERO;
        for c in 0..CHUNKS {
            let base = il * d + c * LANE_WIDTH;
            acc = fold_chunk(
                acc,
                &inds[base..base + LANE_WIDTH],
                &vals[base..base + LANE_WIDTH],
                xrow,
            );
        }
        *o = acc;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The pre-chunk scalar reference: multiply-add per entry, ascending.
    fn scalar_dot(inds: &[usize], vals: &[f32], xrow: &[f32]) -> f32 {
        let mut acc = 0.0f32;
        for (&j, &wv) in inds.iter().zip(vals) {
            acc += xrow[j] * wv;
        }
        acc
    }

    #[test]
    fn dot_idx_matches_scalar_bitwise_at_every_length() {
        let xrow: Vec<f32> = (0..64).map(|i| (i as f32 * 0.37 - 7.3) / 3.0).collect();
        for len in 0..=33 {
            let inds: Vec<usize> = (0..len).map(|e| (e * 13 + 5) % 64).collect();
            let vals: Vec<f32> = (0..len).map(|e| e as f32 * 0.11 - 1.7).collect();
            let got = dot_idx(&inds, &vals, &xrow);
            let want = scalar_dot(&inds, &vals, &xrow);
            assert_eq!(got.to_bits(), want.to_bits(), "len {len}");
        }
    }

    #[test]
    fn dot_src_u32_matches_scalar_bitwise_at_every_length() {
        let xrow: Vec<f32> = (0..64).map(|i| (i as f32 * 0.29 + 0.1) * 0.5).collect();
        for len in 0..=33 {
            let src: Vec<u32> = (0..len).map(|e| ((e * 7 + 3) % 64) as u32).collect();
            let vals: Vec<f32> = (0..len).map(|e| 1.0 - e as f32 * 0.23).collect();
            let inds: Vec<usize> = src.iter().map(|&i| i as usize).collect();
            let got = dot_src_u32(&src, &vals, &xrow);
            let want = scalar_dot(&inds, &vals, &xrow);
            assert_eq!(got.to_bits(), want.to_bits(), "len {len}");
        }
    }

    #[test]
    fn ell_rows_match_scalar_for_specialized_and_generic_degrees() {
        let xrow: Vec<f32> = (0..48).map(|i| (i as f32 - 20.0) * 0.13).collect();
        for d in 0..=17 {
            let rows = 5;
            let inds: Vec<usize> = (0..rows * d).map(|e| (e * 11 + 2) % 48).collect();
            let vals: Vec<f32> = (0..rows * d).map(|e| e as f32 * 0.07 - 0.9).collect();
            let mut out = vec![9.0f32; rows];
            gather_rows_ell(&inds, &vals, d, &xrow, &mut out);
            for (il, &got) in out.iter().enumerate() {
                let lo = il * d;
                let want = scalar_dot(&inds[lo..lo + d], &vals[lo..lo + d], &xrow);
                assert_eq!(got.to_bits(), want.to_bits(), "degree {d} row {il}");
            }
        }
    }
}
