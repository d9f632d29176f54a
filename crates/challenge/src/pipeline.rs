//! Pipelined inference: batch tiles streamed through per-layer stage
//! threads over crossbeam channels.
//!
//! The batch-synchronous kernel (`infer`) finishes layer `l` on the whole
//! batch before starting layer `l+1`; the pipelined variant instead splits
//! the batch into row tiles and lets tile `t` run layer `l+1` while tile
//! `t+1` is still in layer `l` — the classic depth-pipelining trade-off the
//! DESIGN.md ablation list calls out. Results are bit-identical to the
//! batch-synchronous kernel because each tile's arithmetic is unchanged;
//! only the schedule differs.

use crossbeam::channel::bounded;

use radix_sparse::{DenseMatrix, Par};

use crate::infer::ChallengeNetwork;

/// Runs the network over `x` with the pipelined schedule: the batch is cut
/// into `tile_rows`-row tiles, and one OS thread per layer applies its
/// layer to tiles as they arrive.
///
/// # Panics
/// Panics if `tile_rows == 0` or `x.ncols() != net.n_in()`.
#[must_use]
pub fn forward_pipelined(
    net: &ChallengeNetwork,
    x: &DenseMatrix<f32>,
    tile_rows: usize,
) -> DenseMatrix<f32> {
    assert!(tile_rows > 0, "tile size must be positive");
    assert_eq!(x.ncols(), net.n_in(), "input width mismatch");
    let batch = x.nrows();
    if batch == 0 {
        let out_cols = net.layers().last().map_or(0, |w| w.ncols());
        return DenseMatrix::zeros(0, out_cols);
    }

    // Cut the input into tiles (index, rows).
    let tiles: Vec<(usize, DenseMatrix<f32>)> = (0..batch)
        .step_by(tile_rows)
        .enumerate()
        .map(|(t, start)| {
            let end = (start + tile_rows).min(batch);
            let mut tile = DenseMatrix::zeros(end - start, x.ncols());
            for (local, global) in (start..end).enumerate() {
                let dst: &mut [f32] = tile.row_mut(local);
                dst.copy_from_slice(x.row(global));
            }
            (t, tile)
        })
        .collect();
    let num_tiles = tiles.len();
    let layers = net.layers();
    let epi = net.epilogue();

    let out_cols = layers.last().unwrap().ncols();
    let mut collected: Vec<Option<DenseMatrix<f32>>> = vec![None; num_tiles];

    crossbeam::scope(|scope| {
        // Channel chain: feeder → stage_0 → stage_1 → … → collector.
        let (feed_tx, mut prev_rx) = bounded::<(usize, DenseMatrix<f32>)>(2);
        let mut stage_rxs = Vec::new();
        for w in layers {
            let (tx, rx) = bounded::<(usize, DenseMatrix<f32>)>(2);
            let in_rx = prev_rx;
            prev_rx = rx;
            stage_rxs.push((w, in_rx, tx));
        }
        let final_rx = prev_rx;

        for (w, in_rx, out_tx) in stage_rxs {
            scope.spawn(move |_| {
                // Output tiles are owned by the channel, so each is a fresh
                // buffer; the nonlinearity is fused into the prepared
                // kernel, and wide layers run the cache-tiled schedule
                // (serial within a stage — the stages themselves are the
                // parallelism here).
                for (t, tile) in in_rx {
                    let mut y = DenseMatrix::default();
                    w.spmm(&tile, &mut y, &epi, Par::Serial)
                        .expect("layer widths chain");
                    if out_tx.send((t, y)).is_err() {
                        break;
                    }
                }
            });
        }

        scope.spawn(move |_| {
            for (t, tile) in tiles {
                if feed_tx.send((t, tile)).is_err() {
                    break;
                }
            }
        });

        for (t, y) in final_rx {
            collected[t] = Some(y);
        }
    })
    .expect("pipeline threads must not panic");

    // Stitch tiles back together in order.
    let mut out = DenseMatrix::zeros(batch, out_cols);
    let mut row = 0usize;
    for tile in collected.into_iter().map(|t| t.expect("tile lost")) {
        for local in 0..tile.nrows() {
            let dst: &mut [f32] = out.row_mut(row);
            dst.copy_from_slice(tile.row(local));
            row += 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ChallengeConfig;
    use radix_data::sparse_binary_batch;

    fn net() -> ChallengeNetwork {
        ChallengeNetwork::from_config(&ChallengeConfig::preset(2, 4, 3)).unwrap()
    }

    #[test]
    fn pipelined_matches_batch_synchronous() {
        let n = net();
        let x = sparse_binary_batch(13, n.n_in(), 0.4, 0);
        let reference = n.forward(&x, false);
        for tile_rows in [1, 3, 5, 13, 20] {
            let piped = forward_pipelined(&n, &x, tile_rows);
            assert_eq!(piped, reference, "tile_rows = {tile_rows}");
        }
    }

    #[test]
    fn empty_batch_handled() {
        let n = net();
        let x = DenseMatrix::zeros(0, n.n_in());
        let y = forward_pipelined(&n, &x, 4);
        assert_eq!(y.shape(), (0, 16));
    }

    #[test]
    #[should_panic(expected = "tile size must be positive")]
    fn zero_tile_panics() {
        let n = net();
        let x = DenseMatrix::zeros(2, n.n_in());
        let _ = forward_pipelined(&n, &x, 0);
    }

    #[test]
    fn single_tile_degenerates_to_serial() {
        let n = net();
        let x = sparse_binary_batch(6, n.n_in(), 0.5, 2);
        assert_eq!(forward_pipelined(&n, &x, 100), n.forward(&x, false));
    }
}
