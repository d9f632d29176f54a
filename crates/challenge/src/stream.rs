//! Streaming multi-batch runner with per-layer activation accounting —
//! the Challenge's "category" bookkeeping.
//!
//! The official benchmark processes the full input set in batches and
//! validates by counting, per input row, which output neurons remain
//! active. This module runs a sequence of batches through a
//! [`ChallengeNetwork`], accumulates per-layer activation statistics, and
//! produces the final active-neuron categories for validation against a
//! reference run.

use radix_sparse::{DenseMatrix, Par};

use crate::infer::ChallengeNetwork;

/// Per-layer activation statistics accumulated over a streamed run.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerActivationStats {
    /// Number of nonzero activations entering each layer (index 0 = input).
    pub active_per_layer: Vec<u64>,
    /// Total activation mass (sum of values) entering each layer.
    pub mass_per_layer: Vec<f64>,
    /// Rows processed.
    pub rows: usize,
}

/// Result of a streamed run: categories plus statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamResult {
    /// For each input row (in stream order), the sorted indices of output
    /// neurons that were active (> 0) — the Challenge's answer format.
    pub categories: Vec<Vec<usize>>,
    /// Accumulated per-layer statistics.
    pub stats: LayerActivationStats,
}

/// Runs a sequence of batches through the network, layer by layer,
/// accumulating activation statistics and collecting output categories.
///
/// # Panics
/// Panics if any batch's width differs from the network input width.
#[must_use]
pub fn run_stream(net: &ChallengeNetwork, batches: &[DenseMatrix<f32>]) -> StreamResult {
    let num_layers = net.layers().len();
    let mut stats = LayerActivationStats {
        active_per_layer: vec![0; num_layers + 1],
        mass_per_layer: vec![0.0; num_layers + 1],
        rows: 0,
    };
    let mut categories = Vec::new();
    // Ping-pong buffers shared across every batch in the stream: the
    // prepared kernels resize them in place, so steady-state batches run
    // allocation-free with the bias/ReLU/clamp epilogue fused in. Layers
    // run the cache-tiled pool-parallel kernel (the per-layer stats
    // recording needs every layer's full output, so the multi-layer fused
    // schedule does not apply here).
    let epi = net.epilogue();
    let mut buffers = radix_sparse::kernel::PingPong::new();
    for batch in batches {
        assert_eq!(batch.ncols(), net.n_in(), "batch width mismatch");
        stats.rows += batch.nrows();
        record(&mut stats, 0, batch);
        let y = buffers.run(batch, net.layers().len(), |l, src, dst| {
            net.layers()[l]
                .spmm(src, dst, &epi, Par::Pool)
                .expect("widths chain");
            record(&mut stats, l + 1, dst);
        });
        for i in 0..y.nrows() {
            let active: Vec<usize> = y
                .row(i)
                .iter()
                .enumerate()
                .filter(|(_, v)| **v > 0.0)
                .map(|(j, _)| j)
                .collect();
            categories.push(active);
        }
    }
    StreamResult { categories, stats }
}

fn record(stats: &mut LayerActivationStats, layer: usize, y: &DenseMatrix<f32>) {
    let mut active = 0u64;
    let mut mass = 0.0f64;
    for &v in y.as_slice() {
        if v != 0.0 {
            active += 1;
            mass += f64::from(v);
        }
    }
    stats.active_per_layer[layer] += active;
    stats.mass_per_layer[layer] += mass;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ChallengeConfig;
    use radix_data::sparse_binary_batch;

    fn net() -> ChallengeNetwork {
        ChallengeNetwork::from_config(&ChallengeConfig::preset(2, 4, 2)).unwrap()
    }

    #[test]
    fn stream_matches_single_batch_forward() {
        let n = net();
        let x = sparse_binary_batch(10, n.n_in(), 0.5, 0);
        let result = run_stream(&n, std::slice::from_ref(&x));
        let reference = n.forward(&x, false);
        assert_eq!(result.categories.len(), 10);
        for (i, cats) in result.categories.iter().enumerate() {
            let expect: Vec<usize> = reference
                .row(i)
                .iter()
                .enumerate()
                .filter(|(_, v)| **v > 0.0)
                .map(|(j, _)| j)
                .collect();
            assert_eq!(cats, &expect, "row {i}");
        }
    }

    #[test]
    fn stream_splits_are_equivalent() {
        // Two batches of 5 == one batch of 10, in order.
        let n = net();
        let x = sparse_binary_batch(10, n.n_in(), 0.5, 1);
        let whole = run_stream(&n, std::slice::from_ref(&x));
        let mut a = DenseMatrix::zeros(5, n.n_in());
        let mut b = DenseMatrix::zeros(5, n.n_in());
        for i in 0..5 {
            let dst: &mut [f32] = a.row_mut(i);
            dst.copy_from_slice(x.row(i));
            let dst: &mut [f32] = b.row_mut(i);
            dst.copy_from_slice(x.row(i + 5));
        }
        let split = run_stream(&n, &[a, b]);
        assert_eq!(whole.categories, split.categories);
        assert_eq!(whole.stats, split.stats);
    }

    #[test]
    fn stats_monotone_sanity() {
        let n = net();
        let x = sparse_binary_batch(8, n.n_in(), 0.75, 2);
        let result = run_stream(&n, &[x]);
        assert_eq!(result.stats.rows, 8);
        // Input activations recorded.
        assert_eq!(result.stats.active_per_layer[0], 8 * 12); // ceil(16·0.75)
                                                              // Gain-2 dynamics above the fixed point: mass should not collapse.
        assert!(result.stats.mass_per_layer.last().unwrap() > &0.0);
    }

    #[test]
    fn empty_stream_is_empty() {
        let n = net();
        let result = run_stream(&n, &[]);
        assert!(result.categories.is_empty());
        assert_eq!(result.stats.rows, 0);
    }
}
