//! End-to-end Graph-Challenge-style run: generate a RadiX-Net benchmark
//! network, feed it sparse binary inputs, and report the Challenge metric.
//!
//! Run with: `cargo run --release --example graph_challenge`

use radixnet::challenge::{ChallengeConfig, ChallengeNetwork};
use radixnet::data::sparse_binary_batch;

fn main() {
    // 1024 neurons × 30 layers at 32 connections/neuron — the smallest
    // official Challenge configuration's shape at 1/4 the depth.
    let config = ChallengeConfig::preset(32, 2, 15);
    println!(
        "network: {} neurons × {} layers, {} edges/layer ({} total)",
        config.neurons(),
        config.num_layers(),
        config.edges_per_layer(),
        config.total_edges()
    );

    let net = ChallengeNetwork::from_config(&config).expect("valid config");
    let batch = 128;
    let x = sparse_binary_batch(batch, net.n_in(), 0.3, 42);

    let (y_serial, stats_serial) = net.run(&x, false);
    let (y_parallel, stats_parallel) = net.run(&x, true);
    assert_eq!(y_serial, y_parallel, "schedules must agree bitwise");

    println!("batch        : {batch}");
    println!(
        "final active : {} / {}",
        stats_serial.final_active,
        batch * config.neurons()
    );
    println!("serial rate  : {:.3e} edges/s", stats_serial.rate);
    println!("rayon rate   : {:.3e} edges/s", stats_parallel.rate);
    println!(
        "speedup      : {:.2}x",
        stats_parallel.rate / stats_serial.rate
    );
}
