//! Runs the Graph-Challenge-style inference benchmark across a ladder of
//! RadiX-Net network sizes and prints the Challenge metric (edges/second)
//! for the serial and Rayon-parallel schedules.
//!
//! Usage: `cargo run --release --bin challenge_inference [batch]`

use radix_challenge::{ChallengeConfig, ChallengeNetwork};
use radix_data::sparse_binary_batch;

fn main() {
    let batch: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(64);

    // (radix, depth_per_system, num_systems): scaled ladder echoing the
    // official 1024×120 … configurations.
    let ladder = [
        (2usize, 6usize, 4usize), //   64 neurons ×  24 layers, deg 2
        (4, 4, 6),                //  256 neurons ×  24 layers, deg 4
        (4, 5, 6),                // 1024 neurons ×  30 layers, deg 4
        (32, 2, 15),              // 1024 neurons ×  30 layers, deg 32
        (16, 3, 10),              // 4096 neurons ×  30 layers, deg 16
    ];

    println!("# Graph-Challenge-style inference, batch = {batch}");
    println!(
        "{:>8} {:>7} {:>5} {:>12} {:>14} {:>14}",
        "neurons", "layers", "deg", "edges", "serial_e/s", "rayon_e/s"
    );
    for (radix, k, s) in ladder {
        let config = ChallengeConfig::preset(radix, k, s);
        let net = ChallengeNetwork::from_config(&config).expect("valid config");
        let x = sparse_binary_batch(batch, net.n_in(), 0.3, 7);

        let (_, serial) = net.run(&x, false);
        let (_, parallel) = net.run(&x, true);

        println!(
            "{:>8} {:>7} {:>5} {:>12} {:>14.3e} {:>14.3e}",
            config.neurons(),
            config.num_layers(),
            radix,
            serial.edges_processed,
            serial.rate,
            parallel.rate
        );
    }
}
