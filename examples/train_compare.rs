//! The training comparison the paper cites from its companion work [15]:
//! RadiX-Net vs X-Net vs dense DNN on the same task, identical trainer.
//!
//! Reproduces the qualitative finding ("sparse neural networks can train to
//! the same arbitrary degree of precision as their dense counterparts")
//! on the procedural digit-raster task. Parameter counts show the storage
//! gap; accuracies show the precision parity.
//!
//! Run with: `cargo run --release --example train_compare`

use radixnet::data::digits;
use radixnet::net::{MixedRadixSystem, RadixNetSpec};
use radixnet::nn::{
    accuracy, train_classifier, Activation, Init, Loss, Network, Optimizer, TrainConfig,
};
use radixnet::xnet::{XNetKind, XNetSpec};

fn train_and_eval(name: &str, mut net: Network, seed: u64) {
    let data = digits(60, 0.25, 3);
    let (train, test) = data.split(0.8, 11);
    let mut opt = Optimizer::adam(0.005);
    let config = TrainConfig {
        epochs: 60,
        batch_size: 32,
        seed,
        parallel_chunks: 2,
        ..TrainConfig::default()
    };
    let history = train_classifier(&mut net, &train.x, &train.labels, &mut opt, &config);
    let test_acc = accuracy(&net.forward(&test.x), &test.labels);
    println!(
        "{name:<10} params {:>6}  density {:>6.3}  train {:.3}  test {:.3}",
        net.num_params(),
        net.density(),
        history.final_accuracy(),
        test_acc
    );
}

fn main() {
    println!("10-class digit rasters (64-dim), identical trainer; topology is the only variable\n");

    // RadiX-Net: N' = 64 via (4,4,4) with widths (1,2,2,1):
    // 64→128→128→64 at density 1/16.
    let radix_spec = RadixNetSpec::new(
        vec![MixedRadixSystem::new([4, 4, 4]).expect("valid")],
        vec![1, 2, 2, 1],
    )
    .expect("valid spec");
    let radix_net = Network::from_fnnt(
        radix_spec.build().fnnt(),
        Activation::Relu,
        Init::He,
        Loss::SoftmaxCrossEntropy,
        1,
    );
    train_and_eval("RadiX-Net", radix_net, 100);

    // X-Net: random expander at matched layer sizes and edge budget
    // (degree 8 of 128 ≈ density 1/16).
    let xnet = XNetSpec {
        layer_sizes: vec![64, 128, 128, 64],
        degree: 8,
        kind: XNetKind::Random { seed: 5 },
    }
    .build()
    .expect("connected draw");
    let xnet_net = Network::from_fnnt(
        &xnet,
        Activation::Relu,
        Init::He,
        Loss::SoftmaxCrossEntropy,
        2,
    );
    train_and_eval("X-Net", xnet_net, 200);

    // Dense baseline with the same layer sizes (~16× the parameters).
    let dense = Network::dense(
        &[64, 128, 128, 64],
        Activation::Relu,
        Init::He,
        Loss::SoftmaxCrossEntropy,
        3,
    );
    train_and_eval("Dense", dense, 300);

    println!("\nExpected shape (paper/companion): all three reach comparable *training*");
    println!("accuracy; the sparse nets use ~1/16 of the dense parameter count. Held-out");
    println!("accuracy shows a generalization gap at this toy sample size.");
}
