//! PRIME's small MNIST benchmarks: CNN-1 and MLP-L.
//!
//! PRIME evaluates (among others) a small LeNet-style CNN ("CNN-1") and a
//! large multilayer perceptron ("MLP-L") on MNIST. The TIMELY paper reuses
//! both so it can compare against PRIME on PRIME's own benchmarks and to show
//! that the energy-efficiency gains shrink for models that fit entirely in a
//! single PRIME bank (Fig. 8(a) discussion).

use crate::layer::{ConvSpec, FcSpec, PoolSpec};
use crate::model::{Model, ModelBuilder};
use crate::shape::FeatureMap;

/// CNN-1: a LeNet-style convolutional network for MNIST
/// (`conv5x5-6 → pool → conv5x5-16 → pool → fc-120 → fc-84 → fc-10`).
#[expect(
    clippy::expect_used,
    reason = "static zoo definitions are internally consistent; covered by zoo tests"
)]
pub fn cnn_1() -> Model {
    ModelBuilder::new("CNN-1", FeatureMap::new(1, 28, 28))
        .conv_relu("conv1", ConvSpec::new(1, 6, 5, 1, 2))
        .pool("pool1", PoolSpec::max(2, 2))
        .conv_relu("conv2", ConvSpec::new(6, 16, 5, 1, 0))
        .pool("pool2", PoolSpec::max(2, 2))
        .fc_relu("fc1", FcSpec::new(16 * 5 * 5, 120))
        .fc_relu("fc2", FcSpec::new(120, 84))
        .fc("fc3", FcSpec::new(84, 10))
        .build()
        .expect("CNN-1 definition is internally consistent")
}

/// MLP-L: PRIME's large MNIST perceptron (`784 → 1500 → 1000 → 500 → 10`).
#[expect(
    clippy::expect_used,
    reason = "static zoo definitions are internally consistent; covered by zoo tests"
)]
pub fn mlp_l() -> Model {
    ModelBuilder::new("MLP-L", FeatureMap::vector(784))
        .fc_relu("fc1", FcSpec::new(784, 1500))
        .fc_relu("fc2", FcSpec::new(1500, 1000))
        .fc_relu("fc3", FcSpec::new(1000, 500))
        .fc("fc4", FcSpec::new(500, 10))
        .build()
        .expect("MLP-L definition is internally consistent")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cnn_1_shapes_follow_lenet() {
        let shapes = cnn_1().layer_shapes().unwrap();
        let conv2 = shapes.iter().find(|(l, _, _)| l.name == "conv2").unwrap();
        assert_eq!(conv2.1, FeatureMap::new(6, 14, 14));
        assert_eq!(conv2.2, FeatureMap::new(16, 10, 10));
        assert_eq!(cnn_1().output_shape().unwrap(), FeatureMap::vector(10));
    }

    #[test]
    fn cnn_1_is_tiny() {
        assert!(cnn_1().total_weights() < 100_000);
        assert!(cnn_1().total_macs().unwrap() < 1_000_000);
    }

    #[test]
    fn mlp_l_weight_count_matches_closed_form() {
        let expected = 784 * 1500 + 1500 * 1000 + 1000 * 500 + 500 * 10;
        assert_eq!(mlp_l().total_weights(), expected);
        // For an MLP, MACs == weights (one multiply per weight per inference).
        assert_eq!(mlp_l().total_macs().unwrap(), expected as u64);
    }

    #[test]
    fn mlp_l_has_no_conv_layers() {
        assert_eq!(mlp_l().conv_layer_count(), 0);
        assert_eq!(mlp_l().fc_layer_count(), 4);
    }
}
