//! SqueezeNet v1.0 (Iandola et al., 2016).
//!
//! SqueezeNet is the paper's example of a *compact* CNN: its activations fit
//! inside a single PRIME bank / ISAAC tile, so the relative benefit of
//! TIMELY's data-locality features shrinks (Fig. 8(a) discussion). Fire
//! modules are expressed with [`crate::layer::LayerKind::Branch`] for the
//! expand stage (1×1 and 3×3 expansions concatenated along channels).

use crate::layer::{ConvSpec, Layer, PoolSpec};
use crate::model::{Model, ModelBuilder};
use crate::shape::FeatureMap;

/// Appends one fire module: squeeze 1×1 to `squeeze` channels, then parallel
/// 1×1/3×3 expansions to `expand` channels each (output = `2 * expand`).
fn fire(
    builder: ModelBuilder,
    index: usize,
    in_channels: usize,
    squeeze: usize,
    expand: usize,
) -> ModelBuilder {
    builder
        .conv_relu(
            format!("fire{index}_squeeze"),
            ConvSpec::new(in_channels, squeeze, 1, 1, 0),
        )
        .layer(Layer::branch(
            format!("fire{index}_expand"),
            vec![
                ConvSpec::new(squeeze, expand, 1, 1, 0),
                ConvSpec::new(squeeze, expand, 3, 1, 1),
            ],
        ))
        .relu(format!("fire{index}_relu"))
}

/// SqueezeNet v1.0: ~0.86 GMACs, ~1.25 M parameters, 1000-way classifier.
#[expect(
    clippy::expect_used,
    reason = "static zoo definitions are internally consistent; covered by zoo tests"
)]
pub fn squeezenet() -> Model {
    let mut b = ModelBuilder::new("SqueezeNet", FeatureMap::new(3, 224, 224))
        .conv_relu("conv1", ConvSpec::new(3, 96, 7, 2, 2))
        .pool("pool1", PoolSpec::max(3, 2));
    b = fire(b, 2, 96, 16, 64);
    b = fire(b, 3, 128, 16, 64);
    b = fire(b, 4, 128, 32, 128);
    b = b.pool("pool4", PoolSpec::max(3, 2));
    b = fire(b, 5, 256, 32, 128);
    b = fire(b, 6, 256, 48, 192);
    b = fire(b, 7, 384, 48, 192);
    b = fire(b, 8, 384, 64, 256);
    b = b.pool("pool8", PoolSpec::max(3, 2));
    b = fire(b, 9, 512, 64, 256);
    b = b
        .conv_relu("conv10", ConvSpec::new(512, 1000, 1, 1, 0))
        .pool("avgpool", PoolSpec::average(13, 13));
    b.build()
        .expect("SqueezeNet definition is internally consistent")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn squeezenet_parameter_count_is_about_1_25_m() {
        let mparams = squeezenet().total_weights() as f64 / 1e6;
        assert!((1.0..1.5).contains(&mparams), "got {mparams} M params");
    }

    #[test]
    fn squeezenet_macs_are_under_a_gigamac() {
        let gmacs = squeezenet().total_macs().unwrap() as f64 / 1e9;
        assert!((0.6..1.1).contains(&gmacs), "got {gmacs} GMACs");
    }

    #[test]
    fn squeezenet_is_the_smallest_imagenet_benchmark() {
        let sq = squeezenet().total_weights();
        let vgg = crate::zoo::vgg_d().total_weights();
        assert!(
            sq * 50 < vgg,
            "SqueezeNet has 50x fewer parameters than VGG"
        );
    }

    #[test]
    fn squeezenet_output_is_1000_classes() {
        assert_eq!(
            squeezenet().output_shape().unwrap(),
            FeatureMap::vector(1000)
        );
    }

    #[test]
    fn fire_modules_concatenate_expand_channels() {
        let shapes = squeezenet().layer_shapes().unwrap();
        let fire2 = shapes
            .iter()
            .find(|(l, _, _)| l.name == "fire2_expand")
            .unwrap();
        assert_eq!(fire2.2.channels, 128);
    }
}
