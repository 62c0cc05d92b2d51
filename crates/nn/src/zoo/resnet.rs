//! The ResNet family (He et al., CVPR 2016).
//!
//! ResNet-18 uses basic blocks (two 3×3 convolutions); ResNet-50/101/152 use
//! bottleneck blocks (1×1 → 3×3 → 1×1 with a 4× channel expansion). Projection
//! shortcuts (1×1 convolutions) are included where the original architecture
//! uses them (the first block of every stage whose input shape differs from
//! its output shape), and identity shortcuts are modeled as element-wise
//! additions.

use crate::layer::{ConvSpec, FcSpec, PoolSpec};
use crate::model::{Model, ModelBuilder};
use crate::shape::FeatureMap;

/// Stage widths shared by every ResNet variant.
const STAGE_CHANNELS: [usize; 4] = [64, 128, 256, 512];

fn stem(builder: ModelBuilder) -> ModelBuilder {
    builder
        .conv_relu("conv1", ConvSpec::new(3, 64, 7, 2, 3))
        .pool("pool1", PoolSpec::max(2, 2))
}

fn head(builder: ModelBuilder, in_features: usize) -> ModelBuilder {
    builder
        .pool("avgpool", PoolSpec::average(7, 7))
        .fc("fc", FcSpec::new(in_features, 1000))
}

/// Builds a ResNet with basic (two 3×3 convolution) blocks.
#[expect(
    clippy::expect_used,
    reason = "static zoo definitions are internally consistent; covered by zoo tests"
)]
fn resnet_basic(name: &str, blocks_per_stage: [usize; 4]) -> Model {
    let mut builder = stem(ModelBuilder::new(name, FeatureMap::new(3, 224, 224)));
    let mut in_channels = 64;
    for (stage_idx, &num_blocks) in blocks_per_stage.iter().enumerate() {
        let channels = STAGE_CHANNELS[stage_idx];
        for block in 0..num_blocks {
            let stride = if stage_idx > 0 && block == 0 { 2 } else { 1 };
            let prefix = format!("res{}_{}", stage_idx + 2, block + 1);
            let needs_projection = in_channels != channels || stride != 1;
            builder = builder
                .conv_relu(
                    format!("{prefix}_a"),
                    ConvSpec::new(in_channels, channels, 3, stride, 1),
                )
                .conv(
                    format!("{prefix}_b"),
                    ConvSpec::new(channels, channels, 3, 1, 1),
                );
            if needs_projection {
                builder = builder.layer(crate::layer::Layer::shortcut(
                    format!("{prefix}_proj"),
                    ConvSpec::new(in_channels, channels, 1, stride, 0),
                ));
            }
            builder = builder
                .add(format!("{prefix}_add"))
                .relu(format!("{prefix}_relu"));
            in_channels = channels;
        }
    }
    head(builder, in_channels)
        .build()
        .expect("ResNet basic definitions are consistent")
}

/// Builds a ResNet with bottleneck (1×1 → 3×3 → 1×1, 4× expansion) blocks.
#[expect(
    clippy::expect_used,
    reason = "static zoo definitions are internally consistent; covered by zoo tests"
)]
fn resnet_bottleneck(name: &str, blocks_per_stage: [usize; 4]) -> Model {
    const EXPANSION: usize = 4;
    let mut builder = stem(ModelBuilder::new(name, FeatureMap::new(3, 224, 224)));
    let mut in_channels = 64;
    for (stage_idx, &num_blocks) in blocks_per_stage.iter().enumerate() {
        let mid = STAGE_CHANNELS[stage_idx];
        let out = mid * EXPANSION;
        for block in 0..num_blocks {
            let stride = if stage_idx > 0 && block == 0 { 2 } else { 1 };
            let prefix = format!("res{}_{}", stage_idx + 2, block + 1);
            let needs_projection = in_channels != out || stride != 1;
            builder = builder
                .conv_relu(
                    format!("{prefix}_a"),
                    ConvSpec::new(in_channels, mid, 1, 1, 0),
                )
                .conv_relu(format!("{prefix}_b"), ConvSpec::new(mid, mid, 3, stride, 1))
                .conv(format!("{prefix}_c"), ConvSpec::new(mid, out, 1, 1, 0));
            if needs_projection {
                builder = builder.layer(crate::layer::Layer::shortcut(
                    format!("{prefix}_proj"),
                    ConvSpec::new(in_channels, out, 1, stride, 0),
                ));
            }
            builder = builder
                .add(format!("{prefix}_add"))
                .relu(format!("{prefix}_relu"));
            in_channels = out;
        }
    }
    head(builder, in_channels)
        .build()
        .expect("ResNet bottleneck definitions are consistent")
}

/// ResNet-18 (basic blocks, [2, 2, 2, 2]).
pub fn resnet_18() -> Model {
    resnet_basic("ResNet-18", [2, 2, 2, 2])
}

/// ResNet-50 (bottleneck blocks, [3, 4, 6, 3]).
pub fn resnet_50() -> Model {
    resnet_bottleneck("ResNet-50", [3, 4, 6, 3])
}

/// ResNet-101 (bottleneck blocks, [3, 4, 23, 3]).
pub fn resnet_101() -> Model {
    resnet_bottleneck("ResNet-101", [3, 4, 23, 3])
}

/// ResNet-152 (bottleneck blocks, [3, 8, 36, 3]).
pub fn resnet_152() -> Model {
    resnet_bottleneck("ResNet-152", [3, 8, 36, 3])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resnet_18_macs_match_published_value() {
        // ResNet-18: ~1.82 GMACs (ignoring the tiny downsample convs the
        // published number includes, tolerance is generous).
        let gmacs = resnet_18().total_macs().unwrap() as f64 / 1e9;
        assert!((1.6..2.1).contains(&gmacs), "got {gmacs} GMACs");
    }

    #[test]
    fn resnet_50_macs_and_params_match_published_values() {
        let model = resnet_50();
        let gmacs = model.total_macs().unwrap() as f64 / 1e9;
        // ResNet-50: ~3.86 GMACs, ~25.5 M params (conv + fc weights only,
        // batch-norm parameters excluded).
        assert!((3.5..4.3).contains(&gmacs), "got {gmacs} GMACs");
        let mparams = model.total_weights() as f64 / 1e6;
        assert!((22.0..27.0).contains(&mparams), "got {mparams} M params");
    }

    #[test]
    fn resnet_101_and_152_are_progressively_larger() {
        let m50 = resnet_50().total_macs().unwrap();
        let m101 = resnet_101().total_macs().unwrap();
        let m152 = resnet_152().total_macs().unwrap();
        assert!(m101 > m50);
        assert!(m152 > m101);
        // ResNet-101 ~7.6 GMACs, ResNet-152 ~11.3 GMACs.
        assert!((7.0..8.5).contains(&(m101 as f64 / 1e9)));
        assert!((10.5..12.5).contains(&(m152 as f64 / 1e9)));
    }

    #[test]
    fn final_feature_map_is_512_or_2048_by_7x7() {
        let shapes = resnet_18().layer_shapes().unwrap();
        let avg_idx = shapes
            .iter()
            .position(|(l, _, _)| l.name == "avgpool")
            .unwrap();
        assert_eq!(shapes[avg_idx].1, FeatureMap::new(512, 7, 7));

        let shapes = resnet_152().layer_shapes().unwrap();
        let avg_idx = shapes
            .iter()
            .position(|(l, _, _)| l.name == "avgpool")
            .unwrap();
        assert_eq!(shapes[avg_idx].1, FeatureMap::new(2048, 7, 7));
    }

    #[test]
    fn classification_head_outputs_1000_classes() {
        for model in [resnet_18(), resnet_50(), resnet_101(), resnet_152()] {
            assert_eq!(model.output_shape().unwrap(), FeatureMap::vector(1000));
        }
    }
}
