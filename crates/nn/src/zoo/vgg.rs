//! The VGG family (Simonyan & Zisserman, ICLR 2015).
//!
//! The paper's benchmark names map onto the original VGG configurations as
//! follows (this is the mapping ISAAC uses):
//!
//! | Benchmark | VGG configuration | Depth |
//! |---|---|---|
//! | VGG-1 | A | 11 weight layers |
//! | VGG-2 | B | 13 weight layers |
//! | VGG-3 | C | 16 weight layers (1×1 convolutions in the last three blocks) |
//! | VGG-4 | E | 19 weight layers |
//! | VGG-D | D | 16 weight layers (the classic "VGG-16") |

use crate::layer::{ConvSpec, FcSpec, PoolSpec};
use crate::model::{Model, ModelBuilder};
use crate::shape::FeatureMap;

/// Per-block configuration: `(number of 3x3 convs, number of 1x1 convs, output channels)`.
type Block = (usize, usize, usize);

#[expect(
    clippy::expect_used,
    reason = "static zoo definitions are internally consistent; covered by zoo tests"
)]
fn vgg_from_blocks(name: &str, blocks: &[Block]) -> Model {
    let mut builder = ModelBuilder::new(name, FeatureMap::new(3, 224, 224));
    let mut in_channels = 3;
    for (block_idx, &(convs3, convs1, channels)) in blocks.iter().enumerate() {
        let block = block_idx + 1;
        for conv_idx in 0..convs3 {
            let layer_name = format!("conv{}_{}", block, conv_idx + 1);
            builder = builder.conv_relu(layer_name, ConvSpec::new(in_channels, channels, 3, 1, 1));
            in_channels = channels;
        }
        for conv_idx in 0..convs1 {
            let layer_name = format!("conv{}_{}", block, convs3 + conv_idx + 1);
            builder = builder.conv_relu(layer_name, ConvSpec::new(in_channels, channels, 1, 1, 0));
            in_channels = channels;
        }
        builder = builder.pool(format!("pool{block}"), PoolSpec::max(2, 2));
    }
    builder = builder
        .fc_relu("fc6", FcSpec::new(512 * 7 * 7, 4096))
        .fc_relu("fc7", FcSpec::new(4096, 4096))
        .fc("fc8", FcSpec::new(4096, 1000));
    builder
        .build()
        .expect("VGG zoo definitions are internally consistent")
}

/// VGG configuration D — the classic VGG-16 used as "VGG-D" in PRIME's and the
/// paper's evaluation (~15.3 GMACs, ~138 M parameters).
pub fn vgg_d() -> Model {
    vgg_from_blocks(
        "VGG-D",
        &[
            (2, 0, 64),
            (2, 0, 128),
            (3, 0, 256),
            (3, 0, 512),
            (3, 0, 512),
        ],
    )
}

/// VGG configuration A (11 weight layers) — "VGG-1" in ISAAC's benchmark set.
pub fn vgg_1() -> Model {
    vgg_from_blocks(
        "VGG-1",
        &[
            (1, 0, 64),
            (1, 0, 128),
            (2, 0, 256),
            (2, 0, 512),
            (2, 0, 512),
        ],
    )
}

/// VGG configuration B (13 weight layers) — "VGG-2" in ISAAC's benchmark set.
pub fn vgg_2() -> Model {
    vgg_from_blocks(
        "VGG-2",
        &[
            (2, 0, 64),
            (2, 0, 128),
            (2, 0, 256),
            (2, 0, 512),
            (2, 0, 512),
        ],
    )
}

/// VGG configuration C (16 weight layers, with 1×1 convolutions closing the
/// last three blocks) — "VGG-3" in ISAAC's benchmark set.
pub fn vgg_3() -> Model {
    vgg_from_blocks(
        "VGG-3",
        &[
            (2, 0, 64),
            (2, 0, 128),
            (2, 1, 256),
            (2, 1, 512),
            (2, 1, 512),
        ],
    )
}

/// VGG configuration E (19 weight layers) — "VGG-4" in ISAAC's benchmark set.
pub fn vgg_4() -> Model {
    vgg_from_blocks(
        "VGG-4",
        &[
            (2, 0, 64),
            (2, 0, 128),
            (4, 0, 256),
            (4, 0, 512),
            (4, 0, 512),
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::LayerKind;

    fn weighted_layers(model: &Model) -> usize {
        model.weighted_layer_count()
    }

    #[test]
    fn vgg_depths_match_configurations() {
        assert_eq!(weighted_layers(&vgg_1()), 11);
        assert_eq!(weighted_layers(&vgg_2()), 13);
        assert_eq!(weighted_layers(&vgg_3()), 16);
        assert_eq!(weighted_layers(&vgg_d()), 16);
        assert_eq!(weighted_layers(&vgg_4()), 19);
    }

    #[test]
    fn vgg_d_macs_and_params_match_published_values() {
        let model = vgg_d();
        let gmacs = model.total_macs().unwrap() as f64 / 1e9;
        // VGG-16: ~15.47 GMACs and ~138.3 M parameters.
        assert!((gmacs - 15.47).abs() < 0.2, "got {gmacs} GMACs");
        let mparams = model.total_weights() as f64 / 1e6;
        assert!((mparams - 138.3).abs() < 1.0, "got {mparams} M params");
    }

    #[test]
    fn vgg_d_conv_layer_count_is_thirteen() {
        assert_eq!(vgg_d().conv_layer_count(), 13);
        assert_eq!(vgg_d().fc_layer_count(), 3);
    }

    #[test]
    fn vgg_3_has_one_by_one_convolutions() {
        let model = vgg_3();
        let has_1x1 = model
            .layers()
            .iter()
            .any(|l| matches!(l.kind, LayerKind::Conv(c) if c.kernel_h == 1 && c.kernel_w == 1));
        assert!(has_1x1);
    }

    #[test]
    fn all_vgg_variants_reach_7x7_before_fc() {
        for model in [vgg_1(), vgg_2(), vgg_3(), vgg_4(), vgg_d()] {
            let shapes = model.layer_shapes().unwrap();
            // The layer right before fc6 must be the 512x7x7 pooled map.
            let fc6_idx = shapes
                .iter()
                .position(|(l, _, _)| l.name == "fc6")
                .expect("fc6 exists");
            assert_eq!(
                shapes[fc6_idx].1,
                FeatureMap::new(512, 7, 7),
                "{}",
                model.name()
            );
        }
    }
}
