//! The MSRA family (He et al., "Delving Deep into Rectifiers", ICCV 2015).
//!
//! These are the three PReLU-net configurations (models A, B, and C) that
//! ISAAC — and therefore the TIMELY paper — uses as its largest benchmarks.
//! The original models use spatial-pyramid pooling before the classifier; we
//! approximate it with a single 7×7 pooling stage over the final feature map
//! (the dominant SPP bin), which preserves the convolutional workload exactly
//! and changes only the tiny classifier input.
//!
//! Configuration summary (weight layers, following Table 3 of He et al.):
//!
//! * **Model A (MSRA-1)**: conv 7×7/2 96, then stages of 3×3 convolutions
//!   with 256/512/512 channels (5/5/5 layers), plus an SPP + 3 FC classifier —
//!   19 weight layers.
//! * **Model B (MSRA-2)**: model A with three extra 256-channel layers —
//!   22 weight layers.
//! * **Model C (MSRA-3)**: model B widened (384/768/896 channels) —
//!   22 weight layers, ~2× the MACs of model B.

use crate::layer::{ConvSpec, FcSpec, PoolSpec};
use crate::model::{Model, ModelBuilder};
use crate::shape::FeatureMap;

struct MsraConfig {
    name: &'static str,
    /// Number of 3×3 convolutions per stage (stages run at 56², 28², 14²).
    stage_convs: [usize; 3],
    /// Output channels per stage.
    stage_channels: [usize; 3],
}

#[expect(
    clippy::expect_used,
    reason = "static zoo definitions are internally consistent; covered by zoo tests"
)]
fn msra_from_config(cfg: &MsraConfig) -> Model {
    let mut builder = ModelBuilder::new(cfg.name, FeatureMap::new(3, 224, 224))
        // 7x7/2 stem: 224 -> 112, then pooled to 56.
        .conv_relu("conv1", ConvSpec::new(3, 96, 7, 2, 3))
        .pool("pool1", PoolSpec::max(2, 2));
    let mut in_channels = 96;
    for (stage_idx, (&num_convs, &channels)) in cfg
        .stage_convs
        .iter()
        .zip(cfg.stage_channels.iter())
        .enumerate()
    {
        let stage = stage_idx + 2;
        for conv_idx in 0..num_convs {
            let name = format!("conv{}_{}", stage, conv_idx + 1);
            builder = builder.conv_relu(name, ConvSpec::new(in_channels, channels, 3, 1, 1));
            in_channels = channels;
        }
        // Stages are separated by 2x2 max pooling: 56 -> 28 -> 14 -> 7.
        builder = builder.pool(format!("pool{stage}"), PoolSpec::max(2, 2));
    }
    // SPP approximation: the final 7x7 map feeds the classifier directly.
    builder = builder
        .fc_relu("fc6", FcSpec::new(in_channels * 7 * 7, 4096))
        .fc_relu("fc7", FcSpec::new(4096, 4096))
        .fc("fc8", FcSpec::new(4096, 1000));
    builder
        .build()
        .expect("MSRA zoo definitions are internally consistent")
}

/// MSRA model A ("MSRA-1"): 19 weight layers.
pub fn msra_1() -> Model {
    msra_from_config(&MsraConfig {
        name: "MSRA-1",
        stage_convs: [5, 5, 5],
        stage_channels: [256, 512, 512],
    })
}

/// MSRA model B ("MSRA-2"): 22 weight layers (three extra 256-channel layers).
pub fn msra_2() -> Model {
    msra_from_config(&MsraConfig {
        name: "MSRA-2",
        stage_convs: [8, 5, 5],
        stage_channels: [256, 512, 512],
    })
}

/// MSRA model C ("MSRA-3"): 22 weight layers, widened to 384/768/896 channels.
pub fn msra_3() -> Model {
    msra_from_config(&MsraConfig {
        name: "MSRA-3",
        stage_convs: [8, 5, 5],
        stage_channels: [384, 768, 896],
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn msra_depths() {
        assert_eq!(msra_1().weighted_layer_count(), 19);
        assert_eq!(msra_2().weighted_layer_count(), 22);
        assert_eq!(msra_3().weighted_layer_count(), 22);
    }

    #[test]
    fn msra_models_grow_monotonically_in_macs() {
        let a = msra_1().total_macs().unwrap();
        let b = msra_2().total_macs().unwrap();
        let c = msra_3().total_macs().unwrap();
        assert!(b > a, "model B ({b}) should exceed model A ({a})");
        assert!(c > b, "model C ({c}) should exceed model B ({b})");
        // Model C is roughly 2x model B in compute (He et al. report ~1.8-2.3x).
        let ratio = c as f64 / b as f64;
        assert!((1.5..3.0).contains(&ratio), "C/B ratio {ratio}");
    }

    #[test]
    fn msra_3_is_the_largest_benchmark_in_the_suite() {
        // The paper notes MSRA-3 inputs are read/interfaced 47 times on
        // average in ISAAC, and treats MSRA-3 as the heaviest workload.
        let msra3 = msra_3().total_macs().unwrap();
        let vgg_d = crate::zoo::vgg_d().total_macs().unwrap();
        assert!(msra3 > vgg_d);
    }

    #[test]
    fn msra_final_feature_map_is_7x7() {
        for model in [msra_1(), msra_2(), msra_3()] {
            let shapes = model.layer_shapes().unwrap();
            let fc6 = shapes.iter().position(|(l, _, _)| l.name == "fc6").unwrap();
            assert_eq!(shapes[fc6].1.height, 7, "{}", model.name());
            assert_eq!(shapes[fc6].1.width, 7, "{}", model.name());
        }
    }
}
