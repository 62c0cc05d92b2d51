//! The benchmark model zoo (Table III of the paper).
//!
//! The paper evaluates TIMELY on 15 benchmarks:
//!
//! * **VGG-D, CNN-1, MLP-L** — for a fair comparison with PRIME (PRIME's
//!   benchmark suite),
//! * **VGG-1/-2/-3/-4 and MSRA-1/-2/-3** — for a fair comparison with ISAAC
//!   (ISAAC's benchmark suite),
//! * **ResNet-18/-50/-101/-152 and SqueezeNet** — to show generality on more
//!   recent CNNs.
//!
//! Model definitions follow the original publications (VGG: Simonyan &
//! Zisserman; MSRA: He et al. "Delving Deep into Rectifiers"; ResNet: He et
//! al.; SqueezeNet v1.0: Iandola et al.; CNN-1 and MLP-L: PRIME's MNIST
//! benchmarks). Where the source papers leave minor details open (e.g. MSRA
//! spatial-pyramid pooling), we use standard single-crop approximations and
//! note them in each family's module doc.

mod msra;
mod resnet;
mod small;
mod squeezenet;
mod vgg;

pub use msra::{msra_1, msra_2, msra_3};
pub use resnet::{resnet_101, resnet_152, resnet_18, resnet_50};
pub use small::{cnn_1, mlp_l};
pub use squeezenet::squeezenet;
pub use vgg::{vgg_1, vgg_2, vgg_3, vgg_4, vgg_d};

use crate::model::Model;

/// Returns every benchmark model used in the paper's evaluation, in the order
/// they appear in Fig. 8(a).
pub fn all_models() -> Vec<Model> {
    vec![
        vgg_d(),
        cnn_1(),
        mlp_l(),
        vgg_1(),
        vgg_2(),
        vgg_3(),
        vgg_4(),
        msra_1(),
        msra_2(),
        msra_3(),
        resnet_18(),
        resnet_50(),
        resnet_101(),
        resnet_152(),
        squeezenet(),
    ]
}

/// The subset of the zoo used for the PRIME comparison (8-bit precision).
pub fn prime_benchmarks() -> Vec<Model> {
    vec![vgg_d(), cnn_1(), mlp_l()]
}

/// The subset of the zoo used for the ISAAC comparison (16-bit precision).
pub fn isaac_benchmarks() -> Vec<Model> {
    vec![
        vgg_1(),
        vgg_2(),
        vgg_3(),
        vgg_4(),
        msra_1(),
        msra_2(),
        msra_3(),
    ]
}

/// The default model mix of the serving studies (`timely-sim`): one large
/// classic CNN (VGG-D), one residual network (ResNet-18), and one compact
/// model (SqueezeNet). All three fit on a single paper-default chip at 8-bit
/// precision, so a fleet can either replicate or partition them.
pub fn serving_benchmarks() -> Vec<Model> {
    vec![vgg_d(), resnet_18(), squeezenet()]
}

/// The workload set of the design-space explorer (`timely-dse`): one tiny
/// CNN (CNN-1), one compact modern network (SqueezeNet), and one residual
/// network (ResNet-18). Chosen so most candidate configurations can map all
/// three — a workload that only fits the largest designs would make the
/// whole space look infeasible — while still spanning two orders of
/// magnitude in MACs.
pub fn dse_benchmarks() -> Vec<Model> {
    vec![cnn_1(), squeezenet(), resnet_18()]
}

/// Looks up a benchmark model by its (case-insensitive) name.
///
/// Returns `None` when no benchmark with that name exists.
pub fn by_name(name: &str) -> Option<Model> {
    let lowered = name.to_ascii_lowercase();
    all_models()
        .into_iter()
        .find(|m| m.name().to_ascii_lowercase() == lowered)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zoo_has_fifteen_benchmarks() {
        assert_eq!(all_models().len(), 15);
    }

    #[test]
    fn all_models_have_unique_names() {
        let models = all_models();
        let mut names: Vec<_> = models.iter().map(|m| m.name().to_string()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), models.len());
    }

    #[test]
    fn lookup_by_name_is_case_insensitive() {
        assert!(by_name("vgg-d").is_some());
        assert!(by_name("VGG-D").is_some());
        assert!(by_name("ResNet-50").is_some());
        assert!(by_name("does-not-exist").is_none());
    }

    #[test]
    fn serving_benchmarks_are_a_subset_of_the_zoo() {
        let serving = serving_benchmarks();
        assert_eq!(serving.len(), 3);
        for model in &serving {
            assert!(
                by_name(model.name()).is_some(),
                "{} not in zoo",
                model.name()
            );
        }
    }

    #[test]
    fn every_model_has_positive_macs_and_weights() {
        for model in all_models() {
            let macs = model.total_macs().unwrap();
            assert!(macs > 0, "{} has zero MACs", model.name());
            assert!(model.total_weights() > 0, "{} has no weights", model.name());
        }
    }

    #[test]
    fn imagenet_models_end_in_1000_classes() {
        for name in [
            "VGG-D",
            "VGG-1",
            "VGG-2",
            "VGG-3",
            "VGG-4",
            "MSRA-1",
            "MSRA-2",
            "MSRA-3",
            "ResNet-18",
            "ResNet-50",
            "ResNet-101",
            "ResNet-152",
            "SqueezeNet",
        ] {
            let model = by_name(name).unwrap();
            assert_eq!(
                model.output_shape().unwrap().elements(),
                1000,
                "{name} should classify into 1000 classes"
            );
        }
    }

    #[test]
    fn mnist_models_end_in_10_classes() {
        for name in ["CNN-1", "MLP-L"] {
            let model = by_name(name).unwrap();
            assert_eq!(model.output_shape().unwrap().elements(), 10);
        }
    }
}
