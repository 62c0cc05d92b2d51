//! Bit-identity pin for the functional conv/FC kernels.
//!
//! Every forward pass below is reduced to an FNV-1a digest of its output
//! bits. The constants were recorded with the original per-MAC quantizing
//! kernels, so any change to the kernels' arithmetic or to the order of
//! their noise draws shows up here as a changed digest, not as a drifted
//! agreement count somewhere downstream.

use rand::rngs::StdRng;
use rand::SeedableRng;
use timely_nn::infer::{InferenceConfig, InferenceEngine, NoiseModel};
use timely_nn::tensor::Tensor;
use timely_nn::{zoo, ConvSpec, FcSpec, FeatureMap, Layer, Model, ModelBuilder, PoolSpec};

/// A small model covering what the zoo's MNIST networks do not: stride 2,
/// zero padding, grouped convolution, a `Branch` layer, average pooling and
/// an element-wise add.
fn kernel_zoo_model() -> Model {
    let grouped = ConvSpec {
        groups: 2,
        ..ConvSpec::new(4, 8, 3, 2, 1)
    };
    ModelBuilder::new("kernel-zoo", FeatureMap::new(4, 11, 12))
        .conv_relu("grouped", grouped)
        .layer(Layer::branch(
            "branch",
            vec![
                ConvSpec::new(8, 3, 1, 1, 0),
                ConvSpec::with_kernel_hw(8, 5, 3, 3, 1, 1),
            ],
        ))
        .add("add")
        .pool("avg", PoolSpec::average(2, 2))
        .fc("fc", FcSpec::new(8 * 3 * 3, 7))
        .build()
        .expect("kernel-zoo model is internally consistent")
}

fn noise_models() -> [(&'static str, NoiseModel); 4] {
    let default = NoiseModel::timely_default();
    [
        ("ideal", NoiseModel::ideal()),
        ("timely_default", default),
        (
            "psum-only",
            NoiseModel {
                input_sigma_lsb: 0.0,
                ..default
            },
        ),
        (
            "input-only",
            NoiseModel {
                psum_sigma_lsb: 0.0,
                ..default
            },
        ),
    ]
}

struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Digest of one forward pass of `model` on a seeded random input.
fn digest(model: &Model, bits: u8, noise: NoiseModel) -> u64 {
    let config = InferenceConfig {
        activation_bits: bits,
        weight_bits: bits,
        noise,
        seed: 0x5EED_0000 + u64::from(bits),
    };
    let engine = InferenceEngine::new(model.clone(), config);
    let mut rng = StdRng::seed_from_u64(0xD16E57);
    let input = Tensor::random_uniform(model.input_shape(), 1.0, &mut rng);
    let output = engine
        .forward_with_seed(&input, 0x9E37_79B9)
        .expect("forward pass runs");
    let mut hash = Fnv1a::new();
    for v in output.data() {
        hash.write(&v.to_bits().to_le_bytes());
    }
    hash.0
}

/// `(model, bits, [ideal, timely_default, psum-only, input-only])`. Where a
/// psum-only digest equals the ideal one, the psum noise at that width is
/// below one f32 ulp of every output; the other rows pin its draws.
#[rustfmt::skip]
const EXPECTED: [(&str, u8, [u64; 4]); 9] = [
    ("CNN-1", 8, [0x60f654bc59b5f6f3, 0xf1b82e277d58524d, 0x949839f06710bd85, 0x346fb8b84ee1b197]),
    ("CNN-1", 16, [0x3d6c9704bbba140d, 0xf704205767854859, 0x7b32f28a6cf2e57d, 0x09ed540c8f144b91]),
    ("CNN-1", 24, [0xfca608d332d0a460, 0x5aa5a21d3330894d, 0xfca608d332d0a460, 0x170d71ff98937c70]),
    ("MLP-L", 8, [0x8ceb65b27367e546, 0x5e620c94e51e67fc, 0xc1567047586cc189, 0x4738402eb4c7c7e7]),
    ("MLP-L", 16, [0xadb6a02796f53e12, 0xd5aa57a54707bdeb, 0x3846a92005e559a9, 0xd0a12e24eded453e]),
    ("MLP-L", 24, [0xc96f30236bb929e6, 0x85ac792736fd29e3, 0xc96f30236bb929e6, 0x241d4031acca495b]),
    ("kernel-zoo", 8, [0x31b3f036cbec369c, 0x00132dabce084387, 0xc8fe24d4ca978eda, 0x482695b36a5447d0]),
    ("kernel-zoo", 16, [0x7b6032dc9363c16c, 0xa8a521121502c7e8, 0x7b6032dc9363c16c, 0x24f1d758b183969a]),
    ("kernel-zoo", 24, [0xc628b4f56d779be3, 0xdc0f3e328e4217f0, 0xc628b4f56d779be3, 0x8ff229ea6836446e]),
];

#[test]
fn forward_outputs_match_the_recorded_digests() {
    let models = [zoo::cnn_1(), zoo::mlp_l(), kernel_zoo_model()];
    let mut actual = Vec::new();
    for model in &models {
        for bits in [8_u8, 16, 24] {
            let row = noise_models().map(|(_, noise)| digest(model, bits, noise));
            actual.push((model.name().to_string(), bits, row));
        }
    }
    let table: String = actual
        .iter()
        .map(|(name, bits, row)| {
            let hex: Vec<String> = row.iter().map(|d| format!("{d:#018x}")).collect();
            format!("    (\"{name}\", {bits}, [{}]),\n", hex.join(", "))
        })
        .collect();
    for ((name, bits, row), (exp_name, exp_bits, exp_row)) in actual.iter().zip(EXPECTED) {
        assert_eq!((name.as_str(), *bits), (exp_name, exp_bits));
        for (i, (label, _)) in noise_models().iter().enumerate() {
            assert_eq!(
                row[i], exp_row[i],
                "{name} at {bits} bits, {label} noise: output digest changed; \
                 the kernels are no longer bit-identical. Current table:\n{table}"
            );
        }
    }
}
