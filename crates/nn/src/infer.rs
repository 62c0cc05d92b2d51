//! Quantized functional inference with analog-noise injection.
//!
//! The accuracy study in the paper (§VI-B) adds Gaussian noise — extracted
//! from Monte-Carlo circuit simulation of the X-subBufs, P-subBufs, I-adders,
//! DTCs and TDCs — to the network's computations and reports ≤0.1 % inference
//! accuracy loss. We reproduce the *methodology*: a quantized forward pass in
//! which every partial sum produced by an (emulated) sub-chip column receives
//! additive Gaussian noise whose standard deviation is expressed as a fraction
//! of the quantization step, mirroring how the paper relates the accumulated
//! X-subBuf error (√12·ε) to the DTC design margin.
//!
//! # Where quantization happens
//!
//! Each conv/FC layer call derives its activation quantizer from the input's
//! largest magnitude and its weight quantizer from the layer's (or branch's)
//! largest weight. It then quantizes every activation once, into an `f64`
//! buffer; a convolution's buffer is zero padded, so no tap needs a bounds
//! test. Weights are quantized one filter or four FC rows at a time into a
//! small reused scratch. The engine stores only the raw `f32` weights, so
//! building it costs one pass over the generated weights and nothing more.
//!
//! # Draw order
//!
//! Outputs are bit-identical to a per-MAC loop that quantizes both operands
//! at every multiply (pinned by `tests/kernel_digest.rs`). Per output, in
//! output order, that loop draws one input noise sample per tap, padded taps
//! included, then one psum sample, and sums the taps in filter order into one
//! `f64` accumulator. The kernels keep that order. Without input noise they
//! compute four outputs at once, each in its own accumulator, and make the
//! four psum draws in output order afterwards. Noise terms keep their
//! association: `g·σ·step` for an input, `g·σ·lsb·√fan_in` for a psum.

use crate::error::NnError;
use crate::layer::{ConvSpec, Layer, LayerKind, PoolKind};
use crate::model::Model;
use crate::quant::QuantParams;
use crate::shape::FeatureMap;
use crate::tensor::{max_abs, Tensor};
use rand::distributions::Distribution;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Additive Gaussian noise applied to every analog partial sum, expressed
/// relative to the output quantization step.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NoiseModel {
    /// Standard deviation of the noise as a fraction of one output LSB.
    /// `0.0` disables noise injection.
    pub psum_sigma_lsb: f64,
    /// Standard deviation of the noise added to each input when it is
    /// (re-)generated by a DTC and buffered through cascaded X-subBufs,
    /// as a fraction of one input LSB.
    pub input_sigma_lsb: f64,
}

impl NoiseModel {
    /// A noise-free model (ideal digital computation).
    pub fn ideal() -> Self {
        Self {
            psum_sigma_lsb: 0.0,
            input_sigma_lsb: 0.0,
        }
    }

    /// Noise model corresponding to the paper's design point: the accumulated
    /// error of 12 cascaded X-subBufs (√12·ε) stays below half the DTC design
    /// margin, i.e. well under one LSB of the 8-bit time-domain code.
    pub fn timely_default() -> Self {
        Self {
            psum_sigma_lsb: 0.25,
            input_sigma_lsb: 0.1,
        }
    }

    /// Whether the model injects any noise at all.
    pub fn is_ideal(&self) -> bool {
        // Exact-zero sentinel: sigma-is-off, not sigma-is-small.
        self.psum_sigma_lsb == 0.0 && self.input_sigma_lsb == 0.0
    }
}

impl Default for NoiseModel {
    fn default() -> Self {
        Self::ideal()
    }
}

/// Configuration of the functional inference engine.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct InferenceConfig {
    /// Activation (input/output) bit width.
    pub activation_bits: u8,
    /// Weight bit width.
    pub weight_bits: u8,
    /// Analog noise model applied during the forward pass.
    pub noise: NoiseModel,
    /// Seed used both for synthetic weight generation and for noise sampling.
    pub seed: u64,
}

impl InferenceConfig {
    /// The 8-bit configuration used for the PRIME comparison.
    pub fn int8() -> Self {
        Self {
            activation_bits: 8,
            weight_bits: 8,
            noise: NoiseModel::ideal(),
            seed: 0xA11CE,
        }
    }

    /// The 16-bit configuration used for the ISAAC comparison.
    pub fn int16() -> Self {
        Self {
            activation_bits: 16,
            weight_bits: 16,
            noise: NoiseModel::ideal(),
            seed: 0xA11CE,
        }
    }

    /// Returns a copy with the given noise model.
    pub fn with_noise(mut self, noise: NoiseModel) -> Self {
        self.noise = noise;
        self
    }
}

impl Default for InferenceConfig {
    fn default() -> Self {
        Self::int8()
    }
}

/// A quantized functional inference engine over a [`Model`] with synthetic,
/// deterministically generated weights.
///
/// The engine's purpose is the paper's accuracy study: comparing noisy and
/// noise-free forward passes of the *same* network. Absolute task accuracy is
/// irrelevant (the weights are synthetic); what matters is how often analog
/// noise flips the classification decision.
#[derive(Debug, Clone)]
pub struct InferenceEngine {
    model: Model,
    config: InferenceConfig,
    /// Per weighted-layer weight tensors, in execution order. Convolutions
    /// store `D × (C·Z·G)` row-major matrices; FC layers store
    /// `out × in` matrices; branch layers store one matrix per branch
    /// flattened in branch order.
    weights: Vec<Vec<f32>>,
}

impl InferenceEngine {
    /// Builds an engine for `model`, generating synthetic weights from the
    /// config's seed. Weights are drawn uniformly from `[-b, b]` with
    /// `b = 1/√fan_in`, the usual magnitude-preserving initialization.
    pub fn new(model: Model, config: InferenceConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut weights = Vec::new();
        for layer in model.layers() {
            match &layer.kind {
                LayerKind::Conv(c) => weights.push(Self::init_matrix(
                    c.out_channels,
                    c.unrolled_filter_len(),
                    &mut rng,
                )),
                LayerKind::Fc(fc) => {
                    weights.push(Self::init_matrix(fc.out_features, fc.in_features, &mut rng))
                }
                LayerKind::Branch(branches) => {
                    let mut all = Vec::new();
                    for spec in branches {
                        all.extend(Self::init_matrix(
                            spec.out_channels,
                            spec.unrolled_filter_len(),
                            &mut rng,
                        ));
                    }
                    weights.push(all);
                }
                LayerKind::Shortcut(spec) => weights.push(Self::init_matrix(
                    spec.out_channels,
                    spec.unrolled_filter_len(),
                    &mut rng,
                )),
                _ => weights.push(Vec::new()),
            }
        }
        Self {
            model,
            config,
            weights,
        }
    }

    fn init_matrix<R: Rng + ?Sized>(rows: usize, cols: usize, rng: &mut R) -> Vec<f32> {
        let bound = 1.0 / (cols as f32).sqrt();
        let dist = rand::distributions::Uniform::new_inclusive(-bound, bound);
        (0..rows * cols).map(|_| dist.sample(rng)).collect()
    }

    /// The model this engine evaluates.
    pub fn model(&self) -> &Model {
        &self.model
    }

    /// The engine configuration.
    pub fn config(&self) -> &InferenceConfig {
        &self.config
    }

    /// Runs a forward pass, returning the final layer's output tensor.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] if `input`'s shape differs from the
    /// model's declared input shape, [`NnError::UnsupportedBitWidth`] if the
    /// model has a conv or FC layer and a bit width is outside `1..=31`, or
    /// propagates tensor-shape errors.
    pub fn forward(&self, input: &Tensor) -> Result<Tensor, NnError> {
        self.forward_with_seed(input, self.config.seed ^ NOISE_SEED_TWEAK)
    }

    /// Runs a forward pass with an explicit noise seed (so repeated noisy
    /// passes over the same input can sample independent noise).
    ///
    /// # Errors
    ///
    /// See [`InferenceEngine::forward`].
    pub fn forward_with_seed(&self, input: &Tensor, noise_seed: u64) -> Result<Tensor, NnError> {
        if input.shape() != self.model.input_shape() {
            return Err(NnError::ShapeMismatch {
                layer: "<input>".to_string(),
                expected: self.model.input_shape().as_tuple(),
                found: input.shape().as_tuple(),
            });
        }
        let mut rng = StdRng::seed_from_u64(noise_seed);
        let mut current = input.clone();
        let mut previous: Option<Tensor> = None; // for element-wise shortcuts
        for (idx, layer) in self.model.layers().iter().enumerate() {
            let next = self.eval_layer(
                layer,
                &self.weights[idx],
                &current,
                previous.as_ref(),
                &mut rng,
            )?;
            previous = Some(current);
            current = next;
        }
        Ok(current)
    }

    /// Classifies an input: the argmax of the final output.
    ///
    /// # Errors
    ///
    /// See [`InferenceEngine::forward`].
    pub fn classify(&self, input: &Tensor) -> Result<usize, NnError> {
        Ok(self.forward(input)?.argmax())
    }

    fn eval_layer(
        &self,
        layer: &Layer,
        weights: &[f32],
        input: &Tensor,
        previous: Option<&Tensor>,
        rng: &mut StdRng,
    ) -> Result<Tensor, NnError> {
        let output_shape = layer.output_shape(input.shape())?;
        match &layer.kind {
            LayerKind::Conv(spec) => self.conv_forward(spec, weights, input, output_shape, rng),
            LayerKind::Fc(_) => self.fc_forward(weights, input, output_shape, rng),
            LayerKind::Branch(branches) => {
                // Channels are the outermost CHW axis, so each branch's output
                // is one contiguous block of the concatenated output.
                let mut output = Tensor::zeros(output_shape);
                let mut weight_offset = 0;
                let mut data_offset = 0;
                for spec in branches {
                    let branch_shape =
                        FeatureMap::new(spec.out_channels, output_shape.height, output_shape.width);
                    let count = spec.out_channels * spec.unrolled_filter_len();
                    let branch_out = self.conv_forward(
                        spec,
                        &weights[weight_offset..weight_offset + count],
                        input,
                        branch_shape,
                        rng,
                    )?;
                    let len = branch_out.data().len();
                    output.data_mut()[data_offset..data_offset + len]
                        .copy_from_slice(branch_out.data());
                    weight_offset += count;
                    data_offset += len;
                }
                Ok(output)
            }
            LayerKind::Pool(spec) => {
                let mut output = Tensor::zeros(output_shape);
                for c in 0..output_shape.channels {
                    for oy in 0..output_shape.height {
                        for ox in 0..output_shape.width {
                            let mut acc: f32 = match spec.kind {
                                PoolKind::Max => f32::NEG_INFINITY,
                                PoolKind::Average => 0.0,
                            };
                            for ky in 0..spec.kernel {
                                for kx in 0..spec.kernel {
                                    let v =
                                        input.get(c, oy * spec.stride + ky, ox * spec.stride + kx);
                                    match spec.kind {
                                        PoolKind::Max => acc = acc.max(v),
                                        PoolKind::Average => acc += v,
                                    }
                                }
                            }
                            if spec.kind == PoolKind::Average {
                                acc /= (spec.kernel * spec.kernel) as f32;
                            }
                            output.set(c, oy, ox, acc);
                        }
                    }
                }
                Ok(output)
            }
            LayerKind::Relu => {
                let mut output = input.clone();
                for v in output.data_mut() {
                    if *v < 0.0 {
                        *v = 0.0;
                    }
                }
                Ok(output)
            }
            // The functional engine approximates projection shortcuts as an
            // identity on the sequential trace (the accuracy study only uses
            // small non-residual CNNs); their energy/area contribution is
            // handled by the workload analysis, not here.
            LayerKind::Shortcut(_) => Ok(input.clone()),
            LayerKind::ElementwiseAdd => {
                let mut output = input.clone();
                if let Some(prev) = previous {
                    if prev.shape() == input.shape() {
                        for (o, p) in output.data_mut().iter_mut().zip(prev.data().iter()) {
                            *o += p;
                        }
                    }
                }
                Ok(output)
            }
        }
    }

    /// The layer call's activation and weight quantizers, from the input's
    /// and the weights' largest magnitudes.
    fn layer_quant(
        &self,
        input: &Tensor,
        weights: &[f32],
    ) -> Result<(QuantParams, QuantParams), NnError> {
        let act_q = QuantParams::from_max_abs(self.config.activation_bits, input.max_abs())?;
        let w_q = QuantParams::from_max_abs(self.config.weight_bits, max_abs(weights))?;
        Ok((act_q, w_q))
    }

    // lint:hot one call per conv layer (or branch) per forward pass
    fn conv_forward(
        &self,
        spec: &ConvSpec,
        weights: &[f32],
        input: &Tensor,
        output_shape: FeatureMap,
        rng: &mut StdRng,
    ) -> Result<Tensor, NnError> {
        let (act_q, w_q) = self.layer_quant(input, weights)?;
        let filter_len = spec.unrolled_filter_len();
        let noise = LayerNoise::new(self.config.noise, act_q, w_q, filter_len);
        let in_shape = input.shape();
        let pad = spec.padding;
        let plane_w = in_shape.width + 2 * pad;
        let plane_len = (in_shape.height + 2 * pad) * plane_w;
        // The quantized input, padded with the quantized zero, so that no
        // tap needs a bounds test.
        let mut plane = vec![f64::from(act_q.fake_quantize(0.0)); in_shape.channels * plane_len];
        let rows = input.data().chunks_exact(in_shape.width.max(1));
        for (row, src) in rows.enumerate() {
            let (c, y) = (row / in_shape.height, row % in_shape.height);
            let start = c * plane_len + (y + pad) * plane_w + pad;
            act_q.fake_quantize_into(src, &mut plane[start..start + src.len()]);
        }
        // Plane offset of every tap from a window's origin, in filter order.
        let channels_per_group = spec.in_channels / spec.groups;
        let mut taps = Vec::with_capacity(filter_len);
        for c_local in 0..channels_per_group {
            for ky in 0..spec.kernel_h {
                for kx in 0..spec.kernel_w {
                    taps.push(c_local * plane_len + ky * plane_w + kx);
                }
            }
        }
        let filters_per_group = spec.out_channels / spec.groups;
        let stride = spec.stride;
        let mut filter = vec![0.0_f64; filter_len];
        let mut output = Tensor::zeros(output_shape);
        let out_plane_len = output_shape.height * output_shape.width;
        for (d, out_plane) in output
            .data_mut()
            .chunks_exact_mut(out_plane_len)
            .enumerate()
        {
            w_q.fake_quantize_into(&weights[d * filter_len..(d + 1) * filter_len], &mut filter);
            let group_origin = d / filters_per_group * channels_per_group * plane_len;
            for (oy, out_row) in out_plane.chunks_exact_mut(output_shape.width).enumerate() {
                let mut origin = group_origin + oy * stride * plane_w;
                let mut singles = out_row;
                if !noise.draws_input() {
                    // No per-tap draws: four neighbouring outputs share each
                    // weight load, each summing into its own accumulator in
                    // tap order.
                    let mut quads = singles.chunks_exact_mut(4);
                    for quad in quads.by_ref() {
                        let mut acc = [0.0_f64; 4];
                        for (&tap, &w) in taps.iter().zip(&filter) {
                            let at = origin + tap;
                            acc[0] += plane[at] * w;
                            acc[1] += plane[at + stride] * w;
                            acc[2] += plane[at + 2 * stride] * w;
                            acc[3] += plane[at + 3 * stride] * w;
                        }
                        for (out, acc) in quad.iter_mut().zip(acc) {
                            *out = noise.output(acc, rng);
                        }
                        origin += 4 * stride;
                    }
                    singles = quads.into_remainder();
                }
                for out in singles {
                    let mut acc = 0.0_f64;
                    for (&tap, &w) in taps.iter().zip(&filter) {
                        acc += noise.input(plane[origin + tap], rng) * w;
                    }
                    *out = noise.output(acc, rng);
                    origin += stride;
                }
            }
        }
        Ok(output)
    }

    // lint:hot one call per FC layer per forward pass
    fn fc_forward(
        &self,
        weights: &[f32],
        input: &Tensor,
        output_shape: FeatureMap,
        rng: &mut StdRng,
    ) -> Result<Tensor, NnError> {
        let (act_q, w_q) = self.layer_quant(input, weights)?;
        let in_features = input.data().len();
        let noise = LayerNoise::new(self.config.noise, act_q, w_q, in_features);
        let mut x = vec![0.0_f64; in_features];
        act_q.fake_quantize_into(input.data(), &mut x);
        let mut rows = vec![0.0_f64; 4 * in_features];
        let mut output = Tensor::zeros(output_shape);
        let blocks = output
            .data_mut()
            .chunks_mut(4)
            .zip(weights.chunks(4 * in_features));
        for (outs, w_block) in blocks {
            let rows = &mut rows[..w_block.len()];
            w_q.fake_quantize_into(w_block, rows);
            if outs.len() == 4 && !noise.draws_input() {
                // Four rows share each input load, each summing into its own
                // accumulator in input order.
                let (r01, r23) = rows.split_at(2 * in_features);
                let (r0, r1) = r01.split_at(in_features);
                let (r2, r3) = r23.split_at(in_features);
                let mut acc = [0.0_f64; 4];
                let lanes = x.iter().zip(r0).zip(r1).zip(r2).zip(r3);
                for ((((&a, &w0), &w1), &w2), &w3) in lanes {
                    acc[0] += a * w0;
                    acc[1] += a * w1;
                    acc[2] += a * w2;
                    acc[3] += a * w3;
                }
                for (out, acc) in outs.iter_mut().zip(acc) {
                    *out = noise.output(acc, rng);
                }
                continue;
            }
            for (out, row) in outs.iter_mut().zip(rows.chunks_exact(in_features)) {
                let mut acc = 0.0_f64;
                for (&a, &w) in x.iter().zip(row) {
                    acc += noise.input(a, rng) * w;
                }
                *out = noise.output(acc, rng);
            }
        }
        Ok(output)
    }
}

/// The analog noise of one conv/FC layer call. Each helper makes exactly the
/// draws a per-MAC loop makes, with the same expression association, so the
/// kernels' outputs stay bit-identical.
struct LayerNoise {
    input_sigma_lsb: f64,
    act_step: f64,
    psum_sigma_lsb: f64,
    psum_lsb: f64,
    sqrt_fan_in: f64,
}

impl LayerNoise {
    fn new(noise: NoiseModel, act_q: QuantParams, w_q: QuantParams, fan_in: usize) -> Self {
        Self {
            input_sigma_lsb: noise.input_sigma_lsb,
            act_step: f64::from(act_q.step()),
            psum_sigma_lsb: noise.psum_sigma_lsb,
            psum_lsb: f64::from(act_q.step() * w_q.step()),
            sqrt_fan_in: (fan_in as f64).sqrt(),
        }
    }

    /// Whether every input tap takes a draw.
    fn draws_input(&self) -> bool {
        self.input_sigma_lsb > 0.0
    }

    /// A quantized input as the crossbar sees it: one draw of DTC/X-subBuf
    /// noise, `g·σ·step`, when input noise is on.
    fn input(&self, a: f64, rng: &mut StdRng) -> f64 {
        if self.draws_input() {
            a + sample_gaussian(rng) * self.input_sigma_lsb * self.act_step
        } else {
            a
        }
    }

    /// A finished partial sum, narrowed to `f32`: one psum draw,
    /// `g·σ·lsb·√fan_in`, first when psum noise is on.
    fn output(&self, acc: f64, rng: &mut StdRng) -> f32 {
        if self.psum_sigma_lsb > 0.0 {
            (acc + sample_gaussian(rng) * self.psum_sigma_lsb * self.psum_lsb * self.sqrt_fan_in)
                as f32
        } else {
            acc as f32
        }
    }
}

/// Samples from a standard normal distribution via the Box–Muller transform.
/// (We avoid `rand_distr` to keep the dependency set to the allowed crates.)
fn sample_gaussian(rng: &mut StdRng) -> f64 {
    loop {
        let u1: f64 = rng.gen::<f64>();
        let u2: f64 = rng.gen::<f64>();
        if u1 > f64::EPSILON {
            return (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        }
    }
}

/// Result of an accuracy-under-noise experiment.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AccuracyReport {
    /// Number of evaluated inputs.
    pub samples: usize,
    /// Number of inputs whose noisy classification matched the noise-free one.
    pub agreements: usize,
}

impl AccuracyReport {
    /// Fraction of classifications unchanged by noise.
    pub fn agreement_rate(&self) -> f64 {
        if self.samples == 0 {
            1.0
        } else {
            self.agreements as f64 / self.samples as f64
        }
    }

    /// Accuracy loss relative to the noise-free network (the paper reports
    /// ≤0.1 % for TIMELY's design point).
    pub fn accuracy_loss(&self) -> f64 {
        1.0 - self.agreement_rate()
    }
}

/// Compares noisy and noise-free classification decisions of the same network
/// over `samples` random inputs drawn from the given seed.
///
/// # Errors
///
/// Propagates forward-pass errors (for zoo models, only an unsupported bit
/// width).
pub fn accuracy_under_noise(
    model: &Model,
    config: InferenceConfig,
    noise: NoiseModel,
    samples: usize,
    seed: u64,
) -> Result<AccuracyReport, NnError> {
    let clean_engine = InferenceEngine::new(model.clone(), config.with_noise(NoiseModel::ideal()));
    let noisy_engine = InferenceEngine::new(model.clone(), config.with_noise(noise));
    let mut rng = StdRng::seed_from_u64(seed);
    let mut agreements = 0;
    for i in 0..samples {
        let input = Tensor::random_uniform(model.input_shape(), 1.0, &mut rng);
        let clean = clean_engine.classify(&input)?;
        let noisy_out =
            noisy_engine.forward_with_seed(&input, seed ^ (i as u64).wrapping_mul(0x9E37_79B9))?;
        if noisy_out.argmax() == clean {
            agreements += 1;
        }
    }
    Ok(AccuracyReport {
        samples,
        agreements,
    })
}

/// XOR tweak separating the weight-generation RNG stream from the noise RNG
/// stream when both derive from the same user-provided seed.
const NOISE_SEED_TWEAK: u64 = 0xBADC_0FFE;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::{FcSpec, PoolSpec};
    use crate::model::ModelBuilder;

    fn tiny_cnn() -> Model {
        ModelBuilder::new("tiny", FeatureMap::new(1, 8, 8))
            .conv_relu("conv1", ConvSpec::new(1, 4, 3, 1, 1))
            .pool("pool1", PoolSpec::max(2, 2))
            .conv_relu("conv2", ConvSpec::new(4, 8, 3, 1, 1))
            .pool("pool2", PoolSpec::max(2, 2))
            .fc("fc", FcSpec::new(8 * 2 * 2, 5))
            .build()
            .unwrap()
    }

    #[test]
    fn forward_produces_expected_output_shape() {
        let engine = InferenceEngine::new(tiny_cnn(), InferenceConfig::int8());
        let input = Tensor::zeros(FeatureMap::new(1, 8, 8));
        let out = engine.forward(&input).unwrap();
        assert_eq!(out.shape(), FeatureMap::vector(5));
    }

    #[test]
    fn forward_rejects_wrong_input_shape() {
        let engine = InferenceEngine::new(tiny_cnn(), InferenceConfig::int8());
        let input = Tensor::zeros(FeatureMap::new(3, 8, 8));
        assert!(engine.forward(&input).is_err());
    }

    #[test]
    fn ideal_forward_is_deterministic() {
        let engine = InferenceEngine::new(tiny_cnn(), InferenceConfig::int8());
        let mut rng = StdRng::seed_from_u64(7);
        let input = Tensor::random_uniform(FeatureMap::new(1, 8, 8), 1.0, &mut rng);
        let a = engine.forward(&input).unwrap();
        let b = engine.forward(&input).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn int16_is_closer_to_unquantized_than_int8() {
        // With 16-bit operands the quantization error of the logits should be
        // no larger than with 8-bit operands.
        let model = tiny_cnn();
        let e8 = InferenceEngine::new(model.clone(), InferenceConfig::int8());
        let e16 = InferenceEngine::new(model.clone(), InferenceConfig::int16());
        let e_hi = InferenceEngine::new(
            model,
            InferenceConfig {
                activation_bits: 24,
                weight_bits: 24,
                noise: NoiseModel::ideal(),
                seed: InferenceConfig::int8().seed,
            },
        );
        let mut rng = StdRng::seed_from_u64(11);
        let input = Tensor::random_uniform(FeatureMap::new(1, 8, 8), 1.0, &mut rng);
        let out8 = e8.forward(&input).unwrap();
        let out16 = e16.forward(&input).unwrap();
        let ref_out = e_hi.forward(&input).unwrap();
        let err = |a: &Tensor, b: &Tensor| -> f32 {
            a.data()
                .iter()
                .zip(b.data())
                .map(|(x, y)| (x - y).abs())
                .sum()
        };
        assert!(err(&out16, &ref_out) <= err(&out8, &ref_out) + 1e-6);
    }

    #[test]
    fn small_noise_rarely_changes_classification() {
        let report = accuracy_under_noise(
            &tiny_cnn(),
            InferenceConfig::int8(),
            NoiseModel::timely_default(),
            20,
            99,
        )
        .unwrap();
        assert_eq!(report.samples, 20);
        assert!(
            report.agreement_rate() >= 0.8,
            "rate {}",
            report.agreement_rate()
        );
    }

    #[test]
    fn huge_noise_degrades_agreement() {
        let noisy = NoiseModel {
            psum_sigma_lsb: 20_000.0,
            input_sigma_lsb: 100.0,
        };
        let report =
            accuracy_under_noise(&tiny_cnn(), InferenceConfig::int8(), noisy, 20, 123).unwrap();
        // With enormous noise the network should misbehave at least sometimes.
        assert!(report.accuracy_loss() > 0.0);
    }

    #[test]
    fn accuracy_report_edge_cases() {
        let empty = AccuracyReport {
            samples: 0,
            agreements: 0,
        };
        assert_eq!(empty.agreement_rate(), 1.0);
        let half = AccuracyReport {
            samples: 10,
            agreements: 5,
        };
        assert!((half.accuracy_loss() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn gaussian_sampler_has_roughly_unit_variance() {
        let mut rng = StdRng::seed_from_u64(1);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| sample_gaussian(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "variance {var}");
    }
}
