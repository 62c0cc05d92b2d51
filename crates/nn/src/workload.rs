//! Architecture-independent workload analysis.
//!
//! The TIMELY paper's architecture-level evaluation is driven almost entirely
//! by per-layer *counts*: how many multiply-accumulates a layer performs, how
//! many unique input/output elements it touches, and how often each input must
//! be (re-)read from a buffer under a given mapping. This module computes
//! those counts from the layer IR. Anything that depends on architecture
//! parameters (crossbar size `B`, sub-chip geometry `NCB`, DTC sharing `γ`)
//! takes them as explicit arguments so the same analysis feeds both the
//! TIMELY model and the baseline models.

use crate::error::NnError;
use crate::layer::{Layer, LayerKind};
use crate::model::Model;
use crate::shape::FeatureMap;
use serde::{Deserialize, Serialize};

/// Workload statistics for a single crossbar-mappable unit (one convolution,
/// one branch of a branch layer, or one fully-connected layer).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LayerWorkload {
    /// Layer name (branches are suffixed with `#<index>`).
    pub name: String,
    /// `true` for convolutions, `false` for fully-connected layers.
    pub is_conv: bool,
    /// Input feature-map shape (`C × H × W`; FC layers use a vector shape).
    pub input: FeatureMap,
    /// Output feature-map shape (`D × E × F`).
    pub output: FeatureMap,
    /// Filter height `Z` (1 for FC layers).
    pub kernel_h: usize,
    /// Filter width `G` (1 for FC layers).
    pub kernel_w: usize,
    /// Stride `S` (1 for FC layers).
    pub stride: usize,
    /// Multiply-accumulate count for one inference.
    pub macs: u64,
    /// Number of weights.
    pub weights: u64,
}

impl LayerWorkload {
    /// Length of one unrolled filter: the number of crossbar *rows* one output
    /// channel's dot product spans (`C·Z·G` for convolutions, `in_features`
    /// for FC layers).
    pub fn filter_len(&self) -> usize {
        if self.is_conv {
            self.input.channels * self.kernel_h * self.kernel_w
        } else {
            self.input.elements()
        }
    }

    /// Number of output channels `D` (i.e. crossbar *columns* before weight
    /// duplication; FC layers use their output feature count).
    pub fn out_channels(&self) -> usize {
        self.output.channels
    }

    /// Number of unique input elements the layer reads (`C·H·W`).
    pub fn unique_inputs(&self) -> u64 {
        self.input.elements() as u64
    }

    /// Number of unique output elements the layer produces (`D·E·F`).
    pub fn unique_outputs(&self) -> u64 {
        self.output.elements() as u64
    }

    /// The input-reuse factor `D·Z·G / S²` (paper §II-A). FC layers reuse each
    /// input once per output neuron.
    pub fn input_reuse_factor(&self) -> f64 {
        if self.is_conv {
            (self.output.channels * self.kernel_h * self.kernel_w) as f64
                / (self.stride * self.stride) as f64
        } else {
            self.output.channels as f64
        }
    }

    /// Number of L1 (input-buffer) reads under a *conventional* crossbar
    /// mapping in which every output position re-reads its full receptive
    /// field, as PRIME/ISAAC do (Table V, "PRIME" row): `E·F·C·Z·G ·
    /// ceil(D / cols)` where `cols` is the number of filters one crossbar
    /// column group can hold.
    pub fn conventional_input_reads(&self, crossbar_cols: usize) -> u64 {
        debug_assert!(crossbar_cols > 0);
        let column_groups = self.output.channels.div_ceil(crossbar_cols).max(1) as u64;
        if self.is_conv {
            (self.output.height * self.output.width) as u64
                * self.filter_len() as u64
                * column_groups
        } else {
            self.filter_len() as u64 * column_groups
        }
    }

    /// Number of L1 (input-buffer) reads under TIMELY's only-once-input-read
    /// (O2IR) mapping: every unique input element that the layer actually
    /// touches is fetched exactly once (Table V, "TIMELY" row). Inputs that
    /// fall outside every receptive field (possible when the stride exceeds
    /// the kernel size) are never fetched.
    pub fn o2ir_input_reads(&self) -> u64 {
        if !self.is_conv {
            return self.unique_inputs();
        }
        let covered = |out: usize, kernel: usize, input: usize| -> u64 {
            if out == 0 {
                return 0;
            }
            let touched = if self.stride >= kernel {
                // Disjoint windows: each output position touches `kernel`
                // fresh pixels.
                out * kernel
            } else {
                // Overlapping windows: a contiguous span of the input.
                (out - 1) * self.stride + kernel
            };
            touched.min(input) as u64
        };
        self.input.channels as u64
            * covered(self.output.height, self.kernel_h, self.input.height)
            * covered(self.output.width, self.kernel_w, self.input.width)
    }

    /// Number of crossbar-row input applications assuming each application is
    /// shared across `b` columns of a `b × b` crossbar (Fig. 4(a)'s input
    /// access count): `MACs / b`, rounded up.
    pub fn shared_row_input_accesses(&self, b: usize) -> u64 {
        debug_assert!(b > 0);
        self.macs.div_ceil(b as u64)
    }

    /// Number of partial-sum (Psum) productions: one per output element per
    /// vertical crossbar segment of its dot product, i.e.
    /// `D·E·F · ceil(C·Z·G / b)` (Fig. 4(a)'s Psum access count).
    pub fn psum_accesses(&self, b: usize) -> u64 {
        debug_assert!(b > 0);
        self.unique_outputs() * (self.filter_len().div_ceil(b) as u64)
    }

    /// Number of `b × b` crossbars required to hold the layer's weights when
    /// each weight occupies `cells_per_weight` adjacent cells in a row
    /// (sub-ranged multi-bit weights), before any duplication for throughput.
    pub fn crossbars_required(&self, b: usize, cells_per_weight: usize) -> u64 {
        debug_assert!(b > 0 && cells_per_weight > 0);
        let rows = self.filter_len().div_ceil(b) as u64;
        let cols_per_xbar = b / cells_per_weight;
        let cols = self.out_channels().div_ceil(cols_per_xbar.max(1)) as u64;
        rows * cols
    }
}

/// Aggregated workload statistics for an entire model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelWorkload {
    /// Model name.
    pub model_name: String,
    /// Per-layer workloads for every weighted (crossbar-mappable) unit, in
    /// execution order.
    pub layers: Vec<LayerWorkload>,
    /// Number of ReLU activations evaluated (element count, not layer count).
    pub relu_elements: u64,
    /// Number of pooling output elements produced.
    pub pool_outputs: u64,
    /// Number of element-wise addition outputs produced (residual shortcuts).
    pub eltwise_outputs: u64,
}

impl ModelWorkload {
    /// Analyzes a model into per-layer workload statistics.
    ///
    /// # Panics
    ///
    /// Never panics for models constructed through [`Model::new`] /
    /// [`crate::ModelBuilder::build`], which validate their shape chain.
    #[expect(
        clippy::expect_used,
        reason = "analyze() is the validated-model fast path; try_analyze is the fallible API"
    )]
    pub fn analyze(model: &Model) -> Self {
        Self::try_analyze(model).expect("validated models always analyze cleanly")
    }

    /// Fallible version of [`ModelWorkload::analyze`].
    ///
    /// # Errors
    ///
    /// Propagates shape errors from the model's layer chain.
    pub fn try_analyze(model: &Model) -> Result<Self, NnError> {
        let mut layers = Vec::new();
        let mut relu_elements = 0u64;
        let mut pool_outputs = 0u64;
        let mut eltwise_outputs = 0u64;
        for (layer, input, output) in model.layer_shapes()? {
            match &layer.kind {
                LayerKind::Conv(spec) => {
                    layers.push(LayerWorkload {
                        name: layer.name.clone(),
                        is_conv: true,
                        input,
                        output,
                        kernel_h: spec.kernel_h,
                        kernel_w: spec.kernel_w,
                        stride: spec.stride,
                        macs: layer.macs(input)?,
                        weights: layer.weights() as u64,
                    });
                }
                LayerKind::Fc(spec) => {
                    layers.push(LayerWorkload {
                        name: layer.name.clone(),
                        is_conv: false,
                        input: FeatureMap::vector(spec.in_features),
                        output,
                        kernel_h: 1,
                        kernel_w: 1,
                        stride: 1,
                        macs: layer.macs(input)?,
                        weights: layer.weights() as u64,
                    });
                }
                LayerKind::Shortcut(spec) => {
                    // The projection convolution consumes the residual block's
                    // *input* feature map, which has `stride`× the spatial size
                    // of the block's output and the spec's input channel count.
                    let proj_input = FeatureMap::new(
                        spec.in_channels,
                        output.height * spec.stride,
                        output.width * spec.stride,
                    );
                    let proj_output =
                        FeatureMap::new(spec.out_channels, output.height, output.width);
                    layers.push(LayerWorkload {
                        name: layer.name.clone(),
                        is_conv: true,
                        input: proj_input,
                        output: proj_output,
                        kernel_h: spec.kernel_h,
                        kernel_w: spec.kernel_w,
                        stride: spec.stride,
                        macs: layer.macs(input)?,
                        weights: layer.weights() as u64,
                    });
                }
                LayerKind::Branch(branches) => {
                    for (i, spec) in branches.iter().enumerate() {
                        let sub = Layer::conv(format!("{}#{i}", layer.name), *spec);
                        let sub_out = sub.output_shape(input)?;
                        layers.push(LayerWorkload {
                            name: sub.name.clone(),
                            is_conv: true,
                            input,
                            output: sub_out,
                            kernel_h: spec.kernel_h,
                            kernel_w: spec.kernel_w,
                            stride: spec.stride,
                            macs: sub.macs(input)?,
                            weights: sub.weights() as u64,
                        });
                    }
                }
                LayerKind::Relu => relu_elements += output.elements() as u64,
                LayerKind::Pool(_) => pool_outputs += output.elements() as u64,
                LayerKind::ElementwiseAdd => eltwise_outputs += output.elements() as u64,
            }
        }
        Ok(Self {
            model_name: model.name().to_string(),
            layers,
            relu_elements,
            pool_outputs,
            eltwise_outputs,
        })
    }

    /// Workloads of convolutional layers only (the subset reported in Fig. 4(a)
    /// and Table V, which consider "all CONV layers").
    pub fn conv_layers(&self) -> impl Iterator<Item = &LayerWorkload> {
        self.layers.iter().filter(|l| l.is_conv)
    }

    /// Total MAC count across all weighted layers.
    pub fn total_macs(&self) -> u64 {
        self.layers.iter().map(|l| l.macs).sum()
    }

    /// Total weight count across all weighted layers.
    pub fn total_weights(&self) -> u64 {
        self.layers.iter().map(|l| l.weights).sum()
    }

    /// Total shared-row input accesses over CONV layers (Fig. 4(a), inputs).
    pub fn conv_input_accesses(&self, b: usize) -> u64 {
        self.conv_layers()
            .map(|l| l.shared_row_input_accesses(b))
            .sum()
    }

    /// Total Psum accesses over CONV layers (Fig. 4(a), Psums).
    pub fn conv_psum_accesses(&self, b: usize) -> u64 {
        self.conv_layers().map(|l| l.psum_accesses(b)).sum()
    }

    /// Whether the full model (weights) fits in `capacity_weights` crossbar
    /// weight slots — used to decide if a baseline accelerator can keep the
    /// whole model inside one bank/tile (the compact-model case of Fig. 8(a)).
    pub fn fits_in_weights(&self, capacity_weights: u64) -> bool {
        self.total_weights() <= capacity_weights
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::ConvSpec;
    use crate::model::ModelBuilder;
    use crate::zoo;

    #[test]
    fn table_v_prime_and_timely_input_reads_for_vgg_d() {
        // Table V: L1 reads for the first six CONV layers of VGG-D.
        let workload = ModelWorkload::analyze(&zoo::vgg_d());
        let convs: Vec<_> = workload.conv_layers().collect();
        // Expected PRIME reads (millions): 1.35, 28.90, 7.23, 14.45, 3.61, 7.23
        let expected_prime = [1.35, 28.90, 7.23, 14.45, 3.61, 7.23];
        // Expected TIMELY reads (millions): 0.15, 3.21, 0.80, 1.61, 0.40, 0.80
        let expected_timely = [0.15, 3.21, 0.80, 1.61, 0.40, 0.80];
        for i in 0..6 {
            let prime = convs[i].conventional_input_reads(256) as f64 / 1e6;
            let timely = convs[i].o2ir_input_reads() as f64 / 1e6;
            assert!(
                (prime - expected_prime[i]).abs() / expected_prime[i] < 0.05,
                "CONV{} PRIME reads: got {prime:.2} M, expected {:.2} M",
                i + 1,
                expected_prime[i]
            );
            assert!(
                (timely - expected_timely[i]).abs() / expected_timely[i] < 0.08,
                "CONV{} TIMELY reads: got {timely:.2} M, expected {:.2} M",
                i + 1,
                expected_timely[i]
            );
        }
    }

    #[test]
    fn o2ir_saves_about_89_percent_on_3x3_stride_1_layers() {
        let workload = ModelWorkload::analyze(&zoo::vgg_d());
        for layer in workload.conv_layers().skip(1).take(5) {
            let prime = layer.conventional_input_reads(256) as f64;
            let timely = layer.o2ir_input_reads() as f64;
            let saving = 1.0 - timely / prime;
            assert!(
                (saving - 0.889).abs() < 0.02,
                "{}: saving {saving:.3}",
                layer.name
            );
        }
    }

    #[test]
    fn fig_4a_access_counts_for_vgg_d_and_resnet_50() {
        // Fig. 4(a): tens of millions of input/Psum accesses for VGG-D and
        // ResNet-50 (paper quotes >55 M inputs and >15 M Psums).
        let vgg = ModelWorkload::analyze(&zoo::vgg_d());
        let resnet = ModelWorkload::analyze(&zoo::resnet_50());
        assert!(vgg.conv_input_accesses(256) > 55_000_000);
        assert!(resnet.conv_psum_accesses(256) > 10_000_000);
    }

    #[test]
    fn branch_layers_are_expanded_into_separate_workloads() {
        let workload = ModelWorkload::analyze(&zoo::squeezenet());
        let expand_units = workload
            .layers
            .iter()
            .filter(|l| l.name.contains("expand#"))
            .count();
        // 8 fire modules x 2 expand branches.
        assert_eq!(expand_units, 16);
    }

    #[test]
    fn mlp_workload_has_no_conv_layers() {
        let workload = ModelWorkload::analyze(&zoo::mlp_l());
        assert_eq!(workload.conv_layers().count(), 0);
        assert_eq!(workload.total_macs(), zoo::mlp_l().total_macs().unwrap());
    }

    #[test]
    fn crossbars_required_scales_with_duplicated_weight_width() {
        let workload = ModelWorkload::analyze(&zoo::vgg_d());
        let conv = workload.conv_layers().nth(1).unwrap(); // conv1_2: 64x3x3 -> 64
                                                           // 8-bit weights in 4-bit cells: 2 cells per weight.
        let xbars_8b = conv.crossbars_required(256, 2);
        let xbars_4b = conv.crossbars_required(256, 1);
        assert!(xbars_8b >= xbars_4b);
        // filter_len = 576 -> 3 row groups; 64 filters at 128 cols -> 1 col group.
        assert_eq!(xbars_8b, 3);
    }

    #[test]
    fn reuse_factor_is_d_zg_over_s_squared() {
        let model = ModelBuilder::new("m", FeatureMap::new(8, 16, 16))
            .conv("c", ConvSpec::new(8, 32, 3, 2, 1))
            .build()
            .unwrap();
        let workload = ModelWorkload::analyze(&model);
        let layer = &workload.layers[0];
        assert!((layer.input_reuse_factor() - 32.0 * 9.0 / 4.0).abs() < 1e-9);
    }

    #[test]
    fn relu_and_pool_elements_are_counted() {
        let workload = ModelWorkload::analyze(&zoo::vgg_d());
        assert!(workload.relu_elements > 0);
        assert!(workload.pool_outputs > 0);
        let resnet = ModelWorkload::analyze(&zoo::resnet_50());
        assert!(resnet.eltwise_outputs > 0);
    }

    #[test]
    fn compact_models_fit_in_a_single_prime_bank() {
        // PRIME FF subarray capacity: the paper argues CNN-1 and SqueezeNet
        // avoid high-cost memory accesses because they fit in one bank.
        let cnn1 = ModelWorkload::analyze(&zoo::cnn_1());
        assert!(cnn1.fits_in_weights(2 * 1024 * 1024));
        let vgg = ModelWorkload::analyze(&zoo::vgg_d());
        assert!(!vgg.fits_in_weights(2 * 1024 * 1024));
    }
}
