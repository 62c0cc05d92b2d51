//! Weight mapping and per-layer event counting.
//!
//! This module turns an architecture-independent [`LayerWorkload`] into the
//! per-layer *event counts* that drive the energy and latency models: how many
//! L1 buffer accesses, DTC/TDC (or DAC/ADC) conversions, analog-local-buffer
//! accesses, crossbar column activations, charging/comparator evaluations,
//! and partial-sum write-backs one inference causes on a given TIMELY
//! configuration.
//!
//! The counting model implements the paper's three innovations as toggles
//! (see [`crate::config::Features`]):
//!
//! * **O2IR** — every unique input element is fetched from the L1 input
//!   buffer exactly once (Table V); without it, every output position
//!   re-reads its receptive field (the conventional mapping).
//! * **ALBs** — inputs fetched once from L1 are distributed across the
//!   sub-chip's crossbar columns through X-subBufs and Psums flow to the
//!   I-adders through P-subBufs; without ALBs every crossbar column fetches
//!   its inputs from L1 directly (`N_CB×` more reads) and every crossbar's
//!   Psum is written to and read back from the output buffer.
//! * **TDIs** — one DTC conversion per fetched input and one TDC conversion
//!   per sub-chip-column output; without TDIs, one DAC conversion per
//!   crossbar-row drive and one ADC conversion per crossbar-column activation
//!   (as in existing R2PIM designs).

use crate::config::{MappingStrategy, TimelyConfig};
use crate::error::ArchError;
use crate::subchip::SubChipGeometry;
use serde::{Deserialize, Serialize};
use timely_nn::workload::{LayerWorkload, ModelWorkload};
use timely_nn::Model;

/// Event counts for one weighted layer on one inference.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LayerCounts {
    /// Layer name.
    pub name: String,
    /// Crossbars required to hold the layer's weights once (no duplication).
    pub crossbars: u64,
    /// Reads of input elements from the L1 input buffer.
    pub l1_input_reads: u64,
    /// Writes of output elements to the L1 output buffer.
    pub l1_output_writes: u64,
    /// Writes of partial sums that do not fit in the analog domain and must
    /// spill to the output buffer (plus their later re-reads).
    pub l1_psum_writes: u64,
    /// Re-reads of spilled partial sums.
    pub l1_psum_reads: u64,
    /// Digital-to-time conversions (DTC). Zero when TDIs are disabled.
    pub dtc_conversions: u64,
    /// Time-to-digital conversions (TDC). Zero when TDIs are disabled.
    pub tdc_conversions: u64,
    /// Voltage-domain DAC conversions. Zero when TDIs are enabled.
    pub dac_conversions: u64,
    /// Voltage-domain ADC conversions. Zero when TDIs are enabled.
    pub adc_conversions: u64,
    /// X-subBuf accesses (time-domain input distribution).
    pub x_subbuf_accesses: u64,
    /// P-subBuf accesses (current-domain Psum forwarding).
    pub p_subbuf_accesses: u64,
    /// Analog crossbar column activations (one per ≤B-row dot product).
    pub crossbar_column_activations: u64,
    /// I-adder aggregations (one per sub-chip column output).
    pub i_adder_ops: u64,
    /// Charging-unit + comparator evaluations.
    pub charging_ops: u64,
    /// Inter-chip link transfers (outputs shipped to another chip).
    pub hyperlink_transfers: u64,
}

impl LayerCounts {
    /// Total L1 (input/output buffer) accesses of any kind.
    pub fn l1_accesses(&self) -> u64 {
        self.l1_input_reads + self.l1_output_writes + self.l1_psum_writes + self.l1_psum_reads
    }

    /// Sums two count records field-by-field (used to aggregate a model).
    fn accumulate(&mut self, other: &LayerCounts) {
        self.crossbars += other.crossbars;
        self.l1_input_reads += other.l1_input_reads;
        self.l1_output_writes += other.l1_output_writes;
        self.l1_psum_writes += other.l1_psum_writes;
        self.l1_psum_reads += other.l1_psum_reads;
        self.dtc_conversions += other.dtc_conversions;
        self.tdc_conversions += other.tdc_conversions;
        self.dac_conversions += other.dac_conversions;
        self.adc_conversions += other.adc_conversions;
        self.x_subbuf_accesses += other.x_subbuf_accesses;
        self.p_subbuf_accesses += other.p_subbuf_accesses;
        self.crossbar_column_activations += other.crossbar_column_activations;
        self.i_adder_ops += other.i_adder_ops;
        self.charging_ops += other.charging_ops;
        self.hyperlink_transfers += other.hyperlink_transfers;
    }
}

/// The complete mapping of a model onto a TIMELY configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelMapping {
    /// Model name.
    pub model_name: String,
    /// Per-layer event counts in execution order.
    pub layers: Vec<LayerCounts>,
    /// Aggregate counts over all layers.
    pub totals: LayerCounts,
    /// Number of ReLU evaluations (element count).
    pub relu_ops: u64,
    /// Number of pooling output elements.
    pub pool_ops: u64,
    /// Total MACs of the model (for efficiency metrics).
    pub total_macs: u64,
    /// Whether the model's weights fit on the configured chips without
    /// eviction.
    pub fits_on_chip: bool,
}

impl ModelMapping {
    /// Maps a model onto the configuration and counts per-layer events.
    ///
    /// # Errors
    ///
    /// Returns [`ArchError::InvalidConfig`] for invalid configurations, or a
    /// workload error if the model cannot be analyzed.
    pub fn analyze(model: &Model, config: &TimelyConfig) -> Result<Self, ArchError> {
        config.validate()?;
        let workload = ModelWorkload::try_analyze(model)?;
        Self::from_workload(&workload, config)
    }

    /// Maps an already-analyzed workload onto the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ArchError::InvalidConfig`] for invalid configurations.
    pub fn from_workload(
        workload: &ModelWorkload,
        config: &TimelyConfig,
    ) -> Result<Self, ArchError> {
        config.validate()?;
        let mut layers = Vec::with_capacity(workload.layers.len());
        let mut totals = LayerCounts {
            name: "total".to_string(),
            ..LayerCounts::default()
        };
        for layer in &workload.layers {
            let counts = layer_counts(layer, config);
            totals.accumulate(&counts);
            layers.push(counts);
        }
        debug_assert_eq!(
            Self::workload_totals(workload, config).as_ref(),
            Ok(&totals)
        );
        let capacity = SubChipGeometry::total_weight_capacity(config);
        let fits_on_chip = workload.total_weights() <= capacity;
        Ok(Self {
            model_name: workload.model_name.clone(),
            layers,
            totals,
            relu_ops: workload.relu_elements,
            pool_ops: workload.pool_outputs,
            total_macs: workload.total_macs(),
            fits_on_chip,
        })
    }

    /// Aggregate event counts of a workload without materializing per-layer
    /// records or their name strings. Field-for-field equal to
    /// the `totals` of [`ModelMapping::from_workload`]: it applies the
    /// configuration once to the workload's [`TotalsFactors`] instead of to
    /// every layer, which is exact because every count is linear in the
    /// per-layer sums.
    ///
    /// # Errors
    ///
    /// Returns [`ArchError::InvalidConfig`] for invalid configurations.
    pub fn workload_totals(
        workload: &ModelWorkload,
        config: &TimelyConfig,
    ) -> Result<LayerCounts, ArchError> {
        config.validate()?;
        let (b, cells_per_weight, ..) = TotalsFactors::key(config);
        let layer_crossbars = workload
            .layers
            .iter()
            .map(|layer| layer.crossbars_required(b, cells_per_weight));
        Ok(LayerCounts {
            name: "total".to_string(),
            ..TotalsFactors::for_workload(workload, config).totals(
                workload,
                layer_crossbars,
                config,
            )
        })
    }

    /// Looks up the counts of a layer by name.
    pub fn layer(&self, name: &str) -> Option<&LayerCounts> {
        self.layers.iter().find(|l| l.name == name)
    }
}

/// The configuration-independent sums behind a workload's aggregate event
/// counts, for one `(crossbar_size, cells_per_weight, subchip_rows,
/// subchip_cols)` tuple ([`TotalsFactors::key`]).
///
/// Every count of the counting model is a per-point factor (input time
/// slices, `N_CB`, the feature toggles) times one of these per-layer sums, so
/// [`TotalsFactors::totals`] prices a whole workload in constant time. The
/// one exception is the inter-chip term, which depends on the per-chip
/// crossbar budget: it walks the layers, and only when the model spans
/// several chips and is larger than one chip. Design-space sweeps cache one
/// value per tuple and model and reuse it across every γ, sub-chip count,
/// chip count, precision and feature set that shares the tuple.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TotalsFactors {
    /// Σ O2IR input reads × sub-chip row groups × sub-chip column groups.
    o2ir_reads: u64,
    /// Σ conventional input reads × row groups × column groups.
    conventional_reads: u64,
    /// Σ outputs × crossbar row segments.
    output_row_segments: u64,
    /// Σ outputs × sub-chip row groups.
    output_row_groups: u64,
    /// Σ outputs × (sub-chip row groups − 1): the analog-spill groups.
    output_spill_groups: u64,
    /// Σ outputs.
    outputs: u64,
    /// Σ crossbars needed to hold the weights once.
    crossbars: u64,
}

impl TotalsFactors {
    /// The configuration fields the factors depend on: `(crossbar_size,
    /// cells_per_weight, subchip_rows, subchip_cols)`. Two configurations
    /// with equal keys share their factors.
    pub fn key(config: &TimelyConfig) -> (usize, usize, usize, usize) {
        (
            config.crossbar_size,
            config.cells_per_weight(),
            config.subchip_rows,
            config.subchip_cols,
        )
    }

    /// Sums the factors of every layer of a workload. Reads only the
    /// [`TotalsFactors::key`] fields of a validated configuration.
    pub fn for_workload(workload: &ModelWorkload, config: &TimelyConfig) -> Self {
        let mut sum = Self::default();
        for layer in &workload.layers {
            let f = Self::for_layer(layer, config);
            sum.o2ir_reads += f.o2ir_reads;
            sum.conventional_reads += f.conventional_reads;
            sum.output_row_segments += f.output_row_segments;
            sum.output_row_groups += f.output_row_groups;
            sum.output_spill_groups += f.output_spill_groups;
            sum.outputs += f.outputs;
            sum.crossbars += f.crossbars;
        }
        sum
    }

    /// The factors of one weighted layer.
    fn for_layer(layer: &LayerWorkload, config: &TimelyConfig) -> Self {
        let (b, cells_per_weight, subchip_rows, subchip_cols) = Self::key(config);
        let outputs = layer.unique_outputs();
        let filter_len = layer.filter_len() as u64;
        // How many crossbar row segments one dot product spans, and how many
        // sub-chip row groups (each sub-chip stacks `subchip_rows` crossbars).
        let row_segments = filter_len.div_ceil(b as u64);
        let row_groups = filter_len.div_ceil((subchip_rows * b) as u64);
        // How many sub-chip column groups the layer's filters occupy.
        let effective_cols = (layer.out_channels() * cells_per_weight) as u64;
        let col_groups = effective_cols.div_ceil((subchip_cols * b) as u64);
        // Inputs must reach every sub-chip row/column group holding part of
        // the layer.
        let groups = row_groups * col_groups;
        Self {
            o2ir_reads: layer.o2ir_input_reads() * groups,
            conventional_reads: layer.conventional_input_reads(b) * groups,
            output_row_segments: outputs * row_segments,
            output_row_groups: outputs * row_groups,
            output_spill_groups: outputs * (row_groups - 1),
            outputs,
            crossbars: layer.crossbars_required(b, cells_per_weight),
        }
    }

    /// The aggregate event counts of the workload these factors were built
    /// from, on `config` (whose [`TotalsFactors::key`] must match). The
    /// name is left empty, so this path never touches the allocator.
    ///
    /// `layer_crossbars` yields each layer's crossbar count in execution
    /// order (e.g. a cached [`LayerPlacement::crossbars`]); it is read only
    /// when the inter-chip term can be non-zero.
    ///
    /// [`LayerPlacement::crossbars`]: crate::LayerPlacement::crossbars
    // lint:hot per-point totals: constant work unless the model spans chips
    pub fn totals(
        &self,
        workload: &ModelWorkload,
        layer_crossbars: impl IntoIterator<Item = u64>,
        config: &TimelyConfig,
    ) -> LayerCounts {
        // A layer can only overflow one chip if the whole model does.
        let hyperlink_transfers =
            if config.chips > 1 && self.crossbars > SubChipGeometry::crossbars_per_chip(config) {
                let mut sum = 0;
                for (layer, crossbars) in workload.layers.iter().zip(layer_crossbars) {
                    sum += hyperlink_transfers(layer.unique_outputs(), crossbars, config);
                }
                sum
            } else {
                0
            };
        self.counts(config, hyperlink_transfers)
    }

    /// The counting model proper: scales the sums by the per-point factors.
    /// Shared by the per-layer ([`ModelMapping::from_workload`]) and the
    /// aggregate ([`TotalsFactors::totals`]) paths.
    fn counts(&self, config: &TimelyConfig, hyperlink_transfers: u64) -> LayerCounts {
        let input_slices = config.input_slices() as u64;
        // Every analog event repeats per sub-ranged weight column and per
        // input time slice.
        let per_output = config.cells_per_weight() as u64 * input_slices;
        let n_cb = config.subchip_cols as u64; // horizontal input-sharing dimension
        let features = config.features;

        // --- L1 input reads -------------------------------------------------
        let base_reads = match features.mapping_strategy() {
            MappingStrategy::OnlyOnceInputRead => self.o2ir_reads,
            MappingStrategy::Conventional => self.conventional_reads,
        };
        // With ALBs one fetch feeds a whole sub-chip row (N_CB crossbars);
        // without ALBs every crossbar column re-fetches from L1 (the N_CB×
        // factor of Innovation #1).
        let alb_factor = if features.analog_local_buffers {
            1
        } else {
            n_cb
        };
        let l1_input_reads = base_reads * alb_factor;

        // --- Analog compute events ------------------------------------------
        // One column activation per output element, per B-row segment of its
        // dot product, per sub-ranged weight column, per input time slice.
        let crossbar_column_activations = self.output_row_segments * per_output;
        // One aggregated Psum per output element per sub-chip row group (the
        // I-adder merges the vertical stack of crossbars inside one sub-chip).
        let aggregated_psums = self.output_row_groups * per_output;

        // --- Interfaces ------------------------------------------------------
        let (dtc_conversions, tdc_conversions, dac_conversions, adc_conversions) =
            if features.time_domain_interfaces {
                // One DTC conversion per fetched input time slice; one TDC
                // conversion per aggregated sub-chip column output.
                (l1_input_reads * input_slices, aggregated_psums, 0, 0)
            } else {
                // Existing designs: one DAC conversion per crossbar-row drive
                // and one ADC conversion per crossbar-column activation.
                (
                    0,
                    0,
                    l1_input_reads * input_slices,
                    crossbar_column_activations,
                )
            };

        // --- Analog local buffers --------------------------------------------
        let (x_subbuf_accesses, p_subbuf_accesses, i_adder_ops, charging_ops) =
            if features.analog_local_buffers {
                (
                    // Each fetched input is latched through the X-subBufs of
                    // its sub-chip row (one per crossbar column it reaches).
                    l1_input_reads * input_slices * n_cb,
                    // Each crossbar column activation forwards its current
                    // through one P-subBuf on its way to the I-adder.
                    crossbar_column_activations,
                    aggregated_psums,
                    aggregated_psums,
                )
            } else {
                (0, 0, 0, 0)
            };

        // --- Partial-sum spills and outputs ----------------------------------
        // Psums that cannot be accumulated in the analog domain (the dot
        // product spans multiple sub-chip row groups) spill to the output
        // buffer and are re-read for digital accumulation. Without ALBs,
        // *every* crossbar column's Psum spills (existing designs write
        // per-crossbar Psums back).
        let spills = if features.analog_local_buffers {
            self.output_spill_groups * per_output
        } else {
            crossbar_column_activations
        };

        LayerCounts {
            name: String::new(),
            crossbars: self.crossbars,
            l1_input_reads,
            l1_output_writes: self.outputs,
            l1_psum_writes: spills,
            l1_psum_reads: spills,
            dtc_conversions,
            tdc_conversions,
            dac_conversions,
            adc_conversions,
            x_subbuf_accesses,
            p_subbuf_accesses,
            crossbar_column_activations,
            i_adder_ops,
            charging_ops,
            hyperlink_transfers,
        }
    }
}

/// Inter-chip link transfers of one layer. Outputs only travel over the
/// HyperTransport links when the model spans multiple chips and the layer's
/// weights alone overflow one chip; intra-chip layer-to-layer traffic stays
/// in the L1 buffers (the paper's "L3 is negligible" observation).
fn hyperlink_transfers(outputs: u64, crossbars: u64, config: &TimelyConfig) -> u64 {
    if config.chips > 1 && crossbars > SubChipGeometry::crossbars_per_chip(config) {
        outputs
    } else {
        0
    }
}

/// Computes the event counts of one weighted layer.
fn layer_counts(layer: &LayerWorkload, config: &TimelyConfig) -> LayerCounts {
    let factors = TotalsFactors::for_layer(layer, config);
    let hyperlink = hyperlink_transfers(factors.outputs, factors.crossbars, config);
    LayerCounts {
        name: layer.name.clone(),
        ..factors.counts(config, hyperlink)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Features;
    use timely_nn::zoo;

    fn o2ir_config() -> TimelyConfig {
        TimelyConfig::paper_default()
    }

    fn conventional_config() -> TimelyConfig {
        let mut cfg = TimelyConfig::paper_default();
        cfg.features = Features {
            o2ir_mapping: false,
            ..Features::all()
        };
        cfg
    }

    #[test]
    fn table_v_l1_reads_for_vgg_d() {
        let vgg = zoo::vgg_d();
        let o2ir = ModelMapping::analyze(&vgg, &o2ir_config()).unwrap();
        let conventional = ModelMapping::analyze(&vgg, &conventional_config()).unwrap();
        // Table V (millions): PRIME 1.35/28.90/7.23/14.45/3.61/7.23,
        // TIMELY 0.15/3.21/0.80/1.61/0.40/0.80 for CONV1..CONV6, an 88.9% cut.
        let expected_conventional = [1.35, 28.90, 7.23, 14.45, 3.61, 7.23];
        let expected_o2ir = [0.15, 3.21, 0.80, 1.61, 0.40, 0.80];
        let conv_names: Vec<&str> = vec![
            "conv1_1", "conv1_2", "conv2_1", "conv2_2", "conv3_1", "conv3_2",
        ];
        for (i, name) in conv_names.iter().enumerate() {
            let t = o2ir.layer(name).unwrap().l1_input_reads as f64 / 1e6;
            let p = conventional.layer(name).unwrap().l1_input_reads as f64 / 1e6;
            assert!(
                (t - expected_o2ir[i]).abs() / expected_o2ir[i] < 0.08,
                "{name}: O2IR reads {t:.2} M vs expected {:.2} M",
                expected_o2ir[i]
            );
            assert!(
                (p - expected_conventional[i]).abs() / expected_conventional[i] < 0.05,
                "{name}: conventional reads {p:.2} M vs expected {:.2} M",
                expected_conventional[i]
            );
            let saving = 1.0 - t / p;
            assert!((saving - 0.889).abs() < 0.02, "{name}: saving {saving:.3}");
        }
    }

    #[test]
    fn o2ir_reduces_input_reads_by_roughly_an_order_of_magnitude() {
        let vgg = zoo::vgg_d();
        let o2ir = ModelMapping::analyze(&vgg, &o2ir_config()).unwrap();
        let conventional = ModelMapping::analyze(&vgg, &conventional_config()).unwrap();
        let ratio = conventional.totals.l1_input_reads as f64 / o2ir.totals.l1_input_reads as f64;
        assert!(ratio > 5.0, "ratio {ratio}");
    }

    #[test]
    fn disabling_albs_multiplies_input_reads_by_ncb() {
        let vgg = zoo::vgg_d();
        let with_alb = ModelMapping::analyze(&vgg, &o2ir_config()).unwrap();
        let mut cfg = o2ir_config();
        cfg.features.analog_local_buffers = false;
        let without_alb = ModelMapping::analyze(&vgg, &cfg).unwrap();
        let ratio =
            without_alb.totals.l1_input_reads as f64 / with_alb.totals.l1_input_reads as f64;
        assert!(
            (ratio - cfg.subchip_cols as f64).abs() < 0.5,
            "expected ~N_CB x more reads, got {ratio}"
        );
        // And Psums spill to the buffer instead of flowing through P-subBufs.
        assert_eq!(without_alb.totals.p_subbuf_accesses, 0);
        assert!(without_alb.totals.l1_psum_writes > with_alb.totals.l1_psum_writes * 10);
    }

    #[test]
    fn disabling_tdi_switches_to_dacs_and_adcs() {
        let vgg = zoo::vgg_d();
        let mut cfg = o2ir_config();
        cfg.features.time_domain_interfaces = false;
        let mapping = ModelMapping::analyze(&vgg, &cfg).unwrap();
        assert_eq!(mapping.totals.dtc_conversions, 0);
        assert_eq!(mapping.totals.tdc_conversions, 0);
        assert!(mapping.totals.dac_conversions > 0);
        assert!(mapping.totals.adc_conversions > 0);
        // Existing designs need one ADC conversion per crossbar column
        // activation, far more than TIMELY's per-sub-chip-column TDC count.
        let timely = ModelMapping::analyze(&vgg, &o2ir_config()).unwrap();
        assert!(mapping.totals.adc_conversions > timely.totals.tdc_conversions);
    }

    #[test]
    fn sixteen_bit_precision_increases_conversions_and_activations() {
        let vgg = zoo::vgg_1();
        let m8 = ModelMapping::analyze(&vgg, &TimelyConfig::paper_default()).unwrap();
        let m16 = ModelMapping::analyze(&vgg, &TimelyConfig::paper_16bit()).unwrap();
        assert!(m16.totals.crossbar_column_activations > m8.totals.crossbar_column_activations);
        assert!(m16.totals.dtc_conversions > m8.totals.dtc_conversions);
        assert!(m16.totals.crossbars > m8.totals.crossbars);
    }

    #[test]
    fn small_models_fit_on_one_chip_and_large_ones_do_not_overflow_capacity_flag() {
        let cnn1 = ModelMapping::analyze(&zoo::cnn_1(), &o2ir_config()).unwrap();
        assert!(cnn1.fits_on_chip);
        let vgg = ModelMapping::analyze(&zoo::vgg_d(), &o2ir_config()).unwrap();
        // VGG-D has 138 M weights; a single 106-sub-chip TIMELY chip holds
        // ~600 M 8-bit weights, so it fits.
        assert!(vgg.fits_on_chip);
    }

    #[test]
    fn totals_equal_the_sum_of_layers() {
        let mapping = ModelMapping::analyze(&zoo::vgg_1(), &o2ir_config()).unwrap();
        let sum: u64 = mapping.layers.iter().map(|l| l.l1_input_reads).sum();
        assert_eq!(sum, mapping.totals.l1_input_reads);
        let sum: u64 = mapping
            .layers
            .iter()
            .map(|l| l.crossbar_column_activations)
            .sum();
        assert_eq!(sum, mapping.totals.crossbar_column_activations);
        assert_eq!(
            mapping.totals.l1_accesses(),
            mapping.totals.l1_input_reads
                + mapping.totals.l1_output_writes
                + mapping.totals.l1_psum_writes
                + mapping.totals.l1_psum_reads
        );
    }

    #[test]
    fn fc_layers_are_mapped_too() {
        let mlp = ModelMapping::analyze(&zoo::mlp_l(), &o2ir_config()).unwrap();
        assert_eq!(mlp.layers.len(), 4);
        assert!(mlp.totals.crossbar_column_activations > 0);
        assert!(mlp.layer("fc1").unwrap().l1_input_reads >= 784);
    }

    #[test]
    fn workload_totals_equal_the_full_mapping_totals() {
        let mut conventional = o2ir_config();
        conventional.features = Features::none();
        for cfg in [o2ir_config(), TimelyConfig::paper_16bit(), conventional] {
            for model in [zoo::cnn_1(), zoo::vgg_d(), zoo::mlp_l()] {
                let workload = ModelWorkload::try_analyze(&model).unwrap();
                let mapping = ModelMapping::from_workload(&workload, &cfg).unwrap();
                let totals = ModelMapping::workload_totals(&workload, &cfg).unwrap();
                assert_eq!(totals, mapping.totals);
            }
        }
    }

    #[test]
    fn factored_totals_equal_the_per_layer_totals_on_a_config_grid() {
        let workloads: Vec<ModelWorkload> = zoo::all_models()
            .iter()
            .map(|model| ModelWorkload::try_analyze(model).unwrap())
            .collect();
        let feature_sets = [
            Features::all(),
            Features {
                o2ir_mapping: false,
                ..Features::all()
            },
            Features {
                time_domain_interfaces: false,
                ..Features::all()
            },
            Features::none(),
        ];
        let geometries = [(16, 12), (12, 16), (8, 12), (16, 16), (8, 8)];
        // One sub-chip per chip makes large layers overflow a chip, which
        // exercises the hyperlink term when the model spans chips.
        let fleets = [(1, 1), (1, 4), (106, 1), (106, 4)];
        let mut configs = Vec::new();
        for crossbar_size in [64, 256] {
            for features in feature_sets {
                for (cell_bits, bits) in [1, 2, 4]
                    .into_iter()
                    .flat_map(|c| [(c, 4), (c, 8), (c, 16)])
                {
                    for ((subchip_rows, subchip_cols), (subchips_per_chip, chips)) in
                        geometries.into_iter().flat_map(|g| fleets.map(|f| (g, f)))
                    {
                        configs.push(TimelyConfig {
                            crossbar_size,
                            cell_bits,
                            weight_bits: bits,
                            activation_bits: bits,
                            subchip_rows,
                            subchip_cols,
                            subchips_per_chip,
                            chips,
                            features,
                            ..o2ir_config()
                        });
                    }
                }
            }
        }
        assert_eq!(configs.len(), 2 * 4 * 3 * 3 * 5 * 4);
        let mut hyperlink_cases = 0;
        for cfg in &configs {
            cfg.validate().unwrap();
            for workload in &workloads {
                let expected = ModelMapping::from_workload(workload, cfg).unwrap().totals;
                let placement = crate::LayerPlacement::for_workload(
                    workload,
                    cfg.crossbar_size,
                    cfg.cells_per_weight(),
                );
                let factored = TotalsFactors::for_workload(workload, cfg).totals(
                    workload,
                    placement.crossbars().iter().copied(),
                    cfg,
                );
                assert_eq!(
                    LayerCounts {
                        name: expected.name.clone(),
                        ..factored
                    },
                    expected,
                    "{} on {cfg:?}",
                    workload.model_name
                );
                if expected.hyperlink_transfers > 0 {
                    hyperlink_cases += 1;
                }
            }
        }
        assert!(hyperlink_cases > 0, "no case exercised the hyperlink term");
    }

    #[test]
    fn workload_totals_reject_invalid_configs() {
        let workload = ModelWorkload::try_analyze(&zoo::cnn_1()).unwrap();
        let mut cfg = o2ir_config();
        cfg.crossbar_size = 0;
        assert!(ModelMapping::workload_totals(&workload, &cfg).is_err());
    }

    #[test]
    fn layer_lookup_by_name() {
        let mapping = ModelMapping::analyze(&zoo::cnn_1(), &o2ir_config()).unwrap();
        assert!(mapping.layer("conv1").is_some());
        assert!(mapping.layer("definitely-not-a-layer").is_none());
    }
}
