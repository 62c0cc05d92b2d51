//! Pipelining, latency, throughput, and peak performance.
//!
//! TIMELY pipelines at two levels (§IV-E):
//!
//! * **intra-sub-chip** — reading inputs, DTC conversion, analog computation,
//!   TDC conversion and output write-back form a five-stage pipeline whose
//!   cycle time is set by the slowest stage: the γ = 8 DTC/TDC conversions of
//!   25 ns each, i.e. a 200 ns pipeline cycle;
//! * **inter-sub-chip** — consecutive layers run on different sub-chips in a
//!   layer pipeline, so steady-state throughput is limited by the slowest
//!   layer.
//!
//! Peak performance (Table IV) assumes every crossbar computes every cycle;
//! benchmark throughput (Fig. 8(b)) additionally models weight duplication,
//! which replicates a layer's weights so several output positions are
//! computed per cycle, bounded by the chip's crossbar budget.

use crate::config::TimelyConfig;
use crate::energy::EnergyBreakdown;
use crate::error::ArchError;
use crate::mapping::ModelMapping;
use crate::subchip::SubChipGeometry;
use serde::{Deserialize, Serialize};
use timely_analog::{Energy, Time};
use timely_nn::workload::ModelWorkload;
use timely_nn::Model;

/// The intra-sub-chip pipeline cycle time: γ DTC/TDC conversions back to back.
pub fn pipeline_cycle(config: &TimelyConfig) -> Time {
    config.components.dtc.latency * config.gamma as f64
}

/// Peak (workload-independent) performance of one chip — the quantities of
/// Table IV and Fig. 1(c).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PeakPerformance {
    /// Peak operations per second of one chip (one operation = one MAC at the
    /// configured precision).
    pub ops_per_second: f64,
    /// Peak energy efficiency in TOPs/W.
    pub tops_per_watt: f64,
    /// Computational density in TOPs/(s·mm²).
    pub tops_per_mm2: f64,
    /// The precision of one counted operation, in bits.
    pub op_bits: u8,
}

impl PeakPerformance {
    /// Computes peak performance for a configuration.
    pub fn for_config(config: &TimelyConfig) -> Self {
        let geometry = SubChipGeometry::from_config(config);
        let cycle = pipeline_cycle(config);
        let macs_per_cycle =
            geometry.peak_macs_per_cycle(config) as f64 * config.subchips_per_chip as f64;
        let ops_per_second = macs_per_cycle / cycle.as_seconds();

        let energy_per_cycle = Self::chip_energy_per_cycle(config, &geometry);
        let tops_per_watt = macs_per_cycle / energy_per_cycle.as_picojoules();

        let area_mm2 = crate::area::AreaBreakdown::for_chip(config)
            .total()
            .as_square_millimeters();
        let tops_per_mm2 = ops_per_second / 1e12 / area_mm2;
        Self {
            ops_per_second,
            tops_per_watt,
            tops_per_mm2,
            op_bits: config.weight_bits,
        }
    }

    /// The energy one chip dissipates in one pipeline cycle at full activity.
    fn chip_energy_per_cycle(config: &TimelyConfig, geo: &SubChipGeometry) -> Energy {
        let c = &config.components;
        let per_subchip = c.dtc.energy_per_op * (geo.dtcs * config.gamma) as f64
            + c.tdc.energy_per_op * (geo.tdcs * config.gamma) as f64
            + c.x_subbuf.energy_per_op * geo.x_subbufs as f64
            + c.p_subbuf.energy_per_op * geo.p_subbufs as f64
            + c.reram_crossbar.energy_per_op * (geo.crossbars * config.crossbar_size) as f64
            + c.i_adder.energy_per_op * geo.i_adders as f64
            + c.charging_comparator.energy_per_op * geo.charging_units as f64
            + c.input_buffer_access.energy_per_op * geo.input_rows as f64
            + c.output_buffer_access.energy_per_op * geo.output_columns as f64;
        per_subchip * config.subchips_per_chip as f64
    }
}

/// Per-layer placement geometry of a workload for one `(B, cells-per-weight)`
/// choice: how many crossbars each layer occupies and how many output
/// positions it must produce per input time slice.
///
/// A placement depends on the configuration *only* through the crossbar size
/// and the sub-ranging width, so one placement is reusable across every
/// configuration sharing those two values — which is exactly what hill-climb
/// neighbors differing in γ, sub-chip geometry, sub-chip count, chip count,
/// or feature toggles do. The `timely-dse` evaluator caches placements per
/// `(B, cells_per_weight)` and rebuilds only the scale-dependent schedule.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LayerPlacement {
    crossbars: Vec<u64>,
    position_base: Vec<u64>,
}

impl LayerPlacement {
    /// Computes the placement of a workload for one crossbar size and
    /// sub-ranging width.
    pub fn for_workload(workload: &ModelWorkload, b: usize, cells_per_weight: usize) -> Self {
        let mut crossbars = Vec::with_capacity(workload.layers.len());
        let mut position_base = Vec::with_capacity(workload.layers.len());
        for layer in &workload.layers {
            crossbars.push(layer.crossbars_required(b, cells_per_weight));
            position_base.push(if layer.is_conv {
                (layer.output.height * layer.output.width) as u64
            } else {
                1
            });
        }
        Self {
            crossbars,
            position_base,
        }
    }

    /// Number of layers in the placement.
    pub fn len(&self) -> usize {
        self.crossbars.len()
    }

    /// Whether the placement holds no layers.
    pub fn is_empty(&self) -> bool {
        self.crossbars.is_empty()
    }

    /// Crossbars needed to hold every layer's weights once (no duplication).
    pub fn required_crossbars(&self) -> u64 {
        self.crossbars.iter().sum()
    }

    /// Per-layer crossbar requirements, in execution order.
    pub fn crossbars(&self) -> &[u64] {
        &self.crossbars
    }

    /// Per-layer output positions for `input_slices` time slices, summed as
    /// the duplication-weighting term `Σ crossbars_l × positions_l`.
    fn weighted_positions(&self, input_slices: u64) -> f64 {
        self.crossbars
            .iter()
            .zip(&self.position_base)
            .map(|(&x, &p)| x as f64 * (p * input_slices) as f64)
            .sum()
    }
}

/// The balanced-duplication allocation for one layer: the duplication factor
/// and the resulting cycle count (shared by [`ThroughputReport`] and the
/// schedule-free [`ScheduleSummary`], so the two can never drift apart).
fn balanced_duplication(pos: u64, scale: f64) -> (u64, u64) {
    let duplication = ((scale * pos as f64).floor() as u64).clamp(1, pos.max(1));
    (duplication, pos.div_ceil(duplication).max(1))
}

/// The duplication scale factor fitting the weighted mapping into the
/// crossbar budget.
fn duplication_scale(available: u64, weighted: f64) -> f64 {
    if weighted > 0.0 {
        (available as f64 / weighted).max(0.0)
    } else {
        1.0
    }
}

/// An allocation-free aggregate of the layer-pipeline schedule: everything
/// the latency/throughput formulas need, without materializing per-layer
/// [`LayerSchedule`] records. This is the schedule core of the `timely-dse`
/// hot path; its arithmetic is bit-identical to [`ThroughputReport`] (the shared
/// helpers above), which a property test pins.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScheduleSummary {
    /// Number of scheduled layers.
    pub layers: usize,
    /// Total pipeline cycles of one inference across all layers.
    pub total_cycles: u64,
    /// Cycles of the slowest (throughput-limiting) layer.
    pub bottleneck_cycles: u64,
}

impl ScheduleSummary {
    /// Everything [`ScheduleSummary::for_placement`] reads from the
    /// configuration besides the placement: the crossbar budget of all chips
    /// and the input time slices. Equal placements with equal keys have
    /// equal summaries, which is what memoizing sweeps key on.
    pub fn config_key(config: &TimelyConfig) -> (u64, u64) {
        (
            SubChipGeometry::crossbars_per_chip(config) * config.chips as u64,
            config.input_slices() as u64,
        )
    }

    /// Computes the schedule aggregate from a cached placement.
    ///
    /// # Errors
    ///
    /// Returns [`ArchError::ModelTooLarge`] if the weights do not fit even
    /// without duplication.
    pub fn for_placement(
        placement: &LayerPlacement,
        config: &TimelyConfig,
    ) -> Result<Self, ArchError> {
        let (available, input_slices) = Self::config_key(config);
        let required = placement.required_crossbars();
        if required > available {
            return Err(ArchError::ModelTooLarge {
                required_crossbars: required,
                available_crossbars: available,
            });
        }
        let scale = duplication_scale(available, placement.weighted_positions(input_slices));
        let mut max_cycles = 1u64;
        let mut total_cycles = 0u64;
        for &base in &placement.position_base {
            let (_, cycles) = balanced_duplication(base * input_slices, scale);
            max_cycles = max_cycles.max(cycles);
            total_cycles += cycles;
        }
        Ok(Self {
            layers: placement.len(),
            total_cycles,
            bottleneck_cycles: max_cycles,
        })
    }

    /// End-to-end latency of a single inference (the §IV-E 4-cycle fill per
    /// layer included), identical to
    /// [`ThroughputReport::single_inference_latency`].
    pub fn single_inference_latency(&self, config: &TimelyConfig) -> Time {
        pipeline_cycle(config) * (self.total_cycles as f64 + 4.0 * self.layers as f64)
    }

    /// The steady-state initiation interval of the layer pipeline.
    pub fn initiation_interval(&self, config: &TimelyConfig) -> Time {
        pipeline_cycle(config) * self.bottleneck_cycles as f64
    }
}

/// Per-layer allocation and cycle count of the inter-sub-chip layer pipeline.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LayerSchedule {
    /// Layer name.
    pub name: String,
    /// Crossbars needed to hold the layer's weights once.
    pub crossbars: u64,
    /// Weight-duplication factor allocated to the layer.
    pub duplication: u64,
    /// Pipeline cycles the layer needs per inference.
    pub cycles: u64,
}

impl LayerSchedule {
    /// Wall-clock time this layer's pipeline stage occupies its sub-chips per
    /// inference, given the chip's pipeline cycle time.
    pub fn stage_latency(&self, cycle_time: Time) -> Time {
        cycle_time * self.cycles as f64
    }
}

/// Latency and throughput of a model on the configured accelerator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ThroughputReport {
    /// Per-layer schedule in execution order.
    pub layers: Vec<LayerSchedule>,
    /// The pipeline cycle time.
    pub cycle_time: Time,
    /// Steady-state throughput in inferences per second (inter-layer
    /// pipelined: limited by the slowest layer).
    pub inferences_per_second: f64,
    /// End-to-end latency of a single inference (layers executed back to
    /// back, no overlap with other inferences).
    pub single_inference_latency: Time,
    /// Total crossbars available across all configured chips.
    pub available_crossbars: u64,
    /// Crossbars used after duplication.
    pub used_crossbars: u64,
}

impl ThroughputReport {
    /// Builds the layer pipeline schedule for a model.
    ///
    /// Weight duplication is allocated with a balanced heuristic: each layer
    /// receives a duplication factor proportional to the number of output
    /// positions it must produce, subject to the chip's total crossbar budget
    /// — the same balancing idea ISAAC's inter-layer pipeline uses.
    ///
    /// # Errors
    ///
    /// Returns [`ArchError::ModelTooLarge`] if the weights do not fit even
    /// without duplication, or propagates analysis errors.
    pub fn for_model(model: &Model, config: &TimelyConfig) -> Result<Self, ArchError> {
        config.validate()?;
        let workload = ModelWorkload::try_analyze(model)?;
        Self::for_workload(&workload, config)
    }

    /// Builds the schedule from an already-analyzed workload.
    ///
    /// # Errors
    ///
    /// See [`ThroughputReport::for_model`].
    pub fn for_workload(
        workload: &ModelWorkload,
        config: &TimelyConfig,
    ) -> Result<Self, ArchError> {
        let placement =
            LayerPlacement::for_workload(workload, config.crossbar_size, config.cells_per_weight());
        Self::for_placement(workload, &placement, config)
    }

    /// Builds the schedule from a pre-computed layer placement (cached by the
    /// DSE evaluator across configurations sharing `(B, cells_per_weight)`).
    ///
    /// # Errors
    ///
    /// See [`ThroughputReport::for_model`].
    pub fn for_placement(
        workload: &ModelWorkload,
        placement: &LayerPlacement,
        config: &TimelyConfig,
    ) -> Result<Self, ArchError> {
        debug_assert_eq!(placement.len(), workload.layers.len());
        let (available, input_slices) = ScheduleSummary::config_key(config);
        let required = placement.required_crossbars();
        if required > available {
            return Err(ArchError::ModelTooLarge {
                required_crossbars: required,
                available_crossbars: available,
            });
        }

        // Balanced duplication: d_l proportional to positions_l, scaled so the
        // duplicated mapping fits in the crossbar budget.
        let scale = duplication_scale(available, placement.weighted_positions(input_slices));
        let mut layers = Vec::with_capacity(placement.len());
        let mut used = 0u64;
        let mut max_cycles = 1u64;
        let mut total_cycles = 0u64;
        for ((layer, &xbars), &base) in workload
            .layers
            .iter()
            .zip(&placement.crossbars)
            .zip(&placement.position_base)
        {
            let (duplication, cycles) = balanced_duplication(base * input_slices, scale);
            used += xbars * duplication;
            max_cycles = max_cycles.max(cycles);
            total_cycles += cycles;
            layers.push(LayerSchedule {
                name: layer.name.clone(),
                crossbars: xbars,
                duplication,
                cycles,
            });
        }
        let cycle_time = pipeline_cycle(config);
        // Inter-layer pipelining: in steady state a new inference completes
        // every `max_cycles` pipeline cycles. The intra-sub-chip pipeline adds
        // a constant 4-cycle fill per layer to the single-inference latency.
        let inferences_per_second = 1.0 / (max_cycles as f64 * cycle_time.as_seconds());
        let single_inference_latency =
            cycle_time * (total_cycles as f64 + 4.0 * layers.len() as f64);
        Ok(Self {
            layers,
            cycle_time,
            inferences_per_second,
            single_inference_latency,
            available_crossbars: available,
            used_crossbars: used.min(available),
        })
    }

    /// The number of pipeline cycles of the slowest (throughput-limiting)
    /// layer.
    pub fn bottleneck_cycles(&self) -> u64 {
        self.layers.iter().map(|l| l.cycles).max().unwrap_or(1)
    }

    /// Per-layer stage latencies of the inter-sub-chip layer pipeline, in
    /// execution order.
    ///
    /// In the §IV-E layer pipeline, consecutive layers of one inference run on
    /// different sub-chips, each occupying its sub-chips for `cycles_l`
    /// pipeline cycles. Downstream consumers (e.g. the `timely-sim`
    /// discrete-event simulator) need these wall-clock stage times to model a
    /// request flowing through the chip rather than re-deriving them from the
    /// schedule.
    pub fn stage_latencies(&self) -> Vec<Time> {
        self.layers
            .iter()
            .map(|l| l.stage_latency(self.cycle_time))
            .collect()
    }

    /// The steady-state initiation interval of the layer pipeline: the
    /// wall-clock time of the slowest stage, i.e. the spacing at which the
    /// chip can accept new inferences (§IV-E). Its reciprocal is
    /// [`ThroughputReport::inferences_per_second`].
    pub fn initiation_interval(&self) -> Time {
        self.cycle_time * self.bottleneck_cycles() as f64
    }
}

/// Convenience: energy efficiency of a model evaluation in TOPs/W given its
/// energy breakdown and MAC count.
pub fn tops_per_watt(energy: &EnergyBreakdown, macs: u64) -> f64 {
    if energy.total().is_zero() {
        0.0
    } else {
        macs as f64 / energy.total().as_picojoules()
    }
}

/// Convenience: the energy efficiency implied by a full model mapping.
pub fn model_tops_per_watt(mapping: &ModelMapping, config: &TimelyConfig) -> f64 {
    let energy = EnergyBreakdown::for_mapping(mapping, config);
    tops_per_watt(&energy, mapping.total_macs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use timely_nn::zoo;

    #[test]
    fn pipeline_cycle_is_200_ns_for_gamma_8() {
        let cfg = TimelyConfig::paper_default();
        assert!((pipeline_cycle(&cfg).as_nanoseconds() - 200.0).abs() < 1e-9);
        let cfg4 = TimelyConfig::builder().gamma(4).build().unwrap();
        assert!((pipeline_cycle(&cfg4).as_nanoseconds() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn table_iv_peak_energy_efficiency_8bit() {
        // Table IV: TIMELY(8-bit) = 21 TOPs/W. Our component-level accounting
        // lands in the same regime (within ~40%); the `table4_peak` bin
        // prints the exact measured value.
        let peak = PeakPerformance::for_config(&TimelyConfig::paper_default());
        assert!(
            (12.0..32.0).contains(&peak.tops_per_watt),
            "8-bit peak efficiency {} TOPs/W",
            peak.tops_per_watt
        );
        assert_eq!(peak.op_bits, 8);
    }

    #[test]
    fn table_iv_computational_density_8bit() {
        // Table IV: TIMELY(8-bit) = 38.33 TOPs/(s·mm²).
        let peak = PeakPerformance::for_config(&TimelyConfig::paper_default());
        assert!(
            (30.0..45.0).contains(&peak.tops_per_mm2),
            "8-bit density {} TOPs/s/mm2",
            peak.tops_per_mm2
        );
    }

    #[test]
    fn table_iv_peak_numbers_16bit() {
        // Table IV: TIMELY(16-bit) = 6.9 TOPs/W and 9.58 TOPs/(s·mm²).
        let peak = PeakPerformance::for_config(&TimelyConfig::paper_16bit());
        assert!(
            (4.0..10.0).contains(&peak.tops_per_watt),
            "16-bit peak efficiency {} TOPs/W",
            peak.tops_per_watt
        );
        assert!(
            (7.0..12.0).contains(&peak.tops_per_mm2),
            "16-bit density {} TOPs/s/mm2",
            peak.tops_per_mm2
        );
        assert_eq!(peak.op_bits, 16);
    }

    #[test]
    fn peak_8bit_beats_16bit_by_about_4x() {
        let p8 = PeakPerformance::for_config(&TimelyConfig::paper_default());
        let p16 = PeakPerformance::for_config(&TimelyConfig::paper_16bit());
        let ratio = p8.ops_per_second / p16.ops_per_second;
        assert!((ratio - 4.0).abs() < 0.1, "ops ratio {ratio}");
    }

    #[test]
    fn throughput_schedule_for_vgg_d() {
        let cfg = TimelyConfig::paper_default();
        let report = ThroughputReport::for_model(&zoo::vgg_d(), &cfg).unwrap();
        assert_eq!(report.layers.len(), 16);
        assert!(report.inferences_per_second > 10.0);
        assert!(report.single_inference_latency.as_seconds() > 0.0);
        assert!(report.used_crossbars <= report.available_crossbars);
        assert!(report.bottleneck_cycles() >= 1);
    }

    #[test]
    fn stage_latencies_are_consistent_with_the_schedule() {
        let cfg = TimelyConfig::paper_default();
        let report = ThroughputReport::for_model(&zoo::vgg_d(), &cfg).unwrap();
        let stages = report.stage_latencies();
        assert_eq!(stages.len(), report.layers.len());
        for (stage, layer) in stages.iter().zip(&report.layers) {
            let expected = report.cycle_time * layer.cycles as f64;
            assert!((stage.as_seconds() - expected.as_seconds()).abs() < 1e-15);
        }
        // The slowest stage is the initiation interval, and its reciprocal is
        // the steady-state throughput.
        let slowest = stages.iter().map(|t| t.as_seconds()).fold(0.0f64, f64::max);
        let ii = report.initiation_interval().as_seconds();
        assert!((slowest - ii).abs() < 1e-15);
        assert!(
            (1.0 / ii - report.inferences_per_second).abs() / report.inferences_per_second < 1e-9
        );
    }

    #[test]
    fn more_chips_increase_throughput() {
        let one = ThroughputReport::for_model(
            &zoo::vgg_d(),
            &TimelyConfig::builder().chips(1).build().unwrap(),
        )
        .unwrap();
        let sixteen = ThroughputReport::for_model(
            &zoo::vgg_d(),
            &TimelyConfig::builder().chips(16).build().unwrap(),
        )
        .unwrap();
        assert!(sixteen.inferences_per_second >= one.inferences_per_second);
    }

    #[test]
    fn oversized_models_are_rejected() {
        // MSRA-3 at 16-bit precision does not fit on a single chip.
        let cfg = TimelyConfig::paper_16bit();
        let result = ThroughputReport::for_model(&zoo::msra_3(), &cfg);
        match result {
            Err(ArchError::ModelTooLarge { .. }) => {}
            Ok(report) => {
                // If it fits, the used crossbars must still respect the budget.
                assert!(report.used_crossbars <= report.available_crossbars);
            }
            Err(other) => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn schedule_summary_matches_the_full_schedule_bitwise() {
        let configs = [
            TimelyConfig::paper_default(),
            TimelyConfig::paper_16bit(),
            TimelyConfig::builder().chips(4).gamma(4).build().unwrap(),
            TimelyConfig::builder()
                .crossbar_size(128)
                .subchips_per_chip(27)
                .build()
                .unwrap(),
        ];
        for model in [zoo::cnn_1(), zoo::vgg_d(), zoo::resnet_18()] {
            let workload = ModelWorkload::try_analyze(&model).unwrap();
            for cfg in &configs {
                let placement = LayerPlacement::for_workload(
                    &workload,
                    cfg.crossbar_size,
                    cfg.cells_per_weight(),
                );
                let full = ThroughputReport::for_workload(&workload, cfg);
                let summary = ScheduleSummary::for_placement(&placement, cfg);
                match (full, summary) {
                    (Ok(full), Ok(summary)) => {
                        assert_eq!(summary.layers, full.layers.len());
                        assert_eq!(
                            summary.total_cycles,
                            full.layers.iter().map(|l| l.cycles).sum::<u64>()
                        );
                        assert_eq!(summary.bottleneck_cycles, full.bottleneck_cycles());
                        // Bitwise: the latency formulas share the same float ops.
                        assert_eq!(
                            summary.single_inference_latency(cfg).as_seconds().to_bits(),
                            full.single_inference_latency.as_seconds().to_bits()
                        );
                        assert_eq!(
                            summary.initiation_interval(cfg).as_seconds().to_bits(),
                            full.initiation_interval().as_seconds().to_bits()
                        );
                    }
                    (Err(a), Err(b)) => assert_eq!(a, b),
                    (full, summary) => {
                        panic!("schedule paths disagree: full={full:?} summary={summary:?}")
                    }
                }
            }
        }
    }

    #[test]
    fn placement_is_reusable_across_configs_sharing_b_and_cell_width() {
        // Same (B, cells_per_weight): the placement is identical even though
        // γ, geometry, and chip count differ.
        let workload = ModelWorkload::try_analyze(&zoo::vgg_d()).unwrap();
        let a = TimelyConfig::paper_default();
        let b = TimelyConfig::builder()
            .gamma(4)
            .subchip_geometry(8, 16)
            .chips(3)
            .build()
            .unwrap();
        assert_eq!(a.crossbar_size, b.crossbar_size);
        assert_eq!(a.cells_per_weight(), b.cells_per_weight());
        let pa = LayerPlacement::for_workload(&workload, a.crossbar_size, a.cells_per_weight());
        let pb = LayerPlacement::for_workload(&workload, b.crossbar_size, b.cells_per_weight());
        assert_eq!(pa, pb);
        assert_eq!(pa.len(), workload.layers.len());
        assert!(pa.required_crossbars() > 0);
        assert_eq!(pa.crossbars().len(), pa.len());
        assert!(!pa.is_empty());
    }

    #[test]
    fn tops_per_watt_helpers_are_consistent() {
        let cfg = TimelyConfig::paper_default();
        let mapping = ModelMapping::analyze(&zoo::vgg_d(), &cfg).unwrap();
        let direct = model_tops_per_watt(&mapping, &cfg);
        let energy = EnergyBreakdown::for_mapping(&mapping, &cfg);
        let via_energy = tops_per_watt(&energy, mapping.total_macs);
        assert!((direct - via_energy).abs() < 1e-12);
        assert!(direct > 0.0);
    }
}
