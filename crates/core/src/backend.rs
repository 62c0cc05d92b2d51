//! The unified accelerator API: one [`Backend`] trait powering the serving
//! simulator (`timely-sim`), the design-space explorer (`timely-dse`), and
//! the figure/table harness (`timely-bench`) across TIMELY and every
//! baseline.
//!
//! The paper's headline claims are *comparative* (TIMELY vs PRIME, ISAAC,
//! PipeLayer, AtomLayer — Figs. 8/9, Table IV), so every accelerator model in
//! the workspace speaks the same language: [`Backend::evaluate`] turns one
//! [`Model`] into one [`EvalOutcome`] holding
//!
//! * per-inference energy grouped by category ([`EnergyByCategory`] — the
//!   shape of the paper's breakdown figures),
//! * silicon area,
//! * serving physics ([`ServicePhysics`] — initiation interval, per-stage
//!   latencies, single-inference latency), and
//! * the peak spec ([`PeakSpec`] — the backend's Table IV row),
//!
//! with one workspace-wide error type ([`EvalError`]) instead of the former
//! `ArchError`/`BaselineError` string sprawl. `timely_baselines::registry()`
//! returns every registered backend as a `Box<dyn Backend>`, which is what
//! the bench binaries and the conformance test suite iterate.

use crate::area::AreaBreakdown;
use crate::energy::EnergyBreakdown;
use crate::error::ArchError;
use crate::pipeline::PeakPerformance;
use crate::report::TimelyAccelerator;
use serde::{Deserialize, Serialize};
use std::fmt;
use timely_analog::{Energy, Time};
use timely_nn::{Model, NnError};

/// Identity of a registered accelerator backend.
///
/// The id names the *architecture*, not one instance of it: two
/// [`TimelyAccelerator`]s with different configurations share
/// [`BackendId::Timely`] but differ in [`Backend::cache_key`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum BackendId {
    /// The TIMELY architecture modeled by this workspace (ISCA 2020).
    Timely,
    /// PRIME (Chi et al., ISCA 2016).
    Prime,
    /// ISAAC (Shafiee et al., ISCA 2016).
    Isaac,
    /// PipeLayer (Song et al., HPCA 2017), peak-derived model.
    PipeLayer,
    /// AtomLayer (Qiao et al., DAC 2018), peak-derived model.
    AtomLayer,
    /// The Eyeriss-like non-PIM digital reference (Fig. 1(a)).
    Eyeriss,
}

impl BackendId {
    /// The backend's display name, as used in report tables.
    pub fn name(self) -> &'static str {
        match self {
            BackendId::Timely => "TIMELY",
            BackendId::Prime => "PRIME",
            BackendId::Isaac => "ISAAC",
            BackendId::PipeLayer => "PipeLayer",
            BackendId::AtomLayer => "AtomLayer",
            BackendId::Eyeriss => "Eyeriss",
        }
    }

    /// A deterministic 64-bit tag of the backend id, stable across runs and
    /// platforms (FNV-1a over the name). Folded into evaluation memo-cache
    /// keys so outcomes from different backends can never collide, even when
    /// their configurations hash identically.
    pub fn stable_tag(self) -> u64 {
        fnv1a(FNV_OFFSET, self.name().as_bytes())
    }
}

impl fmt::Display for BackendId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(seed: u64, bytes: &[u8]) -> u64 {
    let mut hash = seed;
    for byte in bytes {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// Folds a configuration hash into a backend tag: the backend-qualified
/// evaluation cache key.
pub fn fold_cache_key(tag: u64, config_hash: u64) -> u64 {
    fnv1a(tag, &config_hash.to_le_bytes())
}

/// A deterministic 64-bit hash of any serializable configuration (FNV-1a
/// over the canonical serde encoding), stable across runs and platforms —
/// the same scheme as [`TimelyConfig::stable_hash`](crate::TimelyConfig::stable_hash).
/// Configurable backends fold this into their [`Backend::cache_key`].
///
/// The serde stub writes numbers and names into its buffer without
/// per-value strings, and its fast paths are exact, so the encoded bytes
/// (and every hash) are those of plain `to_string()`/`{:?}` formatting;
/// unit tests pin literal hash values.
pub fn stable_hash_of<T: Serialize>(value: &T) -> u64 {
    fnv1a(FNV_OFFSET, serde::json::to_string(value).as_bytes())
}

/// The workspace-wide evaluation error, replacing the former
/// `BaselineError` and the `NnError`-to-string laundering around it.
#[derive(Debug, Clone, PartialEq)]
pub enum EvalError {
    /// The backend cannot evaluate the model at all: it does not fit on the
    /// configured silicon, or the published data needed to model it is
    /// unavailable. This is an answer, not a failure — the conformance suite
    /// requires it instead of a panic.
    Unsupported {
        /// The backend declining the model.
        backend: BackendId,
        /// Why the evaluation is unsupported.
        reason: String,
    },
    /// An error propagated from the TIMELY architecture simulator.
    Arch(ArchError),
    /// An error propagated from the workload analysis, structured rather
    /// than stringified.
    Workload(NnError),
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::Unsupported { backend, reason } => {
                write!(f, "{backend} cannot evaluate this model: {reason}")
            }
            EvalError::Arch(err) => write!(f, "architecture error: {err}"),
            EvalError::Workload(err) => write!(f, "workload error: {err}"),
        }
    }
}

impl EvalError {
    /// The standard [`EvalError::Unsupported`] answer for a model whose
    /// weights do not fit on the configured silicon. Shared by every code
    /// path that detects [`ArchError::ModelTooLarge`] so the reason string
    /// can never drift between them.
    pub fn model_too_large(backend: BackendId, required: u64, available: u64) -> Self {
        EvalError::Unsupported {
            backend,
            reason: format!("model needs {required} crossbars but only {available} are available"),
        }
    }
}

impl std::error::Error for EvalError {}

impl From<ArchError> for EvalError {
    fn from(err: ArchError) -> Self {
        match err {
            // Keep the structured workload error rather than re-wrapping the
            // architecture layer around it.
            ArchError::Workload(inner) => EvalError::Workload(inner),
            other => EvalError::Arch(other),
        }
    }
}

impl From<NnError> for EvalError {
    fn from(err: NnError) -> Self {
        EvalError::Workload(err)
    }
}

/// Published (or computed) peak performance of a backend — the rows of
/// Table IV.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PeakSpec {
    /// Peak energy efficiency in TOPs/W.
    pub tops_per_watt: f64,
    /// Computational density in TOPs/(s·mm²).
    pub tops_per_mm2: f64,
    /// Bits of one counted operation (8-bit MAC vs. 16-bit MAC).
    pub op_bits: u8,
}

/// Per-inference energy grouped the way the paper's breakdown figures group
/// it (Fig. 4(b)/(c)).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct EnergyByCategory {
    /// Reading inputs from buffers/memory (including re-reads).
    pub input_access: Energy,
    /// Partial-sum and output movement (writes and re-reads).
    pub psum_output_access: Energy,
    /// Digital-to-analog interfacing (DACs or DTCs).
    pub dac_interface: Energy,
    /// Analog-to-digital interfacing (ADCs or TDCs).
    pub adc_interface: Energy,
    /// The analog (or digital) MAC computation itself.
    pub compute: Energy,
    /// Everything else: on-chip communication, control, eDRAM refresh,
    /// digital post-processing.
    pub other: Energy,
}

impl EnergyByCategory {
    /// Total energy of one inference.
    pub fn total(&self) -> Energy {
        self.input_access
            + self.psum_output_access
            + self.dac_interface
            + self.adc_interface
            + self.compute
            + self.other
    }

    /// The interfacing energy (DAC + ADC, or DTC + TDC).
    pub fn interfaces(&self) -> Energy {
        self.dac_interface + self.adc_interface
    }

    /// The data-movement energy (inputs + Psums/outputs).
    pub fn data_movement(&self) -> Energy {
        self.input_access + self.psum_output_access
    }

    /// Groups a TIMELY [`EnergyBreakdown`] into the paper's categories — the
    /// exact grouping [`Backend::evaluate`] reports for TIMELY, factored out
    /// so the DSE fast path sums energies in the same order (bitwise
    /// equality matters to the DSE's incremental-evaluation guarantee).
    pub fn from_breakdown(report: &EnergyBreakdown) -> Self {
        Self {
            input_access: report.l1_input_reads + report.x_subbuf,
            psum_output_access: report.l1_output_writes
                + report.l1_psum_traffic
                + report.p_subbuf
                + report.i_adder
                + report.charging
                + report.hyperlink,
            dac_interface: report.dtc + report.dac,
            adc_interface: report.tdc + report.adc,
            compute: report.crossbar,
            other: report.relu + report.maxpool,
        }
    }

    /// Fraction of the total attributed to each category, in the order
    /// `(inputs, psums+outputs, DAC, ADC, compute, other)`.
    pub fn fractions(&self) -> (f64, f64, f64, f64, f64, f64) {
        let total = self.total();
        if total.is_zero() {
            return (0.0, 0.0, 0.0, 0.0, 0.0, 0.0);
        }
        (
            self.input_access / total,
            self.psum_output_access / total,
            self.dac_interface / total,
            self.adc_interface / total,
            self.compute / total,
            self.other / total,
        )
    }
}

/// The serving physics of one model on one backend instance: everything the
/// discrete-event simulator needs to model a request flowing through the
/// accelerator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServicePhysics {
    /// Steady-state initiation interval: the spacing at which the backend
    /// accepts new inferences. Its reciprocal is the throughput. For a
    /// pipelined design this is the slowest stage; for a sequential design
    /// (PRIME) it is the whole inference.
    pub initiation_interval: Time,
    /// Wall-clock time of each pipeline stage (one per scheduled layer for
    /// the layer-pipelined designs; a single stage for sequential or
    /// peak-derived models).
    pub stage_latencies: Vec<Time>,
    /// End-to-end latency of one unqueued inference.
    pub single_inference_latency: Time,
}

impl ServicePhysics {
    /// A single-stage physics: the whole inference is one stage, the
    /// initiation interval equals the latency (no overlap between requests).
    pub fn sequential(latency: Time) -> Self {
        Self {
            initiation_interval: latency,
            stage_latencies: vec![latency],
            single_inference_latency: latency,
        }
    }

    /// Steady-state throughput in inferences per second.
    pub fn inferences_per_second(&self) -> f64 {
        1.0 / self.initiation_interval.as_seconds()
    }
}

/// The result of evaluating one model on one backend: the unified outcome
/// shape consumed by `timely-sim`, `timely-dse`, and the bench harness.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EvalOutcome {
    /// The backend that produced this outcome.
    pub backend: BackendId,
    /// The evaluated model's name.
    pub model_name: String,
    /// MAC operations per inference.
    pub total_macs: u64,
    /// Per-inference energy by category.
    pub energy: EnergyByCategory,
    /// Total silicon area of the evaluated instance (all chips), in mm².
    pub area_mm2: f64,
    /// Serving physics of the model on this instance.
    pub physics: ServicePhysics,
    /// The backend's peak spec (Table IV row), for normalization.
    pub peak: PeakSpec,
}

impl EvalOutcome {
    /// Workload energy efficiency in TOPs/W.
    pub fn tops_per_watt(&self) -> f64 {
        if self.energy.total().is_zero() {
            0.0
        } else {
            self.total_macs as f64 / self.energy.total().as_picojoules()
        }
    }

    /// Energy of one inference in millijoules.
    pub fn energy_millijoules(&self) -> f64 {
        self.energy.total().as_millijoules()
    }

    /// Steady-state throughput in inferences per second.
    pub fn inferences_per_second(&self) -> f64 {
        self.physics.inferences_per_second()
    }
}

/// A CNN/DNN inference accelerator that the whole workspace — serving
/// simulator, design-space explorer, and bench harness — can evaluate models
/// on. Adding a backend is one file: implement this trait and add the
/// instance to `timely_baselines::registry()`.
pub trait Backend {
    /// The backend's identity.
    fn id(&self) -> BackendId;

    /// The backend's display name.
    fn name(&self) -> &'static str {
        self.id().name()
    }

    /// Peak performance (Table IV row), independent of any workload.
    fn peak(&self) -> PeakSpec;

    /// A deterministic key identifying this backend *instance* for
    /// evaluation memo-caches: the id tag, folded with the configuration
    /// hash for configurable backends. Two instances that can produce
    /// different outcomes must have different keys.
    fn cache_key(&self) -> u64 {
        self.id().stable_tag()
    }

    /// Evaluates one inference of `model`, returning the unified outcome.
    ///
    /// # Errors
    ///
    /// Returns [`EvalError::Unsupported`] when the model cannot be mapped
    /// onto the backend (never panics for a too-large model), or propagates
    /// workload/architecture analysis errors.
    fn evaluate(&self, model: &Model) -> Result<EvalOutcome, EvalError>;
}

impl Backend for TimelyAccelerator {
    fn id(&self) -> BackendId {
        BackendId::Timely
    }

    fn peak(&self) -> PeakSpec {
        let peak = PeakPerformance::for_config(self.config());
        PeakSpec {
            tops_per_watt: peak.tops_per_watt,
            tops_per_mm2: peak.tops_per_mm2,
            op_bits: peak.op_bits,
        }
    }

    fn cache_key(&self) -> u64 {
        fold_cache_key(self.id().stable_tag(), self.config().stable_hash())
    }

    fn evaluate(&self, model: &Model) -> Result<EvalOutcome, EvalError> {
        let report = TimelyAccelerator::evaluate(self, model).map_err(|err| match err {
            // A model that does not fit is an Unsupported answer, not an
            // architecture failure.
            ArchError::ModelTooLarge {
                required_crossbars,
                available_crossbars,
            } => EvalError::model_too_large(
                BackendId::Timely,
                required_crossbars,
                available_crossbars,
            ),
            other => EvalError::from(other),
        })?;
        let energy = EnergyByCategory::from_breakdown(&report.energy);
        let physics = ServicePhysics {
            initiation_interval: report.throughput.initiation_interval(),
            stage_latencies: report.throughput.stage_latencies(),
            single_inference_latency: report.throughput.single_inference_latency,
        };
        Ok(EvalOutcome {
            backend: BackendId::Timely,
            model_name: report.model_name.clone(),
            total_macs: report.total_macs,
            energy,
            area_mm2: AreaBreakdown::for_chip(self.config())
                .total()
                .as_square_millimeters()
                * self.config().chips as f64,
            physics,
            peak: Backend::peak(self),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TimelyConfig;
    use crate::pipeline::ThroughputReport;
    use timely_nn::zoo;

    #[test]
    fn energy_categories_sum_to_total() {
        let e = EnergyByCategory {
            input_access: Energy::from_millijoules(1.0),
            psum_output_access: Energy::from_millijoules(2.0),
            dac_interface: Energy::from_millijoules(0.1),
            adc_interface: Energy::from_millijoules(0.4),
            compute: Energy::from_millijoules(0.5),
            other: Energy::from_millijoules(0.0),
        };
        assert!((e.total().as_millijoules() - 4.0).abs() < 1e-12);
        let fractions = e.fractions();
        assert!((fractions.0 - 0.25).abs() < 1e-12);
        assert!((fractions.1 - 0.5).abs() < 1e-12);
        let zero = EnergyByCategory::default();
        assert_eq!(zero.fractions().0, 0.0);
    }

    #[test]
    fn timely_implements_the_backend_trait() {
        let accel = TimelyAccelerator::new(TimelyConfig::paper_default());
        assert_eq!(accel.id(), BackendId::Timely);
        assert_eq!(Backend::name(&accel), "TIMELY");
        let outcome = Backend::evaluate(&accel, &zoo::cnn_1()).unwrap();
        assert_eq!(outcome.backend, BackendId::Timely);
        assert!(outcome.tops_per_watt() > 0.0);
        assert!(outcome.area_mm2 > 0.0);
        assert!(Backend::peak(&accel).tops_per_watt > 0.0);
        // The trait view's total must match the native report's total.
        let native = TimelyAccelerator::evaluate(&accel, &zoo::cnn_1()).unwrap();
        let rel = (outcome.energy.total().as_femtojoules()
            - native.energy.total().as_femtojoules())
        .abs()
            / native.energy.total().as_femtojoules();
        assert!(rel < 1e-12);
        // And the physics must match the native throughput report.
        assert!(
            (outcome.inferences_per_second() - native.throughput_inferences_per_second()).abs()
                / native.throughput_inferences_per_second()
                < 1e-12
        );
    }

    #[test]
    fn physics_invariants_hold_for_timely() {
        let accel = TimelyAccelerator::default();
        let outcome = Backend::evaluate(&accel, &zoo::vgg_d()).unwrap();
        let physics = &outcome.physics;
        let max_stage = physics
            .stage_latencies
            .iter()
            .map(|t| t.as_seconds())
            .fold(0.0f64, f64::max);
        let ii = physics.initiation_interval.as_seconds();
        assert!(max_stage <= ii * (1.0 + 1e-12));
        assert!(ii <= physics.single_inference_latency.as_seconds() * (1.0 + 1e-12));
    }

    #[test]
    fn too_large_models_are_unsupported_not_panicking() {
        let tiny = TimelyAccelerator::new(TimelyConfig {
            subchips_per_chip: 1,
            ..TimelyConfig::paper_default()
        });
        match Backend::evaluate(&tiny, &zoo::vgg_d()) {
            Err(EvalError::Unsupported { backend, .. }) => assert_eq!(backend, BackendId::Timely),
            other => panic!("expected Unsupported, got {other:?}"),
        }
    }

    #[test]
    fn cache_keys_fold_the_backend_into_the_config_hash() {
        let cfg = TimelyConfig::paper_default();
        let accel = TimelyAccelerator::new(cfg.clone());
        // Not the bare config hash: a baseline whose config hashed identically
        // could otherwise collide in a shared memo-cache.
        assert_ne!(accel.cache_key(), cfg.stable_hash());
        assert_ne!(accel.cache_key(), BackendId::Timely.stable_tag());
        // Deterministic, and distinct across configurations.
        assert_eq!(
            accel.cache_key(),
            TimelyAccelerator::new(cfg.clone()).cache_key()
        );
        let other = TimelyAccelerator::new(TimelyConfig::paper_16bit());
        assert_ne!(accel.cache_key(), other.cache_key());
        // Tags are pairwise distinct across ids.
        let ids = [
            BackendId::Timely,
            BackendId::Prime,
            BackendId::Isaac,
            BackendId::PipeLayer,
            BackendId::AtomLayer,
            BackendId::Eyeriss,
        ];
        for (i, a) in ids.iter().enumerate() {
            for b in &ids[i + 1..] {
                assert_ne!(a.stable_tag(), b.stable_tag());
            }
        }
    }

    #[test]
    fn errors_are_displayable_and_convertible() {
        let err = EvalError::Unsupported {
            backend: BackendId::PipeLayer,
            reason: "no per-layer data published".into(),
        };
        assert!(err.to_string().contains("PipeLayer"));
        let arch: EvalError = ArchError::InvalidConfig { reason: "x".into() }.into();
        assert!(matches!(arch, EvalError::Arch(_)));
        // NnError arrives structured, never stringified, whichever layer
        // wrapped it first.
        let via_nn: EvalError = NnError::EmptyModel.into();
        assert_eq!(via_nn, EvalError::Workload(NnError::EmptyModel));
        let via_arch: EvalError = ArchError::from(NnError::EmptyModel).into();
        assert_eq!(via_arch, EvalError::Workload(NnError::EmptyModel));
    }

    #[test]
    fn model_too_large_reason_matches_the_evaluate_path() {
        let tiny = TimelyAccelerator::new(TimelyConfig {
            subchips_per_chip: 1,
            ..TimelyConfig::paper_default()
        });
        let Err(EvalError::Unsupported { reason, .. }) = Backend::evaluate(&tiny, &zoo::vgg_d())
        else {
            panic!("expected Unsupported");
        };
        // Reconstruct via the shared constructor: identical wording.
        let report = ThroughputReport::for_model(&zoo::vgg_d(), tiny.config());
        let Err(ArchError::ModelTooLarge {
            required_crossbars,
            available_crossbars,
        }) = report
        else {
            panic!("expected ModelTooLarge");
        };
        let EvalError::Unsupported {
            reason: rebuilt, ..
        } = EvalError::model_too_large(BackendId::Timely, required_crossbars, available_crossbars)
        else {
            unreachable!()
        };
        assert_eq!(reason, rebuilt);
    }

    #[test]
    fn sequential_physics_is_one_stage() {
        let physics = ServicePhysics::sequential(Time::from_milliseconds(2.0));
        assert_eq!(physics.stage_latencies.len(), 1);
        assert!((physics.inferences_per_second() - 500.0).abs() < 1e-9);
        assert_eq!(
            physics.initiation_interval,
            physics.single_inference_latency
        );
    }
}
