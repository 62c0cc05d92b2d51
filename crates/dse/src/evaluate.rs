//! Point evaluation: objectives, constraints, and the memo-cache.
//!
//! The [`Evaluator`] turns one [`TimelyConfig`] into one [`PointOutcome`]:
//!
//! 1. **Pre-screen** (config-only, no model evaluation):
//!    [`TimelyConfig::validate`] rejects degenerate points, then the area and
//!    accuracy-proxy constraints prune points whose silicon or analog-noise
//!    budget is already blown. Pruned points cost microseconds.
//! 2. **Workload evaluation**: every workload model is mapped and evaluated
//!    through the analytical `timely-core` model (energy/inference, latency).
//!    Mapping failures (model too large for the configured chips) make the
//!    point *infeasible*.
//! 3. **Serving check** (optional): a seeded `timely-sim` run measures the
//!    p99 latency of the workload mix at a given fraction of fleet capacity.
//!
//! Step 2 and the screening bounds ([`Evaluator::screen_bounds`]) share one
//! allocation-free core that reuses three config-dependent layers across
//! candidates, each memoized for the evaluator's lifetime on exactly the
//! configuration fields it reads: per-`(crossbar_size, cells_per_weight)`
//! layer placements, per-[`TotalsFactors::key`] layer sums (so a workload's
//! energy counts cost a few multiplies, not a walk over its layers), and
//! schedule summaries keyed on the placement pair, the crossbar budget and
//! the input time slices. One memo type serves all three: flat rows of one
//! entry per workload model, a `BTreeMap` from key to row, and the row the
//! last lookup hit, so a candidate that shares the previous candidate's key
//! pays one comparison. γ never enters the schedule and crossbar budgets
//! coincide across axes (53 × 2 = 106 × 1 sub-chips), so the production
//! sweep's 68,964 bounded candidates need 755 distinct summary rows, where a
//! memo of only the last candidate's summaries recomputed them 16,634 times.
//! All three layers are exact, so screening bounds equal evaluated
//! objectives bit for bit.
//!
//! Step 3 reuses simulation results the same way: a serving check's p99
//! depends only on the fleet size and each model's per-chip initiation
//! interval and latency, so candidates that differ only on axes the
//! schedule never reads (the feature set, for one) share one simulation run.
//! A run that does happen gets its per-chip model profiles from the same
//! cached layers (schedule summaries for the service times, layer sums for
//! the energy), not from a `Backend::evaluate` per model.
//!
//! Every outcome is memoized in a cache keyed on the *backend-qualified*
//! configuration hash ([`Backend::cache_key`]: the backend id tag folded
//! with [`TimelyConfig::stable_hash`]), so search strategies that revisit
//! points (hill-climb paths, overlapping grids) pay for each design point
//! once, a cache hit returns a bit-identical report, and outcomes from
//! different backends can never collide even when their configurations hash
//! identically.
//!
//! Baseline backends enter the same pipeline as *fixed reference points*
//! ([`Evaluator::evaluate_reference`]): evaluated once through the unified
//! [`Backend`] trait, skipping the TIMELY-specific pre-screen, and compared
//! against the searched frontier on the architecture-neutral
//! {energy, latency, area} axes.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};
use timely_core::accuracy::AccuracyStudy;
use timely_core::backend::fold_cache_key;
use timely_core::{
    AreaBreakdown, Backend, BackendId, EnergyBreakdown, EnergyByCategory, EvalError,
    LayerPlacement, ScheduleSummary, TimelyConfig, TotalsFactors,
};
use timely_nn::workload::ModelWorkload;
use timely_nn::Model;
use timely_sim::{serving_check, serving_check_profiles, ModelProfile, SimReport};

/// The objective vector of one design point. Lower is better on every axis.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Objectives {
    /// Mean energy of one inference across the workload set, in millijoules.
    pub energy_mj_per_inference: f64,
    /// Mean single-inference latency across the workload set, in ms.
    pub latency_ms: f64,
    /// Total silicon area of the fleet (chip area × chips), in mm².
    pub area_mm2: f64,
    /// Accuracy proxy (§VI-B): the accumulated analog timing error of the
    /// cascaded X-subBufs, in input LSBs. Past ~0.5 LSB, time-domain codes
    /// start to flip and inference accuracy degrades.
    pub noise_sigma_lsb: f64,
    /// p99 latency of the workload mix under load, in ms (0 when the serving
    /// check is disabled; excluded from the objective vector in that case).
    pub p99_ms: f64,
}

impl Objectives {
    /// Labels of the objective axes, in [`Objectives::vector`] order.
    pub fn labels(with_serving: bool) -> Vec<&'static str> {
        let mut labels = vec!["energy mJ/inf", "latency ms", "area mm2", "noise LSB"];
        if with_serving {
            labels.push("p99 ms");
        }
        labels
    }

    /// Number of objective axes.
    pub fn dims(with_serving: bool) -> usize {
        if with_serving {
            5
        } else {
            4
        }
    }

    /// The raw objective vector (lower is better) consumed by the Pareto
    /// routines in [`crate::pareto`].
    pub fn vector(&self, with_serving: bool) -> Vec<f64> {
        let mut v = Vec::with_capacity(Self::dims(with_serving));
        self.extend_vector(with_serving, &mut v);
        v
    }

    /// Appends the objective vector to `out` without clearing it — the
    /// allocation-free building block behind [`Objectives::vector`] and the
    /// explorer's flat objective matrix.
    pub fn extend_vector(&self, with_serving: bool, out: &mut Vec<f64>) {
        out.push(self.energy_mj_per_inference);
        out.push(self.latency_ms);
        out.push(self.area_mm2);
        out.push(self.noise_sigma_lsb);
        if with_serving {
            out.push(self.p99_ms);
        }
    }

    /// Overwrites `out` with the objective vector (reusable scratch-buffer
    /// variant of [`Objectives::vector`]).
    pub fn write_vector(&self, with_serving: bool, out: &mut Vec<f64>) {
        out.clear();
        self.extend_vector(with_serving, out);
    }
}

/// A fully evaluated, feasible design point.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PointReport {
    /// The evaluated configuration.
    pub config: TimelyConfig,
    /// [`TimelyConfig::stable_hash`] of the configuration — the point's
    /// identifier in reports. (The memo-cache key additionally folds in the
    /// backend id; see [`Backend::cache_key`].)
    pub config_hash: u64,
    /// The point's objective values.
    pub objectives: Objectives,
}

/// A fixed cross-architecture reference point: one baseline backend
/// evaluated on the same workload set as the searched TIMELY points, on the
/// architecture-neutral {energy, latency, area} axes (the TIMELY-specific
/// noise proxy and serving check do not apply).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReferencePoint {
    /// The backend this point represents.
    pub backend: BackendId,
    /// The backend's [`Backend::cache_key`] (its memo-cache identity).
    pub cache_key: u64,
    /// Mean energy of one inference across the workload set, in millijoules.
    pub energy_mj_per_inference: f64,
    /// Mean single-inference latency across the workload set, in ms.
    pub latency_ms: f64,
    /// Total silicon area of the backend instance, in mm².
    pub area_mm2: f64,
}

impl ReferencePoint {
    /// The {energy, latency, area} vector (lower is better), comparable with
    /// the first three entries of [`Objectives::vector`].
    pub fn vector(&self) -> Vec<f64> {
        vec![self.energy_mj_per_inference, self.latency_ms, self.area_mm2]
    }
}

/// The result of evaluating one design point.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[expect(
    clippy::large_enum_variant,
    reason = "boxing the Feasible report would add one allocation per evaluated point on the explorer's hot path"
)]
pub enum PointOutcome {
    /// The point was evaluated and satisfies every constraint.
    Feasible(PointReport),
    /// The point was rejected by the config-only pre-screen (validation,
    /// area cap, or accuracy floor) before any model evaluation.
    Pruned {
        /// Why the pre-screen rejected the point.
        reason: String,
    },
    /// The point failed workload evaluation (e.g. a workload model does not
    /// fit) or violated a post-evaluation constraint.
    Infeasible {
        /// Why evaluation failed.
        reason: String,
    },
}

impl PointOutcome {
    /// The report, when the point is feasible.
    pub fn report(&self) -> Option<&PointReport> {
        match self {
            PointOutcome::Feasible(report) => Some(report),
            _ => None,
        }
    }
}

/// Early-rejection constraints. `None` disables a constraint.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Constraints {
    /// Maximum total fleet silicon area, in mm² (pre-screen: config-only).
    pub max_area_mm2: Option<f64>,
    /// Maximum analog timing error in input LSBs — the accuracy floor
    /// (pre-screen: config-only).
    pub max_noise_sigma_lsb: Option<f64>,
    /// Maximum mean single-inference latency, in ms (checked after workload
    /// evaluation).
    pub max_latency_ms: Option<f64>,
}

/// The optional serving check behind the `p99 ms` objective.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ServingCheck {
    /// Offered load as a fraction of the fleet's capacity for the workload
    /// mix (e.g. `0.7` = 70 % of the saturation rate).
    pub load: f64,
    /// Approximate number of requests to simulate per point.
    pub requests: f64,
    /// Seed of each point's simulation run (the same seed is reused for
    /// every point, so points differ only by their configuration).
    pub seed: u64,
}

impl Default for ServingCheck {
    fn default() -> Self {
        Self {
            load: 0.7,
            requests: 200.0,
            seed: 0xD5E,
        }
    }
}

/// Counters describing how a search spent its evaluation budget.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct EvalStats {
    /// Full workload evaluations that produced a feasible report.
    pub evaluations: usize,
    /// Requests answered from the memo-cache without re-evaluation.
    pub cache_hits: usize,
    /// Points rejected by the config-only pre-screen.
    pub pruned: usize,
    /// Points that failed workload evaluation or a post-evaluation
    /// constraint.
    pub infeasible: usize,
    /// Serving simulations run: one per distinct simulator input, plus one
    /// per point with a model too large for one chip (those never reuse).
    pub serving_runs: usize,
    /// Fresh points whose serving check was answered from an earlier run
    /// with identical simulator inputs. Not a memo-cache hit: the point
    /// itself was still evaluated.
    pub serving_reuses: usize,
}

impl EvalStats {
    /// Evaluator lookups that missed the memo-cache (every fresh outcome,
    /// whatever its kind).
    pub fn cache_misses(&self) -> usize {
        self.evaluations + self.pruned + self.infeasible
    }

    /// Total evaluator lookups: hits plus misses.
    pub fn lookups(&self) -> usize {
        self.cache_hits + self.cache_misses()
    }
}

/// The verdict of the cheap bound computation behind screening
/// ([`Evaluator::screen_bounds`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoundCheck {
    /// The scratch buffer now holds an admissible lower-bound vector in
    /// [`Objectives::vector`] order; the true outcome, if feasible, is
    /// componentwise `>=` it.
    Bounds,
    /// The bounds alone prove the point can never produce a feasible report
    /// (a config-only constraint is violated, or a workload model cannot
    /// fit). Skipping `evaluate` loses nothing.
    NeverFeasible,
    /// No bounds are available (degenerate configuration or un-analyzable
    /// workload); the caller must fall back to a full evaluation.
    Unknown,
}

/// Why the shared workload-objective core failed, structured so the fresh
/// evaluation path can reproduce the exact legacy reason strings and the
/// screening path can classify without allocating.
enum WorkloadFailure<'a> {
    /// The model cannot be analyzed at all.
    Analysis {
        /// The failing model.
        model: &'a Model,
        /// Its analysis error.
        err: &'a EvalError,
    },
    /// The model's weights do not fit the configured crossbar budget.
    TooLarge {
        /// The failing model.
        model: &'a Model,
        /// Its crossbar counts.
        counts: TooLarge,
    },
}

impl WorkloadFailure<'_> {
    /// The legacy `"{model}: {error}"` infeasibility reason, identical to
    /// what the per-point trait path produced.
    fn reason(&self) -> String {
        match self {
            WorkloadFailure::Analysis { model, err } => format!("{}: {err}", model.name()),
            WorkloadFailure::TooLarge { model, counts } => {
                let err = EvalError::model_too_large(
                    BackendId::Timely,
                    counts.required,
                    counts.available,
                );
                format!("{}: {err}", model.name())
            }
        }
    }
}

/// Exact per-candidate workload numbers shared by evaluation and screening.
struct WorkloadNumbers {
    /// Mean energy per inference across the workload set, in mJ.
    energy_mj: f64,
    /// Mean single-inference latency across the workload set, in ms.
    latency_ms: f64,
    /// Smallest single-model latency, in ms — an admissible lower bound on
    /// any latency percentile of any traffic mix over these models.
    min_latency_ms: f64,
}

/// Evaluates design points against a workload set, with memoization.
#[derive(Debug, Clone)]
pub struct Evaluator {
    workloads: Vec<Model>,
    /// Config-independent workload analyses, one per model, computed once at
    /// construction. A failed analysis is reproduced as an infeasible reason
    /// on every evaluation, matching the per-point trait path it replaces.
    analyzed: Vec<Result<ModelWorkload, EvalError>>,
    constraints: Constraints,
    serving: Option<ServingCheck>,
    /// Memoized point outcomes, keyed on [`Backend::cache_key`] (backend id
    /// tag folded with the configuration hash — never the bare config hash,
    /// which would collide across backends).
    cache: BTreeMap<u64, PointOutcome>,
    /// Memoized cross-architecture reference points, same key space.
    reference_cache: BTreeMap<u64, ReferencePoint>,
    /// The config-dependent layers of a workload evaluation, memoized on
    /// the fields each one reads.
    layers: Layers,
    /// Serving-check results by simulator input: the p99 in ms, or the
    /// infeasible reason. One entry per distinct [`ServingKey`].
    serving_memo: BTreeMap<ServingKey, Result<f64, String>>,
    stats: EvalStats,
}

/// Everything a serving check's p99 and completion count depend on, given
/// the evaluator's fixed load, request count and seed: the fleet size and,
/// per workload model, the bits of the per-chip initiation interval and
/// single-inference latency in seconds. (A profile's energy only feeds the
/// simulator's energy accounting.)
type ServingKey = (usize, Vec<(u64, u64)>);

/// The configuration fields [`ScheduleSummary::for_placement`] reads:
/// `(crossbar_size, cells_per_weight)` through the placement, then
/// [`ScheduleSummary::config_key`] (the crossbar budget `crossbars_per_chip
/// × chips` and the input time slices).
type SummaryKey = ((usize, usize), (u64, u64));

/// The crossbars a model needs to hold its weights once, against those the
/// configured chips hold.
#[derive(Debug, Clone, Copy)]
struct TooLarge {
    required: u64,
    available: u64,
}

/// One model's schedule summary, or its crossbar counts when it does not
/// fit: 32 bytes, where `Result<ScheduleSummary, ArchError>` takes 72.
type Fit = Result<ScheduleSummary, TooLarge>;

/// [`ScheduleSummary::for_placement`] with its error reduced to the two
/// counts it reports: the placement's required crossbars against the
/// configuration's budget (`ArchError::ModelTooLarge`, its only failure).
fn schedule(placement: &LayerPlacement, config: &TimelyConfig) -> Fit {
    ScheduleSummary::for_placement(placement, config).map_err(|_| TooLarge {
        required: placement.required_crossbars(),
        available: ScheduleSummary::config_key(config).0,
    })
}

/// Per-model rows memoized on the configuration fields they read, kept for
/// the evaluator's lifetime: each distinct key's row (one entry per
/// workload model, in workload order) is built once and stored flat, and
/// the row the last lookup hit is remembered, so a candidate that shares
/// the previous candidate's key costs one comparison.
#[derive(Debug, Clone)]
struct RowMemo<K, T> {
    /// Entries per row: the number of workload models.
    width: usize,
    /// Every row, back to back, in the order their keys were first seen.
    rows: Vec<T>,
    /// Where each key's row starts in `rows`.
    starts: BTreeMap<K, usize>,
    /// The key and start of the row the last lookup returned.
    last: Option<(K, usize)>,
}

impl<K: Copy + Ord, T> RowMemo<K, T> {
    fn new(width: usize) -> Self {
        Self {
            width,
            rows: Vec::new(),
            starts: BTreeMap::new(),
            last: None,
        }
    }

    /// The row of `key`, built from `build` (one entry per workload model)
    /// on the first lookup of the key.
    fn row<I: IntoIterator<Item = T>>(&mut self, key: K, build: impl FnOnce() -> I) -> &[T] {
        let start = match self.last {
            Some((last, start)) if last == key => start,
            _ => {
                let rows = &mut self.rows;
                let start = *self.starts.entry(key).or_insert_with(|| {
                    let start = rows.len();
                    rows.extend(build());
                    start
                });
                self.last = Some((key, start));
                start
            }
        };
        debug_assert!(start + self.width <= self.rows.len(), "short memo row");
        self.rows.get(start..start + self.width).unwrap_or_default()
    }
}

/// The `(crossbar_size, cells_per_weight)` pair a [`LayerPlacement`]
/// depends on.
fn placement_key(config: &TimelyConfig) -> (usize, usize) {
    (config.crossbar_size, config.cells_per_weight())
}

/// The three config-dependent layers of a workload evaluation, each in its
/// own [`RowMemo`].
#[derive(Debug, Clone)]
struct Layers {
    /// Layer placements by `(crossbar_size, cells_per_weight)`: the
    /// config-dependent-but-shareable half of the schedule.
    placements: RowMemo<(usize, usize), LayerPlacement>,
    /// Layer sums by [`TotalsFactors::key`]: the config-independent half of
    /// the energy counts, shared by every γ, sub-chip count, chip count,
    /// precision and feature set with the same
    /// `(crossbar_size, cells_per_weight, subchip_rows, subchip_cols)`.
    factors: RowMemo<(usize, usize, usize, usize), TotalsFactors>,
    /// Schedule summaries by [`SummaryKey`], shared by every γ and feature
    /// set and by fleets with equal crossbar budgets (53 × 2 = 106 × 1
    /// sub-chips).
    summaries: RowMemo<SummaryKey, Fit>,
}

/// One workload-model row of each layer, in workload order.
type Rows<'a> = (&'a [LayerPlacement], &'a [TotalsFactors], &'a [Fit]);

impl Layers {
    fn new(models: usize) -> Self {
        Self {
            placements: RowMemo::new(models),
            factors: RowMemo::new(models),
            summaries: RowMemo::new(models),
        }
    }

    /// The rows of a validated `config`, each built from the workload
    /// analyses the first time a candidate needs it. A model whose analysis
    /// failed gets default placement and layer-sum entries, never read:
    /// evaluation fails on the analysis error first.
    // lint:hot three memo lookups per candidate; rows are built once per key
    fn rows(
        &mut self,
        analyzed: &[Result<ModelWorkload, EvalError>],
        config: &TimelyConfig,
    ) -> Rows<'_> {
        let key = placement_key(config);
        let placements = self.placements.row(key, || {
            analyzed.iter().map(move |analysis| match analysis {
                Ok(workload) => LayerPlacement::for_workload(workload, key.0, key.1),
                Err(_) => LayerPlacement::default(),
            })
        });
        let factors = self.factors.row(TotalsFactors::key(config), || {
            analyzed.iter().map(|analysis| match analysis {
                Ok(workload) => TotalsFactors::for_workload(workload, config),
                Err(_) => TotalsFactors::default(),
            })
        });
        let summaries = self
            .summaries
            .row((key, ScheduleSummary::config_key(config)), || {
                placements
                    .iter()
                    .map(|placement| schedule(placement, config))
            });
        (placements, factors, summaries)
    }
}

/// `config` as one chip of its fleet: the configuration each serving-check
/// profile describes.
fn per_chip(config: &TimelyConfig) -> TimelyConfig {
    TimelyConfig {
        chips: 1,
        ..config.clone()
    }
}

impl Evaluator {
    /// Creates an evaluator over the given workload models.
    ///
    /// # Panics
    ///
    /// Panics if `workloads` is empty.
    pub fn new(workloads: Vec<Model>) -> Self {
        assert!(!workloads.is_empty(), "evaluator needs at least one model");
        let analyzed = workloads
            .iter()
            .map(|model| ModelWorkload::try_analyze(model).map_err(EvalError::from))
            .collect();
        Self {
            layers: Layers::new(workloads.len()),
            workloads,
            analyzed,
            constraints: Constraints::default(),
            serving: None,
            cache: BTreeMap::new(),
            reference_cache: BTreeMap::new(),
            serving_memo: BTreeMap::new(),
            stats: EvalStats::default(),
        }
    }

    /// Adds early-rejection constraints.
    pub fn with_constraints(mut self, constraints: Constraints) -> Self {
        self.constraints = constraints;
        self
    }

    /// Enables the serving check, adding `p99 ms` to the objective vector.
    /// The simulator validates `load` and `requests`: with a value it
    /// rejects, every point that reaches the check is infeasible with a
    /// `serving check: …` reason.
    pub fn with_serving(mut self, serving: ServingCheck) -> Self {
        self.serving = Some(serving);
        self
    }

    /// Whether the serving check (and hence the `p99 ms` objective) is on.
    pub fn serving_enabled(&self) -> bool {
        self.serving.is_some()
    }

    /// The workload models being evaluated.
    pub fn workloads(&self) -> &[Model] {
        &self.workloads
    }

    /// The evaluation counters accumulated so far.
    pub fn stats(&self) -> EvalStats {
        self.stats
    }

    /// Evaluates one configuration, answering from the memo-cache when the
    /// point was seen before. Cache hits return a clone of the stored
    /// outcome, bit-identical to the original evaluation. The cache key is
    /// the backend-qualified [`Backend::cache_key`], not the bare
    /// configuration hash.
    pub fn evaluate(&mut self, config: &TimelyConfig) -> PointOutcome {
        // One serde-encoding hash per call: the folded cache key and the
        // report's config_hash both derive from it, and a cache hit pays no
        // accelerator construction at all.
        let config_hash = config.stable_hash();
        let key = fold_cache_key(BackendId::Timely.stable_tag(), config_hash);
        if let Some(hit) = self.cache.get(&key) {
            self.stats.cache_hits += 1;
            return hit.clone();
        }
        let outcome = self.evaluate_fresh(config, config_hash);
        match &outcome {
            PointOutcome::Feasible(_) => self.stats.evaluations += 1,
            PointOutcome::Pruned { .. } => self.stats.pruned += 1,
            PointOutcome::Infeasible { .. } => self.stats.infeasible += 1,
        }
        self.cache.insert(key, outcome.clone());
        outcome
    }

    /// Evaluates a baseline backend into a fixed {energy, latency, area}
    /// reference point on the same workload set, memoized on the backend's
    /// [`Backend::cache_key`]. No TIMELY-specific pre-screen applies.
    ///
    /// # Errors
    ///
    /// Propagates evaluation errors (e.g. a workload the backend does not
    /// support).
    pub fn evaluate_reference(
        &mut self,
        backend: &dyn Backend,
    ) -> Result<ReferencePoint, EvalError> {
        let key = backend.cache_key();
        if let Some(hit) = self.reference_cache.get(&key) {
            self.stats.cache_hits += 1;
            return Ok(hit.clone());
        }
        let mut energy_mj = 0.0;
        let mut latency_ms = 0.0;
        let mut area_mm2 = 0.0;
        for model in &self.workloads {
            let outcome = backend.evaluate(model)?;
            energy_mj += outcome.energy_millijoules();
            latency_ms += outcome.physics.single_inference_latency.as_seconds() * 1e3;
            area_mm2 = outcome.area_mm2;
        }
        let point = ReferencePoint {
            backend: backend.id(),
            cache_key: key,
            energy_mj_per_inference: energy_mj / self.workloads.len() as f64,
            latency_ms: latency_ms / self.workloads.len() as f64,
            area_mm2,
        };
        self.reference_cache.insert(key, point.clone());
        Ok(point)
    }

    /// The exact workload numbers of one candidate, computed allocation-free
    /// from the cached analyses and the memoized placements, layer sums and
    /// schedule summaries. This is the shared core of
    /// [`Evaluator::evaluate`] and [`Evaluator::screen_bounds`]: both paths
    /// run the same float operations in the same order, so a screened bound
    /// is bit-identical to the objectives a full evaluation would produce.
    ///
    /// The arithmetic mirrors the [`Backend::evaluate`] trait path step for
    /// step (schedule summary for latency; totals × per-op energies grouped
    /// via [`EnergyByCategory::from_breakdown`] for energy), which the
    /// incremental-equivalence property test pins bitwise.
    // lint:hot per-point totals and energy over the workload models
    fn workload_objectives(
        &mut self,
        config: &TimelyConfig,
    ) -> Result<WorkloadNumbers, WorkloadFailure<'_>> {
        let (placements, factors, summaries) = self.layers.rows(&self.analyzed, config);
        let mut energy_mj = 0.0;
        let mut latency_ms = 0.0;
        let mut min_latency_ms = f64::INFINITY;
        let models = self.workloads.iter().zip(&self.analyzed);
        for (((model, analysis), placement), (factors, fit)) in
            models.zip(placements).zip(factors.iter().zip(summaries))
        {
            let workload = analysis
                .as_ref()
                .map_err(|err| WorkloadFailure::Analysis { model, err })?;
            let summary = fit
                .as_ref()
                .map_err(|&counts| WorkloadFailure::TooLarge { model, counts })?;
            energy_mj += model_energy_mj(workload, factors, placement, config);
            let latency = summary.single_inference_latency(config).as_seconds() * 1e3;
            latency_ms += latency;
            min_latency_ms = min_latency_ms.min(latency);
        }
        let count = self.analyzed.len() as f64;
        Ok(WorkloadNumbers {
            energy_mj: energy_mj / count,
            latency_ms: latency_ms / count,
            min_latency_ms,
        })
    }

    /// Computes an admissible lower-bound vector for a candidate without a
    /// full evaluation, writing it into `out` in [`Objectives::vector`]
    /// order ([`BoundCheck::Bounds`]); or proves the candidate can never be
    /// feasible ([`BoundCheck::NeverFeasible`]); or declines
    /// ([`BoundCheck::Unknown`]).
    ///
    /// For TIMELY the analytic axes {energy, latency, area, noise} are exact
    /// (computed through the same arithmetic as evaluation); only the p99
    /// axis, when serving is enabled, is a strict lower bound (the smallest
    /// single-model latency — no request of any traffic mix can complete
    /// faster).
    pub fn screen_bounds(&mut self, config: &TimelyConfig, out: &mut Vec<f64>) -> BoundCheck {
        out.clear();
        if config.validate().is_err() {
            // Let the evaluator prune it (cheap) so the pruned counter and
            // reason strings stay where they always were.
            return BoundCheck::Unknown;
        }
        let noise_sigma_lsb = AccuracyStudy::from_config(config)
            .noise_model()
            .input_sigma_lsb;
        if let Some(cap) = self.constraints.max_noise_sigma_lsb {
            if noise_sigma_lsb > cap {
                return BoundCheck::NeverFeasible;
            }
        }
        let area_mm2 = AreaBreakdown::for_chip(config)
            .total()
            .as_square_millimeters()
            * config.chips as f64;
        if let Some(cap) = self.constraints.max_area_mm2 {
            if area_mm2 > cap {
                return BoundCheck::NeverFeasible;
            }
        }
        let numbers = match self.workload_objectives(config) {
            Ok(numbers) => numbers,
            Err(WorkloadFailure::TooLarge { .. }) => return BoundCheck::NeverFeasible,
            Err(WorkloadFailure::Analysis { .. }) => return BoundCheck::Unknown,
        };
        if let Some(cap) = self.constraints.max_latency_ms {
            if numbers.latency_ms > cap {
                return BoundCheck::NeverFeasible;
            }
        }
        out.push(numbers.energy_mj);
        out.push(numbers.latency_ms);
        out.push(area_mm2);
        out.push(noise_sigma_lsb);
        if self.serving.is_some() {
            out.push(numbers.min_latency_ms);
        }
        BoundCheck::Bounds
    }

    /// The serving memo key of a candidate whose workload objectives were
    /// just computed, from the memoized schedule summaries of `per_chip`,
    /// one chip of its `chips`-chip fleet. `None` when a model does not fit
    /// on one chip, so the caller runs the check directly and keeps its
    /// error text.
    fn serving_key(&mut self, chips: usize, per_chip: &TimelyConfig) -> Option<ServingKey> {
        let (_, _, summaries) = self.layers.rows(&self.analyzed, per_chip);
        let profiles = summaries
            .iter()
            .map(|fit| {
                let summary = fit.as_ref().ok()?;
                Some((
                    summary.initiation_interval(per_chip).as_seconds().to_bits(),
                    summary
                        .single_inference_latency(per_chip)
                        .as_seconds()
                        .to_bits(),
                ))
            })
            .collect::<Option<Vec<_>>>()?;
        Some((chips, profiles))
    }

    /// The profiles of `per_chip` whose [`ServingKey`] is `key`, built from
    /// memoized numbers: service times from the key's bits, energy from the
    /// layer sums and placements. The name and every number equal
    /// [`ModelProfile::for_model`]'s bit for bit. `None` when a model's
    /// analysis failed.
    fn per_chip_profiles(
        &mut self,
        per_chip: &TimelyConfig,
        key: &ServingKey,
    ) -> Option<Vec<ModelProfile>> {
        let (placements, factors, _) = self.layers.rows(&self.analyzed, per_chip);
        let models = self.workloads.iter().zip(&self.analyzed);
        models
            .zip(placements.iter().zip(factors))
            .zip(&key.1)
            .map(
                |(((model, analysis), (placement, factors)), &(interval_bits, latency_bits))| {
                    let workload = analysis.as_ref().ok()?;
                    Some(ModelProfile {
                        name: model.name().to_string(),
                        initiation_interval_s: f64::from_bits(interval_bits),
                        latency_s: f64::from_bits(latency_bits),
                        energy_mj: model_energy_mj(workload, factors, placement, per_chip),
                    })
                },
            )
            .collect()
    }

    /// The per-chip model profiles the serving check hands the simulator
    /// for `config`, built from the evaluator's memoized placements, layer
    /// sums and schedule summaries. They equal [`ModelProfile::for_model`]
    /// bit for bit. `None` when the configuration is invalid, a workload
    /// model cannot be analyzed, or a model does not fit on one chip; the
    /// serving check then runs `serving_check` on the configuration
    /// directly.
    pub fn serving_profiles(&mut self, config: &TimelyConfig) -> Option<Vec<ModelProfile>> {
        config.validate().ok()?;
        let per_chip = per_chip(config);
        let key = self.serving_key(config.chips, &per_chip)?;
        self.per_chip_profiles(&per_chip, &key)
    }

    /// The serving check's p99 in ms for a candidate, or its infeasible
    /// reason. The simulation runs once per distinct [`ServingKey`]; later
    /// candidates with the same key reuse the stored result.
    fn serving_p99(&mut self, config: &TimelyConfig, check: ServingCheck) -> Result<f64, String> {
        let per_chip = per_chip(config);
        let Some(key) = self.serving_key(config.chips, &per_chip) else {
            self.stats.serving_runs += 1;
            return run_serving_check(&self.workloads, config, check);
        };
        if let Some(stored) = self.serving_memo.get(&key) {
            self.stats.serving_reuses += 1;
            return stored.clone();
        }
        self.stats.serving_runs += 1;
        let result = match self.per_chip_profiles(&per_chip, &key) {
            Some(profiles) => {
                #[cfg(debug_assertions)]
                for (model, profile) in self.workloads.iter().zip(&profiles) {
                    let bits = |p: &ModelProfile| {
                        let numbers = [p.initiation_interval_s, p.latency_s, p.energy_mj];
                        (p.name.clone(), numbers.map(f64::to_bits))
                    };
                    debug_assert_eq!(
                        ModelProfile::for_model(model, config).map(|p| bits(&p)),
                        Ok(bits(profile)),
                        "serving profile of {}",
                        model.name()
                    );
                }
                p99_ms(serving_check_profiles(
                    profiles,
                    config.chips,
                    check.load,
                    check.requests,
                    check.seed,
                ))
            }
            // Not reached after a successful workload evaluation, which
            // analyzed every model.
            None => run_serving_check(&self.workloads, config, check),
        };
        self.serving_memo.insert(key, result.clone());
        result
    }

    fn evaluate_fresh(&mut self, config: &TimelyConfig, config_hash: u64) -> PointOutcome {
        // Pre-screen 1: structural validity (divide-by-zero guards etc.).
        if let Err(err) = config.validate() {
            return PointOutcome::Pruned {
                reason: err.to_string(),
            };
        }
        // Pre-screen 2: config-only constraints, cheapest first.
        let noise_sigma_lsb = AccuracyStudy::from_config(config)
            .noise_model()
            .input_sigma_lsb;
        if let Some(cap) = self.constraints.max_noise_sigma_lsb {
            if noise_sigma_lsb > cap {
                return PointOutcome::Pruned {
                    reason: format!("noise {noise_sigma_lsb:.3} LSB exceeds floor {cap:.3}"),
                };
            }
        }
        let area_mm2 = AreaBreakdown::for_chip(config)
            .total()
            .as_square_millimeters()
            * config.chips as f64;
        if let Some(cap) = self.constraints.max_area_mm2 {
            if area_mm2 > cap {
                return PointOutcome::Pruned {
                    reason: format!("area {area_mm2:.1} mm2 exceeds cap {cap:.1}"),
                };
            }
        }

        // Workload evaluation through the cached-analysis fast path,
        // bit-identical to the Backend::evaluate trait path it replaced.
        let numbers = match self.workload_objectives(config) {
            Ok(numbers) => numbers,
            Err(failure) => {
                return PointOutcome::Infeasible {
                    reason: failure.reason(),
                }
            }
        };
        let energy_mj = numbers.energy_mj;
        let latency_ms = numbers.latency_ms;
        if let Some(cap) = self.constraints.max_latency_ms {
            if latency_ms > cap {
                return PointOutcome::Infeasible {
                    reason: format!("latency {latency_ms:.3} ms exceeds cap {cap:.3}"),
                };
            }
        }

        // Optional serving check via the discrete-event simulator: a fleet
        // of `config.chips` single-chip instances of this configuration.
        let p99_ms = match self.serving {
            None => 0.0,
            Some(check) => match self.serving_p99(config, check) {
                Ok(p99_ms) => p99_ms,
                Err(reason) => return PointOutcome::Infeasible { reason },
            },
        };

        PointOutcome::Feasible(PointReport {
            config: config.clone(),
            config_hash,
            objectives: Objectives {
                energy_mj_per_inference: energy_mj,
                latency_ms,
                area_mm2,
                noise_sigma_lsb,
                p99_ms,
            },
        })
    }
}

/// One model's energy per inference in mJ from its cached layer sums and
/// placement: the [`Backend::evaluate`] energy arithmetic, step for step.
fn model_energy_mj(
    workload: &ModelWorkload,
    factors: &TotalsFactors,
    placement: &LayerPlacement,
    config: &TimelyConfig,
) -> f64 {
    let totals = factors.totals(workload, placement.crossbars().iter().copied(), config);
    EnergyByCategory::from_breakdown(&EnergyBreakdown::for_counts(
        &totals,
        workload.relu_elements,
        workload.pool_outputs,
        config,
    ))
    .total()
    .as_millijoules()
}

/// Runs one serving check on the configuration itself (profiling every
/// model through [`Backend::evaluate`]) and reduces it with [`p99_ms`].
fn run_serving_check(
    models: &[Model],
    config: &TimelyConfig,
    check: ServingCheck,
) -> Result<f64, String> {
    p99_ms(serving_check(
        models,
        config,
        check.load,
        check.requests,
        check.seed,
    ))
}

/// Reduces a serving check to the p99 in ms, or the infeasible reason (a
/// rejected check, or a run that completed nothing).
fn p99_ms(report: Result<SimReport, EvalError>) -> Result<f64, String> {
    let report = report.map_err(|err| format!("serving check: {err}"))?;
    if report.completed == 0 {
        return Err("serving check completed no requests".to_string());
    }
    Ok(report.latency.p99_ms)
}

#[cfg(test)]
mod tests {
    use super::*;
    use timely_core::TimelyAccelerator;
    use timely_nn::zoo;

    fn evaluator() -> Evaluator {
        Evaluator::new(vec![zoo::cnn_1()])
    }

    #[test]
    fn paper_default_is_feasible() {
        let mut eval = evaluator();
        let outcome = eval.evaluate(&TimelyConfig::paper_default());
        let report = outcome.report().expect("paper default is feasible");
        assert!(report.objectives.energy_mj_per_inference > 0.0);
        assert!(report.objectives.latency_ms > 0.0);
        assert!((report.objectives.area_mm2 - 91.0).abs() < 3.0);
        assert!(report.objectives.noise_sigma_lsb > 0.0);
        assert_eq!(report.objectives.p99_ms, 0.0);
        assert_eq!(eval.stats().evaluations, 1);
    }

    #[test]
    fn degenerate_points_are_pruned_before_evaluation() {
        let mut eval = evaluator();
        let degenerate = TimelyConfig {
            gamma: 0,
            ..TimelyConfig::paper_default()
        };
        assert!(matches!(
            eval.evaluate(&degenerate),
            PointOutcome::Pruned { .. }
        ));
        assert_eq!(eval.stats().pruned, 1);
        assert_eq!(eval.stats().evaluations, 0);
    }

    #[test]
    fn area_cap_prunes_large_points() {
        let mut eval = evaluator().with_constraints(Constraints {
            max_area_mm2: Some(1.0),
            ..Constraints::default()
        });
        match eval.evaluate(&TimelyConfig::paper_default()) {
            PointOutcome::Pruned { reason } => assert!(reason.contains("area")),
            other => panic!("expected pruned, got {other:?}"),
        }
    }

    #[test]
    fn too_large_models_are_infeasible_not_panicking() {
        let mut eval = Evaluator::new(vec![zoo::vgg_d()]);
        let tiny = TimelyConfig {
            subchips_per_chip: 1,
            ..TimelyConfig::paper_default()
        };
        // The reason carries the crossbar counts exactly as the trait path
        // reports them.
        let err = Backend::evaluate(&TimelyAccelerator::new(tiny.clone()), &zoo::vgg_d())
            .expect_err("VGG-D does not fit one sub-chip");
        assert_eq!(
            eval.evaluate(&tiny),
            PointOutcome::Infeasible {
                reason: format!("VGG-D: {err}")
            }
        );
        assert_eq!(eval.stats().infeasible, 1);
    }

    #[test]
    fn cache_hits_do_not_reevaluate() {
        let mut eval = evaluator();
        let cfg = TimelyConfig::paper_default();
        let first = eval.evaluate(&cfg);
        let second = eval.evaluate(&cfg);
        assert_eq!(first, second);
        assert_eq!(eval.stats().evaluations, 1);
        assert_eq!(eval.stats().cache_hits, 1);
    }

    #[test]
    fn cache_is_keyed_on_the_backend_qualified_hash() {
        // A key equal to the bare config hash would collide with any other
        // backend hashing its config identically; the evaluator must store
        // under the folded Backend::cache_key instead.
        let mut eval = evaluator();
        let cfg = TimelyConfig::paper_default();
        eval.evaluate(&cfg);
        let folded = TimelyAccelerator::new(cfg.clone()).cache_key();
        assert_ne!(folded, cfg.stable_hash());
        assert!(eval.cache.contains_key(&folded));
        assert!(!eval.cache.contains_key(&cfg.stable_hash()));
        // The report still identifies the point by its config hash.
        let report = eval.evaluate(&cfg).report().cloned().unwrap();
        assert_eq!(report.config_hash, cfg.stable_hash());
    }

    #[test]
    fn references_are_evaluated_through_the_trait_and_memoized() {
        let mut eval = evaluator();
        // Any Backend works as a reference; a 16-bit TIMELY instance stands
        // in for a baseline here (the dse crate does not depend on
        // timely-baselines).
        let reference = TimelyAccelerator::new(TimelyConfig::paper_16bit());
        let point = eval.evaluate_reference(&reference).unwrap();
        assert_eq!(point.backend, BackendId::Timely);
        assert_eq!(point.cache_key, reference.cache_key());
        assert!(point.energy_mj_per_inference > 0.0);
        assert!(point.latency_ms > 0.0);
        assert!(point.area_mm2 > 0.0);
        assert_eq!(point.vector().len(), 3);
        let hits_before = eval.stats().cache_hits;
        let again = eval.evaluate_reference(&reference).unwrap();
        assert_eq!(point, again);
        assert_eq!(eval.stats().cache_hits, hits_before + 1);
        // Reference keys live in the same folded key space as point keys but
        // never alias them: the searched paper-default point and the 16-bit
        // reference stay distinct.
        eval.evaluate(&TimelyConfig::paper_default());
        assert_ne!(
            reference.cache_key(),
            TimelyAccelerator::new(TimelyConfig::paper_default()).cache_key()
        );
    }

    #[test]
    fn serving_check_fills_p99() {
        let mut eval = evaluator().with_serving(ServingCheck {
            load: 0.5,
            requests: 100.0,
            seed: 7,
        });
        let report = eval
            .evaluate(&TimelyConfig::paper_default())
            .report()
            .cloned()
            .expect("feasible");
        assert!(report.objectives.p99_ms > 0.0);
        assert!(report.objectives.p99_ms >= report.objectives.latency_ms * 0.99);
        assert_eq!(report.objectives.vector(true).len(), 5);
        assert_eq!(Objectives::labels(true).len(), 5);
    }
}
