//! The four workloads: how each is set up from a seed, what one iteration
//! runs, and how its outputs are checked.
//!
//! Every workload drives one engine through its public entry point with the
//! defaults users get: `ServingSimulator::run_scenario_recorded` (the event
//! queue backing is never named, so it is whatever `Scenario::default()`
//! picks), `Explorer::run_recorded`, and `InferenceEngine::forward_with_seed`.
//! An iteration repeats the same seeded inputs, so every iteration of a run
//! must reproduce the first one's outputs exactly.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use timely_baselines::baseline_registry;
use timely_core::accuracy::AccuracyStudy;
use timely_core::{Backend, TimelyConfig};
use timely_dse::{
    Constraints, DseReport, Evaluator, Explorer, ScreenStats, SearchSpace, ServingCheck, Strategy,
};
use timely_nn::infer::{InferenceConfig, InferenceEngine, NoiseModel};
use timely_nn::tensor::Tensor;
use timely_nn::{zoo, Model};
use timely_obs::Recorder;
use timely_sim::{
    ArrivalProcess, ModelMix, Policy, Scenario, ServingSimulator, Sharding, SimConfig, StatsMode,
    TrafficSpec,
};

use crate::expected;

/// The seed whose outputs are pinned in [`crate::expected`]. It is also the
/// accuracy study's own default seed.
pub const PINNED_SEED: u64 = 2020;

/// Offered load of both serving workloads, as a share of fleet capacity.
const SERVING_LOAD: f64 = 0.8;
/// Chips in both serving fleets.
const SERVING_CHIPS: usize = 2;
/// Clients of the closed-loop serving workload.
const CLOSED_LOOP_CLIENTS: usize = 1000;

/// The workloads, in the order `BENCHMARK.json` lists them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadKind {
    /// Open-loop Poisson traffic, streaming statistics.
    ServingOpen,
    /// 1,000 closed-loop clients, exact statistics.
    ServingClosed,
    /// The full `dse_study`: neighborhood search plus the screened
    /// production sweep.
    Dse,
    /// The §VI-B accuracy study on CNN-1 and MLP-L.
    Accuracy,
}

impl WorkloadKind {
    /// Every workload.
    pub const ALL: [WorkloadKind; 4] = [
        WorkloadKind::ServingOpen,
        WorkloadKind::ServingClosed,
        WorkloadKind::Dse,
        WorkloadKind::Accuracy,
    ];

    /// The name the command line and `BENCHMARK.json` use.
    pub fn name(self) -> &'static str {
        match self {
            WorkloadKind::ServingOpen => "serving-open",
            WorkloadKind::ServingClosed => "serving-closed",
            WorkloadKind::Dse => "dse",
            WorkloadKind::Accuracy => "accuracy",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How much work one iteration does. `Standard` is what the benchmark
/// measures and what the pinned outputs describe; `Tiny` lets the tests run
/// every workload through its checks quickly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The measured size.
    Standard,
    /// A test-sized iteration.
    Tiny,
}

/// Wall-clock totals of the benchmark's own spans around calls into a layer,
/// keyed by span name. Disabled, it only runs the timed closures.
#[derive(Debug, Clone, Default)]
pub struct Spans {
    enabled: bool,
    totals: Vec<(&'static str, f64, u64)>,
}

impl Spans {
    /// A recording span set.
    pub fn enabled() -> Self {
        Self {
            enabled: true,
            totals: Vec::new(),
        }
    }

    /// A span set that records nothing.
    pub fn disabled() -> Self {
        Self::default()
    }

    /// Runs `f`, adding its wall time to span `name` when enabled.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let start = Instant::now();
        let value = f();
        let seconds = start.elapsed().as_secs_f64();
        match self.totals.iter_mut().find(|(n, _, _)| *n == name) {
            Some((_, total, calls)) => {
                *total += seconds;
                *calls += 1;
            }
            None => self.totals.push((name, seconds, 1)),
        }
        value
    }

    /// Total seconds spent in span `name` (0 if it never ran).
    pub fn total_s(&self, name: &str) -> f64 {
        self.totals
            .iter()
            .find(|(n, _, _)| *n == name)
            .map_or(0.0, |(_, total, _)| *total)
    }

    /// Mean seconds per call of span `name`, if it ran.
    pub fn mean_s(&self, name: &str) -> Option<f64> {
        self.totals
            .iter()
            .find(|(n, _, _)| *n == name)
            .map(|(_, total, calls)| total / *calls as f64)
    }
}

/// A set-up workload, ready to iterate.
pub enum Workload {
    /// `serving-open` or `serving-closed`.
    Serving(Serving),
    /// `dse`.
    Dse(Box<Dse>),
    /// `accuracy`.
    Accuracy(Accuracy),
}

/// What one iteration completed.
#[derive(Debug, Clone, PartialEq)]
pub struct Iteration {
    /// Ops completed: simulated requests, DSE candidates visited, or
    /// accuracy samples (one clean plus one noisy forward pass each).
    pub ops: u64,
    /// The deterministic outputs the check compares.
    pub output: Output,
}

/// The deterministic outputs of one iteration.
#[derive(Debug, Clone, PartialEq)]
pub enum Output {
    /// A serving run's request accounting and latency/energy summary.
    Serving(ServingOutput),
    /// Both DSE phases' candidate accounting and frontiers.
    Dse(DseOutput),
    /// Per-model agreement counts.
    Accuracy(Vec<AccuracyOutput>),
}

/// The checked outputs of one serving run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServingOutput {
    /// Requests that arrived.
    pub offered: u64,
    /// Requests that completed within the horizon.
    pub completed: u64,
    /// Requests dropped by admission control.
    pub shed: u64,
    /// Requests still in the system at the horizon.
    pub backlog: u64,
    /// `to_bits` of the p50 latency in ms.
    pub p50_ms_bits: u64,
    /// `to_bits` of the p99 latency in ms.
    pub p99_ms_bits: u64,
    /// `to_bits` of the energy per request in mJ.
    pub mj_per_request_bits: u64,
}

/// The checked outputs of one DSE phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseOutput {
    /// Candidate accounting.
    pub screening: ScreenStats,
    /// Pareto frontier size.
    pub frontier: usize,
    /// FNV-1a digest over the frontier configs' `stable_hash`, in order.
    pub frontier_digest: u64,
}

/// The checked outputs of one DSE iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DseOutput {
    /// The neighborhood study.
    pub neighborhood: PhaseOutput,
    /// The screened production sweep.
    pub production: PhaseOutput,
}

/// The checked outputs of one model in the accuracy study.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccuracyOutput {
    /// Model name.
    pub model: String,
    /// Inputs evaluated.
    pub samples: usize,
    /// Inputs whose noisy classification matched the clean one.
    pub agreements: usize,
}

impl Workload {
    /// Builds `kind`'s inputs from `seed`: zoo construction, backend
    /// profiling, and the engine. This is what `setup_s` times.
    pub fn setup(kind: WorkloadKind, seed: u64, size: Size) -> Result<Self, String> {
        match kind {
            WorkloadKind::ServingOpen => Serving::setup(false, seed, size).map(Workload::Serving),
            WorkloadKind::ServingClosed => Serving::setup(true, seed, size).map(Workload::Serving),
            WorkloadKind::Dse => Ok(Workload::Dse(Box::new(Dse::setup(seed, size)))),
            WorkloadKind::Accuracy => Ok(Workload::Accuracy(Accuracy::setup(seed, size))),
        }
    }

    /// Runs one iteration. `recorder` receives the engine's own telemetry
    /// and `spans` the benchmark's timings of calls into layers.
    pub fn iterate<R: Recorder>(
        &self,
        recorder: &mut R,
        spans: &mut Spans,
    ) -> Result<Iteration, String> {
        match self {
            Workload::Serving(w) => w.iterate(recorder),
            Workload::Dse(w) => w.iterate(recorder, spans),
            Workload::Accuracy(w) => w.iterate(spans),
        }
    }
}

impl Output {
    /// Checks the outputs: against the pinned values for [`PINNED_SEED`] at
    /// the standard size, and against the workload's invariants always.
    pub fn check(&self, kind: WorkloadKind, seed: u64, size: Size) -> Result<(), String> {
        self.check_invariants()?;
        if seed == PINNED_SEED && size == Size::Standard {
            let pinned = expected::pinned(kind);
            if *self != pinned {
                return Err(format!(
                    "{} outputs differ from the pinned ones:\n  got    {self:?}\n  pinned {pinned:?}",
                    kind.name()
                ));
            }
        }
        Ok(())
    }

    fn check_invariants(&self) -> Result<(), String> {
        match self {
            Output::Serving(s) => {
                if s.offered != s.completed + s.backlog + s.shed {
                    return Err(format!(
                        "offered {} != completed {} + backlog {} + shed {}",
                        s.offered, s.completed, s.backlog, s.shed
                    ));
                }
                if s.completed == 0 {
                    return Err("no request completed".to_string());
                }
                for (name, bits) in [
                    ("p50 ms", s.p50_ms_bits),
                    ("p99 ms", s.p99_ms_bits),
                    ("mJ/request", s.mj_per_request_bits),
                ] {
                    let value = f64::from_bits(bits);
                    if !(value.is_finite() && value >= 0.0) {
                        return Err(format!("{name} is {value}"));
                    }
                }
                if f64::from_bits(s.p50_ms_bits) > f64::from_bits(s.p99_ms_bits) {
                    return Err("p50 exceeds p99".to_string());
                }
            }
            Output::Dse(d) => {
                for (name, phase) in [
                    ("neighborhood", d.neighborhood),
                    ("production", d.production),
                ] {
                    let s = phase.screening;
                    if s.screened_out + s.evaluated != s.visited {
                        return Err(format!(
                            "{name}: screened_out {} + evaluated {} != visited {}",
                            s.screened_out, s.evaluated, s.visited
                        ));
                    }
                    if phase.frontier == 0 {
                        return Err(format!("{name}: empty frontier"));
                    }
                }
            }
            Output::Accuracy(models) => {
                for m in models {
                    if m.agreements > m.samples {
                        return Err(format!(
                            "{}: {} agreements over {} samples",
                            m.model, m.agreements, m.samples
                        ));
                    }
                }
            }
        }
        Ok(())
    }
}

/// A serving fleet, its traffic, and its scenario.
#[derive(Debug)]
pub struct Serving {
    sim: ServingSimulator,
    traffic: TrafficSpec,
    scenario: Scenario,
}

impl Serving {
    fn setup(closed_loop: bool, seed: u64, size: Size) -> Result<Self, String> {
        let requests = match (closed_loop, size) {
            (false, Size::Standard) => 200_000.0,
            (true, Size::Standard) => 40_000.0,
            (_, Size::Tiny) => 2_000.0,
        };
        let models = zoo::serving_benchmarks();
        let mut sim = ServingSimulator::new(
            &models,
            &TimelyConfig::paper_default(),
            SimConfig {
                seed,
                duration_s: 1.0,
                chips: SERVING_CHIPS,
                policy: Policy::ShortestQueue,
                sharding: Sharding::Replicate,
            },
        )
        .map_err(|err| format!("building the serving fleet: {err}"))?;
        // The fleet's mix capacity, as `serving_check` defines it: the rate
        // at which the slowest model saturates its hosting chips.
        let capacity = (0..models.len())
            .map(|m| sim.fleet_capacity_rps(m))
            .fold(f64::INFINITY, f64::min);
        let rate = SERVING_LOAD * capacity;
        sim.set_duration(requests / rate);
        let (process, scenario) = if closed_loop {
            let process = ArrivalProcess::ClosedLoop {
                clients: CLOSED_LOOP_CLIENTS,
                think_time_s: CLOSED_LOOP_CLIENTS as f64 / rate,
            };
            (process, Scenario::default())
        } else {
            let scenario = Scenario {
                stats: StatsMode::Streaming,
                ..Scenario::default()
            };
            (ArrivalProcess::Poisson { rate }, scenario)
        };
        Ok(Self {
            sim,
            traffic: TrafficSpec {
                process,
                mix: ModelMix::uniform(models.len()),
            },
            scenario,
        })
    }

    fn iterate<R: Recorder>(&self, recorder: &mut R) -> Result<Iteration, String> {
        let report = self
            .sim
            .run_scenario_recorded(&self.traffic, &self.scenario, recorder)
            .map_err(|err| format!("serving run: {err}"))?;
        Ok(Iteration {
            ops: report.completed,
            output: Output::Serving(ServingOutput {
                offered: report.offered,
                completed: report.completed,
                shed: report.shed,
                backlog: report.backlog,
                p50_ms_bits: report.latency.p50_ms.to_bits(),
                p99_ms_bits: report.latency.p99_ms.to_bits(),
                mj_per_request_bits: report.energy_mj_per_request.to_bits(),
            }),
        })
    }
}

/// The two DSE phases of `dse_study`, as pristine explorers that every
/// iteration clones.
pub struct Dse {
    neighborhood: Explorer,
    neighborhood_strategies: Vec<Strategy>,
    production: Explorer,
    production_strategies: Vec<Strategy>,
    references: Vec<Box<dyn Backend>>,
    paper: TimelyConfig,
}

impl Dse {
    /// The evaluators of `dse_study`'s two phases: `(neighborhood,
    /// production)`. Only the neighborhood study runs the serving check.
    pub fn evaluators(seed: u64) -> (Evaluator, Evaluator) {
        let constraints = Constraints {
            max_area_mm2: Some(400.0),
            max_noise_sigma_lsb: Some(0.5),
            max_latency_ms: None,
        };
        let serving = ServingCheck {
            load: 0.7,
            requests: 400.0,
            seed,
        };
        let models = zoo::dse_benchmarks();
        let neighborhood = Evaluator::new(models.clone())
            .with_constraints(constraints)
            .with_serving(serving);
        (
            neighborhood,
            Evaluator::new(models).with_constraints(constraints),
        )
    }

    fn setup(seed: u64, size: Size) -> Self {
        let (neighborhood, production) = Self::evaluators(seed);
        let neighborhood = Explorer::new(SearchSpace::paper_neighborhood(), neighborhood);
        let production =
            Explorer::new(SearchSpace::production_space(), production).with_screening(true);
        let (grid, random, starts, production_grid, warm_up) = match size {
            Size::Standard => (usize::MAX, 64, 8, usize::MAX, 256),
            Size::Tiny => (48, 16, 2, 4096, 64),
        };
        Self {
            neighborhood,
            neighborhood_strategies: vec![
                Strategy::Grid { max_points: grid },
                Strategy::Random {
                    samples: random,
                    seed,
                },
                Strategy::HillClimb {
                    starts,
                    max_steps: 16,
                    seed: seed.wrapping_add(1),
                },
            ],
            production,
            production_strategies: vec![
                Strategy::Random {
                    samples: warm_up,
                    seed: seed.wrapping_add(2),
                },
                Strategy::Grid {
                    max_points: production_grid,
                },
            ],
            references: baseline_registry(),
            paper: TimelyConfig::paper_default(),
        }
    }

    fn iterate<R: Recorder>(
        &self,
        recorder: &mut R,
        spans: &mut Spans,
    ) -> Result<Iteration, String> {
        let mut phase = self.neighborhood.clone();
        phase.seed_config(&self.paper);
        for strategy in &self.neighborhood_strategies {
            spans.time("dse.neighborhood", || {
                phase.run_recorded(strategy, recorder)
            });
        }
        for backend in &self.references {
            phase
                .seed_reference(backend.as_ref())
                .map_err(|err| format!("{} reference: {err}", backend.name()))?;
        }
        phase.record_stats(recorder);
        let report = spans.time("dse.report", || phase.report());
        if report.references.len() != self.references.len() {
            return Err(format!(
                "{} of {} baseline references reported",
                report.references.len(),
                self.references.len()
            ));
        }
        let neighborhood = phase_output(&report)?;

        let mut phase = self.production.clone();
        phase.seed_config(&self.paper);
        for strategy in &self.production_strategies {
            spans.time("dse.production", || phase.run_recorded(strategy, recorder));
        }
        phase.record_stats(recorder);
        let report = spans.time("dse.report", || phase.report());
        let production = phase_output(&report)?;

        Ok(Iteration {
            ops: (neighborhood.screening.visited + production.screening.visited) as u64,
            output: Output::Dse(DseOutput {
                neighborhood,
                production,
            }),
        })
    }
}

fn phase_output(report: &DseReport) -> Result<PhaseOutput, String> {
    let mut digest = Fnv1a::new();
    for point in report.frontier_points() {
        let objectives = point.objectives.vector(true);
        if let Some(bad) = objectives.iter().find(|v| !(v.is_finite() && **v >= 0.0)) {
            return Err(format!("frontier objective {bad} is not finite and >= 0"));
        }
        digest.write_u64(point.config.stable_hash());
    }
    Ok(PhaseOutput {
        screening: report.screening,
        frontier: report.frontier.len(),
        frontier_digest: digest.finish(),
    })
}

/// 64-bit FNV-1a.
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn write_u64(&mut self, value: u64) {
        for byte in value.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// One model of the accuracy study with its clean and noisy engines.
#[derive(Debug)]
struct AccuracyModel {
    model: Model,
    clean: InferenceEngine,
    noisy: InferenceEngine,
}

/// The accuracy study's engines, built once.
#[derive(Debug)]
pub struct Accuracy {
    models: Vec<AccuracyModel>,
    samples: usize,
    seed: u64,
}

impl Accuracy {
    /// The study's models: the MNIST-scale networks `accuracy_study` runs.
    pub fn models() -> Vec<Model> {
        vec![zoo::cnn_1(), zoo::mlp_l()]
    }

    /// The engine configurations `AccuracyStudy::run` uses: `(clean, noisy)`.
    pub fn engine_configs(seed: u64) -> (InferenceConfig, InferenceConfig) {
        let config = TimelyConfig::paper_default();
        let study = AccuracyStudy::from_config(&config);
        let clean = InferenceConfig {
            activation_bits: config.activation_bits,
            weight_bits: config.weight_bits,
            noise: NoiseModel::ideal(),
            seed,
        };
        (clean, clean.with_noise(study.noise_model()))
    }

    fn setup(seed: u64, size: Size) -> Self {
        let (clean, noisy) = Self::engine_configs(seed);
        let models = Self::models()
            .into_iter()
            .map(|model| AccuracyModel {
                clean: InferenceEngine::new(model.clone(), clean),
                noisy: InferenceEngine::new(model.clone(), noisy),
                model,
            })
            .collect();
        Self {
            models,
            samples: match size {
                Size::Standard => 3,
                Size::Tiny => 1,
            },
            seed,
        }
    }

    /// The study loop of `timely_nn::infer::accuracy_under_noise`, with the
    /// engines built once instead of per call: the same inputs, the same
    /// noise seeds, the same agreement count.
    fn iterate(&self, spans: &mut Spans) -> Result<Iteration, String> {
        let mut outputs = Vec::with_capacity(self.models.len());
        for m in &self.models {
            let mut rng = StdRng::seed_from_u64(self.seed);
            let mut agreements = 0;
            for i in 0..self.samples {
                let input = Tensor::random_uniform(m.model.input_shape(), 1.0, &mut rng);
                let noise_seed = self.seed ^ (i as u64).wrapping_mul(0x9E37_79B9);
                let clean = spans
                    .time("nn.forward_clean", || {
                        m.clean.forward_with_seed(&input, noise_seed)
                    })
                    .map_err(|err| format!("{} clean pass: {err}", m.model.name()))?;
                let noisy = spans
                    .time("nn.forward_noisy", || {
                        m.noisy.forward_with_seed(&input, noise_seed)
                    })
                    .map_err(|err| format!("{} noisy pass: {err}", m.model.name()))?;
                if clean.argmax() == noisy.argmax() {
                    agreements += 1;
                }
            }
            outputs.push(AccuracyOutput {
                model: m.model.name().to_string(),
                samples: self.samples,
                agreements,
            });
        }
        Ok(Iteration {
            ops: (self.samples * self.models.len()) as u64,
            output: Output::Accuracy(outputs),
        })
    }
}
