//! The serving simulator: a fleet of accelerator chips under generated
//! traffic.
//!
//! Each simulated chip serves inference requests through its backend's
//! pipeline, abstracted by the [`ServicePhysics`] every
//! [`Backend`](timely_core::Backend) reports: the *initiation interval* (how
//! often the pipeline accepts a new inference) and the *single-inference
//! latency* (the time one request spends flowing through all stages). A
//! request issued at `t` therefore completes at `t + latency`, and the next
//! request can issue no earlier than `t + II`. Energy per request comes from
//! the backend's per-inference [`EnergyByCategory`] total.
//!
//! Fleets can be homogeneous ([`ServingSimulator::for_backend`]) or mix
//! architectures chip by chip ([`ServingSimulator::heterogeneous`] — e.g. a
//! TIMELY + ISAAC pool).
//!
//! [`ServicePhysics`]: timely_core::ServicePhysics
//! [`EnergyByCategory`]: timely_core::EnergyByCategory

use crate::error::SimError;
use crate::event::EventQueue;
use crate::faults::{FaultKind, Scenario, StatsMode};
use crate::scheduler::{FleetLayout, Policy, Router, Sharding};
use crate::stats::{exact_latency_stats, ChipStats, LatencyStats, ModelStats, SimReport};
use crate::traffic::{ArrivalProcess, ModelMix, OpenLoopSource, TrafficSpec};
use rand::distributions::{Distribution, Exp};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use timely_core::{Backend, BackendId, EvalError, TimelyAccelerator, TimelyConfig};
use timely_nn::Model;
use timely_obs::{Histogram, NoopRecorder, Recorder};

/// The serving-relevant profile of one model on one chip, derived from the
/// chip backend's [`ServicePhysics`](timely_core::ServicePhysics).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelProfile {
    /// Model name.
    pub name: String,
    /// Steady-state initiation interval of the chip's pipeline, in seconds.
    pub initiation_interval_s: f64,
    /// End-to-end latency of one unqueued inference, in seconds.
    pub latency_s: f64,
    /// Energy of one inference, in millijoules.
    pub energy_mj: f64,
}

impl ModelProfile {
    /// Profiles `model` on one chip of any backend, via the unified
    /// [`Backend::evaluate`] outcome. The backend instance passed here is
    /// treated as *one* simulated chip; fleet scale comes from
    /// [`SimConfig::chips`].
    ///
    /// # Errors
    ///
    /// Propagates evaluation errors (invalid configuration, model
    /// unsupported on one chip).
    pub fn for_backend(model: &Model, backend: &dyn Backend) -> Result<Self, EvalError> {
        let outcome = backend.evaluate(model)?;
        Ok(Self {
            name: outcome.model_name,
            initiation_interval_s: outcome.physics.initiation_interval.as_seconds(),
            latency_s: outcome.physics.single_inference_latency.as_seconds(),
            energy_mj: outcome.energy.total().as_millijoules(),
        })
    }

    /// Profiles `model` on a single chip of the given TIMELY configuration
    /// (the configuration's `chips` field is forced to 1 here).
    ///
    /// # Errors
    ///
    /// See [`ModelProfile::for_backend`].
    pub fn for_model(model: &Model, config: &TimelyConfig) -> Result<Self, EvalError> {
        let mut per_chip = config.clone();
        per_chip.chips = 1;
        Self::for_backend(model, &TimelyAccelerator::new(per_chip))
    }

    /// The chip's maximum sustainable request rate for this model, in
    /// requests per second.
    pub fn capacity_rps(&self) -> f64 {
        1.0 / self.initiation_interval_s
    }

    /// Closed-loop clients needed to drive one chip at saturation: the
    /// pipeline holds `latency / II` requests in flight, doubled for slack
    /// so completions always find another request waiting.
    pub fn saturating_clients(&self) -> usize {
        (self.latency_s / self.initiation_interval_s).ceil() as usize * 2
    }
}

/// Configuration of one simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// Seed of the run's single RNG; everything else is deterministic.
    pub seed: u64,
    /// Simulated horizon in seconds. Arrivals stop and measurement ends at
    /// this time; requests still in the system are reported as backlog.
    pub duration_s: f64,
    /// Number of simulated chips in the fleet.
    pub chips: usize,
    /// Dispatch policy.
    pub policy: Policy,
    /// Model placement across the fleet.
    pub sharding: Sharding,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            seed: 0,
            duration_s: 1.0,
            chips: 1,
            policy: Policy::Fifo,
            sharding: Sharding::Replicate,
        }
    }
}

/// One in-flight or queued request.
#[derive(Debug, Clone, Copy)]
struct Request {
    model: usize,
    arrival_s: f64,
    /// Closed-loop client that issued the request; `usize::MAX` for open loop.
    client: usize,
}

/// Events driving the simulation.
#[derive(Debug, Clone, Copy)]
enum Event {
    /// A request enters the system (open loop: also schedules its successor).
    Arrival(Request),
    /// A chip's batching window expired; `epoch` guards against stale
    /// deadlines from already-flushed batches.
    BatchDeadline { chip: usize, epoch: u64 },
    /// A chip's pipeline has a free issue slot.
    ChipFree { chip: usize },
    /// A request leaves a chip's pipeline.
    Completion { chip: usize, request: Request },
    /// A scenario fault window begins; `fault` indexes
    /// [`Scenario::faults`].
    FaultStart { fault: usize },
    /// A scenario fault window ends and the chip recovers.
    FaultEnd { fault: usize },
}

/// Per-chip mutable simulation state.
#[derive(Debug, Clone)]
struct ChipState {
    /// Requests ready to issue, in dispatch order.
    run_queue: VecDeque<Request>,
    /// Requests held back by the batching window.
    batch: Vec<Request>,
    /// Monotone counter distinguishing batch generations.
    batch_epoch: u64,
    /// Earliest time the pipeline can accept the next request.
    next_free_s: f64,
    /// Whether a `ChipFree` wake-up is already scheduled.
    wake_pending: bool,
    /// Accumulated pipeline occupancy (sum of initiation intervals issued).
    busy_s: f64,
    issued: u64,
    energy_mj: f64,
    /// The chip is in an outage window: it issues nothing until recovery.
    down: bool,
    /// Multiplier on service times (1.0 outside straggler windows).
    slowdown_factor: f64,
}

impl Default for ChipState {
    fn default() -> Self {
        Self {
            run_queue: VecDeque::new(),
            batch: Vec::new(),
            batch_epoch: 0,
            next_free_s: 0.0,
            wake_pending: false,
            busy_s: 0.0,
            issued: 0,
            energy_mj: 0.0,
            down: false,
            slowdown_factor: 1.0,
        }
    }
}

impl ChipState {
    fn queued(&self) -> usize {
        self.run_queue.len() + self.batch.len()
    }
}

/// A fleet of simulated accelerator chips serving a model zoo. Chips may all
/// run the same backend or mix architectures
/// ([`ServingSimulator::heterogeneous`]).
#[derive(Debug, Clone)]
pub struct ServingSimulator {
    /// `chip_profiles[c][m]` is model `m`'s profile on chip `c`.
    chip_profiles: Vec<Vec<ModelProfile>>,
    layout: FleetLayout,
    config: SimConfig,
}

impl ServingSimulator {
    /// Builds a simulator for `models` on a fleet of [`SimConfig::chips`]
    /// chips of the given per-chip TIMELY configuration (convenience wrapper
    /// around [`ServingSimulator::for_backend`]).
    ///
    /// # Errors
    ///
    /// Propagates profiling errors for any model that cannot be scheduled on
    /// a single chip, and returns [`EvalError::Unsupported`] for an empty
    /// fleet or model list or a horizon that is not positive and finite.
    pub fn new(
        models: &[Model],
        chip_config: &TimelyConfig,
        config: SimConfig,
    ) -> Result<Self, EvalError> {
        let mut per_chip = chip_config.clone();
        per_chip.chips = 1;
        Self::for_backend(models, &TimelyAccelerator::new(per_chip), config)
    }

    /// Builds a homogeneous fleet: [`SimConfig::chips`] chips, each one
    /// instance of `backend`.
    ///
    /// # Errors
    ///
    /// Propagates evaluation errors for any model the backend does not
    /// support, and returns [`EvalError::Unsupported`] for zero chips, an
    /// empty model list, or a horizon that is not positive and finite.
    pub fn for_backend(
        models: &[Model],
        backend: &dyn Backend,
        config: SimConfig,
    ) -> Result<Self, EvalError> {
        let profiles = models
            .iter()
            .map(|m| ModelProfile::for_backend(m, backend))
            .collect::<Result<Vec<_>, _>>()?;
        Self::from_chip_profiles(vec![profiles; config.chips], config, backend.id())
    }

    /// Builds a heterogeneous fleet: chip `c` is one instance of
    /// `backends[c]` (e.g. a TIMELY + ISAAC mixed pool). The fleet size is
    /// `backends.len()`; [`SimConfig::chips`] is overridden to match.
    ///
    /// # Errors
    ///
    /// Propagates evaluation errors: every chip's backend must support every
    /// model in the fleet's zoo. Returns [`EvalError::Unsupported`] for an
    /// empty fleet, an empty model list, or a horizon that is not positive
    /// and finite.
    pub fn heterogeneous(
        models: &[Model],
        backends: &[&dyn Backend],
        config: SimConfig,
    ) -> Result<Self, EvalError> {
        let chip_profiles = backends
            .iter()
            .map(|backend| {
                models
                    .iter()
                    .map(|m| ModelProfile::for_backend(m, *backend))
                    .collect::<Result<Vec<_>, _>>()
            })
            .collect::<Result<Vec<_>, _>>()?;
        // An empty fleet has no chip to name; `from_chip_profiles` rejects
        // it as unsupported by TIMELY.
        let backend = backends.first().map_or(BackendId::Timely, |b| b.id());
        Self::from_chip_profiles(chip_profiles, config, backend)
    }

    /// Builds the simulator from its profile matrix, rejecting an empty
    /// fleet, an empty zoo, or a degenerate horizon as unsupported by
    /// `backend` (the fleet's first chip).
    fn from_chip_profiles(
        chip_profiles: Vec<Vec<ModelProfile>>,
        mut config: SimConfig,
        backend: BackendId,
    ) -> Result<Self, EvalError> {
        let unsupported = |reason: String| EvalError::Unsupported { backend, reason };
        if chip_profiles.is_empty() {
            return Err(unsupported("simulator needs at least one chip".into()));
        }
        if chip_profiles[0].is_empty() {
            return Err(unsupported("simulator needs at least one model".into()));
        }
        if !(config.duration_s > 0.0 && config.duration_s.is_finite()) {
            return Err(unsupported(format!(
                "simulated duration must be positive and finite, got {} s",
                config.duration_s
            )));
        }
        // Policy parameters are validated at run time (`Policy::check` in
        // `run_scenario_recorded`), where the error has a `Result` channel.
        // The profile matrix is the single source of truth for the fleet
        // size; keep the stored config consistent with it (Run sizes its
        // per-chip state from config.chips).
        config.chips = chip_profiles.len();
        let layout =
            FleetLayout::build(chip_profiles[0].len(), chip_profiles.len(), config.sharding);
        Ok(Self {
            chip_profiles,
            layout,
            config,
        })
    }

    /// The per-model serving profiles of the fleet's first chip, in model
    /// order (in a heterogeneous fleet other chips may differ — see
    /// [`ServingSimulator::profile`]).
    pub fn profiles(&self) -> &[ModelProfile] {
        &self.chip_profiles[0]
    }

    /// Model `m`'s profile on chip `c`.
    pub fn profile(&self, chip: usize, model: usize) -> &ModelProfile {
        &self.chip_profiles[chip][model]
    }

    /// The model placement across the fleet.
    pub fn layout(&self) -> &FleetLayout {
        &self.layout
    }

    /// Replaces the simulated horizon (used when the horizon is sized from
    /// the fleet's capacity, which is only known after construction).
    pub fn set_duration(&mut self, duration_s: f64) {
        assert!(
            duration_s > 0.0 && duration_s.is_finite(),
            "duration must be > 0"
        );
        self.config.duration_s = duration_s;
    }

    /// Aggregate fleet capacity for model `m` in requests per second: the
    /// sum of the hosting chips' per-chip rates (which differ in a
    /// heterogeneous fleet).
    pub fn fleet_capacity_rps(&self, model: usize) -> f64 {
        self.layout
            .hosts(model)
            .iter()
            .map(|&chip| self.chip_profiles[chip][model].capacity_rps())
            .sum()
    }

    /// Runs the simulation under the given traffic and [`Scenario`] and
    /// returns the report. This is the simulator's one entry point: pass
    /// `&Scenario::default()` for a plain run (no faults, no shedding, exact
    /// statistics) and `&mut NoopRecorder` for no telemetry.
    ///
    /// Runs are deterministic: the same simulator, traffic, scenario, and
    /// [`SimConfig::seed`] always produce an identical [`SimReport`]. Faults
    /// (outages and stragglers) travel through the same event queue as
    /// arrivals, so fault-injected runs are as reproducible as plain ones.
    ///
    /// A shed arrival (queue-depth admission control) is dropped before
    /// dispatch: it counts in [`SimReport::shed`] (never in backlog), and a
    /// closed-loop client whose request is shed retires for the rest of the
    /// run.
    ///
    /// The recorder receives deterministic telemetry on simulated time:
    /// per-event-type counters (`sim.event.*`), per-chip busy spans (one span
    /// per issued request, track = chip index), the fleet queue-depth
    /// high-water gauge (`sim.queue.depth_peak`), per-model latency
    /// histograms in milliseconds (`sim.latency_ms.<model>`),
    /// `sim.failures.*` counters (`outage`/`straggler`/`recovered`), the
    /// `sim.shed` counter, and one span per fault window (track = chip
    /// index, category `"fault"`). The recorder never changes the report:
    /// every recorder yields the same [`SimReport`], and with a
    /// [`NoopRecorder`] the instrumented hot path monomorphizes back to the
    /// uninstrumented code (no allocation, no dispatch).
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] when the arrival process, dispatch policy,
    /// traffic mix (a model index outside the fleet), or scenario is
    /// malformed.
    pub fn run_scenario_recorded<R: Recorder>(
        &self,
        traffic: &TrafficSpec,
        scenario: &Scenario,
        recorder: &mut R,
    ) -> Result<SimReport, SimError> {
        traffic.process.check()?;
        self.config.policy.check()?;
        let models = self.chip_profiles[0].len();
        if traffic.mix.max_model_index() >= models {
            return Err(SimError::InvalidTraffic(format!(
                "traffic mix references model {} but the fleet only has {models}",
                traffic.mix.max_model_index(),
            )));
        }
        scenario.check(self.chip_profiles.len())?;
        Ok(Run::new(self, traffic, scenario, recorder).execute())
    }
}

/// Per-model constant-memory latency accumulator: a log-bucketed histogram
/// (in milliseconds, the default telemetry scale) for quantile upper bounds
/// plus exact running count/sum/max.
#[derive(Debug, Clone)]
struct StreamingLatency {
    histogram_ms: Histogram,
    count: u64,
    sum_s: f64,
    max_s: f64,
}

impl StreamingLatency {
    fn new() -> Self {
        Self {
            histogram_ms: Histogram::default_log_scale(),
            count: 0,
            sum_s: 0.0,
            max_s: 0.0,
        }
    }

    fn record(&mut self, latency_s: f64) {
        self.histogram_ms.record(latency_s * 1e3);
        self.count += 1;
        self.sum_s += latency_s;
        self.max_s = self.max_s.max(latency_s);
    }

    fn stats(&self) -> LatencyStats {
        if self.count == 0 {
            return LatencyStats::empty();
        }
        LatencyStats {
            count: self.count,
            mean_ms: self.sum_s / self.count as f64 * 1e3,
            p50_ms: self.histogram_ms.quantile(0.50),
            p95_ms: self.histogram_ms.quantile(0.95),
            p99_ms: self.histogram_ms.quantile(0.99),
            max_ms: self.max_s * 1e3,
        }
    }
}

/// The run's latency store, chosen by [`StatsMode`]: every sample (exact
/// percentiles, memory linear in completions) or constant-memory streaming
/// summaries.
#[derive(Debug, Clone)]
enum LatencyAccum {
    Exact(Vec<Vec<f64>>),
    Streaming(Vec<StreamingLatency>),
}

/// The mutable state of one simulation run.
struct Run<'a, R: Recorder> {
    sim: &'a ServingSimulator,
    traffic: &'a TrafficSpec,
    scenario: &'a Scenario,
    recorder: &'a mut R,
    /// Per-model histogram keys, composed once per run (empty when the
    /// recorder is disabled, so the hot path never formats strings).
    latency_keys: Vec<String>,
    rng: StdRng,
    events: EventQueue<Event>,
    chips: Vec<ChipState>,
    router: Router,
    open_source: Option<OpenLoopSource>,
    /// Closed loop with a positive mean think time: its distribution.
    think: Option<Exp>,
    horizon_s: f64,
    now_s: f64,
    // Measurement accumulators.
    offered: u64,
    offered_per_model: Vec<u64>,
    latencies: LatencyAccum,
    issued_per_model: Vec<u64>,
    energy_per_model_mj: Vec<f64>,
    queue_area: f64,
    last_event_s: f64,
    max_queue_depth: u64,
    shed: u64,
    outages: u64,
    stragglers: u64,
    recoveries: u64,
}

impl<'a, R: Recorder> Run<'a, R> {
    fn new(
        sim: &'a ServingSimulator,
        traffic: &'a TrafficSpec,
        scenario: &'a Scenario,
        recorder: &'a mut R,
    ) -> Self {
        let models = sim.chip_profiles[0].len();
        let latency_keys = if recorder.enabled() {
            sim.chip_profiles[0]
                .iter()
                .map(|p| format!("sim.latency_ms.{}", p.name))
                .collect()
        } else {
            Vec::new()
        };
        let latencies = match scenario.stats {
            StatsMode::Exact => LatencyAccum::Exact(vec![Vec::new(); models]),
            StatsMode::Streaming => LatencyAccum::Streaming(vec![StreamingLatency::new(); models]),
        };
        Self {
            sim,
            traffic,
            scenario,
            recorder,
            latency_keys,
            rng: StdRng::seed_from_u64(sim.config.seed),
            events: EventQueue::new(),
            chips: vec![ChipState::default(); sim.config.chips],
            router: Router::new(models),
            open_source: OpenLoopSource::new(traffic.process),
            think: match traffic.process {
                ArrivalProcess::ClosedLoop { think_time_s, .. } if think_time_s > 0.0 => {
                    Some(Exp::new(1.0 / think_time_s))
                }
                _ => None,
            },
            horizon_s: sim.config.duration_s,
            now_s: 0.0,
            offered: 0,
            offered_per_model: vec![0; models],
            latencies,
            issued_per_model: vec![0; models],
            energy_per_model_mj: vec![0.0; models],
            queue_area: 0.0,
            last_event_s: 0.0,
            max_queue_depth: 0,
            shed: 0,
            outages: 0,
            stragglers: 0,
            recoveries: 0,
        }
    }

    // lint:hot the event loop: every simulated event dispatches through here
    fn execute(mut self) -> SimReport {
        self.seed_arrivals();
        self.seed_faults();
        while let Some((t, event)) = self.events.pop() {
            if t > self.horizon_s {
                break;
            }
            self.advance_clock(t);
            self.recorder.counter_add(event_key(&event), 1);
            match event {
                Event::Arrival(request) => self.on_arrival(request),
                Event::BatchDeadline { chip, epoch } => self.on_batch_deadline(chip, epoch),
                Event::ChipFree { chip } => {
                    self.chips[chip].wake_pending = false;
                    self.try_issue(chip);
                }
                Event::Completion { chip, request } => self.on_completion(chip, request),
                Event::FaultStart { fault } => self.on_fault_start(fault),
                Event::FaultEnd { fault } => self.on_fault_end(fault),
            }
        }
        self.advance_clock(self.horizon_s);
        // A nonzero count here means some handler computed a NaN/negative
        // timestamp — surfaced as telemetry instead of a mid-run panic.
        let invalid = self.events.invalid_pushes();
        if invalid > 0 {
            self.recorder.counter_add("sim.event.invalid_time", invalid);
        }
        self.report()
    }

    /// Schedules the first arrival(s) of the traffic process.
    fn seed_arrivals(&mut self) {
        // `open_source` is `Some` exactly when the process is open-loop
        // (`OpenLoopSource::new` returns `None` only for closed loop), so
        // dispatching on its presence needs no unreachable arm.
        if let Some(source) = self.open_source.as_mut() {
            let t = source.next_arrival(0.0, &mut self.rng);
            let model = self.traffic.mix.sample(&mut self.rng);
            self.events.push(
                t,
                Event::Arrival(Request {
                    model,
                    arrival_s: t,
                    client: usize::MAX,
                }),
            );
        } else if let ArrivalProcess::ClosedLoop { clients, .. } = self.traffic.process {
            for client in 0..clients {
                let model = self.traffic.mix.sample(&mut self.rng);
                self.events.push(
                    0.0,
                    Event::Arrival(Request {
                        model,
                        arrival_s: 0.0,
                        client,
                    }),
                );
            }
        }
    }

    /// Schedules every scenario fault's start/end pair. Seeded after the
    /// first arrivals so a fault-free scenario consumes the exact event
    /// sequence (and therefore pop order) of a plain run.
    fn seed_faults(&mut self) {
        for (index, fault) in self.scenario.faults.iter().enumerate() {
            self.events
                .push(fault.start_s, Event::FaultStart { fault: index });
            self.events.push(
                fault.start_s + fault.duration_s,
                Event::FaultEnd { fault: index },
            );
        }
    }

    fn on_fault_start(&mut self, index: usize) {
        let fault = self.scenario.faults[index];
        match fault.kind {
            FaultKind::Outage => {
                self.chips[fault.chip].down = true;
                self.outages += 1;
                self.recorder.counter_add("sim.failures.outage", 1);
            }
            FaultKind::Straggler { slowdown_factor } => {
                self.chips[fault.chip].slowdown_factor = slowdown_factor;
                self.stragglers += 1;
                self.recorder.counter_add("sim.failures.straggler", 1);
            }
        }
        // One span per fault window, full extent, on the chip's track.
        self.recorder.span(
            fault.chip as u32,
            fault.kind.label(),
            "fault",
            fault.start_s,
            fault.start_s + fault.duration_s,
        );
    }

    fn on_fault_end(&mut self, index: usize) {
        let fault = self.scenario.faults[index];
        match fault.kind {
            FaultKind::Outage => self.chips[fault.chip].down = false,
            FaultKind::Straggler { .. } => self.chips[fault.chip].slowdown_factor = 1.0,
        }
        self.recoveries += 1;
        self.recorder.counter_add("sim.failures.recovered", 1);
        // Work piled up during the window; start draining it now.
        self.try_issue(fault.chip);
    }

    /// Integrates the queue-depth curve up to `t` and moves the clock.
    fn advance_clock(&mut self, t: f64) {
        let depth: usize = self.chips.iter().map(ChipState::queued).sum();
        self.queue_area += depth as f64 * (t - self.last_event_s);
        self.last_event_s = t;
        self.now_s = t;
    }

    fn on_arrival(&mut self, request: Request) {
        self.offered += 1;
        self.offered_per_model[request.model] += 1;

        // Open loop: schedule the successor before dispatching, so the RNG
        // consumption order is independent of fleet state.
        if let Some(source) = self.open_source.as_mut() {
            let t = source.next_arrival(self.now_s, &mut self.rng);
            let model = self.traffic.mix.sample(&mut self.rng);
            if t <= self.horizon_s {
                self.events.push(
                    t,
                    Event::Arrival(Request {
                        model,
                        arrival_s: t,
                        client: usize::MAX,
                    }),
                );
            }
        }

        // Join-the-shortest-queue counts outstanding work, not just waiting
        // requests: a chip whose pipeline slot is occupied ranks behind an
        // idle one even when both have empty queues.
        let chips = &self.chips;
        let now = self.now_s;
        let chip = self.router.route(
            request.model,
            &self.sim.layout,
            self.sim.config.policy,
            |c| chips[c].queued() + usize::from(chips[c].next_free_s > now),
        );
        // SLO-aware load shedding: once the chosen chip's queue hits the
        // admission cap the request is dropped at the door. Shedding happens
        // after routing and after the successor arrival is scheduled, so it
        // never perturbs RNG consumption or routing state.
        if let Some(cap) = self.scenario.admission_cap {
            if self.chips[chip].queued() >= cap {
                self.shed += 1;
                self.recorder.counter_add("sim.shed", 1);
                return;
            }
        }
        match self.sim.config.policy {
            Policy::Fifo | Policy::ShortestQueue => {
                self.chips[chip].run_queue.push_back(request);
                self.note_queue_depth();
                self.try_issue(chip);
            }
            Policy::Batched {
                window_s,
                max_batch,
            } => {
                self.chips[chip].batch.push(request);
                self.note_queue_depth();
                if self.chips[chip].batch.len() >= max_batch {
                    self.flush_batch(chip);
                } else if self.chips[chip].batch.len() == 1 {
                    let epoch = self.chips[chip].batch_epoch;
                    self.events
                        .push(self.now_s + window_s, Event::BatchDeadline { chip, epoch });
                }
            }
        }
    }

    fn on_batch_deadline(&mut self, chip: usize, epoch: u64) {
        // A stale deadline from a batch that already flushed on size.
        if self.chips[chip].batch_epoch != epoch || self.chips[chip].batch.is_empty() {
            return;
        }
        self.flush_batch(chip);
    }

    /// Moves a chip's pending batch into its run queue and starts issuing.
    fn flush_batch(&mut self, chip: usize) {
        let state = &mut self.chips[chip];
        state.batch_epoch += 1;
        let batch = std::mem::take(&mut state.batch);
        state.run_queue.extend(batch);
        self.try_issue(chip);
    }

    /// Issues queued requests into the chip's pipeline while it has free
    /// slots; schedules a wake-up at the next free slot otherwise.
    // lint:hot issue loop: drains the run queue on every chip wake-up
    fn try_issue(&mut self, chip: usize) {
        loop {
            let state = &mut self.chips[chip];
            // A downed chip holds its queue in place until recovery
            // (on_fault_end re-enters here).
            if state.down || state.run_queue.is_empty() {
                return;
            }
            if state.next_free_s > self.now_s {
                if !state.wake_pending {
                    state.wake_pending = true;
                    self.events
                        .push(state.next_free_s, Event::ChipFree { chip });
                }
                return;
            }
            // Inside a straggler window every service time stretches by the
            // slowdown factor (exactly 1.0 otherwise, so the multiplication
            // is bit-transparent in a fault-free run).
            let slowdown = state.slowdown_factor;
            // The emptiness check at loop entry makes `None` impossible, and
            // the let-else keeps that edge total rather than panicking.
            let Some(request) = state.run_queue.pop_front() else {
                return;
            };
            let profile = &self.sim.chip_profiles[chip][request.model];
            let interval_s = profile.initiation_interval_s * slowdown;
            let latency_s = profile.latency_s * slowdown;
            state.next_free_s = self.now_s + interval_s;
            state.busy_s += interval_s;
            state.issued += 1;
            state.energy_mj += profile.energy_mj;
            self.issued_per_model[request.model] += 1;
            self.energy_per_model_mj[request.model] += profile.energy_mj;
            // One busy span per issued request: track = chip, simulated
            // seconds from issue to pipeline exit.
            self.recorder.counter_add("sim.issued", 1);
            self.recorder.span(
                chip as u32,
                &profile.name,
                "serve",
                self.now_s,
                self.now_s + latency_s,
            );
            self.events
                .push(self.now_s + latency_s, Event::Completion { chip, request });
        }
    }

    fn on_completion(&mut self, _chip: usize, request: Request) {
        let latency_s = self.now_s - request.arrival_s;
        match &mut self.latencies {
            LatencyAccum::Exact(per_model) => per_model[request.model].push(latency_s),
            LatencyAccum::Streaming(per_model) => per_model[request.model].record(latency_s),
        }
        if self.recorder.enabled() {
            self.recorder
                .histogram_record(&self.latency_keys[request.model], latency_s * 1e3);
        }

        // Closed loop: the client thinks, then issues its next request.
        if request.client != usize::MAX {
            let think = self.think.map_or(0.0, |think| think.sample(&mut self.rng));
            let t = self.now_s + think;
            if t <= self.horizon_s {
                let model = self.traffic.mix.sample(&mut self.rng);
                self.events.push(
                    t,
                    Event::Arrival(Request {
                        model,
                        arrival_s: t,
                        client: request.client,
                    }),
                );
            }
        }
    }

    fn note_queue_depth(&mut self) {
        let depth: usize = self.chips.iter().map(ChipState::queued).sum();
        self.max_queue_depth = self.max_queue_depth.max(depth as u64);
        self.recorder
            .gauge_max("sim.queue.depth_peak", depth as f64);
    }

    fn report(mut self) -> SimReport {
        let horizon = self.horizon_s;
        // Per-model and fleet-wide latency summaries; their counts are the
        // completed requests. The exact arm reproduces the pre-streaming
        // reports bit for bit.
        let (per_model_latency, latency) = match &mut self.latencies {
            LatencyAccum::Exact(latencies_per_model) => exact_latency_stats(latencies_per_model),
            LatencyAccum::Streaming(streams) => {
                let mut merged = StreamingLatency::new();
                let per_model = streams
                    .iter()
                    .map(|stream| {
                        // Every per-model stream is built with the same
                        // default log scale, so the merge cannot fail on
                        // mismatched edges; if it ever did, only the
                        // fleet-wide quantile bound would degrade — not
                        // worth a mid-report panic.
                        let _ = merged.histogram_ms.merge(&stream.histogram_ms);
                        merged.count += stream.count;
                        merged.sum_s += stream.sum_s;
                        merged.max_s = merged.max_s.max(stream.max_s);
                        stream.stats()
                    })
                    .collect();
                (per_model, merged.stats())
            }
        };
        let completed = latency.count;
        let profiles = self.sim.chip_profiles.first().into_iter().flatten();
        let per_model: Vec<ModelStats> = profiles
            .zip(&self.offered_per_model)
            .zip(self.energy_per_model_mj.iter().zip(&self.issued_per_model))
            .zip(per_model_latency)
            .map(
                |(((profile, &offered), (&energy_mj, &issued)), latency)| ModelStats {
                    name: profile.name.clone(),
                    offered,
                    completed: latency.count,
                    latency,
                    // Per-model energy divided by requests actually issued:
                    // in a heterogeneous fleet per-request energy depends on
                    // the serving chip (equal to the single profile value in
                    // a homogeneous fleet, and consistent with the
                    // fleet-level energy_mj_per_request).
                    energy_mj_per_request: if issued > 0 {
                        energy_mj / issued as f64
                    } else {
                        0.0
                    },
                },
            )
            .collect();
        let chips: Vec<ChipStats> = self
            .chips
            .iter()
            .map(|c| ChipStats {
                utilization: (c.busy_s / horizon).min(1.0),
                issued: c.issued,
                energy_mj: c.energy_mj,
            })
            .collect();
        let total_energy_mj: f64 = chips.iter().map(|c| c.energy_mj).sum();
        let backlog = self.offered - completed - self.shed;
        SimReport {
            duration_s: horizon,
            offered: self.offered,
            completed,
            backlog,
            shed: self.shed,
            throughput_rps: completed as f64 / horizon,
            latency,
            per_model,
            chips,
            mean_queue_depth: self.queue_area / horizon,
            max_queue_depth: self.max_queue_depth,
            outages: self.outages,
            stragglers: self.stragglers,
            recoveries: self.recoveries,
            total_energy_mj,
            energy_mj_per_request: if completed > 0 {
                total_energy_mj / completed as f64
            } else {
                0.0
            },
        }
    }
}

/// Stable telemetry key for one event type (the `sim.event.*` counters of
/// [`ServingSimulator::run_scenario_recorded`]).
fn event_key(event: &Event) -> &'static str {
    match event {
        Event::Arrival(_) => "sim.event.arrival",
        Event::BatchDeadline { .. } => "sim.event.batch_deadline",
        Event::ChipFree { .. } => "sim.event.chip_free",
        Event::Completion { .. } => "sim.event.completion",
        Event::FaultStart { .. } => "sim.event.fault_start",
        Event::FaultEnd { .. } => "sim.event.fault_end",
    }
}

/// Batch-evaluation entry point for design-space exploration (`timely-dse`):
/// simulates a uniform mix of `models` on a fleet of `chip_config.chips`
/// replicated chips under open-loop Poisson traffic at `load` × the fleet's
/// mix capacity, for approximately `requests` arrivals, and returns the run's
/// [`SimReport`].
///
/// This profiles each model on one chip of `chip_config` (as
/// [`ModelProfile::for_model`] does) and hands the profiles to
/// [`serving_check_profiles`], which sizes and runs the simulation.
///
/// # Errors
///
/// Propagates profiling errors (invalid configuration, a model too large for
/// one chip), and returns [`EvalError::Unsupported`] when `models` is empty,
/// when `load` is not a positive finite number, when `requests` is not a
/// finite number of at least 1, or when the simulator rejects the derived
/// traffic.
pub fn serving_check(
    models: &[Model],
    chip_config: &TimelyConfig,
    load: f64,
    requests: f64,
    seed: u64,
) -> Result<SimReport, EvalError> {
    // Reject bad inputs before profiling, which is the expensive part.
    check_serving_inputs(models.len(), load, requests)?;
    let per_chip = TimelyAccelerator::new(TimelyConfig {
        chips: 1,
        ..chip_config.clone()
    });
    let profiles = models
        .iter()
        .map(|model| ModelProfile::for_backend(model, &per_chip))
        .collect::<Result<Vec<_>, _>>()?;
    serving_check_profiles(profiles, chip_config.chips, load, requests, seed)
}

/// The sizing-and-run half of [`serving_check`], for callers that already
/// hold each model's per-chip TIMELY profile: simulates a uniform mix over
/// `profiles` on `chips` replicated chips (at least one) under open-loop
/// Poisson traffic at `load` × the fleet's mix capacity, for approximately
/// `requests` arrivals.
///
/// The fleet's mix capacity is conservatively taken as the slowest model's
/// per-chip rate times the chip count, so `load < 1` keeps every model's
/// share below saturation. Runs are fully deterministic in `seed`, and the
/// report's latencies and completion count depend on the profiles only
/// through each model's initiation interval and latency (energy feeds only
/// the energy accounting). That is what lets the explorer reuse one run for
/// every design point with the same fleet size and per-chip service times.
///
/// # Errors
///
/// Returns [`EvalError::Unsupported`] when `profiles` is empty, when `load`
/// is not a positive finite number, when `requests` is not a finite number
/// of at least 1, or when the simulator rejects the derived traffic.
pub fn serving_check_profiles(
    profiles: Vec<ModelProfile>,
    chips: usize,
    load: f64,
    requests: f64,
    seed: u64,
) -> Result<SimReport, EvalError> {
    check_serving_inputs(profiles.len(), load, requests)?;
    let chips = chips.max(1);
    let models = profiles.len();
    let max_latency = profiles.iter().map(|p| p.latency_s).fold(0.0, f64::max);
    let mut sim = ServingSimulator::from_chip_profiles(
        vec![profiles; chips],
        SimConfig {
            seed,
            // Placeholder horizon; replaced below once capacity is known.
            duration_s: 1.0,
            chips,
            policy: Policy::ShortestQueue,
            sharding: Sharding::Replicate,
        },
        BackendId::Timely,
    )?;
    let capacity = (0..models)
        .map(|m| sim.fleet_capacity_rps(m))
        .fold(f64::INFINITY, f64::min);
    let rate = load * capacity;
    // Keep the horizon well above the unqueued latency so in-flight
    // censoring at the horizon stays negligible.
    sim.config.duration_s = (requests / rate).max(20.0 * max_latency);
    let traffic = TrafficSpec {
        process: ArrivalProcess::Poisson { rate },
        mix: ModelMix::uniform(models),
    };
    // The fallible run keeps this entry point (the explorer's serving
    // objective) panic-free: a malformed derived rate surfaces as an
    // evaluation error, not a crash mid-sweep.
    sim.run_scenario_recorded(&traffic, &Scenario::default(), &mut NoopRecorder)
        .map_err(|err| EvalError::Unsupported {
            backend: BackendId::Timely,
            reason: format!("serving simulation rejected its inputs: {err}"),
        })
}

/// The input checks shared by [`serving_check`] and
/// [`serving_check_profiles`].
fn check_serving_inputs(models: usize, load: f64, requests: f64) -> Result<(), EvalError> {
    let reason = if models == 0 {
        "serving check needs at least one model".to_string()
    } else if !(load > 0.0 && load.is_finite()) {
        format!("serving load must be positive and finite, got {load}")
    } else if !(requests >= 1.0 && requests.is_finite()) {
        format!("serving requests must be finite and >= 1, got {requests}")
    } else {
        return Ok(());
    };
    Err(EvalError::Unsupported {
        backend: BackendId::Timely,
        reason,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use timely_nn::zoo;

    fn profile_cnn_1() -> ModelProfile {
        ModelProfile::for_model(&zoo::cnn_1(), &TimelyConfig::paper_default()).unwrap()
    }

    fn small_fleet(chips: usize, policy: Policy, duration_s: f64) -> ServingSimulator {
        ServingSimulator::new(
            &[zoo::cnn_1()],
            &TimelyConfig::paper_default(),
            SimConfig {
                seed: 42,
                duration_s,
                chips,
                policy,
                sharding: Sharding::Replicate,
            },
        )
        .expect("CNN-1 fits on one chip")
    }

    #[test]
    fn profiles_match_the_analytical_schedule() {
        let sim = small_fleet(1, Policy::Fifo, 1.0);
        let profile = &sim.profiles()[0];
        let mut cfg = TimelyConfig::paper_default();
        cfg.chips = 1;
        let report = timely_core::ThroughputReport::for_model(&zoo::cnn_1(), &cfg).unwrap();
        assert!(
            (profile.capacity_rps() - report.inferences_per_second).abs()
                / report.inferences_per_second
                < 1e-9
        );
        assert!(profile.latency_s >= profile.initiation_interval_s);
        assert!(profile.energy_mj > 0.0);
    }

    #[test]
    fn low_load_latency_is_the_unqueued_latency() {
        let profile = profile_cnn_1();
        let rate = 0.05 * profile.capacity_rps();
        let duration = 500.0 / rate; // ~500 arrivals
        let sim = small_fleet(1, Policy::Fifo, duration);
        let report = sim
            .run_scenario_recorded(
                &TrafficSpec::poisson(rate, 0),
                &Scenario::default(),
                &mut NoopRecorder,
            )
            .unwrap();
        assert!(report.completed > 100, "completed {}", report.completed);
        let expected_ms = profile.latency_s * 1e3;
        // At 5% load queueing is negligible: p50 equals the service latency.
        assert!(
            (report.latency.p50_ms - expected_ms).abs() / expected_ms < 0.02,
            "p50 {} vs unqueued {}",
            report.latency.p50_ms,
            expected_ms
        );
        assert!(report.latency.p50_ms <= report.latency.p99_ms);
    }

    #[test]
    fn saturated_closed_loop_throughput_matches_capacity() {
        let profile = profile_cnn_1();
        let duration = 2_000.0 * profile.initiation_interval_s; // ~2000 completions
        let sim = small_fleet(1, Policy::Fifo, duration);
        let report = sim
            .run_scenario_recorded(
                &TrafficSpec {
                    process: ArrivalProcess::ClosedLoop {
                        clients: profile.saturating_clients(),
                        think_time_s: 0.0,
                    },
                    mix: ModelMix::single(0),
                },
                &Scenario::default(),
                &mut NoopRecorder,
            )
            .unwrap();
        let capacity = sim.fleet_capacity_rps(0);
        assert!(
            (report.throughput_rps - capacity).abs() / capacity < 0.05,
            "throughput {} vs capacity {}",
            report.throughput_rps,
            capacity
        );
        assert!(report.mean_utilization() > 0.95);
    }

    #[test]
    fn two_replicated_chips_double_saturated_throughput() {
        let profile = profile_cnn_1();
        let duration = 1_000.0 * profile.initiation_interval_s;
        let clients = profile.saturating_clients() * 2;
        let run = |chips: usize| {
            let sim = small_fleet(chips, Policy::ShortestQueue, duration);
            sim.run_scenario_recorded(
                &TrafficSpec {
                    process: ArrivalProcess::ClosedLoop {
                        clients,
                        think_time_s: 0.0,
                    },
                    mix: ModelMix::single(0),
                },
                &Scenario::default(),
                &mut NoopRecorder,
            )
            .unwrap()
            .throughput_rps
        };
        let one = run(1);
        let two = run(2);
        assert!((two / one - 2.0).abs() < 0.1, "scaling {}", two / one);
    }

    #[test]
    fn overload_builds_backlog_and_inflates_tail_latency() {
        let profile = profile_cnn_1();
        let duration = 1_000.0 * profile.initiation_interval_s;
        let sim = small_fleet(1, Policy::Fifo, duration);
        let capacity = sim.fleet_capacity_rps(0);
        let light = sim
            .run_scenario_recorded(
                &TrafficSpec::poisson(0.2 * capacity, 0),
                &Scenario::default(),
                &mut NoopRecorder,
            )
            .unwrap();
        let heavy = sim
            .run_scenario_recorded(
                &TrafficSpec::poisson(3.0 * capacity, 0),
                &Scenario::default(),
                &mut NoopRecorder,
            )
            .unwrap();
        assert!(heavy.backlog > light.backlog);
        assert!(heavy.latency.p99_ms > light.latency.p99_ms);
        assert!(heavy.mean_queue_depth > light.mean_queue_depth);
        assert!(heavy.max_queue_depth >= heavy.mean_queue_depth as u64);
    }

    #[test]
    fn batching_adds_at_most_the_window_to_waiting() {
        let profile = profile_cnn_1();
        let window_s = 50.0 * profile.initiation_interval_s;
        let rate = 0.5 * profile.capacity_rps();
        let duration = 500.0 / rate;
        let sim = small_fleet(
            1,
            Policy::Batched {
                window_s,
                max_batch: 4,
            },
            duration,
        );
        let report = sim
            .run_scenario_recorded(
                &TrafficSpec::poisson(rate, 0),
                &Scenario::default(),
                &mut NoopRecorder,
            )
            .unwrap();
        assert!(report.completed > 100);
        // Batched requests wait in the window on top of service latency, so
        // the median sits at or above the unqueued latency.
        let unqueued_ms = profile.latency_s * 1e3;
        assert!(report.latency.p50_ms >= unqueued_ms);
        assert!(report.latency.max_ms >= report.latency.p99_ms);
        // Accounting identity: everything offered either completed or is
        // still in the system at the horizon.
        assert_eq!(report.offered, report.completed + report.backlog);
    }

    #[test]
    fn partition_sends_each_model_to_its_home_chip() {
        let sim = ServingSimulator::new(
            &[zoo::cnn_1(), zoo::mlp_l()],
            &TimelyConfig::paper_default(),
            SimConfig {
                seed: 7,
                duration_s: 0.05,
                chips: 2,
                policy: Policy::Fifo,
                sharding: Sharding::Partition,
            },
        )
        .unwrap();
        let report = sim
            .run_scenario_recorded(
                &TrafficSpec {
                    process: ArrivalProcess::Poisson { rate: 2000.0 },
                    mix: ModelMix::uniform(2),
                },
                &Scenario::default(),
                &mut NoopRecorder,
            )
            .unwrap();
        // Both chips saw work, and issue counts equal per-model completions
        // plus whatever is still in flight.
        assert!(report.chips[0].issued > 0);
        assert!(report.chips[1].issued > 0);
        assert_eq!(report.per_model.len(), 2);
    }

    #[test]
    fn same_seed_reproduces_the_exact_report() {
        let profile = profile_cnn_1();
        let cap = profile.capacity_rps();
        let duration = 500.0 / cap;
        let sim = small_fleet(2, Policy::ShortestQueue, duration);
        let traffic = TrafficSpec {
            process: ArrivalProcess::Bursty {
                base_rate: 0.3 * cap,
                burst_rate: 3.0 * cap,
                mean_burst_s: 20.0 * profile.initiation_interval_s,
                mean_quiet_s: 50.0 * profile.initiation_interval_s,
            },
            mix: ModelMix::single(0),
        };
        let a = sim
            .run_scenario_recorded(&traffic, &Scenario::default(), &mut NoopRecorder)
            .unwrap();
        let b = sim
            .run_scenario_recorded(&traffic, &Scenario::default(), &mut NoopRecorder)
            .unwrap();
        assert_eq!(a, b);
        assert!(a.completed > 0);
    }

    #[test]
    fn different_seeds_differ() {
        let profile = profile_cnn_1();
        let rate = 0.5 * profile.capacity_rps();
        let mut sim = small_fleet(1, Policy::Fifo, 500.0 / rate);
        let traffic = TrafficSpec::poisson(rate, 0);
        let a = sim
            .run_scenario_recorded(&traffic, &Scenario::default(), &mut NoopRecorder)
            .unwrap();
        sim.config.seed = 43;
        let b = sim
            .run_scenario_recorded(&traffic, &Scenario::default(), &mut NoopRecorder)
            .unwrap();
        assert_ne!(a.latency, b.latency);
    }

    #[test]
    fn energy_accounting_is_per_completed_request() {
        let profile = profile_cnn_1();
        let rate = 0.3 * profile.capacity_rps();
        let sim = small_fleet(1, Policy::Fifo, 500.0 / rate);
        let report = sim
            .run_scenario_recorded(
                &TrafficSpec::poisson(rate, 0),
                &Scenario::default(),
                &mut NoopRecorder,
            )
            .unwrap();
        let per_req = sim.profiles()[0].energy_mj;
        // The fleet's total energy counts *issued* requests; per-request
        // energy divides by completions, so it is >= the profile value.
        assert!(report.energy_mj_per_request >= per_req * 0.999);
        let issued: u64 = report.chips.iter().map(|c| c.issued).sum();
        assert!((report.total_energy_mj - issued as f64 * per_req).abs() < 1e-9 * issued as f64);
    }

    #[test]
    fn serving_check_is_deterministic_and_stays_below_saturation() {
        let models = [zoo::cnn_1(), zoo::mlp_l()];
        let cfg = TimelyConfig::paper_default();
        let a = serving_check(&models, &cfg, 0.3, 200.0, 9).unwrap();
        let b = serving_check(&models, &cfg, 0.3, 200.0, 9).unwrap();
        assert_eq!(a, b);
        assert!(a.completed > 100);
        // At 30% of the slowest model's capacity nothing piles up.
        assert!(a.backlog < a.offered / 10);
        assert!(a.latency.p99_ms > 0.0);
    }

    #[test]
    fn heterogeneous_fleet_mixes_backend_physics() {
        // Chip 0 is a full paper-default TIMELY chip, chip 1 a half-size
        // variant: a heterogeneous pool whose chips have different service
        // rates for the same model.
        let fast = TimelyAccelerator::new(TimelyConfig {
            chips: 1,
            ..TimelyConfig::paper_default()
        });
        let slow = TimelyAccelerator::new(TimelyConfig {
            chips: 1,
            subchips_per_chip: 53,
            ..TimelyConfig::paper_default()
        });
        let model = zoo::vgg_d();
        let sim = ServingSimulator::heterogeneous(
            std::slice::from_ref(&model),
            &[&fast, &slow],
            SimConfig {
                seed: 3,
                duration_s: 1.0,
                chips: 99, // overridden by the backend list
                policy: Policy::ShortestQueue,
                sharding: Sharding::Replicate,
            },
        )
        .unwrap();
        assert_eq!(sim.layout().chips(), 2);
        let cap_fast = sim.profile(0, 0).capacity_rps();
        let cap_slow = sim.profile(1, 0).capacity_rps();
        assert!(cap_fast > cap_slow, "{cap_fast} vs {cap_slow}");
        assert!(
            (sim.fleet_capacity_rps(0) - (cap_fast + cap_slow)).abs() / cap_fast < 1e-12,
            "fleet capacity sums per-chip rates"
        );
        // The mixed fleet still runs deterministically and serves traffic.
        let traffic = TrafficSpec::poisson(0.6 * sim.fleet_capacity_rps(0), 0);
        let a = sim
            .run_scenario_recorded(&traffic, &Scenario::default(), &mut NoopRecorder)
            .unwrap();
        let b = sim
            .run_scenario_recorded(&traffic, &Scenario::default(), &mut NoopRecorder)
            .unwrap();
        assert_eq!(a, b);
        assert!(a.completed > 0);
        assert!(a.chips[0].issued > 0 && a.chips[1].issued > 0);
        // Per-model energy is issue-weighted, so for a single-model fleet it
        // must agree with the fleet-level energy accounting even though the
        // two chips have different per-request energies.
        let issued: u64 = a.chips.iter().map(|c| c.issued).sum();
        assert!(
            (a.per_model[0].energy_mj_per_request - a.total_energy_mj / issued as f64).abs() < 1e-9
        );
    }

    #[test]
    fn recorded_telemetry_agrees_with_the_report() {
        let profile = profile_cnn_1();
        let rate = 0.7 * profile.capacity_rps();
        let sim = small_fleet(2, Policy::ShortestQueue, 300.0 / rate);
        let traffic = TrafficSpec::poisson(rate, 0);
        let mut recorder = timely_obs::TraceRecorder::new();
        let report = sim
            .run_scenario_recorded(&traffic, &Scenario::default(), &mut recorder)
            .unwrap();
        assert_eq!(
            report,
            sim.run_scenario_recorded(&traffic, &Scenario::default(), &mut NoopRecorder)
                .unwrap(),
            "recording never perturbs a run"
        );
        let metrics = recorder.metrics();
        // Counters tie out against the report's own accounting.
        assert_eq!(metrics.counter("sim.event.arrival"), report.offered);
        assert_eq!(metrics.counter("sim.event.completion"), report.completed);
        let issued: u64 = report.chips.iter().map(|c| c.issued).sum();
        assert_eq!(metrics.counter("sim.issued"), issued);
        // The queue-depth high-water gauge is the report's max depth.
        assert_eq!(
            metrics.gauge("sim.queue.depth_peak"),
            Some(report.max_queue_depth as f64)
        );
        // Per-model latency histograms hold one sample per completion.
        let hist = metrics
            .histogram("sim.latency_ms.CNN-1")
            .expect("latency histogram recorded");
        assert_eq!(hist.count(), report.completed);
        assert!((hist.mean() - report.latency.mean_ms).abs() / report.latency.mean_ms < 1e-9);
        // One busy span per issued request, on per-chip tracks.
        assert_eq!(recorder.spans().len() as u64, issued);
        assert!(recorder.spans().iter().all(|s| s.end_ts > s.start_ts));
        assert!(recorder.spans().iter().any(|s| s.track == 1));
    }

    #[test]
    fn trace_export_is_byte_identical_across_runs() {
        let profile = profile_cnn_1();
        let rate = 0.5 * profile.capacity_rps();
        let sim = small_fleet(2, Policy::ShortestQueue, 200.0 / rate);
        let traffic = TrafficSpec::poisson(rate, 0);
        let export = || {
            let mut recorder = timely_obs::TraceRecorder::new();
            sim.run_scenario_recorded(&traffic, &Scenario::default(), &mut recorder)
                .unwrap();
            timely_obs::ChromeTrace::from_recorder(&recorder, 1e6).to_json()
        };
        let a = export();
        let b = export();
        assert_eq!(a, b);
        assert!(a.starts_with('['));
        let parsed = timely_obs::ChromeTrace::from_json(&a).expect("export parses back");
        assert!(!parsed.events.is_empty());
    }

    #[test]
    fn serving_check_rejects_hostile_inputs_without_unwinding() {
        let cfg = TimelyConfig::paper_default();
        let models = [zoo::cnn_1()];
        let cases: [(&str, &[Model], f64, f64); 8] = [
            ("zero load", &models, 0.0, 200.0),
            ("negative load", &models, -1.0, 200.0),
            ("NaN load", &models, f64::NAN, 200.0),
            ("infinite load", &models, f64::INFINITY, 200.0),
            ("zero requests", &models, 0.5, 0.0),
            ("NaN requests", &models, 0.5, f64::NAN),
            ("infinite requests", &models, 0.5, f64::INFINITY),
            ("no models", &[], 0.5, 200.0),
        ];
        for (label, models, load, requests) in cases {
            let profiles: Vec<_> = models
                .iter()
                .map(|model| ModelProfile::for_model(model, &cfg).unwrap())
                .collect();
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                [
                    serving_check(models, &cfg, load, requests, 1),
                    serving_check_profiles(profiles, 1, load, requests, 1),
                ]
            }));
            let results = outcome.unwrap_or_else(|_| panic!("{label}: a serving check unwound"));
            for result in results {
                assert!(
                    matches!(result, Err(EvalError::Unsupported { .. })),
                    "{label}: {result:?}"
                );
            }
        }
    }

    #[test]
    fn simulator_constructors_reject_hostile_inputs_without_unwinding() {
        let cfg = TimelyConfig::paper_default();
        let models = [zoo::cnn_1()];
        let sim_config = |chips: usize, duration_s: f64| SimConfig {
            chips,
            duration_s,
            ..SimConfig::default()
        };
        let cases: [(&str, &[Model], SimConfig); 5] = [
            ("zero chips", &models, sim_config(0, 1.0)),
            ("no models", &[], sim_config(1, 1.0)),
            ("NaN duration", &models, sim_config(1, f64::NAN)),
            ("zero duration", &models, sim_config(1, 0.0)),
            ("infinite duration", &models, sim_config(1, f64::INFINITY)),
        ];
        let backend = TimelyAccelerator::new(cfg.clone());
        for (label, models, config) in cases {
            // A heterogeneous fleet's size is its backend list: zero chips
            // is the empty list.
            let fleet: &[&dyn Backend] = if config.chips == 0 { &[] } else { &[&backend] };
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                [
                    ServingSimulator::new(models, &cfg, config),
                    ServingSimulator::for_backend(models, &backend, config),
                    ServingSimulator::heterogeneous(models, fleet, config),
                ]
            }));
            let results = outcome.unwrap_or_else(|_| panic!("{label}: a constructor unwound"));
            for result in results {
                assert!(
                    matches!(
                        result,
                        Err(EvalError::Unsupported {
                            backend: BackendId::Timely,
                            ..
                        })
                    ),
                    "{label}: {result:?}"
                );
            }
        }
    }

    #[test]
    fn runs_reject_hostile_traffic_without_unwinding() {
        let sim = small_fleet(1, Policy::Fifo, 1e-4);
        let subnormal = 1e-310;
        let bursty = |mean_burst_s: f64, mean_quiet_s: f64| ArrivalProcess::Bursty {
            base_rate: 1e3,
            burst_rate: 1e6,
            mean_burst_s,
            mean_quiet_s,
        };
        let closed = |clients: usize, think_time_s: f64| ArrivalProcess::ClosedLoop {
            clients,
            think_time_s,
        };
        let cases = [
            (
                "NaN Poisson rate",
                ArrivalProcess::Poisson { rate: f64::NAN },
            ),
            ("zero Poisson rate", ArrivalProcess::Poisson { rate: 0.0 }),
            ("negative burst sojourn", bursty(-1.0, 1e-3)),
            ("subnormal burst sojourn", bursty(subnormal, 1e-3)),
            ("subnormal quiet sojourn", bursty(1e-3, subnormal)),
            ("no clients", closed(0, 0.0)),
            ("negative think time", closed(4, -1.0)),
            ("subnormal think time", closed(4, subnormal)),
            (
                "smallest subnormal think time",
                closed(4, f64::from_bits(1)),
            ),
        ];
        for (label, process) in cases {
            let traffic = TrafficSpec {
                process,
                mix: ModelMix::single(0),
            };
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                sim.run_scenario_recorded(&traffic, &Scenario::default(), &mut NoopRecorder)
            }));
            let result = outcome.unwrap_or_else(|_| panic!("{label}: the run unwound"));
            assert!(
                matches!(result, Err(SimError::InvalidTraffic(_))),
                "{label}: {result:?}"
            );
        }
    }

    #[test]
    fn serving_check_propagates_model_too_large() {
        let tiny = TimelyConfig {
            subchips_per_chip: 1,
            ..TimelyConfig::paper_default()
        };
        assert!(serving_check(&[zoo::vgg_d()], &tiny, 0.5, 50.0, 1).is_err());
    }
}
