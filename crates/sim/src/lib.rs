//! `timely-sim` — a deterministic discrete-event serving simulator for the
//! TIMELY reproduction.
//!
//! The closed-form models in `timely-core` answer *steady-state* questions
//! (Table IV peak numbers, Fig. 8 throughput). This crate answers *serving*
//! questions: what latency distribution a fleet of TIMELY chips delivers
//! under bursty traffic, how batching interacts with the §IV-E layer
//! pipeline, and how many chips a model zoo needs to hold a p99 target.
//!
//! Six modules compose the simulator:
//!
//! * [`event`] — the deterministic event-queue core: a binary heap ordered
//!   by `(time, insertion order)` packed into one integer key, so same-time
//!   events pop FIFO and no wall clock is consulted anywhere; a popped root
//!   stays in place until the next push overwrites it with one sift-down;
//! * [`traffic`] — arrival processes (open-loop Poisson, bursty
//!   Markov-modulated, closed-loop clients) and weighted model-zoo mixes;
//! * [`scheduler`] — dispatch policies (FIFO, batching windows,
//!   join-the-shortest-queue) and multi-chip sharding (replicate/partition);
//! * [`faults`] — serving scenarios: deterministic chip outage / straggler
//!   injection, SLO-aware load shedding, and the exact-vs-streaming
//!   statistics mode ([`StatsMode`]) that keeps 10^7+-request runs in
//!   constant memory;
//! * [`stats`] — latency percentiles (p50/p95/p99), utilization, queue
//!   depths, shed/failure accounting, and energy per request, all
//!   serde-serializable;
//! * [`error`] — structured [`SimError`]s for the panic-free API surface.
//!
//! The physics comes from the unified [`Backend`](timely_core::Backend)
//! trait: each model's initiation interval, single-inference latency, and
//! energy per inference are taken from the backend's
//! [`EvalOutcome`](timely_core::EvalOutcome), so at low load the simulator
//! reproduces the closed-form numbers and under load it adds the queueing
//! behavior the formulas cannot express. Any backend works — TIMELY, the
//! baselines, or a chip-by-chip mixture of architectures
//! ([`ServingSimulator::heterogeneous`]).
//!
//! # Example
//!
//! ```
//! use timely_core::TimelyConfig;
//! use timely_nn::zoo;
//! use timely_obs::NoopRecorder;
//! use timely_sim::{
//!     ArrivalProcess, ModelMix, Policy, Scenario, ServingSimulator, Sharding, SimConfig,
//!     TrafficSpec,
//! };
//!
//! let sim = ServingSimulator::new(
//!     &[zoo::cnn_1()],
//!     &TimelyConfig::paper_default(),
//!     SimConfig {
//!         seed: 1,
//!         duration_s: 0.01,
//!         chips: 2,
//!         policy: Policy::ShortestQueue,
//!         sharding: Sharding::Replicate,
//!     },
//! )?;
//! let rate = 0.5 * sim.fleet_capacity_rps(0);
//! let traffic = TrafficSpec {
//!     process: ArrivalProcess::Poisson { rate },
//!     mix: ModelMix::single(0),
//! };
//! // The one entry point: a default scenario is a plain run, and the no-op
//! // recorder compiles the telemetry away.
//! let report = sim.run_scenario_recorded(&traffic, &Scenario::default(), &mut NoopRecorder)?;
//! assert!(report.latency.p50_ms <= report.latency.p99_ms);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod engine;
pub mod error;
pub mod event;
pub mod faults;
pub mod scheduler;
pub mod stats;
pub mod traffic;

pub use engine::{
    serving_check, serving_check_profiles, ModelProfile, ServingSimulator, SimConfig,
};
pub use error::SimError;
pub use event::EventQueue;
pub use faults::{Fault, FaultKind, Scenario, StatsMode};
pub use scheduler::{FleetLayout, Policy, Sharding};
pub use stats::{ChipStats, LatencyStats, ModelStats, SimReport};
pub use traffic::{ArrivalProcess, ModelMix, TrafficSpec};
