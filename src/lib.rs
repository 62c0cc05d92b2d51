//! # TIMELY reproduction — facade crate
//!
//! This crate re-exports the public API of the TIMELY (ISCA 2020)
//! reproduction workspace so downstream users can depend on a single crate:
//!
//! * [`nn`] — CNN/DNN model zoo, workload analysis and quantized inference,
//! * [`analog`] — ReRAM crossbars, time-domain interfaces, analog local
//!   buffers, and the component energy/area library,
//! * [`arch`] — the TIMELY architecture simulator (sub-chips, O2IR mapping,
//!   pipelines, energy/area/latency accounting),
//! * [`baselines`] — PRIME, ISAAC, PipeLayer, AtomLayer and Eyeriss-like
//!   reference models, all behind the workspace-wide
//!   [`Backend`](timely_core::Backend) trait with a
//!   [`registry()`](timely_baselines::registry) of every backend,
//! * [`sim`] — a deterministic discrete-event serving simulator (traffic
//!   generation, batching, multi-chip sharding, latency percentiles) layered
//!   on the architecture model,
//! * [`dse`] — a deterministic multi-objective design-space explorer
//!   (declarative search spaces, grid/random/hill-climb strategies,
//!   constraint pruning, memo-cached evaluation, Pareto frontiers),
//! * [`obs`] — observability: deterministic counters/gauges/histograms and
//!   Chrome-trace span export keyed on simulated time, plus a strictly
//!   separated opt-in wall-clock [`Profiler`](timely_obs::Profiler).
//!
//! # Quickstart
//!
//! Every accelerator — TIMELY and all five baselines — implements the
//! unified [`Backend`](timely_core::Backend) trait, and
//! [`registry()`](timely_baselines::registry) returns them all:
//!
//! ```
//! use timely::prelude::*;
//!
//! let model = timely::nn::zoo::vgg_d();
//! // Native TIMELY report, with every architecture detail:
//! let accelerator = TimelyAccelerator::new(TimelyConfig::paper_default());
//! let report = TimelyAccelerator::evaluate(&accelerator, &model)?;
//! assert!(report.energy.total().as_millijoules() > 0.0);
//! // The same chip and every baseline through the Backend trait:
//! for backend in registry() {
//!     let outcome = backend.evaluate(&model)?;
//!     assert!(outcome.energy_millijoules() > 0.0);
//!     assert!(outcome.inferences_per_second() > 0.0);
//! }
//! # Ok::<(), timely::arch::EvalError>(())
//! ```
//!
//! # Offline builds
//!
//! The workspace builds with no network access: every external dependency
//! (`serde`, `rand`, `proptest`) is an API-compatible stub
//! vendored under `vendor/` as a path dependency. Do not add crates.io
//! dependencies; extend the matching stub instead. See the repository
//! `README.md` for the full build/test/bench instructions.

pub use timely_analog as analog;
pub use timely_baselines as baselines;
pub use timely_core as arch;
pub use timely_dse as dse;
pub use timely_nn as nn;
pub use timely_obs as obs;
pub use timely_sim as sim;

/// Commonly used items, importable with `use timely::prelude::*`.
pub mod prelude {
    pub use timely_baselines::{
        baseline_registry, registry, AtomLayerModel, EyerissModel, IsaacModel, PipeLayerModel,
        PrimeModel,
    };
    pub use timely_core::{
        Backend, BackendId, EnergyByCategory, EvalError, EvalOutcome, EvalReport, PeakSpec,
        ServicePhysics, TimelyAccelerator, TimelyConfig,
    };
    pub use timely_dse::{
        Constraints, DseReport, EvalStats, Evaluator, Explorer, ReferenceVerdict, ScreenStats,
        SearchSpace, ServingCheck, Strategy,
    };
    pub use timely_nn::{Model, ModelBuilder};
    pub use timely_obs::{
        ChromeTrace, Histogram, MetricsRegistry, NoopRecorder, Profiler, Recorder, TraceRecorder,
    };
    pub use timely_sim::{
        ArrivalProcess, Fault, FaultKind, ModelMix, Policy, Scenario, ServingSimulator, Sharding,
        SimConfig, SimError, SimReport, StatsMode, TrafficSpec,
    };
}
