//! `timely-dse` — a deterministic multi-objective design-space explorer
//! over [`TimelyConfig`](timely_core::TimelyConfig).
//!
//! The paper's headline numbers come from one hand-picked design point
//! (B = 256, γ = 8, 16×12 sub-chips, 4-bit cells). This crate answers the
//! surrounding question — *which other design points are worth building?* —
//! by searching a declarative [`SearchSpace`], evaluating each candidate
//! against a workload set through the analytical `timely-core` model
//! (optionally adding a `timely-sim` serving check), and ranking the
//! survivors by Pareto dominance over {energy/inference, latency, area,
//! accuracy proxy, p99 under load}.
//!
//! The pipeline, in crate-module order:
//!
//! * [`space`] — the declarative search space (per-axis choice lists,
//!   mixed-radix point indexing, hill-climb neighborhoods);
//! * [`evaluate`] — per-point evaluation with constraint pruning
//!   ([`TimelyConfig::validate`](timely_core::TimelyConfig::validate) plus
//!   area/accuracy caps, checked *before* any model evaluation) and a
//!   memo-cache keyed on
//!   [`TimelyConfig::stable_hash`](timely_core::TimelyConfig::stable_hash);
//! * [`search`] — grid / seeded-random / coordinate-descent hill-climb
//!   strategies feeding one point pool;
//! * [`pareto`] — dominance, frontier extraction, and NSGA-style dominance
//!   ranking over raw objective vectors.
//!
//! Everything is deterministic: the same space, workloads, and strategy
//! seeds produce a byte-identical [`DseReport`], which is what lets the
//! `dse_study` bench binary be pinned by a golden-file test.
//!
//! # Example
//!
//! ```
//! use timely_core::TimelyConfig;
//! use timely_dse::{Evaluator, Explorer, SearchSpace, Strategy};
//! use timely_nn::zoo;
//!
//! // Sweep γ and the sub-chip count around the paper's design point.
//! let space = SearchSpace {
//!     gammas: vec![4, 8, 16],
//!     subchips_per_chip: vec![53, 106, 212],
//!     ..SearchSpace::paper_point()
//! };
//! let mut explorer = Explorer::new(space, Evaluator::new(vec![zoo::cnn_1()]));
//! explorer.seed_config(&TimelyConfig::paper_default());
//! explorer.run(&Strategy::Grid { max_points: usize::MAX });
//! let report = explorer.report();
//! assert!(!report.frontier.is_empty());
//! // The paper's design point is on the frontier or dominated by it.
//! assert!(report.frontier_verdict(&TimelyConfig::paper_default()).is_some());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod evaluate;
pub mod pareto;
pub mod search;
pub mod space;

pub use evaluate::{
    BoundCheck, Constraints, EvalStats, Evaluator, Objectives, PointOutcome, PointReport,
    ReferencePoint, ServingCheck,
};
pub use pareto::{dominance_ranks_flat, dominates, frontier_indices_flat};
pub use search::{
    DseReport, Explorer, FrontierVerdict, ReferenceReport, ReferenceVerdict, ScreenStats, Strategy,
};
pub use space::{Coords, SearchSpace, AXES};
