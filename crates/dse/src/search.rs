//! Search strategies and the explorer driving them.
//!
//! Three deterministic strategies cover the usual exploration regimes:
//!
//! * [`Strategy::Grid`] — exhaustive enumeration (optionally stride-sampled
//!   down to a budget) for small spaces and regression baselines;
//! * [`Strategy::Random`] — seeded uniform sampling for large spaces;
//! * [`Strategy::HillClimb`] — seeded coordinate-descent restarts that walk
//!   the axis neighborhood toward a scalar figure of merit (the log-product
//!   of the objectives), used to polish the frontier cheaply.
//!
//! All evaluated points accumulate in one pool (deduplicated by
//! [`TimelyConfig::stable_hash`]); the final [`DseReport`] ranks the pool by
//! Pareto dominance and extracts the frontier in a canonical order, so the
//! same strategies over the same space always produce byte-identical
//! reports.

use std::collections::BTreeSet;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use timely_core::{Backend, EvalError, TimelyConfig};
use timely_obs::Recorder;

use crate::evaluate::{
    BoundCheck, EvalStats, Evaluator, Objectives, PointOutcome, PointReport, ReferencePoint,
};
use crate::pareto::{dominance_ranks_flat, dominates, frontier_indices_flat, lex};
use crate::space::{Coords, SearchSpace};

/// A deterministic search strategy over a [`SearchSpace`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Strategy {
    /// Enumerate the grid. When the space is larger than `max_points`, the
    /// budget is spread over the index range (point `⌊i·len/budget⌋` for
    /// each `i < budget`) so the sample spans the whole range without the
    /// residue aliasing a fixed stride would have against an axis radix.
    Grid {
        /// Evaluation budget; `usize::MAX` enumerates everything.
        max_points: usize,
    },
    /// Evaluate `samples` points drawn uniformly (with replacement) from the
    /// space by a seeded RNG. Revisited points cost one memo-cache hit.
    Random {
        /// Number of draws.
        samples: usize,
        /// RNG seed.
        seed: u64,
    },
    /// Coordinate-descent hill-climbing: from `starts` seeded random starting
    /// points, repeatedly move to the best improving axis-neighbor (±1 along
    /// one axis) until a local optimum or `max_steps` moves.
    HillClimb {
        /// Number of random restarts.
        starts: usize,
        /// Maximum moves per restart.
        max_steps: usize,
        /// RNG seed.
        seed: u64,
    },
}

impl Strategy {
    /// A short deterministic label for telemetry span names, e.g.
    /// `grid/full`, `grid/64`, `random/200`, `hill-climb/4x16`.
    pub fn label(&self) -> String {
        match *self {
            Strategy::Grid { max_points } if max_points == usize::MAX => "grid/full".to_string(),
            Strategy::Grid { max_points } => format!("grid/{max_points}"),
            Strategy::Random { samples, .. } => format!("random/{samples}"),
            Strategy::HillClimb {
                starts, max_steps, ..
            } => format!("hill-climb/{starts}x{max_steps}"),
        }
    }
}

/// The outcome of checking a configuration against a frontier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FrontierVerdict {
    /// The configuration itself is on the Pareto frontier.
    OnFrontier,
    /// The configuration is feasible but dominated; the payload is the
    /// `stable_hash` of a frontier point that dominates it.
    DominatedBy(u64),
}

/// How a cross-architecture reference point relates to the searched
/// frontier, compared on the architecture-neutral {energy, latency, area}
/// axes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ReferenceVerdict {
    /// A searched frontier point dominates the reference on all three axes;
    /// the payload is that point's `stable_hash`.
    DominatedBy(u64),
    /// No searched frontier point dominates the reference (it trades off
    /// against the frontier — e.g. a tiny-area baseline).
    NonDominated,
}

/// A cross-architecture reference point and its verdict against the
/// searched frontier.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReferenceReport {
    /// The evaluated reference.
    pub point: ReferencePoint,
    /// Its relation to the frontier on {energy, latency, area}.
    pub verdict: ReferenceVerdict,
}

/// How the explorer spent its candidate stream: every candidate offered
/// (seeds and strategy visits alike) is either screened out by an
/// admissible-bound dominance check or passed through to the evaluator, so
/// `screened_out + evaluated == visited` holds by construction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScreenStats {
    /// Candidates offered to the explorer.
    pub visited: usize,
    /// Candidates discarded by bound-based screening without evaluation.
    pub screened_out: usize,
    /// Candidates handed to the evaluator (memo-cache hits included).
    pub evaluated: usize,
}

/// The result of a design-space exploration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DseReport {
    /// Labels of the objective axes, in vector order.
    pub objective_labels: Vec<String>,
    /// Every feasible evaluated point, in canonical order (lexicographic by
    /// objective vector, ties by config hash).
    pub points: Vec<PointReport>,
    /// Indices into [`DseReport::points`] of the Pareto frontier, ascending.
    pub frontier: Vec<usize>,
    /// Non-dominated-sorting rank of each point (0 = frontier).
    pub ranks: Vec<usize>,
    /// Cross-architecture reference points (seeded baselines) and their
    /// verdicts against the frontier, in seed order.
    pub references: Vec<ReferenceReport>,
    /// How the search spent its evaluation budget.
    pub stats: EvalStats,
    /// How the candidate stream split between screening and evaluation.
    pub screening: ScreenStats,
}

impl DseReport {
    /// The frontier's points, in canonical order.
    pub fn frontier_points(&self) -> impl Iterator<Item = &PointReport> {
        self.frontier.iter().map(|&i| &self.points[i])
    }

    /// Whether the point set's objective vectors use the serving axis.
    fn with_serving(&self) -> bool {
        self.objective_labels.len() > 4
    }

    /// Looks up an evaluated point by configuration.
    pub fn find(&self, config: &TimelyConfig) -> Option<&PointReport> {
        let hash = config.stable_hash();
        self.points.iter().find(|p| p.config_hash == hash)
    }

    /// Checks a configuration against the frontier: on it, or dominated by
    /// one of its points. Returns `None` when the configuration was never
    /// (feasibly) evaluated.
    pub fn frontier_verdict(&self, config: &TimelyConfig) -> Option<FrontierVerdict> {
        let target = self.find(config)?;
        let with_serving = self.with_serving();
        if self
            .frontier_points()
            .any(|p| p.config_hash == target.config_hash)
        {
            return Some(FrontierVerdict::OnFrontier);
        }
        let vector = target.objectives.vector(with_serving);
        // A feasible non-frontier point is always dominated by some frontier
        // point (dominance is a finite strict partial order); if that
        // invariant were ever violated, answer None rather than panic — the
        // Backend contract holds for the explorer's public surface too.
        let dominator = self
            .frontier_points()
            .find(|p| dominates(&p.objectives.vector(with_serving), &vector))?;
        Some(FrontierVerdict::DominatedBy(dominator.config_hash))
    }
}

/// Drives strategies over a space, pooling every feasible point.
#[derive(Debug, Clone)]
pub struct Explorer {
    space: SearchSpace,
    evaluator: Evaluator,
    /// Feasible points in first-seen order, deduplicated by config hash.
    pool: Vec<PointReport>,
    /// Config hashes already in the pool (O(log n) dedup).
    pooled: BTreeSet<u64>,
    /// Cross-architecture reference points in seed order, deduplicated by
    /// backend cache key.
    references: Vec<ReferencePoint>,
    /// Whether bound-based screening is enabled (off by default).
    screening: bool,
    /// Candidate-stream accounting.
    screen: ScreenStats,
    /// Objective dimensionality (fixed by the evaluator's serving setting).
    dims: usize,
    /// The incremental Pareto archive of pooled points, as a flat row-major
    /// matrix of `dims`-wide objective vectors. Candidates whose bound
    /// vector is dominated by a row here can never reach the frontier.
    archive: Vec<f64>,
    /// The archive row that dominated the last screened-out candidate:
    /// neighbouring candidates tend to share a dominator, so it is tested
    /// first. Only a hint; rows move as the archive changes.
    last_dominator: usize,
    /// Scratch for bound vectors (reused across candidates).
    bound_buf: Vec<f64>,
    /// Scratch for objective vectors (reused across candidates).
    vector_buf: Vec<f64>,
}

impl Explorer {
    /// Creates an explorer over `space` using `evaluator`.
    ///
    /// # Panics
    ///
    /// Panics if the space is empty.
    pub fn new(space: SearchSpace, evaluator: Evaluator) -> Self {
        assert!(!space.is_empty(), "search space has an empty axis");
        let dims = Objectives::dims(evaluator.serving_enabled());
        Self {
            space,
            evaluator,
            pool: Vec::new(),
            pooled: BTreeSet::new(),
            references: Vec::new(),
            screening: false,
            screen: ScreenStats::default(),
            dims,
            archive: Vec::new(),
            last_dominator: 0,
            bound_buf: Vec::new(),
            vector_buf: Vec::new(),
        }
    }

    /// Enables (or disables) bound-based screening: before evaluating a
    /// candidate, the explorer computes admissible lower bounds on its
    /// objectives ([`Evaluator::screen_bounds`]) and skips the evaluation
    /// outright when an already-pooled point dominates the bound vector.
    ///
    /// Screening never changes the frontier — a point whose *lower bounds*
    /// are dominated is itself dominated — it only skips work that cannot
    /// produce a frontier point. Off by default so small-space studies keep
    /// their exact historical point pools.
    pub fn with_screening(mut self, enabled: bool) -> Self {
        self.screening = enabled;
        self
    }

    /// The space being explored.
    pub fn space(&self) -> &SearchSpace {
        &self.space
    }

    /// The evaluator's budget counters so far.
    pub fn eval_stats(&self) -> EvalStats {
        self.evaluator.stats()
    }

    /// The candidate-stream accounting so far.
    pub fn screen_stats(&self) -> ScreenStats {
        self.screen
    }

    /// Force-evaluates one configuration into the pool (e.g. the paper's
    /// design point, so the frontier always relates to it). Seeds are never
    /// screened.
    pub fn seed_config(&mut self, config: &TimelyConfig) -> PointOutcome {
        self.screen.visited += 1;
        self.screen.evaluated += 1;
        self.evaluate_into_pool(config).1
    }

    /// Evaluates a baseline backend into the report's reference set, so the
    /// cross-architecture {energy, latency, area} frontier relates to it
    /// (e.g. every entry of `timely_baselines::baseline_registry()`).
    ///
    /// # Errors
    ///
    /// Propagates evaluation errors (a workload the backend does not
    /// support); nothing is recorded in that case.
    pub fn seed_reference(&mut self, backend: &dyn Backend) -> Result<ReferencePoint, EvalError> {
        let point = self.evaluator.evaluate_reference(backend)?;
        if !self
            .references
            .iter()
            .any(|r| r.cache_key == point.cache_key)
        {
            self.references.push(point.clone());
        }
        Ok(point)
    }

    /// Runs one strategy to completion.
    pub fn run(&mut self, strategy: &Strategy) {
        match *strategy {
            Strategy::Grid { max_points } => self.run_grid(max_points),
            Strategy::Random { samples, seed } => self.run_random(samples, seed),
            Strategy::HillClimb {
                starts,
                max_steps,
                seed,
            } => self.run_hill_climb(starts, max_steps, seed),
        }
    }

    /// Runs one strategy and records a phase span for it: track 0, category
    /// `dse.strategy`, named by [`Strategy::label`], spanning the strategy's
    /// slice of the candidate stream on the explorer's logical time axis
    /// (cumulative candidates visited).
    pub fn run_recorded<R: Recorder + ?Sized>(&mut self, strategy: &Strategy, recorder: &mut R) {
        let start = self.screen.visited as f64;
        self.run(strategy);
        recorder.span(
            0,
            &strategy.label(),
            "dse.strategy",
            start,
            self.screen.visited as f64,
        );
    }

    /// Promotes the explorer's accounting into `recorder`'s registry under
    /// stable `dse.screen.*` / `dse.eval.*` counter keys. Call once after
    /// the strategies finish; counters are cumulative, so calling it again
    /// would double-count.
    pub fn record_stats<R: Recorder + ?Sized>(&self, recorder: &mut R) {
        let screen = self.screen;
        recorder.counter_add("dse.screen.visited", screen.visited as u64);
        recorder.counter_add("dse.screen.screened_out", screen.screened_out as u64);
        recorder.counter_add("dse.screen.evaluated", screen.evaluated as u64);
        let stats = self.evaluator.stats();
        recorder.counter_add("dse.eval.evaluations", stats.evaluations as u64);
        recorder.counter_add("dse.eval.cache_hits", stats.cache_hits as u64);
        recorder.counter_add("dse.eval.cache_misses", stats.cache_misses() as u64);
        recorder.counter_add("dse.eval.pruned", stats.pruned as u64);
        recorder.counter_add("dse.eval.infeasible", stats.infeasible as u64);
        recorder.counter_add("dse.eval.serving_runs", stats.serving_runs as u64);
        recorder.counter_add("dse.eval.serving_reuses", stats.serving_reuses as u64);
    }

    /// Builds the final report over everything evaluated so far.
    pub fn report(&self) -> DseReport {
        let with_serving = self.dims > 4;
        let dims = self.dims;
        // One flat row-major objective matrix in pool order: no per-point or
        // per-comparison vector allocations.
        let mut flat = Vec::with_capacity(self.pool.len() * dims);
        for point in &self.pool {
            point.objectives.extend_vector(with_serving, &mut flat);
        }
        let row = |i: usize| &flat[i * dims..(i + 1) * dims];
        let mut order: Vec<usize> = (0..self.pool.len()).collect();
        order.sort_by(|&i, &j| {
            lex(row(i), row(j))
                .then_with(|| self.pool[i].config_hash.cmp(&self.pool[j].config_hash))
        });
        let points: Vec<PointReport> = order.iter().map(|&i| self.pool[i].clone()).collect();
        let mut sorted = Vec::with_capacity(flat.len());
        for &i in &order {
            sorted.extend_from_slice(row(i));
        }
        let frontier = frontier_indices_flat(&sorted, dims);
        // Reference verdicts: a reference is dominated when some frontier
        // point beats it on the architecture-neutral {energy, latency, area}
        // sub-vector (the first three objectives).
        let references = self
            .references
            .iter()
            .map(|point| {
                let vector = point.vector();
                let dominator = frontier
                    .iter()
                    .find(|&&i| dominates(&sorted[i * dims..i * dims + 3], &vector));
                ReferenceReport {
                    point: point.clone(),
                    verdict: match dominator {
                        Some(&i) => ReferenceVerdict::DominatedBy(points[i].config_hash),
                        None => ReferenceVerdict::NonDominated,
                    },
                }
            })
            .collect();
        DseReport {
            objective_labels: Objectives::labels(with_serving)
                .into_iter()
                .map(str::to_string)
                .collect(),
            frontier,
            ranks: dominance_ranks_flat(&sorted, dims),
            points,
            references,
            stats: self.evaluator.stats(),
            screening: self.screen,
        }
    }

    /// Offers a configuration to the explorer: screens it when screening is
    /// enabled, otherwise (or when it survives) evaluates it and pools it if
    /// feasible and new. Returns the hill-climb figure of merit (lower is
    /// better; `None` when the point is screened, pruned, or infeasible).
    fn consider(&mut self, config: &TimelyConfig) -> Option<f64> {
        self.screen.visited += 1;
        if self.screening && self.screened_out(config) {
            self.screen.screened_out += 1;
            return None;
        }
        self.screen.evaluated += 1;
        self.evaluate_into_pool(config).0
    }

    /// Whether bound-based screening discards this candidate: either its
    /// bounds prove it can never be feasible, or an already-pooled point
    /// dominates its admissible lower-bound vector (so the true outcome,
    /// componentwise no better than the bounds, would be dominated too).
    fn screened_out(&mut self, config: &TimelyConfig) -> bool {
        match self.evaluator.screen_bounds(config, &mut self.bound_buf) {
            BoundCheck::NeverFeasible => true,
            BoundCheck::Unknown => false,
            BoundCheck::Bounds => {
                // Whether any row dominates does not depend on the order
                // the rows are tested in, so trying the last dominator
                // first is exact.
                let (bounds, dims) = (&self.bound_buf, self.dims);
                let hint = self.last_dominator * dims;
                if self
                    .archive
                    .get(hint..hint + dims)
                    .is_some_and(|point| dominates(point, bounds))
                {
                    return true;
                }
                match self
                    .archive
                    .chunks_exact(dims)
                    .position(|point| dominates(point, bounds))
                {
                    Some(row) => {
                        self.last_dominator = row;
                        true
                    }
                    None => false,
                }
            }
        }
    }

    /// Evaluates a configuration, pooling it if feasible and new.
    fn evaluate_into_pool(&mut self, config: &TimelyConfig) -> (Option<f64>, PointOutcome) {
        let outcome = self.evaluator.evaluate(config);
        let fom = match &outcome {
            PointOutcome::Feasible(report) => {
                report
                    .objectives
                    .write_vector(self.dims > 4, &mut self.vector_buf);
                if self.pooled.insert(report.config_hash) {
                    self.pool.push(report.clone());
                    self.archive_insert();
                }
                Some(figure_of_merit(&self.vector_buf))
            }
            _ => None,
        };
        (fom, outcome)
    }

    /// Inserts `vector_buf` into the incremental Pareto archive, dropping it
    /// if dominated and evicting archive rows it dominates (in place, no
    /// reallocation in the steady state).
    // lint:hot archive maintenance: runs once per feasible candidate
    fn archive_insert(&mut self) {
        let dims = self.dims;
        let vector = &self.vector_buf;
        if self
            .archive
            .chunks_exact(dims)
            .any(|point| dominates(point, vector))
        {
            return;
        }
        let mut keep = 0;
        for i in 0..self.archive.len() / dims {
            let start = i * dims;
            if !dominates(vector, &self.archive[start..start + dims]) {
                if keep != i {
                    self.archive.copy_within(start..start + dims, keep * dims);
                }
                keep += 1;
            }
        }
        self.archive.truncate(keep * dims);
        self.archive.extend_from_slice(vector);
    }

    fn consider_coords(&mut self, coords: &Coords) -> Option<f64> {
        let config = self.space.decode(coords);
        self.consider(&config)
    }

    // lint:hot the grid screen/evaluate loop over the whole design space
    fn run_grid(&mut self, max_points: usize) {
        let len = self.space.len();
        let budget = max_points.clamp(1, len);
        // Spread the budget over the index range as ⌊i·len/budget⌋ rather
        // than a fixed stride: a stride sharing a factor with the
        // fastest-varying axis's radix would always sample the same residue
        // and skip whole axis values (e.g. an even stride over a trailing
        // two-way feature axis would never visit the ablated variant).
        for i in 0..budget {
            let config = self.space.config_at(i * len / budget);
            self.consider(&config);
        }
    }

    // lint:hot the random screen/evaluate loop over sampled candidates
    fn run_random(&mut self, samples: usize, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let len = self.space.len();
        for _ in 0..samples {
            let index = rng.gen_range(0..len);
            let config = self.space.config_at(index);
            self.consider(&config);
        }
    }

    fn run_hill_climb(&mut self, starts: usize, max_steps: usize, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let sizes = self.space.axis_sizes();
        for _ in 0..starts {
            let mut coords: Coords = [0; crate::space::AXES];
            for (axis, slot) in coords.iter_mut().enumerate() {
                *slot = rng.gen_range(0..sizes[axis]);
            }
            // An infeasible start still climbs: any feasible neighbor beats
            // an infinite figure of merit.
            let mut current = self.consider_coords(&coords).unwrap_or(f64::INFINITY);
            for _ in 0..max_steps {
                let mut best: Option<(f64, Coords)> = None;
                for neighbor in self.space.neighbors(&coords) {
                    if let Some(fom) = self.consider_coords(&neighbor) {
                        if fom < best.map_or(f64::INFINITY, |(f, _)| f) {
                            best = Some((fom, neighbor));
                        }
                    }
                }
                match best {
                    Some((fom, next)) if fom < current => {
                        current = fom;
                        coords = next;
                    }
                    _ => break, // local optimum
                }
            }
        }
    }
}

/// The hill-climb scalarization: the sum of the logs of the objectives (the
/// log of their product), which is scale-free across axes with very
/// different units. Non-finite or non-positive objectives yield `INFINITY`
/// (never chosen).
fn figure_of_merit(vector: &[f64]) -> f64 {
    let mut fom = 0.0;
    for &v in vector {
        if !(v > 0.0 && v.is_finite()) {
            return f64::INFINITY;
        }
        fom += v.ln();
    }
    fom
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluate::Evaluator;
    use timely_nn::zoo;

    fn small_space() -> SearchSpace {
        SearchSpace {
            gammas: vec![4, 8, 16],
            subchips_per_chip: vec![53, 106],
            feature_sets: vec![timely_core::Features::all(), timely_core::Features::none()],
            ..SearchSpace::paper_point()
        }
    }

    fn explorer() -> Explorer {
        Explorer::new(small_space(), Evaluator::new(vec![zoo::cnn_1()]))
    }

    #[test]
    fn grid_covers_the_whole_space() {
        let mut ex = explorer();
        ex.run(&Strategy::Grid {
            max_points: usize::MAX,
        });
        let report = ex.report();
        assert_eq!(report.points.len(), 12);
        assert!(!report.frontier.is_empty());
        assert_eq!(report.stats.evaluations, 12);
        assert_eq!(report.stats.pruned, 0);
    }

    #[test]
    fn stride_sampled_grid_respects_the_budget() {
        let mut ex = explorer();
        ex.run(&Strategy::Grid { max_points: 5 });
        let report = ex.report();
        assert!(report.stats.evaluations <= 6);
        assert!(report.stats.evaluations >= 4);
    }

    #[test]
    fn random_revisits_hit_the_cache() {
        let mut ex = explorer();
        ex.run(&Strategy::Random {
            samples: 50,
            seed: 3,
        });
        let stats = ex.report().stats;
        // 50 draws from 12 points must revisit.
        assert!(stats.cache_hits > 0);
        assert_eq!(stats.evaluations + stats.cache_hits, 50);
    }

    #[test]
    fn hill_climb_finds_a_frontier_point() {
        let mut ex = explorer();
        ex.run(&Strategy::HillClimb {
            starts: 3,
            max_steps: 16,
            seed: 11,
        });
        let climbed = ex.report();
        assert!(!climbed.points.is_empty());
        // The best-FoM climbed point survives against the full grid.
        let mut full = explorer();
        full.run(&Strategy::Grid {
            max_points: usize::MAX,
        });
        let full_report = full.report();
        let best_climbed = climbed
            .points
            .iter()
            .map(|p| figure_of_merit(&p.objectives.vector(false)))
            .fold(f64::INFINITY, f64::min);
        let best_full = full_report
            .points
            .iter()
            .map(|p| figure_of_merit(&p.objectives.vector(false)))
            .fold(f64::INFINITY, f64::min);
        assert!(best_climbed <= best_full + 1e-12);
    }

    #[test]
    fn reports_are_deterministic() {
        let run = || {
            let mut ex = explorer();
            ex.run(&Strategy::Random {
                samples: 20,
                seed: 5,
            });
            ex.run(&Strategy::HillClimb {
                starts: 2,
                max_steps: 8,
                seed: 6,
            });
            ex.report()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn seeded_paper_default_gets_a_verdict() {
        let mut ex = explorer();
        let cfg = TimelyConfig::paper_default();
        ex.seed_config(&cfg);
        ex.run(&Strategy::Grid {
            max_points: usize::MAX,
        });
        let report = ex.report();
        assert!(report.frontier_verdict(&cfg).is_some());
        // A config outside the pool has no verdict.
        let outside = TimelyConfig {
            chips: 64,
            ..TimelyConfig::paper_default()
        };
        assert!(report.frontier_verdict(&outside).is_none());
    }

    #[test]
    fn references_get_frontier_verdicts_on_the_neutral_axes() {
        use timely_core::TimelyAccelerator;
        let mut ex = explorer();
        // A 16-bit instance costs more energy and latency at the same area
        // as the searched 8-bit points: dominated on {energy, latency, area}.
        let dominated = TimelyAccelerator::new(TimelyConfig::paper_16bit());
        // A 13-sub-chip instance has far less silicon than anything in the
        // searched space (53/106 sub-chips): non-dominated via the area axis.
        let tiny = TimelyAccelerator::new(TimelyConfig {
            subchips_per_chip: 13,
            ..TimelyConfig::paper_default()
        });
        ex.seed_reference(&dominated).unwrap();
        ex.seed_reference(&tiny).unwrap();
        // Re-seeding the same backend does not duplicate the reference.
        ex.seed_reference(&dominated).unwrap();
        ex.run(&Strategy::Grid {
            max_points: usize::MAX,
        });
        let report = ex.report();
        assert_eq!(report.references.len(), 2);
        assert!(matches!(
            report.references[0].verdict,
            ReferenceVerdict::DominatedBy(_)
        ));
        if let ReferenceVerdict::DominatedBy(hash) = report.references[0].verdict {
            assert!(report.frontier_points().any(|p| p.config_hash == hash));
        }
        assert_eq!(report.references[1].verdict, ReferenceVerdict::NonDominated);
        // References never enter the searched point pool.
        assert!(report
            .points
            .iter()
            .all(|p| p.config.subchips_per_chip != 13));
    }

    #[test]
    fn strategy_labels_are_stable() {
        assert_eq!(
            Strategy::Grid {
                max_points: usize::MAX
            }
            .label(),
            "grid/full"
        );
        assert_eq!(Strategy::Grid { max_points: 64 }.label(), "grid/64");
        assert_eq!(
            Strategy::Random {
                samples: 200,
                seed: 9
            }
            .label(),
            "random/200"
        );
        assert_eq!(
            Strategy::HillClimb {
                starts: 4,
                max_steps: 16,
                seed: 9
            }
            .label(),
            "hill-climb/4x16"
        );
    }

    #[test]
    fn recorded_runs_span_the_candidate_stream_and_promote_stats() {
        let mut ex = explorer();
        let mut recorder = timely_obs::TraceRecorder::new();
        ex.run_recorded(
            &Strategy::Grid {
                max_points: usize::MAX,
            },
            &mut recorder,
        );
        ex.run_recorded(
            &Strategy::Random {
                samples: 20,
                seed: 5,
            },
            &mut recorder,
        );
        ex.record_stats(&mut recorder);
        // One contiguous span per strategy on the logical candidate axis.
        let spans = recorder.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "grid/full");
        assert_eq!(spans[0].cat, "dse.strategy");
        assert_eq!(spans[0].start_ts, 0.0);
        assert_eq!(spans[0].end_ts, 12.0);
        assert_eq!(spans[1].name, "random/20");
        assert_eq!(spans[1].start_ts, 12.0);
        assert_eq!(spans[1].end_ts, 32.0);
        // The promoted counters tie out against the report's accounting.
        let report = ex.report();
        let metrics = recorder.metrics();
        assert_eq!(
            metrics.counter("dse.screen.visited"),
            report.screening.visited as u64
        );
        assert_eq!(
            metrics.counter("dse.screen.evaluated"),
            report.screening.evaluated as u64
        );
        assert_eq!(
            metrics.counter("dse.eval.evaluations"),
            report.stats.evaluations as u64
        );
        assert_eq!(
            metrics.counter("dse.eval.cache_hits"),
            report.stats.cache_hits as u64
        );
        assert_eq!(
            metrics.counter("dse.eval.cache_hits") + metrics.counter("dse.eval.cache_misses"),
            report.stats.lookups() as u64
        );
        // Recording never perturbs the search itself.
        let mut plain = explorer();
        plain.run(&Strategy::Grid {
            max_points: usize::MAX,
        });
        plain.run(&Strategy::Random {
            samples: 20,
            seed: 5,
        });
        assert_eq!(plain.report(), report);
    }

    #[test]
    fn serving_reuse_is_counted_apart_from_cache_hits() {
        let evaluator =
            Evaluator::new(vec![zoo::cnn_1()]).with_serving(crate::ServingCheck::default());
        let mut ex = Explorer::new(small_space(), evaluator);
        ex.run(&Strategy::Grid {
            max_points: usize::MAX,
        });
        let mut recorder = timely_obs::TraceRecorder::new();
        ex.record_stats(&mut recorder);
        let metrics = recorder.metrics();
        let stats = ex.eval_stats();
        // 12 points but only 3 distinct per-chip service times, one per γ:
        // the feature set is energy-only, and CNN-1 already runs at full
        // duplication (one cycle per layer) on 53 sub-chips, so 106 leaves
        // its schedule unchanged.
        assert_eq!(stats.evaluations, 12);
        assert_eq!((stats.serving_runs, stats.serving_reuses), (3, 9));
        assert_eq!(metrics.counter("dse.eval.serving_runs"), 3);
        assert_eq!(metrics.counter("dse.eval.serving_reuses"), 9);
        // A reused serving check is still a fresh point, not a cache hit.
        assert_eq!(stats.cache_hits, 0);
        assert_eq!(stats.lookups(), 12);
    }

    #[test]
    fn frontier_points_do_not_dominate_each_other() {
        let mut ex = explorer();
        ex.run(&Strategy::Grid {
            max_points: usize::MAX,
        });
        let report = ex.report();
        let vectors: Vec<Vec<f64>> = report
            .frontier_points()
            .map(|p| p.objectives.vector(false))
            .collect();
        for (i, a) in vectors.iter().enumerate() {
            for (j, b) in vectors.iter().enumerate() {
                if i != j {
                    assert!(!dominates(a, b), "frontier point {i} dominates {j}");
                }
            }
        }
    }
}
