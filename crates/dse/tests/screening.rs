//! Property and integration tests for bound-based screening and the
//! incremental (placement-reusing) evaluation path.
//!
//! The two load-bearing claims, each pinned here:
//!
//! * **Screening soundness** — [`Evaluator::screen_bounds`] never returns a
//!   bound above the true objective, so no eventual frontier point can be
//!   screened out, and the screened and unscreened frontiers are identical.
//! * **Incremental equivalence** — evaluating a hill-climb neighbor through
//!   an evaluator with warm placement caches is bit-identical (via the
//!   canonical serde encoding) to a from-scratch evaluation, which itself
//!   matches the `Backend::evaluate` trait path bitwise.
//! * **Serving reuse is invisible** — a p99 answered from an earlier
//!   simulation run with the same inputs equals a direct `serving_check` of
//!   the point bit for bit, and a failed check keeps its error text.
//!
//! Case counts are capped for the single-CPU CI container; override with
//! `PROPTEST_CASES`.

use std::collections::BTreeMap;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use timely_core::{Backend, ScheduleSummary, TimelyAccelerator, TimelyConfig};
use timely_dse::{
    dominates, BoundCheck, Constraints, EvalStats, Evaluator, Explorer, PointOutcome, SearchSpace,
    ServingCheck, Strategy,
};
use timely_nn::{zoo, Model};
use timely_sim::{serving_check, serving_check_profiles, ModelProfile};

/// The constraints of the production study (area cap, accuracy floor).
fn study_constraints(max_latency_ms: Option<f64>) -> Constraints {
    Constraints {
        max_area_mm2: Some(400.0),
        max_noise_sigma_lsb: Some(0.5),
        max_latency_ms,
    }
}

/// The average {energy mJ, latency ms} and the area in mm² of `config` over
/// `models`, computed through the public `Backend::evaluate` trait path —
/// the pre-screening reference implementation the fast path must match
/// bitwise.
fn trait_path_objectives(config: &TimelyConfig, models: &[Model]) -> Option<(f64, f64, f64)> {
    let accelerator = TimelyAccelerator::new(config.clone());
    let mut energy_mj = 0.0;
    let mut latency_ms = 0.0;
    let mut area_mm2 = 0.0;
    for model in models {
        let outcome = Backend::evaluate(&accelerator, model).ok()?;
        energy_mj += outcome.energy_millijoules();
        latency_ms += outcome.physics.single_inference_latency.as_seconds() * 1e3;
        area_mm2 = outcome.area_mm2;
    }
    let count = models.len() as f64;
    Some((energy_mj / count, latency_ms / count, area_mm2))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// For random production-space candidates, `screen_bounds` is sound:
    /// `Bounds` values equal the true objectives bitwise (the TIMELY bounds
    /// are exact on the analytic axes), and `NeverFeasible` candidates are
    /// in fact never feasible. No frontier point can ever be screened out.
    #[test]
    fn screening_bounds_are_admissible(
        index in 0usize..103_680,
        cap_choice in 0usize..3,
    ) {
        let space = SearchSpace::production_space();
        let config = space.config_at(index % space.len());
        let cap = [None, Some(0.5), Some(50.0)][cap_choice];
        let mut eval = Evaluator::new(vec![zoo::cnn_1()])
            .with_constraints(study_constraints(cap));
        let mut bounds = Vec::new();
        let check = eval.screen_bounds(&config, &mut bounds);
        let outcome = eval.evaluate(&config);
        match check {
            BoundCheck::Bounds => {
                // Without a serving check, exact bounds on every axis mean
                // the candidate is feasible and the bounds ARE its vector.
                let report = outcome.report().expect("exact bounds imply feasible");
                let vector = report.objectives.vector(false);
                prop_assert_eq!(bounds.len(), vector.len());
                for (axis, (b, v)) in bounds.iter().zip(&vector).enumerate() {
                    prop_assert!(
                        b <= v,
                        "bound {b} exceeds objective {v} on axis {axis}"
                    );
                    // The TIMELY bounds are exact on every analytic axis.
                    prop_assert_eq!(b.to_bits(), v.to_bits());
                }
            }
            BoundCheck::NeverFeasible => {
                prop_assert!(
                    outcome.report().is_none(),
                    "a NeverFeasible candidate evaluated as feasible"
                );
            }
            BoundCheck::Unknown => {} // no claim
        }
    }

    /// A hill-climb neighbor evaluated through warm placement caches is
    /// byte-identical (canonical serde encoding) to a from-scratch
    /// evaluation, and its energy, latency and area match the
    /// `Backend::evaluate` trait path bitwise.
    #[test]
    fn incremental_evaluation_is_bit_identical(
        index in 0usize..103_680,
        axis in 0usize..timely_dse::AXES,
        step_up in 0usize..2,
    ) {
        let space = SearchSpace::production_space();
        let base_coords = space.coords_at(index % space.len());
        let sizes = space.axis_sizes();
        let mut neighbor = base_coords;
        if step_up == 1 && neighbor[axis] + 1 < sizes[axis] {
            neighbor[axis] += 1;
        } else if neighbor[axis] > 0 {
            neighbor[axis] -= 1;
        }
        let base = space.decode(&base_coords);
        let config = space.decode(&neighbor);
        let models = vec![zoo::cnn_1(), zoo::mlp_l()];

        // Warm path: the base evaluation populates the per-(B, cell-width)
        // placement cache the neighbor then reuses.
        let mut warm = Evaluator::new(models.clone());
        let _ = warm.evaluate(&base);
        let incremental = warm.evaluate(&config);

        // Cold path: a fresh evaluator sees the neighbor first.
        let mut cold = Evaluator::new(models.clone());
        let scratch = cold.evaluate(&config);

        prop_assert_eq!(
            serde::json::to_string(&incremental.report()),
            serde::json::to_string(&scratch.report())
        );
        if let Some(report) = incremental.report() {
            let (energy_mj, latency_ms, area_mm2) = trait_path_objectives(&config, &models)
                .expect("feasible point evaluates through the trait path");
            prop_assert_eq!(
                report.objectives.energy_mj_per_inference.to_bits(),
                energy_mj.to_bits()
            );
            prop_assert_eq!(report.objectives.latency_ms.to_bits(), latency_ms.to_bits());
            prop_assert_eq!(report.objectives.area_mm2.to_bits(), area_mm2.to_bits());
        }
    }
}

/// The γ axis of a [`SearchSpace`] coordinate vector; γ never enters the
/// schedule.
const GAMMA_AXIS: usize = 1;

/// The bit patterns of a bound or objective vector.
fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|x| x.to_bits()).collect()
}

/// The fields the schedule summary reads (placement pair, crossbar budget,
/// input time slices): candidates that agree on them share one of the
/// evaluator's memoized summary rows.
fn schedule_fields(config: &TimelyConfig) -> (usize, usize, (u64, u64)) {
    (
        config.crossbar_size,
        config.cells_per_weight(),
        ScheduleSummary::config_key(config),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// One long-lived evaluator fed a seeded random walk over the
    /// production space screens and evaluates every point bitwise like a
    /// fresh evaluator does. The walk mixes random jumps with single-axis
    /// moves, and every fourth step returns to the latest earlier point on
    /// another schedule key with γ redrawn, so memoized schedule summaries
    /// are reused on the next step (γ and feature-set moves), built for new
    /// keys (every other axis) and reused after other keys came in between
    /// (A → B → A), and layer sums are built lazily along the way.
    #[test]
    fn memoized_evaluation_matches_a_fresh_evaluator(seed in 0u64..u64::MAX) {
        let space = SearchSpace::production_space();
        let sizes = space.axis_sizes();
        let pristine = Evaluator::new(zoo::dse_benchmarks());
        let mut long_lived = pristine.clone();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut coords = space.coords_at(rng.gen_range(0..space.len()));
        let mut history = Vec::new();
        let (mut reuses, mut replacements, mut returns) = (0, 0, 0);
        for step in 0..24 {
            let config = space.decode(&coords);
            let fields = schedule_fields(&config);
            match history.last() {
                Some(&(_, previous)) if previous == fields => reuses += 1,
                Some(_) if history.iter().any(|&(_, seen)| seen == fields) => returns += 1,
                Some(_) => replacements += 1,
                None => {}
            }
            history.push((coords, fields));

            let (mut memo_bounds, mut fresh_bounds) = (Vec::new(), Vec::new());
            let memo_check = long_lived.screen_bounds(&config, &mut memo_bounds);
            let fresh_check = pristine.clone().screen_bounds(&config, &mut fresh_bounds);
            prop_assert_eq!(memo_check, fresh_check);
            prop_assert_eq!(bits(&memo_bounds), bits(&fresh_bounds));

            let memo_outcome = long_lived.evaluate(&config);
            let fresh_outcome = pristine.clone().evaluate(&config);
            prop_assert_eq!(
                serde::json::to_string(&memo_outcome),
                serde::json::to_string(&fresh_outcome)
            );
            prop_assert_eq!(
                memo_outcome.report().map(|r| bits(&r.objectives.vector(false))),
                fresh_outcome.report().map(|r| bits(&r.objectives.vector(false)))
            );

            let earlier = history.iter().rev().find(|&&(_, seen)| seen != fields);
            if let (2, Some(&(earlier, _))) = (step % 4, earlier) {
                coords = earlier;
                coords[GAMMA_AXIS] = rng.gen_range(0..sizes[GAMMA_AXIS]);
            } else if rng.gen_range(0..4) == 0 {
                coords = space.coords_at(rng.gen_range(0..space.len()));
            } else {
                let axis = rng.gen_range(0..timely_dse::AXES);
                coords[axis] = rng.gen_range(0..sizes[axis]);
            }
        }
        prop_assert!(
            reuses > 0 && replacements > 0 && returns > 0,
            "{reuses} reuses, {replacements} replacements, {returns} returns"
        );
    }
}

/// The memo's rows are exact whatever order their keys come back in: every
/// 7th production-space point, screened through one evaluator in grid order
/// and again with γ as the outermost loop (each γ pass returns to the keys
/// of the pass before), gets the same verdict and bound bits both times,
/// and the same as a fresh evaluator gives it.
#[test]
fn screening_order_does_not_change_memoized_bounds() {
    let space = SearchSpace::production_space();
    let pristine = Evaluator::new(zoo::dse_benchmarks());
    let screen = |eval: &mut Evaluator, index: usize| {
        let mut bounds = Vec::new();
        let check = eval.screen_bounds(&space.config_at(index), &mut bounds);
        (check, bits(&bounds))
    };
    // 7 shares no factor with any axis size, so the slice covers every
    // value of every axis.
    let grid_order: Vec<usize> = (0..space.len()).step_by(7).collect();
    let mut gamma_outer = grid_order.clone();
    gamma_outer.sort_by_key(|&index| space.coords_at(index)[GAMMA_AXIS]);

    let mut eval = pristine.clone();
    let grid: BTreeMap<_, _> = grid_order
        .iter()
        .map(|&index| (index, screen(&mut eval, index)))
        .collect();
    let mut eval = pristine.clone();
    for &index in &gamma_outer {
        assert_eq!(screen(&mut eval, index), grid[&index], "point {index}");
    }
    for (&index, memoized) in &grid {
        assert_eq!(
            &screen(&mut pristine.clone(), index),
            memoized,
            "point {index}"
        );
    }
    assert!(grid.values().any(|(check, _)| *check == BoundCheck::Bounds));
    assert!(grid
        .values()
        .any(|(check, _)| *check == BoundCheck::NeverFeasible));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// One long-lived serving evaluator fed a seeded walk over the paper
    /// neighborhood (chips widened to {1, 2}) returns every outcome exactly
    /// as a fresh evaluator does. Every other step flips the feature set, an
    /// axis the schedule never reads, so the walk both reuses stored
    /// simulation results and runs fresh ones.
    #[test]
    fn memoized_serving_matches_a_fresh_evaluator(seed in 0u64..u64::MAX) {
        let space = SearchSpace {
            chips: vec![1, 2],
            ..SearchSpace::paper_neighborhood()
        };
        let sizes = space.axis_sizes();
        let features = timely_dse::AXES - 1;
        let pristine =
            Evaluator::new(zoo::dse_benchmarks()).with_serving(ServingCheck::default());
        let mut long_lived = pristine.clone();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut coords = space.coords_at(rng.gen_range(0..space.len()));
        for step in 0..16 {
            let config = space.decode(&coords);
            let memo_outcome = long_lived.evaluate(&config);
            let fresh_outcome = pristine.clone().evaluate(&config);
            prop_assert_eq!(
                serde::json::to_string(&memo_outcome),
                serde::json::to_string(&fresh_outcome)
            );

            if step % 2 == 0 {
                coords[features] = (coords[features] + 1) % sizes[features];
            } else if rng.gen_range(0..4) == 0 {
                coords = space.coords_at(rng.gen_range(0..space.len()));
            } else {
                let axis = rng.gen_range(0..timely_dse::AXES);
                coords[axis] = rng.gen_range(0..sizes[axis]);
            }
        }
        let stats = long_lived.stats();
        prop_assert!(
            stats.serving_runs > 0 && stats.serving_reuses > 0,
            "{} runs, {} reuses",
            stats.serving_runs,
            stats.serving_reuses
        );
    }
}

/// Evaluates every point of `space` in grid order through one serving
/// evaluator and checks each serving result against a direct
/// `serving_check` of the same configuration: a feasible point's p99 is
/// bitwise equal, and a failed check keeps its error text. Returns the
/// evaluator's counters and the serving-check failure reasons.
fn check_serving_against_direct_runs(
    space: &SearchSpace,
    models: Vec<Model>,
) -> (EvalStats, Vec<String>) {
    let check = ServingCheck::default();
    let mut eval = Evaluator::new(models.clone()).with_serving(check);
    let direct = |config: &TimelyConfig| {
        serving_check(&models, config, check.load, check.requests, check.seed)
    };
    let mut failures = Vec::new();
    for index in 0..space.len() {
        let config = space.config_at(index);
        match eval.evaluate(&config) {
            PointOutcome::Feasible(report) => {
                let p99_ms = direct(&config)
                    .expect("a feasible point's serving check succeeds")
                    .latency
                    .p99_ms;
                assert_eq!(
                    report.objectives.p99_ms.to_bits(),
                    p99_ms.to_bits(),
                    "point {index}: memoized p99 {} vs direct {p99_ms}",
                    report.objectives.p99_ms
                );
            }
            PointOutcome::Infeasible { reason } if reason.starts_with("serving check") => {
                let err = direct(&config).expect_err("the direct check fails too");
                assert_eq!(reason, format!("serving check: {err}"), "point {index}");
                failures.push(reason);
            }
            PointOutcome::Infeasible { .. } | PointOutcome::Pruned { .. } => {}
        }
    }
    (eval.stats(), failures)
}

/// Over the paper neighborhood (one chip), nearly every serving check is
/// answered from an earlier run, and every p99 still equals a direct run.
#[test]
fn serving_p99_matches_a_direct_run_across_the_paper_neighborhood() {
    let (stats, failures) = check_serving_against_direct_runs(
        &SearchSpace::paper_neighborhood(),
        zoo::dse_benchmarks(),
    );
    assert!(failures.is_empty(), "{failures:?}");
    assert!(stats.evaluations > 0);
    assert!(
        stats.serving_reuses > stats.serving_runs,
        "{} runs, {} reuses",
        stats.serving_runs,
        stats.serving_reuses
    );
}

/// With chips in {1, 2, 4}, the memo key comes from per-chip schedule
/// summaries. VGG-D on 13 sub-chips fits a two- or four-chip fleet but not
/// one chip: the evaluator bypasses the memo for those points and reports
/// the direct check's error text.
#[test]
fn serving_p99_matches_a_direct_run_across_fleet_sizes() {
    let space = SearchSpace {
        subchips_per_chip: vec![13, 53],
        chips: vec![1, 2, 4],
        feature_sets: vec![timely_core::Features::all(), timely_core::Features::none()],
        ..SearchSpace::paper_point()
    };
    let (stats, failures) =
        check_serving_against_direct_runs(&space, vec![zoo::cnn_1(), zoo::vgg_d()]);
    // 13 sub-chips x {2, 4} chips x 2 feature sets.
    assert_eq!(failures.len(), 4, "{failures:?}");
    for reason in &failures {
        assert_eq!(
            reason,
            "serving check: TIMELY cannot evaluate this model: \
             model needs 4230 crossbars but only 2496 are available"
        );
    }
    // One run per fleet size on 53 sub-chips, reused by the other feature
    // set, plus the four direct runs that reject VGG-D.
    assert_eq!((stats.serving_runs, stats.serving_reuses), (7, 3));
}

/// A load or request count the simulator rejects makes every point that
/// reaches the serving check infeasible, with the simulator's reason; the
/// evaluator and a grid run over the paper neighborhood never unwind.
#[test]
fn hostile_serving_inputs_make_points_infeasible_without_unwinding() {
    let base = ServingCheck::default();
    let load = |load| ServingCheck { load, ..base };
    let requests = |requests| ServingCheck { requests, ..base };
    for (label, check) in [
        ("load 0", load(0.0)),
        ("load -1", load(-1.0)),
        ("load NaN", load(f64::NAN)),
        ("load inf", load(f64::INFINITY)),
        ("requests 0", requests(0.0)),
        ("requests 0.5", requests(0.5)),
        ("requests NaN", requests(f64::NAN)),
        ("requests inf", requests(f64::INFINITY)),
    ] {
        let run = std::panic::catch_unwind(|| {
            let evaluator = Evaluator::new(vec![zoo::cnn_1()]).with_serving(check);
            let outcome = evaluator.clone().evaluate(&TimelyConfig::paper_default());
            let mut explorer = Explorer::new(SearchSpace::paper_neighborhood(), evaluator);
            explorer.run(&Strategy::Grid {
                max_points: usize::MAX,
            });
            (outcome, explorer.report())
        });
        let Ok((outcome, report)) = run else {
            panic!("{label}: unwound");
        };
        match outcome {
            PointOutcome::Infeasible { reason } => {
                assert!(reason.starts_with("serving check: "), "{label}: {reason}");
            }
            other => panic!("{label}: paper default gave {other:?}"),
        }
        assert!(report.frontier.is_empty(), "{label}: feasible points");
        assert_eq!(report.stats.evaluations, 0, "{label}");
        assert!(report.stats.infeasible > 0, "{label}");
    }
}

/// A serving run gets its per-chip model profiles from the evaluator's
/// cached numbers, not from `Backend::evaluate`. On paper-neighborhood
/// points that pass the study's pre-screens, at one and two chips, they
/// equal `ModelProfile::for_model` bit for bit (name, service times and
/// energy), and the run they drive reports exactly what a direct
/// `serving_check` reports.
#[test]
fn cached_serving_profiles_match_the_trait_path() {
    let space = SearchSpace {
        chips: vec![1, 2],
        ..SearchSpace::paper_neighborhood()
    };
    let models = zoo::dse_benchmarks();
    let check = ServingCheck::default();
    let mut eval = Evaluator::new(models.clone())
        .with_constraints(study_constraints(None))
        .with_serving(check);
    let bits = |p: &ModelProfile| {
        let numbers = [p.initiation_interval_s, p.latency_s, p.energy_mj];
        (p.name.clone(), numbers.map(f64::to_bits))
    };
    let mut checked = [0; 2];
    // Every seventh point: 7 shares no factor with any axis size.
    for index in (0..space.len()).step_by(7) {
        let config = space.config_at(index);
        if eval.evaluate(&config).report().is_none() {
            continue;
        }
        let cached = eval
            .serving_profiles(&config)
            .expect("every model of a feasible neighborhood point fits one chip");
        for (model, profile) in models.iter().zip(&cached) {
            let reference = ModelProfile::for_model(model, &config).expect("profiles");
            assert_eq!(bits(profile), bits(&reference), "point {index}");
        }
        let from_cache =
            serving_check_profiles(cached, config.chips, check.load, check.requests, check.seed);
        let direct = serving_check(&models, &config, check.load, check.requests, check.seed);
        assert_eq!(
            serde::json::to_string(&from_cache.expect("cached run")),
            serde::json::to_string(&direct.expect("direct run")),
            "point {index}"
        );
        checked[config.chips - 1] += 1;
    }
    assert!(checked.iter().all(|&n| n > 10), "{checked:?}");
}

/// With the serving axis enabled, the p99 bound (the smallest single-model
/// inference latency) never exceeds the simulated p99: queueing and service
/// can only add to it.
#[test]
fn p99_bound_never_exceeds_the_true_p99() {
    let mut eval = Evaluator::new(vec![zoo::cnn_1()]).with_serving(ServingCheck::default());
    for config in [
        TimelyConfig::paper_default(),
        TimelyConfig {
            gamma: 4,
            subchips_per_chip: 106,
            ..TimelyConfig::paper_default()
        },
    ] {
        let mut bounds = Vec::new();
        assert_eq!(eval.screen_bounds(&config, &mut bounds), BoundCheck::Bounds);
        assert_eq!(bounds.len(), 5);
        let outcome = eval.evaluate(&config);
        let report = outcome
            .report()
            .expect("paper-neighborhood point is feasible");
        assert!(report.objectives.p99_ms > 0.0, "serving check filled p99");
        assert!(
            bounds[4] <= report.objectives.p99_ms,
            "p99 bound {} exceeds simulated p99 {}",
            bounds[4],
            report.objectives.p99_ms
        );
        // The analytic axes stay exact even with serving enabled.
        let vector = report.objectives.vector(true);
        for axis in 0..4 {
            assert_eq!(bounds[axis].to_bits(), vector[axis].to_bits());
        }
    }
}

/// Screening changes how much work the search does, never what it finds:
/// the screened and unscreened frontiers over the paper neighborhood are
/// identical, a majority of candidates are skipped, and the candidate
/// counters balance.
#[test]
fn screening_preserves_the_frontier_and_skips_work() {
    let run = |screening: bool| {
        let mut explorer = Explorer::new(
            SearchSpace::paper_neighborhood(),
            Evaluator::new(vec![zoo::cnn_1()]).with_constraints(study_constraints(None)),
        )
        .with_screening(screening);
        explorer.seed_config(&TimelyConfig::paper_default());
        explorer.run(&Strategy::Grid {
            max_points: usize::MAX,
        });
        explorer.report()
    };
    let screened = run(true);
    let unscreened = run(false);

    // Identical frontiers, compared by config hash and objective vector.
    let frontier = |report: &timely_dse::DseReport| -> Vec<(u64, Vec<f64>)> {
        report
            .frontier_points()
            .map(|p| (p.config_hash, p.objectives.vector(false)))
            .collect()
    };
    assert_eq!(frontier(&screened), frontier(&unscreened));
    assert!(!screened.frontier.is_empty());

    // Counter invariant and actual savings.
    let stats = screened.screening;
    assert_eq!(stats.screened_out + stats.evaluated, stats.visited);
    assert_eq!(stats.visited, 649); // seed + full grid
    assert!(stats.screened_out > 0, "screening skipped nothing");
    assert!(
        screened.stats.evaluations < unscreened.stats.evaluations,
        "screening did not reduce evaluator work"
    );
    // The unscreened run evaluates everything it visits.
    assert_eq!(unscreened.screening.screened_out, 0);
    assert_eq!(unscreened.screening.evaluated, unscreened.screening.visited);
}

/// Screened-out candidates never include a point the unscreened frontier
/// needs: every pooled unscreened frontier vector survives in the screened
/// pool too (paranoid complement to the frontier-equality check, phrased
/// through dominance directly).
#[test]
fn no_unscreened_frontier_vector_is_dominated_in_the_screened_pool() {
    let space = SearchSpace::paper_neighborhood();
    let mut screened = Explorer::new(
        space.clone(),
        Evaluator::new(vec![zoo::cnn_1()]).with_constraints(study_constraints(None)),
    )
    .with_screening(true);
    screened.run(&Strategy::Grid {
        max_points: usize::MAX,
    });
    let report = screened.report();
    let vectors: Vec<Vec<f64>> = report
        .frontier_points()
        .map(|p| p.objectives.vector(false))
        .collect();
    for (i, a) in vectors.iter().enumerate() {
        for (j, b) in vectors.iter().enumerate() {
            if i != j {
                assert!(!dominates(a, b), "screened frontier {i} dominates {j}");
            }
        }
    }
}

/// Re-running the same strategy over the same space is answered entirely
/// from the memo-cache: the second pass adds lookups but no fresh
/// evaluations, prunes, or infeasibility checks.
#[test]
fn rerunning_a_strategy_is_pure_cache_hits() {
    let space = SearchSpace {
        gammas: vec![4, 8, 16],
        subchips_per_chip: vec![53, 106],
        feature_sets: vec![timely_core::Features::all(), timely_core::Features::none()],
        ..SearchSpace::paper_point()
    };
    let mut explorer = Explorer::new(space, Evaluator::new(vec![zoo::cnn_1()]));
    let grid = Strategy::Grid {
        max_points: usize::MAX,
    };
    explorer.run(&grid);
    let first = explorer.eval_stats();
    assert_eq!(first.cache_hits, 0, "first pass saw a cache hit");
    assert!(first.lookups() > 0);

    explorer.run(&grid);
    let second = explorer.eval_stats();
    // 100% hit rate on the second pass: the hit counter grows by exactly
    // the first pass's lookup count, the miss counters not at all.
    assert_eq!(second.cache_hits - first.cache_hits, first.lookups());
    assert_eq!(second.cache_misses(), first.cache_misses());
    assert_eq!(explorer.screen_stats().visited, 2 * first.lookups());
}
