//! Trait-conformance suite: every backend in `registry()` must honor the
//! `Backend` contract — positive energy/area/latency, deterministic
//! evaluation, structured `Unsupported` answers instead of panics, and
//! serving physics the discrete-event simulator can trust.

use timely_baselines::{registry, registry_with_chips, Backend, BackendId, EvalError, IsaacModel};
use timely_core::{TimelyAccelerator, TimelyConfig};
use timely_nn::zoo;
use timely_obs::NoopRecorder;
use timely_sim::{
    ArrivalProcess, ModelMix, ModelProfile, Scenario, ServingSimulator, SimConfig, TrafficSpec,
};

#[test]
fn every_backend_reports_positive_energy_area_and_latency_on_cnn_1() {
    let model = zoo::cnn_1();
    for backend in registry() {
        let outcome = backend
            .evaluate(&model)
            .unwrap_or_else(|e| panic!("{} failed on CNN-1: {e}", backend.name()));
        assert_eq!(outcome.backend, backend.id());
        assert_eq!(outcome.model_name, model.name());
        assert!(outcome.total_macs > 0, "{}", backend.name());
        assert!(
            outcome.energy.total().as_femtojoules() > 0.0,
            "{}: energy must be strictly positive",
            backend.name()
        );
        assert!(
            outcome.area_mm2 > 0.0,
            "{}: area must be strictly positive",
            backend.name()
        );
        let physics = &outcome.physics;
        assert!(
            physics.single_inference_latency.as_seconds() > 0.0,
            "{}: latency must be strictly positive",
            backend.name()
        );
        assert!(
            physics.initiation_interval.as_seconds() > 0.0,
            "{}: initiation interval must be strictly positive",
            backend.name()
        );
        // Pipeline sanity: no stage outlasts the initiation interval, and a
        // request cannot leave before the pipeline can accept the next one.
        let max_stage = physics
            .stage_latencies
            .iter()
            .map(|t| t.as_seconds())
            .fold(0.0f64, f64::max);
        assert!(!physics.stage_latencies.is_empty(), "{}", backend.name());
        assert!(
            max_stage <= physics.initiation_interval.as_seconds() * (1.0 + 1e-12),
            "{}: a stage outlasts the initiation interval",
            backend.name()
        );
        assert!(
            physics.initiation_interval.as_seconds()
                <= physics.single_inference_latency.as_seconds() * (1.0 + 1e-12),
            "{}: initiation interval exceeds the end-to-end latency",
            backend.name()
        );
        assert!(outcome.peak.tops_per_watt > 0.0, "{}", backend.name());
        assert!(outcome.tops_per_watt() > 0.0, "{}", backend.name());
    }
}

#[test]
fn evaluation_is_deterministic_across_calls() {
    let model = zoo::cnn_1();
    for backend in registry() {
        let a = backend.evaluate(&model).unwrap();
        let b = backend.evaluate(&model).unwrap();
        assert_eq!(a, b, "{} is not deterministic", backend.name());
    }
}

#[test]
fn every_backend_answers_every_zoo_model_without_panicking() {
    // Ok or a structured error — never a panic, and a model that does not
    // fit must come back as Unsupported, not as an architecture failure.
    for backend in registry() {
        for model in zoo::all_models() {
            match backend.evaluate(&model) {
                Ok(outcome) => assert!(outcome.energy.total().as_femtojoules() > 0.0),
                Err(EvalError::Unsupported { backend: id, .. }) => {
                    assert_eq!(id, backend.id(), "{}", backend.name());
                }
                Err(other) => panic!(
                    "{} on {}: expected Ok or Unsupported, got {other}",
                    backend.name(),
                    model.name()
                ),
            }
        }
    }
}

#[test]
fn no_backend_runs_faster_than_its_peak_density() {
    // Physical ceiling: realised MACs per second (one op = one MAC, as in
    // `PeakSpec`) over the instance's whole area can never exceed the peak
    // density, TOPs/(s·mm²). On ISAAC's suite at 16 chips the registry's
    // 8-bit TIMELY realises 0.53–0.89 of it (`paper_16bit` 0.71–0.96) and
    // ISAAC 0.20–0.35, so a throughput bug that crosses peak fails here.
    // The tolerance covers floating-point rounding only.
    const TOLERANCE: f64 = 1e-9;
    for chips in [1, 16] {
        for backend in registry_with_chips(chips).expect("1 and 16 chips are valid") {
            let mut evaluated = 0;
            for model in zoo::all_models() {
                let Ok(outcome) = backend.evaluate(&model) else {
                    continue;
                };
                evaluated += 1;
                let realised_tops_per_mm2 = outcome.total_macs as f64
                    / outcome.physics.initiation_interval.as_seconds()
                    / 1e12
                    / outcome.area_mm2;
                let utilisation = realised_tops_per_mm2 / outcome.peak.tops_per_mm2;
                assert!(
                    utilisation <= 1.0 + TOLERANCE,
                    "{} with {chips} chips on {}: {realised_tops_per_mm2} TOPs/mm² \
                     is {utilisation}x its peak {}",
                    backend.name(),
                    model.name(),
                    outcome.peak.tops_per_mm2
                );
            }
            assert!(
                evaluated > 0,
                "{} with {chips} chips evaluated nothing",
                backend.name()
            );
        }
    }
}

#[test]
fn oversized_models_are_unsupported_not_panics() {
    // A single-chip ISAAC cannot hold MSRA-3's ~270 M weights.
    match IsaacModel::default().evaluate(&zoo::msra_3()) {
        Err(EvalError::Unsupported { backend, .. }) => assert_eq!(backend, BackendId::Isaac),
        other => panic!("expected Unsupported, got {other:?}"),
    }
    // Nor can a one-sub-chip TIMELY hold VGG-D.
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
fn cache_keys_are_pairwise_distinct_across_the_registry() {
    let backends = registry();
    for (i, a) in backends.iter().enumerate() {
        for b in &backends[i + 1..] {
            assert_ne!(
                a.cache_key(),
                b.cache_key(),
                "{} and {} share a cache key",
                a.name(),
                b.name()
            );
        }
    }
}

/// The serving-simulator cross-check the TIMELY backend already has, run on
/// a baseline: at 5 % load on one ISAAC chip, the simulated median latency
/// matches the backend's analytical single-inference latency within 10 %.
#[test]
fn isaac_low_load_latency_matches_the_analytical_profile() {
    let isaac = IsaacModel::default();
    let model = zoo::cnn_1();
    let profile = ModelProfile::for_backend(&model, &isaac).unwrap();
    let rate = 0.05 * profile.capacity_rps();
    let sim = ServingSimulator::for_backend(
        std::slice::from_ref(&model),
        &isaac,
        SimConfig {
            seed: 17,
            duration_s: 400.0 / rate, // ~400 arrivals
            chips: 1,
            policy: timely_sim::Policy::Fifo,
            sharding: timely_sim::Sharding::Replicate,
        },
    )
    .unwrap();
    let report = sim
        .run_scenario_recorded(
            &TrafficSpec {
                process: ArrivalProcess::Poisson { rate },
                mix: ModelMix::single(0),
            },
            &Scenario::default(),
            &mut NoopRecorder,
        )
        .unwrap();
    assert!(report.completed > 100, "completed {}", report.completed);
    let expected_ms = profile.latency_s * 1e3;
    let drift = (report.latency.p50_ms - expected_ms).abs() / expected_ms;
    assert!(
        drift < 0.10,
        "ISAAC low-load p50 {} ms vs analytical {} ms (drift {:.3})",
        report.latency.p50_ms,
        expected_ms,
        drift
    );
}
