//! Queueing-theory pins.
//!
//! One chip serving CNN-1 under FIFO with Poisson arrivals is an M/D/1
//! queue. The pipeline accepts a request every
//! initiation interval `D`, so a request waits `issue - arrival` for that
//! deterministic server and then spends the fixed pipeline latency in
//! flight. The simulated mean wait must match Pollaczek–Khinchine,
//! `W = ρD / (2(1 − ρ))`.
//!
//! Tolerance (fixed before the test was first run): after dropping the first
//! tenth of the samples as warm-up, the waits are cut into 20 consecutive
//! batches; the mean of the batch means must lie within 4 standard errors
//! of `W`, and the standard error must be at most 6.25% of `W`, so the run
//! is long enough to resolve a 25% error at every load.
//!
//! A closed loop of `N` clients that think for a mean `Z` between a response
//! and their next request obeys the interactive response-time law
//! `R = N/X − Z`, whatever the service discipline: `X` is the throughput and
//! `R` the mean response time.
//!
//! Tolerance (fixed before the test was first run): the law is exact for
//! cycles that start and end inside the horizon, and two edge effects
//! separate it from a finite run with `C` completions. Each client's cycle in
//! progress at the horizon counts in `N·T` but not in `C`, and the mean cycle
//! is `N/X`; two cycles per client are allowed, `2N·(N/X)/C`. The law uses
//! the configured `Z`, while the run draws about `C` exponential think times
//! whose mean has standard error `Z/√C`; four standard errors are allowed.
//! Each run is sized for at least 20,000 completions.

use timely_core::TimelyConfig;
use timely_nn::zoo;
use timely_obs::{NoopRecorder, Recorder};
use timely_sim::{
    ArrivalProcess, ModelMix, Policy, Scenario, ServingSimulator, Sharding, SimConfig, TrafficSpec,
};

/// Collects each completed request's queueing wait, in completion order.
struct WaitRecorder {
    latency_s: f64,
    waits_s: Vec<f64>,
}

impl Recorder for WaitRecorder {
    fn enabled(&self) -> bool {
        true
    }

    /// The engine records one end-to-end latency (ms) per completion; the
    /// wait is that minus the unqueued pipeline latency.
    fn histogram_record(&mut self, _key: &str, value_ms: f64) {
        self.waits_s.push(value_ms * 1e-3 - self.latency_s);
    }
}

const BATCHES: usize = 20;

/// `(mean of batch means, standard error)` over `samples` after warm-up.
fn batch_means(samples: &[f64]) -> (f64, f64) {
    let kept = &samples[samples.len() / 10..];
    let size = kept.len() / BATCHES;
    let means: Vec<f64> = kept
        .chunks_exact(size)
        .take(BATCHES)
        .map(|batch| batch.iter().sum::<f64>() / size as f64)
        .collect();
    let n = means.len() as f64;
    let mean = means.iter().sum::<f64>() / n;
    let variance = means.iter().map(|m| (m - mean).powi(2)).sum::<f64>() / (n - 1.0);
    (mean, (variance / n).sqrt())
}

#[test]
fn md1_mean_wait_matches_pollaczek_khinchine() {
    // Requests per load: heavier loads decorrelate more slowly, so they
    // need longer runs for the same relative standard error.
    for (rho, requests) in [
        (0.3, 20_000.0),
        (0.5, 20_000.0),
        (0.7, 40_000.0),
        (0.9, 120_000.0),
    ] {
        let mut sim = ServingSimulator::new(
            &[zoo::cnn_1()],
            &TimelyConfig::paper_default(),
            SimConfig {
                seed: 7,
                duration_s: 1.0,
                chips: 1,
                policy: Policy::Fifo,
                sharding: Sharding::Replicate,
            },
        )
        .expect("CNN-1 fits on one chip");
        let profile = sim.profile(0, 0).clone();
        let service_s = profile.initiation_interval_s;
        let rate = rho / service_s;
        sim.set_duration(requests / rate);
        let mut recorder = WaitRecorder {
            latency_s: profile.latency_s,
            waits_s: Vec::new(),
        };
        sim.run_scenario_recorded(
            &TrafficSpec::poisson(rate, 0),
            &Scenario::default(),
            &mut recorder,
        )
        .expect("valid traffic");

        let expected = rho * service_s / (2.0 * (1.0 - rho));
        let (mean, se) = batch_means(&recorder.waits_s);
        assert!(
            se <= 0.0625 * expected,
            "rho {rho}: standard error {se:e} s is too large for W = {expected:e} s"
        );
        assert!(
            (mean - expected).abs() <= 4.0 * se,
            "rho {rho}: mean wait {mean:e} s vs Pollaczek-Khinchine {expected:e} s (se {se:e} s)"
        );
    }
}

#[test]
fn closed_loop_response_time_matches_the_interactive_law() {
    for chips in [1, 2] {
        let mut sim = ServingSimulator::new(
            &[zoo::cnn_1()],
            &TimelyConfig::paper_default(),
            SimConfig {
                seed: 11,
                duration_s: 1.0,
                chips,
                policy: Policy::Fifo,
                sharding: Sharding::Replicate,
            },
        )
        .expect("CNN-1 fits on one chip");
        let profile = sim.profile(0, 0).clone();
        let think_s = profile.latency_s;
        let capacity_rps = chips as f64 / profile.initiation_interval_s;
        // Clients that keep the fleet busy with no queueing: N* = X_max (L + Z).
        let saturation = capacity_rps * (profile.latency_s + think_s);
        for load in [0.25, 1.0, 4.0] {
            let clients = (load * saturation).round().max(1.0) as usize;
            let expected_rps = capacity_rps.min(clients as f64 / (profile.latency_s + think_s));
            sim.set_duration(22_000.0 / expected_rps);
            let traffic = TrafficSpec {
                process: ArrivalProcess::ClosedLoop {
                    clients,
                    think_time_s: think_s,
                },
                mix: ModelMix::single(0),
            };
            let report = sim
                .run_scenario_recorded(&traffic, &Scenario::default(), &mut NoopRecorder)
                .expect("valid traffic");

            let completed = report.completed as f64;
            assert!(
                completed >= 20_000.0,
                "{chips} chips, {clients} clients: {completed}"
            );
            let throughput_rps = completed / report.duration_s;
            let cycle_s = clients as f64 / throughput_rps;
            let response_s = report.latency.mean_ms * 1e-3;
            let law_s = cycle_s - think_s;
            let tolerance_s =
                2.0 * clients as f64 * cycle_s / completed + 4.0 * think_s / completed.sqrt();
            assert!(
                (response_s - law_s).abs() <= tolerance_s,
                "{chips} chips, {clients} clients: R {response_s:e} s vs N/X - Z {law_s:e} s \
                 (tolerance {tolerance_s:e} s)"
            );
        }
    }
}
