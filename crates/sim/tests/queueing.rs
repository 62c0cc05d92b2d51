//! Queueing-theory pin: one chip serving CNN-1 under FIFO with Poisson
//! arrivals is an M/D/1 queue. The pipeline accepts a request every
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

use timely_core::TimelyConfig;
use timely_nn::zoo;
use timely_obs::Recorder;
use timely_sim::{Policy, Scenario, ServingSimulator, Sharding, SimConfig, TrafficSpec};

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
