//! Per-layer metrics of the traced run.
//!
//! Two sources: the engines' own runs ([`EngineSamples`], timed by the
//! benchmark around each entry-point call and counted by the engines'
//! recorder), and stand-alone probes ([`probe`]) that time one public call
//! into a layer over fixed, seeded inputs.

use std::hint::black_box;
use std::time::{Duration, Instant};

use rand::distributions::{Distribution, Exp};
use rand::rngs::StdRng;
use rand::SeedableRng;
use timely_baselines::baseline_registry;
use timely_core::{Backend, ModelMapping, ThroughputReport, TimelyAccelerator, TimelyConfig};
use timely_dse::SearchSpace;
use timely_nn::infer::InferenceEngine;
use timely_nn::{zoo, ModelWorkload};
use timely_obs::Histogram;
use timely_sim::{EventQueue, LatencyStats, Policy, ServingSimulator, Sharding, SimConfig};

use crate::median;
use crate::recorder::CountingRecorder;
use crate::workloads::{Accuracy, Dse, Spans, WorkloadKind};

/// The engines whose runs the traced run samples.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// `timely-sim`.
    Sim,
    /// `timely-dse`.
    Dse,
    /// `timely-nn`'s functional inference engine.
    Nn,
}

impl Engine {
    /// Every engine.
    pub const ALL: [Engine; 3] = [Engine::Sim, Engine::Dse, Engine::Nn];

    /// The engine `kind` runs.
    pub fn of(kind: WorkloadKind) -> Self {
        match kind {
            WorkloadKind::ServingOpen | WorkloadKind::ServingClosed => Engine::Sim,
            WorkloadKind::Dse => Engine::Dse,
            WorkloadKind::Accuracy => Engine::Nn,
        }
    }

    /// The workload that stands in for this engine in the traced runs of
    /// workloads that do not run it.
    pub fn reference_workload(self) -> WorkloadKind {
        match self {
            Engine::Sim => WorkloadKind::ServingOpen,
            Engine::Dse => WorkloadKind::Dse,
            Engine::Nn => WorkloadKind::Accuracy,
        }
    }
}

/// Iteration timings of one workload, alternately untraced and traced.
#[derive(Debug, Clone, Default)]
pub struct EngineSamples {
    /// Wall seconds of each untraced iteration.
    pub untraced_s: Vec<f64>,
    /// Wall seconds of each traced iteration.
    pub traced_s: Vec<f64>,
    /// Each traced iteration's engine telemetry and benchmark spans.
    pub traced: Vec<(CountingRecorder, Spans)>,
}

impl EngineSamples {
    /// The engine's per-layer metrics. Times are medians over iterations;
    /// counts come from the last traced iteration (they repeat exactly).
    pub fn metrics(&self, engine: Engine) -> Vec<(&'static str, f64)> {
        let last = self.traced.last();
        let counter = |key: &str| last.map_or(0, |(r, _)| r.counter(key)) as f64;
        let span_median = |f: &dyn Fn(&Spans) -> f64| {
            median(&mut self.traced.iter().map(|(_, s)| f(s)).collect::<Vec<_>>())
        };
        match engine {
            Engine::Sim => {
                // An iteration is exactly one `run_scenario_recorded` call.
                let run_s = median(&mut self.untraced_s.clone());
                let events = last.map_or(0, |(r, _)| r.counter_sum("sim.event.")) as f64;
                let depth = last
                    .and_then(|(r, _)| r.gauge("sim.queue.depth_peak"))
                    .unwrap_or(f64::NAN);
                vec![
                    ("sim.run_s", run_s),
                    ("sim.host_ns_per_event", run_s * 1e9 / events),
                    ("sim.events", events),
                    ("sim.queue_depth_peak", depth),
                ]
            }
            Engine::Dse => {
                let hits = counter("dse.eval.cache_hits");
                vec![
                    (
                        "dse.neighborhood_s",
                        span_median(&|s| s.total_s("dse.neighborhood")),
                    ),
                    (
                        "dse.production_s",
                        span_median(&|s| s.total_s("dse.production")),
                    ),
                    ("dse.report_s", span_median(&|s| s.total_s("dse.report"))),
                    (
                        "dse.screened_out_ratio",
                        counter("dse.screen.screened_out") / counter("dse.screen.visited"),
                    ),
                    (
                        "dse.cache_hit_ratio",
                        hits / (hits + counter("dse.eval.cache_misses")),
                    ),
                ]
            }
            Engine::Nn => {
                let per_call_ms =
                    |name: &'static str| span_median(&|s| s.mean_s(name).unwrap_or(f64::NAN) * 1e3);
                vec![
                    ("nn.forward_clean_ms", per_call_ms("nn.forward_clean")),
                    ("nn.forward_noisy_ms", per_call_ms("nn.forward_noisy")),
                ]
            }
        }
    }
}

/// Time each probe repeats for.
const PROBE_BUDGET: Duration = Duration::from_millis(250);
/// Fewest repetitions of each probe.
const PROBE_MIN_REPS: usize = 5;

/// Median over repetitions of seconds per item. `rep` times its own calls
/// (so input preparation stays outside) and returns `(seconds, items)`.
fn per_item(mut rep: impl FnMut() -> Result<(f64, usize), String>) -> Result<f64, String> {
    let mut samples = Vec::new();
    let started = Instant::now();
    while samples.len() < PROBE_MIN_REPS || started.elapsed() < PROBE_BUDGET {
        let (seconds, items) = rep()?;
        samples.push(seconds / items as f64);
    }
    Ok(median(&mut samples))
}

/// Times `f` once.
fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let start = Instant::now();
    let value = f();
    (start.elapsed().as_secs_f64(), value)
}

/// Times `f` over every element of `inputs`; returns `(seconds, items)`.
fn timed_each<I, T, E: std::fmt::Display>(
    inputs: &[I],
    mut f: impl FnMut(&I) -> Result<T, E>,
) -> Result<(f64, usize), String> {
    let start = Instant::now();
    for input in inputs {
        black_box(f(input).map_err(|err| err.to_string())?);
    }
    Ok((start.elapsed().as_secs_f64(), inputs.len()))
}

/// Runs every stand-alone layer probe. `sim_completed` sizes the exact
/// latency-statistics probe: the completed count of the run whose
/// statistics it stands for.
pub fn probe(seed: u64, sim_completed: u64) -> Result<Vec<(&'static str, f64)>, String> {
    let paper = TimelyConfig::paper_default();
    let dse_models = zoo::dse_benchmarks();
    let mut metrics = Vec::new();

    // --- sim ---------------------------------------------------------------
    let serving_models = zoo::serving_benchmarks();
    let sim_config = SimConfig {
        seed,
        duration_s: 1.0,
        chips: 2,
        policy: Policy::ShortestQueue,
        sharding: Sharding::Replicate,
    };
    let setup_s = per_item(|| {
        let (seconds, sim) = timed(|| ServingSimulator::new(&serving_models, &paper, sim_config));
        sim.map_err(|err| err.to_string())?;
        Ok((seconds, 1))
    })?;
    metrics.push(("sim.setup_s", setup_s));

    let mut rng = StdRng::seed_from_u64(seed);
    let latency = Exp::new(1e3);
    let samples: Vec<f64> = (0..sim_completed.max(1))
        .map(|_| latency.sample(&mut rng))
        .collect();
    let stats_s = per_item(|| {
        let (seconds, stats) = timed(|| LatencyStats::from_samples_s(&samples));
        black_box(stats);
        Ok((seconds, 1))
    })?;
    metrics.push(("sim.exact_stats_s", stats_s));

    // Hold model: pop the earliest event and push it back a random
    // increment later, with a fixed number of events pending.
    let increments: Vec<f64> = (0..4096).map(|_| Exp::new(1.0).sample(&mut rng)).collect();
    for (name, pending) in [
        ("sim.queue_hold_ns.16", 16),
        ("sim.queue_hold_ns.1024", 1024),
    ] {
        let ns = per_item(|| {
            let mut queue = EventQueue::new();
            for (event, increment) in increments.iter().take(pending).enumerate() {
                queue.push(*increment, event);
            }
            let ops = 1 << 16;
            let start = Instant::now();
            for k in 0..ops {
                let (time, event) = queue.pop().ok_or("the hold queue ran empty")?;
                queue.push(time + increments[k % increments.len()], event);
            }
            let seconds = start.elapsed().as_secs_f64();
            black_box(&queue);
            Ok((seconds, ops))
        })?;
        metrics.push((name, ns * 1e9));
    }

    // --- obs ---------------------------------------------------------------
    let values_ms: Vec<f64> = (0..4096).map(|_| latency.sample(&mut rng) * 1e3).collect();
    let record_ns = per_item(|| {
        let mut histogram = Histogram::default_log_scale();
        let start = Instant::now();
        for &value in &values_ms {
            histogram.record(value);
        }
        let seconds = start.elapsed().as_secs_f64();
        black_box(&histogram);
        Ok((seconds, values_ms.len()))
    })?;
    metrics.push(("obs.histogram_record_ns", record_ns * 1e9));

    // --- dse ---------------------------------------------------------------
    let (neighborhood, mut production) = Dse::evaluators(seed);
    let space = SearchSpace::paper_neighborhood();
    let configs: Vec<TimelyConfig> = (0..space.len())
        .step_by((space.len() / 24).max(1))
        .map(|i| space.config_at(i))
        .collect();
    let evaluate_s = per_item(|| {
        // A fresh memo cache, so every call evaluates.
        let mut evaluator = neighborhood.clone();
        timed_each(&configs, |config| {
            Ok::<_, String>(evaluator.evaluate(config))
        })
    })?;
    metrics.push(("dse.evaluate_us", evaluate_s * 1e6));

    let space = SearchSpace::production_space();
    let configs: Vec<TimelyConfig> = (0..space.len())
        .step_by((space.len() / 512).max(1))
        .map(|i| space.config_at(i))
        .collect();
    let mut buf = Vec::new();
    let bounds_s = per_item(|| {
        timed_each(&configs, |config| {
            Ok::<_, String>(production.screen_bounds(config, &mut buf))
        })
    })?;
    metrics.push(("dse.screen_bounds_ns", bounds_s * 1e9));

    // --- core / baselines --------------------------------------------------
    let timely = TimelyAccelerator::new(paper.clone());
    metrics.push((
        "core.evaluate_us",
        per_item(|| timed_each(&dse_models, |m| Backend::evaluate(&timely, m)))? * 1e6,
    ));
    metrics.push((
        "core.mapping_us",
        per_item(|| timed_each(&dse_models, |m| ModelMapping::analyze(m, &paper)))? * 1e6,
    ));
    metrics.push((
        "core.schedule_us",
        per_item(|| timed_each(&dse_models, |m| ThroughputReport::for_model(m, &paper)))? * 1e6,
    ));
    let backends = baseline_registry();
    let pairs: Vec<(usize, usize)> = (0..backends.len())
        .flat_map(|b| (0..dse_models.len()).map(move |m| (b, m)))
        .collect();
    metrics.push((
        "baselines.evaluate_us",
        per_item(|| timed_each(&pairs, |&(b, m)| backends[b].evaluate(&dse_models[m])))? * 1e6,
    ));

    // --- nn ----------------------------------------------------------------
    metrics.push((
        "nn.workload_analyze_us",
        per_item(|| timed_each(&dse_models, ModelWorkload::try_analyze))? * 1e6,
    ));
    let (clean, _) = Accuracy::engine_configs(seed);
    let engine_ms = per_item(|| {
        let models = Accuracy::models();
        let items = models.len();
        let (seconds, engines) = timed(|| {
            models
                .into_iter()
                .map(|m| InferenceEngine::new(m, clean))
                .collect::<Vec<_>>()
        });
        black_box(engines);
        Ok((seconds, items))
    })?;
    metrics.push(("nn.engine_new_ms", engine_ms * 1e3));
    Ok(metrics)
}
