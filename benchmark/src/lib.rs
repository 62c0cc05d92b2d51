//! End-to-end and per-layer benchmark of the TIMELY reproduction.
//!
//! One command runs one workload for a fixed time and prints, as its last
//! stdout line, a JSON object with `correct`, `attempted`, `failed` and
//! `metrics` (each metric a `{"value", "unit"}` pair):
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload serving-open --seed 1 --seconds 10 --trace 0
//! ```
//!
//! With `--trace 0` it reports the end-to-end metrics, measured with the
//! engines' no-op recorder: `setup_s` (median of repeated set-ups),
//! `ops_per_s` (median of per-iteration rates) and `peak_rss_mb`.
//! With `--trace 1` it reports the per-layer metrics: the benchmark's own
//! timers around calls into each layer, the engines' counters read through
//! [`recorder::CountingRecorder`], and the tracing overhead. Everything is
//! single-threaded. The tests run with
//! `cargo test --release --manifest-path benchmark/Cargo.toml`.

pub mod expected;
pub mod layers;
pub mod recorder;
pub mod workloads;

use std::time::{Duration, Instant};

use timely_obs::NoopRecorder;

use crate::layers::{Engine, EngineSamples};
use crate::recorder::CountingRecorder;
use crate::workloads::{Iteration, Size, Spans, Workload, WorkloadKind};

/// End-to-end metrics `(name, unit)`, reported by every untraced run.
pub const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("ops_per_s", "ops/s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics `(name, unit)`, reported by every traced run.
pub const PER_LAYER: [(&str, &str); 25] = [
    ("sim.run_s", "s"),
    ("sim.host_ns_per_event", "ns"),
    ("sim.events", "count"),
    ("sim.queue_depth_peak", "count"),
    ("sim.setup_s", "s"),
    ("sim.exact_stats_s", "s"),
    ("sim.queue_hold_ns.16", "ns"),
    ("sim.queue_hold_ns.1024", "ns"),
    ("obs.histogram_record_ns", "ns"),
    ("obs.trace_overhead", "ratio"),
    ("dse.neighborhood_s", "s"),
    ("dse.production_s", "s"),
    ("dse.evaluate_us", "us"),
    ("dse.screen_bounds_ns", "ns"),
    ("dse.screened_out_ratio", "ratio"),
    ("dse.cache_hit_ratio", "ratio"),
    ("dse.report_s", "s"),
    ("core.evaluate_us", "us"),
    ("core.mapping_us", "us"),
    ("core.schedule_us", "us"),
    ("baselines.evaluate_us", "us"),
    ("nn.workload_analyze_us", "us"),
    ("nn.engine_new_ms", "ms"),
    ("nn.forward_clean_ms", "ms"),
    ("nn.forward_noisy_ms", "ms"),
];

/// Set-ups timed per run; `setup_s` is their median.
const SETUP_MIN_REPS: usize = 7;
const SETUP_MAX_REPS: usize = 201;
const SETUP_BUDGET: Duration = Duration::from_millis(300);
/// Fewest timed iterations a run makes, however long they take.
const MIN_ITERATIONS: usize = 3;

/// Parsed command line.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Args {
    /// The workload to run.
    pub workload: WorkloadKind,
    /// Seed of every input the workload generates.
    pub seed: u64,
    /// How long the timed loop runs.
    pub seconds: f64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
}

impl Args {
    /// Parses `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
    /// `--seed` defaults to [`workloads::PINNED_SEED`], `--seconds` to 10
    /// and `--trace` to 0.
    pub fn parse(args: &[String]) -> Result<Self, String> {
        let mut workload = None;
        let mut seed = workloads::PINNED_SEED;
        let mut seconds = 10.0;
        let mut trace = false;
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload = Some(WorkloadKind::parse(value).ok_or_else(|| {
                        let names: Vec<_> = WorkloadKind::ALL.iter().map(|w| w.name()).collect();
                        format!("unknown workload {value:?} (expected one of {names:?})")
                    })?);
                }
                "--seed" => {
                    seed = value
                        .parse()
                        .map_err(|_| format!("--seed {value:?} is not an unsigned integer"))?;
                }
                "--seconds" => {
                    seconds = value
                        .parse()
                        .ok()
                        .filter(|s: &f64| s.is_finite() && *s > 0.0)
                        .ok_or_else(|| format!("--seconds {value:?} is not a positive number"))?;
                }
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace {value:?} is not 0 or 1")),
                    };
                }
                _ => return Err(format!("unknown flag {flag:?}")),
            }
        }
        Ok(Self {
            workload: workload.ok_or("--workload is required")?,
            seed,
            seconds,
            trace,
        })
    }
}

/// The result of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Every op's outputs passed their check.
    pub correct: bool,
    /// Ops attempted in timed iterations.
    pub attempted: u64,
    /// Ops whose call failed or whose outputs failed the check.
    pub failed: u64,
    /// `(name, value)` for every metric of the run's kind.
    pub metrics: Vec<(&'static str, f64)>,
    /// Why ops failed, for stderr.
    pub errors: Vec<String>,
}

impl Outcome {
    /// The result line: one JSON object.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value)| {
                let unit = END_TO_END
                    .iter()
                    .chain(PER_LAYER.iter())
                    .find(|(n, _)| n == name)
                    .map_or("", |(_, unit)| unit);
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Runs the benchmark as the command line asks.
pub fn run(args: &Args) -> Result<Outcome, String> {
    if args.trace {
        run_traced(args.workload, args.seed, args.seconds, Size::Standard)
    } else {
        run_untraced(args.workload, args.seed, args.seconds, Size::Standard)
    }
}

/// Ops accounting over a run's timed iterations. Every iteration must
/// reproduce the checked reference iteration exactly.
struct Tally {
    reference: Iteration,
    reference_ok: bool,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Tally {
    /// Runs and checks the untimed reference iteration.
    fn start(
        workload: &Workload,
        kind: WorkloadKind,
        seed: u64,
        size: Size,
    ) -> Result<Self, String> {
        let reference = workload.iterate(&mut NoopRecorder, &mut Spans::disabled())?;
        let check = reference.output.check(kind, seed, size);
        Ok(Self {
            reference_ok: check.is_ok(),
            errors: check.err().into_iter().collect(),
            reference,
            attempted: 0,
            failed: 0,
        })
    }

    /// Counts one timed iteration; returns its ops if it succeeded.
    fn add(&mut self, result: Result<Iteration, String>) -> Option<u64> {
        let ops = result.as_ref().map_or(self.reference.ops, |it| it.ops);
        self.attempted += ops;
        let error = match result {
            Err(err) => Some(err),
            Ok(it) if it != self.reference => Some(format!(
                "iteration differs from the first one:\n  got   {:?}\n  first {:?}",
                it.output, self.reference.output
            )),
            Ok(_) if !self.reference_ok => Some("outputs failed their check".to_string()),
            Ok(_) => None,
        };
        match error {
            None => Some(ops),
            Some(err) => {
                self.failed += ops;
                if self.errors.len() < 4 {
                    self.errors.push(err);
                }
                None
            }
        }
    }

    fn outcome(mut self, mut metrics: Vec<(&'static str, f64)>) -> Outcome {
        for (name, value) in &mut metrics {
            if !value.is_finite() {
                self.errors.push(format!("metric {name} is {value}"));
                self.reference_ok = false;
                *value = 0.0;
            }
        }
        Outcome {
            correct: self.failed == 0 && self.reference_ok && self.attempted > 0,
            attempted: self.attempted.max(1),
            failed: self.failed,
            metrics,
            errors: self.errors,
        }
    }
}

/// Sets the workload up repeatedly, at least [`SETUP_MIN_REPS`] times and
/// for at least [`SETUP_BUDGET`] (at most [`SETUP_MAX_REPS`] times); returns
/// the last one and the median set-up time in seconds.
fn timed_setup(kind: WorkloadKind, seed: u64, size: Size) -> Result<(Workload, f64), String> {
    let mut times = Vec::new();
    let started = Instant::now();
    let mut workload = None;
    while times.len() < SETUP_MIN_REPS
        || (started.elapsed() < SETUP_BUDGET && times.len() < SETUP_MAX_REPS)
    {
        let start = Instant::now();
        let built = Workload::setup(kind, seed, size)?;
        times.push(start.elapsed().as_secs_f64());
        // The previous copy is dropped here, outside the timed region.
        workload = Some(built);
    }
    let workload = workload.ok_or("no set-up ran")?;
    Ok((workload, median(&mut times)))
}

/// The untraced run: end-to-end metrics.
pub fn run_untraced(
    kind: WorkloadKind,
    seed: u64,
    seconds: f64,
    size: Size,
) -> Result<Outcome, String> {
    let (workload, setup_s) = timed_setup(kind, seed, size)?;
    let mut tally = Tally::start(&workload, kind, seed, size)?;
    let budget = Duration::from_secs_f64(seconds);
    let mut rates = Vec::new();
    let started = Instant::now();
    let mut iterations = 0;
    while iterations < MIN_ITERATIONS || started.elapsed() < budget {
        let start = Instant::now();
        let result = workload.iterate(&mut NoopRecorder, &mut Spans::disabled());
        let elapsed = start.elapsed().as_secs_f64();
        if let Some(ops) = tally.add(result) {
            rates.push(ops as f64 / elapsed);
        }
        iterations += 1;
    }
    let metrics = vec![
        ("setup_s", setup_s),
        ("ops_per_s", median(&mut rates)),
        ("peak_rss_mb", peak_rss_mb()?),
    ];
    Ok(tally.outcome(metrics))
}

/// The traced run: per-layer metrics.
///
/// The workload's iterations alternate between untraced (no-op recorder)
/// and traced ones (counting recorder plus the benchmark's spans) for a
/// third of the run; `obs.trace_overhead` is the ratio of their median times. Each
/// engine's metrics come from the workload itself when it runs that engine,
/// and otherwise from a short traced run of the engine's reference workload
/// (`serving-open` for `sim.*`, `dse` for `dse.*`, `accuracy` for `nn.*`)
/// with the same seed. The stand-alone layer probes follow.
pub fn run_traced(
    kind: WorkloadKind,
    seed: u64,
    seconds: f64,
    size: Size,
) -> Result<Outcome, String> {
    let workload = Workload::setup(kind, seed, size)?;
    let mut tally = Tally::start(&workload, kind, seed, size)?;
    let own = sample_engine(
        &workload,
        &mut tally,
        Duration::from_secs_f64(seconds / 3.0),
    );
    let overhead = median(&mut own.traced_s.clone()) / median(&mut own.untraced_s.clone());
    let mut metrics = vec![("obs.trace_overhead", overhead)];
    let mut sim_completed = 0;
    for engine in Engine::ALL {
        let reference;
        let (samples, ops) = if engine == Engine::of(kind) {
            (&own, tally.reference.ops)
        } else {
            let other_kind = engine.reference_workload();
            let other = Workload::setup(other_kind, seed, size)?;
            let mut other_tally = Tally::start(&other, other_kind, seed, size)?;
            reference = sample_engine(&other, &mut other_tally, Duration::ZERO);
            if other_tally.failed > 0 || !other_tally.reference_ok {
                tally.errors.extend(other_tally.errors);
                tally.reference_ok = false;
            }
            (&reference, other_tally.reference.ops)
        };
        if engine == Engine::Sim {
            sim_completed = ops;
        }
        metrics.extend(samples.metrics(engine));
    }
    match layers::probe(seed, sim_completed) {
        Ok(probed) => metrics.extend(probed),
        Err(err) => {
            tally.errors.push(err);
            tally.reference_ok = false;
        }
    }
    // Report in the order `PER_LAYER` lists.
    metrics.sort_by_key(|(name, _)| PER_LAYER.iter().position(|(n, _)| n == name));
    Ok(tally.outcome(metrics))
}

/// Alternates untraced and traced iterations until `budget` has elapsed and
/// each kind has run at least [`MIN_ITERATIONS`] times.
fn sample_engine(workload: &Workload, tally: &mut Tally, budget: Duration) -> EngineSamples {
    let mut samples = EngineSamples::default();
    let started = Instant::now();
    let mut rounds = 0;
    while rounds < MIN_ITERATIONS || started.elapsed() < budget {
        rounds += 1;
        let start = Instant::now();
        let result = workload.iterate(&mut NoopRecorder, &mut Spans::disabled());
        let elapsed = start.elapsed().as_secs_f64();
        if tally.add(result).is_some() {
            samples.untraced_s.push(elapsed);
        }

        let mut recorder = CountingRecorder::new();
        let mut spans = Spans::enabled();
        let start = Instant::now();
        let result = workload.iterate(&mut recorder, &mut spans);
        let elapsed = start.elapsed().as_secs_f64();
        if tally.add(result).is_some() {
            samples.traced_s.push(elapsed);
            samples.traced.push((recorder, spans));
        }
    }
    samples
}

/// Median of `values` (sorted in place); NaN for an empty slice.
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// Peak resident memory of this process in MiB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|err| format!("reading /proc/self/status: {err}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}
