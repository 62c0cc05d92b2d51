//! Perf harness: measures DSE candidate throughput (screened vs. unscreened)
//! and serving-simulator event throughput, and gates them against the
//! committed `BENCH_dse.json` / `BENCH_sim.json` baselines.
//!
//! Usage (`cargo run --release -p timely-bench --bin perf_harness -- ...`):
//!
//! * no flags — measure and print, touch nothing;
//! * `--smoke` — CI-sized budgets (the mode the committed baselines use);
//! * `--bless` — write the measurements to the baseline files;
//! * `--check` — compare against the baselines through the soft gate:
//!   report every delta, exit non-zero only on a >2x slowdown.
//!
//! Throughput numbers are wall-clock and machine-dependent, so baselines are
//! compared by *ratio*, never byte-diffed, and the gate is deliberately
//! loose. The workloads themselves are fully deterministic: both arms visit
//! a seeded candidate stream and the simulator run is seeded, so the
//! *counters* (visited / screened / events) are stable across machines.

use std::path::PathBuf;
use std::time::Instant;

use timely_bench::perf::{gate_line, ArmStats, DseBench, GateVerdict, SimBench, SimLargeArm};
use timely_core::TimelyConfig;
use timely_dse::{Constraints, Evaluator, Explorer, SearchSpace, Strategy};
use timely_nn::zoo;
use timely_obs::{Histogram, NoopRecorder, Profiler};
use timely_sim::{
    serving_check, ArrivalProcess, ModelMix, Policy, Scenario, ServingSimulator, Sharding,
    SimConfig, StatsMode, TrafficSpec,
};

const SEED: u64 = 0xBE9C;

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let bless = args.iter().any(|a| a == "--bless");
    let check = args.iter().any(|a| a == "--check");
    let mode = if smoke { "smoke" } else { "full" };

    // Phase breakdown in the wall-clock profiling domain (the harness's
    // native domain — everything it prints is machine-dependent anyway).
    let mut profiler = Profiler::start();
    let dse = profiler.time("measure_dse", || measure_dse(smoke));
    let sim = profiler.time("measure_sim", || measure_sim(smoke));
    println!(
        "dse [{mode}]: screened {} pts in {:.3}s ({:.0}/s, {} evaluated), \
         unscreened {} pts in {:.3}s ({:.0}/s), speedup {:.2}x",
        dse.screened.visited,
        dse.screened.seconds,
        dse.screened.points_per_sec,
        dse.screened.evaluated,
        dse.unscreened.visited,
        dse.unscreened.seconds,
        dse.unscreened.points_per_sec,
        dse.screened_speedup,
    );
    println!(
        "sim [{mode}]: {} events over {} requests in {:.3}s ({:.0} events/s)",
        sim.events, sim.requests, sim.seconds, sim.events_per_sec,
    );
    println!(
        "sim large [{mode}]: {} events over {} requests in {:.3}s ({:.0} events/s, \
         streaming stats in {} resident slots)",
        sim.large.events,
        sim.large.requests,
        sim.large.seconds,
        sim.large.events_per_sec,
        sim.large.stat_slots,
    );

    if bless {
        let dse_path = repo_root().join("BENCH_dse.json");
        let sim_path = repo_root().join("BENCH_sim.json");
        std::fs::write(&dse_path, serde::json::to_string(&dse))
            .unwrap_or_else(|err| panic!("write {dse_path:?}: {err}"));
        std::fs::write(&sim_path, serde::json::to_string(&sim))
            .unwrap_or_else(|err| panic!("write {sim_path:?}: {err}"));
        println!("blessed {} and {}", dse_path.display(), sim_path.display());
    }

    let gate_pass = !check || profiler.time("gate", || run_gate(&dse, &sim));
    println!("{}", profiler.render());
    if !gate_pass {
        std::process::exit(1);
    }
}

/// Compares the current measurements against the committed baselines.
/// Returns `false` only on a hard (>2x) regression.
fn run_gate(dse: &DseBench, sim: &SimBench) -> bool {
    let mut pass = true;
    let mut check = |name: &str, baseline: Option<(String, f64)>, current: f64, mode: &str| {
        let Some((baseline_mode, baseline_rate)) = baseline else {
            println!("{name}: no committed baseline, nothing to compare [skip]");
            return;
        };
        if baseline_mode != mode {
            println!(
                "{name}: baseline mode {baseline_mode:?} != current mode {mode:?}, \
                 not comparable [skip]"
            );
            return;
        }
        let (verdict, line) = gate_line(name, baseline_rate, current);
        println!("{line}");
        if verdict == GateVerdict::Fail {
            pass = false;
        }
    };
    let dse_baseline = read_baseline_dse();
    check(
        "dse screened points/sec",
        dse_baseline
            .as_ref()
            .map(|b| (b.mode.clone(), b.screened.points_per_sec)),
        dse.screened.points_per_sec,
        &dse.mode,
    );
    check(
        "dse unscreened points/sec",
        dse_baseline
            .as_ref()
            .map(|b| (b.mode.clone(), b.unscreened.points_per_sec)),
        dse.unscreened.points_per_sec,
        &dse.mode,
    );
    let sim_baseline = read_baseline_sim();
    check(
        "sim events/sec",
        sim_baseline
            .as_ref()
            .map(|b| (b.mode.clone(), b.events_per_sec)),
        sim.events_per_sec,
        &sim.mode,
    );
    check(
        "sim large events/sec",
        sim_baseline
            .as_ref()
            .map(|b| (b.mode.clone(), b.large.events_per_sec)),
        sim.large.events_per_sec,
        &sim.mode,
    );
    if !pass {
        eprintln!("perf gate: >2x slowdown against a committed baseline");
    }
    pass
}

fn read_baseline_dse() -> Option<DseBench> {
    let text = std::fs::read_to_string(repo_root().join("BENCH_dse.json")).ok()?;
    serde::json::from_str(&text).ok()
}

fn read_baseline_sim() -> Option<SimBench> {
    let text = std::fs::read_to_string(repo_root().join("BENCH_sim.json")).ok()?;
    serde::json::from_str(&text).ok()
}

/// Times one explorer pass over a seeded candidate stream (random warm-up
/// plus a stride-sampled grid) and returns its arm statistics.
fn run_arm(screening: bool, budget: usize) -> ArmStats {
    let evaluator =
        Evaluator::new(vec![zoo::cnn_1(), zoo::mlp_l()]).with_constraints(Constraints {
            max_area_mm2: Some(400.0),
            max_noise_sigma_lsb: Some(0.5),
            max_latency_ms: None,
        });
    let mut explorer =
        Explorer::new(SearchSpace::production_space(), evaluator).with_screening(screening);
    #[expect(
        clippy::disallowed_methods,
        reason = "the perf harness is the one place wall-clock readings are the point: it measures throughput for BENCH_*.json"
    )]
    let start = Instant::now();
    explorer.seed_config(&TimelyConfig::paper_default());
    explorer.run(&Strategy::Random {
        samples: budget / 8,
        seed: SEED,
    });
    explorer.run(&Strategy::Grid { max_points: budget });
    let seconds = start.elapsed().as_secs_f64().max(1e-9);
    let stats = explorer.screen_stats();
    ArmStats {
        visited: stats.visited,
        screened_out: stats.screened_out,
        evaluated: stats.evaluated,
        seconds,
        points_per_sec: stats.visited as f64 / seconds,
    }
}

fn measure_dse(smoke: bool) -> DseBench {
    let space_points = SearchSpace::production_space().len();
    // The screened arm affords a much larger budget than the unscreened one
    // at similar wall-clock cost; throughput is normalized to points/sec so
    // the two are comparable anyway.
    let (screened_budget, unscreened_budget) = if smoke {
        (65_536, 8192)
    } else {
        (103_680, 32_768)
    };
    let screened = run_arm(true, screened_budget);
    let unscreened = run_arm(false, unscreened_budget);
    DseBench {
        mode: if smoke { "smoke" } else { "full" }.to_string(),
        space_points,
        screened,
        unscreened,
        screened_speedup: screened.points_per_sec / unscreened.points_per_sec,
    }
}

fn measure_sim(smoke: bool) -> SimBench {
    let requests = if smoke { 200_000.0 } else { 1_000_000.0 };
    let models = [zoo::cnn_1(), zoo::mlp_l()];
    let config = TimelyConfig::paper_default();
    #[expect(
        clippy::disallowed_methods,
        reason = "same wall-time measurement, sim side"
    )]
    let start = Instant::now();
    let report = serving_check(&models, &config, 0.7, requests, SEED)
        .expect("paper default serves the perf workload");
    let seconds = start.elapsed().as_secs_f64().max(1e-9);
    // Every request is one arrival event, one issue event per chip
    // assignment, and one completion event.
    let issued: u64 = report.chips.iter().map(|c| c.issued).sum();
    let events = report.offered + issued + report.completed;
    SimBench {
        mode: if smoke { "smoke" } else { "full" }.to_string(),
        requests: report.offered,
        events,
        seconds,
        events_per_sec: events as f64 / seconds,
        large: measure_sim_large(smoke),
    }
}

/// The planet-scale arm: an order of magnitude more requests than the exact
/// arm, run with constant-memory streaming statistics. At full scale this is
/// a 10^7-request run whose latency state stays in a fixed set of histogram
/// buckets and scalar accumulators.
fn measure_sim_large(smoke: bool) -> SimLargeArm {
    let requests = if smoke { 1_000_000.0 } else { 10_000_000.0 };
    let models = [zoo::cnn_1(), zoo::mlp_l()];
    let config = TimelyConfig::paper_default();
    let chips = 2;
    let sim = ServingSimulator::new(
        &models,
        &config,
        SimConfig {
            seed: SEED,
            duration_s: 1.0, // placeholder; replaced once capacity is known
            chips,
            policy: Policy::ShortestQueue,
            sharding: Sharding::Replicate,
        },
    )
    .expect("paper default serves the perf workload");
    let capacity = (0..models.len())
        .map(|m| sim.fleet_capacity_rps(m))
        .fold(f64::INFINITY, f64::min);
    let rate = 0.7 * capacity;
    let mut sim = sim;
    sim.set_duration(requests / rate);
    let spec = TrafficSpec {
        process: ArrivalProcess::Poisson { rate },
        mix: ModelMix::uniform(models.len()),
    };
    let scenario = Scenario {
        stats: StatsMode::Streaming,
        ..Scenario::default()
    };
    #[expect(
        clippy::disallowed_methods,
        reason = "same wall-time measurement, large arm"
    )]
    let start = Instant::now();
    let report = sim
        .run_scenario_recorded(&spec, &scenario, &mut NoopRecorder)
        .expect("streaming scenario is well-formed");
    let seconds = start.elapsed().as_secs_f64().max(1e-9);
    let issued: u64 = report.chips.iter().map(|c| c.issued).sum();
    let events = report.offered + issued + report.completed;
    // Per model: one default-scale latency histogram plus four scalar
    // accumulators (count/sum/max/mean) — the whole resident latency state.
    let buckets = Histogram::default_log_scale().bucket_counts().len() as u64;
    SimLargeArm {
        requests: report.offered,
        events,
        seconds,
        events_per_sec: events as f64 / seconds,
        stat_slots: models.len() as u64 * (buckets + 4),
    }
}
