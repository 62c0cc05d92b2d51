//! Serving study: sweeps arrival rate × chip count × scheduler policy over
//! the serving model zoo and reports latency percentiles, utilization, and
//! energy per request from the `timely-sim` discrete-event simulator.
//!
//! Run with `cargo run --release -p timely-bench --bin serving_study`; pass
//! `--smoke` for a fast CI-sized run. Everything is seeded, so repeated runs
//! print identical numbers.
//!
//! Observability flags (all deterministic):
//!
//! * `--json` prints the per-model sweep as a machine-readable
//!   [`ServingStudyArtifact`] instead of the tables;
//! * `--trace <path>` writes a Chrome trace-event JSON of one canonical
//!   traced serving run (open in `chrome://tracing` or Perfetto);
//! * `--metrics <path>` writes the same run's metrics report as sorted text;
//! * `--scenarios` prints the failure/straggler/load-shedding scenario
//!   tables (and nothing else): fault injection, admission-control
//!   shedding, and the exact-vs-streaming statistics cross-check.

use timely_baselines::IsaacModel;
use timely_bench::artifacts::{ServingStudyArtifact, ServingSweepRecord};
use timely_bench::table::{format_percent, Table};
use timely_core::{Backend, TimelyAccelerator, TimelyConfig};
use timely_nn::zoo;
use timely_obs::{ChromeTrace, NoopRecorder, TraceRecorder};
use timely_sim::{
    ArrivalProcess, Fault, ModelMix, Policy, Scenario, ServingSimulator, Sharding, SimConfig,
    StatsMode, TrafficSpec,
};

const SEED: u64 = 0x5E21;

/// The value following `flag`, if present (e.g. `--trace out.json`).
fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    let at = args.iter().position(|a| a == flag)?;
    args.get(at + 1).map(String::as_str)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let json = args.iter().any(|a| a == "--json");
    let scenarios = args.iter().any(|a| a == "--scenarios");
    let trace_path = flag_value(&args, "--trace");
    let metrics_path = flag_value(&args, "--metrics");
    let requests_per_point = if smoke { 200.0 } else { 2_000.0 };

    let models = zoo::serving_benchmarks();
    let chip_config = TimelyConfig::paper_default();
    if scenarios {
        scenario_study(&models, &chip_config, requests_per_point);
        return;
    }
    let chip_counts: &[usize] = if smoke { &[1, 4] } else { &[1, 2, 4] };
    let loads: &[f64] = if smoke {
        &[0.5, 1.2]
    } else {
        &[0.3, 0.7, 0.95, 1.2]
    };

    // --- Per-model sweep: rate x chips x policy ------------------------------
    let mut table = Table::new(
        format!(
            "Serving study - open-loop Poisson, rate x chips x policy (seed {SEED:#x}, ~{requests_per_point:.0} requests per point)"
        ),
        &[
            "model", "chips", "policy", "load", "offered", "done", "p50 ms", "p95 ms", "p99 ms",
            "util", "mJ/req",
        ],
    );
    let mut sweep: Vec<ServingSweepRecord> = Vec::new();
    for model in &models {
        let profile = match timely_sim::ModelProfile::for_model(model, &chip_config) {
            Ok(profile) => profile,
            Err(err) => {
                eprintln!("skipping {}: {err}", model.name());
                continue;
            }
        };
        for &chips in chip_counts {
            for policy in policies(&profile) {
                for &load in loads {
                    let rate = load * profile.capacity_rps() * chips as f64;
                    // Keep the horizon well above the unqueued latency so
                    // in-flight censoring at the horizon stays negligible.
                    let duration_s = (requests_per_point / rate).max(50.0 * profile.latency_s);
                    let sim = ServingSimulator::new(
                        std::slice::from_ref(model),
                        &chip_config,
                        SimConfig {
                            seed: SEED,
                            duration_s,
                            chips,
                            policy,
                            sharding: Sharding::Replicate,
                        },
                    )
                    .expect("profiled models simulate");
                    let report = sim
                        .run_scenario_recorded(
                            &TrafficSpec {
                                process: ArrivalProcess::Poisson { rate },
                                mix: ModelMix::single(0),
                            },
                            &Scenario::default(),
                            &mut NoopRecorder,
                        )
                        .expect("valid traffic");
                    if json {
                        sweep.push(ServingSweepRecord {
                            model: model.name().to_string(),
                            chips: chips as u64,
                            policy: policy.label(),
                            load,
                            report: report.clone(),
                        });
                    }
                    table.row(&[
                        model.name().to_string(),
                        chips.to_string(),
                        policy.label(),
                        format!("{load:.2}"),
                        report.offered.to_string(),
                        report.completed.to_string(),
                        format!("{:.3}", report.latency.p50_ms),
                        format!("{:.3}", report.latency.p95_ms),
                        format!("{:.3}", report.latency.p99_ms),
                        format_percent(report.mean_utilization()),
                        format!("{:.2}", report.energy_mj_per_request),
                    ]);
                }
            }
        }
    }
    if json {
        // Machine-readable mode: the sweep as one artifact, nothing else on
        // stdout. The artifact round-trips through the vendored serde stubs.
        let artifact = ServingStudyArtifact {
            seed: SEED,
            smoke,
            sweep,
        };
        println!("{}", serde::json::to_string(&artifact));
    } else {
        table.print();

        // --- Mixed model-zoo workload under bursty traffic -------------------
        mixed_zoo_study(&models, &chip_config, requests_per_point);

        // --- Low-load cross-check against the analytical model ---------------
        analytical_crosscheck(&models, &chip_config, requests_per_point);

        // --- Cross-backend fleets through the unified Backend trait ----------
        cross_backend_study(requests_per_point);
    }

    // --- Optional deterministic trace/metrics export --------------------------
    if trace_path.is_some() || metrics_path.is_some() {
        traced_export(
            &models,
            &chip_config,
            requests_per_point,
            trace_path,
            metrics_path,
        );
    }
}

/// Runs one canonical traced serving run (the whole zoo on 2 chips under
/// shortest-queue at 70 % load) and exports its telemetry: a Chrome
/// trace-event JSON to `trace_path` and/or a sorted text metrics report to
/// `metrics_path`. The run is fully seeded, so both exports are
/// byte-identical across runs; the trace is validated by parsing it back
/// through the serde stubs before it is written. Progress notes go to
/// stderr so golden-pinned stdout is untouched.
fn traced_export(
    models: &[timely_nn::Model],
    config: &TimelyConfig,
    requests: f64,
    trace_path: Option<&str>,
    metrics_path: Option<&str>,
) {
    let profiles: Vec<timely_sim::ModelProfile> = models
        .iter()
        .map(|m| {
            timely_sim::ModelProfile::for_model(m, config).expect("serving models fit on one chip")
        })
        .collect();
    let chips = 2;
    let rate = 0.7
        * profiles
            .iter()
            .map(timely_sim::ModelProfile::capacity_rps)
            .fold(f64::INFINITY, f64::min)
        * chips as f64;
    let max_latency = profiles.iter().map(|p| p.latency_s).fold(0.0, f64::max);
    let duration_s = (requests / rate).max(50.0 * max_latency);
    let sim = ServingSimulator::new(
        models,
        config,
        SimConfig {
            seed: SEED,
            duration_s,
            chips,
            policy: Policy::ShortestQueue,
            sharding: Sharding::Replicate,
        },
    )
    .expect("serving models fit on one chip");
    let mut recorder = TraceRecorder::new();
    sim.run_scenario_recorded(
        &TrafficSpec {
            process: ArrivalProcess::Poisson { rate },
            mix: ModelMix::uniform(models.len()),
        },
        &Scenario::default(),
        &mut recorder,
    )
    .expect("valid traffic");
    if let Some(path) = trace_path {
        // Simulated seconds -> trace microseconds.
        let trace = ChromeTrace::from_recorder(&recorder, 1e6);
        let json = trace.to_json();
        let parsed = ChromeTrace::from_json(&json).expect("trace export parses back");
        assert_eq!(
            parsed.events.len(),
            trace.events.len(),
            "trace round-trip preserves every event"
        );
        std::fs::write(path, &json).expect("trace file is writable");
        eprintln!("wrote trace: {path} ({} events)", trace.events.len());
    }
    if let Some(path) = metrics_path {
        let text = recorder.metrics().render_text();
        std::fs::write(path, &text).expect("metrics file is writable");
        eprintln!("wrote metrics: {path} ({} lines)", text.lines().count());
    }
}

/// Serves CNN-1 on three fleets of the same size but different silicon:
/// all-TIMELY, all-ISAAC, and a heterogeneous TIMELY + ISAAC pool, all
/// driven at the same absolute request rate (70 % of the slowest fleet's
/// capacity) under join-the-shortest-queue.
fn cross_backend_study(requests: f64) {
    let model = zoo::cnn_1();
    let timely_chip = TimelyAccelerator::new(TimelyConfig {
        chips: 1,
        ..TimelyConfig::paper_default()
    });
    let isaac_chip = IsaacModel::default();
    let sim_config = SimConfig {
        seed: SEED,
        duration_s: 1.0, // placeholder; set per run below
        chips: 2,
        policy: Policy::ShortestQueue,
        sharding: Sharding::Replicate,
    };
    let fleets: Vec<(&str, ServingSimulator)> = vec![
        (
            "TIMELY x2",
            ServingSimulator::for_backend(std::slice::from_ref(&model), &timely_chip, sim_config)
                .expect("CNN-1 fits a TIMELY chip"),
        ),
        (
            "ISAAC x2",
            ServingSimulator::for_backend(std::slice::from_ref(&model), &isaac_chip, sim_config)
                .expect("CNN-1 fits an ISAAC chip"),
        ),
        (
            "TIMELY+ISAAC",
            ServingSimulator::heterogeneous(
                std::slice::from_ref(&model),
                &[&timely_chip as &dyn Backend, &isaac_chip as &dyn Backend],
                sim_config,
            )
            .expect("CNN-1 fits both chips"),
        ),
    ];
    let rate = 0.7
        * fleets
            .iter()
            .map(|(_, sim)| sim.fleet_capacity_rps(0))
            .fold(f64::INFINITY, f64::min);
    let max_latency = fleets
        .iter()
        .flat_map(|(_, sim)| (0..2).map(|chip| sim.profile(chip, 0).latency_s))
        .fold(0.0, f64::max);
    let duration_s = (requests / rate).max(50.0 * max_latency);

    let mut table = Table::new(
        format!(
            "Serving study - cross-backend fleets on CNN-1 (2 chips each, shortest-queue, {rate:.0} req/s)"
        ),
        &[
            "fleet",
            "capacity rps",
            "offered",
            "done",
            "p50 ms",
            "p95 ms",
            "p99 ms",
            "util",
            "mJ/req",
        ],
    );
    for (label, mut sim) in fleets {
        sim.set_duration(duration_s);
        let report = sim
            .run_scenario_recorded(
                &TrafficSpec {
                    process: ArrivalProcess::Poisson { rate },
                    mix: ModelMix::single(0),
                },
                &Scenario::default(),
                &mut NoopRecorder,
            )
            .expect("valid traffic");
        table.row(&[
            label.to_string(),
            format!("{:.0}", sim.fleet_capacity_rps(0)),
            report.offered.to_string(),
            report.completed.to_string(),
            format!("{:.3}", report.latency.p50_ms),
            format!("{:.3}", report.latency.p95_ms),
            format!("{:.3}", report.latency.p99_ms),
            format_percent(report.mean_utilization()),
            format!("{:.4}", report.energy_mj_per_request),
        ]);
    }
    table.print();
}

/// The policy set for the sweep. The batching window is sized relative to
/// the model's initiation interval so every model sees comparable batching
/// pressure.
fn policies(profile: &timely_sim::ModelProfile) -> Vec<Policy> {
    vec![
        Policy::Fifo,
        Policy::Batched {
            window_s: 32.0 * profile.initiation_interval_s,
            max_batch: 8,
        },
        Policy::ShortestQueue,
    ]
}

/// A fleet serving all three models at once: replicated vs partitioned
/// placement under bursty traffic.
fn mixed_zoo_study(models: &[timely_nn::Model], config: &TimelyConfig, requests: f64) {
    let mut table = Table::new(
        "Serving study - mixed zoo under bursty traffic (3 models, 4 chips, shortest-queue)",
        &[
            "sharding",
            "model",
            "offered",
            "done",
            "p50 ms",
            "p95 ms",
            "p99 ms",
            "fleet util",
        ],
    );
    // The binding constraint of the partitioned layout: each model's share
    // of a uniform mix (1/3 of the total) lands on its single home chip, so
    // drive the total at 2.1x the slowest model's single-chip capacity to
    // put that model's home chip at ~70% load.
    let profiles: Vec<timely_sim::ModelProfile> = models
        .iter()
        .map(|m| {
            timely_sim::ModelProfile::for_model(m, config).expect("serving models fit on one chip")
        })
        .collect();
    let base: f64 = profiles
        .iter()
        .map(timely_sim::ModelProfile::capacity_rps)
        .fold(f64::INFINITY, f64::min)
        * 2.1;
    let max_latency = profiles.iter().map(|p| p.latency_s).fold(0.0, f64::max);
    for sharding in [Sharding::Replicate, Sharding::Partition] {
        let duration_s = (requests / base).max(50.0 * max_latency);
        let sim = ServingSimulator::new(
            models,
            config,
            SimConfig {
                seed: SEED,
                duration_s,
                chips: 4,
                policy: Policy::ShortestQueue,
                sharding,
            },
        )
        .expect("serving models fit on one chip");
        let report = sim
            .run_scenario_recorded(
                &TrafficSpec {
                    process: ArrivalProcess::Bursty {
                        base_rate: 0.5 * base,
                        burst_rate: 2.0 * base,
                        mean_burst_s: 0.1 * duration_s,
                        mean_quiet_s: 0.2 * duration_s,
                    },
                    mix: ModelMix::uniform(models.len()),
                },
                &Scenario::default(),
                &mut NoopRecorder,
            )
            .expect("valid traffic");
        let label = match sharding {
            Sharding::Replicate => "replicate",
            Sharding::Partition => "partition",
        };
        for stats in &report.per_model {
            table.row(&[
                label.to_string(),
                stats.name.clone(),
                stats.offered.to_string(),
                stats.completed.to_string(),
                format!("{:.3}", stats.latency.p50_ms),
                format!("{:.3}", stats.latency.p95_ms),
                format!("{:.3}", stats.latency.p99_ms),
                format_percent(report.mean_utilization()),
            ]);
        }
    }
    table.print();
}

/// Failure/straggler/load-shedding study: the whole serving zoo on two
/// chips under join-the-shortest-queue at 90 % load, re-run under injected
/// fault windows and an admission cap. Every arm is seeded and the fault
/// schedule is fixed at fractions of the horizon, so the tables are
/// deterministic. A second table cross-checks the constant-memory
/// streaming statistics mode against the exact accumulator on the
/// baseline arm.
fn scenario_study(models: &[timely_nn::Model], config: &TimelyConfig, requests: f64) {
    let profiles: Vec<timely_sim::ModelProfile> = models
        .iter()
        .map(|m| {
            timely_sim::ModelProfile::for_model(m, config).expect("serving models fit on one chip")
        })
        .collect();
    let chips = 2;
    let rate = 0.9
        * profiles
            .iter()
            .map(timely_sim::ModelProfile::capacity_rps)
            .fold(f64::INFINITY, f64::min)
        * chips as f64;
    let max_latency = profiles.iter().map(|p| p.latency_s).fold(0.0, f64::max);
    let duration_s = (requests / rate).max(50.0 * max_latency);
    let sim = ServingSimulator::new(
        models,
        config,
        SimConfig {
            seed: SEED,
            duration_s,
            chips,
            policy: Policy::ShortestQueue,
            sharding: Sharding::Replicate,
        },
    )
    .expect("serving models fit on one chip");
    let spec = TrafficSpec {
        process: ArrivalProcess::Poisson { rate },
        mix: ModelMix::uniform(models.len()),
    };
    // Chip 0 goes dark for the middle third; chip 1 runs at quarter speed
    // for the middle half.
    let outage = Fault::outage(0, duration_s / 3.0, duration_s / 3.0);
    let straggler = Fault::straggler(1, duration_s / 4.0, duration_s / 2.0, 4.0);
    let cap = Some(8);
    let arms: Vec<(&str, Scenario)> = vec![
        ("baseline", Scenario::default()),
        (
            "outage",
            Scenario {
                faults: vec![outage],
                ..Scenario::default()
            },
        ),
        (
            "straggler 4x",
            Scenario {
                faults: vec![straggler],
                ..Scenario::default()
            },
        ),
        (
            "cap 8",
            Scenario {
                admission_cap: cap,
                ..Scenario::default()
            },
        ),
        (
            "outage + cap 8",
            Scenario {
                faults: vec![outage],
                admission_cap: cap,
                ..Scenario::default()
            },
        ),
    ];
    let mut table = Table::new(
        format!(
            "Serving study - failure/straggler/shedding scenarios \
             (whole zoo, 2 chips, shortest-queue, 90% load, seed {SEED:#x})"
        ),
        &[
            "scenario", "offered", "done", "shed", "faults", "recov", "p50 ms", "p99 ms", "util",
        ],
    );
    for (label, scenario) in &arms {
        let report = sim
            .run_scenario_recorded(&spec, scenario, &mut NoopRecorder)
            .expect("scenario arms are well-formed");
        table.row(&[
            (*label).to_string(),
            report.offered.to_string(),
            report.completed.to_string(),
            report.shed.to_string(),
            (report.outages + report.stragglers).to_string(),
            report.recoveries.to_string(),
            format!("{:.3}", report.latency.p50_ms),
            format!("{:.3}", report.latency.p99_ms),
            format_percent(report.mean_utilization()),
        ]);
    }
    table.print();

    // --- Exact vs streaming statistics on the baseline arm -------------------
    let exact = sim
        .run_scenario_recorded(&spec, &Scenario::default(), &mut NoopRecorder)
        .expect("baseline arm");
    let streaming = sim
        .run_scenario_recorded(
            &spec,
            &Scenario {
                stats: StatsMode::Streaming,
                ..Scenario::default()
            },
            &mut NoopRecorder,
        )
        .expect("streaming arm");
    let mut table = Table::new(
        "Serving study - exact vs constant-memory streaming statistics (baseline arm)",
        &[
            "stats", "count", "mean ms", "p50 ms", "p95 ms", "p99 ms", "max ms",
        ],
    );
    for (label, latency) in [("exact", exact.latency), ("streaming", streaming.latency)] {
        table.row(&[
            label.to_string(),
            latency.count.to_string(),
            format!("{:.3}", latency.mean_ms),
            format!("{:.3}", latency.p50_ms),
            format!("{:.3}", latency.p95_ms),
            format!("{:.3}", latency.p99_ms),
            format!("{:.3}", latency.max_ms),
        ]);
    }
    table.print();
}

/// Verifies the simulator against the closed-form model: at low load the
/// measured throughput equals the offered rate and the median latency equals
/// the analytical single-inference latency.
fn analytical_crosscheck(models: &[timely_nn::Model], config: &TimelyConfig, requests: f64) {
    let mut table = Table::new(
        "Serving study - low-load cross-check vs analytical model (1 chip, fifo, 20% load)",
        &[
            "model",
            "analytical inf/s",
            "sim done/s",
            "analytical ms",
            "sim p50 ms",
            "drift",
        ],
    );
    for model in models {
        let profile = timely_sim::ModelProfile::for_model(model, config)
            .expect("serving models fit on one chip");
        let rate = 0.2 * profile.capacity_rps();
        let sim = ServingSimulator::new(
            std::slice::from_ref(model),
            config,
            SimConfig {
                seed: SEED,
                duration_s: requests / rate,
                chips: 1,
                policy: Policy::Fifo,
                sharding: Sharding::Replicate,
            },
        )
        .expect("serving models fit on one chip");
        let report = sim
            .run_scenario_recorded(
                &TrafficSpec::poisson(rate, 0),
                &Scenario::default(),
                &mut NoopRecorder,
            )
            .expect("valid traffic");
        let analytical_ms = profile.latency_s * 1e3;
        let drift = (report.latency.p50_ms - analytical_ms).abs() / analytical_ms;
        table.row(&[
            model.name().to_string(),
            format!("{:.0}", profile.capacity_rps()),
            format!("{:.0}", report.throughput_rps),
            format!("{analytical_ms:.3}"),
            format!("{:.3}", report.latency.p50_ms),
            format_percent(drift),
        ]);
    }
    table.print();
}
