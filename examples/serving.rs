//! Serving quickstart: simulate a two-chip TIMELY fleet serving VGG-16
//! ("VGG-D") under open-loop Poisson traffic and a saturating closed loop,
//! and print latency percentiles, utilization, and energy per request.
//!
//! Run with `cargo run --release --example serving`.

use timely::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let model = timely::nn::zoo::vgg_d();
    let chip_config = TimelyConfig::paper_default();

    let sim = ServingSimulator::new(
        std::slice::from_ref(&model),
        &chip_config,
        SimConfig {
            seed: 7,
            duration_s: 1.0,
            chips: 2,
            policy: Policy::ShortestQueue,
            sharding: Sharding::Replicate,
        },
    )?;
    let profile = &sim.profiles()[0];
    println!("model: {}", profile.name);
    println!(
        "per-chip capacity: {:.0} inf/s (initiation interval {:.1} us, unqueued latency {:.2} ms)",
        profile.capacity_rps(),
        profile.initiation_interval_s * 1e6,
        profile.latency_s * 1e3,
    );

    // Open loop at 70% of the two-chip fleet's capacity.
    let rate = 0.7 * sim.fleet_capacity_rps(0);
    let report = sim.run_scenario_recorded(
        &TrafficSpec {
            process: ArrivalProcess::Poisson { rate },
            mix: ModelMix::single(0),
        },
        &Scenario::default(),
        &mut NoopRecorder,
    )?;
    println!("\nopen loop at {rate:.0} req/s over 2 chips:");
    print_report(&report);

    // Closed loop: enough clients to saturate both chips.
    let clients = 2 * profile.saturating_clients();
    let report = sim.run_scenario_recorded(
        &TrafficSpec {
            process: ArrivalProcess::ClosedLoop {
                clients,
                think_time_s: 0.0,
            },
            mix: ModelMix::single(0),
        },
        &Scenario::default(),
        &mut NoopRecorder,
    )?;
    println!("\nclosed loop with {clients} clients (saturation):");
    print_report(&report);
    Ok(())
}

fn print_report(report: &SimReport) {
    println!(
        "  completed {} of {} offered ({:.0} req/s, backlog {})",
        report.completed, report.offered, report.throughput_rps, report.backlog
    );
    println!(
        "  latency p50/p95/p99: {:.2} / {:.2} / {:.2} ms (max {:.2} ms)",
        report.latency.p50_ms, report.latency.p95_ms, report.latency.p99_ms, report.latency.max_ms
    );
    println!(
        "  mean utilization {:.1}%, mean queue depth {:.2}, energy {:.2} mJ/request",
        report.mean_utilization() * 100.0,
        report.mean_queue_depth,
        report.energy_mj_per_request
    );
}
