//! Scheduler edge cases: degenerate policy/fleet parameters must collapse to
//! the plain-FIFO behavior, and degenerate traffic must terminate cleanly.

use timely_core::TimelyConfig;
use timely_nn::zoo;
use timely_obs::NoopRecorder;
use timely_sim::{
    ArrivalProcess, ModelMix, Policy, Scenario, ServingSimulator, Sharding, SimConfig, TrafficSpec,
};

fn simulator(chips: usize, policy: Policy, duration_s: f64) -> ServingSimulator {
    ServingSimulator::new(
        &[zoo::cnn_1(), zoo::mlp_l()],
        &TimelyConfig::paper_default(),
        SimConfig {
            seed: 0xED6E,
            duration_s,
            chips,
            policy,
            sharding: Sharding::Replicate,
        },
    )
    .expect("small models fit on one chip")
}

/// A moderately loaded traffic spec relative to CNN-1's capacity.
fn traffic(sim: &ServingSimulator, load: f64) -> TrafficSpec {
    TrafficSpec {
        process: ArrivalProcess::Poisson {
            rate: load * sim.fleet_capacity_rps(0),
        },
        mix: ModelMix::uniform(2),
    }
}

#[test]
fn zero_length_batching_window_is_fifo() {
    // A batch whose deadline fires immediately (window 0) never holds a
    // request back, so every statistic must match plain FIFO exactly.
    let duration = 0.02;
    let fifo = simulator(2, Policy::Fifo, duration);
    let batched = simulator(
        2,
        Policy::Batched {
            window_s: 0.0,
            max_batch: usize::MAX,
        },
        duration,
    );
    for load in [0.3, 1.2] {
        let spec = traffic(&fifo, load);
        assert_eq!(
            fifo.run_scenario_recorded(&spec, &Scenario::default(), &mut NoopRecorder)
                .unwrap(),
            batched
                .run_scenario_recorded(&spec, &Scenario::default(), &mut NoopRecorder)
                .unwrap(),
            "window-0 batching diverged from FIFO at load {load}"
        );
    }
}

#[test]
fn shortest_queue_on_one_chip_is_fifo() {
    // With a single chip there is nothing to balance: join-shortest-queue
    // must route identically to FIFO's round-robin over one host.
    let duration = 0.02;
    let fifo = simulator(1, Policy::Fifo, duration);
    let jsq = simulator(1, Policy::ShortestQueue, duration);
    for load in [0.4, 1.1] {
        let spec = traffic(&fifo, load);
        assert_eq!(
            fifo.run_scenario_recorded(&spec, &Scenario::default(), &mut NoopRecorder)
                .unwrap(),
            jsq.run_scenario_recorded(&spec, &Scenario::default(), &mut NoopRecorder)
                .unwrap(),
            "single-chip shortest-queue diverged from FIFO at load {load}"
        );
    }
}

#[test]
fn empty_trace_terminates_with_empty_stats() {
    // An arrival process whose first event lands beyond the horizon yields a
    // simulation with no work: it must terminate and report all-zero stats.
    let sim = simulator(2, Policy::Fifo, 1e-6);
    let report = sim
        .run_scenario_recorded(
            &TrafficSpec {
                process: ArrivalProcess::Poisson { rate: 1e-9 },
                mix: ModelMix::uniform(2),
            },
            &Scenario::default(),
            &mut NoopRecorder,
        )
        .unwrap();
    assert_eq!(report.offered, 0);
    assert_eq!(report.completed, 0);
    assert_eq!(report.backlog, 0);
    assert_eq!(report.throughput_rps, 0.0);
    assert_eq!(report.latency.count, 0);
    assert_eq!(report.latency.p50_ms, 0.0);
    assert_eq!(report.latency.p99_ms, 0.0);
    assert_eq!(report.max_queue_depth, 0);
    assert_eq!(report.mean_queue_depth, 0.0);
    assert_eq!(report.total_energy_mj, 0.0);
    assert_eq!(report.energy_mj_per_request, 0.0);
    for chip in &report.chips {
        assert_eq!(chip.issued, 0);
        assert_eq!(chip.utilization, 0.0);
    }
    for stats in &report.per_model {
        assert_eq!(stats.offered, 0);
        assert_eq!(stats.completed, 0);
    }
}
