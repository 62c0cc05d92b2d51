//! Integration tests for serving scenarios: fault/straggler injection,
//! admission-control shedding, streaming statistics, the stale
//! batch-deadline regression, and a deep closed loop seeded at one instant —
//! all pinned for determinism.

use timely_core::TimelyConfig;
use timely_nn::zoo;
use timely_obs::{NoopRecorder, TraceRecorder};
use timely_sim::{
    ArrivalProcess, Fault, ModelMix, Policy, Scenario, ServingSimulator, Sharding, SimConfig,
    StatsMode, TrafficSpec,
};

/// A two-model, multi-chip replicated fleet on the paper-default chip.
fn fleet(chips: usize, policy: Policy) -> ServingSimulator {
    ServingSimulator::new(
        &[zoo::cnn_1(), zoo::mlp_l()],
        &TimelyConfig::paper_default(),
        SimConfig {
            seed: 0xFA_17,
            duration_s: 0.02,
            chips,
            policy,
            sharding: Sharding::Replicate,
        },
    )
    .expect("paper-default fleet evaluates")
}

/// Poisson traffic at `load` times the fleet's model-0 capacity, 3:1 mix.
fn traffic(sim: &ServingSimulator, load: f64) -> TrafficSpec {
    TrafficSpec {
        process: ArrivalProcess::Poisson {
            rate: load * sim.fleet_capacity_rps(0),
        },
        mix: ModelMix::weighted(vec![(0, 3.0), (1, 1.0)]).expect("positive weights"),
    }
}

/// An outage on chip 0, a 4x straggler window on chip 1, and a queue cap.
fn faulty_scenario() -> Scenario {
    Scenario {
        faults: vec![
            Fault::outage(0, 0.004, 0.006),
            Fault::straggler(1, 0.002, 0.010, 4.0),
        ],
        admission_cap: Some(32),
        ..Scenario::default()
    }
}

#[test]
fn scenario_runs_are_deterministic() {
    let sim = fleet(3, Policy::ShortestQueue);
    let spec = traffic(&sim, 0.9);
    let scenario = faulty_scenario();
    let a = sim
        .run_scenario_recorded(&spec, &scenario, &mut NoopRecorder)
        .expect("valid scenario");
    let b = sim
        .run_scenario_recorded(&spec, &scenario, &mut NoopRecorder)
        .expect("valid scenario");
    assert_eq!(a, b, "same seed + scenario must be bit-identical");
    assert_eq!(a.outages, 1);
    assert_eq!(a.stragglers, 1);
    assert_eq!(a.recoveries, 2);
}

#[test]
fn a_default_scenario_is_exactly_a_plain_run() {
    let sim = fleet(2, Policy::Fifo);
    let spec = traffic(&sim, 0.7);
    let scenario = sim
        .run_scenario_recorded(&spec, &Scenario::default(), &mut NoopRecorder)
        .expect("default scenario");
    assert_eq!(scenario.shed, 0);
    assert_eq!(
        scenario.outages + scenario.stragglers + scenario.recoveries,
        0
    );
}

#[test]
fn a_deep_closed_loop_seeded_at_one_instant_ties_out() {
    // 1,000 clients all issue at t=0 into a two-chip fleet on a 20 ms
    // horizon: hundreds of events pending at once with a zero initial time
    // spread, where a time-bucketed queue degrades to linear scans.
    let sim = fleet(2, Policy::ShortestQueue);
    let clients = 1_000;
    let spec = TrafficSpec {
        process: ArrivalProcess::ClosedLoop {
            clients,
            think_time_s: clients as f64 / (0.8 * sim.fleet_capacity_rps(0)),
        },
        mix: ModelMix::weighted(vec![(0, 3.0), (1, 1.0)]).expect("positive weights"),
    };
    let a = sim
        .run_scenario_recorded(&spec, &Scenario::default(), &mut NoopRecorder)
        .expect("closed-loop run");
    let b = sim
        .run_scenario_recorded(&spec, &Scenario::default(), &mut NoopRecorder)
        .expect("closed-loop run");
    assert_eq!(a, b, "same seed must be bit-identical");
    assert!(a.offered >= clients as u64, "every client issues at t=0");
    assert!(a.max_queue_depth > 100, "the loop must build a deep queue");
    assert_eq!(
        a.offered,
        a.completed + a.backlog + a.shed,
        "every offered request is completed, backlogged, or shed"
    );
}

#[test]
fn fault_and_shed_counters_tie_out_against_the_report() {
    let sim = fleet(2, Policy::Fifo);
    // Overload a capped fleet so shedding actually happens.
    let spec = traffic(&sim, 3.0);
    let scenario = Scenario {
        faults: vec![
            Fault::outage(0, 0.002, 0.004),
            Fault::straggler(1, 0.001, 0.002, 8.0),
        ],
        admission_cap: Some(4),
        ..Scenario::default()
    };
    let mut recorder = TraceRecorder::new();
    let report = sim
        .run_scenario_recorded(&spec, &scenario, &mut recorder)
        .expect("valid scenario");
    assert!(report.shed > 0, "an overloaded capped fleet must shed");
    let metrics = recorder.metrics();
    assert_eq!(metrics.counter("sim.shed"), report.shed);
    assert_eq!(metrics.counter("sim.failures.outage"), report.outages);
    assert_eq!(metrics.counter("sim.failures.straggler"), report.stragglers);
    assert_eq!(metrics.counter("sim.failures.recovered"), report.recoveries);
    // One span per fault window, on the faulted chip's track.
    let fault_spans: Vec<_> = recorder
        .spans()
        .iter()
        .filter(|s| s.cat == "fault")
        .collect();
    assert_eq!(fault_spans.len(), 2);
    assert!(fault_spans
        .iter()
        .any(|s| s.name == "outage" && s.track == 0));
    assert!(fault_spans
        .iter()
        .any(|s| s.name == "straggler" && s.track == 1));
    // The recorder must not perturb the run.
    assert_eq!(
        report,
        sim.run_scenario_recorded(&spec, &scenario, &mut NoopRecorder)
            .expect("re-run")
    );
}

#[test]
fn shedding_preserves_request_accounting() {
    let sim = fleet(2, Policy::Fifo);
    let spec = traffic(&sim, 3.0);
    let scenario = Scenario {
        admission_cap: Some(2),
        ..Scenario::default()
    };
    let report = sim
        .run_scenario_recorded(&spec, &scenario, &mut NoopRecorder)
        .expect("valid scenario");
    assert!(report.shed > 0);
    assert_eq!(
        report.offered,
        report.completed + report.backlog + report.shed,
        "every offered request is completed, backlogged, or shed"
    );
}

#[test]
fn an_outage_window_degrades_tail_latency() {
    let sim = fleet(2, Policy::ShortestQueue);
    let spec = traffic(&sim, 0.8);
    let baseline = sim
        .run_scenario_recorded(&spec, &Scenario::default(), &mut NoopRecorder)
        .expect("valid traffic");
    let scenario = Scenario {
        faults: vec![Fault::outage(0, 0.002, 0.012)],
        ..Scenario::default()
    };
    let faulted = sim
        .run_scenario_recorded(&spec, &scenario, &mut NoopRecorder)
        .expect("valid scenario");
    assert!(
        faulted.latency.p99_ms >= baseline.latency.p99_ms,
        "losing half the fleet for most of the run cannot improve p99"
    );
    assert!(faulted.completed <= baseline.completed);
}

#[test]
fn streaming_stats_agree_with_exact_within_a_bucket() {
    let sim = fleet(3, Policy::ShortestQueue);
    let spec = traffic(&sim, 0.9);
    let exact = sim
        .run_scenario_recorded(&spec, &Scenario::default(), &mut NoopRecorder)
        .expect("exact run");
    let streaming = sim
        .run_scenario_recorded(
            &spec,
            &Scenario {
                stats: StatsMode::Streaming,
                ..Scenario::default()
            },
            &mut NoopRecorder,
        )
        .expect("streaming run");
    // Everything outside the latency digests is unchanged.
    assert_eq!(exact.offered, streaming.offered);
    assert_eq!(exact.completed, streaming.completed);
    assert_eq!(exact.backlog, streaming.backlog);
    assert_eq!(exact.chips, streaming.chips);
    assert_eq!(exact.latency.count, streaming.latency.count);
    // Exact moments survive streaming; the max is exact by construction.
    assert!(
        (exact.latency.mean_ms - streaming.latency.mean_ms).abs() <= 1e-9 * exact.latency.mean_ms
    );
    assert_eq!(
        exact.latency.max_ms.to_bits(),
        streaming.latency.max_ms.to_bits()
    );
    // Quantiles come back as log-bucket upper bounds: never below the exact
    // value, never more than one ratio-2 bucket above it.
    for (e, s) in [
        (exact.latency.p50_ms, streaming.latency.p50_ms),
        (exact.latency.p95_ms, streaming.latency.p95_ms),
        (exact.latency.p99_ms, streaming.latency.p99_ms),
    ] {
        assert!(
            s >= e * (1.0 - 1e-12),
            "bucket upper bound below exact: {s} < {e}"
        );
        assert!(
            s <= e * 2.0 * (1.0 + 1e-12),
            "more than one bucket high: {s} > 2*{e}"
        );
    }
    for (em, sm) in exact.per_model.iter().zip(&streaming.per_model) {
        assert_eq!(em.offered, sm.offered);
        assert_eq!(em.completed, sm.completed);
        assert_eq!(em.latency.count, sm.latency.count);
    }
}

#[test]
fn stale_batch_deadlines_are_no_ops() {
    // Run A: a window comfortably longer than any interarrival gap at 3x
    // overload, so every batch flushes on size and its deadline fires later
    // as a stale no-op.
    // Run B: a window longer than the horizon, so no deadline ever fires.
    // Both runs push one deadline event per opened batch, so event sequence
    // numbers line up and the reports must be equal — which they are only
    // if stale deadlines really are no-ops.
    let sim = fleet(
        2,
        Policy::Batched {
            window_s: 0.005,
            max_batch: 2,
        },
    );
    let spec = traffic(&sim, 3.0);
    let mut a = sim
        .run_scenario_recorded(&spec, &Scenario::default(), &mut NoopRecorder)
        .expect("short-window run");

    let sim_b = fleet(
        2,
        Policy::Batched {
            window_s: 1.0,
            max_batch: 2,
        },
    );
    let mut b = sim_b
        .run_scenario_recorded(&spec, &Scenario::default(), &mut NoopRecorder)
        .expect("long-window run");
    // The time-weighted queue-depth integral is split into different
    // summation chunks by the extra (no-op) deadline events, so it can drift
    // by a few ulps; every other field must match exactly.
    let depth_a = a.mean_queue_depth;
    let depth_b = b.mean_queue_depth;
    assert!((depth_a - depth_b).abs() <= 1e-9 * depth_a.abs().max(1.0));
    a.mean_queue_depth = 0.0;
    b.mean_queue_depth = 0.0;
    assert_eq!(a, b, "stale deadlines must not change the run");
}

#[test]
fn malformed_scenarios_are_rejected_structurally() {
    let sim = fleet(2, Policy::Fifo);
    let spec = traffic(&sim, 0.5);
    let out_of_range = Scenario {
        faults: vec![Fault::outage(9, 0.0, 0.001)],
        ..Scenario::default()
    };
    assert!(sim
        .run_scenario_recorded(&spec, &out_of_range, &mut NoopRecorder)
        .is_err());
    let zero_cap = Scenario {
        admission_cap: Some(0),
        ..Scenario::default()
    };
    assert!(sim
        .run_scenario_recorded(&spec, &zero_cap, &mut NoopRecorder)
        .is_err());
    let bad_mix = TrafficSpec {
        process: ArrivalProcess::Poisson { rate: 1.0 },
        mix: ModelMix::weighted(vec![(7, 1.0)]).expect("positive weight"),
    };
    assert!(sim
        .run_scenario_recorded(&bad_mix, &Scenario::default(), &mut NoopRecorder)
        .is_err());
}
