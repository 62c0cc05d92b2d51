//! Performance-tracking records and the soft regression gate.
//!
//! The `perf_harness` binary measures two throughput numbers — design points
//! evaluated per second in `timely-dse` (screened vs. unscreened) and
//! simulator events processed per second in `timely-sim` — and serializes
//! them as `BENCH_dse.json` / `BENCH_sim.json` at the repository root.
//! `scripts/verify.sh` re-measures and compares against the committed
//! baselines through [`gate`]: a *soft* gate that reports any delta but only
//! fails on a more-than-2x slowdown, so routine machine-to-machine noise
//! never blocks a build while a real regression does.

use serde::{Deserialize, Serialize};

/// Measured throughput of one search arm of the DSE benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ArmStats {
    /// Candidates offered to the explorer.
    pub visited: usize,
    /// Candidates discarded by bound-based screening.
    pub screened_out: usize,
    /// Candidates passed through to the evaluator.
    pub evaluated: usize,
    /// Wall-clock duration of the arm, in seconds.
    pub seconds: f64,
    /// Candidate throughput: `visited / seconds`.
    pub points_per_sec: f64,
}

/// The DSE half of the perf record (`BENCH_dse.json`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DseBench {
    /// `"smoke"` or `"full"` — gate comparisons require matching modes.
    pub mode: String,
    /// Size of the searched space, in points.
    pub space_points: usize,
    /// The bound-screened arm.
    pub screened: ArmStats,
    /// The unscreened (evaluate-everything) arm.
    pub unscreened: ArmStats,
    /// `screened.points_per_sec / unscreened.points_per_sec`.
    pub screened_speedup: f64,
}

/// The large-scale arm of the sim benchmark: an order of magnitude more
/// requests than the exact arm, run in constant-memory streaming-statistics
/// mode.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SimLargeArm {
    /// Requests offered in the large run.
    pub requests: u64,
    /// Simulator events processed (arrivals + issues + completions).
    pub events: u64,
    /// Wall-clock duration, in seconds.
    pub seconds: f64,
    /// Event throughput: `events / seconds`.
    pub events_per_sec: f64,
    /// Resident latency-statistic slots: models × (histogram buckets +
    /// scalar accumulators). Constant in the request count — the
    /// peak-memory proxy that distinguishes streaming mode from the exact
    /// accumulator's one-slot-per-request growth.
    pub stat_slots: u64,
}

/// The simulator half of the perf record (`BENCH_sim.json`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimBench {
    /// `"smoke"` or `"full"` — gate comparisons require matching modes.
    pub mode: String,
    /// Requests offered across the measured runs.
    pub requests: u64,
    /// Simulator events processed (arrivals + issues + completions).
    pub events: u64,
    /// Wall-clock duration, in seconds.
    pub seconds: f64,
    /// Event throughput: `events / seconds`.
    pub events_per_sec: f64,
    /// The streaming-statistics large arm.
    pub large: SimLargeArm,
}

/// A soft-gate verdict for one throughput metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GateVerdict {
    /// Current throughput is at least the baseline's (within 10%).
    Pass,
    /// Slower than baseline but within the 2x tolerance: report, don't fail.
    Warn,
    /// More than 2x slower than baseline: a hard regression.
    Fail,
}

/// Compares a current throughput against its committed baseline (both in
/// units-per-second, higher is better). The gate is deliberately *soft*:
/// anything down to half the baseline only warns — wall-clock noise between
/// machines and build caches is real — and only a >2x slowdown fails.
/// Non-positive or non-finite inputs fail outright (a broken measurement is
/// a regression too).
pub fn gate(baseline: f64, current: f64) -> GateVerdict {
    if !(baseline > 0.0 && baseline.is_finite() && current > 0.0 && current.is_finite()) {
        return GateVerdict::Fail;
    }
    let ratio = current / baseline;
    if ratio < 0.5 {
        GateVerdict::Fail
    } else if ratio < 0.9 {
        GateVerdict::Warn
    } else {
        GateVerdict::Pass
    }
}

/// One formatted gate line: metric name, baseline, current, ratio, verdict.
pub fn gate_line(name: &str, baseline: f64, current: f64) -> (GateVerdict, String) {
    let verdict = gate(baseline, current);
    let ratio = if baseline > 0.0 {
        current / baseline
    } else {
        f64::NAN
    };
    let tag = match verdict {
        GateVerdict::Pass => "ok",
        GateVerdict::Warn => "WARN",
        GateVerdict::Fail => "FAIL",
    };
    (
        verdict,
        format!(
            "{name}: baseline {baseline:.0}/s, current {current:.0}/s, ratio {ratio:.2} [{tag}]"
        ),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_thresholds() {
        assert_eq!(gate(1000.0, 1000.0), GateVerdict::Pass);
        assert_eq!(gate(1000.0, 5000.0), GateVerdict::Pass);
        assert_eq!(gate(1000.0, 901.0), GateVerdict::Pass);
        assert_eq!(gate(1000.0, 899.0), GateVerdict::Warn);
        assert_eq!(gate(1000.0, 501.0), GateVerdict::Warn);
        assert_eq!(gate(1000.0, 499.0), GateVerdict::Fail);
        // Broken measurements are regressions, not passes.
        assert_eq!(gate(0.0, 1000.0), GateVerdict::Fail);
        assert_eq!(gate(1000.0, 0.0), GateVerdict::Fail);
        assert_eq!(gate(1000.0, f64::NAN), GateVerdict::Fail);
        assert_eq!(gate(f64::INFINITY, 1000.0), GateVerdict::Fail);
    }

    #[test]
    fn gate_lines_carry_the_verdict() {
        let (verdict, line) = gate_line("dse points/sec", 1000.0, 400.0);
        assert_eq!(verdict, GateVerdict::Fail);
        assert!(line.contains("[FAIL]"));
        assert!(line.contains("0.40"));
        let (verdict, line) = gate_line("sim events/sec", 1000.0, 1200.0);
        assert_eq!(verdict, GateVerdict::Pass);
        assert!(line.contains("[ok]"));
    }

    #[test]
    fn bench_records_round_trip_through_json() {
        let dse = DseBench {
            mode: "smoke".to_string(),
            space_points: 103_680,
            screened: ArmStats {
                visited: 4096,
                screened_out: 4000,
                evaluated: 96,
                seconds: 0.125,
                points_per_sec: 32_768.0,
            },
            unscreened: ArmStats {
                visited: 512,
                screened_out: 0,
                evaluated: 512,
                seconds: 0.25,
                points_per_sec: 2048.0,
            },
            screened_speedup: 16.0,
        };
        let text = serde::json::to_string(&dse);
        let back: DseBench = serde::json::from_str(&text).expect("DseBench round-trips");
        assert_eq!(back, dse);

        let sim = SimBench {
            mode: "smoke".to_string(),
            requests: 600,
            events: 1800,
            seconds: 0.05,
            events_per_sec: 36_000.0,
            large: SimLargeArm {
                requests: 6000,
                events: 18_000,
                seconds: 0.25,
                events_per_sec: 72_000.0,
                stat_slots: 104,
            },
        };
        let text = serde::json::to_string(&sim);
        let back: SimBench = serde::json::from_str(&text).expect("SimBench round-trips");
        assert_eq!(back, sim);
    }
}
