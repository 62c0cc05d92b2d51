//! Fault injection and serving-scenario knobs: chip failure/recovery,
//! stragglers, SLO-aware load shedding, and the statistics mode.
//!
//! A [`Scenario`] is everything about a run that is *not* the fleet or the
//! traffic: which chips fail or slow down and when, whether arrivals are
//! shed past a queue-depth cap, and which statistics accumulator the run
//! uses. `Scenario::default()` is the plain run the golden files pin: no
//! faults, no shedding, exact stats.
//!
//! Fault injection is deterministic by construction: faults are scheduled as
//! ordinary timestamped events through the same queue as arrivals, so two
//! runs with the same seed and scenario are bit-identical.

use crate::error::SimError;
use serde::{Deserialize, Serialize};

/// What happens to a chip during a fault window.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum FaultKind {
    /// The chip stops issuing entirely; queued requests wait in place until
    /// recovery (routing still counts them, steering new work elsewhere
    /// under join-the-shortest-queue).
    Outage,
    /// The chip keeps serving but every initiation interval and latency is
    /// multiplied by `slowdown_factor` (> 1 slows the chip down).
    Straggler {
        /// Multiplier on the chip's service times for the fault window.
        slowdown_factor: f64,
    },
}

impl FaultKind {
    /// Stable label for telemetry spans and report tables.
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::Outage => "outage",
            FaultKind::Straggler { .. } => "straggler",
        }
    }
}

/// One scheduled fault window on one chip.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Fault {
    /// Index of the affected chip.
    pub chip: usize,
    /// Simulated time the fault begins, in seconds.
    pub start_s: f64,
    /// How long the fault lasts, in seconds.
    pub duration_s: f64,
    /// What the fault does to the chip.
    pub kind: FaultKind,
}

impl Fault {
    /// A full outage of `chip` over `[start_s, start_s + duration_s)`.
    pub fn outage(chip: usize, start_s: f64, duration_s: f64) -> Self {
        Self {
            chip,
            start_s,
            duration_s,
            kind: FaultKind::Outage,
        }
    }

    /// A straggler window on `chip`: service times are multiplied by
    /// `slowdown_factor` over `[start_s, start_s + duration_s)`.
    pub fn straggler(chip: usize, start_s: f64, duration_s: f64, slowdown_factor: f64) -> Self {
        Self {
            chip,
            start_s,
            duration_s,
            kind: FaultKind::Straggler { slowdown_factor },
        }
    }
}

/// How a run accumulates latency statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum StatsMode {
    /// Keep every latency sample and compute exact percentiles at report
    /// time. Memory grows linearly with completed requests; this is the
    /// default and reproduces the pre-streaming reports bit-for-bit.
    Exact,
    /// Constant-memory accumulation: per-model log-bucketed
    /// [`Histogram`](timely_obs::Histogram)s yield p50/p95/p99 upper bounds
    /// (within one bucket of exact, clamped to the observed extrema) while
    /// count, mean, and max stay exact. This is what makes 10^7+-request
    /// runs feasible.
    Streaming,
}

/// The scenario knobs of one run: fault injection, admission control,
/// and statistics mode.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Scenario {
    /// Fault windows to inject, scheduled as ordinary events.
    pub faults: Vec<Fault>,
    /// SLO-aware load shedding: an arriving request routed to a chip whose
    /// queue depth has reached this cap is dropped (counted as shed, not
    /// backlog). `None` admits everything.
    pub admission_cap: Option<usize>,
    /// Latency-statistics accumulator.
    pub stats: StatsMode,
}

impl Default for Scenario {
    fn default() -> Self {
        Self {
            faults: Vec::new(),
            admission_cap: None,
            stats: StatsMode::Exact,
        }
    }
}

impl Scenario {
    /// Validates the scenario against a fleet of `chips` chips.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidScenario`] when a fault names a chip
    /// outside the fleet, has a non-finite or negative start, a non-positive
    /// or non-finite duration, or a straggler slowdown that is not a finite
    /// positive number; and when the admission cap is zero (which would shed
    /// every arrival).
    pub fn check(&self, chips: usize) -> Result<(), SimError> {
        for (index, fault) in self.faults.iter().enumerate() {
            if fault.chip >= chips {
                return Err(SimError::InvalidScenario(format!(
                    "fault {index} names chip {} but the fleet only has {chips}",
                    fault.chip
                )));
            }
            if !(fault.start_s.is_finite() && fault.start_s >= 0.0) {
                return Err(SimError::InvalidScenario(format!(
                    "fault {index} starts at invalid time {}",
                    fault.start_s
                )));
            }
            if !(fault.duration_s.is_finite() && fault.duration_s > 0.0) {
                return Err(SimError::InvalidScenario(format!(
                    "fault {index} has invalid duration {}",
                    fault.duration_s
                )));
            }
            if let FaultKind::Straggler { slowdown_factor } = fault.kind {
                if !(slowdown_factor.is_finite() && slowdown_factor > 0.0) {
                    return Err(SimError::InvalidScenario(format!(
                        "fault {index} has invalid slowdown factor {slowdown_factor}"
                    )));
                }
            }
        }
        if self.admission_cap == Some(0) {
            return Err(SimError::InvalidScenario(
                "admission cap 0 would shed every arrival".to_string(),
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_scenario_is_the_plain_run() {
        let scenario = Scenario::default();
        assert!(scenario.faults.is_empty());
        assert_eq!(scenario.admission_cap, None);
        assert_eq!(scenario.stats, StatsMode::Exact);
        assert!(scenario.check(1).is_ok());
    }

    #[test]
    fn check_rejects_malformed_faults() {
        let bad_chip = Scenario {
            faults: vec![Fault::outage(3, 0.0, 1.0)],
            ..Scenario::default()
        };
        assert!(matches!(
            bad_chip.check(2),
            Err(SimError::InvalidScenario(_))
        ));
        let bad_start = Scenario {
            faults: vec![Fault::outage(0, f64::NAN, 1.0)],
            ..Scenario::default()
        };
        assert!(bad_start.check(1).is_err());
        let bad_duration = Scenario {
            faults: vec![Fault::outage(0, 0.0, 0.0)],
            ..Scenario::default()
        };
        assert!(bad_duration.check(1).is_err());
        let bad_slowdown = Scenario {
            faults: vec![Fault::straggler(0, 0.0, 1.0, 0.0)],
            ..Scenario::default()
        };
        assert!(bad_slowdown.check(1).is_err());
        let bad_cap = Scenario {
            admission_cap: Some(0),
            ..Scenario::default()
        };
        assert!(bad_cap.check(1).is_err());
    }

    #[test]
    fn scenario_round_trips_through_serde() {
        let scenario = Scenario {
            faults: vec![
                Fault::outage(0, 0.5, 0.25),
                Fault::straggler(1, 0.1, 0.2, 4.0),
            ],
            admission_cap: Some(32),
            stats: StatsMode::Streaming,
        };
        let text = serde::json::to_string(&scenario);
        let back: Scenario = serde::json::from_str(&text).expect("round trip");
        assert_eq!(back, scenario);
        assert_eq!(scenario.faults[1].kind.label(), "straggler");
    }
}
