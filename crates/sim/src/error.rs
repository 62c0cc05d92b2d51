//! Structured simulator errors.
//!
//! The fallible simulator APIs (`ServingSimulator::run_scenario_recorded`,
//! `ModelMix::weighted`, `EventQueue::try_push`, the `check` methods)
//! return [`SimError`] instead of panicking, so library callers stay
//! panic-free.

use std::fmt;

/// Errors surfaced by the fallible `timely-sim` APIs.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// An event was scheduled at a NaN, infinite, or negative simulated
    /// time — a scheduling bug in the caller, reported structurally instead
    /// of panicking mid-run.
    InvalidEventTime {
        /// The offending timestamp, in seconds.
        time_s: f64,
    },
    /// The arrival process or model mix is malformed.
    InvalidTraffic(String),
    /// The dispatch policy parameters are malformed.
    InvalidPolicy(String),
    /// A fault-injection / admission-control scenario is malformed.
    InvalidScenario(String),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::InvalidEventTime { time_s } => {
                write!(f, "event scheduled at invalid time {time_s}")
            }
            SimError::InvalidTraffic(reason) => write!(f, "invalid traffic: {reason}"),
            SimError::InvalidPolicy(reason) => write!(f, "invalid policy: {reason}"),
            SimError::InvalidScenario(reason) => write!(f, "invalid scenario: {reason}"),
        }
    }
}

impl std::error::Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_offending_value() {
        let err = SimError::InvalidEventTime { time_s: f64::NAN };
        assert!(err.to_string().contains("invalid time"));
        let err = SimError::InvalidTraffic("Poisson rate must be > 0".to_string());
        assert!(err.to_string().contains("Poisson rate"));
    }
}
