//! The traced run's recorder.
//!
//! The stock `TraceRecorder` stores one span per simulated request, which
//! doubles the iteration time of an open-loop serving run. This recorder
//! keeps what the per-layer metrics read (counters and high-water gauges)
//! and only counts spans and histogram samples.

use std::collections::BTreeMap;

use timely_obs::Recorder;

/// Counters, gauges, and span/sample counts of one traced call.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CountingRecorder {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    spans: u64,
    histogram_samples: u64,
}

impl CountingRecorder {
    /// An empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// The named counter (0 if never incremented).
    pub fn counter(&self, key: &str) -> u64 {
        self.counters.get(key).copied().unwrap_or(0)
    }

    /// Sum of every counter whose key starts with `prefix`.
    pub fn counter_sum(&self, prefix: &str) -> u64 {
        self.counters
            .range(prefix.to_string()..)
            .take_while(|(key, _)| key.starts_with(prefix))
            .map(|(_, value)| value)
            .sum()
    }

    /// The named high-water gauge, if it was ever raised.
    pub fn gauge(&self, key: &str) -> Option<f64> {
        self.gauges.get(key).copied()
    }

    /// Spans the engine emitted.
    pub fn spans(&self) -> u64 {
        self.spans
    }

    /// Histogram samples the engine emitted.
    pub fn histogram_samples(&self) -> u64 {
        self.histogram_samples
    }
}

impl Recorder for CountingRecorder {
    fn enabled(&self) -> bool {
        true
    }

    fn counter_add(&mut self, key: &str, delta: u64) {
        match self.counters.get_mut(key) {
            Some(value) => *value += delta,
            None => {
                self.counters.insert(key.to_string(), delta);
            }
        }
    }

    fn gauge_max(&mut self, key: &str, value: f64) {
        match self.gauges.get_mut(key) {
            Some(peak) => *peak = peak.max(value),
            None => {
                self.gauges.insert(key.to_string(), value);
            }
        }
    }

    fn histogram_record(&mut self, _key: &str, _value: f64) {
        self.histogram_samples += 1;
    }

    fn span(&mut self, _track: u32, _name: &str, _cat: &str, _start_ts: f64, _end_ts: f64) {
        self.spans += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_sum_by_prefix_and_gauges_keep_the_peak() {
        let mut r = CountingRecorder::new();
        r.counter_add("sim.event.arrival", 3);
        r.counter_add("sim.event.completion", 2);
        r.counter_add("sim.event.arrival", 1);
        r.counter_add("sim.issued", 7);
        r.gauge_max("depth", 4.0);
        r.gauge_max("depth", 2.0);
        r.span(0, "s", "c", 0.0, 1.0);
        r.histogram_record("h", 1.0);
        assert_eq!(r.counter("sim.event.arrival"), 4);
        assert_eq!(r.counter_sum("sim.event."), 6);
        assert_eq!(r.counter("missing"), 0);
        assert_eq!(r.gauge("depth"), Some(4.0));
        assert_eq!((r.spans(), r.histogram_samples()), (1, 1));
    }
}
