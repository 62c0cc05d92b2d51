//! The [`Recorder`] trait the engines are instrumented through, with a
//! no-op default so disabled telemetry compiles away.
//!
//! Hot loops take `R: Recorder` generically: driven with a
//! [`NoopRecorder`], every method call monomorphizes to an empty inlined
//! body and the loop is the uninstrumented code — no branches, no
//! allocation, no dynamic dispatch. Driven with a [`TraceRecorder`], the
//! same loop fills a [`MetricsRegistry`] and a span buffer.
//!
//! Keys are `&str` so call sites can use static strings or keys precomputed
//! once per run; a recording implementation only allocates when it first
//! sees a key.

use crate::metrics::MetricsRegistry;
use crate::trace::SpanRecord;

/// Telemetry sink for the deterministic time domain.
///
/// All timestamps (`start_ts`/`end_ts`) live on the *run's* deterministic
/// axis: simulated seconds in the serving simulator, logical candidate
/// counts in the DSE. Implementations must never read the wall clock —
/// wall-clock profiling is [`crate::profiler::Profiler`]'s separate domain.
pub trait Recorder {
    /// Whether this recorder keeps what it is given. Call sites may use
    /// this to skip *preparing* expensive inputs (e.g. composing keys); the
    /// recording methods themselves are always safe to call.
    fn enabled(&self) -> bool {
        false
    }

    /// Adds `delta` to a named counter.
    fn counter_add(&mut self, key: &str, delta: u64) {
        let _ = (key, delta);
    }

    /// Raises a named high-water gauge to `value` if it is a new maximum.
    fn gauge_max(&mut self, key: &str, value: f64) {
        let _ = (key, value);
    }

    /// Records `value` into a named histogram.
    fn histogram_record(&mut self, key: &str, value: f64) {
        let _ = (key, value);
    }

    /// Records a completed span on `track` from `start_ts` to `end_ts`.
    fn span(&mut self, track: u32, name: &str, cat: &str, start_ts: f64, end_ts: f64) {
        let _ = (track, name, cat, start_ts, end_ts);
    }
}

/// The disabled recorder: every method is the trait's empty default, so
/// instrumented hot paths compile to their uninstrumented form.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {}

/// The recording implementation: counters, gauges, and histograms go into a
/// [`MetricsRegistry`], spans into an ordered buffer ready for
/// [`crate::trace::ChromeTrace`] export.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceRecorder {
    metrics: MetricsRegistry,
    spans: Vec<SpanRecord>,
}

impl TraceRecorder {
    /// An empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// The recorded metrics.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// The recorded spans, in recording order.
    pub fn spans(&self) -> &[SpanRecord] {
        &self.spans
    }
}

impl Recorder for TraceRecorder {
    fn enabled(&self) -> bool {
        true
    }

    fn counter_add(&mut self, key: &str, delta: u64) {
        self.metrics.counter_add(key, delta);
    }

    fn gauge_max(&mut self, key: &str, value: f64) {
        self.metrics.gauge_max(key, value);
    }

    fn histogram_record(&mut self, key: &str, value: f64) {
        self.metrics.histogram_record(key, value);
    }

    fn span(&mut self, track: u32, name: &str, cat: &str, start_ts: f64, end_ts: f64) {
        self.spans.push(SpanRecord {
            track,
            name: name.to_string(),
            cat: cat.to_string(),
            start_ts,
            end_ts,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_noop_recorder_is_disabled_and_records_nothing() {
        let mut r = NoopRecorder;
        assert!(!r.enabled());
        r.counter_add("k", 1);
        r.gauge_max("g", 1.0);
        r.histogram_record("h", 1.0);
        r.span(0, "s", "c", 0.0, 1.0);
        // Nothing to observe — the point is that this compiles and is free.
    }

    #[test]
    fn a_custom_impl_gets_the_noop_defaults_for_free() {
        // The trait's contract: `impl Recorder for T {}` is valid and inert.
        #[derive(Debug)]
        struct Inert;
        impl Recorder for Inert {}
        let mut r = Inert;
        assert!(!r.enabled());
        r.counter_add("k", 1);
    }

    #[test]
    fn the_trace_recorder_keeps_everything_in_order() {
        let mut r = TraceRecorder::new();
        assert!(r.enabled());
        r.counter_add("events", 2);
        r.counter_add("events", 3);
        r.gauge_max("depth", 4.0);
        r.gauge_max("depth", 2.0);
        r.histogram_record("lat", 1.5);
        r.span(1, "b", "cat", 2.0, 3.0);
        r.span(0, "a", "cat", 0.0, 1.0);
        assert_eq!(r.metrics().counter("events"), 5);
        assert_eq!(r.metrics().gauge("depth"), Some(4.0));
        assert_eq!(r.metrics().histogram("lat").map(|h| h.count()), Some(1));
        let names: Vec<&str> = r.spans().iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, vec!["b", "a"], "recording order, not sorted");
    }
}
