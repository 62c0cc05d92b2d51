//! `timely-obs` — the workspace's observability layer.
//!
//! Everything here is **deterministic telemetry**: counters, high-water
//! gauges, log-bucketed [`Histogram`]s, and [`SpanRecord`]s, all keyed on
//! *simulated* time or logical counters. Given the same inputs, every byte
//! of every report and trace export is identical across runs and machines,
//! so pinning them with golden files is sound. No workspace code reads the
//! wall clock; the wall-clock profile of the engines is a `--trace 1` run of
//! the stand-alone `benchmark/` package, which keeps that time domain out of
//! every pinned artifact.
//!
//! The engines are instrumented through the [`Recorder`] trait, whose
//! methods default to inlined no-ops: a hot loop generic over `R: Recorder`
//! compiles to the uninstrumented code when driven with a [`NoopRecorder`],
//! so telemetry costs nothing unless a caller opts in with a
//! [`TraceRecorder`].
//!
//! Exports are dependency-free: the metrics report renders as sorted text or
//! JSON ([`MetricsRegistry::render_text`] / [`MetricsRegistry::render_json`])
//! and span buffers export as Chrome trace-event JSON ([`ChromeTrace`],
//! loadable in `chrome://tracing` or Perfetto) through the vendored serde
//! stubs.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod metrics;
pub mod recorder;
pub mod trace;

pub use metrics::{Histogram, MergeError, MetricsRegistry};
pub use recorder::{NoopRecorder, Recorder, TraceRecorder};
pub use trace::{ChromeTrace, SpanRecord, TraceEvent};
