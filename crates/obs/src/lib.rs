//! `timely-obs` — the workspace's observability layer.
//!
//! Two strictly separated time domains, so instrumentation never threatens
//! the golden-file regime:
//!
//! * **Deterministic telemetry** — counters, high-water gauges, log-bucketed
//!   [`Histogram`]s, and [`SpanRecord`]s, all keyed on *simulated* time or
//!   logical counters. Given the same inputs, every byte of every report and
//!   trace export is identical across runs and machines; pinning them with
//!   golden files is sound.
//! * **Opt-in wall-clock profiling** — the [`Profiler`] in [`profiler`], the
//!   single library module of the workspace allowed to read the wall clock
//!   (its `Instant::now` calls are the only library sites that carry an
//!   `#[expect(clippy::disallowed_methods)]`). Its output is
//!   machine-dependent by design and must never feed a pinned artifact.
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
pub mod profiler;
pub mod recorder;
pub mod trace;

pub use metrics::{Histogram, MergeError, MetricsRegistry};
pub use profiler::{ProfilePhase, Profiler};
pub use recorder::{NoopRecorder, Recorder, TraceRecorder};
pub use trace::{ChromeTrace, SpanRecord, TraceEvent};
