//! Shared helpers for the figure, study, and perf-harness binaries.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the TIMELY
//! paper's evaluation (see `DESIGN.md` for the experiment index). This
//! library holds the table-formatting helpers they share, plus the
//! performance-tracking records behind `perf_harness` and the committed
//! `BENCH_*.json` baselines.

pub mod artifacts;
pub mod perf;
pub mod table;

pub use table::Table;
