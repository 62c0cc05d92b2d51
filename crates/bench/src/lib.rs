//! Shared helpers for the figure and study binaries.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the TIMELY
//! paper's evaluation (see README's "Reproducing the paper's evaluation"
//! for the index). This library holds the table-formatting helpers and the
//! study artifacts they share.

pub mod artifacts;
pub mod table;

pub use table::Table;
