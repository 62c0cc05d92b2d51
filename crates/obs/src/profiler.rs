//! Opt-in **wall-clock** profiling — the other time domain.
//!
//! This is the single module in the workspace (outside the perf harness's
//! own timing loops) that reads the wall clock; its two `Instant::now` calls
//! carry the workspace's only library `#[expect(clippy::disallowed_methods)]`
//! attributes. Everything here is machine-dependent by construction: use it
//! for phase breakdowns next to `BENCH_*.json` numbers, never for anything
//! golden-pinned.
//!
//! The [`Profiler`] sits behind an explicit constructor
//! ([`Profiler::start`], no `Default`), so a wall-clock reading is always a
//! visible, deliberate act at the call site.

use std::time::Instant;

/// One named phase and the wall-clock seconds it took.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfilePhase {
    /// Phase name.
    pub name: String,
    /// Wall-clock duration in seconds (machine-dependent by design).
    pub seconds: f64,
}

/// A sequential wall-clock phase profiler.
///
/// Phases are non-overlapping: [`Profiler::begin_phase`] closes any open
/// phase before opening the next, and [`Profiler::end_phase`] closes the
/// current one, so the phase list reads as a breakdown of elapsed time.
#[derive(Debug)]
pub struct Profiler {
    epoch: Instant,
    phases: Vec<ProfilePhase>,
    open: Option<(String, Instant)>,
}

impl Profiler {
    /// Starts profiling now. The explicit constructor is the module's
    /// contract: wall-clock time enters a program through this call and
    /// nowhere else.
    #[expect(
        clippy::disallowed_methods,
        reason = "the profiling time domain lives here by design: Profiler is the workspace's single wall-clock entry point, opt-in behind an explicit constructor and never on a golden-output path"
    )]
    pub fn start() -> Self {
        Self {
            epoch: Instant::now(),
            phases: Vec::new(),
            open: None,
        }
    }

    /// Opens a named phase, closing the previous one if still open.
    #[expect(
        clippy::disallowed_methods,
        reason = "the profiling time domain lives here by design: Profiler is the workspace's single wall-clock entry point, opt-in behind an explicit constructor and never on a golden-output path"
    )]
    pub fn begin_phase(&mut self, name: &str) {
        self.end_phase();
        self.open = Some((name.to_string(), Instant::now()));
    }

    /// Closes the open phase, if any, appending it to the breakdown.
    pub fn end_phase(&mut self) {
        if let Some((name, started)) = self.open.take() {
            self.phases.push(ProfilePhase {
                name,
                seconds: started.elapsed().as_secs_f64(),
            });
        }
    }

    /// Runs `work` inside a named phase and returns its result.
    pub fn time<T>(&mut self, name: &str, work: impl FnOnce() -> T) -> T {
        self.begin_phase(name);
        let result = work();
        self.end_phase();
        result
    }

    /// The completed phases, in execution order.
    pub fn phases(&self) -> &[ProfilePhase] {
        &self.phases
    }

    /// Wall-clock seconds since [`Profiler::start`].
    pub fn total_seconds(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// One human-readable breakdown line, e.g.
    /// `profile [wall-clock]: measure_dse 1.203s (79.4%), measure_sim
    /// 0.311s (20.6%)`. Percentages are of the phase total, so they sum to
    /// ~100 even when un-phased time elapsed between phases.
    pub fn render(&self) -> String {
        let phase_total: f64 = self.phases.iter().map(|p| p.seconds).sum();
        let mut out = String::from("profile [wall-clock]:");
        if self.phases.is_empty() {
            out.push_str(" (no phases)");
            return out;
        }
        for (i, phase) in self.phases.iter().enumerate() {
            let share = if phase_total > 0.0 {
                100.0 * phase.seconds / phase_total
            } else {
                0.0
            };
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                " {} {:.3}s ({share:.1}%)",
                phase.name, phase.seconds
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phases_accumulate_in_order_with_nonnegative_durations() {
        let mut p = Profiler::start();
        p.begin_phase("a");
        p.begin_phase("b"); // implicitly closes "a"
        p.end_phase();
        p.end_phase(); // idempotent: nothing open
        let names: Vec<&str> = p.phases().iter().map(|ph| ph.name.as_str()).collect();
        assert_eq!(names, vec!["a", "b"]);
        assert!(p.phases().iter().all(|ph| ph.seconds >= 0.0));
        assert!(p.total_seconds() >= 0.0);
    }

    #[test]
    fn time_wraps_work_and_returns_its_result() {
        let mut p = Profiler::start();
        let value = p.time("square", || 7 * 7);
        assert_eq!(value, 49);
        assert_eq!(p.phases().len(), 1);
        assert_eq!(p.phases()[0].name, "square");
    }

    #[test]
    fn render_is_one_line_with_percentages() {
        let mut p = Profiler::start();
        p.time("only", || ());
        let line = p.render();
        assert!(line.starts_with("profile [wall-clock]: only "));
        assert!(line.contains('%'));
        assert_eq!(line.lines().count(), 1);
        assert_eq!(
            Profiler::start().render(),
            "profile [wall-clock]: (no phases)"
        );
    }
}
