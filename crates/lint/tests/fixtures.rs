//! Fixture-based gate tests: one seeded-violation fixture per rule family
//! that must FAIL, and one clean fixture that must PASS. The fixtures live
//! under `tests/fixtures/` (excluded from both compilation and the
//! workspace scan), and are linted here under synthetic production `src/`
//! paths so every rule is in force.

use std::collections::BTreeMap;
use std::path::PathBuf;
use timely_lint::{lint_source, LintReport};

fn fixture(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// Lints a fixture as if it sat on a production source path.
fn lint_fixture(name: &str) -> LintReport {
    lint_source(&format!("crates/demo/src/{name}"), &fixture(name))
}

fn count_by_rule(report: &LintReport) -> BTreeMap<&'static str, usize> {
    let mut counts = BTreeMap::new();
    for (_, finding) in &report.violations {
        *counts.entry(finding.rule).or_insert(0) += 1;
    }
    counts
}

#[test]
fn unit_fixture_fails_on_bare_quantity_names() {
    let report = lint_fixture("unit_violation.rs");
    let counts = count_by_rule(&report);
    // energy, total_latency (fields) and energy_total (fn); the typed
    // `interval: Time`, the suffixed names, and `utilization` stay silent.
    assert_eq!(
        counts.get("unit-suffix"),
        Some(&3),
        "violations: {:?}",
        report.violations
    );
    assert_eq!(counts.len(), 1);
    let messages: Vec<&str> = report
        .violations
        .iter()
        .map(|(_, f)| f.message.as_str())
        .collect();
    assert!(messages.iter().any(|m| m.contains("`energy`")));
    assert!(messages.iter().any(|m| m.contains("`total_latency`")));
    assert!(messages.iter().any(|m| m.contains("`energy_total`")));
}

#[test]
fn hot_loop_fixture_fires_only_inside_marked_loops() {
    let report = lint_fixture("hot_loop_alloc.rs");
    let counts = count_by_rule(&report);
    // Vec::new + format! + .clone() in the marked fn; the unmarked twin and
    // the clean hot loop stay silent.
    assert_eq!(
        counts.get("no-alloc-in-hot-loop"),
        Some(&3),
        "violations: {:?}",
        report.violations
    );
    assert_eq!(counts.len(), 1);
}

#[test]
fn unit_param_fixture_fires_on_bare_quantity_params() {
    let report = lint_fixture("unit_param_violation.rs");
    let counts = count_by_rule(&report);
    // `latency: f64` and `charge: f32`; suffixed, typed, private, and
    // test-mod parameters stay silent.
    assert_eq!(
        counts.get("unit-suffix-params"),
        Some(&2),
        "violations: {:?}",
        report.violations
    );
    assert_eq!(counts.len(), 1);
    let messages: Vec<&str> = report
        .violations
        .iter()
        .map(|(_, f)| f.message.as_str())
        .collect();
    assert!(messages.iter().any(|m| m.contains("`latency`")));
    assert!(messages.iter().any(|m| m.contains("`charge`")));
}

#[test]
fn clean_fixture_hot_loop_and_suffixed_params_stay_silent() {
    let report = lint_fixture("clean.rs");
    assert!(report.is_clean(), "violations: {:?}", report.violations);
}

#[test]
fn fixture_reports_are_byte_identical_across_runs() {
    let runs: Vec<String> = (0..2)
        .map(|_| lint_fixture("unit_violation.rs").render())
        .collect();
    assert_eq!(runs[0], runs[1]);
    assert!(runs[0].contains("hint:"));
}
