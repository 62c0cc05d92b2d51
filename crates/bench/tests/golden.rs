//! Golden-file regression tests: the bench binaries' smoke outputs are
//! snapshotted under `tests/golden/` (repository root) and any drift fails
//! tier-1.
//!
//! * Regenerate the snapshots with `BLESS=1 cargo test -p timely-bench`.
//! * `GOLDEN_RUNS=0` skips the binary runs entirely — the same
//!   PROPTEST_CASES-style knob the property suites use to cap time on the
//!   single-CPU CI container.
//!
//! Everything the binaries print is seeded and deterministic, and the math
//! is identical in debug and release, so one snapshot serves both.

use std::path::PathBuf;
use std::process::Command;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden")
}

fn blessing() -> bool {
    std::env::var("BLESS").as_deref() == Ok("1")
}

fn capped() -> bool {
    std::env::var("GOLDEN_RUNS").as_deref() == Ok("0")
}

fn run(exe: &str, args: &[&str]) -> String {
    let output = Command::new(exe)
        .args(args)
        .output()
        .unwrap_or_else(|err| panic!("failed to spawn {exe}: {err}"));
    assert!(
        output.status.success(),
        "{exe} {args:?} exited with {}: {}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8(output.stdout).expect("bench output is UTF-8")
}

/// Points at the first differing line so a drift is readable without a
/// 100-line `assert_eq!` dump.
fn first_diff(expected: &str, actual: &str) -> String {
    for (i, (e, a)) in expected.lines().zip(actual.lines()).enumerate() {
        if e != a {
            return format!(
                "first diff at line {}:\n  golden: {e}\n  actual: {a}",
                i + 1
            );
        }
    }
    format!(
        "line counts differ: golden {} vs actual {}",
        expected.lines().count(),
        actual.lines().count()
    )
}

fn check_golden(name: &str, exe: &str, args: &[&str]) {
    if capped() {
        eprintln!("GOLDEN_RUNS=0: skipping {name}");
        return;
    }
    check_golden_output(name, &run(exe, args));
}

fn check_golden_output(name: &str, actual: &str) {
    let path = golden_dir().join(name);
    if blessing() {
        std::fs::create_dir_all(golden_dir()).expect("create tests/golden");
        std::fs::write(&path, actual).unwrap_or_else(|err| panic!("write {path:?}: {err}"));
        eprintln!("blessed {path:?}");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|err| {
        panic!("missing golden file {path:?} ({err}); generate it with BLESS=1 cargo test -p timely-bench")
    });
    assert!(
        actual == expected,
        "{name} drifted from its golden snapshot; {}\n\
         re-bless with BLESS=1 cargo test -p timely-bench if the change is intended",
        first_diff(&expected, &actual)
    );
}

#[test]
fn golden_serving_study_smoke() {
    if capped() {
        eprintln!("GOLDEN_RUNS=0: skipping serving_study golden + trace export check");
        return;
    }
    // One run exercises the observability flags alongside the tables: the
    // flags must leave golden-pinned stdout untouched, and the trace and
    // metrics exports are deterministic files, so they are golden-pinned
    // too (the trace byte-identical across machines and runs).
    let tmp = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let trace_path = tmp.join("serving_trace_smoke.json");
    let metrics_path = tmp.join("serving_metrics_smoke.txt");
    let stdout = run(
        env!("CARGO_BIN_EXE_serving_study"),
        &[
            "--smoke",
            "--trace",
            trace_path.to_str().expect("tmpdir path is UTF-8"),
            "--metrics",
            metrics_path.to_str().expect("tmpdir path is UTF-8"),
        ],
    );
    check_golden_output("serving_study_smoke.txt", &stdout);
    let trace = std::fs::read_to_string(&trace_path).expect("serving_study wrote the trace");
    check_golden_output("serving_trace_smoke.json", &trace);
    let metrics = std::fs::read_to_string(&metrics_path).expect("serving_study wrote the metrics");
    check_golden_output("serving_metrics_smoke.txt", &metrics);
}

#[test]
fn golden_serving_scenarios_smoke() {
    if capped() {
        eprintln!("GOLDEN_RUNS=0: skipping serving_study --scenarios determinism + golden check");
        return;
    }
    // Fault injection, shedding, and the streaming-statistics cross-check
    // must be as deterministic as the plain tables: two runs byte-identical,
    // both matching the pinned snapshot.
    let exe = env!("CARGO_BIN_EXE_serving_study");
    let first = run(exe, &["--smoke", "--scenarios"]);
    let second = run(exe, &["--smoke", "--scenarios"]);
    assert!(
        first == second,
        "serving_study --scenarios is not deterministic; {}",
        first_diff(&first, &second)
    );
    check_golden_output("serving_scenarios_smoke.txt", &first);
}

#[test]
fn serving_study_json_artifact_parses_back() {
    if capped() {
        eprintln!("GOLDEN_RUNS=0: skipping serving_study --json check");
        return;
    }
    let stdout = run(env!("CARGO_BIN_EXE_serving_study"), &["--smoke", "--json"]);
    let artifact: timely_bench::artifacts::ServingStudyArtifact =
        serde::json::from_str(stdout.trim()).expect("--json output parses back");
    assert!(artifact.smoke);
    assert!(!artifact.sweep.is_empty());
    assert!(artifact
        .sweep
        .iter()
        .all(|record| record.report.completed <= record.report.offered));
}

#[test]
fn golden_backend_matrix() {
    check_golden(
        "backend_matrix.txt",
        env!("CARGO_BIN_EXE_backend_matrix"),
        &[],
    );
}

#[test]
fn golden_fig05_unit_energy() {
    check_golden(
        "fig05_unit_energy.txt",
        env!("CARGO_BIN_EXE_fig05_unit_energy"),
        &[],
    );
}

#[test]
fn golden_dse_study_smoke() {
    if capped() {
        eprintln!("GOLDEN_RUNS=0: skipping dse_study determinism + golden check");
        return;
    }
    // The acceptance bar: two runs with the same seed are byte-identical...
    let exe = env!("CARGO_BIN_EXE_dse_study");
    let first = run(exe, &["--smoke"]);
    let second = run(exe, &["--smoke"]);
    assert!(
        first == second,
        "dse_study --smoke is not deterministic; {}",
        first_diff(&first, &second)
    );
    // ...and they match the pinned snapshot (no third run needed).
    check_golden_output("dse_study_smoke.txt", &first);
}

#[test]
fn golden_accuracy_study_smoke() {
    if capped() {
        eprintln!("GOLDEN_RUNS=0: skipping accuracy_study determinism + golden check");
        return;
    }
    // The quantized, noisy forward passes are seeded end to end: two runs
    // are byte-identical and match the pinned snapshot.
    let exe = env!("CARGO_BIN_EXE_accuracy_study");
    let first = run(exe, &["--smoke"]);
    let second = run(exe, &["--smoke"]);
    assert!(
        first == second,
        "accuracy_study --smoke is not deterministic; {}",
        first_diff(&first, &second)
    );
    check_golden_output("accuracy_study_smoke.txt", &first);
}
