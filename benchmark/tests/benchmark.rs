//! Every workload runs through its checks at a tiny size, the standard-size
//! iterations reproduce the pinned outputs, and the names the benchmark
//! prints match `BENCHMARK.json`.

use timely_benchmark::workloads::{Output, Size, Workload, WorkloadKind, PINNED_SEED};
use timely_benchmark::{median, run_traced, run_untraced, Args, END_TO_END, PER_LAYER};
use timely_core::accuracy::AccuracyStudy;
use timely_core::TimelyConfig;
use timely_nn::zoo;
use timely_obs::NoopRecorder;

/// A seed other than the pinned one, so only the invariants apply.
const OTHER_SEED: u64 = 7;

fn is_valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn names(metrics: &[(&'static str, f64)]) -> Vec<&'static str> {
    metrics.iter().map(|(name, _)| *name).collect()
}

#[test]
fn every_workload_passes_its_checks_at_tiny_size() {
    let expected: Vec<&str> = END_TO_END.iter().map(|(name, _)| *name).collect();
    for kind in WorkloadKind::ALL {
        for seed in [PINNED_SEED, OTHER_SEED] {
            let outcome = run_untraced(kind, seed, 0.01, Size::Tiny).expect("set-up succeeds");
            assert!(
                outcome.correct && outcome.failed == 0 && outcome.attempted > 0,
                "{} seed {seed}: {outcome:?}",
                kind.name()
            );
            assert_eq!(names(&outcome.metrics), expected);
            for (name, value) in &outcome.metrics {
                assert!(value.is_finite() && *value > 0.0, "{name} = {value}");
            }
        }
    }
}

#[test]
fn every_traced_run_reports_every_per_layer_metric() {
    let expected: Vec<&str> = PER_LAYER.iter().map(|(name, _)| *name).collect();
    for kind in WorkloadKind::ALL {
        let outcome = run_traced(kind, OTHER_SEED, 0.01, Size::Tiny).expect("set-up succeeds");
        assert!(
            outcome.correct && outcome.failed == 0,
            "{}: {outcome:?}",
            kind.name()
        );
        assert_eq!(names(&outcome.metrics), expected, "{}", kind.name());
        for (name, value) in &outcome.metrics {
            assert!(value.is_finite() && *value >= 0.0, "{name} = {value}");
        }
        let json = outcome.to_json();
        assert!(
            json.starts_with("{\"correct\": true, \"attempted\": "),
            "{json}"
        );
    }
}

#[test]
fn standard_iterations_reproduce_the_pinned_outputs() {
    for kind in WorkloadKind::ALL {
        let workload = Workload::setup(kind, PINNED_SEED, Size::Standard).expect("set-up");
        let iteration = workload
            .iterate(&mut NoopRecorder, &mut Default::default())
            .expect("iteration runs");
        iteration
            .output
            .check(kind, PINNED_SEED, Size::Standard)
            .unwrap_or_else(|err| panic!("{err}"));
    }
}

#[test]
fn a_changed_output_fails_the_pinned_check_but_not_the_invariants() {
    let Output::Dse(mut dse) = timely_benchmark::expected::pinned(WorkloadKind::Dse) else {
        panic!("dse pins a DSE output");
    };
    dse.production.frontier_digest ^= 1;
    let output = Output::Dse(dse);
    assert!(output
        .check(WorkloadKind::Dse, PINNED_SEED, Size::Standard)
        .is_err());
    assert!(output
        .check(WorkloadKind::Dse, OTHER_SEED, Size::Standard)
        .is_ok());
    dse.production.screening.evaluated += 1;
    assert!(Output::Dse(dse)
        .check(WorkloadKind::Dse, OTHER_SEED, Size::Standard)
        .is_err());
}

#[test]
fn the_accuracy_loop_agrees_with_the_study_entry_point() {
    let Output::Accuracy(pinned) = timely_benchmark::expected::pinned(WorkloadKind::Accuracy)
    else {
        panic!("accuracy pins agreement counts");
    };
    let config = TimelyConfig::paper_default();
    let mut study = AccuracyStudy::from_config(&config);
    assert_eq!(
        study.seed, PINNED_SEED,
        "the pinned seed is the study's default"
    );
    for (model, pin) in [zoo::cnn_1(), zoo::mlp_l()].iter().zip(&pinned) {
        study.samples = pin.samples;
        let report = study.run(model, &config).expect("zoo models run");
        assert_eq!(model.name(), pin.model);
        assert_eq!(report.agreements, pin.agreements, "{}", pin.model);
    }
}

#[test]
fn names_match_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    let section = |key: &str| {
        let start = text
            .find(&format!("\"{key}\""))
            .unwrap_or_else(|| panic!("no {key}"));
        let end = start + text[start..].find(']').expect("a list");
        &text[start..end]
    };
    let values = |section: &str, field: &str| -> Vec<String> {
        let marker = format!("\"{field}\": \"");
        section
            .match_indices(&marker)
            .map(|(at, _)| {
                let rest = &section[at + marker.len()..];
                rest[..rest.find('"').expect("closing quote")].to_string()
            })
            .collect()
    };
    let workloads = values(section("workloads"), "name");
    let expected: Vec<&str> = WorkloadKind::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, expected);
    for (key, table) in [
        ("end_to_end", &END_TO_END[..]),
        ("per_layer", &PER_LAYER[..]),
    ] {
        let section = section(key);
        let pairs: Vec<(String, String)> = values(section, "name")
            .into_iter()
            .zip(values(section, "unit"))
            .collect();
        let expected: Vec<(String, String)> = table
            .iter()
            .map(|(name, unit)| (name.to_string(), unit.to_string()))
            .collect();
        assert_eq!(pairs, expected, "{key}");
    }
    let mut all: Vec<&str> = expected.clone();
    all.extend(
        END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|(name, _)| *name),
    );
    for name in &all {
        assert!(is_valid_name(name), "{name:?}");
    }
    let mut unique = all.clone();
    unique.sort_unstable();
    unique.dedup();
    assert_eq!(unique.len(), all.len(), "names are used once");
}

#[test]
fn the_command_line_parses_every_flag() {
    let args = |list: &[&str]| Args::parse(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    let parsed = args(&[
        "--workload",
        "dse",
        "--seed",
        "9",
        "--seconds",
        "3",
        "--trace",
        "1",
    ])
    .expect("valid flags");
    assert_eq!(parsed.workload, WorkloadKind::Dse);
    assert_eq!((parsed.seed, parsed.seconds, parsed.trace), (9, 3.0, true));
    assert!(args(&["--workload", "nope"]).is_err());
    assert!(args(&["--seed", "1"]).is_err(), "a workload is required");
    assert!(args(&["--workload", "dse", "--trace", "2"]).is_err());
    assert!(args(&["--workload", "dse", "--seconds", "0"]).is_err());
    assert!(args(&["--workload", "dse", "--seed"]).is_err());
}

#[test]
fn the_median_uses_every_sample() {
    let mut values: Vec<f64> = (1..=10).rev().map(f64::from).collect();
    assert_eq!(median(&mut values), 5.5);
    assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
    assert!(median(&mut []).is_nan());
}
