//! The self-hosting gate: the live workspace must lint clean under the
//! committed `lint.toml`, and the report must be byte-identical across
//! runs. If this test fails, either new code violated an invariant (fix it
//! or justify an allow) or a rule regressed (fix the linter).

use std::path::PathBuf;

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

#[test]
fn live_workspace_lints_clean() {
    let root = workspace_root();
    let config = timely_lint::load_config(&root).expect("committed lint.toml loads");
    let report = timely_lint::lint_workspace(&root, &config).expect("workspace lints");
    assert!(
        report.is_clean(),
        "unsuppressed violations:\n{}",
        report.render(true)
    );
    // The gate is real: it scanned a meaningful slice of the workspace and
    // its suppressions are the committed ones, not an accidental empty walk.
    assert!(
        report.files_scanned > 60,
        "only {} files scanned — scan roots are wrong",
        report.files_scanned
    );
    assert!(!report.suppressed.is_empty());
}

#[test]
fn live_workspace_report_is_deterministic() {
    let root = workspace_root();
    let config = timely_lint::load_config(&root).expect("committed lint.toml loads");
    let a = timely_lint::lint_workspace(&root, &config)
        .expect("workspace lints")
        .render(true);
    let b = timely_lint::lint_workspace(&root, &config)
        .expect("workspace lints")
        .render(true);
    assert_eq!(a, b);
}

#[test]
fn live_call_graph_covers_the_workspace() {
    let root = workspace_root();
    let config = timely_lint::load_config(&root).expect("committed lint.toml loads");
    let report = timely_lint::lint_workspace(&root, &config).expect("workspace lints");
    // The parser resolved a meaningful graph, not an accidental empty walk:
    // the workspace holds well over a thousand functions today, and the
    // panic-reachability entry points are configured and resolving.
    assert!(
        report.graph.nodes >= 1200,
        "only {} call-graph nodes — the item parser regressed",
        report.graph.nodes
    );
    assert!(
        report.graph.edges > report.graph.nodes,
        "{} edges for {} nodes — call resolution regressed",
        report.graph.edges,
        report.graph.nodes
    );
    assert!(report.graph.panic_sites > 0);
    assert_eq!(
        report.graph.entry_points,
        vec![
            "Backend::evaluate".to_string(),
            "ServingSimulator::run_scenario_recorded".to_string(),
            "Explorer::run".to_string(),
        ]
    );
}

#[test]
fn live_workspace_has_no_stale_suppressions() {
    let root = workspace_root();
    let config = timely_lint::load_config(&root).expect("committed lint.toml loads");
    let report = timely_lint::lint_workspace(&root, &config).expect("workspace lints");
    assert!(
        report.stale.is_empty(),
        "stale suppressions:\n{}",
        report.render_stale()
    );
}

#[test]
fn suppression_budget_is_exact() {
    // The ratchet: the committed budget must equal today's suppression
    // count, so it can only ever be lowered alongside real burn-down work.
    let root = workspace_root();
    let config = timely_lint::load_config(&root).expect("committed lint.toml loads");
    let report = timely_lint::lint_workspace(&root, &config).expect("workspace lints");
    let budget = config.budget.expect("lint.toml commits a [budget]");
    assert_eq!(
        report.suppressed.len(),
        budget,
        "suppressions ({}) drifted from the committed budget ({budget}) — \
         burn down the new allow or (only with a matching burn-down) re-pin",
        report.suppressed.len()
    );
    assert!(matches!(
        report.budget_verdict(),
        timely_lint::BudgetVerdict::Ok
    ));
}

#[test]
fn live_json_report_is_byte_identical_across_runs() {
    let root = workspace_root();
    let config = timely_lint::load_config(&root).expect("committed lint.toml loads");
    let a = timely_lint::report::render_json(
        &timely_lint::lint_workspace(&root, &config).expect("workspace lints"),
    );
    let b = timely_lint::report::render_json(
        &timely_lint::lint_workspace(&root, &config).expect("workspace lints"),
    );
    assert_eq!(a, b);
    assert!(a.starts_with("{\n  \"schema\": \"timely-lint-report-v1\""));
}

#[test]
fn every_committed_allow_entry_names_a_real_file_and_rule() {
    // Allowlist hygiene: entries must point at files that exist (no stale
    // suppressions surviving refactors) and at rules the linter knows.
    let root = workspace_root();
    let config = timely_lint::load_config(&root).expect("committed lint.toml loads");
    for entry in &config.allows {
        assert!(
            root.join(&entry.path).is_file(),
            "allowlist entry for missing file: {}",
            entry.path
        );
        assert!(
            timely_lint::rules::RULES
                .iter()
                .any(|(r, _)| *r == entry.rule),
            "allowlist entry for unknown rule: {}",
            entry.rule
        );
        assert!(!entry.reason.is_empty());
    }
}
