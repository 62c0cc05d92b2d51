//! The self-hosting gate: the live workspace must lint clean with the
//! committed `#[expect]` budget, the report must be byte-identical across
//! runs, and every crate must stay under the workspace's clippy lints. If
//! a test here fails, either new code violated an invariant (fix it) or a
//! rule regressed (fix the linter).

use std::collections::BTreeMap;
use std::path::PathBuf;

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn read(path: &PathBuf) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

#[test]
fn live_workspace_lints_clean() {
    let report = timely_lint::lint_workspace(&workspace_root()).expect("workspace lints");
    assert!(report.is_clean(), "violations:\n{}", report.render());
    // The gate is real: it scanned a meaningful slice of the workspace and
    // found the committed expectations, not an accidental empty walk.
    assert!(
        report.files_scanned > 60,
        "only {} files scanned — scan roots are wrong",
        report.files_scanned
    );
    assert!(report.expects > 0);
}

#[test]
fn live_workspace_report_is_deterministic() {
    let root = workspace_root();
    let a = timely_lint::lint_workspace(&root).expect("workspace lints");
    let b = timely_lint::lint_workspace(&root).expect("workspace lints");
    assert_eq!(a.render(), b.render());
}

#[test]
fn suppression_budget_is_exact() {
    // The ratchet: the committed budget must equal today's `#[expect]`
    // count, so it can only ever be lowered alongside real burn-down work.
    let report = timely_lint::lint_workspace(&workspace_root()).expect("workspace lints");
    assert_eq!(
        report.expects,
        timely_lint::EXPECT_BUDGET,
        "#[expect] attributes ({}) drifted from the committed budget ({}) — \
         remove the new one or (only with a matching burn-down) re-pin",
        report.expects,
        timely_lint::EXPECT_BUDGET
    );
    assert!(report.budget_holds());
}

#[test]
fn committed_wall_clock_allow_is_scoped_to_the_obs_profiler() {
    // Wall-clock time enters the workspace at exactly two places, both
    // excluded from golden output: the perf harness's measurement loops and
    // `timely_obs::Profiler`, the only library code allowed to read it.
    let root = workspace_root();
    let mut sites: BTreeMap<String, usize> = BTreeMap::new();
    for path in timely_lint::collect_files(&root).expect("workspace walks") {
        let rel = timely_lint::relative_path(&root, &path);
        if timely_lint::rules::path_is_test(&rel) {
            continue;
        }
        let tokens = timely_lint::lexer::lex(&read(&path)).tokens;
        let count = tokens
            .windows(3)
            .filter(|w| {
                w[0].ident() == "clippy"
                    && w[1].is_punct("::")
                    && w[2].ident() == "disallowed_methods"
            })
            .count();
        if count > 0 {
            sites.insert(rel, count);
        }
    }
    let expected: BTreeMap<String, usize> = [
        ("crates/bench/src/bin/perf_harness.rs".to_string(), 3),
        ("crates/obs/src/profiler.rs".to_string(), 2),
    ]
    .into_iter()
    .collect();
    assert_eq!(sites, expected);
}

/// The `key = value` lines of `[name]` in a manifest, or `None` when the
/// table is absent.
fn table<'a>(manifest: &'a str, name: &str) -> Option<Vec<&'a str>> {
    let header = format!("[{name}]");
    let mut lines = manifest.lines().map(str::trim);
    lines.find(|line| *line == header)?;
    Some(
        lines
            .take_while(|line| !line.starts_with('['))
            .filter(|line| !line.is_empty() && !line.starts_with('#'))
            .collect(),
    )
}

#[test]
fn every_workspace_crate_inherits_the_workspace_lints() {
    let root = workspace_root();
    let root_manifest = read(&root.join("Cargo.toml"));
    let denied = |lints: &[&str]| -> Vec<String> {
        lints.iter().map(|l| format!("{l} = \"deny\"")).collect()
    };
    let determinism = [
        "disallowed_types",
        "disallowed_methods",
        "float_cmp",
        "allow_attributes",
        "allow_attributes_without_reason",
    ];
    let panic_freedom = [
        "unwrap_used",
        "expect_used",
        "panic",
        "unreachable",
        "todo",
        "unimplemented",
    ];
    let mut workspace_lints =
        table(&root_manifest, "workspace.lints.clippy").expect("root Cargo.toml has the table");
    workspace_lints.sort_unstable();
    let mut expected = denied(&panic_freedom);
    expected.extend(denied(&determinism));
    expected.sort_unstable();
    assert_eq!(workspace_lints, expected);

    let mut manifests = vec![root.join("Cargo.toml")];
    let mut crate_dirs: Vec<PathBuf> = std::fs::read_dir(root.join("crates"))
        .expect("crates/ lists")
        .map(|entry| entry.expect("crates/ entry").path())
        .filter(|dir| dir.join("Cargo.toml").is_file())
        .collect();
    crate_dirs.sort();
    manifests.extend(crate_dirs.iter().map(|dir| dir.join("Cargo.toml")));
    assert!(manifests.len() >= 10, "manifests: {manifests:?}");

    for path in &manifests {
        let manifest = read(path);
        let package = table(&manifest, "package").expect("manifest has [package]");
        if package.contains(&"name = \"timely-bench\"") {
            // Drivers may abort; only the determinism half applies.
            assert_eq!(table(&manifest, "lints"), None, "{}", path.display());
            assert_eq!(
                table(&manifest, "lints.clippy"),
                Some(denied(&determinism).iter().map(String::as_str).collect()),
                "{}",
                path.display()
            );
        } else {
            assert_eq!(
                table(&manifest, "lints"),
                Some(vec!["workspace = true"]),
                "{} must inherit the workspace lints",
                path.display()
            );
        }
    }
}
