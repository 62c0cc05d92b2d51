//! # timely-lint
//!
//! The workspace checks that clippy cannot express. Panic-freedom,
//! determinism (no std hash maps, process-keyed hashers or wall-clock reads)
//! and float equality are clippy lints, configured in the root `Cargo.toml`
//! and `clippy.toml`; what is left here needs the repo's own vocabulary:
//!
//! * **unit discipline** — every objective is a raw `f64`, one pJ-vs-mJ slip
//!   away from a wrong Pareto frontier, so public floats (fields, returns
//!   and parameters) naming a physical quantity must carry a canonical unit
//!   suffix;
//! * **allocation-free hot loops** — functions marked `// lint:hot` may not
//!   allocate inside their loop bodies;
//! * **the suppression ratchet** — `#[expect(lint, reason = "…")]` is the
//!   workspace's only suppression, and the number of them in non-test code
//!   must equal [`EXPECT_BUDGET`]: a new one fails review here, a removed one
//!   asks for the budget to be lowered.
//!
//! The linter walks every `.rs` file under `crates/`, `src/` and `examples/`
//! with a small hand-rolled lexer (comments/strings/raw-strings aware),
//! applies the rules in [`rules::RULES`], and reports deterministically
//! (sorted by path, line, rule — byte-identical across runs). The `timely-lint` binary exits
//! nonzero on any violation or budget drift and is wired into
//! `scripts/verify.sh` next to the clippy step.

pub mod lexer;
pub mod parser;
pub mod rules;

use rules::Finding;
use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

/// Directories (relative to the workspace root) whose `.rs` files are
/// linted.
const SCAN_ROOTS: &[&str] = &["crates", "src", "examples"];

/// Directory names skipped wherever they appear: vendored stubs are
/// third-party idiom, `target` is build output, and `fixtures` holds the
/// linter's own seeded-violation test files (which must keep violating).
const EXCLUDE_DIRS: &[&str] = &["vendor", "target", "fixtures"];

/// The committed number of `#[expect(…)]` attributes in non-test code. The
/// gate fails when the live count drifts in either direction, so the number
/// only ever goes down alongside real burn-down work.
pub const EXPECT_BUDGET: usize = 10;

/// The outcome of linting a set of files.
#[derive(Debug, Default)]
pub struct LintReport {
    /// Violations, sorted by (path, line, rule, message).
    pub violations: Vec<(String, Finding)>,
    /// Number of files scanned.
    pub files_scanned: usize,
    /// `#[expect(…)]` / `#![expect(…)]` attributes in non-test code.
    pub expects: usize,
}

impl LintReport {
    /// True when no rule fired.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// True when the `#[expect]` count equals [`EXPECT_BUDGET`].
    pub fn budget_holds(&self) -> bool {
        self.expects == EXPECT_BUDGET
    }

    /// Renders the deterministic report: each violation followed by an
    /// indented `hint:` line with the suggested rewrite, then the totals and
    /// the ratchet verdict.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (path, finding) in &self.violations {
            let _ = writeln!(
                out,
                "{path}:{}: [{}] {}\n    hint: {}",
                finding.line, finding.rule, finding.message, finding.hint
            );
        }
        let _ = writeln!(
            out,
            "timely-lint: {} violation(s), {} files scanned",
            self.violations.len(),
            self.files_scanned
        );
        let (used, budget) = (self.expects, EXPECT_BUDGET);
        let verdict = if used == budget {
            "ratchet holds".to_string()
        } else if used > budget {
            "EXCEEDED — remove the new #[expect], do not raise the budget".to_string()
        } else {
            format!("slack — lower EXPECT_BUDGET in crates/lint/src/lib.rs to {used}")
        };
        let _ = writeln!(
            out,
            "timely-lint: {used} #[expect] attribute(s) / budget {budget}: {verdict}"
        );
        out
    }
}

/// A source file or directory that could not be read.
#[derive(Debug)]
pub struct LintError {
    pub path: PathBuf,
    pub message: String,
}

impl LintError {
    fn new(path: &Path, err: std::io::Error) -> Self {
        LintError {
            path: path.to_path_buf(),
            message: err.to_string(),
        }
    }
}

impl std::fmt::Display for LintError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "io error on {}: {}", self.path.display(), self.message)
    }
}

impl std::error::Error for LintError {}

/// Collects every `.rs` file under the scan roots, sorted by path — the walk
/// order (and therefore the report) is deterministic regardless of
/// filesystem enumeration order.
pub fn collect_files(root: &Path) -> Result<Vec<PathBuf>, LintError> {
    let mut files = Vec::new();
    for scan_root in SCAN_ROOTS {
        let dir = root.join(scan_root);
        if dir.is_dir() {
            walk(&dir, &mut files)?;
        }
    }
    files.sort();
    Ok(files)
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), LintError> {
    for entry in fs::read_dir(dir).map_err(|e| LintError::new(dir, e))? {
        let path = entry.map_err(|e| LintError::new(dir, e))?.path();
        if path.is_dir() {
            let excluded = path
                .file_name()
                .is_some_and(|name| EXCLUDE_DIRS.iter().any(|ex| name == *ex));
            if !excluded {
                walk(&path, out)?;
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Workspace-relative path with forward slashes (the report's path syntax,
/// stable across platforms).
pub fn relative_path(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .collect::<Vec<_>>()
        .join("/")
}

/// Lints one file's source text; `rel_path` decides whether it is test code.
pub fn lint_source(rel_path: &str, source: &str) -> LintReport {
    lint_sources(&[(rel_path.to_string(), source.to_string())])
}

/// Lints a set of (workspace-relative path, source) pairs.
pub fn lint_sources(files: &[(String, String)]) -> LintReport {
    let mut report = LintReport {
        files_scanned: files.len(),
        ..Default::default()
    };
    for (path, source) in files {
        let lexed = lexer::lex(source);
        let items = parser::parse_items(&lexed);
        for finding in rules::check(path, &lexed, &items) {
            report.violations.push((path.clone(), finding));
        }
        if !rules::path_is_test(path) {
            report.expects += count_expects(&lexed.tokens);
        }
    }
    report.violations.sort();
    report
}

/// Counts `#[expect(` and `#![expect(` attributes outside test regions.
fn count_expects(tokens: &[lexer::Token]) -> usize {
    (0..tokens.len())
        .filter(|&i| {
            let at = |k: usize| tokens.get(i + k);
            let punct = |k: usize, p: &str| at(k).is_some_and(|t| t.is_punct(p));
            let inner = usize::from(punct(1, "!"));
            tokens[i].is_punct("#")
                && !tokens[i].in_test
                && punct(1 + inner, "[")
                && at(2 + inner).is_some_and(|t| t.ident() == "expect")
                && punct(3 + inner, "(")
        })
        .count()
}

/// Lints every file under `root` (the workspace checkout).
pub fn lint_workspace(root: &Path) -> Result<LintReport, LintError> {
    let files = collect_files(root)?;
    let mut inputs = Vec::with_capacity(files.len());
    for path in &files {
        let source = fs::read_to_string(path).map_err(|e| LintError::new(path, e))?;
        inputs.push((relative_path(root, path), source));
    }
    Ok(lint_sources(&inputs))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_is_deterministic_and_carries_hints() {
        let src = "pub struct R { pub energy: f64 }\n";
        let report = lint_source("crates/x/src/lib.rs", src);
        let a = report.render();
        assert_eq!(a, report.render());
        assert!(a.contains("[unit-suffix]"));
        assert!(a.contains("hint: rename to `energy_mj`"));
    }

    #[test]
    fn expect_attributes_are_counted_outside_tests_only() {
        let src = r#"
            #![expect(clippy::a, reason = "crate-wide")]
            #[expect(clippy::b, reason = "item")]
            fn f() {}
            #[allow(clippy::c)]
            fn g() {}
            // #[expect(clippy::d)] in a comment
            #[cfg(test)]
            mod tests {
                #[expect(clippy::e, reason = "test code")]
                fn h() {}
            }
        "#;
        assert_eq!(lint_source("crates/x/src/lib.rs", src).expects, 2);
        assert_eq!(lint_source("crates/x/tests/it.rs", src).expects, 0);
    }
}
