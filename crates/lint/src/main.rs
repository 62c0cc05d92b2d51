//! The `timely-lint` gate binary.
//!
//! ```text
//! timely-lint [--root DIR] [--rules]
//! ```
//!
//! Lints every `.rs` file under the workspace's scan roots, prints each
//! violation with its suggested rewrite, and exits nonzero when any
//! violation exists or the `#[expect]` count drifts from the committed
//! budget in either direction (exit 2 for usage and I/O errors). `--rules`
//! lists the rule families.

use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;

/// Writes to stdout, tolerating a closed pipe (`timely-lint --rules | head`
/// must not panic — the linter is held to the workspace's panic lints).
fn emit(text: &str) {
    let _ = std::io::stdout().write_all(text.as_bytes());
}

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(dir) => root = PathBuf::from(dir),
                None => {
                    eprintln!("timely-lint: --root requires a directory argument");
                    return ExitCode::from(2);
                }
            },
            "--rules" => {
                for (rule, description) in timely_lint::rules::RULES {
                    emit(&format!("{rule}: {description}\n"));
                }
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("timely-lint: unknown argument `{other}`; usage: timely-lint [--root DIR] [--rules]");
                return ExitCode::from(2);
            }
        }
    }

    match timely_lint::lint_workspace(&root) {
        Ok(report) => {
            emit(&report.render());
            if report.is_clean() && report.budget_holds() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(err) => {
            eprintln!("timely-lint: {err}");
            ExitCode::from(2)
        }
    }
}
