//! Command-line entry point; see the library documentation for the flags
//! and the result line.

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match timely_benchmark::Args::parse(&args) {
        Ok(args) => args,
        Err(err) => {
            eprintln!("timely-benchmark: {err}");
            return ExitCode::from(2);
        }
    };
    match timely_benchmark::run(&args) {
        Ok(outcome) => {
            for err in &outcome.errors {
                eprintln!("timely-benchmark: {err}");
            }
            println!("{}", outcome.to_json());
            ExitCode::SUCCESS
        }
        Err(err) => {
            eprintln!("timely-benchmark: {err}");
            ExitCode::FAILURE
        }
    }
}
