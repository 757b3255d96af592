//! `secbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a human-readable report, then the result as one JSON line.

use std::process::ExitCode;

use secbench::run::{run, Args};

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("secbench: {e}");
            eprintln!("usage: secbench --workload <hot_get|cold_archive|commit_mix> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(outcome) => {
            println!("{}", outcome.json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("secbench: {e}");
            ExitCode::FAILURE
        }
    }
}
