//! `perfbench`: the `ringdeployd` benchmark command.
//!
//! ```text
//! perfbench --workload <cold-campaign|warm-mix|large-sweep> --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! perfbench pin > pinned.tsv
//! ```
//!
//! Prints the run record and every metric by name with its unit, then, as
//! the last line, `{"attempted":…,"correct":…,"failed":…,"metrics":{…}}`.
//! Exits 1 when any answer fails the correctness gate, 2 on a usage error.

use std::process::ExitCode;

use ringdeploy_perfbench::pinned;
use ringdeploy_perfbench::plan::{self, Workload};
use ringdeploy_perfbench::report;
use ringdeploy_perfbench::run::Options;

const USAGE: &str = "usage: perfbench --workload <cold-campaign|warm-mix|large-sweep> \
                     --seed <n> --seconds <s> --trace <0|1> [--smoke]\n       perfbench pin";

fn parse(args: &[String]) -> Result<(Options, bool), String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut smoke = false;
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        if flag == "--smoke" {
            smoke = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err("--seconds must be a non-negative number".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                }
            }
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    let options = Options {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        smoke,
    };
    Ok((options, trace))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("pin") {
        return match pinned::pin(&plan::universe()) {
            Ok(table) => {
                print!("{table}");
                ExitCode::SUCCESS
            }
            Err(message) => {
                eprintln!("pin: {message}");
                ExitCode::FAILURE
            }
        };
    }
    let (options, trace) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(message) => {
            eprintln!("{message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = if trace {
        report::traced(&options)
    } else {
        report::untraced(&options)
    };
    let outcome = match outcome {
        Ok(outcome) => outcome,
        Err(error) => {
            eprintln!("perfbench: {error}");
            return ExitCode::FAILURE;
        }
    };
    println!("record {}", outcome.record);
    for (name, value, unit) in &outcome.metrics {
        println!("metric {name} = {value} {unit}");
    }
    println!(
        "metric failed_ops = {} share ({} of {} jobs)",
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
        outcome.failed,
        outcome.attempted
    );
    for problem in outcome.problems.iter().take(20) {
        eprintln!("correctness: {problem}");
    }
    println!("{}", outcome.summary());
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
