//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints its result as the last line of stdout:
//! one JSON object with `correct`, `attempted`, `failed` and `metrics`.
//! Failed ops are also listed on stderr.

use perfbench::{run, Opts, Workload};
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload <websearch_648|shuffle_192|\
websearch_clos_dctcp|cost_sweep_mcf> --seed <n> --seconds <s> --trace <0|1>";

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::from_name(value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad())?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown argument {flag} {value}")),
        }
    }
    let missing = |what: &str| format!("missing {what}");
    Ok(Opts::measured(
        workload.ok_or_else(|| missing("--workload"))?,
        seed.ok_or_else(|| missing("--seed"))?,
        seconds.ok_or_else(|| missing("--seconds"))?,
        trace.ok_or_else(|| missing("--trace"))?,
    ))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = run(&opts);
    for e in &report.errors {
        eprintln!(
            "perfbench: {} seed {}: {e}",
            opts.workload.name(),
            opts.seed
        );
    }
    println!("{}", report.json_line());
    ExitCode::SUCCESS
}
