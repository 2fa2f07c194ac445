//! `stratobench` — one end-to-end + per-layer benchmark for the paper's
//! flows, the shuffle pair and the HTTP service. See `benchmark/README.md`.
//!
//! ```text
//! stratobench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick]
//! stratobench suite [--rounds <n>] [--seed <n>] [--seconds <s>] [--quick] [--out <file>]
//! stratobench compare <A.json> <B.json>
//! stratobench expected
//! ```
//!
//! Run from the root of the checkout: `BENCHMARK.json`, `benchmark/expected/`
//! and `benchmark/out/` are found relative to it.

mod flows;
mod measure;
mod names;
mod run;
mod suite;
mod trace;
mod workloads;

use std::collections::HashMap;
use std::process::ExitCode;

/// `run_seconds` of `BENCHMARK.json`: the window the bounds were set for.
const RUN_SECONDS: f64 = 15.0;

/// `--flag value` pairs and bare `--quick`, after the subcommand.
fn flags(args: &[String]) -> Result<(HashMap<String, String>, Vec<String>), String> {
    let mut named = HashMap::new();
    let mut positional = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.strip_prefix("--") {
            Some("quick") => {
                named.insert("quick".to_string(), "1".to_string());
            }
            Some(name) => {
                let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
                named.insert(name.to_string(), value.clone());
            }
            None => positional.push(a.clone()),
        }
    }
    Ok((named, positional))
}

fn parsed<T: std::str::FromStr>(
    named: &HashMap<String, String>,
    flag: &str,
    default: T,
) -> Result<T, String> {
    match named.get(flag) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("--{flag}: bad value {v:?}")),
    }
}

fn dispatch(args: &[String]) -> Result<bool, String> {
    let command = args.first().map(String::as_str);
    let rest = if matches!(command, Some("suite" | "compare" | "expected")) {
        &args[1..]
    } else {
        args
    };
    let (named, positional) = flags(rest)?;
    let quick = named.contains_key("quick");
    let seed = parsed(&named, "seed", run::DEFAULT_SEED)?;
    match command {
        Some("suite") => suite::suite(&suite::SuiteArgs {
            rounds: parsed(&named, "rounds", if quick { 1 } else { 3 })?,
            seed,
            seconds: parsed(&named, "seconds", if quick { 0.2 } else { RUN_SECONDS })?,
            quick,
            out: named.get("out").cloned(),
        }),
        Some("compare") => match positional.as_slice() {
            [a, b] => suite::compare(a, b),
            _ => Err("usage: stratobench compare <A.json> <B.json>".to_string()),
        },
        Some("expected") => run::write_expected().map(|()| true),
        _ => run::run(&run::RunArgs {
            workload: named.get("workload").cloned().ok_or(
                "usage: stratobench --workload <name> --seed <n> --seconds <s> --trace <0|1>",
            )?,
            seed,
            seconds: parsed(&named, "seconds", RUN_SECONDS)?,
            trace: parsed(&named, "trace", 0u8)? != 0,
            quick,
        }),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("stratobench: {e}");
            ExitCode::from(2)
        }
    }
}
