//! `suite`: every workload, untraced then traced, each run in a fresh child
//! process, in interleaved rounds (w1…w6, w1…w6, …) so that one noisy
//! period does not land on one workload. `compare`: two suite summaries
//! against the bounds `BENCHMARK.json` fixes.

use crate::measure::{median, quartiles, spread};
use crate::names::{EXACT, PER_LAYER, WORKLOADS};
use std::collections::BTreeMap;
use std::process::{Command, Stdio};
use strato_server::Json;

pub struct SuiteArgs {
    pub rounds: usize,
    pub seed: u64,
    pub seconds: f64,
    pub quick: bool,
    pub out: Option<String>,
}

/// metric → one value per round.
type Samples = BTreeMap<String, Vec<f64>>;

struct ChildResult {
    correct: bool,
    attempted: f64,
    failed: f64,
    metrics: BTreeMap<String, f64>,
}

/// Runs one workload in a child process and parses its result line.
fn child(args: &SuiteArgs, workload: &str, seed: u64, trace: bool) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdout(Stdio::piped());
    if args.quick {
        cmd.arg("--quick");
    }
    let output = cmd.output().map_err(|e| format!("spawn {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or_else(|| format!("{workload}: no result line (exit {})", output.status))?;
    let doc = Json::parse(line).map_err(|e| format!("{workload}: {e}"))?;
    let number = |key: &str| {
        doc.get(key)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("{workload}: result line lacks {key}"))
    };
    let mut metrics = BTreeMap::new();
    if let Some(Json::Obj(members)) = doc.get("metrics") {
        for (name, m) in members {
            let v = m.get("value").and_then(Json::as_f64);
            metrics.insert(name.clone(), v.ok_or_else(|| format!("{name}: no value"))?);
        }
    }
    Ok(ChildResult {
        correct: doc.get("correct").and_then(Json::as_bool) == Some(true)
            && output.status.success(),
        attempted: number("attempted")?,
        failed: number("failed")?,
        metrics,
    })
}

/// One end-to-end metric's row in `BENCHMARK.json`.
struct Gate {
    name: String,
    unit: String,
    lower_is_better: bool,
    bound: f64,
}

fn gates() -> Result<Vec<Gate>, String> {
    let text =
        std::fs::read_to_string("BENCHMARK.json").map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let rows = doc
        .get("end_to_end")
        .and_then(Json::as_array)
        .ok_or("BENCHMARK.json: no end_to_end list")?;
    rows.iter()
        .map(|r| {
            let text = |k: &str| r.get(k).and_then(Json::as_str).map(str::to_string);
            Some(Gate {
                name: text("name")?,
                unit: text("unit")?,
                lower_is_better: text("better")? == "lower",
                bound: r.get("bound").and_then(Json::as_f64)?,
            })
        })
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| "BENCHMARK.json: malformed end_to_end entry".to_string())
}

fn json_samples(by_workload: &BTreeMap<String, Samples>) -> String {
    let workloads: Vec<String> = by_workload
        .iter()
        .map(|(w, samples)| {
            let metrics: Vec<String> = samples
                .iter()
                .map(|(name, values)| {
                    let values: Vec<String> =
                        values.iter().map(|v| Json::Float(*v).to_string()).collect();
                    format!("      \"{name}\": [{}]", values.join(", "))
                })
                .collect();
            format!("    \"{w}\": {{\n{}\n    }}", metrics.join(",\n"))
        })
        .collect();
    format!("{{\n{}\n  }}", workloads.join(",\n"))
}

pub fn suite(args: &SuiteArgs) -> Result<bool, String> {
    let gates = gates()?;
    let mut ok = true;
    let mut end_to_end: BTreeMap<String, Samples> = BTreeMap::new();
    let mut per_layer: BTreeMap<String, Samples> = BTreeMap::new();
    let mut attempted: BTreeMap<String, f64> = BTreeMap::new();
    let mut failed: BTreeMap<String, f64> = BTreeMap::new();
    // The traced run of round 0, kept to check that counts repeat exactly.
    let mut first_traced: BTreeMap<String, BTreeMap<String, f64>> = BTreeMap::new();

    for trace in [false, true] {
        // The traced numbers are never gated; three rounds describe them.
        let rounds = if trace {
            args.rounds.min(3)
        } else {
            args.rounds
        };
        for round in 0..rounds {
            for w in WORKLOADS {
                let r = child(args, w, args.seed + round as u64, trace)?;
                ok &= r.correct;
                *attempted.entry(w.to_string()).or_default() += r.attempted;
                *failed.entry(w.to_string()).or_default() += r.failed;
                let into = if trace {
                    &mut per_layer
                } else {
                    &mut end_to_end
                };
                let samples = into.entry(w.to_string()).or_default();
                for (name, v) in &r.metrics {
                    samples.entry(name.clone()).or_default().push(*v);
                }
                if trace && round == 0 {
                    first_traced.insert(w.to_string(), r.metrics);
                }
            }
        }
    }

    // A second traced run of round 0's seed on every single-client
    // workload: the counts a later issue may rest a claim on must repeat.
    let mut exact_lines = Vec::new();
    for w in WORKLOADS.iter().filter(|w| **w != "served_small") {
        let again = child(args, w, args.seed, true)?;
        ok &= again.correct;
        let cells: Vec<String> = EXACT
            .iter()
            .map(|name| {
                let same = first_traced[*w].get(*name) == again.metrics.get(*name);
                if !same {
                    eprintln!(
                        "stratobench: {w}: {name} did not repeat: {:?} then {:?}",
                        first_traced[*w].get(*name),
                        again.metrics.get(*name)
                    );
                    ok = false;
                }
                format!("\"{name}\": {same}")
            })
            .collect();
        exact_lines.push(format!("    \"{w}\": {{{}}}", cells.join(", ")));
    }

    println!(
        "end to end (tracing off): median [q1, q3] over {} rounds",
        args.rounds
    );
    for w in WORKLOADS {
        println!("  {w}");
        for g in &gates {
            let v = end_to_end[w].get(&g.name).ok_or_else(|| {
                format!("{w}: run printed no {} (BENCHMARK.json names it)", g.name)
            })?;
            let (q1, q3) = quartiles(v);
            println!(
                "    {:<14} {:>12.4} {:<4} [{:.4}, {:.4}]  {} is better, bound {:.0} %",
                g.name,
                median(v),
                g.unit,
                q1,
                q3,
                if g.lower_is_better { "lower" } else { "higher" },
                g.bound * 100.0
            );
        }
        println!(
            "    {:<14} {:>12.4}      ({} failed of {} attempted; any increase is a regression)",
            "failed_share",
            failed[w] / attempted[w].max(1.0),
            failed[w],
            attempted[w]
        );
    }
    println!(
        "\nper layer (traced run): median over {} rounds",
        args.rounds.min(3)
    );
    print!("  {:<33}", "metric");
    for w in WORKLOADS {
        print!(" {w:>13}");
    }
    println!();
    for p in &PER_LAYER {
        print!("  {:<27} {:<5}", p.name, p.unit);
        for w in WORKLOADS {
            match per_layer[w].get(p.name) {
                Some(v) => print!(" {:>13.4}", median(v)),
                None => return Err(format!("{w}: traced run printed no {}", p.name)),
            }
        }
        println!();
    }

    let counts = |m: &BTreeMap<String, f64>| {
        let cells: Vec<String> = m.iter().map(|(w, v)| format!("\"{w}\": {v}")).collect();
        format!("{{{}}}", cells.join(", "))
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let summary = format!(
        "{{\n  \"seed\": {},\n  \"rounds\": {},\n  \"seconds\": {},\n  \"quick\": {},\n  \
         \"nproc\": {nproc},\n  \"end_to_end\": {},\n  \"per_layer\": {},\n  \
         \"attempted\": {},\n  \"failed\": {},\n  \"exact_repeat\": {{\n{}\n  }},\n  \
         \"claim\": null\n}}\n",
        args.seed,
        args.rounds,
        Json::Float(args.seconds),
        args.quick,
        json_samples(&end_to_end),
        json_samples(&per_layer),
        counts(&attempted),
        counts(&failed),
        exact_lines.join(",\n"),
    );
    let path = args
        .out
        .clone()
        .unwrap_or_else(|| format!("{}/suite.json", crate::workloads::OUT_DIR));
    std::fs::write(&path, summary).map_err(|e| format!("{path}: {e}"))?;
    println!("\nsummary written to {path}; claim: null");
    Ok(ok)
}

struct Summary {
    end_to_end: BTreeMap<String, Samples>,
    failed_share: BTreeMap<String, f64>,
}

fn load(path: &str) -> Result<Summary, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let mut end_to_end = BTreeMap::new();
    let mut failed_share = BTreeMap::new();
    let Some(Json::Obj(workloads)) = doc.get("end_to_end") else {
        return Err(format!("{path}: no end_to_end member"));
    };
    for (w, metrics) in workloads {
        let mut samples = Samples::new();
        if let Json::Obj(metrics) = metrics {
            for (name, values) in metrics {
                let values = values
                    .as_array()
                    .map(|a| a.iter().filter_map(Json::as_f64).collect())
                    .unwrap_or_default();
                samples.insert(name.clone(), values);
            }
        }
        end_to_end.insert(w.clone(), samples);
        let of = |member: &str| {
            doc.get(member)
                .and_then(|m| m.get(w))
                .and_then(Json::as_f64)
                .unwrap_or(0.0)
        };
        failed_share.insert(w.clone(), of("failed") / of("attempted").max(1.0));
    }
    Ok(Summary {
        end_to_end,
        failed_share,
    })
}

/// One row per (end-to-end metric, workload): both medians with their
/// quartiles, the ratio with its base, and a verdict. `unresolved` when
/// either side's own spread is wider than the bound, `regressed` when B is
/// worse than A by more than the bound.
pub fn compare(a_path: &str, b_path: &str) -> Result<bool, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    let gates = gates()?;
    let mut clean = true;
    println!(
        "{:<13} {:<14} {:>34} {:>34} {:>22}  verdict",
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "B ÷ A"
    );
    for w in WORKLOADS {
        for g in &gates {
            let side = |s: &Summary, path: &str| {
                s.end_to_end
                    .get(w)
                    .and_then(|m| m.get(&g.name))
                    .filter(|v| !v.is_empty())
                    .cloned()
                    .ok_or_else(|| format!("{path}: no {} for {w}", g.name))
            };
            let (va, vb) = (side(&a, a_path)?, side(&b, b_path)?);
            let (ma, mb) = (median(&va), median(&vb));
            let worse_by = if g.lower_is_better {
                (mb - ma) / ma
            } else {
                (ma - mb) / ma
            };
            let verdict = if spread(&va).max(spread(&vb)) > g.bound {
                "unresolved"
            } else if worse_by > g.bound {
                "regressed"
            } else {
                "ok"
            };
            clean &= verdict == "ok";
            let cell = |v: &[f64], m: f64| {
                let (q1, q3) = quartiles(v);
                format!("{m:.4} [{q1:.4}, {q3:.4}]")
            };
            println!(
                "{w:<13} {:<14} {:>34} {:>34} {:>22}  {verdict}",
                g.name,
                cell(&va, ma),
                cell(&vb, mb),
                format!("{:.3} of {:.4} {}", mb / ma, ma, g.unit),
            );
        }
        let (fa, fb) = (a.failed_share[w], b.failed_share[w]);
        let verdict = if fb > fa { "regressed" } else { "ok" };
        clean &= fb <= fa;
        println!(
            "{w:<13} {:<14} {fa:>34.6} {fb:>34.6} {:>22}  {verdict}",
            "failed_share", ""
        );
    }
    println!(
        "\nspread = (q3 − q1) ÷ median per side; bounds from BENCHMARK.json; {}",
        if clean {
            "every row ok"
        } else {
            "some rows are not ok"
        }
    );
    Ok(clean)
}
