//! `repro` — regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! cargo run -p strato-bench --bin repro --release -- all
//! cargo run -p strato-bench --bin repro --release -- fig5 fig6 fig7 table1
//! ```
//!
//! Outputs aligned text tables on stdout and CSV files under `results/`.
//! Sub-commands: `fig2 fig3 fig4 fig5 fig6 fig7 table1 timing ablation all`.

#![forbid(unsafe_code)]

use std::fs;
use std::path::Path;
use std::time::Instant;
use strato_bench::{rank_sweep, render_sweep_csv, render_sweep_table, timing_runtime};
use strato_core::{enumerate_all, Optimizer, PropTable};
use strato_dataflow::{Plan, PropertyMode};
use strato_exec::Inputs;
use strato_workloads::{clickstream, textmining, tpch};

fn results_dir() -> &'static Path {
    let p = Path::new("results");
    fs::create_dir_all(p).expect("create results dir");
    p
}

fn save(name: &str, contents: &str) {
    let path = results_dir().join(name);
    fs::write(&path, contents).expect("write result file");
    println!("  [saved {}]", path.display());
}

fn q7() -> (Plan, Inputs) {
    // Larger than the other workloads so that plan-dependent work dominates
    // fixed per-record engine overhead (Figure 5 needs the runtime spread).
    let scale = tpch::TpchScale { orders: 12_000 };
    (
        tpch::q7_plan(scale),
        tpch::generate(scale, 42).into_iter().collect(),
    )
}

fn q15() -> (Plan, Inputs) {
    let scale = tpch::TpchScale::small();
    (
        tpch::q15_plan(scale),
        tpch::generate(scale, 42).into_iter().collect(),
    )
}

fn clicks() -> (Plan, Inputs) {
    let scale = clickstream::ClickScale::small();
    (
        clickstream::plan(scale),
        clickstream::generate(scale, 42).into_iter().collect(),
    )
}

fn tm() -> (Plan, Inputs) {
    let scale = textmining::TextScale::small();
    (
        textmining::plan(scale),
        textmining::generate(scale, 42).into_iter().collect(),
    )
}

/// Figure 2: Q7 — implemented data flow vs. the 1st-ranked reordered flow.
fn fig2() {
    println!("== Figure 2: TPC-H Q7 data flows ==");
    let (plan, _) = q7();
    println!("(a) implemented data flow:\n{}", plan.render());
    let report = Optimizer::new(PropertyMode::Sca).optimize(&plan);
    let best = report.best();
    println!(
        "(b) 1st-ranked reordered data flow (cost {:.3e} vs implemented {:.3e}):\n{}",
        best.cost,
        report.ranked[report.rank_of(&plan.canonical()).unwrap()].cost,
        best.plan.render()
    );
    save(
        "fig2.txt",
        &format!("(a)\n{}\n(b)\n{}", plan.render(), best.plan.render()),
    );
}

/// Figure 3 + the Section 7.3 "Plan Enumeration Space" narrative: Q15's
/// two orders of Reduce and Match, with their physical strategies.
fn fig3() {
    println!("== Figure 3: TPC-H Q15 data flows and physical strategies ==");
    let (plan, _) = q15();
    let report = Optimizer::new(PropertyMode::Sca).optimize(&plan);
    println!(
        "{} alternatives enumerated (paper: 4)\n",
        report.n_enumerated
    );
    let mut text = String::new();
    for (i, r) in report.ranked.iter().enumerate() {
        let entry = format!(
            "rank {} cost {:.3e}\n{}physical:\n{}\n",
            i + 1,
            r.cost,
            r.plan.render(),
            r.phys.render(&r.plan)
        );
        println!("{entry}");
        text.push_str(&entry);
    }
    save("fig3.txt", &text);
}

/// Figure 4: clickstream — implemented vs. 1st-ranked flow.
fn fig4() {
    println!("== Figure 4: clickstream data flows ==");
    let (plan, _) = clicks();
    println!("(a) implemented data flow:\n{}", plan.render());
    let report = Optimizer::new(PropertyMode::Manual).optimize(&plan);
    let best = report.best();
    println!(
        "(b) 1st-ranked reordered data flow:\n{}",
        best.plan.render()
    );
    let impl_rank = report
        .rank_of(&plan.canonical())
        .map(|r| r + 1)
        .unwrap_or(0);
    println!(
        "implemented flow rank: {impl_rank} of {}",
        report.n_enumerated
    );
    save(
        "fig4.txt",
        &format!("(a)\n{}\n(b)\n{}", plan.render(), best.plan.render()),
    );
}

/// Figure 5: Q7 rank sweep — normalized cost estimates and runtimes for 10
/// regularly picked plans.
fn fig5() {
    println!("== Figure 5: Q7 cost estimates vs execution runtime ==");
    let (plan, inputs) = q7();
    let sweep = rank_sweep(&plan, &inputs, PropertyMode::Sca, 10, 3, 4);
    print!("{}", render_sweep_table("Q7", &sweep));
    save("fig5.csv", &render_sweep_csv(&sweep));
}

/// Figure 6: text mining rank sweep.
fn fig6() {
    println!("== Figure 6: text mining cost estimates vs execution runtime ==");
    let (plan, inputs) = tm();
    let sweep = rank_sweep(&plan, &inputs, PropertyMode::Sca, 10, 3, 4);
    print!("{}", render_sweep_table("text mining", &sweep));
    save("fig6.csv", &render_sweep_csv(&sweep));
}

/// Figure 7: clickstream — all four plans.
fn fig7() {
    println!("== Figure 7: clickstream cost estimates vs execution runtime ==");
    let (plan, inputs) = clicks();
    let sweep = rank_sweep(&plan, &inputs, PropertyMode::Manual, 4, 3, 4);
    print!("{}", render_sweep_table("clickstream", &sweep));
    // Where does the implemented flow rank (paper: rank 3, beaten 1.4×)?
    if let Some(r) = sweep.report.rank_of(&plan.canonical()) {
        println!(
            "implemented flow rank: {} of {} (cost ratio to best {:.2})",
            r + 1,
            sweep.space,
            sweep.report.ranked[r].cost / sweep.report.ranked[0].cost
        );
    }
    save("fig7.csv", &render_sweep_csv(&sweep));
}

/// Table 1: number of enumerated orders, manual annotations vs SCA.
fn table1() {
    println!("== Table 1: enumerated orders, manual annotations vs SCA ==");
    let workloads: Vec<(&str, Plan)> = vec![
        ("Clickstream", clicks().0),
        ("TPC-H Q7", q7().0),
        ("TPC-H Q15", q15().0),
        ("Text Mining", tm().0),
    ];
    let mut csv = String::from("task,manual,sca,recovered\n");
    println!(
        "{:<14} {:>8} {:>8} {:>10}",
        "PACT Task", "Manual", "SCA", "Recovered"
    );
    for (name, plan) in workloads {
        let manual = PropTable::build(&plan, PropertyMode::Manual);
        let sca = PropTable::build(&plan, PropertyMode::Sca);
        let m = enumerate_all(&plan, &manual, 100_000).len();
        let s = enumerate_all(&plan, &sca, 100_000).len();
        let pct = 100.0 * s as f64 / m as f64;
        println!("{name:<14} {m:>8} {s:>8} {pct:>9.0}%");
        csv.push_str(&format!("{name},{m},{s},{pct:.0}%\n"));
    }
    println!("(paper: Clickstream 4/3 = 75%, Q7 2518/2518, Q15 4/4, Text Mining 24/24)");
    save("table1.csv", &csv);
}

/// Section 7.3 "Enumeration Time": enumeration < 1654 ms, SCA overhead
/// "virtually zero".
fn timing() {
    println!("== Enumeration & SCA timing (paper: enumeration < 1654 ms) ==");
    let workloads: Vec<(&str, Plan)> = vec![
        ("Clickstream", clicks().0),
        ("TPC-H Q7", q7().0),
        ("TPC-H Q15", q15().0),
        ("Text Mining", tm().0),
    ];
    let mut csv = String::from("task,space,sca_us,enumeration_ms,physical_ms\n");
    println!(
        "{:<14} {:>7} {:>10} {:>16} {:>13}",
        "PACT Task", "Plans", "SCA (µs)", "Enumerate (ms)", "Physical (ms)"
    );
    for (name, plan) in workloads {
        // SCA pass (properties for every operator).
        let t = Instant::now();
        let _props = PropTable::build(&plan, PropertyMode::Sca);
        let sca_us = t.elapsed().as_micros();
        let report = Optimizer::new(PropertyMode::Sca).optimize(&plan);
        println!(
            "{:<14} {:>7} {:>10} {:>16.1} {:>13.1}",
            name,
            report.n_enumerated,
            sca_us,
            report.enumeration.as_secs_f64() * 1e3,
            report.physical.as_secs_f64() * 1e3,
        );
        csv.push_str(&format!(
            "{},{},{},{:.3},{:.3}\n",
            name,
            report.n_enumerated,
            sca_us,
            report.enumeration.as_secs_f64() * 1e3,
            report.physical.as_secs_f64() * 1e3
        ));
    }
    save("timing.csv", &csv);
}

/// Ablation: how much does each ingredient buy? For every workload,
/// execute the plan chosen under four optimizer configurations:
///
/// * `none` — no reordering: the implemented order, best physical plan,
/// * `default` — reordering with uninformative hints (selectivity 1, cpu 1),
/// * `curated` — reordering with the workload's hand-tuned hints (the
///   paper's user/compiler hint path),
/// * `profiled` — reordering with hints measured by the sampling profiler
///   (the paper's "runtime profiling" hint path; Section 9 future work:
///   black-box selectivity estimation).
fn ablation() {
    println!("== Ablation: hint sources and reordering ==");
    let cases: Vec<(&str, Plan, Inputs, PropertyMode)> = vec![
        {
            let (p, i) = q15();
            ("TPC-H Q15", p, i, PropertyMode::Sca)
        },
        {
            let (p, i) = clicks();
            ("Clickstream", p, i, PropertyMode::Manual)
        },
        {
            let (p, i) = tm();
            ("Text Mining", p, i, PropertyMode::Sca)
        },
    ];
    let mut csv = String::from(
        "task,config,cost_rank,runtime_ms
",
    );
    println!(
        "{:<13} {:>9} {:>10} {:>12}",
        "PACT Task", "config", "cost-rank", "runtime"
    );
    let rt = timing_runtime();
    for (name, plan, inputs, mode) in cases {
        let opt = Optimizer::new(mode).with_dop(4);
        // Ground-truth ranking under curated hints.
        let truth = opt.optimize(&plan);

        let default_hints = vec![strato_dataflow::CostHints::default(); plan.ctx.ops.len()];
        let profiled_hints =
            strato_exec::profile_hints(&plan, &inputs, 10, 50.0).expect("profiling run");

        let candidates: Vec<(&str, Plan)> = vec![
            ("none", plan.clone()),
            ("default", opt.best(&plan.with_hints(default_hints)).plan),
            ("curated", truth.best().plan.clone()),
            ("profiled", opt.best(&plan.with_hints(profiled_hints)).plan),
        ];
        for (config, chosen) in candidates {
            // Execute the chosen ORDER with physical strategies from the
            // curated model (fair comparison of orders, not of physical
            // estimation).
            let rank = truth.rank_of(&chosen.canonical()).expect("same plan space");
            let (plan, phys) = (&truth.ranked[rank].plan, &truth.ranked[rank].phys);
            let opts = strato_exec::ExecOptions::default();
            let _ = rt.execute_with(plan, phys, &inputs, 4, &opts).unwrap();
            let t = Instant::now();
            let _ = rt.execute_with(plan, phys, &inputs, 4, &opts).unwrap();
            let dt = t.elapsed();
            println!(
                "{:<13} {:>9} {:>7}/{:<3} {:>10.1?}",
                name,
                config,
                rank + 1,
                truth.n_enumerated,
                dt
            );
            csv.push_str(&format!(
                "{},{},{},{:.3}
",
                name,
                config,
                rank + 1,
                dt.as_secs_f64() * 1e3
            ));
        }
    }
    save("ablation.csv", &csv);
}

/// Every sub-command, in the order `all` (and any selection) runs them.
const COMMANDS: &[(&str, fn())] = &[
    ("fig2", fig2),
    ("fig3", fig3),
    ("fig4", fig4),
    ("fig5", fig5),
    ("fig6", fig6),
    ("fig7", fig7),
    ("table1", table1),
    ("timing", timing),
    ("ablation", ablation),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let known = |a: &str| a == "all" || COMMANDS.iter().any(|(name, _)| *name == a);
    if let Some(bad) = args.iter().find(|a| !known(a)) {
        let names: Vec<&str> = COMMANDS.iter().map(|(name, _)| *name).collect();
        eprintln!("repro: unknown sub-command {bad:?}");
        eprintln!("usage: repro [all | {}]...", names.join(" | "));
        std::process::exit(2);
    }
    let run_all = args.is_empty() || args.iter().any(|a| a == "all");
    let t0 = Instant::now();
    for (name, run) in COMMANDS {
        if run_all || args.iter().any(|a| a == name) {
            run();
            println!();
        }
    }
    println!("repro finished in {:?}", t0.elapsed());
}
