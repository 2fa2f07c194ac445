//! # strato-bench — experiment harness
//!
//! Shared machinery for regenerating every table and figure of the paper's
//! evaluation (Section 7). The `repro` binary drives it; performance is
//! measured by the `benchmark/` package, which also calls [`rank_sweep`].
//!
//! The central routine is [`rank_sweep`], the experiment design behind
//! Figures 5–7: *"We sort the resulting plans in ascending order by their
//! estimated costs and assign a rank to each plan… We pick ten plans in
//! regular rank intervals from the list and execute them… we plot the cost
//! estimate of the optimizer and the actual runtime, both normalized by
//! the lowest estimated costs and averaged runtime respectively."*

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::time::{Duration, Instant};
use strato_core::{Optimizer, OptimizerReport, RankedPlan};
use strato_dataflow::{Plan, PropertyMode};
use strato_exec::{EngineRuntime, ExecOptions, Inputs, RuntimeOptions};

/// One executed point of a rank sweep.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// 1-based rank in the cost-ordered plan list.
    pub rank: usize,
    /// Estimated cost (optimizer units).
    pub cost: f64,
    /// Cost normalized by the cheapest plan's cost.
    pub norm_cost: f64,
    /// Measured wall time (averaged over `repeats` runs).
    pub runtime: Duration,
    /// Runtime normalized by the fastest measured runtime of the sweep.
    pub norm_runtime: f64,
    /// Rendered logical plan.
    pub plan_text: String,
}

/// Result of a rank sweep over one workload.
#[derive(Debug)]
pub struct Sweep {
    /// Total number of enumerated plans (the plan space size).
    pub space: usize,
    /// The executed sample points, ascending by rank.
    pub points: Vec<SweepPoint>,
    /// The optimizer report (kept for plan-space statistics).
    pub report: OptimizerReport,
}

/// A runtime for timing parallel execution: one worker per core and an
/// unbounded memory pool, so a query's grant is its own
/// `ExecOptions::mem_budget`, as on the process-wide runtime. Standalone
/// `strato_exec::execute` calls share that runtime's one worker, which
/// would run the partitions being timed one after another.
pub fn timing_runtime() -> EngineRuntime {
    EngineRuntime::new(RuntimeOptions {
        mem_budget: None,
        ..RuntimeOptions::default()
    })
}

/// Enumerates and cost-ranks all plans of `plan`, picks `picks` plans at
/// regular rank intervals (always including rank 1 and the last rank),
/// executes each `repeats` times on `inputs` with `dop` partitions, and
/// returns normalized cost/runtime points.
///
/// The plans run on a runtime of the sweep's own with one worker per core
/// (see [`timing_runtime`]).
pub fn rank_sweep(
    plan: &Plan,
    inputs: &Inputs,
    mode: PropertyMode,
    picks: usize,
    repeats: usize,
    dop: usize,
) -> Sweep {
    let opt = Optimizer::new(mode).with_dop(dop);
    let report = opt.optimize(plan);
    let n = report.ranked.len();
    let picks = picks.min(n).max(1);

    // Regularly spaced 1-based ranks, first and last included.
    let ranks: Vec<usize> = if picks == 1 {
        vec![1]
    } else {
        (0..picks)
            .map(|i| 1 + (i * (n - 1)) / (picks - 1))
            .collect()
    };

    let best_cost = report.ranked[0].cost;
    let (rt, opts) = (timing_runtime(), ExecOptions::default());
    let execute = |r: &RankedPlan| rt.execute_with(&r.plan, &r.phys, inputs, dop, &opts);
    let mut points = Vec::new();
    for &rank in &ranks {
        let ranked = &report.ranked[rank - 1];
        let mut total = Duration::ZERO;
        let mut reference = None;
        // Untimed warmup run (allocator and cache state).
        let _ = execute(ranked).expect("warmup");
        for _ in 0..repeats.max(1) {
            let t = Instant::now();
            let (out, _) = execute(ranked).expect("plan execution");
            total += t.elapsed();
            // All executed plans of a sweep must agree — a live safety net
            // on top of the test suite.
            match &reference {
                None => reference = Some(out),
                Some(r) => assert_eq!(
                    r, &out,
                    "executions of rank {rank} disagree — nondeterminism bug"
                ),
            }
        }
        points.push(SweepPoint {
            rank,
            cost: ranked.cost,
            norm_cost: ranked.cost / best_cost,
            runtime: total / repeats.max(1) as u32,
            norm_runtime: 0.0, // filled below
            plan_text: ranked.plan.render(),
        });
    }
    let fastest = points
        .iter()
        .map(|p| p.runtime)
        .min()
        .unwrap_or(Duration::from_nanos(1))
        .max(Duration::from_nanos(1));
    for p in &mut points {
        p.norm_runtime = p.runtime.as_secs_f64() / fastest.as_secs_f64();
    }
    Sweep {
        space: n,
        points,
        report,
    }
}

/// Formats a sweep as the text table printed by the `repro` binary.
pub fn render_sweep_table(title: &str, sweep: &Sweep) -> String {
    let mut s = String::new();
    s.push_str(&format!(
        "{title}: {} plans enumerated; {} executed\n",
        sweep.space,
        sweep.points.len()
    ));
    s.push_str("rank      cost  norm-cost   runtime  norm-runtime\n");
    for p in &sweep.points {
        s.push_str(&format!(
            "{:>4} {:>9.3e} {:>10.2} {:>9.1?} {:>13.2}\n",
            p.rank, p.cost, p.norm_cost, p.runtime, p.norm_runtime
        ));
    }
    s
}

/// Formats a sweep as CSV (`rank,cost,norm_cost,runtime_ms,norm_runtime`).
pub fn render_sweep_csv(sweep: &Sweep) -> String {
    let mut s = String::from("rank,cost,norm_cost,runtime_ms,norm_runtime\n");
    for p in &sweep.points {
        s.push_str(&format!(
            "{},{},{},{},{}\n",
            p.rank,
            p.cost,
            p.norm_cost,
            p.runtime.as_secs_f64() * 1e3,
            p.norm_runtime
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use strato_workloads::textmining;

    #[test]
    fn rank_sweep_on_textmining() {
        let scale = textmining::TextScale { docs: 80 };
        let plan = textmining::plan(scale);
        let inputs: Inputs = textmining::generate(scale, 3).into_iter().collect();
        let sweep = rank_sweep(&plan, &inputs, PropertyMode::Sca, 5, 1, 2);
        assert_eq!(sweep.space, 24);
        assert_eq!(sweep.points.len(), 5);
        assert_eq!(sweep.points[0].rank, 1);
        assert_eq!(sweep.points.last().unwrap().rank, 24);
        assert_eq!(sweep.points[0].norm_cost, 1.0);
        // Costs ascend with rank.
        for w in sweep.points.windows(2) {
            assert!(w[0].cost <= w[1].cost);
        }
        let table = render_sweep_table("tm", &sweep);
        assert!(table.contains("24 plans"), "{table}");
        let csv = render_sweep_csv(&sweep);
        assert_eq!(csv.lines().count(), 6);
    }

    #[test]
    fn single_pick_sweep() {
        let scale = textmining::TextScale { docs: 40 };
        let plan = textmining::plan(scale);
        let inputs: Inputs = textmining::generate(scale, 3).into_iter().collect();
        let sweep = rank_sweep(&plan, &inputs, PropertyMode::Sca, 1, 1, 1);
        assert_eq!(sweep.points.len(), 1);
        assert_eq!(sweep.points[0].rank, 1);
    }
}
