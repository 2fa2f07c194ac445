//! End-to-end tests of the query tracing subsystem: a traced execution
//! of a plan with a known spill must produce a valid Chrome trace-event
//! document, correctly nested spans with full task attribution, and an
//! estimate-vs-actual EXPLAIN ANALYZE report — without perturbing
//! results.

use strato::core::cost::CostWeights;
use strato::core::physical::best_physical;
use strato::core::{PhysPlan, PropTable};
use strato::dataflow::{CostHints, Plan, ProgramBuilder, PropertyMode, SourceDef};
use strato::exec::{
    execute_with, explain_analyze, EngineRuntime, ExecOptions, Inputs, RuntimeOptions, Span,
    TraceRecorder,
};
use strato::ir::{BinOp, FuncBuilder, UdfKind};
use strato::record::{DataSet, Record, Value};
use strato::server::json::Json;
use strato::workloads::udfs;

/// A grouped aggregation over `rows` (k, v) records — the workload every
/// check below runs. With a tiny memory budget the grouping operator
/// must spill sorted runs and finish through a k-way merge.
fn grouped_sum(rows: i64) -> (Plan, PhysPlan, Inputs) {
    let mut p = ProgramBuilder::new();
    let s = p.source(SourceDef::new("s", &["k", "v"], rows as u64));
    // The grouping operator buffers whole groups, which is what makes the
    // tiny budget spill.
    let g = p.reduce(
        "agg",
        &[0],
        udfs::sum_group(2, 1),
        CostHints::default().with_distinct_keys(50),
        s,
    );
    let plan = p.finish(g).unwrap().bind().unwrap();
    let props = PropTable::build(&plan, PropertyMode::Sca);
    let phys = best_physical(&plan, &props, &CostWeights::default(), 2);
    let ds: DataSet = (0..rows)
        .map(|i| Record::from_values([Value::Int(i % 50), Value::Int((i * 13) % 101 - 50)]))
        .collect();
    let mut inputs = Inputs::new();
    inputs.insert("s".into(), ds);
    (plan, phys, inputs)
}

/// `l(k) ⋈ r(k2)` co-grouped on the key over `rows` records a side; the
/// UDF emits each group's size difference. CoGroup always finishes by the
/// sort-based walk, whether or not any run was written.
fn cogrouped(rows: i64) -> (Plan, PhysPlan, Inputs) {
    let mut b = FuncBuilder::new("cg", UdfKind::CoGroup, vec![1, 1]);
    let nl = b.group_count(0);
    let nr = b.group_count(1);
    let d = b.bin(BinOp::Sub, nl, nr);
    let or = b.new_rec();
    b.set(or, 2, d);
    b.emit(or);
    b.ret();
    let mut p = ProgramBuilder::new();
    let l = p.source(SourceDef::new("l", &["k"], rows as u64));
    let r = p.source(SourceDef::new("r", &["k2"], rows as u64));
    let udf = b.finish().unwrap();
    let cg = p.cogroup("cg", &[0], &[0], udf, CostHints::default(), l, r);
    let plan = p.finish(cg).unwrap().bind().unwrap();
    let props = PropTable::build(&plan, PropertyMode::Sca);
    let phys = best_physical(&plan, &props, &CostWeights::default(), 2);
    let side = |m: i64| -> DataSet {
        (0..rows)
            .map(|i| Record::from_values([Value::Int((i * m) % 50)]))
            .collect()
    };
    let mut inputs = Inputs::new();
    inputs.insert("l".into(), side(1));
    inputs.insert("r".into(), side(7));
    (plan, phys, inputs)
}

/// Options that force the grouping operator out of core: a budget far
/// below the working set.
fn spilling_opts() -> ExecOptions {
    ExecOptions {
        batch_size: 32,
        mem_budget: Some(8 * 1024),
        ..ExecOptions::default()
    }
}

#[test]
fn traced_spilling_query_produces_valid_chrome_trace() {
    let (plan, phys, inputs) = grouped_sum(2_000);

    // Reference: the identical run without a recorder.
    let (untraced_out, _) =
        execute_with(&plan, &phys, &inputs, 2, &spilling_opts()).expect("untraced run");

    let recorder = TraceRecorder::new(42);
    let opts = ExecOptions {
        trace: Some(recorder.clone()),
        ..spilling_opts()
    };
    let (out, stats) = execute_with(&plan, &phys, &inputs, 2, &opts).expect("traced run");
    assert_eq!(
        out.sorted(),
        untraced_out.sorted(),
        "tracing must not perturb results"
    );
    assert!(
        stats.totals().spill_runs > 0,
        "this plan must actually spill for the spill spans to mean anything"
    );
    assert_eq!(recorder.dropped(), 0, "ring capacity suffices here");

    // --- The raw spans: attribution and nesting. ---
    let spans = recorder.spans();
    let tasks: Vec<&(usize, Span)> = spans.iter().filter(|(_, s)| s.cat == "task").collect();
    assert!(!tasks.is_empty(), "task steps must be recorded");
    for (_, s) in &tasks {
        let arg = |k: &str| {
            s.args
                .iter()
                .find(|(n, _)| *n == k)
                .map(|(_, v)| *v)
                .unwrap_or_else(|| panic!("task span {:?} missing arg {k}", s.name))
        };
        assert!(arg("stage") < 8, "plausible stage id");
        assert!(arg("partition") < 2, "dop=2 → partitions 0 and 1");
    }
    // Both partitions of the spilling stage actually ran.
    let partitions: std::collections::BTreeSet<u64> = tasks
        .iter()
        .flat_map(|(_, s)| s.args.iter().filter(|(n, _)| *n == "partition"))
        .map(|(_, v)| *v)
        .collect();
    assert_eq!(partitions.into_iter().collect::<Vec<_>>(), vec![0, 1]);

    for cat in ["ship", "spill", "merge"] {
        assert!(
            spans.iter().any(|(_, s)| s.cat == cat),
            "a spilling dop-2 plan must record at least one {cat:?} span"
        );
    }

    // Task spans on one lane (= one worker thread) never overlap, and
    // every synchronous ship/spill span lies inside some task span on
    // its own lane. (`kway-merge` spans measure a drain window that may
    // straddle cooperative yields, so they are exempt from nesting.)
    let lanes: std::collections::BTreeSet<usize> = spans.iter().map(|(l, _)| *l).collect();
    for lane in lanes {
        let mut lane_tasks: Vec<&Span> = spans
            .iter()
            .filter(|(l, s)| *l == lane && s.cat == "task")
            .map(|(_, s)| s)
            .collect();
        lane_tasks.sort_by_key(|s| s.start_ns);
        for w in lane_tasks.windows(2) {
            assert!(
                w[0].start_ns + w[0].dur_ns <= w[1].start_ns,
                "task steps on one worker are sequential: {:?} then {:?}",
                w[0],
                w[1]
            );
        }
        for (_, s) in spans
            .iter()
            .filter(|(l, s)| *l == lane && matches!(s.cat, "ship" | "spill"))
        {
            assert!(
                lane_tasks.iter().any(|t| {
                    t.start_ns <= s.start_ns && s.start_ns + s.dur_ns <= t.start_ns + t.dur_ns
                }),
                "span {:?} must nest inside a task step on its lane",
                s.name
            );
        }
    }

    // --- The rendered document is valid Chrome trace-event JSON. ---
    let chrome = recorder.chrome_trace_json();
    let doc = Json::parse(&chrome).expect("chrome trace parses as JSON");
    assert_eq!(
        doc.get("displayTimeUnit").and_then(Json::as_str),
        Some("ms")
    );
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_array)
        .expect("traceEvents array");
    let complete: Vec<&Json> = events
        .iter()
        .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
        .collect();
    assert_eq!(
        complete.len(),
        spans.len(),
        "every recorded span renders as one complete event"
    );
    for e in &complete {
        assert_eq!(e.get("pid").and_then(Json::as_i64), Some(42));
        assert!(e.get("tid").and_then(Json::as_i64).is_some());
        assert!(e.get("ts").and_then(Json::as_f64).is_some());
        assert!(e.get("dur").and_then(Json::as_f64).is_some());
        assert_eq!(
            e.get("args")
                .and_then(|a| a.get("query_id"))
                .and_then(Json::as_i64),
            Some(42),
            "every event carries the query id"
        );
    }
    assert!(
        events
            .iter()
            .any(|e| e.get("ph").and_then(Json::as_str) == Some("M")),
        "worker lanes are named via metadata events"
    );
}

#[test]
fn merge_and_spill_spans_appear_only_when_a_run_was_written() {
    // CoGroup's sort-based finish merges however many runs exist: none
    // without memory pressure, so there is no merge to time.
    let (plan, phys, inputs) = cogrouped(2_000);
    let run = |mem_budget: Option<u64>| {
        let recorder = TraceRecorder::new(7);
        let opts = ExecOptions {
            mem_budget,
            trace: Some(recorder.clone()),
            ..spilling_opts()
        };
        let (out, stats) = execute_with(&plan, &phys, &inputs, 2, &opts).expect("traced run");
        let cats: std::collections::BTreeSet<&'static str> =
            recorder.spans().iter().map(|(_, s)| s.cat).collect();
        (out.sorted(), stats.totals().spill_runs, cats)
    };

    let (in_memory, runs, cats) = run(ExecOptions::default().mem_budget);
    assert_eq!(runs, 0, "the default budget holds this input");
    assert!(cats.contains("task") && cats.contains("ship"), "{cats:?}");
    assert!(
        !cats.contains("merge") && !cats.contains("spill"),
        "{cats:?}"
    );

    let (spilled, runs, cats) = run(Some(1024));
    assert!(runs > 0, "a 1 KiB budget must spill");
    assert!(cats.contains("merge") && cats.contains("spill"), "{cats:?}");
    assert_eq!(spilled, in_memory, "same walk, same result");
}

#[test]
fn explain_analyze_reports_estimates_against_actuals() {
    let (plan, phys, inputs) = grouped_sum(2_000);
    let (_, stats) = execute_with(&plan, &phys, &inputs, 2, &spilling_opts()).expect("run");
    assert!(stats.totals().spill_runs > 0, "plan must spill");

    let report = explain_analyze(&plan, &phys, &stats);
    assert!(report.starts_with("EXPLAIN ANALYZE"), "{report}");
    // Every operator line pairs an estimate with measurements and a
    // cardinality-error factor; the scan line carries its estimate.
    assert!(report.contains("agg"), "{report}");
    assert!(report.contains("scan s"), "{report}");
    assert!(report.contains("est: rows="), "{report}");
    assert!(report.contains("| act: rows="), "{report}");
    assert!(report.contains("Δrows="), "{report}");
    // A summing Reduce reads its whole group: no first-record-only finish.
    assert!(!report.contains("first-only"), "{report}");
    // The known spill is attributed in the report.
    assert!(report.contains("spilled="), "{report}");
    let spill_line = report
        .lines()
        .find(|l| l.contains("act:") && !l.contains("spilled=0B (0 runs)"))
        .unwrap_or_else(|| panic!("some operator line must show the spill:\n{report}"));
    assert!(spill_line.contains("runs)"), "{spill_line}");
    // The estimator knew the distinct-key count, so the aggregate's
    // cardinality error is an honest finite factor.
    assert!(!report.contains("Δrows=inf"), "{report}");
}

#[test]
fn standalone_calls_are_the_same_executor_as_a_shared_runtime() {
    let (plan, phys, inputs) = grouped_sum(600);
    // 64-row batches: the 600-row source spans several, so the pool's
    // workers step every run below, at dop 1 too.
    let traced = || {
        let recorder = TraceRecorder::new(1);
        let opts = ExecOptions {
            batch_size: 64,
            trace: Some(recorder.clone()),
            ..ExecOptions::default()
        };
        (recorder, opts)
    };
    let categories = |recorder: &TraceRecorder| -> std::collections::BTreeSet<&'static str> {
        recorder.spans().iter().map(|(_, s)| s.cat).collect()
    };
    let rt = EngineRuntime::new(RuntimeOptions {
        workers: Some(2),
        ..RuntimeOptions::default()
    });

    // At dop 4 and on the logical plan at dop 1, a standalone call and an
    // explicit runtime do the same work and leave the same kinds of spans
    // (the process-wide runtime carves a memory grant like any other).
    for (dop, phys) in [(4, phys), (1, PhysPlan::logical(&plan))] {
        let (standalone_rec, opts) = traced();
        let (standalone, standalone_stats) =
            execute_with(&plan, &phys, &inputs, dop, &opts).unwrap();
        let (shared_rec, opts) = traced();
        let (shared, shared_stats) = rt.execute_with(&plan, &phys, &inputs, dop, &opts).unwrap();
        assert_eq!(standalone, shared, "dop {dop}");
        assert_eq!(
            standalone_stats.totals(),
            shared_stats.totals(),
            "dop {dop}"
        );
        assert_eq!(
            categories(&standalone_rec),
            categories(&shared_rec),
            "dop {dop}"
        );
        assert!(categories(&standalone_rec).contains("task"), "dop {dop}");
        assert!(categories(&standalone_rec).contains("mem"), "dop {dop}");
    }
}

#[test]
fn concurrent_traced_queries_record_one_lane_per_thread() {
    // Two traced queries share one 2-worker runtime, so each worker steps
    // both in turn. A query records from at most three threads (the two
    // workers and its submitter), and its trace must show one lane, and
    // one named track, per thread however the workers alternate.
    let (plan, phys, inputs) = grouped_sum(20_000);
    let opts = ExecOptions {
        batch_size: 16,
        ..ExecOptions::default()
    };
    let rt = EngineRuntime::new(RuntimeOptions {
        workers: Some(2),
        ..RuntimeOptions::default()
    });
    let (untraced, _) = rt.execute_with(&plan, &phys, &inputs, 2, &opts).unwrap();
    let untraced = untraced.sorted();

    let start = std::sync::Barrier::new(2);
    let recorders: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..2)
            .map(|q| {
                let (plan, phys, inputs, opts, rt, start) =
                    (&plan, &phys, &inputs, &opts, &rt, &start);
                s.spawn(move || {
                    let recorder = TraceRecorder::new(q);
                    let opts = ExecOptions {
                        trace: Some(recorder.clone()),
                        ..opts.clone()
                    };
                    start.wait();
                    let (out, _) = rt.execute_with(plan, phys, inputs, 2, &opts).unwrap();
                    (recorder, out.sorted())
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    for (recorder, out) in &recorders {
        let q = recorder.query_id();
        assert_eq!(
            out, &untraced,
            "query {q}: tracing must not perturb results"
        );
        assert_eq!(recorder.dropped(), 0, "query {q}");
        let lanes: std::collections::BTreeSet<i64> =
            recorder.spans().iter().map(|(l, _)| *l as i64).collect();
        assert!(
            (1..=3).contains(&lanes.len()),
            "query {q}: {} lanes for at most 3 recording threads",
            lanes.len()
        );
        let chrome = recorder.chrome_trace_json();
        let doc = Json::parse(&chrome).expect("chrome trace parses as JSON");
        let mut named: Vec<i64> = doc
            .get("traceEvents")
            .and_then(Json::as_array)
            .expect("traceEvents array")
            .iter()
            .filter(|e| e.get("name").and_then(Json::as_str) == Some("thread_name"))
            .map(|e| e.get("tid").and_then(Json::as_i64).expect("tid"))
            .collect();
        named.sort_unstable();
        assert_eq!(
            named,
            lanes.into_iter().collect::<Vec<_>>(),
            "query {q}: one thread_name record per lane"
        );
    }
}
