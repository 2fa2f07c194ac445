//! The lifecycle of a query's slot in the shared engine runtime: a slot
//! comes and goes with its query, so after any mix of queries — failing
//! ones included, observed while they run — the pool is idle and every
//! granted byte is back, and no query's end disturbs a neighbour.
//!
//! These tests keep the pool busy for a while, so they live apart from
//! `tests/runtime.rs`, whose starved-pool test needs its four queries to
//! overlap and misses that overlap when another test loads the machine.

use std::sync::atomic::{AtomicBool, Ordering};
use strato::core::cost::CostWeights;
use strato::core::physical::best_physical;
use strato::core::{PhysPlan, PropTable};
use strato::dataflow::{CostHints, Plan, ProgramBuilder, PropertyMode, SourceDef};
use strato::exec::{execute_with, EngineRuntime, ExecError, ExecOptions, Inputs, RuntimeOptions};
use strato::ir::{FuncBuilder, Intrinsic, UdfKind};
use strato::record::{DataSet, Record, Value};
use strato::workloads::udfs;

/// A grouped sum over `rows` (k, v) records with 7 distinct keys.
fn grouped_sum(rows: i64, seed: i64) -> (Plan, PhysPlan, Inputs) {
    let mut p = ProgramBuilder::new();
    let s = p.source(SourceDef::new("s", &["k", "v"], rows as u64));
    let g = p.reduce(
        "agg",
        &[0],
        udfs::sum_group_inplace(2, 1),
        CostHints::default().with_distinct_keys(7),
        s,
    );
    let plan = p.finish(g).unwrap().bind().unwrap();
    let props = PropTable::build(&plan, PropertyMode::Sca);
    let phys = best_physical(&plan, &props, &CostWeights::default(), 2);
    let ds: DataSet = (0..rows)
        .map(|i| Record::from_values([Value::Int((i * (seed + 3)) % 7), Value::Int(i % 101)]))
        .collect();
    let mut inputs = Inputs::new();
    inputs.insert("s".into(), ds);
    (plan, phys, inputs)
}

/// A Match of `l(lk, lv)` with `r(rk, rv)` on the first field.
fn join_query(seed: i64) -> (Plan, PhysPlan, Inputs) {
    let mut p = ProgramBuilder::new();
    let l = p.source(SourceDef::new("l", &["lk", "lv"], 40));
    let r = p.source(SourceDef::new("r", &["rk", "rv"], 30));
    let j = p.match_(
        "j",
        &[0],
        &[0],
        udfs::join_concat(2, 2),
        CostHints::default(),
        l,
        r,
    );
    let plan = p.finish(j).unwrap().bind().unwrap();
    let props = PropTable::build(&plan, PropertyMode::Sca);
    let phys = best_physical(&plan, &props, &CostWeights::default(), 2);
    let side = |n: i64, salt: i64| -> DataSet {
        (0..n)
            .map(|i| Record::from_values([Value::Int((i * salt + seed) % 6), Value::Int(i)]))
            .collect()
    };
    let mut inputs = Inputs::new();
    inputs.insert("l".into(), side(40, 5));
    inputs.insert("r".into(), side(30, 7));
    (plan, phys, inputs)
}

#[test]
fn slots_come_and_go_under_churn_while_observed() {
    const SUBMITTERS: usize = 4;
    const PER_SUBMITTER: usize = 50;

    // (query, dop, options): dop 1 and dop 2 grouping, a Match, and a
    // grouping whose per-query cap forces spills. Every source is larger
    // than one batch, so the pool's workers drive every query.
    let pooled = ExecOptions {
        batch_size: 32,
        ..ExecOptions::default()
    };
    let spilling = ExecOptions {
        batch_size: 16,
        mem_budget: Some(0),
        ..ExecOptions::default()
    };
    let kinds = [
        (grouped_sum(120, 1), 1, pooled.clone()),
        (grouped_sum(150, 2), 2, pooled.clone()),
        (join_query(3), 2, pooled),
        (grouped_sum(300, 4), 2, spilling),
    ];
    let references: Vec<DataSet> = kinds
        .iter()
        .map(|((plan, phys, inputs), dop, opts)| {
            let (out, stats) = execute_with(plan, phys, inputs, *dop, opts).expect("standalone");
            if opts.mem_budget == Some(0) {
                assert!(stats.totals().spill_runs > 0, "the capped grouping spills");
            }
            out
        })
        .collect();

    let rt = EngineRuntime::new(RuntimeOptions {
        workers: Some(3),
        mem_budget: Some(64 << 10),
        ..RuntimeOptions::default()
    });
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let observer = scope.spawn(|| {
            let mut seen = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let snap = rt.snapshot();
                assert!(snap.active_queries <= SUBMITTERS);
                assert_eq!(snap.per_query_queued.len(), snap.active_queries);
                let queued: usize = snap.per_query_queued.iter().map(|&(_, n)| n).sum();
                assert_eq!(queued, snap.queued_tasks);
                seen += 1;
            }
            seen
        });
        let submitters: Vec<_> = (0..SUBMITTERS)
            .map(|s| {
                let (kinds, references, rt) = (&kinds, &references, &rt);
                scope.spawn(move || {
                    for i in 0..PER_SUBMITTER {
                        let k = (s + i) % kinds.len();
                        let ((plan, phys, inputs), dop, opts) = &kinds[k];
                        let (out, _) = rt
                            .execute_with(plan, phys, inputs, *dop, opts)
                            .expect("pooled run");
                        assert_eq!(out, references[k], "submitter {s} query {i} (kind {k})");
                    }
                })
            })
            .collect();
        for h in submitters {
            h.join().unwrap();
        }
        stop.store(true, Ordering::Relaxed);
        assert!(observer.join().unwrap() > 0, "the observer took snapshots");
    });

    let snap = rt.snapshot();
    let total = (SUBMITTERS * PER_SUBMITTER) as u64;
    assert_eq!(snap.active_queries, 0, "every slot freed");
    assert_eq!(snap.queued_tasks, 0);
    assert_eq!(snap.queries_started, total);
    assert_eq!(snap.queries_finished, total);
    assert_eq!(snap.queries_on_submitter, 0, "the pool drove every query");
    assert_eq!(snap.mem_granted, 0, "all grants returned");
    assert_eq!(snap.mem_resident, 0, "all operator state released");
}

#[test]
fn a_failing_query_leaves_its_running_neighbour_byte_identical() {
    // Map UDF aborting on the one row whose field is non-zero.
    let failing = {
        let mut p = ProgramBuilder::new();
        let s = p.source(SourceDef::new("s", &["v"], 256));
        let boom = {
            let mut b = FuncBuilder::new("boom", UdfKind::Map, vec![1]);
            let v = b.get_input(0, 0);
            b.call(Intrinsic::AbortIf, vec![v]);
            let or = b.copy_input(0);
            b.emit(or);
            b.ret();
            b.finish().unwrap()
        };
        let m = p.map("boom", boom, CostHints::default(), s);
        let plan = p.finish(m).unwrap().bind().unwrap();
        let props = PropTable::build(&plan, PropertyMode::Sca);
        let phys = best_physical(&plan, &props, &CostWeights::default(), 2);
        let ds: DataSet = (0..256)
            .map(|i| Record::from_values([Value::Int((i == 200) as i64)]))
            .collect();
        let mut inputs = Inputs::new();
        inputs.insert("s".into(), ds);
        (plan, phys, inputs)
    };
    let (plan, phys, inputs) = grouped_sum(40_000, 5);
    let opts = ExecOptions {
        batch_size: 64,
        mem_budget: Some(64 << 10),
        ..ExecOptions::default()
    };
    let (reference, _) = execute_with(&plan, &phys, &inputs, 2, &opts).expect("serial");

    let rt = EngineRuntime::new(RuntimeOptions {
        workers: Some(2),
        mem_budget: Some(1 << 20),
        ..RuntimeOptions::default()
    });
    // Silence the expected UDF panic on the pool's workers only, so a
    // failing assertion of this test still prints.
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let name = std::thread::current().name().map(str::to_owned);
        if !name.is_some_and(|n| n.starts_with("strato-worker")) {
            prev(info);
        }
    }));
    // The failure must land while the healthy query is in flight; a round
    // where the healthy query happened to finish first is run again.
    let mut overlapped = false;
    for _ in 0..20 {
        let healthy_done = AtomicBool::new(false);
        let before = rt.snapshot().queries_started;
        let (out, err, during) = std::thread::scope(|scope| {
            let healthy = scope.spawn(|| {
                let out = rt.execute_with(&plan, &phys, &inputs, 2, &opts);
                healthy_done.store(true, Ordering::SeqCst);
                out
            });
            // Submit the failing query once the healthy one has started.
            while rt.snapshot().queries_started == before {
                std::thread::yield_now();
            }
            let (fplan, fphys, finputs) = &failing;
            let err = rt
                .execute_with(fplan, fphys, finputs, 2, &opts)
                .unwrap_err();
            let during = !healthy_done.load(Ordering::SeqCst);
            (healthy.join().unwrap(), err, during)
        });
        assert!(matches!(err, ExecError::Panic { .. }), "{err}");
        let (out, _) = out.expect("the healthy neighbour succeeds");
        assert_eq!(
            out, reference,
            "the neighbour is byte-identical to its serial run"
        );
        overlapped |= during;
        if overlapped {
            break;
        }
    }
    assert!(
        overlapped,
        "the failure never landed mid-run of its neighbour"
    );

    let snap = rt.snapshot();
    assert_eq!(snap.mem_granted, 0, "both grants returned");
    assert_eq!(snap.mem_resident, 0);
    assert_eq!(snap.active_queries, 0);
    assert_eq!(snap.queued_tasks, 0);
}

/// A Reduce on `k` of `rows` (k, v) records whose UDF emits a copy of its
/// group's first record: SCA proves it first-record-only, so its buffer
/// spills and drains one row per key.
fn first_of_group(rows: i64) -> (Plan, PhysPlan, Inputs) {
    let first = {
        let mut b = FuncBuilder::new("first", UdfKind::Group, vec![2]);
        let it = b.iter_open(0);
        let nil = b.new_label();
        let row = b.iter_next(it, nil);
        let or = b.copy(row);
        b.emit(or);
        b.place(nil);
        b.ret();
        b.finish().unwrap()
    };
    let mut p = ProgramBuilder::new();
    let s = p.source(SourceDef::new("s", &["k", "v"], rows as u64));
    let hints = CostHints::default().with_distinct_keys(11);
    let g = p.reduce("first", &[0], first, hints, s);
    let plan = p.finish(g).unwrap().bind().unwrap();
    assert!(plan.ctx.ops[0].sca_props.first_record_only);
    let props = PropTable::build(&plan, PropertyMode::Sca);
    let phys = best_physical(&plan, &props, &CostWeights::default(), 2);
    let ds: DataSet = (0..rows)
        .map(|i| Record::from_values([Value::Int(i % 11), Value::Int(rows - i)]))
        .collect();
    let mut inputs = Inputs::new();
    inputs.insert("s".into(), ds);
    (plan, phys, inputs)
}

#[test]
fn a_spill_that_cannot_write_fails_its_query_and_leaves_the_runtime_idle() {
    // The spill "directory" is a regular file, so a query's first spill
    // cannot create its scoped directory.
    let base = std::env::temp_dir().join(format!("strato-failed-spill-{}", std::process::id()));
    std::fs::create_dir_all(&base).unwrap();
    let blocker = base.join("not-a-directory");
    std::fs::write(&blocker, b"x").unwrap();
    let rt = EngineRuntime::new(RuntimeOptions {
        workers: Some(2),
        mem_budget: Some(1 << 20),
        spill_dir: Some(blocker.clone()),
    });
    let starved = ExecOptions {
        batch_size: 16,
        mem_budget: Some(0),
        ..ExecOptions::default()
    };
    let queries = [
        ("grouped sum", grouped_sum(300, 1)),
        ("join", join_query(2)),
        ("first-record-only reduce", first_of_group(300)),
    ];
    for (name, (plan, phys, inputs)) in &queries {
        let err = rt
            .execute_with(plan, phys, inputs, 2, &starved)
            .expect_err(name);
        assert!(matches!(err, ExecError::Spill(_)), "{name}: {err}");
        let snap = rt.snapshot();
        assert_eq!(snap.mem_granted, 0, "{name} returned its grant");
        assert_eq!(snap.mem_resident, 0, "{name} released its buffers");
        assert_eq!(snap.active_queries, 0, "{name} freed its slot");
        assert_eq!(snap.queued_tasks, 0, "{name} left no task queued");
    }
    assert_eq!(std::fs::read(&blocker).unwrap(), b"x");

    // The runtime still serves: an unbudgeted query equals its serial run.
    let unbudgeted = ExecOptions {
        mem_budget: None,
        ..ExecOptions::default()
    };
    for (name, (plan, phys, inputs)) in &queries {
        let (reference, _) = execute_with(plan, phys, inputs, 2, &unbudgeted).expect("serial");
        let (out, stats) = rt
            .execute_with(plan, phys, inputs, 2, &unbudgeted)
            .expect(name);
        assert_eq!(out, reference, "{name}");
        assert_eq!(stats.totals().spill_runs, 0, "{name}");
    }
    std::fs::remove_dir_all(&base).unwrap();
}
