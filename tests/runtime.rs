//! End-to-end tests of the shared engine runtime: many concurrent
//! queries on **one** worker pool and **one** machine-wide memory budget.
//!
//! The central guarantees, pinned here:
//!
//! * every concurrently submitted query is **byte-identical** to the same
//!   query run serially (a standalone call on the process-wide runtime)
//!   and to the logical oracle —
//!   sharing workers and memory is invisible in results,
//! * the global pool bounds resident memory: grants are carved from one
//!   budget, so the peak resident bytes across all queries stay within
//!   the budget plus a small per-query batch slack — starvation shows up
//!   as *spilling*, never as oversubscription,
//! * per-operator statistics stay attributed to the right query even
//!   though pool workers interleave task steps from different queries,
//! * a query whose every source fits in one batch runs on the thread that
//!   submitted it, so it never waits for a pool a heavy neighbor holds.

use std::time::{Duration, Instant};
use strato::core::cost::CostWeights;
use strato::core::physical::best_physical;
use strato::core::{PhysPlan, PropTable};
use strato::dataflow::{CostHints, Plan, ProgramBuilder, PropertyMode, SourceDef};
use strato::exec::{
    execute_logical, execute_with, EngineRuntime, ExecOptions, Inputs, RuntimeOptions,
};
use strato::ir::{FuncBuilder, Intrinsic, UdfKind};
use strato::record::{DataSet, Record, Value};
use strato::workloads::udfs;

/// One grouped-aggregation query: `rows` (k, v) records, summed per key.
/// `seed` varies the data so concurrent queries are distinguishable.
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
        .map(|i| {
            Record::from_values([
                Value::Int((i * (seed + 3)) % 7),
                Value::Int((i * 13 + seed) % 101 - 50),
            ])
        })
        .collect();
    let mut inputs = Inputs::new();
    inputs.insert("s".into(), ds);
    (plan, phys, inputs)
}

#[test]
fn concurrent_queries_on_a_starved_pool_match_serial_oracles() {
    const K: usize = 4;
    // A global budget far below the queries' combined working set. The
    // test holds all of it while the queries run, so every query's grant
    // is zero and it spills everything, however the queries interleave.
    const GLOBAL_BUDGET: u64 = 24 * 1024;
    const PER_QUERY_CAP: u64 = 16 * 1024;
    // Per-query overshoot allowance: operators check the budget *after*
    // absorbing a batch, so each query may sit one small batch above its
    // grant at the instant of the check.
    const PER_QUERY_SLACK: u64 = 16 * 1024;

    let queries: Vec<_> = (0..K as i64).map(|s| grouped_sum(600, s)).collect();
    let opts = ExecOptions {
        batch_size: 32,
        mem_budget: Some(PER_QUERY_CAP),
        ..ExecOptions::default()
    };

    // Serial references: standalone calls (one at a time on the
    // process-wide runtime) and the single-partition logical oracle.
    let references: Vec<DataSet> = queries
        .iter()
        .map(|(plan, phys, inputs)| {
            let (out, _) = execute_with(plan, phys, inputs, 2, &opts).expect("serial run");
            let (oracle, _) = execute_logical(plan, inputs).expect("oracle");
            assert_eq!(out.sorted(), oracle.sorted(), "serial matches the oracle");
            out
        })
        .collect();

    let rt = EngineRuntime::new(RuntimeOptions {
        workers: Some(3),
        mem_budget: Some(GLOBAL_BUDGET),
        ..RuntimeOptions::default()
    });
    let held = rt.memory().carve(Some(GLOBAL_BUDGET));
    assert_eq!(held.bytes(), Some(GLOBAL_BUDGET), "the whole pool is held");

    // All K queries in flight at once on the shared pool (the barrier
    // keeps an early thread from finishing before the last one starts).
    let start = std::sync::Barrier::new(K);
    let results: Vec<(DataSet, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = queries
            .iter()
            .map(|(plan, phys, inputs)| {
                let (opts, rt, start) = (&opts, &rt, &start);
                scope.spawn(move || {
                    start.wait();
                    let (out, stats) = rt
                        .execute_with(plan, phys, inputs, 2, opts)
                        .expect("concurrent run");
                    (out, stats.totals().spill_runs)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    for (i, ((out, spill_runs), reference)) in results.iter().zip(&references).enumerate() {
        assert_eq!(
            out, reference,
            "query {i}: concurrent result must be byte-identical to serial"
        );
        assert!(*spill_runs > 0, "query {i}: a zero grant must spill");
    }

    // The pool held the machine-wide line: every query's grant came out
    // of one budget, and resident bytes never exceeded it by more than
    // the per-query batch slack.
    let snap = rt.snapshot();
    assert!(
        snap.mem_peak_resident <= GLOBAL_BUDGET + K as u64 * PER_QUERY_SLACK,
        "peak resident {} exceeds budget {} + slack",
        snap.mem_peak_resident,
        GLOBAL_BUDGET
    );
    assert_eq!(
        snap.mem_granted, GLOBAL_BUDGET,
        "only the held grant is out"
    );
    assert_eq!(snap.queries_finished, K as u64);
    drop(held);
    assert_eq!(rt.memory().granted(), 0, "all grants returned");
    assert_eq!(rt.memory().resident(), 0, "all operator state released");
}

#[test]
fn per_op_stats_stay_attributed_to_their_query_under_interleaving() {
    // Two queries with different shapes run concurrently on a 2-worker
    // pool, so workers interleave task steps from both. Each query's
    // per-operator calls/emits must equal its own serial run exactly —
    // no cross-query bleed — and step time must land somewhere.
    let a = grouped_sum(400, 1);
    let b = {
        let mut p = ProgramBuilder::new();
        let s = p.source(SourceDef::new("s", &["k", "v"], 300));
        let m = p.map(
            "keep",
            udfs::filter_range(2, 1, -10, 1000),
            CostHints::selectivity(0.8),
            s,
        );
        let g = p.reduce(
            "agg",
            &[0],
            udfs::sum_group_inplace(2, 1),
            CostHints::default().with_distinct_keys(5),
            m,
        );
        let plan = p.finish(g).unwrap().bind().unwrap();
        let props = PropTable::build(&plan, PropertyMode::Sca);
        let phys = best_physical(&plan, &props, &CostWeights::default(), 2);
        let ds: DataSet = (0..300)
            .map(|i| Record::from_values([Value::Int(i % 5), Value::Int((i * 11) % 61 - 30)]))
            .collect();
        let mut inputs = Inputs::new();
        inputs.insert("s".into(), ds);
        (plan, phys, inputs)
    };
    // Below both sources' row counts, so the pool drives both queries.
    let opts = ExecOptions {
        batch_size: 64,
        ..ExecOptions::default()
    };

    // Serial per-op references.
    let serial: Vec<Vec<(u64, u64)>> = [&a, &b]
        .iter()
        .map(|(plan, phys, inputs)| {
            let (_, stats) = execute_with(plan, phys, inputs, 2, &opts).expect("serial");
            stats
                .op_snapshots()
                .iter()
                .map(|s| (s.calls, s.emits))
                .collect()
        })
        .collect();

    let rt = EngineRuntime::new(RuntimeOptions {
        workers: Some(2),
        ..RuntimeOptions::default()
    });
    for _ in 0..3 {
        let snaps: Vec<_> = std::thread::scope(|scope| {
            let handles: Vec<_> = [&a, &b]
                .iter()
                .map(|(plan, phys, inputs)| {
                    let opts = &opts;
                    let rt = &rt;
                    scope.spawn(move || {
                        let (_, stats) = rt
                            .execute_with(plan, phys, inputs, 2, opts)
                            .expect("concurrent run");
                        stats.op_snapshots()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (q, (snap, reference)) in snaps.iter().zip(&serial).enumerate() {
            let got: Vec<(u64, u64)> = snap.iter().map(|s| (s.calls, s.emits)).collect();
            assert_eq!(
                &got, reference,
                "query {q}: per-op calls/emits must match its serial run exactly"
            );
            assert!(
                snap.iter().map(|s| s.nanos).sum::<u64>() > 0,
                "query {q}: task step time must be attributed to its own ops"
            );
        }
    }
}

/// A Reduce over `rows` records of one key whose group UDF calls
/// `burn(units, v)` once, in `finish`, and emits the group's first record
/// with `v` replaced by the checksum.
fn burning_reduce(rows: i64, units: i64) -> (Plan, PhysPlan, Inputs) {
    let burn = {
        let mut b = FuncBuilder::new("burn", UdfKind::Group, vec![2]);
        let it = b.iter_open(0);
        let nil = b.new_label();
        let first = b.iter_next(it, nil);
        let units = b.konst(units);
        let seed = b.get(first, 1);
        let sum = b.call(Intrinsic::Burn, vec![units, seed]);
        let or = b.copy(first);
        b.set(or, 1, sum);
        b.emit(or);
        b.place(nil);
        b.ret();
        b.finish().unwrap()
    };
    let mut p = ProgramBuilder::new();
    let s = p.source(SourceDef::new("s", &["k", "v"], rows as u64));
    let g = p.reduce("burn", &[0], burn, CostHints::default(), s);
    let plan = p.finish(g).unwrap().bind().unwrap();
    let phys = PhysPlan::logical(&plan);
    let ds: DataSet = (0..rows)
        .map(|i| Record::from_values([Value::Int(0), Value::Int(i + 1)]))
        .collect();
    let mut inputs = Inputs::new();
    inputs.insert("s".into(), ds);
    (plan, phys, inputs)
}

#[test]
fn a_one_batch_query_returns_while_a_long_query_holds_the_only_worker() {
    // `burn` units that take about a second in this build.
    let t0 = Instant::now();
    std::hint::black_box(strato::ir::intrinsics::burn(100_000, 1));
    let per_unit_ns = (t0.elapsed().as_nanos() / 100_000).max(1);
    let units = (Duration::from_secs(1).as_nanos() / per_unit_ns) as i64;

    // The long query's 16 rows exceed its batch size, so the pool drives
    // it: one scan step, then one Reduce step that burns in `finish`.
    let (lplan, lphys, linputs) = burning_reduce(16, units);
    let long_opts = ExecOptions {
        batch_size: 4,
        ..ExecOptions::default()
    };
    // 200 rows fit in one default batch.
    let (plan, phys, inputs) = grouped_sum(200, 9);
    let opts = ExecOptions::default();
    let (oracle, _) = execute_with(&plan, &phys, &inputs, 2, &opts).expect("standalone");

    let rt = EngineRuntime::new(RuntimeOptions {
        workers: Some(1),
        ..RuntimeOptions::default()
    });
    std::thread::scope(|scope| {
        let long = scope.spawn(|| {
            let t = Instant::now();
            rt.execute_with(&lplan, &lphys, &linputs, 1, &long_opts)
                .expect("long query");
            t.elapsed()
        });
        // Wait until the worker is inside the Reduce step: busy, with
        // nothing of the long query left queued.
        loop {
            let snap = rt.snapshot();
            if snap.active_queries == 1 && snap.busy_workers == 1 && snap.queued_tasks == 0 {
                break;
            }
            assert!(!long.is_finished(), "the long query ended unobserved");
            std::thread::yield_now();
        }

        let steps = rt.snapshot().tasks_executed;
        let t = Instant::now();
        let (out, _) = rt
            .execute_with(&plan, &phys, &inputs, 2, &opts)
            .expect("one-batch query");
        let short = t.elapsed();
        assert!(
            !long.is_finished(),
            "the one-batch query waited for the worker ({short:?})"
        );
        assert_eq!(out, oracle, "equal to its standalone run");
        let snap = rt.snapshot();
        assert_eq!(snap.tasks_executed, steps, "no worker ran one of its steps");
        assert_eq!(snap.queries_on_submitter, 1);
        assert_eq!(snap.recent_queries, vec![2], "its slot was registered");
        let long = long.join().unwrap();
        assert!(
            short * 4 < long,
            "the one-batch query took {short:?} beside a {long:?} query"
        );
    });
    assert_eq!(rt.snapshot().mem_granted, 0);
}
