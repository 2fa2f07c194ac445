//! The plan-equivalence harness — the paper's safety property.
//!
//! Section 5: "Our method is safe if P′ and P produce the same query result
//! for every possible input I." These tests enumerate the full reordering
//! space of representative programs, execute *every* alternative on seeded
//! random data with the logical executor, and assert multiset equality of
//! the outputs. Physical plans are additionally cross-checked against the
//! logical oracle.

use rand::prelude::*;
use rand::rngs::StdRng;
use strato::core::{enumerate_all, Optimizer, PropTable};
use strato::dataflow::{CostHints, Plan, ProgramBuilder, PropertyMode, SourceDef};
use strato::exec::{
    execute, execute_logical, execute_with, EngineRuntime, ExecOptions, Inputs, RuntimeOptions,
};
use strato::ir::{BinOp, FuncBuilder, Function, UdfKind, UnOp};
use strato::record::{DataSet, Record, RecordBatch, Value};

// ---------------------------------------------------------------------------
// UDF zoo
// ---------------------------------------------------------------------------

fn filter_lt_zero(w: usize, field: usize) -> Function {
    let mut b = FuncBuilder::new("filter", UdfKind::Map, vec![w]);
    let v = b.get_input(0, field);
    let z = b.konst(0i64);
    let c = b.bin(BinOp::Lt, v, z);
    let end = b.new_label();
    b.branch(c, end);
    let or = b.copy_input(0);
    b.emit(or);
    b.place(end);
    b.ret();
    b.finish().unwrap()
}

fn abs_field(w: usize, field: usize) -> Function {
    let mut b = FuncBuilder::new("abs", UdfKind::Map, vec![w]);
    let v = b.get_input(0, field);
    let or = b.copy_input(0);
    let a = b.un(UnOp::Abs, v);
    b.set(or, field, a);
    b.emit(or);
    b.ret();
    b.finish().unwrap()
}

fn add_const(w: usize, field: usize, k: i64) -> Function {
    let mut b = FuncBuilder::new("addc", UdfKind::Map, vec![w]);
    let v = b.get_input(0, field);
    let c = b.konst(k);
    let s = b.bin(BinOp::Add, v, c);
    let or = b.copy_input(0);
    b.set(or, field, s);
    b.emit(or);
    b.ret();
    b.finish().unwrap()
}

/// Reduce UDF: copy the first record of the group and append sum(field).
fn sum_group(w: usize, field: usize) -> Function {
    let mut b = FuncBuilder::new("sum", UdfKind::Group, vec![w]);
    let sum = b.konst(0i64);
    let it = b.iter_open(0);
    let done = b.new_label();
    let head = b.new_label();
    b.place(head);
    let r = b.iter_next(it, done);
    let v = b.get(r, field);
    b.bin_into(sum, BinOp::Add, sum, v);
    b.jump(head);
    b.place(done);
    let it2 = b.iter_open(0);
    let nil = b.new_label();
    let first = b.iter_next(it2, nil);
    let or = b.copy(first);
    b.set(or, w, sum);
    b.emit(or);
    b.place(nil);
    b.ret();
    b.finish().unwrap()
}

/// Reduce UDF: emit all records of groups that contain a record with
/// `field > 0` (all-or-nothing group filter, like "Filter Buy Sessions").
fn group_filter_any_positive(w: usize, field: usize) -> Function {
    let mut b = FuncBuilder::new("gfilter", UdfKind::Group, vec![w]);
    let found = b.konst(false);
    let it = b.iter_open(0);
    let scan_done = b.new_label();
    let head = b.new_label();
    b.place(head);
    let r = b.iter_next(it, scan_done);
    let v = b.get(r, field);
    let z = b.konst(0i64);
    let pos = b.bin(BinOp::Gt, v, z);
    b.bin_into(found, BinOp::Or, found, pos);
    b.jump(head);
    b.place(scan_done);
    let end = b.new_label();
    b.branch_not(found, end);
    let it2 = b.iter_open(0);
    let emit_done = b.new_label();
    let head2 = b.new_label();
    b.place(head2);
    let r2 = b.iter_next(it2, emit_done);
    let or = b.copy(r2);
    b.emit(or);
    b.jump(head2);
    b.place(emit_done);
    b.place(end);
    b.ret();
    b.finish().unwrap()
}

fn join_concat(l: usize, r: usize) -> Function {
    let mut b = FuncBuilder::new("join", UdfKind::Pair, vec![l, r]);
    let or = b.concat_inputs();
    b.emit(or);
    b.ret();
    b.finish().unwrap()
}

// ---------------------------------------------------------------------------
// Harness
// ---------------------------------------------------------------------------

fn random_ds(rng: &mut StdRng, rows: usize, widths: usize, key_domain: i64) -> DataSet {
    (0..rows)
        .map(|_| {
            Record::from_values(
                (0..widths).map(|_| Value::Int(rng.gen_range(-key_domain..=key_domain))),
            )
        })
        .collect()
}

/// Enumerates all plans in both property modes and asserts every
/// alternative produces the same bag as the original order.
/// A runtime with `workers` pool threads and an unbounded memory pool, so
/// `ExecOptions::mem_budget` is the grant — as on a standalone call.
fn runtime(workers: usize) -> EngineRuntime {
    EngineRuntime::new(RuntimeOptions {
        workers: Some(workers),
        mem_budget: None,
        spill_dir: None,
    })
}

fn assert_all_plans_equivalent(plan: &Plan, inputs: &Inputs, min_expected_plans: usize) {
    let (reference, _) = execute_logical(plan, inputs).expect("reference execution");
    for mode in [PropertyMode::Sca, PropertyMode::Manual] {
        let props = PropTable::build(plan, mode);
        let alts = enumerate_all(plan, &props, 50_000);
        assert!(
            alts.len() >= min_expected_plans,
            "expected at least {min_expected_plans} plans, got {} ({mode:?})",
            alts.len()
        );
        for alt in &alts {
            let (out, _) = execute_logical(alt, inputs).expect("alternative execution");
            if let Err(diff) = reference.bag_diff(&out) {
                panic!(
                    "plan not equivalent under {mode:?}:\n{}\ndiff: {diff}",
                    alt.render()
                );
            }
        }
    }
}

#[test]
fn section3_example_three_maps() {
    // The paper's running example: f1 = |B|, f2 = filter A ≥ 0,
    // f3 = A := A + B. Only f1 ↔ f2 may swap.
    let mut p = ProgramBuilder::new();
    let s = p.source(SourceDef::new("i", &["a", "b"], 64));
    let m1 = p.map("f1", abs_field(2, 1), CostHints::default(), s);
    let m2 = p.map("f2", filter_lt_zero(2, 0), CostHints::default(), m1);
    let m3 = p.map(
        "f3",
        {
            let mut b = FuncBuilder::new("f3", UdfKind::Map, vec![2]);
            let a = b.get_input(0, 0);
            let bb = b.get_input(0, 1);
            let sum = b.bin(BinOp::Add, a, bb);
            let or = b.copy_input(0);
            b.set(or, 0, sum);
            b.emit(or);
            b.ret();
            b.finish().unwrap()
        },
        CostHints::default(),
        m2,
    );
    let plan = p.finish(m3).unwrap().bind().unwrap();

    let props = PropTable::build(&plan, PropertyMode::Sca);
    let alts = enumerate_all(&plan, &props, 1000);
    assert_eq!(alts.len(), 2, "exactly f1↔f2 may swap");

    let mut rng = StdRng::seed_from_u64(42);
    let mut inputs = Inputs::new();
    inputs.insert("i".into(), random_ds(&mut rng, 64, 2, 50));
    assert_all_plans_equivalent(&plan, &inputs, 2);
}

#[test]
fn map_chain_with_writes_and_filters() {
    let mut p = ProgramBuilder::new();
    let s = p.source(SourceDef::new("s", &["a", "b", "c", "d"], 48));
    let m1 = p.map("abs_a", abs_field(4, 0), CostHints::default(), s);
    let m2 = p.map("flt_b", filter_lt_zero(4, 1), CostHints::default(), m1);
    let m3 = p.map("add_c", add_const(4, 2, 7), CostHints::default(), m2);
    let m4 = p.map("flt_d", filter_lt_zero(4, 3), CostHints::default(), m3);
    let plan = p.finish(m4).unwrap().bind().unwrap();
    let mut rng = StdRng::seed_from_u64(7);
    let mut inputs = Inputs::new();
    inputs.insert("s".into(), random_ds(&mut rng, 48, 4, 20));
    // Four ops touching disjoint fields: all 24 orders must be valid.
    assert_all_plans_equivalent(&plan, &inputs, 24);
}

#[test]
fn conflicting_writes_do_not_reorder() {
    let mut p = ProgramBuilder::new();
    let s = p.source(SourceDef::new("s", &["a"], 16));
    let m1 = p.map("add1", add_const(1, 0, 1), CostHints::default(), s);
    let m2 = p.map("abs", abs_field(1, 0), CostHints::default(), m1);
    let plan = p.finish(m2).unwrap().bind().unwrap();
    let props = PropTable::build(&plan, PropertyMode::Sca);
    // (x+1).abs() ≠ x.abs()+1 — the ROC condition must block this.
    assert_eq!(enumerate_all(&plan, &props, 100).len(), 1);
}

#[test]
fn map_reduce_key_filter_crosses() {
    // Filter on the grouping key may cross the Reduce; filter on the
    // aggregated field may not.
    let mut p = ProgramBuilder::new();
    let s = p.source(SourceDef::new("s", &["k", "v"], 60));
    let m = p.map("keyflt", filter_lt_zero(2, 0), CostHints::default(), s);
    let r = p.reduce("sum", &[0], sum_group(2, 1), CostHints::default(), m);
    let plan = p.finish(r).unwrap().bind().unwrap();
    let props = PropTable::build(&plan, PropertyMode::Sca);
    assert_eq!(enumerate_all(&plan, &props, 100).len(), 2);

    let mut rng = StdRng::seed_from_u64(11);
    let mut inputs = Inputs::new();
    inputs.insert("s".into(), random_ds(&mut rng, 60, 2, 5));
    assert_all_plans_equivalent(&plan, &inputs, 2);
}

#[test]
fn map_value_filter_blocked_by_reduce() {
    let mut p = ProgramBuilder::new();
    let s = p.source(SourceDef::new("s", &["k", "v"], 16));
    let r = p.reduce("sum", &[0], sum_group(2, 1), CostHints::default(), s);
    let m = p.map("vflt", filter_lt_zero(3, 1), CostHints::default(), r);
    let plan = p.finish(m).unwrap().bind().unwrap();
    let props = PropTable::build(&plan, PropertyMode::Sca);
    // v is not the key and feeds the sum → blocked.
    assert_eq!(enumerate_all(&plan, &props, 100).len(), 1);
}

#[test]
fn filter_pushes_through_join_on_single_side() {
    let mut p = ProgramBuilder::new();
    let l = p.source(SourceDef::new("l", &["lk", "lv"], 40));
    let r = p.source(SourceDef::new("r", &["rk", "rv"], 30));
    let j = p.match_(
        "j",
        &[0],
        &[0],
        join_concat(2, 2),
        CostHints::default(),
        l,
        r,
    );
    let f = p.map("flt_l", filter_lt_zero(4, 1), CostHints::default(), j);
    let plan = p.finish(f).unwrap().bind().unwrap();
    let props = PropTable::build(&plan, PropertyMode::Sca);
    let alts = enumerate_all(&plan, &props, 100);
    assert_eq!(alts.len(), 2, "filter on l.lv must push below the join");

    let mut rng = StdRng::seed_from_u64(13);
    let mut inputs = Inputs::new();
    inputs.insert("l".into(), random_ds(&mut rng, 40, 2, 6));
    inputs.insert("r".into(), random_ds(&mut rng, 30, 2, 6));
    assert_all_plans_equivalent(&plan, &inputs, 2);
}

#[test]
fn filter_on_join_key_stays_put_only_if_it_writes() {
    // A map that REWRITES the join key must not cross the join.
    let mut p = ProgramBuilder::new();
    let l = p.source(SourceDef::new("l", &["lk"], 16));
    let r = p.source(SourceDef::new("r", &["rk"], 16));
    let j = p.match_(
        "j",
        &[0],
        &[0],
        join_concat(1, 1),
        CostHints::default(),
        l,
        r,
    );
    let m = p.map("bump", add_const(2, 0, 1), CostHints::default(), j);
    let plan = p.finish(m).unwrap().bind().unwrap();
    let props = PropTable::build(&plan, PropertyMode::Sca);
    assert_eq!(enumerate_all(&plan, &props, 100).len(), 1);
}

#[test]
fn invariant_grouping_reduce_through_pk_fk_match() {
    // Reduce on the FK side key may cross a PK–FK Match (Q15 shape).
    let mut p = ProgramBuilder::new();
    let li = p.source(SourceDef::new("li", &["suppkey", "price"], 80));
    let su = p.source(SourceDef::new("su", &["skey", "sname"], 10).with_unique_key(&[0]));
    let agg = p.reduce("agg", &[0], sum_group(2, 1), CostHints::default(), li);
    let j = p.match_(
        "jn",
        &[0],
        &[0],
        join_concat(3, 2),
        CostHints::default(),
        agg,
        su,
    );
    let plan = p.finish(j).unwrap().bind().unwrap();
    let props = PropTable::build(&plan, PropertyMode::Sca);
    let alts = enumerate_all(&plan, &props, 100);
    assert_eq!(alts.len(), 2, "aggregation push-up must be found");

    let mut rng = StdRng::seed_from_u64(17);
    let mut inputs = Inputs::new();
    inputs.insert("li".into(), random_ds(&mut rng, 80, 2, 8));
    // Unique supplier keys -8..=8 with names.
    let su_ds: DataSet = (-8..=8i64)
        .map(|k| Record::from_values([Value::Int(k), Value::str(format!("s{k}"))]))
        .collect();
    inputs.insert("su".into(), su_ds);
    assert_all_plans_equivalent(&plan, &inputs, 2);
}

#[test]
fn invariant_grouping_blocked_without_uniqueness() {
    // Same shape but the supplier side has NO unique key: blocked.
    let mut p = ProgramBuilder::new();
    let li = p.source(SourceDef::new("li", &["suppkey", "price"], 80));
    let su = p.source(SourceDef::new("su", &["skey", "sname"], 10));
    let agg = p.reduce("agg", &[0], sum_group(2, 1), CostHints::default(), li);
    let j = p.match_(
        "jn",
        &[0],
        &[0],
        join_concat(3, 2),
        CostHints::default(),
        agg,
        su,
    );
    let plan = p.finish(j).unwrap().bind().unwrap();
    let props = PropTable::build(&plan, PropertyMode::Sca);
    assert_eq!(enumerate_all(&plan, &props, 100).len(), 1);
}

#[test]
fn group_preserving_match_crosses_group_filter_reduce() {
    // Clickstream shape: Reduce(all-or-nothing filter) then a PK-FK Match
    // on the same grouping key — the Match may sink below the Reduce.
    let mut p = ProgramBuilder::new();
    let clicks = p.source(SourceDef::new("clicks", &["session", "action"], 60));
    let login = p.source(SourceDef::new("login", &["lsession", "user"], 20).with_unique_key(&[0]));
    let r = p.reduce(
        "buy",
        &[0],
        group_filter_any_positive(2, 1),
        CostHints::default(),
        clicks,
    );
    let j = p.match_(
        "logged",
        &[0],
        &[0],
        join_concat(2, 2),
        CostHints::default(),
        r,
        login,
    );
    let plan = p.finish(j).unwrap().bind().unwrap();
    let props = PropTable::build(&plan, PropertyMode::Sca);
    let alts = enumerate_all(&plan, &props, 100);
    assert_eq!(alts.len(), 2);

    let mut rng = StdRng::seed_from_u64(23);
    let mut inputs = Inputs::new();
    inputs.insert("clicks".into(), random_ds(&mut rng, 60, 2, 6));
    let login_ds: DataSet = (-6..=6i64)
        .map(|k| Record::from_values([Value::Int(k), Value::Int(k * 100)]))
        .collect();
    inputs.insert("login".into(), login_ds);
    assert_all_plans_equivalent(&plan, &inputs, 2);
}

#[test]
fn join_rotation_bushy_equivalence() {
    // Three-way join chain R ⋈ S ⋈ T where the upper join touches only
    // R and T attributes: rotation must be found and be equivalent.
    let mut p = ProgramBuilder::new();
    let rr = p.source(SourceDef::new("r", &["rk", "rv"], 30));
    let ss = p.source(SourceDef::new("s", &["sk"], 20));
    let tt = p.source(SourceDef::new("t", &["tk"], 20));
    // j1: r.rk = s.sk ; j2: r.rv = t.tk (upper join reads only R and T).
    let j1 = p.match_(
        "j1",
        &[0],
        &[0],
        join_concat(2, 1),
        CostHints::default(),
        rr,
        ss,
    );
    let j2 = p.match_(
        "j2",
        &[1],
        &[0],
        join_concat(3, 1),
        CostHints::default(),
        j1,
        tt,
    );
    let plan = p.finish(j2).unwrap().bind().unwrap();
    let props = PropTable::build(&plan, PropertyMode::Sca);
    let alts = enumerate_all(&plan, &props, 100);
    assert!(
        alts.len() >= 2,
        "rotation must be discovered, got {}",
        alts.len()
    );

    let mut rng = StdRng::seed_from_u64(29);
    let mut inputs = Inputs::new();
    inputs.insert("r".into(), random_ds(&mut rng, 30, 2, 5));
    inputs.insert("s".into(), random_ds(&mut rng, 20, 1, 5));
    inputs.insert("t".into(), random_ds(&mut rng, 20, 1, 5));
    assert_all_plans_equivalent(&plan, &inputs, 2);
}

#[test]
fn physical_plans_agree_with_logical_for_every_alternative() {
    let mut p = ProgramBuilder::new();
    let l = p.source(SourceDef::new("l", &["lk", "lv"], 50));
    let r = p.source(SourceDef::new("r", &["rk"], 20).with_unique_key(&[0]));
    let j = p.match_(
        "j",
        &[0],
        &[0],
        join_concat(2, 1),
        CostHints::default(),
        l,
        r,
    );
    let f = p.map("flt", filter_lt_zero(3, 1), CostHints::default(), j);
    let g = p.reduce("sum", &[0], sum_group(3, 1), CostHints::default(), f);
    let plan = p.finish(g).unwrap().bind().unwrap();

    let mut rng = StdRng::seed_from_u64(31);
    let mut inputs = Inputs::new();
    inputs.insert("l".into(), random_ds(&mut rng, 50, 2, 7));
    let r_ds: DataSet = (-7..=7i64)
        .map(|k| Record::from_values([Value::Int(k)]))
        .collect();
    inputs.insert("r".into(), r_ds);

    let (reference, _) = execute_logical(&plan, &inputs).unwrap();
    let opt = Optimizer::new(PropertyMode::Sca).with_dop(4);
    let report = opt.optimize(&plan);
    assert!(report.n_enumerated >= 2);
    for ranked in &report.ranked {
        let (out, _) = execute(&ranked.plan, &ranked.phys, &inputs, 4).unwrap();
        if let Err(diff) = reference.bag_diff(&out) {
            panic!(
                "physical execution diverged:\n{}\n{}\ndiff: {diff}",
                ranked.plan.render(),
                ranked.phys.render(&ranked.plan)
            );
        }
    }
}

#[test]
fn physical_agrees_with_logical_across_dop_and_batch_size() {
    // The operator runtime must be invariant under the degree of
    // parallelism and the batch boundaries. Sweep dop ∈ {1, 2, 4, 8} ×
    // batch size ∈ {1, default} over a join + filter + reduce plan (the
    // Partition ship's wire round-trip check runs too: tests are debug
    // builds).
    let mut p = ProgramBuilder::new();
    let l = p.source(SourceDef::new("l", &["lk", "lv"], 50));
    let r = p.source(SourceDef::new("r", &["rk"], 20).with_unique_key(&[0]));
    let j = p.match_(
        "j",
        &[0],
        &[0],
        join_concat(2, 1),
        CostHints::default(),
        l,
        r,
    );
    let f = p.map("flt", filter_lt_zero(3, 1), CostHints::default(), j);
    let g = p.reduce("sum", &[0], sum_group(3, 1), CostHints::default(), f);
    let plan = p.finish(g).unwrap().bind().unwrap();

    let mut rng = StdRng::seed_from_u64(37);
    let mut inputs = Inputs::new();
    inputs.insert("l".into(), random_ds(&mut rng, 50, 2, 7));
    let r_ds: DataSet = (-7..=7i64)
        .map(|k| Record::from_values([Value::Int(k)]))
        .collect();
    inputs.insert("r".into(), r_ds);

    let (reference, _) = execute_logical(&plan, &inputs).unwrap();
    for dop in [1usize, 2, 4, 8] {
        let opt = Optimizer::new(PropertyMode::Sca).with_dop(dop);
        let report = opt.optimize(&plan);
        let best = &report.ranked[0];
        for batch_size in [1usize, RecordBatch::DEFAULT_SIZE] {
            let opts = ExecOptions {
                batch_size,
                ..ExecOptions::default()
            };
            let (out, _) = execute_with(&best.plan, &best.phys, &inputs, dop, &opts).unwrap();
            if let Err(diff) = reference.bag_diff(&out) {
                panic!(
                    "divergence at dop={dop} batch_size={batch_size}:\n{}\ndiff: {diff}",
                    best.phys.render(&best.plan)
                );
            }
        }
    }
}

#[test]
fn streaming_runtime_invariant_under_workers_and_channel_capacity() {
    // The worker-pool scheduler must be a pure transport change: for every
    // dop × batch-size point of the existing sweep, sweeping the pool size
    // and the channel bound (runtime workers ∈ {1, 2, num_cpus} × capacity
    // ∈ {1, 8}) must reproduce the oracle's output bag
    // AND the exact shipped-record/byte accounting of the reference
    // configuration — shipping charges per record, so backpressure and
    // scheduling interleavings must never change the totals.
    let mut p = ProgramBuilder::new();
    let l = p.source(SourceDef::new("l", &["lk", "lv"], 50));
    let r = p.source(SourceDef::new("r", &["rk"], 20).with_unique_key(&[0]));
    let j = p.match_(
        "j",
        &[0],
        &[0],
        join_concat(2, 1),
        CostHints::default(),
        l,
        r,
    );
    let f = p.map("flt", filter_lt_zero(3, 1), CostHints::default(), j);
    let g = p.reduce("sum", &[0], sum_group(3, 1), CostHints::default(), f);
    let plan = p.finish(g).unwrap().bind().unwrap();

    let mut rng = StdRng::seed_from_u64(41);
    let mut inputs = Inputs::new();
    inputs.insert("l".into(), random_ds(&mut rng, 50, 2, 7));
    let r_ds: DataSet = (-7..=7i64)
        .map(|k| Record::from_values([Value::Int(k)]))
        .collect();
    inputs.insert("r".into(), r_ds);

    let (reference, _) = execute_logical(&plan, &inputs).unwrap();
    let num_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut workers: Vec<usize> = vec![1, 2, num_cpus];
    workers.sort_unstable();
    workers.dedup();
    for dop in [1usize, 2, 4, 8] {
        let opt = Optimizer::new(PropertyMode::Sca).with_dop(dop);
        let report = opt.optimize(&plan);
        let best = &report.ranked[0];
        // Shipping reference for this dop: the default configuration.
        let (_, ref_stats) = execute(&best.plan, &best.phys, &inputs, dop).unwrap();
        let t = ref_stats.totals();
        let (ref_shipped, ref_bytes) = (t.records_shipped, t.bytes_shipped);
        for &w in &workers {
            let rt = runtime(w);
            for batch_size in [1usize, RecordBatch::DEFAULT_SIZE] {
                for capacity in [1usize, 8] {
                    // Memory axis: unbounded vs a budget far below the
                    // working set. Spilling is operator-internal, so even
                    // the ship accounting must not move.
                    for mem_budget in [None, Some(64u64)] {
                        let opts = ExecOptions {
                            batch_size,
                            channel_capacity: capacity,
                            mem_budget,
                            ..ExecOptions::default()
                        };
                        let (out, stats) = rt
                            .execute_with(&best.plan, &best.phys, &inputs, dop, &opts)
                            .unwrap();
                        let tag = format!(
                            "dop={dop} batch={batch_size} workers={w} capacity={capacity} \
                             budget={mem_budget:?}"
                        );
                        if let Err(diff) = reference.bag_diff(&out) {
                            panic!("divergence at {tag}:\ndiff: {diff}");
                        }
                        let t = stats.totals();
                        assert_eq!(t.records_shipped, ref_shipped, "shipped records at {tag}");
                        assert_eq!(t.bytes_shipped, ref_bytes, "shipped bytes at {tag}");
                        let spill_runs = t.spill_runs;
                        match mem_budget {
                            Some(_) => {
                                assert!(spill_runs > 0, "tiny budget must spill at {tag}")
                            }
                            None => {
                                assert_eq!(spill_runs, 0, "unbounded must not spill at {tag}")
                            }
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn partition_ship_stats_are_exact_on_a_known_plan() {
    // source → reduce on a fresh key: the reduce input must hash-repartition
    // every record exactly once, at any dop and batch size. Bytes follow the
    // `encoded_len` rule: widened two-int records cost 4 (header) + 2 × 9.
    let mut p = ProgramBuilder::new();
    let s = p.source(SourceDef::new("s", &["k", "v"], 8));
    let r = p.reduce("sum", &[0], sum_group(2, 1), CostHints::default(), s);
    let plan = p.finish(r).unwrap().bind().unwrap();
    let records: Vec<&[i64]> = vec![
        &[1, 10],
        &[1, 20],
        &[2, 5],
        &[2, -7],
        &[3, -1],
        &[7, 2],
        &[7, 3],
        &[9, 4],
    ];
    let mut inputs = Inputs::new();
    inputs.insert(
        "s".into(),
        records
            .iter()
            .map(|row| Record::from_values(row.iter().map(|&v| Value::Int(v))))
            .collect::<DataSet>(),
    );
    let props = PropTable::build(&plan, PropertyMode::Sca);
    for dop in [1usize, 2, 4, 8] {
        let phys = strato::core::physical::best_physical(
            &plan,
            &props,
            &strato::core::cost::CostWeights::default(),
            dop,
        );
        for workers in [1usize, 3] {
            let rt = runtime(workers);
            for batch_size in [1usize, RecordBatch::DEFAULT_SIZE] {
                for capacity in [1usize, 8] {
                    let opts = ExecOptions {
                        batch_size,
                        channel_capacity: capacity,
                        ..ExecOptions::default()
                    };
                    let (_, stats) = rt.execute_with(&plan, &phys, &inputs, dop, &opts).unwrap();
                    let t = stats.totals();
                    let (shipped, bytes) = (t.records_shipped, t.bytes_shipped);
                    let tag =
                        format!("dop={dop} batch={batch_size} workers={workers} cap={capacity}");
                    assert_eq!(shipped, 8, "{tag}");
                    assert_eq!(bytes, 8 * (4 + 2 * 9), "{tag}");
                }
            }
        }
    }
}

#[test]
fn broadcast_ship_stats_count_remote_copies_only() {
    // A join whose tiny build side the optimizer broadcasts: each of the
    // t records is shipped to the dop - 1 *other* partitions — a partition
    // does not ship to itself — and the big probe side stays put.
    let mut p = ProgramBuilder::new();
    let big = p.source(SourceDef::new("big", &["k", "v"], 1_000_000).with_bytes_per_row(64));
    let tiny = p.source(SourceDef::new("tiny", &["k2"], 10).with_bytes_per_row(8));
    let j = p.match_(
        "j",
        &[0],
        &[0],
        join_concat(2, 1),
        CostHints::default().with_distinct_keys(10),
        big,
        tiny,
    );
    let plan = p.finish(j).unwrap().bind().unwrap();
    let props = PropTable::build(&plan, PropertyMode::Sca);
    let dop = 3usize;
    let phys = strato::core::physical::best_physical(
        &plan,
        &props,
        &strato::core::cost::CostWeights::default(),
        dop,
    );
    assert_eq!(
        phys.root.ships[1],
        strato::core::Ship::Broadcast,
        "precondition: tiny side must broadcast:\n{}",
        phys.render(&plan)
    );
    let mut inputs = Inputs::new();
    inputs.insert(
        "big".into(),
        (0..6i64)
            .map(|k| Record::from_values([Value::Int(k), Value::Int(k * 10)]))
            .collect::<DataSet>(),
    );
    inputs.insert(
        "tiny".into(),
        (0..3i64)
            .map(|k| Record::from_values([Value::Int(k)]))
            .collect::<DataSet>(),
    );
    let (out, stats) = execute(&plan, &phys, &inputs, dop).unwrap();
    assert_eq!(out.len(), 3, "keys 0..3 match");
    let t = stats.totals();
    let (shipped, bytes) = (t.records_shipped, t.bytes_shipped);
    // 3 tiny records × (dop - 1) remote copies; each widened tiny record
    // carries one non-null int: 4 + 9 bytes.
    assert_eq!(shipped, 3 * (dop as u64 - 1));
    assert_eq!(bytes, 3 * (4 + 9) * (dop as u64 - 1));
}

#[test]
fn every_blocking_operator_spills_under_a_tiny_budget_without_changing_results() {
    // One plan per blocking-operator family — Match + Reduce, and CoGroup —
    // run unbounded and memory-starved at several dops: bags must match
    // byte for byte, the starved run must report on-disk runs for every
    // blocking operator (per-operator slots), and the unbounded run must
    // never touch disk. Null keys ride along: Match drops them at spill
    // time (they match nothing), CoGroup spills them as ordinary keys.
    let mut rng = StdRng::seed_from_u64(47);
    let with_nulls = |mut ds: DataSet, rng: &mut StdRng| {
        for _ in 0..6 {
            let mut r = Record::from_values([Value::Null, Value::Int(rng.gen_range(-5..=5))]);
            while r.arity() < ds.records()[0].arity() {
                let n = r.arity();
                r.set_field(n, Value::Int(1));
            }
            ds.push(r);
        }
        ds
    };

    // Plan A: join + key filter + reduce (Match and Reduce spill).
    let mut p = ProgramBuilder::new();
    let l = p.source(SourceDef::new("l", &["lk", "lv"], 60));
    let r = p.source(SourceDef::new("r", &["rk"], 25));
    let j = p.match_(
        "j",
        &[0],
        &[0],
        join_concat(2, 1),
        CostHints::default(),
        l,
        r,
    );
    let g = p.reduce("sum", &[0], sum_group(3, 1), CostHints::default(), j);
    let join_plan = p.finish(g).unwrap().bind().unwrap();
    let mut join_inputs = Inputs::new();
    join_inputs.insert(
        "l".into(),
        with_nulls(random_ds(&mut rng, 60, 2, 7), &mut rng),
    );
    let mut r_ds: DataSet = (-7..=7i64)
        .map(|k| Record::from_values([Value::Int(k)]))
        .collect();
    r_ds.push(Record::from_values([Value::Null]));
    join_inputs.insert("r".into(), r_ds);

    // Plan B: co-group (CoGroup spills; null keys group).
    let cg_udf = {
        let mut b = FuncBuilder::new("cg", UdfKind::CoGroup, vec![2, 1]);
        let nl = b.group_count(0);
        let nr = b.group_count(1);
        let d = b.bin(BinOp::Sub, nl, nr);
        let or = b.new_rec();
        b.set(or, 3, d);
        b.emit(or);
        b.ret();
        b.finish().unwrap()
    };
    let mut p = ProgramBuilder::new();
    let cl = p.source(SourceDef::new("cl", &["k", "v"], 50));
    let cr = p.source(SourceDef::new("cr", &["k2"], 30));
    let cg = p.cogroup("cg", &[0], &[0], cg_udf, CostHints::default(), cl, cr);
    let cg_plan = p.finish(cg).unwrap().bind().unwrap();
    let mut cg_inputs = Inputs::new();
    cg_inputs.insert(
        "cl".into(),
        with_nulls(random_ds(&mut rng, 50, 2, 6), &mut rng),
    );
    let mut cr_ds = random_ds(&mut rng, 30, 1, 6);
    cr_ds.push(Record::from_values([Value::Null]));
    cg_inputs.insert("cr".into(), cr_ds);

    for (plan, inputs, spilling_ops) in [
        (&join_plan, &join_inputs, vec!["j", "sum"]),
        (&cg_plan, &cg_inputs, vec!["cg"]),
    ] {
        let (reference, _) = execute_logical(plan, inputs).unwrap();
        let props = PropTable::build(plan, PropertyMode::Sca);
        for dop in [1usize, 3] {
            let phys = strato::core::physical::best_physical(
                plan,
                &props,
                &strato::core::cost::CostWeights::default(),
                dop,
            );
            for mem_budget in [None, Some(64u64)] {
                let opts = ExecOptions {
                    mem_budget,
                    ..ExecOptions::default()
                };
                let (out, stats) = execute_with(plan, &phys, inputs, dop, &opts).unwrap();
                let tag = format!("dop={dop} budget={mem_budget:?}");
                if let Err(diff) = reference.bag_diff(&out) {
                    panic!("divergence at {tag}: {diff}");
                }
                let ops = stats.op_snapshots();
                for name in &spilling_ops {
                    let id = plan.ctx.ops.iter().position(|o| &o.name == name).unwrap();
                    match mem_budget {
                        Some(_) => assert!(
                            ops[id].spill_runs > 0 && ops[id].records_spilled > 0,
                            "{name} must spill at {tag}: {:?}",
                            ops[id]
                        ),
                        None => assert_eq!(
                            (ops[id].spill_runs, ops[id].records_spilled),
                            (0, 0),
                            "{name} must not spill at {tag}"
                        ),
                    }
                }
                let t = stats.totals();
                let (recs, bytes, runs) = (t.records_spilled, t.spilled_bytes, t.spill_runs);
                if mem_budget.is_some() {
                    assert!(recs > 0 && bytes > 0 && runs > 0, "{tag}");
                } else {
                    assert_eq!((recs, bytes, runs), (0, 0, 0), "{tag}");
                }
            }
        }
    }
}

#[test]
fn map_is_never_exchanged_with_cogroup() {
    // CoGroup groups can be one-sided; a Map pushed below one input would
    // skip other-side-only groups that it does process when sitting above.
    // The optimizer must conservatively refuse the exchange — this example
    // (a constant-writing map) would actually diverge if it were applied.
    let mut p = ProgramBuilder::new();
    let l = p.source(SourceDef::new("l", &["k", "v"], 20));
    let r = p.source(SourceDef::new("r", &["k2"], 20));
    let cg_udf = {
        let mut b = FuncBuilder::new("cg", UdfKind::CoGroup, vec![2, 1]);
        // Emit a copy of the first record of whichever side is non-empty.
        let it0 = b.iter_open(0);
        let try_right = b.new_label();
        let done = b.new_label();
        let first_l = b.iter_next(it0, try_right);
        let or_l = b.copy(first_l);
        b.emit(or_l);
        b.jump(done);
        b.place(try_right);
        let it1 = b.iter_open(1);
        let first_r = b.iter_next(it1, done);
        let or_r = b.copy(first_r);
        b.emit(or_r);
        b.place(done);
        b.ret();
        b.finish().unwrap()
    };
    let cg = p.cogroup("cg", &[0], &[0], cg_udf, CostHints::default(), l, r);
    // A map writing a constant into an l-side field.
    let m = p.map(
        "const_v",
        {
            let mut b = FuncBuilder::new("cv", UdfKind::Map, vec![3]);
            let or = b.copy_input(0);
            let c = b.konst(5i64);
            b.set(or, 1, c);
            b.emit(or);
            b.ret();
            b.finish().unwrap()
        },
        CostHints::default(),
        cg,
    );
    let plan = p.finish(m).unwrap().bind().unwrap();
    let props = PropTable::build(&plan, PropertyMode::Sca);
    assert_eq!(
        enumerate_all(&plan, &props, 100).len(),
        1,
        "Map ↔ CoGroup exchange must be conservatively rejected"
    );
}

#[test]
fn optimized_in_place_float_sum_equals_the_logical_oracle() {
    // Float addition is not associative, so a Reduce that folds a group in
    // any other order than the oracle's (e.g. as per-partition partials)
    // rounds differently. The optimizer's plan for an in-place float Σv,
    // run with default options, must equal logical execution exactly.
    use strato::dataflow::spec::{FlowSpec, FoldOp, NodeSpec, OpSpec, ReduceUdf, SourceSpec};
    let plan = FlowSpec::new(NodeSpec::op(
        OpSpec::reduce("sum", &[0], ReduceUdf::fold_inplace(FoldOp::Sum, 1)),
        vec![NodeSpec::source(SourceSpec::new("s", &["k", "v"], 4_000))],
    ))
    .build()
    .unwrap();
    let ds: DataSet = (0..4_000i64)
        .map(|i| {
            let v = (i as f64).powi(2) * 1.1e7 + 0.3;
            Record::from_values([Value::Int(i % 7), Value::Float(v)])
        })
        .collect();
    let mut inputs = Inputs::new();
    inputs.insert("s".into(), ds);
    let (reference, _) = execute_logical(&plan, &inputs).unwrap();
    let reference = reference.sorted();
    assert_eq!(reference.len(), 7);
    for dop in [2usize, 4] {
        let best = Optimizer::new(PropertyMode::Sca).with_dop(dop).best(&plan);
        let (out, _) = execute_with(
            &best.plan,
            &best.phys,
            &inputs,
            dop,
            &ExecOptions::default(),
        )
        .unwrap();
        let phys = best.phys.render(&best.plan);
        assert_eq!(out.sorted(), reference, "dop={dop}:\n{phys}");
    }
}
