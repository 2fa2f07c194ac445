//! Exact UDF call counters: pins `udf_calls`, `interp_steps`,
//! `records_emitted` and every operator's `(calls, emits)` slot for one
//! flow — a Match, two Maps in a row over its output, and a
//! Reduce — across degrees of parallelism and batch sizes.
//!
//! Operators tally their calls locally and flush them to `ExecStats` at
//! the end of every push and finish; these figures were taken when every
//! call charged the shared counters itself, so a tally that is dropped,
//! flushed twice or attributed to the wrong operator moves them.

use strato::core::Optimizer;
use strato::dataflow::{CostHints, NodeHandle, Plan, ProgramBuilder, PropertyMode, SourceDef};
use strato::exec::{execute_with, ExecError, ExecOptions, Inputs};
use strato::ir::{BinOp, FuncBuilder, InterpError, UdfKind};
use strato::record::{DataSet, Record, Value};

/// `(udf_calls, interp_steps, records_emitted)` of the whole run.
const TOTALS: (u64, u64, u64) = (6478, 58220, 5746);

/// `(calls, emits)` per operator, in plan order (`OPS`). The join makes
/// more than 1 024 calls in one finish, and each Map up to 1 024 in one
/// push at the largest batch size.
const PER_OP: [(u64, u64); 4] = [(2155, 2155), (2155, 2155), (2155, 1423), (13, 13)];

const OPS: [&str; 4] = ["join", "m1", "m2", "sum"];

/// `l(k, v) ⋈ r(k2, w)` on `k = k2`, then `v += w` and a `v % 3 != 0`
/// filter (both read the two sides, so neither moves below the join and
/// the pair stays on Forward edges after it), then a per-key sum of `v`.
fn flow() -> (Plan, Inputs) {
    let mut b = FuncBuilder::new("m1", UdfKind::Map, vec![4]);
    let v = b.get_input(0, 1);
    let w = b.get_input(0, 3);
    let s = b.bin(BinOp::Add, v, w);
    let or = b.copy_input(0);
    b.set(or, 1, s);
    b.emit(or);
    b.ret();
    let m1 = b.finish().unwrap();

    let mut b = FuncBuilder::new("m2", UdfKind::Map, vec![4]);
    let v = b.get_input(0, 1);
    let w = b.get_input(0, 3);
    let x = b.bin(BinOp::Sub, v, w);
    let three = b.konst(3i64);
    let r = b.bin(BinOp::Rem, x, three);
    let zero = b.konst(0i64);
    let drop = b.bin(BinOp::Eq, r, zero);
    let end = b.new_label();
    b.branch(drop, end);
    let or = b.copy_input(0);
    b.emit(or);
    b.place(end);
    b.ret();
    let m2 = b.finish().unwrap();

    let mut b = FuncBuilder::new("sum", UdfKind::Group, vec![4]);
    let sum = b.konst(0i64);
    let it = b.iter_open(0);
    let done = b.new_label();
    let head = b.new_label();
    b.place(head);
    let r = b.iter_next(it, done);
    let v = b.get(r, 1);
    b.bin_into(sum, BinOp::Add, sum, v);
    b.jump(head);
    b.place(done);
    let it2 = b.iter_open(0);
    let nil = b.new_label();
    let first = b.iter_next(it2, nil);
    let or = b.copy(first);
    b.set(or, 4, sum);
    b.emit(or);
    b.place(nil);
    b.ret();
    let sum = b.finish().unwrap();

    let mut p = ProgramBuilder::new();
    let j = join(&mut p);
    let m1 = p.map("m1", m1, CostHints::default(), j);
    let m2 = p.map("m2", m2, CostHints::default(), m1);
    let s = p.reduce("sum", &[0], sum, CostHints::default(), m2);
    (p.finish(s).unwrap().bind().unwrap(), inputs())
}

/// The sources and the concatenating join of [`flow`].
fn join(p: &mut ProgramBuilder) -> NodeHandle {
    let mut b = FuncBuilder::new("join", UdfKind::Pair, vec![2, 2]);
    let or = b.concat_inputs();
    b.emit(or);
    b.ret();
    let udf = b.finish().unwrap();
    let l = p.source(SourceDef::new("l", &["k", "v"], 400));
    let r = p.source(SourceDef::new("r", &["k2", "w"], 90));
    p.match_("join", &[0], &[0], udf, CostHints::default(), l, r)
}

fn inputs() -> Inputs {
    let ints = |a: i64, b: i64| Record::from_values([Value::Int(a), Value::Int(b)]);
    let l: DataSet = (0..400).map(|i| ints(i % 13, i * 7 % 100)).collect();
    let r: DataSet = (0..90).map(|j| ints(j % 17, j)).collect();
    Inputs::from([("l".to_string(), l), ("r".to_string(), r)])
}

#[test]
fn udf_counters_match_the_pinned_values_at_every_dop_and_batch_size() {
    let (plan, inputs) = flow();
    for dop in [1, 2, 4] {
        let best = Optimizer::new(PropertyMode::Sca).with_dop(dop).best(&plan);
        let names: Vec<&str> = best.plan.ctx.ops.iter().map(|o| o.name.as_str()).collect();
        assert_eq!(names, OPS, "dop {dop}");
        for batch_size in [1, 7, 1024] {
            let opts = ExecOptions {
                batch_size,
                ..ExecOptions::default()
            };
            let (_, stats) = execute_with(&best.plan, &best.phys, &inputs, dop, &opts).unwrap();
            let t = stats.totals();
            let at = format!("dop {dop}, batch_size {batch_size}");
            assert_eq!(
                (t.udf_calls, t.interp_steps, t.records_emitted),
                TOTALS,
                "{at}"
            );
            let per_op: Vec<(u64, u64)> = stats
                .op_snapshots()
                .iter()
                .map(|o| (o.calls, o.emits))
                .collect();
            assert_eq!(per_op, PER_OP, "{at}");
        }
    }
}

/// A query whose first Map hits the step limit part-way through a
/// push fails with the UDF error — the flush on that exit path must not
/// panic — and the runtime stays usable for the next query.
#[test]
fn a_step_limit_mid_push_fails_the_query_without_a_panic() {
    // m1 spins forever on the join rows with `w = 40`.
    let mut b = FuncBuilder::new("m1", UdfKind::Map, vec![4]);
    let w = b.get_input(0, 3);
    let forty = b.konst(40i64);
    let hit = b.bin(BinOp::Eq, w, forty);
    let spin = b.new_label();
    b.branch(hit, spin);
    let or = b.copy_input(0);
    b.emit(or);
    b.ret();
    b.place(spin);
    b.jump(spin);
    let spinning = b.finish().unwrap();
    let mut p = ProgramBuilder::new();
    let j = join(&mut p);
    let m1 = p.map("m1", spinning, CostHints::default(), j);
    let bad = p.finish(m1).unwrap().bind().unwrap();
    let inputs = inputs();
    for dop in [1, 2] {
        let best = Optimizer::new(PropertyMode::Sca).with_dop(dop).best(&bad);
        let opts = ExecOptions {
            batch_size: 7,
            ..ExecOptions::default()
        };
        let err = execute_with(&best.plan, &best.phys, &inputs, dop, &opts).unwrap_err();
        assert!(
            matches!(&err, ExecError::Udf(op, InterpError::StepLimit(_)) if op == "m1"),
            "dop {dop}: {err}"
        );
    }
}
