//! Property tests for the first-record-only Reduce, against an oracle
//! that runs no engine operator.
//!
//! When SCA proves a Reduce UDF first-record-only, the hash finish keeps
//! one canonical minimum row per key instead of sorting every group, and
//! spilled runs keep only the first record of each key. The logical
//! oracle runs that same finish, so neither the equivalence sweep nor
//! `execute_logical` could catch a wrong minimum. Here the reference is
//! computed in the test: materialize the input, sort it by
//! `(key, record)`, take the first record per key and apply the UDF's
//! effect by hand.

use proptest::prelude::*;
use strato::core::cost::CostWeights;
use strato::core::physical::best_physical;
use strato::core::PropTable;
use strato::dataflow::{CostHints, Plan, ProgramBuilder, PropertyMode, SourceDef};
use strato::exec::{execute_with, explain_analyze, ExecOptions, Inputs};
use strato::ir::{BinOp, FuncBuilder, Function, UdfKind};
use strato::record::{DataSet, Record, Value};

/// The constant the tagging and constant UDFs write into field 2.
const TAG: i64 = 77;

/// The three first-record-only UDFs under test.
#[derive(Debug, Clone, Copy)]
enum Udf {
    /// Copy the group's first record and emit it.
    First,
    /// `First`, then set an added field 2 to `TAG`.
    FirstTagged,
    /// Emit a fresh record holding only `TAG` in field 2; reads no record.
    Constant,
}

impl Udf {
    const ALL: [Udf; 3] = [Udf::First, Udf::FirstTagged, Udf::Constant];

    fn function(self) -> Function {
        let mut b = FuncBuilder::new("udf", UdfKind::Group, vec![2]);
        let tag = b.konst(TAG);
        match self {
            Udf::First | Udf::FirstTagged => {
                let it = b.iter_open(0);
                let nil = b.new_label();
                let first = b.iter_next(it, nil);
                let or = b.copy(first);
                if let Udf::FirstTagged = self {
                    b.set(or, 2, tag);
                }
                b.emit(or);
                b.place(nil);
            }
            Udf::Constant => {
                let or = b.new_rec();
                b.set(or, 2, tag);
                b.emit(or);
            }
        }
        b.ret();
        b.finish().unwrap()
    }

    /// The output of the UDF on a group whose canonical first record is
    /// `first`, built by hand.
    fn apply(self, first: &Record) -> Record {
        let (k, v) = (first.field(0).clone(), first.field(1).clone());
        let tag = Value::Int(TAG);
        match self {
            Udf::First => Record::from_values([k, v]),
            Udf::FirstTagged => Record::from_values([k, v, tag]),
            Udf::Constant => Record::from_values([Value::Null, Value::Null, tag]),
        }
    }
}

/// `s(k, v)` into a Reduce on `k` running `udf`. With `via_map`, an
/// order-fixing Map (`k := k + 0`, a written key, so the Reduce cannot
/// move below it) feeds the Reduce the batches a Map's UDF calls emit;
/// without it, the Reduce reads the scan's batches.
fn plan(udf: Udf, via_map: bool) -> Plan {
    let mut p = ProgramBuilder::new();
    let mut input = p.source(SourceDef::new("s", &["k", "v"], 200));
    if via_map {
        let mut b = FuncBuilder::new("rekey", UdfKind::Map, vec![2]);
        let k = b.get_input(0, 0);
        let zero = b.konst(0i64);
        let k0 = b.bin(BinOp::Add, k, zero);
        let or = b.copy_input(0);
        b.set(or, 0, k0);
        b.emit(or);
        b.ret();
        input = p.map("rekey", b.finish().unwrap(), CostHints::default(), input);
    }
    let hints = CostHints::default().with_distinct_keys(8);
    let r = p.reduce("first", &[0], udf.function(), hints, input);
    p.finish(r).unwrap().bind().unwrap()
}

/// The reference: sort by `(key, record)`, first record per key, apply.
fn reference(udf: Udf, rows: &[Record]) -> (Vec<Record>, u64) {
    let mut sorted = rows.to_vec();
    sorted.sort_by(|a, b| a.field(0).cmp(b.field(0)).then_with(|| a.cmp(b)));
    sorted.dedup_by(|a, b| a.field(0).cmp(b.field(0)).is_eq());
    let mut out: Vec<Record> = sorted.iter().map(|r| udf.apply(r)).collect();
    out.sort();
    (out, sorted.len() as u64)
}

/// A payload of any type the engine's columns hold.
fn arb_payload() -> impl Strategy<Value = Value> {
    prop_oneof![
        (-3i64..3).prop_map(Value::Int),
        (-2i64..2).prop_map(|f| Value::Float(f as f64 / 2.0)),
        (0u8..3).prop_map(|n| Value::str("xy".repeat(n as usize))),
        Just(Value::Null),
    ]
}

/// Rows over keys 1..8 with many duplicates; key 0 becomes null.
fn arb_rows() -> impl Strategy<Value = Vec<Record>> {
    prop::collection::vec((0i64..8, arb_payload()), 1..160).prop_map(|rows| {
        rows.into_iter()
            .map(|(k, v)| {
                let key = if k == 0 { Value::Null } else { Value::Int(k) };
                Record::from_values([key, v])
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn first_record_only_reduce_matches_the_sorted_reference(rows in arb_rows()) {
        let ds: DataSet = rows.iter().cloned().collect();
        let inputs = Inputs::from([("s".to_string(), ds)]);
        for udf in Udf::ALL {
            let (want, keys) = reference(udf, &rows);
            for via_map in [false, true] {
                let plan = plan(udf, via_map);
                let props = PropTable::build(&plan, PropertyMode::Sca);
                let reduce = plan.ctx.ops.len() - 1;
                prop_assert!(plan.ctx.ops[reduce].sca_props.first_record_only);
                for dop in [1, 2, 4] {
                    let phys = best_physical(&plan, &props, &CostWeights::default(), dop);
                    for budget in [None, Some(1024)] {
                        let opts = ExecOptions {
                            mem_budget: budget,
                            batch_size: 16,
                            ..ExecOptions::default()
                        };
                        let (out, stats) =
                            execute_with(&plan, &phys, &inputs, dop, &opts).unwrap();
                        let got = out.sorted();
                        prop_assert!(
                            got == want,
                            "{udf:?} via_map={via_map} dop={dop} budget={budget:?}\n\
                             got  {got:?}\nwant {want:?}"
                        );
                        let t = stats.totals();
                        if budget.is_some() {
                            // Every run holds at most one row per key.
                            prop_assert!(
                                t.records_spilled <= t.spill_runs * keys,
                                "{udf:?} dop={dop}: {} records in {} runs over {keys} keys",
                                t.records_spilled,
                                t.spill_runs
                            );
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn a_tiny_budget_spills_one_row_per_key_per_run() {
    // 400 rows over 4 keys under a 1 KiB budget: the Reduce spills many
    // runs, each of at most 4 rows, where a sorted run would hold every
    // row it was shed.
    let rows: Vec<Record> = (0..400i64)
        .map(|i| Record::from_values([Value::Int(i % 4), Value::Int(i)]))
        .collect();
    let inputs = Inputs::from([("s".to_string(), rows.iter().cloned().collect::<DataSet>())]);
    let plan = plan(Udf::First, false);
    let props = PropTable::build(&plan, PropertyMode::Sca);
    let phys = best_physical(&plan, &props, &CostWeights::default(), 1);
    let opts = ExecOptions {
        mem_budget: Some(1024),
        batch_size: 16,
        ..ExecOptions::default()
    };
    let (out, stats) = execute_with(&plan, &phys, &inputs, 1, &opts).unwrap();
    let t = stats.totals();
    assert!(t.spill_runs > 1, "a 1 KiB budget must spill: {t:?}");
    assert!(t.records_spilled <= t.spill_runs * 4, "{t:?}");
    assert_eq!(out.sorted(), reference(Udf::First, &rows).0);
    // EXPLAIN ANALYZE names the finish that ran.
    let report = explain_analyze(&plan, &phys, &stats);
    assert!(report.contains("first-only"), "{report}");
}
