//! Property tests for enumeration and end-to-end optimization over random
//! Map-chain programs:
//!
//! * Algorithm 1 (faithful port) and the closure enumerator agree,
//! * every enumerated order produces the same output bag (the paper's
//!   safety property, Section 5),
//! * the enumerated set is closed under the move relation,
//! * the optimizer's chosen plan never costs more than the original;
//!
//! and over random join trees (binary keys, partitioning reuse,
//! broadcast):
//!
//! * the optimizer's memoized costing of every alternative agrees, bit for
//!   bit, with costing that alternative alone from a fresh memo, and
//!   `best` picks `optimize`'s winner.

use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use strato::core::cost::CostWeights;
use strato::core::physical::best_physical;
use strato::core::{enumerate_algorithm1, enumerate_all, neighbors, Optimizer, PropTable};
use strato::dataflow::{CostHints, Plan, ProgramBuilder, PropertyMode, SourceDef};
use strato::exec::{execute_logical, Inputs};
use strato::ir::{BinOp, FuncBuilder, Function, UdfKind, UnOp};
use strato::record::{DataSet, Record, Value};
use strato::workloads::udfs;

const WIDTH: usize = 4;

/// One operator of a random chain.
#[derive(Debug, Clone, Copy)]
enum OpKind {
    /// Filter on `field < 0`.
    Filter(usize),
    /// `field := |field|`.
    Abs(usize),
    /// `field := field + k`.
    AddConst(usize, i64),
    /// Duplicate every record.
    Duplicate,
}

fn arb_op() -> impl Strategy<Value = OpKind> {
    prop_oneof![
        (0..WIDTH).prop_map(OpKind::Filter),
        (0..WIDTH).prop_map(OpKind::Abs),
        ((0..WIDTH), -3i64..4).prop_map(|(f, k)| OpKind::AddConst(f, k)),
        Just(OpKind::Duplicate),
    ]
}

fn udf_for(kind: OpKind) -> Function {
    match kind {
        OpKind::Filter(f) => {
            let mut b = FuncBuilder::new(format!("flt{f}"), UdfKind::Map, vec![WIDTH]);
            let v = b.get_input(0, f);
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
        OpKind::Abs(f) => {
            let mut b = FuncBuilder::new(format!("abs{f}"), UdfKind::Map, vec![WIDTH]);
            let v = b.get_input(0, f);
            let or = b.copy_input(0);
            let a = b.un(UnOp::Abs, v);
            b.set(or, f, a);
            b.emit(or);
            b.ret();
            b.finish().unwrap()
        }
        OpKind::AddConst(f, k) => {
            let mut b = FuncBuilder::new(format!("add{f}"), UdfKind::Map, vec![WIDTH]);
            let v = b.get_input(0, f);
            let c = b.konst(k);
            let s = b.bin(BinOp::Add, v, c);
            let or = b.copy_input(0);
            b.set(or, f, s);
            b.emit(or);
            b.ret();
            b.finish().unwrap()
        }
        OpKind::Duplicate => {
            let mut b = FuncBuilder::new("dup", UdfKind::Map, vec![WIDTH]);
            let or = b.copy_input(0);
            b.emit(or);
            b.emit(or);
            b.ret();
            b.finish().unwrap()
        }
    }
}

fn chain_plan(ops: &[OpKind]) -> Plan {
    let mut p = ProgramBuilder::new();
    let mut node = p.source(SourceDef::new("s", &["a", "b", "c", "d"], 100));
    for (i, &k) in ops.iter().enumerate() {
        let sel = match k {
            OpKind::Filter(_) => 0.5,
            OpKind::Duplicate => 2.0,
            _ => 1.0,
        };
        node = p.map(
            &format!("op{i}"),
            udf_for(k),
            CostHints::selectivity(sel).with_cpu(1.0 + i as f64),
            node,
        );
    }
    p.finish(node).unwrap().bind().unwrap()
}

/// A random join tree: per source `(rows, bytes per row, distinct join
/// keys, map kind above it)`; per join `(left pick, right pick, left key
/// pick, right key pick)` over the subtrees still unjoined; an optional
/// Reduce on top `(key pick, distinct keys)`; a map kind above everything;
/// and the DOP to cost at. Map kinds: 0–2 none, 3 a filter, 4 a write of
/// the payload field, 5 a write of the key field.
#[derive(Debug, Clone)]
struct JoinFlow {
    sources: Vec<(u64, u64, u64, usize)>,
    joins: Vec<(usize, usize, usize, usize)>,
    reduce: Option<(usize, u64)>,
    top_map: usize,
    dop: usize,
}

fn arb_join_flow() -> impl Strategy<Value = JoinFlow> {
    (
        prop::collection::vec((10u64..200_000, 8u64..96, 1u64..20_000, 0usize..6), 2..5),
        prop::collection::vec((0usize..8, 0usize..8, 0usize..8, 0usize..8), 3),
        prop::option::of((0usize..8, 1u64..5_000)),
        0usize..6,
        prop_oneof![Just(1usize), Just(2), Just(4), Just(8)],
    )
        .prop_map(|(sources, joins, reduce, top_map, dop)| JoinFlow {
            sources,
            joins,
            reduce,
            top_map,
            dop,
        })
}

/// A Map of the given kind over a `width`-field record whose key field is
/// `key` and payload field is `payload`; `None` for the no-map kinds.
fn join_flow_map(kind: usize, width: usize, key: usize, payload: usize) -> Option<Function> {
    let write = |field: usize| {
        let mut b = FuncBuilder::new(format!("abs{field}"), UdfKind::Map, vec![width]);
        let v = b.get_input(0, field);
        let or = b.copy_input(0);
        let a = b.un(UnOp::Abs, v);
        b.set(or, field, a);
        b.emit(or);
        b.ret();
        b.finish().unwrap()
    };
    match kind {
        3 => Some(udfs::filter_range(width, payload, 0, 50)),
        4 => Some(write(payload)),
        5 => Some(write(key)),
        _ => None,
    }
}

fn join_flow_plan(f: &JoinFlow) -> Plan {
    let mut p = ProgramBuilder::new();
    // Each unjoined subtree with its schema: `(source, field)` per
    // position, field 0 the source's key and 1 its payload.
    let mut trees = Vec::new();
    for (i, &(rows, bytes, _, map)) in f.sources.iter().enumerate() {
        let mut node =
            p.source(SourceDef::new(format!("s{i}"), &["k", "v"], rows).with_bytes_per_row(bytes));
        if let Some(udf) = join_flow_map(map, 2, 0, 1) {
            node = p.map(&format!("m{i}"), udf, CostHints::selectivity(0.4), node);
        }
        trees.push((node, vec![(i, 0), (i, 1)]));
    }
    let key_at = |schema: &[(usize, usize)], pick: usize| {
        let keys: Vec<usize> = (0..schema.len()).filter(|&i| schema[i].1 == 0).collect();
        keys[pick % keys.len()]
    };
    for (j, &(a, b, lk, rk)) in f.joins.iter().take(f.sources.len() - 1).enumerate() {
        let (left, lschema) = trees.remove(a % trees.len());
        let (right, rschema) = trees.remove(b % trees.len());
        let (kl, kr) = (key_at(&lschema, lk), key_at(&rschema, rk));
        let distinct = f.sources[lschema[kl].0].2;
        let udf = udfs::join_concat(lschema.len(), rschema.len());
        let node = p.match_(
            &format!("j{j}"),
            &[kl],
            &[kr],
            udf,
            CostHints::default().with_distinct_keys(distinct),
            left,
            right,
        );
        trees.push((node, [lschema, rschema].concat()));
    }
    let (mut node, schema) = trees.pop().expect("joined into one tree");
    let width = schema.len();
    let (key, payload) = (key_at(&schema, 0), 1);
    if let Some((pick, distinct)) = f.reduce {
        let udf = udfs::sum_group_inplace(width, payload);
        let hints = CostHints::default().with_distinct_keys(distinct);
        node = p.reduce("agg", &[key_at(&schema, pick)], udf, hints, node);
    }
    if let Some(udf) = join_flow_map(f.top_map, width, key, payload) {
        node = p.map("top", udf, CostHints::selectivity(0.7), node);
    }
    p.finish(node).unwrap().bind().unwrap()
}

fn random_inputs(rows: &[Vec<i64>]) -> Inputs {
    let ds: DataSet = rows
        .iter()
        .map(|r| Record::from_values(r.iter().map(|&v| Value::Int(v))))
        .collect();
    let mut m = Inputs::new();
    m.insert("s".into(), ds);
    m
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn algorithm1_agrees_with_closure(ops in prop::collection::vec(arb_op(), 1..5)) {
        let plan = chain_plan(&ops);
        let props = PropTable::build(&plan, PropertyMode::Sca);
        let a1: BTreeSet<String> = enumerate_algorithm1(&plan, &props)
            .expect("chains are linear")
            .iter()
            .map(|p| p.canonical())
            .collect();
        let cl: BTreeSet<String> = enumerate_all(&plan, &props, 10_000)
            .iter()
            .map(|p| p.canonical())
            .collect();
        prop_assert_eq!(a1, cl);
    }

    #[test]
    fn every_order_is_equivalent(
        ops in prop::collection::vec(arb_op(), 1..5),
        rows in prop::collection::vec(prop::collection::vec(-9i64..10, WIDTH), 1..30),
    ) {
        let plan = chain_plan(&ops);
        let inputs = random_inputs(&rows);
        let props = PropTable::build(&plan, PropertyMode::Sca);
        let (reference, _) = execute_logical(&plan, &inputs).unwrap();
        for alt in enumerate_all(&plan, &props, 10_000) {
            let (out, _) = execute_logical(&alt, &inputs).unwrap();
            if let Err(d) = reference.bag_diff(&out) {
                return Err(TestCaseError::fail(format!(
                    "orders diverge: {d}\noriginal:\n{}\nalternative:\n{}",
                    plan.render(),
                    alt.render()
                )));
            }
        }
    }

    #[test]
    fn enumerated_set_is_closed_under_moves(ops in prop::collection::vec(arb_op(), 1..5)) {
        let plan = chain_plan(&ops);
        let props = PropTable::build(&plan, PropertyMode::Sca);
        let all = enumerate_all(&plan, &props, 10_000);
        let set: BTreeSet<String> = all.iter().map(|p| p.canonical()).collect();
        for p in &all {
            for n in neighbors(p, &props) {
                prop_assert!(
                    set.contains(&n.canonical()),
                    "move escapes the enumerated set"
                );
            }
        }
    }

    #[test]
    fn optimizer_never_worsens_the_plan(ops in prop::collection::vec(arb_op(), 1..5)) {
        let plan = chain_plan(&ops);
        let opt = Optimizer::new(PropertyMode::Sca);
        let report = opt.optimize(&plan);
        let original_rank = report.rank_of(&plan.canonical()).expect("original enumerated");
        prop_assert!(report.best().cost <= report.ranked[original_rank].cost);
        // Ranking is sorted ascending.
        for w in report.ranked.windows(2) {
            prop_assert!(w[0].cost <= w[1].cost);
        }
    }

    #[test]
    fn memoized_costing_agrees_with_costing_from_scratch(f in arb_join_flow()) {
        let plan = join_flow_plan(&f);
        let opt = Optimizer::new(PropertyMode::Sca).with_dop(f.dop).with_cap(2_000);
        let report = opt.optimize(&plan);
        let ranked: BTreeMap<String, _> =
            report.ranked.iter().map(|r| (r.plan.canonical(), r)).collect();
        let props = PropTable::build(&plan, PropertyMode::Sca);
        let alts = enumerate_all(&plan, &props, opt.cap);
        prop_assert_eq!(alts.len(), report.n_enumerated);
        // Distinct and closed by canonical form: enumeration deduplicates
        // on the same ids the memo uses, so an id collision drops a plan.
        prop_assert_eq!(ranked.len(), report.n_enumerated);
        for alt in &alts {
            for n in neighbors(alt, &props) {
                prop_assert!(ranked.contains_key(&n.canonical()), "move escapes the set");
            }
        }
        for alt in &alts {
            let fresh = best_physical(alt, &props, &CostWeights::default(), f.dop);
            let memo = ranked[&alt.canonical()];
            prop_assert!(
                memo.cost.to_bits() == fresh.total_cost.to_bits(),
                "{}: memoized cost {} vs from scratch {}",
                alt.canonical(),
                memo.cost,
                fresh.total_cost
            );
            prop_assert_eq!(memo.phys.render(alt), fresh.render(alt));
        }
        let best = opt.best(&plan);
        prop_assert_eq!(best.plan.canonical(), report.ranked[0].plan.canonical());
        prop_assert_eq!(best.cost.to_bits(), report.ranked[0].cost.to_bits());
    }
}
