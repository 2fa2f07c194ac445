//! Property tests for enumeration and end-to-end optimization over random
//! Map-chain programs:
//!
//! * Algorithm 1 (faithful port) and the closure enumerator agree,
//! * the closure and each plan's neighbours come out in exactly the order
//!   of a from-scratch reference that rebuilds every move over the whole
//!   tree and deduplicates on canonical form,
//! * every enumerated order produces the same output bag (the paper's
//!   safety property, Section 5),
//! * the enumerated set is closed under the move relation,
//! * the optimizer's chosen plan never costs more than the original;
//!
//! and over random join trees (binary keys, partitioning reuse,
//! broadcast):
//!
//! * the same order-exact agreement with the reference,
//! * the optimizer's memoized costing of every alternative agrees, bit for
//!   bit, with costing that alternative alone from a fresh memo, and
//!   `best` picks `optimize`'s winner;
//!
//! and on TPC-H Q7, a capped enumeration is a prefix of the full one.

use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;
use strato::core::conditions::CondCtx;
use strato::core::cost::CostWeights;
use strato::core::physical::best_physical;
use strato::core::{enumerate_algorithm1, enumerate_all, neighbors, Optimizer, PropTable};
use strato::dataflow::{
    CostHints, NodeKind, Plan, PlanNode, ProgramBuilder, PropertyMode, SourceDef,
};
use strato::exec::{execute_logical, Inputs};
use strato::ir::{BinOp, FuncBuilder, Function, UdfKind, UnOp};
use strato::record::{DataSet, Record, Value};
use strato::workloads::{tpch, udfs};

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

// ---- From-scratch reference closure. ----
//
// Every plan's single moves are re-derived over the whole tree, each one
// rebuilt node by node, and the closure deduplicates on canonical form:
// no memo, no sub-flow ids.

/// All alternatives of this subtree obtained by one move within it: the
/// moves at its root, then each child's alternatives with that child
/// replaced.
fn reference_subtree_alts(ctx: &CondCtx<'_>, node: &Arc<PlanNode>) -> Vec<Arc<PlanNode>> {
    let NodeKind::Op(p) = node.kind else {
        return vec![];
    };
    let mut out = reference_junction_moves(ctx, node);
    for (i, child) in node.children.iter().enumerate() {
        for alt in reference_subtree_alts(ctx, child) {
            let mut kids = node.children.clone();
            kids[i] = alt;
            out.push(PlanNode::op(p, kids));
        }
    }
    out
}

/// Moves exchanging the root of `node` with one of its operator children.
fn reference_junction_moves(ctx: &CondCtx<'_>, node: &Arc<PlanNode>) -> Vec<Arc<PlanNode>> {
    let NodeKind::Op(p) = node.kind else {
        return vec![];
    };
    let mut out = Vec::new();
    let p_unary = node.children.len() == 1;
    for (i, child) in node.children.iter().enumerate() {
        let NodeKind::Op(c) = child.kind else {
            continue;
        };
        match (p_unary, child.children.len() == 1) {
            (true, true) => {
                if ctx.can_swap_unary_unary(p, c) {
                    out.push(PlanNode::op(
                        c,
                        vec![PlanNode::op(p, child.children.clone())],
                    ));
                }
            }
            (true, false) => {
                for side in 0..2 {
                    let subtrees = [&*child.children[0], &*child.children[1]];
                    if ctx.can_exchange_unary_binary(p, c, side, subtrees) {
                        let mut kids = child.children.clone();
                        kids[side] = PlanNode::op(p, vec![child.children[side].clone()]);
                        out.push(PlanNode::op(c, kids));
                    }
                }
            }
            (false, true) => {
                let mut subtree_nodes = node.children.clone();
                subtree_nodes[i] = child.children[0].clone();
                let subtrees = [&*subtree_nodes[0], &*subtree_nodes[1]];
                if ctx.can_exchange_unary_binary(c, p, i, subtrees) {
                    out.push(PlanNode::op(c, vec![PlanNode::op(p, subtree_nodes)]));
                }
            }
            (false, false) => {
                let t = &node.children[1 - i];
                for keep in 0..2 {
                    let grandchildren = [&*child.children[0], &*child.children[1]];
                    if ctx.can_rotate_binary(p, c, keep, grandchildren, t) {
                        let mut new_p_kids = node.children.clone();
                        new_p_kids[i] = child.children[keep].clone();
                        let mut new_c_kids = child.children.clone();
                        new_c_kids[keep] = PlanNode::op(p, new_p_kids);
                        out.push(PlanNode::op(c, new_c_kids));
                    }
                }
            }
        }
    }
    out
}

/// One step of the reference: every plan one valid move away, in order.
fn reference_neighbors(plan: &Plan, props: &PropTable) -> Vec<String> {
    let ctx = CondCtx::new(plan, props);
    reference_subtree_alts(&ctx, &plan.root)
        .iter()
        .map(|n| n.canonical())
        .collect()
}

/// The reference closure's plans in breadth-first discovery order, cut at
/// `cap` plans.
fn reference_enumerate(plan: &Plan, props: &PropTable, cap: usize) -> Vec<String> {
    let mut seen = BTreeSet::from([plan.canonical()]);
    let mut out = vec![plan.clone()];
    let mut queue = VecDeque::from([plan.clone()]);
    while let Some(p) = queue.pop_front() {
        if out.len() >= cap {
            break;
        }
        let ctx = CondCtx::new(&p, props);
        for n in reference_subtree_alts(&ctx, &p.root) {
            if seen.insert(n.canonical()) {
                let n = p.with_root(n);
                out.push(n.clone());
                queue.push_back(n);
                if out.len() >= cap {
                    break;
                }
            }
        }
    }
    out.iter().map(Plan::canonical).collect()
}

/// `enumerate_all` and `neighbors` agree with the reference in order.
fn check_against_reference(plan: &Plan, cap: usize) -> Result<(), TestCaseError> {
    let props = PropTable::build(plan, PropertyMode::Sca);
    let all = enumerate_all(plan, &props, cap);
    let canon: Vec<String> = all.iter().map(Plan::canonical).collect();
    prop_assert_eq!(&canon, &reference_enumerate(plan, &props, cap));
    for p in &all {
        let step: Vec<String> = neighbors(p, &props).iter().map(Plan::canonical).collect();
        prop_assert_eq!(step, reference_neighbors(p, &props));
    }
    Ok(())
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
    fn closure_matches_the_reference_on_chains(ops in prop::collection::vec(arb_op(), 1..5)) {
        check_against_reference(&chain_plan(&ops), 10_000)?;
    }

    #[test]
    fn closure_matches_the_reference_on_join_trees(f in arb_join_flow()) {
        check_against_reference(&join_flow_plan(&f), 2_000)?;
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

/// Q7's 2 860 orders: the cap cuts the breadth-first order at exactly the
/// plan it names, whatever the cap.
#[test]
fn capped_q7_enumeration_is_a_prefix_of_the_full_one() {
    let plan = tpch::q7_plan(tpch::TpchScale { orders: 12_000 });
    let props = PropTable::build(&plan, PropertyMode::Sca);
    let all: Vec<String> = enumerate_all(&plan, &props, 100_000)
        .iter()
        .map(Plan::canonical)
        .collect();
    assert_eq!(all.len(), 2_860);
    for cap in [1, 2, 100, 2_859] {
        let capped: Vec<String> = enumerate_all(&plan, &props, cap)
            .iter()
            .map(Plan::canonical)
            .collect();
        assert_eq!(capped, all[..cap], "cap {cap}");
    }
}
