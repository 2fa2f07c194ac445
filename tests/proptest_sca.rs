//! Property tests for the static code analysis: **safety through
//! conservatism** (Section 5 of the paper) over randomly generated UDFs.
//!
//! A random-but-well-formed Map UDF is built from a structured recipe
//! (reads, arithmetic, an optional guard, a constructed output record with
//! explicit sets/projections, one or two emits). For every such UDF:
//!
//! * the semantic read/write sets estimated by black-box probing must be
//!   **subsets** of the SCA-derived sets (Definitions 2–3),
//! * observed emit counts must lie within the SCA emit bounds,
//! * the interpreter must be total (no panics, no errors) on arbitrary
//!   integer records;
//! * a register frame reused across a random sequence of invocations must
//!   run each exactly as a fresh frame would.
//!
//! A random Group UDF is built from iterator opens and advances, loops,
//! group counts, field sets and emits. Whenever SCA proves it
//! first-record-only, running it on a canonically sorted group must emit
//! the same records in the same number of steps as running it on that
//! group's first record alone — the fact Reduce's first-record-only
//! finish relies on. Every Reduce UDF of the paper's workloads and of the
//! served flow catalog is pinned as *not* proven, so their finish cannot
//! move.

use proptest::prelude::*;
use strato::dataflow::spec::{FoldOp, ReduceUdf};
use strato::dataflow::{FlowSpec, NodeSpec, OpSpec, Pact, Plan, SourceSpec};
use strato::ir::interp::{Frame, Interp, Invocation, Layout};
use strato::ir::{BinOp, FuncBuilder, Function, RReg, UdfKind, UnOp};
use strato::record::{Record, RowRef, Value};
use strato::sca::probe::{probe_emit_counts, probe_read_set, probe_write_set, ProbeConfig};
use strato::sca::{analyze, LocalProps};
use strato::workloads::{clickstream, textmining, tpch};

const WIDTH: usize = 4;

/// A structured, always-verifiable UDF recipe.
#[derive(Debug, Clone)]
struct Recipe {
    /// Fields loaded into values (may be unused).
    reads: Vec<usize>,
    /// Binary combinations of previously available values.
    computes: Vec<(u8, usize, usize)>,
    /// Filter on value index (None = no guard).
    guard: Option<usize>,
    /// Output starts as a copy of the input (true) or empty (false).
    copy_output: bool,
    /// `setField(or, field, value idx)`.
    sets: Vec<(usize, usize)>,
    /// Explicit projections.
    nulls: Vec<usize>,
    /// Emit the record twice?
    double_emit: bool,
}

fn arb_recipe() -> impl Strategy<Value = Recipe> {
    (
        prop::collection::vec(0..WIDTH, 1..4),
        prop::collection::vec((0u8..5, 0..6usize, 0..6usize), 0..3),
        prop::option::of(0..8usize),
        any::<bool>(),
        prop::collection::vec((0..WIDTH + 2, 0..8usize), 0..3),
        prop::collection::vec(0..WIDTH, 0..2),
        any::<bool>(),
    )
        .prop_map(
            |(reads, computes, guard, copy_output, sets, nulls, double_emit)| Recipe {
                reads,
                computes,
                guard,
                copy_output,
                sets,
                nulls,
                double_emit,
            },
        )
}

/// A field value: an integer, a null or a short string (arithmetic on
/// the last two yields null).
fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        any::<i64>().prop_map(Value::Int),
        (-2i64..3).prop_map(Value::Int),
        Just(Value::Null),
        (0u8..3).prop_map(|n| Value::str("ab".repeat(n as usize))),
    ]
}

fn build(recipe: &Recipe) -> Function {
    let mut b = FuncBuilder::new("rand", UdfKind::Map, vec![WIDTH]);
    let mut vals = Vec::new();
    for &f in &recipe.reads {
        vals.push(b.get_input(0, f));
    }
    vals.push(b.konst(3i64));
    vals.push(b.konst(-1i64));
    for &(op, i, j) in &recipe.computes {
        let op = match op {
            0 => BinOp::Add,
            1 => BinOp::Mul,
            2 => BinOp::Lt,
            3 => BinOp::Eq,
            _ => BinOp::Max,
        };
        let a = vals[i % vals.len()];
        let c = vals[j % vals.len()];
        vals.push(b.bin(op, a, c));
    }
    let end = b.new_label();
    if let Some(g) = recipe.guard {
        let v = vals[g % vals.len()];
        let cond = b.un(UnOp::Not, v);
        b.branch(cond, end);
    }
    let or = if recipe.copy_output {
        b.copy_input(0)
    } else {
        b.new_rec()
    };
    for &(field, v) in &recipe.sets {
        let v = vals[v % vals.len()];
        b.set(or, field, v);
    }
    for &f in &recipe.nulls {
        b.set_null(or, f);
    }
    b.emit(or);
    if recipe.double_emit {
        b.emit(or);
    }
    b.place(end);
    b.ret();
    b.finish().expect("recipes are always verifiable")
}

/// One statement of a random Group UDF over `GROUP_WIDTH`-wide records.
#[derive(Debug, Clone)]
enum GroupStmt {
    /// Open a fresh iterator over the group; later advances use it.
    Open,
    /// Advance the current iterator once, straight-line: the record
    /// becomes the current one (an exhausted group jumps to the end).
    Next,
    /// Fold field `.0` of every remaining record into the accumulator,
    /// emitting each record when `.1`, leaving the loop after its first
    /// record when `.2`.
    Loop(usize, bool, bool),
    /// Add the group's size to the accumulator.
    Count,
    /// Add field `.0` of the current record to the accumulator.
    Read(usize),
    /// Set field `.0` of the output record to the accumulator.
    Set(usize),
    /// Emit a copy of the current record (or the output record before any
    /// advance), with field `.0` set to the accumulator when `Some`.
    Emit(Option<usize>),
}

const GROUP_WIDTH: usize = 3;

fn arb_group_stmt() -> impl Strategy<Value = GroupStmt> {
    prop_oneof![
        Just(GroupStmt::Open),
        Just(GroupStmt::Next),
        Just(GroupStmt::Next),
        (0..GROUP_WIDTH, any::<bool>(), any::<bool>())
            .prop_map(|(f, e, b)| GroupStmt::Loop(f, e, b)),
        Just(GroupStmt::Count),
        (0..GROUP_WIDTH).prop_map(GroupStmt::Read),
        (0..GROUP_WIDTH + 1).prop_map(GroupStmt::Set),
        prop::option::of(0..GROUP_WIDTH + 1).prop_map(GroupStmt::Emit),
        prop::option::of(0..GROUP_WIDTH + 1).prop_map(GroupStmt::Emit),
    ]
}

fn build_group(stmts: &[GroupStmt]) -> Function {
    let mut b = FuncBuilder::new("rand_group", UdfKind::Group, vec![GROUP_WIDTH]);
    let end = b.new_label();
    let acc = b.konst(0i64);
    let or = b.new_rec();
    let mut it = b.iter_open(0);
    let mut cur: Option<RReg> = None;
    for stmt in stmts {
        match *stmt {
            GroupStmt::Open => it = b.iter_open(0),
            GroupStmt::Next => cur = Some(b.iter_next(it, end)),
            GroupStmt::Loop(field, emit, once) => {
                let head = b.new_label();
                let done = b.new_label();
                b.place(head);
                let r = b.iter_next(it, done);
                let v = b.get(r, field);
                b.bin_into(acc, BinOp::Add, acc, v);
                if emit {
                    let o = b.copy(r);
                    b.emit(o);
                }
                if once {
                    let yes = b.konst(true);
                    b.branch(yes, done);
                }
                b.jump(head);
                b.place(done);
            }
            GroupStmt::Count => {
                let n = b.group_count(0);
                b.bin_into(acc, BinOp::Add, acc, n);
            }
            GroupStmt::Read(field) => {
                if let Some(r) = cur {
                    let v = b.get(r, field);
                    b.bin_into(acc, BinOp::Add, acc, v);
                }
            }
            GroupStmt::Set(field) => b.set(or, field, acc),
            GroupStmt::Emit(set) => {
                let o = b.copy(cur.unwrap_or(or));
                if let Some(field) = set {
                    b.set(o, field, acc);
                }
                b.emit(o);
            }
        }
    }
    b.place(end);
    b.ret();
    b.finish().expect("group recipes are always verifiable")
}

/// The bound Reduce operators of `plan`, by name.
fn reduces(plan: &Plan) -> Vec<(&str, bool)> {
    plan.ctx
        .ops
        .iter()
        .filter(|op| matches!(op.pact, Pact::Reduce { .. }))
        .map(|op| (op.name.as_str(), op.sca_props.first_record_only))
        .collect()
}

#[test]
fn no_workload_or_served_reduce_is_first_record_only() {
    // Every Reduce UDF the benchmark runs besides the shuffle pair's
    // `first` folds over or counts its group: none may take the
    // first-record-only finish. (Textmining has no Reduce.)
    let tiny = tpch::TpchScale::tiny();
    let mut plans = vec![
        tpch::q7_plan(tiny),
        tpch::q15_plan(tiny),
        textmining::plan(textmining::TextScale::tiny()),
        clickstream::plan(clickstream::ClickScale::tiny()),
    ];
    let ops = [FoldOp::Sum, FoldOp::Product, FoldOp::Min, FoldOp::Max];
    let udfs = ops
        .iter()
        .flat_map(|&op| {
            [false, true].map(|append| ReduceUdf::Fold {
                op,
                field: 1,
                append,
            })
        })
        .chain([ReduceUdf::Count]);
    for udf in udfs {
        let flow = FlowSpec::new(NodeSpec::op(
            OpSpec::reduce("served", &[0], udf),
            vec![NodeSpec::source(SourceSpec::new("s", &["k", "v"], 100))],
        ));
        plans.push(flow.build().expect("served reduce flow builds"));
    }
    let mut names = Vec::new();
    for plan in &plans {
        for (name, first_only) in reduces(plan) {
            assert!(!first_only, "reduce {name} must not be first-record-only");
            names.push(name);
        }
    }
    // Q7's and Q15's aggregates, clickstream's two reduces (textmining
    // has none), and the nine served UDFs.
    assert_eq!(
        names[..4],
        [
            "agg_volume",
            "agg_revenue",
            "filter_buy_sessions",
            "condense_sessions"
        ]
    );
    assert_eq!(names.len(), 4 + 9);
}

fn props_write_ok(props: &LocalProps, w: usize) -> bool {
    props.written_base.contains(&w) || props.added.contains(&w) || props.dynamic_write
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn sca_is_conservative_on_random_udfs(recipe in arb_recipe()) {
        let f = build(&recipe);
        let props = analyze(&f);
        let cfg = ProbeConfig { samples: 24, ..ProbeConfig::default() };

        // Semantic reads ⊆ SCA reads.
        for (inp, field) in probe_read_set(&f, &cfg) {
            prop_assert!(
                props.reads.contains(&(inp, field))
                    || props.dynamic_read_inputs.contains(&inp),
                "probe found read {inp}/{field} missed by SCA:\n{f}\n{props}"
            );
        }
        // Semantic writes ⊆ SCA writes.
        for w in probe_write_set(&f, &cfg) {
            prop_assert!(
                props_write_ok(&props, w),
                "probe found write {w} missed by SCA:\n{f}\n{props}"
            );
        }
        // Emit counts within bounds.
        let (lo, hi) = probe_emit_counts(&f, &cfg);
        prop_assert!(lo >= props.emits.min, "min emits violated:\n{f}\n{props}");
        if let Some(max) = props.emits.max {
            prop_assert!(hi <= max, "max emits violated:\n{f}\n{props}");
        }
    }

    #[test]
    fn interpreter_is_total_on_random_inputs(
        recipe in arb_recipe(),
        fields in prop::collection::vec(any::<i64>(), WIDTH),
    ) {
        let f = build(&recipe);
        let layout = Layout::local(&f);
        let rec = Record::from_values(fields.into_iter().map(Value::Int));
        let mut out = Vec::new();
        let stats = Interp::default()
            .run(&f, Invocation::Row(RowRef::from(&rec)), &layout, &mut out)
            .expect("interpreter must be total");
        prop_assert_eq!(stats.emits as usize, out.len());
        // Emitted records are always full global width.
        for r in &out {
            prop_assert_eq!(r.arity(), layout.width);
        }
    }

    #[test]
    fn a_reused_frame_runs_like_a_fresh_one(
        calls in prop::collection::vec(
            (arb_recipe(), prop::collection::vec(arb_value(), WIDTH)),
            1..16,
        ),
    ) {
        // One frame through every invocation of the sequence, against a
        // fresh frame per invocation: same records, same `RunStats`.
        let mut frame = Frame::default();
        for (recipe, fields) in &calls {
            let f = build(recipe);
            let layout = Layout::local(&f);
            let rec = Record::from_values(fields.iter().cloned());
            let inv = Invocation::Row(RowRef::from(&rec));
            let (mut fresh, mut reused) = (Vec::new(), Vec::new());
            let want = Interp::default().run(&f, inv, &layout, &mut fresh);
            let got = Interp::default().run_in(&mut frame, &f, inv, &layout, &mut reused);
            prop_assert_eq!((got, reused), (want, fresh));
        }
    }

    #[test]
    fn first_record_only_udfs_cannot_see_past_the_first_record(
        stmts in prop::collection::vec(arb_group_stmt(), 0..7),
        payloads in prop::collection::vec(
            prop::collection::vec(arb_value(), GROUP_WIDTH - 1),
            1..6,
        ),
    ) {
        let f = build_group(&stmts);
        prop_assume!(analyze(&f).first_record_only);
        // One key group in canonical order: a shared key, then the rows.
        let mut group: Vec<Record> = payloads
            .into_iter()
            .map(|p| Record::from_values(std::iter::once(Value::Int(7)).chain(p)))
            .collect();
        group.sort();
        let views: Vec<RowRef<'_>> = group.iter().map(RowRef::from).collect();
        let layout = Layout::local(&f);
        let run = |g: &[RowRef<'_>]| {
            let mut out = Vec::new();
            let stats = Interp::default().run(&f, Invocation::Group(g), &layout, &mut out);
            (stats, out)
        };
        let (whole, first) = (run(&views), run(&views[..1]));
        prop_assert!(whole == first, "{f}\nwhole group: {whole:?}\nfirst record: {first:?}");
    }

    #[test]
    fn control_reads_are_reads(recipe in arb_recipe()) {
        let f = build(&recipe);
        let props = analyze(&f);
        for cr in &props.control_reads {
            prop_assert!(props.reads.contains(cr), "control read not in read set");
        }
    }

    #[test]
    fn guarded_udfs_never_claim_exactly_one(recipe in arb_recipe()) {
        // A UDF with a guard can emit zero records; SCA must not report
        // exactly-one semantics (which would wrongly enable KGP case 1).
        prop_assume!(recipe.guard.is_some());
        let f = build(&recipe);
        let props = analyze(&f);
        prop_assert!(props.emits.min == 0, "guard ⇒ min emits 0:\n{f}\n{props}");
    }
}
