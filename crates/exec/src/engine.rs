//! Public execution entry points.
//!
//! The actual runtime lives in [`crate::operators`] (one physical operator
//! per PACT), `crate::ship` (data movement between partitions) and
//! [`crate::pipeline`] (plan lowering + the batch driver):
//!
//! * [`execute`] — execution of a [`strato_core::PhysPlan`] with `dop`
//!   partitions, streamed as a task graph over a worker pool (see
//!   [`crate::pipeline`]).
//! * [`execute_logical`] — the same call on [`PhysPlan::logical`]
//!   (default strategies, no shipping) at `dop = 1`. Deterministic; the
//!   oracle the plan-equivalence test harness uses.
//!
//! Each call runs on an [`EngineRuntime`](crate::EngineRuntime) private
//! to it; the runtime's methods of the same names share one pool between
//! calls. The `_with` variants take [`ExecOptions`] to tune batch size,
//! channel capacity, Map fusion, memory budget or tracing.

use crate::pipeline::{self, ExecOptions};
use crate::stats::ExecStats;
use std::collections::HashMap;
use strato_core::PhysPlan;
use strato_dataflow::Plan;
use strato_ir::interp::InterpError;
use strato_record::DataSet;

/// Input data sets, keyed by source name. Records are given in the
/// source's *local* schema (arity = number of source fields); the engine
/// widens them into global layout.
pub type Inputs = HashMap<String, DataSet>;

/// Execution errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// No input data set was supplied for a source.
    MissingInput(String),
    /// A UDF failed to execute (step limit or binding bug).
    Udf(String, InterpError),
    /// A record did not survive the wire-format round trip that the
    /// Partition ship checks in debug builds.
    Wire(String),
    /// Disk IO on the spill path failed (writing, reading or decoding a
    /// spill file of the out-of-core subsystem, see [`crate::spill`]).
    Spill(String),
    /// A worker task panicked — e.g. a buggy third-party component inside
    /// a UDF aborted instead of erroring. The scheduler catches the unwind
    /// at the task boundary, so the panic fails the query (with the
    /// offending operator named) rather than the process.
    Panic {
        /// Name of the operator (or source) whose task panicked.
        op: String,
        /// The panic payload, when it was a string.
        message: String,
    },
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::MissingInput(s) => write!(f, "no input data for source {s}"),
            ExecError::Udf(op, e) => write!(f, "UDF of operator {op} failed: {e}"),
            ExecError::Wire(msg) => write!(f, "wire validation failed: {msg}"),
            ExecError::Spill(msg) => write!(f, "spill IO failed: {msg}"),
            ExecError::Panic { op, message } => {
                write!(f, "operator {op} panicked: {message}")
            }
        }
    }
}

impl std::error::Error for ExecError {}

/// Executes a logical plan on one partition, with default local strategies
/// and no shipping. Deterministic; used as the semantics oracle by the
/// plan-equivalence test harness.
pub fn execute_logical(plan: &Plan, inputs: &Inputs) -> Result<(DataSet, ExecStats), ExecError> {
    execute_logical_with(plan, inputs, &ExecOptions::default())
}

/// [`execute_logical`] with explicit execution options.
pub fn execute_logical_with(
    plan: &Plan,
    inputs: &Inputs,
    opts: &ExecOptions,
) -> Result<(DataSet, ExecStats), ExecError> {
    execute_with(plan, &PhysPlan::logical(plan), inputs, 1, opts)
}

/// Executes a physical plan with `dop` partitions. Every `stage ×
/// partition` pair becomes one task on a fixed worker pool; ship
/// strategies route batches between partitions through bounded channels
/// and account records/bytes on [`ExecStats`].
pub fn execute(
    plan: &Plan,
    phys: &PhysPlan,
    inputs: &Inputs,
    dop: usize,
) -> Result<(DataSet, ExecStats), ExecError> {
    execute_with(plan, phys, inputs, dop, &ExecOptions::default())
}

/// [`execute`] with explicit execution options.
///
/// ```
/// use strato_dataflow::spec::{FlowSpec, FoldOp, NodeSpec, OpSpec, ReduceUdf, SourceSpec};
/// use strato_exec::{execute_with, ExecOptions, Inputs};
/// use strato_record::{DataSet, Record, Value};
///
/// // Build a grouped in-place Σv plan and optimize it for dop 2.
/// let plan = FlowSpec::new(NodeSpec::op(
///     OpSpec::reduce("sum", &[0], ReduceUdf::fold_inplace(FoldOp::Sum, 1)),
///     vec![NodeSpec::source(SourceSpec::new("s", &["k", "v"], 4))],
/// ))
/// .build()
/// .unwrap();
/// let best = strato_core::Optimizer::new(strato_dataflow::PropertyMode::Sca)
///     .with_dop(2)
///     .best(&plan);
///
/// let mut inputs = Inputs::new();
/// inputs.insert(
///     "s".into(),
///     [[1, 10], [1, 5], [2, 7]]
///         .iter()
///         .map(|r| Record::from_values(r.iter().map(|&v| Value::Int(v))))
///         .collect::<DataSet>(),
/// );
/// let opts = ExecOptions { batch_size: 2, ..ExecOptions::default() };
/// let (out, stats) = execute_with(&best.plan, &best.phys, &inputs, 2, &opts).unwrap();
/// assert_eq!(out.len(), 2); // one record per key
/// assert_eq!(stats.totals().udf_calls, 2);
/// ```
pub fn execute_with(
    plan: &Plan,
    phys: &PhysPlan,
    inputs: &Inputs,
    dop: usize,
    opts: &ExecOptions,
) -> Result<(DataSet, ExecStats), ExecError> {
    pipeline::run(plan, &phys.root, inputs, dop, opts, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operators::{apply_chunked, BatchLayout};
    use crate::runtime::EngineRuntime;
    use std::sync::Arc;
    use strato_core::{cost::CostWeights, physical::best_physical, LocalStrategy, PropTable};
    use strato_dataflow::{CostHints, ProgramBuilder, PropertyMode, SourceDef};
    use strato_ir::{BinOp, FuncBuilder, Function, UdfKind};
    use strato_record::{Record, Value};

    fn filter_map(w: usize, field: usize) -> Function {
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

    fn sum_reduce(w: usize) -> Function {
        // Copy first record of the group, append sum of field 1.
        let mut b = FuncBuilder::new("sum", UdfKind::Group, vec![w]);
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
        b.set(or, w, sum);
        b.emit(or);
        b.place(nil);
        b.ret();
        b.finish().unwrap()
    }

    fn join_udf(l: usize, r: usize) -> Function {
        let mut b = FuncBuilder::new("join", UdfKind::Pair, vec![l, r]);
        let or = b.concat_inputs();
        b.emit(or);
        b.ret();
        b.finish().unwrap()
    }

    fn ds(rows: &[&[i64]]) -> DataSet {
        rows.iter()
            .map(|r| Record::from_values(r.iter().map(|&v| Value::Int(v))))
            .collect()
    }

    fn sum_plan() -> Plan {
        let mut p = ProgramBuilder::new();
        let s = p.source(SourceDef::new("s", &["k", "v"], 6));
        let m = p.map("f", filter_map(2, 1), CostHints::default(), s);
        let r = p.reduce("sum", &[0], sum_reduce(2), CostHints::default(), m);
        p.finish(r).unwrap().bind().unwrap()
    }

    /// Widens a data set into global layout the way the scan stage does.
    fn widen(plan: &Plan, src: usize, ds: &DataSet) -> Vec<Record> {
        crate::testutil::widen(ds, &plan.ctx.sources[src].attrs, plan.ctx.width())
    }

    #[test]
    fn logical_execution_end_to_end() {
        let plan = sum_plan();
        let mut inputs = Inputs::new();
        inputs.insert(
            "s".into(),
            ds(&[&[1, 10], &[1, 20], &[2, 5], &[2, -7], &[3, -1]]),
        );
        let (out, stats) = execute_logical(&plan, &inputs).unwrap();
        // Filter drops negatives; groups: k=1 sum 30, k=2 sum 5; k=3 gone.
        assert_eq!(out.len(), 2);
        let sums: Vec<(i64, i64)> = out
            .sorted()
            .iter()
            .map(|r| (r.field(0).as_int().unwrap(), r.field(2).as_int().unwrap()))
            .collect();
        assert_eq!(sums, vec![(1, 30), (2, 5)]);
        let calls = stats.totals().udf_calls;
        // 5 map calls + 2 reduce groups.
        assert_eq!(calls, 7);
    }

    #[test]
    fn physical_execution_matches_logical() {
        let plan = sum_plan();
        let props = PropTable::build(&plan, PropertyMode::Sca);
        let phys = best_physical(&plan, &props, &CostWeights::default(), 4);
        let mut inputs = Inputs::new();
        inputs.insert(
            "s".into(),
            ds(&[
                &[1, 10],
                &[1, 20],
                &[2, 5],
                &[2, -7],
                &[3, -1],
                &[7, 2],
                &[7, 3],
                &[9, 4],
            ]),
        );
        let (logical, _) = execute_logical(&plan, &inputs).unwrap();
        let (physical, stats) = execute(&plan, &phys, &inputs, 4).unwrap();
        assert_eq!(logical, physical, "physical must agree with logical");
        let t = stats.totals();
        let (shipped, bytes) = (t.records_shipped, t.bytes_shipped);
        assert!(shipped > 0, "reduce must repartition");
        assert!(bytes > 0);
    }

    #[test]
    fn batch_size_one_agrees_with_defaults() {
        let plan = sum_plan();
        let props = PropTable::build(&plan, PropertyMode::Sca);
        let phys = best_physical(&plan, &props, &CostWeights::default(), 3);
        let mut inputs = Inputs::new();
        inputs.insert(
            "s".into(),
            ds(&[&[1, 10], &[1, 20], &[2, 5], &[3, 4], &[3, 9]]),
        );
        let (reference, ref_stats) = execute(&plan, &phys, &inputs, 3).unwrap();
        let opts = ExecOptions {
            batch_size: 1,
            ..ExecOptions::default()
        };
        let (out, stats) = execute_with(&plan, &phys, &inputs, 3, &opts).unwrap();
        assert_eq!(reference, out);
        // Shipping accounting is independent of batch size.
        assert_eq!(
            ref_stats.totals().records_shipped,
            stats.totals().records_shipped
        );
        assert_eq!(
            ref_stats.totals().bytes_shipped,
            stats.totals().bytes_shipped
        );
    }

    #[test]
    fn match_join_logical_and_physical_agree() {
        let mut p = ProgramBuilder::new();
        let l = p.source(SourceDef::new("l", &["k", "v"], 10));
        let r = p.source(SourceDef::new("r", &["k2", "w"], 4).with_unique_key(&[0]));
        let j = p.match_("j", &[0], &[0], join_udf(2, 2), CostHints::default(), l, r);
        let plan = p.finish(j).unwrap().bind().unwrap();
        let mut inputs = Inputs::new();
        inputs.insert(
            "l".into(),
            ds(&[&[1, 100], &[2, 200], &[2, 201], &[5, 500]]),
        );
        inputs.insert("r".into(), ds(&[&[1, -1], &[2, -2], &[3, -3]]));
        let (logical, _) = execute_logical(&plan, &inputs).unwrap();
        // k=1: 1 pair; k=2: 2 pairs; k=5 no match → 3 records.
        assert_eq!(logical.len(), 3);
        let props = PropTable::build(&plan, PropertyMode::Sca);
        let phys = best_physical(&plan, &props, &CostWeights::default(), 3);
        let (physical, _) = execute(&plan, &phys, &inputs, 3).unwrap();
        assert_eq!(logical, physical);
    }

    #[test]
    fn null_join_keys_match_nothing() {
        let mut p = ProgramBuilder::new();
        let l = p.source(SourceDef::new("l", &["k"], 2));
        let r = p.source(SourceDef::new("r", &["k2"], 2));
        let j = p.match_("j", &[0], &[0], join_udf(1, 1), CostHints::default(), l, r);
        let plan = p.finish(j).unwrap().bind().unwrap();
        let mut inputs = Inputs::new();
        let mut left = DataSet::new();
        left.push(Record::from_values([Value::Null]));
        left.push(Record::from_values([Value::Int(1)]));
        inputs.insert("l".into(), left);
        let mut right = DataSet::new();
        right.push(Record::from_values([Value::Null]));
        right.push(Record::from_values([Value::Int(1)]));
        inputs.insert("r".into(), right);
        let (out, _) = execute_logical(&plan, &inputs).unwrap();
        assert_eq!(out.len(), 1, "only the non-null key matches");
    }

    /// RAII guard silencing the default panic hook while deliberate
    /// panics fire (the unwinds themselves are caught at the task
    /// boundary); dropping it restores the previous hook even when an
    /// assertion fails in between.
    type PanicHook = Box<dyn Fn(&std::panic::PanicHookInfo<'_>) + Sync + Send>;

    struct HookGuard(Option<PanicHook>);

    impl Drop for HookGuard {
        fn drop(&mut self) {
            if let Some(prev) = self.0.take() {
                std::panic::set_hook(prev);
            }
        }
    }

    fn silence_panics() -> HookGuard {
        let guard = HookGuard(Some(std::panic::take_hook()));
        std::panic::set_hook(Box::new(|_| {}));
        guard
    }

    /// Map UDF that calls `abort_if(field)` — panics on any truthy field,
    /// modelling a buggy third-party component crashing mid-query.
    fn abort_on_truthy(w: usize, field: usize) -> Function {
        let mut b = FuncBuilder::new("boom", UdfKind::Map, vec![w]);
        let v = b.get_input(0, field);
        b.call(strato_ir::Intrinsic::AbortIf, vec![v]);
        let or = b.copy_input(0);
        b.emit(or);
        b.ret();
        b.finish().unwrap()
    }

    #[test]
    fn panicking_udf_fails_the_query_not_the_process() {
        let mut p = ProgramBuilder::new();
        let s = p.source(SourceDef::new("s", &["v"], 8));
        let m = p.map("boom", abort_on_truthy(1, 0), CostHints::default(), s);
        let plan = p.finish(m).unwrap().bind().unwrap();
        let mut inputs = Inputs::new();
        inputs.insert("s".into(), ds(&[&[0], &[0], &[7], &[0]]));

        let _guard = silence_panics();

        // Inline: the private runtime of a dop = 1 call has no threads.
        let err = execute_logical(&plan, &inputs).unwrap_err();
        // Pooled, parallel partitions.
        let props = PropTable::build(&plan, PropertyMode::Sca);
        let phys = best_physical(&plan, &props, &CostWeights::default(), 2);
        let rt = EngineRuntime::new(crate::runtime::RuntimeOptions {
            workers: Some(2),
            ..Default::default()
        });
        let pooled = rt.execute(&plan, &phys, &inputs, 2).unwrap_err();
        drop(_guard);

        match err {
            ExecError::Panic { op, message } => {
                assert_eq!(op, "boom", "panic names the operator");
                assert!(message.contains("abort_if"), "payload preserved: {message}");
            }
            other => panic!("expected Panic, got {other}"),
        }
        assert!(matches!(pooled, ExecError::Panic { .. }), "{pooled}");

        // Falsy inputs do not trip it, and the engine stays usable after a
        // contained panic.
        inputs.insert("s".into(), ds(&[&[0], &[0]]));
        let (out, _) = execute_logical(&plan, &inputs).unwrap();
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn spill_files_are_cleaned_up_even_when_a_worker_panics() {
        // source → sum reduce (spills under a 48-byte budget) → a UDF that
        // panics on the aggregated sum. The reduce writes real runs before
        // the panic fires; the failed execution must still remove its
        // scoped spill directory (the `ExecError::Panic` path).
        let build = |boom: bool| {
            let mut p = ProgramBuilder::new();
            let s = p.source(SourceDef::new("s", &["k", "v"], 32));
            let r = p.reduce("sum", &[0], sum_reduce(2), CostHints::default(), s);
            let out = if boom {
                p.map("boom", abort_on_truthy(3, 2), CostHints::default(), r)
            } else {
                r
            };
            p.finish(out).unwrap().bind().unwrap()
        };
        let rows: Vec<Vec<i64>> = (0..32).map(|i| vec![i % 4, 1]).collect();
        let rows_ref: Vec<&[i64]> = rows.iter().map(|r| r.as_slice()).collect();
        let mut inputs = Inputs::new();
        inputs.insert("s".into(), ds(&rows_ref));

        let base =
            std::env::temp_dir().join(format!("strato-spill-cleanup-test-{}", std::process::id()));
        std::fs::create_dir_all(&base).unwrap();
        // An unbounded pool, so the query's own 48-byte cap is its grant.
        let rt = EngineRuntime::new(crate::runtime::RuntimeOptions {
            workers: Some(1),
            mem_budget: None,
            spill_dir: Some(base.clone()),
        });
        let opts = ExecOptions {
            mem_budget: Some(48),
            ..ExecOptions::default()
        };

        // Sanity half: without the panicking map, this budget really does
        // spill — so the panic run below had spill files to clean up.
        let (_, stats) = rt
            .execute_logical_with(&build(false), &inputs, &opts)
            .unwrap();
        assert!(stats.totals().spill_runs > 0, "budget must force spills");
        let emptied = |base: &std::path::Path| std::fs::read_dir(base).unwrap().next().is_none();
        assert!(emptied(&base), "successful run removed its directory");

        // Panic half: same budget, with the aborting UDF downstream.
        let _guard = silence_panics();
        let err = rt
            .execute_logical_with(&build(true), &inputs, &opts)
            .unwrap_err();
        drop(_guard);
        assert!(matches!(err, ExecError::Panic { .. }), "{err}");
        assert!(emptied(&base), "panicked run removed its directory too");
        std::fs::remove_dir(&base).unwrap();
    }

    #[test]
    fn missing_input_is_an_error() {
        let plan = sum_plan();
        let inputs = Inputs::new();
        assert_eq!(
            execute_logical(&plan, &inputs).unwrap_err(),
            ExecError::MissingInput("s".into())
        );
    }

    #[test]
    fn cross_product_execution() {
        let mut p = ProgramBuilder::new();
        let l = p.source(SourceDef::new("l", &["a"], 3));
        let r = p.source(SourceDef::new("r", &["b"], 2));
        let c = p.cross("x", join_udf(1, 1), CostHints::default(), l, r);
        let plan = p.finish(c).unwrap().bind().unwrap();
        let mut inputs = Inputs::new();
        inputs.insert("l".into(), ds(&[&[1], &[2], &[3]]));
        inputs.insert("r".into(), ds(&[&[10], &[20]]));
        let (out, _) = execute_logical(&plan, &inputs).unwrap();
        assert_eq!(out.len(), 6);
        let props = PropTable::build(&plan, PropertyMode::Sca);
        let phys = best_physical(&plan, &props, &CostWeights::default(), 2);
        let (out2, _) = execute(&plan, &phys, &inputs, 2).unwrap();
        assert_eq!(out, out2);
    }

    /// `l(k) ⋈ r(k2)` co-grouped on the key; the UDF emits one record per
    /// group carrying the sides' count difference.
    fn cogroup_plan() -> (Plan, Inputs) {
        let mut b = FuncBuilder::new("cg", UdfKind::CoGroup, vec![1, 1]);
        let nl = b.group_count(0);
        let nr = b.group_count(1);
        let d = b.bin(BinOp::Sub, nl, nr);
        let or = b.new_rec();
        b.set(or, 2, d);
        b.emit(or);
        b.ret();
        let udf = b.finish().unwrap();
        let mut p = ProgramBuilder::new();
        let l = p.source(SourceDef::new("l", &["k"], 3));
        let r = p.source(SourceDef::new("r", &["k2"], 3));
        let cg = p.cogroup("cg", &[0], &[0], udf, CostHints::default(), l, r);
        let plan = p.finish(cg).unwrap().bind().unwrap();
        let mut inputs = Inputs::new();
        inputs.insert("l".into(), ds(&[&[1], &[1], &[2]]));
        inputs.insert("r".into(), ds(&[&[2], &[3]]));
        (plan, inputs)
    }

    #[test]
    fn cogroup_execution_covers_both_domains() {
        let (plan, inputs) = cogroup_plan();
        let (out, _) = execute_logical(&plan, &inputs).unwrap();
        // Keys 1, 2, 3 → three groups.
        assert_eq!(out.len(), 3);
        let diffs: Vec<i64> = out
            .sorted()
            .iter()
            .map(|r| r.field(2).as_int().unwrap())
            .collect();
        // key1: 2-0; key2: 1-1; key3: 0-1.
        assert_eq!(diffs, vec![-1, 0, 2]);
    }

    /// What one operator instance produced and observed.
    #[derive(Debug, PartialEq)]
    struct Applied {
        out: Vec<Record>,
        udf_calls: u64,
        distinct_keys: u64,
    }

    /// The budgets of the finish-path sweep: ungoverned, spill every
    /// batch, and spill now and then.
    const BUDGETS: [Option<u64>; 3] = [None, Some(0), Some(256)];

    /// Drives the plan's last operator over materialized inputs, two
    /// records per batch in `layout`, under `mem_budget` with profiling
    /// detail on.
    fn apply(
        plan: &Plan,
        strategy: LocalStrategy,
        inputs: &[Vec<Record>],
        layout: BatchLayout,
        mem_budget: Option<u64>,
    ) -> Applied {
        let stats = Arc::new(ExecStats::for_profiling(plan.ctx.ops.len()));
        let gov = Arc::new(crate::spill::MemoryGovernor::with_budget(mem_budget));
        let ctx = crate::testutil::ctx(plan, &stats, &gov);
        let op_id = ctx.op_id;
        let out = apply_chunked(strategy, inputs, 2, layout, ctx).unwrap();
        if mem_budget == Some(0) {
            let runs = stats.totals().spill_runs;
            assert!(runs > 1, "{strategy:?} must spill every batch: {runs}");
        }
        Applied {
            out,
            udf_calls: stats.totals().udf_calls,
            distinct_keys: stats.op_snapshots()[op_id].distinct_keys,
        }
    }

    #[test]
    fn sort_strategies_agree_with_hash() {
        let plan = sum_plan();
        let mut rows = ds(&[&[5, 1], &[5, 2], &[4, 3], &[4, 4], &[1, 9], &[4, 0]]);
        rows.push(Record::from_values([Value::Null, Value::Int(7)]));
        let wide = vec![widen(&plan, 0, &rows)];
        let row_major = BatchLayout::Rows;
        let reference = apply(&plan, LocalStrategy::HashGroup, &wide, row_major, None);
        assert_eq!((reference.udf_calls, reference.distinct_keys), (4, 4));
        // Same bag — and same canonical group order, record for record —
        // whether the hash finish groups or the sort-based one walks the
        // spilled runs (every batch under `Some(0)`), whatever layout the
        // batches arrive in.
        for layout in BatchLayout::ALL {
            for budget in BUDGETS {
                let got = apply(&plan, LocalStrategy::HashGroup, &wide, layout, budget);
                assert_eq!(got, reference, "over {layout:?} at {budget:?}");
            }
        }
    }

    #[test]
    fn merge_join_agrees_with_hash_join() {
        let mut p = ProgramBuilder::new();
        let l = p.source(SourceDef::new("l", &["k", "v"], 10));
        let r = p.source(SourceDef::new("r", &["k2"], 5));
        let j = p.match_("j", &[0], &[0], join_udf(2, 1), CostHints::default(), l, r);
        let plan = p.finish(j).unwrap().bind().unwrap();
        let mut left = ds(&[&[1, 10], &[2, 20], &[2, 21], &[3, 30]]);
        left.push(Record::from_values([Value::Null, Value::Int(40)]));
        left.push(Record::from_values([Value::Null, Value::Int(41)]));
        let mut right = ds(&[&[2], &[2], &[3], &[7]]);
        right.push(Record::from_values([Value::Null]));
        let sides = vec![widen(&plan, 0, &left), widen(&plan, 1, &right)];

        // A zero budget spills every batch: the sort-merge walk.
        let build_left = LocalStrategy::HashJoinBuildLeft;
        let smj = apply(&plan, build_left, &sides, BatchLayout::Rows, Some(0));
        assert_eq!(smj.out.len(), 5); // k2: 2×2 pairs, k3: 1 pair.
                                      // Keys 1, 2, 3 — and the null keys, counted once.
        assert_eq!((smj.udf_calls, smj.distinct_keys), (5, 4));
        for strategy in [build_left, LocalStrategy::HashJoinBuildRight] {
            for budget in BUDGETS {
                let got = apply(&plan, strategy, &sides, BatchLayout::Rows, budget);
                let tag = format!("{strategy:?} at {budget:?}");
                // One walk: the sort-merge sequence is reproduced exactly
                // by every join that spilled every batch.
                if budget == Some(0) {
                    assert_eq!(got, smj, "{tag}");
                }
                // The hash joins pair in probe order: same bag.
                assert_eq!(
                    DataSet::from_records(got.out),
                    DataSet::from_records(smj.out.clone()),
                    "{tag}"
                );
                assert_eq!(
                    (got.udf_calls, got.distinct_keys),
                    (smj.udf_calls, smj.distinct_keys),
                    "{tag}"
                );
            }
        }
    }

    #[test]
    fn cogroup_walk_is_the_same_at_every_budget() {
        let (plan, _) = cogroup_plan();
        let mut left = ds(&[&[1], &[1], &[2], &[9]]);
        left.push(Record::from_values([Value::Null]));
        let right = ds(&[&[2], &[3], &[9], &[9]]);
        let sides = vec![widen(&plan, 0, &left), widen(&plan, 1, &right)];
        let strategy = LocalStrategy::CoGroupSortMerge;
        let reference = apply(&plan, strategy, &sides, BatchLayout::Rows, None);
        // Keys null, 1, 2, 3, 9 → five groups; four of them on the left.
        assert_eq!((reference.udf_calls, reference.distinct_keys), (5, 4));
        for budget in BUDGETS {
            assert_eq!(
                apply(&plan, strategy, &sides, BatchLayout::Rows, budget),
                reference,
                "CoGroup at {budget:?}"
            );
        }
    }
}
