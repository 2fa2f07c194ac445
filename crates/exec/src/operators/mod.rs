//! The composable physical-operator runtime.
//!
//! Every PACT has exactly **one** operator implementation here, shared by
//! the single-partition logical oracle and the parallel engine: both paths
//! lower plans to the same [`Operator`] objects (see
//! [`crate::pipeline`]), so a semantics bug cannot hide in one executor
//! and not the other.
//!
//! ## Contract
//!
//! An operator is driven through two phases:
//!
//! 1. [`Operator::push`] — once per input [`RecordBatch`], tagged with the
//!    input port (0 for unary PACTs; 0 = left, 1 = right for binary ones).
//!    Streaming operators (Map) emit output batches immediately; blocking
//!    operators (Reduce, Match, Cross, CoGroup) buffer.
//! 2. [`Operator::finish`] — once, after all input; emits any buffered
//!    output.
//!
//! Batches are shared as `Arc<RecordBatch>`: a broadcast ship hands the
//! same allocation to every partition. Blocking operators hold the
//! batches they are pushed, in whatever layout they arrived, and hand
//! UDFs row views of them ([`strato_record::RowRef`]). Batches become
//! owned records (`take_records`) only where a buffer spills or drains:
//! moved when it holds the last reference, cloned only when the batch is
//! genuinely shared.
//!
//! ## Key handling
//!
//! Key extraction never clones `Value`s on the hot path: comparisons go
//! through `key_cmp`/`key_cmp2` or their row-view forms (field-by-field,
//! allocation-free) and hash tables are keyed by a 64-bit FxHash of the
//! key fields (`RecordBatch::key_hash_into`, one hash per row of either
//! layout) with exact-equality verification per bucket entry, so hash
//! collisions cannot merge distinct keys.

pub mod cogroup;
pub mod cross;
pub mod join;
pub mod map;
pub mod reduce;

use crate::engine::ExecError;
use crate::spill::MemoryGovernor;
use crate::stats::ExecStats;
use std::cmp::Ordering;
use std::sync::Arc;
use strato_core::LocalStrategy;
use strato_dataflow::{BoundOp, Pact, PlanCtx};
use strato_ir::interp::{Frame, Interp, Invocation};
use strato_record::{AttrId, Record, RecordBatch};

/// A physical operator: consumes batches on numbered input ports, emits
/// batches. See the module docs for the push / finish contract.
pub trait Operator: Send {
    /// Consumes one input batch on `port`. Streaming operators append
    /// output batches to `out`; blocking operators buffer until `finish`.
    fn push(
        &mut self,
        port: usize,
        batch: Arc<RecordBatch>,
        out: &mut Vec<Arc<RecordBatch>>,
    ) -> Result<(), ExecError>;

    /// Signals end of input on all ports; emits any buffered output.
    fn finish(&mut self, out: &mut Vec<Arc<RecordBatch>>) -> Result<(), ExecError>;
}

/// Everything one operator instance runs against: the plan it belongs
/// to, the interpreter, and the statistics and memory budget of its
/// execution. Owned (the execution's pieces are shared by `Arc`), so an
/// operator borrows nothing from the caller.
///
/// It also carries the instance's UDF-call state: the register
/// [`Frame`] every call reuses, and the calls, steps and emits made
/// since its last flush into [`ExecStats`]. A clone shares the
/// execution's pieces but starts with an empty frame and a zero tally,
/// so no call is ever charged twice.
#[derive(Clone)]
pub struct OpCtx {
    /// The UDF interpreter.
    pub interp: Interp,
    /// The plan's operators and sources; this instance runs
    /// `plan.ops[op_id]`.
    pub plan: Arc<PlanCtx>,
    /// Shared counters of the enclosing execution.
    pub stats: Arc<ExecStats>,
    /// The execution's shared memory budget: blocking operators register
    /// their buffered state here and spill to sorted runs on pressure
    /// (see [`crate::spill`]).
    pub gov: Arc<MemoryGovernor>,
    /// Target number of records per emitted batch.
    pub batch_size: usize,
    /// Operator id inside the plan — the operator this instance runs and
    /// the per-operator counter slot it charges.
    pub op_id: usize,
    calls: CallState,
}

/// Calls an instance may tally before it flushes mid-push or mid-finish,
/// so live counters lag a long finish by a bounded amount.
const FLUSH_EVERY: u64 = 1024;

/// One instance's reused frame and its not-yet-flushed call tally.
#[derive(Default)]
struct CallState {
    frame: Frame,
    calls: u64,
    steps: u64,
    emits: u64,
}

impl Clone for CallState {
    /// Empty: a tally belongs to the instance that made the calls.
    fn clone(&self) -> Self {
        CallState::default()
    }
}

impl OpCtx {
    /// The context of operator `op_id` of `plan`, with the default
    /// interpreter, an empty frame and a zero tally.
    pub fn new(
        plan: Arc<PlanCtx>,
        stats: Arc<ExecStats>,
        gov: Arc<MemoryGovernor>,
        batch_size: usize,
        op_id: usize,
    ) -> Self {
        OpCtx {
            interp: Interp::default(),
            plan,
            stats,
            gov,
            batch_size,
            op_id,
            calls: CallState::default(),
        }
    }

    /// The bound operator this instance runs.
    #[inline]
    pub(crate) fn op(&self) -> &BoundOp {
        &self.plan.ops[self.op_id]
    }

    /// Runs one invocation of the operator's UDF in the instance's frame
    /// and tallies it. A failed call is not counted.
    pub(crate) fn call(
        &mut self,
        inv: Invocation<'_>,
        out: &mut Vec<Record>,
    ) -> Result<(), ExecError> {
        let op = &self.plan.ops[self.op_id];
        let before = out.len();
        let st = self
            .interp
            .run_in(&mut self.calls.frame, &op.udf, inv, &op.layout, out)
            .map_err(|e| ExecError::Udf(op.name.clone(), e))?;
        if self.stats.detail() {
            let bytes: usize = out[before..].iter().map(Record::encoded_len).sum();
            self.stats.add_op_out_bytes(self.op_id, bytes as u64);
        }
        let t = &mut self.calls;
        t.calls += 1;
        t.steps += st.steps;
        t.emits += st.emits;
        if t.calls >= FLUSH_EVERY {
            self.flush_calls();
        }
        Ok(())
    }

    /// Adds the calls tallied since the last flush to the stats. Every
    /// `push` and `finish` that calls the UDF ends with this, on every
    /// exit path.
    pub(crate) fn flush_calls(&mut self) {
        let t = &mut self.calls;
        if t.calls > 0 {
            self.stats.add_calls(self.op_id, t.calls, t.steps, t.emits);
            (t.calls, t.steps, t.emits) = (0, 0, 0);
        }
    }

    /// Chunks emitted records into batches and appends them to `out`.
    pub(crate) fn emit(&self, records: Vec<Record>, out: &mut Vec<Arc<RecordBatch>>) {
        out.extend(into_batches(records, self.batch_size));
    }
}

// ---------------------------------------------------------------------------
// Key helpers — allocation-free on the hot path.
// ---------------------------------------------------------------------------

/// Compares two records on the same key attributes, field by field.
#[inline]
pub(crate) fn key_cmp(a: &Record, b: &Record, key: &[AttrId]) -> Ordering {
    for &k in key {
        match a.field(k.index()).cmp(b.field(k.index())) {
            Ordering::Equal => {}
            ord => return ord,
        }
    }
    Ordering::Equal
}

/// Compares record `a`'s key `ka` with record `b`'s key `kb` (two-input
/// PACTs: the sides key on different global attributes).
#[inline]
pub(crate) fn key_cmp2(a: &Record, ka: &[AttrId], b: &Record, kb: &[AttrId]) -> Ordering {
    debug_assert_eq!(ka.len(), kb.len());
    for (&x, &y) in ka.iter().zip(kb) {
        match a.field(x.index()).cmp(b.field(y.index())) {
            Ordering::Equal => {}
            ord => return ord,
        }
    }
    Ordering::Equal
}

/// `true` iff any key field of the record is null (SQL flavour: such
/// records match nothing in joins).
#[inline]
pub(crate) fn key_has_null(r: &Record, key: &[AttrId]) -> bool {
    key.iter().any(|k| r.field(k.index()).is_null())
}

/// Canonical ordering inside key groups: `(key, whole record)`. Sorting
/// with this comparator makes group contents a function of the input bag,
/// independent of partitioning and arrival order — the determinism
/// property the paper's equivalence results assume.
#[inline]
pub(crate) fn canonical_cmp(a: &Record, b: &Record, key: &[AttrId]) -> Ordering {
    key_cmp(a, b, key).then_with(|| a.cmp(b))
}

/// Takes ownership of a batch's records: moves when this is the last
/// reference (the common forward/partition case), clones only for batches
/// still shared with other partitions (broadcast).
pub(crate) fn take_records(batch: Arc<RecordBatch>) -> Vec<Record> {
    match Arc::try_unwrap(batch) {
        Ok(b) => b.into_records(),
        Err(shared) => shared.to_records(),
    }
}

/// Chunks records into `Arc`-wrapped batches of at most `batch_size` — the
/// single batching point used by operator emission, partition shipping and
/// the scan stage.
pub(crate) fn into_batches(records: Vec<Record>, batch_size: usize) -> Vec<Arc<RecordBatch>> {
    RecordBatch::chunked(records, batch_size)
        .into_iter()
        .map(Arc::new)
        .collect()
}

// ---------------------------------------------------------------------------
// Factory + single-shot application.
// ---------------------------------------------------------------------------

/// Builds the operator realizing `(ctx.op(), strategy)`. This is the
/// single lowering point shared by the logical oracle, the parallel engine
/// and the profiler. Every plan carries explicit strategies (a logical plan
/// is lowered with [`LocalStrategy::default_for`], see
/// [`strato_core::PhysPlan::logical`]).
///
/// # Panics
///
/// When `strategy` is not an algorithm of the operator's PACT (a
/// malformed hand-built physical plan).
pub fn build(strategy: LocalStrategy, ctx: OpCtx) -> Box<dyn Operator> {
    use LocalStrategy::*;
    let op = ctx.op();
    match (&op.pact, strategy) {
        (Pact::Map, Pipe) => Box::new(map::MapOp::new(ctx)),
        (Pact::Reduce { .. }, HashGroup) => Box::new(reduce::ReduceOp::new(ctx)),
        (Pact::Match { .. }, HashJoinBuildLeft) => Box::new(join::MatchOp::new(0, ctx)),
        (Pact::Match { .. }, HashJoinBuildRight) => Box::new(join::MatchOp::new(1, ctx)),
        (Pact::Cross, BlockNestedLoop) => Box::new(cross::CrossOp::new(ctx)),
        (Pact::CoGroup { .. }, CoGroupSortMerge) => Box::new(cogroup::CoGroupOp::new(ctx)),
        (pact, strategy) => panic!(
            "operator {}: {strategy:?} is not a local strategy of {}",
            op.name,
            pact.kind_name()
        ),
    }
}

/// Builds a fused chain of Map operators running as **one** task: records
/// flow stage-to-stage as plain `Vec<Record>`s, skipping intermediate batch
/// formation and channel hops. Every element must be a Map; each carries
/// its own [`OpCtx`] so per-operator stats stay attributed correctly.
pub(crate) fn build_map_chain(stages: Vec<OpCtx>) -> Box<dyn Operator> {
    debug_assert!(stages.iter().all(|c| matches!(c.op().pact, Pact::Map)));
    Box::new(map::MapOp::chained(stages))
}

/// How [`apply_chunked`] lays out the batches it pushes.
#[cfg(test)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BatchLayout {
    /// Row-major batches (`RecordBatch::from_records`).
    Rows,
    /// Columnar batches built through `BatchBuilder`, as scans and the
    /// Partition scatter deliver them.
    Columns,
    /// Columnar and row-major batches alternating, columnar first.
    Mixed,
}

#[cfg(test)]
impl BatchLayout {
    pub(crate) const ALL: [BatchLayout; 3] =
        [BatchLayout::Rows, BatchLayout::Columns, BatchLayout::Mixed];

    /// Batch number `i` of `records` in this layout, at `width` columns.
    pub(crate) fn batch(self, i: usize, records: &[Record], width: usize) -> RecordBatch {
        let columnar = match self {
            BatchLayout::Rows => false,
            BatchLayout::Columns => true,
            BatchLayout::Mixed => i % 2 == 0,
        };
        if !columnar {
            return RecordBatch::from_records(records.to_vec());
        }
        let mut b = strato_record::BatchBuilder::new(width);
        for r in records {
            b.push_record(r);
        }
        RecordBatch::from_columns(b.finish())
    }
}

/// Applies one operator over fully materialized single-partition inputs:
/// builds it, pushes each input port's records `chunk` per batch in
/// `layout`, finishes, and concatenates the output. Checks the governor
/// contract on the way: the push that crosses the budget sheds the
/// buffers, and nothing stays granted past `finish`.
#[cfg(test)]
pub(crate) fn apply_chunked(
    strategy: LocalStrategy,
    inputs: &[Vec<Record>],
    chunk: usize,
    layout: BatchLayout,
    ctx: OpCtx,
) -> Result<Vec<Record>, ExecError> {
    let gov = Arc::clone(&ctx.gov);
    let width = ctx.plan.width();
    let name = ctx.op().name.clone();
    let mut oper = build(strategy, ctx);
    let mut out = Vec::new();
    for (port, records) in inputs.iter().enumerate() {
        for (i, chunk) in records.chunks(chunk).enumerate() {
            let batch = Arc::new(layout.batch(i, chunk, width));
            oper.push(port, batch, &mut out)?;
            assert!(!gov.over_budget(), "{name} kept pressure");
        }
    }
    oper.finish(&mut out)?;
    assert_eq!(gov.resident(), 0, "{name} kept a grant");
    Ok(out.into_iter().flat_map(take_records).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use strato_record::Value;

    fn rec(vals: &[i64]) -> Record {
        Record::from_values(vals.iter().map(|&v| Value::Int(v)))
    }

    #[test]
    fn key_cmp_orders_by_key_fields_only() {
        let key = [AttrId(1)];
        assert_eq!(key_cmp(&rec(&[9, 1]), &rec(&[0, 2]), &key), Ordering::Less);
        assert_eq!(key_cmp(&rec(&[9, 2]), &rec(&[0, 2]), &key), Ordering::Equal);
    }

    /// Each record's key hash through the batch kernel, row-major.
    fn hashes(recs: &[Record], key: &[usize]) -> Vec<u64> {
        let mut out = Vec::new();
        RecordBatch::from_records(recs.to_vec()).key_hash_into(key, &mut out);
        out
    }

    #[test]
    fn key_hash_agrees_with_key_equality() {
        let key = [AttrId(0), AttrId(2)];
        let a = rec(&[5, 1, 7]);
        let b = rec(&[5, 2, 7]);
        let c = rec(&[5, 1, 8]);
        assert_eq!(key_cmp(&a, &b, &key), Ordering::Equal);
        let h = hashes(&[a, b, c], &[0, 2]);
        assert_eq!(h[0], h[1]);
        assert_ne!(h[0], h[2]);
    }

    #[test]
    fn null_keys_hash_equal_and_group_together() {
        let key = [AttrId(0)];
        let a = Record::from_values([Value::Null, Value::Int(1)]);
        let b = Record::from_values([Value::Null, Value::Int(2)]);
        assert!(key_has_null(&a, &key));
        assert_eq!(key_cmp(&a, &b, &key), Ordering::Equal);
        let h = hashes(&[a, b], &[0]);
        assert_eq!(h[0], h[1]);
    }

    #[test]
    fn calls_are_charged_every_1024_and_on_flush_exactly_once() {
        use strato_dataflow::{CostHints, ProgramBuilder, SourceDef};
        use strato_ir::{FuncBuilder, UdfKind};
        let mut b = FuncBuilder::new("id", UdfKind::Map, vec![1]);
        let or = b.copy_input(0);
        b.emit(or);
        b.ret();
        let mut p = ProgramBuilder::new();
        let s = p.source(SourceDef::new("s", &["a"], 8));
        let m = p.map("id", b.finish().unwrap(), CostHints::default(), s);
        let plan = p.finish(m).unwrap().bind().unwrap();
        let stats = Arc::new(ExecStats::with_ops(1));
        let gov = Arc::new(MemoryGovernor::with_budget(None));
        let mut ctx = crate::testutil::ctx(&plan, &stats, &gov);
        let r = rec(&[1]);
        let mut out = Vec::new();
        let mut call = |ctx: &mut OpCtx| ctx.call(Invocation::Row((&r).into()), &mut out).unwrap();
        let charged = |n: u64| {
            let t = stats.totals();
            assert_eq!((t.udf_calls, t.records_emitted), (n, n));
            assert_eq!(stats.op_snapshots()[0].calls, n);
        };
        for _ in 1..FLUSH_EVERY {
            call(&mut ctx);
        }
        charged(0);
        call(&mut ctx);
        charged(FLUSH_EVERY);
        call(&mut ctx);
        // A clone starts with a zero tally: flushing it charges nothing.
        ctx.clone().flush_calls();
        charged(FLUSH_EVERY);
        ctx.flush_calls();
        ctx.flush_calls();
        charged(FLUSH_EVERY + 1);
    }

    #[test]
    fn take_records_moves_unique_and_clones_shared() {
        let batch = Arc::new(RecordBatch::from_records(vec![rec(&[1])]));
        let keep = Arc::clone(&batch);
        // Shared: cloned, original still intact.
        assert_eq!(take_records(batch), vec![rec(&[1])]);
        assert_eq!(keep.len(), 1);
        // Unique: moved.
        assert_eq!(take_records(keep), vec![rec(&[1])]);
    }
}
