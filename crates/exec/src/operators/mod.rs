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
//! Input batches arrive as `Arc<RecordBatch>`: a broadcast ship hands the
//! same allocation to every partition. Blocking operators hold the
//! batches they are pushed, as they arrived, and hand UDFs row views of
//! them ([`strato_record::RowRef`]). A buffer's spill writes its runs
//! straight from those views; its sort-based drain materializes only the
//! rows it keeps, already in canonical order. No operator turns a whole
//! held batch into records.
//!
//! ## Emission
//!
//! Every batch an operator emits is columnar and owned: the task that
//! runs the operator hands it to its router, which wraps it in an `Arc`
//! for the channels, or to the result sink. Each UDF call's output moves
//! into the instance's [`strato_record::BatchBuilder`] as the call
//! returns (`OpCtx::call_out`), which seals a batch at every
//! `batch_size` rows; `OpCtx::drain_into` ends each `push` and
//! `finish`, handing on the sealed batches and then the partial one.
//!
//! ## Key handling
//!
//! Key extraction never clones `Value`s on the hot path: comparisons go
//! through row views ([`RowRef::key_cmp`], `key_cmp2` and
//! `canonical_cmp`: field-by-field, allocation-free) — a record the
//! engine already holds, such as a merged spill record, is compared
//! through `RowRef::from` — and hash tables are keyed by a 64-bit FxHash
//! of the key fields (`RecordBatch::key_hash_into`, one column-wise pass
//! per batch) with exact-equality verification per bucket entry, so hash
//! collisions cannot merge distinct keys. Groups are sorted, spilled,
//! merged and walked in one canonical `(key, row)` order,
//! [`RowRef::canonical_cmp`].

pub mod cogroup;
pub mod cross;
pub mod join;
pub mod map;
pub mod reduce;

use crate::engine::ExecError;
use crate::spill::MemoryGovernor;
use crate::stats::ExecStats;
use std::sync::Arc;
use strato_core::LocalStrategy;
use strato_dataflow::{BoundOp, Pact, PlanCtx};
use strato_ir::interp::{Frame, Interp, Invocation};
use strato_record::hash::FxHashMap;
use strato_record::{BatchBuilder, Record, RecordBatch, RowRef};

/// A physical operator: consumes batches on numbered input ports, emits
/// batches. See the module docs for the push / finish contract.
pub trait Operator: Send {
    /// Consumes one input batch on `port`. Streaming operators append
    /// output batches to `out`; blocking operators buffer until `finish`.
    fn push(
        &mut self,
        port: usize,
        batch: Arc<RecordBatch>,
        out: &mut Vec<RecordBatch>,
    ) -> Result<(), ExecError>;

    /// Signals end of input on all ports; emits any buffered output.
    fn finish(&mut self, out: &mut Vec<RecordBatch>) -> Result<(), ExecError>;
}

/// Everything one operator instance runs against: the plan it belongs
/// to, the interpreter, and the statistics and memory budget of its
/// execution. Owned (the execution's pieces are shared by `Arc`), so an
/// operator borrows nothing from the caller.
///
/// It also carries the instance's UDF-call state: the register
/// [`Frame`] every call reuses, the calls, steps and emits made since
/// its last flush into [`ExecStats`], and the output batches its calls
/// have built but not yet handed on. A clone shares the execution's
/// pieces but starts with an empty frame, a zero tally and no output,
/// so no call is ever charged, and no record emitted, twice.
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

/// One instance's reused frame, its not-yet-flushed call tally, and its
/// not-yet-drained output.
struct CallState {
    frame: Frame,
    calls: u64,
    steps: u64,
    emits: u64,
    /// The records of the call being appended (kept for its capacity).
    emitted: Vec<Record>,
    /// The output batch being filled, at the plan's width.
    builder: BatchBuilder,
    /// Sealed output batches of `batch_size` rows each.
    ready: Vec<RecordBatch>,
}

impl CallState {
    fn new(width: usize) -> Self {
        CallState {
            frame: Frame::default(),
            calls: 0,
            steps: 0,
            emits: 0,
            emitted: Vec::new(),
            builder: BatchBuilder::new(width),
            ready: Vec::new(),
        }
    }
}

impl Clone for CallState {
    /// Empty: a tally and its output belong to the instance that made
    /// the calls.
    fn clone(&self) -> Self {
        CallState::new(self.builder.width())
    }
}

impl OpCtx {
    /// The context of operator `op_id` of `plan`, with the default
    /// interpreter, an empty frame, a zero tally and no output.
    pub fn new(
        plan: Arc<PlanCtx>,
        stats: Arc<ExecStats>,
        gov: Arc<MemoryGovernor>,
        batch_size: usize,
        op_id: usize,
    ) -> Self {
        OpCtx {
            interp: Interp::default(),
            calls: CallState::new(plan.width()),
            plan,
            stats,
            gov,
            batch_size,
            op_id,
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

    /// Runs one invocation like [`OpCtx::call`] and moves what it emits
    /// into the instance's output builder, sealing a batch at every
    /// `batch_size` rows.
    pub(crate) fn call_out(&mut self, inv: Invocation<'_>) -> Result<(), ExecError> {
        let mut emitted = std::mem::take(&mut self.calls.emitted);
        let called = self.call(inv, &mut emitted);
        let t = &mut self.calls;
        for r in emitted.drain(..) {
            t.builder.push(r);
            if t.builder.len() >= self.batch_size {
                t.ready.push(t.builder.take());
            }
        }
        t.emitted = emitted;
        called
    }

    /// Adds the calls tallied since the last flush to the stats.
    fn flush_calls(&mut self) {
        let t = &mut self.calls;
        if t.calls > 0 {
            self.stats.add_calls(self.op_id, t.calls, t.steps, t.emits);
            (t.calls, t.steps, t.emits) = (0, 0, 0);
        }
    }

    /// Ends every `push` and `finish` that calls the UDF, on every exit
    /// path: flushes the call tally, then moves the sealed output
    /// batches and the partial one to `out`.
    pub(crate) fn drain_into(&mut self, out: &mut Vec<RecordBatch>) {
        self.flush_calls();
        let t = &mut self.calls;
        out.append(&mut t.ready);
        if !t.builder.is_empty() {
            out.push(t.builder.take());
        }
    }
}

// ---------------------------------------------------------------------------
// Key helpers — allocation-free on the hot path.
// ---------------------------------------------------------------------------

/// Calls `each(hash, row)` for every row of `batches`, hashing each
/// batch's key in one pass (`key_hash_into`).
pub(crate) fn for_each_hashed<'a>(
    batches: impl IntoIterator<Item = &'a RecordBatch>,
    key: &[usize],
    mut each: impl FnMut(u64, RowRef<'a>),
) {
    let mut hashes = Vec::new();
    for b in batches {
        b.key_hash_into(key, &mut hashes);
        for (row, &h) in hashes.iter().enumerate() {
            each(h, b.row(row));
        }
    }
}

/// No next entry on a [`key_minima`] collision chain.
const CHAIN_END: usize = usize::MAX;

/// The buffers of a [`key_minima`] scan. A caller that scans repeatedly —
/// a first-per-key `RunBuffer` selects on every spill — keeps one and
/// reuses it: buffers allocated afresh per scan, and freed again, had the
/// allocator hand the freed memory back to the OS and fault it back in on
/// the next spill.
#[derive(Debug, Default)]
pub(crate) struct MinimaScratch {
    /// Key hash → the first entry with that hash.
    heads: FxHashMap<u64, usize>,
    /// The next entry sharing an entry's hash (`CHAIN_END` when none).
    next: Vec<usize>,
    /// One batch's key hashes.
    hashes: Vec<u64>,
}

/// Sets `minima` to the canonical minimum row of every key of `batches` —
/// the first row of the key's canonically sorted group — as its
/// `(batch, row)` position, found in one scan, in order of first
/// appearance. Keys sharing a 64-bit hash are chained, so a collision is
/// resolved by an exact key comparison, never merged.
///
/// Reduce's hash finish and a first-per-key `RunBuffer`'s spill and drain
/// both select rows with this scan.
pub(crate) fn key_minima(
    batches: &[&RecordBatch],
    key: &[usize],
    scratch: &mut MinimaScratch,
    minima: &mut Vec<(usize, usize)>,
) {
    let MinimaScratch {
        heads,
        next,
        hashes,
    } = scratch;
    heads.clear();
    next.clear();
    minima.clear();
    for (b, batch) in batches.iter().enumerate() {
        batch.key_hash_into(key, hashes);
        for (r, &h) in hashes.iter().enumerate() {
            let fresh = minima.len();
            let mut i = *heads.entry(h).or_insert(fresh);
            if i == fresh {
                minima.push((b, r));
                next.push(CHAIN_END);
                continue;
            }
            let row = batch.row(r);
            loop {
                let (mb, mr) = minima[i];
                let min = batches[mb].row(mr);
                if min.key_cmp(&row, key).is_eq() {
                    // Equal keys: the whole-row order decides.
                    if row < min {
                        minima[i] = (b, r);
                    }
                    break;
                }
                if next[i] == CHAIN_END {
                    next[i] = fresh;
                    minima.push((b, r));
                    next.push(CHAIN_END);
                    break;
                }
                i = next[i];
            }
        }
    }
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

/// Applies one operator over fully materialized single-partition inputs:
/// builds it, pushes each input port's records `chunk` per batch,
/// finishes, and concatenates the output. Checks the governor contract
/// on the way: the push that crosses the budget sheds the buffers, and
/// nothing stays granted past `finish`.
#[cfg(test)]
pub(crate) fn apply_chunked(
    strategy: LocalStrategy,
    inputs: &[Vec<Record>],
    chunk: usize,
    ctx: OpCtx,
) -> Result<Vec<Record>, ExecError> {
    let gov = Arc::clone(&ctx.gov);
    let width = ctx.plan.width();
    let name = ctx.op().name.clone();
    let mut oper = build(strategy, ctx);
    let mut out = Vec::new();
    for (port, records) in inputs.iter().enumerate() {
        for chunk in records.chunks(chunk) {
            let batch = Arc::new(crate::testutil::batch(chunk, width));
            oper.push(port, batch, &mut out)?;
            assert!(!gov.over_budget(), "{name} kept pressure");
        }
    }
    oper.finish(&mut out)?;
    assert_eq!(gov.resident(), 0, "{name} kept a grant");
    Ok(out
        .into_iter()
        .flat_map(RecordBatch::into_records)
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Ordering;
    use strato_record::Value;

    fn rec(vals: &[i64]) -> Record {
        Record::from_values(vals.iter().map(|&v| Value::Int(v)))
    }

    /// The key order of two records, through their row views.
    fn key_order(a: &Record, b: &Record, key: &[usize]) -> Ordering {
        RowRef::from(a).key_cmp(&b.into(), key)
    }

    #[test]
    fn key_order_is_on_key_fields_only() {
        let key = [1];
        assert_eq!(
            key_order(&rec(&[9, 1]), &rec(&[0, 2]), &key),
            Ordering::Less
        );
        assert_eq!(
            key_order(&rec(&[9, 2]), &rec(&[0, 2]), &key),
            Ordering::Equal
        );
    }

    /// Each record's key hash through the batch kernel.
    fn hashes(recs: &[Record], key: &[usize]) -> Vec<u64> {
        let mut out = Vec::new();
        crate::testutil::batch(recs, recs[0].arity()).key_hash_into(key, &mut out);
        out
    }

    #[test]
    fn key_hash_agrees_with_key_equality() {
        let key = [0, 2];
        let a = rec(&[5, 1, 7]);
        let b = rec(&[5, 2, 7]);
        let c = rec(&[5, 1, 8]);
        assert_eq!(key_order(&a, &b, &key), Ordering::Equal);
        let h = hashes(&[a, b, c], &key);
        assert_eq!(h[0], h[1]);
        assert_ne!(h[0], h[2]);
    }

    #[test]
    fn null_keys_hash_equal_and_group_together() {
        let key = [0];
        let a = Record::from_values([Value::Null, Value::Int(1)]);
        let b = Record::from_values([Value::Null, Value::Int(2)]);
        assert!(RowRef::from(&a).key_has_null(&key));
        assert_eq!(key_order(&a, &b, &key), Ordering::Equal);
        let h = hashes(&[a, b], &key);
        assert_eq!(h[0], h[1]);
    }

    /// A Map from `s(a, b)` emitting `k` records per input: copies of its
    /// input, or — `fresh` — new records (`Record::nulls` at the plan
    /// width) holding `a` alone.
    fn k_map(k: usize, fresh: bool) -> strato_dataflow::Plan {
        use strato_dataflow::{CostHints, ProgramBuilder, SourceDef};
        use strato_ir::{FuncBuilder, UdfKind};
        let mut b = FuncBuilder::new("k", UdfKind::Map, vec![2]);
        let or = if fresh {
            let or = b.new_rec();
            let a = b.get_input(0, 0);
            b.set(or, 0, a);
            or
        } else {
            b.copy_input(0)
        };
        for _ in 0..k {
            b.emit(or);
        }
        b.ret();
        let mut p = ProgramBuilder::new();
        let s = p.source(SourceDef::new("s", &["a", "b"], 8));
        let m = p.map("k", b.finish().unwrap(), CostHints::default(), s);
        p.finish(m).unwrap().bind().unwrap()
    }

    /// The context of `plan`'s root at `batch_size`.
    fn sized_ctx(plan: &strato_dataflow::Plan, batch_size: usize) -> OpCtx {
        let mut ctx = crate::testutil::ctx(
            plan,
            &Arc::new(ExecStats::with_ops(plan.ctx.ops.len())),
            &Arc::new(MemoryGovernor::with_budget(None)),
        );
        ctx.batch_size = batch_size;
        ctx
    }

    #[test]
    fn calls_are_charged_every_1024_and_on_flush_exactly_once() {
        let plan = k_map(1, false);
        let stats = Arc::new(ExecStats::with_ops(1));
        let gov = Arc::new(MemoryGovernor::with_budget(None));
        let mut ctx = crate::testutil::ctx(&plan, &stats, &gov);
        let r = rec(&[1, 2]);
        let call = |ctx: &mut OpCtx| ctx.call_out(Invocation::Row((&r).into())).unwrap();
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
        // A clone starts with a zero tally and no output: draining it
        // charges and hands on nothing.
        let mut out = Vec::new();
        ctx.clone().drain_into(&mut out);
        charged(FLUSH_EVERY);
        assert!(out.is_empty());
        ctx.drain_into(&mut out);
        ctx.drain_into(&mut out);
        charged(FLUSH_EVERY + 1);
        // 64 rows per sealed batch, then the partial one.
        let sizes: Vec<usize> = out.iter().map(|b| b.len()).collect();
        let mut want = vec![64; (FLUSH_EVERY / 64) as usize];
        want.push(1);
        assert_eq!(sizes, want);
    }

    #[test]
    fn a_push_emits_full_batches_then_one_partial_at_the_plan_width() {
        use crate::testutil::{batch, widen};
        let src: strato_record::DataSet = (0..5).map(|i| rec(&[i, 10 + i])).collect();
        for fresh in [false, true] {
            for k in [0, 1, 3] {
                let plan = k_map(k, fresh);
                let width = plan.ctx.width();
                let input = widen(&src, &plan.ctx.sources[0].attrs, width);
                // The UDF's own output, call by call: every record, fresh
                // or copied, is as wide as the plan.
                let mut want = Vec::new();
                let mut ctx = sized_ctx(&plan, 1);
                for r in &input {
                    ctx.call(Invocation::Row(r.into()), &mut want).unwrap();
                }
                assert_eq!(want.len(), input.len() * k);
                assert!(want.iter().all(|r| r.arity() == width), "fresh {fresh}");
                for b in [1, 4, 7] {
                    let tag = format!("k {k}, fresh {fresh}, batch size {b}");
                    let mut map = build(LocalStrategy::Pipe, sized_ctx(&plan, b));
                    for _ in 0..2 {
                        let mut out = Vec::new();
                        map.push(0, Arc::new(batch(&input, width)), &mut out)
                            .unwrap();
                        let n = want.len();
                        let mut sizes = vec![b; n / b];
                        sizes.extend(Some(n % b).filter(|&rest| rest > 0));
                        let got: Vec<usize> = out.iter().map(|o| o.len()).collect();
                        assert_eq!(got, sizes, "{tag}");
                        assert!(out.iter().all(|o| o.width() == width), "{tag}");
                        let got: Vec<Record> = out
                            .into_iter()
                            .flat_map(RecordBatch::into_records)
                            .collect();
                        assert_eq!(got, want, "{tag}");
                    }
                }
            }
        }
    }

    #[test]
    fn a_reduce_finish_emits_one_batch_per_batch_size_groups() {
        use crate::testutil::{batch, sum_inplace};
        use strato_dataflow::{CostHints, ProgramBuilder, SourceDef};
        let mut p = ProgramBuilder::new();
        let s = p.source(SourceDef::new("s", &["k", "v"], 64));
        let r = p.reduce("sum", &[0], sum_inplace(2, 1), CostHints::default(), s);
        let plan = p.finish(r).unwrap().bind().unwrap();
        let width = plan.ctx.width();
        let rows: Vec<Record> = (0..40).map(|i| rec(&[i % 10, i])).collect();
        // In memory (the hash finish) and spilling every batch (the
        // sort-based walk): ten groups at four per batch are three
        // batches.
        for budget in [None, Some(0)] {
            let mut ctx = sized_ctx(&plan, 4);
            ctx.gov = Arc::new(MemoryGovernor::with_budget(budget));
            let mut reduce = build(LocalStrategy::HashGroup, ctx);
            let mut out = Vec::new();
            for chunk in rows.chunks(8) {
                reduce
                    .push(0, Arc::new(batch(chunk, width)), &mut out)
                    .unwrap();
            }
            assert!(out.is_empty(), "a Reduce emits at finish");
            reduce.finish(&mut out).unwrap();
            let sizes: Vec<usize> = out.iter().map(|o| o.len()).collect();
            assert_eq!(sizes, [4, 4, 2], "at {budget:?}");
        }
    }
}
