//! The pre-ship combiner: streaming pre-aggregation for *combinable*
//! (decomposable) reduces.
//!
//! When static code analysis proves a reduce UDF is an in-place algebraic
//! fold (see `strato_sca::combine`), the producing partitions need not
//! ship every record: the combiner keeps **one partial record per key**
//! in a hash table and folds every arriving record into its partial with
//! the proven `⊕` operator — the engine literally runs the fold the
//! analysis read out of the black box. One `absorb` folds rows of either
//! batch layout: each batch is hashed with `RecordBatch::key_hash_into`,
//! each row is read through its `RowRef` view, and a `Record` is built
//! only when a key is seen for the first time.
//!
//! The lowering splices the combiner ahead of a Partition-shipped Reduce
//! (`PhysNode::combine`). It emits the raw partials and calls no UDF, so
//! only one record per key per producing partition crosses the wire; the
//! final Reduce groups the partials like any other input.
//!
//! ## Why the output is byte-identical to the uncombined Reduce
//!
//! The combiner legality conditions (`Plan::combinable_reduce`) guarantee
//! every field of a group record is a grouping key (constant within the
//! group), a folded field (`⊕` is associative + commutative, so the fold
//! is independent of arrival order and of how the group was split into
//! partials), or an attribute the input subtree never populates (null in
//! every record). A partial is therefore a pure function of the bag it
//! folded, and the final Reduce's UDF folds the partials of a group as it
//! would have folded the records: its constant accumulator init
//! participates exactly once, because partials are produced by the pure
//! record-value fold.
//!
//! ## Memory governance
//!
//! The partials live in a governed `RunBuffer` (the hash table only
//! indexes them), granted at their first-sight size. Under pressure the
//! combiner flushes its partials *downstream* (Hadoop-style combiner
//! spill): the final Reduce re-groups them, so a skewed or wide key
//! domain costs shipped volume instead of unbounded memory — the table
//! never touches disk.

use super::{canonical_cmp, OpCtx, Operator};
use crate::engine::ExecError;
use crate::spill::RunBuffer;
use std::sync::Arc;
use strato_ir::interp::eval_bin;
use strato_ir::BinOp;
use strato_record::hash::FxHashMap;
use strato_record::{RecordBatch, RowRef};

/// Streaming hash pre-aggregation over input port 0.
///
/// The table is keyed by the 64-bit key hash with exact key comparison
/// per bucket entry, so hash collisions cannot merge distinct keys.
pub struct StreamAggOp {
    ctx: OpCtx,
    /// `(global attribute index, ⊕)` per folded field.
    folds: Vec<(usize, BinOp)>,
    /// Key attributes as plain column indices.
    key_idx: Vec<usize>,
    /// Scratch hash column reused across batches.
    hashes: Vec<u64>,
    /// One partial record per key seen since the last flush.
    partials: RunBuffer,
    /// key hash → positions in `partials.rows()` of the keys sharing it.
    table: FxHashMap<u64, Vec<usize>>,
    records_in: u64,
    /// Partials emitted so far (pressure flushes + finish).
    partials_out: u64,
}

impl StreamAggOp {
    pub(crate) fn new(ctx: OpCtx) -> Self {
        let op = ctx.op();
        let folds = op
            .combine_folds()
            .expect("the combiner requires a combinable reduce UDF")
            .into_iter()
            .map(|(attr, bin)| (attr.index(), bin))
            .collect();
        let key_idx = op.key_attrs[0].iter().map(|k| k.index()).collect();
        StreamAggOp {
            partials: RunBuffer::new(ctx.clone(), 0, false),
            ctx,
            folds,
            key_idx,
            hashes: Vec::new(),
            table: FxHashMap::default(),
            records_in: 0,
            partials_out: 0,
        }
    }

    /// Folds one row, of either batch layout, into its key's partial:
    /// a `Record` is built only when the key is seen for the first time.
    /// `hash` is the row's key hash (computed per batch). This is the
    /// entire per-record work of the operator.
    fn absorb(&mut self, row: RowRef<'_>, hash: u64) {
        self.records_in += 1;
        let bucket = self.table.entry(hash).or_default();
        let partials = self.partials.rows_mut();
        match bucket.iter().find(|&&i| {
            RowRef::from(&partials[i])
                .key_cmp(&row, &self.key_idx)
                .is_eq()
        }) {
            Some(&i) => {
                let p = &mut partials[i];
                for &(f, bin) in &self.folds {
                    let v = eval_bin(bin, p.field(f), &row.value(f));
                    p.set_field(f, v);
                }
            }
            None => {
                bucket.push(partials.len());
                self.partials.push([row.to_record()]);
            }
        }
    }

    /// Emits the partials in ascending canonical key order (deterministic
    /// for any arrival order), releases their grant and empties the table.
    fn flush(&mut self, out: &mut Vec<Arc<RecordBatch>>) {
        let key = &self.ctx.op().key_attrs[0];
        let mut partials = self.partials.take_rows();
        self.partials.release();
        self.table.clear();
        self.partials_out += partials.len() as u64;
        partials.sort_unstable_by(|a, b| canonical_cmp(a, b, key));
        self.ctx.emit(partials, out);
    }
}

impl Operator for StreamAggOp {
    fn push(
        &mut self,
        port: usize,
        batch: Arc<RecordBatch>,
        out: &mut Vec<Arc<RecordBatch>>,
    ) -> Result<(), ExecError> {
        debug_assert_eq!(port, 0, "streaming aggregation is unary");
        let mut hashes = std::mem::take(&mut self.hashes);
        batch.key_hash_into(&self.key_idx, &mut hashes);
        for (row, &h) in hashes.iter().enumerate() {
            self.absorb(batch.row(row), h);
        }
        self.hashes = hashes;
        if self.ctx.gov.over_budget() && !self.partials.rows().is_empty() {
            // Shed the table downstream: the final Reduce re-groups the
            // partials.
            self.flush(out);
        }
        Ok(())
    }

    fn finish(&mut self, out: &mut Vec<Arc<RecordBatch>>) -> Result<(), ExecError> {
        self.flush(out);
        self.ctx
            .stats
            .add_preagg(self.records_in, self.partials_out);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operators::{apply_built, apply_single, build_combiner, BatchLayout};
    use crate::spill::MemoryGovernor;
    use crate::stats::ExecStats;
    use crate::testutil::{ctx, sum_inplace};
    use strato_core::LocalStrategy;
    use strato_dataflow::{CostHints, Plan, ProgramBuilder, SourceDef};
    use strato_record::{DataSet, Record, Value};

    fn agg_plan() -> Plan {
        let mut p = ProgramBuilder::new();
        let s = p.source(SourceDef::new("s", &["k", "v"], 64));
        let r = p.reduce("agg", &[0], sum_inplace(2, 1), CostHints::default(), s);
        p.finish(r).unwrap().bind().unwrap()
    }

    fn wide(plan: &Plan, rows: &[(i64, i64)]) -> Vec<Record> {
        let ds: DataSet = rows
            .iter()
            .map(|&(k, v)| Record::from_values([Value::Int(k), Value::Int(v)]))
            .collect();
        crate::testutil::widen(&ds, &plan.ctx.sources[0].attrs, plan.ctx.width())
    }

    /// `(records in, partials out)` of the pre-aggregation tables.
    fn preagg(stats: &ExecStats) -> (u64, u64) {
        let t = stats.totals();
        (t.records_preagg_in, t.records_preagg_out)
    }

    /// Every `(layout, rows per batch)` the sweeps push `n` input rows
    /// as: one row, two rows and the whole input per batch, in row-major,
    /// columnar and alternating batches.
    fn sweep(n: usize) -> impl Iterator<Item = (BatchLayout, usize)> {
        BatchLayout::ALL
            .into_iter()
            .flat_map(move |layout| [1, 2, n].map(|chunk| (layout, chunk)))
    }

    /// Fresh, unbounded stats and governor.
    fn fresh() -> (Arc<ExecStats>, Arc<MemoryGovernor>) {
        (
            Arc::new(ExecStats::new()),
            Arc::new(MemoryGovernor::unbounded()),
        )
    }

    #[test]
    fn stream_agg_matches_buffered_reduce_record_for_record() {
        // The combiner's contract at operator level: its partials,
        // grouped by the final Reduce, give the records the Reduce gives
        // on the raw input, in the same order, with the same UDF calls.
        let plan = agg_plan();
        let rows = [(3, 10), (1, 1), (3, -4), (2, 7), (1, 5), (3, 9)];
        let input = wide(&plan, &rows);
        let (s1, g1) = fresh();
        let hash = LocalStrategy::HashGroup;
        let buffered = apply_single(hash, vec![input.clone()], ctx(&plan, &s1, &g1)).unwrap();
        let input = [input];
        for (layout, chunk) in sweep(rows.len()) {
            let (s2, g2) = fresh();
            let comb = ctx(&plan, &s2, &g2);
            let partials = apply_built(build_combiner, &input, chunk, layout, comb).unwrap();
            let combined = apply_single(hash, vec![partials], ctx(&plan, &s2, &g2)).unwrap();
            // Same records in the same (ascending-key) order.
            assert_eq!(buffered, combined, "{layout:?} x {chunk}");
            // Same UDF-call accounting: one call per distinct key.
            assert_eq!(s1.totals().udf_calls, s2.totals().udf_calls);
            assert_eq!(s2.totals().udf_calls, 3);
            // The combiner reports its reduction.
            assert_eq!(preagg(&s2), (6, 3));
        }
        assert_eq!(preagg(&s1), (0, 0));
    }

    #[test]
    fn combiner_role_emits_pure_partials_without_udf_calls() {
        let plan = agg_plan();
        let rows = [(2, 1), (1, 10), (2, 2), (2, 4), (1, -3)];
        let input = [wide(&plan, &rows)];
        // One row per batch included: folding must happen across batches.
        for (layout, chunk) in sweep(rows.len()) {
            let (stats, gov) = fresh();
            let comb = ctx(&plan, &stats, &gov);
            let partials = apply_built(build_combiner, &input, chunk, layout, comb).unwrap();
            // One partial per key, ascending, with the pure (init-free) fold.
            let got: Vec<(i64, i64)> = partials
                .iter()
                .map(|p| (p.field(0).as_int().unwrap(), p.field(1).as_int().unwrap()))
                .collect();
            assert_eq!(got, vec![(1, 7), (2, 7)], "{layout:?} x {chunk}");
            // No UDF ran; the reduction is accounted.
            assert_eq!(stats.totals().udf_calls, 0);
            assert_eq!(preagg(&stats), (5, 2));
        }
    }

    #[test]
    fn combiner_flushes_partials_downstream_under_pressure_not_to_disk() {
        let plan = agg_plan();
        let rows: Vec<(i64, i64)> = (0..30).map(|i| (i % 3, 1)).collect();
        let input = wide(&plan, &rows);
        let stats = Arc::new(ExecStats::with_ops(1));
        let gov = Arc::new(MemoryGovernor::with_budget(Some(30)));
        let mut comb = build_combiner(ctx(&plan, &stats, &gov));
        comb.open().unwrap();
        let mut out = Vec::new();
        for r in input {
            comb.push(0, Arc::new(RecordBatch::from_records(vec![r])), &mut out)
                .unwrap();
        }
        let flushed_early: usize = out.iter().map(|b| b.len()).sum();
        assert!(flushed_early > 0, "pressure must flush partials mid-stream");
        comb.finish(&mut out).unwrap();
        let partials: Vec<Record> = out
            .into_iter()
            .flat_map(crate::operators::take_records)
            .collect();
        // More than one partial per key (the flushes split the fold), but
        // every input record is represented exactly once in the fold sum.
        assert!(partials.len() > 3, "{} partials", partials.len());
        let total: i64 = partials.iter().map(|p| p.field(1).as_int().unwrap()).sum();
        assert_eq!(total, 30, "flush fragments must partition the fold");
        // Hadoop-style: the combiner never touches disk.
        assert_eq!(stats.totals().spill_runs, 0);
        assert_eq!(gov.spill_dir_path(), None);
        // Accounting balances: 30 in, every emitted partial counted.
        assert_eq!(preagg(&stats), (30, partials.len() as u64));
        // No UDF ran in the combiner role.
        assert_eq!(stats.totals().udf_calls, 0);
    }

    #[test]
    fn null_and_mixed_keys_group_exactly() {
        // Null keys group together (SQL GROUP BY flavour); the fold's
        // null-absorption matches the UDF's interpreter semantics.
        let plan = agg_plan();
        let mut input = wide(&plan, &[(0, 3), (1, 2), (0, 4)]);
        input[0].set_field(0, Value::Null);
        input[2].set_field(0, Value::Null);
        let input = [input];
        for (layout, chunk) in sweep(3) {
            let (stats, gov) = fresh();
            // The combiner folds the two null-keyed rows into one partial.
            let comb = ctx(&plan, &stats, &gov);
            let partials = apply_built(build_combiner, &input, chunk, layout, comb).unwrap();
            let keys: Vec<&Value> = partials.iter().map(|p| p.field(0)).collect();
            assert_eq!(keys, [&Value::Null, &Value::Int(1)], "{layout:?} x {chunk}");
            assert_eq!(partials[0].field(1), &Value::Int(7));
        }
    }
}
