//! The Reduce operator: hash grouping over one governed `RunBuffer` that
//! holds the batches Reduce is pushed, as they arrived.
//!
//! The hash finish groups those batches in place: it hashes each batch's
//! key in one pass (`key_hash_into`), buckets and canonically sorts *row
//! views*, and hands each group to the interpreter as
//! views — a record materializes only where the UDF copies one (one per
//! group for a first-of-group UDF). A spill writes its run from row views
//! too; a Reduce that spilled finishes by the sort-based walk.
//!
//! When SCA proves the UDF **first-record-only**
//! (`LocalProps::first_record_only`: it reads nothing past its group's
//! first record and never the group's size), the hash finish sorts
//! nothing: the same hashing pass (`key_minima`) keeps each key's
//! canonical minimum row, and the UDF is called with that one-row group —
//! which it cannot tell apart from the sorted group. The buffer's spills
//! and its in-memory tail select rows with the same scan, one row per key,
//! so the sort-based finish merges only those, and the first record of
//! every merged group is still the global minimum.

use super::{for_each_hashed, key_minima, MinimaScratch, OpCtx, Operator};
use crate::engine::ExecError;
use crate::spill::RunBuffer;
use std::sync::Arc;
use strato_ir::interp::Invocation;
use strato_record::hash::FxHashMap;
use strato_record::{sort_canonical, RecordBatch, RowRef};

/// Blocking Reduce: buffers its input, forms key groups at `finish`, and
/// invokes the UDF once per group.
///
/// The input lives in a `RunBuffer`, which sheds it to canonically sorted
/// on-disk runs under memory pressure. A Reduce that never spilled groups
/// the held batches through a hash table of row views — or, for a
/// first-record-only UDF, keeps only each key's minimum row. One that
/// spilled takes the sort-based finish: walk the buffer's key groups,
/// merged from its runs and the in-memory tail.
///
/// Both present each group in canonical `(key, record)` order and emit
/// groups in ascending key order — 64-bit key-hash collisions on the hash
/// path are broken by a full key comparison — so the output sequence is a
/// pure function of the input bag regardless of finish, batch layout,
/// partitioning, batch boundaries or memory budget.
pub struct ReduceOp {
    ctx: OpCtx,
    /// The grouping key as plain column indices (the row-view kernels'
    /// form of `key_attrs[0]`).
    key: Vec<usize>,
    buf: RunBuffer,
}

impl ReduceOp {
    pub(crate) fn new(ctx: OpCtx) -> Self {
        let first_only = ctx.op().sca_props.first_record_only;
        ReduceOp {
            key: ctx.op().key_attrs[0].iter().map(|k| k.index()).collect(),
            buf: RunBuffer::new(ctx.clone(), 0, false).with_first_per_key(first_only),
            ctx,
        }
    }

    /// In-memory hash grouping of the rows of `batches`; returns the
    /// number of groups.
    fn hash_groups(&mut self, batches: &[Arc<RecordBatch>]) -> Result<u64, ExecError> {
        let key = &self.key;
        let (minima, mut buckets): (Vec<RowRef<'_>>, _);
        let mut groups: Vec<&[RowRef<'_>]> = if self.ctx.op().sca_props.first_record_only {
            let held: Vec<&RecordBatch> = batches.iter().map(|b| &**b).collect();
            let mut at = Vec::new();
            key_minima(&held, key, &mut MinimaScratch::default(), &mut at);
            minima = at.iter().map(|&(b, r)| held[b].row(r)).collect();
            minima.iter().map(std::slice::from_ref).collect()
        } else {
            // Bucket every row's view by key hash and sort each bucket
            // canonically: rows of one key end up contiguous (hash
            // collisions merely share a bucket and are split into separate
            // key groups below).
            let mut table: FxHashMap<u64, Vec<RowRef<'_>>> = FxHashMap::default();
            for_each_hashed(batches.iter().map(|b| &**b), key, |h, row| {
                table.entry(h).or_default().push(row)
            });
            buckets = table.into_values().collect::<Vec<_>>();
            for b in &mut buckets {
                sort_canonical(b, key);
            }
            // Split every bucket into its key groups *before* choosing an
            // emission order, then order the groups by a full key
            // comparison. Ordering whole buckets by their first row would
            // interleave wrongly under a 64-bit hash collision (a bucket
            // holding keys {1, 5} sorts once as a unit and emits 1, 5 ahead
            // of another bucket's 3). The common collision-free bucket is
            // one group.
            let mut groups = Vec::with_capacity(buckets.len());
            for b in &buckets {
                let mut rest = &b[..];
                while let Some(first) = rest.first() {
                    let n = rest.partition_point(|r| r.key_cmp(first, key).is_eq());
                    let (group, tail) = rest.split_at(n);
                    groups.push(group);
                    rest = tail;
                }
            }
            groups
        };
        // Distinct keys per group, so comparing first rows on the key
        // alone is a total order: globally ascending — identical to the
        // sort-based walk's emission order.
        groups.sort_unstable_by(|a, b| a[0].key_cmp(&b[0], key));
        for g in &groups {
            self.ctx.call_out(Invocation::Group(g))?;
        }
        Ok(groups.len() as u64)
    }

    /// The finish: the hash grouping, or the sort-based walk once anything
    /// spilled.
    fn reduce(&mut self) -> Result<(), ExecError> {
        let mut groups = 0u64;
        if !self.buf.spilled() {
            let batches = self.buf.take_batches();
            groups += self.hash_groups(&batches)?;
            drop(batches);
            self.buf.release();
        } else {
            let mut stream = self.buf.drain_groups()?;
            while let Some(g) = stream.next_group()? {
                let views: Vec<RowRef<'_>> = g.iter().map(RowRef::from).collect();
                self.ctx.call_out(Invocation::Group(&views))?;
                groups += 1;
            }
        }
        if self.ctx.stats.detail() {
            // Groups == distinct input-0 keys for Reduce (nulls group).
            self.ctx.stats.add_op_distinct_keys(self.ctx.op_id, groups);
        }
        Ok(())
    }
}

impl Operator for ReduceOp {
    fn push(
        &mut self,
        port: usize,
        batch: Arc<RecordBatch>,
        _out: &mut Vec<RecordBatch>,
    ) -> Result<(), ExecError> {
        debug_assert_eq!(port, 0, "Reduce is unary");
        self.buf.push_batch(batch);
        if self.ctx.gov.over_budget() {
            self.buf.spill()?;
        }
        Ok(())
    }

    fn finish(&mut self, out: &mut Vec<RecordBatch>) -> Result<(), ExecError> {
        let reduced = self.reduce();
        self.ctx.drain_into(out);
        reduced
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operators::apply_chunked;
    use crate::spill::MemoryGovernor;
    use crate::stats::ExecStats;
    use crate::testutil::{batch, colliding_second_field, ctx};
    use strato_core::LocalStrategy;
    use strato_dataflow::{CostHints, Plan, ProgramBuilder, SourceDef};
    use strato_ir::{BinOp, FuncBuilder, Function, UdfKind};
    use strato_record::{DataSet, Record, Value};

    /// Sum of field 2, appended as field 3 (two-field grouping key).
    fn sum_appended() -> Function {
        let mut b = FuncBuilder::new("sum", UdfKind::Group, vec![3]);
        let acc = b.konst(0i64);
        let it = b.iter_open(0);
        let done = b.new_label();
        let head = b.new_label();
        b.place(head);
        let r = b.iter_next(it, done);
        let v = b.get(r, 2);
        b.bin_into(acc, BinOp::Add, acc, v);
        b.jump(head);
        b.place(done);
        let it2 = b.iter_open(0);
        let nil = b.new_label();
        let first = b.iter_next(it2, nil);
        let or = b.copy(first);
        b.set(or, 3, acc);
        b.emit(or);
        b.place(nil);
        b.ret();
        b.finish().unwrap()
    }

    #[test]
    fn hash_collision_does_not_perturb_emission_order() {
        // Regression: the hash path used to sort whole buckets by their
        // first record, so two keys sharing a 64-bit hash were emitted
        // adjacently even when a third key ordered between them — the
        // emission order diverged from the sort-based walk a spilled
        // Reduce takes. Engineer keys A = (1, 100) < B = (1, 101) <
        // C = (2, y) with hash(A) == hash(C) ≠ hash(B) and demand
        // identical output.
        let y = colliding_second_field(1, 100, 2);
        let mut p = ProgramBuilder::new();
        let s = p.source(SourceDef::new("s", &["k1", "k2", "v"], 16));
        let r = p.reduce("sum", &[0, 1], sum_appended(), CostHints::default(), s);
        let plan: Plan = p.finish(r).unwrap().bind().unwrap();
        let op = &plan.ctx.ops[0];
        let key = op.key_attrs[0].clone();

        let rec = |k1: i64, k2: i64, v: i64| {
            let ds: DataSet = [Record::from_values([
                Value::Int(k1),
                Value::Int(k2),
                Value::Int(v),
            ])]
            .into_iter()
            .collect();
            crate::testutil::widen(&ds, &plan.ctx.sources[0].attrs, plan.ctx.width())
                .pop()
                .unwrap()
        };
        let (a1, a2) = (rec(1, 100, 5), rec(1, 100, 6));
        let (b1, b2) = (rec(1, 101, 7), rec(1, 101, 8));
        let (c1, c2) = (rec(2, y, 9), rec(2, y, 10));
        // The engineered collision and its preconditions, through the
        // batch hash kernel the operators use.
        let key_idx: Vec<usize> = key.iter().map(|k| k.index()).collect();
        let rows = batch(&[a1.clone(), b1.clone(), c1.clone()], plan.ctx.width());
        let mut hashes = Vec::new();
        rows.key_hash_into(&key_idx, &mut hashes);
        assert_eq!(hashes[0], hashes[2], "A and C collide");
        assert_ne!(hashes[0], hashes[1]);
        let key_cmp = |a: &Record, b: &Record| RowRef::from(a).key_cmp(&b.into(), &key_idx);
        assert_ne!(key_cmp(&a1, &c1), std::cmp::Ordering::Equal);
        assert!(key_cmp(&a1, &b1).is_lt() && key_cmp(&b1, &c1).is_lt());

        let input = [vec![c1, b1, a2, a1, c2, b2]];
        let stats = Arc::new(ExecStats::with_ops(1));
        let hash = LocalStrategy::HashGroup;
        let run = |budget| {
            let gov = Arc::new(MemoryGovernor::with_budget(budget));
            apply_chunked(hash, &input, 2, ctx(&plan, &stats, &gov)).unwrap()
        };
        // A zero budget spills every batch: the sort-based walk.
        let reference = run(Some(0));
        assert!(stats.totals().spill_runs > 0);
        // Globally ascending by key: A (sum 11), B (15), C (19).
        let sums: Vec<i64> = reference
            .iter()
            .map(|r| r.field(3).as_int().unwrap())
            .collect();
        assert_eq!(sums, vec![11, 15, 19]);
        // Two rows per batch: A and C share a bucket across two batches.
        for budget in [None, Some(0)] {
            assert_eq!(
                run(budget),
                reference,
                "at {budget:?}: emission order must be a pure function of \
                 the input bag"
            );
        }
    }

    #[test]
    fn first_only_minima_split_hash_collisions() {
        // The min scan chains keys that share a 64-bit hash: A and C
        // collide, and each must keep its own minimum, emitted in key
        // order A < B < C, whatever the budget.
        let y = colliding_second_field(1, 100, 2);
        let mut b = FuncBuilder::new("first", UdfKind::Group, vec![3]);
        let it = b.iter_open(0);
        let nil = b.new_label();
        let first = b.iter_next(it, nil);
        let or = b.copy(first);
        b.emit(or);
        b.place(nil);
        b.ret();
        let mut p = ProgramBuilder::new();
        let s = p.source(SourceDef::new("s", &["k1", "k2", "v"], 16));
        let r = p.reduce(
            "first",
            &[0, 1],
            b.finish().unwrap(),
            CostHints::default(),
            s,
        );
        let plan: Plan = p.finish(r).unwrap().bind().unwrap();
        assert!(plan.ctx.ops[0].sca_props.first_record_only);
        let rec = |k2: i64, v: i64| {
            let k1 = if k2 == y { 2 } else { 1 };
            Record::from_values([Value::Int(k1), Value::Int(k2), Value::Int(v)])
        };
        let input = [vec![
            rec(y, 10),
            rec(101, 8),
            rec(100, 6),
            rec(y, 9),
            rec(100, 5),
            rec(101, 7),
        ]];
        let want = vec![rec(100, 5), rec(101, 7), rec(y, 9)];
        let stats = Arc::new(ExecStats::with_ops(1));
        for budget in [None, Some(64)] {
            let gov = Arc::new(MemoryGovernor::with_budget(budget));
            let hash = LocalStrategy::HashGroup;
            let got = apply_chunked(hash, &input, 2, ctx(&plan, &stats, &gov)).unwrap();
            assert_eq!(got, want, "under {budget:?}");
        }
    }

    #[test]
    fn tiny_budget_spills_and_reproduces_the_in_memory_output_exactly() {
        use crate::testutil::{sum_inplace, widen};

        let mut p = ProgramBuilder::new();
        let s = p.source(SourceDef::new("s", &["k", "v"], 64));
        let r = p.reduce("sum", &[0], sum_inplace(2, 1), CostHints::default(), s);
        let plan: Plan = p.finish(r).unwrap().bind().unwrap();
        let ds: DataSet = (0..48i64)
            .map(|i| Record::from_values([Value::Int(i % 5), Value::Int(i)]))
            .collect();
        let input = [widen(&ds, &plan.ctx.sources[0].attrs, plan.ctx.width())];

        // Reference: unbounded in-memory grouping.
        let ref_stats = Arc::new(ExecStats::new());
        let ref_gov = Arc::new(MemoryGovernor::with_budget(None));
        let hash = LocalStrategy::HashGroup;
        let reference = apply_chunked(hash, &input, 48, ctx(&plan, &ref_stats, &ref_gov)).unwrap();
        assert_eq!(ref_stats.totals().spill_runs, 0);

        // A 64-byte budget forces a spill on (nearly) every pushed batch;
        // feed one record per batch to maximize pressure events
        // (`apply_chunked` checks that each one sheds the buffer).
        let stats = Arc::new(ExecStats::with_ops(1));
        let gov = Arc::new(MemoryGovernor::with_budget(Some(64)));
        let got = apply_chunked(hash, &input, 1, ctx(&plan, &stats, &gov)).unwrap();
        assert_eq!(got, reference, "must spill transparently");
        let t = stats.totals();
        assert!(t.spill_runs > 1, "tiny budget must spill repeatedly: {t:?}");
        assert!(t.records_spilled > 0 && t.spilled_bytes > 0);
        let slot = &stats.op_snapshots()[0];
        assert_eq!(
            slot.spill_runs, t.spill_runs,
            "per-op slot mirrors the totals"
        );
    }
}
