//! The Reduce operator: hash or sort grouping over one governed
//! `RunBuffer`.

use super::{canonical_cmp, key_hash, run_len, take_records, OpCtx, Operator};
use crate::engine::ExecError;
use crate::spill::RunBuffer;
use std::sync::Arc;
use strato_core::LocalStrategy;
use strato_ir::interp::Invocation;
use strato_record::hash::FxHashMap;
use strato_record::{Record, RecordBatch};

/// Blocking Reduce: buffers its input, forms key groups at `finish`, and
/// invokes the UDF once per group.
///
/// The input lives in a `RunBuffer`, which sheds it to canonically sorted
/// on-disk runs under memory pressure. There is one sort-based finish —
/// walk the buffer's key groups, merged from however many runs exist
/// (none, for an execution that never spilled) — serving
/// [`LocalStrategy::SortGroup`] always and [`LocalStrategy::HashGroup`]
/// once anything spilled. `HashGroup` that never spilled groups through a
/// hash table instead.
///
/// Both present each group in canonical `(key, record)` order and emit
/// groups in ascending key order — 64-bit key-hash collisions on the hash
/// path are broken by a full key comparison — so the output sequence is a
/// pure function of the input bag regardless of local algorithm,
/// partitioning, batch boundaries or memory budget.
pub struct ReduceOp {
    /// `HashGroup` or `SortGroup` (see [`super::build`]).
    strategy: LocalStrategy,
    ctx: OpCtx,
    buf: RunBuffer,
}

impl ReduceOp {
    pub(crate) fn new(strategy: LocalStrategy, ctx: OpCtx) -> Self {
        ReduceOp {
            strategy,
            buf: RunBuffer::new(ctx.clone(), 0, false),
            ctx,
        }
    }

    /// In-memory hash grouping of `rows`; returns the number of groups.
    fn hash_groups(&self, rows: Vec<Record>, out: &mut Vec<Record>) -> Result<u64, ExecError> {
        let key = &self.ctx.op().key_attrs[0];
        // Bucket by key hash, then sort each bucket: records of one key
        // end up contiguous (hash collisions merely share a bucket and are
        // split into separate key groups below).
        let mut table: FxHashMap<u64, Vec<Record>> = FxHashMap::default();
        for r in rows {
            table.entry(key_hash(&r, key)).or_default().push(r);
        }
        // Split every bucket into its key groups *before* choosing an
        // emission order, then order the groups by a full key comparison.
        // Ordering whole buckets by their first record would interleave
        // wrongly under a 64-bit hash collision (a bucket holding keys
        // {1, 5} sorts once as a unit and emits 1, 5 ahead of another
        // bucket's 3). The common collision-free bucket moves through
        // unchanged.
        let mut key_groups: Vec<Vec<Record>> = Vec::with_capacity(table.len());
        for mut b in table.into_values() {
            b.sort_unstable_by(|a, x| canonical_cmp(a, x, key));
            let first_run = run_len(&b, 0, key);
            if first_run == b.len() {
                key_groups.push(b);
            } else {
                let mut i = 0;
                while i < b.len() {
                    let n = run_len(&b, i, key);
                    key_groups.push(b[i..i + n].to_vec());
                    i += n;
                }
            }
        }
        // Distinct keys per group, so comparing first records on the key
        // alone is a total order: globally ascending — identical to the
        // sort-based walk's emission order.
        key_groups.sort_unstable_by(|a, b| super::key_cmp(&a[0], &b[0], key));
        for g in &key_groups {
            self.ctx.call(Invocation::Group(g), out)?;
        }
        Ok(key_groups.len() as u64)
    }
}

impl Operator for ReduceOp {
    fn push(
        &mut self,
        port: usize,
        batch: Arc<RecordBatch>,
        _out: &mut Vec<Arc<RecordBatch>>,
    ) -> Result<(), ExecError> {
        debug_assert_eq!(port, 0, "Reduce is unary");
        self.buf.push(take_records(batch));
        if self.ctx.gov.over_budget() {
            self.buf.spill()?;
        }
        Ok(())
    }

    fn finish(&mut self, out: &mut Vec<Arc<RecordBatch>>) -> Result<(), ExecError> {
        let mut emitted = Vec::new();
        let mut groups = 0u64;
        if self.strategy == LocalStrategy::HashGroup && !self.buf.spilled() {
            let rows = self.buf.take_rows();
            groups += self.hash_groups(rows, &mut emitted)?;
            self.buf.release();
        } else {
            let mut stream = self.buf.drain_groups()?;
            while let Some(g) = stream.next_group()? {
                self.ctx.call(Invocation::Group(&g), &mut emitted)?;
                groups += 1;
            }
        }
        if self.ctx.stats.detail() {
            // Groups == distinct input-0 keys for Reduce (nulls group).
            self.ctx.stats.add_op_distinct_keys(self.ctx.op_id, groups);
        }
        self.ctx.emit(emitted, out);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operators::{apply_chunked, apply_single, key_cmp, key_hash};
    use crate::spill::MemoryGovernor;
    use crate::stats::ExecStats;
    use crate::testutil::ctx;
    use std::hash::Hasher;
    use strato_dataflow::{CostHints, Plan, ProgramBuilder, SourceDef};
    use strato_ir::{BinOp, FuncBuilder, Function, UdfKind};
    use strato_record::hash::FxHasher;
    use strato_record::{DataSet, Value};

    /// Engineers a second key pair `(b, y)` whose 64-bit key hash equals
    /// that of `(a, x)`. Each FxHash step is
    /// `state' = (rotl5(state) ^ word) * SEED` with an odd (invertible)
    /// SEED, so for fixed prefixes the final word is uniquely solvable:
    /// `y = x ^ rotl5(state_a) ^ rotl5(state_b)`.
    fn colliding_second_field(a: i64, x: i64, b: i64) -> i64 {
        let prefix = |k: i64| {
            let mut h = FxHasher::default();
            h.write_u8(2); // Value::Int type rank of the first key field
            h.write_i64(k);
            h.write_u8(2); // type rank of the second key field
            h.finish()
        };
        (x as u64 ^ prefix(a).rotate_left(5) ^ prefix(b).rotate_left(5)) as i64
    }

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
        // emission order diverged from the sort path. Engineer keys
        // A = (1, 100) < B = (1, 101) < C = (2, y) with
        // hash(A) == hash(C) ≠ hash(B) and demand identical output.
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
        // The engineered collision and its preconditions.
        assert_eq!(key_hash(&a1, &key), key_hash(&c1, &key), "A and C collide");
        assert_ne!(key_cmp(&a1, &c1, &key), std::cmp::Ordering::Equal);
        assert_ne!(key_hash(&a1, &key), key_hash(&b1, &key));
        assert!(key_cmp(&a1, &b1, &key).is_lt() && key_cmp(&b1, &c1, &key).is_lt());

        let input = vec![c1, b1, a2, a1, c2, b2];
        let stats = Arc::new(ExecStats::new());
        let gov = Arc::new(MemoryGovernor::unbounded());
        let make = || ctx(&plan, &stats, &gov);
        let hash = apply_single(LocalStrategy::HashGroup, vec![input.clone()], make()).unwrap();
        let sort = apply_single(LocalStrategy::SortGroup, vec![input], make()).unwrap();
        assert_eq!(
            hash, sort,
            "emission order must be a pure function of the input bag"
        );
        // Globally ascending by key: A (sum 11), B (15), C (19).
        let sums: Vec<i64> = hash.iter().map(|r| r.field(3).as_int().unwrap()).collect();
        assert_eq!(sums, vec![11, 15, 19]);
        assert_eq!(hash.len(), 3);
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
        let ref_gov = Arc::new(MemoryGovernor::unbounded());
        let hash = LocalStrategy::HashGroup;
        let reference = apply_chunked(hash, &input, 48, ctx(&plan, &ref_stats, &ref_gov)).unwrap();
        assert_eq!(ref_stats.totals().spill_runs, 0);

        for strategy in [LocalStrategy::HashGroup, LocalStrategy::SortGroup] {
            // A 64-byte budget forces a spill on (nearly) every pushed
            // batch; feed one record per batch to maximize pressure events
            // (`apply_chunked` checks that each one sheds the buffer).
            let stats = Arc::new(ExecStats::with_ops(1));
            let gov = Arc::new(MemoryGovernor::with_budget(Some(64)));
            let got = apply_chunked(strategy, &input, 1, ctx(&plan, &stats, &gov)).unwrap();
            assert_eq!(got, reference, "{strategy:?} must spill transparently");
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
}
