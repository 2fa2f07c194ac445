//! The Reduce operator: hash or sort grouping, spilling to sorted runs
//! under memory pressure.

use super::{canonical_cmp, key_hash, records_bytes, run_len, take_records, OpCtx, Operator};
use crate::engine::ExecError;
use crate::spill::merge::external_group_stream;
use crate::spill::SortedRun;
use std::sync::Arc;
use strato_core::LocalStrategy;
use strato_dataflow::BoundOp;
use strato_ir::interp::Invocation;
use strato_record::hash::FxHashMap;
use strato_record::{Record, RecordBatch};

/// Blocking Reduce: buffers its input, forms key groups at `finish` with
/// the chosen local algorithm, and invokes the UDF once per group.
///
/// Both algorithms present each group in canonical `(key, record)` order
/// and emit groups in ascending key order — 64-bit key-hash collisions on
/// the hash path are broken by a full key comparison — so the output
/// sequence is a pure function of the input bag regardless of local
/// algorithm, partitioning or batch boundaries.
///
/// The buffer is registered with the execution's [`MemoryGovernor`]: under
/// memory pressure it is sorted canonically and written as one on-disk
/// run; `finish` then k-way-merges the runs with the in-memory tail and
/// walks key groups off the merged stream — same canonical order, so
/// spilling never changes the output, only where the bytes live.
///
/// [`MemoryGovernor`]: crate::spill::MemoryGovernor
pub struct ReduceOp<'a> {
    op: &'a BoundOp,
    strategy: LocalStrategy,
    ctx: OpCtx<'a>,
    buffered: Vec<Record>,
    /// `encoded_len` of `buffered`, as granted to the governor.
    buffered_bytes: u64,
    /// Sorted runs written under memory pressure (usually empty).
    runs: Vec<SortedRun>,
}

impl<'a> ReduceOp<'a> {
    pub(crate) fn new(op: &'a BoundOp, strategy: LocalStrategy, ctx: OpCtx<'a>) -> Self {
        ReduceOp {
            op,
            strategy,
            ctx,
            buffered: Vec::new(),
            buffered_bytes: 0,
            runs: Vec::new(),
        }
    }

    /// Walks contiguous key runs of a sorted slice, invoking the UDF per
    /// group. Returns the number of groups walked.
    fn call_groups(&self, recs: &[Record], out: &mut Vec<Record>) -> Result<u64, ExecError> {
        let key = &self.op.key_attrs[0];
        let mut i = 0;
        let mut groups = 0u64;
        while i < recs.len() {
            let n = run_len(recs, i, key);
            self.ctx
                .call(self.op, Invocation::Group(&recs[i..i + n]), out)?;
            i += n;
            groups += 1;
        }
        Ok(groups)
    }

    /// Sheds the whole buffer to one canonically sorted on-disk run.
    fn spill(&mut self) -> Result<(), ExecError> {
        let key = &self.op.key_attrs[0];
        self.buffered
            .sort_unstable_by(|a, b| canonical_cmp(a, b, key));
        let run = self.ctx.gov.write_sorted_run(&self.buffered)?;
        self.ctx
            .stats
            .add_spill(self.ctx.op_id, run.records(), run.bytes());
        self.runs.push(run);
        self.buffered.clear();
        self.ctx.gov.release(self.buffered_bytes);
        self.buffered_bytes = 0;
        Ok(())
    }

    /// Out-of-core grouping: merge the on-disk runs with the sorted
    /// in-memory tail and invoke the UDF per merged key group. Emission
    /// order is the same ascending canonical order as both in-memory
    /// algorithms.
    fn finish_external(&mut self, emitted: &mut Vec<Record>) -> Result<u64, ExecError> {
        let key = &self.op.key_attrs[0];
        let tail = std::mem::take(&mut self.buffered);
        self.ctx.gov.release(self.buffered_bytes);
        self.buffered_bytes = 0;
        let mut groups =
            external_group_stream(self.ctx.gov, std::mem::take(&mut self.runs), tail, key)?;
        let mut n = 0u64;
        while let Some(g) = groups.next_group()? {
            self.ctx.call(self.op, Invocation::Group(&g), emitted)?;
            n += 1;
        }
        Ok(n)
    }
}

impl Operator for ReduceOp<'_> {
    fn push(
        &mut self,
        port: usize,
        batch: Arc<RecordBatch>,
        _out: &mut Vec<Arc<RecordBatch>>,
    ) -> Result<(), ExecError> {
        debug_assert_eq!(port, 0, "Reduce is unary");
        let start = self.buffered.len();
        self.buffered.extend(take_records(batch));
        if self.ctx.gov.bounded() {
            let bytes = records_bytes(&self.buffered[start..]);
            self.buffered_bytes += bytes;
            self.ctx.gov.grant(bytes);
            if self.ctx.gov.over_budget() && !self.buffered.is_empty() {
                self.spill()?;
            }
        }
        Ok(())
    }

    fn finish(&mut self, out: &mut Vec<Arc<RecordBatch>>) -> Result<(), ExecError> {
        let key = &self.op.key_attrs[0];
        let mut emitted = Vec::new();
        let mut groups = 0u64;
        if !self.runs.is_empty() {
            groups += self.finish_external(&mut emitted)?;
            if self.ctx.stats.detail() {
                self.ctx.stats.add_op_distinct_keys(self.ctx.op_id, groups);
            }
            self.ctx.emit(emitted, out);
            return Ok(());
        }
        match self.strategy {
            LocalStrategy::SortGroup => {
                // One global sort; groups are the contiguous key runs.
                let mut recs = std::mem::take(&mut self.buffered);
                recs.sort_unstable_by(|a, b| canonical_cmp(a, b, key));
                groups += self.call_groups(&recs, &mut emitted)?;
            }
            // HashGroup, and the default for `Pipe`.
            _ => {
                // Bucket by key hash, then sort each bucket: records of one
                // key end up contiguous (hash collisions merely share a
                // bucket and are split into separate key groups below).
                let mut table: FxHashMap<u64, Vec<Record>> = FxHashMap::default();
                for r in self.buffered.drain(..) {
                    table.entry(key_hash(&r, key)).or_default().push(r);
                }
                // Split every bucket into its key groups *before* choosing
                // an emission order, then order the groups by a full key
                // comparison. Ordering whole buckets by their first record
                // would interleave wrongly under a 64-bit hash collision
                // (a bucket holding keys {1, 5} sorts once as a unit and
                // emits 1, 5 ahead of another bucket's 3). The common
                // collision-free bucket moves through unchanged.
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
                // Distinct keys per group, so comparing first records on
                // the key alone is a total order: globally ascending —
                // identical to the sort path's emission order.
                key_groups.sort_unstable_by(|a, b| super::key_cmp(&a[0], &b[0], key));
                for g in &key_groups {
                    groups += self.call_groups(g, &mut emitted)?;
                }
            }
        }
        if self.ctx.stats.detail() {
            // Groups == distinct input-0 keys for Reduce (nulls group).
            self.ctx.stats.add_op_distinct_keys(self.ctx.op_id, groups);
        }
        self.ctx.gov.release(self.buffered_bytes);
        self.buffered_bytes = 0;
        self.ctx.emit(emitted, out);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operators::{apply_single, key_cmp, key_hash, OpCtx};
    use crate::spill::MemoryGovernor;
    use crate::stats::ExecStats;
    use std::hash::Hasher;
    use strato_dataflow::{CostHints, Plan, ProgramBuilder, SourceDef};
    use strato_ir::interp::Interp;
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
        let stats = ExecStats::new();
        let gov = MemoryGovernor::unbounded();
        let ctx = || OpCtx {
            interp: Interp::default(),
            stats: &stats,
            gov: &gov,
            batch_size: 64,
            op_id: 0,
        };
        let hash = apply_single(op, LocalStrategy::HashGroup, vec![input.clone()], ctx()).unwrap();
        let sort = apply_single(op, LocalStrategy::SortGroup, vec![input], ctx()).unwrap();
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
        use crate::operators::{take_records, Operator};
        use crate::testutil::sum_inplace;
        use strato_dataflow::{CostHints, Plan, ProgramBuilder, SourceDef};

        let mut p = ProgramBuilder::new();
        let s = p.source(SourceDef::new("s", &["k", "v"], 64));
        let r = p.reduce("sum", &[0], sum_inplace(2, 1), CostHints::default(), s);
        let plan: Plan = p.finish(r).unwrap().bind().unwrap();
        let op = &plan.ctx.ops[0];
        let ds: DataSet = (0..48i64)
            .map(|i| Record::from_values([Value::Int(i % 5), Value::Int(i)]))
            .collect();
        let input = crate::testutil::widen(&ds, &plan.ctx.sources[0].attrs, plan.ctx.width());

        // Reference: unbounded in-memory grouping.
        let ref_stats = ExecStats::new();
        let ref_gov = MemoryGovernor::unbounded();
        let reference = apply_single(
            op,
            LocalStrategy::HashGroup,
            vec![input.clone()],
            OpCtx {
                interp: Interp::default(),
                stats: &ref_stats,
                gov: &ref_gov,
                batch_size: 64,
                op_id: 0,
            },
        )
        .unwrap();
        assert_eq!(ref_stats.spill_snapshot(), (0, 0, 0));

        for strategy in [LocalStrategy::HashGroup, LocalStrategy::SortGroup] {
            // A 64-byte budget forces a spill on (nearly) every pushed
            // batch; feed one record per batch to maximize pressure events.
            let stats = ExecStats::with_ops(1);
            let gov = MemoryGovernor::with_budget(Some(64));
            let ctx = OpCtx {
                interp: Interp::default(),
                stats: &stats,
                gov: &gov,
                batch_size: 64,
                op_id: 0,
            };
            let mut oper = ReduceOp::new(op, strategy, ctx);
            oper.open().unwrap();
            let mut out = Vec::new();
            let mut max_resident = 0u64;
            for r in input.clone() {
                let batch_bytes = r.encoded_len() as u64;
                oper.push(0, Arc::new(RecordBatch::from_records(vec![r])), &mut out)
                    .unwrap();
                max_resident = max_resident.max(gov.resident());
                // Within one batch of slack: pressure sheds the buffer.
                assert!(gov.resident() <= 64 + batch_bytes);
            }
            oper.finish(&mut out).unwrap();
            let got: Vec<Record> = out.into_iter().flat_map(take_records).collect();
            assert_eq!(got, reference, "{strategy:?} must spill transparently");
            let (rec_spilled, bytes_spilled, runs) = stats.spill_snapshot();
            assert!(runs > 1, "tiny budget must spill repeatedly: {runs}");
            assert!(rec_spilled > 0 && bytes_spilled > 0);
            assert_eq!(gov.resident(), 0, "all grants released at finish");
            let slot = &stats.op_snapshots()[0];
            assert_eq!(slot.spill_runs, runs, "per-op slot mirrors the totals");
        }
    }
}
