//! The Match operator: equi-join by in-memory hash join over the
//! batches it is sent, or by one sort-merge walk once pressure shed
//! anything; each side is one governed `RunBuffer`.

use super::{OpCtx, Operator};
use crate::engine::ExecError;
use crate::spill::{next_key_groups, RunBuffer};
use std::sync::Arc;
use strato_ir::interp::Invocation;
use strato_record::hash::FxHashMap;
use strato_record::{Record, RecordBatch, RowRef};

/// Blocking equi-join: buffers both sides and joins at `finish`. Null join
/// keys match nothing (SQL flavour).
///
/// Each side lives in a null-dropping `RunBuffer` that holds the batches
/// it is pushed as they arrived, in either layout and never deep-copied,
/// so a broadcast build side stays one allocation shared by every
/// partition. Under pressure each buffer sheds its uniquely held batches
/// as a key-sorted run. A join that never spilled hashes its build side
/// and probes it, reading the held batches in place as row views. Once
/// pressure shed anything it takes the sort-based finish instead — drain
/// both buffers and walk their key-group streams in lock-step, pairing
/// matching groups. Pair order then differs from the probe order, but the
/// output *bag* — the engine's equivalence contract for joins — is
/// identical.
pub struct MatchOp {
    /// The input the hash join builds on: 0 (left) or 1 (right).
    build: usize,
    ctx: OpCtx,
    /// Per side: the join key as plain column indices (the row-view
    /// kernels' form of `key_attrs`).
    keys: [Vec<usize>; 2],
    bufs: [RunBuffer; 2],
}

impl MatchOp {
    /// A join that builds on input `build` (see [`super::build`]).
    pub(crate) fn new(build: usize, ctx: OpCtx) -> Self {
        let key = |s: usize| ctx.op().key_attrs[s].iter().map(|k| k.index()).collect();
        let buf = |s: usize| RunBuffer::new(ctx.clone(), s, true);
        MatchOp {
            build,
            keys: [key(0), key(1)],
            bufs: [buf(0), buf(1)],
            ctx,
        }
    }

    /// The sort-based finish: lock-step walk over both sides' key-group
    /// streams, one UDF call per pair of each matching group.
    fn merge_join(&mut self, emitted: &mut Vec<Record>) -> Result<(), ExecError> {
        let plan = Arc::clone(&self.ctx.plan);
        let op = &plan.ops[self.ctx.op_id];
        let (kl, kr) = (&op.key_attrs[0], &op.key_attrs[1]);
        let mut left_keys = 0u64;
        {
            let [left, right] = &mut self.bufs;
            let (mut left, mut right) = (left.drain_groups()?, right.drain_groups()?);
            while let Some((lg, rg)) = next_key_groups(&mut left, kl, &mut right, kr)? {
                left_keys += lg.is_some() as u64;
                if let (Some(lg), Some(rg)) = (lg, rg) {
                    for a in &lg {
                        for b in &rg {
                            let pair = Invocation::Pair(RowRef::from(a), RowRef::from(b));
                            self.ctx.call(pair, emitted)?;
                        }
                    }
                }
            }
        }
        if self.ctx.stats.detail() {
            // Distinct input-0 keys, with nulls counted as one key (the
            // profiler's rule — the buffer dropped them).
            left_keys += self.bufs[0].saw_null_key() as u64;
            self.ctx
                .stats
                .add_op_distinct_keys(self.ctx.op_id, left_keys);
        }
        Ok(())
    }

    /// Hash join over row views of the held batches (`sides[s]` is input
    /// `s`). The build side is hashed in arrival order and probed in the
    /// probe side's arrival order. Buckets verify key equality exactly,
    /// so hash collisions cannot produce false matches.
    fn hash_join(
        &mut self,
        sides: &[Vec<Arc<RecordBatch>>; 2],
        out: &mut Vec<Record>,
    ) -> Result<(), ExecError> {
        if self.ctx.stats.detail() {
            // Profiling observation: distinct input-0 keys (nulls count as
            // one key, matching the runtime profiler's historic rule —
            // unlike the join itself, which drops null keys).
            let kl = &self.keys[0];
            let rows = sides[0].iter().flat_map(|b| (0..b.len()).map(|i| b.row(i)));
            let mut left: Vec<RowRef<'_>> = rows.collect();
            left.sort_unstable_by(|a, b| a.key_cmp(b, kl));
            left.dedup_by(|a, b| a.key_cmp(b, kl).is_eq());
            let n = left.len() as u64;
            self.ctx.stats.add_op_distinct_keys(self.ctx.op_id, n);
        }
        let (build, probe) = (self.build, 1 - self.build);
        let build_is_left = build == 0;
        let (kb, kp) = (&self.keys[build], &self.keys[probe]);
        let mut table: FxHashMap<u64, Vec<RowRef<'_>>> = FxHashMap::default();
        let mut hashes = Vec::new();
        for batch in &sides[build] {
            batch.key_hash_into(kb, &mut hashes);
            for (i, &h) in hashes.iter().enumerate() {
                let row = batch.row(i);
                if !row.key_has_null(kb) {
                    table.entry(h).or_default().push(row);
                }
            }
        }
        // No build row has a null key field, so a null-keyed probe row
        // equals none of them.
        for batch in &sides[probe] {
            batch.key_hash_into(kp, &mut hashes);
            for (i, h) in hashes.iter().enumerate() {
                let Some(bucket) = table.get(h) else {
                    continue;
                };
                let p = batch.row(i);
                for &b in bucket {
                    if b.key_cmp2(kb, &p, kp).is_eq() {
                        let (l, r) = if build_is_left { (b, p) } else { (p, b) };
                        self.ctx.call(Invocation::Pair(l, r), out)?;
                    }
                }
            }
        }
        Ok(())
    }

    /// The finish: the hash join, or the sort-merge walk once pressure
    /// shed anything, then the emission.
    fn join(&mut self, out: &mut Vec<Arc<RecordBatch>>) -> Result<(), ExecError> {
        let mut emitted = Vec::new();
        // A buffer that shed anything holds part of its side, even when
        // every row it shed had a null key and nothing reached disk.
        let shed = |b: &RunBuffer| b.spilled() || b.saw_null_key();
        if self.bufs.iter().any(shed) {
            self.merge_join(&mut emitted)?;
        } else {
            let [left, right] = &mut self.bufs;
            let sides = [left.take_batches(), right.take_batches()];
            self.hash_join(&sides, &mut emitted)?;
            drop(sides);
            for buf in &mut self.bufs {
                buf.release();
            }
        }
        self.ctx.emit(emitted, out);
        Ok(())
    }
}

impl Operator for MatchOp {
    fn push(
        &mut self,
        port: usize,
        batch: Arc<RecordBatch>,
        _out: &mut Vec<Arc<RecordBatch>>,
    ) -> Result<(), ExecError> {
        self.bufs[port].push_batch(batch);
        if self.ctx.gov.over_budget() {
            for buf in &mut self.bufs {
                buf.spill()?;
            }
        }
        Ok(())
    }

    fn finish(&mut self, out: &mut Vec<Arc<RecordBatch>>) -> Result<(), ExecError> {
        let joined = self.join(out);
        self.ctx.flush_calls();
        joined
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operators::{apply_chunked, take_records, BatchLayout};
    use crate::spill::MemoryGovernor;
    use crate::stats::ExecStats;
    use crate::testutil::ctx;
    use strato_core::LocalStrategy;
    use strato_dataflow::{CostHints, Plan, ProgramBuilder, SourceDef};
    use strato_ir::{FuncBuilder, Intrinsic, UdfKind};
    use strato_record::{DataSet, Value};

    /// `l(k, v) ⋈ r(k2)` on `k = k2`, concatenating each pair.
    fn join_plan() -> Plan {
        join_plan_with(|_| {})
    }

    /// [`join_plan`] with `before` run at the top of the Pair UDF.
    fn join_plan_with(before: impl FnOnce(&mut FuncBuilder)) -> Plan {
        let mut b = FuncBuilder::new("join", UdfKind::Pair, vec![2, 1]);
        before(&mut b);
        let or = b.concat_inputs();
        b.emit(or);
        b.ret();
        let udf = b.finish().unwrap();
        let mut p = ProgramBuilder::new();
        let l = p.source(SourceDef::new("l", &["k", "v"], 16));
        let r = p.source(SourceDef::new("r", &["k2"], 8));
        let j = p.match_("j", &[0], &[0], udf, CostHints::default(), l, r);
        p.finish(j).unwrap().bind().unwrap()
    }

    fn wide(plan: &Plan, src: usize, rows: &[&[i64]]) -> Vec<Record> {
        let ds: DataSet = rows
            .iter()
            .map(|r| Record::from_values(r.iter().map(|&v| Value::Int(v))))
            .collect();
        crate::testutil::widen(&ds, &plan.ctx.sources[src].attrs, plan.ctx.width())
    }

    #[test]
    fn starved_join_spills_and_matches_the_in_memory_result_bag() {
        let plan = join_plan();
        let left: &[&[i64]] = &[&[1, 10], &[2, 20], &[2, 21], &[3, 30], &[5, 50]];
        let sides = [
            wide(&plan, 0, left),
            wide(&plan, 1, &[&[2], &[2], &[3], &[7]]),
        ];
        let run = |strategy, chunk, layout, budget| {
            let stats = Arc::new(ExecStats::with_ops(1));
            let gov = Arc::new(MemoryGovernor::with_budget(budget));
            let out = apply_chunked(strategy, &sides, chunk, layout, ctx(&plan, &stats, &gov));
            (out.unwrap(), stats.totals().spill_runs)
        };
        let (reference, _) = run(LocalStrategy::HashJoinBuildLeft, 8, BatchLayout::Rows, None);
        assert_eq!(reference.len(), 5, "2 × 2 pairs on key 2, one on key 3");
        let reference = DataSet::from_records(reference);

        for strategy in [
            LocalStrategy::HashJoinBuildLeft,
            LocalStrategy::HashJoinBuildRight,
        ] {
            let (in_rows, _) = run(strategy, 2, BatchLayout::Rows, None);
            for layout in BatchLayout::ALL {
                // In memory, each strategy emits one sequence whatever the
                // layout it is sent.
                let (got, spills) = run(strategy, 2, layout, None);
                assert_eq!(got, in_rows, "{strategy:?} over {layout:?}");
                assert_eq!(spills, 0);
                // One record per batch under a 32-byte budget: the
                // operator spills both sides and joins by the sort-merge
                // walk.
                let (got, spills) = run(strategy, 1, layout, Some(32));
                assert_eq!(
                    DataSet::from_records(got),
                    reference,
                    "{strategy:?} over {layout:?}: the sort-merge walk must \
                     reproduce the hash-join bag"
                );
                assert!(spills > 0, "tiny budget must spill");
            }
        }
    }

    #[test]
    fn a_failed_join_returns_its_own_grant() {
        // The Pair UDF aborts in `finish`, after both sides were buffered
        // under a bounded governor. Dropping the failed operator must
        // return every byte it was granted while the governor lives on.
        let plan = join_plan_with(|b| {
            let v = b.get_input(0, 1);
            b.call(Intrinsic::AbortIf, vec![v]);
        });
        let left = wide(&plan, 0, &[&[2, 20], &[3, 30]]);
        let right = wide(&plan, 1, &[&[2], &[3]]);
        for build in [0, 1] {
            let stats = Arc::new(ExecStats::with_ops(1));
            let gov = Arc::new(MemoryGovernor::with_budget(Some(1 << 20)));
            let mut join = MatchOp::new(build, ctx(&plan, &stats, &gov));
            let mut out = Vec::new();
            for (port, rows) in [&left, &right].into_iter().enumerate() {
                let batch = Arc::new(RecordBatch::from_records(rows.clone()));
                join.push(port, batch, &mut out).unwrap();
            }
            assert!(gov.resident() > 0, "both sides are charged");
            let prev = std::panic::take_hook();
            std::panic::set_hook(Box::new(|_| {}));
            let finished =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| join.finish(&mut out)));
            std::panic::set_hook(prev);
            assert!(finished.is_err(), "build {build}: abort_if must trip");
            drop(join);
            assert_eq!(gov.resident(), 0, "build {build} kept a grant");
        }
    }

    #[test]
    fn null_keys_shed_under_pressure_still_count_as_one_distinct_key() {
        // Every left batch shed under pressure is all-null: the buffer
        // drops the records, writes no run, and must still tell the
        // profiler that a null key went by.
        let plan = join_plan();
        let mut sides = [wide(&plan, 0, &[&[0, 40], &[0, 41]]), Vec::new()];
        for r in &mut sides[0] {
            r.set_field(0, Value::Null);
        }
        for strategy in [
            LocalStrategy::HashJoinBuildLeft,
            LocalStrategy::HashJoinBuildRight,
        ] {
            for budget in [None, Some(0)] {
                let stats = Arc::new(ExecStats::for_profiling(1));
                let gov = Arc::new(MemoryGovernor::with_budget(budget));
                let out = apply_chunked(
                    strategy,
                    &sides,
                    2,
                    BatchLayout::Rows,
                    ctx(&plan, &stats, &gov),
                )
                .unwrap();
                assert!(out.is_empty(), "null keys match nothing");
                assert_eq!(stats.totals().spill_runs, 0, "nothing to write");
                let keys = stats.op_snapshots()[0].distinct_keys;
                assert_eq!(keys, 1, "{strategy:?} at {budget:?}");
            }
        }
    }

    #[test]
    fn shared_batches_are_kept_resident_not_deep_copied_to_disk() {
        // Spilling an `Arc`-shared (broadcast) batch frees no memory — the
        // allocation lives until every holder drops it — so under pressure
        // only uniquely held batches go to disk.
        let plan = join_plan();
        let left = wide(&plan, 0, &[&[2, 20], &[3, 30]]);
        let right = wide(&plan, 1, &[&[2], &[3]]);

        let stats = Arc::new(ExecStats::with_ops(1));
        let gov = Arc::new(MemoryGovernor::with_budget(Some(1)));
        let mut join = MatchOp::new(0, ctx(&plan, &stats, &gov));
        let mut out = Vec::new();
        // The "broadcast" build side: a clone is kept alive, as the other
        // partitions of a broadcast ship would.
        let shared = Arc::new(RecordBatch::from_records(right));
        let other_partition = Arc::clone(&shared);
        join.push(1, shared, &mut out).unwrap();
        let spilled_after_shared = stats.totals().spill_runs;
        assert_eq!(
            spilled_after_shared, 0,
            "a shared batch must not be deep-copied to disk"
        );
        // The unshared probe side spills even though the build side stays.
        join.push(0, Arc::new(RecordBatch::from_records(left)), &mut out)
            .unwrap();
        assert!(stats.totals().spill_runs > 0, "unique batches must spill");
        join.finish(&mut out).unwrap();
        let got: Vec<Record> = out.into_iter().flat_map(take_records).collect();
        assert_eq!(got.len(), 2, "both keys match once");
        drop(other_partition);
        assert_eq!(gov.resident(), 0, "grants released at finish");
    }
}
