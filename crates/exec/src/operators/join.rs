//! The Match operator: equi-join by in-memory hash join, or by one
//! sort-merge walk over two governed `RunBuffer`s.

use super::{key_cmp, key_cmp2, key_has_null, key_hash, take_records, OpCtx, Operator};
use crate::engine::ExecError;
use crate::spill::{next_key_groups, RunBuffer};
use std::sync::Arc;
use strato_core::LocalStrategy;
use strato_ir::interp::Invocation;
use strato_record::hash::FxHashMap;
use strato_record::{Record, RecordBatch};

/// Blocking equi-join: buffers both sides as shared batches and joins at
/// `finish`. Null join keys match nothing (SQL flavour).
///
/// Arriving batches are buffered as-is — never deep-copied — which makes
/// a broadcast build side genuinely zero-copy per partition, and the hash
/// joins run over *borrowed* records.
///
/// Both sides register with the [`MemoryGovernor`]: under pressure each
/// side's uniquely held batches move into that side's null-dropping
/// `RunBuffer` and are shed as a key-sorted run. There is one sort-based
/// finish — move what is still buffered into the two run buffers and walk
/// their key-group streams in lock-step, pairing matching groups — serving
/// [`LocalStrategy::SortMergeJoin`] always and the hash strategies once
/// pressure shed anything. Pair order then differs from a hash join's probe
/// order, but the output *bag* — the engine's equivalence contract for
/// joins — is identical.
///
/// [`MemoryGovernor`]: crate::spill::MemoryGovernor
pub struct MatchOp {
    /// A hash join or `SortMergeJoin` (see [`super::build`]).
    strategy: LocalStrategy,
    ctx: OpCtx,
    /// Buffered batches per side, each with the bytes it was granted for
    /// (a shared broadcast batch is charged a per-holder share, see
    /// [`Operator::push`]).
    sides: [Vec<(Arc<RecordBatch>, u64)>; 2],
    /// Per side: what left `sides` for the sort-based finish.
    bufs: [RunBuffer; 2],
}

impl MatchOp {
    pub(crate) fn new(strategy: LocalStrategy, ctx: OpCtx) -> Self {
        let buf = |s: usize| RunBuffer::new(ctx.clone(), s, true);
        MatchOp {
            strategy,
            sides: [Vec::new(), Vec::new()],
            bufs: [buf(0), buf(1)],
            ctx,
        }
    }

    /// Moves one side's buffered batches — only the **uniquely held**
    /// ones when `unique_only` — into its run buffer.
    ///
    /// Batches still shared with other partitions (a broadcast build side)
    /// are not worth spilling: a deep copy on disk would free no memory —
    /// the allocation lives until every holder drops it — while
    /// multiplying disk writes by the fan-out. A kept batch becomes
    /// spillable once the other partitions release theirs.
    fn move_to_buffer(&mut self, side: usize, unique_only: bool) {
        for (b, charge) in std::mem::take(&mut self.sides[side]) {
            if unique_only && Arc::strong_count(&b) > 1 {
                self.sides[side].push((b, charge));
            } else {
                self.ctx.gov.release(charge);
                self.bufs[side].push(take_records(b));
            }
        }
    }

    /// The sort-based finish: lock-step walk over both sides' key-group
    /// streams, one UDF call per pair of each matching group.
    fn merge_join(&mut self, emitted: &mut Vec<Record>) -> Result<(), ExecError> {
        for side in 0..2 {
            self.move_to_buffer(side, false);
        }
        let op = self.ctx.op();
        let (kl, kr) = (&op.key_attrs[0], &op.key_attrs[1]);
        let [left, right] = &mut self.bufs;
        // Distinct input-0 keys, with nulls counted as one key (the
        // profiler's rule — the join itself dropped them on entry).
        let mut left_keys = left.saw_null_key() as u64;
        let (mut left, mut right) = (left.drain_groups()?, right.drain_groups()?);
        while let Some((lg, rg)) = next_key_groups(&mut left, kl, &mut right, kr)? {
            left_keys += lg.is_some() as u64;
            if let (Some(lg), Some(rg)) = (lg, rg) {
                for a in &lg {
                    for b in &rg {
                        self.ctx.call(Invocation::Pair(a, b), emitted)?;
                    }
                }
            }
        }
        if self.ctx.stats.detail() {
            self.ctx
                .stats
                .add_op_distinct_keys(self.ctx.op_id, left_keys);
        }
        Ok(())
    }
}

/// Hash join over borrowed records. `build_is_left` fixes which input is
/// the build side; probe order follows the probe side's arrival order.
/// Buckets verify key equality exactly, so hash collisions cannot produce
/// false matches.
fn hash_join(
    ctx: &OpCtx,
    left: &[&Record],
    right: &[&Record],
    build_is_left: bool,
    out: &mut Vec<Record>,
) -> Result<(), ExecError> {
    let op = ctx.op();
    let (kl, kr) = (&op.key_attrs[0], &op.key_attrs[1]);
    let (build, probe, kb, kp) = if build_is_left {
        (left, right, kl, kr)
    } else {
        (right, left, kr, kl)
    };
    let mut table: FxHashMap<u64, Vec<&Record>> = FxHashMap::default();
    for &r in build {
        if !key_has_null(r, kb) {
            table.entry(key_hash(r, kb)).or_default().push(r);
        }
    }
    for &p in probe {
        if key_has_null(p, kp) {
            continue;
        }
        if let Some(bucket) = table.get(&key_hash(p, kp)) {
            for &b in bucket {
                if key_cmp2(b, kb, p, kp).is_eq() {
                    let (l, r) = if build_is_left { (b, p) } else { (p, b) };
                    ctx.call(Invocation::Pair(l, r), out)?;
                }
            }
        }
    }
    Ok(())
}

impl Operator for MatchOp {
    fn push(
        &mut self,
        port: usize,
        batch: Arc<RecordBatch>,
        _out: &mut Vec<Arc<RecordBatch>>,
    ) -> Result<(), ExecError> {
        // The join algorithms borrow `&Record`s from buffered batches, so
        // columnar input materializes to rows here (before the governor
        // charge — the normalized batch is the one buffered and spilled).
        let batch = super::rows_arc(batch);
        let mut charge = 0u64;
        if self.ctx.gov.bounded() {
            // A broadcast build side is one `Arc`-shared allocation held by
            // every partition: charge each holder its share rather than the
            // full size `dop` times, so a side that genuinely fits resident
            // memory once is not over-counted into spilling. `div_ceil`
            // keeps every non-empty batch's charge positive (truncation
            // would let high fan-outs register as zero bytes); the shares
            // then sum to at least one full charge. Forward/partition
            // batches are unshared and charge in full.
            let share = Arc::strong_count(&batch).max(1) as u64;
            charge = (batch.encoded_len() as u64).div_ceil(share);
            self.ctx.gov.grant(charge);
        }
        self.sides[port].push((batch, charge));
        if self.ctx.gov.over_budget() {
            for side in 0..2 {
                self.move_to_buffer(side, true);
                self.bufs[side].spill()?;
            }
        }
        Ok(())
    }

    fn finish(&mut self, out: &mut Vec<Arc<RecordBatch>>) -> Result<(), ExecError> {
        let mut emitted = Vec::new();
        // A buffer that was fed holds part of its side, even when every
        // record it was handed had a null key and nothing reached disk.
        let fed = |b: &RunBuffer| b.spilled() || b.saw_null_key();
        if self.strategy == LocalStrategy::SortMergeJoin || self.bufs.iter().any(fed) {
            self.merge_join(&mut emitted)?;
            self.ctx.emit(emitted, out);
            return Ok(());
        }
        let left: Vec<&Record> = self.sides[0].iter().flat_map(|(b, _)| b.iter()).collect();
        let right: Vec<&Record> = self.sides[1].iter().flat_map(|(b, _)| b.iter()).collect();
        if self.ctx.stats.detail() {
            // Profiling observation: distinct input-0 keys (nulls count as
            // one key, matching the runtime profiler's historic rule —
            // unlike the join itself, which drops null keys).
            let kl = &self.ctx.op().key_attrs[0];
            let mut refs = left.clone();
            refs.sort_unstable_by(|a, b| key_cmp(a, b, kl));
            refs.dedup_by(|a, b| key_cmp(a, b, kl).is_eq());
            let n = refs.len() as u64;
            self.ctx.stats.add_op_distinct_keys(self.ctx.op_id, n);
        }
        let build_is_left = self.strategy == LocalStrategy::HashJoinBuildLeft;
        hash_join(&self.ctx, &left, &right, build_is_left, &mut emitted)?;
        let charged = self.sides.iter_mut().flat_map(|s| s.drain(..));
        self.ctx
            .gov
            .release(charged.map(|(_, charge)| charge).sum());
        self.ctx.emit(emitted, out);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operators::{apply_chunked, take_records, BatchLayout};
    use crate::spill::MemoryGovernor;
    use crate::stats::ExecStats;
    use crate::testutil::ctx;
    use strato_dataflow::{CostHints, Plan, ProgramBuilder, SourceDef};
    use strato_ir::{FuncBuilder, UdfKind};
    use strato_record::{DataSet, Value};

    fn join_plan() -> Plan {
        let mut b = FuncBuilder::new("join", UdfKind::Pair, vec![2, 1]);
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
        let build_left = LocalStrategy::HashJoinBuildLeft;

        let (s_ref, g_ref) = (
            Arc::new(ExecStats::new()),
            Arc::new(MemoryGovernor::unbounded()),
        );
        let reference = apply_chunked(
            build_left,
            &sides,
            8,
            BatchLayout::Rows,
            ctx(&plan, &s_ref, &g_ref),
        )
        .unwrap();

        // One record per batch under a 32-byte budget: the operator spills
        // both sides and joins by the sort-merge walk.
        let stats = Arc::new(ExecStats::with_ops(1));
        let gov = Arc::new(MemoryGovernor::with_budget(Some(32)));
        let got = apply_chunked(
            build_left,
            &sides,
            1,
            BatchLayout::Rows,
            ctx(&plan, &stats, &gov),
        )
        .unwrap();
        assert_eq!(
            DataSet::from_records(got),
            DataSet::from_records(reference),
            "the sort-merge walk must reproduce the hash-join bag"
        );
        assert!(stats.totals().spill_runs > 0, "tiny budget must spill");
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
            LocalStrategy::SortMergeJoin,
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
        let mut join = MatchOp::new(LocalStrategy::HashJoinBuildLeft, ctx(&plan, &stats, &gov));
        join.open().unwrap();
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
