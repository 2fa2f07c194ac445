//! The Match operator: equi-join with hash or sort-merge algorithms,
//! degrading to external sort-merge under memory pressure.

use super::{
    canonical_cmp, key_cmp, key_cmp2, key_has_null, key_hash, take_records, OpCtx, Operator,
};
use crate::engine::ExecError;
use crate::spill::merge::external_group_stream;
use crate::spill::SortedRun;
use std::cmp::Ordering;
use std::sync::Arc;
use strato_core::LocalStrategy;
use strato_dataflow::BoundOp;
use strato_ir::interp::Invocation;
use strato_record::hash::FxHashMap;
use strato_record::{Record, RecordBatch};

/// Blocking equi-join: buffers both sides as shared batches and joins at
/// `finish`. Null join keys match nothing (SQL flavour).
///
/// All algorithms operate on *borrowed* records — buffered batches are
/// never deep-copied, which makes a broadcast build side genuinely
/// zero-copy per partition.
///
/// Both sides register with the [`MemoryGovernor`]: under pressure each
/// buffered side is written out as a key-sorted run (null-keyed records
/// are dropped at spill time — they can never match) and, once anything
/// spilled, `finish` joins by **external sort-merge** regardless of the
/// requested in-memory algorithm. Pair order then differs from a hash
/// join's probe order, but the output *bag* — the engine's equivalence
/// contract for joins — is identical.
///
/// [`MemoryGovernor`]: crate::spill::MemoryGovernor
pub struct MatchOp<'a> {
    op: &'a BoundOp,
    strategy: LocalStrategy,
    ctx: OpCtx<'a>,
    /// Buffered batches per side, each with the bytes it was granted for
    /// (a shared broadcast batch is charged a per-holder share, see
    /// [`Operator::push`]).
    sides: [Vec<(Arc<RecordBatch>, u64)>; 2],
    /// Total governor-granted bytes per buffered side.
    side_bytes: [u64; 2],
    /// Key-sorted runs spilled per side (usually empty).
    runs: [Vec<SortedRun>; 2],
    /// Whether a null-keyed input-0 record was seen (dropped at spill
    /// time; the profiling distinct-keys observation counts nulls as one
    /// key, so the external path must remember them).
    left_had_null: bool,
}

impl<'a> MatchOp<'a> {
    pub(crate) fn new(op: &'a BoundOp, strategy: LocalStrategy, ctx: OpCtx<'a>) -> Self {
        MatchOp {
            op,
            strategy,
            ctx,
            sides: [Vec::new(), Vec::new()],
            side_bytes: [0, 0],
            runs: [Vec::new(), Vec::new()],
            left_had_null: false,
        }
    }

    /// Sheds one buffered side's **uniquely held** batches to a key-sorted
    /// on-disk run, dropping null-keyed records (they match nothing).
    ///
    /// Batches still shared with other partitions (a broadcast build side)
    /// stay buffered: spilling a deep copy would free no memory — the
    /// allocation lives until every holder drops it — while multiplying
    /// disk writes by the fan-out. A kept batch becomes spillable once the
    /// other partitions release theirs.
    fn spill_side(&mut self, side: usize) -> Result<(), ExecError> {
        let key = &self.op.key_attrs[side];
        let mut records: Vec<Record> = Vec::new();
        let mut kept: Vec<(Arc<RecordBatch>, u64)> = Vec::new();
        let mut released = 0u64;
        for (b, charge) in self.sides[side].drain(..) {
            if Arc::strong_count(&b) == 1 {
                released += charge;
                records.extend(take_records(b));
            } else {
                kept.push((b, charge));
            }
        }
        self.sides[side] = kept;
        if records.is_empty() {
            return Ok(());
        }
        let had_null = records.iter().any(|r| key_has_null(r, key));
        if side == 0 {
            self.left_had_null |= had_null;
        }
        records.retain(|r| !key_has_null(r, key));
        records.sort_unstable_by(|a, b| canonical_cmp(a, b, key));
        let run = self.ctx.gov.write_sorted_run(&records)?;
        self.ctx
            .stats
            .add_spill(self.ctx.op_id, run.records(), run.bytes());
        self.runs[side].push(run);
        self.ctx.gov.release(released);
        self.side_bytes[side] -= released;
        Ok(())
    }

    /// External sort-merge join: each side's runs merge with its sorted
    /// in-memory remainder, and the two group streams walk in key
    /// lockstep, pairing matching groups.
    fn finish_external(&mut self, emitted: &mut Vec<Record>) -> Result<(), ExecError> {
        let (kl, kr) = (&self.op.key_attrs[0], &self.op.key_attrs[1]);
        let mut streams = Vec::with_capacity(2);
        let mut left_keys = 0u64;
        for side in 0..2 {
            let key = &self.op.key_attrs[side];
            let mut tail: Vec<Record> = Vec::new();
            for (b, _) in self.sides[side].drain(..) {
                tail.extend(take_records(b));
            }
            let had_null = tail.iter().any(|r| key_has_null(r, key));
            if side == 0 {
                self.left_had_null |= had_null;
            }
            tail.retain(|r| !key_has_null(r, key));
            self.ctx.gov.release(self.side_bytes[side]);
            self.side_bytes[side] = 0;
            streams.push(external_group_stream(
                self.ctx.gov,
                std::mem::take(&mut self.runs[side]),
                tail,
                key,
            )?);
        }
        let (mut right_s, mut left_s) = (streams.pop().unwrap(), streams.pop().unwrap());
        loop {
            let ord = match (left_s.peek(), right_s.peek()) {
                (None, None) => break,
                (Some(_), None) => Ordering::Less,
                (None, Some(_)) => Ordering::Greater,
                (Some(l), Some(r)) => key_cmp2(l, kl, r, kr),
            };
            match ord {
                Ordering::Less => {
                    left_s.next_group()?;
                    left_keys += 1;
                }
                Ordering::Greater => {
                    right_s.next_group()?;
                }
                Ordering::Equal => {
                    let lg = left_s.next_group()?.expect("peeked");
                    let rg = right_s.next_group()?.expect("peeked");
                    left_keys += 1;
                    for a in &lg {
                        for b in &rg {
                            self.ctx.call(self.op, Invocation::Pair(a, b), emitted)?;
                        }
                    }
                }
            }
        }
        if self.ctx.stats.detail() {
            // Match the in-memory observation rule: distinct input-0 keys
            // with nulls counted as one key.
            self.ctx
                .stats
                .add_op_distinct_keys(self.ctx.op_id, left_keys + self.left_had_null as u64);
        }
        Ok(())
    }
}

/// Hash join over borrowed records. `build_is_left` fixes which input is
/// the build side; probe order follows the probe side's arrival order.
/// Buckets verify key equality exactly, so hash collisions cannot produce
/// false matches.
fn hash_join(
    op: &BoundOp,
    ctx: &OpCtx<'_>,
    left: &[&Record],
    right: &[&Record],
    build_is_left: bool,
    out: &mut Vec<Record>,
) -> Result<(), ExecError> {
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
                    ctx.call(op, Invocation::Pair(l, r), out)?;
                }
            }
        }
    }
    Ok(())
}

/// Sort-merge join over borrowed records.
fn sort_merge_join(
    op: &BoundOp,
    ctx: &OpCtx<'_>,
    left: &[&Record],
    right: &[&Record],
    out: &mut Vec<Record>,
) -> Result<(), ExecError> {
    let (kl, kr) = (&op.key_attrs[0], &op.key_attrs[1]);
    let mut l: Vec<&Record> = left
        .iter()
        .copied()
        .filter(|r| !key_has_null(r, kl))
        .collect();
    let mut r: Vec<&Record> = right
        .iter()
        .copied()
        .filter(|x| !key_has_null(x, kr))
        .collect();
    l.sort_unstable_by(|a, b| key_cmp(a, b, kl).then_with(|| a.cmp(b)));
    r.sort_unstable_by(|a, b| key_cmp(a, b, kr).then_with(|| a.cmp(b)));
    let (mut i, mut j) = (0, 0);
    while i < l.len() && j < r.len() {
        match key_cmp2(l[i], kl, r[j], kr) {
            Ordering::Less => i += 1,
            Ordering::Greater => j += 1,
            Ordering::Equal => {
                let mut i2 = i;
                while i2 < l.len() && key_cmp(l[i], l[i2], kl).is_eq() {
                    i2 += 1;
                }
                let mut j2 = j;
                while j2 < r.len() && key_cmp(r[j], r[j2], kr).is_eq() {
                    j2 += 1;
                }
                for &a in &l[i..i2] {
                    for &b in &r[j..j2] {
                        ctx.call(op, Invocation::Pair(a, b), out)?;
                    }
                }
                i = i2;
                j = j2;
            }
        }
    }
    Ok(())
}

impl Operator for MatchOp<'_> {
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
            self.side_bytes[port] += charge;
            self.ctx.gov.grant(charge);
        }
        self.sides[port].push((batch, charge));
        if self.ctx.gov.over_budget() {
            for side in 0..2 {
                if !self.sides[side].is_empty() {
                    self.spill_side(side)?;
                }
            }
        }
        Ok(())
    }

    fn finish(&mut self, out: &mut Vec<Arc<RecordBatch>>) -> Result<(), ExecError> {
        if self.runs.iter().any(|r| !r.is_empty()) {
            let mut emitted = Vec::new();
            self.finish_external(&mut emitted)?;
            self.ctx.emit(emitted, out);
            return Ok(());
        }
        let left: Vec<&Record> = self.sides[0].iter().flat_map(|(b, _)| b.iter()).collect();
        let right: Vec<&Record> = self.sides[1].iter().flat_map(|(b, _)| b.iter()).collect();
        if self.ctx.stats.detail() {
            // Profiling observation: distinct input-0 keys (nulls count as
            // one key, matching the runtime profiler's historic rule —
            // unlike the join itself, which drops null keys).
            let kl = &self.op.key_attrs[0];
            let mut refs = left.clone();
            refs.sort_unstable_by(|a, b| key_cmp(a, b, kl));
            let mut n = 0u64;
            let mut i = 0;
            while i < refs.len() {
                n += 1;
                i += super::run_len(&refs, i, kl);
            }
            self.ctx.stats.add_op_distinct_keys(self.ctx.op_id, n);
        }
        let mut emitted = Vec::new();
        match self.strategy {
            LocalStrategy::SortMergeJoin => {
                sort_merge_join(self.op, &self.ctx, &left, &right, &mut emitted)?;
            }
            LocalStrategy::HashJoinBuildRight => {
                hash_join(self.op, &self.ctx, &left, &right, false, &mut emitted)?;
            }
            // Build-left, and the default for `Pipe` (logical oracle).
            _ => {
                hash_join(self.op, &self.ctx, &left, &right, true, &mut emitted)?;
            }
        }
        self.sides = [Vec::new(), Vec::new()];
        self.ctx
            .gov
            .release(self.side_bytes[0] + self.side_bytes[1]);
        self.side_bytes = [0, 0];
        self.ctx.emit(emitted, out);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operators::{apply_single, take_records};
    use crate::spill::MemoryGovernor;
    use crate::stats::ExecStats;
    use strato_dataflow::{CostHints, Plan, ProgramBuilder, SourceDef};
    use strato_ir::interp::Interp;
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

    fn ctx<'a>(stats: &'a ExecStats, gov: &'a MemoryGovernor) -> OpCtx<'a> {
        OpCtx {
            interp: Interp::default(),
            stats,
            gov,
            batch_size: 64,
            op_id: 0,
        }
    }

    #[test]
    fn starved_join_spills_and_matches_the_in_memory_result_bag() {
        let plan = join_plan();
        let op = &plan.ctx.ops[0];
        let left = wide(
            &plan,
            0,
            &[&[1, 10], &[2, 20], &[2, 21], &[3, 30], &[5, 50]],
        );
        let right = wide(&plan, 1, &[&[2], &[2], &[3], &[7]]);

        let s_ref = ExecStats::new();
        let g_ref = MemoryGovernor::unbounded();
        let reference = apply_single(
            op,
            LocalStrategy::HashJoinBuildLeft,
            vec![left.clone(), right.clone()],
            ctx(&s_ref, &g_ref),
        )
        .unwrap();

        // One record per batch under a 32-byte budget: the operator spills
        // both sides and joins by external sort-merge.
        let stats = ExecStats::with_ops(1);
        let gov = MemoryGovernor::with_budget(Some(32));
        let mut join = MatchOp::new(op, LocalStrategy::HashJoinBuildLeft, ctx(&stats, &gov));
        join.open().unwrap();
        let mut out = Vec::new();
        for (port, recs) in [left, right].into_iter().enumerate() {
            for r in recs {
                join.push(port, Arc::new(RecordBatch::from_records(vec![r])), &mut out)
                    .unwrap();
            }
        }
        join.finish(&mut out).unwrap();
        let got: Vec<Record> = out.into_iter().flat_map(take_records).collect();
        assert_eq!(
            DataSet::from_records(got),
            DataSet::from_records(reference),
            "external sort-merge must reproduce the hash-join bag"
        );
        assert!(stats.spill_snapshot().2 > 0, "tiny budget must spill");
        assert_eq!(gov.resident(), 0, "grants released at finish");
    }

    #[test]
    fn shared_batches_are_kept_resident_not_deep_copied_to_disk() {
        // Spilling an `Arc`-shared (broadcast) batch frees no memory — the
        // allocation lives until every holder drops it — so under pressure
        // only uniquely held batches go to disk.
        let plan = join_plan();
        let op = &plan.ctx.ops[0];
        let left = wide(&plan, 0, &[&[2, 20], &[3, 30]]);
        let right = wide(&plan, 1, &[&[2], &[3]]);

        let stats = ExecStats::with_ops(1);
        let gov = MemoryGovernor::with_budget(Some(1));
        let mut join = MatchOp::new(op, LocalStrategy::HashJoinBuildLeft, ctx(&stats, &gov));
        join.open().unwrap();
        let mut out = Vec::new();
        // The "broadcast" build side: a clone is kept alive, as the other
        // partitions of a broadcast ship would.
        let shared = Arc::new(RecordBatch::from_records(right));
        let other_partition = Arc::clone(&shared);
        join.push(1, shared, &mut out).unwrap();
        let spilled_after_shared = stats.spill_snapshot().2;
        assert_eq!(
            spilled_after_shared, 0,
            "a shared batch must not be deep-copied to disk"
        );
        // The unshared probe side spills even though the build side stays.
        join.push(0, Arc::new(RecordBatch::from_records(left)), &mut out)
            .unwrap();
        assert!(stats.spill_snapshot().2 > 0, "unique batches must spill");
        join.finish(&mut out).unwrap();
        let got: Vec<Record> = out.into_iter().flat_map(take_records).collect();
        assert_eq!(got.len(), 2, "both keys match once");
        drop(other_partition);
        assert_eq!(gov.resident(), 0, "grants released at finish");
    }
}
