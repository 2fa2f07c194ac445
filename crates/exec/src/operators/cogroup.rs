//! The CoGroup operator: sort-merge co-grouping over both key domains.

use super::{OpCtx, Operator};
use crate::engine::ExecError;
use crate::spill::{next_key_groups, RunBuffer};
use std::sync::Arc;
use strato_ir::interp::Invocation;
use strato_record::{Record, RecordBatch, RowRef};

/// Blocking CoGroup: holds the batches each input is sent in a `RunBuffer`
/// (null keys are kept — they group like any other key) and, at
/// `finish`, walks the two buffers' key-group streams in lock-step. One
/// UDF invocation per key of the *combined* active domain, each group
/// handed over as row views — a key present on only one side still
/// forms a group, with an empty slice for the absent side.
///
/// Under memory pressure both sides shed to sorted runs; the walk merges
/// whatever runs exist (none, when nothing spilled), so the walk order —
/// ascending combined key domain — does not depend on the budget.
pub struct CoGroupOp {
    ctx: OpCtx,
    sides: [RunBuffer; 2],
}

impl CoGroupOp {
    pub(crate) fn new(ctx: OpCtx) -> Self {
        let side = |s: usize| RunBuffer::new(ctx.clone(), s, false);
        CoGroupOp {
            sides: [side(0), side(1)],
            ctx,
        }
    }

    /// The finish: the lock-step walk, one call per key.
    fn cogroup(&mut self) -> Result<(), ExecError> {
        let [left, right] = &mut self.sides;
        let (mut left, mut right) = (left.drain_groups()?, right.drain_groups()?);
        let mut left_keys = 0u64;
        fn views(g: &Option<Vec<Record>>) -> Vec<RowRef<'_>> {
            g.iter().flatten().map(RowRef::from).collect()
        }
        while let Some((lg, rg)) = next_key_groups(&mut left, &mut right)? {
            left_keys += lg.is_some() as u64;
            let (lv, rv) = (views(&lg), views(&rg));
            self.ctx.call_out(Invocation::CoGroup(&lv, &rv))?;
        }
        if self.ctx.stats.detail() {
            // Profiling observation: distinct input-0 keys (the left groups
            // of the walk; null keys group like any other).
            self.ctx
                .stats
                .add_op_distinct_keys(self.ctx.op_id, left_keys);
        }
        Ok(())
    }
}

impl Operator for CoGroupOp {
    fn push(
        &mut self,
        port: usize,
        batch: Arc<RecordBatch>,
        _out: &mut Vec<RecordBatch>,
    ) -> Result<(), ExecError> {
        self.sides[port].push_batch(batch);
        if self.ctx.gov.over_budget() {
            for side in &mut self.sides {
                side.spill()?;
            }
        }
        Ok(())
    }

    fn finish(&mut self, out: &mut Vec<RecordBatch>) -> Result<(), ExecError> {
        let grouped = self.cogroup();
        self.ctx.drain_into(out);
        grouped
    }
}
