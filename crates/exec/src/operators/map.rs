//! The Map operator: streaming, record-at-a-time — optionally a fused
//! chain of several Maps running as one operator.

use super::{OpCtx, Operator};
use crate::engine::ExecError;
use std::sync::Arc;
use strato_ir::interp::Invocation;
use strato_record::RecordBatch;

/// Pipelined Map: every pushed batch is transformed and emitted
/// immediately; nothing is buffered across batches.
///
/// A `MapOp` holds one or more stages, each the [`OpCtx`] of one Map.
/// With several stages it is a **fused** chain produced by compile-time
/// Map fusion: records pass from stage to stage as plain vectors, so
/// adjacent Forward-shipped Maps pay neither intermediate batch formation
/// nor a channel hop. Each stage keeps its own `op_id`, so per-operator
/// call/emit attribution is identical to the unfused plan.
pub struct MapOp {
    stages: Vec<OpCtx>,
}

impl MapOp {
    pub(crate) fn new(ctx: OpCtx) -> Self {
        MapOp { stages: vec![ctx] }
    }

    /// A fused chain; `stages[0]` runs first.
    pub(crate) fn chained(stages: Vec<OpCtx>) -> Self {
        debug_assert!(!stages.is_empty());
        MapOp { stages }
    }
}

impl MapOp {
    /// Runs every stage over `batch`; the last stage's calls build its
    /// output batches.
    fn map(&mut self, batch: &RecordBatch) -> Result<(), ExecError> {
        let (last, inner) = self.stages.split_last_mut().expect("a Map stage");
        // The first stage runs over row views of the batch: field reads
        // resolve straight into its columns, and an input record is
        // materialized only if the UDF copies it whole.
        let rows = (0..batch.len()).map(|row| batch.row(row));
        let Some((head, mid)) = inner.split_first_mut() else {
            for row in rows {
                last.call_out(Invocation::Row(row))?;
            }
            return Ok(());
        };
        let mut emitted = Vec::new();
        for row in rows {
            head.call(Invocation::Row(row), &mut emitted)?;
        }
        for ctx in mid {
            let mut next = Vec::new();
            for r in &emitted {
                ctx.call(Invocation::Row(r.into()), &mut next)?;
            }
            emitted = next;
        }
        for r in &emitted {
            last.call_out(Invocation::Row(r.into()))?;
        }
        Ok(())
    }
}

impl Operator for MapOp {
    fn push(
        &mut self,
        port: usize,
        batch: Arc<RecordBatch>,
        out: &mut Vec<Arc<RecordBatch>>,
    ) -> Result<(), ExecError> {
        debug_assert_eq!(port, 0, "Map is unary");
        let mapped = self.map(&batch);
        for ctx in &mut self.stages {
            ctx.drain_into(out);
        }
        mapped
    }

    fn finish(&mut self, _out: &mut Vec<Arc<RecordBatch>>) -> Result<(), ExecError> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ExecError;
    use crate::spill::MemoryGovernor;
    use crate::stats::ExecStats;
    use strato_dataflow::{CostHints, ProgramBuilder, SourceDef};
    use strato_ir::interp::{Interp, InterpError};
    use strato_ir::{BinOp, FuncBuilder, UdfKind};
    use strato_record::{Record, Value};

    #[test]
    fn a_step_limit_mid_push_still_flushes_every_stage() {
        // m1 copies its row; m2 spins on `a == 3`.
        let mut b = FuncBuilder::new("m1", UdfKind::Map, vec![1]);
        let or = b.copy_input(0);
        b.emit(or);
        b.ret();
        let m1 = b.finish().unwrap();
        let mut b = FuncBuilder::new("m2", UdfKind::Map, vec![1]);
        let a = b.get_input(0, 0);
        let three = b.konst(3i64);
        let hit = b.bin(BinOp::Eq, a, three);
        let spin = b.new_label();
        b.branch(hit, spin);
        let or = b.copy_input(0);
        b.emit(or);
        b.ret();
        b.place(spin);
        b.jump(spin);
        let m2 = b.finish().unwrap();
        let mut p = ProgramBuilder::new();
        let s = p.source(SourceDef::new("s", &["a"], 8));
        let m1 = p.map("m1", m1, CostHints::default(), s);
        let m2 = p.map("m2", m2, CostHints::default(), m1);
        let plan = p.finish(m2).unwrap().bind().unwrap();

        let stats = Arc::new(ExecStats::with_ops(2));
        let gov = Arc::new(MemoryGovernor::with_budget(None));
        let stage = |op_id| {
            let mut ctx = OpCtx::new(
                Arc::clone(&plan.ctx),
                Arc::clone(&stats),
                Arc::clone(&gov),
                64,
                op_id,
            );
            ctx.interp = Interp::with_max_steps(100);
            ctx
        };
        let mut chain = MapOp::chained(vec![stage(0), stage(1)]);
        let rows: Vec<Record> = (0..6)
            .map(|a| Record::from_values([Value::Int(a)]))
            .collect();
        let batch = Arc::new(crate::testutil::batch(&rows, 1));
        let err = chain.push(0, batch, &mut Vec::new()).unwrap_err();
        assert!(matches!(err, ExecError::Udf(ref op, InterpError::StepLimit(100)) if op == "m2"));
        // m1 ran all six rows; m2 finished rows 0..3 and failed on the
        // fourth, which is not counted.
        let slots: Vec<(u64, u64)> = stats
            .op_snapshots()
            .iter()
            .map(|o| (o.calls, o.emits))
            .collect();
        assert_eq!(slots, [(6, 6), (3, 3)]);
        assert_eq!(stats.totals().udf_calls, 9);
    }
}
