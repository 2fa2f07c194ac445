//! The Map operator: streaming, record-at-a-time.

use super::{OpCtx, Operator};
use crate::engine::ExecError;
use std::sync::Arc;
use strato_ir::interp::Invocation;
use strato_record::RecordBatch;

/// Pipelined Map: every pushed batch is transformed and emitted
/// immediately; nothing is buffered across batches.
pub struct MapOp {
    ctx: OpCtx,
}

impl MapOp {
    pub(crate) fn new(ctx: OpCtx) -> Self {
        MapOp { ctx }
    }
}

impl Operator for MapOp {
    fn push(
        &mut self,
        port: usize,
        batch: Arc<RecordBatch>,
        out: &mut Vec<RecordBatch>,
    ) -> Result<(), ExecError> {
        debug_assert_eq!(port, 0, "Map is unary");
        // The UDF runs over row views of the batch: field reads resolve
        // straight into its columns, and an input record is materialized
        // only if the UDF copies it whole.
        let mapped =
            (0..batch.len()).try_for_each(|row| self.ctx.call_out(Invocation::Row(batch.row(row))));
        self.ctx.drain_into(out);
        mapped
    }

    fn finish(&mut self, _out: &mut Vec<RecordBatch>) -> Result<(), ExecError> {
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
    fn a_step_limit_mid_push_still_charges_the_calls_it_completed() {
        // Copies its row, and spins on `a == 3`.
        let mut b = FuncBuilder::new("m", UdfKind::Map, vec![1]);
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
        let m = b.finish().unwrap();
        let mut p = ProgramBuilder::new();
        let s = p.source(SourceDef::new("s", &["a"], 8));
        let m = p.map("m", m, CostHints::default(), s);
        let plan = p.finish(m).unwrap().bind().unwrap();

        let stats = Arc::new(ExecStats::with_ops(1));
        let gov = Arc::new(MemoryGovernor::with_budget(None));
        let mut ctx = OpCtx::new(Arc::clone(&plan.ctx), Arc::clone(&stats), gov, 64, 0);
        ctx.interp = Interp::with_max_steps(100);
        let mut map = MapOp::new(ctx);
        let rows: Vec<Record> = (0..6)
            .map(|a| Record::from_values([Value::Int(a)]))
            .collect();
        let batch = Arc::new(crate::testutil::batch(&rows, 1));
        let mut out = Vec::new();
        let err = map.push(0, batch, &mut out).unwrap_err();
        assert!(matches!(err, ExecError::Udf(ref op, InterpError::StepLimit(100)) if op == "m"));
        // Rows 0..3 were mapped and handed on; the fourth call failed and
        // is not counted.
        let snap = &stats.op_snapshots()[0];
        assert_eq!((snap.calls, snap.emits), (3, 3));
        assert_eq!(stats.totals().udf_calls, 3);
        assert_eq!(out.iter().map(RecordBatch::len).sum::<usize>(), 3);
    }
}
