//! The Cross operator: block-nested-loop Cartesian product.

use super::{OpCtx, Operator};
use crate::engine::ExecError;
use std::sync::Arc;
use strato_ir::interp::Invocation;
use strato_record::RecordBatch;

/// Blocking Cartesian product: buffers both sides as shared batches and
/// pairs every left row with every right row at `finish`. Batches double as the blocks of the nested loop — the inner
/// side is scanned once per outer *row*, batch by batch, entirely over
/// row views.
pub struct CrossOp {
    ctx: OpCtx,
    sides: [Vec<Arc<RecordBatch>>; 2],
}

impl CrossOp {
    pub(crate) fn new(ctx: OpCtx) -> Self {
        CrossOp {
            ctx,
            sides: [Vec::new(), Vec::new()],
        }
    }

    /// The finish: one call per pair.
    fn cross(&mut self) -> Result<(), ExecError> {
        for lb in &self.sides[0] {
            for i in 0..lb.len() {
                let l = lb.row(i);
                for rb in &self.sides[1] {
                    for j in 0..rb.len() {
                        self.ctx.call_out(Invocation::Pair(l, rb.row(j)))?;
                    }
                }
            }
        }
        self.sides = [Vec::new(), Vec::new()];
        Ok(())
    }
}

impl Operator for CrossOp {
    fn push(
        &mut self,
        port: usize,
        batch: Arc<RecordBatch>,
        _out: &mut Vec<RecordBatch>,
    ) -> Result<(), ExecError> {
        self.sides[port].push(batch);
        Ok(())
    }

    fn finish(&mut self, out: &mut Vec<RecordBatch>) -> Result<(), ExecError> {
        let crossed = self.cross();
        self.ctx.drain_into(out);
        crossed
    }
}
