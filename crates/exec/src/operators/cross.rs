//! The Cross operator: block-nested-loop Cartesian product.

use super::{OpCtx, Operator};
use crate::engine::ExecError;
use std::sync::Arc;
use strato_ir::interp::Invocation;
use strato_record::RecordBatch;

/// Blocking Cartesian product: buffers both sides as shared batches and
/// pairs every left record with every right record at `finish`. Batches
/// double as the blocks of the nested loop — the inner side is scanned
/// once per outer *record*, batch by batch, entirely over borrowed data.
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
}

impl Operator for CrossOp {
    fn push(
        &mut self,
        port: usize,
        batch: Arc<RecordBatch>,
        _out: &mut Vec<Arc<RecordBatch>>,
    ) -> Result<(), ExecError> {
        // The nested loop borrows `&Record`s; columnar input materializes
        // to rows once at push time.
        self.sides[port].push(super::rows_arc(batch));
        Ok(())
    }

    fn finish(&mut self, out: &mut Vec<Arc<RecordBatch>>) -> Result<(), ExecError> {
        let mut emitted = Vec::new();
        for lb in &self.sides[0] {
            for l in lb.iter() {
                for rb in &self.sides[1] {
                    for r in rb.iter() {
                        self.ctx.call(Invocation::Pair(l, r), &mut emitted)?;
                    }
                }
            }
        }
        self.sides = [Vec::new(), Vec::new()];
        self.ctx.emit(emitted, out);
        Ok(())
    }
}
