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

impl Operator for MapOp {
    fn push(
        &mut self,
        port: usize,
        batch: Arc<RecordBatch>,
        out: &mut Vec<Arc<RecordBatch>>,
    ) -> Result<(), ExecError> {
        debug_assert_eq!(port, 0, "Map is unary");
        let head = &self.stages[0];
        let mut emitted = Vec::new();
        // The head UDF runs over row views of either layout: field reads
        // resolve straight into the batch's storage, and an input record
        // is materialized only if the UDF copies it whole.
        for row in 0..batch.len() {
            head.call(Invocation::Row(batch.row(row)), &mut emitted)?;
        }
        for ctx in &self.stages[1..] {
            let mut next = Vec::new();
            for r in &emitted {
                ctx.call(Invocation::Row(r.into()), &mut next)?;
            }
            emitted = next;
        }
        self.stages[self.stages.len() - 1].emit(emitted, out);
        Ok(())
    }

    fn finish(&mut self, _out: &mut Vec<Arc<RecordBatch>>) -> Result<(), ExecError> {
        Ok(())
    }
}
