//! # strato-exec — parallel in-process execution engine
//!
//! The substitute for the paper's Nephele engine (see `DESIGN.md`): a
//! partitioned, multi-threaded, in-process executor that runs bound plans
//! by interpreting their UDFs' three-address code.
//!
//! The runtime is a streaming task-graph pipeline over a fixed worker
//! pool:
//!
//! * [`operators`] — one physical [`operators::Operator`]
//!   (push-batch / finish) per PACT, covering the ship-independent
//!   local strategies (pipelined map — optionally a fused map chain —
//!   hash grouping and hash join in memory, block nested loops, and one
//!   sort-based finish per blocking operator for co-grouping and
//!   everything that spilled);
//! * `ship` (private) — per-batch routing between
//!   partitions: forward, hash repartition (no serialization on the hot
//!   path; bytes accounted via `encoded_len`, wire round trip checked in
//!   debug builds) and `Arc`-shared broadcast;
//! * [`pipeline`] — flattens a [`strato_core::PhysPlan`] into one task per
//!   `stage × partition`, fusing adjacent Forward-shipped Maps, and
//!   schedules the tasks cooperatively
//!   on an [`EngineRuntime`]'s workers with bounded-channel backpressure;
//!   the **same** lowering and operators serve both entry points. Worker
//!   panics are contained per task and surfaced as [`ExecError::Panic`].
//! * [`spill`] — out-of-core execution: blocking operators keep their
//!   buffered state in governed run buffers charged to a shared
//!   per-execution [`MemoryGovernor`] ([`ExecOptions::mem_budget`],
//!   default = the cost model's budget) and, under pressure, shed it as
//!   sorted runs on disk; their sort-based finish merges the in-memory
//!   tail with however many runs exist (a loser-tree k-way merge), so an
//!   in-memory run is simply the zero-run case.
//! * [`runtime`] — the engine runtime every execution runs on: one
//!   [`EngineRuntime`] worker pool scheduling tasks from all in-flight
//!   queries round-robin (per-query fairness), and one [`GlobalMemory`]
//!   budget that per-query governors carve their grants from. The
//!   single-query entry points below build a runtime private to the call.
//! * [`trace`] — opt-in end-to-end query tracing
//!   ([`ExecOptions::trace`]): a lock-light per-worker span recorder fed
//!   by the pipeline, ship, spill and runtime layers, rendered as Chrome
//!   trace-event JSON ([`TraceRecorder::chrome_trace_json`]) or as an
//!   estimate-vs-actual [`trace::explain_analyze`] report; plus the
//!   log-bucketed [`LatencyHisto`] the server exports from `/metrics`.
//!
//! Two entry points (plus their [`EngineRuntime`] counterparts):
//!
//! * [`execute`] — execution of a [`strato_core::PhysPlan`] with `dop`
//!   partitions streamed across the worker pool.
//! * [`execute_logical`] — the same on [`strato_core::PhysPlan::logical`]
//!   (a *logical* plan with default strategies and no shipping) on one
//!   partition. Deterministic and simple; this is the oracle the
//!   plan-equivalence test harness uses.
//!
//! ## Semantics notes
//!
//! * Records cross operator boundaries in **global record layout**; the
//!   engine widens source records into global layout at scan time.
//! * Match joins follow SQL flavour: records with null key components match
//!   nothing. Reduce/CoGroup group null keys together.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod operators;
pub mod pipeline;
pub mod profile;
pub mod runtime;
mod ship;
pub mod spill;
pub mod stats;
pub mod trace;

pub use engine::{execute, execute_logical, execute_logical_with, execute_with, ExecError, Inputs};
pub use pipeline::ExecOptions;
pub use profile::{profile, profile_hints, sample_inputs, OpProfile};
pub use runtime::{EngineRuntime, RuntimeOptions, RuntimeSnapshot};
pub use spill::{GlobalMemory, MemoryGovernor, MemoryGrant};
pub use stats::{ExecStats, OpSnapshot, StatsSnapshot};
pub use trace::{explain_analyze, HistoSnapshot, LatencyHisto, Span, TraceRecorder};

/// Shared IR builders for this crate's test modules.
#[cfg(test)]
pub(crate) mod testutil {
    use crate::operators::OpCtx;
    use crate::{ExecStats, MemoryGovernor};
    use std::sync::Arc;
    use strato_dataflow::Plan;
    use strato_ir::{BinOp, FuncBuilder, Function, UdfKind};
    use strato_record::{AttrId, DataSet, Record};

    /// The context of `plan`'s last operator (the root of a single-chain
    /// plan) charging `stats` and `gov`.
    pub(crate) fn ctx(plan: &Plan, stats: &Arc<ExecStats>, gov: &Arc<MemoryGovernor>) -> OpCtx {
        OpCtx::new(
            Arc::clone(&plan.ctx),
            Arc::clone(stats),
            Arc::clone(gov),
            64,
            plan.ctx.ops.len() - 1,
        )
    }

    /// Widens source records to global layout the way the scan stage
    /// does: field `i` of the source goes to its global attribute
    /// position.
    pub(crate) fn widen(records: &DataSet, attrs: &[AttrId], width: usize) -> Vec<Record> {
        records
            .iter()
            .map(|r| {
                let mut out = Record::nulls(width);
                for (i, &a) in attrs.iter().enumerate() {
                    out.set_field(a.index(), r.field(i).clone());
                }
                out
            })
            .collect()
    }

    /// In-place `Σ field` reduce UDF (the fold is written back to the
    /// field it was read from).
    pub(crate) fn sum_inplace(w: usize, field: usize) -> Function {
        let mut b = FuncBuilder::new("sum_ip", UdfKind::Group, vec![w]);
        let acc = b.konst(0i64);
        let it = b.iter_open(0);
        let done = b.new_label();
        let head = b.new_label();
        b.place(head);
        let r = b.iter_next(it, done);
        let v = b.get(r, field);
        b.bin_into(acc, BinOp::Add, acc, v);
        b.jump(head);
        b.place(done);
        let it2 = b.iter_open(0);
        let nil = b.new_label();
        let first = b.iter_next(it2, nil);
        let or = b.copy(first);
        b.set(or, field, acc);
        b.emit(or);
        b.place(nil);
        b.ret();
        b.finish().unwrap()
    }
}
