//! Out-of-core execution: the memory-governed spill subsystem.
//!
//! The paper's cost model prices sort and hash strategies by their memory
//! footprint: state beyond [`CostWeights::mem_budget`] is charged a
//! disk-spill penalty (write + read). This module makes that charge
//! describe **real behavior**: every blocking operator registers its
//! buffered state with a shared per-execution [`MemoryGovernor`] and, when
//! the execution exceeds its budget, flushes that state to *sorted runs*
//! on disk which its finish merges back through a k-way
//! [loser tree](merge) — the classic external-sort architecture of the
//! Stratosphere/Nephele runtime the paper targets.
//!
//! Pieces:
//!
//! * [`MemoryGovernor`] — atomically tracks the bytes resident across all
//!   blocking operators of one execution against
//!   `ExecOptions::mem_budget`. Operators [`grant`](MemoryGovernor::grant)
//!   bytes as they buffer, check [`over_budget`](MemoryGovernor::over_budget)
//!   after every batch, and [`release`](MemoryGovernor::release) what they
//!   spill or emit — so resident state stays within one batch of the
//!   budget. The governor also owns the execution's **scoped spill
//!   directory**: created lazily on first spill, removed on drop on every
//!   path (success, error, and worker panic — the scheduler contains
//!   panics, so the governor's `Drop` always runs).
//! * [`GlobalMemory`] — the machine-wide pool of a shared
//!   [`EngineRuntime`](crate::runtime::EngineRuntime). Each query's
//!   governor is then built from a [`MemoryGrant`] carved out of the
//!   pool's unpromised remainder (capped by the query's own
//!   `mem_budget`), so the sum of per-query budgets never exceeds the
//!   machine budget — and because `over_budget` still compares only the
//!   query's own resident bytes against its own grant, pressure in one
//!   query spills *its* state, never a neighbor's.
//! * `file` — spill files: length-framed records in the existing wire
//!   encoding ([`strato_record::wire`]), written/read through buffered
//!   file IO. A `file::SortedRun` is one file of records in
//!   ascending comparator order.
//! * [`merge`] — a [loser tree](merge::LoserTree) merging `k` sorted
//!   sources by an arbitrary comparator, plus `merge::merge_runs`
//!   which caps the merge fan-in by compacting surplus runs into larger
//!   ones first (bounded open file handles at any batch size).
//! * `RunBuffer` (crate-private) — the one governed buffer every blocking
//!   operator keeps per keyed input: the batches it was pushed + the
//!   bytes granted for them + the sorted runs shed so far. It is the
//!   operators' only way to charge buffered state, write a run or open a
//!   group stream, and it returns whatever is still granted when dropped.
//!
//! **In-memory is the zero-run case.** Each blocking operator has exactly
//! one sort-based finish — `RunBuffer::drain_groups`: sort the in-memory
//! tail canonically, merge it with however many runs exist (including
//! none), walk key groups in ascending canonical order. How many runs
//! feed that walk never changes what it emits — which is what the cost
//! model's `spill(bytes) = 0` under the budget already says.
//!
//! Reduce once anything spilled walks one buffer; CoGroup always, and
//! Match once pressure shed anything, walk two in lock-step, Match over
//! null-dropping buffers because null join keys match nothing. Only a
//! Reduce or Match that never spilled runs a different, in-memory (hash)
//! algorithm.
//!
//! [`CostWeights::mem_budget`]: strato_core::cost::CostWeights

mod buffer;
pub mod file;
pub mod governor;
pub mod merge;

pub(crate) use buffer::{next_key_groups, RunBuffer};

pub use file::{RunReader, SortedRun};
pub use governor::{GlobalMemory, MemoryGovernor, MemoryGrant};
pub use merge::{merge_runs, LoserTree};
