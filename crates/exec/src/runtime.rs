//! The shared engine runtime: one worker pool and one memory budget for
//! all concurrent executions of a process.
//!
//! The pool is created **once**, queries *register* with it, and the
//! same fixed set of workers drives every in-flight execution. Standalone
//! calls ([`crate::execute_with`] and friends, [`crate::profile()`])
//! register with one process-wide runtime of one worker, started on
//! their first use, so N concurrent ones share it like any other queries.
//!
//! ## Fair scheduling
//!
//! The runtime owns every registered query's ready queue: one slot per
//! query in a table guarded by **one** scheduler lock, holding an `Arc` of
//! the query, its FIFO of ready tasks, the count of workers inside one of
//! its steps, and whether its run is over. A query owns everything it runs
//! — its inputs, plan, operators, stats and memory grant — so a worker
//! runs a step through its own clone of that `Arc`, and the runtime is
//! handed to the step rather than stored in the query. A query's steps
//! push the tasks they wake into its slot. Workers pick **round-robin
//! across queries**, one cooperative task step per pick: a heavy query
//! with hundreds of ready tasks gets exactly one step before the cursor
//! moves on to the next query with work, so it can never starve a light
//! neighbor. Within a query, tasks run in the order they became ready.
//!
//! A query is driven either by the pool or by the thread that submitted
//! it. A query whose every source fits in one batch cannot pipeline — each
//! scan partition emits at most one batch — so handing its steps to the
//! pool costs more than it saves: its submitter drives it alone, popping
//! its own slot until the run is over. Its slot stays
//! registered (ids, grant, snapshot and `/metrics` all see it) but is
//! flagged so that no worker picks it and its steps wake no worker. A
//! light query therefore never waits for the pool, even while a heavy
//! neighbor holds every worker.
//!
//! ## Hierarchical memory
//!
//! The runtime owns a [`GlobalMemory`] pool
//! ([`RuntimeOptions::mem_budget`]). Each submitted query carves a
//! [`MemoryGrant`](crate::spill::MemoryGrant) out of the unpromised
//! remainder — capped by its own
//! `ExecOptions::mem_budget` — and its
//! [`MemoryGovernor`] enforces *that*
//! grant. The sum of grants never exceeds the pool, and pressure in one
//! query spills its own state, never a neighbor's.
//!
//! ```
//! use strato_exec::{EngineRuntime, RuntimeOptions};
//!
//! let rt = EngineRuntime::new(RuntimeOptions {
//!     workers: Some(2),
//!     mem_budget: Some(64 << 20), // 64 MiB shared by every query
//!     ..RuntimeOptions::default()
//! });
//! assert_eq!(rt.snapshot().workers, 2);
//! assert_eq!(rt.memory().budget(), Some(64 << 20));
//! // rt.execute_with(...) runs queries on the shared pool; see the
//! // equivalence suite for concurrent submissions.
//! ```

use crate::engine::{ExecError, Inputs};
use crate::pipeline::{self, ExecOptions, ExecState};
use crate::spill::{GlobalMemory, MemoryGovernor};
use crate::stats::ExecStats;
use crate::trace::{HistoSnapshot, LatencyHisto};
use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::Instant;
use strato_core::PhysPlan;
use strato_dataflow::Plan;
use strato_record::DataSet;

/// Configuration of a shared [`EngineRuntime`].
#[derive(Debug, Clone)]
pub struct RuntimeOptions {
    /// Worker threads in the shared pool. `None` picks the machine's
    /// available parallelism.
    pub workers: Option<usize>,
    /// The machine-wide memory budget all queries share
    /// ([`GlobalMemory`]). Per-query `ExecOptions::mem_budget` is a
    /// *cap* on the slice a query may carve from this pool. `None` =
    /// unbounded pool (each query's own cap applies unchanged). Defaults
    /// to [`strato_core::cost::DEFAULT_GLOBAL_MEM_BUDGET_BYTES`].
    pub mem_budget: Option<u64>,
    /// Parent directory for every query's scoped spill directory (`None`
    /// = the OS temp dir). A query's scoped directory is created lazily on
    /// its first spill and removed when the execution ends — on success,
    /// error and contained worker panic alike.
    pub spill_dir: Option<PathBuf>,
}

impl Default for RuntimeOptions {
    fn default() -> Self {
        RuntimeOptions {
            workers: None,
            mem_budget: Some(strato_core::cost::DEFAULT_GLOBAL_MEM_BUDGET_BYTES),
            spill_dir: None,
        }
    }
}

/// Point-in-time view of a runtime's pool and memory gauges (the server's
/// `/metrics` endpoint renders this).
#[derive(Debug, Clone, Default)]
pub struct RuntimeSnapshot {
    /// Worker threads in the shared pool.
    pub workers: usize,
    /// Workers currently executing a task step.
    pub busy_workers: usize,
    /// Queries currently registered with the pool.
    pub active_queries: usize,
    /// Ready (runnable) task steps across all registered queries.
    pub queued_tasks: usize,
    /// Task steps executed by the pool's workers since the runtime
    /// started. Steps a submitter ran itself are not counted.
    pub tasks_executed: u64,
    /// Queries ever submitted.
    pub queries_started: u64,
    /// Queries that finished (successfully or not).
    pub queries_finished: u64,
    /// Queries driven entirely by the thread that submitted them, not by
    /// the pool (see the module docs).
    pub queries_on_submitter: u64,
    /// The pool budget (`None` = unbounded).
    pub mem_budget: Option<u64>,
    /// Bytes currently promised to in-flight queries' grants.
    pub mem_granted: u64,
    /// Bytes currently buffered across all queries.
    pub mem_resident: u64,
    /// High-water mark of `mem_resident`.
    pub mem_peak_resident: u64,
    /// `(query id, ready tasks)` per registered query.
    pub per_query_queued: Vec<(u64, usize)>,
    /// Ids of recently finished queries, oldest first (bounded window of
    /// [`RECENT_QUERIES`] — the metrics renderer uses it to terminate
    /// per-query series without unbounded cardinality).
    pub recent_queries: Vec<u64>,
    /// Log-bucketed histogram of memory-grant carve waits (time spent
    /// acquiring a [`MemoryGrant`](crate::spill::MemoryGrant) from the
    /// shared pool, lock contention included).
    pub grant_wait: HistoSnapshot,
}

/// Bound of the [`RuntimeSnapshot::recent_queries`] window.
pub const RECENT_QUERIES: usize = 8;

/// One registered query in the pool's slot table.
struct SlotEntry {
    query: Arc<ExecState>,
    query_id: u64,
    /// Ready tasks, in the order they became ready.
    ready: VecDeque<usize>,
    /// Workers currently inside a step of this query.
    running: usize,
    /// The run drained or failed: nothing is queued any more.
    over: bool,
    /// The submitter drives this query itself: no worker picks it and its
    /// steps wake none. The single-driver loop relies on being the only
    /// driver, and `run_query` needs every handle back.
    on_submitter: bool,
}

/// The pool's scheduling state: the slot table plus the fairness cursor.
struct RtSched {
    /// Registered queries; freed slots are reused.
    slots: Vec<Option<SlotEntry>>,
    /// Round-robin position: the slot *after* the last one picked.
    cursor: usize,
    shutdown: bool,
    /// Ids of recently deregistered queries, oldest first (bounded to
    /// [`RECENT_QUERIES`]).
    recent: VecDeque<u64>,
}

impl RtSched {
    /// Pops the next ready task round-robin from the slot after the last
    /// one picked, and counts the picking worker into that slot.
    fn pick(&mut self) -> Option<(usize, Arc<ExecState>, usize)> {
        let n = self.slots.len();
        for k in 0..n {
            let i = (self.cursor + k) % n;
            if let Some(s) = self.slots[i].as_mut().filter(|s| !s.on_submitter) {
                if let Some(t) = s.ready.pop_front() {
                    s.running += 1;
                    self.cursor = (i + 1) % n;
                    return Some((i, Arc::clone(&s.query), t));
                }
            }
        }
        None
    }
}

/// State shared between the pool's workers, submitters and observers.
pub(crate) struct RtShared {
    sched: Mutex<RtSched>,
    /// Tasks were queued (or the pool shuts down): workers sleep on it.
    cv: Condvar,
    /// A slot is over and its last worker left: submitters sleep on it.
    done: Condvar,
    memory: Arc<GlobalMemory>,
    workers: usize,
    busy: AtomicUsize,
    tasks_run: AtomicU64,
    queries_started: AtomicU64,
    queries_finished: AtomicU64,
    queries_on_submitter: AtomicU64,
    /// Memory-grant carve wait times (see
    /// [`RuntimeSnapshot::grant_wait`]).
    grant_wait: LatencyHisto,
}

impl RtShared {
    /// Called from a step of the query registered in `slot`: queues the
    /// tasks it `woke` and wakes the workers (unless the submitter drives
    /// the query), or — `over` — ends the slot's run by dropping whatever
    /// is still queued. Ending wakes no one: a pool worker calling this is
    /// still counted in the slot's `running`, and the release that brings
    /// that count to zero wakes the submitter.
    pub(crate) fn publish(&self, slot: usize, woke: &[usize], over: bool) {
        let mut sched = self.sched.lock().unwrap();
        let s = sched.slots[slot]
            .as_mut()
            .expect("a query stays registered while its steps run");
        if over {
            s.over = true;
            s.ready.clear();
        } else {
            s.ready.extend(woke);
            if !s.on_submitter {
                self.cv.notify_all();
            }
        }
    }
}

/// A process-wide shared execution runtime: one worker pool, one memory
/// pool, any number of concurrent queries (see the module docs).
///
/// Dropping the runtime shuts the pool down (workers join). Queries must
/// not be in flight at that point — in practice the runtime is held in an
/// `Arc` that every submitter clones.
pub struct EngineRuntime {
    shared: Arc<RtShared>,
    spill_dir: Option<PathBuf>,
    handles: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for EngineRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineRuntime")
            .field("workers", &self.shared.workers)
            .field("mem_budget", &self.shared.memory.budget())
            .finish()
    }
}

impl EngineRuntime {
    /// Starts the shared pool: `opts.workers` threads (available
    /// parallelism when `None`, always at least 1) and a
    /// [`GlobalMemory`] pool of `opts.mem_budget` bytes.
    pub fn new(opts: RuntimeOptions) -> EngineRuntime {
        let workers = opts
            .workers
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            })
            .max(1);
        let shared = Arc::new(RtShared {
            sched: Mutex::new(RtSched {
                slots: Vec::new(),
                cursor: 0,
                shutdown: false,
                recent: VecDeque::new(),
            }),
            cv: Condvar::new(),
            done: Condvar::new(),
            memory: GlobalMemory::new(opts.mem_budget),
            workers,
            busy: AtomicUsize::new(0),
            tasks_run: AtomicU64::new(0),
            queries_started: AtomicU64::new(0),
            queries_finished: AtomicU64::new(0),
            queries_on_submitter: AtomicU64::new(0),
            grant_wait: LatencyHisto::new(),
        });
        let handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("strato-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn pool worker")
            })
            .collect();
        EngineRuntime {
            shared,
            spill_dir: opts.spill_dir,
            handles,
        }
    }

    /// The runtime's shared memory pool.
    pub fn memory(&self) -> &Arc<GlobalMemory> {
        &self.shared.memory
    }

    /// Point-in-time pool and memory gauges.
    pub fn snapshot(&self) -> RuntimeSnapshot {
        let (active, queued, per_query, recent) = {
            let sched = self.shared.sched.lock().unwrap();
            let mut per_query = Vec::new();
            let mut queued = 0usize;
            for s in sched.slots.iter().flatten() {
                queued += s.ready.len();
                per_query.push((s.query_id, s.ready.len()));
            }
            let recent: Vec<u64> = sched.recent.iter().copied().collect();
            (per_query.len(), queued, per_query, recent)
        };
        RuntimeSnapshot {
            workers: self.shared.workers,
            busy_workers: self.shared.busy.load(Ordering::Relaxed),
            active_queries: active,
            queued_tasks: queued,
            tasks_executed: self.shared.tasks_run.load(Ordering::Relaxed),
            queries_started: self.shared.queries_started.load(Ordering::Relaxed),
            queries_finished: self.shared.queries_finished.load(Ordering::Relaxed),
            queries_on_submitter: self.shared.queries_on_submitter.load(Ordering::Relaxed),
            mem_budget: self.shared.memory.budget(),
            mem_granted: self.shared.memory.granted(),
            mem_resident: self.shared.memory.resident(),
            mem_peak_resident: self.shared.memory.peak_resident(),
            per_query_queued: per_query,
            recent_queries: recent,
            grant_wait: self.shared.grant_wait.snapshot(),
        }
    }

    /// Builds one execution's governor: its grant carved out of the pool
    /// (capped by the query's own `mem_budget`), its scoped spill
    /// directory under the runtime's `spill_dir`.
    pub(crate) fn governor_for(&self, opts: &ExecOptions) -> MemoryGovernor {
        let t0 = Instant::now();
        let grant = self.shared.memory.carve(opts.mem_budget);
        self.shared
            .grant_wait
            .observe_ns(t0.elapsed().as_nanos() as u64);
        if let Some(tr) = &opts.trace {
            tr.record(
                "mem-grant",
                "mem",
                tr.rel_ns(t0),
                vec![("granted_bytes", grant.bytes().unwrap_or(0))],
            );
        }
        let mut gov = MemoryGovernor::with_grant(grant, self.spill_dir.clone());
        // Spill-run and merge spans land in the same recorder as the task
        // spans of the operators that triggered them.
        gov.set_trace(opts.trace.clone());
        gov
    }

    /// Registers the query `build` assembles around its slot index, with
    /// tasks `0..n_tasks` ready; blocks until its run is over and no
    /// worker is inside one of its steps; deregisters it and hands it
    /// back. With `on_submitter` the calling thread drives every step
    /// itself and the pool never sees one. Errors surface through the
    /// query's own state; this only choreographs scheduling.
    pub(crate) fn run_query(
        &self,
        n_tasks: usize,
        on_submitter: bool,
        build: impl FnOnce(usize) -> ExecState,
    ) -> ExecState {
        let query_id = self.shared.queries_started.fetch_add(1, Ordering::Relaxed) + 1;
        // `build` runs under the lock, so the free slot stays reserved.
        let mut sched = self.shared.sched.lock().unwrap();
        let slot = match sched.slots.iter().position(Option::is_none) {
            Some(free) => free,
            None => {
                sched.slots.push(None);
                sched.slots.len() - 1
            }
        };
        let query = Arc::new(build(slot));
        sched.slots[slot] = Some(SlotEntry {
            query: Arc::clone(&query),
            query_id,
            ready: (0..n_tasks).collect(),
            running: 0,
            over: false,
            on_submitter,
        });
        if on_submitter {
            // The calling thread drives the query. With a single driver a
            // task that yields has always made its producer or consumer
            // ready, so the queue runs dry only once it is over.
            self.shared
                .queries_on_submitter
                .fetch_add(1, Ordering::Relaxed);
            while let Some(t) = sched.slots[slot].as_mut().and_then(|s| s.ready.pop_front()) {
                drop(sched);
                query.run(&self.shared, t);
                sched = self.shared.sched.lock().unwrap();
            }
        } else {
            self.shared.cv.notify_all();
            while !sched.slots[slot]
                .as_ref()
                .is_some_and(|s| s.over && s.running == 0)
            {
                sched = self.shared.done.wait(sched).unwrap();
            }
        }
        sched.slots[slot] = None;
        // Remember the finished id in the bounded recently-completed
        // window (how the metrics renderer terminates per-query series
        // without leaking one series per query ever run).
        if sched.recent.len() >= RECENT_QUERIES {
            sched.recent.pop_front();
        }
        sched.recent.push_back(query_id);
        drop(sched);
        self.shared.queries_finished.fetch_add(1, Ordering::Relaxed);
        // Workers drop their handle before they leave the slot, and the
        // slot's own went with it: this is the last one.
        Arc::try_unwrap(query).unwrap_or_else(|_| unreachable!("no worker is inside the query"))
    }

    /// [`crate::execute_with`] on this runtime: same lowering, same
    /// scheduler, same results — only the workers and the memory budget
    /// are this runtime's, shared with every query registered with it.
    pub fn execute_with(
        &self,
        plan: &Plan,
        phys: &PhysPlan,
        inputs: &Inputs,
        dop: usize,
        opts: &ExecOptions,
    ) -> Result<(DataSet, ExecStats), ExecError> {
        let stats = ExecStats::with_ops(plan.ctx.ops.len());
        pipeline::run(plan, &phys.root, inputs, dop, opts, stats, self)
    }
}

/// The runtime every standalone call ([`crate::execute_with`] and
/// friends, [`crate::profile()`]) registers with, started on the first such
/// call: one worker, the OS temp directory for spills and an unbounded
/// memory pool, so [`ExecOptions::mem_budget`] is exactly a standalone
/// query's grant. A process that never makes a standalone call starts no
/// thread for it.
///
/// One worker, because each pool worker allocates from an allocator arena
/// of its own, which keeps what a run frees there: with one worker per
/// core, every worker that stepped stratobench's large dop-1 set-up oracle
/// kept its own copy of that run's peak, and `udf_flows` read 1.27× the
/// peak RSS of the oracle run inline (2-core host). Standalone calls are
/// oracles, tests, examples and profiling; a caller that times parallel
/// execution holds a runtime of its own (`strato_bench::timing_runtime`).
///
/// A standalone call must not be made from inside a pool worker (from a
/// task step): the worker would wait for steps that only workers run, and
/// once every worker waits so the pool stalls. No caller does.
pub(crate) fn process() -> &'static EngineRuntime {
    static PROCESS: OnceLock<EngineRuntime> = OnceLock::new();
    PROCESS.get_or_init(|| {
        EngineRuntime::new(RuntimeOptions {
            workers: Some(1),
            mem_budget: None,
            spill_dir: None,
        })
    })
}

impl Drop for EngineRuntime {
    fn drop(&mut self) {
        {
            let mut sched = self.shared.sched.lock().unwrap();
            sched.shutdown = true;
            self.shared.cv.notify_all();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// One worker of the shared pool: round-robin across registered queries,
/// one cooperative task step per pick. Leaving the previous step's slot
/// and picking the next step take one lock acquisition.
fn worker_loop(shared: &RtShared) {
    let mut last: Option<usize> = None;
    loop {
        let (slot, query, t) = {
            let mut sched = shared.sched.lock().unwrap();
            if let Some(i) = last {
                let s = sched.slots[i]
                    .as_mut()
                    .expect("a slot outlives the workers inside it");
                s.running -= 1;
                if s.over && s.running == 0 {
                    shared.done.notify_all();
                }
            }
            loop {
                if sched.shutdown {
                    return;
                }
                if let Some(picked) = sched.pick() {
                    break picked;
                }
                sched = shared.cv.wait(sched).unwrap();
            }
        };
        shared.busy.fetch_add(1, Ordering::Relaxed);
        query.run(shared, t);
        // Before leaving the slot: once its `running` count drops to zero
        // the submitter must hold the only handle.
        drop(query);
        shared.busy.fetch_sub(1, Ordering::Relaxed);
        shared.tasks_run.fetch_add(1, Ordering::Relaxed);
        last = Some(slot);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{execute_logical, execute_with};
    use strato_core::{cost::CostWeights, physical::best_physical, PropTable};
    use strato_dataflow::{CostHints, ProgramBuilder, PropertyMode, SourceDef};
    use strato_record::{Record, Value};

    fn sum_plan(rows: i64) -> (Plan, PhysPlan, Inputs) {
        let mut p = ProgramBuilder::new();
        let s = p.source(SourceDef::new("s", &["k", "v"], rows as u64));
        let r = p.reduce(
            "sum",
            &[0],
            crate::testutil::sum_inplace(2, 1),
            CostHints::default().with_distinct_keys(8),
            s,
        );
        let plan = p.finish(r).unwrap().bind().unwrap();
        let props = PropTable::build(&plan, PropertyMode::Sca);
        let phys = best_physical(&plan, &props, &CostWeights::default(), 4);
        let ds: DataSet = (0..rows)
            .map(|i| Record::from_values([Value::Int(i % 8), Value::Int(i)]))
            .collect();
        let mut inputs = Inputs::new();
        inputs.insert("s".into(), ds);
        (plan, phys, inputs)
    }

    #[test]
    fn runtime_execution_matches_standalone_and_reuses_the_pool() {
        let (plan, phys, inputs) = sum_plan(200);
        // Below the source's 200 rows, so the pool drives every query.
        let opts = ExecOptions {
            batch_size: 64,
            ..ExecOptions::default()
        };
        let (reference, ref_stats) = execute_with(&plan, &phys, &inputs, 4, &opts).unwrap();

        let rt = EngineRuntime::new(RuntimeOptions {
            workers: Some(2),
            ..RuntimeOptions::default()
        });
        // Sequential reuse: the pool survives across queries.
        for _ in 0..3 {
            let (out, stats) = rt.execute_with(&plan, &phys, &inputs, 4, &opts).unwrap();
            assert_eq!(out, reference, "shared pool must be byte-identical");
            assert_eq!(stats.totals(), ref_stats.totals());
        }
        let logical_plan = PhysPlan::logical(&plan);
        let (logical, _) = rt
            .execute_with(&plan, &logical_plan, &inputs, 1, &opts)
            .unwrap();
        assert_eq!(logical, execute_logical(&plan, &inputs).unwrap().0);

        let snap = rt.snapshot();
        assert_eq!(snap.workers, 2);
        assert_eq!(snap.queries_started, 4);
        assert_eq!(snap.queries_finished, 4);
        assert_eq!(snap.active_queries, 0, "all slots freed");
        assert!(snap.tasks_executed > 0, "the pool really ran the tasks");
        assert_eq!(snap.queries_on_submitter, 0);
        assert_eq!(snap.mem_resident, 0, "all operator state released");
        assert_eq!(snap.mem_granted, 0, "all grants returned");
    }

    #[test]
    fn runtime_contains_worker_panics_and_stays_usable() {
        // A panicking UDF fails its own query; the pool workers survive
        // (the unwind is caught at the task boundary, inside the step).
        let mut p = ProgramBuilder::new();
        let s = p.source(SourceDef::new("s", &["v"], 4));
        let boom = {
            use strato_ir::{FuncBuilder, UdfKind};
            let mut b = FuncBuilder::new("boom", UdfKind::Map, vec![1]);
            let v = b.get_input(0, 0);
            b.call(strato_ir::Intrinsic::AbortIf, vec![v]);
            let or = b.copy_input(0);
            b.emit(or);
            b.ret();
            b.finish().unwrap()
        };
        let m = p.map("boom", boom, CostHints::default(), s);
        let plan = p.finish(m).unwrap().bind().unwrap();
        let mut inputs = Inputs::new();
        inputs.insert(
            "s".into(),
            [0i64, 7, 0, 0]
                .iter()
                .map(|&v| Record::from_values([Value::Int(v)]))
                .collect::<DataSet>(),
        );

        let rt = EngineRuntime::new(RuntimeOptions {
            workers: Some(2),
            ..RuntimeOptions::default()
        });
        // One row per batch: every source spans several, so the pool's
        // workers run the steps and one of them catches the unwind.
        let opts = ExecOptions {
            batch_size: 1,
            ..ExecOptions::default()
        };
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let err = rt
            .execute_with(&plan, &PhysPlan::logical(&plan), &inputs, 1, &opts)
            .unwrap_err();
        std::panic::set_hook(prev);
        assert!(matches!(err, ExecError::Panic { .. }), "{err}");

        // The pool is still alive: a healthy query runs fine after.
        let (plan2, phys2, inputs2) = sum_plan(50);
        let (out, _) = rt.execute_with(&plan2, &phys2, &inputs2, 2, &opts).unwrap();
        let (reference, _) = crate::engine::execute(&plan2, &phys2, &inputs2, 2).unwrap();
        assert_eq!(out, reference);
        assert_eq!(rt.snapshot().queries_on_submitter, 0);
    }

    #[test]
    fn failed_join_returns_its_memory_and_leaves_the_runtime_usable() {
        // The join's Pair UDF aborts in `finish`, after both sides were
        // buffered in governed run buffers: the failed operator's buffers
        // release their charges as they drop, and the query's grant must
        // return to the pool.
        let mut p = ProgramBuilder::new();
        let l = p.source(SourceDef::new("l", &["k", "v"], 64));
        let r = p.source(SourceDef::new("r", &["k2"], 64));
        let join = {
            use strato_ir::{FuncBuilder, UdfKind};
            let mut b = FuncBuilder::new("boom", UdfKind::Pair, vec![2, 1]);
            let v = b.get_input(0, 1);
            b.call(strato_ir::Intrinsic::AbortIf, vec![v]);
            let or = b.concat_inputs();
            b.emit(or);
            b.ret();
            b.finish().unwrap()
        };
        let j = p.match_("boom", &[0], &[0], join, CostHints::default(), l, r);
        let plan = p.finish(j).unwrap().bind().unwrap();
        let props = PropTable::build(&plan, PropertyMode::Sca);
        let phys = best_physical(&plan, &props, &CostWeights::default(), 2);
        let inputs = |abort_at: i64| {
            let left: DataSet = (0..64)
                .map(|i| {
                    Record::from_values([Value::Int(i % 8), Value::Int((i == abort_at) as i64)])
                })
                .collect();
            let right: DataSet = (0..64)
                .map(|i| Record::from_values([Value::Int(i % 8)]))
                .collect();
            let mut inputs = Inputs::new();
            inputs.insert("l".into(), left);
            inputs.insert("r".into(), right);
            inputs
        };

        let rt = EngineRuntime::new(RuntimeOptions {
            workers: Some(2),
            mem_budget: Some(1 << 20),
            ..RuntimeOptions::default()
        });
        let opts = ExecOptions {
            mem_budget: Some(1 << 20),
            ..ExecOptions::default()
        };
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let err = rt
            .execute_with(&plan, &phys, &inputs(5), 2, &opts)
            .unwrap_err();
        std::panic::set_hook(prev);
        assert!(matches!(err, ExecError::Panic { .. }), "{err}");
        assert!(rt.memory().peak_resident() > 0, "both sides were charged");
        assert_eq!(
            rt.memory().granted(),
            0,
            "the failed query's grant returned"
        );
        assert_eq!(rt.memory().resident(), 0, "its buffered bytes released");

        let healthy = inputs(-1);
        let (out, _) = rt.execute_with(&plan, &phys, &healthy, 2, &opts).unwrap();
        let (reference, _) = execute_with(&plan, &phys, &healthy, 2, &opts).unwrap();
        assert_eq!(out, reference, "the next query is byte-identical");
        assert_eq!(rt.memory().granted(), 0);
        assert_eq!(rt.memory().resident(), 0);
    }

    #[test]
    fn grants_are_carved_and_returned_per_query() {
        let (plan, phys, inputs) = sum_plan(100);
        let rt = EngineRuntime::new(RuntimeOptions {
            workers: Some(1),
            mem_budget: Some(1 << 20),
            ..RuntimeOptions::default()
        });
        let opts = ExecOptions {
            mem_budget: Some(4096),
            ..ExecOptions::default()
        };
        let (out, _) = rt.execute_with(&plan, &phys, &inputs, 2, &opts).unwrap();
        let (reference, _) = execute_with(&plan, &phys, &inputs, 2, &opts).unwrap();
        assert_eq!(out, reference);
        assert_eq!(rt.memory().granted(), 0, "grant returned after the run");
        assert_eq!(rt.memory().resident(), 0);
    }
}
