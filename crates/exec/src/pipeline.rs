//! Lowering plans to a streaming task graph, and the worker-pool scheduler
//! that drives it.
//!
//! This module is the **single** execution path of the crate: every entry
//! point hands a [`PhysNode`] tree to `TaskGraph::build`, which flattens
//! it into tasks, and runs them through the same scheduler.
//! [`crate::execute`] passes the optimizer's ship + local strategy
//! choices at the requested degree of parallelism;
//! [`crate::execute_logical`] passes [`strato_core::PhysPlan::logical`]
//! (all-Forward ships, each PACT's default local algorithm) at `dop = 1`.
//!
//! ## Execution model
//!
//! The plan is flattened into one **task** per `stage × partition`.
//! Tasks communicate through bounded channels of `Arc<RecordBatch>`es: a
//! task pulls arriving batches from its input channels, drives its
//! [`crate::operators::Operator`] incrementally (push per batch → finish
//! once every input channel closes), and routes its output batches
//! downstream through a per-task `crate::ship::Router` — so shipping is
//! per-batch and producer stages overlap consumer stages, instead of the
//! old materialize-everything-then-ship barrier.
//!
//! Tasks are *cooperatively* scheduled onto the worker pool of an
//! [`EngineRuntime`] (morsel style): a task never blocks a worker. It
//! yields when its inputs are momentarily empty (re-queued when a batch
//! arrives) or when a downstream channel holds `CHANNEL_CAPACITY` batches
//! (re-queued when the consumer drains — this is the backpressure that
//! bounds in-flight memory). Because the graph is a tree whose sink never
//! blocks, a full channel always implies a runnable consumer, so the
//! scheduler cannot deadlock at any pool size.
//!
//! Worker panics (e.g. a buggy third-party UDF component that aborts
//! instead of erroring) are caught at the task boundary and surfaced as
//! [`ExecError::Panic`] with the operator's name — a panicking UDF fails
//! the query, not the process.
//!
//! Every operator is its own stage, so a task runs exactly one operator
//! and each step's time is charged to that operator alone (the
//! per-operator `nanos` that EXPLAIN ANALYZE, `/metrics` and the profiler
//! read).
//!
//! Blocking operators (Reduce, Match, Cross, CoGroup) keep buffering
//! internally, so operator semantics — and the equivalence oracle — are
//! unchanged; only the transport is streaming.
//!
//! ## One driver
//!
//! Every run registers with an [`EngineRuntime`], which keeps the run's
//! ready queue in the query's slot under the runtime's one scheduler
//! lock; the run's own lock guards only its channels and task states, and
//! every task a step wakes is pushed to that slot. The run owns what it
//! runs — its input data sets, the plan's operators, its stats and its
//! memory governor — so the runtime holds it as an `Arc`, and its workers
//! take one task step per pick, round-robin across in-flight queries,
//! each through its own clone of that `Arc`. A run whose every source
//! fits in one batch is driven by its submitter instead, which pops its
//! own slot until the run is over (see the runtime's "Fair scheduling"
//! docs); every other run is stepped by the pool, at any `dop`. The
//! standalone entry points ([`crate::execute_with`] and friends) register
//! with one process-wide runtime like any other query.

use crate::engine::{ExecError, Inputs};
use crate::operators::{self, OpCtx, Operator};
use crate::runtime::{EngineRuntime, RtShared};
use crate::ship::{Outbound, Router};
use crate::stats::ExecStats;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use strato_core::{LocalStrategy, PhysNode, Ship};
use strato_dataflow::{NodeKind, Plan};
use strato_record::{BatchBuilder, DataSet, RecordBatch};

/// Tuning knobs of one execution. The defaults reproduce production
/// behavior; tests sweep them.
///
/// Results are byte-identical at every option combination — options change
/// resource usage (parallelism, memory), never semantics.
///
/// ```
/// use strato_exec::ExecOptions;
/// let opts = ExecOptions {
///     batch_size: 256,
///     mem_budget: Some(16 << 20), // spill past 16 MiB of buffered state
///     ..ExecOptions::default()
/// };
/// ```
#[derive(Debug, Clone)]
pub struct ExecOptions {
    /// Target records per batch flowing between operators. A scan
    /// partition cuts its rows into batches of exactly `batch_size`, and
    /// an operator does the same with each `push`'s and `finish`'s output,
    /// so each ends with at most one partial batch. Forward and Broadcast
    /// edges deliver those batches as they are. A Partition edge rebuilds
    /// them per destination and hands a destination's batch on once a
    /// routed batch brings it to `batch_size` rows, so it delivers up to
    /// `batch_size` + one routed batch − 1 rows in one batch.
    pub batch_size: usize,
    /// Cap, in bytes, on the [`MemoryGrant`](crate::spill::MemoryGrant)
    /// this execution carves from its runtime's
    /// [`GlobalMemory`](crate::spill::GlobalMemory) pool: the grant is
    /// `min(mem_budget, pool remainder)`, and `None` claims the whole
    /// remainder. The pool of the process-wide runtime that standalone
    /// calls register with is unbounded, so there the grant is exactly
    /// `mem_budget` (`None` = ungoverned). All blocking operators of the
    /// execution charge the grant ([`crate::spill::MemoryGovernor`]); when
    /// buffered state exceeds it they shed to sorted runs on disk and
    /// finish via k-way merge — results are byte-identical, only memory
    /// and disk traffic change. The default equals the cost model's
    /// [`strato_core::cost::CostWeights::mem_budget`], so the optimizer's
    /// spill charges describe what this engine actually does.
    pub mem_budget: Option<u64>,
    /// Span recorder for end-to-end query tracing
    /// ([`crate::trace::TraceRecorder`]). `None` (the default) disables
    /// tracing entirely: every instrumentation point reduces to one
    /// `Option` check, so the untraced hot path stays unmeasurably close
    /// to a build without the subsystem. When set, the execution records
    /// task-step, ship/scatter, spill-run, k-way-merge and memory-grant
    /// spans into the recorder's one bounded ring buffer.
    pub trace: Option<std::sync::Arc<crate::trace::TraceRecorder>>,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions {
            batch_size: RecordBatch::DEFAULT_SIZE,
            mem_budget: Some(strato_core::cost::DEFAULT_MEM_BUDGET_BYTES),
            trace: None,
        }
    }
}

// ---------------------------------------------------------------------------
// Task graph: the physical plan flattened, one stage per plan node.
// ---------------------------------------------------------------------------

/// One input edge of a flattened stage.
#[derive(Debug, Clone)]
struct FlatInput {
    /// Producer stage id.
    child: usize,
    /// How the producer's partitions reach this stage's partitions.
    ship: Ship,
}

#[derive(Debug, Clone)]
enum FlatKind {
    /// Scan a source (index into `plan.ctx.sources`).
    Scan(usize),
    /// Apply operator `op` with its local strategy.
    Apply { op: usize, local: LocalStrategy },
}

#[derive(Debug, Clone)]
struct FlatStage {
    kind: FlatKind,
    inputs: Vec<FlatInput>,
    /// `(consumer stage, port)` — `None` for the root.
    consumer: Option<(usize, usize)>,
    /// First channel id of each input port; port `i`, partition `p` reads
    /// channel `chan_base[i] + p`.
    chan_base: Vec<usize>,
}

/// The flattened form of a physical plan. Stage ids are post-order; the
/// root is always the last stage.
pub(crate) struct TaskGraph {
    stages: Vec<FlatStage>,
    n_chans: usize,
}

impl TaskGraph {
    pub(crate) fn build(root: &PhysNode, dop: usize) -> TaskGraph {
        let mut stages: Vec<FlatStage> = Vec::new();
        flatten(root, &mut stages);
        // Wire consumers and assign contiguous channel ranges per edge.
        let mut n_chans = 0;
        for s in 0..stages.len() {
            let inputs = stages[s].inputs.clone();
            for (port, inp) in inputs.iter().enumerate() {
                stages[inp.child].consumer = Some((s, port));
                stages[s].chan_base.push(n_chans);
                n_chans += dop;
            }
        }
        TaskGraph { stages, n_chans }
    }
}

fn push_stage(stages: &mut Vec<FlatStage>, kind: FlatKind, inputs: Vec<FlatInput>) -> usize {
    stages.push(FlatStage {
        kind,
        inputs,
        consumer: None,
        chan_base: vec![],
    });
    stages.len() - 1
}

/// Post-order flattening; returns the stage id realizing `node`.
fn flatten(node: &PhysNode, stages: &mut Vec<FlatStage>) -> usize {
    let op = match node.logical.kind {
        NodeKind::Source(s) => return push_stage(stages, FlatKind::Scan(s), vec![]),
        NodeKind::Op(o) => o,
    };
    let children: Vec<usize> = node.children.iter().map(|c| flatten(c, stages)).collect();
    let kind = FlatKind::Apply {
        op,
        local: node.local,
    };
    let inputs = children
        .into_iter()
        .zip(node.ships.iter().cloned())
        .map(|(child, ship)| FlatInput { child, ship })
        .collect();
    push_stage(stages, kind, inputs)
}

// ---------------------------------------------------------------------------
// Scheduler core: bounded channels + cooperative task states.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TState {
    /// Waiting for input data or output space; not queued.
    Idle,
    /// In the runtime's ready queue, or popped and not yet started.
    Ready,
    /// A worker is executing a step.
    Running,
    /// Running, and new input/space arrived meanwhile: re-queue on yield.
    RunningDirty,
    Done,
}

struct Chan {
    queue: VecDeque<Arc<RecordBatch>>,
    /// Producer tasks that have not yet closed this channel.
    senders: usize,
    /// The task reading this channel.
    consumer: usize,
    /// Producer tasks parked on this channel being full.
    waiting: Vec<usize>,
}

struct Core {
    chans: Vec<Chan>,
    state: Vec<TState>,
    /// Tasks not yet `Done`.
    live: usize,
    error: Option<ExecError>,
}

impl Core {
    /// Makes `t` runnable after new input/space. Returns whether it must
    /// be queued.
    fn wake(&mut self, t: usize) -> bool {
        match self.state[t] {
            TState::Idle => {
                self.state[t] = TState::Ready;
                true
            }
            TState::Running => {
                self.state[t] = TState::RunningDirty;
                false
            }
            _ => false,
        }
    }
}

enum Recv {
    Batch(Arc<RecordBatch>),
    /// Channel momentarily empty but producers remain.
    Empty,
    /// All producers closed and the queue is drained.
    Eof,
    /// The run is failing; unwind the step.
    Abort,
}

enum SendRes {
    Sent,
    /// Channel at capacity; the sender has been parked on it.
    Full(Arc<RecordBatch>),
    Abort,
}

/// Bound of each inter-task channel, in batches. A full channel parks
/// its producer task until the consumer drains it (backpressure).
const CHANNEL_CAPACITY: usize = 8;

struct Sched {
    core: Mutex<Core>,
    /// Root output: unbounded, so the sink task never blocks (this is what
    /// makes the whole graph deadlock-free under backpressure).
    sink: Mutex<Vec<RecordBatch>>,
    stats: Arc<ExecStats>,
    /// The execution's slot in the runtime it is registered with, which
    /// holds its ready queue. The runtime itself is passed into every step
    /// (`rt`), so the query holds no reference back to it.
    slot: usize,
    /// Span recorder when this execution is traced (`None` = tracing off,
    /// see [`ExecOptions::trace`]).
    trace: Option<Arc<crate::trace::TraceRecorder>>,
    /// Degree of parallelism, for decoding task ids into
    /// `stage × partition` span labels.
    dop: usize,
}

impl Sched {
    /// With the core lock held: queues the tasks a mutation `woke` in the
    /// runtime's slot, or ends the slot once the run drained (`done`) or
    /// failed. Every path that makes a task ready, sets the error, or
    /// finishes the run funnels through here.
    fn publish(&self, rt: &RtShared, core: &Core, woke: &[usize], done: bool) {
        // Aborting drops everything queued so workers stop picking tasks
        // that would only yield again (task states stay as they are; the
        // whole graph is torn down once the submitter returns).
        let over = done || core.error.is_some();
        if over || !woke.is_empty() {
            rt.publish(self.slot, woke, over);
        }
    }

    fn try_send(&self, rt: &RtShared, chan: usize, batch: Arc<RecordBatch>, me: usize) -> SendRes {
        let mut core = self.core.lock().unwrap();
        if core.error.is_some() {
            return SendRes::Abort;
        }
        let c = &mut core.chans[chan];
        if c.queue.len() >= CHANNEL_CAPACITY {
            if !c.waiting.contains(&me) {
                c.waiting.push(me);
            }
            return SendRes::Full(batch);
        }
        c.queue.push_back(batch);
        let consumer = c.consumer;
        if core.wake(consumer) {
            self.publish(rt, &core, &[consumer], false);
        }
        SendRes::Sent
    }

    fn try_recv(&self, rt: &RtShared, chan: usize) -> Recv {
        let mut core = self.core.lock().unwrap();
        if core.error.is_some() {
            return Recv::Abort;
        }
        let c = &mut core.chans[chan];
        match c.queue.pop_front() {
            Some(b) => {
                // Space freed: unpark every producer parked on this channel
                // (they re-check and may re-park; the list is ≤ dop long).
                let mut woke = std::mem::take(&mut c.waiting);
                woke.retain(|&w| core.wake(w));
                self.publish(rt, &core, &woke, false);
                Recv::Batch(b)
            }
            None if c.senders == 0 => Recv::Eof,
            None => Recv::Empty,
        }
    }

    /// Marks `t` finished: closes its outbound channels (waking consumers
    /// that must now observe EOF) and releases waiting workers when the
    /// whole run drains.
    fn finish_task(&self, rt: &RtShared, t: usize, closes: &[usize]) {
        let mut core = self.core.lock().unwrap();
        core.state[t] = TState::Done;
        core.live -= 1;
        let mut woke = Vec::new();
        for &chan in closes {
            let c = &mut core.chans[chan];
            c.senders -= 1;
            if c.senders == 0 {
                let consumer = c.consumer;
                if core.wake(consumer) {
                    woke.push(consumer);
                }
            }
        }
        let done = core.live == 0;
        self.publish(rt, &core, &woke, done);
    }

    /// Parks a yielded task — unless something arrived while it ran, in
    /// which case it goes straight back on the queue.
    fn park(&self, rt: &RtShared, t: usize) {
        let mut core = self.core.lock().unwrap();
        match core.state[t] {
            TState::RunningDirty => {
                core.state[t] = TState::Ready;
                self.publish(rt, &core, &[t], false);
            }
            TState::Running => core.state[t] = TState::Idle,
            _ => unreachable!("yielded task in state {:?}", core.state[t]),
        }
    }

    /// Records the first error and aborts the run.
    fn fail(&self, rt: &RtShared, t: usize, e: ExecError) {
        let mut core = self.core.lock().unwrap();
        if core.error.is_none() {
            core.error = Some(e);
        }
        core.state[t] = TState::Done;
        core.live -= 1;
        self.publish(rt, &core, &[], true);
    }
}

// ---------------------------------------------------------------------------
// Task bodies and the cooperative step function.
// ---------------------------------------------------------------------------

struct Port {
    chan: usize,
    open: bool,
}

enum Work {
    /// Scan: widen this partition's round-robin share of the source rows
    /// (indices `next, next + stride, …`) straight into column builders,
    /// one batch at a time. The widen step runs *inside* the task, so at
    /// `dop = n` it parallelizes n ways.
    ColScan {
        /// The source data set (a shared handle, not a copy).
        rows: DataSet,
        /// Next source row of this partition.
        next: usize,
        /// Partition stride (= dop).
        stride: usize,
        /// Global column → source field (`None` = null-fill), shared by
        /// the stage's partitions.
        map: Arc<Vec<Option<usize>>>,
        builder: BatchBuilder,
        batch_size: usize,
    },
    /// Drive one operator instance over arriving batches.
    Op {
        oper: Box<dyn Operator>,
        ports: Vec<Port>,
        /// Round-robin cursor over ports, for receive fairness.
        rr: usize,
    },
}

enum Output {
    /// Root: collect into the shared sink.
    Sink,
    /// Boxed: the Partition router carries scatter scratch buffers that
    /// would otherwise dominate every task body's footprint.
    Route(Box<Router>),
}

struct TaskBody {
    id: usize,
    /// Operator (or source) name, for panic attribution.
    name: String,
    /// Operator id for per-op time attribution (`None` for scans).
    op_id: Option<usize>,
    work: Work,
    out: Output,
    /// Batches routed but not yet accepted by their channel.
    pending: Outbound,
    /// Production finished; only `pending` remains.
    finished: bool,
    /// Channels this task closes when done.
    closes: Vec<usize>,
}

enum StepOutcome {
    /// Task completed (production finished and outbound drained).
    Done,
    /// Waiting for input or output space; the scheduler re-queues it.
    Yield,
}

/// Runs one cooperative step of a task: drain outbound, then produce until
/// inputs run dry, the output backs up, or the task completes. Never
/// blocks.
fn step(body: &mut TaskBody, sched: &Sched, rt: &RtShared) -> Result<StepOutcome, ExecError> {
    let mut scratch: Vec<RecordBatch> = Vec::new();
    loop {
        // 1. Flush routed batches; a full channel parks us (the try_send
        //    registered us on its waiting list).
        while let Some((chan, batch)) = body.pending.pop_front() {
            match sched.try_send(rt, chan, batch, body.id) {
                SendRes::Sent => {}
                SendRes::Full(batch) => {
                    body.pending.push_front((chan, batch));
                    return Ok(StepOutcome::Yield);
                }
                SendRes::Abort => return Ok(StepOutcome::Yield),
            }
        }
        if body.finished {
            return Ok(StepOutcome::Done);
        }

        // 2. Produce the next output batches into `scratch`.
        let mut produced_final = false;
        match &mut body.work {
            Work::ColScan {
                rows,
                next,
                stride,
                map,
                builder,
                batch_size,
            } => {
                let rows = rows.records();
                while *next < rows.len() && builder.len() < *batch_size {
                    builder.push_widened(&rows[*next], map);
                    *next += *stride;
                }
                if builder.is_empty() {
                    produced_final = true;
                } else {
                    let cb = builder.take();
                    sched
                        .stats
                        .add_batch_cells(cb.null_cells() as u64, cb.total_cells() as u64);
                    scratch.push(cb);
                }
            }
            Work::Op { oper, ports, rr } => {
                let np = ports.len();
                let mut got = None;
                let mut any_open = false;
                for k in 0..np {
                    let i = (*rr + k) % np;
                    if !ports[i].open {
                        continue;
                    }
                    match sched.try_recv(rt, ports[i].chan) {
                        Recv::Batch(b) => {
                            got = Some((i, b));
                            *rr = (i + 1) % np;
                            break;
                        }
                        Recv::Empty => any_open = true,
                        Recv::Eof => ports[i].open = false,
                        Recv::Abort => return Ok(StepOutcome::Yield),
                    }
                }
                match got {
                    Some((port, b)) => oper.push(port, b, &mut scratch)?,
                    None if any_open => return Ok(StepOutcome::Yield),
                    None => {
                        oper.finish(&mut scratch)?;
                        produced_final = true;
                    }
                }
            }
        }

        // 3. Route what was produced.
        match &mut body.out {
            Output::Sink => sched.sink.lock().unwrap().extend(scratch.drain(..)),
            Output::Route(r) => {
                // Ship/scatter span: only for routers that move data across
                // partitions, and only when this step produced something.
                let ship_t0 = match &sched.trace {
                    Some(tr) if r.ships() && !scratch.is_empty() => Some(tr.now_ns()),
                    _ => None,
                };
                let routed = scratch.len() as u64;
                for b in scratch.drain(..) {
                    r.route(b, &mut body.pending, &sched.stats);
                }
                if produced_final {
                    r.finish(&mut body.pending);
                }
                if let (Some(t0), Some(tr)) = (ship_t0, &sched.trace) {
                    tr.record("ship", "ship", t0, vec![("batches", routed)]);
                }
            }
        }
        if produced_final {
            body.finished = true;
        }
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// One in-flight execution: the scheduler core plus every task body.
/// [`EngineRuntime::run_query`] registers it with the pool, which holds it
/// as an `Arc` while its workers run its task steps.
pub(crate) struct ExecState {
    sched: Sched,
    bodies: Vec<Mutex<TaskBody>>,
}

impl ExecState {
    /// Runs one step of task `t` and files the outcome with `rt`, the
    /// runtime this execution is registered with. Panics unwinding out of
    /// a step become [`ExecError::Panic`] carrying the operator name;
    /// elapsed time is attributed to the task's own operator slot —
    /// `self.sched.stats` belongs to exactly one query, so attribution
    /// stays per-query even when pool workers interleave queries.
    pub(crate) fn run(&self, rt: &RtShared, t: usize) {
        {
            let mut core = self.sched.core.lock().unwrap();
            if core.error.is_some() {
                // Popped just before the run failed.
                return;
            }
            core.state[t] = TState::Running;
        }
        // Only the worker that moved `t` to Running touches its body, so
        // this lock is uncontended; it exists to make the borrow safe.
        let mut body = self.bodies[t].lock().unwrap();
        let started = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(|| step(&mut body, &self.sched, rt)));
        if let Some(op) = body.op_id {
            self.sched
                .stats
                .add_op_nanos(op, started.elapsed().as_nanos() as u64);
        }
        if let Some(tr) = &self.sched.trace {
            // Task ids are stage-major: `stage * dop + partition`.
            tr.record(
                &body.name,
                "task",
                tr.rel_ns(started),
                vec![
                    ("stage", (t / self.sched.dop) as u64),
                    ("partition", (t % self.sched.dop) as u64),
                ],
            );
        }
        match result {
            Ok(Ok(StepOutcome::Done)) => self.sched.finish_task(rt, t, &body.closes),
            Ok(Ok(StepOutcome::Yield)) => self.sched.park(rt, t),
            Ok(Err(e)) => self.sched.fail(rt, t, e),
            Err(payload) => self.sched.fail(
                rt,
                t,
                ExecError::Panic {
                    op: body.name.clone(),
                    message: panic_message(payload),
                },
            ),
        }
    }
}

// ---------------------------------------------------------------------------
// Driver: build bodies, run the pool, gather the sink.
// ---------------------------------------------------------------------------

/// Runs a physical plan to completion on `runtime`'s pool, charging
/// `stats` (the profiler passes detailed ones), and gathers the root's
/// output.
pub(crate) fn run(
    plan: &Plan,
    root: &PhysNode,
    inputs: &Inputs,
    dop: usize,
    opts: &ExecOptions,
    stats: ExecStats,
    runtime: &EngineRuntime,
) -> Result<(DataSet, ExecStats), ExecError> {
    let dop = dop.max(1);
    let graph = TaskGraph::build(root, dop);
    let n_tasks = graph.stages.len() * dop;
    // Every source fits in one batch, so each scan partition emits at
    // most one batch and no stage can overlap another: the submitter
    // drives the run, because a pool hand-off costs more than it saves.
    let one_batch = graph.stages.iter().all(|s| match s.kind {
        FlatKind::Scan(src) => !inputs
            .get(&plan.ctx.sources[src].name)
            .is_some_and(|ds| ds.len() > opts.batch_size.max(1)),
        FlatKind::Apply { .. } => true,
    });

    // The execution's memory grant, carved out of the runtime's pool and
    // shared by every operator. It returns to the pool, and its scoped
    // spill directory disappears, when the last handle drops — before this
    // function returns, on every exit path, including a worker panic
    // surfaced as `ExecError::Panic`.
    let gov = Arc::new(runtime.governor_for(opts));
    let stats = Arc::new(stats);
    let op_ctx = |op_id: usize| {
        OpCtx::new(
            Arc::clone(&plan.ctx),
            Arc::clone(&stats),
            Arc::clone(&gov),
            opts.batch_size,
            op_id,
        )
    };

    // Channel table: consumer stage × port × partition, ids matching the
    // `chan_base` ranges assigned at graph build.
    let mut chans: Vec<Chan> = Vec::with_capacity(graph.n_chans);
    for (sid, s) in graph.stages.iter().enumerate() {
        for inp in &s.inputs {
            let senders = match inp.ship {
                Ship::Forward => 1,
                Ship::Partition(_) | Ship::Broadcast => dop,
            };
            for p in 0..dop {
                chans.push(Chan {
                    queue: VecDeque::new(),
                    senders,
                    consumer: sid * dop + p,
                    waiting: Vec::new(),
                });
            }
        }
    }
    debug_assert_eq!(chans.len(), graph.n_chans);

    // Task bodies: one per (stage, partition).
    let mut bodies: Vec<Mutex<TaskBody>> = Vec::with_capacity(n_tasks);
    for (sid, s) in graph.stages.iter().enumerate() {
        // Scans share one global-attr -> source-column map per stage;
        // each partition walks its stride of the source rows.
        let scan_src = match &s.kind {
            FlatKind::Scan(src_id) => {
                let src = &plan.ctx.sources[*src_id];
                let ds = inputs
                    .get(&src.name)
                    .ok_or_else(|| ExecError::MissingInput(src.name.clone()))?;
                let mut map = vec![None; plan.ctx.width()];
                for (i, a) in src.attrs.iter().enumerate() {
                    map[a.index()] = Some(i);
                }
                Some((ds, Arc::new(map)))
            }
            _ => None,
        };

        for p in 0..dop {
            let id = sid * dop + p;
            let (work, name, op_id) = match &s.kind {
                FlatKind::Scan(src_id) => {
                    let (rows, map) = scan_src.as_ref().expect("set for scan stages");
                    let work = Work::ColScan {
                        rows: DataSet::clone(rows),
                        next: p,
                        stride: dop,
                        map: Arc::clone(map),
                        builder: BatchBuilder::new(plan.ctx.width()),
                        batch_size: opts.batch_size.max(1),
                    };
                    (work, &plan.ctx.sources[*src_id].name, None)
                }
                FlatKind::Apply { op, local } => {
                    let oper = operators::build(*local, op_ctx(*op));
                    let ports = s
                        .chan_base
                        .iter()
                        .map(|&base| Port {
                            chan: base + p,
                            open: true,
                        })
                        .collect();
                    (
                        Work::Op { oper, ports, rr: 0 },
                        &plan.ctx.ops[*op].name,
                        Some(*op),
                    )
                }
            };
            // Output routing: determined by the (unique) consumer edge.
            let (out, closes) = match s.consumer {
                None => (Output::Sink, Vec::new()),
                Some((cons, port)) => {
                    let base = graph.stages[cons].chan_base[port];
                    match &graph.stages[cons].inputs[port].ship {
                        Ship::Forward => (
                            Output::Route(Box::new(Router::forward(base + p))),
                            vec![base + p],
                        ),
                        Ship::Partition(key) => (
                            Output::Route(Box::new(Router::partition(
                                base,
                                dop,
                                op_id,
                                key,
                                opts.batch_size,
                                plan.ctx.width(),
                            ))),
                            (base..base + dop).collect(),
                        ),
                        Ship::Broadcast => (
                            Output::Route(Box::new(Router::broadcast(base, dop, op_id))),
                            (base..base + dop).collect(),
                        ),
                    }
                }
            };
            bodies.push(Mutex::new(TaskBody {
                id,
                name: name.clone(),
                op_id,
                work,
                out,
                pending: Outbound::new(),
                finished: false,
                closes,
            }));
        }
    }

    // Register with every task ready, let the runtime's workers interleave
    // this query's steps with every other in-flight query (or drive them
    // here), wait for the drain.
    let state = runtime.run_query(n_tasks, one_batch, |slot| ExecState {
        sched: Sched {
            core: Mutex::new(Core {
                chans,
                state: vec![TState::Ready; n_tasks],
                live: n_tasks,
                error: None,
            }),
            sink: Mutex::new(Vec::new()),
            stats,
            slot,
            trace: opts.trace.clone(),
            dop,
        },
        bodies,
    });

    // The query is ours alone again. Dropping its tasks drops every
    // operator, so the scheduler's handle on the stats is the last one.
    let ExecState { sched, bodies } = state;
    drop(bodies);
    let core = sched.core.into_inner().unwrap();
    if let Some(e) = core.error {
        return Err(e);
    }
    assert_eq!(core.live, 0, "run_query returned before the run drained");
    let mut all = Vec::new();
    for b in sched.sink.into_inner().unwrap() {
        all.extend(b.into_records());
    }
    let stats = Arc::try_unwrap(sched.stats)
        .unwrap_or_else(|_| unreachable!("every operator of the run was dropped"));
    Ok((DataSet::from_records(all), stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use strato_core::PhysPlan;
    use strato_dataflow::{CostHints, ProgramBuilder, SourceDef};
    use strato_ir::{BinOp, FuncBuilder, Function, UdfKind};
    use strato_record::{Record, Value};

    fn add_const(w: usize, field: usize, k: i64) -> Function {
        let mut b = FuncBuilder::new("addc", UdfKind::Map, vec![w]);
        let v = b.get_input(0, field);
        let c = b.konst(k);
        let s = b.bin(BinOp::Add, v, c);
        let or = b.copy_input(0);
        b.set(or, field, s);
        b.emit(or);
        b.ret();
        b.finish().unwrap()
    }

    fn sum_reduce(w: usize, field: usize) -> Function {
        let mut b = FuncBuilder::new("sum", UdfKind::Group, vec![w]);
        let sum = b.konst(0i64);
        let it = b.iter_open(0);
        let done = b.new_label();
        let head = b.new_label();
        b.place(head);
        let r = b.iter_next(it, done);
        let v = b.get(r, field);
        b.bin_into(sum, BinOp::Add, sum, v);
        b.jump(head);
        b.place(done);
        let it2 = b.iter_open(0);
        let nil = b.new_label();
        let first = b.iter_next(it2, nil);
        let or = b.copy(first);
        b.set(or, w, sum);
        b.emit(or);
        b.place(nil);
        b.ret();
        b.finish().unwrap()
    }

    fn three_map_plan() -> Plan {
        let mut p = ProgramBuilder::new();
        let s = p.source(SourceDef::new("s", &["a", "b"], 16));
        let m1 = p.map("m1", add_const(2, 0, 1), CostHints::default(), s);
        let m2 = p.map("m2", add_const(2, 1, 2), CostHints::default(), m1);
        let m3 = p.map("m3", add_const(2, 0, 3), CostHints::default(), m2);
        p.finish(m3).unwrap().bind().unwrap()
    }

    fn inputs_for(plan: &Plan, rows: &[&[i64]]) -> Inputs {
        let name = plan.ctx.sources[0].name.clone();
        let ds: DataSet = rows
            .iter()
            .map(|r| Record::from_values(r.iter().map(|&v| Value::Int(v))))
            .collect();
        let mut inputs = Inputs::new();
        inputs.insert(name, ds);
        inputs
    }

    #[test]
    fn every_map_is_charged_its_own_task_time() {
        use strato_core::{cost::CostWeights, physical::best_physical, PropTable};
        use strato_dataflow::PropertyMode;
        let plan = three_map_plan();
        let rows: Vec<Vec<i64>> = (0..200).map(|i| vec![i, 10 * i]).collect();
        let rows_ref: Vec<&[i64]> = rows.iter().map(|r| r.as_slice()).collect();
        let inputs = inputs_for(&plan, &rows_ref);
        let props = PropTable::build(&plan, PropertyMode::Sca);
        let cases = [
            (1, PhysPlan::logical(&plan)),
            (2, best_physical(&plan, &props, &CostWeights::default(), 2)),
        ];
        for (dop, phys) in cases {
            let opts = ExecOptions::default();
            let (out, stats) = crate::execute_with(&plan, &phys, &inputs, dop, &opts).unwrap();
            assert_eq!(out.len(), rows.len(), "dop {dop}");
            // Each Map ran every row in tasks of its own, so each has its
            // own step time.
            for (op, snap) in stats.op_snapshots().iter().enumerate() {
                let name = &plan.ctx.ops[op].name;
                assert_eq!(
                    (snap.calls, snap.emits),
                    (rows.len() as u64, rows.len() as u64),
                    "dop {dop}, {name}"
                );
                assert!(snap.nanos > 0, "dop {dop}, {name}: no task time");
            }
            let report = crate::trace::explain_analyze(&plan, &phys, &stats);
            for line in report.lines().filter(|l| l.contains("act:")) {
                assert!(
                    line.contains(" calls=0 ") || !line.contains(" time=0ns "),
                    "dop {dop}: {line}"
                );
            }
        }
    }

    #[test]
    fn scheduler_is_invariant_under_workers_and_batch() {
        let mut p = ProgramBuilder::new();
        let s = p.source(SourceDef::new("s", &["k", "v"], 64));
        let m = p.map("m", add_const(2, 1, 5), CostHints::default(), s);
        let r = p.reduce("sum", &[0], sum_reduce(2, 1), CostHints::default(), m);
        let plan = p.finish(r).unwrap().bind().unwrap();
        let logical = PhysPlan::logical(&plan);
        let rows: Vec<Vec<i64>> = (0..64).map(|i| vec![i % 7, i]).collect();
        let rows_ref: Vec<&[i64]> = rows.iter().map(|r| r.as_slice()).collect();
        let inputs = inputs_for(&plan, &rows_ref);
        let (reference, ref_stats) = crate::execute_logical(&plan, &inputs).unwrap();
        for workers in [1usize, 2, 4] {
            let rt = EngineRuntime::new(crate::runtime::RuntimeOptions {
                workers: Some(workers),
                ..Default::default()
            });
            for batch_size in [1usize, 1024] {
                let opts = ExecOptions {
                    batch_size,
                    ..ExecOptions::default()
                };
                let (out, stats) = rt.execute_with(&plan, &logical, &inputs, 1, &opts).unwrap();
                assert_eq!(out, reference, "workers={workers} batch={batch_size}");
                assert_eq!(stats.totals(), ref_stats.totals());
            }
        }
    }
}
