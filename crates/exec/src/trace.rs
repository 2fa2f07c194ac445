//! End-to-end query tracing: a lock-light per-worker span recorder, a
//! Chrome trace-event renderer, an `EXPLAIN ANALYZE` report, and the
//! log-bucketed latency histogram the server's `/metrics` endpoint
//! exports.
//!
//! ## The recorder
//!
//! A [`TraceRecorder`] belongs to **one** query. It owns a fixed set of
//! *lanes* — bounded ring buffers, one per recording thread — so workers
//! append spans without contending on a shared lock: each thread caches
//! its lane assignment in a thread-local and only ever locks its own
//! lane's (uncontended) mutex. When a lane's ring fills, the oldest spans
//! are dropped and counted ([`TraceRecorder::dropped`]) — tracing a huge
//! query degrades to a bounded window, never to unbounded memory.
//!
//! Tracing is **opt-in per execution** through
//! [`ExecOptions::trace`](crate::ExecOptions): when the option is `None`
//! (the default), every instrumentation point is a single
//! `Option` check — no clock reads, no allocation, no locking.
//!
//! Span sources threaded through the engine:
//!
//! * every cooperative **task step** (`stage × partition`, carrying
//!   `query_id`, `stage`, `partition` args),
//! * **ship/scatter** routing of produced batches,
//! * **spill run writes** and **k-way merges** (including multi-pass
//!   compaction) of the out-of-core machinery,
//! * **memory-grant** carving on the
//!   [`EngineRuntime`](crate::EngineRuntime),
//! * and, server-side, admission wait / plan compile / optimize spans.
//!
//! ## The renderers
//!
//! [`TraceRecorder::chrome_trace_json`] renders the spans as Chrome
//! trace-event JSON (`{"traceEvents": [...]}`) loadable in Perfetto or
//! `chrome://tracing`: one track per lane (≈ per worker thread), events
//! grouped under the query's pid, every span carrying its `query_id`.
//! [`explain_analyze`] renders the optimizer's **estimates** next to the
//! execution's **measurements**, per physical operator — the
//! estimate-vs-actual deltas adaptive execution will feed back.

use crate::stats::ExecStats;
use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use strato_core::{PhysNode, PhysPlan, Ship};
use strato_dataflow::{NodeKind, Plan};

/// Lanes (≈ concurrent recording threads) per recorder. Threads beyond
/// this share lanes round-robin; spans stay correct, tracks merge.
pub const TRACE_LANES: usize = 32;

/// Bounded span capacity of one lane's ring buffer. Overflow drops the
/// oldest spans (counted by [`TraceRecorder::dropped`]).
pub const LANE_CAPACITY: usize = 8192;

/// One recorded span: a named, categorized `[start, start + dur)`
/// interval relative to the recorder's epoch, plus numeric arguments.
#[derive(Debug, Clone)]
pub struct Span {
    /// Span name (operator or phase name).
    pub name: String,
    /// Category: `"task"`, `"ship"`, `"spill"`, `"merge"`, `"mem"`,
    /// `"server"`.
    pub cat: &'static str,
    /// Start, in nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Numeric arguments (`stage`, `partition`, `records`, `bytes`, …).
    pub args: Vec<(&'static str, u64)>,
}

/// One thread's bounded span ring plus the thread name for the renderer's
/// track metadata.
#[derive(Debug, Default)]
struct Lane {
    spans: VecDeque<Span>,
    thread: Option<String>,
}

/// Distinguishes recorders for the thread-local lane cache (0 = unset).
static RECORDER_SEQ: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// `(recorder id, lane index)` of this thread's last lane assignment.
    static LANE_CACHE: Cell<(u64, usize)> = const { Cell::new((0, 0)) };
}

/// Per-query span recorder. Cheap to share (`Arc`), lock-light to record
/// into (per-thread lanes), bounded in memory (ring buffers). See the
/// module docs for the overhead contract.
pub struct TraceRecorder {
    query_id: u64,
    epoch: Instant,
    rec_id: u64,
    lanes: Vec<Mutex<Lane>>,
    next_lane: AtomicUsize,
    dropped: AtomicU64,
}

impl std::fmt::Debug for TraceRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceRecorder")
            .field("query_id", &self.query_id)
            .field("dropped", &self.dropped.load(Ordering::Relaxed))
            .finish()
    }
}

impl TraceRecorder {
    /// A recorder for `query_id` whose clock starts now.
    pub fn new(query_id: u64) -> Arc<TraceRecorder> {
        Self::with_epoch(query_id, Instant::now())
    }

    /// A recorder whose clock starts at an earlier `epoch` — the server
    /// captures the epoch before admission so the admission-wait span
    /// lands at the start of the timeline.
    pub fn with_epoch(query_id: u64, epoch: Instant) -> Arc<TraceRecorder> {
        Arc::new(TraceRecorder {
            query_id,
            epoch,
            rec_id: RECORDER_SEQ.fetch_add(1, Ordering::Relaxed),
            lanes: (0..TRACE_LANES)
                .map(|_| Mutex::new(Lane::default()))
                .collect(),
            next_lane: AtomicUsize::new(0),
            dropped: AtomicU64::new(0),
        })
    }

    /// The query this recorder traces.
    pub fn query_id(&self) -> u64 {
        self.query_id
    }

    /// Nanoseconds since the recorder's epoch.
    #[inline]
    pub fn now_ns(&self) -> u64 {
        self.rel_ns(Instant::now())
    }

    /// An [`Instant`] as nanoseconds since the epoch (0 if earlier).
    #[inline]
    pub fn rel_ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a span that started at `start_ns` and ends now.
    pub fn record(
        &self,
        name: &str,
        cat: &'static str,
        start_ns: u64,
        args: Vec<(&'static str, u64)>,
    ) {
        let dur = self.now_ns().saturating_sub(start_ns);
        self.record_span(name, cat, start_ns, dur, args);
    }

    /// Records a fully specified span (explicit duration).
    pub fn record_span(
        &self,
        name: &str,
        cat: &'static str,
        start_ns: u64,
        dur_ns: u64,
        args: Vec<(&'static str, u64)>,
    ) {
        let lane_idx = self.lane_for_current_thread();
        let mut lane = self.lanes[lane_idx].lock().unwrap();
        if lane.thread.is_none() {
            lane.thread = Some(
                std::thread::current()
                    .name()
                    .map(str::to_string)
                    .unwrap_or_else(|| format!("thread-{lane_idx}")),
            );
        }
        if lane.spans.len() >= LANE_CAPACITY {
            lane.spans.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        lane.spans.push_back(Span {
            name: name.to_string(),
            cat,
            start_ns,
            dur_ns,
            args,
        });
    }

    /// The calling thread's lane, assigned round-robin on first use and
    /// cached in a thread-local keyed by recorder identity.
    fn lane_for_current_thread(&self) -> usize {
        LANE_CACHE.with(|c| {
            let (rid, lane) = c.get();
            if rid == self.rec_id {
                lane
            } else {
                let lane = self.next_lane.fetch_add(1, Ordering::Relaxed) % TRACE_LANES;
                c.set((self.rec_id, lane));
                lane
            }
        })
    }

    /// Spans dropped to the ring bound (0 in healthy traces).
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// All recorded spans as `(lane, span)` pairs, lanes in index order,
    /// spans in recording order within a lane.
    pub fn spans(&self) -> Vec<(usize, Span)> {
        let mut out = Vec::new();
        for (i, lane) in self.lanes.iter().enumerate() {
            let lane = lane.lock().unwrap();
            out.extend(lane.spans.iter().map(|s| (i, s.clone())));
        }
        out
    }

    /// Renders the trace as Chrome trace-event JSON: complete (`"ph":
    /// "X"`) events under `pid = query_id`, one `tid` per lane with a
    /// `thread_name` metadata record, timestamps in microseconds. Loads
    /// in Perfetto / `chrome://tracing` as-is.
    pub fn chrome_trace_json(&self) -> String {
        let mut out = String::with_capacity(16 * 1024);
        out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        let mut first = true;
        let mut push_event = |out: &mut String, ev: String| {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&ev);
        };
        push_event(
            &mut out,
            format!(
                "{{\"ph\":\"M\",\"pid\":{qid},\"tid\":0,\"name\":\"process_name\",\
                 \"args\":{{\"name\":\"strato query {qid}\"}}}}",
                qid = self.query_id
            ),
        );
        for (i, lane) in self.lanes.iter().enumerate() {
            let lane = lane.lock().unwrap();
            if let Some(name) = &lane.thread {
                push_event(
                    &mut out,
                    format!(
                        "{{\"ph\":\"M\",\"pid\":{},\"tid\":{i},\"name\":\"thread_name\",\
                         \"args\":{{\"name\":{}}}}}",
                        self.query_id,
                        json_string(name)
                    ),
                );
            }
            for s in &lane.spans {
                let mut args = format!("{{\"query_id\":{}", self.query_id);
                for (k, v) in &s.args {
                    args.push_str(&format!(",\"{k}\":{v}"));
                }
                args.push('}');
                push_event(
                    &mut out,
                    format!(
                        "{{\"ph\":\"X\",\"pid\":{},\"tid\":{i},\"name\":{},\"cat\":\"{}\",\
                         \"ts\":{},\"dur\":{},\"args\":{args}}}",
                        self.query_id,
                        json_string(&s.name),
                        s.cat,
                        micros(s.start_ns),
                        micros(s.dur_ns),
                    ),
                );
            }
        }
        out.push_str("]}");
        out
    }
}

/// Nanoseconds as a microsecond decimal with nanosecond precision.
fn micros(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

/// Minimal JSON string literal encoder (names can be arbitrary operator
/// names from client flows).
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

// ---------------------------------------------------------------------------
// Log-bucketed latency histograms.
// ---------------------------------------------------------------------------

/// Upper bounds (nanoseconds, inclusive) of the finite histogram buckets:
/// powers of four from 1 µs to ≈ 4.2 s. Observations beyond the last
/// bound land in the implicit `+Inf` bucket.
pub const LATENCY_BUCKETS_NS: [u64; 12] = [
    1_000,
    4_000,
    16_000,
    64_000,
    256_000,
    1_024_000,
    4_096_000,
    16_384_000,
    65_536_000,
    262_144_000,
    1_048_576_000,
    4_194_304_000,
];

/// A lock-free log-bucketed latency histogram
/// ([`LATENCY_BUCKETS_NS`] bounds plus `+Inf`), the shape the server
/// renders as a Prometheus histogram. Used for end-to-end query latency,
/// admission-queue wait and memory-grant wait.
#[derive(Debug)]
pub struct LatencyHisto {
    /// One counter per finite bound, plus the overflow (`+Inf`) bucket.
    buckets: Vec<AtomicU64>,
    sum_ns: AtomicU64,
    count: AtomicU64,
}

impl Default for LatencyHisto {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHisto {
    /// A zeroed histogram.
    pub fn new() -> Self {
        LatencyHisto {
            buckets: (0..=LATENCY_BUCKETS_NS.len())
                .map(|_| AtomicU64::new(0))
                .collect(),
            sum_ns: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }

    /// Records one observation of `ns` nanoseconds.
    pub fn observe_ns(&self, ns: u64) {
        let idx = LATENCY_BUCKETS_NS
            .iter()
            .position(|&b| ns <= b)
            .unwrap_or(LATENCY_BUCKETS_NS.len());
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Point-in-time copy of the counters.
    pub fn snapshot(&self) -> HistoSnapshot {
        HistoSnapshot {
            counts: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            sum_ns: self.sum_ns.load(Ordering::Relaxed),
            count: self.count.load(Ordering::Relaxed),
        }
    }
}

/// Plain-integer snapshot of a [`LatencyHisto`]: per-bucket counts
/// (non-cumulative, `LATENCY_BUCKETS_NS.len() + 1` entries, last =
/// overflow), total nanoseconds, and total observations.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistoSnapshot {
    /// Per-bucket observation counts (not cumulative; last is `+Inf`).
    pub counts: Vec<u64>,
    /// Sum of all observed durations, in nanoseconds.
    pub sum_ns: u64,
    /// Number of observations.
    pub count: u64,
}

// ---------------------------------------------------------------------------
// EXPLAIN ANALYZE: estimates vs. measurements, per physical operator.
// ---------------------------------------------------------------------------

/// Renders an `EXPLAIN ANALYZE`-style report: the physical plan tree with
/// the optimizer's estimated cardinality/bytes/cost next to the measured
/// rows, UDF calls, task time, shipped bytes and spill activity of the
/// execution, per operator. The `Δrows` factor (actual / estimated rows)
/// is the estimate-vs-actual signal adaptive execution consumes.
pub fn explain_analyze(plan: &Plan, phys: &PhysPlan, stats: &ExecStats) -> String {
    let ops = stats.op_snapshots();
    let t = stats.totals();
    let mut out = format!(
        "EXPLAIN ANALYZE  total_cost={:.1}  shipped={}  spilled={} ({} runs)\n",
        phys.total_cost,
        fmt_bytes(t.bytes_shipped),
        fmt_bytes(t.spilled_bytes),
        t.spill_runs,
    );
    render_node(plan, &phys.root, &ops, 0, &mut out);
    out
}

fn render_node(
    plan: &Plan,
    node: &PhysNode,
    ops: &[crate::stats::OpSnapshot],
    depth: usize,
    out: &mut String,
) {
    let indent = "  ".repeat(depth);
    match node.logical.kind {
        NodeKind::Source(s) => {
            out.push_str(&format!(
                "{indent}scan {}  est: rows={:.0} bytes={}\n",
                plan.ctx.sources[s].name,
                node.est.rows,
                fmt_bytes(node.est.bytes() as u64),
            ));
        }
        NodeKind::Op(o) => {
            let op = &plan.ctx.ops[o];
            let ships: Vec<String> = node
                .ships
                .iter()
                .map(|s| match s {
                    Ship::Forward => "fwd".to_string(),
                    Ship::Partition(k) => format!("part({})", k.len()),
                    Ship::Broadcast => "bcast".to_string(),
                })
                .collect();
            // A Reduce whose UDF SCA proved first-record-only finishes
            // on one minimum row per key instead of sorted groups.
            let first_only = op.sca_props.first_record_only;
            out.push_str(&format!(
                "{indent}{} [{} | {:?}{} | ships {}]\n",
                op.name,
                op.pact.kind_name(),
                node.local,
                if first_only { " first-only" } else { "" },
                ships.join(","),
            ));
            let act = ops.get(o).copied().unwrap_or_default();
            let delta = if node.est.rows > 0.0 {
                format!("{:.2}x", act.emits as f64 / node.est.rows)
            } else if act.emits == 0 {
                "1.00x".to_string()
            } else {
                "inf".to_string()
            };
            out.push_str(&format!(
                "{indent}  est: rows={:.0} bytes={} cost={:.1} | act: rows={} calls={} \
                 time={} shipped={} spilled={} ({} runs) | Δrows={delta}\n",
                node.est.rows,
                fmt_bytes(node.est.bytes() as u64),
                node.cost,
                act.emits,
                act.calls,
                fmt_nanos(act.nanos),
                fmt_bytes(act.shipped_bytes),
                fmt_bytes(act.spilled_bytes),
                act.spill_runs,
            ));
        }
    }
    for c in &node.children {
        render_node(plan, c, ops, depth + 1, out);
    }
}

/// `12345` → `"12.1KiB"` — human-scaled byte counts for the report.
fn fmt_bytes(b: u64) -> String {
    const UNITS: [&str; 4] = ["B", "KiB", "MiB", "GiB"];
    let mut v = b as f64;
    let mut u = 0;
    while v >= 1024.0 && u < UNITS.len() - 1 {
        v /= 1024.0;
        u += 1;
    }
    if u == 0 {
        format!("{b}B")
    } else {
        format!("{v:.1}{}", UNITS[u])
    }
}

/// Nanoseconds scaled to the natural unit for the report.
fn fmt_nanos(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.2}µs", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_spans_with_relative_timestamps() {
        let tr = TraceRecorder::new(7);
        let t0 = tr.now_ns();
        tr.record("step", "task", t0, vec![("stage", 1), ("partition", 0)]);
        let spans = tr.spans();
        assert_eq!(spans.len(), 1);
        let (_, s) = &spans[0];
        assert_eq!(s.name, "step");
        assert_eq!(s.cat, "task");
        assert!(s.start_ns >= t0);
        assert_eq!(s.args, vec![("stage", 1), ("partition", 0)]);
        assert_eq!(tr.query_id(), 7);
    }

    #[test]
    fn lane_ring_is_bounded_and_counts_drops() {
        let tr = TraceRecorder::new(1);
        for i in 0..(LANE_CAPACITY + 10) {
            tr.record_span("s", "task", i as u64, 1, vec![]);
        }
        // This thread uses one lane, so the ring bound applies directly.
        assert_eq!(tr.spans().len(), LANE_CAPACITY);
        assert_eq!(tr.dropped(), 10);
        // The oldest spans were dropped, the newest kept.
        let last = tr.spans().last().unwrap().1.start_ns;
        assert_eq!(last, (LANE_CAPACITY + 9) as u64);
    }

    #[test]
    fn chrome_json_has_events_and_escapes_names() {
        let tr = TraceRecorder::new(3);
        tr.record_span("weird\"name\n", "task", 1_500, 2_000, vec![("stage", 2)]);
        let json = tr.chrome_trace_json();
        assert!(json.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
        assert!(json.ends_with("]}"));
        assert!(json.contains("\"ph\":\"X\""), "{json}");
        assert!(json.contains("\"pid\":3"), "{json}");
        assert!(json.contains("\"query_id\":3"), "{json}");
        assert!(json.contains("\"stage\":2"), "{json}");
        assert!(json.contains("weird\\\"name\\n"), "{json}");
        // 1500 ns = 1.500 µs.
        assert!(json.contains("\"ts\":1.500"), "{json}");
        assert!(json.contains("\"dur\":2.000"), "{json}");
    }

    #[test]
    fn histogram_buckets_are_log_spaced_and_sum_consistent() {
        let h = LatencyHisto::new();
        h.observe_ns(500); // ≤ 1µs bucket
        h.observe_ns(3_000_000); // ≤ 4.096ms bucket
        h.observe_ns(10_000_000_000); // beyond the last bound → +Inf
        let s = h.snapshot();
        assert_eq!(s.count, 3);
        assert_eq!(s.sum_ns, 500 + 3_000_000 + 10_000_000_000);
        assert_eq!(s.counts.len(), LATENCY_BUCKETS_NS.len() + 1);
        assert_eq!(s.counts[0], 1);
        assert_eq!(s.counts[6], 1, "{:?}", s.counts);
        assert_eq!(*s.counts.last().unwrap(), 1);
        assert_eq!(s.counts.iter().sum::<u64>(), s.count);
    }

    #[test]
    fn byte_and_nano_formatting() {
        assert_eq!(fmt_bytes(512), "512B");
        assert_eq!(fmt_bytes(2048), "2.0KiB");
        assert_eq!(fmt_nanos(999), "999ns");
        assert_eq!(fmt_nanos(1_500), "1.50µs");
        assert_eq!(fmt_nanos(2_500_000), "2.50ms");
        assert_eq!(fmt_nanos(3_000_000_000), "3.00s");
    }
}
