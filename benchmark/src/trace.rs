//! The benchmark's own spans. The traced run times every call into a layer
//! from outside (no crate other than this one gains a span), keeps the
//! spans in memory, and writes them as one Chrome trace-event file per
//! workload when the run ends. Every span of one operation carries that
//! operation's id as its `pid`, the engine's own spans included.

use std::time::Instant;
use strato_exec::Span;

/// Operations whose spans are kept for the trace file; the per-layer
/// numbers use every traced operation, the file only needs a readable few.
pub const TRACE_FILE_OPS: u64 = 32;

/// Lane (`tid`) of the benchmark's stage spans; engine lanes follow.
const BENCH_LANE: usize = 0;

#[derive(Debug, Clone)]
pub struct Event {
    pub op: u64,
    pub lane: usize,
    pub name: String,
    pub cat: &'static str,
    pub start_ns: u64,
    pub dur_ns: u64,
}

/// Span sink of one traced run. `epoch` is shared with every
/// `TraceRecorder` handed to the engine, so engine spans and benchmark
/// spans lie on one clock.
pub struct Tracer {
    pub epoch: Instant,
    events: Vec<Event>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            events: Vec::new(),
        }
    }

    pub fn rel_ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a benchmark stage span of operation `op`.
    pub fn stage(&mut self, op: u64, name: &str, start: Instant, dur_ns: u64) {
        if op < TRACE_FILE_OPS {
            self.events.push(Event {
                op,
                lane: BENCH_LANE,
                name: name.to_string(),
                cat: "bench",
                start_ns: self.rel_ns(start),
                dur_ns,
            });
        }
    }

    /// Files the engine's spans of one execution under operation `op`.
    pub fn engine(&mut self, op: u64, spans: Vec<(usize, Span)>) {
        if op < TRACE_FILE_OPS {
            for (lane, s) in spans {
                self.events.push(Event {
                    op,
                    lane: lane + 1,
                    name: s.name,
                    cat: s.cat,
                    start_ns: s.start_ns,
                    dur_ns: s.dur_ns,
                });
            }
        }
    }

    /// Chrome trace-event JSON (`ts`/`dur` in microseconds), loadable in
    /// Perfetto: one process per operation, lane 0 = benchmark stages.
    pub fn chrome_json(&self, workload: &str) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        let mut ops: Vec<u64> = self.events.iter().map(|e| e.op).collect();
        ops.sort_unstable();
        ops.dedup();
        let mut first = true;
        let mut push = |out: &mut String, ev: String| {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&ev);
        };
        for op in ops {
            push(
                &mut out,
                format!(
                    "{{\"ph\":\"M\",\"pid\":{op},\"tid\":0,\"name\":\"process_name\",\
                     \"args\":{{\"name\":\"{workload} op {op}\"}}}}"
                ),
            );
        }
        for e in &self.events {
            push(
                &mut out,
                format!(
                    "{{\"ph\":\"X\",\"pid\":{},\"tid\":{},\"name\":{},\"cat\":\"{}\",\
                     \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"op\":{}}}}}",
                    e.op,
                    e.lane,
                    strato_server::Json::Str(e.name.clone()),
                    e.cat,
                    e.start_ns as f64 / 1e3,
                    e.dur_ns as f64 / 1e3,
                    e.op,
                ),
            );
        }
        out.push_str("]}");
        out
    }
}

/// Engine span time of one execution summed by category, in nanoseconds.
/// `ship`, `spill` and `merge` spans lie inside `task` spans, so `task` is
/// worker busy time and the others are shares of it; `merge` spans cover
/// the drain window of a k-way merge, not merge CPU alone.
#[derive(Debug, Default, Clone, Copy)]
pub struct EngineSpans {
    pub task: u64,
    pub ship: u64,
    pub spill: u64,
    pub merge: u64,
    pub grant: u64,
}

impl EngineSpans {
    pub fn add(&mut self, cat: &str, dur_ns: u64) {
        match cat {
            "task" => self.task += dur_ns,
            "ship" => self.ship += dur_ns,
            "spill" => self.spill += dur_ns,
            "merge" => self.merge += dur_ns,
            "mem" => self.grant += dur_ns,
            _ => {}
        }
    }

    pub fn of(spans: &[(usize, Span)]) -> EngineSpans {
        let mut sums = EngineSpans::default();
        for (_, s) in spans {
            sums.add(s.cat, s.dur_ns);
        }
        sums
    }
}
