//! Request routing and the query handler: the glue between the HTTP
//! layer and the optimize→execute pipeline.
//!
//! `POST /v1/query` is the main entry point. Its life cycle:
//!
//! 1. **admission** — take a token from the [`AdmissionGate`] (or answer
//!    `429` immediately — with a queue-depth-derived `Retry-After`
//!    header — when bucket and queue are both full),
//! 2. **decode** — parse the JSON body (`400` on syntax errors), decode
//!    the flow/inputs/options (`422` on shape errors), compile the
//!    [`FlowSpec`](strato_dataflow::spec::FlowSpec) into a bound plan
//!    (`422` on structural errors),
//! 3. **optimize** — run the full enumerate-and-cost optimizer at the
//!    requested degree of parallelism,
//! 4. **execute** — run the chosen physical plan on the server's shared
//!    [`EngineRuntime`] (one worker pool and one memory budget across all
//!    concurrent queries) with the request's
//!    [`ExecOptions`](strato_exec::ExecOptions) overrides,
//! 5. **respond** — stream result rows back in canonical order as a
//!    chunked JSON body, closing with the execution statistics, and fold
//!    those statistics into the server's `/metrics` registry.
//!
//! With `"options": {"trace": true}` the handler threads a
//! [`TraceRecorder`] through every step — admission wait, JSON parse,
//! decode, plan compile, optimize, the engine's task/ship/spill/memory
//! spans, result sort and result encode — and the response gains `"query_id"`, a Chrome trace-event `"trace"` document
//! (load it in Perfetto) and an estimate-vs-actual `"explain"` report.
//! Traces of the last [`TRACE_HISTORY`] traced queries stay fetchable at
//! `GET /v1/queries/<id>/trace`.
//!
//! `GET /metrics` renders the Prometheus registry; `GET /healthz` is a
//! liveness probe.

use crate::admission::{Admission, AdmissionGate};
use crate::decode::{decode_query, push_value};
use crate::http::{
    read_request, write_response, write_response_with, ChunkedWriter, HttpError, Request,
};
use crate::json::{push_escaped, Json};
use crate::metrics::Metrics;
use crate::server::ServerConfig;
use std::collections::VecDeque;
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use strato_core::Optimizer;
use strato_dataflow::PropertyMode;
use strato_exec::{explain_analyze, EngineRuntime, ExecStats, RuntimeOptions, TraceRecorder};
use strato_record::{DataSet, Record};

/// Result rows per HTTP chunk of a query response.
const ROWS_PER_CHUNK: usize = 1024;

/// How many completed traced queries keep their Chrome trace fetchable
/// at `GET /v1/queries/<id>/trace`.
pub const TRACE_HISTORY: usize = 8;

/// Query-id allocator plus a bounded ring of recently completed traced
/// queries' Chrome trace documents.
#[derive(Debug, Default)]
struct TraceStore {
    /// Last assigned query id; ids start at 1.
    next_id: AtomicU64,
    /// `(query_id, chrome_trace_json)`, oldest first, at most
    /// [`TRACE_HISTORY`] entries.
    recent: Mutex<VecDeque<(u64, String)>>,
}

impl TraceStore {
    /// Allocates the next query id. Every decoded query gets one, traced
    /// or not, so the response's `query_id`, the slow-query log line and
    /// the trace id agree. The per-query `/metrics` series
    /// (`strato_query_queued_tasks{query="qN"}`) are labelled by the
    /// runtime's own registration counter instead, a different number: it
    /// skips a query rejected before it runs (a plan-compile 422) and
    /// follows the order handlers register with the runtime, not the order
    /// they were given ids.
    fn assign_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Records a completed traced query, evicting the oldest past the cap.
    fn push(&self, id: u64, chrome: String) {
        let mut recent = self.recent.lock().unwrap();
        if recent.len() >= TRACE_HISTORY {
            recent.pop_front();
        }
        recent.push_back((id, chrome));
    }

    /// Fetches a retained trace by query id.
    fn get(&self, id: u64) -> Option<String> {
        self.recent
            .lock()
            .unwrap()
            .iter()
            .find(|(q, _)| *q == id)
            .map(|(_, t)| t.clone())
    }
}

/// Shared per-server state handed to every connection handler.
#[derive(Debug, Clone)]
pub struct AppState {
    /// The admission gate bounding concurrent query execution.
    pub gate: AdmissionGate,
    /// The cumulative metrics registry behind `GET /metrics`.
    pub metrics: Arc<Metrics>,
    /// The shared engine runtime every admitted query executes on: one
    /// worker pool and one memory budget across all concurrent queries.
    pub runtime: Arc<EngineRuntime>,
    /// Log a one-line plan+stats summary to stderr for queries slower
    /// than this many milliseconds (`--slow-query-ms`); `None` disables.
    pub slow_query_ms: Option<u64>,
    /// Query-id allocator and recently-completed-trace history.
    traces: Arc<TraceStore>,
}

impl AppState {
    /// The state of a server configured by `config`: its admission gate,
    /// an empty metrics registry, and the shared runtime its
    /// `workers`/`mem_budget` settings size.
    pub(crate) fn new(config: &ServerConfig) -> Self {
        let runtime = EngineRuntime::new(RuntimeOptions {
            workers: config.workers,
            mem_budget: config.mem_budget.or(RuntimeOptions::default().mem_budget),
            ..RuntimeOptions::default()
        });
        AppState {
            gate: AdmissionGate::new(config.max_concurrent, config.queue_depth),
            metrics: Arc::new(Metrics::new()),
            runtime: Arc::new(runtime),
            slow_query_ms: config.slow_query_ms,
            traces: Arc::new(TraceStore::default()),
        }
    }
}

/// Serves one connection: reads a request, dispatches it, writes the
/// response. Socket errors are swallowed — the peer is gone either way.
pub fn handle_connection(mut stream: TcpStream, state: &AppState) {
    let req = match read_request(&mut stream) {
        Ok(req) => req,
        Err(HttpError::Closed) | Err(HttpError::Io(_)) => return,
        Err(HttpError::TooLarge) => {
            let _ = error_response(&mut stream, 413, "request body too large");
            return;
        }
        Err(HttpError::Bad(msg)) => {
            let _ = error_response(&mut stream, 400, &msg);
            return;
        }
    };
    let _ = dispatch(&mut stream, &req, state);
}

/// Routes a parsed request to its handler.
fn dispatch(stream: &mut TcpStream, req: &Request, state: &AppState) -> std::io::Result<()> {
    let path = req.path.split('?').next().unwrap_or("");
    match (req.method.as_str(), path) {
        ("POST", "/v1/query") => handle_query(stream, req, state),
        ("GET", "/metrics") => {
            let (running, queued) = state.gate.load();
            let body = state
                .metrics
                .render(running, queued, &state.runtime.snapshot());
            write_response(stream, 200, "text/plain; version=0.0.4", body.as_bytes())
        }
        ("GET", "/healthz") => write_response(stream, 200, "text/plain", b"ok"),
        (method, p) if p.starts_with("/v1/queries/") && p.ends_with("/trace") => {
            if method != "GET" {
                return error_response(stream, 405, "method not allowed");
            }
            let id = &p["/v1/queries/".len()..p.len() - "/trace".len()];
            match id
                .strip_prefix('q')
                .unwrap_or(id)
                .parse::<u64>()
                .ok()
                .and_then(|id| state.traces.get(id))
            {
                Some(chrome) => write_response(stream, 200, "application/json", chrome.as_bytes()),
                None => error_response(stream, 404, "no retained trace for that query"),
            }
        }
        (_, "/v1/query") | (_, "/metrics") | (_, "/healthz") => {
            error_response(stream, 405, "method not allowed")
        }
        _ => error_response(stream, 404, "no such endpoint"),
    }
}

/// `POST /v1/query`.
fn handle_query(stream: &mut TcpStream, req: &Request, state: &AppState) -> std::io::Result<()> {
    // Arrival time is both the latency-histogram epoch and, for traced
    // queries, the timeline origin of the Chrome trace.
    let t_start = Instant::now();
    // Admission first: saturated servers shed load before spending any
    // cycles on parsing.
    let _permit = match state.gate.admit() {
        Admission::Admitted(permit) => permit,
        Admission::Rejected => {
            state.metrics.record_rejected();
            // Tell the client when capacity is likely back: the deeper
            // the queue, the longer the suggested backoff.
            let retry_after = state.gate.retry_after_secs().to_string();
            let body = Json::Obj(vec![(
                "error".to_string(),
                Json::Str("server saturated, retry later".to_string()),
            )])
            .to_string();
            return write_response_with(
                stream,
                429,
                "application/json",
                body.as_bytes(),
                &[("retry-after", &retry_after)],
            );
        }
    };
    let admission_wait = t_start.elapsed();
    state.metrics.observe_admission_wait(admission_wait);

    let body = match std::str::from_utf8(&req.body) {
        Ok(s) => s,
        Err(_) => {
            state.metrics.record_error();
            return error_response(stream, 400, "request body is not UTF-8");
        }
    };
    // Parse and decode run before the request says whether it is traced,
    // so their spans are recorded from these instants afterwards.
    let t_parse = Instant::now();
    let doc = match Json::parse(body) {
        Ok(doc) => doc,
        Err(e) => {
            state.metrics.record_error();
            return error_response(stream, 400, &e.to_string());
        }
    };
    let t_decode = Instant::now();
    let query = match decode_query(&doc) {
        Ok(q) => q,
        Err(e) => {
            state.metrics.record_error();
            return error_response(stream, 422, &e.to_string());
        }
    };
    let t_decoded = Instant::now();
    drop(doc);
    // Every query gets an id, so its slow-query log line and its trace
    // carry the `query_id` of its response (the per-query `/metrics`
    // series are numbered by the runtime, see `TraceStore::assign_id`);
    // the recorder itself only exists when the client opted in —
    // untraced queries pay one `Option` check per instrumentation point
    // and nothing else.
    let query_id = state.traces.assign_id();
    let recorder = query
        .trace
        .then(|| TraceRecorder::with_epoch(query_id, t_start));
    if let Some(tr) = &recorder {
        tr.record_span(
            "admission-wait",
            "server",
            0,
            admission_wait.as_nanos() as u64,
            vec![],
        );
        for (name, from, to, args) in [
            (
                "json-parse",
                t_parse,
                t_decode,
                vec![("bytes", body.len() as u64)],
            ),
            ("decode", t_decode, t_decoded, vec![]),
        ] {
            let dur = (to - from).as_nanos() as u64;
            tr.record_span(name, "server", tr.rel_ns(from), dur, args);
        }
    }

    let t0 = recorder.as_ref().map(|tr| tr.now_ns());
    let plan = match query.flow.build() {
        Ok(p) => p,
        Err(e) => {
            state.metrics.record_error();
            return error_response(stream, 422, &e.to_string());
        }
    };
    if let (Some(t0), Some(tr)) = (t0, &recorder) {
        tr.record("plan-compile", "server", t0, vec![]);
    }

    let t0 = recorder.as_ref().map(|tr| tr.now_ns());
    let best = Optimizer::new(PropertyMode::Sca)
        .with_dop(query.dop)
        .best(&plan);
    if let (Some(t0), Some(tr)) = (t0, &recorder) {
        tr.record("optimize", "server", t0, vec![("dop", query.dop as u64)]);
    }

    let mut exec = query.exec.clone();
    exec.trace = recorder.clone();
    let (out, stats) =
        match state
            .runtime
            .execute_with(&best.plan, &best.phys, &query.inputs, query.dop, &exec)
        {
            Ok(r) => r,
            Err(e) => {
                state.metrics.record_error();
                return error_response(stream, 500, &e.to_string());
            }
        };

    let op_names: Vec<String> = best.plan.ctx.ops.iter().map(|o| o.name.clone()).collect();
    state.metrics.record_query(&stats, &op_names);
    let elapsed = t_start.elapsed();
    state.metrics.observe_query_latency(elapsed);

    if let Some(threshold) = state.slow_query_ms {
        if elapsed.as_millis() as u64 >= threshold {
            let report = explain_analyze(&best.plan, &best.phys, &stats);
            let flat: Vec<&str> = report.lines().map(str::trim).collect();
            eprintln!(
                "[strato] slow query q{query_id}: {}ms | {}",
                elapsed.as_millis(),
                flat.join(" | ")
            );
        }
    }
    let trace = recorder
        .as_ref()
        .map(|tr| (&**tr, explain_analyze(&best.plan, &best.phys, &stats)));
    stream_result(
        stream,
        &state.traces,
        &out,
        &stats,
        &op_names,
        query_id,
        trace,
    )
}

/// Writes `{"rows": [...], "stats": {...}, "query_id": N}` as a chunked
/// body, one chunk per [`ROWS_PER_CHUNK`] rows, appending `"trace"`
/// (Chrome trace-event document) and `"explain"` (estimate-vs-actual
/// report) members for traced queries. Rows are emitted in canonical
/// sorted order so equal result bags serialize identically; each row is
/// written straight from its record into one reused chunk buffer.
///
/// A traced query's `result-sort` and `result-encode` spans (the latter
/// covers encoding the row chunks into the response's write buffer, and
/// the writes a full buffer makes) end before its trace is rendered, so
/// the response carries them; the rendered trace is also kept in
/// `traces`.
fn stream_result(
    stream: &mut TcpStream,
    traces: &TraceStore,
    out: &DataSet,
    stats: &ExecStats,
    op_names: &[String],
    query_id: u64,
    trace: Option<(&TraceRecorder, String)>,
) -> std::io::Result<()> {
    let recorder = trace.as_ref().map(|(tr, _)| *tr);
    let mut w = ChunkedWriter::begin(stream, 200, "application/json")?;
    w.chunk(b"{\"rows\":[")?;

    let t0 = recorder.map(TraceRecorder::now_ns);
    let mut rows: Vec<&Record> = out.iter().collect();
    rows.sort_unstable();
    if let (Some(tr), Some(t0)) = (recorder, t0) {
        tr.record(
            "result-sort",
            "server",
            t0,
            vec![("rows", rows.len() as u64)],
        );
    }

    let t0 = recorder.map(TraceRecorder::now_ns);
    let mut buf = String::new();
    let mut bytes = 0;
    for (start, batch) in rows
        .chunks(ROWS_PER_CHUNK)
        .enumerate()
        .map(|(i, b)| (i * ROWS_PER_CHUNK, b))
    {
        buf.clear();
        for (i, r) in batch.iter().enumerate() {
            if start + i > 0 {
                buf.push(',');
            }
            buf.push('[');
            for (j, v) in r.fields().iter().enumerate() {
                if j > 0 {
                    buf.push(',');
                }
                push_value(&mut buf, v);
            }
            buf.push(']');
        }
        w.chunk(buf.as_bytes())?;
        bytes += buf.len();
    }
    if let (Some(tr), Some(t0)) = (recorder, t0) {
        tr.record(
            "result-encode",
            "server",
            t0,
            vec![("rows", rows.len() as u64), ("bytes", bytes as u64)],
        );
    }

    let mut tail = format!(
        "],\"stats\":{},\"query_id\":{query_id}",
        stats_json(stats, op_names)
    );
    if let Some((tr, explain)) = trace {
        let chrome = tr.chrome_trace_json();
        tail.push_str(",\"trace\":");
        tail.push_str(&chrome);
        tail.push_str(",\"explain\":");
        push_escaped(&mut tail, &explain);
        traces.push(query_id, chrome);
    }
    tail.push('}');
    w.chunk(tail.as_bytes())?;
    w.finish()
}

/// The `"stats"` member of a query response.
fn stats_json(stats: &ExecStats, op_names: &[String]) -> Json {
    let t = stats.totals();
    let mut members = vec![
        ("udf_calls".to_string(), Json::Int(t.udf_calls as i64)),
        (
            "records_emitted".to_string(),
            Json::Int(t.records_emitted as i64),
        ),
        (
            "records_shipped".to_string(),
            Json::Int(t.records_shipped as i64),
        ),
        (
            "bytes_shipped".to_string(),
            Json::Int(t.bytes_shipped as i64),
        ),
        (
            "records_spilled".to_string(),
            Json::Int(t.records_spilled as i64),
        ),
        (
            "spilled_bytes".to_string(),
            Json::Int(t.spilled_bytes as i64),
        ),
        ("spill_runs".to_string(), Json::Int(t.spill_runs as i64)),
        ("interp_steps".to_string(), Json::Int(t.interp_steps as i64)),
    ];
    let ops: Vec<Json> = stats
        .op_snapshots()
        .iter()
        .enumerate()
        .map(|(i, s)| {
            Json::Obj(vec![
                (
                    "name".to_string(),
                    Json::Str(op_names.get(i).cloned().unwrap_or_else(|| format!("op{i}"))),
                ),
                ("calls".to_string(), Json::Int(s.calls as i64)),
                ("emits".to_string(), Json::Int(s.emits as i64)),
                ("nanos".to_string(), Json::Int(s.nanos as i64)),
            ])
        })
        .collect();
    members.push(("ops".to_string(), Json::Arr(ops)));
    Json::Obj(members)
}

/// Writes a fixed-length `{"error": ...}` response.
fn error_response(stream: &mut TcpStream, status: u16, msg: &str) -> std::io::Result<()> {
    let body = Json::Obj(vec![("error".to_string(), Json::Str(msg.to_string()))]).to_string();
    write_response(stream, status, "application/json", body.as_bytes())
}
