//! The server's metrics registry and its Prometheus text rendering.
//!
//! Two layers of counters accumulate across the server's lifetime:
//!
//! * **server counters** — queries in flight / queued (gauges, read from
//!   the admission gate) and completed / errored / rejected totals,
//! * **execution counters** — every global [`ExecStats`] counter summed
//!   over completed queries, plus per-operator series (UDF calls, emitted
//!   records, task nanoseconds, spill activity) labelled by operator name.
//!
//! A scrape additionally renders the shared [`EngineRuntime`]'s
//! point-in-time gauges (`strato_pool_*`, `strato_mem_*`, and per-query
//! `strato_query_queued_tasks`) from the [`RuntimeSnapshot`] the handler
//! takes at scrape time — these live in the runtime, not the registry.
//!
//! [`EngineRuntime`]: strato_exec::EngineRuntime
//!
//! Rendering follows the Prometheus text exposition format, version
//! `0.0.4`: `# HELP`/`# TYPE` preambles, `_total` suffixes on counters,
//! escaped label values.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};
use strato_exec::trace::LATENCY_BUCKETS_NS;
use strato_exec::{
    ExecStats, HistoSnapshot, LatencyHisto, OpSnapshot, RuntimeSnapshot, StatsSnapshot,
};

/// Cumulative server metrics. One instance per server; handlers record
/// into it concurrently.
#[derive(Debug, Default)]
pub struct Metrics {
    /// Queries that completed successfully.
    completed: AtomicU64,
    /// Queries that failed (bad request, spec error, execution error).
    errored: AtomicU64,
    /// Queries shed by the admission gate (429s).
    rejected: AtomicU64,
    /// Σ `ExecStats` totals over completed queries.
    totals: Mutex<StatsSnapshot>,
    /// Σ per-operator snapshots over completed queries, by operator name.
    per_op: Mutex<BTreeMap<String, OpSnapshot>>,
    /// End-to-end latency of completed queries (admission to response).
    query_latency: LatencyHisto,
    /// Time queries spent waiting for an admission-gate token.
    admission_wait: LatencyHisto,
    /// When the registry was created ([`Metrics::new`]) — the epoch of
    /// `strato_uptime_seconds`. Lazily set so `Default` stays derivable;
    /// a registry that skips `new()` starts the clock at first scrape.
    started: OnceLock<Instant>,
}

impl Metrics {
    /// Fresh zeroed registry; starts the uptime clock.
    pub fn new() -> Self {
        let m = Metrics::default();
        let _ = m.started.set(Instant::now());
        m
    }

    /// Observes one completed query's end-to-end latency (admission wait
    /// through response streaming).
    pub fn observe_query_latency(&self, elapsed: Duration) {
        self.query_latency.observe_ns(elapsed.as_nanos() as u64);
    }

    /// Observes one query's admission-gate wait.
    pub fn observe_admission_wait(&self, elapsed: Duration) {
        self.admission_wait.observe_ns(elapsed.as_nanos() as u64);
    }

    /// Folds one completed query's statistics into the registry.
    /// `op_names[i]` labels operator id `i` of the executed plan.
    pub fn record_query(&self, stats: &ExecStats, op_names: &[String]) {
        self.completed.fetch_add(1, Ordering::Relaxed);
        *self.totals.lock().unwrap() += stats.totals();

        let snaps: Vec<OpSnapshot> = stats.op_snapshots();
        let named: Vec<(String, OpSnapshot)> = snaps
            .into_iter()
            .enumerate()
            .map(|(i, s)| {
                let name = op_names.get(i).cloned().unwrap_or_else(|| format!("op{i}"));
                (name, s)
            })
            .collect();
        self.fold_named_ops(&named);
    }

    /// Folds named per-operator snapshots into the cumulative aggregates.
    fn fold_named_ops(&self, named: &[(String, OpSnapshot)]) {
        if named.is_empty() {
            return;
        }
        let mut per_op = self.per_op.lock().unwrap();
        for (name, s) in named {
            *per_op.entry(name.clone()).or_default() += *s;
        }
    }

    /// Counts one failed query.
    pub fn record_error(&self) {
        self.errored.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one query shed by the admission gate.
    pub fn record_rejected(&self) {
        self.rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// Completed-query count (test/introspection hook).
    pub fn completed(&self) -> u64 {
        self.completed.load(Ordering::Relaxed)
    }

    /// Renders the registry in Prometheus text exposition format.
    /// `in_flight`/`queued` come from the admission gate and `rt` from the
    /// shared runtime, both read at scrape time.
    pub fn render(&self, in_flight: usize, queued: usize, rt: &RuntimeSnapshot) -> String {
        let mut out = String::with_capacity(4096);
        let mut gauge = |name: &str, help: &str, v: u64| {
            out.push_str(&format!(
                "# HELP {name} {help}\n# TYPE {name} gauge\n{name} {v}\n"
            ));
        };
        gauge(
            "strato_queries_in_flight",
            "Queries currently holding an execution token.",
            in_flight as u64,
        );
        gauge(
            "strato_queries_queued",
            "Queries parked in the admission queue.",
            queued as u64,
        );
        gauge(
            "strato_pool_workers",
            "Worker threads in the shared engine pool.",
            rt.workers as u64,
        );
        gauge(
            "strato_pool_busy_workers",
            "Pool workers currently executing a task step.",
            rt.busy_workers as u64,
        );
        gauge(
            "strato_pool_active_queries",
            "Queries currently registered with the shared pool.",
            rt.active_queries as u64,
        );
        gauge(
            "strato_pool_queued_tasks",
            "Ready task steps across all registered queries.",
            rt.queued_tasks as u64,
        );
        gauge(
            "strato_mem_budget_bytes",
            "Machine-wide memory budget of the shared pool (0 = unbounded).",
            rt.mem_budget.unwrap_or(0),
        );
        gauge(
            "strato_mem_granted_bytes",
            "Bytes promised to in-flight queries' memory grants.",
            rt.mem_granted,
        );
        gauge(
            "strato_mem_resident_bytes",
            "Bytes currently buffered across all queries.",
            rt.mem_resident,
        );
        gauge(
            "strato_mem_peak_resident_bytes",
            "High-water mark of resident bytes across all queries.",
            rt.mem_peak_resident,
        );
        // Per-query series: in-flight queries at their live value, plus a
        // bounded recently-completed window pinned at 0 so scrapers observe
        // the series settle instead of vanish. Queries older than the window
        // are pruned entirely — the per-query label set cannot grow without
        // bound (it is capped at in-flight + `RECENT_QUERIES`).
        let recent_done: Vec<u64> = rt
            .recent_queries
            .iter()
            .copied()
            .filter(|id| !rt.per_query_queued.iter().any(|(q, _)| q == id))
            .collect();
        if !rt.per_query_queued.is_empty() || !recent_done.is_empty() {
            out.push_str(
                "# HELP strato_query_queued_tasks Ready task steps per registered query.\n\
                 # TYPE strato_query_queued_tasks gauge\n",
            );
            for (id, ready) in &rt.per_query_queued {
                out.push_str(&format!(
                    "strato_query_queued_tasks{{query=\"q{id}\"}} {ready}\n"
                ));
            }
            for id in recent_done {
                out.push_str(&format!("strato_query_queued_tasks{{query=\"q{id}\"}} 0\n"));
            }
        }
        out.push_str(&format!(
            "# HELP strato_pool_tasks_total Task steps executed by the shared pool's workers \
             (steps a query's submitter ran itself are not counted).\n\
             # TYPE strato_pool_tasks_total counter\nstrato_pool_tasks_total {}\n\
             # HELP strato_queries_on_submitter_total Queries driven entirely by the thread \
             that submitted them, not by the pool (every source fit in one batch).\n\
             # TYPE strato_queries_on_submitter_total counter\n\
             strato_queries_on_submitter_total {}\n",
            rt.tasks_executed, rt.queries_on_submitter
        ));

        let t = *self.totals.lock().unwrap();
        let counters: [(&str, &str, u64); 14] = [
            (
                "strato_queries_completed_total",
                "Queries that completed successfully.",
                self.completed.load(Ordering::Relaxed),
            ),
            (
                "strato_queries_errored_total",
                "Queries that failed (bad request or execution error).",
                self.errored.load(Ordering::Relaxed),
            ),
            (
                "strato_queries_rejected_total",
                "Queries shed by the admission gate with HTTP 429.",
                self.rejected.load(Ordering::Relaxed),
            ),
            (
                "strato_exec_udf_calls_total",
                "UDF invocations across completed queries.",
                t.udf_calls,
            ),
            (
                "strato_exec_records_emitted_total",
                "Records emitted by UDFs.",
                t.records_emitted,
            ),
            (
                "strato_exec_records_shipped_total",
                "Records moved by Partition/Broadcast shipping.",
                t.records_shipped,
            ),
            (
                "strato_exec_bytes_shipped_total",
                "Serialized bytes moved by Partition/Broadcast shipping.",
                t.bytes_shipped,
            ),
            (
                "strato_exec_records_spilled_total",
                "Records written to sorted on-disk runs under memory pressure.",
                t.records_spilled,
            ),
            (
                "strato_exec_spilled_bytes_total",
                "On-disk bytes of first-generation sorted runs.",
                t.spilled_bytes,
            ),
            (
                "strato_exec_spill_runs_total",
                "Sorted runs written under memory pressure.",
                t.spill_runs,
            ),
            (
                "strato_exec_interp_steps_total",
                "IR interpreter steps executed.",
                t.interp_steps,
            ),
            (
                "strato_exec_rows_scattered_total",
                "Records routed by the Partition scatter (every hash-partitioned record).",
                t.rows_scattered,
            ),
            (
                "strato_exec_null_cells_total",
                "Null cells observed while building columnar batches.",
                t.null_cells,
            ),
            (
                "strato_exec_total_cells_total",
                "Total cells observed while building columnar batches.",
                t.total_cells,
            ),
        ];
        for (name, help, v) in counters {
            out.push_str(&format!(
                "# HELP {name} {help}\n# TYPE {name} counter\n{name} {v}\n"
            ));
        }

        type OpSeries = (&'static str, &'static str, fn(&OpSnapshot) -> u64);
        let per_op = self.per_op.lock().unwrap();
        let series: [OpSeries; 6] = [
            (
                "strato_op_udf_calls_total",
                "UDF invocations per operator.",
                |a| a.calls,
            ),
            (
                "strato_op_records_emitted_total",
                "Records emitted per operator.",
                |a| a.emits,
            ),
            (
                "strato_op_task_nanos_total",
                "Scheduler step nanoseconds attributed per operator.",
                |a| a.nanos,
            ),
            (
                "strato_op_records_spilled_total",
                "Records spilled to disk per operator.",
                |a| a.records_spilled,
            ),
            (
                "strato_op_spilled_bytes_total",
                "On-disk spill bytes per operator.",
                |a| a.spilled_bytes,
            ),
            (
                "strato_op_spill_runs_total",
                "Sorted spill runs written per operator.",
                |a| a.spill_runs,
            ),
        ];
        for (name, help, get) in series {
            if per_op.is_empty() {
                continue;
            }
            out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} counter\n"));
            for (op, agg) in per_op.iter() {
                out.push_str(&format!(
                    "{name}{{op=\"{}\"}} {}\n",
                    escape_label(op),
                    get(agg)
                ));
            }
        }
        drop(per_op);

        render_histo(
            &mut out,
            "strato_query_latency_seconds",
            "End-to-end latency of completed queries (admission to response).",
            &self.query_latency.snapshot(),
        );
        render_histo(
            &mut out,
            "strato_admission_wait_seconds",
            "Time queries waited for an admission-gate token.",
            &self.admission_wait.snapshot(),
        );
        render_histo(
            &mut out,
            "strato_grant_wait_seconds",
            "Time queries waited to carve a memory grant from the shared budget.",
            &rt.grant_wait,
        );

        out.push_str(&format!(
            "# HELP strato_build_info Build metadata; the value is always 1.\n\
             # TYPE strato_build_info gauge\n\
             strato_build_info{{version=\"{}\"}} 1\n",
            escape_label(env!("CARGO_PKG_VERSION"))
        ));
        out.push_str(&format!(
            "# HELP strato_uptime_seconds Seconds since this server started.\n\
             # TYPE strato_uptime_seconds gauge\nstrato_uptime_seconds {}\n",
            self.started.get_or_init(Instant::now).elapsed().as_secs()
        ));
        out
    }
}

/// Renders one [`HistoSnapshot`] as a Prometheus histogram: cumulative
/// `_bucket{le="..."}` lines over [`LATENCY_BUCKETS_NS`] (bounds in
/// seconds), the implicit `+Inf` bucket, `_sum` and `_count`.
fn render_histo(out: &mut String, name: &str, help: &str, snap: &HistoSnapshot) {
    out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} histogram\n"));
    let mut cumulative = 0u64;
    for (i, bound_ns) in LATENCY_BUCKETS_NS.iter().enumerate() {
        cumulative += snap.counts.get(i).copied().unwrap_or(0);
        out.push_str(&format!(
            "{name}_bucket{{le=\"{}\"}} {cumulative}\n",
            *bound_ns as f64 / 1e9
        ));
    }
    out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {}\n", snap.count));
    out.push_str(&format!("{name}_sum {}\n", snap.sum_ns as f64 / 1e9));
    out.push_str(&format!("{name}_count {}\n", snap.count));
}

/// Escapes a Prometheus label value (backslash, quote, newline).
fn escape_label(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_counters_and_gauges() {
        let m = Metrics::new();
        m.record_rejected();
        m.record_error();
        let stats = ExecStats::with_ops(2);
        // Simulate a query: 3 calls on op 0, ship, spill on op 1.
        for _ in 0..3 {
            stats.udf_calls.fetch_add(1, Ordering::Relaxed);
        }
        stats.records_shipped.fetch_add(10, Ordering::Relaxed);
        stats.rows_scattered.fetch_add(10, Ordering::Relaxed);
        stats.null_cells.fetch_add(2, Ordering::Relaxed);
        stats.total_cells.fetch_add(40, Ordering::Relaxed);
        m.record_query(&stats, &["scan\"s".into(), "sum".into()]);

        let rt = RuntimeSnapshot {
            workers: 4,
            busy_workers: 1,
            active_queries: 2,
            queued_tasks: 7,
            tasks_executed: 99,
            queries_on_submitter: 6,
            mem_budget: Some(1024),
            mem_granted: 256,
            mem_resident: 128,
            mem_peak_resident: 512,
            per_query_queued: vec![(3, 5), (4, 2)],
            ..RuntimeSnapshot::default()
        };
        let text = m.render(1, 2, &rt);
        assert!(text.contains("strato_queries_in_flight 1\n"), "{text}");
        assert!(text.contains("strato_queries_queued 2\n"), "{text}");
        assert!(text.contains("strato_pool_workers 4\n"), "{text}");
        assert!(text.contains("strato_pool_busy_workers 1\n"), "{text}");
        assert!(text.contains("strato_pool_active_queries 2\n"), "{text}");
        assert!(text.contains("strato_pool_queued_tasks 7\n"), "{text}");
        assert!(text.contains("strato_pool_tasks_total 99\n"), "{text}");
        assert!(
            text.contains("strato_queries_on_submitter_total 6\n"),
            "{text}"
        );
        assert!(text.contains("strato_mem_budget_bytes 1024\n"), "{text}");
        assert!(text.contains("strato_mem_granted_bytes 256\n"), "{text}");
        assert!(text.contains("strato_mem_resident_bytes 128\n"), "{text}");
        assert!(
            text.contains("strato_mem_peak_resident_bytes 512\n"),
            "{text}"
        );
        assert!(
            text.contains("strato_query_queued_tasks{query=\"q3\"} 5\n"),
            "{text}"
        );
        assert!(
            text.contains("strato_query_queued_tasks{query=\"q4\"} 2\n"),
            "{text}"
        );
        assert!(text.contains("strato_queries_completed_total 1\n"));
        assert!(text.contains("strato_queries_errored_total 1\n"));
        assert!(text.contains("strato_queries_rejected_total 1\n"));
        assert!(text.contains("strato_exec_udf_calls_total 3\n"));
        assert!(text.contains("strato_exec_records_shipped_total 10\n"));
        assert!(text.contains("strato_exec_rows_scattered_total 10\n"));
        assert!(text.contains("strato_exec_null_cells_total 2\n"));
        assert!(text.contains("strato_exec_total_cells_total 40\n"));
        // Label escaping.
        assert!(
            text.contains("strato_op_udf_calls_total{op=\"scan\\\"s\"}"),
            "{text}"
        );
        assert!(text.contains("strato_op_udf_calls_total{op=\"sum\"} 0\n"));
        // Every series has HELP/TYPE preambles.
        assert!(text.contains("# TYPE strato_queries_in_flight gauge"));
        assert!(text.contains("# TYPE strato_exec_udf_calls_total counter"));
    }

    #[test]
    fn per_op_aggregates_accumulate_across_queries() {
        let m = Metrics::new();
        let snap = OpSnapshot {
            nanos: 5,
            ..OpSnapshot::default()
        };
        m.record_query(&ExecStats::with_ops(1), &["sum".into()]);
        m.record_query(&ExecStats::with_ops(1), &["sum".into()]);
        m.fold_named_ops(&[("sum".into(), snap), ("sum".into(), snap)]);
        assert_eq!(m.completed(), 2);
        let text = m.render(0, 0, &RuntimeSnapshot::default());
        assert!(
            text.contains("strato_op_task_nanos_total{op=\"sum\"} 10\n"),
            "{text}"
        );
    }

    #[test]
    fn no_per_op_series_without_slots() {
        let m = Metrics::new();
        m.record_query(&ExecStats::new(), &[]);
        let text = m.render(0, 0, &RuntimeSnapshot::default());
        assert!(!text.contains("strato_op_"), "{text}");
        assert!(
            !text.contains("strato_query_queued_tasks"),
            "no per-query series without registered queries: {text}"
        );
    }

    #[test]
    fn recently_completed_queries_render_at_zero_then_age_out() {
        let m = Metrics::new();
        let rt = RuntimeSnapshot {
            per_query_queued: vec![(7, 3)],
            recent_queries: vec![5, 7],
            ..RuntimeSnapshot::default()
        };
        let text = m.render(0, 0, &rt);
        // In-flight query keeps its live value; the completed one settles
        // to 0 instead of vanishing mid-scrape.
        assert!(
            text.contains("strato_query_queued_tasks{query=\"q7\"} 3\n"),
            "{text}"
        );
        assert!(
            text.contains("strato_query_queued_tasks{query=\"q5\"} 0\n"),
            "{text}"
        );
        // Once a query ages out of the recent window its series is pruned.
        let aged = m.render(0, 0, &RuntimeSnapshot::default());
        assert!(!aged.contains("query=\"q5\""), "{aged}");
    }

    #[test]
    fn histograms_render_cumulative_buckets_and_build_info() {
        let m = Metrics::new();
        // One fast query (2µs) and one slow (100ms).
        m.observe_query_latency(Duration::from_micros(2));
        m.observe_query_latency(Duration::from_millis(100));
        m.observe_admission_wait(Duration::from_nanos(500));
        let text = m.render(0, 0, &RuntimeSnapshot::default());

        // 2µs lands in the 4µs bucket; cumulative counts climb to 2.
        assert!(
            text.contains("strato_query_latency_seconds_bucket{le=\"0.000001\"} 0\n"),
            "{text}"
        );
        assert!(
            text.contains("strato_query_latency_seconds_bucket{le=\"0.000004\"} 1\n"),
            "{text}"
        );
        assert!(
            text.contains("strato_query_latency_seconds_bucket{le=\"4.194304\"} 2\n"),
            "{text}"
        );
        assert!(
            text.contains("strato_query_latency_seconds_bucket{le=\"+Inf\"} 2\n"),
            "{text}"
        );
        assert!(
            text.contains("strato_query_latency_seconds_count 2\n"),
            "{text}"
        );
        assert!(
            text.contains("# TYPE strato_query_latency_seconds histogram\n"),
            "{text}"
        );
        // 500ns lands in the very first (1µs) bucket.
        assert!(
            text.contains("strato_admission_wait_seconds_bucket{le=\"0.000001\"} 1\n"),
            "{text}"
        );
        // Grant-wait histogram comes from the runtime snapshot (empty here).
        assert!(
            text.contains("strato_grant_wait_seconds_count 0\n"),
            "{text}"
        );
        assert!(
            text.contains(&format!(
                "strato_build_info{{version=\"{}\"}} 1\n",
                env!("CARGO_PKG_VERSION")
            )),
            "{text}"
        );
        assert!(text.contains("strato_uptime_seconds "), "{text}");
    }
}
