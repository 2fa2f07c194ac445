//! One benchmark run of one workload: passes of set-up, warm-up and a
//! closed-loop measured window, then the result line. This is what
//! `BENCHMARK.json`'s `command` invokes; `suite` runs it in child processes.

use crate::measure::{median, ms, percentile, process_cpu_ms, status_mb};
use crate::names::{END_TO_END, PER_LAYER};
use crate::trace::{EngineSpans, Tracer};
use crate::workloads::{prepare, OpAcc, Prepared, DOP, ENGINE_SPAN_TIMES, OUT_DIR};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;
use strato_exec::{EngineRuntime, RuntimeOptions};
use strato_server::{client, Json};

pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
}

/// The seed whose oracle digests are checked in under `expected/`.
pub const DEFAULT_SEED: u64 = 42;

/// An untraced run is this many passes, each a fresh set-up (new data, new
/// pool or server, warm-up) followed by its share of the measured window,
/// and every metric it reports is the median over the passes.
///
/// One long window behind one set-up does not repeat on this engine: a
/// server started in `served_bulk` now and then (about one start in
/// fifteen on the seed commit, more on a loaded host) settles into a mode
/// where its two workers hand each batch back and forth (some 50 times the
/// voluntary context switches, twice the operation time) and stays there
/// until it is dropped. A run that sees one start reports whichever mode
/// it drew; the median of five starts reports the usual one. The passes
/// also give `setup_s` its five samples.
const PASSES: usize = 5;

type Metrics = BTreeMap<&'static str, f64>;

/// What a closed-loop window measured.
struct Window {
    /// (operation index, wall time) of every operation that succeeded.
    lat_ms: Vec<(usize, f64)>,
    errors: Vec<String>,
    wall_s: f64,
    cpu_ms: f64,
}

impl Window {
    fn attempted(&self) -> usize {
        self.lat_ms.len() + self.errors.len()
    }
}

/// Runs `op` from `clients` threads, each waiting for its reply before
/// sending the next, until `seconds` have passed. Operation indices are
/// handed out from one counter, so clients interleave over the request
/// list. At least one operation per client is attempted.
fn closed_loop(
    clients: usize,
    seconds: f64,
    op: impl Fn(usize) -> Result<(), String> + Sync,
) -> Window {
    let next = AtomicUsize::new(0);
    let results = Mutex::new((Vec::new(), Vec::new()));
    let cpu0 = process_cpu_ms();
    let start = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..clients {
            s.spawn(|| {
                let (mut lat, mut errors) = (Vec::new(), Vec::new());
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let t = Instant::now();
                    match op(i) {
                        Ok(()) => lat.push((i, ms(t.elapsed()))),
                        Err(e) => errors.push(e),
                    }
                    if start.elapsed().as_secs_f64() >= seconds {
                        break;
                    }
                }
                let mut all = results.lock().expect("no client panicked holding results");
                all.0.extend(lat);
                all.1.extend(errors);
            });
        }
    });
    let wall_s = start.elapsed().as_secs_f64();
    let cpu_ms = process_cpu_ms() - cpu0;
    let (lat_ms, errors) = results.into_inner().expect("clients have finished");
    Window {
        lat_ms,
        errors,
        wall_s,
        cpu_ms,
    }
}

/// One set-up pass: data generation, body rendering, the oracle runs,
/// starting the server or pool, and the untimed warm-up operations.
/// Returns what the operations run against and how long the pass took.
fn set_up(args: &RunArgs) -> Result<(Prepared, f64), String> {
    let t = Instant::now();
    let prepared = prepare(&args.workload, args.seed, args.quick)?;
    for i in 0..prepared.warmup_ops {
        prepared.op(i).map_err(|e| format!("warm-up: {e}"))?;
    }
    let setup_s = t.elapsed().as_secs_f64();
    check_expected(args, &prepared)?;
    Ok((prepared, setup_s))
}

/// Restarts the kernel's resident-set peak, so that `peak_rss_mb` is the
/// peak of the measured window and not of the oracle runs in set-up.
fn restart_peak_rss() {
    if let Err(e) = std::fs::write("/proc/self/clear_refs", "5") {
        eprintln!("stratobench: peak_rss_mb includes set-up (/proc/self/clear_refs: {e})");
    }
}

fn expected_path(quick: bool) -> String {
    let suffix = if quick { "-quick" } else { "" };
    format!("benchmark/expected/seed{DEFAULT_SEED}{suffix}.json")
}

/// For the default seed the oracle itself is pinned: its digests are
/// checked in, so a change to `execute_logical` or to a generator that
/// moves every result the same way still fails the run.
fn check_expected(args: &RunArgs, prepared: &Prepared) -> Result<(), String> {
    if args.seed != DEFAULT_SEED {
        return Ok(());
    }
    let path = expected_path(args.quick);
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let entry = doc
        .get(&args.workload)
        .ok_or_else(|| format!("{path}: no entry for {}", args.workload))?;
    let got = prepared.oracle_digest();
    let want = (
        entry.get("rows").and_then(Json::as_i64),
        entry.get("digest").and_then(Json::as_str),
    );
    if want == (Some(got.rows as i64), Some(&format!("{:016x}", got.hash))) {
        Ok(())
    } else {
        Err(format!(
            "{}: oracle {{rows: {}, digest: {:016x}}} differs from {path}: {entry}",
            args.workload, got.rows, got.hash
        ))
    }
}

/// Regenerates `expected/` for the default seed (`stratobench expected`).
pub fn write_expected() -> Result<(), String> {
    for quick in [false, true] {
        let mut members = Vec::new();
        for w in crate::names::WORKLOADS {
            let d = prepare(w, DEFAULT_SEED, quick)?.oracle_digest();
            members.push(format!(
                "  \"{w}\": {{\"rows\": {}, \"digest\": \"{:016x}\"}}",
                d.rows, d.hash
            ));
        }
        let path = expected_path(quick);
        std::fs::write(&path, format!("{{\n{}\n}}\n", members.join(",\n")))
            .map_err(|e| format!("{path}: {e}"))?;
        println!("wrote {path}");
    }
    Ok(())
}

/// What a run reports besides its metrics. `problems` holds the error of
/// every failed operation and every broken invariant of the workload.
struct Outcome {
    metrics: Metrics,
    attempted: usize,
    failed: usize,
    problems: Vec<String>,
}

/// Runs one workload and prints the result line. `Ok(false)` when the run
/// completed but an operation failed or an invariant of the workload broke.
pub fn run(args: &RunArgs) -> Result<bool, String> {
    let (table, out) = if args.trace {
        (&PER_LAYER[..], traced_run(args)?)
    } else {
        (&END_TO_END[..], untraced_run(args)?)
    };
    for e in out.problems.iter().take(5) {
        eprintln!("stratobench: {}: {e}", args.workload);
    }
    let correct = out.problems.is_empty();
    let rendered: Vec<String> = table
        .iter()
        .map(|m| {
            let v = out.metrics.get(m.name).copied().unwrap_or(0.0);
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                Json::Float(v),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted,
        out.failed,
        rendered.join(", ")
    );
    Ok(correct)
}

/// The untraced run: [`PASSES`] passes of set-up + window, and the median
/// over the passes of every end-to-end metric.
fn untraced_run(args: &RunArgs) -> Result<Outcome, String> {
    let passes = if args.quick { 1 } else { PASSES };
    let mut samples: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let (mut attempted, mut problems) = (0, Vec::new());
    for pass in 1..=passes {
        // The previous pass's server and pool are gone by now: `prepared`
        // is dropped at the end of each iteration.
        let (prepared, setup_s) = set_up(args)?;
        restart_peak_rss();
        let w = closed_loop(prepared.clients(), args.seconds / passes as f64, |i| {
            prepared.op(i)
        });
        let m = end_to_end(&w, setup_s);
        let shown: Vec<String> = m.iter().map(|(k, v)| format!("{k}={v:.4}")).collect();
        eprintln!(
            "stratobench: {} pass {pass}: {}",
            args.workload,
            shown.join(" ")
        );
        for (name, v) in m {
            samples.entry(name).or_default().push(v);
        }
        attempted += w.attempted();
        problems.extend(w.errors);
    }
    Ok(Outcome {
        metrics: samples.iter().map(|(k, v)| (*k, median(v))).collect(),
        attempted,
        failed: problems.len(),
        problems,
    })
}

fn end_to_end(w: &Window, setup_s: f64) -> Metrics {
    let mut lat: Vec<f64> = w.lat_ms.iter().map(|(_, ms)| *ms).collect();
    lat.sort_by(f64::total_cmp);
    let mut m = Metrics::new();
    if !lat.is_empty() {
        m.insert("op_p50_ms", percentile(&lat, 50.0));
        m.insert("ops_per_s", lat.len() as f64 / w.wall_s);
        m.insert("cpu_ms_per_op", w.cpu_ms / lat.len() as f64);
    }
    m.insert("peak_rss_mb", status_mb("VmHWM:"));
    m.insert("setup_s", setup_s);
    m
}

/// Per-operation accumulators of a traced window.
#[derive(Default)]
struct Layers {
    ops: Vec<OpAcc>,
}

impl Layers {
    /// Median over operations of a stage time.
    fn time(&self, metric: &str) -> f64 {
        if self.ops.is_empty() {
            return 0.0;
        }
        let v: Vec<f64> = self
            .ops
            .iter()
            .map(|o| o.values.get(metric).copied().unwrap_or(0.0))
            .collect();
        median(&v)
    }

    fn sum(&self, metric: &str) -> f64 {
        self.ops
            .iter()
            .map(|o| o.values.get(metric).copied().unwrap_or(0.0))
            .sum()
    }

    /// Mean per operation of a count.
    fn count(&self, metric: &str) -> f64 {
        self.sum(metric) / self.ops.len().max(1) as f64
    }

    fn ratio(&self, num: &str, den: &str) -> f64 {
        let d = self.sum(den);
        if d == 0.0 {
            0.0
        } else {
            self.sum(num) / d
        }
    }
}

/// Wall-time stages that follow one another inside an operation; what the
/// operation's time exceeds their sum by is HTTP (served) or unattributed.
const SEQUENTIAL_STAGES: [&str; 10] = [
    "server.json_parse_ms",
    "server.decode_ms",
    "dataflow.build_ms",
    "sca.props_ms",
    "core.enumerate_ms",
    "core.physical_ms",
    "exec.run_ms",
    "record.result_sort_ms",
    "server.result_encode_ms",
    "bench.verify_ms",
];

const MEAN_COUNTS: [&str; 11] = [
    "server.request_bytes",
    "core.plans_enumerated",
    "ir.udf_calls",
    "ir.interp_steps",
    "exec.records_shipped",
    "exec.bytes_shipped",
    "exec.records_spilled",
    "exec.spilled_bytes",
    "exec.spill_runs",
    "server.response_bytes",
    "bench.trace_spans_dropped",
];

/// Busy time by operator kind, summed over both workers.
const OP_KIND_TIMES: [&str; 5] = [
    "exec.op_ms.map",
    "exec.op_ms.reduce",
    "exec.op_ms.match",
    "exec.op_ms.cogroup",
    "exec.op_ms.cross",
];

/// The traced run. Operations alternate untraced / traced inside one
/// window, so that both sides of `exec.trace_overhead_share` see the same
/// machine; request `i / 2` is sent once each way. Served workloads then
/// replay their requests in-process for the stage times.
fn traced_run(args: &RunArgs) -> Result<Outcome, String> {
    let (prepared, _) = set_up(args)?;
    restart_peak_rss();
    let window_start_rss_mb = status_mb("VmRSS:");
    let served = prepared.served_addr().is_some();
    let replay_seconds = if served { args.seconds / 4.0 } else { 0.0 };
    let tracer = Mutex::new(Tracer::new());
    let layers = Mutex::new(Layers::default());
    let tails = Mutex::new(Vec::new());
    let window = closed_loop(prepared.clients(), args.seconds - replay_seconds, |i| {
        if i % 2 == 0 {
            return prepared.op(i / 2);
        }
        if served {
            let tail = prepared.traced_post(i / 2)?;
            tails
                .lock()
                .expect("no client panicked holding tails")
                .push(tail);
        } else {
            let mut acc = OpAcc::default();
            let mut tracer = tracer.lock().expect("single client");
            prepared.traced_op(i as u64 / 2, &mut tracer, &mut acc)?;
            layers.lock().expect("single client").ops.push(acc);
        }
        Ok(())
    });
    let side = |traced: bool| -> Vec<f64> {
        window
            .lat_ms
            .iter()
            .filter(|(i, _)| (i % 2 == 1) == traced)
            .map(|(_, ms)| *ms)
            .collect()
    };
    let (untraced_ms, traced_ms) = (side(false), side(true));
    let mut tracer = tracer.into_inner().expect("window has ended");
    let mut layers = layers.into_inner().expect("window has ended");
    let mut problems = Vec::new();
    let mut m = Metrics::new();

    if served {
        // Whole passes over the distinct requests, so that counts repeat
        // exactly from run to run however many passes fit.
        let rt = EngineRuntime::new(RuntimeOptions {
            workers: Some(DOP),
            ..RuntimeOptions::default()
        });
        let n = prepared.distinct_requests();
        let start = Instant::now();
        let mut op = 0u64;
        loop {
            for i in 0..n {
                let mut acc = OpAcc::default();
                prepared.replay(&rt, i, op, &mut tracer, &mut acc)?;
                layers.ops.push(acc);
                op += 1;
            }
            if start.elapsed().as_secs_f64() >= replay_seconds {
                break;
            }
        }
        // The server's view of the traced window: the engine's span time
        // by category from each response's trace, and the gate's counters.
        let tails = tails.into_inner().expect("window has ended");
        let mut server_side = Layers::default();
        for tail in &tails {
            let mut acc = OpAcc::default();
            acc.engine(&response_spans(tail)?);
            server_side.ops.push(acc);
        }
        for name in ENGINE_SPAN_TIMES {
            m.insert(name, server_side.time(name));
        }
        let addr = prepared.served_addr().expect("served workload");
        let scrape = client::get(addr, "/metrics")
            .map_err(|e| format!("/metrics: {e}"))?
            .text();
        let wait_s = scraped(&scrape, "strato_admission_wait_seconds_sum")?;
        let admitted = scraped(&scrape, "strato_admission_wait_seconds_count")?;
        m.insert("server.admission_wait_ms", wait_s * 1e3 / admitted.max(1.0));
        let rejected = scraped(&scrape, "strato_queries_rejected_total")?;
        m.insert("server.rejected", rejected);
        if rejected > 0.0 {
            problems.push(format!("{rejected} requests were refused (429)"));
        }
    }

    for name in SEQUENTIAL_STAGES {
        m.insert(name, layers.time(name));
    }
    for name in ENGINE_SPAN_TIMES.into_iter().chain(OP_KIND_TIMES) {
        m.entry(name).or_insert_with(|| layers.time(name));
    }
    for name in MEAN_COUNTS {
        m.entry(name).or_insert_with(|| layers.count(name));
    }
    m.insert(
        "record.wire_bytes_per_row",
        layers.ratio("exec.bytes_shipped", "exec.records_shipped"),
    );
    m.insert("exec.preagg_ratio", layers.ratio("preagg_out", "preagg_in"));
    m.insert(
        "ir.ns_per_udf_call",
        layers.ratio("exec.op_ms.map", "map_calls") * 1e6,
    );
    let run_ms = m["exec.run_ms"];
    if run_ms > 0.0 {
        let busy = layers.time("exec.task_busy_ms");
        m.insert("exec.worker_busy_share", busy / (run_ms * DOP as f64));
    }

    let traced_p50 = if traced_ms.is_empty() {
        0.0
    } else {
        median(&traced_ms)
    };
    m.insert("bench.traced_op_p50_ms", traced_p50);
    if !untraced_ms.is_empty() && traced_p50 > 0.0 {
        m.insert(
            "exec.trace_overhead_share",
            traced_p50 / median(&untraced_ms) - 1.0,
        );
        let mut sorted = untraced_ms;
        sorted.sort_by(f64::total_cmp);
        m.insert(
            "bench.op_tail_ms",
            percentile(&sorted, prepared.tail_percentile),
        );
    }
    let staged: f64 = SEQUENTIAL_STAGES.iter().map(|s| m[s]).sum();
    let rest = if served {
        "server.http_ms"
    } else {
        "bench.unattributed_ms"
    };
    m.insert(rest, traced_p50 - staged);

    let (regret, rho) = prepared.plan_accuracy();
    m.insert("core.plan_regret", regret);
    m.insert("core.cost_rank_spearman", rho);
    m.insert("bench.window_start_rss_mb", window_start_rss_mb);

    // Each half of the shuffle pair must exercise the path it is named for.
    let runs = m["exec.spill_runs"];
    match args.workload.as_str() {
        "shuffle_ooc" if runs == 0.0 => problems.push("shuffle_ooc did not spill".to_string()),
        "shuffle_mem" if runs > 0.0 => problems.push("shuffle_mem spilled".to_string()),
        _ => {}
    }

    let path = format!("{OUT_DIR}/trace-{}.json", args.workload);
    std::fs::write(&path, tracer.chrome_json(&args.workload))
        .map_err(|e| format!("{path}: {e}"))?;
    let path = format!("{OUT_DIR}/layers-{}.json", args.workload);
    let table: Vec<String> = PER_LAYER
        .iter()
        .map(|p| {
            format!(
                "  \"{}\": {}",
                p.name,
                Json::Float(m.get(p.name).copied().unwrap_or(0.0))
            )
        })
        .collect();
    std::fs::write(&path, format!("{{\n{}\n}}\n", table.join(",\n")))
        .map_err(|e| format!("{path}: {e}"))?;

    let (attempted, failed) = (window.attempted(), window.errors.len());
    problems.extend(window.errors);
    Ok(Outcome {
        metrics: m,
        attempted,
        failed,
        problems,
    })
}

/// Sums the span durations of the server's Chrome trace (`"trace"` member
/// of a traced response) by category.
fn response_spans(tail: &str) -> Result<EngineSpans, String> {
    // `tail` starts at `],"stats"`; give it back its head to parse it.
    let doc = Json::parse(&format!("{{\"rows\":[{tail}")).map_err(|e| e.to_string())?;
    let events = doc
        .get("trace")
        .and_then(|t| t.get("traceEvents"))
        .and_then(Json::as_array)
        .ok_or("traced response has no trace events")?;
    let mut sums = EngineSpans::default();
    for e in events {
        if let (Some(cat), Some(dur_us)) = (
            e.get("cat").and_then(Json::as_str),
            e.get("dur").and_then(Json::as_f64),
        ) {
            sums.add(cat, (dur_us * 1e3) as u64);
        }
    }
    Ok(sums)
}

/// The value of an unlabelled series in a Prometheus text scrape.
fn scraped(scrape: &str, series: &str) -> Result<f64, String> {
    scrape
        .lines()
        .find_map(|l| l.strip_prefix(series)?.strip_prefix(' ')?.parse().ok())
        .ok_or_else(|| format!("/metrics has no {series}"))
}
