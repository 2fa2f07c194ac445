//! The six workloads: what one operation is, how its inputs are made from
//! the seed, and how its result is checked.
//!
//! An in-process operation is build plan → `Optimizer::best` →
//! `EngineRuntime::execute_with` for each flow of the workload, then a
//! digest check of the result. A served operation is one `POST /v1/query`
//! whose response body is digest-checked without parsing it. The traced
//! variants run the same calls one layer at a time and time each from
//! outside.

use crate::flows::{self, Body};
use crate::measure::{fnv1a, ms};
use crate::trace::{EngineSpans, Tracer};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use strato_core::Optimizer;
use strato_dataflow::{Pact, Plan, PropertyMode};
use strato_exec::{
    execute_logical, EngineRuntime, ExecOptions, ExecStats, Inputs, RuntimeOptions, TraceRecorder,
};
use strato_record::{DataSet, Record, Value};
use strato_server::decode::value_to_json;
use strato_server::{client, decode_query, Json, Server, ServerConfig, ServerHandle};
use strato_workloads::{clickstream, textmining, tpch};

/// `nproc` is 2 in the sandbox: engine dop, runtime workers and the client
/// count never exceed it.
pub const DOP: usize = 2;

/// Where spill files and trace files go, relative to the checkout root.
pub const OUT_DIR: &str = "benchmark/out";

/// Row count plus an order-independent hash of a result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest {
    pub rows: u64,
    pub hash: u64,
}

fn record_hash(r: &Record) -> u64 {
    let mut bytes = Vec::with_capacity(16 * r.arity());
    for v in r.fields() {
        match v {
            Value::Null => bytes.push(0),
            Value::Bool(b) => bytes.extend([1, *b as u8]),
            Value::Int(i) => {
                bytes.push(2);
                bytes.extend(i.to_le_bytes());
            }
            Value::Float(f) => {
                bytes.push(3);
                bytes.extend(f.to_bits().to_le_bytes());
            }
            Value::Str(s) => {
                bytes.push(4);
                bytes.extend((s.len() as u64).to_le_bytes());
                bytes.extend(s.as_bytes());
            }
        }
    }
    fnv1a(&bytes)
}

/// Digest of an in-process result: the wrapping sum of per-record hashes,
/// so it needs no sort and does not depend on partition arrival order.
pub fn dataset_digest(ds: &DataSet) -> Digest {
    Digest {
        rows: ds.len() as u64,
        hash: ds
            .iter()
            .fold(0u64, |acc, r| acc.wrapping_add(record_hash(r))),
    }
}

/// The response-body prefix `{"rows":[...` of a served result, rendered
/// the way the handler renders rows; `rows` are in canonical order.
fn encode_rows(rows: &[Record]) -> String {
    let mut s = String::from("{\"rows\":[");
    for (i, r) in rows.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&Json::Arr(r.fields().iter().map(value_to_json).collect()).to_string());
    }
    s
}

/// One in-process flow of an operation.
pub struct Flow {
    pub name: &'static str,
    build: Box<dyn Fn() -> Plan + Send + Sync>,
    inputs: Inputs,
    opts: ExecOptions,
    /// Enumeration cap; the optimizer's default except in `--quick` runs,
    /// where Q7's 2 860 plans alone would take half a second.
    cap: usize,
    expected: Digest,
}

pub struct Request {
    body: Body,
    /// FNV-1a of the expected response prefix up to `],"stats"`.
    expected: u64,
    rows: u64,
}

pub enum Target {
    InProcess {
        rt: EngineRuntime,
        flows: Vec<Flow>,
    },
    Served {
        server: ServerHandle,
        requests: Vec<Request>,
        clients: usize,
    },
}

pub struct Prepared {
    pub target: Target,
    /// Operations run at the end of every set-up pass, about half a
    /// second's worth, so that the window opens on a warm process.
    pub warmup_ops: usize,
    /// The percentile `op_tail_ms` reports on this workload.
    pub tail_percentile: f64,
}

const DEFAULT_CAP: usize = 100_000;

fn flow(
    name: &'static str,
    build: impl Fn() -> Plan + Send + Sync + 'static,
    inputs: Inputs,
    opts: ExecOptions,
    cap: usize,
) -> Result<Flow, String> {
    // The oracle: the plan as written (no reordering, no strategies), on
    // one partition.
    let (oracle, _) = execute_logical(&build(), &inputs).map_err(|e| format!("{name}: {e}"))?;
    Ok(Flow {
        name,
        build: Box::new(build),
        inputs,
        opts,
        cap,
        expected: dataset_digest(&oracle),
    })
}

fn runtime() -> EngineRuntime {
    EngineRuntime::new(RuntimeOptions {
        workers: Some(DOP),
        spill_dir: Some(PathBuf::from(OUT_DIR).join("spill")),
        ..RuntimeOptions::default()
    })
}

fn request(body: Body) -> Result<Request, String> {
    let doc = Json::parse(&body.plain).map_err(|e| e.to_string())?;
    let query = decode_query(&doc).map_err(|e| e.to_string())?;
    let plan = query.flow.build().map_err(|e| e.to_string())?;
    let (oracle, _) = execute_logical(&plan, &query.inputs).map_err(|e| e.to_string())?;
    Ok(Request {
        body,
        expected: fnv1a(encode_rows(&oracle.sorted()).as_bytes()),
        rows: oracle.len() as u64,
    })
}

fn serve(bodies: Vec<Body>, clients: usize) -> Result<Target, String> {
    let requests = bodies
        .into_iter()
        .map(request)
        .collect::<Result<Vec<_>, _>>()?;
    let server = Server::bind(&ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        max_concurrent: DOP,
        workers: Some(DOP),
        ..ServerConfig::default()
    })
    .and_then(Server::spawn)
    .map_err(|e| format!("server start: {e}"))?;
    Ok(Target::Served {
        server,
        requests,
        clients,
    })
}

/// Generates the workload's inputs from `seed`, computes the oracle digests
/// and starts what the operations run against. `quick` shrinks every scale
/// so the whole suite runs in seconds (for the crate's test, not for
/// measurement).
pub fn prepare(workload: &str, seed: u64, quick: bool) -> Result<Prepared, String> {
    std::fs::create_dir_all(PathBuf::from(OUT_DIR).join("spill"))
        .map_err(|e| format!("create {OUT_DIR}: {e}"))?;
    let default = ExecOptions::default();
    let (target, warmup_ops, tail_percentile) = match workload {
        "relational" => {
            let q7 = tpch::TpchScale {
                orders: if quick { 300 } else { 12_000 },
            };
            let q15 = if quick {
                tpch::TpchScale::tiny()
            } else {
                tpch::TpchScale::small()
            };
            let cap = if quick { 200 } else { DEFAULT_CAP };
            let flows = vec![
                flow(
                    "q7",
                    move || tpch::q7_plan(q7),
                    tpch::generate(q7, seed).into_iter().collect(),
                    default.clone(),
                    cap,
                )?,
                flow(
                    "q15",
                    move || tpch::q15_plan(q15),
                    tpch::generate(q15, seed).into_iter().collect(),
                    default.clone(),
                    cap,
                )?,
            ];
            (in_process(flows), 1, 75.0)
        }
        "udf_flows" => {
            let text = if quick {
                textmining::TextScale::tiny()
            } else {
                textmining::TextScale::small()
            };
            let click = if quick {
                clickstream::ClickScale::tiny()
            } else {
                clickstream::ClickScale {
                    sessions: 32_000,
                    users: 3_200,
                    ..clickstream::ClickScale::small()
                }
            };
            let flows = vec![
                flow(
                    "textmining",
                    move || textmining::plan(text),
                    textmining::generate(text, seed).into_iter().collect(),
                    default.clone(),
                    DEFAULT_CAP,
                )?,
                flow(
                    "clickstream",
                    move || clickstream::plan(click),
                    clickstream::generate(click, seed).into_iter().collect(),
                    default.clone(),
                    DEFAULT_CAP,
                )?,
            ];
            (in_process(flows), 2, 75.0)
        }
        "shuffle_mem" | "shuffle_ooc" => {
            let (rows, keys) = if quick {
                (5_000, 128)
            } else {
                (200_000, 4_096)
            };
            let mem_budget = match (workload, quick) {
                ("shuffle_mem", _) => None,
                (_, false) => Some(1 << 20),
                (_, true) => Some(16 << 10),
            };
            let opts = ExecOptions {
                mem_budget,
                ..default.clone()
            };
            let flows = vec![flow(
                "shuffle",
                move || flows::shuffle_plan(rows, keys),
                flows::shuffle_inputs(rows, keys, seed),
                opts,
                DEFAULT_CAP,
            )?];
            (in_process(flows), 8, 90.0)
        }
        "served_small" => {
            let rows = if quick { 32 } else { 256 };
            (
                serve(flows::served_small_bodies(rows, seed), DOP)?,
                512,
                99.0,
            )
        }
        "served_bulk" => {
            let rows = if quick { 1_000 } else { 50_000 };
            (
                serve(vec![flows::served_bulk_body(rows, seed)], 1)?,
                6,
                90.0,
            )
        }
        other => return Err(format!("unknown workload {other:?}")),
    };
    Ok(Prepared {
        target,
        warmup_ops: if quick { 1 } else { warmup_ops },
        tail_percentile,
    })
}

fn in_process(flows: Vec<Flow>) -> Target {
    Target::InProcess {
        rt: runtime(),
        flows,
    }
}

impl Prepared {
    pub fn clients(&self) -> usize {
        match &self.target {
            Target::InProcess { .. } => 1,
            Target::Served { clients, .. } => *clients,
        }
    }

    /// Rows and a combined hash of every oracle result of the workload —
    /// what `benchmark/expected/` pins for the default seed.
    pub fn oracle_digest(&self) -> Digest {
        let items: Vec<(u64, u64)> = match &self.target {
            Target::InProcess { flows, .. } => flows
                .iter()
                .map(|f| (f.expected.rows, f.expected.hash))
                .collect(),
            Target::Served { requests, .. } => {
                requests.iter().map(|r| (r.rows, r.expected)).collect()
            }
        };
        let bytes: Vec<u8> = items.iter().flat_map(|(_, h)| h.to_le_bytes()).collect();
        Digest {
            rows: items.iter().map(|(rows, _)| rows).sum(),
            hash: fnv1a(&bytes),
        }
    }

    /// One untraced operation: submit, wait, verify. `index` selects the
    /// request on served workloads.
    pub fn op(&self, index: usize) -> Result<(), String> {
        match &self.target {
            Target::InProcess { rt, flows } => {
                for f in flows {
                    let plan = (f.build)();
                    let best = Optimizer::new(PropertyMode::Sca)
                        .with_dop(DOP)
                        .with_cap(f.cap)
                        .best(&plan);
                    let (out, _) = rt
                        .execute_with(&best.plan, &best.phys, &f.inputs, DOP, &f.opts)
                        .map_err(|e| format!("{}: {e}", f.name))?;
                    verify(f, &out)?;
                }
                Ok(())
            }
            Target::Served {
                server, requests, ..
            } => {
                let r = &requests[index % requests.len()];
                post(server, &r.body.plain, r.expected).map(|_| ())
            }
        }
    }

    /// One traced in-process operation: the calls of [`Prepared::op`] made
    /// one layer at a time.
    pub fn traced_op(&self, op: u64, tracer: &mut Tracer, acc: &mut OpAcc) -> Result<(), String> {
        let Target::InProcess { rt, flows } = &self.target else {
            unreachable!("served workloads trace through traced_post and replay");
        };
        for f in flows {
            let plan = acc.timed(tracer, op, "flow-build", "dataflow.build_ms", || {
                (f.build)()
            });
            let out = optimize_and_run(rt, op, &plan, &f.inputs, &f.opts, f.cap, tracer, acc)
                .map_err(|e| format!("{}: {e}", f.name))?;
            acc.timed(tracer, op, "verify", "bench.verify_ms", || verify(f, &out))?;
        }
        Ok(())
    }

    /// One traced served operation: the request with `"trace": true`.
    /// Returns the response tail from `],"stats"` on (execution statistics
    /// and the server's own Chrome trace), to be parsed after the window.
    pub fn traced_post(&self, index: usize) -> Result<String, String> {
        let Target::Served {
            server, requests, ..
        } = &self.target
        else {
            unreachable!("in-process workloads trace through traced_op");
        };
        let r = &requests[index % requests.len()];
        post(server, &r.body.traced, r.expected)
    }

    /// Replays request `index` in-process, stage by stage, against `rt`:
    /// the same public functions the handler calls, each timed from
    /// outside. What a client waits for beyond the sum of these stages is
    /// the HTTP layer.
    pub fn replay(
        &self,
        rt: &EngineRuntime,
        index: usize,
        op: u64,
        tracer: &mut Tracer,
        acc: &mut OpAcc,
    ) -> Result<(), String> {
        let Target::Served { requests, .. } = &self.target else {
            unreachable!("only served workloads are replayed");
        };
        let r = &requests[index % requests.len()];
        let body = &r.body.plain;
        acc.count("server.request_bytes", body.len() as f64);

        let doc = acc
            .timed(tracer, op, "json-parse", "server.json_parse_ms", || {
                Json::parse(body)
            })
            .map_err(|e| e.to_string())?;
        let query = acc
            .timed(tracer, op, "decode", "server.decode_ms", || {
                decode_query(&doc)
            })
            .map_err(|e| e.to_string())?;
        let plan = acc
            .timed(tracer, op, "flow-build", "dataflow.build_ms", || {
                query.flow.build()
            })
            .map_err(|e| e.to_string())?;

        let out = optimize_and_run(
            rt,
            op,
            &plan,
            &query.inputs,
            &query.exec,
            DEFAULT_CAP,
            tracer,
            acc,
        )?;

        let rows = acc.timed(tracer, op, "result-sort", "record.result_sort_ms", || {
            out.sorted()
        });
        let encoded = acc.timed(
            tracer,
            op,
            "result-encode",
            "server.result_encode_ms",
            || encode_rows(&rows),
        );
        acc.count("server.response_bytes", encoded.len() as f64);
        if fnv1a(encoded.as_bytes()) != r.expected {
            return Err("replayed result does not match the oracle".to_string());
        }
        Ok(())
    }

    pub fn served_addr(&self) -> Option<std::net::SocketAddr> {
        match &self.target {
            Target::InProcess { .. } => None,
            Target::Served { server, .. } => Some(server.addr()),
        }
    }

    pub fn distinct_requests(&self) -> usize {
        match &self.target {
            Target::InProcess { .. } => 1,
            Target::Served { requests, .. } => requests.len(),
        }
    }

    /// `rank_sweep`-style check of the paper's claim on every flow: execute
    /// up to five rank-spaced plans (once each after a warm-up run; more
    /// would not fit a traced run's time) and report (time of the optimizer's pick
    /// ÷ fastest measured, Spearman of cost rank vs measured time), each
    /// averaged over the flows. Served workloads are not swept: (0, 0).
    pub fn plan_accuracy(&self) -> (f64, f64) {
        let Target::InProcess { flows, .. } = &self.target else {
            return (0.0, 0.0);
        };
        let (mut regret, mut rho) = (0.0, 0.0);
        for f in flows {
            let sweep =
                strato_bench::rank_sweep(&(f.build)(), &f.inputs, PropertyMode::Sca, 5, 1, DOP);
            let ranks: Vec<f64> = sweep.points.iter().map(|p| p.rank as f64).collect();
            let times: Vec<f64> = sweep.points.iter().map(|p| ms(p.runtime)).collect();
            regret += sweep.points[0].norm_runtime;
            rho += crate::measure::spearman(&ranks, &times);
        }
        (regret / flows.len() as f64, rho / flows.len() as f64)
    }
}

fn verify(f: &Flow, out: &DataSet) -> Result<(), String> {
    let got = dataset_digest(out);
    if got == f.expected {
        Ok(())
    } else {
        Err(format!(
            "{}: result digest {got:?} differs from the oracle's {:?}",
            f.name, f.expected
        ))
    }
}

/// Posts `body`, checks status and the digest of the rows prefix, and
/// returns the rest of the response.
fn post(server: &ServerHandle, body: &str, expected: u64) -> Result<String, String> {
    let resp = client::post_json(server.addr(), "/v1/query", body).map_err(|e| e.to_string())?;
    if resp.status != 200 {
        return Err(format!("HTTP {}: {}", resp.status, resp.text()));
    }
    let text = std::str::from_utf8(&resp.body).map_err(|e| e.to_string())?;
    // Strings inside rows are JSON-escaped, so the marker's bare quotes can
    // only be the real end of the rows array.
    let cut = text
        .find("],\"stats\":")
        .ok_or("response has no stats member")?;
    if fnv1a(&text.as_bytes()[..cut]) != expected {
        return Err("response rows do not match the oracle".to_string());
    }
    Ok(text[cut..].to_string())
}

/// The optimize → execute middle of a traced operation, shared by the
/// in-process workloads and the served replay.
#[allow(clippy::too_many_arguments)]
fn optimize_and_run(
    rt: &EngineRuntime,
    op: u64,
    plan: &Plan,
    inputs: &Inputs,
    opts: &ExecOptions,
    cap: usize,
    tracer: &mut Tracer,
    acc: &mut OpAcc,
) -> Result<DataSet, String> {
    let t = Instant::now();
    let mut report = Optimizer::new(PropertyMode::Sca)
        .with_dop(DOP)
        .with_cap(cap)
        .optimize(plan);
    let best = report.ranked.swap_remove(0);
    acc.count("core.plans_enumerated", report.n_enumerated as f64);
    // `optimize` runs its three phases back to back; lay their reported
    // durations end to end from its start.
    let mut at = t;
    for (span, metric, d) in [
        ("sca", "sca.props_ms", report.property_derivation),
        ("enumerate", "core.enumerate_ms", report.enumeration),
        ("physical", "core.physical_ms", report.physical),
    ] {
        acc.stage(tracer, op, span, metric, at, d);
        at += d;
    }
    drop(report);

    let recorder = TraceRecorder::with_epoch(op, tracer.epoch);
    let exec = ExecOptions {
        trace: Some(recorder.clone()),
        ..opts.clone()
    };
    let (out, stats) = acc
        .timed(tracer, op, "execute", "exec.run_ms", || {
            rt.execute_with(&best.plan, &best.phys, inputs, DOP, &exec)
        })
        .map_err(|e| e.to_string())?;
    let spans = recorder.spans();
    acc.engine(&EngineSpans::of(&spans));
    tracer.engine(op, spans);
    acc.count("bench.trace_spans_dropped", recorder.dropped() as f64);
    acc.stats(&stats, &best.plan);
    Ok(out)
}

/// The engine's span time by category (`task`, `ship`, `spill`, `merge`,
/// `mem`), in the order of [`EngineSpans`]' fields.
pub const ENGINE_SPAN_TIMES: [&str; 5] = [
    "exec.task_busy_ms",
    "exec.ship_ms",
    "exec.spill_write_ms",
    "exec.merge_ms",
    "exec.grant_wait_ms",
];

/// What one traced operation measured: stage wall times (ms) and counts,
/// by per-layer metric name. Flows of one operation add up.
#[derive(Debug, Default, Clone)]
pub struct OpAcc {
    pub values: BTreeMap<&'static str, f64>,
}

impl OpAcc {
    pub fn count(&mut self, metric: &'static str, v: f64) {
        *self.values.entry(metric).or_insert(0.0) += v;
    }

    /// Runs `work` as the stage `span` of operation `op`, timed from
    /// outside, and adds its wall time to `metric`.
    fn timed<T>(
        &mut self,
        tracer: &mut Tracer,
        op: u64,
        span: &str,
        metric: &'static str,
        work: impl FnOnce() -> T,
    ) -> T {
        let t = Instant::now();
        let out = work();
        self.stage(tracer, op, span, metric, t, t.elapsed());
        out
    }

    fn stage(
        &mut self,
        tracer: &mut Tracer,
        op: u64,
        span: &str,
        metric: &'static str,
        start: Instant,
        d: Duration,
    ) {
        tracer.stage(op, span, start, d.as_nanos() as u64);
        self.count(metric, ms(d));
    }

    pub fn engine(&mut self, s: &EngineSpans) {
        let ns = [s.task, s.ship, s.spill, s.merge, s.grant];
        for (metric, ns) in ENGINE_SPAN_TIMES.into_iter().zip(ns) {
            self.count(metric, ns as f64 / 1e6);
        }
    }

    fn stats(&mut self, stats: &ExecStats, plan: &Plan) {
        let t = stats.totals();
        for (metric, v) in [
            ("ir.udf_calls", t.udf_calls),
            ("ir.interp_steps", t.interp_steps),
            ("exec.records_shipped", t.records_shipped),
            ("exec.bytes_shipped", t.bytes_shipped),
            ("exec.records_spilled", t.records_spilled),
            ("exec.spilled_bytes", t.spilled_bytes),
            ("exec.spill_runs", t.spill_runs),
            ("preagg_in", t.records_preagg_in),
            ("preagg_out", t.records_preagg_out),
        ] {
            self.count(metric, v as f64);
        }
        for (snap, op) in stats.op_snapshots().iter().zip(&plan.ctx.ops) {
            let metric = match op.pact {
                Pact::Map => {
                    self.count("map_calls", snap.calls as f64);
                    "exec.op_ms.map"
                }
                Pact::Reduce { .. } => "exec.op_ms.reduce",
                Pact::Match { .. } => "exec.op_ms.match",
                Pact::CoGroup { .. } => "exec.op_ms.cogroup",
                Pact::Cross => "exec.op_ms.cross",
            };
            self.count(metric, snap.nanos as f64 / 1e6);
        }
    }
}
