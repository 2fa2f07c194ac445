//! End-to-end tests of the query service: a real listener on an
//! ephemeral port, real HTTP round trips.
//!
//! The central guarantee: a dataflow submitted over the wire produces
//! **byte-identical** result rows to the same flow compiled and executed
//! in process, and the `/metrics` scrape agrees with the in-process
//! execution statistics down to per-operator counters.

use strato::core::Optimizer;
use strato::dataflow::spec::{
    CmpOp, FlowSpec, FoldOp, MapUdf, NodeSpec, OpSpec, ReduceUdf, SourceSpec,
};
use strato::dataflow::PropertyMode;
use strato::exec::{execute_with, ExecOptions, Inputs};
use strato::record::{DataSet, Record, Value};
use strato::server::decode::value_to_json;
use strato::server::json::Json;
use strato::server::{client, Server, ServerConfig};

/// Boots a background server with the given admission limits.
fn boot(max_concurrent: usize, queue_depth: usize) -> strato::server::ServerHandle {
    let config = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        max_concurrent,
        queue_depth,
        ..ServerConfig::default()
    };
    Server::bind(&config).expect("bind").spawn().expect("spawn")
}

/// The first sample of `name` in a Prometheus scrape (`name` includes any
/// label set, verbatim).
fn metric(text: &str, name: &str) -> Option<u64> {
    text.lines().find_map(|l| {
        let rest = l.strip_prefix(name)?;
        rest.strip_prefix(' ')?.trim().parse().ok()
    })
}

/// Deterministic (k, v) rows with some negative v to give the filter work.
fn sample_rows(n: i64) -> DataSet {
    (0..n)
        .map(|i| Record::from_values(vec![Value::Int(i % 10), Value::Int((i * 7) % 50 - 10)]))
        .collect()
}

/// JSON text of a data set's rows in canonical sorted order — the exact
/// serialization the server streams back.
fn rows_json(out: &DataSet) -> String {
    Json::Arr(
        out.sorted()
            .iter()
            .map(|r| Json::Arr(r.fields().iter().map(value_to_json).collect()))
            .collect(),
    )
    .to_string()
}

#[test]
fn served_query_matches_direct_execution_byte_for_byte() {
    let handle = boot(2, 4);
    let data = sample_rows(200);

    // The same grouped aggregation, described twice: as the wire JSON and
    // as the in-process FlowSpec. The inline inputs preserve the original
    // row order — batch boundaries (and so e.g. combiner ship counts)
    // depend on it.
    let inline_rows = Json::Arr(
        data.iter()
            .map(|r| Json::Arr(r.fields().iter().map(value_to_json).collect()))
            .collect::<Vec<_>>(),
    )
    .to_string();
    let body = format!(
        r#"{{
          "flow": {{
            "op": {{"name": "sum", "kind": "reduce", "key": [0],
                   "udf": {{"fn": "fold", "op": "sum", "field": 1}}}},
            "inputs": [
              {{"op": {{"name": "pos", "kind": "map",
                      "udf": {{"fn": "filter", "field": 1, "cmp": "ge", "value": 0}}}},
               "inputs": [{{"source": {{"name": "s", "fields": ["k", "v"], "est_rows": 200}}}}]}}
            ]
          }},
          "inputs": {{"s": {inline_rows}}},
          "options": {{"dop": 2, "batch": 64, "combine": true}}
        }}"#
    );

    let flow = FlowSpec::new(NodeSpec::op(
        OpSpec::reduce("sum", &[0], ReduceUdf::fold_inplace(FoldOp::Sum, 1)),
        vec![NodeSpec::op(
            OpSpec::map("pos", MapUdf::filter_cmp(1, CmpOp::Ge, 0i64)),
            vec![NodeSpec::source(SourceSpec::new("s", &["k", "v"], 200))],
        )],
    ));
    let plan = flow.build().expect("valid spec");
    let best = Optimizer::new(PropertyMode::Sca).with_dop(2).best(&plan);
    let mut inputs = Inputs::new();
    inputs.insert("s".to_string(), data);
    let opts = ExecOptions {
        batch_size: 64,
        combine: true,
        ..ExecOptions::default()
    };
    let (direct_out, direct_stats) =
        execute_with(&best.plan, &best.phys, &inputs, 2, &opts).expect("direct execution");

    // Round trip over the wire.
    let response = client::post_json(handle.addr(), "/v1/query", &body).expect("query");
    assert_eq!(response.status, 200, "{}", response.text());
    assert_eq!(
        response.header("transfer-encoding"),
        Some("chunked"),
        "results must stream back chunked"
    );
    let doc = Json::parse(&response.text()).expect("response is JSON");

    // Byte-identical rows.
    let served_rows = doc.get("rows").expect("rows member");
    assert_eq!(served_rows.to_string(), rows_json(&direct_out));
    // And bag-equal as data sets (same check, independent of ordering).
    let served_ds: DataSet = served_rows
        .as_array()
        .unwrap()
        .iter()
        .map(|row| {
            Record::from_values(
                row.as_array()
                    .unwrap()
                    .iter()
                    .map(|v| strato::server::decode::json_to_value(v).unwrap()),
            )
        })
        .collect();
    assert_eq!(served_ds, direct_out);

    // The response stats agree with the in-process run.
    let stats = doc.get("stats").expect("stats member");
    let totals = direct_stats.totals();
    assert_eq!(
        stats.get("udf_calls").unwrap().as_i64(),
        Some(totals.udf_calls as i64)
    );
    assert_eq!(
        stats.get("records_emitted").unwrap().as_i64(),
        Some(totals.records_emitted as i64)
    );

    // The scrape agrees too, down to per-operator counters.
    let scrape = client::get(handle.addr(), "/metrics")
        .expect("scrape")
        .text();
    assert_eq!(metric(&scrape, "strato_queries_completed_total"), Some(1));
    assert_eq!(metric(&scrape, "strato_queries_errored_total"), Some(0));
    assert_eq!(
        metric(&scrape, "strato_exec_udf_calls_total"),
        Some(totals.udf_calls)
    );
    assert_eq!(
        metric(&scrape, "strato_exec_records_shipped_total"),
        Some(totals.records_shipped)
    );
    let direct_ops = direct_stats.op_snapshots();
    for (i, op) in best.plan.ctx.ops.iter().enumerate() {
        let series = format!("strato_op_udf_calls_total{{op=\"{}\"}}", op.name);
        assert_eq!(
            metric(&scrape, &series),
            Some(direct_ops[i].calls),
            "{series}"
        );
    }

    // The scrape exposes the shared runtime's pool and memory gauges.
    assert!(
        metric(&scrape, "strato_pool_workers").unwrap() > 0,
        "{scrape}"
    );
    assert!(
        metric(&scrape, "strato_pool_tasks_total").unwrap() > 0,
        "the query ran on the shared pool: {scrape}"
    );
    assert_eq!(metric(&scrape, "strato_pool_active_queries"), Some(0));
    assert_eq!(metric(&scrape, "strato_mem_granted_bytes"), Some(0));

    handle.shutdown();
}

#[test]
fn shutdown_drains_in_flight_queries() {
    let slow_body = r#"{
      "flow": {
        "op": {"name": "extract", "kind": "map",
               "udf": {"fn": "burn", "field": 0, "units": 500000}},
        "inputs": [{"source": {"name": "s", "fields": ["x"], "est_rows": 8}}]
      },
      "inputs": {"s": [[0],[1],[2],[3],[4],[5],[6],[7]]}
    }"#;
    let wait_in_flight = |handle: &strato::server::ServerHandle| {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while handle.state().gate.load().0 == 0 {
            assert!(
                std::time::Instant::now() < deadline,
                "slow query never became in-flight"
            );
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
    };

    // Zero grace: the drain reports failure while the query holds its
    // permit — but the handler thread still finishes detached, so the
    // client gets its full response anyway.
    let handle = boot(1, 0);
    let addr = handle.addr();
    let slow = std::thread::spawn(move || client::post_json(addr, "/v1/query", slow_body));
    wait_in_flight(&handle);
    assert!(
        !handle.shutdown_within(std::time::Duration::ZERO),
        "zero grace cannot drain a busy gate"
    );
    let response = slow.join().expect("join").expect("slow query");
    assert_eq!(response.status, 200, "{}", response.text());

    // Generous grace: shutdown blocks until the in-flight query finished
    // streaming its response (the permit is held until the flush).
    let handle = boot(1, 0);
    let addr = handle.addr();
    let slow = std::thread::spawn(move || client::post_json(addr, "/v1/query", slow_body));
    wait_in_flight(&handle);
    assert!(
        handle.shutdown_within(std::time::Duration::from_secs(30)),
        "drain must complete once the query finishes"
    );
    let response = slow.join().expect("join").expect("slow query");
    assert_eq!(response.status, 200, "{}", response.text());
}

#[test]
fn admission_gate_sheds_load_with_429() {
    // One execution token, no queue: a second concurrent query must be
    // rejected immediately.
    let handle = boot(1, 0);
    let addr = handle.addr();

    // A deliberately slow query: burn CPU per record so it stays in
    // flight while the second request arrives.
    let slow_body = r#"{
      "flow": {
        "op": {"name": "extract", "kind": "map",
               "udf": {"fn": "burn", "field": 0, "units": 500000}},
        "inputs": [{"source": {"name": "s", "fields": ["x"], "est_rows": 8}}]
      },
      "inputs": {"s": [[0],[1],[2],[3],[4],[5],[6],[7]]}
    }"#;
    let slow = std::thread::spawn(move || client::post_json(addr, "/v1/query", slow_body));

    // Wait until the slow query holds the execution token.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    loop {
        let scrape = client::get(addr, "/metrics").expect("scrape").text();
        if metric(&scrape, "strato_queries_in_flight") == Some(1) {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "slow query never became in-flight:\n{scrape}"
        );
        std::thread::sleep(std::time::Duration::from_millis(2));
    }

    // Saturated: the next query is shed at the door.
    let tiny_body = r#"{
      "flow": {"source": {"name": "s", "fields": ["x"], "est_rows": 1}},
      "inputs": {"s": [[1]]}
    }"#;
    let rejected = client::post_json(addr, "/v1/query", tiny_body).expect("request");
    assert_eq!(rejected.status, 429, "{}", rejected.text());
    assert!(rejected.text().contains("error"));
    // With an empty queue the suggested backoff is the minimal 1 second.
    assert_eq!(
        rejected.header("retry-after"),
        Some("1"),
        "429 must carry a queue-depth-derived Retry-After"
    );

    // The slow query still completes fine.
    let slow_response = slow.join().expect("join").expect("slow query");
    assert_eq!(slow_response.status, 200, "{}", slow_response.text());

    // And once the token is free again, queries are admitted.
    let retry = client::post_json(addr, "/v1/query", tiny_body).expect("retry");
    assert_eq!(retry.status, 200, "{}", retry.text());

    let scrape = client::get(addr, "/metrics").expect("scrape").text();
    assert_eq!(metric(&scrape, "strato_queries_rejected_total"), Some(1));
    assert_eq!(metric(&scrape, "strato_queries_completed_total"), Some(2));

    handle.shutdown();
}

#[test]
fn protocol_errors_map_to_4xx() {
    let handle = boot(2, 2);
    let addr = handle.addr();

    // Malformed JSON → 400.
    let r = client::post_json(addr, "/v1/query", "{nope").expect("request");
    assert_eq!(r.status, 400);
    // Well-formed JSON, wrong shape → 422.
    let r = client::post_json(addr, "/v1/query", r#"{"flows": 1}"#).expect("request");
    assert_eq!(r.status, 422);
    // Structurally invalid flow (key out of range) → 422.
    let r = client::post_json(
        addr,
        "/v1/query",
        r#"{"flow": {"op": {"name": "g", "kind": "reduce", "key": [9],
                           "udf": {"fn": "count"}},
                    "inputs": [{"source": {"name": "s", "fields": ["x"], "est_rows": 1}}]}}"#,
    )
    .expect("request");
    assert_eq!(r.status, 422, "{}", r.text());
    // Unknown endpoint → 404; wrong method → 405.
    assert_eq!(client::get(addr, "/nope").expect("request").status, 404);
    assert_eq!(client::get(addr, "/v1/query").expect("request").status, 405);
    // Liveness probe.
    let health = client::get(addr, "/healthz").expect("request");
    assert_eq!((health.status, health.text().as_str()), (200, "ok"));

    // Every failure was counted, nothing completed.
    let scrape = client::get(addr, "/metrics").expect("scrape").text();
    assert_eq!(metric(&scrape, "strato_queries_errored_total"), Some(3));
    assert_eq!(metric(&scrape, "strato_queries_completed_total"), Some(0));

    handle.shutdown();
}

#[test]
fn unknown_option_keys_are_ignored() {
    // `"workers"` used to be a request option; the pool size is the
    // server's. A body that still carries it — even a value the old range
    // check refused — is answered exactly like one without.
    let handle = boot(2, 2);
    let query = |options: &str| {
        let body = format!(
            r#"{{"flow": {{"op": {{"name": "sum", "kind": "reduce", "key": [0],
                                 "udf": {{"fn": "fold", "op": "sum", "field": 1}}}},
                         "inputs": [{{"source": {{"name": "s", "fields": ["k", "v"],
                                                "est_rows": 4}}}}]}},
                "inputs": {{"s": [[1, 10], [2, 5], [1, -3], [2, 7]]}},
                "options": {options}}}"#
        );
        let r = client::post_json(handle.addr(), "/v1/query", &body).expect("query");
        assert_eq!(r.status, 200, "{options}: {}", r.text());
        let doc = Json::parse(&r.text()).expect("response is JSON");
        doc.get("rows").expect("rows member").to_string()
    };
    let plain = query(r#"{"dop": 2}"#);
    assert_eq!(plain, "[[1,7],[2,12]]");
    assert_eq!(query(r#"{"dop": 2, "workers": 3}"#), plain);
    assert_eq!(query(r#"{"dop": 2, "workers": 0}"#), plain);
    handle.shutdown();
}

#[test]
fn traced_query_returns_trace_explain_and_history() {
    let handle = boot(2, 2);
    let addr = handle.addr();
    let body = r#"{
      "flow": {"op": {"name": "sum", "kind": "reduce", "key": [0],
                      "udf": {"fn": "fold", "op": "sum", "field": 1}},
               "inputs": [{"source": {"name": "s", "fields": ["k", "v"], "est_rows": 4}}]},
      "inputs": {"s": [[1, 10], [1, 5], [2, 7], [2, 1]]},
      "options": {"dop": 2, "trace": true}
    }"#;
    let r = client::post_json(addr, "/v1/query", body).expect("query");
    assert_eq!(r.status, 200, "{}", r.text());
    let doc = Json::parse(&r.text()).expect("response is JSON");
    assert_eq!(doc.get("rows").unwrap().to_string(), "[[1,15],[2,8]]");
    let qid = doc
        .get("query_id")
        .and_then(Json::as_i64)
        .expect("query_id member");
    assert!(qid >= 1);

    // The inline trace is a Chrome trace-event document whose complete
    // events all carry this query's id, and it includes the server-side
    // phases around the engine's task spans.
    let trace = doc.get("trace").expect("trace member");
    let events = trace
        .get("traceEvents")
        .and_then(Json::as_array)
        .expect("traceEvents");
    let names: Vec<&str> = events
        .iter()
        .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
        .map(|e| {
            assert_eq!(
                e.get("pid").and_then(Json::as_i64),
                Some(qid),
                "pid = query id"
            );
            assert_eq!(
                e.get("args")
                    .and_then(|a| a.get("query_id"))
                    .and_then(Json::as_i64),
                Some(qid)
            );
            e.get("name").and_then(Json::as_str).expect("event name")
        })
        .collect();
    for expected in ["admission-wait", "plan-compile", "optimize"] {
        assert!(names.contains(&expected), "missing {expected:?}: {names:?}");
    }
    assert!(
        events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
            .any(|e| {
                e.get("args").and_then(|a| a.get("stage")).is_some()
                    && e.get("args").and_then(|a| a.get("partition")).is_some()
            }),
        "engine task spans with stage/partition attribution: {names:?}"
    );

    // The explain report pairs estimates with actuals.
    let explain = doc
        .get("explain")
        .and_then(Json::as_str)
        .expect("explain member");
    assert!(explain.starts_with("EXPLAIN ANALYZE"), "{explain}");
    assert!(explain.contains("est: rows="), "{explain}");
    assert!(explain.contains("| act: rows="), "{explain}");

    // The trace stays fetchable from the debug endpoint…
    let fetched = client::get(addr, &format!("/v1/queries/{qid}/trace")).expect("fetch");
    assert_eq!(fetched.status, 200, "{}", fetched.text());
    assert_eq!(
        &Json::parse(&fetched.text()).expect("fetched trace is JSON"),
        trace,
        "debug endpoint serves the same document the response carried"
    );
    // …unknown ids 404, wrong methods 405.
    let missing = client::get(addr, "/v1/queries/999999/trace").expect("fetch");
    assert_eq!(missing.status, 404);
    let wrong = client::post_json(addr, &format!("/v1/queries/{qid}/trace"), "{}").expect("post");
    assert_eq!(wrong.status, 405);

    // An untraced query gets an id but no trace/explain members.
    let untraced = body.replace("\"trace\": true", "\"trace\": false");
    let r2 = client::post_json(addr, "/v1/query", &untraced).expect("query");
    assert_eq!(r2.status, 200, "{}", r2.text());
    let doc2 = Json::parse(&r2.text()).expect("response is JSON");
    assert!(doc2.get("query_id").is_some());
    assert!(doc2.get("trace").is_none(), "untraced responses stay lean");
    assert!(doc2.get("explain").is_none());

    handle.shutdown();
}

/// A tiny Prometheus text-format (0.0.4) validator: every sample must
/// belong to a family announced by `# HELP` and `# TYPE`, label blocks
/// must be well-formed `k="v"` lists with escaped values, histogram
/// buckets must be cumulative with `le="+Inf"` equal to `_count`, and
/// every value must parse.
fn assert_valid_prometheus(scrape: &str) {
    use std::collections::{HashMap, HashSet};
    let mut helps: HashSet<&str> = HashSet::new();
    let mut types: HashMap<&str, &str> = HashMap::new();
    for line in scrape.lines() {
        if let Some(rest) = line.strip_prefix("# HELP ") {
            helps.insert(rest.split_whitespace().next().expect("HELP name"));
        } else if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut it = rest.split_whitespace();
            let name = it.next().expect("TYPE name");
            let kind = it.next().expect("TYPE kind");
            assert!(
                ["counter", "gauge", "histogram"].contains(&kind),
                "unknown TYPE kind: {line}"
            );
            assert!(
                types.insert(name, kind).is_none(),
                "family {name} TYPE'd twice"
            );
        }
    }
    // Per histogram family: bucket cumulative counts in order, sum, count.
    type HistoFacts = (Vec<u64>, Option<f64>, Option<u64>);
    let mut histos: HashMap<String, HistoFacts> = HashMap::new();
    let mut saw_inf: HashSet<String> = HashSet::new();
    for line in scrape.lines() {
        if line.starts_with('#') || line.trim().is_empty() {
            continue;
        }
        let name_end = line
            .find(['{', ' '])
            .unwrap_or_else(|| panic!("malformed sample: {line}"));
        let name = &line[..name_end];
        let value_str = line.rsplit(' ').next().unwrap();
        let value = value_str
            .parse::<f64>()
            .unwrap_or_else(|_| panic!("non-numeric value: {line}"));

        // Validate the label block, if any.
        let mut le_label: Option<String> = None;
        if line.as_bytes()[name_end] == b'{' {
            let close = line
                .rfind('}')
                .unwrap_or_else(|| panic!("unclosed labels: {line}"));
            let mut rest = &line[name_end + 1..close];
            while !rest.is_empty() {
                let eq = rest
                    .find("=\"")
                    .unwrap_or_else(|| panic!("bad label: {line}"));
                let key = &rest[..eq];
                assert!(
                    !key.is_empty() && key.chars().all(|c| c.is_ascii_alphanumeric() || c == '_'),
                    "bad label name {key:?}: {line}"
                );
                // Scan the value for the closing unescaped quote.
                let mut val = String::new();
                let mut chars = rest[eq + 2..].char_indices();
                let mut end = None;
                while let Some((i, c)) = chars.next() {
                    match c {
                        '\\' => {
                            let (_, esc) = chars.next().expect("dangling escape");
                            assert!(
                                ['\\', '"', 'n'].contains(&esc),
                                "unknown escape \\{esc} in {line}"
                            );
                            val.push(esc);
                        }
                        '"' => {
                            end = Some(i);
                            break;
                        }
                        _ => val.push(c),
                    }
                }
                let end = end.unwrap_or_else(|| panic!("unterminated label value: {line}"));
                assert!(
                    !val.contains('\n'),
                    "raw newline must be escaped in label values: {line}"
                );
                if key == "le" {
                    le_label = Some(val);
                }
                rest = &rest[eq + 2 + end + 1..];
                rest = rest.strip_prefix(',').unwrap_or(rest);
            }
        }

        // Resolve the family: histogram children map to their base name.
        let family = ["_bucket", "_sum", "_count"]
            .iter()
            .find_map(|suf| {
                name.strip_suffix(suf)
                    .filter(|base| types.get(base) == Some(&"histogram"))
            })
            .unwrap_or(name);
        assert!(types.contains_key(family), "sample without TYPE: {line}");
        assert!(helps.contains(family), "sample without HELP: {line}");

        if types.get(family) == Some(&"histogram") {
            let entry = histos.entry(family.to_string()).or_default();
            if name.ends_with("_bucket") {
                let le = le_label.unwrap_or_else(|| panic!("bucket without le: {line}"));
                if le == "+Inf" {
                    saw_inf.insert(family.to_string());
                } else {
                    le.parse::<f64>()
                        .unwrap_or_else(|_| panic!("bad le bound: {line}"));
                }
                entry.0.push(value as u64);
            } else if name.ends_with("_sum") {
                entry.1 = Some(value);
            } else if name.ends_with("_count") {
                entry.2 = Some(value as u64);
            }
        }
    }
    assert!(!histos.is_empty(), "scrape must expose histograms");
    for (family, (buckets, sum, count)) in histos {
        let count = count.unwrap_or_else(|| panic!("{family}: missing _count"));
        assert!(sum.is_some(), "{family}: missing _sum");
        assert!(
            saw_inf.contains(&family),
            "{family}: missing le=\"+Inf\" bucket"
        );
        assert!(
            buckets.windows(2).all(|w| w[0] <= w[1]),
            "{family}: buckets must be cumulative: {buckets:?}"
        );
        assert_eq!(
            buckets.last().copied(),
            Some(count),
            "{family}: le=\"+Inf\" must equal _count"
        );
    }
}

#[test]
fn metrics_scrape_is_valid_prometheus() {
    let handle = boot(2, 2);
    let addr = handle.addr();
    // Complete one query so histograms, per-op and per-query series are
    // all live in the scrape.
    let body = r#"{
      "flow": {"op": {"name": "sum", "kind": "reduce", "key": [0],
                      "udf": {"fn": "fold", "op": "sum", "field": 1}},
               "inputs": [{"source": {"name": "s", "fields": ["k", "v"], "est_rows": 3}}]},
      "inputs": {"s": [[1, 10], [1, 5], [2, 7]]}
    }"#;
    let r = client::post_json(addr, "/v1/query", body).expect("query");
    assert_eq!(r.status, 200, "{}", r.text());

    let scrape = client::get(addr, "/metrics").expect("scrape").text();
    assert_valid_prometheus(&scrape);

    // The latency histograms observed the query…
    assert_eq!(
        metric(&scrape, "strato_query_latency_seconds_count"),
        Some(1)
    );
    assert_eq!(
        metric(&scrape, "strato_admission_wait_seconds_count"),
        Some(1)
    );
    assert_eq!(metric(&scrape, "strato_grant_wait_seconds_count"), Some(1));
    // …build metadata and uptime are exported…
    assert!(
        scrape.contains(&format!(
            "strato_build_info{{version=\"{}\"}} 1\n",
            env!("CARGO_PKG_VERSION")
        )),
        "{scrape}"
    );
    assert!(
        metric(&scrape, "strato_uptime_seconds").is_some(),
        "{scrape}"
    );
    // …and the completed query's per-query gauge settled to 0 instead of
    // leaking or vanishing.
    assert!(
        scrape
            .lines()
            .any(|l| l.starts_with("strato_query_queued_tasks{query=\"q") && l.ends_with(" 0")),
        "recently completed query renders at 0: {scrape}"
    );

    handle.shutdown();
}
