//! Runs the whole suite at `--quick` scale and checks what the benchmark
//! promises: every metric `BENCHMARK.json` names is reported for every
//! workload, nothing fails, each half of the shuffle pair takes its own
//! path, exact counts repeat, and the Chrome traces parse and nest.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;
use strato_server::Json;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("benchmark/ sits in the repository root")
        .to_path_buf()
}

fn read_json(path: &Path) -> Json {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    Json::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn names(doc: &Json, list: &str) -> Vec<String> {
    doc.get(list)
        .and_then(Json::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {list}"))
        .iter()
        .map(|e| e.get("name").and_then(Json::as_str).unwrap().to_string())
        .collect()
}

fn keys(obj: &Json) -> BTreeSet<String> {
    match obj {
        Json::Obj(members) => members.iter().map(|(k, _)| k.clone()).collect(),
        other => panic!("expected an object, got {other}"),
    }
}

fn median_of(summary: &Json, section: &str, workload: &str, metric: &str) -> f64 {
    let mut v: Vec<f64> = summary
        .get(section)
        .and_then(|s| s.get(workload))
        .and_then(|w| w.get(metric))
        .and_then(Json::as_array)
        .unwrap_or_else(|| panic!("{section}.{workload}.{metric} missing"))
        .iter()
        .map(|x| x.as_f64().unwrap())
        .collect();
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// (pid, tid, cat, name, start, end) of every complete event.
fn spans(trace: &Json) -> Vec<(i64, i64, String, String, f64, f64)> {
    trace
        .get("traceEvents")
        .and_then(Json::as_array)
        .expect("traceEvents")
        .iter()
        .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
        .map(|e| {
            let num = |k: &str| e.get(k).and_then(Json::as_f64).unwrap();
            let text = |k: &str| e.get(k).and_then(Json::as_str).unwrap().to_string();
            (
                num("pid") as i64,
                num("tid") as i64,
                text("cat"),
                text("name"),
                num("ts"),
                num("ts") + num("dur"),
            )
        })
        .collect()
}

#[test]
fn quick_suite_reports_every_metric_and_its_traces_nest() {
    let root = repo_root();
    let out = root.join("benchmark/out/quick-test.json");
    let status = Command::new(env!("CARGO_BIN_EXE_stratobench"))
        .args(["suite", "--quick", "--out"])
        .arg(&out)
        .current_dir(&root)
        .status()
        .expect("run stratobench");
    assert!(status.success(), "quick suite failed: {status}");

    let bench = read_json(&root.join("BENCHMARK.json"));
    let summary = read_json(&out);
    assert_eq!(
        summary.get("claim"),
        Some(&Json::Null),
        "this benchmark claims no gain"
    );

    let legal = |n: &str| {
        !n.is_empty()
            && n.len() <= 64
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    };
    let workloads = names(&bench, "workloads");
    assert_eq!(workloads.len(), 6);
    for (section, list) in [("end_to_end", "end_to_end"), ("per_layer", "per_layer")] {
        let wanted: BTreeSet<String> = names(&bench, list).into_iter().collect();
        assert!(wanted.iter().all(|n| legal(n)), "illegal name in {list}");
        for w in &workloads {
            let got = keys(summary.get(section).and_then(|s| s.get(w)).unwrap());
            assert_eq!(
                got, wanted,
                "{w}: reported {section} names differ from BENCHMARK.json"
            );
        }
    }

    for w in &workloads {
        let failed = summary.get("failed").and_then(|f| f.get(w)).unwrap();
        assert_eq!(failed.as_f64(), Some(0.0), "{w}: failed operations");
        assert!(
            median_of(&summary, "end_to_end", w, "ops_per_s") > 0.0,
            "{w}: no throughput"
        );
    }
    let layer = |w: &str, m: &str| median_of(&summary, "per_layer", w, m);
    assert!(layer("shuffle_ooc", "exec.spill_runs") > 0.0);
    assert!(layer("shuffle_ooc", "exec.spill_write_ms") > 0.0);
    assert_eq!(layer("shuffle_mem", "exec.spill_runs"), 0.0);
    assert_eq!(layer("shuffle_mem", "exec.merge_ms"), 0.0);
    assert_eq!(layer("shuffle_mem", "exec.op_ms.map"), 0.0);
    assert_eq!(layer("served_small", "server.rejected"), 0.0);
    assert!(layer("served_small", "server.http_ms") > 0.0);
    assert_eq!(layer("relational", "server.http_ms"), 0.0);
    assert!(layer("relational", "core.plans_enumerated") > 100.0);

    // Counts a later issue may rest a claim on repeated exactly.
    let Some(Json::Obj(repeats)) = summary.get("exact_repeat") else {
        panic!("no exact_repeat member");
    };
    assert_eq!(repeats.len(), 5, "every single-client workload is checked");
    for (w, cells) in repeats {
        for name in keys(cells) {
            assert_eq!(
                cells.get(&name),
                Some(&Json::Bool(true)),
                "{w}: {name} did not repeat"
            );
        }
    }

    // Benchmark spans of one operation follow or contain one another, and
    // wrap the engine's own spans of that operation.
    for w in &workloads {
        let trace = read_json(&root.join(format!("benchmark/out/trace-{w}.json")));
        let spans = spans(&trace);
        let bench: Vec<_> = spans.iter().filter(|s| s.2 == "bench").collect();
        assert!(
            bench.iter().any(|s| s.3 == "execute"),
            "{w}: no execute span"
        );
        let eps = 0.002; // timestamps are rounded to the nanosecond
        for a in &bench {
            for b in bench.iter().filter(|b| b.0 == a.0) {
                let disjoint = a.5 <= b.4 + eps || b.5 <= a.4 + eps;
                let nested = (a.4 + eps >= b.4 && a.5 <= b.5 + eps)
                    || (b.4 + eps >= a.4 && b.5 <= a.5 + eps);
                assert!(disjoint || nested, "{w}: {a:?} and {b:?} overlap");
            }
        }
        let engine: Vec<_> = spans.iter().filter(|s| s.2 != "bench").collect();
        assert!(!engine.is_empty(), "{w}: no engine spans");
        for e in engine {
            assert!(
                bench.iter().any(|b| b.3 == "execute"
                    && b.0 == e.0
                    && b.4 <= e.4 + eps
                    && e.5 <= b.5 + eps),
                "{w}: engine span {e:?} lies outside its operation's execute span"
            );
        }
    }
}
