//! The engine as a service: boot `strato-server` in-process on an
//! ephemeral port, submit a dataflow over HTTP, and scrape `/metrics`.
//!
//! The same wire protocol works against a standalone server started with
//! `cargo run --release --bin strato-serve` — see "Running as a service"
//! in the README.
//!
//! Run with: `cargo run --example service`

use strato::server::json::Json;
use strato::server::{client, Server, ServerConfig};

fn main() {
    // 1. Boot. Port 0 binds ephemerally; `spawn` serves on a background
    //    thread and hands back the address.
    let config = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        max_concurrent: 2,
        queue_depth: 4,
        ..ServerConfig::default()
    };
    let handle = Server::bind(&config).expect("bind").spawn().expect("spawn");
    println!("serving on http://{}", handle.addr());

    // 2. Submit a dataflow: filter non-negative amounts, then a per-key
    //    in-place sum.
    //    Inputs ride along inline; options map onto ExecOptions.
    let body = r#"{
      "flow": {
        "op": {"name": "sum_per_user", "kind": "reduce", "key": [0],
               "udf": {"fn": "fold", "op": "sum", "field": 1}},
        "inputs": [
          {"op": {"name": "valid", "kind": "map",
                  "udf": {"fn": "filter", "field": 1, "cmp": "ge", "value": 0}},
           "inputs": [
             {"source": {"name": "purchases", "fields": ["user", "amount"], "est_rows": 6}}
           ]}
        ]
      },
      "inputs": {"purchases": [[1, 30], [2, 5], [1, 12], [3, -99], [2, 8], [3, 41]]},
      "options": {"dop": 2, "batch": 256}
    }"#;
    let response = client::post_json(handle.addr(), "/v1/query", body).expect("query");
    assert_eq!(response.status, 200, "{}", response.text());

    let doc = Json::parse(&response.text()).expect("response JSON");
    println!("\nrows (canonical order):");
    for row in doc.get("rows").unwrap().as_array().unwrap() {
        println!("  {row}");
    }
    let stats = doc.get("stats").unwrap();
    println!(
        "\nstats: udf_calls={} shipped={}",
        stats.get("udf_calls").unwrap(),
        stats.get("records_shipped").unwrap()
    );

    // 3. Scrape the Prometheus endpoint.
    let scrape = client::get(handle.addr(), "/metrics")
        .expect("scrape")
        .text();
    println!("\nselected /metrics samples:");
    for line in scrape.lines().filter(|l| {
        !l.starts_with('#')
            && (l.starts_with("strato_queries_") || l.starts_with("strato_op_udf_calls"))
    }) {
        println!("  {line}");
    }

    handle.shutdown();
}
