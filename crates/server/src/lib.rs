//! `strato-server` — the engine as a resident service.
//!
//! Everything below `strato-server` in the stack is a library: you hand
//! [`execute_with`](strato_exec::execute_with) a plan and get a
//! [`DataSet`](strato_record::DataSet) back, in process. This crate turns
//! that pipeline into a long-running HTTP/JSON service:
//!
//! * **`POST /v1/query`** accepts a dataflow program as JSON — a tree of
//!   sources and operators whose UDFs come from the declarative catalog
//!   of [`strato_dataflow::spec`] — optimizes it with the full
//!   enumerate-and-cost optimizer, executes it on the worker pool
//!   honoring the request's execution options (`dop`, `batch`,
//!   `mem_budget`, `trace`), and streams result rows back as a chunked
//!   JSON response that closes with the run's execution statistics.
//! * **`GET /metrics`** exposes cumulative server and execution counters
//!   in Prometheus text format, down to per-operator series.
//! * **`GET /healthz`** is a liveness probe.
//!
//! Admission is controlled by a token-bucket gate: at most
//! `max_concurrent` queries execute at once, at most `queue_depth` more
//! wait, and everything beyond that is answered `429` immediately — with
//! a `Retry-After` header sized to the current queue depth.
//!
//! Admitted queries all execute on **one shared
//! [`EngineRuntime`](strato_exec::EngineRuntime)**: a single worker pool
//! scheduling task steps round-robin across in-flight queries, and a
//! single machine-wide memory budget their per-query grants are carved
//! from ([`ServerConfig::workers`](server::ServerConfig) /
//! `ServerConfig::mem_budget`, the bin's `--workers`/`--mem-budget`).
//! Shutdown drains in-flight queries for a bounded grace period before
//! returning, so accepted queries finish streaming their responses.
//!
//! The build environment is offline, so the crate is dependency-free in
//! the spirit of the vendored shims under `crates/shims/`: JSON codec
//! ([`json`]), HTTP layer ([`http`]), and client ([`client`]) are all
//! hand-rolled over [`std::net`].
//!
//! # In-process quickstart
//!
//! ```
//! use strato_server::{client, Server, ServerConfig};
//!
//! // Bind an ephemeral port and serve in the background.
//! let config = ServerConfig {
//!     addr: "127.0.0.1:0".to_string(),
//!     ..ServerConfig::default()
//! };
//! let handle = Server::bind(&config).unwrap().spawn().unwrap();
//!
//! // k=1 rows: (1,10), (1,5); k=2 rows: (2,7) — grouped in-place sum.
//! let response = client::post_json(
//!     handle.addr(),
//!     "/v1/query",
//!     r#"{
//!       "flow": {
//!         "op": {"name": "sum", "kind": "reduce", "key": [0],
//!                "udf": {"fn": "fold", "op": "sum", "field": 1}},
//!         "inputs": [{"source": {"name": "s", "fields": ["k", "v"], "est_rows": 3}}]
//!       },
//!       "inputs": {"s": [[1, 10], [1, 5], [2, 7]]},
//!       "options": {"dop": 2}
//!     }"#,
//! )
//! .unwrap();
//! assert_eq!(response.status, 200);
//! assert!(response.text().starts_with(r#"{"rows":[[1,15],[2,7]]"#));
//!
//! let scrape = client::get(handle.addr(), "/metrics").unwrap();
//! assert!(scrape.text().contains("strato_queries_completed_total 1"));
//! handle.shutdown();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod client;
pub mod decode;
pub mod handlers;
pub mod http;
pub mod json;
pub mod metrics;
pub mod server;

pub use admission::{Admission, AdmissionGate, Permit};
pub use decode::{decode_query, DecodeError, QueryRequest};
pub use handlers::AppState;
pub use json::{Json, JsonError};
pub use metrics::Metrics;
pub use server::{Server, ServerConfig, ServerHandle};
