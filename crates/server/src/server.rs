//! The accept loop: a [`TcpListener`] feeding connection-per-thread
//! handlers.
//!
//! Concurrency control lives in the [`AdmissionGate`], not in the thread
//! model: every connection gets a handler thread (connections are
//! short-lived — one request each), but only `max_concurrent` of them can
//! hold an execution token at once; `/metrics` and `/healthz` never touch
//! the gate, so observability stays responsive under full query load.
//!
//! [`Server::spawn`] runs the loop on a background thread and returns a
//! [`ServerHandle`] with the bound address and a shutdown switch — the
//! shape integration tests need (bind port 0, query it, shut down).
//! Shutdown is **graceful**: after the accept loop stops, the handle
//! drains the admission gate for a bounded grace period, so in-flight
//! queries finish streaming their responses instead of being cut off
//! mid-body ([`ServerHandle::shutdown_within`] makes the grace explicit).
//!
//! Every query a server admits executes on one shared
//! [`EngineRuntime`] created at [`Server::bind`] — the
//! [`ServerConfig::workers`] pool and [`ServerConfig::mem_budget`] bytes
//! are machine-wide totals divided across concurrent queries, not
//! per-query multipliers. A query whose every source fits in one batch is
//! driven by its connection's handler thread instead of the pool (see
//! [`EngineRuntime`]'s "Fair scheduling" docs), so it never waits for a
//! worker.
//!
//! [`AdmissionGate`]: crate::admission::AdmissionGate
//! [`EngineRuntime`]: strato_exec::EngineRuntime

use crate::handlers::{handle_connection, AppState};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Grace period [`ServerHandle::shutdown`] gives in-flight queries to
/// finish before giving up on the drain.
const DEFAULT_SHUTDOWN_GRACE: Duration = Duration::from_secs(5);

/// Server configuration (the bin's flags map onto this 1:1).
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address, e.g. `127.0.0.1:8464`. Port `0` binds ephemerally.
    pub addr: String,
    /// Queries allowed to execute concurrently.
    pub max_concurrent: usize,
    /// Queries allowed to wait for an execution token before new arrivals
    /// are answered `429`.
    pub queue_depth: usize,
    /// Worker threads in the shared engine pool all queries execute on
    /// (`None` = the machine's available parallelism).
    pub workers: Option<usize>,
    /// Machine-wide memory budget in bytes shared by every concurrent
    /// query (`None` = the engine's default global budget).
    pub mem_budget: Option<u64>,
    /// Log a one-line plan+stats summary to stderr for queries slower
    /// than this many milliseconds (`None` disables the slow-query log).
    pub slow_query_ms: Option<u64>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:8464".to_string(),
            max_concurrent: 4,
            queue_depth: 16,
            workers: None,
            mem_budget: None,
            slow_query_ms: None,
        }
    }
}

/// A bound (but not yet serving) query service.
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    state: AppState,
}

impl Server {
    /// Binds the listen socket, then creates the admission gate, metrics
    /// registry and shared engine runtime.
    pub fn bind(config: &ServerConfig) -> io::Result<Server> {
        Ok(Server {
            listener: TcpListener::bind(&config.addr)?,
            state: AppState::new(config),
        })
    }

    /// The actual bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Serves on the calling thread (the binary's main loop) until
    /// accepting fails; returns that error.
    pub fn run(self) -> io::Result<()> {
        serve(&self.listener, &self.state, &AtomicBool::new(false))
    }

    /// Serves on a background thread; returns a handle that can query the
    /// bound address, scrape state, and shut the loop down.
    pub fn spawn(self) -> io::Result<ServerHandle> {
        let addr = self.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let state = self.state.clone();
        let thread = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                if let Err(e) = serve(&self.listener, &self.state, &stop) {
                    eprintln!("[strato] accept loop stopped: {e}");
                }
            })
        };
        Ok(ServerHandle {
            addr,
            stop,
            thread: Some(thread),
            state,
        })
    }
}

/// The accept loop: one handler thread per accepted connection, until
/// `stop` is set (checked after each accept) or accepting fails. An
/// aborted connection (peer reset mid-handshake) is skipped; any other
/// accept error — a persistent one such as running out of file
/// descriptors would fail every retry at once — ends the loop and is
/// returned.
fn serve(listener: &TcpListener, state: &AppState, stop: &AtomicBool) -> io::Result<()> {
    for conn in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        match conn {
            Ok(stream) => {
                let state = state.clone();
                std::thread::spawn(move || handle_connection(stream, &state));
            }
            Err(e) if e.kind() == io::ErrorKind::ConnectionAborted => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Handle on a background server started by [`Server::spawn`].
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
    state: AppState,
}

impl ServerHandle {
    /// The address the server is listening on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared per-server state (gate, metrics, engine runtime).
    pub fn state(&self) -> &AppState {
        &self.state
    }

    /// Stops the accept loop and **drains in-flight queries**: admitted
    /// and queued queries get a default 5-second grace to finish — and
    /// since execution permits are held until the response is flushed, a
    /// drained gate means every accepted query got its full answer.
    pub fn shutdown(self) {
        self.shutdown_within(DEFAULT_SHUTDOWN_GRACE);
    }

    /// [`ServerHandle::shutdown`] with an explicit grace period. Returns
    /// `true` when every in-flight query finished within `grace`, `false`
    /// when the drain timed out (handler threads then finish detached).
    pub fn shutdown_within(mut self, grace: Duration) -> bool {
        self.stop_accepting();
        self.state.gate.drain(grace)
    }

    /// Stops the accept loop and joins the server thread; no new
    /// connections are handled after this returns.
    fn stop_accepting(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the accept call with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        if self.thread.is_some() {
            self.stop_accepting();
            self.state.gate.drain(DEFAULT_SHUTDOWN_GRACE);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client;

    /// The sample of an unlabelled series in a Prometheus scrape.
    fn metric(scrape: &str, name: &str) -> u64 {
        scrape
            .lines()
            .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.parse().ok())
            .unwrap_or_else(|| panic!("no {name} in {scrape}"))
    }

    /// A grouped sum over `rows` inline rows at batch size `batch`.
    fn grouped_sum(rows: usize, batch: usize) -> String {
        let data: Vec<String> = (0..rows).map(|i| format!("[{}, {i}]", i % 7)).collect();
        format!(
            r#"{{"flow": {{"op": {{"name": "sum", "kind": "reduce", "key": [0],
                         "udf": {{"fn": "fold", "op": "sum", "field": 1}}}},
                 "inputs": [{{"source": {{"name": "s", "fields": ["k", "v"],
                              "est_rows": {rows}}}}}]}},
               "inputs": {{"s": [{}]}},
               "options": {{"dop": 2, "batch": {batch}}}}}"#,
            data.join(",")
        )
    }

    #[test]
    fn only_a_query_larger_than_one_batch_runs_on_the_pool() {
        let handle = Server::bind(&ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: Some(2),
            ..ServerConfig::default()
        })
        .unwrap()
        .spawn()
        .unwrap();
        let scrape = || client::get(handle.addr(), "/metrics").unwrap().text();
        let query = |body: &str| {
            let r = client::post_json(handle.addr(), "/v1/query", body).unwrap();
            assert_eq!(r.status, 200, "{}", r.text());
        };

        // 256 rows fit in one batch of 256: the handler thread drives it.
        query(&grouped_sum(256, 256));
        let s = scrape();
        assert_eq!(metric(&s, "strato_queries_on_submitter_total"), 1);
        assert_eq!(metric(&s, "strato_pool_tasks_total"), 0, "{s}");

        // 300 rows at batch 64: the pool drives it.
        query(&grouped_sum(300, 64));
        let s = scrape();
        assert_eq!(metric(&s, "strato_queries_on_submitter_total"), 1);
        assert!(metric(&s, "strato_pool_tasks_total") > 0, "{s}");
        assert_eq!(metric(&s, "strato_queries_completed_total"), 2);
        handle.shutdown();
    }
}
