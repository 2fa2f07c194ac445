//! `strato-serve` — the resident query service.
//!
//! ```text
//! strato-serve [--addr HOST:PORT] [--max-concurrent N] [--queue-depth N]
//!              [--workers N] [--mem-budget BYTES] [--slow-query-ms N]
//! ```
//!
//! `--workers` and `--mem-budget` size the **shared engine runtime**: one
//! worker pool and one memory budget divided across all concurrent
//! queries (they are machine-wide totals, not per-query limits).

#![forbid(unsafe_code)]

use std::process::ExitCode;
use strato_server::{Server, ServerConfig};

fn main() -> ExitCode {
    let config = match parse_args(std::env::args().skip(1)) {
        Ok(Some(config)) => config,
        Ok(None) => return ExitCode::SUCCESS, // --help
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!("{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let server = match Server::bind(&config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: cannot bind {}: {e}", config.addr);
            return ExitCode::FAILURE;
        }
    };
    match server.local_addr() {
        Ok(addr) => eprintln!(
            "strato-serve listening on http://{addr} (max-concurrent {}, queue-depth {})",
            config.max_concurrent, config.queue_depth
        ),
        Err(_) => eprintln!("strato-serve listening on {}", config.addr),
    }
    if let Err(e) = server.run() {
        eprintln!("error: accept loop failed: {e}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

const USAGE: &str = "usage: strato-serve [--addr HOST:PORT] [--max-concurrent N] [--queue-depth N] [--workers N] [--mem-budget BYTES] [--slow-query-ms N]
  --addr            listen address (default 127.0.0.1:8464; port 0 binds ephemerally)
  --max-concurrent  queries executing at once (default 4)
  --queue-depth     queries allowed to wait before 429 (default 16)
  --workers         threads in the shared engine pool all queries run on
                    (default: available parallelism)
  --mem-budget      machine-wide memory budget in bytes shared by all
                    concurrent queries (default 384 MiB)
  --slow-query-ms   log a one-line plan+stats summary to stderr for
                    queries slower than N milliseconds (default: off)";

fn parse_args(args: impl Iterator<Item = String>) -> Result<Option<ServerConfig>, String> {
    let mut config = ServerConfig::default();
    let mut args = args.peekable();
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--help" | "-h" => {
                println!("{USAGE}");
                return Ok(None);
            }
            "--addr" => {
                config.addr = args.next().ok_or("--addr needs a value")?;
            }
            "--max-concurrent" => {
                config.max_concurrent = parse_count(args.next(), "--max-concurrent")?;
            }
            "--queue-depth" => {
                config.queue_depth = parse_count(args.next(), "--queue-depth")?;
            }
            "--workers" => {
                config.workers = Some(parse_count(args.next(), "--workers")?);
            }
            "--mem-budget" => {
                config.mem_budget = Some(parse_count(args.next(), "--mem-budget")? as u64);
            }
            "--slow-query-ms" => {
                config.slow_query_ms = Some(parse_count(args.next(), "--slow-query-ms")? as u64);
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Some(config))
}

fn parse_count(value: Option<String>, flag: &str) -> Result<usize, String> {
    value
        .ok_or_else(|| format!("{flag} needs a value"))?
        .parse::<usize>()
        .map_err(|_| format!("{flag} needs a non-negative integer"))
}
