//! A small hand-rolled HTTP/1.1 layer over [`std::net::TcpStream`].
//!
//! The environment is offline, so there is no hyper/axum; like the
//! vendored dependency shims under `crates/shims/`, this module implements
//! exactly the protocol subset the query service needs:
//!
//! * request parsing — request line, headers, `Content-Length` bodies
//!   (bounded; `Transfer-Encoding` request bodies and HTTP/0.9 are
//!   rejected cleanly),
//! * fixed-length responses,
//! * **chunked** responses via [`ChunkedWriter`], which is how query
//!   results go back.
//!
//! Every response is written through one 64 KiB buffer that is flushed
//! when the response ends: a small response reaches the socket in one
//! `write`, and a large one streams out as the buffer fills. Only the
//! writes are coalesced; the bytes on the wire, chunk framing included,
//! are the same as unbuffered writes.
//!
//! Every connection is handled as `Connection: close` — one request per
//! connection keeps the protocol state machine trivial and is what the
//! admission gate (per-query, not per-connection) expects.

use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::net::TcpStream;

/// Upper bound on accepted request bodies (64 MiB). Inline datasets are
/// expected to be modest; a storage layer is the ROADMAP's answer for big
/// inputs.
pub const MAX_BODY_BYTES: u64 = 64 << 20;

/// Upper bound on the total header section (64 KiB).
const MAX_HEADER_BYTES: usize = 64 << 10;

/// Capacity of the buffer every response is written through (64 KiB).
const RESPONSE_BUF_BYTES: usize = 64 << 10;

/// A parsed HTTP request.
#[derive(Debug)]
pub struct Request {
    /// Uppercase method (`GET`, `POST`, …).
    pub method: String,
    /// Request target as sent (path + optional query string).
    pub path: String,
    /// Headers with lower-cased names, in arrival order.
    pub headers: Vec<(String, String)>,
    /// The request body (empty when no `Content-Length`).
    pub body: Vec<u8>,
}

impl Request {
    /// First header with the given (lower-case) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Protocol-level errors while reading a request. Each maps to a status
/// code for the error response.
#[derive(Debug)]
pub enum HttpError {
    /// Malformed request line or headers → 400.
    Bad(String),
    /// Body larger than [`MAX_BODY_BYTES`] → 413.
    TooLarge,
    /// Socket error or client hang-up mid-request (no response possible).
    Io(io::Error),
    /// Clean EOF before any bytes: the client opened and closed without
    /// sending a request (load-balancer health probes do this).
    Closed,
}

impl From<io::Error> for HttpError {
    fn from(e: io::Error) -> Self {
        HttpError::Io(e)
    }
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Bad(m) => write!(f, "malformed request: {m}"),
            HttpError::TooLarge => write!(f, "request body too large"),
            HttpError::Io(e) => write!(f, "socket error: {e}"),
            HttpError::Closed => write!(f, "connection closed before a request"),
        }
    }
}

/// Reads one request from the stream.
pub fn read_request(stream: &mut TcpStream) -> Result<Request, HttpError> {
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    let mut header_bytes = 0usize;

    let n = read_line(&mut reader, &mut line, &mut header_bytes)?;
    if n == 0 {
        return Err(HttpError::Closed);
    }
    let mut parts = line.trim_end().splitn(3, ' ');
    let method = parts
        .next()
        .filter(|m| !m.is_empty())
        .ok_or_else(|| HttpError::Bad("empty request line".into()))?
        .to_ascii_uppercase();
    let path = parts
        .next()
        .ok_or_else(|| HttpError::Bad("missing request target".into()))?
        .to_string();
    let version = parts
        .next()
        .ok_or_else(|| HttpError::Bad("missing HTTP version".into()))?;
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::Bad(format!("unsupported version {version}")));
    }

    let mut headers = Vec::new();
    loop {
        line.clear();
        read_line(&mut reader, &mut line, &mut header_bytes)?;
        let trimmed = line.trim_end();
        if trimmed.is_empty() {
            break;
        }
        let (name, value) = trimmed
            .split_once(':')
            .ok_or_else(|| HttpError::Bad(format!("malformed header {trimmed:?}")))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    let req_no_body = Request {
        method,
        path,
        headers,
        body: Vec::new(),
    };
    if req_no_body
        .header("transfer-encoding")
        .is_some_and(|v| !v.eq_ignore_ascii_case("identity"))
    {
        return Err(HttpError::Bad("chunked request bodies unsupported".into()));
    }
    let len = match req_no_body.header("content-length") {
        None => 0,
        Some(v) => v
            .parse::<u64>()
            .map_err(|_| HttpError::Bad(format!("bad content-length {v:?}")))?,
    };
    if len > MAX_BODY_BYTES {
        return Err(HttpError::TooLarge);
    }
    let mut body = vec![0u8; len as usize];
    reader.read_exact(&mut body)?;
    Ok(Request {
        body,
        ..req_no_body
    })
}

/// Reads one header-section line, reading at most one byte past the
/// section's remaining budget, so a line that never ends is refused once
/// it outgrows [`MAX_HEADER_BYTES`] instead of being buffered without
/// limit.
fn read_line(
    reader: &mut BufReader<&mut TcpStream>,
    line: &mut String,
    total: &mut usize,
) -> Result<usize, HttpError> {
    let budget = (MAX_HEADER_BYTES - *total + 1) as u64;
    let n = reader.by_ref().take(budget).read_line(line)?;
    *total += n;
    if *total > MAX_HEADER_BYTES {
        return Err(HttpError::Bad("header section too large".into()));
    }
    if n > 0 && !line.ends_with('\n') {
        return Err(HttpError::Bad("truncated request".into()));
    }
    Ok(n)
}

/// The reason phrase for the status codes the service uses.
fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        _ => "Unknown",
    }
}

/// Writes a complete fixed-length response.
pub fn write_response(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    body: &[u8],
) -> io::Result<()> {
    write_response_with(stream, status, content_type, body, &[])
}

/// Writes a complete fixed-length response with extra headers (name,
/// value) appended after the standard set — how the 429 path attaches
/// `Retry-After`.
pub fn write_response_with(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    body: &[u8],
    extra_headers: &[(&str, &str)],
) -> io::Result<()> {
    let mut out = BufWriter::with_capacity(RESPONSE_BUF_BYTES, stream);
    write!(
        out,
        "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ncontent-length: {}\r\nconnection: close\r\n",
        status,
        reason(status),
        content_type,
        body.len()
    )?;
    for (name, value) in extra_headers {
        write!(out, "{name}: {value}\r\n")?;
    }
    out.write_all(b"\r\n")?;
    out.write_all(body)?;
    out.flush()
}

/// A `Transfer-Encoding: chunked` response body in progress.
///
/// [`ChunkedWriter::begin`] writes the header section; each [`chunk`]
/// becomes one HTTP chunk of the body; [`finish`] writes the terminating
/// zero-length chunk and flushes. Everything goes through one 64 KiB
/// buffer, so a small response leaves in one `write` at [`finish`] and a
/// large one streams as the buffer fills.
///
/// [`chunk`]: ChunkedWriter::chunk
/// [`finish`]: ChunkedWriter::finish
#[derive(Debug)]
pub struct ChunkedWriter<'a> {
    out: BufWriter<&'a mut TcpStream>,
}

impl<'a> ChunkedWriter<'a> {
    /// Writes the status line and headers of a chunked response.
    pub fn begin(stream: &'a mut TcpStream, status: u16, content_type: &str) -> io::Result<Self> {
        let mut out = BufWriter::with_capacity(RESPONSE_BUF_BYTES, stream);
        write!(
            out,
            "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ntransfer-encoding: chunked\r\nconnection: close\r\n\r\n",
            status,
            reason(status),
            content_type,
        )?;
        Ok(ChunkedWriter { out })
    }

    /// Writes one chunk (empty slices are skipped: an empty chunk would
    /// terminate the body).
    pub fn chunk(&mut self, data: &[u8]) -> io::Result<()> {
        if data.is_empty() {
            return Ok(());
        }
        write!(self.out, "{:x}\r\n", data.len())?;
        self.out.write_all(data)?;
        self.out.write_all(b"\r\n")
    }

    /// Terminates the body and flushes.
    pub fn finish(mut self) -> io::Result<()> {
        self.out.write_all(b"0\r\n\r\n")?;
        self.out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};

    /// Runs `client` against a one-connection server calling `server`.
    fn pair<F, G>(server: F, client: G)
    where
        F: FnOnce(&mut TcpStream) + Send + 'static,
        G: FnOnce(&mut TcpStream),
    {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let t = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            server(&mut s);
        });
        let mut c = TcpStream::connect(addr).unwrap();
        client(&mut c);
        t.join().unwrap();
    }

    #[test]
    fn parses_post_with_body() {
        pair(
            |s| {
                let req = read_request(s).unwrap();
                assert_eq!(req.method, "POST");
                assert_eq!(req.path, "/v1/query");
                assert_eq!(req.header("content-type"), Some("application/json"));
                assert_eq!(req.body, b"{\"x\":1}");
                write_response(s, 200, "text/plain", b"ok").unwrap();
            },
            |c| {
                c.write_all(
                    b"POST /v1/query HTTP/1.1\r\nContent-Type: application/json\r\nContent-Length: 7\r\n\r\n{\"x\":1}",
                )
                .unwrap();
                let mut out = String::new();
                c.read_to_string(&mut out).unwrap();
                assert!(out.starts_with("HTTP/1.1 200 OK\r\n"), "{out}");
                assert!(out.ends_with("\r\n\r\nok"), "{out}");
            },
        );
    }

    #[test]
    fn rejects_malformed_requests() {
        for (raw, expect) in [
            (&b"BOGUS\r\n\r\n"[..], "missing request target"),
            (&b"GET / SPDY/3\r\n\r\n"[..], "unsupported version"),
            (
                &b"GET / HTTP/1.1\r\nno-colon\r\n\r\n"[..],
                "malformed header",
            ),
            (
                &b"POST / HTTP/1.1\r\ncontent-length: nope\r\n\r\n"[..],
                "bad content-length",
            ),
            (
                &b"POST / HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n"[..],
                "chunked request",
            ),
        ] {
            let raw = raw.to_vec();
            pair(
                move |s| {
                    let err = read_request(s).unwrap_err();
                    match err {
                        HttpError::Bad(m) => assert!(m.contains(expect), "{m} vs {expect}"),
                        other => panic!("expected Bad, got {other}"),
                    }
                },
                move |c| {
                    c.write_all(&raw).unwrap();
                    c.shutdown(std::net::Shutdown::Write).unwrap();
                    let mut out = Vec::new();
                    let _ = c.read_to_end(&mut out);
                },
            );
        }
    }

    #[test]
    fn oversized_body_is_rejected_cheaply() {
        pair(
            |s| {
                let err = read_request(s).unwrap_err();
                assert!(matches!(err, HttpError::TooLarge));
            },
            |c| {
                // Claim a giant body without sending it — the server must
                // reject from the header alone.
                write!(c, "POST / HTTP/1.1\r\ncontent-length: {}\r\n\r\n", u64::MAX).unwrap();
                c.shutdown(std::net::Shutdown::Write).unwrap();
                let mut out = Vec::new();
                let _ = c.read_to_end(&mut out);
            },
        );
    }

    #[test]
    fn endless_header_line_is_refused_while_the_client_keeps_sending() {
        pair(
            |s| match read_request(s).unwrap_err() {
                HttpError::Bad(m) => assert!(m.contains("header section too large"), "{m}"),
                other => panic!("expected Bad, got {other}"),
            },
            |c| {
                // Four header budgets with no newline, write side left
                // open: only a bounded line read lets the server give up.
                // The server may close mid-write, so write errors are fine.
                let _ = c.write_all(b"GET /");
                let _ = c.write_all(&vec![b'a'; 4 * MAX_HEADER_BYTES]);
                c.set_read_timeout(Some(std::time::Duration::from_secs(5)))
                    .unwrap();
                let mut out = Vec::new();
                if let Err(e) = c.read_to_end(&mut out) {
                    assert!(
                        !matches!(
                            e.kind(),
                            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                        ),
                        "server still reading after the read timeout: {e}"
                    );
                }
            },
        );
    }

    #[test]
    fn empty_connection_reports_closed() {
        pair(
            |s| {
                assert!(matches!(read_request(s).unwrap_err(), HttpError::Closed));
            },
            |c| {
                c.shutdown(std::net::Shutdown::Write).unwrap();
            },
        );
    }

    #[test]
    fn extra_headers_ride_along() {
        pair(
            |s| {
                let _ = read_request(s).unwrap();
                write_response_with(s, 429, "application/json", b"{}", &[("retry-after", "3")])
                    .unwrap();
            },
            |c| {
                c.write_all(b"GET / HTTP/1.1\r\n\r\n").unwrap();
                let mut out = String::new();
                c.read_to_string(&mut out).unwrap();
                assert!(
                    out.starts_with("HTTP/1.1 429 Too Many Requests\r\n"),
                    "{out}"
                );
                assert!(out.contains("\r\nretry-after: 3\r\n"), "{out}");
                assert!(out.ends_with("\r\n\r\n{}"), "{out}");
            },
        );
    }

    #[test]
    fn chunked_response_round_trips() {
        pair(
            |s| {
                let _ = read_request(s).unwrap();
                let mut w = ChunkedWriter::begin(s, 200, "application/json").unwrap();
                w.chunk(b"[1,").unwrap();
                w.chunk(b"").unwrap(); // skipped, not a terminator
                w.chunk(b"2]").unwrap();
                w.finish().unwrap();
            },
            |c| {
                c.write_all(b"GET / HTTP/1.1\r\n\r\n").unwrap();
                let mut out = String::new();
                c.read_to_string(&mut out).unwrap();
                assert!(out.contains("transfer-encoding: chunked"), "{out}");
                assert!(out.ends_with("3\r\n[1,\r\n2\r\n2]\r\n0\r\n\r\n"), "{out}");
            },
        );
    }

    #[test]
    fn chunked_response_larger_than_the_buffer_keeps_its_framing() {
        // Many small chunks, then one chunk larger than the whole buffer:
        // the buffer fills and spills several times mid-response.
        let small: Vec<Vec<u8>> = (0..3000u32)
            .map(|i| format!("[{i},{}]", i * 7).into_bytes())
            .collect();
        let big = vec![b'x'; 3 * RESPONSE_BUF_BYTES + 5];
        let mut want = Vec::new();
        for c in small.iter().chain([&big]) {
            want.extend(format!("{:x}\r\n", c.len()).into_bytes());
            want.extend(c);
            want.extend(b"\r\n");
        }
        want.extend(b"0\r\n\r\n");
        pair(
            move |s| {
                let _ = read_request(s).unwrap();
                let mut w = ChunkedWriter::begin(s, 200, "application/json").unwrap();
                for c in small.iter().chain([&big]) {
                    w.chunk(c).unwrap();
                }
                w.finish().unwrap();
            },
            |c| {
                c.write_all(b"GET / HTTP/1.1\r\n\r\n").unwrap();
                let mut out = Vec::new();
                c.read_to_end(&mut out).unwrap();
                let head = b"\r\ntransfer-encoding: chunked\r\nconnection: close\r\n\r\n";
                let at = out
                    .windows(head.len())
                    .position(|w| w == head)
                    .expect("header section");
                assert_eq!(out[at + head.len()..], want[..]);
            },
        );
    }
}
