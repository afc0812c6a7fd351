//! A deliberately minimal HTTP/1.1 layer over `std::net::TcpStream`.
//!
//! No async runtime, no external parser: the server speaks exactly the
//! subset of HTTP/1.1 the job API needs — request line, headers,
//! `Content-Length` bodies, keep-alive with pipelining — and turns every
//! abusive input shape (oversized heads, oversized bodies, slow-loris
//! dribble, truncated requests, a `Transfer-Encoding` it does not speak)
//! into a typed [`RecvError`] the router maps to a 4xx envelope instead of
//! a panic, a hang or a silently misread body.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Byte and time budgets for reading one request.
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    /// Cap on the request head (request line + headers).
    pub max_head_bytes: usize,
    /// Cap on the declared body size.
    pub max_body_bytes: usize,
    /// Socket read timeout; a client that stalls past it is dropped with
    /// a typed timeout rather than holding the connection forever.
    pub read_timeout: Duration,
}

impl Default for Limits {
    fn default() -> Self {
        Limits {
            max_head_bytes: 16 * 1024,
            max_body_bytes: 1024 * 1024,
            read_timeout: Duration::from_millis(10_000),
        }
    }
}

/// One parsed request.
#[derive(Debug)]
pub struct Request {
    /// Uppercase method ("GET", "POST", ...).
    pub method: String,
    /// Path without the query string ("/v1/jobs/3").
    pub path: String,
    /// Parsed query pairs, in order.
    pub query: Vec<(String, String)>,
    /// Headers with lowercased names, in order.
    pub headers: Vec<(String, String)>,
    /// The body (empty without a `Content-Length`).
    pub body: Vec<u8>,
}

impl Request {
    /// First header with this (lowercase) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// First query value with this key.
    pub fn query(&self, key: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Does the client ask to drop the connection after this exchange?
    pub fn wants_close(&self) -> bool {
        self.header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }
}

/// Why a request could not be read.
#[derive(Debug)]
pub enum RecvError {
    /// The peer closed before sending anything (normal keep-alive end).
    Closed,
    /// The read timed out. `bytes_so_far` distinguishes an idle
    /// keep-alive connection (0: close silently) from a slow-loris
    /// dribble (respond 408).
    Timeout {
        /// Bytes received before the stall.
        bytes_so_far: usize,
    },
    /// Head or declared body exceeded its limit.
    TooLarge {
        /// Which limit ("head" or "body") was exceeded.
        what: &'static str,
        /// The configured cap in bytes.
        limit: usize,
    },
    /// The bytes received do not parse as an HTTP/1.1 request.
    Malformed(String),
}

fn is_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// Read and parse one request, enforcing every limit. `carry` holds the
/// bytes of the connection already read past the previous request (a
/// pipelining client sends its next request before the last answer): it
/// is read first, and on success it is left holding whatever arrived past
/// this request.
pub fn read_request(
    stream: &mut TcpStream,
    limits: &Limits,
    carry: &mut Vec<u8>,
) -> Result<Request, RecvError> {
    let _ = stream.set_read_timeout(Some(limits.read_timeout));
    let mut buf = std::mem::take(carry);
    let mut chunk = [0u8; 4096];
    // Accumulate until the blank line that ends the head.
    let head_end = loop {
        if let Some(pos) = find_head_end(&buf) {
            break pos;
        }
        if buf.len() > limits.max_head_bytes {
            return Err(RecvError::TooLarge {
                what: "head",
                limit: limits.max_head_bytes,
            });
        }
        match stream.read(&mut chunk) {
            Ok(0) => {
                return if buf.is_empty() {
                    Err(RecvError::Closed)
                } else {
                    Err(RecvError::Malformed("truncated request head".into()))
                };
            }
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) if is_timeout(&e) => {
                return Err(RecvError::Timeout {
                    bytes_so_far: buf.len(),
                })
            }
            Err(e) => return Err(RecvError::Malformed(format!("read failed: {e}"))),
        }
    };
    let head = String::from_utf8_lossy(&buf[..head_end]).into_owned();
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or_default();
    let mut parts = request_line.split(' ');
    let (method, target, version) = (
        parts.next().unwrap_or_default(),
        parts.next().unwrap_or_default(),
        parts.next().unwrap_or_default(),
    );
    if method.is_empty() || target.is_empty() || !version.starts_with("HTTP/1.") {
        return Err(RecvError::Malformed(format!(
            "bad request line: {request_line:?}"
        )));
    }
    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(RecvError::Malformed(format!("bad header line: {line:?}")));
        };
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }
    // Body: exactly Content-Length bytes. Chunked (or any other transfer)
    // encoding is refused: the job API never needs it, and a body read as
    // empty would leave its bytes to be parsed as the next request.
    if headers.iter().any(|(n, _)| n == "transfer-encoding") {
        return Err(RecvError::Malformed(
            "transfer-encoding is not supported".into(),
        ));
    }
    // One Content-Length of ASCII digits only: with two, or with a sign
    // that `usize::from_str` would take, the body this server frames is
    // not the one the peer meant, and the rest would be parsed as the
    // next request.
    let mut lengths = headers
        .iter()
        .filter(|(n, _)| n == "content-length")
        .map(|(_, v)| v);
    let content_length = match (lengths.next(), lengths.next()) {
        (None, _) => 0,
        (Some(_), Some(_)) => return Err(RecvError::Malformed("duplicate content-length".into())),
        (Some(v), None) => v
            .bytes()
            .all(|b| b.is_ascii_digit())
            .then(|| v.parse::<usize>().ok())
            .flatten()
            .ok_or_else(|| RecvError::Malformed(format!("bad content-length: {v:?}")))?,
    };
    if content_length > limits.max_body_bytes {
        return Err(RecvError::TooLarge {
            what: "body",
            limit: limits.max_body_bytes,
        });
    }
    let mut body = buf[head_end + 4..].to_vec();
    while body.len() < content_length {
        match stream.read(&mut chunk) {
            Ok(0) => return Err(RecvError::Malformed("truncated request body".into())),
            Ok(n) => body.extend_from_slice(&chunk[..n]),
            Err(e) if is_timeout(&e) => {
                return Err(RecvError::Timeout {
                    bytes_so_far: buf.len() + body.len(),
                })
            }
            Err(e) => return Err(RecvError::Malformed(format!("read failed: {e}"))),
        }
    }
    *carry = body.split_off(content_length);
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), parse_query(q)),
        None => (target.to_string(), Vec::new()),
    };
    Ok(Request {
        method: method.to_string(),
        path,
        query,
        headers,
        body,
    })
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

fn parse_query(q: &str) -> Vec<(String, String)> {
    q.split('&')
        .filter(|kv| !kv.is_empty())
        .map(|kv| match kv.split_once('=') {
            Some((k, v)) => (k.to_string(), v.to_string()),
            None => (kv.to_string(), String::new()),
        })
        .collect()
}

/// Reason phrase for the statuses this server emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        410 => "Gone",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Write one complete response with a `Content-Length` body.
pub fn respond(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    extra_headers: &[(&str, String)],
    body: &[u8],
) -> std::io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {status} {}\r\ncontent-type: {content_type}\r\ncontent-length: {}\r\n",
        reason(status),
        body.len()
    );
    for (name, value) in extra_headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_and_header_lookup() {
        let req = Request {
            method: "GET".into(),
            path: "/v1/jobs/3".into(),
            query: parse_query("wait=1&x="),
            headers: vec![("connection".into(), "Close".into())],
            body: Vec::new(),
        };
        assert_eq!(req.query("wait"), Some("1"));
        assert_eq!(req.query("x"), Some(""));
        assert_eq!(req.query("absent"), None);
        assert!(req.wants_close());
    }

    #[test]
    fn reasons_cover_the_emitted_statuses() {
        for s in [200, 202, 400, 404, 405, 408, 410, 413, 422, 429, 500, 503] {
            assert_ne!(reason(s), "Unknown", "status {s}");
        }
    }
}
