//! Dependency-free HTTP/1.1 substrate: a hardened request reader for
//! the daemon side and a tiny blocking client for the CLI verbs and
//! tests. One request per connection (`Connection: close`) — the
//! concurrency bound is the accept pool, not a connection pool.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;

/// Hard caps on attacker-controlled sizes, in the same spirit as the
/// hardened checkpoint parser: reject before allocating.
pub const MAX_REQUEST_LINE: usize = 8 * 1024;
pub const MAX_HEADERS: usize = 64;
pub const MAX_BODY: usize = 4 * 1024 * 1024;

/// Read and write timeout of every accepted connection. Without it a
/// peer that connects and sends nothing pins an accept thread in
/// `read_line` for good: `http_threads` idle sockets would take the
/// whole daemon off the air and keep [`crate::Daemon::kill`] from
/// joining.
pub const IO_TIMEOUT: std::time::Duration = std::time::Duration::from_secs(3);

/// A parsed request: method, path, raw body.
#[derive(Debug)]
pub struct Request {
    pub method: String,
    pub path: String,
    pub body: String,
}

/// A response ready to serialize.
#[derive(Debug)]
pub struct Response {
    pub status: u16,
    /// Extra headers beyond Content-Length/Type/Connection.
    pub headers: Vec<(String, String)>,
    pub content_type: &'static str,
    pub body: String,
}

impl Response {
    pub fn json(status: u16, body: String) -> Response {
        Response { status, headers: Vec::new(), content_type: "application/json", body }
    }

    pub fn text(status: u16, body: impl Into<String>) -> Response {
        Response {
            status,
            headers: Vec::new(),
            content_type: "text/plain; charset=utf-8",
            body: body.into(),
        }
    }

    /// A `{"error": ...}` body.
    pub fn error(status: u16, message: &str) -> Response {
        let mut w = cfpd_telemetry::JsonWriter::new();
        w.begin_object();
        w.key("error").string(message);
        w.end_object();
        Response::json(status, w.finish())
    }
}

fn status_text(code: u16) -> &'static str {
    match code {
        200 => "OK",
        201 => "Created",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Payload Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Read one request off an accepted stream, enforcing the size caps and
/// [`IO_TIMEOUT`] (which stays set for the response). Errors are
/// protocol violations or an expired timeout; the caller answers 400
/// and closes.
pub fn read_request(stream: &mut TcpStream) -> Result<Request, String> {
    stream
        .set_read_timeout(Some(IO_TIMEOUT))
        .and_then(|_| stream.set_write_timeout(Some(IO_TIMEOUT)))
        .map_err(|e| format!("socket timeout: {e}"))?;
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    read_limited_line(&mut reader, &mut line)?;
    let mut parts = line.split_whitespace();
    let method = parts.next().ok_or("empty request line")?.to_string();
    let path = parts.next().ok_or("request line missing path")?.to_string();

    let mut content_length = 0usize;
    for _ in 0..MAX_HEADERS {
        line.clear();
        read_limited_line(&mut reader, &mut line)?;
        let header = line.trim_end();
        if header.is_empty() {
            let body = read_body(&mut reader, content_length)?;
            return Ok(Request { method, path, body });
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse::<usize>()
                    .map_err(|_| format!("bad content-length {value:?}"))?;
                if content_length > MAX_BODY {
                    return Err(format!(
                        "body of {content_length} bytes exceeds the {MAX_BODY} byte cap"
                    ));
                }
            }
        }
    }
    Err(format!("more than {MAX_HEADERS} headers"))
}

fn read_limited_line(
    reader: &mut BufReader<&mut TcpStream>,
    line: &mut String,
) -> Result<(), String> {
    // An unbounded read_line would let a hostile peer grow the buffer
    // without limit; Take bounds it.
    let mut limited = reader.by_ref().take(MAX_REQUEST_LINE as u64 + 1);
    limited
        .read_line(line)
        .map_err(|e| format!("read: {e}"))?;
    if line.len() > MAX_REQUEST_LINE {
        return Err(format!("line exceeds the {MAX_REQUEST_LINE} byte cap"));
    }
    if line.is_empty() {
        return Err("connection closed mid-request".to_string());
    }
    Ok(())
}

fn read_body(
    reader: &mut BufReader<&mut TcpStream>,
    len: usize,
) -> Result<String, String> {
    let mut body = vec![0u8; len];
    reader.read_exact(&mut body).map_err(|e| format!("body read: {e}"))?;
    String::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())
}

/// Serialize and send a response; ignores write errors (the client may
/// have gone away — the daemon must not care).
pub fn write_response(stream: &mut TcpStream, resp: &Response) {
    let mut head = format!(
        "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ncontent-length: {}\r\nconnection: close\r\n",
        resp.status,
        status_text(resp.status),
        resp.content_type,
        resp.body.len(),
    );
    for (name, value) in &resp.headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    let _ = stream.write_all(head.as_bytes());
    let _ = stream.write_all(resp.body.as_bytes());
    let _ = stream.flush();
}

/// Minimal blocking HTTP client: one request, one response, connection
/// closed. Returns `(status, body)`.
pub fn http_call(
    addr: &str,
    method: &str,
    path: &str,
    body: &str,
) -> std::io::Result<(u16, String)> {
    let raw = http_call_raw(addr, method, path, body)?;
    let status = raw
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::InvalidData, "malformed status line")
        })?;
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    Ok((status, body))
}

/// [`http_call`]'s exchange, unparsed: status line, headers and body as
/// the daemon sent them (the overload tests read `Retry-After` off it).
pub fn http_call_raw(
    addr: &str,
    method: &str,
    path: &str,
    body: &str,
) -> std::io::Result<String> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(std::time::Duration::from_secs(30)))?;
    let head = format!(
        "{method} {path} HTTP/1.1\r\nhost: {addr}\r\ncontent-length: {}\r\nconnection: close\r\n\r\n",
        body.len(),
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()?;
    let mut raw = String::new();
    BufReader::new(stream).read_to_string(&mut raw)?;
    Ok(raw)
}
