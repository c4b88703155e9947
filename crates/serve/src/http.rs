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
    read_from(stream)
}

/// Bytes the reader buffers ahead of what it has parsed.
const READ_AHEAD: usize = 8 * 1024;

/// [`read_request`]'s parse, on any byte source. It holds at most one
/// line of [`MAX_REQUEST_LINE`] bytes (its terminator included) at a
/// time, reads the request line and up to [`MAX_HEADERS`] header lines
/// before the blank one, and allocates a body only once its declared
/// length is known to be at most [`MAX_BODY`].
fn read_from(source: impl Read) -> Result<Request, String> {
    let mut reader = BufReader::with_capacity(READ_AHEAD, source);
    let mut line = String::new();
    read_limited_line(&mut reader, &mut line)?;
    let mut parts = line.split_whitespace();
    let method = parts.next().ok_or("empty request line")?.to_string();
    let path = parts.next().ok_or("request line missing path")?.to_string();

    let mut content_length = 0usize;
    // The header lines, then the blank line that ends them.
    for _ in 0..=MAX_HEADERS {
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

fn read_limited_line(reader: &mut impl BufRead, line: &mut String) -> Result<(), String> {
    // An unbounded read_line would let a hostile peer grow the buffer
    // without limit; Take bounds it.
    let mut limited = reader.by_ref().take(MAX_REQUEST_LINE as u64 + 1);
    limited.read_line(line).map_err(|e| format!("read: {e}"))?;
    if line.len() > MAX_REQUEST_LINE {
        return Err(format!("line exceeds the {MAX_REQUEST_LINE} byte cap"));
    }
    if line.is_empty() {
        return Err("connection closed mid-request".to_string());
    }
    Ok(())
}

fn read_body(reader: &mut impl BufRead, len: usize) -> Result<String, String> {
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

#[cfg(test)]
mod tests {
    use super::*;
    use cfpd_testkit::prop::{check, Gen, PropConfig};
    use cfpd_testkit::Rng;

    /// A byte source that counts what the reader pulls from it.
    struct Counted<'a> {
        src: &'a [u8],
        pulled: usize,
    }

    impl Read for Counted<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = self.src.read(buf)?;
            self.pulled += n;
            Ok(n)
        }
    }

    /// The most a request may make the reader pull: every line at its
    /// cap (the refused one a byte over), the largest body, and the
    /// buffer's read-ahead.
    const MAX_PULLED: usize =
        (1 + MAX_HEADERS + 1) * (MAX_REQUEST_LINE + 1) + MAX_BODY + READ_AHEAD;

    /// Parse `wire` and check the caps, whatever the outcome.
    fn read_capped(wire: &[u8]) -> Result<Request, String> {
        let mut src = Counted { src: wire, pulled: 0 };
        let got = read_from(&mut src);
        assert!(src.pulled <= MAX_PULLED, "pulled {} bytes past the caps", src.pulled);
        if let Ok(req) = &got {
            assert!(req.body.len() <= MAX_BODY, "a {}-byte body", req.body.len());
            assert!(req.method.len() + req.path.len() < MAX_REQUEST_LINE, "{req:?}");
        }
        got
    }

    /// A well-formed request inside every cap.
    #[derive(Debug, Clone)]
    struct Wellformed {
        method: String,
        path: String,
        /// Header lines without their terminator; a `content-length`
        /// line is added for a non-empty body.
        headers: Vec<String>,
        body: String,
    }

    impl Wellformed {
        fn wire(&self) -> Vec<u8> {
            let mut out = format!("{} {} HTTP/1.1\r\n", self.method, self.path);
            for h in &self.headers {
                out.push_str(h);
                out.push_str("\r\n");
            }
            if !self.body.is_empty() {
                out.push_str(&format!("content-length: {}\r\n", self.body.len()));
            }
            out.push_str("\r\n");
            out.push_str(&self.body);
            out.into_bytes()
        }
    }

    fn token(rng: &mut Rng, len: usize) -> String {
        const CHARS: &[u8] =
            b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789/-_.~%?=&";
        (0..len).map(|_| CHARS[rng.range_usize(0, CHARS.len())] as char).collect()
    }

    struct Wellformeds;

    impl Gen for Wellformeds {
        type Value = Wellformed;

        fn generate(&self, rng: &mut Rng) -> Wellformed {
            // A header line at the cap is its terminator short of it.
            let at_cap = MAX_REQUEST_LINE - 2;
            let body_len = match rng.bounded_u64(8) {
                0 => 0,
                1 => MAX_BODY,
                _ => rng.range_usize(1, 300),
            };
            let body: String = match body_len {
                MAX_BODY => "x".repeat(MAX_BODY),
                n => (0..n).map(|_| char::from(rng.range_usize(0x20, 0x7f) as u8)).collect(),
            };
            // Room for the content-length line when there is a body.
            let max_headers = MAX_HEADERS - usize::from(!body.is_empty());
            let n_headers = match rng.bounded_u64(4) {
                0 => max_headers,
                _ => rng.range_usize(0, max_headers + 1),
            };
            let headers = (0..n_headers)
                .map(|_| {
                    let name_len = rng.range_usize(1, 12);
                    let name = token(rng, name_len).replace(':', "");
                    let name =
                        if name.eq_ignore_ascii_case("content-length") { "x".into() } else { name };
                    let len = match rng.bounded_u64(16) {
                        0 => at_cap - name.len() - 2,
                        _ => rng.range_usize(0, 40),
                    };
                    format!("x-{name}: {}", token(rng, len.saturating_sub(2)))
                })
                .collect();
            let method = ["GET", "POST", "DELETE", "PUT"][rng.range_usize(0, 4)].to_string();
            let path_len = match rng.bounded_u64(16) {
                0 => at_cap - method.len() - " HTTP/1.1".len() - 1,
                _ => rng.range_usize(1, 40),
            };
            Wellformed { path: format!("/{}", token(rng, path_len - 1)), method, headers, body }
        }

        fn shrink(&self, v: &Wellformed) -> Vec<Wellformed> {
            let mut out = Vec::new();
            if !v.headers.is_empty() {
                out.push(Wellformed {
                    headers: v.headers[..v.headers.len() / 2].to_vec(),
                    ..v.clone()
                });
                out.push(Wellformed { headers: v.headers[1..].to_vec(), ..v.clone() });
            }
            if !v.body.is_empty() {
                out.push(Wellformed { body: v.body[..v.body.len() / 2].to_string(), ..v.clone() });
            }
            out
        }
    }

    /// Every request inside the stated caps reads back as sent: at most
    /// [`MAX_HEADERS`] headers, lines of up to [`MAX_REQUEST_LINE`]
    /// bytes, bodies of up to [`MAX_BODY`].
    #[test]
    fn prop_requests_inside_the_caps_read_back_as_sent() {
        check("http wellformed", PropConfig::cases(200), &Wellformeds, |req| {
            let got = read_capped(&req.wire()).unwrap_or_else(|e| panic!("refused: {e}"));
            assert_eq!(
                (got.method.as_str(), got.path.as_str()),
                (req.method.as_str(), req.path.as_str())
            );
            assert!(
                got.body == req.body,
                "body of {} bytes read back as {}",
                req.body.len(),
                got.body.len()
            );
        });
    }

    /// Hostile wire bytes: a well-formed request cut anywhere, with bytes
    /// flipped or spliced in, an oversized request line, header line,
    /// header count or declared body, or plain noise.
    struct Hostile;

    impl Gen for Hostile {
        type Value = Vec<u8>;

        fn generate(&self, rng: &mut Rng) -> Vec<u8> {
            let mut wire = match rng.bounded_u64(6) {
                0 => (0..rng.range_usize(0, 300))
                    .map(|_| match rng.bounded_u64(4) {
                        0 => {
                            let at = rng.range_usize(0, 4);
                            b"\r\n: "[at]
                        }
                        _ => rng.next_u64() as u8,
                    })
                    .collect(),
                // Lines longer than all the caps together: a reader that
                // did not stop at the line cap would pull them whole.
                1 => format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(MAX_PULLED)).into_bytes(),
                2 => format!("GET / HTTP/1.1\r\nx: {}\r\n\r\n", "a".repeat(MAX_PULLED))
                    .into_bytes(),
                3 => format!("GET / HTTP/1.1\r\n{}\r\n", "x: y\r\n".repeat(MAX_HEADERS + 1))
                    .into_bytes(),
                4 => {
                    let declared = match rng.bounded_u64(3) {
                        0 => (MAX_BODY + 1).to_string(),
                        1 => "18446744073709551616".to_string(),
                        _ => ["-1", "", "0x10", "1 2"][rng.range_usize(0, 4)].to_string(),
                    };
                    format!("POST /jobs HTTP/1.1\r\ncontent-length: {declared}\r\n\r\nabc")
                        .into_bytes()
                }
                _ => Wellformeds.generate(rng).wire(),
            };
            for _ in 0..rng.range_usize(0, 3) {
                if !wire.is_empty() {
                    let at = rng.range_usize(0, wire.len());
                    let byte = rng.next_u64() as u8;
                    wire[at] = byte;
                }
            }
            if rng.bounded_u64(2) == 0 {
                let cut = rng.range_usize(0, wire.len() + 1);
                wire.truncate(cut);
            }
            wire
        }

        fn shrink(&self, v: &Vec<u8>) -> Vec<Vec<u8>> {
            if v.is_empty() {
                return Vec::new();
            }
            vec![v[..v.len() / 2].to_vec(), v[1..].to_vec(), v[..v.len() - 1].to_vec()]
        }
    }

    /// Whatever the bytes, the reader answers (a request or a refusal),
    /// never panics and never pulls or holds more than the caps allow.
    #[test]
    fn prop_hostile_bytes_never_panic_or_buffer_past_the_caps() {
        check("http hostile", PropConfig::cases(300), &Hostile, |wire| {
            let _ = read_capped(wire);
        });
    }

    /// Each cap refuses its first byte over, by name.
    #[test]
    fn each_cap_refuses_one_past_it() {
        let long_line = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(MAX_REQUEST_LINE));
        assert!(read_capped(long_line.as_bytes()).unwrap_err().contains("byte cap"));
        let many = format!("GET / HTTP/1.1\r\n{}\r\n", "x: y\r\n".repeat(MAX_HEADERS + 1));
        assert!(read_capped(many.as_bytes()).unwrap_err().contains("headers"));
        let exactly = format!("GET / HTTP/1.1\r\n{}\r\n", "x: y\r\n".repeat(MAX_HEADERS));
        assert!(
            read_capped(exactly.as_bytes()).is_ok(),
            "{MAX_HEADERS} headers are inside the cap"
        );
        let big = format!("POST / HTTP/1.1\r\ncontent-length: {}\r\n\r\n", MAX_BODY + 1);
        assert!(read_capped(big.as_bytes()).unwrap_err().contains("exceeds"));
    }
}
