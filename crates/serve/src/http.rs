//! A minimal, dependency-free HTTP/1.1 codec over [`std::net`].
//!
//! Supports exactly what the serving protocol needs: request line +
//! headers + `Content-Length` bodies, keep-alive by default with
//! `Connection: close` honored, and hard caps on header and body size so
//! a misbehaving client cannot balloon server memory. A request with a
//! `Transfer-Encoding` header (chunked bodies) or with `Content-Length`
//! headers that disagree is rejected with a clean error, never read as
//! something else. Upgrades and pipelining beyond read-one-write-one are
//! not supported.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;

/// Cap on the request line plus all header bytes.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;

/// Cap on a request body (`write_file` of a ~100-block file fits with
/// room; anything larger is a protocol misuse, not a workload).
pub const MAX_BODY_BYTES: usize = 4 * 1024 * 1024;

/// One parsed HTTP/1.1 request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Request method, uppercased (`GET`, `POST`, `PUT`).
    pub method: String,
    /// Request target path, e.g. `/v1/jobs/7` (query strings unused).
    pub path: String,
    /// Header name/value pairs; names lowercased at parse time.
    pub headers: Vec<(String, String)>,
    /// Request body (`Content-Length` bytes, possibly empty).
    pub body: Vec<u8>,
}

impl Request {
    /// The value of header `name` (lowercase), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the client asked to close the connection after this
    /// exchange (`Connection: close`).
    pub fn wants_close(&self) -> bool {
        self.header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }
}

fn invalid(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

/// Reads one request off a keep-alive connection.
///
/// Returns `Ok(None)` on clean EOF (client hung up between requests) and
/// `Err` on malformed or oversized input — the caller should answer
/// `400` and drop the connection.
///
/// # Errors
///
/// I/O errors from the socket, plus [`io::ErrorKind::InvalidData`] for
/// protocol violations (bad request line, header overflow, an oversized,
/// unparsable or conflicting `Content-Length`, any `Transfer-Encoding`).
pub fn read_request(reader: &mut BufReader<TcpStream>) -> io::Result<Option<Request>> {
    let mut head_left = MAX_HEAD_BYTES;
    let line = read_head_line(reader, &mut head_left)?;
    if line.is_empty() {
        return Ok(None);
    }
    let mut parts = line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| invalid("empty request line"))?
        .to_ascii_uppercase();
    let path = parts
        .next()
        .ok_or_else(|| invalid("request line missing target"))?
        .to_string();
    let version = parts.next().unwrap_or("");
    if !version.starts_with("HTTP/1.") {
        return Err(invalid("unsupported HTTP version"));
    }

    let mut headers = Vec::new();
    loop {
        let header_line = read_head_line(reader, &mut head_left)?;
        if header_line.is_empty() {
            return Err(invalid("connection closed mid-headers"));
        }
        let trimmed = header_line.trim_end_matches(['\r', '\n']);
        if trimmed.is_empty() {
            break;
        }
        let (name, value) = trimmed
            .split_once(':')
            .ok_or_else(|| invalid("malformed header line"))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    let content_length = body_length(&headers)?;
    if content_length > MAX_BODY_BYTES {
        return Err(invalid("request body exceeds cap"));
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    Ok(Some(Request {
        method,
        path,
        headers,
        body,
    }))
}

/// The body length the headers declare (0 without `Content-Length`).
/// Without chunked decoding, a body framed any other way than by one
/// agreed length would be misread, its tail parsed as the next message:
/// any `Transfer-Encoding`, and `Content-Length` headers that disagree,
/// are refused instead. A length is ASCII digits only (RFC 9110 §8.6,
/// `1*DIGIT`): `usize::from_str` would also take a leading `+`.
fn body_length(headers: &[(String, String)]) -> io::Result<usize> {
    if headers.iter().any(|(n, _)| n == "transfer-encoding") {
        return Err(invalid("transfer-encoding is not supported"));
    }
    let mut length = None;
    for (_, v) in headers.iter().filter(|(n, _)| n == "content-length") {
        let len = match v.parse::<usize>() {
            Ok(len) if v.bytes().all(|b| b.is_ascii_digit()) => len,
            _ => return Err(invalid("unparsable content-length")),
        };
        if length.is_some_and(|first| first != len) {
            return Err(invalid("conflicting content-length headers"));
        }
        length = Some(len);
    }
    Ok(length.unwrap_or(0))
}

/// Reads one head line (empty at EOF) through the `head_left` bytes that
/// remain of [`MAX_HEAD_BYTES`], and charges its length to them. Nothing
/// past the budget is buffered, so a client that never sends `\n` costs
/// at most the cap before it gets an `InvalidData` error.
fn read_head_line(reader: &mut BufReader<TcpStream>, head_left: &mut usize) -> io::Result<String> {
    let mut line = String::new();
    let n = reader
        .by_ref()
        .take(*head_left as u64)
        .read_line(&mut line)?;
    if n == *head_left && !line.ends_with('\n') {
        return Err(invalid("request head exceeds cap"));
    }
    *head_left -= n;
    Ok(line)
}

/// Writes one response, always with an explicit `Content-Length` so the
/// connection can stay alive.
///
/// # Errors
///
/// I/O errors from the socket.
pub fn write_response(
    stream: &mut TcpStream,
    status: u16,
    reason: &str,
    content_type: &str,
    extra_headers: &[(&str, String)],
    body: &[u8],
) -> io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {status} {reason}\r\ncontent-type: {content_type}\r\ncontent-length: {}\r\n",
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

/// A client-side response triple: `(status, headers, body)`.
pub type RawResponse = (u16, Vec<(String, String)>, Vec<u8>);

/// Reads one response on the client side: `(status, headers, body)`.
///
/// # Errors
///
/// I/O errors, plus [`io::ErrorKind::InvalidData`] on malformed status
/// lines or headers, including a body framed as `read_request` refuses.
/// Clean EOF before a status line is
/// [`io::ErrorKind::UnexpectedEof`].
pub fn read_response(reader: &mut BufReader<TcpStream>) -> io::Result<RawResponse> {
    let mut line = String::new();
    if reader.read_line(&mut line)? == 0 {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "server closed before status line",
        ));
    }
    let status = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| invalid("malformed status line"))?;
    let mut headers = Vec::new();
    loop {
        let mut header_line = String::new();
        if reader.read_line(&mut header_line)? == 0 {
            return Err(invalid("connection closed mid-headers"));
        }
        let trimmed = header_line.trim_end_matches(['\r', '\n']);
        if trimmed.is_empty() {
            break;
        }
        if let Some((name, value)) = trimmed.split_once(':') {
            headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
        }
    }
    let content_length = body_length(&headers)?;
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    Ok((status, headers, body))
}

/// Escapes a string for embedding in a JSON body (the error strings the
/// server emits contain no exotic characters, but quoting must still be
/// airtight).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escape_handles_quotes_and_control_chars() {
        assert_eq!(json_escape("plain"), "plain");
        assert_eq!(json_escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(json_escape("x\n\t\u{1}"), "x\\n\\t\\u0001");
    }
}
