//! A minimal HTTP/1.1 keep-alive client: one request in flight per
//! connection (a closed loop), `Content-Length` framing only — which is
//! all `tsss-server` speaks.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};

/// A response: status and body.
#[derive(Debug)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// The body bytes, decoded as UTF-8.
    pub body: String,
}

/// One kept-alive connection. Reconnects transparently when the server
/// announced `Connection: close` on the previous response.
pub struct Conn {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    buf: Vec<u8>,
    /// Local port of the open stream and requests sent on it: together
    /// the id a server thread can derive from its peer address.
    port: u16,
    sent: u64,
}

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

impl Conn {
    /// A connection to `addr`, opened on first use.
    pub fn new(addr: SocketAddr) -> Conn {
        Conn {
            addr,
            stream: None,
            buf: Vec::new(),
            port: 0,
            sent: 0,
        }
    }

    /// Opens the connection if needed and returns the id of the next
    /// request on it: `local_port << 32 | requests already sent`. A server
    /// thread computes the same id from its peer port and its own count.
    ///
    /// # Errors
    /// Connection failures.
    pub fn next_id(&mut self) -> io::Result<u64> {
        self.stream()?;
        Ok(u64::from(self.port) << 32 | self.sent)
    }

    fn stream(&mut self) -> io::Result<&mut TcpStream> {
        if self.stream.is_none() {
            let s = TcpStream::connect(self.addr)?;
            s.set_nodelay(true)?;
            self.port = s.local_addr()?.port();
            self.sent = 0;
            self.stream = Some(s);
            self.buf.clear();
        }
        self.stream
            .as_mut()
            .ok_or_else(|| bad("connection not open"))
    }

    /// Sends one request and waits for its whole response.
    ///
    /// # Errors
    /// Socket failures and malformed responses.
    pub fn send(&mut self, method: &str, path: &str, body: &str) -> io::Result<Response> {
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n",
            body.len()
        );
        let mut msg = Vec::with_capacity(head.len() + body.len());
        msg.extend_from_slice(head.as_bytes());
        msg.extend_from_slice(body.as_bytes());
        let stream = self.stream()?;
        stream.write_all(&msg)?;
        self.sent += 1;
        let (resp, close) = self.read_response()?;
        if close {
            self.stream = None;
        }
        Ok(resp)
    }

    /// Closes the connection (the server's worker is released).
    pub fn close(&mut self) {
        self.stream = None;
    }

    fn fill(&mut self) -> io::Result<()> {
        let mut chunk = [0u8; 64 * 1024];
        let stream = self
            .stream
            .as_mut()
            .ok_or_else(|| bad("connection not open"))?;
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection mid-response",
            ));
        }
        self.buf.extend_from_slice(&chunk[..n]);
        Ok(())
    }

    fn read_response(&mut self) -> io::Result<(Response, bool)> {
        let head_end = loop {
            if let Some(p) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break p;
            }
            self.fill()?;
        };
        let head = std::str::from_utf8(&self.buf[..head_end])
            .map_err(|_| bad("non-UTF-8 response head"))?
            .to_string();
        let mut lines = head.split("\r\n");
        let status = lines
            .next()
            .and_then(|l| l.split(' ').nth(1))
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| bad(format!("bad status line in {head:?}")))?;
        let mut len = 0usize;
        let mut close = false;
        for line in lines {
            let Some((k, v)) = line.split_once(':') else {
                continue;
            };
            let v = v.trim();
            if k.eq_ignore_ascii_case("content-length") {
                len = v.parse().map_err(|_| bad("bad Content-Length"))?;
            } else if k.eq_ignore_ascii_case("connection") {
                close = v.eq_ignore_ascii_case("close");
            }
        }
        let body_start = head_end + 4;
        while self.buf.len() < body_start + len {
            self.fill()?;
        }
        let body = String::from_utf8(self.buf[body_start..body_start + len].to_vec())
            .map_err(|_| bad("non-UTF-8 response body"))?;
        self.buf.drain(..body_start + len);
        Ok((Response { status, body }, close))
    }
}
