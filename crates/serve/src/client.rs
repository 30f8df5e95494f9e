//! A small blocking client for the wire protocol — the test harness
//! and `sqlnf client` both speak through this.
//!
//! Reads carry a timeout (default [`DEFAULT_READ_TIMEOUT`]): a server
//! that dies mid-response — or never picks the session up because its
//! workers were killed — surfaces as a typed [`ClientError`] instead
//! of blocking the caller forever. After a [`ClientError::Timeout`]
//! the connection state is indeterminate (a late reply may still be in
//! flight); callers should drop the client rather than reuse it.

use crate::protocol::{parse_status, read_payload, read_reply, Reply};
use crate::watch::WatchEvent;
use std::collections::VecDeque;
use std::fmt;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Default read timeout of a [`Client`]; generous enough for the slow
/// verbs (`MINE`, `NORMALIZE`) on any realistic interactive table.
pub const DEFAULT_READ_TIMEOUT: Duration = Duration::from_secs(30);

/// Why a client request failed.
#[derive(Debug)]
pub enum ClientError {
    /// The transport failed outright (connect, write, or a read error
    /// other than timeout/EOF).
    Io(io::Error),
    /// No reply arrived within the read timeout — the server is wedged
    /// or was killed mid-response. Carries the configured timeout when
    /// the client knows it (`None` only for errors converted outside a
    /// client, where no configuration exists).
    Timeout(Option<Duration>),
    /// The server closed the connection before completing the reply.
    ServerClosed,
    /// The reply bytes did not parse as the wire protocol.
    Protocol(String),
    /// [`Client::expect_ok`] received an `ERR` reply; the message is
    /// the server's refusal.
    Refused(String),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io error: {e}"),
            ClientError::Timeout(Some(t)) => {
                write!(f, "no reply within the read timeout ({t:?})")
            }
            ClientError::Timeout(None) => write!(f, "no reply within the read timeout"),
            ClientError::ServerClosed => write!(f, "server closed the connection"),
            ClientError::Protocol(m) => write!(f, "protocol error: {m}"),
            ClientError::Refused(m) => write!(f, "server refused: {m}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        match e.kind() {
            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => ClientError::Timeout(None),
            // EOF is the polite close; reset/abort/broken-pipe is how a
            // killed server looks from the other end of the socket.
            io::ErrorKind::UnexpectedEof
            | io::ErrorKind::ConnectionReset
            | io::ErrorKind::ConnectionAborted
            | io::ErrorKind::BrokenPipe => ClientError::ServerClosed,
            io::ErrorKind::InvalidData => ClientError::Protocol(e.to_string()),
            _ => ClientError::Io(e),
        }
    }
}

/// One item off a watched session's event stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StreamItem {
    /// A discovery fact appeared or was refuted.
    Event(WatchEvent),
    /// The server dropped `n` events because this consumer lagged; the
    /// stream has a gap and a full `MINE` re-baselines it.
    Lagged(u64),
}

/// A connected session.
#[derive(Debug)]
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    /// The configured read timeout, stamped into [`ClientError::Timeout`].
    timeout: Option<Duration>,
    /// Partial line carried across a read timeout while streaming.
    stream_buf: String,
    /// `true` between an acknowledged `WATCH` and `UNWATCH`: replies
    /// may then be preceded by framed event lines.
    watching: bool,
    /// Events collected while skipping to a reply; consumed by
    /// [`next_event`](Self::next_event).
    queued: VecDeque<StreamItem>,
}

impl Client {
    /// Connects to a running server with the default read timeout.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client, ClientError> {
        Client::connect_with_timeout(addr, Some(DEFAULT_READ_TIMEOUT))
    }

    /// Connects with an explicit read timeout (`None` = block forever,
    /// the pre-harness behaviour).
    pub fn connect_with_timeout(
        addr: impl ToSocketAddrs,
        timeout: Option<Duration>,
    ) -> Result<Client, ClientError> {
        let stream = TcpStream::connect(addr).map_err(ClientError::Io)?;
        stream.set_nodelay(true).map_err(ClientError::Io)?;
        stream.set_read_timeout(timeout).map_err(ClientError::Io)?;
        let writer = stream.try_clone().map_err(ClientError::Io)?;
        Ok(Client {
            reader: BufReader::new(stream),
            writer,
            timeout,
            stream_buf: String::new(),
            watching: false,
            queued: VecDeque::new(),
        })
    }

    /// Stamps the configured timeout into a bare [`ClientError::Timeout`].
    fn annotate(&self, e: ClientError) -> ClientError {
        match e {
            ClientError::Timeout(None) => ClientError::Timeout(self.timeout),
            other => other,
        }
    }

    /// Sends one request (a verb line or a complete SQL statement,
    /// possibly spanning lines) and reads its reply.
    pub fn request(&mut self, text: &str) -> Result<Reply, ClientError> {
        self.writer
            .write_all(text.as_bytes())
            .map_err(|e| self.annotate(e.into()))?;
        if !text.ends_with('\n') {
            self.writer
                .write_all(b"\n")
                .map_err(|e| self.annotate(e.into()))?;
        }
        self.writer.flush().map_err(|e| self.annotate(e.into()))?;
        self.read_reply_skipping_events()
    }

    /// Reads the next reply; while watching, framed `EVENT`/`LAGGED`
    /// lines may precede the status line — they are queued for
    /// [`next_event`](Self::next_event), never lost.
    fn read_reply_skipping_events(&mut self) -> Result<Reply, ClientError> {
        if !self.watching {
            return read_reply(&mut self.reader).map_err(|e| self.annotate(e.into()));
        }
        loop {
            let line = self.read_session_line()?;
            if let Some(item) = classify_stream_line(&line) {
                self.queued.push_back(item?);
                continue;
            }
            let (ok, n, message) = parse_status(&line).map_err(|e| self.annotate(e.into()))?;
            let lines = read_payload(&mut self.reader, n).map_err(|e| self.annotate(e.into()))?;
            return Ok(Reply { ok, message, lines });
        }
    }

    /// Reads one complete line, preserving a partial line across
    /// timeouts (an event the server pushes can arrive in pieces, with
    /// the timeout falling between them).
    fn read_session_line(&mut self) -> Result<String, ClientError> {
        match self.reader.read_line(&mut self.stream_buf) {
            Ok(0) => Err(ClientError::ServerClosed),
            Ok(_) if self.stream_buf.ends_with('\n') => {
                let mut line = std::mem::take(&mut self.stream_buf);
                while line.ends_with('\n') || line.ends_with('\r') {
                    line.pop();
                }
                Ok(line)
            }
            // A read that returns data without a newline hit EOF.
            Ok(_) => Err(ClientError::ServerClosed),
            Err(e) => Err(self.annotate(e.into())),
        }
    }

    /// Scrapes the `METRICS` exposition (the payload lines, rejoined).
    pub fn metrics(&mut self) -> Result<String, ClientError> {
        let reply = self.expect_ok("METRICS")?;
        Ok(reply.lines.join("\n"))
    }

    /// Fetches the last `n` flight-recorder events (`TRACE n`), one
    /// rendered event per line.
    pub fn trace(&mut self, n: usize) -> Result<Vec<String>, ClientError> {
        let reply = self.expect_ok(&format!("TRACE {n}"))?;
        Ok(reply.lines)
    }

    /// Pipelines a batch: writes every statement (each must be one
    /// complete request — a verb line or a full SQL statement) in a
    /// single `write`, *then* reads the replies, one per statement, in
    /// order. The server applies the whole burst before fsyncing, so
    /// the batch typically shares one commit — this is how `bench_serve`
    /// and the harness saturate group commit instead of measuring
    /// round-trip latency. An empty batch returns no replies.
    pub fn send_batch(&mut self, stmts: &[impl AsRef<str>]) -> Result<Vec<Reply>, ClientError> {
        if stmts.is_empty() {
            return Ok(Vec::new());
        }
        let mut out = String::new();
        for stmt in stmts {
            out.push_str(stmt.as_ref());
            if !stmt.as_ref().ends_with('\n') {
                out.push('\n');
            }
        }
        self.writer
            .write_all(out.as_bytes())
            .map_err(|e| self.annotate(e.into()))?;
        self.writer.flush().map_err(|e| self.annotate(e.into()))?;
        let mut replies = Vec::with_capacity(stmts.len());
        for _ in 0..stmts.len() {
            replies.push(self.read_reply_skipping_events()?);
        }
        Ok(replies)
    }

    /// Sends a request and maps an `ERR` reply to
    /// [`ClientError::Refused`].
    pub fn expect_ok(&mut self, text: &str) -> Result<Reply, ClientError> {
        let reply = self.request(text)?;
        if reply.ok {
            Ok(reply)
        } else {
            Err(ClientError::Refused(reply.message))
        }
    }

    /// Runs a multi-statement SQL script, one reply per statement
    /// batch; returns the replies.
    pub fn run_script(&mut self, script: &str) -> Result<Vec<Reply>, ClientError> {
        // Split on statement boundaries client-side so each statement
        // earns its own reply (the server replies once per completed
        // accumulator unit).
        let mut replies = Vec::new();
        let mut buf = String::new();
        for line in script.lines() {
            buf.push_str(line);
            buf.push('\n');
            if crate::protocol::statement_complete(&buf) {
                replies.push(self.request(&buf)?);
                buf.clear();
            }
        }
        if !buf.trim().is_empty() {
            // An unterminated statement would never earn a reply.
            return Err(ClientError::Protocol(
                "script ends with an unterminated statement".into(),
            ));
        }
        Ok(replies)
    }

    /// Ends the session politely.
    pub fn quit(mut self) -> Result<(), ClientError> {
        let _ = self.request("QUIT")?;
        Ok(())
    }

    /// Subscribes this session to live discovery events (`WATCH`),
    /// optionally restricted to one table. After this, use
    /// [`next_event`](Self::next_event) to pull the stream.
    pub fn watch(&mut self, table: Option<&str>) -> Result<Reply, ClientError> {
        let line = match table {
            Some(t) => format!("WATCH {t}"),
            None => "WATCH".to_owned(),
        };
        self.watch_line(&line)
    }

    /// [`watch`](Self::watch) with the weak plane opted in: the session
    /// additionally receives `wfd:` weak-FD fact events. Sends
    /// `WATCH <t|*> weak` (the wildcard keeps the bare `weak` token
    /// from being read as a table filter).
    pub fn watch_weak(&mut self, table: Option<&str>) -> Result<Reply, ClientError> {
        self.watch_line(&format!("WATCH {} weak", table.unwrap_or("*")))
    }

    fn watch_line(&mut self, line: &str) -> Result<Reply, ClientError> {
        let reply = self.request(line)?;
        if reply.ok {
            self.watching = true;
            Ok(reply)
        } else {
            Err(ClientError::Refused(reply.message))
        }
    }

    /// Waits for the next streamed item. `Ok(None)` means the read
    /// timed out with no event — the stream is idle, not broken.
    pub fn next_event(&mut self) -> Result<Option<StreamItem>, ClientError> {
        if let Some(item) = self.queued.pop_front() {
            return Ok(Some(item));
        }
        if !self.watching {
            return Err(ClientError::Protocol("session is not watching".into()));
        }
        match self.read_session_line() {
            Ok(line) => match classify_stream_line(&line) {
                Some(item) => item.map(Some),
                None => Err(ClientError::Protocol(format!(
                    "unexpected line while watching: {line:?}"
                ))),
            },
            Err(ClientError::Timeout(_)) => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// Cancels the subscription (`UNWATCH`). The server drains queued
    /// events before confirming; they are returned along with any
    /// events collected earlier, in stream order.
    pub fn unwatch(&mut self) -> Result<(Vec<StreamItem>, Reply), ClientError> {
        let reply = self.request("UNWATCH")?;
        self.watching = false;
        let items: Vec<StreamItem> = self.queued.drain(..).collect();
        if reply.ok {
            Ok((items, reply))
        } else {
            Err(ClientError::Refused(reply.message))
        }
    }
}

/// Classifies a framed stream line; `None` means the line is not an
/// event frame (likely a reply status line).
fn classify_stream_line(line: &str) -> Option<Result<StreamItem, ClientError>> {
    if line.starts_with("EVENT ") {
        Some(match WatchEvent::parse(line) {
            Some(ev) => Ok(StreamItem::Event(ev)),
            None => Err(ClientError::Protocol(format!("bad event line {line:?}"))),
        })
    } else {
        line.strip_prefix("LAGGED ").map(|n| match n.parse() {
            Ok(n) => Ok(StreamItem::Lagged(n)),
            Err(_) => Err(ClientError::Protocol(format!("bad lag line {line:?}"))),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// The harness-critical fix: a server that accepts the connection
    /// but never replies (killed mid-response, wedged worker) must
    /// surface as a typed `Timeout`, not block the caller forever.
    #[test]
    fn read_times_out_instead_of_blocking() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        // Accept and hold the socket open without ever writing.
        let hold = std::thread::spawn(move || listener.accept().map(|(s, _)| s));
        let mut client =
            Client::connect_with_timeout(addr, Some(Duration::from_millis(50))).unwrap();
        let err = client.request("PING").unwrap_err();
        assert!(
            matches!(err, ClientError::Timeout(Some(t)) if t == Duration::from_millis(50)),
            "{err}"
        );
        // The display names the configured timeout, so a stuck harness
        // log says how long the client actually waited.
        assert!(err.to_string().contains("50ms"), "{err}");
        drop(client);
        let _ = hold.join().unwrap();
    }

    /// A server that closes mid-reply reads as `ServerClosed`.
    #[test]
    fn server_death_is_a_typed_error() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let half_reply = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            // A status line announcing payload that never comes.
            io::Write::write_all(&mut s, b"OK 3 partial\nline1\n").unwrap();
            // Socket drops here: connection closed mid-payload.
        });
        let mut client = Client::connect_with_timeout(addr, Some(Duration::from_secs(5))).unwrap();
        let err = client.request("PING").unwrap_err();
        assert!(matches!(err, ClientError::ServerClosed), "{err}");
        half_reply.join().unwrap();
    }

    /// Refusals keep their message through `expect_ok`.
    #[test]
    fn expect_ok_maps_err_replies() {
        let server = crate::Server::start(crate::ServeConfig::default()).unwrap();
        let mut client = Client::connect(server.local_addr()).unwrap();
        let err = client.expect_ok("DUMP nope").unwrap_err();
        match err {
            ClientError::Refused(m) => assert!(m.contains("no such table"), "{m}"),
            other => panic!("expected Refused, got {other}"),
        }
        client.quit().unwrap();
        server.shutdown().unwrap();
    }
}
