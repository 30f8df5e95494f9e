//! The TCP server: an acceptor thread feeding a fixed-size pool of
//! session workers over an mpsc queue, all sharing one [`Store`].
//!
//! Shutdown comes in two flavours:
//!
//! * [`Server::shutdown`] — graceful: stop accepting, let every
//!   session finish its current request and drain, fsync the WAL and
//!   write a final snapshot;
//! * [`Server::kill`] — simulated crash for durability tests: threads
//!   stop without a final snapshot or fsync, leaving recovery entirely
//!   to the WAL.

use crate::commit::FsyncMode;
use crate::metrics::{self, Verb};
use crate::protocol::{Accumulator, Reply, Request};
use crate::store::{Pending, ServeError, Store, StoreOptions};
use crate::watch::Subscription;
use sqlnf_core::prelude::*;
use sqlnf_discovery::prelude::*;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// How often blocked threads re-check the shutdown flag.
const POLL: Duration = Duration::from_millis(100);

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// WAL directory; `None` runs without durability.
    pub wal_dir: Option<PathBuf>,
    /// Session worker threads.
    pub workers: usize,
    /// Admitted statements between automatic snapshots (0 = only on
    /// graceful shutdown).
    pub snapshot_every: u64,
    /// Number of WAL shards (tables hash across them, so unrelated
    /// tables can commit on independent fsyncs).
    pub wal_shards: usize,
    /// How long an elected committer lingers collecting more frames
    /// before writing its batch (0 = drain immediately).
    pub commit_window: Duration,
    /// Fsync discipline at the ack boundary (see
    /// [`FsyncMode`](crate::commit::FsyncMode)).
    pub fsync: FsyncMode,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_owned(),
            wal_dir: None,
            workers: 4,
            snapshot_every: 0,
            wal_shards: 1,
            commit_window: Duration::ZERO,
            fsync: FsyncMode::Batch,
        }
    }
}

/// A running server; dropping it without calling [`shutdown`]
/// (`Server::shutdown`) aborts like [`kill`](Server::kill).
#[derive(Debug)]
pub struct Server {
    store: Arc<Store>,
    local_addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    kill: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds, recovers the store from the WAL directory (if any), and
    /// starts the acceptor and worker threads.
    pub fn start(config: ServeConfig) -> Result<Server, ServeError> {
        // The flight recorder backs the TRACE verb; recording costs a
        // few atomic stores per span, nothing when obs is compiled out.
        sqlnf_obs::set_flight(true);
        let opts = StoreOptions {
            snapshot_every: config.snapshot_every,
            wal_shards: config.wal_shards,
            commit_window: config.commit_window,
            fsync: config.fsync,
        };
        let store = Arc::new(match &config.wal_dir {
            Some(dir) => Store::open_with(dir, opts)?,
            None => Store::ephemeral_with(opts),
        });
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let kill = Arc::new(AtomicBool::new(false));

        let (tx, rx) = mpsc::channel::<TcpStream>();
        let rx = Arc::new(Mutex::new(rx));
        let workers = (0..config.workers.max(1))
            .map(|_| {
                let rx = Arc::clone(&rx);
                let store = Arc::clone(&store);
                let shutdown = Arc::clone(&shutdown);
                let kill = Arc::clone(&kill);
                std::thread::spawn(move || worker_loop(&rx, &store, &shutdown, &kill))
            })
            .collect();

        let acceptor = {
            let store = Arc::clone(&store);
            let shutdown = Arc::clone(&shutdown);
            std::thread::spawn(move || {
                for stream in listener.incoming() {
                    if shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    store.metrics().sessions.add(1);
                    if tx.send(stream).is_err() {
                        break;
                    }
                }
                // tx drops here: workers drain the queue and exit.
            })
        };

        Ok(Server {
            store,
            local_addr,
            shutdown,
            kill,
            acceptor: Some(acceptor),
            workers,
        })
    }

    /// The bound address (use this when the config asked for port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The shared store (for in-process inspection by tests).
    pub fn store(&self) -> &Arc<Store> {
        &self.store
    }

    /// Blocks until the shutdown flag flips (a client sent `SHUTDOWN`).
    pub fn wait_shutdown(&self) {
        while !self.shutdown.load(Ordering::SeqCst) {
            std::thread::sleep(POLL);
        }
    }

    fn stop_threads(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // The acceptor blocks in accept(); poke it awake.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }

    /// Graceful shutdown: stop accepting, drain sessions, fsync the
    /// WAL and write a final snapshot.
    pub fn shutdown(mut self) -> Result<(), ServeError> {
        self.stop_threads();
        self.store.sync()?;
        self.store.snapshot()?;
        Ok(())
    }

    /// Simulated crash: threads stop mid-flight, no final snapshot and
    /// no fsync — recovery must come from the WAL alone.
    pub fn kill(mut self) {
        self.kill.store(true, Ordering::SeqCst);
        self.stop_threads();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if self.acceptor.is_some() || !self.workers.is_empty() {
            self.kill.store(true, Ordering::SeqCst);
            self.stop_threads();
        }
    }
}

fn worker_loop(
    rx: &Mutex<Receiver<TcpStream>>,
    store: &Arc<Store>,
    shutdown: &AtomicBool,
    kill: &AtomicBool,
) {
    loop {
        // Don't hold the mutex while blocked: contended recv would
        // serialize the pool.
        let next = { rx.lock().unwrap().recv_timeout(POLL) };
        match next {
            Ok(stream) => {
                if kill.load(Ordering::SeqCst) {
                    continue; // crash simulation: drop without replying
                }
                let _ = handle_session(store, stream, shutdown, kill);
            }
            Err(RecvTimeoutError::Timeout) => {
                if shutdown.load(Ordering::SeqCst) {
                    // Graceful drain keeps going until the acceptor has
                    // exited and the queue is empty; the sender dropping
                    // turns the next recv into Disconnected.
                    continue;
                }
            }
            Err(RecvTimeoutError::Disconnected) => return,
        }
    }
}

/// Runs one session to completion: reads lines, accumulates requests,
/// writes one reply per request.
///
/// SQL requests are pipelining-aware: each one is applied and
/// *enqueued* immediately, but its reply is staged and its commit
/// ticket parked in `pending` until the read buffer runs dry — so a
/// client that writes N statements before reading N replies gets all
/// of them applied, committed in (at most) one shared fsync, and then
/// answered in one write. A client that waits for each reply settles
/// after every request and observes no difference.
fn handle_session(
    store: &Arc<Store>,
    stream: TcpStream,
    shutdown: &AtomicBool,
    kill: &AtomicBool,
) -> io::Result<()> {
    stream.set_read_timeout(Some(POLL))?;
    stream.set_nodelay(true)?;
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    let mut acc = Accumulator::new();
    let mut line = String::new();
    let mut staged: Vec<(Reply, usize)> = Vec::new();
    let mut pending = Pending::default();
    // The session's live WATCH subscription, if any. Events are
    // drained to the socket only between requests (on the idle poll),
    // so a framed event never splits a reply. Dropping the handle —
    // on UNWATCH, QUIT, or any disconnect path — unregisters it.
    let mut watching: Option<Subscription> = None;
    loop {
        match reader.read_line(&mut line) {
            Ok(0) => {
                // Client closed; ack whatever it pipelined before EOF.
                settle(store, &mut writer, &mut staged, &mut pending)?;
                return Ok(());
            }
            Ok(_) => {
                if !line.ends_with('\n') {
                    // Timeout can split a line; keep reading it.
                    continue;
                }
                let complete = std::mem::take(&mut line);
                let Some(req) = acc.push_line(complete.trim_end_matches(['\r', '\n'])) else {
                    continue;
                };
                // Requests this loop answers itself are served (counted
                // and timed) here; the rest through `dispatch`.
                let verb = Verb::of(&req);
                let metrics = store.metrics();
                match req {
                    Request::Quit | Request::Shutdown => {
                        settle(store, &mut writer, &mut staged, &mut pending)?;
                        let stop = matches!(req, Request::Shutdown);
                        let bye = if stop { "shutting down" } else { "bye" };
                        metrics.serve(verb, || write_reply(&mut writer, &Reply::ok(bye)))?;
                        shutdown.fetch_or(stop, Ordering::SeqCst);
                        return Ok(());
                    }
                    // WATCH and UNWATCH mutate session state, so they
                    // are handled here rather than in `dispatch`.
                    Request::Watch { table, weak } => {
                        settle(store, &mut writer, &mut staged, &mut pending)?;
                        metrics.serve(verb, || {
                            let mut label = table.as_deref().unwrap_or("*").to_owned();
                            if weak {
                                label.push_str(" weak");
                            }
                            watching = Some(store.watch_opts(table, weak));
                            write_reply(&mut writer, &Reply::ok(format!("watching {label}")))
                        })?;
                    }
                    Request::Unwatch => {
                        settle(store, &mut writer, &mut staged, &mut pending)?;
                        metrics.serve(verb, || {
                            // Flush everything queued before the
                            // subscription dies, then confirm.
                            flush_watch(&mut writer, watching.as_ref())?;
                            let reply = if watching.take().is_some() {
                                Reply::ok("unwatched")
                            } else {
                                Reply::err("not watching")
                            };
                            write_reply(&mut writer, &reply)
                        })?;
                    }
                    Request::Sql(src) => {
                        let (reply, tickets) =
                            metrics.serve(verb, || dispatch_sql_enqueue(store, &src, &mut pending));
                        staged.push((reply, tickets));
                        // Settle as soon as the pipe runs dry:
                        // everything the client already sent shares
                        // this one commit.
                        if reader.buffer().is_empty() {
                            settle(store, &mut writer, &mut staged, &mut pending)?;
                            if kill.load(Ordering::SeqCst) {
                                return Ok(());
                            }
                        }
                    }
                    req => {
                        // Earlier SQL must be acknowledged (and
                        // counted) before a read verb looks at the
                        // store.
                        settle(store, &mut writer, &mut staged, &mut pending)?;
                        let reply = dispatch(store, req);
                        write_reply(&mut writer, &reply)?;
                        if kill.load(Ordering::SeqCst) {
                            return Ok(());
                        }
                    }
                }
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                settle(store, &mut writer, &mut staged, &mut pending)?;
                flush_watch(&mut writer, watching.as_ref())?;
                if shutdown.load(Ordering::SeqCst) || kill.load(Ordering::SeqCst) {
                    return Ok(()); // drain: drop idle sessions
                }
            }
            Err(e) => {
                // The socket died; still redeem enqueued tickets so
                // the admission counters agree with the commit log.
                let _ = store.commit_pending(&mut pending);
                return Err(e);
            }
        }
    }
}

/// Commits every pending ticket and flushes the staged replies in
/// request order. Commit outcomes are per ticket: exactly the replies
/// whose own statements failed to become durable flip to errors — an
/// undurable statement is never acked, and a statement durable on a
/// healthy shard is never un-acked by a neighbour's failure. (A reply
/// already reporting a statement-level refusal keeps its original
/// error even if one of its earlier, applied statements also failed
/// to commit.) A snapshot failure after the commit is a session-level
/// error, not a statement rejection.
fn settle(
    store: &Store,
    writer: &mut TcpStream,
    staged: &mut Vec<(Reply, usize)>,
    pending: &mut Pending,
) -> io::Result<()> {
    let (outcomes, aftermath) = store.commit_pending_each(pending);
    if staged.is_empty() {
        return aftermath.map_err(|e| io::Error::other(e.to_string()));
    }
    let mut out = String::new();
    let mut taken = 0usize;
    for (reply, tickets) in staged.drain(..) {
        let end = (taken + tickets).min(outcomes.len());
        let mine = &outcomes[taken.min(end)..end];
        taken = end;
        match mine.iter().find_map(|r| r.as_ref().err()) {
            Some(e) if reply.ok => out.push_str(&Reply::err(e.to_string()).to_string()),
            _ => out.push_str(&reply.to_string()),
        }
    }
    writer.write_all(out.as_bytes())?;
    writer.flush()?;
    aftermath.map_err(|e| io::Error::other(e.to_string()))
}

fn write_reply(writer: &mut TcpStream, reply: &Reply) -> io::Result<()> {
    writer.write_all(reply.to_string().as_bytes())?;
    writer.flush()
}

/// Drain a watching session's queued discovery events to the socket.
/// Called only between requests (idle poll or UNWATCH), so events
/// never interleave inside a reply.
fn flush_watch(writer: &mut TcpStream, watching: Option<&Subscription>) -> io::Result<()> {
    if let Some(sub) = watching {
        let lines = sub.drain();
        if !lines.is_empty() {
            let mut out = String::new();
            for line in &lines {
                out.push_str(line);
                out.push('\n');
            }
            writer.write_all(out.as_bytes())?;
            writer.flush()?;
        }
    }
    Ok(())
}

/// The SQL half of [`dispatch`]: applies and enqueues, but leaves the
/// commit wait to [`settle`] so pipelined requests share a batch. The
/// session serves it, so its request spans and slow-log entry cover
/// parse/apply/enqueue; the shared commit wait is accounted
/// separately under `serve.commit.wait`. Returns the staged reply and
/// how many commit tickets this request pushed into `pending` — the
/// reply must be withheld until exactly those tickets settle. (A
/// refused script still owns the tickets of its earlier, applied
/// statements.)
fn dispatch_sql_enqueue(store: &Store, src: &str, pending: &mut Pending) -> (Reply, usize) {
    let before = pending.len();
    let reply = applied_reply(store.execute_sql_enqueue(src, pending));
    (reply, pending.len() - before)
}

/// The reply to a SQL request: how many statements applied, or why
/// the script stopped.
fn applied_reply(result: Result<usize, ServeError>) -> Reply {
    match result {
        Ok(applied) => Reply::ok(format!(
            "applied {applied} statement{}",
            if applied == 1 { "" } else { "s" }
        )),
        Err(e) => Reply::err(e.to_string()),
    }
}

/// Executes one request against the store, serving it through the
/// store's metrics: counted in `serve.requests`, timed under
/// `serve.dispatch` and its `serve.verb.<label>` span, and offered
/// (with its per-stage breakdown) to the slow-request log.
pub fn dispatch(store: &Store, req: Request) -> Reply {
    let result = store
        .metrics()
        .serve(Verb::of(&req), || run_request(store, req));
    result.unwrap_or_else(|e| Reply::err(e.to_string()))
}

fn run_request(store: &Store, req: Request) -> Result<Reply, ServeError> {
    match req {
        Request::Ping => Ok(Reply::ok("pong")),
        Request::Quit => Ok(Reply::ok("bye")),
        Request::Shutdown => Ok(Reply::ok("shutting down")),
        // Session-stateful verbs; `handle_session` intercepts them, so
        // this arm is only reachable through a direct `dispatch` call.
        Request::Watch { .. } | Request::Unwatch => Ok(Reply::err(
            "WATCH requires an interactive session".to_string(),
        )),
        Request::Tables => {
            let names = store.table_names();
            Ok(Reply::ok_with(format!("{} tables", names.len()), names))
        }
        Request::Stats => Ok(Reply::ok_with("server counters", store.stats_lines())),
        Request::Metrics => {
            let text = metrics::render_metrics(store);
            let lines: Vec<String> = text.lines().map(str::to_owned).collect();
            Ok(Reply::ok_with("metrics exposition", lines))
        }
        Request::Trace(n) => {
            let events = sqlnf_obs::flight_snapshot(n);
            let lines: Vec<String> = events.iter().map(|e| e.line()).collect();
            Ok(Reply::ok_with(
                format!("{} flight events", lines.len()),
                lines,
            ))
        }
        Request::Sql(src) => Ok(applied_reply(store.execute_sql(&src))),
        Request::Dump(table) => store.with_table(&table, |st| {
            let csv = table_to_csv(st.data());
            let lines: Vec<String> = csv.lines().map(str::to_owned).collect();
            Reply::ok_with(format!("{} rows", st.data().len()), lines)
        }),
        Request::Mine {
            table,
            max_lhs,
            semantics,
        } => {
            // Snapshot the instance under the read lock, then mine
            // *outside* it: a full mining run is O(2^arity · rows)
            // and must not stall writers (or the snapshotter, which
            // takes every table lock in name order) for its duration.
            // See DESIGN.md §8.
            let snap = store.with_table(&table, |st| st.data().clone())?;
            let max_lhs = max_lhs.clamp(1, snap.schema().arity().max(1));
            // Without a semantics token the reply is byte-identical to
            // the pre-weak protocol: the combined p/c report.
            let report = match semantics {
                Some(sem) => semantics_report(&table, &snap, sem, max_lhs, DEFAULT_CACHE_BUDGET),
                None => mine_report(&table, &snap, max_lhs, DEFAULT_CACHE_BUDGET),
            };
            let lines: Vec<String> = report.lines().map(str::to_owned).collect();
            Ok(Reply::ok_with("mined", lines))
        }
        Request::Closure { table, columns } => {
            store.with_table(&table, |st| closure_reply(st, &columns))?
        }
        Request::Normalize { table, semantics } => store.with_table(&table, |st| {
            let design = SchemaDesign::new(st.data().schema().clone(), st.sigma().clone());
            // The VRNF target is semantics-invariant (weak implication
            // collapses to possible, see the coincidence theorem), so a
            // semantics token only annotates the reply.
            let reply = normalize_reply(&design);
            match (reply, semantics) {
                (Ok(mut r), Some(sem)) => {
                    r.message = format!("{} ({} semantics)", r.message, sem.token());
                    Ok(r)
                }
                (r, _) => r,
            }
        })?,
    }
}

fn closure_reply(st: &StoredTable, columns: &[String]) -> Result<Reply, ServeError> {
    let schema = st.data().schema();
    let mut x = AttrSet::EMPTY;
    for col in columns {
        let a = schema
            .attr(col)
            .ok_or_else(|| ServeError::Bad(format!("unknown column {col:?}")))?;
        x.insert(a);
    }
    let fds = &st.sigma().fds;
    let p = p_closure(fds, schema.nfs(), x);
    let c = c_closure(fds, schema.nfs(), x);
    Ok(Reply::ok_with(
        format!("closure of {}", schema.display_set(x)),
        vec![
            format!("p-closure {}", schema.display_set(p)),
            format!("c-closure {}", schema.display_set(c)),
        ],
    ))
}

fn normalize_reply(design: &SchemaDesign) -> Result<Reply, ServeError> {
    if design.is_vrnf() == Ok(true) {
        let ddl = render_create_table(design.schema(), design.sigma());
        return Ok(Reply::ok_with(
            "already in VRNF",
            ddl.lines().map(str::to_owned).collect(),
        ));
    }
    match design.normalize() {
        Ok(normalized) => {
            let mut lines = Vec::new();
            for child in &normalized.children {
                for l in render_create_table(child.schema(), child.sigma()).lines() {
                    lines.push(l.to_owned());
                }
            }
            Ok(Reply::ok_with(
                format!("{} tables", normalized.children.len()),
                lines,
            ))
        }
        Err(e) => Err(ServeError::Bad(format!("cannot normalize: {e}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DDL: &str = "CREATE TABLE purchase (
        order_id INT NOT NULL,
        item     TEXT NOT NULL,
        catalog  TEXT,
        price    INT NOT NULL,
        CONSTRAINT line CERTAIN FD (order_id, item, catalog)
                                  -> (order_id, item, catalog, price)
    );";

    fn seeded_store() -> Store {
        let store = Store::ephemeral();
        store.execute_sql(DDL).unwrap();
        store
            .execute_sql(
                "INSERT INTO purchase VALUES (1, 'Fitbit', NULL, 240), (2, 'Doll', 'K', 25);",
            )
            .unwrap();
        store
    }

    #[test]
    fn dispatch_covers_every_verb() {
        let store = seeded_store();
        assert!(dispatch(&store, Request::Ping).ok);
        let tables = dispatch(&store, Request::Tables);
        assert_eq!(tables.lines, vec!["purchase".to_owned()]);
        let dump = dispatch(&store, Request::Dump("purchase".into()));
        assert!(dump.ok);
        assert_eq!(dump.lines.len(), 3); // header + 2 rows
        let mine = dispatch(
            &store,
            Request::Mine {
                table: "purchase".into(),
                max_lhs: 2,
                semantics: None,
            },
        );
        assert!(mine.ok, "{}", mine.message);
        assert!(mine.lines.iter().any(|l| l.contains("minimal FDs")));
        let mine_weak = dispatch(
            &store,
            Request::Mine {
                table: "purchase".into(),
                max_lhs: 2,
                semantics: Some(Semantics::Weak),
            },
        );
        assert!(mine_weak.ok, "{}", mine_weak.message);
        assert!(
            mine_weak.lines.iter().any(|l| l.contains("weak FDs")),
            "{:?}",
            mine_weak.lines
        );
        let closure = dispatch(
            &store,
            Request::Closure {
                table: "purchase".into(),
                columns: vec!["order_id".into(), "item".into(), "catalog".into()],
            },
        );
        assert!(closure.ok);
        assert!(closure.lines[0].starts_with("p-closure"));
        assert!(closure.lines[0].contains("price"));
        let norm = dispatch(
            &store,
            Request::Normalize {
                table: "purchase".into(),
                semantics: None,
            },
        );
        assert!(norm.ok, "{}", norm.message);
        assert!(norm.lines.iter().any(|l| l.contains("CREATE TABLE")));
        let norm_weak = dispatch(
            &store,
            Request::Normalize {
                table: "purchase".into(),
                semantics: Some(Semantics::Weak),
            },
        );
        assert!(norm_weak.ok, "{}", norm_weak.message);
        assert!(
            norm_weak.message.contains("weak semantics"),
            "{}",
            norm_weak.message
        );
        assert_eq!(norm.lines, norm_weak.lines, "design is semantics-invariant");
        let stats = dispatch(&store, Request::Stats);
        assert!(stats.lines.iter().any(|l| l.starts_with("stmt.admitted 2")));
        let mut sorted = stats.lines.clone();
        sorted.sort();
        assert_eq!(stats.lines, sorted, "STATS payload is name-sorted");
        let metrics = dispatch(&store, Request::Metrics);
        assert!(metrics.ok);
        let samples =
            crate::metrics::parse_exposition(&metrics.lines.join("\n")).expect("exposition parses");
        let admitted = samples
            .iter()
            .find(|s| s.name == "sqlnf_store" && s.label("name") == Some("stmt.admitted"))
            .expect("store counters exposed");
        assert_eq!(admitted.value, 2.0);
        assert!(
            samples
                .iter()
                .any(|s| s.name == "sqlnf_slow_request_ns" && s.label("stage") == Some("total")),
            "dispatches above recorded into the slow log"
        );
        let trace = dispatch(&store, Request::Trace(16));
        assert!(trace.ok);
        assert!(trace.lines.len() <= 16);
        let err = dispatch(&store, Request::Dump("nope".into()));
        assert!(!err.ok);
        assert!(err.message.contains("no such table"));
    }

    /// A pipelined burst (write N, then read N) comes back as N
    /// in-order replies, interleaves correctly with refusals, and the
    /// admissions survive recovery — the batch was durable at ack.
    #[test]
    fn pipelined_batch_round_trips_and_recovers() {
        let dir = std::env::temp_dir().join(format!("sqlnf_pipe_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let server = Server::start(ServeConfig {
            wal_dir: Some(dir.clone()),
            wal_shards: 2,
            ..ServeConfig::default()
        })
        .unwrap();
        let addr = server.local_addr();
        let mut client = crate::client::Client::connect(addr).unwrap();
        client.expect_ok(DDL).unwrap();
        let stmts: Vec<String> = (0..10)
            .map(|i| {
                // Odd statements reuse the previous line's determinant
                // (order_id, item, catalog) with a different price.
                format!(
                    "INSERT INTO purchase VALUES ({}, 'pen', 'web', {});",
                    i / 2,
                    100 + i % 2
                )
            })
            .collect();
        let replies = client.send_batch(&stmts).unwrap();
        assert_eq!(replies.len(), 10);
        // The declared FD refuses every second insert — mid-batch, in
        // order, without derailing the rest of the pipeline.
        for (i, r) in replies.iter().enumerate() {
            assert_eq!(r.ok, i % 2 == 0, "reply {i}: {}", r.message);
        }
        let stats = client.expect_ok("STATS").unwrap();
        assert!(
            stats.lines.iter().any(|l| l == "stmt.admitted 6"),
            "{:?}",
            stats.lines
        );
        client.quit().unwrap();
        server.kill(); // no graceful fsync: the acks must already hold
        let reborn = Store::open(&dir, 0).unwrap();
        reborn
            .with_table("purchase", |st| assert_eq!(st.data().len(), 5))
            .unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn server_round_trip_over_tcp() {
        let server = Server::start(ServeConfig::default()).unwrap();
        let addr = server.local_addr();
        let mut client = crate::client::Client::connect(addr).unwrap();
        let r = client.request("PING").unwrap();
        assert!(r.ok);
        assert_eq!(r.message, "pong");
        let r = client.request(DDL).unwrap();
        assert!(r.ok, "{}", r.message);
        let r = client
            .request("INSERT INTO purchase VALUES (1, 'Fitbit', NULL, 240);")
            .unwrap();
        assert!(r.ok, "{}", r.message);
        let r = client
            .request("INSERT INTO purchase VALUES (1, 'Fitbit', NULL, 999);")
            .unwrap();
        assert!(!r.ok, "constraint violation must be refused");
        let r = client.request("DUMP purchase").unwrap();
        assert_eq!(r.lines.len(), 2);
        client.quit().unwrap();
        server.shutdown().unwrap();
    }
}
