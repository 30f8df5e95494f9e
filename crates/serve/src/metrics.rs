//! The METRICS plane: the store's own obs registry, per-request stage
//! accounting, the bounded slow-request log, and the Prometheus-style
//! text exposition (plus its parser, which `sqlnf top` and the tests
//! share).
//!
//! Every serve measurement lives in the [`StoreMetrics`] a store owns:
//! handles into an owned [`Registry`], resolved once at construction,
//! recorded regardless of the `sqlnf-obs` feature, and never shared
//! with another store in the process.
//!
//! ## Exposition grammar
//!
//! One sample per line, `#` lines are comments:
//!
//! ```text
//! exposition := (comment | sample)*
//! comment    := "#" ... "\n"
//! sample     := name ("{" label ("," label)* "}")? " " value "\n"
//! label      := name "=" '"' escaped-value '"'      # \\ and \" escapes
//! ```
//!
//! Families emitted by [`render_metrics`]:
//!
//! * `sqlnf_counter{name=…}` / `sqlnf_span_*{name=…}` — the global
//!   `sqlnf-obs` registry (library call sites; empty when the feature
//!   is off) together with the store's registry (every `serve.*`
//!   name);
//! * `sqlnf_store{name=…}` — the same counters `STATS` reports, same
//!   names, so the two planes can be diffed against each other; among
//!   them `table.<name>.data_bytes`, one per table, and
//!   `table.<name>.index_bytes`, one per table with constraints;
//! * `sqlnf_slow_request_ns{rank=…,seq=…,verb=…,stage=…}` — the
//!   worst-requests log, one `total` sample plus one per non-zero
//!   stage.

use crate::protocol::Request;
use crate::store::Store;
use sqlnf_obs::{Counter, ObsReport, Registry, Timer};
use std::cell::Cell;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};

/// How many worst requests the slow log retains.
pub const SLOW_LOG_CAP: usize = 8;

/// One timed portion of a request's lifecycle, and the store span it
/// is recorded under. The four `Lock*` stages mirror the store's lock
/// tiers (DESIGN.md §8): wait time only, never the work done under
/// the lock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Stage {
    /// SQL parsing.
    Parse = 0,
    /// Waiting on the snapshot mutex (tier 1).
    LockSnapshot = 1,
    /// Waiting on the table-registry lock (tier 2).
    LockRegistry = 2,
    /// Waiting on a per-table lock (tier 3).
    LockTable = 3,
    /// Waiting on the WAL mutex (tier 4).
    LockWal = 4,
    /// Writing a WAL frame.
    WalAppend = 5,
    /// Forcing the WAL to stable storage.
    WalFsync = 6,
    /// Forcing a snapshot image to stable storage.
    SnapshotFsync = 7,
}

/// Number of [`Stage`] variants (the breakdown array length).
pub const STAGES: usize = 8;

/// Per [`Stage`], in order: its slow-log label and its span name.
const STAGE_NAMES: [(&str, &str); STAGES] = [
    ("parse", "serve.parse"),
    ("lock_snapshot", "serve.lock_wait.snapshot"),
    ("lock_registry", "serve.lock_wait.registry"),
    ("lock_table", "serve.lock_wait.table"),
    ("lock_wal", "serve.lock_wait.wal"),
    ("wal_append", "serve.wal.append"),
    ("wal_fsync", "serve.wal.fsync"),
    ("snapshot_fsync", "serve.snapshot.fsync"),
];

/// Per [`Verb`], in order: its latency span, whose last segment is the
/// verb's label (slow log, `sqlnf top`).
const VERB_SPANS: [&str; 14] = [
    "serve.verb.ping",
    "serve.verb.tables",
    "serve.verb.dump",
    "serve.verb.mine",
    "serve.verb.closure",
    "serve.verb.normalize",
    "serve.verb.stats",
    "serve.verb.metrics",
    "serve.verb.trace",
    "serve.verb.watch",
    "serve.verb.unwatch",
    "serve.verb.quit",
    "serve.verb.shutdown",
    "serve.verb.sql",
];

/// A request's verb: which `serve.verb.<label>` span it is timed
/// under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Verb(usize);

impl Verb {
    /// The verb of `req`.
    pub(crate) fn of(req: &Request) -> Verb {
        Verb(match req {
            Request::Ping => 0,
            Request::Tables => 1,
            Request::Dump(_) => 2,
            Request::Mine { .. } => 3,
            Request::Closure { .. } => 4,
            Request::Normalize { .. } => 5,
            Request::Stats => 6,
            Request::Metrics => 7,
            Request::Trace(_) => 8,
            Request::Watch { .. } => 9,
            Request::Unwatch => 10,
            Request::Quit => 11,
            Request::Shutdown => 12,
            Request::Sql(_) => 13,
        })
    }

    /// The verb's label (`sql`, `mine`, …).
    pub(crate) fn label(self) -> &'static str {
        &VERB_SPANS[self.0]["serve.verb.".len()..]
    }
}

thread_local! {
    /// Per-thread stage accumulator for the request in flight. Workers
    /// are single-request-at-a-time, so a plain thread-local suffices.
    static STAGE_NS: [Cell<u64>; STAGES] = const { [const { Cell::new(0) }; STAGES] };
}

/// Drains this thread's stage accumulator (clearing it).
fn stage_take() -> [u64; STAGES] {
    STAGE_NS.with(|s| s.each_ref().map(|cell| cell.replace(0)))
}

/// A store's measurements: its registry, the handles every layer
/// records through, and the slow-request log. Shared (`Arc`) by the
/// store, its commit plane and its WATCH hub.
#[derive(Debug)]
pub struct StoreMetrics {
    registry: Registry,
    stages: [Arc<Timer>; STAGES],
    verbs: [Arc<Timer>; VERB_SPANS.len()],
    dispatch: Arc<Timer>,
    /// `serve.requests`: requests served — one per request a session
    /// reads (every verb) and one per direct
    /// [`dispatch`](crate::server::dispatch) call. Its value at the
    /// start of a request is that request's slow-log `seq`.
    pub(crate) requests: Arc<Counter>,
    pub(crate) sessions: Arc<Counter>,
    pub(crate) admitted: Arc<Counter>,
    pub(crate) rejected: Arc<Counter>,
    pub(crate) snapshots: Arc<Counter>,
    pub(crate) snapshot: Arc<Timer>,
    pub(crate) commit_wait: Arc<Timer>,
    pub(crate) commit_batches: Arc<Counter>,
    pub(crate) commit_frames: Arc<Counter>,
    pub(crate) commit_wakeups: Arc<Counter>,
    /// A value histogram: its "ns" are frames per commit batch.
    pub(crate) commit_batch_size: Arc<Timer>,
    pub(crate) wal_bytes: Arc<Counter>,
    pub(crate) wal_records: Arc<Counter>,
    /// `serve.wal.truncate_failed`: failed batches whose frames could
    /// not be cut from the log again, so recovery may replay frames
    /// their writers saw fail.
    pub(crate) wal_truncate_failed: Arc<Counter>,
    /// `serve.session.io_errors`: sessions that ended on a socket error
    /// (a clean end of stream is not one).
    pub(crate) session_io_errors: Arc<Counter>,
    pub(crate) watch_events: Arc<Counter>,
    /// `serve.watch.notify_failed`: durable batches the WATCH hub was
    /// gone to receive.
    pub(crate) watch_notify_failed: Arc<Counter>,
    pub(crate) watch_dropped: Arc<Counter>,
    /// High-water mark of the rows the WATCH hub's miners hold.
    pub(crate) watch_shadow_rows: Arc<Counter>,
    /// `serve.watch.publish`: the hub's work on one epoch of a watched
    /// table — applying its rows, re-mining, diffing the facts.
    pub(crate) watch_publish: Arc<Timer>,
    /// `serve.watch.deliver`: one event batch a session's event writer
    /// writes, from taking the session's write lock to the flush.
    pub(crate) watch_deliver: Arc<Timer>,
    /// The worst-request log.
    pub(crate) slow: SlowLog,
}

impl Default for StoreMetrics {
    fn default() -> Self {
        let registry = Registry::new();
        let counter = |name| registry.counter(name);
        let timer = |name| registry.timer(name);
        StoreMetrics {
            stages: STAGE_NAMES.map(|(_, span)| timer(span)),
            verbs: VERB_SPANS.map(timer),
            dispatch: timer("serve.dispatch"),
            requests: counter("serve.requests"),
            sessions: counter("serve.sessions"),
            admitted: counter("serve.stmt.admitted"),
            rejected: counter("serve.stmt.rejected"),
            snapshots: counter("serve.snapshots"),
            snapshot: timer("serve.snapshot"),
            commit_wait: timer("serve.commit.wait"),
            commit_batches: counter("serve.commit.batches"),
            commit_frames: counter("serve.commit.frames"),
            commit_wakeups: counter("serve.commit.wakeups"),
            commit_batch_size: timer("serve.commit.batch_size"),
            wal_bytes: counter("serve.wal.bytes"),
            wal_records: counter("serve.wal.records"),
            wal_truncate_failed: counter("serve.wal.truncate_failed"),
            session_io_errors: counter("serve.session.io_errors"),
            watch_events: counter("serve.watch.events"),
            watch_notify_failed: counter("serve.watch.notify_failed"),
            watch_dropped: counter("serve.watch.dropped"),
            watch_shadow_rows: counter("serve.watch.shadow_rows"),
            watch_publish: timer("serve.watch.publish"),
            watch_deliver: timer("serve.watch.deliver"),
            slow: SlowLog::default(),
            registry,
        }
    }
}

impl StoreMetrics {
    /// Snapshot of every `serve.*` counter and span of this store.
    pub fn report(&self) -> ObsReport {
        self.registry.report()
    }

    /// Runs `f`, charging its wall time to `stage`: the stage's span
    /// and the in-flight request's slow-log breakdown, from one
    /// measurement.
    pub(crate) fn timed<T>(&self, stage: Stage, f: impl FnOnce() -> T) -> T {
        let span = self.stages[stage as usize].enter();
        let out = f();
        let ns = span.exit();
        STAGE_NS.with(|s| s[stage as usize].set(s[stage as usize].get().saturating_add(ns)));
        out
    }

    /// Serves one request: counts it (the count is its slow-log
    /// `seq`), times `f` under `serve.dispatch` and the verb's span,
    /// and offers the finished request with its stage breakdown to the
    /// slow log.
    pub(crate) fn serve<T>(&self, verb: Verb, f: impl FnOnce() -> T) -> T {
        let seq = self.requests.add(1) + 1;
        let dispatch = self.dispatch.enter();
        stage_take();
        let span = self.verbs[verb.0].enter();
        let out = f();
        let total_ns = span.exit();
        drop(dispatch);
        self.slow.offer(SlowEntry {
            seq,
            verb: verb.label(),
            total_ns,
            stages: stage_take(),
        });
        out
    }
}

/// One retained worst-request record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlowEntry {
    /// The request's sequence number (the store's `serve.requests`
    /// count at its start), so a record can be lined up with a trace.
    pub seq: u64,
    /// Verb label (`sql`, `mine`, …).
    pub verb: &'static str,
    /// End-to-end time of the request's verb span.
    pub total_ns: u64,
    /// Per-stage breakdown, indexed by [`Stage`].
    pub stages: [u64; STAGES],
}

/// A bounded log of the worst-[`SLOW_LOG_CAP`] requests by total
/// latency. The fast path — a request no slower than everything
/// already retained — is a single atomic load; only genuinely slow
/// requests take the mutex.
#[derive(Debug, Default)]
pub struct SlowLog {
    /// Admission floor: the smallest retained total once the log is
    /// full (0 while it isn't).
    floor_ns: AtomicU64,
    entries: Mutex<Vec<SlowEntry>>,
}

impl SlowLog {
    /// Offers a finished request to the log.
    pub fn offer(&self, entry: SlowEntry) {
        if entry.total_ns <= self.floor_ns.load(Relaxed) {
            return;
        }
        let mut entries = self.entries.lock().unwrap();
        entries.push(entry);
        entries.sort_by(|a, b| b.total_ns.cmp(&a.total_ns).then(a.seq.cmp(&b.seq)));
        entries.truncate(SLOW_LOG_CAP);
        if entries.len() == SLOW_LOG_CAP {
            self.floor_ns
                .store(entries[SLOW_LOG_CAP - 1].total_ns, Relaxed);
        }
    }

    /// The retained entries, worst first.
    pub fn entries(&self) -> Vec<SlowEntry> {
        self.entries.lock().unwrap().clone()
    }
}

/// Renders the full exposition: the global and the store registries
/// (counters, latency histograms with derived percentiles), the store
/// counters, and the slow-request log.
pub fn render_metrics(store: &Store) -> String {
    let mut report = sqlnf_obs::report();
    report.absorb(store.metrics().report());
    let mut out = report.to_prometheus();
    out.push_str("# TYPE sqlnf_store gauge\n");
    for line in store.stats_lines() {
        if let Some((name, value)) = line.rsplit_once(' ') {
            // Table names make their way into per-table gauge names.
            let name = name.replace('\\', "\\\\").replace('"', "\\\"");
            let _ = writeln!(out, "sqlnf_store{{name=\"{name}\"}} {value}");
        }
    }
    out.push_str("# TYPE sqlnf_slow_request_ns gauge\n");
    for (rank, e) in store.metrics().slow.entries().iter().enumerate() {
        let _ = writeln!(
            out,
            "sqlnf_slow_request_ns{{rank=\"{rank}\",seq=\"{}\",verb=\"{}\",stage=\"total\"}} {}",
            e.seq, e.verb, e.total_ns
        );
        for (&ns, (stage, _)) in e.stages.iter().zip(STAGE_NAMES) {
            if ns > 0 {
                let _ = writeln!(
                    out,
                    "sqlnf_slow_request_ns{{rank=\"{rank}\",seq=\"{}\",verb=\"{}\",stage=\"{stage}\"}} {ns}",
                    e.seq,
                    e.verb,
                );
            }
        }
    }
    out
}

/// One parsed exposition sample.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Metric family name.
    pub name: String,
    /// Label pairs, in source order.
    pub labels: Vec<(String, String)>,
    /// The sample value.
    pub value: f64,
}

impl Sample {
    /// The value of the label `key`, if present.
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// Parses a text exposition into samples; `#` lines and blank lines
/// are skipped. Errors name the offending line.
pub fn parse_exposition(text: &str) -> Result<Vec<Sample>, String> {
    let mut out = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        out.push(parse_sample(line).ok_or_else(|| format!("bad sample line {line:?}"))?);
    }
    Ok(out)
}

fn parse_sample(line: &str) -> Option<Sample> {
    let (head, value) = match line.find('{') {
        Some(_) => {
            // The value follows the label set's closing brace; the
            // brace can't appear inside label values unescaped-free,
            // so scan from the end.
            let close = line.rfind('}')?;
            (&line[..close + 1], line[close + 1..].trim())
        }
        None => {
            let (name, value) = line.split_once(' ')?;
            (name, value.trim())
        }
    };
    let value: f64 = value.parse().ok()?;
    match head.split_once('{') {
        None => Some(Sample {
            name: head.to_owned(),
            labels: Vec::new(),
            value,
        }),
        Some((name, rest)) => {
            let body = rest.strip_suffix('}')?;
            let mut labels = Vec::new();
            let mut chars = body.chars().peekable();
            while chars.peek().is_some() {
                let mut key = String::new();
                for c in chars.by_ref() {
                    if c == '=' {
                        break;
                    }
                    key.push(c);
                }
                if chars.next() != Some('"') {
                    return None;
                }
                let mut val = String::new();
                loop {
                    match chars.next()? {
                        '\\' => val.push(chars.next()?),
                        '"' => break,
                        c => val.push(c),
                    }
                }
                labels.push((key, val));
                match chars.next() {
                    None => break,
                    Some(',') => continue,
                    Some(_) => return None,
                }
            }
            Some(Sample {
                name: name.to_owned(),
                labels,
                value,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(seq: u64, total_ns: u64) -> SlowEntry {
        let mut stages = [0u64; STAGES];
        stages[Stage::Parse as usize] = total_ns / 2;
        SlowEntry {
            seq,
            verb: "sql",
            total_ns,
            stages,
        }
    }

    #[test]
    fn slow_log_keeps_the_worst_n() {
        let log = SlowLog::default();
        for seq in 0..100u64 {
            log.offer(entry(seq, seq * 10));
        }
        let entries = log.entries();
        assert_eq!(entries.len(), SLOW_LOG_CAP);
        assert_eq!(entries[0].total_ns, 990, "worst first");
        assert!(entries.windows(2).all(|w| w[0].total_ns >= w[1].total_ns));
        // Fast path: a request under the floor is rejected without
        // changing the log.
        log.offer(entry(200, 1));
        assert_eq!(log.entries(), entries);
    }

    /// One `timed` call feeds both the stage's span and the in-flight
    /// request's slow-log breakdown; `serve` counts the request and
    /// times it under `serve.dispatch` and its verb.
    #[test]
    fn serve_and_timed_record_into_the_store_registry() {
        let metrics = StoreMetrics::default();
        let x = metrics.serve(Verb::of(&Request::Sql(String::new())), || {
            metrics.timed(Stage::Parse, || {
                std::thread::sleep(std::time::Duration::from_millis(1));
                21 * 2
            })
        });
        assert_eq!(x, 42);
        let report = metrics.report();
        assert_eq!(report.counter("serve.requests"), Some(1));
        for span in ["serve.dispatch", "serve.verb.sql", "serve.parse"] {
            assert_eq!(report.timer(span).unwrap().count, 1, "{span}");
        }
        assert_eq!(report.timer("serve.verb.ping").unwrap().count, 0);
        let parse_ns = report.timer("serve.parse").unwrap().total_ns;
        let entries = metrics.slow.entries();
        assert_eq!(entries.len(), 1);
        assert_eq!((entries[0].seq, entries[0].verb), (1, "sql"));
        assert_eq!(entries[0].stages[Stage::Parse as usize], parse_ns);
        assert!(entries[0].total_ns >= parse_ns);
        assert_eq!(stage_take(), [0; STAGES], "serve drains the accumulator");
        // Nothing leaks into the process-global registry.
        assert_eq!(sqlnf_obs::report().timer("serve.parse"), None);
    }

    #[test]
    fn exposition_parses_its_own_render() {
        let text = "# comment\n\
                    sqlnf_counter{name=\"a.b\"} 3\n\
                    sqlnf_span_p99_ns{name=\"x\"} 1500\n\
                    sqlnf_store{name=\"stmt.admitted\"} 7\n\
                    sqlnf_slow_request_ns{rank=\"0\",seq=\"9\",verb=\"sql\",stage=\"total\"} 123\n\
                    bare_sample 1.5\n";
        let samples = parse_exposition(text).unwrap();
        assert_eq!(samples.len(), 5);
        assert_eq!(samples[0].name, "sqlnf_counter");
        assert_eq!(samples[0].label("name"), Some("a.b"));
        assert_eq!(samples[0].value, 3.0);
        let slow = &samples[3];
        assert_eq!(slow.label("verb"), Some("sql"));
        assert_eq!(slow.label("stage"), Some("total"));
        assert_eq!(samples[4].labels, Vec::new());
        assert_eq!(samples[4].value, 1.5);
        // Escapes survive the round trip.
        let esc = parse_exposition("m{name=\"a\\\"b\\\\c\"} 1").unwrap();
        assert_eq!(esc[0].label("name"), Some("a\"b\\c"));
        // Malformed lines are named, not swallowed.
        assert!(parse_exposition("not a number here").is_err());
        assert!(parse_exposition("m{unterminated=\"x} 1").is_err());
    }

    #[test]
    fn render_metrics_carries_store_counters_and_slow_log() {
        let store = Store::ephemeral();
        store
            .execute_sql("CREATE TABLE t (a INT NOT NULL, CONSTRAINT k CERTAIN KEY (a));")
            .unwrap();
        assert!(store.metrics().slow.entries().is_empty());
        store.metrics().slow.offer(entry(1, 5000));
        let text = render_metrics(&store);
        let samples = parse_exposition(&text).expect("render must parse");
        let admitted = samples
            .iter()
            .find(|s| s.name == "sqlnf_store" && s.label("name") == Some("stmt.admitted"))
            .expect("store counters present");
        assert_eq!(admitted.value, 1.0);
        assert!(samples
            .iter()
            .any(|s| s.name == "sqlnf_slow_request_ns" && s.label("stage") == Some("total")));
        assert!(samples
            .iter()
            .any(|s| s.name == "sqlnf_slow_request_ns" && s.label("stage") == Some("parse")));
    }
}
