//! The `sqlnf` command-line tool: schema linting, normalization, FD
//! mining and data profiling from SQL/CSV files.
//!
//! Kept in the library so the logic is unit-testable; `src/main.rs` is
//! a thin wrapper. Subcommands:
//!
//! ```text
//! sqlnf lint <file.sql>              normal-form diagnosis per table
//! sqlnf normalize <file.sql>         emit DDL of the VRNF decomposition
//! sqlnf check <file.sql>             load script (DDL + INSERTs), validate
//! sqlnf profile <file.csv>           table statistics
//! sqlnf mine <file.csv> [max_lhs]    discover & classify FDs
//! ```

use crate::prelude::*;
use sqlnf_core::lint::lint;
use sqlnf_model::stats::{profile, profile_to_json, render_profile};
use sqlnf_obs::json::JsonValue;
use sqlnf_obs::ObsReport;
use std::fmt::Write as _;
use std::sync::Arc;

/// Errors surfaced to the user.
#[derive(Debug)]
pub enum CliError {
    /// Bad usage; the string is the usage text.
    Usage(String),
    /// I/O problem reading an input file.
    Io(std::io::Error),
    /// SQL parse problem.
    Sql(sqlnf_model::sql::ParseError),
    /// CSV parse problem.
    Csv(sqlnf_model::csv::CsvError),
    /// Engine rejection while loading a script.
    Engine(EngineError),
    /// Server-side failure (serve/client subcommands).
    Serve(sqlnf_serve::ServeError),
    /// Client-side failure talking to a server (timeouts, refused
    /// requests, a connection the server closed mid-reply).
    Client(sqlnf_serve::ClientError),
    /// A harness run diverged; carries the minimized replayable seed.
    Harness(sqlnf_harness::HarnessFailure),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(u) => write!(f, "{u}"),
            CliError::Io(e) => write!(f, "io error: {e}"),
            CliError::Sql(e) => write!(f, "{e}"),
            CliError::Csv(e) => write!(f, "{e}"),
            CliError::Engine(e) => write!(f, "{e}"),
            CliError::Serve(e) => write!(f, "server error: {e}"),
            CliError::Client(e) => write!(f, "client error: {e}"),
            CliError::Harness(e) => write!(f, "{e}"),
        }
    }
}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Io(e)
    }
}
impl From<sqlnf_model::sql::ParseError> for CliError {
    fn from(e: sqlnf_model::sql::ParseError) -> Self {
        CliError::Sql(e)
    }
}
impl From<sqlnf_model::csv::CsvError> for CliError {
    fn from(e: sqlnf_model::csv::CsvError) -> Self {
        CliError::Csv(e)
    }
}
impl From<EngineError> for CliError {
    fn from(e: EngineError) -> Self {
        CliError::Engine(e)
    }
}
impl From<sqlnf_serve::ServeError> for CliError {
    fn from(e: sqlnf_serve::ServeError) -> Self {
        CliError::Serve(e)
    }
}
impl From<sqlnf_serve::ClientError> for CliError {
    fn from(e: sqlnf_serve::ClientError) -> Self {
        CliError::Client(e)
    }
}
impl From<sqlnf_harness::HarnessFailure> for CliError {
    fn from(e: sqlnf_harness::HarnessFailure) -> Self {
        CliError::Harness(e)
    }
}

const USAGE: &str = "sqlnf — SQL schema design (Köhler & Link, SIGMOD 2016)

USAGE:
    sqlnf lint <file.sql>              normal-form diagnosis per table
    sqlnf normalize <file.sql>         emit DDL of the VRNF decomposition
    sqlnf check <file.sql>             run script, validate data, report redundancy
    sqlnf profile <file.csv>           table statistics
    sqlnf mine <file.csv> [max_lhs]    discover & classify FDs (default LHS cap 3)
    sqlnf mine <file.csv> --incremental[=K]
                                       same report via the incremental engine
                                       (rows applied as deltas; K > 0 audits
                                       against a full re-mine every K deltas)
    sqlnf mine <file.csv> --semantics <tok>
                                       mine under one null semantics
                                       (classical | possible | certain | weak)
                                       instead of the combined p/c report;
                                       composes with --incremental
    sqlnf dataset <name> [seed]        emit an evaluation dataset as CSV
                                       (contact | contractor | fig7 | purchase)
    sqlnf serve [--port N] [--wal-dir DIR] [--workers N] [--snapshot-every N]
                [--wal-shards N] [--commit-window-us N] [--fsync always|batch]
                                       run the constraint-enforcing TCP server
                                       (line protocol; group-commit WAL sharded
                                       across N logs; see DESIGN.md §8)
    sqlnf client <host:port> [file.sql]
                                       run a scripted session against a server
                                       (reads stdin when no file is given;
                                       lines may mix SQL and service verbs)
    sqlnf client <host:port> --metrics one-shot METRICS scrape (the raw
                                       Prometheus-style text exposition)
    sqlnf client <host:port> --watch [table] [weak]
                                       subscribe to live discovery events
                                       (WATCH; streams EVENT/LAGGED lines
                                       until the server closes the session;
                                       a trailing `weak` adds wfd: facts)
    sqlnf top <host:port> [--interval MS] [--samples N]
                                       live per-verb request/p50/p99/throughput
                                       table polled from METRICS (default
                                       interval 1000ms; N=0 polls forever,
                                       the default)
    sqlnf harness [--seed N | --seed A..=B] [--ops N] [--clients N]
                  [--kill-prob P] [--corrupt-prob P] [--watch]
                  [--wal-shards N] [--commit-window-us N] [--fsync always|batch]
                                       seeded fault-injection + differential
                                       harness over the server, WAL and miner
                                       (deterministic per seed; failures print
                                       a minimized replayable seed/op-count;
                                       defaults: seed 1, ops 500, clients 4,
                                       probabilities 0.5; --watch rides a WATCH
                                       subscriber + MINE session along and
                                       cross-checks the event stream against
                                       from-scratch mines; see DESIGN.md §9)

FLAGS (any subcommand):
    --stats                            print an observability report to stderr
    --stats-json <path>                write the report as JSON (profile adds
                                       the table statistics to the document)
    --trace                            echo the reasoner/miner trace to stderr
    --cache-budget <bytes>             partition-cache byte budget for mining
                                       (suffixes k/m/g accepted; default 64m;
                                       0 disables caching — results identical)
";

/// Collects the CREATE TABLE designs of a script.
fn designs_of_script(src: &str) -> Result<Vec<SchemaDesign>, CliError> {
    let mut designs = Vec::new();
    for stmt in parse_script(src)? {
        if let Statement::CreateTable { schema, sigma } = stmt {
            designs.push(SchemaDesign::new(schema, sigma));
        }
    }
    Ok(designs)
}

/// `sqlnf lint`: normal-form diagnosis for every table of the script.
pub fn cmd_lint(sql_src: &str) -> Result<String, CliError> {
    let designs = designs_of_script(sql_src)?;
    if designs.is_empty() {
        return Err(CliError::Usage("no CREATE TABLE statements found".into()));
    }
    let mut out = String::new();
    for design in &designs {
        let _ = writeln!(out, "### {}", design.schema().name());
        let _ = writeln!(out, "{design}");
        let _ = write!(out, "{}", lint(design));
        let _ = writeln!(out);
    }
    Ok(out)
}

/// `sqlnf normalize`: DDL of the VRNF decomposition of every table.
pub fn cmd_normalize(sql_src: &str) -> Result<String, CliError> {
    let designs = designs_of_script(sql_src)?;
    if designs.is_empty() {
        return Err(CliError::Usage("no CREATE TABLE statements found".into()));
    }
    let mut out = String::new();
    for design in &designs {
        let _ = writeln!(out, "-- {} --", design.schema().name());
        if design.is_vrnf() == Ok(true) {
            let _ = writeln!(out, "-- already in VRNF; kept as declared");
            let _ = writeln!(
                out,
                "{}\n",
                render_create_table(design.schema(), design.sigma())
            );
            continue;
        }
        match design.normalize() {
            Ok(normalized) => {
                for child in &normalized.children {
                    let _ = writeln!(
                        out,
                        "{}\n",
                        render_create_table(child.schema(), child.sigma())
                    );
                }
            }
            Err(e) => {
                let _ = writeln!(out, "-- cannot normalize: {e}");
                let _ = writeln!(
                    out,
                    "{}\n",
                    render_create_table(design.schema(), design.sigma())
                );
            }
        }
    }
    Ok(out)
}

/// `sqlnf check`: run the script through the engine and report the
/// state, including redundant positions of each loaded instance.
pub fn cmd_check(sql_src: &str) -> Result<String, CliError> {
    let mut db = Database::new();
    db.run_script(sql_src)?;
    let mut out = String::new();
    for name in db.table_names() {
        let stored = db.table(name).expect("listed");
        let table = stored.data();
        let red = sqlnf_core::redundancy::redundant_positions(table, stored.sigma());
        let value_red = red
            .iter()
            .filter(|p| table.rows()[p.row].get(p.col).is_total())
            .count();
        let _ = writeln!(
            out,
            "{name}: {} rows, constraints satisfied ✓, {} redundant positions \
             ({} carrying data values)",
            table.len(),
            red.len(),
            value_red
        );
        for p in red.iter().take(5) {
            let _ = writeln!(
                out,
                "  redundant: row {}, column {} = {}",
                p.row,
                table.schema().column_name(p.col),
                table.rows()[p.row].get(p.col)
            );
        }
        if red.len() > 5 {
            let _ = writeln!(out, "  … and {} more", red.len() - 5);
        }
    }
    Ok(out)
}

/// `sqlnf profile`: statistics of a CSV table.
pub fn cmd_profile(csv_src: &str, name: &str) -> Result<String, CliError> {
    let table = table_from_csv(name, csv_src)?;
    Ok(render_profile(&profile(&table)))
}

/// `sqlnf mine`: discover and classify FDs of a CSV table.
/// `cache_budget` bounds the bytes the level-wise partition cache may
/// hold (see `--cache-budget`); results are identical for any value.
pub fn cmd_mine(
    csv_src: &str,
    name: &str,
    max_lhs: usize,
    opts: &MineOptions,
) -> Result<String, CliError> {
    let table = table_from_csv(name, csv_src)?;
    match opts.incremental {
        None => Ok(match opts.semantics {
            None => mine_report(name, &table, max_lhs, opts.cache_budget),
            Some(sem) => semantics_report(name, &table, sem, max_lhs, opts.cache_budget),
        }),
        Some(every) => {
            // Exercise the delta path: every row is applied as an
            // insert delta, then the report renders off the maintained
            // state. The output is byte-identical to the from-scratch
            // path (and `--incremental=K` asserts exactly that every K
            // deltas).
            let mut m = IncrementalMiner::new(table.schema().clone());
            if every > 0 {
                m = m.with_reconcile_every(every);
            }
            for row in table.rows() {
                m.insert(row.clone());
            }
            Ok(match opts.semantics {
                None => m.report(name, max_lhs, opts.cache_budget),
                Some(sem) => {
                    let fds = m.mine_fds(sem, max_lhs, opts.cache_budget);
                    render_semantics_report(name, table.len(), table.schema(), sem, max_lhs, &fds)
                }
            })
        }
    }
}

/// Parses the `serve` subcommand's flags.
fn parse_serve_config(args: &[String]) -> Result<sqlnf_serve::ServeConfig, CliError> {
    let mut config = sqlnf_serve::ServeConfig::default();
    let mut it = args.iter();
    let need = |flag: &str, v: Option<&String>| -> Result<String, CliError> {
        v.cloned()
            .ok_or_else(|| CliError::Usage(format!("{flag} needs a value\n\n{USAGE}")))
    };
    while let Some(a) = it.next() {
        match a.as_str() {
            "--port" => {
                let v = need("--port", it.next())?;
                let port: u16 = v
                    .parse()
                    .map_err(|_| CliError::Usage(format!("bad --port {v:?}\n\n{USAGE}")))?;
                config.addr = format!("127.0.0.1:{port}");
            }
            "--wal-dir" => {
                config.wal_dir = Some(std::path::PathBuf::from(need("--wal-dir", it.next())?));
            }
            "--workers" => {
                let v = need("--workers", it.next())?;
                config.workers = v
                    .parse()
                    .map_err(|_| CliError::Usage(format!("bad --workers {v:?}\n\n{USAGE}")))?;
            }
            "--snapshot-every" => {
                let v = need("--snapshot-every", it.next())?;
                config.snapshot_every = v.parse().map_err(|_| {
                    CliError::Usage(format!("bad --snapshot-every {v:?}\n\n{USAGE}"))
                })?;
            }
            "--wal-shards" => {
                let v = need("--wal-shards", it.next())?;
                config.wal_shards = match v.parse() {
                    Ok(n) if n >= 1 => n,
                    _ => {
                        return Err(CliError::Usage(format!(
                            "bad --wal-shards {v:?} (want an integer >= 1)\n\n{USAGE}"
                        )))
                    }
                };
            }
            "--commit-window-us" => {
                let v = need("--commit-window-us", it.next())?;
                let us: u64 = v.parse().map_err(|_| {
                    CliError::Usage(format!("bad --commit-window-us {v:?}\n\n{USAGE}"))
                })?;
                config.commit_window = std::time::Duration::from_micros(us);
            }
            "--fsync" => {
                let v = need("--fsync", it.next())?;
                config.fsync = v.parse().map_err(|_| {
                    CliError::Usage(format!("bad --fsync {v:?} (always | batch)\n\n{USAGE}"))
                })?;
            }
            other => {
                return Err(CliError::Usage(format!(
                    "unknown serve flag {other:?}\n\n{USAGE}"
                )))
            }
        }
    }
    Ok(config)
}

/// `sqlnf serve`: run the TCP server until a client sends `SHUTDOWN`.
/// Prints (and flushes) a `listening on <addr>` line immediately so
/// scripts can wait for readiness. Returns the closing line and the
/// store's final counters and spans (for `--stats`).
pub fn cmd_serve(args: &[String]) -> Result<(String, ObsReport), CliError> {
    let config = parse_serve_config(args)?;
    let server = sqlnf_serve::Server::start(config)?;
    {
        use std::io::Write as _;
        let mut out = std::io::stdout();
        let _ = writeln!(out, "listening on {}", server.local_addr());
        let _ = out.flush();
    }
    server.wait_shutdown();
    let store = Arc::clone(server.store());
    server.shutdown()?;
    let served = store.metrics().report();
    let counter = |name: &str| served.counter(name).unwrap_or(0);
    let text = format!(
        "server stopped ({} sessions, {} statements admitted)",
        counter("serve.sessions"),
        counter("serve.stmt.admitted")
    );
    Ok((text, served))
}

/// `sqlnf client`: run a scripted session. Lines may mix SQL
/// statements (accumulated to their terminating `;`) and service
/// verbs; each request's reply is echoed.
pub fn cmd_client(addr: &str, script: &str) -> Result<String, CliError> {
    use sqlnf_serve::protocol::{is_verb_line, statement_complete};
    let mut client = sqlnf_serve::Client::connect(addr)?;
    let mut out = String::new();
    let mut echo = |reply: sqlnf_serve::Reply| {
        let _ = writeln!(
            out,
            "{} {}",
            if reply.ok { "OK" } else { "ERR" },
            reply.message
        );
        for line in &reply.lines {
            let _ = writeln!(out, "{line}");
        }
    };
    let mut buf = String::new();
    let mut closed = false;
    for line in script.lines() {
        if buf.trim().is_empty() && is_verb_line(line) {
            let upper = line.trim().to_ascii_uppercase();
            echo(client.request(line)?);
            if upper == "QUIT" || upper == "SHUTDOWN" {
                closed = true;
                break;
            }
            continue;
        }
        buf.push_str(line);
        buf.push('\n');
        if statement_complete(&buf) {
            echo(client.request(&buf)?);
            buf.clear();
        }
    }
    if !buf.trim().is_empty() {
        return Err(CliError::Usage(
            "script ends with an unterminated statement".into(),
        ));
    }
    if !closed {
        client.quit()?;
    }
    Ok(out)
}

/// `sqlnf client --watch [table]`: subscribe and stream discovery
/// events to stdout as they arrive, until the server closes the
/// session (or the process is interrupted).
pub fn cmd_client_watch(addr: &str, table: Option<&str>, weak: bool) -> Result<String, CliError> {
    use sqlnf_serve::{ClientError, StreamItem};
    let mut client = sqlnf_serve::Client::connect(addr)?;
    let reply = if weak {
        client.watch_weak(table)?
    } else {
        client.watch(table)?
    };
    println!("OK {}", reply.message);
    loop {
        match client.next_event() {
            Ok(Some(StreamItem::Event(ev))) => println!("{}", ev.line()),
            Ok(Some(StreamItem::Lagged(n))) => println!("LAGGED {n}"),
            Ok(None) => continue, // idle poll; keep streaming
            Err(ClientError::ServerClosed) => return Ok(String::new()),
            Err(e) => return Err(e.into()),
        }
    }
}

/// `sqlnf client --metrics`: one-shot METRICS scrape, raw exposition.
pub fn cmd_client_metrics(addr: &str) -> Result<String, CliError> {
    let mut client = sqlnf_serve::Client::connect(addr)?;
    let text = client.metrics()?;
    client.quit()?;
    Ok(text)
}

/// Pivots one exposition scrape into the `top` table: per verb, the
/// lifetime request count, p50/p99 latency, and the rate against the
/// previous scrape's counts. Returns the rendered frame and this
/// scrape's counts (the next frame's baseline).
fn top_frame(
    samples: &[sqlnf_serve::Sample],
    prev: &std::collections::BTreeMap<String, f64>,
    dt_secs: f64,
) -> (String, std::collections::BTreeMap<String, f64>) {
    // (count, p50_ns, p99_ns) per verb label.
    let mut verbs: std::collections::BTreeMap<String, (f64, f64, f64)> =
        std::collections::BTreeMap::new();
    for s in samples {
        let Some(name) = s.label("name") else {
            continue;
        };
        let Some(verb) = name.strip_prefix("serve.verb.") else {
            continue;
        };
        let entry = verbs.entry(verb.to_owned()).or_default();
        match s.name.as_str() {
            "sqlnf_span_count" => entry.0 = s.value,
            "sqlnf_span_p50_ns" => entry.1 = s.value,
            "sqlnf_span_p99_ns" => entry.2 = s.value,
            _ => {}
        }
    }
    let fmt_ns = |ns: f64| -> String {
        if ns < 1e3 {
            format!("{ns:.0}ns")
        } else if ns < 1e6 {
            format!("{:.1}µs", ns / 1e3)
        } else if ns < 1e9 {
            format!("{:.1}ms", ns / 1e6)
        } else {
            format!("{:.2}s", ns / 1e9)
        }
    };
    // Every verb's span is exposed from server start; list the ones
    // that have served a request.
    verbs.retain(|_, &mut (count, _, _)| count > 0.0);
    let mut out = String::new();
    let mut counts = std::collections::BTreeMap::new();
    let _ = writeln!(
        out,
        "{:<12} {:>10} {:>10} {:>10} {:>10}",
        "verb", "requests", "p50", "p99", "req/s"
    );
    for (verb, (count, p50, p99)) in &verbs {
        let rate = match prev.get(verb) {
            Some(prev_count) if dt_secs > 0.0 => (count - prev_count).max(0.0) / dt_secs,
            _ => 0.0,
        };
        let _ = writeln!(
            out,
            "{verb:<12} {count:>10.0} {:>10} {:>10} {rate:>10.1}",
            fmt_ns(*p50),
            fmt_ns(*p99),
        );
        counts.insert(verb.clone(), *count);
    }
    // Group-commit health: how many frames each fsync amortizes. The
    // batch-size histogram reuses the span plumbing, so its "ns" values
    // are plain frame counts.
    let commit = |metric: &str| {
        samples
            .iter()
            .find(|s| s.name == metric && s.label("name") == Some("serve.commit.batch_size"))
            .map(|s| s.value)
    };
    if let (Some(batches), Some(p50), Some(p99)) = (
        commit("sqlnf_span_count"),
        commit("sqlnf_span_p50_ns"),
        commit("sqlnf_span_p99_ns"),
    ) {
        if batches > 0.0 {
            let _ = writeln!(
                out,
                "commit batches {batches:.0}  size p50 {p50:.0}  p99 {p99:.0}"
            );
        }
    }
    // Incremental-discovery health (the WATCH hub's shadow miners):
    // deltas applied, candidate FDs/keys re-examined, audit re-mines,
    // and the high-water candidate frontier.
    let incr = |name: &str| {
        samples
            .iter()
            .find(|s| s.name == "sqlnf_counter" && s.label("name") == Some(name))
            .map(|s| s.value)
    };
    if let Some(deltas) = incr("discovery.incr.deltas") {
        if deltas > 0.0 {
            let _ = writeln!(
                out,
                "incr deltas {deltas:.0}  touched {:.0}  reconciles {:.0}  frontier {:.0}",
                incr("discovery.incr.candidates_touched").unwrap_or(0.0),
                incr("discovery.incr.reconciles").unwrap_or(0.0),
                incr("discovery.incr.frontier_size").unwrap_or(0.0),
            );
        }
    }
    (out, counts)
}

/// `sqlnf top`: poll `METRICS` and render a live per-verb table.
/// `--samples N` stops after N frames (0 = forever, the default —
/// frames print as they arrive); the final frame is also returned so
/// scripted callers get the table on stdout exactly once.
pub fn cmd_top(addr: &str, args: &[String]) -> Result<String, CliError> {
    let mut interval = std::time::Duration::from_millis(1000);
    let mut frames = 0usize;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let need = |flag: &str, v: Option<&String>| -> Result<String, CliError> {
            v.cloned()
                .ok_or_else(|| CliError::Usage(format!("{flag} needs a value\n\n{USAGE}")))
        };
        match a.as_str() {
            "--interval" => {
                let v = need("--interval", it.next())?;
                let ms: u64 = v
                    .parse()
                    .map_err(|_| CliError::Usage(format!("bad --interval {v:?}\n\n{USAGE}")))?;
                interval = std::time::Duration::from_millis(ms);
            }
            "--samples" => {
                let v = need("--samples", it.next())?;
                frames = v
                    .parse()
                    .map_err(|_| CliError::Usage(format!("bad --samples {v:?}\n\n{USAGE}")))?;
            }
            other => {
                return Err(CliError::Usage(format!(
                    "unknown top flag {other:?}\n\n{USAGE}"
                )))
            }
        }
    }
    let mut client = sqlnf_serve::Client::connect(addr)?;
    let mut prev = std::collections::BTreeMap::new();
    let mut last = std::time::Instant::now();
    let mut frame_no = 0usize;
    loop {
        let text = client.metrics()?;
        let samples = sqlnf_serve::parse_exposition(&text)
            .map_err(|e| CliError::Client(sqlnf_serve::ClientError::Protocol(e)))?;
        let dt = last.elapsed().as_secs_f64();
        last = std::time::Instant::now();
        let (frame, counts) = top_frame(&samples, &prev, dt);
        prev = counts;
        frame_no += 1;
        let done = frames != 0 && frame_no >= frames;
        if done {
            let _ = client.quit();
            return Ok(frame);
        }
        {
            use std::io::Write as _;
            let mut stdout = std::io::stdout();
            let _ = writeln!(stdout, "{frame}");
            let _ = stdout.flush();
        }
        std::thread::sleep(interval);
    }
}

/// Parses the `harness` subcommand's flags: the seed set plus the
/// workload and fault knobs.
fn parse_harness_args(
    args: &[String],
) -> Result<(Vec<u64>, sqlnf_harness::HarnessConfig), CliError> {
    let mut seeds: Vec<u64> = vec![1];
    let mut config = sqlnf_harness::HarnessConfig::default();
    let mut it = args.iter();
    let need = |flag: &str, v: Option<&String>| -> Result<String, CliError> {
        v.cloned()
            .ok_or_else(|| CliError::Usage(format!("{flag} needs a value\n\n{USAGE}")))
    };
    while let Some(a) = it.next() {
        match a.as_str() {
            "--seed" => {
                let v = need("--seed", it.next())?;
                let bad = || CliError::Usage(format!("bad --seed {v:?} (N or A..=B)\n\n{USAGE}"));
                seeds = if let Some((a, b)) = v.split_once("..=") {
                    let lo: u64 = a.trim().parse().map_err(|_| bad())?;
                    let hi: u64 = b.trim().parse().map_err(|_| bad())?;
                    if lo > hi {
                        return Err(bad());
                    }
                    (lo..=hi).collect()
                } else {
                    vec![v.trim().parse().map_err(|_| bad())?]
                };
            }
            "--ops" => {
                let v = need("--ops", it.next())?;
                config.ops = v
                    .parse()
                    .map_err(|_| CliError::Usage(format!("bad --ops {v:?}\n\n{USAGE}")))?;
            }
            "--clients" => {
                let v = need("--clients", it.next())?;
                config.clients = v
                    .parse()
                    .map_err(|_| CliError::Usage(format!("bad --clients {v:?}\n\n{USAGE}")))?;
            }
            "--kill-prob" => {
                let v = need("--kill-prob", it.next())?;
                config.kill_prob = v
                    .parse()
                    .map_err(|_| CliError::Usage(format!("bad --kill-prob {v:?}\n\n{USAGE}")))?;
            }
            "--corrupt-prob" => {
                let v = need("--corrupt-prob", it.next())?;
                config.corrupt_prob = v
                    .parse()
                    .map_err(|_| CliError::Usage(format!("bad --corrupt-prob {v:?}\n\n{USAGE}")))?;
            }
            "--wal-shards" => {
                let v = need("--wal-shards", it.next())?;
                config.wal_shards = match v.parse() {
                    Ok(n) if n >= 1 => n,
                    _ => {
                        return Err(CliError::Usage(format!(
                            "bad --wal-shards {v:?} (want an integer >= 1)\n\n{USAGE}"
                        )))
                    }
                };
            }
            "--commit-window-us" => {
                let v = need("--commit-window-us", it.next())?;
                config.commit_window_us = v.parse().map_err(|_| {
                    CliError::Usage(format!("bad --commit-window-us {v:?}\n\n{USAGE}"))
                })?;
            }
            "--fsync" => {
                let v = need("--fsync", it.next())?;
                config.fsync = v.parse().map_err(|_| {
                    CliError::Usage(format!("bad --fsync {v:?} (always | batch)\n\n{USAGE}"))
                })?;
            }
            "--watch" => config.watch = true,
            other => {
                return Err(CliError::Usage(format!(
                    "unknown harness flag {other:?}\n\n{USAGE}"
                )))
            }
        }
    }
    Ok((seeds, config))
}

/// `sqlnf harness`: run the seeded fault-injection + differential
/// harness over one seed or a seed range. A failing seed aborts the
/// sweep with a minimized, replayable `(seed, ops)` pair. Returns the
/// summary and the runs' store counters and spans (for `--stats`).
pub fn cmd_harness(args: &[String]) -> Result<(String, ObsReport), CliError> {
    let (seeds, base) = parse_harness_args(args)?;
    let mut out = String::new();
    let mut served = ObsReport::default();
    let mut admitted = 0usize;
    let mut oracle_queries = 0usize;
    for seed in &seeds {
        let mut config = base.clone();
        config.seed = *seed;
        let report = sqlnf_harness::run_minimized(&config)?;
        admitted += report.admitted;
        oracle_queries += report.minecheck.oracle_queries;
        let _ = writeln!(out, "{}", report.line());
        served.absorb(report.served);
    }
    let _ = writeln!(
        out,
        "{} seed{} passed ({admitted} statements admitted, {oracle_queries} oracle queries)",
        seeds.len(),
        if seeds.len() == 1 { "" } else { "s" },
    );
    Ok((out, served))
}

/// `sqlnf dataset`: emit one of the evaluation datasets as CSV.
pub fn cmd_dataset(name: &str, seed: u64) -> Result<String, CliError> {
    let table = match name {
        "contact" => sqlnf_datagen::contact::contact_full(seed),
        "contractor" => sqlnf_datagen::contractor::contractor(seed),
        "fig7" => sqlnf_datagen::contact::fig7_snippet(),
        "purchase" => sqlnf_datagen::paper::purchase_fig5(),
        other => {
            return Err(CliError::Usage(format!(
                "unknown dataset {other:?} (contact | contractor | fig7 | purchase)"
            )))
        }
    };
    Ok(table_to_csv(&table))
}

/// Observability flags accepted by every subcommand.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ObsOptions {
    /// `--stats`: print the report to stderr after the command.
    pub stats: bool,
    /// `--stats-json <path>`: write the report (plus any command
    /// payload, e.g. the table profile) as a JSON document.
    pub stats_json: Option<String>,
    /// `--trace`: echo the reasoner/miner trace to stderr as it runs.
    pub trace: bool,
}

impl ObsOptions {
    /// Whether a report must be captured after the command runs.
    pub fn wants_report(&self) -> bool {
        self.stats || self.stats_json.is_some()
    }
}

/// Mining knobs accepted in any position (used by `mine`; ignored by
/// other subcommands).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MineOptions {
    /// `--cache-budget <bytes>`: byte budget of the miner's level-wise
    /// partition cache. Results are identical for any value.
    pub cache_budget: usize,
    /// `--incremental[=K]`: route `mine` through the incremental
    /// engine, applying every row as a delta. `Some(0)` never audits;
    /// `Some(k)` re-mines from scratch and asserts equivalence every
    /// `k` deltas. Output is byte-identical either way.
    pub incremental: Option<u64>,
    /// `--semantics <tok>`: mine under one named semantics
    /// (classical | possible | certain | weak) instead of the default
    /// combined possible/certain classification.
    pub semantics: Option<Semantics>,
}

impl Default for MineOptions {
    fn default() -> Self {
        MineOptions {
            cache_budget: DEFAULT_CACHE_BUDGET,
            incremental: None,
            semantics: None,
        }
    }
}

/// Parses a byte count with optional binary `k`/`m`/`g` suffix.
fn parse_budget(s: &str) -> Option<usize> {
    let t = s.trim().to_ascii_lowercase();
    let (digits, mult) = if let Some(d) = t.strip_suffix('k') {
        (d, 1usize << 10)
    } else if let Some(d) = t.strip_suffix('m') {
        (d, 1 << 20)
    } else if let Some(d) = t.strip_suffix('g') {
        (d, 1 << 30)
    } else {
        (t.as_str(), 1)
    };
    digits
        .parse::<usize>()
        .ok()
        .and_then(|n| n.checked_mul(mult))
}

/// Strips the mining flags out of an argv, in any position.
pub fn split_mine_args(args: &[String]) -> Result<(Vec<String>, MineOptions), CliError> {
    let mut rest = Vec::new();
    let mut opts = MineOptions::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--cache-budget" {
            let v = it.next().ok_or_else(|| {
                CliError::Usage(format!("--cache-budget needs a byte count\n\n{USAGE}"))
            })?;
            opts.cache_budget = parse_budget(v)
                .ok_or_else(|| CliError::Usage(format!("bad --cache-budget {v:?}\n\n{USAGE}")))?;
        } else if a == "--incremental" {
            opts.incremental = Some(0);
        } else if let Some(k) = a.strip_prefix("--incremental=") {
            let k: u64 = k
                .parse()
                .map_err(|_| CliError::Usage(format!("bad --incremental {k:?}\n\n{USAGE}")))?;
            opts.incremental = Some(k);
        } else if a == "--semantics" {
            let v = it
                .next()
                .ok_or_else(|| CliError::Usage(format!("--semantics needs a token\n\n{USAGE}")))?;
            opts.semantics = Some(
                Semantics::parse(v)
                    .ok_or_else(|| CliError::Usage(format!("bad --semantics {v:?}\n\n{USAGE}")))?,
            );
        } else {
            rest.push(a.clone());
        }
    }
    Ok((rest, opts))
}

/// Strips the observability flags out of an argv, in any position.
pub fn split_obs_args(args: &[String]) -> Result<(Vec<String>, ObsOptions), CliError> {
    let mut rest = Vec::new();
    let mut opts = ObsOptions::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--stats" => opts.stats = true,
            "--trace" => opts.trace = true,
            "--stats-json" => {
                let path = it.next().ok_or_else(|| {
                    CliError::Usage(format!("--stats-json needs a path\n\n{USAGE}"))
                })?;
                opts.stats_json = Some(path.clone());
            }
            _ => rest.push(a.clone()),
        }
    }
    Ok((rest, opts))
}

/// Dispatches the flag-free argv. The second component is an optional
/// command payload merged into the `--stats-json` document (the profile
/// subcommand exports its statistics there). A command that runs
/// servers leaves their stores' counters and spans in `served`.
fn dispatch(
    args: &[String],
    mine: &MineOptions,
    served: &mut ObsReport,
) -> Result<(String, Option<JsonValue>), CliError> {
    let read = |path: &str| -> Result<String, CliError> { Ok(std::fs::read_to_string(path)?) };
    let base_name = |path: &str| -> String {
        std::path::Path::new(path)
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| "table".to_owned())
    };
    match args {
        [cmd, file] if cmd == "lint" => Ok((cmd_lint(&read(file)?)?, None)),
        [cmd, file] if cmd == "normalize" => Ok((cmd_normalize(&read(file)?)?, None)),
        [cmd, file] if cmd == "check" => Ok((cmd_check(&read(file)?)?, None)),
        [cmd, file] if cmd == "profile" => {
            let table = table_from_csv(&base_name(file), &read(file)?)?;
            let p = profile(&table);
            Ok((render_profile(&p), Some(profile_to_json(&p))))
        }
        [cmd, file] if cmd == "mine" => {
            Ok((cmd_mine(&read(file)?, &base_name(file), 3, mine)?, None))
        }
        [cmd, file, cap] if cmd == "mine" => {
            let cap: usize = cap
                .parse()
                .map_err(|_| CliError::Usage(format!("bad max_lhs {cap:?}\n\n{USAGE}")))?;
            Ok((cmd_mine(&read(file)?, &base_name(file), cap, mine)?, None))
        }
        [cmd, rest @ ..] if cmd == "serve" || cmd == "harness" => {
            let (text, report) = match cmd.as_str() {
                "serve" => cmd_serve(rest)?,
                _ => cmd_harness(rest)?,
            };
            *served = report;
            Ok((text, None))
        }
        [cmd, addr] if cmd == "client" => {
            let mut script = String::new();
            std::io::Read::read_to_string(&mut std::io::stdin(), &mut script)?;
            Ok((cmd_client(addr, &script)?, None))
        }
        [cmd, addr, flag] if cmd == "client" && flag == "--metrics" => {
            Ok((cmd_client_metrics(addr)?, None))
        }
        [cmd, addr, flag] if cmd == "client" && flag == "--watch" => {
            Ok((cmd_client_watch(addr, None, false)?, None))
        }
        [cmd, addr, flag, table] if cmd == "client" && flag == "--watch" => {
            // `--watch weak` opts into the weak plane on all tables.
            let (table, weak) = match table.as_str() {
                "weak" => (None, true),
                t => (Some(t), false),
            };
            Ok((cmd_client_watch(addr, table, weak)?, None))
        }
        [cmd, addr, flag, table, sem] if cmd == "client" && flag == "--watch" && sem == "weak" => {
            Ok((cmd_client_watch(addr, Some(table), true)?, None))
        }
        [cmd, addr, file] if cmd == "client" => Ok((cmd_client(addr, &read(file)?)?, None)),
        [cmd, addr, rest @ ..] if cmd == "top" => Ok((cmd_top(addr, rest)?, None)),
        [cmd, name] if cmd == "dataset" => Ok((cmd_dataset(name, 20_160_626)?, None)),
        [cmd, name, seed] if cmd == "dataset" => {
            let seed: u64 = seed
                .parse()
                .map_err(|_| CliError::Usage(format!("bad seed {seed:?}\n\n{USAGE}")))?;
            Ok((cmd_dataset(name, seed)?, None))
        }
        _ => Err(CliError::Usage(USAGE.to_owned())),
    }
}

/// Dispatches a full argv (excluding the program name). Returns the
/// text to print on success; the observability flags report via stderr
/// and `--stats-json` side files.
pub fn run(args: &[String]) -> Result<String, CliError> {
    let (rest, obs) = split_obs_args(args)?;
    let (rest, mine) = split_mine_args(&rest)?;
    if obs.wants_report() {
        // Scope the report to this command (run() may be called several
        // times in one process, e.g. from tests).
        sqlnf_obs::reset();
    }
    sqlnf_obs::set_trace(obs.trace);
    let mut served = ObsReport::default();
    let outcome = dispatch(&rest, &mine, &mut served);
    sqlnf_obs::set_trace(false);
    let (text, payload) = outcome?;
    if obs.wants_report() {
        let mut report = sqlnf_obs::report();
        report.absorb(served);
        if obs.stats {
            if sqlnf_obs::ENABLED {
                eprint!("{}", report.render());
            } else {
                eprintln!("(observability disabled at compile time; enable the `obs` feature)");
            }
        }
        if let Some(path) = &obs.stats_json {
            let mut doc = vec![(
                "command".to_string(),
                JsonValue::Str(rest.first().cloned().unwrap_or_default()),
            )];
            if let JsonValue::Object(fields) = report.to_json_value() {
                doc.extend(fields);
            }
            if let Some(payload) = payload {
                doc.push(("profile".to_string(), payload));
            }
            std::fs::write(path, JsonValue::Object(doc).to_json())?;
        }
    }
    Ok(text)
}

#[cfg(test)]
mod tests {
    use super::*;

    const DDL: &str = "
        CREATE TABLE purchase (
            order_id INT NOT NULL,
            item     TEXT NOT NULL,
            catalog  TEXT,
            price    INT NOT NULL,
            CONSTRAINT line CERTAIN FD (order_id, item, catalog)
                                      -> (order_id, item, catalog, price)
        );
    ";

    #[test]
    fn lint_reports_value_redundancy() {
        let out = cmd_lint(DDL).unwrap();
        assert!(out.contains("purchase"));
        assert!(out.contains("VALUE-REDUNDANCY"));
        assert!(out.contains("witness instance"));
    }

    #[test]
    fn normalize_emits_two_tables() {
        let out = cmd_normalize(DDL).unwrap();
        assert_eq!(out.matches("CREATE TABLE").count(), 2);
        assert!(out.contains("CERTAIN KEY (order_id, item, catalog)"));
        // The emitted DDL parses back.
        let stmts = parse_script(&out).unwrap();
        assert_eq!(stmts.len(), 2);
    }

    #[test]
    fn normalize_keeps_vrnf_tables() {
        let ddl = "CREATE TABLE ok (a INT NOT NULL, b TEXT, \
                   CONSTRAINT k CERTAIN KEY (a));";
        let out = cmd_normalize(ddl).unwrap();
        assert!(out.contains("already in VRNF"));
        assert_eq!(out.matches("CREATE TABLE").count(), 1);
    }

    #[test]
    fn check_finds_redundancy_in_data() {
        let script = format!(
            "{DDL}\nINSERT INTO purchase VALUES \
             (1, 'Fitbit Surge', NULL, 240), (1, 'Fitbit Surge', NULL, 240);"
        );
        let out = cmd_check(&script).unwrap();
        assert!(out.contains("2 rows"));
        assert!(out.contains("redundant"));
    }

    #[test]
    fn profile_and_mine_from_csv() {
        let csv = "city,state\nColumbia,48\nColumbia,48\nCarmel,20\n";
        let prof = cmd_profile(csv, "contacts").unwrap();
        assert!(prof.contains("contacts"));
        assert!(prof.contains("city"));
        let mined = cmd_mine(csv, "contacts", 2, &MineOptions::default()).unwrap();
        assert!(mined.contains("nn-FD"));
        assert!(mined.contains("{city}"));
        // A zero cache budget changes nothing but throughput, and the
        // incremental engine (auditing on every delta) is byte-
        // identical to the from-scratch path.
        let zero = MineOptions {
            cache_budget: 0,
            ..MineOptions::default()
        };
        assert_eq!(mined, cmd_mine(csv, "contacts", 2, &zero).unwrap());
        let incr = MineOptions {
            incremental: Some(1),
            ..MineOptions::default()
        };
        assert_eq!(mined, cmd_mine(csv, "contacts", 2, &incr).unwrap());
    }

    #[test]
    fn mine_with_semantics_flag_lists_one_plane() {
        let csv = "city,state\nColumbia,48\nColumbia,\nCarmel,20\n";
        let weak = MineOptions {
            semantics: Some(Semantics::Weak),
            ..MineOptions::default()
        };
        let report = cmd_mine(csv, "contacts", 2, &weak).unwrap();
        assert!(report.contains("weak semantics"), "{report}");
        // The null on (Columbia, ⊥) completes to 48, so city weakly
        // determines state; certain semantics refuses the same FD.
        assert!(report.contains("{city} -> {state}"), "{report}");
        let certain = MineOptions {
            semantics: Some(Semantics::Certain),
            ..MineOptions::default()
        };
        let report_c = cmd_mine(csv, "contacts", 2, &certain).unwrap();
        assert!(!report_c.contains("{city} -> {state}"), "{report_c}");
        // The incremental engine renders the same bytes for every
        // semantics token.
        for sem in Semantics::ALL {
            let scratch = MineOptions {
                semantics: Some(sem),
                ..MineOptions::default()
            };
            let incr = MineOptions {
                incremental: Some(1),
                ..scratch
            };
            assert_eq!(
                cmd_mine(csv, "contacts", 2, &scratch).unwrap(),
                cmd_mine(csv, "contacts", 2, &incr).unwrap()
            );
        }
        // Flag parsing: stripped from argv, bad tokens are usage errors.
        let argv: Vec<String> = ["mine", "x.csv", "--semantics", "WEAK", "2"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let (rest, opts) = split_mine_args(&argv).unwrap();
        assert_eq!(rest, vec!["mine", "x.csv", "2"]);
        assert_eq!(opts.semantics, Some(Semantics::Weak));
        let bad: Vec<String> = ["mine", "x.csv", "--semantics", "fuzzy"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert!(matches!(split_mine_args(&bad), Err(CliError::Usage(_))));
    }

    #[test]
    fn cache_budget_flag_is_parsed_and_stripped() {
        let argv: Vec<String> = ["mine", "x.csv", "--cache-budget", "8m", "2"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let (rest, opts) = split_mine_args(&argv).unwrap();
        assert_eq!(rest, vec!["mine", "x.csv", "2"]);
        assert_eq!(opts.cache_budget, 8 << 20);
        assert_eq!(parse_budget("0"), Some(0));
        assert_eq!(parse_budget("512k"), Some(512 << 10));
        assert_eq!(parse_budget("1g"), Some(1 << 30));
        assert_eq!(parse_budget("64"), Some(64));
        assert_eq!(parse_budget("x"), None);
        // Dangling or malformed values are usage errors.
        let bad: Vec<String> = ["mine", "--cache-budget"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert!(matches!(split_mine_args(&bad), Err(CliError::Usage(_))));
        let bad2: Vec<String> = ["mine", "--cache-budget", "lots"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert!(matches!(split_mine_args(&bad2), Err(CliError::Usage(_))));
    }

    #[test]
    fn run_dispatch_and_usage() {
        let err = run(&["bogus".to_owned()]).unwrap_err();
        assert!(matches!(err, CliError::Usage(_)));
        assert!(err.to_string().contains("USAGE"));
        let err2 = run(&["mine".to_owned(), "/nonexistent.csv".to_owned()]).unwrap_err();
        assert!(matches!(err2, CliError::Io(_)));
    }

    #[test]
    fn obs_flags_are_stripped_anywhere() {
        let argv: Vec<String> = [
            "--trace",
            "mine",
            "x.csv",
            "--stats-json",
            "out.json",
            "2",
            "--stats",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let (rest, obs) = split_obs_args(&argv).unwrap();
        assert_eq!(rest, vec!["mine", "x.csv", "2"]);
        assert_eq!(
            obs,
            ObsOptions {
                stats: true,
                stats_json: Some("out.json".to_owned()),
                trace: true,
            }
        );
        assert!(obs.wants_report());
        assert!(!ObsOptions::default().wants_report());
        // A dangling --stats-json is a usage error.
        let bad: Vec<String> = ["mine", "x.csv", "--stats-json"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert!(matches!(split_obs_args(&bad), Err(CliError::Usage(_))));
    }

    #[test]
    fn serve_flags_are_validated() {
        let argv =
            |flags: &[&str]| -> Vec<String> { flags.iter().map(|s| s.to_string()).collect() };
        assert!(matches!(
            cmd_serve(&argv(&["--port", "notaport"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            cmd_serve(&argv(&["--bogus"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            cmd_serve(&argv(&["--wal-dir"])),
            Err(CliError::Usage(_))
        ));
        // The group-commit knobs refuse malformed values.
        assert!(matches!(
            cmd_serve(&argv(&["--wal-shards", "0"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            cmd_serve(&argv(&["--wal-shards", "four"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            cmd_serve(&argv(&["--commit-window-us", "-3"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            cmd_serve(&argv(&["--fsync", "sometimes"])),
            Err(CliError::Usage(_))
        ));
        // And accept well-formed ones.
        let config = parse_serve_config(&argv(&[
            "--wal-shards",
            "4",
            "--commit-window-us",
            "200",
            "--fsync",
            "always",
        ]))
        .unwrap();
        assert_eq!(config.wal_shards, 4);
        assert_eq!(config.commit_window, std::time::Duration::from_micros(200));
        assert_eq!(config.fsync, sqlnf_serve::FsyncMode::Always);
    }

    #[test]
    fn harness_flags_are_validated() {
        let argv =
            |flags: &[&str]| -> Vec<String> { flags.iter().map(|s| s.to_string()).collect() };
        let (seeds, config) = parse_harness_args(&argv(&[
            "--seed",
            "2..=4",
            "--wal-shards",
            "4",
            "--commit-window-us",
            "200",
            "--fsync",
            "batch",
            "--watch",
        ]))
        .unwrap();
        assert_eq!(seeds, vec![2, 3, 4]);
        assert_eq!(config.wal_shards, 4);
        assert_eq!(config.commit_window_us, 200);
        assert_eq!(config.fsync, sqlnf_serve::FsyncMode::Batch);
        assert!(config.watch);
        for bad in [
            &["--wal-shards", "0"][..],
            &["--commit-window-us", "soon"],
            &["--fsync", "never"],
            &["--fsync"],
        ] {
            assert!(
                matches!(parse_harness_args(&argv(bad)), Err(CliError::Usage(_))),
                "{bad:?}"
            );
        }
    }

    #[test]
    fn client_runs_a_scripted_session() {
        let server = sqlnf_serve::Server::start(sqlnf_serve::ServeConfig::default()).unwrap();
        let addr = server.local_addr().to_string();
        let script = "\
CREATE TABLE t (
    a INT NOT NULL,
    CONSTRAINT k CERTAIN KEY (a)
);
INSERT INTO t VALUES (1);
INSERT INTO t VALUES (1);
STATS
QUIT
";
        let out = cmd_client(&addr, script).unwrap();
        assert!(out.contains("OK applied 1 statement"), "{out}");
        assert!(out.contains("ERR"), "{out}");
        assert!(out.contains("stmt.admitted 2"), "{out}");
        assert!(out.contains("stmt.rejected 1"), "{out}");
        server.shutdown().unwrap();
    }

    #[test]
    fn top_and_metrics_scrape_a_live_server() {
        let server = sqlnf_serve::Server::start(sqlnf_serve::ServeConfig::default()).unwrap();
        let addr = server.local_addr().to_string();
        let script = "\
CREATE TABLE t (
    a INT NOT NULL,
    CONSTRAINT k CERTAIN KEY (a)
);
INSERT INTO t VALUES (1);
QUIT
";
        cmd_client(&addr, script).unwrap();
        // One-shot scrape: must parse as an exposition and carry the
        // store counters.
        let text = cmd_client_metrics(&addr).unwrap();
        let samples = sqlnf_serve::parse_exposition(&text).unwrap();
        assert!(samples
            .iter()
            .any(|s| s.name == "sqlnf_store" && s.label("name") == Some("stmt.admitted")));
        // One `top` frame over the same exposition.
        let frame = cmd_top(&addr, &["--samples".to_owned(), "1".to_owned()]).unwrap();
        assert!(frame.contains("verb"), "{frame}");
        assert!(frame.contains("sql"), "{frame}");
        assert!(
            !frame.contains("closure"),
            "unused verbs are not listed: {frame}"
        );
        // Flag validation.
        assert!(matches!(
            cmd_top(&addr, &["--samples".to_owned(), "x".to_owned()]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            cmd_top(&addr, &["--bogus".to_owned()]),
            Err(CliError::Usage(_))
        ));
        server.shutdown().unwrap();
    }

    #[test]
    fn dataset_emits_loadable_csv() {
        let csv = cmd_dataset("contractor", 1).unwrap();
        let table = table_from_csv("contractor", &csv).unwrap();
        assert_eq!(table.len(), 173);
        assert_eq!(table.schema().arity(), 22);
        // Full pipeline: the emitted dataset mines like the original.
        let out = cmd_mine(&csv, "contractor", 2, &MineOptions::default()).unwrap();
        assert!(out.contains("minimal FDs"));
        assert!(matches!(cmd_dataset("bogus", 1), Err(CliError::Usage(_))));
    }

    #[test]
    fn run_end_to_end_via_tempfiles() {
        let dir = std::env::temp_dir().join("sqlnf_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let sql_path = dir.join("p.sql");
        std::fs::write(&sql_path, DDL).unwrap();
        let out = run(&["lint".to_owned(), sql_path.display().to_string()]).unwrap();
        assert!(out.contains("purchase"));
        let csv_path = dir.join("c.csv");
        std::fs::write(&csv_path, "a,b\n1,2\n1,2\n").unwrap();
        let out2 = run(&[
            "mine".to_owned(),
            csv_path.display().to_string(),
            "2".to_owned(),
            "--cache-budget".to_owned(),
            "1m".to_owned(),
        ])
        .unwrap();
        assert!(out2.contains("minimal FDs"));
    }
}
