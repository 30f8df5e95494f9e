//! `watch`: writes at a fixed rate next to a `WATCH` subscriber, open
//! loop.
//!
//! A `feed` table holds adult-like rows and grows by one row per feed
//! statement; each probe statement adds a second row to a one-row probe
//! table, refuting `a -> b` and the key on `a`, so every probe must
//! produce `EVENT`s. Latency runs from the probe's due time to the first
//! event for its table: commit, the hub's incremental re-mining, and
//! the subscriber flush. Discovery runs incrementally here, where the
//! `mine_*` workloads run it from scratch, and the write path runs at a
//! low rate, where `ingest` saturates it.

use crate::child::{self, ServerChild};
use crate::data::{self, BASE_SEED};
use crate::layers::{self, Replay, ServerSide};
use crate::load;
use crate::speed::{self, Speed};
use crate::stats::{median, Summary};
use crate::{metric, repeated_setup, scrape::Scrape, trace, Outcome, Run};
use sqlnf_datagen::naumann::adult_like;
use sqlnf_model::prelude::*;
use sqlnf_obs::json::JsonValue;
use sqlnf_serve::{table_facts, Client, StreamItem, WatchEvent, WATCH_MAX_LHS};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Offered load in statements per second, as a Poisson process: the
/// writes of independent users, whose arrival times bear no relation
/// to the server's 100 ms session poll.
const RATE: f64 = 250.0;

/// One statement in this many is a probe; the rest are feed rows.
const PROBE_EVERY: usize = 5;

/// Rows of the feed table loaded in set-up. At this size a few feed
/// inserts, the same for every seed, cost the hub a re-mine of a
/// quarter of a second, so the event tail depends on whether probes
/// queue behind them; the tail is reported, not gated.
const FEED_ROWS: usize = 16_384;

/// Read timeout of the subscriber: how often its reader checks whether
/// the run is over, and how long a `WATCH` reply may take.
const WATCHER_TIMEOUT: Duration = Duration::from_millis(500);

/// A probe whose first event arrives later than this counts as lost.
const EVENT_DEADLINE: Duration = Duration::from_secs(5);

/// The longest set-up waits for the warm probe's event.
const SETUP_DEADLINE: Duration = Duration::from_secs(120);

/// The probe table set-up writes to, to know when the hub is ready.
const WARM_PROBE: &str = "probe_warm";

fn probe_ddl(name: &str) -> String {
    format!("CREATE TABLE {name} (a INT NOT NULL, b INT);")
}

fn probe_row(name: &str, a: usize, b: u8) -> String {
    format!("INSERT INTO {name} VALUES ({a}, {b});")
}

/// The events a probe's second row must produce, in stream order.
fn expected_probe_events() -> Vec<String> {
    let schema = TableSchema::new("p", ["a", "b"], &["a"]);
    let one = Table::from_rows(
        schema.clone(),
        [Tuple::new(vec![Value::Int(7), Value::Int(0)])],
    );
    let mut two = one.clone();
    two.push(Tuple::new(vec![Value::Int(7), Value::Int(1)]));
    let (before, after) = (
        table_facts(&one, WATCH_MAX_LHS),
        table_facts(&two, WATCH_MAX_LHS),
    );
    let gone = before.difference(&after).map(|f| format!("-{f}"));
    let new = after.difference(&before).map(|f| format!("+{f}"));
    gone.chain(new).collect()
}

fn signed_fact(ev: &WatchEvent) -> String {
    format!("{}{}", if ev.appeared { '+' } else { '-' }, ev.fact)
}

/// Reads the subscriber's stream until `stop` is set and a read times
/// out, timestamping every item and counting the probe tables that
/// produced an event. The rest of the set-up probe's events is
/// skipped: that probe is not measured.
fn collect_events(
    mut watcher: Client,
    stop: &AtomicBool,
    probes_seen: &AtomicUsize,
) -> Result<Vec<(Instant, StreamItem)>, String> {
    let mut items = Vec::new();
    let mut seen = BTreeSet::new();
    loop {
        match watcher.next_event() {
            Ok(Some(item)) => {
                if let StreamItem::Event(ev) = &item {
                    if ev.table == WARM_PROBE {
                        continue;
                    }
                    if ev.table.starts_with("probe_") && seen.insert(ev.table.clone()) {
                        probes_seen.fetch_add(1, Ordering::SeqCst);
                    }
                }
                items.push((Instant::now(), item));
            }
            Ok(None) if stop.load(Ordering::SeqCst) => return Ok(items),
            Ok(None) => {}
            Err(e) => return Err(format!("watcher: {e}")),
        }
    }
}

/// Waits for the first event on `table`.
fn await_event(watcher: &mut Client, table: &str) -> Result<(), String> {
    let deadline = Instant::now() + SETUP_DEADLINE;
    while Instant::now() < deadline {
        match watcher.next_event().map_err(|e| format!("watcher: {e}"))? {
            Some(StreamItem::Event(ev)) if ev.table == table => return Ok(()),
            Some(StreamItem::Lagged(n)) => return Err(format!("watcher lagged by {n} in set-up")),
            _ => {}
        }
    }
    Err(format!(
        "no event for {table} within {SETUP_DEADLINE:?} of set-up"
    ))
}

struct Sent {
    due: Instant,
    acked: Instant,
    probe: Option<usize>,
}

/// Runs the workload.
pub fn run(run: &Run, speed: &Speed) -> Result<Outcome, String> {
    let adult = data::relabel(&adult_like(BASE_SEED), run.seed);
    let feed_rows = run.scaled(FEED_ROWS, 160);
    // A whole number of probe cycles, so the stream ends on a probe and
    // every event before it is read: the digest covers the same events
    // on every run. One probe table per probe.
    let probes = ((RATE * run.seconds.as_secs_f64()) as usize / PROBE_EVERY).max(1);
    let total = probes * PROBE_EVERY;
    let schema = adult.schema().clone();
    // Renamed but not shuffled: which inserts refute a fact, and so
    // which epochs cost the hub a deep re-mine, is the same for every
    // seed.
    let feed = Table::from_rows(schema, adult.rows()[..feed_rows].iter().cloned());
    let stream_rows = &adult.rows()[feed_rows..];
    if total - probes > stream_rows.len() {
        return Err(format!(
            "--seconds {} needs {} feed rows; adult has {} beyond the feed",
            run.seconds.as_secs_f64(),
            total - probes,
            stream_rows.len()
        ));
    }
    let mut script = load::load_script("feed", &feed);
    let feed_load = script.len();
    for j in 0..=probes {
        let name = if j == probes {
            WARM_PROBE.to_owned()
        } else {
            format!("probe_{j}")
        };
        script.push(probe_ddl(&name));
        script.push(probe_row(&name, j, 0));
    }
    let mut out = Outcome::default();

    // Set-up is dominated by the hub mining every table's baseline on
    // one server thread, so the server gets one CPU and the client
    // another, and set-up runs at the speed of the server's CPU.
    let at = speed.placement();
    speed::pin_this_thread(at.client)?;
    let ((server, mut writer, mut watcher), setup) =
        repeated_setup(if run.quick { 2 } else { 5 }, speed, &[at.server], |k| {
            let server = {
                let _s = trace::span("setup.spawn", 0);
                ServerChild::spawn(Some(&run.wal_dir(k)), Some(at.server))?
            };
            let mut writer = load::connect(server.addr())?;
            {
                let _s = trace::span("setup.load", 0);
                load::load(&mut writer, &script[..feed_load])?;
                load::send_all(&mut writer, &script[feed_load..], 64)?;
            }
            let _s = trace::span("setup.watch", 0);
            let mut watcher = Client::connect_with_timeout(server.addr(), Some(WATCHER_TIMEOUT))
                .map_err(|e| format!("watcher: {e}"))?;
            watcher.watch(None).map_err(|e| format!("WATCH: {e}"))?;
            // The hub mines every table's baseline when the subscriber
            // registers; the first event after a write proves it is done.
            // Set-up ends when the hub counts that event. The subscriber
            // only receives it on its session's next 100 ms poll, which
            // would add a step of up to one poll period to the time.
            let events =
                |writer: &mut Client| Scrape::take(writer).map(|s| s.counter("serve.watch.events"));
            let before = events(&mut writer)?;
            writer
                .expect_ok(&probe_row(WARM_PROBE, probes, 1))
                .map_err(|e| format!("warm probe: {e}"))?;
            let deadline = Instant::now() + SETUP_DEADLINE;
            while events(&mut writer)? <= before {
                if Instant::now() > deadline {
                    return Err(format!("no event within {SETUP_DEADLINE:?} of set-up"));
                }
                std::thread::sleep(Duration::from_millis(2));
            }
            Ok((server, writer, watcher))
        })?;
    out.setup(&setup);
    await_event(&mut watcher, WARM_PROBE)?;

    let before = if run.trace {
        Some(Scrape::take(&mut writer)?)
    } else {
        None
    };
    let stop = AtomicBool::new(false);
    let probes_seen = AtomicUsize::new(0);
    let start = Instant::now();
    let (sent, items) = std::thread::scope(|scope| {
        let (stop, probes_seen) = (&stop, &probes_seen);
        let reader = scope.spawn(move || collect_events(watcher, stop, probes_seen));
        let mut sent: Vec<Sent> = Vec::with_capacity(total);
        let mut lateness_ms = Vec::with_capacity(total);
        let mut feed_next = 0;
        let mut failure = None;
        let mut arrivals = data::Rng::new(run.seed, 3);
        let mut due = start;
        for k in 0..total {
            // Exponential gaps; 53 random bits make a uniform in (0, 1].
            let u = ((arrivals.next() >> 11) + 1) as f64 / (1u64 << 53) as f64;
            due += Duration::from_secs_f64(-u.ln() / RATE);
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            lateness_ms.push(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3);
            let (stmt, probe) = if k % PROBE_EVERY == PROBE_EVERY - 1 {
                let j = k / PROBE_EVERY;
                (probe_row(&format!("probe_{j}"), j, 1), Some(j))
            } else {
                feed_next += 1;
                (
                    render_insert("feed", &stream_rows[feed_next - 1..feed_next]),
                    None,
                )
            };
            let _s = trace::span("watch.statement", k as u64 + 1);
            match writer.request(&stmt) {
                Ok(r) if r.ok => {}
                Ok(r) => failure = Some(format!("statement {k} refused: {}", r.message)),
                Err(e) => failure = Some(format!("statement {k}: {e}")),
            }
            sent.push(Sent {
                due,
                acked: Instant::now(),
                probe,
            });
            if failure.is_some() {
                break;
            }
        }
        // Wait until every probe produced an event, or the last one's
        // deadline passed; the reader's next timeout then ends it, after
        // the rest of the last flush.
        let probes_sent = sent.iter().filter(|s| s.probe.is_some()).count();
        let last_due = sent.last().map_or(start, |s| s.due);
        while probes_seen.load(Ordering::SeqCst) < probes_sent
            && Instant::now() < last_due + EVENT_DEADLINE
        {
            std::thread::sleep(Duration::from_millis(5));
        }
        stop.store(true, Ordering::SeqCst);
        let items = reader
            .join()
            .unwrap_or_else(|_| Err("watcher thread panicked".into()));
        (failure.map_or(Ok((sent, lateness_ms)), Err), items)
    });
    let (sent, lateness_ms) = sent?;
    let items = items?;
    let probes_sent = sent.iter().filter(|s| s.probe.is_some()).count();
    if probes_seen.load(Ordering::SeqCst) > probes_sent {
        out.problem(format!(
            "events for {} probe tables, but {probes_sent} probes were sent",
            probes_seen.load(Ordering::SeqCst)
        ));
    }
    let wall = sent
        .last()
        .map_or(0.0, |s| s.acked.duration_since(start).as_secs_f64());
    let rss_mib = child::peak_rss_mib(server.pid())?;
    let scraped = match before {
        Some(b) => Some(Scrape::take(&mut writer)?.since(&b)),
        None => None,
    };
    drop(writer);
    drop(server);

    // Per probe table: arrival of its first event, and its events.
    let mut first: BTreeMap<String, Instant> = BTreeMap::new();
    let mut facts: BTreeMap<String, Vec<String>> = BTreeMap::new();
    let mut feed_events = 0u64;
    let mut lagged = 0u64;
    for (at, item) in &items {
        match item {
            StreamItem::Event(ev) => {
                out.digest.add(ev.line().as_bytes());
                if ev.table == "feed" {
                    feed_events += 1;
                } else {
                    first.entry(ev.table.clone()).or_insert(*at);
                    facts
                        .entry(ev.table.clone())
                        .or_default()
                        .push(signed_fact(ev));
                }
            }
            StreamItem::Lagged(n) => {
                lagged += 1;
                out.problem(format!("subscriber lagged: {n} events dropped"));
            }
        }
    }
    let expected = expected_probe_events();
    let mut event_ms = Vec::new();
    let mut by_probe = Vec::new();
    let mut post_ack = Vec::new();
    out.attempted = sent.len() as u64;
    out.failed = lagged;
    for s in &sent {
        let Some(j) = s.probe else { continue };
        let name = format!("probe_{j}");
        match first.get(&name) {
            Some(&at) if at.duration_since(s.due) <= EVENT_DEADLINE => {
                let total = at.duration_since(s.due).as_secs_f64();
                event_ms.push(total * 1e3);
                by_probe.push((total * 1e3, j));
                post_ack.push(at.saturating_duration_since(s.acked).as_secs_f64() / total);
                if facts.get(&name) != Some(&expected) {
                    out.failed += 1;
                    eprintln!(
                        "{name}: events {:?}, expected {expected:?}",
                        facts.get(&name)
                    );
                }
            }
            _ => {
                out.failed += 1;
                eprintln!("{name}: no event within {EVENT_DEADLINE:?}");
            }
        }
    }

    let events = Summary::of(&event_ms).ok_or("no probe produced an event")?;
    out.summary("event_ms", "ms", &events);
    by_probe.sort_by(|a, b| b.0.total_cmp(&a.0));
    out.detail(
        "slowest_probes",
        JsonValue::Array(
            by_probe
                .iter()
                .take(20)
                .map(|&(ms, j)| {
                    JsonValue::Object(vec![
                        ("probe".into(), JsonValue::Int(j as i128)),
                        ("event_ms".into(), JsonValue::Float(ms)),
                    ])
                })
                .collect(),
        ),
    );
    out.summary(
        "lateness_ms",
        "ms",
        &Summary::of(&lateness_ms).expect("statements were sent"),
    );
    let ack_ms: Vec<f64> = sent
        .iter()
        .map(|s| s.acked.duration_since(s.due).as_secs_f64() * 1e3)
        .collect();
    out.summary(
        "ack_ms",
        "ms",
        &Summary::of(&ack_ms).expect("statements were sent"),
    );
    out.detail("feed_events", JsonValue::Int(feed_events.into()));
    // Open loop: throughput is the offered rate unless the server falls
    // behind the schedule, so `ops_per_s` only catches a collapse here.
    // Event latency is mostly waiting (the session poll, fsync), not
    // computing, so it is reported as measured; set-up is computing.
    out.end_to_end = vec![
        metric("setup_s", setup.scaled.median, "s"),
        metric("ops_per_s", sent.len() as f64 / wall, "1/s"),
        metric("latency_p50_ms", events.median, "ms"),
        metric("server_rss_mb", rss_mib, "MiB"),
    ];

    if let Some(scraped) = scraped {
        // Feed rows, one row per probe table plus the warm probe's
        // second row, and one row per measured statement.
        let rows_stored = feed_rows + probes + 2 + sent.len();
        out.layers = layers::collect(
            &ServerSide {
                scraped,
                client_mine_ns: 0.0,
                post_ack_share: median(&post_ack),
                rss_mib,
                rows_stored,
            },
            &Replay {
                table: &feed,
                sigma: &Sigma::new(),
                statements: &script[1..feed_load],
            },
        );
    }
    Ok(out)
}
