//! End-to-end `WATCH` over the wire: a live server, one subscriber
//! session, one writer session. The subscriber must see every fact
//! appearance/refutation in commit (epoch) order, each confirmed by a
//! from-scratch mine of the corresponding statement prefix, and must
//! never see an epoch the durable history doesn't contain.

use sqlnf::prelude::*;
use sqlnf_serve::{
    table_facts, table_facts_with, Client, ServeConfig, Server, StreamItem, WATCH_MAX_LHS,
};
use std::collections::BTreeSet;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

const STMTS: &[&str] = &[
    "CREATE TABLE t (a INT, b INT, c INT);",
    "INSERT INTO t VALUES (1, 1, 1);",
    "INSERT INTO t VALUES (1, 2, 1);",
    "INSERT INTO t VALUES (2, 2, NULL);",
    "INSERT INTO t VALUES (2, 2, 2), (3, 1, 2);",
    "INSERT INTO t VALUES (3, 1, 2);",
];

fn watcher_client(server: &Server) -> Client {
    // Short timeout: `next_event() == None` then means "stream idle",
    // and the drain loop below stays fast.
    Client::connect_with_timeout(server.local_addr(), Some(Duration::from_millis(300))).unwrap()
}

fn drain_all(watcher: &mut Client) -> Vec<StreamItem> {
    let mut items = Vec::new();
    while let Some(item) = watcher.next_event().unwrap() {
        items.push(item);
    }
    items
}

#[test]
fn subscriber_streams_every_fact_change_in_commit_order() {
    let server = Server::start(ServeConfig::default()).unwrap();
    server.store().enable_oplog();
    let mut watcher = watcher_client(&server);
    watcher.watch(Some("t")).unwrap();

    let mut writer = Client::connect(server.local_addr()).unwrap();
    for stmt in STMTS {
        writer.expect_ok(stmt).unwrap();
    }
    // Every statement is committed (acked), so after the hub fence all
    // events are queued, and the session's event writer sends each
    // batch as soon as it is queued.
    server.store().watch_barrier();
    let items = drain_all(&mut watcher);

    // Expected stream: diff from-scratch fact sets of consecutive
    // statement prefixes. Epochs are 1-based and contiguous because
    // the single writer's statements all committed.
    let mut expected = Vec::new();
    let mut db = Database::new();
    let mut before = BTreeSet::new();
    for (i, stmt) in STMTS.iter().enumerate() {
        db.run_script(stmt).unwrap();
        let now = table_facts(db.table("t").unwrap().data(), 3);
        for fact in before.difference(&now) {
            expected.push(format!("EVENT {} t -{fact}", i + 1));
        }
        for fact in now.difference(&before) {
            expected.push(format!("EVENT {} t +{fact}", i + 1));
        }
        before = now;
    }
    let got: Vec<String> = items
        .iter()
        .map(|item| match item {
            StreamItem::Event(ev) => ev.line(),
            StreamItem::Lagged(n) => panic!("subscriber lagged by {n}"),
        })
        .collect();
    assert_eq!(got, expected);

    // Watermark: every streamed epoch is in the durable history (the
    // oplog records the committed payloads in epoch order, epochs
    // starting at 1).
    let durable = server.store().oplog().len() as u64;
    for item in &items {
        if let StreamItem::Event(ev) = item {
            assert!(
                ev.epoch >= 1 && ev.epoch <= durable,
                "event for non-durable epoch {} (durable through {durable})",
                ev.epoch
            );
        }
    }

    // The hub mines through the incremental engine, so its counters
    // surface in the same process's METRICS exposition.
    if sqlnf_obs::ENABLED {
        let text = writer.metrics().unwrap();
        let samples = sqlnf_serve::parse_exposition(&text).expect("exposition parses");
        for name in ["discovery.incr.deltas", "discovery.incr.candidates_touched"] {
            assert!(
                samples.iter().any(|s| s.name == "sqlnf_counter"
                    && s.label("name") == Some(name)
                    && s.value > 0.0),
                "no live sample for {name}"
            );
        }
    }

    let (rest, _) = watcher.unwatch().unwrap();
    assert!(rest.is_empty(), "stream already drained: {rest:?}");
    watcher.quit().unwrap();
    writer.quit().unwrap();
    server.shutdown().unwrap();
}

/// `WATCH t weak` over the wire: the weak subscriber's stream must be
/// byte-deterministic against from-scratch `table_facts_with(.., true)`
/// prefix diffs, while a default subscriber on the same server sees the
/// pre-weak stream byte-identically (no `wfd:` leakage).
#[test]
fn weak_subscriber_stream_is_deterministic_and_isolated() {
    let server = Server::start(ServeConfig::default()).unwrap();
    let mut weak_watcher = watcher_client(&server);
    weak_watcher.watch_weak(Some("t")).unwrap();
    let mut plain_watcher = watcher_client(&server);
    plain_watcher.watch(Some("t")).unwrap();

    let mut writer = Client::connect(server.local_addr()).unwrap();
    for stmt in STMTS {
        writer.expect_ok(stmt).unwrap();
    }
    server.store().watch_barrier();
    let weak_items = drain_all(&mut weak_watcher);
    let plain_items = drain_all(&mut plain_watcher);

    let mut expect_weak = Vec::new();
    let mut expect_plain = Vec::new();
    let mut db = Database::new();
    let (mut before_weak, mut before_plain) = (BTreeSet::new(), BTreeSet::new());
    for (i, stmt) in STMTS.iter().enumerate() {
        db.run_script(stmt).unwrap();
        let data = db.table("t").unwrap().data();
        for (include_weak, before, expected) in [
            (true, &mut before_weak, &mut expect_weak),
            (false, &mut before_plain, &mut expect_plain),
        ] {
            let now = table_facts_with(data, 3, include_weak);
            for fact in before.difference(&now) {
                expected.push(format!("EVENT {} t -{fact}", i + 1));
            }
            for fact in now.difference(before) {
                expected.push(format!("EVENT {} t +{fact}", i + 1));
            }
            *before = now;
        }
    }
    let lines = |items: &[StreamItem]| -> Vec<String> {
        items
            .iter()
            .map(|item| match item {
                StreamItem::Event(ev) => ev.line(),
                StreamItem::Lagged(n) => panic!("subscriber lagged by {n}"),
            })
            .collect()
    };
    let weak_got = lines(&weak_items);
    assert!(
        weak_got.iter().any(|l| l.contains("wfd:")),
        "weak plane streamed no wfd facts: {weak_got:?}"
    );
    assert_eq!(weak_got, expect_weak);
    let plain_got = lines(&plain_items);
    assert!(plain_got.iter().all(|l| !l.contains("wfd:")));
    assert_eq!(plain_got, expect_plain);

    weak_watcher.quit().unwrap();
    plain_watcher.quit().unwrap();
    writer.quit().unwrap();
    server.shutdown().unwrap();
}

#[test]
fn unwatch_drains_pending_events_before_confirming() {
    let server = Server::start(ServeConfig::default()).unwrap();
    let mut watcher = watcher_client(&server);
    watcher.watch(None).unwrap();

    let mut writer = Client::connect(server.local_addr()).unwrap();
    writer.expect_ok("CREATE TABLE u (x INT, y INT);").unwrap();
    writer.expect_ok("INSERT INTO u VALUES (1, 1);").unwrap();
    server.store().watch_barrier();

    // Every queued event arrives before the confirmation, in order.
    let (items, reply) = watcher.unwatch().unwrap();
    assert!(reply.ok);
    assert!(
        items
            .iter()
            .any(|i| matches!(i, StreamItem::Event(ev) if ev.table == "u")),
        "events lost on UNWATCH: {items:?}"
    );

    // Nothing follows the confirmation: the client no longer expects
    // event frames, so a stray one would fail this reply's parse —
    // even after more commits to the table once watched.
    writer.expect_ok("INSERT INTO u VALUES (2, 1);").unwrap();
    server.store().watch_barrier();
    let pong = watcher.expect_ok("PING").unwrap();
    assert_eq!(pong.message, "pong");
    // A second UNWATCH is a refusal, not a wedge.
    assert!(!watcher.request("UNWATCH").unwrap().ok);
    watcher.quit().unwrap();
    writer.quit().unwrap();
    server.shutdown().unwrap();
}

#[test]
fn watch_verbs_are_counted_in_metrics() {
    let server = Server::start(ServeConfig::default()).unwrap();
    let mut c = Client::connect(server.local_addr()).unwrap();
    c.watch(None).unwrap();
    let (_, _) = c.unwatch().unwrap();
    let text = c.metrics().unwrap();
    let samples = sqlnf_serve::parse_exposition(&text).expect("exposition parses");
    // Every verb's span is exposed from server start, so presence alone
    // proves nothing: this session served exactly one of each.
    for verb in ["watch", "unwatch"] {
        let count = samples
            .iter()
            .find(|s| {
                s.name == "sqlnf_span_count"
                    && s.label("name") == Some(&format!("serve.verb.{verb}"))
            })
            .map(|s| s.value);
        assert_eq!(count, Some(1.0), "span count for {verb}");
    }
    c.quit().unwrap();
    server.shutdown().unwrap();
}

/// Events are pushed as the hub queues them, not on a timer: the first
/// event of a probe insert arrives well under a quarter of the former
/// 100 ms session poll after the insert's ack, in the median.
#[test]
fn events_arrive_promptly_after_the_ack() {
    const PROBES: usize = 20;
    let server = Server::start(ServeConfig::default()).unwrap();
    let mut watcher =
        Client::connect_with_timeout(server.local_addr(), Some(Duration::from_secs(2))).unwrap();
    watcher.watch(None).unwrap();
    let mut writer = Client::connect(server.local_addr()).unwrap();
    // One probe table per probe, holding one row: the probe's second
    // row refutes `a -> b` and the key on `a`, so it always streams
    // events. A single writer's statements take contiguous epochs.
    for i in 0..PROBES {
        writer
            .expect_ok(&format!("CREATE TABLE p{i} (a INT NOT NULL, b INT);"))
            .unwrap();
        writer
            .expect_ok(&format!("INSERT INTO p{i} VALUES (1, 1);"))
            .unwrap();
    }
    let mut epoch = 2 * PROBES as u64;
    let mut waits = Vec::new();
    for i in 0..PROBES {
        writer
            .expect_ok(&format!("INSERT INTO p{i} VALUES (1, 2);"))
            .unwrap();
        epoch += 1;
        let acked = Instant::now();
        loop {
            match watcher.next_event().unwrap() {
                Some(StreamItem::Event(ev)) if ev.epoch == epoch => break,
                Some(StreamItem::Event(ev)) => assert!(ev.epoch < epoch, "{ev:?}"),
                Some(StreamItem::Lagged(n)) => panic!("subscriber lagged by {n}"),
                None => panic!("probe {i} (epoch {epoch}) streamed no event"),
            }
        }
        waits.push(acked.elapsed());
    }
    waits.sort();
    let median = waits[PROBES / 2];
    assert!(
        median < Duration::from_millis(25),
        "median ack -> EVENT wait {median:?} (all: {waits:?})"
    );
    watcher.quit().unwrap();
    writer.quit().unwrap();
    server.shutdown().unwrap();
}

/// A `WATCH` reply precedes every event, even while another session
/// commits to watched tables: reading the raw wire, the first line
/// after each `WATCH` is its status line, and a `PING` after each
/// `UNWATCH` is answered with no event in between.
#[test]
fn watch_reply_precedes_events_and_nothing_follows_unwatched() {
    /// Stops the writer however the reading side ends, a failed
    /// assertion included.
    struct StopOnDrop<'a>(&'a AtomicBool);
    impl Drop for StopOnDrop<'_> {
        fn drop(&mut self) {
            self.0.store(true, Ordering::Relaxed);
        }
    }
    let server = Server::start(ServeConfig::default()).unwrap();
    let addr = server.local_addr();
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        // Each new table streams its creation events to `WATCH *`.
        s.spawn(|| {
            let mut writer = Client::connect(addr).unwrap();
            let mut i = 0;
            while !stop.load(Ordering::Relaxed) {
                writer
                    .expect_ok(&format!("CREATE TABLE busy{i} (a INT, b INT);"))
                    .unwrap();
                i += 1;
                std::thread::sleep(Duration::from_millis(1));
            }
            writer.quit().unwrap();
        });
        let _stop = StopOnDrop(&stop);
        let stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut out = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        let mut next_line = || {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            line.trim_end().to_owned()
        };
        for _ in 0..5 {
            out.write_all(b"WATCH\n").unwrap();
            assert_eq!(next_line(), "OK 0 watching *");
            // At least one event, so the writer raced this session.
            let mut line = next_line();
            assert!(line.starts_with("EVENT "), "{line:?}");
            out.write_all(b"UNWATCH\n").unwrap();
            while line.starts_with("EVENT ") {
                line = next_line();
            }
            assert_eq!(line, "OK 0 unwatched");
            out.write_all(b"PING\n").unwrap();
            assert_eq!(next_line(), "OK 0 pong");
        }
        out.write_all(b"QUIT\n").unwrap();
        assert_eq!(next_line(), "OK 0 bye");
    });
    server.shutdown().unwrap();
}

/// A watching session that pipelines INSERTs into its own watched table
/// gets its replies in order — events never split them — and the events
/// interleaved between replies form exactly the from-scratch stream.
#[test]
fn pipelined_inserts_on_a_watched_table_keep_replies_and_stream_exact() {
    const DDL: &str =
        "CREATE TABLE w (a INT NOT NULL, b INT, c INT, CONSTRAINT k CERTAIN KEY (a));";
    let server = Server::start(ServeConfig::default()).unwrap();
    let mut session =
        Client::connect_with_timeout(server.local_addr(), Some(Duration::from_secs(5))).unwrap();
    session.expect_ok(DDL).unwrap();
    session.watch(Some("w")).unwrap();
    // Every fourth insert repeats the previous key and is refused, so
    // the reply sequence pins the order.
    let stmts: Vec<String> = (0..32i64)
        .map(|i| {
            let a = if i % 4 == 3 { i - 1 } else { i };
            let b = if i % 5 == 0 {
                "NULL".to_owned()
            } else {
                (i % 3).to_string()
            };
            format!("INSERT INTO w VALUES ({a}, {b}, {});", i % 2)
        })
        .collect();
    let replies = session.send_batch(&stmts).unwrap();
    assert_eq!(replies.len(), stmts.len());

    // The reference: from-scratch facts of each admitted prefix; the
    // CREATE is epoch 1 and the subscription's silent baseline.
    let mut db = Database::new();
    db.run_script(DDL).unwrap();
    let mut before = table_facts(db.table("w").unwrap().data(), WATCH_MAX_LHS);
    let (mut expected, mut epoch) = (Vec::new(), 1);
    for (i, (stmt, reply)) in stmts.iter().zip(&replies).enumerate() {
        assert_eq!(reply.ok, i % 4 != 3, "reply {i}: {}", reply.message);
        if db.run_script(stmt).is_err() {
            continue;
        }
        epoch += 1;
        let now = table_facts(db.table("w").unwrap().data(), WATCH_MAX_LHS);
        expected.extend(
            before
                .difference(&now)
                .map(|f| format!("EVENT {epoch} w -{f}")),
        );
        expected.extend(
            now.difference(&before)
                .map(|f| format!("EVENT {epoch} w +{f}")),
        );
        before = now;
    }
    assert!(!expected.is_empty());
    server.store().watch_barrier();
    let (items, _) = session.unwatch().unwrap();
    let got: Vec<String> = items
        .iter()
        .map(|item| match item {
            StreamItem::Event(ev) => ev.line(),
            StreamItem::Lagged(n) => panic!("subscriber lagged by {n}"),
        })
        .collect();
    assert_eq!(got, expected);
    session.quit().unwrap();
    server.shutdown().unwrap();
}
