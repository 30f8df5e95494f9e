//! End-to-end `WATCH` over the wire: a live server, one subscriber
//! session, one writer session. The subscriber must see every fact
//! appearance/refutation in commit (epoch) order, each confirmed by a
//! from-scratch mine of the corresponding statement prefix, and must
//! never see an epoch the durable history doesn't contain.

use sqlnf::prelude::*;
use sqlnf_serve::{table_facts, table_facts_with, Client, ServeConfig, Server, StreamItem};
use std::collections::BTreeSet;
use std::time::Duration;

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
    // events are queued; the next idle poll flushes them.
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

    // UNWATCH races the idle flush; either way every queued event must
    // arrive before (or with) the confirmation, in order.
    let (mut items, reply) = watcher.unwatch().unwrap();
    assert!(reply.ok);
    while let Some(item) = watcher.next_event().unwrap_or(None) {
        items.push(item);
    }
    assert!(
        items
            .iter()
            .any(|i| matches!(i, StreamItem::Event(ev) if ev.table == "u")),
        "events lost on UNWATCH: {items:?}"
    );

    // The session keeps working, with no stray frames.
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
