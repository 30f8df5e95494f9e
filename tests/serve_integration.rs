//! End-to-end tests of the `sqlnf-serve` subsystem: many concurrent
//! wire-protocol sessions hammering one constraint-guarded table, full
//! `satisfy` revalidation of the final state, crash recovery from the
//! WAL alone, and a property test that replay reproduces the store
//! byte-for-byte. The big test doubles as a throughput measurement and
//! writes a `BENCH_serve.json` annotated with the `serve.*` counters.

mod common;

use common::*;
use proptest::prelude::*;
use sqlnf::prelude::*;
use sqlnf_serve::{Client, ServeConfig, Server, Store};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A fresh per-test scratch directory (no clock or RNG involved so the
/// proptest shim stays deterministic).
fn scratch_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("sqlnf_serve_it_{tag}_{}_{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

const DDL: &str = "CREATE TABLE load (
    id  INT NOT NULL,
    grp INT NOT NULL,
    val INT NOT NULL,
    CONSTRAINT pk CERTAIN KEY (id),
    CONSTRAINT fd CERTAIN FD (grp) -> (val)
);";

const CLIENTS: usize = 8;
const STMTS: usize = 1_000;

/// ≥ 8 concurrent clients × ≥ 1 000 statements each, interleaving
/// admissible inserts with deliberate key violations. Invariants:
/// every violation is refused, every valid insert is admitted, the
/// final instance passes full constraint revalidation, and killing the
/// server (no snapshot, no fsync) loses nothing — recovery from the
/// WAL reproduces the exact store contents.
#[test]
fn concurrent_sessions_never_admit_a_violation() {
    let dir = scratch_dir("load");
    let mut exported = String::new();
    let mut served = sqlnf_obs::ObsReport::default();
    let mut record = sqlnf_bench::measure("serve_it_8x1000_wal", 1, || {
        let server = Server::start(ServeConfig {
            workers: CLIENTS,
            wal_dir: Some(dir.clone()),
            ..ServeConfig::default()
        })
        .expect("bind");
        let addr = server.local_addr();
        {
            let mut c = Client::connect(addr).expect("connect");
            c.expect_ok(DDL).expect("ddl admitted");
            c.quit().expect("quit");
        }
        let handles: Vec<_> = (0..CLIENTS)
            .map(|k| {
                std::thread::spawn(move || {
                    let mut c = Client::connect(addr).expect("connect");
                    let mut admitted = 0usize;
                    let mut rejected = 0usize;
                    for i in 0..STMTS {
                        // Every 5th statement replays this client's own
                        // first id: a guaranteed CERTAIN KEY violation
                        // (grp/val stay consistent with the FD, so the
                        // key alone is what refuses it).
                        let violation = i % 5 == 4;
                        let id = if violation {
                            (k * STMTS) as i64
                        } else {
                            (k * STMTS + i) as i64
                        };
                        let g = id / 4;
                        let stmt = format!("INSERT INTO load VALUES ({id}, {g}, {});", g * 7 % 101);
                        let reply = c.request(&stmt).expect("reply");
                        assert_eq!(
                            reply.ok, !violation,
                            "client {k} statement {i}: {}",
                            reply.message
                        );
                        if reply.ok {
                            admitted += 1;
                        } else {
                            rejected += 1;
                        }
                    }
                    c.quit().expect("quit");
                    (admitted, rejected)
                })
            })
            .collect();
        let mut admitted = 0usize;
        let mut rejected = 0usize;
        for h in handles {
            let (a, r) = h.join().expect("client thread");
            admitted += a;
            rejected += r;
        }
        assert_eq!(admitted, CLIENTS * STMTS * 4 / 5);
        assert_eq!(rejected, CLIENTS * STMTS / 5);

        let store = server.store();
        // Full revalidation: every declared constraint holds on the
        // final instance (not just "the engine said so row by row").
        assert!(store.satisfies_all_constraints());
        let rows = store
            .with_table("load", |t| t.data().len())
            .expect("table exists");
        assert_eq!(rows, admitted);
        let report = store.metrics().report();
        let counter = |name: &str| report.counter(name).unwrap_or(0);
        assert_eq!(counter("serve.stmt.admitted"), admitted as u64 + 1);
        assert_eq!(counter("serve.stmt.rejected"), rejected as u64);
        assert_eq!(counter("serve.sessions"), CLIENTS as u64 + 1);
        exported = store.export_script();

        // Simulated crash: no final snapshot, no fsync.
        let store = std::sync::Arc::clone(store);
        server.kill();
        served.absorb(store.metrics().report());
    });
    // The serve counters live in the store's registry, not the global
    // one `measure` snapshots.
    record.obs.absorb(served);

    // Recovery must come from the WAL alone and reproduce the store.
    let reopened = Store::open(&dir, 0).expect("recover");
    assert_eq!(reopened.export_script(), exported);
    assert!(reopened.satisfies_all_constraints());
    drop(reopened);
    let _ = std::fs::remove_dir_all(&dir);

    // The run doubles as the serve throughput record: BENCH_serve.json
    // with sustained stmts/sec and the serve.* observability counters.
    let total = (CLIENTS * STMTS + 1) as f64;
    let per_sec = total / record.median.as_secs_f64();
    record.extra.push((
        "stmts_per_sec".to_owned(),
        sqlnf_obs::json::JsonValue::Float(per_sec),
    ));
    let out = scratch_dir("bench");
    let path = sqlnf_bench::write_bench_json_in(&out, "serve", &[record]).expect("write json");
    assert!(path.ends_with("BENCH_serve.json"));
    let text = std::fs::read_to_string(&path).expect("read json");
    let doc = sqlnf_obs::json::parse(&text).expect("valid JSON");
    let entry = &doc.get("entries").and_then(|v| v.as_array()).unwrap()[0];
    assert!(entry.get("stmts_per_sec").is_some());
    let counter = |name: &str| {
        entry
            .get("counters")
            .and_then(|c| c.get(name))
            .and_then(|v| v.as_u64())
            .unwrap_or_else(|| panic!("counter {name} missing from {text}"))
    };
    assert_eq!(counter("serve.sessions"), CLIENTS as u64 + 1);
    assert_eq!(
        counter("serve.stmt.admitted"),
        (CLIENTS * STMTS * 4 / 5) as u64 + 1
    );
    assert_eq!(counter("serve.stmt.rejected"), (CLIENTS * STMTS / 5) as u64);
    assert!(counter("serve.wal.bytes") > 0);
    let _ = std::fs::remove_dir_all(&out);
}

/// The observability verbs answer over the wire: `METRICS` renders a
/// parseable exposition whose per-store gauges match this server's
/// `STATS` and whose per-verb histograms have seen exactly this
/// session's requests; `TRACE n` is bounded.
#[test]
fn metrics_and_trace_over_the_wire() {
    let server = Server::start(ServeConfig::default()).expect("bind");
    let mut c = Client::connect(server.local_addr()).expect("connect");
    c.expect_ok(DDL).expect("ddl");
    for id in 0..10i64 {
        let g = id / 4;
        c.expect_ok(&format!(
            "INSERT INTO load VALUES ({id}, {g}, {});",
            g * 7 % 101
        ))
        .expect("insert");
    }
    let stats: std::collections::BTreeMap<String, f64> = c
        .expect_ok("STATS")
        .expect("stats")
        .lines
        .iter()
        .filter_map(|l| l.rsplit_once(' '))
        .map(|(name, v)| (name.to_owned(), v.parse().unwrap()))
        .collect();
    let text = c.metrics().expect("metrics");
    let samples = sqlnf_serve::parse_exposition(&text).expect("exposition parses");
    let gauge = |name: &str| {
        samples
            .iter()
            .find(|s| s.name == "sqlnf_store" && s.label("name") == Some(name))
            .unwrap_or_else(|| panic!("missing sqlnf_store gauge {name}"))
            .value
    };
    assert_eq!(gauge("stmt.admitted"), stats["stmt.admitted"]);
    assert_eq!(gauge("stmt.admitted"), 11.0);
    assert_eq!(gauge("tables"), 1.0);
    // Per-verb latency histograms: this session alone contributed
    // eleven SQL statements and one STATS.
    let span_count = |name: &str| {
        samples
            .iter()
            .find(|s| s.name == "sqlnf_span_count" && s.label("name") == Some(name))
            .map(|s| s.value)
            .unwrap_or(0.0)
    };
    assert_eq!(span_count("serve.verb.sql"), 11.0);
    assert_eq!(span_count("serve.verb.stats"), 1.0);
    // The slow-request log carries at least one total breakdown.
    assert!(samples
        .iter()
        .any(|s| s.name == "sqlnf_slow_request_ns" && s.label("stage") == Some("total")));
    if sqlnf_obs::ENABLED {
        let trace = c.trace(8).expect("trace");
        assert!(trace.len() <= 8 && !trace.is_empty(), "{trace:?}");
    }
    c.quit().expect("quit");
    server.shutdown().expect("graceful shutdown");
}

/// Two servers in one process keep separate books: each store owns its
/// counters and spans, so a server's `METRICS` reports exactly its own
/// workload however much the other one (or any other test in this
/// binary) serves at the same time.
#[test]
fn two_servers_in_one_process_report_only_their_own_work() {
    const WORK: [usize; 2] = [60, 35];
    let servers: Vec<Server> = WORK
        .iter()
        .map(|_| Server::start(ServeConfig::default()).expect("bind"))
        .collect();
    let start = std::sync::Arc::new(std::sync::Barrier::new(WORK.len()));
    let drivers: Vec<_> = servers
        .iter()
        .zip(WORK)
        .map(|(server, n)| {
            let addr = server.local_addr();
            let start = std::sync::Arc::clone(&start);
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).expect("connect");
                c.expect_ok(DDL).expect("ddl");
                start.wait();
                for id in 0..n as i64 {
                    let g = id / 4;
                    c.expect_ok(&format!(
                        "INSERT INTO load VALUES ({id}, {g}, {});",
                        g * 7 % 101
                    ))
                    .expect("insert");
                }
                c.quit().expect("quit");
            })
        })
        .collect();
    for d in drivers {
        d.join().expect("driver");
    }
    for (server, n) in servers.into_iter().zip(WORK) {
        let mut c = Client::connect(server.local_addr()).expect("connect");
        let samples = sqlnf_serve::parse_exposition(&c.metrics().expect("metrics"))
            .expect("exposition parses");
        let sample = |family: &str, name: &str| {
            samples
                .iter()
                .find(|s| s.name == family && s.label("name") == Some(name))
                .unwrap_or_else(|| panic!("missing {family}{{name={name:?}}}"))
                .value
        };
        // The DDL plus n inserts; the driver's session plus this one.
        let statements = (n + 1) as f64;
        assert_eq!(sample("sqlnf_counter", "serve.stmt.admitted"), statements);
        assert_eq!(sample("sqlnf_counter", "serve.sessions"), 2.0);
        assert_eq!(sample("sqlnf_span_count", "serve.verb.sql"), statements);
        c.quit().expect("quit");
        server.shutdown().expect("graceful shutdown");
    }
}

/// Graceful shutdown writes a snapshot; a restart from snapshot + WAL
/// equals a restart from WAL alone (tested against the kill path above;
/// here the snapshot path).
#[test]
fn graceful_shutdown_then_restart_reproduces_store() {
    let dir = scratch_dir("graceful");
    let server = Server::start(ServeConfig {
        workers: 2,
        wal_dir: Some(dir.clone()),
        ..ServeConfig::default()
    })
    .expect("bind");
    let mut c = Client::connect(server.local_addr()).expect("connect");
    c.expect_ok(DDL).expect("ddl");
    for id in 0..40i64 {
        let g = id / 4;
        c.expect_ok(&format!(
            "INSERT INTO load VALUES ({id}, {g}, {});",
            g * 7 % 101
        ))
        .expect("insert");
    }
    c.quit().expect("quit");
    let exported = server.store().export_script();
    server.shutdown().expect("graceful shutdown");

    // After a graceful shutdown the WAL is truncated into the snapshot.
    let reopened = Store::open(&dir, 0).expect("reopen");
    assert_eq!(reopened.export_script(), exported);
    assert_eq!(reopened.wal_size().1, 0, "snapshot should absorb the WAL");
    drop(reopened);
    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// WAL replay-equivalence: any sequence of admitted statements
    /// (random constraints, random rows, rejections interleaved, an
    /// optional mid-stream snapshot) recovers to the byte-identical
    /// export after reopen.
    #[test]
    fn wal_replay_reproduces_store(
        sigma in sigma(3, 3),
        rows in proptest::collection::vec(
            proptest::collection::vec(small_value(), 3), 0..16),
        snap_mid in (0usize..2).prop_map(|b| b == 1),
    ) {
        let dir = scratch_dir("replay");
        let exported = {
            let store = Store::open(&dir, 0).unwrap();
            let names: Vec<String> = (0..3).map(|i| format!("a{i}")).collect();
            let schema = TableSchema::new("t", names, &[]);
            store
                .execute_sql(&render_create_table(&schema, &sigma))
                .unwrap();
            let half = rows.len() / 2;
            for (i, row) in rows.iter().enumerate() {
                // Rejected inserts are not logged; admitted ones are.
                let _ = store.execute_sql(&render_insert("t", &[Tuple::new(row.clone())]));
                if snap_mid && i == half {
                    store.snapshot().unwrap();
                }
            }
            prop_assert!(store.satisfies_all_constraints());
            store.export_script()
        };
        let reopened = Store::open(&dir, 0).unwrap();
        prop_assert_eq!(reopened.export_script(), exported);
        prop_assert!(reopened.satisfies_all_constraints());
        drop(reopened);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
