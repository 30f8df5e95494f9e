//! The served path reads every table through its dictionary codes and
//! never builds the decoded row view that `Table::rows` lends: DDL,
//! INSERT, the four `MINE` forms, `DUMP`, a late `WATCH` subscriber
//! (its miner is seeded from the committed rows, then fed a commit), a
//! snapshot and recovery all leave `model.table.row_view_builds` at 0.
//!
//! Kept as its own integration binary: the counter lives in the
//! process-wide registry, and other suites build row views.

use sqlnf_serve::protocol::Accumulator;
use sqlnf_serve::server::dispatch;
use sqlnf_serve::Store;

fn row_view_builds() -> u64 {
    sqlnf_obs::report()
        .counter("model.table.row_view_builds")
        .unwrap_or(0)
}

fn run(store: &Store, line: &str) -> Vec<String> {
    let req = Accumulator::new()
        .push_line(line)
        .expect("a complete request");
    let reply = dispatch(store, req);
    assert!(reply.ok, "{line}: {}", reply.message);
    reply.lines
}

#[test]
fn served_tables_never_build_a_row_view() {
    let dir = std::env::temp_dir().join(format!("sqlnf_row_view_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let script = {
        let store = Store::open(&dir, 0).unwrap();
        run(
            &store,
            "CREATE TABLE t (a INT NOT NULL, b TEXT, c INT, CONSTRAINT k CERTAIN KEY (a));",
        );
        run(
            &store,
            "INSERT INTO t VALUES (1, 'x', 10), (2, 'x', 10), (3, NULL, 20), (4, 'y', NULL);",
        );
        for verb in ["MINE t", "MINE t 2", "MINE t weak", "MINE t 2 certain"] {
            assert!(!run(&store, verb).is_empty(), "{verb} mined nothing");
        }
        assert_eq!(run(&store, "DUMP t").len(), 5);
        let sub = store.watch(Some("t".to_owned()));
        run(&store, "INSERT INTO t VALUES (5, 'x', 30);");
        store.watch_barrier();
        assert!(!sub.drain().is_empty(), "the commit changed no fact");
        store.snapshot().unwrap();
        run(&store, "INSERT INTO t VALUES (6, 'z', 40);");
        store.export_script()
    };
    let recovered = Store::open(&dir, 0).unwrap();
    assert_eq!(recovered.export_script(), script);
    assert!(script.contains("(6, 'z', 40)"));
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(row_view_builds(), 0);
    // The counter counts: one call builds the view, a second reuses it.
    recovered
        .with_table("t", |st| {
            assert_eq!(st.data().rows().len(), st.data().rows().len());
        })
        .unwrap();
    assert_eq!(row_view_builds(), 1);
}
