//! Differential tests for the columnar storage path: mining from the
//! incrementally-maintained dictionary codes (`Encoded::new`, a
//! zero-copy borrow of the table's column store) must produce results
//! byte-identical to mining from a fresh row-major re-encode
//! (`Encoded::from_table_rows`, the reference algorithm the storage
//! refactor replaced).
//!
//! The interesting case is a table *after* UPDATE/DELETE churn: the
//! incremental dictionaries then assign different code values than a
//! fresh first-appearance scan would (retired codes are not recycled),
//! so agreement here pins down the invariant the whole columnar design
//! rests on — mined output depends only on the *grouping* the codes
//! induce, never on the code values themselves.

use std::time::Instant;

use sqlnf::discovery::check::Semantics;
use sqlnf::discovery::classify::report_parts;
use sqlnf::discovery::mine::{mine_fds_encoded, MinerConfig};
use sqlnf::discovery::partition::Encoded;
use sqlnf::prelude::*;

/// A table whose column store has lived through the full DML mix:
/// inserts, value rewrites (both null→value and value→null), and row
/// deletions. The surviving rows' incremental codes are sparse and
/// out of first-appearance order.
fn churned_table() -> Table {
    let mut t = TableBuilder::new("churn", ["a", "b", "c", "d"], &[])
        .row(tuple![1i64, "x", 10i64, null])
        .row(tuple![2i64, "y", 10i64, "p"])
        .row(tuple![1i64, "x", 20i64, "q"])
        .row(tuple![3i64, "z", 20i64, "p"])
        .row(tuple![2i64, "y", 30i64, null])
        .row(tuple![1i64, "w", 30i64, "q"])
        .build();
    let s = t.schema().clone();
    // Rewrites: retire codes, mint new ones, flip null states.
    t.set_value(0, s.a("b"), Value::str("z"));
    t.set_value(1, s.a("d"), Value::Null);
    t.set_value(4, s.a("d"), Value::str("r"));
    t.set_value(5, s.a("a"), Value::Int(9));
    // Deletions shift every later row id.
    t.remove_row(2);
    t.remove_row(0);
    // Fresh appends on top of the churn.
    t.push(tuple![9i64, "x", 10i64, "p"]);
    t.push(tuple![3i64, "x", 40i64, null]);
    t.push(tuple![9i64, "w", 40i64, "p"]);
    t
}

fn corpus() -> Vec<(&'static str, Table, usize)> {
    vec![
        ("churned", churned_table(), 3),
        (
            "million-small",
            sqlnf::datagen::naumann::million_like_with_rows(11, 500),
            2,
        ),
        (
            "breast-cancer",
            sqlnf::datagen::naumann::breast_cancer_like(7),
            2,
        ),
    ]
}

#[test]
fn mined_fds_identical_across_encodings_semantics_and_threads() {
    for (name, t, max_lhs) in corpus() {
        let arity = t.schema().arity();
        let columnar = Encoded::new(&t);
        let reference = Encoded::from_table_rows(&t);
        for sem in Semantics::ALL {
            for threads in [1usize, 4] {
                let cfg = MinerConfig::new(sem)
                    .with_max_lhs(max_lhs)
                    .with_threads(threads);
                let a = mine_fds_encoded(&columnar, arity, cfg, Instant::now());
                let b = mine_fds_encoded(&reference, arity, cfg, Instant::now());
                assert_eq!(
                    a.fds, b.fds,
                    "{name}: FDs diverge under {sem:?} with {threads} threads"
                );
                assert_eq!(
                    a.candidates_checked, b.candidates_checked,
                    "{name}: lattice walk diverges under {sem:?} with {threads} threads"
                );
            }
        }
    }
}

/// The `MINE` report's pass configuration.
fn report_config(max_lhs: usize, budget: usize) -> MinerConfig {
    MinerConfig::new(Semantics::Possible)
        .with_max_lhs(max_lhs)
        .with_cache_budget(budget)
}

#[test]
fn mined_keys_identical_across_encodings() {
    for (name, t, max_lhs) in corpus() {
        let arity = t.schema().arity();
        let columnar = Encoded::new(&t);
        let reference = Encoded::from_table_rows(&t);
        let keys = |enc, budget| report_parts(enc, arity, report_config(max_lhs, budget)).1;
        let a = keys(&columnar, usize::MAX);
        let b = keys(&reference, usize::MAX);
        assert_eq!(a, b, "{name}: mined keys diverge");
        // A starved cache changes only throughput, never the keys.
        let c = keys(&columnar, 0);
        assert_eq!(a, c, "{name}: cache budget changed the mined keys");
    }
}

#[test]
fn classification_identical_across_encodings() {
    for (name, t, max_lhs) in corpus() {
        let columnar = Encoded::new(&t);
        let reference = Encoded::from_table_rows(&t);
        let arity = t.schema().arity();
        let config = report_config(max_lhs, usize::MAX);
        let a = report_parts(&columnar, arity, config).0;
        let b = report_parts(&reference, arity, config).0;
        assert_eq!(a, b, "{name}: classification diverges");
    }
}
