//! Byte-for-byte pin of the `MINE` report on the seeded adult-shaped
//! instance: classification counts, certain keys, λ-FDs with their
//! projection sizes and nn-FDs must all match
//! `tests/golden/adult_mine_report.txt` — with the default partition
//! cache, and with no cache and a 1 MiB one on two threads, which forces
//! evicted prefixes to be folded from the singles on a report with keys
//! and λ-FDs. The incremental engine must render the same report when
//! seeded with all but the last 1,000 rows, mined, and then fed those
//! rows as inserts, as a WATCH hub is. Ignored by default — a debug build mines 48,842 rows
//! slowly — and run in CI as
//!
//! ```text
//! cargo test -q --release --test adult_golden -- --ignored
//! ```

use sqlnf::discovery::check::Semantics;
use sqlnf::discovery::classify::{mine_report, render_report, report_parts};
use sqlnf::discovery::incremental::IncrementalMiner;
use sqlnf::discovery::mine::MinerConfig;
use sqlnf::discovery::mine::DEFAULT_CACHE_BUDGET;
use sqlnf::discovery::partition::Encoded;
use sqlnf::prelude::*;

const GOLDEN: &str = include_str!("golden/adult_mine_report.txt");

#[test]
#[ignore = "48,842-row mine; run in release builds only"]
fn adult_mine_report_matches_golden() {
    let t = sqlnf::datagen::naumann::adult_like(20_160_626);
    let report = mine_report("adult", &t, 3, DEFAULT_CACHE_BUDGET);
    assert!(
        report == GOLDEN,
        "adult MINE report diverges from the golden file:\n{report}"
    );
    let enc = Encoded::new(&t);
    for budget in [0, 1 << 20] {
        let config = MinerConfig::new(Semantics::Possible)
            .with_max_lhs(3)
            .with_threads(2)
            .with_cache_budget(budget);
        let (cls, keys) = report_parts(&enc, t.schema().arity(), config);
        let report = render_report("adult", t.len(), t.schema(), 3, &cls, &keys);
        assert!(
            report == GOLDEN,
            "adult MINE report under budget {budget} on 2 threads diverges:\n{report}"
        );
    }
}

#[test]
#[ignore = "48,842-row mine; run in release builds only"]
fn incremental_adult_report_matches_golden() {
    let t = sqlnf::datagen::naumann::adult_like(20_160_626);
    let (seed, tail) = t.rows().split_at(t.len() - 1000);
    let prefix = Table::from_rows(t.schema().clone(), seed.to_vec());
    let mut m = IncrementalMiner::from_table(&prefix);
    let cold = m.report("adult", 3, DEFAULT_CACHE_BUDGET);
    assert_eq!(
        cold,
        mine_report("adult", &prefix, 3, DEFAULT_CACHE_BUDGET),
        "cold incremental report of the seed rows diverges"
    );
    for row in tail {
        m.insert(row.clone());
    }
    let grown = m.report("adult", 3, DEFAULT_CACHE_BUDGET);
    assert!(
        grown == GOLDEN,
        "incremental adult report after inserting the last 1,000 rows diverges:\n{grown}"
    );
}
