//! Byte-for-byte pin of the `MINE` report on the seeded adult-shaped
//! instance: classification counts, certain keys, λ-FDs with their
//! projection sizes and nn-FDs must all match
//! `tests/golden/adult_mine_report.txt`. Ignored by default — a debug
//! build mines 48,842 rows slowly — and run in CI as
//!
//! ```text
//! cargo test -q --release --test adult_golden -- --ignored
//! ```

use sqlnf::discovery::cache::DEFAULT_CACHE_BUDGET;
use sqlnf::discovery::classify::mine_report;

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
}
