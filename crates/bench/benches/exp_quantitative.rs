//! E1 — the "Quantitative Insights" count table of Section 7.
//!
//! Mines the 130-table corpus and reports the number of minimal FDs per
//! category, one per LHS, next to the paper's values:
//!
//! ```text
//! nn-FDs  p-FDs  c-FDs  t-FDs  λ-FDs
//!    847    557    419    205     83        (paper, real data sets)
//! ```
//!
//! The corpus is synthetic (see DESIGN.md "Substitutions"), so the
//! absolute values differ; the qualitative claims are the containment
//! chain p ≥ c ≥ t ≥ λ, a λ count that is a small fraction of c, and
//! nn-FDs dominating (most mined LHSs are null-free).
//! `tests/paper_claims.rs` asserts them on the same [`CountTable`].

use sqlnf_bench::{banner, mark, render_table, timed, CountTable, SEED};
use sqlnf_datagen::corpus::CORPUS_TABLES;
use sqlnf_discovery::classify::Counts;

fn row(source: &str, c: &Counts) -> Vec<String> {
    let mut row = vec![source.to_string()];
    row.extend([c.nn, c.p, c.c, c.t, c.lambda].map(|n| n.to_string()));
    row
}

fn main() {
    banner("E1: frequency of FD classes over the corpus (Section 7 count table)");
    let (table, elapsed) = timed(|| CountTable::of_corpus(SEED));

    println!(
        "mined {} tables (of {CORPUS_TABLES}) in {}",
        table.tables,
        sqlnf_bench::fmt_duration(elapsed)
    );
    println!();
    let rows = vec![
        row("this run (synthetic corpus)", &table.counts),
        row("paper (130 mined tables)", &CountTable::PAPER),
    ];
    print!(
        "{}",
        render_table(
            &["source", "nn-FDs", "p-FDs", "c-FDs", "t-FDs", "λ-FDs"],
            &rows
        )
    );
    println!(
        "\nshape check: nn > p ≥ c ≥ t ≥ λ > 0 {}",
        mark(&table.claims())
    );
}
