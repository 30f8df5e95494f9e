//! The paper's shape claims, asserted on the same `sqlnf_bench` data
//! the `exp_*` benches print: the running examples (E0), the Section 7
//! count table (E1), `contact_draft_lookup` (E3), Algorithm 3 on
//! `contractor` (E4) and the ablations (A1) in every build; the
//! performance comparison (E5) and the discovery table (E6), which
//! take seconds in release, as ignored tests run with
//! `cargo test --release --test paper_claims -- --ignored`. Figure 6
//! (E2) is `tests/figure6.rs`. Wall-time comparisons are printed by
//! the benches and asserted nowhere.
//!
//! Every experiment's data is also computed twice in one process and
//! compared, timings aside: a result that depends on hash order (each
//! new `HashMap` iterates in its own order) differs between the two.

use sqlnf_bench::{
    Ablation, Claim, Contact, Contractor, CountTable, DiscoveryTable, Figure6, PaperFigures,
    Performance, SEED,
};
use std::fmt::Debug;
use std::time::Duration;

/// Asserts every claim, naming the first that fails with the data it
/// was checked on.
fn assert_claims<'a>(claims: impl IntoIterator<Item = &'a Claim>, data: &impl Debug) {
    for claim in claims {
        assert!(claim.holds, "claim fails: {}\n{data:#?}", claim.text);
    }
}

/// Asserts that two runs of an experiment printed the same data.
fn assert_repeats(name: &str, first: &impl Debug, second: &impl Debug) {
    assert_eq!(
        format!("{first:#?}"),
        format!("{second:#?}"),
        "{name} differs between two runs in one process"
    );
}

#[test]
fn e0_figures_examples_and_verdicts_hold() {
    let figs = PaperFigures::check();
    // The derivation engine saturates in a fixed order, so Section 4's
    // proof prints the same way every run.
    assert_eq!(
        figs.derivation.as_deref(),
        Some(concat!(
            "  1. {item,catalog} ->w {price}   [Σ]\n",
            "  2. {order_id,item,catalog} ->w {price}   [A: {item,catalog} ->w {price}]\n",
            "  3. {order_id,item} ->s {catalog}   [Σ]\n",
            "  4. {order_id,item} ->s {price}   ",
            "[T: {order_id,item} ->s {catalog}, {order_id,item,catalog} ->w {price}]\n",
        )),
        "oi ->s p from {{oi ->s c, ic ->w p}}"
    );
    assert_claims(figs.claims(), &figs.derivation);
}

/// The experiments of every build, each computed twice in one process:
/// everything but the timings must repeat.
#[test]
fn experiments_repeat_within_one_process() {
    assert_repeats("E0", &PaperFigures::check(), &PaperFigures::check());
    assert_repeats(
        "E1",
        &CountTable::of_corpus(SEED),
        &CountTable::of_corpus(SEED),
    );
    assert_repeats("E2", &Figure6::of_corpus(SEED), &Figure6::of_corpus(SEED));
    assert_repeats("E3", &Contact::decompose(SEED), &Contact::decompose(SEED));
    assert_repeats(
        "E4",
        &Contractor::normalize(SEED),
        &Contractor::normalize(SEED),
    );
    let untimed = || {
        let mut a = Ablation::run(SEED);
        a.indexed.1 = Duration::ZERO;
        a.naive.1 = Duration::ZERO;
        a
    };
    assert_repeats("A1", &untimed(), &untimed());
}

#[test]
fn e1_counts_form_the_containment_chain() {
    let table = CountTable::of_corpus(SEED);
    assert_claims(&table.claims(), &table);
}

#[test]
fn e3_contact_decomposes_as_figure_8_and_the_full_table_to_105_rows() {
    let contact = Contact::decompose(SEED);
    assert_eq!(contact.projection.len(), 10, "Figure 8's set projection");
    assert_eq!(contact.remainder.len(), 14, "Figure 8's multiset remainder");
    assert!(contact.full_sigma_holds, "σ fails on the full table");
    // 124 rows, 105 distinct projected rows: 19 sources of potential
    // inconsistency eliminated.
    let (rows, projected, _) = contact.full_rows;
    assert_eq!((rows, projected), (124, 105));
    assert_claims(contact.claims(), &contact.full_rows);
}

#[test]
fn e4_algorithm3_eliminates_448_values_on_contractor() {
    // The cell counts, 3806 → 3720, are `tests/end_to_end.rs`'s.
    let c = Contractor::normalize(SEED);
    assert_eq!(c.shape(), vec![(4, 38), (4, 73), (5, 67), (17, 173)]);
    assert_eq!(c.values_eliminated(), 448);
    assert_claims(&c.claims(), &c.eliminated);
}

#[test]
fn a1_ablations_confirm_the_shipped_choices() {
    let a = Ablation::run(SEED);
    assert_claims(&a.claims(), &a);
}

#[test]
#[ignore = "seconds in release; CI runs it with --release -- --ignored"]
fn e5_scaled_validation_and_queries_return_the_paper_results() {
    let untimed = || {
        let mut perf = Performance::run(SEED);
        for t in [
            &mut perf.cfd.1,
            &mut perf.ckey.1,
            &mut perf.select.1,
            &mut perf.join.1,
        ] {
            *t = Duration::ZERO;
        }
        perf
    };
    let perf = untimed();
    assert_claims(&perf.claims(), &perf);
    // Too slow for a debug build twice: the repeat check rides here.
    assert_repeats("E5", &perf, &untimed());
}

#[test]
#[ignore = "seconds in release; CI runs it with --release -- --ignored"]
fn e6_hepatitis_explodes_classically_but_not_certainly() {
    let untimed = || {
        let mut table = DiscoveryTable::of_naumann(SEED);
        for row in &mut table.rows {
            for t in [&mut row.classical.1, &mut row.certain.1, &mut row.weak.1] {
                *t = Duration::ZERO;
            }
        }
        table
    };
    let table = untimed();
    assert_claims(&table.claims(), &table);
    // Too slow for a debug build twice: the repeat check rides here.
    assert_repeats("E6", &table, &untimed());
}
