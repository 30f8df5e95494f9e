//! The paper's shape claims, asserted on the same `sqlnf_bench` data
//! the `exp_*` benches print: the running examples (E0), the Section 7
//! count table (E1), `contact_draft_lookup` (E3), Algorithm 3 on
//! `contractor` (E4) and the ablations (A1) in every build; the
//! performance comparison (E5) and the discovery table (E6), which
//! take seconds in release, as ignored tests run with
//! `cargo test --release --test paper_claims -- --ignored`. Figure 6
//! (E2) is `tests/figure6.rs`. Wall-time comparisons are printed by
//! the benches and asserted nowhere.

use sqlnf_bench::{
    Ablation, Claim, Contact, Contractor, CountTable, DiscoveryTable, PaperFigures, Performance,
    SEED,
};
use std::fmt::Debug;

/// Asserts every claim, naming the first that fails with the data it
/// was checked on.
fn assert_claims<'a>(claims: impl IntoIterator<Item = &'a Claim>, data: &impl Debug) {
    for claim in claims {
        assert!(claim.holds, "claim fails: {}\n{data:#?}", claim.text);
    }
}

#[test]
fn e0_figures_examples_and_verdicts_hold() {
    let figs = PaperFigures::check();
    assert!(
        figs.derivation.is_some(),
        "oi ->s p is not derivable from {{oi ->s c, ic ->w p}}"
    );
    assert_claims(figs.claims(), &figs.derivation);
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
    let perf = Performance::run(SEED);
    assert_claims(&perf.claims(), &perf);
}

#[test]
#[ignore = "seconds in release; CI runs it with --release -- --ignored"]
fn e6_hepatitis_explodes_classically_but_not_certainly() {
    let table = DiscoveryTable::of_naumann(SEED);
    assert_claims(&table.claims(), &table);
}
