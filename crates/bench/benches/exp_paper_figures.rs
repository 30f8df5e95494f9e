//! E0 — a mechanized walkthrough of the paper's running examples:
//! Figures 1–5, Examples 1–3, the Section 4 worked derivations, and
//! the Section 5/6 normal-form verdicts. Every claim printed here is
//! checked on the same [`PaperFigures`] that `tests/paper_claims.rs`
//! asserts; a claim that fails prints `✗`.

use sqlnf_bench::{banner, Claim, PaperFigures};

fn main() {
    banner("E0: Figures 1–5 and Examples 1–3, mechanized");
    let figs = PaperFigures::check();
    let print = |claims: &[Claim]| claims.iter().for_each(|c| println!("{c}"));
    print(&figs.figures);

    banner("Section 4: reasoning");
    println!("derivation of oi ->s p from {{oi ->s c, ic ->w p}}:");
    print!(
        "{}",
        figs.derivation.as_deref().unwrap_or("  none found ✗\n")
    );
    print(&figs.reasoning);

    banner("Sections 5–6: normal forms");
    print(&figs.normal_forms);

    let all = figs.derivation.is_some() && figs.claims().all(|c| c.holds);
    let verified = Claim::new("all figure/example claims verified ✓", all);
    println!("\n{verified}");
}
