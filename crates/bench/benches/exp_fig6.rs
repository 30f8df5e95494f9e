//! E2 — Figure 6: the distribution of relative projection sizes for
//! λ-FDs (and for nn-FDs with non-key LHSs).
//!
//! The paper's λ-FD distribution is *bimodal*: no relative projection
//! size falls between 52 % and 78 % — the low population is genuine
//! compression, the high population is "should really be a key but the
//! data is dirty". The nn-FD distribution shows no such gap. This bench
//! mines the corpus and prints both distributions as text histograms;
//! `tests/figure6.rs` asserts the gap on the same [`Figure6`].

use sqlnf_bench::{banner, histogram01, timed, Figure6, SEED};

fn main() {
    banner("E2: Figure 6 — relative sizes of projections on λ-FDs");
    let (fig, elapsed) = timed(|| Figure6::of_corpus(SEED));
    let lambda_ratios = fig.lambda_ratios();
    println!(
        "classified corpus in {}",
        sqlnf_bench::fmt_duration(elapsed)
    );

    println!("\nλ-FDs ({} total; paper: 83):", lambda_ratios.len());
    print!("{}", histogram01(&lambda_ratios, 10));
    println!(
        "\nnn-FDs with non-key LHS ({} total; paper: 620):",
        fig.nn_ratios.len()
    );
    print!("{}", histogram01(&fig.nn_ratios, 10));

    // The paper's observed gap: no λ ratio in (52 %, 78 %).
    let (low, in_gap, high) = fig.bands();
    println!("\nλ ratios ≤52%: {low}   in gap (52–78%): {in_gap}   ≥78%: {high}");

    // The paper's manual diagnosis of the high population — "the LHSs
    // should really be certain keys, but are not due to dirty data" —
    // made quantitative: g₃ key error of the LHS per population.
    let (high_err, low_err) = fig.mean_key_errors();
    println!(
        "\nmean c-key g3 error of the λ-LHS: high population {:.1}% (almost keys), \
         low population {:.1}% (genuine compression)",
        high_err * 100.0,
        low_err * 100.0
    );
}
