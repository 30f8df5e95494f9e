//! Figure 6's shape claims on the seeded Section 7 corpus, asserted on
//! the same [`Figure6`] the `exp_fig6` bench prints.

use sqlnf_bench::Figure6;

#[test]
fn lambda_ratios_are_bimodal_and_high_lhss_are_almost_keys() {
    let fig = Figure6::of_corpus(20_160_626);
    let (low, in_gap, high) = fig.bands();
    assert!(low > 0, "low (genuinely compressing) population missing");
    assert!(high > 0, "high (dirty almost-key) population missing");
    // The paper's observed gap: no λ ratio in (52 %, 78 %).
    assert!(
        in_gap * 10 <= fig.lambda.len(),
        "gap is not sparse: {in_gap}/{} λ-FDs inside (52%,78%)",
        fig.lambda.len()
    );
    // "The LHSs should really be certain keys, but are not due to
    // dirty data": the high population is nearer to key-ness.
    let (high_err, low_err) = fig.mean_key_errors();
    assert!(
        high_err < low_err,
        "the high-ratio population must be nearer to key-ness: {high_err} vs {low_err}"
    );
}
