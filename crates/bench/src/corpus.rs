//! E1 and E2: the Section 7 corpus's FD-class counts and Figure 6.

use crate::Claim;
use sqlnf_datagen::corpus::corpus;
use sqlnf_discovery::approx::ckey_error;
use sqlnf_discovery::classify::{classify_table, Counts};
use sqlnf_discovery::partition::Encoded;

/// E1's data, the "Quantitative Insights" count table: minimal FDs
/// per class, one per LHS, summed over the seeded Section 7 corpus
/// (LHS cap 3). `exp_quantitative` prints it; a root test asserts
/// [`CountTable::claims`].
#[derive(Debug, Clone)]
pub struct CountTable {
    /// The summed counts.
    pub counts: Counts,
    /// Tables mined.
    pub tables: usize,
}

impl CountTable {
    /// The paper's counts over its 130 mined tables.
    pub const PAPER: Counts = Counts {
        nn: 847,
        p: 557,
        c: 419,
        t: 205,
        lambda: 83,
    };

    /// Classifies every table of `corpus(seed)`.
    pub fn of_corpus(seed: u64) -> CountTable {
        let mut table = CountTable {
            counts: Counts::default(),
            tables: 0,
        };
        for ct in &corpus(seed) {
            table.counts.add(&classify_table(&ct.table, 3));
            table.tables += 1;
        }
        table
    }

    /// The containment chain p ≥ c ≥ t ≥ λ, λ-FDs present, and
    /// null-free LHSs dominating (nn > p). The corpus is synthetic, so
    /// these shapes, not the paper's absolute counts, are the claims.
    pub fn claims(&self) -> Vec<Claim> {
        let c = &self.counts;
        vec![
            Claim::new("p-FDs dominate c-FDs", c.p >= c.c),
            Claim::new("c-FDs dominate t-FDs", c.c >= c.t),
            Claim::new("t-FDs dominate λ-FDs", c.t >= c.lambda),
            Claim::new("the corpus exhibits λ-FDs", c.lambda > 0),
            Claim::new("null-free LHSs dominate in practice", c.nn > c.p),
        ]
    }
}

/// Figure 6's data over the seeded Section 7 corpus: per λ-FD its
/// relative projection size and the c-key g₃ error of its LHS, and the
/// relative projection sizes of the nn-FDs with non-key LHSs (LHS
/// cap 3). `exp_fig6` prints it; a root test asserts the paper's shape
/// claims on it.
#[derive(Debug, Clone)]
pub struct Figure6 {
    /// `(relative projection size, c-key g₃ error of the LHS)` per λ-FD.
    pub lambda: Vec<(f64, f64)>,
    /// Relative projection sizes of the nn-FDs with non-key LHSs.
    pub nn_ratios: Vec<f64>,
}

impl Figure6 {
    /// The paper's gap: no λ ratio falls strictly between these.
    pub const GAP: (f64, f64) = (0.52, 0.78);

    /// Classifies every table of `corpus(seed)`.
    pub fn of_corpus(seed: u64) -> Figure6 {
        let mut fig = Figure6 {
            lambda: Vec::new(),
            nn_ratios: Vec::new(),
        };
        for ct in &corpus(seed) {
            let cls = classify_table(&ct.table, 3);
            let enc = Encoded::new(&ct.table);
            for l in &cls.lambda_fds {
                let key_err = ckey_error(&enc, l.lhs);
                fig.lambda.push((l.relative_projection_size, key_err));
            }
            fig.nn_ratios.extend(cls.nn_nonkey_ratios.iter().copied());
        }
        fig
    }

    /// The λ-FDs' relative projection sizes.
    pub fn lambda_ratios(&self) -> Vec<f64> {
        self.lambda.iter().map(|&(r, _)| r).collect()
    }

    /// λ-FDs at or below the gap, inside it, and at or above it.
    pub fn bands(&self) -> (usize, usize, usize) {
        let (lo, hi) = Figure6::GAP;
        let count = |f: &dyn Fn(f64) -> bool| self.lambda.iter().filter(|&&(r, _)| f(r)).count();
        (
            count(&|r| r <= lo),
            count(&|r| r > lo && r < hi),
            count(&|r| r >= hi),
        )
    }

    /// The mean c-key g₃ error of the LHSs of the high (at or above
    /// the gap) and of the low (at or below it) λ population.
    pub fn mean_key_errors(&self) -> (f64, f64) {
        let (lo, hi) = Figure6::GAP;
        let mean = |f: &dyn Fn(f64) -> bool| {
            let errs: Vec<f64> = self
                .lambda
                .iter()
                .filter(|&&(r, _)| f(r))
                .map(|&(_, e)| e)
                .collect();
            errs.iter().sum::<f64>() / errs.len().max(1) as f64
        };
        (mean(&|r| r >= hi), mean(&|r| r <= lo))
    }
}
