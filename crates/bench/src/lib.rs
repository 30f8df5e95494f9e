//! # sqlnf-bench
//!
//! The paper's evaluation as data. Each experiment of DESIGN.md §3 is
//! one function here that computes its data: the `exp_*` bench target
//! under `benches/` prints the experiment's EXPERIMENTS.md table from
//! it, and a root test (`tests/figure6.rs`, `tests/paper_claims.rs`)
//! asserts the paper's shape claims on the same value. Wall-time
//! comparisons are printed, never asserted; end-to-end performance is
//! measured by the `benchmark/` workspace alone. This crate also holds
//! the text-table rendering and timing helpers the benches share.

#![warn(missing_docs)]

mod ablation;
mod contact;
mod contractor;
mod corpus;
mod discovery;
mod paper;
mod performance;

pub use ablation::Ablation;
pub use contact::Contact;
pub use contractor::Contractor;
pub use corpus::{CountTable, Figure6};
pub use discovery::{DiscoveryRow, DiscoveryTable};
pub use paper::PaperFigures;
pub use performance::Performance;

use sqlnf_model::prelude::{join, reorder_columns, Table};
use std::fmt;
use std::time::{Duration, Instant};

/// The seed every experiment runs with (the conference date), so all
/// counts are reproducible bit-for-bit.
pub const SEED: u64 = 20_160_626;

/// One claim of the paper checked on an experiment's data; a root test
/// asserts it. A bench prints it as a line of its table, its `✓`
/// turned into `✗` when the data does not bear the claim out, or
/// marks a summary line for several claims with [`mark`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Claim {
    /// The claim, as a bench prints it or a failing test names it.
    pub text: &'static str,
    /// Whether the data bears it out.
    pub holds: bool,
}

impl Claim {
    /// A claim and its verdict.
    pub fn new(text: &'static str, holds: bool) -> Claim {
        Claim { text, holds }
    }
}

impl fmt::Display for Claim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.holds {
            f.write_str(self.text)
        } else {
            f.write_str(&self.text.replace('✓', "✗"))
        }
    }
}

/// `✓` when every claim holds, `✗` otherwise: the mark of a summary
/// line standing for several claims.
pub fn mark(claims: &[Claim]) -> &'static str {
    if claims.iter().all(|c| c.holds) {
        "✓"
    } else {
        "✗"
    }
}

/// Whether joining a decomposition's two components gives `base` back.
pub(crate) fn lossless(base: &Table, remainder: &Table, projection: &Table) -> bool {
    let joined = join(remainder, projection, "rejoined");
    base.multiset_eq(&reorder_columns(&joined, base.schema().column_names()))
}

/// Renders an aligned text table with a header row.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        let mut line = String::new();
        for (i, c) in cells.iter().enumerate() {
            line.push_str(&format!("{:>width$}  ", c, width = widths[i]));
        }
        line.trim_end().to_string()
    };
    let headers_owned: Vec<String> = headers.iter().map(|h| h.to_string()).collect();
    out.push_str(&fmt_row(&headers_owned, &widths));
    out.push('\n');
    out.push_str(
        &widths
            .iter()
            .map(|w| "-".repeat(*w))
            .collect::<Vec<_>>()
            .join("  "),
    );
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

/// Runs `f` once and returns its wall-clock duration with the result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// Runs `f` `n` times and returns the median duration (coarse but
/// stable enough for the experiment tables).
pub fn median_time(n: usize, mut f: impl FnMut()) -> Duration {
    assert!(n >= 1);
    let mut times: Vec<Duration> = (0..n)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed()
        })
        .collect();
    times.sort();
    times[times.len() / 2]
}

/// Runs `f` `n` times and returns its last result with the median
/// duration.
pub fn median_run<T>(n: usize, mut f: impl FnMut() -> T) -> (T, Duration) {
    let mut out = None;
    let median = median_time(n, || out = Some(f()));
    (out.expect("n >= 1"), median)
}

/// Formats a duration in engineering style (µs / ms / s).
pub fn fmt_duration(d: Duration) -> String {
    let us = d.as_micros();
    if us < 1_000 {
        format!("{us}µs")
    } else if us < 1_000_000 {
        format!("{:.1}ms", us as f64 / 1_000.0)
    } else {
        format!("{:.2}s", us as f64 / 1_000_000.0)
    }
}

/// Prints a banner separating experiment sections.
pub fn banner(title: &str) {
    println!();
    println!("=== {title} ===");
}

/// A simple text histogram over [0, 1] with `buckets` buckets, used to
/// render Figure 6's distribution in the terminal.
pub fn histogram01(values: &[f64], buckets: usize) -> String {
    let mut counts = vec![0usize; buckets];
    for &v in values {
        let b = ((v * buckets as f64) as usize).min(buckets - 1);
        counts[b] += 1;
    }
    let max = counts.iter().copied().max().unwrap_or(1).max(1);
    let mut out = String::new();
    for (i, &c) in counts.iter().enumerate() {
        let lo = i as f64 / buckets as f64;
        let hi = (i + 1) as f64 / buckets as f64;
        let bar = "#".repeat(c * 40 / max);
        out.push_str(&format!(
            "{:>3.0}%–{:>3.0}%  {:>4}  {bar}\n",
            lo * 100.0,
            hi * 100.0,
            c
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_rendering_aligns() {
        let s = render_table(
            &["data set", "FDs", "time"],
            &[
                vec!["adult".into(), "78".into(), "5.9".into()],
                vec!["breast-cancer".into(), "46".into(), "0.5".into()],
            ],
        );
        assert!(s.contains("data set"));
        assert!(s.contains("breast-cancer"));
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
    }

    #[test]
    fn timing_helpers() {
        let (v, d) = timed(|| 21 * 2);
        assert_eq!(v, 42);
        assert!(d.as_nanos() > 0);
        let m = median_time(3, || {
            std::hint::black_box((0..1000).sum::<u64>());
        });
        assert!(m.as_nanos() > 0);
        let (v, d) = median_run(3, || 6 * 7);
        assert_eq!(v, 42);
        assert!(d.as_nanos() > 0);
    }

    #[test]
    fn duration_formatting() {
        assert_eq!(fmt_duration(Duration::from_micros(500)), "500µs");
        assert_eq!(fmt_duration(Duration::from_millis(12)), "12.0ms");
        assert_eq!(fmt_duration(Duration::from_secs(3)), "3.00s");
    }

    #[test]
    fn a_failing_claim_prints_a_cross() {
        let ok = Claim::new("holds ✓ (note)", true);
        let bad = Claim::new("holds ✓ (note)", false);
        assert_eq!(ok.to_string(), "holds ✓ (note)");
        assert_eq!(bad.to_string(), "holds ✗ (note)");
        assert_eq!(mark(std::slice::from_ref(&ok)), "✓");
        assert_eq!(mark(&[ok, bad]), "✗");
    }

    #[test]
    fn histogram_shapes() {
        let h = histogram01(&[0.1, 0.1, 0.9], 10);
        let lines: Vec<&str> = h.lines().collect();
        assert_eq!(lines.len(), 10);
        assert!(lines[1].contains('2'));
        assert!(lines[9].contains('1'));
    }
}
