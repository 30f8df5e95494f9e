//! Schema linting: one call that tells a designer everything the
//! paper's machinery knows about a design — normal-form status, which
//! constraints violate it, a concrete instance exhibiting the resulting
//! redundancy, and whether normalization is available.

use crate::design::SchemaDesign;
use crate::normal_forms::{redundancy_witness, value_redundancy_witness};
use crate::redundancy::Position;
use sqlnf_model::constraint::Fd;
use sqlnf_model::table::Table;
use std::fmt;

/// Severity of a finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Informational.
    Info,
    /// The schema admits redundant null markers only.
    NullRedundancy,
    /// The schema admits redundant data values.
    ValueRedundancy,
}

/// One finding of the linter.
#[derive(Debug, Clone)]
pub struct Finding {
    /// How bad it is.
    pub severity: Severity,
    /// Human-readable description (column names resolved).
    pub message: String,
    /// The offending FD, if the finding is about one.
    pub fd: Option<Fd>,
}

/// The full lint report for a design.
#[derive(Debug, Clone)]
pub struct LintReport {
    /// Whether the design is in BCNF (⇔ RFNF).
    pub bcnf: bool,
    /// Whether the design is in SQL-BCNF (⇔ VRNF); `None` when Σ has
    /// possible constraints (SQL-BCNF is defined for certain-only Σ).
    pub sql_bcnf: Option<bool>,
    /// Whether Algorithm 3 applies (Σ is certain keys + total FDs).
    pub normalizable: bool,
    /// Findings, most severe first.
    pub findings: Vec<Finding>,
    /// A Σ-satisfying instance with a redundant position, when one
    /// exists (the semantic witness of Theorem 9 / 15).
    pub witness: Option<(Table, Position)>,
}

impl LintReport {
    /// Whether the design is free of redundancy findings.
    pub fn is_clean(&self) -> bool {
        self.findings.iter().all(|f| f.severity == Severity::Info)
    }
}

impl fmt::Display for LintReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "BCNF/RFNF: {}   SQL-BCNF/VRNF: {}   normalizable: {}",
            self.bcnf,
            match self.sql_bcnf {
                Some(b) => b.to_string(),
                None => "n/a (possible constraints present)".to_owned(),
            },
            self.normalizable
        )?;
        for finding in &self.findings {
            let tag = match finding.severity {
                Severity::Info => "info",
                Severity::NullRedundancy => "null-redundancy",
                Severity::ValueRedundancy => "VALUE-REDUNDANCY",
            };
            writeln!(f, "[{tag}] {}", finding.message)?;
        }
        if let Some((table, pos)) = &self.witness {
            writeln!(
                f,
                "witness instance (redundant cell at row {}, column {}):",
                pos.row,
                table.schema().column_name(pos.col)
            )?;
            write!(f, "{table}")?;
        }
        Ok(())
    }
}

/// Lints a design.
pub fn lint(design: &SchemaDesign) -> LintReport {
    let schema = design.schema();
    let (t, nfs) = (schema.attrs(), schema.nfs());
    let sigma = design.sigma();

    let bcnf = design.is_bcnf();
    let sql_bcnf = design.is_sql_bcnf().ok();
    let normalizable = sigma.is_total_fds_and_ckeys();

    let mut findings = Vec::new();

    // Value redundancy (certain-only Σ): the serious finding.
    if let Ok(violations) = design.sql_bcnf_violations() {
        for fd in violations {
            findings.push(Finding {
                severity: Severity::ValueRedundancy,
                message: format!(
                    "external c-FD {} has no certain key on its LHS: instances can store \
                     the same determined value many times; decompose by its total form",
                    fd.display(schema)
                ),
                fd: Some(fd),
            });
        }
    }

    // BCNF violations not already reported (null-marker redundancy, or
    // possible-FD redundancy).
    for fd in design.bcnf_violations() {
        let already = findings.iter().any(|f| f.fd == Some(fd));
        if already {
            continue;
        }
        findings.push(Finding {
            severity: Severity::NullRedundancy,
            message: format!(
                "FD {} can force redundant occurrences (possibly only of null markers); \
                 the schema is not in BCNF",
                fd.display(schema)
            ),
            fd: Some(fd),
        });
    }

    if findings.is_empty() {
        findings.push(Finding {
            severity: Severity::Info,
            message: "every instance over this schema is redundancy-free (RFNF)".to_owned(),
            fd: None,
        });
    } else if !normalizable {
        findings.push(Finding {
            severity: Severity::Info,
            message: "Σ is not certain keys + total FDs; Algorithm 3 does not apply directly \
                      (rewrite FDs in total form X ->w XY where the application allows)"
                .to_owned(),
            fd: None,
        });
    }

    // Prefer a value-redundancy witness; fall back to any redundancy.
    // Re-dress the witness in the design's own column names.
    let witness = value_redundancy_witness(t, nfs, sigma)
        .ok()
        .flatten()
        .or_else(|| redundancy_witness(t, nfs, sigma))
        .map(|(table, pos)| {
            let renamed = Table::from_rows(schema.clone(), table.iter().map(|r| r.to_tuple()));
            (renamed, pos)
        });

    findings.sort_by_key(|f| std::cmp::Reverse(f.severity));
    LintReport {
        bcnf,
        sql_bcnf,
        normalizable,
        findings,
        witness,
    }
}

/// Convenience: lints and renders in one call.
pub fn lint_to_string(design: &SchemaDesign) -> String {
    lint(design).to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlnf_model::prelude::*;

    fn example3_design() -> SchemaDesign {
        let schema = TableSchema::new(
            "purchase",
            ["order_id", "item", "catalog", "price"],
            &["order_id", "item", "price"],
        );
        let sigma = Sigma::new().with(Fd::certain(
            schema.set(&["order_id", "item", "catalog"]),
            schema.attrs(),
        ));
        SchemaDesign::new(schema, sigma)
    }

    #[test]
    fn example3_lint() {
        let report = lint(&example3_design());
        assert!(!report.bcnf);
        assert_eq!(report.sql_bcnf, Some(false));
        assert!(report.normalizable);
        assert!(!report.is_clean());
        assert_eq!(report.findings[0].severity, Severity::ValueRedundancy);
        let (table, pos) = report.witness.as_ref().expect("witness");
        assert!(crate::redundancy::is_redundant(
            table,
            example3_design().sigma(),
            *pos
        ));
        let rendered = report.to_string();
        assert!(rendered.contains("VALUE-REDUNDANCY"));
        assert!(rendered.contains("witness instance"));
    }

    #[test]
    fn clean_design_lint() {
        let schema = TableSchema::new("t", ["a", "b"], &["a", "b"]);
        let sigma = Sigma::new().with(Key::certain(schema.set(&["a"])));
        let report = lint(&SchemaDesign::new(schema, sigma));
        assert!(report.bcnf);
        assert_eq!(report.sql_bcnf, Some(true));
        assert!(report.is_clean());
        assert!(report.witness.is_none());
        assert!(report.to_string().contains("redundancy-free"));
    }

    #[test]
    fn possible_constraints_flagged() {
        let schema = TableSchema::new("t", ["a", "b", "c"], &[]);
        let sigma = Sigma::new().with(Fd::possible(schema.set(&["a"]), schema.set(&["b"])));
        let report = lint(&SchemaDesign::new(schema, sigma));
        assert_eq!(report.sql_bcnf, None);
        assert!(!report.normalizable);
        assert!(!report.bcnf);
        // The p-FD violation shows up with a witness.
        assert!(report.witness.is_some());
        assert!(report.to_string().contains("n/a"));
    }

    #[test]
    fn null_only_redundancy_ranked_below_value_redundancy() {
        // (oic, oi, {oic ->w c}): SQL-BCNF but not BCNF — only null
        // markers can be redundant.
        let schema = TableSchema::new("oic", ["o", "i", "c"], &["o", "i"]);
        let sigma = Sigma::new().with(Fd::certain(schema.attrs(), schema.set(&["c"])));
        let report = lint(&SchemaDesign::new(schema, sigma));
        assert!(!report.bcnf);
        assert_eq!(report.sql_bcnf, Some(true));
        assert!(!report.is_clean());
        assert_eq!(report.findings[0].severity, Severity::NullRedundancy);
    }
}
