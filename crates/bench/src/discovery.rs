//! E6: classical versus c-FD discovery on the Naumann-style data sets
//! (Section 7, "Discovering c-FDs").

use crate::{median_run, Claim};
use sqlnf_datagen::naumann::{adult_like, breast_cancer_like, hepatitis_like, million_like};
use sqlnf_discovery::check::Semantics;
use sqlnf_discovery::mine::{mine_fds, MinerConfig};
use sqlnf_model::table::Table;
use std::time::Duration;

/// One data set's row of E6's table.
#[derive(Debug, Clone)]
pub struct DiscoveryRow {
    /// The data set.
    pub name: &'static str,
    /// Its columns.
    pub cols: usize,
    /// Its rows.
    pub rows: usize,
    /// Minimal classical FDs (one per RHS attribute) and the median
    /// time to mine them.
    pub classical: (usize, Duration),
    /// The same for c-FDs.
    pub certain: (usize, Duration),
    /// The same under the weak semantics, beyond the paper's table.
    pub weak: (usize, Duration),
}

impl DiscoveryRow {
    /// Mines `table` under the three semantics, with LHSs of at most
    /// `max_lhs` attributes: a median of three runs for small tables,
    /// one run for tables over 10,000 rows.
    fn mine(name: &'static str, table: &Table, max_lhs: usize) -> DiscoveryRow {
        let runs = if table.len() > 10_000 { 1 } else { 3 };
        let mine = |sem: Semantics| {
            let config = MinerConfig::new(sem).with_max_lhs(max_lhs);
            median_run(runs, || mine_fds(table, config).fd_count_attrwise())
        };
        DiscoveryRow {
            name,
            cols: table.schema().arity(),
            rows: table.len(),
            classical: mine(Semantics::Classical),
            certain: mine(Semantics::Certain),
            weak: mine(Semantics::Weak),
        }
    }
}

/// E6's data: one [`DiscoveryRow`] per data set. `exp_discovery`
/// prints it; a release test asserts [`DiscoveryTable::claims`]. The
/// times are printed, never asserted.
#[derive(Debug, Clone)]
pub struct DiscoveryTable {
    /// breast-cancer, adult and hepatitis (LHS cap 4), then the
    /// million-row telemetry table (LHS cap 3).
    pub rows: Vec<DiscoveryRow>,
}

impl DiscoveryTable {
    /// Mines the seeded data sets.
    pub fn of_naumann(seed: u64) -> DiscoveryTable {
        let mut rows = vec![
            DiscoveryRow::mine("breast-cancer", &breast_cancer_like(seed), 4),
            DiscoveryRow::mine("adult", &adult_like(seed), 4),
            DiscoveryRow::mine("hepatitis", &hepatitis_like(seed), 4),
        ];
        // Beyond the paper's table: the million-row telemetry regime
        // the columnar dictionary-code storage targets (8
        // low-cardinality columns, planted site→region and
        // device_class→firmware FDs). LHS capped at 3 — at this scale
        // the interesting comparison is rows/second, not lattice
        // depth. Built after the paper tables are measured so its
        // ~350 MB of row storage doesn't sit on the heap (and in the
        // allocator's free lists) during their timings.
        rows.push(DiscoveryRow::mine("million", &million_like(seed), 3));
        DiscoveryTable { rows }
    }

    /// The row of data set `name`.
    pub fn row(&self, name: &str) -> &DiscoveryRow {
        self.rows
            .iter()
            .find(|r| r.name == name)
            .unwrap_or_else(|| panic!("no data set {name}"))
    }

    /// The wide-short hepatitis regime explodes with accidental
    /// classical FDs while its c-FD count stays moderate.
    pub fn claims(&self) -> Vec<Claim> {
        let hep = self.row("hepatitis").classical.0;
        vec![
            Claim::new(
                "hepatitis has over 5× more classical FDs than c-FDs",
                hep > 5 * self.row("hepatitis").certain.0,
            ),
            Claim::new(
                "hepatitis dominates the classical counts",
                hep > self.row("breast-cancer").classical.0 && hep > self.row("adult").classical.0,
            ),
        ]
    }
}
