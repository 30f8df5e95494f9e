//! E5: consistency validation and querying, normalized versus not
//! (Section 7).

use crate::{median_run, Claim, Contractor};
use sqlnf_model::prelude::*;
use std::time::Duration;

/// Runs per timed operation (median taken).
const RUNS: usize = 5;

/// E5's data: `contractor` and its normalized components, each scaled
/// by a cross product with a `new` column of 1..=1000, then the c-FD
/// validated on the scaled table, the c-key on the scaled FD1
/// component, and all rows selected from the table and from the join
/// of the components. `exp_performance` prints it; a release test
/// asserts the verdicts and row counts. The times are printed, never
/// asserted.
#[derive(Debug, Clone)]
pub struct Performance {
    /// Rows of the scaled table.
    pub rows: usize,
    /// Rows of each scaled component.
    pub part_rows: Vec<usize>,
    /// Whether the c-FD `new, city, url →_w dmerc_rgn, status` holds on
    /// the scaled table, and the median time to validate it.
    pub cfd: (bool, Duration),
    /// Whether the c-key `c⟨new, city, url⟩` holds on the scaled FD1
    /// component, and the median time to validate it.
    pub ckey: (bool, Duration),
    /// Rows selected from the scaled table, and the median time.
    pub select: (usize, Duration),
    /// Rows of the join of the scaled components, and the median time.
    pub join: (usize, Duration),
}

impl Performance {
    /// Normalizes `contractor(seed)` at base scale, scales both
    /// representations by 1000 and times the four operations.
    pub fn run(seed: u64) -> Performance {
        let c = Contractor::normalize(seed);
        let scaled = scale(&c.table, 1000);
        let scaled_parts: Vec<Table> = c.parts.iter().map(|p| scale(p, 1000)).collect();

        // --- Consistency validation ---
        let ss = scaled.schema();
        let cfd = Fd::certain(
            ss.set(&["new", "city", "url"]),
            ss.set(&["dmerc_rgn", "status"]),
        );
        let cfd = median_run(RUNS, || satisfies_fd(&scaled, &cfd));

        // The normalized component carrying (city, url, dmerc_rgn, status).
        let table1 = scaled_parts
            .iter()
            .find(|t| t.schema().attr("dmerc_rgn").is_some() && t.schema().arity() == 5)
            .expect("FD1 component (plus the new column)");
        let ckey = Key::certain(table1.schema().set(&["new", "city", "url"]));
        let ckey = median_run(RUNS, || satisfies_key(table1, &ckey));

        // --- Query: select all vs join of components ---
        // "Select all" materializes a result set (as the paper's DBMS
        // does); the normalized variant materializes the same result
        // via the equality join of all four components.
        let select = median_run(RUNS, || {
            let result =
                Table::from_rows(scaled.schema().clone(), scaled.iter().map(|r| r.to_tuple()));
            std::hint::black_box(&result).len()
        });
        let join = median_run(RUNS, || {
            let joined = join_all(scaled_parts.iter(), "joined");
            std::hint::black_box(&joined).len()
        });

        Performance {
            rows: scaled.len(),
            part_rows: scaled_parts.iter().map(Table::len).collect(),
            cfd,
            ckey,
            select,
            join,
        }
    }

    /// How many times cheaper validating the c-key on the normalized
    /// component is than validating the c-FD (the paper: ≈ 8.1×).
    pub fn validation_gain(&self) -> f64 {
        self.cfd.1.as_secs_f64() / self.ckey.1.as_secs_f64().max(1e-9)
    }

    /// How many times slower the join of the components is than
    /// selecting from the table (the paper: ≈ 1.07×).
    pub fn query_cost(&self) -> f64 {
        self.join.1.as_secs_f64() / self.select.1.as_secs_f64().max(1e-9)
    }

    /// Both constraints hold on the scaled data, and the join of the
    /// components returns exactly the table's rows.
    pub fn claims(&self) -> Vec<Claim> {
        vec![
            Claim::new("the c-FD holds on the scaled table", self.cfd.0),
            Claim::new("the c-key holds on the scaled FD1 component", self.ckey.0),
            Claim::new("select-all returns every row", self.select.0 == self.rows),
            Claim::new(
                "the join of the components returns every row",
                self.join.0 == self.rows,
            ),
        ]
    }
}

/// Cross product with a `new` column of 1..=n.
fn scale(table: &Table, n: i64) -> Table {
    let mut numbers = Table::new(TableSchema::new("numbers", ["new"], &["new"]));
    for i in 1..=n {
        numbers.push(tuple![i]);
    }
    join(&numbers, table, format!("{}_x{n}", table.schema().name()))
}
