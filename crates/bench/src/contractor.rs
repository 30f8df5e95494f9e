//! E4: Algorithm 3 on `contractor` (Section 7).

use crate::Claim;
use sqlnf_core::decompose::{vrnf_decompose, Decomposition};
use sqlnf_datagen::contractor::{contractor, contractor_sigma};
use sqlnf_model::prelude::*;
use std::collections::HashMap;

/// The paper's redundant values eliminated per column (448 in all).
const PAPER_VALUES: [(&str, usize); 5] = [
    ("dmerc_rgn", 1),
    ("status", 135),
    ("contractor_version", 106),
    ("status_flag", 106),
    ("url", 100),
];

/// The paper's redundant `dmerc_rgn` nulls eliminated.
const PAPER_DMERC_NULLS: usize = 134;

/// E4's data: the contractor table, its three λ-FDs, their VRNF
/// decomposition by Algorithm 3 with the component instances, and the
/// redundant occurrences the decomposition eliminates per column.
/// `exp_contractor` prints it; a root test asserts the paper's numbers.
#[derive(Debug, Clone)]
pub struct Contractor {
    /// The generated 173 × 22 table.
    pub table: Table,
    /// The three λ-FDs.
    pub sigma: Sigma,
    /// Algorithm 3's output.
    pub decomposition: Decomposition,
    /// The components' instances.
    pub parts: Vec<Table>,
    /// `(column, redundant values, redundant nulls)` eliminated per
    /// RHS column, in the paper's column order: the occurrences beyond
    /// the first of each group of rows agreeing on the FD's LHS.
    pub eliminated: Vec<(&'static str, usize, usize)>,
}

impl Contractor {
    /// Normalizes `contractor(seed)` by Algorithm 3.
    pub fn normalize(seed: u64) -> Contractor {
        let table = contractor(seed);
        let schema = table.schema().clone();
        let sigma = contractor_sigma(&schema);
        let decomposition = vrnf_decompose(schema.attrs(), schema.nfs(), &sigma)
            .expect("total FDs in, decomposition out");
        let parts = decomposition.apply(&table);

        let mut by_column: HashMap<&str, (usize, usize)> = HashMap::new();
        for fd in &sigma.fds {
            for a in fd.rhs - fd.lhs {
                // Group rows by LHS value and count per-group extras.
                let mut seen: HashMap<Vec<Value>, (Value, usize)> = HashMap::new();
                for t in table.iter() {
                    let key: Vec<Value> = fd.lhs.iter().map(|x| t.get(x).clone()).collect();
                    let e = seen.entry(key).or_insert_with(|| (t.get(a).clone(), 0));
                    e.1 += 1;
                }
                let tally = by_column.entry(schema.column_name(a)).or_default();
                for (v, count) in seen.values() {
                    if v.is_null() {
                        tally.1 += count - 1;
                    } else {
                        tally.0 += count - 1;
                    }
                }
            }
        }
        let eliminated = PAPER_VALUES
            .iter()
            .map(|&(col, _)| {
                let (values, nulls) = by_column.get(col).copied().unwrap_or_default();
                (col, values, nulls)
            })
            .collect();

        Contractor {
            table,
            sigma,
            decomposition,
            parts,
            eliminated,
        }
    }

    /// `(attributes, rows)` per component, sorted.
    pub fn shape(&self) -> Vec<(usize, usize)> {
        let mut shape: Vec<(usize, usize)> = self
            .decomposition
            .components
            .iter()
            .zip(&self.parts)
            .map(|(c, p)| (c.attrs.len(), p.len()))
            .collect();
        shape.sort();
        shape
    }

    /// Cells over all components.
    pub fn cells_after(&self) -> usize {
        self.parts.iter().map(Table::cell_count).sum()
    }

    /// Redundant data values eliminated over all columns.
    pub fn values_eliminated(&self) -> usize {
        self.eliminated.iter().map(|&(_, values, _)| values).sum()
    }

    /// The per-column breakdown of the eliminated occurrences matches
    /// the paper, and the decomposition is lossless.
    pub fn claims(&self) -> Vec<Claim> {
        let values = self.eliminated.iter().map(|&(col, v, _)| (col, v));
        let dmerc_nulls = self.eliminated[0].2; // dmerc_rgn comes first
        vec![
            Claim::new(
                "per-column breakdown matches the paper (1/135/106/106/100 + 134 nulls) ✓",
                values.eq(PAPER_VALUES) && dmerc_nulls == PAPER_DMERC_NULLS,
            ),
            Claim::new(
                "join of all four components reproduces the 173-row table (lossless) ✓",
                self.decomposition.is_lossless_on(&self.table),
            ),
        ]
    }
}
