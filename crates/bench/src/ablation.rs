//! A1: ablations of the null-row probe and of Algorithm 3's pick
//! order, and the update anomalies normalization removes.

use crate::{timed, Claim, Contractor};
use sqlnf_core::anomaly::anomaly_score;
use sqlnf_core::decompose::{split_by_fd, vrnf_decompose};
use sqlnf_datagen::naumann::adult_like;
use sqlnf_discovery::check::{fd_holds, fd_targets_holding, partition_for, Semantics};
use sqlnf_discovery::partition::Encoded;
use sqlnf_model::prelude::*;
use std::time::Duration;

/// A1's data. `exp_ablation` prints it; a root test asserts
/// [`Ablation::claims`]. The probe timings are printed, never asserted.
#[derive(Debug, Clone)]
pub struct Ablation {
    /// A1.1: the c-FD's verdict and time under the pattern-indexed
    /// probe (shipped).
    pub indexed: (bool, Duration),
    /// A1.1: the same under the naive all-rows scan.
    pub naive: (bool, Duration),
    /// A1.2: contractor's cells after Algorithm 3's deferred pick
    /// order (shipped).
    pub cells: usize,
    /// A1.2: the same after the naive first-found order.
    pub naive_cells: usize,
    /// A1.3: bound positions (update anomalies) of contractor under Σ.
    pub anomalies_before: usize,
    /// A1.3: the same summed over the normalized components.
    pub anomalies_after: usize,
}

impl Ablation {
    /// Runs the three ablations: A1.1 on a 12,000-row slice of
    /// `adult_like(7)`, A1.2 and A1.3 on `contractor(seed)`.
    pub fn run(seed: u64) -> Ablation {
        let (indexed, naive) = probe_ablation();
        let c = Contractor::normalize(seed);
        let (table, sigma) = (&c.table, &c.sigma);

        // Naive order simulation: decompose by FD3 first (the
        // url-producing FD), then continue with the shipped algorithm
        // on the remainder — this replays the inflated run observed
        // before the heuristic.
        let (t, nfs) = (table.schema().attrs(), table.schema().nfs());
        let fd3 = sigma.fds[2];
        let (rest_attrs, xy_attrs) = split_by_fd(t, &fd3);
        // FD2's LHS lost `url`; its surviving consequence has the FD3
        // LHS substituted in, which is what a naive order must
        // decompose by.
        let inflated_lhs = (sigma.fds[1].lhs - xy_attrs) | fd3.lhs;
        let inflated = Fd::certain(
            inflated_lhs,
            inflated_lhs | (sigma.fds[1].rhs - sigma.fds[1].lhs),
        );
        let rest_sigma = Sigma {
            fds: vec![sigma.fds[0]],
            keys: vec![],
        }
        .with(inflated);
        let d_rest = vrnf_decompose(rest_attrs, nfs & rest_attrs, &rest_sigma).unwrap();
        // d_rest's components carry original attribute ids, so they
        // apply to the original table directly (projections compose).
        let mut naive_cells = sqlnf_model::project::project_set(table, xy_attrs, "xy").cell_count();
        for part in d_rest.apply(table) {
            naive_cells += part.cell_count();
        }

        let mut anomalies_after = 0usize;
        for (comp, part) in c.decomposition.components.iter().zip(&c.parts) {
            // Translate the component's sigma into the part's indices.
            let translate =
                |set: AttrSet| table.schema().translate_into_projection(comp.attrs, set);
            let mut local = Sigma::new();
            for fd in &comp.sigma.fds {
                local.add(Fd {
                    lhs: translate(fd.lhs),
                    rhs: translate(fd.rhs),
                    modality: fd.modality,
                });
            }
            for k in &comp.sigma.keys {
                local.add(Key {
                    attrs: translate(k.attrs),
                    modality: k.modality,
                });
            }
            anomalies_after += anomaly_score(part, &local);
        }

        Ablation {
            indexed,
            naive,
            cells: c.cells_after(),
            naive_cells,
            anomalies_before: anomaly_score(table, sigma),
            anomalies_after,
        }
    }

    /// The shipped choices are confirmed: the index and the scan agree,
    /// the deferred order yields fewer cells, and the normalized
    /// schema is anomaly-free while the base has at least one anomaly
    /// per redundant value.
    pub fn claims(&self) -> Vec<Claim> {
        vec![
            Claim::new(
                "the probe index and the naive scan agree on the c-FD",
                self.indexed.0 == self.naive.0,
            ),
            Claim::new(
                "the deferred pick order yields fewer cells than the naive one",
                self.naive_cells > self.cells,
            ),
            Claim::new("VRNF output is anomaly-free", self.anomalies_after == 0),
            Claim::new(
                "anomalies cover at least the 448 redundant values",
                self.anomalies_before >= 448,
            ),
        ]
    }
}

/// A1.1: a holding c-FD with nulls in its LHS is the probe's worst case
/// (no early exit): education determines education_num, and the
/// nullable workclass is padding in the LHS. A 12k-row adult slice
/// keeps the naive side affordable.
fn probe_ablation() -> ((bool, Duration), (bool, Duration)) {
    let full = adult_like(7);
    let adult = Table::from_rows(
        full.schema().clone(),
        full.iter().take(12_000).map(|r| r.to_tuple()),
    );
    let enc = Encoded::new(&adult);
    let s = adult.schema();
    let x = s.set(&["education", "workclass"]);
    let target = s.a("education_num");
    let indexed = timed(|| fd_holds(&enc, x, target, Semantics::Certain));
    let naive = timed(|| naive_cfd_holds(&enc, adult.len(), x, target));
    (indexed, naive)
}

/// Naive reference for the weak-pair probe: scan every row per
/// null-bearing row.
fn naive_cfd_holds(enc: &Encoded, rows: usize, x: AttrSet, a: Attr) -> bool {
    // Partition part is shared; re-do the null probing naively.
    let p = partition_for(enc, x, Semantics::Possible);
    let within = fd_targets_holding(enc, x, &p, AttrSet::single(a), Semantics::Possible, None);
    if within.is_empty() {
        return false;
    }
    for r in 0..rows {
        if enc.is_total_on(r, x) {
            continue;
        }
        for s in 0..rows {
            if s != r && enc.weakly_similar(r, s, x) && enc.code(r, a) != enc.code(s, a) {
                return false;
            }
        }
    }
    true
}
