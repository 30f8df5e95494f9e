//! Update-anomaly accounting.
//!
//! Section 1 motivates normalization by update cost: "all occurrences
//! of a redundant data value must be modified consistently". This
//! module quantifies that cost on instances — the paper's future-work
//! item (ii) asks what the normal forms achieve in terms of update
//! anomalies, and the *fan-out* below is the natural measure: how many
//! positions must change in lockstep when one cell is modified.
//!
//! For a position `p = (row, col)`, two rows are *co-bound on `col`*
//! when some FD `X → Y ∈ Σ` with `col ∈ Y − X` makes them (strongly or
//! weakly, per the FD's modality) similar on `X`: the FD then forces
//! their `col`-values to stay equal — and because `col` lies outside
//! `X`, editing the cell cannot escape by breaking the `X`-agreement.
//! Equality must hold along chains of such pairs, so the **update
//! fan-out** of `p` is the size of `p`'s connected component in the
//! co-binding graph. Fan-out 1 means the cell can be edited alone (no
//! anomaly); the schema-level theorems say VRNF schemata admit only
//! fan-out-1 non-null positions. (Positions bound through *internal*
//! FD parts — `col ∈ X ∩ Y` — can always deflect an update by breaking
//! the similarity, except via null markers; that residue is what the
//! redundancy module's Definition-4 analysis accounts for.)

use sqlnf_model::attrs::Attr;
use sqlnf_model::constraint::{Modality, Sigma};
use sqlnf_model::similarity::Agreement;
use sqlnf_model::table::Table;

/// Union-find over row indices.
struct Dsu(Vec<u32>);

impl Dsu {
    fn new(n: usize) -> Dsu {
        Dsu((0..n as u32).collect())
    }
    fn find(&mut self, x: u32) -> u32 {
        if self.0[x as usize] != x {
            let root = self.find(self.0[x as usize]);
            self.0[x as usize] = root;
            root
        } else {
            x
        }
    }
    fn union(&mut self, a: u32, b: u32) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.0[ra as usize] = rb;
        }
    }
}

/// The update fan-out of every row for column `col`: `fanout[r]` is the
/// number of rows whose `col`-value is transitively bound to row `r`'s.
pub fn update_fanout_column(table: &Table, sigma: &Sigma, col: Attr) -> Vec<usize> {
    let n = table.len();
    let mut dsu = Dsu::new(n);
    for fd in &sigma.fds {
        if !(fd.rhs - fd.lhs).contains(col) {
            continue;
        }
        for i in 0..n {
            for j in i + 1..n {
                let agree = |a| Agreement::of(table.value(i, a), table.value(j, a));
                let bound = match fd.modality {
                    Modality::Possible => fd.lhs.iter().all(|a| agree(a).strongly_similar()),
                    Modality::Certain => fd.lhs.iter().all(|a| agree(a).weakly_similar()),
                };
                if bound {
                    dsu.union(i as u32, j as u32);
                }
            }
        }
    }
    let mut sizes = vec![0usize; n];
    let roots: Vec<u32> = (0..n as u32).map(|r| dsu.find(r)).collect();
    for &r in &roots {
        sizes[r as usize] += 1;
    }
    roots.iter().map(|&r| sizes[r as usize]).collect()
}

/// Aggregate update-cost statistics for one column.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ColumnUpdateCost {
    /// Column measured.
    pub col: Attr,
    /// Largest lock-step group.
    pub max_fanout: usize,
    /// Mean fan-out over rows (1.0 = anomaly-free).
    pub mean_fanout: f64,
    /// Number of positions with fan-out > 1 (each is an update
    /// anomaly waiting to happen).
    pub bound_positions: usize,
}

/// Update-cost statistics for every column of the instance.
pub fn update_cost_report(table: &Table, sigma: &Sigma) -> Vec<ColumnUpdateCost> {
    let mut out = Vec::new();
    for col in table.schema().attrs() {
        let fanout = update_fanout_column(table, sigma, col);
        let n = fanout.len().max(1);
        out.push(ColumnUpdateCost {
            col,
            max_fanout: fanout.iter().copied().max().unwrap_or(1),
            mean_fanout: fanout.iter().sum::<usize>() as f64 / n as f64,
            bound_positions: fanout.iter().filter(|&&f| f > 1).count(),
        });
    }
    out
}

/// Total number of bound (fan-out > 1) positions across all columns —
/// a one-number update-anomaly score for an instance under Σ.
pub fn anomaly_score(table: &Table, sigma: &Sigma) -> usize {
    update_cost_report(table, sigma)
        .iter()
        .map(|c| c.bound_positions)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlnf_model::prelude::*;

    /// Figure 1 with ic →_w p: the three Fitbit-240s form one bound
    /// group (rows 0–1 via Amazon/Brookstone? no — via item,catalog
    /// agreement: rows 0 and 2 share (Fitbit, Amazon); row 1 differs on
    /// catalog), so fan-out is 2 for rows 0 and 2.
    #[test]
    fn figure1_price_fanout() {
        let t = TableBuilder::new("p", ["o", "i", "c", "pr"], &[])
            .row(tuple![1i64, "FS", "Amazon", 240i64])
            .row(tuple![1i64, "FS", "Brookstone", 240i64])
            .row(tuple![2i64, "FS", "Amazon", 240i64])
            .row(tuple![2i64, "DD", "Kingtoys", 25i64])
            .build();
        let s = t.schema().clone();
        let sigma = Sigma::new().with(Fd::certain(s.set(&["i", "c"]), s.set(&["pr"])));
        let fanout = update_fanout_column(&t, &sigma, s.a("pr"));
        assert_eq!(fanout, vec![2, 1, 2, 1]);
        let score = anomaly_score(&t, &sigma);
        assert_eq!(score, 2);
    }

    /// Weak similarity chains: NULL catalog links the Amazon and
    /// Brookstone groups transitively, binding all three 240s.
    #[test]
    fn weak_chains_extend_fanout() {
        let t = TableBuilder::new("p", ["o", "i", "c", "pr"], &[])
            .row(tuple![1i64, "FS", "Amazon", 240i64])
            .row(tuple![1i64, "FS", null, 240i64])
            .row(tuple![2i64, "FS", "Brookstone", 240i64])
            .build();
        let s = t.schema().clone();
        let sigma = Sigma::new().with(Fd::certain(s.set(&["i", "c"]), s.set(&["pr"])));
        let fanout = update_fanout_column(&t, &sigma, s.a("pr"));
        assert_eq!(fanout, vec![3, 3, 3]);
        // Under the possible FD, the NULL row binds to nothing.
        let sigma_p = Sigma::new().with(Fd::possible(s.set(&["i", "c"]), s.set(&["pr"])));
        let fanout_p = update_fanout_column(&t, &sigma_p, s.a("pr"));
        assert_eq!(fanout_p, vec![1, 1, 1]);
    }

    /// Normalization eliminates the anomaly: the set projection stores
    /// each bound group once, so every fan-out drops to 1.
    #[test]
    fn normalization_removes_anomalies() {
        let t = TableBuilder::new("p", ["o", "i", "c", "pr"], &["o", "i", "c", "pr"])
            .row(tuple![1i64, "FS", "Amazon", 240i64])
            .row(tuple![1i64, "FS", "Brookstone", 240i64])
            .row(tuple![2i64, "FS", "Amazon", 240i64])
            .build();
        let s = t.schema().clone();
        let fd = Fd::certain(s.set(&["i", "c"]), s.set(&["i", "c", "pr"]));
        let sigma = Sigma::new().with(fd);
        assert!(anomaly_score(&t, &sigma) > 0);
        let (_, xy) = crate::decompose::decompose_instance_by_cfd(&t, &fd);
        let xys = xy.schema().clone();
        let child_sigma = Sigma::new().with(Key::certain(xys.set(&["i", "c"])));
        assert_eq!(anomaly_score(&xy, &child_sigma), 0);
    }

    /// Unconstrained columns are always fan-out 1.
    #[test]
    fn unconstrained_columns_are_free() {
        let t = TableBuilder::new("r", ["a", "b"], &[])
            .row(tuple![1i64, 1i64])
            .row(tuple![1i64, 1i64])
            .build();
        let sigma = Sigma::new();
        for c in t.schema().attrs() {
            assert_eq!(update_fanout_column(&t, &sigma, c), vec![1, 1]);
        }
        assert_eq!(anomaly_score(&t, &sigma), 0);
    }

    #[test]
    fn report_covers_all_columns() {
        let t = TableBuilder::new("r", ["a", "b"], &[])
            .row(tuple![7i64, 1i64])
            .row(tuple![7i64, 2i64])
            .build();
        let s = t.schema().clone();
        let sigma = Sigma::new().with(Fd::certain(s.set(&["b"]), s.set(&["a"])));
        let report = update_cost_report(&t, &sigma);
        assert_eq!(report.len(), 2);
        let a = &report[0];
        assert_eq!(a.max_fanout, 1); // distinct b's bind nothing
        assert_eq!(a.bound_positions, 0);
    }
}
