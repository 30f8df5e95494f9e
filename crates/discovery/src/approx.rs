//! Approximate satisfaction of a certain key: how far an instance is
//! from satisfying `c⟨X⟩`, as the fraction of rows to delete (the `g₃`
//! measure of the FD-discovery literature).
//!
//! Section 7's Figure 6 analysis attributes the high projection-ratio
//! λ-FD population to LHSs that "should really be certain keys, but are
//! not due to dirty data". The g₃ error makes that observation
//! quantitative: a near-key LHS has a small key error (few offending
//! rows), while a genuinely compressing FD has a large one.
//!
//! Weak similarity forms an arbitrary conflict graph, and the optimum
//! is NP-hard (minimum vertex deletion), so [`ckey_error`] returns the
//! exact strong-group part plus a greedy bound for the null-involved
//! part: exact whenever no row carries `⊥` in `X` — the common case —
//! and always an upper bound on the true g₃. Weak similarity has no
//! partition, so the null-involved part enumerates weak pairs.

use crate::check::probe_weak_pairs;
use crate::partition::{Encoded, NullSemantics, Partition};
use sqlnf_model::attrs::AttrSet;

/// Upper bound on the g₃ error of the c-key `c⟨X⟩`: the exact
/// strong-group excess plus a greedy vertex-deletion bound over the
/// weak-similarity pairs involving `⊥`-carrying rows. Exact when no
/// row has `⊥` in `X`; 0.0 on empty instances.
pub fn ckey_error(enc: &Encoded, x: AttrSet) -> f64 {
    if enc.rows() == 0 {
        return 0.0;
    }
    let mut removed: Vec<bool> = vec![false; enc.rows()];
    // Strong groups: keep one representative, drop the rest.
    let mut cost = 0usize;
    for class in &Partition::by_set(enc, x, NullSemantics::Strong).classes {
        for &r in &class[1..] {
            removed[r as usize] = true;
            cost += 1;
        }
    }
    // Weak pairs through nulls: greedily delete the null-bearing side
    // (it conflicts with everything weakly matching it).
    probe_weak_pairs(enc, x, |r, s| {
        if !removed[r] && !removed[s] {
            // Prefer removing the row with ⊥ in X (it is the hub).
            let victim = if enc.is_total_on(r, x) { s } else { r };
            removed[victim] = true;
            cost += 1;
        }
        true
    });
    cost as f64 / enc.rows() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlnf_model::prelude::*;

    fn enc(t: &Table) -> Encoded {
        Encoded::new(t)
    }

    #[test]
    fn near_key_has_small_error() {
        // 9 distinct + 1 duplicate: key error 10%. This is the paper's
        // "dirty almost-key" shape.
        let mut b = TableBuilder::new("r", ["a"], &[]);
        for i in 0..9 {
            b = b.row(Tuple::new(vec![Value::Int(i)]));
        }
        let t = b.row(tuple![0i64]).build();
        let e = enc(&t);
        assert!((ckey_error(&e, AttrSet::from_indices([0])) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn certain_errors_account_for_nulls() {
        // (⊥) weakly matches both values: c-key error removes it (1/3),
        // though the three rows are pairwise strongly dissimilar.
        let t = TableBuilder::new("r", ["a"], &[])
            .row(tuple![1i64])
            .row(tuple![null])
            .row(tuple![2i64])
            .build();
        let e = enc(&t);
        let a = AttrSet::from_indices([0]);
        assert!((ckey_error(&e, a) - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_table_is_error_free() {
        let t = Table::new(TableSchema::new("r", ["a"], &[]));
        let e = enc(&t);
        assert_eq!(ckey_error(&e, AttrSet::from_indices([0])), 0.0);
    }
}
