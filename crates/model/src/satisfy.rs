//! Constraint satisfaction on instances (Definition 1 and the key
//! notions of Section 2).
//!
//! Checking is exact and uses a hash-grouping fast path for the
//! `X`-total part of the instance (strong similarity and equality are
//! transitive there), falling back to pairwise comparison only for
//! tuples carrying a null marker in the LHS — the part where weak
//! similarity loses transitivity. Rows are compared by their
//! dictionary codes: within one table code equality is value equality
//! (`⊥ = ⊥` included), and code `0` is `⊥`.

use crate::attrs::AttrSet;
use crate::constraint::{Constraint, Fd, Key, Modality, Sigma};
use crate::table::Table;
use std::collections::HashMap;

/// A witness that an instance violates a constraint: the indices of two
/// rows (possibly with equal values — tables are multisets, so two rows
/// are distinct tuples regardless of their values).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ViolatingPair {
    /// Index of the first row.
    pub row_a: usize,
    /// Index of the second row.
    pub row_b: usize,
}

/// `t[X] = t'[X]` for rows `r` and `s`.
fn equal_on(table: &Table, r: usize, s: usize, x: AttrSet) -> bool {
    x.iter().all(|a| table.code_at(r, a) == table.code_at(s, a))
}

/// `t[X] ∼_w t'[X]` for rows `r` and `s`: equal codes, or one is `⊥`.
fn codes_weakly_similar(table: &Table, r: usize, s: usize, x: AttrSet) -> bool {
    x.iter().all(|a| {
        let (c, d) = (table.code_at(r, a), table.code_at(s, a));
        c == d || c == 0 || d == 0
    })
}

/// Groups the `X`-total rows of `table` by their `X`-projection
/// (syntactic equality; on `X`-total rows this equals strong similarity).
/// Returns the groups and the list of rows that are not `X`-total.
fn split_on(table: &Table, x: AttrSet) -> (HashMap<Vec<u32>, Vec<usize>>, Vec<usize>) {
    let mut groups: HashMap<Vec<u32>, Vec<usize>> = HashMap::new();
    let mut nulls: Vec<usize> = Vec::new();
    for i in 0..table.len() {
        let key: Vec<u32> = x.iter().map(|a| table.code_at(i, a)).collect();
        if key.contains(&0) {
            nulls.push(i);
        } else {
            groups.entry(key).or_default().push(i);
        }
    }
    (groups, nulls)
}

/// Finds a pair violating the FD, if any.
///
/// `X →_s Y` is violated by a pair strongly similar on `X` with unequal
/// `Y`; `X →_w Y` by a pair weakly similar on `X` with unequal `Y`.
pub fn fd_violation(table: &Table, fd: &Fd) -> Option<ViolatingPair> {
    let (groups, nulls) = split_on(table, fd.lhs);
    sqlnf_obs::count!("model.satisfy.fastpath_rows", table.len() - nulls.len());

    // Pairs within an X-total group are strongly (hence weakly) similar
    // on X: all group members must agree on Y.
    for rows in groups.values() {
        if rows.len() < 2 {
            continue;
        }
        let first = rows[0];
        for &r in &rows[1..] {
            sqlnf_obs::count!("model.satisfy.pair_comparisons");
            if !equal_on(table, first, r, fd.rhs) {
                return Some(ViolatingPair {
                    row_a: first,
                    row_b: r,
                });
            }
        }
    }

    if fd.modality == Modality::Certain {
        // Rows with a null in X are weakly similar to anything matching
        // their non-null part; compare them against every row.
        for &i in &nulls {
            for j in 0..table.len() {
                if i == j {
                    continue;
                }
                sqlnf_obs::count!("model.satisfy.pair_comparisons");
                if codes_weakly_similar(table, i, j, fd.lhs) && !equal_on(table, i, j, fd.rhs) {
                    return Some(ViolatingPair { row_a: i, row_b: j });
                }
            }
        }
    }
    // For possible FDs, rows with a null in X are strongly similar to
    // nothing, so they cannot participate in a violation.
    None
}

/// Whether the instance satisfies the FD.
pub fn satisfies_fd(table: &Table, fd: &Fd) -> bool {
    fd_violation(table, fd).is_none()
}

/// Finds a pair witnessing that **no** possible world of the instance
/// satisfies `X → Y` classically — the violation notion of *weak*
/// satisfaction (Levene/Loizou; Badia & Lemire's FDs with null
/// markers).
///
/// A completion is free to hand every `X`-incomplete row fresh values
/// (isolating it in its own group) and to fill a `⊥` on the RHS with
/// whatever its group agreed on, so the only unfixable conflict is two
/// `X`-total rows equal on `X` that carry *distinct non-null* values on
/// some attribute of `Y`. Equivalently: weak satisfaction is closed
/// under sub-instances and every violation is witnessed by a 2-row
/// sub-instance, which is what lets the 2-tuple implication oracle of
/// `sqlnf-core` cover weak FDs too.
pub fn weak_fd_violation(table: &Table, lhs: AttrSet, rhs: AttrSet) -> Option<ViolatingPair> {
    let (groups, _nulls) = split_on(table, lhs);
    for rows in groups.values() {
        if rows.len() < 2 {
            continue;
        }
        // First row carrying a non-null value per RHS attribute; a
        // later row disagreeing non-null is the witness. Tracking the
        // group head instead would be unsound (its `⊥` masks later
        // conflicts).
        for a in rhs {
            let mut seen: Option<usize> = None;
            for &r in rows {
                sqlnf_obs::count!("model.satisfy.pair_comparisons");
                let v = table.code_at(r, a);
                if v == 0 {
                    continue;
                }
                match seen {
                    None => seen = Some(r),
                    Some(first) if table.code_at(first, a) != v => {
                        return Some(ViolatingPair {
                            row_a: first,
                            row_b: r,
                        });
                    }
                    Some(_) => {}
                }
            }
        }
    }
    None
}

/// Whether *some* possible world of the instance satisfies `X → Y`
/// classically (weak FD satisfaction). See [`weak_fd_violation`].
pub fn satisfies_weak_fd(table: &Table, lhs: AttrSet, rhs: AttrSet) -> bool {
    weak_fd_violation(table, lhs, rhs).is_none()
}

/// Finds a pair violating the key, if any.
///
/// `p⟨X⟩` is violated by two rows strongly similar on `X`; `c⟨X⟩` by two
/// rows weakly similar on `X`. Rows are distinct by *identity*, so two
/// duplicate tuples violate both.
pub fn key_violation(table: &Table, key: &Key) -> Option<ViolatingPair> {
    let (groups, nulls) = split_on(table, key.attrs);
    sqlnf_obs::count!("model.satisfy.fastpath_rows", table.len() - nulls.len());

    for rows in groups.values() {
        if rows.len() >= 2 {
            return Some(ViolatingPair {
                row_a: rows[0],
                row_b: rows[1],
            });
        }
    }

    if key.modality == Modality::Certain {
        for &i in &nulls {
            for j in 0..table.len() {
                if i == j {
                    continue;
                }
                sqlnf_obs::count!("model.satisfy.pair_comparisons");
                if codes_weakly_similar(table, i, j, key.attrs) {
                    return Some(ViolatingPair { row_a: i, row_b: j });
                }
            }
        }
    }
    None
}

/// Whether the instance satisfies the key.
pub fn satisfies_key(table: &Table, key: &Key) -> bool {
    key_violation(table, key).is_none()
}

/// Whether the instance satisfies a constraint.
pub fn satisfies(table: &Table, c: &Constraint) -> bool {
    match c {
        Constraint::Fd(fd) => satisfies_fd(table, fd),
        Constraint::Key(k) => satisfies_key(table, k),
    }
}

/// Whether the instance satisfies every constraint of Σ *and* its NFS.
/// This is the paper's "table over `(T, T_S, Σ)`".
pub fn satisfies_all(table: &Table, sigma: &Sigma) -> bool {
    table.satisfies_nfs() && sigma.iter().all(|c| satisfies(table, &c))
}

/// Every constraint of Σ the instance violates (NFS violations are
/// reported via [`Table::satisfies_nfs`]).
pub fn violations(table: &Table, sigma: &Sigma) -> Vec<Constraint> {
    sigma.iter().filter(|c| !satisfies(table, c)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::similarity::weakly_similar;
    use crate::table::TableBuilder;
    use crate::tuple;
    use crate::value::Value;

    /// Figure 1's relation: satisfies item,catalog → price, violates the
    /// key {item, catalog}.
    fn purchase_fig1() -> Table {
        TableBuilder::new("purchase", ["order_id", "item", "catalog", "price"], &[])
            .row(tuple![5299401i64, "Fitbit Surge", "Amazon", 240i64])
            .row(tuple![5299401i64, "Fitbit Surge", "Brookstone", 240i64])
            .row(tuple![7485113i64, "Fitbit Surge", "Amazon", 240i64])
            .row(tuple![7485113i64, "Dora Doll", "Kingtoys", 25i64])
            .build()
    }

    /// The top instance of Figure 5 (catalog nullable).
    fn purchase_fig5() -> Table {
        TableBuilder::new(
            "purchase",
            ["order_id", "item", "catalog", "price"],
            &["order_id", "item", "price"],
        )
        .row(tuple![5299401i64, "Fitbit Surge", "Amazon", 240i64])
        .row(tuple![5299401i64, "Fitbit Surge", null, 240i64])
        .row(tuple![7485113i64, "Fitbit Surge", "Amazon", 240i64])
        .row(tuple![7485113i64, "Dora Doll", "Kingtoys", 25i64])
        .build()
    }

    #[test]
    fn fig1_fd_holds_key_fails() {
        let t = purchase_fig1();
        let s = t.schema().clone();
        let ic = s.set(&["item", "catalog"]);
        let p = s.set(&["price"]);
        assert!(satisfies_fd(&t, &Fd::possible(ic, p)));
        assert!(satisfies_fd(&t, &Fd::certain(ic, p)));
        assert!(!satisfies_key(&t, &Key::possible(ic)));
        assert!(!satisfies_key(&t, &Key::certain(ic)));
    }

    #[test]
    fn fig3_every_fd_no_key() {
        // Figure 3: two identical total tuples satisfy every FD but
        // violate every key.
        let t = TableBuilder::new("fig3", ["item", "catalog", "price"], &[])
            .row(tuple!["Fitbit Surge", "Amazon", 240i64])
            .row(tuple!["Fitbit Surge", "Amazon", 240i64])
            .build();
        let all = t.schema().attrs();
        for lhs in all.subsets() {
            for rhs in all.subsets() {
                assert!(satisfies_fd(&t, &Fd::possible(lhs, rhs)));
                assert!(satisfies_fd(&t, &Fd::certain(lhs, rhs)));
            }
            assert!(!satisfies_key(&t, &Key::possible(lhs)));
            assert!(!satisfies_key(&t, &Key::certain(lhs)));
        }
    }

    #[test]
    fn fig5_cfd_holds_pfd_holds() {
        let t = purchase_fig5();
        let s = t.schema().clone();
        let ic = s.set(&["item", "catalog"]);
        let p = s.set(&["price"]);
        // Both the p-FD and the c-FD item,catalog → price hold.
        assert!(satisfies_fd(&t, &Fd::possible(ic, p)));
        assert!(satisfies_fd(&t, &Fd::certain(ic, p)));
        // But item,catalog →_w item,catalog,price does NOT hold: rows 1
        // and 2 are weakly similar on ic yet differ on catalog.
        let icp = s.set(&["item", "catalog", "price"]);
        assert!(!satisfies_fd(&t, &Fd::certain(ic, icp)));
    }

    #[test]
    fn fig5_projection_keys() {
        // On I[icp] of Figure 5, p<item,catalog> holds but
        // c<item,catalog> does not.
        let t = purchase_fig5();
        let s = t.schema().clone();
        let icp = s.set(&["item", "catalog", "price"]);
        let proj = crate::project::project_set(&t, icp, "icp");
        let ps = proj.schema().clone();
        let ic = ps.set(&["item", "catalog"]);
        assert!(satisfies_key(&proj, &Key::possible(ic)));
        assert!(!satisfies_key(&proj, &Key::certain(ic)));
    }

    #[test]
    fn example2_matrix() {
        // The satisfaction matrix of Example 2 for possible and certain
        // FDs.
        let t = TableBuilder::new("emp", ["e", "d", "m", "s"], &[])
            .row(tuple!["Turing", "CS", "von Neumann", null])
            .row(tuple!["Turing", null, "Goedel", null])
            .build();
        let s = t.schema().clone();
        let f = |l: &[&str], r: &[&str], m: Modality| Fd {
            lhs: s.set(l),
            rhs: s.set(r),
            modality: m,
        };
        use Modality::*;
        assert!(!satisfies_fd(&t, &f(&["e"], &["d"], Possible)));
        assert!(!satisfies_fd(&t, &f(&["e"], &["d"], Certain)));
        assert!(!satisfies_fd(&t, &f(&["e"], &["m"], Possible)));
        assert!(!satisfies_fd(&t, &f(&["e"], &["m"], Certain)));
        assert!(satisfies_fd(&t, &f(&["e"], &["s"], Possible)));
        assert!(satisfies_fd(&t, &f(&["e"], &["s"], Certain)));
        assert!(satisfies_fd(&t, &f(&["d"], &["d"], Possible)));
        assert!(!satisfies_fd(&t, &f(&["d"], &["d"], Certain)));
        assert!(satisfies_fd(&t, &f(&["d"], &["m"], Possible)));
        assert!(!satisfies_fd(&t, &f(&["d"], &["m"], Certain)));
        assert!(satisfies_fd(&t, &f(&["m"], &["e"], Possible)));
        assert!(satisfies_fd(&t, &f(&["m"], &["e"], Certain)));
        assert!(satisfies_fd(&t, &f(&["m"], &["d"], Possible)));
        assert!(satisfies_fd(&t, &f(&["m"], &["d"], Certain)));
    }

    #[test]
    fn example1_ckey_vs_cfd() {
        // Example 1: the c-FD nd →_w d is violated (row 3 is weakly
        // similar on nd to rows 1 and 2 but disagrees on d with them),
        // while a c-key c<nd> would also forbid the two appointments.
        let t = TableBuilder::new("emp", ["n", "d", "a"], &["n", "a"])
            .row(tuple!["John Smith", "19/05/1969", "DB Admin"])
            .row(tuple!["John Smith", "01/04/1971", "Finance Manager"])
            .row(tuple!["John Smith", null, "Programmer"])
            .row(tuple!["James Brown", null, "Programmer"])
            .build();
        let s = t.schema().clone();
        let nd = s.set(&["n", "d"]);
        let d = s.set(&["d"]);
        assert!(!satisfies_fd(&t, &Fd::certain(nd, d)));
        // After assigning a dob to row 3 that matches row 1's, the c-FD
        // holds while c<nd> is still violated (rows 1 and 3 agree on nd).
        let mut fixed = t.clone();
        fixed.set_value(2, s.a("d"), Value::str("19/05/1969"));
        assert!(satisfies_fd(&fixed, &Fd::certain(nd, d)));
        assert!(!satisfies_key(&fixed, &Key::certain(nd)));
    }

    #[test]
    fn violation_pair_indices_are_real() {
        let t = purchase_fig5();
        let s = t.schema().clone();
        let ic = s.set(&["item", "catalog"]);
        let icp = s.set(&["item", "catalog", "price"]);
        let v = fd_violation(&t, &Fd::certain(ic, icp)).expect("violated");
        let (a, b) = (&t.rows()[v.row_a], &t.rows()[v.row_b]);
        assert!(weakly_similar(a, b, ic));
        assert!(!a.eq_on(b, icp));
    }

    #[test]
    fn section4_counterexample_instance() {
        // The instance at the end of Section 4.1 violates oi →_w p while
        // satisfying Σ = {oi →_s c, ic →_w p} with T_S = ocp.
        let t = TableBuilder::new(
            "purchase",
            ["order_id", "item", "catalog", "price"],
            &["order_id", "catalog", "price"],
        )
        .row(tuple![5299401i64, "Fitbit Surge", "Amazon", 240i64])
        .row(tuple![5299401i64, null, "Kingstoy", 25i64])
        .build();
        let s = t.schema().clone();
        let sigma = Sigma::new()
            .with(Fd::possible(
                s.set(&["order_id", "item"]),
                s.set(&["catalog"]),
            ))
            .with(Fd::certain(s.set(&["item", "catalog"]), s.set(&["price"])));
        assert!(satisfies_all(&t, &sigma));
        assert!(!satisfies_fd(
            &t,
            &Fd::certain(s.set(&["order_id", "item"]), s.set(&["price"]))
        ));
    }

    #[test]
    fn empty_and_singleton_tables_satisfy_everything() {
        let schema = crate::schema::TableSchema::new("r", ["a", "b"], &[]);
        let empty = Table::new(schema.clone());
        let single = Table::from_rows(schema, [tuple![1i64, null]]);
        let all = single.schema().attrs();
        for t in [&empty, &single] {
            for x in all.subsets() {
                assert!(satisfies_key(t, &Key::possible(x)));
                assert!(satisfies_key(t, &Key::certain(x)));
                for y in all.subsets() {
                    assert!(satisfies_fd(t, &Fd::possible(x, y)));
                    assert!(satisfies_fd(t, &Fd::certain(x, y)));
                }
            }
        }
    }

    #[test]
    fn empty_lhs_fd_forces_constant_column() {
        let t = TableBuilder::new("r", ["a"], &[])
            .row(tuple![1i64])
            .row(tuple![2i64])
            .build();
        let a = t.schema().set(&["a"]);
        // Every pair is (weakly and strongly) similar on ∅.
        assert!(!satisfies_fd(&t, &Fd::possible(AttrSet::EMPTY, a)));
        assert!(!satisfies_fd(&t, &Fd::certain(AttrSet::EMPTY, a)));
        assert!(!satisfies_key(&t, &Key::possible(AttrSet::EMPTY)));
    }

    #[test]
    fn sigma_helpers() {
        let t = purchase_fig1();
        let s = t.schema().clone();
        let ic = s.set(&["item", "catalog"]);
        let sigma = Sigma::new()
            .with(Fd::certain(ic, s.set(&["price"])))
            .with(Key::possible(ic));
        assert!(!satisfies_all(&t, &sigma));
        let v = violations(&t, &sigma);
        assert_eq!(v, vec![Constraint::Key(Key::possible(ic))]);
    }
}
