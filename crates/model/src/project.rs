//! Set and multiset projection (Definition 6).
//!
//! `I[[X]]` — the *multiset projection* — keeps one projected tuple per
//! input tuple (`{{ t[X] | t ∈ I }}`); `I[X]` — the *set projection* —
//! additionally removes duplicates. Decompositions (Definition 7) mix
//! both kinds of component.

use crate::attrs::AttrSet;
use crate::table::Table;
use crate::tuple::Tuple;
use std::collections::HashSet;

/// The multiset projection `I[[X]]`.
pub fn project_multiset(table: &Table, x: AttrSet, name: impl Into<String>) -> Table {
    let (schema, _) = table.schema().project(x, name);
    let mut out = Table::new(schema);
    for t in table.iter() {
        out.push(t.project(x));
    }
    out
}

/// The set projection `I[X]`.
///
/// Duplicate elimination is by syntactic tuple identity (`⊥ = ⊥`), which
/// is how the paper counts e.g. the 105 distinct rows of the
/// `contact_draft_lookup` projection.
pub fn project_set(table: &Table, x: AttrSet, name: impl Into<String>) -> Table {
    let (schema, _) = table.schema().project(x, name);
    let mut out = Table::new(schema);
    let mut seen: HashSet<Tuple> = HashSet::with_capacity(table.len());
    for t in table.iter() {
        let p = t.project(x);
        if seen.insert(p.clone()) {
            out.push(p);
        }
    }
    out
}

/// The `X`-total sub-table `I_X`: the tuples of `I` that are `X`-total.
/// Lien's partial decomposition theorem for p-FDs (Section 3) only
/// applies to this part of an instance.
pub fn total_part(table: &Table, x: AttrSet) -> Table {
    let mut out = Table::with_schema(table.schema_ref());
    for t in table.iter() {
        if t.is_total_on(x) {
            out.push(t.to_tuple());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::TableSchema;
    use crate::table::TableBuilder;
    use crate::tuple;

    /// The purchase relation of Figure 1.
    fn purchase_fig1() -> Table {
        TableBuilder::new("purchase", ["order_id", "item", "catalog", "price"], &[])
            .row(tuple![5299401i64, "Fitbit Surge", "Amazon", 240i64])
            .row(tuple![5299401i64, "Fitbit Surge", "Brookstone", 240i64])
            .row(tuple![7485113i64, "Fitbit Surge", "Amazon", 240i64])
            .row(tuple![7485113i64, "Dora Doll", "Kingtoys", 25i64])
            .build()
    }

    #[test]
    fn figure2_decomposition_projections() {
        // Figure 2: purchase[oic] has 4 rows, purchase[icp] has 3 rows
        // (the two redundant 240s collapse to one).
        let i = purchase_fig1();
        let s = i.schema().clone();
        let oic = s.set(&["order_id", "item", "catalog"]);
        let icp = s.set(&["item", "catalog", "price"]);
        let p_oic = project_set(&i, oic, "purchase_oic");
        let p_icp = project_set(&i, icp, "purchase_icp");
        assert_eq!(p_oic.len(), 4);
        assert_eq!(p_icp.len(), 3);
        assert_eq!(p_icp.schema().column_names(), &["item", "catalog", "price"]);
    }

    #[test]
    fn multiset_projection_keeps_multiplicity() {
        let i = purchase_fig1();
        let ic = i.schema().set(&["item", "catalog"]);
        let m = project_multiset(&i, ic, "m");
        assert_eq!(m.len(), 4);
        // (Fitbit Surge, Amazon) appears twice.
        assert_eq!(m.distinct_count(), 3);
        let s = project_set(&i, ic, "s");
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn projection_of_nulls_keeps_null_identity() {
        let t = TableBuilder::new("r", ["a", "b"], &[])
            .row(tuple![null, 1i64])
            .row(tuple![null, 1i64])
            .build();
        let p = project_set(&t, t.schema().set(&["a", "b"]), "p");
        // Two syntactically identical null-bearing rows collapse.
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn total_part_filters_null_rows() {
        let t = TableBuilder::new("r", ["a", "b"], &[])
            .row(tuple![1i64, null])
            .row(tuple![null, 2i64])
            .row(tuple![3i64, 4i64])
            .build();
        let a = t.schema().set(&["a"]);
        let part = total_part(&t, a);
        assert_eq!(part.len(), 2);
        assert!(part.rows().iter().all(|r| r.is_total_on(a)));
    }

    #[test]
    fn projection_schema_is_reindexed() {
        let schema = TableSchema::new("r", ["a", "b", "c"], &["c"]);
        let t = Table::from_rows(schema, [tuple![1i64, 2i64, 3i64]]);
        let bc = t.schema().set(&["b", "c"]);
        let p = project_multiset(&t, bc, "p");
        assert_eq!(p.schema().column_names(), &["b", "c"]);
        assert_eq!(p.schema().nfs(), p.schema().set(&["c"]));
        assert_eq!(p.rows()[0], tuple![2i64, 3i64]);
    }
}
