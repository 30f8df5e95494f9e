//! The equality join of Definition 8.
//!
//! The join of two components matches tuples by *syntactic equality of
//! values on common attributes* — not weak similarity — so `⊥` joins
//! only with `⊥`. This is exactly the join under which Figure 5's
//! decomposition is lossless while Figure 4's (based on a p-FD) is not.

use crate::attrs::Attr;
use crate::schema::TableSchema;
use crate::table::Table;
use crate::tuple::Tuple;
use crate::value::Value;
use std::collections::HashMap;

/// Natural equality join of two tables on their common column names.
///
/// Output columns are the left table's columns followed by the right
/// table's non-common columns; the output NFS is inherited column-wise.
/// Joining on zero common columns degenerates to the cross product,
/// which the paper's performance experiment uses deliberately.
pub fn join(left: &Table, right: &Table, name: impl Into<String>) -> Table {
    let ls = left.schema();
    let rs = right.schema();

    // Common columns, as (left attr, right attr) pairs.
    let mut common: Vec<(Attr, Attr)> = Vec::new();
    for (ri, rc) in rs.column_names().iter().enumerate() {
        if let Some(la) = ls.attr(rc) {
            common.push((la, Attr::from(ri)));
        }
    }
    let right_only: Vec<Attr> = (0..rs.arity())
        .map(Attr::from)
        .filter(|a| ls.attr(rs.column_name(*a)).is_none())
        .collect();

    // Output schema.
    let mut columns: Vec<String> = ls.column_names().to_vec();
    let mut not_null: Vec<String> = ls
        .nfs()
        .iter()
        .map(|a| ls.column_name(a).to_owned())
        .collect();
    for &a in &right_only {
        columns.push(rs.column_name(a).to_owned());
        if rs.nfs().contains(a) {
            not_null.push(rs.column_name(a).to_owned());
        }
    }
    let nn: Vec<&str> = not_null.iter().map(String::as_str).collect();
    let schema = TableSchema::new(name, columns, &nn);

    // Hash the right side on its common-column values (syntactic
    // equality, so `⊥` keys match only `⊥` keys).
    let mut index: HashMap<Vec<Value>, Vec<usize>> = HashMap::with_capacity(right.len());
    for (i, t) in right.iter().enumerate() {
        let key: Vec<Value> = common.iter().map(|&(_, ra)| t.get(ra).clone()).collect();
        index.entry(key).or_default().push(i);
    }

    let mut out = Table::new(schema);
    for lt in left.iter() {
        let key: Vec<Value> = common.iter().map(|&(la, _)| lt.get(la).clone()).collect();
        if let Some(matches) = index.get(&key) {
            for &ri in matches {
                let rt = right.row_ref(ri);
                let mut vals: Vec<Value> = lt.values().cloned().collect();
                vals.extend(right_only.iter().map(|&a| rt.get(a).clone()));
                out.push(Tuple::new(vals));
            }
        }
    }
    out
}

/// Joins a sequence of components left to right. Panics on an empty
/// sequence.
pub fn join_all<'a>(components: impl IntoIterator<Item = &'a Table>, name: &str) -> Table {
    let mut it = components.into_iter();
    let first = it.next().expect("join_all needs at least one component");
    let mut acc = first.clone();
    for (i, c) in it.enumerate() {
        acc = join(&acc, c, format!("{name}_{i}"));
    }
    // Rename the final result.
    let schema = acc.schema().clone().with_name(name);
    Table::from_rows(schema, acc.iter().map(|r| r.to_tuple()))
}

/// Reorders the columns of `table` to the given order (a permutation of
/// its column names), so results of joins can be compared with the
/// original instance via [`Table::multiset_eq`].
pub fn reorder_columns(table: &Table, order: &[String]) -> Table {
    let s = table.schema();
    assert_eq!(order.len(), s.arity(), "order must mention every column");
    let attrs: Vec<Attr> = order
        .iter()
        .map(|c| {
            s.attr(c)
                .unwrap_or_else(|| panic!("no column {c:?} to reorder"))
        })
        .collect();
    let nn: Vec<&str> = attrs
        .iter()
        .filter(|a| s.nfs().contains(**a))
        .map(|a| s.column_name(*a))
        .collect();
    let schema = TableSchema::new(s.name(), order.to_vec(), &nn);
    let mut out = Table::new(schema);
    for t in table.iter() {
        out.push(Tuple::new(
            attrs.iter().map(|&a| t.get(a).clone()).collect::<Vec<_>>(),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::project::{project_multiset, project_set};
    use crate::table::TableBuilder;
    use crate::tuple;

    /// The top instance of Figure 5.
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
    fn figure5_join_is_lossless() {
        // I = I[[oic]] ⋈ I[icp] for the c-FD item,catalog →_w price.
        let i = purchase_fig5();
        let s = i.schema();
        let oic = s.set(&["order_id", "item", "catalog"]);
        let icp = s.set(&["item", "catalog", "price"]);
        let left = project_multiset(&i, oic, "oic");
        let right = project_set(&i, icp, "icp");
        let joined = join(&left, &right, "rejoined");
        let reordered = reorder_columns(&joined, s.column_names());
        assert!(i.multiset_eq(&reordered));
    }

    #[test]
    fn figure4_pfd_decomposition_is_lossy() {
        // Figure 4: both tuples have NULL catalog and different prices;
        // the p-FD item,catalog →_s price holds but the decomposition
        // loses information (the join mixes the two prices).
        let i = TableBuilder::new("purchase", ["order_id", "item", "catalog", "price"], &[])
            .row(tuple![5299401i64, "Fitbit Surge", null, 240i64])
            .row(tuple![7485113i64, "Fitbit Surge", null, 200i64])
            .build();
        let s = i.schema();
        let oic = s.set(&["order_id", "item", "catalog"]);
        let icp = s.set(&["item", "catalog", "price"]);
        let joined = join(
            &project_multiset(&i, oic, "oic"),
            &project_set(&i, icp, "icp"),
            "rejoined",
        );
        // Each of the 2 left rows matches both right rows: 4 rows ≠ 2.
        assert_eq!(joined.len(), 4);
        let reordered = reorder_columns(&joined, s.column_names());
        assert!(!i.multiset_eq(&reordered));
    }

    #[test]
    fn null_joins_only_null() {
        let l = TableBuilder::new("l", ["k", "x"], &[])
            .row(tuple![null, 1i64])
            .row(tuple!["a", 2i64])
            .build();
        let r = TableBuilder::new("r", ["k", "y"], &[])
            .row(tuple![null, 10i64])
            .row(tuple!["a", 20i64])
            .row(tuple!["b", 30i64])
            .build();
        let j = join(&l, &r, "j");
        assert_eq!(j.len(), 2);
        assert!(j.rows().contains(&tuple![null, 1i64, 10i64]));
        assert!(j.rows().contains(&tuple!["a", 2i64, 20i64]));
    }

    #[test]
    fn disjoint_columns_cross_product() {
        let l = TableBuilder::new("l", ["a"], &[])
            .row(tuple![1i64])
            .row(tuple![2i64])
            .build();
        let r = TableBuilder::new("r", ["b"], &[])
            .row(tuple![10i64])
            .row(tuple![20i64])
            .row(tuple![30i64])
            .build();
        let j = join(&l, &r, "j");
        assert_eq!(j.len(), 6);
        assert_eq!(j.schema().column_names(), &["a", "b"]);
    }

    #[test]
    fn join_multiplicity_multiplies() {
        let l = TableBuilder::new("l", ["k"], &[])
            .row(tuple!["a"])
            .row(tuple!["a"])
            .build();
        let r = TableBuilder::new("r", ["k", "v"], &[])
            .row(tuple!["a", 1i64])
            .row(tuple!["a", 2i64])
            .build();
        let j = join(&l, &r, "j");
        assert_eq!(j.len(), 4);
    }

    #[test]
    fn join_all_three_way() {
        let a = TableBuilder::new("a", ["k", "x"], &[])
            .row(tuple![1i64, "x"])
            .build();
        let b = TableBuilder::new("b", ["k", "y"], &[])
            .row(tuple![1i64, "y"])
            .build();
        let c = TableBuilder::new("c", ["y", "z"], &[])
            .row(tuple!["y", "z"])
            .build();
        let j = join_all([&a, &b, &c], "j");
        assert_eq!(j.schema().column_names(), &["k", "x", "y", "z"]);
        assert_eq!(j.len(), 1);
        assert_eq!(j.schema().name(), "j");
    }

    #[test]
    fn reorder_preserves_nfs() {
        let t = TableBuilder::new("t", ["a", "b"], &["b"])
            .row(tuple![1i64, 2i64])
            .build();
        let r = reorder_columns(&t, &["b".into(), "a".into()]);
        assert_eq!(r.schema().column_names(), &["b", "a"]);
        assert_eq!(r.schema().nfs(), r.schema().set(&["b"]));
        assert_eq!(r.rows()[0], tuple![2i64, 1i64]);
    }
}
