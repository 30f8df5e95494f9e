//! Tables: finite multisets of tuples over a table schema.
//!
//! SQL permits duplicate tuples, so a table is a *multiset* (Section 2).
//! Set and multiset projection (Definition 6) live in
//! [`crate::project`]; the equality join of Definition 8 in
//! [`crate::join`].

use crate::attrs::{Attr, AttrSet};
use crate::column::{ColumnSnapshot, ColumnStore};
use crate::schema::{SchemaRef, TableSchema};
use crate::tuple::Tuple;
use crate::value::Value;
use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::sync::{Arc, OnceLock};

/// A table over a schema `(T, T_S)`: a finite multiset of tuples.
///
/// Insertion enforces arity; `T_S`-totality (satisfaction of the NFS) is
/// checked by [`Table::satisfies_nfs`] rather than on insertion, because
/// the paper's definitions distinguish "table over `T`" from "table over
/// `(T, T_S)`" and several constructions (e.g. witnesses for violated
/// constraints) need the former.
///
/// The dictionary-coded [`ColumnStore`] is the only storage: a cell is
/// a code, and each distinct value is held once, in its column's
/// dictionary. Rows are read through the codes — [`Table::row_ref`] and
/// [`Table::iter`] borrow, [`Table::row`] decodes an owned [`Tuple`] —
/// and [`Table::snapshot`] hands discovery the columns in `O(arity)`.
/// A clone shares the code vectors until one side mutates them.
pub struct Table {
    schema: SchemaRef,
    cols: ColumnStore,
    /// The decoded rows [`Table::rows`] lends: built on its first call,
    /// dropped by the next mutation, never cloned.
    view: OnceLock<Vec<Tuple>>,
}

impl Clone for Table {
    fn clone(&self) -> Table {
        Table {
            schema: Arc::clone(&self.schema),
            cols: self.cols.clone(),
            view: OnceLock::new(),
        }
    }
}

/// Shows what equality compares: the schema and the decoded rows, not
/// the codes, which depend on the mutation history.
impl fmt::Debug for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Table")
            .field("schema", &self.schema)
            .field("rows", &self.iter().collect::<Vec<_>>())
            .finish()
    }
}

/// Equality is schema + decoded row multiset-in-order; the codes may
/// legitimately differ between two equal tables with different
/// mutation histories.
impl PartialEq for Table {
    fn eq(&self, other: &Table) -> bool {
        self.schema == other.schema && self.iter().eq(other.iter())
    }
}

impl Eq for Table {}

/// A borrowed row of a [`Table`], read through its column codes: code
/// `0` reads [`Value::Null`], any other code its dictionary entry.
#[derive(Clone, Copy)]
pub struct RowRef<'a> {
    table: &'a Table,
    row: usize,
}

impl<'a> RowRef<'a> {
    /// The value in column `a` (the paper's `t[A]`).
    #[inline]
    pub fn get(&self, a: Attr) -> &'a Value {
        self.table.cols.value_at(self.row, a.index())
    }

    /// All values in column order.
    pub fn values(&self) -> impl ExactSizeIterator<Item = &'a Value> + 'a {
        let (cols, row) = (&self.table.cols, self.row);
        (0..cols.arity()).map(move |c| cols.value_at(row, c))
    }

    /// Whether the row is `X`-total; reads codes only.
    pub fn is_total_on(&self, x: AttrSet) -> bool {
        x.iter().all(|a| self.table.code_at(self.row, a) != 0)
    }

    /// The restriction `t[X]` as a fresh tuple (columns of `x` in
    /// ascending order).
    pub fn project(&self, x: AttrSet) -> Tuple {
        Tuple::new(x.iter().map(|a| self.get(a).clone()).collect::<Vec<_>>())
    }

    /// The row as an owned tuple.
    pub fn to_tuple(&self) -> Tuple {
        Tuple::new(self.values().cloned().collect::<Vec<_>>())
    }
}

/// Value equality, across tables too.
impl PartialEq for RowRef<'_> {
    fn eq(&self, other: &RowRef<'_>) -> bool {
        self.values().eq(other.values())
    }
}

impl Eq for RowRef<'_> {}

impl fmt::Debug for RowRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.to_tuple().fmt(f)
    }
}

impl Table {
    /// Creates an empty table over the given schema.
    pub fn new(schema: TableSchema) -> Self {
        Table::with_schema(Arc::new(schema))
    }

    /// Creates an empty table over a shared schema handle.
    pub fn with_schema(schema: SchemaRef) -> Self {
        let arity = schema.arity();
        Table {
            schema,
            cols: ColumnStore::new(arity),
            view: OnceLock::new(),
        }
    }

    /// Creates a table from rows.
    pub fn from_rows(schema: TableSchema, rows: impl IntoIterator<Item = Tuple>) -> Self {
        let mut t = Table::new(schema);
        for r in rows {
            t.push(r);
        }
        t
    }

    /// The schema.
    pub fn schema(&self) -> &TableSchema {
        &self.schema
    }

    /// Shared handle to the schema.
    pub fn schema_ref(&self) -> SchemaRef {
        Arc::clone(&self.schema)
    }

    /// Number of rows (with multiplicity).
    pub fn len(&self) -> usize {
        self.cols.rows()
    }

    /// Whether the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Row `row`, borrowed.
    ///
    /// # Panics
    /// Panics if `row ≥ self.len()`.
    pub fn row_ref(&self, row: usize) -> RowRef<'_> {
        assert!(row < self.len(), "row {row} of a table of {}", self.len());
        RowRef { table: self, row }
    }

    /// Row `row` decoded into an owned tuple.
    pub fn row(&self, row: usize) -> Tuple {
        self.row_ref(row).to_tuple()
    }

    /// The rows, borrowed, in insertion order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = RowRef<'_>> + '_ {
        (0..self.len()).map(move |row| RowRef { table: self, row })
    }

    /// The value of cell `(row, a)`.
    pub fn value(&self, row: usize, a: Attr) -> &Value {
        self.cols.value_at(row, a.index())
    }

    /// The rows as a slice of decoded tuples, in insertion order: a
    /// whole-table copy, built on the first call after a mutation
    /// (counted as `model.table.row_view_builds`) and kept until the
    /// next one. Prefer [`Table::iter`], which copies nothing.
    pub fn rows(&self) -> &[Tuple] {
        self.view.get_or_init(|| {
            sqlnf_obs::count!("model.table.row_view_builds");
            self.iter().map(|r| r.to_tuple()).collect()
        })
    }

    /// Point-updates one cell. Served tables only grow; this is for
    /// what-if edits of a scratch copy: a candidate value in a
    /// redundancy check, a completion of a possible world.
    pub fn set_value(&mut self, row: usize, a: Attr, v: Value) {
        self.cols.set_value(row, a.index(), v);
        self.view.take();
    }

    /// Drops every row from `len` on (later rows only, so no row is
    /// renumbered); a no-op when `len ≥ self.len()`.
    pub fn truncate(&mut self, len: usize) {
        self.cols.truncate(len);
        self.view.take();
    }

    /// An `O(arity)` frozen view of the dictionary-coded columns — what
    /// discovery wraps as its `Encoded` input.
    pub fn snapshot(&self) -> ColumnSnapshot {
        self.cols.snapshot()
    }

    /// The dictionary code of cell `(row, a)`; `0` = `⊥`.
    pub fn code_at(&self, row: usize, a: Attr) -> u32 {
        self.cols.code_at(row, a.index())
    }

    /// The codes `t` would carry as a row of this table, looked up
    /// without growing any dictionary: a value a column has not seen
    /// gets [`UNSEEN`](crate::column::UNSEEN), and the table is left
    /// untouched.
    pub fn lookup_codes(&self, t: &Tuple) -> Vec<u32> {
        self.cols.lookup_codes(t)
    }

    /// The bytes the rows take: code vectors, null lists and both
    /// directions of every dictionary (see [`ColumnStore::data_bytes`]).
    pub fn data_bytes(&self) -> usize {
        self.cols.data_bytes()
    }

    /// Appends a row.
    ///
    /// # Panics
    /// Panics if the tuple arity does not match the schema.
    pub fn push(&mut self, t: Tuple) {
        assert_eq!(
            t.arity(),
            self.schema.arity(),
            "tuple arity {} does not match schema {} of arity {}",
            t.arity(),
            self.schema.name(),
            self.schema.arity()
        );
        self.cols.push(t);
        self.view.take();
    }

    /// Whether the table satisfies its NFS, i.e. is `T_S`-total.
    pub fn satisfies_nfs(&self) -> bool {
        self.schema.nfs().iter().all(|a| self.null_count(a) == 0)
    }

    /// Whether every tuple is total (the idealized relational case,
    /// ignoring duplicates).
    pub fn is_total(&self) -> bool {
        self.schema.attrs().iter().all(|a| self.null_count(a) == 0)
    }

    /// Whether the table contains duplicate tuples. Compares rows by
    /// their dictionary codes (one `u64` hash + `u32` comparisons per
    /// row) instead of hashing `Value`s.
    pub fn has_duplicates(&self) -> bool {
        let mut seen: HashMap<u64, Vec<u32>> = HashMap::with_capacity(self.len());
        for r in 0..self.len() {
            let bucket = seen.entry(self.cols.row_code_hash(r)).or_default();
            if bucket
                .iter()
                .any(|&s| self.cols.code_rows_equal(s as usize, r))
            {
                return true;
            }
            bucket.push(r as u32);
        }
        false
    }

    /// Number of distinct tuples, by code-row comparison.
    pub fn distinct_count(&self) -> usize {
        let mut seen: HashMap<u64, Vec<u32>> = HashMap::with_capacity(self.len());
        let mut distinct = 0usize;
        for r in 0..self.len() {
            let bucket = seen.entry(self.cols.row_code_hash(r)).or_default();
            if !bucket
                .iter()
                .any(|&s| self.cols.code_rows_equal(s as usize, r))
            {
                bucket.push(r as u32);
                distinct += 1;
            }
        }
        distinct
    }

    /// Total number of cells (`rows × columns`), the measure used in the
    /// paper's storage comparison for the contractor experiment.
    pub fn cell_count(&self) -> usize {
        self.len() * self.schema.arity()
    }

    /// Number of null markers in column `a`.
    pub fn null_count(&self, a: Attr) -> usize {
        self.cols.null_count(a.index())
    }

    /// The attributes whose column contains no null marker in this
    /// instance (used by the discovery experiments to classify nn-FDs).
    pub fn null_free_columns(&self) -> AttrSet {
        self.schema
            .attrs()
            .iter()
            .filter(|&a| self.null_count(a) == 0)
            .collect()
    }

    /// The distinct non-null values occurring in column `a` (the active
    /// domain), in deterministic order.
    pub fn active_domain(&self, a: Attr) -> Vec<Value> {
        let dom: BTreeSet<&Value> = self
            .iter()
            .map(|t| t.get(a))
            .filter(|v| v.is_total())
            .collect();
        dom.into_iter().cloned().collect()
    }

    /// Multiset equality with another table: same schema columns and the
    /// same tuples with the same multiplicities, regardless of row order.
    /// This is the equality used to check losslessness (Definition 8).
    pub fn multiset_eq(&self, other: &Table) -> bool {
        if self.schema.column_names() != other.schema.column_names() {
            return false;
        }
        if self.len() != other.len() {
            return false;
        }
        let mut counts: HashMap<Vec<&Value>, i64> = HashMap::with_capacity(self.len());
        for t in self.iter() {
            *counts.entry(t.values().collect()).or_insert(0) += 1;
        }
        for t in other.iter() {
            match counts.get_mut(&t.values().collect::<Vec<_>>()) {
                Some(c) => *c -= 1,
                None => return false,
            }
        }
        counts.values().all(|&c| c == 0)
    }

    /// Renders the table in a compact aligned text format (examples and
    /// experiment output).
    pub fn render(&self) -> String {
        let names = self.schema.column_names();
        let mut widths: Vec<usize> = names.iter().map(String::len).collect();
        let cells: Vec<Vec<String>> = self
            .iter()
            .map(|t| t.values().map(Value::to_string).collect())
            .collect();
        for row in &cells {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        for (i, n) in names.iter().enumerate() {
            out.push_str(&format!("{:width$}  ", n, width = widths[i]));
        }
        out.push('\n');
        for (i, _) in names.iter().enumerate() {
            out.push_str(&"-".repeat(widths[i]));
            out.push_str("  ");
        }
        out.push('\n');
        for row in &cells {
            for (i, c) in row.iter().enumerate() {
                out.push_str(&format!("{:width$}  ", c, width = widths[i]));
            }
            out.push('\n');
        }
        out
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.render())
    }
}

/// Fluent builder for tables in tests, examples and generators.
///
/// ```
/// use sqlnf_model::prelude::*;
///
/// let t = TableBuilder::new(
///     "purchase",
///     ["order_id", "item", "catalog", "price"],
///     &["order_id", "catalog", "price"],
/// )
/// .row(tuple![5299401i64, "Fitbit Surge", "Amazon", 240i64])
/// .row(tuple![5299401i64, "Fitbit Surge", "Brookstone", 240i64])
/// .build();
/// assert_eq!(t.len(), 2);
/// ```
pub struct TableBuilder {
    table: Table,
}

impl TableBuilder {
    /// Starts a builder with the schema's name, columns, and NOT NULL
    /// columns.
    pub fn new<S: Into<String>>(
        name: impl Into<String>,
        columns: impl IntoIterator<Item = S>,
        not_null: &[&str],
    ) -> Self {
        TableBuilder {
            table: Table::new(TableSchema::new(name, columns, not_null)),
        }
    }

    /// Starts a builder from an existing schema.
    pub fn from_schema(schema: TableSchema) -> Self {
        TableBuilder {
            table: Table::new(schema),
        }
    }

    /// Appends a row.
    pub fn row(mut self, t: Tuple) -> Self {
        self.table.push(t);
        self
    }

    /// Appends many rows.
    pub fn rows(mut self, rows: impl IntoIterator<Item = Tuple>) -> Self {
        for r in rows {
            self.table.push(r);
        }
        self
    }

    /// Finishes the table.
    pub fn build(self) -> Table {
        self.table
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple;

    fn fig3() -> Table {
        // Figure 3: satisfies every FD, violates every key.
        TableBuilder::new("fig3", ["item", "catalog", "price"], &[])
            .row(tuple!["Fitbit Surge", "Amazon", 240i64])
            .row(tuple!["Fitbit Surge", "Amazon", 240i64])
            .build()
    }

    #[test]
    fn push_and_len() {
        let t = fig3();
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
        assert_eq!(t.cell_count(), 6);
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_mismatch_panics() {
        let mut t = fig3();
        t.push(tuple![1i64]);
    }

    #[test]
    fn duplicates_and_distinct() {
        let t = fig3();
        assert!(t.has_duplicates());
        assert_eq!(t.distinct_count(), 1);
    }

    #[test]
    fn nfs_satisfaction() {
        let mut t = Table::new(TableSchema::new("r", ["a", "b"], &["a"]));
        t.push(tuple![1i64, null]);
        assert!(t.satisfies_nfs());
        t.push(tuple![null, 2i64]);
        assert!(!t.satisfies_nfs());
        assert!(!t.is_total());
    }

    #[test]
    fn null_accounting() {
        let mut t = Table::new(TableSchema::new("r", ["a", "b"], &[]));
        t.push(tuple![1i64, null]);
        t.push(tuple![null, null]);
        assert_eq!(t.null_count(Attr(0)), 1);
        assert_eq!(t.null_count(Attr(1)), 2);
        assert_eq!(t.null_free_columns(), AttrSet::EMPTY);
        t.push(tuple![3i64, 4i64]);
        assert_eq!(t.null_free_columns(), AttrSet::EMPTY);
    }

    #[test]
    fn active_domain_sorted_distinct() {
        let mut t = Table::new(TableSchema::new("r", ["a"], &[]));
        t.push(tuple![3i64]);
        t.push(tuple![1i64]);
        t.push(tuple![3i64]);
        t.push(tuple![null]);
        assert_eq!(t.active_domain(Attr(0)), vec![Value::Int(1), Value::Int(3)]);
    }

    #[test]
    fn multiset_equality_ignores_order() {
        let s = TableSchema::new("r", ["a"], &[]);
        let t1 = Table::from_rows(s.clone(), [tuple![1i64], tuple![2i64], tuple![1i64]]);
        let t2 = Table::from_rows(s.clone(), [tuple![2i64], tuple![1i64], tuple![1i64]]);
        let t3 = Table::from_rows(s.clone(), [tuple![2i64], tuple![2i64], tuple![1i64]]);
        let t4 = Table::from_rows(s, [tuple![1i64], tuple![2i64]]);
        assert!(t1.multiset_eq(&t2));
        assert!(!t1.multiset_eq(&t3));
        assert!(!t1.multiset_eq(&t4));
    }

    #[test]
    fn render_contains_all_cells() {
        let t = fig3();
        let s = t.render();
        assert!(s.contains("item"));
        assert!(s.contains("Fitbit Surge"));
        assert!(s.contains("240"));
    }

    #[test]
    fn rows_read_through_the_codes() {
        let mut t = Table::new(TableSchema::new("r", ["a", "b"], &[]));
        t.push(tuple![1i64, "x"]);
        t.push(tuple![null, "x"]);
        assert_eq!(t.row(1), tuple![null, "x"]);
        assert_eq!(t.row_ref(0).get(Attr(1)), &Value::str("x"));
        assert_eq!(t.value(1, Attr(0)), &Value::Null);
        assert_eq!(t.row_ref(1), t.row_ref(1));
        assert_ne!(t.row_ref(0), t.row_ref(1));
        assert!(!t.row_ref(1).is_total_on(AttrSet::from_indices([0])));
        let decoded: Vec<Tuple> = t.iter().map(|r| r.to_tuple()).collect();
        assert_eq!(decoded, vec![tuple![1i64, "x"], tuple![null, "x"]]);
        t.truncate(1);
        assert_eq!(
            t.iter().map(|r| r.to_tuple()).collect::<Vec<_>>(),
            vec![tuple![1i64, "x"]]
        );
    }

    #[test]
    fn row_view_is_rebuilt_after_a_mutation_and_not_cloned() {
        let mut t = fig3();
        assert_eq!(t.rows().len(), 2);
        t.set_value(0, Attr(2), Value::Int(7));
        assert_eq!(t.rows()[0], tuple!["Fitbit Surge", "Amazon", 7i64]);
        t.push(tuple!["Dora Doll", null, 25i64]);
        assert_eq!(t.rows()[2], tuple!["Dora Doll", null, 25i64]);
        t.truncate(1);
        assert_eq!(t.rows().len(), 1);
        let c = t.clone();
        assert!(c.view.get().is_none());
        assert_eq!(c, t);
    }

    #[test]
    fn equality_decodes_across_mutation_histories() {
        let s = TableSchema::new("r", ["a"], &[]);
        let mut t1 = Table::from_rows(s.clone(), [tuple![9i64], tuple![1i64]]);
        t1.set_value(0, Attr(0), Value::Int(1));
        t1.truncate(1);
        let t2 = Table::from_rows(s, [tuple![1i64]]);
        assert_ne!(t1.code_at(0, Attr(0)), t2.code_at(0, Attr(0)));
        assert_eq!(t1, t2);
        assert_eq!(format!("{t1:?}"), format!("{t2:?}"));
        assert!(format!("{t1:?}").contains("Tuple([Int(1)])"));
    }
}
