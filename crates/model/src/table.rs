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
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::sync::Arc;

/// A table over a schema `(T, T_S)`: a finite multiset of tuples.
///
/// Insertion enforces arity; `T_S`-totality (satisfaction of the NFS) is
/// checked by [`Table::satisfies_nfs`] rather than on insertion, because
/// the paper's definitions distinguish "table over `T`" from "table over
/// `(T, T_S)`" and several constructions (e.g. witnesses for violated
/// constraints) need the former.
///
/// Storage is dual: the row view (`Vec<Tuple>`, serving projection,
/// join, satisfaction, SQL and CSV) and the dictionary-coded
/// [`ColumnStore`] (serving discovery), kept in lockstep by every
/// mutation. [`Table::snapshot`] hands discovery the columnar side in
/// `O(arity)` — no per-mine re-encode.
#[derive(Debug, Clone)]
pub struct Table {
    schema: SchemaRef,
    rows: Vec<Tuple>,
    cols: ColumnStore,
}

/// Equality is schema + row multiset-in-order; the columnar codes are
/// derived state (and may legitimately differ between two equal tables
/// with different mutation histories).
impl PartialEq for Table {
    fn eq(&self, other: &Table) -> bool {
        self.schema == other.schema && self.rows == other.rows
    }
}

impl Eq for Table {}

impl Table {
    /// Creates an empty table over the given schema.
    pub fn new(schema: TableSchema) -> Self {
        let arity = schema.arity();
        Table {
            schema: Arc::new(schema),
            rows: Vec::new(),
            cols: ColumnStore::new(arity),
        }
    }

    /// Creates an empty table over a shared schema handle.
    pub fn with_schema(schema: SchemaRef) -> Self {
        let arity = schema.arity();
        Table {
            schema,
            rows: Vec::new(),
            cols: ColumnStore::new(arity),
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
        self.rows.len()
    }

    /// Whether the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The rows, in insertion order.
    pub fn rows(&self) -> &[Tuple] {
        &self.rows
    }

    /// Point-updates one cell, keeping the row view and the columnar
    /// codes in lockstep (the replacement for direct row mutation).
    pub fn set_value(&mut self, row: usize, a: Attr, v: Value) {
        self.cols.set_value(row, a.index(), &v);
        *self.rows[row].get_mut(a) = v;
    }

    /// Removes one row (later rows shift down by one) and returns it.
    pub fn remove_row(&mut self, row: usize) -> Tuple {
        self.cols.remove_row(row);
        self.rows.remove(row)
    }

    /// Drops every row from `len` on (later rows only, so no row is
    /// renumbered); a no-op when `len ≥ self.len()`.
    pub(crate) fn truncate(&mut self, len: usize) {
        self.cols.truncate(len);
        self.rows.truncate(len);
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
        self.cols.push(&t);
        self.rows.push(t);
    }

    /// Whether the table satisfies its NFS, i.e. is `T_S`-total.
    pub fn satisfies_nfs(&self) -> bool {
        let nfs = self.schema.nfs();
        self.rows.iter().all(|t| t.is_total_on(nfs))
    }

    /// Whether every tuple is total (the idealized relational case,
    /// ignoring duplicates).
    pub fn is_total(&self) -> bool {
        self.rows.iter().all(Tuple::is_total)
    }

    /// Whether the table contains duplicate tuples. Compares rows by
    /// their dictionary codes (one `u64` hash + `u32` comparisons per
    /// row) instead of hashing `Value`s.
    pub fn has_duplicates(&self) -> bool {
        let mut seen: HashMap<u64, Vec<u32>> = HashMap::with_capacity(self.rows.len());
        for r in 0..self.rows.len() {
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
        let mut seen: HashMap<u64, Vec<u32>> = HashMap::with_capacity(self.rows.len());
        let mut distinct = 0usize;
        for r in 0..self.rows.len() {
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
        self.rows.len() * self.schema.arity()
    }

    /// Number of null markers in column `a`.
    pub fn null_count(&self, a: Attr) -> usize {
        self.rows.iter().filter(|t| t.get(a).is_null()).count()
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
        let mut dom: BTreeMap<&Value, ()> = BTreeMap::new();
        for t in &self.rows {
            let v = t.get(a);
            if v.is_total() {
                dom.insert(v, ());
            }
        }
        dom.into_keys().cloned().collect()
    }

    /// Multiset equality with another table: same schema columns and the
    /// same tuples with the same multiplicities, regardless of row order.
    /// This is the equality used to check losslessness (Definition 8).
    pub fn multiset_eq(&self, other: &Table) -> bool {
        if self.schema.column_names() != other.schema.column_names() {
            return false;
        }
        if self.rows.len() != other.rows.len() {
            return false;
        }
        let mut counts: HashMap<&Tuple, i64> = HashMap::with_capacity(self.rows.len());
        for t in &self.rows {
            *counts.entry(t).or_insert(0) += 1;
        }
        for t in &other.rows {
            match counts.get_mut(t) {
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
            .rows
            .iter()
            .map(|t| t.values().iter().map(Value::to_string).collect())
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
}
