//! A small constraint-enforcing storage engine: named tables, each with
//! a declared constraint set, and insert/update/delete operations that
//! keep every instance a valid table over its `(T, T_S, Σ)`.
//!
//! This is the substrate behind the run-time claims of the paper's
//! introduction: on a well-designed schema the engine rejects update
//! anomalies locally (a key check on one table) instead of scanning for
//! all redundant occurrences of a value.

use crate::constraint::Sigma;
use crate::incremental::IndexBank;
use crate::schema::TableSchema;
use crate::sql::{self, Statement};
use crate::table::Table;
use crate::tuple::Tuple;
use crate::value::Value;
use std::collections::BTreeMap;
use std::fmt;

/// Why an engine operation was rejected.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// No table with this name.
    NoSuchTable(String),
    /// A table with this name already exists.
    DuplicateTable(String),
    /// Wrong arity for the target table.
    ArityMismatch {
        /// Target table.
        table: String,
        /// Values supplied.
        got: usize,
        /// Columns declared.
        expected: usize,
    },
    /// A NOT NULL column would receive `⊥`.
    NotNullViolation {
        /// Target table.
        table: String,
        /// Offending column name.
        column: String,
    },
    /// A declared constraint would be violated.
    ConstraintViolation {
        /// Target table.
        table: String,
        /// The violated constraint, rendered with column names.
        constraint: String,
        /// The two rows witnessing the violation.
        rows: (usize, usize),
    },
    /// No column with this name in the target table.
    NoSuchColumn {
        /// Target table.
        table: String,
        /// Requested column.
        column: String,
    },
    /// Row index out of range.
    NoSuchRow {
        /// Target table.
        table: String,
        /// Requested row.
        row: usize,
    },
    /// SQL script error.
    Parse(sql::ParseError),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::NoSuchTable(t) => write!(f, "no such table {t:?}"),
            EngineError::DuplicateTable(t) => write!(f, "table {t:?} already exists"),
            EngineError::ArityMismatch {
                table,
                got,
                expected,
            } => {
                write!(
                    f,
                    "table {table:?} has {expected} columns, got {got} values"
                )
            }
            EngineError::NotNullViolation { table, column } => {
                write!(f, "column {column:?} of {table:?} is NOT NULL")
            }
            EngineError::ConstraintViolation {
                table,
                constraint,
                rows,
            } => write!(
                f,
                "constraint {constraint} of {table:?} violated by rows {} and {}",
                rows.0, rows.1
            ),
            EngineError::NoSuchColumn { table, column } => {
                write!(f, "table {table:?} has no column {column:?}")
            }
            EngineError::NoSuchRow { table, row } => {
                write!(f, "table {table:?} has no row {row}")
            }
            EngineError::Parse(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<sql::ParseError> for EngineError {
    fn from(e: sql::ParseError) -> Self {
        EngineError::Parse(e)
    }
}

/// A stored table: schema, declared constraints, data, and the
/// incremental constraint indexes that make inserts O(1) amortized per
/// constraint (see [`crate::incremental`]). All three mutations —
/// insert, update, delete — maintain the indexes incrementally, so a
/// `StoredTable` is self-contained: services that want per-table
/// locking (rather than one lock around a whole [`Database`]) can wrap
/// each `StoredTable` in its own lock and call these methods directly.
#[derive(Debug, Clone)]
pub struct StoredTable {
    sigma: Sigma,
    data: Table,
    bank: IndexBank,
}

impl StoredTable {
    /// An empty stored table enforcing `sigma`.
    pub fn new(schema: TableSchema, sigma: Sigma) -> StoredTable {
        let data = Table::new(schema);
        let bank = IndexBank::build(&sigma, &data);
        StoredTable { sigma, data, bank }
    }

    /// The declared constraints.
    pub fn sigma(&self) -> &Sigma {
        &self.sigma
    }

    /// The current instance.
    pub fn data(&self) -> &Table {
        &self.data
    }

    /// The incremental constraint indexes mirroring the instance
    /// (read-only; exposed for admission probes and tests).
    pub fn bank(&self) -> &IndexBank {
        &self.bank
    }

    fn name(&self) -> &str {
        self.data.schema().name()
    }

    fn violation_error(&self, ci: usize, rows: (usize, usize)) -> EngineError {
        let constraint = self
            .sigma
            .iter()
            .nth(ci)
            .expect("index bank mirrors sigma")
            .display(self.data.schema());
        EngineError::ConstraintViolation {
            table: self.name().to_owned(),
            constraint,
            rows,
        }
    }

    fn check_row_shape(&self, row: &Tuple) -> Result<(), EngineError> {
        let schema = self.data.schema();
        if row.arity() != schema.arity() {
            return Err(EngineError::ArityMismatch {
                table: self.name().to_owned(),
                got: row.arity(),
                expected: schema.arity(),
            });
        }
        for a in schema.nfs() {
            if row.get(a).is_null() {
                return Err(EngineError::NotNullViolation {
                    table: self.name().to_owned(),
                    column: schema.column_name(a).to_owned(),
                });
            }
        }
        Ok(())
    }

    /// Inserts a row, enforcing the NFS and every declared constraint
    /// via the incremental indexes; on rejection the table — its
    /// dictionaries included — is unchanged. Amortized O(1) per FD/key,
    /// plus for a certain one O(#rows with `⊥` in its LHS), or a table
    /// scan when the row itself has `⊥` there.
    pub fn insert(&mut self, row: Tuple) -> Result<(), EngineError> {
        self.check_row_shape(&row)?;
        // An empty Σ has no index to check the codes against.
        if !self.sigma.is_empty() {
            let codes = self.data.lookup_codes(&row);
            if let Err((ci, conflict)) = self.bank.check(&self.data, &codes, None) {
                return Err(self.violation_error(ci, (conflict.with_row, self.data.len())));
            }
        }
        self.data.push(row);
        self.bank.insert(&self.data, self.data.len() - 1);
        Ok(())
    }

    /// Updates one cell, enforcing constraints incrementally: the old
    /// row leaves the indexes, the replacement is validated against the
    /// rest of the instance, and on rejection the old row is restored —
    /// no full rescan, no index rebuild.
    pub fn update(&mut self, row: usize, column: &str, value: Value) -> Result<(), EngineError> {
        if row >= self.data.len() {
            return Err(EngineError::NoSuchRow {
                table: self.name().to_owned(),
                row,
            });
        }
        let schema = self.data.schema();
        let a = schema
            .attr(column)
            .ok_or_else(|| EngineError::NoSuchColumn {
                table: self.name().to_owned(),
                column: column.to_owned(),
            })?;
        if value.is_null() && schema.nfs().contains(a) {
            return Err(EngineError::NotNullViolation {
                table: self.name().to_owned(),
                column: column.to_owned(),
            });
        }
        let mut new = self.data.row(row);
        *new.get_mut(a) = value.clone();
        let codes = self.data.lookup_codes(&new);
        self.bank.remove(&self.data, row);
        if let Err((ci, conflict)) = self.bank.check(&self.data, &codes, Some(row)) {
            self.bank.insert(&self.data, row);
            return Err(self.violation_error(ci, (conflict.with_row, row)));
        }
        self.data.set_value(row, a, value);
        self.bank.insert(&self.data, row);
        Ok(())
    }

    /// Deletes a row (deletions can never introduce a violation of this
    /// constraint class); the indexes compact their row ids in place.
    pub fn delete(&mut self, row: usize) -> Result<Tuple, EngineError> {
        if row >= self.data.len() {
            return Err(EngineError::NoSuchRow {
                table: self.name().to_owned(),
                row,
            });
        }
        self.bank.remove(&self.data, row);
        let removed = self.data.remove_row(row);
        self.bank.shift_down(row);
        Ok(removed)
    }

    /// Drops every row from `len` on — the rollback of a statement that
    /// appended them. Tail rows leave the indexes without renumbering
    /// any other id; a no-op when `len ≥` the row count.
    pub fn truncate(&mut self, len: usize) {
        for row in (len..self.data.len()).rev() {
            self.bank.remove(&self.data, row);
        }
        self.data.truncate(len);
    }
}

/// A database: a set of named, constraint-checked tables.
#[derive(Debug, Clone, Default)]
pub struct Database {
    tables: BTreeMap<String, StoredTable>,
}

impl Database {
    /// An empty database.
    pub fn new() -> Database {
        Database::default()
    }

    /// Creates a table from a schema and constraint set.
    pub fn create_table(&mut self, schema: TableSchema, sigma: Sigma) -> Result<(), EngineError> {
        let name = schema.name().to_owned();
        if self.tables.contains_key(&name) {
            return Err(EngineError::DuplicateTable(name));
        }
        self.tables.insert(name, StoredTable::new(schema, sigma));
        Ok(())
    }

    /// Table names, sorted.
    pub fn table_names(&self) -> Vec<&str> {
        self.tables.keys().map(String::as_str).collect()
    }

    /// Looks up a stored table.
    pub fn table(&self, name: &str) -> Result<&StoredTable, EngineError> {
        self.tables
            .get(name)
            .ok_or_else(|| EngineError::NoSuchTable(name.to_owned()))
    }

    fn table_mut(&mut self, name: &str) -> Result<&mut StoredTable, EngineError> {
        self.tables
            .get_mut(name)
            .ok_or_else(|| EngineError::NoSuchTable(name.to_owned()))
    }

    /// Inserts a row into a named table (see [`StoredTable::insert`]).
    pub fn insert(&mut self, name: &str, row: Tuple) -> Result<(), EngineError> {
        self.table_mut(name)?.insert(row)
    }

    /// Updates one cell of a named table (see [`StoredTable::update`]).
    pub fn update(
        &mut self,
        name: &str,
        row: usize,
        column: &str,
        value: Value,
    ) -> Result<(), EngineError> {
        self.table_mut(name)?.update(row, column, value)
    }

    /// Deletes a row of a named table (see [`StoredTable::delete`]).
    pub fn delete(&mut self, name: &str, row: usize) -> Result<Tuple, EngineError> {
        self.table_mut(name)?.delete(row)
    }

    /// Drops the tail rows of a named table (see
    /// [`StoredTable::truncate`]).
    pub fn truncate(&mut self, name: &str, len: usize) -> Result<(), EngineError> {
        self.table_mut(name)?.truncate(len);
        Ok(())
    }

    /// Executes a parsed statement.
    pub fn execute(&mut self, stmt: Statement) -> Result<(), EngineError> {
        match stmt {
            Statement::CreateTable { schema, sigma } => self.create_table(schema, sigma),
            Statement::Insert { table, rows } => {
                for row in rows {
                    self.insert(&table, row)?;
                }
                Ok(())
            }
        }
    }

    /// Parses and executes a SQL script.
    pub fn run_script(&mut self, src: &str) -> Result<(), EngineError> {
        for stmt in sql::parse_script(src)? {
            self.execute(stmt)?;
        }
        Ok(())
    }

    /// Renders the whole database as a SQL script that recreates it —
    /// DDL in table-name order, then each table's rows in insertion
    /// order. Byte-compatible with the serve layer's store export, so
    /// a single-threaded `Database` can act as the differential
    /// reference for concurrent recovery tests.
    pub fn export_script(&self) -> String {
        let mut out = String::new();
        for (name, st) in &self.tables {
            out.push_str(&sql::render_create_table(st.data().schema(), st.sigma()));
            out.push('\n');
            if !st.data().is_empty() {
                out.push_str(&sql::render_table_insert(name, st.data()));
                out.push('\n');
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attrs::AttrSet;
    use crate::constraint::{Fd, Key};
    use crate::tuple;

    fn purchase_db() -> Database {
        let mut db = Database::new();
        db.run_script(
            "CREATE TABLE purchase (
                order_id INT NOT NULL,
                item     TEXT NOT NULL,
                catalog  TEXT,
                price    INT NOT NULL,
                CONSTRAINT fd CERTAIN FD (item, catalog) -> (price)
            );
            INSERT INTO purchase VALUES
                (5299401, 'Fitbit Surge', 'Amazon', 240),
                (7485113, 'Dora Doll', 'Kingtoys', 25);",
        )
        .unwrap();
        db
    }

    #[test]
    fn script_loads_and_data_is_queryable() {
        let db = purchase_db();
        assert_eq!(db.table_names(), vec!["purchase"]);
        let t = db.table("purchase").unwrap();
        assert_eq!(t.data().len(), 2);
        assert_eq!(t.sigma().fds.len(), 1);
    }

    #[test]
    fn insert_enforces_cfd() {
        let mut db = purchase_db();
        // Same (item, catalog), same price: fine (duplicates allowed!).
        db.insert("purchase", tuple![1i64, "Fitbit Surge", "Amazon", 240i64])
            .unwrap();
        // Different price: rejected, table unchanged.
        let err = db
            .insert("purchase", tuple![2i64, "Fitbit Surge", "Amazon", 999i64])
            .unwrap_err();
        assert!(matches!(err, EngineError::ConstraintViolation { .. }));
        assert_eq!(db.table("purchase").unwrap().data().len(), 3);
        // Weak similarity bites: NULL catalog with a new price conflicts
        // with the Amazon row.
        let err2 = db
            .insert("purchase", tuple![3i64, "Fitbit Surge", null, 100i64])
            .unwrap_err();
        assert!(matches!(err2, EngineError::ConstraintViolation { .. }));
        // …but the same price is accepted.
        db.insert("purchase", tuple![3i64, "Fitbit Surge", null, 240i64])
            .unwrap();
    }

    #[test]
    fn not_null_and_arity_enforced() {
        let mut db = purchase_db();
        let e = db
            .insert("purchase", tuple![null, "X", "Y", 1i64])
            .unwrap_err();
        assert!(matches!(e, EngineError::NotNullViolation { .. }));
        let e2 = db.insert("purchase", tuple![1i64]).unwrap_err();
        assert!(matches!(e2, EngineError::ArityMismatch { .. }));
    }

    #[test]
    fn update_rolls_back_on_violation() {
        let mut db = purchase_db();
        db.insert("purchase", tuple![9i64, "Fitbit Surge", "Amazon", 240i64])
            .unwrap();
        // Changing one of the two Amazon prices breaks the c-FD.
        let err = db
            .update("purchase", 0, "price", Value::Int(999))
            .unwrap_err();
        assert!(matches!(err, EngineError::ConstraintViolation { .. }));
        let t = db.table("purchase").unwrap().data();
        assert_eq!(t.rows()[0].get(t.schema().a("price")), &Value::Int(240));
        // Changing the item breaks the agreement instead: allowed.
        db.update("purchase", 0, "item", Value::str("Fitbit Versa"))
            .unwrap();
        // NOT NULL still enforced on update.
        let e2 = db.update("purchase", 0, "price", Value::Null).unwrap_err();
        assert!(matches!(e2, EngineError::NotNullViolation { .. }));
    }

    #[test]
    fn update_of_an_unknown_column_names_the_column() {
        let mut db = purchase_db();
        let err = db
            .update("purchase", 0, "colour", Value::str("red"))
            .unwrap_err();
        assert_eq!(
            err,
            EngineError::NoSuchColumn {
                table: "purchase".to_owned(),
                column: "colour".to_owned(),
            }
        );
        assert_eq!(
            err.to_string(),
            "table \"purchase\" has no column \"colour\""
        );
    }

    #[test]
    fn keys_reject_duplicates_fds_do_not() {
        let mut db = Database::new();
        let schema = TableSchema::new("t", ["a", "b"], &[]);
        let sigma = Sigma::new()
            .with(Key::certain(AttrSet::from_indices([0])))
            .with(Fd::certain(
                AttrSet::from_indices([0]),
                AttrSet::from_indices([1]),
            ));
        db.create_table(schema, sigma).unwrap();
        db.insert("t", tuple![1i64, 10i64]).unwrap();
        // The c-key rejects even an identical duplicate.
        let e = db.insert("t", tuple![1i64, 10i64]).unwrap_err();
        assert!(matches!(e, EngineError::ConstraintViolation { .. }));
        // A NULL key value is weakly similar to everything: rejected.
        let e2 = db.insert("t", tuple![null, 20i64]).unwrap_err();
        assert!(matches!(e2, EngineError::ConstraintViolation { .. }));
        db.insert("t", tuple![2i64, 20i64]).unwrap();
    }

    #[test]
    fn delete_returns_row() {
        let mut db = purchase_db();
        let removed = db.delete("purchase", 0).unwrap();
        assert_eq!(
            removed,
            tuple![5299401i64, "Fitbit Surge", "Amazon", 240i64]
        );
        assert_eq!(db.table("purchase").unwrap().data().len(), 1);
        assert!(matches!(
            db.delete("purchase", 5),
            Err(EngineError::NoSuchRow { .. })
        ));
    }

    #[test]
    fn export_script_round_trips() {
        let db = purchase_db();
        let script = db.export_script();
        let mut back = Database::new();
        back.run_script(&script).unwrap();
        assert_eq!(back.export_script(), script);
        assert_eq!(back.table("purchase").unwrap().data().len(), 2);
    }

    #[test]
    fn duplicate_table_and_missing_table_errors() {
        let mut db = purchase_db();
        let schema = TableSchema::new("purchase", ["x"], &[]);
        assert!(matches!(
            db.create_table(schema, Sigma::new()),
            Err(EngineError::DuplicateTable(_))
        ));
        assert!(matches!(
            db.insert("nope", tuple![1i64]),
            Err(EngineError::NoSuchTable(_))
        ));
    }

    #[test]
    fn error_display_is_informative() {
        let mut db = purchase_db();
        let err = db
            .insert("purchase", tuple![2i64, "Dora Doll", "Kingtoys", 999i64])
            .unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("purchase"));
        assert!(msg.contains("->w"));
    }
}
