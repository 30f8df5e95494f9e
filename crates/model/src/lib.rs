//! # sqlnf-model
//!
//! Substrate for SQL schema design à la Köhler & Link (SIGMOD 2016):
//! the data model of Section 2 — attribute sets, table schemata with
//! null-free subschemata, multiset tables whose cells may carry the
//! "no information" null marker, weak/strong similarity, the constraint
//! language (p/c-FDs, p/c-keys, NOT NULL), constraint satisfaction, and
//! the set/multiset projections and equality joins of Section 6.
//!
//! The reasoning machinery (closures, implication, normal forms,
//! decompositions) lives in `sqlnf-core`, which builds on this crate.

#![warn(missing_docs)]

pub mod attrs;
pub mod column;
pub mod constraint;
pub mod csv;
pub mod engine;
pub mod incremental;
pub mod join;
pub mod project;
pub mod satisfy;
pub mod schema;
pub mod similarity;
pub mod sql;
pub mod stats;
pub mod table;
pub mod tuple;
pub mod value;

/// Convenience re-exports for downstream crates, tests and examples.
pub mod prelude {
    pub use crate::attrs::{Attr, AttrSet};
    pub use crate::column::{ColData, ColumnSnapshot, ColumnStore};
    pub use crate::constraint::{Constraint, Fd, Key, Modality, Sigma};
    pub use crate::csv::{table_from_csv, table_to_csv};
    pub use crate::engine::{Database, EngineError, StoredTable};
    pub use crate::join::{join, join_all, reorder_columns};
    pub use crate::project::{project_multiset, project_set, total_part};
    pub use crate::satisfy::{
        fd_violation, key_violation, satisfies, satisfies_all, satisfies_fd, satisfies_key,
        satisfies_weak_fd, violations, weak_fd_violation,
    };
    pub use crate::schema::TableSchema;
    pub use crate::similarity::{strongly_similar, weakly_similar, Agreement};
    pub use crate::sql::{
        parse_script, parse_statement, render_create_table, render_insert, render_table_insert,
        ParseError, Statement,
    };
    pub use crate::stats::{profile, render_profile, TableProfile};
    pub use crate::table::{RowRef, Table, TableBuilder};
    pub use crate::tuple;
    pub use crate::tuple::Tuple;
    pub use crate::value::Value;
}
