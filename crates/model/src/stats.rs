//! Instance profiling: per-column and whole-table statistics of the
//! kind the paper's Section 7 reports (null frequencies, distinct
//! counts, duplicate rows), used by the experiments and the schema
//! advisor example.

use crate::attrs::Attr;
use crate::table::Table;
use sqlnf_obs::json::JsonValue;
use std::collections::HashSet;

/// Statistics of one column.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnProfile {
    /// Column name.
    pub name: String,
    /// Number of `⊥` cells.
    pub nulls: usize,
    /// Fraction of `⊥` cells (0 for an empty table).
    pub null_rate: f64,
    /// Number of distinct non-null values.
    pub distinct: usize,
    /// Whether the column is unique over non-null values (a candidate
    /// p-key on its own when `nulls + distinct == rows`).
    pub unique_non_null: bool,
}

/// Statistics of a whole instance.
#[derive(Debug, Clone, PartialEq)]
pub struct TableProfile {
    /// Table name.
    pub name: String,
    /// Rows (with multiplicity).
    pub rows: usize,
    /// Columns.
    pub columns: usize,
    /// Distinct rows.
    pub distinct_rows: usize,
    /// Rows minus distinct rows.
    pub duplicate_rows: usize,
    /// Total `⊥` cells.
    pub total_nulls: usize,
    /// Per-column details, in column order.
    pub column_profiles: Vec<ColumnProfile>,
}

impl TableProfile {
    /// Whether the instance is an idealized relation: total and
    /// duplicate-free.
    pub fn is_idealized(&self) -> bool {
        self.total_nulls == 0 && self.duplicate_rows == 0
    }
}

/// Profiles an instance.
pub fn profile(table: &Table) -> TableProfile {
    let _span = sqlnf_obs::span!("profile");
    let rows = table.len();
    let mut column_profiles = Vec::with_capacity(table.schema().arity());
    let mut total_nulls = 0usize;
    for i in 0..table.schema().arity() {
        let a = Attr::from(i);
        let nulls = table.null_count(a);
        total_nulls += nulls;
        let mut distinct: HashSet<&crate::value::Value> = HashSet::new();
        for t in table.iter() {
            let v = t.get(a);
            if v.is_total() {
                distinct.insert(v);
            }
        }
        column_profiles.push(ColumnProfile {
            name: table.schema().column_name(a).to_owned(),
            nulls,
            null_rate: if rows == 0 {
                0.0
            } else {
                nulls as f64 / rows as f64
            },
            distinct: distinct.len(),
            unique_non_null: distinct.len() + nulls == rows,
        });
    }
    let distinct_rows = table.distinct_count();
    TableProfile {
        name: table.schema().name().to_owned(),
        rows,
        columns: table.schema().arity(),
        distinct_rows,
        duplicate_rows: rows - distinct_rows,
        total_nulls,
        column_profiles,
    }
}

/// The profile as a JSON document — the machine-readable counterpart of
/// [`render_profile`], embedded by the CLI under `--stats-json`.
pub fn profile_to_json(p: &TableProfile) -> JsonValue {
    let columns = JsonValue::Array(
        p.column_profiles
            .iter()
            .map(|c| {
                JsonValue::Object(vec![
                    ("name".to_string(), JsonValue::Str(c.name.clone())),
                    ("nulls".to_string(), JsonValue::Int(c.nulls as i128)),
                    ("null_rate".to_string(), JsonValue::Float(c.null_rate)),
                    ("distinct".to_string(), JsonValue::Int(c.distinct as i128)),
                    (
                        "unique_non_null".to_string(),
                        JsonValue::Bool(c.unique_non_null),
                    ),
                ])
            })
            .collect(),
    );
    JsonValue::Object(vec![
        ("name".to_string(), JsonValue::Str(p.name.clone())),
        ("rows".to_string(), JsonValue::Int(p.rows as i128)),
        ("columns".to_string(), JsonValue::Int(p.columns as i128)),
        (
            "distinct_rows".to_string(),
            JsonValue::Int(p.distinct_rows as i128),
        ),
        (
            "duplicate_rows".to_string(),
            JsonValue::Int(p.duplicate_rows as i128),
        ),
        (
            "total_nulls".to_string(),
            JsonValue::Int(p.total_nulls as i128),
        ),
        ("column_profiles".to_string(), columns),
    ])
}

/// Renders a profile as an aligned text block.
pub fn render_profile(p: &TableProfile) -> String {
    let mut out = format!(
        "{}: {} rows × {} columns, {} duplicate rows, {} nulls\n",
        p.name, p.rows, p.columns, p.duplicate_rows, p.total_nulls
    );
    for c in &p.column_profiles {
        out.push_str(&format!(
            "  {:<24} distinct {:>6}  nulls {:>6} ({:>5.1}%){}\n",
            c.name,
            c.distinct,
            c.nulls,
            c.null_rate * 100.0,
            if c.unique_non_null { "  [unique]" } else { "" }
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::TableBuilder;
    use crate::tuple;

    fn sample() -> Table {
        TableBuilder::new("s", ["id", "city", "note"], &[])
            .row(tuple![1i64, "Columbia", null])
            .row(tuple![2i64, "Columbia", "x"])
            .row(tuple![3i64, null, null])
            .row(tuple![3i64, null, null])
            .build()
    }

    #[test]
    fn profile_counts() {
        let p = profile(&sample());
        assert_eq!(p.rows, 4);
        assert_eq!(p.columns, 3);
        assert_eq!(p.distinct_rows, 3);
        assert_eq!(p.duplicate_rows, 1);
        assert_eq!(p.total_nulls, 5);
        assert!(!p.is_idealized());

        let id = &p.column_profiles[0];
        assert_eq!(id.distinct, 3);
        assert_eq!(id.nulls, 0);
        assert!(!id.unique_non_null); // the duplicated 3

        let city = &p.column_profiles[1];
        assert_eq!(city.distinct, 1);
        assert_eq!(city.nulls, 2);
        assert!((city.null_rate - 0.5).abs() < 1e-12);
    }

    #[test]
    fn idealized_relation() {
        let t = TableBuilder::new("r", ["a"], &["a"])
            .row(tuple![1i64])
            .row(tuple![2i64])
            .build();
        let p = profile(&t);
        assert!(p.is_idealized());
        assert!(p.column_profiles[0].unique_non_null);
    }

    #[test]
    fn empty_table_profile() {
        let t = Table::new(crate::schema::TableSchema::new("e", ["a"], &[]));
        let p = profile(&t);
        assert_eq!(p.rows, 0);
        assert_eq!(p.column_profiles[0].null_rate, 0.0);
        assert!(p.column_profiles[0].unique_non_null);
    }

    #[test]
    fn profile_json_parses_back() {
        let p = profile(&sample());
        let text = profile_to_json(&p).to_json();
        let doc = sqlnf_obs::json::parse(&text).unwrap();
        assert_eq!(doc.get("rows").and_then(|v| v.as_u64()), Some(4));
        assert_eq!(doc.get("total_nulls").and_then(|v| v.as_u64()), Some(5));
        let cols = doc
            .get("column_profiles")
            .and_then(|v| v.as_array())
            .unwrap();
        assert_eq!(cols.len(), 3);
        assert_eq!(cols[1].get("name").and_then(|v| v.as_str()), Some("city"));
        assert_eq!(cols[1].get("nulls").and_then(|v| v.as_u64()), Some(2));
    }

    #[test]
    fn rendering_mentions_columns() {
        let r = render_profile(&profile(&sample()));
        assert!(r.contains("city"));
        assert!(r.contains("50.0%"));
    }
}
