//! Property test for the columnar primary storage: under arbitrary
//! engine insert and rollback sequences the incrementally-maintained
//! dictionary codes
//! must stay a faithful view of the row data — same shape, nulls
//! exactly at code 0, and per-column code equality coinciding with
//! value equality across every row pair. That last clause is the whole
//! contract discovery builds on: partitions read codes, never values.
//!
//! Under a non-empty Σ the engine also refuses rows, and a refused
//! INSERT must leave the column store byte-identical — codes,
//! null lists and dictionary sizes: candidates are encoded by lookup,
//! never by growing a dictionary.
//!
//! The columns are a table's only storage, so its rows are checked
//! against a reference row list kept beside it: every decoded row and
//! cell, table equality, and a clone that shares every code vector.

use proptest::prelude::*;
use sqlnf_model::attrs::Attr;
use sqlnf_model::engine::StoredTable;
use sqlnf_model::prelude::*;
use std::sync::Arc;

const COLS: usize = 3;

#[derive(Debug, Clone)]
enum Op {
    Insert(Vec<Value>),
    Truncate { len: usize },
}

fn small_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        3 => (0i64..4).prop_map(Value::Int),
        2 => "[ab]{1,2}".prop_map(Value::str),
        1 => Just(Value::Null),
    ]
}

/// One random FD or key over the `COLS` columns, possible or certain.
fn constraint() -> impl Strategy<Value = Constraint> {
    let attrs = || (0u32..(1 << COLS)).prop_map(|bits| AttrSet(bits as u128));
    let modality = prop_oneof![Just(Modality::Possible), Just(Modality::Certain)];
    prop_oneof![
        3 => (attrs(), attrs(), modality.clone()).prop_map(
            |(lhs, rhs, modality)| Constraint::Fd(Fd { lhs, rhs, modality })
        ),
        1 => (attrs(), modality).prop_map(|(attrs, modality)| {
            Constraint::Key(Key { attrs, modality })
        }),
    ]
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => proptest::collection::vec(small_value(), COLS).prop_map(Op::Insert),
        1 => (0usize..8).prop_map(|len| Op::Truncate { len }),
    ]
}

/// One mutation of a bare [`Table`].
#[derive(Debug, Clone)]
enum TableOp {
    Push(Vec<Value>),
    Set {
        row: usize,
        col: usize,
        value: Value,
    },
    Truncate {
        len: usize,
    },
}

fn table_op() -> impl Strategy<Value = TableOp> {
    prop_oneof![
        5 => proptest::collection::vec(small_value(), COLS).prop_map(TableOp::Push),
        3 => (0usize..8, 0usize..COLS, small_value())
            .prop_map(|(row, col, value)| TableOp::Set { row, col, value }),
        1 => (0usize..8).prop_map(|len| TableOp::Truncate { len }),
    ]
}

/// The table reads back exactly the reference rows, equals the table
/// built from them and no table built from other rows, and a clone
/// shares its code vectors.
fn assert_matches_reference(t: &Table, reference: &[Tuple]) {
    let schema = t.schema().clone();
    assert_eq!(t.len(), reference.len(), "row count out of sync");
    for (i, row) in reference.iter().enumerate() {
        assert_eq!(&t.row(i), row, "row {i} decodes wrong");
        let r = t.row_ref(i);
        for c in 0..COLS {
            let a = Attr::from(c);
            assert_eq!(r.get(a), row.get(a), "cell ({i}, {c}) reads wrong");
        }
    }
    assert_eq!(*t, Table::from_rows(schema.clone(), reference.to_vec()));
    if let Some((_, fewer)) = reference.split_last() {
        assert_ne!(*t, Table::from_rows(schema.clone(), fewer.to_vec()));
        // `[ab]{1,2}` never draws "zz".
        let mut changed = reference.to_vec();
        *changed[0].get_mut(Attr::from(0)) = Value::str("zz");
        assert_ne!(*t, Table::from_rows(schema, changed));
    }
    let clone = t.clone();
    let (mine, theirs) = (t.snapshot(), clone.snapshot());
    for c in 0..COLS {
        assert!(
            Arc::ptr_eq(&mine.cols[c], &theirs.cols[c]),
            "a clone copied column {c}"
        );
    }
    assert_eq!(clone, *t);
}

/// The agreement invariant between the two representations held by one
/// [`Table`]: codes are an exact quotient of the values, column by
/// column.
fn assert_columnar_faithful(t: &Table) {
    let snap = t.snapshot();
    assert_eq!(snap.rows, t.len(), "row count out of sync");
    assert_eq!(snap.cols.len(), t.schema().arity(), "arity out of sync");
    for c in 0..t.schema().arity() {
        let col = &snap.cols[c];
        assert_eq!(col.codes.len(), t.len(), "column {c} length out of sync");
        let a = Attr::from(c);
        for r in 0..t.len() {
            let code = col.codes[r];
            let is_null = t.rows()[r].get(a) == &Value::Null;
            assert_eq!(code == 0, is_null, "null/code-0 mismatch at ({r}, {c})");
            assert!((code as usize) < snap.dict_sizes[c] as usize + 1);
            assert_eq!(
                col.null_rows.binary_search(&(r as u32)).is_ok(),
                is_null,
                "null_rows index wrong at ({r}, {c})"
            );
        }
        for r in 0..t.len() {
            for s in (r + 1)..t.len() {
                assert_eq!(
                    col.codes[r] == col.codes[s],
                    t.rows()[r].get(a) == t.rows()[s].get(a),
                    "code equality diverges from value equality at rows ({r}, {s}), column {c}"
                );
            }
        }
    }
}

/// A refused statement left the column store exactly as it was.
fn assert_snapshot_unchanged(before: &ColumnSnapshot, after: &ColumnSnapshot) {
    assert_eq!(before.rows, after.rows, "refusal changed the row count");
    assert_eq!(
        before.cols, after.cols,
        "refusal changed codes or null lists"
    );
    assert_eq!(
        before.dict_sizes, after.dict_sizes,
        "refusal grew a dictionary"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn columnar_codes_track_row_values_under_dml(
        constraints in proptest::collection::vec(constraint(), 1..=3),
        ops in proptest::collection::vec(op_strategy(), 1..40),
    ) {
        let names: Vec<String> = (0..COLS).map(|i| format!("a{i}")).collect();
        let schema = TableSchema::new("t", names, &[]);
        for sigma in [Sigma::default(), Sigma::from_constraints(constraints)] {
            let unconstrained = sigma.is_empty();
            let mut stored = StoredTable::new(schema.clone(), sigma);
            for op in ops.clone() {
                // Violations of Σ are refused and must leave no trace;
                // with an empty Σ every insert lands.
                let before = stored.data().snapshot();
                let insert = matches!(op, Op::Insert(_));
                let refused = match op {
                    Op::Insert(values) => stored.insert(Tuple::new(values)).is_err(),
                    Op::Truncate { len } => {
                        stored.truncate(len);
                        false
                    }
                };
                assert!(!(insert && refused && unconstrained), "no constraints");
                if refused {
                    assert_snapshot_unchanged(&before, &stored.data().snapshot());
                }
                assert_columnar_faithful(stored.data());
            }
        }
    }

    #[test]
    fn table_rows_match_a_reference_row_list(
        ops in proptest::collection::vec(table_op(), 1..40),
    ) {
        let names: Vec<String> = (0..COLS).map(|i| format!("a{i}")).collect();
        let mut t = Table::new(TableSchema::new("t", names, &[]));
        let mut reference: Vec<Tuple> = Vec::new();
        for op in ops {
            match op {
                TableOp::Push(values) => {
                    t.push(Tuple::new(values.clone()));
                    reference.push(Tuple::new(values));
                }
                TableOp::Set { row, col, value } if row < reference.len() => {
                    t.set_value(row, Attr::from(col), value.clone());
                    *reference[row].get_mut(Attr::from(col)) = value;
                }
                TableOp::Truncate { len } => {
                    t.truncate(len);
                    reference.truncate(len);
                }
                TableOp::Set { .. } => {}
            }
            assert_matches_reference(&t, &reference);
            assert_columnar_faithful(&t);
        }
    }
}
