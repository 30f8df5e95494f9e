#![allow(dead_code)]
//! Shared proptest strategies for the integration suites: random small
//! tables over a tiny domain, random constraint sets, random schemata.

use proptest::prelude::*;
use sqlnf::prelude::*;

/// Strategy: a value from {0, 1, 2, ⊥}.
pub fn small_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        2 => (0i64..3).prop_map(Value::Int),
        1 => Just(Value::Null),
    ]
}

/// Strategy: a table with `cols` columns named a0.. and 0..=max_rows
/// rows over the small domain (all columns nullable).
pub fn small_table(cols: usize, max_rows: usize) -> impl Strategy<Value = Table> {
    let row = proptest::collection::vec(small_value(), cols);
    proptest::collection::vec(row, 0..=max_rows).prop_map(move |rows| {
        let names: Vec<String> = (0..cols).map(|i| format!("a{i}")).collect();
        let schema = TableSchema::new("t", names, &[]);
        Table::from_rows(schema, rows.into_iter().map(Tuple::new))
    })
}

/// Strategy: a table of `nullable` columns over the small domain
/// followed by `total` null-free columns over {0, 1, 2}, with
/// 0..=max_rows rows. LHSs mixing both kinds share nullable
/// footprints and leave a non-empty null-free remainder.
pub fn mixed_table(nullable: usize, total: usize, max_rows: usize) -> impl Strategy<Value = Table> {
    let row = (
        proptest::collection::vec(small_value(), nullable),
        proptest::collection::vec((0i64..3).prop_map(Value::Int), total),
    );
    proptest::collection::vec(row, 0..=max_rows).prop_map(move |rows| {
        let names: Vec<String> = (0..nullable + total).map(|i| format!("a{i}")).collect();
        let schema = TableSchema::new("t", names, &[]);
        Table::from_rows(
            schema,
            rows.into_iter().map(|(mut values, rest)| {
                values.extend(rest);
                Tuple::new(values)
            }),
        )
    })
}

/// Strategy: an attribute subset of the first `cols` attributes.
pub fn attr_subset(cols: usize) -> impl Strategy<Value = AttrSet> {
    (0u32..(1 << cols)).prop_map(|bits| AttrSet(bits as u128))
}

/// Strategy: a non-empty attribute subset.
pub fn nonempty_subset(cols: usize) -> impl Strategy<Value = AttrSet> {
    (1u32..(1 << cols)).prop_map(|bits| AttrSet(bits as u128))
}

/// Strategy: one random constraint over `cols` attributes.
pub fn constraint(cols: usize) -> impl Strategy<Value = Constraint> {
    let modality = prop_oneof![Just(Modality::Possible), Just(Modality::Certain)];
    prop_oneof![
        3 => (attr_subset(cols), attr_subset(cols), modality.clone()).prop_map(
            |(lhs, rhs, modality)| Constraint::Fd(Fd { lhs, rhs, modality })
        ),
        1 => (attr_subset(cols), modality).prop_map(|(attrs, modality)| {
            Constraint::Key(Key { attrs, modality })
        }),
    ]
}

/// Strategy: a constraint set of up to `max` constraints.
pub fn sigma(cols: usize, max: usize) -> impl Strategy<Value = Sigma> {
    proptest::collection::vec(constraint(cols), 0..=max).prop_map(Sigma::from_constraints)
}

/// Strategy: a constraint set of certain keys and total FDs only (the
/// input class of Algorithm 3).
pub fn total_sigma(cols: usize, max: usize) -> impl Strategy<Value = Sigma> {
    let item = prop_oneof![
        3 => (nonempty_subset(cols), attr_subset(cols)).prop_map(|(lhs, extra)| {
            Constraint::Fd(Fd::certain(lhs, lhs | extra))
        }),
        1 => nonempty_subset(cols).prop_map(|attrs| Constraint::Key(Key::certain(attrs))),
    ];
    proptest::collection::vec(item, 0..=max).prop_map(Sigma::from_constraints)
}
