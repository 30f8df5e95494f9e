//! Model-based property testing of the storage engine: random
//! insert sequences against a declared constraint set. Invariants:
//!
//! 1. every reachable state satisfies the NFS and every constraint;
//! 2. an operation is accepted iff applying it naively would leave the
//!    instance valid (the engine is a *sound and complete* gate);
//! 3. rejected operations leave the state byte-identical.
//!
//! Truncation (the rollback of an appending statement) rides along:
//! it is always valid, and its reference simply drops the tail rows.

mod common;

use common::*;
use proptest::prelude::*;
use sqlnf::model::incremental::IndexBank;
use sqlnf::prelude::*;

const COLS: usize = 3;

#[derive(Debug, Clone)]
enum Op {
    Insert(Vec<Value>),
    Truncate { len: usize },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => proptest::collection::vec(small_value(), COLS).prop_map(Op::Insert),
        1 => (0usize..6).prop_map(|len| Op::Truncate { len }),
    ]
}

fn schema_with_nfs(nfs: AttrSet) -> TableSchema {
    let names: Vec<String> = (0..COLS).map(|i| format!("a{i}")).collect();
    let nn: Vec<String> = nfs.iter().map(|a| format!("a{}", a.index())).collect();
    let nn_refs: Vec<&str> = nn.iter().map(String::as_str).collect();
    TableSchema::new("t", names, &nn_refs)
}

/// Reference semantics: would the naive application of `op` leave a
/// valid instance?
fn naive_would_be_valid(current: &Table, sigma: &Sigma, op: &Op) -> Option<Table> {
    let mut next_rows = current.rows().to_vec();
    match op {
        Op::Insert(values) => next_rows.push(Tuple::new(values.clone())),
        Op::Truncate { len } => next_rows.truncate(*len),
    }
    let next = Table::from_rows(current.schema().clone(), next_rows);
    if next.satisfies_nfs() && satisfies_all(&next, sigma) {
        Some(next)
    } else {
        None
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn engine_is_a_sound_and_complete_gate(
        sigma in sigma(COLS, 3),
        nfs in attr_subset(COLS),
        ops in proptest::collection::vec(op_strategy(), 1..25),
    ) {
        let schema = schema_with_nfs(nfs);
        let mut db = Database::new();
        db.create_table(schema.clone(), sigma.clone()).unwrap();

        for op in &ops {
            let before = db.table("t").unwrap().data().clone();
            let expected = naive_would_be_valid(&before, &sigma, op);
            let result = match op {
                Op::Insert(values) => db.insert("t", Tuple::new(values.clone())),
                Op::Truncate { len } => db.truncate("t", *len),
            };
            let after = db.table("t").unwrap().data().clone();
            match (result, expected) {
                (Ok(()), Some(next)) => {
                    prop_assert!(after.multiset_eq(&next) || after.rows() == next.rows());
                }
                (Ok(()), None) => {
                    prop_assert!(false, "engine accepted an invalid {op:?}\n{after}");
                }
                (Err(_), Some(_)) => {
                    prop_assert!(false, "engine rejected a valid {op:?}\n{before}");
                }
                (Err(_), None) => {
                    prop_assert!(
                        after.rows() == before.rows(),
                        "rejected op mutated state"
                    );
                }
            }
            // Invariant 1 at every step.
            prop_assert!(after.satisfies_nfs());
            prop_assert!(satisfies_all(&after, &sigma));
        }
    }

    /// The incrementally-maintained index bank is equivalent to a bank
    /// rebuilt from scratch after every operation: for any probe row,
    /// both agree on admissibility, on the first violated constraint
    /// and on the conflicting row. A rollback drops only tail rows, so
    /// every group keeps its members in row order, as a rebuild does.
    #[test]
    fn incremental_bank_matches_rebuild(
        sigma in sigma(COLS, 3),
        nfs in attr_subset(COLS),
        ops in proptest::collection::vec(op_strategy(), 1..20),
        probes in proptest::collection::vec(
            proptest::collection::vec(small_value(), COLS), 1..5),
    ) {
        let schema = schema_with_nfs(nfs);
        let mut db = Database::new();
        db.create_table(schema, sigma.clone()).unwrap();

        for op in &ops {
            let _ = match op {
                Op::Insert(values) => db.insert("t", Tuple::new(values.clone())),
                Op::Truncate { len } => db.truncate("t", *len),
            };
            let stored = db.table("t").unwrap();
            let rebuilt = IndexBank::build(&sigma, stored.data());
            for p in &probes {
                let codes = stored.data().lookup_codes(&Tuple::new(p.clone()));
                let incremental = stored.bank().check(stored.data(), &codes);
                let reference = rebuilt.check(stored.data(), &codes);
                prop_assert_eq!(incremental, reference, "bank divergence after {op:?}");
            }
        }
    }
}
