//! Differential property for the incremental discovery engine: after
//! every batch of random inserts, the incremental `MINE` output — FDs under all four semantics, keys,
//! the WATCH hub's one-pass lattice walk, and the rendered report —
//! byte-equals a from-scratch mine of the same rows, with the
//! from-scratch side run at 1 and 4 threads (the miner's determinism
//! contract makes those identical to each other, so the incremental
//! replay must match both). On top of the per-semantics equality,
//! every batch checks the cross-semantics lattice: each
//! certain-mined FD has a weak-mined cover on a sub-LHS.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sqlnf::discovery::check::Semantics;
use sqlnf::discovery::classify::{mine_keys_budgeted, mine_report, report_lattice};
use sqlnf::discovery::incremental::IncrementalMiner;
use sqlnf::discovery::mine::DEFAULT_CACHE_BUDGET;
use sqlnf::discovery::mine::{mine_fds, MinerConfig};
use sqlnf::prelude::*;

const COLS: usize = 6;
const MAX_LHS: usize = 3;

fn random_tuple(rng: &mut StdRng) -> Tuple {
    Tuple::new(
        (0..COLS)
            .map(|c| {
                if rng.gen_bool(0.15) {
                    Value::Null
                } else {
                    Value::Int(rng.gen_range(0..3 + c as i64))
                }
            })
            .collect::<Vec<_>>(),
    )
}

/// A random tuple with nulls in its last column only, whose first
/// column determines its second, and its third but in one row of 25:
/// the c-FD `c0 -> c1` holds after every batch, and c-FDs `c0 X -> c2`
/// hold until dirty rows arrive. The certain plane of
/// [`random_tuple`] traces stays empty, as nulls in every column refute
/// every c-FD with an LHS of at most [`MAX_LHS`] attributes.
fn planted_tuple(rng: &mut StdRng) -> Tuple {
    let c0 = rng.gen_range(0..6);
    let dirty = rng.gen_bool(0.04);
    Tuple::new(
        (0..COLS)
            .map(|c| match c {
                0 => Value::Int(c0),
                1 => Value::Int(c0 / 2),
                2 if !dirty => Value::Int(c0 % 3),
                c if c == COLS - 1 && rng.gen_bool(0.15) => Value::Null,
                c => Value::Int(rng.gen_range(0..3 + c as i64)),
            })
            .collect::<Vec<_>>(),
    )
}

fn assert_incremental_matches(m: &mut IncrementalMiner, ctx: &str) {
    let table = m.table();
    let mut by_sem = Vec::with_capacity(Semantics::ALL.len());
    for sem in Semantics::ALL {
        let incr = m.mine_fds(sem, MAX_LHS, DEFAULT_CACHE_BUDGET);
        for threads in [1, 4] {
            let scratch = mine_fds(
                &table,
                MinerConfig::new(sem)
                    .with_max_lhs(MAX_LHS)
                    .with_threads(threads),
            );
            assert_eq!(scratch.fds, incr, "{ctx}: {sem:?} threads={threads}");
        }
        by_sem.push(incr);
    }
    // Lattice: certain ⊆ weak as implied sets — minimal LHSs may only
    // shrink under the laxer semantics.
    let (certain, weak) = (&by_sem[2], &by_sem[3]);
    for fd in certain {
        for a in fd.rhs {
            assert!(
                weak.iter()
                    .any(|w| w.lhs.is_subset(fd.lhs) && w.rhs.contains(a)),
                "{ctx}: certain-mined {:?} -> {a:?} has no weak cover",
                fd.lhs
            );
        }
    }
    assert_eq!(
        mine_keys_budgeted(&table, MAX_LHS, DEFAULT_CACHE_BUDGET),
        m.mine_keys(MAX_LHS, DEFAULT_CACHE_BUDGET),
        "{ctx}: keys"
    );
    // The walk the WATCH hub replays: its possible FDs, certain FDs and
    // keys (not its candidate count) equal one scratch report pass.
    let scratch = report_lattice(&table, MAX_LHS, DEFAULT_CACHE_BUDGET);
    let incr = m.lattice(MAX_LHS, DEFAULT_CACHE_BUDGET);
    assert_eq!(
        (scratch.fds, scratch.certain, scratch.keys),
        (incr.fds, incr.certain, incr.keys),
        "{ctx}: lattice"
    );
    assert_eq!(
        mine_report("t", &table, MAX_LHS, DEFAULT_CACHE_BUDGET),
        m.report("t", MAX_LHS, DEFAULT_CACHE_BUDGET),
        "{ctx}: report"
    );
}

fn run_insert_trace(
    seed: u64,
    batches: usize,
    rows_per_batch: usize,
    tuple: fn(&mut StdRng) -> Tuple,
) {
    let mut rng = StdRng::seed_from_u64(seed);
    let schema = TableSchema::new(
        "t",
        (0..COLS).map(|i| format!("c{i}")).collect::<Vec<_>>(),
        &[],
    );
    let mut table = Table::new(schema);
    for _ in 0..40 {
        table.push(tuple(&mut rng));
    }
    let mut m = IncrementalMiner::from_table(&table);
    assert_incremental_matches(&mut m, &format!("seed {seed} cold"));

    for batch in 0..batches {
        for _ in 0..rows_per_batch {
            m.insert(tuple(&mut rng));
        }
        assert_incremental_matches(&mut m, &format!("seed {seed} batch {batch}"));
    }
}

#[test]
fn incremental_matches_scratch_after_every_batch() {
    for seed in [3, 17, 92] {
        run_insert_trace(seed, 6, 12, random_tuple);
    }
    for seed in [5, 41] {
        run_insert_trace(seed, 6, 12, planted_tuple);
    }
}

#[test]
fn reconcile_audits_never_diverge() {
    // Reconcile after every delta: the audit itself asserts
    // incremental == from-scratch inside `report`.
    let mut rng = StdRng::seed_from_u64(7);
    let schema = TableSchema::new(
        "t",
        (0..COLS).map(|i| format!("c{i}")).collect::<Vec<_>>(),
        &[],
    );
    let mut m = IncrementalMiner::new(schema).with_reconcile_every(1);
    for step in 0..30 {
        m.insert(random_tuple(&mut rng));
        let _ = m.report("t", MAX_LHS, DEFAULT_CACHE_BUDGET);
        assert_eq!(m.deltas_applied(), step + 1);
    }
}
