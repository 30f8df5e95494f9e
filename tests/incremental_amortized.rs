//! Amortized-cost evidence for the incremental miner, isolated in its
//! own test binary because it asserts on process-wide obs counters.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sqlnf::discovery::classify::mine_report;
use sqlnf::discovery::incremental::IncrementalMiner;
use sqlnf::discovery::mine::DEFAULT_CACHE_BUDGET;
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

#[test]
fn amortized_cost_beats_scratch_on_small_deltas() {
    // The acceptance claim in miniature: after a 1-row delta the
    // incremental mine touches far fewer candidates than a full run.
    sqlnf_obs::reset();
    let mut rng = StdRng::seed_from_u64(23);
    let schema = TableSchema::new(
        "t",
        (0..COLS).map(|i| format!("c{i}")).collect::<Vec<_>>(),
        &[],
    );
    let mut table = Table::new(schema);
    for _ in 0..200 {
        table.push(random_tuple(&mut rng));
    }
    let mut m = IncrementalMiner::from_table(&table);
    let _ = m.report("t", MAX_LHS, DEFAULT_CACHE_BUDGET); // warm the frontier

    sqlnf_obs::reset();
    let _ = m.report("t", MAX_LHS, DEFAULT_CACHE_BUDGET);
    let warm = sqlnf_obs::report()
        .counter("discovery.partition.rows_scanned")
        .unwrap_or(0);

    sqlnf_obs::reset();
    let _ = mine_report("t", &m.table(), MAX_LHS, DEFAULT_CACHE_BUDGET);
    let scratch = sqlnf_obs::report()
        .counter("discovery.partition.rows_scanned")
        .unwrap_or(0);

    assert!(
        warm * 10 <= scratch.max(1),
        "warm incremental mine scanned {warm} rows vs {scratch} from scratch"
    );
}
