//! B9 — amortized incremental mining: `IncrementalMiner` re-mining
//! after a small delta vs a from-scratch mine of the grown table,
//! across delta sizes {1, 32, 1000} on adult-scale data. Emits
//! `BENCH_mine_incremental.json` with wall-clock medians for both
//! paths plus the `discovery.partition.rows_scanned` work counters
//! (zero without `--features obs`) and the resulting speedups.
//!
//! Both paths run the lattice walk the serve tier runs: the scratch
//! leg is `report_lattice` (the walk behind `table_facts_with`), the
//! incremental leg `IncrementalMiner::lattice` (the WATCH hub's
//! `miner_facts`). Each yields the minimal possible FDs, certain FDs
//! and possible/certain keys of one pass, and the bench asserts both
//! legs' results are identical before recording a single number, so
//! the speedup is never bought with a weaker answer.

use sqlnf_bench::{banner, fmt_duration, measure, render_table, write_bench_json, BenchRecord};
use sqlnf_datagen::naumann::adult_like;
use sqlnf_discovery::prelude::{
    report_lattice, IncrementalMiner, Lattice, MinedFd, MinedKeys, DEFAULT_CACHE_BUDGET,
};
use sqlnf_model::prelude::*;
use sqlnf_obs::json::JsonValue;
use std::time::Instant;

/// LHS/key-size cap — matches the serve `MINE` verb and the WATCH
/// plane.
const MAX_LHS: usize = 3;

/// Rows of the base table the deltas land on. The adult generator's
/// full 48 842 rows make the from-scratch legs dominate the bench's
/// wall clock; a 16k prefix keeps the same schema and value mix.
const BASE_ROWS: usize = 16_384;

/// Measured runs per configuration (median taken).
const RUNS: usize = 3;

/// The mined surface both paths must agree on byte-for-byte: the
/// lattice without its candidate count.
#[derive(PartialEq)]
struct Mined {
    pfds: Vec<MinedFd>,
    cfds: Vec<MinedFd>,
    keys: MinedKeys,
}

impl From<Lattice> for Mined {
    fn from(pass: Lattice) -> Mined {
        Mined {
            pfds: pass.fds,
            cfds: pass.certain,
            keys: pass.keys,
        }
    }
}

fn mine_scratch(table: &Table) -> Mined {
    report_lattice(table, MAX_LHS, DEFAULT_CACHE_BUDGET).into()
}

fn mine_incremental(m: &mut IncrementalMiner) -> Mined {
    m.lattice(MAX_LHS, DEFAULT_CACHE_BUDGET).into()
}

/// Reads the partition work counter (0 when obs is compiled out).
fn rows_scanned() -> u64 {
    sqlnf_obs::report()
        .counter("discovery.partition.rows_scanned")
        .unwrap_or(0)
}

fn main() {
    banner("B9 — incremental MINE vs full re-mine (amortized delta cost, adult-scale)");
    let full = adult_like(1);
    let base = Table::from_rows(
        full.schema().clone(),
        full.rows().iter().take(BASE_ROWS).cloned(),
    );

    let mut records: Vec<BenchRecord> = Vec::new();
    let mut rows_out = Vec::new();
    for &delta in &[1usize, 32, 1000] {
        let delta_rows: Vec<Tuple> = full
            .rows()
            .iter()
            .skip(BASE_ROWS)
            .take(delta)
            .cloned()
            .collect();
        assert_eq!(delta_rows.len(), delta, "generator is large enough");
        let grown = {
            let mut rows: Vec<Tuple> = base.rows().to_vec();
            rows.extend(delta_rows.iter().cloned());
            Table::from_rows(base.schema().clone(), rows)
        };

        // From-scratch leg: mine the grown table whole, as `MINE`
        // would after the delta committed.
        let scratch_record = measure(&format!("mine_scratch_d{delta}"), RUNS, || {
            let _ = mine_scratch(&grown);
        });
        let scratch_scanned = scratch_record
            .obs
            .counter("discovery.partition.rows_scanned")
            .unwrap_or(0)
            / RUNS as u64;

        // Incremental leg: the miner is already warm on the base table
        // (seeded and mined once, untimed — that cost was paid long
        // ago in the amortized story); timed work is applying the
        // delta and re-mining.
        let mut timings = Vec::with_capacity(RUNS);
        let mut incr_scanned = 0u64;
        let mut incr_result = None;
        for run in 0..RUNS {
            let mut m = IncrementalMiner::from_table(&base);
            let _ = mine_incremental(&mut m);
            sqlnf_obs::reset();
            let before = rows_scanned();
            let t0 = Instant::now();
            for r in &delta_rows {
                m.insert(r.clone());
            }
            let mined = mine_incremental(&mut m);
            timings.push(t0.elapsed());
            if run == 0 {
                incr_scanned = rows_scanned() - before;
                incr_result = Some(mined);
            }
        }
        timings.sort();
        let incr_median = timings[RUNS / 2];

        // The determinism contract: the cheap path answers exactly
        // what the expensive one does.
        assert!(
            incr_result.expect("ran at least once") == mine_scratch(&grown),
            "incremental mine diverged from scratch at delta {delta}"
        );

        let wall_speedup =
            scratch_record.median.as_secs_f64() / incr_median.as_secs_f64().max(1e-12);
        let scan_speedup = if incr_scanned > 0 {
            scratch_scanned as f64 / incr_scanned as f64
        } else {
            0.0
        };
        let mut record = BenchRecord {
            id: format!("mine_incremental_d{delta}"),
            median: incr_median,
            obs: sqlnf_obs::report(),
            extra: Vec::new(),
        };
        record.extra.push((
            "scratch_median_ns".to_owned(),
            JsonValue::Int(scratch_record.median.as_nanos() as i128),
        ));
        record.extra.push((
            "rows_scanned_scratch".to_owned(),
            JsonValue::Int(scratch_scanned as i128),
        ));
        record.extra.push((
            "rows_scanned_incremental".to_owned(),
            JsonValue::Int(incr_scanned as i128),
        ));
        record
            .extra
            .push(("wall_speedup".to_owned(), JsonValue::Float(wall_speedup)));
        record
            .extra
            .push(("scan_speedup".to_owned(), JsonValue::Float(scan_speedup)));
        rows_out.push(vec![
            format!("delta {delta}"),
            fmt_duration(scratch_record.median),
            fmt_duration(incr_median),
            format!("{wall_speedup:.1}x"),
            format!("{scratch_scanned}"),
            format!("{incr_scanned}"),
            if incr_scanned > 0 {
                format!("{scan_speedup:.1}x")
            } else {
                "-".to_owned()
            },
        ]);
        records.push(scratch_record);
        records.push(record);
    }
    println!(
        "{}",
        render_table(
            &[
                "config",
                "scratch",
                "incremental",
                "speedup",
                "rows scanned (scratch)",
                "rows scanned (incr)",
                "scan speedup"
            ],
            &rows_out
        )
    );
    match write_bench_json("mine_incremental", &records) {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write BENCH_mine_incremental.json: {e}"),
    }
}
