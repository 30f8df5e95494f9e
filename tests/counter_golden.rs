//! Exact pins of the discovery work counters on fixed instances with
//! LHS cap 3. Each run below is recorded in
//! `tests/golden/discovery_counters.txt` as one block:
//!
//! * `[scratch]` — one `report_parts` pass on one thread over
//!   `hepatitis_like(7)`;
//! * `[incremental]` — one scripted `IncrementalMiner` run over
//!   `hepatitis_like(7)`: a cold report, then a report after each of
//!   inserting a copy of row 0, inserting two rows that break holding
//!   FDs, and inserting a row with an unseen age;
//! * `[scratch adult]` — one `report_parts` pass on one thread over the
//!   first 4,096 rows of `adult_like(20160626)`, a null-heavy shape
//!   whose certain tail builds probe indexes (hepatitis never does);
//! * `[mine_fds adult <semantics>]` — one single-semantics `mine_fds`
//!   walk on one thread over the same prefix, per semantics;
//! * `[scratch adult full]` and `[scratch million 200k]` — release only
//!   (`--ignored`): one `report_parts` pass on one thread over the full
//!   `adult_like(20160626)`, the report's real shape of 24 certain-tail
//!   sweeps, and over `million_like_with_rows(20160626, 200000)` with a
//!   [`MILLION_BUDGET`] partition budget, under which the lattice pass
//!   evicts previous-level partitions.
//!
//! Each line is `name value`; the test demands equality, so any change
//! to the rows a pass scans, the products it builds, its fused checks
//! and code sweeps, probe indexes and how they are served, weak pairs,
//! the partition store's evictions and misses or the candidates the
//! incremental replay touches shows up here. A change that moves a
//! counter on purpose updates the golden file with the block the
//! failure message prints.
//!
//! The report's post-pass phases are pinned to have spans as well.
//!
//! Kept as its own integration binary: the counters live in the
//! process-wide registry, and other suites mine concurrently. The
//! tests here share one lock for the same reason.

use sqlnf::discovery::check::Semantics;
use sqlnf::discovery::classify::{mine_report, render_report, report_parts};
use sqlnf::discovery::incremental::IncrementalMiner;
use sqlnf::discovery::mine::DEFAULT_CACHE_BUDGET;
use sqlnf::discovery::mine::{mine_fds, mine_fds_encoded, MinerConfig};
use sqlnf::discovery::partition::Encoded;
use sqlnf::prelude::*;
use std::sync::Mutex;
use std::time::Instant;

const GOLDEN: &str = include_str!("golden/discovery_counters.txt");

const MAX_LHS: usize = 3;

/// The pinned counters, in file order.
const COUNTERS: [&str; 13] = [
    "discovery.partition.rows_scanned",
    "discovery.partition.builds",
    "discovery.partition.products",
    "discovery.check.fused_checks",
    "discovery.check.code_sweeps",
    "discovery.check.probe_index.builds",
    "discovery.check.probe_index.hits",
    "discovery.check.probe_index.direct",
    "discovery.check.weak_pairs_visited",
    "discovery.mine.prev_level.evictions",
    "discovery.mine.prev_level.misses",
    "discovery.incr.candidates_touched",
    "discovery.check.sweep.rows_grouped",
];

static SERIAL: Mutex<()> = Mutex::new(());

fn fixture() -> Table {
    sqlnf::datagen::naumann::hepatitis_like(7)
}

/// The counters `run` moves, as the golden file's block `name`.
fn block(name: &str, run: impl FnOnce()) -> String {
    sqlnf_obs::reset();
    run();
    let report = sqlnf_obs::report();
    let mut out = format!("[{name}]\n");
    for counter in COUNTERS {
        let value = report.counter(counter).unwrap_or(0);
        out.push_str(&format!("{counter} {value}\n"));
    }
    out
}

/// The golden file's block `name`.
fn golden(name: &str) -> String {
    let header = format!("[{name}]\n");
    let start = GOLDEN.find(&header).expect("block in the golden file");
    let body = &GOLDEN[start + header.len()..];
    let end = body.find("\n[").map_or(body.len(), |i| i + 1);
    format!("{header}{}", &body[..end])
}

/// The first 4,096 rows of the seeded adult shape.
fn adult_prefix() -> Table {
    let t = sqlnf::datagen::naumann::adult_like(20_160_626);
    Table::from_rows(t.schema().clone(), t.rows()[..4096].to_vec())
}

/// The partition budget of the `[scratch million 200k]` block: small
/// enough that the lattice pass evicts.
const MILLION_BUDGET: usize = 4 << 20;

/// One single-threaded `report_parts` pass over `t` with `budget` as
/// the golden block `name`, checked against the scratch `MINE` report.
/// Returns the times the pass entered the certain tail's sweep.
fn check_scratch_block(name: &str, t: &Table, budget: usize) -> u64 {
    let enc = Encoded::new(t);
    let mut report = String::new();
    let got = block(name, || {
        let config = MinerConfig::new(Semantics::Possible)
            .with_max_lhs(MAX_LHS)
            .with_threads(1)
            .with_cache_budget(budget);
        let (cls, keys) = report_parts(&enc, t.schema().arity(), config);
        report = render_report("t", t.len(), t.schema(), MAX_LHS, &cls, &keys);
    });
    let sweeps = sqlnf_obs::report()
        .timer("discovery.check.probe_sweep")
        .map_or(0, |timer| timer.count);
    assert_eq!(report, mine_report("t", t, MAX_LHS, budget));
    assert!(got == golden(name), "{name} counters moved; now:\n{got}");
    sweeps
}

#[test]
fn scratch_report_counters_match_golden() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    check_scratch_block("scratch", &fixture(), DEFAULT_CACHE_BUDGET);
}

#[test]
fn scratch_adult_prefix_counters_match_golden() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    check_scratch_block("scratch adult", &adult_prefix(), DEFAULT_CACHE_BUDGET);
}

#[test]
fn mine_fds_adult_prefix_counters_match_golden() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let t = adult_prefix();
    let enc = Encoded::new(&t);
    for sem in Semantics::ALL {
        let name = format!("mine_fds adult {}", sem.token());
        let config = MinerConfig::new(sem).with_max_lhs(MAX_LHS).with_threads(1);
        let mut mined = None;
        let got = block(&name, || {
            mined = Some(mine_fds_encoded(&enc, t.schema().arity(), config, Instant::now()).fds);
        });
        assert_eq!(
            mined,
            Some(mine_fds(&t, config.with_threads(4)).fds),
            "{name}"
        );
        assert!(got == golden(&name), "{name} counters moved; now:\n{got}");
    }
}

/// The full adult report: its certain tail sweeps 24 times.
#[test]
#[ignore = "full adult report; run in release builds only"]
fn scratch_adult_full_counters_match_golden() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let t = sqlnf::datagen::naumann::adult_like(20_160_626);
    let sweeps = check_scratch_block("scratch adult full", &t, DEFAULT_CACHE_BUDGET);
    assert_eq!(sweeps, 24);
}

/// The telemetry shape past its partition budget.
#[test]
#[ignore = "200,000-row report; run in release builds only"]
fn scratch_million_counters_match_golden() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let t = sqlnf::datagen::naumann::million_like_with_rows(20_160_626, 200_000);
    check_scratch_block("scratch million 200k", &t, MILLION_BUDGET);
    let pinned = golden("scratch million 200k");
    assert!(
        !pinned.contains("prev_level.evictions 0\n"),
        "the budget evicts"
    );
}

/// The report's phases after its lattice pass are timed: one adult
/// prefix report enters the split, a probe-index build and a probe
/// sweep, so `METRICS` after a `MINE` shows where their time goes.
#[test]
fn report_phases_enter_their_spans() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let t = adult_prefix();
    let enc = Encoded::new(&t);
    sqlnf_obs::reset();
    let config = MinerConfig::new(Semantics::Possible)
        .with_max_lhs(MAX_LHS)
        .with_threads(1);
    report_parts(&enc, t.schema().arity(), config);
    let report = sqlnf_obs::report();
    for span in [
        "discovery.classify.split",
        "discovery.check.probe_index.build",
        "discovery.check.probe_sweep",
    ] {
        let entered = report.timer(span).map_or(0, |timer| timer.count);
        assert!(entered > 0, "{span} never entered");
    }
}

#[test]
fn incremental_counters_match_golden() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let t = fixture();
    let mut reports = Vec::new();
    let mut tables = Vec::new();
    let got = block("incremental", || {
        let mut m = IncrementalMiner::from_table(&t);
        let mut step = |m: &mut IncrementalMiner| {
            reports.push(m.report("t", MAX_LHS, DEFAULT_CACHE_BUDGET));
            tables.push(m.table());
        };
        step(&mut m);
        m.insert(t.rows()[0].clone());
        step(&mut m);
        // Copies of row 3 with its class, then its sex, flipped: every
        // FD into either column that held on an LHS row 3 is total on
        // now fails.
        for a in [Attr::from(0), Attr::from(2)] {
            let mut flipped = t.rows()[3].clone();
            let v = match flipped.get(a) {
                Value::Int(1) => 2,
                _ => 1,
            };
            *flipped.get_mut(a) = Value::Int(v);
            m.insert(flipped);
        }
        step(&mut m);
        // A copy of row 5 with an age no row carries.
        let mut unseen = t.rows()[5].clone();
        *unseen.get_mut(Attr::from(1)) = Value::Int(200);
        m.insert(unseen);
        step(&mut m);
    });
    // Checked outside the counted window: the scratch side moves the
    // same counters.
    for (report, table) in reports.iter().zip(&tables) {
        assert_eq!(
            *report,
            mine_report("t", table, MAX_LHS, DEFAULT_CACHE_BUDGET)
        );
    }
    assert!(
        got == golden("incremental"),
        "incremental counters moved; now:\n{got}"
    );
}
