//! Counter pins for the discovery kernels, on null-bearing fixtures:
//!
//! * classification and key mining answer their certain-semantics
//!   questions (c-key, totality, certain-FD targets) by the grouped
//!   sweep and never enumerate weak pairs: they leave
//!   `discovery.check.weak_pairs_visited` at 0, while a
//!   pair-enumerating caller on the same instance moves it. So do the
//!   incremental miner's cold c-key and totality checks, which ask
//!   the same sweep;
//! * weak FDs run on the fused early-exit refinement like the other
//!   semantics, so weak mining scans about as many rows as classical
//!   mining and does the same products and fused checks;
//! * the `MINE` report is one lattice pass: on the telemetry shape it
//!   builds exactly the partition products of one possible mining run
//!   and scans at most 10% more rows.
//!
//! A regression back to pair loops or to a materialized weak check
//! shows up as a count.
//!
//! Kept as its own integration binary: the counters live in the
//! process-wide registry, and other suites mine concurrently. The
//! tests here share one lock for the same reason.

use sqlnf::discovery::approx::ckey_error;
use sqlnf::discovery::check::Semantics;
use sqlnf::discovery::classify::{classify_table, mine_keys, mine_report};
use sqlnf::discovery::incremental::IncrementalMiner;
use sqlnf::discovery::mine::DEFAULT_CACHE_BUDGET;
use sqlnf::discovery::mine::{mine_fds, MinerConfig};
use sqlnf::discovery::partition::Encoded;
use std::sync::Mutex;

const COUNTER: &str = "discovery.check.weak_pairs_visited";

static SERIAL: Mutex<()> = Mutex::new(());

fn counter(name: &str) -> u64 {
    sqlnf_obs::report().counter(name).unwrap_or(0)
}

fn visited() -> u64 {
    counter(COUNTER)
}

#[test]
fn classification_and_key_mining_visit_no_weak_pairs() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let fixtures = [
        (sqlnf::datagen::contact::fig7_snippet(), 3),
        (sqlnf::datagen::naumann::hepatitis_like(7), 3),
    ];
    let before = visited();
    for (t, max_lhs) in &fixtures {
        let cls = classify_table(t, *max_lhs);
        // The fixtures exercise the c-key and totality checks.
        assert!(!cls.c_fds.is_empty(), "{}", t.schema().name());
        let keys = mine_keys(t, *max_lhs);
        assert!(!keys.pkeys.is_empty(), "{}", t.schema().name());
        // The incremental miner's cold checks: every verdict is fresh,
        // so each c-key and totality question runs the sweep.
        let cold = IncrementalMiner::from_table(t).report("t", *max_lhs, DEFAULT_CACHE_BUDGET);
        assert_eq!(cold, mine_report("t", t, *max_lhs, DEFAULT_CACHE_BUDGET));
    }
    assert_eq!(
        visited() - before,
        0,
        "classify/keys/incremental enumerated weak pairs"
    );

    // The counter is live: approximate c-key errors need the pairs.
    let (t, _) = &fixtures[0];
    let city = t.schema().set(&["city"]);
    assert!(ckey_error(&Encoded::new(t), city) > 0.0);
    assert!(visited() > before, "pair enumeration is counted");
}

#[test]
fn weak_mining_scans_like_classical() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // The telemetry shape: low-cardinality columns, nulls on `flag`.
    let t = sqlnf::datagen::naumann::million_like_with_rows(11, 20_000);
    let mut work = Vec::new();
    for sem in Semantics::ALL {
        sqlnf_obs::reset();
        let mined = mine_fds(&t, MinerConfig::new(sem).with_max_lhs(3).with_threads(1));
        assert!(!mined.fds.is_empty(), "{sem:?}");
        work.push((
            sem,
            counter("discovery.partition.rows_scanned"),
            counter("discovery.partition.products"),
            counter("discovery.check.fused_checks"),
        ));
    }
    let of = |sem| *work.iter().find(|w| w.0 == sem).expect("mined");
    let (classical, weak) = (of(Semantics::Classical), of(Semantics::Weak));
    assert!(classical.3 > 0, "the last level runs fused: {work:?}");
    assert!(
        weak.1 as f64 <= 1.2 * classical.1 as f64,
        "weak scanned {} rows, classical {}: {work:?}",
        weak.1,
        classical.1
    );
    assert_eq!(
        (weak.2, weak.3),
        (classical.2, classical.3),
        "products and fused checks: {work:?}"
    );
}

#[test]
fn report_builds_what_one_possible_run_builds() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let t = sqlnf::datagen::naumann::million_like_with_rows(20_160_626, 20_000);
    let work = |run: &dyn Fn()| {
        sqlnf_obs::reset();
        run();
        (
            counter("discovery.partition.products"),
            counter("discovery.partition.rows_scanned"),
            visited(),
        )
    };
    let possible = work(&|| {
        let config = MinerConfig::new(Semantics::Possible).with_max_lhs(3);
        assert!(!mine_fds(&t, config).fds.is_empty());
    });
    let report = work(&|| {
        let report = mine_report("t", &t, 3, DEFAULT_CACHE_BUDGET);
        assert!(report.contains("nn-FD"), "{report}");
    });
    assert!(possible.0 > 0, "counters compiled in: {possible:?}");
    assert_eq!(report.0, possible.0, "products: {report:?} vs {possible:?}");
    assert!(
        report.1 as f64 <= 1.1 * possible.1 as f64,
        "rows scanned: {report:?} vs {possible:?}"
    );
    assert_eq!(report.2, 0, "weak pairs visited: {report:?}");
}
