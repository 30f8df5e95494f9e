//! Evidence for the discovery caches: the partition store's level
//! products (a [`Store`] sweep must scan at least 3× fewer rows than
//! fresh [`Partition::by_set`] builds, and the scratch pass and the
//! incremental replay both report it under `discovery.mine.prev_level.*`)
//! and the miner's footprint-keyed probe cache (certain-semantics mining
//! must reuse probe indexes instead of rebuilding per candidate).
//!
//! Kept as its own integration binary: the tests read the
//! process-global counter registry, so they serialize on a local lock
//! and must not race with other test binaries. CI runs this binary
//! once more with `SQLNF_MINE_THREADS=4` (picked up by
//! `MinerConfig::new`), exercising the parallel work queue under the
//! same assertions.

use sqlnf_discovery::prelude::*;
use sqlnf_model::attrs::AttrSet;
use sqlnf_model::tuple::Tuple;
use sqlnf_model::value::Value;
use std::sync::{Mutex, MutexGuard};

/// Serializes counter-reading tests within this binary (an assert
/// failure poisons the lock; later tests still want to run).
static COUNTERS: Mutex<()> = Mutex::new(());

fn counters_lock() -> MutexGuard<'static, ()> {
    COUNTERS.lock().unwrap_or_else(|e| e.into_inner())
}

/// All subsets of the first `n` attributes with `1 ≤ |X| ≤ max_len`,
/// in level order (so the cached sweep always finds its prefix).
fn level_ordered_subsets(n: usize, max_len: usize) -> Vec<AttrSet> {
    let mut subsets: Vec<AttrSet> = AttrSet::first_n(n)
        .subsets()
        .filter(|x| (1..=max_len).contains(&x.len()))
        .collect();
    subsets.sort_by_key(|x| (x.len(), x.0));
    subsets
}

#[test]
fn cached_products_scan_at_least_3x_fewer_rows() {
    if !sqlnf_obs::ENABLED {
        return; // counters compiled out: nothing to measure
    }
    let _guard = counters_lock();
    let table = sqlnf_datagen::naumann::breast_cancer_like(20_160_626);
    let enc = Encoded::new(&table);
    let subsets = level_ordered_subsets(table.schema().arity(), 4);

    // Fresh build: every candidate grouped from the rows, TANE-free.
    sqlnf_obs::reset();
    for &x in &subsets {
        std::hint::black_box(Partition::by_set(&enc, x, NullSemantics::Strong));
    }
    let fresh = sqlnf_obs::report()
        .counter("discovery.partition.rows_scanned")
        .unwrap_or(0);

    // Stored build: one product with a stored prefix per candidate.
    sqlnf_obs::reset();
    let mut store = Store::new(
        table.schema().arity(),
        NullSemantics::Strong,
        DEFAULT_CACHE_BUDGET,
    );
    let mut scratch = ProductScratch::for_encoded(&enc);
    for &x in &subsets {
        std::hint::black_box(store.partition(&enc, x, &mut scratch));
    }
    let report = sqlnf_obs::report();
    let cached = report
        .counter("discovery.partition.rows_scanned")
        .unwrap_or(0);

    assert!(fresh > 0 && cached > 0, "fresh={fresh} cached={cached}");
    assert!(
        fresh >= 3 * cached,
        "expected ≥3× fewer rows scanned through the store: \
         fresh={fresh} cached={cached}"
    );
    // Each multi-attribute subset is built exactly once (one miss, no
    // rebuild), and every size-≥3 build finds its prefix stored.
    let hits = report
        .counter("discovery.mine.prev_level.hits")
        .unwrap_or(0);
    let misses = report
        .counter("discovery.mine.prev_level.misses")
        .unwrap_or(0);
    let multi = subsets.iter().filter(|x| x.len() >= 2).count() as u64;
    let deep = subsets.iter().filter(|x| x.len() >= 3).count() as u64;
    assert_eq!(misses, multi, "hits={hits}");
    assert_eq!(hits, deep, "misses={misses}");
}

/// One store, two drivers: the scratch report and the incremental
/// replay both count their store traffic under
/// `discovery.mine.prev_level.*`. A report after an insert that opens
/// no question (the WATCH hub's steady state) settles every candidate
/// from its verdicts and the inserted rows: it builds no partition.
#[test]
fn scratch_pass_and_replay_count_under_one_store() {
    if !sqlnf_obs::ENABLED {
        return;
    }
    let _guard = counters_lock();
    let table = sqlnf_datagen::naumann::hepatitis_like(20_160_626);
    let counter = |name: &str| sqlnf_obs::report().counter(name).unwrap_or(0);

    sqlnf_obs::reset();
    let scratch = mine_report("t", &table, 3, DEFAULT_CACHE_BUDGET);
    assert!(counter("discovery.mine.prev_level.hits") > 0);

    sqlnf_obs::reset();
    let mut m = IncrementalMiner::from_table(&table);
    assert_eq!(m.report("t", 3, DEFAULT_CACHE_BUDGET), scratch);
    let cold_misses = counter("discovery.mine.prev_level.misses");
    assert!(cold_misses > 0, "the cold replay builds through the store");
    assert!(counter("discovery.mine.prev_level.hits") > 0);

    // Values no row carries: no pair gains a similar partner.
    let arity = table.schema().arity();
    m.insert(Tuple::new(
        (0..arity)
            .map(|i| Value::Int(1_000_000 + i as i64))
            .collect::<Vec<_>>(),
    ));
    sqlnf_obs::reset();
    let warm = m.report("t", 3, DEFAULT_CACHE_BUDGET);
    assert_eq!(counter("discovery.partition.builds"), 0);
    assert_eq!(counter("discovery.partition.products"), 0);
    assert_eq!(counter("discovery.mine.prev_level.misses"), 0);
    assert_eq!(warm, mine_report("t", &m.table(), 3, DEFAULT_CACHE_BUDGET));
}

/// Certain-semantics mining on the wide-short hepatitis workload: the
/// miner's prefix lookups hit its store, and the footprint-keyed probe
/// cache keeps index builds far below one per probed candidate (the
/// seed code built 1350 per run) while showing actual reuse.
#[test]
fn miner_probe_cache_reuses_and_prefixes_hit_the_store() {
    if !sqlnf_obs::ENABLED {
        return;
    }
    let _guard = counters_lock();
    let table = sqlnf_datagen::naumann::hepatitis_like(20_160_626);
    sqlnf_obs::reset();
    // `MinerConfig::new` honours SQLNF_MINE_THREADS, so the CI step
    // that sets it drives this exact run through the parallel queue.
    let res = sqlnf_discovery::mine::mine_fds(
        &table,
        MinerConfig::new(Semantics::Certain).with_max_lhs(4),
    );
    assert!(res.fd_count_attrwise() > 0);
    let report = sqlnf_obs::report();
    assert!(
        report
            .counter("discovery.mine.prev_level.hits")
            .unwrap_or(0)
            > 0
    );
    let builds = report
        .counter("discovery.check.probe_index.builds")
        .unwrap_or(0);
    let hits = report
        .counter("discovery.check.probe_index.hits")
        .unwrap_or(0);
    let direct = report
        .counter("discovery.check.probe_index.direct")
        .unwrap_or(0);
    // The admit-after-5 policy bounds builds to a fifth of the probes
    // (~1350 on this workload); the seed code built once per probe.
    assert!(builds <= 270, "builds={builds} hits={hits} direct={direct}");
    assert!(hits >= 1, "builds={builds} hits={hits} direct={direct}");
    assert!(
        direct >= 1,
        "small-footprint probes should scan directly: builds={builds} direct={direct}"
    );
}
