//! Per-layer metrics of a `--trace 1` run, taken from outside the
//! program in two ways:
//!
//! * scraped: the server's `METRICS` delta across the measured phase
//!   (`serve.*` spans and counters);
//! * replayed: after the measured phase, the benchmark calls each
//!   layer's public functions in-process on the workload's generated
//!   inputs, serially, and times them (`model.*`, `discovery.*`).
//!
//! Every metric exists on every workload; a layer a workload does not
//! use reads as a share or count of 0, never as a constant time.

use crate::scrape::{ratio, Scrape};
use crate::stats::median;
use crate::{metric, timed, trace, Metric};
use sqlnf_discovery::prelude::*;
use sqlnf_model::prelude::*;
use sqlnf_obs::ObsReport;
use std::hint::black_box;

/// LHS and key size cap of every replayed mining run.
const MAX_LHS: usize = 3;

/// Rows the incremental-apply replay inserts.
const INCR_APPLY_ROWS: usize = 50_000;

/// Most rows the miner holds before the re-mine replay.
const INCR_BASE_ROWS: usize = 16_384;

/// Single-row deltas the re-mine replay times.
const INCR_DELTAS: usize = 20;

/// What the server side of the measured phase produced.
#[derive(Debug)]
pub struct ServerSide {
    /// `METRICS` delta across the measured phase.
    pub scraped: Scrape,
    /// Client-observed `MINE` time in the measured phase, ns.
    pub client_mine_ns: f64,
    /// Median share of probe event latency after the probe's ack.
    pub post_ack_share: f64,
    /// Server peak resident memory, MiB.
    pub rss_mib: f64,
    /// Rows the server held when the memory was read.
    pub rows_stored: usize,
}

/// The generated inputs the replays run on.
#[derive(Debug)]
pub struct Replay<'a> {
    /// The workload's table, as the server holds it.
    pub table: &'a Table,
    /// Constraints the workload's writes are admitted under.
    pub sigma: &'a Sigma,
    /// Statements of the workload's write stream.
    pub statements: &'a [String],
}

fn counter(r: &ObsReport, name: &str) -> f64 {
    r.counter(name).unwrap_or(0) as f64
}

/// Runs `f` with fresh obs counters; returns its result, its wall time
/// in seconds and the counters it produced.
fn counted<T>(name: &'static str, f: impl FnOnce() -> T) -> (T, f64, ObsReport) {
    let _s = trace::span(name, 0);
    sqlnf_obs::reset();
    let (out, secs) = timed(f);
    (out, secs, sqlnf_obs::report())
}

#[derive(Default)]
struct CacheTally {
    hits: f64,
    lookups: f64,
    prev_level_evictions: f64,
}

impl CacheTally {
    fn add(&mut self, r: &ObsReport) {
        let pc_hits = counter(r, "discovery.partition.cache.hits");
        let pl_hits = counter(r, "discovery.mine.prev_level.hits");
        self.hits += pc_hits + pl_hits;
        self.lookups += pc_hits
            + pl_hits
            + counter(r, "discovery.partition.cache.misses")
            + counter(r, "discovery.mine.prev_level.misses");
        self.prev_level_evictions += counter(r, "discovery.mine.prev_level.evictions");
    }
}

fn serve_metrics(s: &ServerSide) -> Vec<Metric> {
    let d = &s.scraped;
    // The METRICS scrape that opened the phase is not workload.
    let dispatch_ns = d.span_total_ns("serve.dispatch") - d.span_total_ns("serve.verb.metrics");
    let dispatches = d.span_count("serve.dispatch") - d.span_count("serve.verb.metrics");
    // Server time per request: dispatch (parse, locks, apply) plus the
    // commit wait (WAL append, fsync, group-commit wait).
    let busy = dispatch_ns + d.span_total_ns("serve.commit.wait");
    let share = |span: &str| ratio(d.span_total_ns(span), busy);
    vec![
        metric(
            "serve.dispatch_mean_us",
            ratio(dispatch_ns, dispatches) / 1e3,
            "us",
        ),
        metric("serve.parse_share", share("serve.parse"), "ratio"),
        metric(
            "serve.lock_wait.table_share",
            share("serve.lock_wait.table"),
            "ratio",
        ),
        metric(
            "serve.lock_wait.registry_share",
            share("serve.lock_wait.registry"),
            "ratio",
        ),
        metric(
            "serve.lock_wait.wal_share",
            share("serve.lock_wait.wal"),
            "ratio",
        ),
        metric("serve.wal.append_share", share("serve.wal.append"), "ratio"),
        metric("serve.wal.fsync_share", share("serve.wal.fsync"), "ratio"),
        metric(
            "serve.commit.wait_share",
            share("serve.commit.wait"),
            "ratio",
        ),
        metric(
            "serve.commit.frames_per_fsync",
            ratio(
                d.counter("serve.commit.frames"),
                d.counter("serve.commit.batches"),
            ),
            "ratio",
        ),
        metric(
            "serve.mine.server_share",
            ratio(d.span_total_ns("serve.verb.mine"), s.client_mine_ns),
            "ratio",
        ),
        metric(
            "serve.watch.events",
            d.counter("serve.watch.events"),
            "count",
        ),
        metric(
            "serve.watch.dropped",
            d.counter("serve.watch.dropped"),
            "count",
        ),
        metric("serve.watch.post_ack_share", s.post_ack_share, "ratio"),
        metric(
            "discovery.incr.candidates_per_epoch",
            ratio(
                d.counter("discovery.incr.candidates_touched"),
                d.counter("serve.commit.frames"),
            ),
            "ratio",
        ),
    ]
}

fn model_metrics(s: &ServerSide, r: &Replay) -> Vec<Metric> {
    let (rows_parsed, parse_s) = {
        let _s = trace::span("replay.model.sql.parse", 0);
        timed(|| {
            r.statements
                .iter()
                .map(|src| match parse_script(black_box(src)) {
                    Ok(stmts) => stmts
                        .iter()
                        .map(|st| match st {
                            Statement::Insert { rows, .. } => rows.len(),
                            Statement::CreateTable { .. } => 0,
                        })
                        .sum::<usize>(),
                    Err(_) => 0,
                })
                .sum::<usize>()
        })
    };
    let (_, admit_s) = {
        let _s = trace::span("replay.model.engine.admit", 0);
        timed(|| {
            let mut st = StoredTable::new(r.table.schema().clone(), r.sigma.clone());
            for row in r.table.rows() {
                // Refusals are part of the admission cost.
                let _ = st.insert(black_box(row.clone()));
            }
            st
        })
    };
    let clone_s: Vec<f64> = {
        let _s = trace::span("replay.model.table.clone", 0);
        (0..5)
            .map(|_| timed(|| black_box(r.table.clone())).1)
            .collect()
    };
    vec![
        metric(
            "model.sql.parse_ns_per_row",
            ratio(parse_s * 1e9, rows_parsed as f64),
            "ns",
        ),
        metric(
            "model.engine.admit_ns_per_row",
            ratio(admit_s * 1e9, r.table.len() as f64),
            "ns",
        ),
        metric("model.table.clone_ms", median(&clone_s) * 1e3, "ms"),
        metric(
            "model.rss_bytes_per_row",
            ratio(s.rss_mib * 1024.0 * 1024.0, s.rows_stored as f64),
            "B/row",
        ),
    ]
}

fn discovery_metrics(r: &Replay) -> Vec<Metric> {
    let t = r.table;
    let mut cache = CacheTally::default();
    let (mut fds, mut candidates) = (0.0, 0.0);
    let mut mined = Vec::new();
    for (sem, span) in [
        (Semantics::Possible, "replay.discovery.mine.possible"),
        (Semantics::Certain, "replay.discovery.mine.certain"),
        (Semantics::Classical, "replay.discovery.mine.classical"),
        (Semantics::Weak, "replay.discovery.mine.weak"),
    ] {
        let config = MinerConfig::new(sem)
            .with_max_lhs(MAX_LHS)
            .with_threads(1)
            .with_cache_budget(DEFAULT_CACHE_BUDGET);
        let (res, secs, report) = counted(span, || mine_fds(t, config));
        cache.add(&report);
        fds += res.fds.len() as f64;
        candidates += res.candidates_checked as f64;
        mined.push((sem, secs, report));
    }
    let (_, classify_s, report) = counted("replay.discovery.classify", || {
        classify_table_budgeted(t, MAX_LHS, DEFAULT_CACHE_BUDGET)
    });
    cache.add(&report);
    let (_, keys_s, report) = counted("replay.discovery.keys", || {
        mine_keys_budgeted(t, MAX_LHS, DEFAULT_CACHE_BUDGET)
    });
    cache.add(&report);

    let of = |sem: Semantics| {
        mined
            .iter()
            .find(|m| m.0 == sem)
            .expect("every semantics mined")
    };
    let scanned = |sem| counter(&of(sem).2, "discovery.partition.rows_scanned");
    let certain = &of(Semantics::Certain).2;
    // Classification mines possible and certain FDs itself; what it
    // adds beyond those two runs is the post-mining classification.
    let classify_post_s = classify_s - of(Semantics::Possible).1 - of(Semantics::Certain).1;
    let mut out = vec![
        metric("discovery.mine.possible_s", of(Semantics::Possible).1, "s"),
        metric("discovery.mine.certain_s", of(Semantics::Certain).1, "s"),
        metric(
            "discovery.mine.classical_s",
            of(Semantics::Classical).1,
            "s",
        ),
        metric("discovery.mine.weak_s", of(Semantics::Weak).1, "s"),
        metric("discovery.classify.post_s", classify_post_s, "s"),
        metric("discovery.keys_s", keys_s, "s"),
        metric(
            "discovery.rows_scanned.possible",
            scanned(Semantics::Possible),
            "count",
        ),
        metric(
            "discovery.rows_scanned.certain",
            scanned(Semantics::Certain),
            "count",
        ),
        metric(
            "discovery.rows_scanned.classical",
            scanned(Semantics::Classical),
            "count",
        ),
        metric(
            "discovery.rows_scanned.weak",
            scanned(Semantics::Weak),
            "count",
        ),
        metric(
            "discovery.weak_scan_ratio",
            ratio(scanned(Semantics::Weak), scanned(Semantics::Classical)),
            "ratio",
        ),
        metric(
            "discovery.partition.products",
            counter(certain, "discovery.partition.products"),
            "count",
        ),
        metric(
            "discovery.check.probe_index_builds",
            counter(certain, "discovery.check.probe_index.builds"),
            "count",
        ),
        metric(
            "discovery.check.fused_checks",
            counter(certain, "discovery.check.fused_checks"),
            "count",
        ),
        metric(
            "discovery.cache.hit_ratio",
            ratio(cache.hits, cache.lookups),
            "ratio",
        ),
        metric(
            "discovery.cache.prev_level_evictions",
            cache.prev_level_evictions,
            "count",
        ),
        metric(
            "discovery.mine.fds_per_candidate",
            ratio(fds, candidates),
            "ratio",
        ),
    ];
    out.extend(incremental_metrics(t));
    out
}

/// The WATCH hub's per-row apply and per-epoch re-mine cost.
fn incremental_metrics(t: &Table) -> Vec<Metric> {
    let rows = t.rows();
    let apply_rows = rows.len().min(INCR_APPLY_ROWS);
    let (_, apply_s) = {
        let _s = trace::span("replay.discovery.incr.apply", 0);
        timed(|| {
            let mut m = IncrementalMiner::new(t.schema().clone());
            for row in &rows[..apply_rows] {
                m.insert(row.clone());
            }
            m
        })
    };
    let deltas = INCR_DELTAS.min(rows.len() / 2);
    let base = rows.len().saturating_sub(deltas).min(INCR_BASE_ROWS);
    let mut m = IncrementalMiner::new(t.schema().clone());
    for row in &rows[..base] {
        m.insert(row.clone());
    }
    let remine = |m: &mut IncrementalMiner| {
        for sem in [Semantics::Possible, Semantics::Certain, Semantics::Weak] {
            black_box(m.mine_fds(sem, MAX_LHS, DEFAULT_CACHE_BUDGET));
        }
        black_box(m.mine_keys(MAX_LHS, DEFAULT_CACHE_BUDGET));
    };
    remine(&mut m);
    let remine_s: Vec<f64> = rows[base..base + deltas]
        .iter()
        .map(|row| {
            m.insert(row.clone());
            let _s = trace::span("replay.discovery.incr.remine", 0);
            timed(|| remine(&mut m)).1
        })
        .collect();
    vec![
        metric(
            "discovery.incr.apply_us",
            ratio(apply_s * 1e6, apply_rows as f64),
            "us",
        ),
        metric("discovery.incr.remine_ms", median(&remine_s) * 1e3, "ms"),
    ]
}

/// Every per-layer metric, in `BENCHMARK.json` order.
pub fn collect(server: &ServerSide, replay: &Replay) -> Vec<Metric> {
    let mut metrics = serve_metrics(server);
    metrics.extend(model_metrics(server, replay));
    metrics.extend(discovery_metrics(replay));
    metrics
}
