//! # sqlnf-harness
//!
//! A seeded, fully deterministic fault-injection and
//! differential-testing harness over the `sqlnf-serve` stack and the
//! discovery pipeline. The statement stream, the fault plan, and the
//! differential verdict are pure functions of a `u64` seed (the thread
//! interleaving is not, so every fault and invariant is counted in
//! statements, never wall clock):
//!
//! 1. [`workload::generate`] derives a randomized DDL/DML statement
//!    stream (the same stream for any client count — statements are
//!    dealt round-robin to the concurrent sessions);
//! 2. [`faults::plan`] derives the fault plan from an independent RNG
//!    stream of the same seed: the auto-snapshot cadence, a
//!    deterministic crash point (counted in successful WAL appends, so
//!    it is independent of thread interleaving), and a WAL tail
//!    corruption;
//! 3. [`run_one`] drives a real TCP [`Server`] with N concurrent
//!    [`Client`]s, fires the plan, then reopens the WAL directory and
//!    differentially compares the recovered store byte-for-byte
//!    against a single-threaded reference [`Database`]
//!    (`sqlnf_model::engine::Database`) replay of the admitted-
//!    statement history ([`diff::match_prefix`]);
//! 4. on the recovered tables, [`minecheck::check_table`] cross-checks
//!    the miner against the satisfaction layer and the exact 2-tuple
//!    oracle of `sqlnf-core`.
//!
//! A failure carries a replayable `(seed, ops)` pair, and
//! [`run_minimized`] shrinks the op count by prefix (the generated
//! stream is prefix-stable per seed) before reporting it.
//!
//! [`Database`]: sqlnf_model::prelude::Database

#![warn(missing_docs)]

pub mod diff;
pub mod faults;
pub mod minecheck;
pub mod workload;

pub use diff::{match_prefix, DiffOutcome};
pub use faults::{corrupt_wal_dir, plan, Corruption, FaultPlan};
pub use minecheck::{check_table, MineCheckReport, MAX_ORACLE_ATTRS};
pub use workload::{generate, Workload};

use sqlnf_model::prelude::{parse_script, Database, Statement};
use sqlnf_serve::{
    table_facts_with, Client, ClientError, FsyncMode, ServeConfig, Server, Store, StreamItem,
    WatchEvent, WATCH_MAX_LHS,
};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Read timeout of the harness's clients: long enough for any real
/// reply, short enough that a killed server unblocks the run quickly.
const CLIENT_READ_TIMEOUT: Duration = Duration::from_secs(10);

/// How often the kill watcher polls for the armed WAL fault.
const KILL_POLL: Duration = Duration::from_millis(5);

/// One harness run's knobs. `seed` determines everything except thread
/// interleavings, which the differential check is insensitive to by
/// construction.
#[derive(Debug, Clone, PartialEq)]
pub struct HarnessConfig {
    /// Seed of both the workload and the fault plan.
    pub seed: u64,
    /// Statements in the generated stream.
    pub ops: usize,
    /// Concurrent client sessions.
    pub clients: usize,
    /// Probability that the plan arms the kill fault.
    pub kill_prob: f64,
    /// Probability that the plan arms a WAL tail corruption.
    pub corrupt_prob: f64,
    /// WAL shards of the server under test (corruption damages every
    /// shard of the live generation).
    pub wal_shards: usize,
    /// Group-commit linger window, microseconds.
    pub commit_window_us: u64,
    /// Fsync discipline of the server under test.
    pub fsync: FsyncMode,
    /// Ride a `WATCH` subscriber and a `MINE`-issuing session along
    /// with the DML clients, then cross-check every streamed FD/key
    /// event against a from-scratch mine of its oplog prefix. Off by
    /// default so existing pinned seeds replay unchanged.
    pub watch: bool,
}

impl Default for HarnessConfig {
    fn default() -> Self {
        HarnessConfig {
            seed: 1,
            ops: 500,
            clients: 4,
            kill_prob: 0.5,
            corrupt_prob: 0.5,
            wal_shards: 1,
            commit_window_us: 0,
            fsync: FsyncMode::Batch,
            watch: false,
        }
    }
}

/// What one passing run did — the shape facts seed-regression tests
/// pin down.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// The seed that was run.
    pub seed: u64,
    /// Statements generated.
    pub ops: usize,
    /// The seed's fault plan.
    pub plan: FaultPlan,
    /// Whether the server was crash-killed (vs shut down gracefully).
    pub killed: bool,
    /// Whether the armed WAL-append fault actually fired.
    pub fault_fired: bool,
    /// Whether a planned corruption was applied to the WAL directory.
    pub corrupted: bool,
    /// Statements the concurrent server admitted (durable appends).
    pub admitted: usize,
    /// Statements the server refused with an `ERR` reply, as counted
    /// by the clients (DDL re-issues, constraint violations, and —
    /// after an injected WAL fault — every further statement).
    pub rejected: usize,
    /// Statements the server acknowledged with an `OK` reply, as
    /// counted by the clients — the harness's view of the ack
    /// contract. A lower bound under a kill: replies a dying session
    /// never read are lost to the tally.
    pub acked: usize,
    /// Length of the admitted-history prefix the recovered store
    /// matched byte-for-byte.
    pub recovered: usize,
    /// Snapshots the store took while the clients ran.
    pub snapshots: u64,
    /// Tables created by the workload's DDL prefix.
    pub tables: usize,
    /// CREATE TABLEs issued mid-stream (the concurrent-DDL path).
    pub mid_stream_ddl: usize,
    /// What the miner/oracle cross-check covered on the recovered
    /// tables.
    pub minecheck: MineCheckReport,
    /// FD/key stream events the `WATCH` subscriber received (0 when
    /// the run rode no subscriber).
    pub watch_events: usize,
    /// Events the subscriber lost to backpressure (`LAGGED` totals).
    pub watch_lagged: u64,
    /// `MINE` verbs acknowledged while (and just after) the DML ran.
    pub mines: usize,
    /// The store's `serve.*` counters and spans at the end of the run.
    pub served: sqlnf_obs::ObsReport,
}

impl RunReport {
    /// One-line summary for the CLI.
    pub fn line(&self) -> String {
        let fate = match (self.killed, self.corrupted) {
            (true, true) => "killed+corrupted",
            (true, false) => "killed",
            (false, true) => "corrupted",
            (false, false) => "graceful",
        };
        let watch = if self.watch_events > 0 || self.mines > 0 {
            format!(
                "  watch ev {} lag {} mines {}",
                self.watch_events, self.watch_lagged, self.mines
            )
        } else {
            String::new()
        };
        format!(
            "seed {:>4}  ops {:>5}  {}  admitted {:>5}  recovered {:>5}  \
             snapshots {:>3}  tables {}  fds✓ {}  keys✓ {}  oracle✓ {}{watch}",
            self.seed,
            self.ops,
            fate,
            self.admitted,
            self.recovered,
            self.snapshots,
            self.minecheck.tables,
            self.minecheck.fds_checked,
            self.minecheck.keys_checked,
            self.minecheck.oracle_queries,
        )
    }
}

/// A failing run, with everything needed to replay it.
#[derive(Debug, Clone)]
pub struct HarnessFailure {
    /// Seed of the failing run.
    pub seed: u64,
    /// Op count of the failing run (minimized when it came from
    /// [`run_minimized`]).
    pub ops: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for HarnessFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "harness failure at seed {} ops {}: {}\n  replay: sqlnf harness --seed {} --ops {}",
            self.seed, self.ops, self.message, self.seed, self.ops
        )
    }
}

impl std::error::Error for HarnessFailure {}

/// Uniquifies WAL directories across concurrent runs in one process.
static RUN_NONCE: AtomicU64 = AtomicU64::new(0);

fn run_dir(seed: u64, ops: usize) -> PathBuf {
    std::env::temp_dir().join(format!(
        "sqlnf_harness_{}_{seed}_{ops}_{}",
        std::process::id(),
        RUN_NONCE.fetch_add(1, Ordering::Relaxed)
    ))
}

/// Outcome of one client session thread. The authoritative admitted
/// count is the store's oplog; the client side tallies the replies it
/// actually read — `OK`s are the statements the server *acknowledged*
/// to this client, the harness's ground truth for the ack contract
/// ("OK means durable across recovery").
enum ClientOutcome {
    /// Every dealt statement earned a reply.
    Finished {
        /// Statements refused with an `ERR` reply.
        rejected: usize,
        /// Statements acknowledged with an `OK` reply.
        acked: usize,
    },
    /// The server went away mid-session (only legal under a kill);
    /// replies read before the death are lost to the tally, so the
    /// run's acked total becomes a lower bound.
    Died(ClientError),
}

/// Statements per pipelined burst. Small enough that a kill still
/// lands mid-stream for most plans, large enough to exercise the
/// server's group-commit batching (several frames per fsync).
const PIPELINE_CHUNK: usize = 8;

fn drive_client(addr: std::net::SocketAddr, stmts: Vec<String>) -> ClientOutcome {
    let mut client = match Client::connect_with_timeout(addr, Some(CLIENT_READ_TIMEOUT)) {
        Ok(c) => c,
        Err(e) => return ClientOutcome::Died(e),
    };
    let mut rejected = 0usize;
    let mut acked = 0usize;
    for chunk in stmts.chunks(PIPELINE_CHUNK) {
        match client.send_batch(chunk) {
            Ok(replies) => {
                acked += replies.iter().filter(|r| r.ok).count();
                rejected += replies.iter().filter(|r| !r.ok).count();
            }
            Err(e) => return ClientOutcome::Died(e),
        }
    }
    let _ = client.quit();
    ClientOutcome::Finished { rejected, acked }
}

/// What the ride-along `WATCH` subscriber saw: every streamed event in
/// arrival order, the total backpressure loss, and whether the session
/// outlived the server (only legal under a kill).
struct WatchTally {
    events: Vec<WatchEvent>,
    lagged: u64,
    died: bool,
}

/// Read timeout of the ride-along subscriber: short, so `Ok(None)`
/// from `next_event` means "stream idle right now" and the final drain
/// converges quickly once the run is over.
const WATCH_POLL: Duration = Duration::from_millis(200);

fn watch_session(mut client: Client, done: Arc<AtomicBool>) -> WatchTally {
    let mut tally = WatchTally {
        events: Vec::new(),
        lagged: 0,
        died: false,
    };
    loop {
        match client.next_event() {
            Ok(Some(StreamItem::Event(ev))) => tally.events.push(ev),
            Ok(Some(StreamItem::Lagged(n))) => tally.lagged += n,
            // Idle: keep listening until the runner says the workload
            // (and the hub fence) is behind us.
            Ok(None) => {
                if done.load(Ordering::Acquire) {
                    break;
                }
            }
            Err(_) => {
                tally.died = true;
                return tally;
            }
        }
    }
    // UNWATCH forces a flush of everything still queued server-side,
    // so the tally never depends on racing the session's event writer.
    match client.unwatch() {
        Ok((rest, _)) => {
            for item in rest {
                match item {
                    StreamItem::Event(ev) => tally.events.push(ev),
                    StreamItem::Lagged(n) => tally.lagged += n,
                }
            }
            let _ = client.quit();
        }
        Err(_) => tally.died = true,
    }
    tally
}

/// Issues `MINE <table>` round-robin while the DML clients run — the
/// snapshot-then-mine path under live write pressure — then one final
/// pass once the stream has settled (every table exists by then), so
/// even the shortest run tallies at least one successful mine.
fn mine_session(addr: std::net::SocketAddr, tables: Vec<String>, done: Arc<AtomicBool>) -> usize {
    let mut client = match Client::connect_with_timeout(addr, Some(CLIENT_READ_TIMEOUT)) {
        Ok(c) => c,
        Err(_) => return 0,
    };
    let mut mined = 0usize;
    let pass = |client: &mut Client, mined: &mut usize| -> bool {
        for t in &tables {
            match client.request(&format!("MINE {t}")) {
                Ok(r) if r.ok => *mined += 1,
                // Refusals are expected early: a mid-stream table may
                // not exist yet.
                Ok(_) => {}
                Err(_) => return false,
            }
        }
        true
    };
    while !done.load(Ordering::Acquire) {
        if !pass(&mut client, &mut mined) {
            return mined;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    if pass(&mut client, &mut mined) {
        let _ = client.quit();
    }
    mined
}

/// Runs one seed end-to-end. A passing run returns its [`RunReport`];
/// any divergence — recovery panic, a store that matches no prefix of
/// the admitted history, a miner/oracle disagreement — is a
/// [`HarnessFailure`] replayable from its `(seed, ops)`.
pub fn run_one(config: &HarnessConfig) -> Result<RunReport, HarnessFailure> {
    sqlnf_obs::count!("harness.runs");
    let _span = sqlnf_obs::span!("harness.run");
    let fail = |message: String| {
        sqlnf_obs::count!("harness.failures");
        HarnessFailure {
            seed: config.seed,
            ops: config.ops,
            message,
        }
    };

    let plan = faults::plan(
        config.seed,
        config.ops,
        config.kill_prob,
        config.corrupt_prob,
    );
    let workload = workload::generate(config.seed, config.ops);
    let dir = run_dir(config.seed, config.ops);
    let _ = std::fs::remove_dir_all(&dir);

    let server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        wal_dir: Some(dir.clone()),
        // A session occupies a worker for its lifetime, so the two
        // ride-along sessions (subscriber + miner) need seats of their
        // own or they would starve the DML clients.
        workers: config.clients.max(1) + if config.watch { 2 } else { 0 },
        snapshot_every: plan.snapshot_every,
        wal_shards: config.wal_shards.max(1),
        commit_window: Duration::from_micros(config.commit_window_us),
        fsync: config.fsync,
    })
    .map_err(|e| fail(format!("server failed to start: {e}")))?;
    let store = Arc::clone(server.store());
    store.enable_oplog();
    if let Some(k) = plan.kill_after {
        store.inject_wal_fault_after(k);
    }
    let addr = server.local_addr();

    // The ride-along subscriber registers before any DML client
    // connects, so its subscription covers the whole durable history
    // (epoch 1 onward) and completeness is checkable afterwards.
    let watch_done = Arc::new(AtomicBool::new(false));
    // Odd seeds subscribe on the weak plane (`WATCH * weak`), even
    // seeds on the default one, so both fact vocabularies are under
    // the stream-soundness check — deterministically per seed.
    let weak_plane = config.watch && config.seed % 2 == 1;
    let watch_handle = if config.watch {
        let mut watcher = Client::connect_with_timeout(addr, Some(WATCH_POLL))
            .map_err(|e| fail(format!("watch subscriber failed to connect: {e}")))?;
        if weak_plane {
            watcher.watch_weak(None)
        } else {
            watcher.watch(None)
        }
        .map_err(|e| fail(format!("WATCH refused: {e}")))?;
        let done = Arc::clone(&watch_done);
        Some(std::thread::spawn(move || watch_session(watcher, done)))
    } else {
        None
    };
    let mine_handle = if config.watch {
        let tables: Vec<String> = (0..workload.tables).map(|i| format!("t{i}")).collect();
        let done = Arc::clone(&watch_done);
        Some(std::thread::spawn(move || mine_session(addr, tables, done)))
    } else {
        None
    };

    let clients = config.clients.max(1);
    let handles: Vec<_> = (0..clients)
        .map(|i| {
            let stmts: Vec<String> = workload
                .ops
                .iter()
                .skip(i)
                .step_by(clients)
                .cloned()
                .collect();
            std::thread::spawn(move || drive_client(addr, stmts))
        })
        .collect();

    // The crash: once the armed append fault fires, the statement
    // count that became durable is fixed (regardless of interleaving),
    // so killing the server any time after is deterministic in effect.
    let mut server = Some(server);
    let mut killed = false;
    if plan.kill_after.is_some() {
        while !store.wal_fault_fired() && handles.iter().any(|h| !h.is_finished()) {
            std::thread::sleep(KILL_POLL);
        }
        sqlnf_obs::count!("harness.kills");
        server.take().expect("server not yet consumed").kill();
        killed = true;
    }

    let mut rejected = 0usize;
    let mut acked = 0usize;
    for h in handles {
        match h.join() {
            Ok(ClientOutcome::Finished {
                rejected: r,
                acked: a,
            }) => {
                rejected += r;
                acked += a;
            }
            Ok(ClientOutcome::Died(e)) => {
                if !killed {
                    return Err(fail(format!("client died without an injected kill: {e}")));
                }
            }
            Err(_) => return Err(fail("client thread panicked".into())),
        }
    }

    // Wind down the ride-alongs while the server (if it survived) is
    // still up: fence the hub first, so every committed frame has been
    // mined and queued before the subscriber is told it may stop, then
    // let the subscriber drain (its UNWATCH flushes the queue) and the
    // miner finish its settled pass.
    if config.watch {
        store.watch_barrier();
    }
    watch_done.store(true, Ordering::Release);
    let mines = match mine_handle {
        Some(h) => h.join().map_err(|_| fail("mine thread panicked".into()))?,
        None => 0,
    };
    let watch_tally = match watch_handle {
        Some(h) => {
            let tally = h.join().map_err(|_| fail("watch thread panicked".into()))?;
            if tally.died && !killed {
                return Err(fail(
                    "watch subscriber died without an injected kill".into(),
                ));
            }
            Some(tally)
        }
        None => None,
    };

    if let Some(s) = server.take() {
        s.shutdown()
            .map_err(|e| fail(format!("graceful shutdown failed: {e}")))?;
    }

    let oplog = store.oplog();
    // The observability plane must agree with the ground-truth serial
    // history: every oplog push increments `stmt.admitted` (both under
    // the same admission path), so a divergence means a counter bug.
    let served = store.metrics().report();
    let counter = |name: &str| served.counter(name).unwrap_or(0);
    let admitted_counter = counter("serve.stmt.admitted");
    if admitted_counter != oplog.len() as u64 {
        return Err(fail(format!(
            "serve.stmt.admitted ({admitted_counter}) diverges from the oplog ({})",
            oplog.len()
        )));
    }
    let fault_fired = store.wal_fault_fired();
    let snapshots = counter("serve.snapshots");
    drop(store);

    let corrupted = if let Some(c) = plan.corruption {
        faults::corrupt_wal_dir(&dir, c)
            .map_err(|e| fail(format!("could not apply {}: {e}", c.label())))?;
        true
    } else {
        false
    };

    // Recovery + the differential check. `catch_unwind` turns a
    // recovery panic — the bug class the torn-tail tests hunt — into a
    // replayable failure instead of tearing the harness down.
    let recovered_store = std::panic::catch_unwind(|| Store::open(&dir, 0))
        .map_err(|_| fail("recovery panicked".into()))?
        .map_err(|e| fail(format!("recovery failed: {e}")))?;
    let export = recovered_store.export_script();
    let recovered = match diff::match_prefix(&oplog, &export) {
        DiffOutcome::MatchedPrefix(n) => n,
        other => return Err(fail(format!("differential check failed: {other:?}"))),
    };
    // The ack contract, from the client's side of the wire. Every
    // `OK` reply is one oplog entry, so the tally can never exceed
    // the durable history; without a kill every reply was read, so it
    // matches exactly; and without corruption (which destroys durable
    // frames by design) every acked statement must survive recovery —
    // acks are watermark-gated, so acked statements always sit inside
    // the contiguous recovered prefix, never past a censoring gap.
    if acked > oplog.len() {
        return Err(fail(format!(
            "clients counted {acked} acks but the oplog holds only {}",
            oplog.len()
        )));
    }
    if !killed && acked != oplog.len() {
        return Err(fail(format!(
            "ack tally ({acked}) diverges from the oplog ({}) without a kill",
            oplog.len()
        )));
    }
    if !corrupted && acked > recovered {
        return Err(fail(format!(
            "an acked statement did not survive recovery: {acked} acked, {recovered} recovered"
        )));
    }
    if !killed && !corrupted && recovered != oplog.len() {
        return Err(fail(format!(
            "graceful shutdown lost statements: recovered {recovered} of {}",
            oplog.len()
        )));
    }
    if killed && !corrupted && recovered != oplog.len() {
        return Err(fail(format!(
            "crash without corruption must recover every flushed append: {recovered} of {}",
            oplog.len()
        )));
    }
    if !recovered_store.satisfies_all_constraints() {
        return Err(fail("recovered store violates its own constraints".into()));
    }

    // Miner ↔ oracle cross-check on what the run left behind.
    let mut minecheck = MineCheckReport::default();
    for name in recovered_store.table_names() {
        let table = recovered_store
            .with_table(&name, |st| st.data().clone())
            .expect("listed table exists");
        let report = check_table(&table, config.seed).map_err(&fail)?;
        minecheck.absorb(&report);
    }

    // Stream soundness: every event the subscriber received must be
    // confirmed by a from-scratch mine of the oplog prefix it claims —
    // replay the durable history statement by statement and diff the
    // touched table's fact set across each epoch. The received stream
    // must be an in-order subsequence of that reference stream (the
    // hub releases epochs contiguously and the queue is FIFO, so lag
    // can only drop events, never reorder them), and with no kill and
    // no lag it must be the whole thing.
    let (watch_events, watch_lagged) = if let Some(tally) = &watch_tally {
        let mut db = Database::new();
        let mut facts: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
        let mut expected: Vec<String> = Vec::new();
        for (i, stmt) in oplog.iter().enumerate() {
            let epoch = i + 1;
            let parsed = parse_script(stmt)
                .map_err(|e| fail(format!("admitted statement does not parse: {e:?}")))?;
            db.run_script(stmt)
                .map_err(|e| fail(format!("admitted statement does not replay: {e}")))?;
            for s in &parsed {
                let name = match s {
                    Statement::CreateTable { schema, .. } => schema.name().to_owned(),
                    Statement::Insert { table, .. } => table.clone(),
                };
                let table = db.table(&name).expect("replayed table exists").data();
                let now = table_facts_with(table, WATCH_MAX_LHS, weak_plane);
                let before = facts.entry(name.clone()).or_default();
                for f in before.difference(&now) {
                    expected.push(format!("EVENT {epoch} {name} -{f}"));
                }
                for f in now.difference(before) {
                    expected.push(format!("EVENT {epoch} {name} +{f}"));
                }
                *before = now;
            }
        }
        let got: Vec<String> = tally.events.iter().map(WatchEvent::line).collect();
        let mut reference = expected.iter();
        for line in &got {
            if !reference.any(|e| e == line) {
                return Err(fail(format!(
                    "unsound WATCH event (no from-scratch mine of any remaining \
                     oplog prefix produces it, in order): {line}"
                )));
            }
        }
        if !killed && !tally.died && tally.lagged == 0 && got != expected {
            return Err(fail(format!(
                "WATCH stream incomplete without lag: received {} of {} events",
                got.len(),
                expected.len()
            )));
        }
        (tally.events.len(), tally.lagged)
    } else {
        (0, 0)
    };

    let _ = std::fs::remove_dir_all(&dir);
    Ok(RunReport {
        seed: config.seed,
        ops: config.ops,
        plan,
        killed,
        fault_fired,
        corrupted,
        admitted: oplog.len(),
        rejected,
        acked,
        recovered,
        snapshots,
        tables: workload.tables,
        mid_stream_ddl: workload.mid_stream_ddl,
        minecheck,
        watch_events,
        watch_lagged,
        mines,
        served,
    })
}

/// Shrinks a failing run by op-count prefix: the generated stream of a
/// seed is prefix-stable, so replaying the same seed with fewer ops
/// reproduces an exact prefix of the workload (and of the fault
/// stream's decisions). Returns the smallest failure the binary search
/// could still reproduce — best-effort when the failure needs a racy
/// interleaving, exact for deterministic ones.
pub fn minimize(config: &HarnessConfig, first: HarnessFailure) -> HarnessFailure {
    let mut best = first;
    let (mut lo, mut hi) = (1usize, best.ops);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        let mut shrunk = config.clone();
        shrunk.ops = mid;
        match run_one(&shrunk) {
            Err(f) => {
                sqlnf_obs::count!("harness.shrinks");
                best = f;
                hi = mid;
            }
            Ok(_) => lo = mid + 1,
        }
    }
    best
}

/// [`run_one`], with failures minimized before they are reported.
pub fn run_minimized(config: &HarnessConfig) -> Result<RunReport, HarnessFailure> {
    match run_one(config) {
        Ok(report) => Ok(report),
        Err(first) => Err(minimize(config, first)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_run_recovers_everything() {
        let config = HarnessConfig {
            seed: 11,
            ops: 80,
            clients: 2,
            kill_prob: 0.0,
            corrupt_prob: 0.0,
            ..HarnessConfig::default()
        };
        let report = run_one(&config).expect("clean run passes");
        assert!(!report.killed && !report.corrupted);
        assert_eq!(report.recovered, report.admitted);
        assert_eq!(report.acked, report.admitted);
        assert!(report.admitted > 0);
        assert!(report.minecheck.tables > 0);
    }

    #[test]
    fn faulted_runs_pass_and_recover_a_prefix() {
        let config = HarnessConfig {
            seed: 3,
            ops: 120,
            clients: 4,
            kill_prob: 1.0,
            corrupt_prob: 1.0,
            wal_shards: 4,
            commit_window_us: 200,
            ..HarnessConfig::default()
        };
        let report = run_one(&config).expect("faulted run passes");
        assert!(report.killed);
        assert!(report.corrupted);
        assert!(report.recovered <= report.admitted);
    }

    #[test]
    fn watched_run_cross_checks_the_stream() {
        let config = HarnessConfig {
            seed: 5,
            ops: 60,
            clients: 2,
            kill_prob: 0.0,
            corrupt_prob: 0.0,
            watch: true,
            ..HarnessConfig::default()
        };
        let report = run_one(&config).expect("watched run passes");
        assert!(report.watch_events > 0, "subscriber saw no events");
        assert_eq!(report.watch_lagged, 0, "drain must keep up at this scale");
        assert!(report.mines > 0, "MINE must ride along with the DML");
        assert_eq!(report.recovered, report.admitted);
    }

    /// Seed parity picks the subscriber's plane: odd seeds (above) ride
    /// `WATCH * weak`, even seeds the default plane. Both must pass the
    /// stream-soundness check against their own fact vocabulary.
    #[test]
    fn watched_run_covers_the_default_plane_on_even_seeds() {
        let config = HarnessConfig {
            seed: 6,
            ops: 50,
            clients: 2,
            kill_prob: 0.0,
            corrupt_prob: 0.0,
            watch: true,
            ..HarnessConfig::default()
        };
        let report = run_one(&config).expect("watched run passes");
        assert!(report.watch_events > 0, "subscriber saw no events");
        assert_eq!(report.recovered, report.admitted);
    }

    #[test]
    fn plan_and_workload_are_bit_reproducible() {
        let config = HarnessConfig::default();
        assert_eq!(
            faults::plan(config.seed, config.ops, 1.0, 1.0),
            faults::plan(config.seed, config.ops, 1.0, 1.0),
        );
        assert_eq!(
            workload::generate(config.seed, config.ops).ops,
            workload::generate(config.seed, config.ops).ops,
        );
    }
}
