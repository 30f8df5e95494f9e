//! The shared store behind all sessions: named [`StoredTable`]s, each
//! behind its own `RwLock`, plus the group-commit durability plane.
//!
//! ## Locking discipline
//!
//! Five lock tiers, always acquired in this order (and released
//! before acquiring an earlier tier again):
//!
//! 1. the **snapshot** mutex — taken only by `snapshot()`, so at most
//!    one snapshot runs at a time; it owns the WAL generation number;
//! 2. the **registry** `RwLock` over the table map — writers only for
//!    `CREATE TABLE`; every other path takes it briefly as a reader to
//!    clone the table's `Arc` and drops it before touching the table;
//! 3. **table** `RwLock`s — sessions hold at most one; the snapshotter
//!    holds all of them as a reader, acquired in name order; the WATCH
//!    hub holds at most one, as a reader, to copy committed rows;
//! 4. **shard file** mutexes — holding one *is* being that shard's
//!    elected committer; the snapshotter holds all of them (in shard
//!    order) across the generation switch;
//! 5. **shard queue** mutexes — always innermost; held only long
//!    enough to push or drain frames.
//!
//! A writer enqueues its WAL frame *while still holding the table's
//! write lock* — which also assigns the frame its global epoch — so
//! epoch order equals application order; the actual write+fsync
//! happens later, in [`commit`](crate::commit), after the writer has
//! released every lock. The snapshotter drains every shard while
//! holding every table read lock, so no admitted statement can fall
//! between snapshot and log.

use crate::commit::{FsyncMode, GroupWal, Ticket};
use crate::metrics::{Stage, StoreMetrics};
use crate::wal::{self, Wal, SNAPSHOT_FILE};
use crate::watch::{Change, Subscription, WatchHub, DEFAULT_WATCH_QUEUE};
use sqlnf_core::prelude::*;
use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Duration;

/// Default LHS cap of the `MINE` verb.
pub const DEFAULT_MINE_LHS: usize = 3;

/// Why a request failed.
#[derive(Debug)]
pub enum ServeError {
    /// Rejected by the engine (parse error, constraint violation, …).
    Engine(EngineError),
    /// Malformed request or unknown verb target.
    Bad(String),
    /// Durability layer failure.
    Io(io::Error),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Engine(e) => write!(f, "{e}"),
            ServeError::Bad(m) => write!(f, "{m}"),
            ServeError::Io(e) => write!(f, "io error: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<EngineError> for ServeError {
    fn from(e: EngineError) -> Self {
        ServeError::Engine(e)
    }
}

impl From<io::Error> for ServeError {
    fn from(e: io::Error) -> Self {
        ServeError::Io(e)
    }
}

type Registry = BTreeMap<String, Arc<RwLock<StoredTable>>>;

/// The table registry, shared by the store and its WATCH hub (which
/// reads committed rows from it).
pub(crate) type Tables = Arc<RwLock<Registry>>;

/// Fault-injection hooks for deterministic crash testing (used by
/// `sqlnf-harness`; all disabled by default and inert in production
/// paths).
#[derive(Debug)]
struct Hooks {
    /// After this many statements pass the admission gate, every
    /// further statement is refused with an injected I/O error — a
    /// deterministic crash point: regardless of thread interleaving,
    /// exactly this many statements are admitted (the compare-exchange
    /// in [`Store::admit_gate`] makes the check-and-count atomic).
    /// `u64::MAX` disables the fault.
    wal_fault_after: AtomicU64,
    /// Statements past the gate so far.
    appends: AtomicU64,
    /// Whether the armed fault has fired at least once.
    fault_fired: AtomicBool,
}

impl Default for Hooks {
    fn default() -> Self {
        Hooks {
            wal_fault_after: AtomicU64::new(u64::MAX),
            appends: AtomicU64::new(0),
            fault_fired: AtomicBool::new(false),
        }
    }
}

/// Durability tuning for [`Store::open_with`] /
/// [`Store::ephemeral_with`].
#[derive(Debug, Clone)]
pub struct StoreOptions {
    /// Admitted statements between automatic snapshots (0 = only on
    /// shutdown).
    pub snapshot_every: u64,
    /// Number of WAL shards (tables are hashed across them).
    pub wal_shards: usize,
    /// How long an elected committer lingers collecting more frames
    /// before writing its batch.
    pub commit_window: Duration,
    /// Fsync discipline at the ack boundary.
    pub fsync: FsyncMode,
}

impl Default for StoreOptions {
    fn default() -> Self {
        StoreOptions {
            snapshot_every: 0,
            wal_shards: 1,
            commit_window: Duration::ZERO,
            fsync: FsyncMode::Batch,
        }
    }
}

/// Statements applied and enqueued but not yet acknowledged: the
/// tickets a session must redeem (via [`Store::commit_pending`])
/// before replying to their requests.
#[derive(Debug, Default)]
pub struct Pending {
    tickets: Vec<Ticket>,
}

impl Pending {
    /// Whether there is nothing to wait for.
    pub fn is_empty(&self) -> bool {
        self.tickets.is_empty()
    }

    /// Tickets accumulated so far (callers use the delta around an
    /// enqueue to attribute tickets to requests).
    pub fn len(&self) -> usize {
        self.tickets.len()
    }
}

/// The shared store: the table registry plus the durability layer.
#[derive(Debug)]
pub struct Store {
    tables: Tables,
    wal: GroupWal,
    dir: Option<PathBuf>,
    /// Serializes snapshots; the guarded value is the generation of
    /// the live WAL (tier 1 of the locking discipline).
    generation: Mutex<u64>,
    /// Admitted statements between automatic snapshots (0 = only on
    /// shutdown).
    snapshot_every: u64,
    since_snapshot: AtomicU64,
    /// Test-only fault/observation hooks.
    hooks: Hooks,
    /// Every `serve.*` counter and span of this store, and its
    /// slow-request log (see [`crate::metrics`]).
    metrics: Arc<StoreMetrics>,
    /// Process-unique tag stamped into every flight-recorder event this
    /// store emits: the flight recorder is still process-global, so
    /// tests sharing it filter their own events out of the stream.
    nonce: u64,
    /// The WATCH subscription hub (see [`crate::watch`]): a thread
    /// mining watched tables' committed rows incrementally, fed from
    /// the commit plane post-durability.
    watch: WatchHub,
}

/// Source of store nonces (flight events carry them as values).
static NONCE: AtomicU64 = AtomicU64::new(1);

impl Store {
    /// An in-memory store without durability.
    pub fn ephemeral() -> Store {
        Store::ephemeral_with(StoreOptions::default())
    }

    /// An in-memory store with explicit commit-plane tuning (shard
    /// count and commit window still shape batching even without
    /// backing files).
    pub fn ephemeral_with(opts: StoreOptions) -> Store {
        let metrics = Arc::new(StoreMetrics::default());
        let wal = GroupWal::ephemeral(
            opts.wal_shards,
            opts.commit_window,
            opts.fsync,
            Arc::clone(&metrics),
        );
        Store::assemble(wal, metrics, Registry::new(), None, 0, 0)
    }

    /// Wires a store around its commit plane and its (recovered)
    /// tables: spawns the WATCH hub as the plane's commit listener.
    fn assemble(
        wal: GroupWal,
        metrics: Arc<StoreMetrics>,
        registry: Registry,
        dir: Option<PathBuf>,
        generation: u64,
        snapshot_every: u64,
    ) -> Store {
        let tables = Arc::new(RwLock::new(registry));
        // The hub's cursor starts at the first epoch the store can
        // commit; every row already in the registry precedes it.
        let watch = WatchHub::spawn(
            Arc::clone(&tables),
            wal.epoch_next(),
            DEFAULT_WATCH_QUEUE,
            Arc::clone(&metrics),
        );
        wal.set_listener(watch.sender());
        Store {
            tables,
            wal,
            dir,
            generation: Mutex::new(generation),
            snapshot_every,
            since_snapshot: AtomicU64::new(0),
            hooks: Hooks::default(),
            metrics,
            nonce: NONCE.fetch_add(1, Ordering::Relaxed),
            watch,
        }
    }

    /// Opens a durable store in `dir` with default options; see
    /// [`open_with`](Self::open_with).
    pub fn open(dir: &Path, snapshot_every: u64) -> Result<Store, ServeError> {
        Store::open_with(
            dir,
            StoreOptions {
                snapshot_every,
                ..StoreOptions::default()
            },
        )
    }

    /// Opens a durable store in `dir`, recovering state by applying the
    /// snapshot (if any) and then replaying the snapshot generation's
    /// shard logs, merged by epoch — the longest contiguous epoch run
    /// from the snapshot's base is exactly the acknowledged history.
    /// Logs of any other generation are debris of a crash mid-snapshot
    /// — older ones are fully contained in the snapshot, newer ones
    /// were never written to — and are deleted, not replayed, so
    /// recovery never applies a statement twice. The shard count may
    /// differ from the one the logs were written under: recovery reads
    /// whatever shards exist on disk.
    pub fn open_with(dir: &Path, opts: StoreOptions) -> Result<Store, ServeError> {
        std::fs::create_dir_all(dir)?;
        let snap_path = dir.join(SNAPSHOT_FILE);
        let (generation, epoch_base, script) = match std::fs::read_to_string(&snap_path) {
            Ok(image) => {
                let (generation, epoch_base, body) = wal::parse_snapshot(&image);
                (generation, epoch_base, body.to_owned())
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => (0, 1, String::new()),
            Err(e) => return Err(e.into()),
        };
        wal::cleanup_stale(dir, generation)?;
        // GroupWal::recover truncates torn tails and epoch-gapped
        // suffixes, so replay-then-append agree on the logs' contents.
        let metrics = Arc::new(StoreMetrics::default());
        let (gwal, replayed) = GroupWal::recover(
            dir,
            generation,
            epoch_base,
            opts.wal_shards,
            opts.commit_window,
            opts.fsync,
            Arc::clone(&metrics),
        )?;
        let mut registry = Registry::new();
        for src in std::iter::once(&script).chain(&replayed) {
            replay_into(&mut registry, src)?;
        }
        Ok(Store::assemble(
            gwal,
            metrics,
            registry,
            Some(dir.to_path_buf()),
            generation,
            opts.snapshot_every,
        ))
    }

    fn table_arc(&self, name: &str) -> Result<Arc<RwLock<StoredTable>>, ServeError> {
        let reg = self
            .metrics
            .timed(Stage::LockRegistry, || self.tables.read().unwrap());
        reg.get(name)
            .cloned()
            .ok_or_else(|| EngineError::NoSuchTable(name.to_owned()).into())
    }

    /// This store's flight-event tag (see the `nonce` field).
    pub fn nonce(&self) -> u64 {
        self.nonce
    }

    /// This store's counters, spans and slow-request log.
    pub fn metrics(&self) -> &StoreMetrics {
        &self.metrics
    }

    /// The `STATS` payload: `name value` lines, sorted by name —
    /// `STATS` and `METRICS` output is stable across runs, so diffs
    /// (and tests diffing the two planes) are deterministic.
    pub fn stats_lines(&self) -> Vec<String> {
        let m = &self.metrics;
        let (wal_bytes, wal_records) = self.wal_size();
        vec![
            format!("requests {}", m.requests.get()),
            format!("sessions {}", m.sessions.get()),
            format!("snapshots {}", m.snapshots.get()),
            format!("stmt.admitted {}", m.admitted.get()),
            format!("stmt.rejected {}", m.rejected.get()),
            format!("tables {}", self.table_names().len()),
            format!("wal.bytes {wal_bytes}"),
            format!("wal.records {wal_records}"),
            format!("watch.shadow_rows {}", m.watch_shadow_rows.get()),
        ]
    }

    /// Table names, sorted.
    pub fn table_names(&self) -> Vec<String> {
        self.tables.read().unwrap().keys().cloned().collect()
    }

    /// Runs `f` on a read-locked table.
    pub fn with_table<T>(
        &self,
        name: &str,
        f: impl FnOnce(&StoredTable) -> T,
    ) -> Result<T, ServeError> {
        let arc = self.table_arc(name)?;
        // Wait time only: the span must not cover `f` itself.
        let st = self.metrics.timed(Stage::LockTable, || arc.read().unwrap());
        Ok(f(&st))
    }

    /// Subscribe to live discovery events; `filter` limits the stream
    /// to one table (`None` = every table). Events begin at the
    /// store's current committed state — the hub mines a silent
    /// baseline at registration and streams only subsequent diffs.
    pub fn watch(&self, filter: Option<String>) -> Subscription {
        self.watch.subscribe(filter)
    }

    /// [`watch`](Self::watch) with the weak plane opt-in: a `weak`
    /// subscriber additionally receives `wfd:` fact events.
    pub fn watch_opts(&self, filter: Option<String>, weak: bool) -> Subscription {
        self.watch.subscribe_opts(filter, weak)
    }

    /// Block until the WATCH hub has processed every commit
    /// notification sent so far (deterministic fence for tests and the
    /// harness).
    pub fn watch_barrier(&self) {
        self.watch.barrier();
    }

    /// Parses and executes a SQL script, enqueuing each applied
    /// statement's canonical rendering for group commit. Statements
    /// apply in order; the first rejection stops the script (earlier
    /// statements stay applied — the wire protocol's unit of atomicity
    /// is the statement, not the script). Returns the number of
    /// statements applied; their tickets accumulate in `pending` and
    /// the caller must redeem them with
    /// [`commit_pending`](Self::commit_pending) before acknowledging
    /// the request — the split is what lets a session stack several
    /// pipelined requests into one commit batch.
    pub fn execute_sql_enqueue(
        &self,
        src: &str,
        pending: &mut Pending,
    ) -> Result<usize, ServeError> {
        let parsed = self.metrics.timed(Stage::Parse, || parse_script(src));
        let mut applied = 0;
        let result = match parsed {
            Ok(stmts) => stmts.into_iter().try_for_each(|stmt| {
                pending.tickets.push(self.apply_logged(stmt)?);
                applied += 1;
                Ok(())
            }),
            Err(e) => Err(EngineError::from(e).into()),
        };
        // A refused statement ends the script: one rejection.
        self.metrics.rejected.add(result.is_err() as u64);
        result.map(|()| applied)
    }

    /// Parks until every pending statement is durable, then counts
    /// and announces the per-statement outcomes. A statement is
    /// *admitted* — counted, flight-recorded, snapshot-triggering —
    /// only here, after its frame survived the batch fsync and the
    /// cross-shard watermark covers its epoch; a statement whose own
    /// wait fails is *rejected*. Every ticket is redeemed
    /// individually: a lost batch on one shard leaves statements
    /// already durable elsewhere admitted, so the admission counter
    /// always agrees with the oplog. Returns one outcome per ticket,
    /// in enqueue order, plus the aftermath of the commit (the
    /// auto-snapshot attempt) — callers replying per request map the
    /// outcomes back onto replies and treat the aftermath as a
    /// session-level failure, not a statement rejection. Callers must
    /// hold no locks: a wait may elect this thread committer and
    /// perform the batch I/O itself.
    pub fn commit_pending_each(
        &self,
        pending: &mut Pending,
    ) -> (Vec<io::Result<()>>, Result<(), ServeError>) {
        if pending.tickets.is_empty() {
            return (Vec::new(), Ok(()));
        }
        let tickets = std::mem::take(&mut pending.tickets);
        let outcomes: Vec<io::Result<()>> = {
            let _span = self.metrics.commit_wait.enter();
            tickets.into_iter().map(|t| self.wal.wait(t)).collect()
        };
        let admitted = outcomes.iter().filter(|o| o.is_ok()).count() as u64;
        self.metrics.admitted.add(admitted);
        self.metrics.rejected.add(outcomes.len() as u64 - admitted);
        for _ in 0..admitted {
            sqlnf_obs::event!("serve.stmt.admitted", self.nonce);
        }
        let aftermath = self.maybe_snapshot(admitted);
        (outcomes, aftermath)
    }

    /// [`commit_pending_each`](Self::commit_pending_each) collapsed
    /// for callers that treat the pending set as one unit (CLI,
    /// tests): the first per-ticket failure, or else the aftermath
    /// error, is the result.
    pub fn commit_pending(&self, pending: &mut Pending) -> Result<(), ServeError> {
        let (outcomes, aftermath) = self.commit_pending_each(pending);
        for outcome in outcomes {
            outcome?;
        }
        aftermath
    }

    /// Parses, executes, and makes durable a SQL script in one call
    /// (the unpipelined path: CLI, tests, recovery checks). Returns
    /// the number of statements applied.
    pub fn execute_sql(&self, src: &str) -> Result<usize, ServeError> {
        let mut pending = Pending::default();
        let res = self.execute_sql_enqueue(src, &mut pending);
        // Ack earlier statements even when a later one was refused —
        // they applied, so they must become durable.
        self.commit_pending(&mut pending)?;
        res
    }

    /// Applies one statement under the locking discipline, enqueuing
    /// its canonical rendering for commit while the write lock is
    /// still held (so epoch order equals application order).
    fn apply_logged(&self, stmt: Statement) -> Result<Ticket, ServeError> {
        match stmt {
            Statement::CreateTable { schema, sigma } => {
                let rendered = render_create_table(&schema, &sigma);
                let name = schema.name().to_owned();
                let mut reg = self
                    .metrics
                    .timed(Stage::LockRegistry, || self.tables.write().unwrap());
                if reg.contains_key(&name) {
                    return Err(EngineError::DuplicateTable(name).into());
                }
                // Gate and enqueue before publishing: if the commit
                // plane refuses, the statement is refused and the
                // registry is unchanged.
                self.admit_gate()?;
                let ticket = self.wal.enqueue(&name, Change::Created, rendered)?;
                reg.insert(name, Arc::new(RwLock::new(StoredTable::new(schema, sigma))));
                Ok(ticket)
            }
            Statement::Insert { table, rows } => {
                let arc = self.table_arc(&table)?;
                // How long concurrent writers queue on one table — the
                // suspected cause of serve_4x500 throughput trailing
                // serve_1x500. The span ends at acquisition.
                let mut st = self
                    .metrics
                    .timed(Stage::LockTable, || arc.write().unwrap());
                // Multi-row INSERTs are atomic: roll back this
                // statement's rows if a later one is rejected.
                let base = st.data().len();
                for (i, row) in rows.iter().enumerate() {
                    if let Err(e) = st.insert(row.clone()) {
                        for r in (base..base + i).rev() {
                            st.delete(r).expect("rolling back admitted rows");
                        }
                        return Err(e.into());
                    }
                }
                let rendered = render_insert(&table, &rows);
                let enqueued = self.admit_gate().and_then(|()| {
                    self.wal
                        .enqueue(&table, Change::Rows(rows.len()), rendered)
                        .map_err(ServeError::from)
                });
                match enqueued {
                    Ok(ticket) => Ok(ticket),
                    Err(e) => {
                        for r in (base..base + rows.len()).rev() {
                            st.delete(r).expect("rolling back admitted rows");
                        }
                        Err(e)
                    }
                }
            }
        }
    }

    /// The admission gate: atomically checks and spends one unit of
    /// the fault hook's budget. The compare-exchange makes "first k
    /// pass, the rest fail" exact under any interleaving — the crash
    /// pin counts *statements admitted*, not frames fsynced, so
    /// [`inject_wal_fault_after`](Self::inject_wal_fault_after) keeps
    /// its meaning under batched commits.
    fn admit_gate(&self) -> Result<(), ServeError> {
        loop {
            let budget = self.hooks.wal_fault_after.load(Ordering::Relaxed);
            let done = self.hooks.appends.load(Ordering::Relaxed);
            if done >= budget {
                self.hooks.fault_fired.store(true, Ordering::SeqCst);
                return Err(io::Error::other("injected WAL fault").into());
            }
            if self
                .hooks
                .appends
                .compare_exchange(done, done + 1, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
            {
                return Ok(());
            }
        }
    }

    /// Test hook: start recording every committed statement (canonical
    /// rendering, epoch order). Used by the fault-injection harness as
    /// the ground-truth serial history for differential recovery
    /// checks.
    pub fn enable_oplog(&self) {
        self.wal.enable_oplog();
    }

    /// Test hook: the statements committed since
    /// [`enable_oplog`](Self::enable_oplog), in epoch order.
    pub fn oplog(&self) -> Vec<String> {
        self.wal.oplog()
    }

    /// Test hook: after `appends` further admissions, every statement
    /// is refused with an injected I/O error. Statements admitted
    /// before the fault stay durable; later ones are refused and rolled
    /// back — a deterministic crash point independent of thread
    /// interleaving.
    pub fn inject_wal_fault_after(&self, appends: u64) {
        let done = self.hooks.appends.load(Ordering::Relaxed);
        self.hooks
            .wal_fault_after
            .store(done.saturating_add(appends), Ordering::Relaxed);
    }

    /// Test hook: whether the armed WAL fault has fired.
    pub fn wal_fault_fired(&self) -> bool {
        self.hooks.fault_fired.load(Ordering::SeqCst)
    }

    /// Test hook: make the next commit batch fail between its `write`
    /// and its `fsync`, proving undurable waiters are never acked.
    pub fn inject_fsync_fault_once(&self) {
        self.wal.inject_fsync_fault_once();
    }

    /// Test hook: like
    /// [`inject_fsync_fault_once`](Self::inject_fsync_fault_once),
    /// but only the named WAL shard's next batch fails — for
    /// deterministic partial-commit-failure interleavings.
    pub fn inject_fsync_fault_on(&self, shard: usize) {
        self.wal.inject_fsync_fault_on(shard);
    }

    /// `(bytes, records)` across all WAL shards.
    pub fn wal_size(&self) -> (u64, u64) {
        self.wal.size()
    }

    /// Counts `applied` statements toward the auto-snapshot threshold.
    /// The compare-exchange elects exactly one thread per crossing: a
    /// loser's statements stay counted and re-arm the next trigger, so
    /// concurrent workers never pile into `snapshot()` together.
    fn maybe_snapshot(&self, applied: u64) -> Result<(), ServeError> {
        if self.snapshot_every == 0 || self.dir.is_none() || applied == 0 {
            return Ok(());
        }
        let total = self.since_snapshot.fetch_add(applied, Ordering::Relaxed) + applied;
        if total >= self.snapshot_every
            && self
                .since_snapshot
                .compare_exchange(total, 0, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
        {
            self.snapshot()?;
        }
        Ok(())
    }

    /// Renders the whole store as a SQL script that recreates it (the
    /// snapshot format — DDL in registry order, then each table's
    /// rows). Callers must not hold any table lock.
    pub fn export_script(&self) -> String {
        let arcs: Vec<(String, Arc<RwLock<StoredTable>>)> = {
            let reg = self.tables.read().unwrap();
            reg.iter().map(|(n, a)| (n.clone(), a.clone())).collect()
        };
        let mut out = String::new();
        for (name, arc) in &arcs {
            let st = arc.read().unwrap();
            out.push_str(&render_create_table(st.data().schema(), st.sigma()));
            out.push('\n');
            if !st.data().is_empty() {
                out.push_str(&render_insert(name, st.data().rows()));
                out.push('\n');
            }
        }
        out
    }

    /// Writes a snapshot and retires the current WAL generation by
    /// switching every shard to the next one atomically. All table
    /// read locks are held throughout — which quiesces the commit
    /// plane, since enqueuing requires a table write lock — and every
    /// shard is drained into its old log before the switch, so an
    /// admitted statement is always in the snapshot or the live logs.
    /// The on-disk order makes every crash point recoverable: the
    /// generation-`g+1` snapshot (whose header records the epoch base)
    /// and its empty shard logs are written and made durable (file
    /// fsync, rename, directory fsync) *before* the generation-`g`
    /// logs are deleted — a leftover old-generation log is therefore
    /// always fully contained in the snapshot, and `open()` discards
    /// it instead of replaying it twice.
    pub fn snapshot(&self) -> Result<(), ServeError> {
        let Some(dir) = self.dir.as_ref() else {
            return Ok(());
        };
        let _span = self.metrics.snapshot.enter();
        // Tier 1: one snapshot at a time; the guard owns the live
        // WAL's generation.
        let mut generation = self
            .metrics
            .timed(Stage::LockSnapshot, || self.generation.lock().unwrap());
        let next = *generation + 1;
        let reg = self.tables.read().unwrap();
        let guards: Vec<(&String, std::sync::RwLockReadGuard<'_, StoredTable>)> = reg
            .iter()
            .map(|(name, arc)| (name, arc.read().unwrap()))
            .collect();
        // Tier 4, all shards: drain straggler frames into the old
        // generation (their writers are parked in wait(), not holding
        // locks) and keep the file locks across the switch.
        let mut files = self.wal.lock_files();
        self.wal.drain_all(&mut files);
        let epoch_base = self.wal.epoch_next();
        let mut script = wal::snapshot_header(next, epoch_base);
        for (name, st) in &guards {
            script.push_str(&render_create_table(st.data().schema(), st.sigma()));
            script.push('\n');
            if !st.data().is_empty() {
                script.push_str(&render_insert(name, st.data().rows()));
                script.push('\n');
            }
        }
        let tmp = wal::snapshot_tmp_path(dir, next);
        {
            use std::io::Write as _;
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(script.as_bytes())?;
            self.metrics.timed(Stage::SnapshotFsync, || f.sync_data())?;
        }
        // The next generation's logs must exist before the snapshot
        // naming them is published, and both must be durable before
        // any statement is appended to the new logs — otherwise a
        // crash could recover the old snapshot yet discard a new log.
        let mut fresh = Vec::with_capacity(files.len());
        for shard in 0..files.len() as u64 {
            fresh.push(Wal::open(dir, next, shard)?);
        }
        std::fs::rename(&tmp, dir.join(SNAPSHOT_FILE))?;
        wal::sync_dir(dir)?;
        let mut removed = false;
        for (guard, new) in files.iter_mut().zip(fresh) {
            if let Some(old) = (**guard).replace(new) {
                // Already captured by the snapshot; removal is cleanup,
                // not correctness — open() deletes leftovers.
                let _ = std::fs::remove_file(old.path());
                removed = true;
            }
        }
        if removed {
            let _ = wal::sync_dir(dir);
        }
        drop(files);
        self.since_snapshot.store(0, Ordering::Relaxed);
        *generation = next;
        self.metrics.snapshots.add(1);
        Ok(())
    }

    /// Fsyncs every WAL shard (graceful shutdown path).
    pub fn sync(&self) -> Result<(), ServeError> {
        self.wal.sync_all()?;
        Ok(())
    }

    /// Full revalidation: every stored instance satisfies its declared
    /// constraint set (used by tests to audit concurrent admission).
    pub fn satisfies_all_constraints(&self) -> bool {
        let names = self.table_names();
        names.iter().all(|name| {
            self.with_table(name, |st| satisfies_all(st.data(), st.sigma()))
                .unwrap_or(false)
        })
    }
}

/// Applies a recovery script (snapshot body or replayed frame)
/// directly to a registry under construction, bypassing the WAL.
fn replay_into(registry: &mut Registry, src: &str) -> Result<(), ServeError> {
    for stmt in parse_script(src).map_err(EngineError::from)? {
        match stmt {
            Statement::CreateTable { schema, sigma } => {
                let name = schema.name().to_owned();
                if registry.contains_key(&name) {
                    return Err(EngineError::DuplicateTable(name).into());
                }
                let table = StoredTable::new(schema, sigma);
                registry.insert(name, Arc::new(RwLock::new(table)));
            }
            Statement::Insert { table, rows } => {
                let stored = registry
                    .get(&table)
                    .ok_or_else(|| EngineError::NoSuchTable(table.clone()))?;
                let mut st = stored.write().unwrap();
                for row in rows {
                    st.insert(row)?;
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const DDL: &str = "CREATE TABLE purchase (
        order_id INT NOT NULL,
        item     TEXT NOT NULL,
        catalog  TEXT,
        price    INT NOT NULL,
        CONSTRAINT line CERTAIN FD (item, catalog) -> (price)
    );";

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sqlnf_store_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn execute_admits_and_rejects() {
        let store = Store::ephemeral();
        store.execute_sql(DDL).unwrap();
        store
            .execute_sql("INSERT INTO purchase VALUES (1, 'Fitbit', 'Amazon', 240);")
            .unwrap();
        let err = store
            .execute_sql("INSERT INTO purchase VALUES (2, 'Fitbit', 'Amazon', 999);")
            .unwrap_err();
        assert!(matches!(
            err,
            ServeError::Engine(EngineError::ConstraintViolation { .. })
        ));
        assert_eq!(store.metrics.admitted.get(), 2);
        assert_eq!(store.metrics.rejected.get(), 1);
        assert!(store.satisfies_all_constraints());
    }

    #[test]
    fn multi_row_insert_is_atomic() {
        let store = Store::ephemeral();
        store.execute_sql(DDL).unwrap();
        // Second row violates the c-FD against the first: both roll back.
        let err = store
            .execute_sql("INSERT INTO purchase VALUES (1, 'X', 'A', 10), (2, 'X', 'A', 20);")
            .unwrap_err();
        assert!(matches!(err, ServeError::Engine(_)));
        store
            .with_table("purchase", |st| assert_eq!(st.data().len(), 0))
            .unwrap();
    }

    #[test]
    fn recovery_replays_wal_and_snapshot() {
        let dir = tmp_dir("recover");
        {
            let store = Store::open(&dir, 0).unwrap();
            store.execute_sql(DDL).unwrap();
            store
                .execute_sql("INSERT INTO purchase VALUES (1, 'Fitbit', NULL, 240);")
                .unwrap();
            // No snapshot, no graceful close: state lives in the WAL only.
        }
        let reborn = Store::open(&dir, 0).unwrap();
        reborn
            .with_table("purchase", |st| assert_eq!(st.data().len(), 1))
            .unwrap();
        // Snapshot, append more, recover again: both sources compose.
        reborn.snapshot().unwrap();
        assert_eq!(reborn.wal_size().1, 0);
        reborn
            .execute_sql("INSERT INTO purchase VALUES (2, 'Doll', 'Kingtoys', 25);")
            .unwrap();
        let script = reborn.export_script();
        drop(reborn);
        let third = Store::open(&dir, 0).unwrap();
        assert_eq!(third.export_script(), script);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A store written under several shards recovers identically no
    /// matter how many shards the reopening configuration asks for —
    /// the epoch merge, not the file layout, defines the history.
    #[test]
    fn sharded_history_recovers_under_any_shard_count() {
        let dir = tmp_dir("reshard");
        let opts = StoreOptions {
            wal_shards: 4,
            ..StoreOptions::default()
        };
        let store = Store::open_with(&dir, opts).unwrap();
        store.execute_sql(DDL).unwrap();
        store
            .execute_sql("CREATE TABLE other (x INT NOT NULL, CONSTRAINT k CERTAIN KEY (x));")
            .unwrap();
        for i in 0..10 {
            store
                .execute_sql(&format!(
                    "INSERT INTO purchase VALUES ({i}, 'i{i}', NULL, {i});"
                ))
                .unwrap();
            store
                .execute_sql(&format!("INSERT INTO other VALUES ({i});"))
                .unwrap();
        }
        let expected = store.export_script();
        drop(store);
        // The two tables hash to shards independently; at least the
        // frames exist across the generation's shard files.
        assert!(!wal::shard_logs(&dir, 0).unwrap().is_empty());
        for shards in [1, 2, 8] {
            let reborn = Store::open_with(
                &dir,
                StoreOptions {
                    wal_shards: shards,
                    ..StoreOptions::default()
                },
            )
            .unwrap();
            assert_eq!(reborn.export_script(), expected, "shards={shards}");
            assert!(reborn.satisfies_all_constraints());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The crash window the generation scheme closes: the snapshot is
    /// renamed into place but the previous generation's log survives
    /// (power loss before the retired log was deleted). Replaying that
    /// log on top of the snapshot would double every statement — or
    /// refuse to start on `DuplicateTable` — so recovery must discard
    /// it instead.
    #[test]
    fn leftover_old_generation_wal_is_not_replayed() {
        let dir = tmp_dir("stale");
        let store = Store::open(&dir, 0).unwrap();
        store.execute_sql(DDL).unwrap();
        store
            .execute_sql("INSERT INTO purchase VALUES (1, 'Fitbit', NULL, 240);")
            .unwrap();
        let old_log = std::fs::read(wal::wal_path(&dir, 0, 0)).unwrap();
        store.snapshot().unwrap();
        store
            .execute_sql("INSERT INTO purchase VALUES (2, 'Doll', 'Kingtoys', 25);")
            .unwrap();
        let expected = store.export_script();
        drop(store);
        // Resurrect the generation-0 log next to the generation-1
        // snapshot + log, as if the final delete never hit the disk.
        std::fs::write(wal::wal_path(&dir, 0, 0), &old_log).unwrap();
        let reborn = Store::open(&dir, 0).unwrap();
        assert_eq!(reborn.export_script(), expected);
        assert!(reborn.satisfies_all_constraints());
        assert!(!wal::wal_path(&dir, 0, 0).exists(), "stale log cleaned up");
        drop(reborn);
        // Crash *before* the rename instead: an empty next-generation
        // log and a temp snapshot are debris, not state.
        std::fs::write(wal::wal_path(&dir, 9, 0), b"").unwrap();
        std::fs::write(wal::snapshot_tmp_path(&dir, 9), b"junk").unwrap();
        let again = Store::open(&dir, 0).unwrap();
        assert_eq!(again.export_script(), expected);
        assert!(!wal::wal_path(&dir, 9, 0).exists());
        assert!(!wal::snapshot_tmp_path(&dir, 9).exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Hammer the auto-snapshot trigger from several writers at once:
    /// snapshots must serialize (no interleaved writers corrupting one
    /// file) and recovery must reproduce the exact store.
    #[test]
    fn concurrent_snapshot_triggers_stay_consistent() {
        let dir = tmp_dir("conc");
        let store = Arc::new(Store::open(&dir, 1).unwrap());
        store.execute_sql(DDL).unwrap();
        let handles: Vec<_> = (0..4)
            .map(|k| {
                let store = Arc::clone(&store);
                std::thread::spawn(move || {
                    for i in 0..10 {
                        let id = k * 100 + i;
                        store
                            .execute_sql(&format!(
                                "INSERT INTO purchase VALUES ({id}, 'i{id}', NULL, {id});"
                            ))
                            .unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert!(store.metrics.snapshots.get() >= 1);
        let expected = store.export_script();
        drop(store);
        let reborn = Store::open(&dir, 0).unwrap();
        assert_eq!(reborn.export_script(), expected);
        assert!(reborn.satisfies_all_constraints());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The harness hooks: the oplog mirrors the admitted history in
    /// order, and an armed fault refuses (and rolls back) every
    /// statement past its budget, deterministically — the budget
    /// counts *statements admitted*, not frames fsynced, so batching
    /// cannot shift the crash point.
    #[test]
    fn oplog_and_wal_fault_hooks() {
        let dir = tmp_dir("hooks");
        let store = Store::open(&dir, 0).unwrap();
        store.enable_oplog();
        store.execute_sql(DDL).unwrap();
        store
            .execute_sql("INSERT INTO purchase VALUES (1, 'A', NULL, 1);")
            .unwrap();
        // DDL + one insert so far; allow exactly one more admission.
        store.inject_wal_fault_after(1);
        store
            .execute_sql("INSERT INTO purchase VALUES (2, 'B', NULL, 2);")
            .unwrap();
        assert!(!store.wal_fault_fired());
        let err = store
            .execute_sql("INSERT INTO purchase VALUES (3, 'C', NULL, 3);")
            .unwrap_err();
        assert!(matches!(err, ServeError::Io(_)), "{err}");
        assert!(store.wal_fault_fired());
        // The refused insert was rolled back, not half-applied.
        store
            .with_table("purchase", |st| assert_eq!(st.data().len(), 2))
            .unwrap();
        let oplog = store.oplog();
        assert_eq!(oplog.len(), 3, "{oplog:?}");
        assert!(oplog[0].starts_with("CREATE TABLE"));
        // The oplog replayed through a fresh engine reproduces the
        // recovered store exactly (the harness's differential check).
        let mut reference = Database::new();
        for stmt in &oplog {
            reference.run_script(stmt).unwrap();
        }
        drop(store);
        let reopened = Store::open(&dir, 0).unwrap();
        assert_eq!(reopened.export_script(), reference.export_script());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The crash-during-commit window: the batch is written but the
    /// fsync fails. The waiter must get an error, the admission
    /// counter must not move, the oplog must not record the statement,
    /// and recovery must come back without it.
    #[test]
    fn crash_between_write_and_fsync_never_acks() {
        let dir = tmp_dir("fsync_fault");
        let store = Store::open(&dir, 0).unwrap();
        store.enable_oplog();
        store.execute_sql(DDL).unwrap();
        store
            .execute_sql("INSERT INTO purchase VALUES (1, 'A', NULL, 1);")
            .unwrap();
        store.inject_fsync_fault_once();
        let err = store
            .execute_sql("INSERT INTO purchase VALUES (2, 'B', NULL, 2);")
            .unwrap_err();
        assert!(matches!(err, ServeError::Io(_)), "{err}");
        assert_eq!(store.metrics.admitted.get(), 2);
        assert_eq!(store.oplog().len(), 2, "undurable frame must not be acked");
        drop(store);
        let reborn = Store::open(&dir, 0).unwrap();
        reborn
            .with_table("purchase", |st| assert_eq!(st.data().len(), 1))
            .unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A partial commit failure — one shard loses its batch while
    /// another commits — must be accounted per ticket: the statement
    /// durable on the healthy shard is admitted (it is in the oplog,
    /// and recovery replays it), only the lost statement is rejected,
    /// and the admission counter agrees with the oplog throughout.
    #[test]
    fn partial_commit_failure_counts_per_ticket() {
        let dir = tmp_dir("partial");
        let opts = StoreOptions {
            wal_shards: 2,
            ..StoreOptions::default()
        };
        let store = Store::open_with(&dir, opts.clone()).unwrap();
        store.enable_oplog();
        // Two tables that hash to the two distinct shards.
        let mut names: [Option<String>; 2] = [None, None];
        for i in 0.. {
            let name = format!("t{i}");
            let shard = store.wal.shard_for(&name);
            if names[shard].is_none() {
                names[shard] = Some(name);
                if names.iter().all(|n| n.is_some()) {
                    break;
                }
            }
        }
        let (on_a, on_b) = (names[0].take().unwrap(), names[1].take().unwrap());
        for t in [&on_a, &on_b] {
            store
                .execute_sql(&format!(
                    "CREATE TABLE {t} (x INT NOT NULL, CONSTRAINT k CERTAIN KEY (x));"
                ))
                .unwrap();
        }
        // One pipelined pending set spanning both shards; shard 1
        // (the *later* epoch's shard) loses its batch, so the earlier
        // statement commits before the loss poisons the floor.
        let mut pending = Pending::default();
        store
            .execute_sql_enqueue(&format!("INSERT INTO {on_a} VALUES (1);"), &mut pending)
            .unwrap();
        store
            .execute_sql_enqueue(&format!("INSERT INTO {on_b} VALUES (1);"), &mut pending)
            .unwrap();
        assert_eq!(pending.len(), 2);
        store.inject_fsync_fault_on(1);
        let (outcomes, aftermath) = store.commit_pending_each(&mut pending);
        aftermath.unwrap();
        assert_eq!(outcomes.len(), 2);
        assert!(outcomes[0].is_ok(), "healthy shard's statement is admitted");
        assert!(outcomes[1].is_err(), "only the lost statement is rejected");
        // 2 DDL + the healthy insert; the counter matches the oplog.
        assert_eq!(store.metrics.admitted.get(), 3);
        assert_eq!(store.metrics.rejected.get(), 1);
        assert_eq!(store.oplog().len(), 3);
        drop(store);
        let reborn = Store::open_with(&dir, opts).unwrap();
        reborn
            .with_table(&on_a, |st| assert_eq!(st.data().len(), 1))
            .unwrap();
        reborn
            .with_table(&on_b, |st| assert_eq!(st.data().len(), 0))
            .unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn auto_snapshot_truncates_wal() {
        let dir = tmp_dir("auto");
        let store = Store::open(&dir, 2).unwrap();
        store.execute_sql(DDL).unwrap();
        store
            .execute_sql("INSERT INTO purchase VALUES (1, 'A', NULL, 1);")
            .unwrap();
        // Threshold reached: snapshot happened, WAL empty.
        assert_eq!(store.wal_size().1, 0);
        assert_eq!(store.metrics.snapshots.get(), 1);
        assert!(dir.join(SNAPSHOT_FILE).exists());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
