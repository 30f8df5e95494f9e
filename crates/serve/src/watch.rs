//! Live discovery: the `WATCH` subscription plane.
//!
//! A [`WatchHub`] thread mines every *watched* table incrementally
//! with an [`IncrementalMiner`] and streams *fact diffs* — newly
//! appearing or newly refuted possible/certain FDs and keys — to
//! registered subscribers as framed `EVENT` lines.
//!
//! ## Durable-watermark contract
//!
//! Commit notices — `(epoch, table, created | k rows added)` — enter
//! the hub from [`GroupWal::commit_locked`]'s success path, i.e.
//! *after* the batch is fsync-durable on its shard. The hub holds them
//! in a reorder buffer and releases epochs strictly contiguously from
//! the store's base epoch: epoch `e` is applied only once every epoch
//! `< e` has arrived. Because a notice is sent exactly once its shard
//! commit succeeds, contiguity-from-base reproduces the cross-shard
//! durable watermark without ever reading it — a censored (failed)
//! epoch simply never arrives, so the stream stalls in front of it
//! forever and a subscriber can never observe state beyond the
//! watermark. This mirrors the restart contract: a degraded store
//! replays exactly the contiguous durable prefix.
//!
//! ## Committed rows come from the store
//!
//! The hub keeps no copy of the store's history: it shares the store's
//! table registry and keeps one row count per table, as of its cursor.
//! Served tables only grow — a statement's rows are appended in epoch
//! order under the table's write lock, and the only deletions roll
//! back a tail that was never enqueued — so the committed rows of a
//! table at the cursor are exactly its first `n` rows in the store,
//! and epoch `e`'s `k` rows are rows `[n, n + k)`. A table's miner is
//! seeded from that prefix when the table is first watched and fed
//! each later epoch's range; it is dropped when the last subscriber
//! leaves. An unwatched table costs one integer. The miners' total
//! row count is the store counter `serve.watch.shadow_rows` (a
//! high-water mark).
//!
//! ## Wire grammar
//!
//! ```text
//! EVENT <epoch> <table> +<fact>     fact newly holds as of <epoch>
//! EVENT <epoch> <table> -<fact>     fact refuted by commit <epoch>
//! LAGGED <n>                        n events were dropped before this point
//! ```
//!
//! Facts are space-free tokens: `pfd:a,b->c`, `cfd:a->b`, `pkey:a,b`,
//! `ckey:a` — plus `wfd:a->b` for minimal *weak* FDs, which only
//! subscribers registered with `WATCH <t|*> weak` receive (there is no
//! `wkey:` fact: weak keys coincide with p-keys). Default subscribers
//! never see `wfd:` lines, so pre-weak consumers' streams are
//! byte-identical. The weak plane is mined only while a weak
//! subscriber watches the table: one joining a table already watched
//! gets a silent weak baseline, and the `wfd:` facts are dropped when
//! the last one leaves. Within one epoch, refutations (`-`) are emitted
//! before appearances (`+`), each in lexicographic fact order, so the
//! event stream for a given history is byte-deterministic.
//!
//! ## Backpressure
//!
//! Each subscriber owns a bounded queue ([`DEFAULT_WATCH_QUEUE`]
//! lines). When the hub finds the queue full it drops the event and
//! bumps a lag counter instead of blocking the commit plane; the next
//! drain appends an explicit `LAGGED <n>` notice so the consumer knows
//! the stream has a gap and can re-baseline with a full `MINE`.
//!
//! [`GroupWal::commit_locked`]: crate::commit::GroupWal

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread;

use sqlnf_discovery::prelude::*;
use sqlnf_model::prelude::*;

use crate::metrics::StoreMetrics;
use crate::store::{Tables, DEFAULT_MINE_LHS};
use sqlnf_obs::Counter;

/// Default per-subscriber queue depth (event lines) before lagging.
pub const DEFAULT_WATCH_QUEUE: usize = 4096;

/// LHS/key size bound used for the hub's mining (matches the `MINE`
/// verb default).
pub const WATCH_MAX_LHS: usize = DEFAULT_MINE_LHS;

/// One streamed discovery event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WatchEvent {
    /// Commit epoch whose admission changed the fact set.
    pub epoch: u64,
    /// Table the fact belongs to.
    pub table: String,
    /// `true` if the fact newly holds, `false` if newly refuted.
    pub appeared: bool,
    /// Space-free fact token (`pfd:a,b->c`, `ckey:a`, …).
    pub fact: String,
}

impl WatchEvent {
    /// Render the framed wire line for this event.
    pub fn line(&self) -> String {
        let sign = if self.appeared { '+' } else { '-' };
        format!("EVENT {} {} {}{}", self.epoch, self.table, sign, self.fact)
    }

    /// Parse a wire line produced by [`WatchEvent::line`].
    pub fn parse(line: &str) -> Option<WatchEvent> {
        let rest = line.strip_prefix("EVENT ")?;
        let mut parts = rest.splitn(3, ' ');
        let epoch = parts.next()?.parse().ok()?;
        let table = parts.next()?.to_string();
        let signed = parts.next()?;
        let appeared = match signed.as_bytes().first()? {
            b'+' => true,
            b'-' => false,
            _ => return None,
        };
        Some(WatchEvent {
            epoch,
            table,
            appeared,
            fact: signed[1..].to_string(),
        })
    }
}

fn render_cols(schema: &TableSchema, set: AttrSet) -> String {
    let mut out = String::new();
    for a in set.iter() {
        if !out.is_empty() {
            out.push(',');
        }
        out.push_str(schema.column_name(a));
    }
    out
}

/// Whether a fact token belongs to the weak-opt-in plane.
fn is_weak_fact(fact: &str) -> bool {
    fact.starts_with("wfd:")
}

fn facts_from_parts(
    schema: &TableSchema,
    pfds: &[MinedFd],
    cfds: &[MinedFd],
    wfds: Option<&[MinedFd]>,
    keys: &MinedKeys,
) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    let mut fd_groups = vec![("pfd", pfds), ("cfd", cfds)];
    if let Some(w) = wfds {
        fd_groups.push(("wfd", w));
    }
    for (tag, fds) in fd_groups {
        for fd in fds {
            for a in fd.rhs.iter() {
                out.insert(format!(
                    "{tag}:{}->{}",
                    render_cols(schema, fd.lhs),
                    schema.column_name(a)
                ));
            }
        }
    }
    for k in &keys.pkeys {
        out.insert(format!("pkey:{}", render_cols(schema, *k)));
    }
    for k in &keys.ckeys {
        out.insert(format!("ckey:{}", render_cols(schema, *k)));
    }
    out
}

/// From-scratch fact set of a table: the minimal possible/certain FDs
/// (one fact per RHS attribute) and minimal possible/certain keys, all
/// bounded by `max_lhs`. This is the reference the hub's incremental
/// miners must agree with — harness stream-soundness checks mine
/// a table at an oplog prefix through this function and confirm every
/// streamed event against consecutive prefixes. Output is exactly what
/// a *default* subscriber sees; weak subscribers verify against
/// [`table_facts_with`] instead.
pub fn table_facts(table: &Table, max_lhs: usize) -> BTreeSet<String> {
    table_facts_with(table, max_lhs, false)
}

/// [`table_facts`] with the weak plane included: `include_weak` adds a
/// `wfd:` fact per RHS attribute of each minimal weak FD.
pub fn table_facts_with(table: &Table, max_lhs: usize, include_weak: bool) -> BTreeSet<String> {
    let pfds = mine_fds(
        table,
        MinerConfig::new(Semantics::Possible).with_max_lhs(max_lhs),
    )
    .fds;
    let cfds = mine_fds(
        table,
        MinerConfig::new(Semantics::Certain).with_max_lhs(max_lhs),
    )
    .fds;
    let wfds = include_weak.then(|| {
        mine_fds(
            table,
            MinerConfig::new(Semantics::Weak).with_max_lhs(max_lhs),
        )
        .fds
    });
    let keys = mine_keys_budgeted(table, max_lhs, DEFAULT_CACHE_BUDGET);
    facts_from_parts(table.schema(), &pfds, &cfds, wfds.as_deref(), &keys)
}

/// The facts of a watched table's maintained instance; the weak plane
/// is mined only when `weak` (some weak subscriber watches the table).
fn miner_facts(m: &mut IncrementalMiner, weak: bool) -> BTreeSet<String> {
    let mine = |m: &mut IncrementalMiner, sem| m.mine_fds(sem, WATCH_MAX_LHS, DEFAULT_CACHE_BUDGET);
    let pfds = mine(m, Semantics::Possible);
    let cfds = mine(m, Semantics::Certain);
    let wfds = weak.then(|| mine(m, Semantics::Weak));
    let keys = m.mine_keys(WATCH_MAX_LHS, DEFAULT_CACHE_BUDGET);
    facts_from_parts(m.schema(), &pfds, &cfds, wfds.as_deref(), &keys)
}

/// What one committed statement did to its table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Change {
    /// `CREATE TABLE`.
    Created,
    /// An `INSERT` of this many rows, appended after the table's
    /// earlier rows.
    Rows(usize),
}

/// One durable commit, as the commit plane announces it to the hub.
#[derive(Debug)]
pub(crate) struct Notice {
    pub(crate) epoch: u64,
    pub(crate) table: String,
    pub(crate) change: Change,
}

/// Messages into the hub thread. Notices, registrations and barriers
/// travel the same FIFO channel, so the hub's serial processing order
/// defines each subscription's exact baseline point.
#[derive(Debug)]
pub(crate) enum HubMsg {
    /// A commit batch, durable on its shard.
    Batch(Vec<Notice>),
    /// A new subscriber.
    Register(Arc<SubscriberShared>),
    /// A subscriber dropped its handle.
    Unregister(u64),
    /// Test/smoke fence: reply once all prior messages are processed.
    Barrier(Sender<()>),
}

/// State shared between a [`Subscription`] handle and the hub.
#[derive(Debug)]
pub(crate) struct SubscriberShared {
    id: u64,
    filter: Option<String>,
    /// Receive `wfd:` weak-FD facts (`WATCH <t|*> weak`).
    weak: bool,
    cap: usize,
    queue: Mutex<VecDeque<String>>,
    dropped: AtomicU64,
    reported: AtomicU64,
    closed: AtomicBool,
}

impl SubscriberShared {
    fn watches(&self, table: &str) -> bool {
        self.filter.as_deref().is_none_or(|f| f == table)
    }

    fn open(&self) -> bool {
        !self.closed.load(Ordering::Relaxed)
    }

    fn push(&self, line: String, dropped: &Counter) {
        let mut q = self.queue.lock().unwrap();
        if q.len() >= self.cap {
            drop(q);
            self.dropped.fetch_add(1, Ordering::Relaxed);
            dropped.add(1);
        } else {
            q.push_back(line);
        }
    }
}

/// A live subscription. Dropping it (or the session that owns it)
/// unregisters from the hub; queued events are discarded.
#[derive(Debug)]
pub struct Subscription {
    shared: Arc<SubscriberShared>,
    tx: Sender<HubMsg>,
}

impl Subscription {
    /// Pop every queued event line. If the hub dropped events since the
    /// last drain, a trailing `LAGGED <n>` line reports the gap (the
    /// dropped events are newer than the drained ones).
    pub fn drain(&self) -> Vec<String> {
        let mut out: Vec<String> = {
            let mut q = self.shared.queue.lock().unwrap();
            q.drain(..).collect()
        };
        let dropped = self.shared.dropped.load(Ordering::Relaxed);
        let reported = self.shared.reported.load(Ordering::Relaxed);
        if dropped > reported {
            self.shared.reported.store(dropped, Ordering::Relaxed);
            out.push(format!("LAGGED {}", dropped - reported));
        }
        out
    }

    /// Total events ever dropped for this subscriber.
    pub fn lagged(&self) -> u64 {
        self.shared.dropped.load(Ordering::Relaxed)
    }

    /// The table filter, or `None` for all tables.
    pub fn filter(&self) -> Option<&str> {
        self.shared.filter.as_deref()
    }
}

impl Drop for Subscription {
    fn drop(&mut self) {
        self.shared.closed.store(true, Ordering::Relaxed);
        let _ = self.tx.send(HubMsg::Unregister(self.shared.id));
    }
}

/// Owner handle for a store's hub thread. The thread exits when every
/// sender (the handle plus the WAL's listener) is dropped.
#[derive(Debug)]
pub struct WatchHub {
    tx: Sender<HubMsg>,
    next_id: AtomicU64,
    queue_cap: usize,
}

impl WatchHub {
    /// Spawn the hub over the store's registry. `cursor` is the first
    /// epoch the live store will commit (`GroupWal::epoch_next()` at
    /// store construction); every row in `tables` now — the recovered
    /// state — precedes it, so the row counts are read here, before
    /// the store admits a statement.
    pub(crate) fn spawn(
        tables: Tables,
        cursor: u64,
        queue_cap: usize,
        metrics: Arc<StoreMetrics>,
    ) -> WatchHub {
        let rows = tables
            .read()
            .expect("registry lock poisoned")
            .iter()
            .map(|(name, t)| {
                let len = t.read().expect("table lock poisoned").data().len();
                (name.clone(), len)
            })
            .collect();
        let hub = Hub {
            tables,
            cursor,
            pending: BTreeMap::new(),
            rows,
            watched: BTreeMap::new(),
            subs: Vec::new(),
            metrics,
        };
        let (tx, rx) = mpsc::channel();
        thread::Builder::new()
            .name("sqlnf-watch".into())
            .spawn(move || hub.run(rx))
            .expect("spawn watch hub");
        WatchHub {
            tx,
            next_id: AtomicU64::new(1),
            queue_cap,
        }
    }

    /// A sender for the WAL commit path.
    pub(crate) fn sender(&self) -> Sender<HubMsg> {
        self.tx.clone()
    }

    /// Register a subscriber; `filter` limits it to one table. The
    /// subscriber sees the default fact plane (no `wfd:` lines).
    pub fn subscribe(&self, filter: Option<String>) -> Subscription {
        self.subscribe_opts(filter, false)
    }

    /// [`subscribe`](Self::subscribe) with the weak plane opt-in:
    /// `weak` subscribers additionally receive `wfd:` fact events.
    pub fn subscribe_opts(&self, filter: Option<String>, weak: bool) -> Subscription {
        let shared = Arc::new(SubscriberShared {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            filter,
            weak,
            cap: self.queue_cap,
            queue: Mutex::new(VecDeque::new()),
            dropped: AtomicU64::new(0),
            reported: AtomicU64::new(0),
            closed: AtomicBool::new(false),
        });
        let _ = self.tx.send(HubMsg::Register(shared.clone()));
        Subscription {
            shared,
            tx: self.tx.clone(),
        }
    }

    /// Block until the hub has processed every message sent before this
    /// call. Deterministic fence for tests and the CI smoke: after a
    /// barrier, every durable epoch notified so far is reflected in
    /// subscriber queues.
    pub fn barrier(&self) {
        let (tx, rx) = mpsc::channel();
        if self.tx.send(HubMsg::Barrier(tx)).is_ok() {
            let _ = rx.recv();
        }
    }
}

/// A watched table's mining state.
struct Watched {
    miner: IncrementalMiner,
    /// The fact set last published (or silently baselined).
    facts: BTreeSet<String>,
    /// Whether the weak plane is mined: some weak subscriber watches.
    weak: bool,
}

struct Hub {
    /// The store's registry: where committed rows are read from.
    tables: Tables,
    cursor: u64,
    /// Reorder buffer: notices that arrived ahead of the cursor.
    pending: BTreeMap<u64, Notice>,
    /// Committed row count per table, as of the cursor.
    rows: BTreeMap<String, usize>,
    watched: BTreeMap<String, Watched>,
    subs: Vec<Arc<SubscriberShared>>,
    /// The owning store's measurements (`serve.watch.*`).
    metrics: Arc<StoreMetrics>,
}

/// Whether an open subscriber watches `table` (a weak one, if
/// `weak_only`).
fn subscribed(subs: &[Arc<SubscriberShared>], table: &str, weak_only: bool) -> bool {
    subs.iter()
        .any(|s| s.open() && s.watches(table) && (s.weak || !weak_only))
}

/// Reads committed `table` under its read lock. A committed table
/// is always in the registry, and its committed rows are always a
/// prefix of its rows there.
fn committed<T>(tables: &Tables, table: &str, read: impl FnOnce(&Table) -> T) -> T {
    let stored = tables
        .read()
        .expect("registry lock poisoned")
        .get(table)
        .cloned()
        .unwrap_or_else(|| panic!("watch hub: committed table {table} not in the store"));
    let st = stored.read().expect("table lock poisoned");
    read(st.data())
}

impl Hub {
    fn run(mut self, rx: Receiver<HubMsg>) {
        while let Ok(msg) = rx.recv() {
            match msg {
                HubMsg::Batch(notices) => {
                    for notice in notices {
                        self.pending.insert(notice.epoch, notice);
                    }
                    self.release();
                }
                HubMsg::Register(sub) => self.register(sub),
                HubMsg::Unregister(id) => self.unregister(id),
                HubMsg::Barrier(done) => {
                    let _ = done.send(());
                }
            }
        }
    }

    /// Apply every contiguously-durable epoch. A missing epoch stalls
    /// the stream: that is the watermark contract, not a bug.
    fn release(&mut self) {
        while let Some(notice) = self.pending.remove(&self.cursor) {
            self.cursor += 1;
            self.apply(notice);
        }
    }

    /// Applies one durable commit: advances the table's row count and,
    /// if the table is watched, feeds the commit's rows to its miner
    /// and publishes the fact diff.
    fn apply(&mut self, notice: Notice) {
        let Notice {
            epoch,
            table,
            change,
        } = notice;
        match change {
            Change::Created => {
                let fresh = self.rows.insert(table.clone(), 0).is_none();
                assert!(fresh, "watch hub: table {table} created twice");
                if subscribed(&self.subs, &table, false) {
                    // Baseline is "table absent" = no facts; the empty
                    // table's trivial facts stream as the creation event.
                    self.seed(&table);
                    self.publish(epoch, &table);
                }
            }
            Change::Rows(k) => {
                let n = self.rows.get_mut(&table).unwrap_or_else(|| {
                    panic!("watch hub: rows committed to unknown table {table}")
                });
                let range = *n..*n + k;
                *n += k;
                if let Some(w) = self.watched.get_mut(&table) {
                    for row in committed(&self.tables, &table, |t| t.rows()[range].to_vec()) {
                        w.miner.insert(row);
                    }
                    self.note_shadow_rows();
                    self.publish(epoch, &table);
                }
            }
        }
    }

    /// Starts mining `table`: a miner seeded with its committed rows
    /// and an empty baseline.
    fn seed(&mut self, table: &str) -> &mut Watched {
        let n = self.rows[table];
        let (schema, rows) = committed(&self.tables, table, |t| {
            (t.schema().clone(), t.rows()[..n].to_vec())
        });
        let watched = Watched {
            miner: IncrementalMiner::from_rows(schema, rows),
            facts: BTreeSet::new(),
            weak: subscribed(&self.subs, table, true),
        };
        self.watched.entry(table.to_string()).or_insert(watched)
    }

    fn note_shadow_rows(&self) {
        let held = self.watched.values().map(|w| w.miner.len()).sum::<usize>();
        self.metrics.watch_shadow_rows.raise_to(held as u64);
    }

    /// Re-mine `table` and stream the fact diff for `epoch`.
    fn publish(&mut self, epoch: u64, table: &str) {
        let w = self
            .watched
            .get_mut(table)
            .expect("watch hub: publishing an unwatched table");
        let now = miner_facts(&mut w.miner, w.weak);
        if now != w.facts {
            // Each line is tagged with whether it belongs to the
            // weak-opt-in plane; default subscribers skip those, so
            // their streams are byte-identical to a weak-unaware hub's.
            let gone = w.facts.difference(&now).map(|f| (false, f));
            let came = now.difference(&w.facts).map(|f| (true, f));
            let lines: Vec<(bool, String)> = gone
                .chain(came)
                .map(|(appeared, fact)| {
                    let line = WatchEvent {
                        epoch,
                        table: table.to_string(),
                        appeared,
                        fact: fact.clone(),
                    }
                    .line();
                    (is_weak_fact(fact), line)
                })
                .collect();
            self.metrics.watch_events.add(lines.len() as u64);
            for sub in &self.subs {
                if sub.open() && sub.watches(table) {
                    for (weak_fact, line) in &lines {
                        if *weak_fact && !sub.weak {
                            continue;
                        }
                        sub.push(line.clone(), &self.metrics.watch_dropped);
                    }
                }
            }
        }
        w.facts = now;
    }

    fn register(&mut self, sub: Arc<SubscriberShared>) {
        // Baseline silently: the subscriber starts from the fact set at
        // the current cursor and only sees diffs for later epochs.
        self.subs.push(Arc::clone(&sub));
        let names: Vec<String> = self
            .rows
            .keys()
            .filter(|name| sub.watches(name))
            .cloned()
            .collect();
        for name in names {
            match self.watched.get_mut(&name) {
                // Already mined for default subscribers: a weak one
                // needs the weak plane's baseline on top.
                Some(w) if sub.weak && !w.weak => {
                    w.weak = true;
                    w.facts = miner_facts(&mut w.miner, true);
                }
                Some(_) => {}
                None => {
                    let w = self.seed(&name);
                    w.facts = miner_facts(&mut w.miner, w.weak);
                    self.note_shadow_rows();
                }
            }
        }
    }

    fn unregister(&mut self, id: u64) {
        self.subs.retain(|s| s.id != id && s.open());
        // Stop mining tables nobody watches any more, and the weak
        // plane of tables no weak subscriber watches.
        let subs = &self.subs;
        self.watched.retain(|name, w| {
            if w.weak && !subscribed(subs, name, true) {
                w.weak = false;
                w.facts.retain(|f| !is_weak_fact(f));
            }
            subscribed(subs, name, false)
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::Store;
    use std::sync::RwLock;

    /// A hub over a registry the test fills itself, standing in for the
    /// store: `create` and `insert` change the registry and return the
    /// notice the commit plane would send for that statement.
    struct Rig {
        tables: Tables,
        hub: WatchHub,
    }

    impl Rig {
        fn new() -> Rig {
            Rig::with(DEFAULT_WATCH_QUEUE, Arc::default())
        }

        fn with(queue_cap: usize, metrics: Arc<StoreMetrics>) -> Rig {
            let tables = Tables::default();
            let hub = WatchHub::spawn(Arc::clone(&tables), 1, queue_cap, metrics);
            Rig { tables, hub }
        }

        fn create(&self, epoch: u64, name: &str, cols: &[&str]) -> Notice {
            let schema = TableSchema::new(name, cols.iter().copied(), &[]);
            let table = StoredTable::new(schema, Sigma::new());
            self.tables
                .write()
                .unwrap()
                .insert(name.to_string(), Arc::new(RwLock::new(table)));
            Notice {
                epoch,
                table: name.to_string(),
                change: Change::Created,
            }
        }

        fn insert(&self, epoch: u64, name: &str, rows: Vec<Tuple>) -> Notice {
            let stored = Arc::clone(&self.tables.read().unwrap()[name]);
            let k = rows.len();
            for row in rows {
                stored.write().unwrap().insert(row).unwrap();
            }
            Notice {
                epoch,
                table: name.to_string(),
                change: Change::Rows(k),
            }
        }

        /// Appends to `expected` the events moving `before` to the
        /// registry's current facts of `table`, at `epoch`.
        fn expect_diff(
            &self,
            epoch: u64,
            table: &str,
            weak: bool,
            before: &mut BTreeSet<String>,
            expected: &mut Vec<String>,
        ) {
            let stored = Arc::clone(&self.tables.read().unwrap()[table]);
            let now = table_facts_with(stored.read().unwrap().data(), WATCH_MAX_LHS, weak);
            push_diff(epoch, table, before, now, expected);
        }

        fn send(&self, notices: Vec<Notice>) {
            self.hub.sender().send(HubMsg::Batch(notices)).unwrap();
        }
    }

    /// Appends the event lines turning `before` into `now` at `epoch`,
    /// then makes `now` the new `before`.
    fn push_diff(
        epoch: u64,
        table: &str,
        before: &mut BTreeSet<String>,
        now: BTreeSet<String>,
        expected: &mut Vec<String>,
    ) {
        expected.extend(
            before
                .difference(&now)
                .map(|f| format!("EVENT {epoch} {table} -{f}")),
        );
        expected.extend(
            now.difference(before)
                .map(|f| format!("EVENT {epoch} {table} +{f}")),
        );
        *before = now;
    }

    /// Runs `stmts` on `store` (epochs `first..`), appending the events
    /// a subscriber of `table` on the given plane must see.
    fn run_expecting(
        store: &Store,
        first: u64,
        stmts: &[&str],
        weak: bool,
        before: &mut BTreeSet<String>,
        expected: &mut Vec<String>,
    ) {
        for (i, sql) in stmts.iter().enumerate() {
            store.execute_sql(sql).unwrap();
            let now = store_facts(store, weak);
            push_diff(first + i as u64, "t", before, now, expected);
        }
    }

    fn store_facts(store: &Store, weak: bool) -> BTreeSet<String> {
        store
            .with_table("t", |st| table_facts_with(st.data(), WATCH_MAX_LHS, weak))
            .unwrap()
    }

    #[test]
    fn event_line_round_trips() {
        let ev = WatchEvent {
            epoch: 42,
            table: "t".into(),
            appeared: true,
            fact: "pfd:a,b->c".into(),
        };
        assert_eq!(ev.line(), "EVENT 42 t +pfd:a,b->c");
        assert_eq!(WatchEvent::parse(&ev.line()), Some(ev.clone()));
        let gone = WatchEvent {
            appeared: false,
            ..ev
        };
        assert_eq!(WatchEvent::parse(&gone.line()), Some(gone));
        assert_eq!(WatchEvent::parse("OK 0 fine"), None);
    }

    #[test]
    fn contiguous_release_streams_fact_diffs_in_epoch_order() {
        let rig = Rig::new();
        let sub = rig.hub.subscribe(None);
        // The registry already holds all three statements; their
        // notices arrive out of order: epochs 2 and 3 before 1.
        let create = rig.create(1, "t", &["a", "b"]);
        let first = rig.insert(2, "t", vec![tuple![1i64, 1i64]]);
        let second = rig.insert(3, "t", vec![tuple![1i64, 2i64]]);
        rig.send(vec![first, second]);
        rig.hub.barrier();
        assert!(sub.drain().is_empty(), "nothing released before epoch 1");
        rig.send(vec![create]);
        rig.hub.barrier();
        let lines = sub.drain();
        let events: Vec<WatchEvent> = lines
            .iter()
            .map(|l| WatchEvent::parse(l).expect("event line"))
            .collect();
        assert!(!events.is_empty());
        // Epochs appear in commit order.
        let epochs: Vec<u64> = events.iter().map(|e| e.epoch).collect();
        let mut sorted = epochs.clone();
        sorted.sort_unstable();
        assert_eq!(epochs, sorted);
        assert_eq!(epochs.first(), Some(&1));
        assert_eq!(epochs.last(), Some(&3));
        // Epoch 3 inserts (1,2) next to (1,1): b was constant (the
        // minimal FD ∅ → b), and stops being determined at all.
        assert!(events
            .iter()
            .any(|e| e.epoch == 3 && !e.appeared && e.fact == "pfd:->b"));
    }

    #[test]
    fn streamed_facts_match_from_scratch_prefixes() {
        let rows = [
            tuple![1i64, 1i64, 1i64],
            tuple![1i64, 2i64, 1i64],
            tuple![2i64, 2i64, null],
            tuple![2i64, 2i64, 2i64],
        ];
        let rig = Rig::new();
        let sub = rig.hub.subscribe(Some("t".into()));
        // Fill the registry statement by statement, mining each prefix
        // from scratch; the hub must read exactly each epoch's rows.
        let (mut expected, mut before) = (Vec::new(), BTreeSet::new());
        let mut notices = vec![rig.create(1, "t", &["a", "b", "c"])];
        rig.expect_diff(1, "t", false, &mut before, &mut expected);
        for (i, row) in rows.into_iter().enumerate() {
            let epoch = i as u64 + 2;
            notices.push(rig.insert(epoch, "t", vec![row]));
            rig.expect_diff(epoch, "t", false, &mut before, &mut expected);
        }
        rig.send(notices);
        rig.hub.barrier();
        assert_eq!(sub.drain(), expected);
    }

    #[test]
    fn weak_subscriber_streams_match_weak_from_scratch_prefixes() {
        let rows = [
            tuple![1i64, 1i64, 1i64],
            tuple![1i64, null, 1i64],
            tuple![1i64, 2i64, null],
            tuple![2i64, 2i64, 2i64],
        ];
        let rig = Rig::new();
        let weak_sub = rig.hub.subscribe_opts(Some("t".into()), true);
        let plain_sub = rig.hub.subscribe(Some("t".into()));
        // Mine the prefixes from scratch, once per plane, and diff.
        let (mut expect_weak, mut expect_plain) = (Vec::new(), Vec::new());
        let (mut before_weak, mut before_plain) = (BTreeSet::new(), BTreeSet::new());
        let mut notices = vec![rig.create(1, "t", &["a", "b", "c"])];
        rig.expect_diff(1, "t", true, &mut before_weak, &mut expect_weak);
        rig.expect_diff(1, "t", false, &mut before_plain, &mut expect_plain);
        for (i, row) in rows.into_iter().enumerate() {
            let epoch = i as u64 + 2;
            notices.push(rig.insert(epoch, "t", vec![row]));
            rig.expect_diff(epoch, "t", true, &mut before_weak, &mut expect_weak);
            rig.expect_diff(epoch, "t", false, &mut before_plain, &mut expect_plain);
        }
        rig.send(notices);
        rig.hub.barrier();
        let weak_lines = weak_sub.drain();
        assert!(
            weak_lines.iter().any(|l| l.contains("+wfd:")),
            "weak plane emitted nothing: {weak_lines:?}"
        );
        assert_eq!(weak_lines, expect_weak);
        // The default subscriber's stream is byte-identical to a
        // weak-unaware hub's: no wfd lines, same ordering.
        let plain_lines = plain_sub.drain();
        assert!(plain_lines.iter().all(|l| !l.contains("wfd:")));
        assert_eq!(plain_lines, expect_plain);
    }

    #[test]
    fn bounded_queue_lags_and_reports_once() {
        let metrics = Arc::new(StoreMetrics::default());
        let rig = Rig::with(4, Arc::clone(&metrics));
        let sub = rig.hub.subscribe(None);
        let mut notices = vec![rig.create(1, "t", &["a", "b"])];
        for i in 0..20i64 {
            let row = Tuple::new(vec![Value::Int(i % 3), Value::Int(i)]);
            notices.push(rig.insert(i as u64 + 2, "t", vec![row]));
        }
        rig.send(notices);
        rig.hub.barrier();
        let lines = sub.drain();
        assert_eq!(lines.len(), 5, "4 queued events + LAGGED: {lines:?}");
        let last = lines.last().unwrap();
        assert!(last.starts_with("LAGGED "), "{last}");
        let n: u64 = last["LAGGED ".len()..].parse().unwrap();
        assert_eq!(n, sub.lagged());
        assert!(n > 0);
        // The hub's store counters see the same stream: exactly the
        // lines this queue dropped, among every line published.
        assert_eq!(metrics.watch_dropped.get(), n);
        assert!(metrics.watch_events.get() >= 4 + n);
        // Drained and reported: a second drain is empty, no LAGGED spam.
        assert!(sub.drain().is_empty());
    }

    #[test]
    fn filtered_subscriber_only_sees_its_table() {
        let rig = Rig::new();
        let sub = rig.hub.subscribe(Some("u".into()));
        rig.send(vec![
            rig.create(1, "t", &["a", "b"]),
            rig.create(2, "u", &["x", "y"]),
            rig.insert(3, "t", vec![tuple![1i64, 1i64]]),
            rig.insert(4, "u", vec![tuple![7i64, 7i64]]),
        ]);
        rig.hub.barrier();
        let events: Vec<WatchEvent> = sub
            .drain()
            .iter()
            .map(|l| WatchEvent::parse(l).unwrap())
            .collect();
        assert!(!events.is_empty());
        assert!(events.iter().all(|e| e.table == "u"));
    }

    #[test]
    fn drop_unregisters_and_disables_mining() {
        let rig = Rig::new();
        let sub = rig.hub.subscribe(None);
        rig.send(vec![rig.create(1, "t", &["a", "b"])]);
        rig.hub.barrier();
        assert!(!sub.drain().is_empty());
        drop(sub);
        let sub2 = rig.hub.subscribe(Some("other".into()));
        rig.send(vec![rig.insert(2, "t", vec![tuple![1i64, 1i64]])]);
        rig.hub.barrier();
        assert!(sub2.drain().is_empty());
    }

    #[test]
    fn late_subscriber_streams_prefix_diffs_from_its_registration() {
        let store = Store::ephemeral();
        for sql in [
            "CREATE TABLE t (a INT, b INT, c INT);",
            "INSERT INTO t VALUES (1, 1, 1);",
            "INSERT INTO t VALUES (1, 2, 1);",
        ] {
            store.execute_sql(sql).unwrap();
        }
        // Registered at epoch 3: the rows already there are the
        // baseline, read from the store.
        let sub = store.watch(Some("t".into()));
        let (mut expected, mut before) = (Vec::new(), store_facts(&store, false));
        let later = [
            "INSERT INTO t VALUES (2, 2, NULL);",
            "INSERT INTO t VALUES (2, 2, 2);",
            "INSERT INTO t VALUES (3, NULL, 2), (4, 1, 1);",
        ];
        run_expecting(&store, 4, &later, false, &mut before, &mut expected);
        store.watch_barrier();
        assert!(!expected.is_empty());
        assert_eq!(sub.drain(), expected);
    }

    #[test]
    fn reopened_store_baselines_the_recovered_table() {
        let dir = std::env::temp_dir().join(format!("sqlnf_watch_reopen_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let store = Store::open(&dir, 0).unwrap();
            store.execute_sql("CREATE TABLE t (a INT, b INT);").unwrap();
            store.execute_sql("INSERT INTO t VALUES (1, 1);").unwrap();
            // Half the history in the snapshot, half in the WAL.
            store.snapshot().unwrap();
            store.execute_sql("INSERT INTO t VALUES (2, 1);").unwrap();
        }
        let store = Store::open(&dir, 0).unwrap();
        let sub = store.watch(None);
        store.watch_barrier();
        assert!(sub.drain().is_empty(), "recovered history is the baseline");
        let (mut expected, mut before) = (Vec::new(), store_facts(&store, false));
        let next = ["INSERT INTO t VALUES (1, 2);"];
        run_expecting(&store, 4, &next, false, &mut before, &mut expected);
        store.watch_barrier();
        assert!(
            expected.contains(&"EVENT 4 t -pfd:->b".to_string()),
            "{expected:?}"
        );
        assert_eq!(sub.drain(), expected);
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn weak_subscriber_joining_a_watched_table_gets_a_silent_weak_baseline() {
        let store = Store::ephemeral();
        store
            .execute_sql("CREATE TABLE t (a INT, b INT, c INT);")
            .unwrap();
        let plain = store.watch(Some("t".into()));
        let (mut expect_plain, mut plain_before) = (Vec::new(), store_facts(&store, false));
        let early = [
            "INSERT INTO t VALUES (1, 1, 1);",
            "INSERT INTO t VALUES (1, NULL, 1);",
        ];
        run_expecting(
            &store,
            2,
            &early,
            false,
            &mut plain_before,
            &mut expect_plain,
        );

        // Joins at epoch 3, next to the default subscriber: its
        // baseline includes the weak plane, and nothing is emitted.
        let weak = store.watch_opts(Some("t".into()), true);
        let (mut expect_weak, mut weak_before) = (Vec::new(), store_facts(&store, true));
        let later = [
            "INSERT INTO t VALUES (1, 2, NULL);",
            "INSERT INTO t VALUES (2, 2, 2);",
            "INSERT INTO t VALUES (2, NULL, 3);",
        ];
        for (i, sql) in later.iter().enumerate() {
            let epoch = 4 + i as u64;
            store.execute_sql(sql).unwrap();
            push_diff(
                epoch,
                "t",
                &mut weak_before,
                store_facts(&store, true),
                &mut expect_weak,
            );
            push_diff(
                epoch,
                "t",
                &mut plain_before,
                store_facts(&store, false),
                &mut expect_plain,
            );
        }
        store.watch_barrier();
        let weak_lines = weak.drain();
        assert!(
            weak_lines.iter().any(|l| l.contains("wfd:")),
            "weak plane emitted nothing: {weak_lines:?}"
        );
        assert_eq!(weak_lines, expect_weak);

        // The last weak subscriber leaves: the weak plane is dropped,
        // and a later weak subscriber re-baselines it from scratch.
        drop(weak);
        let tail = ["INSERT INTO t VALUES (3, 3, NULL);"];
        run_expecting(
            &store,
            7,
            &tail,
            false,
            &mut plain_before,
            &mut expect_plain,
        );
        let rejoined = store.watch_opts(Some("t".into()), true);
        let (mut expect_rejoined, mut rejoined_before) = (Vec::new(), store_facts(&store, true));
        store
            .execute_sql("INSERT INTO t VALUES (3, 4, 4);")
            .unwrap();
        let (weak_now, plain_now) = (store_facts(&store, true), store_facts(&store, false));
        push_diff(8, "t", &mut rejoined_before, weak_now, &mut expect_rejoined);
        push_diff(8, "t", &mut plain_before, plain_now, &mut expect_plain);
        store.watch_barrier();
        assert_eq!(rejoined.drain(), expect_rejoined);
        // No weak fact ever reaches the default subscriber.
        assert_eq!(plain.drain(), expect_plain);
    }

    #[test]
    fn shadow_rows_count_only_watched_tables() {
        let store = Store::ephemeral();
        store.execute_sql("CREATE TABLE t (a INT, b INT);").unwrap();
        for i in 0..1000 {
            store
                .execute_sql(&format!("INSERT INTO t VALUES ({i}, {});", i % 7))
                .unwrap();
        }
        store.watch_barrier();
        let shadow_rows = || store.metrics().report().counter("serve.watch.shadow_rows");
        assert_eq!(shadow_rows(), Some(0), "an unwatched table holds no rows");
        let _sub = store.watch(Some("t".into()));
        store.watch_barrier();
        assert_eq!(shadow_rows(), Some(1000));
        assert!(store
            .stats_lines()
            .contains(&"watch.shadow_rows 1000".to_string()));
    }
}
