//! Incremental FD/key discovery over a growing instance.
//!
//! The from-scratch miner ([`crate::mine`]) re-walks the whole candidate
//! lattice per call. Under the serve tier's write traffic that is pure
//! waste: served tables only grow, and an appended row can only *break*
//! FDs/keys that held (it adds pairs) — the verdicts of untouched
//! candidates are still good. This module maintains exactly that: a
//! verdict cache over the explored candidate frontier, so a `MINE`
//! after `k` admissions costs `O(k · touched candidates)` row work
//! instead of a full lattice re-run.
//!
//! ## State
//!
//! The instance is one [`Table`] — its dictionary-coded columns, the
//! only copy of its rows, grown by `push`. A row is named by its index,
//! which no later insert changes. Every mine call borrows the table's
//! columns as a transient `O(arity)` [`Encoded`] snapshot; per-column
//! posting lists (code → ascending rows) are built by the first mine
//! and extended in place per insert.
//!
//! ## Verdicts under appends
//!
//! * **Holding** `X → A` is stamped with the row count it was checked
//!   at, and is still valid iff no row was appended since. Otherwise
//!   only the pairs with a row of `stamp..len` are new, so only those
//!   are checked.
//! * **Refuted** `X → A` is final: a single violating pair refutes
//!   regardless of every other row, and appends neither change nor
//!   remove a row. No witness is kept.
//!
//! ## One walk, one split
//!
//! A report drives the from-scratch pass's own lattice walk
//! ([`crate::mine`]) once: each candidate's open possible targets,
//! certain targets and key flags are settled from the verdict caches,
//! and only the cache misses are checked. The nn/p/c/t/λ split is the
//! from-scratch one too ([`crate::classify`]), fed the cached totality
//! verdicts and the same LHS-counted projection ratios. So the output
//! is byte-identical to [`mine_report`] by construction, not by
//! accident; the `incremental_matches_scratch` differential property
//! pins this across all four semantics, random insert traces, and
//! thread counts.
//!
//! ## Reconcile policy
//!
//! [`IncrementalMiner::with_reconcile_every`] arms a threshold: once
//! that many deltas accumulate, the next report *also* runs the full
//! from-scratch pipeline and asserts equivalence (panicking on any
//! divergence), then resets the counter. `discovery.incr.reconciles`
//! counts these audits.
//!
//! [`mine_report`]: crate::classify::mine_report

use crate::check::{
    certain_reflexive_holds_cached, fd_targets_holding, is_pkey, null_semantics, with_rule,
    ClassSweep, ProbeCache, Semantics,
};
use crate::classify::{projection_ratio, render_report, split, Classification};
use crate::mine::{Lattice, MinedFd, MinedKeys, Store, Walk};
use crate::partition::{Encoded, NullSemantics, ProductScratch};
use sqlnf_model::attrs::{Attr, AttrSet};
use sqlnf_model::schema::TableSchema;
use sqlnf_model::table::Table;
use sqlnf_model::tuple::Tuple;
use std::collections::HashMap;
use std::ops::Range;

/// A cached yes/no verdict about one candidate attribute set.
#[derive(Debug, Clone, Copy)]
enum Verdict {
    /// Holds on the first `n` rows.
    Holds(usize),
    /// Refuted; no append un-refutes it.
    Fails,
}

impl Verdict {
    /// The verdict of a check over the first `rows` rows.
    fn of(holds: bool, rows: usize) -> Verdict {
        if holds {
            Verdict::Holds(rows)
        } else {
            Verdict::Fails
        }
    }
}

/// Per-candidate FD verdicts, one entry per target attribute.
#[derive(Debug, Default)]
struct FdVerdict {
    /// Targets known to hold, with the row count they were checked at.
    holding: Vec<(Attr, usize)>,
    /// Targets known refuted.
    refuted: AttrSet,
}

/// Per-candidate key verdicts.
#[derive(Debug, Default)]
struct KeyVerdict {
    /// Possible-key status (strong-similarity uniqueness).
    p: Option<Verdict>,
    /// Certain-key status (weak-similarity uniqueness).
    c: Option<Verdict>,
}

/// Every verdict memo of one maintained instance.
#[derive(Debug, Default)]
struct Caches {
    /// FD verdicts per semantics, indexed by `Semantics as usize`.
    fd: [HashMap<AttrSet, FdVerdict>; 4],
    key: HashMap<AttrSet, KeyVerdict>,
    /// `X →_w X` (totality) verdicts, for the t-FD classification.
    refl: HashMap<AttrSet, Verdict>,
}

/// Per column: code → ascending rows carrying it (code 0 = the
/// column's ⊥ rows).
type Postings = Vec<Vec<Vec<usize>>>;

fn postings_of(enc: &Encoded, arity: usize) -> Postings {
    (0..arity)
        .map(Attr::from)
        .map(|a| {
            let mut lists = vec![Vec::new(); enc.dict_size(a) as usize + 1];
            for (row, &code) in enc.column(a).iter().enumerate() {
                lists[code as usize].push(row);
            }
            lists
        })
        .collect()
}

/// Incrementally-maintained discovery state for one growing table.
///
/// Feed it the rows the table admits ([`insert`]); ask for mined FDs,
/// keys or the full `MINE` report at any point. Reports are
/// byte-identical to [`mine_report`] over the current rows.
///
/// [`insert`]: IncrementalMiner::insert
/// [`mine_report`]: crate::classify::mine_report
pub struct IncrementalMiner {
    /// The rows and their dictionary codes.
    table: Table,
    /// Rows inserted since construction.
    deltas: u64,
    caches: Caches,
    /// Posting lists over the table rows, built by the first mine and
    /// extended by every insert after it. The delta re-validation
    /// sweeps scan only the sparsest matching list instead of the
    /// whole instance.
    postings: Option<Postings>,
    deltas_since_reconcile: u64,
    reconcile_every: Option<u64>,
}

impl IncrementalMiner {
    /// An empty maintained instance over `schema`.
    pub fn new(schema: TableSchema) -> IncrementalMiner {
        IncrementalMiner::seeded(Table::new(schema))
    }

    /// Seeds the maintained instance from an existing table, its rows
    /// in table order.
    pub fn from_table(table: &Table) -> IncrementalMiner {
        IncrementalMiner::seeded(table.clone())
    }

    /// [`from_table`](Self::from_table) over rows not yet in a table.
    pub fn from_rows(schema: TableSchema, rows: impl IntoIterator<Item = Tuple>) -> Self {
        IncrementalMiner::seeded(Table::from_rows(schema, rows))
    }

    fn seeded(table: Table) -> IncrementalMiner {
        IncrementalMiner {
            table,
            deltas: 0,
            caches: Caches::default(),
            postings: None,
            deltas_since_reconcile: 0,
            reconcile_every: None,
        }
    }

    /// Arms the reconcile threshold: after `every` deltas the next
    /// report also runs the full pipeline and asserts equivalence.
    pub fn with_reconcile_every(mut self, every: u64) -> IncrementalMiner {
        self.reconcile_every = Some(every);
        self
    }

    /// The schema of the maintained instance.
    pub fn schema(&self) -> &TableSchema {
        self.table.schema()
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// Whether there are no rows.
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    /// Deltas applied since construction.
    pub fn deltas_applied(&self) -> u64 {
        self.deltas
    }

    /// A copy of the rows, in insertion order. This is what every
    /// report mines.
    pub fn table(&self) -> Table {
        self.table.clone()
    }

    /// Appends a row, returning its index.
    pub fn insert(&mut self, tuple: Tuple) -> usize {
        let _apply = sqlnf_obs::span!("discovery.incr.apply");
        sqlnf_obs::count!("discovery.incr.deltas");
        self.deltas += 1;
        self.deltas_since_reconcile += 1;
        self.table.push(tuple);
        let row = self.table.len() - 1;
        if let Some(postings) = self.postings.as_mut() {
            for (ci, lists) in postings.iter_mut().enumerate() {
                let code = self.table.code_at(row, Attr::from(ci)) as usize;
                if code >= lists.len() {
                    lists.resize_with(code + 1, Vec::new);
                }
                lists[code].push(row);
            }
        }
        row
    }

    /// Runs one replay over a transient snapshot of the table: builds
    /// the postings on the first call, hands `run` the per-call state,
    /// the verdict caches and the rows, and charges the candidates it
    /// touched. The snapshot is dropped before returning, so the next
    /// insert finds the table's columns unshared and extends them in
    /// place.
    fn with_pass<T>(
        &mut self,
        nulls: NullSemantics,
        cache_budget: usize,
        run: impl FnOnce(&mut Pass<'_>, &mut Caches) -> T,
    ) -> T {
        let enc = Encoded::new(&self.table);
        let arity = self.table.schema().arity();
        let postings = self
            .postings
            .get_or_insert_with(|| postings_of(&enc, arity));
        let mut pass = Pass {
            enc: &enc,
            store: Store::new(arity, nulls, cache_budget),
            scratch: ProductScratch::for_encoded(&enc),
            probes: ProbeCache::new(&enc),
            postings,
            touched: 0,
        };
        let out = run(&mut pass, &mut self.caches);
        sqlnf_obs::count!("discovery.incr.candidates_touched", pass.touched);
        let frontier: usize = self.caches.fd.iter().map(HashMap::len).sum::<usize>()
            + self.caches.key.len()
            + self.caches.refl.len();
        sqlnf_obs::count_max!("discovery.incr.frontier_size", frontier);
        out
    }

    /// Mines the minimal FDs under `sem`, replaying the lattice against
    /// the verdict cache. Byte-identical (content and order) to
    /// `mine_fds` over [`IncrementalMiner::table`].
    pub fn mine_fds(
        &mut self,
        sem: Semantics,
        max_lhs: usize,
        cache_budget: usize,
    ) -> Vec<MinedFd> {
        let walk = Walk::new(self.schema().arity(), max_lhs, sem, false);
        self.with_pass(null_semantics(sem), cache_budget, |pass, caches| {
            pass.replay(caches, walk).into_fds(sem)
        })
    }

    /// Mines the minimal p-/c-keys; identical to `mine_keys_budgeted`
    /// over [`IncrementalMiner::table`].
    pub fn mine_keys(&mut self, max_size: usize, cache_budget: usize) -> MinedKeys {
        let walk = Walk::new(self.schema().arity(), max_size, Semantics::Possible, true);
        self.with_pass(NullSemantics::Strong, cache_budget, |pass, caches| {
            pass.replay(caches, walk.keys_only()).keys
        })
    }

    /// The report's lattice over the rows — minimal possible and
    /// certain FDs and keys — identical to `report_lattice` over
    /// [`IncrementalMiner::table`].
    pub fn lattice(&mut self, max_lhs: usize, cache_budget: usize) -> Lattice {
        let walk = Walk::new(self.schema().arity(), max_lhs, Semantics::Possible, true);
        self.with_pass(NullSemantics::Strong, cache_budget, |pass, caches| {
            pass.replay(caches, walk)
        })
    }

    /// The classification + keys backing one `MINE` report: the
    /// report's lattice, split as `report_parts` splits it, with the
    /// cached totality verdicts. Projection ratios are counted afresh:
    /// each is one counting sort over the FD's LHS.
    pub fn classify(&mut self, max_lhs: usize, cache_budget: usize) -> (Classification, MinedKeys) {
        let walk = Walk::new(self.schema().arity(), max_lhs, Semantics::Possible, true);
        self.with_pass(NullSemantics::Strong, cache_budget, |pass, caches| {
            let lattice = pass.replay(caches, walk);
            let enc = pass.enc;
            split(
                lattice,
                enc.null_free_columns(),
                |x| pass.reflexive(&mut caches.refl, x),
                |lhs| projection_ratio(enc, lhs),
            )
        })
    }

    /// The `MINE` report over the rows, byte-identical to
    /// [`mine_report`](crate::classify::mine_report) over
    /// [`IncrementalMiner::table`]. When the reconcile threshold is
    /// armed and tripped, also runs the full from-scratch pipeline and
    /// asserts equivalence.
    pub fn report(&mut self, name: &str, max_lhs: usize, cache_budget: usize) -> String {
        let due = self
            .reconcile_every
            .is_some_and(|n| self.deltas_since_reconcile >= n);
        if due {
            return self.reconcile(name, max_lhs, cache_budget);
        }
        let (cls, keys) = self.classify(max_lhs, cache_budget);
        render_report(name, self.len(), self.schema(), max_lhs, &cls, &keys)
    }

    /// Full-pipeline audit: runs both the incremental replay and the
    /// from-scratch mine, asserts they render the same report, resets
    /// the reconcile counter, and returns the report. Panics on any
    /// divergence — an incremental-state bug must never ship a wrong
    /// answer silently.
    pub fn reconcile(&mut self, name: &str, max_lhs: usize, cache_budget: usize) -> String {
        sqlnf_obs::count!("discovery.incr.reconciles");
        let (cls, keys) = self.classify(max_lhs, cache_budget);
        let incr = render_report(name, self.len(), self.schema(), max_lhs, &cls, &keys);
        let full = crate::classify::mine_report(name, &self.table, max_lhs, cache_budget);
        assert_eq!(
            incr, full,
            "incremental reconcile mismatch on {name} after {} deltas",
            self.deltas
        );
        self.deltas_since_reconcile = 0;
        incr
    }
}

/// The state of one replay: the snapshot and every structure the
/// verdict checks consult, plus the running per-call counters. Its
/// row count is the stamp fresh verdicts carry.
struct Pass<'a> {
    enc: &'a Encoded,
    /// The replay's partitions, built on demand and retired level by
    /// level.
    store: Store,
    scratch: ProductScratch,
    probes: ProbeCache,
    postings: &'a Postings,
    /// Candidates that needed row work (`discovery.incr.candidates_touched`).
    touched: usize,
}

impl Pass<'_> {
    /// The rows of column `a` carrying `code`.
    fn posting(&self, a: Attr, code: u32) -> &[usize] {
        self.postings[a.index()]
            .get(code as usize)
            .map_or(&[], Vec::as_slice)
    }

    /// Groups the `delta` rows by their code vector on `x` (⊥ is code
    /// 0), in key order: equal projections have identical partner
    /// sets, so they share one probe. Under `Possible` and `Weak`,
    /// x-incomplete rows are dropped — ⊥ is strongly similar to
    /// nothing, and the weak completion isolates such rows with fresh
    /// values.
    fn delta_groups(
        &self,
        delta: Range<usize>,
        x: AttrSet,
        sem: Semantics,
    ) -> Vec<(Vec<u32>, Vec<usize>)> {
        let key = |r: usize| x.iter().map(move |a| self.enc.code(r, a));
        let mut rows: Vec<usize> = delta
            .filter(|&r| {
                !matches!(sem, Semantics::Possible | Semantics::Weak) || self.enc.is_total_on(r, x)
            })
            .collect();
        // Stable: each group keeps its rows ascending.
        rows.sort_by(|&r, &s| key(r).cmp(key(s)));
        let mut groups: Vec<(Vec<u32>, Vec<usize>)> = Vec::new();
        for r in rows {
            match groups.last_mut() {
                Some((kv, group)) if key(r).eq(kv.iter().copied()) => group.push(r),
                _ => groups.push((key(r).collect(), vec![r])),
            }
        }
        groups
    }
    /// Visits every row `sem`-similar on `x` to the projection `kv`
    /// (carried by delta row `r0`), charging each visit to `scanned`.
    /// Stops — returning `false` — when `f` does. The visited rows
    /// include `r0` itself and any other delta row with a similar
    /// projection; callers decide whether self-pairs matter.
    ///
    /// Partners come from the posting lists, so work is proportional
    /// to the classes the projection actually lands in — not to the
    /// instance. This is what makes a re-mine after a small delta
    /// cheap in *wall clock*, not just in rows scanned.
    fn for_each_partner(
        &self,
        x: AttrSet,
        kv: &[u32],
        r0: usize,
        sem: Semantics,
        scanned: &mut usize,
        mut f: impl FnMut(usize) -> bool,
    ) -> bool {
        let enc = self.enc;
        if sem != Semantics::Certain {
            // Similarity is plain code equality on `x`: scan the
            // sparsest matching posting list, verifying the other
            // columns directly. A classical ⊥ is the ordinary code 0,
            // so a zero entry correctly demands fellow nulls; a
            // possible or weak projection is x-total (incomplete delta
            // rows were dropped), so any row matching its all-nonzero
            // codes is too.
            let list = x
                .iter()
                .zip(kv)
                .map(|(a, &c)| self.posting(a, c))
                .min_by_key(|l| l.len())
                .unwrap_or(&[]);
            for &s in list {
                *scanned += 1;
                if x.iter().zip(kv).all(|(a, &c)| enc.code(s, a) == c) && !f(s) {
                    return false;
                }
            }
            return true;
        }
        // Weak similarity: agreement wherever both rows are non-null on
        // `x`. On a column where `kv` is non-null a partner either
        // shares the code or is ⊥ there — so the cheapest match∪null
        // posting pair bounds the scan and the remaining columns are
        // verified pairwise. A projection that is ⊥ on all of `x` is
        // weakly similar to everything and must scan the whole
        // instance (bounded by such rows in the delta).
        let cheapest = x
            .iter()
            .zip(kv)
            .filter(|&(_, &c)| c != 0)
            .map(|(a, &c)| [self.posting(a, c), self.posting(a, 0)])
            .min_by_key(|[m, n]| m.len() + n.len());
        let Some(lists) = cheapest else {
            for s in 0..enc.rows() {
                *scanned += 1;
                if !f(s) {
                    return false;
                }
            }
            return true;
        };
        for &s in lists.into_iter().flatten() {
            *scanned += 1;
            if enc.weakly_similar(r0, s, x) && !f(s) {
                return false;
            }
        }
        true
    }

    /// Visits every `sem`-similar pair `(r, s)` with `r` drawn from
    /// `delta` — exactly the pairs that a verdict stamped before the
    /// delta rows has never seen. Calls `f` for each; stops early — and
    /// returns `false` — when `f` returns `false`. A pair with both
    /// rows in `delta` may be visited in both orientations; callers
    /// hunt for a single violation, so the duplicate is harmless. Rows
    /// visited are charged to `discovery.partition.rows_scanned` like
    /// every other check path.
    fn for_each_delta_pair(
        &self,
        delta: Range<usize>,
        x: AttrSet,
        sem: Semantics,
        mut f: impl FnMut(usize, usize) -> bool,
    ) -> bool {
        if delta.is_empty() {
            return true;
        }
        if x.is_empty() {
            // Similarity on ∅ is vacuous: every pair qualifies. Only
            // the empty key candidate lands here, and it dies to the
            // first pair, so the scan is O(1) in practice.
            let mut scanned = 0usize;
            let mut complete = true;
            'empty: for r in delta {
                for s in 0..self.enc.rows() {
                    scanned += 1;
                    if r != s && !f(r, s) {
                        complete = false;
                        break 'empty;
                    }
                }
            }
            sqlnf_obs::count!("discovery.partition.rows_scanned", scanned);
            return complete;
        }
        let mut scanned = delta.len();
        let mut complete = true;
        for (kv, group) in self.delta_groups(delta, x, sem) {
            let done = self.for_each_partner(x, &kv, group[0], sem, &mut scanned, |s| {
                group.iter().all(|&r| r == s || f(r, s))
            });
            if !done {
                complete = false;
                break;
            }
        }
        sqlnf_obs::count!("discovery.partition.rows_scanned", scanned);
        complete
    }

    /// Re-validates previously-holding targets of `X → ·` against only
    /// the pairs with a `delta` row, and returns the surviving targets.
    /// Sound because the verdicts covered every pair of the rows before
    /// `delta`, and appends change none of them.
    ///
    /// The delta rows' classes go through the class kernel. On `∅`
    /// every pair is similar, so the whole instance is one class. Else
    /// each delta group, then the rows similar to it, form one class:
    /// the group's rows share their `X`-codes, so a row similar to one
    /// of them is similar to all.
    fn delta_targets_surviving(
        &self,
        delta: Range<usize>,
        x: AttrSet,
        targets: AttrSet,
        sem: Semantics,
    ) -> AttrSet {
        if delta.is_empty() {
            return targets;
        }
        let enc = self.enc;
        let refute = |_, _, _| {};
        let mut scanned = 0usize;
        let holding = with_rule!(sem, |R| {
            let mut sweep = ClassSweep::<R>::new(targets);
            if x.is_empty() {
                sweep.class(enc, (0..enc.rows()).inspect(|_| scanned += 1), refute);
            } else {
                scanned += delta.len();
                for (kv, group) in self.delta_groups(delta, x, sem) {
                    let live = sweep.class(enc, group.iter().copied(), refute)
                        && self.for_each_partner(x, &kv, group[0], sem, &mut scanned, |s| {
                            sweep.row(enc, 0, false, s, refute)
                        });
                    if !live {
                        break;
                    }
                }
            }
            sweep.holding()
        });
        sqlnf_obs::count!("discovery.partition.rows_scanned", scanned);
        holding
    }
    /// Drives `walk` against the verdict caches: each candidate's open
    /// targets are settled per plane (the swept semantics', then the
    /// certain ones) and its open key flags from the key verdicts, so
    /// the walk records what the from-scratch pass over the same rows
    /// records.
    fn replay(&mut self, caches: &mut Caches, mut walk: Walk) -> Lattice {
        let (sem, certain) = (walk.sem, Semantics::Certain);
        for k in 0..=walk.last_level {
            if k >= 2 {
                self.store.evict_below(k - 1);
            }
            for c in walk.level(k) {
                let mut settled = c;
                settled.swept = self.fd_targets(&mut caches.fd[sem as usize], c.x, c.swept, sem);
                let cache = &mut caches.fd[certain as usize];
                settled.certain = self.fd_targets(cache, c.x, c.certain, certain);
                if c.pkey || c.ckey {
                    let (p, ck) = self.key_status(&mut caches.key, c.x);
                    settled.pkey = c.pkey && p;
                    settled.ckey = c.ckey && ck;
                }
                walk.record(settled);
            }
        }
        walk.found
    }

    /// The `targets` of `X → ·` that hold under `sem`, from the verdict
    /// cache: a refuted target stays refuted, a holding one stale by
    /// appends is re-validated against the appended rows' pairs, and
    /// the rest are checked on `X`'s partition.
    fn fd_targets(
        &mut self,
        cache: &mut HashMap<AttrSet, FdVerdict>,
        x: AttrSet,
        targets: AttrSet,
        sem: Semantics,
    ) -> AttrSet {
        if targets.is_empty() {
            return targets;
        }
        let now = self.enc.rows();
        let v = cache.entry(x).or_default();
        let mut holding = AttrSet::EMPTY;
        let mut stale = AttrSet::EMPTY;
        let mut stale_since = now;
        let mut unknown = AttrSet::EMPTY;
        for a in targets - v.refuted {
            match v.holding.iter().find(|&&(b, _)| b == a) {
                Some(&(_, at)) if at == now => {
                    holding.insert(a);
                }
                Some(&(_, at)) => {
                    stale.insert(a);
                    stale_since = stale_since.min(at);
                }
                None => {
                    unknown.insert(a);
                }
            }
        }
        if !stale.is_empty() {
            // Held on the first `stale_since` rows: check the pairs of
            // the rows appended since instead of rechecking the whole
            // candidate.
            self.touched += 1;
            let survive = self.delta_targets_surviving(stale_since..now, x, stale, sem);
            let failed = stale - survive;
            holding |= survive;
            v.refuted |= failed;
            v.holding.retain_mut(|(b, at)| {
                if survive.contains(*b) {
                    *at = now;
                }
                !failed.contains(*b)
            });
        }
        if !unknown.is_empty() {
            self.touched += 1;
            let p = self.store.partition(self.enc, x, &mut self.scratch);
            let held = fd_targets_holding(self.enc, x, &p, unknown, sem, Some(&self.probes));
            holding |= held;
            v.holding.extend(held.iter().map(|a| (a, now)));
            v.refuted |= unknown - held;
        }
        holding
    }

    /// A cached key verdict of `x` under `sem` (`Possible` for p-keys,
    /// `Certain` for c-keys), if there is one: a holding verdict stale
    /// by appends is re-validated against the appended rows' pairs.
    fn key_known(
        &mut self,
        slot: &mut Option<Verdict>,
        x: AttrSet,
        sem: Semantics,
    ) -> Option<bool> {
        let now = self.enc.rows();
        match (*slot)? {
            Verdict::Fails => Some(false),
            Verdict::Holds(at) if at == now => Some(true),
            Verdict::Holds(at) => {
                // A key dies only to a *new* similar pair; probe the
                // appended rows instead of rechecking the candidate.
                self.touched += 1;
                let holds = self.for_each_delta_pair(at..now, x, sem, |_, _| false);
                *slot = Some(Verdict::of(holds, now));
                Some(holds)
            }
        }
    }

    /// Cached p-key/c-key status of `x`, checking only what the cache
    /// cannot answer.
    fn key_status(&mut self, cache: &mut HashMap<AttrSet, KeyVerdict>, x: AttrSet) -> (bool, bool) {
        let v = cache.entry(x).or_default();
        let p_known = self.key_known(&mut v.p, x, Semantics::Possible);
        let c_known = self.key_known(&mut v.c, x, Semantics::Certain);
        if let (Some(p), Some(c)) = (p_known, c_known) {
            return (p, c);
        }
        self.touched += 1;
        let now = self.enc.rows();
        let strong = self.store.partition(self.enc, x, &mut self.scratch);
        let p_is = p_known.unwrap_or_else(|| {
            let holds = is_pkey(&strong);
            v.p = Some(Verdict::of(holds, now));
            holds
        });
        let c_is = c_known.unwrap_or_else(|| {
            // A strong pair is already a weak violation; else the
            // sweep looks for a weak pair.
            let holds = strong.is_empty() && self.probes.first_weak_pair(self.enc, x).is_none();
            v.c = Some(Verdict::of(holds, now));
            holds
        });
        (p_is, c_is)
    }

    /// Cached totality check `X →_w X` (Definition 9).
    fn reflexive(&mut self, cache: &mut HashMap<AttrSet, Verdict>, x: AttrSet) -> bool {
        let enc = self.enc;
        let now = enc.rows();
        let holds = match cache.get(&x) {
            Some(&Verdict::Fails) => return false,
            Some(&Verdict::Holds(at)) if at == now => return true,
            Some(&Verdict::Holds(at)) => {
                self.touched += 1;
                self.for_each_delta_pair(at..now, x, Semantics::Certain, |r, s| {
                    enc.equal_on(r, s, x)
                })
            }
            None => {
                self.touched += 1;
                certain_reflexive_holds_cached(enc, &self.probes, x)
            }
        };
        cache.insert(x, Verdict::of(holds, now));
        holds
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::mine_keys_budgeted;
    use crate::classify::mine_report;
    use crate::mine::{mine_fds, MinerConfig};
    use sqlnf_model::prelude::*;

    fn sample() -> Table {
        TableBuilder::new("r", ["a", "b", "c"], &[])
            .row(tuple![1i64, 10i64, "x"])
            .row(tuple![1i64, 10i64, "y"])
            .row(tuple![2i64, 20i64, null])
            .row(tuple![3i64, null, "x"])
            .build()
    }

    fn assert_matches_scratch(m: &mut IncrementalMiner, max_lhs: usize) {
        let t = m.table();
        for sem in [
            Semantics::Classical,
            Semantics::Possible,
            Semantics::Certain,
            Semantics::Weak,
        ] {
            let scratch = mine_fds(
                &t,
                MinerConfig::new(sem).with_max_lhs(max_lhs).with_threads(1),
            );
            let incr = m.mine_fds(sem, max_lhs, crate::mine::DEFAULT_CACHE_BUDGET);
            assert_eq!(scratch.fds, incr, "{sem:?}");
        }
        let keys = mine_keys_budgeted(&t, max_lhs, crate::mine::DEFAULT_CACHE_BUDGET);
        assert_eq!(
            keys,
            m.mine_keys(max_lhs, crate::mine::DEFAULT_CACHE_BUDGET)
        );
        let report = mine_report("r", &t, max_lhs, crate::mine::DEFAULT_CACHE_BUDGET);
        assert_eq!(
            report,
            m.report("r", max_lhs, crate::mine::DEFAULT_CACHE_BUDGET)
        );
    }

    #[test]
    fn cold_start_matches_scratch() {
        let mut m = IncrementalMiner::from_table(&sample());
        assert_matches_scratch(&mut m, 3);
        // Second mine over an unchanged instance: still identical.
        assert_matches_scratch(&mut m, 3);
    }

    #[test]
    fn inserts_invalidate_holding_fds() {
        let mut m = IncrementalMiner::from_table(&sample());
        assert_matches_scratch(&mut m, 3);
        // a → b held; this insert breaks it.
        m.insert(tuple![1i64, 99i64, "z"]);
        assert_matches_scratch(&mut m, 3);
    }

    #[test]
    fn empty_instance_reports() {
        let schema = TableSchema::new("e", ["a", "b"], &[]);
        let mut m = IncrementalMiner::new(schema);
        assert_matches_scratch(&mut m, 2);
        m.insert(tuple![1i64, 2i64]);
        assert_matches_scratch(&mut m, 2);
        m.insert(tuple![1i64, 3i64]);
        assert_matches_scratch(&mut m, 2);
    }

    #[test]
    fn reconcile_threshold_trips_and_resets() {
        sqlnf_obs::reset();
        let mut m = IncrementalMiner::from_table(&sample()).with_reconcile_every(2);
        m.insert(tuple![5i64, 50i64, "w"]);
        let _ = m.report("r", 2, crate::mine::DEFAULT_CACHE_BUDGET); // 1 delta: no audit
        m.insert(tuple![6i64, 60i64, "v"]);
        let _ = m.report("r", 2, crate::mine::DEFAULT_CACHE_BUDGET); // 2 deltas: audit
        assert_eq!(m.deltas_since_reconcile, 0);
    }
}
