//! Incremental FD/key discovery over a live, mutating instance.
//!
//! The from-scratch miner ([`crate::mine`]) re-walks the whole candidate
//! lattice per call. Under the serve tier's write traffic that is pure
//! waste: one admitted row can only *break* FDs/keys that held (it adds
//! pairs) and one deletion can only *repair* refuted ones (it removes
//! pairs) — the verdicts of untouched candidates are still good. This
//! module maintains exactly that: a verdict cache over the explored
//! candidate frontier, invalidated by a small delta algebra, so a
//! `MINE` after `k` admissions costs `O(k · touched candidates)` row
//! work instead of a full lattice re-run.
//!
//! ## State
//!
//! The instance is one [`Table`] — rows and their dictionary codes in
//! lockstep under `push` / `set_value` / `remove_row` — plus an
//! ascending [`RowId`] per row, so a verdict's witness pair survives
//! other rows' deletions. Every mine call borrows the table's columns
//! as a transient `O(arity)` [`Encoded`] snapshot; per-column posting
//! lists (code → ascending rows) are extended in place per insert and
//! rebuilt from the codes after an update or delete.
//!
//! ## Delta algebra
//!
//! Per delta we record three monotone marks: the epoch of the last
//! insert, of the last delete, and per column the epoch of the last
//! update that changed it. Verdicts are then validated per candidate:
//!
//! * **Holding** `X → A` (epoch `e`): still holds iff no insert since
//!   `e` and no update touched a column of `X ∪ {A}` since `e`.
//!   Deletions never break a holding FD/key — removing rows removes
//!   violating pairs only.
//! * **Refuted** `X → A` with witness pair `(r, s)`: still refuted iff
//!   the two rows are live and *still violate* — a single violating
//!   pair refutes regardless of every other row, so the witness
//!   re-check is `O(|X|)` code comparisons (code 0 is ⊥; within one
//!   table code equality is value equality), no scan. Inserts can
//!   never un-refute.
//!
//! Everything else (classification into nn/p/c/t/λ, key mining,
//! projection ratios) replays the *exact* enumeration of the
//! from-scratch path — same [`k_subsets`] order, same minimality
//! bookkeeping, same checks on the cache misses — so the output is
//! byte-identical to [`mine_report`] by construction, not by accident.
//! The `incremental_matches_scratch` differential property pins this
//! across all four semantics, random DML, and thread counts.
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

use crate::cache::PartitionCtx;
use crate::check::{fd_targets_holding_cached, is_pkey, null_semantics, ProbeCache, Semantics};
use crate::classify::{projection_ratio, render_report, Classification, LambdaFd};
use crate::keys::MinedKeys;
use crate::mine::{k_subsets, MinedFd};
use crate::partition::{Encoded, NullSemantics, Partition};
use sqlnf_model::attrs::{Attr, AttrSet};
use sqlnf_model::schema::TableSchema;
use sqlnf_model::table::Table;
use sqlnf_model::tuple::Tuple;
use std::collections::HashMap;
use std::rc::Rc;

/// Stable identifier of a row; never invalidated by other rows'
/// deletions.
pub type RowId = usize;

/// A cached yes/no verdict about one candidate attribute set.
#[derive(Debug, Clone, Copy)]
enum Verdict {
    /// Established at the given delta epoch.
    Holds(u64),
    /// Refuted by the (live) witness pair.
    Fails(RowId, RowId),
}

/// Per-candidate FD verdicts, one entry per target attribute.
#[derive(Debug, Default)]
struct FdVerdict {
    /// Targets known to hold, with the epoch that established it.
    holding: Vec<(Attr, u64)>,
    /// Targets known refuted, with a witness pair.
    refuted: Vec<(Attr, RowId, RowId)>,
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
    /// FD verdicts per semantics (Classical/Possible/Certain/Weak).
    fd: [HashMap<AttrSet, FdVerdict>; 4],
    key: HashMap<AttrSet, KeyVerdict>,
    /// `X →_w X` (totality) verdicts, for the t-FD classification.
    refl: HashMap<AttrSet, Verdict>,
    /// Projection-ratio memo: value + epoch it was computed at.
    ratio: HashMap<AttrSet, (f64, u64)>,
}

/// Snapshot of the delta marks a replay validates against.
struct Marks<'a> {
    insert: u64,
    delete: u64,
    cols: &'a [u64],
}

impl Marks<'_> {
    /// Whether a holding verdict from epoch `at` over columns `cols`
    /// survived every delta since: no insert, and no update touching
    /// the columns.
    fn holding_valid(&self, at: u64, cols: AttrSet) -> bool {
        at >= self.insert && cols.iter().all(|c| at >= self.cols[c.index()])
    }

    /// Whether a holding verdict from epoch `at` is invalid *only*
    /// because of inserts — no update has touched `cols` since. Such a
    /// verdict still covers every pair of pre-delta rows (deletes only
    /// remove pairs), so it can be re-validated against just the rows
    /// inserted after `at` instead of rechecking the whole candidate.
    fn only_inserts_since(&self, at: u64, cols: AttrSet) -> bool {
        at < self.insert && cols.iter().all(|c| at >= self.cols[c.index()])
    }
}

fn sem_index(sem: Semantics) -> usize {
    match sem {
        Semantics::Classical => 0,
        Semantics::Possible => 1,
        Semantics::Certain => 2,
        Semantics::Weak => 3,
    }
}

/// Per column: code → ascending rows carrying it (code 0 = the
/// column's ⊥ rows).
type Postings = Vec<Vec<Vec<usize>>>;

/// The position of stable id `id` in the ascending `ids`, if live.
/// Ids are handed out densely and only deletes open gaps, so without
/// deletes id `i` sits at position `i`: one probe, no search.
fn row_of(ids: &[RowId], id: RowId) -> Option<usize> {
    if ids.get(id) == Some(&id) {
        return Some(id);
    }
    ids.binary_search(&id).ok()
}

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

/// Incrementally-maintained discovery state for one table.
///
/// Feed it the same row stream the table sees ([`insert`],
/// [`update`], [`delete`]); ask for mined FDs, keys or the full `MINE`
/// report at any point. Reports are byte-identical to [`mine_report`]
/// over the current rows.
///
/// [`insert`]: IncrementalMiner::insert
/// [`update`]: IncrementalMiner::update
/// [`delete`]: IncrementalMiner::delete
/// [`mine_report`]: crate::classify::mine_report
pub struct IncrementalMiner {
    /// The live rows and their dictionary codes.
    table: Table,
    /// `ids[i]` is the stable id of table row `i`; strictly ascending.
    ids: Vec<RowId>,
    next_id: RowId,
    /// Monotone delta counter; bumped once per applied delta.
    epoch: u64,
    last_insert: u64,
    last_delete: u64,
    /// Per column: epoch of the last update that changed it.
    col_updated: Vec<u64>,
    caches: Caches,
    /// Posting lists over the table rows, kept warm across inserts and
    /// dropped on update/delete (row indices shift or codes move). The
    /// delta re-validation sweeps scan only the sparsest matching list
    /// instead of the whole instance.
    postings: Option<Postings>,
    /// `(epoch, id)` of every insert, ascending in both — the rows a
    /// verdict from epoch `e` has never seen are exactly the live
    /// entries after the `partition_point` of `e`.
    insert_log: Vec<(u64, RowId)>,
    deltas_since_reconcile: u64,
    reconcile_every: Option<u64>,
}

impl IncrementalMiner {
    /// An empty maintained instance over `schema`.
    pub fn new(schema: TableSchema) -> IncrementalMiner {
        IncrementalMiner::seeded(Table::new(schema))
    }

    /// Seeds the maintained instance from an existing table; rows get
    /// [`RowId`]s `0..len` in table order.
    pub fn from_table(table: &Table) -> IncrementalMiner {
        IncrementalMiner::seeded(table.clone())
    }

    /// [`from_table`](Self::from_table) over rows not yet in a table.
    pub fn from_rows(schema: TableSchema, rows: impl IntoIterator<Item = Tuple>) -> Self {
        IncrementalMiner::seeded(Table::from_rows(schema, rows))
    }

    fn seeded(table: Table) -> IncrementalMiner {
        let (rows, arity) = (table.len(), table.schema().arity());
        IncrementalMiner {
            table,
            ids: (0..rows).collect(),
            next_id: rows,
            epoch: 0,
            last_insert: 0,
            last_delete: 0,
            col_updated: vec![0; arity],
            caches: Caches::default(),
            postings: None,
            insert_log: Vec::new(),
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

    /// Number of live rows.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// Whether no live rows remain.
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    /// Deltas applied since construction.
    pub fn deltas_applied(&self) -> u64 {
        self.epoch
    }

    /// A copy of the live rows, in [`RowId`] order. This is what every
    /// report mines; its row multiset always equals the table the
    /// deltas were mirrored from (row *order* is irrelevant to every
    /// mined artifact).
    pub fn table(&self) -> Table {
        self.table.clone()
    }

    /// Appends a row, returning its stable id.
    pub fn insert(&mut self, tuple: Tuple) -> RowId {
        let _apply = sqlnf_obs::span!("discovery.incr.apply");
        self.begin_delta();
        self.last_insert = self.epoch;
        let id = self.next_id;
        self.next_id += 1;
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
        self.ids.push(id);
        self.insert_log.push((self.epoch, id));
        id
    }

    /// Replaces a live row; returns `false` (and applies nothing) if
    /// the id is dead or unknown. Only columns whose value actually
    /// changed are marked dirty.
    pub fn update(&mut self, id: RowId, tuple: Tuple) -> bool {
        let _apply = sqlnf_obs::span!("discovery.incr.apply");
        let Some(row) = row_of(&self.ids, id) else {
            return false;
        };
        let old = &self.table.rows()[row];
        let changed: AttrSet = (0..self.schema().arity())
            .map(Attr::from)
            .filter(|&a| old.get(a) != tuple.get(a))
            .collect();
        self.begin_delta();
        for a in changed {
            self.col_updated[a.index()] = self.epoch;
            self.table.set_value(row, a, tuple.get(a).clone());
            self.postings = None;
        }
        true
    }

    /// Removes a live row; returns `false` if it was not live.
    pub fn delete(&mut self, id: RowId) -> bool {
        let _apply = sqlnf_obs::span!("discovery.incr.apply");
        let Some(row) = row_of(&self.ids, id) else {
            return false;
        };
        self.table.remove_row(row);
        self.ids.remove(row);
        self.postings = None;
        self.begin_delta();
        self.last_delete = self.epoch;
        true
    }

    fn begin_delta(&mut self) {
        sqlnf_obs::count!("discovery.incr.deltas");
        self.epoch += 1;
        self.deltas_since_reconcile += 1;
    }

    /// Runs one replay over a transient snapshot of the table: builds
    /// the postings if a delta dropped them, hands `run` the per-call
    /// state, the verdict caches and the rows, and charges the
    /// candidates it touched. The snapshot is dropped before
    /// returning, so the next insert finds the table's columns
    /// unshared and extends them in place.
    fn with_pass<T>(
        &mut self,
        nulls: NullSemantics,
        cache_budget: usize,
        run: impl FnOnce(&mut Pass<'_>, &mut Caches, &Table) -> T,
    ) -> T {
        let enc = Encoded::new(&self.table);
        let arity = self.table.schema().arity();
        let postings = self
            .postings
            .get_or_insert_with(|| postings_of(&enc, arity));
        let mut pass = Pass {
            enc: &enc,
            ctx: PartitionCtx::with_budget(&enc, nulls, cache_budget),
            probes: ProbeCache::new(&enc),
            arity,
            ids: &self.ids,
            log: &self.insert_log,
            postings,
            marks: Marks {
                insert: self.last_insert,
                delete: self.last_delete,
                cols: &self.col_updated,
            },
            now: self.epoch,
            delta_memo: None,
            touched: 0,
        };
        let out = run(&mut pass, &mut self.caches, &self.table);
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
        self.with_pass(null_semantics(sem), cache_budget, |pass, caches, _| {
            pass.replay_fds(&mut caches.fd[sem_index(sem)], sem, max_lhs)
        })
    }

    /// Mines the minimal p-/c-keys; identical to `mine_keys_budgeted`
    /// over [`IncrementalMiner::table`].
    pub fn mine_keys(&mut self, max_size: usize, cache_budget: usize) -> MinedKeys {
        self.with_pass(NullSemantics::Strong, cache_budget, |pass, caches, _| {
            pass.replay_keys(&mut caches.key, max_size)
        })
    }

    /// The classification + keys backing one `MINE` report — the
    /// incremental mirror of `classify_table_budgeted` +
    /// `mine_keys_budgeted`.
    pub fn classify(&mut self, max_lhs: usize, cache_budget: usize) -> (Classification, MinedKeys) {
        self.with_pass(
            NullSemantics::Strong,
            cache_budget,
            |pass, caches, table| {
                let null_free = pass.enc.null_free_columns();
                let possible = pass.replay_fds(
                    &mut caches.fd[sem_index(Semantics::Possible)],
                    Semantics::Possible,
                    max_lhs,
                );
                let certain = pass.replay_fds(
                    &mut caches.fd[sem_index(Semantics::Certain)],
                    Semantics::Certain,
                    max_lhs,
                );
                let mut out = Classification::default();
                for fd in possible {
                    if fd.lhs.is_subset(null_free) {
                        if !pass.key_status(&mut caches.key, fd.lhs).1 {
                            let ratio = pass.ratio(&mut caches.ratio, table, fd.lhs | fd.rhs);
                            out.nn_nonkey_ratios.push(ratio);
                        }
                        out.nn_fds.push(fd);
                    } else {
                        out.p_fds.push(fd);
                    }
                }
                for fd in certain {
                    if fd.lhs.is_subset(null_free) {
                        continue; // coincides with an nn-FD; counted there
                    }
                    if pass.reflexive(&mut caches.refl, fd.lhs) {
                        out.t_fds.push(fd.clone());
                        let ckey = pass.key_status(&mut caches.key, fd.lhs).1;
                        if !fd.rhs.is_empty() && !ckey {
                            out.lambda_fds.push(LambdaFd {
                                lhs: fd.lhs,
                                rhs: fd.rhs,
                                relative_projection_size: pass.ratio(
                                    &mut caches.ratio,
                                    table,
                                    fd.lhs | fd.rhs,
                                ),
                            });
                        }
                    }
                    out.c_fds.push(fd);
                }
                let keys = pass.replay_keys(&mut caches.key, max_lhs);
                (out, keys)
            },
        )
    }

    /// The `MINE` report over the live rows, byte-identical to
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
            self.epoch
        );
        self.deltas_since_reconcile = 0;
        incr
    }
}

/// The state of one replay: the snapshot and every structure the
/// verdict checks consult, plus the running per-call counters. Rows
/// are table rows of the snapshot; witnesses are stored as [`RowId`]s.
struct Pass<'a> {
    enc: &'a Encoded,
    ctx: PartitionCtx<'a>,
    probes: ProbeCache,
    arity: usize,
    ids: &'a [RowId],
    log: &'a [(u64, RowId)],
    postings: &'a Postings,
    marks: Marks<'a>,
    /// The epoch fresh verdicts are stamped with.
    now: u64,
    /// The rows inserted after some epoch, for the last epoch asked:
    /// within one replay most stale verdicts share the epoch of the
    /// previous mine, so the set is computed once, not per candidate.
    delta_memo: Option<(u64, Rc<[usize]>)>,
    /// Candidates that needed row work (`discovery.incr.candidates_touched`).
    touched: usize,
}

impl Pass<'_> {
    /// The rows (ascending) inserted after `since` and still live —
    /// the only rows that can carry a pair unseen by a verdict stamped
    /// at `since`.
    fn delta_since(&mut self, since: u64) -> Rc<[usize]> {
        match &self.delta_memo {
            Some((at, rows)) if *at == since => Rc::clone(rows),
            _ => {
                let start = self.log.partition_point(|&(e, _)| e <= since);
                let rows: Rc<[usize]> = self.log[start..]
                    .iter()
                    .filter_map(|&(_, id)| row_of(self.ids, id))
                    .collect();
                self.delta_memo = Some((since, Rc::clone(&rows)));
                rows
            }
        }
    }

    /// The table rows of a witness pair, if both are still live.
    fn live_pair(&self, r: RowId, s: RowId) -> Option<(usize, usize)> {
        Some((row_of(self.ids, r)?, row_of(self.ids, s)?))
    }

    /// LHS-similarity of two rows under the mining semantics:
    /// syntactic equality (⊥ = ⊥) classically, strong similarity for
    /// possible FDs and p-keys, weak similarity for certain FDs and
    /// c-keys. Weak FDs only ever constrain `X`-total pairs (an
    /// `X`-incomplete row is completed apart with fresh values), so
    /// their pair notion is strong similarity too.
    fn similar(&self, r: usize, s: usize, x: AttrSet, sem: Semantics) -> bool {
        let e = self.enc;
        match sem {
            Semantics::Classical => e.equal_on(r, s, x),
            Semantics::Possible | Semantics::Weak => e.is_total_on(r, x) && e.equal_on(r, s, x),
            Semantics::Certain => e.weakly_similar(r, s, x),
        }
    }

    /// Whether the witness pair still violates `X → A` (rows live and
    /// similar on `X` per `sem`, unequal on `a`). Purely semantic: any
    /// live violating pair refutes, whatever its history.
    fn pair_violates_fd(&self, r: RowId, s: RowId, x: AttrSet, a: Attr, sem: Semantics) -> bool {
        let Some((r, s)) = self.live_pair(r, s) else {
            return false;
        };
        let (ca, cb) = (self.enc.code(r, a), self.enc.code(s, a));
        self.similar(r, s, x, sem)
            && match sem {
                // A weak violation needs a conflict no completion can
                // fix: both values present and distinct (a ⊥ is filled
                // with the partner's value).
                Semantics::Weak => ca != 0 && cb != 0 && ca != cb,
                _ => ca != cb,
            }
    }

    /// Whether a witness pair still refutes `X` as a key: possible keys
    /// fall to a strongly-similar pair, certain keys to a weakly-similar
    /// one.
    fn pair_violates_key(&self, r: RowId, s: RowId, x: AttrSet, sem: Semantics) -> bool {
        self.live_pair(r, s)
            .is_some_and(|(r, s)| self.similar(r, s, x, sem))
    }

    /// Whether a witness pair still refutes totality `X →_w X`: weakly
    /// similar on `X` but not syntactically equal on it.
    fn pair_violates_reflexive(&self, r: RowId, s: RowId, x: AttrSet) -> bool {
        self.live_pair(r, s)
            .is_some_and(|(r, s)| self.enc.weakly_similar(r, s, x) && !self.enc.equal_on(r, s, x))
    }

    /// Finds a violating pair for each refuted target of `x` — the
    /// witnesses the next replay validates instead of re-scanning. Every
    /// requested target is guaranteed a witness (the check just refuted
    /// it over the same data).
    fn find_fd_witnesses(
        &self,
        x: AttrSet,
        p: &Partition,
        mut want: AttrSet,
        sem: Semantics,
        out: &mut Vec<(Attr, RowId, RowId)>,
    ) {
        let (enc, ids) = (self.enc, self.ids);
        if sem == Semantics::Weak {
            // The witness must be a *non-null* disagreement: comparing
            // against the class head would hand out a pair a completion
            // could repair (the head may carry ⊥ on the target), so
            // track the first non-null code per target instead.
            let mut tracked: Vec<(Attr, Option<usize>)> = Vec::new();
            for class in &p.classes {
                tracked.clear();
                tracked.extend(want.iter().map(|a| (a, None)));
                let mut dead = AttrSet::EMPTY;
                for &r in class {
                    self.weak_note_row(r as usize, &mut tracked, &mut dead, out);
                    if dead == want {
                        break;
                    }
                }
                want = want - dead;
                if want.is_empty() {
                    break;
                }
            }
            debug_assert!(want.is_empty(), "refuted target without witness: {want:?}");
            return;
        }
        'classes: for class in &p.classes {
            let first = class[0] as usize;
            for &r in &class[1..] {
                let r = r as usize;
                let mut got = AttrSet::EMPTY;
                for a in want {
                    if enc.code(r, a) != enc.code(first, a) {
                        out.push((a, ids[first], ids[r]));
                        got.insert(a);
                    }
                }
                want = want - got;
                if want.is_empty() {
                    break 'classes;
                }
            }
        }
        if sem == Semantics::Certain && !want.is_empty() {
            self.probes.weak_pairs(enc, x, |r, s| {
                let mut got = AttrSet::EMPTY;
                for a in want {
                    if enc.code(r, a) != enc.code(s, a) {
                        out.push((a, ids[r], ids[s]));
                        got.insert(a);
                    }
                }
                want = want - got;
                !want.is_empty()
            });
        }
        debug_assert!(want.is_empty(), "refuted target without witness: {want:?}");
    }

    /// The rows of column `a` carrying `code`.
    fn posting(&self, a: Attr, code: u32) -> &[usize] {
        self.postings[a.index()]
            .get(code as usize)
            .map_or(&[], Vec::as_slice)
    }

    /// Groups `delta` by its code vector on `x` (⊥ is code 0), in key
    /// order: equal projections have identical partner sets, so they
    /// share one probe. Under `Possible` and `Weak`, x-incomplete rows
    /// are dropped — ⊥ is strongly similar to nothing, and the weak
    /// completion isolates such rows with fresh values.
    fn delta_groups(
        &self,
        delta: &[usize],
        x: AttrSet,
        sem: Semantics,
    ) -> Vec<(Vec<u32>, Vec<usize>)> {
        let key = |r: usize| x.iter().map(move |a| self.enc.code(r, a));
        let mut rows: Vec<usize> = delta
            .iter()
            .copied()
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
    /// `delta` — exactly the pairs that a verdict predating the delta
    /// rows has never seen. Calls `f` for each; stops early — and
    /// returns `false` — when `f` returns `false`. A pair with both
    /// rows in `delta` may be visited in both orientations; callers
    /// hunt for a single violation, so the duplicate is harmless. Rows
    /// visited are charged to `discovery.partition.rows_scanned` like
    /// every other check path.
    fn for_each_delta_pair(
        &self,
        delta: &[usize],
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
            'empty: for &r in delta {
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

    /// Folds one class row into the weak-semantics tracking state:
    /// `tracked` holds, per target, the first row seen carrying a
    /// non-null code; a later row with a *different* non-null code is a
    /// genuine violating pair (no completion can reconcile two present,
    /// distinct values), recorded in `refuted` and `dead`. Rows with ⊥
    /// on a target are skipped — the weak completion absorbs them.
    fn weak_note_row(
        &self,
        row: usize,
        tracked: &mut [(Attr, Option<usize>)],
        dead: &mut AttrSet,
        refuted: &mut Vec<(Attr, RowId, RowId)>,
    ) {
        for (a, first) in tracked.iter_mut() {
            if dead.contains(*a) {
                continue;
            }
            let c = self.enc.code(row, *a);
            if c == 0 {
                continue;
            }
            match first {
                None => *first = Some(row),
                Some(f) if self.enc.code(*f, *a) != c => {
                    refuted.push((*a, self.ids[*f], self.ids[row]));
                    dead.insert(*a);
                }
                Some(_) => {}
            }
        }
    }

    /// Re-validates previously-holding targets of `X → ·` against only
    /// the delta-involved pairs. Returns the surviving targets; each
    /// refuted one is appended to `refuted` with a live witness pair.
    /// Sound because deletes only remove pairs and the caller has
    /// checked that no update touched `X` or a target since the
    /// verdicts were stamped.
    fn delta_targets_surviving(
        &self,
        delta: &[usize],
        x: AttrSet,
        targets: AttrSet,
        sem: Semantics,
        refuted: &mut Vec<(Attr, RowId, RowId)>,
    ) -> AttrSet {
        let (enc, ids) = (self.enc, self.ids);
        let mut holding = targets;
        if delta.is_empty() {
            return holding;
        }
        if x.is_empty() {
            // `∅ → A`: every pair is similar under every semantics, so
            // the FD survives iff the column is still constant — one
            // early-exit column scan. Weakly, "constant" tolerates ⊥:
            // only two distinct non-null codes kill the target.
            let mut scanned = 0usize;
            if sem == Semantics::Weak {
                let mut tracked: Vec<(Attr, Option<usize>)> =
                    holding.iter().map(|a| (a, None)).collect();
                let mut dead = AttrSet::EMPTY;
                for s in 0..enc.rows() {
                    scanned += 1;
                    self.weak_note_row(s, &mut tracked, &mut dead, refuted);
                    if dead == holding {
                        break;
                    }
                }
                holding = holding - dead;
            } else {
                for s in 1..enc.rows() {
                    scanned += 1;
                    let mut still = AttrSet::EMPTY;
                    for a in holding {
                        if enc.code(s, a) == enc.code(0, a) {
                            still.insert(a);
                        } else {
                            refuted.push((a, ids[0], ids[s]));
                        }
                    }
                    holding = still;
                    if holding.is_empty() {
                        break;
                    }
                }
            }
            sqlnf_obs::count!("discovery.partition.rows_scanned", scanned);
            return holding;
        }
        let mut scanned = delta.len();
        for (kv, group) in self.delta_groups(delta, x, sem) {
            if holding.is_empty() {
                break;
            }
            let r0 = group[0];
            if sem == Semantics::Weak {
                // Weakly, a class stays repairable while its non-null
                // codes per target agree; the r0-homogeneity shortcut
                // below is unsound here (r0 may carry ⊥ on a target two
                // partners disagree on non-null), so track the first
                // non-null row per target across group and partners.
                let mut tracked: Vec<(Attr, Option<usize>)> =
                    holding.iter().map(|a| (a, None)).collect();
                let mut dead = AttrSet::EMPTY;
                for &m in &group {
                    self.weak_note_row(m, &mut tracked, &mut dead, refuted);
                }
                if dead != holding {
                    self.for_each_partner(x, &kv, r0, sem, &mut scanned, |s| {
                        self.weak_note_row(s, &mut tracked, &mut dead, refuted);
                        dead != holding
                    });
                }
                holding = holding - dead;
                continue;
            }
            // Group members are pairwise similar on `x`, so a target
            // they disagree on dies to a member pair — and the
            // survivors are group-homogeneous, which lets the partner
            // scan below compare each row once against `r0` instead of
            // once per member.
            let mut still = AttrSet::EMPTY;
            for a in holding {
                match group.iter().find(|&&m| enc.code(m, a) != enc.code(r0, a)) {
                    Some(&m) => refuted.push((a, ids[r0], ids[m])),
                    None => {
                        still.insert(a);
                    }
                }
            }
            holding = still;
            if holding.is_empty() {
                break;
            }
            self.for_each_partner(x, &kv, r0, sem, &mut scanned, |s| {
                let mut still = AttrSet::EMPTY;
                for a in holding {
                    if enc.code(s, a) == enc.code(r0, a) {
                        still.insert(a);
                    } else {
                        // `s` matched the group's projection but not
                        // this target, so it is not a group member
                        // (those agree on `a`) and `(r0, s)` is a
                        // genuine violating pair.
                        refuted.push((a, ids[r0], ids[s]));
                    }
                }
                holding = still;
                !holding.is_empty()
            });
        }
        sqlnf_obs::count!("discovery.partition.rows_scanned", scanned);
        holding
    }

    /// The first delta-involved pair similar on `x` under `sem` that
    /// `keep` rejects, as stable ids — the witness that kills a stale
    /// key or totality verdict. `None` means the verdict survived the
    /// delta.
    fn first_delta_pair(
        &self,
        delta: &[usize],
        x: AttrSet,
        sem: Semantics,
        keep: impl Fn(usize, usize) -> bool,
    ) -> Option<(RowId, RowId)> {
        let mut witness = None;
        self.for_each_delta_pair(delta, x, sem, |r, s| {
            if keep(r, s) {
                return true;
            }
            witness = Some((self.ids[r], self.ids[s]));
            false
        });
        witness
    }

    /// Replays the level-wise FD enumeration of [`crate::mine`] against
    /// the verdict cache. The walk — candidate order, target pruning,
    /// minimality bookkeeping — is the from-scratch serial one; only
    /// the per-candidate check is short-circuited by valid verdicts, so
    /// the returned FDs are identical to `mine_fds` over the same rows.
    fn replay_fds(
        &mut self,
        cache: &mut HashMap<AttrSet, FdVerdict>,
        sem: Semantics,
        max_lhs: usize,
    ) -> Vec<MinedFd> {
        let attrs: Vec<Attr> = (0..self.arity).map(Attr::from).collect();
        let all: AttrSet = attrs.iter().copied().collect();
        let last_level = max_lhs.min(self.arity.saturating_sub(1));
        let mut minimal_for: Vec<Vec<AttrSet>> = vec![Vec::new(); self.arity];
        let mut found = Vec::new();
        let now = self.now;

        for k in 0..=last_level {
            if k >= 2 {
                self.ctx.evict_below(k - 1);
            }
            for x in k_subsets(&attrs, k) {
                let mut targets = AttrSet::EMPTY;
                for a in all - x {
                    if !minimal_for[a.index()].iter().any(|y| y.is_subset(x)) {
                        targets.insert(a);
                    }
                }
                if targets.is_empty() {
                    continue;
                }
                let v = cache.entry(x).or_default();
                let mut holding = AttrSet::EMPTY;
                let mut stale = AttrSet::EMPTY;
                let mut stale_since = u64::MAX;
                let mut unknown = AttrSet::EMPTY;
                for a in targets {
                    let cols = x | AttrSet::single(a);
                    if let Some(&(_, at)) = v.holding.iter().find(|&&(b, _)| b == a) {
                        if self.marks.holding_valid(at, cols) {
                            holding.insert(a);
                            continue;
                        }
                        if self.marks.only_inserts_since(at, cols) {
                            stale.insert(a);
                            stale_since = stale_since.min(at);
                            continue;
                        }
                    }
                    if let Some(&(_, r, s)) = v.refuted.iter().find(|&&(b, _, _)| b == a) {
                        if self.pair_violates_fd(r, s, x, a, sem) {
                            continue; // still refuted, witness intact
                        }
                    }
                    unknown.insert(a);
                }
                if !stale.is_empty() {
                    // Held before the delta, and only inserts happened
                    // since: check the inserted rows' pairs instead of
                    // rechecking the whole candidate.
                    self.touched += 1;
                    let delta = self.delta_since(stale_since);
                    let mut fresh = Vec::new();
                    let survive = self.delta_targets_surviving(&delta, x, stale, sem, &mut fresh);
                    for a in survive {
                        holding.insert(a);
                        if let Some(entry) = v.holding.iter_mut().find(|(b, _)| *b == a) {
                            entry.1 = now;
                        }
                    }
                    for (a, r, s) in fresh {
                        v.holding.retain(|&(b, _)| b != a);
                        v.refuted.retain(|&(b, _, _)| b != a);
                        v.refuted.push((a, r, s));
                    }
                }
                if !unknown.is_empty() {
                    self.touched += 1;
                    let p = self.ctx.partition(x);
                    let held =
                        fd_targets_holding_cached(self.enc, x, &p, unknown, sem, &self.probes);
                    holding |= held;
                    let refuted = unknown - held;
                    // Record fresh verdicts: held targets stamped at the
                    // current epoch, refuted ones re-witnessed.
                    for a in held {
                        v.refuted.retain(|&(b, _, _)| b != a);
                        match v.holding.iter_mut().find(|(b, _)| *b == a) {
                            Some(entry) => entry.1 = now,
                            None => v.holding.push((a, now)),
                        }
                    }
                    if !refuted.is_empty() {
                        v.refuted.retain(|&(b, _, _)| !refuted.contains(b));
                        v.holding.retain(|&(b, _)| !refuted.contains(b));
                        self.find_fd_witnesses(x, &p, refuted, sem, &mut v.refuted);
                    }
                }
                if !holding.is_empty() {
                    for a in holding {
                        minimal_for[a.index()].push(x);
                    }
                    found.push(MinedFd {
                        lhs: x,
                        rhs: holding,
                    });
                }
            }
        }
        found
    }

    /// Replays the level-wise key enumeration of [`crate::keys`]
    /// against the verdict cache; identical output to
    /// `mine_keys_budgeted` over the same rows.
    fn replay_keys(
        &mut self,
        cache: &mut HashMap<AttrSet, KeyVerdict>,
        max_size: usize,
    ) -> MinedKeys {
        let attrs: Vec<Attr> = (0..self.arity).map(Attr::from).collect();
        let mut out = MinedKeys::default();
        for k in 0..=max_size.min(self.arity) {
            if k >= 2 {
                self.ctx.evict_below(k - 1);
            }
            for x in k_subsets(&attrs, k) {
                let p_covered = out.pkeys.iter().any(|y| y.is_subset(x));
                let c_covered = out.ckeys.iter().any(|y| y.is_subset(x));
                if p_covered && c_covered {
                    continue;
                }
                let (p_is, c_is) = self.key_status(cache, x);
                if !p_covered && p_is {
                    out.pkeys.push(x);
                }
                if !c_covered && c_is {
                    out.ckeys.push(x);
                }
            }
        }
        out
    }

    /// A cached key verdict of `x` under `sem` (`Possible` for p-keys,
    /// `Certain` for c-keys), if the delta marks leave it decidable
    /// without a full check: a holding verdict stale only by inserts
    /// is re-validated against the inserted rows' pairs.
    fn key_known(
        &mut self,
        slot: &mut Option<Verdict>,
        x: AttrSet,
        sem: Semantics,
    ) -> Option<bool> {
        match *slot {
            Some(Verdict::Holds(at)) if self.marks.holding_valid(at, x) => Some(true),
            Some(Verdict::Holds(at)) if self.marks.only_inserts_since(at, x) => {
                // A key dies only to a *new* similar pair; probe the
                // inserted rows instead of rechecking the candidate.
                self.touched += 1;
                let delta = self.delta_since(at);
                let witness = self.first_delta_pair(&delta, x, sem, |_, _| false);
                *slot =
                    Some(witness.map_or(Verdict::Holds(self.now), |(r, s)| Verdict::Fails(r, s)));
                Some(witness.is_none())
            }
            Some(Verdict::Fails(r, s)) if self.pair_violates_key(r, s, x, sem) => Some(false),
            _ => None,
        }
    }

    /// Cached p-key/c-key status of `x`, rechecking only what the delta
    /// marks invalidated. Also backs the classification's c-key checks
    /// (λ-FD and nn-ratio eligibility).
    fn key_status(&mut self, cache: &mut HashMap<AttrSet, KeyVerdict>, x: AttrSet) -> (bool, bool) {
        let v = cache.entry(x).or_default();
        let p_known = self.key_known(&mut v.p, x, Semantics::Possible);
        let c_known = self.key_known(&mut v.c, x, Semantics::Certain);
        if let (Some(p), Some(c)) = (p_known, c_known) {
            return (p, c);
        }
        self.touched += 1;
        let (now, ids) = (self.now, self.ids);
        let strong = self.ctx.partition(x);
        let p_is = p_known.unwrap_or_else(|| {
            let holds = is_pkey(&strong);
            v.p = Some(if holds {
                Verdict::Holds(now)
            } else {
                let c = &strong.classes[0];
                Verdict::Fails(ids[c[0] as usize], ids[c[1] as usize])
            });
            holds
        });
        let c_is = c_known.unwrap_or_else(|| {
            // is_ckey with witness extraction: a strong pair is
            // already a weak violation; else probe the weak pairs.
            let mut witness: Option<(RowId, RowId)> = None;
            if let Some(c) = strong.classes.first() {
                witness = Some((ids[c[0] as usize], ids[c[1] as usize]));
            } else {
                self.probes.weak_pairs(self.enc, x, |r, s| {
                    witness = Some((ids[r], ids[s]));
                    false
                });
            }
            v.c = Some(witness.map_or(Verdict::Holds(now), |(r, s)| Verdict::Fails(r, s)));
            witness.is_none()
        });
        (p_is, c_is)
    }

    /// Cached totality check `X →_w X` (Definition 9).
    fn reflexive(&mut self, cache: &mut HashMap<AttrSet, Verdict>, x: AttrSet) -> bool {
        let enc = self.enc;
        let unequal = |r: usize, s: usize| !enc.equal_on(r, s, x);
        let witness = match cache.get(&x) {
            Some(&Verdict::Holds(at)) if self.marks.holding_valid(at, x) => return true,
            Some(&Verdict::Fails(r, s)) if self.pair_violates_reflexive(r, s, x) => return false,
            Some(&Verdict::Holds(at)) if self.marks.only_inserts_since(at, x) => {
                self.touched += 1;
                let delta = self.delta_since(at);
                self.first_delta_pair(&delta, x, Semantics::Certain, |r, s| !unequal(r, s))
            }
            _ => {
                self.touched += 1;
                let mut witness = None;
                self.probes.weak_pairs(enc, x, |r, s| {
                    if unequal(r, s) {
                        witness = Some((self.ids[r], self.ids[s]));
                    }
                    witness.is_none()
                });
                witness
            }
        };
        cache.insert(
            x,
            witness.map_or(Verdict::Holds(self.now), |(r, s)| Verdict::Fails(r, s)),
        );
        witness.is_none()
    }

    /// The projection ratio of `attrs` over the live rows, memoized
    /// until a delta could have changed it (any insert or delete, or
    /// an update touching `attrs`). `projection_ratio` wants real
    /// rows, not codes, so it reads the table itself.
    fn ratio(&self, memo: &mut HashMap<AttrSet, (f64, u64)>, table: &Table, attrs: AttrSet) -> f64 {
        match memo.get(&attrs) {
            Some(&(ratio, at))
                if at >= self.marks.delete && self.marks.holding_valid(at, attrs) =>
            {
                ratio
            }
            _ => {
                let ratio = projection_ratio(table, attrs);
                memo.insert(attrs, (ratio, self.now));
                ratio
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::mine_report;
    use crate::keys::mine_keys_budgeted;
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
            let incr = m.mine_fds(sem, max_lhs, crate::cache::DEFAULT_CACHE_BUDGET);
            assert_eq!(scratch.fds, incr, "{sem:?}");
        }
        let keys = mine_keys_budgeted(&t, max_lhs, crate::cache::DEFAULT_CACHE_BUDGET);
        assert_eq!(
            keys,
            m.mine_keys(max_lhs, crate::cache::DEFAULT_CACHE_BUDGET)
        );
        let report = mine_report("r", &t, max_lhs, crate::cache::DEFAULT_CACHE_BUDGET);
        assert_eq!(
            report,
            m.report("r", max_lhs, crate::cache::DEFAULT_CACHE_BUDGET)
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
    fn deletes_can_unrefute() {
        let mut m = IncrementalMiner::from_table(&sample());
        assert_matches_scratch(&mut m, 3);
        // Deleting row 1 removes the (a,b) → c violation witness.
        m.delete(1);
        assert_matches_scratch(&mut m, 3);
        // And deleting everything leaves the vacuous instance.
        for r in [0, 2, 3] {
            m.delete(r);
        }
        assert_matches_scratch(&mut m, 3);
    }

    #[test]
    fn updates_touch_only_changed_columns() {
        let mut m = IncrementalMiner::from_table(&sample());
        assert_matches_scratch(&mut m, 3);
        m.update(2, tuple![2i64, 10i64, null]); // b changed
        assert_matches_scratch(&mut m, 3);
        m.update(3, tuple![3i64, null, "x"]); // no-op update
        assert_matches_scratch(&mut m, 3);
        m.update(0, tuple![1i64, 10i64, null]); // c nulled
        assert_matches_scratch(&mut m, 3);
    }

    #[test]
    fn dead_slots_reject_mutation() {
        let mut m = IncrementalMiner::from_table(&sample());
        assert!(m.delete(1));
        assert!(!m.delete(1));
        assert!(!m.update(1, tuple![0i64, 0i64, "q"]));
        assert!(!m.delete(99));
        assert_eq!(m.len(), 3);
    }

    #[test]
    fn empty_instance_reports() {
        let schema = TableSchema::new("e", ["a", "b"], &[]);
        let mut m = IncrementalMiner::new(schema);
        assert_matches_scratch(&mut m, 2);
        let id = m.insert(tuple![1i64, 2i64]);
        assert_matches_scratch(&mut m, 2);
        m.delete(id);
        assert_matches_scratch(&mut m, 2);
    }

    #[test]
    fn reconcile_threshold_trips_and_resets() {
        sqlnf_obs::reset();
        let mut m = IncrementalMiner::from_table(&sample()).with_reconcile_every(2);
        m.insert(tuple![5i64, 50i64, "w"]);
        let _ = m.report("r", 2, crate::cache::DEFAULT_CACHE_BUDGET); // 1 delta: no audit
        m.insert(tuple![6i64, 60i64, "v"]);
        let _ = m.report("r", 2, crate::cache::DEFAULT_CACHE_BUDGET); // 2 deltas: audit
        assert_eq!(m.deltas_since_reconcile, 0);
    }
}
