//! Level-wise discovery of minimal non-trivial FDs, in the style of
//! TANE, under any of the four [`Semantics`] — and of everything the
//! `MINE` report asks, in the same pass.
//!
//! The miner records, per minimal LHS `X`, the set of all RHS
//! attributes `A ∉ X` such that `X → A` holds and no `Y ⊊ X` already
//! gives `Y → A` — matching the paper's counting convention ("all
//! non-trivial FDs with minimal LHSs, and only once per LHS").
//!
//! ## One pass, several questions
//!
//! `Walk` is the only lattice walk: `traverse` settles its candidates
//! from partitions, [`crate::incremental`] from its verdict caches. A
//! candidate carries the questions still open at it: the targets of
//! the swept semantics no minimal FD covers yet, the certain targets
//! no minimal c-FD covers yet, and — for the report — whether no p-key
//! and no c-key lies inside it. One sweep of its classes under the swept semantics'
//! class rule answers them all: certain FDs are the possible rule plus
//! the [`ProbeCache`] tail over the surviving certain targets (a c-FD
//! is a p-FD), `X` is a p-key iff no class holds two rows, and only a
//! p-key is probed for a weak pair to decide the c-key. `mine_fds` is
//! the same walk with one semantics' targets and no key flags;
//! [`crate::classify`] reads the report's.
//!
//! ## Level-cached partition products
//!
//! A level-`k` candidate's stripped partition is the TANE product
//! `π_{X∖{a}} · π_{a}` of a cached level-`(k−1)` partition refined by
//! one more attribute's dictionary codes, computed in one sweep of the
//! prefix partition with a reusable probe-table scratch (see
//! [`Partition::product_attr`] — the cost is proportional to the
//! *prefix*, which shrinks as levels advance, not to the table). The
//! partitions live in one [`Store`], which the incremental replay uses
//! too. Every immediate prefix of a candidate is itself a candidate of
//! the previous level (uncovered targets and key flags are inherited
//! downwards), so the prefix lookup misses only when the byte budget
//! ([`MinerConfig::cache_budget`]) evicted it. Levels retire as the
//! frontier advances: only level `k−1` is kept while level `k` runs.
//!
//! A candidate with no stored prefix — every single and pair, and an
//! evicted prefix's candidate — whose columns pass the counting-sort
//! gate ([`Encoded::code_space`]) comes from its own codes instead: a
//! kept level sorts it by its mixed-radix code
//! ([`Partition::by_codes`]), and a level nobody reads (levels 0 and 1,
//! the last level, a check-only pre-last level) builds no partition at
//! all but sweeps the rows in row order, keyed by that code, through
//! the class check ([`crate::check::code_sweep`]). Only a candidate too
//! wide for the gate reads the singles: a pair refines its more
//! selective single, and an evicted prefix is folded from them; each
//! level builds the singles its wide candidates need before it runs.
//! On the levels nobody reads, a candidate with a stored prefix fuses
//! the product with the class check
//! ([`crate::check::refinement_sweep`]). Both fused sweeps stop once
//! every target is refuted, so refuted candidates — the vast majority
//! at depth — cost a handful of row visits instead of a full sweep.
//!
//! With `threads > 1` the per-level fan-out runs on a *persistent*
//! worker pool spawned once inside one `thread::scope`: each worker
//! owns its scratch for the whole mining run and receives, per level,
//! a shared [`Arc`] of the candidate slice plus an atomic cursor into
//! a *cost-descending* visit order (LPT scheduling: per-candidate cost
//! is the rows its check sweeps — the chosen prefix's `stripped_rows()`,
//! or the table's for a candidate from its codes). Workers pull one
//! candidate at a time, so an expensive straggler never pins a whole
//! contiguous chunk to one thread the way equal-size chunking did.
//! Every emitted FD and partition shard is tagged with its candidate
//! index; the main thread sorts by index before merging, so results —
//! and the store's contents under any byte budget — are byte-identical
//! across thread counts (`parallel_equals_serial`). Workers share one
//! [`ProbeCache`], so LHSs with the same nullable footprint reuse one
//! probe index instead of rebuilding per candidate. Worker saturation
//! is visible as the `discovery.mine.worker_busy_ns` timer.

use crate::check::{
    code_sweep, fd_targets_holding, null_semantics, refinement_sweep, ProbeCache, Semantics,
};
use crate::partition::{Encoded, NullSemantics, Partition, ProductScratch};
use sqlnf_model::attrs::{Attr, AttrSet};
use sqlnf_model::table::Table;
use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::time::Instant;

/// A level parallelises once it has at least `max(PAR_MIN, threads)`
/// candidates: below that the queue/channel round-trip costs more than
/// the work. Wide-short tables (hepatitis: 15+ levels) have many short
/// levels, so this is deliberately low.
const PAR_MIN: usize = 8;

/// One discovered dependency: a minimal LHS and every RHS attribute it
/// minimally determines under the mining semantics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MinedFd {
    /// The (minimal) left-hand side.
    pub lhs: AttrSet,
    /// All attributes outside `lhs` minimally determined by it.
    pub rhs: AttrSet,
}

/// Miner configuration.
#[derive(Debug, Clone, Copy)]
pub struct MinerConfig {
    /// Semantics of the mined FDs.
    pub semantics: Semantics,
    /// Maximum LHS size explored (the lattice is exponential; the
    /// interesting minimal FDs of the evaluation live at small sizes).
    pub max_lhs: usize,
    /// Worker threads for candidate checking. Within one lattice level
    /// candidates are independent (minimality only consults strictly
    /// smaller LHSs), so per-level parallelism is exact. `1` = serial.
    pub threads: usize,
    /// Byte budget of the partition [`Store`]. Within budget, every
    /// candidate past level 2 refines a stored prefix; past it, a
    /// candidate whose prefixes were evicted comes from its own codes,
    /// or, too wide for that, from a fold of the single-attribute
    /// partitions. `0` stores no multi-attribute partition; results
    /// are identical for any value (only throughput changes).
    pub cache_budget: usize,
}

impl MinerConfig {
    /// Default configuration for the given semantics: LHS ≤ 4, and the
    /// thread count taken from `SQLNF_MINE_THREADS` when set (`0` =
    /// all available cores), else serial — matching the experiment
    /// harness, whose recorded timings are per-core.
    pub fn new(semantics: Semantics) -> Self {
        let threads = match std::env::var("SQLNF_MINE_THREADS") {
            Ok(v) => match v.trim().parse::<usize>() {
                Ok(0) => std::thread::available_parallelism().map_or(1, |n| n.get()),
                Ok(n) => n,
                Err(_) => 1,
            },
            Err(_) => 1,
        };
        MinerConfig {
            semantics,
            max_lhs: 4,
            threads,
            cache_budget: DEFAULT_CACHE_BUDGET,
        }
    }

    /// Overrides the LHS cap.
    pub fn with_max_lhs(mut self, max_lhs: usize) -> Self {
        self.max_lhs = max_lhs;
        self
    }

    /// Overrides the worker-thread count (0 means all available cores).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = if threads == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            threads
        };
        self
    }

    /// Overrides the partition [`Store`]'s byte budget.
    pub fn with_cache_budget(mut self, bytes: usize) -> Self {
        self.cache_budget = bytes;
        self
    }
}

/// Outcome of a mining run.
#[derive(Debug, Clone)]
pub struct MiningResult {
    /// Minimal FDs, one entry per minimal LHS.
    pub fds: Vec<MinedFd>,
    /// Wall-clock time of the run.
    pub elapsed: std::time::Duration,
    /// Number of candidate LHSs whose partition was evaluated.
    pub candidates_checked: usize,
}

impl MiningResult {
    /// Total number of (LHS, attribute) pairs, i.e. FDs counted
    /// attribute-wise.
    pub fn fd_count_attrwise(&self) -> usize {
        self.fds.iter().map(|f| f.rhs.len()).sum()
    }
}

/// Generates all `k`-subsets of `attrs`, in combination order — the
/// order in which [`Walk::level`] hands out each level's candidates,
/// and with it the order of every mined list.
pub(crate) fn k_subsets(attrs: &[Attr], k: usize) -> Vec<AttrSet> {
    let mut out = Vec::new();
    let n = attrs.len();
    if k > n {
        return out;
    }
    let mut idx: Vec<usize> = (0..k).collect();
    loop {
        out.push(idx.iter().map(|&i| attrs[i]).collect());
        // Next combination.
        let mut i = k;
        loop {
            if i == 0 {
                return out;
            }
            i -= 1;
            if idx[i] != i + n - k {
                break;
            }
            if i == 0 {
                return out;
            }
        }
        idx[i] += 1;
        for j in i + 1..k {
            idx[j] = idx[j - 1] + 1;
        }
    }
}

/// Mines minimal non-trivial FDs from an instance.
pub fn mine_fds(table: &Table, config: MinerConfig) -> MiningResult {
    let started = Instant::now();
    let enc = Encoded::new(table);
    mine_fds_encoded(&enc, table.schema().arity(), config, started)
}

/// Mines from a pre-encoded instance (lets callers share the encoding
/// across several mining runs, as the discovery experiment does).
pub fn mine_fds_encoded(
    enc: &Encoded,
    arity: usize,
    config: MinerConfig,
    started: Instant,
) -> MiningResult {
    let pass = traverse(enc, arity, config, false, &ProbeCache::new(enc));
    MiningResult {
        candidates_checked: pass.checked,
        fds: pass.into_fds(config.semantics),
        elapsed: started.elapsed(),
    }
}

/// Minimal keys of an instance.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MinedKeys {
    /// Subset-minimal possible keys.
    pub pkeys: Vec<AttrSet>,
    /// Subset-minimal certain keys (every c-key is also a p-key, but a
    /// *minimal* c-key need not be a minimal p-key).
    pub ckeys: Vec<AttrSet>,
}

/// What one lattice walk found, each list in candidate (level, then
/// combination) order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Lattice {
    /// Minimal FDs of the swept semantics (possible, in a report).
    pub fds: Vec<MinedFd>,
    /// Minimal certain FDs.
    pub certain: Vec<MinedFd>,
    /// Minimal keys (a report only).
    pub keys: MinedKeys,
    /// Candidates evaluated.
    pub checked: usize,
}

impl Lattice {
    /// The minimal FDs of a single-semantics walk for `sem`.
    pub(crate) fn into_fds(self, sem: Semantics) -> Vec<MinedFd> {
        if sem == Semantics::Certain {
            self.certain
        } else {
            self.fds
        }
    }
}

/// A candidate `X` and the questions still open at it; once settled,
/// the same fields hold the answers. `X` is a candidate while any
/// question is open: every question's lattice is downward closed, so
/// every immediate prefix of a candidate was a candidate one level
/// down.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Candidate {
    pub(crate) x: AttrSet,
    /// Targets of the swept semantics no minimal FD covers yet; then
    /// those `x` determines.
    pub(crate) swept: AttrSet,
    /// The same for certain FDs.
    pub(crate) certain: AttrSet,
    /// No p-key is a subset of `x`; then: `x` is a minimal p-key.
    pub(crate) pkey: bool,
    /// The same for c-keys.
    pub(crate) ckey: bool,
}

impl Candidate {
    /// Whether any question is open (or, settled, any answer found).
    fn open(&self) -> bool {
        self.pkey || self.ckey || !(self.swept | self.certain).is_empty()
    }
}

/// Default byte budget of the [`Store`] (64 MiB): roomy for the
/// paper-scale workloads while bounding the worst case on wide, tall
/// tables. The CLI exposes it as `--cache-budget`.
pub const DEFAULT_CACHE_BUDGET: usize = 64 << 20;

/// The bytes a stored partition charges against the budget.
fn stored_bytes(p: &Partition) -> usize {
    p.approx_bytes() + std::mem::size_of::<AttrSet>()
}

/// The one partition store of a lattice walk: the single-attribute
/// partitions, and the multi-attribute partitions of the levels still
/// in use, under one byte budget ([`MinerConfig::cache_budget`]; the
/// singles are not charged). A candidate's `π_x` comes from `x`'s own
/// codes when `x` passes the counting-sort gate
/// ([`Encoded::code_space`]) and no `(k−1)`-prefix of it is stored —
/// singles and pairs never have one: one counting sort
/// ([`Partition::by_codes`]), or no partition at all when no later
/// level reads it ([`crate::check::code_sweep`]). Otherwise it is one
/// product of a stored prefix refined by one more attribute's
/// dictionary codes ([`Partition::product_attr`]: the cost is the
/// prefix's stripped rows, not the table's).
///
/// A single is built only when a candidate too wide for the gate needs
/// it: as its own partition, as the prefix of a pair, or to fold a
/// prefix the budget evicted.
///
/// Two drivers use it. The from-scratch walk builds the singles a
/// level needs at its start (`Store::ensure_singles`) and reads the
/// store shared across its workers; each stored level replaces the one
/// below. The incremental replay builds a single when first asked and
/// a missing partition once, through the store, keeping it for its
/// level ([`Store::partition`]); it retires a level with
/// [`Store::evict_below`].
///
/// Counters: `discovery.mine.prev_level.hits` / `.misses` (a partition
/// looked for in the store was resident / had to be built),
/// `.evictions` (partitions retired with their level or refused by the
/// budget) and `.bytes` (high-water mark of the charged bytes).
pub struct Store {
    ns: NullSemantics,
    budget: usize,
    singles: Vec<Option<Partition>>,
    stored: HashMap<AttrSet, Partition>,
    bytes: usize,
}

impl Store {
    /// An empty store over `arity` columns: no single is built yet.
    pub fn new(arity: usize, ns: NullSemantics, budget: usize) -> Store {
        Store {
            ns,
            budget,
            singles: vec![None; arity],
            stored: HashMap::new(),
            bytes: 0,
        }
    }

    /// Builds every single a wide candidate among `xs` reads and the
    /// store lacks: the candidates past the gate with no stored prefix.
    /// Each is an independent table sweep, so with threads they are
    /// built off a shared atomic cursor.
    fn ensure_singles(
        &mut self,
        enc: &Encoded,
        xs: impl IntoIterator<Item = AttrSet>,
        threads: usize,
    ) {
        let wide: AttrSet = xs
            .into_iter()
            .filter(|&x| enc.code_space(x).is_none() && self.stored_prefix(x).is_none())
            .fold(AttrSet::EMPTY, |acc, x| acc | x);
        let missing: Vec<Attr> = wide.iter().filter(|&a| self.single(a).is_none()).collect();
        let ns = self.ns;
        let built = par_map(
            threads,
            2,
            missing.len(),
            || (),
            |_, i| Partition::by_codes(enc, AttrSet::single(missing[i]), ns),
        );
        for (a, p) in missing.into_iter().zip(built) {
            self.singles[a.index()] = Some(p);
        }
    }

    /// The single of `a`, if built.
    fn single(&self, a: Attr) -> Option<&Partition> {
        self.singles[a.index()].as_ref()
    }

    /// The cheapest stored `(k−1)`-prefix of a level-`k` candidate `x`
    /// (`k ≥ 3`; singles and pairs have none) and the attribute it is
    /// refined by: a product costs exactly the prefix's stripped rows.
    /// Ties keep the first attribute left out.
    fn stored_prefix(&self, x: AttrSet) -> Option<(&Partition, Attr)> {
        if x.len() < 3 {
            return None;
        }
        let mut best: Option<(&Partition, Attr)> = None;
        for a in x {
            if let Some(p) = self.stored.get(&(x - AttrSet::single(a))) {
                if best.is_none_or(|(q, _)| p.stripped_rows() < q.stripped_rows()) {
                    best = Some((p, a));
                }
            }
        }
        best
    }

    /// Whether `π_x` comes from `x`'s own codes: `x` passes the gate and
    /// no prefix of it is stored.
    fn coded(&self, enc: &Encoded, x: AttrSet) -> bool {
        enc.code_space(x).is_some() && self.stored_prefix(x).is_none()
    }

    /// The estimated rows a check of `x` sweeps: the table's for a
    /// candidate from its codes, its stored prefix's stripped rows, and
    /// pessimistically twice the table's for a fold.
    fn prefix_cost(&self, enc: &Encoded, x: AttrSet) -> usize {
        if self.coded(enc, x) {
            return enc.rows();
        }
        self.stored_prefix(x)
            .map_or(enc.rows().saturating_mul(2), |(p, _)| p.stripped_rows())
    }

    /// [`traverse`]'s `(k−1)`-prefix of a level-`k` candidate `x`
    /// (`k ≥ 2`) and the attribute it is refined by: the cheapest stored
    /// one; for a pair, its more selective single. Every immediate prefix
    /// of a candidate was a candidate one level down, so only an
    /// eviction, or a prefix that was never stored, leaves none; the
    /// prefix is then folded from the singles, smallest first, and
    /// refined by the least selective one.
    fn prefix(
        &self,
        enc: &Encoded,
        x: AttrSet,
        scratch: &mut ProductScratch,
    ) -> (Cow<'_, Partition>, Attr) {
        if let Some((p, by)) = self.stored_prefix(x) {
            sqlnf_obs::count!("discovery.mine.prev_level.hits");
            return (Cow::Borrowed(p), by);
        }
        let single = |a: Attr| {
            self.single(a)
                .expect("the level builds the singles of its wide candidates")
        };
        let mut attrs: Vec<Attr> = x.iter().collect();
        if let [a, b] = attrs[..] {
            return if single(b).stripped_rows() < single(a).stripped_rows() {
                (Cow::Borrowed(single(b)), a)
            } else {
                (Cow::Borrowed(single(a)), b)
            };
        }
        sqlnf_obs::count!("discovery.mine.prev_level.misses");
        attrs.sort_by_key(|&a| single(a).stripped_rows());
        let by = attrs.pop().expect("level ≥ 3");
        let mut p = single(attrs[0]).product_attr(enc, attrs[1], self.ns, scratch);
        for &b in &attrs[2..] {
            p = p.product_attr(enc, b, self.ns, scratch);
        }
        (Cow::Owned(p), by)
    }

    /// [`traverse`]'s `π_x` for a level-`k` candidate: a built single,
    /// one counting sort when it comes from its codes, else one product
    /// of its [`Store::prefix`].
    fn candidate(
        &self,
        enc: &Encoded,
        x: AttrSet,
        scratch: &mut ProductScratch,
    ) -> Cow<'_, Partition> {
        if let Some(p) = x
            .first()
            .filter(|_| x.len() == 1)
            .and_then(|a| self.single(a))
        {
            return Cow::Borrowed(p);
        }
        if x.len() < 2 || self.coded(enc, x) {
            return Cow::Owned(Partition::by_codes(enc, x, self.ns));
        }
        let (prefix, by) = self.prefix(enc, x, scratch);
        Cow::Owned(prefix.product_attr(enc, by, self.ns, scratch))
    }

    /// The incremental replay's `π_x`, served from the store or built
    /// through it and kept under the budget: a single when first asked;
    /// one counting sort when `x` comes from its codes; else one product
    /// of the cheapest stored prefix or, when none is stored, of `x`
    /// minus its last attribute, built here the same way.
    pub fn partition(
        &mut self,
        enc: &Encoded,
        x: AttrSet,
        scratch: &mut ProductScratch,
    ) -> Cow<'_, Partition> {
        let ns = self.ns;
        if x.len() < 2 {
            let Some(a) = x.first() else {
                return Cow::Owned(Partition::universal(enc.rows()));
            };
            let single = &mut self.singles[a.index()];
            return Cow::Borrowed(
                single.get_or_insert_with(|| Partition::by_codes(enc, AttrSet::single(a), ns)),
            );
        }
        if self.stored.contains_key(&x) {
            sqlnf_obs::count!("discovery.mine.prev_level.hits");
            return Cow::Borrowed(&self.stored[&x]);
        }
        sqlnf_obs::count!("discovery.mine.prev_level.misses");
        let p = if self.coded(enc, x) {
            Partition::by_codes(enc, x, ns)
        } else {
            let by = match self.stored_prefix(x) {
                Some((_, by)) => by,
                None => x.iter().last().expect("a pair or more"),
            };
            let prefix = self.partition(enc, x - AttrSet::single(by), scratch);
            prefix.product_attr(enc, by, ns, scratch)
        };
        match self.admit(x, p) {
            None => Cow::Borrowed(&self.stored[&x]),
            Some(p) => Cow::Owned(p),
        }
    }

    /// Stores `p` as `π_x` if the budget allows; else hands it back,
    /// counted as an eviction.
    fn admit(&mut self, x: AttrSet, p: Partition) -> Option<Partition> {
        let sz = stored_bytes(&p);
        if self.bytes.saturating_add(sz) > self.budget {
            sqlnf_obs::count!("discovery.mine.prev_level.evictions");
            return Some(p);
        }
        self.bytes += sz;
        sqlnf_obs::count_max!("discovery.mine.prev_level.bytes", self.bytes);
        self.stored.insert(x, p);
        None
    }

    /// Retires every stored partition below level `k` and stores the
    /// level-`k` partitions `parts`, in order, while the budget allows.
    fn replace_level(&mut self, k: usize, parts: impl IntoIterator<Item = (AttrSet, Partition)>) {
        self.evict_below(k);
        for (x, p) in parts {
            self.admit(x, p);
        }
    }

    /// Retires every stored partition of fewer than `min_len`
    /// attributes: a level-`k` product only reads level `k−1`.
    pub fn evict_below(&mut self, min_len: usize) {
        let before = self.stored.len();
        self.stored.retain(|x, _| x.len() >= min_len);
        let dropped = before - self.stored.len();
        if dropped > 0 {
            sqlnf_obs::count!("discovery.mine.prev_level.evictions", dropped);
            self.bytes = self.stored.values().map(stored_bytes).sum();
        }
    }
}

/// `f(state, i)` for every `i < n`, in index order. With `threads > 1`
/// and at least `min` items, scoped workers pull indexes off one atomic
/// cursor, each with its own `init()` state; otherwise one state serves
/// a serial loop.
fn par_map<S, T: Send>(
    threads: usize,
    min: usize,
    n: usize,
    init: impl Fn() -> S + Sync,
    f: impl Fn(&mut S, usize) -> T + Sync,
) -> Vec<T> {
    if threads <= 1 || n < min {
        let mut state = init();
        return (0..n).map(|i| f(&mut state, i)).collect();
    }
    let cursor = AtomicUsize::new(0);
    let mut slots: Vec<Option<T>> = Vec::new();
    slots.resize_with(n, || None);
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads.min(n))
            .map(|_| {
                scope.spawn(|| {
                    let mut state = init();
                    let mut out = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        out.push((i, f(&mut state, i)));
                    }
                    out
                })
            })
            .collect();
        for w in workers {
            for (i, t) in w.join().expect("worker panicked") {
                slots[i] = Some(t);
            }
        }
    });
    slots
        .into_iter()
        .map(|t| t.expect("every item built exactly once"))
        .collect()
}

/// One level's worth of work for a persistent pool worker: the shared
/// candidate slice, the cost-descending visit order, the atomic cursor
/// every worker pulls from, and the store the level reads.
struct LevelJob {
    candidates: Arc<Vec<Candidate>>,
    order: Arc<Vec<u32>>,
    cursor: Arc<AtomicUsize>,
    store: Arc<Store>,
    keep: bool,
}

/// What a worker sends back per level: settled answers and the
/// partitions kept for the next level, each tagged with the candidate
/// index so the main thread can restore candidate order exactly
/// regardless of which worker pulled what.
struct LevelOut {
    settled: Vec<(u32, Candidate)>,
    kept: Vec<(u32, AttrSet, Partition)>,
}

/// The deterministic visit order for one level: candidate indexes
/// sorted by estimated check cost, most expensive first (LPT — longest
/// processing time — scheduling), ties broken by candidate index. The
/// estimate is what the check actually sweeps: the stripped rows of
/// the prefix partition the candidate will refine, or the table's rows
/// for one from its codes (see [`Store::prefix_cost`]).
fn cost_order(candidates: &[Candidate], k: usize, enc: &Encoded, store: &Store) -> Vec<u32> {
    let mut order: Vec<u32> = (0..candidates.len() as u32).collect();
    if k < 2 {
        return order;
    }
    let costs: Vec<usize> = candidates
        .iter()
        .map(|c| store.prefix_cost(enc, c.x))
        .collect();
    order.sort_by_key(|&i| (std::cmp::Reverse(costs[i as usize]), i));
    order
}

/// The last lattice level's working set when the pre-last level was
/// check-only: each candidate refines exactly one `(k−1)`-prefix, so
/// only the *distinct* chosen prefixes are materialized — from the
/// stored level-`(k−2)` partitions, one product each, in first-use
/// order (which drives the byte-budget admission). The choice rule is
/// the cheapest **estimated** prefix ([`Store::prefix_cost`]): prefix
/// choice affects throughput only, never the refined result, so
/// estimating instead of measuring is sound. Ties break on the
/// smallest omitted attribute.
fn build_needed_prefixes(
    enc: &Encoded,
    candidates: &[Candidate],
    store: &mut Arc<Store>,
    threads: usize,
) -> Vec<(AttrSet, Partition)> {
    let mut needed: Vec<AttrSet> = Vec::new();
    let mut seen: std::collections::HashSet<AttrSet> = std::collections::HashSet::new();
    for &Candidate { x, .. } in candidates {
        let mut best: Option<(usize, Attr)> = None;
        for a in x {
            let e = store.prefix_cost(enc, x - AttrSet::single(a));
            if best.is_none_or(|(be, _)| e < be) {
                best = Some((e, a));
            }
        }
        let Some((min_est, best_a)) = best else {
            continue;
        };
        // Greedy sharing: a prefix already being built is free, so any
        // of the candidate's prefixes within 2× of the cheapest
        // estimate that is already chosen wins over minting a new one.
        // The check sweep aborts at the first refuting row, so a
        // same-magnitude prefix costs it nearly nothing — while every
        // *distinct* prefix costs a full product. Still deterministic:
        // `seen` evolves in candidate order.
        let chosen = x
            .iter()
            .map(|a| x - AttrSet::single(a))
            .find(|s| store.prefix_cost(enc, *s) <= min_est.saturating_mul(2) && seen.contains(s))
            .unwrap_or(x - AttrSet::single(best_a));
        if seen.insert(chosen) {
            needed.push(chosen);
        }
    }
    sqlnf_obs::count!("discovery.mine.lazy_prefix_builds", needed.len());
    level_store(store).ensure_singles(enc, needed.iter().copied(), threads);
    let store = &**store;
    let built = par_map(
        threads,
        PAR_MIN,
        needed.len(),
        || ProductScratch::for_encoded(enc),
        |scratch, i| store.candidate(enc, needed[i], scratch).into_owned(),
    );
    needed.into_iter().zip(built).collect()
}

/// The fixed context of one pass, shared by every worker.
struct Pass<'a> {
    enc: &'a Encoded,
    /// The semantics whose class rule the strong sweep applies.
    sem: Semantics,
    ns: NullSemantics,
    probes: &'a ProbeCache,
}

impl Pass<'_> {
    /// Answers every open question of one candidate with one sweep of
    /// its classes under the swept semantics' class rule, over the union
    /// of both planes' targets; a c-FD is a p-FD, so the certain tail
    /// only probes the survivors, and only a p-key can be a c-key. When
    /// `keep`, the partition is materialized and handed back for the
    /// next level's store. Otherwise no partition is kept: a candidate
    /// from its codes is swept in row order by its mixed-radix code, one
    /// with a stored prefix (or too wide for the gate) by the fused
    /// product of its prefix; only a single past the gate is built.
    fn settle(
        &self,
        c: Candidate,
        store: &Store,
        keep: bool,
        scratch: &mut ProductScratch,
    ) -> (Candidate, Option<Partition>) {
        let (enc, x) = (self.enc, c.x);
        let targets = c.swept | c.certain;
        let keyed = c.pkey || c.ckey;
        let mut kept = None;
        let (holding, pair) = if !keep && store.coded(enc, x) {
            code_sweep(enc, x, self.ns, targets, self.sem, scratch, keyed)
        } else if !keep && x.len() >= 2 {
            let (prefix, by) = store.prefix(enc, x, scratch);
            refinement_sweep(enc, &prefix, by, self.ns, targets, self.sem, scratch, keyed)
        } else {
            let p = store.candidate(enc, x, scratch);
            let holding = fd_targets_holding(enc, x, &p, targets, self.sem, None);
            let pair = !p.is_empty();
            if keep {
                kept = Some(p.into_owned());
            }
            (holding, pair)
        };
        let certain = holding & c.certain;
        let settled = Candidate {
            x,
            swept: holding & c.swept,
            certain: if certain.is_empty() {
                certain
            } else {
                self.probes.fd_targets(enc, x, certain)
            },
            pkey: c.pkey && !pair,
            ckey: c.ckey && !pair && self.probes.first_weak_pair(enc, x).is_none(),
        };
        (settled, kept)
    }

    /// Drains the level's work queue from one thread: pulls candidate
    /// positions off the shared cursor until the order is exhausted,
    /// settling each candidate and (when `keep` is set) collecting
    /// owned partitions for the next level's store. Both output
    /// streams are tagged with the candidate index. Also used by the
    /// serial path (with a trivial identity order), so serial and
    /// parallel runs share one code path.
    #[allow(clippy::too_many_arguments)]
    fn run_queue(
        &self,
        candidates: &[Candidate],
        order: &[u32],
        cursor: &AtomicUsize,
        store: &Store,
        keep: bool,
        scratch: &mut ProductScratch,
    ) -> LevelOut {
        let _busy = sqlnf_obs::span!("discovery.mine.worker_busy_ns");
        let mut out = LevelOut {
            settled: Vec::new(),
            kept: Vec::new(),
        };
        let mut processed = 0usize;
        loop {
            let pos = cursor.fetch_add(1, Ordering::Relaxed);
            if pos >= order.len() {
                break;
            }
            let i = order[pos];
            let c = candidates[i as usize];
            processed += 1;
            let (settled, kept) = self.settle(c, store, keep, scratch);
            if settled.open() {
                out.settled.push((i, settled));
            }
            if let Some(p) = kept {
                out.kept.push((i, c.x, p));
            }
        }
        sqlnf_obs::count!("discovery.mine.worker_candidates", processed);
        out
    }
}

/// The attributes of `plane` outside `x` that no recorded minimal LHS
/// (`minimal[a]` for target `a`) inside `x` determines yet.
fn uncovered(minimal: &[Vec<AttrSet>], plane: AttrSet, x: AttrSet) -> AttrSet {
    (plane - x)
        .iter()
        .filter(|a| !minimal[a.index()].iter().any(|y| y.is_subset(x)))
        .collect()
}

/// The bookkeeping of one level-wise lattice walk, shared by both
/// miners: [`traverse`] settles each candidate from its partitions,
/// the incremental replay from its verdict caches. Candidates of one
/// level never cover each other, so a level may be settled in any
/// order, as long as it is recorded in candidate order before the next
/// level is asked for.
pub(crate) struct Walk {
    attrs: Vec<Attr>,
    /// The semantics whose class rule settles the swept plane.
    pub(crate) sem: Semantics,
    /// The targets each plane asks about: the swept semantics', and
    /// the certain tail's.
    planes: [AttrSet; 2],
    /// Whether keys are asked (a report).
    keys: bool,
    /// The last level walked.
    pub(crate) last_level: usize,
    /// `minimal[plane][a]` = the minimal LHSs recorded for target `a`.
    minimal: [Vec<Vec<AttrSet>>; 2],
    /// What the walk found.
    pub(crate) found: Lattice,
}

impl Walk {
    /// The walk of a report (possible and certain FDs and keys, levels
    /// up to `min(max_lhs, arity)`) or of `sem`'s FDs alone (up to
    /// `min(max_lhs, arity − 1)`: a full-width LHS has no targets).
    /// Certain FDs are the possible class rule plus the certain tail,
    /// so a certain walk sweeps no targets of its own.
    pub(crate) fn new(arity: usize, max_lhs: usize, sem: Semantics, report: bool) -> Walk {
        let attrs: Vec<Attr> = (0..arity).map(Attr::from).collect();
        let all: AttrSet = attrs.iter().copied().collect();
        let (sem, planes) = match (report, sem) {
            (true, _) => (Semantics::Possible, [all, all]),
            (false, Semantics::Certain) => (Semantics::Possible, [AttrSet::EMPTY, all]),
            (false, sem) => (sem, [all, AttrSet::EMPTY]),
        };
        Walk {
            attrs,
            sem,
            planes,
            keys: report,
            last_level: max_lhs.min(arity.saturating_sub(usize::from(!report))),
            minimal: [vec![Vec::new(); arity], vec![Vec::new(); arity]],
            found: Lattice::default(),
        }
    }

    /// This report walk without its FD questions: the minimal keys
    /// alone.
    pub(crate) fn keys_only(mut self) -> Walk {
        self.planes = [AttrSet::EMPTY; 2];
        self
    }

    /// The level-`k` candidates with a question open, in combination
    /// order.
    pub(crate) fn level(&mut self, k: usize) -> Vec<Candidate> {
        sqlnf_obs::count!("discovery.mine.lattice_levels");
        let generated = k_subsets(&self.attrs, k);
        let generated_count = generated.len();
        let candidates: Vec<Candidate> = generated
            .into_iter()
            .map(|x| Candidate {
                x,
                swept: uncovered(&self.minimal[0], self.planes[0], x),
                certain: uncovered(&self.minimal[1], self.planes[1], x),
                pkey: self.keys && !self.found.keys.pkeys.iter().any(|y| y.is_subset(x)),
                ckey: self.keys && !self.found.keys.ckeys.iter().any(|y| y.is_subset(x)),
            })
            .filter(Candidate::open)
            .collect();
        let pruned = generated_count - candidates.len();
        self.found.checked += candidates.len();
        sqlnf_obs::count!("discovery.mine.candidates_checked", candidates.len());
        sqlnf_obs::count!("discovery.mine.candidates_pruned", pruned);
        sqlnf_obs::trace!(
            "mine level {k}: {} candidates ({pruned} pruned)",
            candidates.len()
        );
        candidates
    }

    /// Records a settled candidate: its determined targets as minimal
    /// FDs, its surviving key flags as minimal keys.
    pub(crate) fn record(&mut self, s: Candidate) {
        let lhs = s.x;
        for (plane, rhs, list) in [
            (0, s.swept, &mut self.found.fds),
            (1, s.certain, &mut self.found.certain),
        ] {
            if !rhs.is_empty() {
                for a in rhs {
                    self.minimal[plane][a.index()].push(lhs);
                }
                list.push(MinedFd { lhs, rhs });
            }
        }
        if s.pkey {
            self.found.keys.pkeys.push(lhs);
        }
        if s.ckey {
            self.found.keys.ckeys.push(lhs);
        }
    }
}

/// The level-wise traversal of the strong-partition lattice (or, for
/// classical FDs, the null-as-value one) behind every from-scratch
/// miner of this crate: the [`Walk`] of `config.semantics`' minimal
/// FDs, or with `report` the `MINE` report's minimal possible and
/// certain FDs and keys, each candidate settled from its partitions by
/// one sweep of its classes (see [`Pass::settle`]).
pub(crate) fn traverse(
    enc: &Encoded,
    arity: usize,
    config: MinerConfig,
    report: bool,
    probes: &ProbeCache,
) -> Lattice {
    let _span = sqlnf_obs::span!("mine_fds");
    let mut walk = Walk::new(arity, config.max_lhs, config.semantics, report);
    let (sem, last_level) = (walk.sem, walk.last_level);
    let ns = null_semantics(sem);
    // One probe cache for the whole run, shared by every worker:
    // certain-semantics candidates with the same nullable footprint
    // reuse one index (see `check::ProbeCache`).
    let pass = Pass {
        enc,
        sem,
        ns,
        probes,
    };
    let pass = &pass;
    let mut store = Arc::new(Store::new(arity, ns, config.cache_budget));

    // One scope for the whole run: workers (spawned lazily at the first
    // level big enough to parallelise) persist across levels, each
    // owning its product scratch. Dropping the pool at scope end closes
    // the job channels and lets the workers drain out.
    std::thread::scope(|scope| {
        let mut pool: Vec<(Sender<LevelJob>, Receiver<LevelOut>)> = Vec::new();
        let mut scratch = ProductScratch::for_encoded(enc);

        for k in 0..=last_level {
            let candidates = Arc::new(walk.level(k));

            // Keep this level's partitions only if the next level will
            // consult them (level-2 candidates come from their codes or
            // refine a single, so level-1 partitions are never stored).
            // On a deep lattice the *pre-last* level is also check-only:
            // each last-level candidate refines exactly one prefix
            // partition, so the last level materializes only the
            // distinct prefixes actually chosen (see
            // [`build_needed_prefixes`]) instead of eagerly building
            // every pre-last candidate's partition — on adult-shaped
            // tables that eager build dominated the whole run.
            let defer_prelast = last_level >= 4;
            let keep = k >= 2
                && k < if defer_prelast {
                    last_level - 1
                } else {
                    last_level
                };
            if defer_prelast && k == last_level {
                let needed = build_needed_prefixes(enc, &candidates, &mut store, config.threads);
                level_store(&mut store).replace_level(k - 1, needed);
            }
            // The singles this level's wide candidates read, if any.
            let xs = candidates.iter().map(|c| c.x);
            level_store(&mut store).ensure_singles(enc, xs, config.threads);

            let outs: Vec<LevelOut> =
                if config.threads > 1 && candidates.len() >= PAR_MIN.max(config.threads) {
                    if pool.is_empty() {
                        for _ in 0..config.threads {
                            let (job_tx, job_rx) = channel::<LevelJob>();
                            let (out_tx, out_rx) = channel::<LevelOut>();
                            scope.spawn(move || {
                                sqlnf_obs::count!("discovery.mine.worker_spawns");
                                let mut scratch = ProductScratch::for_encoded(enc);
                                for job in job_rx {
                                    let out = pass.run_queue(
                                        &job.candidates,
                                        &job.order,
                                        &job.cursor,
                                        &job.store,
                                        job.keep,
                                        &mut scratch,
                                    );
                                    // Release the level's store before
                                    // replying: the main thread updates
                                    // it once every worker has replied.
                                    drop(job);
                                    if out_tx.send(out).is_err() {
                                        break;
                                    }
                                }
                            });
                            pool.push((job_tx, out_rx));
                        }
                    }
                    // One shared queue: every worker pulls candidates
                    // (most expensive first) off the same cursor, so no
                    // thread idles while another drains a heavy chunk.
                    let order = Arc::new(cost_order(&candidates, k, enc, &store));
                    let cursor = Arc::new(AtomicUsize::new(0));
                    for (job_tx, _) in &pool {
                        job_tx
                            .send(LevelJob {
                                candidates: Arc::clone(&candidates),
                                order: Arc::clone(&order),
                                cursor: Arc::clone(&cursor),
                                store: Arc::clone(&store),
                                keep,
                            })
                            .expect("miner worker hung up");
                    }
                    pool.iter()
                        .map(|(_, out_rx)| out_rx.recv().expect("miner worker panicked"))
                        .collect()
                } else {
                    let order: Vec<u32> = (0..candidates.len() as u32).collect();
                    let cursor = AtomicUsize::new(0);
                    vec![pass.run_queue(&candidates, &order, &cursor, &store, keep, &mut scratch)]
                };

            // Merge this level — answers and kept partitions sorted back
            // into candidate order first, so the result and the store's
            // contents (budget admission included) never depend on which
            // worker processed what — and, when it is kept, let it
            // replace the level below (a check-only pre-last level
            // leaves it: the last level still products from it).
            let mut settled: Vec<(u32, Candidate)> = Vec::new();
            let mut kept: Vec<(u32, AttrSet, Partition)> = Vec::new();
            for out in outs {
                settled.extend(out.settled);
                kept.extend(out.kept);
            }
            settled.sort_by_key(|&(i, _)| i);
            kept.sort_by_key(|s| s.0);
            for (_, s) in settled {
                walk.record(s);
            }
            if keep {
                level_store(&mut store).replace_level(k, kept.into_iter().map(|(_, x, p)| (x, p)));
            }
        }
    });
    walk.found
}

/// The store between two levels, when no worker holds it.
fn level_store(store: &mut Arc<Store>) -> &mut Store {
    Arc::get_mut(store).expect("workers release the store before replying")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::fd_holds;
    use sqlnf_model::prelude::*;

    #[test]
    fn k_subsets_counts() {
        let attrs: Vec<Attr> = (0..5).map(Attr::from).collect();
        assert_eq!(k_subsets(&attrs, 0), vec![AttrSet::EMPTY]);
        assert_eq!(k_subsets(&attrs, 1).len(), 5);
        assert_eq!(k_subsets(&attrs, 2).len(), 10);
        assert_eq!(k_subsets(&attrs, 3).len(), 10);
        assert_eq!(k_subsets(&attrs, 5).len(), 1);
        assert_eq!(k_subsets(&attrs, 6).len(), 0);
        // All distinct and of the right size.
        let threes = k_subsets(&attrs, 3);
        assert!(threes.iter().all(|s| s.len() == 3));
    }

    fn sample() -> Table {
        // b is a function of a; c is a function of (a,d) but not of a or
        // d alone; e is constant.
        TableBuilder::new("r", ["a", "b", "c", "d", "e"], &[])
            .row(tuple![1i64, 10i64, 100i64, 1i64, 7i64])
            .row(tuple![1i64, 10i64, 200i64, 2i64, 7i64])
            .row(tuple![2i64, 20i64, 100i64, 2i64, 7i64])
            .row(tuple![2i64, 20i64, 200i64, 1i64, 7i64])
            .build()
    }

    #[test]
    fn mines_planted_structure() {
        let t = sample();
        let res = mine_fds(&t, MinerConfig::new(Semantics::Classical));
        let s = t.schema().clone();
        let find = |lhs: AttrSet| res.fds.iter().find(|f| f.lhs == lhs);
        // ∅ → e (constant column).
        let empty = find(AttrSet::EMPTY).expect("constant column");
        assert!(empty.rhs.contains(s.a("e")));
        // a → b minimal.
        let a = find(AttrSet::single(s.a("a"))).expect("a → b");
        assert!(a.rhs.contains(s.a("b")));
        assert!(!a.rhs.contains(s.a("c")));
        // (a,d) → c minimal (with b ↔ a, (b,d) → c also minimal).
        let ad = find(s.set(&["a", "d"])).expect("ad → c");
        assert!(ad.rhs.contains(s.a("c")));
    }

    #[test]
    fn minimality_is_respected() {
        let t = sample();
        let res = mine_fds(&t, MinerConfig::new(Semantics::Classical));
        let e = Encoded::new(&t);
        for fd in &res.fds {
            for a in fd.rhs {
                // Holds at the recorded LHS…
                assert!(fd_holds(&e, fd.lhs, a, Semantics::Classical));
                // …and at no immediate subset.
                for b in fd.lhs {
                    let smaller = fd.lhs - AttrSet::single(b);
                    assert!(
                        !fd_holds(&e, smaller, a, Semantics::Classical),
                        "lhs={:?} a={a:?} not minimal",
                        fd.lhs
                    );
                }
            }
        }
    }

    #[test]
    fn semantics_differ_on_nulls() {
        // a has a null: p-FD a →_s b holds (null row is similar to
        // nothing) but the c-FD fails (⊥ weakly matches both groups);
        // classically (⊥ a value) it also holds.
        let t = TableBuilder::new("r", ["a", "b"], &[])
            .row(tuple![1i64, 10i64])
            .row(tuple![null, 20i64])
            .row(tuple![2i64, 30i64])
            .build();
        let possible = mine_fds(&t, MinerConfig::new(Semantics::Possible));
        let certain = mine_fds(&t, MinerConfig::new(Semantics::Certain));
        let classical = mine_fds(&t, MinerConfig::new(Semantics::Classical));
        let weak = mine_fds(&t, MinerConfig::new(Semantics::Weak));
        let a = AttrSet::from_indices([0]);
        let b = sqlnf_model::attrs::Attr(1);
        let has = |r: &MiningResult| r.fds.iter().any(|f| f.lhs == a && f.rhs.contains(b));
        assert!(has(&possible));
        assert!(has(&classical));
        assert!(!has(&certain));
        // Weak is laxer still: the ⊥ row's fresh completion never
        // collides with 1 or 2, so a →_weak b holds like the p-FD.
        assert!(has(&weak));
    }

    /// certain ⊆ weak as *mined sets*, checked semantically: every
    /// certain-mined `lhs → a` must be covered by a weak-mined FD with
    /// `Y ⊆ lhs` determining `a` (minimal LHSs can genuinely shrink
    /// under the laxer semantics).
    #[test]
    fn certain_mined_contained_in_weak_mined() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(23);
        for case in 0..12 {
            let schema = TableSchema::new(
                "r",
                (0..5).map(|i| format!("c{i}")).collect::<Vec<_>>(),
                &[],
            );
            let mut t = Table::new(schema);
            for _ in 0..40 {
                t.push(Tuple::new(
                    (0..5)
                        .map(|_| {
                            if rng.gen_bool(0.2) {
                                Value::Null
                            } else {
                                Value::Int(rng.gen_range(0..4))
                            }
                        })
                        .collect::<Vec<_>>(),
                ));
            }
            let certain = mine_fds(&t, MinerConfig::new(Semantics::Certain).with_max_lhs(3));
            let weak = mine_fds(&t, MinerConfig::new(Semantics::Weak).with_max_lhs(3));
            for fd in &certain.fds {
                for a in fd.rhs {
                    assert!(
                        weak.fds
                            .iter()
                            .any(|w| w.lhs.is_subset(fd.lhs) && w.rhs.contains(a)),
                        "case {case}: certain {:?} -> {a:?} uncovered weakly\n{t}",
                        fd.lhs
                    );
                }
            }
        }
    }

    #[test]
    fn max_lhs_cap_is_respected() {
        let t = sample();
        let res = mine_fds(&t, MinerConfig::new(Semantics::Classical).with_max_lhs(1));
        assert!(res.fds.iter().all(|f| f.lhs.len() <= 1));
        assert!(res.candidates_checked > 0);
    }

    #[test]
    fn parallel_equals_serial() {
        // Determinism across thread counts, all semantics, on a table
        // large enough to trigger the parallel path.
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(11);
        let schema = TableSchema::new(
            "r",
            (0..8).map(|i| format!("c{i}")).collect::<Vec<_>>(),
            &[],
        );
        let mut t = Table::new(schema);
        for _ in 0..150 {
            t.push(Tuple::new(
                (0..8)
                    .map(|c| {
                        if rng.gen_bool(0.1) {
                            Value::Null
                        } else {
                            Value::Int(rng.gen_range(0..4 + c as i64))
                        }
                    })
                    .collect::<Vec<_>>(),
            ));
        }
        for sem in [
            Semantics::Classical,
            Semantics::Possible,
            Semantics::Certain,
            Semantics::Weak,
        ] {
            for budget in [0, 4096, DEFAULT_CACHE_BUDGET] {
                let config = |threads| {
                    MinerConfig::new(sem)
                        .with_max_lhs(3)
                        .with_cache_budget(budget)
                        .with_threads(threads)
                };
                let serial = mine_fds(&t, config(1));
                for threads in [2, 4, 8] {
                    let parallel = mine_fds(&t, config(threads));
                    // Byte-identical, order included: the index-tagged
                    // merge restores exact candidate order.
                    assert_eq!(
                        serial.fds, parallel.fds,
                        "{sem:?} budget={budget} threads={threads}"
                    );
                }
            }
        }
    }

    fn store_sample() -> Table {
        TableBuilder::new("r", ["a", "b", "c"], &[])
            .row(tuple!["x", 1i64, 1i64])
            .row(tuple!["x", 1i64, 2i64])
            .row(tuple![null, 1i64, 1i64])
            .row(tuple![null, 2i64, 2i64])
            .row(tuple!["y", 2i64, 1i64])
            .row(tuple!["x", 1i64, 1i64])
            .build()
    }

    #[test]
    fn store_matches_by_set_on_all_subsets() {
        let t = store_sample();
        let enc = Encoded::new(&t);
        let mut scratch = ProductScratch::for_encoded(&enc);
        for ns in [NullSemantics::Strong, NullSemantics::NullAsValue] {
            let mut store = Store::new(3, ns, DEFAULT_CACHE_BUDGET);
            for x in AttrSet::first_n(3).subsets() {
                let want = Partition::by_set(&enc, x, ns);
                assert_eq!(
                    *store.partition(&enc, x, &mut scratch),
                    want,
                    "{ns:?} {x:?}"
                );
                // Asked again, it is served from the store and agrees.
                assert_eq!(
                    *store.partition(&enc, x, &mut scratch),
                    want,
                    "{ns:?} {x:?} (stored)"
                );
            }
        }
    }

    #[test]
    fn zero_budget_store_is_still_correct() {
        let t = store_sample();
        let enc = Encoded::new(&t);
        let mut scratch = ProductScratch::for_encoded(&enc);
        let mut store = Store::new(3, NullSemantics::Strong, 0);
        for x in AttrSet::first_n(3).subsets() {
            assert_eq!(
                *store.partition(&enc, x, &mut scratch),
                Partition::by_set(&enc, x, NullSemantics::Strong),
                "{x:?}"
            );
        }
        assert_eq!(store.bytes, 0);
    }

    #[test]
    fn retiring_a_level_resets_its_bytes() {
        let t = store_sample();
        let enc = Encoded::new(&t);
        let mut scratch = ProductScratch::for_encoded(&enc);
        let mut store = Store::new(3, NullSemantics::NullAsValue, DEFAULT_CACHE_BUDGET);
        let all = AttrSet::first_n(3);
        store.partition(&enc, all, &mut scratch);
        assert!(store.bytes > 0);
        store.evict_below(usize::MAX);
        assert_eq!(store.bytes, 0);
        // Still correct after a full purge.
        assert_eq!(
            *store.partition(&enc, all, &mut scratch),
            Partition::by_set(&enc, all, NullSemantics::NullAsValue)
        );
    }

    #[test]
    fn empty_and_single_row_tables() {
        let schema = TableSchema::new("r", ["a", "b"], &[]);
        let empty = Table::new(schema.clone());
        let res = mine_fds(&empty, MinerConfig::new(Semantics::Certain));
        // Everything holds vacuously: ∅ → a, b.
        assert_eq!(res.fds.len(), 1);
        assert_eq!(res.fds[0].lhs, AttrSet::EMPTY);
        assert_eq!(res.fds[0].rhs.len(), 2);
    }
}
