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
//! A level-`k` candidate's stripped partition is never rebuilt from
//! the rows: it is the TANE product `π_{X∖{a}} · π_{a}` of a cached
//! level-`(k−1)` partition refined by one more attribute's dictionary
//! codes, computed in one sweep of the prefix partition with a reusable
//! probe-table scratch (see [`Partition::product_attr`] — the cost is
//! proportional to the *prefix*, which shrinks as levels advance, not
//! to the table). Every immediate prefix of a candidate is
//! itself a candidate of the previous level (uncovered targets and
//! key flags are inherited downwards), so the prefix lookup misses
//! only when the byte budget ([`MinerConfig::cache_budget`]) evicted it — in which
//! case the partition is folded from the always-resident singles.
//! Levels retire as the frontier advances: only level `k−1` is kept
//! while level `k` runs. On levels whose partitions are never stored
//! (the last one) the product is fused with the class check
//! ([`crate::check::refinement_sweep`]) and stops once every
//! target is refuted, so refuted candidates — the vast majority at
//! depth — cost a handful of row visits instead of a full sweep.
//!
//! With `threads > 1` the per-level fan-out runs on a *persistent*
//! worker pool spawned once inside one `thread::scope`: each worker
//! owns its scratch for the whole mining run and receives, per level,
//! a shared [`Arc`] of the candidate slice plus an atomic cursor into
//! a *cost-descending* visit order (LPT scheduling: per-candidate cost
//! is the chosen prefix's `stripped_rows()`). Workers pull one
//! candidate at a time, so an expensive straggler never pins a whole
//! contiguous chunk to one thread the way equal-size chunking did.
//! Every emitted FD and partition shard is tagged with its candidate
//! index; the main thread sorts by index before merging, so results —
//! and the cache contents under any byte budget — are byte-identical
//! across thread counts (`parallel_equals_serial`). Workers share one
//! [`ProbeCache`], so LHSs with the same nullable footprint reuse one
//! probe index instead of rebuilding per candidate. Worker saturation
//! is visible as the `discovery.mine.worker_busy_ns` timer.

use crate::cache::DEFAULT_CACHE_BUDGET;
use crate::check::{fd_targets_holding, null_semantics, refinement_sweep, ProbeCache, Semantics};
use crate::partition::{Encoded, NullSemantics, Partition, ProductScratch};
use sqlnf_model::attrs::{Attr, AttrSet};
use sqlnf_model::table::Table;
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
    /// Byte budget for the previous level's cached partitions. Within
    /// budget, every candidate partition is one product with a cached
    /// prefix; past it, evicted prefixes are folded from the
    /// single-attribute partitions. `0` disables caching; results are
    /// identical for any value (only throughput changes).
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

    /// Overrides the partition-cache byte budget.
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

/// A candidate partition: borrowed from the singles or the previous
/// level, owned (freshly producted) everywhere else.
enum Part<'a> {
    Ref(&'a Partition),
    Own(Partition),
}

impl Part<'_> {
    fn get(&self) -> &Partition {
        match self {
            Part::Ref(p) => p,
            Part::Own(p) => p,
        }
    }
}

/// Builds `π_x` for a level-`k` candidate from the previous level's
/// cached partitions and the always-resident singles: one product of
/// its [`prefix`], except for attribute pairs over a small combined
/// code space, which take one fused counting sort over both raw
/// columns.
fn candidate_partition<'a>(
    enc: &Encoded,
    ns: NullSemantics,
    x: AttrSet,
    k: usize,
    singles: &'a [Partition],
    prev: &HashMap<AttrSet, Partition>,
    scratch: &mut ProductScratch,
) -> Part<'a> {
    match k {
        0 => Part::Own(Partition::universal(enc.rows())),
        1 => Part::Ref(&singles[x.first().expect("level-1 candidate").index()]),
        _ => {
            let mut it = x.iter();
            if let (2, Some(a), Some(b)) = (k, it.next(), it.next()) {
                if Partition::by_pair_applicable(enc, a, b) {
                    return Part::Own(Partition::by_pair(enc, a, b, ns));
                }
            }
            let (prefix, by) = prefix(enc, ns, x, k, singles, prev, scratch);
            Part::Own(prefix.get().product_attr(enc, by, ns, scratch))
        }
    }
}

/// The `(k−1)`-prefix partition a level-`k` candidate (`k ≥ 2`) is
/// refined from, and the attribute it is refined by — a product or a
/// refinement costs exactly the prefix's stripped rows, so the cheapest
/// one: the smaller single at level 2 (ties keep attribute order), else
/// the cheapest cached prefix. Every immediate prefix of a candidate
/// was a candidate one level down, so the lookup fails only when the
/// budget evicted them all; then the prefix is folded from the
/// singles, smallest first, and refined by the least selective one.
fn prefix<'a>(
    enc: &Encoded,
    ns: NullSemantics,
    x: AttrSet,
    k: usize,
    singles: &'a [Partition],
    prev: &'a HashMap<AttrSet, Partition>,
    scratch: &mut ProductScratch,
) -> (Part<'a>, Attr) {
    let mut attrs: Vec<Attr> = x.iter().collect();
    attrs.sort_by_key(|a| singles[a.index()].stripped_rows());
    if k == 2 {
        return (Part::Ref(&singles[attrs[0].index()]), attrs[1]);
    }
    let mut best: Option<(Attr, &Partition, usize)> = None;
    for a in x {
        if let Some(p) = prev.get(&(x - AttrSet::single(a))) {
            let cost = p.stripped_rows();
            if best.is_none_or(|(_, _, c)| cost < c) {
                best = Some((a, p, cost));
            }
        }
    }
    if let Some((a, p, _)) = best {
        sqlnf_obs::count!("discovery.mine.prev_level.hits");
        return (Part::Ref(p), a);
    }
    sqlnf_obs::count!("discovery.mine.prev_level.misses");
    let by = attrs.pop().expect("level ≥ 3");
    let mut p = singles[attrs[0].index()].product_attr(enc, attrs[1], ns, scratch);
    for &b in &attrs[2..] {
        p = p.product_attr(enc, b, ns, scratch);
    }
    (Part::Own(p), by)
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
/// candidate slice, the cost-descending visit order, and the atomic
/// cursor every worker pulls from.
struct LevelJob {
    k: usize,
    candidates: Arc<Vec<Candidate>>,
    order: Arc<Vec<u32>>,
    cursor: Arc<AtomicUsize>,
    prev: Arc<HashMap<AttrSet, Partition>>,
    store: bool,
}

/// What a worker sends back per level: settled answers and partition
/// shards, each tagged with the candidate index so the main thread can
/// restore candidate order exactly regardless of which worker pulled
/// what. Shard entries carry their precomputed cache size so the merge
/// loop stays trivial.
struct LevelOut {
    settled: Vec<(u32, Candidate)>,
    shard: Vec<(u32, AttrSet, Partition, usize)>,
}

/// The deterministic visit order for one level: candidate indexes
/// sorted by estimated check cost, most expensive first (LPT — longest
/// processing time — scheduling), ties broken by candidate index. The
/// estimate is what the check actually sweeps: the stripped rows of
/// the prefix partition the candidate will refine, or a
/// whole-table-sized pessimistic constant when every prefix was
/// evicted and the partition must be folded from the singles.
fn cost_order(
    candidates: &[Candidate],
    k: usize,
    rows: usize,
    singles: &[Partition],
    prev: &HashMap<AttrSet, Partition>,
) -> Vec<u32> {
    let mut order: Vec<u32> = (0..candidates.len() as u32).collect();
    if k < 2 {
        return order;
    }
    let costs: Vec<usize> = candidates
        .iter()
        .map(|&Candidate { x, .. }| {
            if k == 2 {
                x.iter()
                    .map(|a| singles[a.index()].stripped_rows())
                    .min()
                    .unwrap_or(0)
            } else {
                x.iter()
                    .filter_map(|a| prev.get(&(x - AttrSet::single(a))))
                    .map(|p| p.stripped_rows())
                    .min()
                    .unwrap_or_else(|| rows.saturating_mul(2))
            }
        })
        .collect();
    order.sort_by_key(|&i| (std::cmp::Reverse(costs[i as usize]), i));
    order
}

/// The last lattice level's working set when the pre-last level was
/// check-only: each candidate refines exactly one `(k−1)`-prefix, so
/// only the *distinct* chosen prefixes are materialized — from the
/// retained level-`(k−2)` cache, one product each. The choice rule is
/// the cheapest **estimated** prefix (the minimum stripped size over
/// its cached `(k−2)`-sub-partitions): prefix choice affects
/// throughput only, never the refined result, so estimating instead of
/// measuring is sound. Deterministic throughout — first-use order
/// drives the byte-budget admission, ties break on the smallest
/// omitted attribute.
#[allow(clippy::too_many_arguments)]
fn build_needed_prefixes(
    enc: &Encoded,
    ns: NullSemantics,
    candidates: &[Candidate],
    k: usize,
    singles: &[Partition],
    prev: &HashMap<AttrSet, Partition>,
    threads: usize,
    budget: usize,
) -> HashMap<AttrSet, Partition> {
    let pessimistic = enc.rows().saturating_mul(2);
    let est = |s: AttrSet| -> usize {
        let mut e = pessimistic;
        for b in s {
            if let Some(p) = prev.get(&(s - AttrSet::single(b))) {
                e = e.min(p.stripped_rows());
            }
        }
        e
    };
    let mut needed: Vec<AttrSet> = Vec::new();
    let mut seen: std::collections::HashSet<AttrSet> = std::collections::HashSet::new();
    for &Candidate { x, .. } in candidates {
        let mut best: Option<(usize, Attr)> = None;
        for a in x {
            let e = est(x - AttrSet::single(a));
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
            .find(|s| est(*s) <= min_est.saturating_mul(2) && seen.contains(s))
            .unwrap_or(x - AttrSet::single(best_a));
        if seen.insert(chosen) {
            needed.push(chosen);
        }
    }
    sqlnf_obs::count!("discovery.mine.lazy_prefix_builds", needed.len());
    let own = |part: Part| match part {
        Part::Own(p) => p,
        Part::Ref(p) => p.clone(),
    };
    let built = par_map(
        threads,
        PAR_MIN,
        needed.len(),
        || ProductScratch::for_encoded(enc),
        |scratch, i| {
            own(candidate_partition(
                enc,
                ns,
                needed[i],
                k - 1,
                singles,
                prev,
                scratch,
            ))
        },
    );
    let mut map = HashMap::new();
    let mut bytes = 0usize;
    for (s, p) in needed.into_iter().zip(built) {
        let sz = p.approx_bytes() + std::mem::size_of::<AttrSet>();
        if bytes.saturating_add(sz) <= budget {
            bytes += sz;
            map.insert(s, p);
        } else {
            sqlnf_obs::count!("discovery.mine.prev_level.evictions");
        }
    }
    if bytes > 0 {
        sqlnf_obs::count_max!("discovery.mine.prev_level.bytes", bytes);
    }
    map
}

/// The fixed context of one pass, shared by every worker.
struct Pass<'a> {
    enc: &'a Encoded,
    /// The semantics whose class rule the strong sweep applies.
    sem: Semantics,
    ns: NullSemantics,
    singles: &'a [Partition],
    probes: &'a ProbeCache,
}

impl Pass<'_> {
    /// Answers every open question of one candidate with one sweep of
    /// its classes: materialized (and handed back for the next level's
    /// cache) when `store` or below level 2, else fused with the
    /// product of its cheapest prefix. The class rule runs over the
    /// union of both planes' targets; a c-FD is a p-FD, so the
    /// certain tail only probes the survivors, and only a p-key can be
    /// a c-key.
    fn settle(
        &self,
        c: Candidate,
        k: usize,
        prev: &HashMap<AttrSet, Partition>,
        store: bool,
        scratch: &mut ProductScratch,
    ) -> (Candidate, Option<Partition>) {
        let enc = self.enc;
        let targets = c.swept | c.certain;
        let mut kept = None;
        let (holding, pair) = if !store && k >= 2 {
            let (prefix, by) = prefix(enc, self.ns, c.x, k, self.singles, prev, scratch);
            let keyed = c.pkey || c.ckey;
            refinement_sweep(
                enc,
                prefix.get(),
                by,
                self.ns,
                targets,
                self.sem,
                scratch,
                keyed,
            )
        } else {
            let p = candidate_partition(enc, self.ns, c.x, k, self.singles, prev, scratch);
            let holding = fd_targets_holding(enc, c.x, p.get(), targets, self.sem, None);
            let pair = !p.get().is_empty();
            if let (true, Part::Own(p)) = (store, p) {
                kept = Some(p);
            }
            (holding, pair)
        };
        let certain = holding & c.certain;
        let settled = Candidate {
            x: c.x,
            swept: holding & c.swept,
            certain: if certain.is_empty() {
                certain
            } else {
                self.probes.fd_targets(enc, c.x, certain)
            },
            pkey: c.pkey && !pair,
            ckey: c.ckey && !pair && self.probes.first_weak_pair(enc, c.x).is_none(),
        };
        (settled, kept)
    }

    /// Drains the level's work queue from one thread: pulls candidate
    /// positions off the shared cursor until the order is exhausted,
    /// settling each candidate and (when `store` is set) collecting
    /// owned partitions for the next level's cache. Both output
    /// streams are tagged with the candidate index. Also used by the
    /// serial path (with a trivial identity order), so serial and
    /// parallel runs share one code path.
    #[allow(clippy::too_many_arguments)]
    fn run_queue(
        &self,
        k: usize,
        candidates: &[Candidate],
        order: &[u32],
        cursor: &AtomicUsize,
        prev: &HashMap<AttrSet, Partition>,
        store: bool,
        scratch: &mut ProductScratch,
    ) -> LevelOut {
        let _busy = sqlnf_obs::span!("discovery.mine.worker_busy_ns");
        let mut out = LevelOut {
            settled: Vec::new(),
            shard: Vec::new(),
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
            let (settled, kept) = self.settle(c, k, prev, store, scratch);
            if settled.open() {
                out.settled.push((i, settled));
            }
            if let Some(p) = kept {
                let sz = p.approx_bytes() + std::mem::size_of::<AttrSet>();
                out.shard.push((i, c.x, p, sz));
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

    // The single-attribute partitions: always resident, the floor every
    // product chain bottoms out on. Each is an independent table sweep,
    // so with threads they are built off a shared atomic cursor — on
    // wide tables (hepatitis: 20 columns) this is the one serial stage
    // whose cost rivals a whole lattice level.
    let ns = null_semantics(sem);
    let singles = par_map(
        config.threads,
        2,
        arity,
        || (),
        |_, i| Partition::by_attr(enc, Attr::from(i), ns),
    );
    // One probe cache for the whole run, shared by every worker:
    // certain-semantics candidates with the same nullable footprint
    // reuse one index (see `check::ProbeCache`).
    let pass = Pass {
        enc,
        sem,
        ns,
        singles: &singles,
        probes,
    };
    let pass = &pass;

    // One scope for the whole run: workers (spawned lazily at the first
    // level big enough to parallelise) persist across levels, each
    // owning its product scratch. Dropping the pool at scope end closes
    // the job channels and lets the workers drain out.
    std::thread::scope(|scope| {
        let mut pool: Vec<(Sender<LevelJob>, Receiver<LevelOut>)> = Vec::new();
        let mut prev: Arc<HashMap<AttrSet, Partition>> = Arc::new(HashMap::new());
        let mut scratch = ProductScratch::for_encoded(enc);

        for k in 0..=last_level {
            let candidates = Arc::new(walk.level(k));

            // Keep this level's partitions only if the next level will
            // consult them (level-2 candidates product the singles
            // directly, so level-1 partitions are never stored). On a
            // deep lattice the *pre-last* level is also check-only:
            // each last-level candidate refines exactly one prefix
            // partition, so the last level materializes only the
            // distinct prefixes actually chosen (see
            // [`build_needed_prefixes`]) instead of eagerly building
            // every pre-last candidate's partition — on adult-shaped
            // tables that eager build dominated the whole run.
            let defer_prelast = last_level >= 4;
            let store = k >= 2
                && k < if defer_prelast {
                    last_level - 1
                } else {
                    last_level
                };
            let level_prev: Arc<HashMap<AttrSet, Partition>> = if defer_prelast && k == last_level {
                Arc::new(build_needed_prefixes(
                    enc,
                    ns,
                    &candidates,
                    k,
                    &singles,
                    &prev,
                    config.threads,
                    config.cache_budget,
                ))
            } else {
                Arc::clone(&prev)
            };

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
                                        job.k,
                                        &job.candidates,
                                        &job.order,
                                        &job.cursor,
                                        &job.prev,
                                        job.store,
                                        &mut scratch,
                                    );
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
                    let order = Arc::new(cost_order(
                        &candidates,
                        k,
                        enc.rows(),
                        &singles,
                        &level_prev,
                    ));
                    let cursor = Arc::new(AtomicUsize::new(0));
                    for (job_tx, _) in &pool {
                        job_tx
                            .send(LevelJob {
                                k,
                                candidates: Arc::clone(&candidates),
                                order: Arc::clone(&order),
                                cursor: Arc::clone(&cursor),
                                prev: Arc::clone(&level_prev),
                                store,
                            })
                            .expect("miner worker hung up");
                    }
                    pool.iter()
                        .map(|(_, out_rx)| out_rx.recv().expect("miner worker panicked"))
                        .collect()
                } else {
                    let order: Vec<u32> = (0..candidates.len() as u32).collect();
                    let cursor = AtomicUsize::new(0);
                    vec![pass.run_queue(
                        k,
                        &candidates,
                        &order,
                        &cursor,
                        &level_prev,
                        store,
                        &mut scratch,
                    )]
                };

            // Retire the previous level when this one replaces it (a
            // check-only pre-last level retains it — the last level
            // still products from it), then merge this level — answers
            // and shards sorted back into candidate order first, so the
            // result and the cache contents (budget admission
            // included) never depend on which worker processed what.
            if store && !prev.is_empty() {
                sqlnf_obs::count!("discovery.mine.prev_level.evictions", prev.len());
            }
            let mut settled: Vec<(u32, Candidate)> = Vec::new();
            let mut shard: Vec<(u32, AttrSet, Partition, usize)> = Vec::new();
            for out in outs {
                settled.extend(out.settled);
                shard.extend(out.shard);
            }
            settled.sort_by_key(|&(i, _)| i);
            shard.sort_by_key(|s| s.0);
            let mut next: HashMap<AttrSet, Partition> = HashMap::new();
            let mut bytes = 0usize;
            for (_, x, p, sz) in shard {
                if bytes.saturating_add(sz) <= config.cache_budget {
                    bytes += sz;
                    next.insert(x, p);
                } else {
                    sqlnf_obs::count!("discovery.mine.prev_level.evictions");
                }
            }
            for (_, s) in settled {
                walk.record(s);
            }
            if bytes > 0 {
                sqlnf_obs::count_max!("discovery.mine.prev_level.bytes", bytes);
            }
            if store {
                prev = Arc::new(next);
            }
        }
    });
    walk.found
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
