//! Fast satisfaction checks used by the miner, built on
//! dictionary-encoded columns and stripped partitions. Each check is
//! exact — they are property-tested against the naive pairwise
//! definitions of `sqlnf_model::satisfy`.

use crate::partition::{Encoded, NullSemantics, Partition, ProductScratch};
use sqlnf_model::attrs::{Attr, AttrSet};
use std::collections::HashMap;
use std::marker::PhantomData;
use std::sync::{Arc, Mutex};

/// A memoized probe structure for weak-similarity checks on a fixed
/// attribute set `X`: the `X`-null rows, and per distinct null
/// *pattern* the `X`-total rows bucketed by their projection onto the
/// pattern's non-null part.
///
/// Building it costs one pass to merge the per-column null lists, one
/// complement pass for the total-row list, and one grouping per
/// distinct pattern — the total-row list itself is computed **once**
/// and shared by every pattern. No pass builds a key or a hash per row:
/// a pattern's null rows and the total rows are grouped by the
/// partition refinement kernel (`Partition::join_groups`), and each
/// pattern keeps only the total rows that share a group with one of its
/// null rows, as one flat `u32` row array. A pattern null on all of `X`
/// pairs with every total row, so it groups nothing and keeps no copy:
/// its one bucket is the total-row list itself. Callers that probe the same
/// `X` several times
/// (c-key + reflexivity during classification, key mining) build the
/// index once and reuse it; the yes/no questions sweep it by groups
/// (`WeakSweep`) rather than visiting its pairs.
pub struct ProbeIndex {
    x: AttrSet,
    null_rows: Vec<usize>,
    /// The `X`-total rows, ascending, when a pattern's reduced part is
    /// empty (its one bucket); else empty.
    total: Vec<u32>,
    /// Sorted by reduced pattern so probing order is deterministic.
    patterns: Vec<Pattern>,
}

/// One distinct null pattern of `X`: its reduced part (the columns of
/// `X` where its rows are non-null), its null rows grouped by their
/// codes on the reduced part, and per group the `X`-total rows with
/// those codes.
struct Pattern {
    reduced: AttrSet,
    rows: Vec<usize>,
    /// The group of each null row (parallel to `rows`), numbered from 0
    /// in order of first appearance.
    groups: Vec<u32>,
    /// `None` when `reduced` is empty: every null row is in group 0,
    /// whose bucket is every `X`-total row ([`ProbeIndex::total`]).
    buckets: Option<Buckets>,
}

impl ProbeIndex {
    /// Builds the probe index of `x`. Cheap (`O(|X|)`, no allocation)
    /// when no column of `x` carries a `⊥`.
    pub fn new(enc: &Encoded, x: AttrSet) -> ProbeIndex {
        if !enc.has_nulls_on(x) {
            return ProbeIndex {
                x,
                null_rows: Vec::new(),
                total: Vec::new(),
                patterns: Vec::new(),
            };
        }
        let _span = sqlnf_obs::span!("discovery.check.probe_index.build");
        sqlnf_obs::count!("discovery.check.probe_index.builds");
        let null_rows = enc.null_rows_on(x);
        // The x-total rows, computed once and shared by every pattern.
        let total = total_rows(enc.rows(), &null_rows);
        let mut scratch = ProductScratch::new();
        let patterns: Vec<Pattern> = null_patterns(enc, x, &null_rows)
            .into_iter()
            .map(|(reduced, rows)| {
                let (groups, buckets) = if reduced.is_empty() {
                    (vec![0; rows.len()], None)
                } else {
                    let (groups, buckets) = Buckets::new(enc, reduced, &rows, &total, &mut scratch);
                    (groups, Some(buckets))
                };
                Pattern {
                    reduced,
                    rows,
                    groups,
                    buckets,
                }
            })
            .collect();
        let total = if patterns.iter().any(|p| p.buckets.is_none()) {
            total.iter().map(|&r| r as u32).collect()
        } else {
            Vec::new()
        };
        ProbeIndex {
            x,
            null_rows,
            total,
            patterns,
        }
    }

    /// The `X`-total rows of group `g` of pattern `p`, ascending.
    fn bucket<'a>(&'a self, p: &'a Pattern, g: u32) -> &'a [u32] {
        match &p.buckets {
            Some(buckets) => buckets.rows(g),
            None => &self.total,
        }
    }

    /// Visits every unordered pair of rows that is weakly similar on
    /// `X` and involves at least one row carrying `⊥` in `X` (the pairs
    /// the strong partition cannot see). Calls `f(r, s)`; stops early —
    /// and returns `false` — when `f` returns `false`.
    ///
    /// Null–null pairs are compared directly (there are few null rows
    /// in practice); null–total pairs come from the per-pattern
    /// buckets: a row `r` with nulls on `N ⊆ X` is weakly similar to an
    /// `X`-total row `s` iff `s` matches `r` exactly on `X − N`. This
    /// is what keeps c-FD discovery on the 48 842-row `adult` workload
    /// within the same order of magnitude as classical discovery (as in
    /// the paper's comparison).
    pub fn for_each_weak_pair(
        &self,
        enc: &Encoded,
        mut f: impl FnMut(usize, usize) -> bool,
    ) -> bool {
        // 1) null–null pairs.
        for (i, &r) in self.null_rows.iter().enumerate() {
            for &s in &self.null_rows[i + 1..] {
                if enc.weakly_similar(r, s, self.x) && !f(r, s) {
                    return false;
                }
            }
        }
        // 2) null–total pairs, by null pattern.
        for p in &self.patterns {
            for (&r, &g) in p.rows.iter().zip(&p.groups) {
                for &s in self.bucket(p, g) {
                    if !f(r, s as usize) {
                        return false;
                    }
                }
            }
        }
        true
    }

    /// Runs `sweep` over the weak pairs of `self.x ∪ extra`, where every
    /// column of `extra` is null-free in the instance (the reuse across
    /// LHSs sharing a nullable footprint, see [`ProbeCache`]): per null
    /// pattern, the pattern's null rows grouped with the
    /// matching bucket rows; then the null rows of every two patterns
    /// joined on their common non-null part.
    fn sweep(&self, enc: &Encoded, extra: AttrSet, sweep: &mut WeakSweep) {
        for p in &self.patterns {
            if sweep.done() {
                return;
            }
            // Each bucket is swept once per distinct reduced key among
            // the nulls — never per null row.
            let mut seen = vec![false; p.groups.iter().max().map_or(0, |&g| g as usize + 1)];
            let partners = p
                .groups
                .iter()
                .filter_map(|&g| {
                    let first = !std::mem::replace(&mut seen[g as usize], true);
                    first.then(|| self.bucket(p, g))
                })
                .flatten()
                .map(|&s| s as usize);
            sweep.within_pattern(enc, p.reduced | extra, &p.rows, partners);
        }
        let patterns: Vec<(AttrSet, &[usize])> = self
            .patterns
            .iter()
            .map(|p| (p.reduced, p.rows.as_slice()))
            .collect();
        sweep.across_patterns(enc, extra, &patterns);
    }
}

/// The `X`-total partners of one null pattern, flat: group `g` of the
/// pattern's null rows has the total rows `rows[starts[g]..starts[g + 1]]`,
/// ascending — those equal to its null rows on the reduced part.
struct Buckets {
    starts: Vec<u32>,
    rows: Vec<u32>,
}

impl Buckets {
    /// Groups `nulls` by their codes on `key` and joins the `total`
    /// rows (ascending) to those groups ([`join_groups`]), then scatters
    /// the joined rows into one `u32` array. Returns the nulls' groups
    /// (parallel to `nulls`) with the buckets.
    fn new(
        enc: &Encoded,
        key: AttrSet,
        nulls: &[usize],
        total: &[usize],
        scratch: &mut ProductScratch,
    ) -> (Vec<u32>, Buckets) {
        let (groups, joined) = join_groups(enc, key, nulls, total.iter().copied(), scratch);
        let k = groups.iter().max().map_or(0, |&g| g as usize + 1);
        let mut starts = vec![0u32; k + 1];
        for &(_, g) in &joined {
            starts[g as usize + 1] += 1;
        }
        for i in 1..starts.len() {
            starts[i] += starts[i - 1];
        }
        let mut cursor = starts.clone();
        let mut flat = vec![0u32; joined.len()];
        for &(r, g) in &joined {
            let slot = &mut cursor[g as usize];
            flat[*slot as usize] = r;
            *slot += 1;
        }
        (groups, Buckets { starts, rows: flat })
    }

    /// The total rows of group `g`, ascending.
    fn rows(&self, g: u32) -> &[u32] {
        let g = g as usize;
        &self.rows[self.starts[g] as usize..self.starts[g + 1] as usize]
    }
}

/// [`Partition::join_groups`] over row ids, counting the rows it is
/// handed under `discovery.check.sweep.rows_grouped`.
fn join_groups(
    enc: &Encoded,
    key: AttrSet,
    opening: &[usize],
    joining: impl Iterator<Item = usize>,
    scratch: &mut ProductScratch,
) -> (Vec<u32>, Vec<(u32, u32)>) {
    let opening: Vec<u32> = opening.iter().map(|&r| r as u32).collect();
    let joining: Vec<u32> = joining.map(|r| r as u32).collect();
    sqlnf_obs::count!(
        "discovery.check.sweep.rows_grouped",
        opening.len() + joining.len()
    );
    Partition::join_groups(enc, key, &opening, joining, scratch)
}

/// The rows of `0..rows` not in `null_rows` (ascending), in one
/// complement pass.
fn total_rows(rows: usize, null_rows: &[usize]) -> Vec<usize> {
    let mut total: Vec<usize> = Vec::with_capacity(rows - null_rows.len());
    let mut nulls_it = null_rows.iter().copied().peekable();
    for r in 0..rows {
        if nulls_it.peek() == Some(&r) {
            nulls_it.next();
        } else {
            total.push(r);
        }
    }
    total
}

/// `null_rows` (the rows with `⊥` somewhere in `x`) grouped by their
/// reduced pattern — the columns of `x` where they are non-null —
/// sorted by pattern so every sweep runs in a deterministic order.
fn null_patterns(enc: &Encoded, x: AttrSet, null_rows: &[usize]) -> Vec<(AttrSet, Vec<usize>)> {
    let mut by_pattern: HashMap<AttrSet, Vec<usize>> = HashMap::new();
    for &r in null_rows {
        let nulls: AttrSet = x.iter().filter(|&a| enc.code(r, a) == 0).collect();
        by_pattern.entry(x - nulls).or_default().push(r);
    }
    let mut patterns: Vec<(AttrSet, Vec<usize>)> = by_pattern.into_iter().collect();
    patterns.sort_by_key(|&(reduced, _)| reduced);
    patterns
}

/// The open groups of one [`WeakSweep`] pass, numbered as the pass's
/// grouping numbers them: per group and target, flat at `g·n..(g + 1)·n`
/// for `n` targets, the code of the row that opened the group; per
/// group, the targets some member disagreed on.
#[derive(Default)]
struct SweepGroups {
    codes: Vec<u32>,
    conflict: Vec<AttrSet>,
}

impl SweepGroups {
    /// Drops every group, keeping the allocations.
    fn clear(&mut self) {
        self.codes.clear();
        self.conflict.clear();
    }
}

/// The grouped sweep over the weak pairs of `X` — the one
/// implementation behind every certain-semantics question:
///
/// * which of `targets` every weak pair agrees on (the certain-FD
///   tail, [`ProbeCache::fd_targets`]);
/// * whether `X →_w X` holds (totality): exactly the targets
///   `X ∩ nullable` surviving whole ([`certain_reflexive_holds`]);
/// * whether any weak pair exists (the c-key check,
///   [`ProbeCache::has_weak_pair`]).
///
/// A row `r` with nulls on `N ⊆ X` is weakly similar to an `X`-total
/// row, or to a null row of the same pattern, iff the two agree on the
/// codes of `X − N`. Code equality is transitive, so every pair inside
/// a group of such rows keyed on `X − N` must agree on a target iff the
/// whole group is constant on it: the quadratic pair set collapses to
/// one linear grouping pass per null pattern. Null rows of two
/// different patterns are weakly similar iff they agree on the columns
/// non-null in both; joining the two patterns on those codes gives
/// groups where every row of one side pairs with every row of the
/// other, so again "all pairs agree" is "the group is constant".
///
/// Each pass groups only the rows it joins — a pattern's null rows and
/// their candidate partners, or the null rows of two patterns — with the
/// partition refinement kernel ([`Partition::join_groups`]), so no row's
/// codes are hashed. The rows that may open a group come first, and the
/// groups they open are numbered `0, 1, …` as they open; a joining row
/// is handed over only when it meets an opening row, and the rows it
/// leaves out would join no group.
struct WeakSweep {
    targets: Vec<Attr>,
    holding: AttrSet,
    /// Stop at the first weak pair instead of when no target survives.
    until_pair: bool,
    /// Whether a weak pair has been met.
    pair: bool,
    /// The grouping kernel's scratch, reused by every pass.
    scratch: ProductScratch,
}

impl WeakSweep {
    fn targets(targets: AttrSet) -> WeakSweep {
        WeakSweep {
            targets: targets.iter().collect(),
            holding: targets,
            until_pair: false,
            pair: false,
            scratch: ProductScratch::new(),
        }
    }

    fn first_pair() -> WeakSweep {
        WeakSweep {
            until_pair: true,
            ..WeakSweep::targets(AttrSet::EMPTY)
        }
    }

    fn done(&self) -> bool {
        if self.until_pair {
            self.pair
        } else {
            self.holding.is_empty()
        }
    }

    /// The `opening` rows, each with its group on `key`, followed by the
    /// `joining` rows that meet one of those groups, each with it — the
    /// order the pass adds them in ([`join_groups`]).
    fn group(
        &mut self,
        enc: &Encoded,
        key: AttrSet,
        opening: &[usize],
        joining: impl Iterator<Item = usize>,
    ) -> Vec<(u32, u32)> {
        let (groups, joined) = join_groups(enc, key, opening, joining, &mut self.scratch);
        let opening = opening.iter().map(|&r| r as u32);
        opening.zip(groups).chain(joined).collect()
    }

    /// Adds `row` to its group `g`, opening the group with `row`'s codes
    /// when `g` is the next one to open. Adding with `anchor` means
    /// every two rows of the group must now agree on each target (the
    /// row pairs with every null row of its pattern group, or with the
    /// whole other side of a cross-pattern join), so the group's
    /// disagreements refute targets.
    fn join(&mut self, enc: &Encoded, groups: &mut SweepGroups, g: u32, row: usize, anchor: bool) {
        let g = g as usize;
        if g == groups.conflict.len() {
            groups
                .codes
                .extend(self.targets.iter().map(|&a| enc.code(row, a)));
            groups.conflict.push(AttrSet::EMPTY);
            return;
        }
        let n = self.targets.len();
        let conflict = &mut groups.conflict[g];
        for (&a, &code) in self.targets.iter().zip(&groups.codes[g * n..(g + 1) * n]) {
            if enc.code(row, a) != code {
                conflict.insert(a);
            }
        }
        if anchor {
            self.pair = true;
            self.holding = self.holding - *conflict;
        }
    }

    /// The pairs of one null pattern: its null rows with each other
    /// and with `partners`, the candidate `X`-total rows (any superset
    /// of those matching on `key`, which is the pattern's non-null
    /// part of `X`).
    fn within_pattern(
        &mut self,
        enc: &Encoded,
        key: AttrSet,
        nulls: &[usize],
        partners: impl Iterator<Item = usize>,
    ) {
        let rows = self.group(enc, key, nulls, partners);
        let mut groups = SweepGroups::default();
        // Every null row pairs with the rows it meets in its group.
        for (row, g) in rows {
            self.join(enc, &mut groups, g, row as usize, true);
            if self.done() {
                return;
            }
        }
    }

    /// The null–null pairs across patterns: rows of patterns `i < j`
    /// joined on `(red_i ∩ red_j) ∪ extra`.
    fn across_patterns(&mut self, enc: &Encoded, extra: AttrSet, patterns: &[(AttrSet, &[usize])]) {
        let mut groups = SweepGroups::default();
        for (i, &(red_i, rows_i)) in patterns.iter().enumerate() {
            for &(red_j, rows_j) in &patterns[i + 1..] {
                if self.done() {
                    return;
                }
                groups.clear();
                let key = (red_i & red_j) | extra;
                let rows = self.group(enc, key, rows_i, rows_j.iter().copied());
                for (k, (row, g)) in rows.into_iter().enumerate() {
                    let anchor = k >= rows_i.len();
                    self.join(enc, &mut groups, g, row as usize, anchor);
                    if anchor && self.done() {
                        return;
                    }
                }
            }
        }
    }
}

/// The grouped sweep of `x` without an index: each null pattern's rows
/// against every `X`-total row. Beats building a [`ProbeIndex`] while
/// `nulls × rows` stays small (wide-short instances like `hepatitis`,
/// where most probed footprints are never seen twice), and serves the
/// one-shot checks.
fn sweep_direct(enc: &Encoded, x: AttrSet, sweep: &mut WeakSweep) {
    if !enc.has_nulls_on(x) {
        return;
    }
    let null_rows = enc.null_rows_on(x);
    let total = total_rows(enc.rows(), &null_rows);
    let patterns = null_patterns(enc, x, &null_rows);
    for (reduced, rows) in &patterns {
        if sweep.done() {
            return;
        }
        sweep.within_pattern(enc, *reduced, rows, total.iter().copied());
    }
    let patterns: Vec<(AttrSet, &[usize])> = patterns
        .iter()
        .map(|(reduced, rows)| (*reduced, rows.as_slice()))
        .collect();
    sweep.across_patterns(enc, AttrSet::EMPTY, &patterns);
}

/// One-shot form of [`ProbeIndex::for_each_weak_pair`]: builds the
/// index for `x`, probes, and drops it. Free when `x` is null-free.
/// Hot loops share indexes through a [`ProbeCache`] instead.
pub fn probe_weak_pairs(
    enc: &Encoded,
    x: AttrSet,
    mut f: impl FnMut(usize, usize) -> bool,
) -> bool {
    if !enc.has_nulls_on(x) {
        return true;
    }
    let mut visited = 0u64;
    let done = ProbeIndex::new(enc, x).for_each_weak_pair(enc, |r, s| {
        visited += 1;
        f(r, s)
    });
    sqlnf_obs::count!("discovery.check.weak_pairs_visited", visited);
    done
}

/// Direct scanning stays cheaper than an index build while the
/// `nulls × rows` pair bound is below this.
const DIRECT_SCAN_LIMIT: usize = 1 << 16;

/// A small-footprint job earns its cached index once it has been
/// probed this many times: one build costs roughly this many direct
/// scans, so building earlier would lose on footprints never probed
/// again (on wide tables most all-nullable LHSs are their own
/// footprint and show up exactly once).
const ADMIT_AFTER: u32 = 5;

/// How one probe through the [`ProbeCache`] runs.
enum ProbeStrategy {
    /// Scan null rows against the table; no index exists or is worth
    /// building yet.
    Direct,
    /// Probe through a (possibly shared) footprint index.
    Index(Arc<ProbeIndex>),
}

/// A run-scoped, thread-shared cache of [`ProbeIndex`]es keyed on the
/// *nullable footprint* `X ∩ nullable_columns`.
///
/// ## Why the footprint is a sound key
///
/// Rows carry `⊥` in `X` exactly where they carry `⊥` in the
/// footprint `S = X ∩ nullable` — the remaining columns `X ∖ S` are
/// globally null-free. On those columns weak similarity degenerates
/// to code equality, so:
///
/// > `(r, s)` weakly similar on `X`  ⟺  `(r, s)` weakly similar on
/// > `S`  ∧  `r =_{X∖S} s`.
///
/// An index built for `S` therefore serves **every** LHS with that
/// footprint, with the null-free remainder added to every grouping key
/// of the sweep (`WeakSweep`). Keying on `S` alone *without* the
/// remainder would be unsound — it admits pairs that disagree on
/// `X ∖ S`.
///
/// ## Build policy
///
/// Footprints whose pair bound is large are indexed on first probe
/// (`adult`: three footprints serve all 58 probed candidates). Small
/// jobs are scanned directly and only earn an index after
/// `ADMIT_AFTER` probes, so one-shot footprints — the common case on
/// wide tables where most candidate LHSs are entirely nullable — never
/// pay a build. Counted under `discovery.check.probe_index.{hits,
/// direct}`; [`ProbeIndex::new`] counts the builds
/// (`discovery.check.probe_index.builds`).
///
/// Interior mutability is a [`Mutex`] held only for the policy lookup
/// (indexes are built outside it), so miner workers share one cache.
pub struct ProbeCache {
    nullable: AttrSet,
    rows: usize,
    state: Mutex<HashMap<AttrSet, ProbeSlot>>,
}

struct ProbeSlot {
    probes: u32,
    idx: Option<Arc<ProbeIndex>>,
}

impl ProbeCache {
    /// An empty cache for one instance.
    pub fn new(enc: &Encoded) -> ProbeCache {
        ProbeCache {
            nullable: enc.nullable_columns(),
            rows: enc.rows(),
            state: Mutex::new(HashMap::new()),
        }
    }

    /// Picks the probe strategy for footprint `s` (non-empty), bumping
    /// the reuse counters and building/memoizing the index when the
    /// policy says so.
    fn strategy(&self, enc: &Encoded, s: AttrSet) -> ProbeStrategy {
        let mut state = self.state.lock().expect("probe cache poisoned");
        let slot = state.entry(s).or_insert(ProbeSlot {
            probes: 0,
            idx: None,
        });
        slot.probes += 1;
        if let Some(idx) = &slot.idx {
            sqlnf_obs::count!("discovery.check.probe_index.hits");
            return ProbeStrategy::Index(Arc::clone(idx));
        }
        let pair_bound = enc.null_count_bound(s).saturating_mul(self.rows);
        if pair_bound <= DIRECT_SCAN_LIMIT && slot.probes < ADMIT_AFTER {
            sqlnf_obs::count!("discovery.check.probe_index.direct");
            return ProbeStrategy::Direct;
        }
        drop(state);
        // Build outside the lock so workers keep probing other
        // footprints meanwhile; a racing double build is harmless (the
        // index is deterministic) and the last insert wins.
        let idx = Arc::new(ProbeIndex::new(enc, s));
        let mut state = self.state.lock().expect("probe cache poisoned");
        if let Some(slot) = state.get_mut(&s) {
            slot.idx = Some(Arc::clone(&idx));
        }
        ProbeStrategy::Index(idx)
    }

    /// Runs the grouped sweep of `x` through the footprint cache.
    fn sweep(&self, enc: &Encoded, x: AttrSet, sweep: &mut WeakSweep) {
        let s = x & self.nullable;
        if s.is_empty() {
            return;
        }
        let _span = sqlnf_obs::span!("discovery.check.probe_sweep");
        match self.strategy(enc, s) {
            ProbeStrategy::Index(idx) => idx.sweep(enc, x - s, sweep),
            ProbeStrategy::Direct => sweep_direct(enc, x, sweep),
        }
    }

    /// The subset of `targets` on which `X →_w A` survives the weak
    /// pairs of `x` — the certain-semantics tail of the FD check,
    /// served from the footprint cache by the grouped sweep.
    pub fn fd_targets(&self, enc: &Encoded, x: AttrSet, targets: AttrSet) -> AttrSet {
        certain_tail(enc, x, targets, Some(self))
    }

    /// Whether `x` has a weak pair involving a row with `⊥` in `x` (the
    /// c-key check's probe tail), by the grouped sweep.
    pub fn has_weak_pair(&self, enc: &Encoded, x: AttrSet) -> bool {
        let mut sweep = WeakSweep::first_pair();
        self.sweep(enc, x, &mut sweep);
        sweep.pair
    }
}

/// The certain-FD tail: the targets of `targets` that survive the
/// grouped sweep of `x`'s weak pairs, through `probes` or, for one-shot
/// checks, unindexed.
fn certain_tail(
    enc: &Encoded,
    x: AttrSet,
    targets: AttrSet,
    probes: Option<&ProbeCache>,
) -> AttrSet {
    let mut sweep = WeakSweep::targets(targets);
    if !targets.is_empty() {
        match probes {
            Some(probes) => probes.sweep(enc, x, &mut sweep),
            None => sweep_direct(enc, x, &mut sweep),
        }
    }
    sweep.holding
}

/// Semantics under which a mined FD `X → A` is evaluated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Semantics {
    /// Classical FD discovery convention: `⊥` compared like a value on
    /// both sides (the convention of the FD-discovery literature the
    /// paper benchmarks against).
    Classical,
    /// Possible FD `X →_s A`: strong similarity on `X`, syntactic
    /// equality on `A`.
    Possible,
    /// Certain FD `X →_w A`: weak similarity on `X`, syntactic equality
    /// on `A`.
    Certain,
    /// Weak FD (Levene/Loizou, via Badia & Lemire): *some* possible
    /// world — some completion of the null markers — satisfies `X → A`
    /// classically. On full tables this is exactly: within every group
    /// of `X`-total rows equal on `X`, all **non-null** `A`-values are
    /// equal. Rows with `⊥` in `X` constrain nothing (the completion
    /// hands them fresh values, isolating them in their own group), and
    /// a `⊥` on `A` is completed to whatever its group agreed on. So
    /// the check runs on strong partitions like the possible one, with
    /// a class rule that tracks the first non-null code per target in
    /// place of the head's codes, and with no weak-pair tail. Pairwise
    /// it is the weakest of the four semantics: certain ⟹ possible ⟹
    /// weak, and classical ⟹ weak.
    Weak,
}

impl Semantics {
    /// Every semantics, in strength order (for matrices and test loops):
    /// certain ⟹ possible ⟹ weak and classical ⟹ weak.
    pub const ALL: [Semantics; 4] = [
        Semantics::Classical,
        Semantics::Possible,
        Semantics::Certain,
        Semantics::Weak,
    ];

    /// Stable lowercase token, as accepted on the wire (`MINE`/`WATCH`)
    /// and by `sqlnf mine --semantics`.
    pub fn token(self) -> &'static str {
        match self {
            Semantics::Classical => "classical",
            Semantics::Possible => "possible",
            Semantics::Certain => "certain",
            Semantics::Weak => "weak",
        }
    }

    /// Parses a [`Self::token`] (case-insensitive). `None` on anything
    /// else — callers decide whether that is an error or a fallthrough.
    pub fn parse(tok: &str) -> Option<Semantics> {
        match tok.to_ascii_lowercase().as_str() {
            "classical" => Some(Semantics::Classical),
            "possible" => Some(Semantics::Possible),
            "certain" => Some(Semantics::Certain),
            "weak" => Some(Semantics::Weak),
            _ => None,
        }
    }
}

/// The per-class rule of a semantics: what a class of rows similar on
/// `X` remembers per target, and which later member refutes a target.
/// A class's state opens with its first row in the first word.
pub(crate) trait ClassRule {
    /// State words a class keeps for `n` targets.
    fn width(n: usize) -> usize;

    /// Compares a later member `row` with the class state on each
    /// target of `holding`. Returns the targets it leaves standing.
    fn feed(
        enc: &Encoded,
        targets: AttrSet,
        state: &mut [u32],
        holding: AttrSet,
        row: usize,
    ) -> AttrSet;
}

/// Classical, possible and certain: `⊥` equals `⊥` on the target, so
/// every member must carry the class head's code.
pub(crate) enum Head {}

impl ClassRule for Head {
    fn width(_: usize) -> usize {
        1
    }

    #[inline]
    fn feed(enc: &Encoded, _: AttrSet, state: &mut [u32], holding: AttrSet, row: usize) -> AttrSet {
        let head = state[0] as usize;
        let mut still = AttrSet::EMPTY;
        for a in holding {
            if enc.code(row, a) == enc.code(head, a) {
                still.insert(a);
            }
        }
        still
    }
}

/// Weak: a `⊥` on the target completes to the class consensus, so each
/// target remembers the first member with a non-null code, and only a
/// later, different non-null code refutes it. (The head would be
/// unsound here: it may carry `⊥` on a target two later rows disagree
/// on.) A class's state is seeded from its head when its second row
/// arrives: a class of one row refutes nothing, and a sweep in row order
/// meets every singleton class.
pub(crate) enum FirstNonNull {}

/// [`FirstNonNull`] state of a target no member has a code on yet.
const NO_ROW: u32 = u32::MAX;

impl ClassRule for FirstNonNull {
    /// The head while the class has no other row, then per target.
    fn width(n: usize) -> usize {
        n + 1
    }

    #[inline]
    fn feed(
        enc: &Encoded,
        targets: AttrSet,
        state: &mut [u32],
        holding: AttrSet,
        row: usize,
    ) -> AttrSet {
        let (head, state) = state.split_first_mut().expect("the head slot");
        if *head != NO_ROW {
            for (seen, a) in state.iter_mut().zip(targets) {
                *seen = if enc.code(*head as usize, a) == 0 {
                    NO_ROW
                } else {
                    *head
                };
            }
            *head = NO_ROW;
        }
        let mut still = holding;
        for (seen, a) in state.iter_mut().zip(targets) {
            let c = enc.code(row, a);
            if c == 0 || !holding.contains(a) {
                continue;
            }
            if *seen == NO_ROW {
                *seen = row as u32;
            } else if enc.code(*seen as usize, a) != c {
                still.remove(a);
            }
        }
        still
    }
}

/// Evaluates `$body` with the type `$R` bound to the [`ClassRule`] of
/// the semantics `$sem`. The body is monomorphised per rule, so each
/// rule's inner loop compiles on its own.
macro_rules! with_rule {
    ($sem:expr, |$R:ident| $body:expr) => {
        match $sem {
            $crate::check::Semantics::Weak => {
                type $R = $crate::check::FirstNonNull;
                $body
            }
            _ => {
                type $R = $crate::check::Head;
                $body
            }
        }
    };
}
pub(crate) use with_rule;

/// The one class kernel: a [`ClassRule`] fed one row at a time with the
/// id of its class, tracking which targets every class has left
/// standing. Class ids index the state, so classes may interleave (the
/// subclasses of one prefix class in a fused refinement); a class's
/// first row re-seeds its id with itself as the head.
pub(crate) struct ClassSweep<R> {
    targets: AttrSet,
    holding: AttrSet,
    width: usize,
    /// The state of class `c` at `c * width..(c + 1) * width`.
    state: Vec<u32>,
    rule: PhantomData<R>,
}

impl<R: ClassRule> ClassSweep<R> {
    pub(crate) fn new(targets: AttrSet) -> ClassSweep<R> {
        ClassSweep {
            targets,
            holding: targets,
            width: R::width(targets.len()),
            state: Vec::new(),
            rule: PhantomData,
        }
    }

    /// The targets no class has refuted so far.
    pub(crate) fn holding(&self) -> AttrSet {
        self.holding
    }

    /// Feeds `row` as a member of class `class` — its first row when
    /// `first`. Returns whether any target survives.
    #[inline]
    pub(crate) fn row(&mut self, enc: &Encoded, class: u32, first: bool, row: usize) -> bool {
        let at = class as usize * self.width;
        let end = at + self.width;
        if first {
            if self.state.len() < end {
                self.state.resize(end, 0);
            }
            self.state[at] = row as u32;
        } else {
            let state = &mut self.state[at..end];
            self.holding = R::feed(enc, self.targets, state, self.holding, row);
        }
        !self.holding.is_empty()
    }

    /// Feeds the rows of one class, first row first; returns whether
    /// any target survives.
    pub(crate) fn class(&mut self, enc: &Encoded, rows: impl IntoIterator<Item = usize>) -> bool {
        rows.into_iter()
            .enumerate()
            .all(|(i, r)| self.row(enc, 0, i == 0, r))
    }
}

/// [`fd_targets_holding`] fused with the partition product, without the
/// certain tail: checks `X → A` for all `A` in `targets` where
/// `X = attrs(prefix) ∪ {by}`, feeding the refinement of `prefix` by
/// `by` row by row to `sem`'s class kernel instead of materializing
/// `π_X` first. Returns the targets left standing — for classical,
/// possible and weak FDs exactly what `fd_targets_holding` returns on
/// `π_X`; a certain caller runs the [`ProbeCache`] tail on them — and
/// whether some class holds two rows, i.e. `X` is not a p-key.
///
/// Stops scanning the moment every target is refuted, which already
/// proves a two-row class: on the last lattice level (where the
/// partition would be thrown away anyway) a violated candidate usually
/// dies within a handful of rows. With `keyed` it runs on to the first
/// two-row class when no target is left, so a key-only question
/// (`targets` empty) stops there.
#[allow(clippy::too_many_arguments)]
pub fn refinement_sweep(
    enc: &Encoded,
    prefix: &Partition,
    by: Attr,
    ns: NullSemantics,
    targets: AttrSet,
    sem: Semantics,
    scratch: &mut ProductScratch,
    keyed: bool,
) -> (AttrSet, bool) {
    sqlnf_obs::count!("discovery.check.fused_checks");
    let mut pair = false;
    let holding = with_rule!(sem, |R| {
        let mut sweep = ClassSweep::<R>::new(targets);
        prefix.for_each_refined_row(enc, by, ns, scratch, |sub, first, r| {
            pair |= !first;
            sweep.row(enc, sub, first, r as usize) || (keyed && !pair)
        });
        sweep.holding()
    });
    (holding, pair)
}

/// [`refinement_sweep`] without a prefix: the rows come in row order,
/// each keyed by its mixed-radix code on `x`
/// ([`Partition::for_each_coded_row`]), so no partition is built and
/// none need be stored. Same contract: the targets left standing (a
/// certain caller runs the [`ProbeCache`] tail on them), whether some
/// class holds two rows, and with `keyed` a run on to the first such
/// class.
pub fn code_sweep(
    enc: &Encoded,
    x: AttrSet,
    ns: NullSemantics,
    targets: AttrSet,
    sem: Semantics,
    scratch: &mut ProductScratch,
    keyed: bool,
) -> (AttrSet, bool) {
    sqlnf_obs::count!("discovery.check.code_sweeps");
    let mut pair = false;
    let holding = with_rule!(sem, |R| {
        let mut sweep = ClassSweep::<R>::new(targets);
        Partition::for_each_coded_row(enc, x, ns, scratch, |class, first, r| {
            pair |= !first;
            sweep.row(enc, class, first, r as usize) || (keyed && !pair)
        });
        sweep.holding()
    });
    (holding, pair)
}

/// Checks `X → A` for all `A` in `targets` at once, returning the
/// subset of `targets` on which the FD holds. `partition` must be the
/// grouping of `X` under the matching semantics ([`null_semantics`]).
/// Certain FDs additionally constrain rows with `⊥` in `X`; `probes`
/// serves that tail from its footprint cache, and `None` sweeps it
/// unindexed (one-shot checks).
pub fn fd_targets_holding(
    enc: &Encoded,
    x: AttrSet,
    partition: &Partition,
    targets: AttrSet,
    sem: Semantics,
    probes: Option<&ProbeCache>,
) -> AttrSet {
    let holding = with_rule!(sem, |R| {
        let mut sweep = ClassSweep::<R>::new(targets);
        for class in &partition.classes {
            if !sweep.class(enc, class.iter().map(|&r| r as usize)) {
                break;
            }
        }
        sweep.holding()
    });
    if sem != Semantics::Certain || holding.is_empty() {
        return holding;
    }
    certain_tail(enc, x, holding, probes)
}

/// Whether `X` is a c-key of the encoded instance: no two rows weakly
/// similar on `X`.
pub fn is_ckey(enc: &Encoded, x: AttrSet, strong_partition: &Partition) -> bool {
    // Any strong class of size ≥ 2 is already a weak violation.
    if !strong_partition.is_empty() {
        return false;
    }
    let mut sweep = WeakSweep::first_pair();
    sweep_direct(enc, x, &mut sweep);
    !sweep.pair
}

/// Whether `X` is a p-key: no two rows strongly similar on `X`
/// (equivalently, the strong partition is empty).
pub fn is_pkey(strong_partition: &Partition) -> bool {
    strong_partition.is_empty()
}

/// Whether the internal c-FD `X →_w X` holds — the extra condition that
/// upgrades a certain FD `X →_w Y` to the *total* FD `X →_w XY`
/// (Definition 9). Rows without nulls in `X` satisfy it trivially
/// (weak similarity = equality there); only null-bearing rows matter,
/// and the check is the certain-FD tail with targets the nullable
/// footprint `S = X ∩ nullable`, not all of `X`.
///
/// Why `S` suffices: every grouping key of the sweep contains
/// `extra = X ∖ S`, whose columns carry no `⊥` — within a pattern the
/// key is `reduced ∪ extra`, across two patterns `(red_i ∩ red_j) ∪
/// extra`. So no group disagrees on a column of `extra`, no such target
/// is ever refuted, and the sweep over targets `X` refutes exactly the
/// targets of `S` the sweep over `S` refutes. Hence `X →_w X` holds iff
/// every target of `S` survives. Asking `X` only keeps the sweep running
/// after the last target of `S` fell, since the `extra` targets never
/// empty `holding`.
pub fn certain_reflexive_holds(enc: &Encoded, x: AttrSet) -> bool {
    let footprint = x & enc.nullable_columns();
    certain_tail(enc, x, footprint, None) == footprint
}

/// [`certain_reflexive_holds`] probing through a shared
/// [`ProbeCache`]; asks the same nullable footprint, for the same
/// reason.
pub fn certain_reflexive_holds_cached(enc: &Encoded, probes: &ProbeCache, x: AttrSet) -> bool {
    let footprint = x & probes.nullable;
    probes.fd_targets(enc, x, footprint) == footprint
}

/// The [`NullSemantics`] under which partitions for `sem` are built:
/// null-as-value for the classical convention, strong similarity for
/// possible/certain/weak FDs (weak satisfaction only ever constrains
/// `X`-total rows, which is exactly what the strong partition groups).
pub fn null_semantics(sem: Semantics) -> NullSemantics {
    match sem {
        Semantics::Classical => NullSemantics::NullAsValue,
        Semantics::Possible | Semantics::Certain | Semantics::Weak => NullSemantics::Strong,
    }
}

/// Whether `X` is a *weak* key — some completion of the instance has no
/// two rows equal on `X`. Rows carrying `⊥` in `X` can always be
/// completed apart with fresh values, while `X`-total duplicates can
/// never be separated, so weak keys coincide **exactly** with possible
/// keys: the strong partition must be empty. Kept as its own entry
/// point so the four-way key surface is explicit (and pinned by the
/// differential tests).
pub fn is_weak_key(strong_partition: &Partition) -> bool {
    is_pkey(strong_partition)
}

/// Builds the grouping of `X` appropriate for `sem` from scratch — the
/// reference path. The miner and the incremental replay product theirs
/// through the partition [`crate::mine::Store`].
pub fn partition_for(enc: &Encoded, x: AttrSet, sem: Semantics) -> Partition {
    Partition::by_set(enc, x, null_semantics(sem))
}

/// Convenience: whether `X → A` holds under `sem` (one-off check; the
/// miner uses [`fd_targets_holding`] with cached partitions).
pub fn fd_holds(enc: &Encoded, x: AttrSet, a: Attr, sem: Semantics) -> bool {
    let p = partition_for(enc, x, sem);
    !fd_targets_holding(enc, x, &p, AttrSet::single(a), sem, None).is_empty()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlnf_model::constraint::{Fd, Key};
    use sqlnf_model::prelude::*;

    fn enc(t: &Table) -> Encoded {
        Encoded::new(t)
    }

    /// What the certain tail answers for one LHS: its surviving
    /// targets, whether it has a weak pair, and whether `X →_w X` holds.
    type TailAnswers = (AttrSet, bool, bool);

    /// The certain tail's answers for every LHS of at most two columns,
    /// through `probes`. Each LHS is asked past the admission
    /// threshold, so direct scans and footprint indexes both answer.
    fn tail_answers(e: &Encoded, probes: &ProbeCache) -> Vec<TailAnswers> {
        let all = e.null_free_columns() | e.nullable_columns();
        let mut out = Vec::new();
        for x in all.subsets().filter(|x| x.len() <= 2) {
            for _ in 0..ADMIT_AFTER + 2 {
                out.push((
                    probes.fd_targets(e, x, all - x),
                    probes.has_weak_pair(e, x),
                    certain_reflexive_holds_cached(e, probes, x),
                ));
            }
        }
        out
    }

    /// The fixtures of the certain-tail golden: the hepatitis shape (no
    /// footprint index is ever admitted there on its own), a null-heavy
    /// 600-row adult prefix and the Figure 7 contact table, whose
    /// profiles repeat with `⊥`.
    fn tail_fixtures() -> Vec<(&'static str, Table)> {
        let adult = sqlnf_datagen::naumann::adult_like(20_160_626);
        let prefix = Table::from_rows(adult.schema().clone(), adult.rows()[..600].to_vec());
        vec![
            ("hepatitis", sqlnf_datagen::naumann::hepatitis_like(7)),
            ("adult600", prefix),
            ("contact", sqlnf_datagen::contact::contact_full(42)),
        ]
    }

    /// [`tail_answers`] as text, one line per LHS and run of asking
    /// rounds that answered alike: the targets that hold, whether a
    /// weak pair exists, whether `X →_w X` holds, and the number of weak
    /// pairs with an FNV-1a digest of [`probe_weak_pairs`]' visiting
    /// order (the order the c-key error's greedy bound consumes).
    fn render_tail_answers(name: &str, e: &Encoded, probes: &ProbeCache) -> String {
        let all = e.null_free_columns() | e.nullable_columns();
        let lhss: Vec<AttrSet> = all.subsets().filter(|x| x.len() <= 2).collect();
        let rounds = ADMIT_AFTER as usize + 2;
        let mut lines: Vec<(AttrSet, usize, usize, String)> = Vec::new();
        for (i, (held, pair, total)) in tail_answers(e, probes).into_iter().enumerate() {
            let x = lhss[i / rounds];
            let (mut pairs, mut digest) = (0usize, 0xcbf2_9ce4_8422_2325u64);
            probe_weak_pairs(e, x, |r, s| {
                pairs += 1;
                for b in (r as u64)
                    .to_le_bytes()
                    .into_iter()
                    .chain((s as u64).to_le_bytes())
                {
                    digest = (digest ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
                }
                true
            });
            let answer =
                format!("held {held:?} pair {pair} total {total} pairs {pairs} {digest:016x}");
            match lines.last_mut() {
                Some(last) if last.0 == x && last.3 == answer => last.2 = i % rounds,
                _ => lines.push((x, i % rounds, i % rounds, answer)),
            }
        }
        lines
            .into_iter()
            .map(|(x, from, to, answer)| format!("{name} {x:?} r{from}-{to}: {answer}\n"))
            .collect()
    }

    /// The certain tail's answers are pinned line for line: which
    /// targets survive, whether a weak pair exists, whether `X →_w X`
    /// holds, and the weak pairs in visiting order, for every LHS of at
    /// most two columns, each asked past the index admission threshold
    /// so direct scans and footprint indexes both answer. A change to
    /// how the sweep groups rows — a key missing a column, a group that
    /// loses its head — moves a line here.
    #[test]
    fn certain_tail_answers_match_golden() {
        const GOLDEN: &str = include_str!("../../../tests/golden/certain_tail_answers.txt");
        let mut got = String::new();
        let mut indexed = false;
        for (name, t) in tail_fixtures() {
            let e = enc(&t);
            let probes = ProbeCache::new(&e);
            got.push_str(&render_tail_answers(name, &e, &probes));
            let state = probes.state.lock().expect("probe cache poisoned");
            indexed |= state.values().any(|slot| slot.idx.is_some());
        }
        assert!(indexed, "a footprint index answers");
        assert!(got
            .lines()
            .any(|l| !l.ends_with(" pairs 0 cbf29ce484222325")));
        for (i, (g, want)) in got.lines().zip(GOLDEN.lines()).enumerate() {
            assert_eq!(g, want, "line {}", i + 1);
        }
        assert_eq!(got.lines().count(), GOLDEN.lines().count());
    }

    /// Totality needs only the nullable footprint: the sweep of `X`
    /// refutes no column of `X ∖ nullable`, so asking `X` and asking
    /// `X ∩ nullable` refute the same targets.
    #[test]
    fn totality_asks_the_nullable_footprint() {
        for (name, t) in tail_fixtures() {
            let e = enc(&t);
            let probes = ProbeCache::new(&e);
            let all = e.null_free_columns() | e.nullable_columns();
            for x in all.subsets().filter(|x| x.len() <= 2) {
                let footprint = x & e.nullable_columns();
                for _ in 0..ADMIT_AFTER + 2 {
                    assert_eq!(
                        probes.fd_targets(&e, x, x),
                        probes.fd_targets(&e, x, footprint) | (x - footprint),
                        "{name} {x:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn figure5_checks() {
        let t = TableBuilder::new("p", ["o", "i", "c", "pr"], &[])
            .row(tuple![5299401i64, "FS", "Amazon", 240i64])
            .row(tuple![5299401i64, "FS", null, 240i64])
            .row(tuple![7485113i64, "FS", "Amazon", 240i64])
            .row(tuple![7485113i64, "DD", "Kingtoys", 25i64])
            .build();
        let e = enc(&t);
        let s = t.schema().clone();
        let ic = s.set(&["i", "c"]);
        let pr = s.a("pr");
        assert!(fd_holds(&e, ic, pr, Semantics::Possible));
        assert!(fd_holds(&e, ic, pr, Semantics::Certain));
        // But ic →_w i fails?? No: rows 1,2 weakly similar on ic, equal
        // on i. ic →_w c fails: unequal on c.
        assert!(fd_holds(&e, ic, s.a("i"), Semantics::Certain));
        assert!(!certain_reflexive_holds(&e, ic));
        // Classical (null as value) also holds: groups (FS,Amazon),
        // (FS,⊥), (DD,K) each constant on price.
        assert!(fd_holds(&e, ic, pr, Semantics::Classical));
        // Weak: the completion hands row 2's ⊥ catalog a fresh value,
        // so every constraint certain satisfaction imposes is relaxed —
        // and price is constant on the remaining exact ic-groups.
        assert!(fd_holds(&e, ic, pr, Semantics::Weak));
        assert!(fd_holds(&e, ic, s.a("i"), Semantics::Weak));
        // oi → c fails under possible (rows 1–2 agree on order and item
        // but map to Amazon and ⊥, syntactically unequal) yet holds
        // weakly: complete the ⊥ to "Amazon".
        let oi = s.set(&["o", "i"]);
        assert!(!fd_holds(&e, oi, s.a("c"), Semantics::Possible));
        assert!(fd_holds(&e, oi, s.a("c"), Semantics::Weak));
    }

    #[test]
    fn keys_on_encoded() {
        let t = TableBuilder::new("r", ["a", "b"], &[])
            .row(tuple!["x", 1i64])
            .row(tuple![null, 2i64])
            .row(tuple!["y", 3i64])
            .build();
        let e = enc(&t);
        let a = AttrSet::from_indices([0]);
        let p = partition_for(&e, a, Semantics::Possible);
        assert!(is_pkey(&p));
        // ⊥ is weakly similar to both x and y → not a c-key.
        assert!(!is_ckey(&e, a, &p));
        let ab = AttrSet::from_indices([0, 1]);
        let pab = partition_for(&e, ab, Semantics::Possible);
        assert!(is_ckey(&e, ab, &pab));
    }

    /// Exhaustive agreement with the naive pairwise checker over all
    /// small tables on a 3-value domain {0, 1, ⊥}.
    #[test]
    fn agrees_with_naive_satisfaction() {
        let vals = [Value::Int(0), Value::Int(1), Value::Null];
        // 3 columns, 3 rows → 3^9 = 19683 tables.
        let schema = TableSchema::new("r", ["a", "b", "c"], &[]);
        let all = AttrSet::from_indices([0, 1, 2]);
        for code in 0..3usize.pow(9) {
            let mut c = code;
            let mut rows = Vec::new();
            for _ in 0..3 {
                let mut row = Vec::new();
                for _ in 0..3 {
                    row.push(vals[c % 3].clone());
                    c /= 3;
                }
                rows.push(Tuple::new(row));
            }
            let t = Table::from_rows(schema.clone(), rows);
            let e = enc(&t);
            for x in all.subsets() {
                let strong = partition_for(&e, x, Semantics::Possible);
                for a in all - x {
                    let fd_p = Fd::possible(x, AttrSet::single(a));
                    let fd_c = Fd::certain(x, AttrSet::single(a));
                    assert_eq!(
                        fd_holds(&e, x, a, Semantics::Possible),
                        satisfies_fd(&t, &fd_p),
                        "p x={x:?} a={a:?}\n{t}"
                    );
                    assert_eq!(
                        fd_holds(&e, x, a, Semantics::Certain),
                        satisfies_fd(&t, &fd_c),
                        "c x={x:?} a={a:?}\n{t}"
                    );
                    let weak = fd_holds(&e, x, a, Semantics::Weak);
                    assert_eq!(
                        weak,
                        satisfies_weak_fd(&t, x, AttrSet::single(a)),
                        "w x={x:?} a={a:?}\n{t}"
                    );
                    // Pairwise strength chain: certain ⟹ possible ⟹
                    // weak, classical ⟹ weak.
                    if fd_holds(&e, x, a, Semantics::Possible)
                        || fd_holds(&e, x, a, Semantics::Classical)
                    {
                        assert!(weak, "chain x={x:?} a={a:?}\n{t}");
                    }
                }
                assert_eq!(is_weak_key(&strong), is_pkey(&strong), "wkey x={x:?}\n{t}");
                assert_eq!(
                    is_pkey(&strong),
                    satisfies_key(&t, &Key::possible(x)),
                    "pkey x={x:?}\n{t}"
                );
                assert_eq!(
                    is_ckey(&e, x, &strong),
                    satisfies_key(&t, &Key::certain(x)),
                    "ckey x={x:?}\n{t}"
                );
                // X →_w X via the dedicated reflexive check.
                let refl = Fd::certain(x, x);
                assert_eq!(
                    certain_reflexive_holds(&e, x),
                    satisfies_fd(&t, &refl),
                    "refl x={x:?}\n{t}"
                );
            }
        }
    }

    /// Every kernel answers exactly what the pairwise definitions say:
    /// the FD targets of all four semantics (class rule and certain
    /// tail, unindexed and through an indexed cache), whether a weak
    /// pair exists, and both totality forms — exhaustively over 3×3
    /// tables on {0, 1, ⊥}, where null rows of two patterns already
    /// meet in the cross-pattern join.
    #[test]
    fn kernels_match_pairwise_definitions_exhaustively() {
        let vals = [Value::Int(0), Value::Int(1), Value::Null];
        let schema = TableSchema::new("r", ["a", "b", "c"], &[]);
        let all = AttrSet::from_indices([0, 1, 2]);
        let pairs = [(0, 1), (0, 2), (1, 2)];
        for code in 0..3usize.pow(9) {
            let rows = (0..3).map(|i| {
                Tuple::new(
                    (0..3)
                        .map(|j| vals[code / 3usize.pow(3 * i + j) % 3].clone())
                        .collect::<Vec<_>>(),
                )
            });
            let t = Table::from_rows(schema.clone(), rows.collect::<Vec<_>>());
            let e = enc(&t);
            let probes = ProbeCache::new(&e);
            for x in all.subsets() {
                let similar = |sem, r, s| match sem {
                    Semantics::Classical => e.equal_on(r, s, x),
                    Semantics::Certain => e.weakly_similar(r, s, x),
                    _ => e.is_total_on(r, x) && e.equal_on(r, s, x),
                };
                let clash = |sem, a, r, s| {
                    let (cr, cs) = (e.code(r, a), e.code(s, a));
                    cr != cs && (sem != Semantics::Weak || (cr != 0 && cs != 0))
                };
                let naive = |sem| {
                    let refuted: AttrSet = pairs
                        .iter()
                        .filter(|&&(r, s)| similar(sem, r, s))
                        .flat_map(|&(r, s)| (all - x).iter().filter(move |&a| clash(sem, a, r, s)))
                        .collect();
                    all - x - refuted
                };
                let weak = |&(r, s): &(usize, usize)| e.weakly_similar(r, s, x);
                let pair = pairs
                    .iter()
                    .filter(|p| weak(p))
                    .any(|&(r, s)| !e.is_total_on(r, x) || !e.is_total_on(s, x));
                let total = pairs
                    .iter()
                    .filter(|p| weak(p))
                    .all(|&(r, s)| e.equal_on(r, s, x));
                for sem in Semantics::ALL {
                    let p = partition_for(&e, x, sem);
                    let held = fd_targets_holding(&e, x, &p, all - x, sem, None);
                    assert_eq!(held, naive(sem), "{sem:?} x={x:?}\n{t}");
                }
                assert_eq!(certain_reflexive_holds(&e, x), total, "x={x:?}\n{t}");
                // Past the fifth probe the footprint is indexed.
                let certain = partition_for(&e, x, Semantics::Certain);
                for round in 0..ADMIT_AFTER + 2 {
                    let held = fd_targets_holding(
                        &e,
                        x,
                        &certain,
                        all - x,
                        Semantics::Certain,
                        Some(&probes),
                    );
                    assert_eq!(
                        held,
                        naive(Semantics::Certain),
                        "round {round} x={x:?}\n{t}"
                    );
                    assert_eq!(
                        probes.has_weak_pair(&e, x),
                        pair,
                        "round {round} x={x:?}\n{t}"
                    );
                    assert_eq!(
                        certain_reflexive_holds_cached(&e, &probes, x),
                        total,
                        "round {round} x={x:?}\n{t}"
                    );
                }
            }
        }
    }

    #[test]
    fn batch_targets_match_single_checks() {
        let t = TableBuilder::new("r", ["a", "b", "c", "d"], &[])
            .row(tuple![1i64, 1i64, 2i64, null])
            .row(tuple![1i64, 1i64, 3i64, null])
            .row(tuple![2i64, null, 3i64, 5i64])
            .build();
        let e = enc(&t);
        let x = AttrSet::from_indices([0]);
        for sem in [
            Semantics::Classical,
            Semantics::Possible,
            Semantics::Certain,
            Semantics::Weak,
        ] {
            let p = partition_for(&e, x, sem);
            let targets = AttrSet::from_indices([1, 2, 3]);
            let batch = fd_targets_holding(&e, x, &p, targets, sem, None);
            for a in targets {
                assert_eq!(batch.contains(a), fd_holds(&e, x, a, sem), "{sem:?} {a:?}");
            }
        }
    }

    /// The promoted [`Semantics::Weak`] must byte-match the related-work
    /// reproduction it generalizes: `sqlnf_core::related::weak_fd_holds`
    /// on the 2-row comparison table of Example 2 (the regression pin
    /// lives in `tests/discovery.rs`, where `sqlnf-core` is in scope;
    /// here we pin the same truth column directly).
    #[test]
    fn example2_weak_column() {
        let t = TableBuilder::new("emp", ["e", "d", "m", "s"], &[])
            .row(tuple!["Turing", "CS", "von Neumann", null])
            .row(tuple!["Turing", null, "Goedel", null])
            .build();
        let e = enc(&t);
        let s = t.schema().clone();
        // (lhs, rhs, weak_fd_holds column of the Example-2 matrix)
        let matrix = [
            ("e", "d", true),
            ("e", "m", false),
            ("e", "s", true),
            ("d", "d", true),
            ("d", "m", true),
            ("m", "e", true),
            ("m", "d", true),
        ];
        for (l, r, want) in matrix {
            assert_eq!(
                fd_holds(&e, s.set(&[l]), s.a(r), Semantics::Weak),
                want,
                "{l} ->weak {r}"
            );
        }
    }
}
