//! Fast satisfaction checks used by the miner, built on
//! dictionary-encoded columns and stripped partitions. Each check is
//! exact — they are property-tested against the naive pairwise
//! definitions of `sqlnf_model::satisfy`.

use crate::partition::{Encoded, NullSemantics, Partition, ProductScratch};
use sqlnf_model::attrs::{Attr, AttrSet};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// A memoized probe structure for weak-similarity checks on a fixed
/// attribute set `X`: the `X`-null rows, and per distinct null
/// *pattern* a hash index of the `X`-total rows keyed by their
/// projection onto the pattern's non-null part.
///
/// Building it costs one pass to merge the per-column null lists, one
/// complement pass for the total-row list, and one key-extraction pass
/// per distinct pattern — the total-row list itself is computed **once**
/// and shared by every pattern (the old code re-scanned all rows with
/// an `is_total_on` test per pattern, which was quadratic in practice
/// on null-heavy candidates). Callers that probe the same `X` several
/// times (c-key + reflexivity during classification, key mining) build
/// the index once and reuse it.
pub struct ProbeIndex {
    x: AttrSet,
    null_rows: Vec<usize>,
    /// Sorted by reduced pattern so probing order is deterministic.
    patterns: Vec<Pattern>,
}

/// One distinct null pattern of `X`: `(reduced, null rows with this
/// pattern, total rows keyed by their projection onto reduced)`.
type Pattern = (AttrSet, Vec<usize>, HashMap<Vec<u32>, Vec<usize>>);

impl ProbeIndex {
    /// Builds the probe index of `x`. Cheap (`O(|X|)`, no allocation)
    /// when no column of `x` carries a `⊥`.
    pub fn new(enc: &Encoded, x: AttrSet) -> ProbeIndex {
        if !enc.has_nulls_on(x) {
            return ProbeIndex {
                x,
                null_rows: Vec::new(),
                patterns: Vec::new(),
            };
        }
        sqlnf_obs::count!("discovery.check.probe_index.builds");
        let null_rows = enc.null_rows_on(x);

        // The x-total rows, computed once: the ascending complement of
        // the (ascending) null-row list.
        let mut total: Vec<usize> = Vec::with_capacity(enc.rows() - null_rows.len());
        let mut nulls_it = null_rows.iter().copied().peekable();
        for r in 0..enc.rows() {
            if nulls_it.peek() == Some(&r) {
                nulls_it.next();
            } else {
                total.push(r);
            }
        }

        // Group the null rows by their reduced (non-null) pattern.
        let mut by_pattern: HashMap<AttrSet, Vec<usize>> = HashMap::new();
        for &r in &null_rows {
            let nulls: AttrSet = x.iter().filter(|&a| enc.code(r, a) == 0).collect();
            by_pattern.entry(x - nulls).or_default().push(r);
        }
        let mut patterns: Vec<Pattern> = by_pattern
            .into_iter()
            .map(|(reduced, rows)| {
                let mut index: HashMap<Vec<u32>, Vec<usize>> = HashMap::new();
                for &s in &total {
                    let key: Vec<u32> = reduced.iter().map(|a| enc.code(s, a)).collect();
                    index.entry(key).or_default().push(s);
                }
                (reduced, rows, index)
            })
            .collect();
        patterns.sort_by_key(|&(reduced, _, _)| reduced);
        ProbeIndex {
            x,
            null_rows,
            patterns,
        }
    }

    /// The attribute set this index probes.
    pub fn x(&self) -> AttrSet {
        self.x
    }

    /// Whether any row carries `⊥` in `X` (if not, every probe is a
    /// trivial success).
    pub fn has_null_rows(&self) -> bool {
        !self.null_rows.is_empty()
    }

    /// Visits every unordered pair of rows that is weakly similar on
    /// `X` and involves at least one row carrying `⊥` in `X` (the pairs
    /// the strong partition cannot see). Calls `f(r, s)`; stops early —
    /// and returns `false` — when `f` returns `false`.
    ///
    /// Null–null pairs are compared directly (there are few null rows
    /// in practice); null–total pairs come from the per-pattern hash
    /// indexes: a row `r` with nulls on `N ⊆ X` is weakly similar to an
    /// `X`-total row `s` iff `s` matches `r` exactly on `X − N`. This
    /// is what keeps c-FD discovery on the 48 842-row `adult` workload
    /// within the same order of magnitude as classical discovery (as in
    /// the paper's comparison).
    pub fn for_each_weak_pair(&self, enc: &Encoded, f: impl FnMut(usize, usize) -> bool) -> bool {
        self.for_each_weak_pair_filtered(enc, AttrSet::EMPTY, f)
    }

    /// [`ProbeIndex::for_each_weak_pair`] for the *larger* attribute
    /// set `self.x ∪ extra`, where every column of `extra` is null-free
    /// in the instance. This is what makes an index reusable across
    /// LHSs sharing a nullable footprint (see [`ProbeCache`]): rows
    /// carry `⊥` in `X` exactly where they carry `⊥` in
    /// `X ∩ nullable`, and on the null-free remainder weak similarity
    /// degenerates to code equality — so the weak pairs of `X` are the
    /// weak pairs of the footprint filtered by equality on `extra`.
    pub fn for_each_weak_pair_filtered(
        &self,
        enc: &Encoded,
        extra: AttrSet,
        mut f: impl FnMut(usize, usize) -> bool,
    ) -> bool {
        let x_full = self.x | extra;
        // 1) null–null pairs.
        for (i, &r) in self.null_rows.iter().enumerate() {
            for &s in &self.null_rows[i + 1..] {
                if enc.weakly_similar(r, s, x_full) && !f(r, s) {
                    return false;
                }
            }
        }
        // 2) null–total pairs, by null pattern.
        for (reduced, rows, index) in &self.patterns {
            for &r in rows {
                let key: Vec<u32> = reduced.iter().map(|a| enc.code(r, a)).collect();
                if let Some(matches) = index.get(&key) {
                    for &s in matches {
                        if enc.equal_on(r, s, extra) && !f(r, s) {
                            return false;
                        }
                    }
                }
            }
        }
        true
    }

    /// Which of `targets` survive every weak pair of `X = self.x ∪
    /// extra` (`extra` null-free, as in
    /// [`ProbeIndex::for_each_weak_pair_filtered`]): exactly the set a
    /// pairwise fold with the code-agreement filter would leave, but
    /// computed in one linear grouping pass per null pattern instead of
    /// enumerating pairs.
    ///
    /// The collapse is sound because code equality is transitive:
    /// within one pattern, a null row and the rows weakly similar to
    /// it share their codes on `reduced ∪ extra`, so the pair
    /// constraints over such a group — every null–null and null–total
    /// pair must agree on each target — are equivalent to "the whole
    /// group is constant on each target". On `adult`-sized instances
    /// this turns the millions of pairs a *holding* candidate would
    /// enumerate into one sweep of the matching buckets.
    pub fn certain_targets_surviving(
        &self,
        enc: &Encoded,
        extra: AttrSet,
        targets: AttrSet,
    ) -> AttrSet {
        let mut holding = targets;
        if self.null_rows.is_empty() || holding.is_empty() {
            return holding;
        }
        const UNSET: u32 = u32::MAX; // dictionary codes are ≤ rows ≪ MAX

        // Per pattern: group the pattern's null rows and the total
        // rows matching them by their codes on `reduced ∪ extra`, and
        // require every group containing a null row to be constant on
        // each surviving target. Buckets are keyed by the reduced
        // codes, so each bucket is swept once per distinct reduced key
        // among the nulls — never per null row.
        for (reduced, rows, index) in &self.patterns {
            if holding.is_empty() {
                return holding;
            }
            let tvec: Vec<Attr> = holding.iter().collect();
            let mut dead = vec![false; tvec.len()];
            let mut by_rkey: HashMap<Vec<u32>, Vec<usize>> = HashMap::new();
            for &r in rows {
                let rkey: Vec<u32> = reduced.iter().map(|a| enc.code(r, a)).collect();
                by_rkey.entry(rkey).or_default().push(r);
            }
            // (has_null, per-target first code, per-target conflict)
            type Group = (bool, Vec<u32>, Vec<bool>);
            let mut groups: HashMap<Vec<u32>, Group> = HashMap::new();
            for (rkey, nulls) in &by_rkey {
                groups.clear();
                let visit = |row: usize, is_null: bool, groups: &mut HashMap<Vec<u32>, Group>| {
                    let ekey: Vec<u32> = extra.iter().map(|a| enc.code(row, a)).collect();
                    let (has_null, codes, conflict) = groups.entry(ekey).or_insert_with(|| {
                        (false, vec![UNSET; tvec.len()], vec![false; tvec.len()])
                    });
                    *has_null |= is_null;
                    for (i, &a) in tvec.iter().enumerate() {
                        let c = enc.code(row, a);
                        if codes[i] == UNSET {
                            codes[i] = c;
                        } else if codes[i] != c {
                            conflict[i] = true;
                        }
                    }
                };
                for &r in nulls {
                    visit(r, true, &mut groups);
                }
                if let Some(bucket) = index.get(rkey) {
                    for &s in bucket {
                        visit(s, false, &mut groups);
                    }
                }
                for (has_null, _, conflict) in groups.values() {
                    if *has_null {
                        for (i, &c) in conflict.iter().enumerate() {
                            dead[i] |= c;
                        }
                    }
                }
            }
            for (i, &a) in tvec.iter().enumerate() {
                if dead[i] {
                    holding.remove(a);
                }
            }
        }

        // Null–null pairs across patterns: a row non-null on `red_i`
        // and one non-null on `red_j` are weakly similar on `X` iff
        // they agree on `(red_i ∩ red_j) ∪ extra` — pairwise, but
        // patterns are few and only null rows participate.
        for i in 0..self.patterns.len() {
            for j in i + 1..self.patterns.len() {
                if holding.is_empty() {
                    return holding;
                }
                let (red_i, rows_i, _) = &self.patterns[i];
                let (red_j, rows_j, _) = &self.patterns[j];
                let common = (*red_i & *red_j) | extra;
                for &r in rows_i {
                    for &s in rows_j {
                        if enc.equal_on(r, s, common) {
                            let mut still = AttrSet::EMPTY;
                            for a in holding {
                                if enc.code(r, a) == enc.code(s, a) {
                                    still.insert(a);
                                }
                            }
                            holding = still;
                            if holding.is_empty() {
                                return holding;
                            }
                        }
                    }
                }
            }
        }
        holding
    }
}

/// One-shot form of [`ProbeIndex::for_each_weak_pair`]: builds the
/// index for `x`, probes, and drops it. Free when `x` is null-free.
/// Hot loops share indexes through a [`ProbeCache`] instead.
pub fn probe_weak_pairs(enc: &Encoded, x: AttrSet, f: impl FnMut(usize, usize) -> bool) -> bool {
    if !enc.has_nulls_on(x) {
        return true;
    }
    ProbeIndex::new(enc, x).for_each_weak_pair(enc, f)
}

/// Weak pairs of `x` without any index: each `X`-null row scanned
/// against the table. Beats building a [`ProbeIndex`] while
/// `nulls × rows` stays small (wide-short instances like `hepatitis`,
/// where most probed footprints are never seen twice).
fn direct_weak_pairs(enc: &Encoded, x: AttrSet, mut f: impl FnMut(usize, usize) -> bool) -> bool {
    let null_rows = enc.null_rows_on(x);
    // null–null pairs, each unordered pair once.
    for (i, &r) in null_rows.iter().enumerate() {
        for &s in &null_rows[i + 1..] {
            if enc.weakly_similar(r, s, x) && !f(r, s) {
                return false;
            }
        }
    }
    // null–total pairs: skip the (ascending) null list while scanning.
    for &r in &null_rows {
        let mut nulls_it = null_rows.iter().copied().peekable();
        for s in 0..enc.rows() {
            if nulls_it.peek() == Some(&s) {
                nulls_it.next();
                continue;
            }
            if enc.weakly_similar(r, s, x) && !f(r, s) {
                return false;
            }
        }
    }
    true
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
/// footprint, with the null-free remainder applied as an equality
/// filter at probe time ([`ProbeIndex::for_each_weak_pair_filtered`],
/// [`ProbeIndex::certain_targets_surviving`]). Keying on `S` alone
/// *without* the filter would be unsound — it admits pairs that
/// disagree on `X ∖ S`.
///
/// ## Build policy
///
/// Footprints whose pair bound is large are indexed on first probe
/// (`adult`: three footprints serve all 58 probed candidates). Small
/// jobs are scanned directly and only earn an index after
/// [`ADMIT_AFTER`] probes, so one-shot footprints — the common case on
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

    /// Visits every weak pair of `x` (exactly as [`probe_weak_pairs`])
    /// through the footprint cache. Enumeration *order* may differ
    /// between the direct and indexed paths; the pair set never does.
    pub fn weak_pairs(
        &self,
        enc: &Encoded,
        x: AttrSet,
        f: impl FnMut(usize, usize) -> bool,
    ) -> bool {
        let s = x & self.nullable;
        if s.is_empty() {
            return true;
        }
        match self.strategy(enc, s) {
            ProbeStrategy::Index(idx) => idx.for_each_weak_pair_filtered(enc, x - s, f),
            ProbeStrategy::Direct => direct_weak_pairs(enc, x, f),
        }
    }

    /// The subset of `targets` on which `X →_w A` survives the weak
    /// pairs of `x` — the certain-semantics tail of the FD check,
    /// served from the footprint cache (and, on the indexed path, by
    /// the linear group-constancy sweep instead of pair enumeration).
    pub fn fd_targets(&self, enc: &Encoded, x: AttrSet, targets: AttrSet) -> AttrSet {
        if targets.is_empty() {
            return targets;
        }
        let s = x & self.nullable;
        if s.is_empty() {
            return targets;
        }
        match self.strategy(enc, s) {
            ProbeStrategy::Index(idx) => idx.certain_targets_surviving(enc, x - s, targets),
            ProbeStrategy::Direct => {
                let mut holding = targets;
                direct_weak_pairs(enc, x, |r, t| {
                    let mut still = AttrSet::EMPTY;
                    for a in holding {
                        if enc.code(r, a) == enc.code(t, a) {
                            still.insert(a);
                        }
                    }
                    holding = still;
                    !holding.is_empty()
                });
                holding
            }
        }
    }
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
    /// a `⊥` on `A` is completed to whatever its group agreed on — so
    /// unlike [`Semantics::Certain`] there is no weak-pair probe tail,
    /// and the null-tolerant class sweep makes this the *weakest* of
    /// the four semantics pairwise: certain ⟹ possible ⟹ weak, and
    /// classical ⟹ weak.
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

/// The subset of `targets` whose non-null codes are constant over
/// `class` — the per-class kernel of [`Semantics::Weak`] (`0` encodes
/// `⊥`, which the weak completion absorbs). Comparing against the
/// class head would be unsound here: the head may carry `⊥` on a
/// target while two later rows disagree with non-null values, so the
/// sweep tracks the first *non-null* code per target instead.
fn weak_targets_in_class(enc: &Encoded, class: &[u32], targets: AttrSet) -> AttrSet {
    let mut still = AttrSet::EMPTY;
    'targets: for a in targets {
        let mut seen = 0u32;
        for &r in class {
            let c = enc.code(r as usize, a);
            if c != 0 {
                if seen == 0 {
                    seen = c;
                } else if seen != c {
                    continue 'targets;
                }
            }
        }
        still.insert(a);
    }
    still
}

/// [`fd_targets_holding`] fused with the partition product: checks
/// `X → A` for all `A` in `targets` where `X = attrs(prefix) ∪ {by}`,
/// sweeping the refinement of `prefix` by `by` directly instead of
/// materializing `π_X` first. Stops scanning the moment every target
/// is refuted — on the last lattice level (where the partition would
/// be thrown away anyway) a violated candidate usually dies within a
/// handful of rows. Returns exactly what
/// `fd_targets_holding(enc, x, &π_X, targets, sem)` would.
#[allow(clippy::too_many_arguments)]
pub fn fd_targets_on_refinement(
    enc: &Encoded,
    x: AttrSet,
    prefix: &Partition,
    by: Attr,
    ns: NullSemantics,
    targets: AttrSet,
    sem: Semantics,
    scratch: &mut ProductScratch,
    probes: &ProbeCache,
) -> AttrSet {
    sqlnf_obs::count!("discovery.check.fused_checks");
    // The weak sweep needs per-class "first non-null code" state, not
    // head-vs-row pairs (the head's `⊥` would mask a later non-null
    // disagreement), so it materializes the refined partition and runs
    // the class kernel directly.
    if sem == Semantics::Weak {
        let p = prefix.product_attr(enc, by, ns, scratch);
        return fd_targets_holding(enc, x, &p, targets, sem);
    }
    let mut holding = targets;
    prefix.for_each_refined_pair(enc, by, ns, scratch, |head, r| {
        let (head, r) = (head as usize, r as usize);
        let mut still = AttrSet::EMPTY;
        for a in holding {
            if enc.code(r, a) == enc.code(head, a) {
                still.insert(a);
            }
        }
        holding = still;
        !holding.is_empty()
    });

    // Certain FDs additionally constrain rows with ⊥ in X, exactly as
    // in the materialized check.
    if sem == Semantics::Certain && !holding.is_empty() {
        holding = probes.fd_targets(enc, x, holding);
    }
    holding
}

/// Checks `X → A` for all `A` in `targets` at once, returning the
/// subset of `targets` on which the FD holds. `partition` must be the
/// grouping of `X` under the matching semantics (strong for
/// [`Semantics::Possible`]/[`Semantics::Certain`], null-as-value for
/// [`Semantics::Classical`]).
pub fn fd_targets_holding(
    enc: &Encoded,
    x: AttrSet,
    partition: &Partition,
    targets: AttrSet,
    sem: Semantics,
) -> AttrSet {
    let mut holding = targets;

    // Within-partition check: every class must be constant on A.
    // For Possible/Certain the class is a strong-similarity class and
    // equality is syntactic (⊥ = ⊥ ⇒ code equality works, with 0 = ⊥);
    // for Weak only the non-null codes must agree (`⊥` is completed to
    // the class consensus).
    for class in &partition.classes {
        if holding.is_empty() {
            break;
        }
        if sem == Semantics::Weak {
            holding = weak_targets_in_class(enc, class, holding);
            continue;
        }
        let first = class[0] as usize;
        for &r in &class[1..] {
            let r = r as usize;
            let mut still = AttrSet::EMPTY;
            for a in holding {
                if enc.code(r, a) == enc.code(first, a) {
                    still.insert(a);
                }
            }
            holding = still;
            if holding.is_empty() {
                break;
            }
        }
    }

    // Certain FDs additionally constrain rows with ⊥ in X: such a row
    // is weakly similar to every row matching its non-null part.
    if sem == Semantics::Certain && !holding.is_empty() {
        probe_weak_pairs(enc, x, |r, s| {
            let mut still = AttrSet::EMPTY;
            for a in holding {
                if enc.code(r, a) == enc.code(s, a) {
                    still.insert(a);
                }
            }
            holding = still;
            !holding.is_empty()
        });
    }
    holding
}

/// [`fd_targets_holding`] probing weak pairs through a [`ProbeCache`]
/// instead of a fresh per-candidate [`ProbeIndex`].
pub fn fd_targets_holding_cached(
    enc: &Encoded,
    x: AttrSet,
    partition: &Partition,
    targets: AttrSet,
    sem: Semantics,
    probes: &ProbeCache,
) -> AttrSet {
    let mut holding = targets;
    for class in &partition.classes {
        if holding.is_empty() {
            break;
        }
        if sem == Semantics::Weak {
            holding = weak_targets_in_class(enc, class, holding);
            continue;
        }
        let first = class[0] as usize;
        for &r in &class[1..] {
            let r = r as usize;
            let mut still = AttrSet::EMPTY;
            for a in holding {
                if enc.code(r, a) == enc.code(first, a) {
                    still.insert(a);
                }
            }
            holding = still;
            if holding.is_empty() {
                break;
            }
        }
    }
    if sem == Semantics::Certain && !holding.is_empty() {
        holding = probes.fd_targets(enc, x, holding);
    }
    holding
}

/// Whether `X` is a c-key of the encoded instance: no two rows weakly
/// similar on `X`.
pub fn is_ckey(enc: &Encoded, x: AttrSet, strong_partition: &Partition) -> bool {
    // Any strong class of size ≥ 2 is already a weak violation.
    if !strong_partition.is_empty() {
        return false;
    }
    probe_weak_pairs(enc, x, |_, _| false)
}

/// [`is_ckey`] probing through a shared [`ProbeCache`].
pub fn is_ckey_cached(
    enc: &Encoded,
    probes: &ProbeCache,
    x: AttrSet,
    strong_partition: &Partition,
) -> bool {
    if !strong_partition.is_empty() {
        return false;
    }
    probes.weak_pairs(enc, x, |_, _| false)
}

/// [`is_ckey`] against a prebuilt [`ProbeIndex`] — for callers that
/// also run the reflexivity check on the same `X`.
pub fn is_ckey_with(enc: &Encoded, idx: &ProbeIndex, strong_partition: &Partition) -> bool {
    if !strong_partition.is_empty() {
        return false;
    }
    idx.for_each_weak_pair(enc, |_, _| false)
}

/// Whether `X` is a p-key: no two rows strongly similar on `X`
/// (equivalently, the strong partition is empty).
pub fn is_pkey(strong_partition: &Partition) -> bool {
    strong_partition.is_empty()
}

/// Whether the internal c-FD `X →_w X` holds — the extra condition that
/// upgrades a certain FD `X →_w Y` to the *total* FD `X →_w XY`
/// (Definition 9). Rows without nulls in `X` satisfy it trivially
/// (weak similarity = equality there); only null-bearing rows matter.
pub fn certain_reflexive_holds(enc: &Encoded, x: AttrSet) -> bool {
    probe_weak_pairs(enc, x, |r, s| enc.equal_on(r, s, x))
}

/// [`certain_reflexive_holds`] against a prebuilt [`ProbeIndex`].
pub fn certain_reflexive_holds_with(enc: &Encoded, idx: &ProbeIndex) -> bool {
    idx.for_each_weak_pair(enc, |r, s| enc.equal_on(r, s, idx.x()))
}

/// [`certain_reflexive_holds`] probing through a shared
/// [`ProbeCache`].
pub fn certain_reflexive_holds_cached(enc: &Encoded, probes: &ProbeCache, x: AttrSet) -> bool {
    probes.weak_pairs(enc, x, |r, s| enc.equal_on(r, s, x))
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
/// reference path; hot loops go through [`crate::cache::PartitionCtx`]
/// instead.
pub fn partition_for(enc: &Encoded, x: AttrSet, sem: Semantics) -> Partition {
    Partition::by_set(enc, x, null_semantics(sem))
}

/// Convenience: whether `X → A` holds under `sem` (one-off check; the
/// miner uses [`fd_targets_holding`] with cached partitions).
pub fn fd_holds(enc: &Encoded, x: AttrSet, a: Attr, sem: Semantics) -> bool {
    let p = partition_for(enc, x, sem);
    !fd_targets_holding(enc, x, &p, AttrSet::single(a), sem).is_empty()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlnf_model::constraint::{Fd, Key};
    use sqlnf_model::prelude::*;

    fn enc(t: &Table) -> Encoded {
        Encoded::new(t)
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
            let batch = fd_targets_holding(&e, x, &p, targets, sem);
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
