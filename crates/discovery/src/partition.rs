//! Stripped partitions à la TANE, adapted to the paper's similarity
//! semantics.
//!
//! A *partition* of the rows by an attribute set `X` groups rows with
//! identical `X`-values; *stripped* means singleton classes are dropped
//! (they can never participate in a violation). Two flavours matter:
//!
//! * [`NullSemantics::Strong`]: strong similarity — a row with `⊥` in
//!   `X` is similar to nothing, so null-bearing rows become singletons
//!   and vanish. This is the grouping for p-FD/p-key checking.
//! * [`NullSemantics::NullAsValue`]: the classical discovery convention
//!   of the FD-mining literature (nulls compared like ordinary values),
//!   used by the classical baseline and for RHS equality (`⊥ = ⊥`).
//!
//! Weak similarity is **not** an equivalence relation and has no
//! partition; c-FD checking handles null-bearing rows by probing (see
//! [`crate::check`]).
//!
//! # Encoding
//!
//! [`Encoded`] is a *zero-copy borrow* of the table's own
//! dictionary-coded columns ([`sqlnf_model::column::ColumnStore`]):
//! `Encoded::new` is `O(arity)` `Arc` clones, not an `O(rows × arity)`
//! hash-everything rebuild. The storage layer guarantees the only
//! invariants the kernels need — code `0` = `⊥`, code equality ⟺ value
//! equality within the table, and every code `≤ dict_size`. Because the
//! dictionary sizes are known, the rows of `X` have a *mixed-radix
//! code* — the codes of `X`'s columns read as the digits of one number,
//! column `a` in base `dict_size(a) + 1` — and two rows share it iff
//! they are equal on `X`. [`Partition::by_codes`] is a counting sort
//! over that code (no hashing, classes come out internally sorted for
//! free), and [`Partition::for_each_coded_row`] hands the rows to a
//! check in row order, keyed by it, without building the partition.
//! Both run while the code space passes the gate of `RADIX_OVER`.

use sqlnf_model::attrs::{Attr, AttrSet};
use sqlnf_model::column::ColData;
use sqlnf_model::table::Table;
use sqlnf_model::value::Value;
use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;

/// How null markers participate in the grouping.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NullSemantics {
    /// `⊥` equals nothing, not even `⊥` — strong similarity.
    Strong,
    /// `⊥` is grouped like an ordinary (single) value — classical
    /// discovery and syntactic RHS equality.
    NullAsValue,
}

/// Dictionary-encoded columns: each cell as a small integer, with `0`
/// reserved for `⊥`. A shared snapshot of the table's columnar
/// storage.
#[derive(Debug, Clone)]
pub struct Encoded {
    /// Shared per-column code vectors and ascending null-row lists.
    cols: Vec<Arc<ColData>>,
    /// Upper bound (inclusive) on the codes in each column.
    dict_sizes: Vec<u32>,
    rows: usize,
}

impl Encoded {
    /// Borrows a table's columnar encoding — `O(arity)`, no per-row
    /// work. The `discovery.encode.{rows,dict_entries}` counters tick
    /// at INSERT time in the storage layer; only the (cheap)
    /// build itself is counted here.
    pub fn new(table: &Table) -> Encoded {
        Encoded::from_snapshot(table.snapshot())
    }

    /// Wraps an already-taken storage snapshot (e.g. the incremental
    /// miner's dense view, which owns its own
    /// [`sqlnf_model::column::ColumnStore`]).
    pub fn from_snapshot(snap: sqlnf_model::column::ColumnSnapshot) -> Encoded {
        let _span = sqlnf_obs::span!("discovery.encode");
        sqlnf_obs::count!("discovery.encode.builds");
        Encoded {
            cols: snap.cols,
            dict_sizes: snap.dict_sizes,
            rows: snap.rows,
        }
    }

    /// Re-encodes a table from its decoded values with the pre-columnar
    /// algorithm (per-column `HashMap<&Value, u32>`, first-appearance
    /// codes). This is the reference path the differential tests mine
    /// against: after a point update or a rolled-back tail the
    /// storage's codes may differ from a fresh encode (retired entries
    /// keep their codes), but
    /// every mined result must be byte-identical either way.
    pub fn from_table_rows(table: &Table) -> Encoded {
        let _span = sqlnf_obs::span!("discovery.encode");
        sqlnf_obs::count!("discovery.encode.builds");
        sqlnf_obs::count!("discovery.encode.rows", table.len());
        let arity = table.schema().arity();
        let mut cols = Vec::with_capacity(arity);
        let mut dict_sizes = Vec::with_capacity(arity);
        for ci in 0..arity {
            let a = Attr::from(ci);
            let mut data = ColData {
                codes: Vec::with_capacity(table.len()),
                null_rows: Vec::new(),
            };
            let mut dict: HashMap<&Value, u32> = HashMap::new();
            for (r, t) in table.iter().enumerate() {
                let v = t.get(a);
                let code = if v.is_null() {
                    data.null_rows.push(r as u32);
                    0
                } else {
                    let next = dict.len() as u32 + 1;
                    *dict.entry(v).or_insert(next)
                };
                data.codes.push(code);
            }
            dict_sizes.push(dict.len() as u32);
            cols.push(Arc::new(data));
        }
        Encoded {
            cols,
            dict_sizes,
            rows: table.len(),
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// The code vector of column `a` — the slice the partition kernels
    /// sweep directly.
    #[inline]
    pub fn column(&self, a: Attr) -> &[u32] {
        &self.cols[a.index()].codes
    }

    /// Inclusive upper bound on the codes in column `a` (the dictionary
    /// size; codes run `1..=dict_size`, plus `0` for `⊥`).
    #[inline]
    pub fn dict_size(&self, a: Attr) -> u32 {
        self.dict_sizes[a.index()]
    }

    /// The size of `X`'s mixed-radix code space, `Π (dict_size(a) + 1)`
    /// over its columns, when it passes the counting-sort gate of
    /// `RADIX_OVER`; `None` when `X` is too wide for it. The empty set
    /// has one code, and a single column always passes: its slots are
    /// bounded by its own dictionary, which holds a value per code.
    pub fn code_space(&self, x: AttrSet) -> Option<usize> {
        if let (Some(a), 1) = (x.first(), x.len()) {
            return Some(self.dict_size(a) as usize + 1);
        }
        // The codes are `u32`s, with `u32::MAX` kept free.
        let gate = (RADIX_OVER * self.rows + 1024).min(u32::MAX as usize);
        x.iter().try_fold(1usize, |space, a| {
            let space = space.saturating_mul(self.dict_size(a) as usize + 1);
            (space <= gate).then_some(space)
        })
    }

    /// Writes the mixed-radix code on `X` of each row of `rows` to
    /// `out`, in row order: the codes of `X`'s columns read as digits,
    /// column `a` in base `dict_size(a) + 1`. With `strong`, a row with
    /// `⊥` in `X` gets 0, a code no `X`-total row has unless `X` is
    /// empty. Computed a column at a time; `X` must pass the gate.
    fn codes_into(&self, x: AttrSet, rows: Range<usize>, strong: bool, out: &mut Vec<u32>) {
        out.clear();
        let mut cols = x.iter();
        let Some(first) = cols.next() else {
            out.resize(rows.len(), 0);
            return;
        };
        out.extend_from_slice(&self.column(first)[rows.clone()]);
        for a in cols {
            let base = self.dict_size(a) + 1;
            for (k, &c) in out.iter_mut().zip(&self.column(a)[rows.clone()]) {
                *k = if strong && (*k == 0 || c == 0) {
                    0
                } else {
                    *k * base + c
                };
            }
        }
    }

    /// The largest dictionary size across all columns — sizes the probe
    /// table of a [`ProductScratch`] once for every column it may meet.
    pub fn max_code(&self) -> u32 {
        self.dict_sizes.iter().copied().max().unwrap_or(0)
    }

    /// The code of `(row, a)`; `0` means `⊥`.
    #[inline]
    pub fn code(&self, row: usize, a: Attr) -> u32 {
        self.cols[a.index()].codes[row]
    }

    #[inline]
    fn nulls(&self, a: Attr) -> &[u32] {
        &self.cols[a.index()].null_rows
    }

    /// Whether the row is `X`-total.
    pub fn is_total_on(&self, row: usize, x: AttrSet) -> bool {
        x.iter().all(|a| self.code(row, a) != 0)
    }

    /// Whether two rows are weakly similar on `X`.
    pub fn weakly_similar(&self, r: usize, s: usize, x: AttrSet) -> bool {
        x.iter().all(|a| {
            let (cr, cs) = (self.code(r, a), self.code(s, a));
            cr == 0 || cs == 0 || cr == cs
        })
    }

    /// Whether two rows are syntactically equal on `X` (`⊥ = ⊥`).
    pub fn equal_on(&self, r: usize, s: usize, x: AttrSet) -> bool {
        x.iter().all(|a| self.code(r, a) == self.code(s, a))
    }

    /// The columns that contain no `⊥` at all.
    pub fn null_free_columns(&self) -> AttrSet {
        (0..self.cols.len())
            .filter(|&ci| self.cols[ci].null_rows.is_empty())
            .map(Attr::from)
            .collect()
    }

    /// The columns that carry at least one `⊥` — the complement of
    /// [`Encoded::null_free_columns`]. A weak-similarity probe of `X`
    /// only ever depends on `X ∩ nullable_columns` plus an equality
    /// filter on the rest (see [`crate::check::ProbeCache`]).
    pub fn nullable_columns(&self) -> AttrSet {
        (0..self.cols.len())
            .filter(|&ci| !self.cols[ci].null_rows.is_empty())
            .map(Attr::from)
            .collect()
    }

    /// Upper bound on `|null_rows_on(x)|` without merging: the sum of
    /// the per-column null counts. Used to price a direct pair scan
    /// against building a [`crate::check::ProbeIndex`].
    pub fn null_count_bound(&self, x: AttrSet) -> usize {
        x.iter().map(|a| self.nulls(a).len()).sum()
    }

    /// Whether any column of `X` carries a `⊥`. `O(|X|)` — the cheap
    /// guard that lets weak-similarity probing skip total candidates
    /// without touching the rows.
    pub fn has_nulls_on(&self, x: AttrSet) -> bool {
        x.iter().any(|a| !self.nulls(a).is_empty())
    }

    /// The rows carrying `⊥` somewhere in `X`, ascending. Merges the
    /// per-column null lists instead of scanning the table, so the cost
    /// is proportional to the nulls present, not to `rows × |X|`.
    pub fn null_rows_on(&self, x: AttrSet) -> Vec<usize> {
        let mut out: Vec<usize> = Vec::new();
        for a in x {
            let col = self.nulls(a);
            if col.is_empty() {
                continue;
            }
            if out.is_empty() {
                out.extend(col.iter().map(|&r| r as usize));
            } else {
                // Sorted union.
                let mut merged = Vec::with_capacity(out.len() + col.len());
                let (mut i, mut j) = (0, 0);
                while i < out.len() && j < col.len() {
                    let (x_, y) = (out[i], col[j] as usize);
                    match x_.cmp(&y) {
                        std::cmp::Ordering::Less => {
                            merged.push(x_);
                            i += 1;
                        }
                        std::cmp::Ordering::Greater => {
                            merged.push(y);
                            j += 1;
                        }
                        std::cmp::Ordering::Equal => {
                            merged.push(x_);
                            i += 1;
                            j += 1;
                        }
                    }
                }
                merged.extend_from_slice(&out[i..]);
                merged.extend(col[j..].iter().map(|&r| r as usize));
                out = merged;
            }
        }
        out
    }
}

/// A stripped partition: classes of size ≥ 2, each a sorted row list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    /// Equivalence classes with at least two rows.
    pub classes: Vec<Vec<u32>>,
}

/// Reusable scratch for [`Partition::product`] and
/// [`Partition::product_attr`]: one `u32` probe table (keyed by row id
/// for the binary product, by dictionary code for the attribute
/// product) plus per-group slot buffers, owned by a thread (a miner
/// worker, an incremental replay) and reused across every
/// intersection it performs — the per-candidate `HashMap` allocations
/// of the old refinement path are gone entirely.
///
/// The probe table is sized **once** — by [`ProductScratch::for_encoded`]
/// at construction, or by one `ensure_probe` branch at the top of each
/// kernel — so the hot loops index it directly with no grow-on-miss
/// branch per row.
#[derive(Debug, Default)]
pub struct ProductScratch {
    /// `probe[row]` = 1-based class id of `row` in the left partition
    /// of the running product; `0` = row absent. Only the labels set by
    /// a product are cleared afterwards, so reuse costs no wipe.
    probe: Vec<u32>,
    /// Slot buffers per left class; capacity retained across products.
    slots: Vec<Vec<u32>>,
    /// Left-class ids touched while sweeping one right class (codes,
    /// in a refinement), in order of first touch.
    touched: Vec<u32>,
}

impl ProductScratch {
    /// Fresh scratch; the probe table is sized by the kernels' entry
    /// checks on first use.
    pub fn new() -> ProductScratch {
        ProductScratch::default()
    }

    /// Fresh scratch pre-sized for every kernel over `enc`: the probe
    /// table covers both row ids (binary products) and dictionary
    /// codes (attribute products) up front.
    pub fn for_encoded(enc: &Encoded) -> ProductScratch {
        ProductScratch {
            probe: vec![0; enc.rows().max(enc.max_code() as usize + 1)],
            ..ProductScratch::default()
        }
    }

    /// One-branch pre-size check at kernel entry; hot loops then index
    /// the probe table directly.
    #[inline]
    fn ensure_probe(&mut self, needed: usize) {
        if self.probe.len() < needed {
            self.probe.resize(needed, 0);
        }
    }

    fn ensure(&mut self, classes: usize) {
        if self.slots.len() < classes {
            self.slots.resize_with(classes, Vec::new);
        }
    }

    #[inline]
    fn label(&mut self, key: u32, id: u32) {
        debug_assert!(
            (key as usize) < self.probe.len(),
            "probe table under-sized: key {key} for len {}",
            self.probe.len()
        );
        self.probe[key as usize] = id;
    }

    #[inline]
    fn probe_label(&self, key: u32) -> u32 {
        debug_assert!((key as usize) < self.probe.len());
        self.probe[key as usize]
    }

    #[inline]
    fn clear_label(&mut self, key: u32) {
        self.probe[key as usize] = 0;
    }
}

/// The counting-sort gate. A kernel that counts over the mixed-radix
/// code of `X` keeps one slot per code of its space, `Π (dict + 1)` over
/// the columns of `X`, so it runs only while that space is at most
/// `RADIX_OVER · rows + 1024` ([`Encoded::code_space`]): the slots never
/// dwarf the rows they sort. A single column always passes: its 4 B
/// slots per code are bounded by its dictionary, already resident with
/// a value per code, and a dictionary outgrows its column only by the
/// values of rolled-back rows. Past the gate, several columns are
/// refined one at a time, and the miner builds such a candidate from a
/// stored prefix.
const RADIX_OVER: usize = 4;

impl Partition {
    /// Partition by an attribute set in one counting sort over the
    /// mixed-radix code of `X` ([`Encoded::code_space`]): the codes a
    /// column at a time, a count per code, then one pass in row order
    /// that opens each class of two or more rows, at exact capacity,
    /// when its first row meets it — so the classes come out in
    /// canonical order, rows ascending, with no hashing and no sort.
    /// Under strong similarity a row with `⊥` in `X` takes code 0, which
    /// no `X`-total row has, and class 0 is dropped. Past the gate, `X`
    /// is [`Partition::by_set`].
    pub fn by_codes(enc: &Encoded, x: AttrSet, sem: NullSemantics) -> Partition {
        let Some(space) = enc.code_space(x) else {
            return Partition::by_set(enc, x, sem);
        };
        if x.is_empty() {
            return Partition::universal(enc.rows());
        }
        Partition::counted_build(enc);
        let strong = sem == NullSemantics::Strong;
        // counts[c] = the rows of code c; once its class is open, that
        // class's index, flagged. Classes open in order of their first
        // row, and each takes its rows in row order.
        const OPEN: u32 = 1 << 31;
        assert!(enc.rows() < OPEN as usize, "row ids fit below the flag");
        let mut codes = Vec::new();
        enc.codes_into(x, 0..enc.rows(), strong, &mut codes);
        let mut counts = vec![0u32; space];
        for &k in &codes {
            counts[k as usize] += 1;
        }
        if strong {
            counts[0] = 0;
        }
        let mut classes: Vec<Vec<u32>> = Vec::new();
        for (r, &k) in codes.iter().enumerate() {
            let n = &mut counts[k as usize];
            if *n & OPEN == 0 {
                if *n < 2 {
                    continue;
                }
                classes.push(Vec::with_capacity(*n as usize));
                *n = OPEN | (classes.len() - 1) as u32;
            }
            classes[(*n & !OPEN) as usize].push(r as u32);
        }
        Partition { classes }
    }

    /// Counts one partition built from the table's rows.
    fn counted_build(enc: &Encoded) {
        sqlnf_obs::count!("discovery.partition.builds");
        sqlnf_obs::count!("discovery.partition.rows_scanned", enc.rows());
    }

    /// The trivial partition over the empty attribute set: one class of
    /// all rows.
    pub fn universal(rows: usize) -> Partition {
        if rows < 2 {
            return Partition { classes: vec![] };
        }
        Partition {
            classes: vec![(0..rows as u32).collect()],
        }
    }

    /// Partition by an attribute set: the first column's partition
    /// refined by each further column — the reference grouping the
    /// other kernels are tested against.
    pub fn by_set(enc: &Encoded, x: AttrSet, sem: NullSemantics) -> Partition {
        let mut attrs = x.iter();
        let first = match attrs.next() {
            None => return Partition::universal(enc.rows()),
            Some(a) => a,
        };
        let mut p = Partition::by_codes(enc, AttrSet::single(first), sem);
        for a in attrs {
            p = p.refine_by(enc, a, sem);
        }
        p
    }

    /// Refines the partition by one more attribute. Same kernel as
    /// [`Partition::product_attr`], with a throwaway scratch — callers
    /// on the hot path thread their own scratch through `product_attr`
    /// instead.
    pub fn refine_by(&self, enc: &Encoded, a: Attr, sem: NullSemantics) -> Partition {
        sqlnf_obs::count!("discovery.partition.intersections");
        sqlnf_obs::count!(
            "discovery.partition.rows_scanned",
            self.classes.iter().map(|c| c.len()).sum::<usize>()
        );
        let mut scratch = ProductScratch::new();
        self.refine_with(enc, a, sem, &mut scratch)
    }

    /// TANE-style product `π_self · π_other` in one linear sweep over
    /// the two stripped partitions, using a reusable probe table —
    /// no per-class hashing, no allocation beyond the emitted classes.
    ///
    /// Correctness: two rows share a class of the product iff they
    /// share a class in *both* inputs. Under either [`NullSemantics`]
    /// this is exactly the stripped partition of the attribute-set
    /// union (strong similarity drops null-bearing rows from both
    /// sides; null-as-value keeps `⊥` as the code `0`), so
    /// `π_X.product(π_Y) == Partition::by_set(enc, X ∪ Y)` — the
    /// equality the `product_matches_by_set` property test pins down.
    /// The result is canonical (sorted classes of sorted rows), so
    /// `PartialEq` agreement with [`Partition::by_set`] is structural.
    pub fn product(&self, other: &Partition, scratch: &mut ProductScratch) -> Partition {
        sqlnf_obs::count!("discovery.partition.products");
        scratch.ensure(self.classes.len());
        let needed = self
            .classes
            .iter()
            .chain(other.classes.iter())
            .filter_map(|c| c.last())
            .map(|&r| r as usize + 1)
            .max()
            .unwrap_or(0);
        scratch.ensure_probe(needed);
        let mut scanned = 0usize;
        // Label every row of `self` with its class id (1-based; 0 =
        // absent, i.e. stripped singleton or dropped null row).
        for (i, class) in self.classes.iter().enumerate() {
            scanned += class.len();
            for &r in class {
                scratch.label(r, i as u32 + 1);
            }
        }
        let mut classes: Vec<Vec<u32>> = Vec::new();
        for class in &other.classes {
            scanned += class.len();
            for &r in class {
                let id = scratch.probe_label(r);
                if id != 0 {
                    let slot = &mut scratch.slots[id as usize - 1];
                    if slot.is_empty() {
                        scratch.touched.push(id - 1);
                    }
                    slot.push(r);
                }
            }
            for &i in &scratch.touched {
                let slot = &mut scratch.slots[i as usize];
                if slot.len() >= 2 {
                    classes.push(std::mem::take(slot));
                } else {
                    slot.clear();
                }
            }
            scratch.touched.clear();
        }
        // Reset only the labels we set, keeping the probe table clean
        // for the next product without an O(rows) wipe.
        for class in &self.classes {
            for &r in class {
                scratch.clear_label(r);
            }
        }
        sqlnf_obs::count!("discovery.partition.rows_scanned", scanned);
        classes.sort_unstable_by_key(|c| c[0]);
        Partition { classes }
    }

    /// The product `π_self · π_{a}` in one sweep over `self`'s stripped
    /// classes, reading the dictionary codes of `a` directly instead of
    /// materializing (or even touching) the single-attribute partition.
    /// This is the miner's refinement step: its cost is proportional to
    /// the rows inside `self`'s classes — which shrink rapidly as the
    /// lattice level grows — not to the table. Same canonical result as
    /// `product(&Partition::by_codes(enc, {a}, sem))` and as
    /// [`Partition::refine_by`], without the per-class `HashMap`.
    pub fn product_attr(
        &self,
        enc: &Encoded,
        a: Attr,
        sem: NullSemantics,
        scratch: &mut ProductScratch,
    ) -> Partition {
        sqlnf_obs::count!("discovery.partition.products");
        sqlnf_obs::count!(
            "discovery.partition.rows_scanned",
            self.classes.iter().map(|c| c.len()).sum::<usize>()
        );
        self.refine_with(enc, a, sem, scratch)
    }

    /// Shared kernel of [`Partition::refine_by`] and
    /// [`Partition::product_attr`] (counters live in the wrappers).
    fn refine_with(
        &self,
        enc: &Encoded,
        a: Attr,
        sem: NullSemantics,
        scratch: &mut ProductScratch,
    ) -> Partition {
        let col = enc.column(a);
        scratch.ensure_probe(enc.dict_size(a) as usize + 1);
        let strong = sem == NullSemantics::Strong;
        let mut classes: Vec<Vec<u32>> = Vec::new();
        for class in &self.classes {
            // Counting two-pass scoped to this class: the probe table
            // first holds per-code counts, then 1-based output slots
            // for the codes that survive stripping. One exact-capacity
            // allocation per emitted subclass, nothing at all for
            // singletons — which dominate once a selective attribute
            // has entered the product chain.
            for &r in class {
                let c = col[r as usize];
                if c == 0 && strong {
                    continue;
                }
                let n = scratch.probe_label(c);
                if n == 0 {
                    scratch.touched.push(c);
                }
                scratch.label(c, n + 1);
            }
            let base = classes.len();
            for i in 0..scratch.touched.len() {
                let c = scratch.touched[i];
                let n = scratch.probe_label(c);
                if n >= 2 {
                    classes.push(Vec::with_capacity(n as usize));
                    scratch.label(c, (classes.len() - base) as u32);
                } else {
                    scratch.clear_label(c);
                }
            }
            if classes.len() > base {
                for &r in class {
                    let c = col[r as usize];
                    if c == 0 && strong {
                        continue;
                    }
                    let id = scratch.probe_label(c);
                    if id != 0 {
                        classes[base + id as usize - 1].push(r);
                    }
                }
            }
            while let Some(c) = scratch.touched.pop() {
                scratch.clear_label(c);
            }
        }
        classes.sort_unstable_by_key(|c| c[0]);
        Partition { classes }
    }

    /// Groups rows by their codes on `key` (null-as-value): the group of
    /// each `opening` row, numbered densely from 0 in order of first
    /// appearance, and the `joining` rows equal on `key` to some opening
    /// row, each with that row's group, in `joining` order. Rows of
    /// either list must be distinct. No row's codes are hashed:
    ///
    /// 1. a *code filter* per key column, most selective first, keeps
    ///    the joining rows whose code on that column some opening row
    ///    carries — the probe table marks the opening rows' codes;
    /// 2. the refinement kernel of [`Partition::product_attr`], started
    ///    from one class of the opening and surviving joining rows,
    ///    splits them by every key column; a row in no stripped class is
    ///    alone in its group.
    ///
    /// The filter only drops rows the refinement would leave without an
    /// opening row, so the groups are exactly "equal codes on `key`";
    /// the order of the columns changes neither pass's result.
    /// Uncounted: callers count the rows they group.
    pub(crate) fn join_groups(
        enc: &Encoded,
        key: AttrSet,
        opening: &[u32],
        mut joining: Vec<u32>,
        scratch: &mut ProductScratch,
    ) -> (Vec<u32>, Vec<(u32, u32)>) {
        let mut cols: Vec<Attr> = key.iter().collect();
        cols.sort_by_key(|&a| std::cmp::Reverse(enc.dict_size(a)));
        for &a in &cols {
            if joining.is_empty() {
                break;
            }
            let col = enc.column(a);
            scratch.ensure_probe(enc.dict_size(a) as usize + 1);
            for &r in opening {
                scratch.label(col[r as usize], 1);
            }
            joining.retain(|&s| scratch.probe_label(col[s as usize]) != 0);
            for &r in opening {
                scratch.clear_label(col[r as usize]);
            }
        }
        let mut rows = opening.to_vec();
        rows.extend_from_slice(&joining);
        let mut p = Partition {
            classes: if rows.len() >= 2 {
                vec![rows]
            } else {
                Vec::new()
            },
        };
        for &a in &cols {
            if p.is_empty() {
                break;
            }
            p = p.refine_with(enc, a, NullSemantics::NullAsValue, scratch);
        }
        // Label each row with its class (1-based; 0 = alone), then number
        // the groups as the opening rows first meet them.
        scratch.ensure_probe(enc.rows());
        for (i, class) in p.classes.iter().enumerate() {
            for &r in class {
                scratch.label(r, i as u32 + 1);
            }
        }
        const NONE: u32 = u32::MAX;
        let mut class_group = vec![NONE; p.classes.len()];
        let mut groups = 0u32;
        let mut next = || {
            groups += 1;
            groups - 1
        };
        let ids = opening
            .iter()
            .map(
                |&r| match (scratch.probe_label(r) as usize).checked_sub(1) {
                    Some(c) if class_group[c] != NONE => class_group[c],
                    Some(c) => {
                        class_group[c] = next();
                        class_group[c]
                    }
                    None => next(),
                },
            )
            .collect();
        let joined = joining
            .iter()
            .filter_map(|&s| {
                let c = (scratch.probe_label(s) as usize).checked_sub(1)?;
                (class_group[c] != NONE).then_some((s, class_group[c]))
            })
            .collect();
        for class in &p.classes {
            for &r in class {
                scratch.clear_label(r);
            }
        }
        (ids, joined)
    }

    /// Sweeps the refinement `π_self · π_{a}` row by row *without
    /// materializing it*: calls `f(sub, first, r)` for every row `r`
    /// the null semantics keeps, where `sub` numbers `r`'s subclass
    /// within its prefix class (from 0, in order of first appearance)
    /// and `first` marks the subclass's first row. Subclasses of one
    /// prefix class interleave, so a consumer keeps its state per
    /// `sub`; the numbering restarts at every prefix class. Stops — and
    /// returns `false` — as soon as `f` does, skipping the rest of the
    /// sweep entirely.
    ///
    /// This is the check-only fast path for lattice levels whose
    /// partitions are never stored (the last level): a violated FD is
    /// usually refuted within a few rows, so fusing the product with
    /// the class check ([`crate::check::refinement_sweep`])
    /// avoids paying the full prefix sweep per candidate. Only the rows
    /// actually visited count towards
    /// `discovery.partition.rows_scanned`.
    pub fn for_each_refined_row(
        &self,
        enc: &Encoded,
        a: Attr,
        sem: NullSemantics,
        scratch: &mut ProductScratch,
        mut f: impl FnMut(u32, bool, u32) -> bool,
    ) -> bool {
        sqlnf_obs::count!("discovery.partition.products");
        let col = enc.column(a);
        scratch.ensure_probe(enc.dict_size(a) as usize + 1);
        let strong = sem == NullSemantics::Strong;
        let mut scanned = 0usize;
        let mut live = true;
        for class in &self.classes {
            for &r in class {
                scanned += 1;
                let c = col[r as usize];
                if c == 0 && strong {
                    continue;
                }
                let mut id = scratch.probe_label(c);
                let first = id == 0;
                if first {
                    scratch.touched.push(c);
                    id = scratch.touched.len() as u32;
                    scratch.label(c, id);
                }
                if !f(id - 1, first, r) {
                    live = false;
                    break;
                }
            }
            while let Some(c) = scratch.touched.pop() {
                scratch.clear_label(c);
            }
            if !live {
                break;
            }
        }
        sqlnf_obs::count!("discovery.partition.rows_scanned", scanned);
        live
    }

    /// Sweeps the classes of `π_X` row by row *without building it*, in
    /// row order: calls `f(class, first, r)` for every row `r` the null
    /// semantics keeps, where `class` numbers `r`'s class by its
    /// mixed-radix code on `X` (from 0, in order of first appearance)
    /// and `first` marks the class's first row. Classes interleave, so a
    /// consumer keeps its state per `class`. Stops — and returns `false`
    /// — as soon as `f` does. Past the counting-sort gate
    /// ([`Encoded::code_space`]) it sweeps the classes of
    /// [`Partition::by_codes`] one after another instead, each as class
    /// 0.
    ///
    /// This is the check of a candidate whose partition no later level
    /// reads and that has no stored prefix to refine
    /// ([`crate::check::code_sweep`]): as with
    /// [`Partition::for_each_refined_row`], a violated FD is usually
    /// refuted within a few rows, and the sweep ends there. Only the
    /// rows visited count towards `discovery.partition.rows_scanned`.
    pub fn for_each_coded_row(
        enc: &Encoded,
        x: AttrSet,
        sem: NullSemantics,
        scratch: &mut ProductScratch,
        mut f: impl FnMut(u32, bool, u32) -> bool,
    ) -> bool {
        let Some(space) = enc.code_space(x) else {
            return Partition::by_codes(enc, x, sem)
                .classes
                .iter()
                .all(|class| {
                    let mut rows = class.iter().enumerate();
                    rows.all(|(i, &r)| f(0, i == 0, r))
                });
        };
        scratch.ensure_probe(space);
        let strong = sem == NullSemantics::Strong;
        let skip_zero = strong && !x.is_empty();
        // The codes are computed a block of rows at a time: column by
        // column, yet an early stop wastes at most one block.
        const BLOCK: usize = 4096;
        let mut codes = Vec::with_capacity(BLOCK);
        let mut scanned = 0usize;
        let mut live = true;
        'sweep: for start in (0..enc.rows()).step_by(BLOCK) {
            let rows = start..(start + BLOCK).min(enc.rows());
            enc.codes_into(x, rows, strong, &mut codes);
            for (r, &code) in (start as u32..).zip(&codes) {
                scanned += 1;
                if skip_zero && code == 0 {
                    continue;
                }
                let mut id = scratch.probe_label(code);
                let first = id == 0;
                if first {
                    scratch.touched.push(code);
                    id = scratch.touched.len() as u32;
                    scratch.label(code, id);
                }
                if !f(id - 1, first, r) {
                    live = false;
                    break 'sweep;
                }
            }
        }
        while let Some(code) = scratch.touched.pop() {
            scratch.clear_label(code);
        }
        sqlnf_obs::count!("discovery.partition.rows_scanned", scanned);
        live
    }

    /// Approximate heap footprint in bytes — the accounting unit of the
    /// partition store's byte budget.
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of::<Partition>()
            + self.classes.len() * std::mem::size_of::<Vec<u32>>()
            + self
                .classes
                .iter()
                .map(|c| c.capacity() * std::mem::size_of::<u32>())
                .sum::<usize>()
    }

    /// An upper bound on the [`Partition::approx_bytes`] of `π_X`, from
    /// the column statistics alone (`O(|X|)`, no row pass): under
    /// strong similarity no row with `⊥` in `X` is in a class, so the
    /// stripped rows are at most the rows less the nulls of `X`'s most
    /// null column; every class holds two or more rows and one code of
    /// `X`'s space ([`Encoded::code_space`]). Each kernel that builds
    /// from codes or refines by them allocates its classes at exact
    /// capacity, so what it builds stays within the bound.
    pub fn max_bytes(enc: &Encoded, x: AttrSet, sem: NullSemantics) -> usize {
        let nulls = match sem {
            NullSemantics::Strong => x.iter().map(|a| enc.nulls(a).len()).max(),
            NullSemantics::NullAsValue => None,
        };
        let stripped = enc.rows() - nulls.unwrap_or(0);
        let classes = (stripped / 2).min(enc.code_space(x).unwrap_or(usize::MAX));
        std::mem::size_of::<Partition>()
            + classes * std::mem::size_of::<Vec<u32>>()
            + stripped * std::mem::size_of::<u32>()
    }

    /// `Σ (|class| − 1)`: the TANE error measure. Zero iff the grouping
    /// is (a candidate for) a key under the chosen semantics.
    pub fn error(&self) -> usize {
        self.classes.iter().map(|c| c.len() - 1).sum()
    }

    /// Number of (non-singleton) classes.
    pub fn len(&self) -> usize {
        self.classes.len()
    }

    /// Total rows inside the stripped classes — the cost of sweeping
    /// this partition in [`Partition::product_attr`]. Product callers
    /// use it to pick the *cheapest* available prefix (TANE: refine
    /// from the smallest representation; a candidate containing a
    /// near-unique attribute has an almost-empty stripped partition).
    pub fn stripped_rows(&self) -> usize {
        self.classes.iter().map(Vec::len).sum()
    }

    /// Whether there are no classes of size ≥ 2.
    pub fn is_empty(&self) -> bool {
        self.classes.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlnf_model::prelude::*;

    fn sample() -> Table {
        TableBuilder::new("r", ["a", "b"], &[])
            .row(tuple!["x", 1i64])
            .row(tuple!["x", 1i64])
            .row(tuple![null, 1i64])
            .row(tuple![null, 2i64])
            .row(tuple!["y", 2i64])
            .build()
    }

    #[test]
    fn encoding_nulls_are_zero() {
        let t = sample();
        let e = Encoded::new(&t);
        assert_eq!(e.rows(), 5);
        assert_eq!(e.code(2, Attr(0)), 0);
        assert_ne!(e.code(0, Attr(0)), 0);
        assert_eq!(e.code(0, Attr(0)), e.code(1, Attr(0)));
        assert_ne!(e.code(0, Attr(0)), e.code(4, Attr(0)));
        assert_eq!(e.null_free_columns(), AttrSet::from_indices([1]));
        assert_eq!(e.null_rows_on(AttrSet::from_indices([0])), vec![2, 3]);
    }

    #[test]
    fn snapshot_matches_row_major_reference_encode() {
        // For an append-only table, the storage's first-appearance
        // codes are exactly what the reference row-major encode
        // produces: same codes, same null lists, same dictionary sizes.
        let t = sample();
        let snap = Encoded::new(&t);
        let fresh = Encoded::from_table_rows(&t);
        assert_eq!(snap.rows, fresh.rows);
        assert_eq!(snap.dict_sizes, fresh.dict_sizes);
        for a in t.schema().attrs() {
            assert_eq!(snap.column(a), fresh.column(a), "{a:?} codes");
            assert_eq!(snap.nulls(a), fresh.nulls(a), "{a:?} null rows");
        }
    }

    #[test]
    fn snapshot_after_dml_partitions_agree_with_reference() {
        // Cell rewrites and a tail rollback may leave the storage with
        // retired codes the reference encode never assigns; the
        // *partitions* (and hence everything mined) must agree
        // regardless.
        let mut t = sample();
        t.set_value(0, Attr(0), Value::str("z"));
        t.set_value(3, Attr(0), Value::str("x"));
        t.truncate(4);
        t.push(tuple!["x", 2i64]);
        t.set_value(2, Attr(1), Value::Null);
        let snap = Encoded::new(&t);
        let fresh = Encoded::from_table_rows(&t);
        assert_eq!(snap.rows(), fresh.rows());
        for sem in [NullSemantics::Strong, NullSemantics::NullAsValue] {
            for a in t.schema().attrs() {
                assert_eq!(
                    Partition::by_codes(&snap, AttrSet::single(a), sem),
                    Partition::by_codes(&fresh, AttrSet::single(a), sem),
                    "{a:?} {sem:?}"
                );
                assert_eq!(snap.nulls(a), fresh.nulls(a), "{a:?} null rows");
            }
            let ab = AttrSet::from_indices([0, 1]);
            assert_eq!(
                Partition::by_set(&snap, ab, sem),
                Partition::by_set(&fresh, ab, sem),
                "{sem:?} by_set"
            );
        }
    }

    #[test]
    fn sparse_column_partitions_match_naive_grouping() {
        // A synthetic column whose code space dwarfs its rows, as a
        // dictionary left large by rolled-back rows would: the counting
        // sort over its codes must agree with a naive grouping.
        let codes = vec![70_000u32, 3, 0, 70_000, 3, 1 << 20, 0, 1 << 20, 5];
        let nulls: Vec<u32> = codes
            .iter()
            .enumerate()
            .filter(|(_, &c)| c == 0)
            .map(|(r, _)| r as u32)
            .collect();
        let rows = codes.len();
        let enc = Encoded {
            cols: vec![Arc::new(ColData {
                codes: codes.clone(),
                null_rows: nulls,
            })],
            dict_sizes: vec![1 << 20],
            rows,
        };
        assert!((1 << 20) > RADIX_OVER * rows + 1024, "space past the gate");
        let one = AttrSet::single(Attr(0));
        assert_eq!(
            enc.code_space(one),
            Some((1 << 20) + 1),
            "one column passes"
        );
        for sem in [NullSemantics::Strong, NullSemantics::NullAsValue] {
            let coded = Partition::by_codes(&enc, one, sem);
            // Naive reference grouping.
            let mut groups: HashMap<u32, Vec<u32>> = HashMap::new();
            for (r, &c) in codes.iter().enumerate() {
                if c == 0 && sem == NullSemantics::Strong {
                    continue;
                }
                groups.entry(c).or_default().push(r as u32);
            }
            let mut expect: Vec<Vec<u32>> = groups.into_values().filter(|g| g.len() >= 2).collect();
            expect.sort_unstable_by_key(|c| c[0]);
            assert_eq!(coded.classes, expect, "{sem:?}");
        }
        let strong = Partition::by_codes(&enc, one, NullSemantics::Strong);
        assert_eq!(strong.classes, vec![vec![0, 3], vec![1, 4], vec![5, 7]]);
        let nav = Partition::by_codes(&enc, one, NullSemantics::NullAsValue);
        assert_eq!(
            nav.classes,
            vec![vec![0, 3], vec![1, 4], vec![2, 6], vec![5, 7]]
        );
    }

    #[test]
    fn strong_partition_drops_null_rows() {
        let t = sample();
        let e = Encoded::new(&t);
        let p = Partition::by_codes(&e, AttrSet::single(Attr(0)), NullSemantics::Strong);
        // Only {0,1} (the two "x" rows) form a class; nulls vanish and
        // "y" is a singleton.
        assert_eq!(p.classes, vec![vec![0, 1]]);
        assert_eq!(p.error(), 1);
    }

    #[test]
    fn null_as_value_groups_nulls_together() {
        let t = sample();
        let e = Encoded::new(&t);
        let p = Partition::by_codes(&e, AttrSet::single(Attr(0)), NullSemantics::NullAsValue);
        let mut classes = p.classes.clone();
        classes.sort();
        assert_eq!(classes, vec![vec![0, 1], vec![2, 3]]);
    }

    #[test]
    fn set_partition_refines() {
        let t = sample();
        let e = Encoded::new(&t);
        let ab = AttrSet::from_indices([0, 1]);
        let p_strong = Partition::by_set(&e, ab, NullSemantics::Strong);
        assert_eq!(p_strong.classes, vec![vec![0, 1]]);
        let p_nav = Partition::by_set(&e, ab, NullSemantics::NullAsValue);
        // (x,1) twice; (⊥,1) and (⊥,2) split.
        assert_eq!(p_nav.classes, vec![vec![0, 1]]);
    }

    #[test]
    fn universal_partition() {
        let p = Partition::universal(4);
        assert_eq!(p.classes, vec![vec![0, 1, 2, 3]]);
        assert_eq!(p.error(), 3);
        assert!(Partition::universal(1).is_empty());
    }

    #[test]
    fn empty_attr_set_is_universal() {
        let t = sample();
        let e = Encoded::new(&t);
        let p = Partition::by_set(&e, AttrSet::EMPTY, NullSemantics::Strong);
        assert_eq!(p.classes.len(), 1);
        assert_eq!(p.classes[0].len(), 5);
    }

    #[test]
    fn product_matches_by_set() {
        let t = sample();
        let e = Encoded::new(&t);
        let mut scratch = ProductScratch::for_encoded(&e);
        let ab = AttrSet::from_indices([0, 1]);
        for sem in [NullSemantics::Strong, NullSemantics::NullAsValue] {
            let pa = Partition::by_codes(&e, AttrSet::single(Attr(0)), sem);
            let pb = Partition::by_codes(&e, AttrSet::single(Attr(1)), sem);
            assert_eq!(
                pa.product(&pb, &mut scratch),
                Partition::by_set(&e, ab, sem),
                "{sem:?}"
            );
            // The universal partition is the product identity on
            // stripped partitions.
            let u = Partition::universal(e.rows());
            assert_eq!(pa.product(&u, &mut scratch), pa, "{sem:?} right-id");
            assert_eq!(u.product(&pa, &mut scratch), pa, "{sem:?} left-id");
        }
    }

    /// Both mixed-radix kernels group as `by_set` on every subset: the
    /// counting sort's classes, and the classes the row-order sweep
    /// numbers (singletons dropped), which must also leave the scratch
    /// clean for a later product.
    #[test]
    fn coded_kernels_match_by_set() {
        let t = sample();
        let e = Encoded::new(&t);
        let mut scratch = ProductScratch::new();
        for sem in [NullSemantics::Strong, NullSemantics::NullAsValue] {
            for x in AttrSet::from_indices([0, 1]).subsets() {
                let want = Partition::by_set(&e, x, sem);
                assert!(e.code_space(x).is_some());
                assert_eq!(Partition::by_codes(&e, x, sem), want, "{sem:?} {x:?}");
                let mut classes: Vec<Vec<u32>> = Vec::new();
                Partition::for_each_coded_row(&e, x, sem, &mut scratch, |class, first, r| {
                    assert_eq!(first, class as usize == classes.len(), "{sem:?} {x:?}");
                    if first {
                        classes.push(Vec::new());
                    }
                    classes[class as usize].push(r);
                    true
                });
                classes.retain(|c| c.len() >= 2);
                assert_eq!(Partition { classes }, want, "{sem:?} {x:?} swept");
                let pa = Partition::by_codes(&e, AttrSet::single(Attr(0)), sem);
                assert_eq!(
                    pa.product_attr(&e, Attr(1), sem, &mut scratch),
                    pa.refine_by(&e, Attr(1), sem),
                    "{sem:?} product after the sweep"
                );
            }
        }
    }

    #[test]
    fn product_attr_matches_refine_by() {
        let t = sample();
        let e = Encoded::new(&t);
        // Start from an unsized scratch: the kernels' entry checks must
        // size the probe table themselves.
        let mut scratch = ProductScratch::new();
        for sem in [NullSemantics::Strong, NullSemantics::NullAsValue] {
            let pa = Partition::by_codes(&e, AttrSet::single(Attr(0)), sem);
            assert_eq!(
                pa.product_attr(&e, Attr(1), sem, &mut scratch),
                pa.refine_by(&e, Attr(1), sem),
                "{sem:?}"
            );
            let u = Partition::universal(e.rows());
            assert_eq!(
                u.product_attr(&e, Attr(0), sem, &mut scratch),
                Partition::by_codes(&e, AttrSet::single(Attr(0)), sem),
                "{sem:?} from universal"
            );
        }
    }

    #[test]
    fn fused_sweep_leaves_scratch_clean_for_products() {
        // Regression: the fused row sweep must leave the probe table and
        // slot buffers a later product on the SAME scratch relies on
        // clean.
        let t = sample();
        let e = Encoded::new(&t);
        let mut scratch = ProductScratch::for_encoded(&e);
        for sem in [NullSemantics::Strong, NullSemantics::NullAsValue] {
            let pa = Partition::by_codes(&e, AttrSet::single(Attr(0)), sem);
            let mut heads: Vec<u32> = Vec::new();
            let mut members = 0usize;
            pa.for_each_refined_row(&e, Attr(1), sem, &mut scratch, |sub, first, r| {
                if first {
                    if sub == 0 {
                        heads.clear(); // a new prefix class
                    }
                    assert_eq!(sub as usize, heads.len(), "subclasses numbered in order");
                    heads.push(r);
                } else {
                    assert!(heads[sub as usize] < r, "heads precede members");
                    members += 1;
                }
                true
            });
            // A full (non-early-exited) sweep visits |class| − 1
            // members per refined class.
            let refined = pa.refine_by(&e, Attr(1), sem);
            let expect: usize = refined.classes.iter().map(|c| c.len() - 1).sum();
            assert_eq!(members, expect, "{sem:?}");
            // The same scratch must still produce correct products.
            assert_eq!(
                pa.product_attr(&e, Attr(1), sem, &mut scratch),
                refined,
                "{sem:?} product after fused sweep"
            );
        }
    }

    /// `join_groups` is code equality on the key: opening rows share an
    /// id iff they are equal on it, ids count up as the opening rows
    /// first meet them, and a joining row comes back, in order and with
    /// the id, iff it equals some opening row.
    #[test]
    fn join_groups_match_code_equality() {
        let t = TableBuilder::new("r", ["a", "b", "c"], &[])
            .row(tuple!["x", 1i64, null])
            .row(tuple![null, 1i64, 7i64])
            .row(tuple!["x", 2i64, 7i64])
            .row(tuple!["x", 1i64, null])
            .row(tuple![null, 1i64, 8i64])
            .row(tuple!["y", 2i64, 7i64])
            .row(tuple!["x", 2i64, 7i64])
            .build();
        let e = Encoded::new(&t);
        let mut scratch = ProductScratch::new();
        let splits: [(&[u32], &[u32]); 3] = [
            (&[0, 1, 2, 3], &[6, 4, 5]),
            (&[5, 4], &[3, 2, 1, 0, 6]),
            (&[], &[0, 1]),
        ];
        for key in AttrSet::from_indices([0, 1, 2]).subsets() {
            for (opening, joining) in splits {
                let (ids, joined) =
                    Partition::join_groups(&e, key, opening, joining.to_vec(), &mut scratch);
                let mut firsts: Vec<u32> = Vec::new();
                for (i, &r) in opening.iter().enumerate() {
                    let first = opening[..i]
                        .iter()
                        .position(|&s| e.equal_on(r as usize, s as usize, key));
                    match first {
                        Some(j) => assert_eq!(ids[i], ids[j], "{key:?} {opening:?}"),
                        None => {
                            assert_eq!(ids[i] as usize, firsts.len(), "{key:?} {opening:?}");
                            firsts.push(r);
                        }
                    }
                }
                let expect: Vec<(u32, u32)> = joining
                    .iter()
                    .filter_map(|&s| {
                        let g = firsts
                            .iter()
                            .position(|&r| e.equal_on(r as usize, s as usize, key))?;
                        Some((s, g as u32))
                    })
                    .collect();
                assert_eq!(joined, expect, "{key:?} {opening:?}");
            }
        }
    }

    #[test]
    fn weak_similarity_probe() {
        let t = sample();
        let e = Encoded::new(&t);
        let a = AttrSet::from_indices([0]);
        assert!(e.weakly_similar(2, 0, a)); // ⊥ vs x
        assert!(e.weakly_similar(2, 3, a)); // ⊥ vs ⊥
        assert!(!e.weakly_similar(0, 4, a)); // x vs y
        assert!(e.equal_on(2, 3, a)); // ⊥ = ⊥
        assert!(!e.equal_on(2, 0, a));
    }
}
