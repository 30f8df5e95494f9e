//! Memory-bounded memoization of stripped partitions, built on the
//! linear partition products of [`Partition::product_attr`].
//!
//! The TANE observation: the stripped partition of an attribute set
//! `X` is the product of the partitions of any two subsets covering
//! `X`. A level-wise miner therefore never needs to re-group the table
//! per candidate — π_X for a level-`k` candidate is one linear sweep
//! over two already-known partitions of level `k−1` and level 1. This
//! module provides the single-threaded context of the callers that ask
//! about arbitrary attribute sets rather than walk the lattice once:
//! [`crate::approx`] and the [`crate::incremental::IncrementalMiner`].
//! The miner — and with it key mining and classification, which read
//! its one pass — keeps its own previous-level store, sharded across
//! its persistent workers (see [`crate::mine`]).
//!
//! The memo is byte-budgeted: entries are admitted until the budget is
//! full and recomputed from the (always-resident) single-attribute
//! partitions on a miss, so a tiny budget degrades throughput but
//! never results. Counters: `discovery.partition.cache.hits` /
//! `.misses` / `.evictions` (entries dropped by [`PartitionCtx::
//! evict_below`] or rejected because the budget is exhausted) and
//! `.bytes` (high-water mark of resident bytes).

use crate::partition::{Encoded, NullSemantics, Partition, ProductScratch};
use sqlnf_model::attrs::{Attr, AttrSet};
use std::collections::HashMap;
use std::rc::Rc;

/// Default byte budget for cached partitions (64 MiB) — roomy for the
/// paper-scale workloads while bounding the worst case on wide, tall
/// tables. The CLI exposes it as `--cache-budget`.
pub const DEFAULT_CACHE_BUDGET: usize = 64 << 20;

/// A single-threaded partition factory: dictionary-encoded instance +
/// null semantics + reusable product scratch + byte-budgeted memo.
///
/// [`PartitionCtx::partition`] returns [`Rc`]-shared canonical
/// partitions, equal (by `==`) to what [`Partition::by_set`] builds —
/// property-tested in `tests/discovery.rs`.
pub struct PartitionCtx<'a> {
    enc: &'a Encoded,
    sem: NullSemantics,
    singles: Vec<Option<Rc<Partition>>>,
    universal: Option<Rc<Partition>>,
    scratch: ProductScratch,
    memo: HashMap<AttrSet, Rc<Partition>>,
    memo_bytes: usize,
    budget: usize,
}

impl<'a> PartitionCtx<'a> {
    /// A context with the [`DEFAULT_CACHE_BUDGET`].
    pub fn new(enc: &'a Encoded, sem: NullSemantics) -> PartitionCtx<'a> {
        PartitionCtx::with_budget(enc, sem, DEFAULT_CACHE_BUDGET)
    }

    /// A context with an explicit byte budget. `0` disables
    /// memoization entirely (every multi-attribute partition is folded
    /// from the single-attribute ones); the singles themselves are
    /// never evicted — they are the recomputation floor.
    pub fn with_budget(enc: &'a Encoded, sem: NullSemantics, budget: usize) -> PartitionCtx<'a> {
        PartitionCtx {
            enc,
            sem,
            singles: Vec::new(),
            universal: None,
            scratch: ProductScratch::for_encoded(enc),
            memo: HashMap::new(),
            memo_bytes: 0,
            budget,
        }
    }

    /// The encoded instance this context partitions.
    pub fn encoded(&self) -> &'a Encoded {
        self.enc
    }

    /// The null semantics of every partition built here.
    pub fn semantics(&self) -> NullSemantics {
        self.sem
    }

    /// Bytes currently held by the memo (excluding the singles).
    pub fn resident_bytes(&self) -> usize {
        self.memo_bytes
    }

    /// The single-attribute partition of `a` (always cached).
    pub fn single(&mut self, a: Attr) -> Rc<Partition> {
        let i = a.index();
        if self.singles.len() <= i {
            self.singles.resize(i + 1, None);
        }
        if let Some(p) = &self.singles[i] {
            return Rc::clone(p);
        }
        let p = Rc::new(Partition::by_attr(self.enc, a, self.sem));
        self.singles[i] = Some(Rc::clone(&p));
        p
    }

    /// The stripped partition of `x`, memoized. Equal to
    /// `Partition::by_set(enc, x, sem)` but built by linear products
    /// over cached sub-partitions instead of per-candidate hashing.
    pub fn partition(&mut self, x: AttrSet) -> Rc<Partition> {
        match x.len() {
            0 => {
                if let Some(u) = &self.universal {
                    return Rc::clone(u);
                }
                let u = Rc::new(Partition::universal(self.enc.rows()));
                self.universal = Some(Rc::clone(&u));
                u
            }
            1 => self.single(x.first().expect("non-empty")),
            _ => {
                if let Some(p) = self.memo.get(&x) {
                    sqlnf_obs::count!("discovery.partition.cache.hits");
                    return Rc::clone(p);
                }
                sqlnf_obs::count!("discovery.partition.cache.misses");
                // Attribute pairs over small combined code spaces take
                // the fused counting sort straight off the raw columns.
                if x.len() == 2 {
                    let mut it = x.iter();
                    let (a, b) = (it.next().expect("pair"), it.next().expect("pair"));
                    if Partition::by_pair_applicable(self.enc, a, b) {
                        let p = Rc::new(Partition::by_pair(self.enc, a, b, self.sem));
                        self.admit(x, &p);
                        return p;
                    }
                }
                // Split off the attribute whose remaining prefix is the
                // cheapest *resident* one to sweep; fall back to the
                // last attribute when no prefix is memoized (the
                // recursion then builds it).
                let split = x
                    .iter()
                    .filter_map(|a| {
                        let p = self.memo.get(&(x - AttrSet::single(a)))?;
                        Some((a, p.stripped_rows()))
                    })
                    .min_by_key(|&(a, cost)| (cost, a))
                    .map(|(a, _)| a)
                    .unwrap_or_else(|| x.iter().last().expect("non-empty"));
                let left = self.partition(x - AttrSet::single(split));
                let p = Rc::new(left.product_attr(self.enc, split, self.sem, &mut self.scratch));
                self.admit(x, &p);
                p
            }
        }
    }

    /// Stores a partition if the budget allows; rejections count as
    /// evictions (the entry is dropped immediately).
    fn admit(&mut self, x: AttrSet, p: &Rc<Partition>) {
        let sz = p.approx_bytes() + std::mem::size_of::<AttrSet>();
        if self.memo_bytes.saturating_add(sz) > self.budget {
            sqlnf_obs::count!("discovery.partition.cache.evictions");
            return;
        }
        self.memo_bytes += sz;
        sqlnf_obs::count_max!("discovery.partition.cache.bytes", self.memo_bytes);
        self.memo.insert(x, Rc::clone(p));
    }

    /// Drops every memoized partition with fewer than `min_len`
    /// attributes. Level-wise callers retire level `k−2` and below when
    /// they advance to level `k` — products only ever consult the
    /// previous level and the singles.
    pub fn evict_below(&mut self, min_len: usize) {
        let before = self.memo.len();
        self.memo.retain(|k, _| k.len() >= min_len);
        let dropped = before - self.memo.len();
        if dropped > 0 {
            sqlnf_obs::count!("discovery.partition.cache.evictions", dropped);
            self.memo_bytes = self
                .memo
                .values()
                .map(|p| p.approx_bytes() + std::mem::size_of::<AttrSet>())
                .sum();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlnf_model::prelude::*;

    fn sample() -> Table {
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
    fn ctx_matches_by_set_on_all_subsets() {
        let t = sample();
        let enc = Encoded::new(&t);
        for sem in [NullSemantics::Strong, NullSemantics::NullAsValue] {
            let mut ctx = PartitionCtx::new(&enc, sem);
            for x in AttrSet::first_n(3).subsets() {
                let want = Partition::by_set(&enc, x, sem);
                assert_eq!(*ctx.partition(x), want, "{sem:?} {x:?}");
                // Second call hits the memo and must agree.
                assert_eq!(*ctx.partition(x), want, "{sem:?} {x:?} (cached)");
            }
        }
    }

    #[test]
    fn zero_budget_still_correct() {
        let t = sample();
        let enc = Encoded::new(&t);
        let mut ctx = PartitionCtx::with_budget(&enc, NullSemantics::Strong, 0);
        for x in AttrSet::first_n(3).subsets() {
            assert_eq!(
                *ctx.partition(x),
                Partition::by_set(&enc, x, NullSemantics::Strong),
                "{x:?}"
            );
        }
        assert_eq!(ctx.resident_bytes(), 0);
    }

    #[test]
    fn eviction_resets_accounting() {
        let t = sample();
        let enc = Encoded::new(&t);
        let mut ctx = PartitionCtx::new(&enc, NullSemantics::NullAsValue);
        let all = AttrSet::first_n(3);
        ctx.partition(all);
        assert!(ctx.resident_bytes() > 0);
        ctx.evict_below(usize::MAX);
        assert_eq!(ctx.resident_bytes(), 0);
        // Still correct after a full purge.
        assert_eq!(
            *ctx.partition(all),
            Partition::by_set(&enc, all, NullSemantics::NullAsValue)
        );
    }
}
