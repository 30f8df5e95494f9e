//! Classification of mined FDs into the categories of the paper's
//! quantitative experiment (Section 7): nn-FDs, p-FDs, c-FDs, t-FDs and
//! λ-FDs, plus the relative projection sizes behind Figure 6.
//!
//! Following the paper's convention, FDs are recorded with minimal LHSs
//! and counted **once per LHS**. The categories are:
//!
//! * **nn-FD** — a minimal p-FD whose LHS columns contain no null
//!   marker anywhere in the instance (there possible, certain and
//!   classical satisfaction coincide);
//! * **p-FD** — a minimal possible FD whose LHS has at least one column
//!   that carries nulls;
//! * **c-FD** — a minimal certain FD whose LHS has at least one column
//!   that carries nulls (certain satisfaction implies possible, so
//!   these are the "harder" dependencies);
//! * **t-FD** — a c-FD that is *total*: `X →_w X` also holds, i.e.
//!   `X →_w X·rhs` (Definition 9);
//! * **λ-FD** — a t-FD usable for VRNF decomposition: its RHS adds
//!   attributes beyond the LHS, and the LHS is **not** a certain key of
//!   the instance (else there is nothing to compress).
//!
//! For each λ-FD (and each nn-FD with non-c-key LHS) the *relative
//! projection size* is `|I[X·rhs]| / |I|` — the fraction of rows the
//! set projection keeps; small values mean much redundancy eliminated.
//! Both kinds of FD determine their RHS on equal LHS codes, so the
//! projection has as many rows as the LHS has distinct code tuples
//! ([`projection_ratio`]): one counting-sort partition of at most
//! `max_lhs` columns per ratio, whatever the RHS's width.
//!
//! The minimal FDs of both semantics and the minimal keys come from one
//! lattice pass ([`report_lattice`]; see [`crate::mine`]). One split
//! serves the from-scratch and the incremental report: an LHS is a
//! c-key iff a mined minimal c-key lies inside it, and totality and
//! projection ratios are asked of the caller. [`mine_keys`] and
//! [`classify_table`] are views of that pass.

use crate::check::{certain_reflexive_holds_cached, ProbeCache, Semantics};
use crate::mine::{
    mine_fds_encoded, traverse, Lattice, MinedFd, MinedKeys, MinerConfig, DEFAULT_CACHE_BUDGET,
};
use crate::partition::{Encoded, NullSemantics, Partition};
use sqlnf_model::attrs::AttrSet;
use sqlnf_model::schema::TableSchema;
use sqlnf_model::table::Table;
use std::time::Instant;

/// A λ-FD together with its relative projection size.
#[derive(Debug, Clone, PartialEq)]
pub struct LambdaFd {
    /// Minimal LHS.
    pub lhs: AttrSet,
    /// Determined attributes outside the LHS.
    pub rhs: AttrSet,
    /// `|I[lhs ∪ rhs]| / |I|` in `(0, 1]`.
    pub relative_projection_size: f64,
}

/// Full classification of one table's mined dependencies.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Classification {
    /// Minimal p-FDs with null-free LHS columns.
    pub nn_fds: Vec<MinedFd>,
    /// Minimal p-FDs with a null-carrying LHS column.
    pub p_fds: Vec<MinedFd>,
    /// Minimal c-FDs with a null-carrying LHS column.
    pub c_fds: Vec<MinedFd>,
    /// The total ones among `c_fds`.
    pub t_fds: Vec<MinedFd>,
    /// The decomposition-usable ones among `t_fds`, with projection
    /// ratios.
    pub lambda_fds: Vec<LambdaFd>,
    /// Relative projection sizes of nn-FDs whose LHS is not a c-key
    /// (the second series of Figure 6).
    pub nn_nonkey_ratios: Vec<f64>,
}

/// Aggregate counts over many tables (the Section 7 count table).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// nn-FD count (one per LHS).
    pub nn: usize,
    /// p-FD count.
    pub p: usize,
    /// c-FD count.
    pub c: usize,
    /// t-FD count.
    pub t: usize,
    /// λ-FD count.
    pub lambda: usize,
}

impl Counts {
    /// Adds another classification's counts.
    pub fn add(&mut self, c: &Classification) {
        self.nn += c.nn_fds.len();
        self.p += c.p_fds.len();
        self.c += c.c_fds.len();
        self.t += c.t_fds.len();
        self.lambda += c.lambda_fds.len();
    }
}

/// Mines and classifies one table. `max_lhs` bounds the mined LHS size.
pub fn classify_table(table: &Table, max_lhs: usize) -> Classification {
    classify_table_budgeted(table, max_lhs, DEFAULT_CACHE_BUDGET)
}

/// [`classify_table`] with an explicit partition-store byte budget for
/// the lattice pass. Results are identical for any budget.
pub fn classify_table_budgeted(
    table: &Table,
    max_lhs: usize,
    cache_budget: usize,
) -> Classification {
    let config = report_config(max_lhs, cache_budget);
    report_parts(&Encoded::new(table), table.schema().arity(), config).0
}

/// Mines the subset-minimal p-keys and c-keys with attribute sets of at
/// most `max_size` attributes, with the default partition-store budget.
///
/// There is no separate *weak*-key miner: weak keys coincide exactly
/// with possible keys ([`crate::check::is_weak_key`]) — an `X`-null row
/// is always separable by fresh completion values, while two `X`-total
/// duplicates are never separable — so `pkeys` doubles as the
/// weak-semantics key set.
pub fn mine_keys(table: &Table, max_size: usize) -> MinedKeys {
    mine_keys_budgeted(table, max_size, DEFAULT_CACHE_BUDGET)
}

/// [`mine_keys`] with an explicit partition-store byte budget; results
/// are identical for any budget. The keys of the report's lattice pass,
/// without the classification.
pub fn mine_keys_budgeted(table: &Table, max_size: usize, cache_budget: usize) -> MinedKeys {
    report_lattice(table, max_size, cache_budget).keys
}

/// The report's lattice pass over a table, unclassified: its minimal
/// possible FDs (`fds`), certain FDs and keys, with LHSs and keys of
/// at most `max_lhs` attributes, under a partition-store byte budget.
/// The facts the `WATCH` plane streams are read off it.
pub fn report_lattice(table: &Table, max_lhs: usize, cache_budget: usize) -> Lattice {
    let enc = Encoded::new(table);
    let (config, probes) = (report_config(max_lhs, cache_budget), ProbeCache::new(&enc));
    traverse(&enc, table.schema().arity(), config, true, &probes)
}

/// The report's pass configuration: the LHS cap, the cache budget, and
/// the thread count `MinerConfig::new` picks.
fn report_config(max_lhs: usize, cache_budget: usize) -> MinerConfig {
    MinerConfig::new(Semantics::Possible)
        .with_max_lhs(max_lhs)
        .with_cache_budget(cache_budget)
}

/// The classification and the minimal keys behind one `MINE` report,
/// read off one lattice pass over an encoded instance of `arity`
/// columns, with `config`'s LHS cap (keys included), threads and cache
/// budget; its semantics is ignored, as the report fixes possible and
/// certain. Totality asks the pass's probe cache.
pub fn report_parts(
    enc: &Encoded,
    arity: usize,
    config: MinerConfig,
) -> (Classification, MinedKeys) {
    let probes = ProbeCache::new(enc);
    let pass = traverse(enc, arity, config, true, &probes);
    split(
        pass,
        enc.null_free_columns(),
        |x| certain_reflexive_holds_cached(enc, &probes, x),
        |lhs| projection_ratio(enc, lhs),
    )
}

/// The nn/p/c/t/λ split of a report's lattice, given the instance's
/// null-free columns, a totality test `X →_w X` and the projection
/// ratio of an nn- or λ-FD, asked with its LHS ([`projection_ratio`]).
/// An FD's LHS is a c-key iff some minimal c-key lies inside it: keys
/// are mined up to the FDs' LHS cap, so that key was found.
pub(crate) fn split(
    pass: Lattice,
    null_free: AttrSet,
    mut total: impl FnMut(AttrSet) -> bool,
    mut ratio: impl FnMut(AttrSet) -> f64,
) -> (Classification, MinedKeys) {
    let _span = sqlnf_obs::span!("discovery.classify.split");
    let Lattice {
        fds, certain, keys, ..
    } = pass;
    let ckey = |x: AttrSet| keys.ckeys.iter().any(|k| k.is_subset(x));
    let mut out = Classification::default();
    for fd in fds {
        if fd.lhs.is_subset(null_free) {
            // Figure 6's nn series additionally requires a non-key LHS.
            if !ckey(fd.lhs) {
                out.nn_nonkey_ratios.push(ratio(fd.lhs));
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
        if total(fd.lhs) {
            out.t_fds.push(fd.clone());
            if !ckey(fd.lhs) {
                out.lambda_fds.push(LambdaFd {
                    lhs: fd.lhs,
                    rhs: fd.rhs,
                    relative_projection_size: ratio(fd.lhs),
                });
            }
        }
        out.c_fds.push(fd);
    }
    (out, keys)
}

/// Mines and classifies a table and renders the human-readable report
/// shared by `sqlnf mine` and the server's `MINE` verb: row/column
/// header, category counts, then the certain keys, λ-FDs (with
/// projection sizes) and nn-FDs.
pub fn mine_report(name: &str, table: &Table, max_lhs: usize, cache_budget: usize) -> String {
    let enc = Encoded::new(table);
    mine_report_encoded(name, table.schema(), &enc, max_lhs, cache_budget)
}

/// [`mine_report`] of an encoded instance — e.g. a
/// [`ColumnSnapshot`](sqlnf_model::column::ColumnSnapshot) of a stored
/// table, taken in `O(arity)` — with the table's schema.
pub fn mine_report_encoded(
    name: &str,
    schema: &TableSchema,
    enc: &Encoded,
    max_lhs: usize,
    cache_budget: usize,
) -> String {
    let (cls, keys) = report_parts(enc, schema.arity(), report_config(max_lhs, cache_budget));
    render_report(name, enc.rows(), schema, max_lhs, &cls, &keys)
}

/// Mines minimal FDs under **one** named semantics and renders a plain
/// listing — the report behind `MINE <table> [cap] <semantics>` and
/// `sqlnf mine --semantics <tok>`. Unlike [`mine_report`] (which fixes
/// the paper's possible/certain classification), this treats all four
/// [`Semantics`] uniformly, so `weak` is a first-class citizen of the
/// serve plane and CLI.
pub fn semantics_report(
    name: &str,
    table: &Table,
    sem: Semantics,
    max_lhs: usize,
    cache_budget: usize,
) -> String {
    let enc = Encoded::new(table);
    semantics_report_encoded(name, table.schema(), &enc, sem, max_lhs, cache_budget)
}

/// [`semantics_report`] of an encoded instance with its schema, as
/// [`mine_report_encoded`].
pub fn semantics_report_encoded(
    name: &str,
    schema: &TableSchema,
    enc: &Encoded,
    sem: Semantics,
    max_lhs: usize,
    cache_budget: usize,
) -> String {
    let mined = mine_fds_encoded(
        enc,
        schema.arity(),
        MinerConfig::new(sem)
            .with_max_lhs(max_lhs)
            .with_cache_budget(cache_budget),
        Instant::now(),
    );
    render_semantics_report(name, enc.rows(), schema, sem, max_lhs, &mined.fds)
}

/// Renders [`semantics_report`] from already-mined FDs. Shared with the
/// incremental engine's `--incremental --semantics` path, so
/// "byte-identical output" between the two reduces to FD-set equality.
pub fn render_semantics_report(
    name: &str,
    rows: usize,
    schema: &TableSchema,
    sem: Semantics,
    max_lhs: usize,
    fds: &[MinedFd],
) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{name}: {rows} rows × {} columns (LHS cap {max_lhs}, {} semantics)",
        schema.arity(),
        sem.token()
    );
    let _ = writeln!(out, "minimal {} FDs: {}", sem.token(), fds.len());
    for fd in fds {
        let _ = writeln!(
            out,
            "  {} -> {}",
            schema.display_set(fd.lhs),
            schema.display_set(fd.rhs)
        );
    }
    out
}

/// Renders the `MINE` report from already-computed parts. Shared by
/// [`mine_report`] (from-scratch) and the incremental engine
/// ([`crate::incremental`]), so "byte-identical output" between the two
/// paths reduces to equality of the classification and key sets.
pub fn render_report(
    name: &str,
    rows: usize,
    schema: &TableSchema,
    max_lhs: usize,
    cls: &Classification,
    keys: &MinedKeys,
) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{name}: {rows} rows × {} columns (LHS cap {max_lhs})",
        schema.arity()
    );
    let _ = writeln!(
        out,
        "minimal FDs: {} nn, {} p, {} c ({} total, {} λ); minimal keys: {} possible, {} certain",
        cls.nn_fds.len(),
        cls.p_fds.len(),
        cls.c_fds.len(),
        cls.t_fds.len(),
        cls.lambda_fds.len(),
        keys.pkeys.len(),
        keys.ckeys.len()
    );
    for k in &keys.ckeys {
        let _ = writeln!(out, "  c-key  {}", schema.display_set(*k));
    }
    for lam in &cls.lambda_fds {
        let _ = writeln!(
            out,
            "  λ-FD   {} ->w {}   (projection keeps {:.0}% of rows)",
            schema.display_set(lam.lhs),
            schema.display_set(lam.lhs | lam.rhs),
            lam.relative_projection_size * 100.0
        );
    }
    for fd in &cls.nn_fds {
        let _ = writeln!(
            out,
            "  nn-FD  {} -> {}",
            schema.display_set(fd.lhs),
            schema.display_set(fd.rhs)
        );
    }
    out
}

/// The relative projection size `|I[X·Y]| / |I|` of an FD `X → Y`
/// that [`split`] gives a ratio — an nn-FD or a λ-FD — asked with its
/// LHS `X` alone: `(rows − error(π_X)) / rows` for the null-as-value
/// partition of `X`, i.e. the number of distinct `X` code tuples
/// (`⊥` is code 0, so `⊥ = ⊥` as in the set projection) over the rows.
///
/// The identity `|I[X·Y]| = |I[X]|` holds for both kinds; it suffices
/// that two rows with equal `X` codes are equal on `Y`:
///
/// * an nn-FD is a p-FD with a null-free `X`, so rows with equal `X`
///   codes are strongly similar on `X`, and the p-FD makes them equal
///   on `Y`;
/// * a λ-FD is a c-FD, and rows with equal `X` codes are weakly
///   similar on `X` (`⊥` is weakly similar to anything), so the c-FD
///   makes them equal on `Y`.
///
/// So the count is the one the set projection onto `X·Y` gives, and
/// every ratio is the same `f64`. Counting on `X` costs one counting
/// sort and at most `max_lhs − 1` refinements, however wide `Y` is.
pub(crate) fn projection_ratio(enc: &Encoded, lhs: AttrSet) -> f64 {
    if enc.rows() == 0 {
        return 1.0;
    }
    let distinct = enc.rows() - Partition::by_set(enc, lhs, NullSemantics::NullAsValue).error();
    distinct as f64 / enc.rows() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlnf_model::prelude::*;

    /// The snippet `I` of Figure 7 (contact_draft_lookup, 5 columns,
    /// 14 rows). Names repeat across cities — Michelle Moscato in
    /// Carmel and Indianapolis, Stacey Brennan in Columbia and
    /// Indianapolis — so state needs the (nullable) city in the LHS,
    /// which is exactly what makes the certain FDs of the paper λ-FDs.
    fn fig7_snippet() -> Table {
        TableBuilder::new("c", ["id", "f", "l", "ci", "st"], &[])
            .row(tuple![113i64, "Michelle", "Moscato", "Carmel", 20i64])
            .row(tuple![110i64, "Kathy", "Sheehan", "Columbia", 48i64])
            .row(tuple![51i64, "Kathy", "Sheehan", "Columbia", 48i64])
            .row(tuple![64i64, "Margaret", "Cox", "Columbia", 48i64])
            .row(tuple![120i64, "Margaret", "Cox", "Columbia", 48i64])
            .row(tuple![60i64, "Stacey", "Brennan, M.D.", "Columbia", 48i64])
            .row(tuple![6i64, "Robert", "Kamps, M.D.", "Grove City", 42i64])
            .row(tuple![83i64, "Michelle", "Moscato", "Indianapolis", 20i64])
            .row(tuple![19i64, "Michelle", "Moscato", "Indianapolis", 20i64])
            .row(tuple![20i64, "Nancy", "Knudson", "Indianapolis", 20i64])
            .row(tuple![18i64, "Nancy", "Knudson", "Indianapolis", 20i64])
            .row(tuple![
                99i64,
                "Stacey",
                "Brennan, M.D.",
                "Indianapolis",
                20i64
            ])
            .row(tuple![8i64, "Carol", "Richards", null, 36i64])
            .row(tuple![7i64, "Pam", "Baumker", null, 36i64])
            .build()
    }

    #[test]
    fn lambda_detection() {
        // The paper reports the λ-FDs (f,ci) →_w … and (l,ci) →_w … on
        // the snippet (accidentally minimal below (f,l,ci)).
        let t = fig7_snippet();
        let s = t.schema().clone();
        let cls = classify_table(&t, 3);
        let flc = s.set(&["f", "l", "ci"]);
        let lam = cls.lambda_fds.iter().find(|l| {
            l.lhs.is_subset(flc) && l.lhs.contains(s.a("ci")) && l.rhs.contains(s.a("st"))
        });
        assert!(lam.is_some(), "{cls:?}");
        let lam = lam.unwrap();
        // 14 rows project to at most 10 distinct (Fig. 8 left: 10 rows).
        assert!(lam.relative_projection_size <= 10.0 / 14.0 + 1e-9);
    }

    #[test]
    fn chain_c_supseteq_t_supseteq_lambda() {
        let t = fig7_snippet();
        let cls = classify_table(&t, 3);
        assert!(cls.c_fds.len() >= cls.t_fds.len());
        assert!(cls.t_fds.len() >= cls.lambda_fds.len());
    }

    #[test]
    fn nn_vs_p_split_by_null_columns() {
        // id is null-free and a key: every FD with LHS {id} is an
        // nn-FD; FDs whose minimal LHS includes the nullable city are
        // p-FDs (or c-FDs).
        let t = fig7_snippet();
        let s = t.schema().clone();
        let cls = classify_table(&t, 3);
        assert!(cls
            .nn_fds
            .iter()
            .any(|f| f.lhs == AttrSet::single(s.a("id"))));
        for fd in &cls.p_fds {
            assert!(fd.lhs.contains(s.a("ci")), "{fd:?}");
        }
        for fd in &cls.c_fds {
            assert!(fd.lhs.contains(s.a("ci")), "{fd:?}");
        }
    }

    #[test]
    fn ckey_lhs_disqualifies_lambda() {
        // Unique rows everywhere: (a) is a c-key ⇒ no λ-FDs despite
        // total c-FDs existing.
        let t = TableBuilder::new("r", ["a", "b"], &[])
            .row(tuple![1i64, 10i64])
            .row(tuple![2i64, 10i64])
            .build();
        let cls = classify_table(&t, 2);
        assert!(cls.lambda_fds.is_empty());
    }

    #[test]
    fn counts_aggregate() {
        let t = fig7_snippet();
        let cls = classify_table(&t, 3);
        let mut counts = Counts::default();
        counts.add(&cls);
        counts.add(&cls);
        assert_eq!(counts.nn, 2 * cls.nn_fds.len());
        assert_eq!(counts.lambda, 2 * cls.lambda_fds.len());
    }

    #[test]
    fn semantics_report_lists_each_semantics() {
        // a → b holds weakly and possibly (the ⊥ completes to 10) but
        // not certainly — the per-semantics listings must disagree.
        let t = TableBuilder::new("r", ["a", "b"], &[])
            .row(tuple![1i64, 10i64])
            .row(tuple![1i64, null])
            .row(tuple![2i64, 20i64])
            .build();
        let weak = semantics_report("r", &t, Semantics::Weak, 2, DEFAULT_CACHE_BUDGET);
        let certain = semantics_report("r", &t, Semantics::Certain, 2, DEFAULT_CACHE_BUDGET);
        assert!(weak.contains("weak semantics"), "{weak}");
        assert!(weak.contains("{a} -> {b}"), "{weak}");
        assert!(!certain.contains("{a} -> {b}"), "{certain}");
        for sem in Semantics::ALL {
            let r = semantics_report("r", &t, sem, 2, DEFAULT_CACHE_BUDGET);
            assert!(r.contains(&format!("{} semantics", sem.token())), "{r}");
        }
    }

    /// `id` unique; `name` has a `⊥`, so it is a p-key but not a c-key;
    /// `(a, b)` jointly unique and total.
    fn keyed_sample() -> Table {
        TableBuilder::new("r", ["id", "name", "a", "b"], &[])
            .row(tuple![1i64, "x", 1i64, 1i64])
            .row(tuple![2i64, null, 1i64, 2i64])
            .row(tuple![3i64, "y", 2i64, 1i64])
            .build()
    }

    #[test]
    fn finds_minimal_keys_of_both_kinds() {
        let t = keyed_sample();
        let s = t.schema().clone();
        let keys = mine_keys(&t, 4);
        assert!(keys.pkeys.contains(&s.set(&["id"])));
        assert!(keys.ckeys.contains(&s.set(&["id"])));
        // name: p-key (the NULL is strongly similar to nothing) but not
        // a c-key (⊥ weakly matches x and y).
        assert!(keys.pkeys.contains(&s.set(&["name"])));
        assert!(!keys.ckeys.contains(&s.set(&["name"])));
        assert!(keys.pkeys.contains(&s.set(&["a", "b"])));
        assert!(keys.ckeys.contains(&s.set(&["a", "b"])));
        for list in [&keys.pkeys, &keys.ckeys] {
            for (i, x) in list.iter().enumerate() {
                for (j, y) in list.iter().enumerate() {
                    assert!(i == j || !x.is_subset(*y), "{x:?} ⊆ {y:?}");
                }
            }
        }
    }

    #[test]
    fn key_edge_cases() {
        // Every pair of columns repeats, so with the cap at the arity the
        // one key is the full width — a level past the last FD level.
        let t = TableBuilder::new("r", ["a", "b", "c"], &[])
            .row(tuple![0i64, 0i64, 0i64])
            .row(tuple![0i64, 0i64, 1i64])
            .row(tuple![0i64, 1i64, 0i64])
            .row(tuple![1i64, 0i64, 0i64])
            .build();
        let all = t.schema().attrs();
        let keys = mine_keys(&t, 3);
        assert_eq!((keys.pkeys, keys.ckeys), (vec![all], vec![all]));
        assert_eq!(mine_keys(&t, 2), MinedKeys::default());
        // Duplicates kill every key; a single row is keyed by ∅.
        let dup = TableBuilder::new("r", ["a"], &[])
            .row(tuple![1i64])
            .row(tuple![1i64])
            .build();
        assert_eq!(mine_keys(&dup, 1), MinedKeys::default());
        let one = TableBuilder::new("r", ["a"], &[]).row(tuple![1i64]).build();
        let keys = mine_keys(&one, 1);
        assert_eq!(keys.pkeys, vec![AttrSet::EMPTY]);
        assert_eq!(keys.ckeys, vec![AttrSet::EMPTY]);
    }

    /// `MINE` reports a column snapshot taken under the table lock:
    /// rows inserted after it do not reach the report.
    #[test]
    fn snapshot_report_ignores_later_inserts() {
        let mut t = fig7_snippet();
        let before = t.clone();
        let snap = Encoded::from_snapshot(t.snapshot());
        for i in 0..3i64 {
            let id = 200 + i;
            t.push(tuple![id, "Kathy", "Sheehan", null, 99i64]);
        }
        let budget = DEFAULT_CACHE_BUDGET;
        let schema = before.schema();
        assert_eq!(
            mine_report_encoded("c", schema, &snap, 3, budget),
            mine_report("c", &before, 3, budget)
        );
        assert_ne!(
            mine_report("c", &t, 3, budget),
            mine_report("c", &before, 3, budget)
        );
        for sem in Semantics::ALL {
            assert_eq!(
                semantics_report_encoded("c", schema, &snap, sem, 3, budget),
                semantics_report("c", &before, sem, 3, budget)
            );
        }
    }

    /// Every ratio the split hands out is the set projection onto the
    /// FD's `X·Y`, counted on `X` alone — on the Figure 7 snippet, the
    /// hepatitis shape, a null-heavy adult prefix and the full contact
    /// table (whose λ-FD LHSs repeat with `⊥`, so `⊥ = ⊥` counts),
    /// against `project_set` over the whole `X ∪ Y`.
    #[test]
    fn lhs_counts_are_projection_sizes() {
        let adult = sqlnf_datagen::naumann::adult_like(20_160_626);
        let prefix = Table::from_rows(adult.schema().clone(), adult.rows()[..4096].to_vec());
        let mut checked = 0;
        for t in [
            fig7_snippet(),
            sqlnf_datagen::naumann::hepatitis_like(7),
            prefix,
            sqlnf_datagen::contact::contact_full(42),
        ] {
            let enc = Encoded::new(&t);
            let config = report_config(3, DEFAULT_CACHE_BUDGET);
            let (cls, keys) = report_parts(&enc, t.schema().arity(), config);
            let ckey = |x: AttrSet| keys.ckeys.iter().any(|k| k.is_subset(x));
            let nn = cls.nn_fds.iter().filter(|fd| !ckey(fd.lhs));
            let fds: Vec<(AttrSet, AttrSet)> = nn
                .map(|fd| (fd.lhs, fd.rhs))
                .chain(cls.lambda_fds.iter().map(|l| (l.lhs, l.rhs)))
                .collect();
            let lambda = cls.lambda_fds.iter().map(|l| l.relative_projection_size);
            let ratios: Vec<f64> = cls.nn_nonkey_ratios.iter().copied().chain(lambda).collect();
            assert_eq!(fds.len(), ratios.len(), "{cls:?}");
            for ((lhs, rhs), ratio) in fds.into_iter().zip(ratios) {
                let want = project_set(&t, lhs | rhs, "p").len() as f64 / t.len() as f64;
                assert_eq!(projection_ratio(&enc, lhs), want, "{lhs:?} -> {rhs:?}");
                assert_eq!(ratio, want, "{lhs:?} -> {rhs:?}");
                checked += 1;
            }
        }
        assert!(checked > 0);
    }

    #[test]
    fn projection_ratio_bounds() {
        let t = fig7_snippet();
        let enc = Encoded::new(&t);
        let all = t.schema().attrs();
        let r = projection_ratio(&enc, all);
        assert!(r > 0.0 && r <= 1.0);
        // Projecting on a constant-ish set compresses.
        let st = t.schema().set(&["st"]);
        assert!(projection_ratio(&enc, st) < r);
        // Counting codes counts the rows of the set projection.
        for x in all.subsets().filter(|x| !x.is_empty()) {
            let want = project_set(&t, x, "p").len() as f64 / t.len() as f64;
            assert_eq!(projection_ratio(&enc, x), want, "{x:?}");
        }
    }
}
