//! Integration tests for the discovery crate against the naive
//! satisfaction checker of the model crate: the miner must find exactly
//! the minimal non-trivial FDs, under all four semantics, on random
//! instances — and the partition-based weak check must agree with the
//! possible-world enumerator of `sqlnf_core::related`.

mod common;

use common::*;
use proptest::prelude::*;
use sqlnf::core::related::weak_fd_holds;
use sqlnf::discovery::check::{
    code_sweep, fd_holds, fd_targets_holding, null_semantics, refinement_sweep, ProbeCache,
    Semantics,
};
use sqlnf::discovery::classify::{classify_table, mine_keys, report_parts};
use sqlnf::discovery::mine::{mine_fds, MinerConfig};
use sqlnf::discovery::partition::{Encoded, NullSemantics, Partition, ProductScratch};
use sqlnf::prelude::*;

const COLS: usize = 3;

/// Reference: does `X → A` hold under `sem`, via the naive pairwise
/// checker? For [`Semantics::Classical`] nulls are first re-encoded as
/// an ordinary value.
fn holds_naive(table: &Table, x: AttrSet, a: Attr, sem: Semantics) -> bool {
    match sem {
        Semantics::Possible => satisfies_fd(table, &Fd::possible(x, AttrSet::single(a))),
        Semantics::Certain => satisfies_fd(table, &Fd::certain(x, AttrSet::single(a))),
        Semantics::Weak => satisfies_weak_fd(table, x, AttrSet::single(a)),
        Semantics::Classical => {
            // Null-as-value: replace ⊥ by a fresh constant.
            let rows = table.rows().iter().map(|t| {
                Tuple::new(
                    t.values()
                        .iter()
                        .map(|v| match v {
                            Value::Null => Value::str("__null__"),
                            other => other.clone(),
                        })
                        .collect::<Vec<_>>(),
                )
            });
            let total = Table::from_rows(table.schema().clone(), rows.collect::<Vec<_>>());
            satisfies_fd(&total, &Fd::possible(x, AttrSet::single(a)))
        }
    }
}

/// Reference: the set of (lhs, rhs-attr) pairs with minimal LHS.
fn minimal_fds_naive(table: &Table, sem: Semantics) -> Vec<(AttrSet, Attr)> {
    let t = AttrSet::first_n(COLS);
    let mut out = Vec::new();
    let mut subsets: Vec<AttrSet> = t.subsets().collect();
    subsets.sort_by_key(|s| (s.len(), s.0));
    for x in subsets {
        for a in t - x {
            if holds_naive(table, x, a, sem)
                && !out
                    .iter()
                    .any(|&(y, b): &(AttrSet, Attr)| b == a && y.is_subset(x) && y != x)
            {
                out.push((x, a));
            }
        }
    }
    out
}

/// Regression pin: [`Semantics::Weak`] byte-matches the `weak_fd_holds`
/// column of Example 2's satisfaction matrix in
/// `sqlnf_core::related` — the related-work reproduction the promoted
/// semantics generalizes. Both the partition check and the model
/// crate's pairwise evaluator must agree with the possible-world
/// enumeration on every tabulated row.
#[test]
fn example2_weak_column_matches_related_work() {
    let table = sqlnf_datagen::paper::example2_relation();
    let schema = table.schema();
    let enc = Encoded::new(&table);
    let col = |n: &str| schema.attr(n).expect("example2 column");
    // (lhs, rhs, weak_fd_holds column of the printed matrix)
    let matrix = [
        ("employee", "dept", true),
        ("employee", "manager", false),
        ("employee", "salary", true),
        ("dept", "dept", true),
        ("dept", "manager", true),
        ("manager", "employee", true),
        ("manager", "dept", true),
    ];
    for (l, r, want) in matrix {
        let (lhs, rhs) = (AttrSet::single(col(l)), AttrSet::single(col(r)));
        assert_eq!(weak_fd_holds(&table, lhs, rhs), want, "[24]weak {l}->{r}");
        assert_eq!(
            satisfies_weak_fd(&table, lhs, rhs),
            want,
            "satisfy layer {l}->{r}"
        );
        // The trivial d → d is inside its own LHS; `fd_holds` checks
        // proper targets only.
        if l != r {
            assert_eq!(
                fd_holds(&enc, lhs, col(r), Semantics::Weak),
                want,
                "partition check {l}->{r}"
            );
        }
    }
}

/// The weak check on a fixed `(p, b, a)` table with `p` constant: the
/// fused refinement of `π_p` by `b` for `{p, b} → a`, which must equal
/// the materialized check and the one-shot [`fd_holds`].
fn weak_fused_holds(rows: &[[Option<i64>; 3]]) -> bool {
    let schema = TableSchema::new("t", ["p", "b", "a"], &[]);
    let table = Table::from_rows(
        schema,
        rows.iter().map(|r| {
            Tuple::new(
                r.iter()
                    .map(|v| v.map_or(Value::Null, Value::Int))
                    .collect::<Vec<_>>(),
            )
        }),
    );
    let enc = Encoded::new(&table);
    let (p, b, a) = (Attr(0), Attr(1), Attr(2));
    let x = AttrSet::single(p) | AttrSet::single(b);
    let ns = NullSemantics::Strong;
    let prefix = Partition::by_codes(&enc, AttrSet::single(p), ns);
    let mut scratch = ProductScratch::new();
    let sem = Semantics::Weak;
    let (fused, _) = refinement_sweep(
        &enc,
        &prefix,
        b,
        ns,
        AttrSet::single(a),
        sem,
        &mut scratch,
        false,
    );
    let refined = prefix.product_attr(&enc, b, ns, &mut scratch);
    let materialized =
        fd_targets_holding(&enc, x, &refined, AttrSet::single(a), Semantics::Weak, None);
    assert_eq!(fused, materialized, "fused vs materialized on\n{table}");
    assert_eq!(
        !fused.is_empty(),
        fd_holds(&enc, x, a, Semantics::Weak),
        "{table}"
    );
    assert_eq!(
        !fused.is_empty(),
        weak_fd_holds(&table, x, AttrSet::single(a)),
        "{table}"
    );
    !fused.is_empty()
}

/// A class whose head is `⊥` on the target: the weak rule must compare
/// the later rows with each other, not with the head.
#[test]
fn weak_fused_check_sees_past_a_null_head() {
    let row = |a| [Some(1), Some(1), a];
    assert!(!weak_fused_holds(&[row(None), row(Some(5)), row(Some(6))]));
    assert!(weak_fused_holds(&[row(None), row(Some(5)), row(Some(5))]));
}

/// Two subclasses of one prefix class, interleaved row by row: state is
/// kept per subclass, so a conflict in the second is still seen.
#[test]
fn weak_fused_check_keeps_state_per_subclass() {
    let row = |b, a| [Some(1), Some(b), a];
    let rows = |last| {
        [
            row(1, Some(7)),
            row(2, None),
            row(1, Some(7)),
            row(2, Some(8)),
            row(1, None),
            row(2, Some(last)),
        ]
    };
    assert!(!weak_fused_holds(&rows(9)));
    assert!(weak_fused_holds(&rows(8)));
}

/// The fused refinement check, followed by the certain tail as the miner
/// runs it, returns exactly what the materialized check returns over
/// the refinement it sweeps: for every semantics, every prefix `P`,
/// every refining attribute `b ∉ P`, and the full, the single-attribute
/// and (a key-only question) the empty target sets of `P ∪ {b}`. With
/// `keyed`, it also tells whether the refinement has a two-row class.
fn fused_agrees(table: &Table) {
    let enc = Encoded::new(table);
    let all = table.schema().attrs();
    let probes = ProbeCache::new(&enc);
    let mut scratch = ProductScratch::new();
    for sem in Semantics::ALL {
        let ns = null_semantics(sem);
        for prefix_set in all.subsets() {
            let prefix = Partition::by_set(&enc, prefix_set, ns);
            for b in all - prefix_set {
                let x = prefix_set | AttrSet::single(b);
                let rest = all - x;
                let refined = prefix.product_attr(&enc, b, ns, &mut scratch);
                let singles = rest.iter().map(AttrSet::single);
                for targets in [AttrSet::EMPTY, rest].into_iter().chain(singles) {
                    let want = fd_targets_holding(&enc, x, &refined, targets, sem, None);
                    for keyed in [false, true] {
                        let (held, pair) = refinement_sweep(
                            &enc,
                            &prefix,
                            b,
                            ns,
                            targets,
                            sem,
                            &mut scratch,
                            keyed,
                        );
                        let got = if sem == Semantics::Certain && !held.is_empty() {
                            probes.fd_targets(&enc, x, held)
                        } else {
                            held
                        };
                        assert_eq!(got, want, "{sem:?} x={x:?} by {b:?} on\n{table}");
                        if keyed {
                            assert_eq!(pair, !refined.is_empty(), "{sem:?} x={x:?} on\n{table}");
                        }
                    }
                }
            }
        }
    }
}

/// The row-order sweep by mixed-radix code, followed by the certain
/// tail as the miner runs it, returns exactly what the materialized
/// check returns over [`Partition::by_set`], and whether that partition
/// has a two-row class: for every semantics, every `X` — inside the
/// counting-sort gate or past it — the full, the single-attribute and
/// (a key-only question) the empty target sets, keyed and unkeyed.
/// One scratch serves every sweep, so each must leave it clean.
fn coded_agrees(table: &Table) {
    let enc = Encoded::new(table);
    let all = table.schema().attrs();
    let probes = ProbeCache::new(&enc);
    let mut scratch = ProductScratch::new();
    for sem in Semantics::ALL {
        let ns = null_semantics(sem);
        for x in all.subsets() {
            let p = Partition::by_set(&enc, x, ns);
            let rest = all - x;
            let singles = rest.iter().map(AttrSet::single);
            for targets in [AttrSet::EMPTY, rest].into_iter().chain(singles) {
                let want = fd_targets_holding(&enc, x, &p, targets, sem, Some(&probes));
                for keyed in [false, true] {
                    let (held, pair) = code_sweep(&enc, x, ns, targets, sem, &mut scratch, keyed);
                    let got = if sem == Semantics::Certain && !held.is_empty() {
                        probes.fd_targets(&enc, x, held)
                    } else {
                        held
                    };
                    assert_eq!(got, want, "{sem:?} x={x:?} keyed={keyed} on\n{table}");
                    if keyed || !targets.is_empty() {
                        assert_eq!(pair, !p.is_empty(), "{sem:?} x={x:?} on\n{table}");
                    }
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// One counting sort over the mixed-radix code groups exactly as
    /// [`Partition::by_set`], under both null semantics, for every `X`
    /// of a null-heavy table — inside the counting-sort gate and past
    /// it (where it falls back to refining).
    #[test]
    fn by_codes_matches_by_set(table in wide_table(2, 3, 40)) {
        let enc = Encoded::new(&table);
        for x in table.schema().attrs().subsets() {
            for ns in [NullSemantics::Strong, NullSemantics::NullAsValue] {
                prop_assert_eq!(
                    Partition::by_codes(&enc, x, ns),
                    Partition::by_set(&enc, x, ns),
                    "{:?} {:?} on\n{}", ns, x, table
                );
            }
        }
    }

    /// [`coded_agrees`] on null-heavy tables with sets past the gate.
    #[test]
    fn code_sweep_matches_materialized(table in wide_table(2, 3, 40)) {
        coded_agrees(&table);
    }

    /// The miner finds exactly the minimal FDs, for every semantics.
    #[test]
    fn miner_matches_naive(table in small_table(COLS, 6)) {
        for sem in Semantics::ALL {
            let mined = mine_fds(&table, MinerConfig::new(sem).with_max_lhs(COLS));
            let mut got: Vec<(AttrSet, Attr)> = mined
                .fds
                .iter()
                .flat_map(|fd| fd.rhs.iter().map(move |a| (fd.lhs, a)))
                .collect();
            let mut want = minimal_fds_naive(&table, sem);
            got.sort_by_key(|(x, a)| (x.0, a.index()));
            want.sort_by_key(|(x, a)| (x.0, a.index()));
            prop_assert_eq!(&got, &want, "{:?} on\n{}", sem, table);
        }
    }

    /// Certain-mined FDs are a subset of possible-mined ones in the
    /// satisfaction sense: every certain FD also holds possibly.
    #[test]
    fn certain_implies_possible(table in small_table(COLS, 6)) {
        let mined = mine_fds(&table, MinerConfig::new(Semantics::Certain).with_max_lhs(COLS));
        for fd in &mined.fds {
            for a in fd.rhs {
                prop_assert!(satisfies_fd(
                    &table,
                    &Fd::possible(fd.lhs, AttrSet::single(a))
                ));
            }
        }
    }

    /// The partition store's products agree with the direct row
    /// grouping of [`Partition::by_set`], for every semantics, on a
    /// level-ordered sweep of the whole lattice (so the store is
    /// exercised both cold and warm), under the default budget and
    /// under none.
    #[test]
    fn store_partitions_match_by_set(table in small_table(4, 8)) {
        use sqlnf::discovery::check::null_semantics;
        use sqlnf::discovery::mine::{Store, DEFAULT_CACHE_BUDGET};
        use sqlnf::discovery::partition::{Encoded, Partition, ProductScratch};
        let enc = Encoded::new(&table);
        let mut scratch = ProductScratch::for_encoded(&enc);
        let mut subsets: Vec<AttrSet> = AttrSet::first_n(4).subsets().collect();
        subsets.sort_by_key(|s| (s.len(), s.0));
        for sem in Semantics::ALL {
            let ns = null_semantics(sem);
            for budget in [DEFAULT_CACHE_BUDGET, 0] {
                let mut store = Store::new(4, ns, budget);
                for &x in &subsets {
                    let want = Partition::by_set(&enc, x, ns);
                    let got = store.partition(&enc, x, &mut scratch);
                    prop_assert_eq!(&*got, &want, "{:?} {:?} on\n{}", sem, x, table);
                }
            }
        }
    }

    /// The mined FDs, and the report's FDs, keys and classification, are
    /// invariant under the cache budget (none, tiny, unbounded) and the
    /// thread count — caching and the worker pool change throughput
    /// only, never results (the report's lists not even in order).
    #[test]
    fn miner_invariant_under_budget_and_threads(table in small_table(8, 12)) {
        let norm = |mut fds: Vec<sqlnf::discovery::mine::MinedFd>| {
            fds.sort_by_key(|f| (f.lhs.0, f.rhs.0));
            fds
        };
        let enc = Encoded::new(&table);
        let report = |config: MinerConfig| report_parts(&enc, 8, config.with_max_lhs(3));
        let reference = report(MinerConfig::new(Semantics::Possible));
        for budget in [0usize, 4096, usize::MAX] {
            for threads in [1usize, 2, 4, 8] {
                let config = MinerConfig::new(Semantics::Possible)
                    .with_threads(threads)
                    .with_cache_budget(budget);
                prop_assert_eq!(
                    &report(config), &reference,
                    "report budget={} threads={} on\n{}", budget, threads, table
                );
            }
        }
        for sem in Semantics::ALL {
            let reference = norm(mine_fds(&table, MinerConfig::new(sem).with_max_lhs(3)).fds);
            for budget in [0usize, 4096, usize::MAX] {
                for threads in [1usize, 2, 4, 8] {
                    let config = MinerConfig::new(sem)
                        .with_max_lhs(3)
                        .with_threads(threads)
                        .with_cache_budget(budget);
                    let got = norm(mine_fds(&table, config).fds);
                    prop_assert_eq!(
                        &got, &reference,
                        "{:?} budget={} threads={} on\n{}", sem, budget, threads, table
                    );
                }
            }
        }
    }

    /// The store's charge, known before a partition is built, bounds
    /// what it builds: for every `X` of a null-heavy table with sets
    /// past the counting-sort gate, under both null semantics, asked
    /// with the previous levels stored, it is at least the bytes of the
    /// store's `π_X`, of `π_X` from its codes and of every product of a
    /// prefix refined by one more attribute.
    #[test]
    fn store_charge_bounds_built_partitions(table in wide_table(2, 3, 40)) {
        use sqlnf::discovery::mine::Store;
        let enc = Encoded::new(&table);
        let mut scratch = ProductScratch::for_encoded(&enc);
        let all = table.schema().attrs();
        let mut subsets: Vec<AttrSet> = all.subsets().collect();
        subsets.sort_by_key(|s| (s.len(), s.0));
        for ns in [NullSemantics::Strong, NullSemantics::NullAsValue] {
            let mut store = Store::new(all.len(), ns, usize::MAX);
            for &x in &subsets {
                let charge = store.charge(&enc, x);
                let mut built = vec![
                    store.partition(&enc, x, &mut scratch).approx_bytes(),
                    Partition::by_codes(&enc, x, ns).approx_bytes(),
                ];
                for a in x {
                    let prefix = Partition::by_codes(&enc, x - AttrSet::single(a), ns);
                    built.push(prefix.product_attr(&enc, a, ns, &mut scratch).approx_bytes());
                }
                for bytes in built {
                    prop_assert!(charge >= bytes, "{:?} {:?}: {} < {} on\n{}", ns, x, charge, bytes, table);
                }
            }
        }
    }

    /// However reservations come — asked directly, or by the replay's
    /// builds through the store, with levels retired between — the
    /// store never charges more than its budget.
    #[test]
    fn store_never_charges_past_its_budget(
        table in wide_table(2, 3, 40),
        budget in 0usize..4096,
        xs in proptest::collection::vec(attr_subset(5), 0..24),
    ) {
        use sqlnf::discovery::mine::Store;
        let enc = Encoded::new(&table);
        let mut scratch = ProductScratch::for_encoded(&enc);
        for ns in [NullSemantics::Strong, NullSemantics::NullAsValue] {
            let mut store = Store::new(5, ns, budget);
            for (i, &x) in xs.iter().enumerate() {
                match i % 4 {
                    0 | 1 => {
                        store.reserve(&enc, x);
                    }
                    2 => {
                        store.partition(&enc, x, &mut scratch);
                    }
                    _ => store.evict_below(x.len()),
                }
                prop_assert!(
                    store.charged() <= budget,
                    "{:?} after {:?}: {} > {}", ns, &xs[..=i], store.charged(), budget
                );
            }
        }
    }

    /// The fused refinement check equals the materialized one on
    /// random null-bearing tables.
    #[test]
    fn fused_check_matches_materialized(table in small_table(4, 10)) {
        fused_agrees(&table);
    }

    /// [`fused_check_matches_materialized`] on tables with two nullable
    /// and three null-free columns.
    #[test]
    fn fused_check_matches_materialized_on_mixed_tables(table in mixed_table(2, 3, 12)) {
        fused_agrees(&table);
    }

    /// The footprint-keyed [`ProbeCache`] is transparent: for every
    /// LHS its batch target check equals the pairwise code-agreement
    /// fold over the weak pairs of a fresh per-candidate [`ProbeIndex`]
    /// build, it finds a weak pair iff that build visits one, and its
    /// c-key and totality answers equal the naive checker's.
    /// Each LHS is probed three times so footprints cross the policy
    /// transitions (direct scan → index build → cache hit).
    #[test]
    fn probe_cache_matches_fresh_index(table in small_table(4, 10)) {
        probe_cache_agrees(&table);
    }

    /// [`probe_cache_matches_fresh_index`] on tables with two nullable
    /// and three null-free columns: footprints carry several null
    /// patterns and are shared by LHSs with a non-empty null-free
    /// remainder.
    #[test]
    fn probe_cache_matches_fresh_index_on_shared_footprints(table in mixed_table(2, 3, 12)) {
        probe_cache_agrees(&table);
    }

    /// The partition-based weak check agrees with the related-work
    /// possible-world enumerator: `X →_weak A` iff some completion of
    /// the nulls satisfies the FD classically. (The enumerator refuses
    /// more than 8 nulls, so instances beyond that are discarded.)
    #[test]
    fn weak_check_matches_possible_worlds(table in small_table(COLS, 4)) {
        let nulls: usize = table
            .rows()
            .iter()
            .flat_map(|t| t.values())
            .filter(|v| v.is_null())
            .count();
        prop_assume!(nulls <= 8);
        let enc = Encoded::new(&table);
        let t = AttrSet::first_n(COLS);
        for x in t.subsets() {
            for a in t - x {
                prop_assert_eq!(
                    fd_holds(&enc, x, a, Semantics::Weak),
                    weak_fd_holds(&table, x, AttrSet::single(a)),
                    "{:?} ->weak {:?} on\n{}", x, a, table
                );
            }
        }
    }

    /// The pointwise semantics lattice: certain ⟹ possible ⟹ weak and
    /// classical ⟹ weak on every instance and every candidate FD; on a
    /// null-free instance all four verdicts coincide.
    #[test]
    fn semantics_lattice_pointwise(table in small_table(COLS, 6)) {
        let enc = Encoded::new(&table);
        let null_free = table
            .rows()
            .iter()
            .all(|t| t.values().iter().all(|v| !v.is_null()));
        let t = AttrSet::first_n(COLS);
        for x in t.subsets() {
            for a in t - x {
                let verdict = |sem| fd_holds(&enc, x, a, sem);
                let weak = verdict(Semantics::Weak);
                prop_assert!(!verdict(Semantics::Certain) || verdict(Semantics::Possible));
                prop_assert!(!verdict(Semantics::Possible) || weak);
                prop_assert!(!verdict(Semantics::Classical) || weak);
                if null_free {
                    for sem in Semantics::ALL {
                        prop_assert_eq!(verdict(sem), weak, "{:?} on\n{}", sem, table);
                    }
                }
            }
        }
    }

    /// The report's one lattice pass against the definitions, with the
    /// LHS cap at the arity (so keys reach the full attribute set):
    /// * the minimal p-keys and c-keys are the subset-minimal sets
    ///   satisfying the key, by `satisfies_key` over every subset;
    /// * nn- and p-FDs together are the minimal p-FDs; nn- and c-FDs
    ///   together the minimal c-FDs (on a null-free LHS, certain and
    ///   possible satisfaction coincide, so the minimal c-FDs there are
    ///   the nn-FDs); nn-FD LHSs are null-free, p- and c-FD LHSs not;
    /// * the t-FDs are the c-FDs with `X →_w X`, the λ-FDs the t-FDs
    ///   whose LHS is not a c-key.
    #[test]
    fn report_matches_definitions(table in small_table(COLS, 6)) {
        let all = AttrSet::first_n(COLS);
        let minimal_keys = |certain: bool| {
            let key = |x| if certain { Key::certain(x) } else { Key::possible(x) };
            let mut subsets: Vec<AttrSet> = all.subsets().collect();
            subsets.sort_by_key(|s| (s.len(), s.0));
            let mut out: Vec<AttrSet> = Vec::new();
            for x in subsets {
                if satisfies_key(&table, &key(x)) && !out.iter().any(|y| y.is_subset(x)) {
                    out.push(x);
                }
            }
            out
        };
        let keys = mine_keys(&table, COLS);
        prop_assert_eq!(&keys.pkeys, &minimal_keys(false), "p-keys on\n{}", table);
        prop_assert_eq!(&keys.ckeys, &minimal_keys(true), "c-keys on\n{}", table);

        let cls = classify_table(&table, COLS);
        let flat = |lists: &[&Vec<sqlnf::discovery::mine::MinedFd>]| {
            let mut out: Vec<(AttrSet, Attr)> = lists
                .iter()
                .flat_map(|l| l.iter())
                .flat_map(|fd| fd.rhs.iter().map(move |a| (fd.lhs, a)))
                .collect();
            out.sort_by_key(|(x, a)| (x.0, a.index()));
            out
        };
        let naive = |sem| {
            let mut out = minimal_fds_naive(&table, sem);
            out.sort_by_key(|(x, a)| (x.0, a.index()));
            out
        };
        prop_assert_eq!(flat(&[&cls.nn_fds, &cls.p_fds]), naive(Semantics::Possible));
        prop_assert_eq!(flat(&[&cls.nn_fds, &cls.c_fds]), naive(Semantics::Certain));
        let null_free: AttrSet = all
            .iter()
            .filter(|&a| table.rows().iter().all(|t| !t.get(a).is_null()))
            .collect();
        prop_assert!(cls.nn_fds.iter().all(|fd| fd.lhs.is_subset(null_free)));
        prop_assert!(cls.p_fds.iter().all(|fd| !fd.lhs.is_subset(null_free)));
        prop_assert!(cls.c_fds.iter().all(|fd| !fd.lhs.is_subset(null_free)));
        let total: Vec<_> = cls
            .c_fds
            .iter()
            .filter(|fd| satisfies_fd(&table, &Fd::certain(fd.lhs, fd.lhs)))
            .cloned()
            .collect();
        prop_assert_eq!(&cls.t_fds, &total);
        let lambda: Vec<(AttrSet, AttrSet)> = total
            .iter()
            .filter(|fd| !satisfies_key(&table, &Key::certain(fd.lhs)))
            .map(|fd| (fd.lhs, fd.rhs))
            .collect();
        let got: Vec<(AttrSet, AttrSet)> = cls.lambda_fds.iter().map(|l| (l.lhs, l.rhs)).collect();
        prop_assert_eq!(got, lambda);
    }

    /// Every mined λ-FD of the classifier is a satisfied total c-FD
    /// whose LHS is not a certain key, and its projection ratio is the
    /// true one.
    #[test]
    fn classifier_lambdas_are_genuine(table in small_table(COLS, 6)) {
        prop_assume!(!table.is_empty());
        let cls = classify_table(&table, COLS);
        let ratio = |attrs| project_set(&table, attrs, "p").len() as f64 / table.len() as f64;
        for lam in &cls.lambda_fds {
            let total = Fd::certain(lam.lhs, lam.lhs | lam.rhs);
            prop_assert!(satisfies_fd(&table, &total));
            prop_assert!(!satisfies_key(&table, &Key::certain(lam.lhs)));
            prop_assert!((ratio(lam.lhs | lam.rhs) - lam.relative_projection_size).abs() < 1e-12);
        }
        // The nn series: one ratio per nn-FD whose LHS is not a c-key,
        // in nn-FD order.
        let nn_nonkey: Vec<f64> = cls
            .nn_fds
            .iter()
            .filter(|fd| !satisfies_key(&table, &Key::certain(fd.lhs)))
            .map(|fd| ratio(fd.lhs | fd.rhs))
            .collect();
        prop_assert_eq!(nn_nonkey.len(), cls.nn_nonkey_ratios.len());
        for (want, got) in nn_nonkey.iter().zip(&cls.nn_nonkey_ratios) {
            prop_assert!((want - got).abs() < 1e-12, "{} vs {} on\n{}", want, got, table);
        }
    }
}

/// The body of the two `probe_cache_matches_fresh_index` properties.
fn probe_cache_agrees(table: &Table) {
    use sqlnf::discovery::check::{
        certain_reflexive_holds_cached, partition_for, probe_weak_pairs,
    };
    use std::collections::BTreeSet;
    let enc = Encoded::new(table);
    let all = table.schema().attrs();
    let probes = ProbeCache::new(&enc);
    for x in all.subsets() {
        // Reference: a fresh index per probe, as the seed code did.
        let mut want = BTreeSet::new();
        probe_weak_pairs(&enc, x, |r, s| {
            want.insert((r.min(s), r.max(s)));
            true
        });
        let targets = all - x;
        let mut want_targets = targets;
        for &(r, s) in &want {
            let mut still = AttrSet::EMPTY;
            for a in want_targets {
                if enc.code(r, a) == enc.code(s, a) {
                    still.insert(a);
                }
            }
            want_targets = still;
        }
        let ckey = satisfies_key(table, &Key::certain(x));
        let total = satisfies_fd(table, &Fd::certain(x, x));
        let strong = partition_for(&enc, x, Semantics::Possible);
        for round in 0..3 {
            let got_targets = probes.fd_targets(&enc, x, targets);
            assert_eq!(
                got_targets, want_targets,
                "round {round} x={x:?} on\n{table}"
            );
            let pair = probes.has_weak_pair(&enc, x);
            assert_eq!(
                pair,
                !want.is_empty(),
                "pair round {round} x={x:?} on\n{table}"
            );
            assert_eq!(
                strong.is_empty() && !pair,
                ckey,
                "c-key round {round} x={x:?} on\n{table}"
            );
            assert_eq!(
                certain_reflexive_holds_cached(&enc, &probes, x),
                total,
                "totality round {round} x={x:?} on\n{table}"
            );
        }
    }
}
