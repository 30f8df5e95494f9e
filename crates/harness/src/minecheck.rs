//! Cross-checking the miner against the satisfaction layer and the
//! exact 2-tuple oracle on the tables a run leaves behind.
//!
//! Four independent code paths must agree:
//!
//! 1. **determinism** — `mine_fds` / `mine_keys_budgeted` return
//!    byte-identical results across thread counts and cache budgets,
//!    for each of the four semantics;
//! 2. **soundness vs satisfaction** — every mined p-/c-/weak FD and
//!    key holds on the instance under `sqlnf_model::satisfy` (a
//!    pairwise evaluator sharing no code with the partition-based
//!    miner);
//! 3. **oracle agreement** — with Σ = the mined constraints, sampled
//!    implication queries through `oracle_implies` are consistent with
//!    `counter_model` (and `oracle_implies_weak_fd` with
//!    `weak_counter_model`), and every constraint the oracle derives
//!    from Σ must hold on the instance (the instance is a model of Σ);
//! 4. **augmentation** — LHS-extensions of mined FDs are implied by Σ,
//!    a known-true theorem the oracle must confirm.
//!
//! On top of the per-semantics checks, the cross-semantics lattice is
//! enforced: every certain-mined FD must be weakly covered (certain ⊆
//! weak as implied sets), and on null-free instances all four
//! semantics must mine the identical FD list.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sqlnf_core::prelude::*;
use sqlnf_datagen::random::random_nonempty_subset;
use sqlnf_discovery::prelude::*;

/// Oracle queries stay exact but exponential; never cross this arity.
pub const MAX_ORACLE_ATTRS: usize = 8;

/// What the cross-check covered (for reports and seed-regression
/// assertions).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MineCheckReport {
    /// Tables checked.
    pub tables: usize,
    /// Mined FDs validated against the satisfaction layer.
    pub fds_checked: usize,
    /// Mined keys validated against the satisfaction layer.
    pub keys_checked: usize,
    /// Implication queries answered by the 2-tuple oracle.
    pub oracle_queries: usize,
}

/// Runs the full cross-check on one table. `seed` drives the sampled
/// oracle queries, so a failing run replays exactly.
pub fn check_table(table: &Table, seed: u64) -> Result<MineCheckReport, String> {
    let arity = table.schema().arity();
    if arity > MAX_ORACLE_ATTRS {
        return Ok(MineCheckReport::default());
    }
    let mut report = MineCheckReport {
        tables: 1,
        ..MineCheckReport::default()
    };
    let name = table.schema().name().to_owned();
    let _span = sqlnf_obs::span!("harness.minecheck");

    // 1. Determinism across threads × budgets, per semantics — and
    //    soundness of possible/certain results against the
    //    satisfaction layer.
    let mut mined_sigma = Sigma::new();
    let mut mined_by_sem: Vec<Vec<MinedFd>> = Vec::with_capacity(Semantics::ALL.len());
    for sem in Semantics::ALL {
        let config = |threads, budget| {
            MinerConfig::new(sem)
                .with_max_lhs(arity)
                .with_threads(threads)
                .with_cache_budget(budget)
        };
        let base = mine_fds(table, config(1, 0));
        for (threads, budget) in [(4, 0), (1, DEFAULT_CACHE_BUDGET), (4, DEFAULT_CACHE_BUDGET)] {
            let again = mine_fds(table, config(threads, budget));
            if again.fds != base.fds {
                return Err(format!(
                    "{name}: {sem:?} mining differs at threads={threads} budget={budget}"
                ));
            }
        }
        for mined in &base.fds {
            let fd = match sem {
                Semantics::Possible => Fd::possible(mined.lhs, mined.rhs),
                Semantics::Certain => Fd::certain(mined.lhs, mined.rhs),
                // Classical semantics (nulls as values) has no
                // satisfaction-layer analogue; determinism above is its
                // whole check.
                Semantics::Classical => continue,
                // Weak FDs live outside the p/c constraint language:
                // check them against the dedicated pairwise evaluator
                // and keep them out of Σ.
                Semantics::Weak => {
                    if !satisfies_weak_fd(table, mined.lhs, mined.rhs) {
                        return Err(format!(
                            "{name}: mined weak FD {:?} -> {:?} does not hold per satisfy layer",
                            mined.lhs, mined.rhs
                        ));
                    }
                    report.fds_checked += 1;
                    continue;
                }
            };
            if !satisfies_fd(table, &fd) {
                return Err(format!(
                    "{name}: mined {sem:?} FD {} does not hold per satisfy layer",
                    fd.display(table.schema())
                ));
            }
            report.fds_checked += 1;
            mined_sigma.add(fd);
        }
        mined_by_sem.push(base.fds);
    }

    // Cross-semantics lattice. Certain ⊆ weak as implied sets: every
    // certain-mined FD must be covered by a weak-mined FD on a sub-LHS
    // (minimal LHSs can shrink under the laxer semantics, never grow).
    let (certain_fds, weak_fds) = (&mined_by_sem[2], &mined_by_sem[3]);
    for fd in certain_fds {
        for a in fd.rhs {
            if !weak_fds
                .iter()
                .any(|w| w.lhs.is_subset(fd.lhs) && w.rhs.contains(a))
            {
                return Err(format!(
                    "{name}: certain-mined {:?} -> {a:?} has no weak cover",
                    fd.lhs
                ));
            }
        }
    }
    // On a null-free instance all four semantics coincide exactly.
    if table.is_total() && mined_by_sem.iter().any(|fds| fds != &mined_by_sem[0]) {
        return Err(format!(
            "{name}: null-free instance mined differently across semantics"
        ));
    }

    // 2. Keys: budget-independent, and sound against the satisfy layer.
    let keys = mine_keys_budgeted(table, arity, 0);
    if keys != mine_keys_budgeted(table, arity, DEFAULT_CACHE_BUDGET) {
        return Err(format!("{name}: key mining differs across cache budgets"));
    }
    for k in &keys.pkeys {
        let key = Key::possible(*k);
        if !satisfies_key(table, &key) {
            return Err(format!(
                "{name}: mined p-key {} does not hold",
                key.display(table.schema())
            ));
        }
        report.keys_checked += 1;
        mined_sigma.add(key);
    }
    for k in &keys.ckeys {
        let key = Key::certain(*k);
        if !satisfies_key(table, &key) {
            return Err(format!(
                "{name}: mined c-key {} does not hold",
                key.display(table.schema())
            ));
        }
        report.keys_checked += 1;
        mined_sigma.add(key);
    }

    // 3 & 4. Oracle agreement over Σ = mined constraints. Cap |Σ| to
    // bound the 4^arity × |Σ| pattern sweeps.
    let sigma = Sigma::from_constraints(mined_sigma.iter().take(16));
    let t = table.schema().attrs();
    let nfs = table.schema().nfs();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0000_AC1E_5EED);

    // Augmentation: Σ ∋ X→Y implies XZ→Y; the oracle must agree.
    for phi in sigma.iter().take(4) {
        let query = match phi {
            Constraint::Fd(fd) => {
                let grown = fd.lhs.union(AttrSet::single(
                    t.iter().nth(rng.gen_range(0..arity)).expect("attr in t"),
                ));
                Constraint::Fd(Fd {
                    lhs: grown,
                    rhs: fd.rhs,
                    modality: fd.modality,
                })
            }
            // A superset of a key is a key of the same modality.
            Constraint::Key(key) => Constraint::Key(Key {
                attrs: key.attrs.union(random_nonempty_subset(&mut rng, t)),
                modality: key.modality,
            }),
        };
        report.oracle_queries += 1;
        sqlnf_obs::count!("harness.oracle.queries");
        if !oracle_implies(t, nfs, &sigma, &query) {
            return Err(format!(
                "{name}: oracle denies an augmentation of a mined constraint: {}",
                query.display(table.schema())
            ));
        }
    }

    // Sampled queries: counter_model must mirror oracle_implies, and
    // anything Σ implies must hold on the instance (which is a model
    // of Σ by the soundness checks above).
    for _ in 0..8 {
        let modality = if rng.gen_bool(0.5) {
            Modality::Possible
        } else {
            Modality::Certain
        };
        let phi = if rng.gen_bool(0.5) {
            Constraint::Fd(Fd {
                lhs: random_nonempty_subset(&mut rng, t),
                rhs: random_nonempty_subset(&mut rng, t),
                modality,
            })
        } else {
            Constraint::Key(Key {
                attrs: random_nonempty_subset(&mut rng, t),
                modality,
            })
        };
        let implied = oracle_implies(t, nfs, &sigma, &phi);
        report.oracle_queries += 1;
        sqlnf_obs::count!("harness.oracle.queries");
        if implied == counter_model(t, nfs, &sigma, &phi).is_some() {
            return Err(format!(
                "{name}: counter_model disagrees with oracle_implies on {}",
                phi.display(table.schema())
            ));
        }
        if implied && !satisfies(table, &phi) {
            return Err(format!(
                "{name}: Σ ⊨ {} per oracle, but the instance violates it",
                phi.display(table.schema())
            ));
        }
    }

    // Weak-FD implication queries over the same Σ: the exact oracle,
    // its counter-model, and the instance (a model of Σ) must agree.
    for _ in 0..4 {
        let lhs = random_nonempty_subset(&mut rng, t);
        let rhs = random_nonempty_subset(&mut rng, t);
        let implied = oracle_implies_weak_fd(t, nfs, &sigma, lhs, rhs);
        report.oracle_queries += 1;
        sqlnf_obs::count!("harness.oracle.queries");
        if implied == weak_counter_model(t, nfs, &sigma, lhs, rhs).is_some() {
            return Err(format!(
                "{name}: weak_counter_model disagrees with oracle on {lhs:?} -> {rhs:?}"
            ));
        }
        if implied && !satisfies_weak_fd(table, lhs, rhs) {
            return Err(format!(
                "{name}: Σ ⊨ {lhs:?} ->weak {rhs:?} per oracle, but the instance violates it"
            ));
        }
    }

    Ok(report)
}

impl MineCheckReport {
    /// Accumulates another table's report.
    pub fn absorb(&mut self, other: &MineCheckReport) {
        self.tables += other.tables;
        self.fds_checked += other.fds_checked;
        self.keys_checked += other.keys_checked;
        self.oracle_queries += other.oracle_queries;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_instance_passes_the_full_cross_check() {
        let table = sqlnf_datagen::paper::purchase_fig5();
        let report = check_table(&table, 99).expect("cross-check passes");
        assert_eq!(report.tables, 1);
        assert!(report.fds_checked > 0);
        assert!(report.oracle_queries > 0);
    }

    #[test]
    fn wide_tables_are_skipped_not_attempted() {
        let table = sqlnf_datagen::contractor::contractor(1);
        assert!(table.schema().arity() > MAX_ORACLE_ATTRS);
        let report = check_table(&table, 1).unwrap();
        assert_eq!(report, MineCheckReport::default());
    }
}
