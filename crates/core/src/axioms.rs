//! The axiomatization 𝔉 ∪ 𝔎 ∪ 𝔉𝔎 (Tables 1–3) as an executable
//! forward-chaining derivation engine.
//!
//! This module exists for two purposes: (1) to make the paper's proof
//! system a first-class, inspectable artifact — [`DerivationEngine`]
//! records which rule produced each derived constraint and can print a
//! proof; and (2) to mechanically validate Theorems 1 and 4: on small
//! schemata, the set of derivable constraints is compared against both
//! the model-theoretic oracle ([`crate::oracle`], completeness *and*
//! soundness) and the linear-time decision procedures
//! ([`crate::implication`]).
//!
//! Saturation is exponential in the number of attributes (the FD space
//! has `4^|T|` elements per modality); use the [`Reasoner`] for real
//! schemata.
//!
//! [`Reasoner`]: crate::implication::Reasoner

use sqlnf_model::attrs::{Attr, AttrSet};
use sqlnf_model::constraint::{Constraint, Fd, Key, Modality, Sigma};
use std::collections::BTreeMap;

/// The inference rules of Tables 1–3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rule {
    /// Premise of Σ (not a rule application).
    Given,
    /// Reflexivity `⊢ X →_s X`.
    Reflexivity,
    /// L-Augmentation: `X → Y ⊢ XZ → Y`.
    LAugmentation,
    /// Strengthening: `X →_s Y ⊢ X →_w Y` when `X ⊆ T_S`.
    Strengthening,
    /// Union: `X → Y, X → Z ⊢ X → YZ`.
    Union,
    /// Decomposition: `X → YZ ⊢ X → Y`.
    Decomposition,
    /// Pseudo-Transitivity: `X → Y, XY →_w Z ⊢ X → Z`.
    PseudoTransitivity,
    /// Null-Transitivity: `X →_s Y, XY →_s Z ⊢ X →_s Z` when `Y ⊆ T_S`.
    NullTransitivity,
    /// key-Augmentation: `(p/c)⟨X⟩ ⊢ (p/c)⟨XY⟩`.
    KeyAugmentation,
    /// key-Strengthening: `p⟨X⟩ ⊢ c⟨X⟩` when `X ⊆ T_S`.
    KeyStrengthening,
    /// key-Weakening: `c⟨X⟩ ⊢ p⟨X⟩`.
    KeyWeakening,
    /// key-FD-Weakening: `(p/c)⟨X⟩ ⊢ X → Y`.
    KeyFdWeakening,
    /// key-Transitivity: `X → Y, c⟨XY⟩ ⊢ (p/c)⟨X⟩`.
    KeyTransitivity,
    /// key-Null-Transitivity: `X →_s Y, p⟨XY⟩ ⊢ p⟨X⟩` when `Y ⊆ T_S`.
    KeyNullTransitivity,
}

impl Rule {
    /// Short name as used in the paper's tables.
    pub fn short(self) -> &'static str {
        match self {
            Rule::Given => "Σ",
            Rule::Reflexivity => "R",
            Rule::LAugmentation => "A",
            Rule::Strengthening => "S",
            Rule::Union => "U",
            Rule::Decomposition => "D",
            Rule::PseudoTransitivity => "T",
            Rule::NullTransitivity => "NT",
            Rule::KeyAugmentation => "kA",
            Rule::KeyStrengthening => "kS",
            Rule::KeyWeakening => "kW",
            Rule::KeyFdWeakening => "kfW",
            Rule::KeyTransitivity => "kT",
            Rule::KeyNullTransitivity => "kNT",
        }
    }
}

/// A set of enabled inference rules, for studying the axiomatization
/// itself: `DerivationEngine::saturate_with` restricted to a rule
/// subset lets the test suite demonstrate that each rule is
/// *independent* — removing any one loses completeness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuleSet(u16);

impl RuleSet {
    /// All rules of Tables 1–3.
    pub const ALL: RuleSet = RuleSet(u16::MAX);

    fn bit(rule: Rule) -> u16 {
        1 << match rule {
            Rule::Given => 0,
            Rule::Reflexivity => 1,
            Rule::LAugmentation => 2,
            Rule::Strengthening => 3,
            Rule::Union => 4,
            Rule::Decomposition => 5,
            Rule::PseudoTransitivity => 6,
            Rule::NullTransitivity => 7,
            Rule::KeyAugmentation => 8,
            Rule::KeyStrengthening => 9,
            Rule::KeyWeakening => 10,
            Rule::KeyFdWeakening => 11,
            Rule::KeyTransitivity => 12,
            Rule::KeyNullTransitivity => 13,
        }
    }

    /// All rules except `rule` (premises of Σ are always available).
    pub fn without(rule: Rule) -> RuleSet {
        RuleSet(!Self::bit(rule))
    }

    /// Whether applications of `rule` are permitted.
    pub fn contains(self, rule: Rule) -> bool {
        self.0 & Self::bit(rule) != 0
    }
}

/// How a constraint was derived: the rule and its premises.
#[derive(Debug, Clone)]
pub struct Justification {
    /// Rule applied.
    pub rule: Rule,
    /// Premises of the rule application.
    pub premises: Vec<Constraint>,
}

/// One line of a linearized proof.
#[derive(Debug, Clone)]
pub struct ProofStep {
    /// The derived constraint.
    pub constraint: Constraint,
    /// Its justification.
    pub justification: Justification,
}

/// Saturates Σ under the axiomatization and answers derivability
/// queries with proofs.
pub struct DerivationEngine {
    t: AttrSet,
    nfs: AttrSet,
    rules: RuleSet,
    /// Ordered, so saturation visits the derived constraints — and
    /// records each one's first justification — in the same order in
    /// every process: a proof prints the same way run to run.
    derived: BTreeMap<Constraint, Justification>,
}

impl DerivationEngine {
    /// Saturates Σ over schema `(t, nfs)` under 𝔉 ∪ 𝔎 ∪ 𝔉𝔎.
    ///
    /// # Panics
    /// Panics when `t` has more than 6 attributes; the saturation space
    /// is `Θ(4^|T|)` and the engine is a verification tool, not a
    /// decision procedure.
    pub fn saturate(t: AttrSet, nfs: AttrSet, sigma: &Sigma) -> DerivationEngine {
        Self::saturate_with(t, nfs, sigma, RuleSet::ALL)
    }

    /// Saturates under a restricted rule set (for independence studies;
    /// with [`RuleSet::ALL`] this is [`DerivationEngine::saturate`]).
    pub fn saturate_with(
        t: AttrSet,
        nfs: AttrSet,
        sigma: &Sigma,
        rules: RuleSet,
    ) -> DerivationEngine {
        assert!(
            t.len() <= 6,
            "DerivationEngine saturates an exponential space; use Reasoner for schemas this large"
        );
        assert!(nfs.is_subset(t));
        let mut eng = DerivationEngine {
            t,
            nfs,
            rules,
            derived: BTreeMap::new(),
        };
        for c in sigma.iter() {
            eng.insert(
                c,
                Justification {
                    rule: Rule::Given,
                    premises: vec![],
                },
            );
        }
        // Reflexivity seeds: X →_s X for all X ⊆ T.
        if rules.contains(Rule::Reflexivity) {
            for x in t.subsets() {
                eng.insert(
                    Constraint::Fd(Fd::possible(x, x)),
                    Justification {
                        rule: Rule::Reflexivity,
                        premises: vec![],
                    },
                );
            }
        }
        eng.run_to_fixpoint();
        eng
    }

    fn insert(&mut self, c: Constraint, j: Justification) -> bool {
        if let std::collections::btree_map::Entry::Vacant(e) = self.derived.entry(c) {
            e.insert(j);
            true
        } else {
            false
        }
    }

    fn fds(&self) -> Vec<Fd> {
        self.derived
            .keys()
            .filter_map(|c| match c {
                Constraint::Fd(f) => Some(*f),
                _ => None,
            })
            .collect()
    }

    fn keys(&self) -> Vec<Key> {
        self.derived
            .keys()
            .filter_map(|c| match c {
                Constraint::Key(k) => Some(*k),
                _ => None,
            })
            .collect()
    }

    fn run_to_fixpoint(&mut self) {
        loop {
            let mut new: Vec<(Constraint, Justification)> = Vec::new();
            let fds = self.fds();
            let keys = self.keys();
            let attrs: Vec<Attr> = self.t.iter().collect();

            // Unary FD rules.
            for &f in &fds {
                // L-Augmentation, one attribute at a time.
                for &a in &attrs {
                    if !f.lhs.contains(a) {
                        let g = Fd {
                            lhs: f.lhs | AttrSet::single(a),
                            rhs: f.rhs,
                            modality: f.modality,
                        };
                        new.push((
                            Constraint::Fd(g),
                            Justification {
                                rule: Rule::LAugmentation,
                                premises: vec![Constraint::Fd(f)],
                            },
                        ));
                    }
                }
                // Strengthening.
                if f.modality == Modality::Possible && f.lhs.is_subset(self.nfs) {
                    new.push((
                        Constraint::Fd(Fd::certain(f.lhs, f.rhs)),
                        Justification {
                            rule: Rule::Strengthening,
                            premises: vec![Constraint::Fd(f)],
                        },
                    ));
                }
                // Decomposition, one attribute at a time.
                for a in f.rhs {
                    let g = Fd {
                        lhs: f.lhs,
                        rhs: f.rhs - AttrSet::single(a),
                        modality: f.modality,
                    };
                    new.push((
                        Constraint::Fd(g),
                        Justification {
                            rule: Rule::Decomposition,
                            premises: vec![Constraint::Fd(f)],
                        },
                    ));
                }
            }

            // Binary FD rules.
            for &f in &fds {
                for &g in &fds {
                    // Union: same LHS, same modality.
                    if f.lhs == g.lhs && f.modality == g.modality {
                        new.push((
                            Constraint::Fd(Fd {
                                lhs: f.lhs,
                                rhs: f.rhs | g.rhs,
                                modality: f.modality,
                            }),
                            Justification {
                                rule: Rule::Union,
                                premises: vec![Constraint::Fd(f), Constraint::Fd(g)],
                            },
                        ));
                    }
                    // Pseudo-Transitivity: X → Y, XY →_w Z ⊢ X → Z
                    // (the conclusion inherits the first premise's
                    // modality, the middle premise is certain).
                    if g.modality == Modality::Certain && g.lhs == f.lhs | f.rhs {
                        new.push((
                            Constraint::Fd(Fd {
                                lhs: f.lhs,
                                rhs: g.rhs,
                                modality: f.modality,
                            }),
                            Justification {
                                rule: Rule::PseudoTransitivity,
                                premises: vec![Constraint::Fd(f), Constraint::Fd(g)],
                            },
                        ));
                    }
                    // Null-Transitivity: X →_s Y, XY →_s Z, Y ⊆ T_S
                    // ⊢ X →_s Z.
                    if f.modality == Modality::Possible
                        && g.modality == Modality::Possible
                        && g.lhs == f.lhs | f.rhs
                        && f.rhs.is_subset(self.nfs)
                    {
                        new.push((
                            Constraint::Fd(Fd::possible(f.lhs, g.rhs)),
                            Justification {
                                rule: Rule::NullTransitivity,
                                premises: vec![Constraint::Fd(f), Constraint::Fd(g)],
                            },
                        ));
                    }
                }
            }

            // Key rules.
            for &k in &keys {
                for &a in &attrs {
                    if !k.attrs.contains(a) {
                        new.push((
                            Constraint::Key(Key {
                                attrs: k.attrs | AttrSet::single(a),
                                modality: k.modality,
                            }),
                            Justification {
                                rule: Rule::KeyAugmentation,
                                premises: vec![Constraint::Key(k)],
                            },
                        ));
                    }
                }
                match k.modality {
                    Modality::Possible => {
                        if k.attrs.is_subset(self.nfs) {
                            new.push((
                                Constraint::Key(Key::certain(k.attrs)),
                                Justification {
                                    rule: Rule::KeyStrengthening,
                                    premises: vec![Constraint::Key(k)],
                                },
                            ));
                        }
                    }
                    Modality::Certain => {
                        new.push((
                            Constraint::Key(Key::possible(k.attrs)),
                            Justification {
                                rule: Rule::KeyWeakening,
                                premises: vec![Constraint::Key(k)],
                            },
                        ));
                    }
                }
                // key-FD-Weakening: (p/c)⟨X⟩ ⊢ X → T (Decomposition
                // then yields every Y).
                let modality = k.modality;
                new.push((
                    Constraint::Fd(Fd {
                        lhs: k.attrs,
                        rhs: self.t,
                        modality,
                    }),
                    Justification {
                        rule: Rule::KeyFdWeakening,
                        premises: vec![Constraint::Key(k)],
                    },
                ));
            }

            // Interaction rules with FD premises.
            for &f in &fds {
                let xy = f.lhs | f.rhs;
                // key-Transitivity: X → Y, c⟨XY⟩ ⊢ (p/c)⟨X⟩, modality
                // uniform with the FD.
                let ckey = Constraint::Key(Key::certain(xy));
                if self.derived.contains_key(&ckey) {
                    new.push((
                        Constraint::Key(Key {
                            attrs: f.lhs,
                            modality: f.modality,
                        }),
                        Justification {
                            rule: Rule::KeyTransitivity,
                            premises: vec![Constraint::Fd(f), ckey],
                        },
                    ));
                }
                // key-Null-Transitivity: X →_s Y, p⟨XY⟩, Y ⊆ T_S ⊢ p⟨X⟩.
                let pkey = Constraint::Key(Key::possible(xy));
                if f.modality == Modality::Possible
                    && f.rhs.is_subset(self.nfs)
                    && self.derived.contains_key(&pkey)
                {
                    new.push((
                        Constraint::Key(Key::possible(f.lhs)),
                        Justification {
                            rule: Rule::KeyNullTransitivity,
                            premises: vec![Constraint::Fd(f), pkey],
                        },
                    ));
                }
            }

            let mut changed = false;
            for (c, j) in new {
                // Disabled rules (independence studies) contribute
                // nothing; their candidate conclusions are discarded.
                if !self.rules.contains(j.rule) {
                    continue;
                }
                if self.insert(c, j) {
                    changed = true;
                }
            }
            if !changed {
                return;
            }
        }
    }

    /// Whether `φ ∈ Σ⁺` under the axiomatization.
    pub fn derives(&self, phi: &Constraint) -> bool {
        self.derived.contains_key(phi)
    }

    /// Every derived constraint (the finite fragment of Σ⁺ over `T`).
    pub fn all_derived(&self) -> impl Iterator<Item = &Constraint> {
        self.derived.keys()
    }

    /// A linearized proof of `φ` from Σ (premises before conclusions),
    /// or `None` when `φ` is not derivable.
    pub fn proof(&self, phi: &Constraint) -> Option<Vec<ProofStep>> {
        if !self.derives(phi) {
            return None;
        }
        let mut steps: Vec<ProofStep> = Vec::new();
        let mut emitted: std::collections::HashSet<Constraint> = Default::default();
        let mut stack = vec![(*phi, false)];
        while let Some((c, expanded)) = stack.pop() {
            if emitted.contains(&c) {
                continue;
            }
            let j = &self.derived[&c];
            if expanded {
                emitted.insert(c);
                steps.push(ProofStep {
                    constraint: c,
                    justification: j.clone(),
                });
            } else {
                stack.push((c, true));
                for p in &j.premises {
                    stack.push((*p, false));
                }
            }
        }
        Some(steps)
    }

    /// Renders a proof with column names.
    pub fn render_proof(
        &self,
        phi: &Constraint,
        schema: &sqlnf_model::schema::TableSchema,
    ) -> Option<String> {
        let steps = self.proof(phi)?;
        let mut out = String::new();
        for (i, s) in steps.iter().enumerate() {
            let premises: Vec<String> = s
                .justification
                .premises
                .iter()
                .map(|p| p.display(schema))
                .collect();
            out.push_str(&format!(
                "{:>3}. {}   [{}{}{}]\n",
                i + 1,
                s.constraint.display(schema),
                s.justification.rule.short(),
                if premises.is_empty() { "" } else { ": " },
                premises.join(", ")
            ));
        }
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::implication::Reasoner;
    use crate::oracle::oracle_implies;

    fn s(ix: &[usize]) -> AttrSet {
        AttrSet::from_indices(ix.iter().copied())
    }

    #[test]
    fn section4_derivation_example() {
        // From Σ = {oi →_s c, ic →_w p}: L-augment ic →_w p to
        // oic →_w p, then pseudo-transitivity gives oi →_s p.
        let t = s(&[0, 1, 2, 3]);
        let nfs = s(&[0, 2, 3]);
        let sigma = Sigma::new()
            .with(Fd::possible(s(&[0, 1]), s(&[2])))
            .with(Fd::certain(s(&[1, 2]), s(&[3])));
        let eng = DerivationEngine::saturate(t, nfs, &sigma);
        let goal = Constraint::Fd(Fd::possible(s(&[0, 1]), s(&[3])));
        assert!(eng.derives(&goal));
        let proof = eng.proof(&goal).unwrap();
        assert_eq!(proof.last().unwrap().constraint, goal);
        // Premises precede conclusions.
        let mut seen = std::collections::HashSet::new();
        for step in &proof {
            for p in &step.justification.premises {
                assert!(seen.contains(p), "premise {p} used before derived");
            }
            seen.insert(step.constraint);
        }
        // And oi →_w p is *not* derivable.
        assert!(!eng.derives(&Constraint::Fd(Fd::certain(s(&[0, 1]), s(&[3])))));
    }

    #[test]
    fn key_null_transitivity_example() {
        // Σ = {oi →_s c, p⟨oic⟩}, c ∈ T_S ⊢ p⟨oi⟩ (Section 4.2).
        let t = s(&[0, 1, 2, 3]);
        let nfs = s(&[0, 2, 3]);
        let sigma = Sigma::new()
            .with(Fd::possible(s(&[0, 1]), s(&[2])))
            .with(Key::possible(s(&[0, 1, 2])));
        let eng = DerivationEngine::saturate(t, nfs, &sigma);
        assert!(eng.derives(&Constraint::Key(Key::possible(s(&[0, 1])))));
    }

    #[test]
    fn proof_renders() {
        let t = s(&[0, 1, 2]);
        let sigma = Sigma::new().with(Fd::certain(s(&[0]), s(&[1])));
        let eng = DerivationEngine::saturate(t, t, &sigma);
        let schema = sqlnf_model::schema::TableSchema::total("r", ["a", "b", "c"]);
        let goal = Constraint::Fd(Fd::certain(s(&[0, 2]), s(&[1])));
        let rendered = eng.render_proof(&goal, &schema).unwrap();
        assert!(rendered.contains("[A:"));
        assert!(rendered.contains("{a,c} ->w {b}"));
        // Not derivable: no proof.
        assert!(eng
            .render_proof(&Constraint::Key(Key::possible(s(&[0]))), &schema)
            .is_none());
    }

    /// Independence of the axioms: for each rule there is an implied
    /// constraint that becomes underivable when that single rule is
    /// removed (while remaining derivable — and true, per the oracle —
    /// with all rules). The paper states soundness/completeness, not
    /// minimality — and indeed exactly one rule turns out to be
    /// redundant: key-Weakening follows from Reflexivity and
    /// key-Transitivity (`X →_s X` and `c⟨X⟩` give `p⟨X⟩` by kT's
    /// uniform-modality reading); see
    /// [`key_weakening_is_derivable`]. Every other rule is independent.
    #[test]
    fn each_rule_is_necessary() {
        use crate::oracle::oracle_implies;
        let a = || s(&[0]);
        let b = || s(&[1]);
        let c = || s(&[2]);
        let ab = || s(&[0, 1]);
        // (rule, Σ, T_S, φ) with Σ ⊨ φ but Σ ⊬ φ without the rule.
        let cases: Vec<(Rule, Sigma, AttrSet, Constraint)> = vec![
            (
                Rule::Reflexivity,
                Sigma::new(),
                AttrSet::EMPTY,
                Constraint::Fd(Fd::possible(a(), a())),
            ),
            (
                Rule::LAugmentation,
                Sigma::new().with(Fd::possible(a(), b())),
                AttrSet::EMPTY,
                Constraint::Fd(Fd::possible(s(&[0, 2]), b())),
            ),
            (
                Rule::Strengthening,
                Sigma::new().with(Fd::possible(a(), b())),
                a(),
                Constraint::Fd(Fd::certain(a(), b())),
            ),
            (
                Rule::Union,
                Sigma::new()
                    .with(Fd::possible(a(), b()))
                    .with(Fd::possible(a(), c())),
                AttrSet::EMPTY,
                Constraint::Fd(Fd::possible(a(), s(&[1, 2]))),
            ),
            (
                Rule::Decomposition,
                Sigma::new().with(Fd::possible(a(), s(&[1, 2]))),
                AttrSet::EMPTY,
                Constraint::Fd(Fd::possible(a(), b())),
            ),
            (
                Rule::PseudoTransitivity,
                Sigma::new()
                    .with(Fd::possible(a(), b()))
                    .with(Fd::certain(ab(), c())),
                AttrSet::EMPTY,
                Constraint::Fd(Fd::possible(a(), c())),
            ),
            (
                Rule::NullTransitivity,
                Sigma::new()
                    .with(Fd::possible(a(), b()))
                    .with(Fd::possible(ab(), c())),
                b(),
                Constraint::Fd(Fd::possible(a(), c())),
            ),
            (
                Rule::KeyAugmentation,
                Sigma::new().with(Key::possible(a())),
                AttrSet::EMPTY,
                Constraint::Key(Key::possible(ab())),
            ),
            (
                Rule::KeyStrengthening,
                Sigma::new().with(Key::possible(a())),
                a(),
                Constraint::Key(Key::certain(a())),
            ),
            (
                Rule::KeyFdWeakening,
                Sigma::new().with(Key::possible(a())),
                AttrSet::EMPTY,
                Constraint::Fd(Fd::possible(a(), b())),
            ),
            (
                Rule::KeyTransitivity,
                Sigma::new()
                    .with(Fd::certain(a(), b()))
                    .with(Key::certain(ab())),
                AttrSet::EMPTY,
                Constraint::Key(Key::certain(a())),
            ),
            (
                Rule::KeyNullTransitivity,
                Sigma::new()
                    .with(Fd::possible(a(), b()))
                    .with(Key::possible(ab())),
                b(),
                Constraint::Key(Key::possible(a())),
            ),
        ];
        let t = s(&[0, 1, 2]);
        for (rule, sigma, nfs, phi) in cases {
            // The constraint really is implied…
            assert!(
                oracle_implies(t, nfs, &sigma, &phi),
                "{rule:?}: test case is not semantically implied"
            );
            // …derivable with all rules…
            let full = DerivationEngine::saturate(t, nfs, &sigma);
            assert!(full.derives(&phi), "{rule:?}: not derivable with all rules");
            // …but not without this one.
            let crippled = DerivationEngine::saturate_with(t, nfs, &sigma, RuleSet::without(rule));
            assert!(
                !crippled.derives(&phi),
                "{rule:?} is redundant: {phi} derivable without it"
            );
        }
    }

    /// key-Weakening is the one redundant rule of Tables 2–3: `p⟨X⟩`
    /// follows from `c⟨X⟩` via Reflexivity (`X →_s X`) and
    /// key-Transitivity (`X →_s X, c⟨X⟩ ⊢ p⟨X⟩`). Removing kW alone
    /// loses nothing.
    #[test]
    fn key_weakening_is_derivable() {
        let t = s(&[0, 1, 2]);
        let sigma = Sigma::new().with(Key::certain(s(&[0])));
        let phi = Constraint::Key(Key::possible(s(&[0])));
        let crippled = DerivationEngine::saturate_with(
            t,
            AttrSet::EMPTY,
            &sigma,
            RuleSet::without(Rule::KeyWeakening),
        );
        assert!(crippled.derives(&phi));
        // But removing key-Transitivity as well does lose it.
        let doubly = {
            let mut rules = RuleSet::without(Rule::KeyWeakening);
            rules = RuleSet(rules.0 & RuleSet::without(Rule::KeyTransitivity).0);
            DerivationEngine::saturate_with(t, AttrSet::EMPTY, &sigma, rules)
        };
        assert!(!doubly.derives(&phi));
    }

    /// Soundness and completeness of the axiomatization (Theorems 1 and
    /// 4), mechanized: on 3-attribute schemata, derivability coincides
    /// exactly with model-theoretic implication and with the linear-time
    /// decision procedures, for a diverse pool of constraint sets.
    #[test]
    fn sound_and_complete_vs_oracle() {
        let t = s(&[0, 1, 2]);
        let pools: Vec<Sigma> = vec![
            Sigma::new(),
            Sigma::new().with(Fd::possible(s(&[0]), s(&[1]))),
            Sigma::new().with(Fd::certain(s(&[0]), s(&[1]))),
            Sigma::new()
                .with(Fd::possible(s(&[0]), s(&[1])))
                .with(Fd::certain(s(&[1]), s(&[2]))),
            Sigma::new()
                .with(Fd::certain(s(&[0]), s(&[1, 2])))
                .with(Key::possible(s(&[0, 1]))),
            Sigma::new().with(Key::certain(s(&[0]))),
            Sigma::new()
                .with(Key::possible(s(&[0])))
                .with(Fd::possible(s(&[1]), s(&[0]))),
            Sigma::new()
                .with(Fd::possible(s(&[0]), s(&[1])))
                .with(Key::possible(s(&[0, 1, 2]))),
        ];
        let subsets: Vec<AttrSet> = t.subsets().collect();
        for sigma in &pools {
            for &nfs in &subsets {
                let eng = DerivationEngine::saturate(t, nfs, sigma);
                let r = Reasoner::new(t, nfs, sigma);
                for &x in &subsets {
                    for m in [Modality::Possible, Modality::Certain] {
                        for &y in &subsets {
                            let phi = Constraint::Fd(Fd {
                                lhs: x,
                                rhs: y,
                                modality: m,
                            });
                            let derived = eng.derives(&phi);
                            let truth = oracle_implies(t, nfs, sigma, &phi);
                            assert_eq!(derived, truth, "fd {phi} sigma={sigma:?} nfs={nfs:?}");
                            assert_eq!(r.implies(&phi), truth);
                        }
                        let phi = Constraint::Key(Key {
                            attrs: x,
                            modality: m,
                        });
                        let derived = eng.derives(&phi);
                        let truth = oracle_implies(t, nfs, sigma, &phi);
                        assert_eq!(derived, truth, "key {phi} sigma={sigma:?} nfs={nfs:?}");
                        assert_eq!(r.implies(&phi), truth);
                    }
                }
            }
        }
    }
}
