//! E0: the paper's running examples, Figures 1–5 and Examples 1–3,
//! with the Section 4 derivation and the Section 5–6 verdicts.

use crate::{lossless, Claim};
use sqlnf_core::axioms::DerivationEngine;
use sqlnf_core::decompose::decompose_instance_by_cfd;
use sqlnf_core::implication::Reasoner;
use sqlnf_core::normal_forms::{is_bcnf, is_sql_bcnf};
use sqlnf_core::redundancy::{redundant_positions, value_redundant_positions};
use sqlnf_datagen::paper;
use sqlnf_model::prelude::*;

/// E0's data: one claim per figure, example and verdict, in the order
/// `exp_paper_figures` prints them, and Section 4's derivation.
#[derive(Debug, Clone)]
pub struct PaperFigures {
    /// Figures 1–5 and Examples 1–2.
    pub figures: Vec<Claim>,
    /// The derivation of `oi ->s p` from `{oi ->s c, ic ->w p}` by the
    /// axioms, rendered, or `None` when the engine finds none.
    pub derivation: Option<String>,
    /// Section 4's closures and the counterexample witnessing them.
    pub reasoning: Vec<Claim>,
    /// Sections 5–6: normal-form verdicts and Section 6.2's instance.
    pub normal_forms: Vec<Claim>,
}

impl PaperFigures {
    /// Checks every claim on the embedded instances.
    pub fn check() -> PaperFigures {
        // --- Figure 1 + Figure 2 ---
        let fig1 = paper::purchase_fig1();
        let s = fig1.schema().clone();
        let ic = s.set(&["item", "catalog"]);
        let price = s.set(&["price"]);
        let fig1_claim = satisfies_fd(&fig1, &Fd::certain(ic, price))
            && !satisfies_key(&fig1, &Key::possible(ic))
            // The two Fitbit/Amazon 240s are redundant.
            && redundant_positions(&fig1, &Sigma::new().with(Fd::certain(ic, price))).len() == 2;

        let (rest, xy) = decompose_instance_by_cfd(&fig1, &Fd::certain(ic, price));
        let fig2_claim = (rest.len(), xy.len()) == (4, 3)
            && lossless(&fig1, &rest, &xy)
            && satisfies_key(&xy, &Key::certain(xy.schema().set(&["item", "catalog"])));

        // --- Figure 3 ---
        let fig3 = paper::fig3_duplicates();
        let all3 = fig3.schema().attrs();
        let fig3_claim = all3.subsets().all(|x| {
            !satisfies_key(&fig3, &Key::possible(x))
                && all3.subsets().all(|y| {
                    satisfies_fd(&fig3, &Fd::possible(x, y))
                        && satisfies_fd(&fig3, &Fd::certain(x, y))
                })
        });

        // --- Figure 4: lossy p-FD decomposition ---
        let fig4 = paper::purchase_fig4();
        let s4 = fig4.schema().clone();
        let (ic4, p4) = (s4.set(&["item", "catalog"]), s4.set(&["price"]));
        let (rest4, xy4) = decompose_instance_by_cfd(&fig4, &Fd::certain(ic4, p4));
        let fig4_claim = satisfies_fd(&fig4, &Fd::possible(ic4, p4))
            // 2 rows × 2 matching projections.
            && join(&rest4, &xy4, "j").len() == 4
            && !lossless(&fig4, &rest4, &xy4);

        // --- Figure 5: lossless c-FD decomposition, residual redundancy ---
        let fig5 = paper::purchase_fig5();
        let s5 = fig5.schema().clone();
        let cfd = Fd::certain(s5.set(&["item", "catalog"]), s5.set(&["price"]));
        let (rest5, xy5) = decompose_instance_by_cfd(&fig5, &cfd);
        let xy5_ic = xy5.schema().set(&["item", "catalog"]);
        let sigma5 = Sigma::new().with(Fd::certain(xy5_ic, xy5.schema().set(&["price"])));
        let fig5_claim = satisfies_fd(&fig5, &cfd)
            && lossless(&fig5, &rest5, &xy5)
            // Both 240s in I[icp] stay redundant.
            && redundant_positions(&xy5, &sigma5).len() == 2
            && satisfies_key(&xy5, &Key::possible(xy5_ic))
            && !satisfies_key(&xy5, &Key::certain(xy5_ic));

        // --- Example 1 ---
        let e1 = paper::example1_employees();
        let es = e1.schema().clone();
        let ex1_claim = !satisfies_fd(
            &e1,
            &Fd::certain(es.set(&["name", "dob"]), es.set(&["dob"])),
        );

        // --- Example 2 (spot checks; the full matrix is a unit test) ---
        let e2 = paper::example2_relation();
        let d = e2.schema().set(&["dept"]);
        let ex2_claim =
            satisfies_fd(&e2, &Fd::possible(d, d)) && !satisfies_fd(&e2, &Fd::certain(d, d));

        let figures = vec![
            Claim::new(
                "Fig 1: item,catalog -> price holds, {item,catalog} is no key, 2 redundant 240s ✓",
                fig1_claim,
            ),
            Claim::new(
                "Fig 2: lossless decomposition into purchase[oic] (4 rows) and purchase[icp] (3 rows) ✓",
                fig2_claim,
            ),
            Claim::new("Fig 3: duplicates satisfy every FD and violate every key ✓", fig3_claim),
            Claim::new("Fig 4: decomposition by the (merely) possible FD is lossy ✓", fig4_claim),
            Claim::new(
                "Fig 5: c-FD decomposition lossless; I[icp] keeps 2 redundant 240s; p-key holds, c-key fails ✓",
                fig5_claim,
            ),
            Claim::new("Ex 1: the c-FD nd ->w d rejects the dob-less John Smith ✓", ex1_claim),
            Claim::new("Ex 2: d ->s d holds while d ->w d fails (⊥ vs CS) ✓", ex2_claim),
        ];

        // --- Section 4: derivations and closures ---
        let t = AttrSet::first_n(4);
        let schema = paper::purchase_schema(&["order_id", "catalog", "price"]);
        let sigma = paper::section4_sigma(&schema);
        let eng = DerivationEngine::saturate(t, schema.nfs(), &sigma);
        let oi = schema.set(&["order_id", "item"]);
        let goal = Constraint::Fd(Fd::possible(oi, schema.set(&["price"])));
        let derivation = eng.render_proof(&goal, &schema);
        let r = Reasoner::new(t, schema.nfs(), &sigma);
        let closures_claim = r.p_closure(oi) == t && r.c_closure(oi) == schema.set(&["order_id"]);
        let cx = paper::section4_counterexample();
        let witness_claim = satisfies_all(&cx, &sigma)
            && !satisfies_fd(&cx, &Fd::certain(oi, schema.set(&["price"])));
        let reasoning = vec![
            Claim::new(
                "closures: oi*p = oicp, oi*c = o ✓ (so oi ->w p is not implied)",
                closures_claim,
            ),
            Claim::new(
                "…witnessed by the Section 4 counterexample instance ✓",
                witness_claim,
            ),
        ];

        // --- Section 5/6: normal-form verdicts ---
        let oip = schema.set(&["order_id", "item", "price"]);
        let sigma_nf = Sigma::new().with(Fd::certain(ic, price));
        let sigma_ok = Sigma::new()
            .with(Fd::certain(s.set(&["order_id", "item", "catalog"]), price))
            .with(Key::certain(t));
        let ex3 = Sigma::new().with(Fd::certain(s.set(&["order_id", "item", "catalog"]), t));
        // Section 6.2's instance: only null positions are redundant.
        let oic_inst = paper::section62_oic_instance();
        let os = oic_inst.schema().clone();
        let oic = os.set(&["order_id", "item", "catalog"]);
        let sigma62 = Sigma::new().with(Fd::certain(oic, os.set(&["catalog"])));
        let normal_forms = vec![
            Claim::new(
                "(oicp, oip, {ic ->w p}) is not in BCNF / RFNF ✓",
                !is_bcnf(t, oip, &sigma_nf),
            ),
            Claim::new(
                "(oicp, ∅, {oic ->w p, c<oicp>}) is in BCNF / RFNF ✓",
                is_bcnf(t, AttrSet::EMPTY, &sigma_ok),
            ),
            Claim::new(
                "Example 3's schema is not in SQL-BCNF / VRNF ✓",
                is_sql_bcnf(t, oip, &ex3) == Ok(false),
            ),
            Claim::new(
                "Section 6.2: exactly the two ⊥ positions are redundant — value-redundancy-free ✓",
                redundant_positions(&oic_inst, &sigma62).len() == 2
                    && value_redundant_positions(&oic_inst, &sigma62).is_empty(),
            ),
        ];

        PaperFigures {
            figures,
            derivation,
            reasoning,
            normal_forms,
        }
    }

    /// Every claim, in print order.
    pub fn claims(&self) -> impl Iterator<Item = &Claim> {
        self.figures
            .iter()
            .chain(&self.reasoning)
            .chain(&self.normal_forms)
    }
}
