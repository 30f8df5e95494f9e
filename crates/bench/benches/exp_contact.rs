//! E3 — the `contact_draft_lookup` qualitative experiment
//! (Figures 7–8 and the surrounding Section 7 text).
//!
//! Reproduced claims:
//! * the snippet satisfies σ: first,last,city →_w …,state and the
//!   accidental (first,city) / (last,city) variants, but not
//!   first,last → state (people move);
//! * city →_w state already fails on the snippet;
//! * the snippet's VRNF decomposition is Figure 8: a 10-row set
//!   projection and the 14-row multiset remainder, lossless;
//! * on the full table (124 rows), decomposing by σ keeps 105 distinct
//!   projected rows — 19 sources of potential inconsistency removed —
//!   and the c-key c⟨first,last,city⟩ holds on the projection.
//!
//! `tests/paper_claims.rs` asserts these claims on the same
//! [`Contact`]; a claim that fails prints `✗`.

use sqlnf_bench::{banner, Contact, SEED};

fn main() {
    banner("E3: contact_draft_lookup (Figures 7 and 8)");
    let contact = Contact::decompose(SEED);

    // --- Snippet (Figure 7) ---
    let snip = &contact.snippet;
    println!("snippet I ({} rows):\n{snip}", snip.len());
    for claim in &contact.snippet_claims {
        println!("{claim}");
    }

    // --- Figure 8: the decomposition of the snippet ---
    let (proj, rest) = (&contact.projection, &contact.remainder);
    println!("\nVRNF decomposition of the snippet (Figure 8):");
    println!(
        "set projection [f,l,city,state] ({} rows):\n{proj}",
        proj.len()
    );
    println!("multiset remainder [[id,f,l,city]] ({} rows)", rest.len());
    for claim in &contact.figure8_claims {
        println!("{claim}");
    }

    // --- Full table (124 × 14) ---
    banner("full contact_draft_lookup (generated, 124 rows × 14 columns)");
    let (base, projected, remainder) = contact.full_rows;
    println!("rows: base {base}  set-projection {projected}  multiset remainder {remainder}");
    println!(
        "eliminated sources of potential inconsistency: {} (paper: 19, 124 → 105 rows)",
        base - projected
    );
    for claim in &contact.full_claims {
        println!("{claim}");
    }
}
