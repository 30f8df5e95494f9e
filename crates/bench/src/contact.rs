//! E3: `contact_draft_lookup`, Figures 7–8 and the Section 7 text.

use crate::{lossless, Claim};
use sqlnf_core::decompose::decompose_instance_by_cfd;
use sqlnf_datagen::contact::{contact_full, contact_sigma_fd, fig7_snippet};
use sqlnf_model::prelude::*;

/// E3's data: Figure 7's snippet and its Figure 8 decomposition by σ,
/// and the generated full table's decomposition, each with the claims
/// `exp_contact` prints under it.
#[derive(Debug, Clone)]
pub struct Contact {
    /// Figure 7's 14-row snippet.
    pub snippet: Table,
    /// σ and its accidental variants hold on the snippet; `first,last
    /// -> state` and `city ->w state` fail.
    pub snippet_claims: Vec<Claim>,
    /// Figure 8's set projection of the snippet on σ's attributes.
    pub projection: Table,
    /// Figure 8's multiset remainder.
    pub remainder: Table,
    /// Figure 8 is lossless and keys the projection.
    pub figure8_claims: Vec<Claim>,
    /// Whether σ holds on the full table.
    pub full_sigma_holds: bool,
    /// Rows of the full table, of its set projection and of its
    /// multiset remainder.
    pub full_rows: (usize, usize, usize),
    /// The full table's projection is keyed and the split lossless.
    pub full_claims: Vec<Claim>,
}

impl Contact {
    /// Decomposes the snippet and `contact_full(seed)` by σ.
    pub fn decompose(seed: u64) -> Contact {
        // --- Snippet (Figure 7) ---
        let snippet = fig7_snippet();
        let s = snippet.schema().clone();
        let flc = s.set(&["first_name", "last_name", "city"]);
        let full_rhs = s.set(&["first_name", "last_name", "city", "state_id"]);
        let sigma_fd = Fd::certain(flc, full_rhs);
        let holds = |lhs: &[&str], rhs: AttrSet, certain: bool| {
            let lhs = s.set(lhs);
            let fd = if certain {
                Fd::certain(lhs, rhs)
            } else {
                Fd::possible(lhs, rhs)
            };
            satisfies_fd(&snippet, &fd)
        };
        let state = s.set(&["state_id"]);
        let snippet_claims = vec![
            Claim::new(
                "σ: first,last,city ->w first,last,city,state   holds ✓",
                satisfies_fd(&snippet, &sigma_fd),
            ),
            Claim::new(
                "accidental variants (first,city) / (last,city)  hold ✓ (as the paper notes)",
                holds(&["first_name", "city"], full_rhs, true)
                    && holds(&["last_name", "city"], full_rhs, true),
            ),
            Claim::new(
                "first,last -> state                             fails ✓ (Stacey Brennan moved)",
                !holds(&["first_name", "last_name"], state, false),
            ),
            Claim::new(
                "city ->w state                                  fails ✓ (NULL city rows)",
                !holds(&["city"], state, true),
            ),
        ];

        // --- Figure 8: the decomposition of the snippet ---
        let (remainder, projection) = decompose_instance_by_cfd(&snippet, &sigma_fd);
        let figure8_claims = vec![
            Claim::new(
                "join of the components = I (lossless) ✓",
                lossless(&snippet, &remainder, &projection),
            ),
            Claim::new(
                "c<first,last,city> holds on the projection ✓",
                keyed(&projection),
            ),
        ];

        // --- Full table (124 × 14) ---
        let full = contact_full(seed);
        let fd = contact_sigma_fd(full.schema());
        let (rest_f, proj_f) = decompose_instance_by_cfd(&full, &fd);
        let full_claims = vec![
            Claim::new(
                "c<first,last,city> holds on the 105-row projection ✓",
                keyed(&proj_f),
            ),
            Claim::new("lossless ✓", lossless(&full, &rest_f, &proj_f)),
        ];

        Contact {
            full_sigma_holds: satisfies_fd(&full, &fd),
            full_rows: (full.len(), proj_f.len(), rest_f.len()),
            snippet,
            snippet_claims,
            projection,
            remainder,
            figure8_claims,
            full_claims,
        }
    }

    /// Every claim, in print order.
    pub fn claims(&self) -> impl Iterator<Item = &Claim> {
        self.snippet_claims
            .iter()
            .chain(&self.figure8_claims)
            .chain(&self.full_claims)
    }
}

/// Whether the c-key `c⟨first,last,city⟩` holds on a projection.
fn keyed(projection: &Table) -> bool {
    let key = projection
        .schema()
        .set(&["first_name", "last_name", "city"]);
    satisfies_key(projection, &Key::certain(key))
}
