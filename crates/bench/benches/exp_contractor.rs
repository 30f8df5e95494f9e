//! E4 — the `contractor` normalization experiment (Section 7).
//!
//! Runs Algorithm 3 on the 173 × 22 contractor table with the three
//! λ-FDs and reproduces the paper's numbers exactly:
//!
//! * four tables of 4/5/4/17 attributes with 38/67/73/173 rows;
//! * 448 redundant data values eliminated
//!   (1 dmerc_rgn + 135 status + 106 contractor_version +
//!   106 status_flag + 100 url), plus 134 redundant dmerc_rgn nulls;
//! * total cells 3806 → 3720;
//! * the decomposition is lossless.
//!
//! `tests/paper_claims.rs` asserts these numbers on the same
//! [`Contractor`] (and `tests/end_to_end.rs` the cell counts).

use sqlnf_bench::{banner, render_table, Contractor, SEED};

fn main() {
    banner("E4: VRNF normalization of contractor (Section 7)");
    let c = Contractor::normalize(SEED);
    let schema = c.table.schema();
    println!(
        "input: {} rows × {} columns = {} cells",
        c.table.len(),
        schema.arity(),
        c.table.cell_count()
    );
    println!("Σ = {}", c.sigma.display(schema));

    // Report the components.
    let mut rows_out = Vec::new();
    for (comp, part) in c.decomposition.components.iter().zip(&c.parts) {
        rows_out.push(vec![
            schema.display_set(comp.attrs),
            if comp.multiset { "multiset" } else { "set" }.to_string(),
            comp.attrs.len().to_string(),
            part.len().to_string(),
        ]);
    }
    print!(
        "{}",
        render_table(&["component", "kind", "attrs", "rows"], &rows_out)
    );

    println!(
        "\ncells: {} → {} (paper: 3806 → 3720)",
        c.table.cell_count(),
        c.cells_after()
    );

    let elim_rows: Vec<Vec<String>> = c
        .eliminated
        .iter()
        .map(|(col, values, nulls)| vec![col.to_string(), values.to_string(), nulls.to_string()])
        .collect();
    println!();
    print!(
        "{}",
        render_table(
            &[
                "column",
                "redundant values removed",
                "redundant nulls removed"
            ],
            &elim_rows
        )
    );
    println!(
        "\ntotal redundant data values eliminated: {} (paper: 448)",
        c.values_eliminated()
    );
    for claim in c.claims() {
        println!("{claim}");
    }
}
