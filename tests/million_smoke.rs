//! Release-mode smoke test for the million-row regime the columnar
//! storage targets: mine the full `million_like` instance end-to-end
//! under both classical and certain semantics and check the planted
//! dependencies come back, then render its `MINE` report, whose lattice
//! pass overflows the default partition-store budget. Ignored by
//! default — a debug build takes minutes where release takes seconds —
//! and run in CI as
//!
//! ```text
//! SQLNF_MINE_THREADS=4 cargo test -q --release --test million_smoke -- --ignored
//! ```

use std::time::Instant;

use sqlnf::discovery::check::Semantics;
use sqlnf::discovery::classify::mine_report;
use sqlnf::discovery::mine::DEFAULT_CACHE_BUDGET;
use sqlnf::discovery::mine::{mine_fds, MinerConfig, MiningResult};
use sqlnf::prelude::*;

/// True iff the mined minimal cover contains `lhs → rhs` (as a subset
/// of one minimal FD's attribute-wise right-hand side).
fn contains_fd(result: &MiningResult, lhs: AttrSet, rhs: AttrSet) -> bool {
    result
        .fds
        .iter()
        .any(|f| f.lhs == lhs && rhs.is_subset(f.rhs))
}

#[test]
#[ignore = "million-row end-to-end mine; run in release builds only"]
fn million_rows_mine_end_to_end() {
    let t = sqlnf::datagen::naumann::million_like(20_160_626);
    assert_eq!((t.schema().arity(), t.len()), (8, 1_000_000));
    let s = t.schema().clone();
    let site_to_region = (s.set(&["site"]), s.set(&["region"]));
    let class_to_firmware = (s.set(&["device_class"]), s.set(&["firmware"]));

    for sem in [Semantics::Classical, Semantics::Certain] {
        let t0 = Instant::now();
        let result = mine_fds(&t, MinerConfig::new(sem).with_max_lhs(3));
        eprintln!(
            "million {:?}: {} minimal FDs in {:?} ({} candidates)",
            sem,
            result.fds.len(),
            t0.elapsed(),
            result.candidates_checked
        );
        // The planted dependencies are single-attribute, so they must
        // appear as minimal LHSs regardless of semantics (no LHS
        // attribute is ever null in the generator).
        assert!(
            contains_fd(&result, site_to_region.0, site_to_region.1),
            "{sem:?}: site → region not mined"
        );
        assert!(
            contains_fd(&result, class_to_firmware.0, class_to_firmware.1),
            "{sem:?}: device_class → firmware not mined"
        );
        // The free columns (reading, status, …) are independent draws:
        // at this row count no accidental FD can survive, so the cover
        // is exactly the planted structure.
        for f in &result.fds {
            assert!(
                f.lhs == site_to_region.0 || f.lhs == class_to_firmware.0,
                "{sem:?}: unexpected minimal FD {:?} → {:?}",
                f.lhs,
                f.rhs
            );
        }
    }

    // The report: the planted FDs as nn-FDs, and no key below the cap.
    let t0 = Instant::now();
    let report = mine_report("million", &t, 3, DEFAULT_CACHE_BUDGET);
    eprintln!("million report in {:?}", t0.elapsed());
    assert_eq!(
        report,
        "million: 1000000 rows × 8 columns (LHS cap 3)\n\
         minimal FDs: 2 nn, 0 p, 0 c (0 total, 0 λ); minimal keys: 0 possible, 0 certain\n\
         \x20 nn-FD  {site} -> {region}\n\
         \x20 nn-FD  {device_class} -> {firmware}\n"
    );
}
