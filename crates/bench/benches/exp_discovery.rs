//! E6 — the discovery comparison table of Section 7 ("Discovering
//! c-FDs"): classical FD discovery (nulls as values, the convention of
//! the Papenbrock et al. study) versus our c-FD discovery, on the three
//! Naumann-style data sets:
//!
//! ```text
//! data set       cols  rows    FDs   time   c-FDs  time
//! breast-cancer    11    699    46   0.5s      54   0.1s
//! adult            14  48842    78   5.9s      78  10.4s
//! hepatitis        20    155  8250   0.8s     264   1.2s
//! ```
//!
//! Shapes: counts of classical FDs and c-FDs are *incomparable*
//! (either can be larger); the wide-short `hepatitis` regime explodes
//! with accidental classical FDs while c-FDs stay moderate; c-FD
//! discovery stays within the same order of magnitude of runtime as
//! classical discovery. Absolute counts and times differ (synthetic
//! data, different hardware, LHS size capped at 4).
//!
//! Beyond the paper's two columns, each data set is also mined under
//! the weak (some-possible-world) semantics (the `w-FDs` columns): its
//! check runs on the same stripped partitions as
//! classical/possible with no probe-index tail, so on probe-dominated
//! shapes it lands between classical and certain.
//!
//! The counts come from the same [`DiscoveryTable`] that
//! `tests/paper_claims.rs` asserts the shapes on (a release test, run
//! with `--ignored`); the times are printed, never asserted.

use sqlnf_bench::{banner, fmt_duration, mark, render_table, timed, DiscoveryTable, SEED};
use sqlnf_datagen::naumann::adult_like;
use sqlnf_discovery::check::Semantics;
use sqlnf_discovery::mine::{mine_fds, MinerConfig};

fn main() {
    banner("E6: classical FD discovery vs c-FD discovery (Section 7 table)");
    println!("(synthetic data sets with the paper's dimensions; LHS capped at 4 attributes)\n");

    let table = DiscoveryTable::of_naumann(SEED);
    let rows: Vec<Vec<String>> = table
        .rows
        .iter()
        .map(|r| {
            let mut row = vec![r.name.to_string(), r.cols.to_string(), r.rows.to_string()];
            for (count, time) in [r.classical, r.certain, r.weak] {
                row.extend([count.to_string(), fmt_duration(time)]);
            }
            row
        })
        .collect();
    print!(
        "{}",
        render_table(
            &["data set", "cols", "rows", "FDs", "time", "c-FDs", "time", "w-FDs", "time",],
            &rows
        )
    );
    println!(
        "\npaper:         cols  rows    FDs  time   c-FDs  time\n\
         breast-cancer    11   699     46  0.5s      54  0.1s\n\
         adult            14 48842     78  5.9s      78 10.4s\n\
         hepatitis        20   155   8250  0.8s     264  1.2s"
    );

    // Bonus row: parallel c-FD mining on adult — not part of the
    // paper's table (its miner is single-threaded), shown for the
    // engineering headroom. Meaningful only on multi-core boxes; the
    // level-parallel miner is exact regardless (see
    // `mine::tests::parallel_equals_serial`).
    let adult = adult_like(SEED);
    let certain_adult = |threads: usize| {
        let config = MinerConfig::new(Semantics::Certain)
            .with_max_lhs(4)
            .with_threads(threads);
        timed(|| mine_fds(&adult, config).fd_count_attrwise())
    };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let (par_count, par_time) = certain_adult(0);
    println!(
        "\nc-FDs on adult with {cores} core(s): {par_count} FDs in {} (serial above: {})",
        fmt_duration(par_time),
        fmt_duration(table.row("adult").certain.1)
    );

    // Thread sweep: c-FD mining on adult at fixed thread counts, one
    // timing pass each. The cost-balanced work queue makes the extra
    // threads count wherever the hardware has the cores; the sweep
    // records what this box actually does.
    banner("thread sweep: certain_adult at 1/2/4/8 threads");
    for threads in [1usize, 2, 4, 8] {
        println!(
            "  {} threads: {}",
            threads,
            fmt_duration(certain_adult(threads).1)
        );
    }

    println!(
        "\nshape check: hepatitis explodes classically, c-FD counts stay moderate {}",
        mark(&table.claims())
    );
}
