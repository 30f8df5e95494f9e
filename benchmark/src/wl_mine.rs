//! `mine_adult` and `mine_telemetry`: one session issuing the four
//! `MINE` verbs against a loaded table, closed loop.
//!
//! adult-like is wide (14 columns), null-heavy and short (48,842 rows):
//! its working set fits the 64 MiB partition budget, so time goes to
//! probe checks, classification and key mining. The telemetry table is
//! tall (800,000 × 8 low-cardinality columns): the miner's
//! previous-level partition store overflows its budget, so partition
//! builds and re-folds dominate, and the snapshot `MINE` clones under
//! the read lock is large.

use crate::child::{self, ServerChild};
use crate::data::{self, BASE_SEED};
use crate::layers::{self, Replay, ServerSide};
use crate::load;
use crate::speed::{self, Speed};
use crate::stats::{median, Summary};
use crate::{metric, repeated_setup, scrape::Scrape, timed, trace, Outcome, Run};
use sqlnf_datagen::naumann::{adult_like, million_like_with_rows};
use sqlnf_discovery::prelude::*;
use sqlnf_model::prelude::*;
use sqlnf_obs::json::JsonValue;
use sqlnf_serve::Reply;
use std::time::{Duration, Instant};

/// Which generated table the workload mines.
#[derive(Debug, Clone, Copy)]
pub enum Dataset {
    /// `adult_like`, 48,842 × 14.
    Adult,
    /// `million_like`, 800,000 × 8.
    Telemetry,
}

/// Rows of the telemetry table. The smallest size at which the miner's
/// previous-level store overflows the 64 MiB budget enough to re-fold
/// evicted prefixes (35 re-folds at 800,000 rows, none at 600,000);
/// smaller than `million_like`'s 1,000,000 so that a 20 s run holds
/// five passes.
const TELEMETRY_ROWS: usize = 800_000;

/// LHS and key size cap of every `MINE` (the verb's default).
pub const MAX_LHS: usize = 3;

/// The verbs of one pass, with the semantics each lists (`None` is the
/// possible/certain classification report).
const VERBS: [(&str, Option<Semantics>); 4] = [
    ("report", None),
    ("classical", Some(Semantics::Classical)),
    ("certain", Some(Semantics::Certain)),
    ("weak", Some(Semantics::Weak)),
];

fn table_of(run: &Run, which: Dataset) -> (&'static str, Table) {
    let (name, base) = match which {
        Dataset::Adult => {
            let full = adult_like(BASE_SEED);
            let rows = run.scaled(full.len(), 200);
            let base = Table::from_rows(full.schema().clone(), full.rows()[..rows].iter().cloned());
            ("adult", base)
        }
        Dataset::Telemetry => (
            "telemetry",
            million_like_with_rows(BASE_SEED, run.scaled(TELEMETRY_ROWS, 2_000)),
        ),
    };
    (name, data::variant(&base, run.seed))
}

/// Set-ups per run: loading telemetry takes seconds, adult a fraction.
fn setups(run: &Run, which: Dataset) -> usize {
    match (run.quick, which) {
        (true, _) => 2,
        (false, Dataset::Adult) => 5,
        (false, Dataset::Telemetry) => 3,
    }
}

/// Requests of each single-semantics verb per pass. On adult they take
/// a tenth of the report each, so they are repeated for samples.
fn repeats(which: Dataset) -> usize {
    match which {
        Dataset::Adult => 3,
        Dataset::Telemetry => 1,
    }
}

fn command(name: &str, sem: Option<Semantics>) -> String {
    match sem {
        None => format!("MINE {name} {MAX_LHS}"),
        Some(s) => format!("MINE {name} {MAX_LHS} {}", s.token()),
    }
}

/// The reply the server must give for a verb, computed in-process.
fn reference(name: &str, table: &Table, sem: Option<Semantics>) -> Vec<String> {
    let report = match sem {
        None => mine_report(name, table, MAX_LHS, DEFAULT_CACHE_BUDGET),
        Some(s) => semantics_report(name, table, s, MAX_LHS, DEFAULT_CACHE_BUDGET),
    };
    report.lines().map(str::to_owned).collect()
}

/// Runs the workload.
pub fn run(run: &Run, speed: &Speed, which: Dataset) -> Result<Outcome, String> {
    let (name, table) = table_of(run, which);
    let script = load::load_script(name, &table);
    let mut out = Outcome::default();

    // Mining is serial: the server gets one CPU, the client (and the
    // in-process reference mining) another, and the speed of the
    // server's CPU is the one its work ran at.
    let at = speed.placement();
    speed::pin_this_thread(at.client)?;
    let server_cpu = [at.server];
    let ((server, mut client), setup) =
        repeated_setup(setups(run, which), speed, &server_cpu, |_| {
            let server = {
                let _s = trace::span("setup.spawn", 0);
                ServerChild::spawn(None, Some(at.server))?
            };
            let mut client = load::connect(server.addr())?;
            let _s = trace::span("setup.load", 0);
            load::load(&mut client, &script)?;
            Ok((server, client))
        })?;
    out.setup(&setup);

    let commands: Vec<String> = VERBS.iter().map(|(_, sem)| command(name, *sem)).collect();
    // The warm-up is untimed, so the in-process reference mining runs
    // next to it on the other core.
    let (warm, expected) = std::thread::scope(|scope| {
        let reference = scope.spawn(|| {
            let _s = trace::span("check.reference", 0);
            VERBS
                .iter()
                .map(|(_, sem)| reference(name, &table, *sem))
                .collect::<Vec<_>>()
        });
        let _s = trace::span("warmup", 0);
        let warm = commands
            .iter()
            .map(|c| match timed(|| client.request(c)) {
                (Ok(reply), secs) => Ok((reply, secs)),
                (Err(e), _) => Err(format!("{c}: {e}")),
            })
            .collect::<Result<Vec<(Reply, f64)>, _>>();
        (warm, reference.join().expect("reference mining panicked"))
    });
    let (warm, warm_secs): (Vec<Reply>, Vec<f64>) = warm?.into_iter().unzip();
    for (((label, _), reply), want) in VERBS.iter().zip(&warm).zip(&expected) {
        if !reply.ok {
            return Err(format!("MINE {label} refused: {}", reply.message));
        }
        if &reply.lines != want {
            out.problem(format!(
                "MINE {label} differs from in-process mining of the same table"
            ));
        }
        out.digest.add_reply(reply);
    }

    let before = if run.trace {
        Some(Scrape::take(&mut client)?)
    } else {
        None
    };
    // One pass: the report once, then each single-semantics verb
    // `repeats` times.
    let pass: Vec<usize> = std::iter::once(0)
        .chain((1..VERBS.len()).flat_map(|k| std::iter::repeat_n(k, repeats(which))))
        .collect();
    // Per verb: each request's start and wall time.
    let mut per_verb: Vec<Vec<(Instant, f64)>> = vec![Vec::new(); VERBS.len()];
    let mut passes: Vec<f64> = Vec::new();
    let mut request = 0u64;
    let deadline = run.deadline();
    // A pass starts only if at least half of it should fit before the
    // deadline, judging by the previous pass (or the warm-up), so the
    // phase lasts its length give or take half a pass.
    let mut estimate: f64 = pass.iter().map(|&k| warm_secs[k]).sum();
    while passes.is_empty() || Instant::now() + Duration::from_secs_f64(estimate / 2.0) <= deadline
    {
        let _pass = trace::span("pass", 0);
        let mut pass_s = 0.0;
        for &k in &pass {
            let c = &commands[k];
            request += 1;
            out.attempted += 1;
            let _s = trace::span("mine.request", request);
            let t = Instant::now();
            let reply = client.request(c);
            let secs = t.elapsed().as_secs_f64();
            pass_s += secs;
            per_verb[k].push((t, secs));
            match reply {
                Ok(r) if r == warm[k] => {}
                Ok(r) => {
                    out.failed += 1;
                    eprintln!("{c}: reply differs from the warm-up reply: {}", r.message);
                }
                Err(e) => {
                    out.failed += 1;
                    eprintln!("{c}: {e}");
                }
            }
        }
        passes.push(pass_s);
        estimate = pass_s;
    }
    let rss_mib = child::peak_rss_mib(server.pid())?;
    let scraped = match before {
        Some(b) => Some(Scrape::take(&mut client)?.since(&b)),
        None => None,
    };
    drop(client);
    drop(server);

    let pass_ms: Vec<f64> = passes.iter().map(|s| s * 1e3).collect();
    out.summary(
        "pass_ms",
        "ms",
        &Summary::of(&pass_ms).expect("at least one pass"),
    );
    // Each request's time at reference speed, and as measured.
    let mut scaled: Vec<Vec<f64>> = Vec::with_capacity(VERBS.len());
    for ((label, _), requests) in VERBS.iter().zip(&per_verb) {
        let at_ref: Vec<f64> = requests
            .iter()
            .map(|&(t, secs)| speed.scale(&server_cpu, t, secs))
            .collect();
        let raw: Vec<f64> = requests.iter().map(|r| r.1).collect();
        let s = Summary::of(&at_ref).expect("one sample per pass");
        out.summary(&format!("mine_{label}_s"), "s", &s);
        let s = Summary::of(&raw).expect("one sample per pass");
        out.summary(&format!("mine_{label}_s_raw"), "s", &s);
        scaled.push(at_ref);
    }
    out.detail("rows", JsonValue::Int(table.len() as i128));
    // Two gates on disjoint requests: the classification report's
    // median latency, and the single-semantics verbs' rate at their
    // median latencies. Per-verb medians shrug off the bursts in which
    // a request takes half again its usual time, which a rate per pass
    // or over the phase would follow.
    let single_s: f64 = scaled[1..].iter().map(|v| median(v)).sum();
    out.end_to_end = vec![
        metric("setup_s", setup.scaled.median, "s"),
        metric("ops_per_s", (VERBS.len() - 1) as f64 / single_s, "1/s"),
        metric("latency_p50_ms", median(&scaled[0]) * 1e3, "ms"),
        metric("server_rss_mb", rss_mib, "MiB"),
    ];

    if let Some(scraped) = scraped {
        let client_mine_ns = per_verb.iter().flatten().map(|r| r.1).sum::<f64>() * 1e9;
        out.layers = layers::collect(
            &ServerSide {
                scraped,
                client_mine_ns,
                post_ack_share: 0.0,
                rss_mib,
                rows_stored: table.len(),
            },
            &Replay {
                table: &table,
                sigma: &Sigma::new(),
                statements: &script[1..],
            },
        );
        if !run.quick {
            check_cache_pressure(&mut out, which);
        }
    }
    Ok(out)
}

/// The two tables sit on either side of the miner's partition budget:
/// adult's previous-level partitions fit it, telemetry's do not.
fn check_cache_pressure(out: &mut Outcome, which: Dataset) {
    let evictions = out
        .layers
        .iter()
        .find(|m| m.name == "discovery.cache.prev_level_evictions")
        .map_or(0.0, |m| m.value);
    match which {
        Dataset::Adult if evictions > 0.0 => out.problem(format!(
            "adult overflowed the partition budget ({evictions} prev-level evictions)"
        )),
        Dataset::Telemetry if evictions == 0.0 => {
            out.problem("telemetry fit the partition budget (no prev-level evictions)")
        }
        _ => {}
    }
}
