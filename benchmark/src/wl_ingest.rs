//! `ingest`: two sessions streaming pipelined bursts of single-row
//! `INSERT`s into two constraint-guarded tables over a durable WAL,
//! closed loop, with no WATCH subscriber.
//!
//! This is the write path: parse, admission indexes, lock tiers, group
//! commit and fsync, and the WATCH hub applying every frame even though
//! nobody watches. Discovery does almost nothing here.

use crate::child::{self, ServerChild};
use crate::layers::{self, Replay, ServerSide};
use crate::load;
use crate::speed::Speed;
use crate::stats::Summary;
use crate::{metric, repeated_setup, scrape::Scrape, trace, Digest, Outcome, Run};
use sqlnf_model::prelude::*;
use sqlnf_obs::json::JsonValue;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Statements per pipelined burst.
const BURST: u64 = 32;

/// Concurrent sessions (one per client thread).
const SESSIONS: u64 = 2;

/// One statement in this many is a functional-dependency violation
/// that must be refused.
const VIOLATION_EVERY: u64 = 64;

/// Statements answered when the server's memory is read. A fixed point,
/// so the figure does not grow with throughput.
const RSS_POINT: u64 = 400_000;

/// Statements per session whose replies go into the digest; every run
/// answers at least this many on any realistic machine.
const DIGEST_STMTS: u64 = 4_096;

fn ddl(table: u64) -> String {
    format!(
        "CREATE TABLE ingest_{table} (id INT NOT NULL, grp INT NOT NULL, val INT NOT NULL, \
         CONSTRAINT pk CERTAIN KEY (id), CONSTRAINT fd CERTAIN FD (grp) -> (val));"
    )
}

/// The seeded statement stream. Statement `i` of session `s` goes to
/// table `(i / BURST + s) % 2`, so each session alternates tables per
/// burst; ids are unique across sessions, and rows sharing `grp` share
/// `val` unless the row is one of the planted violations.
#[derive(Debug, Clone, Copy)]
struct Stream {
    mul: i64,
    add: i64,
    violation_at: u64,
}

impl Stream {
    fn new(seed: u64) -> Stream {
        let mix = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(17);
        Stream {
            mul: 1 + 2 * (mix % 500) as i64,
            add: (mix >> 20) as i64 % 1009,
            // Never the first statement of a burst: the violation
            // reuses the group of the row just before it, in the same
            // burst and therefore the same table.
            violation_at: 1 + (mix >> 40) % (BURST - 1),
        }
    }

    fn val(&self, grp: i64) -> i64 {
        (grp * self.mul + self.add) % 1009
    }

    /// Table, row and whether the row must be admitted.
    fn row(&self, session: u64, i: u64) -> (u64, [i64; 3], bool) {
        let table = (i / BURST + session) % 2;
        let id = (2 * i + session) as i64;
        if i % VIOLATION_EVERY == self.violation_at {
            let grp = (id - 2) / 4;
            (table, [id, grp, self.val(grp) + 1], false)
        } else {
            let grp = id / 4;
            (table, [id, grp, self.val(grp)], true)
        }
    }

    fn statement(&self, session: u64, i: u64) -> (String, bool) {
        let (table, [id, grp, val], admit) = self.row(session, i);
        (
            format!("INSERT INTO ingest_{table} VALUES ({id}, {grp}, {val});"),
            admit,
        )
    }
}

#[derive(Debug, Default)]
struct SessionResult {
    /// Per burst: completion time since the phase started (s) and
    /// round-trip latency (ms).
    bursts: Vec<(f64, f64)>,
    admitted: u64,
    refused: u64,
    failed: u64,
    digest: Digest,
}

/// What the sessions of the measured phase share.
#[derive(Clone, Copy)]
struct Phase<'a> {
    addr: std::net::SocketAddr,
    pid: u32,
    stream: Stream,
    start: Instant,
    deadline: Instant,
    answered: &'a AtomicU64,
    rss_point: u64,
    rss_at_point: &'a Mutex<Option<f64>>,
}

fn session(p: Phase, s: u64) -> Result<SessionResult, String> {
    let mut client = load::connect(p.addr)?;
    let mut out = SessionResult::default();
    let mut i = 0u64;
    while Instant::now() < p.deadline {
        let (stmts, admit): (Vec<String>, Vec<bool>) =
            (i..i + BURST).map(|k| p.stream.statement(s, k)).unzip();
        let _span = trace::span("ingest.burst", (s << 40) | (i / BURST));
        let t = Instant::now();
        let replies = client.send_batch(&stmts);
        let done = Instant::now();
        out.bursts.push((
            done.duration_since(p.start).as_secs_f64(),
            done.duration_since(t).as_secs_f64() * 1e3,
        ));
        let replies = replies.map_err(|e| format!("session {s}: {e}"))?;
        for (k, (reply, want)) in replies.iter().zip(&admit).enumerate() {
            match (reply.ok, want) {
                (true, true) => out.admitted += 1,
                (false, false) => out.refused += 1,
                _ => {
                    out.failed += 1;
                    eprintln!("session {s} statement {}: {}", i + k as u64, reply.message);
                }
            }
            if i + (k as u64) < DIGEST_STMTS {
                // A refusal names row positions, which depend on how
                // the two sessions interleave; only its status counts.
                out.digest.add(if reply.ok {
                    reply.message.as_bytes()
                } else {
                    b"ERR"
                });
            }
        }
        let prev = p.answered.fetch_add(BURST, Ordering::Relaxed);
        if prev < p.rss_point && prev + BURST >= p.rss_point {
            *p.rss_at_point.lock().expect("rss slot poisoned") = child::peak_rss_mib(p.pid).ok();
        }
        i += BURST;
    }
    Ok(out)
}

/// Index, statements answered and tail burst latency of each whole
/// second of the phase that answered any. A median over seconds is
/// robust to one second in which the machine stalled, which a whole-run
/// total is not.
fn per_second(bursts: &[(f64, f64)], windows: usize) -> Vec<(usize, f64, f64)> {
    let mut lat: Vec<Vec<f64>> = vec![Vec::new(); windows];
    for &(at, ms) in bursts {
        if let Some(w) = lat.get_mut(at.floor() as usize) {
            w.push(ms);
        }
    }
    lat.iter()
        .enumerate()
        .filter_map(|(k, w)| {
            Some((
                k,
                (w.len() as u64 * BURST) as f64,
                Summary::of(w)?.tail_or_median(),
            ))
        })
        .collect()
}

fn stats_counter(lines: &[String], name: &str) -> Option<u64> {
    lines
        .iter()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.parse().ok())
}

/// Runs the workload.
pub fn run(run: &Run, speed: &Speed) -> Result<Outcome, String> {
    let stream = Stream::new(run.seed);
    let mut out = Outcome::default();
    // Every session holds one of the server's two workers for as long
    // as it is connected, so no other connection stays open while the
    // two load sessions run.
    let setups = if run.quick { 2 } else { 9 };
    let (server, setup) = repeated_setup(setups, speed, speed.cpus(), |k| {
        let server = {
            let _s = trace::span("setup.spawn", 0);
            ServerChild::spawn(Some(&run.wal_dir(k)), None)?
        };
        let mut client = load::connect(server.addr())?;
        let _s = trace::span("setup.load", 0);
        load::send_all(&mut client, &[ddl(0), ddl(1)], 2)?;
        client.quit().map_err(|e| format!("quit: {e}"))?;
        Ok(server)
    })?;
    out.setup(&setup);

    let before = if run.trace {
        let mut client = load::connect(server.addr())?;
        let before = Scrape::take(&mut client)?;
        client.quit().map_err(|e| format!("quit: {e}"))?;
        Some(before)
    } else {
        None
    };
    let answered = AtomicU64::new(0);
    let rss_at_point = Mutex::new(None);
    let start = Instant::now();
    let phase = Phase {
        addr: server.addr(),
        pid: server.pid(),
        stream,
        start,
        deadline: run.deadline(),
        answered: &answered,
        rss_point: run.scaled(RSS_POINT as usize, 1_000) as u64,
        rss_at_point: &rss_at_point,
    };
    let rss_point = phase.rss_point;
    let results: Vec<Result<SessionResult, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..SESSIONS)
            .map(|s| scope.spawn(move || session(phase, s)))
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("session thread panicked".into()))
            })
            .collect()
    });
    let results: Vec<SessionResult> = results.into_iter().collect::<Result<_, _>>()?;
    let rows_at_point = answered.load(Ordering::Relaxed).min(rss_point);
    let rss_mib = match rss_at_point.into_inner().expect("rss slot poisoned") {
        Some(v) => v,
        None => {
            out.problem(format!(
                "only {} statements answered; memory is read at {rss_point}",
                answered.load(Ordering::Relaxed)
            ));
            child::peak_rss_mib(server.pid())?
        }
    };
    let mut client = load::connect(server.addr())?;
    let scraped = match before {
        Some(b) => Some(Scrape::take(&mut client)?.since(&b)),
        None => None,
    };

    let admitted: u64 = results.iter().map(|r| r.admitted).sum();
    let refused: u64 = results.iter().map(|r| r.refused).sum();
    out.failed = results.iter().map(|r| r.failed).sum();
    out.attempted = admitted + refused + out.failed;
    for r in &results {
        out.digest.add(r.digest.hex().as_bytes());
    }
    let stats = client
        .expect_ok("STATS")
        .map_err(|e| format!("STATS: {e}"))?
        .lines;
    // The two CREATE TABLEs are admitted statements too.
    let want = [("stmt.admitted", admitted + 2), ("stmt.rejected", refused)];
    for (name, want) in want {
        let got = stats_counter(&stats, name);
        if got != Some(want) {
            out.problem(format!(
                "STATS {name} is {got:?}, the client counted {want}"
            ));
        }
    }
    drop(client);
    drop(server);

    let all: Vec<(f64, f64)> = results
        .iter()
        .flat_map(|r| r.bursts.iter().copied())
        .collect();
    // The speed of each whole second of the phase, over both CPUs: the
    // sessions and the server's workers, commit and hub threads share
    // them. A burst finishing after the last whole second takes that
    // second's speed.
    let windows = (run.seconds.as_secs_f64().floor() as usize).max(1);
    let speeds: Vec<f64> = (0..windows as u64)
        .map(|w| {
            let from = start + Duration::from_secs(w);
            speed.over(speed.cpus(), from, from + Duration::from_secs(1))
        })
        .collect();
    let speed_at = |at: f64| speeds[(at.floor() as usize).min(windows - 1)];
    let raw_ms: Vec<f64> = all.iter().map(|b| b.1).collect();
    let scaled_ms: Vec<f64> = all.iter().map(|&(at, ms)| ms * speed_at(at)).collect();
    let bursts = Summary::of(&scaled_ms).ok_or("no burst completed")?;
    out.summary("burst_ack_ms", "ms", &bursts);
    out.summary(
        "burst_ack_ms_raw",
        "ms",
        &Summary::of(&raw_ms).expect("bursts completed"),
    );
    let seconds = per_second(&all, windows);
    let rates: Vec<f64> = seconds.iter().map(|&(w, n, _)| n / speeds[w]).collect();
    let raw_rates: Vec<f64> = seconds.iter().map(|s| s.1).collect();
    let tails: Vec<f64> = seconds.iter().map(|s| s.2).collect();
    let rates = Summary::of(&rates).ok_or("no whole second measured")?;
    out.summary("stmts_per_s_by_second", "1/s", &rates);
    out.summary(
        "stmts_per_s_by_second_raw",
        "1/s",
        &Summary::of(&raw_rates).expect("one rate per measured second"),
    );
    // Tails as measured: a stall is not the host's speed regime.
    out.summary(
        "burst_tail_ms_by_second",
        "ms",
        &Summary::of(&tails).expect("one tail per measured second"),
    );
    out.detail("admitted", JsonValue::Int(admitted.into()));
    out.detail("refused", JsonValue::Int(refused.into()));
    out.detail("rss_point_stmts", JsonValue::Int(rss_point.into()));
    out.end_to_end = vec![
        metric("setup_s", setup.scaled.median, "s"),
        metric("ops_per_s", rates.median, "1/s"),
        metric("latency_p50_ms", bursts.median, "ms"),
        metric("server_rss_mb", rss_mib, "MiB"),
    ];

    if let Some(scraped) = scraped {
        // Replay inputs: the first statements of session 0, and the
        // rows of the first table as the server would hold them.
        let n = run.scaled(100_000, 2_000) as u64;
        let statements: Vec<String> = (0..n).map(|i| stream.statement(0, i).0).collect();
        let Some(Statement::CreateTable { schema, sigma }) = parse_script(&ddl(0))
            .ok()
            .and_then(|s| s.into_iter().next())
        else {
            return Err("ingest DDL does not parse".into());
        };
        let rows = (0..n).filter_map(|i| {
            let (table, vals, admit) = stream.row(0, i);
            (table == 0 && admit).then(|| Tuple::new(vals.map(Value::Int).to_vec()))
        });
        let table = Table::from_rows(schema, rows);
        out.layers = layers::collect(
            &ServerSide {
                scraped,
                client_mine_ns: 0.0,
                post_ack_share: 0.0,
                rss_mib,
                rows_stored: (rows_at_point * (VIOLATION_EVERY - 1) / VIOLATION_EVERY) as usize,
            },
            &Replay {
                table: &table,
                sigma: &sigma,
                statements: &statements,
            },
        );
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_plants_one_refusal_per_64_statements() {
        let s = Stream::new(20160626);
        let refused = (0..64 * 10).filter(|&i| !s.row(1, i).2).count();
        assert_eq!(refused, 10);
        for i in 0..640 {
            let (table, [_, grp, val], admit) = s.row(0, i);
            if !admit {
                // The row just before it, same table, same group,
                // different value: a certain-FD violation.
                let (t0, [_, g0, v0], a0) = s.row(0, i - 1);
                assert!(a0);
                assert_eq!((t0, g0), (table, grp));
                assert_ne!(v0, val);
            }
        }
    }
}
