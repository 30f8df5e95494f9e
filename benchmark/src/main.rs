//! The sqlnf benchmark: four workloads measured against a server child
//! process, as a client over the wire protocol sees them.
//!
//! ```text
//! sqlnf-benchmark --workload <ingest|mine_adult|mine_telemetry|watch>
//!                 --seed <n> --seconds <s> --trace <0|1> [--quick]
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. A result file
//! (`target/bench-reports/BENCH_<workload>.json`, or `TRACE_<workload>`
//! with `--trace 1`) adds the machine fingerprint, the reply digest,
//! sample counts and spreads. `--quick` shrinks every input about a
//! hundredfold for smoke tests; its numbers are not comparable with full
//! runs. See BENCHMARK.md.

mod child;
mod data;
mod fingerprint;
mod layers;
mod load;
mod scrape;
mod speed;
mod stats;
mod trace;
mod wl_ingest;
mod wl_mine;
mod wl_watch;

use speed::Speed;
use sqlnf_obs::json::JsonValue;
use stats::Summary;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = ["ingest", "mine_adult", "mine_telemetry", "watch"];

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Run {
    /// Name of the workload.
    pub workload: String,
    /// Seed of every generated input.
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: Duration,
    /// Whether this is the per-layer (`--trace 1`) run.
    pub trace: bool,
    /// Smoke-test scale.
    pub quick: bool,
    /// Directory for WAL files, inside the working directory.
    pub work_dir: PathBuf,
}

impl Run {
    /// `full` at full scale, about a hundredth of it (at least `min`)
    /// with `--quick`.
    pub fn scaled(&self, full: usize, min: usize) -> usize {
        if self.quick {
            (full / 100).max(min)
        } else {
            full
        }
    }

    /// A fresh WAL directory for the `k`-th server of this run.
    pub fn wal_dir(&self, k: usize) -> PathBuf {
        self.work_dir
            .join(format!("wal-{}-{}-{k}", self.workload, std::process::id()))
    }

    /// When a measured phase starting now must stop.
    pub fn deadline(&self) -> Instant {
        Instant::now() + self.seconds
    }
}

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// A metric's value.
pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// What a workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted in the measured phase.
    pub attempted: u64,
    /// Operations that failed: an unexpected admit or refusal, a client
    /// error, a reply differing from the reference, a missing event.
    pub failed: u64,
    /// Failed output checks, one line each.
    pub problems: Vec<String>,
    /// End-to-end metrics.
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (`--trace 1` only).
    pub layers: Vec<Metric>,
    /// Digest of the replies, comparable across commits.
    pub digest: Digest,
    /// Extra fields for the result file.
    pub details: Vec<(String, JsonValue)>,
}

impl Outcome {
    /// Records a failed check.
    pub fn problem(&mut self, msg: impl Into<String>) {
        let msg = msg.into();
        eprintln!("check failed: {msg}");
        self.problems.push(msg);
    }

    /// Records a timing summary in the result file.
    pub fn summary(&mut self, name: &str, unit: &str, s: &Summary) {
        let mut fields = vec![
            ("unit".to_owned(), JsonValue::Str(unit.to_owned())),
            ("n".to_owned(), JsonValue::Int(s.n as i128)),
            ("min".to_owned(), JsonValue::Float(s.min)),
            ("p25".to_owned(), JsonValue::Float(s.p25)),
            ("median".to_owned(), JsonValue::Float(s.median)),
            ("p75".to_owned(), JsonValue::Float(s.p75)),
            ("p99".to_owned(), JsonValue::Float(s.p99)),
            ("max".to_owned(), JsonValue::Float(s.max)),
        ];
        if let Some((q, v)) = s.tail {
            fields.push(("tail_quantile".to_owned(), JsonValue::Float(q)));
            fields.push(("tail".to_owned(), JsonValue::Float(v)));
        }
        self.details
            .push((name.to_owned(), JsonValue::Object(fields)));
    }

    /// Records a plain value in the result file.
    pub fn detail(&mut self, name: &str, value: JsonValue) {
        self.details.push((name.to_owned(), value));
    }

    /// Records set-up times in the result file.
    pub fn setup(&mut self, times: &SetupTimes) {
        self.summary("setup_s", "s", &times.scaled);
        self.summary("setup_s_raw", "s", &times.raw);
    }
}

/// FNV-1a over the replies a workload received, in order.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds `bytes` and a separator into the digest.
    pub fn add(&mut self, bytes: &[u8]) {
        for &b in bytes.iter().chain(b"\n") {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Folds a reply (status, message and payload) into the digest.
    pub fn add_reply(&mut self, reply: &sqlnf_serve::Reply) {
        self.add(reply.to_string().as_bytes());
    }

    /// Hex rendering.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Times `f` in seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Set-up times of one run.
#[derive(Debug, Clone)]
pub struct SetupTimes {
    /// As measured, s.
    pub raw: Summary,
    /// At reference speed, s.
    pub scaled: Summary,
}

/// Times `times` set-ups, whose work runs on `cpus`; every server but
/// the last is stopped, the last is returned for the measured phase.
pub fn repeated_setup<S>(
    times: usize,
    speed: &Speed,
    cpus: &[usize],
    mut setup: impl FnMut(usize) -> Result<S, String>,
) -> Result<(S, SetupTimes), String> {
    let mut windows = Vec::with_capacity(times);
    let mut last = None;
    for k in 0..times {
        let _span = trace::span("setup", 0);
        let start = Instant::now();
        let (s, t) = timed(|| setup(k));
        windows.push((start, t));
        last = Some(s?);
    }
    let raw: Vec<f64> = windows.iter().map(|w| w.1).collect();
    let scaled: Vec<f64> = windows
        .iter()
        .map(|&(start, t)| speed.scale(cpus, start, t))
        .collect();
    let times = SetupTimes {
        raw: Summary::of(&raw).expect("at least one set-up"),
        scaled: Summary::of(&scaled).expect("at least one set-up"),
    };
    Ok((last.expect("at least one set-up"), times))
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut quick = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match a.as_str() {
            "--workload" => workload = Some(value("--workload")?),
            "--seed" => {
                let v = value("--seed")?;
                seed = Some(v.parse::<u64>().map_err(|_| format!("bad --seed {v:?}"))?);
            }
            "--seconds" => {
                let v = value("--seconds")?;
                seconds = Some(
                    v.parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s > 0.0 && *s <= 600.0)
                        .ok_or_else(|| format!("bad --seconds {v:?}"))?,
                );
            }
            "--trace" => {
                trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("bad --trace {v:?} (0 or 1)")),
                }
            }
            "--quick" => quick = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (one of {WORKLOADS:?})"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        quick,
    })
}

fn metrics_json(ms: &[Metric]) -> JsonValue {
    JsonValue::Object(
        ms.iter()
            .map(|m| {
                (
                    m.name.to_owned(),
                    JsonValue::Object(vec![
                        ("value".into(), JsonValue::Float(m.value)),
                        ("unit".into(), JsonValue::Str(m.unit.into())),
                    ]),
                )
            })
            .collect(),
    )
}

fn write_report(run: &Run, out: &Outcome, correct: bool) -> Result<PathBuf, String> {
    let dir = Path::new("target").join("bench-reports");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let kind = if run.trace { "TRACE" } else { "BENCH" };
    let path = dir.join(format!("{kind}_{}.json", run.workload));
    let mut doc = vec![
        ("workload".to_owned(), JsonValue::Str(run.workload.clone())),
        ("quick".to_owned(), JsonValue::Bool(run.quick)),
        (
            "seconds".to_owned(),
            JsonValue::Float(run.seconds.as_secs_f64()),
        ),
    ];
    doc.extend(fingerprint::fields(run.seed, &run.work_dir));
    doc.extend([
        ("correct".to_owned(), JsonValue::Bool(correct)),
        ("attempted".to_owned(), JsonValue::Int(out.attempted.into())),
        ("failed".to_owned(), JsonValue::Int(out.failed.into())),
        (
            "problems".to_owned(),
            JsonValue::Array(
                out.problems
                    .iter()
                    .map(|p| JsonValue::Str(p.clone()))
                    .collect(),
            ),
        ),
        ("digest".to_owned(), JsonValue::Str(out.digest.hex())),
        ("end_to_end".to_owned(), metrics_json(&out.end_to_end)),
        ("per_layer".to_owned(), metrics_json(&out.layers)),
        ("details".to_owned(), JsonValue::Object(out.details.clone())),
    ]);
    if run.trace {
        doc.push(("trace".to_owned(), trace::to_json()));
    }
    std::fs::write(&path, JsonValue::Object(doc).to_json())
        .map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}

fn run_workload(run: &Run, speed: &Speed) -> Result<Outcome, String> {
    let mut out = match run.workload.as_str() {
        "ingest" => wl_ingest::run(run, speed),
        "mine_adult" => wl_mine::run(run, speed, wl_mine::Dataset::Adult),
        "mine_telemetry" => wl_mine::run(run, speed, wl_mine::Dataset::Telemetry),
        "watch" => wl_watch::run(run, speed),
        other => Err(format!("unknown workload {other:?}")),
    }?;
    out.detail("host_speed", speed.report());
    Ok(out)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some(child::SERVE_ROLE) {
        child::serve_main(&args[1..]);
    }
    // In-process reference mining and replays run serially, like the
    // server child.
    std::env::remove_var("SQLNF_MINE_THREADS");
    let args = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("sqlnf-benchmark: {e}");
            eprintln!(
                "usage: sqlnf-benchmark --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--quick]",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let run = Run {
        workload: args.workload,
        seed: args.seed,
        seconds: Duration::from_secs_f64(args.seconds),
        trace: args.trace,
        quick: args.quick,
        work_dir: Path::new("target").join("sqlnf-benchmark"),
    };
    if run.trace {
        trace::enable();
    }
    if let Err(e) = std::fs::create_dir_all(&run.work_dir) {
        eprintln!("sqlnf-benchmark: {}: {e}", run.work_dir.display());
        std::process::exit(1);
    }
    let out = match Speed::start().and_then(|speed| run_workload(&run, &speed)) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("sqlnf-benchmark: {} failed: {e}", run.workload);
            std::process::exit(1);
        }
    };
    let correct = out.failed == 0 && out.problems.is_empty();
    match write_report(&run, &out, correct) {
        Ok(path) => eprintln!("digest {} · report {}", out.digest.hex(), path.display()),
        Err(e) => {
            eprintln!("sqlnf-benchmark: cannot write the report: {e}");
            std::process::exit(1);
        }
    }
    let metrics = if run.trace {
        &out.layers
    } else {
        &out.end_to_end
    };
    let line = JsonValue::Object(vec![
        ("correct".into(), JsonValue::Bool(correct)),
        ("attempted".into(), JsonValue::Int(out.attempted.into())),
        ("failed".into(), JsonValue::Int(out.failed.into())),
        ("metrics".into(), metrics_json(metrics)),
    ]);
    println!("{}", line.to_json());
    if !correct {
        std::process::exit(1);
    }
}
