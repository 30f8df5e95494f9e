//! # sqlnf-bench
//!
//! Shared helpers for the benchmark and experiment harness. Each bench
//! target under `benches/` regenerates one table or figure of the
//! paper's evaluation (see DESIGN.md §3 for the experiment index and
//! EXPERIMENTS.md for recorded results); this crate provides the
//! text-table rendering and timing utilities they share.

#![warn(missing_docs)]

use sqlnf_obs::json::JsonValue;
use sqlnf_obs::ObsReport;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Renders an aligned text table with a header row.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        let mut line = String::new();
        for (i, c) in cells.iter().enumerate() {
            line.push_str(&format!("{:>width$}  ", c, width = widths[i]));
        }
        line.trim_end().to_string()
    };
    let headers_owned: Vec<String> = headers.iter().map(|h| h.to_string()).collect();
    out.push_str(&fmt_row(&headers_owned, &widths));
    out.push('\n');
    out.push_str(
        &widths
            .iter()
            .map(|w| "-".repeat(*w))
            .collect::<Vec<_>>()
            .join("  "),
    );
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

/// Runs `f` once and returns its wall-clock duration with the result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// Runs `f` `n` times and returns the median duration (coarse but
/// stable enough for the experiment tables; Criterion handles the
/// micro-benches).
pub fn median_time(n: usize, mut f: impl FnMut()) -> Duration {
    assert!(n >= 1);
    let mut times: Vec<Duration> = (0..n)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed()
        })
        .collect();
    times.sort();
    times[times.len() / 2]
}

/// Formats a duration in engineering style (µs / ms / s).
pub fn fmt_duration(d: Duration) -> String {
    let us = d.as_micros();
    if us < 1_000 {
        format!("{us}µs")
    } else if us < 1_000_000 {
        format!("{:.1}ms", us as f64 / 1_000.0)
    } else {
        format!("{:.2}s", us as f64 / 1_000_000.0)
    }
}

/// One measurement annotated with the observability counters that
/// accumulated while it ran. With the `obs` feature of `sqlnf-obs`
/// compiled out (the default for standalone bench runs), the report is
/// empty and only the timing is recorded.
#[derive(Debug, Clone)]
pub struct BenchRecord {
    /// Measurement identifier, e.g. `validate_cfd_nonnormalized`.
    pub id: String,
    /// Median wall-clock time over the measured runs.
    pub median: Duration,
    /// Counter/timer snapshot of the *last* measured run sequence
    /// (the global registry, reset before measuring, captured after).
    /// A caller whose runs start servers absorbs their stores' reports
    /// here: `serve.*` counters live in each store's own registry.
    pub obs: ObsReport,
    /// Extra bench-specific fields serialized into the JSON entry
    /// (e.g. a throughput figure).
    pub extra: Vec<(String, JsonValue)>,
}

impl BenchRecord {
    /// The median in nanoseconds, saturating.
    pub fn median_ns(&self) -> u64 {
        self.median.as_nanos().min(u64::MAX as u128) as u64
    }
}

/// Measures `f` (median over `n` runs) and snapshots the observability
/// counters the runs produced, for [`write_bench_json`].
pub fn measure(id: &str, n: usize, f: impl FnMut()) -> BenchRecord {
    sqlnf_obs::reset();
    let median = median_time(n, f);
    BenchRecord {
        id: id.to_owned(),
        median,
        obs: sqlnf_obs::report(),
        extra: Vec::new(),
    }
}

/// Where [`write_bench_json`] puts its files: `$SQLNF_BENCH_DIR`, or
/// `target/bench-reports` relative to the working directory.
pub fn bench_report_dir() -> PathBuf {
    std::env::var_os("SQLNF_BENCH_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| Path::new("target").join("bench-reports"))
}

/// Writes records as `BENCH_<name>.json` inside `dir` and returns the
/// file path. Each entry carries its timing plus the counters/timers
/// snapshot taken by [`measure`].
pub fn write_bench_json_in(
    dir: &Path,
    name: &str,
    records: &[BenchRecord],
) -> std::io::Result<PathBuf> {
    let entries = JsonValue::Array(
        records
            .iter()
            .map(|r| {
                let mut fields = vec![
                    ("id".to_string(), JsonValue::Str(r.id.clone())),
                    (
                        "median_ns".to_string(),
                        JsonValue::Int(r.median_ns() as i128),
                    ),
                ];
                fields.extend(r.extra.iter().cloned());
                if let JsonValue::Object(obs_fields) = r.obs.to_json_value() {
                    fields.extend(obs_fields);
                }
                JsonValue::Object(fields)
            })
            .collect(),
    );
    let doc = JsonValue::Object(vec![
        ("bench".to_string(), JsonValue::Str(name.to_owned())),
        (
            "obs_enabled".to_string(),
            JsonValue::Bool(sqlnf_obs::ENABLED),
        ),
        ("entries".to_string(), entries),
    ]);
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("BENCH_{name}.json"));
    std::fs::write(&path, doc.to_json())?;
    Ok(path)
}

/// [`write_bench_json_in`] into the default [`bench_report_dir`].
pub fn write_bench_json(name: &str, records: &[BenchRecord]) -> std::io::Result<PathBuf> {
    write_bench_json_in(&bench_report_dir(), name, records)
}

/// Prints a banner separating experiment sections.
pub fn banner(title: &str) {
    println!();
    println!("=== {title} ===");
}

/// A simple text histogram over [0, 1] with `buckets` buckets, used to
/// render Figure 6's distribution in the terminal.
pub fn histogram01(values: &[f64], buckets: usize) -> String {
    let mut counts = vec![0usize; buckets];
    for &v in values {
        let b = ((v * buckets as f64) as usize).min(buckets - 1);
        counts[b] += 1;
    }
    let max = counts.iter().copied().max().unwrap_or(1).max(1);
    let mut out = String::new();
    for (i, &c) in counts.iter().enumerate() {
        let lo = i as f64 / buckets as f64;
        let hi = (i + 1) as f64 / buckets as f64;
        let bar = "#".repeat(c * 40 / max);
        out.push_str(&format!(
            "{:>3.0}%–{:>3.0}%  {:>4}  {bar}\n",
            lo * 100.0,
            hi * 100.0,
            c
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_rendering_aligns() {
        let s = render_table(
            &["data set", "FDs", "time"],
            &[
                vec!["adult".into(), "78".into(), "5.9".into()],
                vec!["breast-cancer".into(), "46".into(), "0.5".into()],
            ],
        );
        assert!(s.contains("data set"));
        assert!(s.contains("breast-cancer"));
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
    }

    #[test]
    fn timing_helpers() {
        let (v, d) = timed(|| 21 * 2);
        assert_eq!(v, 42);
        assert!(d.as_nanos() > 0);
        let m = median_time(3, || {
            std::hint::black_box((0..1000).sum::<u64>());
        });
        assert!(m.as_nanos() > 0);
    }

    #[test]
    fn duration_formatting() {
        assert_eq!(fmt_duration(Duration::from_micros(500)), "500µs");
        assert_eq!(fmt_duration(Duration::from_millis(12)), "12.0ms");
        assert_eq!(fmt_duration(Duration::from_secs(3)), "3.00s");
    }

    #[test]
    fn measure_and_write_bench_json() {
        let rec = measure("toy", 3, || {
            sqlnf_obs::count!("bench.test.toy_work");
            std::hint::black_box((0..100).sum::<u64>());
        });
        assert_eq!(rec.id, "toy");
        assert!(rec.median_ns() > 0);

        let dir = std::env::temp_dir().join("sqlnf_bench_json_test");
        let path = write_bench_json_in(&dir, "unit", &[rec]).unwrap();
        assert!(path.ends_with("BENCH_unit.json"));
        let text = std::fs::read_to_string(&path).unwrap();
        let doc = sqlnf_obs::json::parse(&text).expect("valid JSON");
        assert_eq!(doc.get("bench").and_then(|v| v.as_str()), Some("unit"));
        let entries = doc.get("entries").and_then(|v| v.as_array()).unwrap();
        assert_eq!(entries.len(), 1);
        assert!(
            entries[0]
                .get("median_ns")
                .and_then(|v| v.as_u64())
                .unwrap()
                > 0
        );
        // When instrumentation is compiled in, the entry is annotated
        // with the counters the run produced.
        if sqlnf_obs::ENABLED {
            assert!(
                entries[0]
                    .get("counters")
                    .and_then(|c| c.get("bench.test.toy_work"))
                    .and_then(|v| v.as_u64())
                    .unwrap_or(0)
                    >= 3
            );
        }
    }

    #[test]
    fn histogram_shapes() {
        let h = histogram01(&[0.1, 0.1, 0.9], 10);
        let lines: Vec<&str> = h.lines().collect();
        assert_eq!(lines.len(), 10);
        assert!(lines[1].contains('2'));
        assert!(lines[9].contains('1'));
    }
}
