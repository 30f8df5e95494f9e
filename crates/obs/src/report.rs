//! Snapshot types: what [`report`](crate::report) returns, plus JSON
//! and human-readable renderings. These types are compiled regardless
//! of the `obs` feature so downstream code has one API surface.

use crate::json::{parse, JsonError, JsonValue};
use std::fmt::Write as _;

/// One counter at snapshot time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterSnapshot {
    /// Dotted counter name, e.g. `core.closure.iterations`.
    pub name: String,
    /// Accumulated value since process start or the last reset.
    pub value: u64,
}

/// One histogram timer at snapshot time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimerSnapshot {
    /// Span name, e.g. `p_closure`.
    pub name: String,
    /// Number of recorded spans.
    pub count: u64,
    /// Total wall time across spans, in nanoseconds.
    pub total_ns: u64,
    /// Longest single span, in nanoseconds.
    pub max_ns: u64,
    /// Log2 histogram: `buckets[b]` counts spans with
    /// `2^(b-1) <= ns < 2^b` (bucket 0 is sub-nanosecond readings).
    pub buckets: Vec<u64>,
}

impl TimerSnapshot {
    /// Mean span duration in nanoseconds (0 when no spans recorded).
    pub fn mean_ns(&self) -> u64 {
        self.total_ns.checked_div(self.count).unwrap_or(0)
    }

    /// Estimates the `q`-quantile (`0 < q <= 1`) in nanoseconds from
    /// the log2 histogram: the upper edge of the bucket holding the
    /// rank-`⌈q·count⌉` sample, clamped to `max_ns`. The estimate
    /// brackets the true percentile within one bucket width — for a
    /// sample in bucket `b ≥ 1` the true value is in
    /// `[2^(b-1), min(2^b - 1, max_ns)]`, so `true <= estimate <=
    /// 2·true`. The final (overflow) bucket has no upper edge, so its
    /// estimate is `max_ns` exactly. Returns 0 when nothing was
    /// recorded.
    pub fn percentile_ns(&self, q: f64) -> u64 {
        if self.count == 0 || self.buckets.is_empty() {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (b, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return if b == 0 {
                    0 // sub-nanosecond bucket
                } else if b + 1 == crate::TIMER_BUCKETS {
                    self.max_ns // overflow bucket: no upper edge
                } else {
                    ((1u64 << b) - 1).min(self.max_ns)
                };
            }
        }
        self.max_ns
    }

    /// Median estimate ([`percentile_ns`](Self::percentile_ns) at 0.5).
    pub fn p50_ns(&self) -> u64 {
        self.percentile_ns(0.50)
    }

    /// 90th-percentile estimate.
    pub fn p90_ns(&self) -> u64 {
        self.percentile_ns(0.90)
    }

    /// 99th-percentile estimate.
    pub fn p99_ns(&self) -> u64 {
        self.percentile_ns(0.99)
    }
}

/// A point-in-time export of every registered counter and timer.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ObsReport {
    /// Counters, sorted by name.
    pub counters: Vec<CounterSnapshot>,
    /// Timers, sorted by name.
    pub timers: Vec<TimerSnapshot>,
}

/// Escapes a Prometheus label value (`\` and `"`; names here are
/// dotted identifiers, so this is belt-and-braces).
fn escape_label(s: &str) -> String {
    if s.contains(['\\', '"']) {
        s.replace('\\', "\\\\").replace('"', "\\\"")
    } else {
        s.to_string()
    }
}

fn fmt_ns(ns: u64) -> String {
    if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 1_000_000 {
        format!("{:.1}µs", ns as f64 / 1_000.0)
    } else if ns < 1_000_000_000 {
        format!("{:.1}ms", ns as f64 / 1_000_000.0)
    } else {
        format!("{:.2}s", ns as f64 / 1_000_000_000.0)
    }
}

impl ObsReport {
    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.timers.is_empty()
    }

    /// Looks up a counter value by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find_map(|c| (c.name == name).then_some(c.value))
    }

    /// Looks up a timer snapshot by name.
    pub fn timer(&self, name: &str) -> Option<&TimerSnapshot> {
        self.timers.iter().find(|t| t.name == name)
    }

    /// Folds `other` into this report: same-named counters add,
    /// same-named timers merge into one histogram, and both lists stay
    /// sorted by name. How a process shows several registries as one
    /// (the server's `METRICS` is the global report plus its store's).
    pub fn absorb(&mut self, other: ObsReport) {
        self.counters.extend(other.counters);
        self.counters.sort_by(|a, b| a.name.cmp(&b.name));
        self.counters.dedup_by(|next, kept| {
            let same = next.name == kept.name;
            if same {
                kept.value += next.value;
            }
            same
        });
        self.timers.extend(other.timers);
        self.timers.sort_by(|a, b| a.name.cmp(&b.name));
        self.timers.dedup_by(|next, kept| {
            let same = next.name == kept.name;
            if same {
                kept.count += next.count;
                kept.total_ns += next.total_ns;
                kept.max_ns = kept.max_ns.max(next.max_ns);
                for (a, b) in kept.buckets.iter_mut().zip(&next.buckets) {
                    *a += b;
                }
            }
            same
        });
    }

    /// Human-readable rendering for `--stats` output.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("== observability report ==\n");
        if self.is_empty() {
            out.push_str("(nothing recorded)\n");
            return out;
        }
        if !self.counters.is_empty() {
            out.push_str("counters:\n");
            let width = self
                .counters
                .iter()
                .map(|c| c.name.len())
                .max()
                .unwrap_or(0);
            for c in &self.counters {
                let _ = writeln!(out, "  {:<width$}  {}", c.name, c.value);
            }
        }
        if !self.timers.is_empty() {
            out.push_str("timers:\n");
            let width = self.timers.iter().map(|t| t.name.len()).max().unwrap_or(0);
            for t in &self.timers {
                let _ = writeln!(
                    out,
                    "  {:<width$}  count={} total={} mean={} max={}",
                    t.name,
                    t.count,
                    fmt_ns(t.total_ns),
                    fmt_ns(t.mean_ns()),
                    fmt_ns(t.max_ns),
                );
            }
        }
        out
    }

    /// Prometheus-style text exposition (the `METRICS` verb's payload
    /// grammar; see DESIGN.md §7). Counters become
    /// `sqlnf_counter{name="…"} v`; each timer becomes the
    /// `sqlnf_span_*` family: `count`, `total_ns`, `max_ns`, the
    /// p50/p90/p99 estimates, and cumulative `sqlnf_span_bucket` lines
    /// with `le` upper edges (only non-empty buckets, then `+Inf`).
    /// Output is deterministic: families in order, series sorted by
    /// name.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        out.push_str("# sqlnf observability exposition (durations in nanoseconds)\n");
        if !self.counters.is_empty() {
            out.push_str("# TYPE sqlnf_counter counter\n");
            for c in &self.counters {
                let _ = writeln!(
                    out,
                    "sqlnf_counter{{name=\"{}\"}} {}",
                    escape_label(&c.name),
                    c.value
                );
            }
        }
        if !self.timers.is_empty() {
            out.push_str("# TYPE sqlnf_span summary\n");
            for t in &self.timers {
                let name = escape_label(&t.name);
                let _ = writeln!(out, "sqlnf_span_count{{name=\"{name}\"}} {}", t.count);
                let _ = writeln!(out, "sqlnf_span_total_ns{{name=\"{name}\"}} {}", t.total_ns);
                let _ = writeln!(out, "sqlnf_span_max_ns{{name=\"{name}\"}} {}", t.max_ns);
                let _ = writeln!(out, "sqlnf_span_p50_ns{{name=\"{name}\"}} {}", t.p50_ns());
                let _ = writeln!(out, "sqlnf_span_p90_ns{{name=\"{name}\"}} {}", t.p90_ns());
                let _ = writeln!(out, "sqlnf_span_p99_ns{{name=\"{name}\"}} {}", t.p99_ns());
                let mut cumulative = 0u64;
                for (b, &c) in t.buckets.iter().enumerate() {
                    if c == 0 {
                        continue;
                    }
                    cumulative += c;
                    let le = if b == 0 {
                        "0".to_string()
                    } else if b + 1 == crate::TIMER_BUCKETS {
                        "+Inf".to_string()
                    } else {
                        ((1u64 << b) - 1).to_string()
                    };
                    let _ = writeln!(
                        out,
                        "sqlnf_span_bucket{{name=\"{name}\",le=\"{le}\"}} {cumulative}"
                    );
                }
                if t.buckets.last().is_none_or(|&c| c == 0)
                    || t.buckets.len() < crate::TIMER_BUCKETS
                {
                    let _ = writeln!(
                        out,
                        "sqlnf_span_bucket{{name=\"{name}\",le=\"+Inf\"}} {cumulative}"
                    );
                }
            }
        }
        out
    }

    /// Compact JSON export, parseable by [`ObsReport::from_json`].
    pub fn to_json(&self) -> String {
        self.to_json_value().to_json()
    }

    /// The report as a [`JsonValue`], for callers that compose it into a
    /// larger document (the CLI's `--stats-json` output does).
    pub fn to_json_value(&self) -> JsonValue {
        let counters = JsonValue::Object(
            self.counters
                .iter()
                .map(|c| (c.name.clone(), JsonValue::Int(c.value as i128)))
                .collect(),
        );
        let timers = JsonValue::Array(
            self.timers
                .iter()
                .map(|t| {
                    JsonValue::Object(vec![
                        ("name".to_string(), JsonValue::Str(t.name.clone())),
                        ("count".to_string(), JsonValue::Int(t.count as i128)),
                        ("total_ns".to_string(), JsonValue::Int(t.total_ns as i128)),
                        ("max_ns".to_string(), JsonValue::Int(t.max_ns as i128)),
                        // Derived estimates; from_json ignores them and
                        // recomputes from the buckets, so the round
                        // trip stays exact.
                        ("p50_ns".to_string(), JsonValue::Int(t.p50_ns() as i128)),
                        ("p90_ns".to_string(), JsonValue::Int(t.p90_ns() as i128)),
                        ("p99_ns".to_string(), JsonValue::Int(t.p99_ns() as i128)),
                        (
                            "buckets".to_string(),
                            JsonValue::Array(
                                t.buckets
                                    .iter()
                                    .map(|&b| JsonValue::Int(b as i128))
                                    .collect(),
                            ),
                        ),
                    ])
                })
                .collect(),
        );
        JsonValue::Object(vec![
            ("counters".to_string(), counters),
            ("timers".to_string(), timers),
        ])
    }

    /// Parses a report previously produced by [`ObsReport::to_json`].
    pub fn from_json(text: &str) -> Result<ObsReport, JsonError> {
        let invalid = |message: &str| JsonError {
            offset: 0,
            message: message.to_string(),
        };
        let doc = parse(text)?;
        let counters = doc
            .get("counters")
            .and_then(JsonValue::as_object)
            .ok_or_else(|| invalid("missing \"counters\" object"))?
            .iter()
            .map(|(name, v)| {
                Ok(CounterSnapshot {
                    name: name.clone(),
                    value: v.as_u64().ok_or_else(|| invalid("counter not a u64"))?,
                })
            })
            .collect::<Result<Vec<_>, JsonError>>()?;
        let timers = doc
            .get("timers")
            .and_then(JsonValue::as_array)
            .ok_or_else(|| invalid("missing \"timers\" array"))?
            .iter()
            .map(|t| {
                let field = |key: &str| {
                    t.get(key)
                        .and_then(JsonValue::as_u64)
                        .ok_or_else(|| invalid("timer field not a u64"))
                };
                Ok(TimerSnapshot {
                    name: t
                        .get("name")
                        .and_then(JsonValue::as_str)
                        .ok_or_else(|| invalid("timer missing \"name\""))?
                        .to_string(),
                    count: field("count")?,
                    total_ns: field("total_ns")?,
                    max_ns: field("max_ns")?,
                    buckets: t
                        .get("buckets")
                        .and_then(JsonValue::as_array)
                        .ok_or_else(|| invalid("timer missing \"buckets\""))?
                        .iter()
                        .map(|b| b.as_u64().ok_or_else(|| invalid("bucket not a u64")))
                        .collect::<Result<Vec<_>, JsonError>>()?,
                })
            })
            .collect::<Result<Vec<_>, JsonError>>()?;
        Ok(ObsReport { counters, timers })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ObsReport {
        ObsReport {
            counters: vec![
                CounterSnapshot {
                    name: "core.closure.iterations".to_string(),
                    value: 42,
                },
                CounterSnapshot {
                    name: "discovery.mine.levels".to_string(),
                    value: 3,
                },
            ],
            timers: vec![TimerSnapshot {
                name: "p_closure".to_string(),
                count: 7,
                total_ns: 14_000,
                max_ns: 9_000,
                buckets: vec![0, 0, 3, 4],
            }],
        }
    }

    #[test]
    fn json_round_trip_is_exact() {
        let report = sample();
        let json = report.to_json();
        assert_eq!(ObsReport::from_json(&json).unwrap(), report);
        // And stable under a second pass.
        assert_eq!(ObsReport::from_json(&json).unwrap().to_json(), json);
    }

    #[test]
    fn lookup_and_render() {
        let report = sample();
        assert_eq!(report.counter("discovery.mine.levels"), Some(3));
        assert_eq!(report.counter("nope"), None);
        assert_eq!(report.timer("p_closure").unwrap().mean_ns(), 2_000);
        let text = report.render();
        assert!(text.contains("core.closure.iterations"));
        assert!(text.contains("count=7"));
        assert!(ObsReport::default().render().contains("nothing recorded"));
    }

    #[test]
    fn percentile_estimates_follow_the_buckets() {
        // 10 samples: 4 in bucket 2 (2..=3 ns), 6 in bucket 4 (8..=15).
        let mut buckets = vec![0u64; crate::TIMER_BUCKETS];
        buckets[2] = 4;
        buckets[4] = 6;
        let t = TimerSnapshot {
            name: "t".into(),
            count: 10,
            total_ns: 70,
            max_ns: 14,
            buckets,
        };
        // rank 5 (p50) falls in bucket 4: upper edge 15, clamped to max 14.
        assert_eq!(t.p50_ns(), 14);
        // rank 4 (p40) is the last bucket-2 sample: upper edge 3.
        assert_eq!(t.percentile_ns(0.40), 3);
        assert_eq!(t.p99_ns(), 14);
        // Degenerate shapes.
        let empty = TimerSnapshot {
            name: "e".into(),
            count: 0,
            total_ns: 0,
            max_ns: 0,
            buckets: vec![0; crate::TIMER_BUCKETS],
        };
        assert_eq!(empty.p50_ns(), 0);
        let mut one = vec![0u64; crate::TIMER_BUCKETS];
        one[7] = 1;
        let single = TimerSnapshot {
            name: "s".into(),
            count: 1,
            total_ns: 100,
            max_ns: 100,
            buckets: one,
        };
        for q in [0.01, 0.5, 0.99, 1.0] {
            assert_eq!(single.percentile_ns(q), 100); // min(127, max=100)
        }
        // Overflow bucket has no upper edge: the estimate is max_ns.
        let mut top = vec![0u64; crate::TIMER_BUCKETS];
        top[crate::TIMER_BUCKETS - 1] = 3;
        let over = TimerSnapshot {
            name: "o".into(),
            count: 3,
            total_ns: 0,
            max_ns: 5_000_000_000,
            buckets: top,
        };
        assert_eq!(over.p50_ns(), 5_000_000_000);
    }

    #[test]
    fn prometheus_exposition_is_deterministic_and_complete() {
        let report = sample();
        let text = report.to_prometheus();
        assert!(text.contains("sqlnf_counter{name=\"core.closure.iterations\"} 42"));
        assert!(text.contains("sqlnf_span_count{name=\"p_closure\"} 7"));
        assert!(text.contains("sqlnf_span_p50_ns{name=\"p_closure\"}"));
        // Buckets are cumulative and end with +Inf.
        assert!(text.contains("sqlnf_span_bucket{name=\"p_closure\",le=\"3\"} 3"));
        assert!(text.contains("sqlnf_span_bucket{name=\"p_closure\",le=\"7\"} 7"));
        assert!(text.contains("sqlnf_span_bucket{name=\"p_closure\",le=\"+Inf\"} 7"));
        assert_eq!(text, report.to_prometheus(), "stable under re-render");
        // Label escaping.
        assert_eq!(escape_label("a\"b\\c"), "a\\\"b\\\\c");
    }

    #[test]
    fn from_json_rejects_wrong_shapes() {
        assert!(ObsReport::from_json("[]").is_err());
        assert!(ObsReport::from_json(r#"{"counters":{}}"#).is_err());
        assert!(ObsReport::from_json(r#"{"counters":{"x":-1},"timers":[]}"#).is_err());
    }
}
