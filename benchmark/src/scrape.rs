//! Deltas of the server's `METRICS` exposition across a measured phase.
//! The server child is fresh for every workload, so every counter and
//! span it reports belongs to that workload alone.

use sqlnf_serve::{parse_exposition, Client};
use std::collections::BTreeMap;

/// Counter values and span totals of one scrape.
#[derive(Debug, Clone, Default)]
pub struct Scrape {
    counters: BTreeMap<String, f64>,
    span_count: BTreeMap<String, f64>,
    span_total_ns: BTreeMap<String, f64>,
}

impl Scrape {
    /// Scrapes the server `client` is connected to.
    pub fn take(client: &mut Client) -> Result<Scrape, String> {
        let text = client.metrics().map_err(|e| format!("METRICS: {e}"))?;
        let mut out = Scrape::default();
        for s in parse_exposition(&text)? {
            let Some(name) = s.label("name") else {
                continue;
            };
            let map = match s.name.as_str() {
                "sqlnf_counter" => &mut out.counters,
                "sqlnf_span_count" => &mut out.span_count,
                "sqlnf_span_total_ns" => &mut out.span_total_ns,
                _ => continue,
            };
            map.insert(name.to_owned(), s.value);
        }
        Ok(out)
    }

    /// What happened between `before` and `self`.
    pub fn since(&self, before: &Scrape) -> Scrape {
        fn diff(
            now: &BTreeMap<String, f64>,
            then: &BTreeMap<String, f64>,
        ) -> BTreeMap<String, f64> {
            now.iter()
                .map(|(k, v)| (k.clone(), v - then.get(k).copied().unwrap_or(0.0)))
                .collect()
        }
        Scrape {
            counters: diff(&self.counters, &before.counters),
            span_count: diff(&self.span_count, &before.span_count),
            span_total_ns: diff(&self.span_total_ns, &before.span_total_ns),
        }
    }

    /// A counter's value (0 when the counter never fired).
    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0.0)
    }

    /// How many spans of `name` were recorded.
    pub fn span_count(&self, name: &str) -> f64 {
        self.span_count.get(name).copied().unwrap_or(0.0)
    }

    /// Total nanoseconds spent in spans of `name`.
    pub fn span_total_ns(&self, name: &str) -> f64 {
        self.span_total_ns.get(name).copied().unwrap_or(0.0)
    }
}

/// `num / den`, or 0 when nothing was measured.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}
