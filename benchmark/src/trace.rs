//! The benchmark's own spans, recorded around its calls into each layer
//! in `--trace 1` runs: name, start, end, parent span and request id,
//! kept in memory and written once when the run ends.

use sqlnf_obs::json::JsonValue;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

static ON: AtomicBool = AtomicBool::new(false);
static ORIGIN: OnceLock<Instant> = OnceLock::new();
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());

thread_local! {
    /// Indices of this thread's open spans, innermost last.
    static OPEN: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    request: u64,
}

/// Turns recording on for the rest of the process.
pub fn enable() {
    ORIGIN.get_or_init(Instant::now);
    ON.store(true, Ordering::SeqCst);
}

fn now_ns() -> u64 {
    let origin = ORIGIN.get_or_init(Instant::now);
    origin.elapsed().as_nanos().min(u64::MAX as u128) as u64
}

/// An open span; it ends when dropped. Inert while recording is off.
#[must_use = "a span ends when the guard drops"]
pub struct Guard(Option<usize>);

/// Opens a span named `name` for request `request` (0 when the span
/// serves no single request), nested under this thread's innermost
/// open span.
pub fn span(name: &'static str, request: u64) -> Guard {
    if !ON.load(Ordering::Relaxed) {
        return Guard(None);
    }
    let parent = OPEN.with(|o| o.borrow().last().copied());
    let idx = {
        let mut spans = SPANS.lock().expect("span log poisoned");
        spans.push(Span {
            name,
            start_ns: now_ns(),
            end_ns: 0,
            parent,
            request,
        });
        spans.len() - 1
    };
    OPEN.with(|o| o.borrow_mut().push(idx));
    Guard(Some(idx))
}

impl Drop for Guard {
    fn drop(&mut self) {
        if let Some(idx) = self.0 {
            let end = now_ns();
            OPEN.with(|o| o.borrow_mut().retain(|&i| i != idx));
            if let Ok(mut spans) = SPANS.lock() {
                spans[idx].end_ns = end;
            }
        }
    }
}

/// Every recorded span plus, per span name, its count, total time and
/// self time (duration minus the part its child spans cover).
pub fn to_json() -> JsonValue {
    let spans = SPANS.lock().expect("span log poisoned").clone();
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children[p].push(i);
        }
    }
    let mut by_name: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let dur = s.end_ns.saturating_sub(s.start_ns);
        let mut kids: Vec<(u64, u64)> = children[i]
            .iter()
            .map(|&c| {
                (
                    spans[c].start_ns.max(s.start_ns),
                    spans[c].end_ns.min(s.end_ns),
                )
            })
            .filter(|(a, b)| b > a)
            .collect();
        kids.sort_unstable();
        let (mut covered, mut reach) = (0u64, s.start_ns);
        for (a, b) in kids {
            let a = a.max(reach);
            if b > a {
                covered += b - a;
                reach = b;
            }
        }
        let e = by_name.entry(s.name).or_default();
        e.0 += 1;
        e.1 += dur;
        e.2 += dur - covered.min(dur);
    }
    let span_rows = spans
        .iter()
        .map(|s| {
            JsonValue::Object(vec![
                ("name".into(), JsonValue::Str(s.name.into())),
                ("start_ns".into(), JsonValue::Int(s.start_ns.into())),
                ("end_ns".into(), JsonValue::Int(s.end_ns.into())),
                (
                    "parent".into(),
                    s.parent
                        .map_or(JsonValue::Null, |p| JsonValue::Int(p as i128)),
                ),
                ("request".into(), JsonValue::Int(s.request.into())),
            ])
        })
        .collect();
    let self_rows = by_name
        .into_iter()
        .map(|(name, (count, total, own))| {
            JsonValue::Object(vec![
                ("name".into(), JsonValue::Str(name.into())),
                ("count".into(), JsonValue::Int(count.into())),
                ("total_ns".into(), JsonValue::Int(total.into())),
                ("self_ns".into(), JsonValue::Int(own.into())),
            ])
        })
        .collect();
    JsonValue::Object(vec![
        ("self_time".into(), JsonValue::Array(self_rows)),
        ("spans".into(), JsonValue::Array(span_rows)),
    ])
}
