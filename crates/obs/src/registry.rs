//! The collection machinery, compiled regardless of the `obs` feature:
//! counter and histogram-timer cells, the [`Registry`] that snapshots
//! them, scoped spans, and the runtime trace switch. The global
//! registry collects the `static` cells the macros plant; an owned one
//! (the server gives each store one) hands out cells through
//! [`Registry::counter`]/[`Registry::timer`], and recording through
//! those handles is one relaxed atomic RMW.

use crate::{CounterSnapshot, ObsReport, TimerSnapshot, TIMER_BUCKETS};
use std::cell::Cell;
use std::fmt;
use std::ops::Deref;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// How same-named counters from different call sites combine in a
/// report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Merge {
    /// Values add up (event counts).
    Sum,
    /// The largest value wins (high-water marks).
    Max,
}

/// A named monotonically updated cell: a `static` planted by
/// [`count!`](crate::count!)/[`count_max!`](crate::count_max!), or a
/// handle from [`Registry::counter`].
#[derive(Debug)]
pub struct Counter {
    name: &'static str,
    value: AtomicU64,
    merge: Merge,
    registered: AtomicBool,
}

impl Counter {
    /// A fresh summing counter; `const` so it can back a `static`.
    pub const fn new(name: &'static str) -> Counter {
        Counter {
            name,
            value: AtomicU64::new(0),
            merge: Merge::Sum,
            registered: AtomicBool::new(false),
        }
    }

    /// A fresh high-water-mark counter.
    pub const fn new_max(name: &'static str) -> Counter {
        Counter {
            merge: Merge::Max,
            ..Counter::new(name)
        }
    }

    /// Registers a call-site `static` with the global registry on its
    /// first use, and returns it (macro support).
    #[inline]
    pub fn global(&'static self) -> &'static Counter {
        if !self.registered.load(Relaxed) && !self.registered.swap(true, Relaxed) {
            GLOBAL
                .counters
                .lock()
                .expect("obs registry")
                .push(Slot::Site(self));
        }
        self
    }

    /// Adds `n`; returns the value before the addition.
    #[inline]
    pub fn add(&self, n: u64) -> u64 {
        self.value.fetch_add(n, Relaxed)
    }

    /// Raises the value to at least `n` (high-water marks such as
    /// recursion depth).
    #[inline]
    pub fn raise_to(&self, n: u64) {
        self.value.fetch_max(n, Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.value.load(Relaxed)
    }
}

/// A named log2-histogram timer: a `static` planted by
/// [`span!`](crate::span!)/[`record!`](crate::record!), or a handle
/// from [`Registry::timer`].
#[derive(Debug)]
pub struct Timer {
    name: &'static str,
    count: AtomicU64,
    total_ns: AtomicU64,
    max_ns: AtomicU64,
    buckets: [AtomicU64; TIMER_BUCKETS],
    registered: AtomicBool,
    /// Interned flight-recorder name id, resolved on first use.
    flight_id: OnceLock<u32>,
}

impl Timer {
    /// A fresh timer; `const` so it can back a `static`.
    pub const fn new(name: &'static str) -> Timer {
        Timer {
            name,
            count: AtomicU64::new(0),
            total_ns: AtomicU64::new(0),
            max_ns: AtomicU64::new(0),
            buckets: [const { AtomicU64::new(0) }; TIMER_BUCKETS],
            registered: AtomicBool::new(false),
            flight_id: OnceLock::new(),
        }
    }

    /// Registers a call-site `static` with the global registry on its
    /// first use, and returns it (macro support).
    #[inline]
    pub fn global(&'static self) -> &'static Timer {
        if !self.registered.load(Relaxed) && !self.registered.swap(true, Relaxed) {
            GLOBAL
                .timers
                .lock()
                .expect("obs registry")
                .push(Slot::Site(self));
        }
        self
    }

    /// The timer's interned flight-recorder name id (the interning
    /// lock is taken once per timer).
    #[inline]
    fn flight_id(&self) -> u32 {
        *self
            .flight_id
            .get_or_init(|| crate::flight::flight_intern(self.name))
    }

    /// Records one observation: a span of `ns` nanoseconds, or a
    /// dimensionless value fed through [`record!`](crate::record!).
    #[inline]
    pub fn record_ns(&self, ns: u64) {
        self.count.fetch_add(1, Relaxed);
        self.total_ns.fetch_add(ns, Relaxed);
        self.max_ns.fetch_max(ns, Relaxed);
        let bucket = (64 - ns.leading_zeros() as usize).min(TIMER_BUCKETS - 1);
        self.buckets[bucket].fetch_add(1, Relaxed);
    }

    /// Enters a span on this timer; see [`SpanGuard`].
    pub fn enter(&self) -> SpanGuard<'_> {
        if trace_enabled() {
            trace_emit(format_args!("-> {}", self.name));
        }
        if crate::flight::flight_enabled() {
            crate::flight::flight_record_id(self.flight_id(), crate::FlightKind::Enter, 0);
        }
        SPAN_DEPTH.with(|d| d.set(d.get() + 1));
        SpanGuard {
            timer: self,
            start: Instant::now(),
        }
    }

    fn snapshot(&self) -> TimerSnapshot {
        TimerSnapshot {
            name: self.name.to_string(),
            count: self.count.load(Relaxed),
            total_ns: self.total_ns.load(Relaxed),
            max_ns: self.max_ns.load(Relaxed),
            buckets: self.buckets.iter().map(|b| b.load(Relaxed)).collect(),
        }
    }

    fn clear(&self) {
        self.count.store(0, Relaxed);
        self.total_ns.store(0, Relaxed);
        self.max_ns.store(0, Relaxed);
        for b in &self.buckets {
            b.store(0, Relaxed);
        }
    }
}

/// A registered cell: a call site's `static`, or one a registry owns
/// and shares with the handle it returned.
#[derive(Debug)]
enum Slot<T: 'static> {
    Site(&'static T),
    Owned(Arc<T>),
}

impl<T> Deref for Slot<T> {
    type Target = T;
    fn deref(&self) -> &T {
        match self {
            Slot::Site(cell) => cell,
            Slot::Owned(cell) => cell,
        }
    }
}

/// A set of counters and timers that snapshot into one [`ObsReport`].
#[derive(Debug, Default)]
pub struct Registry {
    counters: Mutex<Vec<Slot<Counter>>>,
    timers: Mutex<Vec<Slot<Timer>>>,
}

/// The process-wide registry behind the macros, [`report`] and
/// [`reset`].
static GLOBAL: Registry = Registry::new();

impl Registry {
    /// An empty registry.
    pub const fn new() -> Registry {
        Registry {
            counters: Mutex::new(Vec::new()),
            timers: Mutex::new(Vec::new()),
        }
    }

    /// A new summing counter owned by this registry; keep the handle
    /// and record through it.
    pub fn counter(&self, name: &'static str) -> Arc<Counter> {
        let cell = Arc::new(Counter::new(name));
        let slot = Slot::Owned(Arc::clone(&cell));
        self.counters.lock().expect("obs registry").push(slot);
        cell
    }

    /// A new timer owned by this registry; keep the handle and record
    /// through it.
    pub fn timer(&self, name: &'static str) -> Arc<Timer> {
        let cell = Arc::new(Timer::new(name));
        let slot = Slot::Owned(Arc::clone(&cell));
        self.timers.lock().expect("obs registry").push(slot);
        cell
    }

    /// Snapshots every cell, sorted by name. Same-named counters (the
    /// same event counted at two call sites) merge per their rule:
    /// event counts add, high-water marks take the maximum; same-named
    /// timers merge into one histogram.
    pub fn report(&self) -> ObsReport {
        let mut cells: Vec<(&'static str, u64, Merge)> = self
            .counters
            .lock()
            .expect("obs registry")
            .iter()
            .map(|c| (c.name, c.get(), c.merge))
            .collect();
        cells.sort_by_key(|&(name, _, _)| name);
        let mut counters: Vec<CounterSnapshot> = Vec::new();
        for (name, v, merge) in cells {
            match counters.last_mut() {
                Some(s) if s.name == name && merge == Merge::Max => s.value = s.value.max(v),
                Some(s) if s.name == name => s.value += v,
                _ => counters.push(CounterSnapshot {
                    name: name.to_string(),
                    value: v,
                }),
            }
        }
        let timers = self.timers.lock().expect("obs registry");
        let mut report = ObsReport::default();
        report.absorb(ObsReport {
            counters,
            timers: timers.iter().map(|t| t.snapshot()).collect(),
        });
        report
    }

    /// Zeroes every cell (cells stay registered). Meant for tests and
    /// for repeated measurement runs within one process.
    pub fn reset(&self) {
        for c in self.counters.lock().expect("obs registry").iter() {
            c.value.store(0, Relaxed);
        }
        for t in self.timers.lock().expect("obs registry").iter() {
            t.clear();
        }
    }
}

/// Snapshots the global registry (see [`Registry::report`]). Empty
/// when the `obs` feature is off: no macro plants a cell then.
pub fn report() -> ObsReport {
    GLOBAL.report()
}

/// Zeroes the global registry (see [`Registry::reset`]).
pub fn reset() {
    GLOBAL.reset()
}

thread_local! {
    static SPAN_DEPTH: Cell<usize> = const { Cell::new(0) };
}

/// Current span nesting depth on this thread (0 outside any span).
pub fn span_depth() -> usize {
    SPAN_DEPTH.with(Cell::get)
}

/// RAII guard of one span, from [`Timer::enter`]: times the enclosing scope,
/// tracks nesting depth for trace indentation, and marks enter/exit in
/// the flight recorder. Dropping it records the span;
/// [`exit`](Self::exit) records it early and returns its duration.
pub struct SpanGuard<'a> {
    timer: &'a Timer,
    start: Instant,
}

impl SpanGuard<'_> {
    /// Ends the span now; returns its duration in nanoseconds.
    pub fn exit(self) -> u64 {
        let ns = self.record();
        std::mem::forget(self);
        ns
    }

    fn record(&self) -> u64 {
        let ns = self.start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        self.timer.record_ns(ns);
        SPAN_DEPTH.with(|d| d.set(d.get().saturating_sub(1)));
        if crate::flight::flight_enabled() {
            crate::flight::flight_record_id(self.timer.flight_id(), crate::FlightKind::Exit, ns);
        }
        if trace_enabled() {
            trace_emit(format_args!("<- {} ({ns}ns)", self.timer.name));
        }
        ns
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        self.record();
    }
}

static TRACE: AtomicBool = AtomicBool::new(false);

/// Turns the reasoner trace on or off process-wide (a no-op without
/// the `obs` feature).
pub fn set_trace(on: bool) {
    TRACE.store(on && crate::ENABLED, Relaxed);
}

/// Whether [`trace!`](crate::trace!) lines are being emitted. Checked
/// before formatting, so a disabled trace costs one relaxed load.
#[inline]
pub fn trace_enabled() -> bool {
    TRACE.load(Relaxed)
}

/// Writes one trace line to stderr, indented by span depth.
pub fn trace_emit(args: fmt::Arguments<'_>) {
    eprintln!("[obs]{:indent$} {args}", "", indent = span_depth() * 2);
}
