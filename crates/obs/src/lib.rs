//! `sqlnf-obs`: zero-dependency instrumentation for the sqlnf
//! workspace — process-wide counters, log2-histogram timers, scoped
//! spans with a runtime-gated trace, and a JSON-exportable report.
//!
//! # Design
//!
//! Each [`count!`]/[`count_max!`]/[`span!`] call site owns a `static`
//! atomic cell, registered lazily in the global [`Registry`] on first
//! use. The hot path is therefore one relaxed atomic RMW with no
//! locking, no allocation and no hashing; the registry lock is taken
//! once per call site per process, and again only by
//! [`report`]/[`reset`]. A component with counters of its own (the
//! server, per store) owns a [`Registry`] and records through the
//! handles it hands out, regardless of the feature.
//!
//! With the `obs` feature disabled (the default) the macros expand to
//! no-ops and [`report`] returns an empty [`ObsReport`] — instrumented
//! hot loops pay nothing. The workspace's binary crate enables the
//! feature; benches leave it off.
//!
//! # Example
//!
//! ```
//! fn p_closure_like() {
//!     let _span = sqlnf_obs::span!("doc.closure");
//!     for _ in 0..10 {
//!         sqlnf_obs::count!("doc.closure.iterations");
//!     }
//!     sqlnf_obs::count_max!("doc.closure.widest", 10);
//!     sqlnf_obs::trace!("fixpoint after {} iterations", 10);
//! }
//! p_closure_like();
//! let report = sqlnf_obs::report();
//! #[cfg(feature = "obs")]
//! assert!(report.counter("doc.closure.iterations").unwrap_or(0) >= 10);
//! #[cfg(not(feature = "obs"))]
//! assert!(report.is_empty());
//! ```

#![warn(missing_docs)]

pub mod flight;
pub mod json;
mod registry;
mod report;

pub use flight::{
    flight_enabled, flight_intern, flight_record_id, flight_reset, flight_snapshot, set_flight,
    FlightEvent, FlightKind, RING_SLOTS,
};
pub use registry::{
    report, reset, set_trace, span_depth, trace_emit, trace_enabled, Counter, Registry, SpanGuard,
    Timer,
};
pub use report::{CounterSnapshot, ObsReport, TimerSnapshot};

/// Whether the macros are compiled in (the `obs` feature). Lets
/// callers distinguish "nothing recorded" from "recording disabled".
pub const ENABLED: bool = cfg!(feature = "obs");

/// Number of log2 histogram buckets per timer (bucket 31 absorbs
/// everything from ~1 s up). Compiled regardless of the `obs` feature
/// so percentile estimation over snapshots has one API surface.
pub const TIMER_BUCKETS: usize = 32;

// Each macro plants its cell only under the `obs` feature: with it
// off, `ENABLED` is `false`, the branch folds away and the macro is a
// no-op.

/// Increments a named counter: `count!("core.closure.iterations")`, or
/// by a step: `count!("model.satisfy.pairs", pairs)`.
#[macro_export]
macro_rules! count {
    ($name:expr) => {
        $crate::count!($name, 1u64)
    };
    ($name:expr, $n:expr) => {{
        if $crate::ENABLED {
            static __OBS_COUNTER: $crate::Counter = $crate::Counter::new($name);
            __OBS_COUNTER.global().add($n as u64);
        }
    }};
}

/// Raises a named high-water-mark counter to at least the given value:
/// `count_max!("core.decompose.depth", depth)`.
#[macro_export]
macro_rules! count_max {
    ($name:expr, $n:expr) => {{
        if $crate::ENABLED {
            static __OBS_COUNTER: $crate::Counter = $crate::Counter::new_max($name);
            __OBS_COUNTER.global().raise_to($n as u64);
        }
    }};
}

/// Records one value observation into a named log2 histogram (the
/// same machinery as [`span!`] timers, but fed a dimensionless value
/// instead of elapsed nanoseconds): `record!("discovery.batch_size",
/// n)`. The report's p50/p99 are bucket upper edges, like any timer.
#[macro_export]
macro_rules! record {
    ($name:expr, $n:expr) => {{
        if $crate::ENABLED {
            static __OBS_TIMER: $crate::Timer = $crate::Timer::new($name);
            __OBS_TIMER.global().record_ns($n as u64);
        }
    }};
}

/// Times the enclosing scope under a named histogram timer. Bind the
/// guard: `let _span = obs::span!("p_closure");` — timing stops when
/// the guard drops (it is `None` without the `obs` feature).
#[macro_export]
macro_rules! span {
    ($name:expr) => {{
        static __OBS_TIMER: $crate::Timer = $crate::Timer::new($name);
        $crate::ENABLED.then(|| __OBS_TIMER.global().enter())
    }};
}

/// Records one point event into the flight recorder:
/// `event!("serve.stmt.admitted")`, or with a payload value:
/// `event!("serve.stmt.admitted", nonce)`. Costs one relaxed load when
/// recording is off ([`set_flight`]); the name is interned once per
/// call site.
#[macro_export]
macro_rules! event {
    ($name:expr) => {
        $crate::event!($name, 0u64)
    };
    ($name:expr, $v:expr) => {{
        if $crate::ENABLED && $crate::flight_enabled() {
            static __OBS_EVENT_ID: ::std::sync::OnceLock<u32> = ::std::sync::OnceLock::new();
            let id = *__OBS_EVENT_ID.get_or_init(|| $crate::flight_intern($name));
            $crate::flight_record_id(id, $crate::FlightKind::Instant, $v as u64);
        }
    }};
}

/// Emits one reasoner-trace line (format-args syntax) when tracing is
/// enabled via [`set_trace`]; otherwise costs one relaxed load.
#[macro_export]
macro_rules! trace {
    ($($arg:tt)*) => {
        if $crate::ENABLED && $crate::trace_enabled() {
            $crate::trace_emit(::core::format_args!($($arg)*));
        }
    };
}
