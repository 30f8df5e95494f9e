//! Behavioural tests for the instrumentation layer. Counters are
//! process-wide, so the tests that reset or assert absolute values
//! serialize on a lock.

#[cfg(feature = "obs")]
mod with_obs {
    use sqlnf_obs::ObsReport;
    use std::sync::Mutex;

    /// Serializes tests that touch the global registry.
    static LOCK: Mutex<()> = Mutex::new(());

    fn locked() -> std::sync::MutexGuard<'static, ()> {
        LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    #[test]
    fn counters_accumulate_and_reset() {
        let _guard = locked();
        sqlnf_obs::reset();
        sqlnf_obs::count!("test.obs.plain");
        sqlnf_obs::count!("test.obs.step", 41);
        sqlnf_obs::count!("test.obs.plain");
        let report = sqlnf_obs::report();
        assert_eq!(report.counter("test.obs.plain"), Some(2));
        assert_eq!(report.counter("test.obs.step"), Some(41));

        sqlnf_obs::reset();
        let report = sqlnf_obs::report();
        assert_eq!(report.counter("test.obs.plain"), Some(0));
        assert_eq!(report.counter("test.obs.step"), Some(0));
    }

    #[test]
    fn count_max_keeps_the_high_water_mark() {
        let _guard = locked();
        sqlnf_obs::reset();
        for depth in [3u64, 9, 5] {
            sqlnf_obs::count_max!("test.obs.depth", depth);
        }
        assert_eq!(sqlnf_obs::report().counter("test.obs.depth"), Some(9));
    }

    #[test]
    fn spans_nest_and_record() {
        let _guard = locked();
        sqlnf_obs::reset();
        assert_eq!(sqlnf_obs::span_depth(), 0);
        {
            let _outer = sqlnf_obs::span!("test.obs.outer");
            assert_eq!(sqlnf_obs::span_depth(), 1);
            {
                let _inner = sqlnf_obs::span!("test.obs.inner");
                assert_eq!(sqlnf_obs::span_depth(), 2);
                std::hint::black_box(());
            }
            assert_eq!(sqlnf_obs::span_depth(), 1);
        }
        assert_eq!(sqlnf_obs::span_depth(), 0);

        let report = sqlnf_obs::report();
        let outer = report.timer("test.obs.outer").expect("outer registered");
        let inner = report.timer("test.obs.inner").expect("inner registered");
        assert_eq!(outer.count, 1);
        assert_eq!(inner.count, 1);
        assert!(outer.total_ns >= inner.total_ns, "outer encloses inner");
        assert_eq!(outer.buckets.iter().sum::<u64>(), 1);
        assert_eq!(outer.buckets.len(), sqlnf_obs::TIMER_BUCKETS);
    }

    #[test]
    fn report_json_round_trips_through_the_real_registry() {
        let _guard = locked();
        sqlnf_obs::reset();
        sqlnf_obs::count!("test.obs.roundtrip", 7);
        {
            let _span = sqlnf_obs::span!("test.obs.roundtrip_span");
        }
        let report = sqlnf_obs::report();
        let parsed = ObsReport::from_json(&report.to_json()).expect("valid JSON");
        assert_eq!(parsed, report);
        assert_eq!(parsed.counter("test.obs.roundtrip"), Some(7));
        assert!(parsed.timer("test.obs.roundtrip_span").is_some());
    }

    #[test]
    fn flight_recorder_captures_spans_and_events_in_order() {
        let _guard = locked();
        sqlnf_obs::flight_reset();
        assert!(!sqlnf_obs::flight_enabled(), "flight is off by default");
        sqlnf_obs::event!("test.flight.off", 1); // dropped while disabled
        sqlnf_obs::set_flight(true);
        {
            let _span = sqlnf_obs::span!("test.flight.span");
            sqlnf_obs::event!("test.flight.mark", 42);
        }
        sqlnf_obs::set_flight(false);
        let events = sqlnf_obs::flight_snapshot(16);
        let tagged: Vec<_> = events.iter().map(|e| (e.name, e.kind)).collect();
        use sqlnf_obs::FlightKind::{Enter, Exit, Instant};
        assert!(tagged.contains(&("test.flight.span", Enter)));
        assert!(tagged.contains(&("test.flight.mark", Instant)));
        assert!(tagged.contains(&("test.flight.span", Exit)));
        assert!(
            !tagged.iter().any(|(n, _)| *n == "test.flight.off"),
            "disabled recorder must drop events"
        );
        let seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
        let mut sorted = seqs.clone();
        sorted.sort_unstable();
        assert_eq!(seqs, sorted, "snapshot is chronological");
        let mark = events
            .iter()
            .find(|e| e.name == "test.flight.mark")
            .unwrap();
        assert_eq!(mark.value, 42);
        assert_eq!(
            mark.line(),
            format!(
                "{} {} {} instant test.flight.mark 42",
                mark.seq, mark.t_ns, mark.thread
            )
        );
        let exit = events
            .iter()
            .find(|e| e.name == "test.flight.span" && e.kind == Exit)
            .unwrap();
        assert!(exit.value > 0, "exit carries the span duration");
        sqlnf_obs::flight_reset();
        assert!(
            sqlnf_obs::flight_snapshot(usize::MAX).is_empty(),
            "reset raises the floor over everything recorded so far"
        );
    }

    #[test]
    fn flight_ring_keeps_only_the_newest_events() {
        let _guard = locked();
        sqlnf_obs::flight_reset();
        sqlnf_obs::set_flight(true);
        let extra = 50u64;
        for i in 0..(sqlnf_obs::RING_SLOTS as u64 + extra) {
            sqlnf_obs::event!("test.flight.wrap", i);
        }
        sqlnf_obs::set_flight(false);
        let events = sqlnf_obs::flight_snapshot(usize::MAX);
        let wraps: Vec<_> = events
            .iter()
            .filter(|e| e.name == "test.flight.wrap")
            .collect();
        assert!(wraps.len() <= sqlnf_obs::RING_SLOTS);
        assert!(
            wraps
                .iter()
                .any(|e| e.value == sqlnf_obs::RING_SLOTS as u64 + extra - 1),
            "the newest event survives the wrap"
        );
        assert!(
            !wraps.iter().any(|e| e.value == 0),
            "the oldest event was overwritten"
        );
        // `last` truncation keeps the tail of the stream.
        let tail = sqlnf_obs::flight_snapshot(8);
        assert_eq!(tail.len(), 8);
        assert_eq!(
            tail.last().unwrap().value,
            sqlnf_obs::RING_SLOTS as u64 + extra - 1
        );
        sqlnf_obs::flight_reset();
    }

    #[test]
    fn trace_toggle_is_visible() {
        let _guard = locked();
        assert!(!sqlnf_obs::trace_enabled());
        sqlnf_obs::set_trace(true);
        assert!(sqlnf_obs::trace_enabled());
        sqlnf_obs::trace!("tracing {} from the test", "hello");
        sqlnf_obs::set_trace(false);
        assert!(!sqlnf_obs::trace_enabled());
    }
}

/// With the feature disabled the macros still expand (this module
/// compiling at all is the test) and the API returns inert values.
#[cfg(not(feature = "obs"))]
mod without_obs {
    #[test]
    fn macros_are_noops_and_report_is_empty() {
        sqlnf_obs::count!("test.noop.counter");
        sqlnf_obs::count!("test.noop.step", 5u64);
        sqlnf_obs::count_max!("test.noop.max", 9u64);
        let _span = sqlnf_obs::span!("test.noop.span");
        sqlnf_obs::trace!("never formatted {}", 1);
        sqlnf_obs::set_trace(true);
        assert!(!sqlnf_obs::trace_enabled());
        assert_eq!(sqlnf_obs::span_depth(), 0);
        sqlnf_obs::reset();
        assert!(sqlnf_obs::report().is_empty());
    }

    #[test]
    fn flight_recorder_is_inert() {
        sqlnf_obs::set_flight(true);
        assert!(!sqlnf_obs::flight_enabled());
        sqlnf_obs::event!("test.noop.event", 7u64);
        sqlnf_obs::flight_record_id(0, sqlnf_obs::FlightKind::Instant, 1);
        assert!(sqlnf_obs::flight_snapshot(16).is_empty());
        sqlnf_obs::flight_reset();
    }
}

/// An owned registry records in both feature modes and never touches
/// the global one; `absorb` folds reports together by name.
mod owned_registry {
    use sqlnf_obs::Registry;

    #[test]
    fn handles_record_into_their_own_registry() {
        let reg = Registry::new();
        let hits = reg.counter("test.owned.hits");
        let latency = reg.timer("test.owned.latency");
        hits.add(3);
        latency.record_ns(100);
        let ns = latency.enter().exit();
        let report = reg.report();
        assert_eq!(report.counter("test.owned.hits"), Some(3));
        let t = report.timer("test.owned.latency").unwrap();
        assert_eq!((t.count, t.total_ns), (2, 100 + ns));
        assert_eq!(sqlnf_obs::report().counter("test.owned.hits"), None);
        reg.reset();
        assert_eq!(reg.report().counter("test.owned.hits"), Some(0));
        assert_eq!(reg.report().timer("test.owned.latency").unwrap().count, 0);
    }

    #[test]
    fn absorb_merges_reports_by_name() {
        let (a, b) = (Registry::new(), Registry::new());
        a.counter("x").add(2);
        b.counter("x").add(5);
        b.counter("y").add(1);
        a.timer("t").record_ns(10);
        b.timer("t").record_ns(1000);
        let mut report = a.report();
        report.absorb(b.report());
        let names: Vec<&str> = report.counters.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["x", "y"]);
        assert_eq!(report.counter("x"), Some(7));
        let t = report.timer("t").unwrap();
        assert_eq!((t.count, t.total_ns, t.max_ns), (2, 1010, 1000));
        assert_eq!(t.buckets.iter().sum::<u64>(), 2);
    }
}

/// Percentile estimation is pure math over a snapshot, compiled in
/// both feature modes, so the property suite runs in both too.
mod percentile_properties {
    use proptest::prelude::*;
    use sqlnf_obs::{TimerSnapshot, TIMER_BUCKETS};

    /// Mirrors the recorder's bucketing: log2 with saturation into the
    /// top (overflow) bucket.
    fn bucket_of(ns: u64) -> usize {
        (64 - ns.leading_zeros() as usize).min(TIMER_BUCKETS - 1)
    }

    fn snapshot_of(samples: &[u64]) -> TimerSnapshot {
        let mut buckets = vec![0u64; TIMER_BUCKETS];
        for &s in samples {
            buckets[bucket_of(s)] += 1;
        }
        TimerSnapshot {
            name: "prop".into(),
            count: samples.len() as u64,
            total_ns: samples.iter().sum(),
            max_ns: samples.iter().copied().max().unwrap_or(0),
            buckets,
        }
    }

    /// The true rank-based percentile: the smallest sample with at
    /// least `ceil(q·n)` samples at or below it.
    fn true_percentile(sorted: &[u64], q: f64) -> u64 {
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }

    proptest! {
        /// For any sample set below the overflow bucket, each estimate
        /// lands in the same log2 bucket as the true percentile: never
        /// below it, never past the bucket's upper edge (within one
        /// bucket width, i.e. under 2x).
        #[test]
        fn estimates_bracket_true_percentiles(
            samples in proptest::collection::vec(0u64..(1 << 30), 1..200),
            q_pct in 1u64..=100,
        ) {
            let q = q_pct as f64 / 100.0;
            let snap = snapshot_of(&samples);
            let mut samples = samples;
            samples.sort_unstable();
            let truth = true_percentile(&samples, q);
            let est = snap.percentile_ns(q);
            prop_assert!(est >= truth, "estimate {est} below true percentile {truth}");
            // The bucket's inclusive upper edge is 2^(b+1) - 1, i.e.
            // strictly under twice the true percentile.
            prop_assert!(
                est < 2 * truth.max(1),
                "estimate {est} beyond one bucket width of {truth}"
            );
        }
    }

    #[test]
    fn degenerate_distributions() {
        // Zero samples: every percentile is 0.
        let empty = snapshot_of(&[]);
        for q in [0.5, 0.9, 0.99] {
            assert_eq!(empty.percentile_ns(q), 0);
        }
        // One sample: every percentile is (an upper bound clamped to)
        // that sample.
        let one = snapshot_of(&[777]);
        for q in [0.01, 0.5, 0.99, 1.0] {
            assert_eq!(one.percentile_ns(q), 777);
        }
        // Adversarial all-one-bucket pile-up: 1000 samples in bucket
        // 10 (512..=1023). The estimate must stay inside the bucket.
        let pile: Vec<u64> = (0..1000).map(|i| 512 + (i % 512)).collect();
        let snap = snapshot_of(&pile);
        for q in [0.5, 0.9, 0.99] {
            let est = snap.percentile_ns(q);
            assert!(
                (512..=1023).contains(&est),
                "estimate {est} escaped the bucket"
            );
        }
    }
}
