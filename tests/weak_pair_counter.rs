//! Classification and key mining answer their certain-semantics
//! questions (c-key, totality, certain-FD targets) by the grouped sweep
//! and never enumerate weak pairs: on null-bearing instances they leave
//! `discovery.check.weak_pairs_visited` at 0, while a pair-enumerating
//! caller on the same instance moves it. A regression back to pair
//! loops shows up as a count.
//!
//! Kept as its own integration binary: the counter lives in the
//! process-wide registry, and other suites enumerate pairs concurrently.

use sqlnf::discovery::approx::ckey_error;
use sqlnf::discovery::classify::classify_table;
use sqlnf::discovery::keys::mine_keys;
use sqlnf::discovery::partition::Encoded;

const COUNTER: &str = "discovery.check.weak_pairs_visited";

fn visited() -> u64 {
    sqlnf_obs::report().counter(COUNTER).unwrap_or(0)
}

#[test]
fn classification_and_key_mining_visit_no_weak_pairs() {
    let fixtures = [
        (sqlnf::datagen::contact::fig7_snippet(), 3),
        (sqlnf::datagen::naumann::hepatitis_like(7), 3),
    ];
    let before = visited();
    for (t, max_lhs) in &fixtures {
        let cls = classify_table(t, *max_lhs);
        // The fixtures exercise the c-key and totality checks.
        assert!(!cls.c_fds.is_empty(), "{}", t.schema().name());
        let keys = mine_keys(t, *max_lhs);
        assert!(!keys.pkeys.is_empty(), "{}", t.schema().name());
    }
    assert_eq!(visited() - before, 0, "classify/keys enumerated weak pairs");

    // The counter is live: approximate c-key errors need the pairs.
    let (t, _) = &fixtures[0];
    let city = t.schema().set(&["city"]);
    assert!(ckey_error(&Encoded::new(t), city) > 0.0);
    assert!(visited() > before, "pair enumeration is counted");
}
