//! Exhaustive torn-tail coverage for the sharded, epoch-stamped log:
//! generation logs are truncated at *every* byte offset — per shard,
//! independently — and recovery must never panic and must always yield
//! exactly the durable epoch prefix of the admitted statements. Covered
//! at the frame level (`wal::replay`), at the store level
//! (`Store::open` + export), across shards, with a preceding snapshot
//! generation, and through a crash between `write` and `fsync`.

use sqlnf_model::prelude::*;
use sqlnf_serve::wal::{self, Wal};
use sqlnf_serve::{Store, StoreOptions};
use std::path::PathBuf;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sqlnf_torn_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The admitted history the logs are built from: DDL then inserts of
/// varying widths (multi-row, nulls, quoted text) so frame lengths
/// differ and truncation offsets land in every part of a frame —
/// marker, length digits, epoch digits, header newline, payload,
/// trailing newline.
fn history() -> Vec<String> {
    let mut stmts =
        vec!["CREATE TABLE t (a INT NOT NULL, b TEXT, CONSTRAINT k CERTAIN KEY (a));".to_owned()];
    for i in 0..6 {
        stmts.push(format!(
            "INSERT INTO t VALUES ({}, 'x{}'), ({}, NULL);",
            2 * i,
            i,
            2 * i + 1
        ));
    }
    stmts
}

/// Replays `stmts` through a fresh engine and renders the result.
fn reference_export(stmts: &[String]) -> String {
    let mut db = Database::new();
    for s in stmts {
        db.run_script(s).unwrap();
    }
    db.export_script()
}

/// Frame-level: every truncation offset of a single-shard generation-0
/// log replays to a contiguous epoch prefix, and re-opening the
/// damaged log (which truncates the tail in place) accepts further
/// appends at the next epoch.
#[test]
fn every_offset_replays_to_a_prefix() {
    let stmts = history();
    let build_dir = tmp_dir("build");
    let mut w = Wal::open(&build_dir, 0, 0).unwrap();
    for (i, s) in stmts.iter().enumerate() {
        w.append(i as u64 + 1, s).unwrap();
    }
    drop(w);
    let image = std::fs::read(wal::wal_path(&build_dir, 0, 0)).unwrap();
    assert!(image.len() > 200, "need a multi-record log");

    let dir = tmp_dir("offsets");
    let path = wal::wal_path(&dir, 0, 0);
    let mut seen_lengths = std::collections::BTreeSet::new();
    for cut in 0..=image.len() {
        std::fs::write(&path, &image[..cut]).unwrap();
        let back = wal::replay(&path).unwrap();
        assert!(back.len() <= stmts.len(), "cut {cut}");
        for (i, (epoch, payload)) in back.iter().enumerate() {
            assert_eq!(*epoch, i as u64 + 1, "cut {cut}: epochs must be dense");
            assert_eq!(*payload, stmts[i], "cut {cut} must yield a prefix");
        }
        seen_lengths.insert(back.len());
        // Re-opening truncates the torn tail and appends continue.
        let mut reopened = Wal::open(&dir, 0, 0).unwrap();
        assert_eq!(reopened.records(), back.len() as u64, "cut {cut}");
        reopened
            .append(back.len() as u64 + 1, "INSERT INTO t VALUES (99, 'tail');")
            .unwrap();
        let healed = wal::replay(&path).unwrap();
        assert_eq!(healed.len(), back.len() + 1, "cut {cut}");
        assert_eq!(
            healed.last().unwrap().1,
            "INSERT INTO t VALUES (99, 'tail');"
        );
    }
    // The sweep hit every possible prefix length, 0..=all.
    assert_eq!(seen_lengths.len(), stmts.len() + 1);
    let _ = std::fs::remove_dir_all(&build_dir);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Store-level, single shard, no snapshot: recovery at every offset
/// reproduces the reference engine's replay of exactly the surviving
/// prefix.
#[test]
fn store_recovers_the_prefix_state_at_every_offset() {
    let stmts = history();
    let build_dir = tmp_dir("store_build");
    let mut w = Wal::open(&build_dir, 0, 0).unwrap();
    for (i, s) in stmts.iter().enumerate() {
        w.append(i as u64 + 1, s).unwrap();
    }
    drop(w);
    let image = std::fs::read(wal::wal_path(&build_dir, 0, 0)).unwrap();

    let dir = tmp_dir("store_offsets");
    let path = wal::wal_path(&dir, 0, 0);
    for cut in 0..=image.len() {
        std::fs::write(&path, &image[..cut]).unwrap();
        let surviving = wal::replay(&path).unwrap();
        let store = Store::open(&dir, 0).unwrap_or_else(|e| panic!("cut {cut}: {e}"));
        assert_eq!(
            store.export_script(),
            reference_export(&stmts[..surviving.len()]),
            "cut {cut}"
        );
    }
    let _ = std::fs::remove_dir_all(&build_dir);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The sharded sweep: a history spread across several shard logs is
/// damaged one shard at a time, at every byte offset of that shard,
/// while the other shards stay pristine. Recovery must replay exactly
/// the longest contiguous global-epoch prefix that survived — a tear
/// in one shard's tail censors every *later* epoch in other shards,
/// but never an earlier one.
#[test]
fn each_shard_truncated_independently_replays_the_epoch_prefix() {
    let opts = StoreOptions {
        wal_shards: 3,
        ..StoreOptions::default()
    };
    // Several tables so statements actually spread across shard files;
    // epochs are assigned in execution order, so statement i carries
    // epoch i+1 regardless of which shard its table hashes to.
    let mut stmts = Vec::new();
    for t in ["alpha", "bravo", "charlie", "delta"] {
        stmts.push(format!(
            "CREATE TABLE {t} (a INT NOT NULL, b TEXT, CONSTRAINT k CERTAIN KEY (a));"
        ));
    }
    for i in 0..4 {
        for t in ["alpha", "bravo", "charlie", "delta"] {
            stmts.push(format!("INSERT INTO {t} VALUES ({i}, 'r{i}');"));
        }
    }

    let build_dir = tmp_dir("shard_build");
    {
        let store = Store::open_with(&build_dir, opts.clone()).unwrap();
        for s in &stmts {
            store.execute_sql(s).unwrap();
        }
        store.sync().unwrap();
    }
    let shards: Vec<(u64, Vec<u8>)> = wal::shard_logs(&build_dir, 0)
        .unwrap()
        .into_iter()
        .map(|(shard, path)| (shard, std::fs::read(path).unwrap()))
        .collect();
    assert!(
        shards.iter().filter(|(_, img)| !img.is_empty()).count() >= 2,
        "history must span multiple shard files for the sweep to mean anything"
    );

    let dir = tmp_dir("shard_offsets");
    for victim in 0..shards.len() {
        for cut in 0..=shards[victim].1.len() {
            // Restore every shard pristine, then tear one.
            for (i, (shard, image)) in shards.iter().enumerate() {
                let body = if i == victim {
                    &image[..cut]
                } else {
                    &image[..]
                };
                std::fs::write(wal::wal_path(&dir, 0, *shard), body).unwrap();
            }
            // The durable prefix is what a contiguous epoch merge of
            // the surviving frames yields.
            let frames: Vec<_> = shards
                .iter()
                .map(|(shard, _)| wal::replay(&wal::wal_path(&dir, 0, *shard)).unwrap())
                .collect();
            let (durable, last) = wal::merge_by_epoch(frames, 1);
            assert_eq!(durable.len() as u64, last, "shard {victim} cut {cut}");
            assert!(durable.len() <= stmts.len(), "shard {victim} cut {cut}");
            // The logged payloads are the store's canonical rendering,
            // not the input bytes — but epoch i is statement i, so the
            // recovered state must equal a replay of the input prefix.
            let store = Store::open_with(&dir, opts.clone())
                .unwrap_or_else(|e| panic!("shard {victim} cut {cut}: {e}"));
            assert_eq!(
                store.export_script(),
                reference_export(&stmts[..durable.len()]),
                "shard {victim} cut {cut}"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&build_dir);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Store-level, with a snapshot generation in front: the snapshot's
/// statements are immune to the live log's torn tail, so recovery at
/// every offset equals snapshot state + surviving log prefix.
#[test]
fn snapshot_generation_survives_any_log_damage() {
    let stmts = history();
    let (snap_len, generation) = (3usize, 5u64);
    let snapshot_stmts = &stmts[..snap_len];
    let log_stmts = &stmts[snap_len..];
    let epoch_base = snap_len as u64 + 1;

    let dir = tmp_dir("snap_gen");
    let mut snapshot = wal::snapshot_header(generation, epoch_base);
    snapshot.push_str(&reference_export(snapshot_stmts));
    std::fs::write(dir.join(wal::SNAPSHOT_FILE), &snapshot).unwrap();
    let mut w = Wal::open(&dir, generation, 0).unwrap();
    for (i, s) in log_stmts.iter().enumerate() {
        w.append(epoch_base + i as u64, s).unwrap();
    }
    drop(w);
    let path = wal::wal_path(&dir, generation, 0);
    let image = std::fs::read(&path).unwrap();

    for cut in (0..=image.len()).rev() {
        std::fs::write(&path, &image[..cut]).unwrap();
        let surviving = wal::replay(&path).unwrap();
        let store = Store::open(&dir, 0).unwrap_or_else(|e| panic!("cut {cut}: {e}"));
        assert_eq!(
            store.export_script(),
            reference_export(&stmts[..snap_len + surviving.len()]),
            "cut {cut}"
        );
        // Even with the whole log gone, the snapshot holds.
        if cut == 0 {
            assert_eq!(store.export_script(), reference_export(snapshot_stmts));
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Crash during a commit batch: the fsync fails *after* the frames hit
/// the file. Every waiter in that batch must see the error (never an
/// ack), the frames must be erased from the shard, and recovery must
/// come back with exactly the durable history — proving an ack is only
/// ever issued for fsynced frames.
#[test]
fn crash_between_write_and_fsync_acks_nothing_undurable() {
    let dir = tmp_dir("crash_commit");
    let opts = StoreOptions {
        wal_shards: 2,
        ..StoreOptions::default()
    };
    {
        let store = Store::open_with(&dir, opts.clone()).unwrap();
        store.enable_oplog();
        store
            .execute_sql("CREATE TABLE t (a INT NOT NULL, CONSTRAINT k CERTAIN KEY (a));")
            .unwrap();
        store.execute_sql("INSERT INTO t VALUES (1);").unwrap();
        let durable = store.oplog();
        assert_eq!(durable.len(), 2);

        store.inject_fsync_fault_once();
        let err = store.execute_sql("INSERT INTO t VALUES (2);").unwrap_err();
        assert!(err.to_string().contains("not durable"), "{err}");
        // The failed batch was never acked and never reached the oplog.
        let report = store.metrics().report();
        assert_eq!(
            report.counter("serve.stmt.admitted"),
            Some(2),
            "ack count must exclude the lost batch"
        );
        assert!(report.counter("serve.stmt.rejected") >= Some(1));
        assert_eq!(store.oplog(), durable);
    }
    // Recovery sees only the durable history: the crashed batch's
    // frames were rolled back from the shard file before the store
    // reported the error.
    let reborn = Store::open_with(&dir, opts).unwrap();
    assert_eq!(
        reborn.export_script(),
        reference_export(&[
            "CREATE TABLE t (a INT NOT NULL, CONSTRAINT k CERTAIN KEY (a));".to_owned(),
            "INSERT INTO t VALUES (1);".to_owned(),
        ]),
    );
    let _ = std::fs::remove_dir_all(&dir);
}
