//! Append-only, sharded write-ahead log of admitted statements.
//!
//! The log is a sequence of length-prefixed, epoch-stamped frames,
//!
//! ```text
//! #<len>@<epoch>\n<payload>\n
//! ```
//!
//! where `<len>` is the payload's byte length in decimal, `<epoch>` is
//! the statement's position in the store's single global admission
//! order (a monotonically increasing counter shared by every shard),
//! and the payload is one SQL statement in the canonical rendering of
//! `sqlnf_model::sql` (`render_create_table` / `render_insert`), so a
//! log replays through the ordinary parser. Recovery tolerates a torn
//! tail: the first malformed or incomplete frame ends the replay, and
//! the next append truncates the file back to the last good frame.
//!
//! ## Shards
//!
//! A generation's log is split across `wal.<g>.<shard>.log` files;
//! writers pick a shard by hashing the statement's table name, so two
//! tables can commit on different files (and different fsyncs)
//! concurrently. Because every frame carries its global epoch, replay
//! does not depend on the shard layout: recovery reads every shard of
//! the snapshot's generation, merge-sorts the frames by epoch, and
//! replays the longest contiguous run starting at the generation's
//! epoch base (recorded in the snapshot header). A gap — epoch `e`
//! missing because its shard's tail was torn while a later epoch on
//! another shard survived — ends the replay at `e-1`; the frames past
//! the gap were never acknowledged (an ack waits for the cross-shard
//! watermark: every epoch at or below the acked one durable, see
//! [`crate::commit`]) and are discarded by physically truncating
//! every shard back to the durable prefix, so the resumed epoch
//! counter can never collide with a leftover frame.
//!
//! ## Generations
//!
//! A snapshot records (in its header line) the generation of the logs
//! that accompany it and the epoch the next frame will carry. Taking a
//! snapshot never truncates a log in place: it writes the snapshot for
//! generation `g+1`, creates the empty `wal.<g+1>.<s>.log` for every
//! shard, renames the snapshot into place, fsyncs the directory, and
//! only then retires the generation-`g` logs. A crash at any point
//! leaves the directory recoverable: logs whose generation differs
//! from the snapshot's are either fully captured by the snapshot
//! (older) or empty leftovers of an unfinished snapshot (newer), so
//! [`cleanup_stale`] deletes them before replay instead of replaying
//! them twice.

use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// File name of the snapshot inside a WAL directory.
pub const SNAPSHOT_FILE: &str = "snapshot.sql";

/// First line of every snapshot file; the generation follows.
const SNAPSHOT_HEADER: &str = "-- sqlnf snapshot generation=";

/// Separates the generation from the epoch base in a snapshot header.
const SNAPSHOT_EPOCH: &str = " epoch=";

/// Path of `shard`'s log for `generation` inside `dir`.
pub fn wal_path(dir: &Path, generation: u64, shard: u64) -> PathBuf {
    dir.join(format!("wal.{generation}.{shard}.log"))
}

/// Path of the snapshot temp file for `generation` inside `dir` (a
/// unique name per generation, so an interrupted writer can never be
/// interleaved with a later one).
pub fn snapshot_tmp_path(dir: &Path, generation: u64) -> PathBuf {
    dir.join(format!("snapshot.{generation}.tmp"))
}

/// The header line a snapshot of `generation` starts with (stripped
/// before the body is parsed as SQL). `epoch_base` is the epoch the
/// first frame logged after the snapshot will carry.
pub fn snapshot_header(generation: u64, epoch_base: u64) -> String {
    format!("{SNAPSHOT_HEADER}{generation}{SNAPSHOT_EPOCH}{epoch_base}\n")
}

/// Splits a snapshot image into its generation, its epoch base, and
/// its SQL body. A missing or malformed header reads as generation 0
/// with epoch base 1 and the whole image as body; a header without an
/// epoch field (written before logs were sharded) reads as base 1.
pub fn parse_snapshot(image: &str) -> (u64, u64, &str) {
    if let Some(rest) = image.strip_prefix(SNAPSHOT_HEADER) {
        if let Some((head, body)) = rest.split_once('\n') {
            let (gen, epoch) = match head.split_once(SNAPSHOT_EPOCH) {
                Some((g, e)) => (g, e.trim().parse().ok()),
                None => (head, Some(1)),
            };
            if let (Ok(generation), Some(epoch_base)) = (gen.trim().parse(), epoch) {
                return (generation, epoch_base, body);
            }
        }
    }
    (0, 1, image)
}

/// The shard logs of `generation` present in `dir`, as
/// `(shard, path)` pairs in shard order. Lists what is on disk rather
/// than assuming a shard count, so a store reopened with a different
/// `--wal-shards` still recovers every frame.
pub fn shard_logs(dir: &Path, generation: u64) -> io::Result<Vec<(u64, PathBuf)>> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some((g, shard)) = parse_log_name(name) {
            if g == generation {
                out.push((shard, entry.path()));
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Parses `wal.<g>.<shard>.log` into `(g, shard)`.
fn parse_log_name(name: &str) -> Option<(u64, u64)> {
    let rest = name.strip_prefix("wal.")?.strip_suffix(".log")?;
    let (g, shard) = rest.split_once('.')?;
    Some((g.parse().ok()?, shard.parse().ok()?))
}

/// Deletes shard logs of any generation other than `keep` plus
/// leftover snapshot temp files — the debris of a crash mid-snapshot,
/// all of it already applied (older logs) or never written to (newer
/// logs).
pub fn cleanup_stale(dir: &Path, keep: u64) -> io::Result<()> {
    let mut removed = false;
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let stale_log = parse_log_name(name).is_some_and(|(g, _)| g != keep);
        let stale_tmp = name.starts_with("snapshot.") && name.ends_with(".tmp");
        if stale_log || stale_tmp {
            std::fs::remove_file(entry.path())?;
            removed = true;
        }
    }
    if removed {
        sync_dir(dir)?;
    }
    Ok(())
}

/// Fsyncs a directory so renames/creates/removes inside it are durable.
pub fn sync_dir(dir: &Path) -> io::Result<()> {
    File::open(dir)?.sync_all()
}

/// An open write-ahead log shard.
#[derive(Debug)]
pub struct Wal {
    file: File,
    path: PathBuf,
    bytes: u64,
    records: u64,
}

impl Wal {
    /// Opens (creating if needed) `shard`'s log of `generation` inside
    /// `dir`, positioned after the last complete frame — a torn tail
    /// from a crash is discarded here, so recovery and the append path
    /// agree on the log's contents.
    pub fn open(dir: &Path, generation: u64, shard: u64) -> io::Result<Wal> {
        Self::open_capped(dir, generation, shard, None)
    }

    /// Like [`open`](Self::open), but additionally discards any frame
    /// whose epoch exceeds `cap` (and everything after it). Recovery
    /// uses this to erase frames past an epoch gap: they were written
    /// by a crashed commit whose merge prefix ends earlier, and the
    /// resumed epoch counter must not collide with them.
    pub fn open_capped(
        dir: &Path,
        generation: u64,
        shard: u64,
        cap: Option<u64>,
    ) -> io::Result<Wal> {
        std::fs::create_dir_all(dir)?;
        let path = wal_path(dir, generation, shard);
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)?;
        let mut raw = Vec::new();
        file.read_to_end(&mut raw)?;
        let (frames, mut good) = scan_frames(&raw);
        let mut records = frames.len();
        if let Some(cap) = cap {
            if let Some(i) = frames.iter().position(|(e, _)| *e > cap) {
                records = i;
                good = frames[..i].iter().map(|(e, p)| frame_len(*e, p)).sum();
            }
        }
        if (good as u64) < raw.len() as u64 {
            file.set_len(good as u64)?;
        }
        file.seek(SeekFrom::Start(good as u64))?;
        Ok(Wal {
            file,
            path,
            bytes: good as u64,
            records: records as u64,
        })
    }

    /// Appends one frame. The write lands in the OS page cache; an
    /// explicit [`sync`](Self::sync) is needed for durability. Returns
    /// the frame's byte size.
    pub fn append(&mut self, epoch: u64, payload: &str) -> io::Result<u64> {
        self.append_batch(std::slice::from_ref(&(epoch, payload.to_owned())))
    }

    /// Appends a batch of frames as a single `write` call — the heart
    /// of group commit: one syscall and (after [`sync`](Self::sync))
    /// one fsync cover every waiter in the batch. Returns the bytes
    /// written.
    pub fn append_batch(&mut self, frames: &[(u64, String)]) -> io::Result<u64> {
        let mut buf = String::new();
        for (epoch, payload) in frames {
            render_frame(&mut buf, *epoch, payload);
        }
        self.file.write_all(buf.as_bytes())?;
        self.bytes += buf.len() as u64;
        self.records += frames.len() as u64;
        Ok(buf.len() as u64)
    }

    /// Forces the log to stable storage.
    pub fn sync(&mut self) -> io::Result<()> {
        self.file.sync_data()
    }

    /// Rolls the log back to `bytes`/`records`, erasing a batch whose
    /// commit failed between `write` and `fsync` so the frames are
    /// never replayed (their writers were answered with an error, not
    /// an ack).
    pub fn truncate_to(&mut self, bytes: u64, records: u64) -> io::Result<()> {
        self.file.set_len(bytes)?;
        self.file.seek(SeekFrom::Start(bytes))?;
        self.bytes = bytes;
        self.records = records;
        Ok(())
    }

    /// Bytes currently in the log.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Frames currently in the log.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// The log's file path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// Renders one frame into `buf`.
fn render_frame(buf: &mut String, epoch: u64, payload: &str) {
    use std::fmt::Write as _;
    let _ = write!(buf, "#{}@{epoch}\n{payload}\n", payload.len());
}

/// Byte size of one rendered frame.
fn frame_len(epoch: u64, payload: &str) -> usize {
    let mut buf = String::new();
    render_frame(&mut buf, epoch, payload);
    buf.len()
}

/// Parses the complete frames of a raw log image; returns the
/// `(epoch, payload)` pairs and the byte offset just past the last
/// complete frame.
fn scan_frames(raw: &[u8]) -> (Vec<(u64, String)>, usize) {
    let mut out = Vec::new();
    let mut at = 0usize;
    loop {
        let frame_start = at;
        if at >= raw.len() || raw[at] != b'#' {
            return (out, frame_start);
        }
        at += 1;
        let Some((len, next)) = scan_number(raw, at) else {
            return (out, frame_start);
        };
        at = next;
        if at >= raw.len() || raw[at] != b'@' {
            return (out, frame_start);
        }
        at += 1;
        let Some((epoch, next)) = scan_number(raw, at) else {
            return (out, frame_start);
        };
        at = next;
        if at >= raw.len() || raw[at] != b'\n' {
            return (out, frame_start);
        }
        at += 1;
        let Some(end) = at.checked_add(len as usize) else {
            return (out, frame_start);
        };
        if end >= raw.len() || raw[end] != b'\n' {
            return (out, frame_start);
        }
        match std::str::from_utf8(&raw[at..end]) {
            Ok(s) => out.push((epoch, s.to_owned())),
            Err(_) => return (out, frame_start),
        }
        at = end + 1;
    }
}

/// Parses a non-empty decimal run at `at`; returns the value and the
/// offset just past it.
fn scan_number(raw: &[u8], at: usize) -> Option<(u64, usize)> {
    let start = at;
    let mut at = at;
    while at < raw.len() && raw[at].is_ascii_digit() {
        at += 1;
    }
    if at == start {
        return None;
    }
    let n = std::str::from_utf8(&raw[start..at]).ok()?.parse().ok()?;
    Some((n, at))
}

/// Reads the `(epoch, payload)` pairs of all complete frames of a log
/// file; a missing file is an empty log.
pub fn replay(path: &Path) -> io::Result<Vec<(u64, String)>> {
    let raw = match std::fs::read(path) {
        Ok(raw) => raw,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(e),
    };
    Ok(scan_frames(&raw).0)
}

/// Merges per-shard frame lists into the single replayable history:
/// sorts everything by epoch and keeps the longest contiguous run
/// starting at `epoch_base`. Returns the merged run and the last good
/// epoch (`epoch_base - 1` if the run is empty). A duplicate epoch —
/// impossible under the commit protocol, but conceivable after manual
/// log surgery — is skipped as stale: the first frame bearing an
/// epoch wins, later ones are ignored and the run continues. Frames
/// below `epoch_base` (already captured by the snapshot) are skipped
/// the same way.
pub fn merge_by_epoch(shards: Vec<Vec<(u64, String)>>, epoch_base: u64) -> (Vec<String>, u64) {
    let mut all: Vec<(u64, String)> = shards.into_iter().flatten().collect();
    all.sort_by_key(|a| a.0);
    let mut out = Vec::new();
    let mut last = epoch_base.saturating_sub(1);
    for (epoch, payload) in all {
        if epoch == last + 1 {
            out.push(payload);
            last = epoch;
        } else if epoch > last {
            break; // gap: a torn shard tail swallowed `last+1`
        }
        // epoch <= last: duplicate, or below the base; skip as stale.
    }
    (out, last)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_dir::tmp_dir;

    #[test]
    fn append_replay_round_trip() {
        let dir = tmp_dir("rt");
        let mut wal = Wal::open(&dir, 0, 0).unwrap();
        wal.append(1, "CREATE TABLE t (a TEXT);").unwrap();
        wal.append(2, "INSERT INTO t VALUES ('x;\ny');").unwrap();
        assert_eq!(wal.records(), 2);
        let back = replay(&wal_path(&dir, 0, 0)).unwrap();
        assert_eq!(
            back,
            vec![
                (1, "CREATE TABLE t (a TEXT);".to_owned()),
                (2, "INSERT INTO t VALUES ('x;\ny');".to_owned())
            ]
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn batch_append_is_one_frame_per_statement() {
        let dir = tmp_dir("batch");
        let mut wal = Wal::open(&dir, 0, 0).unwrap();
        let frames: Vec<(u64, String)> = (1..=5)
            .map(|i| (i, format!("INSERT INTO t VALUES ({i});")))
            .collect();
        wal.append_batch(&frames).unwrap();
        assert_eq!(wal.records(), 5);
        assert_eq!(replay(&wal_path(&dir, 0, 0)).unwrap(), frames);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_tolerated_and_truncated() {
        let dir = tmp_dir("torn");
        let mut wal = Wal::open(&dir, 0, 0).unwrap();
        wal.append(1, "INSERT INTO t VALUES (1);").unwrap();
        let good_bytes = wal.bytes();
        drop(wal);
        // Simulate a crash mid-append: a frame with a short payload.
        let path = wal_path(&dir, 0, 0);
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"#999@2\nINSERT INTO").unwrap();
        drop(f);
        assert_eq!(
            replay(&path).unwrap(),
            vec![(1, "INSERT INTO t VALUES (1);".to_owned())]
        );
        // Re-opening truncates back to the last good frame and appends
        // continue from there.
        let mut wal = Wal::open(&dir, 0, 0).unwrap();
        assert_eq!(wal.bytes(), good_bytes);
        assert_eq!(wal.records(), 1);
        wal.append(2, "INSERT INTO t VALUES (2);").unwrap();
        assert_eq!(replay(&path).unwrap().len(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_capped_erases_frames_past_the_cap() {
        let dir = tmp_dir("cap");
        let mut wal = Wal::open(&dir, 0, 0).unwrap();
        for epoch in 1..=4 {
            wal.append(epoch, &format!("INSERT INTO t VALUES ({epoch});"))
                .unwrap();
        }
        drop(wal);
        let wal = Wal::open_capped(&dir, 0, 0, Some(2)).unwrap();
        assert_eq!(wal.records(), 2);
        drop(wal);
        let back = replay(&wal_path(&dir, 0, 0)).unwrap();
        assert_eq!(back.iter().map(|(e, _)| *e).collect::<Vec<_>>(), vec![1, 2]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn merge_by_epoch_stops_at_a_gap() {
        let a = vec![(1, "A".to_owned()), (4, "D".to_owned())];
        let b = vec![(2, "B".to_owned()), (6, "F".to_owned())];
        // Epochs 1,2,4,6 from base 1: 3 is missing, so only 1..=2 replay.
        let (run, last) = merge_by_epoch(vec![a, b], 1);
        assert_eq!(run, vec!["A".to_owned(), "B".to_owned()]);
        assert_eq!(last, 2);
        // An empty merge reports base-1 as the last good epoch.
        let (run, last) = merge_by_epoch(vec![Vec::new()], 7);
        assert!(run.is_empty());
        assert_eq!(last, 6);
        // A run starting past the base is entirely discarded.
        let (run, last) = merge_by_epoch(vec![vec![(9, "X".to_owned())]], 7);
        assert!(run.is_empty());
        assert_eq!(last, 6);
    }

    #[test]
    fn snapshot_header_round_trips() {
        let image = format!("{}CREATE TABLE t (a INT);\n", snapshot_header(7, 42));
        assert_eq!(parse_snapshot(&image), (7, 42, "CREATE TABLE t (a INT);\n"));
        // Pre-shard headers without an epoch field read as base 1.
        assert_eq!(
            parse_snapshot("-- sqlnf snapshot generation=7\nBODY"),
            (7, 1, "BODY")
        );
        // Headerless (or mangled) snapshots read as generation 0.
        assert_eq!(
            parse_snapshot("CREATE TABLE t (a INT);"),
            (0, 1, "CREATE TABLE t (a INT);")
        );
    }

    #[test]
    fn cleanup_removes_other_generations_and_tmps() {
        let dir = tmp_dir("clean");
        std::fs::write(wal_path(&dir, 3, 0), b"").unwrap();
        std::fs::write(wal_path(&dir, 4, 0), b"").unwrap();
        std::fs::write(wal_path(&dir, 4, 1), b"").unwrap();
        std::fs::write(wal_path(&dir, 5, 2), b"").unwrap();
        std::fs::write(snapshot_tmp_path(&dir, 4), b"junk").unwrap();
        std::fs::write(dir.join(SNAPSHOT_FILE), b"").unwrap();
        cleanup_stale(&dir, 4).unwrap();
        assert!(!wal_path(&dir, 3, 0).exists());
        assert!(wal_path(&dir, 4, 0).exists());
        assert!(wal_path(&dir, 4, 1).exists());
        assert!(!wal_path(&dir, 5, 2).exists());
        assert!(!snapshot_tmp_path(&dir, 4).exists());
        assert!(dir.join(SNAPSHOT_FILE).exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shard_logs_lists_the_generation() {
        let dir = tmp_dir("shards");
        std::fs::write(wal_path(&dir, 2, 1), b"").unwrap();
        std::fs::write(wal_path(&dir, 2, 0), b"").unwrap();
        std::fs::write(wal_path(&dir, 3, 0), b"").unwrap();
        let logs = shard_logs(&dir, 2).unwrap();
        assert_eq!(logs.len(), 2);
        assert_eq!(logs[0].0, 0);
        assert_eq!(logs[1].0, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
