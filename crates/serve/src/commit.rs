//! Group commit over the sharded WAL.
//!
//! Writers validate and apply a statement under its table lock, then
//! [`enqueue`](GroupWal::enqueue) the canonical rendering — which
//! assigns the frame its global epoch and its position in the shard's
//! commit sequence — release their locks, and park in
//! [`wait`](GroupWal::wait) until the shard's durable sequence covers
//! them. There is no dedicated committer thread: the first waiter to
//! win the shard's file mutex (a `try_lock` election, same shape as
//! the snapshot trigger's compare-exchange) drains the queue, writes
//! every pending frame in one `write`, fsyncs once, advances the
//! durable sequence, and wakes the others. Losers park on a condvar
//! with a short timeout so a stalled committer can never strand them:
//! on every wakeup they re-check durability and re-run the election.
//!
//! One fsync therefore covers every statement that queued while the
//! previous fsync was in flight — the classic group-commit bargain:
//! per-statement latency is bounded below by one fsync, but fsyncs
//! per second no longer bound statements per second.
//!
//! ## The cross-shard watermark
//!
//! Recovery replays the longest *contiguous* epoch run (see
//! [`wal::merge_by_epoch`]): a gap censors every later epoch on every
//! shard. Per-shard durability alone would therefore break the ack
//! contract — shard B could fsync and ack epoch `N+1` while epoch `N`
//! sat unwritten in shard A's queue, and a crash in that window would
//! censor the acked frame. So an ack additionally waits for the
//! **global durable-epoch watermark**: [`wait`](GroupWal::wait)
//! returns `Ok` only once *every* epoch at or below the ticket's own
//! is durable, on whichever shard it lives. Each shard publishes the
//! epoch of its oldest queued-or-in-flight frame
//! (`Shard::oldest_pending`); the watermark holds for epoch `e` when
//! no shard's oldest pending frame is `<= e`. A waiter blocked on a
//! lagging shard *helps*: it runs the committer election on every
//! shard still holding an earlier epoch, so progress never depends on
//! the lagging frame's own writer being scheduled.
//!
//! ## Failure contract
//!
//! A statement is acknowledged only after its frame is durable
//! (`--fsync=batch`: covered by the batch fsync; `--fsync=always`:
//! its own fsync) *and* the watermark covers its epoch. If the batch
//! write or fsync fails, the committer rolls the file back to the
//! batch's start, latches the shard *failed* at the first non-durable
//! sequence, and records the batch's first epoch as the store-wide
//! *failed floor*: the lost epochs make a permanent gap, recovery
//! will censor everything past it, so every waiter whose epoch is at
//! or past the floor — on any shard, durable or not — plus every
//! later enqueue attempt gets an error instead of an ack. The
//! in-memory table state of the failed statements is not rolled back
//! (their locks are long gone); a store that lost a batch is degraded
//! and should be restarted, which replays exactly the durable,
//! ack-consistent prefix.

use crate::metrics::{Stage, StoreMetrics};
use crate::wal::{self, Wal};
use crate::watch::{Change, HubMsg, Notice};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, TryLockError};
use std::time::Duration;

/// How long a loser of the committer election parks before re-checking
/// durability and re-running the election.
const PARK: Duration = Duration::from_millis(1);

/// When a statement's frame is forced to stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FsyncMode {
    /// Every frame gets its own fsync before its writer is acked —
    /// the pre-group-commit discipline, kept for comparison and for
    /// the paranoid.
    Always,
    /// One fsync per commit batch (the default): every waiter in the
    /// batch is acked by the same fsync. Identical durability at the
    /// ack boundary; strictly fewer fsyncs.
    #[default]
    Batch,
}

impl std::str::FromStr for FsyncMode {
    type Err = String;
    fn from_str(s: &str) -> Result<FsyncMode, String> {
        match s {
            "always" => Ok(FsyncMode::Always),
            "batch" => Ok(FsyncMode::Batch),
            other => Err(format!("unknown fsync mode {other:?} (always|batch)")),
        }
    }
}

impl std::fmt::Display for FsyncMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            FsyncMode::Always => "always",
            FsyncMode::Batch => "batch",
        })
    }
}

/// A claim on durability: the shard, per-shard commit sequence, and
/// global epoch assigned to one enqueued frame. Redeemed by
/// [`GroupWal::wait`].
#[derive(Debug, Clone, Copy)]
pub struct Ticket {
    shard: usize,
    seq: u64,
    epoch: u64,
}

/// Frames admitted but not yet written, plus the sequence counter that
/// names the next one.
#[derive(Debug)]
struct ShardQueue {
    pending: Vec<(u64, String)>,
    /// What each pending frame did, for the commit listener; parallel
    /// to `pending`.
    notices: Vec<Notice>,
    next_seq: u64,
    /// First epoch of the batch a committer has drained but not yet
    /// made durable (`None` outside a commit). Keeps
    /// `Shard::oldest_pending` honest while frames are in flight.
    in_flight_front: Option<u64>,
}

/// One log shard: its queue, its file, and its durability horizon.
#[derive(Debug)]
struct Shard {
    /// Tier 5: admitted-but-unwritten frames.
    queue: Mutex<ShardQueue>,
    /// Tier 4: the shard's log file; holding it *is* being the
    /// committer (`None` when the store is ephemeral).
    file: Mutex<Option<Wal>>,
    /// Highest commit sequence known durable.
    durable: AtomicU64,
    /// Lowest commit sequence that failed to commit (`u64::MAX` =
    /// healthy). Latched once, never reset: a shard that lost a batch
    /// refuses all further work.
    failed: AtomicU64,
    /// Epoch of this shard's oldest queued-or-in-flight frame
    /// (`u64::MAX` when the shard is fully durable) — the shard's
    /// contribution to the cross-shard ack watermark. Written only
    /// under the queue mutex; read lock-free by
    /// [`GroupWal::durable_through`].
    oldest_pending: AtomicU64,
    /// Parking lot for election losers.
    gate: Mutex<()>,
    cv: Condvar,
}

impl Shard {
    fn new(file: Option<Wal>) -> Shard {
        Shard {
            queue: Mutex::new(ShardQueue {
                pending: Vec::new(),
                notices: Vec::new(),
                next_seq: 1,
                in_flight_front: None,
            }),
            file: Mutex::new(file),
            durable: AtomicU64::new(0),
            failed: AtomicU64::new(u64::MAX),
            oldest_pending: AtomicU64::new(u64::MAX),
            gate: Mutex::new(()),
            cv: Condvar::new(),
        }
    }
}

/// `fsync_fault` value meaning "no fault armed".
const FAULT_NONE: u64 = u64::MAX;

/// `fsync_fault` value meaning "fail the next batch on any shard".
const FAULT_ANY: u64 = u64::MAX - 1;

/// The store's durability plane: every shard plus the global epoch
/// counter whose values stitch the shards back into one history.
#[derive(Debug)]
pub struct GroupWal {
    shards: Vec<Shard>,
    /// Next epoch to assign (epochs start at 1; assignment happens
    /// under the shard queue lock, itself under the statement's table
    /// lock, so epoch order is consistent with application order).
    epoch: AtomicU64,
    /// How long an elected committer lingers before draining, letting
    /// more writers join its batch (0 = drain immediately).
    window: Duration,
    mode: FsyncMode,
    /// Lowest epoch ever lost to a failed batch (`u64::MAX` =
    /// healthy). Latched, never reset: recovery censors every epoch
    /// past the loss, so no statement at or past it may ever ack.
    failed_floor: AtomicU64,
    /// Test hook: when enabled, every committed frame's
    /// `(epoch, payload)` is recorded here at commit time — the oplog
    /// is exactly the durable history, which is what the harness
    /// diffs recovery against.
    oplog: Mutex<Option<Vec<(u64, String)>>>,
    /// Test hook: shard whose next batch fails between `write` and
    /// `fsync` ([`FAULT_ANY`] = whichever commits first,
    /// [`FAULT_NONE`] = disarmed).
    fsync_fault: AtomicU64,
    /// Commit-time listener (the store's WATCH hub): every batch that
    /// becomes durable on its shard is forwarded as one [`Notice`] per
    /// frame. Failed batches are never sent, so a listener that
    /// releases epochs contiguously observes exactly the cross-shard
    /// durable watermark.
    listener: Mutex<Option<std::sync::mpsc::Sender<HubMsg>>>,
    /// The owning store's measurements.
    metrics: Arc<StoreMetrics>,
}

impl GroupWal {
    /// A durability plane with no backing files (ephemeral store):
    /// commit still assigns epochs, advances durable sequences, and
    /// feeds the oplog, it just performs no I/O.
    pub fn ephemeral(
        shards: usize,
        window: Duration,
        mode: FsyncMode,
        metrics: Arc<StoreMetrics>,
    ) -> GroupWal {
        GroupWal {
            shards: (0..shards.max(1)).map(|_| Shard::new(None)).collect(),
            epoch: AtomicU64::new(1),
            window,
            mode,
            failed_floor: AtomicU64::new(u64::MAX),
            oplog: Mutex::new(None),
            fsync_fault: AtomicU64::new(FAULT_NONE),
            listener: Mutex::new(None),
            metrics,
        }
    }

    /// Opens `generation`'s shard logs inside `dir` and reconstructs
    /// the replayable history: every shard present on disk is read
    /// (regardless of the configured shard count, so restarts may
    /// change `--wal-shards` freely), the frames are merged by epoch,
    /// and the longest contiguous run from `epoch_base` is returned as
    /// the statements to replay. Every shard is then physically
    /// truncated past the run's last epoch — frames beyond a gap were
    /// never acknowledged and must not collide with the resumed epoch
    /// counter.
    pub fn recover(
        dir: &Path,
        generation: u64,
        epoch_base: u64,
        shards: usize,
        window: Duration,
        mode: FsyncMode,
        metrics: Arc<StoreMetrics>,
    ) -> io::Result<(GroupWal, Vec<String>)> {
        let shards = shards.max(1);
        let discovered = wal::shard_logs(dir, generation)?;
        let mut per_shard = Vec::with_capacity(discovered.len());
        for (_, path) in &discovered {
            per_shard.push(wal::replay(path)?);
        }
        let (run, last) = wal::merge_by_epoch(per_shard, epoch_base);
        // Truncate-and-open the configured shards (creating missing
        // ones), and truncate any extra on-disk shard from a run with
        // a higher --wal-shards.
        let mut files = Vec::with_capacity(shards);
        for s in 0..shards as u64 {
            files.push(Shard::new(Some(Wal::open_capped(
                dir,
                generation,
                s,
                Some(last),
            )?)));
        }
        for (id, _) in &discovered {
            if *id >= shards as u64 {
                drop(Wal::open_capped(dir, generation, *id, Some(last))?);
            }
        }
        let wal = GroupWal {
            shards: files,
            epoch: AtomicU64::new(last.max(epoch_base.saturating_sub(1)) + 1),
            ..GroupWal::ephemeral(1, window, mode, metrics)
        };
        Ok((wal, run))
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard `table`'s frames commit on.
    pub(crate) fn shard_for(&self, table: &str) -> usize {
        let mut h = DefaultHasher::new();
        table.hash(&mut h);
        (h.finish() % self.shards.len() as u64) as usize
    }

    /// The epoch the next enqueued frame will carry. Only meaningful
    /// while no writer is active (the snapshotter calls this with
    /// every table lock held).
    pub fn epoch_next(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    /// Install the commit-time listener (the store's WATCH hub). Set
    /// once at store construction, before any writer runs.
    pub(crate) fn set_listener(&self, tx: std::sync::mpsc::Sender<HubMsg>) {
        *self.listener.lock().unwrap() = Some(tx);
    }

    /// Assigns `payload` — a statement that made `change` to `table` —
    /// its epoch and its place in its shard's commit queue. Must be
    /// called while still holding the statement's table
    /// (or registry) write lock, so epoch order agrees with
    /// application order. Fails — without enqueuing — if any shard has
    /// already lost a batch (the new frame's epoch would sit past the
    /// failed floor and could never ack); the caller still holds its
    /// lock and can roll the statement back.
    pub(crate) fn enqueue(
        &self,
        table: &str,
        change: Change,
        payload: String,
    ) -> io::Result<Ticket> {
        let idx = self.shard_for(table);
        let shard = &self.shards[idx];
        if shard.failed.load(Ordering::Acquire) != u64::MAX
            || self.failed_floor.load(Ordering::Acquire) != u64::MAX
        {
            return Err(io::Error::other("WAL shard failed; statement refused"));
        }
        let table = table.to_owned();
        let mut q = self
            .metrics
            .timed(Stage::LockWal, || shard.queue.lock().unwrap());
        if q.in_flight_front.is_none() && q.pending.is_empty() {
            // Publish a floor *before* drawing the epoch: the drawn
            // value will be >= the counter read here, and every
            // already-assigned epoch is below it, so a concurrent
            // watermark scan can never observe this shard idle while
            // the new frame's epoch is assigned but not yet visible.
            shard
                .oldest_pending
                .store(self.epoch.load(Ordering::SeqCst), Ordering::SeqCst);
        }
        let epoch = self.epoch.fetch_add(1, Ordering::SeqCst);
        let seq = q.next_seq;
        q.next_seq += 1;
        q.pending.push((epoch, payload));
        q.notices.push(Notice {
            epoch,
            table,
            change,
        });
        if q.in_flight_front.is_none() && q.pending.len() == 1 {
            shard.oldest_pending.store(epoch, Ordering::SeqCst);
        }
        Ok(Ticket {
            shard: idx,
            seq,
            epoch,
        })
    }

    /// Whether every epoch up to and including `epoch` is durable: no
    /// shard still holds — queued or in flight — a frame at or below
    /// it. This is the ack watermark: recovery replays the contiguous
    /// epoch prefix, so an ack must cover its whole epoch prefix, not
    /// just its own shard's fsync.
    fn durable_through(&self, epoch: u64) -> bool {
        self.shards
            .iter()
            .all(|s| s.oldest_pending.load(Ordering::SeqCst) > epoch)
    }

    /// Parks until the ticket's frame — and every earlier epoch on
    /// every shard — is durable (ack), or until the frame can never
    /// legally ack (error): its own shard failed, or an earlier batch
    /// was lost anywhere, leaving a gap recovery would censor this
    /// frame behind. The caller must hold no locks: the waiter may be
    /// elected committer — of its own shard or of any lagging one —
    /// and perform the batch I/O itself.
    pub fn wait(&self, t: Ticket) -> io::Result<()> {
        let shard = &self.shards[t.shard];
        loop {
            if shard.failed.load(Ordering::Acquire) <= t.seq {
                return Err(io::Error::other(
                    "group commit failed; statement not durable",
                ));
            }
            if self.failed_floor.load(Ordering::Acquire) <= t.epoch {
                return Err(io::Error::other(
                    "an earlier commit batch was lost; statement not durable",
                ));
            }
            if shard.durable.load(Ordering::Acquire) >= t.seq && self.durable_through(t.epoch) {
                return Ok(());
            }
            // Election, with help: run the committer protocol on every
            // shard still holding a frame at or before our epoch (our
            // own included), so the watermark advances even if the
            // lagging frames' writers are not scheduled. Only the own
            // shard lingers — help-commits flush old frames, they
            // should not grow batches.
            let mut helped = false;
            for (i, s) in self.shards.iter().enumerate() {
                if s.oldest_pending.load(Ordering::SeqCst) > t.epoch {
                    continue;
                }
                if let Some(mut file) = try_lock(&s.file) {
                    self.commit_locked(i, &mut file, i == t.shard);
                    helped = true;
                }
            }
            if helped {
                continue;
            }
            // Every election lost: park until a committer wakes us (or
            // the timeout re-runs the election, so a stalled committer
            // — or progress on another shard's condvar — can never
            // strand us).
            let gate = shard.gate.lock().unwrap();
            if (shard.durable.load(Ordering::Acquire) >= t.seq && self.durable_through(t.epoch))
                || shard.failed.load(Ordering::Acquire) <= t.seq
                || self.failed_floor.load(Ordering::Acquire) <= t.epoch
            {
                continue;
            }
            let _ = shard.cv.wait_timeout(gate, PARK).unwrap();
            self.metrics.commit_wakeups.add(1);
        }
    }

    /// The committer's critical section: drain the shard's queue and
    /// make the batch durable. Caller holds the shard's file mutex.
    /// `linger` applies the commit window (disabled on the quiescent
    /// snapshot drain path).
    fn commit_locked(&self, idx: usize, file: &mut Option<Wal>, linger: bool) {
        let shard = &self.shards[idx];
        if shard.failed.load(Ordering::Acquire) != u64::MAX {
            // The shard already lost a batch: drain so waiters see
            // `failed` instead of queue growth, but perform no I/O.
            // The dropped frames all sit at or past the failed floor
            // (per-shard epochs are monotone), so retiring them from
            // the watermark cannot release an ack that should block.
            let dropped = {
                let mut q = shard.queue.lock().unwrap();
                q.in_flight_front = None;
                shard.oldest_pending.store(u64::MAX, Ordering::SeqCst);
                q.notices.clear();
                std::mem::take(&mut q.pending)
            };
            if !dropped.is_empty() {
                wake(shard);
            }
            return;
        }
        if linger && !self.window.is_zero() {
            // Linger with the file mutex held: later writers can still
            // enqueue (the queue mutex is free) and join this batch.
            std::thread::sleep(self.window);
        }
        let (batch, notices) = {
            let mut q = shard.queue.lock().unwrap();
            let batch = std::mem::take(&mut q.pending);
            if let Some(&(front, _)) = batch.first() {
                // The frames leave the queue but are not durable yet:
                // keep them visible to the watermark until the fsync
                // lands.
                q.in_flight_front = Some(front);
            }
            (batch, std::mem::take(&mut q.notices))
        };
        if batch.is_empty() {
            return;
        }
        let n = batch.len() as u64;
        let rollback = file.as_ref().map(|w| (w.bytes(), w.records()));
        let res = match file.as_mut() {
            Some(wal) => self.write_batch(idx, wal, &batch),
            None => Ok(()),
        };
        match res {
            Ok(()) => {
                if let Some(log) = self.oplog.lock().unwrap().as_mut() {
                    log.extend(batch.iter().cloned());
                }
                // Frames are durable on this shard from here on:
                // notify the WATCH hub. The hub's contiguous-epoch
                // release turns per-shard durability into the
                // cross-shard watermark.
                if let Some(tx) = self.listener.lock().unwrap().as_ref() {
                    if tx.send(HubMsg::Batch(notices)).is_err() {
                        self.metrics.watch_notify_failed.add(1);
                    }
                }
                shard.durable.fetch_add(n, Ordering::Release);
                {
                    // Retire the batch from the watermark only after
                    // the durable sequence advanced, under the queue
                    // lock so the published epoch can only grow.
                    let mut q = shard.queue.lock().unwrap();
                    q.in_flight_front = None;
                    let next = q.pending.first().map_or(u64::MAX, |&(e, _)| e);
                    shard.oldest_pending.store(next, Ordering::SeqCst);
                }
                self.metrics.commit_batches.add(1);
                self.metrics.commit_frames.add(n);
                self.metrics.commit_batch_size.record_ns(n);
            }
            Err(_) => {
                // Never acked: erase the batch so recovery cannot
                // replay frames their writers saw fail, latch the
                // shard failed from the first non-durable sequence on,
                // and sink the store-wide floor to the batch's first
                // epoch — the lost epochs are a permanent gap, so
                // nothing at or past them may ever ack, on any shard.
                if let (Some(wal), Some((bytes, records))) = (file.as_mut(), rollback) {
                    if wal.truncate_to(bytes, records).is_err() {
                        self.metrics.wal_truncate_failed.add(1);
                    }
                }
                let first_bad = shard.durable.load(Ordering::Acquire) + 1;
                shard.failed.store(first_bad, Ordering::Release);
                self.failed_floor.fetch_min(batch[0].0, Ordering::AcqRel);
                let mut q = shard.queue.lock().unwrap();
                q.in_flight_front = None;
                shard.oldest_pending.store(u64::MAX, Ordering::SeqCst);
                drop(q);
            }
        }
        wake(shard);
    }

    /// Writes one drained batch under the configured fsync discipline.
    fn write_batch(&self, idx: usize, wal: &mut Wal, batch: &[(u64, String)]) -> io::Result<()> {
        // One write and one fsync per batch, or per frame under
        // `--fsync=always`.
        let per_sync = match self.mode {
            FsyncMode::Batch => batch.len().max(1),
            FsyncMode::Always => 1,
        };
        let m = &self.metrics;
        for frames in batch.chunks(per_sync) {
            let bytes = m.timed(Stage::WalAppend, || wal.append_batch(frames))?;
            m.wal_bytes.add(bytes);
            m.wal_records.add(frames.len() as u64);
            if self.take_fault(idx) {
                return Err(io::Error::other("injected fsync fault"));
            }
            m.timed(Stage::WalFsync, || wal.sync())?;
        }
        Ok(())
    }

    /// Consumes an armed fsync fault if it targets shard `idx` (or any
    /// shard). Compare-exchange so concurrent committers fire it once.
    fn take_fault(&self, idx: usize) -> bool {
        let armed = self.fsync_fault.load(Ordering::SeqCst);
        if armed == FAULT_ANY || armed == idx as u64 {
            self.fsync_fault
                .compare_exchange(armed, FAULT_NONE, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
        } else {
            false
        }
    }

    /// Locks every shard file in shard order (tier 4; the snapshot
    /// path holds all of them across the generation switch).
    pub fn lock_files(&self) -> Vec<MutexGuard<'_, Option<Wal>>> {
        self.shards.iter().map(|s| s.file.lock().unwrap()).collect()
    }

    /// Drains every shard into its (old-generation) log — used by the
    /// snapshotter, which at this point holds every table lock, so the
    /// queues are quiescent afterwards.
    pub fn drain_all(&self, files: &mut [MutexGuard<'_, Option<Wal>>]) {
        for (i, f) in files.iter_mut().enumerate() {
            self.commit_locked(i, f, false);
        }
    }

    /// Fsyncs every shard file (graceful shutdown path).
    pub fn sync_all(&self) -> io::Result<()> {
        for shard in &self.shards {
            if let Some(wal) = shard.file.lock().unwrap().as_mut() {
                self.metrics.timed(Stage::WalFsync, || wal.sync())?;
            }
        }
        Ok(())
    }

    /// `(bytes, records)` across all shard logs.
    pub fn size(&self) -> (u64, u64) {
        let mut bytes = 0;
        let mut records = 0;
        for shard in &self.shards {
            if let Some(wal) = shard.file.lock().unwrap().as_ref() {
                bytes += wal.bytes();
                records += wal.records();
            }
        }
        (bytes, records)
    }

    /// Test hook: start recording committed frames.
    pub fn enable_oplog(&self) {
        *self.oplog.lock().unwrap() = Some(Vec::new());
    }

    /// Test hook: the committed history so far, in epoch order. The
    /// per-shard commit order interleaves across shards, so the
    /// recorded frames are sorted by their epochs — the single global
    /// order recovery reproduces.
    pub fn oplog(&self) -> Vec<String> {
        let mut entries = self.oplog.lock().unwrap().clone().unwrap_or_default();
        entries.sort_by_key(|(epoch, _)| *epoch);
        entries.into_iter().map(|(_, payload)| payload).collect()
    }

    /// Test hook: make the next commit batch — on whichever shard
    /// commits first — fail between its `write` and its `fsync`, the
    /// crash window group commit must never ack across.
    pub fn inject_fsync_fault_once(&self) {
        self.fsync_fault.store(FAULT_ANY, Ordering::SeqCst);
    }

    /// Test hook: like [`inject_fsync_fault_once`], but only shard
    /// `shard`'s next batch fails — other shards commit normally, so
    /// tests can build deterministic partial-failure interleavings.
    ///
    /// [`inject_fsync_fault_once`]: GroupWal::inject_fsync_fault_once
    pub fn inject_fsync_fault_on(&self, shard: usize) {
        self.fsync_fault.store(shard as u64, Ordering::SeqCst);
    }
}

/// Wakes a shard's parked waiters (taking the gate briefly first, so a
/// waiter that just checked the horizon but has not parked yet cannot
/// miss the notification).
fn wake(shard: &Shard) {
    drop(shard.gate.lock().unwrap());
    shard.cv.notify_all();
}

/// `try_lock` that treats a poisoned mutex as acquired (the poisoner
/// panicked mid-commit; the shard will latch failed rather than wedge).
fn try_lock<T>(m: &Mutex<T>) -> Option<MutexGuard<'_, T>> {
    match m.try_lock() {
        Ok(g) => Some(g),
        Err(TryLockError::Poisoned(p)) => Some(p.into_inner()),
        Err(TryLockError::WouldBlock) => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_dir::tmp_dir;

    fn meters() -> Arc<StoreMetrics> {
        Arc::default()
    }

    #[test]
    fn enqueue_wait_commits_and_acks() {
        let dir = tmp_dir("ack");
        let (gw, replayed) =
            GroupWal::recover(&dir, 0, 1, 2, Duration::ZERO, FsyncMode::Batch, meters()).unwrap();
        assert!(replayed.is_empty());
        gw.enable_oplog();
        let t1 = gw.enqueue("a", Change::Rows(1), "S1".into()).unwrap();
        let t2 = gw.enqueue("b", Change::Rows(1), "S2".into()).unwrap();
        gw.wait(t1).unwrap();
        gw.wait(t2).unwrap();
        assert_eq!(gw.oplog(), vec!["S1".to_owned(), "S2".to_owned()]);
        // Everything written is replayable in epoch order.
        drop(gw);
        let (gw2, replayed) =
            GroupWal::recover(&dir, 0, 1, 2, Duration::ZERO, FsyncMode::Batch, meters()).unwrap();
        assert_eq!(replayed, vec!["S1".to_owned(), "S2".to_owned()]);
        assert_eq!(gw2.epoch_next(), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn many_writers_share_fsyncs() {
        let dir = tmp_dir("shared");
        let (gw, _) =
            GroupWal::recover(&dir, 0, 1, 1, Duration::ZERO, FsyncMode::Batch, meters()).unwrap();
        let gw = Arc::new(gw);
        let handles: Vec<_> = (0..4)
            .map(|k| {
                let gw = Arc::clone(&gw);
                std::thread::spawn(move || {
                    for i in 0..25 {
                        let t = gw
                            .enqueue("t", Change::Rows(1), format!("S{k}_{i}"))
                            .unwrap();
                        gw.wait(t).unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(gw.size().1, 100);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fsync_fault_fails_waiters_and_erases_the_batch() {
        let dir = tmp_dir("fault");
        let (gw, _) =
            GroupWal::recover(&dir, 0, 1, 1, Duration::ZERO, FsyncMode::Batch, meters()).unwrap();
        gw.enable_oplog();
        let t_ok = gw.enqueue("t", Change::Rows(1), "GOOD".into()).unwrap();
        gw.wait(t_ok).unwrap();
        gw.inject_fsync_fault_once();
        let t_bad = gw.enqueue("t", Change::Rows(1), "BAD".into()).unwrap();
        assert!(gw.wait(t_bad).is_err(), "undurable waiter must not ack");
        assert_eq!(gw.oplog(), vec!["GOOD".to_owned()]);
        // The failed frame was erased: only the durable prefix replays.
        assert_eq!(gw.size().1, 1);
        // The shard is latched failed: further work is refused upfront.
        assert!(gw.enqueue("t", Change::Rows(1), "LATER".into()).is_err());
        drop(gw);
        let (_, replayed) =
            GroupWal::recover(&dir, 0, 1, 1, Duration::ZERO, FsyncMode::Batch, meters()).unwrap();
        assert_eq!(replayed, vec!["GOOD".to_owned()]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn always_mode_syncs_each_frame() {
        let dir = tmp_dir("always");
        let (gw, _) =
            GroupWal::recover(&dir, 0, 1, 1, Duration::ZERO, FsyncMode::Always, meters()).unwrap();
        let t1 = gw.enqueue("t", Change::Rows(1), "A".into()).unwrap();
        let t2 = gw.enqueue("t", Change::Rows(1), "B".into()).unwrap();
        gw.wait(t1).unwrap();
        gw.wait(t2).unwrap();
        assert_eq!(gw.size().1, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn ephemeral_commits_without_io() {
        let gw = GroupWal::ephemeral(4, Duration::ZERO, FsyncMode::Batch, meters());
        gw.enable_oplog();
        let t = gw.enqueue("t", Change::Rows(1), "S".into()).unwrap();
        gw.wait(t).unwrap();
        assert_eq!(gw.oplog(), vec!["S".to_owned()]);
        assert_eq!(gw.size(), (0, 0));
    }

    /// Two table names that land on different shards of `gw` —
    /// (a shard-0 table, a shard-1 table) for a two-shard plane.
    fn two_tables_on_distinct_shards(gw: &GroupWal) -> (String, String) {
        let mut found: [Option<String>; 2] = [None, None];
        for i in 0.. {
            let name = format!("t{i}");
            let shard = gw.shard_for(&name);
            if found[shard].is_none() {
                found[shard] = Some(name);
                if found.iter().all(|f| f.is_some()) {
                    break;
                }
            }
        }
        (found[0].take().unwrap(), found[1].take().unwrap())
    }

    /// The cross-shard watermark: acking epoch 2 on shard B must first
    /// make epoch 1 on shard A durable, even though A's writer never
    /// calls `wait` — otherwise a crash in the window would censor the
    /// acked frame behind the epoch gap.
    #[test]
    fn ack_waits_for_earlier_epochs_on_other_shards() {
        let dir = tmp_dir("watermark");
        let (gw, _) =
            GroupWal::recover(&dir, 0, 1, 2, Duration::ZERO, FsyncMode::Batch, meters()).unwrap();
        let (on_a, on_b) = two_tables_on_distinct_shards(&gw);
        let _t1 = gw.enqueue(&on_a, Change::Rows(1), "S1".into()).unwrap(); // epoch 1, shard 0
        let t2 = gw.enqueue(&on_b, Change::Rows(1), "S2".into()).unwrap(); // epoch 2, shard 1

        // Only the later epoch's waiter runs; it must help-commit
        // shard 0 before it may ack.
        gw.wait(t2).unwrap();
        let a_frames = wal::replay(&wal::wal_path(&dir, 0, 0)).unwrap();
        assert_eq!(
            a_frames,
            vec![(1, "S1".to_owned())],
            "epoch 1 must be durable on shard 0 before epoch 2 acks"
        );
        // And recovery replays both, in epoch order — no gap.
        drop(gw);
        let (_, replayed) =
            GroupWal::recover(&dir, 0, 1, 2, Duration::ZERO, FsyncMode::Batch, meters()).unwrap();
        assert_eq!(replayed, vec!["S1".to_owned(), "S2".to_owned()]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A lost batch poisons every later epoch store-wide: waiters past
    /// the failed floor error on *every* shard (their frames sit past
    /// a permanent gap recovery will censor), later enqueues are
    /// refused, and recovery replays exactly the pre-loss prefix.
    #[test]
    fn lost_batch_fails_later_epochs_on_every_shard() {
        let dir = tmp_dir("floor");
        let (gw, _) =
            GroupWal::recover(&dir, 0, 1, 2, Duration::ZERO, FsyncMode::Batch, meters()).unwrap();
        gw.enable_oplog();
        let (on_a, on_b) = two_tables_on_distinct_shards(&gw);
        let t_early = gw.enqueue(&on_a, Change::Rows(1), "EARLY".into()).unwrap(); // epoch 1
        gw.wait(t_early).unwrap();
        let t_lost = gw.enqueue(&on_a, Change::Rows(1), "LOST".into()).unwrap(); // epoch 2, shard 0
        let t_after = gw.enqueue(&on_b, Change::Rows(1), "AFTER".into()).unwrap(); // epoch 3, shard 1
        gw.inject_fsync_fault_on(0);
        assert!(
            gw.wait(t_lost).is_err(),
            "the lost frame's own waiter must not ack"
        );
        // The healthy shard's frame may even be durable on disk, but
        // it sits past the gap: recovery censors it, so it must fail.
        let err = gw.wait(t_after).unwrap_err();
        assert!(err.to_string().contains("not durable"), "{err}");
        // The store refuses new work on every shard.
        assert!(gw.enqueue(&on_a, Change::Rows(1), "MORE".into()).is_err());
        assert!(gw.enqueue(&on_b, Change::Rows(1), "MORE".into()).is_err());
        // The oplog records only what recovery can reproduce.
        assert_eq!(gw.oplog(), vec!["EARLY".to_owned()]);
        drop(gw);
        let (_, replayed) =
            GroupWal::recover(&dir, 0, 1, 2, Duration::ZERO, FsyncMode::Batch, meters()).unwrap();
        assert_eq!(replayed, vec!["EARLY".to_owned()]);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
