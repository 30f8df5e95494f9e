//! The flight recorder: a lock-free ring buffer of structured trace
//! events, process-wide, drained snapshot-style.
//!
//! # Layout
//!
//! Each thread owns a fixed-capacity ring of [`RING_SLOTS`] slots
//! (leaked on first use and registered in a global ring list), with a
//! **per-thread write cursor** — so the hot path never contends on a
//! shared cursor. A global atomic sequence number stamps every event,
//! which is what lets a drain merge the per-thread rings back into one
//! chronological stream.
//!
//! Each slot is a tiny seqlock: the writer stores `2·seq+1` (odd =
//! in-flight) into the slot's state word, writes the payload fields,
//! then stores `2·seq+2` (even = ready). A drain reads the state,
//! the fields, and the state again, and discards the slot unless both
//! state reads agree on the same even value — a torn read is dropped,
//! never surfaced. Sequence numbers are globally unique and monotone,
//! so the even states never repeat (no ABA).
//!
//! Event names are interned `&'static str`s: call sites cache an id
//! once (one lock acquisition per call site per process), and the hot
//! path stores the id — no pointers cross the seqlock, so a torn read
//! can at worst mislabel an event that is then discarded anyway.
//!
//! Recording is off until [`set_flight`]`(true)` (which the `obs`
//! feature gates: without it recording never turns on); while off, every
//! emission point costs one relaxed load. The server turns it on at
//! startup. Draining ([`flight_snapshot`]) is read-only and
//! non-destructive; [`flight_reset`] logically clears the recorder by
//! raising the floor sequence number instead of touching slots, so it
//! is safe against concurrent writers.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed, Ordering::SeqCst};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// What an event marks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum FlightKind {
    /// A span was entered.
    Enter = 0,
    /// A span ended; the event value is its duration in nanoseconds.
    Exit = 1,
    /// A point event (the [`event!`](crate::event!) macro); the value
    /// is caller-defined.
    Instant = 2,
}

impl FlightKind {
    /// Wire/rendering label.
    pub fn as_str(self) -> &'static str {
        match self {
            FlightKind::Enter => "enter",
            FlightKind::Exit => "exit",
            FlightKind::Instant => "instant",
        }
    }
}

/// One drained trace event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightEvent {
    /// Global sequence number (total order across threads).
    pub seq: u64,
    /// Nanoseconds since the recorder's first event.
    pub t_ns: u64,
    /// Index of the originating thread's ring.
    pub thread: usize,
    /// Enter / exit / instant.
    pub kind: FlightKind,
    /// Interned event name.
    pub name: &'static str,
    /// Exit duration, `event!` payload, or 0.
    pub value: u64,
}

impl FlightEvent {
    /// One-line rendering, the payload format of the `TRACE` verb:
    /// `<seq> <t_ns> <thread> <kind> <name> <value>`.
    pub fn line(&self) -> String {
        format!(
            "{} {} {} {} {} {}",
            self.seq,
            self.t_ns,
            self.thread,
            self.kind.as_str(),
            self.name,
            self.value
        )
    }
}

/// Per-thread ring capacity, in events.
pub const RING_SLOTS: usize = 1024;

struct Slot {
    /// 0 = never written; `2·seq+1` = write in flight; `2·seq+2` =
    /// ready. Monotone per slot, so readers can't be fooled.
    state: AtomicU64,
    t_ns: AtomicU64,
    /// `(name_id << 8) | kind` — one word so the pair can't tear
    /// against each other.
    id_kind: AtomicU64,
    value: AtomicU64,
}

struct Ring {
    cursor: AtomicU64,
    slots: Vec<Slot>,
}

impl Ring {
    fn new() -> Ring {
        Ring {
            cursor: AtomicU64::new(0),
            slots: (0..RING_SLOTS)
                .map(|_| Slot {
                    state: AtomicU64::new(0),
                    t_ns: AtomicU64::new(0),
                    id_kind: AtomicU64::new(0),
                    value: AtomicU64::new(0),
                })
                .collect(),
        }
    }
}

static FLIGHT: AtomicBool = AtomicBool::new(false);
static SEQ: AtomicU64 = AtomicU64::new(0);
/// Events with `seq < FLOOR` are logically cleared.
static FLOOR: AtomicU64 = AtomicU64::new(0);

/// Every thread's ring, in registration order.
static RINGS: Mutex<Vec<&'static Ring>> = Mutex::new(Vec::new());
/// Interned event names; an event's name id indexes this table.
static NAMES: Mutex<Vec<&'static str>> = Mutex::new(Vec::new());

fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH
        .get_or_init(Instant::now)
        .elapsed()
        .as_nanos()
        .min(u64::MAX as u128) as u64
}

thread_local! {
    static RING: Cell<Option<&'static Ring>> = const { Cell::new(None) };
}

fn current_ring() -> &'static Ring {
    RING.with(|cell| match cell.get() {
        Some(ring) => ring,
        None => {
            // One leak per thread, bounded by thread count; the
            // ring must outlive the thread so drains stay safe.
            let ring: &'static Ring = Box::leak(Box::new(Ring::new()));
            RINGS.lock().expect("flight rings").push(ring);
            cell.set(Some(ring));
            ring
        }
    })
}

/// Turns flight recording on or off process-wide (a no-op without the
/// `obs` feature).
pub fn set_flight(on: bool) {
    FLIGHT.store(on && crate::ENABLED, Relaxed);
}

/// Whether events are being recorded. Checked before any other
/// work, so a disabled recorder costs one relaxed load per
/// emission point.
#[inline]
pub fn flight_enabled() -> bool {
    FLIGHT.load(Relaxed)
}

/// Interns an event name, returning its stable id. Call sites
/// cache the id (the [`event!`](crate::event!) macro does), so the
/// lock here is taken once per call site per process.
pub fn flight_intern(name: &'static str) -> u32 {
    let mut table = NAMES.lock().expect("flight names");
    match table.iter().position(|n| *n == name) {
        Some(i) => i as u32,
        None => {
            table.push(name);
            (table.len() - 1) as u32
        }
    }
}

/// Records one event under an interned name id. The hot path: one
/// global fetch-add for the sequence number, one per-thread cursor
/// bump, four slot stores. No locks, no allocation.
pub fn flight_record_id(id: u32, kind: FlightKind, value: u64) {
    if !flight_enabled() {
        return;
    }
    let ring = current_ring();
    let seq = SEQ.fetch_add(1, SeqCst);
    let idx = (ring.cursor.fetch_add(1, Relaxed) as usize) % RING_SLOTS;
    let slot = &ring.slots[idx];
    slot.state.store(seq * 2 + 1, SeqCst);
    slot.t_ns.store(now_ns(), SeqCst);
    slot.id_kind.store(((id as u64) << 8) | kind as u64, SeqCst);
    slot.value.store(value, SeqCst);
    slot.state.store(seq * 2 + 2, SeqCst);
}

/// Drains a snapshot of the recorder: the last `last` events (by
/// global sequence) still resident in the per-thread rings, sorted
/// chronologically. Non-destructive; concurrent writers at worst
/// cause individual torn slots to be skipped.
pub fn flight_snapshot(last: usize) -> Vec<FlightEvent> {
    let floor = FLOOR.load(SeqCst);
    let names: Vec<&'static str> = NAMES.lock().expect("flight names").clone();
    let rings: Vec<&'static Ring> = RINGS.lock().expect("flight rings").clone();
    let mut out = Vec::new();
    for (thread, ring) in rings.iter().enumerate() {
        for slot in &ring.slots {
            let s1 = slot.state.load(SeqCst);
            if s1 < 2 || s1 % 2 == 1 {
                continue; // empty or mid-write
            }
            let t_ns = slot.t_ns.load(SeqCst);
            let id_kind = slot.id_kind.load(SeqCst);
            let value = slot.value.load(SeqCst);
            if slot.state.load(SeqCst) != s1 {
                continue; // overwritten while reading
            }
            let seq = s1 / 2 - 1;
            if seq < floor {
                continue; // logically cleared
            }
            let kind = match id_kind & 0xff {
                0 => FlightKind::Enter,
                1 => FlightKind::Exit,
                _ => FlightKind::Instant,
            };
            let name = names
                .get((id_kind >> 8) as usize)
                .copied()
                .unwrap_or("<unknown>");
            out.push(FlightEvent {
                seq,
                t_ns,
                thread,
                kind,
                name,
                value,
            });
        }
    }
    out.sort_by_key(|e| e.seq);
    if out.len() > last {
        out.drain(..out.len() - last);
    }
    out
}

/// Logically clears the recorder: every event recorded so far
/// disappears from future snapshots. Safe against concurrent
/// writers (it only raises the floor sequence number).
pub fn flight_reset() {
    FLOOR.store(SEQ.load(SeqCst), SeqCst);
}
