//! Bounded ring-buffer frame tracer.
//!
//! Records per-frame lifecycle events with a global sequence number
//! and a monotonic timestamp. The ring is lock-free: writers claim a
//! slot with one `fetch_add` and overwrite the oldest entry when the
//! ring wraps. When tracing is disabled the record path is a single
//! relaxed load and branch — cheap enough to leave compiled into every
//! hot path permanently.
//!
//! A slot is three atomics written without synchronization between
//! them; a reader racing a writer may observe a torn record. Dumps are
//! taken from quiesced or slow-path contexts (the executive answering
//! a trace-dump request), where this is acceptable — the
//! sequence number lets readers discard records that changed under
//! them.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// What happened to a frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum TraceEvent {
    /// Frame buffer allocated from a pool.
    Alloc = 0,
    /// Frame queued for dispatch.
    Enqueue = 1,
    /// Frame handed to a device listener.
    Dispatch = 2,
    /// Frame sent through a peer transport.
    PtSend = 3,
    /// Frame received from a peer transport.
    PtRecv = 4,
    /// Frame buffer returned to its pool.
    Recycle = 5,
    /// Frame dropped (no route, queue purge, PT failure).
    Drop = 6,
}

impl TraceEvent {
    /// Event from its wire byte.
    pub fn from_u8(v: u8) -> Option<TraceEvent> {
        Some(match v {
            0 => TraceEvent::Alloc,
            1 => TraceEvent::Enqueue,
            2 => TraceEvent::Dispatch,
            3 => TraceEvent::PtSend,
            4 => TraceEvent::PtRecv,
            5 => TraceEvent::Recycle,
            6 => TraceEvent::Drop,
            _ => return None,
        })
    }

    /// Stable lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            TraceEvent::Alloc => "alloc",
            TraceEvent::Enqueue => "enqueue",
            TraceEvent::Dispatch => "dispatch",
            TraceEvent::PtSend => "pt_send",
            TraceEvent::PtRecv => "pt_recv",
            TraceEvent::Recycle => "recycle",
            TraceEvent::Drop => "drop",
        }
    }
}

/// One decoded trace entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceRecord {
    /// Global record sequence number (monotonic per tracer).
    pub seq: u64,
    /// Nanoseconds since the tracer was created.
    pub ts_ns: u64,
    /// What happened.
    pub event: TraceEvent,
    /// Primary subject, typically the frame's target TiD.
    pub a: u32,
    /// Auxiliary datum, typically priority or payload length.
    pub b: u32,
}

#[derive(Debug)]
struct Slot {
    // seq + 1; 0 means never written.
    seq1: AtomicU64,
    ts_ns: AtomicU64,
    // event << 32 is packed with nothing else; a/b share the word.
    event: AtomicU64,
    ab: AtomicU64,
}

/// The ring. See the module docs for the concurrency contract.
#[derive(Debug)]
pub struct FrameTracer {
    enabled: AtomicBool,
    head: AtomicU64,
    slots: Box<[Slot]>,
    epoch: Instant,
}

impl FrameTracer {
    /// A tracer holding the last `capacity` records (rounded up to a
    /// power of two, minimum 8). Starts disabled.
    pub fn new(capacity: usize) -> FrameTracer {
        let cap = capacity.max(8).next_power_of_two();
        FrameTracer {
            enabled: AtomicBool::new(false),
            head: AtomicU64::new(0),
            slots: (0..cap)
                .map(|_| Slot {
                    seq1: AtomicU64::new(0),
                    ts_ns: AtomicU64::new(0),
                    event: AtomicU64::new(0),
                    ab: AtomicU64::new(0),
                })
                .collect(),
            epoch: Instant::now(),
        }
    }

    /// Number of slots in the ring.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Turns recording on or off.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Whether records are currently accepted.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Records one event. When disabled this is one load + branch.
    #[inline]
    pub fn record(&self, event: TraceEvent, a: u32, b: u32) {
        if !self.is_enabled() {
            return;
        }
        self.record_always(event, a, b);
    }

    /// The slow half of [`FrameTracer::record`], kept out of line so
    /// the disabled fast path stays a branch over a tiny function.
    #[cold]
    fn record_always(&self, event: TraceEvent, a: u32, b: u32) {
        let seq = self.head.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(seq as usize) & (self.slots.len() - 1)];
        let ts = self.epoch.elapsed().as_nanos() as u64;
        slot.ts_ns.store(ts, Ordering::Relaxed);
        slot.event.store(event as u64, Ordering::Relaxed);
        slot.ab
            .store(((a as u64) << 32) | b as u64, Ordering::Relaxed);
        // seq last: a record is only considered present once complete
        // (best-effort; see module docs).
        slot.seq1.store(seq + 1, Ordering::Release);
    }

    /// Total records ever accepted (including overwritten ones).
    pub fn recorded(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
    }

    /// Clears the ring (records remain possible while clearing).
    pub fn clear(&self) {
        for slot in self.slots.iter() {
            slot.seq1.store(0, Ordering::Relaxed);
        }
    }

    /// Copies out the surviving records, oldest first.
    pub fn dump(&self) -> Vec<TraceRecord> {
        let mut out: Vec<TraceRecord> = self
            .slots
            .iter()
            .filter_map(|slot| {
                let seq1 = slot.seq1.load(Ordering::Acquire);
                if seq1 == 0 {
                    return None;
                }
                let ab = slot.ab.load(Ordering::Relaxed);
                Some(TraceRecord {
                    seq: seq1 - 1,
                    ts_ns: slot.ts_ns.load(Ordering::Relaxed),
                    event: TraceEvent::from_u8(slot.event.load(Ordering::Relaxed) as u8)?,
                    a: (ab >> 32) as u32,
                    b: ab as u32,
                })
            })
            .collect();
        out.sort_by_key(|r| r.seq);
        out
    }

    /// JSON form of [`FrameTracer::dump`]: records as
    /// `[seq, ts_ns, event, a, b]` rows plus ring metadata.
    pub fn dump_value(&self) -> serde_json::Value {
        let records: Vec<serde_json::Value> = self
            .dump()
            .into_iter()
            .map(|r| serde_json::json!([r.seq, r.ts_ns, r.event.name(), r.a, r.b]))
            .collect();
        serde_json::json!({
            "capacity": self.capacity(),
            "recorded": self.recorded(),
            "enabled": self.is_enabled(),
            "records": records,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = FrameTracer::new(16);
        t.record(TraceEvent::Alloc, 1, 2);
        assert_eq!(t.recorded(), 0);
        assert!(t.dump().is_empty());
    }

    #[test]
    fn records_in_order_with_sequence() {
        let t = FrameTracer::new(16);
        t.set_enabled(true);
        t.record(TraceEvent::Alloc, 0x10, 0);
        t.record(TraceEvent::Enqueue, 0x10, 3);
        t.record(TraceEvent::Dispatch, 0x10, 3);
        let d = t.dump();
        assert_eq!(d.len(), 3);
        assert_eq!(d[0].seq, 0);
        assert_eq!(d[2].event, TraceEvent::Dispatch);
        assert_eq!(d[1].b, 3);
        assert!(d.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns));
    }

    #[test]
    fn ring_keeps_newest_on_wrap() {
        let t = FrameTracer::new(8);
        t.set_enabled(true);
        for i in 0..20u32 {
            t.record(TraceEvent::Dispatch, i, 0);
        }
        let d = t.dump();
        assert_eq!(d.len(), 8);
        assert_eq!(d.first().unwrap().a, 12);
        assert_eq!(d.last().unwrap().a, 19);
        assert_eq!(t.recorded(), 20);
    }

    #[test]
    fn clear_and_json() {
        let t = FrameTracer::new(8);
        t.set_enabled(true);
        t.record(TraceEvent::PtSend, 7, 128);
        let v = t.dump_value();
        assert_eq!(v["records"][0][2].as_str(), Some("pt_send"));
        assert_eq!(v["records"][0][4].as_u64(), Some(128));
        t.clear();
        assert!(t.dump().is_empty());
    }

    #[test]
    fn concurrent_writers_keep_unique_seqs() {
        let t = std::sync::Arc::new(FrameTracer::new(1024));
        t.set_enabled(true);
        let mut joins = Vec::new();
        for id in 0..4u32 {
            let t = t.clone();
            joins.push(std::thread::spawn(move || {
                for i in 0..200 {
                    t.record(TraceEvent::Dispatch, id, i);
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        let d = t.dump();
        assert_eq!(d.len(), 800);
        let mut seqs: Vec<u64> = d.iter().map(|r| r.seq).collect();
        seqs.dedup();
        assert_eq!(seqs.len(), 800);
    }
}
