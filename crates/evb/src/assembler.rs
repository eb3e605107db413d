//! The builder-side reassembly table.
//!
//! One [`Assembler`] holds every partially built event of a builder
//! unit: a slot per source, filled as fragments arrive in any order.
//! The table owns the fragments' pool buffers zero-copy — the block a
//! peer transport received into is the block the assembler holds — so
//! dropping (or [`Assembler::recycle`]-ing) a [`Completed`] event or a
//! discarded partial recycles every block back to its pool. Duplicated fragments are rejected without
//! replacing the slot already held; an event completes exactly once,
//! when the last missing source arrives.

use std::time::Instant;
use xdaq_core::{FastMap, TimerId};
use xdaq_mempool::FrameBuf;

/// One stored fragment: the frame buffer and the payload length inside
/// it (header + pattern bytes; the buffer also carries the I2O frame
/// headers in front).
pub type Slot = (FrameBuf, usize);

struct Partial {
    slots: Vec<Option<Slot>>,
    got: usize,
    started: Instant,
    retries: u32,
    timer: Option<TimerId>,
}

/// Outcome of offering one fragment to the table.
#[derive(Debug)]
pub enum Offer {
    /// No partial event with this id exists (never assigned, already
    /// completed, or already discarded) — the caller drops the buffer.
    Unknown,
    /// The slot for this source is already filled.
    Duplicate,
    /// The source id is out of range for the event's slot count.
    Invalid,
    /// Stored; the event is still incomplete.
    Stored,
    /// This fragment completed the event. The partial has been removed
    /// from the table; dropping [`Completed`] recycles the blocks.
    Complete(Completed),
}

/// A fully assembled event, removed from the table.
#[derive(Debug)]
pub struct Completed {
    /// The event id.
    pub event_id: u64,
    /// When assembly of this event began.
    pub started: Instant,
    /// Re-pull rounds it took.
    pub retries: u32,
    /// The timeout timer armed for the event, if any (cancel it).
    pub timer: Option<TimerId>,
    /// The partial's slot table, every slot filled.
    slots: Vec<Option<Slot>>,
}

impl Completed {
    /// One `(buffer, payload_len)` per source, in source order.
    pub fn fragments(&self) -> impl Iterator<Item = &Slot> {
        self.slots.iter().flatten()
    }

    /// Total payload bytes across all fragments (headers included).
    pub fn bytes(&self) -> usize {
        self.fragments().map(|(_, len)| len).sum()
    }
}

/// The reassembly table of one builder unit.
#[derive(Default)]
pub struct Assembler {
    pending: FastMap<u64, Partial>,
    /// Slot tables of recycled events, reused by `begin` so a builder
    /// in steady state allocates nothing per event. Never holds more
    /// tables than events were open at once.
    spare: Vec<Vec<Option<Slot>>>,
}

impl Assembler {
    /// Empty table.
    pub fn new() -> Assembler {
        Assembler::default()
    }

    /// Opens a partial event with `sources` slots. Returns false (and
    /// changes nothing) if the event is already open.
    pub fn begin(&mut self, event_id: u64, sources: usize, now: Instant) -> bool {
        if self.pending.contains_key(&event_id) {
            return false;
        }
        let mut slots = self.spare.pop().unwrap_or_default();
        slots.resize_with(sources.max(1), || None);
        self.pending.insert(
            event_id,
            Partial {
                slots,
                got: 0,
                started: now,
                retries: 0,
                timer: None,
            },
        );
        true
    }

    /// Offers one fragment. The buffer is returned inside the result
    /// (`Complete`) or dropped by the caller (`Unknown`/`Duplicate`/
    /// `Invalid`); on `Stored` the table keeps it.
    pub fn offer(&mut self, event_id: u64, source: usize, slot: Slot) -> Offer {
        let Some(p) = self.pending.get_mut(&event_id) else {
            return Offer::Unknown;
        };
        if source >= p.slots.len() {
            return Offer::Invalid;
        }
        if p.slots[source].is_some() {
            return Offer::Duplicate;
        }
        p.slots[source] = Some(slot);
        p.got += 1;
        if p.got < p.slots.len() {
            return Offer::Stored;
        }
        let p = self.pending.remove(&event_id).expect("present");
        Offer::Complete(Completed {
            event_id,
            started: p.started,
            retries: p.retries,
            timer: p.timer,
            slots: p.slots,
        })
    }

    /// Takes a finished event back: its fragment buffers recycle to
    /// their pools here, and its slot table serves a later `begin`.
    pub fn recycle(&mut self, done: Completed) {
        let mut slots = done.slots;
        slots.clear();
        self.spare.push(slots);
    }

    /// Drops a partial event, returning its timer (to cancel). The
    /// stored buffers are dropped here — every pool block recycles.
    pub fn discard(&mut self, event_id: u64) -> Option<Option<TimerId>> {
        self.pending.remove(&event_id).map(|p| p.timer)
    }

    /// Drops every partial event (run reset), returning the timers.
    pub fn discard_all(&mut self) -> Vec<TimerId> {
        let timers = self.pending.values().filter_map(|p| p.timer).collect();
        self.pending.clear();
        timers
    }

    /// Is this event partially assembled?
    pub fn contains(&self, event_id: u64) -> bool {
        self.pending.contains_key(&event_id)
    }

    /// Source indices still missing for an open event.
    pub fn missing(&self, event_id: u64) -> Vec<usize> {
        self.pending
            .get(&event_id)
            .map(|p| {
                p.slots
                    .iter()
                    .enumerate()
                    .filter(|(_, s)| s.is_none())
                    .map(|(i, _)| i)
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Re-pull rounds consumed so far for an open event.
    pub fn retries(&self, event_id: u64) -> u32 {
        self.pending.get(&event_id).map_or(0, |p| p.retries)
    }

    /// Counts one re-pull round.
    pub fn bump_retries(&mut self, event_id: u64) {
        if let Some(p) = self.pending.get_mut(&event_id) {
            p.retries += 1;
        }
    }

    /// Arms (or replaces) the timeout timer recorded for an event.
    pub fn set_timer(&mut self, event_id: u64, id: TimerId) {
        if let Some(p) = self.pending.get_mut(&event_id) {
            p.timer = Some(id);
        }
    }

    /// Number of partially assembled events.
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// True when no event is in flight.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xdaq_mempool::{FrameAllocator, TablePool};

    fn slot(pool: &TablePool, len: usize) -> Slot {
        (pool.alloc(len).unwrap(), len)
    }

    #[test]
    fn completes_exactly_once_out_of_order() {
        let pool = TablePool::with_defaults();
        let mut a = Assembler::new();
        assert!(a.begin(7, 3, Instant::now()));
        assert!(!a.begin(7, 3, Instant::now()), "double begin rejected");
        assert!(matches!(a.offer(7, 2, slot(&pool, 64)), Offer::Stored));
        assert!(matches!(a.offer(7, 0, slot(&pool, 64)), Offer::Stored));
        assert!(matches!(a.offer(7, 2, slot(&pool, 64)), Offer::Duplicate));
        let Offer::Complete(done) = a.offer(7, 1, slot(&pool, 64)) else {
            panic!("expected completion");
        };
        assert_eq!(done.event_id, 7);
        assert_eq!(done.fragments().count(), 3);
        assert_eq!(done.bytes(), 192);
        assert!(matches!(a.offer(7, 1, slot(&pool, 64)), Offer::Unknown));
        a.recycle(done);
        assert_eq!(pool.stats().live_blocks, 0, "all blocks recycled");
        // The recycled slot table serves the next event, emptied.
        assert!(a.begin(8, 2, Instant::now()));
        assert_eq!(a.missing(8), vec![0, 1]);
    }

    #[test]
    fn discard_recycles_blocks() {
        let pool = TablePool::with_defaults();
        let mut a = Assembler::new();
        a.begin(1, 4, Instant::now());
        for s in 0..3 {
            assert!(matches!(a.offer(1, s, slot(&pool, 128)), Offer::Stored));
        }
        assert_eq!(a.missing(1), vec![3]);
        assert!(pool.stats().live_blocks > 0);
        a.discard(1);
        assert_eq!(pool.stats().live_blocks, 0, "discard frees the partial");
        assert!(matches!(a.offer(1, 3, slot(&pool, 128)), Offer::Unknown));
    }

    #[test]
    fn out_of_range_source_is_invalid() {
        let pool = TablePool::with_defaults();
        let mut a = Assembler::new();
        a.begin(9, 2, Instant::now());
        assert!(matches!(a.offer(9, 2, slot(&pool, 8)), Offer::Invalid));
        assert!(a.contains(9));
    }
}
