//! Lock-free SPSC descriptor rings.
//!
//! One ring per direction per link. The producer process owns `tail`,
//! the consumer process owns `head`; both live on their own cache
//! lines so the two sides never false-share. Descriptors are 8-byte
//! `{offset, len}` records, one per frame: a frame is one region block.
//!
//! The algorithm is the classic power-of-two index ring: indices grow
//! monotonically and are masked on access, so full/empty are
//! `tail - head == cap` / `tail == head` with no reserved slot.
//! `tests/loom.rs` drives this ring's own `push` and `pop` under the
//! loom API.

use std::sync::atomic::{AtomicU32, Ordering};

/// Descriptor size in bytes (layout is `#[repr(C)]`, fixed).
pub const DESC_BYTES: usize = 8;

/// One frame in a ring: the region block holding it and its length.
#[repr(C)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Descriptor {
    /// Block offset from the region base.
    pub offset: u32,
    /// Frame bytes at `offset` (at most one block).
    pub len: u32,
}

/// Ring control block at the start of each ring area.
#[repr(C)]
pub struct RingHdr {
    /// Consumer cursor.
    pub head: AtomicU32,
    _pad0: [u8; 60],
    /// Producer cursor.
    pub tail: AtomicU32,
    _pad1: [u8; 60],
}

/// A process's view of one ring inside a mapped region.
///
/// The view is direction-agnostic: the link hands each side a `tx`
/// view it may only push into and an `rx` view it may only pop from
/// (SPSC discipline is enforced by construction, not at runtime).
pub struct RingView {
    hdr: *const RingHdr,
    slots: *mut Descriptor,
    mask: u32,
    cap: u32,
}

// SAFETY: shared-memory ring; all cross-thread/process access is via
// the head/tail atomics with acquire/release publication of slots.
unsafe impl Send for RingView {}
unsafe impl Sync for RingView {}

impl RingView {
    /// Builds a view over ring memory at `base` (a [`RingHdr`]
    /// followed by `cap` descriptor slots).
    ///
    /// # Safety
    /// `base` must point at a live mapping of at least
    /// [`crate::region::ring_bytes`]`(cap)` bytes, `cap` must be a
    /// power of two, and at most one live producer and one live
    /// consumer may use the ring at a time.
    pub unsafe fn new(base: *mut u8, cap: usize) -> RingView {
        debug_assert!(cap.is_power_of_two());
        RingView {
            hdr: base as *const RingHdr,
            slots: base.add(128) as *mut Descriptor,
            mask: cap as u32 - 1,
            cap: cap as u32,
        }
    }

    fn hdr(&self) -> &RingHdr {
        // SAFETY: `new` contract.
        unsafe { &*self.hdr }
    }

    /// Slot capacity.
    pub fn capacity(&self) -> usize {
        self.cap as usize
    }

    /// Occupied slots (exact for the producer, a lower bound for
    /// everyone else).
    pub fn len(&self) -> usize {
        let h = self.hdr().head.load(Ordering::Acquire);
        let t = self.hdr().tail.load(Ordering::Acquire);
        t.wrapping_sub(h) as usize
    }

    /// True when no descriptors are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Free slots as seen by the producer. Only the producer may rely
    /// on this (the consumer can only grow it concurrently).
    pub fn free_slots(&self) -> usize {
        self.cap as usize - self.len()
    }

    /// Producer: publishes one descriptor. Returns the descriptor
    /// back when the ring is full.
    pub fn push(&self, d: Descriptor) -> Result<(), Descriptor> {
        let hdr = self.hdr();
        let tail = hdr.tail.load(Ordering::Relaxed); // sole producer
        let head = hdr.head.load(Ordering::Acquire);
        if tail.wrapping_sub(head) >= self.cap {
            return Err(d);
        }
        // SAFETY: slot index is masked; the head check above proves
        // the consumer is done with this slot; the release store of
        // `tail` below publishes the plain write.
        unsafe { self.slots.add((tail & self.mask) as usize).write(d) };
        hdr.tail.store(tail.wrapping_add(1), Ordering::Release);
        Ok(())
    }

    /// Consumer: takes the oldest descriptor, if any.
    pub fn pop(&self) -> Option<Descriptor> {
        let hdr = self.hdr();
        let head = hdr.head.load(Ordering::Relaxed); // sole consumer
        let tail = hdr.tail.load(Ordering::Acquire);
        if head == tail {
            return None;
        }
        // SAFETY: head != tail ⇒ the producer's release store made
        // this slot visible; masked index stays in bounds.
        let d = unsafe { self.slots.add((head & self.mask) as usize).read() };
        hdr.head.store(head.wrapping_add(1), Ordering::Release);
        Some(d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring(cap: usize) -> (Vec<u8>, RingView) {
        let mut mem = vec![0u8; crate::region::ring_bytes(cap)];
        // SAFETY: fresh zeroed buffer of the right size, single test
        // thread unless stated otherwise.
        let view = unsafe { RingView::new(mem.as_mut_ptr(), cap) };
        (mem, view)
    }

    fn desc(offset: u32, len: u32) -> Descriptor {
        Descriptor { offset, len }
    }

    #[test]
    fn descriptor_is_8_bytes() {
        assert_eq!(std::mem::size_of::<Descriptor>(), DESC_BYTES);
        assert_eq!(std::mem::size_of::<Descriptor>(), 8);
    }

    #[test]
    fn fifo_order_and_capacity() {
        let (_mem, r) = ring(4);
        assert!(r.is_empty());
        for i in 0..4 {
            r.push(desc(i, 1)).unwrap();
        }
        assert_eq!(r.free_slots(), 0);
        assert!(r.push(desc(99, 1)).is_err(), "full ring refuses");
        for i in 0..4 {
            let d = r.pop().unwrap();
            assert_eq!(d.offset, i);
        }
        assert!(r.pop().is_none());
    }

    #[test]
    fn wraps_many_times() {
        let (_mem, r) = ring(8);
        for i in 0..1000u32 {
            r.push(desc(i, 4)).unwrap();
            assert_eq!(r.pop().unwrap().offset, i);
        }
    }

    #[test]
    fn two_views_one_memory() {
        // Producer and consumer use distinct views, as two processes do.
        let cap = 8;
        let mut mem = vec![0u8; crate::region::ring_bytes(cap)];
        // SAFETY: one producer view, one consumer view, same memory.
        let tx = unsafe { RingView::new(mem.as_mut_ptr(), cap) };
        let rx = unsafe { RingView::new(mem.as_mut_ptr(), cap) };
        tx.push(desc(5, 10)).unwrap();
        let d = rx.pop().unwrap();
        assert_eq!((d.offset, d.len), (5, 10));
        assert!(tx.free_slots() == cap);
    }

    #[test]
    fn concurrent_producer_consumer_stress() {
        const N: u32 = 100_000;
        let cap = 64;
        let mut mem = vec![0u8; crate::region::ring_bytes(cap)];
        let ptr = mem.as_mut_ptr() as usize;
        let producer = std::thread::spawn(move || {
            // SAFETY: sole producer view over live memory (mem is kept
            // alive by the joining thread below).
            let tx = unsafe { RingView::new(ptr as *mut u8, cap) };
            for i in 0..N {
                let mut d = desc(i, i % 17);
                loop {
                    match tx.push(d) {
                        Ok(()) => break,
                        Err(back) => {
                            d = back;
                            std::hint::spin_loop();
                        }
                    }
                }
            }
        });
        // SAFETY: sole consumer view.
        let rx = unsafe { RingView::new(mem.as_mut_ptr(), cap) };
        let mut next = 0u32;
        while next < N {
            if let Some(d) = rx.pop() {
                assert_eq!(d.offset, next, "no loss, no dup, no reorder");
                assert_eq!(d.len, next % 17);
                next += 1;
            } else {
                std::hint::spin_loop();
            }
        }
        producer.join().unwrap();
        assert!(rx.pop().is_none());
    }
}
