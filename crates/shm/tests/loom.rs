//! Loom model of the SPSC descriptor ring publish/consume protocol.
//!
//! Drives the product's own [`RingView`] `push` and `pop` over a heap
//! buffer laid out like a ring area of a mapped region. Run with:
//!
//! ```text
//! RUSTFLAGS="--cfg loom" cargo test -p xdaq-shm --test loom --release
//! ```
#![cfg(loom)]

use loom::thread;
use xdaq_shm::region::ring_bytes;
use xdaq_shm::{Descriptor, RingView};

const CAP: usize = 4;
/// Sixteen laps of the ring, so the model exercises full-ring
/// rejection and wraparound, and each run crosses the publish window
/// often enough for the stress shim to catch a slot written after its
/// `tail` store (6 items caught it in about half the runs).
const ITEMS: u32 = 64;

/// Zeroed memory for one ring of `CAP` slots, 8-byte aligned like a
/// region's ring area, and its base address.
fn ring_memory() -> (Vec<u64>, *mut u8) {
    let mut mem = vec![0u64; ring_bytes(CAP).div_ceil(8)];
    let base = mem.as_mut_ptr().cast();
    (mem, base)
}

/// Item `i`, never all-zero, so a slot read before its write shows.
fn desc(i: u32) -> Descriptor {
    Descriptor {
        offset: i + 1,
        len: !i,
    }
}

#[test]
fn spsc_ring_never_loses_reorders_or_duplicates() {
    loom::model(|| {
        let (_mem, base) = ring_memory();
        // SAFETY: `_mem` outlives both views (the producer is joined
        // below); one view pushes, the other pops.
        let (tx, rx) = unsafe { (RingView::new(base, CAP), RingView::new(base, CAP)) };
        let producer = thread::spawn(move || {
            let mut sent = 0u32;
            while sent < ITEMS {
                if tx.push(desc(sent)).is_ok() {
                    sent += 1;
                } else {
                    thread::yield_now();
                }
            }
        });
        let mut got = Vec::new();
        while got.len() < ITEMS as usize {
            match rx.pop() {
                Some(d) => got.push(d),
                None => thread::yield_now(),
            }
        }
        producer.join().unwrap();
        // FIFO, gap-free, duplicate-free.
        let expect: Vec<Descriptor> = (0..ITEMS).map(desc).collect();
        assert_eq!(got, expect);
        assert!(rx.pop().is_none(), "ring drained");
    });
}

#[test]
fn full_ring_rejects_until_a_pop_frees_a_slot() {
    loom::model(|| {
        let (_mem, base) = ring_memory();
        // SAFETY: `_mem` outlives the view; one thread pushes and pops.
        let ring = unsafe { RingView::new(base, CAP) };
        for i in 0..CAP as u32 {
            assert!(ring.push(desc(i)).is_ok());
        }
        assert!(ring.push(desc(99)).is_err(), "full ring must reject");
        assert_eq!(ring.pop(), Some(desc(0)));
        assert!(ring.push(desc(99)).is_ok(), "freed slot accepts again");
        for want in 1..CAP as u32 {
            assert_eq!(ring.pop(), Some(desc(want)));
        }
        assert_eq!(ring.pop(), Some(desc(99)));
        assert!(ring.pop().is_none());
    });
}
