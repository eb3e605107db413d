//! The optimized, table-based buffer pool.
//!
//! Paper §5: *"A new allocation scheme that we tried, allocates memory
//! for the buffer pool on demand. Furthermore it relies on a table
//! based matching from requested memory size to pool buffer size, thus
//! the time needed to allocate a frame shrinks dramatically for
//! applications that use similar buffer sizes throughout their
//! lifetimes. In a preliminary black box test we were able to reduce
//! the framework overhead by another 4 µsec to 4.9 µsec."*
//!
//! Design:
//!
//! * size classes are powers of two from 64 B to 256 KB — the
//!   requested-size → class mapping is a constant-time bit operation
//!   (the "table"),
//! * each class has its own free list, a mutex-guarded FIFO
//!   (`Mutex<VecDeque<Block>>`): threads working in different classes
//!   never share a lock. Every allocation and every recycle takes that
//!   lock; a lock-free list is open work (ROADMAP.md item 14). Besides
//!   that lock, an allocation and a recycle each bump one counter
//!   (`stats.rs` derives the rest of the accounting). An
//!   allocation gets the *least* recently freed block of its class.
//!   Blocks are often freed on one thread and reused on another (a
//!   socket driver recycles what the dispatch thread allocated), and
//!   there handing out the block just freed measured slower than
//!   handing out an older one (EXPERIMENTS.md "SHIMS"),
//! * blocks are created **on demand**: nothing is pre-allocated, and a
//!   stable working set reaches 100 % recycle hits after warm-up.

use crate::block::{Block, BlockRecycler};
use crate::frame_buf::FrameBuf;
use crate::stats::AtomicStats;
use crate::{AllocError, FrameAllocator, PoolStats, MAX_BLOCK_LEN};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Weak};

/// Smallest size class: one cache line pair, enough for control frames.
pub const MIN_CLASS: usize = 64;
const MIN_SHIFT: u32 = MIN_CLASS.trailing_zeros();
/// Number of classes: 64, 128, ..., 262144.
pub const NUM_CLASSES: usize = (MAX_BLOCK_LEN.trailing_zeros() - MIN_SHIFT + 1) as usize;

/// Constant-time size→class lookup.
///
/// Returns `None` for requests above [`MAX_BLOCK_LEN`].
#[inline]
pub fn size_class(len: usize) -> Option<usize> {
    if len > MAX_BLOCK_LEN {
        return None;
    }
    let rounded = len.max(MIN_CLASS).next_power_of_two();
    Some((rounded.trailing_zeros() - MIN_SHIFT) as usize)
}

/// Capacity of a class.
#[inline]
pub const fn class_capacity(class: usize) -> usize {
    MIN_CLASS << class
}

/// The optimized pool. See module docs.
pub struct TablePool {
    classes: Vec<Mutex<VecDeque<Block>>>,
    stats: AtomicStats,
    created: AtomicUsize,
    max_blocks: usize,
    /// For minting `Arc<dyn BlockRecycler>` handles to ourselves; set
    /// once by `Arc::new_cyclic`, so an alloc only upgrades it.
    self_ref: Weak<TablePool>,
}

impl TablePool {
    /// Unbounded pool (the usual configuration).
    pub fn with_defaults() -> Arc<TablePool> {
        TablePool::new(usize::MAX)
    }

    /// Pool bounded to `max_blocks` total block creations.
    pub fn new(max_blocks: usize) -> Arc<TablePool> {
        let classes = (0..NUM_CLASSES).map(|_| Mutex::default()).collect();
        Arc::new_cyclic(|weak| TablePool {
            classes,
            stats: AtomicStats::default(),
            created: AtomicUsize::new(0),
            max_blocks,
            self_ref: weak.clone(),
        })
    }

    fn recycler(&self) -> Arc<dyn BlockRecycler> {
        self.self_ref.upgrade().expect("pool alive") as Arc<dyn BlockRecycler>
    }
}

impl FrameAllocator for TablePool {
    #[inline]
    fn alloc(&self, len: usize) -> Result<FrameBuf, AllocError> {
        let Some(class) = size_class(len) else {
            self.stats.on_failure();
            return Err(AllocError::TooLarge(len));
        };
        let recycled = self.classes[class].lock().pop_front();
        if let Some(mut block) = recycled {
            block.set_len(len);
            self.stats.on_alloc(true, 0);
            return Ok(FrameBuf::new(block, self.recycler()));
        }
        // On-demand creation.
        if self.created.fetch_add(1, Ordering::Relaxed) >= self.max_blocks {
            self.created.fetch_sub(1, Ordering::Relaxed);
            self.stats.on_failure();
            return Err(AllocError::Exhausted {
                requested: len,
                live_blocks: self.stats.snapshot().live_blocks as usize,
            });
        }
        let cap = class_capacity(class);
        let mut block = Block::new(cap);
        block.set_len(len);
        self.stats.on_alloc(false, cap);
        Ok(FrameBuf::new(block, self.recycler()))
    }

    fn stats(&self) -> PoolStats {
        self.stats.snapshot()
    }

    fn scheme(&self) -> &'static str {
        "table"
    }
}

impl BlockRecycler for TablePool {
    fn recycle(&self, mut block: Block) {
        let cap = block.capacity();
        // Capacities are always class capacities for our own blocks.
        if let Some(class) = size_class(cap) {
            if class_capacity(class) == cap {
                block.set_len(0);
                self.classes[class].lock().push_back(block);
                self.stats.on_free();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_class_mapping() {
        assert_eq!(size_class(0), Some(0));
        assert_eq!(size_class(1), Some(0));
        assert_eq!(size_class(64), Some(0));
        assert_eq!(size_class(65), Some(1));
        assert_eq!(size_class(128), Some(1));
        assert_eq!(size_class(MAX_BLOCK_LEN), Some(NUM_CLASSES - 1));
        assert_eq!(size_class(MAX_BLOCK_LEN + 1), None);
    }

    #[test]
    fn class_capacity_roundtrip() {
        for c in 0..NUM_CLASSES {
            assert_eq!(size_class(class_capacity(c)), Some(c));
        }
        assert_eq!(class_capacity(NUM_CLASSES - 1), MAX_BLOCK_LEN);
    }

    #[test]
    fn on_demand_then_recycled() {
        let p = TablePool::with_defaults();
        let f = p.alloc(1000).unwrap();
        assert_eq!(f.capacity(), 1024);
        drop(f);
        let s = p.stats();
        assert_eq!(s.misses, 1);
        assert_eq!(s.frees, 1);
        let _g = p.alloc(900).unwrap();
        assert_eq!(p.stats().hits, 1, "same class reuses the block");
    }

    #[test]
    fn stable_working_set_hits_100_percent_after_warmup() {
        let p = TablePool::with_defaults();
        for _ in 0..100 {
            let f = p.alloc(4096).unwrap();
            drop(f);
        }
        let s = p.stats();
        assert_eq!(s.misses, 1);
        assert_eq!(s.hits, 99);
    }

    #[test]
    fn least_recently_freed_block_is_reused_first() {
        let p = TablePool::with_defaults();
        let a = p.alloc(100).unwrap();
        let b = p.alloc(100).unwrap();
        let (pa, pb) = (a.as_ptr(), b.as_ptr());
        drop(a);
        drop(b);
        let c = p.alloc(100).unwrap();
        let d = p.alloc(100).unwrap();
        assert_eq!((c.as_ptr(), d.as_ptr()), (pa, pb), "free list is a FIFO");
    }

    #[test]
    fn budget_enforced() {
        let p = TablePool::new(2);
        let _a = p.alloc(10).unwrap();
        let _b = p.alloc(10).unwrap();
        assert!(matches!(p.alloc(10), Err(AllocError::Exhausted { .. })));
    }

    #[test]
    fn too_large_rejected() {
        let p = TablePool::with_defaults();
        assert!(matches!(
            p.alloc(MAX_BLOCK_LEN * 2),
            Err(AllocError::TooLarge(_))
        ));
    }

    #[test]
    fn concurrent_stress_many_threads() {
        let p = TablePool::with_defaults();
        std::thread::scope(|s| {
            for t in 0..8 {
                let p = p.clone();
                s.spawn(move || {
                    for i in 0..2000usize {
                        let len = 1 + ((i * 37 + t * 101) % 8000);
                        let f = p.alloc(len).unwrap();
                        assert_eq!(f.len(), len);
                    }
                });
            }
        });
        let s = p.stats();
        assert_eq!(s.live_blocks, 0);
        assert_eq!(s.allocs, 16000);
        assert_eq!(s.frees as i64, s.allocs as i64 - s.failures as i64);
    }
}
