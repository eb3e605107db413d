//! The paper's original buffer-pool scheme.
//!
//! §5 whitebox: *"The memory allocation scheme used in the whitebox
//! test is not optimised"* — `frameAlloc` took 2.18 µs and dominated
//! PT processing. What the optimized scheme added tells us what the
//! original lacked: *on-demand* growth (so the original pre-allocates
//! everything up front) and *"a table based matching from requested
//! memory size to pool buffer size"* (so the original had no size
//! classes — it searched). The scheme modeled here:
//!
//! * all blocks are created **up front** on one global free list,
//!   mixed sizes in creation order;
//! * one global lock protects the list;
//! * allocation does a **first-fit linear search** for a block whose
//!   capacity fits the request (no size→class table);
//! * freed blocks go back to the end of the list, so a churning
//!   working set degrades locality and search length over time.
//!
//! The linear search under the hot global lock is exactly the cost the
//! optimized [`crate::TablePool`] removes — reproduced by the `ALLOC`
//! experiment.

use crate::block::{Block, BlockRecycler};
use crate::frame_buf::FrameBuf;
use crate::stats::AtomicStats;
use crate::{AllocError, FrameAllocator, PoolStats, MAX_BLOCK_LEN};
use parking_lot::Mutex;
use std::sync::{Arc, Weak};

/// Default pool-size ladder: from tiny control frames up to the 256 KB
/// maximum, mirroring typical DAQ fragment sizes.
pub const DEFAULT_SIZES: &[usize] = &[64, 256, 1024, 4096, 16 * 1024, 64 * 1024, 256 * 1024];

/// Default number of blocks pre-created per size. The paper's DAQ
/// pools are sized for hundreds of outstanding event fragments; the
/// whole ladder is materialized up front (nothing is on-demand in the
/// original scheme).
pub const DEFAULT_PREFILL: usize = 128;

struct Inner {
    /// One global first-fit free list, mixed capacities.
    free: Vec<Block>,
    /// Total blocks created, bounded by `max_blocks`.
    created: usize,
    /// Largest configured block capacity (for overflow requests).
    max_size: usize,
}

/// The original (unoptimized) pool. See module docs.
pub struct SimplePool {
    inner: Mutex<Inner>,
    stats: AtomicStats,
    max_blocks: usize,
    /// Set once at construction so recycled blocks find their way home.
    self_ref: Weak<SimplePool>,
}

impl SimplePool {
    /// Builds a pool with the default ladder and prefill.
    pub fn with_defaults() -> Arc<SimplePool> {
        SimplePool::new(DEFAULT_SIZES, DEFAULT_PREFILL, usize::MAX)
    }

    /// Builds a pool pre-filled with `prefill` blocks of each size in
    /// `sizes` (ascending). `max_blocks` caps total block creation for
    /// failure-injection tests.
    pub fn new(sizes: &[usize], prefill: usize, max_blocks: usize) -> Arc<SimplePool> {
        assert!(!sizes.is_empty(), "need at least one pool size");
        assert!(
            sizes.windows(2).all(|w| w[0] < w[1]),
            "pool sizes must be strictly ascending"
        );
        assert!(
            *sizes.last().unwrap() <= MAX_BLOCK_LEN,
            "pool sizes must not exceed MAX_BLOCK_LEN"
        );
        let stats = AtomicStats::default();
        let mut free = Vec::new();
        let mut created = 0usize;
        'outer: for &cap in sizes {
            for _ in 0..prefill {
                if created >= max_blocks {
                    break 'outer;
                }
                free.push(Block::new(cap));
                created += 1;
                stats
                    .bytes_created
                    .fetch_add(cap as u64, std::sync::atomic::Ordering::Relaxed);
            }
        }
        Arc::new_cyclic(|weak| SimplePool {
            inner: Mutex::new(Inner {
                free,
                created,
                max_size: *sizes.last().unwrap(),
            }),
            stats,
            max_blocks,
            self_ref: weak.clone(),
        })
    }

    fn recycler(&self) -> Arc<dyn BlockRecycler> {
        self.self_ref.upgrade().expect("pool alive") as Arc<dyn BlockRecycler>
    }
}

impl FrameAllocator for SimplePool {
    fn alloc(&self, len: usize) -> Result<FrameBuf, AllocError> {
        if len > MAX_BLOCK_LEN {
            self.stats.on_failure();
            return Err(AllocError::TooLarge(len));
        }
        let mut inner = self.inner.lock();
        // The deliberate first-fit linear search of the original
        // scheme: no size table, walk the list until something fits.
        let mut found: Option<usize> = None;
        for (i, block) in inner.free.iter().enumerate() {
            if block.capacity() >= len {
                found = Some(i);
                break;
            }
        }
        if let Some(i) = found {
            // In-order removal, as a naive list implementation would do
            // (the optimized scheme's per-class free lists make removal
            // O(1); keeping that out is the point of this model).
            let mut block = inner.free.remove(i);
            drop(inner);
            block.set_len(len);
            self.stats.on_alloc(true, 0);
            return Ok(FrameBuf::new(block, self.recycler()));
        }
        if inner.created >= self.max_blocks {
            let live = self.stats.snapshot().live_blocks as usize;
            drop(inner);
            self.stats.on_failure();
            return Err(AllocError::Exhausted {
                requested: len,
                live_blocks: live,
            });
        }
        // Grow by one block of the largest configured size (the
        // original scheme has no per-request size matching).
        let cap = inner.max_size.max(len);
        inner.created += 1;
        drop(inner);
        let mut block = Block::new(cap);
        block.set_len(len);
        self.stats.on_alloc(false, cap);
        Ok(FrameBuf::new(block, self.recycler()))
    }

    fn stats(&self) -> PoolStats {
        self.stats.snapshot()
    }

    fn scheme(&self) -> &'static str {
        "simple"
    }
}

impl BlockRecycler for SimplePool {
    fn recycle(&self, mut block: Block) {
        block.set_len(0);
        let mut inner = self.inner.lock();
        inner.free.push(block);
        self.stats.on_free();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_pool_first_fit_returns_smallest() {
        let p = SimplePool::new(&[64, 1024], 2, usize::MAX);
        let f = p.alloc(65).unwrap();
        assert_eq!(f.capacity(), 1024, "first fitting block");
        assert_eq!(f.len(), 65);
        let g = p.alloc(64).unwrap();
        assert_eq!(g.capacity(), 64);
    }

    #[test]
    fn recycles_blocks() {
        let p = SimplePool::new(&[128], 1, 1);
        let f = p.alloc(100).unwrap();
        drop(f);
        // Budget is 1 block; a second alloc only succeeds via recycling.
        let g = p.alloc(100).unwrap();
        assert_eq!(g.capacity(), 128);
        let s = p.stats();
        assert_eq!(s.allocs, 2);
        assert_eq!(s.hits, 2, "prefilled + recycled");
        assert_eq!(s.frees, 1);
    }

    #[test]
    fn exhaustion_reported() {
        let p = SimplePool::new(&[64], 0, 1);
        let _a = p.alloc(10).unwrap();
        let e = p.alloc(10).unwrap_err();
        assert!(matches!(e, AllocError::Exhausted { .. }));
        assert_eq!(p.stats().failures, 1);
    }

    #[test]
    fn too_large_rejected() {
        let p = SimplePool::with_defaults();
        assert_eq!(
            p.alloc(MAX_BLOCK_LEN + 1).unwrap_err(),
            AllocError::TooLarge(MAX_BLOCK_LEN + 1)
        );
    }

    #[test]
    fn max_block_len_is_allocatable() {
        let p = SimplePool::with_defaults();
        let f = p.alloc(MAX_BLOCK_LEN).unwrap();
        assert_eq!(f.len(), MAX_BLOCK_LEN);
    }

    #[test]
    fn growth_beyond_prefill_creates_blocks() {
        let p = SimplePool::new(&[64], 1, usize::MAX);
        let a = p.alloc(64).unwrap();
        let b = p.alloc(64).unwrap(); // prefill exhausted: fresh block
        assert_eq!(p.stats().misses, 1);
        drop(a);
        drop(b);
    }

    #[test]
    fn live_block_accounting() {
        let p = SimplePool::new(&[64], 4, usize::MAX);
        let a = p.alloc(1).unwrap();
        let b = p.alloc(1).unwrap();
        assert_eq!(p.stats().live_blocks, 2);
        drop(a);
        drop(b);
        assert_eq!(p.stats().live_blocks, 0);
    }

    #[test]
    fn concurrent_alloc_free() {
        let p = SimplePool::new(&[256], 8, usize::MAX);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let p = p.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        let f = p.alloc(200).unwrap();
                        assert_eq!(f.len(), 200);
                    }
                });
            }
        });
        assert_eq!(p.stats().live_blocks, 0);
        assert_eq!(p.stats().allocs, 4000);
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn unsorted_ladder_rejected() {
        let _ = SimplePool::new(&[1024, 64], 1, usize::MAX);
    }
}
