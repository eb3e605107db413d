//! The cross-process frame pool over a mapped region.
//!
//! `ShmPool` is a [`FrameAllocator`] whose blocks live inside the
//! shared region: a `FrameBuf` allocated here can be handed to the
//! peer process as an 8-byte descriptor — the paper's zero-copy claim
//! extended across address spaces. It is simultaneously the
//! [`BlockRecycler`] for those frames, translating a dropped block
//! back to its region slot (which may have been allocated by the
//! *other* process — recycling is symmetric).

use crate::region::Region;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use xdaq_mempool::block::BlockRecycler;
use xdaq_mempool::{AllocError, Block, FrameAllocator, FrameBuf, PoolStats};

/// Packs a region block identity into a [`Block`] token:
/// `region_id << 32 | (index + 1)` (nonzero by construction).
pub fn pack_token(region_id: u32, idx: usize) -> u64 {
    ((region_id as u64) << 32) | (idx as u64 + 1)
}

/// Reverses [`pack_token`] when the token belongs to `region_id`.
pub fn unpack_token(region_id: u32, token: u64) -> Option<usize> {
    if (token >> 32) as u32 == region_id && token & 0xFFFF_FFFF != 0 {
        Some((token & 0xFFFF_FFFF) as usize - 1)
    } else {
        None
    }
}

/// Frame allocator + recycler over one shared region.
pub struct ShmPool {
    region: Arc<Region>,
    /// For minting `Arc<dyn BlockRecycler>` handles to ourselves.
    self_ref: Weak<ShmPool>,
    allocs: AtomicU64,
    frees: AtomicU64,
    failures: AtomicU64,
    live: AtomicU64,
    high_water: AtomicU64,
}

impl ShmPool {
    /// Wraps a mapped region.
    pub fn new(region: Arc<Region>) -> Arc<ShmPool> {
        Arc::new_cyclic(|weak| ShmPool {
            region,
            self_ref: weak.clone(),
            allocs: AtomicU64::new(0),
            frees: AtomicU64::new(0),
            failures: AtomicU64::new(0),
            live: AtomicU64::new(0),
            high_water: AtomicU64::new(0),
        })
    }

    /// The underlying region.
    pub fn region(&self) -> &Arc<Region> {
        &self.region
    }

    /// Fixed block size of this pool.
    pub fn block_size(&self) -> usize {
        self.region.config().block_size
    }

    /// This pool as a recycler handle for `FrameBuf::new`.
    pub fn recycler(&self) -> Arc<dyn BlockRecycler> {
        self.self_ref.upgrade().expect("pool alive") as Arc<dyn BlockRecycler>
    }

    /// True when `token` names a block of this pool's region.
    pub fn owns_token(&self, token: u64) -> bool {
        unpack_token(self.region.id(), token).is_some_and(|i| i < self.region.config().nblocks)
    }

    /// Takes a bare block and its index out of the region free list
    /// (transport internal; applications use [`FrameAllocator::alloc`]).
    pub(crate) fn take_block(&self, len: usize) -> Option<(usize, Block)> {
        let idx = self.region.alloc_block()?;
        let bs = self.block_size();
        // SAFETY: the free list guarantees exclusive ownership of
        // block `idx`; the pointer covers `bs` in-mapping bytes and
        // the Arc<Region> inside this pool (held via every FrameBuf's
        // recycler handle) keeps the mapping alive.
        let mut block = unsafe {
            Block::from_raw_parts(
                self.region.block_ptr(idx),
                bs,
                pack_token(self.region.id(), idx),
            )
        };
        block.set_len(len);
        self.allocs.fetch_add(1, Ordering::Relaxed);
        let live = self.live.fetch_add(1, Ordering::Relaxed) + 1;
        self.high_water.fetch_max(live, Ordering::Relaxed);
        Some((idx, block))
    }

    /// Accounts a block that left this process without being recycled
    /// (ownership moved to the peer through a descriptor).
    pub(crate) fn forget_live(&self) {
        self.live.fetch_sub(1, Ordering::Relaxed);
    }

    /// Accounts a block that arrived from the peer through a
    /// descriptor (now live in this process until recycled).
    pub(crate) fn adopt_live(&self) {
        let live = self.live.fetch_add(1, Ordering::Relaxed) + 1;
        self.high_water.fetch_max(live, Ordering::Relaxed);
    }
}

impl FrameAllocator for ShmPool {
    fn alloc(&self, len: usize) -> Result<FrameBuf, AllocError> {
        if len > self.block_size() {
            self.failures.fetch_add(1, Ordering::Relaxed);
            return Err(AllocError::TooLarge(len));
        }
        match self.take_block(len) {
            Some((_, block)) => Ok(FrameBuf::new(block, self.recycler())),
            None => {
                self.failures.fetch_add(1, Ordering::Relaxed);
                Err(AllocError::Exhausted {
                    requested: len,
                    live_blocks: self.live.load(Ordering::Relaxed) as usize,
                })
            }
        }
    }

    fn stats(&self) -> PoolStats {
        let allocs = self.allocs.load(Ordering::Relaxed);
        PoolStats {
            allocs,
            // Every alloc reuses a pre-created region block.
            hits: allocs,
            misses: 0,
            frees: self.frees.load(Ordering::Relaxed),
            failures: self.failures.load(Ordering::Relaxed),
            live_blocks: self.live.load(Ordering::Relaxed),
            high_water_blocks: self.high_water.load(Ordering::Relaxed),
            bytes_created: 0,
        }
    }

    fn scheme(&self) -> &'static str {
        "shm"
    }
}

impl BlockRecycler for ShmPool {
    fn recycle(&self, block: Block) {
        let Some(token) = block.external_token() else {
            // A heap block cannot belong to this pool; just drop it.
            return;
        };
        match unpack_token(self.region.id(), token) {
            Some(idx) if idx < self.region.config().nblocks => {
                self.region.free_block(idx);
                self.frees.fetch_add(1, Ordering::Relaxed);
                self.live.fetch_sub(1, Ordering::Relaxed);
            }
            // Foreign region's block: its own pool keeps the mapping;
            // dropping the Block here frees nothing (borrowed memory),
            // which is the correct leak-free behaviour for a block
            // whose home pool is already gone.
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::region::ShmConfig;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("xdaq-shm-pool-{}-{name}", std::process::id()))
    }

    fn pool(name: &str) -> Arc<ShmPool> {
        let region = Region::create(
            &tmp(name),
            ShmConfig {
                block_size: 256,
                nblocks: 4,
                ring_capacity: 8,
            },
        )
        .unwrap();
        ShmPool::new(Arc::new(region))
    }

    #[test]
    fn token_packing_round_trips() {
        let t = pack_token(0xDEAD_BEEF, 41);
        assert_eq!(unpack_token(0xDEAD_BEEF, t), Some(41));
        assert_eq!(unpack_token(0xDEAD_BEE0, t), None);
        assert_eq!(unpack_token(0xDEAD_BEEF, (0xDEAD_BEEFu64) << 32), None);
    }

    #[test]
    fn alloc_recycle_cycle() {
        let p = pool("cycle");
        let f = p.alloc(100).unwrap();
        assert_eq!(f.len(), 100);
        assert!(f.external_token().is_some());
        assert!(p.owns_token(f.external_token().unwrap()));
        assert_eq!(p.stats().live_blocks, 1);
        drop(f);
        let s = p.stats();
        assert_eq!((s.live_blocks, s.frees), (0, 1));
    }

    #[test]
    fn exhaustion_then_recovery() {
        let p = pool("exhaust");
        let held: Vec<_> = (0..4).map(|_| p.alloc(10).unwrap()).collect();
        assert!(matches!(
            p.alloc(10),
            Err(AllocError::Exhausted { live_blocks: 4, .. })
        ));
        drop(held);
        assert!(p.alloc(10).is_ok());
    }

    #[test]
    fn oversize_requests_are_rejected() {
        let p = pool("oversize");
        assert!(matches!(p.alloc(257), Err(AllocError::TooLarge(257))));
    }

    #[test]
    fn frames_are_writable_region_memory() {
        let p = pool("write");
        let mut f = p.alloc(32).unwrap();
        f.copy_from_slice(&[0xCD; 32]);
        let tok = f.external_token().unwrap();
        let idx = unpack_token(p.region().id(), tok).unwrap();
        // SAFETY: reading the block this frame exclusively owns.
        let direct = unsafe { std::slice::from_raw_parts(p.region().block_ptr(idx), 32) };
        assert_eq!(direct, &[0xCD; 32]);
    }
}
