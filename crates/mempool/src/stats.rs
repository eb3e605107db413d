//! Pool accounting counters. An allocation bumps `hits` or `misses` and
//! a free bumps `frees`; `allocs` and `live_blocks` are derived.

use std::sync::atomic::{AtomicU64, Ordering};

/// Snapshot of a pool's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolStats {
    /// Successful allocations (`hits + misses`).
    pub allocs: u64,
    /// Allocations served from the free list (recycled blocks).
    pub hits: u64,
    /// Allocations that had to create a fresh block.
    pub misses: u64,
    /// Blocks returned to the pool.
    pub frees: u64,
    /// Failed allocations.
    pub failures: u64,
    /// Blocks currently handed out (`allocs - frees`).
    pub live_blocks: u64,
    /// Most blocks ever handed out simultaneously (high-water mark).
    pub high_water_blocks: u64,
    /// Total bytes of block capacity ever created.
    pub bytes_created: u64,
}

impl PoolStats {
    /// Recycling effectiveness in [0, 1]; `None` before any allocs.
    pub fn hit_rate(&self) -> Option<f64> {
        if self.allocs == 0 {
            None
        } else {
            Some(self.hits as f64 / self.allocs as f64)
        }
    }
}

/// Internal atomic counters shared by both pool implementations.
#[derive(Debug, Default)]
pub(crate) struct AtomicStats {
    pub hits: AtomicU64,
    pub misses: AtomicU64,
    pub frees: AtomicU64,
    pub failures: AtomicU64,
    pub high_water_blocks: AtomicU64,
    pub bytes_created: AtomicU64,
}

impl AtomicStats {
    /// `frees` is read first, `Acquire` against `on_free`'s `Release`:
    /// the allocation of each block it counts is then seen too.
    pub fn snapshot(&self) -> PoolStats {
        let frees = self.frees.load(Ordering::Acquire);
        let hits = self.hits.load(Ordering::Relaxed);
        let misses = self.misses.load(Ordering::Relaxed);
        PoolStats {
            allocs: hits + misses,
            hits,
            misses,
            frees,
            failures: self.failures.load(Ordering::Relaxed),
            live_blocks: hits + misses - frees,
            high_water_blocks: self.high_water_blocks.load(Ordering::Relaxed),
            bytes_created: self.bytes_created.load(Ordering::Relaxed),
        }
    }

    pub fn on_alloc(&self, hit: bool, created_bytes: usize) {
        // `frees` first, as in `snapshot`.
        let frees = self.frees.load(Ordering::Acquire);
        let allocs = if hit {
            self.hits.fetch_add(1, Ordering::Relaxed) + 1 + self.misses.load(Ordering::Relaxed)
        } else {
            self.bytes_created
                .fetch_add(created_bytes as u64, Ordering::Relaxed);
            self.misses.fetch_add(1, Ordering::Relaxed) + 1 + self.hits.load(Ordering::Relaxed)
        };
        let live = allocs - frees;
        if live > self.high_water_blocks.load(Ordering::Relaxed) {
            self.high_water_blocks.fetch_max(live, Ordering::Relaxed);
        }
    }

    pub fn on_free(&self) {
        self.frees.fetch_add(1, Ordering::Release);
    }

    pub fn on_failure(&self) {
        self.failures.fetch_add(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_rate_none_before_allocs() {
        assert_eq!(PoolStats::default().hit_rate(), None);
    }

    #[test]
    fn atomic_stats_snapshot() {
        let s = AtomicStats::default();
        s.on_alloc(false, 100);
        s.on_alloc(true, 0);
        s.on_free();
        s.on_failure();
        let snap = s.snapshot();
        assert_eq!(snap.allocs, 2);
        assert_eq!(snap.hits, 1);
        assert_eq!(snap.misses, 1);
        assert_eq!(snap.frees, 1);
        assert_eq!(snap.failures, 1);
        assert_eq!(snap.live_blocks, 1);
        assert_eq!(snap.high_water_blocks, 2);
        assert_eq!(snap.bytes_created, 100);
        assert_eq!(snap.hit_rate(), Some(0.5));
    }

    #[test]
    fn high_water_survives_frees() {
        let s = AtomicStats::default();
        for _ in 0..3 {
            s.on_alloc(true, 0);
        }
        s.on_free();
        s.on_free();
        s.on_alloc(true, 0);
        let snap = s.snapshot();
        assert_eq!(snap.live_blocks, 2);
        assert_eq!(snap.high_water_blocks, 3, "peak, not current");
    }
}
