//! # xdaq-mempool — zero-copy frame buffer pools
//!
//! Paper §4: *"All communication employs a zero-copy scheme as the
//! message buffers are taken from the executive's memory pool. Memory
//! is allocated in fixed sized blocks with a maximum length of 256 KB.
//! ... Automatic garbage collection is provided, such that blocks are
//! recycled if they are not referenced anymore."*
//!
//! Two allocator implementations reproduce the paper's own ablation
//! (§5 whitebox / preliminary test):
//!
//! * [`SimplePool`] — the **original** scheme: every pool size is
//!   pre-allocated up front and allocation linearly scans the pool
//!   list under one lock for the first size that fits. This is the
//!   scheme whose `frameAlloc` cost (2.18 µs on the paper's Pentium II)
//!   dominates the measured framework overhead.
//! * [`TablePool`] — the **optimized** scheme: *"allocates memory for
//!   the buffer pool on demand. Furthermore it relies on a table based
//!   matching from requested memory size to pool buffer size, thus the
//!   time needed to allocate a frame shrinks dramatically for
//!   applications that use similar buffer sizes throughout their
//!   lifetimes"* — size-class table with O(1) class lookup and
//!   per-class free lists.
//!
//! Both hand out [`FrameBuf`]s: RAII buffers that return their block to
//! the pool on drop (the paper's "automatic garbage collection").
//! A frame has exactly one owner; the executive fans a broadcast out
//! by copying it into one fresh block per receiver. A frame lives in one
//! block: a request beyond [`MAX_BLOCK_LEN`] fails with
//! [`AllocError::TooLarge`], and nothing chains frames.

pub mod block;
pub mod frame_buf;
pub mod simple;
pub mod stats;
pub mod table;

pub use block::{Block, BlockRecycler};
pub use frame_buf::FrameBuf;
pub use simple::SimplePool;
pub use stats::PoolStats;
pub use table::TablePool;

use core::fmt;
use std::sync::Arc;

/// Hard upper bound on one pooled block (paper: 256 KB).
pub const MAX_BLOCK_LEN: usize = xdaq_i2o::MAX_BLOCK_LEN;

/// Allocation failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocError {
    /// Requested more than [`MAX_BLOCK_LEN`]: the frame is too large
    /// for any block.
    TooLarge(usize),
    /// Pool reached its configured block budget.
    Exhausted {
        requested: usize,
        live_blocks: usize,
    },
}

impl fmt::Display for AllocError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AllocError::TooLarge(n) => write!(
                f,
                "frame too large: {n} bytes exceeds max block of {MAX_BLOCK_LEN}"
            ),
            AllocError::Exhausted {
                requested,
                live_blocks,
            } => write!(
                f,
                "pool exhausted: {requested} bytes requested with {live_blocks} blocks live"
            ),
        }
    }
}

impl std::error::Error for AllocError {}

/// A frame allocator usable by the executive and the peer transports.
///
/// Implementations must be thread-safe: PTs in task mode allocate from
/// their own threads while the executive frees on the dispatch thread.
pub trait FrameAllocator: Send + Sync {
    /// Allocates a buffer of at least `len` bytes, length set to `len`.
    fn alloc(&self, len: usize) -> Result<FrameBuf, AllocError>;

    /// Running counters.
    fn stats(&self) -> PoolStats;

    /// Human-readable scheme name (used by benchmark output).
    fn scheme(&self) -> &'static str;
}

/// Object-safe convenience alias used throughout the executive.
pub type DynAllocator = Arc<dyn FrameAllocator>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_error_messages() {
        let e = AllocError::TooLarge(1 << 20);
        assert!(e.to_string().contains("frame too large"));
        let e = AllocError::Exhausted {
            requested: 64,
            live_blocks: 3,
        };
        assert!(e.to_string().contains("exhausted"));
    }
}
