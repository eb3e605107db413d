//! RAII frame buffers with recycle-on-drop.

use crate::block::{drop_recycler, Block, BlockRecycler};
use std::ops::{Deref, DerefMut};
use std::sync::Arc;

/// A uniquely-owned pooled buffer holding one encoded I2O frame.
///
/// `FrameBuf` is the currency of the zero-copy path: a peer transport
/// receives wire bytes directly into a `FrameBuf`, the executive
/// dispatches the *same* buffer to the listener, and the reply is
/// built into another pooled buffer. When the buffer is dropped the
/// block goes back to its pool — the paper's "automatic garbage
/// collection".
pub struct FrameBuf {
    /// `Some` until drop or [`FrameBuf::into_parts`].
    block: Option<Block>,
    recycler: Arc<dyn BlockRecycler>,
}

impl FrameBuf {
    /// Wraps a block with its home pool.
    pub fn new(block: Block, recycler: Arc<dyn BlockRecycler>) -> FrameBuf {
        FrameBuf {
            block: Some(block),
            recycler,
        }
    }

    /// A buffer that is not pooled at all (config path, tests).
    pub fn detached(len: usize) -> FrameBuf {
        let mut b = Block::new(len);
        b.set_len(len);
        FrameBuf::new(b, drop_recycler())
    }

    /// A detached buffer initialized from `bytes`.
    pub fn from_bytes(bytes: &[u8]) -> FrameBuf {
        let mut f = FrameBuf::detached(bytes.len());
        f.copy_from_slice(bytes);
        f
    }

    fn block_ref(&self) -> &Block {
        self.block.as_ref().expect("FrameBuf accessed after take")
    }

    fn block_mut(&mut self) -> &mut Block {
        self.block.as_mut().expect("FrameBuf accessed after take")
    }

    /// Valid length in bytes.
    pub fn len(&self) -> usize {
        self.block_ref().len()
    }

    /// True when the valid length is zero.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Capacity of the underlying block.
    pub fn capacity(&self) -> usize {
        self.block_ref().capacity()
    }

    /// Adjusts the valid length (≤ capacity).
    pub fn set_len(&mut self, len: usize) {
        self.block_mut().set_len(len);
    }

    /// Full backing store for receive paths that fill then trim.
    pub fn raw_mut(&mut self) -> &mut [u8] {
        self.block_mut().raw_mut()
    }

    /// Pool-assigned identity of the backing block when it lives in an
    /// external region (see [`Block::external_token`]); `None` for
    /// heap-backed frames. Zero-copy transports branch on this.
    pub fn external_token(&self) -> Option<u64> {
        self.block_ref().external_token()
    }

    /// The frame's valid bytes as one vectored-I/O element (`IoSlice`
    /// is ABI-compatible with `struct iovec` on Unix). A gather-writing
    /// consumer (xpt's `OutQueue`) hands it straight to the kernel, so the frame's pool
    /// block is the I/O buffer and the payload is never copied.
    pub fn io_slice(&self) -> std::io::IoSlice<'_> {
        std::io::IoSlice::new(self.block_ref().bytes())
    }

    /// Dismantles the frame into its block and recycler without
    /// recycling. The caller takes over the block's lifecycle — used
    /// by descriptor-passing transports that hand ownership of a
    /// region-backed block to a peer process.
    pub fn into_parts(mut self) -> (Block, Arc<dyn BlockRecycler>) {
        let block = self.block.take().expect("fresh FrameBuf");
        (block, self.recycler.clone())
    }
}

impl Deref for FrameBuf {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.block_ref().bytes()
    }
}

impl DerefMut for FrameBuf {
    fn deref_mut(&mut self) -> &mut [u8] {
        self.block_mut().bytes_mut()
    }
}

impl Drop for FrameBuf {
    fn drop(&mut self) {
        if let Some(block) = self.block.take() {
            self.recycler.recycle(block);
        }
    }
}

impl std::fmt::Debug for FrameBuf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "FrameBuf(len={}, cap={})", self.len(), self.capacity())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex;

    /// Records recycled block capacities.
    #[derive(Default)]
    struct Recorder {
        recycled: Mutex<Vec<usize>>,
    }

    impl BlockRecycler for Recorder {
        fn recycle(&self, block: Block) {
            self.recycled.lock().push(block.capacity());
        }
    }

    #[test]
    fn drop_returns_block_to_pool() {
        let rec = Arc::new(Recorder::default());
        {
            let mut b = Block::new(128);
            b.set_len(5);
            let _f = FrameBuf::new(b, rec.clone());
        }
        assert_eq!(*rec.recycled.lock(), vec![128]);
    }

    #[test]
    fn deref_sees_valid_prefix_only() {
        let mut f = FrameBuf::detached(4);
        f.copy_from_slice(&[1, 2, 3, 4]);
        assert_eq!(&f[..], &[1, 2, 3, 4]);
        f.set_len(2);
        assert_eq!(&f[..], &[1, 2]);
        assert_eq!(f.capacity(), 4);
    }

    #[test]
    fn from_bytes_copies() {
        let f = FrameBuf::from_bytes(b"abc");
        assert_eq!(&f[..], b"abc");
    }
}
