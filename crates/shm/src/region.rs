//! The mmap-backed cross-process pool region.
//!
//! Layout (all offsets fixed at creation, see DESIGN.md §9):
//!
//! ```text
//! +---------------------------+ 0
//! | RegionHdr (one 4 KB page) |   magic/version/geometry, free-list
//! |                           |   head and counters, 2 side slots
//! +---------------------------+ 4096
//! | ring A→B                  |   RingHdr + cap descriptors
//! +---------------------------+
//! | ring B→A                  |   RingHdr + cap descriptors
//! +---------------------------+ blocks_off (page aligned)
//! | block 0 | block 1 | ...   |   nblocks × block_size payload blocks
//! +---------------------------+
//! ```
//!
//! The free list is a tagged Treiber stack shared by both processes:
//! `free_head` packs `(aba_tag << 32) | (index + 1)` and each free
//! block stores its successor's `index + 1` in its first eight bytes.
//! The tag makes pop immune to ABA when both sides allocate and
//! recycle concurrently.

use std::fs::{File, OpenOptions};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

/// `b"XDAQSHM1"` little-endian.
pub const SHM_MAGIC: u64 = u64::from_le_bytes(*b"XDAQSHM1");
/// Region layout version; bumped whenever `RegionHdr` or `SideHdr`
/// changes, so a process built against another layout cannot attach.
pub const SHM_VERSION: u32 = 3;
/// Header page size.
pub const HEADER_BYTES: usize = 4096;
/// Hard cap on one pooled block (paper: 256 KB).
pub const MAX_BLOCK: usize = 256 * 1024;

/// Creator side of a link.
pub const SIDE_A: usize = 0;
/// Attacher side of a link.
pub const SIDE_B: usize = 1;

/// Per-process slot in the region header. One cache line.
#[repr(C)]
pub struct SideHdr {
    /// 1 while the side's process holds the mapping.
    pub attached: AtomicU32,
    /// OS pid of the attached process.
    pub pid: AtomicU32,
    /// Bumped on every attach/detach; a changed epoch with the same
    /// slot means the peer restarted.
    pub epoch: AtomicU64,
    _pad: [u8; 48],
}

/// Region header. Field groups are cache-line separated so free-list
/// CAS traffic does not bounce the read-mostly geometry line.
#[repr(C)]
pub struct RegionHdr {
    /// [`SHM_MAGIC`]; written last during creation (release) so an
    /// attacher never observes a half-initialized region.
    pub magic: AtomicU64,
    pub version: AtomicU32,
    pub block_size: AtomicU32,
    pub nblocks: AtomicU32,
    pub ring_cap: AtomicU32,
    /// Random-ish nonzero id baked into every block token.
    pub region_id: AtomicU32,
    _pad0: [u8; 36],
    /// Tagged free-list head: `(tag << 32) | (index + 1)`, 0 = empty.
    pub free_head: AtomicU64,
    _pad1: [u8; 56],
    /// Blocks handed out of the free list (both sides).
    pub shm_allocs: AtomicU64,
    /// Blocks returned to the free list (both sides).
    pub shm_frees: AtomicU64,
    _pad2: [u8; 48],
    pub sides: [SideHdr; 2],
}

/// Geometry of a new region.
#[derive(Debug, Clone, Copy)]
pub struct ShmConfig {
    /// Fixed block size, power of two, 64 B ..= 256 KB.
    pub block_size: usize,
    /// Number of pool blocks shared by both sides.
    pub nblocks: usize,
    /// Descriptor ring capacity per direction, power of two.
    pub ring_capacity: usize,
}

impl Default for ShmConfig {
    fn default() -> ShmConfig {
        ShmConfig {
            block_size: 64 * 1024,
            nblocks: 256,
            ring_capacity: 1024,
        }
    }
}

impl ShmConfig {
    fn validate(&self) -> Result<(), String> {
        if !self.block_size.is_power_of_two() || !(64..=MAX_BLOCK).contains(&self.block_size) {
            return Err(format!(
                "block_size {} must be a power of two in 64..=256K",
                self.block_size
            ));
        }
        if self.nblocks == 0 || self.nblocks > u32::MAX as usize / 2 {
            return Err(format!("nblocks {} out of range", self.nblocks));
        }
        if !self.ring_capacity.is_power_of_two() || self.ring_capacity < 2 {
            return Err(format!(
                "ring_capacity {} must be a power of two ≥ 2",
                self.ring_capacity
            ));
        }
        Ok(())
    }
}

/// Bytes of one ring: padded head + padded tail + slots.
pub fn ring_bytes(cap: usize) -> usize {
    128 + cap * crate::ring::DESC_BYTES
}

fn page_align(n: usize) -> usize {
    (n + 4095) & !4095
}

/// One mapped shared region (creator or attacher view).
pub struct Region {
    base: *mut u8,
    map_len: usize,
    path: PathBuf,
    /// Creator unlinks the backing file on drop.
    owner: bool,
    /// Keeps the backing file open for the life of the mapping.
    _file: File,
}

// SAFETY: all mutation of the mapping goes through atomics in the
// header/ring structs or through uniquely-owned blocks handed out by
// the free list.
unsafe impl Send for Region {}
unsafe impl Sync for Region {}

fn next_region_id() -> u32 {
    static SEQ: AtomicU32 = AtomicU32::new(1);
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    // Mix pid and a process-local sequence so tokens from a stale or
    // foreign region never validate against this one.
    let mixed = (std::process::id() << 8) ^ seq.rotate_left(16) ^ 0x9E37_79B9;
    if mixed == 0 {
        1
    } else {
        mixed
    }
}

impl Region {
    /// Creates and maps a fresh region at `path` (truncating any
    /// leftover file), initializing header, rings and free list.
    pub fn create(path: &Path, cfg: ShmConfig) -> Result<Region, String> {
        cfg.validate()?;
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)
            .map_err(|e| format!("create {}: {e}", path.display()))?;
        let region = Region::map(file, path, cfg, true)?;
        region.init(cfg);
        Ok(region)
    }

    /// Maps an existing region created by a peer process, validating
    /// magic and version.
    pub fn attach(path: &Path) -> Result<Region, String> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(path)
            .map_err(|e| format!("open {}: {e}", path.display()))?;
        let len = file
            .metadata()
            .map_err(|e| format!("stat {}: {e}", path.display()))?
            .len() as usize;
        if len < HEADER_BYTES {
            return Err(format!("{}: too small for a region", path.display()));
        }
        let base =
            xdaq_sys::mmap_shared(raw_fd(&file), len).map_err(|e| format!("mmap: errno {e}"))?;
        let region = Region {
            base,
            map_len: len,
            path: path.to_path_buf(),
            owner: false,
            _file: file,
        };
        let hdr = region.hdr();
        if hdr.magic.load(Ordering::Acquire) != SHM_MAGIC {
            return Err(format!("{}: bad region magic", path.display()));
        }
        let version = hdr.version.load(Ordering::Relaxed);
        if version != SHM_VERSION {
            return Err(format!(
                "{}: region layout version {version}, this build reads {SHM_VERSION}",
                path.display()
            ));
        }
        let expect = Region::total_bytes(&region.config());
        if len < expect {
            return Err(format!(
                "{}: mapped {len} bytes, geometry needs {expect}",
                path.display()
            ));
        }
        Ok(region)
    }

    fn map(file: File, path: &Path, cfg: ShmConfig, owner: bool) -> Result<Region, String> {
        let len = Region::total_bytes(&cfg);
        file.set_len(len as u64)
            .map_err(|e| format!("truncate {}: {e}", path.display()))?;
        let base =
            xdaq_sys::mmap_shared(raw_fd(&file), len).map_err(|e| format!("mmap: errno {e}"))?;
        Ok(Region {
            base,
            map_len: len,
            path: path.to_path_buf(),
            owner,
            _file: file,
        })
    }

    /// Total mapping size for a geometry.
    pub fn total_bytes(cfg: &ShmConfig) -> usize {
        page_align(HEADER_BYTES + 2 * ring_bytes(cfg.ring_capacity)) + cfg.block_size * cfg.nblocks
    }

    fn init(&self, cfg: ShmConfig) {
        let hdr = self.hdr();
        hdr.version.store(SHM_VERSION, Ordering::Relaxed);
        hdr.block_size
            .store(cfg.block_size as u32, Ordering::Relaxed);
        hdr.nblocks.store(cfg.nblocks as u32, Ordering::Relaxed);
        hdr.ring_cap
            .store(cfg.ring_capacity as u32, Ordering::Relaxed);
        hdr.region_id.store(next_region_id(), Ordering::Relaxed);
        // Chain every block through its first word: i → i+1, last → nil.
        for i in 0..cfg.nblocks {
            let next = if i + 1 < cfg.nblocks {
                (i + 2) as u64
            } else {
                0
            };
            self.block_link(i).store(next, Ordering::Relaxed);
        }
        hdr.free_head.store(1, Ordering::Relaxed); // index 0, tag 0
                                                   // Publish: attachers spin on magic.
        hdr.magic.store(SHM_MAGIC, Ordering::Release);
    }

    /// The header view.
    #[allow(clippy::missing_panics_doc)]
    pub fn hdr(&self) -> &RegionHdr {
        // SAFETY: base is a live RW mapping ≥ HEADER_BYTES and the
        // header is plain atomics initialized to zeroed file contents.
        unsafe { &*(self.base as *const RegionHdr) }
    }

    /// Geometry as stored in the header.
    pub fn config(&self) -> ShmConfig {
        let hdr = self.hdr();
        ShmConfig {
            block_size: hdr.block_size.load(Ordering::Relaxed) as usize,
            nblocks: hdr.nblocks.load(Ordering::Relaxed) as usize,
            ring_capacity: hdr.ring_cap.load(Ordering::Relaxed) as usize,
        }
    }

    /// Nonzero id baked into block tokens.
    pub fn id(&self) -> u32 {
        self.hdr().region_id.load(Ordering::Relaxed)
    }

    /// Backing file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Base of ring `dir` (0 = A→B, 1 = B→A).
    pub fn ring_base(&self, dir: usize) -> *mut u8 {
        debug_assert!(dir < 2);
        let cap = self.config().ring_capacity;
        // SAFETY: offset stays inside the mapping by construction.
        unsafe { self.base.add(HEADER_BYTES + dir * ring_bytes(cap)) }
    }

    fn blocks_off(&self) -> usize {
        page_align(HEADER_BYTES + 2 * ring_bytes(self.config().ring_capacity))
    }

    /// Start of payload block `idx`.
    pub fn block_ptr(&self, idx: usize) -> *mut u8 {
        let cfg = self.config();
        debug_assert!(idx < cfg.nblocks);
        // SAFETY: idx < nblocks keeps the offset inside the mapping.
        unsafe { self.base.add(self.blocks_off() + idx * cfg.block_size) }
    }

    /// Byte offset of block `idx` from the region base (the value
    /// descriptors carry).
    pub fn block_offset(&self, idx: usize) -> usize {
        self.blocks_off() + idx * self.config().block_size
    }

    /// Maps a descriptor offset back to its block index; `None` for
    /// unaligned or out-of-range offsets (corrupt descriptor).
    pub fn offset_to_index(&self, offset: usize) -> Option<usize> {
        let cfg = self.config();
        let rel = offset.checked_sub(self.blocks_off())?;
        if rel % cfg.block_size != 0 {
            return None;
        }
        let idx = rel / cfg.block_size;
        (idx < cfg.nblocks).then_some(idx)
    }

    /// Atomic view of a block's free-list link word (first 8 bytes).
    fn block_link(&self, idx: usize) -> &AtomicU64 {
        // SAFETY: blocks are ≥ 64 B and 8-aligned (page-aligned block
        // array, power-of-two block size), so the first word is a
        // valid AtomicU64. The word is only interpreted while the
        // block sits in the free list.
        unsafe { &*(self.block_ptr(idx) as *const AtomicU64) }
    }

    /// Pops a free block index, or `None` when the pool is empty.
    pub fn alloc_block(&self) -> Option<usize> {
        let hdr = self.hdr();
        loop {
            let old = hdr.free_head.load(Ordering::Acquire);
            let cur = old & 0xFFFF_FFFF;
            if cur == 0 {
                return None;
            }
            let idx = (cur - 1) as usize;
            // May race with the winning popper's payload writes; the
            // tag-checked CAS below discards any torn value read here.
            let next = self.block_link(idx).load(Ordering::Relaxed) & 0xFFFF_FFFF;
            let tag = (old >> 32).wrapping_add(1);
            let new = (tag << 32) | next;
            if hdr
                .free_head
                .compare_exchange_weak(old, new, Ordering::AcqRel, Ordering::Relaxed)
                .is_ok()
            {
                hdr.shm_allocs.fetch_add(1, Ordering::Relaxed);
                return Some(idx);
            }
        }
    }

    /// Returns block `idx` to the shared free list.
    pub fn free_block(&self, idx: usize) {
        let hdr = self.hdr();
        debug_assert!(idx < self.config().nblocks);
        loop {
            let old = hdr.free_head.load(Ordering::Acquire);
            self.block_link(idx)
                .store(old & 0xFFFF_FFFF, Ordering::Relaxed);
            let tag = (old >> 32).wrapping_add(1);
            let new = (tag << 32) | (idx as u64 + 1);
            if hdr
                .free_head
                .compare_exchange_weak(old, new, Ordering::AcqRel, Ordering::Relaxed)
                .is_ok()
            {
                hdr.shm_frees.fetch_add(1, Ordering::Relaxed);
                return;
            }
        }
    }

    /// Free blocks currently in the list (O(n) walk, diagnostics only;
    /// result is approximate under concurrent traffic).
    pub fn free_blocks(&self) -> usize {
        self.hdr().shm_frees.load(Ordering::Relaxed) as usize + self.config().nblocks
            - self.hdr().shm_allocs.load(Ordering::Relaxed) as usize
    }
}

impl Drop for Region {
    fn drop(&mut self) {
        // SAFETY: exact mapping recorded at construction; callers keep
        // the Region in an Arc that outlives every block/ring view.
        unsafe {
            let _ = xdaq_sys::munmap(self.base, self.map_len);
        }
        if self.owner {
            let _ = std::fs::remove_file(&self.path);
        }
    }
}

fn raw_fd(file: &File) -> i32 {
    use std::os::fd::AsRawFd;
    file.as_raw_fd()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("xdaq-shm-{}-{name}", std::process::id()))
    }

    fn small() -> ShmConfig {
        ShmConfig {
            block_size: 256,
            nblocks: 8,
            ring_capacity: 8,
        }
    }

    #[test]
    fn header_fits_one_page() {
        assert!(std::mem::size_of::<RegionHdr>() <= HEADER_BYTES);
        assert_eq!(std::mem::size_of::<SideHdr>(), 64);
    }

    #[test]
    fn create_then_attach_sees_geometry() {
        let path = tmp("geom");
        let r = Region::create(&path, small()).unwrap();
        let a = Region::attach(&path).unwrap();
        assert_eq!(a.config().block_size, 256);
        assert_eq!(a.config().nblocks, 8);
        assert_eq!(a.id(), r.id());
        drop(a);
        drop(r);
        assert!(!path.exists(), "creator unlinks on drop");
    }

    #[test]
    fn free_list_hands_out_every_block_once() {
        let path = tmp("freelist");
        let r = Region::create(&path, small()).unwrap();
        let mut got: Vec<usize> = (0..8).map(|_| r.alloc_block().unwrap()).collect();
        assert!(r.alloc_block().is_none(), "pool exhausted");
        got.sort_unstable();
        assert_eq!(got, (0..8).collect::<Vec<_>>());
        for i in got {
            r.free_block(i);
        }
        assert_eq!(r.free_blocks(), 8);
        assert!(r.alloc_block().is_some());
    }

    #[test]
    fn cross_mapping_alloc_free() {
        // Two mappings of one file in the same process stand in for
        // two processes: distinct base addresses, shared header.
        let path = tmp("xmap");
        let r = Region::create(&path, small()).unwrap();
        let peer = Region::attach(&path).unwrap();
        let idx = r.alloc_block().unwrap();
        // Write through one mapping, read through the other.
        // SAFETY: idx is uniquely owned; both pointers map the same page.
        unsafe {
            r.block_ptr(idx).add(16).write(0x5A);
            assert_eq!(peer.block_ptr(idx).add(16).read(), 0x5A);
        }
        peer.free_block(idx);
        assert_eq!(r.alloc_block(), Some(idx), "peer's free visible here");
        r.free_block(idx);
    }

    #[test]
    fn attach_rejects_garbage() {
        let path = tmp("garbage");
        std::fs::write(&path, vec![0u8; HEADER_BYTES * 2]).unwrap();
        let err = Region::attach(&path).err().expect("attach must fail");
        assert!(err.contains("magic"), "{err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn attach_refuses_another_layout_version() {
        let path = tmp("version");
        let r = Region::create(&path, small()).unwrap();
        let old = SHM_VERSION - 1;
        r.hdr().version.store(old, Ordering::Relaxed);
        let err = Region::attach(&path).err().expect("attach must fail");
        let want = format!("version {old}, this build reads {SHM_VERSION}");
        assert!(err.contains(&want), "{err}");
    }

    #[test]
    fn rejects_bad_geometry() {
        let path = tmp("badgeom");
        let bad = ShmConfig {
            block_size: 100,
            ..small()
        };
        assert!(Region::create(&path, bad).is_err());
        let bad = ShmConfig {
            ring_capacity: 3,
            ..small()
        };
        assert!(Region::create(&path, bad).is_err());
    }
}
