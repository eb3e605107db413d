//! `ShmPt`: the `shm://` peer transport.
//!
//! One [`ShmLink`] connects exactly two processes over one mapped
//! region: side A creates (`shm://<path>@a`), side B attaches
//! (`shm://<path>@b`). Frames whose blocks already live in the link's
//! pool cross as single 16-byte descriptors — zero payload copies.
//! Heap-backed frames are copied into pool blocks first (counted in
//! `shm.copies` and the region's copy counter) and chained across
//! blocks with [`FLAG_MORE`] descriptors when they exceed one block.
//!
//! The PT polls: the executive's dispatch loop scans the receive rings
//! (PTA polling mode). There is no receive thread and no wake-up path,
//! so a send is a ring push plus a few header loads (DESIGN.md §9).
//!
//! Peer death is detected from the region header (side slot cleared,
//! epoch changed, or the advertised pid gone from `/proc`) and
//! surfaced through [`PeerTransport::take_down_peers`] so the link
//! supervisor can force the link Down without waiting for heartbeat
//! timeouts. [`PeerTransport::stop`] clears this side's slots, so the
//! far side sees a stopped PT the same way.

use crate::pool::{unpack_token, ShmPool};
use crate::region::{Region, ShmConfig, SIDE_A, SIDE_B};
use crate::ring::{Descriptor, RingView, FLAG_MORE};
use parking_lot::{Mutex, RwLock};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use xdaq_core::{PeerAddr, PeerTransport, PtError, PtMode, SendFailure};
use xdaq_mempool::{Block, FrameBuf};
use xdaq_mon::{PtCounters, Registry, ShmCounters};

/// Longest a consumer waits for the tail fragments of a chained frame
/// whose producer looks alive. A healthy producer pushes the whole
/// chain (nanoseconds apart) in one send, so this only trips on a
/// corrupt chain (e.g. a fault-injected FLAG_MORE on the final
/// fragment) — without it a polling executive would spin forever.
const CHAIN_STALL_TIMEOUT: Duration = Duration::from_millis(200);
/// Polling-mode liveness check every this many `poll` calls.
const POLL_LIVENESS_PERIOD: u64 = 1024;

/// Peer state as read from the region header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PeerHealth {
    /// Peer has not attached yet.
    NotYetUp,
    /// Peer attached and its process exists.
    Up,
    /// Peer detached, restarted (epoch change) or its pid vanished.
    Dead,
}

/// One two-process link over a mapped region.
pub struct ShmLink {
    region: Arc<Region>,
    pool: Arc<ShmPool>,
    side: usize,
    tx: RingView,
    rx: RingView,
    local: PeerAddr,
    peer: PeerAddr,
    /// Peer identity `(pid, epoch)` captured when first seen attached.
    peer_identity: Mutex<Option<(u32, u64)>>,
    /// Rate limiter for the `/proc` pid probe on the hot path.
    liveness_tick: AtomicU32,
    dead: AtomicBool,
    /// Set once the death has been handed to `take_down_peers`.
    death_reported: AtomicBool,
    /// Set once this side's slot has been cleared; see [`Self::detach`].
    detached: AtomicBool,
}

impl ShmLink {
    /// Creates the region at `path` and takes side A.
    pub fn create(path: &Path, cfg: ShmConfig) -> Result<Arc<ShmLink>, PtError> {
        let region = Region::create(path, cfg).map_err(PtError::Io)?;
        ShmLink::open(Arc::new(region), SIDE_A)
    }

    /// Attaches to an existing region at `path` as side B.
    pub fn attach(path: &Path) -> Result<Arc<ShmLink>, PtError> {
        let region = Region::attach(path).map_err(PtError::Io)?;
        ShmLink::open(Arc::new(region), SIDE_B)
    }

    fn open(region: Arc<Region>, side: usize) -> Result<Arc<ShmLink>, PtError> {
        let slot = &region.hdr().sides[side];
        if slot.attached.swap(1, Ordering::AcqRel) == 1 {
            return Err(PtError::Io(format!(
                "{}: side {} already attached",
                region.path().display(),
                ["a", "b"][side]
            )));
        }
        slot.pid.store(std::process::id(), Ordering::Relaxed);
        slot.epoch.fetch_add(1, Ordering::Release);
        let path = region.path().display().to_string();
        let (local, peer) = match side {
            SIDE_A => (
                PeerAddr::new("shm", &format!("{path}@a")),
                PeerAddr::new("shm", &format!("{path}@b")),
            ),
            _ => (
                PeerAddr::new("shm", &format!("{path}@b")),
                PeerAddr::new("shm", &format!("{path}@a")),
            ),
        };
        // Ring 0 carries A→B, ring 1 carries B→A.
        let (tx_dir, rx_dir) = if side == SIDE_A { (0, 1) } else { (1, 0) };
        let cap = region.config().ring_capacity;
        // SAFETY: ring areas are inside the live mapping, sized by the
        // shared geometry; side exclusivity (checked above) gives each
        // ring exactly one producer and one consumer.
        let (tx, rx) = unsafe {
            (
                RingView::new(region.ring_base(tx_dir), cap),
                RingView::new(region.ring_base(rx_dir), cap),
            )
        };
        Ok(Arc::new(ShmLink {
            pool: ShmPool::new(region.clone()),
            region,
            side,
            tx,
            rx,
            liveness_tick: AtomicU32::new(1),
            local,
            peer,
            peer_identity: Mutex::new(None),
            dead: AtomicBool::new(false),
            death_reported: AtomicBool::new(false),
            detached: AtomicBool::new(false),
        }))
    }

    /// This side's canonical address (`shm://<path>@a|b`).
    pub fn local_addr(&self) -> &PeerAddr {
        &self.local
    }

    /// The peer side's canonical address — the address frames to this
    /// peer are routed to.
    pub fn peer_addr(&self) -> &PeerAddr {
        &self.peer
    }

    /// The link's shared frame pool. Frames allocated here cross the
    /// link without any payload copy.
    pub fn pool(&self) -> Arc<ShmPool> {
        self.pool.clone()
    }

    /// True once the peer process has attached its side.
    pub fn peer_attached(&self) -> bool {
        self.peer_slot().attached.load(Ordering::Acquire) == 1
    }

    /// True when the peer has been declared dead.
    pub fn is_dead(&self) -> bool {
        self.dead.load(Ordering::Acquire)
    }

    fn peer_slot(&self) -> &crate::region::SideHdr {
        &self.region.hdr().sides[1 - self.side]
    }

    fn own_slot(&self) -> &crate::region::SideHdr {
        &self.region.hdr().sides[self.side]
    }

    /// How many hot-path health checks share one `/proc` pid probe.
    const PID_CHECK_PERIOD: u32 = 1024;

    /// Reads peer health from the region header, latching `Dead`.
    /// Header-only (atomic loads); the `/proc` pid probe — a
    /// filesystem syscall — runs every [`Self::PID_CHECK_PERIOD`]-th
    /// call so per-frame cost stays in nanoseconds.
    fn check_peer(&self) -> PeerHealth {
        self.check_peer_at(false)
    }

    /// Like [`check_peer`](Self::check_peer) but always probing
    /// `/proc` — the liveness scan's variant, so a SIGKILLed peer is
    /// detected within one scan period regardless of traffic.
    fn check_peer_forced(&self) -> PeerHealth {
        self.check_peer_at(true)
    }

    fn check_peer_at(&self, force: bool) -> PeerHealth {
        if self.dead.load(Ordering::Acquire) {
            return PeerHealth::Dead;
        }
        let slot = self.peer_slot();
        let attached = slot.attached.load(Ordering::Acquire) == 1;
        let mut seen = self.peer_identity.lock();
        let health = match (*seen, attached) {
            (None, false) => PeerHealth::NotYetUp,
            (None, true) => {
                let pid = slot.pid.load(Ordering::Relaxed);
                *seen = Some((pid, slot.epoch.load(Ordering::Acquire)));
                if pid_exists(pid) {
                    PeerHealth::Up
                } else {
                    PeerHealth::Dead
                }
            }
            (Some(_), false) => PeerHealth::Dead, // clean detach: link over
            (Some((pid, epoch)), true) => {
                let probe = force
                    || self
                        .liveness_tick
                        .fetch_add(1, Ordering::Relaxed)
                        .is_multiple_of(Self::PID_CHECK_PERIOD);
                if slot.epoch.load(Ordering::Acquire) != epoch
                    || slot.pid.load(Ordering::Relaxed) != pid
                    || (probe && !pid_exists(pid))
                {
                    PeerHealth::Dead
                } else {
                    PeerHealth::Up
                }
            }
        };
        if health == PeerHealth::Dead {
            self.dead.store(true, Ordering::Release);
        }
        health
    }

    /// Pushes one frame as descriptors. Zero-copy when the frame's
    /// block belongs to this link's region; otherwise copies into pool
    /// blocks (chaining across blocks with [`FLAG_MORE`]).
    fn send_frame(
        &self,
        frame: FrameBuf,
        counters: &PtCounters,
        shm: &ShmCounters,
    ) -> Result<(), SendFailure> {
        if self.check_peer() == PeerHealth::Dead {
            counters.on_send_error();
            return Err(SendFailure::with_frame(
                PtError::Unreachable(self.peer.to_string()),
                frame,
            ));
        }
        let len = frame.len();
        let tid = frame_tid(&frame);
        let own_block = frame
            .external_token()
            .and_then(|t| unpack_token(self.region.id(), t));
        if let Some(idx) = own_block {
            // Zero-copy: ownership of the block moves to the peer.
            if self.tx.free_slots() < 1 {
                counters.on_send_error();
                return Err(SendFailure::with_frame(PtError::WouldBlock, frame));
            }
            let (block, _recycler) = frame.into_parts();
            debug_assert_eq!(block.len(), len);
            self.pool.forget_live();
            drop(block); // raw storage: dropping frees nothing
            let d = Descriptor {
                offset: self.region.block_offset(idx) as u32,
                len: len as u32,
                tid,
                flags: 0,
                seq: 0,
            };
            self.tx.push(d).expect("free slot checked");
            shm.tx.inc();
        } else {
            // Copy path: stage the payload into pool blocks.
            let bs = self.pool.block_size();
            let nfrags = len.div_ceil(bs).max(1);
            if self.tx.free_slots() < nfrags {
                counters.on_send_error();
                return Err(SendFailure::with_frame(PtError::WouldBlock, frame));
            }
            let mut blocks: Vec<(usize, Block)> = Vec::with_capacity(nfrags);
            for frag in 0..nfrags {
                let frag_len = (len - frag * bs).min(bs);
                match self.pool.take_block(frag_len) {
                    Some(b) => blocks.push((frag_len, b)),
                    None => {
                        // Roll back: return staged blocks to the list.
                        for (_, b) in blocks {
                            self.pool.recycler().recycle(b);
                        }
                        counters.on_send_error();
                        return Err(SendFailure::with_frame(PtError::WouldBlock, frame));
                    }
                }
            }
            for (frag, (frag_len, block)) in blocks.iter_mut().enumerate() {
                block
                    .bytes_mut()
                    .copy_from_slice(&frame[frag * bs..frag * bs + *frag_len]);
            }
            self.region.hdr().copies.fetch_add(1, Ordering::Relaxed);
            shm.copies.inc();
            for (frag, (frag_len, block)) in blocks.into_iter().enumerate() {
                let token = block.external_token().expect("pool block");
                let idx = unpack_token(self.region.id(), token).expect("own token");
                self.pool.forget_live();
                drop(block);
                let d = Descriptor {
                    offset: self.region.block_offset(idx) as u32,
                    len: frag_len as u32,
                    tid,
                    flags: if frag + 1 < nfrags { FLAG_MORE } else { 0 },
                    seq: 0,
                };
                self.tx.push(d).expect("free slots checked");
                shm.tx.inc();
            }
            // The heap frame was only read; it recycles to its pool here.
            drop(frame);
        }
        counters.on_send(len);
        Ok(())
    }

    /// Materializes a received descriptor as a pooled `FrameBuf`.
    fn frame_from(&self, d: Descriptor) -> Option<FrameBuf> {
        let idx = self.region.offset_to_index(d.offset as usize)?;
        if d.len as usize > self.pool.block_size() {
            self.region.free_block(idx);
            return None;
        }
        // SAFETY: the descriptor transferred exclusive ownership of
        // block `idx` to this process; the pointer is in-mapping and
        // the pool Arc inside the recycler keeps the region alive.
        let mut block = unsafe {
            Block::from_raw_parts(
                self.region.block_ptr(idx),
                self.pool.block_size(),
                crate::pool::pack_token(self.region.id(), idx),
            )
        };
        block.set_len(d.len as usize);
        self.pool.adopt_live();
        Some(FrameBuf::new(block, self.pool.recycler()))
    }

    /// Frees whatever blocks of a broken descriptor chain did arrive,
    /// counts one receive error (surfaced as `pt.shm.errors`) and
    /// drops the frame. Never panics and never leaks pool blocks.
    fn discard_chain(&self, parts: Vec<Descriptor>, counters: &PtCounters) -> Option<FrameBuf> {
        for d in parts {
            if let Some(i) = self.region.offset_to_index(d.offset as usize) {
                self.region.free_block(i);
            }
        }
        counters.on_recv_error();
        None
    }

    /// Pops one complete frame (gathering chained descriptors).
    fn recv_one(&self, counters: &PtCounters, shm: &ShmCounters) -> Option<FrameBuf> {
        let first = self.rx.pop()?;
        shm.rx.inc();
        if first.flags & FLAG_MORE == 0 {
            return match self.frame_from(first) {
                Some(f) => {
                    counters.on_recv(f.len());
                    Some(f)
                }
                // Corrupt descriptor (bad offset or oversize length):
                // `frame_from` already returned the block, if any.
                None => {
                    counters.on_recv_error();
                    None
                }
            };
        }
        // Chained frame: gather fragments. The producer pushes the
        // whole chain in one send, but the consumer can catch it
        // mid-push — wait for the tail fragments, bounded by peer
        // death and by CHAIN_STALL_TIMEOUT so a corrupt chain (a
        // FLAG_MORE bit flipped onto the final fragment) cannot hang
        // the dispatch loop.
        let nblocks = self.region.config().nblocks;
        let mut parts = vec![first];
        let mut stalled_since = None;
        while parts.last().is_some_and(|d| d.flags & FLAG_MORE != 0) {
            if parts.len() > nblocks {
                // More fragments than blocks exist: corrupt chain.
                return self.discard_chain(parts, counters);
            }
            match self.rx.pop() {
                Some(d) => {
                    shm.rx.inc();
                    stalled_since = None;
                    parts.push(d);
                }
                None => {
                    if self.check_peer() == PeerHealth::Dead {
                        // Truncated chain from a dead peer.
                        return self.discard_chain(parts, counters);
                    }
                    let t0 = *stalled_since.get_or_insert_with(std::time::Instant::now);
                    if t0.elapsed() > CHAIN_STALL_TIMEOUT {
                        return self.discard_chain(parts, counters);
                    }
                    std::hint::spin_loop();
                }
            }
        }
        // Validate every fragment before touching any payload byte: a
        // corrupt offset or a length beyond the block size must not
        // read out of bounds.
        let bs = self.pool.block_size();
        if parts.iter().any(|d| {
            d.len as usize > bs || self.region.offset_to_index(d.offset as usize).is_none()
        }) {
            return self.discard_chain(parts, counters);
        }
        let total: usize = parts.iter().map(|d| d.len as usize).sum();
        let mut gathered = FrameBuf::detached(total);
        let mut at = 0usize;
        for d in &parts {
            let idx = self
                .region
                .offset_to_index(d.offset as usize)
                .expect("validated");
            let n = d.len as usize;
            // SAFETY: exclusive ownership via the descriptor; `n` is
            // within the block (validated above).
            let src = unsafe { std::slice::from_raw_parts(self.region.block_ptr(idx), n) };
            gathered[at..at + n].copy_from_slice(src);
            at += n;
            self.region.free_block(idx);
        }
        counters.on_recv(total);
        Some(gathered)
    }

    /// Clears this side's slot so the peer sees the link end. Runs at
    /// most once: after a detach the slot may belong to a newer
    /// attachment, which a second clear (e.g. from `Drop`) would undo.
    fn detach(&self) {
        if self.detached.swap(true, Ordering::AcqRel) {
            return;
        }
        let slot = self.own_slot();
        slot.attached.store(0, Ordering::Release);
        slot.epoch.fetch_add(1, Ordering::Release);
    }
}

impl Drop for ShmLink {
    fn drop(&mut self) {
        self.detach();
    }
}

fn pid_exists(pid: u32) -> bool {
    pid != 0 && Path::new(&format!("/proc/{pid}")).exists()
}

/// Target TiD from an encoded frame (low 12 bits of the LE word at
/// bytes 4..8 — see `xdaq-i2o`); 0 when the frame is too short.
fn frame_tid(bytes: &[u8]) -> u16 {
    if bytes.len() >= 8 {
        (u32::from_le_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]) & 0xFFF) as u16
    } else {
        0
    }
}

/// The `shm://` peer transport: a set of [`ShmLink`]s the executive's
/// dispatch loop polls.
pub struct ShmPt {
    links: RwLock<Vec<Arc<ShmLink>>>,
    counters: PtCounters,
    shm: RwLock<ShmCounters>,
    stopped: AtomicBool,
    polls: AtomicU64,
}

impl ShmPt {
    /// New transport. `mode` must be [`PtMode::Polling`]: the PT has no
    /// receive thread (DESIGN.md §9). The argument keeps the
    /// benchmark's call site compiling and goes with the next change to
    /// that harness.
    ///
    /// # Panics
    /// On [`PtMode::Task`].
    pub fn new(mode: PtMode) -> Arc<ShmPt> {
        assert!(
            mode == PtMode::Polling,
            "shm:// runs in polling mode only (DESIGN.md §9)"
        );
        Arc::new(ShmPt {
            links: RwLock::new(Vec::new()),
            counters: PtCounters::new(),
            shm: RwLock::new(ShmCounters::new()),
            stopped: AtomicBool::new(false),
            polls: AtomicU64::new(0),
        })
    }

    /// Points the `shm.*` counters at a node's metric registry (call
    /// before traffic starts).
    pub fn bind_registry(&self, registry: &Registry) {
        *self.shm.write() = ShmCounters::bound_to(registry);
    }

    /// Creates a region and adds its side-A link.
    pub fn create_link(&self, path: &Path, cfg: ShmConfig) -> Result<Arc<ShmLink>, PtError> {
        let link = ShmLink::create(path, cfg)?;
        self.links.write().push(link.clone());
        Ok(link)
    }

    /// Attaches to a peer-created region and adds its side-B link.
    pub fn attach_link(&self, path: &Path) -> Result<Arc<ShmLink>, PtError> {
        let link = ShmLink::attach(path)?;
        self.links.write().push(link.clone());
        Ok(link)
    }

    /// Shared-memory counters handle (tx/rx/copies/peer deaths).
    pub fn shm_counters(&self) -> ShmCounters {
        self.shm.read().clone()
    }

    /// The link whose peer address matches `dest`, if any.
    pub fn link_for(&self, dest: &PeerAddr) -> Option<Arc<ShmLink>> {
        self.links
            .read()
            .iter()
            .find(|l| l.peer_addr().rest() == dest.rest())
            .cloned()
    }

    /// Checks every link's peer liveness, latching deaths.
    fn scan_liveness(&self) {
        let links = self.links.read();
        let shm = self.shm.read();
        for link in links.iter() {
            let was = link.is_dead();
            if link.check_peer_forced() == PeerHealth::Dead && !was {
                shm.peer_deaths.inc();
            }
        }
    }
}

impl PeerTransport for ShmPt {
    fn scheme(&self) -> &'static str {
        "shm"
    }

    fn mode(&self) -> PtMode {
        PtMode::Polling
    }

    fn send(&self, dest: &PeerAddr, frame: FrameBuf) -> Result<(), SendFailure> {
        if self.stopped.load(Ordering::Acquire) {
            self.counters.on_send_error();
            return Err(SendFailure::with_frame(PtError::Closed, frame));
        }
        let Some(link) = self.link_for(dest) else {
            self.counters.on_send_error();
            return Err(SendFailure::with_frame(
                PtError::Unreachable(dest.to_string()),
                frame,
            ));
        };
        let shm = self.shm.read();
        link.send_frame(frame, &self.counters, &shm)
    }

    fn poll(&self) -> Option<(FrameBuf, PeerAddr)> {
        let n = self.polls.fetch_add(1, Ordering::Relaxed);
        if n % POLL_LIVENESS_PERIOD == POLL_LIVENESS_PERIOD - 1 {
            self.scan_liveness();
        }
        let links = self.links.read();
        let shm = self.shm.read();
        for link in links.iter() {
            if let Some(f) = link.recv_one(&self.counters, &shm) {
                return Some((f, link.peer_addr().clone()));
            }
        }
        None
    }

    /// Leaves every link, as `loop://` and `gm://` leave their fabric:
    /// the peer reports this side Down and its sends fail
    /// `Unreachable`. Frames still in the receive rings go back to the
    /// region's free list.
    fn stop(&self) {
        self.stopped.store(true, Ordering::Release);
        let links = self.links.read();
        let shm = self.shm.read();
        for link in links.iter() {
            link.detach();
            while link.recv_one(&self.counters, &shm).is_some() {}
        }
    }

    fn counters(&self) -> Option<&PtCounters> {
        Some(&self.counters)
    }

    fn take_down_peers(&self) -> Vec<PeerAddr> {
        self.scan_liveness();
        let links = self.links.read();
        links
            .iter()
            .filter(|l| l.is_dead() && !l.death_reported.swap(true, Ordering::AcqRel))
            .map(|l| l.peer_addr().clone())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use xdaq_mempool::FrameAllocator;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("xdaq-shm-pt-{}-{name}", std::process::id()))
    }

    fn small() -> ShmConfig {
        ShmConfig {
            block_size: 1024,
            nblocks: 32,
            ring_capacity: 16,
        }
    }

    /// Two PTs in one process over one region — stands in for two
    /// processes (the multi-process case lives in tests/shm.rs).
    fn pair(name: &str) -> (Arc<ShmPt>, Arc<ShmLink>, Arc<ShmPt>, Arc<ShmLink>) {
        let path = tmp(name);
        let a = ShmPt::new(PtMode::Polling);
        let la = a.create_link(&path, small()).unwrap();
        let b = ShmPt::new(PtMode::Polling);
        let lb = b.attach_link(&path).unwrap();
        (a, la, b, lb)
    }

    #[test]
    fn zero_copy_round_trip() {
        let (a, la, b, _lb) = pair("zc");
        let pool = la.pool();
        let mut f = pool.alloc(512).unwrap();
        f.copy_from_slice(&[0x42; 512]);
        a.send(la.peer_addr(), f).unwrap();
        let (got, src) = b.poll().unwrap();
        assert_eq!(&got[..], &[0x42u8; 512][..]);
        assert_eq!(&src, la.local_addr());
        assert_eq!(pool.copies(), 0, "no payload copy on the pool path");
        drop(got); // recycles into the shared free list
        assert_eq!(la.pool().region().free_blocks(), 32);
    }

    #[test]
    fn heap_frames_take_the_copy_path() {
        let (a, la, b, lb) = pair("copy");
        a.send(la.peer_addr(), FrameBuf::from_bytes(&[7u8; 100]))
            .unwrap();
        let (got, _) = b.poll().unwrap();
        assert_eq!(&got[..], &[7u8; 100][..]);
        assert_eq!(la.pool().copies(), 1);
        assert_eq!(lb.pool().copies(), 1, "copy counter is region-global");
    }

    #[test]
    fn oversize_heap_frame_chains_across_blocks() {
        let (a, la, b, _lb) = pair("chain");
        let payload: Vec<u8> = (0..3000).map(|i| (i % 251) as u8).collect();
        a.send(la.peer_addr(), FrameBuf::from_bytes(&payload))
            .unwrap();
        let (got, _) = b.poll().unwrap();
        assert_eq!(&got[..], &payload[..]);
        // 3000 bytes over 1024-byte blocks = 3 descriptors.
        assert_eq!(a.shm_counters().tx.get(), 3);
        assert_eq!(la.pool().region().free_blocks(), 32, "fragments recycled");
    }

    /// Transfers one pool block to the peer by hand-crafting its
    /// descriptor — the fault-injection surface for corrupt chains.
    fn push_raw(link: &ShmLink, len: u32, flags: u16) {
        let pool = link.pool();
        let block = pool.take_block(8).expect("free block");
        let idx = unpack_token(pool.region().id(), block.external_token().unwrap()).unwrap();
        pool.forget_live();
        drop(block);
        let d = Descriptor {
            offset: pool.region().block_offset(idx) as u32,
            len,
            tid: 0,
            flags,
            seq: 0,
        };
        link.tx.push(d).expect("ring has room");
    }

    #[test]
    fn corrupt_chain_tail_flag_is_discarded_not_hung() {
        let (_a, la, b, _lb) = pair("badchain");
        // A single fragment wrongly carrying FLAG_MORE: the tail the
        // consumer waits for will never arrive, and the peer stays
        // alive — previously this spun the dispatch loop forever.
        push_raw(&la, 8, FLAG_MORE);
        let t0 = std::time::Instant::now();
        assert!(b.poll().is_none(), "corrupt chain yields no frame");
        let waited = t0.elapsed();
        assert!(
            waited >= CHAIN_STALL_TIMEOUT,
            "bounded wait ran: {waited:?}"
        );
        assert!(waited < CHAIN_STALL_TIMEOUT * 10, "but did not hang");
        assert_eq!(
            la.pool().region().free_blocks(),
            32,
            "arrived fragment returned to the pool"
        );
        assert_eq!(b.counters.recv_errors.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn oversize_descriptor_len_is_discarded() {
        let (_a, la, b, _lb) = pair("badlen");
        // Unchained descriptor claiming more bytes than a block holds:
        // must not read out of bounds, must recycle the block.
        push_raw(&la, 5000, 0);
        assert!(b.poll().is_none());
        assert_eq!(la.pool().region().free_blocks(), 32);
        assert_eq!(b.counters.recv_errors.load(Ordering::Relaxed), 1);
        // The link still works afterwards.
        let mut f = la.pool().alloc(16).unwrap();
        f.copy_from_slice(&[9u8; 16]);
        _a.send(la.peer_addr(), f).unwrap();
        assert_eq!(&b.poll().unwrap().0[..], &[9u8; 16][..]);
    }

    #[test]
    fn corrupt_fragment_in_chain_is_discarded() {
        let (_a, la, b, _lb) = pair("badfrag");
        // Two-fragment chain whose tail fragment lies about its
        // length: the whole chain is dropped, both blocks recycle.
        push_raw(&la, 8, FLAG_MORE);
        push_raw(&la, 4096, 0);
        assert!(b.poll().is_none());
        assert_eq!(la.pool().region().free_blocks(), 32);
        assert_eq!(b.counters.recv_errors.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn ring_full_returns_frame_for_retry() {
        let (a, la, _b, _lb) = pair("full");
        let pool = la.pool();
        for _ in 0..16 {
            a.send(la.peer_addr(), pool.alloc(8).unwrap()).unwrap();
        }
        let err = a.send(la.peer_addr(), pool.alloc(8).unwrap()).unwrap_err();
        assert!(matches!(err.error, PtError::WouldBlock));
        assert!(err.frame.is_some(), "frame handed back to the sender");
    }

    #[test]
    fn unknown_destination_is_unreachable() {
        let (a, _la, _b, _lb) = pair("unknown");
        let err = a
            .send(
                &"shm:///nonexistent@b".parse().unwrap(),
                FrameBuf::from_bytes(&[1]),
            )
            .unwrap_err();
        assert!(matches!(err.error, PtError::Unreachable(_)));
        assert!(err.frame.is_some());
    }

    #[test]
    fn double_attach_same_side_fails() {
        let path = tmp("dup");
        let _a = ShmLink::create(&path, small()).unwrap();
        let _b = ShmLink::attach(&path).unwrap();
        assert!(ShmLink::attach(&path).is_err(), "side b taken");
    }

    #[test]
    fn clean_detach_reports_peer_down() {
        let (a, _la, b, lb) = pair("detach");
        // A must have seen B attached before the detach counts as death.
        a.send(lb.local_addr(), FrameBuf::from_bytes(&[1])).unwrap();
        assert!(a.take_down_peers().is_empty());
        drop(b);
        drop(lb);
        let down = a.take_down_peers();
        assert_eq!(down.len(), 1);
        assert!(down[0].rest().ends_with("@b"));
        assert!(a.take_down_peers().is_empty(), "reported once");
        let err = a.send(&down[0], FrameBuf::from_bytes(&[2])).unwrap_err();
        assert!(matches!(err.error, PtError::Unreachable(_)));
    }

    #[test]
    fn stop_leaves_the_link_and_returns_queued_blocks() {
        let (a, la, b, lb) = pair("stop");
        // A has seen B attached; one frame waits in B's receive ring.
        let mut f = la.pool().alloc(64).unwrap();
        f.copy_from_slice(&[3u8; 64]);
        a.send(lb.local_addr(), f).unwrap();
        assert!(a.take_down_peers().is_empty());
        b.stop();
        assert_eq!(a.take_down_peers(), vec![lb.local_addr().clone()]);
        assert!(a.take_down_peers().is_empty(), "reported once");
        let err = a
            .send(lb.local_addr(), FrameBuf::from_bytes(&[4]))
            .unwrap_err();
        assert!(matches!(err.error, PtError::Unreachable(_)));
        assert_eq!(err.frame.as_deref(), Some(&[4u8][..]), "frame handed back");
        assert_eq!(la.pool().region().free_blocks(), 32, "ring drained");
    }

    #[test]
    #[should_panic(expected = "polling mode only (DESIGN.md §9)")]
    fn task_mode_is_refused() {
        ShmPt::new(PtMode::Task);
    }

    #[test]
    fn a_link_leaves_no_file_beside_its_region() {
        let dir = tmp("files");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("region");
        let a = ShmPt::new(PtMode::Polling);
        let b = ShmPt::new(PtMode::Polling);
        let _la = a.create_link(&path, small()).unwrap();
        let _lb = b.attach_link(&path).unwrap();
        let mut names: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        names.sort();
        assert_eq!(names, ["region"], "no .bell FIFO or other side file");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
