//! `ShmPt`: the `shm://` peer transport.
//!
//! One [`ShmLink`] connects exactly two processes over one mapped
//! region: side A creates (`shm://<path>@a`), side B attaches
//! (`shm://<path>@b`). A frame is one region block and crosses as one
//! 8-byte `{offset, len}` descriptor. A frame whose block already lives
//! in the link's pool moves with zero payload copies; any other frame
//! is copied into one pool block first (counted in `shm.copies`). A
//! frame longer than the link's block size is refused.
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
use crate::ring::{Descriptor, RingView};
use parking_lot::{Mutex, RwLock};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use xdaq_core::{PeerAddr, PeerTransport, PtError, PtMode, SendFailure};
use xdaq_mempool::{Block, FrameBuf};
use xdaq_mon::{PtCounters, Registry, ShmCounters};

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

    /// Pushes one frame as one descriptor. Zero-copy when the frame's
    /// block belongs to this link's region; otherwise the frame is
    /// copied into one pool block. A frame longer than a block is
    /// refused and handed back.
    fn send_frame(
        &self,
        frame: FrameBuf,
        counters: &PtCounters,
        shm: &ShmCounters,
    ) -> Result<(), SendFailure> {
        let len = frame.len();
        let bs = self.pool.block_size();
        let refusal = if self.check_peer() == PeerHealth::Dead {
            Some(PtError::Unreachable(self.peer.to_string()))
        } else if len > bs {
            Some(PtError::Unreachable(format!(
                "{} ({len} B exceeds the {bs} B block)",
                self.peer
            )))
        } else if self.tx.free_slots() < 1 {
            Some(PtError::WouldBlock)
        } else {
            None
        };
        if let Some(error) = refusal {
            counters.on_send_error();
            return Err(SendFailure::with_frame(error, frame));
        }
        let own_block = frame
            .external_token()
            .and_then(|t| unpack_token(self.region.id(), t));
        let (idx, block) = match own_block {
            // Zero-copy: ownership of the block moves to the peer.
            Some(idx) => (idx, frame.into_parts().0),
            None => {
                let Some((idx, mut block)) = self.pool.take_block(len) else {
                    counters.on_send_error();
                    return Err(SendFailure::with_frame(PtError::WouldBlock, frame));
                };
                block.bytes_mut().copy_from_slice(&frame);
                shm.copies.inc();
                // The frame was only read; it recycles when this returns.
                (idx, block)
            }
        };
        self.pool.forget_live();
        drop(block); // raw storage: dropping frees nothing
        let d = Descriptor {
            offset: self.region.block_offset(idx) as u32,
            len: len as u32,
        };
        self.tx.push(d).expect("free slot checked");
        shm.tx.inc();
        counters.on_send(len);
        Ok(())
    }

    /// Pops one frame: its descriptor's block, as a pooled `FrameBuf`.
    /// A descriptor with an offset outside the block array or a length
    /// over one block (input from the other process) frees the block,
    /// if any, and counts one receive error.
    fn recv_one(&self, counters: &PtCounters, shm: &ShmCounters) -> Option<FrameBuf> {
        let d = self.rx.pop()?;
        shm.rx.inc();
        let idx = self.region.offset_to_index(d.offset as usize);
        let bs = self.pool.block_size();
        let Some(idx) = idx.filter(|_| d.len as usize <= bs) else {
            if let Some(idx) = idx {
                self.region.free_block(idx);
            }
            counters.on_recv_error();
            return None;
        };
        // SAFETY: the descriptor transferred exclusive ownership of
        // block `idx` to this process; the pointer is in-mapping and
        // the pool Arc inside the recycler keeps the region alive.
        let mut block = unsafe {
            Block::from_raw_parts(
                self.region.block_ptr(idx),
                bs,
                crate::pool::pack_token(self.region.id(), idx),
            )
        };
        block.set_len(d.len as usize);
        self.pool.adopt_live();
        counters.on_recv(d.len as usize);
        Some(FrameBuf::new(block, self.pool.recycler()))
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
            .find(|l| l.peer_addr() == dest)
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
        assert_eq!(a.shm_counters().copies.get(), 0, "no copy on the pool path");
        drop(got); // recycles into the shared free list
        assert_eq!(la.pool().region().free_blocks(), 32);
    }

    #[test]
    fn heap_frames_take_the_copy_path() {
        let (a, la, b, _lb) = pair("copy");
        a.send(la.peer_addr(), FrameBuf::from_bytes(&[7u8; 100]))
            .unwrap();
        let (got, _) = b.poll().unwrap();
        assert_eq!(&got[..], &[7u8; 100][..]);
        assert_eq!(a.shm_counters().copies.get(), 1);
    }

    #[test]
    fn a_frame_longer_than_a_block_is_refused_and_handed_back() {
        let (a, la, b, _lb) = pair("oversize");
        let payload: Vec<u8> = (0..1025).map(|i| (i % 251) as u8).collect();
        let err = a
            .send(la.peer_addr(), FrameBuf::from_bytes(&payload))
            .unwrap_err();
        match &err.error {
            PtError::Unreachable(why) => {
                assert!(why.contains("1025 B exceeds the 1024 B block"), "{why}")
            }
            other => panic!("want Unreachable, got {other:?}"),
        }
        assert_eq!(err.frame.as_deref(), Some(&payload[..]), "handed back");
        assert_eq!(la.pool().region().free_blocks(), 32, "no block taken");
        assert_eq!(a.counters.send_errors.load(Ordering::Relaxed), 1);
        assert_eq!(a.shm_counters().tx.get(), 0);
        assert!(b.poll().is_none());
    }

    #[test]
    fn a_block_sized_frame_crosses_on_both_paths() {
        let (a, la, b, _lb) = pair("full-block");
        let mut pooled = la.pool().alloc(1024).unwrap();
        pooled.copy_from_slice(&[1u8; 1024]);
        a.send(la.peer_addr(), pooled).unwrap();
        assert_eq!(&b.poll().unwrap().0[..], &[1u8; 1024][..]);
        assert_eq!(a.shm_counters().copies.get(), 0, "pool frame: no copy");
        a.send(la.peer_addr(), FrameBuf::from_bytes(&[2u8; 1024]))
            .unwrap();
        assert_eq!(&b.poll().unwrap().0[..], &[2u8; 1024][..]);
        assert_eq!(a.shm_counters().copies.get(), 1, "heap frame: one copy");
        assert_eq!(a.shm_counters().tx.get(), 2, "one descriptor per frame");
        assert_eq!(la.pool().region().free_blocks(), 32);
    }

    /// Transfers one pool block to the peer by hand-crafting its
    /// descriptor — the fault-injection surface for corrupt input.
    fn push_raw(link: &ShmLink, len: u32) {
        let pool = link.pool();
        let (idx, block) = pool.take_block(8).expect("free block");
        pool.forget_live();
        drop(block);
        let d = Descriptor {
            offset: pool.region().block_offset(idx) as u32,
            len,
        };
        link.tx.push(d).expect("ring has room");
    }

    #[test]
    fn oversize_descriptor_len_is_discarded() {
        let (_a, la, b, _lb) = pair("badlen");
        // A descriptor claiming more bytes than a block holds must not
        // read out of bounds, and must recycle the block.
        push_raw(&la, 5000);
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
