//! Simulated PCI bus segment with hardware-style FIFOs.
//!
//! Paper §7 (ongoing work): *"members of our team designed a PLX IOP
//! 480 based processor board ... The board gives I2O support through
//! hardware FIFOs, which will allow us to provide communication
//! efficiency measurements with and without hardware support."* The
//! paper only announces that experiment; this module models its
//! semantics, not its hardware. Every slot's inbound FIFO is the same
//! locked deque, and the two modes differ only in its depth bound:
//!
//! * **hardware FIFO mode** — at most `depth` frames, like the inbound
//!   message FIFO of an I2O-supporting bridge; a send into a full FIFO
//!   fails `WouldBlock` and hands the frame back, the visible
//!   backpressure of a full hardware ring;
//! * **software queue mode** — unbounded, like the plain shared-memory
//!   mailbox a board without I2O FIFO support would use.
//!
//! The HWFIFO shape test in `tests/paper.rs` drives a ping-pong over
//! both modes.

use parking_lot::{Mutex, RwLock};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use xdaq_core::{PeerAddr, PeerTransport, PtError, PtMode, SendFailure};
use xdaq_mempool::FrameBuf;
use xdaq_mon::PtCounters;

/// Queue flavour per slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FifoKind {
    /// FIFO bounded to `depth` frames ("hardware FIFO", I2O-supporting
    /// board). It differs from `Software` only in that bound.
    Hardware {
        /// FIFO depth in messages.
        depth: usize,
    },
    /// Unbounded FIFO (software mailbox).
    Software,
}

/// A slot's inbound FIFO: a locked deque holding at most `depth`
/// frames.
struct SlotQueue {
    frames: Mutex<VecDeque<(FrameBuf, PeerAddr)>>,
    depth: usize,
}

impl SlotQueue {
    /// A full FIFO hands the rejected item back, so the frame survives
    /// the refusal.
    fn push(&self, item: (FrameBuf, PeerAddr)) -> Result<(), (FrameBuf, PeerAddr)> {
        let mut frames = self.frames.lock();
        if frames.len() >= self.depth {
            return Err(item);
        }
        frames.push_back(item);
        Ok(())
    }

    fn pop(&self) -> Option<(FrameBuf, PeerAddr)> {
        self.frames.lock().pop_front()
    }
}

/// One simulated PCI segment: a set of slots with inbound FIFOs.
pub struct PciBus {
    segment: String,
    kind: FifoKind,
    slots: RwLock<HashMap<u8, Arc<SlotQueue>>>,
}

impl PciBus {
    /// Creates a segment named `segment` using `kind` FIFOs for every
    /// slot.
    pub fn new(segment: &str, kind: FifoKind) -> Arc<PciBus> {
        Arc::new(PciBus {
            segment: segment.to_string(),
            kind,
            slots: RwLock::new(HashMap::new()),
        })
    }

    fn attach(&self, slot: u8) -> Arc<SlotQueue> {
        let mut slots = self.slots.write();
        slots
            .entry(slot)
            .or_insert_with(|| {
                Arc::new(SlotQueue {
                    frames: Mutex::default(),
                    depth: match self.kind {
                        FifoKind::Hardware { depth } => depth,
                        FifoKind::Software => usize::MAX,
                    },
                })
            })
            .clone()
    }

    fn lookup(&self, slot: u8) -> Option<Arc<SlotQueue>> {
        self.slots.read().get(&slot).cloned()
    }

    /// Frees `slot` if `inbound` is still the FIFO attached there (a
    /// newer PT may have taken the slot over).
    fn detach(&self, slot: u8, inbound: &Arc<SlotQueue>) {
        let mut slots = self.slots.write();
        if slots.get(&slot).is_some_and(|q| Arc::ptr_eq(q, inbound)) {
            slots.remove(&slot);
        }
    }

    /// Segment name.
    pub fn segment(&self) -> &str {
        &self.segment
    }
}

/// Parses `pci://<segment>/<slot>`.
fn parse_pci(addr: &PeerAddr) -> Result<(String, u8), PtError> {
    if addr.scheme() != "pci" {
        return Err(PtError::BadAddress(addr.to_string()));
    }
    let (seg, slot) = addr
        .rest()
        .split_once('/')
        .ok_or_else(|| PtError::BadAddress(addr.to_string()))?;
    let slot: u8 = slot
        .parse()
        .map_err(|_| PtError::BadAddress(addr.to_string()))?;
    Ok((seg.to_string(), slot))
}

/// A peer transport attached to one slot of a [`PciBus`].
pub struct PciPt {
    bus: Arc<PciBus>,
    inbound: Arc<SlotQueue>,
    slot: u8,
    self_addr: PeerAddr,
    stopped: AtomicBool,
    counters: PtCounters,
}

impl PciPt {
    /// Attaches to `slot` on `bus` (polling mode, like a host driver
    /// scanning the bridge FIFO).
    pub fn attach(bus: &Arc<PciBus>, slot: u8) -> Arc<PciPt> {
        let inbound = bus.attach(slot);
        Arc::new(PciPt {
            bus: bus.clone(),
            inbound,
            slot,
            self_addr: PeerAddr::new("pci", &format!("{}/{slot}", bus.segment())),
            stopped: AtomicBool::new(false),
            counters: PtCounters::new(),
        })
    }

    /// Canonical address of this slot.
    pub fn addr(&self) -> PeerAddr {
        self.self_addr.clone()
    }
}

impl PeerTransport for PciPt {
    fn scheme(&self) -> &'static str {
        "pci"
    }

    fn mode(&self) -> PtMode {
        PtMode::Polling
    }

    fn send(&self, dest: &PeerAddr, frame: FrameBuf) -> Result<(), SendFailure> {
        let fail = |counters: &PtCounters, error, frame| {
            counters.on_send_error();
            Err(SendFailure::with_frame(error, frame))
        };
        if self.stopped.load(Ordering::Acquire) {
            return fail(&self.counters, PtError::Closed, frame);
        }
        let (seg, slot) = match parse_pci(dest) {
            Ok(parts) => parts,
            Err(e) => return fail(&self.counters, e, frame),
        };
        if seg != self.bus.segment() {
            let e = PtError::Unreachable(format!(
                "{dest}: segment '{seg}' is not bridged from '{}'",
                self.bus.segment()
            ));
            return fail(&self.counters, e, frame);
        }
        let Some(target) = self.bus.lookup(slot) else {
            return fail(
                &self.counters,
                PtError::Unreachable(dest.to_string()),
                frame,
            );
        };
        let len = frame.len();
        match target.push((frame, self.self_addr.clone())) {
            Ok(()) => {
                self.counters.on_send(len);
                Ok(())
            }
            Err((frame, _)) => fail(&self.counters, PtError::WouldBlock, frame),
        }
    }

    fn poll(&self) -> Option<(FrameBuf, PeerAddr)> {
        let got = self.inbound.pop();
        if let Some((f, _)) = &got {
            self.counters.on_recv(f.len());
        }
        got
    }

    fn stop(&self) {
        self.stopped.store(true, Ordering::Release);
        // Free the slot, then drain undelivered frames so their pool
        // blocks recycle, as `LoopbackPt::stop` does: later sends fail
        // `Unreachable` with their frame, and frames parked in a dead
        // slot FIFO would otherwise keep pool occupancy nonzero forever.
        self.bus.detach(self.slot, &self.inbound);
        while self.inbound.pop().is_some() {}
    }

    fn counters(&self) -> Option<&PtCounters> {
        Some(&self.counters)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(n: usize) -> FrameBuf {
        FrameBuf::from_bytes(&vec![0x55u8; n])
    }

    #[test]
    fn addr_parsing() {
        assert_eq!(
            parse_pci(&"pci://seg0/3".parse().unwrap()).unwrap(),
            ("seg0".to_string(), 3)
        );
        assert!(parse_pci(&"pci://seg0".parse().unwrap()).is_err());
        assert!(parse_pci(&"pci://seg0/x".parse().unwrap()).is_err());
    }

    #[test]
    fn frames_flow_between_slots() {
        let bus = PciBus::new("seg0", FifoKind::Hardware { depth: 8 });
        let host = PciPt::attach(&bus, 0);
        let iop = PciPt::attach(&bus, 1);
        host.send(&iop.addr(), frame(32)).unwrap();
        let (f, src) = iop.poll().unwrap();
        assert_eq!(f.len(), 32);
        assert_eq!(src, host.addr());
    }

    #[test]
    fn hardware_fifo_backpressure_at_depth() {
        let bus = PciBus::new("seg0", FifoKind::Hardware { depth: 2 });
        let a = PciPt::attach(&bus, 0);
        let b = PciPt::attach(&bus, 1);
        a.send(&b.addr(), frame(1)).unwrap();
        a.send(&b.addr(), frame(1)).unwrap();
        let err = a.send(&b.addr(), frame(1)).unwrap_err();
        assert!(matches!(err.error, PtError::WouldBlock));
        assert!(err.frame.is_some(), "full FIFO hands the frame back");
        let _ = b.poll().unwrap();
        a.send(&b.addr(), frame(1)).unwrap();
    }

    #[test]
    fn stop_recycles_frames_parked_in_the_slot_fifo() {
        use xdaq_mempool::{FrameAllocator, TablePool};
        for kind in [FifoKind::Hardware { depth: 8 }, FifoKind::Software] {
            let pool = TablePool::with_defaults();
            let bus = PciBus::new("seg0", kind);
            let a = PciPt::attach(&bus, 0);
            let b = PciPt::attach(&bus, 1);
            for _ in 0..4 {
                a.send(&b.addr(), pool.alloc(64).unwrap()).unwrap();
            }
            assert_eq!(pool.stats().live_blocks, 4);
            b.stop();
            assert_eq!(pool.stats().live_blocks, 0, "{kind:?}: blocks leaked");
        }
    }

    #[test]
    fn send_to_a_stopped_peer_returns_the_frame() {
        use xdaq_mempool::{FrameAllocator, TablePool};
        for kind in [FifoKind::Hardware { depth: 8 }, FifoKind::Software] {
            let pool = TablePool::with_defaults();
            let baseline = pool.stats().live_blocks;
            let bus = PciBus::new("seg0", kind);
            let a = PciPt::attach(&bus, 0);
            let b = PciPt::attach(&bus, 1);
            a.stop();
            let err = b.send(&a.addr(), pool.alloc(64).unwrap()).unwrap_err();
            assert!(matches!(err.error, PtError::Unreachable(_)), "{kind:?}");
            assert!(err.frame.is_some(), "{kind:?}: frame must come back");
            drop(err);
            assert_eq!(
                pool.stats().live_blocks,
                baseline,
                "{kind:?}: block stranded"
            );
            // The slot is free again: a new PT on it receives.
            let a2 = PciPt::attach(&bus, 0);
            b.send(&a2.addr(), frame(3)).unwrap();
            assert_eq!(a2.poll().unwrap().0.len(), 3, "{kind:?}");
        }
    }

    #[test]
    fn software_queue_is_unbounded() {
        let bus = PciBus::new("seg0", FifoKind::Software);
        let a = PciPt::attach(&bus, 0);
        let b = PciPt::attach(&bus, 1);
        for _ in 0..1000 {
            a.send(&b.addr(), frame(1)).unwrap();
        }
        let mut n = 0;
        while b.poll().is_some() {
            n += 1;
        }
        assert_eq!(n, 1000);
    }

    #[test]
    fn cross_segment_rejected() {
        let bus0 = PciBus::new("seg0", FifoKind::Software);
        let a = PciPt::attach(&bus0, 0);
        let err = a
            .send(&"pci://seg1/0".parse().unwrap(), frame(1))
            .unwrap_err();
        assert!(matches!(err.error, PtError::Unreachable(_)));
    }

    #[test]
    fn unknown_slot_rejected() {
        let bus = PciBus::new("seg0", FifoKind::Software);
        let a = PciPt::attach(&bus, 0);
        let err = a
            .send(&"pci://seg0/7".parse().unwrap(), frame(1))
            .unwrap_err();
        assert!(matches!(err.error, PtError::Unreachable(_)));
    }
}
