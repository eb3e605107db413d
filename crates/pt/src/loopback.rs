//! The loopback transport: in-process "network" connecting executives
//! through plain queues.
//!
//! This is the reference PT: no wire format, no latency and no copy —
//! a send hands the pooled frame itself to the receiver's mailbox, a
//! locked deque. It exists to (a) run whole multi-node topologies
//! inside one process for tests and examples, and (b) serve as the
//! zero-cost baseline that isolates executive overhead from transport
//! overhead.
//!
//! A [`LoopbackHub`] plays the role of the fabric; each executive
//! attaches one polling-mode [`LoopbackPt`] under a node name.

use parking_lot::{Mutex, RwLock};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use xdaq_core::{FastMap, PeerAddr, PeerTransport, PtError, PtMode, SendFailure};
use xdaq_mempool::FrameBuf;
use xdaq_mon::PtCounters;

type Mailbox = Mutex<VecDeque<(FrameBuf, PeerAddr)>>;

/// The in-process switch connecting loopback PTs by node name.
#[derive(Default)]
pub struct LoopbackHub {
    /// Keyed by each attached PT's own `loop://` address.
    nodes: RwLock<FastMap<PeerAddr, Arc<Mailbox>>>,
}

impl LoopbackHub {
    /// Empty hub.
    pub fn new() -> Arc<LoopbackHub> {
        Arc::new(LoopbackHub::default())
    }

    /// Attaches `addr` to a fresh mailbox: a newer PT under a live
    /// name takes the name over, and the older PT keeps only its own
    /// mailbox, which its `stop` drains.
    fn attach(&self, addr: &PeerAddr) -> Arc<Mailbox> {
        let mailbox = Arc::new(Mailbox::default());
        self.nodes.write().insert(addr.clone(), mailbox.clone());
        mailbox
    }

    /// Queues `frame` from `src` in `dest`'s mailbox, under the
    /// switch's read lock; hands the frame back when `dest` is not
    /// attached.
    fn deliver(&self, dest: &PeerAddr, frame: FrameBuf, src: &PeerAddr) -> Result<(), FrameBuf> {
        match self.nodes.read().get(dest) {
            Some(mailbox) => {
                mailbox.lock().push_back((frame, src.clone()));
                Ok(())
            }
            None => Err(frame),
        }
    }

    /// Removes `addr` from the switch if `mailbox` is still the one
    /// attached under it (a newer PT may have taken it over).
    fn detach(&self, addr: &PeerAddr, mailbox: &Arc<Mailbox>) {
        let mut nodes = self.nodes.write();
        if nodes.get(addr).is_some_and(|m| Arc::ptr_eq(m, mailbox)) {
            nodes.remove(addr);
        }
    }

    /// Attached node count.
    pub fn len(&self) -> usize {
        self.nodes.read().len()
    }

    /// True when no nodes are attached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// One executive's attachment to a [`LoopbackHub`].
pub struct LoopbackPt {
    hub: Arc<LoopbackHub>,
    mailbox: Arc<Mailbox>,
    self_addr: PeerAddr,
    stopped: AtomicBool,
    counters: PtCounters,
}

impl LoopbackPt {
    /// Attaches a polling-mode loopback PT for `node`.
    pub fn new(hub: &Arc<LoopbackHub>, node: &str) -> Arc<LoopbackPt> {
        let self_addr = PeerAddr::new("loop", node);
        Arc::new(LoopbackPt {
            hub: hub.clone(),
            mailbox: hub.attach(&self_addr),
            self_addr,
            stopped: AtomicBool::new(false),
            counters: PtCounters::new(),
        })
    }

    /// This PT's canonical address.
    pub fn addr(&self) -> &PeerAddr {
        &self.self_addr
    }
}

impl PeerTransport for LoopbackPt {
    fn scheme(&self) -> &'static str {
        "loop"
    }

    fn mode(&self) -> PtMode {
        PtMode::Polling
    }

    fn send(&self, dest: &PeerAddr, frame: FrameBuf) -> Result<(), SendFailure> {
        if self.stopped.load(Ordering::Acquire) {
            self.counters.on_send_error();
            return Err(SendFailure::with_frame(PtError::Closed, frame));
        }
        let len = frame.len();
        match self.hub.deliver(dest, frame, &self.self_addr) {
            Ok(()) => {
                self.counters.on_send(len);
                Ok(())
            }
            Err(frame) => {
                self.counters.on_send_error();
                Err(SendFailure::with_frame(
                    PtError::Unreachable(dest.to_string()),
                    frame,
                ))
            }
        }
    }

    fn poll(&self) -> Option<(FrameBuf, PeerAddr)> {
        let got = self.mailbox.lock().pop_front();
        if let Some((f, _)) = &got {
            self.counters.on_recv(f.len());
        }
        got
    }

    fn stop(&self) {
        self.stopped.store(true, Ordering::Release);
        // Leave the switch first, so later sends toward this node fail
        // `Unreachable` with their frame instead of parking it here;
        // then drain undelivered frames so their pool blocks recycle —
        // frames parked in a dead mailbox would otherwise keep pool
        // occupancy nonzero forever.
        self.hub.detach(&self.self_addr, &self.mailbox);
        self.mailbox.lock().clear();
    }

    fn counters(&self) -> Option<&PtCounters> {
        Some(&self.counters)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(n: usize) -> FrameBuf {
        FrameBuf::from_bytes(&vec![0xABu8; n])
    }

    #[test]
    fn send_and_poll_between_nodes() {
        let hub = LoopbackHub::new();
        let a = LoopbackPt::new(&hub, "a");
        let b = LoopbackPt::new(&hub, "b");
        a.send(&"loop://b".parse().unwrap(), frame(10)).unwrap();
        let (f, src) = b.poll().unwrap();
        assert_eq!(f.len(), 10);
        assert_eq!(src.to_string(), "loop://a");
        assert!(a.poll().is_none());
    }

    #[test]
    fn unreachable_node() {
        let hub = LoopbackHub::new();
        let a = LoopbackPt::new(&hub, "a");
        let err = a
            .send(&"loop://ghost".parse().unwrap(), frame(1))
            .unwrap_err();
        assert!(matches!(err.error, PtError::Unreachable(_)));
        assert!(err.frame.is_some(), "frame must come back to the sender");
    }

    #[test]
    fn stop_prevents_send() {
        let hub = LoopbackHub::new();
        let a = LoopbackPt::new(&hub, "a");
        let _b = LoopbackPt::new(&hub, "b");
        a.stop();
        let err = a.send(&"loop://b".parse().unwrap(), frame(1)).unwrap_err();
        assert!(matches!(err.error, PtError::Closed));
    }

    #[test]
    fn counters_track_traffic() {
        let hub = LoopbackHub::new();
        let a = LoopbackPt::new(&hub, "a");
        let b = LoopbackPt::new(&hub, "b");
        a.send(&"loop://b".parse().unwrap(), frame(10)).unwrap();
        a.send(&"loop://b".parse().unwrap(), frame(20)).unwrap();
        let _ = a.send(&"loop://ghost".parse().unwrap(), frame(1));
        b.poll().unwrap();
        let ca = a.counters().unwrap();
        assert_eq!(ca.sent_frames.load(Ordering::Relaxed), 2);
        assert_eq!(ca.sent_bytes.load(Ordering::Relaxed), 30);
        assert_eq!(ca.send_errors.load(Ordering::Relaxed), 1);
        let cb = b.counters().unwrap();
        assert_eq!(cb.recv_frames.load(Ordering::Relaxed), 1);
        assert_eq!(cb.recv_bytes.load(Ordering::Relaxed), 10);
    }

    #[test]
    fn send_to_a_stopped_peer_returns_the_frame() {
        use xdaq_mempool::{FrameAllocator, TablePool};
        let pool = TablePool::with_defaults();
        let baseline = pool.stats().live_blocks;
        let hub = LoopbackHub::new();
        let a = LoopbackPt::new(&hub, "a");
        let b = LoopbackPt::new(&hub, "b");
        a.stop();
        let err = b
            .send(&"loop://a".parse().unwrap(), pool.alloc(64).unwrap())
            .unwrap_err();
        assert!(matches!(err.error, PtError::Unreachable(_)));
        assert!(err.frame.is_some(), "frame must come back to the sender");
        drop(err);
        assert_eq!(pool.stats().live_blocks, baseline, "pool block stranded");
        // The name is free again: a new PT under it receives.
        let a2 = LoopbackPt::new(&hub, "a");
        b.send(&"loop://a".parse().unwrap(), frame(3)).unwrap();
        assert_eq!(a2.poll().unwrap().0.len(), 3);
    }

    #[test]
    fn a_newer_pt_takes_the_name_over() {
        let hub = LoopbackHub::new();
        let a = LoopbackPt::new(&hub, "a");
        let old = LoopbackPt::new(&hub, "b");
        let new = LoopbackPt::new(&hub, "b");
        let to_b: PeerAddr = "loop://b".parse().unwrap();
        a.send(&to_b, frame(7)).unwrap();
        // The older PT stops: the name and the queued frame stay with
        // the newer PT.
        old.stop();
        assert!(old.poll().is_none());
        a.send(&to_b, frame(8)).unwrap();
        assert_eq!(new.poll().unwrap().0.len(), 7);
        assert_eq!(new.poll().unwrap().0.len(), 8);
        assert_eq!(hub.len(), 2);
    }

    #[test]
    fn self_send_loops_back() {
        let hub = LoopbackHub::new();
        let a = LoopbackPt::new(&hub, "a");
        a.send(&"loop://a".parse().unwrap(), frame(5)).unwrap();
        assert!(a.poll().is_some());
    }
}
