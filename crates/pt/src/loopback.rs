//! The loopback transport: in-process "network" connecting executives
//! through plain queues.
//!
//! This is the reference PT: no wire format, no latency and no copy —
//! a send hands the pooled frame itself to the receiver's mailbox. It
//! exists to (a) run whole multi-node topologies inside one process for
//! tests and examples, and (b) serve as the zero-cost baseline that
//! isolates executive overhead from transport overhead.
//!
//! A [`LoopbackHub`] plays the role of the fabric; each executive
//! attaches one polling-mode [`LoopbackPt`] under a node name.

use crossbeam::queue::SegQueue;
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use xdaq_core::{PeerAddr, PeerTransport, PtError, PtMode, SendFailure};
use xdaq_mempool::FrameBuf;
use xdaq_mon::PtCounters;

struct Mailbox {
    queue: SegQueue<(FrameBuf, PeerAddr)>,
}

/// The in-process switch connecting loopback PTs by node name.
#[derive(Default)]
pub struct LoopbackHub {
    nodes: RwLock<HashMap<String, Arc<Mailbox>>>,
}

impl LoopbackHub {
    /// Empty hub.
    pub fn new() -> Arc<LoopbackHub> {
        Arc::new(LoopbackHub::default())
    }

    fn attach(&self, node: &str) -> Arc<Mailbox> {
        let mut nodes = self.nodes.write();
        nodes
            .entry(node.to_string())
            .or_insert_with(|| {
                Arc::new(Mailbox {
                    queue: SegQueue::new(),
                })
            })
            .clone()
    }

    fn lookup(&self, node: &str) -> Option<Arc<Mailbox>> {
        self.nodes.read().get(node).cloned()
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
    /// Outbound refusal threshold: a send toward a mailbox already
    /// holding this many frames is refused with the frame handed back
    /// (`0` = unbounded, the historical behaviour). Models a receiver
    /// that stopped draining — the flow-control tests use it to create
    /// hard backpressure without a real slow network. Set at runtime
    /// via `configure("loop.capacity", n)`.
    capacity: AtomicUsize,
    counters: PtCounters,
}

impl LoopbackPt {
    /// Attaches a polling-mode loopback PT for `node`.
    pub fn new(hub: &Arc<LoopbackHub>, node: &str) -> Arc<LoopbackPt> {
        Arc::new(LoopbackPt {
            hub: hub.clone(),
            mailbox: hub.attach(node),
            self_addr: PeerAddr::new("loop", node),
            stopped: AtomicBool::new(false),
            capacity: AtomicUsize::new(0),
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
        let target = match self.hub.lookup(dest.rest()) {
            Some(t) => t,
            None => {
                self.counters.on_send_error();
                return Err(SendFailure::with_frame(
                    PtError::Unreachable(dest.to_string()),
                    frame,
                ));
            }
        };
        let cap = self.capacity.load(Ordering::Relaxed);
        if cap > 0 && target.queue.len() >= cap {
            self.counters.on_send_error();
            return Err(SendFailure::with_frame(
                PtError::Io(format!("loop: mailbox {} full ({cap})", dest.rest())),
                frame,
            ));
        }
        self.counters.on_send(frame.len());
        target.queue.push((frame, self.self_addr.clone()));
        Ok(())
    }

    fn poll(&self) -> Option<(FrameBuf, PeerAddr)> {
        let got = self.mailbox.queue.pop();
        if let Some((f, _)) = &got {
            self.counters.on_recv(f.len());
        }
        got
    }

    fn stop(&self) {
        self.stopped.store(true, Ordering::Release);
        // Drain undelivered frames so their pool blocks recycle —
        // frames parked in a dead mailbox would otherwise keep pool
        // occupancy nonzero forever (the chained-send leak).
        while self.mailbox.queue.pop().is_some() {}
    }

    fn configure(&self, key: &str, value: &str) -> Result<(), PtError> {
        if key == "loop.capacity" {
            let cap: usize = value
                .parse()
                .map_err(|_| PtError::BadAddress(format!("loop: bad value {key}={value}")))?;
            self.capacity.store(cap, Ordering::Relaxed);
            return Ok(());
        }
        Ok(())
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
        assert!(err.frame.is_some(), "frame must come back for failover");
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
    fn bounded_mailbox_refuses_with_frame_back() {
        let hub = LoopbackHub::new();
        let a = LoopbackPt::new(&hub, "a");
        let b = LoopbackPt::new(&hub, "b");
        a.configure("loop.capacity", "2").unwrap();
        a.send(&"loop://b".parse().unwrap(), frame(1)).unwrap();
        a.send(&"loop://b".parse().unwrap(), frame(1)).unwrap();
        let err = a.send(&"loop://b".parse().unwrap(), frame(1)).unwrap_err();
        assert!(matches!(err.error, PtError::Io(_)));
        assert!(err.frame.is_some(), "refused frame must come back");
        // Draining the receiver reopens the mailbox.
        b.poll().unwrap();
        a.send(&"loop://b".parse().unwrap(), frame(1)).unwrap();
        assert!(a.configure("loop.capacity", "x").is_err());
        a.configure("loop.capacity", "0").unwrap(); // unbounded again
    }

    #[test]
    fn self_send_loops_back() {
        let hub = LoopbackHub::new();
        let a = LoopbackPt::new(&hub, "a");
        a.send(&"loop://a".parse().unwrap(), frame(5)).unwrap();
        assert!(a.poll().is_some());
    }
}
