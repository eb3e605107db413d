//! The Myrinet/GM peer transport — the transport of the paper's
//! evaluation (§5) — and the GM substrate it wraps.
//!
//! *"We implemented a peer transport based on the Myrinet GM 1.1.3
//! library for our XDAQ I2O executive and performed the round-trip
//! test. The Myrinet/GM PT ran as a thread."* — [`GmPt`] wraps a
//! [`Port`] and supports both task mode (the paper's setup) and polling
//! mode.
//!
//! The paper ran on a Myricom M2M-PCI64 NIC with a LANai 7 processor.
//! We have no such hardware, so [`fabric`] implements the closest
//! synthetic equivalent of the vendor library the PT wraps (see
//! DESIGN.md, substitutions), and it knows nothing of I2O:
//!
//! * **user-level, OS-bypass messaging** — ports are plain objects in
//!   process memory; send and poll never enter the kernel. A send
//!   copies the payload into a packet on the destination port's
//!   bounded inbound queue; [`Port::poll`] is a non-blocking poll just
//!   like `gm_receive`, and [`Port::blocking_poll`] spins then yields;
//! * **a calibrated wire-latency model** ([`LatencyModel`]) — the
//!   linear base + per-byte delay of the real interconnect, so that the
//!   reproduction of Figure 6 exhibits the paper's linear payload
//!   slopes. With [`LatencyModel::ZERO`] the fabric degenerates to pure
//!   queue hand-off, which is what the framework-overhead measurement
//!   uses.
//!
//! GM's send tokens and per-size receive buffers are not modelled: the
//! paper's PT never ran out of either, and only the hand-off and the
//! wire cost enter Figure 6.

pub mod fabric;
pub mod latency;

pub use fabric::{Fabric, GmAddr, NodeId, Port, PortId};
pub use latency::LatencyModel;

use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use xdaq_core::{IngestSink, PeerAddr, PeerTransport, PtError, PtMode, SendFailure};
use xdaq_mempool::{DynAllocator, FrameBuf};
use xdaq_mon::PtCounters;

/// Parses `gm://<node>:<port>`.
fn parse_gm_addr(addr: &PeerAddr) -> Result<GmAddr, PtError> {
    if addr.scheme() != "gm" {
        return Err(PtError::BadAddress(addr.to_string()));
    }
    let (node, port) = addr
        .rest()
        .split_once(':')
        .ok_or_else(|| PtError::BadAddress(addr.to_string()))?;
    let node: u16 = node
        .parse()
        .map_err(|_| PtError::BadAddress(addr.to_string()))?;
    let port: u8 = port
        .parse()
        .map_err(|_| PtError::BadAddress(addr.to_string()))?;
    Ok(GmAddr {
        node: NodeId(node),
        port: PortId(port),
    })
}

fn to_peer_addr(a: GmAddr) -> PeerAddr {
    PeerAddr::new("gm", &format!("{}:{}", a.node.0, a.port.0))
}

/// The GM peer transport.
pub struct GmPt {
    port: Arc<Port>,
    alloc: DynAllocator,
    mode: PtMode,
    stopped: Arc<AtomicBool>,
    task: Mutex<Option<std::thread::JoinHandle<()>>>,
    /// Task threads observed to have panicked (drained by
    /// [`PeerTransport::take_panics`]).
    panics: AtomicU64,
    /// Shared with the task-mode receive thread.
    counters: Arc<PtCounters>,
    /// Address handles of the senders seen so far, so a received frame
    /// costs a map lookup and a reference-count bump, not a formatted
    /// string. Shared with the task-mode receive thread.
    peers: Arc<Mutex<HashMap<GmAddr, PeerAddr>>>,
}

impl GmPt {
    /// Opens a GM port on `fabric` at `node:port` and wraps it.
    ///
    /// `_unused` can only be `None`; it keeps the benchmark's call site
    /// compiling and goes with the next change to that harness.
    pub fn open(
        fabric: &Arc<Fabric>,
        node: u16,
        port: u8,
        mode: PtMode,
        alloc: DynAllocator,
        _unused: Option<std::convert::Infallible>,
    ) -> Result<Arc<GmPt>, PtError> {
        let gm_port = fabric.open_port(NodeId(node), PortId(port))?;
        Ok(Arc::new(GmPt {
            port: Arc::new(gm_port),
            alloc,
            mode,
            stopped: Arc::new(AtomicBool::new(false)),
            task: Mutex::new(None),
            panics: AtomicU64::new(0),
            counters: Arc::new(PtCounters::new()),
            peers: Arc::default(),
        }))
    }

    /// This PT's canonical address.
    pub fn addr(&self) -> PeerAddr {
        to_peer_addr(self.port.addr())
    }

    /// Copies a received GM buffer into a pooled frame. The GM message
    /// is already consumed, so a frame the pool refuses is lost and
    /// counts as a receive error.
    fn process_received(
        alloc: &DynAllocator,
        counters: &PtCounters,
        peers: &Mutex<HashMap<GmAddr, PeerAddr>>,
        src: GmAddr,
        data: Box<[u8]>,
    ) -> Option<(FrameBuf, PeerAddr)> {
        let Ok(mut buf) = alloc.alloc(data.len()) else {
            counters.on_recv_error();
            return None;
        };
        buf.copy_from_slice(&data);
        counters.on_recv(buf.len());
        let peer = peers
            .lock()
            .entry(src)
            .or_insert_with(|| to_peer_addr(src))
            .clone();
        Some((buf, peer))
    }
}

impl PeerTransport for GmPt {
    fn scheme(&self) -> &'static str {
        "gm"
    }

    fn mode(&self) -> PtMode {
        self.mode
    }

    fn send(&self, dest: &PeerAddr, frame: FrameBuf) -> Result<(), SendFailure> {
        if self.stopped.load(Ordering::Acquire) {
            self.counters.on_send_error();
            return Err(SendFailure::with_frame(PtError::Closed, frame));
        }
        let gm_dest = match parse_gm_addr(dest) {
            Ok(a) => a,
            Err(e) => {
                self.counters.on_send_error();
                return Err(SendFailure::with_frame(e, frame));
            }
        };
        // The GM library copies into its own (simulated DMA) buffer;
        // the pooled frame recycles on drop here.
        match self.port.send(gm_dest, &frame) {
            Ok(()) => {
                self.counters.on_send(frame.len());
                Ok(())
            }
            Err(e) => {
                self.counters.on_send_error();
                // port.send only borrowed the frame — hand it back.
                Err(SendFailure::with_frame(e, frame))
            }
        }
    }

    fn poll(&self) -> Option<(FrameBuf, PeerAddr)> {
        loop {
            let (src, data) = self.port.poll()?;
            // A refused frame is counted, not reported as an idle port.
            let got = Self::process_received(&self.alloc, &self.counters, &self.peers, src, data);
            if got.is_some() {
                return got;
            }
        }
    }

    fn start(&self, sink: IngestSink) -> Result<(), PtError> {
        if self.mode != PtMode::Task {
            return Ok(());
        }
        let port = self.port.clone();
        let alloc = self.alloc.clone();
        let stopped = self.stopped.clone();
        let counters = self.counters.clone();
        let peers = self.peers.clone();
        let handle = std::thread::Builder::new()
            .name(format!("gm-pt-{}", self.port.addr()))
            .spawn(move || {
                while !stopped.load(Ordering::Acquire) {
                    let Some((src, data)) = port.blocking_poll(Duration::from_millis(50)) else {
                        continue;
                    };
                    if let Some((buf, peer)) =
                        GmPt::process_received(&alloc, &counters, &peers, src, data)
                    {
                        sink(buf, peer);
                    }
                }
            })
            .map_err(|e| PtError::Io(e.to_string()))?;
        *self.task.lock() = Some(handle);
        Ok(())
    }

    fn stop(&self) {
        self.stopped.store(true, Ordering::Release);
        // Leave the fabric, as `LoopbackPt::stop` leaves its hub: a send
        // toward this port then fails `Unreachable` with its frame
        // instead of queueing where nobody polls.
        self.port.close();
        if let Some(t) = self.task.lock().take() {
            if t.join().is_err() {
                self.panics.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    fn take_panics(&self) -> u64 {
        self.panics.swap(0, Ordering::Relaxed)
    }

    fn counters(&self) -> Option<&PtCounters> {
        Some(&self.counters)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;
    use xdaq_mempool::TablePool;

    fn pool() -> DynAllocator {
        TablePool::with_defaults()
    }

    #[test]
    fn addr_parsing() {
        let a = parse_gm_addr(&"gm://3:1".parse().unwrap()).unwrap();
        assert_eq!(a.node, NodeId(3));
        assert_eq!(a.port, PortId(1));
        assert!(parse_gm_addr(&"gm://3".parse().unwrap()).is_err());
        assert!(parse_gm_addr(&"gm://x:y".parse().unwrap()).is_err());
        assert!(parse_gm_addr(&"tcp://1:2".parse().unwrap()).is_err());
    }

    #[test]
    fn polling_roundtrip() {
        let fabric = Fabric::new();
        let a = GmPt::open(&fabric, 1, 0, PtMode::Polling, pool(), None).unwrap();
        let b = GmPt::open(&fabric, 2, 0, PtMode::Polling, pool(), None).unwrap();
        a.send(&b.addr(), FrameBuf::from_bytes(b"hello")).unwrap();
        let (f, src) = b.poll().unwrap();
        assert_eq!(&f[..], b"hello");
        assert_eq!(src.to_string(), "gm://1:0");
        assert!(b.poll().is_none());
    }

    #[test]
    fn task_mode_delivers_via_sink() {
        let fabric = Fabric::new();
        let a = GmPt::open(&fabric, 1, 0, PtMode::Polling, pool(), None).unwrap();
        let b = GmPt::open(&fabric, 2, 0, PtMode::Task, pool(), None).unwrap();
        let got = Arc::new(Mutex::new(Vec::new()));
        let got2 = got.clone();
        b.start(Arc::new(move |f, src| {
            got2.lock().push((f.len(), src.to_string()));
        }))
        .unwrap();
        a.send(&b.addr(), FrameBuf::from_bytes(&[9u8; 64])).unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        while got.lock().is_empty() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        b.stop();
        let g = got.lock();
        assert_eq!(g.len(), 1);
        assert_eq!(g[0], (64, "gm://1:0".to_string()));
    }

    #[test]
    fn frame_refused_by_the_pool_counts_as_recv_error() {
        let fabric = Fabric::new();
        let a = GmPt::open(&fabric, 1, 0, PtMode::Polling, pool(), None).unwrap();
        let b = GmPt::open(&fabric, 2, 0, PtMode::Polling, TablePool::new(0), None).unwrap();
        let c = GmPt::open(&fabric, 3, 0, PtMode::Task, TablePool::new(0), None).unwrap();
        c.start(Arc::new(|_, _| panic!("no frame fits an empty pool")))
            .unwrap();
        a.send(&b.addr(), FrameBuf::from_bytes(&[1u8; 128]))
            .unwrap();
        a.send(&c.addr(), FrameBuf::from_bytes(&[1u8; 128]))
            .unwrap();
        assert!(b.poll().is_none());
        let recv_errors = |pt: &GmPt| pt.counters.recv_errors.load(Ordering::Relaxed);
        assert_eq!(recv_errors(&b), 1);
        let deadline = Instant::now() + Duration::from_secs(5);
        while recv_errors(&c) == 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        c.stop();
        assert_eq!(recv_errors(&c), 1);
        assert_eq!(c.take_panics(), 0);
    }

    #[test]
    fn send_after_stop_fails() {
        let fabric = Fabric::new();
        let a = GmPt::open(&fabric, 1, 0, PtMode::Polling, pool(), None).unwrap();
        let b = GmPt::open(&fabric, 2, 0, PtMode::Polling, pool(), None).unwrap();
        a.stop();
        let err = a.send(&b.addr(), FrameBuf::from_bytes(b"x")).unwrap_err();
        assert!(matches!(err.error, PtError::Closed));
    }

    #[test]
    fn send_to_a_stopped_peer_returns_the_frame() {
        let pool = pool();
        let fabric = Fabric::new();
        let a = GmPt::open(&fabric, 1, 0, PtMode::Task, pool.clone(), None).unwrap();
        let b = GmPt::open(&fabric, 2, 0, PtMode::Polling, pool.clone(), None).unwrap();
        a.start(Arc::new(|_, _| {})).unwrap();
        a.stop();
        let err = b.send(&a.addr(), pool.alloc(64).unwrap()).unwrap_err();
        assert!(matches!(err.error, PtError::Unreachable(_)));
        assert!(err.frame.is_some(), "frame must come back to the sender");
        drop(err);
        assert_eq!(pool.stats().live_blocks, 0, "pool block stranded");
        // The address is free again, and dropping the stopped PT does
        // not evict the new one there.
        let a2 = GmPt::open(&fabric, 1, 0, PtMode::Polling, pool.clone(), None).unwrap();
        drop(a);
        b.send(&a2.addr(), FrameBuf::from_bytes(b"hi")).unwrap();
        assert_eq!(&a2.poll().unwrap().0[..], b"hi");
    }

    #[test]
    fn full_inbound_queue_is_backpressure_with_the_frame_back() {
        let pool = pool();
        let fabric = Fabric::new();
        let a = GmPt::open(&fabric, 1, 0, PtMode::Polling, pool.clone(), None).unwrap();
        let b = GmPt::open(&fabric, 2, 0, PtMode::Polling, pool.clone(), None).unwrap();
        for _ in 0..fabric::INBOUND_CAPACITY {
            a.send(&b.addr(), pool.alloc(64).unwrap()).unwrap();
        }
        let err = a.send(&b.addr(), pool.alloc(64).unwrap()).unwrap_err();
        assert!(matches!(err.error, PtError::WouldBlock));
        assert!(err.frame.is_some(), "frame must come back for a retry");
        drop(err);
        assert_eq!(pool.stats().live_blocks, 0, "pool block stranded");
    }

    #[test]
    fn unreachable_peer_reported() {
        let fabric = Fabric::new();
        let a = GmPt::open(&fabric, 1, 0, PtMode::Polling, pool(), None).unwrap();
        let err = a
            .send(&"gm://9:0".parse().unwrap(), FrameBuf::from_bytes(b"x"))
            .unwrap_err();
        assert!(matches!(err.error, PtError::Unreachable(_)));
        assert!(err.frame.is_some(), "frame must come back for failover");
    }
}
