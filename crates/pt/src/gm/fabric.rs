//! The fabric: GM ports on a simulated Myrinet switch.
//!
//! A port is a plain object in process memory. A send copies the
//! payload into a packet and pushes it onto the destination port's
//! inbound queue, a locked deque bounded at `INBOUND_CAPACITY`
//! (4096 packets); the receiver busy-polls it, as `gm_receive` does.
//! Neither side enters the kernel.

use super::latency::LatencyModel;
use parking_lot::{Mutex, RwLock};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};
use xdaq_core::PtError;

/// Largest message one GM packet can carry (GM 1.x allowed up to 2^31,
/// practically bounded by receive buffers; we bound at the I2O block
/// maximum so one frame always fits one packet).
const MAX_MESSAGE: usize = 256 * 1024;

/// Packets one port's inbound queue holds before a send to it fails
/// [`PtError::WouldBlock`].
pub(super) const INBOUND_CAPACITY: usize = 4096;

/// Identifier of one node (machine) on the fabric.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct NodeId(pub u16);

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "gm{}", self.0)
    }
}

/// Port number within a node (GM 1.x exposed 8 ports per NIC).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct PortId(pub u8);

/// Full address of a port on the fabric.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct GmAddr {
    /// Node (machine).
    pub node: NodeId,
    /// Port on that node.
    pub port: PortId,
}

impl std::fmt::Display for GmAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}", self.node, self.port.0)
    }
}

/// One packet in flight.
struct Packet {
    src: GmAddr,
    data: Box<[u8]>,
    /// `None` with the zero latency model.
    deliver_at: Option<Instant>,
}

/// The receiving side of one open port, shared with the fabric.
struct Inbox {
    addr: GmAddr,
    queue: Mutex<VecDeque<Packet>>,
}

/// The simulated Myrinet switch fabric.
///
/// One `Fabric` stands in for the physical network: ports open on it,
/// packets travel through it, and the [`LatencyModel`] decides when
/// they become visible at the far side.
pub struct Fabric {
    latency: LatencyModel,
    ports: RwLock<HashMap<GmAddr, Arc<Inbox>>>,
}

impl Fabric {
    /// A fabric with no injected wire latency.
    pub fn new() -> Arc<Fabric> {
        Fabric::with_latency(LatencyModel::ZERO)
    }

    /// A fabric with the given latency model.
    pub fn with_latency(latency: LatencyModel) -> Arc<Fabric> {
        Arc::new(Fabric {
            latency,
            ports: RwLock::new(HashMap::new()),
        })
    }

    /// Opens port `port` on node `node`; fails [`PtError::Io`] while
    /// another port holds that address.
    pub fn open_port(self: &Arc<Fabric>, node: NodeId, port: PortId) -> Result<Port, PtError> {
        let addr = GmAddr { node, port };
        let mut ports = self.ports.write();
        if ports.contains_key(&addr) {
            return Err(PtError::Io(format!("GM port {addr} already open")));
        }
        let inbox = Arc::new(Inbox {
            addr,
            queue: Mutex::new(VecDeque::with_capacity(64)),
        });
        ports.insert(addr, inbox.clone());
        drop(ports);
        Ok(Port {
            inbox,
            fabric: self.clone(),
        })
    }
}

/// An open GM port. Dropping it closes the port.
pub struct Port {
    inbox: Arc<Inbox>,
    fabric: Arc<Fabric>,
}

impl Port {
    /// This port's fabric address.
    pub fn addr(&self) -> GmAddr {
        self.inbox.addr
    }

    /// Copies `data` into a packet for `dest`. A full inbound queue
    /// there is [`PtError::WouldBlock`]; an unknown port or an oversize
    /// message is [`PtError::Unreachable`].
    pub fn send(&self, dest: GmAddr, data: &[u8]) -> Result<(), PtError> {
        if data.len() > MAX_MESSAGE {
            let len = data.len();
            return Err(PtError::Unreachable(format!(
                "{dest} ({len} B exceeds the GM maximum of {MAX_MESSAGE} B)"
            )));
        }
        let target = self.fabric.ports.read().get(&dest).cloned();
        let target =
            target.ok_or_else(|| PtError::Unreachable(format!("{dest} (no open port)")))?;
        let latency = self.fabric.latency;
        let deliver_at = (!latency.is_zero()).then(|| Instant::now() + latency.delay(data.len()));
        let mut queue = target.queue.lock();
        if queue.len() >= INBOUND_CAPACITY {
            return Err(PtError::WouldBlock);
        }
        queue.push_back(Packet {
            src: self.inbox.addr,
            data: data.into(),
            deliver_at,
        });
        Ok(())
    }

    /// Non-blocking poll for the next deliverable message and its
    /// sender (`gm_receive`).
    pub fn poll(&self) -> Option<(GmAddr, Box<[u8]>)> {
        let mut queue = self.inbox.queue.lock();
        if let Some(t) = queue.front()?.deliver_at {
            if Instant::now() < t {
                return None;
            }
        }
        let packet = queue.pop_front().expect("front checked");
        drop(queue);
        Some((packet.src, packet.data))
    }

    /// Polls until a message arrives or `timeout` elapses. Spins
    /// briefly, then yields — the pattern of a GM polling loop that
    /// stays kind to co-scheduled threads.
    pub fn blocking_poll(&self, timeout: Duration) -> Option<(GmAddr, Box<[u8]>)> {
        let deadline = Instant::now() + timeout;
        let mut spins = 0u32;
        loop {
            if let Some(msg) = self.poll() {
                return Some(msg);
            }
            if Instant::now() >= deadline {
                return None;
            }
            spins += 1;
            if spins < 1000 {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
    }

    /// Releases this port's fabric address, if it still owns it (a
    /// newer port may have opened there since): later sends to it fail
    /// [`PtError::Unreachable`], and a new port may open there.
    /// Idempotent; dropping the port does the same.
    pub fn close(&self) {
        let mut ports = self.fabric.ports.write();
        let addr = self.inbox.addr;
        if ports
            .get(&addr)
            .is_some_and(|p| Arc::ptr_eq(p, &self.inbox))
        {
            ports.remove(&addr);
        }
    }
}

impl Drop for Port {
    fn drop(&mut self) {
        self.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair(fabric: &Arc<Fabric>) -> (Port, Port) {
        let a = fabric.open_port(NodeId(1), PortId(0)).unwrap();
        let b = fabric.open_port(NodeId(2), PortId(0)).unwrap();
        (a, b)
    }

    #[test]
    fn open_and_close_ports() {
        let fabric = Fabric::new();
        let p = fabric.open_port(NodeId(1), PortId(2)).unwrap();
        assert!(matches!(
            fabric.open_port(NodeId(1), PortId(2)),
            Err(PtError::Io(_))
        ));
        drop(p);
        // Reopen works after close.
        let _p = fabric.open_port(NodeId(1), PortId(2)).unwrap();
    }

    #[test]
    fn send_and_receive() {
        let fabric = Fabric::new();
        let (a, b) = pair(&fabric);
        a.send(b.addr(), b"ping").unwrap();
        let (src, data) = b.poll().unwrap();
        assert_eq!(src, a.addr());
        assert_eq!(&data[..], b"ping");
        assert!(a.poll().is_none(), "a send leaves nothing on the sender");
    }

    #[test]
    fn unknown_destination() {
        let fabric = Fabric::new();
        let (a, _b) = pair(&fabric);
        let ghost = GmAddr {
            node: NodeId(99),
            port: PortId(0),
        };
        assert!(matches!(a.send(ghost, b"x"), Err(PtError::Unreachable(_))));
    }

    #[test]
    fn message_too_large() {
        let fabric = Fabric::new();
        let (a, b) = pair(&fabric);
        let big = vec![0u8; MAX_MESSAGE + 1];
        assert!(matches!(
            a.send(b.addr(), &big),
            Err(PtError::Unreachable(_))
        ));
    }

    #[test]
    fn latency_model_delays_delivery() {
        let fabric = Fabric::with_latency(LatencyModel {
            base_ns: 3_000_000,
            per_byte_ns: 0.0,
        });
        let (a, b) = pair(&fabric);
        let t0 = Instant::now();
        a.send(b.addr(), b"slow").unwrap();
        assert!(b.poll().is_none(), "not yet deliverable");
        assert!(b.blocking_poll(Duration::from_millis(100)).is_some());
        assert!(t0.elapsed() >= Duration::from_millis(3));
    }

    #[test]
    fn full_inbound_queue_would_block() {
        let fabric = Fabric::new();
        let (a, b) = pair(&fabric);
        for _ in 0..INBOUND_CAPACITY {
            a.send(b.addr(), b"1").unwrap();
        }
        assert!(matches!(a.send(b.addr(), b"2"), Err(PtError::WouldBlock)));
        b.poll().unwrap();
        a.send(b.addr(), b"3").unwrap();
    }

    #[test]
    fn ping_pong_across_threads() {
        let fabric = Fabric::new();
        let (a, b) = pair(&fabric);
        let b_addr = b.addr();
        let echo = std::thread::spawn(move || {
            for _ in 0..1000 {
                let (src, data) = b
                    .blocking_poll(Duration::from_secs(5))
                    .expect("echo timeout");
                b.send(src, &data).unwrap();
            }
        });
        for i in 0..1000u32 {
            let msg = i.to_le_bytes();
            a.send(b_addr, &msg).unwrap();
            let (_, data) = a
                .blocking_poll(Duration::from_secs(5))
                .expect("pinger timeout");
            assert_eq!(&data[..], &msg);
        }
        echo.join().unwrap();
    }
}
