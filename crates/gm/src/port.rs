//! Ports: the GM endpoint object.

use crate::error::GmError;
use crate::net::{Fabric, NodeId};
use crate::token::TokenCounter;
use crate::GM_MAX_MESSAGE;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

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

/// Receive-buffer size classes: 64 B … 256 KB in powers of two, as in
/// GM's `gm_provide_receive_buffer(size)` discipline.
pub const NUM_SIZE_CLASSES: usize = 13;
const MIN_CLASS_SHIFT: u32 = 6; // 64 bytes

/// Maps a message length to its size class.
#[inline]
pub fn size_class(len: usize) -> usize {
    let rounded = len.max(64).next_power_of_two();
    (rounded.trailing_zeros() - MIN_CLASS_SHIFT) as usize
}

/// Port tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct PortConfig {
    /// Send tokens (outstanding sends).
    pub send_tokens: usize,
    /// Bound on the inbound packet queue.
    pub inbound_capacity: usize,
    /// When true, reception does not require provided buffers
    /// (convenience mode for tests/examples; real GM discipline is
    /// `false` + explicit [`Port::provide_receive_buffer`] calls).
    pub unlimited_credits: bool,
}

impl Default for PortConfig {
    fn default() -> PortConfig {
        PortConfig {
            send_tokens: 64,
            inbound_capacity: 4096,
            unlimited_credits: false,
        }
    }
}

impl PortConfig {
    /// Convenience configuration without buffer accounting.
    pub fn unlimited() -> PortConfig {
        PortConfig {
            unlimited_credits: true,
            ..PortConfig::default()
        }
    }
}

/// One packet in flight.
pub(crate) struct Packet {
    src: GmAddr,
    data: Box<[u8]>,
    /// `None` with the zero latency model.
    deliver_at: Option<Instant>,
}

/// Events produced by [`Port::poll`] — the analogue of `gm_receive`.
#[derive(Debug)]
pub enum GmEvent {
    /// A message arrived.
    Received {
        /// Sender address.
        src: GmAddr,
        /// Message bytes (the "DMA-ed" receive buffer).
        data: Box<[u8]>,
    },
    /// A send completed; its token has been returned.
    SendCompleted {
        /// Destination of the completed send.
        dest: GmAddr,
        /// Payload length.
        len: usize,
        /// Caller-supplied context (callback argument in GM).
        context: u64,
    },
}

pub(crate) struct PortInner {
    pub(crate) addr: GmAddr,
    inbound: Mutex<VecDeque<Packet>>,
    inbound_capacity: usize,
    completions: Mutex<VecDeque<GmEvent>>,
    send_tokens: TokenCounter,
    credits: [AtomicI64; NUM_SIZE_CLASSES],
    unlimited_credits: bool,
}

impl PortInner {
    pub(crate) fn new(addr: GmAddr, config: PortConfig) -> PortInner {
        PortInner {
            addr,
            inbound: Mutex::new(VecDeque::with_capacity(64)),
            inbound_capacity: config.inbound_capacity,
            completions: Mutex::default(),
            send_tokens: TokenCounter::new(config.send_tokens),
            credits: std::array::from_fn(|_| AtomicI64::new(0)),
            unlimited_credits: config.unlimited_credits,
        }
    }

    /// Enqueues a packet; `false` when the queue is full.
    fn enqueue(&self, packet: Packet) -> bool {
        let mut q = self.inbound.lock();
        if q.len() >= self.inbound_capacity {
            return false;
        }
        q.push_back(packet);
        true
    }
}

/// An open GM port. Dropping it closes the port.
pub struct Port {
    inner: Arc<PortInner>,
    fabric: Arc<Fabric>,
}

impl Port {
    pub(crate) fn new(inner: Arc<PortInner>, fabric: Arc<Fabric>) -> Port {
        Port { inner, fabric }
    }

    /// This port's fabric address.
    pub fn addr(&self) -> GmAddr {
        self.inner.addr
    }

    /// Available send tokens.
    pub fn send_tokens(&self) -> usize {
        self.inner.send_tokens.available()
    }

    /// Provides `count` receive buffers of class `size` (rounded up to
    /// the class capacity), enabling delivery of that class.
    pub fn provide_receive_buffer(&self, size: usize, count: usize) {
        let class = size_class(size);
        self.inner.credits[class].fetch_add(count as i64, Ordering::AcqRel);
    }

    /// Sends `data` to `dest`, consuming one send token.
    ///
    /// On success a [`GmEvent::SendCompleted`] with `context` becomes
    /// available on **this** port, returning the token.
    pub fn send(&self, dest: GmAddr, data: &[u8], context: u64) -> Result<(), GmError> {
        self.send_boxed(dest, data.to_vec().into_boxed_slice(), context)
    }

    /// Zero-copy variant of [`Port::send`] taking ownership of the
    /// buffer.
    pub fn send_boxed(&self, dest: GmAddr, data: Box<[u8]>, context: u64) -> Result<(), GmError> {
        let len = data.len();
        if len > GM_MAX_MESSAGE {
            return Err(GmError::MessageTooLarge(len));
        }
        let target = self.fabric.lookup(dest)?;
        if !self.inner.send_tokens.try_acquire() {
            return Err(GmError::NoSendTokens);
        }
        let latency = self.fabric.latency();
        let deliver_at = if latency.is_zero() {
            None
        } else {
            Some(Instant::now() + latency.delay(len))
        };
        let packet = Packet {
            src: self.inner.addr,
            data,
            deliver_at,
        };
        if !target.enqueue(packet) {
            self.inner.send_tokens.release();
            self.fabric.account_reject();
            return Err(GmError::QueueFull {
                node: dest.node.0,
                port: dest.port.0,
            });
        }
        self.fabric.account_send(len);
        // The "wire DMA" completed as soon as the packet is queued; the
        // completion event returns the token when polled.
        self.inner.send_tokens.release();
        self.inner
            .completions
            .lock()
            .push_back(GmEvent::SendCompleted { dest, len, context });
        Ok(())
    }

    /// Non-blocking poll for the next event (`gm_receive`).
    pub fn poll(&self) -> Option<GmEvent> {
        if let Some(ev) = self.inner.completions.lock().pop_front() {
            return Some(ev);
        }
        let mut q = self.inner.inbound.lock();
        let front = q.front()?;
        if let Some(t) = front.deliver_at {
            if Instant::now() < t {
                return None;
            }
        }
        if !self.inner.unlimited_credits {
            let class = size_class(front.data.len());
            let c = &self.inner.credits[class];
            if c.load(Ordering::Acquire) <= 0 {
                return None; // no receive buffer provided for this class
            }
            c.fetch_sub(1, Ordering::AcqRel);
        }
        let packet = q.pop_front().expect("front checked");
        drop(q);
        Some(GmEvent::Received {
            src: packet.src,
            data: packet.data,
        })
    }

    /// Polls until an event arrives or `timeout` elapses. Spins
    /// briefly, then yields — the pattern of a GM polling loop that
    /// stays kind to co-scheduled threads.
    pub fn blocking_poll(&self, timeout: Duration) -> Option<GmEvent> {
        let deadline = Instant::now() + timeout;
        let mut spins = 0u32;
        loop {
            if let Some(ev) = self.poll() {
                return Some(ev);
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

    /// Packets waiting in the inbound queue (diagnostics).
    pub fn pending(&self) -> usize {
        self.inner.inbound.lock().len()
    }

    /// Releases this port's fabric address: later sends to it fail
    /// [`GmError::UnknownPort`], and a new port may open there. Idempotent;
    /// dropping the port does the same.
    pub fn close(&self) {
        self.fabric.unregister(&self.inner);
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
    use crate::latency::LatencyModel;

    fn pair(fabric: &Arc<Fabric>) -> (Port, Port) {
        let a = fabric
            .open_port_with(NodeId(1), PortId(0), PortConfig::unlimited())
            .unwrap();
        let b = fabric
            .open_port_with(NodeId(2), PortId(0), PortConfig::unlimited())
            .unwrap();
        (a, b)
    }

    #[test]
    fn send_and_receive() {
        let fabric = Fabric::new();
        let (a, b) = pair(&fabric);
        a.send(b.addr(), b"ping", 7).unwrap();
        // Sender sees the completion.
        match a.poll().unwrap() {
            GmEvent::SendCompleted { len, context, .. } => {
                assert_eq!(len, 4);
                assert_eq!(context, 7);
            }
            other => panic!("unexpected {other:?}"),
        }
        // Receiver sees the data.
        match b.poll().unwrap() {
            GmEvent::Received { src, data } => {
                assert_eq!(src, a.addr());
                assert_eq!(&data[..], b"ping");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn unknown_destination() {
        let fabric = Fabric::new();
        let (a, _b) = pair(&fabric);
        let ghost = GmAddr {
            node: NodeId(99),
            port: PortId(0),
        };
        assert!(matches!(
            a.send(ghost, b"x", 0),
            Err(GmError::UnknownPort { node: 99, .. })
        ));
    }

    #[test]
    fn message_too_large() {
        let fabric = Fabric::new();
        let (a, b) = pair(&fabric);
        let big = vec![0u8; GM_MAX_MESSAGE + 1];
        assert!(matches!(
            a.send(b.addr(), &big, 0),
            Err(GmError::MessageTooLarge(_))
        ));
    }

    #[test]
    fn credit_discipline_blocks_until_buffer_provided() {
        let fabric = Fabric::new();
        let a = fabric.open_port(NodeId(1), PortId(0)).unwrap();
        let b = fabric.open_port(NodeId(2), PortId(0)).unwrap();
        a.send(b.addr(), &[1u8; 100], 0).unwrap();
        let _ = a.poll(); // drain completion
        assert!(b.poll().is_none(), "no buffer provided yet");
        b.provide_receive_buffer(128, 1);
        assert!(matches!(b.poll(), Some(GmEvent::Received { .. })));
        assert!(b.poll().is_none(), "credit consumed");
    }

    #[test]
    fn credits_are_per_class() {
        let fabric = Fabric::new();
        let a = fabric.open_port(NodeId(1), PortId(0)).unwrap();
        let b = fabric.open_port(NodeId(2), PortId(0)).unwrap();
        a.send(b.addr(), &[1u8; 100], 0).unwrap(); // class of 128
        b.provide_receive_buffer(4096, 1); // wrong class
        assert!(b.poll().is_none());
        b.provide_receive_buffer(100, 1);
        assert!(b.poll().is_some());
    }

    #[test]
    fn latency_model_delays_delivery() {
        let fabric = Fabric::with_latency(LatencyModel {
            base_ns: 3_000_000,
            per_byte_ns: 0.0,
        });
        let (a, b) = pair(&fabric);
        let t0 = Instant::now();
        a.send(b.addr(), b"slow", 0).unwrap();
        assert!(b.poll().is_none(), "not yet deliverable");
        let ev = b.blocking_poll(Duration::from_millis(100)).unwrap();
        assert!(matches!(ev, GmEvent::Received { .. }));
        assert!(t0.elapsed() >= Duration::from_millis(3));
    }

    #[test]
    fn queue_full_returns_token() {
        let fabric = Fabric::new();
        let a = fabric
            .open_port_with(NodeId(1), PortId(0), PortConfig::unlimited())
            .unwrap();
        let cfg = PortConfig {
            inbound_capacity: 2,
            ..PortConfig::unlimited()
        };
        let b = fabric.open_port_with(NodeId(2), PortId(0), cfg).unwrap();
        a.send(b.addr(), b"1", 0).unwrap();
        a.send(b.addr(), b"2", 0).unwrap();
        let tokens_before = a.send_tokens();
        assert!(matches!(
            a.send(b.addr(), b"3", 0),
            Err(GmError::QueueFull { .. })
        ));
        assert_eq!(a.send_tokens(), tokens_before, "token returned on reject");
        assert_eq!(fabric.stats().rejects, 1);
    }

    #[test]
    fn send_token_exhaustion() {
        let fabric = Fabric::new();
        let cfg = PortConfig {
            send_tokens: 1,
            ..PortConfig::unlimited()
        };
        let a = fabric.open_port_with(NodeId(1), PortId(0), cfg).unwrap();
        let b = fabric
            .open_port_with(NodeId(2), PortId(0), PortConfig::unlimited())
            .unwrap();
        // Tokens are returned synchronously on queue success in this
        // model, so exhaustion is only observable transiently; verify
        // the API path by sending many times without polling.
        for _ in 0..100 {
            a.send(b.addr(), b"x", 0).unwrap();
        }
        assert_eq!(a.send_tokens(), 1);
    }

    #[test]
    fn ping_pong_across_threads() {
        let fabric = Fabric::new();
        let a = fabric
            .open_port_with(NodeId(1), PortId(0), PortConfig::unlimited())
            .unwrap();
        let b = fabric
            .open_port_with(NodeId(2), PortId(0), PortConfig::unlimited())
            .unwrap();
        let a_addr = a.addr();
        let echo = std::thread::spawn(move || {
            for _ in 0..1000 {
                loop {
                    match b.blocking_poll(Duration::from_secs(5)) {
                        Some(GmEvent::Received { src, data }) => {
                            b.send(src, &data, 0).unwrap();
                            break;
                        }
                        Some(GmEvent::SendCompleted { .. }) => continue,
                        None => panic!("echo timeout"),
                    }
                }
            }
        });
        for i in 0..1000u32 {
            let msg = i.to_le_bytes();
            a.send(
                GmAddr {
                    node: NodeId(2),
                    port: PortId(0),
                },
                &msg,
                0,
            )
            .unwrap();
            loop {
                match a.blocking_poll(Duration::from_secs(5)) {
                    Some(GmEvent::Received { data, .. }) => {
                        assert_eq!(&data[..], &msg);
                        break;
                    }
                    Some(GmEvent::SendCompleted { .. }) => continue,
                    None => panic!("pinger timeout"),
                }
            }
        }
        echo.join().unwrap();
        let _ = a_addr;
    }
}
