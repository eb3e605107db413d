//! The device-class listener trait and the dispatch context.
//!
//! Paper §4: *"A device class is programmed in C++ by inheriting from
//! an i2oListener class. Similar to the Java Event model, the class
//! inherits the interfaces from the i2oExecutive, i2oUtility and
//! private classes."* — in Rust, a device class implements
//! [`I2oListener`]; the utility interface has default method bodies
//! (the paper's "default procedures ... for a homogeneous view of
//! software components with fault tolerant behaviour").

use crate::error::ExecError;
use crate::executive::ExecCore;
use crate::pta::PeerAddr;
use crate::registry::DeviceMeta;
use crate::route::Route;
use xdaq_i2o::frame::MAX_PAYLOAD_LEN;
use xdaq_i2o::{
    DeviceClass, DeviceState, FrameError, FunctionCode, Message, MsgHeader, OrgId, Priority,
    PrivateHeader, ReplyStatus, Tid, UtilFn, HEADER_LEN, PRIVATE_HEADER_LEN,
};
use xdaq_mempool::FrameBuf;

/// Identifier of a registered timer.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct TimerId(pub u64);

/// One frame as delivered to (or sent by) a device: the pooled buffer
/// holding the encoded frame plus its decoded headers.
///
/// This is the zero-copy currency of the executive — the buffer a PT
/// received into is the buffer the listener reads the payload from.
#[derive(Debug)]
pub struct Delivery {
    /// Decoded standard header.
    pub header: MsgHeader,
    /// Decoded private extension, iff the frame is private.
    pub private: Option<PrivateHeader>,
    /// Stamped at enqueue time when frame tracing is enabled, so the
    /// dispatcher can record queue latency without paying for a clock
    /// read on the disabled path.
    pub(crate) enqueued_at: Option<std::time::Instant>,
    /// Set by the scheduling queue's `pop`; see [`Delivery::more_queued`].
    pub(crate) more_queued: bool,
    buf: FrameBuf,
}

impl Delivery {
    /// Decodes an encoded frame held in a pooled buffer.
    pub fn from_buf(buf: FrameBuf) -> Result<Delivery, FrameError> {
        let header = MsgHeader::decode(&buf)?;
        Delivery::with_header(buf, header)
    }

    /// [`Delivery::from_buf`] for a caller that already decoded the
    /// standard header of `buf` (ingest patches the initiator between
    /// the two steps and need not decode twice).
    pub(crate) fn with_header(buf: FrameBuf, header: MsgHeader) -> Result<Delivery, FrameError> {
        let private = if header.is_private() {
            if (header.payload_len as usize) < 4 {
                return Err(FrameError::PrivateTooShort(buf.len()));
            }
            Some(PrivateHeader::decode(&buf)?)
        } else {
            None
        };
        Ok(Delivery {
            header,
            private,
            enqueued_at: None,
            more_queued: false,
            buf,
        })
    }

    /// Encodes an owned [`Message`] into a pooled buffer.
    pub fn from_message(
        msg: &Message,
        alloc: &dyn xdaq_mempool::FrameAllocator,
    ) -> Result<Delivery, ExecError> {
        let len = msg.wire_len();
        let mut buf = alloc.alloc(len)?;
        msg.encode(&mut buf)?;
        Delivery::from_buf(buf).map_err(ExecError::Frame)
    }

    /// Builds a private frame in the pool block that will carry it:
    /// allocates the block, encodes both headers (`header.payload_len`
    /// is set here) and lets `fill` write the `payload_len` payload
    /// bytes in place. Nothing is decoded back. The slice handed to
    /// `fill` holds whatever the block's previous user left there.
    pub(crate) fn private_in_place(
        alloc: &dyn xdaq_mempool::FrameAllocator,
        mut header: MsgHeader,
        private: PrivateHeader,
        payload_len: usize,
        fill: impl FnOnce(&mut [u8]),
    ) -> Result<Delivery, ExecError> {
        // Refused before a block is taken: an oversized request is the
        // caller's bug, not pool exhaustion.
        let framed = payload_len.saturating_add(PRIVATE_HEADER_LEN - HEADER_LEN);
        if framed > MAX_PAYLOAD_LEN {
            return Err(FrameError::PayloadTooLong(payload_len).into());
        }
        header.payload_len = framed as u32;
        let mut buf = alloc.alloc(header.frame_len())?;
        header.encode(&mut buf)?;
        private.encode(&mut buf)?;
        fill(&mut buf[PRIVATE_HEADER_LEN..PRIVATE_HEADER_LEN + payload_len]);
        Ok(Delivery {
            header,
            private: Some(private),
            enqueued_at: None,
            more_queued: false,
            buf,
        })
    }

    /// Application payload bytes (after the private extension if any).
    pub fn payload(&self) -> &[u8] {
        let start = if self.private.is_some() {
            PRIVATE_HEADER_LEN
        } else {
            HEADER_LEN
        };
        let end = HEADER_LEN + self.header.payload_len as usize;
        &self.buf[start..end]
    }

    /// The full encoded frame.
    pub fn frame_bytes(&self) -> &[u8] {
        &self.buf[..self.header.frame_len()]
    }

    /// Scheduling priority.
    pub fn priority(&self) -> Priority {
        self.header.flags.priority()
    }

    /// True when, as the scheduler popped this delivery, its target's
    /// FIFO at this priority level still held deliveries: the device is
    /// about to be dispatched again. A listener may defer work that a
    /// burst of frames can share to the upcall whose delivery reads
    /// `false` (the event manager batches its `ASSIGN`s that way). A
    /// delivery that never passed through the queue reads `false`.
    pub fn more_queued(&self) -> bool {
        self.more_queued
    }

    /// Converts to an owned [`Message`] (copies the payload).
    pub fn to_message(&self) -> Message {
        Message {
            header: self.header,
            private: self.private,
            payload: self.payload().into(),
        }
    }

    /// Consumes the delivery, returning the underlying buffer (e.g. to
    /// hand it to a peer transport for the wire).
    pub fn into_buf(self) -> FrameBuf {
        self.buf
    }

    /// For replies: the status byte and remaining body.
    pub fn reply_status(&self) -> Option<(ReplyStatus, &[u8])> {
        if !self.header.flags.contains(xdaq_i2o::MsgFlags::IS_REPLY) {
            return None;
        }
        let p = self.payload();
        if p.is_empty() {
            return None;
        }
        Some((ReplyStatus::from_u8(p[0]), &p[1..]))
    }
}

/// What a listener's utility handler decided.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UtilOutcome {
    /// Let the executive apply its default procedure for this event.
    Default,
    /// The listener handled (and, if needed, replied to) the event.
    Handled,
}

/// The interface a device class implements.
///
/// All methods run on the executive's dispatch thread — the loop of
/// control stays in the executive (paper §4), so implementations need
/// no internal locking for their own state.
pub trait I2oListener: Send {
    /// Device class of this instance.
    fn class(&self) -> DeviceClass;

    /// Called once after registration, when the instance has its TiD
    /// and parameters (the paper's "plugin method that is not defined
    /// by I2O": *"At this point the newly created class can obtain its
    /// TiD and retrieve parameter settings from the executive."*).
    fn plugged(&mut self, ctx: &mut Dispatcher<'_>) {
        let _ = ctx;
    }

    /// Called when the device is destroyed or the executive stops.
    fn unplugged(&mut self) {}

    /// A private (application) frame arrived.
    fn on_private(&mut self, ctx: &mut Dispatcher<'_>, msg: Delivery);

    /// A utility-class frame arrived. Return [`UtilOutcome::Default`]
    /// to use the executive's built-in behaviour.
    fn on_util(&mut self, ctx: &mut Dispatcher<'_>, f: UtilFn, msg: &Delivery) -> UtilOutcome {
        let _ = (ctx, f, msg);
        UtilOutcome::Default
    }

    /// A reply to a **standard-function** (utility/executive) request
    /// this device initiated. Private replies arrive at
    /// [`I2oListener::on_private`] like any private frame.
    fn on_reply(&mut self, ctx: &mut Dispatcher<'_>, msg: Delivery) {
        let _ = (ctx, msg);
    }

    /// A timer registered via [`Dispatcher::start_timer`] expired.
    fn on_timer(&mut self, ctx: &mut Dispatcher<'_>, id: TimerId) {
        let _ = (ctx, id);
    }
}

/// Handle given to listeners during upcalls: the window through which a
/// device talks to its executive (frameSend/frameReply, timers, memory,
/// parameters).
pub struct Dispatcher<'a> {
    pub(crate) core: &'a ExecCore,
    pub(crate) meta: &'a mut DeviceMeta,
}

impl<'a> Dispatcher<'a> {
    /// The current device's TiD.
    pub fn own_tid(&self) -> Tid {
        self.meta.tid
    }

    /// Node (IOP) name of this executive.
    pub fn node(&self) -> &str {
        self.core.node_name()
    }

    /// Current device state.
    pub fn state(&self) -> DeviceState {
        self.meta.state
    }

    /// Marks the current device faulted (only utility traffic will be
    /// delivered until a reset).
    pub fn fault(&mut self) {
        if self.meta.state.can_transition(DeviceState::Faulted) {
            self.meta.state = DeviceState::Faulted;
        }
    }

    /// Reads one of the device's configuration parameters.
    pub fn param(&self, key: &str) -> Option<&str> {
        self.meta.params.get(key).map(|s| s.as_str())
    }

    /// Sets a configuration parameter.
    pub fn set_param(&mut self, key: &str, value: &str) {
        self.meta.params.insert(key.to_string(), value.to_string());
    }

    /// Allocates a pooled buffer (counts toward frameAlloc probes).
    pub fn alloc(&self, len: usize) -> Result<FrameBuf, ExecError> {
        Ok(self.core.alloc(len)?)
    }

    /// The paper's `frameSend`: routes an owned message. The initiator
    /// field is forced to this device's TiD.
    pub fn send(&mut self, mut msg: Message) -> Result<(), ExecError> {
        msg.header.initiator = self.meta.tid;
        let d = Delivery::from_message(&msg, self.core.allocator())?;
        self.core.route(d)
    }

    /// In-place `frameSend` of a private frame: allocates the pool
    /// block, encodes the I2O and private headers with this device as
    /// initiator, has `fill` write the `payload_len` payload bytes
    /// straight into the block, and routes it. One pool allocation, no
    /// intermediate `Vec` or `Message`, no encode-then-decode; on `Err` the
    /// block has already gone back to the pool. `fill` must write
    /// every byte — the slice is not zeroed.
    pub fn send_private_with(
        &mut self,
        target: Tid,
        org: OrgId,
        x_function: u16,
        payload_len: usize,
        fill: impl FnOnce(&mut [u8]),
    ) -> Result<(), ExecError> {
        let header = MsgHeader::new(target, self.meta.tid, FunctionCode::Private);
        let private = PrivateHeader::new(org, x_function);
        let d =
            Delivery::private_in_place(self.core.allocator(), header, private, payload_len, fill)?;
        self.core.route(d)
    }

    /// Zero-copy `frameSend` of a pre-encoded frame.
    pub fn send_delivery(&mut self, d: Delivery) -> Result<(), ExecError> {
        self.core.route(d)
    }

    /// The paper's `frameReply`: builds and routes the reply to `msg`.
    pub fn reply(
        &mut self,
        msg: &Delivery,
        status: ReplyStatus,
        body: &[u8],
    ) -> Result<(), ExecError> {
        let mut header = msg.header.reply_header();
        let private = msg.private;
        let ext = if private.is_some() { 4usize } else { 0 };
        header.payload_len = (1 + body.len() + ext) as u32;
        let total = header.frame_len();
        let mut buf = self.core.alloc(total)?;
        header.encode(&mut buf)?;
        let mut off = HEADER_LEN;
        if let Some(p) = &private {
            p.encode(&mut buf)?;
            off = PRIVATE_HEADER_LEN;
        }
        buf[off] = status as u8;
        buf[off + 1..off + 1 + body.len()].copy_from_slice(body);
        let d = Delivery::from_buf(buf).map_err(ExecError::Frame)?;
        self.core.route(d)
    }

    /// Registers a one-shot timer; an [`I2oListener::on_timer`] upcall
    /// arrives (as a queued XFN_TIMER message) after `delay`.
    pub fn start_timer(&self, delay: std::time::Duration) -> TimerId {
        self.core.timers().register(self.meta.tid, delay, false)
    }

    /// The current instant on the executive's clock. Devices that
    /// timestamp protocol state (e.g. the event builder's assembly
    /// latency) read time here instead of `Instant::now()` so their
    /// behaviour virtualizes under simulation (DESIGN.md §16).
    pub fn now(&self) -> std::time::Instant {
        self.core.clock().now()
    }

    /// Registers a periodic timer.
    pub fn start_periodic(&self, period: std::time::Duration) -> TimerId {
        self.core.timers().register(self.meta.tid, period, true)
    }

    /// Cancels a timer; `true` if it existed.
    pub fn cancel_timer(&self, id: TimerId) -> bool {
        self.core.timers().cancel(id)
    }

    /// Finds a local device instance by name (configuration-time
    /// discovery; remote devices appear here once a proxy TiD has been
    /// created for them).
    pub fn lookup(&self, name: &str) -> Option<Tid> {
        self.core.lookup_name(name)
    }

    /// The peer a proxy TiD leads to; `None` for a local device or a
    /// TiD with no route. The event manager keys builder deaths
    /// (`XFN_PEER_DOWN`) by it.
    pub fn peer_of(&self, tid: Tid) -> Option<PeerAddr> {
        match self.core.routes.resolve(tid)? {
            Route::Peer(via) => Some(via.peer.clone()),
            Route::Local => None,
        }
    }

    /// The executive's metric registry, for devices that publish their
    /// own counters (the recorder's `rec.*` family, for instance).
    pub fn metrics(&self) -> &xdaq_mon::Registry {
        self.core.monitors().registry()
    }

    /// Subscribes this device to the executive's fault events: peer
    /// deaths (`XFN_PEER_DOWN`), watchdog trips (`XFN_WATCHDOG`) and
    /// dispatch faults (`XFN_FAULT`) arrive at
    /// [`I2oListener::on_private`] under `ORG_XDAQ`. One listener per
    /// executive (last subscriber wins) — the event manager uses this
    /// to reclaim credits from builder units whose node died.
    pub fn watch_faults(&self) {
        self.core.set_fault_listener(self.meta.tid);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xdaq_i2o::FunctionCode;
    use xdaq_mempool::{FrameAllocator, TablePool};

    fn t(v: u16) -> Tid {
        Tid::new(v).unwrap()
    }

    #[test]
    fn delivery_roundtrip_private() {
        let pool = TablePool::with_defaults();
        let msg = Message::build_private(t(0x40), t(0x41), 0x0cec, 0x10)
            .payload(&b"payload!"[..])
            .priority(Priority::new(2).unwrap())
            .finish();
        let d = Delivery::from_message(&msg, &*pool).unwrap();
        assert_eq!(d.payload(), b"payload!");
        assert_eq!(d.private.unwrap().x_function, 0x10);
        assert_eq!(d.priority().level(), 2);
        assert_eq!(d.to_message(), msg);
    }

    #[test]
    fn delivery_roundtrip_standard() {
        let pool = TablePool::with_defaults();
        let msg = Message::build(t(1), t(2), FunctionCode::Util(UtilFn::Nop))
            .payload(&b"x"[..])
            .finish();
        let d = Delivery::from_message(&msg, &*pool).unwrap();
        assert!(d.private.is_none());
        assert_eq!(d.payload(), b"x");
    }

    #[test]
    fn delivery_rejects_garbage() {
        let buf = FrameBuf::from_bytes(&[0u8; 32]);
        assert!(Delivery::from_buf(buf).is_err());
    }

    #[test]
    fn frame_bytes_reencode() {
        let pool = TablePool::with_defaults();
        let msg = Message::build_private(t(3), t(4), 1, 2)
            .payload(&b"abc"[..])
            .finish();
        let d = Delivery::from_message(&msg, &*pool).unwrap();
        assert_eq!(d.frame_bytes(), &msg.encode_vec()[..]);
    }

    #[test]
    fn reply_status_parsing() {
        let pool = TablePool::with_defaults();
        let req = Message::build_private(t(3), t(4), 1, 2).finish();
        let rep = req.reply(ReplyStatus::Busy, b"later");
        let d = Delivery::from_message(&rep, &*pool).unwrap();
        let (status, body) = d.reply_status().unwrap();
        assert_eq!(status, ReplyStatus::Busy);
        assert_eq!(body, b"later");
        // Requests have no reply status.
        let dr = Delivery::from_message(&req, &*pool).unwrap();
        assert!(dr.reply_status().is_none());
    }

    #[test]
    fn pool_recycles_delivery_buffers() {
        let pool = TablePool::with_defaults();
        let msg = Message::build_private(t(3), t(4), 1, 2)
            .payload(vec![0u8; 100])
            .finish();
        {
            let _d = Delivery::from_message(&msg, &*pool).unwrap();
        }
        assert_eq!(pool.stats().live_blocks, 0);
        assert_eq!(pool.stats().frees, 1);
    }
}
