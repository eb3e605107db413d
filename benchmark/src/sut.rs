//! The system-under-test adapter: the only file that names product
//! types, all through the `xdaq` facade crate.
//!
//! Three interposers live here, none of which edits the product:
//!
//! * [`SpanPt`], a `PeerTransport` wrapper (in the `ChaosPt::wrap`
//!   style) around every node's transport. It times `send`, `poll` and
//!   the `IngestSink` it hands to `start`, and on event-builder nodes it
//!   reads the frames going by: TRIGGER/DONE stamps *are* the build
//!   latency measurement, FRAGMENT payload checks feed the collector.
//! * the benchmark's own `I2oListener` devices (ping origin/echo,
//!   stream source/sink, event collector), which time their
//!   `ctx.alloc`, `Message::encode`, `ctx.send_delivery`, frame drop and
//!   upcall body, and verify every byte they are handed.
//! * [`Rig::pump`], the cooperative pump loop, which times each
//!   `run_once` per node.
//!
//! `benchmark/README.md` lists the product signatures this file pins.

use crate::check::{
    pattern_intact, payload_pattern, read_stamp, stamp, EventChecker, EventClock, OpLog,
    SeqChecker, SeqVerdict, STAMP_LEN,
};
use crate::trace::{frame_key, Name, Recorder};
use std::cell::Cell;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use xdaq::core::config::kv;
use xdaq::core::{
    Delivery, Dispatcher, Executive, ExecutiveConfig, I2oListener, IngestSink, PeerAddr,
    PeerTransport, PtError, PtMode, SendFailure,
};
use xdaq::ctl::runner::bind_transport;
use xdaq::ctl::Topology;
use xdaq::evb::{
    xfn as evb_xfn, BuilderUnit, EventManager, EvmStats, FragmentHeader, ReadoutUnit, DONE_BUILT,
    FRAGMENT_HEADER_LEN, ORG_DAQ,
};
use xdaq::gm::{Fabric, LatencyModel};
use xdaq::i2o::{
    DeviceClass, Message, MsgHeader, PrivateHeader, Tid, UtilFn, HEADER_LEN, PRIVATE_HEADER_LEN,
};
use xdaq::mempool::{FrameBuf, TablePool};
use xdaq::pt::{ChaosPt, FaultPlan, GmPt, LoopbackHub, LoopbackPt};
use xdaq::shm::{ShmConfig, ShmPt};

/// Organization id of the benchmark's private frames.
const ORG_BENCH: u16 = 0x0b3c;
/// Kick: the origin / source starts sending.
const X_START: u16 = 1;
/// A stamped, patterned data frame.
const X_DATA: u16 = 2;
/// Cumulative acknowledgement (stream sink → source).
const X_ACK: u16 = 3;

/// Sources and builders of the event-builder mesh.
pub const EVB_SOURCES: usize = 4;
pub const EVB_BUILDERS: usize = 2;
/// Fragment payload bytes per source.
pub const EVB_FRAGMENT: usize = 2048;
/// Buffer credits each builder grants.
pub const EVB_CREDITS: usize = 8;

/// One event in this many has every fragment byte verified by the
/// benchmark (the builder itself verifies all of them).
const DEEP_CHECK_EVERY: u64 = 8;

/// What the run shares with every interposer.
#[derive(Clone)]
pub struct Probe {
    pub log: Arc<OpLog>,
    /// Present in a traced process only.
    pub rec: Option<Arc<Recorder>>,
}

impl Probe {
    /// The recorder, while a traced window is open.
    fn tracing(&self) -> Option<&Recorder> {
        self.rec.as_deref().filter(|r| r.is_on())
    }
}

/// Runs `f` inside a span when tracing.
fn timed<R>(tr: Option<&Recorder>, name: Name, node: u8, op: u64, f: impl FnOnce() -> R) -> R {
    match tr {
        None => f(),
        Some(r) => {
            let open = r.enter(name, node, op);
            let out = f();
            r.exit(open);
            out
        }
    }
}

// ---------------------------------------------------------------------
// SpanPt
// ---------------------------------------------------------------------

/// Single-writer counters: each is bumped from one thread only (sends
/// and polls from the pump thread, sink frames from the transport's
/// reader), so a plain load/store pair replaces the locked add.
#[derive(Default)]
pub struct PtStats {
    pub sends: AtomicU64,
    pub send_failures: AtomicU64,
    pub polls: AtomicU64,
    pub poll_hits: AtomicU64,
    pub sink_frames: AtomicU64,
}

fn bump(c: &AtomicU64) {
    c.store(c.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
}

/// What a [`SpanPt`] reads out of the frames going by.
#[derive(Clone)]
pub enum Tap {
    None,
    /// Event manager's node: TRIGGER out / DONE in → build latency.
    Evm(Arc<EventClock>),
    /// Builder's node: every arriving FRAGMENT is payload-checked.
    Builder(Arc<EventChecker>),
}

/// The private extension and payload of an encoded frame, borrowed.
fn private_view(frame: &[u8]) -> Option<(PrivateHeader, &[u8])> {
    let header = MsgHeader::decode(frame).ok()?;
    if !header.is_private() {
        return None;
    }
    let private = PrivateHeader::decode(frame).ok()?;
    let payload = frame.get(PRIVATE_HEADER_LEN..HEADER_LEN + header.payload_len as usize)?;
    Some((private, payload))
}

fn u64_at(p: &[u8], off: usize) -> Option<u64> {
    Some(u64::from_le_bytes(p.get(off..off + 8)?.try_into().ok()?))
}

/// Operation id of a frame: the first eight payload bytes of a private
/// frame (sequence number in benchmark frames, event id in most
/// event-builder frames), 0 otherwise.
fn frame_op(frame: &[u8]) -> u64 {
    u64_at(frame, PRIVATE_HEADER_LEN).unwrap_or(0)
}

/// State a [`SpanPt`] shares with the sink closure it hands out.
#[derive(Clone)]
struct Lens {
    node: u8,
    probe: Probe,
    tap: Tap,
    stats: Arc<PtStats>,
}

impl Lens {
    fn outgoing(&self, frame: &[u8]) {
        let Tap::Evm(clock) = &self.tap else { return };
        if let Some((p, payload)) = private_view(frame) {
            if p.org_id == ORG_DAQ && p.x_function == evb_xfn::TRIGGER {
                if let Some(event) = u64_at(payload, 0) {
                    clock.triggered(event, self.probe.log.now_ns());
                }
            }
        }
    }

    fn incoming(&self, frame: &[u8]) {
        match &self.tap {
            Tap::None => {}
            Tap::Evm(clock) => {
                let Some((p, payload)) = private_view(frame) else {
                    return;
                };
                if p.org_id != ORG_DAQ || p.x_function != evb_xfn::DONE {
                    return;
                }
                if let (Some(event), Some(&status)) = (u64_at(payload, 8), payload.get(16)) {
                    let now = self.probe.log.now_ns();
                    if let Some(latency) = clock.done(event, status == DONE_BUILT, now) {
                        self.probe.log.complete(latency);
                    }
                }
            }
            Tap::Builder(checker) => {
                let Some((p, payload)) = private_view(frame) else {
                    return;
                };
                if p.org_id != ORG_DAQ || p.x_function != evb_xfn::FRAGMENT {
                    return;
                }
                let Some(h) = FragmentHeader::decode(payload) else {
                    checker.fragment(0, u16::MAX, false);
                    return;
                };
                // The product's pattern check costs ~2 us per 2 KiB
                // fragment; run on every fragment it would be a sixth of
                // the event's cost. Every event gets the header and
                // length check, every `DEEP_CHECK_EVERY`-th the bytes.
                let shallow = payload.len() == FRAGMENT_HEADER_LEN + h.len as usize
                    && h.len as usize == EVB_FRAGMENT
                    && h.total_sources as usize == EVB_SOURCES;
                let intact =
                    shallow && (h.event_id % DEEP_CHECK_EVERY != 0 || h.verify_payload(payload));
                checker.fragment(h.event_id, h.source_id, intact);
            }
        }
    }

    /// The frame reached this node's transport at `arrived` and was
    /// handed to the executive at `handed` (recorder clock).
    fn surfaced(&self, tr: &Recorder, frame: &[u8], arrived: u64, handed: u64) {
        let op = frame_op(frame);
        tr.wire_received(frame_key(frame), self.node, op, arrived);
        tr.frame_surfaced(self.node, op, handed);
    }
}

/// Span-recording, frame-reading wrapper around a node's transport.
pub struct SpanPt {
    inner: Arc<dyn PeerTransport>,
    lens: Lens,
}

impl SpanPt {
    pub fn wrap(inner: Arc<dyn PeerTransport>, node: u8, probe: Probe, tap: Tap) -> Arc<SpanPt> {
        Arc::new(SpanPt {
            inner,
            lens: Lens {
                node,
                probe,
                tap,
                stats: Arc::new(PtStats::default()),
            },
        })
    }

    pub fn stats(&self) -> &PtStats {
        &self.lens.stats
    }
}

impl PeerTransport for SpanPt {
    fn scheme(&self) -> &'static str {
        self.inner.scheme()
    }

    fn mode(&self) -> PtMode {
        self.inner.mode()
    }

    fn send(&self, dest: &PeerAddr, frame: FrameBuf) -> Result<(), SendFailure> {
        let lens = &self.lens;
        lens.outgoing(&frame);
        let result = match lens.probe.tracing() {
            None => self.inner.send(dest, frame),
            Some(tr) => {
                let key = frame_key(&frame);
                let open = tr.enter(Name::PtSend, lens.node, frame_op(&frame));
                let result = self.inner.send(dest, frame);
                let returned = tr.exit(open);
                if result.is_ok() {
                    tr.wire_sent(key, returned);
                }
                result
            }
        };
        bump(&lens.stats.sends);
        if result.is_err() {
            bump(&lens.stats.send_failures);
        }
        result
    }

    fn poll(&self) -> Option<(FrameBuf, PeerAddr)> {
        let lens = &self.lens;
        let tr = lens.probe.tracing();
        let started = tr.map(Recorder::now_ns);
        let got = self.inner.poll();
        bump(&lens.stats.polls);
        if let Some((frame, _)) = &got {
            if let (Some(tr), Some(started)) = (tr, started) {
                // wire | poll_hit | ingest-to-upcall are contiguous:
                // the frame "arrives" when the successful poll starts
                // looking and is "handed over" when it returns.
                let returned = tr.now_ns();
                tr.closed(Name::PtPoll, lens.node, frame_op(frame), started, returned);
                lens.surfaced(tr, frame, started, returned);
            }
            bump(&lens.stats.poll_hits);
            lens.incoming(frame);
        }
        got
    }

    fn start(&self, sink: IngestSink) -> Result<(), PtError> {
        let lens = self.lens.clone();
        self.inner.start(Arc::new(move |frame, src| {
            bump(&lens.stats.sink_frames);
            lens.incoming(&frame);
            match lens.probe.tracing() {
                None => sink(frame, src),
                Some(tr) => {
                    let now = tr.now_ns();
                    lens.surfaced(tr, &frame, now, now);
                    let open = tr.enter(Name::PtSink, lens.node, frame_op(&frame));
                    sink(frame, src);
                    tr.exit(open);
                }
            }
        }))
    }

    fn stop(&self) {
        self.inner.stop();
    }

    fn configure(&self, key: &str, value: &str) -> Result<(), PtError> {
        self.inner.configure(key, value)
    }

    fn take_panics(&self) -> u64 {
        self.inner.take_panics()
    }

    fn counters(&self) -> Option<&xdaq_mon::PtCounters> {
        self.inner.counters()
    }

    fn take_down_peers(&self) -> Vec<PeerAddr> {
        self.inner.take_down_peers()
    }
}

// ---------------------------------------------------------------------
// The benchmark's own listeners
// ---------------------------------------------------------------------

/// How often a traced upcall also times a `Message::decode` of the
/// frame it was handed (the listener itself never needs one: the
/// executive delivers decoded headers).
const DECODE_PROBE_EVERY: u64 = 16;

/// What every benchmark listener carries.
struct DeviceCx {
    probe: Probe,
    node: u8,
    /// Payload every data frame must carry after its stamp.
    pattern: Arc<Vec<u8>>,
    /// `X_DATA` frame with `pattern` as payload; target set per send.
    data: Message,
    /// `X_ACK` frame with a bare stamp as payload.
    ack: Message,
    /// Set by the driver to stop new operations being started.
    halt: Arc<AtomicBool>,
}

impl DeviceCx {
    fn new(probe: &Probe, node: u8, pattern: &Arc<Vec<u8>>, halt: &Arc<AtomicBool>) -> DeviceCx {
        let frame = |x: u16, payload: Vec<u8>| {
            Message::build_private(Tid::HOST, Tid::HOST, ORG_BENCH, x)
                .payload(payload)
                .finish()
        };
        DeviceCx {
            probe: probe.clone(),
            node,
            pattern: pattern.clone(),
            data: frame(X_DATA, pattern.to_vec()),
            ack: frame(X_ACK, vec![0u8; STAMP_LEN]),
            halt: halt.clone(),
        }
    }

    fn halted(&self) -> bool {
        self.halt.load(Ordering::Relaxed)
    }

    /// alloc → encode → stamp → frameSend of one frame, each step its
    /// own span. `false` when the product refused any step.
    fn emit(&self, ctx: &mut Dispatcher<'_>, template: &Message, target: Tid, seq: u64) -> bool {
        let tr = self.probe.tracing();
        let mut msg = template.clone();
        msg.header.target = target;
        msg.header.initiator = ctx.own_tid();
        let len = msg.wire_len();
        let Ok(mut buf) = timed(tr, Name::MempoolAlloc, self.node, seq, || ctx.alloc(len)) else {
            return false;
        };
        if timed(tr, Name::I2oEncode, self.node, seq, || msg.encode(&mut buf)).is_err() {
            return false;
        }
        stamp(&mut buf[PRIVATE_HEADER_LEN..], seq, self.probe.log.now_ns());
        let Ok(delivery) = Delivery::from_buf(buf) else {
            return false;
        };
        timed(tr, Name::CoreSend, self.node, seq, || {
            ctx.send_delivery(delivery)
        })
        .is_ok()
    }

    /// Opens the `app.upcall` span of operation `op`, closing the
    /// ingest-to-upcall interval first.
    fn enter_upcall(&self, op: u64, msg: &Delivery) -> Option<crate::trace::Open> {
        let tr = self.probe.tracing()?;
        // The span opens first so that the interval bookkeeping is
        // charged to `app.upcall` (the benchmark's own cost), not left
        // between two rungs of the ladder.
        let open = tr.enter(Name::AppUpcall, self.node, op);
        tr.upcall_entered(self.node, op, open.start());
        if op.is_multiple_of(DECODE_PROBE_EVERY) {
            timed(Some(tr), Name::I2oDecode, self.node, op, || {
                black_box(Message::decode(black_box(msg.frame_bytes())).is_ok())
            });
        }
        Some(open)
    }

    /// Drops the delivered frame (timed: its block returns to the pool)
    /// and closes the upcall span.
    fn leave_upcall(&self, open: Option<crate::trace::Open>, op: u64, msg: Delivery) {
        match (self.probe.rec.as_deref(), open) {
            (Some(tr), Some(open)) => {
                timed(Some(tr), Name::MempoolRecycle, self.node, op, || drop(msg));
                tr.exit(open);
            }
            _ => drop(msg),
        }
    }
}

fn is_bench(msg: &Delivery, x: u16) -> bool {
    msg.private
        .is_some_and(|p| p.org_id == ORG_BENCH && p.x_function == x)
}

/// Both ends of the ping-pong: the origin starts round trips and times
/// them, the echo answers each frame with the same content. Both verify
/// every byte they receive.
struct PingDevice {
    cx: DeviceCx,
    /// `Some(peer)` on the origin, `None` on the echo.
    peer: Option<Tid>,
    seq: u64,
    sent_at: u64,
    /// Round trips started and not yet completed (0 or 1).
    in_flight: Arc<AtomicU64>,
}

impl PingDevice {
    fn ping(&mut self, ctx: &mut Dispatcher<'_>, peer: Tid) {
        if self.cx.halted() {
            return;
        }
        self.seq += 1;
        self.sent_at = self.cx.probe.log.now_ns();
        if self.cx.emit(ctx, &self.cx.data, peer, self.seq) {
            self.in_flight.store(1, Ordering::Relaxed);
        } else {
            self.cx.probe.log.fail(1);
        }
    }
}

impl I2oListener for PingDevice {
    fn class(&self) -> DeviceClass {
        DeviceClass::Application(ORG_BENCH)
    }

    fn on_private(&mut self, ctx: &mut Dispatcher<'_>, msg: Delivery) {
        if is_bench(&msg, X_START) {
            if let Some(peer) = self.peer {
                self.ping(ctx, peer);
            }
            return;
        }
        if !is_bench(&msg, X_DATA) {
            return;
        }
        let (seq, _) = read_stamp(msg.payload()).unwrap_or((0, 0));
        let open = self.cx.enter_upcall(seq, &msg);
        let intact = pattern_intact(msg.payload(), &self.cx.pattern);
        match self.peer {
            Some(peer) => {
                self.in_flight.store(0, Ordering::Relaxed);
                let log = &self.cx.probe.log;
                if intact && seq == self.seq {
                    log.complete((log.now_ns() - self.sent_at) / 2);
                } else {
                    log.fail(1);
                }
                self.ping(ctx, peer);
            }
            None => {
                // Verified equal to the pattern, so the reply built from
                // the pattern carries "exactly the same content".
                let echoed = self.cx.emit(ctx, &self.cx.data, msg.header.initiator, seq);
                if !(intact && echoed) {
                    self.cx.probe.log.fail(1);
                }
            }
        }
        self.cx.leave_upcall(open, seq, msg);
    }
}

/// Stream source: keeps `window` frames in flight towards the sink,
/// refilling as cumulative acknowledgements come back.
struct StreamSource {
    cx: DeviceCx,
    sink: Tid,
    window: u64,
    acked: u64,
    /// Frames sent so far, shared with the driver.
    sent: Arc<AtomicU64>,
}

impl StreamSource {
    fn fill(&mut self, ctx: &mut Dispatcher<'_>) {
        let mut next = self.sent.load(Ordering::Relaxed);
        while !self.cx.halted() && next - self.acked < self.window {
            next += 1;
            if !self.cx.emit(ctx, &self.cx.data, self.sink, next) {
                self.cx.probe.log.fail(1);
            }
        }
        self.sent.store(next, Ordering::Relaxed);
    }
}

impl I2oListener for StreamSource {
    fn class(&self) -> DeviceClass {
        DeviceClass::Application(ORG_BENCH)
    }

    fn on_private(&mut self, ctx: &mut Dispatcher<'_>, msg: Delivery) {
        if is_bench(&msg, X_START) {
            self.fill(ctx);
        } else if is_bench(&msg, X_ACK) {
            if let Some((upto, _)) = read_stamp(msg.payload()) {
                self.acked = self.acked.max(upto);
            }
            self.fill(ctx);
        }
    }
}

/// Stream sink: verifies order and content of every frame, takes the
/// latency from the stamp, acknowledges every `ack_every` frames.
struct StreamSink {
    cx: DeviceCx,
    ack_every: u64,
    order: SeqChecker,
    /// Frames accepted so far, shared with the driver.
    delivered: Arc<AtomicU64>,
}

impl I2oListener for StreamSink {
    fn class(&self) -> DeviceClass {
        DeviceClass::Application(ORG_BENCH)
    }

    fn on_private(&mut self, ctx: &mut Dispatcher<'_>, msg: Delivery) {
        if !is_bench(&msg, X_DATA) {
            return;
        }
        let log = &self.cx.probe.log;
        let now = log.now_ns();
        let (seq, sent_ns) = read_stamp(msg.payload()).unwrap_or((0, 0));
        let open = self.cx.enter_upcall(seq, &msg);
        let intact = pattern_intact(msg.payload(), &self.cx.pattern);
        match self.order.observe(seq) {
            SeqVerdict::InOrder if intact => log.complete(now.saturating_sub(sent_ns)),
            SeqVerdict::InOrder | SeqVerdict::Stale => log.fail(1),
            SeqVerdict::Gap { missing } => log.fail(missing + u64::from(!intact)),
        }
        let upto = self.order.delivered();
        self.delivered.store(upto, Ordering::Relaxed);
        if upto.is_multiple_of(self.ack_every)
            && !self.cx.emit(ctx, &self.cx.ack, msg.header.initiator, upto)
        {
            // The source stalls without it; count the window as refused.
            log.fail(self.ack_every);
        }
        self.cx.leave_upcall(open, seq, msg);
    }
}

/// Event collector on the manager's node: checks every built-event
/// summary against the fragments seen on the way to the builders.
struct Collector {
    cx: DeviceCx,
    checker: Arc<EventChecker>,
}

impl I2oListener for Collector {
    fn class(&self) -> DeviceClass {
        DeviceClass::Application(ORG_DAQ)
    }

    fn on_private(&mut self, ctx: &mut Dispatcher<'_>, msg: Delivery) {
        if !msg
            .private
            .is_some_and(|p| p.org_id == ORG_DAQ && p.x_function == evb_xfn::EVENT)
        {
            return;
        }
        let event = u64_at(msg.payload(), 0).unwrap_or(0);
        let bytes = u64_at(msg.payload(), 8).unwrap_or(0);
        let open = self.cx.enter_upcall(event, &msg);
        if !self.checker.built(event, bytes) {
            self.cx.probe.log.fail(1);
        }
        if let Some(tr) = self.cx.probe.tracing() {
            // The mesh's allocations happen inside product listeners;
            // this pair on the same pool, at fragment-frame size, is the
            // outside view of what each of them costs.
            let len = PRIVATE_HEADER_LEN + FRAGMENT_HEADER_LEN + EVB_FRAGMENT;
            let block = timed(Some(tr), Name::MempoolAlloc, self.cx.node, event, || {
                ctx.alloc(len)
            });
            timed(Some(tr), Name::MempoolRecycle, self.cx.node, event, || {
                drop(block)
            });
        }
        self.cx.leave_upcall(open, event, msg);
    }
}

// ---------------------------------------------------------------------
// Rigs: the executives of one workload, wired and pumped
// ---------------------------------------------------------------------

/// What a node is in its workload.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Role {
    /// Ping origin or stream source.
    Origin,
    /// Ping echo or stream sink.
    Target,
    /// Event manager plus collector.
    Evm,
    Readout,
    Builder,
}

/// One executive with its wrapped transport.
pub struct Node {
    pub role: Role,
    exec: Executive,
    span: Arc<SpanPt>,
    calls: Cell<u64>,
    idle: Cell<u64>,
}

/// Counts read from one node, product types already flattened.
pub struct NodeCounts {
    /// `Executive::mon_snapshot()`: registry metrics, pool accounting,
    /// per-scheme transport counters.
    pub mon: serde_json::Value,
    pub run_once_calls: u64,
    pub run_once_idle: u64,
    pub sends: u64,
    pub send_failures: u64,
    pub polls: u64,
    pub poll_hits: u64,
    pub sink_frames: u64,
}

/// How the driver learns whether a workload's loop has drained.
enum Drain {
    Ping {
        in_flight: Arc<AtomicU64>,
    },
    Stream {
        sent: Arc<AtomicU64>,
        delivered: Arc<AtomicU64>,
    },
    Evb {
        evm: Tid,
        stats: Arc<EvmStats>,
        clock: Arc<EventClock>,
        checker: Arc<EventChecker>,
    },
}

/// The shape of a workload, as `main` asks for it.
#[derive(Clone, Copy, Debug)]
pub enum Shape {
    /// 64 B echo over `gm://` (zero-latency fabric), polling mode.
    PingGm { payload: usize },
    /// Echo over a socket transport named in a topology declaration.
    PingSocket {
        transport: &'static str,
        payload: usize,
    },
    /// One-way stream with cumulative acks over a socket transport.
    Stream {
        transport: &'static str,
        payload: usize,
        window: u64,
        ack_every: u64,
    },
    /// 4×2 event builder over `loop://`.
    EvbLoop,
    /// Same mesh over in-process `shm://` links, readouts dropping
    /// `drop_per_mille` of their outgoing frames.
    EvbShm { drop_per_mille: u16 },
}

impl Shape {
    /// The socket transport the workload declares, if any.
    pub fn socket_transport(&self) -> Option<&'static str> {
        match *self {
            Shape::PingSocket { transport, .. } | Shape::Stream { transport, .. } => {
                Some(transport)
            }
            Shape::PingGm { .. } | Shape::EvbLoop | Shape::EvbShm { .. } => None,
        }
    }
}

/// All executives of one workload.
pub struct Rig {
    pub nodes: Vec<Node>,
    probe: Probe,
    halt: Arc<AtomicBool>,
    /// Posted to `nodes[0]` to start the loop.
    kick: Message,
    drain: Drain,
    chaos: Vec<Arc<ChaosPt>>,
    scratch: Option<PathBuf>,
}

/// Outcome of stopping a workload's loop.
pub struct Quiesced {
    /// Operations started and never finished: failed.
    pub stuck: u64,
    /// Violated end-of-run invariants, in words.
    pub violations: Vec<String>,
}

type Built<T> = Result<T, String>;

fn executive(name: &str) -> Executive {
    Executive::new(ExecutiveConfig::named(name))
}

fn text<E: std::fmt::Debug>(what: &str) -> impl Fn(E) -> String + '_ {
    move |e| format!("{what}: {e:?}")
}

impl Rig {
    /// Constructs the workload: executives, transports, listeners,
    /// routes. Nothing has been sent yet.
    pub fn build(shape: Shape, seed: u64, probe: &Probe, scratch: &Path) -> Built<Rig> {
        match shape {
            Shape::PingGm { payload } => Rig::ping(gm_pair(probe)?, payload, seed, probe),
            Shape::PingSocket { transport, payload } => {
                Rig::ping(socket_pair(transport, probe)?, payload, seed, probe)
            }
            Shape::Stream {
                transport,
                payload,
                window,
                ack_every,
            } => Rig::stream(
                socket_pair(transport, probe)?,
                payload,
                window,
                ack_every,
                seed,
                probe,
            ),
            Shape::EvbLoop => Rig::evb(Mesh::Loop(LoopbackHub::new()), seed, probe),
            Shape::EvbShm { drop_per_mille } => {
                std::fs::create_dir_all(scratch).map_err(text("create scratch dir"))?;
                let mesh = Mesh::Shm {
                    dir: scratch.to_path_buf(),
                    drop_per_mille,
                };
                let mut rig = Rig::evb(mesh, seed, probe)?;
                rig.scratch = Some(scratch.to_path_buf());
                Ok(rig)
            }
        }
    }

    fn ping(pair: Pair, payload: usize, seed: u64, probe: &Probe) -> Built<Rig> {
        let Pair { a, b, url_b } = pair;
        let pattern = Arc::new(payload_pattern(seed, payload));
        let halt = Arc::new(AtomicBool::new(false));
        let in_flight = Arc::new(AtomicU64::new(0));
        let device = |node: u8, peer: Option<Tid>| {
            Box::new(PingDevice {
                cx: DeviceCx::new(probe, node, &pattern, &halt),
                peer,
                seq: 0,
                sent_at: 0,
                in_flight: in_flight.clone(),
            })
        };
        let echo = b
            .exec
            .register("echo", device(1, None), &[])
            .map_err(text("register echo"))?;
        let proxy = a
            .exec
            .proxy(&url_b, echo, None)
            .map_err(text("proxy echo"))?;
        let origin = a
            .exec
            .register("origin", device(0, Some(proxy)), &[])
            .map_err(text("register origin"))?;
        Rig::pair(a, b, probe, halt, origin, Drain::Ping { in_flight })
    }

    /// Two nodes whose loop a `X_START` frame to `starter` sets off.
    fn pair(
        a: Node,
        b: Node,
        probe: &Probe,
        halt: Arc<AtomicBool>,
        starter: Tid,
        drain: Drain,
    ) -> Built<Rig> {
        let rig = Rig {
            nodes: vec![a, b],
            probe: probe.clone(),
            halt,
            kick: Message::build_private(starter, Tid::HOST, ORG_BENCH, X_START).finish(),
            drain,
            chaos: Vec::new(),
            scratch: None,
        };
        rig.enable()?;
        Ok(rig)
    }

    fn stream(
        pair: Pair,
        payload: usize,
        window: u64,
        ack_every: u64,
        seed: u64,
        probe: &Probe,
    ) -> Built<Rig> {
        let Pair { a, b, url_b } = pair;
        let pattern = Arc::new(payload_pattern(seed, payload));
        let halt = Arc::new(AtomicBool::new(false));
        let (sent, delivered) = (Arc::new(AtomicU64::new(0)), Arc::new(AtomicU64::new(0)));
        let sink = b
            .exec
            .register(
                "sink",
                Box::new(StreamSink {
                    cx: DeviceCx::new(probe, 1, &pattern, &halt),
                    ack_every,
                    order: SeqChecker::new(),
                    delivered: delivered.clone(),
                }),
                &[],
            )
            .map_err(text("register sink"))?;
        let proxy = a
            .exec
            .proxy(&url_b, sink, None)
            .map_err(text("proxy sink"))?;
        let source = a
            .exec
            .register(
                "source",
                Box::new(StreamSource {
                    cx: DeviceCx::new(probe, 0, &pattern, &halt),
                    sink: proxy,
                    window,
                    acked: 0,
                    sent: sent.clone(),
                }),
                &[],
            )
            .map_err(text("register source"))?;
        Rig::pair(a, b, probe, halt, source, Drain::Stream { sent, delivered })
    }

    /// Enables every device and starts task-mode transports.
    fn enable(&self) -> Built<()> {
        for n in &self.nodes {
            n.exec.enable_all();
            n.exec
                .start_transports()
                .map_err(text("start transports"))?;
        }
        Ok(())
    }

    /// Starts the workload's closed loop.
    pub fn kick(&self) -> Built<()> {
        self.nodes[0]
            .exec
            .post(self.kick.clone())
            .map_err(text("post kick"))
    }

    /// One cooperative pass: `run_once` on every node in fixed order.
    /// Returns the work items performed.
    pub fn pump(&self) -> usize {
        let tr = self.probe.tracing();
        let mut work = 0;
        for (i, n) in self.nodes.iter().enumerate() {
            let did = match tr {
                None => n.exec.run_once(),
                Some(tr) => {
                    let open = tr.enter(Name::RunOnce, i as u8, 0);
                    let did = n.exec.run_once();
                    if did > 0 {
                        tr.exit(open);
                    } else {
                        tr.cancel(open);
                    }
                    did
                }
            };
            n.calls.set(n.calls.get() + 1);
            if did == 0 {
                n.idle.set(n.idle.get() + 1);
            }
            work += did;
        }
        work
    }

    /// Indices of the nodes with `role`, as span node ids.
    pub fn nodes_with(&self, role: Role) -> Vec<u8> {
        (0..self.nodes.len())
            .filter(|&i| self.nodes[i].role == role)
            .map(|i| i as u8)
            .collect()
    }

    /// Counts of every node, for differencing around a window.
    pub fn counts(&self) -> Vec<NodeCounts> {
        let get = |c: &AtomicU64| c.load(Ordering::Relaxed);
        self.nodes
            .iter()
            .map(|n| {
                let s = n.span.stats();
                NodeCounts {
                    mon: n.exec.core().mon_snapshot(),
                    run_once_calls: n.calls.get(),
                    run_once_idle: n.idle.get(),
                    sends: get(&s.sends),
                    send_failures: get(&s.send_failures),
                    polls: get(&s.polls),
                    poll_hits: get(&s.poll_hits),
                    sink_frames: get(&s.sink_frames),
                }
            })
            .collect()
    }

    /// Frames the fault injectors have eaten so far.
    pub fn chaos_dropped(&self) -> u64 {
        self.chaos.iter().map(|c| c.stats().dropped).sum()
    }

    /// Stops new operations, lets the ones in flight finish (pumping
    /// for at most `patience`), and checks the end-of-run invariants.
    pub fn quiesce(&self, patience: Duration) -> Quiesced {
        self.halt.store(true, Ordering::Relaxed);
        if let Drain::Evb { evm, .. } = &self.drain {
            // The product's own drain verb: the manager stops assigning
            // to a drained builder; in-flight events still complete.
            for j in 0..EVB_BUILDERS {
                let verb = Message::util(*evm, Tid::HOST, UtilFn::ParamsSet)
                    .payload(kv(&[("evb.drain", &format!("bu{j}"))]))
                    .finish();
                let _ = self.nodes[0].exec.post(verb);
            }
        }
        let outstanding = || match &self.drain {
            Drain::Ping { in_flight } => in_flight.load(Ordering::Relaxed),
            Drain::Stream { sent, delivered } => sent
                .load(Ordering::Relaxed)
                .saturating_sub(delivered.load(Ordering::Relaxed)),
            Drain::Evb { clock, .. } => clock.outstanding(),
        };
        let deadline = Instant::now() + patience;
        while outstanding() > 0 && Instant::now() < deadline {
            if self.pump() == 0 {
                std::thread::yield_now();
            }
        }
        // Acks and summaries trailing the last operation.
        for _ in 0..64 {
            self.pump();
        }
        let mut violations = Vec::new();
        if let Drain::Evb { stats, checker, .. } = &self.drain {
            let lost = stats.lost.load(Ordering::SeqCst);
            let completed = stats.completed.load(Ordering::SeqCst);
            let timed = self.probe.log.completed();
            if lost > 0 {
                violations.push(format!("event manager lost {lost} events"));
            }
            if completed != timed {
                violations.push(format!(
                    "event manager completed {completed} events, {timed} DONE(built) seen"
                ));
            }
            if checker.built_count() != completed {
                violations.push(format!(
                    "collector saw {} distinct events, event manager completed {completed}",
                    checker.built_count()
                ));
            }
        }
        Quiesced {
            stuck: outstanding(),
            violations,
        }
    }

    /// Event-builder side counts the product does not export as
    /// metrics: `(reassigned, discards seen, corrupt fragments seen)`.
    pub fn evb_extras(&self) -> Option<(u64, u64, u64)> {
        match &self.drain {
            Drain::Evb {
                stats,
                clock,
                checker,
                ..
            } => Some((
                stats.reassigned.load(Ordering::SeqCst),
                clock.discards(),
                checker.corrupt_fragments(),
            )),
            _ => None,
        }
    }

    /// Stops every transport (joining its threads) and removes the
    /// scratch files.
    pub fn teardown(self) {
        for n in &self.nodes {
            n.exec.core().pta().stop_all();
        }
        if let Some(dir) = &self.scratch {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// Two executives joined by one transport each way.
struct Pair {
    a: Node,
    b: Node,
    /// Address `a` reaches `b` at.
    url_b: String,
}

fn node(
    name: &str,
    role: Role,
    index: usize,
    key: &str,
    pt: Arc<dyn PeerTransport>,
    probe: &Probe,
    tap: Tap,
) -> Built<Node> {
    let exec = executive(name);
    let span = SpanPt::wrap(pt, index as u8, probe.clone(), tap);
    exec.register_pt(key, span.clone())
        .map_err(text("register transport"))?;
    Ok(Node {
        role,
        exec,
        span,
        calls: Cell::new(0),
        idle: Cell::new(0),
    })
}

/// The paper's blackbox fabric: two polling-mode GM ports on a
/// zero-latency simulated Myrinet.
fn gm_pair(probe: &Probe) -> Built<Pair> {
    let fabric = Fabric::with_latency(LatencyModel::ZERO);
    let port = |id: u16| {
        GmPt::open(
            &fabric,
            id,
            0,
            PtMode::Polling,
            TablePool::with_defaults(),
            None,
        )
        .map_err(text("open gm port"))
    };
    Ok(Pair {
        a: node("a", Role::Origin, 0, "gm", port(1)?, probe, Tap::None)?,
        b: node("b", Role::Target, 1, "gm", port(2)?, probe, Tap::None)?,
        url_b: "gm://2:0".to_string(),
    })
}

/// Binds the socket transport the product's configuration surface
/// yields for `transport = "<name>"`; the benchmark never names the
/// transport's type, so retiring one does not break it.
fn bind_declared(
    transport: &str,
    extra: &str,
) -> Built<(&'static str, Arc<dyn PeerTransport>, String)> {
    let decl = format!(
        "[cluster]\nname = \"benchmark\"\nrundir = \"benchmark/out\"\n\
         [node.n]\ntransport = \"{transport}\"\n{extra}"
    );
    let topo = Topology::parse(&decl).map_err(text("parse topology"))?;
    let node = topo.node("n").ok_or("declared node missing")?;
    bind_transport(node)
}

fn socket_pair(transport: &'static str, probe: &Probe) -> Built<Pair> {
    let (key_a, pt_a, _) = bind_declared(transport, "")?;
    let (key_b, pt_b, url_b) = bind_declared(transport, "")?;
    Ok(Pair {
        a: node("a", Role::Origin, 0, key_a, pt_a, probe, Tap::None)?,
        b: node("b", Role::Target, 1, key_b, pt_b, probe, Tap::None)?,
        url_b,
    })
}

/// Whether this kernel grants `io_uring` rings to the product: asks the
/// configuration surface for an `xpt` transport that insists on them.
pub fn uring_granted() -> bool {
    match bind_declared("xpt", "xpt.backend = \"uring\"\n") {
        Ok((_, pt, _)) => {
            pt.stop();
            true
        }
        Err(_) => false,
    }
}

/// Fabric of the event-builder mesh.
enum Mesh {
    Loop(Arc<LoopbackHub>),
    Shm { dir: PathBuf, drop_per_mille: u16 },
}

/// Region geometry of the in-process `shm://` links: 4 KiB blocks hold
/// one 2 KiB fragment frame each.
fn shm_config() -> ShmConfig {
    ShmConfig {
        block_size: 4096,
        nblocks: 128,
        ring_capacity: 256,
    }
}

impl Rig {
    /// EVM + collector, 4 readouts, 2 builders: seven executives, the
    /// `evb_scaling` wiring, pumped in the order built.
    fn evb(mesh: Mesh, seed: u64, probe: &Probe) -> Built<Rig> {
        let clock = Arc::new(EventClock::new());
        let event_bytes = (EVB_SOURCES * (FRAGMENT_HEADER_LEN + EVB_FRAGMENT)) as u64;
        let checker = Arc::new(EventChecker::new(EVB_SOURCES as u16, event_bytes));
        let halt = Arc::new(AtomicBool::new(false));
        let mut chaos = Vec::new();

        // Transports first: `reach[(from, to)]` is the address `from`
        // dials to reach `to`. Node 0 is the manager, then readouts,
        // then builders.
        let ru = |i: usize| 1 + i;
        let bu = |j: usize| 1 + EVB_SOURCES + j;
        let total = 1 + EVB_SOURCES + EVB_BUILDERS;
        let name = |n: usize| match n {
            0 => "mgr".to_string(),
            n if n <= EVB_SOURCES => format!("ru{}", n - 1),
            n => format!("bu{}", n - 1 - EVB_SOURCES),
        };
        let mut reach = std::collections::HashMap::new();
        let mut transports: Vec<Arc<dyn PeerTransport>> = Vec::new();
        let mut shm_pts: Vec<Arc<ShmPt>> = Vec::new();
        match &mesh {
            Mesh::Loop(hub) => {
                for n in 0..total {
                    transports.push(LoopbackPt::new(hub, &name(n)));
                    for from in 0..total {
                        reach.insert((from, n), format!("loop://{}", name(n)));
                    }
                }
            }
            Mesh::Shm {
                dir,
                drop_per_mille,
            } => {
                for _ in 0..total {
                    shm_pts.push(ShmPt::new(PtMode::Polling));
                }
                let mut link = |from: usize, to: usize| -> Built<()> {
                    let path = dir.join(format!("{}-{}", name(from), name(to)));
                    let near = shm_pts[from]
                        .create_link(&path, shm_config())
                        .map_err(text("create shm link"))?;
                    let far = shm_pts[to]
                        .attach_link(&path)
                        .map_err(text("attach shm link"))?;
                    reach.insert((from, to), near.peer_addr().to_string());
                    reach.insert((to, from), far.peer_addr().to_string());
                    Ok(())
                };
                for i in 0..EVB_SOURCES {
                    link(0, ru(i))?;
                    for j in 0..EVB_BUILDERS {
                        link(ru(i), bu(j))?;
                    }
                }
                for j in 0..EVB_BUILDERS {
                    link(0, bu(j))?;
                }
                for (n, shm) in shm_pts.iter().enumerate() {
                    let is_readout = (1..=EVB_SOURCES).contains(&n);
                    if is_readout && *drop_per_mille > 0 {
                        let plan = FaultPlan {
                            drop_per_mille: *drop_per_mille,
                            ..FaultPlan::default()
                        };
                        // Distinct stream per readout, all from --seed.
                        let faulty = ChaosPt::wrap(shm.clone(), seed ^ (0xDA0 + n as u64), plan);
                        chaos.push(faulty.clone());
                        transports.push(faulty);
                    } else {
                        transports.push(shm.clone());
                    }
                }
            }
        }

        let mut nodes = Vec::new();
        for (n, pt) in transports.into_iter().enumerate() {
            let (role, tap) = match n {
                0 => (Role::Evm, Tap::Evm(clock.clone())),
                n if n <= EVB_SOURCES => (Role::Readout, Tap::None),
                _ => (Role::Builder, Tap::Builder(checker.clone())),
            };
            let built = node(&name(n), role, n, "pt", pt, probe, tap)?;
            if let Some(shm) = shm_pts.get(n) {
                shm.bind_registry(built.exec.core().monitors().registry());
            }
            nodes.push(built);
        }

        // Listeners and routes, readouts → builders → manager.
        let sources = EVB_SOURCES.to_string();
        let mut ru_tids = Vec::new();
        for i in 0..EVB_SOURCES {
            let tid = nodes[ru(i)]
                .exec
                .register(
                    "readout",
                    Box::new(ReadoutUnit::new()),
                    &[
                        ("source_id", &i.to_string()),
                        ("sources", &sources),
                        ("size", &EVB_FRAGMENT.to_string()),
                    ],
                )
                .map_err(text("register readout"))?;
            ru_tids.push(tid);
        }
        let ru_names: Vec<String> = (0..EVB_SOURCES).map(|i| format!("ru{i}")).collect();
        let bu_names: Vec<String> = (0..EVB_BUILDERS).map(|j| format!("bu{j}")).collect();
        let collector = nodes[0]
            .exec
            .register(
                "collector",
                Box::new(Collector {
                    cx: DeviceCx::new(probe, 0, &Arc::new(Vec::new()), &halt),
                    checker: checker.clone(),
                }),
                &[],
            )
            .map_err(text("register collector"))?;
        let mut bu_tids = Vec::new();
        for j in 0..EVB_BUILDERS {
            let exec = &nodes[bu(j)].exec;
            for i in 0..EVB_SOURCES {
                exec.proxy(&reach[&(bu(j), ru(i))], ru_tids[i], Some(&ru_names[i]))
                    .map_err(text("proxy readout on builder"))?;
            }
            exec.proxy(&reach[&(bu(j), 0)], collector, Some("collector"))
                .map_err(text("proxy collector on builder"))?;
            // Timeouts and retry budget stay at the product defaults.
            let tid = exec
                .register(
                    &format!("builder{j}"),
                    Box::new(BuilderUnit::new()),
                    &[
                        ("rus", &ru_names.join(",")),
                        ("filter", "collector"),
                        ("credits", &EVB_CREDITS.to_string()),
                    ],
                )
                .map_err(text("register builder"))?;
            bu_tids.push(tid);
        }
        let mgr = &nodes[0].exec;
        for i in 0..EVB_SOURCES {
            mgr.proxy(&reach[&(0, ru(i))], ru_tids[i], Some(&ru_names[i]))
                .map_err(text("proxy readout on manager"))?;
        }
        for j in 0..EVB_BUILDERS {
            mgr.proxy(&reach[&(0, bu(j))], bu_tids[j], Some(&bu_names[j]))
                .map_err(text("proxy builder on manager"))?;
        }
        let manager = EventManager::new();
        let stats = manager.stats();
        let evm = mgr
            .register(
                "evm",
                Box::new(manager),
                &[
                    ("readouts", &ru_names.join(",")),
                    ("bus", &bu_names.join(",")),
                ],
            )
            .map_err(text("register event manager"))?;

        // Free-running trigger: a run far longer than any measurement.
        let run = Message::build_private(evm, Tid::HOST, ORG_DAQ, evb_xfn::RUN)
            .payload((u64::MAX / 2).to_le_bytes().to_vec())
            .finish();
        let rig = Rig {
            nodes,
            probe: probe.clone(),
            halt,
            kick: run,
            drain: Drain::Evb {
                evm,
                stats,
                clock,
                checker,
            },
            chaos,
            scratch: None,
        };
        rig.enable()?;
        Ok(rig)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;
    use xdaq_mon::PtCounters;

    fn probe(traced: bool) -> Probe {
        let rec = traced.then(|| {
            let r = Arc::new(Recorder::new(1024));
            r.set_on(true);
            r
        });
        Probe {
            log: Arc::new(OpLog::new()),
            rec,
        }
    }

    fn data_frame(seq: u64) -> Vec<u8> {
        let mut payload = payload_pattern(7, 200);
        stamp(&mut payload, seq, 123);
        Message::build_private(Tid::HOST, Tid::HOST, ORG_BENCH, X_DATA)
            .payload(payload)
            .finish()
            .encode_vec()
    }

    #[test]
    fn wrapped_loopback_delivers_byte_identical_frames() {
        for traced in [false, true] {
            let probe = probe(traced);
            let hub = LoopbackHub::new();
            let a = SpanPt::wrap(LoopbackPt::new(&hub, "a"), 0, probe.clone(), Tap::None);
            let b = SpanPt::wrap(LoopbackPt::new(&hub, "b"), 1, probe.clone(), Tap::None);
            let to_b: PeerAddr = "loop://b".parse().unwrap();
            assert!(b.poll().is_none(), "nothing sent yet");
            for seq in 1..=3 {
                a.send(&to_b, FrameBuf::from_bytes(&data_frame(seq)))
                    .unwrap();
            }
            for seq in 1..=3 {
                let (frame, src) = b.poll().expect("frame delivered");
                assert_eq!(&frame[..], &data_frame(seq)[..], "bytes untouched");
                assert_eq!(src.to_string(), "loop://a");
            }
            assert!(b.poll().is_none());
            let get = |c: &AtomicU64| c.load(Ordering::Relaxed);
            assert_eq!(
                (get(&a.stats().sends), get(&a.stats().send_failures)),
                (3, 0)
            );
            assert_eq!((get(&b.stats().polls), get(&b.stats().poll_hits)), (5, 3));
            if let Some(rec) = &probe.rec {
                let spans = rec.spans();
                let count = |n: Name| spans.iter().filter(|s| s.name == n).count();
                assert_eq!(count(Name::PtSend), 3);
                assert_eq!(count(Name::PtPoll), 3, "empty polls leave no span");
                assert_eq!(count(Name::PtWire), 3, "every frame paired send→poll");
                assert!(spans.iter().all(|s| s.name != Name::PtWire || s.op > 0));
            }
        }
    }

    #[test]
    fn send_failure_still_hands_the_frame_back() {
        for traced in [false, true] {
            let hub = LoopbackHub::new();
            let a = SpanPt::wrap(LoopbackPt::new(&hub, "a"), 0, probe(traced), Tap::None);
            let nowhere: PeerAddr = "loop://nobody".parse().unwrap();
            let bytes = data_frame(9);
            let failure = a
                .send(&nowhere, FrameBuf::from_bytes(&bytes))
                .expect_err("unreachable peer");
            let frame = failure.frame.expect("frame handed back for retry");
            assert_eq!(&frame[..], &bytes[..]);
            assert_eq!(a.stats().send_failures.load(Ordering::Relaxed), 1);
        }
    }

    /// Records what reaches it through the wrapper.
    #[derive(Default)]
    struct FakePt {
        counters: PtCounters,
        calls: Mutex<Vec<String>>,
    }

    impl PeerTransport for FakePt {
        fn scheme(&self) -> &'static str {
            "fake"
        }
        fn mode(&self) -> PtMode {
            PtMode::Task
        }
        fn send(&self, _dest: &PeerAddr, _frame: FrameBuf) -> Result<(), SendFailure> {
            Ok(())
        }
        fn poll(&self) -> Option<(FrameBuf, PeerAddr)> {
            None
        }
        fn start(&self, sink: IngestSink) -> Result<(), PtError> {
            self.calls.lock().unwrap().push("start".into());
            sink(
                FrameBuf::from_bytes(&data_frame(4)),
                "fake://peer".parse().unwrap(),
            );
            Ok(())
        }
        fn stop(&self) {
            self.calls.lock().unwrap().push("stop".into());
        }
        fn configure(&self, key: &str, value: &str) -> Result<(), PtError> {
            self.calls.lock().unwrap().push(format!("{key}={value}"));
            Err(PtError::WouldBlock)
        }
        fn take_panics(&self) -> u64 {
            3
        }
        fn counters(&self) -> Option<&PtCounters> {
            Some(&self.counters)
        }
        fn take_down_peers(&self) -> Vec<PeerAddr> {
            vec!["fake://dead".parse().unwrap()]
        }
    }

    #[test]
    fn every_other_hook_is_forwarded() {
        let fake = Arc::new(FakePt::default());
        fake.counters.on_send(10);
        let pt = SpanPt::wrap(fake.clone(), 0, probe(true), Tap::None);
        assert_eq!((pt.scheme(), pt.mode()), ("fake", PtMode::Task));
        assert!(matches!(pt.configure("k", "v"), Err(PtError::WouldBlock)));
        assert_eq!(pt.take_panics(), 3);
        let sent = &pt.counters().expect("inner counters").sent_frames;
        assert_eq!(sent.load(Ordering::Relaxed), 1);
        assert_eq!(pt.take_down_peers()[0].to_string(), "fake://dead");

        let got = Arc::new(Mutex::new(Vec::new()));
        let seen = got.clone();
        pt.start(Arc::new(move |frame: FrameBuf, src: PeerAddr| {
            seen.lock()
                .unwrap()
                .push((frame[..].to_vec(), src.to_string()));
        }))
        .unwrap();
        assert_eq!(
            *got.lock().unwrap(),
            vec![(data_frame(4), "fake://peer".to_string())],
            "the sink handed out delivers into the executive's sink unchanged"
        );
        assert_eq!(pt.stats().sink_frames.load(Ordering::Relaxed), 1);
        pt.stop();
        assert_eq!(*fake.calls.lock().unwrap(), ["k=v", "start", "stop"]);
    }

    fn evb_frame(x: u16, payload: Vec<u8>) -> Vec<u8> {
        Message::build_private(Tid::HOST, Tid::HOST, ORG_DAQ, x)
            .payload(payload)
            .finish()
            .encode_vec()
    }

    #[test]
    fn manager_tap_times_trigger_to_built_done() {
        let clock = Arc::new(EventClock::new());
        let probe = probe(false);
        let hub = LoopbackHub::new();
        let pt = SpanPt::wrap(
            LoopbackPt::new(&hub, "mgr"),
            0,
            probe.clone(),
            Tap::Evm(clock.clone()),
        );
        let to_self: PeerAddr = "loop://mgr".parse().unwrap();
        let send = |bytes: Vec<u8>| pt.send(&to_self, FrameBuf::from_bytes(&bytes)).unwrap();
        send(evb_frame(evb_xfn::TRIGGER, 42u64.to_le_bytes().to_vec()));
        send(evb_frame(evb_xfn::CLEAR, 41u64.to_le_bytes().to_vec()));
        assert_eq!(clock.outstanding(), 1, "only TRIGGER opens an event");
        let done = |event: u64, status: u8| {
            let mut p = 1u64.to_le_bytes().to_vec();
            p.extend_from_slice(&event.to_le_bytes());
            p.push(status);
            evb_frame(evb_xfn::DONE, p)
        };
        send(done(42, DONE_BUILT + 1));
        send(done(42, DONE_BUILT));
        while pt.poll().is_some() {}
        assert_eq!((clock.outstanding(), clock.discards()), (0, 1));
        assert_eq!(probe.log.completed(), 1, "one built event, one operation");
    }

    #[test]
    fn builder_tap_checks_fragments_on_arrival() {
        let checker = Arc::new(EventChecker::new(
            EVB_SOURCES as u16,
            (EVB_SOURCES * (FRAGMENT_HEADER_LEN + EVB_FRAGMENT)) as u64,
        ));
        let hub = LoopbackHub::new();
        let pt = SpanPt::wrap(
            LoopbackPt::new(&hub, "bu"),
            0,
            probe(false),
            Tap::Builder(checker.clone()),
        );
        let to_self: PeerAddr = "loop://bu".parse().unwrap();
        let fragment = |event: u64, source: u16, flip: bool| {
            let h = FragmentHeader {
                event_id: event,
                source_id: source,
                total_sources: EVB_SOURCES as u16,
                len: EVB_FRAGMENT as u32,
            };
            let mut p = h.build_payload();
            if flip {
                p[100] ^= 0xFF;
            }
            evb_frame(evb_xfn::FRAGMENT, p)
        };
        // Event 8 is deep-checked (8 % DEEP_CHECK_EVERY == 0).
        for source in 0..EVB_SOURCES as u16 {
            let bytes = fragment(8, source, source == 2);
            pt.send(&to_self, FrameBuf::from_bytes(&bytes)).unwrap();
        }
        while pt.poll().is_some() {}
        assert_eq!(checker.corrupt_fragments(), 1, "the flipped byte is caught");
        let bytes = (EVB_SOURCES * (FRAGMENT_HEADER_LEN + EVB_FRAGMENT)) as u64;
        assert!(!checker.built(8, bytes), "event with a bad fragment fails");
    }
}
