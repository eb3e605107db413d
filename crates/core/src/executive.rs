//! The executive: the per-node I2O kernel.
//!
//! One executive runs per node (IOP). It owns the memory pool, the
//! scheduling queue, the routing table, the Peer Transport Agent, the
//! timer wheel and the device registry, and it performs all message
//! dispatching on a single loop of control (paper §4). Applications,
//! peer transports and the executive itself are all I2O devices with
//! TiDs; control flows through executive-class messages, so a primary
//! host can drive a whole cluster of executives with frames alone.

use crate::admission::AdmissionControl;
use crate::clock::Clock;
use crate::config::{encode_kv, kv, parse_kv, AllocatorKind, ExecutiveConfig};
use crate::credit::{self, CreditManager, FlowCmd};
use crate::error::{ExecError, PtError};
use crate::listener::{Delivery, Dispatcher, I2oListener, TimerId, UtilOutcome};
use crate::pta::{PeerAddr, PeerTransport, Pta};
use crate::queue::SchedQueue;
use crate::registry::{DeviceMeta, DeviceUnit, LctEntry, Registry};
use crate::route::{Hop, Route, RouteTable};
use crate::supervisor::{LinkState, LinkSupervisor};
use crate::timer::TimerWheel;
use crate::xfn;
use parking_lot::Mutex;
use serde_json::json;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use xdaq_i2o::{
    DeviceClass, DeviceState, ExecFn, FunctionCode, Message, MsgFlags, MsgHeader, Priority,
    PrivateHeader, ReplyStatus, Tid, TidAllocator, UtilFn, HEADER_LEN, NUM_PRIORITIES, ORG_XDAQ,
};
use xdaq_mempool::{FrameAllocator, FrameBuf, SimplePool, TablePool};
use xdaq_mon::{Counter, FrameTracer, Gauge, Histogram, TraceEvent};

/// Factory for runtime module loading (`ExecSwDownload`): given the
/// configured parameters, produce a listener instance.
pub type ModuleFactory =
    Box<dyn Fn(&HashMap<String, String>) -> Box<dyn I2oListener> + Send + Sync>;

/// Messages dispatched per loop iteration before PTs are polled again.
const DISPATCH_BATCH: usize = 16;
/// Spin iterations before the idle loop yields the CPU.
const IDLE_SPINS: u32 = 200;
/// Slots in the frame-lifecycle trace ring. The tracer starts disabled;
/// `UtilMonTraceDump` turns it on and off at runtime.
const TRACE_CAPACITY: usize = 1024;

/// The executive's monitoring surface: every hot-path counter is a
/// handle into one [`xdaq_mon::Registry`], so a `UtilMonSnapshot`
/// serializes the complete node state without extra plumbing, and the
/// frame tracer rides alongside behind its single-branch gate.
pub struct ExecMonitors {
    registry: xdaq_mon::Registry,
    /// Frame lifecycle tracer (starts disabled).
    pub(crate) tracer: FrameTracer,
    dispatch_latency: Histogram,
    dispatched: Counter,
    sent_local: Counter,
    sent_peer: Counter,
    forwarded: Counter,
    broadcasts: Counter,
    dropped: Counter,
    exec_msgs: Counter,
    util_msgs: Counter,
    timers_fired: Counter,
    watchdog_trips: Counter,
    faults: Counter,
    polled_frames: Counter,
    peer_down: Counter,
    peer_suspect: Counter,
    hb_pings: Counter,
    hb_pongs: Counter,
}

impl ExecMonitors {
    fn new() -> (ExecMonitors, [Gauge; NUM_PRIORITIES]) {
        let registry = xdaq_mon::Registry::new();
        let depth_gauges = std::array::from_fn(|i| registry.gauge(&format!("queue.depth.p{i}")));
        let mon = ExecMonitors {
            tracer: FrameTracer::new(TRACE_CAPACITY),
            dispatch_latency: registry.histogram("exec.dispatch_latency_ns"),
            dispatched: registry.counter("exec.dispatched"),
            sent_local: registry.counter("exec.sent_local"),
            sent_peer: registry.counter("exec.sent_peer"),
            forwarded: registry.counter("exec.forwarded"),
            broadcasts: registry.counter("exec.broadcasts"),
            dropped: registry.counter("exec.dropped"),
            exec_msgs: registry.counter("exec.exec_msgs"),
            util_msgs: registry.counter("exec.util_msgs"),
            timers_fired: registry.counter("exec.timers_fired"),
            watchdog_trips: registry.counter("exec.watchdog_trips"),
            faults: registry.counter("exec.faults"),
            polled_frames: registry.counter("pta.polled_frames"),
            peer_down: registry.counter("link.peer_down"),
            peer_suspect: registry.counter("link.peer_suspect"),
            hb_pings: registry.counter("link.hb_pings"),
            hb_pongs: registry.counter("link.hb_pongs"),
            registry,
        };
        (mon, depth_gauges)
    }

    /// The node-local metric registry (counters, gauges, histograms).
    /// Device classes may hang their own metrics off it.
    pub fn registry(&self) -> &xdaq_mon::Registry {
        &self.registry
    }

    /// The frame lifecycle tracer.
    pub fn tracer(&self) -> &FrameTracer {
        &self.tracer
    }

    /// Queue→dispatch latency histogram (populated while tracing is
    /// enabled).
    pub fn dispatch_latency(&self) -> &Histogram {
        &self.dispatch_latency
    }
}

/// Snapshot of executive counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Frames dispatched to devices.
    pub dispatched: u64,
    /// Frames routed to local devices.
    pub sent_local: u64,
    /// Frames routed to peers via the PTA.
    pub sent_peer: u64,
    /// Frames that arrived from a peer and were forwarded onward
    /// (multi-hop peer operation).
    pub forwarded: u64,
    /// Broadcast fan-outs performed.
    pub broadcasts: u64,
    /// Frames dropped (unknown target / not accepting).
    pub dropped: u64,
    /// Executive-class messages handled.
    pub exec_msgs: u64,
    /// Utility-class messages handled.
    pub util_msgs: u64,
    /// Timer events fired.
    pub timers_fired: u64,
    /// Watchdog budget violations.
    pub watchdog_trips: u64,
    /// Devices transitioned to Faulted.
    pub faults: u64,
}

/// Shared executive internals (everything the dispatch context and the
/// public wrapper need).
pub struct ExecCore {
    node: String,
    alloc: Arc<dyn FrameAllocator>,
    queue: SchedQueue,
    routes: RouteTable,
    pta: Pta,
    timers: TimerWheel,
    registry: Registry,
    tids: Mutex<TidAllocator>,
    factories: Mutex<HashMap<String, ModuleFactory>>,
    mon: ExecMonitors,
    watchdog: Option<Duration>,
    supervisor: Option<LinkSupervisor>,
    /// Link-level credit flow control, when configured (DESIGN.md §13).
    flow: Option<Arc<CreditManager>>,
    /// Per-initiator tenant admission (token buckets); empty = admit
    /// everything with zero data-path cost beyond one branch.
    admission: AdmissionControl,
    fault_listener: Mutex<Option<Tid>>,
    running: AtomicBool,
    /// The executive's time source (DESIGN.md §16). Wall by default;
    /// simulations share one virtual clock across a whole cluster.
    clock: Clock,
    started_at: Instant,
    exec_meta: Mutex<DeviceMeta>,
}

impl ExecCore {
    /// Node name.
    pub fn node_name(&self) -> &str {
        &self.node
    }

    /// The frame allocator.
    pub fn allocator(&self) -> &dyn FrameAllocator {
        &*self.alloc
    }

    /// Allocates a pooled buffer.
    pub fn alloc(&self, len: usize) -> Result<FrameBuf, xdaq_mempool::AllocError> {
        self.mon.tracer.record(TraceEvent::Alloc, len as u32, 0);
        self.alloc.alloc(len)
    }

    /// The monitoring surface: metric registry, frame tracer, latency
    /// histogram.
    pub fn monitors(&self) -> &ExecMonitors {
        &self.mon
    }

    /// The timer wheel.
    pub fn timers(&self) -> &TimerWheel {
        &self.timers
    }

    /// The executive's time source.
    pub fn clock(&self) -> &Clock {
        &self.clock
    }

    /// The Peer Transport Agent (retry/failover machinery, transport
    /// registry).
    pub fn pta(&self) -> &Pta {
        &self.pta
    }

    /// The link supervisor, when supervision is configured.
    pub fn supervisor(&self) -> Option<&LinkSupervisor> {
        self.supervisor.as_ref()
    }

    /// The credit flow-control manager, when flow control is
    /// configured (DESIGN.md §13).
    pub fn flow(&self) -> Option<&Arc<CreditManager>> {
        self.flow.as_ref()
    }

    /// The tenant admission table (`qos.*` runtime parameters).
    pub fn admission(&self) -> &AdmissionControl {
        &self.admission
    }

    /// Name → TiD lookup (local devices and named proxies).
    pub fn lookup_name(&self, name: &str) -> Option<Tid> {
        self.registry.lookup_name(name)
    }

    /// Registers `tid` as the executive's fault listener — the device
    /// that receives `XFN_PEER_DOWN` / `XFN_WATCHDOG` / `XFN_FAULT`
    /// notifications. Same effect as a `UtilFn::EventRegister` frame,
    /// without the frame round trip (usable from `plugged`, before the
    /// dispatch loop runs).
    pub(crate) fn set_fault_listener(&self, tid: Tid) {
        *self.fault_listener.lock() = Some(tid);
    }

    /// Total pending messages.
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// Purges a TiD's pending frames from the queue.
    pub(crate) fn purge_tid(&self, tid: Tid) -> usize {
        self.queue.purge(tid)
    }

    /// Enqueues locally, stamping the frame for latency measurement
    /// when tracing is on (one branch on the disabled path).
    fn enqueue(&self, mut d: Delivery) {
        if self.mon.tracer.is_enabled() {
            d.enqueued_at = Some(Instant::now());
            self.mon.tracer.record(
                TraceEvent::Enqueue,
                d.header.target.raw() as u32,
                d.priority().level() as u32,
            );
        }
        self.queue.push(d);
    }

    /// Routes a delivery to its target: local queue, peer transport, or
    /// broadcast fan-out.
    pub fn route(&self, d: Delivery) -> Result<(), ExecError> {
        let hop = self.routes.resolve(d.header.target);
        self.route_via(d, hop)
    }

    /// [`ExecCore::route`] with the target's route already resolved
    /// (ingest learns it in the same lookup that finds the sender's
    /// proxy).
    fn route_via(&self, d: Delivery, hop: Option<Hop>) -> Result<(), ExecError> {
        // Tenant admission: private data frames from an over-rate
        // class are shed here, before they cost a scheduler slot or a
        // peer-link credit. Control frames and replies are exempt —
        // shedding a reply would break request/reply for a tenant
        // whose request was already admitted.
        if !self.admission.is_empty()
            && d.header.function_code() == FunctionCode::Private
            && !d.header.flags.contains(MsgFlags::CONTROL)
            && !d.header.flags.contains(MsgFlags::IS_REPLY)
            && !self.admission.admit(d.header.initiator)
        {
            self.mon.dropped.inc();
            self.mon
                .tracer
                .record(TraceEvent::Drop, d.header.initiator.raw() as u32, 3);
            return Err(ExecError::Shed(d.header.initiator));
        }
        let target = d.header.target;
        if target.is_broadcast() {
            return self.broadcast(d);
        }
        if target == Tid::EXECUTIVE {
            self.enqueue(d);
            self.mon.sent_local.inc();
            return Ok(());
        }
        match hop {
            Some(Hop::Local) => {
                self.enqueue(d);
                self.mon.sent_local.inc();
                Ok(())
            }
            Some(Hop::Peer {
                peer,
                remote_tid,
                has_alternates,
            }) => {
                let mut buf = d.into_buf();
                MsgHeader::patch_target(&mut buf, remote_tid);
                self.mon.tracer.record(
                    TraceEvent::PtSend,
                    remote_tid.raw() as u32,
                    buf.len() as u32,
                );
                if has_alternates {
                    let mut chain = match self.routes.lookup(target) {
                        Some(route @ Route::Peer { .. }) => route.failover_chain(),
                        // Evicted since it was resolved.
                        _ => vec![peer],
                    };
                    // Same-host fast path: when a shm transport is
                    // registered, try the zero-copy address first and
                    // keep the network addresses as failover.
                    self.pta.reorder_for_locality(&mut chain);
                    self.pta.send_failover(&chain, buf)?;
                } else {
                    self.pta.send(&peer, buf)?;
                }
                self.mon.sent_peer.inc();
                Ok(())
            }
            None => {
                self.mon.dropped.inc();
                self.mon
                    .tracer
                    .record(TraceEvent::Drop, target.raw() as u32, 0);
                Err(ExecError::UnknownTid(target))
            }
        }
    }

    fn broadcast(&self, d: Delivery) -> Result<(), ExecError> {
        self.mon.broadcasts.inc();
        let bytes = d.frame_bytes();
        for tid in self.registry.tids() {
            if tid == d.header.initiator {
                continue; // do not echo to the sender
            }
            let mut buf = self.alloc(bytes.len())?;
            buf.copy_from_slice(bytes);
            MsgHeader::patch_target(&mut buf, tid);
            if let Ok(copy) = Delivery::from_buf(buf) {
                self.enqueue(copy);
                self.mon.sent_local.inc();
            }
        }
        Ok(())
    }

    /// Finds or creates the proxy TiD for a remote device reached via
    /// `peer` (paper §3.4: the executive "creates a local TiD for the
    /// target device along with information how to reach this device").
    pub fn proxy_for(&self, peer: PeerAddr, remote_tid: Tid) -> Result<Tid, ExecError> {
        self.routes
            .proxy_for(peer, remote_tid, || Ok(self.tids.lock().allocate()?))
    }

    /// Ingest path for frames arriving from a peer transport.
    ///
    /// The remote initiator TiD is rewritten to a locally created proxy
    /// so replies route back transparently; frames whose target is
    /// itself a proxy are forwarded onward (multi-hop Peer Operation).
    pub fn ingest_from_peer(&self, mut buf: FrameBuf, src: PeerAddr) {
        self.mon
            .tracer
            .record(TraceEvent::PtRecv, 0, buf.len() as u32);
        if let Some(sup) = &self.supervisor {
            // Any inbound frame is proof of life (recovers Suspect,
            // never Down — see supervisor.rs).
            let _ = sup.touch(&src);
        }
        let mut header = match MsgHeader::decode(&buf) {
            Ok(h) => h,
            Err(_) => {
                self.mon.dropped.inc();
                return;
            }
        };
        // Credit protocol: grants and syncs are consumed right here at
        // ingest, never queued — the reserved control lane. A blocked
        // dispatch loop or a saturated scheduler queue can therefore
        // never delay, shed or deadlock credit replenishment. Inbound
        // private data frames account against the receiver lane and
        // may trigger a replenishing grant back to the sender.
        if let Some(mgr) = &self.flow {
            match header.function_code() {
                FunctionCode::Util(UtilFn::CreditGrant) => {
                    if let Some((epoch, total)) = credit::decode_credit_payload(&buf[HEADER_LEN..])
                    {
                        mgr.on_grant(&src, epoch, total);
                    }
                    return;
                }
                FunctionCode::Util(UtilFn::CreditSync) => {
                    if let Some((epoch, total)) = credit::decode_credit_payload(&buf[HEADER_LEN..])
                    {
                        if let Some(cmd) = mgr.on_sync(&src, epoch, total, self.queued()) {
                            self.send_flow_cmd(cmd);
                        }
                    }
                    return;
                }
                FunctionCode::Private if !header.flags.contains(MsgFlags::CONTROL) => {
                    if let Some(cmd) = mgr.on_data(&src, self.queued()) {
                        self.send_flow_cmd(cmd);
                    }
                }
                _ => {}
            }
        }
        // One table read answers both questions: which local proxy
        // stands for the sender, and where the target leads.
        let (proxy, mut hop) = self
            .routes
            .resolve_inbound(&src, header.initiator, header.target);
        if header.initiator.is_addressable() {
            let proxy = match proxy {
                Some(proxy) => proxy,
                // First frame from this device: make its proxy. The
                // new TiD may be the very one the frame targets.
                None => match self.proxy_for(src, header.initiator) {
                    Ok(proxy) => {
                        hop = self.routes.resolve(header.target);
                        proxy
                    }
                    Err(_) => {
                        self.mon.dropped.inc();
                        return;
                    }
                },
            };
            MsgHeader::patch_initiator(&mut buf, proxy);
            header.initiator = proxy;
        }
        let d = match Delivery::with_header(buf, header) {
            Ok(d) => d,
            Err(_) => {
                self.mon.dropped.inc();
                return;
            }
        };
        if matches!(hop, Some(Hop::Peer { .. })) {
            self.mon.forwarded.inc();
        }
        let _ = self.route_via(d, hop);
    }

    /// Emits one credit-protocol frame (grant or sync) straight to the
    /// peer transport. Utility function codes are never metered by the
    /// credit gate, so grants flow even when the data lane is
    /// exhausted.
    fn send_flow_cmd(&self, cmd: FlowCmd) {
        let (peer, func, epoch, total) = match cmd {
            FlowCmd::Grant { peer, epoch, total } => (peer, UtilFn::CreditGrant, epoch, total),
            FlowCmd::Sync { peer, epoch, total } => (peer, UtilFn::CreditSync, epoch, total),
        };
        let msg = Message::util(Tid::EXECUTIVE, Tid::EXECUTIVE, func)
            .priority(Priority::MAX)
            .payload(credit::encode_credit_payload(epoch, total).to_vec())
            .finish();
        if let Ok(d) = Delivery::from_message(&msg, self.allocator()) {
            let _ = self.pta.send(&peer, d.into_buf());
        }
    }

    /// Periodic flow maintenance, driven from the supervision/PTA
    /// timer slot: re-advertise receiver windows (heals lost grants)
    /// and nudge stalled metered senders with a sync.
    pub(crate) fn flow_tick(&self) {
        let Some(mgr) = &self.flow else { return };
        for cmd in mgr.tick(self.queued()) {
            self.send_flow_cmd(cmd);
        }
    }

    /// Applies runtime `flow.*` / `qos.*` parameters (from a
    /// `ParamsSet` frame addressed to the executive, or `xcl qos`).
    pub(crate) fn apply_runtime_params(&self, map: &HashMap<String, String>) -> Result<(), String> {
        for (k, v) in map {
            if k.starts_with("flow.") {
                match &self.flow {
                    Some(mgr) => mgr.apply_param(k, v)?,
                    None => return Err("flow control is not enabled on this node".to_string()),
                }
            } else if k.starts_with("qos.") {
                self.admission.apply_param(k, v, &self.mon.registry)?;
            }
        }
        Ok(())
    }

    fn snapshot(&self) -> ExecStats {
        let m = &self.mon;
        ExecStats {
            dispatched: m.dispatched.get(),
            sent_local: m.sent_local.get(),
            sent_peer: m.sent_peer.get(),
            forwarded: m.forwarded.get(),
            broadcasts: m.broadcasts.get(),
            dropped: m.dropped.get(),
            exec_msgs: m.exec_msgs.get(),
            util_msgs: m.util_msgs.get(),
            timers_fired: m.timers_fired.get(),
            watchdog_trips: m.watchdog_trips.get(),
            faults: m.faults.get(),
        }
    }

    /// One JSON document describing everything this node knows about
    /// itself: registry metrics (counters, per-priority queue gauges,
    /// histograms), pool accounting, per-transport counters and tracer
    /// state. This is the `UtilMonSnapshot` reply body.
    pub fn mon_snapshot(&self) -> serde_json::Value {
        let ps = self.alloc.stats();
        let mut doc = json!({
            "node": self.node.as_str(),
            "uptime_ns": self.started_at.elapsed().as_nanos() as u64,
            "devices": self.registry.len() as u64,
            "queued": self.queued() as u64,
            "metrics": self.mon.registry.snapshot(),
            "pool": {
                "scheme": self.alloc.scheme(),
                "allocs": ps.allocs,
                "hits": ps.hits,
                "misses": ps.misses,
                "frees": ps.frees,
                "failures": ps.failures,
                "live_blocks": ps.live_blocks,
                "high_water_blocks": ps.high_water_blocks,
                "bytes_created": ps.bytes_created,
            },
            "pt": self.pta.counters_value(),
            "links": self
                .supervisor
                .as_ref()
                .map(|s| {
                    s.states()
                        .into_iter()
                        .map(|(p, st)| json!({"peer": p.to_string(), "state": st.as_str()}))
                        .collect::<Vec<_>>()
                })
                .unwrap_or_default(),
            "trace": {
                "enabled": self.mon.tracer.is_enabled(),
                "recorded": self.mon.tracer.recorded(),
            },
        });
        // The flow/qos sections only appear once configured, so
        // nodes without them scrape identically to historical output.
        if let serde_json::Value::Object(m) = &mut doc {
            if let Some(mgr) = &self.flow {
                m.insert("flow".to_string(), mgr.snapshot());
            }
            if !self.admission.is_empty() {
                m.insert("qos".to_string(), self.admission.snapshot());
            }
        }
        doc
    }

    /// Zeroes the whole monitoring state: registry (counters, gauges,
    /// histograms — including the counters behind [`ExecStats`]), the
    /// trace ring, and per-transport counters. Pool accounting is
    /// lifetime state and is left untouched.
    pub fn mon_reset(&self) {
        self.mon.registry.reset();
        self.mon.tracer.clear();
        self.pta.reset_counters();
    }
}

/// The public executive handle. Cloning is cheap (shared core).
#[derive(Clone)]
pub struct Executive {
    core: Arc<ExecCore>,
}

impl Executive {
    /// Builds an executive from configuration.
    pub fn new(config: ExecutiveConfig) -> Executive {
        let alloc: Arc<dyn FrameAllocator> = match config.allocator {
            AllocatorKind::Simple => SimplePool::with_defaults(),
            AllocatorKind::Table => TablePool::with_defaults(),
        };
        let exec_meta = DeviceMeta {
            tid: Tid::EXECUTIVE,
            name: format!("{}.executive", config.node),
            class: DeviceClass::Executive,
            state: DeviceState::Enabled,
            params: HashMap::new(),
        };
        let (mon, depth_gauges) = ExecMonitors::new();
        let queue = SchedQueue::with_gauges(depth_gauges);
        let supervisor = config.supervision.clone().map(LinkSupervisor::new);
        let flow = config
            .flow
            .clone()
            .map(|fc| Arc::new(CreditManager::bound_to(fc, mon.registry())));
        let core = Arc::new(ExecCore {
            node: config.node,
            alloc,
            queue,
            routes: RouteTable::new(),
            pta: Pta::with_clock(config.clock.clone()),
            timers: TimerWheel::with_clock(config.clock.clone()),
            registry: Registry::new(),
            tids: Mutex::new(TidAllocator::new()),
            factories: Mutex::new(HashMap::new()),
            mon,
            watchdog: config.watchdog,
            supervisor,
            flow,
            admission: AdmissionControl::new(),
            fault_listener: Mutex::new(None),
            running: AtomicBool::new(true),
            clock: config.clock,
            started_at: Instant::now(),
            exec_meta: Mutex::new(exec_meta),
        });
        core.routes.add_local(Tid::EXECUTIVE);
        core.routes.add_local(Tid::PTA);
        core.pta.bind_registry(core.mon.registry());
        core.pta.set_retry_policy(None, config.retry);
        if let Some(mgr) = &core.flow {
            core.pta.bind_flow(mgr.clone());
        }
        if let Some(sup) = &core.supervisor {
            // The heartbeat timer is owned by the PTA pseudo-device;
            // run_once intercepts it instead of synthesizing a frame.
            // With flow control on, the same slot drives flow_tick.
            core.timers.register(Tid::PTA, sup.interval(), true);
        } else if let Some(mgr) = &core.flow {
            // No supervision: flow maintenance still needs the PTA
            // timer slot (grant re-advertisement, stalled-sender sync).
            core.timers.register(Tid::PTA, mgr.config().tick, true);
        }
        Executive { core }
    }

    /// Shared internals (dispatch context, tests, benches).
    pub fn core(&self) -> &Arc<ExecCore> {
        &self.core
    }

    /// Node name.
    pub fn node(&self) -> &str {
        self.core.node_name()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> ExecStats {
        self.core.snapshot()
    }

    /// Pool statistics.
    pub fn pool_stats(&self) -> xdaq_mempool::PoolStats {
        self.core.alloc.stats()
    }

    /// Registers a device instance under a unique name, assigning a
    /// TiD and delivering the `plugged` upcall.
    pub fn register(
        &self,
        name: &str,
        listener: Box<dyn I2oListener>,
        params: &[(&str, &str)],
    ) -> Result<Tid, ExecError> {
        let params: HashMap<String, String> = params
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        self.register_with(name, listener, params)
    }

    fn register_with(
        &self,
        name: &str,
        listener: Box<dyn I2oListener>,
        params: HashMap<String, String>,
    ) -> Result<Tid, ExecError> {
        let tid = self.core.tids.lock().allocate()?;
        let meta = DeviceMeta {
            tid,
            name: name.to_string(),
            class: listener.class(),
            state: DeviceState::Initialized,
            params,
        };
        if let Err(e) = self.core.registry.insert(DeviceUnit { listener, meta }) {
            let _ = self.core.tids.lock().free(tid);
            return Err(e);
        }
        self.core.routes.add_local(tid);
        // The paper's plugin upcall: the instance learns its TiD and
        // reads its parameters.
        if let Some(mut unit) = self.core.registry.checkout(tid) {
            let mut ctx = Dispatcher {
                core: &self.core,
                meta: &mut unit.meta,
            };
            unit.listener.plugged(&mut ctx);
            self.core.registry.checkin(unit);
        }
        Ok(tid)
    }

    /// Registers a module factory for runtime loading via
    /// `ExecSwDownload` (the paper's dynamic download of device
    /// classes into running executives).
    pub fn register_factory(&self, name: &str, factory: ModuleFactory) {
        self.core.factories.lock().insert(name.to_string(), factory);
    }

    /// Instantiates a previously registered factory.
    pub fn load_module(
        &self,
        factory: &str,
        instance: &str,
        params: HashMap<String, String>,
    ) -> Result<Tid, ExecError> {
        let listener = {
            let factories = self.core.factories.lock();
            let f = factories
                .get(factory)
                .ok_or_else(|| ExecError::UnknownModule(factory.to_string()))?;
            f(&params)
        };
        self.register_with(instance, listener, params)
    }

    /// Registers a peer transport: it becomes a device (TiD, utility
    /// messages) *and* the PTA routes frames through it by scheme.
    pub fn register_pt(&self, name: &str, pt: Arc<dyn PeerTransport>) -> Result<Tid, ExecError> {
        struct PtDdm {
            scheme: &'static str,
            pt: Arc<dyn PeerTransport>,
        }
        impl I2oListener for PtDdm {
            fn class(&self) -> DeviceClass {
                DeviceClass::PeerTransport
            }
            fn on_private(&mut self, _ctx: &mut Dispatcher<'_>, _msg: Delivery) {
                // Peer transports consume no private frames; data-plane
                // traffic flows through the PTA send/poll hooks.
            }
            fn plugged(&mut self, ctx: &mut Dispatcher<'_>) {
                let scheme = self.scheme.to_string();
                ctx.set_param("scheme", &scheme);
            }
            fn on_util(
                &mut self,
                ctx: &mut Dispatcher<'_>,
                f: UtilFn,
                msg: &Delivery,
            ) -> UtilOutcome {
                // ParamsSet is forwarded to the transport so runtime
                // knobs (fault plans, tunables) reach it over I2O.
                if f != UtilFn::ParamsSet {
                    return UtilOutcome::Default;
                }
                match parse_kv(msg.payload()) {
                    Ok(map) => {
                        for (k, v) in &map {
                            if let Err(e) = self.pt.configure(k, v) {
                                let body = format!("{k}: {e}");
                                let _ = ctx.reply(msg, ReplyStatus::BadFrame, body.as_bytes());
                                return UtilOutcome::Handled;
                            }
                        }
                        for (k, v) in map {
                            ctx.set_param(&k, &v);
                        }
                        let _ = ctx.reply(msg, ReplyStatus::Success, &[]);
                    }
                    Err(e) => {
                        let _ = ctx.reply(msg, ReplyStatus::BadFrame, e.as_bytes());
                    }
                }
                UtilOutcome::Handled
            }
        }
        let tid = self.register(
            name,
            Box::new(PtDdm {
                scheme: pt.scheme(),
                pt: pt.clone(),
            }),
            &[],
        )?;
        self.core.pta.register(tid, pt);
        Ok(tid)
    }

    /// Creates (or finds) a proxy TiD for a remote device, optionally
    /// giving it a local alias name.
    pub fn proxy(
        &self,
        peer: &str,
        remote_tid: Tid,
        alias: Option<&str>,
    ) -> Result<Tid, ExecError> {
        let addr: PeerAddr = peer.parse().map_err(ExecError::Transport)?;
        let tid = self.core.proxy_for(addr, remote_tid)?;
        if let Some(name) = alias {
            self.core.registry.alias(name, tid)?;
        }
        Ok(tid)
    }

    /// Adds a fallback address to an existing proxy route; the PTA
    /// fails over to it when the primary address cannot deliver.
    /// Returns false when the route is absent or the address is
    /// already part of the chain.
    pub fn add_alternate(&self, proxy: Tid, alt: &str) -> Result<bool, ExecError> {
        let addr: PeerAddr = alt.parse().map_err(ExecError::Transport)?;
        Ok(self.core.routes.add_alternate(proxy, addr))
    }

    /// Starts heartbeat supervision of a peer link. Requires
    /// [`ExecutiveConfig::supervision`] to be set.
    pub fn supervise(&self, peer: &str) -> Result<(), ExecError> {
        let addr: PeerAddr = peer.parse().map_err(ExecError::Transport)?;
        match &self.core.supervisor {
            Some(sup) => {
                sup.supervise(addr);
                Ok(())
            }
            None => Err(ExecError::BadControl(
                "supervision is not configured on this executive".to_string(),
            )),
        }
    }

    /// Stops heartbeat supervision of a peer link (no-op when the link
    /// is not supervised or supervision is off). Used when a managed
    /// peer is retired on purpose — its old address must not keep
    /// generating Suspect/Down churn after the replacement comes up.
    pub fn unsupervise(&self, peer: &str) -> Result<(), ExecError> {
        let addr: PeerAddr = peer.parse().map_err(ExecError::Transport)?;
        if let Some(sup) = &self.core.supervisor {
            sup.unsupervise(&addr);
        }
        Ok(())
    }

    /// Registers `tid` as this executive's fault listener: peer-down
    /// events arrive as `XFN_PEER_DOWN` private frames. Equivalent to
    /// `Dispatcher::watch_faults` but callable from outside a dispatch
    /// (host agents, control planes). Last caller wins.
    pub fn watch_faults(&self, tid: Tid) {
        self.core.set_fault_listener(tid);
    }

    /// Current supervised-link states (empty when supervision is off).
    pub fn link_states(&self) -> Vec<(String, LinkState)> {
        self.core
            .supervisor
            .as_ref()
            .map(|s| {
                s.states()
                    .into_iter()
                    .map(|(p, st)| (p.to_string(), st))
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Overrides the PTA retry policy for one scheme (`Some("tcp")`)
    /// or the default for all schemes (`None`).
    pub fn set_retry_policy(&self, scheme: Option<&str>, policy: crate::pta::RetryPolicy) {
        self.core.pta.set_retry_policy(scheme, policy);
    }

    /// Injects a message from outside the dispatch loop (host control,
    /// application threads, tests). The message is encoded into a
    /// pooled buffer and routed like any frameSend.
    pub fn post(&self, msg: Message) -> Result<(), ExecError> {
        let d = Delivery::from_message(&msg, self.core.allocator())?;
        self.core.route(d)
    }

    /// Hands a raw encoded frame to the executive as if it arrived from
    /// the wire of `src`.
    pub fn ingest_from_peer(&self, buf: FrameBuf, src: PeerAddr) {
        self.core.ingest_from_peer(buf, src);
    }

    /// Starts all task-mode PTs, delivering into this executive.
    pub fn start_transports(&self) -> Result<(), PtError> {
        let core = self.core.clone();
        self.core.pta.start_tasks(Arc::new(move |buf, src| {
            core.ingest_from_peer(buf, src);
        }))
    }

    /// Destroys a device: unregisters, purges queues/timers/routes and
    /// frees its TiD.
    pub fn destroy(&self, tid: Tid) -> Result<(), ExecError> {
        let unit = self.core.registry.remove(tid);
        self.core.routes.remove(tid);
        self.core.purge_tid(tid);
        self.core.timers.cancel_owned(tid);
        self.core.pta.unregister(tid);
        match unit {
            Some(mut u) => {
                u.listener.unplugged();
                u.meta.state = DeviceState::Destroyed;
                let _ = self.core.tids.lock().free(tid);
                Ok(())
            }
            None => Err(ExecError::UnknownTid(tid)),
        }
    }

    /// Run-control: enable all devices that can be enabled.
    pub fn enable_all(&self) {
        self.core.registry.for_each_meta(|m| {
            if m.state.can_transition(DeviceState::Enabled) {
                m.state = DeviceState::Enabled;
            }
        });
    }

    /// Run-control: quiesce all enabled devices.
    pub fn quiesce_all(&self) {
        self.core.registry.for_each_meta(|m| {
            if m.state.can_transition(DeviceState::Quiesced) {
                m.state = DeviceState::Quiesced;
            }
        });
    }

    /// The Logical Configuration Table.
    pub fn lct(&self) -> Vec<LctEntry> {
        self.core.registry.lct()
    }

    /// Pending message count.
    pub fn queue_len(&self) -> usize {
        self.core.queued()
    }

    /// Services the control plane: timer wheel
    /// (including the `LinkSupervisor` heartbeat tick) and polling-mode
    /// PTs. Returns the number of work items performed.
    fn service_control(&self) -> usize {
        let core = &self.core;
        let mut work = 0usize;

        // Timers → XFN_TIMER frames through the normal queue. The
        // heartbeat timer is owned by the PTA pseudo-device and is
        // serviced directly instead of synthesizing a frame (no device
        // can own Tid::PTA).
        work += core.timers.fire_due(core.clock.now(), |owner, id| {
            core.mon.timers_fired.inc();
            if owner == Tid::PTA {
                self.heartbeat_tick();
                core.flow_tick();
                return;
            }
            let mut header = MsgHeader::new(owner, Tid::EXECUTIVE, FunctionCode::Private);
            header.flags = header.flags.with_priority(Priority::MAX);
            let private = PrivateHeader::new(ORG_XDAQ, xfn::XFN_TIMER);
            let tick = Delivery::private_in_place(core.allocator(), header, private, 8, |p| {
                p.copy_from_slice(&id.0.to_le_bytes())
            });
            if let Ok(d) = tick {
                core.enqueue(d);
            }
        });

        // Polling-mode PTs (paper: executive periodically scans PTs).
        let polled = core
            .pta
            .poll_all(|buf, src| core.ingest_from_peer(buf, src));
        if polled > 0 {
            core.mon.polled_frames.add(polled as u64);
        }
        work + polled
    }

    /// One scheduler iteration: fire timers, poll polling-mode PTs,
    /// dispatch up to `DISPATCH_BATCH` messages. Returns the number of
    /// work items performed (0 ⇒ idle).
    pub fn run_once(&self) -> usize {
        let mut work = self.service_control();
        for _ in 0..DISPATCH_BATCH {
            match self.core.queue.pop() {
                Some(d) => {
                    self.dispatch(d);
                    work += 1;
                }
                None => break,
            }
        }
        work
    }

    /// Runs the dispatch loop until [`Executive::stop`] is called.
    pub fn run(&self) {
        let mut idle = 0u32;
        while self.core.running.load(Ordering::Acquire) {
            if self.run_once() > 0 {
                idle = 0;
            } else {
                idle += 1;
                if idle < IDLE_SPINS {
                    std::hint::spin_loop();
                } else {
                    std::thread::yield_now();
                }
            }
        }
        self.core.pta.stop_all();
    }

    /// Requests loop termination.
    pub fn stop(&self) {
        self.core.running.store(false, Ordering::Release);
    }

    /// Spawns the dispatch loop on its own thread (starting task-mode
    /// transports first) and returns a handle.
    pub fn spawn(&self) -> ExecutiveHandle {
        let _ = self.start_transports();
        let me = self.clone();
        let thread = std::thread::Builder::new()
            .name(format!("xdaq-{}", self.node()))
            .spawn(move || me.run())
            .expect("spawn executive thread");
        ExecutiveHandle {
            exec: self.clone(),
            thread: Some(thread),
        }
    }

    // ------------------------------------------------------------------
    // Dispatch internals
    // ------------------------------------------------------------------

    fn dispatch(&self, d: Delivery) {
        let core = &self.core;
        core.mon.dispatched.inc();
        let target = d.header.target;
        // Queue→dispatch latency; the stamp exists only while tracing
        // is on, so the disabled path pays one `Option` check.
        if let Some(t0) = d.enqueued_at {
            let ns = t0.elapsed().as_nanos() as u64;
            core.mon.dispatch_latency.record(ns);
            core.mon.tracer.record(
                TraceEvent::Dispatch,
                target.raw() as u32,
                d.header.function_code().to_u8() as u32,
            );
        }
        if target == Tid::EXECUTIVE {
            self.handle_executive(d);
            return;
        }

        let unit = core.registry.checkout(target);
        let function = d.header.function_code();
        let Some(mut unit) = unit else {
            core.mon.dropped.inc();
            core.mon
                .tracer
                .record(TraceEvent::Drop, target.raw() as u32, 0);
            self.error_reply(&d, ReplyStatus::UnknownTarget);
            return;
        };

        match function {
            FunctionCode::Private => {
                self.dispatch_private(&mut unit, d);
            }
            // Replies to standard-function requests this device sent.
            _ if d.header.flags.contains(MsgFlags::IS_REPLY) => {
                let mut ctx = Dispatcher {
                    core,
                    meta: &mut unit.meta,
                };
                unit.listener.on_reply(&mut ctx, d);
            }
            FunctionCode::Util(f) => {
                core.mon.util_msgs.inc();
                self.dispatch_util(&mut unit, f, d);
            }
            FunctionCode::Exec(_) | FunctionCode::Unknown(_) => {
                // Fault-tolerant default (paper §3.2): unknown standard
                // messages get a well-formed error reply instead of
                // crashing or stalling the node.
                let mut ctx = Dispatcher {
                    core,
                    meta: &mut unit.meta,
                };
                let _ = ctx.reply(&d, ReplyStatus::UnsupportedFunction, &[]);
            }
        }
        core.registry.checkin(unit);
        // The delivery has been consumed above; its buffer returns to
        // the pool here, which is the frame's recycle point.
        core.mon
            .tracer
            .record(TraceEvent::Recycle, target.raw() as u32, 0);
    }

    fn dispatch_private(&self, unit: &mut DeviceUnit, d: Delivery) {
        let core = &self.core;
        // Framework-internal events ride private XDAQ frames.
        if let Some(p) = d.private {
            if p.org_id == ORG_XDAQ
                && xfn::is_reserved(p.x_function)
                && p.x_function == xfn::XFN_TIMER
            {
                let mut id = [0u8; 8];
                let payload = d.payload();
                if payload.len() >= 8 {
                    id.copy_from_slice(&payload[..8]);
                    let mut ctx = Dispatcher {
                        core,
                        meta: &mut unit.meta,
                    };
                    unit.listener
                        .on_timer(&mut ctx, TimerId(u64::from_le_bytes(id)));
                }
                return;
            }
            // Other reserved events (watchdog/fault/LCT) are delivered
            // as ordinary private frames below so monitoring listeners
            // can observe them.
        }
        if !unit.meta.state.accepts_private() {
            core.mon.dropped.inc();
            core.mon
                .tracer
                .record(TraceEvent::Drop, unit.meta.tid.raw() as u32, 1);
            self.error_reply(&d, ReplyStatus::Busy);
            return;
        }
        let mut ctx = Dispatcher {
            core,
            meta: &mut unit.meta,
        };
        // The upcall is timed only for a watchdog budget, the one
        // reader of the result.
        let Some(budget) = core.watchdog else {
            unit.listener.on_private(&mut ctx, d);
            return;
        };
        let t_app = Instant::now();
        unit.listener.on_private(&mut ctx, d);
        let app_elapsed = t_app.elapsed();
        // Watchdog (paper §4: detect handlers that monopolize the CPU).
        if app_elapsed > budget {
            core.mon.watchdog_trips.inc();
            if unit.meta.state.can_transition(DeviceState::Faulted) {
                unit.meta.state = DeviceState::Faulted;
                core.mon.faults.inc();
            }
            self.notify_fault(unit.meta.tid, app_elapsed);
        }
    }

    fn dispatch_util(&self, unit: &mut DeviceUnit, f: UtilFn, d: Delivery) {
        let core = &self.core;
        if !unit.meta.state.accepts_utility() {
            self.error_reply(&d, ReplyStatus::Busy);
            return;
        }
        let outcome = {
            let mut ctx = Dispatcher {
                core,
                meta: &mut unit.meta,
            };
            unit.listener.on_util(&mut ctx, f, &d)
        };
        if outcome == UtilOutcome::Handled {
            return;
        }
        self.default_util(&mut unit.meta, f, &d);
    }

    /// The executive's default utility procedures (paper §3.2: "The
    /// system can provide default procedures if for a given event no
    /// code is supplied").
    fn default_util(&self, meta: &mut DeviceMeta, f: UtilFn, d: &Delivery) {
        let core = &self.core;
        let mut ctx = Dispatcher { core, meta };
        match f {
            UtilFn::Nop => {
                let _ = ctx.reply(d, ReplyStatus::Success, &[]);
            }
            UtilFn::ParamsGet => {
                let body = encode_kv(&ctx.meta.params);
                let _ = ctx.reply(d, ReplyStatus::Success, &body);
            }
            UtilFn::ParamsSet => match parse_kv(d.payload()) {
                Ok(map) => {
                    // `flow.*` / `qos.*` keys addressed to the
                    // executive retune flow control and tenant
                    // admission live; a bad key rejects the whole
                    // frame before any param is stored.
                    if ctx.meta.tid == Tid::EXECUTIVE {
                        if let Err(e) = core.apply_runtime_params(&map) {
                            let _ = ctx.reply(d, ReplyStatus::BadFrame, e.as_bytes());
                            return;
                        }
                    }
                    // `exec.stop=1` addressed to the executive is the
                    // orderly retirement path: the reply goes out
                    // first (the controller is waiting on it), then
                    // the dispatch loop winds down.
                    let stop = ctx.meta.tid == Tid::EXECUTIVE
                        && map.get("exec.stop").map(String::as_str) == Some("1");
                    for (k, v) in map {
                        ctx.meta.params.insert(k, v);
                    }
                    let _ = ctx.reply(d, ReplyStatus::Success, &[]);
                    if stop {
                        self.stop();
                    }
                }
                Err(e) => {
                    let _ = ctx.reply(d, ReplyStatus::BadFrame, e.as_bytes());
                }
            },
            UtilFn::Claim => {
                let owner = format!("{}", d.header.initiator.raw());
                if ctx.meta.params.contains_key("claimed_by") {
                    let _ = ctx.reply(d, ReplyStatus::Busy, b"already claimed");
                } else {
                    ctx.meta.params.insert("claimed_by".into(), owner);
                    let _ = ctx.reply(d, ReplyStatus::Success, &[]);
                }
            }
            UtilFn::ClaimRelease => {
                ctx.meta.params.remove("claimed_by");
                let _ = ctx.reply(d, ReplyStatus::Success, &[]);
            }
            UtilFn::Abort => {
                let purged = core.purge_tid(ctx.meta.tid);
                let body = format!("purged={purged}");
                let _ = ctx.reply(d, ReplyStatus::Aborted, body.as_bytes());
            }
            UtilFn::EventRegister => {
                *core.fault_listener.lock() = Some(d.header.initiator);
                let _ = ctx.reply(d, ReplyStatus::Success, &[]);
            }
            UtilFn::EventAck | UtilFn::ReplyFaultNotify => {
                // Pure notifications: nothing to do.
            }
            UtilFn::MonSnapshot => {
                let body = serde_json::to_string(&core.mon_snapshot());
                let _ = ctx.reply(d, ReplyStatus::Success, body.as_bytes());
            }
            UtilFn::MonReset => {
                core.mon_reset();
                let _ = ctx.reply(d, ReplyStatus::Success, &[]);
            }
            UtilFn::MonTraceDump => {
                // Optional one-byte argument toggles the tracer; an
                // empty payload dumps without changing the gate.
                if let Some(&arg) = d.payload().first() {
                    core.mon.tracer.set_enabled(arg != 0);
                }
                let body = serde_json::to_string(&core.mon.tracer.dump_value());
                let _ = ctx.reply(d, ReplyStatus::Success, body.as_bytes());
            }
            UtilFn::HbPing => {
                // Answer with a *fresh* HbPong frame (not an IS_REPLY:
                // the remote executive swallows replies) echoing the
                // sequence payload back to the proxied initiator.
                let pong = Message::util(d.header.initiator, ctx.meta.tid, UtilFn::HbPong)
                    .priority(Priority::MAX)
                    .payload(d.payload().to_vec())
                    .finish();
                let _ = ctx.send(pong);
            }
            UtilFn::HbPong => {
                core.mon.hb_pongs.inc();
                let seq = d
                    .payload()
                    .get(..8)
                    .map(|b| u64::from_le_bytes(b.try_into().unwrap()))
                    .unwrap_or(0);
                // The pong arrives with a proxied initiator; the route
                // for that proxy names the peer the pong came from.
                if let Some(Hop::Peer { peer, .. }) = core.routes.resolve(d.header.initiator) {
                    if let Some(sup) = &core.supervisor {
                        let _ = sup.on_pong(&peer, seq);
                    }
                }
            }
            UtilFn::CreditGrant | UtilFn::CreditSync => {
                // Normally consumed at peer ingest (the reserved
                // control lane); one reaching dispatch means flow
                // control is disabled on this node — ignore it.
            }
        }
    }

    /// Executive-class messages addressed to TiD 1 — the management
    /// surface a primary host drives.
    fn handle_executive(&self, d: Delivery) {
        let core = &self.core;
        core.mon.exec_msgs.inc();
        // Replies to executive-originated requests terminate here —
        // never interpret a reply as a command (loop protection).
        if d.header.flags.contains(MsgFlags::IS_REPLY) {
            return;
        }
        let function = d.header.function_code();
        let mut meta = core.exec_meta.lock();
        match function {
            FunctionCode::Util(f) => {
                core.mon.util_msgs.inc();
                let mut m = meta.clone();
                drop(meta);
                self.default_util(&mut m, f, &d);
                *core.exec_meta.lock() = m;
            }
            FunctionCode::Exec(e) => {
                drop(meta);
                self.handle_exec_fn(e, &d);
            }
            _ => {
                let mut ctx = Dispatcher {
                    core,
                    meta: &mut meta,
                };
                let _ = ctx.reply(&d, ReplyStatus::UnsupportedFunction, &[]);
            }
        }
    }

    fn exec_reply(&self, d: &Delivery, status: ReplyStatus, body: &[u8]) {
        let core = &self.core;
        let mut meta = core.exec_meta.lock().clone();
        let mut ctx = Dispatcher {
            core,
            meta: &mut meta,
        };
        let _ = ctx.reply(d, status, body);
    }

    /// True when `e` mutates cluster state and is therefore gated by a
    /// host claim (paper §3.5: secondary hosts must apply for control
    /// rights before driving a node).
    fn is_mutating(e: ExecFn) -> bool {
        !matches!(
            e,
            ExecFn::StatusGet | ExecFn::OutboundInit | ExecFn::HrtGet | ExecFn::LctNotify
        )
    }

    fn handle_exec_fn(&self, e: ExecFn, d: &Delivery) {
        let core = &self.core;
        // Control-rights check: once a host has claimed this executive
        // (UtilClaim on TiD 1), mutating commands from other initiators
        // are refused with Busy.
        if Self::is_mutating(e) {
            let claimed = core.exec_meta.lock().params.get("claimed_by").cloned();
            if let Some(owner) = claimed {
                if owner != d.header.initiator.raw().to_string() {
                    self.exec_reply(d, ReplyStatus::Busy, b"claimed by another host");
                    return;
                }
            }
        }
        match e {
            ExecFn::StatusGet => {
                let s = core.snapshot();
                let body = kv(&[
                    ("node", core.node_name()),
                    ("devices", &core.registry.len().to_string()),
                    ("queued", &core.queued().to_string()),
                    ("dispatched", &s.dispatched.to_string()),
                    ("sent_local", &s.sent_local.to_string()),
                    ("sent_peer", &s.sent_peer.to_string()),
                    ("forwarded", &s.forwarded.to_string()),
                    ("broadcasts", &s.broadcasts.to_string()),
                    ("dropped", &s.dropped.to_string()),
                    ("exec_msgs", &s.exec_msgs.to_string()),
                    ("util_msgs", &s.util_msgs.to_string()),
                    ("timers_fired", &s.timers_fired.to_string()),
                    ("watchdog_trips", &s.watchdog_trips.to_string()),
                    ("faults", &s.faults.to_string()),
                    (
                        "uptime_ns",
                        &core.started_at.elapsed().as_nanos().to_string(),
                    ),
                    ("allocator", core.alloc.scheme()),
                ]);
                self.exec_reply(d, ReplyStatus::Success, &body);
            }
            ExecFn::OutboundInit => {
                self.exec_reply(d, ReplyStatus::Success, b"ack=1\n");
            }
            ExecFn::SysEnable => {
                self.enable_all();
                self.exec_reply(d, ReplyStatus::Success, &[]);
            }
            ExecFn::SysQuiesce => {
                self.quiesce_all();
                self.exec_reply(d, ReplyStatus::Success, &[]);
            }
            ExecFn::IopClear => {
                let mut purged = 0;
                for tid in core.registry.tids() {
                    purged += core.purge_tid(tid);
                }
                let body = format!("purged={purged}\n");
                self.exec_reply(d, ReplyStatus::Success, body.as_bytes());
            }
            ExecFn::IopReset => {
                core.registry
                    .for_each_meta(|m| m.state = DeviceState::Initialized);
                for tid in core.registry.tids() {
                    core.purge_tid(tid);
                    core.timers.cancel_owned(tid);
                }
                self.exec_reply(d, ReplyStatus::Success, &[]);
            }
            ExecFn::DdmDestroy => match self.control_tid(d) {
                Ok(tid) => match self.destroy(tid) {
                    Ok(()) => self.exec_reply(d, ReplyStatus::Success, &[]),
                    Err(_) => self.exec_reply(d, ReplyStatus::UnknownTarget, &[]),
                },
                Err(e) => self.exec_reply(d, ReplyStatus::BadFrame, e.to_string().as_bytes()),
            },
            ExecFn::SwDownload => match parse_kv(d.payload()) {
                Ok(map) => {
                    let factory = map.get("factory").cloned().unwrap_or_default();
                    let name = map.get("name").cloned().unwrap_or_default();
                    let params: HashMap<String, String> = map
                        .iter()
                        .filter_map(|(k, v)| {
                            k.strip_prefix("param.").map(|p| (p.to_string(), v.clone()))
                        })
                        .collect();
                    match self.load_module(&factory, &name, params) {
                        Ok(tid) => {
                            let body = format!("tid={}\n", tid.raw());
                            self.exec_reply(d, ReplyStatus::Success, body.as_bytes());
                        }
                        Err(err) => {
                            self.exec_reply(d, ReplyStatus::DeviceError, err.to_string().as_bytes())
                        }
                    }
                }
                Err(e) => self.exec_reply(d, ReplyStatus::BadFrame, e.as_bytes()),
            },
            ExecFn::IopConnect => match parse_kv(d.payload()) {
                Ok(map) => {
                    let peer = map.get("peer").cloned().unwrap_or_default();
                    let remote: u16 = map
                        .get("remote_tid")
                        .and_then(|s| s.parse().ok())
                        .unwrap_or(0);
                    match Tid::new(remote) {
                        Ok(rt) if rt.is_addressable() => {
                            let alias = map.get("alias").map(|s| s.as_str());
                            match self.proxy(&peer, rt, alias) {
                                Ok(tid) => {
                                    // `supervise=1` puts the new link
                                    // under heartbeat supervision in
                                    // the same round trip — the way a
                                    // control plane wires managed
                                    // peers.
                                    if map.get("supervise").map(String::as_str) == Some("1") {
                                        if let Err(err) = self.supervise(&peer) {
                                            self.exec_reply(
                                                d,
                                                ReplyStatus::DeviceError,
                                                err.to_string().as_bytes(),
                                            );
                                            return;
                                        }
                                    }
                                    let body = format!("tid={}\n", tid.raw());
                                    self.exec_reply(d, ReplyStatus::Success, body.as_bytes());
                                }
                                Err(err) => self.exec_reply(
                                    d,
                                    ReplyStatus::DeviceError,
                                    err.to_string().as_bytes(),
                                ),
                            }
                        }
                        _ => self.exec_reply(d, ReplyStatus::BadFrame, b"bad remote_tid"),
                    }
                }
                Err(e) => self.exec_reply(d, ReplyStatus::BadFrame, e.as_bytes()),
            },
            ExecFn::SysTabSet => match parse_kv(d.payload()) {
                Ok(map) => {
                    let mut body = String::new();
                    let mut ok = true;
                    for (k, v) in &map {
                        let Some(n) = k.strip_prefix("route.") else {
                            continue;
                        };
                        let Some((peer, tid_s)) = v.split_once('|') else {
                            ok = false;
                            continue;
                        };
                        let rt = tid_s.parse::<u16>().ok().and_then(|t| Tid::new(t).ok());
                        match rt {
                            Some(rt) => match self.proxy(peer, rt, None) {
                                Ok(tid) => {
                                    body.push_str(&format!("tid.{n}={}\n", tid.raw()));
                                }
                                Err(_) => ok = false,
                            },
                            None => ok = false,
                        }
                    }
                    let status = if ok {
                        ReplyStatus::Success
                    } else {
                        ReplyStatus::DeviceError
                    };
                    self.exec_reply(d, status, body.as_bytes());
                }
                Err(e) => self.exec_reply(d, ReplyStatus::BadFrame, e.as_bytes()),
            },
            ExecFn::HrtGet => {
                let ps = core.alloc.stats();
                let body = kv(&[
                    ("allocator", core.alloc.scheme()),
                    ("allocs", &ps.allocs.to_string()),
                    ("hits", &ps.hits.to_string()),
                    ("misses", &ps.misses.to_string()),
                    ("live_blocks", &ps.live_blocks.to_string()),
                    ("bytes_created", &ps.bytes_created.to_string()),
                ]);
                self.exec_reply(d, ReplyStatus::Success, &body);
            }
            ExecFn::LctNotify => {
                let mut body = String::new();
                for (i, row) in core.registry.lct().iter().enumerate() {
                    body.push_str(&format!(
                        "dev.{i}={}|{}|{}|{:?}\n",
                        row.tid.raw(),
                        row.name,
                        row.class,
                        row.state
                    ));
                }
                self.exec_reply(d, ReplyStatus::Success, body.as_bytes());
            }
            ExecFn::PathQuiesce | ExecFn::PathEnable => match self.control_tid(d) {
                Ok(tid) => {
                    let want = if e == ExecFn::PathEnable {
                        DeviceState::Enabled
                    } else {
                        DeviceState::Quiesced
                    };
                    let mut done = false;
                    core.registry.for_each_meta(|m| {
                        if m.tid == tid && m.state.can_transition(want) {
                            m.state = want;
                            done = true;
                        }
                    });
                    let status = if done {
                        ReplyStatus::Success
                    } else {
                        ReplyStatus::DeviceError
                    };
                    self.exec_reply(d, status, &[]);
                }
                Err(err) => self.exec_reply(d, ReplyStatus::BadFrame, err.to_string().as_bytes()),
            },
        }
    }

    /// Parses the `tid=<raw>` control payload.
    fn control_tid(&self, d: &Delivery) -> Result<Tid, ExecError> {
        let map = parse_kv(d.payload()).map_err(ExecError::BadControl)?;
        let raw: u16 = map
            .get("tid")
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| ExecError::BadControl("missing tid".into()))?;
        Tid::new(raw).map_err(ExecError::Tid)
    }

    /// Sends an error reply when the request asked for one.
    fn error_reply(&self, d: &Delivery, status: ReplyStatus) {
        if !d.header.flags.contains(MsgFlags::REPLY_EXPECTED)
            || d.header.flags.contains(MsgFlags::IS_REPLY)
        {
            return;
        }
        self.exec_reply(d, status, &[]);
    }

    /// One supervision period: probe every supervised peer with an
    /// `HbPing` utility frame and react to state transitions. Pings
    /// bypass the route table — a Down peer keeps being probed so its
    /// eventual pong can revive the link.
    fn heartbeat_tick(&self) {
        let core = &self.core;
        let Some(sup) = &core.supervisor else { return };
        // Transports can detect peer death out-of-band (a shm region's
        // epoch bumps when the peer process dies); fold those into the
        // supervisor ahead of the miss-accounting ramp.
        for peer in core.pta.take_down_peers() {
            if sup.force_down(&peer).is_some() {
                self.on_peer_down(&peer);
            }
        }
        let outcome = sup.tick();
        for (peer, seq) in outcome.pings {
            core.mon.hb_pings.inc();
            let msg = Message::util(Tid::EXECUTIVE, Tid::EXECUTIVE, UtilFn::HbPing)
                .priority(Priority::MAX)
                .payload(seq.to_le_bytes().to_vec())
                .finish();
            if let Ok(d) = Delivery::from_message(&msg, core.allocator()) {
                let _ = core.pta.send(&peer, d.into_buf());
            }
        }
        for (peer, state) in outcome.transitions {
            match state {
                LinkState::Suspect => core.mon.peer_suspect.inc(),
                LinkState::Down => self.on_peer_down(&peer),
                LinkState::Up => {}
            }
        }
    }

    /// A supervised link went Down: evict its routes (promoting
    /// alternates where they exist), drop the dead proxy index entries
    /// and notify the fault listener.
    fn on_peer_down(&self, peer: &PeerAddr) {
        let core = &self.core;
        core.mon.peer_down.inc();
        // Credit lanes die with the link: sender credit is forgotten
        // (the lane re-opens unmetered on the next grant) and the
        // receiver epoch bumps so stale in-flight grants from the old
        // incarnation can never be adopted.
        if let Some(mgr) = &core.flow {
            mgr.on_link_down(peer);
        }
        let ev = core.routes.evict_peer(peer);
        for tid in &ev.evicted {
            core.purge_tid(*tid);
            core.registry.remove(*tid);
            let _ = core.tids.lock().free(*tid);
        }
        let listener = *core.fault_listener.lock();
        if let Some(dest) = listener {
            let body = kv(&[
                ("peer", &peer.to_string()),
                ("evicted", &ev.evicted.len().to_string()),
                ("promoted", &ev.promoted.len().to_string()),
            ]);
            let msg = Message::build_private(dest, Tid::EXECUTIVE, ORG_XDAQ, xfn::XFN_PEER_DOWN)
                .priority(Priority::MAX)
                .payload(body)
                .finish();
            let _ = self.post(msg);
        }
    }

    /// Notifies the registered fault listener about a watchdog trip.
    fn notify_fault(&self, tid: Tid, elapsed: Duration) {
        let listener = *self.core.fault_listener.lock();
        let Some(dest) = listener else { return };
        let body = kv(&[
            ("tid", &tid.raw().to_string()),
            ("elapsed_ns", &elapsed.as_nanos().to_string()),
        ]);
        let msg = Message::build_private(dest, Tid::EXECUTIVE, ORG_XDAQ, xfn::XFN_WATCHDOG)
            .priority(Priority::MAX)
            .payload(body)
            .finish();
        let _ = self.post(msg);
    }
}

/// Handle to a spawned executive thread. Stops and joins on drop.
pub struct ExecutiveHandle {
    exec: Executive,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl ExecutiveHandle {
    /// The executive being driven.
    pub fn executive(&self) -> &Executive {
        &self.exec
    }

    /// Stops the loop and joins the thread.
    pub fn shutdown(mut self) {
        self.stop_join();
    }

    fn stop_join(&mut self) {
        self.exec.stop();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for ExecutiveHandle {
    fn drop(&mut self) {
        self.stop_join();
    }
}
