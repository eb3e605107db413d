//! The executive: the per-node I2O kernel.
//!
//! One executive runs per node (IOP). It owns the memory pool, the
//! scheduling queue, the routing table, the Peer Transport Agent, the
//! timer wheel and the device registry, and it performs all message
//! dispatching on a single loop of control (paper §4). Applications,
//! peer transports and the executive itself are all I2O devices with
//! TiDs; control flows through executive-class messages, so a primary
//! host can drive a whole cluster of executives with frames alone.
//!
//! This file is the frame path: construction, registration, routing
//! and peer ingest, the dispatch loop, and peer-down and watchdog
//! notification. The verbs the executive answers itself live in
//! `verbs.rs`, the monitoring surface in `monitor.rs` and the
//! heartbeat frames in `supervisor.rs`.

use crate::clock::Clock;
use crate::config::{kv, AllocatorKind, ExecutiveConfig};
use crate::error::{ExecError, PtError};
use crate::listener::{Delivery, Dispatcher, I2oListener, TimerId};
use crate::monitor::ExecMonitors;
use crate::pta::{PeerAddr, PeerTransport, Pta};
use crate::queue::{Inbox, SchedQueue};
use crate::registry::{DeviceMeta, DeviceUnit, LctEntry, Registry};
use crate::route::{Route, RouteTable};
use crate::supervisor::{self, LinkState, LinkSupervisor};
use crate::timer::TimerWheel;
use crate::verbs::PtDdm;
use crate::xfn;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use xdaq_i2o::{
    DeviceClass, DeviceState, FunctionCode, Message, MsgFlags, MsgHeader, Priority, PrivateHeader,
    ReplyStatus, Tid, TidAllocator, UtilFn, ORG_XDAQ,
};
use xdaq_mempool::{FrameAllocator, FrameBuf, SimplePool, TablePool};
use xdaq_mon::TraceEvent;

/// Factory for runtime module loading (`ExecSwDownload`): given the
/// configured parameters, produce a listener instance.
pub type ModuleFactory =
    Box<dyn Fn(&HashMap<String, String>) -> Box<dyn I2oListener> + Send + Sync>;

/// Messages dispatched per loop iteration before PTs are polled again.
const DISPATCH_BATCH: usize = 16;
/// Spin iterations before the idle loop yields the CPU.
const IDLE_SPINS: u32 = 200;

/// Shared executive internals (everything the dispatch context and the
/// public wrapper need).
pub struct ExecCore {
    pub(crate) node: String,
    pub(crate) alloc: Arc<dyn FrameAllocator>,
    /// Frames task-mode transports handed over, ingested by the loop.
    inbox: Arc<Inbox>,
    queue: SchedQueue,
    pub(crate) routes: RouteTable,
    pub(crate) pta: Pta,
    pub(crate) timers: TimerWheel,
    pub(crate) registry: Registry,
    tids: Mutex<TidAllocator>,
    /// Serializes [`ExecCore::bind_routes`].
    binding: Mutex<()>,
    factories: Mutex<HashMap<String, ModuleFactory>>,
    pub(crate) mon: ExecMonitors,
    watchdog: Option<Duration>,
    pub(crate) supervisor: Option<LinkSupervisor>,
    fault_listener: Mutex<Option<Tid>>,
    running: AtomicBool,
    /// The executive's time source (DESIGN.md §16). Wall by default;
    /// simulations share one virtual clock across a whole cluster.
    clock: Clock,
    pub(crate) started_at: Instant,
    pub(crate) exec_meta: Mutex<DeviceMeta>,
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

    /// The Peer Transport Agent (the transport registry).
    pub fn pta(&self) -> &Pta {
        &self.pta
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

    /// Total pending messages: scheduled, and handed over by task-mode
    /// transports but not yet ingested.
    pub fn queued(&self) -> usize {
        self.queue.len() + self.inbox.len()
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
        let route = self.routes.resolve(d.header.target);
        self.route_via(d, route)
    }

    /// [`ExecCore::route`] with the target's route already resolved
    /// (ingest learns it in the same lookup that finds the sender's
    /// proxy).
    fn route_via(&self, d: Delivery, route: Option<Route>) -> Result<(), ExecError> {
        let target = d.header.target;
        if target.is_broadcast() {
            return self.broadcast(d);
        }
        if target == Tid::EXECUTIVE {
            self.enqueue(d);
            self.mon.sent_local.inc();
            return Ok(());
        }
        match route {
            Some(Route::Local) => {
                self.enqueue(d);
                self.mon.sent_local.inc();
                Ok(())
            }
            Some(Route::Peer(via)) => {
                let mut buf = d.into_buf();
                MsgHeader::patch_target(&mut buf, via.remote_tid);
                self.mon.tracer.record(
                    TraceEvent::PtSend,
                    via.remote_tid.raw() as u32,
                    buf.len() as u32,
                );
                let Some(pt) = via.transport() else {
                    return Err(PtError::Unreachable(via.peer.to_string()).into());
                };
                self.pta.send_via(pt, &via.peer, buf)?;
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

    /// Rebinds every peer route to the transports registered now. The
    /// lock orders concurrent rebinds, so the last one reads the
    /// agent's final state.
    fn bind_routes(&self) {
        let _order = self.binding.lock();
        self.routes.bind_transports(self.pta.transports());
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
        // One table read answers both questions: which local proxy
        // stands for the sender, and where the target leads.
        let (proxy, mut route) = self
            .routes
            .resolve_inbound(&src, header.initiator, header.target);
        if header.initiator.is_addressable() {
            let proxy = match proxy {
                Some(proxy) => proxy,
                // First frame from this device: make its proxy. The
                // new TiD may be the very one the frame targets.
                None => match self.proxy_for(src, header.initiator) {
                    Ok(proxy) => {
                        route = self.routes.resolve(header.target);
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
        if matches!(route, Some(Route::Peer(_))) {
            self.mon.forwarded.inc();
        }
        let _ = self.route_via(d, route);
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
        let core = Arc::new(ExecCore {
            node: config.node,
            alloc,
            inbox: Arc::default(),
            queue,
            routes: RouteTable::new(),
            pta: Pta::new(),
            timers: TimerWheel::with_clock(config.clock.clone()),
            registry: Registry::new(),
            tids: Mutex::new(TidAllocator::new()),
            binding: Mutex::new(()),
            factories: Mutex::new(HashMap::new()),
            mon,
            watchdog: config.watchdog,
            supervisor,
            fault_listener: Mutex::new(None),
            running: AtomicBool::new(true),
            clock: config.clock,
            started_at: Instant::now(),
            exec_meta: Mutex::new(exec_meta),
        });
        core.routes.add_local(Tid::EXECUTIVE);
        core.routes.add_local(Tid::PTA);
        core.pta.bind_registry(core.mon.registry());
        if let Some(sup) = &core.supervisor {
            // The heartbeat timer is owned by the PTA pseudo-device;
            // run_once intercepts it instead of synthesizing a frame.
            core.timers.register(Tid::PTA, sup.interval(), true);
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
        let tid = self.register(
            name,
            Box::new(PtDdm {
                scheme: pt.scheme(),
                pt: pt.clone(),
            }),
            &[],
        )?;
        self.core.pta.register(tid, pt);
        self.core.bind_routes();
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

    /// Whether [`ExecutiveConfig::supervision`] is set, so that
    /// [`Executive::supervise`] can succeed.
    pub fn has_supervision(&self) -> bool {
        self.core.supervisor.is_some()
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
        let states = self.core.supervisor.iter().flat_map(|s| s.states());
        states.map(|(p, st)| (p.to_string(), st)).collect()
    }

    /// Injects a message from outside the dispatch loop (host control,
    /// application threads, tests). The message is encoded into a
    /// pooled buffer and routed like any frameSend.
    pub fn post(&self, msg: Message) -> Result<(), ExecError> {
        let d = Delivery::from_message(&msg, self.core.allocator())?;
        self.core.route(d)
    }

    /// Hands a raw encoded frame to the executive as if it arrived from
    /// the wire of `src`, ingesting it on the caller's thread.
    pub fn ingest_from_peer(&self, buf: FrameBuf, src: PeerAddr) {
        self.core.ingest_from_peer(buf, src);
    }

    /// Starts all task-mode PTs. Their threads only queue each frame in
    /// the executive's inbox; the dispatch loop ingests it.
    pub fn start_transports(&self) -> Result<(), PtError> {
        let inbox = self.core.inbox.clone();
        self.core
            .pta
            .start_tasks(Arc::new(move |buf, src| inbox.push(buf, src)))
    }

    /// Destroys a device: unregisters, purges queues/timers/routes and
    /// frees its TiD.
    pub fn destroy(&self, tid: Tid) -> Result<(), ExecError> {
        let unit = self.core.registry.remove(tid);
        self.core.routes.remove(tid);
        self.core.purge_tid(tid);
        self.core.timers.cancel_owned(tid);
        if self.core.pta.unregister(tid) {
            self.core.bind_routes();
        }
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

    /// Services the control plane: timer wheel (including the
    /// `LinkSupervisor` heartbeat tick), the inbox of task-mode PTs and
    /// polling-mode PTs. Returns the number of work items performed.
    fn service_control(&self) -> usize {
        let core = &self.core;
        let mut work = 0usize;

        // Timers → XFN_TIMER frames through the normal queue. The
        // heartbeat timer is owned by the PTA pseudo-device and is
        // serviced directly instead of synthesizing a frame (no device
        // can own Tid::PTA). An empty heap has nothing to fire, so the
        // loop skips the wheel's lock and the clock read.
        if core.timers.heap_len() > 0 {
            work += core.timers.fire_due(core.clock.now(), |owner, id| {
                core.mon.timers_fired.inc();
                if owner == Tid::PTA {
                    self.heartbeat_tick();
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
        }

        // Frames task-mode PTs queued since the last pass, in arrival
        // order. An empty inbox costs one load.
        work += core.inbox.drain(|buf, src| core.ingest_from_peer(buf, src));

        // Polling-mode PTs (paper: executive periodically scans PTs).
        let polled = core
            .pta
            .poll_all(|buf, src| core.ingest_from_peer(buf, src));
        if polled > 0 {
            core.mon.polled_frames.add(polled as u64);
        }
        work + polled
    }

    /// One scheduler iteration: fire timers, ingest what task-mode PTs
    /// queued, poll polling-mode PTs, dispatch up to `DISPATCH_BATCH`
    /// messages. Returns the number of work items performed (0 ⇒
    /// idle).
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
        // Frames a transport queued after the last pass are dropped;
        // their blocks return to the pools.
        self.core.inbox.clear();
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
            if p.org_id == ORG_XDAQ && p.x_function == xfn::XFN_TIMER {
                if let Some(id) = d.payload().get(..8) {
                    let id = TimerId(u64::from_le_bytes(id.try_into().expect("8 bytes")));
                    let mut ctx = Dispatcher {
                        core,
                        meta: &mut unit.meta,
                    };
                    unit.listener.on_timer(&mut ctx, id);
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
        if !unit.meta.state.accepts_utility() {
            self.error_reply(&d, ReplyStatus::Busy);
            return;
        }
        self.util(&mut unit.meta, Some(&mut *unit.listener), f, &d);
    }

    /// One supervision period: probe every supervised peer with a
    /// heartbeat ping (`supervisor::ping_frame`) and react to state
    /// transitions.
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
            if let Ok(d) = Delivery::from_message(&supervisor::ping_frame(seq), core.allocator()) {
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

    /// A supervised link went Down: evict its routes, drop the dead
    /// proxy index entries and notify the fault listener.
    fn on_peer_down(&self, peer: &PeerAddr) {
        let core = &self.core;
        core.mon.peer_down.inc();
        let evicted = core.routes.evict_peer(peer);
        for tid in &evicted {
            core.purge_tid(*tid);
            core.registry.remove(*tid);
            let _ = core.tids.lock().free(*tid);
        }
        let body = kv(&[
            ("peer", &peer.to_string()),
            ("evicted", &evicted.len().to_string()),
        ]);
        self.notify_fault_listener(xfn::XFN_PEER_DOWN, body);
    }

    /// Notifies the registered fault listener about a watchdog trip.
    fn notify_fault(&self, tid: Tid, elapsed: Duration) {
        let body = kv(&[
            ("tid", &tid.raw().to_string()),
            ("elapsed_ns", &elapsed.as_nanos().to_string()),
        ]);
        self.notify_fault_listener(xfn::XFN_WATCHDOG, body);
    }

    /// Posts an `ORG_XDAQ` fault event to the registered fault
    /// listener, if there is one.
    fn notify_fault_listener(&self, x_function: u16, body: Vec<u8>) {
        let listener = *self.core.fault_listener.lock();
        let Some(dest) = listener else { return };
        let msg = Message::build_private(dest, Tid::EXECUTIVE, ORG_XDAQ, x_function)
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pta::{IngestSink, PtMode, SendFailure};

    /// A task-mode transport that lends the test the sink it was
    /// started with.
    #[derive(Default)]
    struct LentSink(Mutex<Option<IngestSink>>);

    impl PeerTransport for LentSink {
        fn scheme(&self) -> &'static str {
            "lent"
        }
        fn mode(&self) -> PtMode {
            PtMode::Task
        }
        fn send(&self, _dest: &PeerAddr, frame: FrameBuf) -> Result<(), SendFailure> {
            Err(SendFailure::with_frame(PtError::Closed, frame))
        }
        fn poll(&self) -> Option<(FrameBuf, PeerAddr)> {
            None
        }
        fn start(&self, sink: IngestSink) -> Result<(), PtError> {
            *self.0.lock() = Some(sink);
            Ok(())
        }
        fn stop(&self) {}
    }

    #[test]
    fn a_transport_thread_only_queues_and_the_loop_ingests() {
        let exec = Executive::new(ExecutiveConfig::named("n"));
        let pt = Arc::new(LentSink::default());
        exec.register_pt("pt", pt.clone()).unwrap();
        exec.start_transports().unwrap();
        let sink = pt.0.lock().clone().expect("started");
        let core = exec.core();
        // A new sender's first frame, to a TiD nothing here answers.
        let unknown = Tid::new(0x123).unwrap();
        let msg = Message::build_private(unknown, Tid::new(0x45).unwrap(), ORG_XDAQ, 1).finish();
        let frame = Delivery::from_message(&msg, core.allocator())
            .unwrap()
            .into_buf();
        let routes = core.routes.len();

        std::thread::scope(|s| {
            s.spawn(|| sink(frame, "lent://far".parse().unwrap()));
        });
        assert_eq!(core.queued(), 1, "the frame waits in the inbox");
        assert_eq!(core.routes.len(), routes, "no proxy before the loop runs");
        assert_eq!(core.mon.dropped.get(), 0, "no drop before the loop runs");

        assert_eq!(exec.run_once(), 1, "the drained frame is work");
        assert_eq!(core.routes.len(), routes + 1, "the sender's proxy");
        assert_eq!(core.mon.dropped.get(), 1, "the unknown target");
        assert_eq!(core.queued(), 0);
    }
}
