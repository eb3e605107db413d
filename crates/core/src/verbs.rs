//! The verbs the executive answers itself: the default utility
//! procedures every device inherits (paper §3.2: "The system can
//! provide default procedures if for a given event no code is
//! supplied") and the executive-class messages addressed to TiD 1 —
//! the management surface a primary host drives.
//!
//! Control rights (paper §3.5): once a host has claimed a device with
//! `UtilClaim`, every mutating verb from another initiator is refused
//! with `Busy` — the executive-class verbs other than `StatusGet` and
//! `LctNotify`, `ParamsSet`, and `ClaimRelease` itself.

use crate::config::{encode_kv, kv, parse_kv};
use crate::error::ExecError;
use crate::executive::Executive;
use crate::listener::{Delivery, Dispatcher, I2oListener, UtilOutcome};
use crate::pta::PeerTransport;
use crate::registry::DeviceMeta;
use crate::route::Route;
use crate::supervisor;
use std::collections::HashMap;
use std::sync::Arc;
use xdaq_i2o::{
    DeviceClass, DeviceState, ExecFn, FunctionCode, MsgFlags, ReplyStatus, Tid, UtilFn,
};

/// True when `meta` is claimed by a host other than `d`'s initiator.
fn claimed_by_other(meta: &DeviceMeta, d: &Delivery) -> bool {
    meta.params
        .get("claimed_by")
        .is_some_and(|owner| *owner != d.header.initiator.raw().to_string())
}

/// True when `e` mutates cluster state and is therefore gated by a
/// host claim.
fn is_mutating(e: ExecFn) -> bool {
    !matches!(e, ExecFn::StatusGet | ExecFn::LctNotify)
}

/// Parses the `tid=<raw>` control payload.
fn control_tid(d: &Delivery) -> Result<Tid, ExecError> {
    let map = parse_kv(d.payload()).map_err(ExecError::BadControl)?;
    let raw: u16 = map
        .get("tid")
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| ExecError::BadControl("missing tid".into()))?;
    Tid::new(raw).map_err(ExecError::Tid)
}

/// The device a registered peer transport is: it consumes no private
/// frames (data-plane traffic flows through the PTA send/poll hooks)
/// and forwards `ParamsSet` to the transport, so runtime knobs (fault
/// plans, tunables) reach it over I2O.
pub(crate) struct PtDdm {
    pub(crate) scheme: &'static str,
    pub(crate) pt: Arc<dyn PeerTransport>,
}

impl I2oListener for PtDdm {
    fn class(&self) -> DeviceClass {
        DeviceClass::PeerTransport
    }

    fn on_private(&mut self, _ctx: &mut Dispatcher<'_>, _msg: Delivery) {}

    fn plugged(&mut self, ctx: &mut Dispatcher<'_>) {
        ctx.set_param("scheme", self.scheme);
    }

    fn on_util(&mut self, ctx: &mut Dispatcher<'_>, f: UtilFn, msg: &Delivery) -> UtilOutcome {
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

impl Executive {
    /// One utility verb to the device `meta` describes (`listener` is
    /// absent for TiD 1). The claim gate runs first, so a device that
    /// answers `ParamsSet` itself (a transport's device, the event
    /// manager's control verbs, the Recorder) is gated like any other;
    /// then the listener, then the default procedure it left the frame
    /// to.
    pub(crate) fn util(
        &self,
        meta: &mut DeviceMeta,
        listener: Option<&mut dyn I2oListener>,
        f: UtilFn,
        d: &Delivery,
    ) {
        let core = &**self.core();
        let mut ctx = Dispatcher { core, meta };
        if matches!(f, UtilFn::ParamsSet | UtilFn::ClaimRelease) && claimed_by_other(ctx.meta, d) {
            let _ = ctx.reply(d, ReplyStatus::Busy, b"claimed by another host");
            return;
        }
        if let Some(listener) = listener {
            if listener.on_util(&mut ctx, f, d) == UtilOutcome::Handled {
                return;
            }
        }
        self.default_util(&mut ctx, f, d);
    }

    /// The executive's default utility procedures.
    fn default_util(&self, ctx: &mut Dispatcher<'_>, f: UtilFn, d: &Delivery) {
        let core = ctx.core;
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
                    // The executive once read `flow.*` (link credits)
                    // and `qos.*` (tenant admission); both are gone
                    // (DESIGN.md §13). A stale key rejects the whole
                    // frame before anything is stored, rather than
                    // sitting inert in the parameters.
                    if ctx.meta.tid == Tid::EXECUTIVE {
                        if let Some(k) = map
                            .keys()
                            .find(|k| k.starts_with("flow.") || k.starts_with("qos."))
                        {
                            let body =
                                format!("{k}: link flow control and tenant admission were removed");
                            let _ = ctx.reply(d, ReplyStatus::BadFrame, body.as_bytes());
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
                core.set_fault_listener(d.header.initiator);
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
                let pong = supervisor::pong_frame(d, ctx.meta.tid);
                let _ = ctx.send(pong);
            }
            UtilFn::HbPong => {
                core.mon.hb_pongs.inc();
                // The pong arrives with a proxied initiator; the route
                // for that proxy names the peer the pong came from.
                if let Some(Route::Peer(via)) = core.routes.resolve(d.header.initiator) {
                    if let Some(sup) = &core.supervisor {
                        let _ = sup.on_pong(&via.peer, supervisor::frame_seq(d));
                    }
                }
            }
        }
    }

    /// Executive-class messages addressed to TiD 1.
    pub(crate) fn handle_executive(&self, d: Delivery) {
        let core = self.core();
        core.mon.exec_msgs.inc();
        // Replies to executive-originated requests terminate here —
        // never interpret a reply as a command (loop protection).
        if d.header.flags.contains(MsgFlags::IS_REPLY) {
            return;
        }
        match d.header.function_code() {
            FunctionCode::Util(f) => {
                core.mon.util_msgs.inc();
                let mut meta = core.exec_meta.lock().clone();
                self.util(&mut meta, None, f, &d);
                *core.exec_meta.lock() = meta;
            }
            FunctionCode::Exec(e) => self.handle_exec_fn(e, &d),
            _ => self.exec_reply(&d, ReplyStatus::UnsupportedFunction, &[]),
        }
    }

    fn exec_reply(&self, d: &Delivery, status: ReplyStatus, body: &[u8]) {
        let core = &**self.core();
        let mut meta = core.exec_meta.lock().clone();
        let mut ctx = Dispatcher {
            core,
            meta: &mut meta,
        };
        let _ = ctx.reply(d, status, body);
    }

    /// Sends an error reply when the request asked for one.
    pub(crate) fn error_reply(&self, d: &Delivery, status: ReplyStatus) {
        if !d.header.flags.contains(MsgFlags::REPLY_EXPECTED)
            || d.header.flags.contains(MsgFlags::IS_REPLY)
        {
            return;
        }
        self.exec_reply(d, status, &[]);
    }

    fn handle_exec_fn(&self, e: ExecFn, d: &Delivery) {
        let core = self.core();
        if is_mutating(e) && claimed_by_other(&core.exec_meta.lock(), d) {
            self.exec_reply(d, ReplyStatus::Busy, b"claimed by another host");
            return;
        }
        match e {
            ExecFn::StatusGet => {
                // Every `exec.*` counter, under its name without the
                // prefix.
                let metrics = core.mon.registry().snapshot();
                let counters: Vec<(&str, String)> = metrics["counters"]
                    .as_object()
                    .into_iter()
                    .flatten()
                    .filter_map(|(k, v)| Some((k.strip_prefix("exec.")?, v.to_string())))
                    .collect();
                let devices = core.registry.len().to_string();
                let queued = core.queued().to_string();
                let uptime = core.uptime_ns().to_string();
                let mut pairs = vec![
                    ("node", core.node_name()),
                    ("devices", &devices),
                    ("queued", &queued),
                ];
                pairs.extend(counters.iter().map(|(k, v)| (*k, v.as_str())));
                pairs.push(("uptime_ns", &uptime));
                pairs.push(("allocator", core.alloc.scheme()));
                self.exec_reply(d, ReplyStatus::Success, &kv(&pairs));
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
            ExecFn::DdmDestroy => match control_tid(d) {
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
                Ok(map) => self.iop_connect(d, &map),
                Err(e) => self.exec_reply(d, ReplyStatus::BadFrame, e.as_bytes()),
            },
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
            ExecFn::PathQuiesce | ExecFn::PathEnable => match control_tid(d) {
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
            // Defined by I2O, sent by nothing here: the §3.2 default.
            ExecFn::OutboundInit | ExecFn::HrtGet | ExecFn::SysTabSet => {
                self.exec_reply(d, ReplyStatus::UnsupportedFunction, &[]);
            }
        }
    }

    /// `IopConnect`: creates the proxy for `remote_tid` on `peer`
    /// (optionally aliased) and, with `supervise=1`, puts the link
    /// under heartbeat supervision in the same round trip — the way a
    /// control plane wires managed peers.
    fn iop_connect(&self, d: &Delivery, map: &HashMap<String, String>) {
        let peer = map.get("peer").cloned().unwrap_or_default();
        let remote: u16 = map
            .get("remote_tid")
            .and_then(|s| s.parse().ok())
            .unwrap_or(0);
        let rt = match Tid::new(remote) {
            Ok(rt) if rt.is_addressable() => rt,
            _ => return self.exec_reply(d, ReplyStatus::BadFrame, b"bad remote_tid"),
        };
        let alias = map.get("alias").map(|s| s.as_str());
        let connected = self.proxy(&peer, rt, alias).and_then(|tid| {
            if map.get("supervise").map(String::as_str) == Some("1") {
                self.supervise(&peer)?;
            }
            Ok(tid)
        });
        match connected {
            Ok(tid) => {
                let body = format!("tid={}\n", tid.raw());
                self.exec_reply(d, ReplyStatus::Success, body.as_bytes());
            }
            Err(err) => self.exec_reply(d, ReplyStatus::DeviceError, err.to_string().as_bytes()),
        }
    }
}
