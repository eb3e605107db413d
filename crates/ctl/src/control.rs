//! The control host: a node that drives executives with I2O frames.
//!
//! A `ControlHost` is itself an XDAQ node — it runs its own executive
//! with a *host agent* device that sends executive-class requests and
//! correlates the replies by initiator context. Remote executives are
//! addressed through proxy TiDs exactly like any other device, so the
//! same host code controls an in-process test cluster over the
//! loopback PT and a LAN cluster over TCP.

use parking_lot::{Condvar, Mutex};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use xdaq_core::config::{kv, parse_kv};
use xdaq_core::{
    Delivery, Dispatcher, ExecError, Executive, ExecutiveConfig, ExecutiveHandle, I2oListener,
};
use xdaq_i2o::{DeviceClass, ExecFn, Message, Priority, ReplyStatus, Tid, UtilFn};

/// Errors from host operations.
#[derive(Debug)]
pub enum ControlError {
    /// The executive rejected or could not route the request.
    Exec(ExecError),
    /// No reply arrived within the timeout.
    Timeout {
        /// Initiator context of the unanswered request.
        context: u32,
    },
    /// The node replied with a non-success status.
    Failed {
        /// Status byte of the reply.
        status: ReplyStatus,
        /// Reply payload as text.
        body: String,
    },
    /// Reply payload was not parseable as key=value.
    BadReply(String),
}

impl std::fmt::Display for ControlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ControlError::Exec(e) => write!(f, "control send failed: {e}"),
            ControlError::Timeout { context } => {
                write!(f, "no reply for request context {context}")
            }
            ControlError::Failed { status, body } => {
                write!(f, "node replied {status:?}: {body}")
            }
            ControlError::BadReply(s) => write!(f, "malformed reply: {s}"),
        }
    }
}

impl std::error::Error for ControlError {}

impl From<ExecError> for ControlError {
    fn from(e: ExecError) -> ControlError {
        ControlError::Exec(e)
    }
}

/// A collected reply.
#[derive(Debug, Clone)]
pub struct ControlReply {
    /// Status byte.
    pub status: ReplyStatus,
    /// Body after the status byte.
    pub body: Vec<u8>,
}

impl ControlReply {
    /// Parses the body as key=value lines.
    pub fn kv(&self) -> Result<HashMap<String, String>, ControlError> {
        parse_kv(&self.body).map_err(ControlError::BadReply)
    }

    /// Body as UTF-8 (lossy).
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }

    /// Converts non-success statuses into errors.
    pub fn ok(self) -> Result<ControlReply, ControlError> {
        if self.status.is_ok() {
            Ok(self)
        } else {
            let body = self.text();
            Err(ControlError::Failed {
                status: self.status,
                body,
            })
        }
    }
}

#[derive(Default)]
struct ReplyHub {
    replies: Mutex<HashMap<u32, ControlReply>>,
    events: Mutex<Vec<(u16, Vec<u8>)>>,
    cv: Condvar,
}

/// The host agent device: collects replies and asynchronous events.
struct HostAgent {
    hub: Arc<ReplyHub>,
}

impl I2oListener for HostAgent {
    fn class(&self) -> DeviceClass {
        DeviceClass::HostAgent
    }

    fn on_private(&mut self, _ctx: &mut Dispatcher<'_>, msg: Delivery) {
        // Asynchronous notifications (watchdog, faults) and private
        // replies land here.
        if let Some((status, body)) = msg.reply_status() {
            let mut replies = self.hub.replies.lock();
            replies.insert(
                msg.header.initiator_context,
                ControlReply {
                    status,
                    body: body.to_vec(),
                },
            );
            self.hub.cv.notify_all();
        } else if let Some(p) = msg.private {
            self.hub
                .events
                .lock()
                .push((p.x_function, msg.payload().to_vec()));
        }
    }

    fn on_reply(&mut self, _ctx: &mut Dispatcher<'_>, msg: Delivery) {
        let payload = msg.payload();
        let (status, body) = if payload.is_empty() {
            (ReplyStatus::Success, &payload[..0])
        } else {
            (ReplyStatus::from_u8(payload[0]), &payload[1..])
        };
        let mut replies = self.hub.replies.lock();
        replies.insert(
            msg.header.initiator_context,
            ControlReply {
                status,
                body: body.to_vec(),
            },
        );
        self.hub.cv.notify_all();
    }
}

/// How long [`ControlHost`] waits for the reply to one request.
const REPLY_TIMEOUT: Duration = Duration::from_secs(5);

/// A cluster control point (primary or secondary host).
pub struct ControlHost {
    exec: Executive,
    agent_tid: Tid,
    hub: Arc<ReplyHub>,
    seq: AtomicU32,
    handle: Mutex<Option<ExecutiveHandle>>,
}

impl ControlHost {
    /// Builds a host node named `name` (its own executive, not yet
    /// running — register PTs first, then call [`ControlHost::start`]).
    pub fn new(name: &str) -> ControlHost {
        ControlHost::with_config(ExecutiveConfig::named(name))
    }

    /// Builds a host node from a full [`ExecutiveConfig`] — a control
    /// plane wants supervision (and possibly flow control) on the
    /// host's own links so managed-node deaths surface as faults here.
    pub fn with_config(config: ExecutiveConfig) -> ControlHost {
        let exec = Executive::new(config);
        let hub = Arc::new(ReplyHub::default());
        let agent_tid = exec
            .register("host-agent", Box::new(HostAgent { hub: hub.clone() }), &[])
            .expect("fresh executive accepts the agent");
        exec.enable_all();
        ControlHost {
            exec,
            agent_tid,
            hub,
            seq: AtomicU32::new(1),
            handle: Mutex::new(None),
        }
    }

    /// Routes this host's own `XFN_PEER_DOWN` faults (from supervised
    /// links) to the host agent, where [`ControlHost::take_events`]
    /// surfaces them. Requires supervision in the host's config.
    pub fn watch_local_faults(&self) {
        self.exec.watch_faults(self.agent_tid);
    }

    /// The host's own executive (to register PTs / local modules).
    pub fn executive(&self) -> &Executive {
        &self.exec
    }

    /// The agent device's TiD (initiator of all control frames).
    pub fn agent_tid(&self) -> Tid {
        self.agent_tid
    }

    /// Starts the host's dispatch loop.
    pub fn start(&self) {
        let mut h = self.handle.lock();
        if h.is_none() {
            *h = Some(self.exec.spawn());
        }
    }

    /// Stops the host's dispatch loop.
    pub fn stop(&self) {
        if let Some(h) = self.handle.lock().take() {
            h.shutdown();
        }
    }

    /// Creates a proxy TiD addressing the **executive** (TiD 1) of the
    /// node at `peer_url`.
    pub fn connect_node(&self, peer_url: &str, alias: Option<&str>) -> Result<Tid, ControlError> {
        Ok(self.exec.proxy(peer_url, Tid::EXECUTIVE, alias)?)
    }

    /// Creates a proxy TiD for an arbitrary remote device.
    pub fn device_proxy(&self, peer_url: &str, remote_tid: Tid) -> Result<Tid, ControlError> {
        Ok(self.exec.proxy(peer_url, remote_tid, None)?)
    }

    fn wait_reply(&self, context: u32) -> Result<ControlReply, ControlError> {
        let deadline = Instant::now() + REPLY_TIMEOUT;
        let mut replies = self.hub.replies.lock();
        loop {
            if let Some(r) = replies.remove(&context) {
                return Ok(r);
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(ControlError::Timeout { context });
            }
            self.hub.cv.wait_for(&mut replies, deadline - now);
        }
    }

    /// Sends an executive-class request and waits for the reply.
    pub fn request_exec(
        &self,
        dest: Tid,
        f: ExecFn,
        payload: Vec<u8>,
    ) -> Result<ControlReply, ControlError> {
        let context = self.seq.fetch_add(1, Ordering::Relaxed);
        let msg = Message::exec(dest, self.agent_tid, f)
            .priority(Priority::MAX)
            .control()
            .expect_reply()
            .context(context)
            .payload(payload)
            .finish();
        self.exec.post(msg)?;
        self.wait_reply(context)
    }

    /// Sends a utility-class request and waits for the reply.
    pub fn request_util(
        &self,
        dest: Tid,
        f: UtilFn,
        payload: Vec<u8>,
    ) -> Result<ControlReply, ControlError> {
        let context = self.seq.fetch_add(1, Ordering::Relaxed);
        let msg = Message::util(dest, self.agent_tid, f)
            .priority(Priority::MAX)
            .control()
            .expect_reply()
            .context(context)
            .payload(payload)
            .finish();
        self.exec.post(msg)?;
        self.wait_reply(context)
    }

    // ------------------------------------------------------------------
    // Convenience verbs (the xcl command set maps onto these)
    // ------------------------------------------------------------------

    /// `ExecStatusGet` as a parsed map.
    pub fn status(&self, node: Tid) -> Result<HashMap<String, String>, ControlError> {
        self.request_exec(node, ExecFn::StatusGet, Vec::new())?
            .ok()?
            .kv()
    }

    /// Enables every device on the node.
    pub fn enable(&self, node: Tid) -> Result<(), ControlError> {
        self.request_exec(node, ExecFn::SysEnable, Vec::new())?
            .ok()
            .map(|_| ())
    }

    /// Quiesces every device on the node.
    pub fn quiesce(&self, node: Tid) -> Result<(), ControlError> {
        self.request_exec(node, ExecFn::SysQuiesce, Vec::new())?
            .ok()
            .map(|_| ())
    }

    /// Resets the node (all devices back to Initialized).
    pub fn reset(&self, node: Tid) -> Result<(), ControlError> {
        self.request_exec(node, ExecFn::IopReset, Vec::new())?
            .ok()
            .map(|_| ())
    }

    /// Purges queued messages on the node.
    pub fn clear(&self, node: Tid) -> Result<(), ControlError> {
        self.request_exec(node, ExecFn::IopClear, Vec::new())?
            .ok()
            .map(|_| ())
    }

    /// Loads a module instance on the node; returns its remote TiD.
    pub fn load(
        &self,
        node: Tid,
        factory: &str,
        instance: &str,
        params: &[(&str, &str)],
    ) -> Result<Tid, ControlError> {
        let mut pairs = vec![("factory", factory), ("name", instance)];
        let prefixed: Vec<(String, &str)> = params
            .iter()
            .map(|(k, v)| (format!("param.{k}"), *v))
            .collect();
        for (k, v) in &prefixed {
            pairs.push((k.as_str(), *v));
        }
        let reply = self
            .request_exec(node, ExecFn::SwDownload, kv(&pairs))?
            .ok()?;
        let map = reply.kv()?;
        let raw: u16 = map
            .get("tid")
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| ControlError::BadReply(reply.text()))?;
        Tid::new(raw).map_err(|e| ControlError::BadReply(e.to_string()))
    }

    /// Destroys a device on the node.
    pub fn destroy(&self, node: Tid, device: Tid) -> Result<(), ControlError> {
        self.request_exec(
            node,
            ExecFn::DdmDestroy,
            kv(&[("tid", &device.raw().to_string())]),
        )?
        .ok()
        .map(|_| ())
    }

    /// Instructs `node` to create a proxy for a device on another node;
    /// returns the proxy TiD valid **on that node**.
    pub fn connect(
        &self,
        node: Tid,
        peer_url: &str,
        remote_tid: Tid,
        alias: Option<&str>,
    ) -> Result<Tid, ControlError> {
        let mut pairs = vec![
            ("peer".to_string(), peer_url.to_string()),
            ("remote_tid".to_string(), remote_tid.raw().to_string()),
        ];
        if let Some(a) = alias {
            pairs.push(("alias".to_string(), a.to_string()));
        }
        let pairs_ref: Vec<(&str, &str)> = pairs
            .iter()
            .map(|(k, v)| (k.as_str(), v.as_str()))
            .collect();
        let reply = self
            .request_exec(node, ExecFn::IopConnect, kv(&pairs_ref))?
            .ok()?;
        let map = reply.kv()?;
        let raw: u16 = map
            .get("tid")
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| ControlError::BadReply(reply.text()))?;
        Tid::new(raw).map_err(|e| ControlError::BadReply(e.to_string()))
    }

    /// The node's Logical Configuration Table, as reply text lines.
    pub fn lct(&self, node: Tid) -> Result<String, ControlError> {
        Ok(self
            .request_exec(node, ExecFn::LctNotify, Vec::new())?
            .ok()?
            .text())
    }

    /// Claims control rights on the node (primary/secondary host
    /// arbitration).
    pub fn claim(&self, node: Tid) -> Result<(), ControlError> {
        self.request_util(node, UtilFn::Claim, Vec::new())?
            .ok()
            .map(|_| ())
    }

    /// Releases a claim.
    pub fn release(&self, node: Tid) -> Result<(), ControlError> {
        self.request_util(node, UtilFn::ClaimRelease, Vec::new())?
            .ok()
            .map(|_| ())
    }

    /// Sets parameters on a (possibly remote, via proxy) device.
    pub fn params_set(&self, device: Tid, params: &[(&str, &str)]) -> Result<(), ControlError> {
        self.request_util(device, UtilFn::ParamsSet, kv(params))?
            .ok()
            .map(|_| ())
    }

    /// Reads parameters from a device.
    pub fn params_get(&self, device: Tid) -> Result<HashMap<String, String>, ControlError> {
        self.request_util(device, UtilFn::ParamsGet, Vec::new())?
            .ok()?
            .kv()
    }

    /// Registers this host for asynchronous fault events from a node.
    pub fn watch_events(&self, node: Tid) -> Result<(), ControlError> {
        self.request_util(node, UtilFn::EventRegister, Vec::new())?
            .ok()
            .map(|_| ())
    }

    /// Scrapes the node's monitoring snapshot (`UtilMonSnapshot`): one
    /// JSON document with registry metrics, per-priority queue gauges,
    /// pool accounting, per-transport counters and tracer state.
    pub fn scrape(&self, node: Tid) -> Result<serde_json::Value, ControlError> {
        let reply = self
            .request_util(node, UtilFn::MonSnapshot, Vec::new())?
            .ok()?;
        serde_json::from_str(&reply.text())
            .map_err(|e| ControlError::BadReply(format!("bad snapshot JSON: {}", e.message)))
    }

    /// Zeroes the node's monitoring state (`UtilMonReset`): registry
    /// metrics, trace ring and PT counters.
    pub fn mon_reset(&self, node: Tid) -> Result<(), ControlError> {
        self.request_util(node, UtilFn::MonReset, Vec::new())?
            .ok()
            .map(|_| ())
    }

    /// Enables or disables the node's frame-lifecycle tracer and
    /// returns the current trace ring (`UtilMonTraceDump`).
    pub fn trace_set(&self, node: Tid, enable: bool) -> Result<serde_json::Value, ControlError> {
        let reply = self
            .request_util(node, UtilFn::MonTraceDump, vec![u8::from(enable)])?
            .ok()?;
        serde_json::from_str(&reply.text())
            .map_err(|e| ControlError::BadReply(format!("bad trace JSON: {}", e.message)))
    }

    /// Dumps the node's trace ring without toggling the tracer.
    pub fn trace_dump(&self, node: Tid) -> Result<serde_json::Value, ControlError> {
        let reply = self
            .request_util(node, UtilFn::MonTraceDump, Vec::new())?
            .ok()?;
        serde_json::from_str(&reply.text())
            .map_err(|e| ControlError::BadReply(format!("bad trace JSON: {}", e.message)))
    }

    /// Drains collected asynchronous events `(x_function, payload)`.
    pub fn take_events(&self) -> Vec<(u16, Vec<u8>)> {
        std::mem::take(&mut self.hub.events.lock())
    }
}

impl Drop for ControlHost {
    fn drop(&mut self) {
        self.stop();
    }
}
