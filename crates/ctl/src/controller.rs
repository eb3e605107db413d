//! The convergence loop: make the cluster look like the declaration.
//!
//! The [`Controller`] owns a parsed [`Topology`], a
//! [`ServiceRegistry`], a [`Launcher`] and a [`ControlHost`], and
//! closes the loop between them:
//!
//! * **apply** — spawn every managed node that is not running, wait
//!   for its generation-stamped url file, attach (executive proxy +
//!   host-side link supervision), download the declared module instances
//!   (`ExecSwDownload`), wire the declared routes
//!   (`ExecIopConnect`, optionally supervised), and `SysEnable`.
//! * **poll** — a background tick drains the host's fault feed
//!   (`XFN_PEER_DOWN` → [`Health::Degraded`]), reaps exited children
//!   (→ [`Health::Down`] → immediate re-converge), and periodically
//!   scrapes attached nodes to confirm liveness.
//! * **respawn** — a re-converge after an exit bumps the node's
//!   generation, relaunches it, reroutes every route touching it
//!   (retrying while peers evict the dead incarnation's aliases), and
//!   finally *refreshes* the modules that declared `watch` on the
//!   node: their `refresh` key is raised so they re-resolve the
//!   rerouted aliases and re-invite the new incarnation (e.g. the
//!   event manager's `evb.rescan`).
//! * **drain** — a rolling restart: raise the watchers' `drain` key
//!   (naming the node by its route alias), poll the `drain_gate`
//!   parameter to zero so in-flight work finishes through the data
//!   plane's own recovery paths, stop the node cleanly
//!   (`exec.stop=1`), and re-converge.
//!
//! An [`XclInterpreter`](crate::XclInterpreter) with the controller
//! attached drives all of this from script: `apply`, `plan`,
//! `registry`, `drain <node>`.

use crate::control::ControlHost;
use crate::decl::{ModuleDecl, RouteDecl, Topology};
use crate::launch::{read_url, LaunchSpec, Launcher};
use crate::registry::{Health, ServiceRegistry, Subscription};
use parking_lot::Mutex;
use std::collections::{HashMap, HashSet};
use std::process::Child;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Weak};
use std::thread::sleep;
use std::time::{Duration, Instant};
use xdaq_core::config::{kv, parse_kv};
use xdaq_core::xfn::XFN_PEER_DOWN;
use xdaq_core::{ExecutiveConfig, SupervisionConfig};
use xdaq_i2o::{ExecFn, Tid};
use xdaq_mempool::TablePool;
use xdaq_pt::XptPt;

/// Background tick period.
const POLL_INTERVAL: Duration = Duration::from_millis(100);
/// How long a spawned node may take to publish its url file.
const BOOT_TIMEOUT: Duration = Duration::from_secs(30);
/// How long route wiring retries while peers evict a dead
/// incarnation's aliases.
const ROUTE_RETRY: Duration = Duration::from_secs(10);
/// How long a drain gate may take to reach zero.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(60);
/// Scrape attached nodes every this many ticks.
const SCRAPE_EVERY: u32 = 10;

/// Everything the controller knows about one managed node's current
/// incarnation.
#[derive(Default)]
struct NodeState {
    child: Option<Child>,
    generation: u64,
    url: String,
    /// Host-side proxy for the node's executive.
    node_tid: Option<Tid>,
    /// instance → TiD on the remote node (route targets).
    modules: HashMap<String, Tid>,
    /// instance → host-side proxy TiD (direct ParamsSet/Get).
    proxies: HashMap<String, Tid>,
    /// Route ids applied ON this node this incarnation.
    routes_applied: HashSet<String>,
    enabled: bool,
}

/// The declarative controller. Create with [`Controller::new`], start
/// the background tick with [`Controller::start`], then converge via
/// [`Controller::apply`] (directly or through xcl).
pub struct Controller {
    topo: Topology,
    topo_path: String,
    rundir: String,
    host: Arc<ControlHost>,
    launcher: Box<dyn Launcher>,
    registry: Arc<ServiceRegistry>,
    state: Mutex<HashMap<String, NodeState>>,
    /// Serializes apply / drain / poll mutation (poll uses try_lock).
    ops: Mutex<()>,
    stop: AtomicBool,
    scrape_tick: Mutex<u32>,
}

impl Controller {
    /// Loads the topology at `topo_path` and builds a controller over
    /// it. Nothing is spawned until `apply`.
    pub fn new(
        topo_path: &str,
        host: Arc<ControlHost>,
        launcher: Box<dyn Launcher>,
    ) -> Result<Arc<Controller>, String> {
        let text =
            std::fs::read_to_string(topo_path).map_err(|e| format!("read {topo_path}: {e}"))?;
        let topo = Topology::parse(&text).map_err(|e| format!("{topo_path}: {e}"))?;
        let registry = Arc::new(ServiceRegistry::new());
        let mut state = HashMap::new();
        for n in topo.managed() {
            registry.declare(&n.name);
            state.insert(n.name.clone(), NodeState::default());
        }
        Ok(Arc::new(Controller {
            rundir: topo.rundir.clone(),
            topo,
            topo_path: topo_path.to_string(),
            host,
            launcher,
            registry,
            state: Mutex::new(state),
            ops: Mutex::new(()),
            stop: AtomicBool::new(false),
            scrape_tick: Mutex::new(0),
        }))
    }

    /// The live registry (subscribe for membership events).
    pub fn service_registry(&self) -> &Arc<ServiceRegistry> {
        &self.registry
    }

    /// Shorthand for `service_registry().subscribe()`.
    pub fn subscribe(&self) -> Subscription {
        self.registry.subscribe()
    }

    /// The parsed declaration.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Starts the background tick (fault feed, child reaping with
    /// automatic re-convergence, liveness scrapes). The thread holds
    /// only a weak reference: dropping the last `Arc<Controller>`
    /// stops it.
    pub fn start(self: &Arc<Self>) {
        let weak: Weak<Controller> = Arc::downgrade(self);
        std::thread::spawn(move || loop {
            sleep(POLL_INTERVAL);
            let Some(me) = weak.upgrade() else { break };
            if me.stop.load(Ordering::Relaxed) {
                break;
            }
            me.poll_once();
        });
    }

    /// Stops the background tick. Children are killed on drop.
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::Relaxed);
    }

    /// SIGKILLs a managed node's process (test/chaos hook). The next
    /// poll notices the exit and re-converges.
    pub fn kill_node(&self, node: &str) -> Result<(), String> {
        let mut st = self.state.lock();
        let ns = st
            .get_mut(node)
            .ok_or_else(|| format!("unknown node '{node}'"))?;
        let child = ns
            .child
            .as_mut()
            .ok_or_else(|| format!("'{node}' not running"))?;
        child.kill().map_err(|e| format!("kill {node}: {e}"))
    }

    /// Host-side proxy TiD for a managed module instance (to address
    /// it directly, e.g. posting run control to an event manager).
    pub fn module_proxy(&self, node: &str, instance: &str) -> Option<Tid> {
        self.state.lock().get(node)?.proxies.get(instance).copied()
    }

    /// Current generation of a managed node.
    pub fn generation(&self, node: &str) -> u64 {
        self.state
            .lock()
            .get(node)
            .map(|n| n.generation)
            .unwrap_or(0)
    }

    // ---- internals ----------------------------------------------------

    fn node_by_url(&self, url: &str) -> Option<String> {
        self.state
            .lock()
            .iter()
            .find(|(_, ns)| ns.url == url)
            .map(|(n, _)| n.clone())
    }

    fn spawn_node(&self, node: &str) -> Result<(), String> {
        let generation = {
            let st = self.state.lock();
            st.get(node).map(|n| n.generation).unwrap_or(0) + 1
        };
        // Remove a stale url file so a slow-booting child can never be
        // confused with its previous incarnation.
        let _ = std::fs::remove_file(format!("{}/{node}.url", self.rundir));
        let spec = LaunchSpec {
            node: node.to_string(),
            topo_path: self.topo_path.clone(),
            rundir: self.rundir.clone(),
            generation,
        };
        let child = self
            .launcher
            .spawn(&spec)
            .map_err(|e| format!("spawn {node}: {e}"))?;
        self.registry.spawned(node, generation, child.id());
        let mut st = self.state.lock();
        let ns = st.entry(node.to_string()).or_default();
        ns.child = Some(child);
        ns.generation = generation;
        ns.url.clear();
        Ok(())
    }

    /// Waits for the url file, creates the executive proxy and puts
    /// the link under host-side supervision.
    fn attach(&self, node: &str) -> Result<(), String> {
        let generation = self
            .state
            .lock()
            .get(node)
            .map(|n| n.generation)
            .unwrap_or(0);
        let deadline = Instant::now() + BOOT_TIMEOUT;
        let url = loop {
            if let Some(url) = read_url(&self.rundir, node, generation) {
                break url;
            }
            if Instant::now() >= deadline {
                return Err(format!("'{node}' gen {generation} never published its url"));
            }
            sleep(Duration::from_millis(10));
        };
        self.registry.published(node, &url);
        let tid = self
            .host
            .connect_node(&url, None)
            .map_err(|e| format!("connect {node}: {e}"))?;
        self.host
            .executive()
            .supervise(&url)
            .map_err(|e| format!("supervise {node}: {e}"))?;
        let mut st = self.state.lock();
        let ns = st.get_mut(node).expect("state row exists");
        ns.url = url;
        ns.node_tid = Some(tid);
        Ok(())
    }

    fn load_module(&self, node: &str, m: &ModuleDecl) -> Result<(), String> {
        let (node_tid, url) = {
            let st = self.state.lock();
            let ns = st.get(node).expect("state row exists");
            (ns.node_tid.expect("attached before load"), ns.url.clone())
        };
        let refs: Vec<(&str, &str)> = m
            .params
            .iter()
            .map(|(k, v)| (k.as_str(), v.as_str()))
            .collect();
        let remote = self
            .host
            .load(node_tid, &m.factory, &m.instance, &refs)
            .map_err(|e| format!("load {node}/{}: {e}", m.instance))?;
        let proxy = self
            .host
            .device_proxy(&url, remote)
            .map_err(|e| format!("proxy {node}/{}: {e}", m.instance))?;
        let mut st = self.state.lock();
        let ns = st.get_mut(node).expect("state row exists");
        ns.modules.insert(m.instance.clone(), remote);
        ns.proxies.insert(m.instance.clone(), proxy);
        ns.enabled = false;
        Ok(())
    }

    /// Wires one route, retrying while the `on` node is still
    /// evicting a dead incarnation's alias (`DuplicateName` until the
    /// link supervisor declares the old peer Down).
    fn apply_route(&self, r: &RouteDecl) -> Result<(), String> {
        let (on_tid, peer_url, remote) = {
            let st = self.state.lock();
            let on = st
                .get(&r.on)
                .and_then(|n| n.node_tid)
                .ok_or_else(|| format!("route '{}': '{}' not attached", r.id, r.on))?;
            let (peer_url, remote) = match st.get(&r.to_node) {
                Some(to) => {
                    let tid = *to.modules.get(&r.to_instance).ok_or_else(|| {
                        format!(
                            "route '{}': '{}/{}' not loaded",
                            r.id, r.to_node, r.to_instance
                        )
                    })?;
                    (to.url.clone(), tid)
                }
                None => {
                    return Err(format!(
                        "route '{}': external target '{}' not routable",
                        r.id, r.to_node
                    ))
                }
            };
            (on, peer_url, remote)
        };
        let remote_raw = remote.raw().to_string();
        let deadline = Instant::now() + ROUTE_RETRY;
        loop {
            let mut pairs = vec![
                ("peer", peer_url.as_str()),
                ("remote_tid", remote_raw.as_str()),
                ("alias", r.alias.as_str()),
            ];
            if r.supervise {
                pairs.push(("supervise", "1"));
            }
            let outcome = self
                .host
                .request_exec(on_tid, ExecFn::IopConnect, kv(&pairs))
                .and_then(|reply| reply.ok());
            match outcome {
                Ok(_) => {
                    let mut st = self.state.lock();
                    if let Some(ns) = st.get_mut(&r.on) {
                        ns.routes_applied.insert(r.id.clone());
                    }
                    return Ok(());
                }
                Err(e) if Instant::now() >= deadline => {
                    return Err(format!("route '{}': {e}", r.id));
                }
                Err(_) => sleep(Duration::from_millis(50)),
            }
        }
    }

    /// After a respawn, raise the `refresh` key on every module
    /// watching one of `fresh`.
    fn refresh_watchers(&self, fresh: &HashSet<String>) -> Result<(), String> {
        for n in self.topo.managed() {
            for m in &n.modules {
                let Some(refresh) = &m.refresh else { continue };
                if !m.watch.iter().any(|w| fresh.contains(w)) {
                    continue;
                }
                let Some(proxy) = self.module_proxy(&n.name, &m.instance) else {
                    continue;
                };
                self.host
                    .params_set(proxy, &[(refresh.as_str(), "1")])
                    .map_err(|e| format!("refresh {}/{}: {e}", n.name, m.instance))?;
            }
        }
        Ok(())
    }

    /// Full convergence pass; caller holds `ops`.
    fn converge_locked(&self) -> Result<String, String> {
        let mut fresh: HashSet<String> = HashSet::new();
        let mut respawns: HashSet<String> = HashSet::new();
        for n in self.topo.managed() {
            let (running, generation) = {
                let st = self.state.lock();
                let ns = st.get(&n.name).expect("state row exists");
                (ns.child.is_some(), ns.generation)
            };
            if !running {
                self.spawn_node(&n.name)?;
                fresh.insert(n.name.clone());
                if generation > 0 {
                    respawns.insert(n.name.clone());
                }
            }
        }
        for n in self.topo.managed() {
            let attached = self.state.lock().get(&n.name).unwrap().node_tid.is_some();
            if !attached {
                self.attach(&n.name)?;
            }
        }
        for n in self.topo.managed() {
            for m in &n.modules {
                let loaded = self
                    .state
                    .lock()
                    .get(&n.name)
                    .unwrap()
                    .modules
                    .contains_key(&m.instance);
                if !loaded {
                    self.load_module(&n.name, m)?;
                }
            }
        }
        for r in &self.topo.routes {
            let applied = self
                .state
                .lock()
                .get(&r.on)
                .map(|n| n.routes_applied.contains(&r.id))
                .unwrap_or(false);
            if !applied {
                self.apply_route(r)?;
            }
        }
        let mut enabled_now = 0;
        for n in self.topo.managed() {
            let (tid, enabled) = {
                let st = self.state.lock();
                let ns = st.get(&n.name).unwrap();
                (ns.node_tid, ns.enabled)
            };
            if let (Some(tid), false) = (tid, enabled) {
                self.host
                    .enable(tid)
                    .map_err(|e| format!("enable {}: {e}", n.name))?;
                self.state.lock().get_mut(&n.name).unwrap().enabled = true;
                enabled_now += 1;
            }
        }
        self.refresh_watchers(&respawns)?;
        for n in self.topo.managed() {
            if self.registry.row(&n.name).map(|r| r.health) != Some(Health::Up) {
                self.registry.up(&n.name);
            }
        }
        Ok(format!(
            "converged: {} nodes ({} brought up, {} respawned), {} routes",
            self.topo.managed().count(),
            enabled_now,
            respawns.len(),
            self.topo.routes.len()
        ))
    }

    /// Forgets a dead incarnation: drops the child handle, stops
    /// host-side supervision of the stale URL, clears module/route
    /// bookkeeping here and un-applies every route *to* the node on
    /// its peers (their supervisors are evicting the stale alias).
    fn teardown_node(&self, node: &str) {
        let old_url = {
            let mut st = self.state.lock();
            let Some(ns) = st.get_mut(node) else { return };
            ns.child = None;
            ns.node_tid = None;
            ns.modules.clear();
            ns.proxies.clear();
            ns.routes_applied.clear();
            ns.enabled = false;
            std::mem::take(&mut ns.url)
        };
        if !old_url.is_empty() {
            let _ = self.host.executive().unsupervise(&old_url);
        }
        let incoming: Vec<(String, String)> = self
            .topo
            .routes
            .iter()
            .filter(|r| r.to_node == node)
            .map(|r| (r.on.clone(), r.id.clone()))
            .collect();
        let mut st = self.state.lock();
        for (on, id) in incoming {
            if let Some(ns) = st.get_mut(&on) {
                ns.routes_applied.remove(&id);
            }
        }
    }

    /// One background tick; skipped entirely when an apply/drain is
    /// in flight.
    fn poll_once(&self) {
        let Some(_g) = self.ops.try_lock() else {
            return;
        };
        for (x_fn, payload) in self.host.take_events() {
            if x_fn != XFN_PEER_DOWN {
                continue;
            }
            let Ok(map) = parse_kv(&payload) else {
                continue;
            };
            let Some(peer) = map.get("peer") else {
                continue;
            };
            if let Some(node) = self.node_by_url(peer) {
                self.registry.link_down(&node, &format!("peer={peer}"));
            }
        }
        let mut exited: Vec<(String, String)> = Vec::new();
        {
            let mut st = self.state.lock();
            for (name, ns) in st.iter_mut() {
                if let Some(child) = ns.child.as_mut() {
                    if let Ok(Some(status)) = child.try_wait() {
                        exited.push((name.clone(), status.to_string()));
                    }
                }
            }
        }
        for (name, detail) in &exited {
            self.registry.exited(name, detail);
            self.teardown_node(name);
        }
        if !exited.is_empty() {
            // Only nodes that were already converged respawn here;
            // apply() remains the explicit gate for first bring-up.
            if let Err(e) = self.converge_locked() {
                self.registry
                    .link_down(&exited[0].0, &format!("respawn failed (will retry): {e}"));
            }
            return;
        }
        let scrape = {
            let mut tick = self.scrape_tick.lock();
            *tick += 1;
            (*tick).is_multiple_of(SCRAPE_EVERY)
        };
        if scrape {
            let targets: Vec<(String, Tid)> = {
                let st = self.state.lock();
                st.iter()
                    .filter_map(|(n, ns)| ns.node_tid.map(|t| (n.clone(), t)))
                    .collect()
            };
            for (node, tid) in targets {
                match self.host.scrape(tid) {
                    Ok(_) => {
                        if self.registry.row(&node).map(|r| r.health) == Some(Health::Degraded) {
                            self.registry.up(&node);
                        }
                    }
                    Err(_) => self.registry.mark_degraded(&node),
                }
            }
        }
    }

    // ---- operator verbs (each holds `ops`) ---------------------------

    /// Diffs desired vs actual without changing anything; returns one
    /// human-readable pending action per line (empty = converged).
    pub fn plan(&self) -> Vec<String> {
        let _g = self.ops.lock();
        let mut actions = Vec::new();
        let st = self.state.lock();
        for n in self.topo.managed() {
            let ns = st.get(&n.name).expect("state row exists");
            if ns.child.is_none() {
                actions.push(format!("spawn {} (gen {})", n.name, ns.generation + 1));
            } else if ns.node_tid.is_none() {
                actions.push(format!("attach {}", n.name));
            }
            for m in &n.modules {
                if !ns.modules.contains_key(&m.instance) {
                    actions.push(format!("load {}/{} ({})", n.name, m.instance, m.factory));
                }
            }
        }
        for r in &self.topo.routes {
            let applied = st
                .get(&r.on)
                .map(|n| n.routes_applied.contains(&r.id))
                .unwrap_or(false);
            if !applied {
                actions.push(format!(
                    "route {}: {} -> {}/{} as '{}'",
                    r.id, r.on, r.to_node, r.to_instance, r.alias
                ));
            }
        }
        for n in self.topo.managed() {
            let ns = st.get(&n.name).expect("state row exists");
            if ns.node_tid.is_some() && !ns.enabled {
                actions.push(format!("enable {}", n.name));
            }
        }
        actions
    }

    /// Rolling restart of one node: drain it through the data-plane
    /// recovery paths, stop it, respawn it, restore routes. Returns a
    /// summary line, or an error message.
    pub fn drain(&self, node: &str) -> Result<String, String> {
        let _g = self.ops.lock();
        if self.topo.node(node).map(|n| n.external).unwrap_or(true) {
            return Err(format!("'{node}' is not a managed node"));
        }
        let running = self
            .state
            .lock()
            .get(node)
            .map(|n| n.child.is_some())
            .unwrap_or(false);
        if !running {
            return Err(format!("'{node}' is not running"));
        }
        self.registry.draining(node);
        // Walk every module that declared a drain hook for this node
        // and let the data plane empty itself through its own
        // recovery paths before we stop anything.
        for w in self.topo.managed() {
            for m in &w.modules {
                let Some(drain_key) = &m.drain else { continue };
                if !m.watch.iter().any(|x| x == node) {
                    continue;
                }
                let alias = self
                    .topo
                    .routes
                    .iter()
                    .find(|r| r.on == w.name && r.to_node == node)
                    .map(|r| r.alias.clone())
                    .ok_or_else(|| format!("{}/{}: no route names '{node}'", w.name, m.instance))?;
                let proxy = self
                    .module_proxy(&w.name, &m.instance)
                    .ok_or_else(|| format!("{}/{} has no live proxy", w.name, m.instance))?;
                self.host
                    .params_set(proxy, &[(drain_key.as_str(), alias.as_str())])
                    .map_err(|e| format!("drain {}/{}: {e}", w.name, m.instance))?;
                if let Some(gate) = &m.drain_gate {
                    let deadline = Instant::now() + DRAIN_TIMEOUT;
                    loop {
                        let inflight = self
                            .host
                            .params_get(proxy)
                            .ok()
                            .and_then(|map| map.get(gate).cloned());
                        if inflight.as_deref() == Some("0") {
                            break;
                        }
                        if Instant::now() >= deadline {
                            return Err(format!(
                                "drain gate {}/{}:{gate} stuck at {:?}",
                                w.name, m.instance, inflight
                            ));
                        }
                        sleep(Duration::from_millis(20));
                    }
                }
            }
        }
        self.registry.drained(node);
        // Clean stop: the executive acks the ParamsSet, then leaves
        // its dispatch loop and the process exits on its own.
        let node_tid = self
            .state
            .lock()
            .get(node)
            .and_then(|n| n.node_tid)
            .ok_or_else(|| format!("'{node}' not attached"))?;
        self.host
            .params_set(node_tid, &[("exec.stop", "1")])
            .map_err(|e| format!("stop {node}: {e}"))?;
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let done = {
                let mut st = self.state.lock();
                let ns = st.get_mut(node).expect("state row exists");
                match ns.child.as_mut() {
                    None => true,
                    Some(child) => matches!(child.try_wait(), Ok(Some(_))),
                }
            };
            if done {
                break;
            }
            if Instant::now() >= deadline {
                let _ = self.kill_node(node);
            }
            sleep(Duration::from_millis(20));
        }
        self.registry.exited(node, "drained");
        self.teardown_node(node);
        let gen = {
            let st = self.state.lock();
            st.get(node).map(|n| n.generation + 1).unwrap_or(0)
        };
        self.converge_locked()?;
        Ok(format!("drained and restarted '{node}' (now gen {gen})"))
    }

    /// Converges the fleet to the declaration (spawn, configure,
    /// route, enable). Returns a summary line, or an error message.
    pub fn apply(&self) -> Result<String, String> {
        let _g = self.ops.lock();
        self.converge_locked()
    }
}

impl Drop for Controller {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        let mut st = self.state.lock();
        for (_, ns) in st.iter_mut() {
            if let Some(child) = ns.child.as_mut() {
                let _ = child.kill();
                let _ = child.wait();
            }
        }
    }
}

/// Builds the usual control-plane host: named executive with link
/// supervision (so managed-node deaths surface as local faults), the
/// socket peer transport on an ephemeral port, the fault feed routed to
/// the host agent, dispatch loop running.
pub fn control_host(name: &str) -> Result<Arc<ControlHost>, String> {
    let mut config = ExecutiveConfig::named(name);
    config.supervision = Some(SupervisionConfig {
        interval: Duration::from_millis(50),
        suspect_after: 3,
        down_after: 6,
    });
    let host = ControlHost::with_config(config);
    let pt = XptPt::bind("127.0.0.1:0", TablePool::with_defaults())
        .map_err(|e| format!("bind host xpt: {e:?}"))?;
    host.executive()
        .register_pt("xpt", pt)
        .map_err(|e| format!("register host xpt: {e:?}"))?;
    host.watch_local_faults();
    host.start();
    Ok(Arc::new(host))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::launch::Launcher;
    use std::io;

    /// A launcher that refuses, for exercising plan/apply error paths
    /// without real processes.
    struct NoLaunch;
    impl Launcher for NoLaunch {
        fn spawn(&self, _spec: &LaunchSpec) -> io::Result<Child> {
            Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "no processes in unit tests",
            ))
        }
    }

    fn write_topo(name: &str) -> String {
        let dir = std::env::temp_dir().join(format!("xdaq-ctl-unit-{name}"));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("topo.xtop");
        std::fs::write(
            &path,
            format!(
                r#"
                [cluster]
                name   = "unit"
                rundir = "{rundir}"
                [node.a]
                [node.a.modules.m]
                factory = "m"
                [node.b]
                [route.a-b]
                on    = "a"
                to    = "b/n"
                alias = "b"
                [node.b.modules.n]
                factory = "n"
                "#,
                rundir = dir.display()
            ),
        )
        .unwrap();
        path.to_str().unwrap().to_string()
    }

    #[test]
    fn plan_lists_everything_before_first_apply() {
        let path = write_topo("plan");
        let host = control_host("unit-plan-host").unwrap();
        let ctl = Controller::new(&path, host, Box::new(NoLaunch)).unwrap();
        let plan = ctl.plan();
        assert!(
            plan.iter().any(|l| l.contains("spawn a (gen 1)")),
            "{plan:?}"
        );
        assert!(plan.iter().any(|l| l.contains("spawn b")), "{plan:?}");
        assert!(plan.iter().any(|l| l.contains("load a/m")), "{plan:?}");
        assert!(plan.iter().any(|l| l.contains("route a-b")), "{plan:?}");
        let rows = ctl.service_registry().rows();
        assert_eq!(rows.len(), 2);
        assert!(rows
            .iter()
            .all(|r| r.health == Health::Pending && r.desired == Health::Up));
        assert_eq!(
            ctl.service_registry().status_json()["converged"],
            serde_json::json!(false)
        );
    }

    #[test]
    fn apply_surfaces_launcher_failure() {
        let path = write_topo("fail");
        let host = control_host("unit-fail-host").unwrap();
        let ctl = Controller::new(&path, host, Box::new(NoLaunch)).unwrap();
        let err = ctl.apply().unwrap_err();
        assert!(err.contains("spawn"), "{err}");
        assert!(ctl
            .drain("ghost")
            .unwrap_err()
            .contains("not a managed node"));
        assert!(ctl.drain("a").unwrap_err().contains("not running"));
    }
}
