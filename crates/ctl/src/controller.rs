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
//! * **tick** — a background loop: reap exited children, *fence* every
//!   node whose host link the supervisor reads Down (SIGKILL, reaped
//!   like any exit), and re-converge while a respawn is owed, so a
//!   failed one is retried on the next tick.
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
use std::fmt;
use std::process::Child;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Weak};
use std::thread::sleep;
use std::time::{Duration, Instant};
use xdaq_core::config::kv;
use xdaq_core::{ExecutiveConfig, LinkState, SupervisionConfig};
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

/// What the controller holds about one managed node's current
/// incarnation beyond its registry row (which keeps the generation
/// and the url).
#[derive(Default)]
struct NodeState {
    child: Option<Child>,
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

/// One pending convergence step. [`Controller::plan`] renders them,
/// `converge_locked` runs them.
enum Step<'t> {
    /// Launch the node as this generation.
    Spawn(&'t str, u64),
    /// Wait for the url file, proxy the executive, supervise the link.
    Attach(&'t str),
    /// Download one module instance.
    Load(&'t str, &'t ModuleDecl),
    /// Wire one route on its `on` node.
    Route(&'t RouteDecl),
    /// `SysEnable` the node.
    Enable(&'t str),
}

impl fmt::Display for Step<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Step::Spawn(node, gen) => write!(f, "spawn {node} (gen {gen})"),
            Step::Attach(node) => write!(f, "attach {node}"),
            Step::Load(node, m) => write!(f, "load {node}/{} ({})", m.instance, m.factory),
            Step::Route(r) => write!(
                f,
                "route {}: {} -> {}/{} as '{}'",
                r.id, r.on, r.to_node, r.to_instance, r.alias
            ),
            Step::Enable(node) => write!(f, "enable {node}"),
        }
    }
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
    /// The error of the tick's last failed respawn pass, recorded once;
    /// cleared when a pass succeeds or nothing is owed.
    tick_error: Mutex<Option<String>>,
    stop: AtomicBool,
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
            tick_error: Mutex::new(None),
            stop: AtomicBool::new(false),
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

    /// Starts the background tick (reap exits, fence Down links,
    /// re-converge what is owed). The thread holds
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
        self.registry.row(node).map_or(0, |r| r.generation)
    }

    // ---- internals ----------------------------------------------------

    /// The live url of a managed node ("" until published).
    fn url(&self, node: &str) -> String {
        self.registry.row(node).map(|r| r.url).unwrap_or_default()
    }

    fn spawn_node(&self, node: &str, generation: u64) -> Result<(), String> {
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
        self.state.lock().entry(node.to_string()).or_default().child = Some(child);
        Ok(())
    }

    /// Waits for the url file, creates the executive proxy and puts
    /// the link under host-side supervision.
    fn attach(&self, node: &str) -> Result<(), String> {
        let generation = self.generation(node);
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
        self.state
            .lock()
            .get_mut(node)
            .expect("state row exists")
            .node_tid = Some(tid);
        Ok(())
    }

    fn load_module(&self, node: &str, m: &ModuleDecl) -> Result<(), String> {
        let node_tid = self.state.lock()[node]
            .node_tid
            .expect("attached before load");
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
            .device_proxy(&self.url(node), remote)
            .map_err(|e| format!("proxy {node}/{}: {e}", m.instance))?;
        let mut st = self.state.lock();
        let ns = st.get_mut(node).expect("state row exists");
        ns.modules.insert(m.instance.clone(), remote);
        ns.proxies.insert(m.instance.clone(), proxy);
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
                    (self.url(&r.to_node), tid)
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
    fn refresh_watchers(&self, fresh: &HashSet<&str>) -> Result<(), String> {
        for n in self.topo.managed() {
            for m in &n.modules {
                let Some(refresh) = &m.refresh else { continue };
                if !m.watch.iter().any(|w| fresh.contains(w.as_str())) {
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

    /// Every step between the declaration and the fleet, in phase
    /// order (spawn, attach, load, route, enable), from one snapshot;
    /// caller holds `ops`. A node that is not running owes all of its
    /// steps: a teardown cleared its bookkeeping.
    fn pending(&self) -> Vec<Step<'_>> {
        let st = self.state.lock();
        let nodes: Vec<_> = self
            .topo
            .managed()
            .map(|n| (n, &st[n.name.as_str()]))
            .collect();
        let mut steps = Vec::new();
        for &(n, ns) in &nodes {
            if ns.child.is_none() {
                steps.push(Step::Spawn(&n.name, self.generation(&n.name) + 1));
            }
        }
        for &(n, ns) in &nodes {
            if ns.node_tid.is_none() {
                steps.push(Step::Attach(&n.name));
            }
        }
        for &(n, ns) in &nodes {
            for m in &n.modules {
                if !ns.modules.contains_key(&m.instance) {
                    steps.push(Step::Load(&n.name, m));
                }
            }
        }
        for r in &self.topo.routes {
            let applied = st
                .get(&r.on)
                .is_some_and(|ns| ns.routes_applied.contains(&r.id));
            if !applied {
                steps.push(Step::Route(r));
            }
        }
        for &(n, ns) in &nodes {
            if !ns.enabled {
                steps.push(Step::Enable(&n.name));
            }
        }
        steps
    }

    /// Full convergence pass; caller holds `ops`.
    fn converge_locked(&self) -> Result<String, String> {
        let mut enabled_now = 0;
        for step in self.pending() {
            match step {
                Step::Spawn(node, generation) => self.spawn_node(node, generation)?,
                Step::Attach(node) => self.attach(node)?,
                Step::Load(node, m) => self.load_module(node, m)?,
                Step::Route(r) => self.apply_route(r)?,
                Step::Enable(node) => {
                    let tid = self.state.lock()[node]
                        .node_tid
                        .expect("attached before enable");
                    self.host
                        .enable(tid)
                        .map_err(|e| format!("enable {node}: {e}"))?;
                    self.state
                        .lock()
                        .get_mut(node)
                        .expect("state row exists")
                        .enabled = true;
                    enabled_now += 1;
                }
            }
        }
        let rows = self.registry.rows();
        let stale = || rows.iter().filter(|r| r.health != Health::Up);
        // Past generation 1 a row not yet Up is a respawn: this pass's,
        // or one an earlier pass failed to finish.
        let respawns: HashSet<&str> = stale()
            .filter(|r| r.generation > 1)
            .map(|r| r.node.as_str())
            .collect();
        self.refresh_watchers(&respawns)?;
        stale().for_each(|r| self.registry.up(&r.node));
        Ok(format!(
            "converged: {} nodes ({} brought up, {} respawned), {} routes",
            self.topo.managed().count(),
            enabled_now,
            respawns.len(),
            self.topo.routes.len()
        ))
    }

    /// The one end of an incarnation, whatever ended it. With
    /// `kill_at`, waits for `node`'s child to exit and SIGKILLs it once
    /// `kill_at` passes; without, only looks. Once the child has
    /// exited, records the exit and forgets the incarnation: its
    /// bookkeeping here, host-side supervision of its stale url, and
    /// every route *to* it on its peers (their supervisors are evicting
    /// the stale alias). Caller holds `ops`.
    fn reap(&self, node: &str, kill_at: Option<Instant>) {
        let status = loop {
            let mut st = self.state.lock();
            let Some(child) = st.get_mut(node).and_then(|ns| ns.child.as_mut()) else {
                return;
            };
            match (child.try_wait(), kill_at) {
                (Ok(Some(status)), _) => break status.to_string(),
                (Err(e), _) => break format!("wait failed: {e}"),
                (Ok(None), None) => return,
                (Ok(None), Some(at)) if Instant::now() >= at => {
                    let _ = child.kill();
                }
                (Ok(None), Some(_)) => {}
            }
            drop(st);
            sleep(Duration::from_millis(20));
        };
        self.registry.exited(node, &status);
        let _ = self.host.executive().unsupervise(&self.url(node));
        let mut st = self.state.lock();
        st.insert(node.to_string(), NodeState::default());
        for r in self.topo.routes.iter().filter(|r| r.to_node == node) {
            if let Some(ns) = st.get_mut(&r.on) {
                ns.routes_applied.remove(&r.id);
            }
        }
    }

    /// One background tick, skipped entirely when an apply/drain is in
    /// flight: reap exited children, fence every node whose host link
    /// is Down, then re-converge if a respawn is owed.
    fn poll_once(&self) {
        let Some(_g) = self.ops.try_lock() else {
            return;
        };
        for n in self.topo.managed() {
            self.reap(&n.name, None);
        }
        // Down is the supervisor's verdict on a live process; `Suspect`
        // changes nothing.
        let links = self.host.executive().link_states();
        let down: HashSet<String> = links
            .into_iter()
            .filter(|(_, state)| *state == LinkState::Down)
            .map(|(url, _)| url)
            .collect();
        for row in self.registry.rows() {
            let running = self.state.lock()[row.node.as_str()].child.is_some();
            if running && down.contains(&row.url) {
                self.registry
                    .link_down(&row.node, &format!("peer={}", row.url));
                self.reap(&row.node, Some(Instant::now()));
            }
        }
        // A respawn is owed by a row past its first bring-up (that is
        // `apply`'s job) that an exit, a fence or a failed pass left
        // Down or Pending; a pass that fails again is retried next tick.
        let owed: Vec<String> = self
            .registry
            .rows()
            .into_iter()
            .filter(|r| r.generation > 0 && matches!(r.health, Health::Down | Health::Pending))
            .map(|r| r.node)
            .collect();
        // A failing pass is recorded on every node it owed, once per
        // distinct error, not once per tick.
        let mut last = self.tick_error.lock();
        if owed.is_empty() {
            *last = None;
            return;
        }
        match self.converge_locked() {
            Ok(_) => *last = None,
            Err(e) if last.as_deref() != Some(e.as_str()) => {
                for node in &owed {
                    self.registry.failed(node, &e);
                }
                *last = Some(e);
            }
            Err(_) => {}
        }
    }

    // ---- operator verbs (each holds `ops`) ---------------------------

    /// Diffs the declaration against the fleet without changing
    /// anything; returns one human-readable pending step per line
    /// (empty = converged).
    pub fn plan(&self) -> Vec<String> {
        let _g = self.ops.lock();
        self.pending().iter().map(Step::to_string).collect()
    }

    /// Rolling restart of one node: drain it through the data-plane
    /// recovery paths, stop it, respawn it, restore routes. Returns a
    /// summary line, or an error message.
    pub fn drain(&self, node: &str) -> Result<String, String> {
        let _g = self.ops.lock();
        if self.topo.node(node).map(|n| n.external).unwrap_or(true) {
            return Err(format!("'{node}' is not a managed node"));
        }
        let node_tid = self
            .state
            .lock()
            .get(node)
            .filter(|ns| ns.child.is_some())
            .and_then(|ns| ns.node_tid)
            .ok_or_else(|| format!("'{node}' is not running"))?;
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
        self.host
            .params_set(node_tid, &[("exec.stop", "1")])
            .map_err(|e| format!("stop {node}: {e}"))?;
        self.reap(node, Some(Instant::now() + Duration::from_secs(10)));
        let gen = self.generation(node) + 1;
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
/// supervision (the [`Controller`] reads each managed node's liveness
/// from these link states), the socket peer transport on an ephemeral
/// port, dispatch loop running.
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
        assert_eq!(
            ctl.plan(),
            [
                "spawn a (gen 1)",
                "spawn b (gen 1)",
                "attach a",
                "attach b",
                "load a/m (m)",
                "load b/n (n)",
                "route a-b: a -> b/n as 'b'",
                "enable a",
                "enable b",
            ]
        );
        let rows = ctl.service_registry().rows();
        assert_eq!(rows.len(), 2);
        assert!(rows.iter().all(|r| r.health == Health::Pending));
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
