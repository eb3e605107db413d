//! Control-plane integration tests: the event builder run entirely
//! from a topology declaration by the `xdaq-ctl` convergence loop,
//! with real child processes over `xpt://` sockets.
//!
//! This binary plays every role. The parent builds a [`Controller`]
//! whose `SelfExec` launcher re-executes the binary with the harness
//! arguments routing it into `child_ctl_node`, which registers the
//! module factories and hands over to `run_managed_node`.
//!
//! * `registry_managed_evb_survives_builder_sigkill` — apply the
//!   declaration through xcl, start a run, SIGKILL one builder
//!   mid-run: the poll loop reaps the corpse, respawns generation 2,
//!   rewires every route touching it (waiting out the peers' alias
//!   evictions), raises the event manager's `evb.rescan`, and the run
//!   completes with zero event loss.
//! * `rolling_drain_restart_loses_no_events` — `drain bu0` mid-run:
//!   the event manager stops assigning to the victim, the drain gate
//!   (`evb.drain_inflight`) reaches zero through the normal data
//!   path, the node is stopped cleanly and respawned; zero loss.
//! * `stopped_node_is_fenced_and_restarted` — SIGSTOP a lone node: the
//!   host's link supervisor reads its link Down, the controller records
//!   one link-down, SIGKILLs the hung process and respawns generation 2.
//! * `failed_respawn_is_retried_by_the_tick` — a launcher refuses the
//!   respawn after a SIGKILL once: the refusal is recorded once as a
//!   `failed` event and the next tick spawns generation 2 without
//!   another `apply`.

use std::collections::HashSet;
use std::io;
use std::path::PathBuf;
use std::process::Child;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};
use xdaq::core::listener::UtilOutcome;
use xdaq::core::{Delivery, Dispatcher, I2oListener};
use xdaq::ctl::{
    control_host, ControlHost, Controller, EventKind, Health, LaunchSpec, Launcher, ManagedEnv,
    SelfExec, XclInterpreter,
};
use xdaq::evb::{xfn, BuilderUnit, EventManager, ReadoutUnit, ORG_DAQ};
use xdaq::i2o::{DeviceClass, Message, Tid, UtilFn};

const N_RU: usize = 2;

/// Filter-side sink that mirrors its counters into the parameter map
/// so the parent asserts end-to-end delivery over ParamsGet alone.
struct Collector {
    ids: HashSet<u64>,
    received: AtomicU64,
}

impl I2oListener for Collector {
    fn class(&self) -> DeviceClass {
        DeviceClass::Application(ORG_DAQ)
    }
    fn on_private(&mut self, _ctx: &mut Dispatcher<'_>, msg: Delivery) {
        if msg.private.map(|p| p.x_function) == Some(xfn::EVENT) {
            let id = u64::from_le_bytes(msg.payload()[0..8].try_into().unwrap());
            self.ids.insert(id);
            self.received.fetch_add(1, Ordering::Relaxed);
        }
    }
    fn on_util(&mut self, ctx: &mut Dispatcher<'_>, f: UtilFn, _msg: &Delivery) -> UtilOutcome {
        if f == UtilFn::ParamsGet {
            ctx.set_param("col.unique", &self.ids.len().to_string());
            ctx.set_param(
                "col.received",
                &self.received.load(Ordering::Relaxed).to_string(),
            );
        }
        UtilOutcome::Default
    }
}

/// Managed-node entry point: the controller re-execs this test binary
/// with `--exact child_ctl_node` plus the `XDAQ_CTL_*` environment.
#[test]
#[ignore]
fn child_ctl_node() {
    if ManagedEnv::from_env().is_none() {
        return;
    }
    xdaq::ctl::run_managed_node(|exec| {
        exec.register_factory(
            "readout",
            Box::new(|_| Box::new(ReadoutUnit::new()) as Box<dyn I2oListener>),
        );
        exec.register_factory(
            "builder",
            Box::new(|_| Box::new(BuilderUnit::new()) as Box<dyn I2oListener>),
        );
        exec.register_factory(
            "evm",
            Box::new(|_| Box::new(EventManager::new()) as Box<dyn I2oListener>),
        );
        exec.register_factory(
            "collector",
            Box::new(|_| {
                Box::new(Collector {
                    ids: HashSet::new(),
                    received: AtomicU64::new(0),
                }) as Box<dyn I2oListener>
            }),
        );
    })
    .expect("managed node runs");
}

/// A 2 RU × 2 BU × manager declaration with a per-test rundir.
fn write_topology(name: &str) -> (String, PathBuf) {
    let base = std::env::temp_dir().join(format!("xdaq-ctl-it-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    std::fs::create_dir_all(&base).unwrap();
    let mut text = format!(
        "[cluster]\nname = \"{name}\"\nrundir = \"{}\"\n\n\
         [defaults]\nsupervision.interval_ms = 50\n\n",
        base.display()
    );
    for i in 0..N_RU {
        text.push_str(&format!(
            "[node.ru{i}]\n[node.ru{i}.modules.readout]\nfactory = \"readout\"\n\
             source_id = {i}\nsources = {N_RU}\nsize = 1024\n\n"
        ));
    }
    for j in 0..2 {
        text.push_str(&format!(
            "[node.bu{j}]\n[node.bu{j}.modules.builder]\nfactory = \"builder\"\n\
             rus = \"ru0,ru1\"\nfilter = \"flt\"\ncredits = 6\ntimeout_ms = 40\n\
             max_retries = 400\n\n"
        ));
    }
    text.push_str(
        "[node.mgr]\n[node.mgr.modules.flt]\nfactory = \"collector\"\n\n\
         [node.mgr.modules.evm]\nfactory = \"evm\"\nreadouts = \"ru0,ru1\"\n\
         bus = \"bu0,bu1\"\nmax_reassign = 5\n\
         watch = \"bu0,bu1\"\nrefresh = \"evb.rescan\"\ndrain = \"evb.drain\"\n\
         drain_gate = \"evb.drain_inflight\"\n\n",
    );
    for i in 0..N_RU {
        text.push_str(&format!(
            "[route.mgr-ru{i}]\non = \"mgr\"\nto = \"ru{i}/readout\"\nalias = \"ru{i}\"\n\n"
        ));
    }
    for j in 0..2 {
        text.push_str(&format!(
            "[route.mgr-bu{j}]\non = \"mgr\"\nto = \"bu{j}/builder\"\nalias = \"bu{j}\"\n\
             supervise = true\n\n"
        ));
        for i in 0..N_RU {
            text.push_str(&format!(
                "[route.bu{j}-ru{i}]\non = \"bu{j}\"\nto = \"ru{i}/readout\"\nalias = \"ru{i}\"\n\n"
            ));
        }
        text.push_str(&format!(
            "[route.bu{j}-flt]\non = \"bu{j}\"\nto = \"mgr/flt\"\nalias = \"flt\"\n\n"
        ));
    }
    let path = base.join("cluster.xtop");
    std::fs::write(&path, text).unwrap();
    (path.to_str().unwrap().to_string(), base)
}

struct Cluster {
    host: std::sync::Arc<ControlHost>,
    ctl: std::sync::Arc<Controller>,
    evm: Tid,
    flt: Tid,
    base: PathBuf,
}

/// A launcher that re-executes this binary into `child_ctl_node`.
fn self_exec() -> SelfExec {
    SelfExec::new(&[
        "--ignored",
        "--exact",
        "child_ctl_node",
        "--nocapture",
        "--test-threads",
        "1",
    ])
}

/// A started controller over the declaration at `topo_path`.
fn controller(
    name: &str,
    topo_path: &str,
    launcher: impl Launcher + 'static,
) -> (std::sync::Arc<ControlHost>, std::sync::Arc<Controller>) {
    let host = control_host(&format!("ctl-{name}")).unwrap();
    let ctl = Controller::new(topo_path, host.clone(), Box::new(launcher)).unwrap();
    ctl.start();
    (host, ctl)
}

/// Boots the whole cluster from its declaration, via xcl.
fn bring_up(name: &str) -> Cluster {
    let (topo_path, base) = write_topology(name);
    let (host, ctl) = controller(name, &topo_path, self_exec());
    let mut xcl = XclInterpreter::new(&host).with_controller(&ctl);
    let out = xcl.run("apply\nregistry").expect("apply converges");
    assert!(
        out.log[0].contains("converged"),
        "unexpected apply output: {:?}",
        out.log
    );
    let evm = ctl.module_proxy("mgr", "evm").expect("evm loaded");
    let flt = ctl.module_proxy("mgr", "flt").expect("collector loaded");
    Cluster {
        host,
        ctl,
        evm,
        flt,
        base,
    }
}

impl Cluster {
    fn start_run(&self, target: u64) {
        self.host
            .executive()
            .post(
                Message::build_private(self.evm, Tid::HOST, ORG_DAQ, xfn::RUN)
                    .payload(target.to_le_bytes().to_vec())
                    .finish(),
            )
            .unwrap();
    }

    fn param(&self, device: Tid, key: &str) -> String {
        self.host
            .params_get(device)
            .ok()
            .and_then(|m| m.get(key).cloned())
            .unwrap_or_default()
    }

    fn evm_u64(&self, key: &str) -> u64 {
        self.param(self.evm, key).parse().unwrap_or(0)
    }

    fn teardown(self) {
        self.ctl.shutdown();
        drop(self.ctl); // kills the children
        let _ = std::fs::remove_dir_all(&self.base);
    }
}

fn wait_until(mut cond: impl FnMut() -> bool, timeout: Duration) -> bool {
    let deadline = Instant::now() + timeout;
    while Instant::now() < deadline {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    cond()
}

#[test]
fn registry_managed_evb_survives_builder_sigkill() {
    const TARGET: u64 = 2000;
    let cluster = bring_up("kill");
    let events = cluster.ctl.subscribe();
    cluster.start_run(TARGET);

    assert!(
        wait_until(
            || cluster.evm_u64("evb.completed") >= 300,
            Duration::from_secs(60)
        ),
        "run never got going: completed {}",
        cluster.evm_u64("evb.completed")
    );
    cluster.ctl.kill_node("bu0").unwrap();

    let done = wait_until(
        || cluster.param(cluster.evm, "evb.run_done") == "1",
        Duration::from_secs(120),
    );
    assert!(
        done,
        "run stalled after SIGKILL: completed {} of {TARGET} (lost {})",
        cluster.evm_u64("evb.completed"),
        cluster.evm_u64("evb.lost"),
    );
    assert_eq!(cluster.evm_u64("evb.lost"), 0, "events lost");
    assert_eq!(cluster.evm_u64("evb.completed"), TARGET);
    // Every event reached the filter collector (dedup makes this
    // robust to at-least-once redelivery after the reassignments).
    assert!(
        wait_until(
            || cluster
                .param(cluster.flt, "col.unique")
                .parse::<u64>()
                .unwrap_or(0)
                == TARGET,
            Duration::from_secs(10)
        ),
        "collector saw {} of {TARGET}",
        cluster.param(cluster.flt, "col.unique"),
    );
    // Convergence respawned the victim as a new incarnation...
    assert!(
        cluster.ctl.generation("bu0") >= 2,
        "bu0 never respawned (gen {})",
        cluster.ctl.generation("bu0")
    );
    // ...and the registry streamed the full story.
    let events = events.drain();
    print_link_downs(&events);
    let kinds: Vec<(String, EventKind)> = events
        .into_iter()
        .filter(|e| e.node == "bu0")
        .map(|e| (e.node, e.kind))
        .collect();
    // (Subscribed after bring-up, so the stream starts at the kill:
    // exited, then the respawn sequence ending in up.)
    let exit_at = kinds
        .iter()
        .position(|(_, k)| *k == EventKind::Exited)
        .unwrap_or_else(|| panic!("no exit event: {kinds:?}"));
    assert!(
        kinds[exit_at..].iter().any(|(_, k)| *k == EventKind::Up),
        "bu0 never converged back: {kinds:?}"
    );
    // The registry agrees the fleet is converged again.
    let status = cluster.ctl.service_registry().status_json();
    assert_eq!(status["converged"], serde_json::json!(true), "{status}");
    cluster.teardown();
}

#[test]
fn rolling_drain_restart_loses_no_events() {
    const TARGET: u64 = 2000;
    let cluster = bring_up("drain");
    let events = cluster.ctl.subscribe();
    cluster.start_run(TARGET);

    assert!(
        wait_until(
            || cluster.evm_u64("evb.completed") >= 300,
            Duration::from_secs(60)
        ),
        "run never got going: completed {}",
        cluster.evm_u64("evb.completed")
    );
    // Rolling restart of bu0 through xcl while the run is hot: the
    // event manager drains it through the normal data path, the
    // controller stops and respawns it, routes restored.
    let mut xcl = XclInterpreter::new(&cluster.host).with_controller(&cluster.ctl);
    let out = xcl.run("drain bu0").expect("drain succeeds");
    assert!(
        out.log[0].contains("drained and restarted 'bu0'"),
        "{:?}",
        out.log
    );
    assert_eq!(cluster.ctl.generation("bu0"), 2);

    let done = wait_until(
        || cluster.param(cluster.evm, "evb.run_done") == "1",
        Duration::from_secs(120),
    );
    assert!(
        done,
        "run stalled after drain: completed {} of {TARGET} (lost {})",
        cluster.evm_u64("evb.completed"),
        cluster.evm_u64("evb.lost"),
    );
    assert_eq!(cluster.evm_u64("evb.lost"), 0, "events lost");
    assert_eq!(cluster.evm_u64("evb.completed"), TARGET);
    assert!(
        wait_until(
            || cluster
                .param(cluster.flt, "col.unique")
                .parse::<u64>()
                .unwrap_or(0)
                == TARGET,
            Duration::from_secs(10)
        ),
        "collector saw {} of {TARGET}",
        cluster.param(cluster.flt, "col.unique"),
    );
    print_link_downs(&events.drain());
    cluster.teardown();
}

/// Prints how many nodes were fenced for a Down link. Neither evb
/// scenario hangs a node (the SIGKILLed or drained one is reaped
/// before its link goes Down), so under load this counts spurious
/// fences.
fn print_link_downs(events: &[xdaq::ctl::Event]) {
    let fenced = events.iter().filter(|e| e.kind == EventKind::LinkDown);
    eprintln!("link-down events: {}", fenced.count());
}

fn signal(sig: &str, pid: u32) {
    let status = std::process::Command::new("kill")
        .args([sig, &pid.to_string()])
        .status()
        .unwrap();
    assert!(status.success(), "kill {sig} {pid}: {status}");
}

/// A one-node declaration (`solo`, no modules) with a per-test rundir.
fn write_solo(name: &str) -> (String, PathBuf) {
    let base = std::env::temp_dir().join(format!("xdaq-ctl-it-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    std::fs::create_dir_all(&base).unwrap();
    let topo_path = base.join("solo.xtop");
    std::fs::write(
        &topo_path,
        format!(
            "[cluster]\nname = \"{name}\"\nrundir = \"{}\"\n\n[node.solo]\n",
            base.display()
        ),
    )
    .unwrap();
    (topo_path.to_str().unwrap().to_string(), base)
}

/// The kinds of `node`'s events in `events`, in order.
fn kinds_of(node: &str, events: Vec<xdaq::ctl::Event>) -> Vec<EventKind> {
    let events = events.into_iter().filter(|e| e.node == node);
    events.map(|e| e.kind).collect()
}

#[test]
fn stopped_node_is_fenced_and_restarted() {
    let started = Instant::now();
    let (topo_path, base) = write_solo("stop");
    let (_host, ctl) = controller("stop", &topo_path, self_exec());
    ctl.apply().expect("apply converges");
    let events = ctl.subscribe();
    let row = || ctl.service_registry().row("solo").unwrap();
    let pid = row().pid;
    assert_eq!((row().health, row().generation), (Health::Up, 1));

    // A stopped process answers no heartbeat: the host's supervisor
    // declares the link Down, the controller fences the process and
    // the tick brings up the next generation.
    signal("-STOP", pid);
    let restarted = wait_until(
        || row().health == Health::Up && row().generation == 2,
        Duration::from_secs(5),
    );
    assert!(
        restarted,
        "row {} at gen {} 5 s after SIGSTOP",
        row().health,
        row().generation
    );
    assert_ne!(row().pid, pid);
    assert!(
        !PathBuf::from(format!("/proc/{pid}")).exists(),
        "fenced pid {pid} still exists"
    );
    assert_eq!(
        kinds_of("solo", events.drain()),
        [
            EventKind::LinkDown,
            EventKind::Exited,
            EventKind::Spawned,
            EventKind::Published,
            EventKind::Up
        ]
    );

    ctl.shutdown();
    drop(ctl); // kills the child
    let _ = std::fs::remove_dir_all(&base);
    assert!(
        started.elapsed() < Duration::from_secs(8),
        "took {:?}",
        started.elapsed()
    );
}

/// Launches like `SelfExec`, but refuses the second spawn.
struct RefuseSecondSpawn {
    inner: SelfExec,
    spawns: AtomicU64,
}

impl Launcher for RefuseSecondSpawn {
    fn spawn(&self, spec: &LaunchSpec) -> io::Result<Child> {
        if self.spawns.fetch_add(1, Ordering::Relaxed) == 1 {
            return Err(io::Error::other("second spawn refused"));
        }
        self.inner.spawn(spec)
    }
}

#[test]
fn failed_respawn_is_retried_by_the_tick() {
    let (topo_path, base) = write_solo("retry");
    let launcher = RefuseSecondSpawn {
        inner: self_exec(),
        spawns: AtomicU64::new(0),
    };
    let (_host, ctl) = controller("retry", &topo_path, launcher);
    ctl.apply().expect("apply converges");
    let events = ctl.subscribe();
    let row = || ctl.service_registry().row("solo").unwrap();

    // The first respawn is refused; no apply follows, so only the
    // tick's retry can bring the node back.
    ctl.kill_node("solo").unwrap();
    let restarted = wait_until(
        || row().health == Health::Up && row().generation == 2,
        Duration::from_secs(5),
    );
    assert!(
        restarted,
        "row {} at gen {} 5 s after SIGKILL",
        row().health,
        row().generation
    );
    let events = events.drain();
    let refusals = events
        .iter()
        .filter(|e| e.detail.contains("second spawn refused"));
    assert_eq!(refusals.count(), 1, "the refusal is recorded once");
    assert_eq!(
        kinds_of("solo", events),
        [
            EventKind::Exited,
            EventKind::Failed,
            EventKind::Spawned,
            EventKind::Published,
            EventKind::Up
        ]
    );

    ctl.shutdown();
    drop(ctl); // kills the child
    let _ = std::fs::remove_dir_all(&base);
}

/// Cheap, always-on: the shipped example declaration stays valid and
/// carries the hooks the control plane depends on.
#[test]
fn example_topology_parses_and_validates() {
    let text = std::fs::read_to_string(
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("examples/evb_cluster.xtop"),
    )
    .unwrap();
    let topo = xdaq::ctl::Topology::parse(&text).unwrap();
    assert_eq!(topo.cluster, "evb");
    assert_eq!(topo.managed().count(), 6);
    let mgr = topo.node("mgr").unwrap();
    let evm = mgr.modules.iter().find(|m| m.instance == "evm").unwrap();
    assert_eq!(evm.watch, vec!["bu0", "bu1"]);
    assert_eq!(evm.refresh.as_deref(), Some("evb.rescan"));
    assert_eq!(evm.drain.as_deref(), Some("evb.drain"));
    assert_eq!(evm.drain_gate.as_deref(), Some("evb.drain_inflight"));
    // Every builder route from the manager is supervised — required
    // for credit reclamation and alias eviction on death.
    for r in topo.routes.iter().filter(|r| r.to_node.starts_with("bu")) {
        if r.on == "mgr" {
            assert!(r.supervise, "route {} must be supervised", r.id);
        }
    }
}
