//! Multi-process event-builder integration tests: a real N×M mesh with
//! one OS process per node over `shm://` regions.
//!
//! Topology (7 processes): this test binary is the host node running
//! the event manager and the filter collector; it re-executes itself
//! (`std::env::current_exe`) for 4 readout-unit children and 2
//! builder-unit children. Parent↔child control rides per-child
//! regions; fragment traffic crosses over dedicated RU↔BU regions —
//! the n×m crossing channels of paper footnote 1.
//!
//! * `chaotic_mesh_builds_every_event` — the readout children wrap
//!   their transport in a `ChaosPt` with a fixed-seed 10% drop plan:
//!   fragments vanish silently, the builders' timeout re-pull recovers
//!   them, and the run completes with zero event loss.
//! * `killed_builder_is_reclaimed_and_survivors_finish` — one builder
//!   child is SIGKILLed mid-run; the shm region reports the death, the
//!   executive's supervisor forces the link Down, and the event
//!   manager (fault listener) reclaims the dead builder's credits and
//!   reassigns its in-flight events. The readout units still hold
//!   those fragments (cleared only once an event finished), so the surviving
//!   builder rebuilds them: zero loss.
//!
//! The in-process tests wire their meshes over `loop://` with
//! [`Mesh`]; `mesh_of_every_shape_builds_every_event` runs it through
//! five shapes. `slow_builder_queue_is_bounded_by_its_credits` runs in
//! one process: the event manager's credits are the only thing that
//! bounds a slow builder's queue, since no link meters data frames.
//! `silent_builder_is_reclaimed_through_its_route` runs in one process
//! too: a builder that stops answering is found by the manager's link
//! supervisor, and the event manager learns which builder that was from
//! the route of its proxy, with no address handed to it.

use parking_lot::Mutex;
use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};
use xdaq::core::pta::PtMode;
use xdaq::core::{
    Delivery, Dispatcher, Executive, ExecutiveConfig, I2oListener, SupervisionConfig, TimerId,
};
use xdaq::evb::{xfn, BuilderUnit, EventManager, EvmStats, Mesh, ReadoutUnit, Roles, ORG_DAQ};
use xdaq::i2o::{DeviceClass, Message, Tid};
use xdaq::pt::{ChaosPt, FaultPlan, LoopbackHub, LoopbackPt};
use xdaq::shm::{ShmConfig, ShmLink, ShmPt};

const N_RU: usize = 4;

/// The in-process tests run one at a time: a second mesh pumping on
/// another core while `slow_builder_queue_is_bounded_by_its_credits`
/// samples its slow builder's queue shifts the windows it compares.
static IN_PROCESS: Mutex<()> = Mutex::new(());
const N_BU: usize = 2;
const FRAGMENT_SIZE: u32 = 1024;

fn cfg() -> ShmConfig {
    ShmConfig {
        block_size: 4096,
        nblocks: 256,
        ring_capacity: 512,
    }
}

fn base_dir(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("xdaq-evb-it-{name}-{}", std::process::id()))
}

/// The 7-process mesh tiers (chaos drops, builder SIGKILL) run only
/// when the environment opts in with `XDAQ_TEST_HEAVY=1` — CI sets it;
/// a plain `cargo test` stays fast and deterministic.
fn heavy_enabled() -> bool {
    std::env::var("XDAQ_TEST_HEAVY")
        .map(|v| v == "1")
        .unwrap_or(false)
}

fn spawn_child(test_fn: &str, base: &Path, idx: usize, chaos: bool) -> Child {
    let mut cmd = Command::new(std::env::current_exe().unwrap());
    cmd.args([
        "--ignored",
        "--exact",
        test_fn,
        "--nocapture",
        "--test-threads",
        "1",
    ])
    .env("XDAQ_EVB_BASE", base)
    .env("XDAQ_EVB_IDX", idx.to_string())
    .stdout(Stdio::null())
    .stderr(Stdio::null());
    if chaos {
        cmd.env("XDAQ_EVB_CHAOS", "1");
    }
    cmd.spawn().expect("spawn child test process")
}

/// Attaches to a region the peer may not have created yet.
fn attach_retry(pt: &ShmPt, path: &Path) -> Arc<ShmLink> {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if path.exists() {
            if let Ok(link) = pt.attach_link(path) {
                return link;
            }
        }
        assert!(
            Instant::now() < deadline,
            "region {} never appeared",
            path.display()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Publishes a TiD for the other processes (write + rename: readers
/// never observe a half-written file).
fn write_tid(base: &Path, name: &str, tid: Tid) {
    let tmp = base.join(format!(".{name}.tid.tmp"));
    std::fs::write(&tmp, tid.raw().to_string()).unwrap();
    std::fs::rename(&tmp, base.join(format!("{name}.tid"))).unwrap();
}

fn read_tid(base: &Path, name: &str) -> Tid {
    let path = base.join(format!("{name}.tid"));
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if let Ok(s) = std::fs::read_to_string(&path) {
            if let Ok(raw) = s.trim().parse::<u16>() {
                return Tid::new(raw).unwrap();
            }
        }
        assert!(
            Instant::now() < deadline,
            "tid file {} never appeared",
            path.display()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// The filter-side collector: the distinct ids of the EVENT frames
/// (reassignment after a builder death makes delivery at-least-once;
/// completion accounting at the EVM is exactly-once).
struct Collector(Arc<Mutex<HashSet<u64>>>);

impl I2oListener for Collector {
    fn class(&self) -> DeviceClass {
        DeviceClass::Application(ORG_DAQ)
    }
    fn on_private(&mut self, _ctx: &mut Dispatcher<'_>, msg: Delivery) {
        if msg.private.map(|p| p.x_function) == Some(xfn::EVENT) {
            let id = u64::from_le_bytes(msg.payload()[0..8].try_into().unwrap());
            self.0.lock().insert(id);
        }
    }
}

struct Host {
    exec: Executive,
    evm_tid: Tid,
    evm: Arc<EvmStats>,
    ids: Arc<Mutex<HashSet<u64>>>,
    children: Vec<Child>,
    base: PathBuf,
    bu_children: Vec<Child>,
}

/// Builds the whole 7-process mesh and returns once every child has
/// published its TiD and all proxies are wired.
fn build_mesh(name: &str, chaos: bool, ru_child: &str, bu_child: &str) -> Host {
    let base = base_dir(name);
    let _ = std::fs::remove_dir_all(&base);
    std::fs::create_dir_all(&base).unwrap();

    let shm = ShmPt::new(PtMode::Polling);
    let mut ru_urls = Vec::new();
    for i in 0..N_RU {
        let link = shm
            .create_link(&base.join(format!("p-ru{i}")), cfg())
            .unwrap();
        ru_urls.push(link.peer_addr().to_string());
    }
    let mut bu_addrs = Vec::new();
    for j in 0..N_BU {
        let link = shm
            .create_link(&base.join(format!("p-bu{j}")), cfg())
            .unwrap();
        bu_addrs.push(link.peer_addr().to_string());
    }

    let mut children = Vec::new();
    for i in 0..N_RU {
        children.push(spawn_child(ru_child, &base, i, chaos));
    }
    let mut bu_children = Vec::new();
    for j in 0..N_BU {
        bu_children.push(spawn_child(bu_child, &base, j, false));
    }

    let mut ecfg = ExecutiveConfig::named("host");
    ecfg.supervision = Some(SupervisionConfig {
        interval: Duration::from_millis(50),
        suspect_after: 3,
        down_after: 6,
    });
    let exec = Executive::new(ecfg);
    exec.register_pt("host.shm", shm).unwrap();

    let ids = Arc::new(Mutex::new(HashSet::new()));
    let flt_tid = exec
        .register("flt", Box::new(Collector(ids.clone())), &[])
        .unwrap();
    write_tid(&base, "flt", flt_tid);

    // Wire proxies once the children report in.
    let mut ru_names = Vec::new();
    for (i, url) in ru_urls.iter().enumerate() {
        let tid = read_tid(&base, &format!("ru{i}"));
        let alias = format!("ru{i}");
        exec.proxy(url, tid, Some(&alias)).unwrap();
        ru_names.push(alias);
    }
    let mut bu_names = Vec::new();
    for (j, url) in bu_addrs.iter().enumerate() {
        let tid = read_tid(&base, &format!("bu{j}"));
        let alias = format!("bu{j}");
        exec.proxy(url, tid, Some(&alias)).unwrap();
        exec.supervise(url).unwrap();
        bu_names.push(alias);
    }

    let evm = EventManager::new();
    let stats = evm.stats();
    let evm_tid = exec
        .register(
            "evm",
            Box::new(evm),
            &[
                ("readouts", &ru_names.join(",")),
                ("bus", &bu_names.join(",")),
                ("max_reassign", "5"),
            ],
        )
        .unwrap();
    exec.enable_all();

    Host {
        exec,
        evm_tid,
        evm: stats,
        ids,
        children,
        base,
        bu_children,
    }
}

impl Host {
    fn start_run(&self, target: u64) {
        self.exec
            .post(
                Message::build_private(self.evm_tid, Tid::HOST, ORG_DAQ, xfn::RUN)
                    .payload(target.to_le_bytes().to_vec())
                    .finish(),
            )
            .unwrap();
    }

    fn teardown(mut self) {
        for c in self.children.iter_mut().chain(self.bu_children.iter_mut()) {
            let _ = c.kill();
            let _ = c.wait();
        }
        let _ = std::fs::remove_dir_all(&self.base);
    }
}

fn wait_until(cond: impl Fn() -> bool, timeout: Duration) -> bool {
    let deadline = Instant::now() + timeout;
    while Instant::now() < deadline {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    cond()
}

#[test]
fn chaotic_mesh_builds_every_event() {
    if !heavy_enabled() {
        return;
    }
    const TARGET: u64 = 400;
    let host = build_mesh("chaos", true, "child_evb_ru", "child_evb_bu");
    let handle = host.exec.spawn();
    host.start_run(TARGET);
    let done = wait_until(
        || host.evm.run_done.load(Ordering::SeqCst),
        Duration::from_secs(120),
    );
    assert!(
        done,
        "run stalled under chaos: completed {} of {TARGET} (lost {})",
        host.evm.completed.load(Ordering::SeqCst),
        host.evm.lost.load(Ordering::SeqCst),
    );
    assert_eq!(host.evm.lost.load(Ordering::SeqCst), 0, "events lost");
    assert_eq!(host.evm.completed.load(Ordering::SeqCst), TARGET);
    // Credits + re-pull turned a 10%-drop fabric into zero loss; every
    // event reached the filter (dedup: delivery is at-least-once).
    assert!(wait_until(
        || host.ids.lock().len() as u64 == TARGET,
        Duration::from_secs(10)
    ));
    handle.shutdown();
    host.teardown();
}

#[test]
fn killed_builder_is_reclaimed_and_survivors_finish() {
    if !heavy_enabled() {
        return;
    }
    const TARGET: u64 = 3000;
    let mut host = build_mesh("kill", false, "child_evb_ru", "child_evb_bu");
    let handle = host.exec.spawn();
    host.start_run(TARGET);

    // Let the run get going, then murder builder 0.
    assert!(
        wait_until(
            || host.evm.completed.load(Ordering::SeqCst) >= 300,
            Duration::from_secs(60)
        ),
        "run never got going: {}",
        host.evm.completed.load(Ordering::SeqCst)
    );
    host.bu_children[0].kill().unwrap();
    host.bu_children[0].wait().unwrap();

    let done = wait_until(
        || host.evm.run_done.load(Ordering::SeqCst),
        Duration::from_secs(120),
    );
    assert!(
        done,
        "survivors stalled: completed {} of {TARGET} (reassigned {}, lost {})",
        host.evm.completed.load(Ordering::SeqCst),
        host.evm.reassigned.load(Ordering::SeqCst),
        host.evm.lost.load(Ordering::SeqCst),
    );
    assert_eq!(host.evm.lost.load(Ordering::SeqCst), 0, "events lost");
    assert_eq!(host.evm.completed.load(Ordering::SeqCst), TARGET);
    assert_eq!(host.ids.lock().len() as u64, TARGET);
    // The EVM saw the death and reclaimed the builder.
    let snap = host.exec.core().monitors().registry().snapshot();
    assert!(
        snap["counters"]["evb.evm.bu_down"].as_u64().unwrap() >= 1,
        "builder death never reached the EVM: {snap}"
    );
    handle.shutdown();
    host.teardown();
}

/// An in-process mesh over `loop://`, one executive each on one hub:
/// the manager `mgr` (supervising when `supervision` is set) with a
/// [`Collector`] as the filter, then `ru0..` and `bu0..`; `roles` and
/// `wrap` are [`Mesh::wrapping`]'s.
struct LoopMesh {
    nodes: Vec<Executive>,
    mesh: Mesh,
    ids: Arc<Mutex<HashSet<u64>>>,
}

fn loop_mesh(
    (rus, bus): (usize, usize),
    supervision: Option<SupervisionConfig>,
    roles: Roles<'_>,
    wrap: impl FnMut(usize, BuilderUnit) -> Box<dyn I2oListener>,
) -> LoopMesh {
    let hub = LoopbackHub::new();
    let names: Vec<String> = std::iter::once("mgr".to_string())
        .chain((0..rus).map(|i| format!("ru{i}")))
        .chain((0..bus).map(|j| format!("bu{j}")))
        .collect();
    let nodes: Vec<Executive> = names
        .iter()
        .map(|name| {
            let mut cfg = ExecutiveConfig::named(name);
            if name == "mgr" {
                cfg.supervision = supervision.clone();
            }
            let exec = Executive::new(cfg);
            exec.register_pt("pt", LoopbackPt::new(&hub, name)).unwrap();
            exec
        })
        .collect();
    let ids = Arc::new(Mutex::new(HashSet::new()));
    let flt = (nodes[0].register("flt", Box::new(Collector(ids.clone())), &[])).unwrap();
    let urls: Vec<String> = names.iter().map(|n| format!("loop://{n}")).collect();
    let peers: Vec<(&str, &Executive)> = urls.iter().map(String::as_str).zip(&nodes).collect();
    let (rus, bus) = peers[1..].split_at(rus);
    let mesh = Mesh::wrapping(&nodes[0], rus, bus, ("loop://mgr", flt), roles, wrap).unwrap();
    LoopMesh { nodes, mesh, ids }
}

/// Pumps `nodes` on this thread until `done` holds, for at most 30 s.
fn pump_until(nodes: &[Executive], done: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while !done() && Instant::now() < deadline {
        for exec in nodes {
            exec.run_once();
        }
    }
}

/// Every shape the mesh wires builds every event once: a run of 200
/// events through 1×1, 2×1, 1×3, 4×2 and 3×3 meshes (readouts ×
/// builders) over `loop://`, pumped on this thread. Each event is
/// counted once per fact: the builder nodes' `evb.bu.built` sum, the
/// manager's `completed` and the filter's distinct ids agree.
#[test]
fn mesh_of_every_shape_builds_every_event() {
    let _one_at_a_time = IN_PROCESS.lock();
    const EVENTS: u64 = 200;
    for (rus, bus) in [(1, 1), (2, 1), (1, 3), (4, 2), (3, 3)] {
        let rig = loop_mesh((rus, bus), None, Roles::default(), |_, unit| Box::new(unit));
        let stats = &rig.mesh.evm_stats;
        rig.mesh.start_run(EVENTS).unwrap();
        pump_until(&rig.nodes, || {
            stats.run_done.load(Ordering::SeqCst) && rig.ids.lock().len() as u64 >= EVENTS
        });
        let outcome = (
            rig.mesh
                .builders
                .iter()
                .map(|bu| bu.built.get())
                .sum::<u64>(),
            stats.completed.load(Ordering::SeqCst),
            stats.lost.load(Ordering::SeqCst),
            rig.ids.lock().len() as u64,
        );
        assert_eq!(
            outcome,
            (EVENTS, EVENTS, 0, EVENTS),
            "{rus}×{bus} mesh: (built, completed, lost, distinct ids at the filter)"
        );
    }
}

/// A builder unit whose handler sleeps on every fragment.
struct SlowBuilder {
    inner: BuilderUnit,
    per_fragment: Duration,
}

impl I2oListener for SlowBuilder {
    fn class(&self) -> DeviceClass {
        self.inner.class()
    }
    fn plugged(&mut self, ctx: &mut Dispatcher<'_>) {
        self.inner.plugged(ctx);
    }
    fn on_private(&mut self, ctx: &mut Dispatcher<'_>, msg: Delivery) {
        if msg.private.map(|p| p.x_function) == Some(xfn::FRAGMENT) {
            std::thread::sleep(self.per_fragment);
        }
        self.inner.on_private(ctx, msg);
    }
    fn on_timer(&mut self, ctx: &mut Dispatcher<'_>, id: TimerId) {
        self.inner.on_timer(ctx, id);
    }
}

/// The slow builder's queue over one window: its deepest sample and
/// the depth integrated over the window's time.
#[derive(Default)]
struct Window {
    peak: usize,
    area: f64,
    span: Duration,
}

impl Window {
    /// The time-averaged depth.
    fn mean(&self) -> f64 {
        self.area / self.span.as_secs_f64()
    }
}

/// No link meters data frames, so what bounds a slow builder's queue
/// is the event manager's credit loop: the builder holds at most
/// `credits` assigned events, each brings at most one fragment per
/// source (nothing is lost here, so nothing is re-pulled), and each
/// `ASSIGN` frame spends at least one credit. A 4×2 mesh over `loop://`
/// runs free while builder 0 sleeps 2 ms on every fragment; its
/// executive's queue never passes that bound on any sample, and its
/// time-averaged depth over the second after the first window is at
/// most a quarter above the first window's, which ends one second after
/// the first built event. Both windows see the same stationary queue,
/// so their means differ by noise alone (second ÷ first read
/// 0.76–1.14 over 63 runs on a 2-CPU host, some beside the
/// multi-process tests); a queue the credits failed to bound would grow
/// by frames per second.
#[test]
fn slow_builder_queue_is_bounded_by_its_credits() {
    let _one_at_a_time = IN_PROCESS.lock();
    const CREDITS: usize = 8;
    const SOURCES: usize = 4;
    // Fragments of the assigned events, their ASSIGN frames, and the
    // run's INVITE.
    const BOUND: usize = CREDITS * SOURCES + CREDITS + 1;
    let roles = Roles {
        builder: &[
            ("credits", &CREDITS.to_string()),
            // The slow builder's events wait longer than the default
            // 50 ms reassembly timeout; a re-pull would add fragments
            // the bound does not count.
            ("timeout_ms", "600000"),
        ],
        ..Roles::default()
    };
    let rig = loop_mesh((SOURCES, 2), None, roles, |j, unit| {
        if j > 0 {
            return Box::new(unit);
        }
        Box::new(SlowBuilder {
            inner: unit,
            per_fragment: Duration::from_millis(2),
        })
    });
    // The slow builder runs on its own thread; this thread pumps every
    // other node, so the readout units run free while it sleeps.
    let mut fast = rig.nodes.clone();
    let slow = fast.remove(SOURCES + 1);
    let slow_handle = slow.spawn();
    // A free-running run longer than the test.
    rig.mesh.start_run(u64::MAX).unwrap();

    let pump = |w: &mut Window, until: Instant| {
        let mut last = Instant::now();
        while last < until {
            for exec in &fast {
                exec.run_once();
            }
            let depth = slow.core().queued();
            let now = Instant::now();
            w.peak = w.peak.max(depth);
            w.area += depth as f64 * (now - last).as_secs_f64();
            w.span += now - last;
            last = now;
        }
    };
    // The first window runs from the RUN until one second after the
    // slow builder's first built event, so a slow start (the pump or
    // the builder thread scheduled late) stretches it instead of
    // counting as growth. The second window is the next second.
    let slow_built = &rig.mesh.builders[0].built;
    let start = Instant::now();
    let (mut first, mut second) = (Window::default(), Window::default());
    while slow_built.get() == 0 && start.elapsed() < Duration::from_secs(30) {
        pump(&mut first, Instant::now() + Duration::from_millis(10));
    }
    let t0 = Instant::now();
    pump(&mut first, t0 + Duration::from_secs(1));
    pump(&mut second, t0 + Duration::from_secs(2));
    slow_handle.shutdown();
    let slow_built = slow_built.get();
    println!(
        "slow builder: {slow_built} events built (first after {:?}), queue peak {} mean {:.2} \
         (to 1 s after it) and peak {} mean {:.2} (the next second), credit bound {BOUND}",
        t0 - start,
        first.peak,
        first.mean(),
        second.peak,
        second.mean(),
    );
    assert!(
        !rig.ids.lock().is_empty() && slow_built > 0,
        "the mesh built nothing"
    );
    assert_eq!(rig.mesh.evm_stats.lost.load(Ordering::Relaxed), 0);
    assert!(first.peak > 0, "the slow builder never queued a frame");
    assert!(
        first.peak.max(second.peak) <= BOUND,
        "slow builder queued {} then {} frames, past its credit bound {BOUND}",
        first.peak,
        second.peak
    );
    assert!(
        second.mean() <= first.mean() * 1.25,
        "slow builder's mean queue grew from {:.2} to {:.2} frames",
        first.mean(),
        second.mean()
    );
}

/// A 2×2 mesh over `loop://`, pumped on this thread, whose manager's
/// executive supervises both builder links. Mid-run builder 1 stops
/// being pumped: its heartbeats go unanswered, the supervisor declares
/// `loop://bu1` Down, and the event manager, which read that address
/// from bu1's proxy route when it resolved the mesh, re-queues bu1's
/// events for bu0. Nothing is lost.
#[test]
fn silent_builder_is_reclaimed_through_its_route() {
    let _one_at_a_time = IN_PROCESS.lock();
    const TARGET: u64 = 600;
    let supervision = SupervisionConfig {
        interval: Duration::from_millis(20),
        suspect_after: 2,
        down_after: 5,
    };
    let roles = Roles {
        readout: &[("size", "256")],
        // Nothing is lost on the wire, so no re-pull.
        builder: &[("timeout_ms", "600000")],
        ..Roles::default()
    };
    let rig = loop_mesh((2, 2), Some(supervision), roles, |_, unit| Box::new(unit));
    let stats = &rig.mesh.evm_stats;
    rig.mesh.start_run(TARGET).unwrap();
    pump_until(&rig.nodes, || stats.completed.load(Ordering::SeqCst) >= 100);
    // Builder 1 goes silent: everything but its executive keeps running.
    let (_, live) = rig.nodes.split_last().unwrap();
    pump_until(live, || stats.run_done.load(Ordering::SeqCst));
    let (completed, reassigned, lost) = (
        stats.completed.load(Ordering::SeqCst),
        stats.reassigned.load(Ordering::SeqCst),
        stats.lost.load(Ordering::SeqCst),
    );
    assert!(
        stats.run_done.load(Ordering::SeqCst),
        "run stalled: completed {completed} of {TARGET} (reassigned {reassigned}, lost {lost})"
    );
    assert_eq!((completed, lost), (TARGET, 0));
    assert!(reassigned > 0, "bu1's events were never re-queued");
    let reg = rig.nodes[0].core().monitors().registry();
    assert_eq!(reg.counter("evb.evm.bu_down").get(), 1);
}

// ───────────────────────── child processes ──────────────────────────

/// Readout-unit child: attaches the parent control region, creates the
/// crossing regions toward every builder, and serves fragments until
/// killed. With `XDAQ_EVB_CHAOS` set, the transport drops 10% of
/// outgoing fragments (fixed seed per unit).
#[test]
#[ignore]
fn child_evb_ru() {
    let Ok(base) = std::env::var("XDAQ_EVB_BASE") else {
        return;
    };
    let base = PathBuf::from(base);
    let i: usize = std::env::var("XDAQ_EVB_IDX").unwrap().parse().unwrap();
    let chaos = std::env::var("XDAQ_EVB_CHAOS").is_ok();

    let shm = ShmPt::new(PtMode::Polling);
    attach_retry(&shm, &base.join(format!("p-ru{i}")));
    for j in 0..N_BU {
        shm.create_link(&base.join(format!("x-ru{i}-bu{j}")), cfg())
            .unwrap();
    }
    let exec = Executive::new(ExecutiveConfig::named(&format!("ru{i}")));
    if chaos {
        let plan = FaultPlan {
            drop_per_mille: 100,
        };
        exec.register_pt("pt", ChaosPt::wrap(shm, 0xDA0 + i as u64, plan))
            .unwrap();
    } else {
        exec.register_pt("pt", shm).unwrap();
    }
    let tid = exec
        .register(
            "readout",
            Box::new(ReadoutUnit::new()),
            &[
                ("source_id", &i.to_string()),
                ("sources", &N_RU.to_string()),
                ("size", &FRAGMENT_SIZE.to_string()),
            ],
        )
        .unwrap();
    exec.enable_all();
    let _h = exec.spawn();
    write_tid(&base, &format!("ru{i}"), tid);
    std::thread::sleep(Duration::from_secs(600)); // killed by the parent
}

/// Builder-unit child: attaches the parent and crossing regions, wires
/// proxies for every readout and the filter, and builds events until
/// killed.
#[test]
#[ignore]
fn child_evb_bu() {
    let Ok(base) = std::env::var("XDAQ_EVB_BASE") else {
        return;
    };
    let base = PathBuf::from(base);
    let j: usize = std::env::var("XDAQ_EVB_IDX").unwrap().parse().unwrap();

    let shm = ShmPt::new(PtMode::Polling);
    let plink = attach_retry(&shm, &base.join(format!("p-bu{j}")));
    let parent_url = plink.peer_addr().to_string();
    let ru_links: Vec<String> = (0..N_RU)
        .map(|i| {
            attach_retry(&shm, &base.join(format!("x-ru{i}-bu{j}")))
                .peer_addr()
                .to_string()
        })
        .collect();

    let exec = Executive::new(ExecutiveConfig::named(&format!("bu{j}")));
    exec.register_pt("pt", shm).unwrap();
    let flt_tid = read_tid(&base, "flt");
    exec.proxy(&parent_url, flt_tid, Some("flt")).unwrap();
    let mut ru_names = Vec::new();
    for (i, url) in ru_links.iter().enumerate() {
        let ru_tid = read_tid(&base, &format!("ru{i}"));
        let alias = format!("ru{i}");
        exec.proxy(url, ru_tid, Some(&alias)).unwrap();
        ru_names.push(alias);
    }
    let tid = exec
        .register(
            "builder",
            Box::new(BuilderUnit::new()),
            &[
                ("rus", &ru_names.join(",")),
                ("filter", "flt"),
                ("credits", "6"),
                ("timeout_ms", "40"),
                ("max_retries", "400"),
            ],
        )
        .unwrap();
    exec.enable_all();
    let _h = exec.spawn();
    write_tid(&base, &format!("bu{j}"), tid);
    std::thread::sleep(Duration::from_secs(600)); // killed by the parent
}
