//! Fault-injection integration tests: ChaosPt over loopback, a dropped
//! frame that is never resent, and link supervision end to end.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use xdaq::core::config::parse_kv;
use xdaq::core::xfn::XFN_PEER_DOWN;
use xdaq::core::{
    Delivery, Dispatcher, ExecError, Executive, ExecutiveConfig, I2oListener, LinkState,
    SupervisionConfig,
};
use xdaq::ctl::{ControlError, ControlHost, XclInterpreter};
use xdaq::evb::{EventManager, ORG_DAQ};
use xdaq::i2o::{DeviceClass, Message, ReplyStatus, Tid, ORG_XDAQ};
use xdaq::mempool::TablePool;
use xdaq::pt::{ChaosPt, ChaosStats, FaultPlan, LoopbackHub, LoopbackPt, XptPt};

fn wait_until(cond: impl Fn() -> bool, timeout: Duration) -> bool {
    let deadline = Instant::now() + timeout;
    while Instant::now() < deadline {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    cond()
}

/// Counts the private frames it receives.
struct Sink {
    got: Arc<AtomicU64>,
}

impl I2oListener for Sink {
    fn class(&self) -> DeviceClass {
        DeviceClass::Application(ORG_DAQ)
    }
    fn on_private(&mut self, _ctx: &mut Dispatcher<'_>, _msg: Delivery) {
        self.got.fetch_add(1, Ordering::SeqCst);
    }
}

/// Keeps the payload of every `XFN_PEER_DOWN` fault event.
struct FaultLog {
    peer_down: Arc<parking_lot::Mutex<Vec<HashMap<String, String>>>>,
}

impl I2oListener for FaultLog {
    fn class(&self) -> DeviceClass {
        DeviceClass::Application(ORG_XDAQ)
    }
    fn on_private(&mut self, _ctx: &mut Dispatcher<'_>, msg: Delivery) {
        let p = msg.private.expect("private frame");
        if (p.org_id, p.x_function) == (ORG_XDAQ, XFN_PEER_DOWN) {
            let kv = parse_kv(msg.payload()).expect("kv payload");
            self.peer_down.lock().push(kv);
        }
    }
}

/// Node `a` sends through a fault-injecting wrapper around its
/// loopback transport; node `b` is healthy and counts what arrives at
/// its sink. Returns both nodes, the wrapper, the sink's count and the
/// proxy TiD on `a` that leads to the sink.
fn chaotic_pair(
    seed: u64,
    plan: FaultPlan,
    a_cfg: ExecutiveConfig,
) -> (Executive, Executive, Arc<ChaosPt>, Arc<AtomicU64>, Tid) {
    let hub = LoopbackHub::new();
    let a = Executive::new(a_cfg);
    let b = Executive::new(ExecutiveConfig::named("b"));
    let chaos = ChaosPt::wrap(LoopbackPt::new(&hub, "a"), seed, plan);
    a.register_pt("a.chaos", chaos.clone()).unwrap();
    b.register_pt("b.loop", LoopbackPt::new(&hub, "b")).unwrap();
    let got = Arc::new(AtomicU64::new(0));
    let sink = b
        .register("sink", Box::new(Sink { got: got.clone() }), &[])
        .unwrap();
    let proxy = a.proxy("loop://b", sink, None).unwrap();
    a.enable_all();
    b.enable_all();
    (a, b, chaos, got, proxy)
}

fn data(target: Tid, seq: u64) -> Message {
    Message::build_private(target, Tid::HOST, ORG_DAQ, 1)
        .payload(seq.to_le_bytes().to_vec())
        .finish()
}

/// Streams `count` frames one way from `a` to `b` over a link that
/// drops `per_mille`‰ of sends. Returns how many arrived, the
/// injected faults and `a`'s `pta.send_failures`, once every frame is
/// accounted for.
fn chaotic_stream(seed: u64, per_mille: u16, count: u64) -> (u64, ChaosStats, u64) {
    let plan = FaultPlan {
        drop_per_mille: per_mille,
    };
    let (a, b, chaos, got, proxy) = chaotic_pair(seed, plan, ExecutiveConfig::named("a"));
    let hb = b.spawn();
    for seq in 0..count {
        a.post(data(proxy, seq))
            .expect("a dropped frame is accepted");
    }
    let stats = chaos.stats();
    assert!(
        wait_until(
            || got.load(Ordering::SeqCst) + stats.dropped == count,
            Duration::from_secs(30)
        ),
        "frames went missing: {} delivered, {} dropped of {count}",
        got.load(Ordering::SeqCst),
        stats.dropped
    );
    hb.shutdown();
    let metrics = a.core().monitors().registry().snapshot();
    let failures = metrics["counters"]["pta.send_failures"].as_u64().unwrap();
    (got.load(Ordering::SeqCst), stats, failures)
}

/// ChaosPt drops ~30% of sends. A dropped frame is sent once and
/// never again, the sender sees no failure, and every frame the link
/// did not drop arrives.
#[test]
fn chaos_drops_thirty_percent_once_and_delivers_the_rest() {
    const COUNT: u64 = 400;
    let (delivered, stats, failures) = chaotic_stream(0xDEC0DE, 300, COUNT);
    assert!(
        stats.dropped > COUNT / 10,
        "expected ~30% dropped sends, saw {stats:?}"
    );
    assert_eq!(failures, 0, "a drop is not a send failure");
    assert_eq!(
        delivered + stats.dropped,
        COUNT,
        "dropped once, never resent"
    );
}

/// The same seed replays the same fault schedule: the smoke test CI
/// runs to catch nondeterminism creeping into the harness.
#[test]
fn fixed_seed_chaos_run_is_deterministic() {
    const COUNT: u64 = 150;
    let run = |seed: u64| {
        let (delivered, stats, failures) = chaotic_stream(seed, 250, COUNT);
        assert_eq!(failures, 0);
        assert_eq!(delivered + stats.dropped, COUNT);
        (delivered, stats)
    };
    let first = run(99);
    assert_eq!(first, run(99), "fixed seed must replay the same schedule");
    assert_ne!(first, run(100), "a different seed perturbs the schedule");
}

/// A supervised link that dies: its heartbeats miss, the supervisor
/// declares the peer Down, the peer's proxy TiD is evicted and freed,
/// and the fault listener hears of it. Recovering the node is the
/// control plane's job, not the transport's.
#[test]
fn killed_supervised_link_goes_down_and_evicts_its_routes() {
    let mut cfg = ExecutiveConfig::named("a");
    cfg.supervision = Some(SupervisionConfig {
        interval: Duration::from_millis(20),
        suspect_after: 2,
        down_after: 4,
    });
    let (a, b, chaos, got, proxy) = chaotic_pair(7, FaultPlan::default(), cfg);
    let peer_down = Arc::new(parking_lot::Mutex::new(Vec::new()));
    let log = a
        .register(
            "faults",
            Box::new(FaultLog {
                peer_down: peer_down.clone(),
            }),
            &[],
        )
        .unwrap();
    a.enable_all();
    a.watch_faults(log);
    a.supervise("loop://b").unwrap();
    let ha = a.spawn();
    let hb = b.spawn();

    for seq in 0..10 {
        a.post(data(proxy, seq)).unwrap();
    }
    assert!(wait_until(
        || got.load(Ordering::SeqCst) == 10,
        Duration::from_secs(10)
    ));
    chaos.kill();

    assert!(
        wait_until(
            || a.link_states()
                .iter()
                .any(|(p, s)| p == "loop://b" && *s == LinkState::Down),
            Duration::from_secs(10)
        ),
        "link never went Down: {:?}",
        a.link_states()
    );
    // The state turns Down before the executive counts the death and
    // evicts the routes; the fault event is posted last.
    assert!(wait_until(
        || !peer_down.lock().is_empty(),
        Duration::from_secs(5)
    ));
    let metrics = a.core().monitors().registry().snapshot();
    assert!(
        metrics["counters"]["link.peer_down"].as_u64().unwrap() >= 1,
        "{metrics}"
    );
    // The proxy is gone: a send to it is refused before any transport.
    assert!(matches!(
        a.post(data(proxy, 10)),
        Err(ExecError::UnknownTid(t)) if t == proxy
    ));
    let event = peer_down.lock()[0].clone();
    assert_eq!(event.get("peer").map(String::as_str), Some("loop://b"));
    let evicted: u64 = event["evicted"].parse().unwrap();
    assert!(evicted >= 1, "the proxy to the sink was evicted: {event:?}");
    assert!(!event.contains_key("promoted"), "{event:?}");
    ha.shutdown();
    hb.shutdown();
}

/// The `faults` xcl command reprograms a remote ChaosPt over plain I2O
/// frames: `ParamsSet` pairs reach `PeerTransport::configure` through
/// the PT's device.
#[test]
fn xcl_faults_command_reprograms_chaos() {
    let hub = LoopbackHub::new();
    let node = Executive::new(ExecutiveConfig::named("worker"));
    // The chaotic data link rides loopback; control rides xpt, so the
    // host can still reach the node after `kill=1` murders the former.
    let chaos = ChaosPt::wrap(LoopbackPt::new(&hub, "worker"), 3, FaultPlan::default());
    let pt_tid = node.register_pt("worker.chaos", chaos.clone()).unwrap();
    let w_xpt = XptPt::bind("127.0.0.1:0", TablePool::with_defaults()).unwrap();
    let w_url = w_xpt.addr().to_string();
    node.register_pt("worker.xpt", w_xpt).unwrap();
    let nh = node.spawn();

    let host = ControlHost::new("ctl");
    host.executive()
        .register_pt(
            "ctl.pt",
            XptPt::bind("127.0.0.1:0", TablePool::with_defaults()).unwrap(),
        )
        .unwrap();
    host.start();

    let mut interp = XclInterpreter::new(&host);
    let script = format!(
        "node w {w_url}\n\
         claim w\n\
         proxy pt0 {w_url} {}\n\
         faults pt0 drop=250 seed=7\n\
         faults pt0 kill=1\n",
        pt_tid.raw()
    );
    let out = interp.run(&script).unwrap();
    assert!(out.log.iter().any(|l| l.contains("faults pt0: 2 knobs")));
    assert_eq!(chaos.plan().drop_per_mille, 250);
    assert!(chaos.is_killed());
    // A bad knob value is a visible script error, not a silent no-op,
    // and so is a knob ChaosPt does not have.
    let err = interp.run("faults pt0 drop=9999\n").unwrap_err();
    assert!(err.message.contains("drop"), "{}", err.message);
    let err = interp.run("faults pt0 fail=300\n").unwrap_err();
    assert!(err.message.contains("chaos.fail"), "{}", err.message);
    host.stop();
    nh.shutdown();
}

/// A transport without runtime knobs refuses every `ParamsSet` key by
/// name and its device stores none of them, so a stale or misspelled
/// knob — here a fault plan aimed at a transport that is not a
/// `ChaosPt` — is a visible error, not a silent no-op.
#[test]
fn params_set_to_a_transport_without_knobs_is_refused_by_key() {
    let hub = LoopbackHub::new();
    let node = Executive::new(ExecutiveConfig::named("worker"));
    let pt_tid = node
        .register_pt("worker.pt", LoopbackPt::new(&hub, "worker"))
        .unwrap();
    let nh = node.spawn();
    let host = ControlHost::new("ctl");
    host.executive()
        .register_pt("ctl.pt", LoopbackPt::new(&hub, "ctl"))
        .unwrap();
    host.start();
    let dev = host.device_proxy("loop://worker", pt_tid).unwrap();
    let err = host.params_set(dev, &[("chaos.drop", "250")]).unwrap_err();
    assert!(err.to_string().contains("chaos.drop"), "{err}");
    let params = host.params_get(dev).unwrap();
    assert!(!params.contains_key("chaos.drop"), "stored: {params:?}");
    host.stop();
    nh.shutdown();
}

/// A claimed device answers only its claimant's `ParamsSet` (paper
/// §3.5), including the devices that answer `ParamsSet` themselves: a
/// second host can neither reprogram a claimed `ChaosPt` nor drain a
/// builder through a claimed event manager, and neither device changes.
#[test]
fn a_claimed_device_refuses_another_hosts_params_set() {
    let hub = LoopbackHub::new();
    let node = Executive::new(ExecutiveConfig::named("worker"));
    // The chaotic link rides loopback; control rides xpt, so no fault
    // plan can eat a reply.
    let chaos = ChaosPt::wrap(LoopbackPt::new(&hub, "worker"), 3, FaultPlan::default());
    let pt_tid = node.register_pt("worker.chaos", chaos.clone()).unwrap();
    let w_xpt = XptPt::bind("127.0.0.1:0", TablePool::with_defaults()).unwrap();
    let w_url = w_xpt.addr().to_string();
    node.register_pt("worker.xpt", w_xpt).unwrap();
    let got = Arc::new(AtomicU64::new(0));
    node.register("bu0", Box::new(Sink { got }), &[]).unwrap();
    let evm = node
        .register("evm", Box::new(EventManager::new()), &[("bus", "bu0")])
        .unwrap();
    node.enable_all();
    let nh = node.spawn();

    let host = |name: &str| {
        let host = ControlHost::new(name);
        let pt = XptPt::bind("127.0.0.1:0", TablePool::with_defaults()).unwrap();
        host.executive().register_pt("ctl.pt", pt).unwrap();
        host.start();
        let pt_dev = host.device_proxy(&w_url, pt_tid).unwrap();
        let evm_dev = host.device_proxy(&w_url, evm).unwrap();
        (host, pt_dev, evm_dev)
    };
    let (x, x_pt, x_evm) = host("x");
    let (y, y_pt, y_evm) = host("y");
    let busy = |r: Result<(), ControlError>| {
        matches!(
            r,
            Err(ControlError::Failed {
                status: ReplyStatus::Busy,
                ..
            })
        )
    };
    let draining = |h: &ControlHost, dev| h.params_get(dev).unwrap()["evb.draining"].clone();

    x.claim(x_pt).unwrap();
    x.claim(x_evm).unwrap();
    assert!(busy(y.params_set(y_pt, &[("chaos.drop", "1000")])));
    assert_eq!(chaos.plan().drop_per_mille, 0, "Y reprogrammed X's ChaosPt");
    assert!(busy(y.params_set(y_evm, &[("evb.drain", "bu0")])));
    assert_eq!(draining(&y, y_evm), "0", "Y drained a builder of X's EVM");
    // The claimant's own verbs still act.
    x.params_set(x_pt, &[("chaos.drop", "250")]).unwrap();
    assert_eq!(chaos.plan().drop_per_mille, 250);
    x.params_set(x_evm, &[("evb.drain", "bu0")]).unwrap();
    assert_eq!(draining(&x, x_evm), "1");
    x.stop();
    y.stop();
    nh.shutdown();
}
