//! End-to-end flow-control and QoS integration tests (DESIGN.md §13):
//! credit-based backpressure over loopback, shm and xpt, the reserved
//! control lane under saturation, blocked-sender frame return without
//! pool leaks, chaos on the grant path, and two-tenant admission.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use xdaq::core::config::kv;
use xdaq::core::{
    Delivery, Dispatcher, ExecError, Executive, ExecutiveConfig, FlowConfig, FlowPolicy,
    I2oListener, LinkState, PeerTransport, PtError, SupervisionConfig,
};
use xdaq::i2o::{DeviceClass, Message, Priority, Tid, UtilFn};
use xdaq::mempool::TablePool;
use xdaq::pt::{ChaosPt, FaultPlan, LoopbackHub, LoopbackPt, XptPt};

const XFN_DATA: u16 = 0x0300;

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

/// Counts private frames; optionally sleeps per frame (slow consumer).
struct Sink {
    received: Arc<AtomicU64>,
    delay: Duration,
}

impl Sink {
    fn new(delay: Duration) -> (Sink, Arc<AtomicU64>) {
        let received = Arc::new(AtomicU64::new(0));
        (
            Sink {
                received: received.clone(),
                delay,
            },
            received,
        )
    }
}

impl I2oListener for Sink {
    fn class(&self) -> DeviceClass {
        DeviceClass::Application(0x0DAB)
    }

    fn on_private(&mut self, _ctx: &mut Dispatcher<'_>, _msg: Delivery) {
        if !self.delay.is_zero() {
            std::thread::sleep(self.delay);
        }
        self.received.fetch_add(1, Ordering::Relaxed);
    }
}

fn flow_cfg() -> FlowConfig {
    FlowConfig {
        window: 16,
        high_watermark: 8,
        policy: FlowPolicy::FailFast,
        reserve: 2,
        tick: Duration::from_millis(5),
    }
}

fn data_frame(dest: Tid) -> Message {
    Message::build_private(dest, Tid::HOST, 0x0DAB, XFN_DATA)
        .payload(vec![0x42u8; 64])
        .finish()
}

fn is_credit_exhausted(e: &ExecError) -> bool {
    matches!(e, ExecError::Transport(PtError::CreditExhausted(_)))
}

/// Posts `count` frames toward `dest`, retrying on credit exhaustion,
/// until `budget` runs out. Returns the number that got through.
fn flood_with_retry(exec: &Executive, dest: Tid, count: u64, budget: Duration) -> u64 {
    let deadline = Instant::now() + budget;
    let mut delivered = 0;
    while delivered < count && Instant::now() < deadline {
        match exec.post(data_frame(dest)) {
            Ok(()) => delivered += 1,
            Err(e) if is_credit_exhausted(&e) => {
                std::thread::sleep(Duration::from_micros(200));
            }
            Err(e) => panic!("unexpected send error: {e}"),
        }
    }
    delivered
}

/// Satellite 1 — the reserved control lane: a flooder exhausts every
/// data credit toward a slow consumer, yet heartbeats keep flowing on
/// the unmetered lane, so the saturated link is never Suspected or
/// declared Down.
#[test]
fn saturated_link_keeps_peer_up() {
    let hub = LoopbackHub::new();
    let sup = SupervisionConfig {
        interval: Duration::from_millis(20),
        suspect_after: 3,
        down_after: 6,
    };
    let mut ca = ExecutiveConfig::named("a");
    ca.supervision = Some(sup.clone());
    ca.flow = Some(flow_cfg());
    let mut cb = ExecutiveConfig::named("b");
    cb.supervision = Some(sup);
    cb.flow = Some(flow_cfg());
    let a = Executive::new(ca);
    let b = Executive::new(cb);
    a.register_pt("a.loop", LoopbackPt::new(&hub, "a")).unwrap();
    b.register_pt("b.loop", LoopbackPt::new(&hub, "b")).unwrap();

    // b's consumer sleeps 3ms per frame: its queue backs up past the
    // watermark, grants stop, and a's window runs dry.
    let (sink, received) = Sink::new(Duration::from_millis(3));
    let sink_tid = b.register("sink", Box::new(sink), &[]).unwrap();
    let proxy = a.proxy("loop://b", sink_tid, None).unwrap();
    a.supervise("loop://b").unwrap();
    a.enable_all();
    b.enable_all();
    let ha = a.spawn();
    let hb = b.spawn();

    // Flood for ~1.2s: far more than the window allows through.
    let t0 = Instant::now();
    let mut exhausted = 0u64;
    let mut sent = 0u64;
    while t0.elapsed() < Duration::from_millis(1200) {
        match a.post(data_frame(proxy)) {
            Ok(()) => sent += 1,
            Err(e) if is_credit_exhausted(&e) => {
                exhausted += 1;
                std::thread::sleep(Duration::from_micros(100));
            }
            Err(e) => panic!("unexpected send error: {e}"),
        }
    }

    assert!(
        exhausted > 0,
        "flood never hit the credit wall ({sent} sent)"
    );
    assert!(sent > 0, "no frame was ever admitted");
    // The link must have stayed Up the whole time: heartbeats ride the
    // reserved lane, immune to data-credit exhaustion.
    let states = a.link_states();
    assert!(
        states
            .iter()
            .any(|(p, s)| p == "loop://b" && *s == LinkState::Up),
        "saturated link degraded: {states:?}"
    );
    let metrics = a.core().monitors().registry().snapshot();
    let c = &metrics["counters"];
    assert_eq!(c["link.peer_suspect"].as_u64().unwrap(), 0, "{metrics}");
    assert_eq!(c["link.peer_down"].as_u64().unwrap(), 0, "{metrics}");
    assert!(c["link.hb_pings"].as_u64().unwrap() > 0, "{metrics}");
    assert!(c["flow.credit_failures"].as_u64().unwrap() > 0, "{metrics}");

    // Back off: the slow consumer drains, grants resume, and every
    // admitted frame arrives.
    assert!(
        wait_until(
            || received.load(Ordering::Relaxed) >= sent,
            Duration::from_secs(60)
        ),
        "admitted frames lost: {} of {sent}",
        received.load(Ordering::Relaxed)
    );
    ha.shutdown();
    hb.shutdown();
}

/// Satellite 2 — FlowPolicy::Block returns the frame zero-copy on
/// deadline expiry, and nothing leaks: after the receiver drains, the
/// sender's pool is back to zero live blocks.
#[test]
fn credit_block_returns_frame_without_leak() {
    let hub = LoopbackHub::new();
    let mut ca = ExecutiveConfig::named("a");
    ca.flow = Some(FlowConfig {
        policy: FlowPolicy::Block {
            deadline: Duration::from_millis(25),
        },
        ..flow_cfg()
    });
    let a = Executive::new(ca);
    a.register_pt("a.loop", LoopbackPt::new(&hub, "a")).unwrap();
    // The "peer": a bare mailbox that never grants credits.
    let b_pt = LoopbackPt::new(&hub, "b");
    let proxy = a.proxy("loop://b", Tid::new(0x50).unwrap(), None).unwrap();
    a.enable_all();

    // Meter the lane by hand: 4 credits, 2 of which are the reserved
    // control lane, so exactly two bulk frames fit and no
    // replenishment will ever arrive.
    let peer = "loop://b".parse().unwrap();
    let mgr = a.core().flow().expect("flow enabled").clone();
    mgr.on_grant(&peer, 1, 4);

    a.post(data_frame(proxy)).unwrap();
    a.post(data_frame(proxy)).unwrap();
    let t0 = Instant::now();
    let err = a.post(data_frame(proxy)).unwrap_err();
    let waited = t0.elapsed();
    assert!(is_credit_exhausted(&err), "got: {err}");
    assert!(
        waited >= Duration::from_millis(20),
        "Block policy returned too early: {waited:?}"
    );
    assert!(mgr.counters().credit_waits.get() > 0);
    assert!(mgr.counters().credit_failures.get() > 0);

    // The blocked frame was recycled, the two delivered ones sit in
    // the peer mailbox; draining it recycles them too. Zero leaks.
    b_pt.stop();
    let stats = a.core().allocator().stats();
    assert_eq!(
        stats.live_blocks, 0,
        "pool blocks leaked across credit exhaustion: {stats:?}"
    );
}

/// Satellite 3 — chaos on the credit path: 30% of grants are dropped
/// and 20% duplicated (fixed seed), yet the cumulative/idempotent
/// protocol converges — zero deadlock, zero loss, bounded time.
#[test]
fn grant_chaos_converges_with_zero_loss() {
    const COUNT: u64 = 500;
    let hub = LoopbackHub::new();
    let mut ca = ExecutiveConfig::named("a");
    ca.flow = Some(flow_cfg());
    let mut cb = ExecutiveConfig::named("b");
    cb.flow = Some(flow_cfg());
    let a = Executive::new(ca);
    let b = Executive::new(cb);
    a.register_pt("a.loop", LoopbackPt::new(&hub, "a")).unwrap();
    // Grants flow b -> a, so the chaos wrapper goes on b's transport
    // and targets only CreditGrant frames: data flows clean, the
    // credit protocol alone is perturbed.
    let chaos = ChaosPt::wrap(
        LoopbackPt::new(&hub, "b"),
        0xC0FFEE,
        FaultPlan {
            grant_drop_per_mille: 300,
            grant_dup_per_mille: 200,
            ..FaultPlan::default()
        },
    );
    b.register_pt("b.chaos", chaos.clone()).unwrap();

    let (sink, received) = Sink::new(Duration::ZERO);
    let sink_tid = b.register("sink", Box::new(sink), &[]).unwrap();
    let proxy = a.proxy("loop://b", sink_tid, None).unwrap();
    a.enable_all();
    b.enable_all();
    let ha = a.spawn();
    let hb = b.spawn();

    let delivered = flood_with_retry(&a, proxy, COUNT, Duration::from_secs(30));
    assert_eq!(delivered, COUNT, "sender wedged: credit protocol deadlock");
    assert!(
        wait_until(
            || received.load(Ordering::Relaxed) >= COUNT,
            Duration::from_secs(30)
        ),
        "frames lost under grant chaos: {} of {COUNT}",
        received.load(Ordering::Relaxed)
    );
    let stats = chaos.stats();
    assert!(
        stats.grants_dropped > 0,
        "chaos never hit a grant: {stats:?}"
    );
    ha.shutdown();
    hb.shutdown();
}

/// Satellite 5 (soak, loopback edition of the two-tenant story): a
/// rate-limited bulk tenant is shed at admission while the gold tenant
/// delivers everything; shed counters surface in the snapshot.
#[test]
fn two_tenant_admission_sheds_bulk_not_gold() {
    const PER_TENANT: u64 = 300;
    let hub = LoopbackHub::new();
    let a = Executive::new(ExecutiveConfig::named("a"));
    let b = Executive::new(ExecutiveConfig::named("b"));
    a.register_pt("a.loop", LoopbackPt::new(&hub, "a")).unwrap();
    b.register_pt("b.loop", LoopbackPt::new(&hub, "b")).unwrap();
    let (sink, received) = Sink::new(Duration::ZERO);
    let sink_tid = b.register("sink", Box::new(sink), &[]).unwrap();
    let proxy = a.proxy("loop://b", sink_tid, None).unwrap();
    a.enable_all();
    b.enable_all();
    let ha = a.spawn();
    let hb = b.spawn();

    let gold = Tid::new(0x30).unwrap();
    let bulk = Tid::new(0x31).unwrap();
    // Tenant policy arrives as a plain ParamsSet frame addressed to
    // the executive — the same path `xcl qos` drives remotely.
    let params = kv(&[
        ("qos.class.gold", "1000000:1000000"),
        ("qos.class.bulk", "0:50"),
        (&format!("qos.assign.{}", gold.raw()), "gold"),
        (&format!("qos.assign.{}", bulk.raw()), "bulk"),
    ]);
    a.post(
        Message::util(Tid::EXECUTIVE, Tid::HOST, UtilFn::ParamsSet)
            .payload(params)
            .finish(),
    )
    .unwrap();
    assert!(
        wait_until(|| !a.core().admission().is_empty(), Duration::from_secs(5)),
        "qos ParamsSet never applied"
    );

    let tenant_frame = |initiator: Tid| {
        Message::build_private(proxy, initiator, 0x0DAB, XFN_DATA)
            .priority(Priority::MAX)
            .payload(vec![0u8; 32])
            .finish()
    };
    let mut gold_ok = 0u64;
    let mut bulk_ok = 0u64;
    let mut bulk_shed = 0u64;
    for _ in 0..PER_TENANT {
        match a.post(tenant_frame(bulk)) {
            Ok(()) => bulk_ok += 1,
            Err(ExecError::Shed(t)) => {
                assert_eq!(t, bulk);
                bulk_shed += 1;
            }
            Err(e) => panic!("bulk: {e}"),
        }
        match a.post(tenant_frame(gold)) {
            Ok(()) => gold_ok += 1,
            Err(e) => panic!("gold tenant must never shed: {e}"),
        }
    }
    assert_eq!(gold_ok, PER_TENANT, "gold throughput degraded");
    assert_eq!(bulk_ok, 50, "bulk burst allowance"); // burst=50, rate=0
    assert_eq!(bulk_shed, PER_TENANT - 50);

    // Every admitted frame arrives; shed ones never consumed a slot.
    assert!(
        wait_until(
            || received.load(Ordering::Relaxed) >= gold_ok + bulk_ok,
            Duration::from_secs(30)
        ),
        "admitted frames lost: {}",
        received.load(Ordering::Relaxed)
    );
    let snap = a.core().mon_snapshot();
    assert_eq!(
        snap["qos"]["classes"]["bulk"]["shed"].as_u64(),
        Some(bulk_shed)
    );
    assert_eq!(snap["qos"]["classes"]["gold"]["shed"].as_u64(), Some(0));
    let metrics = a.core().monitors().registry().snapshot();
    assert_eq!(
        metrics["counters"]["qos.bulk.shed"].as_u64(),
        Some(bulk_shed)
    );
    ha.shutdown();
    hb.shutdown();
}

/// Runtime retuning: `flow.*` keys through ParamsSet adjust the live
/// window/policy, and the replenish threshold follows the window.
#[test]
fn flow_params_retune_at_runtime() {
    let mut cfg = ExecutiveConfig::named("a");
    cfg.flow = Some(flow_cfg());
    let a = Executive::new(cfg);
    a.enable_all();
    let ha = a.spawn();
    a.post(
        Message::util(Tid::EXECUTIVE, Tid::HOST, UtilFn::ParamsSet)
            .payload(kv(&[("flow.window", "64"), ("flow.policy", "fail")]))
            .finish(),
    )
    .unwrap();
    assert!(
        wait_until(
            || a.core().flow().unwrap().config().window == 64,
            Duration::from_secs(5)
        ),
        "flow.window retune never applied"
    );
    let cfg_now = a.core().flow().unwrap().config();
    assert_eq!(cfg_now.replenish(), 32);
    assert!(matches!(cfg_now.policy, FlowPolicy::FailFast));
    ha.shutdown();
}

/// A rejected ParamsSet changes nothing: every `flow.*` and `qos.*`
/// key is checked before any is applied, whatever order the frame's
/// map yields them in. A window of 0 (grants nothing) and a reserve
/// that fills the window (starves bulk traffic) are refused too.
#[test]
fn rejected_params_set_changes_nothing() {
    let refused = [
        vec![
            ("flow.window", "8"),
            ("flow.watermark", "3"),
            ("flow.tick_ms", "7"),
            ("qos.class.t", "10:5"),
            ("flow.replenish", "1"),
        ],
        vec![("flow.window", "0")],
        vec![("flow.reserve", "16")],
        vec![("flow.window", "4"), ("flow.reserve", "4")],
    ];
    let params_set = |a: &Executive, pairs: &[(&str, &str)]| {
        a.post(
            Message::util(Tid::EXECUTIVE, Tid::HOST, UtilFn::ParamsSet)
                .payload(kv(pairs))
                .finish(),
        )
        .unwrap();
        while a.run_once() > 0 {}
    };
    for round in 0..20 {
        for pairs in &refused {
            let mut cfg = ExecutiveConfig::named("a");
            cfg.flow = Some(flow_cfg());
            let a = Executive::new(cfg);
            params_set(&a, pairs);
            assert_eq!(
                a.core().flow().unwrap().config(),
                flow_cfg(),
                "round {round}: {pairs:?} changed the live flow config"
            );
            assert!(
                a.core().admission().is_empty(),
                "round {round}: {pairs:?} added a qos class"
            );
            // The same node takes a valid frame, so the refusal above
            // was a decision, not a frame left undispatched.
            params_set(&a, &[("flow.window", "8"), ("qos.class.t", "10:5")]);
            assert_eq!(a.core().flow().unwrap().config().window, 8);
            assert!(!a.core().admission().is_empty());
        }
    }
}

/// The shm slow-consumer soak: same story over a shared-memory region
/// (in-process creator/attacher pair — the transport does not care).
#[test]
fn shm_slow_consumer_soak() {
    const COUNT: u64 = 400;
    let region = std::env::temp_dir().join(format!("xdaq-flow-soak-{}", std::process::id()));
    let a_pt = xdaq::shm::ShmPt::new(xdaq::core::PtMode::Polling);
    let link = a_pt
        .create_link(
            &region,
            xdaq::shm::ShmConfig {
                block_size: 4096,
                nblocks: 256,
                ring_capacity: 512,
            },
        )
        .unwrap();
    let peer = link.peer_addr().clone();
    let b_pt = xdaq::shm::ShmPt::new(xdaq::core::PtMode::Polling);
    b_pt.attach_link(&region).unwrap();

    let mut ca = ExecutiveConfig::named("a");
    ca.flow = Some(flow_cfg());
    let mut cb = ExecutiveConfig::named("b");
    cb.flow = Some(flow_cfg());
    let a = Executive::new(ca);
    let b = Executive::new(cb);
    a.register_pt("a.shm", a_pt).unwrap();
    b.register_pt("b.shm", b_pt).unwrap();
    let (sink, received) = Sink::new(Duration::from_micros(500));
    let sink_tid = b.register("sink", Box::new(sink), &[]).unwrap();
    let proxy = a.proxy(&peer.to_string(), sink_tid, None).unwrap();
    a.enable_all();
    b.enable_all();
    let ha = a.spawn();
    let hb = b.spawn();

    a.post(data_frame(proxy)).unwrap();
    let mgr = a.core().flow().unwrap().clone();
    assert!(
        wait_until(|| mgr.available(&peer).is_some(), Duration::from_secs(10)),
        "bring-up grant never arrived over shm"
    );
    let delivered = flood_with_retry(&a, proxy, COUNT - 1, Duration::from_secs(60));
    assert_eq!(delivered, COUNT - 1, "shm sender wedged");
    assert!(
        wait_until(
            || received.load(Ordering::Relaxed) >= COUNT,
            Duration::from_secs(60)
        ),
        "frames lost over shm: {} of {COUNT}",
        received.load(Ordering::Relaxed)
    );
    assert!(
        mgr.counters().credit_failures.get() > 0,
        "flood never exercised shm backpressure"
    );
    ha.shutdown();
    hb.shutdown();
    let sa = a.core().allocator().stats();
    assert_eq!(sa.live_blocks, 0, "sender pool leak: {sa:?}");
    let _ = std::fs::remove_file(&region);
}

/// The socket slow-consumer soak: the batched submission/completion
/// transport honors the same credit wall as loopback — retry/failover
/// and credit gating compose unchanged through
/// `Pta::send_failover_returning` — and a slow consumer leaks no pool
/// blocks even though sends complete asynchronously on the driver
/// thread (submission-ring frames must come home on teardown too).
#[test]
fn xpt_slow_consumer_soak() {
    const COUNT: u64 = 400;
    let mut ca = ExecutiveConfig::named("a");
    ca.flow = Some(flow_cfg());
    let mut cb = ExecutiveConfig::named("b");
    cb.flow = Some(flow_cfg());
    let a = Executive::new(ca);
    let b = Executive::new(cb);
    a.register_pt(
        "a.xpt",
        XptPt::bind("127.0.0.1:0", TablePool::with_defaults()).unwrap(),
    )
    .unwrap();
    let b_xpt = XptPt::bind("127.0.0.1:0", TablePool::with_defaults()).unwrap();
    let b_url = b_xpt.addr().to_string();
    b.register_pt("b.xpt", b_xpt).unwrap();

    let (sink, received) = Sink::new(Duration::from_micros(500));
    let sink_tid = b.register("sink", Box::new(sink), &[]).unwrap();
    let proxy = a.proxy(&b_url, sink_tid, None).unwrap();
    a.enable_all();
    b.enable_all();
    let ha = a.spawn();
    let hb = b.spawn();

    let peer = b_url.parse().unwrap();
    a.post(data_frame(proxy)).unwrap();
    let mgr = a.core().flow().unwrap().clone();
    assert!(
        wait_until(|| mgr.available(&peer).is_some(), Duration::from_secs(10)),
        "bring-up grant never arrived over xpt"
    );

    let delivered = flood_with_retry(&a, proxy, COUNT - 1, Duration::from_secs(60));
    assert_eq!(delivered, COUNT - 1, "xpt sender wedged");
    assert!(
        wait_until(
            || received.load(Ordering::Relaxed) >= COUNT,
            Duration::from_secs(60)
        ),
        "frames lost over xpt: {} of {COUNT}",
        received.load(Ordering::Relaxed)
    );
    assert!(
        mgr.counters().credit_failures.get() > 0,
        "flood never exercised xpt backpressure"
    );
    ha.shutdown();
    hb.shutdown();
    let sa = a.core().allocator().stats();
    assert_eq!(sa.live_blocks, 0, "sender pool leak: {sa:?}");
}

/// The `qos` xcl command retunes admission and flow on a remote node
/// over plain I2O frames and reads the shed counters back from a mon
/// scrape — the operator's view of multi-tenant degradation.
#[test]
fn xcl_qos_command_programs_and_reports() {
    let mut cfg = ExecutiveConfig::named("worker");
    cfg.flow = Some(flow_cfg());
    let node = Executive::new(cfg);
    let w_xpt = XptPt::bind("127.0.0.1:0", TablePool::with_defaults()).unwrap();
    let w_url = w_xpt.addr().to_string();
    node.register_pt("worker.xpt", w_xpt).unwrap();
    let nh = node.spawn();

    let host = xdaq::ctl::ControlHost::new("ctl");
    host.executive()
        .register_pt(
            "ctl.pt",
            XptPt::bind("127.0.0.1:0", TablePool::with_defaults()).unwrap(),
        )
        .unwrap();
    host.start();

    let mut interp = xdaq::ctl::XclInterpreter::new(&host);
    let script = format!(
        "node w {w_url}\n\
         claim w\n\
         qos w class.bulk=0:5 assign.49=bulk flow.window=48\n\
         qos w\n"
    );
    let out = interp.run(&script).unwrap();
    assert!(
        out.log.iter().any(|l| l.contains("qos w: 3 knobs")),
        "{:?}",
        out.log
    );
    // Remote state actually changed: window retuned, class installed.
    assert_eq!(node.core().flow().unwrap().config().window, 48);
    let status = out
        .log
        .iter()
        .find(|l| l.contains("bulk:"))
        .unwrap_or_else(|| panic!("qos status line missing: {:?}", out.log));
    assert!(status.contains("shed=0"), "{status}");

    // Shed some bulk traffic (admission gates route(), so a local
    // post exercises it), then re-read the counters remotely.
    let bulk = Tid::new(49).unwrap();
    let sink_tid = {
        let (sink, _received) = Sink::new(Duration::ZERO);
        node.register("sink", Box::new(sink), &[]).unwrap()
    };
    node.enable_all();
    let mut shed = 0u64;
    for _ in 0..20 {
        match node.post(Message::build_private(sink_tid, bulk, 0x0DAB, XFN_DATA).finish()) {
            Ok(()) => {}
            Err(ExecError::Shed(_)) => shed += 1,
            Err(e) => panic!("{e}"),
        }
    }
    assert_eq!(shed, 15, "burst=5 then shed");
    let out = interp.run("qos w\n").unwrap();
    let status = out
        .log
        .iter()
        .find(|l| l.contains("bulk:"))
        .expect("qos status line");
    assert!(status.contains("shed=15"), "{status}");
    assert!(status.contains("admitted=5"), "{status}");

    // A malformed knob is a visible script error, not a silent no-op.
    let err = interp.run("qos w class.bad=oops\n").unwrap_err();
    assert!(err.message.contains("class"), "{}", err.message);
    host.stop();
    nh.shutdown();
}
