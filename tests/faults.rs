//! Fault-injection integration tests: ChaosPt over loopback, PTA
//! retry/failover, and link supervision end to end.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};
use xdaq::app::{xfn, PingState, Pinger, Ponger};
use xdaq::core::{Executive, ExecutiveConfig, LinkState, RetryPolicy, SupervisionConfig};
use xdaq::ctl::{ControlHost, XclInterpreter};
use xdaq::evb::ORG_DAQ;
use xdaq::i2o::{Message, Tid};
use xdaq::mempool::TablePool;
use xdaq::pt::{ChaosPt, FaultPlan, LoopbackHub, LoopbackPt, XptPt};

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

fn retrying(attempts: u32) -> RetryPolicy {
    RetryPolicy {
        max_attempts: attempts,
        base_backoff: Duration::from_micros(100),
    }
}

/// Builds the chaotic ping-pong pair: node `a` sends through a
/// fault-injecting wrapper, node `b` is healthy. Returns everything a
/// test needs to drive and inspect the run.
fn chaotic_pair(
    seed: u64,
    plan: FaultPlan,
    count: u64,
) -> (Executive, Executive, Arc<ChaosPt>, Arc<PingState>, Tid) {
    let hub = LoopbackHub::new();
    let mut cfg = ExecutiveConfig::named("a");
    cfg.retry = retrying(10);
    let a = Executive::new(cfg);
    let b = Executive::new(ExecutiveConfig::named("b"));
    let chaos = ChaosPt::wrap(LoopbackPt::new(&hub, "a"), seed, plan);
    a.register_pt("a.chaos", chaos.clone()).unwrap();
    b.register_pt("b.loop", LoopbackPt::new(&hub, "b")).unwrap();

    let state = PingState::new();
    let pong_tid = b.register("pong", Box::new(Ponger::new()), &[]).unwrap();
    let proxy = a.proxy("loop://b", pong_tid, None).unwrap();
    let ping_tid = a
        .register(
            "ping",
            Box::new(Pinger::new(state.clone())),
            &[
                ("peer", &proxy.raw().to_string()),
                ("payload", "128"),
                ("count", &count.to_string()),
            ],
        )
        .unwrap();
    a.enable_all();
    b.enable_all();
    (a, b, chaos, state, ping_tid)
}

/// ChaosPt refuses ~30% of sends, yet the retry policy resubmits the
/// returned frame until it gets through: every single ping-pong reply
/// arrives — zero frames lost.
#[test]
fn chaos_rejects_thirty_percent_yet_all_replies_arrive() {
    const COUNT: u64 = 400;
    let (a, b, chaos, state, ping_tid) = chaotic_pair(0xDEC0DE, FaultPlan::failing(300), COUNT);
    let ha = a.spawn();
    let hb = b.spawn();
    a.post(Message::build_private(ping_tid, Tid::HOST, ORG_DAQ, xfn::PING_START).finish())
        .unwrap();
    assert!(
        wait_until(
            || state.done.load(Ordering::SeqCst),
            Duration::from_secs(30)
        ),
        "chaotic ping-pong incomplete: {} of {COUNT} (chaos {:?})",
        state.completed.load(Ordering::SeqCst),
        chaos.stats(),
    );
    assert_eq!(state.completed.load(Ordering::SeqCst), COUNT);
    let stats = chaos.stats();
    assert!(
        stats.failed > COUNT / 10,
        "expected ~30% injected failures, saw {stats:?}"
    );
    // Every injected failure was absorbed by a retry, visible in mon.
    let metrics = a.core().monitors().registry().snapshot();
    assert!(metrics["counters"]["pta.retries"].as_u64().unwrap() >= stats.failed);
    assert!(metrics["counters"]["pta.send_failures"].as_u64().unwrap() >= stats.failed);
    ha.shutdown();
    hb.shutdown();
}

/// The same seed replays the same fault schedule: the smoke test CI
/// runs to catch nondeterminism creeping into the harness.
#[test]
fn fixed_seed_chaos_run_is_deterministic() {
    const COUNT: u64 = 150;
    let run = |seed: u64| {
        let (a, b, chaos, state, ping_tid) = chaotic_pair(seed, FaultPlan::failing(250), COUNT);
        let ha = a.spawn();
        let hb = b.spawn();
        a.post(Message::build_private(ping_tid, Tid::HOST, ORG_DAQ, xfn::PING_START).finish())
            .unwrap();
        assert!(wait_until(
            || state.done.load(Ordering::SeqCst),
            Duration::from_secs(30)
        ));
        ha.shutdown();
        hb.shutdown();
        (state.completed.load(Ordering::SeqCst), chaos.stats())
    };
    let (done1, stats1) = run(99);
    let (done2, stats2) = run(99);
    assert_eq!(done1, COUNT);
    assert_eq!(done2, COUNT);
    assert_eq!(stats1, stats2, "fixed seed must replay the same schedule");
    let (_, stats3) = run(100);
    assert_ne!(stats1, stats3, "a different seed perturbs the schedule");
}

/// The full failover story: the primary loopback link is killed
/// mid-run; per-send failover rides the alternate `xpt://` route while the
/// supervisor's heartbeats miss, declare the peer Down, and promote
/// the alternate to primary. Zero frames lost, and the monitoring
/// registry shows the retries, failovers, and the Down transition.
#[test]
fn primary_killed_mid_run_fails_over_with_zero_loss() {
    const COUNT: u64 = 1200;
    let hub = LoopbackHub::new();
    let mut cfg = ExecutiveConfig::named("a");
    cfg.retry = RetryPolicy {
        max_attempts: 3,
        base_backoff: Duration::from_micros(200),
    };
    cfg.supervision = Some(SupervisionConfig {
        interval: Duration::from_millis(20),
        suspect_after: 2,
        down_after: 4,
    });
    let a = Executive::new(cfg);
    let b = Executive::new(ExecutiveConfig::named("b"));

    let chaos = ChaosPt::wrap(LoopbackPt::new(&hub, "a"), 7, FaultPlan::default());
    a.register_pt("a.chaos", chaos.clone()).unwrap();
    a.register_pt(
        "a.xpt",
        XptPt::bind("127.0.0.1:0", TablePool::with_defaults()).unwrap(),
    )
    .unwrap();
    b.register_pt("b.loop", LoopbackPt::new(&hub, "b")).unwrap();
    let b_xpt = XptPt::bind("127.0.0.1:0", TablePool::with_defaults()).unwrap();
    let b_url = b_xpt.addr().to_string();
    b.register_pt("b.xpt", b_xpt).unwrap();

    let state = PingState::new();
    let pong_tid = b.register("pong", Box::new(Ponger::new()), &[]).unwrap();
    let proxy = a.proxy("loop://b", pong_tid, None).unwrap();
    assert!(a.add_alternate(proxy, &b_url).unwrap());
    a.supervise("loop://b").unwrap();
    let ping_tid = a
        .register(
            "ping",
            Box::new(Pinger::new(state.clone())),
            &[
                ("peer", &proxy.raw().to_string()),
                ("payload", "128"),
                ("count", &COUNT.to_string()),
            ],
        )
        .unwrap();
    a.enable_all();
    b.enable_all();
    let ha = a.spawn();
    let hb = b.spawn();

    a.post(Message::build_private(ping_tid, Tid::HOST, ORG_DAQ, xfn::PING_START).finish())
        .unwrap();
    // Let the run get going, then murder the primary link.
    assert!(
        wait_until(
            || state.completed.load(Ordering::SeqCst) >= 200,
            Duration::from_secs(20)
        ),
        "run never got going: {}",
        state.completed.load(Ordering::SeqCst)
    );
    chaos.kill();

    assert!(
        wait_until(
            || state.done.load(Ordering::SeqCst),
            Duration::from_secs(30)
        ),
        "failover run incomplete: {} of {COUNT}",
        state.completed.load(Ordering::SeqCst)
    );
    assert_eq!(state.completed.load(Ordering::SeqCst), COUNT, "frames lost");

    // The supervisor declared the dead link Down...
    assert!(wait_until(
        || a.link_states()
            .iter()
            .any(|(p, s)| p == "loop://b" && *s == LinkState::Down),
        Duration::from_secs(5)
    ));
    // ...and the monitoring registry recorded the whole story.
    let metrics = a.core().monitors().registry().snapshot();
    let c = &metrics["counters"];
    assert!(c["pta.retries"].as_u64().unwrap() > 0, "{metrics}");
    assert!(c["pta.failovers"].as_u64().unwrap() > 0, "{metrics}");
    assert!(c["link.peer_down"].as_u64().unwrap() >= 1, "{metrics}");
    assert!(c["link.hb_pings"].as_u64().unwrap() > 0, "{metrics}");
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
         faults pt0 fail=250 delay_every=8 chaos.delay_ms=3\n\
         faults pt0 kill=1\n",
        pt_tid.raw()
    );
    let out = interp.run(&script).unwrap();
    assert!(out.log.iter().any(|l| l.contains("faults pt0: 3 knobs")));
    let p = chaos.plan();
    assert_eq!(p.fail_per_mille, 250);
    assert_eq!(p.delay_every, 8);
    assert_eq!(p.delay, Duration::from_millis(3));
    assert!(chaos.is_killed());
    // A bad knob value is a visible script error, not a silent no-op.
    let err = interp.run("faults pt0 fail=9999\n").unwrap_err();
    assert!(err.message.contains("fail"), "{}", err.message);
    host.stop();
    nh.shutdown();
}
