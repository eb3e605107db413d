//! A two-executive cluster surviving a killed transport.
//!
//! Node `ru0` pings node `bu0` over a primary loopback link wrapped in
//! a [`ChaosPt`]. The route carries an alternate `xpt://` address, `ru0`
//! supervises the peer with I2O heartbeats, and its PTA retries failed
//! sends with exponential backoff. Mid-run the primary link is killed:
//!
//! 1. in-flight sends fail, come back with their frame, get retried,
//!    and fail over to the xpt alternate — nothing is lost;
//! 2. heartbeat pongs stop; the supervisor walks the link through
//!    Up -> Suspect -> Down and promotes the xpt alternate to primary;
//! 3. the run completes with zero lost frames, and the monitoring
//!    scrape shows nonzero `pta.retries`, `pta.failovers` and
//!    `link.peer_down`.
//!
//! Run with: `cargo run --example failover`

use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};
use xdaq::app::{xfn, PingState, Pinger, Ponger};
use xdaq::core::{Executive, ExecutiveConfig, RetryPolicy, SupervisionConfig};
use xdaq::evb::ORG_DAQ;
use xdaq::i2o::{Message, Tid};
use xdaq::mempool::TablePool;
use xdaq::pt::{ChaosPt, FaultPlan, LoopbackHub, LoopbackPt, XptPt};

const COUNT: u64 = 2000;

fn main() {
    let hub = LoopbackHub::new();

    // -- ru0: supervised links, retrying PTA, chaotic primary -----------
    let mut cfg = ExecutiveConfig::named("ru0");
    cfg.retry = RetryPolicy {
        max_attempts: 3,
        base_backoff: Duration::from_micros(200),
    };
    cfg.supervision = Some(SupervisionConfig {
        interval: Duration::from_millis(20),
        suspect_after: 2,
        down_after: 4,
    });
    let ru0 = Executive::new(cfg);
    let chaos = ChaosPt::wrap(LoopbackPt::new(&hub, "ru0"), 0xFA11, FaultPlan::default());
    ru0.register_pt("ru0.chaos", chaos.clone()).unwrap();
    ru0.register_pt(
        "ru0.xpt",
        XptPt::bind("127.0.0.1:0", TablePool::with_defaults()).unwrap(),
    )
    .unwrap();

    // -- bu0: plain, reachable over loopback AND xpt --------------------
    let bu0 = Executive::new(ExecutiveConfig::named("bu0"));
    bu0.register_pt("bu0.loop", LoopbackPt::new(&hub, "bu0"))
        .unwrap();
    let bu0_xpt = XptPt::bind("127.0.0.1:0", TablePool::with_defaults()).unwrap();
    let bu0_url = bu0_xpt.addr().to_string();
    bu0.register_pt("bu0.xpt", bu0_xpt).unwrap();

    // -- workload: ping-pong over a route with an alternate -------------
    let state = PingState::new();
    let pong_tid = bu0.register("pong", Box::new(Ponger::new()), &[]).unwrap();
    let proxy = ru0.proxy("loop://bu0", pong_tid, Some("bu0.pong")).unwrap();
    ru0.add_alternate(proxy, &bu0_url).unwrap();
    ru0.supervise("loop://bu0").unwrap();
    let ping_tid = ru0
        .register(
            "ping",
            Box::new(Pinger::new(state.clone())),
            &[
                ("peer", &proxy.raw().to_string()),
                ("payload", "256"),
                ("count", &COUNT.to_string()),
            ],
        )
        .unwrap();
    ru0.enable_all();
    bu0.enable_all();
    let h0 = ru0.spawn();
    let h1 = bu0.spawn();

    println!("primary:   loop://bu0 (chaos-wrapped)");
    println!("alternate: {bu0_url}");
    println!("starting {COUNT} round trips...");
    ru0.post(Message::build_private(ping_tid, Tid::HOST, ORG_DAQ, xfn::PING_START).finish())
        .unwrap();

    // Let the run get going over the primary, then kill it.
    wait(|| state.completed.load(Ordering::SeqCst) >= COUNT / 4);
    let at = state.completed.load(Ordering::SeqCst);
    chaos.kill();
    println!("killed the primary link after {at} round trips");

    wait(|| state.done.load(Ordering::SeqCst));
    let done = state.completed.load(Ordering::SeqCst);
    println!(
        "run complete: {done}/{COUNT} round trips — {}",
        if done == COUNT {
            "zero frames lost"
        } else {
            "FRAMES LOST"
        }
    );

    // The supervisor noticed: the dead link is Down, the route moved.
    wait(|| ru0.link_states().iter().any(|(_, s)| s.as_str() == "down"));
    for (peer, s) in ru0.link_states() {
        println!("link {peer}: {}", s.as_str());
    }

    // The monitoring registry tells the whole story.
    let snap = ru0.core().mon_snapshot();
    let c = &snap["metrics"]["counters"];
    println!("pta.retries      = {}", c["pta.retries"]);
    println!("pta.failovers    = {}", c["pta.failovers"]);
    println!("pta.send_failures= {}", c["pta.send_failures"]);
    println!("link.peer_down   = {}", c["link.peer_down"]);
    println!("link.hb_pings    = {}", c["link.hb_pings"]);
    println!("link.hb_pongs    = {}", c["link.hb_pongs"]);

    assert_eq!(done, COUNT, "the cluster lost frames");
    assert!(c["pta.retries"].as_u64().unwrap() > 0);
    assert!(c["pta.failovers"].as_u64().unwrap() > 0);
    assert!(c["link.peer_down"].as_u64().unwrap() >= 1);

    h0.shutdown();
    h1.shutdown();
}

fn wait(cond: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while !cond() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    assert!(cond(), "timed out");
}
