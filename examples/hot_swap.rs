//! Transport flexibility: the same application runs over three
//! different interconnects without one line of application code
//! changing.
//!
//! Paper §2: *"It should not be necessary to modify an application in
//! case some hardware component is exchanged."* — the application only
//! ever addresses TiDs; the peer transport and the route configuration
//! decide how bytes move. This example runs the identical ping-pong
//! application over the loopback hub, the simulated Myrinet/GM fabric
//! and real TCP sockets (`xpt://`), and prints the measured latency of
//! each.
//!
//! Run with: `cargo run --release --example hot_swap`

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;
use xdaq::app::{xfn, PingState, Pinger, Ponger};
use xdaq::core::{Executive, ExecutiveConfig, PeerTransport, PtMode};
use xdaq::evb::ORG_DAQ;
use xdaq::gm::Fabric;
use xdaq::i2o::{Message, Tid};
use xdaq::mempool::TablePool;
use xdaq::pt::{GmPt, LoopbackHub, LoopbackPt, XptPt};

/// Runs the unchanged application over whatever transports are given.
/// Returns mean one-way latency in microseconds.
fn run_app(
    pt_a: Arc<dyn PeerTransport>,
    pt_b: Arc<dyn PeerTransport>,
    b_url: &str,
    count: u64,
) -> f64 {
    let a = Executive::new(ExecutiveConfig::named("a"));
    let b = Executive::new(ExecutiveConfig::named("b"));
    a.register_pt("a.pt", pt_a).unwrap();
    b.register_pt("b.pt", pt_b).unwrap();

    // ---- identical application code from here on ----
    let state = PingState::new();
    let pong_tid = b.register("pong", Box::new(Ponger::new()), &[]).unwrap();
    let proxy = a.proxy(b_url, pong_tid, None).unwrap();
    let ping_tid = a
        .register(
            "ping",
            Box::new(Pinger::new(state.clone())),
            &[
                ("peer", &proxy.raw().to_string()),
                ("payload", "256"),
                ("count", &count.to_string()),
            ],
        )
        .unwrap();
    a.enable_all();
    b.enable_all();
    let ha = a.spawn();
    let hb = b.spawn();
    a.post(Message::build_private(ping_tid, Tid::HOST, ORG_DAQ, xfn::PING_START).finish())
        .unwrap();
    while !state.done.load(Ordering::SeqCst) {
        std::thread::sleep(Duration::from_micros(200));
    }
    ha.shutdown();
    hb.shutdown();
    let one_way = state.one_way_ns();
    one_way.iter().sum::<u64>() as f64 / one_way.len() as f64 / 1000.0
    // ---- end of application code ----
}

fn main() {
    const COUNT: u64 = 2_000;

    // 1. In-process loopback.
    let hub = LoopbackHub::new();
    let lat = run_app(
        LoopbackPt::new(&hub, "a"),
        LoopbackPt::new(&hub, "b"),
        "loop://b",
        COUNT,
    );
    println!("loopback : mean one-way {lat:8.2} us");

    // 2. Simulated Myrinet/GM (zero wire-latency model).
    let fabric = Fabric::new();
    let lat = run_app(
        GmPt::open(
            &fabric,
            1,
            0,
            PtMode::Task,
            TablePool::with_defaults(),
            None,
        )
        .unwrap(),
        GmPt::open(
            &fabric,
            2,
            0,
            PtMode::Task,
            TablePool::with_defaults(),
            None,
        )
        .unwrap(),
        "gm://2:0",
        COUNT,
    );
    println!("gm       : mean one-way {lat:8.2} us");

    // 3. Real TCP sockets over localhost (`xpt://`).
    let pt_a = XptPt::bind("127.0.0.1:0", TablePool::with_defaults()).unwrap();
    let pt_b = XptPt::bind("127.0.0.1:0", TablePool::with_defaults()).unwrap();
    let b_url = pt_b.addr().to_string();
    let lat = run_app(pt_a, pt_b, &b_url, COUNT);
    println!("xpt      : mean one-way {lat:8.2} us");

    println!("\nsame application, three interconnects, zero code changes.");
}
