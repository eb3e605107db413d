//! Quickstart: two executives, one message round trip.
//!
//! Demonstrates the core XDAQ workflow in ~60 lines:
//! 1. create two executives ("nodes") connected by the loopback PT,
//! 2. register a private device class on each,
//! 3. create a proxy TiD so node A can address node B's device
//!    transparently (the paper's location transparency),
//! 4. exchange messages and observe the reply.
//!
//! Run with: `cargo run --example quickstart`

use std::sync::atomic::Ordering;
use std::time::Duration;
use xdaq::app::{xfn, PingState, Pinger, Ponger};
use xdaq::core::{Executive, ExecutiveConfig};
use xdaq::evb::ORG_DAQ;
use xdaq::i2o::{Message, Tid};
use xdaq::pt::{LoopbackHub, LoopbackPt};

fn main() {
    // The "network": an in-process hub. Swap LoopbackPt for XptPt or
    // GmPt and nothing else changes — that is the point of the
    // architecture.
    let hub = LoopbackHub::new();

    let node_a = Executive::new(ExecutiveConfig::named("node-a"));
    node_a
        .register_pt("a.pt", LoopbackPt::new(&hub, "node-a"))
        .unwrap();
    let node_b = Executive::new(ExecutiveConfig::named("node-b"));
    node_b
        .register_pt("b.pt", LoopbackPt::new(&hub, "node-b"))
        .unwrap();

    // A ponger on B; a pinger on A that floods it.
    let state = PingState::new();
    let pong_tid = node_b
        .register("pong", Box::new(Ponger::new()), &[])
        .unwrap();

    // Location transparency: A allocates a *local* proxy TiD that
    // routes to B's device. The pinger only ever sees a TiD.
    let proxy = node_a
        .proxy("loop://node-b", pong_tid, Some("node-b.pong"))
        .unwrap();
    println!("proxy tid on node-a for node-b/pong: {proxy}");

    let ping_tid = node_a
        .register(
            "ping",
            Box::new(Pinger::new(state.clone())),
            &[
                ("peer", &proxy.raw().to_string()),
                ("payload", "64"),
                ("count", "1000"),
            ],
        )
        .unwrap();

    // Run control: devices accept application traffic once enabled.
    node_a.enable_all();
    node_b.enable_all();
    let ha = node_a.spawn();
    let hb = node_b.spawn();

    // Kick the pinger with a private frame (everything is a message).
    node_a
        .post(Message::build_private(ping_tid, Tid::HOST, ORG_DAQ, xfn::PING_START).finish())
        .unwrap();

    while !state.done.load(Ordering::SeqCst) {
        std::thread::sleep(Duration::from_millis(1));
    }
    let one_way = state.one_way_ns();
    let mean_us = one_way.iter().sum::<u64>() as f64 / one_way.len() as f64 / 1000.0;
    println!(
        "completed {} round trips over the loopback PT, mean one-way latency {:.2} us",
        state.completed.load(Ordering::SeqCst),
        mean_us
    );
    let metrics = node_a.core().mon_snapshot()["metrics"]["counters"].clone();
    println!("node-a counters: {metrics}");
    ha.shutdown();
    hb.shutdown();
}
