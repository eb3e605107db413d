//! Scraping a running 2-node cluster through the monitoring subsystem.
//!
//! Brings up two executives connected over the loopback PT, runs a
//! ping-pong between them, then scrapes both nodes with `MonSnapshot`
//! utility frames addressed to each executive (TiD 1) — and prints the
//! aggregated JSON document: per-priority queue depths with high-water
//! marks, dispatch-latency histogram, pool watermarks and per-PT
//! frame/byte counters.
//!
//! Run with: `cargo run --example monitor`

use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};
use xdaq::app::{xfn, PingState, Pinger, Ponger};
use xdaq::core::{Executive, ExecutiveConfig};
use xdaq::ctl::ControlHost;
use xdaq::evb::ORG_DAQ;
use xdaq::i2o::{Message, Tid};
use xdaq::pt::{LoopbackHub, LoopbackPt};

fn main() {
    let hub = LoopbackHub::new();

    // -- two worker executives on the loopback fabric -------------------
    let ru0 = Executive::new(ExecutiveConfig::named("ru0"));
    ru0.register_pt("ru0.pt", LoopbackPt::new(&hub, "ru0"))
        .unwrap();
    let bu0 = Executive::new(ExecutiveConfig::named("bu0"));
    bu0.register_pt("bu0.pt", LoopbackPt::new(&hub, "bu0"))
        .unwrap();

    // -- ping-pong workload ---------------------------------------------
    let state = PingState::new();
    let pong_tid = bu0.register("pong", Box::new(Ponger::new()), &[]).unwrap();
    let pong_proxy = ru0.proxy("loop://bu0", pong_tid, Some("bu0.pong")).unwrap();
    let ping_tid = ru0
        .register(
            "ping",
            Box::new(Pinger::new(state.clone())),
            &[
                ("peer", &pong_proxy.raw().to_string()),
                ("payload", "256"),
                ("count", "1000"),
            ],
        )
        .unwrap();
    ru0.enable_all();
    bu0.enable_all();
    let h0 = ru0.spawn();
    let h1 = bu0.spawn();

    // -- control host ----------------------------------------------------
    let host = ControlHost::new("mon-host");
    host.executive()
        .register_pt("host.pt", LoopbackPt::new(&hub, "mon-host"))
        .unwrap();
    host.start();
    let ru0_tid = host.connect_node("loop://ru0", Some("ru0")).unwrap();
    let bu0_tid = host.connect_node("loop://bu0", Some("bu0")).unwrap();

    // Turn the frame-lifecycle tracer on for ru0, then run the workload.
    host.trace_set(ru0_tid, true).unwrap();
    ru0.post(Message::build_private(ping_tid, Tid::HOST, ORG_DAQ, xfn::PING_START).finish())
        .unwrap();
    let deadline = Instant::now() + Duration::from_secs(20);
    while !state.done.load(Ordering::SeqCst) && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    println!(
        "ping-pong finished: {} round trips\n",
        state.completed.load(Ordering::SeqCst)
    );

    // -- scrape both executives over ordinary I2O frames -----------------
    let mut cluster = serde_json::Map::new();
    cluster.insert("ru0".to_string(), host.scrape(ru0_tid).unwrap());
    cluster.insert("bu0".to_string(), host.scrape(bu0_tid).unwrap());
    let doc = serde_json::Value::Object(cluster);
    println!(
        "cluster snapshot:\n{}",
        serde_json::to_string_pretty(&doc).unwrap()
    );

    // Last 5 frame-lifecycle trace records from ru0 (the tracer stays on).
    let dump = host.trace_set(ru0_tid, true).unwrap();
    let records = dump["records"].as_array().unwrap();
    println!("\ntrace ring: {} records, last 5:", records.len());
    for r in records.iter().rev().take(5) {
        println!("  {r}");
    }

    host.stop();
    h0.shutdown();
    h1.shutdown();
}
