//! HWFIFO — the experiment §7 announces: communication efficiency
//! with and without hardware FIFO support on a PCI bus segment (the
//! PLX IOP-480 board with I2O hardware FIFOs).
//!
//! Two executives on one simulated PCI segment exchange the blackbox
//! ping-pong; the segment's inbound queues are either bounded
//! lock-free rings ("hardware FIFOs") or mutex-protected unbounded
//! queues ("software mailbox").
//!
//! Usage:
//! ```text
//! cargo run -p xdaq-bench --release --bin hwfifo [--calls 20000] [--json hwfifo.json]
//! ```

use std::sync::atomic::Ordering;
use xdaq::app::{xfn, PingState, Pinger, Ponger};
use xdaq_bench::{median_us, steady_state, Args};
use xdaq_core::{Executive, ExecutiveConfig};
use xdaq_evb::ORG_DAQ;
use xdaq_i2o::{Message, Tid};
use xdaq_pt::{FifoKind, PciBus, PciPt};

fn run(kind: FifoKind, calls: u64, payload: usize) -> f64 {
    let bus = PciBus::new("seg0", kind);
    let a = Executive::new(ExecutiveConfig::named("host"));
    let b = Executive::new(ExecutiveConfig::named("iop"));
    a.register_pt("a.pci", PciPt::attach(&bus, 0)).unwrap();
    b.register_pt("b.pci", PciPt::attach(&bus, 1)).unwrap();

    let state = PingState::new();
    let pong_tid = b.register("pong", Box::new(Ponger::new()), &[]).unwrap();
    let proxy = a.proxy("pci://seg0/1", pong_tid, None).unwrap();
    let ping_tid = a
        .register(
            "ping",
            Box::new(Pinger::new(state.clone())),
            &[
                ("peer", &proxy.raw().to_string()),
                ("payload", &payload.to_string()),
                ("count", &calls.to_string()),
            ],
        )
        .unwrap();
    a.enable_all();
    b.enable_all();
    a.post(Message::build_private(ping_tid, Tid::HOST, ORG_DAQ, xfn::PING_START).finish())
        .unwrap();
    while !state.done.load(Ordering::SeqCst) {
        a.run_once();
        b.run_once();
    }
    median_us(steady_state(&state.one_way_ns()))
}

fn main() {
    let args = Args::parse();
    let calls: u64 = args.get("calls", 20_000);

    println!("# HWFIFO: messenger-instance queues in 'hardware' vs software (paper §7)");
    println!("# ping-pong one-way latency over a simulated PCI segment, {calls} calls");
    println!("#");
    println!(
        "{:>8} {:>16} {:>16} {:>10}",
        "bytes", "hw_fifo_us", "sw_queue_us", "hw/sw"
    );
    let mut rows = Vec::new();
    for payload in [1usize, 256, 1024, 4096] {
        let hw = run(FifoKind::Hardware { depth: 64 }, calls, payload);
        let sw = run(FifoKind::Software, calls, payload);
        println!("{payload:>8} {hw:>16.2} {sw:>16.2} {:>10.2}", hw / sw);
        rows.push((payload, hw, sw));
    }
    println!("#");
    println!("# the lock-free bounded ring must not lose to the mutex mailbox;");
    println!("# bounded depth additionally gives backpressure (measured in pt tests).");

    if args.has("json") {
        let path = args.get_str("json", "hwfifo.json");
        let json = serde_json::json!({
            "experiment": "hwfifo",
            "calls": calls,
            "rows": rows.iter().map(|(p, h, s)| serde_json::json!({
                "payload": p, "hw_us": h, "sw_us": s
            })).collect::<Vec<_>>(),
        });
        std::fs::write(&path, serde_json::to_string_pretty(&json).unwrap()).unwrap();
        println!("# wrote {path}");
    }
}
