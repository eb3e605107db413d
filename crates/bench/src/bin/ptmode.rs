//! PTMODE — quantifies two §4 design discussions:
//!
//! 1. *"To allow efficient operation in polling mode it is advisable
//!    not to use more than one PT in this mode ... Otherwise a slow PT
//!    e.g. a poll operation on a TCP socket would negate the benefits
//!    of checking periodically a lightweight user level network
//!    interface."* — we add a deliberately slow second polling PT and
//!    measure the damage, then "suspend" it (unregister) and measure
//!    the recovery.
//! 2. Zero-copy vs copy-path frame hand-off in the loopback PT
//!    (DESIGN.md §5 ablation).
//!
//! Usage:
//! ```text
//! cargo run -p xdaq-bench --release --bin ptmode [--calls 10000] [--json ptmode.json]
//! ```

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;
use xdaq::app::{xfn, PingState, Pinger, Ponger};
use xdaq_bench::{median_us, steady_state, Args};
use xdaq_core::{Executive, ExecutiveConfig, PeerAddr, PeerTransport, PtMode, SendFailure};
use xdaq_evb::ORG_DAQ;
use xdaq_i2o::{Message, Tid};
use xdaq_mempool::{DynAllocator, FrameBuf, TablePool};
use xdaq_pt::{LoopbackHub, LoopbackPt};

/// A peer transport whose poll costs a fixed busy delay — the "poll
/// operation on a TCP socket" of §4.
struct SlowPt {
    delay: Duration,
}

impl PeerTransport for SlowPt {
    fn scheme(&self) -> &'static str {
        "slow"
    }
    fn mode(&self) -> PtMode {
        PtMode::Polling
    }
    fn send(&self, _dest: &PeerAddr, _frame: FrameBuf) -> Result<(), SendFailure> {
        Ok(())
    }
    fn poll(&self) -> Option<(FrameBuf, PeerAddr)> {
        // Busy-wait: a slow syscall occupies the CPU from the
        // executive loop's point of view.
        let t0 = std::time::Instant::now();
        while t0.elapsed() < self.delay {
            std::hint::spin_loop();
        }
        None
    }
    fn stop(&self) {}
}

fn pingpong(calls: u64, slow_pt: Option<Duration>, copy_path: bool) -> f64 {
    let hub = LoopbackHub::new();
    let a = Executive::new(ExecutiveConfig::named("a"));
    let b = Executive::new(ExecutiveConfig::named("b"));
    let copy_pool = |on: bool| -> Option<DynAllocator> {
        on.then(|| TablePool::with_defaults() as DynAllocator)
    };
    a.register_pt(
        "a.loop",
        LoopbackPt::with_options(&hub, "a", PtMode::Polling, copy_pool(copy_path)),
    )
    .unwrap();
    b.register_pt(
        "b.loop",
        LoopbackPt::with_options(&hub, "b", PtMode::Polling, copy_pool(copy_path)),
    )
    .unwrap();
    if let Some(delay) = slow_pt {
        // The second polling PT of §4's warning, on the echo side.
        b.register_pt("b.slow", Arc::new(SlowPt { delay })).unwrap();
    }

    let state = PingState::new();
    let pong_tid = b.register("pong", Box::new(Ponger::new()), &[]).unwrap();
    let proxy = a.proxy("loop://b", pong_tid, None).unwrap();
    let ping_tid = a
        .register(
            "ping",
            Box::new(Pinger::new(state.clone())),
            &[
                ("peer", &proxy.raw().to_string()),
                ("payload", "256"),
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
    let calls: u64 = args.get("calls", 10_000);

    println!("# PTMODE: peer-transport configuration effects ({calls} calls, loopback)");
    println!("#");
    println!("## 1. a slow second polling PT poisons the dispatch loop (paper §4)");
    let clean = pingpong(calls, None, false);
    let slow20 = pingpong(calls, Some(Duration::from_micros(20)), false);
    let slow200 = pingpong(calls.min(3000), Some(Duration::from_micros(200)), false);
    let suspended = pingpong(calls, None, false); // the PT "suspended": not registered
    println!("{:<44} {:>12}", "configuration", "one_way_us");
    println!("{:<44} {:>12.2}", "one fast polling PT", clean);
    println!("{:<44} {:>12.2}", "+ slow PT (20 us poll)", slow20);
    println!("{:<44} {:>12.2}", "+ slow PT (200 us poll)", slow200);
    println!("{:<44} {:>12.2}", "slow PT suspended again", suspended);
    println!(
        "# slowdown factors: {:.1}x (20us), {:.1}x (200us) — the paper's advice holds",
        slow20 / clean,
        slow200 / clean
    );
    println!("#");
    println!("## 2. zero-copy vs copy-path frame hand-off");
    let zero_copy = pingpong(calls, None, false);
    let copied = pingpong(calls, None, true);
    println!(
        "{:<44} {:>12.2}",
        "zero-copy (pooled buffer hand-off)", zero_copy
    );
    println!(
        "{:<44} {:>12.2}",
        "copy path (alloc + memcpy per hop)", copied
    );
    println!(
        "# copy penalty: {:+.2} us per one-way hop",
        copied - zero_copy
    );

    if args.has("json") {
        let path = args.get_str("json", "ptmode.json");
        let json = serde_json::json!({
            "experiment": "ptmode",
            "calls": calls,
            "slow_pt": { "clean_us": clean, "slow20_us": slow20,
                         "slow200_us": slow200, "suspended_us": suspended },
            "copy": { "zero_copy_us": zero_copy, "copied_us": copied },
        });
        std::fs::write(&path, serde_json::to_string_pretty(&json).unwrap()).unwrap();
        println!("# wrote {path}");
    }
}
