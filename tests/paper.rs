//! The paper's evaluation shapes as assertions: FIG6 (§5), ALLOC (§5),
//! PTMODE (§4) and HWFIFO (§7), each an ordering or a ratio with wide
//! margin, never an absolute number.
//!
//! Every run is the paper's blackbox flood/echo: a `Pinger` on one
//! executive, a `Ponger` on another, both driven **cooperatively on one
//! thread** (`a.run_once(); b.run_once();`), so what is measured is the
//! framework's CPU cost per message, not the OS scheduler. Timing only
//! means something optimised, so the tests run one at a time and only
//! with `XDAQ_TEST_HEAVY=1 cargo test --release -q --test paper`.

use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use xdaq::app::{xfn, PingState, Pinger, Ponger};
use xdaq::core::{
    AllocatorKind, Executive, ExecutiveConfig, PeerAddr, PeerTransport, PtMode, SendFailure,
};
use xdaq::evb::ORG_DAQ;
use xdaq::gm::{Fabric, GmAddr, LatencyModel, NodeId, PortId};
use xdaq::i2o::{Message, Tid};
use xdaq::mempool::{DynAllocator, FrameBuf, SimplePool, TablePool};
use xdaq::pt::{FifoKind, GmPt, LoopbackHub, LoopbackPt, PciBus, PciPt};

/// Round trips per measured run.
const CALLS: u64 = 10_000;

/// Runs per measured point; see [`best_of`].
const ROUNDS: usize = 5;

/// Timing tests must not share the CPU with each other.
static SERIAL: Mutex<()> = Mutex::new(());

/// Skips (with a note) unless `XDAQ_TEST_HEAVY=1`, otherwise takes the
/// serialisation lock for the rest of the test.
fn heavy() -> Option<std::sync::MutexGuard<'static, ()>> {
    if std::env::var("XDAQ_TEST_HEAVY").map_or(true, |v| v != "1") {
        println!("skipped: set XDAQ_TEST_HEAVY=1");
        return None;
    }
    Some(SERIAL.lock().unwrap_or_else(|e| e.into_inner()))
}

/// Prints a measured shape and fails unless it holds.
#[track_caller]
fn check(holds: bool, shape: String) {
    println!("{shape}");
    assert!(holds, "shape does not hold: {shape}");
}

/// Median of the steady state in µs: the first 10 % of the calls pay
/// pool population and cold caches, and are dropped.
fn steady_median_us(mut ns: Vec<u64>) -> f64 {
    let mut steady = ns.split_off(ns.len() / 10);
    steady.sort_unstable();
    steady[steady.len() / 2] as f64 / 1000.0
}

/// Runs each measurement [`ROUNDS`] times, alternating between them,
/// and keeps each one's fastest run: the box is shared, and a burst of
/// foreign load during one run must not decide a comparison.
fn best_of<const N: usize>(runs: [&dyn Fn() -> f64; N]) -> [f64; N] {
    let mut best = [f64::INFINITY; N];
    for _ in 0..ROUNDS {
        for (b, run) in best.iter_mut().zip(runs) {
            *b = b.min(run());
        }
    }
    best
}

/// A pinger on `a` flooding a ponger on `b`.
struct PingPong {
    a: Executive,
    b: Executive,
    ping: Tid,
    state: Arc<PingState>,
}

impl PingPong {
    /// Wires the pair once both executives have their transports; `url`
    /// is how `a` reaches `b`.
    fn new(a: Executive, b: Executive, url: &str, payload: usize, calls: u64) -> PingPong {
        let state = PingState::new();
        let pong = b.register("pong", Box::new(Ponger::new()), &[]).unwrap();
        let proxy = a.proxy(url, pong, None).unwrap();
        let peer = proxy.raw().to_string();
        let (payload, calls) = (payload.to_string(), calls.to_string());
        let params = [("peer", &*peer), ("payload", &*payload), ("count", &*calls)];
        let ping = a
            .register("ping", Box::new(Pinger::new(state.clone())), &params)
            .unwrap();
        a.enable_all();
        b.enable_all();
        PingPong { a, b, ping, state }
    }

    /// One flood run; returns the steady-state median one-way latency.
    fn run(&self) -> f64 {
        self.state.reset();
        let start = Message::build_private(self.ping, Tid::HOST, ORG_DAQ, xfn::PING_START);
        self.a.post(start.finish()).unwrap();
        while !self.state.done.load(Ordering::SeqCst) {
            self.a.run_once();
            self.b.run_once();
        }
        steady_median_us(self.state.one_way_ns())
    }
}

fn pool(kind: AllocatorKind) -> DynAllocator {
    match kind {
        AllocatorKind::Simple => SimplePool::with_defaults(),
        AllocatorKind::Table => TablePool::with_defaults(),
    }
}

/// XDAQ over the GM PT (polling mode, the paper's efficient setting),
/// both executives and both PTs on `allocator`.
fn over_gm(wire: LatencyModel, allocator: AllocatorKind, payload: usize, calls: u64) -> PingPong {
    let fabric = Fabric::with_latency(wire);
    let exec = |name: &str, node: u16| {
        let mut cfg = ExecutiveConfig::named(name);
        cfg.allocator = allocator;
        let e = Executive::new(cfg);
        let pt = GmPt::open(&fabric, node, 0, PtMode::Polling, pool(allocator), None).unwrap();
        e.register_pt("gm", pt).unwrap();
        e
    };
    PingPong::new(exec("a", 1), exec("b", 2), "gm://2:0", payload, calls)
}

/// Figure 6's baseline: the same flood/echo directly on GM, no
/// framework, on an identical fabric.
fn raw_gm_us(wire: LatencyModel, payload: usize, calls: u64) -> f64 {
    let fabric = Fabric::with_latency(wire);
    let port = |n| fabric.open_port(NodeId(n), PortId(0));
    let (a, b) = (port(1).unwrap(), port(2).unwrap());
    let (node, port) = (NodeId(2), PortId(0));
    let dest = GmAddr { node, port };
    let msg = vec![0xA5u8; payload];
    let mut one_way = Vec::with_capacity(calls as usize);
    for _ in 0..calls {
        let t0 = Instant::now();
        a.send(dest, &msg).unwrap();
        let (src, data) = loop {
            if let Some(echo) = b.poll() {
                break echo;
            }
        };
        b.send(src, &data).unwrap();
        while a.poll().is_none() {}
        one_way.push(t0.elapsed().as_nanos() as u64 / 2);
    }
    steady_median_us(one_way)
}

/// Least-squares slope of `ys` over `xs`.
fn slope(xs: &[f64], ys: &[f64]) -> f64 {
    let n = xs.len() as f64;
    let (mx, my) = (xs.iter().sum::<f64>() / n, ys.iter().sum::<f64>() / n);
    let sxy: f64 = xs.iter().zip(ys).map(|(x, y)| (x - mx) * (y - my)).sum();
    let sxx: f64 = xs.iter().map(|x| (x - mx) * (x - mx)).sum();
    sxy / sxx
}

/// FIG6: XDAQ/GM is slower than raw GM by an overhead that does not
/// grow with the payload (paper: 8.9 µs, fit y = −7·10⁻⁵x + 9.105), and
/// on a wire with the paper's LANai-7 cost both series share one slope.
#[test]
fn fig6_overhead_is_payload_independent() {
    let Some(_serial) = heavy() else { return };
    let zero = LatencyModel::ZERO;
    let table = AllocatorKind::Table;
    let [one, _, four_k] = [1, 1024, 4096].map(|payload| {
        let pair = over_gm(zero, table, payload, CALLS);
        let [xdaq, raw] = best_of([&|| pair.run(), &|| raw_gm_us(zero, payload, CALLS)]);
        let shape = format!("FIG6 {payload} B: xdaq {xdaq:.2} > raw gm {raw:.2} us");
        check(xdaq > raw, shape);
        xdaq - raw
    });
    let shape = format!("FIG6 overhead: {four_k:.2} us at 4096 B ≤ 2 × {one:.2} us at 1 B");
    check(four_k <= 2.0 * one, shape);

    let wire = LatencyModel::myrinet_lanai7();
    let sizes = [1.0, 1024.0, 2048.0, 4096.0];
    let series = |f: &dyn Fn(usize) -> f64| sizes.map(|p| f(p as usize));
    let xdaq = series(&|p| over_gm(wire, table, p, 1_000).run());
    let raw = series(&|p| raw_gm_us(wire, p, 1_000));
    let (sx, sr) = (slope(&sizes, &xdaq), slope(&sizes, &raw));
    let shape = format!("FIG6 LANai-7 slope: xdaq {sx:.4e} within 10 % of raw gm {sr:.4e} us/B");
    check((sx / sr - 1.0).abs() <= 0.10, shape);
}

/// ALLOC: the table-matched pool cuts the framework overhead the
/// original pre-allocated/linear-scan pool costs (paper: 8.9 → 4.9 µs).
#[test]
fn alloc_table_beats_simple() {
    let Some(_serial) = heavy() else { return };
    let zero = LatencyModel::ZERO;
    let simple = over_gm(zero, AllocatorKind::Simple, 64, CALLS);
    let table = over_gm(zero, AllocatorKind::Table, 64, CALLS);
    let raw = || raw_gm_us(zero, 64, CALLS);
    let [raw, simple, table] = best_of([&raw, &|| simple.run(), &|| table.run()]);
    let (simple, table) = (simple - raw, table - raw);
    let shape = format!("ALLOC overhead: simple {simple:.2} ≥ 1.3 × table {table:.2} us");
    check(simple >= 1.3 * table, shape);

    // Direct alloc/free with an event builder's working set: one size,
    // 512 buffers held in flight, the oldest freed per allocation.
    let ns_per_alloc = |pool: &DynAllocator| {
        let mut window = std::collections::VecDeque::with_capacity(513);
        let allocs = 100_000;
        let t0 = Instant::now();
        for _ in 0..allocs {
            window.push_back(pool.alloc(4096).unwrap());
            if window.len() > 512 {
                window.pop_front();
            }
        }
        t0.elapsed().as_nanos() as f64 / allocs as f64
    };
    let (simple, table) = (pool(AllocatorKind::Simple), pool(AllocatorKind::Table));
    let [simple, table] = best_of([&|| ns_per_alloc(&simple), &|| ns_per_alloc(&table)]);
    let shape = format!("ALLOC alloc+free: simple {simple:.0} ≥ 1.3 × table {table:.0} ns");
    check(simple >= 1.3 * table, shape);
}

/// A polling PT whose every poll busy-waits — §4's "poll operation on a
/// TCP socket".
struct SlowPt(Duration);

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
        let t0 = Instant::now();
        while t0.elapsed() < self.0 {
            std::hint::spin_loop();
        }
        None
    }
    fn stop(&self) {}
}

/// PTMODE: "it is advisable not to use more than one PT in [polling]
/// mode ... Otherwise a slow PT ... would negate the benefits" (§4).
/// Suspending the slow PT (`Executive::destroy` of its TiD) on the same
/// running pair restores the clean latency.
#[test]
fn ptmode_slow_poller_poisons_loop_until_destroyed() {
    let Some(_serial) = heavy() else { return };
    let hub = LoopbackHub::new();
    let a = Executive::new(ExecutiveConfig::named("a"));
    let b = Executive::new(ExecutiveConfig::named("b"));
    a.register_pt("loop", LoopbackPt::new(&hub, "a")).unwrap();
    b.register_pt("loop", LoopbackPt::new(&hub, "b")).unwrap();
    let pair = PingPong::new(a, b, "loop://b", 256, CALLS);
    let [clean] = best_of([&|| pair.run()]);
    let slow = SlowPt(Duration::from_micros(20));
    let slow = pair.b.register_pt("slow", Arc::new(slow)).unwrap();
    let [poisoned] = best_of([&|| pair.run()]);
    pair.b.destroy(slow).unwrap();
    let [suspended] = best_of([&|| pair.run()]);
    let shape = format!("PTMODE slow PT: {poisoned:.2} ≥ 5 × clean {clean:.2} us");
    check(poisoned >= 5.0 * clean, shape);
    let shape = format!("PTMODE destroyed: {suspended:.2} ≤ 1.5 × clean {clean:.2} us");
    check(suspended <= 1.5 * clean, shape);
}

/// HWFIFO: the experiment §7 announces — a ping-pong over one PCI
/// segment whose slots use bounded lock-free "hardware" FIFOs is no
/// slower than over a mutex-protected software mailbox.
#[test]
fn hwfifo_no_slower_than_software_mailbox() {
    let Some(_serial) = heavy() else { return };
    let pair = |kind, payload| {
        let bus = PciBus::new("seg0", kind);
        let a = Executive::new(ExecutiveConfig::named("host"));
        let b = Executive::new(ExecutiveConfig::named("iop"));
        a.register_pt("pci", PciPt::attach(&bus, 0)).unwrap();
        b.register_pt("pci", PciPt::attach(&bus, 1)).unwrap();
        PingPong::new(a, b, "pci://seg0/1", payload, CALLS)
    };
    for payload in [1, 4096] {
        let hw = pair(FifoKind::Hardware { depth: 64 }, payload);
        let sw = pair(FifoKind::Software, payload);
        let [hw, sw] = best_of([&|| hw.run(), &|| sw.run()]);
        let shape = format!("HWFIFO {payload} B: hardware {hw:.2} ≤ 1.15 × software {sw:.2} us");
        check(hw <= 1.15 * sw, shape);
    }
}
