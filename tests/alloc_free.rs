//! The frame path allocates nothing from the heap in steady state.
//!
//! This binary installs a counting `#[global_allocator]` and counts
//! the allocations of the pumping thread only (every executive here is
//! pumped cooperatively on the test's own thread, so that is all of
//! the product's work). After warm-up — pools, rings and FIFOs grown —
//! it asserts that
//!
//! * a 64 B private frame echoed between two executives over `loop://`
//!   (in-place send → route → PTA → transport → ingest → scheduler →
//!   dispatch, both ways) performs **zero** heap allocations over
//!   5 000 round trips, and
//! * a built event of a 4×2 event builder over `loop://` (EVM, 4
//!   readout units, 2 builder units and a filter on seven executives:
//!   about 10.6 frames per event, a re-pull timer armed and cancelled,
//!   fragments held until the event completes, id vectors batched in
//!   reused buffers) performs **zero** heap allocations, listeners
//!   included — measured one event at a time over 1 000 consecutive
//!   events, and
//! * the dispatch loop's drain of the executive's inbox — frames a
//!   task-mode transport thread hands over, ingested, scheduled and
//!   dispatched on the pumping thread — performs **zero** heap
//!   allocations over 5 000 frames from a second thread.
//!
//! The same mesh also pins the event builder's message economy. Per
//! built event the transports send TRIGGER×4 (each with a finished id
//! riding along), FRAGMENT×4, EVENT and DONE, plus one ASSIGN and
//! PULL×4 per batch of events: at most 11 frames with 8 credits per
//! builder, where a batch is about a builder's full credit, and exactly
//! 15 with one credit per builder, where every batch is one event.
//!
//! The frame path's queues (the pool's per-class free stacks, the
//! loopback mailboxes, the scheduler FIFOs) are std collections behind
//! a lock that keep their capacity once warm, so none of them forces an
//! allocation. The one thing that
//! still can allocate is `std`'s `HashMap`: the eleven tables whose
//! entries come and go per event (a readout's store, the manager's
//! assignment table, a builder's timer and reassembly tables, a timer
//! wheel's armed set) shed tombstones by rehashing, and until a table
//! is at most half full that rehash moves it to a table twice the size
//! — once or twice in its life, at a moment that depends on the
//! process's random hash keys. That is table growth, not a per-event
//! cost, so the event-builder test bounds it (≤ 22 allocations ever)
//! instead of pretending it away.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use xdaq::core::{
    Delivery, Dispatcher, Executive, ExecutiveConfig, I2oListener, IngestSink, PeerAddr,
    PeerTransport, PtError, PtMode, SendFailure,
};
use xdaq::evb::{EvmStats, FilterStats, FilterUnit, Mesh, Roles};
use xdaq::i2o::{DeviceClass, Message, Tid};
use xdaq::mempool::{FrameBuf, TablePool};
use xdaq::pt::{LoopbackHub, LoopbackPt};

thread_local! {
    /// Allocations made by this thread while it is counting; `None`
    /// when it is not. Const-initialised and without a destructor, so
    /// the allocator may touch it at any point of a thread's life.
    static COUNTED: Cell<Option<u64>> = const { Cell::new(None) };
}

struct CountingAlloc;

// SAFETY: every call is forwarded unchanged to the system allocator;
// the only addition is a thread-local counter bump.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        // SAFETY: same contract as the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: same contract as the caller's.
        unsafe { System.dealloc(ptr, layout) }
    }
}

fn note() {
    let _ = COUNTED.try_with(|c| {
        if let Some(n) = c.get() {
            c.set(None);
            if n < 3 {
                eprintln!("ALLOC #{n}\n{}", std::backtrace::Backtrace::force_capture());
            }
            c.set(Some(n + 1));
        }
    });
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Runs `f` and returns how often this thread allocated meanwhile.
fn allocations_during(f: impl FnOnce()) -> u64 {
    COUNTED.with(|c| c.set(Some(0)));
    f();
    COUNTED.with(|c| c.replace(None)).expect("counting was on")
}

const ORG: u16 = 0x0ec0;
const X_ECHO: u16 = 7;

/// Echoes every private frame to its initiator, in place.
struct Echo {
    seen: Arc<AtomicU64>,
}

impl I2oListener for Echo {
    fn class(&self) -> DeviceClass {
        DeviceClass::Application(ORG)
    }
    fn on_private(&mut self, ctx: &mut Dispatcher<'_>, msg: Delivery) {
        self.seen.fetch_add(1, Ordering::Relaxed);
        let body = msg.payload();
        ctx.send_private_with(msg.header.initiator, ORG, X_ECHO, body.len(), |out| {
            out.copy_from_slice(body)
        })
        .expect("echo routed");
    }
}

fn loop_node(hub: &Arc<LoopbackHub>, name: &str) -> (Executive, Arc<LoopbackPt>) {
    let exec = Executive::new(ExecutiveConfig::named(name));
    let pt = LoopbackPt::new(hub, name);
    exec.register_pt("pt", pt.clone()).unwrap();
    (exec, pt)
}

#[test]
fn echo_over_loopback_allocates_nothing_once_warm() {
    let hub = LoopbackHub::new();
    let (a, b) = (loop_node(&hub, "a").0, loop_node(&hub, "b").0);
    let seen = Arc::new(AtomicU64::new(0));
    let echo = |exec: &Executive| {
        exec.register("echo", Box::new(Echo { seen: seen.clone() }), &[])
            .unwrap()
    };
    let (on_a, on_b) = (echo(&a), echo(&b));
    let b_from_a = a.proxy("loop://b", on_b, None).unwrap();
    a.enable_all();
    b.enable_all();
    // One 64 B frame, bounced between the two echoes for ever after.
    a.post(
        Message::build_private(b_from_a, on_a, ORG, X_ECHO)
            .payload(vec![0x5A; 64])
            .finish(),
    )
    .unwrap();
    let pump_until = |frames: u64| {
        while seen.load(Ordering::Relaxed) < frames {
            a.run_once();
            b.run_once();
        }
    };
    pump_until(2_000);
    let allocs = allocations_during(|| pump_until(12_000));
    assert_eq!(allocs, 0, "heap allocations over 5 000 echo round trips");
}

/// A 4×2 event builder over `loop://`: the manager (with the filter)
/// first, then four readout units and two builder units granting
/// `credits` each, one executive each, in a free-running run.
struct EvbMesh {
    nodes: Vec<Executive>,
    pts: Vec<Arc<LoopbackPt>>,
    events: Arc<FilterStats>,
    stats: Arc<EvmStats>,
}

impl EvbMesh {
    fn new(credits: u32) -> EvbMesh {
        let hub = LoopbackHub::new();
        let names = ["mgr", "ru0", "ru1", "ru2", "ru3", "bu0", "bu1"];
        let (nodes, pts): (Vec<Executive>, Vec<Arc<LoopbackPt>>) =
            names.iter().map(|name| loop_node(&hub, name)).unzip();
        let urls: Vec<String> = names.iter().map(|n| format!("loop://{n}")).collect();
        let peers: Vec<(&str, &Executive)> = urls.iter().map(String::as_str).zip(&nodes).collect();
        let events = FilterStats::new();
        let filter = Box::new(FilterUnit::new(events.clone()));
        nodes[0].register("filter", filter, &[]).unwrap();
        let mesh = Mesh::new(
            &nodes[0],
            &peers[1..5],
            &peers[5..],
            (peers[0], "filter"),
            Roles {
                readout: &[("size", "2048")],
                builder: &[
                    ("credits", &credits.to_string()),
                    // Nothing is lost here, so the re-pull timer must
                    // never fire: the run is then the same sequence of
                    // operations however the test thread is scheduled
                    // (a 50 ms stall under a loaded `cargo test` would
                    // otherwise fire timers and re-pull).
                    ("timeout_ms", "600000"),
                ],
                ..Roles::default()
            },
        )
        .unwrap();
        // Free-running trigger: a run longer than the test.
        mesh.start_run(u64::MAX).unwrap();
        EvbMesh {
            nodes,
            pts,
            events,
            stats: mesh.evm_stats,
        }
    }

    /// Pumps every executive in turn until `built` events reached the
    /// filter.
    fn pump_until(&self, built: u64) {
        while self.events.received.load(Ordering::Relaxed) < built {
            for exec in &self.nodes {
                exec.run_once();
            }
        }
    }

    /// Frames all seven transports have sent so far.
    fn frames_sent(&self) -> u64 {
        self.pts
            .iter()
            .map(|pt| pt.counters().unwrap().sent_frames.load(Ordering::Relaxed))
            .sum()
    }

    /// Transport frames per built event over 1 000 events, after 100
    /// to warm up.
    fn frames_per_event(&self) -> f64 {
        self.pump_until(100);
        let before = self.frames_sent();
        self.pump_until(1_100);
        assert_eq!(self.stats.lost.load(Ordering::Relaxed), 0);
        (self.frames_sent() - before) as f64 / 1_000.0
    }
}

#[test]
fn event_builder_4x2_allocates_nothing_once_warm() {
    let mesh = EvbMesh::new(8);
    mesh.pump_until(3_000);
    // One window per built event.
    let per_event: Vec<u64> = (1..=1_000)
        .map(|k| allocations_during(|| mesh.pump_until(3_000 + k)))
        .collect();
    let total: u64 = per_event.iter().sum();
    let dirty = per_event.iter().filter(|n| **n > 0).count();
    // 11 churning hash tables × at most 2 late doublings (module doc).
    assert!(
        total <= 22 && dirty <= 22,
        "{total} heap allocations in {dirty} of 1 000 built events"
    );
    assert_eq!(mesh.stats.lost.load(Ordering::Relaxed), 0);
}

#[test]
fn event_builder_4x2_sends_at_most_11_frames_per_event() {
    let per_event = EvbMesh::new(8).frames_per_event();
    assert!(
        per_event <= 11.0,
        "{per_event} transport frames per built event"
    );
}

/// With one credit per builder no `ASSIGN` can name two events: the
/// batched protocol costs exactly what the scalar one did.
#[test]
fn event_builder_4x2_without_batching_sends_15_frames_per_event() {
    let per_event = EvbMesh::new(1).frames_per_event();
    assert_eq!(per_event, 15.0, "transport frames per built event");
}

/// Counts the private frames it is handed.
struct Count(Arc<AtomicU64>);

impl I2oListener for Count {
    fn class(&self) -> DeviceClass {
        DeviceClass::Application(ORG)
    }
    fn on_private(&mut self, _ctx: &mut Dispatcher<'_>, _msg: Delivery) {
        self.0.fetch_add(1, Ordering::Release);
    }
}

/// A task-mode transport that lends the test the sink it was started
/// with, so a thread of the test's own can act as its receive thread.
#[derive(Default)]
struct LentSink(parking_lot::Mutex<Option<IngestSink>>);

impl PeerTransport for LentSink {
    fn scheme(&self) -> &'static str {
        "lent"
    }
    fn mode(&self) -> PtMode {
        PtMode::Task
    }
    fn send(&self, _dest: &PeerAddr, frame: FrameBuf) -> Result<(), SendFailure> {
        Err(SendFailure::with_frame(PtError::Closed, frame))
    }
    fn poll(&self) -> Option<(FrameBuf, PeerAddr)> {
        None
    }
    fn start(&self, sink: IngestSink) -> Result<(), PtError> {
        *self.0.lock() = Some(sink);
        Ok(())
    }
    fn stop(&self) {}
}

#[test]
fn inbox_drain_allocates_nothing_once_warm() {
    const BURST: u64 = 16;
    const TOTAL: u64 = 7_008; // a whole number of bursts
    let exec = Executive::new(ExecutiveConfig::named("n"));
    let seen = Arc::new(AtomicU64::new(0));
    let target = exec
        .register("count", Box::new(Count(seen.clone())), &[])
        .unwrap();
    let pt = Arc::new(LentSink::default());
    exec.register_pt("lent", pt.clone()).unwrap();
    exec.enable_all();
    exec.start_transports().unwrap();
    let sink = pt.0.lock().clone().expect("started");

    // The transport thread: bursts of 16 frames from one peer, each
    // once the loop has dispatched the one before.
    let feeder = {
        let seen = seen.clone();
        std::thread::spawn(move || {
            let pool = TablePool::with_defaults();
            let src: PeerAddr = "lent://far".parse().unwrap();
            let msg = Message::build_private(target, Tid::new(0x45).unwrap(), ORG, X_ECHO)
                .payload(vec![0x5A; 64])
                .finish();
            for sent in (0..TOTAL).step_by(BURST as usize) {
                while seen.load(Ordering::Acquire) < sent {
                    std::thread::yield_now();
                }
                for _ in 0..BURST {
                    let frame = Delivery::from_message(&msg, &*pool).unwrap();
                    sink(frame.into_buf(), src.clone());
                }
            }
        })
    };
    // The first burst is drained whole, so the inbox's two vectors and
    // the device's FIFO reach a burst's size while warming up.
    while exec.core().queued() < BURST as usize {
        std::thread::yield_now();
    }
    let pump_until = |frames: u64| {
        while seen.load(Ordering::Acquire) < frames {
            exec.run_once();
        }
    };
    pump_until(2_008);
    let allocs = allocations_during(|| pump_until(TOTAL));
    feeder.join().unwrap();
    assert_eq!(allocs, 0, "heap allocations over 5 000 frames drained");
}
