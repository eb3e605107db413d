//! The `xpt://` frame path allocates nothing from the heap once warm,
//! on any thread.
//!
//! `tests/alloc_free.rs` counts only the thread that pumps the
//! executives. Over `xpt://` half of the work runs on the transports'
//! driver threads (wake-up, gather-write, read, reassembly, the hand-off
//! to the executive's inbox), so this binary counts every allocation of
//! the process while a window is open, and holds one test only: a
//! 64 B private frame echoed between two executives over two `XptPt`s
//! on 127.0.0.1, pumped on the test thread, must make **zero** heap
//! allocations over 3 000 round trips after 1 000 to warm up.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use xdaq::core::{Delivery, Dispatcher, Executive, ExecutiveConfig, I2oListener};
use xdaq::i2o::{DeviceClass, Message};
use xdaq::mempool::TablePool;
use xdaq::pt::XptPt;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

struct CountingAlloc;

// SAFETY: every call is forwarded unchanged to the system allocator;
// the only addition is a counter bump while the window is open.
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
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

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

#[test]
fn echo_over_xpt_allocates_nothing_once_warm_on_any_thread() {
    let node = |name: &str| {
        let exec = Executive::new(ExecutiveConfig::named(name));
        let pt = XptPt::bind("127.0.0.1:0", TablePool::with_defaults()).unwrap();
        exec.register_pt("pt", pt.clone()).unwrap();
        (exec, pt)
    };
    let ((a, _), (b, b_pt)) = (node("a"), node("b"));
    let seen = Arc::new(AtomicU64::new(0));
    let echo = |exec: &Executive| {
        exec.register("echo", Box::new(Echo { seen: seen.clone() }), &[])
            .unwrap()
    };
    let (on_a, on_b) = (echo(&a), echo(&b));
    let b_from_a = a.proxy(&b_pt.addr().to_string(), on_b, None).unwrap();
    for exec in [&a, &b] {
        exec.enable_all();
        exec.start_transports().unwrap();
    }
    // One 64 B frame, bounced between the two echoes for ever after.
    a.post(
        Message::build_private(b_from_a, on_a, ORG, X_ECHO)
            .payload(vec![0x5A; 64])
            .finish(),
    )
    .unwrap();
    let deadline = Instant::now() + Duration::from_secs(60);
    let pump_until = |frames: u64| {
        while seen.load(Ordering::Relaxed) < frames {
            assert!(Instant::now() < deadline, "echo stalled at {frames}");
            a.run_once();
            b.run_once();
        }
    };
    pump_until(2_000);
    COUNTING.store(true, Ordering::SeqCst);
    pump_until(8_000);
    COUNTING.store(false, Ordering::SeqCst);
    let allocs = ALLOCATIONS.load(Ordering::SeqCst);
    assert_eq!(allocs, 0, "heap allocations over 3 000 echo round trips");
    for exec in [&a, &b] {
        exec.core().pta().stop_all();
    }
}
