//! The event-builder fast path, checked from outside the crates:
//!
//! * the fragment pattern kernels (`FragmentHeader::build_payload` /
//!   `verify_payload`, a table copy / slice compare) against the scalar
//!   `% 251` definition they replaced, kept here as the oracle;
//! * the accounting of `Dispatcher::send_private_with`: one pool
//!   allocation per frame, and the block back in the pool when the send
//!   fails, whether the route is missing or the transport refuses;
//! * the dispatch loop's cheap paths: queue-depth gauges set from the
//!   queue's own counts (so a `MonReset` cannot drive them negative),
//!   and a timer armed while the loop skips the idle timer wheel still
//!   fires on the first pass after its deadline.
//!
//! The zero-heap-allocation claim has a test binary of its own
//! (`tests/alloc_free.rs`), because it installs a global allocator.

use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use xdaq::core::{
    Clock, Delivery, Dispatcher, ExecError, Executive, ExecutiveConfig, I2oListener, TimerId,
};
use xdaq::evb::{FragmentHeader, FRAGMENT_HEADER_LEN};
use xdaq::i2o::{DeviceClass, Message, Tid};
use xdaq::pt::{ChaosPt, FaultPlan, LoopbackHub, LoopbackPt};

/// The definition of the pattern: byte `i` is
/// `(seed.wrapping_add(i)) % 251`, `seed = event·31 + source` in `u32`.
fn scalar_pattern(h: &FragmentHeader) -> Vec<u8> {
    let seed = (h.event_id as u32)
        .wrapping_mul(31)
        .wrapping_add(h.source_id as u32);
    (0..h.len)
        .map(|i| (seed.wrapping_add(i) % 251) as u8)
        .collect()
}

/// An event id whose pattern seed (with `source_id`) is `seed`:
/// 31 is odd, hence invertible modulo 2³².
fn event_with_seed(seed: u32, source_id: u16, high: u32) -> u64 {
    const INV_31: u32 = 0xBDEF_7BDF;
    let low = seed.wrapping_sub(source_id as u32).wrapping_mul(INV_31);
    (high as u64) << 32 | low as u64
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Fill and verify agree with the scalar oracle for any header —
    /// every second case with a seed within `len` of `u32::MAX`, where
    /// `seed + i` wraps and the ramp restarts out of phase — and a
    /// single corrupted byte anywhere is caught.
    #[test]
    fn pattern_kernels_match_the_scalar_oracle(
        event_id in any::<u64>(),
        source_id in any::<u16>(),
        len in 0u32..=65536,
        wraps in any::<bool>(),
        back in any::<u32>(),
        at in any::<u32>(),
        flip in 1u8..=255,
    ) {
        let event_id = if wraps {
            let seed = u32::MAX - back % (len + 1);
            event_with_seed(seed, source_id, (event_id >> 32) as u32)
        } else {
            event_id
        };
        let h = FragmentHeader { event_id, source_id, total_sources: 4, len };
        let want = scalar_pattern(&h);

        let mut built = h.build_payload();
        prop_assert_eq!(built.len(), FRAGMENT_HEADER_LEN + len as usize);
        prop_assert_eq!(FragmentHeader::decode(&built), Some(h));
        prop_assert!(built[FRAGMENT_HEADER_LEN..] == want[..], "fill differs from the oracle");
        prop_assert!(h.verify_payload(&built));
        prop_assert!(!h.verify_payload(&built[..built.len() - 1]) || len == 0);

        if len > 0 {
            let i = FRAGMENT_HEADER_LEN + (at % len) as usize;
            built[i] ^= flip;
            prop_assert!(!h.verify_payload(&built), "corruption at byte {} missed", i);
        }
    }
}

const ORG: u16 = 0x0da0;
const X_SEND: u16 = 1;
const X_DATA: u16 = 2;

/// On any frame, sends one in-place frame of the length the payload
/// asks for to the TiD it names, and keeps the result.
struct Sender {
    results: Arc<parking_lot::Mutex<Vec<Result<(), ExecError>>>>,
}

impl I2oListener for Sender {
    fn class(&self) -> DeviceClass {
        DeviceClass::Application(ORG)
    }
    fn on_private(&mut self, ctx: &mut Dispatcher<'_>, msg: Delivery) {
        let p = msg.payload();
        let target = Tid::new(u16::from_le_bytes([p[0], p[1]])).unwrap();
        let len = u32::from_le_bytes([p[2], p[3], p[4], p[5]]) as usize;
        drop(msg);
        let r = ctx.send_private_with(target, ORG, X_DATA, len, |out| out.fill(0xA5));
        self.results.lock().push(r);
    }
}

struct Sink {
    got: Arc<AtomicU64>,
}

impl I2oListener for Sink {
    fn class(&self) -> DeviceClass {
        DeviceClass::Application(ORG)
    }
    fn on_private(&mut self, _ctx: &mut Dispatcher<'_>, msg: Delivery) {
        let p = msg.private.expect("private frame");
        assert_eq!((p.org_id, p.x_function), (ORG, X_DATA));
        assert!(msg.payload().iter().all(|b| *b == 0xA5));
        assert_eq!(msg.frame_bytes().len() % 4, 0);
        self.got
            .fetch_add(msg.payload().len() as u64, Ordering::SeqCst);
    }
}

#[test]
fn in_place_send_costs_one_pool_block_and_gives_it_back_on_error() {
    let exec = Executive::new(ExecutiveConfig::named("n"));
    // A peer whose transport is dead: every send to it is refused.
    let hub = LoopbackHub::new();
    let dead = ChaosPt::wrap(LoopbackPt::new(&hub, "n"), 1, FaultPlan::default());
    dead.kill();
    exec.register_pt("n.chaos", dead).unwrap();
    let results = Arc::new(parking_lot::Mutex::new(Vec::new()));
    let got = Arc::new(AtomicU64::new(0));
    let sender = exec
        .register(
            "sender",
            Box::new(Sender {
                results: results.clone(),
            }),
            &[],
        )
        .unwrap();
    let sink = exec
        .register("sink", Box::new(Sink { got: got.clone() }), &[])
        .unwrap();
    exec.enable_all();
    let order = |target: Tid, len: u32| {
        let mut p = target.raw().to_le_bytes().to_vec();
        p.extend_from_slice(&len.to_le_bytes());
        exec.post(
            Message::build_private(sender, Tid::HOST, ORG, X_SEND)
                .payload(p)
                .finish(),
        )
        .unwrap();
        while exec.run_once() > 0 {}
    };

    // Delivered: exactly one allocation on top of the order frame's,
    // both blocks home again after dispatch. 61 B also covers padding.
    let before = exec.core().allocator().stats();
    order(sink, 61);
    let after = exec.core().allocator().stats();
    assert!(matches!(results.lock().pop(), Some(Ok(()))));
    assert_eq!(got.load(Ordering::SeqCst), 61);
    assert_eq!(
        after.allocs - before.allocs,
        2,
        "order frame + one in-place frame"
    );
    assert_eq!(after.live_blocks, before.live_blocks);

    // Unroutable: the block was allocated and filled, the send fails,
    // and the block is back in the pool when `Err` returns.
    let nowhere = Tid::new(0x7F0).unwrap();
    let before = exec.core().allocator().stats();
    order(nowhere, 2048);
    let after = exec.core().allocator().stats();
    assert!(matches!(
        results.lock().pop(),
        Some(Err(ExecError::UnknownTid(t))) if t == nowhere
    ));
    assert_eq!(after.allocs - before.allocs, 2);
    assert_eq!(after.frees - before.frees, 2);
    assert_eq!(after.live_blocks, before.live_blocks);

    // Refused by the transport: one attempt, counted once, and the
    // block the transport handed back is in the pool when `Err`
    // returns.
    let refusing = exec.proxy("loop://gone", sink, None).unwrap();
    let send_failures = || {
        exec.core().monitors().registry().snapshot()["counters"]["pta.send_failures"]
            .as_u64()
            .unwrap()
    };
    let failures = send_failures();
    let before = exec.core().allocator().stats();
    order(refusing, 2048);
    let after = exec.core().allocator().stats();
    assert!(matches!(
        results.lock().pop(),
        Some(Err(ExecError::Transport(_)))
    ));
    assert_eq!(send_failures() - failures, 1);
    assert_eq!(after.allocs - before.allocs, 2);
    assert_eq!(after.live_blocks, before.live_blocks);

    // Too long for any frame: refused before a block is taken.
    let before = exec.core().allocator().stats();
    order(sink, 1 << 20);
    let after = exec.core().allocator().stats();
    assert!(matches!(results.lock().pop(), Some(Err(_))));
    assert_eq!(after.allocs - before.allocs, 1, "only the order frame");
    assert_eq!(after.live_blocks, before.live_blocks);
    assert_eq!(got.load(Ordering::SeqCst), 61);
}

/// Counts its timer expiries; ignores frames.
struct Ticks {
    fired: Arc<AtomicU64>,
}

impl I2oListener for Ticks {
    fn class(&self) -> DeviceClass {
        DeviceClass::Application(ORG)
    }
    fn on_private(&mut self, _ctx: &mut Dispatcher<'_>, _msg: Delivery) {}
    fn on_timer(&mut self, _ctx: &mut Dispatcher<'_>, _id: TimerId) {
        self.fired.fetch_add(1, Ordering::SeqCst);
    }
}

#[test]
fn mon_reset_with_frames_queued_leaves_the_depth_gauge_at_the_queue_depth() {
    let exec = Executive::new(ExecutiveConfig::named("n"));
    let fired = Arc::new(AtomicU64::new(0));
    let sink = exec
        .register("sink", Box::new(Ticks { fired }), &[])
        .unwrap();
    exec.enable_all();
    while exec.run_once() > 0 {}
    let post = || {
        let frame = Message::build_private(sink, Tid::HOST, ORG, X_DATA).finish();
        exec.post(frame).unwrap();
    };
    let depth = |exec: &Executive| {
        let snap = exec.core().mon_snapshot();
        let gauge = &snap["metrics"]["gauges"]["queue.depth.p0"];
        (gauge[0].as_i64().unwrap(), snap["queued"].as_u64().unwrap())
    };
    for _ in 0..3 {
        post();
    }
    assert_eq!(depth(&exec), (3, 3));
    exec.core().mon_reset();
    while exec.run_once() > 0 {}
    assert_eq!(depth(&exec), (0, 0), "level after the drain");
    // The gauge keeps following the queue after the reset.
    post();
    post();
    assert_eq!(depth(&exec), (2, 2));
    while exec.run_once() > 0 {}
    assert_eq!(depth(&exec), (0, 0));
}

#[test]
fn timer_armed_from_a_host_thread_after_idle_passes_fires_on_the_first_due_pass() {
    let (clock, time) = Clock::simulated();
    let exec = Executive::new(ExecutiveConfig {
        clock,
        ..ExecutiveConfig::named("n")
    });
    let fired = Arc::new(AtomicU64::new(0));
    let owner = exec
        .register(
            "ticks",
            Box::new(Ticks {
                fired: fired.clone(),
            }),
            &[],
        )
        .unwrap();
    exec.enable_all();
    while exec.run_once() > 0 {}
    // The loop runs idle with an empty timer heap: no lock, no clock.
    for _ in 0..10_000 {
        assert_eq!(exec.run_once(), 0);
    }
    let delay = Duration::from_millis(5);
    std::thread::scope(|s| {
        s.spawn(|| exec.core().timers().register(owner, delay, false));
    });
    time.advance(delay - Duration::from_nanos(1));
    assert_eq!(exec.run_once(), 0, "not due yet");
    assert_eq!(fired.load(Ordering::SeqCst), 0);
    time.advance(Duration::from_nanos(1));
    assert!(exec.run_once() > 0);
    assert_eq!(
        fired.load(Ordering::SeqCst),
        1,
        "fired on the first due pass"
    );
    assert_eq!(exec.core().timers().heap_len(), 0);
    assert_eq!(exec.run_once(), 0);
}
