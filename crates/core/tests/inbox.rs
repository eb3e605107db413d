//! Task-mode transports hand frames to the dispatch loop through one
//! inbox per executive (DESIGN.md §10 "Ingest"). K transport threads
//! race one running loop: every frame must reach its device exactly
//! once and in its thread's order, and nothing may be left queued or
//! holding a pool block once the executive has stopped.
//!
//! `XDAQ_TEST_HEAVY=1` (the release stage of `scripts/ci.sh`) sends
//! 200 000 frames per thread instead of 2 000.

use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use xdaq_core::{
    Delivery, Dispatcher, Executive, ExecutiveConfig, I2oListener, IngestSink, PeerAddr,
    PeerTransport, PtError, PtMode, SendFailure,
};
use xdaq_i2o::{DeviceClass, Message, Tid};
use xdaq_mempool::{DynAllocator, FrameBuf, TablePool};

const ORG: u16 = 0x0ec1;
const THREADS: usize = 4;
/// Frames a thread may have handed over and not yet seen dispatched,
/// so the pool stays small however far the loop falls behind.
const WINDOW: u64 = 256;

fn frames_per_thread() -> u64 {
    if std::env::var_os("XDAQ_TEST_HEAVY").is_some() {
        200_000
    } else {
        2_000
    }
}

/// What the device saw, per transport thread.
#[derive(Default)]
struct Seen {
    delivered: [AtomicU64; THREADS],
    out_of_order: AtomicU64,
}

/// Checks that each thread's sequence numbers arrive as 0, 1, 2, …
struct Recorder(Arc<Seen>);

impl I2oListener for Recorder {
    fn class(&self) -> DeviceClass {
        DeviceClass::Application(ORG)
    }
    fn on_private(&mut self, _ctx: &mut Dispatcher<'_>, msg: Delivery) {
        let p = msg.payload();
        let thread = p[0] as usize;
        let seq = u64::from_le_bytes(p[1..9].try_into().unwrap());
        let next = &self.0.delivered[thread];
        if seq != next.load(Ordering::Relaxed) {
            self.0.out_of_order.fetch_add(1, Ordering::Relaxed);
        }
        next.fetch_add(1, Ordering::Release);
    }
}

/// A task-mode transport whose `start` spawns [`THREADS`] threads, each
/// handing `frames` frames from the transport's own pool to the sink,
/// from its own peer address.
struct RacePt {
    alloc: DynAllocator,
    target: Tid,
    frames: u64,
    seen: Arc<Seen>,
    abort: Arc<AtomicBool>,
    threads: Mutex<Vec<JoinHandle<()>>>,
}

impl PeerTransport for RacePt {
    fn scheme(&self) -> &'static str {
        "race"
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
        for k in 0..THREADS {
            let (sink, alloc, seen) = (sink.clone(), self.alloc.clone(), self.seen.clone());
            let (target, frames, abort) = (self.target, self.frames, self.abort.clone());
            let src: PeerAddr = format!("race://t{k}").parse().unwrap();
            let initiator = Tid::new(0x100 + k as u16).unwrap();
            self.threads.lock().push(std::thread::spawn(move || {
                for seq in 0..frames {
                    while seq - seen.delivered[k].load(Ordering::Acquire) >= WINDOW {
                        if abort.load(Ordering::Relaxed) {
                            return;
                        }
                        std::thread::yield_now();
                    }
                    let mut body = vec![k as u8];
                    body.extend_from_slice(&seq.to_le_bytes());
                    let msg = Message::build_private(target, initiator, ORG, 1)
                        .payload(body)
                        .finish();
                    let frame = Delivery::from_message(&msg, &*alloc).unwrap();
                    sink(frame.into_buf(), src.clone());
                }
            }));
        }
        Ok(())
    }
    fn stop(&self) {
        self.abort.store(true, Ordering::Relaxed);
        for t in self.threads.lock().drain(..) {
            t.join().expect("transport thread");
        }
    }
}

#[test]
fn racing_transport_threads_lose_and_reorder_nothing() {
    let exec = Executive::new(ExecutiveConfig::named("n"));
    let seen = Arc::new(Seen::default());
    let target = exec
        .register("recorder", Box::new(Recorder(seen.clone())), &[])
        .unwrap();
    let frames = frames_per_thread();
    let pool: DynAllocator = TablePool::with_defaults();
    let pt = Arc::new(RacePt {
        alloc: pool.clone(),
        target,
        frames,
        seen: seen.clone(),
        abort: Arc::default(),
        threads: Mutex::new(Vec::new()),
    });
    exec.register_pt("race", pt).unwrap();
    exec.enable_all();
    let live = || {
        (
            exec.core().allocator().stats().live_blocks,
            pool.stats().live_blocks,
        )
    };
    let live_before = live();

    let handle = exec.spawn();
    let total = frames * THREADS as u64;
    let delivered = || -> u64 {
        seen.delivered
            .iter()
            .map(|d| d.load(Ordering::Acquire))
            .sum()
    };
    let deadline = Instant::now() + Duration::from_secs(60);
    while delivered() < total && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(2));
    }
    handle.shutdown();

    for (k, d) in seen.delivered.iter().enumerate() {
        assert_eq!(d.load(Ordering::Acquire), frames, "thread {k}: frames lost");
    }
    assert_eq!(seen.out_of_order.load(Ordering::Relaxed), 0, "reordered");
    assert_eq!(exec.core().queued(), 0, "inbox and queue empty after stop");
    assert_eq!(
        live(),
        live_before,
        "every frame's block is back in its pool"
    );
}

/// A task-mode transport that hands over one last frame while it is
/// being stopped, after the loop's final pass.
struct LastWord {
    pool: DynAllocator,
    sink: Mutex<Option<IngestSink>>,
}

impl PeerTransport for LastWord {
    fn scheme(&self) -> &'static str {
        "last"
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
        *self.sink.lock() = Some(sink);
        Ok(())
    }
    fn stop(&self) {
        if let Some(sink) = self.sink.lock().take() {
            let msg =
                Message::build_private(Tid::new(0x10).unwrap(), Tid::new(0x20).unwrap(), ORG, 1)
                    .finish();
            let frame = Delivery::from_message(&msg, &*self.pool).unwrap();
            sink(frame.into_buf(), "last://far".parse().unwrap());
        }
    }
}

#[test]
fn a_frame_queued_after_the_last_pass_returns_to_its_pool() {
    let exec = Executive::new(ExecutiveConfig::named("n"));
    let pool: DynAllocator = TablePool::with_defaults();
    let pt = Arc::new(LastWord {
        pool: pool.clone(),
        sink: Mutex::new(None),
    });
    exec.register_pt("last", pt).unwrap();
    exec.spawn().shutdown();
    assert_eq!(exec.core().queued(), 0, "the inbox is empty after stop");
    assert_eq!(pool.stats().live_blocks, 0, "the frame's block is back");
}
