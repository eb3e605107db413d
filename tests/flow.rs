//! Slow consumers without link credits (DESIGN.md §13).
//!
//! An executive's scheduling queue is unbounded and no link meters
//! data frames: the senders that ship with the repo each limit what
//! they have in flight themselves (the event builder's credits, a
//! stream's window, a closed-loop echo). These tests pin what a slow
//! consumer still gets without link credits:
//!
//! * a backlog never gets a live peer Suspected — heartbeats are
//!   priority MAX and any inbound frame is proof of life;
//! * over `shm://` the region's blocks bound the receiver's queue and
//!   the sender sees `WouldBlock`, with no loss and no leaked block;
//! * over `xpt://` a slow consumer loses nothing and the sender's pool
//!   gets every block back.
//!
//! Stale `flow.*` / `qos.*` keys sent to an executive are refused, not
//! stored.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use xdaq::core::config::{kv, parse_kv};
use xdaq::core::{
    Delivery, Dispatcher, ExecError, Executive, ExecutiveConfig, I2oListener, LinkState, PtError,
    SupervisionConfig,
};
use xdaq::i2o::{DeviceClass, Message, ReplyStatus, Tid, UtilFn};
use xdaq::mempool::TablePool;
use xdaq::pt::{LoopbackHub, LoopbackPt, XptPt};

const XFN_DATA: u16 = 0x0300;

fn wait_until(cond: impl Fn() -> bool, timeout: Duration) -> bool {
    let deadline = Instant::now() + timeout;
    while Instant::now() < deadline {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    cond()
}

/// Counts private frames; optionally sleeps per frame (slow consumer).
struct Sink {
    received: Arc<AtomicU64>,
    delay: Duration,
}

impl Sink {
    fn new(delay: Duration) -> (Sink, Arc<AtomicU64>) {
        let received = Arc::new(AtomicU64::new(0));
        (
            Sink {
                received: received.clone(),
                delay,
            },
            received,
        )
    }
}

impl I2oListener for Sink {
    fn class(&self) -> DeviceClass {
        DeviceClass::Application(0x0DAB)
    }

    fn on_private(&mut self, _ctx: &mut Dispatcher<'_>, _msg: Delivery) {
        if !self.delay.is_zero() {
            std::thread::sleep(self.delay);
        }
        self.received.fetch_add(1, Ordering::Relaxed);
    }
}

fn data_frame(dest: Tid) -> Message {
    Message::build_private(dest, Tid::HOST, 0x0DAB, XFN_DATA)
        .payload(vec![0x42u8; 64])
        .finish()
}

/// Posts `count` frames toward `dest` as fast as the transport takes
/// them, retrying a frame the transport refused with `WouldBlock`.
/// Returns how many refusals there were.
fn flood(exec: &Executive, dest: Tid, count: u64) -> u64 {
    let deadline = Instant::now() + Duration::from_secs(60);
    let mut would_block = 0;
    let mut sent = 0;
    while sent < count {
        assert!(Instant::now() < deadline, "sender wedged at {sent}/{count}");
        match exec.post(data_frame(dest)) {
            Ok(()) => sent += 1,
            Err(ExecError::Transport(PtError::WouldBlock)) => {
                would_block += 1;
                std::thread::sleep(Duration::from_micros(100));
            }
            Err(e) => panic!("unexpected send error: {e}"),
        }
    }
    would_block
}

/// Runs `work` while another thread samples `exec`'s queue depth;
/// returns `work`'s result and the deepest queue seen.
fn with_peak_queue<T>(exec: &Executive, work: impl FnOnce() -> T) -> (T, usize) {
    let done = AtomicBool::new(false);
    std::thread::scope(|s| {
        let sampler = s.spawn(|| {
            let mut peak = 0;
            while !done.load(Ordering::Relaxed) {
                peak = peak.max(exec.core().queued());
                std::thread::sleep(Duration::from_micros(50));
            }
            peak
        });
        let out = work();
        done.store(true, Ordering::Relaxed);
        (out, sampler.join().unwrap())
    })
}

/// A slow consumer's backlog never gets a live peer Suspected: `b`
/// queues 3 000 frames for a 1 ms consumer, yet `a`'s heartbeats are
/// answered at priority MAX ahead of that backlog, so `a` keeps the
/// link Up the whole time it drains, and nothing is lost.
#[test]
fn saturated_link_keeps_peer_up() {
    const COUNT: u64 = 3_000;
    let hub = LoopbackHub::new();
    let mut ca = ExecutiveConfig::named("a");
    ca.supervision = Some(SupervisionConfig {
        interval: Duration::from_millis(20),
        suspect_after: 3,
        down_after: 6,
    });
    let a = Executive::new(ca);
    let b = Executive::new(ExecutiveConfig::named("b"));
    a.register_pt("a.loop", LoopbackPt::new(&hub, "a")).unwrap();
    b.register_pt("b.loop", LoopbackPt::new(&hub, "b")).unwrap();

    let (sink, received) = Sink::new(Duration::from_millis(1));
    let sink_tid = b.register("sink", Box::new(sink), &[]).unwrap();
    let proxy = a.proxy("loop://b", sink_tid, None).unwrap();
    a.supervise("loop://b").unwrap();
    a.enable_all();
    b.enable_all();
    let ha = a.spawn();
    let hb = b.spawn();

    let (drained, peak) = with_peak_queue(&b, || {
        assert_eq!(flood(&a, proxy, COUNT), 0, "loop:// never refuses");
        wait_until(
            || received.load(Ordering::Relaxed) >= COUNT,
            Duration::from_secs(60),
        )
    });
    assert!(
        drained,
        "frames lost: {} of {COUNT}",
        received.load(Ordering::Relaxed)
    );
    assert!(peak >= 1_000, "no backlog formed (peak queue {peak})");
    let states = a.link_states();
    assert!(
        states
            .iter()
            .any(|(p, s)| p == "loop://b" && *s == LinkState::Up),
        "saturated link degraded: {states:?}"
    );
    let metrics = a.core().monitors().registry().snapshot();
    let c = &metrics["counters"];
    assert_eq!(c["link.peer_suspect"].as_u64().unwrap(), 0, "{metrics}");
    assert_eq!(c["link.peer_down"].as_u64().unwrap(), 0, "{metrics}");
    // The drain takes over 3 s: dozens of 20 ms supervision periods.
    assert!(c["link.hb_pings"].as_u64().unwrap() >= 50, "{metrics}");
    ha.shutdown();
    hb.shutdown();
}

/// Over `shm://` the region bounds a slow consumer's queue: a frame
/// the receiver has queued still holds the region block it arrived in,
/// so once all `NBLOCKS` are queued the sender gets `WouldBlock` and
/// retries. Every frame arrives, and the sender's pool gets every
/// block back (an in-process creator/attacher pair — the transport
/// does not care).
#[test]
fn shm_slow_consumer_soak() {
    const COUNT: u64 = 1_000;
    const NBLOCKS: usize = 256;
    let region = std::env::temp_dir().join(format!("xdaq-flow-soak-{}", std::process::id()));
    let a_pt = xdaq::shm::ShmPt::new(xdaq::core::PtMode::Polling);
    let link = a_pt
        .create_link(
            &region,
            xdaq::shm::ShmConfig {
                block_size: 4096,
                nblocks: NBLOCKS,
                ring_capacity: 512,
            },
        )
        .unwrap();
    let peer = link.peer_addr().clone();
    let b_pt = xdaq::shm::ShmPt::new(xdaq::core::PtMode::Polling);
    b_pt.attach_link(&region).unwrap();

    let a = Executive::new(ExecutiveConfig::named("a"));
    let b = Executive::new(ExecutiveConfig::named("b"));
    a.register_pt("a.shm", a_pt).unwrap();
    b.register_pt("b.shm", b_pt).unwrap();
    let (sink, received) = Sink::new(Duration::from_micros(500));
    let sink_tid = b.register("sink", Box::new(sink), &[]).unwrap();
    let proxy = a.proxy(&peer.to_string(), sink_tid, None).unwrap();
    a.enable_all();
    b.enable_all();
    let ha = a.spawn();
    let hb = b.spawn();

    let ((would_block, drained), peak) = with_peak_queue(&b, || {
        let would_block = flood(&a, proxy, COUNT);
        let drained = wait_until(
            || received.load(Ordering::Relaxed) >= COUNT,
            Duration::from_secs(60),
        );
        (would_block, drained)
    });
    assert!(
        drained,
        "frames lost over shm: {} of {COUNT}",
        received.load(Ordering::Relaxed)
    );
    assert!(would_block > 0, "flood never met the region's bound");
    assert!(
        peak <= NBLOCKS,
        "receiver queued {peak} frames from a {NBLOCKS}-block region"
    );
    ha.shutdown();
    hb.shutdown();
    let sa = a.core().allocator().stats();
    assert_eq!(sa.live_blocks, 0, "sender pool leak: {sa:?}");
    let _ = std::fs::remove_file(&region);
}

/// The socket slow-consumer soak: a slow consumer behind `xpt://`
/// loses nothing, and the sender's pool gets every block back even
/// though sends complete asynchronously on the driver thread.
#[test]
fn xpt_slow_consumer_soak() {
    const COUNT: u64 = 400;
    let a = Executive::new(ExecutiveConfig::named("a"));
    let b = Executive::new(ExecutiveConfig::named("b"));
    a.register_pt(
        "a.xpt",
        XptPt::bind("127.0.0.1:0", TablePool::with_defaults()).unwrap(),
    )
    .unwrap();
    let b_xpt = XptPt::bind("127.0.0.1:0", TablePool::with_defaults()).unwrap();
    let b_url = b_xpt.addr().to_string();
    b.register_pt("b.xpt", b_xpt).unwrap();

    let (sink, received) = Sink::new(Duration::from_micros(500));
    let sink_tid = b.register("sink", Box::new(sink), &[]).unwrap();
    let proxy = a.proxy(&b_url, sink_tid, None).unwrap();
    a.enable_all();
    b.enable_all();
    let ha = a.spawn();
    let hb = b.spawn();

    flood(&a, proxy, COUNT);
    assert!(
        wait_until(
            || received.load(Ordering::Relaxed) >= COUNT,
            Duration::from_secs(60)
        ),
        "frames lost over xpt: {} of {COUNT}",
        received.load(Ordering::Relaxed)
    );
    ha.shutdown();
    hb.shutdown();
    let sa = a.core().allocator().stats();
    assert_eq!(sa.live_blocks, 0, "sender pool leak: {sa:?}");
}

/// Records the replies its requests get back.
struct Replies(Arc<parking_lot::Mutex<Vec<Vec<u8>>>>);

impl I2oListener for Replies {
    fn class(&self) -> DeviceClass {
        DeviceClass::Application(0x0DAB)
    }

    fn on_private(&mut self, _ctx: &mut Dispatcher<'_>, _msg: Delivery) {}

    fn on_reply(&mut self, _ctx: &mut Dispatcher<'_>, msg: Delivery) {
        self.0.lock().push(msg.payload().to_vec());
    }
}

/// The `flow.*` and `qos.*` keys the executive once read are refused:
/// a `ParamsSet` carrying one gets `BadFrame`, and none of the frame's
/// keys is stored — whatever order the frame's map yields them in.
#[test]
fn stale_flow_and_qos_params_set_is_refused() {
    let exec = Executive::new(ExecutiveConfig::named("a"));
    let log = Arc::new(parking_lot::Mutex::new(Vec::new()));
    let me = exec
        .register("host", Box::new(Replies(log.clone())), &[])
        .unwrap();
    exec.enable_all();
    // One request to the executive, dispatched; its reply's status and
    // body.
    let ask = |f: UtilFn, pairs: &[(&str, &str)]| {
        exec.post(
            Message::util(Tid::EXECUTIVE, me, f)
                .payload(kv(pairs))
                .expect_reply()
                .finish(),
        )
        .unwrap();
        while exec.run_once() > 0 {}
        let p = log.lock().pop().expect("the executive replied");
        (ReplyStatus::from_u8(p[0]), p[1..].to_vec())
    };
    let stored = |key: &str| {
        let (status, body) = ask(UtilFn::ParamsGet, &[]);
        assert_eq!(status, ReplyStatus::Success);
        parse_kv(&body).unwrap().contains_key(key)
    };
    for round in 0..10 {
        for pairs in [
            vec![("qos.class.t", "10:5")],
            vec![("flow.window", "8")],
            vec![
                ("note", "x"),
                ("qos.assign.49", "bulk"),
                ("flow.policy", "fail"),
            ],
        ] {
            let (status, body) = ask(UtilFn::ParamsSet, &pairs);
            assert_eq!(status, ReplyStatus::BadFrame, "round {round}: {pairs:?}");
            let body = String::from_utf8(body).unwrap();
            assert!(body.contains("removed"), "round {round}: {body}");
            for (k, _) in &pairs {
                assert!(!stored(k), "round {round}: {pairs:?} stored {k}");
            }
        }
    }
    // The same executive stores a frame without them, so the refusals
    // above were decisions, not frames left undispatched.
    assert_eq!(
        ask(UtilFn::ParamsSet, &[("note", "x")]).0,
        ReplyStatus::Success
    );
    assert!(stored("note"));
}
