//! Failure-injection tests: the executive must degrade gracefully when
//! pools run dry, transports fail, devices die mid-flight or peers
//! vanish — the "homogeneous view of software components with fault
//! tolerant behaviour" of paper §3.2.

use std::sync::Arc;
use xdaq_core::{
    Delivery, Dispatcher, ExecError, Executive, ExecutiveConfig, I2oListener, IngestSink, PeerAddr,
    PeerTransport, PtError, PtMode, SendFailure,
};
use xdaq_i2o::{DeviceClass, Message, ReplyStatus, Tid, UtilFn};
use xdaq_mempool::FrameBuf;

type SinkLog = Arc<parking_lot::Mutex<Vec<(Option<u16>, Vec<u8>)>>>;

struct Sink(SinkLog);

impl I2oListener for Sink {
    fn class(&self) -> DeviceClass {
        DeviceClass::Application(1)
    }
    fn on_private(&mut self, _ctx: &mut Dispatcher<'_>, msg: Delivery) {
        self.0
            .lock()
            .push((msg.private.map(|p| p.x_function), msg.payload().to_vec()));
    }
    fn on_reply(&mut self, _ctx: &mut Dispatcher<'_>, msg: Delivery) {
        self.0.lock().push((None, msg.payload().to_vec()));
    }
}

fn drain(e: &Executive) {
    while e.run_once() > 0 {}
}

/// One of an executive's `exec.*` counters, read from its registry.
fn exec_counter(exec: &Executive, key: &str) -> u64 {
    let registry = exec.core().monitors().registry();
    registry.counter(&format!("exec.{key}")).get()
}

/// A transport that always fails to send.
struct BrokenPt;

impl PeerTransport for BrokenPt {
    fn scheme(&self) -> &'static str {
        "broken"
    }
    fn mode(&self) -> PtMode {
        PtMode::Polling
    }
    fn send(&self, dest: &PeerAddr, frame: FrameBuf) -> Result<(), SendFailure> {
        Err(SendFailure::with_frame(
            PtError::Unreachable(dest.to_string()),
            frame,
        ))
    }
    fn poll(&self) -> Option<(FrameBuf, PeerAddr)> {
        None
    }
    fn stop(&self) {}
}

#[test]
fn send_to_unreachable_peer_is_an_error_not_a_panic() {
    let exec = Executive::new(ExecutiveConfig::named("n"));
    exec.register_pt("broken", Arc::new(BrokenPt)).unwrap();
    let proxy = exec
        .proxy("broken://nowhere", Tid::new(0x20).unwrap(), None)
        .unwrap();
    let msg = Message::build_private(proxy, Tid::HOST, 1, 1).finish();
    match exec.post(msg) {
        Err(ExecError::Transport(PtError::Unreachable(_))) => {}
        other => panic!("expected transport error, got {other:?}"),
    }
}

#[test]
fn send_via_unknown_scheme_is_reported() {
    let exec = Executive::new(ExecutiveConfig::named("n"));
    let proxy = exec
        .proxy("ghost://x", Tid::new(0x20).unwrap(), None)
        .unwrap();
    let msg = Message::build_private(proxy, Tid::HOST, 1, 1).finish();
    assert!(matches!(exec.post(msg), Err(ExecError::Transport(_))));
}

#[test]
fn garbage_from_the_wire_is_dropped_and_counted() {
    let exec = Executive::new(ExecutiveConfig::named("n"));
    let src: PeerAddr = "loop://evil".parse().unwrap();
    exec.ingest_from_peer(FrameBuf::from_bytes(&[0xFFu8; 64]), src.clone());
    exec.ingest_from_peer(FrameBuf::from_bytes(&[]), src.clone());
    // A frame claiming a bigger size than its buffer.
    let msg = Message::build_private(Tid::new(0x10).unwrap(), Tid::HOST, 1, 1)
        .payload(vec![0u8; 64])
        .finish();
    let mut wire = msg.encode_vec();
    wire.truncate(24);
    exec.ingest_from_peer(FrameBuf::from_bytes(&wire), src);
    assert_eq!(exec_counter(&exec, "dropped"), 3);
    drain(&exec);
}

#[test]
fn messages_to_destroyed_device_yield_unknown_target_reply() {
    let exec = Executive::new(ExecutiveConfig::named("n"));
    let replies = Arc::new(parking_lot::Mutex::new(Vec::new()));
    let sink_tid = exec
        .register("sink", Box::new(Sink(replies.clone())), &[])
        .unwrap();
    let victim = exec
        .register("victim", Box::new(Sink(Default::default())), &[])
        .unwrap();
    exec.enable_all();
    exec.destroy(victim).unwrap();
    // Route is gone: local post errors out...
    assert!(exec
        .post(Message::build_private(victim, sink_tid, 1, 1).finish())
        .is_err());
    // ...but a frame already on the wire gets a well-formed error
    // reply (fault-tolerant default).
    let src: PeerAddr = "loop://peer".parse().unwrap();
    // Re-add a stale route as a peer would have seen it.
    exec.core()
        .route(
            Delivery::from_message(
                &Message::build_private(victim, sink_tid, 1, 1)
                    .expect_reply()
                    .finish(),
                exec.core().allocator(),
            )
            .unwrap(),
        )
        .ok();
    let _ = src;
    drain(&exec);
    let r = replies.lock();
    if let Some((_, payload)) = r.first() {
        assert_eq!(payload[0], ReplyStatus::UnknownTarget as u8);
    }
}

#[test]
fn destroy_purges_pending_traffic_and_recycles_tid() {
    let exec = Executive::new(ExecutiveConfig::named("n"));
    let victim = exec
        .register("victim", Box::new(Sink(Default::default())), &[])
        .unwrap();
    exec.enable_all();
    for _ in 0..10 {
        exec.post(Message::build_private(victim, Tid::HOST, 1, 1).finish())
            .unwrap();
    }
    assert_eq!(exec.core().queued(), 10);
    exec.destroy(victim).unwrap();
    assert_eq!(exec.core().queued(), 0, "queued frames purged");
    assert!(exec.destroy(victim).is_err(), "double destroy");
}

#[test]
fn handler_panic_is_not_silent_death() {
    // A panicking handler aborts the dispatch thread in run(); with
    // run_once on the test thread the panic propagates — the framework
    // must leave the registry consistent enough to drop cleanly.
    struct Bomb;
    impl I2oListener for Bomb {
        fn class(&self) -> DeviceClass {
            DeviceClass::Application(1)
        }
        fn on_private(&mut self, _ctx: &mut Dispatcher<'_>, _msg: Delivery) {
            panic!("application bug");
        }
    }
    let exec = Executive::new(ExecutiveConfig::named("n"));
    let tid = exec.register("bomb", Box::new(Bomb), &[]).unwrap();
    exec.enable_all();
    exec.post(Message::build_private(tid, Tid::HOST, 1, 1).finish())
        .unwrap();
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        drain(&exec);
    }));
    assert!(result.is_err(), "panic surfaces");
    // The executive object is still usable for shutdown-style queries.
    assert!(exec.core().queued() == 0 || exec.core().queued() > 0);
}

#[test]
fn params_set_with_garbage_payload_replies_bad_frame() {
    let exec = Executive::new(ExecutiveConfig::named("n"));
    let replies = Arc::new(parking_lot::Mutex::new(Vec::new()));
    let sink_tid = exec
        .register("sink", Box::new(Sink(replies.clone())), &[])
        .unwrap();
    let dev = exec
        .register("dev", Box::new(Sink(Default::default())), &[])
        .unwrap();
    exec.enable_all();
    exec.post(
        Message::util(dev, sink_tid, UtilFn::ParamsSet)
            .payload(&b"not a kv payload"[..])
            .expect_reply()
            .finish(),
    )
    .unwrap();
    drain(&exec);
    let r = replies.lock();
    assert_eq!(r.len(), 1);
    assert_eq!(r[0].1[0], ReplyStatus::BadFrame as u8);
}

#[test]
fn util_abort_purges_device_queue() {
    let exec = Executive::new(ExecutiveConfig::named("n"));
    let replies = Arc::new(parking_lot::Mutex::new(Vec::new()));
    let sink_tid = exec
        .register("sink", Box::new(Sink(replies.clone())), &[])
        .unwrap();
    let dev = exec
        .register("dev", Box::new(Sink(Default::default())), &[])
        .unwrap();
    // Do NOT enable: private frames queue then bounce; instead keep
    // device initialized and pile utility work behind an abort.
    exec.enable_all();
    for _ in 0..5 {
        exec.post(Message::build_private(dev, sink_tid, 1, 1).finish())
            .unwrap();
    }
    // Abort at MAX priority overtakes the queued private frames.
    exec.post(
        Message::util(dev, sink_tid, UtilFn::Abort)
            .priority(xdaq_i2o::Priority::MAX)
            .expect_reply()
            .finish(),
    )
    .unwrap();
    exec.run_once();
    let r = replies.lock();
    let abort_reply = r.iter().find(|(_, p)| !p.is_empty());
    let (_, payload) = abort_reply.expect("abort replied");
    assert_eq!(payload[0], ReplyStatus::Aborted as u8);
    let body = String::from_utf8(payload[1..].to_vec()).unwrap();
    assert_eq!(body, "purged=5");
}

#[test]
fn tid_exhaustion_is_reported_not_fatal() {
    let exec = Executive::new(ExecutiveConfig::named("n"));
    // Exhaust the dynamic TiD space via proxies (cheapest route).
    let mut made = 0u32;
    if exec
        .proxy("loop://x", Tid::new(0x20).unwrap(), None)
        .is_ok()
    {
        made += 1;
    }
    assert_eq!(made, 1);
    let mut err = None;
    for i in 0..5000u32 {
        match exec.proxy(&format!("loop://n{i}"), Tid::new(0x21).unwrap(), None) {
            Ok(_) => continue,
            Err(e) => {
                err = Some(e);
                break;
            }
        }
    }
    match err {
        Some(ExecError::Tid(_)) => {}
        other => panic!("expected TiD exhaustion, got {other:?}"),
    }
}

/// A task-mode PT whose receive thread panics shortly after start.
struct PanickyPt {
    thread: parking_lot::Mutex<Option<std::thread::JoinHandle<()>>>,
    panics: std::sync::atomic::AtomicU64,
}

impl PanickyPt {
    fn new() -> Arc<PanickyPt> {
        Arc::new(PanickyPt {
            thread: parking_lot::Mutex::new(None),
            panics: std::sync::atomic::AtomicU64::new(0),
        })
    }
}

impl PeerTransport for PanickyPt {
    fn scheme(&self) -> &'static str {
        "panicky"
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
    fn start(&self, _sink: IngestSink) -> Result<(), PtError> {
        let h = std::thread::Builder::new()
            .name("panicky-pt".into())
            .spawn(|| panic!("transport thread bug"))
            .map_err(|e| PtError::Io(e.to_string()))?;
        *self.thread.lock() = Some(h);
        Ok(())
    }
    fn stop(&self) {
        if let Some(t) = self.thread.lock().take() {
            if t.join().is_err() {
                self.panics
                    .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            }
        }
    }
    fn take_panics(&self) -> u64 {
        self.panics.swap(0, std::sync::atomic::Ordering::Relaxed)
    }
}

#[test]
fn task_pt_panic_is_reaped_and_counted() {
    let exec = Executive::new(ExecutiveConfig::named("n"));
    exec.register_pt("panicky", PanickyPt::new()).unwrap();
    exec.start_transports().unwrap();
    // Give the doomed thread a moment to die.
    std::thread::sleep(std::time::Duration::from_millis(50));
    // stop_all must join the dead thread without hanging and account
    // the panic.
    exec.core().pta().stop_all();
    assert_eq!(exec.core().pta().task_panics(), 1);
    let metrics = exec.core().monitors().registry().snapshot();
    assert_eq!(metrics["counters"]["pt.task_panics"].as_u64(), Some(1));
}

#[test]
fn quiesced_node_bounces_private_but_serves_util() {
    let exec = Executive::new(ExecutiveConfig::named("n"));
    let replies = Arc::new(parking_lot::Mutex::new(Vec::new()));
    let sink_tid = exec
        .register("sink", Box::new(Sink(replies.clone())), &[])
        .unwrap();
    let frames = Arc::new(parking_lot::Mutex::new(Vec::new()));
    let dev = exec
        .register("dev", Box::new(Sink(frames.clone())), &[])
        .unwrap();
    exec.enable_all();
    exec.quiesce_all();
    // Quiescing swept the sink too; re-enable only the sink.
    exec.core()
        .route(
            Delivery::from_message(
                &Message::exec(Tid::EXECUTIVE, sink_tid, xdaq_i2o::ExecFn::PathEnable)
                    .payload(xdaq_core::config::kv(&[(
                        "tid",
                        &sink_tid.raw().to_string(),
                    )]))
                    .finish(),
                exec.core().allocator(),
            )
            .unwrap(),
        )
        .unwrap();
    drain(&exec);
    exec.post(
        Message::build_private(dev, sink_tid, 1, 1)
            .expect_reply()
            .finish(),
    )
    .unwrap();
    exec.post(
        Message::util(dev, sink_tid, UtilFn::Nop)
            .expect_reply()
            .finish(),
    )
    .unwrap();
    drain(&exec);
    assert!(
        frames.lock().is_empty(),
        "no private delivery while quiesced"
    );
    let r = replies.lock();
    let statuses: Vec<u8> = r.iter().map(|(_, p)| p[0]).collect();
    assert!(
        statuses.contains(&(ReplyStatus::Busy as u8)),
        "{statuses:?}"
    );
    assert!(
        statuses.contains(&(ReplyStatus::Success as u8)),
        "{statuses:?}"
    );
}
