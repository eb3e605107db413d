//! Integration tests for the executive: registration, dispatch,
//! replies, run control, timers, watchdog, module loading and
//! executive-class control messages.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use xdaq_core::{
    config::{kv, parse_kv},
    AllocatorKind, Delivery, Dispatcher, Executive, ExecutiveConfig, I2oListener, TimerId,
};
use xdaq_i2o::{
    DeviceClass, DeviceState, ExecFn, Message, Priority, ReplyStatus, Tid, UtilFn, ORG_USER,
};

const XFN_ECHO: u16 = 0x0001;
const XFN_SINK: u16 = 0x0002;

/// Records private frames; echoes when asked.
struct Echo {
    seen: Arc<AtomicU64>,
    last_payload: Arc<parking_lot::Mutex<Vec<u8>>>,
}

impl I2oListener for Echo {
    fn class(&self) -> DeviceClass {
        DeviceClass::Application(ORG_USER)
    }
    fn on_private(&mut self, ctx: &mut Dispatcher<'_>, msg: Delivery) {
        self.seen.fetch_add(1, Ordering::SeqCst);
        *self.last_payload.lock() = msg.payload().to_vec();
        if msg.private.map(|p| p.x_function) == Some(XFN_ECHO) {
            ctx.reply(&msg, ReplyStatus::Success, msg.payload())
                .unwrap();
        }
    }
}

/// Collects replies and arbitrary frames for assertions.
#[derive(Default)]
struct SinkState {
    frames: parking_lot::Mutex<Vec<(Option<u16>, Vec<u8>)>>,
}

struct Sink(Arc<SinkState>);

impl I2oListener for Sink {
    fn class(&self) -> DeviceClass {
        DeviceClass::Application(ORG_USER)
    }
    fn on_private(&mut self, _ctx: &mut Dispatcher<'_>, msg: Delivery) {
        self.0
            .frames
            .lock()
            .push((msg.private.map(|p| p.x_function), msg.payload().to_vec()));
    }
    fn on_reply(&mut self, _ctx: &mut Dispatcher<'_>, msg: Delivery) {
        // Standard-function replies: record with no x-function.
        self.0.frames.lock().push((None, msg.payload().to_vec()));
    }
}

fn drain(exec: &Executive) {
    while exec.run_once() > 0 {}
}

/// One of an executive's `exec.*` counters, read from its registry.
fn exec_counter(exec: &Executive, key: &str) -> u64 {
    let registry = exec.core().monitors().registry();
    registry.counter(&format!("exec.{key}")).get()
}

fn new_exec(name: &str) -> Executive {
    let mut cfg = ExecutiveConfig::named(name);
    cfg.allocator = AllocatorKind::Table;
    Executive::new(cfg)
}

#[test]
fn register_assigns_distinct_tids_and_calls_plugged() {
    struct P(Arc<AtomicU64>, Arc<parking_lot::Mutex<String>>);
    impl I2oListener for P {
        fn class(&self) -> DeviceClass {
            DeviceClass::Application(1)
        }
        fn plugged(&mut self, ctx: &mut Dispatcher<'_>) {
            self.0.store(ctx.own_tid().raw() as u64, Ordering::SeqCst);
            *self.1.lock() = ctx.param("greeting").unwrap_or("").to_string();
        }
        fn on_private(&mut self, _ctx: &mut Dispatcher<'_>, _msg: Delivery) {}
    }
    let exec = new_exec("n1");
    let tid_cell = Arc::new(AtomicU64::new(0));
    let greet = Arc::new(parking_lot::Mutex::new(String::new()));
    let tid = exec
        .register(
            "p0",
            Box::new(P(tid_cell.clone(), greet.clone())),
            &[("greeting", "hi")],
        )
        .unwrap();
    assert_eq!(tid_cell.load(Ordering::SeqCst), tid.raw() as u64);
    assert_eq!(&*greet.lock(), "hi", "params visible in plugged()");
    let tid2 = exec
        .register(
            "p1",
            Box::new(Echo {
                seen: Arc::new(AtomicU64::new(0)),
                last_payload: Arc::new(parking_lot::Mutex::new(Vec::new())),
            }),
            &[],
        )
        .unwrap();
    assert_ne!(tid, tid2);
    assert!(
        exec.register("p0", Box::new(P(tid_cell, greet)), &[])
            .is_err(),
        "dup name"
    );
}

#[test]
fn private_frame_reaches_enabled_device_and_reply_routes_back() {
    let exec = new_exec("n1");
    let seen = Arc::new(AtomicU64::new(0));
    let last = Arc::new(parking_lot::Mutex::new(Vec::new()));
    let echo_tid = exec
        .register(
            "echo",
            Box::new(Echo {
                seen: seen.clone(),
                last_payload: last.clone(),
            }),
            &[],
        )
        .unwrap();
    let sink_state = Arc::new(SinkState::default());
    let sink_tid = exec
        .register("sink", Box::new(Sink(sink_state.clone())), &[])
        .unwrap();
    exec.enable_all();

    let msg = Message::build_private(echo_tid, sink_tid, ORG_USER, XFN_ECHO)
        .payload(&b"ping"[..])
        .expect_reply()
        .finish();
    exec.post(msg).unwrap();
    drain(&exec);

    assert_eq!(seen.load(Ordering::SeqCst), 1);
    assert_eq!(&*last.lock(), b"ping");
    // The reply landed at the sink (status byte + echoed payload).
    let frames = sink_state.frames.lock();
    assert_eq!(frames.len(), 1);
    assert_eq!(frames[0].0, Some(XFN_ECHO));
    assert_eq!(frames[0].1, b"\x00ping");
}

#[test]
fn disabled_device_rejects_private_frames_with_busy() {
    let exec = new_exec("n1");
    let seen = Arc::new(AtomicU64::new(0));
    let echo_tid = exec
        .register(
            "echo",
            Box::new(Echo {
                seen: seen.clone(),
                last_payload: Default::default(),
            }),
            &[],
        )
        .unwrap();
    // NOT enabled: state is Initialized.
    let msg = Message::build_private(echo_tid, Tid::HOST, ORG_USER, XFN_SINK).finish();
    exec.post(msg).unwrap();
    drain(&exec);
    assert_eq!(seen.load(Ordering::SeqCst), 0);
    assert_eq!(exec_counter(&exec, "dropped"), 1);
}

#[test]
fn unknown_target_counts_dropped() {
    let exec = new_exec("n1");
    let msg =
        Message::build_private(Tid::new(0x777).unwrap(), Tid::HOST, ORG_USER, XFN_SINK).finish();
    assert!(exec.post(msg).is_err());
    assert_eq!(exec_counter(&exec, "dropped"), 1);
}

#[test]
fn priority_order_respected_across_batch() {
    let exec = new_exec("n1");
    let state = Arc::new(SinkState::default());
    let tid = exec
        .register("sink", Box::new(Sink(state.clone())), &[])
        .unwrap();
    exec.enable_all();
    for (i, pri) in [1u8, 6, 3].iter().enumerate() {
        let msg = Message::build_private(tid, Tid::HOST, ORG_USER, XFN_SINK)
            .priority(Priority::new(*pri).unwrap())
            .payload(vec![i as u8])
            .finish();
        exec.post(msg).unwrap();
    }
    drain(&exec);
    let order: Vec<u8> = state.frames.lock().iter().map(|(_, p)| p[0]).collect();
    assert_eq!(order, vec![1, 2, 0], "priority 6, then 3, then 1");
}

#[test]
fn util_nop_and_params_roundtrip() {
    let exec = new_exec("n1");
    let state = Arc::new(SinkState::default());
    let sink_tid = exec
        .register("sink", Box::new(Sink(state.clone())), &[])
        .unwrap();
    let echo_tid = exec
        .register(
            "echo",
            Box::new(Echo {
                seen: Default::default(),
                last_payload: Default::default(),
            }),
            &[("size", "4096")],
        )
        .unwrap();
    exec.enable_all();

    // ParamsSet then ParamsGet.
    exec.post(
        Message::util(echo_tid, sink_tid, UtilFn::ParamsSet)
            .payload(kv(&[("rate", "100")]))
            .expect_reply()
            .finish(),
    )
    .unwrap();
    exec.post(
        Message::util(echo_tid, sink_tid, UtilFn::ParamsGet)
            .expect_reply()
            .finish(),
    )
    .unwrap();
    drain(&exec);

    let frames = state.frames.lock();
    assert_eq!(frames.len(), 2);
    assert_eq!(frames[0].1[0], 0, "ParamsSet succeeded");
    let body = String::from_utf8(frames[1].1[1..].to_vec()).unwrap();
    assert!(body.contains("rate=100"), "{body}");
    assert!(body.contains("size=4096"), "{body}");
}

#[test]
fn util_claim_lifecycle() {
    let exec = new_exec("n1");
    let state = Arc::new(SinkState::default());
    let sink_tid = exec
        .register("sink", Box::new(Sink(state.clone())), &[])
        .unwrap();
    let dev = exec
        .register(
            "dev",
            Box::new(Echo {
                seen: Default::default(),
                last_payload: Default::default(),
            }),
            &[],
        )
        .unwrap();
    exec.enable_all();
    for f in [
        UtilFn::Claim,
        UtilFn::Claim,
        UtilFn::ClaimRelease,
        UtilFn::Claim,
    ] {
        exec.post(Message::util(dev, sink_tid, f).expect_reply().finish())
            .unwrap();
    }
    drain(&exec);
    let statuses: Vec<u8> = state.frames.lock().iter().map(|(_, p)| p[0]).collect();
    assert_eq!(
        statuses,
        vec![
            ReplyStatus::Success as u8,
            ReplyStatus::Busy as u8,
            ReplyStatus::Success as u8,
            ReplyStatus::Success as u8
        ]
    );
}

#[test]
fn exec_status_get_reports_node() {
    let exec = new_exec("daq7");
    let state = Arc::new(SinkState::default());
    let sink_tid = exec
        .register("sink", Box::new(Sink(state.clone())), &[])
        .unwrap();
    exec.post(
        Message::exec(Tid::EXECUTIVE, sink_tid, ExecFn::StatusGet)
            .expect_reply()
            .finish(),
    )
    .unwrap();
    drain(&exec);
    let frames = state.frames.lock();
    let body = String::from_utf8(frames[0].1[1..].to_vec()).unwrap();
    assert!(body.contains("node=daq7"), "{body}");
    assert!(body.contains("allocator=table"), "{body}");
}

#[test]
fn every_exec_verb_is_answered_and_only_the_unsent_ones_are_refused() {
    let exec = new_exec("n1");
    let state = Arc::new(SinkState::default());
    let sink_tid = exec
        .register("sink", Box::new(Sink(state.clone())), &[])
        .unwrap();
    let verbs: Vec<ExecFn> = (0..=u8::MAX).filter_map(ExecFn::from_u8).collect();
    assert_eq!(verbs.len(), 14);
    let mut refused = Vec::new();
    let mut status = None;
    for e in verbs {
        state.frames.lock().clear();
        exec.post(
            Message::exec(Tid::EXECUTIVE, sink_tid, e)
                .expect_reply()
                .finish(),
        )
        .unwrap();
        drain(&exec);
        let frames = state.frames.lock();
        assert_eq!(frames.len(), 1, "{e:?}: exactly one reply");
        let reply = &frames[0].1;
        if reply[0] == ReplyStatus::UnsupportedFunction as u8 {
            refused.push(e);
        }
        if e == ExecFn::StatusGet {
            assert_eq!(reply[0], ReplyStatus::Success as u8);
            status = Some(parse_kv(&reply[1..]).unwrap());
        }
    }
    assert_eq!(
        refused,
        [ExecFn::OutboundInit, ExecFn::SysTabSet, ExecFn::HrtGet]
    );
    let status = status.expect("StatusGet answered");
    let mut keys: Vec<&str> = status.keys().map(String::as_str).collect();
    keys.sort_unstable();
    let counters = "broadcasts dispatched dropped exec_msgs faults forwarded sent_local \
                    sent_peer timers_fired util_msgs watchdog_trips";
    let mut want: Vec<&str> = counters.split_whitespace().collect();
    want.extend(["node", "devices", "queued", "uptime_ns", "allocator"]);
    want.sort_unstable();
    assert_eq!(keys, want);
    // StatusGet was the first verb sent: it counts itself.
    assert_eq!(status["exec_msgs"], "1");
}

#[test]
fn exec_sys_enable_quiesce_cycle() {
    let exec = new_exec("n1");
    let tid = exec
        .register(
            "dev",
            Box::new(Echo {
                seen: Default::default(),
                last_payload: Default::default(),
            }),
            &[],
        )
        .unwrap();
    exec.post(Message::exec(Tid::EXECUTIVE, Tid::HOST, ExecFn::SysEnable).finish())
        .unwrap();
    drain(&exec);
    assert_eq!(
        exec.lct().iter().find(|r| r.tid == tid).unwrap().state,
        DeviceState::Enabled
    );
    exec.post(Message::exec(Tid::EXECUTIVE, Tid::HOST, ExecFn::SysQuiesce).finish())
        .unwrap();
    drain(&exec);
    assert_eq!(
        exec.lct().iter().find(|r| r.tid == tid).unwrap().state,
        DeviceState::Quiesced
    );
}

#[test]
fn exec_sw_download_instantiates_factory() {
    let exec = new_exec("n1");
    let state = Arc::new(SinkState::default());
    let sink_tid = exec
        .register("sink", Box::new(Sink(state.clone())), &[])
        .unwrap();
    let made = Arc::new(AtomicU64::new(0));
    let made2 = made.clone();
    exec.register_factory(
        "echo-factory",
        Box::new(move |_params: &HashMap<String, String>| {
            made2.fetch_add(1, Ordering::SeqCst);
            Box::new(Echo {
                seen: Default::default(),
                last_payload: Default::default(),
            })
        }),
    );
    exec.post(
        Message::exec(Tid::EXECUTIVE, sink_tid, ExecFn::SwDownload)
            .payload(kv(&[
                ("factory", "echo-factory"),
                ("name", "dyn0"),
                ("param.x", "1"),
            ]))
            .expect_reply()
            .finish(),
    )
    .unwrap();
    drain(&exec);
    assert_eq!(made.load(Ordering::SeqCst), 1);
    let frames = state.frames.lock();
    assert_eq!(frames[0].1[0], 0);
    let body = String::from_utf8(frames[0].1[1..].to_vec()).unwrap();
    assert!(body.starts_with("tid="), "{body}");
    assert!(exec.lct().iter().any(|r| r.name == "dyn0"));
}

#[test]
fn exec_ddm_destroy_removes_device() {
    let exec = new_exec("n1");
    let tid = exec
        .register(
            "victim",
            Box::new(Echo {
                seen: Default::default(),
                last_payload: Default::default(),
            }),
            &[],
        )
        .unwrap();
    exec.post(
        Message::exec(Tid::EXECUTIVE, Tid::HOST, ExecFn::DdmDestroy)
            .payload(kv(&[("tid", &tid.raw().to_string())]))
            .finish(),
    )
    .unwrap();
    drain(&exec);
    assert!(exec.lct().iter().all(|r| r.name != "victim"));
    // Frames to the dead TiD are dropped.
    assert!(exec
        .post(Message::build_private(tid, Tid::HOST, ORG_USER, XFN_SINK).finish())
        .is_err());
}

#[test]
fn timers_deliver_on_timer_upcalls() {
    struct Timed {
        fired: Arc<AtomicU64>,
    }
    impl I2oListener for Timed {
        fn class(&self) -> DeviceClass {
            DeviceClass::Application(1)
        }
        fn plugged(&mut self, ctx: &mut Dispatcher<'_>) {
            ctx.start_timer(Duration::from_millis(1));
        }
        fn on_private(&mut self, _ctx: &mut Dispatcher<'_>, _msg: Delivery) {}
        fn on_timer(&mut self, _ctx: &mut Dispatcher<'_>, _id: TimerId) {
            self.fired.fetch_add(1, Ordering::SeqCst);
        }
    }
    let exec = new_exec("n1");
    let fired = Arc::new(AtomicU64::new(0));
    exec.register(
        "timed",
        Box::new(Timed {
            fired: fired.clone(),
        }),
        &[],
    )
    .unwrap();
    exec.enable_all();
    std::thread::sleep(Duration::from_millis(5));
    drain(&exec);
    assert_eq!(fired.load(Ordering::SeqCst), 1);
    assert_eq!(exec_counter(&exec, "timers_fired"), 1);
}

#[test]
fn watchdog_faults_slow_handler_and_notifies_listener() {
    struct Slow;
    impl I2oListener for Slow {
        fn class(&self) -> DeviceClass {
            DeviceClass::Application(1)
        }
        fn on_private(&mut self, _ctx: &mut Dispatcher<'_>, _msg: Delivery) {
            std::thread::sleep(Duration::from_millis(10));
        }
    }
    let mut cfg = ExecutiveConfig::named("n1");
    cfg.watchdog = Some(Duration::from_millis(1));
    let exec = Executive::new(cfg);
    let state = Arc::new(SinkState::default());
    let sink_tid = exec
        .register("mon", Box::new(Sink(state.clone())), &[])
        .unwrap();
    let slow_tid = exec.register("slow", Box::new(Slow), &[]).unwrap();
    exec.enable_all();
    // Monitor registers as fault listener via UtilEventRegister on the
    // executive device.
    exec.post(Message::util(Tid::EXECUTIVE, sink_tid, UtilFn::EventRegister).finish())
        .unwrap();
    exec.post(Message::build_private(slow_tid, sink_tid, ORG_USER, XFN_SINK).finish())
        .unwrap();
    drain(&exec);
    assert_eq!(exec_counter(&exec, "watchdog_trips"), 1);
    assert_eq!(exec_counter(&exec, "faults"), 1);
    assert_eq!(
        exec.lct().iter().find(|r| r.tid == slow_tid).unwrap().state,
        DeviceState::Faulted
    );
    // The monitor received the XFN_WATCHDOG notification.
    let frames = state.frames.lock();
    let wd = frames
        .iter()
        .find(|(x, _)| *x == Some(0xFF02))
        .expect("watchdog frame");
    let body = String::from_utf8(wd.1.clone()).unwrap();
    assert!(body.contains(&format!("tid={}", slow_tid.raw())), "{body}");
    // Faulted device no longer gets private frames.
    exec.post(Message::build_private(slow_tid, sink_tid, ORG_USER, XFN_SINK).finish())
        .unwrap();
    drain(&exec);
    assert_eq!(
        exec_counter(&exec, "watchdog_trips"),
        1,
        "no second dispatch"
    );
}

#[test]
fn broadcast_reaches_all_devices_except_sender() {
    let exec = new_exec("n1");
    let s1 = Arc::new(SinkState::default());
    let s2 = Arc::new(SinkState::default());
    let t1 = exec
        .register("s1", Box::new(Sink(s1.clone())), &[])
        .unwrap();
    let _t2 = exec
        .register("s2", Box::new(Sink(s2.clone())), &[])
        .unwrap();
    exec.enable_all();
    let msg = Message::build_private(Tid::BROADCAST, t1, ORG_USER, XFN_SINK)
        .payload(&b"all"[..])
        .finish();
    exec.post(msg).unwrap();
    drain(&exec);
    assert_eq!(s1.frames.lock().len(), 0, "sender skipped");
    assert_eq!(s2.frames.lock().len(), 1);
    assert_eq!(exec_counter(&exec, "broadcasts"), 1);
}

#[test]
fn spawned_executive_processes_posts() {
    let exec = new_exec("n1");
    let seen = Arc::new(AtomicU64::new(0));
    let tid = exec
        .register(
            "echo",
            Box::new(Echo {
                seen: seen.clone(),
                last_payload: Default::default(),
            }),
            &[],
        )
        .unwrap();
    exec.enable_all();
    let handle = exec.spawn();
    for _ in 0..100 {
        handle
            .executive()
            .post(Message::build_private(tid, Tid::HOST, ORG_USER, XFN_SINK).finish())
            .unwrap();
    }
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while seen.load(Ordering::SeqCst) < 100 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(seen.load(Ordering::SeqCst), 100);
    handle.shutdown();
}

#[test]
fn simple_allocator_configuration_works_end_to_end() {
    let mut cfg = ExecutiveConfig::named("n1");
    cfg.allocator = AllocatorKind::Simple;
    let exec = Executive::new(cfg);
    let seen = Arc::new(AtomicU64::new(0));
    let tid = exec
        .register(
            "echo",
            Box::new(Echo {
                seen: seen.clone(),
                last_payload: Default::default(),
            }),
            &[],
        )
        .unwrap();
    exec.enable_all();
    exec.post(Message::build_private(tid, Tid::HOST, ORG_USER, XFN_SINK).finish())
        .unwrap();
    drain(&exec);
    assert_eq!(seen.load(Ordering::SeqCst), 1);
    assert_eq!(exec.core().allocator().stats().allocs, 1);
}
