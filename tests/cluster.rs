//! Whole-cluster integration tests: several executives connected by
//! peer transports, configured and controlled by a host — the paper's
//! Peer Operation model end to end.

use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};
use xdaq::app::{xfn, PingState, Pinger, Ponger};
use xdaq::core::{Executive, ExecutiveConfig, PtMode};
use xdaq::ctl::{ControlHost, XclInterpreter};
use xdaq::evb::ORG_DAQ;
use xdaq::i2o::{Message, Tid};
use xdaq::pt::{LoopbackHub, LoopbackPt};

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

/// One of an executive's `exec.*` counters, read from its registry.
fn exec_counter(exec: &Executive, key: &str) -> u64 {
    let registry = exec.core().monitors().registry();
    registry.counter(&format!("exec.{key}")).get()
}

/// Builds an executive on a loopback hub under `name`.
fn node_on(hub: &std::sync::Arc<LoopbackHub>, name: &str) -> Executive {
    let exec = Executive::new(ExecutiveConfig::named(name));
    let pt = LoopbackPt::new(hub, name);
    exec.register_pt(&format!("{name}.pt"), pt).unwrap();
    exec
}

#[test]
fn ping_pong_across_two_executives_via_loopback() {
    let hub = LoopbackHub::new();
    let node_a = node_on(&hub, "a");
    let node_b = node_on(&hub, "b");

    // Devices on each side.
    let state = PingState::new();
    let pong_tid = node_b
        .register("pong", Box::new(Ponger::new()), &[])
        .unwrap();
    // A-side proxy for the remote ponger (paper §3.4 proxy TiDs).
    let pong_proxy = node_a.proxy("loop://b", pong_tid, Some("b.pong")).unwrap();
    let ping_tid = node_a
        .register(
            "ping",
            Box::new(Pinger::new(state.clone())),
            &[
                ("peer", &pong_proxy.raw().to_string()),
                ("payload", "256"),
                ("count", "500"),
            ],
        )
        .unwrap();
    node_a.enable_all();
    node_b.enable_all();

    let ha = node_a.spawn();
    let hb = node_b.spawn();
    node_a
        .post(Message::build_private(ping_tid, Tid::HOST, ORG_DAQ, xfn::PING_START).finish())
        .unwrap();
    assert!(
        wait_until(
            || state.done.load(Ordering::SeqCst),
            Duration::from_secs(20)
        ),
        "ping-pong did not finish: {} of 500",
        state.completed.load(Ordering::SeqCst)
    );
    assert_eq!(state.completed.load(Ordering::SeqCst), 500);
    assert_eq!(state.rtts_ns.lock().len(), 500);
    // Both directions crossed the peer transport.
    assert!(exec_counter(&node_a, "sent_peer") >= 500);
    assert!(exec_counter(&node_b, "sent_peer") >= 500);
    ha.shutdown();
    hb.shutdown();
}

#[test]
fn host_controls_remote_node_via_exec_messages() {
    let hub = LoopbackHub::new();
    let node = node_on(&hub, "worker");
    node.register_factory(
        "ponger",
        Box::new(|_params| Box::new(Ponger::new()) as Box<dyn xdaq::core::I2oListener>),
    );
    let nh = node.spawn();

    let host = ControlHost::new("ctl");
    host.executive()
        .register_pt("ctl.pt", LoopbackPt::new(&hub, "ctl"))
        .unwrap();
    host.start();

    let worker = host.connect_node("loop://worker", Some("worker")).unwrap();
    // Status.
    let status = host.status(worker).unwrap();
    assert_eq!(status["node"], "worker");
    // Claim control rights; a mutating command then succeeds.
    host.claim(worker).unwrap();
    let remote_tid = host.load(worker, "ponger", "pong0", &[("k", "v")]).unwrap();
    assert!(remote_tid.is_addressable());
    host.enable(worker).unwrap();
    let lct = host.lct(worker).unwrap();
    assert!(lct.contains("pong0"), "{lct}");
    // Parameter access through a device proxy.
    let dev = host.device_proxy("loop://worker", remote_tid).unwrap();
    host.params_set(dev, &[("rate", "99")]).unwrap();
    let params = host.params_get(dev).unwrap();
    assert_eq!(params["rate"], "99");
    assert_eq!(params["k"], "v", "load-time params visible");
    // Quiesce and destroy.
    host.quiesce(worker).unwrap();
    host.destroy(worker, remote_tid).unwrap();
    let lct = host.lct(worker).unwrap();
    assert!(!lct.contains("pong0"));
    host.release(worker).unwrap();
    host.stop();
    nh.shutdown();
}

#[test]
fn second_host_is_refused_while_claimed() {
    let hub = LoopbackHub::new();
    let node = node_on(&hub, "worker");
    let nh = node.spawn();

    let primary = ControlHost::new("primary");
    primary
        .executive()
        .register_pt("p.pt", LoopbackPt::new(&hub, "primary"))
        .unwrap();
    primary.start();
    let secondary = ControlHost::new("secondary");
    secondary
        .executive()
        .register_pt("s.pt", LoopbackPt::new(&hub, "secondary"))
        .unwrap();
    secondary.start();

    let w1 = primary.connect_node("loop://worker", None).unwrap();
    let w2 = secondary.connect_node("loop://worker", None).unwrap();
    primary.claim(w1).unwrap();
    // Secondary cannot claim or mutate, and cannot release the
    // primary's claim or stop the node through its parameters...
    assert!(secondary.claim(w2).is_err());
    assert!(secondary.enable(w2).is_err());
    assert!(secondary.release(w2).is_err());
    assert!(secondary.params_set(w2, &[("exec.stop", "1")]).is_err());
    // ...but read-only status still works (monitoring rights).
    assert_eq!(secondary.status(w2).unwrap()["node"], "worker");
    // After release, the secondary takes over.
    primary.release(w1).unwrap();
    secondary.claim(w2).unwrap();
    secondary.enable(w2).unwrap();
    primary.stop();
    secondary.stop();
    nh.shutdown();
}

#[test]
fn xcl_script_drives_cluster() {
    let hub = LoopbackHub::new();
    let node = node_on(&hub, "ru0");
    node.register_factory(
        "ponger",
        Box::new(|_| Box::new(Ponger::new()) as Box<dyn xdaq::core::I2oListener>),
    );
    let nh = node.spawn();

    let host = ControlHost::new("ctl");
    host.executive()
        .register_pt("ctl.pt", LoopbackPt::new(&hub, "ctl"))
        .unwrap();
    host.start();

    let mut interp = XclInterpreter::new(&host);
    let out = interp
        .run(
            "# bring up one node\n\
             node ru0 loop://ru0\n\
             claim ru0\n\
             load ru0 ponger pong0 depth=4\n\
             enable ru0\n\
             status ru0\n\
             lct ru0\n\
             release ru0\n\
             echo done\n",
        )
        .unwrap();
    assert_eq!(out.log.last().unwrap(), "done");
    assert!(out
        .log
        .iter()
        .any(|l| l.contains("status ru0") && l.contains("node=ru0")));
    assert!(out.handles.contains_key("ru0"));
    assert!(out.handles.contains_key("pong0"));
    host.stop();
    nh.shutdown();
}

#[test]
fn host_wires_distributed_pingpong() {
    let hub = LoopbackHub::new();
    // Two worker nodes with factories.
    let state = PingState::new();
    let node_a = node_on(&hub, "na");
    let node_b = node_on(&hub, "nb");
    let st = state.clone();
    node_a.register_factory(
        "pinger",
        Box::new(move |_| Box::new(Pinger::new(st.clone())) as Box<dyn xdaq::core::I2oListener>),
    );
    node_b.register_factory(
        "ponger",
        Box::new(|_| Box::new(Ponger::new()) as Box<dyn xdaq::core::I2oListener>),
    );
    let ha = node_a.spawn();
    let hb = node_b.spawn();

    let host = ControlHost::new("ctl");
    host.executive()
        .register_pt("ctl.pt", LoopbackPt::new(&hub, "ctl"))
        .unwrap();
    host.start();

    // The primary host's script, call by call: attach both executives,
    // download the device classes, give na a proxy for nb's ponger and
    // point the pinger at it.
    let na = host.connect_node("loop://na", Some("node.na")).unwrap();
    let nb = host.connect_node("loop://nb", Some("node.nb")).unwrap();
    let ping_remote = host
        .load(
            na,
            "pinger",
            "ping0",
            &[("payload", "128"), ("count", "100")],
        )
        .unwrap();
    let pong_remote = host.load(nb, "ponger", "pong0", &[]).unwrap();
    let pong_proxy = host
        .connect(na, "loop://nb", pong_remote, Some("nb.pong0"))
        .unwrap();
    // Parameters and the kick go through a host-side device proxy.
    let ping_dev = host.device_proxy("loop://na", ping_remote).unwrap();
    host.params_set(ping_dev, &[("peer", &pong_proxy.raw().to_string())])
        .unwrap();
    host.enable(na).unwrap();
    host.enable(nb).unwrap();

    host.executive()
        .post(Message::build_private(ping_dev, host.agent_tid(), ORG_DAQ, xfn::PING_START).finish())
        .unwrap();
    assert!(
        wait_until(
            || state.done.load(Ordering::SeqCst),
            Duration::from_secs(20)
        ),
        "distributed run incomplete: {}",
        state.completed.load(Ordering::SeqCst)
    );
    assert_eq!(state.completed.load(Ordering::SeqCst), 100);
    host.stop();
    ha.shutdown();
    hb.shutdown();
}

#[test]
fn three_hop_forwarding_through_intermediate_node() {
    // a -> b (proxy chain): a's proxy routes to b, where the target is
    // itself a proxy to c — multi-hop Peer Operation (paper fig. 4).
    let hub = LoopbackHub::new();
    let a = node_on(&hub, "a");
    let b = node_on(&hub, "b");
    let c = node_on(&hub, "c");

    let sink_state = PingState::new();
    let pong_tid = c.register("pong", Box::new(Ponger::new()), &[]).unwrap();
    // b-side proxy for c's ponger.
    let b_proxy = b.proxy("loop://c", pong_tid, None).unwrap();
    // a-side proxy pointing at *b's proxy*.
    let a_proxy = a.proxy("loop://b", b_proxy, None).unwrap();
    let ping_tid = a
        .register(
            "ping",
            Box::new(Pinger::new(sink_state.clone())),
            &[
                ("peer", &a_proxy.raw().to_string()),
                ("payload", "64"),
                ("count", "50"),
            ],
        )
        .unwrap();
    a.enable_all();
    b.enable_all();
    c.enable_all();
    let ha = a.spawn();
    let hb = b.spawn();
    let hc = c.spawn();
    a.post(Message::build_private(ping_tid, Tid::HOST, ORG_DAQ, xfn::PING_START).finish())
        .unwrap();
    assert!(
        wait_until(
            || sink_state.done.load(Ordering::SeqCst),
            Duration::from_secs(20)
        ),
        "3-hop run incomplete: {}",
        sink_state.completed.load(Ordering::SeqCst)
    );
    let forwarded = exec_counter(&b, "forwarded");
    assert!(forwarded >= 50, "intermediate forwarded: {forwarded}");
    ha.shutdown();
    hb.shutdown();
    hc.shutdown();
}

#[test]
fn gm_transport_carries_cluster_traffic() {
    use xdaq::gm::Fabric;
    use xdaq::mempool::TablePool;
    use xdaq::pt::GmPt;

    let fabric = Fabric::new();
    let a = Executive::new(ExecutiveConfig::named("a"));
    let b = Executive::new(ExecutiveConfig::named("b"));
    let pt_a = GmPt::open(
        &fabric,
        1,
        0,
        PtMode::Task,
        TablePool::with_defaults(),
        None,
    )
    .unwrap();
    let pt_b = GmPt::open(
        &fabric,
        2,
        0,
        PtMode::Task,
        TablePool::with_defaults(),
        None,
    )
    .unwrap();
    a.register_pt("a.gm", pt_a).unwrap();
    b.register_pt("b.gm", pt_b).unwrap();

    let state = PingState::new();
    let pong_tid = b.register("pong", Box::new(Ponger::new()), &[]).unwrap();
    let proxy = a.proxy("gm://2:0", pong_tid, None).unwrap();
    let ping_tid = a
        .register(
            "ping",
            Box::new(Pinger::new(state.clone())),
            &[
                ("peer", &proxy.raw().to_string()),
                ("payload", "1024"),
                ("count", "200"),
            ],
        )
        .unwrap();
    a.enable_all();
    b.enable_all();
    let ha = a.spawn();
    let hb = b.spawn();
    a.post(Message::build_private(ping_tid, Tid::HOST, ORG_DAQ, xfn::PING_START).finish())
        .unwrap();
    assert!(
        wait_until(
            || state.done.load(Ordering::SeqCst),
            Duration::from_secs(20)
        ),
        "gm run incomplete: {}",
        state.completed.load(Ordering::SeqCst)
    );
    assert_eq!(state.completed.load(Ordering::SeqCst), 200);
    ha.shutdown();
    hb.shutdown();
}

#[test]
fn xpt_transport_carries_cluster_traffic() {
    use xdaq::mempool::TablePool;
    use xdaq::pt::XptPt;

    let a = Executive::new(ExecutiveConfig::named("a"));
    let b = Executive::new(ExecutiveConfig::named("b"));
    let pt_a = XptPt::bind("127.0.0.1:0", TablePool::with_defaults()).unwrap();
    let pt_b = XptPt::bind("127.0.0.1:0", TablePool::with_defaults()).unwrap();
    let b_url = pt_b.addr().to_string();
    a.register_pt("a.xpt", pt_a).unwrap();
    b.register_pt("b.xpt", pt_b).unwrap();

    let state = PingState::new();
    let pong_tid = b.register("pong", Box::new(Ponger::new()), &[]).unwrap();
    let proxy = a.proxy(&b_url, pong_tid, None).unwrap();
    let ping_tid = a
        .register(
            "ping",
            Box::new(Pinger::new(state.clone())),
            &[
                ("peer", &proxy.raw().to_string()),
                ("payload", "512"),
                ("count", "100"),
            ],
        )
        .unwrap();
    a.enable_all();
    b.enable_all();
    let ha = a.spawn();
    let hb = b.spawn();
    a.post(Message::build_private(ping_tid, Tid::HOST, ORG_DAQ, xfn::PING_START).finish())
        .unwrap();
    assert!(
        wait_until(
            || state.done.load(Ordering::SeqCst),
            Duration::from_secs(30)
        ),
        "xpt run incomplete: {}",
        state.completed.load(Ordering::SeqCst)
    );
    assert_eq!(state.completed.load(Ordering::SeqCst), 100);
    ha.shutdown();
    hb.shutdown();
}

#[test]
fn host_scrapes_monitoring_from_two_executives() {
    let hub = LoopbackHub::new();
    let node_a = node_on(&hub, "ma");
    let node_b = node_on(&hub, "mb");

    // Drive real traffic so the counters have something to show.
    let state = PingState::new();
    let pong_tid = node_b
        .register("pong", Box::new(Ponger::new()), &[])
        .unwrap();
    let pong_proxy = node_a.proxy("loop://mb", pong_tid, None).unwrap();
    let ping_tid = node_a
        .register(
            "ping",
            Box::new(Pinger::new(state.clone())),
            &[
                ("peer", &pong_proxy.raw().to_string()),
                ("payload", "128"),
                ("count", "50"),
            ],
        )
        .unwrap();
    node_a.enable_all();
    node_b.enable_all();
    let ha = node_a.spawn();
    let hb = node_b.spawn();

    let host = ControlHost::new("ctl");
    host.executive()
        .register_pt("ctl.pt", LoopbackPt::new(&hub, "ctl"))
        .unwrap();
    host.start();
    let a = host.connect_node("loop://ma", None).unwrap();
    let b = host.connect_node("loop://mb", None).unwrap();

    // Enable tracing on node a, then run the ping-pong.
    host.trace_set(a, true).unwrap();
    node_a
        .post(Message::build_private(ping_tid, Tid::HOST, ORG_DAQ, xfn::PING_START).finish())
        .unwrap();
    assert!(
        wait_until(
            || state.done.load(Ordering::SeqCst),
            Duration::from_secs(20)
        ),
        "monitored ping-pong incomplete: {}",
        state.completed.load(Ordering::SeqCst)
    );

    // Scrape both executives (TiD 1 default procedure on both sides).
    let snap_a = host.scrape(a).unwrap();
    let snap_b = host.scrape(b).unwrap();
    assert_eq!(snap_a["node"].as_str(), Some("ma"));
    assert_eq!(snap_b["node"].as_str(), Some("mb"));
    for snap in [&snap_a, &snap_b] {
        let c = &snap["metrics"]["counters"];
        assert!(c["exec.dispatched"].as_u64().unwrap() > 0, "{snap}");
        assert!(c["exec.sent_peer"].as_u64().unwrap() >= 50, "{snap}");
        // Per-priority queue gauges exist for all seven levels.
        for p in 0..7 {
            let key = format!("queue.depth.p{p}");
            assert!(
                snap["metrics"]["gauges"][key.as_str()].as_array().is_some(),
                "missing gauge p{p}: {snap}"
            );
        }
        // Pool accounting including the new high-water mark.
        assert!(snap["pool"]["allocs"].as_u64().unwrap() > 0);
        assert!(snap["pool"]["high_water_blocks"].as_u64().unwrap() > 0);
        // The loopback PT reported traffic under the normalized
        // per-scheme metric names.
        let pt = snap["pt"].as_object().unwrap();
        assert!(pt["pt.loop.sent"].as_u64().unwrap() >= 50, "{snap}");
        assert!(pt["pt.loop.recv"].as_u64().unwrap() >= 50, "{snap}");
        assert!(pt["pt.loop.sent_bytes"].as_u64().unwrap() > 0, "{snap}");
        assert_eq!(pt["pt.loop.errors"].as_u64(), Some(0), "{snap}");
    }
    // Tracing was enabled on a: latency histogram and ring filled.
    assert!(
        snap_a["metrics"]["histograms"]["exec.dispatch_latency_ns"]["count"]
            .as_u64()
            .unwrap()
            > 0,
        "{snap_a}"
    );
    assert!(snap_a["trace"]["recorded"].as_u64().unwrap() > 0);
    let dump = host.trace_set(a, true).unwrap();
    assert!(!dump["records"].as_array().unwrap().is_empty(), "{dump}");

    // Every device answers the same functions through its default
    // utility procedure, so a scrape addressed to the ping device's TiD
    // returns its node's snapshot.
    let ping_proxy = host.device_proxy("loop://ma", ping_tid).unwrap();
    let via_device = host.scrape(ping_proxy).unwrap();
    assert_eq!(via_device["node"].as_str(), Some("ma"));

    // Reset zeroes the counters.
    host.mon_reset(b).unwrap();
    let after = host.scrape(b).unwrap();
    // The scrape itself dispatches a frame or two, so just check it
    // collapsed from the ping-pong volume.
    assert!(
        after["metrics"]["counters"]["exec.sent_peer"]
            .as_u64()
            .unwrap()
            < 10,
        "{after}"
    );

    host.stop();
    ha.shutdown();
    hb.shutdown();
}

/// One private frame carries up to `MAX_PAYLOAD_LEN` bytes after its
/// private extension, and nothing chains frames: the largest payload
/// `send_private_with` accepts crosses `loop://` intact, one byte more
/// is refused at the sender before a pool block is taken.
#[test]
fn largest_private_frame_crosses_nodes() {
    use xdaq::core::{Delivery, Dispatcher, ExecError, I2oListener};
    use xdaq::i2o::frame::MAX_PAYLOAD_LEN;
    use xdaq::i2o::{DeviceClass, FrameError};

    const XFN_BULK: u16 = 0x0042;
    const XFN_KICK: u16 = 0x0041;
    // The private extension takes 4 of the frame's payload bytes.
    const LARGEST: usize = MAX_PAYLOAD_LEN - 4;

    fn pattern(buf: &mut [u8]) {
        for (i, b) in buf.iter_mut().enumerate() {
            *b = (i % 251) as u8;
        }
    }

    type Shared<T> = std::sync::Arc<parking_lot::Mutex<Option<T>>>;

    struct Tx {
        refused: Shared<ExecError>,
    }
    impl I2oListener for Tx {
        fn class(&self) -> DeviceClass {
            DeviceClass::Application(ORG_DAQ)
        }
        fn on_private(&mut self, ctx: &mut Dispatcher<'_>, msg: Delivery) {
            if msg.private.map(|p| p.x_function) == Some(XFN_KICK) {
                let dest = ctx
                    .param("dest")
                    .and_then(|s| s.parse::<u16>().ok())
                    .and_then(|v| Tid::new(v).ok())
                    .expect("dest param");
                let err = ctx
                    .send_private_with(dest, ORG_DAQ, XFN_BULK, LARGEST + 1, pattern)
                    .unwrap_err();
                *self.refused.lock() = Some(err);
                ctx.send_private_with(dest, ORG_DAQ, XFN_BULK, LARGEST, pattern)
                    .unwrap();
            }
        }
    }
    struct Rx {
        got: Shared<Vec<u8>>,
    }
    impl I2oListener for Rx {
        fn class(&self) -> DeviceClass {
            DeviceClass::Application(ORG_DAQ)
        }
        fn on_private(&mut self, _ctx: &mut Dispatcher<'_>, msg: Delivery) {
            if msg.private.map(|p| p.x_function) == Some(XFN_BULK) {
                *self.got.lock() = Some(msg.payload().to_vec());
            }
        }
    }

    let hub = LoopbackHub::new();
    let a = node_on(&hub, "a");
    let b = node_on(&hub, "b");
    let got = Shared::default();
    let refused = Shared::default();
    let rx_tid = b
        .register("rx", Box::new(Rx { got: got.clone() }), &[])
        .unwrap();
    let proxy = a.proxy("loop://b", rx_tid, None).unwrap();
    let tx_tid = a
        .register(
            "tx",
            Box::new(Tx {
                refused: refused.clone(),
            }),
            &[("dest", &proxy.raw().to_string())],
        )
        .unwrap();
    a.enable_all();
    b.enable_all();
    let ha = a.spawn();
    let hb = b.spawn();
    a.post(xdaq::i2o::Message::build_private(tx_tid, Tid::HOST, ORG_DAQ, XFN_KICK).finish())
        .unwrap();
    assert!(
        wait_until(|| got.lock().is_some(), Duration::from_secs(20)),
        "largest frame did not arrive"
    );
    let mut want = vec![0u8; LARGEST];
    pattern(&mut want);
    assert!(got.lock().take().unwrap() == want, "payload corrupted");
    assert!(
        matches!(
            refused.lock().take(),
            Some(ExecError::Frame(FrameError::PayloadTooLong(n))) if n == LARGEST + 1
        ),
        "one byte more must be refused at the sender"
    );
    let pool = a.core().allocator();
    assert!(
        wait_until(|| pool.stats().live_blocks == 0, Duration::from_secs(5)),
        "sender's pool holds {} blocks",
        pool.stats().live_blocks
    );
    ha.shutdown();
    hb.shutdown();
}

/// The `evb` xcl command surfaces the event manager's credit/event-id
/// state through ParamsGet and per-builder build rates + latency
/// percentiles through mon scrapes of the defined nodes.
#[test]
fn xcl_evb_command_reports_builder_state() {
    use xdaq::evb::{FilterStats, FilterUnit, Mesh, Roles};

    const EVENTS: u64 = 200;
    let hub = LoopbackHub::new();
    let names = ["mgr", "flt", "ru0", "ru1", "bu0"];
    let nodes: Vec<Executive> = names.iter().map(|n| node_on(&hub, n)).collect();
    let urls: Vec<String> = names.iter().map(|n| format!("loop://{n}")).collect();
    let peers: Vec<(&str, &Executive)> = urls.iter().map(String::as_str).zip(&nodes).collect();

    nodes[1]
        .register(
            "filter0",
            Box::new(FilterUnit::new(FilterStats::new())),
            &[],
        )
        .unwrap();
    let mesh = Mesh::new(
        &nodes[0],
        &peers[2..4],
        &peers[4..],
        (peers[1], "filter0"),
        Roles {
            readout: &[("size", "512")],
            builder: &[("credits", "4")],
            ..Roles::default()
        },
    )
    .unwrap();
    nodes[1].enable_all();
    let handles: Vec<_> = nodes.iter().map(Executive::spawn).collect();
    mesh.start_run(EVENTS).unwrap();
    let m_stats = &mesh.evm_stats;
    assert!(
        wait_until(
            || m_stats.run_done.load(Ordering::SeqCst),
            Duration::from_secs(30)
        ),
        "run incomplete: {}",
        m_stats.completed.load(Ordering::SeqCst)
    );

    // Host side: device proxy for the EVM, node handle for the builder.
    let host = ControlHost::new("ctl");
    host.executive()
        .register_pt("ctl.pt", LoopbackPt::new(&hub, "ctl"))
        .unwrap();
    host.start();
    let mut interp = XclInterpreter::new(&host);
    let bu_handle = host.connect_node("loop://bu0", Some("bu0")).unwrap();
    interp.define_node("bu0", bu_handle);
    let evm_dev = host.device_proxy("loop://mgr", mesh.evm).unwrap();
    interp.define("evm", evm_dev);

    let out = interp.run("evb evm 20\n").unwrap();
    let log = &out.log[0];
    assert!(log.contains("completed=200"), "{log}");
    assert!(log.contains("lost=0"), "{log}");
    assert!(log.contains("done=1"), "{log}");
    // Read from the manager node's gauges, not mirrored params.
    assert!(log.contains("inflight=0 queued=0"), "{log}");
    assert!(log.contains("bu0: built=200"), "{log}");
    assert!(log.contains("build latency: p50="), "{log}");
    assert!(log.contains("(200 events)"), "{log}");

    host.stop();
    for h in handles {
        h.shutdown();
    }
}

/// Two chatty devices flooding one executive at equal priority while
/// its loop runs. Per-device delivery must be strictly in post order:
/// zero reorder and zero loss.
#[test]
fn flood_preserves_per_device_ordering() {
    use xdaq::core::{Delivery, Dispatcher, I2oListener};
    use xdaq::i2o::DeviceClass;

    const XFN_SEQ: u16 = 0x0051;
    const PER_DEVICE: u32 = 5_000;

    struct SeqSink {
        seen: std::sync::Arc<parking_lot::Mutex<Vec<u32>>>,
    }
    impl I2oListener for SeqSink {
        fn class(&self) -> DeviceClass {
            DeviceClass::Application(ORG_DAQ)
        }
        fn on_private(&mut self, _ctx: &mut Dispatcher<'_>, msg: Delivery) {
            if msg.private.map(|p| p.x_function) == Some(XFN_SEQ) {
                self.seen.lock().push(msg.header.transaction_context);
            }
        }
    }

    let exec = Executive::new(ExecutiveConfig::named("flood"));
    let seen_a = std::sync::Arc::new(parking_lot::Mutex::new(Vec::new()));
    let seen_b = std::sync::Arc::new(parking_lot::Mutex::new(Vec::new()));
    let tid_a = exec
        .register(
            "chatty-a",
            Box::new(SeqSink {
                seen: seen_a.clone(),
            }),
            &[],
        )
        .unwrap();
    let tid_b = exec
        .register(
            "chatty-b",
            Box::new(SeqSink {
                seen: seen_b.clone(),
            }),
            &[],
        )
        .unwrap();
    exec.enable_all();
    let handle = exec.spawn();

    // Interleave the floods so both devices are hot at once.
    for seq in 0..PER_DEVICE {
        for tid in [tid_a, tid_b] {
            exec.post(
                Message::build_private(tid, Tid::HOST, ORG_DAQ, XFN_SEQ)
                    .transaction(seq)
                    .finish(),
            )
            .unwrap();
        }
    }
    assert!(
        wait_until(
            || seen_a.lock().len() + seen_b.lock().len() == 2 * PER_DEVICE as usize,
            Duration::from_secs(60)
        ),
        "flood incomplete: a={} b={}",
        seen_a.lock().len(),
        seen_b.lock().len()
    );
    handle.shutdown();

    let expect: Vec<u32> = (0..PER_DEVICE).collect();
    for (name, seen) in [("a", &seen_a), ("b", &seen_b)] {
        let got = seen.lock();
        assert_eq!(got.len(), PER_DEVICE as usize, "device {name}: lost frames");
        assert_eq!(*got, expect, "device {name}: sequence reordered");
    }
}

/// Posts one private frame from the host to `proxy` on `exec`.
fn post_to(exec: &Executive, proxy: Tid) -> Result<(), xdaq::core::ExecError> {
    exec.post(Message::build_private(proxy, Tid::HOST, ORG_DAQ, xfn::PING_START).finish())
}

/// Frames a loopback transport has sent.
fn sent(pt: &LoopbackPt) -> u64 {
    use xdaq::core::PeerTransport;
    pt.counters().unwrap().sent_frames.load(Ordering::Relaxed)
}

fn is_unreachable(r: Result<(), xdaq::core::ExecError>) -> bool {
    use xdaq::core::{ExecError, PtError};
    matches!(r, Err(ExecError::Transport(PtError::Unreachable(_))))
}

#[test]
fn a_proxy_made_before_its_transport_sends_once_the_transport_registers() {
    use xdaq::core::PeerTransport;
    let hub = LoopbackHub::new();
    let b = LoopbackPt::new(&hub, "b");
    let a = Executive::new(ExecutiveConfig::named("a"));
    let proxy = a.proxy("loop://b", Tid::new(0x20).unwrap(), None).unwrap();
    assert!(is_unreachable(post_to(&a, proxy)), "no loop transport yet");
    let pt = LoopbackPt::new(&hub, "a");
    a.register_pt("a.pt", pt.clone()).unwrap();
    post_to(&a, proxy).unwrap();
    assert_eq!(sent(&pt), 1);
    assert!(b.poll().is_some());
}

#[test]
fn proxies_send_through_the_transport_that_replaced_a_destroyed_one() {
    use xdaq::core::PeerTransport;
    let hub = LoopbackHub::new();
    let b = LoopbackPt::new(&hub, "b");
    let a = Executive::new(ExecutiveConfig::named("a"));
    let old = LoopbackPt::new(&hub, "a");
    let old_tid = a.register_pt("a.old", old.clone()).unwrap();
    let proxy = a.proxy("loop://b", Tid::new(0x20).unwrap(), None).unwrap();
    post_to(&a, proxy).unwrap();
    a.destroy(old_tid).unwrap();
    assert!(is_unreachable(post_to(&a, proxy)), "no loop transport left");
    let new = LoopbackPt::new(&hub, "a");
    a.register_pt("a.new", new.clone()).unwrap();
    post_to(&a, proxy).unwrap();
    assert_eq!((sent(&old), sent(&new)), (1, 1));
    let mut arrived = 0;
    while let Some((_, src)) = b.poll() {
        assert_eq!(src.to_string(), "loop://a");
        arrived += 1;
    }
    assert_eq!(arrived, 2);
}

#[test]
fn a_refusal_on_a_bound_route_counts_in_send_failures() {
    let hub = LoopbackHub::new();
    let a = node_on(&hub, "a");
    let failures = || {
        let registry = a.core().monitors().registry();
        registry.counter("pta.send_failures").get()
    };
    let proxy = a
        .proxy("loop://ghost", Tid::new(0x20).unwrap(), None)
        .unwrap();
    assert!(is_unreachable(post_to(&a, proxy)));
    assert_eq!(failures(), 1, "a bound route's refusal");
    let ghost = "loop://ghost".parse().unwrap();
    let frame = a.core().alloc(64).unwrap();
    assert!(a.core().pta().send(&ghost, frame).is_err());
    assert_eq!(failures(), 2, "an address-only send's refusal");
}
