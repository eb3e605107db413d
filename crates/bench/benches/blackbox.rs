//! Criterion version of the FIG6 blackbox experiment: round-trip cost
//! of one XDAQ ping-pong call over the GM PT, per payload size, against
//! the raw-GM baseline.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::sync::atomic::Ordering;
use xdaq::app::{xfn, PingState, Pinger, Ponger};
use xdaq_core::{Executive, ExecutiveConfig, PtMode};
use xdaq_evb::ORG_DAQ;
use xdaq_gm::{Fabric, GmAddr, GmEvent, NodeId, PortConfig, PortId};
use xdaq_i2o::{Message, Tid};
use xdaq_mempool::TablePool;
use xdaq_pt::GmPt;

/// One prepared XDAQ ping-pong pair driven cooperatively.
struct Rig {
    a: Executive,
    b: Executive,
    ping_tid: Tid,
    state: std::sync::Arc<PingState>,
}

impl Rig {
    fn new(payload: usize) -> Rig {
        let fabric = Fabric::new();
        let a = Executive::new(ExecutiveConfig::named("ba"));
        let b = Executive::new(ExecutiveConfig::named("bb"));
        let pt_a = GmPt::open(
            &fabric,
            1,
            0,
            PtMode::Polling,
            TablePool::with_defaults(),
            None,
        )
        .unwrap();
        let pt_b = GmPt::open(
            &fabric,
            2,
            0,
            PtMode::Polling,
            TablePool::with_defaults(),
            None,
        )
        .unwrap();
        a.register_pt("a.gm", pt_a).unwrap();
        b.register_pt("b.gm", pt_b).unwrap();
        let state = PingState::new();
        let pong = b.register("pong", Box::new(Ponger::new()), &[]).unwrap();
        let proxy = a.proxy("gm://2:0", pong, None).unwrap();
        let ping_tid = a
            .register(
                "ping",
                Box::new(Pinger::new(state.clone())),
                &[
                    ("peer", &proxy.raw().to_string()),
                    ("payload", &payload.to_string()),
                ],
            )
            .unwrap();
        a.enable_all();
        b.enable_all();
        Rig {
            a,
            b,
            ping_tid,
            state,
        }
    }

    /// Runs `n` round trips and returns when they completed.
    fn run(&self, n: u64) {
        self.state.reset();
        // Reconfigure the count lazily via params is not needed: the
        // pinger reads params on PING_START; patch via the device API.
        self.a
            .post(
                Message::util(self.ping_tid, Tid::HOST, xdaq_i2o::UtilFn::ParamsSet)
                    .payload(xdaq_core::config::kv(&[("count", &n.to_string())]))
                    .finish(),
            )
            .unwrap();
        self.a
            .post(
                Message::build_private(self.ping_tid, Tid::HOST, ORG_DAQ, xfn::PING_START).finish(),
            )
            .unwrap();
        while !self.state.done.load(Ordering::SeqCst) {
            self.a.run_once();
            self.b.run_once();
        }
    }
}

fn bench_xdaq_roundtrip(c: &mut Criterion) {
    let mut group = c.benchmark_group("blackbox_xdaq_gm");
    for payload in [1usize, 256, 1024, 4096] {
        let rig = Rig::new(payload);
        group.throughput(Throughput::Elements(1));
        group.bench_with_input(BenchmarkId::from_parameter(payload), &payload, |bch, _| {
            bch.iter_custom(|iters| {
                let t0 = std::time::Instant::now();
                rig.run(iters);
                t0.elapsed()
            });
        });
    }
    group.finish();
}

fn bench_raw_gm_roundtrip(c: &mut Criterion) {
    let mut group = c.benchmark_group("blackbox_raw_gm");
    for payload in [1usize, 256, 1024, 4096] {
        let fabric = Fabric::new();
        let a = fabric
            .open_port_with(NodeId(1), PortId(0), PortConfig::unlimited())
            .unwrap();
        let b = fabric
            .open_port_with(NodeId(2), PortId(0), PortConfig::unlimited())
            .unwrap();
        let dest = GmAddr {
            node: NodeId(2),
            port: PortId(0),
        };
        let msg = vec![0u8; payload];
        group.bench_with_input(BenchmarkId::from_parameter(payload), &payload, |bch, _| {
            bch.iter(|| {
                a.send(dest, &msg, 0).unwrap();
                loop {
                    match b.poll() {
                        Some(GmEvent::Received { src, data }) => {
                            b.send(src, &data, 0).unwrap();
                            break;
                        }
                        _ => std::hint::spin_loop(),
                    }
                }
                loop {
                    match a.poll() {
                        Some(GmEvent::Received { .. }) => break,
                        _ => std::hint::spin_loop(),
                    }
                }
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_xdaq_roundtrip, bench_raw_gm_roundtrip);
criterion_main!(benches);
