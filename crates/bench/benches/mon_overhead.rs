//! Cost of the monitoring layer on the dispatch hot path.
//!
//! The design target: with tracing **disabled**, the per-dispatch cost
//! of all instrumentation (counters, queue gauges, the tracer's gate
//! check) stays below ~5 ns — one relaxed add per counter and a single
//! load+branch for the tracer. These benches pin each primitive next to
//! its uninstrumented baseline so a regression shows up as a gap:
//!
//! * `schedq_*` — the scheduling queue with and without depth gauges;
//! * `tracer_record_*` — the tracer's disabled single-branch path vs
//!   the enabled ring write;
//! * `counter_inc` / `histogram_record` — the registry primitives;
//! * `dispatch_roundtrip_*` — a whole executive post→dispatch cycle,
//!   tracer off vs on (the end-to-end number the <5 ns target rolls
//!   into).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use xdaq_core::{Delivery, SchedQueue};
use xdaq_i2o::{Message, Priority, Tid, NUM_PRIORITIES};
use xdaq_mempool::{FrameAllocator, TablePool};
use xdaq_mon::{FrameTracer, Gauge, Registry, TraceEvent};

fn mk_delivery(pool: &dyn FrameAllocator, target: u16, pri: u8) -> Delivery {
    let m = Message::build_private(Tid::new(target).unwrap(), Tid::HOST, 1, 1)
        .priority(Priority::new(pri).unwrap())
        .payload(vec![0u8; 64])
        .finish();
    Delivery::from_message(&m, pool).unwrap()
}

fn bench_queue_gauges(c: &mut Criterion) {
    let pool = TablePool::with_defaults();
    c.bench_function("schedq_push_pop_plain", |b| {
        let q = SchedQueue::new();
        b.iter(|| {
            let _ = q.push(mk_delivery(&*pool, 0x10, 3));
            black_box(q.pop().unwrap());
        })
    });
    c.bench_function("schedq_push_pop_gauged", |b| {
        let reg = Registry::new();
        let gauges: [Gauge; NUM_PRIORITIES] =
            std::array::from_fn(|i| reg.gauge(&format!("queue.depth.p{i}")));
        let q = SchedQueue::with_gauges(gauges);
        b.iter(|| {
            let _ = q.push(mk_delivery(&*pool, 0x10, 3));
            black_box(q.pop().unwrap());
        })
    });
}

fn bench_tracer(c: &mut Criterion) {
    c.bench_function("tracer_record_disabled", |b| {
        let t = FrameTracer::new(1024);
        b.iter(|| t.record(TraceEvent::Dispatch, black_box(7), black_box(9)))
    });
    c.bench_function("tracer_record_enabled", |b| {
        let t = FrameTracer::new(1024);
        t.set_enabled(true);
        b.iter(|| t.record(TraceEvent::Dispatch, black_box(7), black_box(9)))
    });
}

fn bench_registry_primitives(c: &mut Criterion) {
    let reg = Registry::new();
    c.bench_function("counter_inc", |b| {
        let counter = reg.counter("bench.dispatched");
        b.iter(|| counter.inc())
    });
    c.bench_function("gauge_add", |b| {
        let gauge = reg.gauge("bench.depth");
        b.iter(|| gauge.add(black_box(1)))
    });
    c.bench_function("histogram_record", |b| {
        let h = reg.histogram("bench.latency");
        let mut v = 0u64;
        b.iter(|| {
            v = v.wrapping_add(997);
            h.record(black_box(v));
        })
    });
}

fn bench_dispatch_roundtrip(c: &mut Criterion) {
    use xdaq::app::Ponger;
    use xdaq_core::{Executive, ExecutiveConfig};
    use xdaq_evb::ORG_DAQ;

    // run_available drains what post enqueued; one iteration is a full
    // route→queue→dispatch cycle through the executive.
    for (name, trace) in [
        ("dispatch_roundtrip_trace_off", false),
        ("dispatch_roundtrip_trace_on", true),
    ] {
        c.bench_function(name, |b| {
            let exec = Executive::new(ExecutiveConfig::named("bench"));
            let pong = exec.register("pong", Box::new(Ponger::new()), &[]).unwrap();
            exec.enable_all();
            exec.core().monitors().tracer().set_enabled(trace);
            b.iter(|| {
                exec.post(Message::build_private(pong, Tid::HOST, ORG_DAQ, 0x0001).finish())
                    .unwrap();
                black_box(exec.run_once());
            })
        });
    }
}

criterion_group!(
    benches,
    bench_queue_gauges,
    bench_tracer,
    bench_registry_primitives,
    bench_dispatch_roundtrip
);
criterion_main!(benches);
