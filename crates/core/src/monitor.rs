//! The executive's monitoring surface.
//!
//! Every hot-path counter is a handle into one [`xdaq_mon::Registry`],
//! so a `UtilMonSnapshot` serializes the complete node state without
//! extra plumbing, and the frame tracer rides alongside behind its
//! single-branch gate. The registry is the one store: `StatusGet`
//! reports its `exec.*` counters too.

use crate::executive::ExecCore;
use serde_json::json;
use xdaq_i2o::NUM_PRIORITIES;
use xdaq_mon::{Counter, FrameTracer, Gauge, Histogram};

/// Slots in the frame-lifecycle trace ring. The tracer starts disabled;
/// `UtilMonTraceDump` turns it on and off at runtime.
const TRACE_CAPACITY: usize = 1024;

/// The executive's metric registry with typed handles to the counters
/// the frame path bumps, and the frame tracer.
pub struct ExecMonitors {
    registry: xdaq_mon::Registry,
    /// Frame lifecycle tracer (starts disabled).
    pub(crate) tracer: FrameTracer,
    pub(crate) dispatch_latency: Histogram,
    pub(crate) dispatched: Counter,
    pub(crate) sent_local: Counter,
    pub(crate) sent_peer: Counter,
    pub(crate) forwarded: Counter,
    pub(crate) broadcasts: Counter,
    pub(crate) dropped: Counter,
    pub(crate) exec_msgs: Counter,
    pub(crate) util_msgs: Counter,
    pub(crate) timers_fired: Counter,
    pub(crate) watchdog_trips: Counter,
    pub(crate) faults: Counter,
    pub(crate) polled_frames: Counter,
    pub(crate) peer_down: Counter,
    pub(crate) peer_suspect: Counter,
    pub(crate) hb_pings: Counter,
    pub(crate) hb_pongs: Counter,
}

impl ExecMonitors {
    /// A fresh registry with every executive metric bound, plus the
    /// per-priority queue-depth gauges for the scheduling queue.
    pub(crate) fn new() -> (ExecMonitors, [Gauge; NUM_PRIORITIES]) {
        let registry = xdaq_mon::Registry::new();
        let depth_gauges = std::array::from_fn(|i| registry.gauge(&format!("queue.depth.p{i}")));
        let mon = ExecMonitors {
            tracer: FrameTracer::new(TRACE_CAPACITY),
            dispatch_latency: registry.histogram("exec.dispatch_latency_ns"),
            dispatched: registry.counter("exec.dispatched"),
            sent_local: registry.counter("exec.sent_local"),
            sent_peer: registry.counter("exec.sent_peer"),
            forwarded: registry.counter("exec.forwarded"),
            broadcasts: registry.counter("exec.broadcasts"),
            dropped: registry.counter("exec.dropped"),
            exec_msgs: registry.counter("exec.exec_msgs"),
            util_msgs: registry.counter("exec.util_msgs"),
            timers_fired: registry.counter("exec.timers_fired"),
            watchdog_trips: registry.counter("exec.watchdog_trips"),
            faults: registry.counter("exec.faults"),
            polled_frames: registry.counter("pta.polled_frames"),
            peer_down: registry.counter("link.peer_down"),
            peer_suspect: registry.counter("link.peer_suspect"),
            hb_pings: registry.counter("link.hb_pings"),
            hb_pongs: registry.counter("link.hb_pongs"),
            registry,
        };
        (mon, depth_gauges)
    }

    /// The node-local metric registry (counters, gauges, histograms).
    /// Device classes may hang their own metrics off it.
    pub fn registry(&self) -> &xdaq_mon::Registry {
        &self.registry
    }
}

impl ExecCore {
    /// Nanoseconds since the executive was built.
    pub(crate) fn uptime_ns(&self) -> u64 {
        self.started_at.elapsed().as_nanos() as u64
    }

    /// One JSON document describing everything this node knows about
    /// itself: registry metrics (counters, per-priority queue gauges,
    /// histograms), pool accounting, per-transport counters and tracer
    /// state. This is the `UtilMonSnapshot` reply body.
    pub fn mon_snapshot(&self) -> serde_json::Value {
        let ps = self.alloc.stats();
        json!({
            "node": self.node.as_str(),
            "uptime_ns": self.uptime_ns(),
            "devices": self.registry.len() as u64,
            "queued": self.queued() as u64,
            "metrics": self.mon.registry.snapshot(),
            "pool": {
                "scheme": self.alloc.scheme(),
                "allocs": ps.allocs,
                "hits": ps.hits,
                "misses": ps.misses,
                "frees": ps.frees,
                "failures": ps.failures,
                "live_blocks": ps.live_blocks,
                "high_water_blocks": ps.high_water_blocks,
                "bytes_created": ps.bytes_created,
            },
            "pt": self.pta.counters_value(),
            "links": self
                .supervisor
                .as_ref()
                .map(|s| {
                    s.states()
                        .into_iter()
                        .map(|(p, st)| json!({"peer": p.to_string(), "state": st.as_str()}))
                        .collect::<Vec<_>>()
                })
                .unwrap_or_default(),
            "trace": {
                "enabled": self.mon.tracer.is_enabled(),
                "recorded": self.mon.tracer.recorded(),
            },
        })
    }

    /// Zeroes the whole monitoring state: registry (counters, gauges,
    /// histograms — including the `exec.*` counters `StatusGet`
    /// reports), the trace ring, and per-transport counters. Pool
    /// accounting is lifetime state and is left untouched.
    pub fn mon_reset(&self) {
        self.mon.registry.reset();
        self.mon.tracer.clear();
        self.pta.reset_counters();
    }
}
