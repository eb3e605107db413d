//! Node-local monitoring for XDAQ executives.
//!
//! The paper's third architectural dimension (§2, *system management*)
//! calls for uniform access to operational data of every cluster
//! component. This crate provides the node-local half of that story:
//!
//! * a [`Registry`] of named [`Counter`]s, [`Gauge`]s and
//!   [`Histogram`]s whose record paths are single relaxed atomic
//!   operations — safe to leave enabled in the dispatch hot path;
//! * a bounded [`FrameTracer`] ring recording per-frame lifecycle
//!   events (alloc → enqueue → dispatch → PT send/recv → recycle),
//!   gated by one branch when disabled;
//! * [`PtCounters`], a fixed per-transport counter block embedded in
//!   peer transports.
//!
//! Everything here is plain data; shipping snapshots over I2O frames
//! is done by the executive's default utility procedures in
//! `xdaq-core`, and cluster-wide aggregation by `xdaq-ctl`.

mod histogram;
mod registry;
mod tracer;

pub use histogram::{Histogram, HistogramSnapshot, NUM_BUCKETS};
pub use registry::{Counter, Gauge, Registry};
pub use tracer::{FrameTracer, TraceEvent, TraceRecord};

use std::sync::atomic::{AtomicU64, Ordering};

/// Per-peer-transport traffic counters. Embedded by value in each PT
/// so recording is a relaxed add with no indirection.
#[derive(Debug, Default)]
pub struct PtCounters {
    /// Frames handed to the wire.
    pub sent_frames: AtomicU64,
    /// Payload bytes handed to the wire.
    pub sent_bytes: AtomicU64,
    /// Frames harvested from the wire.
    pub recv_frames: AtomicU64,
    /// Payload bytes harvested from the wire.
    pub recv_bytes: AtomicU64,
    /// Failed sends.
    pub send_errors: AtomicU64,
    /// Inbound frames discarded as truncated or corrupt, or refused by
    /// the receiving pool.
    pub recv_errors: AtomicU64,
}

impl PtCounters {
    /// A zeroed counter block.
    pub fn new() -> PtCounters {
        PtCounters::default()
    }

    /// Records one outbound frame of `bytes` payload bytes.
    pub fn on_send(&self, bytes: usize) {
        self.sent_frames.fetch_add(1, Ordering::Relaxed);
        self.sent_bytes.fetch_add(bytes as u64, Ordering::Relaxed);
    }

    /// Records one inbound frame of `bytes` payload bytes.
    pub fn on_recv(&self, bytes: usize) {
        self.recv_frames.fetch_add(1, Ordering::Relaxed);
        self.recv_bytes.fetch_add(bytes as u64, Ordering::Relaxed);
    }

    /// Records one failed send.
    pub fn on_send_error(&self) {
        self.send_errors.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one discarded inbound frame (truncated chain, corrupt
    /// descriptor, malformed encoding).
    pub fn on_recv_error(&self) {
        self.recv_errors.fetch_add(1, Ordering::Relaxed);
    }

    /// Current values as a JSON object.
    pub fn to_value(&self) -> serde_json::Value {
        serde_json::json!({
            "sent_frames": self.sent_frames.load(Ordering::Relaxed),
            "sent_bytes": self.sent_bytes.load(Ordering::Relaxed),
            "recv_frames": self.recv_frames.load(Ordering::Relaxed),
            "recv_bytes": self.recv_bytes.load(Ordering::Relaxed),
            "send_errors": self.send_errors.load(Ordering::Relaxed),
            "recv_errors": self.recv_errors.load(Ordering::Relaxed),
        })
    }

    /// Zeroes every counter.
    pub fn reset(&self) {
        self.sent_frames.store(0, Ordering::Relaxed);
        self.sent_bytes.store(0, Ordering::Relaxed);
        self.recv_frames.store(0, Ordering::Relaxed);
        self.recv_bytes.store(0, Ordering::Relaxed);
        self.send_errors.store(0, Ordering::Relaxed);
        self.recv_errors.store(0, Ordering::Relaxed);
    }
}

/// Shared-memory transport counters (`xdaq-shm`).
///
/// Unlike [`PtCounters`] (embedded plain atomics), these are
/// [`Counter`] handles so a `ShmPt` bound to a node's [`Registry`]
/// surfaces `shm.tx` / `shm.rx` / `shm.copies` / `shm.peer_deaths`
/// directly in MonSnapshot scrapes.
#[derive(Clone)]
pub struct ShmCounters {
    /// Descriptors pushed into send rings.
    pub tx: Counter,
    /// Descriptors popped from receive rings.
    pub rx: Counter,
    /// Send-path payload copies (zero-copy misses).
    pub copies: Counter,
    /// Peer processes detected dead via their region slot.
    pub peer_deaths: Counter,
}

impl ShmCounters {
    /// Standalone counters (not visible in any registry).
    pub fn new() -> ShmCounters {
        ShmCounters {
            tx: Counter::new(),
            rx: Counter::new(),
            copies: Counter::new(),
            peer_deaths: Counter::new(),
        }
    }

    /// Counters registered under the `shm.*` names.
    pub fn bound_to(registry: &Registry) -> ShmCounters {
        ShmCounters {
            tx: registry.counter("shm.tx"),
            rx: registry.counter("shm.rx"),
            copies: registry.counter("shm.copies"),
            peer_deaths: registry.counter("shm.peer_deaths"),
        }
    }
}

impl Default for ShmCounters {
    fn default() -> ShmCounters {
        ShmCounters::new()
    }
}

/// Event-recorder counters (`xdaq-rec`).
///
/// A `Recorder` device bound to its node's [`Registry`] surfaces
/// `rec.records` / `rec.bytes` / `rec.segments` / `rec.fsyncs` plus
/// the `rec.fsync_latency_ns` histogram in MonSnapshot scrapes — the fsync latency distribution is what tells
/// an operator whether the durability interval or the disk is the
/// bottleneck.
#[derive(Clone)]
pub struct RecCounters {
    /// Complete event records appended to the store.
    pub records: Counter,
    /// Payload bytes persisted (framing excluded).
    pub bytes: Counter,
    /// Segment files opened (rotation count + 1).
    pub segments: Counter,
    /// `fdatasync` calls issued by the batching policy.
    pub fsyncs: Counter,
    /// Latency of each `fdatasync`, in nanoseconds.
    pub fsync_latency_ns: Histogram,
}

impl RecCounters {
    /// Standalone counters (not visible in any registry).
    pub fn new() -> RecCounters {
        RecCounters {
            records: Counter::new(),
            bytes: Counter::new(),
            segments: Counter::new(),
            fsyncs: Counter::new(),
            fsync_latency_ns: Histogram::new(),
        }
    }

    /// Counters registered under the `rec.*` names.
    pub fn bound_to(registry: &Registry) -> RecCounters {
        RecCounters {
            records: registry.counter("rec.records"),
            bytes: registry.counter("rec.bytes"),
            segments: registry.counter("rec.segments"),
            fsyncs: registry.counter("rec.fsyncs"),
            fsync_latency_ns: registry.histogram("rec.fsync_latency_ns"),
        }
    }
}

impl Default for RecCounters {
    fn default() -> RecCounters {
        RecCounters::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shm_counters_bind_to_registry() {
        let r = Registry::new();
        let c = ShmCounters::bound_to(&r);
        c.tx.add(3);
        c.copies.inc();
        let snap = r.snapshot();
        let keys: Vec<&str> = snap["counters"]
            .as_object()
            .unwrap()
            .keys()
            .map(String::as_str)
            .collect();
        assert_eq!(keys, ["shm.copies", "shm.peer_deaths", "shm.rx", "shm.tx"]);
        assert_eq!(r.counter("shm.tx").get(), 3);
        assert_eq!(r.counter("shm.copies").get(), 1);
        assert_eq!(r.counter("shm.rx").get(), 0);
    }

    #[test]
    fn pt_counters_accumulate_and_reset() {
        let c = PtCounters::new();
        c.on_send(100);
        c.on_send(28);
        c.on_recv(64);
        c.on_send_error();
        let v = c.to_value();
        assert_eq!(v["sent_frames"].as_u64(), Some(2));
        assert_eq!(v["sent_bytes"].as_u64(), Some(128));
        assert_eq!(v["recv_frames"].as_u64(), Some(1));
        assert_eq!(v["send_errors"].as_u64(), Some(1));
        c.reset();
        assert_eq!(c.to_value()["sent_bytes"].as_u64(), Some(0));
    }
}
