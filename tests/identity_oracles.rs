//! The two identity oracles: what a change that claims "same system"
//! must leave bit-for-bit alone.
//!
//! * The simulator's golden traces — the `XREC` decision logs of the
//!   event-builder mesh under seeded fault schedules, seeds 0..100
//!   (30 events each) and `0xC1A0` (40 events) — hash to one FNV-1a-64
//!   value. The traces record events, reassignments and faults, not
//!   frames, so a protocol change that alters what is decided changes
//!   the hash and one that only changes how it is carried does not.
//! * The key set of a default executive's `mon_snapshot()`: every key
//!   path at every depth, 52 of them. A renamed, added or dropped
//!   metric shows up here. The executive's overload-drop counter left
//!   the set (55 → 54) with the scheduling queue's overload valve: the
//!   queue is unbounded and never refuses a delivery, so the counter
//!   could no longer move. No link meters data frames either: each
//!   sender bounds what it has in flight, the event builder with its
//!   credits (DESIGN.md §13). The PTA's retry and failover counters
//!   left it (54 → 52) with the mechanisms they counted: a frame is
//!   sent once, down one route (DESIGN.md §8).
//!
//! A change that moves either on purpose updates the constant here and
//! explains the difference for one seed.

use std::collections::BTreeSet;
use xdaq::core::{Executive, ExecutiveConfig};
use xdaq::sim::{sweep, EvbOptions};

fn fnv1a64(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn golden_traces_of_101_seeds_hash_unchanged() {
    let opts = EvbOptions::default();
    let runs = (0..100).map(|seed| (seed, 30)).chain([(0xC1A0, 40)]);
    let (mut hash, mut bytes) = (0xcbf2_9ce4_8422_2325u64, 0usize);
    for (seed, target) in runs {
        let trace = sweep::golden_trace(seed, &opts, target)
            .unwrap_or_else(|f| panic!("seed {seed:#x} failed: {f}"));
        hash = fnv1a64(hash, &trace);
        bytes += trace.len();
    }
    assert_eq!(
        (format!("{hash:016x}"), bytes),
        ("e630cbd65eba0c81".to_string(), 154_825)
    );
}

/// Every key path of a JSON document, objects included.
fn key_paths(prefix: &str, v: &serde_json::Value, out: &mut BTreeSet<String>) {
    if let serde_json::Value::Object(m) = v {
        for (k, child) in m {
            let path = if prefix.is_empty() {
                k.clone()
            } else {
                format!("{prefix}.{k}")
            };
            key_paths(&path, child, out);
            out.insert(path);
        }
    }
}

#[test]
fn default_executive_snapshot_keys_unchanged() {
    let exec = Executive::new(ExecutiveConfig::default());
    let mut keys = BTreeSet::new();
    key_paths("", &exec.core().mon_snapshot(), &mut keys);
    let c = |name: &str| format!("metrics.counters.{name}");
    let expected: BTreeSet<String> = [
        "devices",
        "links",
        "metrics",
        "metrics.counters",
        "metrics.gauges",
        "metrics.histograms",
        "metrics.histograms.exec.dispatch_latency_ns",
        "metrics.histograms.exec.dispatch_latency_ns.buckets",
        "metrics.histograms.exec.dispatch_latency_ns.count",
        "metrics.histograms.exec.dispatch_latency_ns.sum",
        "node",
        "pool",
        "pool.allocs",
        "pool.bytes_created",
        "pool.failures",
        "pool.frees",
        "pool.high_water_blocks",
        "pool.hits",
        "pool.live_blocks",
        "pool.misses",
        "pool.scheme",
        "pt",
        "queued",
        "trace",
        "trace.enabled",
        "trace.recorded",
        "uptime_ns",
    ]
    .into_iter()
    .map(String::from)
    .chain(
        [
            "exec.broadcasts",
            "exec.dispatched",
            "exec.dropped",
            "exec.exec_msgs",
            "exec.faults",
            "exec.forwarded",
            "exec.sent_local",
            "exec.sent_peer",
            "exec.timers_fired",
            "exec.util_msgs",
            "exec.watchdog_trips",
            "link.hb_pings",
            "link.hb_pongs",
            "link.peer_down",
            "link.peer_suspect",
            "pt.task_panics",
            "pta.polled_frames",
            "pta.send_failures",
        ]
        .map(c),
    )
    .chain((0..7).map(|p| format!("metrics.gauges.queue.depth.p{p}")))
    .collect();
    assert_eq!(expected.len(), 52);
    assert_eq!(keys, expected);
}
