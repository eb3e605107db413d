//! Per-layer metrics of one traced window: spans reduced to self
//! times, counts differenced around the window, and the ladder that
//! checks the layers against the blackbox latency.
//!
//! A value the window cannot produce — no event builder in this
//! workload, a counter the product does not export — is `None`, never
//! an error.

use crate::procfs;
use crate::sut::{NodeCounts, Role};
use crate::trace::{Name, Reduced};
use serde_json::Value;
use std::collections::BTreeMap;

pub type Layers = BTreeMap<&'static str, Option<f64>>;

/// Operating-system counts taken at a window edge.
pub struct OsCounts {
    pub cpu: Option<(f64, f64)>,
    pub io_syscalls: Option<u64>,
    pub ctx_switches: Option<u64>,
}

impl OsCounts {
    pub fn now() -> OsCounts {
        OsCounts {
            cpu: procfs::cpu_seconds(),
            io_syscalls: procfs::io_syscalls(),
            ctx_switches: procfs::ctx_switches(),
        }
    }
}

/// Everything observed at one edge of a traced window.
pub struct Edge {
    pub nodes: Vec<NodeCounts>,
    pub os: OsCounts,
    /// `(reassigned, discards, corrupt fragments)` on evb workloads.
    pub evb: Option<(u64, u64, u64)>,
}

fn counter(mon: &Value, name: &str) -> Option<u64> {
    mon["metrics"]["counters"][name].as_u64()
}

fn pool(mon: &Value, name: &str) -> Option<u64> {
    mon["pool"][name].as_u64()
}

/// High-water mark of a gauge (`[value, high_water]`).
fn gauge_high(mon: &Value, name: &str) -> Option<u64> {
    mon["metrics"]["gauges"][name].as_array()?.get(1)?.as_u64()
}

/// Sum over nodes of `after - before` of a count; `None` when no node
/// has it.
fn delta(before: &Edge, after: &Edge, read: impl Fn(&NodeCounts) -> Option<u64>) -> Option<f64> {
    let mut total = None;
    for (b, a) in before.nodes.iter().zip(&after.nodes) {
        if let (Some(b), Some(a)) = (read(b), read(a)) {
            *total.get_or_insert(0.0) += a.saturating_sub(b) as f64;
        }
    }
    total
}

fn ratio(num: Option<f64>, den: Option<f64>) -> Option<f64> {
    match (num, den) {
        (Some(n), Some(d)) if d > 0.0 => Some(n / d),
        _ => None,
    }
}

/// Median of a `[lo, hi, count]` bucket list: upper bound of the
/// bucket holding the middle sample.
fn histogram_p50(h: &Value) -> Option<f64> {
    let count = h["count"].as_u64()?;
    if count == 0 {
        return None;
    }
    let mut seen = 0;
    for b in h["buckets"].as_array()? {
        seen += b[2].as_u64()?;
        if seen * 2 >= count {
            return b[1].as_f64();
        }
    }
    None
}

/// The span and count metrics of one traced window. `ops` is the
/// number of operations the window completed, `blackbox_p50_us` its
/// median latency.
pub fn of_window(
    spans: &Reduced,
    before: &Edge,
    after: &Edge,
    ops: u64,
    blackbox_p50_us: Option<f64>,
    role_nodes: impl Fn(Role) -> Vec<u8>,
) -> Layers {
    let ops_f = (ops > 0).then_some(ops as f64);
    let d_counter = |name: &'static str| delta(before, after, |n| counter(&n.mon, name));
    let d_pool = |name: &'static str| delta(before, after, |n| pool(&n.mon, name));
    let d_field = |read: fn(&NodeCounts) -> u64| delta(before, after, |n| Some(read(n)));
    let per_op = |v: Option<f64>| ratio(v, ops_f);
    let median = |name: Name| spans.median_self_ns(name);

    let mut m: Layers = BTreeMap::new();
    m.insert("mempool.alloc_ns", median(Name::MempoolAlloc));
    m.insert("mempool.recycle_ns", median(Name::MempoolRecycle));
    m.insert("mempool.hit_rate", ratio(d_pool("hits"), d_pool("allocs")));
    m.insert("mempool.alloc_failures", d_pool("failures"));
    m.insert("i2o.encode_ns", median(Name::I2oEncode));
    m.insert("i2o.decode_ns", median(Name::I2oDecode));
    m.insert("core.send_self_ns", median(Name::CoreSend));
    m.insert("core.ingest_to_upcall_ns", median(Name::CoreIngestToUpcall));
    m.insert("core.run_once_busy_ns", median(Name::RunOnce));
    m.insert(
        "core.idle_share",
        ratio(d_field(|n| n.run_once_idle), d_field(|n| n.run_once_calls)),
    );
    let depth = after
        .nodes
        .iter()
        .flat_map(|n| (0..7).filter_map(|p| gauge_high(&n.mon, &format!("queue.depth.p{p}"))))
        .max();
    m.insert("core.queue_depth_max", depth.map(|d| d as f64));
    m.insert(
        "core.timers_fired_per_op",
        per_op(d_counter("exec.timers_fired")),
    );
    m.insert("core.pta_retries", d_counter("pta.retries"));
    m.insert("core.pta_send_failures", d_counter("pta.send_failures"));

    m.insert("pt.send_ns", median(Name::PtSend));
    m.insert("pt.poll_hit_ns", median(Name::PtPoll));
    let (polls, hits) = (d_field(|n| n.polls), d_field(|n| n.poll_hits));
    m.insert("pt.poll_empty_share", ratio(hits, polls).map(|h| 1.0 - h));
    let (sends, refused) = (d_field(|n| n.sends), d_field(|n| n.send_failures));
    m.insert("pt.frames_sent", sends.zip(refused).map(|(s, r)| s - r));
    m.insert("pt.send_wouldblock_share", ratio(refused, sends));
    m.insert("pt.wire_ns", median(Name::PtWire));

    // Exported only when the product binds the xpt instruments to the
    // node registry; absent keys read as None.
    let doorbells = d_counter("pt.xpt.doorbells");
    m.insert(
        "pt.xpt.frames_per_doorbell",
        ratio(doorbells.and(sends), doorbells),
    );
    let batch = after
        .nodes
        .iter()
        .find_map(|n| histogram_p50(&n.mon["metrics"]["histograms"]["pt.xpt.batch_frames"]));
    m.insert("pt.xpt.batch_frames_p50", batch);
    m.insert(
        "pt.xpt.donation_share",
        ratio(d_counter("pt.xpt.donations"), d_field(|n| n.sink_frames)),
    );

    let shm_tx = d_counter("shm.tx");
    m.insert(
        "shm.doorbells_per_frame",
        ratio(d_counter("shm.doorbells"), shm_tx),
    );
    m.insert(
        "shm.copies_per_frame",
        ratio(d_counter("shm.copies"), shm_tx),
    );
    m.insert("shm.spins_per_frame", ratio(d_counter("shm.spin"), shm_tx));

    let is_evb = after.evb.is_some();
    for (key, role) in [
        ("evb.evm.busy_us_per_event", Role::Evm),
        ("evb.ru.busy_us_per_event", Role::Readout),
        ("evb.bu.busy_us_per_event", Role::Builder),
    ] {
        let nodes = role_nodes(role);
        let busy = spans
            .total_ns(Name::RunOnce, &nodes)
            .saturating_sub(spans.total_ns(Name::PtSend, &nodes))
            .saturating_sub(spans.total_ns(Name::PtPoll, &nodes));
        let value = (is_evb && !nodes.is_empty()).then_some(busy as f64 / 1000.0);
        m.insert(key, per_op(value));
    }
    let fragments = d_counter("evb.ru.fragments");
    m.insert("evb.fragments_per_event", per_op(fragments));
    m.insert(
        "evb.fragment_efficiency",
        ratio(ops_f.map(|o| o * crate::sut::EVB_SOURCES as f64), fragments),
    );
    m.insert("evb.repulls_per_event", per_op(d_counter("evb.bu.repulls")));
    m.insert(
        "evb.duplicates_per_event",
        per_op(d_counter("evb.bu.duplicates")),
    );
    m.insert(
        "evb.parked_pulls_per_event",
        per_op(d_counter("evb.ru.parked_pulls")),
    );
    m.insert(
        "evb.reassigned",
        before
            .evb
            .zip(after.evb)
            .map(|(b, a)| a.0.saturating_sub(b.0) as f64),
    );
    let inflight = after
        .nodes
        .iter()
        .find_map(|n| gauge_high(&n.mon, "evb.evm.inflight"));
    m.insert("evb.inflight_max", inflight.map(|v| v as f64));

    m.insert("app.upcall_self_ns", median(Name::AppUpcall));

    let os = |read: fn(&OsCounts) -> Option<u64>| {
        read(&before.os)
            .zip(read(&after.os))
            .map(|(b, a)| a.saturating_sub(b) as f64)
    };
    m.insert("os.syscalls_per_op", per_op(os(|o| o.io_syscalls)));
    m.insert("os.ctx_switches_per_op", per_op(os(|o| o.ctx_switches)));
    let sys_share = before.os.cpu.zip(after.os.cpu).and_then(|(b, a)| {
        let (user, sys) = (a.0 - b.0, a.1 - b.1);
        (user + sys > 0.0).then(|| sys / (user + sys))
    });
    m.insert("os.sys_cpu_share", sys_share);
    m.insert("os.threads", procfs::threads().map(|t| t as f64));

    // The paper's consistency check (§5, Table 1): the layers along one
    // delivery, summed, against the blackbox number.
    let rungs = [
        "mempool.alloc_ns",
        "i2o.encode_ns",
        "core.send_self_ns",
        "pt.send_ns",
        "pt.wire_ns",
        "pt.poll_hit_ns",
        "core.ingest_to_upcall_ns",
        "app.upcall_self_ns",
        "mempool.recycle_ns",
    ];
    // The sender's upcall keeps running after `pt.send` returned, which
    // is when the wire interval starts: that stretch is counted once.
    let overlap = spans.median_sender_tail_ns().unwrap_or(0.0);
    let sum_us = (rungs.iter().filter_map(|r| m[r]).sum::<f64>() - overlap) / 1000.0;
    m.insert("ladder.sum_us", Some(sum_us));
    m.insert("ladder.blackbox_us", blackbox_p50_us);
    m.insert(
        "ladder.gap_share",
        ratio(blackbox_p50_us.map(|b| (sum_us - b).abs()), blackbox_p50_us),
    );
    m
}

/// Per-metric median over the traced windows of a run; a metric that
/// was `None` in every window stays `None`.
pub fn median_of(windows: &[Layers]) -> Layers {
    let mut out = Layers::new();
    for name in windows.iter().flat_map(|w| w.keys()) {
        let values: Vec<f64> = windows.iter().filter_map(|w| w[name]).collect();
        out.insert(name, crate::stats::median(&values));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    fn node(mon: Value, sends: u64, polls: u64, hits: u64) -> NodeCounts {
        NodeCounts {
            mon,
            run_once_calls: polls,
            run_once_idle: polls - hits,
            sends,
            send_failures: 0,
            polls,
            poll_hits: hits,
            sink_frames: 0,
        }
    }

    fn edge(nodes: Vec<NodeCounts>) -> Edge {
        Edge {
            nodes,
            os: OsCounts {
                cpu: None,
                io_syscalls: None,
                ctx_switches: None,
            },
            evb: None,
        }
    }

    #[test]
    fn counts_are_differenced_and_missing_keys_read_as_none() {
        let mon = |fired: u64, allocs: u64, hits: u64| {
            json!({
                "metrics": {"counters": {"exec.timers_fired": fired}, "gauges": {"queue.depth.p3": [0, 5]}},
                "pool": {"allocs": allocs, "hits": hits, "failures": 0},
            })
        };
        let before = edge(vec![node(mon(10, 100, 50), 5, 100, 10)]);
        let after = edge(vec![node(mon(30, 300, 240), 25, 300, 60)]);
        let spans = Reduced::from_spans(&[]);
        let m = of_window(&spans, &before, &after, 10, Some(2.0), |_| Vec::new());
        assert_eq!(m["core.timers_fired_per_op"], Some(2.0));
        assert_eq!(m["mempool.hit_rate"], Some(0.95));
        assert_eq!(m["core.queue_depth_max"], Some(5.0));
        assert_eq!(m["pt.frames_sent"], Some(20.0));
        assert_eq!(m["pt.poll_empty_share"], Some(0.75));
        assert_eq!(m["core.idle_share"], Some(0.75));
        // Not exported / not applicable here: None, not a failure.
        for absent in [
            "pt.xpt.frames_per_doorbell",
            "pt.xpt.batch_frames_p50",
            "shm.copies_per_frame",
            "evb.repulls_per_event",
            "evb.evm.busy_us_per_event",
            "os.syscalls_per_op",
            "os.sys_cpu_share",
            "mempool.alloc_ns",
        ] {
            assert_eq!(m[absent], None, "{absent}");
        }
        assert_eq!(m["ladder.sum_us"], Some(0.0));
        assert_eq!(m["ladder.gap_share"], Some(1.0));
        assert_eq!(
            m.len(),
            crate::spec::PER_LAYER.len() - 4,
            "all but trace.*, tail.*, rep.*"
        );
    }

    #[test]
    fn histogram_median_and_window_medians() {
        let h = json!({"count": 10, "sum": 0, "buckets": [[1, 1, 4], [2, 3, 5], [4, 7, 1]]});
        assert_eq!(histogram_p50(&h), Some(3.0));
        assert_eq!(histogram_p50(&json!({"count": 0, "buckets": []})), None);
        assert_eq!(histogram_p50(&Value::Null), None);

        let w = |a: Option<f64>, b: Option<f64>| Layers::from([("a", a), ("b", b)]);
        let m = median_of(&[w(Some(1.0), None), w(Some(3.0), None), w(Some(2.0), None)]);
        assert_eq!((m["a"], m["b"]), (Some(2.0), None));
    }
}
