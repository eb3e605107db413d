//! The contract: workload names, metric names, units, directions and
//! bounds. `BENCHMARK.json` at the repository root states the same
//! table for the driver; a unit test keeps the two in step.

use crate::sut::Shape;

/// Seconds one run measures (`run_seconds` of `BENCHMARK.json`): 10 %
/// warm-up, then five repetitions of 2.16 s.
pub const RUN_SECONDS: u64 = 12;

pub struct Workload {
    pub name: &'static str,
    /// One line: why this workload exists (which layers do the work).
    pub why: &'static str,
    /// Operations in flight in the closed loop.
    pub in_flight: &'static str,
    pub shape: Shape,
    /// Polling transports only: must run on exactly one thread.
    pub cooperative: bool,
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "pingpong_gm_64",
        why: "paper Fig. 6 / Table 1 blackbox: core + mempool + i2o + pt.gm do all the work, evb and sockets none; the ladder must sum to the latency here",
        in_flight: "1 round trip",
        shape: Shape::PingGm { payload: 64 },
        cooperative: true,
    },
    Workload {
        name: "evb_loop_4x2",
        why: "steady-state 4x2 event builder over loop://: fan-out broadcast, queue depth > 1, blocks held until CLEAR; catches a dispatch or allocator change that helps ping-pong but hurts fan-out",
        in_flight: "16 events",
        shape: Shape::EvbLoop,
        cooperative: true,
    },
    Workload {
        name: "evb_shm_drop10",
        why: "same mesh over shm:// with 10 % of readout frames dropped: re-pull timer, timer wheel, credits and shm rings do the work; rate is timer-bound, so CPU-only changes must not move it",
        in_flight: "16 events",
        shape: Shape::EvbShm { drop_per_mille: 100 },
        cooperative: true,
    },
    Workload {
        name: "stream_tcp_4k",
        why: "4 KiB frames through two executives over tcp://127.0.0.1: per-frame cost of the default socket transport, the baseline the keep-one-transport decision is judged against",
        in_flight: "64 frames",
        shape: Shape::Stream {
            transport: "tcp",
            payload: 4096,
            window: 64,
            ack_every: 16,
        },
        cooperative: false,
    },
    Workload {
        name: "stream_xpt_4k",
        why: "identical stream over xpt://: submission ring, writev gather and doorbell coalescing are the mechanism exercised",
        in_flight: "64 frames",
        shape: Shape::Stream {
            transport: "xpt",
            payload: 4096,
            window: 64,
            ack_every: 16,
        },
        cooperative: false,
    },
    Workload {
        name: "stream_xpt_64k",
        why: "64 KiB frames over xpt://: byte-bound donation path where batching does little; control for stream_xpt_4k and the workload for a large-frame fix",
        in_flight: "16 frames",
        shape: Shape::Stream {
            transport: "xpt",
            payload: 65536,
            window: 16,
            ack_every: 4,
        },
        cooperative: false,
    },
    Workload {
        name: "pingpong_xpt_64",
        why: "64 B echo over xpt://: nothing to batch, latency is doorbell + wake-up; shows a coalescing change that buys stream throughput with added latency",
        in_flight: "1 round trip",
        shape: Shape::PingSocket {
            transport: "xpt",
            payload: 64,
        },
        cooperative: false,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Relative worsening of the median that counts as a regression;
    /// `None` for per-layer metrics, which are not gated.
    pub bound: Option<f64>,
}

const fn gated(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

/// What a user of the system sees; reported by an untraced run. The
/// bounds are set by the least steady workloads: the socket streams,
/// whose three threads share two CPUs (README, "Repeatability").
pub const END_TO_END: &[Metric] = &[
    gated("ops_per_s", "ops/s", "higher", 0.20),
    gated("lat_p50_us", "us", "lower", 0.25),
    gated("lat_p90_us", "us", "lower", 0.25),
    gated("cpu_us_per_op", "us", "lower", 0.20),
    gated("setup_s", "s", "lower", 0.25),
    gated("peak_rss_mib", "MiB", "lower", 0.25),
];

/// Single layers; reported by a traced run. A metric that does not
/// exist on a workload (no event builder, no shm link, a counter the
/// product does not export) reads `null` in the result file and 0 in
/// the driver's line.
pub const PER_LAYER: &[Metric] = &[
    layer("mempool.alloc_ns", "ns", "lower"),
    layer("mempool.recycle_ns", "ns", "lower"),
    layer("mempool.hit_rate", "ratio", "higher"),
    layer("mempool.alloc_failures", "count", "lower"),
    layer("i2o.encode_ns", "ns", "lower"),
    layer("i2o.decode_ns", "ns", "lower"),
    layer("core.send_self_ns", "ns", "lower"),
    layer("core.ingest_to_upcall_ns", "ns", "lower"),
    layer("core.run_once_busy_ns", "ns", "lower"),
    layer("core.idle_share", "ratio", "lower"),
    layer("core.queue_depth_max", "count", "lower"),
    layer("core.timers_fired_per_op", "count", "lower"),
    layer("core.pta_retries", "count", "lower"),
    layer("core.pta_send_failures", "count", "lower"),
    layer("pt.send_ns", "ns", "lower"),
    layer("pt.poll_hit_ns", "ns", "lower"),
    layer("pt.poll_empty_share", "ratio", "lower"),
    layer("pt.frames_sent", "count", "lower"),
    layer("pt.send_wouldblock_share", "ratio", "lower"),
    layer("pt.wire_ns", "ns", "lower"),
    layer("pt.xpt.frames_per_doorbell", "count", "higher"),
    layer("pt.xpt.batch_frames_p50", "count", "higher"),
    layer("pt.xpt.donation_share", "ratio", "higher"),
    layer("shm.doorbells_per_frame", "count", "lower"),
    layer("shm.copies_per_frame", "count", "lower"),
    layer("shm.spins_per_frame", "count", "lower"),
    layer("evb.evm.busy_us_per_event", "us", "lower"),
    layer("evb.ru.busy_us_per_event", "us", "lower"),
    layer("evb.bu.busy_us_per_event", "us", "lower"),
    layer("evb.fragments_per_event", "count", "lower"),
    layer("evb.fragment_efficiency", "ratio", "higher"),
    layer("evb.repulls_per_event", "count", "lower"),
    layer("evb.duplicates_per_event", "count", "lower"),
    layer("evb.parked_pulls_per_event", "count", "lower"),
    layer("evb.reassigned", "count", "lower"),
    layer("evb.inflight_max", "count", "higher"),
    layer("app.upcall_self_ns", "ns", "lower"),
    layer("os.syscalls_per_op", "count", "lower"),
    layer("os.ctx_switches_per_op", "count", "lower"),
    layer("os.sys_cpu_share", "ratio", "lower"),
    layer("os.threads", "count", "lower"),
    layer("ladder.sum_us", "us", "lower"),
    layer("ladder.blackbox_us", "us", "lower"),
    layer("ladder.gap_share", "ratio", "lower"),
    layer("trace.overhead_share", "ratio", "lower"),
    layer("tail.lat_p99_us", "us", "lower"),
    layer("tail.lat_p999_us", "us", "lower"),
    layer("rep.ops_per_s_mad_share", "ratio", "lower"),
];

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` and this file must state the same contract.
    #[test]
    fn benchmark_json_states_the_same_contract() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc: serde_json::Value = serde_json::from_str(&text).expect("valid JSON");
        let names = |key: &str| -> Vec<String> {
            doc[key]
                .as_array()
                .unwrap_or_else(|| panic!("{key} is a list"))
                .iter()
                .map(|m| m["name"].as_str().expect("name").to_string())
                .collect()
        };
        let ours = |t: &[Metric]| t.iter().map(|m| m.name.to_string()).collect::<Vec<_>>();
        assert_eq!(
            names("workloads"),
            WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>()
        );
        assert_eq!(doc["run_seconds"].as_u64(), Some(RUN_SECONDS));
        assert_eq!(doc["paths"][0].as_str(), Some("benchmark"));
        assert_eq!(names("end_to_end"), ours(END_TO_END));
        assert_eq!(names("per_layer"), ours(PER_LAYER));
        for (json, m) in doc["end_to_end"]
            .as_array()
            .expect("list")
            .iter()
            .zip(END_TO_END)
        {
            assert_eq!(json["unit"].as_str(), Some(m.unit), "{}", m.name);
            assert_eq!(json["better"].as_str(), Some(m.better), "{}", m.name);
            assert_eq!(json["bound"].as_f64(), m.bound, "{}", m.name);
        }
        for (json, m) in doc["per_layer"]
            .as_array()
            .expect("list")
            .iter()
            .zip(PER_LAYER)
        {
            assert_eq!(json["unit"].as_str(), Some(m.unit), "{}", m.name);
            assert_eq!(json["better"].as_str(), Some(m.better), "{}", m.name);
        }
        for (json, w) in doc["workloads"]
            .as_array()
            .expect("list")
            .iter()
            .zip(WORKLOADS)
        {
            assert_eq!(json["why"].as_str(), Some(w.why), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::HashSet::new();
        let all = END_TO_END.iter().chain(PER_LAYER).map(|m| m.name);
        for name in all.chain(WORKLOADS.iter().map(|w| w.name)) {
            assert!(seen.insert(name), "{name} used twice");
            assert!(name.len() <= 64);
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        assert_eq!(PER_LAYER.len(), 48);
    }
}
