//! EVB — event-builder scaling on the `xdaq-evb` pull protocol: the
//! application-level validation of the paper's motivation (§1:
//! Tbytes/s, hundreds-of-kHz message rates; §4 footnote: the n×m
//! crossing mesh).
//!
//! Unlike the microbenchmarks this drives the *real* distributed
//! fabric: one executive per node connected by `shm://` regions (the
//! crossing RU↔BU channels of footnote 1), with the last readouts of
//! the larger points demoted to `tcp://` stragglers, and every
//! readout's transport wrapped in a fixed-seed `ChaosPt` that silently
//! drops a fraction of outgoing fragments. The builders' timeout
//! re-pull must turn that lossy fabric into zero event loss — each
//! point asserts `lost == 0` — while the run reports events/s and
//! build-latency percentiles from the merged per-builder histograms.
//!
//! Usage:
//! ```text
//! cargo run -p xdaq-bench --release --bin evb_scaling
//!     [--events 1000] [--drop 100] [--json results/BENCH_pr6.json]
//! ```

use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::time::Instant;
use xdaq_bench::Args;
use xdaq_core::pta::PtMode;
use xdaq_core::{Executive, ExecutiveConfig};
use xdaq_evb::{xfn, BuilderUnit, EventManager, FilterStats, FilterUnit, ReadoutUnit, ORG_DAQ};
use xdaq_i2o::{Message, Tid};
use xdaq_mempool::TablePool;
use xdaq_mon::HistogramSnapshot;
use xdaq_pt::{ChaosPt, FaultPlan, TcpPt};
use xdaq_shm::{ShmConfig, ShmPt};

const FRAGMENT_SIZE: u32 = 1024;

fn cfg() -> ShmConfig {
    ShmConfig {
        block_size: 4096,
        nblocks: 128,
        ring_capacity: 256,
    }
}

struct PointResult {
    events_per_sec: f64,
    mb_per_s: f64,
    p50_ms: f64,
    p90_ms: f64,
    p99_ms: f64,
    built: u64,
    completed: u64,
    lost: u64,
}

/// One mesh point: `n` readouts (the last `stragglers` over tcp, the
/// rest over shm regions) × `m` builders, all on their own executive,
/// driven through a full `events`-event run.
fn run_point(n: usize, m: usize, stragglers: usize, events: u64, drop: u16) -> PointResult {
    let base = std::env::temp_dir().join(format!("xdaq-evb-bench-{}-{n}x{m}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    std::fs::create_dir_all(&base).unwrap();
    let region = |name: String| -> PathBuf { base.join(name) };
    let shm_rus = n - stragglers;
    let chaos = |pt, i: usize| {
        let plan = FaultPlan {
            drop_per_mille: drop,
            ..FaultPlan::default()
        };
        ChaosPt::wrap(pt, 0xDA0 + i as u64, plan)
    };

    // The manager node owns one end of every control region; the
    // collector rides on it so builder→filter traffic reuses the
    // builder's control link.
    let mgr_shm = ShmPt::new(PtMode::Polling);
    let ru_ctl: Vec<String> = (0..shm_rus)
        .map(|i| {
            mgr_shm
                .create_link(&region(format!("p-ru{i}")), cfg())
                .unwrap()
                .peer_addr()
                .to_string()
        })
        .collect();
    let bu_ctl: Vec<String> = (0..m)
        .map(|j| {
            mgr_shm
                .create_link(&region(format!("p-bu{j}")), cfg())
                .unwrap()
                .peer_addr()
                .to_string()
        })
        .collect();

    // Readout nodes: shm first, tcp stragglers after. The crossing
    // RU↔BU regions are created readout-side and attached by builders.
    let mut ru_execs = Vec::new();
    let mut ru_tids = Vec::new();
    let mut ru_tcp_addrs = Vec::new();
    for i in 0..n {
        let exec = Executive::new(ExecutiveConfig::named(&format!("ru{i}")));
        if i < shm_rus {
            let shm = ShmPt::new(PtMode::Polling);
            shm.attach_link(&region(format!("p-ru{i}"))).unwrap();
            for j in 0..m {
                shm.create_link(&region(format!("x-ru{i}-bu{j}")), cfg())
                    .unwrap();
            }
            exec.register_pt("pt", chaos(shm, i)).unwrap();
        } else {
            let tcp = TcpPt::bind("127.0.0.1:0", TablePool::with_defaults()).unwrap();
            ru_tcp_addrs.push(tcp.addr().to_string());
            exec.register_pt("pt", chaos(tcp, i)).unwrap();
        }
        let tid = exec
            .register(
                "readout",
                Box::new(ReadoutUnit::new()),
                &[
                    ("source_id", &i.to_string()),
                    ("sources", &n.to_string()),
                    ("size", &FRAGMENT_SIZE.to_string()),
                ],
            )
            .unwrap();
        ru_tids.push(tid);
        ru_execs.push(exec);
    }

    // Builder nodes: attach the control + crossing regions, add a tcp
    // endpoint when stragglers exist, and wire proxies for every
    // readout plus the collector.
    let mut bu_execs = Vec::new();
    let mut bu_stats = Vec::new();
    let mut bu_tids = Vec::new();
    for j in 0..m {
        let shm = ShmPt::new(PtMode::Polling);
        let parent_url = shm
            .attach_link(&region(format!("p-bu{j}")))
            .unwrap()
            .peer_addr()
            .to_string();
        let ru_urls: Vec<String> = (0..shm_rus)
            .map(|i| {
                shm.attach_link(&region(format!("x-ru{i}-bu{j}")))
                    .unwrap()
                    .peer_addr()
                    .to_string()
            })
            .collect();
        let exec = Executive::new(ExecutiveConfig::named(&format!("bu{j}")));
        exec.register_pt("shm", shm).unwrap();
        if stragglers > 0 {
            exec.register_pt(
                "tcp",
                TcpPt::bind("127.0.0.1:0", TablePool::with_defaults()).unwrap(),
            )
            .unwrap();
        }
        let mut ru_names = Vec::new();
        for i in 0..n {
            let alias = format!("ru{i}");
            let url = if i < shm_rus {
                &ru_urls[i]
            } else {
                &ru_tcp_addrs[i - shm_rus]
            };
            exec.proxy(url, ru_tids[i], Some(&alias)).unwrap();
            ru_names.push(alias);
        }
        let unit = BuilderUnit::new();
        bu_stats.push(unit.stats());
        let tid = exec
            .register(
                &format!("builder{j}"),
                Box::new(unit),
                &[
                    ("rus", &ru_names.join(",")),
                    ("filter", "flt"),
                    ("credits", "8"),
                    ("timeout_ms", "40"),
                    ("max_retries", "1000"),
                ],
            )
            .unwrap();
        bu_tids.push(tid);
        bu_execs.push((exec, parent_url));
    }

    // Manager node: collector + event manager, proxies to everyone.
    let mgr = Executive::new(ExecutiveConfig::named("mgr"));
    mgr.register_pt("shm", mgr_shm).unwrap();
    if stragglers > 0 {
        mgr.register_pt(
            "tcp",
            TcpPt::bind("127.0.0.1:0", TablePool::with_defaults()).unwrap(),
        )
        .unwrap();
    }
    let f_stats = FilterStats::new();
    let flt_tid = mgr
        .register(
            "flt",
            Box::new(FilterUnit::new(f_stats)),
            &[("accept_percent", "100")],
        )
        .unwrap();
    // Builders reach the collector over their control link.
    for (exec, parent_url) in &bu_execs {
        exec.proxy(parent_url, flt_tid, Some("flt")).unwrap();
    }
    let mut ru_names = Vec::new();
    for i in 0..n {
        let alias = format!("ru{i}");
        let url = if i < shm_rus {
            ru_ctl[i].clone()
        } else {
            ru_tcp_addrs[i - shm_rus].clone()
        };
        mgr.proxy(&url, ru_tids[i], Some(&alias)).unwrap();
        ru_names.push(alias);
    }
    let mut bu_names = Vec::new();
    for (j, url) in bu_ctl.iter().enumerate() {
        let alias = format!("bu{j}");
        mgr.proxy(url, bu_tids[j], Some(&alias)).unwrap();
        bu_names.push(alias);
    }
    let evm = EventManager::new();
    let m_stats = evm.stats();
    let mgr_tid = mgr
        .register(
            "evm",
            Box::new(evm),
            &[
                ("readouts", &ru_names.join(",")),
                ("bus", &bu_names.join(",")),
            ],
        )
        .unwrap();

    // Spawn the whole cluster and run.
    let mut handles = Vec::new();
    for exec in std::iter::once(&mgr)
        .chain(ru_execs.iter())
        .chain(bu_execs.iter().map(|(e, _)| e))
    {
        exec.enable_all();
        handles.push(exec.spawn());
    }
    let t0 = Instant::now();
    mgr.post(
        Message::build_private(mgr_tid, Tid::HOST, ORG_DAQ, xfn::RUN)
            .payload(events.to_le_bytes().to_vec())
            .finish(),
    )
    .unwrap();
    let mut last = 0;
    let mut stuck = 0;
    while !m_stats.run_done.load(Ordering::SeqCst) {
        std::thread::sleep(std::time::Duration::from_millis(20));
        let done = m_stats.completed.load(Ordering::SeqCst);
        if done == last {
            stuck += 1;
            assert!(
                stuck < 1500,
                "mesh {n}x{m} stalled at {done}/{events} events"
            );
        } else {
            stuck = 0;
            last = done;
        }
    }
    let dt = t0.elapsed().as_secs_f64();

    // Merge the per-builder latency histograms for cluster percentiles.
    let mut latency = HistogramSnapshot::default();
    for (exec, _) in &bu_execs {
        let snap = exec.core().monitors().registry().snapshot();
        if let Some(h) = HistogramSnapshot::from_value(&snap["histograms"]["evb.build_latency_ns"])
        {
            latency.merge(&h);
        }
    }
    let built: u64 = bu_stats
        .iter()
        .map(|s| s.events_built.load(Ordering::SeqCst))
        .sum();
    let bytes: u64 = bu_stats
        .iter()
        .map(|s| s.bytes.load(Ordering::SeqCst))
        .sum();
    let result = PointResult {
        events_per_sec: events as f64 / dt,
        mb_per_s: bytes as f64 / dt / 1e6,
        p50_ms: latency.quantile(0.5).map_or(0.0, |ns| ns as f64 / 1e6),
        p90_ms: latency.quantile(0.9).map_or(0.0, |ns| ns as f64 / 1e6),
        p99_ms: latency.quantile(0.99).map_or(0.0, |ns| ns as f64 / 1e6),
        built,
        completed: m_stats.completed.load(Ordering::SeqCst),
        lost: m_stats.lost.load(Ordering::SeqCst),
    };
    for h in handles {
        h.shutdown();
    }
    let _ = std::fs::remove_dir_all(&base);
    result
}

fn main() {
    assert!(
        xdaq_sys::supported(),
        "evb_scaling needs shared-memory support"
    );
    let args = Args::parse();
    let events: u64 = args.get("events", 1_000);
    let drop: u16 = args.get("drop", 100);
    let json_path = args.get_str("json", "results/BENCH_pr6.json");

    println!("# EVB scaling: n x m executives over shm:// (+ tcp stragglers),");
    println!("# {events} events per point, {FRAGMENT_SIZE} B fragments, readouts");
    println!("# dropping {drop}/1000 fragments (fixed-seed ChaosPt).");
    println!("#");
    println!(
        "{:>4} {:>4} {:>4} {:>10} {:>9} {:>8} {:>8} {:>8} {:>6}",
        "n", "m", "tcp", "events_s", "MB_s", "p50_ms", "p90_ms", "p99_ms", "lost"
    );
    let mut rows = Vec::new();
    for &(n, m, tcp) in &[(4usize, 2usize, 0usize), (8, 4, 1), (16, 8, 2)] {
        let r = run_point(n, m, tcp, events, drop);
        println!(
            "{n:>4} {m:>4} {tcp:>4} {:>10.0} {:>9.1} {:>8.3} {:>8.3} {:>8.3} {:>6}",
            r.events_per_sec, r.mb_per_s, r.p50_ms, r.p90_ms, r.p99_ms, r.lost
        );
        // Acceptance: the lossy fabric still loses nothing — the
        // credit/re-pull protocol absorbs every dropped fragment.
        assert_eq!(r.lost, 0, "mesh {n}x{m}: events lost under chaos");
        assert_eq!(r.completed, events, "mesh {n}x{m}: incomplete run");
        assert!(r.built >= events, "mesh {n}x{m}: builders under-report");
        rows.push(serde_json::json!({
            "readouts": n,
            "builders": m,
            "tcp_stragglers": tcp,
            "events_per_sec": r.events_per_sec,
            "mb_per_s": r.mb_per_s,
            "build_latency_ms": {"p50": r.p50_ms, "p90": r.p90_ms, "p99": r.p99_ms},
            "completed": r.completed,
            "lost": r.lost,
        }));
    }
    println!("#");
    println!("# zero loss at every point: timeout re-pull + EVM credits absorb");
    println!("# the {drop}/1000 fragment drops without losing a single event.");

    let doc = serde_json::json!({
        "bench": "evb_scaling",
        "events_per_point": events,
        "fragment_bytes": FRAGMENT_SIZE,
        "drop_per_mille": drop,
        "rows": rows,
    });
    if let Some(dir) = std::path::Path::new(&json_path).parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    std::fs::write(&json_path, format!("{doc:#}")).unwrap();
    println!("wrote {json_path}");
}
