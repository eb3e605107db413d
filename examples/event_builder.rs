//! A distributed n×m event builder — the workload that named XDAQ.
//!
//! Paper footnote 1: *"We called the toolkit XDAQ (pronounce: cross
//! duck) because it allows data acquisition modules to communicate in
//! peer-to-peer style. In our DAQ system, n nodes talk to m other
//! nodes in both directions, thus resulting in communication channels
//! that cross over."*
//!
//! Topology built here (all in one process over the loopback PT, one
//! executive per "machine"), on the `xdaq-evb` credit-based pull
//! protocol:
//!
//! ```text
//!   event manager ──triggers──▶ 4 readout nodes
//!   event manager ──assigns───▶ 3 builder nodes   (8 credits each)
//!   builder nodes ──pulls─────▶ readout nodes
//!   readout nodes ──fragments─▶ builder nodes     (4×3 crossing mesh)
//!   builder nodes ──events────▶ recorder ──▶ 1 filter node
//!   builder nodes ──done──────▶ event manager     (credit returns)
//! ```
//!
//! A Recorder device taps the builder→filter stream and persists every
//! built event to disk; after the run a second phase replays the
//! recording through a `replay://` transport into a fresh filter node
//! and checks the event and accept counts reproduce exactly.
//!
//! Run with: `cargo run --release --example event_builder`

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};
use xdaq::core::{Executive, ExecutiveConfig};
use xdaq::evb::{FilterStats, FilterUnit, Mesh, Roles};
use xdaq::i2o::{Message, Tid};
use xdaq::pt::{LoopbackHub, LoopbackPt};
use xdaq::rec::{scan, Recorder, ReplayPt};

const READOUTS: usize = 4;
const BUILDERS: usize = 3;
const FRAGMENT_SIZE: u32 = 2_048;

/// Events to run; override with `EVENTS=<n>`.
fn event_count() -> u64 {
    std::env::var("EVENTS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(2_000)
}

fn main() {
    let hub = LoopbackHub::new();

    // One executive per machine.
    let names: Vec<String> = ["mgr".to_string(), "flt".to_string()]
        .into_iter()
        .chain((0..READOUTS).map(|i| format!("ru{i}")))
        .chain((0..BUILDERS).map(|j| format!("bu{j}")))
        .collect();
    let nodes: Vec<Executive> = names
        .iter()
        .map(|name| {
            let exec = Executive::new(ExecutiveConfig::named(name));
            exec.register_pt(&format!("{name}.pt"), LoopbackPt::new(&hub, name))
                .unwrap();
            exec
        })
        .collect();
    let (mgr_node, filter_node) = (&nodes[0], &nodes[1]);

    // Filter on its own node.
    let f_stats = FilterStats::new();
    let filter_tid = filter_node
        .register(
            "filter0",
            Box::new(FilterUnit::new(f_stats.clone())),
            &[("accept_percent", "25")],
        )
        .unwrap();

    // Recorder tap in front of the filter: persists every built event
    // to disk (zero-copy, crash-consistent) and forwards it on.
    let rec_dir = std::env::temp_dir().join(format!("xdaq-rec-example-{}", std::process::id()));
    let recorder_tid = filter_node
        .register(
            "rec0",
            Box::new(Recorder::new()),
            &[
                ("dir", &rec_dir.to_string_lossy()),
                ("forward", &filter_tid.raw().to_string()),
            ],
        )
        .unwrap();

    // The crossing mesh: every builder pulls from every readout, ships
    // to the recorder tap, and takes its credits' worth of events from
    // the manager, which announces itself with INVITE.
    let urls: Vec<String> = names.iter().map(|n| format!("loop://{n}")).collect();
    let peers: Vec<(&str, &Executive)> = urls.iter().map(String::as_str).zip(&nodes).collect();
    let mesh = Mesh::new(
        mgr_node,
        &peers[2..2 + READOUTS],
        &peers[2 + READOUTS..],
        (peers[1], "rec0"),
        Roles {
            readout: &[("size", &FRAGMENT_SIZE.to_string())],
            builder: &[
                ("credits", "8"),
                ("timeout_ms", "100"),
                ("max_retries", "20"),
            ],
            ..Roles::default()
        },
    )
    .unwrap();
    let m_stats = &mesh.evm_stats;
    // The mesh enabled its own nodes; the filter's is ours.
    filter_node.enable_all();
    let handles: Vec<_> = nodes.iter().map(Executive::spawn).collect();

    // Start the run.
    let events = event_count();
    println!(
        "running {events} events: {READOUTS} readouts x {BUILDERS} builders, \
         {FRAGMENT_SIZE} B fragments"
    );
    let t0 = Instant::now();
    mesh.start_run(events).unwrap();
    let mut last = 0;
    let mut stuck = 0;
    while !m_stats.run_done.load(Ordering::SeqCst) {
        std::thread::sleep(Duration::from_millis(100));
        let done = m_stats.completed.load(Ordering::SeqCst);
        if done == last {
            stuck += 1;
            if stuck > 50 {
                eprintln!(
                    "stalled at {done}/{events} (triggered {})",
                    m_stats.triggered.load(Ordering::SeqCst)
                );
                std::process::exit(1);
            }
        } else {
            stuck = 0;
            last = done;
        }
    }
    let elapsed = t0.elapsed();
    assert_eq!(
        m_stats.lost.load(Ordering::SeqCst),
        0,
        "events lost on a fault-free fabric"
    );

    let built: u64 = mesh.builders.iter().map(|bu| bu.built.get()).sum();
    println!(
        "built {built} events in {:.3} s: completed={} lost={}",
        elapsed.as_secs_f64(),
        m_stats.completed.load(Ordering::SeqCst),
        m_stats.lost.load(Ordering::SeqCst)
    );
    for (i, bu) in mesh.builders.iter().enumerate() {
        println!("  builder{i}: events={}", bu.built.get());
    }
    // Wait for the recorder to drain its forward path into the filter
    // (the run completes on builder credits, which can race the tap).
    let deadline = Instant::now() + Duration::from_secs(10);
    while f_stats.received.load(Ordering::SeqCst) < built && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
    }
    println!(
        "event rate {:.0} Hz, aggregate builder throughput {:.1} MB/s",
        built as f64 / elapsed.as_secs_f64(),
        f_stats.bytes.load(Ordering::SeqCst) as f64 / elapsed.as_secs_f64() / 1e6
    );
    // Force a durability point before reading the store back.
    filter_node
        .post(
            Message::util(recorder_tid, Tid::HOST, xdaq::i2o::UtilFn::ParamsSet)
                .payload(xdaq::core::config::kv(&[("rec.sync", "1")]))
                .finish(),
        )
        .unwrap();
    std::thread::sleep(Duration::from_millis(100));

    println!(
        "filter: received={} accepted={} ({:.1}%)",
        f_stats.received.load(Ordering::SeqCst),
        f_stats.accepted.load(Ordering::SeqCst),
        f_stats.accept_rate() * 100.0
    );
    for h in handles {
        h.shutdown();
    }
    let received = f_stats.received.load(Ordering::SeqCst);
    if received != built {
        eprintln!("the filter received {received} of {built} built events");
        std::process::exit(1);
    }

    // ── Phase 2: deterministic replay ────────────────────────────────
    // Scan the store, then re-inject every recorded event through a
    // `replay://` peer transport into a brand-new filter node. The
    // filter's accept decision is a pure hash of the event id, so both
    // the received and accepted counts must reproduce exactly.
    let report = scan(&rec_dir).expect("scan recording");
    println!(
        "recorded {} events in {} segment(s) at {}",
        report.records,
        report.segments,
        rec_dir.display()
    );

    let replay_node = Executive::new(ExecutiveConfig::named("flt2"));
    let f2_stats = FilterStats::new();
    let filter2_tid = replay_node
        .register(
            "filter1",
            Box::new(FilterUnit::new(f2_stats.clone())),
            &[("accept_percent", "25")],
        )
        .unwrap();
    let replay = Arc::new(ReplayPt::new(&rec_dir).retarget(filter2_tid));
    replay_node
        .register_pt("flt2.replay", replay.clone())
        .unwrap();
    replay_node.enable_all();
    let h2 = replay_node.spawn();

    let deadline = Instant::now() + Duration::from_secs(30);
    while Instant::now() < deadline {
        if replay.is_done() && f2_stats.received.load(Ordering::SeqCst) >= replay.injected() {
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    h2.shutdown();

    let orig = (
        f_stats.received.load(Ordering::SeqCst),
        f_stats.accepted.load(Ordering::SeqCst),
    );
    let rep = (
        f2_stats.received.load(Ordering::SeqCst),
        f2_stats.accepted.load(Ordering::SeqCst),
    );
    println!(
        "replay: injected={} received={} accepted={}",
        replay.injected(),
        rep.0,
        rep.1
    );
    let _ = std::fs::remove_dir_all(&rec_dir);
    if rep != orig {
        eprintln!("replay mismatch: live {orig:?} vs replay {rep:?}");
        std::process::exit(1);
    }
    println!("replay reproduced the run exactly");
}
