//! Integration tests for `xdaq-rec`: durable zero-copy recording,
//! deterministic replay, and crash recovery.
//!
//! The crash test re-executes this test binary (`std::env::current_exe`)
//! with `--ignored --exact <child fn>` to get a genuinely separate
//! recorder process, then SIGKILLs it mid-write and asserts the store
//! recovers to a dense, CRC-verified prefix of complete records.

use std::io::IoSlice;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};
use xdaq::core::{Executive, ExecutiveConfig};
use xdaq::evb::{xfn, FilterStats, FilterUnit, ORG_DAQ};
use xdaq::i2o::{Message, Tid, UtilFn};
use xdaq::mempool::{FrameAllocator, TablePool};
use xdaq::pt::{ChaosPt, FaultPlan, LoopbackHub, LoopbackPt};
use xdaq::rec::{recover, scan, RecConfig, RecReader, RecWriter, Recorder, ReplayPt};

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("xdaq-rec-it-{name}-{}", std::process::id()))
}

/// The multi-process SIGKILL crash tier runs only when the environment
/// opts in with `XDAQ_TEST_HEAVY=1` — CI sets it; a plain `cargo test`
/// stays fast and deterministic.
fn heavy_enabled() -> bool {
    std::env::var("XDAQ_TEST_HEAVY")
        .map(|v| v == "1")
        .unwrap_or(false)
}

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

/// A built-event frame as the filter expects it:
/// `[event_id u64][size u64]`.
fn event_msg(target: Tid, event_id: u64) -> Message {
    let mut p = Vec::with_capacity(16);
    p.extend_from_slice(&event_id.to_le_bytes());
    p.extend_from_slice(&64u64.to_le_bytes());
    Message::build_private(target, Tid::HOST, ORG_DAQ, xfn::EVENT)
        .payload(p)
        .finish()
}

/// ≥10k multi-frame events round-trip byte-identically through the
/// store, and every gather iovec aliases the pool block it came from —
/// the persistence path never copies payload bytes.
#[test]
fn ten_thousand_chained_events_round_trip_byte_identical() {
    const EVENTS: usize = 10_000;
    let dir = tmp("roundtrip");
    let _ = std::fs::remove_dir_all(&dir);
    let mut cfg = RecConfig::new(&dir);
    cfg.segment_bytes = 4 << 20; // force several rotations
    let mut w = RecWriter::create(cfg).unwrap();
    let pool = TablePool::with_defaults();

    let mut originals: Vec<Vec<u8>> = Vec::with_capacity(EVENTS);
    for e in 0..EVENTS {
        let nframes = 2 + e % 3; // 2..=4 frames per event
        let mut frames = Vec::with_capacity(nframes);
        for f in 0..nframes {
            let len = 64 + (e * 7 + f * 131) % 900;
            let mut buf = pool.alloc(len).unwrap();
            for (i, b) in buf.iter_mut().enumerate() {
                *b = (e + f * 31 + i) as u8;
            }
            frames.push(buf);
        }
        let parts: Vec<IoSlice<'_>> = frames.iter().map(|fr| fr.io_slice()).collect();
        for (slice, fr) in parts.iter().zip(&frames) {
            assert_eq!(
                slice.as_ptr(),
                fr.as_ptr(),
                "iovec must alias the pool block, not a copy"
            );
            assert_eq!(slice.len(), fr.len());
        }
        w.append(&parts).unwrap();
        let mut whole = Vec::new();
        for fr in &frames {
            whole.extend_from_slice(&fr[..]);
        }
        originals.push(whole);
    }
    w.sync().unwrap();
    assert!(w.segments_started() > 1, "rotation must have occurred");
    drop(w);

    let mut r = RecReader::open(&dir).unwrap();
    for (e, want) in originals.iter().enumerate() {
        let got = r.next().unwrap_or_else(|| panic!("record {e} missing"));
        assert_eq!(&got, want, "record {e} not byte-identical");
    }
    assert!(r.next().is_none(), "no phantom records");
    assert!(r.torn().is_none(), "store must end cleanly");
    let report = scan(&dir).unwrap();
    assert_eq!(report.records, EVENTS as u64);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Record a run through a Recorder tap, then replay the store into a
/// fresh node: the filter's hash-based accept decisions reproduce
/// exactly.
#[test]
fn executive_record_then_replay_reproduces_filter_decisions() {
    const N: u64 = 500;
    let dir = tmp("exec");
    let _ = std::fs::remove_dir_all(&dir);

    // Phase 1: live run with the recorder tapping the event stream.
    let a = Executive::new(ExecutiveConfig::named("recnode"));
    let stats1 = FilterStats::new();
    let f1 = a
        .register(
            "filter0",
            Box::new(FilterUnit::new(stats1.clone())),
            &[("accept_percent", "40")],
        )
        .unwrap();
    let rec = a
        .register(
            "rec0",
            Box::new(Recorder::new()),
            &[
                ("dir", &dir.to_string_lossy()),
                ("forward", &f1.raw().to_string()),
            ],
        )
        .unwrap();
    a.enable_all();
    let ha = a.spawn();
    for e in 0..N {
        a.post(event_msg(rec, e)).unwrap();
    }
    assert!(
        wait_until(
            || stats1.received.load(Ordering::SeqCst) == N,
            Duration::from_secs(20)
        ),
        "live run incomplete: {}",
        stats1.received.load(Ordering::SeqCst)
    );
    // Exercise the runtime durability knob (`rec.sync=1` via ParamsSet).
    a.post(
        Message::util(rec, Tid::HOST, UtilFn::ParamsSet)
            .payload(xdaq::core::config::kv(&[("rec.sync", "1")]))
            .finish(),
    )
    .unwrap();
    std::thread::sleep(Duration::from_millis(100));
    ha.shutdown();
    assert_eq!(scan(&dir).unwrap().records, N);

    // Phase 2: replay into a brand-new filter node.
    let b = Executive::new(ExecutiveConfig::named("replaynode"));
    let stats2 = FilterStats::new();
    let f2 = b
        .register(
            "filter1",
            Box::new(FilterUnit::new(stats2.clone())),
            &[("accept_percent", "40")],
        )
        .unwrap();
    let replay = Arc::new(ReplayPt::new(&dir).retarget(f2));
    b.register_pt("replay0", replay.clone()).unwrap();
    b.enable_all();
    let hb = b.spawn();
    assert!(
        wait_until(
            || replay.is_done() && stats2.received.load(Ordering::SeqCst) >= N,
            Duration::from_secs(20)
        ),
        "replay incomplete: injected={} received={}",
        replay.injected(),
        stats2.received.load(Ordering::SeqCst)
    );
    hb.shutdown();

    assert_eq!(replay.injected(), N);
    assert_eq!(stats2.received.load(Ordering::SeqCst), N);
    assert_eq!(
        stats2.accepted.load(Ordering::SeqCst),
        stats1.accepted.load(Ordering::SeqCst),
        "hash-based accept decisions must reproduce"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The recorder composes with fault injection: events reach it over a
/// ChaosPt link that drops ~30% of sends (fixed seed, no resend).
/// The store captures every event the link accepted exactly once, and
/// replay reproduces the run.
#[test]
fn recording_over_a_chaotic_link_keeps_each_delivered_event_once_and_replays() {
    const N: u64 = 300;
    let dir = tmp("chaos");
    let _ = std::fs::remove_dir_all(&dir);

    let hub = LoopbackHub::new();
    let a = Executive::new(ExecutiveConfig::named("src"));
    let chaos = ChaosPt::wrap(
        LoopbackPt::new(&hub, "src"),
        0xC0FFEE,
        FaultPlan {
            drop_per_mille: 300,
        },
    );
    a.register_pt("src.chaos", chaos.clone()).unwrap();
    let b = Executive::new(ExecutiveConfig::named("sink"));
    b.register_pt("sink.loop", LoopbackPt::new(&hub, "sink"))
        .unwrap();

    let stats1 = FilterStats::new();
    let f1 = b
        .register(
            "filter0",
            Box::new(FilterUnit::new(stats1.clone())),
            &[("accept_percent", "40")],
        )
        .unwrap();
    let rec = b
        .register(
            "rec0",
            Box::new(Recorder::new()),
            &[
                ("dir", &dir.to_string_lossy()),
                ("forward", &f1.raw().to_string()),
            ],
        )
        .unwrap();
    let rec_proxy = a.proxy("loop://sink", rec, None).unwrap();

    a.enable_all();
    b.enable_all();
    let ha = a.spawn();
    let hb = b.spawn();
    for e in 0..N {
        a.post(event_msg(rec_proxy, e)).unwrap();
    }
    let dropped = chaos.stats().dropped;
    assert!(
        dropped > N / 10,
        "expected ~30% dropped sends, saw {dropped}"
    );
    let delivered = N - dropped;
    assert!(
        wait_until(
            || stats1.received.load(Ordering::SeqCst) == delivered,
            Duration::from_secs(30)
        ),
        "chaotic run incomplete: {} of {delivered}",
        stats1.received.load(Ordering::SeqCst)
    );
    b.post(
        Message::util(rec, Tid::HOST, UtilFn::ParamsSet)
            .payload(xdaq::core::config::kv(&[("rec.sync", "1")]))
            .finish(),
    )
    .unwrap();
    std::thread::sleep(Duration::from_millis(100));
    ha.shutdown();
    hb.shutdown();
    assert_eq!(
        scan(&dir).unwrap().records,
        delivered,
        "exactly-once capture"
    );
    let mut recorded = Vec::new();
    let mut r = RecReader::open(&dir).unwrap();
    while let Some(frame) = r.next() {
        let msg = Message::decode(&frame).expect("a recorded frame decodes");
        recorded.push(u64::from_le_bytes(msg.payload[..8].try_into().unwrap()));
    }
    recorded.sort_unstable();
    recorded.dedup();
    assert_eq!(
        recorded.len() as u64,
        delivered,
        "each delivered event recorded once"
    );
    assert!(recorded.iter().all(|&e| e < N), "{recorded:?}");

    // Replay reproduces the chaotic run's accept decisions.
    let c = Executive::new(ExecutiveConfig::named("replaynode"));
    let stats2 = FilterStats::new();
    let f2 = c
        .register(
            "filter1",
            Box::new(FilterUnit::new(stats2.clone())),
            &[("accept_percent", "40")],
        )
        .unwrap();
    let replay = Arc::new(ReplayPt::new(&dir).retarget(f2));
    c.register_pt("replay0", replay.clone()).unwrap();
    c.enable_all();
    let hc = c.spawn();
    assert!(
        wait_until(
            || replay.is_done() && stats2.received.load(Ordering::SeqCst) >= delivered,
            Duration::from_secs(20)
        ),
        "replay incomplete"
    );
    hc.shutdown();
    assert_eq!(stats2.received.load(Ordering::SeqCst), delivered);
    assert_eq!(
        stats2.accepted.load(Ordering::SeqCst),
        stats1.accepted.load(Ordering::SeqCst)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

fn spawn_child(test_fn: &str, dir: &std::path::Path) -> Child {
    Command::new(std::env::current_exe().unwrap())
        .args([
            "--ignored",
            "--exact",
            test_fn,
            "--nocapture",
            "--test-threads",
            "1",
        ])
        .env("XDAQ_REC_DIR", dir)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn child recorder process")
}

/// SIGKILL a recorder process mid-write: recovery must keep every
/// complete record (a dense prefix, each CRC-verified and content-
/// checked) and truncate the torn tail so the store scans clean.
#[test]
fn sigkilled_recorder_leaves_a_recoverable_store() {
    if !heavy_enabled() {
        return;
    }
    let dir = tmp("crash");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let mut child = spawn_child("child_append_forever", &dir);

    // Let the child build up a healthy store before pulling the plug.
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        assert!(Instant::now() < deadline, "child never wrote records");
        if let Ok(report) = scan(&dir) {
            if report.records >= 200 {
                break;
            }
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    child.kill().unwrap(); // SIGKILL: no Drop, no final sync
    child.wait().unwrap();

    let before = scan(&dir).unwrap();
    let after = recover(&dir).unwrap();
    assert_eq!(
        after.records, before.records,
        "recovery must keep every complete record"
    );
    let clean = scan(&dir).unwrap();
    assert!(
        clean.torn.is_none(),
        "store must scan clean after recovery: {:?}",
        clean.torn
    );
    assert_eq!(clean.records, after.records);

    // Every survivor is complete, in sequence, and byte-exact.
    let mut r = RecReader::open(&dir).unwrap();
    let mut expect = 0u64;
    while let Some(payload) = r.next() {
        assert!(payload.len() >= 8, "runt record {expect}");
        let seq = u64::from_le_bytes(payload[..8].try_into().unwrap());
        assert_eq!(seq, expect, "records must survive as a dense prefix");
        for (i, b) in payload[8..].iter().enumerate() {
            assert_eq!(*b, (seq as usize + i) as u8, "record {seq} corrupt at {i}");
        }
        expect += 1;
    }
    assert_eq!(expect, clean.records);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Child side of the crash test: append recognizable records forever
/// (small segments, frequent rotation) until killed.
#[test]
#[ignore]
fn child_append_forever() {
    let Ok(dir) = std::env::var("XDAQ_REC_DIR") else {
        return;
    };
    let mut cfg = RecConfig::new(&dir);
    cfg.segment_bytes = 1 << 20;
    cfg.fsync_bytes = 64 << 10;
    let mut w = RecWriter::create(cfg).unwrap();
    let mut seq = 0u64;
    loop {
        let len = 100 + (seq as usize * 37) % 4000;
        let mut payload = vec![0u8; 8 + len];
        payload[..8].copy_from_slice(&seq.to_le_bytes());
        for (i, b) in payload[8..].iter_mut().enumerate() {
            *b = (seq as usize + i) as u8;
        }
        w.append(&[IoSlice::new(&payload)]).unwrap();
        let _ = w.maybe_sync();
        seq += 1;
    }
}
