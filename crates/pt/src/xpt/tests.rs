use super::*;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};
use xdaq_i2o::{Message, Tid};
use xdaq_mempool::TablePool;

fn pool() -> DynAllocator {
    TablePool::with_defaults()
}

fn frame(payload_len: usize) -> FrameBuf {
    let msg = Message::build_private(Tid::new(0x10).unwrap(), Tid::new(0x20).unwrap(), 1, 7)
        .payload(vec![0xA5; payload_len])
        .finish();
    FrameBuf::from_bytes(&msg.encode_vec())
}

fn wait_until(what: &str, cond: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

fn bind() -> Arc<XptPt> {
    XptPt::bind("127.0.0.1:0", pool()).expect("bind")
}

#[test]
fn echo_suite() {
    let (a, b) = (bind(), bind());
    assert_eq!(a.scheme(), "xpt");
    let got_b: Arc<Mutex<Vec<(usize, String)>>> = Arc::new(Mutex::new(Vec::new()));
    let gb = got_b.clone();
    b.start(Arc::new(move |f, src| {
        gb.lock().push((f.len(), src.to_string()))
    }))
    .unwrap();
    let got_a: Arc<Mutex<Vec<usize>>> = Arc::new(Mutex::new(Vec::new()));
    let ga = got_a.clone();
    a.start(Arc::new(move |f, _| ga.lock().push(f.len())))
        .unwrap();

    // Small frame (staging path) and large frame (donated-read path).
    let small = frame(100);
    let (small_len, large_len) = (small.len(), frame(60_000).len());
    a.send(&b.addr(), small).unwrap();
    a.send(&b.addr(), frame(60_000)).unwrap();
    wait_until("b to receive 2 frames", || got_b.lock().len() == 2);
    {
        let g = got_b.lock();
        assert_eq!(g[0], (small_len, a.addr().to_string()), "canonical source");
        assert_eq!(g[1].0, large_len);
    }

    // Reply over the canonical address B learned from the hello.
    let back: PeerAddr = got_b.lock()[0].1.parse().unwrap();
    b.send(&back, frame(64)).unwrap();
    wait_until("a to receive the reply", || got_a.lock().len() == 1);

    // A burst of mixed sizes survives batching and segmentation.
    for i in 0..200usize {
        a.send(&b.addr(), frame(i * 97 % 3000)).unwrap();
    }
    wait_until("b to receive the burst", || got_b.lock().len() == 202);

    let c = a.counters().unwrap();
    use std::sync::atomic::Ordering::Relaxed;
    assert_eq!(c.sent_frames.load(Relaxed), 202, "completion accounting");
    assert_eq!(c.send_errors.load(Relaxed), 0);
    a.stop();
    b.stop();
}

#[test]
fn unreachable_and_closed() {
    let a = bind();
    let dest: PeerAddr = "xpt://127.0.0.1:1".parse().unwrap();
    let err = a.send(&dest, frame(8)).unwrap_err();
    assert!(matches!(err.error, PtError::Unreachable(_)));
    assert!(err.frame.is_some(), "frame must come back for failover");

    a.stop();
    a.stop(); // idempotent
    let err = a.send(&dest, frame(8)).unwrap_err();
    assert!(matches!(err.error, PtError::Closed));
    assert!(err.frame.is_some());
}

#[test]
fn dead_peer_surfaces_via_take_down_peers() {
    let a = bind();
    let b = bind();
    let got: Arc<Mutex<Vec<usize>>> = Arc::new(Mutex::new(Vec::new()));
    let g = got.clone();
    b.start(Arc::new(move |f, _| g.lock().push(f.len())))
        .unwrap();
    a.start(Arc::new(|_, _| {})).unwrap();

    a.send(&b.addr(), frame(16)).unwrap();
    wait_until("b to receive", || got.lock().len() == 1);
    let b_addr = b.addr();
    b.stop();
    drop(b); // closes the listener and the accepted link
    wait_until("a to notice the dead peer", || {
        !a.take_down_peers().is_empty() || {
            // Poke the link so the driver sees the closed socket.
            let _ = a.send(&b_addr, frame(16));
            false
        }
    });
    a.stop();
}

#[test]
fn metrics_flow_through_bound_registry() {
    let reg = xdaq_mon::Registry::new();
    let a = bind();
    let b = bind();
    a.bind_registry(&reg);
    b.bind_registry(&reg);
    let got: Arc<Mutex<Vec<usize>>> = Arc::new(Mutex::new(Vec::new()));
    let g = got.clone();
    b.start(Arc::new(move |f, _| g.lock().push(f.len())))
        .unwrap();
    a.start(Arc::new(|_, _| {})).unwrap();

    for _ in 0..20 {
        a.send(&b.addr(), frame(60_000)).unwrap();
    }
    wait_until("b to receive 20 large frames", || got.lock().len() == 20);
    a.stop();
    b.stop();

    let snap = reg.snapshot();
    let batches = snap["counters"].get("pt.xpt.doorbells");
    assert!(batches.is_some(), "doorbell counter registered");
    let hist = &snap["histograms"]["pt.xpt.batch_frames"];
    assert!(hist["count"].as_u64().unwrap_or(0) > 0, "batches recorded");
    let donations = snap["counters"]["pt.xpt.donations"].as_u64().unwrap_or(0);
    assert!(
        donations > 0,
        "large inbound bodies must land via donated reads"
    );
}

/// A second `connect` to one destination must reuse the first link.
/// Dialing it again and dropping the loser after its hello made the
/// peer read hello-then-EOF and report this live sender down.
#[test]
fn a_second_connect_reuses_the_link_and_reports_no_peer_down() {
    let (a, b) = (bind(), bind());
    let got: Arc<Mutex<Vec<usize>>> = Arc::new(Mutex::new(Vec::new()));
    let g = got.clone();
    b.start(Arc::new(move |f, _| g.lock().push(f.len())))
        .unwrap();
    a.start(Arc::new(|_, _| {})).unwrap();

    let first = a.connect(&b.addr()).unwrap();
    let second = a.connect(&b.addr()).unwrap();
    assert!(Arc::ptr_eq(&first, &second), "one link per destination");
    for _ in 0..3 {
        a.send(&b.addr(), frame(64)).unwrap();
    }
    wait_until("b to receive 3 frames", || got.lock().len() == 3);
    // A dropped duplicate link would surface here within milliseconds.
    let quiet_until = Instant::now() + Duration::from_millis(300);
    while Instant::now() < quiet_until {
        assert_eq!(b.take_down_peers(), Vec::<PeerAddr>::new());
        std::thread::sleep(Duration::from_millis(10));
    }
    a.stop();
    b.stop();
}

/// A dial in progress to one peer does not hold up a dial to another.
/// A dial to a black-holed peer blocks until the kernel gives up, and
/// the driver itself sends when its ingest sink replies.
#[test]
fn a_slow_dial_holds_up_only_its_own_destination() {
    let (a, b) = (bind(), bind());
    b.start(Arc::new(|_, _| {})).unwrap();
    a.start(Arc::new(|_, _| {})).unwrap();

    // Stand in for a dial that hangs: hold another peer's gate.
    let gate = a
        .dials
        .lock()
        .entry("127.0.0.1:1".into())
        .or_default()
        .clone();
    let _dialing = gate.lock();
    let (done, sent) = std::sync::mpsc::channel();
    let (a2, dest) = (a.clone(), b.addr());
    let sender = std::thread::spawn(move || done.send(a2.send(&dest, frame(64)).is_ok()));
    assert_eq!(sent.recv_timeout(Duration::from_secs(10)), Ok(true));
    sender.join().unwrap().unwrap();
    a.stop();
    b.stop();
}

/// A frame submitted to a link the driver has just torn down comes
/// back as `Unreachable`; it used to be queued on the dead ring and
/// reported sent.
#[test]
fn a_send_on_a_torn_down_link_is_refused_with_the_frame() {
    let (a, b) = (bind(), bind());
    b.start(Arc::new(|_, _| {})).unwrap();
    a.start(Arc::new(|_, _| {})).unwrap();
    a.send(&b.addr(), frame(64)).unwrap();

    let conn = a.cached(&b.addr()).expect("link cached after a send");
    a.shared.teardown(&conn, false);
    let err = a.submit(&conn, frame(64)).unwrap_err();
    assert!(
        matches!(err.error, PtError::Unreachable(_)),
        "{:?}",
        err.error
    );
    assert!(err.frame.is_some(), "frame must come back for failover");
    let c = a.counters().unwrap();
    assert_eq!(c.send_errors.load(std::sync::atomic::Ordering::Relaxed), 1);
    a.stop();
    b.stop();
}

/// Bytes of the sequence-stamped frame number `seq` of the handoff
/// test. Frames go in groups of 16: a large single send (up to 60 KB),
/// then a burst of 15 frames of 64 B to 2 KB with one large one in its
/// middle. The length word sits in the header, the stamp after it, and
/// a pattern that shifts with `seq` fills the rest.
fn stamped(seq: u64) -> Vec<u8> {
    let len = if seq.is_multiple_of(8) {
        64 + (seq as usize * 7_919) % (60 * 1024 - 64)
    } else {
        64 + (seq as usize * 131) % 2_048
    } & !3;
    let mut f: Vec<u8> = (0..len).map(|i| (i as u64 * 31 + seq) as u8).collect();
    f[2..4].copy_from_slice(&((len / 4) as u16).to_le_bytes());
    f[xdaq_i2o::HEADER_LEN..xdaq_i2o::HEADER_LEN + 8].copy_from_slice(&seq.to_le_bytes());
    f
}

/// The handoff between inline writes and the driver keeps the byte
/// stream whole. The sink stalls on every 2 000th frame until the
/// sender is 2 000 frames (≈ 10 MB, more than loopback socket buffers
/// hold) further on, so the buffers fill again and again. Large single
/// sends are written inline while the driver sleeps, so the one that
/// meets the full buffer goes partial or gets `WouldBlock`, and the
/// driver takes over mid-frame. Every frame must still arrive once, in
/// order and intact, and every pool block must come home.
#[test]
fn inline_and_driver_writes_interleave_without_reordering() {
    const FRAMES: u64 = 10_000;
    const STALL_EVERY: u64 = 2_000;
    let (pool_a, pool_b) = (pool(), pool());
    let a = XptPt::bind("127.0.0.1:0", pool_a.clone()).unwrap();
    let b = XptPt::bind("127.0.0.1:0", pool_b.clone()).unwrap();

    let (release, stalled) = std::sync::mpsc::channel::<()>();
    let stalled = Mutex::new(stalled);
    let next = Arc::new(AtomicU64::new(0));
    let bad = Arc::new(AtomicU64::new(0));
    let (n, bad_in) = (next.clone(), bad.clone());
    b.start(Arc::new(move |f, _| {
        let seq = n.fetch_add(1, Ordering::Relaxed);
        if seq.is_multiple_of(STALL_EVERY) {
            let _ = stalled.lock().recv();
        }
        if f[..] != stamped(seq)[..] {
            bad_in.fetch_add(1, Ordering::Relaxed);
        }
    }))
    .unwrap();
    a.start(Arc::new(|_, _| {})).unwrap();

    for seq in 0..FRAMES {
        if seq.is_multiple_of(STALL_EVERY) && seq > 0 {
            release.send(()).unwrap();
        }
        let bytes = stamped(seq);
        let mut f = pool_a.alloc(bytes.len()).unwrap();
        f.copy_from_slice(&bytes);
        while let Err(e) = a.send(&b.addr(), f) {
            // A full submission ring: retry the same frame.
            assert!(matches!(e.error, PtError::WouldBlock), "{:?}", e.error);
            f = e.frame.expect("WouldBlock hands the frame back");
            std::thread::yield_now();
        }
        if seq % 16 == 0 || seq % 16 == 15 {
            // End of a group: let the driver fall asleep again.
            std::thread::sleep(Duration::from_micros(50));
        }
    }
    release.send(()).unwrap();
    wait_until("b to receive every frame", || {
        next.load(Ordering::Relaxed) == FRAMES
    });
    assert_eq!(bad.load(Ordering::Relaxed), 0, "frames reordered or torn");
    let sent = a.counters().unwrap().sent_frames.load(Ordering::Relaxed);
    assert_eq!(sent, FRAMES, "each frame completes exactly once");
    a.stop();
    b.stop();
    assert_eq!(pool_a.stats().live_blocks, 0, "sender pool leaked");
    assert_eq!(pool_b.stats().live_blocks, 0, "receiver pool leaked");
}
