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

fn wait_until(what: &str, mut cond: impl FnMut() -> bool) {
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
    a.start(Arc::new(|_, _| {})).unwrap();
    let dest: PeerAddr = "xpt://127.0.0.1:1".parse().unwrap();
    let err = a.send(&dest, frame(8)).unwrap_err();
    assert!(matches!(err.error, PtError::Unreachable(_)));
    assert!(err.frame.is_some(), "frame must come back to the sender");

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

    // Bodies larger than the driver's 64 KiB staging buffer: no staging
    // read can complete one, so each must end in a donated read.
    for _ in 0..20 {
        a.send(&b.addr(), frame(200_000)).unwrap();
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
    // The teardown counts the first frame if it was still queued.
    let c = a.counters().unwrap();
    let before = c.send_errors.load(Ordering::Relaxed);
    let err = a.submit(&conn, frame(64)).unwrap_err();
    assert!(
        matches!(err.error, PtError::Unreachable(_)),
        "{:?}",
        err.error
    );
    assert!(err.frame.is_some(), "frame must come back to the sender");
    assert_eq!(c.send_errors.load(Ordering::Relaxed), before + 1);
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

/// Every frame `send` accepted reaches the peer although `stop` follows
/// at once. The driver used to see `stopped` before it drained the
/// submission rings, and `stop` then dropped them: 0–1 of 500 frames
/// arrived.
#[test]
fn sends_accepted_before_stop_reach_the_peer() {
    const FRAMES: u64 = 500;
    let (a, b) = (bind(), bind());
    let got = Arc::new(AtomicU64::new(0));
    let g = got.clone();
    b.start(Arc::new(move |_, _| {
        g.fetch_add(1, Ordering::Relaxed);
    }))
    .unwrap();
    a.start(Arc::new(|_, _| {})).unwrap();

    for i in 0..FRAMES as usize {
        a.send(&b.addr(), frame(i * 97 % 3000)).unwrap();
    }
    a.stop();
    wait_until("b to receive every accepted frame", || {
        got.load(Ordering::Relaxed) == FRAMES
    });
    let c = a.counters().unwrap();
    assert_eq!(c.sent_frames.load(Ordering::Relaxed), FRAMES);
    assert_eq!(c.send_errors.load(Ordering::Relaxed), 0);
    b.stop();
}

/// A listener that completes the handshake and never reads: the kernel
/// buffers what it can, then the link stalls. Dropping it resets the
/// link.
fn stalled_peer() -> (std::net::TcpListener, PeerAddr) {
    let stall = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = format!("xpt://{}", stall.local_addr().unwrap())
        .parse()
        .unwrap();
    (stall, addr)
}

/// Sends `n` 60 KB frames to `dest` and returns how many were accepted.
/// Far more than loopback socket buffers hold, so a stalled peer keeps
/// most of them unwritten.
fn flood(a: &XptPt, dest: &PeerAddr, n: usize) -> u64 {
    (0..n)
        .filter(|_| a.send(dest, frame(60_000)).is_ok())
        .count() as u64
}

/// `stop` with a stalled peer returns within the flush bound, and every
/// frame it could not write counts as a send error.
#[test]
fn stop_with_a_stalled_peer_is_bounded_and_counts_unwritten_frames() {
    let (_stall, dest) = stalled_peer();
    let a = bind();
    a.start(Arc::new(|_, _| {})).unwrap();
    let accepted = flood(&a, &dest, 400);
    assert!(accepted > 0, "the stalled link accepted nothing");
    let refused = 400 - accepted; // each counted as a send error already

    let t0 = Instant::now();
    a.stop();
    let took = t0.elapsed();
    assert!(
        took < epoll::STOP_FLUSH + Duration::from_secs(2),
        "stop took {took:?}"
    );
    let c = a.counters().unwrap();
    let (sent, errors) = (
        c.sent_frames.load(Ordering::Relaxed),
        c.send_errors.load(Ordering::Relaxed),
    );
    assert!(errors > refused, "a stalled peer left nothing unwritten");
    assert_eq!(sent + errors, 400, "every frame sent or counted");
}

/// A stalled peer does not hold up sends to a healthy one: sends only
/// queue, and the driver keeps serving every other link.
#[test]
fn stalled_peer_does_not_block_sends_to_other_peers() {
    let (stall, stall_addr) = stalled_peer();
    let (a, healthy) = (bind(), bind());
    let got: Arc<Mutex<Vec<usize>>> = Arc::new(Mutex::new(Vec::new()));
    let g = got.clone();
    healthy
        .start(Arc::new(move |f, _| g.lock().push(f.len())))
        .unwrap();
    a.start(Arc::new(|_, _| {})).unwrap();
    assert!(flood(&a, &stall_addr, 400) > 0);

    let t0 = Instant::now();
    a.send(&healthy.addr(), frame(64)).unwrap();
    wait_until("the healthy peer to receive", || got.lock().len() == 1);
    assert!(
        t0.elapsed() < Duration::from_secs(2),
        "head-of-line blocked for {:?}",
        t0.elapsed()
    );
    drop(stall); // reset the stalled link so `stop` need not wait
    a.stop();
    healthy.stop();
}

/// CPU ticks (user + system) of the driver threads of `pts`.
fn driver_cpu_ticks(pts: &[&XptPt]) -> u64 {
    let names: Vec<String> = pts.iter().map(|pt| driver_name(&pt.addr())).collect();
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    let mut total = 0;
    for entry in tasks.flatten() {
        let Ok(stat) = std::fs::read_to_string(entry.path().join("stat")) else {
            continue;
        };
        // Fields: pid (comm) state ... utime=14 stime=15; comm may hold
        // spaces, so split after its closing paren.
        let (Some(open), Some(close)) = (stat.find('('), stat.rfind(')')) else {
            continue;
        };
        if !names.iter().any(|n| *n == stat[open + 1..close]) {
            continue;
        }
        let rest: Vec<&str> = stat[close + 2..].split(' ').collect();
        let field = |i: usize| rest.get(i).and_then(|v| v.parse::<u64>().ok());
        total += field(11).unwrap_or(0) + field(12).unwrap_or(0);
    }
    total
}

/// Idle links cost the driver no CPU: it sleeps in `epoll_wait` until
/// bytes or a doorbell arrive.
#[test]
fn idle_links_burn_no_driver_cpu() {
    let (a, b) = (bind(), bind());
    let got: Arc<Mutex<Vec<usize>>> = Arc::new(Mutex::new(Vec::new()));
    let g = got.clone();
    b.start(Arc::new(move |f, _| g.lock().push(f.len())))
        .unwrap();
    a.start(Arc::new(|_, _| {})).unwrap();
    a.send(&b.addr(), frame(16)).unwrap();
    wait_until("b to receive", || got.lock().len() == 1);

    let before = driver_cpu_ticks(&[&a, &b]);
    std::thread::sleep(Duration::from_millis(1200));
    let delta = driver_cpu_ticks(&[&a, &b]).saturating_sub(before);
    // A spinning driver burns ~120 ticks over this window; a sleeping
    // one none.
    assert!(delta <= 20, "idle drivers burned {delta} ticks");
    a.stop();
    b.stop();
}

/// Links that say hello and hang up surface their peers through
/// `take_down_peers`; a corrupt stream does too, and counts a receive
/// error.
#[test]
fn reconnect_churn_and_corrupt_streams_surface_down_peers() {
    use std::net::TcpStream;
    let b = bind();
    b.start(Arc::new(|_, _| {})).unwrap();

    for i in 0..30 {
        let mut s = TcpStream::connect(b.addr().rest()).unwrap();
        s.write_all(format!("{HELLO_PREFIX}xpt://127.0.0.1:{}\n", 40_000 + i).as_bytes())
            .unwrap();
        drop(s); // EOF: the driver reports the peer down
    }
    let mut down: Vec<PeerAddr> = Vec::new();
    wait_until("every churned peer reported down", || {
        down.extend(b.take_down_peers());
        down.len() == 30
    });

    // An all-zero header (length word 0) is a protocol violation.
    let mut evil = TcpStream::connect(b.addr().rest()).unwrap();
    evil.write_all(format!("{HELLO_PREFIX}xpt://127.0.0.1:39998\n").as_bytes())
        .unwrap();
    evil.write_all(&[0u8; xdaq_i2o::HEADER_LEN]).unwrap();
    let c = b.counters().unwrap();
    wait_until("the corrupt stream to count", || {
        c.recv_errors.load(Ordering::Relaxed) == 1
    });
    let down = b.take_down_peers();
    assert!(
        down.iter().any(|p| p.rest().ends_with(":39998")),
        "corrupt peer surfaced via take_down_peers, got {down:?}"
    );
    b.stop();
}

/// The first frame on a fresh inbound link is served at once, and an
/// idle transport stops promptly.
#[test]
fn fresh_inbound_links_deliver_their_first_frame_at_once() {
    let b = bind();
    let (tx, rx) = std::sync::mpsc::channel();
    b.start(Arc::new(move |f, _| tx.send(f.len()).unwrap()))
        .unwrap();

    let senders: Vec<_> = (0..20).map(|_| bind()).collect();
    for a in &senders {
        a.start(Arc::new(|_, _| {})).unwrap();
    }
    let t0 = Instant::now();
    for a in &senders {
        a.send(&b.addr(), frame(16)).unwrap();
        rx.recv_timeout(Duration::from_secs(10))
            .expect("first frame on a fresh link");
    }
    let took = t0.elapsed();
    assert!(
        took < Duration::from_millis(100),
        "20 fresh links took {took:?}"
    );
    for a in &senders {
        a.stop();
    }

    let idle = bind();
    idle.start(Arc::new(|_, _| {})).unwrap();
    let t0 = Instant::now();
    idle.stop();
    assert!(t0.elapsed() < Duration::from_secs(1), "idle stop hung");
    b.stop();
}

/// `stop` racing a link that connects at that very moment neither
/// hangs nor leaks the link's frame unaccounted.
#[test]
fn stop_racing_a_fresh_inbound_link_does_not_hang() {
    for _ in 0..5000 {
        let (a, b) = (bind(), bind());
        a.start(Arc::new(|_, _| {})).unwrap();
        b.start(Arc::new(|_, _| {})).unwrap();
        b.send(&a.addr(), frame(16)).unwrap();
        a.stop();
        b.stop();
        let c = b.counters().unwrap();
        let done = c.sent_frames.load(Ordering::Relaxed) + c.send_errors.load(Ordering::Relaxed);
        assert_eq!(done, 1, "the racing frame was neither sent nor counted");
    }
}
