use super::*;
use parking_lot::Mutex;
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
