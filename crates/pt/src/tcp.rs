//! The TCP peer transport.
//!
//! In the paper's benchmark setup *"another PT thread was handling TCP
//! communication for configuration and control purposes"* — TCP is the
//! commodity control-plane transport next to the fast data-plane GM PT
//! (the multiple-transports-in-parallel capability §4 highlights as
//! "vital functionality that is not covered by other comparable
//! middleware products yet").
//!
//! Protocol: on connect, the initiating side sends a fixed hello
//! `XDAQPT1 <canonical-addr>\n` identifying its own listen address;
//! after that the stream is a back-to-back sequence of self-delimiting
//! I2O frames. One reader thread per accepted connection; outgoing
//! connections are cached per destination.

use parking_lot::Mutex;
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use xdaq_core::{IngestSink, PeerAddr, PeerTransport, PtError, PtMode, SendFailure};
use xdaq_i2o::HEADER_LEN;
use xdaq_mempool::{DynAllocator, FrameBuf};
use xdaq_mon::PtCounters;

const HELLO_PREFIX: &str = "XDAQPT1 ";
const MAX_FRAME: usize = xdaq_i2o::MAX_BLOCK_LEN;

/// One reader spawned by the accept loop: a handle to join plus a
/// socket clone `stop` uses to shut the blocking read down.
type Reader = (Option<TcpStream>, std::thread::JoinHandle<()>);

/// The TCP peer transport (task mode).
pub struct TcpPt {
    listener: TcpListener,
    self_addr: PeerAddr,
    alloc: DynAllocator,
    stopped: Arc<AtomicBool>,
    /// Outbound connections, each behind its **own** lock so a
    /// stalled peer only blocks senders to that peer — the registry
    /// lock is held for lookup/insert only, never across a write.
    conns: Mutex<HashMap<String, Arc<Mutex<TcpStream>>>>,
    /// One gate per destination `ip:port`, held across a dial of it, so
    /// one destination gets one connection and a slow dial blocks only
    /// the senders to that destination.
    dials: Mutex<HashMap<String, Arc<Mutex<()>>>>,
    threads: Mutex<Vec<std::thread::JoinHandle<()>>>,
    /// Live reader threads; the accept loop reaps finished entries on
    /// every accept (no JoinHandle leak under reconnect churn) and
    /// `stop` joins the remainder.
    readers: Arc<Mutex<Vec<Reader>>>,
    /// Task threads observed to have panicked, drained by
    /// [`PeerTransport::take_panics`]. Shared with the accept loop,
    /// which harvests panics while reaping.
    panics: Arc<AtomicU64>,
    /// Shared with reader threads, which account received frames.
    counters: Arc<PtCounters>,
    /// Canonical addresses of peers whose connection died, drained by
    /// [`PeerTransport::take_down_peers`].
    down: Arc<Mutex<Vec<PeerAddr>>>,
}

impl TcpPt {
    /// Binds a listener. `listen` is `ip:port`; port 0 picks a free
    /// port (the canonical address reflects the actual one).
    pub fn bind(listen: &str, alloc: DynAllocator) -> Result<Arc<TcpPt>, PtError> {
        let listener = TcpListener::bind(listen)?;
        let actual = listener.local_addr()?;
        Ok(Arc::new(TcpPt {
            listener,
            self_addr: PeerAddr::new("tcp", &actual.to_string()),
            alloc,
            stopped: Arc::new(AtomicBool::new(false)),
            conns: Mutex::new(HashMap::new()),
            dials: Mutex::new(HashMap::new()),
            threads: Mutex::new(Vec::new()),
            readers: Arc::new(Mutex::new(Vec::new())),
            panics: Arc::new(AtomicU64::new(0)),
            counters: Arc::new(PtCounters::new()),
            down: Arc::new(Mutex::new(Vec::new())),
        }))
    }

    /// This PT's canonical address.
    pub fn addr(&self) -> PeerAddr {
        self.self_addr.clone()
    }

    /// Dials `dest`, performs the hello and caches the connection.
    /// Dials of one destination are serialised and the cache is checked
    /// again first: a second connection to one peer would be dropped
    /// right after its hello, and the peer would read that EOF as this
    /// node dying.
    fn connect(&self, dest: &PeerAddr) -> Result<Arc<Mutex<TcpStream>>, PtError> {
        let gate = self
            .dials
            .lock()
            .entry(dest.rest().to_string())
            .or_default()
            .clone();
        let _dialing = gate.lock();
        if let Some(conn) = self.conns.lock().get(dest.rest()) {
            return Ok(conn.clone()); // another sender dialed while we waited
        }
        let stream = TcpStream::connect(dest.rest())
            .map_err(|e| PtError::Unreachable(format!("{dest}: {e}")))?;
        stream.set_nodelay(true)?;
        let mut s = stream.try_clone()?;
        s.write_all(format!("{HELLO_PREFIX}{}\n", self.self_addr).as_bytes())?;
        let conn = Arc::new(Mutex::new(stream));
        self.conns
            .lock()
            .insert(dest.rest().to_string(), conn.clone());
        Ok(conn)
    }

    /// Connects to this transport's own listener. A wildcard listen
    /// address is dialed over loopback.
    fn wake_listener(&self) -> std::io::Result<TcpStream> {
        let mut addr = self.listener.local_addr()?;
        if addr.ip().is_unspecified() {
            addr.set_ip(match addr {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        TcpStream::connect(addr)
    }

    /// Reads frames off one accepted connection until EOF/stop.
    ///
    /// Reads are fully **blocking** — zero CPU while the link is idle.
    /// `stop` unblocks them by shutting the socket down (the clone the
    /// accept loop kept). Every post-hello exit surfaces the peer via
    /// `take_down_peers`, and protocol/pool failures additionally
    /// count in `pt.tcp.errors` instead of vanishing silently.
    fn reader_loop(
        mut stream: TcpStream,
        alloc: DynAllocator,
        sink: IngestSink,
        stopped: Arc<AtomicBool>,
        counters: Arc<PtCounters>,
        down: Arc<Mutex<Vec<PeerAddr>>>,
    ) {
        // Hello line first. Pre-hello failures are anonymous (we don't
        // know the peer yet): just drop the connection.
        let mut hello = Vec::new();
        let mut byte = [0u8; 1];
        loop {
            match stream.read(&mut byte) {
                Ok(0) => return,
                Ok(_) => {
                    if byte[0] == b'\n' {
                        break;
                    }
                    hello.push(byte[0]);
                    if hello.len() > 256 {
                        return; // not our protocol
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return,
            }
        }
        let hello = match String::from_utf8(hello) {
            Ok(h) => h,
            Err(_) => return,
        };
        let Some(peer_str) = hello.strip_prefix(HELLO_PREFIX) else {
            return;
        };
        let Ok(peer) = peer_str.trim().parse::<PeerAddr>() else {
            return;
        };

        // Exit bookkeeping: `abnormal` exits (corrupt stream, pool
        // exhaustion) count as receive errors; every exit while the
        // transport is live reports the peer dead so the link
        // supervisor reacts now, not at heartbeat timeout.
        let bail = |abnormal: bool| {
            if stopped.load(Ordering::Acquire) {
                return;
            }
            if abnormal {
                counters.on_recv_error();
            }
            down.lock().push(peer.clone());
        };

        // Frame loop: header first, then the declared remainder.
        let mut header = [0u8; HEADER_LEN];
        loop {
            let mut got = 0usize;
            while got < HEADER_LEN {
                match stream.read(&mut header[got..]) {
                    Ok(0) => return bail(false),
                    Ok(n) => got += n,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(_) => return bail(false),
                }
            }
            let words = u16::from_le_bytes([header[2], header[3]]) as usize;
            let total = words * 4;
            if !(HEADER_LEN..=MAX_FRAME).contains(&total) {
                return bail(true); // corrupt stream
            }
            let Ok(mut buf) = alloc.alloc(total) else {
                return bail(true); // pool exhausted
            };
            buf[..HEADER_LEN].copy_from_slice(&header);
            let mut off = HEADER_LEN;
            while off < total {
                match stream.read(&mut buf[off..total]) {
                    Ok(0) => return bail(false),
                    Ok(n) => off += n,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(_) => return bail(false),
                }
            }
            counters.on_recv(total);
            sink(buf, peer.clone());
        }
    }
}

impl PeerTransport for TcpPt {
    fn scheme(&self) -> &'static str {
        "tcp"
    }

    fn mode(&self) -> PtMode {
        PtMode::Task
    }

    fn send(&self, dest: &PeerAddr, frame: FrameBuf) -> Result<(), SendFailure> {
        if self.stopped.load(Ordering::Acquire) {
            self.counters.on_send_error();
            return Err(SendFailure::with_frame(PtError::Closed, frame));
        }
        let key = dest.rest().to_string();
        // Registry lock: lookup/insert only. The blocking write below
        // happens under the connection's own lock, so a stalled peer
        // never head-of-line-blocks sends to other peers.
        let cached = self.conns.lock().get(&key).cloned();
        let conn = match cached {
            Some(c) => c,
            None => match self.connect(dest) {
                Ok(conn) => conn,
                Err(e) => {
                    self.counters.on_send_error();
                    return Err(SendFailure::with_frame(e, frame));
                }
            },
        };
        let mut stream = conn.lock();
        match stream.write_all(&frame) {
            Ok(()) => {
                self.counters.on_send(frame.len());
                Ok(())
            }
            Err(e) => {
                // Drop the broken connection; the next send reconnects
                // on a fresh stream, so re-submitting this frame is
                // framing-safe even after a partial write (the peer's
                // reader abandons the corrupt tail of the old stream).
                let mut conns = self.conns.lock();
                if conns.get(&key).is_some_and(|c| Arc::ptr_eq(c, &conn)) {
                    conns.remove(&key);
                }
                self.counters.on_send_error();
                Err(SendFailure::with_frame(PtError::Io(e.to_string()), frame))
            }
        }
    }

    fn poll(&self) -> Option<(FrameBuf, PeerAddr)> {
        None // task mode only
    }

    fn start(&self, sink: IngestSink) -> Result<(), PtError> {
        let listener = self.listener.try_clone()?;
        let alloc = self.alloc.clone();
        let stopped = self.stopped.clone();
        let counters = self.counters.clone();
        let down = self.down.clone();
        let threads_in = self.readers.clone();
        let panics = self.panics.clone();
        let accept = std::thread::Builder::new()
            .name(format!("tcp-pt-accept-{}", self.self_addr.rest()))
            .spawn(move || {
                // Blocking accept: a fresh link is served the moment it
                // arrives and an idle listener costs nothing. `stop`
                // wakes it with a connection to itself.
                while let Ok((stream, _)) = listener.accept() {
                    // Held from the `stopped` check until the reader is
                    // registered: `stop` sets the flag and then shuts the
                    // registered readers' sockets down under this lock, so
                    // a reader is either registered in time to be woken or
                    // never started.
                    let mut readers = threads_in.lock();
                    if stopped.load(Ordering::Acquire) {
                        break;
                    }
                    let alloc = alloc.clone();
                    let sink = sink.clone();
                    let stopped = stopped.clone();
                    let counters = counters.clone();
                    let down = down.clone();
                    let sock = stream.try_clone().ok();
                    let h = std::thread::Builder::new()
                        .name("tcp-pt-reader".into())
                        .spawn(move || {
                            TcpPt::reader_loop(stream, alloc, sink, stopped, counters, down)
                        })
                        .expect("spawn reader");
                    // Reap finished readers so reconnect churn cannot grow
                    // the handle list without bound, harvesting any panics
                    // on the way.
                    let mut i = 0;
                    while i < readers.len() {
                        if readers[i].1.is_finished() {
                            let (_, done) = readers.swap_remove(i);
                            if done.join().is_err() {
                                panics.fetch_add(1, Ordering::Relaxed);
                            }
                        } else {
                            i += 1;
                        }
                    }
                    readers.push((sock, h));
                }
            })
            .map_err(|e| PtError::Io(e.to_string()))?;
        self.threads.lock().push(accept);
        Ok(())
    }

    fn stop(&self) {
        self.stopped.store(true, Ordering::Release);
        self.conns.lock().clear();
        // Readers block in `read`; shutting their sockets down is what
        // unblocks them (they poll no flag — idle readers burn no CPU).
        for (sock, _) in self.readers.lock().iter() {
            if let Some(s) = sock {
                let _ = s.shutdown(std::net::Shutdown::Both);
            }
        }
        // The accept thread blocks in `accept`; a connection to our own
        // listener is what unblocks it (it sees `stopped` and exits).
        let accept: Vec<_> = self.threads.lock().drain(..).collect();
        let woken = accept.is_empty() || self.wake_listener().is_ok();
        for t in accept {
            // Not woken (no socket to be had): leave the thread parked
            // in `accept` rather than hang `stop` on it.
            if woken && t.join().is_err() {
                self.panics.fetch_add(1, Ordering::Relaxed);
            }
        }
        for (_, t) in self.readers.lock().drain(..) {
            if t.join().is_err() {
                self.panics.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    fn take_panics(&self) -> u64 {
        self.panics.swap(0, Ordering::Relaxed)
    }

    fn counters(&self) -> Option<&PtCounters> {
        Some(&self.counters)
    }

    fn take_down_peers(&self) -> Vec<PeerAddr> {
        std::mem::take(&mut self.down.lock())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};
    use xdaq_i2o::{Message, Tid};
    use xdaq_mempool::TablePool;

    fn pool() -> DynAllocator {
        TablePool::with_defaults()
    }

    fn frame(payload: &[u8]) -> FrameBuf {
        let msg = Message::build_private(Tid::new(0x10).unwrap(), Tid::new(0x20).unwrap(), 1, 7)
            .payload(payload.to_vec())
            .finish();
        FrameBuf::from_bytes(&msg.encode_vec())
    }

    fn wait_for<T>(rx: &Mutex<Vec<T>>, n: usize) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while rx.lock().len() < n && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    #[test]
    fn frames_flow_between_two_tcp_pts() {
        let a = TcpPt::bind("127.0.0.1:0", pool()).unwrap();
        let b = TcpPt::bind("127.0.0.1:0", pool()).unwrap();
        let got_b: Arc<Mutex<Vec<(usize, String)>>> = Arc::new(Mutex::new(Vec::new()));
        let gb = got_b.clone();
        b.start(Arc::new(move |f, src| {
            gb.lock().push((f.len(), src.to_string()))
        }))
        .unwrap();
        a.start(Arc::new(|_, _| {})).unwrap();

        a.send(&b.addr(), frame(b"one")).unwrap();
        a.send(&b.addr(), frame(&[0u8; 1000])).unwrap();
        wait_for(&got_b, 2);
        let g = got_b.lock().clone();
        assert_eq!(g.len(), 2);
        // Source is A's canonical (listen) address, not the ephemeral
        // connection port.
        assert_eq!(g[0].1, a.addr().to_string());
        a.stop();
        b.stop();
    }

    #[test]
    fn reply_direction_uses_reverse_connection() {
        let a = TcpPt::bind("127.0.0.1:0", pool()).unwrap();
        let b = TcpPt::bind("127.0.0.1:0", pool()).unwrap();
        let got_a: Arc<Mutex<Vec<usize>>> = Arc::new(Mutex::new(Vec::new()));
        let ga = got_a.clone();
        a.start(Arc::new(move |f, _| ga.lock().push(f.len())))
            .unwrap();
        let got_b: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
        let gb = got_b.clone();
        b.start(Arc::new(move |_, src| gb.lock().push(src.to_string())))
            .unwrap();

        a.send(&b.addr(), frame(b"req")).unwrap();
        wait_for(&got_b, 1);
        // B replies to the canonical address it learned.
        let back: PeerAddr = got_b.lock()[0].parse().unwrap();
        b.send(&back, frame(b"rsp")).unwrap();
        wait_for(&got_a, 1);
        assert_eq!(got_a.lock().len(), 1);
        a.stop();
        b.stop();
    }

    /// A second `connect` to one destination must reuse the first
    /// connection. Dialing again and dropping the loser after its hello
    /// made the peer read hello-then-EOF and report this live sender
    /// down.
    #[test]
    fn a_second_connect_reuses_the_link_and_reports_no_peer_down() {
        let a = TcpPt::bind("127.0.0.1:0", pool()).unwrap();
        let b = TcpPt::bind("127.0.0.1:0", pool()).unwrap();
        let got: Arc<Mutex<Vec<usize>>> = Arc::new(Mutex::new(Vec::new()));
        let g = got.clone();
        b.start(Arc::new(move |f, _| g.lock().push(f.len())))
            .unwrap();
        a.start(Arc::new(|_, _| {})).unwrap();

        a.connect(&b.addr()).unwrap();
        a.connect(&b.addr()).unwrap();
        for _ in 0..3 {
            a.send(&b.addr(), frame(b"after")).unwrap();
        }
        wait_for(&got, 3);
        assert_eq!(got.lock().len(), 3);
        // A dropped duplicate would surface here within milliseconds.
        let quiet_until = Instant::now() + Duration::from_millis(300);
        while Instant::now() < quiet_until {
            assert_eq!(b.take_down_peers(), Vec::<PeerAddr>::new());
            std::thread::sleep(Duration::from_millis(10));
        }
        a.stop();
        b.stop();
    }

    /// A dial in progress to one peer does not hold up a dial to
    /// another: a dial to a black-holed peer blocks until the kernel
    /// gives up.
    #[test]
    fn a_slow_dial_holds_up_only_its_own_destination() {
        let a = TcpPt::bind("127.0.0.1:0", pool()).unwrap();
        let b = TcpPt::bind("127.0.0.1:0", pool()).unwrap();
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
        let sender = std::thread::spawn(move || done.send(a2.send(&dest, frame(b"x")).is_ok()));
        assert_eq!(sent.recv_timeout(Duration::from_secs(10)), Ok(true));
        sender.join().unwrap().unwrap();
        a.stop();
        b.stop();
    }

    #[test]
    fn unreachable_destination() {
        let a = TcpPt::bind("127.0.0.1:0", pool()).unwrap();
        // Port 1 is almost certainly closed.
        let dest: PeerAddr = "tcp://127.0.0.1:1".parse().unwrap();
        let err = a.send(&dest, frame(b"x")).unwrap_err();
        assert!(matches!(err.error, PtError::Unreachable(_)));
        assert!(err.frame.is_some(), "frame must come back for failover");
    }

    #[test]
    fn stop_is_idempotent_and_closes() {
        let a = TcpPt::bind("127.0.0.1:0", pool()).unwrap();
        a.start(Arc::new(|_, _| {})).unwrap();
        a.stop();
        a.stop();
        let err = a
            .send(&"tcp://127.0.0.1:9".parse().unwrap(), frame(b"x"))
            .unwrap_err();
        assert!(matches!(err.error, PtError::Closed));
    }

    /// Regression (issue 13): the accept thread used to poll a
    /// non-blocking listener and sleep 20 ms between polls, so the
    /// first frame on every fresh inbound link waited ~10 ms on average
    /// (200–400 ms over this loop). A blocking accept serves the link
    /// at once, and `stop` must still get an idle listener to exit.
    #[test]
    fn fresh_inbound_links_deliver_their_first_frame_at_once() {
        let b = TcpPt::bind("127.0.0.1:0", pool()).unwrap();
        let (tx, rx) = std::sync::mpsc::channel();
        b.start(Arc::new(move |f, _| tx.send(f.len()).unwrap()))
            .unwrap();

        let senders: Vec<_> = (0..20)
            .map(|_| TcpPt::bind("127.0.0.1:0", pool()).unwrap())
            .collect();
        let t0 = Instant::now();
        for a in &senders {
            a.send(&b.addr(), frame(b"first")).unwrap();
            rx.recv_timeout(Duration::from_secs(10))
                .expect("first frame on a fresh link");
        }
        let took = t0.elapsed();
        assert!(
            took < Duration::from_millis(100),
            "20 fresh links took {took:?}"
        );

        let idle = TcpPt::bind("127.0.0.1:0", pool()).unwrap();
        idle.start(Arc::new(|_, _| {})).unwrap();
        let t0 = Instant::now();
        idle.stop();
        assert!(t0.elapsed() < Duration::from_secs(1), "stop hung on accept");
        b.stop();
    }

    /// `stop` racing a link that connects at that very moment: the
    /// accept thread must either register the link's reader before
    /// `stop` shuts the readers' sockets down, or not start it at all —
    /// a reader started in between would never be woken and `stop`
    /// would hang joining it.
    #[test]
    fn stop_racing_a_fresh_inbound_link_does_not_hang() {
        for _ in 0..5000 {
            let a = TcpPt::bind("127.0.0.1:0", pool()).unwrap();
            let b = TcpPt::bind("127.0.0.1:0", pool()).unwrap();
            a.start(Arc::new(|_, _| {})).unwrap();
            b.send(&a.addr(), frame(b"hello")).unwrap();
            a.stop();
            b.stop();
        }
    }

    /// Regression (issue 9): a stalled peer must not head-of-line
    /// block sends to healthy peers. The old code held the global
    /// `conns` mutex across `write_all`, so one wedged connection
    /// serialized every sender behind it.
    #[test]
    fn stalled_peer_does_not_block_sends_to_other_peers() {
        // A "peer" that accepts and then never reads: the sender's
        // socket buffers fill and its write_all wedges.
        let stall = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let stall_addr: PeerAddr = format!("tcp://{}", stall.local_addr().unwrap())
            .parse()
            .unwrap();
        let keep: Arc<Mutex<Vec<TcpStream>>> = Arc::new(Mutex::new(Vec::new()));
        let k = keep.clone();
        std::thread::spawn(move || {
            while let Ok((s, _)) = stall.accept() {
                k.lock().push(s);
            }
        });

        let a = TcpPt::bind("127.0.0.1:0", pool()).unwrap();
        let healthy = TcpPt::bind("127.0.0.1:0", pool()).unwrap();
        let got: Arc<Mutex<Vec<usize>>> = Arc::new(Mutex::new(Vec::new()));
        let g = got.clone();
        healthy
            .start(Arc::new(move |f, _| g.lock().push(f.len())))
            .unwrap();

        let flooder = {
            let a = a.clone();
            std::thread::spawn(move || {
                for _ in 0..256 {
                    if a.send(&stall_addr, frame(&[0u8; 200_000])).is_err() {
                        break;
                    }
                }
            })
        };
        std::thread::sleep(Duration::from_millis(300)); // let it wedge
        assert!(!flooder.is_finished(), "flooder should be stuck writing");

        // With per-connection locks this completes immediately; with
        // one global lock it would queue behind the wedged write_all.
        let t0 = Instant::now();
        a.send(&healthy.addr(), frame(b"independent")).unwrap();
        assert!(
            t0.elapsed() < Duration::from_secs(2),
            "head-of-line blocked for {:?}",
            t0.elapsed()
        );
        wait_for(&got, 1);

        keep.lock().clear(); // RST the stalled link; flooder unwedges
        a.stop();
        let _ = flooder.join();
        healthy.stop();
    }

    fn reader_cpu_ticks() -> u64 {
        let mut total = 0;
        let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
            return 0;
        };
        for entry in tasks.flatten() {
            let Ok(stat) = std::fs::read_to_string(entry.path().join("stat")) else {
                continue;
            };
            // Fields: pid (comm) state ... utime=14 stime=15; comm may
            // hold spaces, so split after its closing paren.
            let (Some(open), Some(close)) = (stat.find('('), stat.rfind(')')) else {
                continue;
            };
            if !stat[open + 1..close].starts_with("tcp-pt-reader") {
                continue;
            }
            let rest: Vec<&str> = stat[close + 2..].split(' ').collect();
            total += rest
                .get(11)
                .and_then(|v| v.parse::<u64>().ok())
                .unwrap_or(0)
                + rest
                    .get(12)
                    .and_then(|v| v.parse::<u64>().ok())
                    .unwrap_or(0);
        }
        total
    }

    /// Regression (issue 9): idle connections must cost no reader
    /// CPU. The old loop spun on `continue` after every read timeout;
    /// the new one blocks in `read` until bytes arrive or `stop`
    /// shuts the socket down.
    #[test]
    fn idle_connections_burn_no_reader_cpu() {
        let a = TcpPt::bind("127.0.0.1:0", pool()).unwrap();
        let b = TcpPt::bind("127.0.0.1:0", pool()).unwrap();
        let got: Arc<Mutex<Vec<usize>>> = Arc::new(Mutex::new(Vec::new()));
        let g = got.clone();
        b.start(Arc::new(move |f, _| g.lock().push(f.len())))
            .unwrap();
        a.start(Arc::new(|_, _| {})).unwrap();
        a.send(&b.addr(), frame(b"warm")).unwrap();
        wait_for(&got, 1);

        let before = reader_cpu_ticks();
        std::thread::sleep(Duration::from_millis(1200));
        let delta = reader_cpu_ticks().saturating_sub(before);
        // A spinning reader burns ~120 ticks/core over this window; a
        // blocking one none. Slack covers other tests' readers that
        // share this process.
        assert!(delta <= 20, "idle readers burned {delta} ticks");
        a.stop();
        b.stop();
    }

    /// Regression (issue 9): reconnect churn must not leak reader
    /// JoinHandles, reader deaths must surface the peer through
    /// `take_down_peers`, and corrupt streams must count in
    /// `pt.tcp.errors` instead of tearing down silently.
    #[test]
    fn reconnect_churn_reaps_readers_and_surfaces_down_peers() {
        let b = TcpPt::bind("127.0.0.1:0", pool()).unwrap();
        b.start(Arc::new(|_, _| {})).unwrap();

        for i in 0..30 {
            let mut s = TcpStream::connect(b.addr().rest()).unwrap();
            s.write_all(format!("{HELLO_PREFIX}tcp://127.0.0.1:{}\n", 40_000 + i).as_bytes())
                .unwrap();
            drop(s); // EOF: reader exits, reports the peer down
        }
        let mut down: Vec<PeerAddr> = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(10);
        while down.len() < 30 && Instant::now() < deadline {
            down.extend(b.take_down_peers());
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(down.len(), 30, "every churned peer reported down");

        // Each new accept reaps finished readers; poke until the
        // handle list shrinks to just the live tail.
        let mut live = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let mut s = TcpStream::connect(b.addr().rest()).unwrap();
            s.write_all(format!("{HELLO_PREFIX}tcp://127.0.0.1:39999\n").as_bytes())
                .unwrap();
            live.push(s);
            std::thread::sleep(Duration::from_millis(20));
            if b.readers.lock().len() <= live.len() + 1 {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "readers never reaped: {} handles for {} live conns",
                b.readers.lock().len(),
                live.len()
            );
        }

        // Corrupt stream: an all-zero header (length word 0) is a
        // protocol violation — counted, and the peer reported down.
        let mut evil = TcpStream::connect(b.addr().rest()).unwrap();
        evil.write_all(format!("{HELLO_PREFIX}tcp://127.0.0.1:39998\n").as_bytes())
            .unwrap();
        evil.write_all(&[0u8; HEADER_LEN]).unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        while b.counters.recv_errors.load(Ordering::Relaxed) == 0 {
            assert!(Instant::now() < deadline, "corrupt stream never counted");
            std::thread::sleep(Duration::from_millis(5));
        }
        let down = b.take_down_peers();
        assert!(
            down.iter().any(|p| p.rest().ends_with(":39998")),
            "corrupt peer surfaced via take_down_peers, got {down:?}"
        );
        b.stop();
    }

    #[test]
    fn many_frames_back_to_back_survive_segmentation() {
        let a = TcpPt::bind("127.0.0.1:0", pool()).unwrap();
        let b = TcpPt::bind("127.0.0.1:0", pool()).unwrap();
        let got: Arc<Mutex<Vec<usize>>> = Arc::new(Mutex::new(Vec::new()));
        let g = got.clone();
        b.start(Arc::new(move |f, _| g.lock().push(f.len())))
            .unwrap();
        for i in 0..200usize {
            a.send(&b.addr(), frame(&vec![0xAA; i * 7 % 512])).unwrap();
        }
        wait_for(&got, 200);
        assert_eq!(got.lock().len(), 200);
        a.stop();
        b.stop();
    }
}
