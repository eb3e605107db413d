//! The Peer Transport Agent and the peer-transport interface.
//!
//! Paper §3.4/§4: *"The modules that take care of performing the actual
//! communication are designed as Device Driver Modules themselves. They
//! are just granted a special name: the Peer Transports that are
//! controlled by the Peer Transport Agent."* and *"Concerning Peer
//! Transports we distinguish two ways of operation. In polling mode,
//! the executive periodically scans all registered PTs for pending
//! data. In task mode each PT has its own thread of control, reporting
//! to the executive whenever data have arrived."*
//!
//! Paper §3.2 additionally promises *"fault tolerant behaviour"*. The
//! agent sends each frame once, down one route; recovery lives at the
//! two ends that can judge a loss: the event builder re-pulls what did
//! not arrive, and the link supervisor evicts a dead peer's routes so
//! the control plane can respawn and re-route it (DESIGN.md §8).

use crate::error::PtError;
use crate::fastmap::FastHasher;
use core::cmp::Ordering;
use core::fmt;
use core::hash::{Hash, Hasher};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::str::FromStr;
use std::sync::Arc;
use xdaq_i2o::Tid;
use xdaq_mempool::FrameBuf;
use xdaq_mon::{Counter, Registry};

/// A transport-agnostic peer address: `scheme://rest`.
///
/// The executive never interprets `rest`; each PT parses its own
/// format (paper §3.4's answer to the "Babylonic confusion" of address
/// formats — applications only ever see TiDs, addresses appear solely
/// in configuration data).
///
/// Cloning is one reference-count bump: every frame carries its
/// sender's address from the transport to ingest, so the strings are
/// shared, never copied. The hash is computed once, at construction:
/// [`Hash`] writes that one word, and [`Eq`] compares the handles
/// before it compares strings, so a table probe on the frame path
/// touches no string bytes unless two distinct handles meet. [`Ord`]
/// sorts by scheme, then rest.
#[derive(Clone)]
pub struct PeerAddr(Arc<AddrParts>);

struct AddrParts {
    scheme: Box<str>,
    rest: Box<str>,
    hash: u64,
}

impl PeerAddr {
    /// Builds an address from parts.
    pub fn new(scheme: &str, rest: &str) -> PeerAddr {
        let scheme: Box<str> = scheme.to_ascii_lowercase().into();
        let mut h = FastHasher::default();
        for part in [&*scheme, rest] {
            h.write(part.as_bytes());
            h.write_u64(part.len() as u64);
        }
        PeerAddr(Arc::new(AddrParts {
            scheme,
            rest: rest.into(),
            hash: h.finish(),
        }))
    }

    /// The transport selector.
    pub fn scheme(&self) -> &str {
        &self.0.scheme
    }

    /// The transport-specific part.
    pub fn rest(&self) -> &str {
        &self.0.rest
    }
}

impl PartialEq for PeerAddr {
    fn eq(&self, other: &PeerAddr) -> bool {
        let (a, b) = (&*self.0, &*other.0);
        Arc::ptr_eq(&self.0, &other.0)
            || (a.hash == b.hash && a.rest == b.rest && a.scheme == b.scheme)
    }
}

impl Eq for PeerAddr {}

impl Hash for PeerAddr {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.0.hash);
    }
}

impl PartialOrd for PeerAddr {
    fn partial_cmp(&self, other: &PeerAddr) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for PeerAddr {
    fn cmp(&self, other: &PeerAddr) -> Ordering {
        (self.scheme(), self.rest()).cmp(&(other.scheme(), other.rest()))
    }
}

impl fmt::Debug for PeerAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PeerAddr")
            .field("scheme", &self.scheme())
            .field("rest", &self.rest())
            .finish()
    }
}

impl FromStr for PeerAddr {
    type Err = PtError;

    fn from_str(s: &str) -> Result<PeerAddr, PtError> {
        let (scheme, rest) = s
            .split_once("://")
            .ok_or_else(|| PtError::BadAddress(s.to_string()))?;
        if scheme.is_empty() || rest.is_empty() {
            return Err(PtError::BadAddress(s.to_string()));
        }
        Ok(PeerAddr::new(scheme, rest))
    }
}

impl fmt::Display for PeerAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}://{}", self.scheme(), self.rest())
    }
}

/// How a PT is driven (paper §4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PtMode {
    /// The executive scans the PT inside its dispatch loop.
    Polling,
    /// The PT owns a thread and pushes frames through the ingest sink.
    Task,
}

/// Sink through which task-mode PTs (and tests) hand received frames to
/// the executive, together with the sender's **canonical** peer address
/// (its configured listen address, not an ephemeral one) so the
/// executive can create reply proxies that match configured routes.
pub type IngestSink = Arc<dyn Fn(FrameBuf, PeerAddr) + Send + Sync>;

/// A failed send, carrying the frame back when the transport did not
/// consume it.
///
/// A transport that refuses a frame it still holds hands it back, so
/// the caller decides its fate: dropping the failure recycles the pool
/// block at once. A transport that already committed the frame to the
/// wire (or moved it into a hardware FIFO it cannot take it back from)
/// reports [`SendFailure::consumed`].
#[derive(Debug)]
pub struct SendFailure {
    /// What went wrong.
    pub error: PtError,
    /// The untouched frame, when the transport can hand it back.
    pub frame: Option<FrameBuf>,
}

impl SendFailure {
    /// Failure with the frame handed back.
    pub fn with_frame(error: PtError, frame: FrameBuf) -> SendFailure {
        SendFailure {
            error,
            frame: Some(frame),
        }
    }

    /// Failure where the frame is gone (committed or unrecoverable).
    pub fn consumed(error: PtError) -> SendFailure {
        SendFailure { error, frame: None }
    }
}

impl From<PtError> for SendFailure {
    fn from(error: PtError) -> SendFailure {
        SendFailure::consumed(error)
    }
}

impl From<SendFailure> for PtError {
    fn from(f: SendFailure) -> PtError {
        f.error // dropping the frame recycles it into its pool
    }
}

impl From<SendFailure> for crate::error::ExecError {
    fn from(f: SendFailure) -> crate::error::ExecError {
        crate::error::ExecError::Transport(f.into())
    }
}

impl fmt::Display for SendFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({})",
            self.error,
            if self.frame.is_some() {
                "frame returned"
            } else {
                "frame consumed"
            }
        )
    }
}

/// The interface every peer transport implements.
///
/// A PT is an ordinary device (it gets a TiD and answers utility
/// messages through its DDM wrapper); this trait covers only the
/// data-plane hooks the PTA drives.
pub trait PeerTransport: Send + Sync {
    /// Address scheme served, e.g. `"xpt"`, `"gm"`, `"loop"`, `"shm"`.
    fn scheme(&self) -> &'static str;

    /// Operating mode.
    fn mode(&self) -> PtMode;

    /// Sends one encoded frame to a peer. On success the frame buffer
    /// is consumed (zero-copy hand-off to the wire); on failure the
    /// transport hands the frame back inside [`SendFailure`] whenever
    /// it is still intact.
    fn send(&self, dest: &PeerAddr, frame: FrameBuf) -> Result<(), SendFailure>;

    /// Polling mode: returns one received frame (with the sender's
    /// canonical address) if available. Task-mode PTs may return
    /// `None` unconditionally.
    fn poll(&self) -> Option<(FrameBuf, PeerAddr)>;

    /// Task mode: start the receive thread, delivering frames through
    /// `sink`. Polling-mode PTs ignore this.
    fn start(&self, sink: IngestSink) -> Result<(), PtError> {
        let _ = sink;
        Ok(())
    }

    /// Stop threads / close sockets. Must be idempotent.
    fn stop(&self);

    /// Runtime configuration hook; the PT's DDM forwards `ParamsSet`
    /// key/value pairs here (this is how `xcl faults` programs a
    /// `ChaosPt`), and stores them only when every key is taken. A
    /// transport without knobs refuses each key by name.
    fn configure(&self, key: &str, value: &str) -> Result<(), PtError> {
        let _ = value;
        Err(PtError::BadParam(format!(
            "the {} transport takes no key {key}",
            self.scheme()
        )))
    }

    /// Drains the count of task threads observed to have panicked
    /// (task-mode PTs count `JoinHandle::join` failures in `stop`).
    /// `Pta::stop_all` aggregates this into the `pt.task_panics`
    /// counter.
    fn take_panics(&self) -> u64 {
        0
    }

    /// Per-transport monitoring counters (frames/bytes sent and
    /// received, send errors), when the PT maintains them. The default
    /// keeps minimal transports and test doubles free of any
    /// instrumentation obligation.
    fn counters(&self) -> Option<&xdaq_mon::PtCounters> {
        None
    }

    /// Drains the canonical addresses of peers this transport has
    /// positively detected as dead (e.g. a shared-memory peer whose
    /// process vanished). Each death is reported exactly once. The
    /// executive forwards these to the link supervisor so the peer's
    /// routes are evicted at once instead of after heartbeat timeouts.
    fn take_down_peers(&self) -> Vec<PeerAddr> {
        Vec::new()
    }
}

struct PtEntry {
    tid: Tid,
    pt: Arc<dyn PeerTransport>,
}

/// Monitoring handles for the agent's fault-handling path.
#[derive(Clone, Default)]
struct PtaMetrics {
    send_failures: Counter,
    task_panics: Counter,
}

impl PtaMetrics {
    fn bound_to(registry: &Registry) -> PtaMetrics {
        PtaMetrics {
            send_failures: registry.counter("pta.send_failures"),
            task_panics: registry.counter("pt.task_panics"),
        }
    }
}

/// The Peer Transport Agent: owns all registered PTs and fans frames
/// out to them by address scheme.
#[derive(Default)]
pub struct Pta {
    entries: RwLock<Vec<PtEntry>>,
    metrics: RwLock<PtaMetrics>,
}

impl Pta {
    /// Empty agent with standalone (unregistered) counters.
    pub fn new() -> Pta {
        Pta::default()
    }

    /// Points the agent's fault counters (`pta.send_failures`,
    /// `pt.task_panics`) at the node's metric registry so they appear
    /// in `MonSnapshot` scrapes.
    pub fn bind_registry(&self, registry: &Registry) {
        *self.metrics.write() = PtaMetrics::bound_to(registry);
    }

    /// Registers a transport under the TiD the executive assigned to
    /// its DDM.
    pub fn register(&self, tid: Tid, pt: Arc<dyn PeerTransport>) {
        self.entries.write().push(PtEntry { tid, pt });
    }

    /// Unregisters (and stops) the transport with the given TiD.
    ///
    /// The transport is stopped after the entries lock is released:
    /// `stop` joins task threads, and one of them may be inside the
    /// ingest sink, sending through this agent.
    pub fn unregister(&self, tid: Tid) -> bool {
        let removed = {
            let mut entries = self.entries.write();
            let i = entries.iter().position(|e| e.tid == tid);
            i.map(|i| entries.remove(i))
        };
        let Some(e) = removed else {
            return false;
        };
        e.pt.stop();
        let panics = e.pt.take_panics();
        if panics > 0 {
            self.metrics.read().task_panics.add(panics);
        }
        true
    }

    /// Finds the transport serving `scheme`: the first registered.
    pub fn transport_for(&self, scheme: &str) -> Option<Arc<dyn PeerTransport>> {
        self.entries
            .read()
            .iter()
            .find(|e| e.pt.scheme() == scheme)
            .map(|e| e.pt.clone())
    }

    /// Every registered transport, in registration order: what the
    /// executive binds its peer routes to after a transport comes or
    /// goes.
    pub(crate) fn transports(&self) -> Vec<Arc<dyn PeerTransport>> {
        self.entries.read().iter().map(|e| e.pt.clone()).collect()
    }

    /// Sends a frame, once, via the transport serving `dest`'s scheme.
    /// A refusal counts in `pta.send_failures`, and dropping the
    /// failure recycles the frame's pool block; a scheme with no
    /// transport is [`PtError::Unreachable`] and counts nothing.
    pub fn send(&self, dest: &PeerAddr, frame: FrameBuf) -> Result<(), PtError> {
        let Some(pt) = self.transport_for(dest.scheme()) else {
            return Err(PtError::Unreachable(dest.to_string()));
        };
        self.send_via(&*pt, dest, frame)
    }

    /// [`Pta::send`] through a transport the caller already holds (a
    /// peer route binds one); a refusal counts the same way.
    pub fn send_via(
        &self,
        pt: &dyn PeerTransport,
        dest: &PeerAddr,
        frame: FrameBuf,
    ) -> Result<(), PtError> {
        pt.send(dest, frame).map_err(|fail| {
            self.metrics.read().send_failures.inc();
            fail.into()
        })
    }

    /// Polls every polling-mode PT once, invoking `f` per frame;
    /// returns the number of frames harvested.
    ///
    /// Paper §4 advises at most one polling-mode PT when low latency
    /// matters; the round-robin scan here is what makes a slow PT
    /// poison the loop — asserted by the PTMODE shape test in
    /// `tests/paper.rs` (`ptmode_slow_poller_poisons_loop_until_destroyed`).
    pub fn poll_all(&self, mut f: impl FnMut(FrameBuf, PeerAddr)) -> usize {
        let entries = self.entries.read();
        let mut n = 0;
        for e in entries.iter() {
            if e.pt.mode() == PtMode::Polling {
                while let Some((frame, src)) = e.pt.poll() {
                    f(frame, src);
                    n += 1;
                }
            }
        }
        n
    }

    /// Starts all task-mode PTs with the given sink.
    pub fn start_tasks(&self, sink: IngestSink) -> Result<(), PtError> {
        for e in self.entries.read().iter() {
            if e.pt.mode() == PtMode::Task {
                e.pt.start(sink.clone())?;
            }
        }
        Ok(())
    }

    /// Stops every PT, reaping task threads; threads that died by
    /// panic are counted into `pt.task_panics`.
    pub fn stop_all(&self) {
        for e in self.entries.read().iter() {
            e.pt.stop();
            let panics = e.pt.take_panics();
            if panics > 0 {
                self.metrics.read().task_panics.add(panics);
            }
        }
    }

    /// Current `pt.task_panics` count.
    pub fn task_panics(&self) -> u64 {
        self.metrics.read().task_panics.get()
    }

    /// Drains dead-peer reports from every transport (see
    /// [`PeerTransport::take_down_peers`]).
    pub fn take_down_peers(&self) -> Vec<PeerAddr> {
        let mut down = Vec::new();
        for e in self.entries.read().iter() {
            down.extend(e.pt.take_down_peers());
        }
        down
    }

    /// Monitoring counters of every instrumented PT, aggregated per
    /// scheme under the normalized `pt.<scheme>.sent/recv/errors`
    /// names (plus `.sent_bytes`/`.recv_bytes`).
    pub fn counters_value(&self) -> serde_json::Value {
        use std::sync::atomic::Ordering::Relaxed;
        let mut per_scheme: HashMap<&'static str, [u64; 5]> = HashMap::new();
        for e in self.entries.read().iter() {
            if let Some(c) = e.pt.counters() {
                let agg = per_scheme.entry(e.pt.scheme()).or_default();
                agg[0] += c.sent_frames.load(Relaxed);
                agg[1] += c.sent_bytes.load(Relaxed);
                agg[2] += c.recv_frames.load(Relaxed);
                agg[3] += c.recv_bytes.load(Relaxed);
                // `pt.<scheme>.errors` covers both directions: failed
                // sends and inbound frames discarded as corrupt.
                agg[4] += c.send_errors.load(Relaxed) + c.recv_errors.load(Relaxed);
            }
        }
        let mut map = serde_json::Map::new();
        for (scheme, agg) in per_scheme {
            map.insert(format!("pt.{scheme}.sent"), agg[0].into());
            map.insert(format!("pt.{scheme}.sent_bytes"), agg[1].into());
            map.insert(format!("pt.{scheme}.recv"), agg[2].into());
            map.insert(format!("pt.{scheme}.recv_bytes"), agg[3].into());
            map.insert(format!("pt.{scheme}.errors"), agg[4].into());
        }
        serde_json::Value::Object(map)
    }

    /// Zeroes the counters of every instrumented PT.
    pub fn reset_counters(&self) {
        for e in self.entries.read().iter() {
            if let Some(c) = e.pt.counters() {
                c.reset();
            }
        }
    }

    /// Registered transport count.
    pub fn len(&self) -> usize {
        self.entries.read().len()
    }

    /// True when no PTs are registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex;
    use std::time::Duration;
    use xdaq_mon::PtCounters;

    #[test]
    fn peer_addr_parsing() {
        let a: PeerAddr = "tcp://127.0.0.1:9000".parse().unwrap();
        assert_eq!(a.scheme(), "tcp");
        assert_eq!(a.rest(), "127.0.0.1:9000");
        assert_eq!(a.to_string(), "tcp://127.0.0.1:9000");
        assert!("nonsense".parse::<PeerAddr>().is_err());
        assert!("://x".parse::<PeerAddr>().is_err());
        assert!("tcp://".parse::<PeerAddr>().is_err());
    }

    #[test]
    fn scheme_case_insensitive() {
        let a: PeerAddr = "GM://1:0".parse().unwrap();
        assert_eq!(a.scheme(), "gm");
    }

    struct FakePt {
        mode: PtMode,
        scheme: &'static str,
        sent: Mutex<Vec<(PeerAddr, usize)>>,
        rx: Mutex<Vec<FrameBuf>>,
        /// Fail this many sends (returning the frame) before accepting.
        fail_first: std::sync::atomic::AtomicU64,
        stopped: std::sync::atomic::AtomicBool,
        /// Peers reported once through `take_down_peers`.
        down: Mutex<Vec<PeerAddr>>,
        counters: PtCounters,
    }

    impl FakePt {
        fn new(mode: PtMode) -> Arc<FakePt> {
            FakePt::with_scheme(mode, "fake")
        }

        fn with_scheme(mode: PtMode, scheme: &'static str) -> Arc<FakePt> {
            Arc::new(FakePt {
                mode,
                scheme,
                sent: Mutex::new(Vec::new()),
                rx: Mutex::new(Vec::new()),
                fail_first: std::sync::atomic::AtomicU64::new(0),
                stopped: std::sync::atomic::AtomicBool::new(false),
                down: Mutex::new(Vec::new()),
                counters: PtCounters::new(),
            })
        }
    }

    impl PeerTransport for FakePt {
        fn scheme(&self) -> &'static str {
            self.scheme
        }
        fn mode(&self) -> PtMode {
            self.mode
        }
        fn send(&self, dest: &PeerAddr, frame: FrameBuf) -> Result<(), SendFailure> {
            if self
                .fail_first
                .fetch_update(
                    std::sync::atomic::Ordering::SeqCst,
                    std::sync::atomic::Ordering::SeqCst,
                    |v| v.checked_sub(1),
                )
                .is_ok()
            {
                return Err(SendFailure::with_frame(
                    PtError::Unreachable(dest.to_string()),
                    frame,
                ));
            }
            self.counters.on_send(frame.len());
            self.sent.lock().push((dest.clone(), frame.len()));
            Ok(())
        }
        fn poll(&self) -> Option<(FrameBuf, PeerAddr)> {
            self.rx
                .lock()
                .pop()
                .map(|f| (f, PeerAddr::new("fake", "peer")))
        }
        fn stop(&self) {
            self.stopped
                .store(true, std::sync::atomic::Ordering::SeqCst);
        }
        fn counters(&self) -> Option<&PtCounters> {
            Some(&self.counters)
        }
        fn take_down_peers(&self) -> Vec<PeerAddr> {
            std::mem::take(&mut *self.down.lock())
        }
    }

    fn tid(v: u16) -> Tid {
        Tid::new(v).unwrap()
    }

    #[test]
    fn send_routes_by_scheme() {
        let pta = Pta::new();
        let pt = FakePt::new(PtMode::Polling);
        pta.register(tid(0x10), pt.clone());
        let dest: PeerAddr = "fake://somewhere".parse().unwrap();
        pta.send(&dest, FrameBuf::from_bytes(&[1, 2, 3])).unwrap();
        assert_eq!(pt.sent.lock().len(), 1);
        let missing: PeerAddr = "gone://x".parse().unwrap();
        assert!(matches!(
            pta.send(&missing, FrameBuf::from_bytes(&[0])),
            Err(PtError::Unreachable(_))
        ));
    }

    #[test]
    fn poll_all_harvests_polling_pts_only() {
        let pta = Pta::new();
        let polling = FakePt::new(PtMode::Polling);
        polling.rx.lock().push(FrameBuf::from_bytes(&[1]));
        polling.rx.lock().push(FrameBuf::from_bytes(&[2]));
        let task = FakePt::new(PtMode::Task);
        task.rx.lock().push(FrameBuf::from_bytes(&[3]));
        pta.register(tid(0x10), polling);
        pta.register(tid(0x11), task.clone());
        let mut got = Vec::new();
        let n = pta.poll_all(|f, _src| got.push(f.len()));
        assert_eq!(n, 2);
        assert_eq!(task.rx.lock().len(), 1, "task-mode PT not polled");
    }

    #[test]
    fn unregister_stops_pt() {
        let pta = Pta::new();
        let pt = FakePt::new(PtMode::Polling);
        pta.register(tid(0x10), pt.clone());
        assert!(pta.unregister(tid(0x10)));
        assert!(pt.stopped.load(std::sync::atomic::Ordering::SeqCst));
        assert!(!pta.unregister(tid(0x10)));
        assert!(pta.is_empty());
    }

    /// A task-mode transport whose `stop` joins a reader thread that,
    /// like an xpt/shm/GM reader inside the ingest sink, reaches back
    /// into the agent before it can exit.
    struct ReenteringPt {
        /// Dropped by `stop`, which wakes the reader.
        stop_signal: Mutex<Option<std::sync::mpsc::Sender<()>>>,
        reader: Mutex<Option<std::thread::JoinHandle<()>>>,
    }

    impl PeerTransport for ReenteringPt {
        fn scheme(&self) -> &'static str {
            "reenter"
        }
        fn mode(&self) -> PtMode {
            PtMode::Task
        }
        fn send(&self, _dest: &PeerAddr, _frame: FrameBuf) -> Result<(), SendFailure> {
            Ok(())
        }
        fn poll(&self) -> Option<(FrameBuf, PeerAddr)> {
            None
        }
        fn stop(&self) {
            self.stop_signal.lock().take();
            if let Some(reader) = self.reader.lock().take() {
                reader.join().expect("reader thread");
            }
        }
    }

    #[test]
    fn unregister_stops_the_pt_outside_the_entries_lock() {
        let pta = Arc::new(Pta::new());
        let (stop_signal, stopped) = std::sync::mpsc::channel::<()>();
        let reader = {
            let pta = pta.clone();
            std::thread::spawn(move || {
                let _ = stopped.recv();
                let _ = pta.len();
            })
        };
        let pt = ReenteringPt {
            stop_signal: Mutex::new(Some(stop_signal)),
            reader: Mutex::new(Some(reader)),
        };
        pta.register(tid(0x10), Arc::new(pt));
        let (done, unregistered) = std::sync::mpsc::channel();
        let driver = {
            let pta = pta.clone();
            std::thread::spawn(move || done.send(pta.unregister(tid(0x10))))
        };
        assert_eq!(
            unregistered.recv_timeout(Duration::from_secs(5)),
            Ok(true),
            "unregister hung: stop() joined a reader blocked on the entries lock"
        );
        driver.join().expect("driver thread").expect("result sent");
    }

    #[test]
    fn refused_send_is_counted_once_and_never_resent() {
        let registry = Registry::new();
        let pta = Pta::new();
        pta.bind_registry(&registry);
        let pt = FakePt::new(PtMode::Polling);
        pt.fail_first.store(2, std::sync::atomic::Ordering::SeqCst);
        pta.register(tid(0x10), pt.clone());
        let dest: PeerAddr = "fake://peer".parse().unwrap();
        assert!(matches!(
            pta.send(&dest, FrameBuf::from_bytes(&[9; 16])),
            Err(PtError::Unreachable(_))
        ));
        assert!(pt.sent.lock().is_empty());
        assert_eq!(
            pt.fail_first.load(std::sync::atomic::Ordering::SeqCst),
            1,
            "one attempt per frame"
        );
        assert_eq!(registry.counter("pta.send_failures").get(), 1);
        // A scheme without a transport is not a refusal.
        let missing: PeerAddr = "gone://x".parse().unwrap();
        assert!(pta.send(&missing, FrameBuf::from_bytes(&[0])).is_err());
        assert_eq!(registry.counter("pta.send_failures").get(), 1);
    }

    #[test]
    fn take_down_peers_drains_every_transport_once() {
        let pta = Pta::new();
        let a = FakePt::with_scheme(PtMode::Polling, "fake");
        let b = FakePt::with_scheme(PtMode::Polling, "live");
        a.down.lock().push("fake://one".parse().unwrap());
        b.down.lock().push("live://two".parse().unwrap());
        pta.register(tid(0x10), a);
        pta.register(tid(0x11), b);
        let mut peers = pta.take_down_peers();
        peers.sort_by_key(|p| p.to_string());
        assert_eq!(
            peers,
            vec![
                "fake://one".parse::<PeerAddr>().unwrap(),
                "live://two".parse().unwrap(),
            ]
        );
        assert!(pta.take_down_peers().is_empty(), "reported exactly once");
    }

    #[test]
    fn counters_value_uses_normalized_per_scheme_names() {
        let pta = Pta::new();
        let a = FakePt::with_scheme(PtMode::Polling, "fake");
        let b = FakePt::with_scheme(PtMode::Polling, "fake");
        pta.register(tid(0x10), a);
        pta.register(tid(0x11), b);
        pta.send(
            &"fake://x".parse().unwrap(),
            FrameBuf::from_bytes(&[0u8; 10]),
        )
        .unwrap();
        let v = pta.counters_value();
        // Both instances aggregate under one flat per-scheme set.
        assert_eq!(v["pt.fake.sent"].as_u64(), Some(1));
        assert_eq!(v["pt.fake.sent_bytes"].as_u64(), Some(10));
        assert_eq!(v["pt.fake.recv"].as_u64(), Some(0));
        assert_eq!(v["pt.fake.errors"].as_u64(), Some(0));
        assert!(v.get("pt.fake.sent_frames").is_none(), "old names gone");
    }
}
