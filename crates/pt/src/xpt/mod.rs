//! `xpt://` — the completion-based batched socket transport.
//!
//! Where `tcp://` issues one blocking `write_all`/`read` pair per
//! frame, `xpt://` is built around a **submission/completion**
//! abstraction, the software analogue of the paper's Myrinet user-level
//! messaging (send tokens, receive callbacks, OS bypass):
//!
//! * senders push pool-backed frames into a bounded per-link
//!   [`wire::SubQueue`] (the submission ring) and return immediately —
//!   no syscall, no blocking;
//! * one driver thread gathers every queued frame into a single
//!   vectored write per link ([`wire::OutQueue`] — a MORE-chained
//!   event leaves in one syscall) and retires frames as the kernel
//!   reports byte **completions**;
//! * inbound large frame bodies are read straight into pool blocks
//!   **donated** to the kernel by [`wire::RecvAssembler`];
//! * senders ring an eventfd **doorbell** only when the driver has
//!   advertised it is about to sleep, so back-to-back sends coalesce
//!   into zero wakeups (the `pt.xpt.doorbells` counter measures this).
//!
//! One [`epoll`-batch driver](epoll) implements the completion loop.
//! It speaks the exact `tcp://` wire protocol (`XDAQPT1` hello +
//! self-delimiting I2O frames), so the transport drops into the
//! existing retry/failover/credit machinery through
//! `Pta::send_failover_returning` unchanged.

pub mod wire;

mod epoll;

use parking_lot::Mutex;
use std::collections::HashMap;
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use xdaq_core::{IngestSink, PeerAddr, PeerTransport, PtError, PtMode, SendFailure};
use xdaq_mempool::{DynAllocator, FrameBuf};
use xdaq_mon::{Counter, Histogram, PtCounters, Registry};

use wire::{SubQueue, HELLO_PREFIX};

/// One link (outbound: cached per destination; inbound: per accept).
pub(crate) struct Conn {
    /// `conns` map key for outbound links; empty for inbound.
    pub(crate) key: String,
    pub(crate) stream: TcpStream,
    /// Canonical peer address: the dial address for outbound links,
    /// the hello-learned listen address for inbound ones.
    pub(crate) peer: Mutex<Option<PeerAddr>>,
    /// The submission ring senders push into.
    pub(crate) sub: Mutex<SubQueue>,
    pub(crate) dead: AtomicBool,
}

/// mon instruments, cloneable handles (all internally shared).
#[derive(Clone, Default)]
pub(crate) struct Metrics {
    /// Frames per gather batch.
    pub(crate) batch: Option<Histogram>,
    /// Doorbell rings actually issued (sends while the driver was
    /// awake coalesce into none).
    pub(crate) doorbells: Option<Counter>,
    /// Inbound frames whose body tail landed directly in pool memory.
    pub(crate) donations: Option<Counter>,
}

/// State shared between senders and the driver thread.
pub(crate) struct Shared {
    pub(crate) listener: TcpListener,
    pub(crate) self_addr: PeerAddr,
    pub(crate) alloc: DynAllocator,
    pub(crate) stopped: AtomicBool,
    /// Driver's "about to sleep" advertisement; see `ring_doorbell`.
    pub(crate) sleeping: AtomicBool,
    /// Eventfd the senders ring to wake a sleeping driver.
    pub(crate) doorbell: std::fs::File,
    /// Outbound links by destination `ip:port`.
    pub(crate) conns: Mutex<HashMap<String, Arc<Conn>>>,
    /// Freshly connected outbound links awaiting driver adoption.
    pub(crate) pending: Mutex<Vec<Arc<Conn>>>,
    /// Canonical addresses of positively-dead peers, drained by
    /// `take_down_peers`.
    pub(crate) down: Mutex<Vec<PeerAddr>>,
    pub(crate) counters: PtCounters,
    pub(crate) metrics: Mutex<Metrics>,
}

impl Shared {
    /// True when any submission ring has work the driver hasn't seen.
    pub(crate) fn has_pending_work(&self) -> bool {
        if !self.pending.lock().is_empty() {
            return true;
        }
        self.conns.lock().values().any(|c| !c.sub.lock().is_empty())
    }

    /// Marks a link dead and records the fallout: frames still in its
    /// submission ring are dropped (their pool blocks recycle on
    /// drop), the canonical peer is queued for `take_down_peers`, and
    /// abnormal teardowns count as receive errors.
    pub(crate) fn teardown(&self, conn: &Arc<Conn>, abnormal: bool) {
        if conn.dead.swap(true, Ordering::AcqRel) {
            return; // already torn down
        }
        conn.sub.lock().clear();
        if !conn.key.is_empty() {
            let mut conns = self.conns.lock();
            if conns.get(&conn.key).is_some_and(|c| Arc::ptr_eq(c, conn)) {
                conns.remove(&conn.key);
            }
        }
        if abnormal {
            self.counters.on_recv_error();
        }
        if !self.stopped.load(Ordering::Acquire) {
            if let Some(peer) = conn.peer.lock().clone() {
                self.down.lock().push(peer);
            }
        }
    }
}

/// The completion-based batched peer transport (task mode).
pub struct XptPt {
    shared: Arc<Shared>,
    threads: Mutex<Vec<std::thread::JoinHandle<()>>>,
    panics: AtomicU64,
}

impl XptPt {
    /// Binds a listener. `listen` is `ip:port`; port 0 picks a free
    /// port.
    pub fn bind(listen: &str, alloc: DynAllocator) -> Result<Arc<XptPt>, PtError> {
        if !xdaq_sys::supported() {
            return Err(PtError::Io("xpt: no raw-syscall backend here".into()));
        }
        let listener = TcpListener::bind(listen)?;
        listener.set_nonblocking(true)?;
        let actual = listener.local_addr()?;
        let doorbell = xdaq_sys::eventfd()
            .map_err(|e| PtError::Io(format!("xpt: eventfd failed (errno {e})")))?;
        use std::os::fd::FromRawFd;
        // SAFETY: fresh eventfd owned solely by this transport.
        let doorbell = unsafe { std::fs::File::from_raw_fd(doorbell) };

        Ok(Arc::new(XptPt {
            shared: Arc::new(Shared {
                listener,
                self_addr: PeerAddr::new("xpt", &actual.to_string()),
                alloc,
                stopped: AtomicBool::new(false),
                sleeping: AtomicBool::new(false),
                doorbell,
                conns: Mutex::new(HashMap::new()),
                pending: Mutex::new(Vec::new()),
                down: Mutex::new(Vec::new()),
                counters: PtCounters::new(),
                metrics: Mutex::new(Metrics::default()),
            }),
            threads: Mutex::new(Vec::new()),
            panics: AtomicU64::new(0),
        }))
    }

    /// This PT's canonical address.
    pub fn addr(&self) -> PeerAddr {
        self.shared.self_addr.clone()
    }

    /// Registers the transport's instruments: `pt.xpt.batch_frames`
    /// (gather batch size histogram), `pt.xpt.doorbells`,
    /// `pt.xpt.donations`. Call before `start`.
    pub fn bind_registry(&self, registry: &Registry) {
        *self.shared.metrics.lock() = Metrics {
            batch: Some(registry.histogram("pt.xpt.batch_frames")),
            doorbells: Some(registry.counter("pt.xpt.doorbells")),
            donations: Some(registry.counter("pt.xpt.donations")),
        };
    }

    /// Dials `dest`, performs the hello, and hands the link to the
    /// driver. Returns the cached link when another sender won the
    /// connect race.
    fn connect(&self, dest: &PeerAddr) -> Result<Arc<Conn>, PtError> {
        let stream = TcpStream::connect(dest.rest())
            .map_err(|e| PtError::Unreachable(format!("{dest}: {e}")))?;
        stream.set_nodelay(true)?;
        let mut s = stream.try_clone()?;
        s.write_all(format!("{HELLO_PREFIX}{}\n", self.shared.self_addr).as_bytes())?;
        stream.set_nonblocking(true)?;
        let conn = Arc::new(Conn {
            key: dest.rest().to_string(),
            stream,
            peer: Mutex::new(Some(dest.clone())),
            sub: Mutex::new(SubQueue::default()),
            dead: AtomicBool::new(false),
        });
        let mut conns = self.shared.conns.lock();
        if let Some(existing) = conns.get(&conn.key) {
            if !existing.dead.load(Ordering::Acquire) {
                return Ok(existing.clone()); // lost the race; ours drops
            }
        }
        conns.insert(conn.key.clone(), conn.clone());
        self.shared.pending.lock().push(conn.clone());
        Ok(conn)
    }

    /// Wakes the driver iff it advertised it is going to sleep. The
    /// SeqCst fence pairs with the driver's sleeping-flag store +
    /// recheck, making lost wakeups impossible (same protocol as the
    /// shm transport's doorbells).
    fn ring_doorbell(&self) {
        std::sync::atomic::fence(Ordering::SeqCst);
        if self.shared.sleeping.load(Ordering::SeqCst) {
            let _ = (&self.shared.doorbell).write_all(&1u64.to_ne_bytes());
            if let Some(c) = &self.shared.metrics.lock().doorbells {
                c.inc();
            }
        }
    }
}

impl PeerTransport for XptPt {
    fn scheme(&self) -> &'static str {
        "xpt"
    }

    fn mode(&self) -> PtMode {
        PtMode::Task
    }

    /// Submission only: enqueue into the link's ring and return. The
    /// wire write happens on the driver thread; `on_send` accounting
    /// follows the *completion*, not the submission. A full ring maps
    /// to `WouldBlock` with the frame handed back, composing with the
    /// PTA's retry/failover/credit machinery like any other
    /// backpressure signal.
    fn send(&self, dest: &PeerAddr, frame: FrameBuf) -> Result<(), SendFailure> {
        if self.shared.stopped.load(Ordering::Acquire) {
            self.shared.counters.on_send_error();
            return Err(SendFailure::with_frame(PtError::Closed, frame));
        }
        let cached = {
            let conns = self.shared.conns.lock();
            conns
                .get(dest.rest())
                .filter(|c| !c.dead.load(Ordering::Acquire))
                .cloned()
        };
        let conn = match cached {
            Some(c) => c,
            None => match self.connect(dest) {
                Ok(c) => c,
                Err(e) => {
                    self.shared.counters.on_send_error();
                    return Err(SendFailure::with_frame(e, frame));
                }
            },
        };
        if let Err(frame) = conn.sub.lock().push(frame) {
            self.shared.counters.on_send_error();
            return Err(SendFailure::with_frame(PtError::WouldBlock, frame));
        }
        self.ring_doorbell();
        Ok(())
    }

    fn poll(&self) -> Option<(FrameBuf, PeerAddr)> {
        None // task mode only
    }

    fn start(&self, sink: IngestSink) -> Result<(), PtError> {
        let shared = self.shared.clone();
        let driver = std::thread::Builder::new()
            .name(format!("xpt-driver-{}", self.shared.self_addr.rest()))
            .spawn(move || {
                if let Err(e) = epoll::run(shared, sink) {
                    // Surfaces through `stop` → `take_panics`.
                    panic!("xpt epoll driver failed: {e}");
                }
            })
            .map_err(|e| PtError::Io(e.to_string()))?;
        self.threads.lock().push(driver);
        Ok(())
    }

    fn stop(&self) {
        self.shared.stopped.store(true, Ordering::Release);
        let _ = (&self.shared.doorbell).write_all(&1u64.to_ne_bytes());
        for t in self.threads.lock().drain(..) {
            if t.join().is_err() {
                self.panics.fetch_add(1, Ordering::Relaxed);
            }
        }
        // Frames still queued anywhere recycle to their pools on drop.
        self.shared.conns.lock().clear();
        self.shared.pending.lock().clear();
    }

    fn take_panics(&self) -> u64 {
        self.panics.swap(0, Ordering::Relaxed)
    }

    fn counters(&self) -> Option<&PtCounters> {
        Some(&self.shared.counters)
    }

    fn take_down_peers(&self) -> Vec<PeerAddr> {
        std::mem::take(&mut self.shared.down.lock())
    }
}

#[cfg(test)]
mod tests;
