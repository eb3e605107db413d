//! `xpt://` — the completion-based batched socket transport.
//!
//! Where `tcp://` issues one blocking `write_all`/`read` pair per
//! frame, `xpt://` is built around a **submission/completion**
//! abstraction, the software analogue of the paper's Myrinet user-level
//! messaging (send tokens, receive callbacks, OS bypass):
//!
//! * a sender whose link is idle while the driver sleeps writes the
//!   frame to the socket itself, one non-blocking `write`, the way a GM
//!   sender hands a frame straight to the NIC; whatever the kernel does
//!   not take goes to the driver;
//! * every other send pushes the pool-backed frame into a bounded
//!   per-link [`wire::SubQueue`] (the submission ring) and returns
//!   without blocking;
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
//! One epoll-batch driver (the private `epoll` module) implements the
//! completion loop.
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
use std::sync::{Arc, OnceLock};
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
    /// The submission ring senders push into. Its lock and `driven`
    /// flag also keep inline writes from overtaking the driver's.
    pub(crate) sub: Mutex<SubQueue>,
    pub(crate) dead: AtomicBool,
}

/// mon instruments, bound once by `XptPt::bind_registry`.
pub(crate) struct Metrics {
    /// Frames per gather batch.
    pub(crate) batch: Histogram,
    /// Doorbell rings actually issued (sends while the driver was
    /// awake coalesce into none).
    pub(crate) doorbells: Counter,
    /// Inbound frames whose body tail landed directly in pool memory.
    pub(crate) donations: Counter,
}

/// State shared between senders and the driver thread.
pub(crate) struct Shared {
    pub(crate) listener: TcpListener,
    pub(crate) self_addr: PeerAddr,
    pub(crate) alloc: DynAllocator,
    pub(crate) stopped: AtomicBool,
    /// Driver's "about to sleep" advertisement; see `ring_doorbell`.
    pub(crate) sleeping: AtomicBool,
    /// How many times the driver has gone to sleep. A link writes
    /// inline at most once per sleep (`SubQueue::claim_inline`).
    pub(crate) naps: AtomicU64,
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
    pub(crate) metrics: OnceLock<Metrics>,
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
        {
            // `dead` flips under the ring lock: a sender holding it
            // either queues before the ring is cleared or is refused.
            let mut sub = conn.sub.lock();
            if conn.dead.swap(true, Ordering::AcqRel) {
                return; // already torn down
            }
            sub.clear();
        }
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
    /// One gate per destination `ip:port`, held across a dial of it, so
    /// one destination gets one link and a slow dial blocks only the
    /// senders to that destination.
    dials: Mutex<HashMap<String, Arc<Mutex<()>>>>,
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
                naps: AtomicU64::new(0),
                doorbell,
                conns: Mutex::new(HashMap::new()),
                pending: Mutex::new(Vec::new()),
                down: Mutex::new(Vec::new()),
                counters: PtCounters::new(),
                metrics: OnceLock::new(),
            }),
            dials: Mutex::new(HashMap::new()),
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
    /// `pt.xpt.donations`. Call once, before `start`; later calls are
    /// ignored.
    pub fn bind_registry(&self, registry: &Registry) {
        let _ = self.shared.metrics.set(Metrics {
            batch: registry.histogram("pt.xpt.batch_frames"),
            doorbells: registry.counter("pt.xpt.doorbells"),
            donations: registry.counter("pt.xpt.donations"),
        });
    }

    /// The live link to `dest`, if one is cached.
    fn cached(&self, dest: &PeerAddr) -> Option<Arc<Conn>> {
        let conns = self.shared.conns.lock();
        conns
            .get(dest.rest())
            .filter(|c| !c.dead.load(Ordering::Acquire))
            .cloned()
    }

    /// Dials `dest`, performs the hello, and hands the link to the
    /// driver. Dials of one destination are serialised and the cache is
    /// checked again first: a second link to one peer would be dropped
    /// right after its hello, and the peer would read that EOF as this
    /// node dying.
    fn connect(&self, dest: &PeerAddr) -> Result<Arc<Conn>, PtError> {
        let gate = self
            .dials
            .lock()
            .entry(dest.rest().to_string())
            .or_default()
            .clone();
        let _dialing = gate.lock();
        if let Some(conn) = self.cached(dest) {
            return Ok(conn); // another sender dialed while we waited
        }
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
        self.shared
            .conns
            .lock()
            .insert(conn.key.clone(), conn.clone());
        self.shared.pending.lock().push(conn.clone());
        // The driver adopts the link now, not at its next wake-up: a
        // frame the caller then writes inline rings no doorbell.
        self.ring_doorbell();
        Ok(conn)
    }

    /// Hands `frame` to `conn`. On an idle link (`SubQueue::claim_inline`)
    /// with the driver asleep, the sender writes it to the socket
    /// itself, under the ring lock so bytes cannot overtake the
    /// driver's; the unwritten tail of a partial write, or the whole
    /// frame on `WouldBlock` or an error, goes to the driver instead.
    /// Everything else is queued for the driver.
    fn submit(&self, conn: &Conn, frame: FrameBuf) -> Result<(), SendFailure> {
        let mut sub = conn.sub.lock();
        if conn.dead.load(Ordering::Acquire) {
            drop(sub);
            self.shared.counters.on_send_error();
            let gone = PtError::Unreachable(format!("{}: link torn down", conn.key));
            return Err(SendFailure::with_frame(gone, frame));
        }
        // A sleeping driver has drained every link. `naps` is read after
        // the flag, so it names the sleep the flag advertised; it guards
        // no data, so `Relaxed` suffices.
        if self.shared.sleeping.load(Ordering::SeqCst)
            && sub.claim_inline(self.shared.naps.load(Ordering::Relaxed))
        {
            let written = (&conn.stream).write(&frame).unwrap_or(0);
            if written == frame.len() {
                drop(sub);
                self.shared.counters.on_send(written);
                return Ok(());
            }
            // The driver finishes the frame and meets any error itself.
            sub.push_tail(frame, written);
        } else if let Err(frame) = sub.push(frame) {
            drop(sub);
            self.shared.counters.on_send_error();
            return Err(SendFailure::with_frame(PtError::WouldBlock, frame));
        }
        drop(sub);
        self.ring_doorbell();
        Ok(())
    }

    /// Wakes the driver iff it advertised it is going to sleep. The
    /// SeqCst fence pairs with the driver's sleeping-flag store +
    /// recheck, making lost wakeups impossible (same protocol as the
    /// shm transport's doorbells).
    fn ring_doorbell(&self) {
        std::sync::atomic::fence(Ordering::SeqCst);
        if self.shared.sleeping.load(Ordering::SeqCst) {
            let _ = (&self.shared.doorbell).write_all(&1u64.to_ne_bytes());
            if let Some(m) = self.shared.metrics.get() {
                m.doorbells.inc();
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

    /// Never waits for the wire: an idle link is written inline,
    /// anything else is queued for the driver (see `submit`). `on_send` accounting
    /// follows the *completion*, not the submission. A full ring maps
    /// to `WouldBlock` with the frame handed back, composing with the
    /// PTA's retry/failover/credit machinery like any other
    /// backpressure signal.
    fn send(&self, dest: &PeerAddr, frame: FrameBuf) -> Result<(), SendFailure> {
        if self.shared.stopped.load(Ordering::Acquire) {
            self.shared.counters.on_send_error();
            return Err(SendFailure::with_frame(PtError::Closed, frame));
        }
        let conn = match self.cached(dest) {
            Some(c) => c,
            None => match self.connect(dest) {
                Ok(c) => c,
                Err(e) => {
                    self.shared.counters.on_send_error();
                    return Err(SendFailure::with_frame(e, frame));
                }
            },
        };
        self.submit(&conn, frame)
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
