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
//! Paper §3.2 additionally promises *"fault tolerant behaviour"*: the
//! agent here implements it on the send path with one
//! [`RetryPolicy`] (bounded attempts, exponential backoff with
//! deterministic jitter, per-frame deadline) and transport **failover**
//! — [`Pta::send_failover`] walks a chain of peer addresses, moving to
//! the next transport on a hard failure. Because transports hand the
//! frame back on failure ([`SendFailure`]), retries stay zero-copy.

use crate::clock::Clock;
use crate::credit::{self, CreditManager, FlowPolicy};
use crate::error::PtError;
use core::fmt;
use parking_lot::RwLock;
use std::collections::HashMap;
use std::str::FromStr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
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
/// shared, never copied.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PeerAddr(Arc<AddrParts>);

#[derive(PartialEq, Eq, Hash, PartialOrd, Ord)]
struct AddrParts {
    scheme: Box<str>,
    rest: Box<str>,
}

impl PeerAddr {
    /// Builds an address from parts.
    pub fn new(scheme: &str, rest: &str) -> PeerAddr {
        PeerAddr(Arc::new(AddrParts {
            scheme: scheme.to_ascii_lowercase().into(),
            rest: rest.into(),
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
/// Returning the buffer instead of dropping it is what makes bounded
/// retry and failover **zero-copy**: the PTA re-submits the very same
/// pool block to the next attempt or the next transport. A transport
/// that already committed the frame to the wire (or moved it into a
/// hardware FIFO it cannot take it back from) reports
/// [`SendFailure::consumed`] and the PTA gives up on that frame.
#[derive(Debug)]
pub struct SendFailure {
    /// What went wrong.
    pub error: PtError,
    /// The untouched frame, when the transport can hand it back.
    pub frame: Option<FrameBuf>,
}

impl SendFailure {
    /// Failure with the frame returned for retry.
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

/// Ceiling for the exponential backoff (a larger `base_backoff` is
/// its own ceiling).
pub const MAX_BACKOFF: Duration = Duration::from_millis(2);

/// Total budget for one frame across all attempts and failover hops.
/// It applies only to a retrying policy (`max_attempts > 1`), so a
/// single-attempt send never reads the clock.
pub const SEND_DEADLINE: Duration = Duration::from_secs(5);

/// Bounded-retry configuration, one per executive.
///
/// The default (`max_attempts = 1`, zero backoff) is exactly the
/// historical fire-and-forget behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Send attempts per transport in the failover chain (≥ 1).
    pub max_attempts: u32,
    /// First-retry backoff; doubles every further attempt up to
    /// [`MAX_BACKOFF`].
    pub base_backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 1,
            base_backoff: Duration::ZERO,
        }
    }
}

impl RetryPolicy {
    /// Nominal (pre-jitter) pause before retry number `retry` (1-based).
    ///
    /// Clamped end to end: the shift exponent is capped, and the
    /// `Duration` multiply saturates to the ceiling instead of
    /// panicking — `Duration * u32` aborts on overflow, which a large
    /// `base_backoff` at attempt ≥ 32 would otherwise hit.
    fn nominal_backoff(&self, retry: u32) -> Duration {
        if self.base_backoff.is_zero() {
            return Duration::ZERO;
        }
        let factor = 1u32 << retry.saturating_sub(1).min(16);
        let ceiling = MAX_BACKOFF.max(self.base_backoff);
        self.base_backoff
            .checked_mul(factor)
            .map_or(ceiling, |d| d.min(ceiling))
    }
}

/// The interface every peer transport implements.
///
/// A PT is an ordinary device (it gets a TiD and answers utility
/// messages through its DDM wrapper); this trait covers only the
/// data-plane hooks the PTA drives.
pub trait PeerTransport: Send + Sync {
    /// Address scheme served, e.g. `"tcp"`, `"gm"`, `"loop"`, `"pci"`.
    fn scheme(&self) -> &'static str;

    /// Operating mode.
    fn mode(&self) -> PtMode;

    /// Sends one encoded frame to a peer. On success the frame buffer
    /// is consumed (zero-copy hand-off to the wire); on failure the
    /// transport hands the frame back inside [`SendFailure`] whenever
    /// it is still intact, so the PTA can retry or fail over without
    /// copying.
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
    /// `ChaosPt`). Unknown keys are ignored by default.
    fn configure(&self, key: &str, value: &str) -> Result<(), PtError> {
        let _ = (key, value);
        Ok(())
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
    /// executive forwards these to the link supervisor so routes fail
    /// over immediately instead of waiting out heartbeat timeouts.
    fn take_down_peers(&self) -> Vec<PeerAddr> {
        Vec::new()
    }
}

struct PtEntry {
    tid: Tid,
    pt: Arc<dyn PeerTransport>,
}

/// Monitoring handles for the agent's fault-handling path.
#[derive(Clone)]
struct PtaMetrics {
    retries: Counter,
    failovers: Counter,
    send_failures: Counter,
    task_panics: Counter,
}

impl PtaMetrics {
    fn bound_to(registry: &Registry) -> PtaMetrics {
        PtaMetrics {
            retries: registry.counter("pta.retries"),
            failovers: registry.counter("pta.failovers"),
            send_failures: registry.counter("pta.send_failures"),
            task_panics: registry.counter("pt.task_panics"),
        }
    }
}

impl Default for PtaMetrics {
    fn default() -> PtaMetrics {
        PtaMetrics {
            retries: Counter::new(),
            failovers: Counter::new(),
            send_failures: Counter::new(),
            task_panics: Counter::new(),
        }
    }
}

/// The Peer Transport Agent: owns all registered PTs, fans frames out
/// to them by address scheme, and runs the retry/failover machinery.
#[derive(Default)]
pub struct Pta {
    entries: RwLock<Vec<PtEntry>>,
    /// The one retry policy, for every scheme and every hop
    /// (`ExecutiveConfig::retry`).
    policy: RwLock<RetryPolicy>,
    metrics: RwLock<PtaMetrics>,
    /// Link-level flow control, when the executive enabled it. The
    /// gate sits here — above every transport — so `tcp://`, `shm://`,
    /// `loop://` and `ChaosPt` wrappers are all metered identically.
    flow: RwLock<Option<Arc<CreditManager>>>,
    /// xorshift64* state for deterministic backoff jitter; never uses
    /// the wall clock, and every agent starts from the same seed, so a
    /// run's pause sequence is fixed.
    jitter: AtomicU64,
    /// Time source for retry deadlines, backoff pauses and credit
    /// waits. Wall by default; the executive installs its own clock so
    /// a simulated cluster's send-path pauses advance virtual time
    /// instead of blocking the discrete-event loop.
    clock: Clock,
}

impl Pta {
    /// Empty agent with standalone (unregistered) counters.
    pub fn new() -> Pta {
        let pta = Pta::default();
        pta.jitter.store(0x9E37_79B9_7F4A_7C15, Ordering::Relaxed);
        pta
    }

    /// Empty agent reading `clock` for retry/backoff/credit timing.
    pub fn with_clock(clock: Clock) -> Pta {
        let mut pta = Pta::new();
        pta.clock = clock;
        pta
    }

    /// The agent's time source.
    pub fn clock(&self) -> &Clock {
        &self.clock
    }

    /// Points the agent's fault counters (`pta.retries`,
    /// `pta.failovers`, `pta.send_failures`, `pt.task_panics`) at the
    /// node's metric registry so they appear in `MonSnapshot` scrapes.
    pub fn bind_registry(&self, registry: &Registry) {
        *self.metrics.write() = PtaMetrics::bound_to(registry);
    }

    /// Enables link-level credit metering on the send path: every
    /// private data frame must take a credit from `mgr` before it
    /// reaches a transport (DESIGN.md §13). Utility/executive frames
    /// bypass the gate entirely (the reserved control lane).
    pub fn bind_flow(&self, mgr: Arc<CreditManager>) {
        *self.flow.write() = Some(mgr);
    }

    /// The bound credit manager, if flow control is enabled.
    pub fn flow(&self) -> Option<Arc<CreditManager>> {
        self.flow.read().clone()
    }

    /// Installs the retry policy every send applies.
    pub fn set_retry_policy(&self, policy: RetryPolicy) {
        *self.policy.write() = policy;
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

    /// Finds the transport serving `scheme`.
    pub fn transport_for(&self, scheme: &str) -> Option<Arc<dyn PeerTransport>> {
        self.entries
            .read()
            .iter()
            .find(|e| e.pt.scheme() == scheme)
            .map(|e| e.pt.clone())
    }

    /// Next deterministic jitter sample (xorshift64*).
    fn jitter_sample(&self) -> u64 {
        let mut x = self.jitter.load(Ordering::Relaxed);
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.jitter.store(x, Ordering::Relaxed);
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Jittered pause before retry number `retry`: uniform in
    /// `[nominal/2, nominal]` ("equal jitter"), deterministic per seed.
    fn backoff(&self, policy: &RetryPolicy, retry: u32) -> Duration {
        let nominal = policy.nominal_backoff(retry);
        if nominal.is_zero() {
            return Duration::ZERO;
        }
        let half = nominal / 2;
        let spread = (nominal - half).as_nanos() as u64;
        let extra = if spread == 0 {
            0
        } else {
            self.jitter_sample() % (spread + 1)
        };
        half + Duration::from_nanos(extra)
    }

    /// Sends a frame via the scheme-matching transport, applying the
    /// [`RetryPolicy`].
    pub fn send(&self, dest: &PeerAddr, frame: FrameBuf) -> Result<(), PtError> {
        self.send_failover(std::slice::from_ref(dest), frame)
    }

    /// Sends a frame down a failover chain: the first address is the
    /// primary, the rest are alternates tried in order after the
    /// primary's retry budget is exhausted. Every hop applies the one
    /// [`RetryPolicy`]; a retrying policy bounds the whole frame by
    /// [`SEND_DEADLINE`]. Retries and failovers are counted in
    /// `pta.retries` / `pta.failovers`. Dropping the failure recycles
    /// the frame's pool block; use
    /// [`Pta::send_failover_returning`] to keep it.
    pub fn send_failover(&self, chain: &[PeerAddr], frame: FrameBuf) -> Result<(), PtError> {
        self.send_failover_returning(chain, frame)
            .map_err(|f| f.error)
    }

    /// [`Pta::send_failover`] with the frame handed back on failure
    /// whenever no transport consumed it.
    ///
    /// When flow control is bound ([`Pta::bind_flow`]), every private
    /// data frame takes one credit toward the hop before touching the
    /// transport. A dry lane applies the configured [`FlowPolicy`] —
    /// fail fast, or block up to a deadline waiting for a grant — and
    /// then falls through to the next hop in the chain (an alternate
    /// link has its own credit lane). Credits refund whenever the
    /// frame provably never reached the wire, so failed sends cannot
    /// leak window.
    ///
    /// Steady-state cost: the policy is read once per frame and the
    /// clock only when the policy retries (a credit wait times
    /// itself).
    pub fn send_failover_returning(
        &self,
        chain: &[PeerAddr],
        frame: FrameBuf,
    ) -> Result<(), SendFailure> {
        let policy = *self.policy.read();
        // `(started, budget)` of the whole frame, when bounded.
        let overall_deadline = (policy.max_attempts > 1).then(|| (self.clock.now(), SEND_DEADLINE));
        let expired = || match overall_deadline {
            Some((started, d)) => self.clock.since(started) >= d,
            None => false,
        };
        let meter = match self.flow.read().clone() {
            Some(mgr) if credit::is_data_frame(&frame) => {
                let pri = credit::frame_priority(&frame);
                Some((mgr, pri))
            }
            _ => None,
        };
        let mut frame = Some(frame);
        // The most recent failure; `None` until a hop has been tried,
        // so a send that succeeds builds no error value at all.
        let mut last: Option<PtError> = None;
        let give_up = |last: Option<PtError>| {
            last.unwrap_or_else(|| PtError::Unreachable("empty failover chain".to_string()))
        };
        let mut tried = 0usize;
        for dest in chain {
            let Some(pt) = self.transport_for(dest.scheme()) else {
                last = Some(PtError::Unreachable(dest.to_string()));
                continue;
            };
            tried += 1;
            if tried > 1 {
                self.metrics.read().failovers.inc();
            }
            let held = match &meter {
                Some((mgr, pri)) => {
                    if !self.acquire_credit(mgr, dest, *pri, overall_deadline) {
                        last = Some(PtError::CreditExhausted(dest.to_string()));
                        continue; // an alternate hop has its own lane
                    }
                    true
                }
                None => false,
            };
            let refund = || {
                if held {
                    if let Some((mgr, _)) = &meter {
                        mgr.refund(dest);
                    }
                }
            };
            for attempt in 1..=policy.max_attempts {
                let Some(f) = frame.take() else {
                    return Err(SendFailure::consumed(give_up(last)));
                };
                match pt.send(dest, f) {
                    Ok(()) => return Ok(()),
                    Err(fail) => {
                        self.metrics.read().send_failures.inc();
                        last = Some(fail.error);
                        frame = fail.frame;
                        if frame.is_none() {
                            // The transport consumed the frame; there
                            // is nothing left to retry or fail over.
                            // The credit stays spent: the frame may
                            // have reached the wire, and a lost one is
                            // reconciled by the next CreditSync.
                            return Err(SendFailure::consumed(give_up(last)));
                        }
                        if expired() {
                            refund();
                            return Err(SendFailure {
                                error: give_up(last),
                                frame: frame.take(),
                            });
                        }
                        if attempt < policy.max_attempts {
                            self.metrics.read().retries.inc();
                            let pause = self.backoff(&policy, attempt);
                            if !pause.is_zero() {
                                self.clock.sleep(pause);
                            }
                        }
                    }
                }
            }
            // Leaving this hop with the frame still in hand: nothing
            // reached the wire, so the hop's credit must not leak.
            refund();
            if expired() {
                return Err(SendFailure {
                    error: give_up(last),
                    frame: frame.take(),
                });
            }
        }
        Err(SendFailure {
            error: give_up(last),
            frame: frame.take(),
        })
    }

    /// Takes one credit toward `dest`, applying the flow policy. The
    /// blocking variant re-checks on a short spin — grants arrive on
    /// ingest threads — and gives up at its own deadline or the
    /// overall send deadline, whichever lands first.
    fn acquire_credit(
        &self,
        mgr: &CreditManager,
        dest: &PeerAddr,
        priority: u8,
        overall_deadline: Option<(Instant, Duration)>,
    ) -> bool {
        if mgr.try_acquire(dest, priority) {
            return true;
        }
        let FlowPolicy::Block { deadline } = mgr.config().policy else {
            mgr.counters().credit_failures.inc();
            return false;
        };
        mgr.counters().credit_waits.inc();
        let wait_started = self.clock.now();
        loop {
            // Under a virtual clock this "sleep" advances time, so a
            // grant that will never arrive burns through the deadline
            // in microseconds of wall time instead of really waiting.
            self.clock.sleep(Duration::from_micros(50));
            if mgr.try_acquire(dest, priority) {
                return true;
            }
            if self.clock.since(wait_started) >= deadline {
                break;
            }
            if let Some((started, d)) = overall_deadline {
                if self.clock.since(started) >= d {
                    break;
                }
            }
        }
        mgr.counters().credit_failures.inc();
        false
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

    /// Reorders a failover chain for locality: addresses whose scheme
    /// is `shm` (and served by a registered transport) move to the
    /// front, preserving relative order otherwise, so co-located peers
    /// take the zero-copy path and fall back to the network through
    /// the ordinary [`Pta::send_failover`] walk.
    pub fn reorder_for_locality(&self, chain: &mut [PeerAddr]) {
        if self.transport_for("shm").is_none() {
            return;
        }
        chain.sort_by_key(|a| usize::from(a.scheme() != "shm"));
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

    fn retrying(max_attempts: u32, base_backoff: Duration) -> RetryPolicy {
        RetryPolicy {
            max_attempts,
            base_backoff,
        }
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
    /// like a tcp/xpt/shm/GM reader inside the ingest sink, reaches back
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
    fn retry_policy_recovers_transient_failures() {
        let registry = Registry::new();
        let pta = Pta::new();
        pta.bind_registry(&registry);
        pta.set_retry_policy(retrying(4, Duration::ZERO));
        let pt = FakePt::new(PtMode::Polling);
        pt.fail_first.store(2, std::sync::atomic::Ordering::SeqCst);
        pta.register(tid(0x10), pt.clone());
        let dest: PeerAddr = "fake://peer".parse().unwrap();
        pta.send(&dest, FrameBuf::from_bytes(&[9; 16])).unwrap();
        assert_eq!(pt.sent.lock().len(), 1);
        assert_eq!(registry.counter("pta.retries").get(), 2);
        assert_eq!(registry.counter("pta.send_failures").get(), 2);
        assert_eq!(registry.counter("pta.failovers").get(), 0);
    }

    #[test]
    fn retry_budget_exhaustion_reports_last_error() {
        let pta = Pta::new();
        pta.set_retry_policy(retrying(3, Duration::ZERO));
        let pt = FakePt::new(PtMode::Polling);
        pt.fail_first
            .store(u64::MAX, std::sync::atomic::Ordering::SeqCst);
        pta.register(tid(0x10), pt.clone());
        let dest: PeerAddr = "fake://peer".parse().unwrap();
        assert!(matches!(
            pta.send(&dest, FrameBuf::from_bytes(&[1])),
            Err(PtError::Unreachable(_))
        ));
        assert!(pt.sent.lock().is_empty());
    }

    #[test]
    fn failover_chain_walks_to_next_scheme() {
        let registry = Registry::new();
        let pta = Pta::new();
        pta.bind_registry(&registry);
        let dead = FakePt::with_scheme(PtMode::Polling, "dead");
        dead.fail_first
            .store(u64::MAX, std::sync::atomic::Ordering::SeqCst);
        let live = FakePt::with_scheme(PtMode::Polling, "live");
        pta.register(tid(0x10), dead.clone());
        pta.register(tid(0x11), live.clone());
        let chain: Vec<PeerAddr> = vec![
            "dead://primary".parse().unwrap(),
            "live://secondary".parse().unwrap(),
        ];
        pta.send_failover(&chain, FrameBuf::from_bytes(&[7; 8]))
            .unwrap();
        assert!(dead.sent.lock().is_empty());
        assert_eq!(live.sent.lock().len(), 1);
        assert_eq!(registry.counter("pta.failovers").get(), 1);
    }

    #[test]
    fn failover_skips_missing_transport() {
        let pta = Pta::new();
        let live = FakePt::with_scheme(PtMode::Polling, "live");
        pta.register(tid(0x10), live.clone());
        let chain: Vec<PeerAddr> = vec![
            "ghost://nowhere".parse().unwrap(),
            "live://secondary".parse().unwrap(),
        ];
        pta.send_failover(&chain, FrameBuf::from_bytes(&[1]))
            .unwrap();
        assert_eq!(live.sent.lock().len(), 1);
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
    fn locality_reorder_prefers_shm_when_registered() {
        let pta = Pta::new();
        let chain_of = || -> Vec<PeerAddr> {
            vec![
                "tcp://a:1".parse().unwrap(),
                "shm:///dev/shm/x@b".parse().unwrap(),
                "gm://a:0".parse().unwrap(),
            ]
        };
        // No shm transport registered: chain untouched.
        let mut chain = chain_of();
        pta.reorder_for_locality(&mut chain);
        assert_eq!(chain, chain_of());
        pta.register(tid(0x10), FakePt::with_scheme(PtMode::Polling, "shm"));
        pta.reorder_for_locality(&mut chain);
        assert_eq!(chain[0].scheme(), "shm", "shm promoted to primary");
        // Stable for the rest: tcp stays ahead of gm.
        assert_eq!(chain[1].scheme(), "tcp");
        assert_eq!(chain[2].scheme(), "gm");
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

    #[test]
    fn backoff_saturates_at_high_attempt_counts() {
        // Attempt ≥ 32 used to overflow `Duration * u32` (a panic)
        // whenever base × 2^16 exceeded Duration::MAX; now the multiply
        // saturates to the ceiling.
        let huge = retrying(64, Duration::MAX / 2);
        for retry in [32u32, 48, u32::MAX] {
            assert_eq!(huge.nominal_backoff(retry), Duration::MAX / 2);
        }
        // A sane policy still clamps at MAX_BACKOFF, never above.
        let policy = retrying(64, Duration::from_micros(100));
        for retry in 1..=64 {
            let d = policy.nominal_backoff(retry);
            assert!(d <= MAX_BACKOFF, "attempt {retry}: {d:?}");
        }
        assert_eq!(policy.nominal_backoff(32), MAX_BACKOFF);
        // A base above MAX_BACKOFF is its own ceiling.
        let slow = retrying(40, Duration::from_millis(16));
        assert_eq!(slow.nominal_backoff(40), Duration::from_millis(16));
    }

    #[test]
    fn deterministic_jitter_sequence() {
        let policy = retrying(8, Duration::from_micros(100));
        let seq = || -> Vec<Duration> {
            let pta = Pta::new();
            (1..6).map(|r| pta.backoff(&policy, r)).collect()
        };
        assert_eq!(seq(), seq(), "every agent pauses the same sequence");
        for (i, d) in seq().iter().enumerate() {
            let nominal = policy.nominal_backoff(i as u32 + 1);
            assert!(*d >= nominal / 2 && *d <= nominal, "jitter out of band");
        }
        let pta = Pta::new();
        let pauses: Vec<Duration> = (0..8).map(|_| pta.backoff(&policy, 3)).collect();
        assert!(
            pauses.windows(2).any(|w| w[0] != w[1]),
            "jittered: {pauses:?}"
        );
    }
}
