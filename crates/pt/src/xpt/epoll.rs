//! The completion driver: `epoll_wait` + batched `readv`/`writev`.
//!
//! One thread owns every link's reads, and every link's writes except
//! the inline ones senders make while the link is idle and the driver
//! sleeps. Each wakeup it (1) adopts freshly dialed links, (2) moves
//! submission rings into per-link egress queues and flushes them with
//! vectored writes until the socket pushes back, handing a link back
//! to its senders once its queue empties, (3) sleeps under the
//! doorbell-coalescing protocol, then (4) services readiness: accepts,
//! gather-writes, and reads that land large frame bodies directly in
//! donated pool blocks. On `stop` it (5) drains every ring one last
//! time and flushes for at most [`STOP_FLUSH`]. Once warm a wake-up
//! takes no heap allocation: the token list, the event list and the
//! gather list are buffers the driver keeps.

use super::wire::{Event, OutQueue, RecvAssembler, MAX_BATCH};
use super::{Conn, Metrics, Shared};
use std::collections::HashMap;
use std::io::{IoSlice, Read, Write};
use std::os::fd::AsRawFd;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};
use xdaq_core::IngestSink;

const TOKEN_LISTENER: u64 = 0;
const TOKEN_DOORBELL: u64 = 1;
/// Staging buffer for hello lines, headers and small frame bodies.
const SCRATCH: usize = 64 * 1024;
/// How long `stop` waits for accepted frames to reach the wire, so a
/// stalled peer cannot hang it.
pub(super) const STOP_FLUSH: Duration = Duration::from_secs(1);

/// Driver-private per-link state (no locks: single owner).
struct EConn {
    conn: Arc<Conn>,
    out: OutQueue,
    rasm: RecvAssembler,
    want_write: bool,
    donations_published: u64,
}

enum ReadOutcome {
    Open,
    /// Peer went away (EOF or socket error): report down, not corrupt.
    Eof,
    /// Protocol violation or pool exhaustion: count a receive error.
    Abnormal,
}

pub(super) fn run(shared: Arc<Shared>, sink: IngestSink) -> Result<(), String> {
    let ep = xdaq_sys::epoll_create().map_err(|e| format!("epoll_create: errno {e}"))?;
    use std::os::fd::FromRawFd;
    // SAFETY: fresh epoll fd owned by this driver; closed on drop.
    let _ep_owner = unsafe { std::fs::File::from_raw_fd(ep) };
    for (fd, token) in [
        (shared.listener.as_raw_fd(), TOKEN_LISTENER),
        (shared.doorbell.as_raw_fd(), TOKEN_DOORBELL),
    ] {
        xdaq_sys::epoll_ctl(ep, xdaq_sys::EPOLL_CTL_ADD, fd, xdaq_sys::EPOLLIN, token)
            .map_err(|e| format!("epoll_ctl add: errno {e}"))?;
    }

    let mut conns: HashMap<u64, EConn> = HashMap::new();
    let mut next_token: u64 = 2;
    let mut scratch = vec![0u8; SCRATCH];
    let mut events = [xdaq_sys::EpollEvent::default(); 64];
    let mut tokens: Vec<u64> = Vec::new();
    let mut evq: Vec<Event> = Vec::new();

    loop {
        for conn in shared.pending.lock().drain(..) {
            adopt(ep, &shared, &mut conns, &mut next_token, conn);
        }
        if shared.stopped.load(Ordering::Acquire) {
            break;
        }
        let metrics = shared.metrics.get();

        // Move submission rings to the wire.
        tokens.clear();
        tokens.extend(conns.keys());
        for &token in &tokens {
            let ec = conns.get_mut(&token).expect("token just listed");
            ec.conn.sub.lock().drain_into(&mut ec.out);
            if !ec.out.is_empty() && flush(ep, token, ec, &shared, metrics).is_err() {
                let ec = conns.remove(&token).expect("still present");
                teardown(ep, &shared, ec, false);
            }
        }

        // Sleep under the doorbell protocol: advertise, recheck, wait.
        // The nap count precedes the flag, which publishes it to senders.
        shared.naps.fetch_add(1, Ordering::Relaxed);
        shared.sleeping.store(true, Ordering::SeqCst);
        std::sync::atomic::fence(Ordering::SeqCst);
        if shared.has_pending_work() || shared.stopped.load(Ordering::Acquire) {
            shared.sleeping.store(false, Ordering::SeqCst);
            continue;
        }
        let n =
            xdaq_sys::epoll_wait(ep, &mut events, 100).map_err(|e| format!("epoll_wait: {e}"))?;
        shared.sleeping.store(false, Ordering::SeqCst);

        for ev in events.iter().take(n) {
            let ev = *ev; // copy out of the (packed on x86_64) array
            match ev.data {
                TOKEN_LISTENER => accept_all(ep, &shared, &mut conns, &mut next_token),
                TOKEN_DOORBELL => {
                    let mut b = [0u8; 8];
                    let _ = (&shared.doorbell).read(&mut b);
                }
                token => {
                    let Some(ec) = conns.get_mut(&token) else {
                        continue;
                    };
                    let mut outcome = ReadOutcome::Open;
                    if ev.events & (xdaq_sys::EPOLLIN | xdaq_sys::EPOLLERR | xdaq_sys::EPOLLHUP)
                        != 0
                    {
                        outcome = read_all(ec, &shared, &sink, &mut scratch, &mut evq, metrics);
                    }
                    let write_dead = matches!(outcome, ReadOutcome::Open)
                        && ev.events & xdaq_sys::EPOLLOUT != 0
                        && flush(ep, token, ec, &shared, metrics).is_err();
                    match (outcome, write_dead) {
                        (ReadOutcome::Open, false) => {}
                        (abnormal, _) => {
                            let ec = conns.remove(&token).expect("still present");
                            teardown(ep, &shared, ec, matches!(abnormal, ReadOutcome::Abnormal));
                        }
                    }
                }
            }
        }
    }

    finish(ep, &shared, conns, next_token);
    Ok(())
}

/// The transport is stopping and `send` refuses from now on. Frames it
/// accepted earlier still go to the wire: every ring is drained one
/// last time, then the egress queues are flushed for at most
/// [`STOP_FLUSH`]. Frames left unwritten then count as send errors.
fn finish(ep: i32, shared: &Arc<Shared>, mut conns: HashMap<u64, EConn>, mut next_token: u64) {
    // A dial racing `stop` lands in `pending` before this drain or is
    // refused (`XptPt::connect` checks `stopped` under that lock).
    for conn in shared.pending.lock().drain(..) {
        adopt(ep, shared, &mut conns, &mut next_token, conn);
    }
    // Only egress readiness wakes the flush below.
    for fd in [shared.listener.as_raw_fd(), shared.doorbell.as_raw_fd()] {
        let _ = xdaq_sys::epoll_ctl(ep, xdaq_sys::EPOLL_CTL_DEL, fd, 0, 0);
    }
    let tokens: Vec<u64> = conns.keys().copied().collect();
    for token in tokens {
        let ec = conns.get_mut(&token).expect("token just listed");
        {
            let mut sub = ec.conn.sub.lock();
            sub.drain_into(&mut ec.out);
            // Under the ring lock: a sender racing this gets its frame
            // back instead of queueing it on a ring nobody drains.
            ec.conn.dead.store(true, Ordering::Release);
        }
        if ec.out.is_empty() {
            let ec = conns.remove(&token).expect("still present");
            teardown(ep, shared, ec, false);
        } else {
            ec.want_write = true;
            let fd = ec.conn.stream.as_raw_fd();
            let _ = xdaq_sys::epoll_ctl(ep, xdaq_sys::EPOLL_CTL_MOD, fd, xdaq_sys::EPOLLOUT, token);
        }
    }

    let deadline = Instant::now() + STOP_FLUSH;
    let mut events = [xdaq_sys::EpollEvent::default(); 64];
    while !conns.is_empty() {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            break;
        }
        let ms = left.as_millis().clamp(1, i32::MAX as u128) as i32;
        let Ok(n) = xdaq_sys::epoll_wait(ep, &mut events, ms) else {
            break;
        };
        for ev in events.iter().take(n) {
            let ev = *ev; // copy out of the (packed on x86_64) array
            let token = ev.data;
            let Some(ec) = conns.get_mut(&token) else {
                continue;
            };
            let failed = ev.events & (xdaq_sys::EPOLLERR | xdaq_sys::EPOLLHUP) != 0
                || flush(ep, token, ec, shared, shared.metrics.get()).is_err();
            if failed || ec.out.is_empty() {
                let ec = conns.remove(&token).expect("still present");
                teardown(ep, shared, ec, false);
            }
        }
    }
    for (_, ec) in conns {
        teardown(ep, shared, ec, false);
    }
}

fn adopt(
    ep: i32,
    shared: &Arc<Shared>,
    conns: &mut HashMap<u64, EConn>,
    next_token: &mut u64,
    conn: Arc<Conn>,
) {
    let token = *next_token;
    *next_token += 1;
    if xdaq_sys::epoll_ctl(
        ep,
        xdaq_sys::EPOLL_CTL_ADD,
        conn.stream.as_raw_fd(),
        xdaq_sys::EPOLLIN,
        token,
    )
    .is_err()
    {
        shared.teardown(&conn, false);
        return;
    }
    conns.insert(
        token,
        EConn {
            conn,
            out: OutQueue::default(),
            rasm: RecvAssembler::new(shared.alloc.clone()),
            want_write: false,
            donations_published: 0,
        },
    );
}

fn accept_all(
    ep: i32,
    shared: &Arc<Shared>,
    conns: &mut HashMap<u64, EConn>,
    next_token: &mut u64,
) {
    while let Ok((stream, _)) = shared.listener.accept() {
        let _ = stream.set_nodelay(true);
        if stream.set_nonblocking(true).is_err() {
            continue;
        }
        let conn = Arc::new(Conn {
            key: String::new(),
            stream,
            peer: parking_lot::Mutex::new(None),
            sub: parking_lot::Mutex::new(Default::default()),
            dead: std::sync::atomic::AtomicBool::new(false),
        });
        adopt(ep, shared, conns, next_token, conn);
    }
}

/// Gather-writes the egress queue until empty or the socket pushes
/// back, retiring completed frames, then reconciles EPOLLOUT interest.
/// An emptied queue hands the link back to its senders.
fn flush(
    ep: i32,
    token: u64,
    ec: &mut EConn,
    shared: &Arc<Shared>,
    metrics: Option<&Metrics>,
) -> Result<(), ()> {
    loop {
        let mut iov = [IoSlice::new(&[]); MAX_BATCH];
        let batch = ec.out.slices(&mut iov);
        if batch == 0 {
            break;
        }
        match (&ec.conn.stream).write_vectored(&iov[..batch]) {
            Ok(0) => return Err(()),
            Ok(n) => {
                if let Some(m) = metrics {
                    m.batch.record(batch as u64);
                }
                ec.out.advance(n, |len| shared.counters.on_send(len));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return Err(()),
        }
    }
    let want = !ec.out.is_empty();
    if !want {
        ec.conn.sub.lock().flushed();
    }
    if want != ec.want_write {
        let evs = xdaq_sys::EPOLLIN | if want { xdaq_sys::EPOLLOUT } else { 0 };
        let _ = xdaq_sys::epoll_ctl(
            ep,
            xdaq_sys::EPOLL_CTL_MOD,
            ec.conn.stream.as_raw_fd(),
            evs,
            token,
        );
        ec.want_write = want;
    }
    Ok(())
}

/// Reads until the socket drains, steering large frame bodies into
/// donated pool blocks and everything else through staging memory.
/// `evq` is the driver's event list, empty on entry and on return.
fn read_all(
    ec: &mut EConn,
    shared: &Arc<Shared>,
    sink: &IngestSink,
    scratch: &mut [u8],
    evq: &mut Vec<Event>,
    metrics: Option<&Metrics>,
) -> ReadOutcome {
    let outcome = loop {
        let want = ec.rasm.direct_read_len();
        let res = if want > 0 {
            (&ec.conn.stream).read(ec.rasm.direct_buf())
        } else {
            (&ec.conn.stream).read(scratch)
        };
        match res {
            Ok(0) => break ReadOutcome::Eof,
            Ok(n) => {
                let parsed = if want > 0 {
                    ec.rasm.direct_advance(n, evq);
                    Ok(())
                } else {
                    ec.rasm.ingest(&scratch[..n], evq)
                };
                deliver(evq, ec, shared, sink);
                if parsed.is_err() {
                    break ReadOutcome::Abnormal;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break ReadOutcome::Open,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => break ReadOutcome::Eof,
        }
    };
    let donated = ec.rasm.donations();
    if donated > ec.donations_published {
        if let Some(m) = metrics {
            m.donations.add(donated - ec.donations_published);
        }
        ec.donations_published = donated;
    }
    outcome
}

fn deliver(evq: &mut Vec<Event>, ec: &mut EConn, shared: &Arc<Shared>, sink: &IngestSink) {
    for event in evq.drain(..) {
        match event {
            Event::Hello(addr) => {
                if let Ok(peer) = addr.parse() {
                    *ec.conn.peer.lock() = Some(peer);
                }
            }
            Event::Frame(frame) => {
                let peer = ec.conn.peer.lock().clone();
                if let Some(peer) = peer {
                    shared.counters.on_recv(frame.len());
                    sink(frame, peer);
                } else {
                    // Frame from a peer that never identified itself.
                    shared.counters.on_recv_error();
                }
            }
        }
    }
}

/// Retires a link. Frames still in its egress queue were accepted by
/// `send` and never completed, so they count as send errors.
fn teardown(ep: i32, shared: &Arc<Shared>, mut ec: EConn, abnormal: bool) {
    let lost = ec.out.clear() as u64;
    shared
        .counters
        .send_errors
        .fetch_add(lost, Ordering::Relaxed);
    let _ = xdaq_sys::epoll_ctl(
        ep,
        xdaq_sys::EPOLL_CTL_DEL,
        ec.conn.stream.as_raw_fd(),
        0,
        0,
    );
    shared.teardown(&ec.conn, abnormal);
    // EConn drop recycles the assembler's in-flight frame.
}
