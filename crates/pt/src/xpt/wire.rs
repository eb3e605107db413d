//! Pure submission/completion logic for the `xpt://` transport.
//!
//! Everything here is deterministic, lock-free single-owner state with
//! no I/O, so it can be modeled exhaustively by the property tests in
//! `tests/xpt_wire.rs`:
//!
//! * [`SubQueue`] — the bounded per-link **submission ring** senders
//!   push frames into (mutex-guarded by the caller). It also says
//!   whether the link is idle, so a sender may write a frame to the
//!   socket itself and queue only the tail the kernel did not take.
//! * [`OutQueue`] — the driver-private egress side: frames move here
//!   from the submission ring and are flattened into one `writev`
//!   gather batch; [`OutQueue::advance`] applies a (possibly partial)
//!   **completion** and recycles fully-sent frames.
//! * [`RecvAssembler`] — the ingress state machine. It parses the
//!   `XDAQPT1` hello and the I2O length word from a scratch buffer,
//!   then **donates** the remainder of the pool block to the kernel
//!   ([`RecvAssembler::direct_buf`]) so large frame bodies land
//!   directly in pool memory with zero extra copies.

use std::collections::VecDeque;
use std::io::IoSlice;
use xdaq_i2o::HEADER_LEN;
use xdaq_mempool::{DynAllocator, FrameBuf};

/// Largest wire frame: one pool block.
pub const MAX_FRAME: usize = xdaq_mempool::MAX_BLOCK_LEN;
/// Hello line prefix: a dialing side names its listen address first.
pub const HELLO_PREFIX: &str = "XDAQPT1 ";
/// Longest accepted hello line, including the terminating newline.
pub const MAX_HELLO: usize = 256;
/// Max frames flattened into one gather batch (well under `UIO_MAXIOV`).
pub const MAX_BATCH: usize = 64;
/// Body bytes remaining at or above which the assembler asks the driver
/// to read straight into the pool block instead of staging memory.
pub const DIRECT_MIN: usize = 1024;

/// Bounded frame submission ring for one link.
///
/// `push` fails (returning the frame) once either cap is hit; the
/// caller maps that to `WouldBlock`, which the sender sees exactly
/// like a full socket.
///
/// The ring also records who owns the link's byte stream. While the
/// driver's [`OutQueue`] holds unwritten bytes for the link it is
/// `driven`; otherwise, with the ring empty, a sender holding the lock
/// may write a frame to the socket itself ([`SubQueue::claim_inline`]).
pub struct SubQueue {
    frames: VecDeque<FrameBuf>,
    bytes: usize,
    /// Bytes of the head frame a sender already wrote inline.
    head_off: usize,
    /// Set when the driver drains a non-empty ring, cleared once its
    /// egress queue is empty again and the ring still is.
    driven: bool,
    /// Driver sleep count at this link's last inline write.
    inline_nap: Option<u64>,
}

/// Submission ring caps: frames and total queued bytes.
pub const SUB_MAX_FRAMES: usize = 1024;
pub const SUB_MAX_BYTES: usize = 4 << 20;

/// An empty ring with room for one gather batch, so the first frames a
/// link queues, however late in its life, allocate nothing.
impl Default for SubQueue {
    fn default() -> SubQueue {
        SubQueue {
            frames: VecDeque::with_capacity(MAX_BATCH),
            bytes: 0,
            head_off: 0,
            driven: false,
            inline_nap: None,
        }
    }
}

impl SubQueue {
    pub fn push(&mut self, frame: FrameBuf) -> Result<(), FrameBuf> {
        if self.frames.len() >= SUB_MAX_FRAMES || self.bytes + frame.len() > SUB_MAX_BYTES {
            return Err(frame);
        }
        self.bytes += frame.len();
        self.frames.push_back(frame);
        Ok(())
    }

    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// Whether a sender may write the next frame to the socket itself:
    /// nothing is queued here, the driver holds no unwritten bytes for
    /// the link, and the link has not written inline during the
    /// driver's sleep number `nap`. Records `nap` when it answers yes.
    pub fn claim_inline(&mut self, nap: u64) -> bool {
        let ok = self.frames.is_empty() && !self.driven && self.inline_nap != Some(nap);
        if ok {
            self.inline_nap = Some(nap);
        }
        ok
    }

    /// Queues what an inline write left unsent: `frame` with its first
    /// `written` bytes already on the wire becomes the ring's head.
    /// Only valid right after [`SubQueue::claim_inline`] said yes.
    pub fn push_tail(&mut self, frame: FrameBuf, written: usize) {
        debug_assert!(self.frames.is_empty() && written < frame.len());
        self.head_off = written;
        self.bytes = frame.len();
        self.frames.push_back(frame);
    }

    /// Moves every queued frame into the driver's egress queue, which
    /// owns the link's byte stream from then on.
    pub fn drain_into(&mut self, out: &mut OutQueue) {
        if self.frames.is_empty() {
            return;
        }
        if self.head_off > 0 {
            // A partial inline write only happens on an idle link, so
            // the egress queue cannot hold bytes ahead of this tail.
            assert!(out.is_empty(), "inline tail behind driver bytes");
            out.head_off = self.head_off;
            self.head_off = 0;
        }
        for f in self.frames.drain(..) {
            out.push(f);
        }
        self.bytes = 0;
        self.driven = true;
    }

    /// The driver's egress queue for this link just emptied: hand the
    /// stream back to senders unless more frames are already queued.
    pub fn flushed(&mut self) {
        if self.frames.is_empty() {
            self.driven = false;
        }
    }

    /// Drops all queued frames (teardown); returns how many were lost.
    pub fn clear(&mut self) -> usize {
        let n = self.frames.len();
        self.frames.clear();
        self.bytes = 0;
        self.head_off = 0;
        n
    }
}

/// Driver-side egress queue: accepted submissions waiting on the wire.
///
/// The head frame may be partially written (`head_off`); completions
/// arrive as byte counts via [`OutQueue::advance`].
pub struct OutQueue {
    frames: VecDeque<FrameBuf>,
    head_off: usize,
}

/// Empty, with room for one gather batch (see [`SubQueue`]'s default).
impl Default for OutQueue {
    fn default() -> OutQueue {
        OutQueue {
            frames: VecDeque::with_capacity(MAX_BATCH),
            head_off: 0,
        }
    }
}

impl OutQueue {
    pub fn push(&mut self, frame: FrameBuf) {
        debug_assert!(!frame.is_empty());
        self.frames.push_back(frame);
    }

    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// Unwritten bytes across all queued frames.
    pub fn pending_bytes(&self) -> usize {
        self.frames.iter().map(|f| f.len()).sum::<usize>() - self.head_off
    }

    /// Fills `iov` with the gather list for the next `writev`: up to
    /// `iov.len()` frames (the driver passes [`MAX_BATCH`] slots), the
    /// first adjusted for the partial-write offset. Returns how many
    /// slots it filled; the caller's array keeps the driver off the
    /// heap.
    pub fn slices<'a>(&'a self, iov: &mut [IoSlice<'a>]) -> usize {
        let mut n = 0;
        for (slot, f) in iov.iter_mut().zip(&self.frames) {
            *slot = if n == 0 && self.head_off > 0 {
                IoSlice::new(&f[self.head_off..])
            } else {
                f.io_slice()
            };
            n += 1;
        }
        n
    }

    /// Applies a completion of `n` written bytes: recycles every frame
    /// the wire fully consumed and tracks the partial offset into the
    /// new head. Calls `done` with the length of each completed frame,
    /// in order (for `on_send` accounting).
    pub fn advance(&mut self, mut n: usize, mut done: impl FnMut(usize)) {
        while n > 0 {
            let head_len = self.frames[0].len() - self.head_off;
            if n >= head_len {
                n -= head_len;
                let f = self.frames.pop_front().expect("headed by loop guard");
                done(f.len());
                self.head_off = 0;
            } else {
                self.head_off += n;
                n = 0;
            }
        }
    }

    /// Drops all queued frames (teardown); returns how many were lost.
    pub fn clear(&mut self) -> usize {
        let n = self.frames.len();
        self.frames.clear();
        self.head_off = 0;
        n
    }
}

/// Something the assembler produced from inbound bytes.
pub enum Event {
    /// Peer identified itself; payload is the canonical address text.
    Hello(String),
    /// One complete inbound frame, already in pool memory.
    Frame(FrameBuf),
}

enum RecvState {
    Hello(Vec<u8>),
    Header { buf: [u8; HEADER_LEN], have: usize },
    Body { frame: FrameBuf, have: usize },
}

/// Ingress state machine: hello line, then self-delimiting I2O frames.
pub struct RecvAssembler {
    alloc: DynAllocator,
    state: RecvState,
    /// Frames whose body tail was read directly into the pool block.
    donations: u64,
}

impl RecvAssembler {
    pub fn new(alloc: DynAllocator) -> RecvAssembler {
        RecvAssembler {
            alloc,
            state: RecvState::Hello(Vec::new()),
            donations: 0,
        }
    }

    pub fn donations(&self) -> u64 {
        self.donations
    }

    /// Bytes the kernel may write straight into the in-flight frame.
    /// Zero means "read into scratch and call [`RecvAssembler::ingest`]".
    pub fn direct_read_len(&self) -> usize {
        match &self.state {
            RecvState::Body { frame, have } if frame.len() - have >= DIRECT_MIN => {
                frame.len() - have
            }
            _ => 0,
        }
    }

    /// The donated destination for a direct read. Only valid when
    /// [`RecvAssembler::direct_read_len`] returned nonzero; the caller
    /// must not touch the assembler while the kernel owns this slice.
    pub fn direct_buf(&mut self) -> &mut [u8] {
        match &mut self.state {
            RecvState::Body { frame, have } => {
                // Clamp to the frame's valid length: `raw_mut` exposes
                // the block's full capacity, and reading past the
                // frame would swallow the next frame's header.
                let (have, len) = (*have, frame.len());
                &mut frame.raw_mut()[have..len]
            }
            _ => unreachable!("direct_buf outside Body state"),
        }
    }

    /// Records `n` bytes the kernel deposited via [`RecvAssembler::direct_buf`].
    pub fn direct_advance(&mut self, n: usize, events: &mut Vec<Event>) {
        match &mut self.state {
            RecvState::Body { frame, have } => {
                debug_assert!(*have + n <= frame.len());
                *have += n;
                if *have == frame.len() {
                    self.donations += 1;
                    let frame = match std::mem::replace(&mut self.state, fresh_header()) {
                        RecvState::Body { frame, .. } => frame,
                        _ => unreachable!(),
                    };
                    events.push(Event::Frame(frame));
                }
            }
            _ => unreachable!("direct_advance outside Body state"),
        }
    }

    /// Feeds `chunk` (read into staging memory) through the state
    /// machine, appending produced events. Errors are fatal for the
    /// connection (corrupt stream or pool exhaustion).
    pub fn ingest(&mut self, mut chunk: &[u8], events: &mut Vec<Event>) -> Result<(), String> {
        while !chunk.is_empty() {
            match &mut self.state {
                RecvState::Hello(buf) => {
                    let nl = chunk.iter().position(|&b| b == b'\n');
                    let take = nl.map_or(chunk.len(), |i| i + 1);
                    buf.extend_from_slice(&chunk[..take]);
                    if buf.len() > MAX_HELLO {
                        return Err("hello line too long".into());
                    }
                    chunk = &chunk[take..];
                    if nl.is_some() {
                        let line = String::from_utf8_lossy(&buf[..buf.len() - 1]);
                        let addr = line
                            .strip_prefix(HELLO_PREFIX)
                            .ok_or_else(|| format!("bad hello {line:?}"))?
                            .trim()
                            .to_string();
                        events.push(Event::Hello(addr));
                        self.state = fresh_header();
                    }
                }
                RecvState::Header { buf, have } => {
                    let take = (HEADER_LEN - *have).min(chunk.len());
                    buf[*have..*have + take].copy_from_slice(&chunk[..take]);
                    *have += take;
                    chunk = &chunk[take..];
                    if *have == HEADER_LEN {
                        let words = u16::from_le_bytes([buf[2], buf[3]]) as usize;
                        let total = words * 4;
                        if !(HEADER_LEN..=MAX_FRAME).contains(&total) {
                            return Err(format!("corrupt frame length {total}"));
                        }
                        let mut frame = self
                            .alloc
                            .alloc(total)
                            .map_err(|e| format!("inbound alloc: {e}"))?;
                        frame.set_len(total);
                        frame.raw_mut()[..HEADER_LEN].copy_from_slice(buf);
                        if total == HEADER_LEN {
                            // A header-only frame is complete now, not
                            // when the next frame's bytes arrive.
                            events.push(Event::Frame(frame));
                            self.state = fresh_header();
                        } else {
                            self.state = RecvState::Body {
                                frame,
                                have: HEADER_LEN,
                            };
                        }
                    }
                }
                RecvState::Body { frame, have } => {
                    let take = (frame.len() - *have).min(chunk.len());
                    frame.raw_mut()[*have..*have + take].copy_from_slice(&chunk[..take]);
                    *have += take;
                    chunk = &chunk[take..];
                    if *have == frame.len() {
                        let frame = match std::mem::replace(&mut self.state, fresh_header()) {
                            RecvState::Body { frame, .. } => frame,
                            _ => unreachable!(),
                        };
                        events.push(Event::Frame(frame));
                    }
                }
            }
        }
        Ok(())
    }
}

fn fresh_header() -> RecvState {
    RecvState::Header {
        buf: [0u8; HEADER_LEN],
        have: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xdaq_mempool::TablePool;

    fn frame(len: usize, fill: u8) -> FrameBuf {
        assert!(len.is_multiple_of(4) && len >= HEADER_LEN);
        let mut f = FrameBuf::detached(len);
        f.raw_mut().fill(fill);
        f.raw_mut()[2..4].copy_from_slice(&((len / 4) as u16).to_le_bytes());
        f
    }

    #[test]
    fn out_queue_partial_completions_recycle_in_order() {
        let mut out = OutQueue::default();
        out.push(frame(16, 1));
        out.push(frame(32, 2));
        assert_eq!(out.pending_bytes(), 48);

        let mut iov = [IoSlice::new(&[]); MAX_BATCH];
        assert_eq!(out.slices(&mut iov), 2);
        assert_eq!(iov[0].len() + iov[1].len(), 48);

        let mut done = Vec::new();
        out.advance(10, |len| done.push(len));
        assert_eq!(done, Vec::<usize>::new(), "partial head");
        assert_eq!(out.pending_bytes(), 38);
        let mut iov = [IoSlice::new(&[]); MAX_BATCH];
        out.slices(&mut iov);
        assert_eq!(iov[0].len(), 6, "head slice honors offset");

        out.advance(6 + 32, |len| done.push(len));
        assert_eq!(done, vec![16, 32]);
        assert!(out.is_empty());
    }

    #[test]
    fn sub_queue_bounds_and_drains() {
        let mut sub = SubQueue::default();
        for _ in 0..SUB_MAX_FRAMES {
            sub.push(frame(16, 0)).unwrap();
        }
        assert!(sub.push(frame(16, 0)).is_err(), "frame cap");
        let mut out = OutQueue::default();
        sub.drain_into(&mut out);
        assert!(sub.is_empty());
        assert_eq!(out.len(), SUB_MAX_FRAMES);
        sub.push(frame(16, 0)).unwrap();
    }

    #[test]
    fn assembler_hello_then_frames_with_donation() {
        let alloc = TablePool::with_defaults();
        let mut rasm = RecvAssembler::new(alloc);
        let mut ev = Vec::new();

        rasm.ingest(b"XDAQPT1 xpt://1.2.3.4:9\n", &mut ev).unwrap();
        assert!(matches!(&ev[0], Event::Hello(a) if a == "xpt://1.2.3.4:9"));
        ev.clear();

        // A big frame: header via staging, body via donation.
        let f = frame(8192, 0xCD);
        rasm.ingest(&f[..HEADER_LEN], &mut ev).unwrap();
        let want = rasm.direct_read_len();
        assert_eq!(want, 8192 - HEADER_LEN, "assembler donates the tail");
        let dst = rasm.direct_buf();
        dst.copy_from_slice(&f[HEADER_LEN..]);
        rasm.direct_advance(want, &mut ev);
        assert_eq!(rasm.donations(), 1);
        match &ev[0] {
            Event::Frame(got) => assert_eq!(&got[..], &f[..]),
            _ => panic!("expected frame"),
        }
    }

    /// A frame that is all header (16 B, no payload) is delivered as
    /// soon as its header is in, not held until more bytes arrive: an
    /// executive verb such as a claim is exactly this, and its sender
    /// waits for the reply.
    #[test]
    fn assembler_delivers_a_header_only_frame_at_once() {
        let alloc = TablePool::with_defaults();
        let mut rasm = RecvAssembler::new(alloc);
        let mut ev = Vec::new();
        let f = frame(HEADER_LEN, 0x11);
        let mut bytes = b"XDAQPT1 xpt://x\n".to_vec();
        bytes.extend_from_slice(&f);
        rasm.ingest(&bytes, &mut ev).unwrap();
        assert_eq!(ev.len(), 2, "hello and the frame");
        match &ev[1] {
            Event::Frame(got) => assert_eq!(&got[..], &f[..]),
            _ => panic!("expected frame"),
        }
    }

    #[test]
    fn assembler_rejects_corrupt_length() {
        let alloc = TablePool::with_defaults();
        let mut rasm = RecvAssembler::new(alloc);
        let mut ev = Vec::new();
        rasm.ingest(b"XDAQPT1 xpt://x\n", &mut ev).unwrap();
        let bad = [0u8; HEADER_LEN]; // words == 0 → total 0
        assert!(rasm.ingest(&bad, &mut ev).unwrap_err().contains("corrupt"));
    }
}
