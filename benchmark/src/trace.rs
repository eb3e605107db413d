//! Spans: the per-layer side of the benchmark.
//!
//! A span is `{name, start, end, parent, op_id}` recorded around a call
//! the benchmark makes into one layer of the product. Spans live in a
//! pre-sized in-memory buffer, are reduced to per-layer numbers after
//! the timed window and written to `out/trace_<workload>.json` at exit.
//! A layer's *self time* is its span's duration minus the part of that
//! interval its child spans cover.
//!
//! Nesting follows the call stack of each thread (a thread-local
//! "current span"); two kinds of interval that are not calls — the wire
//! time between one node's `send` and the next node's `poll`, and the
//! time from a frame surfacing at a transport to the listener being
//! entered — are matched by frame identity and recorded as parentless
//! spans.

use std::cell::Cell;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// What a span measured. The `as_str` names are the ones in the trace
/// file and in the README.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
#[repr(u8)]
pub enum Name {
    /// One `Executive::run_once` that did work.
    RunOnce,
    /// `PeerTransport::send`.
    PtSend,
    /// `PeerTransport::poll` that returned a frame.
    PtPoll,
    /// The `IngestSink` call of a task-mode transport.
    PtSink,
    /// Sender's `send` returned → frame surfaced at the receiver.
    PtWire,
    /// Frame surfaced at the transport → listener entered.
    CoreIngestToUpcall,
    /// `Dispatcher::send_delivery` (frameSend).
    CoreSend,
    /// Body of a benchmark listener's upcall.
    AppUpcall,
    /// `Dispatcher::alloc`.
    MempoolAlloc,
    /// Dropping a delivered frame (block returns to its pool).
    MempoolRecycle,
    /// `Message::encode` into a pool block.
    I2oEncode,
    /// `Message::decode` of a received frame.
    I2oDecode,
}

impl Name {
    pub fn as_str(self) -> &'static str {
        match self {
            Name::RunOnce => "core.run_once",
            Name::PtSend => "pt.send",
            Name::PtPoll => "pt.poll_hit",
            Name::PtSink => "pt.sink",
            Name::PtWire => "pt.wire",
            Name::CoreIngestToUpcall => "core.ingest_to_upcall",
            Name::CoreSend => "core.send",
            Name::AppUpcall => "app.upcall",
            Name::MempoolAlloc => "mempool.alloc",
            Name::MempoolRecycle => "mempool.recycle",
            Name::I2oEncode => "i2o.encode",
            Name::I2oDecode => "i2o.decode",
        }
    }
}

/// One recorded span. Times are nanoseconds since the recorder's epoch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    /// 0 = no parent.
    pub parent: u32,
    pub name: Name,
    pub node: u8,
    pub op: u64,
    pub start: u64,
    pub end: u64,
}

impl Span {
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// A span that has been entered and not yet left.
#[must_use]
pub struct Open {
    id: u32,
    parent: u32,
    name: Name,
    node: u8,
    op: u64,
    start: u64,
}

impl Open {
    /// When the span was entered.
    pub fn start(&self) -> u64 {
        self.start
    }
}

thread_local! {
    /// Innermost open span of this thread (0 = none).
    static CURRENT: Cell<u32> = const { Cell::new(0) };
}

/// The matching tables forget their oldest entry beyond this size: a
/// frame the fault injector ate never arrives, and most frames of an
/// event-builder run surface at product listeners that never ask.
const MATCH_TABLE_SOFT_CAP: usize = 1024;

/// The span buffer plus the two frame-matching tables.
pub struct Recorder {
    on: AtomicBool,
    full: AtomicBool,
    next_id: AtomicU32,
    cap: usize,
    spans: Mutex<Vec<Span>>,
    epoch: Instant,
    /// `(frame key, time the sender's send returned)`.
    wire: Mutex<VecDeque<(u64, u64)>>,
    /// `(node/op key, time the frame surfaced)`.
    surfaced: Mutex<VecDeque<(u64, u64)>>,
}

fn locked<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock()
        .expect("a recorder lock is never held across a panic point")
}

impl Recorder {
    /// A recorder holding at most `cap` spans; recording starts off.
    pub fn new(cap: usize) -> Recorder {
        Recorder {
            on: AtomicBool::new(false),
            full: AtomicBool::new(false),
            next_id: AtomicU32::new(1),
            cap,
            spans: Mutex::new(Vec::with_capacity(cap)),
            epoch: Instant::now(),
            wire: Mutex::new(VecDeque::new()),
            surfaced: Mutex::new(VecDeque::new()),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn is_on(&self) -> bool {
        self.on.load(Ordering::Relaxed)
    }

    /// True once a span has been refused because the buffer is full.
    pub fn is_full(&self) -> bool {
        self.full.load(Ordering::Relaxed)
    }

    pub fn set_on(&self, on: bool) {
        self.on.store(on, Ordering::Relaxed);
    }

    /// Empties the buffer and the matching tables for a new window.
    pub fn clear(&self) {
        locked(&self.spans).clear();
        locked(&self.wire).clear();
        locked(&self.surfaced).clear();
        self.full.store(false, Ordering::Relaxed);
    }

    /// Copies the recorded spans out.
    pub fn spans(&self) -> Vec<Span> {
        locked(&self.spans).clone()
    }

    fn push(&self, span: Span) {
        let mut spans = locked(&self.spans);
        if spans.len() < self.cap {
            spans.push(span);
        } else {
            self.full.store(true, Ordering::Relaxed);
        }
    }

    fn fresh_id(&self) -> u32 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Opens a span nested in this thread's current one.
    pub fn enter(&self, name: Name, node: u8, op: u64) -> Open {
        let id = self.fresh_id();
        let parent = CURRENT.with(|c| c.replace(id));
        Open {
            id,
            parent,
            name,
            node,
            op,
            start: self.now_ns(),
        }
    }

    /// Closes a span; returns its end time.
    pub fn exit(&self, open: Open) -> u64 {
        let end = self.now_ns();
        CURRENT.with(|c| c.set(open.parent));
        self.push(Span {
            id: open.id,
            parent: open.parent,
            name: open.name,
            node: open.node,
            op: open.op,
            start: open.start,
            end,
        });
        end
    }

    /// Leaves a span without recording it (an idle `run_once`).
    pub fn cancel(&self, open: Open) {
        CURRENT.with(|c| c.set(open.parent));
    }

    /// Records an already-timed call nested in the current span.
    pub fn closed(&self, name: Name, node: u8, op: u64, start: u64, end: u64) {
        let parent = CURRENT.with(Cell::get);
        self.push(Span {
            id: self.fresh_id(),
            parent,
            name,
            node,
            op,
            start,
            end,
        });
    }

    /// Records an interval that is not a call (no parent).
    pub fn interval(&self, name: Name, node: u8, op: u64, start: u64, end: u64) {
        self.push(Span {
            id: self.fresh_id(),
            parent: 0,
            name,
            node,
            op,
            start,
            end,
        });
    }

    fn remember(table: &Mutex<VecDeque<(u64, u64)>>, key: u64, at: u64) {
        let mut t = locked(table);
        if t.len() >= MATCH_TABLE_SOFT_CAP {
            t.pop_front();
        }
        t.push_back((key, at));
    }

    /// Takes the oldest (`newest == false`) or newest entry under `key`.
    fn recall(table: &Mutex<VecDeque<(u64, u64)>>, key: u64, newest: bool) -> Option<u64> {
        let mut t = locked(table);
        let pos = if newest {
            t.iter().rposition(|&(k, _)| k == key)?
        } else {
            t.iter().position(|&(k, _)| k == key)?
        };
        t.remove(pos).map(|(_, at)| at)
    }

    /// A sender's `send` of the frame with this key returned at `at`.
    pub fn wire_sent(&self, key: u64, at: u64) {
        Recorder::remember(&self.wire, key, at);
    }

    /// The frame with this key reached `node`'s transport at `at`:
    /// closes the wire interval. Identical frames (a broadcast) pair
    /// first-sent with first-received, which leaves the sum of the
    /// intervals exact.
    pub fn wire_received(&self, key: u64, node: u8, op: u64, at: u64) {
        if let Some(sent) = Recorder::recall(&self.wire, key, false) {
            self.interval(Name::PtWire, node, op, sent, at.max(sent));
        }
    }

    /// The transport handed the frame of operation `op` to `node`'s
    /// executive at `at`: opens the ingest-to-upcall interval.
    pub fn frame_surfaced(&self, node: u8, op: u64, at: u64) {
        Recorder::remember(&self.surfaced, surface_key(node, op), at);
    }

    /// A listener on `node` was entered at `at` for operation `op`.
    pub fn upcall_entered(&self, node: u8, op: u64, at: u64) {
        if let Some(surfaced) = Recorder::recall(&self.surfaced, surface_key(node, op), true) {
            self.interval(
                Name::CoreIngestToUpcall,
                node,
                op,
                surfaced,
                at.max(surfaced),
            );
        }
    }
}

fn surface_key(node: u8, op: u64) -> u64 {
    op ^ ((node as u64) << 56)
}

/// FNV-1a over the head of a frame: the identity used to pair a `send`
/// with the `poll` that surfaces the same bytes on the other node.
pub fn frame_key(frame: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in &frame[..frame.len().min(48)] {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Self time of every span: duration minus the union of the intervals
/// its children cover (clipped to the span). Returned in input order.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: HashMap<u32, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if s.parent != 0 {
            children.entry(s.parent).or_default().push((s.start, s.end));
        }
    }
    spans
        .iter()
        .map(|s| {
            let Some(kids) = children.get_mut(&s.id) else {
                return s.duration();
            };
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut upto = s.start;
            for &(start, end) in kids.iter() {
                let start = start.max(upto);
                let end = end.min(s.end);
                if end > start {
                    covered += end - start;
                    upto = end;
                }
            }
            s.duration().saturating_sub(covered)
        })
        .collect()
}

/// For every `pt.send` made from inside a benchmark upcall: how long
/// that upcall kept running after the send returned. The wire interval
/// starts at the same instant, so on the ladder this stretch would
/// otherwise be counted twice.
pub fn sender_tails(spans: &[Span]) -> Vec<u64> {
    let by_id: HashMap<u32, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    let upcall_above = |s: &Span| {
        let mut at = by_id.get(&s.parent)?;
        while at.name != Name::AppUpcall {
            at = by_id.get(&at.parent)?;
        }
        Some(*at)
    };
    spans
        .iter()
        .filter(|s| s.name == Name::PtSend)
        .filter_map(|s| Some(upcall_above(s)?.end.saturating_sub(s.end)))
        .collect()
}

/// Spans reduced per name (and per node for the busy sums).
pub struct Reduced {
    self_ns: HashMap<Name, Vec<u64>>,
    total_by_node: HashMap<(Name, u8), u64>,
    sender_tail_ns: Vec<u64>,
}

impl Reduced {
    pub fn from_spans(spans: &[Span]) -> Reduced {
        let selfs = self_times(spans);
        let mut self_ns: HashMap<Name, Vec<u64>> = HashMap::new();
        let mut total_by_node: HashMap<(Name, u8), u64> = HashMap::new();
        for (s, &own) in spans.iter().zip(&selfs) {
            self_ns.entry(s.name).or_default().push(own);
            *total_by_node.entry((s.name, s.node)).or_default() += s.duration();
        }
        for v in self_ns.values_mut() {
            v.sort_unstable();
        }
        let mut sender_tail_ns = sender_tails(spans);
        sender_tail_ns.sort_unstable();
        Reduced {
            self_ns,
            total_by_node,
            sender_tail_ns,
        }
    }

    /// Median of [`sender_tails`], in ns.
    pub fn median_sender_tail_ns(&self) -> Option<f64> {
        crate::stats::percentile(&self.sender_tail_ns, 0.5).map(|v| v as f64)
    }

    /// Median self time of the spans of one name, in ns.
    pub fn median_self_ns(&self, name: Name) -> Option<f64> {
        crate::stats::percentile(self.self_ns.get(&name)?, 0.5).map(|v| v as f64)
    }

    /// Summed duration of the spans of one name on the given nodes.
    pub fn total_ns(&self, name: Name, nodes: &[u8]) -> u64 {
        nodes
            .iter()
            .map(|&n| self.total_by_node.get(&(name, n)).copied().unwrap_or(0))
            .sum()
    }
}

/// Writes the head of the span buffer as JSON (one object per span).
pub fn write_file(
    path: &std::path::Path,
    workload: &str,
    spans: &[Span],
    limit: usize,
) -> std::io::Result<()> {
    use std::io::Write;
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        out,
        "{{\"workload\":\"{workload}\",\"unit\":\"ns\",\"recorded\":{},\"written\":{},\"spans\":[",
        spans.len(),
        spans.len().min(limit)
    )?;
    for (i, s) in spans.iter().take(limit).enumerate() {
        let sep = if i == 0 { "" } else { "," };
        writeln!(
            out,
            "{sep}{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"node\":{},\"op_id\":{},\"start\":{},\"end\":{}}}",
            s.id,
            s.parent,
            s.name.as_str(),
            s.node,
            s.op,
            s.start,
            s.end
        )?;
    }
    writeln!(out, "]}}")?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, name: Name, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name,
            node: 0,
            op: 0,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let spans = [
            span(1, 0, Name::RunOnce, 0, 100),
            // Two children overlapping on [30, 40): union covers 10..60.
            span(2, 1, Name::PtPoll, 10, 40),
            span(3, 1, Name::AppUpcall, 30, 60),
            // A grandchild only reduces its own parent.
            span(4, 3, Name::MempoolAlloc, 35, 45),
            // A child sticking out of its parent is clipped to it.
            span(5, 1, Name::PtSend, 90, 130),
        ];
        assert_eq!(self_times(&spans), vec![40, 30, 20, 10, 40]);
    }

    #[test]
    fn reduced_gives_medians_counts_and_node_sums() {
        let mut spans = vec![
            span(1, 0, Name::PtSend, 0, 10),
            span(2, 0, Name::PtSend, 0, 30),
            span(3, 0, Name::PtSend, 0, 20),
        ];
        spans[2].node = 4;
        let r = Reduced::from_spans(&spans);
        assert_eq!(r.median_self_ns(Name::PtSend), Some(20.0));
        assert_eq!(r.median_self_ns(Name::PtPoll), None);
        assert_eq!(r.total_ns(Name::PtSend, &[0]), 40);
        assert_eq!(r.total_ns(Name::PtSend, &[0, 4]), 60);
    }

    #[test]
    fn sender_tail_is_upcall_end_minus_send_return() {
        let spans = [
            span(1, 0, Name::RunOnce, 0, 200),
            span(2, 1, Name::AppUpcall, 10, 150),
            span(3, 2, Name::CoreSend, 40, 110),
            span(4, 3, Name::PtSend, 50, 90),
            // A send outside any benchmark upcall has no tail.
            span(5, 1, Name::PtSend, 160, 170),
        ];
        assert_eq!(sender_tails(&spans), vec![60]);
        let r = Reduced::from_spans(&spans);
        assert_eq!(r.median_sender_tail_ns(), Some(60.0));
        assert_eq!(Reduced::from_spans(&[]).median_sender_tail_ns(), None);
    }

    #[test]
    fn recorder_nests_by_call_stack_and_stops_when_full() {
        let rec = Recorder::new(3);
        let outer = rec.enter(Name::RunOnce, 1, 7);
        let inner = rec.enter(Name::PtSend, 1, 7);
        rec.exit(inner);
        let idle = rec.enter(Name::PtPoll, 1, 0);
        rec.cancel(idle);
        rec.closed(Name::PtPoll, 1, 7, 5, 6);
        rec.exit(outer);
        assert!(!rec.is_full());
        rec.interval(Name::PtWire, 1, 7, 1, 2);
        assert!(rec.is_full(), "fourth span refused");
        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        let run_once = spans.iter().find(|s| s.name == Name::RunOnce).unwrap();
        assert_eq!(run_once.parent, 0);
        for s in spans.iter().filter(|s| s.name != Name::RunOnce) {
            assert_eq!(s.parent, run_once.id, "{:?} nests in run_once", s.name);
        }
        rec.clear();
        assert!(rec.spans().is_empty() && !rec.is_full());
    }

    #[test]
    fn wire_and_ingest_intervals_pair_by_frame_identity() {
        let rec = Recorder::new(16);
        let (a, b) = (frame_key(b"frame-a"), frame_key(b"frame-b"));
        assert_ne!(a, b);
        rec.wire_sent(a, 100);
        rec.wire_sent(b, 110);
        rec.wire_sent(a, 120);
        rec.wire_received(b, 2, 9, 150);
        rec.wire_received(a, 2, 8, 160);
        rec.wire_received(frame_key(b"never sent"), 2, 7, 170);
        rec.frame_surfaced(2, 8, 165);
        rec.upcall_entered(2, 8, 190);
        rec.upcall_entered(3, 8, 195);
        let spans = rec.spans();
        let of = |n: Name| -> Vec<(u64, u64, u64)> {
            spans
                .iter()
                .filter(|s| s.name == n)
                .map(|s| (s.op, s.start, s.end))
                .collect()
        };
        assert_eq!(of(Name::PtWire), vec![(9, 110, 150), (8, 100, 160)]);
        assert_eq!(of(Name::CoreIngestToUpcall), vec![(8, 165, 190)]);
    }
}
