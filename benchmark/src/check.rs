//! Operation accounting and the correctness checkers.
//!
//! Every workload funnels its results through one [`OpLog`]: a verified
//! operation is `complete`d with its latency, anything lost, refused,
//! duplicated or failing verification is `fail`ed. The checkers decide
//! which; they know nothing about the product, only about the sequence
//! numbers, byte patterns and event ids the benchmark generated.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Latency samples kept per repetition: a fixed budget, so peak memory
/// does not grow when the product gets faster.
pub const SAMPLE_CAP: usize = 1 << 18;

/// Bytes at the head of every benchmark payload: sequence number and
/// send time stamp, both little-endian `u64`.
pub const STAMP_LEN: usize = 16;

/// xorshift64* stream; all generated inputs derive from `--seed`.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        // Zero is the one fixed point of xorshift.
        Rng(if seed == 0 {
            0x9E37_79B9_7F4A_7C15
        } else {
            seed
        })
    }

    fn next_u64(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

/// The payload every frame of a run carries after its stamp: `len`
/// bytes in total, pseudo-random from `seed`.
pub fn payload_pattern(seed: u64, len: usize) -> Vec<u8> {
    let mut rng = Rng::new(seed);
    let mut out = vec![0u8; len.max(STAMP_LEN)];
    for chunk in out[STAMP_LEN..].chunks_mut(8) {
        let word = rng.next_u64().to_le_bytes();
        chunk.copy_from_slice(&word[..chunk.len()]);
    }
    out
}

/// Writes the stamp into the head of an encoded payload.
pub fn stamp(payload: &mut [u8], seq: u64, sent_ns: u64) {
    payload[..8].copy_from_slice(&seq.to_le_bytes());
    payload[8..STAMP_LEN].copy_from_slice(&sent_ns.to_le_bytes());
}

/// Reads `(seq, sent_ns)` back; `None` for a runt payload.
pub fn read_stamp(payload: &[u8]) -> Option<(u64, u64)> {
    let seq = u64::from_le_bytes(payload.get(..8)?.try_into().ok()?);
    let sent = u64::from_le_bytes(payload.get(8..STAMP_LEN)?.try_into().ok()?);
    Some((seq, sent))
}

/// True when `payload` is `pattern` apart from the stamp.
pub fn pattern_intact(payload: &[u8], pattern: &[u8]) -> bool {
    payload.len() == pattern.len() && payload[STAMP_LEN..] == pattern[STAMP_LEN..]
}

/// Completed / failed operation counts and strided latency samples.
///
/// Counters are written by one thread (upcalls run on the pump thread)
/// and read by the driver between windows, so plain load/store
/// suffices; the sample buffer takes a lock only on a sampled op.
pub struct OpLog {
    completed: AtomicU64,
    failed: AtomicU64,
    stride: AtomicU64,
    samples: Mutex<Vec<u64>>,
    epoch: Instant,
}

impl Default for OpLog {
    fn default() -> Self {
        OpLog::new()
    }
}

impl OpLog {
    pub fn new() -> OpLog {
        // Non-zero fill: every page is written now, so the timed window
        // does not fault them in (a zeroed vector is mapped lazily).
        let mut samples = vec![1u64; SAMPLE_CAP];
        samples.clear();
        OpLog {
            completed: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            stride: AtomicU64::new(1),
            samples: Mutex::new(samples),
            epoch: Instant::now(),
        }
    }

    /// Forgets every count: the log is about to serve a fresh rig.
    pub fn reset(&self) {
        self.completed.store(0, Ordering::Relaxed);
        self.failed.store(0, Ordering::Relaxed);
    }

    /// Nanoseconds on the clock every stamp of the run is taken from.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// One verified operation with its latency.
    pub fn complete(&self, latency_ns: u64) {
        let n = self.completed.load(Ordering::Relaxed) + 1;
        self.completed.store(n, Ordering::Relaxed);
        if n.is_multiple_of(self.stride.load(Ordering::Relaxed)) {
            let mut samples = self.samples.lock().expect("sample lock");
            if samples.len() < SAMPLE_CAP {
                samples.push(latency_ns);
            }
        }
    }

    /// `n` operations lost, refused, duplicated or failing verification.
    pub fn fail(&self, n: u64) {
        self.failed.fetch_add(n, Ordering::Relaxed);
    }

    pub fn completed(&self) -> u64 {
        self.completed.load(Ordering::Relaxed)
    }

    pub fn failed(&self) -> u64 {
        self.failed.load(Ordering::Relaxed)
    }

    /// Starts a sampling window expected to see about `expected_ops`
    /// operations: one in `stride` of them is kept so the window fits
    /// the fixed sample budget.
    pub fn begin_window(&self, expected_ops: u64) {
        self.samples.lock().expect("sample lock").clear();
        let stride = expected_ops.div_ceil(SAMPLE_CAP as u64).max(1);
        self.stride.store(stride, Ordering::Relaxed);
    }

    /// Ends the window: the samples, ascending.
    pub fn end_window(&self) -> Vec<u64> {
        let mut out = self.samples.lock().expect("sample lock").clone();
        out.sort_unstable();
        out
    }
}

/// Checks that a stream delivers `1, 2, 3, …` exactly once, in order.
#[derive(Default)]
pub struct SeqChecker {
    next: u64,
}

/// What one arrival meant.
#[derive(Debug, PartialEq, Eq, Clone, Copy)]
pub enum SeqVerdict {
    /// The expected next frame.
    InOrder,
    /// Arrived after `missing` frames that never did: those are lost.
    Gap { missing: u64 },
    /// Already seen (or older than the cursor): a duplicate or reorder.
    Stale,
}

impl SeqChecker {
    pub fn new() -> SeqChecker {
        SeqChecker { next: 1 }
    }

    pub fn observe(&mut self, seq: u64) -> SeqVerdict {
        if seq == self.next {
            self.next += 1;
            SeqVerdict::InOrder
        } else if seq > self.next {
            let missing = seq - self.next;
            self.next = seq + 1;
            SeqVerdict::Gap { missing }
        } else {
            SeqVerdict::Stale
        }
    }

    /// Highest sequence number accepted so far.
    pub fn delivered(&self) -> u64 {
        self.next - 1
    }
}

/// Verifies built events: every fragment seen on the way to a builder
/// must check out, every source must have contributed, the summary must
/// carry the right size, and an event id is built exactly once.
pub struct EventChecker {
    sources: u16,
    event_bytes: u64,
    inner: Mutex<EventState>,
}

/// Built ids remembered for the duplicate check. Ids are issued in
/// increasing order with a few dozen in flight, so a repeat can only
/// fall within a short window; a fixed ring keeps memory independent
/// of how many events a run builds.
const BUILT_WINDOW: usize = 4096;

struct EventState {
    /// Bit per source whose fragment verified, per open event.
    verified: HashMap<u64, u32>,
    /// `recent[id % BUILT_WINDOW] == id` once `id` was built.
    recent: Vec<u64>,
    built: u64,
    corrupt_fragments: u64,
}

impl EventChecker {
    pub fn new(sources: u16, event_bytes: u64) -> EventChecker {
        assert!(sources <= 32, "source mask is 32 bits");
        EventChecker {
            sources,
            event_bytes,
            inner: Mutex::new(EventState {
                verified: HashMap::new(),
                recent: vec![u64::MAX; BUILT_WINDOW],
                built: 0,
                corrupt_fragments: 0,
            }),
        }
    }

    /// A fragment of `event` from `source` reached a builder node;
    /// `intact` is the payload check's verdict.
    pub fn fragment(&self, event: u64, source: u16, intact: bool) {
        let mut s = self.inner.lock().expect("event lock");
        if !intact || source >= self.sources {
            s.corrupt_fragments += 1;
        } else if s.recent[event as usize % BUILT_WINDOW] != event {
            *s.verified.entry(event).or_default() |= 1 << source;
        }
    }

    /// A built-event summary arrived. `true` when it passes.
    pub fn built(&self, event: u64, bytes: u64) -> bool {
        let mut s = self.inner.lock().expect("event lock");
        let mask = s.verified.remove(&event).unwrap_or(0);
        let all = (1u64 << self.sources) - 1;
        let slot = event as usize % BUILT_WINDOW;
        let fresh = s.recent[slot] != event;
        if fresh {
            s.recent[slot] = event;
            s.built += 1;
        }
        fresh && mask as u64 == all && bytes == self.event_bytes
    }

    /// Events built so far (unique ids).
    pub fn built_count(&self) -> u64 {
        self.inner.lock().expect("event lock").built
    }

    /// Fragments that failed their payload check on arrival. The
    /// builder drops and re-pulls them, so they are not failed
    /// operations by themselves; they are reported.
    pub fn corrupt_fragments(&self) -> u64 {
        self.inner.lock().expect("event lock").corrupt_fragments
    }
}

/// Per-event build latency: first `TRIGGER(k)` leaving the event
/// manager's node → `DONE(k, built)` arriving back at it.
pub struct EventClock {
    open: Mutex<HashMap<u64, u64>>,
    discards: AtomicU64,
}

impl Default for EventClock {
    fn default() -> Self {
        EventClock::new()
    }
}

impl EventClock {
    pub fn new() -> EventClock {
        EventClock {
            open: Mutex::new(HashMap::new()),
            discards: AtomicU64::new(0),
        }
    }

    /// A trigger for `event` left at `now_ns`; re-triggers keep the
    /// first time.
    pub fn triggered(&self, event: u64, now_ns: u64) {
        self.open
            .lock()
            .expect("clock lock")
            .entry(event)
            .or_insert(now_ns);
    }

    /// `DONE(event)` arrived. Returns the build latency for a built
    /// event that was open; a discard keeps the event open (the manager
    /// reassigns it).
    pub fn done(&self, event: u64, built: bool, now_ns: u64) -> Option<u64> {
        if !built {
            self.discards.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        let t0 = self.open.lock().expect("clock lock").remove(&event)?;
        Some(now_ns.saturating_sub(t0))
    }

    /// Events triggered and not yet built.
    pub fn outstanding(&self) -> u64 {
        self.open.lock().expect("clock lock").len() as u64
    }

    pub fn discards(&self) -> u64 {
        self.discards.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pattern_depends_on_seed_and_detects_one_flipped_byte() {
        let a = payload_pattern(11, 64);
        assert_eq!(a, payload_pattern(11, 64));
        assert_ne!(a, payload_pattern(12, 64));
        let mut frame = a.clone();
        stamp(&mut frame, 5, 999);
        assert_eq!(read_stamp(&frame), Some((5, 999)));
        assert!(pattern_intact(&frame, &a), "the stamp is not pattern");
        frame[40] ^= 1;
        assert!(!pattern_intact(&frame, &a), "corrupted byte is caught");
        assert!(!pattern_intact(&a[..63], &a), "truncation is caught");
        assert_eq!(read_stamp(&a[..15]), None);
    }

    #[test]
    fn seq_checker_counts_missing_duplicated_and_reordered_frames() {
        let mut c = SeqChecker::new();
        assert_eq!(c.observe(1), SeqVerdict::InOrder);
        assert_eq!(c.observe(2), SeqVerdict::InOrder);
        assert_eq!(c.observe(2), SeqVerdict::Stale, "duplicate");
        assert_eq!(c.observe(5), SeqVerdict::Gap { missing: 2 }, "3 and 4 lost");
        assert_eq!(c.observe(4), SeqVerdict::Stale, "late reordered frame");
        assert_eq!(c.observe(6), SeqVerdict::InOrder);
        assert_eq!(c.delivered(), 6);
    }

    #[test]
    fn event_checker_bites_on_each_kind_of_bad_event() {
        let c = EventChecker::new(4, 400);
        let feed = |event: u64, sources: &[u16]| {
            for &s in sources {
                c.fragment(event, s, true);
            }
        };
        feed(1, &[0, 1, 2, 3]);
        assert!(c.built(1, 400), "good event passes");
        assert!(!c.built(1, 400), "duplicated event id is counted");

        feed(2, &[0, 1, 3]);
        assert!(!c.built(2, 400), "missing source is counted");

        feed(3, &[0, 1, 2]);
        c.fragment(3, 3, false);
        assert!(
            !c.built(3, 400),
            "corrupted fragment does not count as seen"
        );
        assert_eq!(c.corrupt_fragments(), 1);

        feed(4, &[0, 1, 2, 3]);
        assert!(!c.built(4, 399), "wrong event size is counted");

        feed(5, &[0, 0, 1, 2, 3, 3]);
        assert!(
            c.built(5, 400),
            "re-pulled duplicates of a fragment are fine"
        );
        assert_eq!(c.built_count(), 5);
    }

    #[test]
    fn event_clock_times_first_trigger_to_built_done() {
        let c = EventClock::new();
        c.triggered(7, 100);
        c.triggered(7, 150); // re-trigger on reassignment
        assert_eq!(c.done(7, false, 180), None, "discard keeps it open");
        assert_eq!((c.outstanding(), c.discards()), (1, 1));
        assert_eq!(c.done(7, true, 400), Some(300));
        assert_eq!(c.done(7, true, 500), None, "second DONE is not an op");
        assert_eq!(c.outstanding(), 0);
    }

    #[test]
    fn oplog_counts_and_samples_within_budget() {
        let log = OpLog::new();
        log.begin_window(SAMPLE_CAP as u64 * 4);
        for i in 0..100 {
            log.complete(i);
        }
        log.fail(3);
        assert_eq!((log.completed(), log.failed()), (100, 3));
        assert_eq!(log.end_window().len(), 25, "stride 4 keeps one in four");
        log.begin_window(10);
        log.complete(9);
        log.complete(2);
        assert_eq!(log.end_window(), vec![2, 9], "stride 1, ascending");
    }
}
