//! The timer facility.
//!
//! Paper §3.2: timer expirations are events like any other — they
//! *"trigger messages that are sent to device modules, if they have
//! registered to listen to such an event"*. The wheel tracks deadlines;
//! the executive's loop calls [`TimerWheel::fire_due`] and converts
//! each expiry into an `XFN_TIMER` private frame queued to the owning
//! device — so timer handling obeys the same priority scheduling as
//! all other traffic. §4 also notes a handler-runaway guard *"can be
//! implemented making use of the I2O core timer facilities"*; the
//! executive's watchdog builds on this wheel.

use crate::clock::Clock;
use crate::listener::TimerId;
use parking_lot::Mutex;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::time::{Duration, Instant};
use xdaq_i2o::Tid;

#[derive(PartialEq, Eq)]
struct Entry {
    deadline: Instant,
    id: TimerId,
    owner: Tid,
    period: Option<Duration>,
}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.deadline
            .cmp(&other.deadline)
            .then(self.id.cmp(&other.id))
    }
}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

#[derive(Default)]
struct Inner {
    /// Deadline order. Cancelling leaves the entry here, dead; it is
    /// skipped when it surfaces, or swept by [`Inner::compact`].
    heap: BinaryHeap<Reverse<Entry>>,
    /// Every armed timer and its owner. An entry of `heap` is live iff
    /// its id is in here, which makes `cancel` O(1).
    armed: HashMap<TimerId, Tid>,
    next_id: u64,
}

impl Inner {
    /// Sweeps dead entries once they outnumber the live ones, so the
    /// heap stays within twice the armed count however long the
    /// cancelled deadlines are. A sweep is paid for by the cancels
    /// that made it necessary: amortized O(1) each.
    fn compact(&mut self) {
        if self.heap.len() > 2 * self.armed.len() {
            let armed = &self.armed;
            self.heap.retain(|Reverse(e)| armed.contains_key(&e.id));
        }
    }
}

/// Deadline tracker for device timers.
///
/// Deadlines are computed against the wheel's [`Clock`] — wall time by
/// default, a shared [`crate::clock::VirtualClock`] under simulation —
/// and expiry is judged against the `now` the caller passes to
/// [`TimerWheel::fire_due`], so the wheel itself never consults the
/// OS clock on the hot path.
#[derive(Default)]
pub struct TimerWheel {
    inner: Mutex<Inner>,
    clock: Clock,
}

impl TimerWheel {
    /// Empty wheel on the wall clock.
    pub fn new() -> TimerWheel {
        TimerWheel::default()
    }

    /// Empty wheel reading `clock` for registration deadlines.
    pub fn with_clock(clock: Clock) -> TimerWheel {
        TimerWheel {
            inner: Mutex::new(Inner::default()),
            clock,
        }
    }

    /// The wheel's time source.
    pub fn clock(&self) -> &Clock {
        &self.clock
    }

    /// Registers a timer owned by `owner`; periodic timers re-arm on
    /// fire. A periodic period is at least 1 ns: `fire_due` re-arms at
    /// `now + period`, so a zero period would stay due forever and
    /// spin the dispatch thread inside one `fire_due` call.
    pub fn register(&self, owner: Tid, delay: Duration, periodic: bool) -> TimerId {
        let now = self.clock.now();
        let mut inner = self.inner.lock();
        inner.next_id += 1;
        let id = TimerId(inner.next_id);
        inner.heap.push(Reverse(Entry {
            deadline: now + delay,
            id,
            owner,
            period: periodic.then(|| delay.max(Duration::from_nanos(1))),
        }));
        inner.armed.insert(id, owner);
        id
    }

    /// Cancels a timer. Returns `false` for unknown/already-fired ids:
    /// a stale cancel (a handler, invoked for timer X, tidying up
    /// state that still references X) changes nothing.
    pub fn cancel(&self, id: TimerId) -> bool {
        let mut inner = self.inner.lock();
        let was_armed = inner.armed.remove(&id).is_some();
        if was_armed {
            inner.compact();
        }
        was_armed
    }

    /// Pops every timer expired at `now`, invoking `f(owner, id)` per
    /// expiry. Periodic timers are re-armed off `now`. Returns the
    /// number fired. Callers pass their clock's current instant
    /// (`wheel.clock().now()`), which keeps one loop iteration's view
    /// of "due" consistent and lets simulations fire at exact virtual
    /// deadlines.
    pub fn fire_due(&self, now: Instant, mut f: impl FnMut(Tid, TimerId)) -> usize {
        let mut fired = 0;
        loop {
            let (owner, id) = {
                let mut inner = self.inner.lock();
                match inner.heap.peek() {
                    Some(Reverse(e)) if e.deadline <= now => {
                        let Reverse(e) = inner.heap.pop().expect("peeked");
                        if !inner.armed.contains_key(&e.id) {
                            continue; // cancelled
                        }
                        if let Some(p) = e.period {
                            inner.heap.push(Reverse(Entry {
                                deadline: now + p,
                                ..e
                            }));
                        } else {
                            inner.armed.remove(&e.id);
                        }
                        (e.owner, e.id)
                    }
                    _ => break,
                }
            };
            f(owner, id);
            fired += 1;
        }
        fired
    }

    /// Deadline of the next armed timer (for idle sleeping).
    pub fn next_deadline(&self) -> Option<Instant> {
        let mut inner = self.inner.lock();
        // Dead entries on top are dropped on the way to the answer.
        while let Some(Reverse(e)) = inner.heap.peek() {
            if inner.armed.contains_key(&e.id) {
                return Some(e.deadline);
            }
            inner.heap.pop();
        }
        None
    }

    /// Number of armed (non-cancelled) timers.
    pub fn len(&self) -> usize {
        self.inner.lock().armed.len()
    }

    /// True when no timers are armed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops all timers owned by `tid` (device destroyed). Returns the
    /// number cancelled.
    pub fn cancel_owned(&self, tid: Tid) -> usize {
        let mut inner = self.inner.lock();
        let before = inner.armed.len();
        inner.armed.retain(|_, owner| *owner != tid);
        inner.compact();
        before - inner.armed.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::VirtualClock;
    use std::sync::Arc;

    fn t(v: u16) -> Tid {
        Tid::new(v).unwrap()
    }

    /// A wheel on a virtual clock: the tests advance time explicitly
    /// instead of really sleeping, so they are instant and exact.
    fn wheel() -> (TimerWheel, Arc<VirtualClock>) {
        let (clock, v) = Clock::simulated();
        (TimerWheel::with_clock(clock), v)
    }

    #[test]
    fn one_shot_fires_once() {
        let (w, v) = wheel();
        let id = w.register(t(0x10), Duration::from_millis(1), false);
        assert_eq!(w.len(), 1);
        v.advance(Duration::from_millis(5));
        let mut fired = Vec::new();
        w.fire_due(v.now(), |owner, tid| fired.push((owner, tid)));
        assert_eq!(fired, vec![(t(0x10), id)]);
        assert_eq!(w.len(), 0);
        assert_eq!(w.fire_due(v.now(), |_, _| {}), 0);
    }

    #[test]
    fn not_due_not_fired() {
        let (w, v) = wheel();
        w.register(t(1), Duration::from_secs(60), false);
        v.advance(Duration::from_secs(59));
        assert_eq!(w.fire_due(v.now(), |_, _| panic!("not due")), 0);
        assert_eq!(w.len(), 1);
    }

    #[test]
    fn cancel_prevents_fire() {
        let (w, v) = wheel();
        let id = w.register(t(1), Duration::from_millis(1), false);
        assert!(w.cancel(id));
        assert!(!w.cancel(id), "double cancel");
        v.advance(Duration::from_millis(3));
        assert_eq!(w.fire_due(v.now(), |_, _| panic!("cancelled")), 0);
    }

    #[test]
    fn periodic_rearms() {
        let (w, v) = wheel();
        let id = w.register(t(1), Duration::from_millis(1), true);
        v.advance(Duration::from_millis(3));
        assert_eq!(w.fire_due(v.now(), |_, _| {}), 1);
        assert_eq!(w.len(), 1, "still armed");
        v.advance(Duration::from_millis(3));
        assert_eq!(w.fire_due(v.now(), |_, _| {}), 1);
        assert!(w.cancel(id));
        assert!(w.is_empty());
    }

    #[test]
    fn zero_period_fires_once_per_call() {
        // Once reachable from `.xtop` `supervision.interval_ms = 0`.
        let (w, v) = wheel();
        w.register(t(1), Duration::ZERO, true);
        let mut calls = 0;
        let mut count = |_: Tid, _: TimerId| {
            calls += 1;
            assert!(calls <= 1_000, "zero-period timer livelocks fire_due");
        };
        assert_eq!(w.fire_due(v.now(), &mut count), 1);
        assert_eq!(w.fire_due(v.now(), &mut count), 0, "same instant: not due");
        v.advance(Duration::from_millis(1));
        assert_eq!(w.fire_due(v.now(), &mut count), 1);
        assert_eq!(w.len(), 1, "still armed");
    }

    #[test]
    fn ordering_earliest_first() {
        let (w, v) = wheel();
        w.register(t(2), Duration::from_millis(2), false);
        w.register(t(1), Duration::from_millis(1), false);
        v.advance(Duration::from_millis(5));
        let mut order = Vec::new();
        w.fire_due(v.now(), |owner, _| order.push(owner));
        assert_eq!(order, vec![t(1), t(2)]);
    }

    #[test]
    fn cancel_owned_sweeps() {
        let (w, _v) = wheel();
        w.register(t(1), Duration::from_secs(10), false);
        w.register(t(1), Duration::from_secs(10), true);
        w.register(t(2), Duration::from_secs(10), false);
        assert_eq!(w.cancel_owned(t(1)), 2);
        assert_eq!(w.len(), 1);
    }

    #[test]
    fn next_deadline_reflects_earliest() {
        let (w, v) = wheel();
        assert!(w.next_deadline().is_none());
        let id = w.register(t(1), Duration::from_secs(5), false);
        w.register(t(1), Duration::from_secs(10), false);
        let d = w.next_deadline().unwrap();
        assert_eq!(d, v.now() + Duration::from_secs(5), "exact, not fuzzy");
        w.cancel(id);
        let d2 = w.next_deadline().unwrap();
        assert_eq!(d2, v.now() + Duration::from_secs(10));
        assert!(d2 > d);
    }

    #[test]
    fn stale_cancel_leaves_the_live_count_alone() {
        // Cancelling an id that already fired (the event-builder's
        // discard path does exactly this from inside the timer's own
        // handler) must be a no-op — a blind decrement here made a
        // *later* one-shot fire underflow `live`.
        let (w, v) = wheel();
        let fired = w.register(t(1), Duration::from_millis(1), false);
        let armed = w.register(t(1), Duration::from_millis(5), false);
        v.advance(Duration::from_millis(1));
        assert_eq!(w.fire_due(v.now(), |_, _| {}), 1);
        assert!(!w.cancel(fired), "stale cancel must report failure");
        assert_eq!(w.len(), 1, "stale cancel must not eat the live slot");
        v.advance(Duration::from_millis(5));
        assert_eq!(w.fire_due(v.now(), |_, _| {}), 1, "no underflow");
        assert_eq!(w.len(), 0);
        let _ = armed;
    }

    #[test]
    fn cancelled_timers_do_not_pile_up_in_the_heap() {
        // A builder arms a 50 ms timeout per event and cancels it
        // microseconds later: none of these deadlines ever comes due.
        let (w, _v) = wheel();
        let keeper = w.register(t(2), Duration::from_secs(60), false);
        let mut last = keeper;
        for _ in 0..10_000 {
            last = w.register(t(1), Duration::from_millis(50), false);
            assert!(w.cancel(last));
            let inner = w.inner.lock();
            assert!(inner.heap.len() <= 2 * inner.armed.len() + 1);
        }
        assert!(w.cancel(keeper));
        assert_eq!(w.len(), 0);
        assert!(w.inner.lock().heap.len() <= 1, "dead entries swept");
        assert!(!w.cancel(last), "stale cancel");
        assert!(!w.cancel(keeper), "stale cancel");
        assert_eq!(w.next_deadline(), None);
        assert!(w.inner.lock().heap.is_empty());
    }

    #[test]
    fn periodic_rearms_off_fire_now_not_registration() {
        // A periodic timer serviced late must re-arm relative to the
        // `now` it fired at, not drift off the original schedule.
        let (w, v) = wheel();
        w.register(t(1), Duration::from_millis(10), true);
        v.advance(Duration::from_millis(35)); // 3.5 periods late
        assert_eq!(w.fire_due(v.now(), |_, _| {}), 1, "coalesced to one");
        let next = w.next_deadline().unwrap();
        assert_eq!(next, v.now() + Duration::from_millis(10));
    }
}
